"""Sampled functions on uniform grids over a dyadic box domain.

The domain is ``[-2**K, 2**K)**n`` split into cells of width ``2**-kappa``;
samples live at cell centers.  Cell centers have odd numerators over
``2**(kappa+1)`` while shifted-cube corners are thirds of dyadic rationals,
so a center can never land on a corner: membership of cells in cubes is
exact, and every cube with ``-K <= k <= kappa`` holds exactly
``2**((kappa-k)*n)`` cells per its volume.  Functions are extended by zero
outside the domain; averages over boxes poking past the boundary integrate
that extension while normalizing by the full box volume.

In the unit ``2**-(kappa+1) / 3`` both are integers: the center of cell ``i``
is ``3*(2i+1) - 3N`` and the lower corner of a cube with ``k <= kappa`` is
``(3m + s*omega) * 2**(kappa+1-k)``.  So a cube's cells come from integer
arithmetic alone; other boxes go through exact Fraction corners, which are
also the reference the integer map is tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .dyadic import Box, DyadicCube, shift_sign
from .symbol import _norm

__all__ = [
    "GridSpec",
    "GridFunction",
    "ExponentPair",
    "average_p",
    "make_corpus",
    "save_grid_function",
    "load_grid_function",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid over ``[-2**K, 2**K)**n`` with spacing ``2**-kappa``."""

    n: int
    K: int
    kappa: int

    def __post_init__(self) -> None:
        if self.n not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        if self.kappa < 0 or self.K + self.kappa < 0:
            raise ValueError("grid resolution must not be coarser than the domain")

    @property
    def N(self) -> int:
        """Number of cells per axis."""
        return 2 ** (self.K + self.kappa + 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    @property
    def h(self) -> Fraction:
        return Fraction(1, 2**self.kappa)

    @property
    def halfwidth(self) -> Fraction:
        return Fraction(2**self.K)

    def domain(self) -> Box:
        lo = -self.halfwidth
        hi = self.halfwidth
        return Box((lo,) * self.n, (hi,) * self.n)

    def central_half(self) -> Box:
        lo = -self.halfwidth / 2
        hi = self.halfwidth / 2
        return Box((lo,) * self.n, (hi,) * self.n)

    def centers(self) -> np.ndarray:
        """Cell-center coordinates along one axis as floats."""
        h = float(self.h)
        return (np.arange(self.N) + 0.5) * h - float(self.halfwidth)

    def grid_coords(self, v: np.ndarray) -> tuple[np.ndarray, ...]:
        """One copy of the axis samples ``v`` per axis, shaped to broadcast to the grid."""
        n = self.n
        return tuple(v.reshape((1,) * k + (-1,) + (1,) * (n - 1 - k)) for k in range(n))

    def freqs(self) -> np.ndarray:
        """Discrete frequencies along one axis, FFT ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.N, d=float(self.h))

    def cell_range(self, lo: Fraction, hi: Fraction) -> tuple[int, int]:
        """Index range ``[i0, i1)`` of cells whose centers lie in ``[lo, hi)``."""
        # center_i = (2i+1)h/2 - L >= lo  <=>  i >= (lo+L)/h - 1/2
        t0 = (lo + self.halfwidth) / self.h - Fraction(1, 2)
        t1 = (hi + self.halfwidth) / self.h - Fraction(1, 2)
        i0 = -((-t0.numerator) // t0.denominator)  # ceil
        i1 = -((-t1.numerator) // t1.denominator)
        return max(i0, 0), min(max(i1, 0), self.N)

    def cube_cell_start(self, k: int, m, w: int):
        """Index of the first cell along one axis of the scale-``k`` cube with
        corner ``m`` and shift ``w``, before clipping to the domain; the cube
        holds the ``2**(kappa-k)`` cells from there on.  ``m`` may be an
        integer array, and start and corner then move together:
        ``m + 1`` starts ``2**(kappa-k)`` cells later."""
        if k > self.kappa:
            raise ValueError("subgrid cube: finer than a grid cell")
        lo = (3 * m + shift_sign(k) * w) * (1 << (self.kappa + 1 - k)) + 3 * self.N - 3
        return -(-lo // 6)  # ceil

    def cell_ranges(self, region: Box | DyadicCube) -> tuple[tuple[int, int], ...]:
        """Per-axis ``[i0, i1)`` of the in-domain cells whose centers lie in a
        box or cube: integer arithmetic for a cube, exact Fraction corners
        for a box, which give the same ranges on the cube's box.  A cube
        finer than a cell has no integer corners and raises."""
        if region.n != self.n:
            raise ValueError("region dimension does not match the grid")
        if isinstance(region, Box):
            return tuple(self.cell_range(lo, hi) for lo, hi in zip(region.lower, region.upper))
        starts = [self.cube_cell_start(region.k, m, w) for m, w in zip(region.m, region.omega)]
        side = 1 << (self.kappa - region.k)
        return tuple((max(i0, 0), min(max(i0 + side, 0), self.N)) for i0 in starts)

    def cell_slices(self, region: Box | DyadicCube) -> tuple[slice, ...]:
        """:meth:`cell_ranges` as slices that index the grid's arrays."""
        return tuple(slice(i0, i1) for i0, i1 in self.cell_ranges(region))

    def box_flat_cells(self, region: Box | DyadicCube) -> np.ndarray:
        """Flat indices of in-domain cells whose centers lie in a box or cube."""
        ranges = self.cell_ranges(region)
        flat = np.arange(*ranges[0])
        for i0, i1 in ranges[1:]:
            flat = (flat[:, None] * self.N + np.arange(i0, i1)).ravel()
        return flat


def _lp_h(v: np.ndarray, p: float, hn: float) -> float:
    """Grid L^p norm of the values ``v`` with cell volume ``hn``."""
    if math.isinf(p):
        return float(np.max(np.abs(v))) if v.size else 0.0
    return float((np.sum(np.abs(v) ** p) * hn) ** (1.0 / p))


class GridFunction:
    """Complex samples at the cell centers of a :class:`GridSpec`."""

    def __init__(self, spec: GridSpec, values: np.ndarray, name: str = ""):
        # one new array, converted in the copy: never the caller's
        values = np.array(values, dtype=np.complex128)
        if values.shape != spec.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {spec.shape}")
        values.setflags(write=False)
        self.spec = spec
        self.values = values
        self.name = name

    @classmethod
    def _adopt(cls, spec: GridSpec, values: np.ndarray, name: str = "") -> "GridFunction":
        """A grid function that keeps ``values``, a grid-shaped complex128
        array that no one else holds, without a copy."""
        out = cls.__new__(cls)
        values.setflags(write=False)
        out.spec, out.values, out.name = spec, values, name
        return out

    @classmethod
    def zeros(cls, spec: GridSpec) -> "GridFunction":
        return cls._adopt(spec, np.zeros(spec.shape, dtype=np.complex128))

    @classmethod
    def from_callable(
        cls, spec: GridSpec, fn: Callable[..., np.ndarray], name: str = ""
    ) -> "GridFunction":
        """Samples ``fn(x_0, ..., x_{n-1})`` at the cell centers, one
        coordinate array per axis, shaped to broadcast to the grid."""
        vals = fn(*spec.grid_coords(spec.centers()))
        return cls(spec, np.broadcast_to(vals, spec.shape), name)

    @classmethod
    def indicator(cls, spec: GridSpec, box: Box, amplitude: complex = 1.0,
                  name: str = "") -> "GridFunction":
        vals = np.zeros(spec.shape, dtype=np.complex128)
        vals[spec.cell_slices(box)] = amplitude
        return cls._adopt(spec, vals, name)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.spec, values, self.name)

    def support_box(self) -> Box | None:
        """Smallest cell-aligned box containing all nonzero cells."""
        nz = np.nonzero(np.abs(self.values) > 0)
        if nz[0].size == 0:
            return None
        h = self.spec.h
        L = self.spec.halfwidth
        lower = []
        upper = []
        for ax in range(self.spec.n):
            lower.append(int(nz[ax].min()) * h - L)
            upper.append((int(nz[ax].max()) + 1) * h - L)
        return Box(tuple(lower), tuple(upper))

    def lp_norm(self, p: float) -> float:
        return _lp_h(self.values, p, float(self.spec.h) ** self.spec.n)

    def restrict_box(self, region: Box | DyadicCube) -> "GridFunction":
        vals = np.zeros(self.spec.shape, dtype=np.complex128)
        sl = self.spec.cell_slices(region)
        vals[sl] = self.values[sl]
        return GridFunction._adopt(self.spec, vals, self.name)


@dataclass(frozen=True)
class ExponentPair:
    """Lebesgue exponent pair ``1 <= r <= s <= inf`` with derived duals."""

    r: float
    s: float

    def __post_init__(self) -> None:
        if not (1 <= self.r <= self.s):
            raise ValueError("exponents violate 1 <= r <= s")

    @staticmethod
    def _dual(p: float) -> float:
        if math.isinf(p):
            return 1.0
        if p == 1:
            return math.inf
        return p / (p - 1)

    @property
    def r_prime(self) -> float:
        return self._dual(self.r)

    @property
    def s_prime(self) -> float:
        return self._dual(self.s)

    @property
    def schur_p(self) -> float:
        """Exponent ``p`` with ``1/s + 1 = 1/p + 1/r`` (Young-type relation).

        ``inv == 0`` (the (1, inf) corner) means ``p = inf``: the kernel-sup
        bound.  Since r <= s forces ``inv >= 0``, this never raises, but the
        guard stays as a tripwire for future exponent relaxations.
        """
        inv = 1.0 + (0.0 if math.isinf(self.s) else 1.0 / self.s) - 1.0 / self.r
        if inv < 0:
            raise ValueError("no admissible Schur exponent for this pair")
        return math.inf if inv == 0 else 1.0 / inv


def average_p(
    f: GridFunction, region: DyadicCube | Box | np.ndarray, p: float
) -> float:
    """p-average ``(|Q|**-1 * integral_Q |f|**p)**(1/p)`` over a cube, box,
    or explicit cell set; ``p = inf`` gives the cell max."""
    spec = f.spec
    if isinstance(region, DyadicCube):
        cells = spec.box_flat_cells(region)
        vol = 2.0 ** (-region.k * spec.n)
    elif isinstance(region, Box):
        if any(s < spec.h for s in region.sides):
            raise ValueError("subgrid cube")
        cells = spec.box_flat_cells(region)
        vol = float(region.volume())
    else:
        cells = np.asarray(region, dtype=np.int64)
        vol = cells.size * float(spec.h) ** spec.n
    a = np.abs(f.values.ravel()[cells])
    if math.isinf(p):
        return float(a.max(initial=0.0))
    if vol <= 0:
        raise ValueError("region has no volume")
    hn = 2.0 ** (-spec.kappa * spec.n)  # cell volume, exact
    return float((hn * np.sum(a**p) / vol) ** (1.0 / p))


def _smooth_bump(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t, dtype=np.float64)
    inside = np.abs(t) < 1
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


def _bump_product(xs: tuple[np.ndarray, ...], centre, width) -> np.ndarray:
    """Product over the axes of ``_smooth_bump((x_k - centre_k) / width_k)``."""
    bumps = (_smooth_bump((x - c) / w) for x, c, w in zip(xs, centre, width))
    return functools.reduce(np.multiply, bumps)


def make_corpus(spec: GridSpec, seed: int, count: int) -> list[GridFunction]:
    """Deterministic mix of bumps, cube indicators, sign combs, and windowed
    band-limited noise, all supported inside the central half of the domain."""
    rng = np.random.default_rng(seed)
    half = spec.central_half()
    out: list[GridFunction] = []
    kinds = ("bump", "indicator", "comb", "bandnoise")
    for idx in range(count):
        kind = kinds[idx % len(kinds)]
        amp = float(rng.uniform(0.5, 2.0))
        if kind == "bump":
            c = rng.uniform(-float(spec.halfwidth) / 4, float(spec.halfwidth) / 4, spec.n)
            w = rng.uniform(float(spec.halfwidth) / 8, float(spec.halfwidth) / 4, spec.n)
            fn = lambda *xs: amp * _bump_product(xs, c, w)
            gf = GridFunction.from_callable(spec, fn, f"bump_{idx:02d}")
        elif kind == "indicator":
            gf = GridFunction.indicator(
                spec, _random_cell_box(rng, spec, half), amp, f"indicator_{idx:02d}"
            )
        elif kind == "comb":
            box = _random_cell_box(rng, spec, half)
            signs = rng.choice([-1.0, 1.0], size=spec.shape)
            vals = np.zeros(spec.shape, dtype=np.complex128)
            sl = spec.cell_slices(box)
            vals[sl] = amp * signs[sl]
            gf = GridFunction(spec, vals, f"comb_{idx:02d}")
        else:
            cutoff = 2 ** int(rng.integers(2, max(3, spec.kappa - 1)))
            vals = _band_noise(rng, spec, cutoff)
            xs = spec.grid_coords(spec.centers())
            vals = vals * _bump_product(xs, (0.0,) * spec.n, (float(spec.halfwidth) / 2,) * spec.n)
            peak = np.abs(vals).max()
            if peak > 0:
                vals = vals * (amp / peak)
            gf = GridFunction(spec, vals, f"bandnoise_{idx:02d}")
        out.append(gf)
    return out


def _random_cell_box(rng: np.random.Generator, spec: GridSpec, within: Box) -> Box:
    """Random cell-aligned box with dyadic side, inside ``within``."""
    h = spec.h
    max_cells = int((within.upper[0] - within.lower[0]) / h)
    side_cells = 2 ** int(rng.integers(0, max(1, int(math.log2(max_cells)))))
    lower = []
    upper = []
    for ax in range(spec.n):
        lo_cell, hi_cell = spec.cell_range(within.lower[ax], within.upper[ax])
        start = int(rng.integers(lo_cell, max(hi_cell - side_cells, lo_cell) + 1))
        lower.append(start * h - spec.halfwidth)
        upper.append((start + side_cells) * h - spec.halfwidth)
    return Box(tuple(lower), tuple(upper))


def _band_noise(rng: np.random.Generator, spec: GridSpec, cutoff: float) -> np.ndarray:
    mask = _norm(spec.grid_coords(spec.freqs())) <= cutoff
    coef = (rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)) * mask
    return np.fft.ifftn(coef).real


def save_grid_function(path, f: GridFunction) -> None:
    """Write the plain-text header ``n K kappa`` then interleaved float64
    real/imaginary parts of the samples in row-major order."""
    flat = f.values.ravel()
    buf = np.empty(2 * flat.size, dtype=np.float64)
    buf[0::2] = flat.real
    buf[1::2] = flat.imag
    with open(path, "wb") as fh:
        fh.write(f"{f.spec.n} {f.spec.K} {f.spec.kappa}\n".encode("ascii"))
        fh.write(buf.tobytes())


def load_grid_function(path) -> GridFunction:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        if len(header) != 3:
            raise ValueError("malformed grid function header")
        n, K, kappa = (int(t) for t in header)
        spec = GridSpec(n, K, kappa)
        buf = np.frombuffer(fh.read(), dtype=np.float64)
    expected = 2 * spec.N**spec.n
    if buf.size != expected:
        raise ValueError(f"payload holds {buf.size} floats, expected {expected}")
    vals = (buf[0::2] + 1j * buf[1::2]).reshape(spec.shape)
    return GridFunction(spec, vals)
