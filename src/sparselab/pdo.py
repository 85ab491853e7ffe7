"""Grid realizations of symbol operators and their frequency/space pieces.

Quadrature convention: with samples at cell centers and discrete frequencies
``xi_k = 2 pi k / (N h)`` the forward transform is
``fhat(xi) = (2 pi)**-n * h**n * sum_x f(x) exp(-i xi x)`` and the operator is

    T f(x) = sum_xi a(x, xi) fhat(xi) exp(i xi x) dxi**n.

With this pairing the constant symbol reproduces ``f`` exactly on the grid
(discrete orthogonality), so identity probes have no quadrature floor.  The
kernel of a piece is ``K(x, z) = (2 pi)**-n * sum_xi a(x, xi) m(xi)
exp(i xi z) dxi**n`` and applications contract ``K(x, x - y) f(y) h**n`` over
the periodic grid.  Inputs must be supported in the central half of the
domain so that periodic wraparound never reaches the support ("wraparound
risk" otherwise).

Every operator is one ``OperatorHandle`` record: a symbol, an optional
frequency multiplier ``m`` (a band ``psi_j``) and an optional window on the
kernel offset ``z`` (a spatial shell, or the localization cutoff).  The
record alone decides how it is applied: multiplier and separable symbols
by transforms, general symbols by contracting kernel rows block by block.
The literal double sum over cells and frequencies is the tests' oracle.

Frequency truncation: band pieces are summed up to ``J = kappa + 3`` by
default, the smallest truncation whose low-pass plateau covers every
discrete frequency (``2**(J-1) >= pi * 2**kappa``); the telescoping identity
``sum_j psi_j = psi0(2**-J .)`` then makes the band decomposition of the
full operator exact on the grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sample import GridFunction, GridSpec
from .symbol import SymbolClass, _norm

__all__ = [
    "CutoffFamily",
    "PieceIndex",
    "OperatorHandle",
    "default_cutoffs",
    "default_nu",
    "apply",
    "lp_piece_apply",
    "spatial_piece_apply",
    "kernel_slice",
    "symbol_operator",
    "band_operator",
    "piece_operator",
    "localized_operator",
    "forward_transform",
    "inverse_eval",
]


def _exp_ratio(t: np.ndarray) -> np.ndarray:
    """Smooth step g(t)/(g(t)+g(1-t)) with g(t) = exp(-1/t) for t > 0."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    g1 = np.exp(-1.0 / tm)
    g2 = np.exp(-1.0 / (1.0 - tm))
    out[mid] = g1 / (g1 + g2)
    return out


@dataclass(frozen=True)
class CutoffFamily:
    """Radial Littlewood-Paley cutoffs built from a smooth transition step.

    ``psi0`` equals 1 for ``|xi| <= 1/2`` and 0 for ``|xi| >= 1``;
    ``psi = psi0(./2) - psi0`` lives on the annulus ``1/2 <= |xi| <= 2``;
    ``psi_j = psi(2**(1-j) .)`` lives on ``2**(j-2) <= |xi| <= 2**j``.
    """

    def psi0(self, radius: np.ndarray) -> np.ndarray:
        r = np.abs(np.asarray(radius, dtype=np.float64))
        return _exp_ratio(2.0 * (1.0 - r))

    def psi(self, radius: np.ndarray) -> np.ndarray:
        r = np.asarray(radius, dtype=np.float64)
        return self.psi0(r / 2.0) - self.psi0(r)

    def band(self, j: int, radius: np.ndarray) -> np.ndarray:
        if j < 0:
            raise ValueError("band index must be nonnegative")
        if j == 0:
            return self.psi0(radius)
        return self.psi(np.asarray(radius, dtype=np.float64) * 2.0 ** (1 - j))

    def window(self, j: int, ell: int, nu: float, radius: np.ndarray) -> np.ndarray:
        """Spatial window of the (j, ell) piece: dyadic shell for ell >= 1,
        core ball at ell = 0; summing ell = 0..L gives psi0(2**(j nu - L - 1) .)."""
        r = np.asarray(radius, dtype=np.float64)
        if ell == 0:
            return self.psi0(r * 2.0 ** (j * nu - 1.0))
        return self.psi(r * 2.0 ** (j * nu - ell))


def default_cutoffs() -> CutoffFamily:
    return CutoffFamily()


def default_nu(rho: float) -> float:
    """Spatial decomposition rate: just under the declared rho, in [0, 1)."""
    return min(max(rho - 0.05, 0.0), 0.95)


@dataclass(frozen=True)
class PieceIndex:
    """Index of one frequency-and-space piece of an operator."""

    j: int
    ell: int
    nu: float

    def __post_init__(self) -> None:
        if self.j < 0 or self.ell < 0:
            raise ValueError("piece indices must be nonnegative")
        if not (0 <= self.nu < 1):
            raise ValueError("spatial rate nu must lie in [0, 1)")


# ---------------------------------------------------------------------------
# transforms


def _dft(n: int) -> tuple[Callable, Callable]:
    """Forward and inverse DFT over the last ``n`` axes (the grid axes)."""
    return (np.fft.fft, np.fft.ifft) if n == 1 else (np.fft.fft2, np.fft.ifft2)


def _phase(spec: GridSpec) -> np.ndarray:
    """exp(-i xi . c_0) on the frequency grid (samples sit at cell centers)."""
    c0 = float(spec.center_fraction(0))
    return functools.reduce(np.multiply, spec.grid_coords(np.exp(-1j * spec.freqs() * c0)))


def _guard_support(f: GridFunction) -> None:
    sb = f.support_box()
    if sb is not None and not f.spec.central_half().contains_box(sb):
        raise ValueError("wraparound risk: support leaves the central half of the domain")


def forward_transform(f: GridFunction) -> np.ndarray:
    """Discrete ``(2 pi)**-n integral f exp(-i xi x) dx`` on the frequency grid."""
    n = f.spec.n
    return (2.0 * np.pi) ** -n * float(f.spec.h) ** n * _phase(f.spec) * _dft(n)[0](f.values)


def inverse_eval(spec: GridSpec, g: np.ndarray) -> np.ndarray:
    """Evaluate ``sum_xi g(xi) exp(i xi x) dxi**n`` at all cell centers."""
    N, n = spec.N, spec.n
    dxi = 2.0 * np.pi / (N * float(spec.h))
    return dxi**n * N**n * _dft(n)[1](g * np.conj(_phase(spec)))


def _freq_coords(spec: GridSpec) -> tuple[np.ndarray, ...]:
    return spec.grid_coords(spec.freqs())


def _freq_radius(spec: GridSpec) -> np.ndarray:
    return _norm(_freq_coords(spec))


def _z_radius(spec: GridSpec) -> np.ndarray:
    """Offset radius of the periodic z-grid, FFT ordering."""
    t = np.fft.fftfreq(spec.N, d=1.0 / spec.N) * float(spec.h)  # t*h with wrap to negatives
    return _norm(spec.grid_coords(t))


# ---------------------------------------------------------------------------
# kernel rows and windows


_BLOCK = 128
_DENSE_LIMIT = 4096


def _amplitude(
    a: SymbolClass, spec: GridSpec, mult: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Frequency amplitude (times ``mult``) and x-factor at the cell centers
    of a multiplier or separable symbol; the x-factor is None if it has none."""
    if a.n != spec.n:
        raise ValueError(f"a symbol in dimension {a.n} on a grid in dimension {spec.n}")
    if a.xi_factor is not None:
        amp = np.asarray(a.xi_factor(_freq_coords(spec)), dtype=np.complex128)
    else:
        amp = np.ones(spec.shape, dtype=np.complex128)
    xf = None if a.x_factor is None else a.x_factor(spec.grid_coords(spec.centers()))
    return (amp if mult is None else amp * mult), xf


def _rows(spec: GridSpec, amp: np.ndarray) -> np.ndarray:
    """Kernel rows on the periodic z-grid (FFT ordering) of frequency
    amplitudes, one row per leading index of ``amp``."""
    N = spec.N
    dxi = 2.0 * np.pi / (N * float(spec.h))
    scale = (dxi / (2.0 * np.pi)) ** spec.n * N**spec.n
    return scale * _dft(spec.n)[1](amp)


def _cell_rows(
    a: SymbolClass, spec: GridSpec, mult: np.ndarray | None, cells: tuple[np.ndarray, ...]
) -> np.ndarray:
    """Kernel rows ``K(x, z)`` of the cells named by one index array per
    axis (at most ``_BLOCK``)."""
    # contiguous x blocks keep each row's arithmetic that of a single row
    c, shape = spec.centers(), (len(cells[0]),) + spec.shape
    xs = tuple(np.repeat(c[ix], spec.N**spec.n).reshape(shape) for ix in cells)
    amp = a.eval(xs, _freq_coords(spec))
    return _rows(spec, amp if mult is None else amp * mult)


def _window_values(fam: CutoffFamily, idx: PieceIndex, spec: GridSpec) -> np.ndarray:
    return fam.window(idx.j, idx.ell, idx.nu, _z_radius(spec))


# ---------------------------------------------------------------------------
# the operator record


@dataclass(frozen=True, eq=False)
class OperatorHandle:
    """The operator of the symbol ``a`` on the grid ``spec``, with the symbol
    times the frequency multiplier ``mult`` and the kernel rows times the
    offset ``window`` (a function of z on the periodic z-grid, FFT
    ordering); either may be absent.

    Multiplier and separable symbols are applied by transforms: a product
    with the amplitude when there is no window, a convolution with the
    windowed x-free kernel row when there is one.  A general symbol is
    applied by contracting its windowed kernel rows with ``f``, ``_BLOCK``
    cells at a time.  ``row`` and ``matrix`` give the same kernel cell by
    cell and as a dense matrix.
    """

    a: SymbolClass
    spec: GridSpec
    mult: np.ndarray | None = None
    window: np.ndarray | None = None

    def __call__(self, f: GridFunction) -> GridFunction:
        """The operator applied to ``f`` after the support guard."""
        _guard_support(f)
        return self.apply(f)

    def apply(self, f: GridFunction) -> GridFunction:
        """The operator applied to ``f`` without the support guard."""
        spec = self.spec
        if f.spec != spec:
            raise ValueError(f"a function on {f.spec} given to an operator on {spec}")
        hn = float(spec.h) ** spec.n
        if self.a.structure != "general":
            if self.window is None:
                amp, xf = _amplitude(self.a, spec, self.mult)
                out = inverse_eval(spec, forward_transform(f) * amp)
            else:
                row, xf = self._free_row()
                fft, ifft = _dft(spec.n)
                out = hn * ifft(fft(row) * fft(f.values))
            return f.with_values(out if xf is None else xf * out)
        N = spec.N
        if spec.n == 2 and N > 64:
            raise ValueError("x-dependent 2D operators are limited to 64 cells per axis")
        out = np.empty(spec.shape, dtype=np.complex128)
        # g(u) = f(-u) on the doubled periodic grid: f(x - z) over all z is one slice of g
        g = np.tile(f.values[np.ix_(*(-np.arange(N) % N,) * spec.n)], (2,) * spec.n)
        for _, cells, rows in self._row_blocks():
            for row, *i in zip(rows, *cells):
                fy = g[tuple(slice(N - k, 2 * N - k) for k in i)]
                out[tuple(i)] = hn * np.dot(row.ravel(), fy.ravel())
        return f.with_values(out)

    def row(self, x_index: tuple[int, ...]) -> np.ndarray:
        """Windowed kernel of the cell x with index ``x_index`` per axis at
        every input cell y, ``K(x, x - y)``: row x of ``matrix()`` divided by
        ``h**n``, in the grid's shape."""
        N = self.spec.N
        (row,) = _cell_rows(self.a, self.spec, self.mult, tuple(np.array(x_index)[:, None]))
        # the offset x - y of input cell u sits at FFT position (i - u) mod N per axis
        u = np.arange(N)
        return self._windowed(row)[np.ix_(*((k - u) % N for k in x_index))]

    def matrix(self) -> np.ndarray:
        """Dense matrix M with ``(T f)_i = sum_j M[i, j] f_j`` over the flat
        (C order) cell indices, up to ``_DENSE_LIMIT`` cells."""
        spec, N = self.spec, self.spec.N
        if N**spec.n > _DENSE_LIMIT:
            raise ValueError("dense kernel too large")
        hn = float(spec.h) ** spec.n
        # idx[i, j]: flat index of the periodic offset i - j into a kernel row
        d = (np.arange(N)[:, None] - np.arange(N)[None, :]) % N
        idx = d
        for _ in range(1, spec.n):
            m = idx.shape[0] * N
            idx = (idx[:, None, :, None] * N + d[None, :, None, :]).reshape(m, m)
        if self.a.structure == "multiplier":
            return hn * self._free_row()[0].ravel()[idx]
        M = np.empty(idx.shape, dtype=np.complex128)
        for lo, _, rows in self._row_blocks():
            flat = slice(lo, lo + len(rows))
            M[flat] = hn * np.take_along_axis(rows.reshape(len(rows), -1), idx[flat], axis=1)
        return M

    def _windowed(self, rows: np.ndarray) -> np.ndarray:
        return rows if self.window is None else rows * self.window

    def _free_row(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Windowed x-free kernel row of a multiplier or separable symbol,
        and its x-factor (None if it has none)."""
        amp, xf = _amplitude(self.a, self.spec, self.mult)
        return self._windowed(_rows(self.spec, amp[None])[0]), xf

    def _row_blocks(self):
        """Windowed kernel rows of all cells in C order, ``_BLOCK`` at a
        time: the flat index of a block's first cell, one index array per
        axis, and the block's rows."""
        spec = self.spec
        cells = np.indices(spec.shape).reshape(spec.n, -1)
        for lo in range(0, cells.shape[1], _BLOCK):
            block = tuple(cells[:, lo : lo + _BLOCK])
            yield lo, block, self._windowed(_cell_rows(self.a, spec, self.mult, block))


def symbol_operator(a: SymbolClass, spec: GridSpec) -> OperatorHandle:
    """The full operator ``a(x, D)``: every grid frequency, no window."""
    return OperatorHandle(a, spec)


def band_operator(a: SymbolClass, fam: CutoffFamily, j: int, spec: GridSpec) -> OperatorHandle:
    """Frequency band piece: the symbol is multiplied by ``psi_j``."""
    return OperatorHandle(a, spec, fam.band(j, _freq_radius(spec)))


def piece_operator(
    a: SymbolClass, fam: CutoffFamily, idx: PieceIndex, spec: GridSpec
) -> OperatorHandle:
    """Piece with frequency band ``j`` and dyadic spatial window ``ell``."""
    mult, window = fam.band(idx.j, _freq_radius(spec)), _window_values(fam, idx, spec)
    return OperatorHandle(a, spec, mult, window)


def localized_operator(a: SymbolClass, ell1: int, spec: GridSpec) -> OperatorHandle:
    """The operator of ``a(x, xi) psi0(2**-ell1 (x - y))``: kernel rows cut
    off at radius ``2**ell1``.

    Apply it with the unguarded ``apply``: the kernel reach is exactly
    ``2**ell1``, so the periodic evaluation is the intended one for any
    input (constants included) as long as the reach stays below half the
    domain.
    """
    if ell1 < 0:
        raise ValueError("localization exponent must be nonnegative")
    if 2.0**ell1 > float(spec.halfwidth):
        raise ValueError("wraparound risk: the localization radius exceeds half the domain")
    return OperatorHandle(a, spec, window=CutoffFamily().psi0(_z_radius(spec) * 2.0**-ell1))


def apply(a: SymbolClass, f: GridFunction) -> GridFunction:
    """Full operator ``a(x, D) f`` by quadrature over all grid frequencies."""
    return symbol_operator(a, f.spec)(f)


def lp_piece_apply(a: SymbolClass, fam: CutoffFamily, j: int, f: GridFunction) -> GridFunction:
    """Frequency band piece ``j`` applied to ``f``."""
    return band_operator(a, fam, j, f.spec)(f)


def spatial_piece_apply(
    a: SymbolClass, fam: CutoffFamily, idx: PieceIndex, f: GridFunction
) -> GridFunction:
    """The (j, ell) piece applied to ``f``."""
    return piece_operator(a, fam, idx, f.spec)(f)


def _as_point(x: float | tuple[float, ...], spec: GridSpec) -> tuple[float, ...]:
    """A point with one coordinate per axis; a scalar is that coordinate on every axis."""
    xs = x if isinstance(x, tuple) else (float(x),) * spec.n
    if len(xs) != spec.n:
        raise ValueError("point dimension mismatch")
    return xs


def _nearest_cell(x: tuple[float, ...], spec: GridSpec) -> tuple[int, ...]:
    """Index per axis of the cell whose centre is nearest ``x``."""
    c = spec.centers()
    return tuple(int(np.argmin(np.abs(c - t))) for t in x)


def kernel_slice(
    a: SymbolClass,
    fam: CutoffFamily,
    idx: PieceIndex,
    x: float | tuple[float, ...],
    spec: GridSpec,
) -> np.ndarray:
    """Kernel of the (j, ell) piece, times its spatial window, at the cell
    centre nearest x and every input cell (:meth:`OperatorHandle.row`); a
    scalar x is that coordinate on every axis."""
    return piece_operator(a, fam, idx, spec).row(_nearest_cell(_as_point(x, spec), spec))

