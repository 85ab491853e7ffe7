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

Frequency truncation: band pieces are summed up to ``J = kappa + 3`` by
default, the smallest truncation whose low-pass plateau covers every
discrete frequency (``2**(J-1) >= pi * 2**kappa``); the telescoping identity
``sum_j psi_j = psi0(2**-J .)`` then makes the band decomposition of the
full operator exact on the grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sample import GridFunction, GridSpec
from .symbol import LocalizedAmplitude, SymbolClass, _norm

__all__ = [
    "CutoffFamily",
    "PieceIndex",
    "KernelSlice",
    "OperatorHandle",
    "default_cutoffs",
    "default_truncation",
    "default_nu",
    "apply",
    "lp_piece_apply",
    "spatial_piece_apply",
    "kernel_slice",
    "apply_localized",
    "symbol_operator",
    "band_operator",
    "piece_operator",
    "localized_operator",
    "kernel_matrix",
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

    name: str = "exp_step"

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


def default_truncation(spec: GridSpec) -> int:
    """Smallest J whose low-pass plateau covers all grid frequencies.

    The largest frequency radius is ``sqrt(n) * pi * 2**kappa`` so we need
    ``2**(J-1)`` at least that; J = kappa + 3 in 1D, kappa + 4 in 2D.
    """
    top = math.sqrt(spec.n) * math.pi * 2.0**spec.kappa
    j = spec.kappa + 2
    while 2.0 ** (j - 1) < top:
        j += 1
    return j


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


@dataclass(frozen=True)
class KernelSlice:
    """One x-row of a piece kernel on the periodic z-grid, FFT ordering:
    ``x`` is the cell centre (one coordinate per axis), ``z`` the offset
    radius of each value."""

    x: tuple[float, ...]
    z: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class OperatorHandle:
    """Callable operator with dense-matrix access for oracles."""

    name: str
    spec: GridSpec
    apply_fn: Callable[[GridFunction], GridFunction]
    matrix_fn: Callable[[], np.ndarray]
    local_radius: float | None = None

    def __call__(self, f: GridFunction) -> GridFunction:
        return self.apply_fn(f)

    def matrix(self) -> np.ndarray:
        return self.matrix_fn()


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
# application paths


_DIRECT_BLOCK = 128
_DENSE_LIMIT = 4096


def _apply_direct(a: SymbolClass, f: GridFunction, mult: np.ndarray | None) -> GridFunction:
    """Blocked literal quadrature; reference path for cross-checks."""
    spec = f.spec
    if spec.n == 2 and a.structure != "multiplier" and spec.N > 64:
        raise ValueError("direct 2D quadrature is limited to 64 cells per axis")
    fh = forward_transform(f)
    if mult is not None:
        fh = fh * mult
    dxi = 2.0 * np.pi / (spec.N * float(spec.h))
    fhd = (fh * dxi**spec.n).ravel()
    c = spec.centers()
    xi = tuple(x[None] for x in _freq_coords(spec))
    out = np.empty(spec.N**spec.n, dtype=np.complex128)
    for lo, cells in _cell_blocks(spec):
        B = len(cells[0])
        xb = tuple(c[ix].reshape((B,) + (1,) * spec.n) for ix in cells)
        amp = a.eval(tuple(np.broadcast_to(x, (B,) + spec.shape) for x in xb), xi)
        phase = functools.reduce(np.add, (q * x for q, x in zip(xi, xb)))
        # exp stays inside the product: numpy then multiplies into its
        # temporary, which fixes the last bits of the result
        out[lo : lo + B] = (amp * np.exp(1j * phase)).reshape(B, -1) @ fhd
    return f.with_values(out.reshape(spec.shape))


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


def _apply_symbol_mult(
    a: SymbolClass, f: GridFunction, mult: np.ndarray | None, method: str
) -> GridFunction:
    """Apply ``a(x, D)`` with an optional extra frequency multiplier."""
    _guard_support(f)
    if method == "direct" or a.structure == "general":
        return _apply_direct(a, f, mult)
    amp, xf = _amplitude(a, f.spec, mult)
    out = inverse_eval(f.spec, forward_transform(f) * amp)
    return f.with_values(out if xf is None else xf * out)


def apply(a: SymbolClass, f: GridFunction, method: str = "auto") -> GridFunction:
    """Full operator ``a(x, D) f`` by quadrature over all grid frequencies."""
    if method not in ("auto", "fft", "direct"):
        raise ValueError("method must be auto, fft, or direct")
    if method == "fft" and a.structure == "general":
        raise ValueError("fft path requires an x-independent or separable symbol")
    return _apply_symbol_mult(a, f, None, method)


def lp_piece_apply(
    a: SymbolClass, fam: CutoffFamily, j: int, f: GridFunction, method: str = "auto"
) -> GridFunction:
    """Frequency band piece: the symbol is multiplied by ``psi_j``."""
    mult = fam.band(j, _freq_radius(f.spec))
    return _apply_symbol_mult(a, f, mult, method)


# ---------------------------------------------------------------------------
# kernel rows and windowed pieces


def _kernel_rows(
    a: SymbolClass,
    spec: GridSpec,
    mult: np.ndarray | None,
    cells: tuple[np.ndarray, ...] | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Kernel rows ``K(x, z)`` on the periodic z-grid (FFT ordering) of the
    cells named by one index array per axis (at most ``_DIRECT_BLOCK``), or
    with ``cells=None`` the x-free row of a multiplier or separable symbol
    and its x-factor (None for cell rows, which include it)."""
    if cells is None:
        amp, xf = _amplitude(a, spec, mult)
        amp = amp[None]
    else:
        # contiguous x blocks keep each row's arithmetic that of a single row
        c, shape = spec.centers(), (len(cells[0]),) + spec.shape
        xs = tuple(np.repeat(c[ix], spec.N**spec.n).reshape(shape) for ix in cells)
        amp, xf = a.eval(xs, _freq_coords(spec)), None
        if mult is not None:
            amp = amp * mult
    N = spec.N
    dxi = 2.0 * np.pi / (N * float(spec.h))
    scale = (dxi / (2.0 * np.pi)) ** spec.n * N**spec.n
    return scale * _dft(spec.n)[1](amp), xf


def _cell_blocks(spec: GridSpec):
    """All cells in C order, ``_DIRECT_BLOCK`` at a time: the flat index of
    a block's first cell and one index array per axis."""
    cells = np.indices(spec.shape).reshape(spec.n, -1)
    for lo in range(0, cells.shape[1], _DIRECT_BLOCK):
        yield lo, tuple(cells[:, lo : lo + _DIRECT_BLOCK])


def _window_values(fam: CutoffFamily, idx: PieceIndex, spec: GridSpec) -> np.ndarray:
    return fam.window(idx.j, idx.ell, idx.nu, _z_radius(spec))


def _localization_window(spec: GridSpec, ell1: int) -> np.ndarray:
    return CutoffFamily().psi0(_z_radius(spec) * 2.0**-ell1)


def _correlate_rows(
    a: SymbolClass,
    spec: GridSpec,
    mult: np.ndarray | None,
    window: np.ndarray,
    f: GridFunction,
) -> GridFunction:
    """Contract windowed kernel rows against f; one FFT convolution when the
    kernel row shape does not depend on x (multiplier or separable)."""
    h = float(spec.h)
    fv = f.values
    if a.structure != "general":
        (row,), xf = _kernel_rows(a, spec, mult, None)
        fft, ifft = _dft(spec.n)
        out = h**spec.n * ifft(fft(row * window) * fft(fv))
        return f.with_values(out if xf is None else xf * out)
    N = spec.N
    if spec.n == 2 and N > 64:
        raise ValueError("x-dependent windowed 2D pieces are limited to 64 cells per axis")
    out = np.empty(spec.shape, dtype=np.complex128)
    # g(u) = f(-u) on the doubled periodic grid: f(x - z) over all z is one slice of g
    g = np.tile(fv[np.ix_(*(-np.arange(N) % N,) * spec.n)], (2,) * spec.n)
    hn = h**spec.n
    for _, cells in _cell_blocks(spec):
        rows = _kernel_rows(a, spec, mult, cells)[0] * window
        for row, *i in zip(rows, *cells):
            fy = g[tuple(slice(N - k, 2 * N - k) for k in i)]
            out[tuple(i)] = hn * np.dot(row.ravel(), fy.ravel())
    return f.with_values(out)


def spatial_piece_apply(
    a: SymbolClass, fam: CutoffFamily, idx: PieceIndex, f: GridFunction
) -> GridFunction:
    """Piece with frequency band ``j`` and dyadic spatial window ``ell``."""
    _guard_support(f)
    mult = fam.band(idx.j, _freq_radius(f.spec))
    window = _window_values(fam, idx, f.spec)
    return _correlate_rows(a, f.spec, mult, window, f)


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
    windowed: bool = True,
) -> KernelSlice:
    """Kernel row of the (j, ell) piece at the cell centre nearest x, times
    the piece's spatial window unless ``windowed`` is false; a scalar x is
    that coordinate on every axis."""
    x_index = _nearest_cell(_as_point(x, spec), spec)
    mult = fam.band(idx.j, _freq_radius(spec))
    (row,), _ = _kernel_rows(a, spec, mult, tuple(np.array(x_index)[:, None]))
    if windowed:
        row = row * _window_values(fam, idx, spec)
    c = spec.centers()
    return KernelSlice(x=tuple(float(c[i]) for i in x_index), z=_z_radius(spec), values=row)


def full_kernel_row(
    a: SymbolClass, spec: GridSpec, x_index: tuple[int, ...], window_radius: float | None = None
) -> np.ndarray:
    """Row of the full (all grid frequencies) kernel, optionally windowed by
    ``psi0(z / window_radius`` scale); FFT z-ordering."""
    (row,), _ = _kernel_rows(a, spec, None, tuple(np.array(x_index)[:, None]))
    if window_radius is not None:
        fam = CutoffFamily()
        row = row * fam.psi0(_z_radius(spec) / window_radius)
    return row


def apply_localized(atilde: LocalizedAmplitude, f: GridFunction) -> GridFunction:
    """Operator of the window-localized amplitude ``a(x, xi) psi0(2**-ell1 (x-y))``.

    No support guard here: the kernel reach is exactly 2**ell1, so the
    periodic evaluation is the intended one for any input (constants
    included) as long as the reach stays below half the domain.
    """
    spec = f.spec
    if 2.0**atilde.ell1 > float(spec.halfwidth):
        raise ValueError("wraparound risk: the localization radius exceeds half the domain")
    window = _localization_window(spec, atilde.ell1)
    return _correlate_rows(atilde.symbol, spec, None, window, f)


# ---------------------------------------------------------------------------
# dense forms and handles


def kernel_matrix(
    a: SymbolClass,
    spec: GridSpec,
    mult: np.ndarray | None = None,
    window: np.ndarray | None = None,
) -> np.ndarray:
    """Dense matrix M with ``(T f)_i = sum_j M[i, j] f_j`` over the flat
    (C order) cell indices, up to ``_DENSE_LIMIT`` cells."""
    N = spec.N
    if N**spec.n > _DENSE_LIMIT:
        raise ValueError("dense kernel too large")
    hn = float(spec.h) ** spec.n
    # idx[i, j]: flat index of the periodic offset i - j into a kernel row
    d = (np.arange(N)[:, None] - np.arange(N)[None, :]) % N
    idx = d
    for _ in range(1, spec.n):
        m = idx.shape[0] * N
        idx = (idx[:, None, :, None] * N + d[None, :, None, :]).reshape(m, m)
    if a.structure == "multiplier":
        (row,), _ = _kernel_rows(a, spec, mult, None)
        if window is not None:
            row = row * window
        return hn * row.ravel()[idx]
    M = np.empty(idx.shape, dtype=np.complex128)
    for lo, cells in _cell_blocks(spec):
        rows = _kernel_rows(a, spec, mult, cells)[0]
        if window is not None:
            rows = rows * window
        flat = slice(lo, lo + len(rows))
        M[flat] = hn * np.take_along_axis(rows.reshape(len(rows), -1), idx[flat], axis=1)
    return M


def _handle(
    a: SymbolClass,
    spec: GridSpec,
    label: str,
    apply_fn: Callable[[GridFunction], GridFunction],
    mult: np.ndarray | None = None,
    window: np.ndarray | None = None,
    local_radius: float | None = None,
) -> OperatorHandle:
    """Handle named after the symbol, with the dense form of the same kernel."""
    return OperatorHandle(
        name=f"{a.family}(m={a.m}){label}",
        spec=spec,
        apply_fn=apply_fn,
        matrix_fn=lambda: kernel_matrix(a, spec, mult, window),
        local_radius=local_radius,
    )


def symbol_operator(a: SymbolClass, spec: GridSpec) -> OperatorHandle:
    return _handle(a, spec, "", lambda f: apply(a, f))


def band_operator(a: SymbolClass, fam: CutoffFamily, j: int, spec: GridSpec) -> OperatorHandle:
    mult = fam.band(j, _freq_radius(spec))
    return _handle(a, spec, f"^({j})", lambda f: lp_piece_apply(a, fam, j, f), mult)


def piece_operator(
    a: SymbolClass, fam: CutoffFamily, idx: PieceIndex, spec: GridSpec
) -> OperatorHandle:
    mult, window = fam.band(idx.j, _freq_radius(spec)), _window_values(fam, idx, spec)
    return _handle(a, spec, f"^({idx.j},{idx.ell})", lambda f: spatial_piece_apply(a, fam, idx, f),
                   mult, window, 2.0 ** (idx.ell - idx.j * idx.nu + 1))


def localized_operator(atilde: LocalizedAmplitude, spec: GridSpec) -> OperatorHandle:
    window = _localization_window(spec, atilde.ell1)
    return _handle(atilde.symbol, spec, f"~ell1={atilde.ell1}",
                   lambda f: apply_localized(atilde, f), None, window, 2.0**atilde.ell1)
