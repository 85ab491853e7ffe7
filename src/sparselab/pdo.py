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
record alone decides how it is applied: a multiplier or separable symbol
``b(x) q(xi)`` is ``diag(b) C`` with ``C`` circulant, applied as
``b * ifft(R * fft(f))`` with ``R = h**n fft(row)`` of the windowed x-free
kernel row; a general symbol by contracting kernel rows block by block.
The literal double sum over cells and frequencies is the tests' oracle.
The same record gives what operator norms read: the Gram map ``M^H M``
(from ``R`` and ``b``; for constant ``|b|`` its real spectrum) and the
grid L^p norms of kernel rows and columns.

A real kernel maps real data to real data.  When the amplitude
``xi_factor * m`` is exactly Hermitian on the frequency grid
(``amp[-k mod N] == conj(amp[k])`` per axis, the Nyquist index its own
mirror) and the window and ``b`` are real, the image of an input with no
imaginary part is the real part of ``b * ifft(R * fft(f))``: the same
bits, without the rounding noise of the imaginary part.  Bessel and
``rough_bump`` symbols, and ``multiplication`` by a real function, have
real kernels in every piece; ``oscillatory_ct`` does not.  A general
symbol's kernel rows are real under the same rule, block by block
(``_cell_rows``), so its rows, matrix, norms and images are real where
its amplitude is Hermitian and complex elsewhere; a symbol with real
values builds them in real arithmetic from the start.

Frequency truncation: band pieces are summed up to ``J = kappa + 3`` by
default, the smallest truncation whose low-pass plateau covers every
discrete frequency (``2**(J-1) >= pi * 2**kappa``); the telescoping identity
``sum_j psi_j = psi0(2**-J .)`` then makes the band decomposition of the
full operator exact on the grid.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sample import GridFunction, GridSpec, _lp_h
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


def _guard_support(f: GridFunction) -> None:
    sb = f.support_box()
    if sb is not None and not f.spec.central_half().contains_box(sb):
        raise ValueError("wraparound risk: support leaves the central half of the domain")


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


def _rows(spec: GridSpec, amp: np.ndarray, real: bool = False) -> np.ndarray:
    """Kernel rows on the periodic z-grid (FFT ordering) of frequency
    amplitudes, one row per leading index of ``amp``; with ``real`` the
    amplitudes are Hermitian and the rows the real inverse transform of
    their half spectrum."""
    N = spec.N
    dxi = 2.0 * np.pi / (N * float(spec.h))
    scale = (dxi / (2.0 * np.pi)) ** spec.n * N**spec.n
    if not real:
        return scale * _dft(spec.n)[1](amp)
    half = amp[..., : N // 2 + 1]
    if spec.n == 1:
        return scale * np.fft.irfft(half, N)
    return scale * np.fft.irfft2(half, spec.shape)


def _cell_rows(
    a: SymbolClass, spec: GridSpec, mult: np.ndarray | None, cells: tuple[np.ndarray, ...]
) -> np.ndarray:
    """Kernel rows ``K(x, z)`` of the cells named by one index array per
    axis (at most ``_BLOCK``), in FFT offset order.

    The symbol is evaluated once on broadcast coordinates, x of shape
    ``(B, 1, ...)`` and xi of shape ``(1, N, ...)``, and its value is
    broadcast to ``(B, N, ...)``: the x-dependence costs B values, not
    ``B * N**n``, and each row keeps the bits of a single-cell call.

    When the block's amplitude ``a * mult`` is exactly Hermitian on the
    grid in every row (``_hermitian``, the rule of ``_free_row``), the rows
    are real (float64): the real inverse transform of the half spectrum,
    equal to the real parts of the complex rows up to rounding.  Otherwise
    they are complex.  A symbol with real values (``SymbolClass.eval``
    gives float64) has a real amplitude, so it is multiplied, tested (for
    evenness only) and transformed in real arithmetic, with the bits of
    the same values given as complex ones."""
    c, ones = spec.centers(), (1,) * spec.n
    xs = tuple(c[ix].reshape((-1,) + ones) for ix in cells)
    xi = tuple(q[None] for q in _freq_coords(spec))
    amp = np.broadcast_to(a.eval(xs, xi), (len(cells[0]),) + spec.shape)
    if mult is not None:
        amp = amp * mult
    return _rows(spec, amp, real=_hermitian(amp, spec.n))


def _shifted(arr: np.ndarray, lead: tuple[int, ...], lo: int, count: int) -> np.ndarray:
    """``V[b, u] = arr[b, (x_b - u) mod N]`` over the grid axes (the last
    ``len(lead) + 1`` axes of ``arr``) for the ``count`` cells
    ``x_b = (*lead, lo + b)``; an ``arr`` with no leading cell axis gives
    ``V[b, u] = arr[(x_b - u) mod N]``.

    One ``take`` per grid axis turns the leading axes by ``lead`` and
    doubles the last one reversed, ``d[..., k] = arr[..., -k mod N]`` for
    ``k < 2N``; ``V`` is a read-only strided view of ``d`` whose row b
    starts at ``N - lo - b`` on the last axis.  No ``N**n x N**n`` index
    array is built, and ``d`` is C-ordered, so ``V``'s rows are too."""
    N, n = arr.shape[-1], len(lead) + 1
    d = arr
    for axis, k in zip(range(-n, -1), lead):
        d = np.take(d, (k - np.arange(N)) % N, axis=axis)
    d = np.take(d, -np.arange(2 * N) % N, axis=-1)
    if d.ndim == n:
        d = d[None]  # one shared row: stride 0 across the cells
    s = d.strides
    return np.lib.stride_tricks.as_strided(
        d[..., N - lo :], (count,) + (N,) * n, (s[0] - s[-1],) + s[1:], writeable=False
    )


def _contract(rows: np.ndarray, u: np.ndarray, lead: tuple[int, ...], lo: int) -> np.ndarray:
    """``sum_z rows[b, z] u(x_b - z)`` over the grid for the cells ``x_b``
    of a row block (``_shifted``), in one product."""
    z = "yz"[-u.ndim :]  # einsum letters of the grid axes
    return np.einsum(f"x{z},x{z}->x", rows, _shifted(u, lead, lo, len(rows)))


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

    A multiplier or separable symbol ``M = diag(b) C`` is applied as
    ``b * ifft(R * fft(f))`` (``_transfer``), a general symbol by one
    contraction per block of at most ``_BLOCK`` cells of its windowed
    kernel rows with the shifted inputs.  A handle whose kernel is real (a
    Hermitian amplitude, a real window and a real ``b``) gives real inputs
    real images; a general handle's rows are then real too, so ``row``,
    ``matrix``, ``kernel_norms`` and ``apply`` run in real arithmetic.
    ``row`` and ``matrix`` give the kernel cell by cell and as a dense
    matrix, both from the row blocks.  ``gram`` and ``kernel_norms`` are
    what the operator norms read: ``gram`` gives ``M^H M`` in its cheapest
    basis (the spectrum of a circulant ``M^H M``, two FFT pairs, or two
    products with ``matrix()``) and whether it is real; only ``gram`` of a
    general symbol builds ``matrix()``, and ``kernel_norms`` reduces the
    row blocks without it.
    """

    a: SymbolClass
    spec: GridSpec
    mult: np.ndarray | None = None
    window: np.ndarray | None = None

    def __post_init__(self) -> None:
        # read-only copies: ``_transfer`` is computed once from them
        for name in ("mult", "window"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.array(arr)
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)

    def __call__(self, f: GridFunction) -> GridFunction:
        """The operator applied to ``f`` after the support guard."""
        _guard_support(f)
        return self.apply(f)

    def apply(self, f: GridFunction) -> GridFunction:
        """The operator applied to ``f`` without the support guard.

        A multiplier or separable handle with a real kernel (``_free_row``)
        returns the image of a real ``f`` as the real part of
        ``b * ifft(R * fft(f))``: the same real bits, an exactly zero
        imaginary part.  A general handle contracts real row blocks with
        the real part of ``f`` and, if ``f`` has one, apart with its
        imaginary part, so a real kernel gives a real ``f`` a real image."""
        spec = self.spec
        if f.spec != spec:
            raise ValueError(f"a function on {f.spec} given to an operator on {spec}")
        if self.a.structure != "general":
            R, xf, real = self._transfer
            fft, ifft = _dft(spec.n)
            # named: on large grids numpy would compute R * fft(...) in place
            # as fhat * R, and complex products round by operand order
            fhat = fft(f.values)
            out = ifft(R * fhat)
            if xf is not None:
                out = xf * out
            # a real kernel maps real data to real data: drop the rounding
            # noise of the imaginary part, keep the real part's bits
            return f.with_values(out.real if real and not np.any(f.values.imag) else out)
        if spec.n == 2 and spec.N > 64:
            raise ValueError("x-dependent 2D operators are limited to 64 cells per axis")
        hn = float(spec.h) ** spec.n
        vals, real_in = f.values, not np.any(f.values.imag)
        out = []
        for _, lead, lo, rows in self._row_blocks():
            # real rows contract the real and imaginary parts of f apart
            if np.iscomplexobj(rows):
                img = _contract(rows, vals, lead, lo)
            else:
                img = _contract(rows, vals.real, lead, lo)
                if not real_in:
                    img = img + 1j * _contract(rows, vals.imag, lead, lo)
            out.append(hn * img)
        return f.with_values(np.concatenate(out).reshape(spec.shape))

    def row(self, x_index: tuple[int, ...]) -> np.ndarray:
        """Windowed kernel of the cell x with index ``x_index`` per axis at
        every input cell y, ``K(x, x - y)``: row x of ``matrix()`` divided by
        ``h**n``, in the grid's shape (real when x's own amplitude is
        Hermitian, so up to rounding where x's row block is complex)."""
        (row,) = _cell_rows(self.a, self.spec, self.mult, tuple(np.array(x_index)[:, None]))
        # entry y is the offset x - y mod N, per axis
        offsets = np.ix_(*((k - np.arange(self.spec.N)) % self.spec.N for k in x_index))
        return self._windowed(row)[offsets]

    def matrix(self) -> np.ndarray:
        """Dense matrix M with ``(T f)_i = sum_j M[i, j] f_j`` over the flat
        (C order) cell indices, up to ``_DENSE_LIMIT`` cells: real (float64)
        when every row block is (``_cell_rows``) and the window is real."""
        size = self.spec.N**self.spec.n
        if size > _DENSE_LIMIT:
            raise ValueError("dense kernel too large")
        hn = float(self.spec.h) ** self.spec.n
        M = None
        for flat, lead, lo, rows in self._row_blocks():
            if M is None:
                M = np.empty((size, size), dtype=rows.dtype)
            elif np.iscomplexobj(rows) and not np.iscomplexobj(M):
                M = M.astype(np.complex128)  # a complex block after real ones
            out = M[flat : flat + len(rows)].reshape(rows.shape)
            np.multiply(hn, _shifted(rows, lead, lo, len(rows)), out=out)
        return M

    def gram(self) -> tuple[Callable[[np.ndarray], np.ndarray], bool]:
        """The Gram map ``M^H M`` of ``M = matrix()`` on flat vectors, in the
        basis where it is cheapest, and whether that map is real (maps real
        vectors to real vectors).  The basis is unitary, so the map has the
        spectrum of ``M^H M`` and the 2 -> 2 norm reads the same.

        * A multiplier, or a separable handle ``M = diag(b) C`` with
          constant ``|b|``: ``M^H M = |b|**2 C^H C`` is circulant, so in the
          frequency basis it is the pointwise product with its spectrum
          ``d = |b|**2 |R|**2`` (``R`` the transfer function of ``apply``),
          real for a real or a complex symbol alike; no transform runs per
          step.  The identity has ``R == 1`` and returns ``v`` exactly.
        * A separable handle with varying ``|b|``: two complex FFT pairs
          with ``R`` and ``|b|**2``, a complex map for a real kernel too.
        * A general handle: two products with ``matrix()``, real when the
          matrix is.
        """
        if self.a.structure == "general":
            M = self.matrix()
            return _dense_gram(M), not np.iscomplexobj(M)
        spec = self.spec
        R, xf, _ = self._transfer
        b = 1.0 if xf is None else np.abs(xf)
        if np.min(b) == np.max(b):
            d = (np.max(b) ** 2 * np.abs(R) ** 2).ravel()
            return (lambda v: d * v), True
        b2, R_adj = b**2, np.conj(R)
        fft, ifft = _dft(spec.n)

        def gram(v: np.ndarray) -> np.ndarray:
            u = b2 * ifft(R * fft(v.reshape(spec.shape)))
            return ifft(R_adj * fft(u)).ravel()

        return gram, False

    def kernel_norms(
        self, p: float, rows: bool = True, cols: bool = True
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Grid L^p norms (``p`` may be inf) of the kernel's rows ``K(x, .)``
        and columns ``K(., y)``, flat over the cells in C order; a side not
        asked for (``rows=False`` or ``cols=False``) is not computed and
        comes back as None.

        A multiplier or separable kernel has ``|K(x, y)| = |b(x)|
        |row(x - y)|``: its rows are ``|b(x)| ||row||_p``, and so are its
        columns when ``|b|`` is constant.  Otherwise a column's p-th power
        is the correlation of ``|b|**p`` with ``|row|**p``, by FFT (its
        rounding is relative to the largest column), and at p = inf the
        largest ``|b(y + z)| |row(z)|`` over the offsets z.  A general
        kernel is read off the rows of ``matrix()`` a block at a time,
        without building it: each row reduces in column order, and the
        columns accumulate row after row, the orders of a reduction over
        the whole matrix, so the norms have its bits.
        """
        spec = self.spec
        hn = float(spec.h) ** spec.n
        if self.a.structure == "general":
            return self._general_norms(p, rows, cols)
        row, xf, _ = self._free_row()
        u = np.abs(row)
        b = np.broadcast_to(1.0 if xf is None else np.abs(xf), spec.shape)
        norm = _lp_h(u, p, hn)
        row_norms = (b * norm).ravel() if rows else None
        if not cols:
            return row_norms, None
        if b.min() == b.max():
            return row_norms, np.full(b.size, b.flat[0] * norm)
        if math.isinf(p):
            col_norms = np.zeros(spec.shape)
            for z in zip(*np.nonzero(u)):
                shifted = np.roll(b, [-k for k in z], axis=tuple(range(spec.n)))
                col_norms = np.maximum(col_norms, u[z] * shifted)
            return row_norms, col_norms.ravel()
        fft, ifft = _dft(spec.n)
        corr = ifft(fft(b**p) * np.conj(fft(u**p))).real
        return row_norms, ((np.maximum(corr, 0.0) * hn) ** (1.0 / p)).ravel()

    def _general_norms(
        self, p: float, rows: bool, cols: bool
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``kernel_norms`` of a general kernel, from ``_row_blocks``."""
        hn = float(self.spec.h) ** self.spec.n
        inf = math.isinf(p)
        reduce = np.maximum.reduce if inf else np.add.reduce
        row_parts, col_acc = [], np.zeros(self.spec.N**self.spec.n)
        for _, lead, lo, block in self._row_blocks():
            # |M| / h**n entry by entry, so before the layout with the same bits
            A = np.abs(hn * block) / hn
            if not inf:
                A = A**p
            A = np.ascontiguousarray(_shifted(A, lead, lo, len(A))).reshape(len(A), -1)
            if rows:
                row_parts.append(reduce(A, axis=1))
            if cols:
                # the accumulator, then the block's rows in order
                col_acc = reduce(np.concatenate((col_acc[None], A)), axis=0)

        def root(v: np.ndarray) -> np.ndarray:
            return v if inf else (v * hn) ** (1.0 / p)

        return root(np.concatenate(row_parts)) if rows else None, root(col_acc) if cols else None

    def _windowed(self, rows: np.ndarray) -> np.ndarray:
        return rows if self.window is None else rows * self.window

    def _free_row(self) -> tuple[np.ndarray, np.ndarray | None, bool]:
        """Windowed x-free kernel row of a multiplier or separable symbol,
        its x-factor at the cell centers (None if it has none), and whether
        the kernel is real: a Hermitian amplitude (``_hermitian``), a real
        window and a real x-factor."""
        a, spec = self.a, self.spec
        if a.n != spec.n:
            raise ValueError(f"a symbol in dimension {a.n} on a grid in dimension {spec.n}")
        if a.xi_factor is None:
            amp = np.ones(spec.shape, dtype=np.complex128)
        else:
            amp = np.asarray(a.xi_factor(_freq_coords(spec)), dtype=np.complex128)
        if self.mult is not None:
            amp = amp * self.mult
        xf = None if a.x_factor is None else a.x_factor(spec.grid_coords(spec.centers()))
        real = (
            _hermitian(amp, spec.n)
            and (self.window is None or not np.any(np.imag(self.window)))
            and (xf is None or not np.any(np.imag(xf)))
        )
        return self._windowed(_rows(spec, amp[None])[0]), xf, real

    @functools.cached_property
    def _transfer(self) -> tuple[np.ndarray, np.ndarray | None, bool]:
        """Transfer function ``R = h**n fft(row)`` of the windowed x-free
        kernel row, ``M = diag(b) ifft(R fft(.))``, the x-factor ``b`` and
        whether the kernel is real (``_free_row``); computed once per
        handle."""
        row, xf, real = self._free_row()
        R = float(self.spec.h) ** self.spec.n * _dft(self.spec.n)[0](row)
        R.flags.writeable = False
        return R, xf, real

    def _row_blocks(self):
        """Windowed kernel rows of all cells in C order, in blocks of at most
        ``_BLOCK`` cells that share every index but the last: the flat index
        of a block's first cell, the shared leading indices, the block's
        first last index, and its rows (FFT offset order)."""
        spec, N = self.spec, self.spec.N
        for lead in np.ndindex(*(N,) * (spec.n - 1)):
            for lo in range(0, N, _BLOCK):
                last = np.arange(lo, min(lo + _BLOCK, N))
                cells = tuple(np.full(last.size, k) for k in lead) + (last,)
                rows = self._windowed(_cell_rows(self.a, spec, self.mult, cells))
                yield int(np.ravel_multi_index(lead + (lo,), spec.shape)), lead, lo, rows


# per grid axis: the index 0, its own mirror, and the indices 1..N-1 with
# their mirrors N-1..1 (the Nyquist index N/2 maps to itself)
_MIRRORS = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))


def _hermitian(amp: np.ndarray, n: int) -> bool:
    """Whether ``amp[..., -k mod N] == conj(amp[..., k])`` exactly on each of
    the last ``n`` (grid) axes, for every leading index: the amplitudes of
    real kernel rows.  The parts are compared as views, a mirrored slice
    against a slice per axis, without a mirrored or conjugated copy; a real
    ``amp`` has no imaginary part to compare, only its evenness."""
    re, im = amp.real, amp.imag if np.iscomplexobj(amp) else None
    for pairs in itertools.product(_MIRRORS, repeat=n):
        k = (...,) + tuple(at for at, _ in pairs)
        mirror = (...,) + tuple(m for _, m in pairs)
        if not (re[mirror] == re[k]).all():
            return False
        if im is not None and not (im[mirror] == -im[k]).all():
            return False
    return True


def _dense_gram(M: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``v -> M^H M v`` by two products with ``M``, without a copy of ``M^H``."""
    return lambda v: np.conj(np.conj(M @ v) @ M)


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
    if ell1 > spec.K:  # 2**ell1 over the half-width 2**K, in integers
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

