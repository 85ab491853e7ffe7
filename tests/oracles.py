"""Reference implementations that only the tests use.

Each one is the slow, direct form of something the package computes
another way, or a piece of exact geometry that only the checks need:

* ``dfs_stopping_time``: the stopping-time family by a depth-first search
  that takes every cube average with ``average_p``; the package walks one
  scale at a time over block sums and must match it entry for entry.
* ``dfs_whitney``: the Whitney-type family by a depth-first stack that
  takes each core's thresholds with ``average_p`` and its survivor set as
  its cells minus its kids' by ``np.setdiff1d``; the package walks the
  entries parents first and paints survivor labels, and must match it
  entry for entry.
* ``parent`` and ``cube_containing_point``: exact Fraction geometry.
* ``enumerate_cubes_by_test``: the cubes meeting a window by building
  each candidate's box and testing it against the window; the package
  reads the exact corner range.
* ``box_cell_count``: in-domain cells of a box.
* ``default_truncation``: the band count whose low-pass plateau covers
  every grid frequency.
* ``fourier_sum``: ``fhat`` as the literal sum over cells, with exact
  integer phases and no FFT.
* ``direct_quadrature``: ``a(x, D) f`` as the literal double sum over
  cells and frequencies; the package applies the operator by FFT
  convolution with a kernel row or by contracting kernel rows.
* ``gathered_matrix``: an operator's dense matrix by one gather with the
  ``N**n x N**n`` array of periodic offsets; the package lays kernel rows
  out by strided copies.
* ``cellwise_apply``: a general operator applied by one dot product per
  cell; the package contracts a block of cells at a time.
* ``dense_kernel_norms``: row and column norms reduced over the whole
  dense matrix; the package reduces its rows a block at a time.
* ``dense_l2_norm``: the 2 -> 2 norm by a full SVD of the dense matrix.
* ``dense_top_ritz``: the top eigenpair of a Lanczos tridiagonal by a
  dense ``eigh`` of the k x k matrix; the package runs Laguerre steps on
  its pivots and one twisted solve, in O(k) memory.
* ``exact_count_above``: how many eigenvalues of a tridiagonal lie above
  a float, exactly, by a Sturm sequence in integers.
* ``DenseMatrix``: a raw matrix with the reads the norm probes take from
  an operator handle, so a handle's norms can be checked against its own
  dense form.
* ``per_entry_sparsity``: ``verify_sparsity`` with ``Fraction`` volumes
  and a scan of every entry for each entry's children.
* ``per_entry_sparse_form`` and ``per_entry_domination``: the sparse form
  and the domination report with one ``average_p`` per entry's region and
  one ``np.add.at`` per entry's cube; the package reads every region
  average in one call and adds every entry's cells at once.
* ``third_partition_residual``: the central thirds of the three shift
  classes reassemble a function.
* ``block_sliding_max``: window maxima by block prefix and suffix maxima;
  the package takes them by doubling.
* ``centred_sweep`` and ``sweep_level_set``: the centred maximal and its
  level set by a sweep over every admissible width at every cell; the
  package skips the cells and widths that cannot reach the threshold.
* ``ladder_without_skips``: the sharp-maximal ladder with one numpy
  expression over every window of each width; the package builds it in
  blocks and skips the windows that cannot raise a value above a floor
  (0 unless the caller passes one).
* ``full_grid_sharp_ratio``: ``verify.sharp_ratio_probe`` with every
  window of the sharp image computed; the package skips the windows that
  cannot lift a value above ``DENOM_FLOOR``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from sparselab.dyadic import (
    Box,
    DyadicCube,
    children,
    concentric_dilate,
    cube_box,
    enumerate_cubes,
    shift_sign,
    third_dilate,
    whitney_decompose,
)
from sparselab.maximal import (
    _centred_widths,
    _corners,
    _prefix_sums,
    _sliding_sums,
    _window_sums,
    maximal_p,
    sharp_maximal,
)
from sparselab.pdo import _BLOCK, OperatorHandle, _cell_rows, _dense_gram, localized_operator
from sparselab.sample import ExponentPair, GridFunction, GridSpec, average_p
from sparselab.sparse import (
    SparseCollection,
    SparseEntry,
    SparsityReport,
    StoppingConfig,
    WhitneyConfig,
)
from sparselab.symbol import SymbolClass
from sparselab.verify import DENOM_FLOOR, DominationReport, SharpRatioReport, _image_of, _median


def dfs_stopping_time(f: GridFunction, g: GridFunction, config: StoppingConfig) -> SparseCollection:
    """``build_stopping_time`` by depth-first search with ``average_p``."""
    spec = f.spec
    r = config.pair.r
    sp = config.pair.s_prime
    jump_f = config.threshold_base ** (1.0 / r)
    jump_g = config.threshold_base ** (1.0 / sp)
    coll = SparseCollection(spec, "stopping", Fraction(1, 2))
    boxes = [b for b in (f.support_box(), g.support_box()) if b is not None]
    if not boxes:
        return coll
    window = Box(
        tuple(min(b.lower[i] for b in boxes) for i in range(spec.n)),
        tuple(max(b.upper[i] for b in boxes) for i in range(spec.n)),
    )
    if config.roots is not None:
        roots = list(config.roots)
    else:
        roots = []
        for om in np.ndindex(*(3,) * spec.n):
            roots.extend(enumerate_cubes(-(spec.K + 1), om, window))

    def select(cube: DyadicCube, tf: float, tg: float) -> list[DyadicCube]:
        out = []
        stack = list(children(cube)) if cube.k < spec.kappa else []
        while stack:
            c = stack.pop()
            af = average_p(f, c, r)
            ag = average_p(g, c, sp)
            if af > tf or ag > tg:
                out.append(c)
            elif (af > 0 or ag > 0) and c.k < spec.kappa:
                stack.extend(children(c))
        return out

    for root in roots:
        af = average_p(f, root, r)
        ag = average_p(g, root, sp)
        if af == 0 and ag == 0:
            continue
        stack = [(root, -1, 0, af, ag)]
        while stack:
            q, parent_idx, rank, qaf, qag = stack.pop()
            kids = select(q, jump_f * qaf, jump_g * qag)
            kids.sort(key=lambda c: (c.k, c.m))
            survivor = spec.box_flat_cells(q)
            if kids:
                kc = np.concatenate([spec.box_flat_cells(c) for c in kids])
                survivor = np.setdiff1d(survivor, kc, assume_unique=True)
            coll.entries.append(SparseEntry(q, rank, parent_idx, survivor))
            me = len(coll.entries) - 1
            for c in kids:
                stack.append((c, me, rank + 1, average_p(f, c, r), average_p(g, c, sp)))
    return coll


def dfs_whitney(f: GridFunction, g: GridFunction, config: WhitneyConfig) -> SparseCollection:
    """``build_whitney_sparse`` by a depth-first stack, for inputs it
    accepts: supports in the central half and a domain that fits a core."""
    spec = f.spec
    coll = SparseCollection(spec, "whitney", config.eta * Fraction(3) ** (-spec.n))
    boxes = [b for b in (f.support_box(), g.support_box()) if b is not None]
    if not boxes:
        return coll
    window = Box(
        tuple(min(b.lower[i] for b in boxes) for i in range(spec.n)),
        tuple(max(b.upper[i] for b in boxes) for i in range(spec.n)),
    )
    reach = 2.0**config.ell1 + 2.0 * config.ell2
    k0 = 0
    while 2.0**-k0 < reach:
        k0 -= 1
    r = config.pair.r
    sp = config.pair.s_prime
    one_minus = 1.0 - float(config.eta)
    cf = (3.0 ** (spec.n + 1) / one_minus) ** (1.0 / r) * 3.0 ** (spec.n / r)
    cg = (2.0 / one_minus) ** (1.0 / sp) * 3.0 ** (spec.n / sp)
    zero = (0,) * spec.n
    stack = [(q, -1, 0) for q in reversed(list(enumerate_cubes(k0, zero, window)))]
    while stack:
        q, parent_idx, rank = stack.pop()
        qbox = cube_box(q)
        tbox = concentric_dilate(qbox, 3)
        mask = sweep_level_set(f.restrict_box(tbox), r, cf * average_p(f, tbox, r))
        mask |= sweep_level_set(g.restrict_box(q), sp, cg * average_p(g, q, sp))
        kids = [w for w in whitney_decompose(mask, zero, spec) if qbox.contains_box(cube_box(w))]
        kids.sort(key=lambda c: (c.k, c.m))
        survivor = spec.box_flat_cells(q)
        if kids:
            kc = np.concatenate([spec.box_flat_cells(c) for c in kids])
            survivor = np.setdiff1d(survivor, kc, assume_unique=True)
        coll.entries.append(SparseEntry(q, rank, parent_idx, survivor))
        me = len(coll.entries) - 1
        for w in reversed(kids):
            stack.append((w, me, rank + 1))
    return coll


def parent(c: DyadicCube) -> DyadicCube:
    """The scale ``k-1`` cube of the same family containing ``c``."""
    s = shift_sign(c.k - 1)
    m = tuple((mi - s * wi) // 2 for mi, wi in zip(c.m, c.omega))
    up = DyadicCube(c.k - 1, m, c.omega)
    if not cube_box(up).contains_box(cube_box(c)):
        raise AssertionError("parent does not contain child")
    return up


def cube_containing_point(x: Sequence[Fraction], k: int, omega: tuple[int, ...]) -> DyadicCube:
    """The unique scale-``k`` cube of family ``omega`` containing ``x``."""
    scale = Fraction(2) ** (-k)
    s = shift_sign(k)
    m = []
    for xi, wi in zip(x, omega):
        t = xi / scale - Fraction(s * wi, 3)
        m.append(t.numerator // t.denominator)
    c = DyadicCube(k, tuple(m), omega)
    if not cube_box(c).contains_point(x):
        raise AssertionError("point landed outside its computed cube")
    return c


def enumerate_cubes_by_test(k: int, omega: tuple[int, ...], window: Box):
    """``enumerate_cubes`` by generate-and-test: every cube of a range one
    wider than the window at each end, kept when its box meets the window."""
    scale = Fraction(2) ** (-k)
    s = shift_sign(k)
    ranges = []
    for ax in range(window.n):
        off = Fraction(s * omega[ax], 3)
        lo = window.lower[ax] / scale - off
        hi = window.upper[ax] / scale - off
        first = lo.numerator // lo.denominator - 1
        last = hi.numerator // hi.denominator + 1
        ranges.append(range(first, last + 1))
    for m in itertools.product(*ranges):
        c = DyadicCube(k, tuple(m), omega)
        if cube_box(c).intersects(window):
            yield c


def box_cell_count(spec: GridSpec, box: Box) -> int:
    """Number of in-domain cells whose centres lie in ``box``."""
    return math.prod(max(i1 - i0, 0) for i0, i1 in spec.cell_ranges(box))


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


def _waves(spec: GridSpec, cells: np.ndarray) -> np.ndarray:
    """``exp(i xi . x)`` at the cells with the given flat indices (rows) and
    every grid frequency (columns, flat FFT order).

    Per axis ``xi_k x_i = pi k (2i + 1 - N) / N`` with integer ``k``, so
    the phase is reduced modulo ``2 pi`` in integers before the exponential.
    """
    N = spec.N
    k = np.rint(np.fft.fftfreq(N) * N).astype(np.int64)
    freqs = np.indices(spec.shape).reshape(spec.n, -1)
    m = sum(
        np.outer(2 * i + 1 - N, k[q]) for i, q in zip(np.unravel_index(cells, spec.shape), freqs)
    )
    return np.exp(1j * np.pi * np.arange(2 * N) / N)[m % (2 * N)]


def _blocks(spec: GridSpec):
    """Flat cell indices in blocks of 128."""
    size = spec.N**spec.n
    return (np.arange(lo, min(lo + 128, size)) for lo in range(0, size, 128))


def fourier_sum(f: GridFunction) -> np.ndarray:
    """``fhat(xi) = (2 pi)**-n h**n sum_x f(x) exp(-i xi x)`` on the
    frequency grid (FFT ordering), summed literally 128 cells at a time."""
    spec = f.spec
    fh = sum(f.values.ravel()[b] @ np.conj(_waves(spec, b)) for b in _blocks(spec))
    return (2.0 * np.pi) ** -spec.n * float(spec.h) ** spec.n * fh.reshape(spec.shape)


def direct_quadrature(
    a: SymbolClass, f: GridFunction, mult: np.ndarray | None = None
) -> GridFunction:
    """``sum_xi a(x, xi) mult(xi) fhat(xi) exp(i xi x) dxi**n`` at every
    cell centre, summed literally 128 cells at a time."""
    spec = f.spec
    fh = fourier_sum(f)
    if mult is not None:
        fh = fh * mult
    dxi = 2.0 * np.pi / (spec.N * float(spec.h))
    fhd = (fh * dxi**spec.n).ravel()
    c = spec.centers()
    xi = tuple(q[None] for q in spec.grid_coords(spec.freqs()))
    out = np.empty(spec.N**spec.n, dtype=np.complex128)
    for b in _blocks(spec):
        shape = (len(b),) + spec.shape
        xb = tuple(np.broadcast_to(c[ix].reshape(shape[:1] + (1,) * spec.n), shape)
                   for ix in np.unravel_index(b, spec.shape))
        out[b] = (a.eval(xb, xi).reshape(len(b), -1) * _waves(spec, b)) @ fhd
    return f.with_values(out.reshape(spec.shape))


def _kernel_rows(op: OperatorHandle):
    """Windowed kernel rows of all cells in C order, ``_BLOCK`` at a time:
    the flat index of a block's first cell, one index array per axis, and
    the rows."""
    spec = op.spec
    cells = np.indices(spec.shape).reshape(spec.n, -1)
    for lo in range(0, cells.shape[1], _BLOCK):
        block = tuple(cells[:, lo : lo + _BLOCK])
        yield lo, block, op._windowed(_cell_rows(op.a, spec, op.mult, block))


def gathered_matrix(op: OperatorHandle) -> np.ndarray:
    """``op.matrix()`` by a gather with the flat index of every periodic
    offset ``i - j`` into a kernel row."""
    spec, N = op.spec, op.spec.N
    hn = float(spec.h) ** spec.n
    d = (np.arange(N)[:, None] - np.arange(N)[None, :]) % N
    idx = d
    for _ in range(1, spec.n):
        m = idx.shape[0] * N
        idx = (idx[:, None, :, None] * N + d[None, :, None, :]).reshape(m, m)
    M = np.empty(idx.shape, dtype=np.complex128)
    for lo, _, rows in _kernel_rows(op):
        flat = slice(lo, lo + len(rows))
        M[flat] = hn * np.take_along_axis(rows.reshape(len(rows), -1), idx[flat], axis=1)
    return M


def cellwise_apply(op: OperatorHandle, f: GridFunction) -> GridFunction:
    """A general operator applied to ``f`` by one dot product per cell:
    ``h**n sum_z K(x, z) f(x - z)``."""
    spec, N = op.spec, op.spec.N
    hn = float(spec.h) ** spec.n
    out = np.empty(spec.shape, dtype=np.complex128)
    # g(u) = f(-u) on the doubled periodic grid: f(x - z) over all z is one slice of g
    g = np.tile(f.values[np.ix_(*(-np.arange(N) % N,) * spec.n)], (2,) * spec.n)
    for _, cells, rows in _kernel_rows(op):
        for row, *i in zip(rows, *cells):
            fy = g[tuple(slice(N - k, 2 * N - k) for k in i)]
            out[tuple(i)] = hn * np.dot(row.ravel(), fy.ravel())
    return f.with_values(out)


def dense_kernel_norms(M: np.ndarray, p: float, hn: float) -> tuple[np.ndarray, np.ndarray]:
    """Grid L^p norms of the rows and the columns of the kernel ``|M| / hn``."""
    A = np.abs(M) / hn
    if math.isinf(p):
        return np.max(A, axis=1), np.max(A, axis=0)
    Ap = A**p
    return (np.sum(Ap, axis=1) * hn) ** (1.0 / p), (np.sum(Ap, axis=0) * hn) ** (1.0 / p)


def dense_l2_norm(op, spec: GridSpec) -> float:
    """Full SVD 2 -> 2 norm; small grids only."""
    M = op.matrix() if isinstance(op, OperatorHandle) else np.asarray(op)
    if M.shape[0] > 1024:
        raise ValueError("dense SVD oracle is limited to 1024 cells")
    return float(np.linalg.svd(M, compute_uv=False)[0])


def dense_top_ritz(alpha: np.ndarray, beta: np.ndarray) -> tuple[float, float]:
    """The top eigenvalue of the symmetric tridiagonal with diagonal
    ``alpha`` and off-diagonal ``beta``, and the modulus of the last entry
    of its unit eigenvector, by ``np.linalg.eigh`` of the dense matrix."""
    evals, evecs = np.linalg.eigh(np.diag(alpha) + np.diag(beta, -1))
    return float(evals[-1]), float(abs(evecs[-1, -1]))


def exact_count_above(alpha: np.ndarray, beta: np.ndarray, sigma: float) -> int:
    """The number of eigenvalues of the symmetric tridiagonal with diagonal
    ``alpha`` and off-diagonal ``beta`` that lie above ``sigma``, exactly.

    Every float is an integer over ``2**E`` for one ``E``, so ``chi_i =
    det(sigma I - T_i) * 2**(i E)`` over the leading blocks ``T_i`` follow
    ``chi_i = (S - A_i) chi_(i-1) - B_i chi_(i-2)`` in integers, and the
    count is the number of sign changes along ``1, chi_1, ..., chi_k`` (the
    negative pivots of ``sigma I - T``; a last ``chi_k = 0``, sigma an
    eigenvalue of T, is no change).  A smaller leading block with sigma as
    an eigenvalue would need a zero pivot and raises."""
    vals = [Fraction(float(v)) for v in (sigma, *alpha, *beta)]
    E = max(v.denominator.bit_length() - 1 for v in vals)
    S, *rest = [int(v * 2**E) for v in vals]
    A, B = rest[: len(alpha)], [b * b for b in rest[len(alpha) :]]
    prev, cur = 1, S - A[0]
    changes = int(cur < 0)
    for i in range(1, len(A)):
        if cur == 0:
            raise ValueError("sigma is an eigenvalue of a leading block")
        prev, cur = cur, (S - A[i]) * cur - B[i - 1] * prev
        changes += cur != 0 and (cur < 0) != (prev < 0)
    return changes


@dataclass(frozen=True, eq=False)
class DenseMatrix:
    """A raw matrix with the reads that ``empirical_norm`` and
    ``schur_bound`` take from an :class:`OperatorHandle`."""

    M: np.ndarray
    spec: GridSpec

    def apply(self, f: GridFunction) -> GridFunction:
        return f.with_values((self.M @ f.values.ravel()).reshape(self.spec.shape))

    def row(self, x_index: tuple[int, ...]) -> np.ndarray:
        i = np.ravel_multi_index(x_index, self.spec.shape)
        return self.M[i].reshape(self.spec.shape) / float(self.spec.h) ** self.spec.n

    def gram(self):
        return _dense_gram(self.M), not np.iscomplexobj(self.M)

    def kernel_norms(self, p: float, rows: bool = True, cols: bool = True):
        r, c = dense_kernel_norms(self.M, p, float(self.spec.h) ** self.spec.n)
        return r if rows else None, c if cols else None


def per_entry_sparsity(coll: SparseCollection) -> SparsityReport:
    """``verify_sparsity`` entry by entry: exact ``Fraction`` volumes, and
    each entry's children found by scanning the whole family."""
    failures: list[str] = []
    min_margin = np.inf
    for i, e in enumerate(coll.entries):
        vol = e.cube.volume()
        kids = [c for c in coll.entries if c.parent == i]
        surv_vol = vol - sum((c.cube.volume() for c in kids), Fraction(0))
        region_vol = coll.region(i).volume()
        need = coll.eta * region_vol
        margin = float(surv_vol / need) if need > 0 else np.inf
        min_margin = min(min_margin, margin)
        if surv_vol < need:
            failures.append(
                f"entry {i} (rank {e.rank}, k={e.cube.k}, m={e.cube.m}): "
                f"survivor {surv_vol} < {coll.eta} * region {region_vol}"
            )
    disjoint = True
    classes = [e.cube.omega if coll.flavor == "stopping" else () for e in coll.entries]
    for key in dict.fromkeys(classes):  # in order of first appearance
        cells = np.concatenate([e.survivor for e, c in zip(coll.entries, classes) if c == key])
        if np.unique(cells).size < cells.size:
            disjoint = False
            failures.append(f"survivor overlap within shift class {key}")
    return SparsityReport(
        ok=not failures,
        min_margin=float(min_margin) if coll.entries else np.inf,
        disjoint=disjoint,
        failures=failures,
    )


def per_entry_sparse_form(
    coll: SparseCollection, f: GridFunction, g: GridFunction, pair: ExponentPair
) -> float:
    """``verify.sparse_form`` with ``average_p`` over each entry's region."""
    per = []
    for i in range(len(coll.entries)):
        region = coll.region(i)
        vol = float(region.volume())
        per.append(vol * average_p(f, region, pair.r) * average_p(g, region, pair.s_prime))
    return float(sum(per))


def per_entry_domination(T, f: GridFunction, coll: SparseCollection, r: float) -> DominationReport:
    """``verify.pointwise_domination_check`` with ``average_p`` over each
    entry's region, added on the entry's cube with one ``np.add.at`` per
    entry."""
    Tf = _image_of(T, f)
    spec = f.spec
    D = np.zeros(spec.shape)
    flat = D.reshape(-1)
    for i, e in enumerate(coll.entries):
        avg = average_p(f, coll.region(i), r)
        np.add.at(flat, spec.box_flat_cells(e.cube), avg)
    Ta = np.abs(Tf.values)
    covered = D > 0
    ratios = Ta[covered] / D[covered]
    return DominationReport(
        constant=float(np.max(ratios)) if ratios.size else 0.0,
        covered_fraction=float(np.mean(covered)),
        uncovered_count=int(np.count_nonzero((Ta > DENOM_FLOOR) & ~covered)),
    )


def third_partition_residual(f: GridFunction, k: int) -> float:
    """Max cell residual of reassembling f from the scale-k third tiling.

    The inner thirds of scale-k cubes, over all three shift classes, tile
    space with every cell center landing in exactly one third; summing the
    restrictions must reproduce f exactly.
    """
    spec = f.spec
    acc = np.zeros(spec.shape, dtype=np.complex128)
    window = spec.domain()
    for omega in np.ndindex(*(3,) * spec.n):
        for cube in enumerate_cubes(k, tuple(int(t) for t in omega), window):
            cells = spec.box_flat_cells(third_dilate(cube))
            acc.reshape(-1)[cells] += f.values.reshape(-1)[cells]
    return float(np.max(np.abs(acc - f.values)))


def block_sliding_max(a: np.ndarray, w: int) -> np.ndarray:
    """``out[..., i] = max(a[..., i:i+w])`` along the last axis, from the
    prefix and suffix maxima of blocks of ``w`` entries."""
    n = a.shape[-1]
    if w == 1:
        return a.copy()
    nblocks = -(-n // w)
    pad = nblocks * w - n
    ap = np.concatenate([a, np.full(a.shape[:-1] + (pad,), -np.inf)], axis=-1)
    blocks = ap.reshape(a.shape[:-1] + (nblocks, w))
    pre = np.maximum.accumulate(blocks, axis=-1).reshape(a.shape[:-1] + (-1,))
    suf = np.maximum.accumulate(blocks[..., ::-1], axis=-1)[..., ::-1]
    suf = suf.reshape(a.shape[:-1] + (-1,))
    return np.maximum(suf[..., : n - w + 1], pre[..., w - 1 : n])


def _block_window_max_all_axes(sums: np.ndarray, w: int) -> np.ndarray:
    """Best value among the ``w**n``-cell windows containing each cell, by
    ``block_sliding_max`` over the windows padded with ``-inf``."""
    for axis in range(sums.ndim):
        moved = np.moveaxis(sums, axis, -1)
        pad = np.full(moved.shape[:-1] + (w - 1,), -np.inf)
        padded = np.concatenate([pad, moved, pad], axis=-1)
        sums = np.moveaxis(block_sliding_max(padded, w), -1, axis)
    return sums


def centred_sweep(P: np.ndarray, widths) -> np.ndarray:
    """Best centred window average at every cell over the odd ``widths``
    from the prefix sums ``P``, windows clipped to the grid: one pass over
    the grid per width."""
    n = P.ndim
    N = P.shape[0] - 1
    corners = _corners(n)
    i = np.arange(N)
    best = np.zeros((N,) * n)
    for w in widths:
        k = (w - 1) // 2
        lo = np.ix_(*(np.maximum(i - k, 0),) * n)
        hi = np.ix_(*(np.minimum(i + k + 1, N),) * n)
        np.maximum(best, _window_sums(P, corners, lo, hi) / w**n, out=best)
    return best


def sweep_level_set(f: GridFunction, p: float, tau: float) -> np.ndarray:
    """``centred_level_set`` by ``centred_sweep`` over every admissible
    width at every cell, for the arguments it accepts."""
    if not np.any(f.values):
        return np.zeros(f.spec.shape, dtype=bool)
    n, h = f.spec.n, float(f.spec.h)
    u = np.abs(f.values) ** p
    cap = float(u.sum()) * h**n / tau**p
    return centred_sweep(_prefix_sums(u), _centred_widths(f.spec.N, h, n, cap)) ** (1.0 / p) > tau


def ladder_without_skips(vals: np.ndarray, widths, P: np.ndarray | None = None) -> np.ndarray:
    """The sharp-maximal ladder of the array ``vals`` from the prefix sums
    ``P`` (by default its own), with ``|view - means|`` over every window
    of each width in one expression, and window maxima from
    ``block_sliding_max``.  A window sums its last axis first, then the
    contiguous row sums along their last axis, once per axis, and divides
    by ``w**n``: the package's order."""
    n = vals.ndim
    if P is None:
        P = _prefix_sums(vals)
    corners = _corners(n)
    best = np.zeros(vals.shape)
    for w in widths:
        means = _sliding_sums(P, corners, w) / w**n
        view = np.lib.stride_tricks.sliding_window_view(vals, (w,) * n)
        dev = np.ascontiguousarray(np.abs(view - means[(...,) + (None,) * n]))
        for _ in range(n):
            dev = np.ascontiguousarray(np.add.reduce(dev, axis=-1))
        np.maximum(best, _block_window_max_all_axes(dev / w**n, w), out=best)
    return best


def full_grid_sharp_ratio(
    a: SymbolClass, fs: list[GridFunction], ell1: int, ell2: float, p: float
) -> tuple[SharpRatioReport, list[np.ndarray]]:
    """``verify.sharp_ratio_probe`` with every value of the sharp image
    (``sharp_maximal`` with no floor), and those images."""
    op = localized_operator(a, ell1, fs[0].spec)
    ratios, images, flagged, active_total = [], [], 0, 0
    for f in fs:
        S = sharp_maximal(op.apply(f), radius_cap=ell2)
        Mp = maximal_p(f, p)
        images.append(S)
        active = S > DENOM_FLOOR
        flagged += int(np.count_nonzero(active & (Mp <= DENOM_FLOOR)))
        ok = active & (Mp > DENOM_FLOOR)
        active_total += int(np.count_nonzero(ok))
        if np.any(ok):
            ratios.append(S[ok] / Mp[ok])
    if ratios:
        cat = np.concatenate(ratios)
        mx, med = float(np.max(cat)), _median(cat)
    else:
        mx = med = 0.0
    return SharpRatioReport(mx, med, active_total, flagged), images
