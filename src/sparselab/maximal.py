"""Maximal averages and mean oscillation on the sample grid.

All averages run over cell-aligned windows (intervals in 1D, squares in 2D).
For piecewise-constant grid data the one-dimensional supremum over arbitrary
intervals is attained on cell-aligned windows (the average is monotone in
each fractional end segment), so 1D values are exact; in higher dimension
the cell-aligned family is the grid realization of the operator and is used
consistently on both sides of every inequality we test.

Uncentred windows are kept inside the domain: the data vanishes off the
grid, so a window poking outside is dominated by its clipped version.
Centred windows are odd-cell blocks around the cell and extend by zero.

Sliding maxima go by doubling, ``log2(w)`` passes of ``np.maximum`` over
shifted slices; a max is exact, so any order of comparisons gives the same
bits.  The uncentred per-width sweep serves 2D and, in 1D, the one-cell
windows.  Every wider 1D uncentred window is a steepest chord of the
prefix-sum graph with one end on each side of a block midpoint, found by
hull tangents (Chung and Lu, SIAM J. Comput. 2004; Goldwasser, Kao and Lu,
J. Comput. Syst. Sci. 2005), so the exact 1D uncentred maximal costs
O(N log**2 N) instead of O(N**2).  The centred level set sweeps only the
widths and cells that can reach its threshold, in brackets of widths whose
widest window bounds the rest (``_centred_mask``).

The sharp maximal builds ``|f - window mean|`` in blocks of about
``_OSC_CHUNK`` elements (in 2D, parts of a row of window starts when a row
is larger), written into two buffers that stay in cache; the block size
does not change a bit of the result.  Real data runs in real arithmetic,
and the work is restricted to a region's cells plus the ladder's reach,
with window means from the whole grid's prefix sums, so a region's values
are the whole grid's bit for bit.  Within it, one rule skips a window
(``_ladder``): its oscillation provably cannot raise a value, or cannot
pass a floor under which the caller reads no value.  No skip changes a
value above the floor by a bit.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from .dyadic import Box, DyadicCube
from .sample import GridFunction

__all__ = ["maximal_p", "centred_level_set", "sharp_maximal", "ladder_widths"]

_2D_EXHAUSTIVE_LIMIT = 512
_OSC_CHUNK = 1 << 16  # elements per temporary in oscillation and level-set sweeps


def _along(axis: int, part: slice) -> tuple[slice, ...]:
    """Index that takes ``part`` of ``axis`` and all of the axes before it."""
    return (slice(None),) * axis + (part,)


def _sliding_max(a: np.ndarray, w: int, axis: int) -> np.ndarray:
    """``out[i] = max(a[i:i+w])`` along ``axis`` for every window that fits,
    by doubling: after the pass with span ``s`` an entry is the max of the
    ``s`` entries from it on, and two spans of the largest power of two
    ``s <= w`` cover a window.  A max is exact, so this has the bits of any
    other order of comparisons; with ``w == 1`` the result is ``a``."""
    m, s = a, 1
    while 2 * s <= w:
        m = np.maximum(m[_along(axis, slice(None, -s))], m[_along(axis, slice(s, None))])
        s *= 2
    if s == w:
        return m
    count = a.shape[axis] - w + 1
    return np.maximum(m[_along(axis, slice(count))], m[_along(axis, slice(w - s, None))])


def _window_max_at_cells(sums: np.ndarray, w: int, axis: int) -> np.ndarray:
    """Best window sum, along ``axis``, among the length-w windows containing
    each cell."""
    pad = np.full(sums.shape[:axis] + (w - 1,) + sums.shape[axis + 1 :], -np.inf)
    return _sliding_max(np.concatenate([pad, sums, pad], axis=axis), w, axis)


def _window_max_all_axes(sums: np.ndarray, w: int) -> np.ndarray:
    """Best window sum among the ``w**n``-cell windows containing each cell."""
    for axis in range(sums.ndim):
        sums = _window_max_at_cells(sums, w, axis)
    return sums


def _max_over_windows(a: np.ndarray, w: int) -> np.ndarray:
    """Largest entry of every ``w**n``-entry window that fits in ``a``."""
    for axis in range(a.ndim):
        a = _sliding_max(a, w, axis)
    return a


def _prefix_sums(u: np.ndarray) -> np.ndarray:
    """``P[i] = u[:i].sum()`` per axis: cumulative sums with a zero border."""
    P = np.zeros(tuple(s + 1 for s in u.shape), dtype=u.dtype)
    for ax in range(u.ndim):
        u = u.cumsum(axis=ax)
    P[(slice(1, None),) * u.ndim] = u
    return P


def _corners(n: int) -> list[tuple[bool, ...]]:
    """Window corners for inclusion-exclusion, ``True`` marking the upper
    end of an axis; axis 0 varies fastest, starting from the all-upper
    corner, which fixes the order the terms are added in."""
    return [c[::-1] for c in itertools.product((True, False), repeat=n)]


def _window_sums(P: np.ndarray, corners, lo: tuple, hi: tuple) -> np.ndarray:
    """Window sums from prefix sums by inclusion-exclusion; ``lo`` and ``hi``
    index the lower and upper ends of every window, one entry per axis, and
    a corner is subtracted when it has an odd number of lower ends."""
    total = None
    for c in corners:
        term = P[tuple(b if up else a for a, b, up in zip(lo, hi, c))]
        if total is None:
            total = term
        else:
            total = total - term if (len(c) - sum(c)) % 2 else total + term
    return total


def _sliding_sums(P: np.ndarray, corners, w: int) -> np.ndarray:
    """Sums over every window of ``w`` cells per axis that fits in the grid."""
    return _window_sums(P, corners, (slice(None, -w),) * P.ndim, (slice(w, None),) * P.ndim)


def _sweep(P: np.ndarray, widths) -> np.ndarray:
    """Best uncentred window average at every cell over the windows of the
    given widths (cells per axis), from the prefix sums ``P``: one pass
    over the grid per width."""
    n = P.ndim
    corners = _corners(n)
    best = np.zeros(tuple(s - 1 for s in P.shape))
    for w in widths:
        sums = _window_max_all_axes(_sliding_sums(P, corners, w), w)
        np.maximum(best, sums / w**n, out=best)
    return best


def _averages(P: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Averages over the 1D windows of cells ``a .. b-1``: the sweep's
    ``(P[b] - P[a]) / (b - a)``, so equal windows give equal bits."""
    return (P[b] - P[a]) / (b - a)


def _edges(Y: np.ndarray, hulls: np.ndarray) -> np.ndarray:
    """Slope of the edge leaving each vertex of the hull rows over the
    points ``(k, Y[k])``; ``-inf`` after the last vertex."""
    v0, v1 = hulls[:, :-1], hulls[:, 1:]
    real = v1 > v0
    e = np.full(hulls.shape, -np.inf, dtype=Y.dtype)
    e[:, :-1][real] = (Y[v1[real]] - Y[v0[real]]) / (v1[real] - v0[real])
    return e


def _tangents(Y: np.ndarray, q: np.ndarray, hulls: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Position in each upper-hull row of the tangent vertex seen from each
    query point of the same row, by bisection.

    Queries sit on one side of their row's points.  From the left the
    tangent vertex has the steepest chord, from the right the least steep:
    either way it is the first vertex whose leaving edge is no steeper than
    the chord to the query, a test that is false from there on.
    """
    nb, w = hulls.shape
    flat, eflat = hulls.ravel(), edges.ravel()
    base = np.arange(0, nb * w, w)[:, None]
    Yq = Y[q]
    lo = np.broadcast_to(base, q.shape)  # flat positions in ``hulls``
    hi = lo + (w - 1)
    for _ in range(w.bit_length() - 1):
        mid = (lo + hi) >> 1
        v = flat[mid]
        rises = eflat[mid] > (Y[v] - Yq) / (v - q)
        lo = np.where(rises, mid + 1, lo)
        hi = np.where(rises, hi, mid)
    return lo - base


def _join(left: np.ndarray, keep: np.ndarray, right: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Hull rows of the merged blocks: ``left[:keep + 1]`` then
    ``right[start:]``, padded by repeating the last vertex."""
    w = left.shape[1]
    q = np.arange(2 * w)[None, :]
    from_left = np.take_along_axis(left, np.minimum(q, w - 1), axis=1)
    j = np.clip(q - keep[:, None] - 1 + start[:, None], 0, w - 1)
    return np.where(q <= keep[:, None], from_left, np.take_along_axis(right, j, axis=1))


def _crossing_max(P: np.ndarray) -> np.ndarray:
    """Best average at every cell over the 1D windows that cross a block
    midpoint, for ``N = len(P) - 1`` a power of two.

    Blocks of ``2w`` cells split at their midpoint ``m``; every window of
    two or more cells crosses the midpoint of exactly one block.  A left
    cell takes the best over ends ``b`` in ``[m, hi]`` of the starts ``a``
    at or before it (a prefix max over ``a``), a right cell the best over
    starts in ``[lo, m)`` of the ends after it (a suffix max over ``b``).
    The best ``b`` for a start is a tangent to the upper hull of the right
    half's prefix-sum points ``(k, P[k])``, the best ``a`` for an end a
    tangent to the lower hull of the left half's, which is the upper hull
    of ``(k, -P[k])``.  A level's hulls are its halves' hulls joined by
    their bridge, found from the same tangents.

    Hull and tangent tests run in ``np.longdouble``: where that is wider
    than float64 (x86), they resolve the near-collinear prefix sums of flat
    data that float64 slopes cannot.  Each chosen window is then evaluated
    with the sweep's float64 formula.
    """
    N = P.shape[0] - 1
    Y = P.astype(np.longdouble)
    M = -Y
    cells = np.arange(N)
    upper = lower = cells[:, None]  # hull rows of the one-point blocks
    best = np.zeros(N)
    w = 1
    while w < N:
        block = cells.reshape(-1, 2 * w)
        row = np.arange(block.shape[0])
        starts = block[:, :w]
        ends = np.concatenate([block[:, w:], block[:, :1] + 2 * w], axis=1)  # m .. hi
        e_upper, e_lower = _edges(Y, upper), _edges(M, lower)
        rpos = _tangents(Y, starts, upper[1::2], e_upper[1::2])
        b = np.take_along_axis(upper[1::2], rpos, axis=1)
        from_start = np.maximum(_averages(P, starts, b), _averages(P, starts, ends[:, -1:]))
        lpos = _tangents(M, ends, lower[0::2], e_lower[0::2])
        a = np.take_along_axis(lower[0::2], lpos, axis=1)
        from_left = _averages(P, a, ends)
        to_end = np.maximum.accumulate(from_left[:, :0:-1], axis=1)[:, ::-1]
        crossing = np.concatenate([np.maximum.accumulate(from_start, axis=1), to_end], axis=1)
        np.maximum(best, crossing.ravel(), out=best)
        if 2 * w < N:
            # upper bridge: the first left-hull vertex whose leaving edge
            # is no steeper than its tangent to the right hull
            offs = upper[0::2] - block[:, :1]
            chord = np.take_along_axis(_averages(Y, starts, b), offs, axis=1)
            keep = np.sum(e_upper[0::2] > chord, axis=1)
            upper = _join(upper[0::2], keep, upper[1::2], rpos[row, offs[row, keep]])
            # lower bridge, on the points (k, -P[k]): the last right-hull
            # vertex whose entering edge is no less steep than its tangent
            offs = lower[1::2] - block[:, w : w + 1]
            chord = np.take_along_axis(_averages(M, a, ends), offs, axis=1)
            entering = np.concatenate([np.full((len(row), 1), np.inf), e_lower[1::2, :-1]], axis=1)
            start = np.sum(entering >= chord, axis=1) - 1
            lower = _join(lower[0::2], lpos[row, offs[row, start]], lower[1::2], start)
        w *= 2
    return best


def maximal_p(f: GridFunction, p: float) -> np.ndarray:
    """Windowed p-average maximal function at every cell center.

    Returns ``sup_W (avg_W |f|**p)**(1/p)`` over the cell-aligned windows W
    containing the cell.  p must be finite and positive; the p = infinity
    version is just the sup norm.  The centred operator is only needed as a
    level set: see :func:`centred_level_set`.

    1D values are exact everywhere, at O(N log**2 N) cost: one-cell windows
    come from the per-width sweep, so they keep its bits, and every wider
    one from hull tangents (``_crossing_max``).  A value never exceeds the
    sweep over every width and equals it unless windows tie within
    rounding, as in the flat parts of an indicator, where the tests bound
    the gap by 2 ulp.  2D values come from the sweep over every width.
    """
    if not (0 < p < math.inf):
        raise ValueError("p must be finite and positive (the limit is the sup norm)")
    N = f.spec.N
    P = _prefix_sums(np.abs(f.values) ** p)
    if f.spec.n == 1:
        return np.maximum(_sweep(P, [1]), _crossing_max(P)) ** (1.0 / p)
    if N > _2D_EXHAUSTIVE_LIMIT:
        raise ValueError(f"2D uncentred maximal: at most {_2D_EXHAUSTIVE_LIMIT} cells per axis")
    return _sweep(P, range(1, N + 1)) ** (1.0 / p)


def centred_level_set(f: GridFunction, p: float, tau: float) -> np.ndarray:
    """The super-level set ``{centred p-maximal of f > tau}`` as a boolean
    mask; empty when f vanishes, for any ``tau >= 0``.

    A window of side ``w*h`` has p-average at most ``||f||_p**p / (w*h)**n``,
    so only sides with ``(w*h)**n <= ||f||_p**p / tau**p`` can exceed
    ``tau``, and only cells within half the widest such side of the support
    of f see any mass: the widths and cells that ``_centred_mask`` reads.
    The mask is the full sweep's over every width, bit for bit.
    """
    if not (0 < p < math.inf):
        raise ValueError("p must be finite and positive (the limit is the sup norm)")
    if not tau >= 0:
        raise ValueError("threshold must be positive")
    mask = np.zeros(f.spec.shape, dtype=bool)
    if not np.any(f.values):
        return mask
    if tau == 0:
        raise ValueError("threshold must be positive")
    n, N, h = f.spec.n, f.spec.N, float(f.spec.h)
    u = np.abs(f.values) ** p
    cap = float(u.sum()) * h**n / tau**p
    widths = _centred_widths(N, h, n, cap)
    if widths:  # then u has mass, and sits in the region
        k = widths[-1] // 2
        hits = np.nonzero(u)
        region = tuple(slice(max(int(i.min()) - k, 0), min(int(i.max()) + 1 + k, N)) for i in hits)
        # starting the prefix sums at the region adds exact zeros only: a
        # clipped window reads the same values as on the whole grid
        mask[region] = _centred_mask(_prefix_sums(u[region]), k, p, tau)
    return mask


def _centred_widths(N: int, h: float, n: int, cap: float) -> range:
    """The odd widths ``w < 2N`` with ``(w*h)**n <= cap``.  The left side
    grows with w, so they are a prefix of the odd widths, found by
    bisection on the same float expression (none when ``cap`` is NaN)."""
    count = bisect.bisect_left(range(N), True, key=lambda t: not (((2 * t + 1) * h) ** n <= cap))
    return range(1, 2 * count, 2)


def _brackets(kmax: int):
    """Half-widths ``0..kmax`` in brackets ``[k0, k1]`` with ``k1 < 2*k0``
    past the first two: the widths of a bracket differ by less than 2x."""
    k0 = 0
    while k0 <= kmax:
        k1 = min(max(2 * k0 - 1, k0), kmax)
        yield k0, k1
        k0 = k1 + 1


def _centred_ends(cells, k, shape):
    """Lower and upper ends per axis of the centred windows of half-width
    ``k`` at ``cells`` (index arrays per axis that broadcast with ``k``),
    clipped to ``shape``: the full sweep's windows."""
    lo = tuple(np.maximum(i - k, 0) for i in cells)
    hi = tuple(np.minimum(i + k + 1, s) for i, s in zip(cells, shape))
    return lo, hi


def _centred_mask(P: np.ndarray, kmax: int, p: float, tau: float) -> np.ndarray:
    """``{best centred average ** (1/p) > tau}`` over the odd widths up to
    ``2*kmax + 1``, from the prefix sums ``P`` of a nonnegative array, with
    the bits of the sweep over every width, which computes the best average
    and then one root per cell.

    Half-widths go in brackets, and every cell takes the average of each
    bracket's widest window.  Every computed window sum lies within
    ``slack`` of the exact sum, which grows with the window: ``P`` is off by
    at most ``n*N`` roundings of its total, and inclusion-exclusion adds
    ``2**n - 1`` more.  So the widest window's sum plus ``slack``, over the
    narrowest window's size, bounds every computed average in the bracket.
    A cell evaluates the bracket's other widths only where that bound
    exceeds ``cut`` and its best so far is under ``sure``: an average at or
    under ``cut`` rounds to a root at or under ``tau``, one over ``sure``
    to a root over ``tau`` (each a relative 2**-40 away), and larger
    averages give larger roots, so the skipped work cannot change the mask.
    """
    n, shape = P.ndim, tuple(s - 1 for s in P.shape)
    corners = _corners(n)
    slack = 3 * 2**n * (n * max(shape) + 2**n) * 2.0**-52 * float(P[(-1,) * n])
    cut = (tau * (1 - 2.0**-40)) ** p * (1 - 2.0**-50)
    sure = (tau * (1 + 2.0**-40)) ** p * (1 + 2.0**-50)
    grid = np.ix_(*(np.arange(s) for s in shape))
    best = np.zeros(shape)
    for k0, k1 in _brackets(kmax):
        wide = _window_sums(P, corners, *_centred_ends(grid, k1, shape))
        np.maximum(best, wide / (2 * k1 + 1) ** n, out=best)
        at = np.nonzero(((wide + slack) / (2 * k0 + 1) ** n > cut) & ~(best > sure))
        if k0 == k1 or not at[0].size:
            continue
        ks = np.arange(k0, k1)[:, None]
        rows = max(1, _OSC_CHUNK // at[0].size)
        top = best[at]
        for i in range(0, len(ks), rows):
            k = ks[i : i + rows]
            sums = _window_sums(P, corners, *_centred_ends(at, k, shape))
            np.maximum(top, (sums / (2 * k + 1) ** n).max(axis=0), out=top)
        best[at] = top
    return best ** (1.0 / p) > tau


def ladder_widths(N: int, cap_cells: int | None = None) -> list[int]:
    """Geometric window lengths 1, 2, 4, ... in cells, optionally capped.

    The ladder is tied to physical lengths: refining the grid by one level
    doubles every entry and appends one finer rung, so ladder statistics are
    stable across resolutions.
    """
    top = N if cap_cells is None else min(N, cap_cells)
    out = []
    w = 1
    while w <= top:
        out.append(w)
        w *= 2
    return out


def _osc(vals: np.ndarray, means: np.ndarray, busy: np.ndarray, w: int) -> np.ndarray:
    """Mean ``|f - window mean|`` for the ``w**n``-cell windows of ``vals``
    whose means are ``means``, in aligned blocks of about ``_OSC_CHUNK``
    elements; a block of window starts with no ``busy`` start is skipped and
    keeps 0.  A block takes whole rows of starts while one fits, and in 2D
    otherwise part of one row, at least two starts wide (a one-start tail
    joins the block before it): one start wide, numpy sums its window in
    another order.

    Every block is written into the front of the same two buffers, laid
    out as numpy lays out the block's ``view - means`` (position and window
    axes interleaved), so the window means sum in one order, bit for bit,
    at any block size and for any set of blocks; a block written into part
    of a wider layout would run its element loops apart, at a cost.
    """
    n, shape = vals.ndim, means.shape
    out = np.zeros(shape)
    view = np.lib.stride_tricks.sliding_window_view(vals, (w,) * n)
    per = _OSC_CHUNK // w**n  # window starts per block
    if n == 2 and per < shape[1]:
        steps = (1, min(shape[1], max(2, per)))
    else:
        steps = (max(1, min(shape[0], per // math.prod(shape[1:]))),) + shape[1:]
    edges = [list(range(0, m, step)) + [m] for m, step in zip(shape, steps)]
    if n == 2 and len(edges[1]) > 2 and edges[1][-1] - edges[1][-2] == 1:
        del edges[1][-2]
    size = math.prod(max(np.diff(e)) for e in edges) * w**n
    buf = np.empty(size, dtype=vals.dtype)
    buf_dev = buf if buf.dtype == np.float64 else np.empty(size)
    axes = tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2))
    blocks = busy
    for axis, e in enumerate(edges):
        blocks = np.logical_or.reduceat(blocks, e[:-1], axis=axis)
    for block in np.argwhere(blocks).tolist():
        at = tuple(slice(e[i], e[i + 1]) for i, e in zip(block, edges))
        m = means[at]
        layout = sum(((k, w) for k in m.shape), ())
        diff, dev = (b[: m.size * w**n].reshape(layout).transpose(axes) for b in (buf, buf_dev))
        np.subtract(view[at], m[(...,) + (None,) * n], out=diff)
        np.abs(diff, out=dev)
        out[at] = dev.mean(axis=tuple(range(n, 2 * n)))
    return out


def _osc_bound(vals: np.ndarray, means: np.ndarray, w: int) -> np.ndarray:
    """A bound on the computed oscillation of every ``w**n``-cell window of
    ``vals`` whose computed mean is in ``means``; 0 only where the
    oscillation is exactly 0.

    Each ``|f - m|`` in a window is at most D, the sum over the real and
    imaginary parts of the distance from the part of m to the far end of
    the part's range in the window.  The computed mean of the ``w**n``
    rounded terms is at most D times ``1 + w**n 2**-48``: the sum rounds
    ``w**n - 1`` times, the difference, modulus and bound a few times more,
    and the division by a power of two not at all.  D is 0 only where every
    value equals m, whose oscillation is exactly 0.  A bound strictly under
    a value leaves room for the one rounding of a subnormal mean.
    """
    parts = (vals.real, vals.imag) if np.iscomplexobj(vals) else (vals,)
    mparts = (means.real, means.imag) if np.iscomplexobj(means) else (means,)
    spread = 0.0
    for v, m in zip(parts, mparts):
        spread = spread + np.maximum(_max_over_windows(v, w) - m, m + _max_over_windows(-v, w))
    return spread * (1 + w**vals.ndim * 2.0**-48)


def _ladder(vals: np.ndarray, P: np.ndarray, widths, floor: float = 0.0) -> np.ndarray:
    """Sharp maximal of the array ``vals`` over the windows of the given
    side lengths (cells per axis) that fit in it; the window means come
    from ``P``, prefix sums of ``vals`` (any that give its window sums).
    Every value above ``floor`` has the bits of the ladder over every
    window, and every other value is at or under ``floor``.

    The rungs run widest first.  A window is idle when its oscillation
    bound (``_osc_bound``) is at or under ``floor``, or under the best value
    so far at each of its cells: then it cannot raise a value above
    ``floor``.  Its block of starts is skipped (see ``_osc``) and keeps 0.
    At ``floor = 0`` every value is the full ladder's, since a bound of 0
    means an oscillation of exactly 0; windows of exact zeros are such.
    """
    n = vals.ndim
    corners = _corners(n)
    best = np.zeros(vals.shape)
    for w in sorted(widths, reverse=True):
        means = _sliding_sums(P, corners, w) / w**n
        bound = _osc_bound(vals, means, w)
        idle = (bound <= floor) | (bound < -_max_over_windows(-best, w))
        osc = _osc(vals, means, ~idle, w)
        np.maximum(best, _window_max_all_axes(osc, w), out=best)
    return best


def sharp_maximal(
    f: GridFunction, radius_cap: float | None = None, region: Box | DyadicCube | None = None
) -> np.ndarray:
    """Mean-oscillation maximal: sup over windows containing the cell of the
    window average of ``|f - window mean|``.

    ``radius_cap`` bounds the window half-width in physical units, so the
    composed reach of this operator is twice the cap; a cap under half a
    cell admits no window, and the maximal is zero.  Windows run over the
    geometric ladder of side lengths (resolution-stable, see ladder_widths);
    the sweep over every side length is the tests' oracle.

    Real data (``f.values.imag`` all zero) runs in real arithmetic, with
    the same bits: the window means divide by a power of two, and
    ``|x + 0j|`` is ``|x|``.

    Only the cells of ``region`` (a box or cube, through
    ``GridSpec.cell_ranges``; by default the domain) are computed, with the
    whole grid's bits (``_sharp_at``).  The result is full-grid with NaN
    outside the region.
    """
    spec = f.spec
    return _sharp_at(f, radius_cap, spec.cell_ranges(spec.domain() if region is None else region))


def _sharp_at(
    f: GridFunction, radius_cap: float | None, ranges, floor: float = 0.0
) -> np.ndarray:
    """``sharp_maximal(f, radius_cap)`` at the cells ``ranges`` (``(start,
    stop)`` per axis), NaN elsewhere.  The ladder runs on those cells
    dilated by its widest window, clipped to the grid: that holds every
    window that contains one of them, and two starts of each window row
    where the grid has two (a row of one start sums in another order, see
    ``_osc``).  It reads its window means from the whole grid's prefix
    sums, so every value has the whole grid's bits whatever the cells.  A
    value above ``floor`` is the full ladder's, and every other value is at
    or under ``floor``."""
    if radius_cap is not None and not radius_cap >= 0:
        raise ValueError(f"radius_cap must be nonnegative or None, not {radius_cap!r}")
    N = f.spec.N
    # a cap whose windows span the domain, an infinite one among them, is no cap
    span = math.inf if radius_cap is None else 2.0 * radius_cap / float(f.spec.h)
    widths = ladder_widths(N, math.floor(span) if span < N else None)
    vals = f.values
    if not np.any(vals.imag):
        vals = np.ascontiguousarray(vals.real)
    reach = max(widths, default=0)
    crop = tuple(slice(max(i0 - reach, 0), min(i1 + reach, N)) for i0, i1 in ranges)
    cells = tuple(slice(i0 - c.start, i1 - c.start) for (i0, i1), c in zip(ranges, crop))
    out = np.full(vals.shape, np.nan)
    read = tuple(slice(i0, i1) for i0, i1 in ranges)
    if out[read].size:
        P = _prefix_sums(vals)[tuple(slice(c.start, c.stop + 1) for c in crop)]
        out[read] = _ladder(vals[crop], P, widths, floor)[cells]
    return out
