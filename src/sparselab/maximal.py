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

The per-width sweep takes sliding maxima over window starts with the
two-pass block prefix/suffix scheme, O(N**n) per window length; it serves
2D, the centred operator and, in 1D, the narrow windows.  The other 1D
uncentred windows are the steepest chords of the prefix-sum graph with one
end on each side of a block midpoint, found by hull tangents (Chung and Lu,
SIAM J. Comput. 2004; Goldwasser, Kao and Lu, J. Comput. Syst. Sci. 2005),
so the exact 1D uncentred maximal costs O(N log**2 N) instead of O(N**2).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .sample import GridFunction

__all__ = ["maximal_p", "centred_level_set", "sharp_maximal", "ladder_widths"]

_2D_EXHAUSTIVE_LIMIT = 512
_NARROW = 16  # 1D windows up to this many cells come from the sweep
_OSC_CHUNK = 1 << 21  # elements per temporary in oscillation sweeps


def _sliding_max(a: np.ndarray, w: int) -> np.ndarray:
    """out[i] = max(a[i:i+w]) for i = 0..len(a)-w."""
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


def _window_max_at_cells(sums: np.ndarray, w: int) -> np.ndarray:
    """Best window sum among length-w windows containing each cell."""
    pad = np.full(sums.shape[:-1] + (w - 1,), -np.inf)
    return _sliding_max(np.concatenate([pad, sums, pad], axis=-1), w)


def _window_max_all_axes(sums: np.ndarray, w: int) -> np.ndarray:
    """Best window sum among the ``w**n``-cell windows containing each cell."""
    last_first = (sums.ndim - 1,) + tuple(range(sums.ndim - 1))
    for _ in range(sums.ndim):
        sums = _window_max_at_cells(np.ascontiguousarray(sums), w).transpose(last_first)
    return sums


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


def _sweep(P: np.ndarray, widths, centred: bool) -> np.ndarray:
    """Best window average at every cell over the windows of the given
    widths (cells per axis), from the prefix sums ``P``: one pass over the
    grid per width."""
    n = P.ndim
    N = P.shape[0] - 1
    corners = _corners(n)
    i = np.arange(N)
    best = np.zeros((N,) * n)
    for w in widths:
        if centred:
            k = (w - 1) // 2
            lo = np.ix_(*(np.maximum(i - k, 0),) * n)
            hi = np.ix_(*(np.minimum(i + k + 1, N),) * n)
            sums = _window_sums(P, corners, lo, hi)
        else:
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


def maximal_p(f: GridFunction, p: float, centred: bool = False) -> np.ndarray:
    """Windowed p-average maximal function at every cell center.

    Returns ``sup_W (avg_W |f|**p)**(1/p)`` over cell-aligned windows W
    containing the cell (centred=True restricts to odd windows centred on
    it, extended by zero off the grid).  p must be finite and positive; the
    p = infinity version is just the sup norm.

    1D uncentred values are exact everywhere, at O(N log**2 N) cost:
    windows of at most ``_NARROW`` cells come from the per-width sweep, so
    narrow windows (width 1 among them) give the sweep's bits, and wider
    ones from hull tangents (``_crossing_max``).  A value never exceeds the
    full sweep's and equals it unless windows tie within rounding, as in
    the flat parts of an indicator, where the tests bound the gap by 2 ulp.
    2D and centred values come from the sweep over every window size.
    """
    if not (0 < p < math.inf):
        raise ValueError("p must be finite and positive (the limit is the sup norm)")
    spec = f.spec
    N = spec.N
    P = _prefix_sums(np.abs(f.values) ** p)
    if spec.n == 1 and not centred:
        best = np.maximum(_sweep(P, range(1, min(N, _NARROW) + 1), False), _crossing_max(P))
        return best ** (1.0 / p)
    if not centred and N > _2D_EXHAUSTIVE_LIMIT:
        raise ValueError(f"2D uncentred maximal: at most {_2D_EXHAUSTIVE_LIMIT} cells per axis")
    widths = range(1, 2 * N, 2) if centred else range(1, N + 1)
    return _sweep(P, widths, centred) ** (1.0 / p)


def centred_level_set(f: GridFunction, p: float, tau: float) -> np.ndarray:
    """The super-level set ``{centred p-maximal of f > tau}`` as a boolean
    mask; empty when f vanishes.

    A window of side ``w*h`` has p-average at most ``||f||_p**p / (w*h)**n``,
    so only sides with ``(w*h)**n <= ||f||_p**p / tau**p`` can exceed
    ``tau``, and only those are swept: the mask is the full maximal's.
    """
    if not np.any(f.values):
        return np.zeros(f.spec.shape, dtype=bool)
    if not (0 < p < math.inf):
        raise ValueError("p must be finite and positive (the limit is the sup norm)")
    if tau <= 0:
        raise ValueError("threshold must be positive")
    n, h = f.spec.n, float(f.spec.h)
    u = np.abs(f.values) ** p
    cap = float(u.sum()) * h**n / tau**p
    widths = [w for w in range(1, 2 * f.spec.N, 2) if (w * h) ** n <= cap]
    return _sweep(_prefix_sums(u), widths, True) ** (1.0 / p) > tau


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


def _osc(vals: np.ndarray, P: np.ndarray, corners, w: int) -> np.ndarray:
    """Mean ``|f - window mean|`` for every ``w**n``-cell window, chunked;
    ``P`` holds the prefix sums of ``vals``."""
    n = vals.ndim
    means = _sliding_sums(P, corners, w) / w**n
    M = vals.shape[0] - w + 1
    out = np.empty((M,) * n)
    view = np.lib.stride_tricks.sliding_window_view(vals, (w,) * n)
    step = max(1, _OSC_CHUNK // (w**n * M ** (n - 1)))
    for lo in range(0, M, step):
        hi = min(lo + step, M)
        dev = np.abs(view[lo:hi] - means[lo:hi][(...,) + (None,) * n])
        out[lo:hi] = dev.mean(axis=tuple(range(n, 2 * n)))
    return out


def sharp_maximal(f: GridFunction, radius_cap: float | None = None) -> np.ndarray:
    """Mean-oscillation maximal: sup over windows containing the cell of the
    window average of ``|f - window mean|``.

    ``radius_cap`` bounds the window half-width in physical units, so the
    composed reach of this operator is twice the cap.  Windows run over the
    geometric ladder of side lengths (resolution-stable, see ladder_widths);
    the sweep over every side length is the tests' oracle.
    """
    spec = f.spec
    cap_cells = None if radius_cap is None else int(math.floor(2.0 * radius_cap / float(spec.h)))
    P = _prefix_sums(f.values)
    corners = _corners(spec.n)
    best = np.zeros(spec.shape)
    for w in ladder_widths(spec.N, cap_cells):
        np.maximum(best, _window_max_all_axes(_osc(f.values, P, corners, w), w), out=best)
    return best
