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

The sliding maxima over window starts use the two-pass block prefix/suffix
scheme, O(N) per window length, so the exhaustive uncentred maximal costs
O(N**2) in 1D.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .sample import GridFunction

__all__ = ["maximal_p", "sharp_maximal", "ladder_widths"]

_2D_EXHAUSTIVE_LIMIT = 512
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


def maximal_p(
    f: GridFunction,
    p: float,
    centred: bool = False,
    threshold: float | None = None,
) -> np.ndarray:
    """Windowed p-average maximal function at every cell center.

    Returns ``sup_W (avg_W |f|**p)**(1/p)`` over cell-aligned windows W
    containing the cell (centred=True restricts to odd windows centred on
    it, extended by zero off the grid).  p must be finite and positive; the
    p = infinity version is just the sup norm.

    When ``threshold`` is given, window sizes that provably cannot push the
    value above it are skipped: the result is exact on the super-level set
    ``{maximal > threshold}`` and a lower bound elsewhere.
    """
    if not (0 < p < math.inf):
        raise ValueError("p must be finite and positive (the limit is the sup norm)")
    spec = f.spec
    u = np.abs(f.values) ** p
    h = float(spec.h)
    N = spec.N
    total = float(u.sum()) * h**spec.n

    if centred:
        widths = range(1, 2 * N, 2)
    else:
        widths = range(1, N + 1)
        if spec.n == 2 and threshold is None and N > _2D_EXHAUSTIVE_LIMIT:
            raise ValueError("2D exhaustive maximal is limited; pass a threshold to prune")
    if threshold is not None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        cap = total / threshold**p
        widths = [w for w in widths if (w * h) ** spec.n <= cap]

    P = _prefix_sums(u)
    corners = _corners(spec.n)
    i = np.arange(N)
    best = np.zeros(spec.shape)
    for w in widths:
        if centred:
            k = (w - 1) // 2
            lo = np.ix_(*(np.maximum(i - k, 0),) * spec.n)
            hi = np.ix_(*(np.minimum(i + k + 1, N),) * spec.n)
            sums = _window_sums(P, corners, lo, hi)
        else:
            sums = _window_max_all_axes(_sliding_sums(P, corners, w), w)
        np.maximum(best, sums / w**spec.n, out=best)
    return best ** (1.0 / p)


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


def sharp_maximal(
    f: GridFunction,
    radius_cap: float | None = None,
    mode: str = "ladder",
) -> np.ndarray:
    """Mean-oscillation maximal: sup over windows containing the cell of the
    window average of ``|f - window mean|``.

    ``radius_cap`` bounds the window half-width in physical units, so the
    composed reach of this operator is twice the cap.  Windows run over the
    geometric ladder by default (resolution-stable, see ladder_widths);
    mode='all' sweeps every cell count and is meant for small oracles.
    """
    if mode not in ("ladder", "all"):
        raise ValueError("mode must be 'ladder' or 'all'")
    spec = f.spec
    N = spec.N
    h = float(spec.h)
    cap_cells = N if radius_cap is None else int(math.floor(2.0 * radius_cap / h))
    cap_cells = min(cap_cells, N)
    if cap_cells < 1:
        return np.zeros(spec.shape)
    if mode == "ladder":
        widths = ladder_widths(N, cap_cells)
    else:
        widths = list(range(1, cap_cells + 1))
        if spec.n == 2 and N > 128:
            raise ValueError("2D exhaustive oscillation sweep is limited to 128 cells per axis")

    P = _prefix_sums(f.values)
    corners = _corners(spec.n)
    best = np.zeros(spec.shape)
    for w in widths:
        np.maximum(best, _window_max_all_axes(_osc(f.values, P, corners, w), w), out=best)
    return best
