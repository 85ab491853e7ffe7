"""Sparse cube families built from grid data.

Two constructions:

* stopping-time families: starting from root cubes of any shift class, the
  selected children of a cube are its maximal descendants whose f- or
  g-average jumps past a fixed multiple of the cube's own average.  The
  selected volume inside each cube is then at most half of it, so survivor
  sets keep at least half of every cube.  The family is built in one
  top-down sweep over every shift class: at each scale, one averages call
  serves f and g for every open walk and every root of that scale, with
  each cube's cells gathered into one contiguous row, and the means are
  rooted with ``np.power``; only an average within a relative ``2**-40`` of
  a positive threshold, and the averages of the roots and of the selected
  cubes, which they hand on as thresholds, take :func:`average_p`'s scalar
  root, so every decision is :func:`average_p`'s.

* Whitney-type families: cores are unshifted cubes; the children of a core
  are the Whitney cubes of the super-level set of two centred maximal
  functions (f localized to the tripled core, g to the core), kept inside
  the core.  The thresholds carry explicit weak-type constants so the level
  set eats at most ``1 - eta`` of the core, making the tripled cores an
  ``eta / 3**n``-sparse family.  The entries are walked parents first.

Both builders fill one tree (:class:`_Tree`), and one emitter lists it in
the depth-first order of the searches that the tests keep as oracles, with
a Whitney entry's kids taken in ``(k, m)`` order, first one first.
Volumes and inclusions are exact (Fraction arithmetic via the cube
geometry); survivor sets are recorded as flat in-grid cell indices, taken
from the grid's integer cube-to-cell map.  The sparse form, the pointwise
domination check and the endpoint audit read every entry's region average
through the same gather (``_region_averages``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .dyadic import (
    Box,
    DyadicCube,
    concentric_dilate,
    cube_box,
    enumerate_cubes,
    shift_sign,
    whitney_decompose,
)
from .maximal import centred_level_set
from .sample import ExponentPair, GridFunction, GridSpec, average_p

__all__ = [
    "SparseEntry",
    "SparseCollection",
    "StoppingConfig",
    "WhitneyConfig",
    "build_stopping_time",
    "build_whitney_sparse",
    "verify_sparsity",
]


@dataclass(frozen=True, eq=False)
class SparseEntry:
    """One cube of a sparse family with its survivor cell set."""

    cube: DyadicCube
    rank: int
    parent: int  # index into the collection, -1 for roots
    survivor: np.ndarray  # sorted flat indices of in-grid survivor cells


@dataclass
class SparseCollection:
    spec: GridSpec
    flavor: str  # "stopping" | "whitney"
    eta: Fraction  # guaranteed survivor fraction of each entry's region
    entries: list[SparseEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.flavor not in ("stopping", "whitney"):
            raise ValueError("flavor must be 'stopping' or 'whitney'")

    def __len__(self) -> int:
        return len(self.entries)

    def tree(self) -> tuple[list[list[int]], list[list[int]]]:
        """The children of every entry and the entries of every rank
        ``0..max_rank()``, each list in index order, from one pass over the
        entries."""
        children: list[list[int]] = [[] for _ in self.entries]
        ranks: list[list[int]] = [[] for _ in range(self.max_rank() + 1)]
        for j, e in enumerate(self.entries):
            if e.parent >= 0:
                children[e.parent].append(j)
            ranks[e.rank].append(j)
        return children, ranks

    def max_rank(self) -> int:
        return max((e.rank for e in self.entries), default=-1)

    def region(self, i: int) -> DyadicCube | Box:
        """Averaging region of entry i: for a stopping entry the cube itself,
        passed as a cube so that its cells come from the grid's integer map;
        for a Whitney entry its tripled box."""
        cube = self.entries[i].cube
        return cube if self.flavor == "stopping" else concentric_dilate(cube_box(cube), 3)


@dataclass(frozen=True)
class StoppingConfig:
    pair: ExponentPair
    threshold_base: float = 4.0
    roots: tuple[DyadicCube, ...] | None = None  # default: every shift class at scale -(K+1)

    def __post_init__(self) -> None:
        if self.threshold_base <= 1:
            raise ValueError("threshold base must exceed 1")


def _support_window(spec: GridSpec, *fns: GridFunction) -> Box | None:
    boxes = [b for b in (f.support_box() for f in fns) if b is not None]
    if not boxes:
        return None
    lo = tuple(min(b.lower[i] for b in boxes) for i in range(spec.n))
    hi = tuple(max(b.upper[i] for b in boxes) for i in range(spec.n))
    return Box(lo, hi)


# np.power's root of a block mean came within 1 ulp (2**-52 relative) of the
# scalar root on 3M test values, so an average farther than this from its
# threshold lands on the same side of it either way; 2**-40 leaves about
# 4000 times that.
_ROOT_MARGIN = 2.0**-40


def _cube_ranges(
    spec: GridSpec, k: int, W: np.ndarray, M: np.ndarray, factor: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis in-domain cell ranges ``[lo, hi)``, arrays shaped like
    ``M``, of the concentric ``factor``-dilates (``factor`` 1 or 3) of the
    scale-``k`` cubes with shift classes ``W`` and corners ``M``.  A cube's
    3-dilate is the union of the 3**n cubes of its class and scale around
    it, so its cells run from the start of the cube at corner ``M - 1`` for
    ``3 * 2**(kappa-k)`` cells per axis: the cells of
    :meth:`GridSpec.cell_ranges` on the dilated box, in integers."""
    start = spec.cube_cell_start(k, M - (factor - 1) // 2, W)
    stop = start + (factor << (spec.kappa - k))
    # clipped to the domain by ufuncs: np.clip costs more than the rest here
    return tuple(np.maximum(np.minimum(v, spec.N), 0) for v in (start, stop))


class _CubeAverages:
    """p-averages of several functions, each at its own exponent, over
    boxes of in-domain cells given as integer ranges.

    :meth:`region_means` gathers the cells of every box into one contiguous
    row, in row-major order, the order :func:`average_p` gathers them in:
    the boxes are grouped by clipped shape, and each group is one fancy
    index of a read-only window view of ``|u|**p`` by start cell.  Each
    function is gathered on its own, so each of its rows is contiguous and
    a row sum is the ``np.sum`` that :func:`average_p` takes.  Full,
    clipped and empty boxes of every scale and shift class take this one
    path; an empty box has sum 0 and maximum 0, as in :func:`average_p`.

    :meth:`roots` without thresholds takes each mean's root with
    :func:`average_p`'s scalar expression, so every average is
    :func:`average_p`'s bit for bit; numpy's array power rounds differently
    (for ``x**0.75`` in about 5% of lognormal test values, by at most
    1 ulp).  With one threshold per function and row it roots the whole
    array with ``np.power`` and takes the scalar root again only for a
    positive average within ``_ROOT_MARGIN`` of a positive threshold.  So
    every comparison with the row's threshold, and every test for a
    positive average (a zero sum roots to exactly 0 both ways), comes out
    as with :func:`average_p`.
    """

    def __init__(self, spec: GridSpec, fns: list[tuple[GridFunction, float]]):
        self.spec = spec
        self.p = [p for _, p in fns]
        self.x = []
        for u, p in fns:
            a = np.abs(u.values)
            self.x.append(a if math.isinf(p) else a**p)

    def region_means(self, lo: np.ndarray, hi: np.ndarray, vol) -> np.ndarray:
        """``|R|**-1 * integral_R |u|**p`` (maxima for ``p = inf``) of every
        function over the boxes of cells ``lo[i] .. hi[i] - 1`` per axis,
        of volumes ``vol`` (one for all rows, or one per row); one row per
        function."""
        spec = self.spec
        shape = hi - lo
        out = np.zeros((len(self.x), len(lo)))
        key = shape[:, 0]
        for axis in range(1, spec.n):
            key = key * (spec.N + 1) + shape[:, axis]
        if np.all(key[1:] == key[:-1]):  # one shape, often every row a full cube
            groups = [slice(None)] if len(key) else []
        else:
            order = np.argsort(key, kind="stable")
            groups = np.split(order, np.flatnonzero(np.diff(key[order])) + 1)
        for rows in groups:
            box = shape[rows][0].tolist()
            if not all(box):
                continue
            starts = tuple(lo[rows].T)
            for x, p, o in zip(self.x, self.p, out):
                windows = as_strided(
                    x, [spec.N - s + 1 for s in box] + box, x.strides * 2, writeable=False
                )
                cells = windows[starts].reshape(len(starts[0]), -1)
                o[rows] = cells.max(axis=1) if math.isinf(p) else cells.sum(axis=1)
        hn = 2.0 ** (-spec.kappa * spec.n)  # cell volume, exact
        for p, o in zip(self.p, out):
            if not math.isinf(p):
                o *= hn
                o /= vol
        return out

    def means(self, k: int, W: np.ndarray, M: np.ndarray) -> np.ndarray:
        """:meth:`region_means` over the scale-``k`` cubes with shift classes
        ``W`` and corners ``M`` (one row each)."""
        lo, hi = _cube_ranges(self.spec, k, W, M)
        return self.region_means(lo, hi, 2.0 ** (-k * self.spec.n))

    def roots(self, mean: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
        """The averages of the means ``mean``: :func:`average_p`'s without
        thresholds, and with thresholds ``t`` (shaped like ``mean``) values
        that compare with ``t`` and with 0 as :func:`average_p`'s do."""
        out = np.array(mean, dtype=float)
        for i, p in enumerate(self.p):
            if math.isinf(p):
                continue
            e = 1.0 / p
            if t is None:
                out[i] = [x**e for x in out[i].tolist()]
                continue
            v = np.power(out[i], e)
            # |v - t| <= t * margin for t > 0 (so v > 0 too); scaling the gap
            # by 1 / margin, a power of two, is exact and never forms 0 * margin
            gap = np.abs(v - t[i]) * (1.0 / _ROOT_MARGIN)
            near = np.flatnonzero((t[i] > 0) & (gap <= t[i]))
            v[near] = [x**e for x in out[i, near].tolist()]
            out[i] = v
        return out


def _ranges_of_cubes(
    spec: GridSpec, cubes: list[DyadicCube], factor: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_cube_ranges` of every cube of a list (``factor`` 1) or of
    its concentric triple (3), one row per cube, taken one scale at a
    time."""
    k = np.array([q.k for q in cubes], dtype=np.int64)
    W = np.array([q.omega for q in cubes], dtype=np.int64).reshape(-1, spec.n)
    M = np.array([q.m for q in cubes], dtype=np.int64).reshape(-1, spec.n)
    lo, hi = np.empty_like(M), np.empty_like(M)
    for scale in dict.fromkeys(k.tolist()):
        rows = k == scale
        lo[rows], hi[rows] = _cube_ranges(spec, scale, W[rows], M[rows], factor)
    return lo, hi


def _region_averages(
    coll: SparseCollection, fns: list[tuple[GridFunction, float]]
) -> tuple[np.ndarray, np.ndarray]:
    """The volume of every entry's region (:meth:`SparseCollection.region`)
    and the p-average of each function over it, one row per function, each
    :func:`average_p`'s bit for bit, from one :class:`_CubeAverages` call."""
    spec = coll.spec
    factor = 1 if coll.flavor == "stopping" else 3
    cubes = [e.cube for e in coll.entries]
    lo, hi = _ranges_of_cubes(spec, cubes, factor)
    k = np.array([q.k for q in cubes], dtype=np.int64)
    # factor**n * 2**(-k*n), exact in floats: float(region.volume())
    vol = np.ldexp(float(factor**spec.n), -spec.n * k)
    avg = _CubeAverages(spec, fns)
    return vol, avg.roots(avg.region_means(lo, hi, vol))


def _flat_cells(spec: GridSpec, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the cells of every box ``lo[i] .. hi[i] - 1``,
    concatenated box after box, each box's in row-major order as
    :meth:`GridSpec.box_flat_cells` lists them, and each box's cell count."""
    shape = hi - lo
    counts = shape.prod(axis=1)
    # place of each cell within its box, in row-major order
    t = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    flat = np.zeros_like(t)
    for axis in range(spec.n - 1, 0, -1):
        side = np.repeat(shape[:, axis], counts)
        flat += (np.repeat(lo[:, axis], counts) + t % side) * spec.N ** (spec.n - 1 - axis)
        t //= side
    return flat + (np.repeat(lo[:, 0], counts) + t) * spec.N ** (spec.n - 1), counts


class _Tree:
    """A family's entries as a builder finds them: the tops first, in the
    order given, then each added entry; per id the cube, the parent id, the
    rank and the kids in the order they were added."""

    def __init__(self, spec: GridSpec, tops: list[DyadicCube]):
        self.spec = spec
        self.cubes: list[DyadicCube] = list(tops)
        self.parent: list[int] = [-1] * len(tops)
        self.rank: list[int] = [0] * len(tops)
        self.kids: list[list[int]] = [[] for _ in tops]

    def add(self, cube: DyadicCube, parent: int) -> None:
        """Make ``cube`` the last kid so far of the entry ``parent``."""
        self.kids[parent].append(len(self.cubes))
        self.cubes.append(cube)
        self.parent.append(parent)
        self.rank.append(self.rank[parent] + 1)
        self.kids.append([])

    def emit(self, coll: SparseCollection, tops: list[int]) -> None:
        """Append the entries to ``coll`` depth first: the tops ``tops`` in
        order, each followed by its tree, where the kids of an entry go on a
        stack in the order they were added and the last one is taken
        first."""
        index = [-1] * len(self.cubes)
        lo, hi = _ranges_of_cubes(self.spec, self.cubes)
        for root in tops:
            tree = []
            stack = [root]
            while stack:
                q = stack.pop()
                tree.append(q)
                stack.extend(self.kids[q])
            for j, q in enumerate(tree, len(coll.entries)):
                index[q] = j
            for q, survivor in zip(tree, self._survivors(tree, lo[tree], hi[tree])):
                p = self.parent[q]
                coll.entries.append(
                    SparseEntry(self.cubes[q], self.rank[q], index[p] if p >= 0 else -1, survivor)
                )

    def _survivors(self, tree: list[int], lo: np.ndarray, hi: np.ndarray) -> list[np.ndarray]:
        """Survivor cells of each entry of one top's tree, listed parents
        first, from the entries' cell ranges ``lo``, ``hi`` (one row each):
        each entry paints its cells with its place in ``tree``, so a cell
        ends up with the deepest entry that holds it, and one stable sort
        groups the top's cells by their label in flat index order."""
        cells = _flat_cells(self.spec, lo[:1], hi[:1])[0]
        if len(tree) == 1:
            return [cells]
        labels = np.zeros(hi[0] - lo[0], dtype=np.intp)
        for j, (a, b) in enumerate(zip((lo[1:] - lo[0]).tolist(), (hi[1:] - lo[0]).tolist()), 1):
            labels[tuple(map(slice, a, b))] = j
        labels = labels.ravel()
        cells = cells[np.argsort(labels, kind="stable")]
        return np.split(cells, np.cumsum(np.bincount(labels, minlength=len(tree)))[:-1])


class _Sweep(_Tree):
    """A stopping-time family as one top-down sweep over every shift class.

    The roots are the tree's tops; the sweep adds the selected cubes in the
    order it finds them, scale by scale and, within a scale, by corner, so
    each entry's list of kids is sorted by ``(k, m)``.  Per id the sweep
    also keeps the thresholds ``jump * average`` (one row per function)
    that the entry's own walk compares f- and g-averages against.
    """

    def __init__(self, avg: _CubeAverages, jump: np.ndarray, roots: list[DyadicCube]):
        super().__init__(avg.spec, roots)
        self.avg = avg
        self.jump = jump[:, None]
        self.t = np.zeros((len(jump), len(roots)))
        self.opened = np.zeros(len(roots), dtype=bool)

    def walk(self) -> None:
        """Walk every root one scale at a time.

        The frontier holds rows of (owning entry, shift class, corner).  At
        each scale one averages call covers every frontier row and every
        root of that scale, for f and g together.  A frontier row past
        either of its owner's thresholds is selected and becomes an entry,
        whose own walk goes on below it; any other row with a positive
        average passes its children to the next scale; the rest stop.  A
        root with a positive average opens its walk at its own scale with
        its averages as thresholds; a vanishing root opens none.  Nothing
        goes below cell scale."""
        spec = self.spec
        kappa = spec.kappa
        at_scale: dict[int, list[int]] = {}
        for i, q in enumerate(self.cubes):
            at_scale.setdefault(q.k, []).append(i)
        if not at_scale:  # no roots, no family
            return
        last = max(at_scale)
        offsets = np.array(list(itertools.product((0, 1), repeat=spec.n)))
        owner = np.empty(0, dtype=np.int64)
        W = M = np.empty((0, spec.n), dtype=np.int64)
        k = min(at_scale)
        while True:
            mine = at_scale.get(k, [])
            walking = len(owner)
            if mine:
                owner = np.concatenate([owner, mine])
                W = np.concatenate([W, [self.cubes[i].omega for i in mine]])
                M = np.concatenate([M, [self.cubes[i].m for i in mine]])
            if len(M):
                mean = self.avg.means(k, W, M)
                t = self.t.take(owner[:walking], axis=1)
                a = self.avg.roots(mean[:, :walking], t)
                hit = np.flatnonzero((a > t).any(axis=0))
                if hit.size:
                    owner = owner.copy()
                    owner[hit] = self._add_selected(k, W[hit], M[hit], owner[hit], mean[:, hit])
                keep = (a > 0).any(axis=0)
                if mine:
                    a = self.avg.roots(mean[:, walking:])
                    self.t[:, mine] = self.jump * a
                    self.opened[mine] = (a > 0).any(axis=0)
                    keep = np.concatenate([keep, self.opened[mine]])
                owner, W, M = (v.compress(keep, axis=0) for v in (owner, W, M))
            if k == kappa or (not len(M) and k >= last):
                return
            M = ((2 * M + shift_sign(k) * W)[:, None, :] + offsets).reshape(-1, spec.n)
            W = np.repeat(W, len(offsets), axis=0)
            owner = np.repeat(owner, len(offsets))
            k += 1

    def _add_selected(
        self, k: int, W: np.ndarray, M: np.ndarray, owner: np.ndarray, mean: np.ndarray
    ) -> np.ndarray:
        """Make entries of the selected scale-``k`` cubes with shift classes
        ``W``, corners ``M`` and means ``mean`` below the entries ``owner``;
        return their ids, row for row.  Their thresholds take the scalar
        root of :meth:`_CubeAverages.roots`, so each is the one
        :func:`average_p`'s averages give."""
        order = np.lexsort(M.T[::-1])
        first = len(self.cubes)
        ids = np.empty(len(M), dtype=np.int64)
        ids[order] = np.arange(first, first + len(M))
        for w, m, p in zip(W[order].tolist(), M[order].tolist(), owner[order].tolist()):
            self.add(DyadicCube(k, tuple(m), tuple(w)), p)
        self.t = np.concatenate([self.t, self.jump * self.avg.roots(mean[:, order])], axis=1)
        return ids


def build_stopping_time(
    f: GridFunction, g: GridFunction, config: StoppingConfig
) -> SparseCollection:
    """Iterated stopping-time family driven by f- and g-average jumps.

    A descendant is selected when its f-average (exponent r) exceeds
    ``base**(1/r)`` times the current cube's, or its g-average (exponent s')
    exceeds ``base**(1/s')`` times the current cube's; maximal such
    descendants become the next rank.  Selection stops at cell scale.

    The roots and their descendants are walked in one top-down sweep over
    every shift class (:class:`_Sweep`): at each scale, one averages call
    (:class:`_CubeAverages`) covers the open walks and the roots of that
    scale, for f and g together, and each cube is compared with its own
    entry's thresholds.  The averages of the roots and of the selected cubes
    are :func:`average_p`'s bit for bit and are handed on as the next
    thresholds, so the family, entry order included, is that of the
    depth-first search.
    """
    spec = f.spec
    if g.spec != spec:
        raise ValueError("f and g must share a grid")
    r = config.pair.r
    sp = config.pair.s_prime
    base = config.threshold_base
    jump_f = base ** (1.0 / r)
    jump_g = base ** (1.0 / sp)

    coll = SparseCollection(spec, "stopping", Fraction(1, 2))
    window = _support_window(spec, f, g)
    if window is None:
        return coll

    if config.roots is not None:
        roots = list(config.roots)
    else:
        roots = []
        for om in np.ndindex(*(3,) * spec.n):
            roots.extend(enumerate_cubes(-(spec.K + 1), om, window))

    avg = _CubeAverages(spec, [(f, r), (g, sp)])
    sweep = _Sweep(avg, np.array([jump_f, jump_g]), roots)
    sweep.walk()
    sweep.emit(coll, np.flatnonzero(sweep.opened).tolist())
    return coll


@dataclass(frozen=True)
class WhitneyConfig:
    pair: ExponentPair
    ell1: int = 1  # kernel localization: window radius 2**ell1
    ell2: float = 1.0  # oscillation maximal half-width cap, physical units
    eta: Fraction = Fraction(1, 2)  # survivor fraction target per core

    def __post_init__(self) -> None:
        if not (0 < self.eta < 1):
            raise ValueError("eta must lie in (0, 1)")
        if self.pair.s == 1:
            raise ValueError(
                "Whitney families need s > 1: at s = 1 the g level set would take the "
                "s'-maximal function with s' infinite"
            )


def _weak_constant(n: int, p: float) -> float:
    """Weak-type surrogate for the centred p-average maximal function."""
    return 3.0 ** (n / p)


def build_whitney_sparse(
    f: GridFunction, g: GridFunction, config: WhitneyConfig
) -> SparseCollection:
    """Whitney-type sparse family for a composed local operator.

    Rank-0 cores are unshifted cubes covering both supports, sized so the
    composed reach ``2**ell1 + 2*ell2`` fits inside one core side (then the
    operator applied to f localized on a tripled core agrees on the core
    with the global one).  Children of a core Q are the Whitney cubes,
    inside Q, of the union of two super-level sets:

        {centred r-maximal of (f on 3Q)   >  (3**(n+1)/(1-eta))**(1/r)  * 3**(n/r)  * f-avg on 3Q}
        {centred s'-maximal of (g on Q)   >  (2/(1-eta))**(1/s')        * 3**(n/s') * g-avg on Q}

    whose measures the weak-type bounds cap at (1-eta)|Q|(1/3 + 1/2), so
    survivors keep at least ``eta`` of every core.
    """
    spec = f.spec
    if g.spec != spec:
        raise ValueError("f and g must share a grid")
    window = _support_window(spec, f, g)
    coll_eta = config.eta * Fraction(3) ** (-spec.n)
    coll = SparseCollection(spec, "whitney", coll_eta)
    if window is None:
        return coll
    if not spec.central_half().contains_box(window):
        raise ValueError("wraparound risk: supports must sit in the central half")

    # smallest core side 2**-k0 >= 1 that covers the reach, at most 2**(K-1);
    # a radius 2**ell1 alone past that is decided in integers, before
    # 2.0**ell1 can overflow
    reach = 2.0**config.ell1 + 2.0 * config.ell2 if config.ell1 < spec.K else math.inf
    if reach > 2.0 ** (spec.K - 1):
        raise ValueError(
            "domain too small for the requested locality; increase K or shrink the reach"
        )
    k0 = 0
    while 2.0**-k0 < reach:
        k0 -= 1

    r = config.pair.r
    sp = config.pair.s_prime
    one_minus = 1.0 - float(config.eta)
    cf = (3.0 ** (spec.n + 1) / one_minus) ** (1.0 / r) * _weak_constant(spec.n, r)
    cg = (2.0 / one_minus) ** (1.0 / sp) * _weak_constant(spec.n, sp)

    zero = (0,) * spec.n
    cores = list(enumerate_cubes(k0, zero, window))
    tree = _Tree(spec, cores)
    # parents first: the kids added below an entry join the list being walked
    for i, q in enumerate(tree.cubes):
        qbox = cube_box(q)
        tbox = concentric_dilate(qbox, 3)
        tau_f = cf * average_p(f, tbox, r)
        tau_g = cg * average_p(g, q, sp)
        mask = centred_level_set(f.restrict_box(tbox), r, tau_f)
        mask |= centred_level_set(g.restrict_box(q), sp, tau_g)
        if not mask.any():  # whitney_decompose would still walk the coarse cubes
            continue
        # whitney_decompose sorts by (k, m); added in reverse, the emitter
        # takes them in that order
        for w in reversed(whitney_decompose(mask, zero, spec)):
            if qbox.contains_box(cube_box(w)):
                tree.add(w, i)
    tree.emit(coll, list(range(len(cores))))
    return coll


@dataclass
class SparsityReport:
    ok: bool
    min_margin: float  # min over entries of |E| / (eta * |region|)
    disjoint: bool
    failures: list[str]


def verify_sparsity(coll: SparseCollection) -> SparsityReport:
    """Check survivor volume bounds (exact volumes) and disjointness.

    The volume of each survivor set is computed as cube volume minus the sum
    of the selected children volumes (children are disjoint and nested); it
    must be at least ``eta`` times the region volume.  Every volume is an
    integer count of the family's finest cubes, so the comparison is exact
    in integers.  Survivor cell sets must be pairwise disjoint, per shift
    class for stopping families and globally for Whitney ones.
    """
    failures: list[str] = []
    min_margin = np.inf
    children, _ = coll.tree()
    n = coll.spec.n
    finest = max((e.cube.k for e in coll.entries), default=0)
    # volumes in units of a finest cube; a Whitney region is the tripled cube
    units = [1 << (n * (finest - e.cube.k)) for e in coll.entries]
    dilation = 1 if coll.flavor == "stopping" else 3**n
    num, den = coll.eta.numerator, coll.eta.denominator
    for i, e in enumerate(coll.entries):
        surv = units[i] - sum(units[j] for j in children[i])
        region = dilation * units[i]
        # survivor / (eta * region), correctly rounded like float(Fraction)
        margin = surv * den / (num * region) if num * region > 0 else np.inf
        min_margin = min(min_margin, margin)
        if surv * den < num * region:
            unit = Fraction(2) ** (-n * finest)
            failures.append(
                f"entry {i} (rank {e.rank}, k={e.cube.k}, m={e.cube.m}): "
                f"survivor {surv * unit} < {coll.eta} * region {region * unit}"
            )
    groups: dict[tuple[int, ...], list[np.ndarray]] = {}
    for e in coll.entries:
        key = e.cube.omega if coll.flavor == "stopping" else ()
        groups.setdefault(key, []).append(e.survivor)
    disjoint = True
    for key, parts in groups.items():
        allcells = np.concatenate([p for p in parts if p.size] or [np.empty(0, dtype=np.int64)])
        allcells.sort()
        # a repeat sits next to its twin once sorted; np.unique would also
        # import numpy.ma on its first call, about 40 ms of a stopping run
        if np.any(allcells[1:] == allcells[:-1]):
            disjoint = False
            failures.append(f"survivor overlap within shift class {key}")
    return SparsityReport(
        ok=not failures,
        min_margin=float(min_margin) if coll.entries else np.inf,
        disjoint=disjoint,
        failures=failures,
    )
