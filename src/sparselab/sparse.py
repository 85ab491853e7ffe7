"""Sparse cube families built from grid data.

Two constructions:

* stopping-time families: starting from root cubes of one shift class, the
  selected children of a cube are its maximal descendants whose f- or
  g-average jumps past a fixed multiple of the cube's own average.  The
  selected volume inside each cube is then at most half of it, so survivor
  sets keep at least half of every cube.  The family is built in one
  top-down sweep per shift class: at each scale, every open walk shares one
  f- and one g-average call over block sums, rooted with ``np.power``;
  only an average within a relative ``2**-40`` of a positive threshold, and
  the two averages a selected cube hands on as its thresholds, take
  :func:`average_p`'s scalar root, so every decision is
  :func:`average_p`'s.  The entries are then listed in the depth-first
  order of the search that the tests keep as the oracle.

* Whitney-type families: cores are unshifted cubes; the children of a core
  are the Whitney cubes of the super-level set of two centred maximal
  functions (f localized to the tripled core, g to the core), kept inside
  the core.  The thresholds carry explicit weak-type constants so the level
  set eats at most ``1 - eta`` of the core, making the tripled cores an
  ``eta / 3**n``-sparse family.

Volumes and inclusions are exact (Fraction arithmetic via the cube
geometry); survivor sets are recorded as flat in-grid cell indices, taken
from the grid's integer cube-to-cell map.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

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


def _append_entry(
    coll: SparseCollection, cube: DyadicCube, rank: int, parent: int, kids: list[DyadicCube]
) -> int:
    """Append ``cube`` with its cells minus those of its selected ``kids``
    as survivor set; return the new entry's index."""
    survivor = coll.spec.box_flat_cells(cube)
    if kids:
        kc = np.concatenate([coll.spec.box_flat_cells(c) for c in kids])
        survivor = np.setdiff1d(survivor, kc, assume_unique=True)
    coll.entries.append(SparseEntry(cube, rank, parent, survivor))
    return len(coll.entries) - 1


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


class _CubeAverages:
    """p-averages of one function over shifted cubes given by integer corner
    arrays.

    A full cube (one the domain edge does not clip) at scale ``k`` holds
    ``L = 2**(kappa-k)`` contiguous cells per axis, so the full cubes of one
    scale and shift class are the blocks of one reshape of ``|u|**p``.  Each
    block becomes one contiguous row of cells in row-major order, the order
    :func:`average_p` gathers them in, so a row sum is the ``np.sum`` that
    :func:`average_p` takes.  Clipped cubes go through :func:`average_p`
    itself.  Block sums are built on first use.

    :meth:`exact`, and a call without thresholds, take each block mean's
    root with :func:`average_p`'s scalar expression, so every average is
    :func:`average_p`'s bit for bit; numpy's array power rounds differently
    (for ``x**0.75`` in about 5% of lognormal test values, by at most
    1 ulp).  A call with one threshold per row roots the whole array with
    ``np.power`` and takes the scalar root again only for a positive
    average within ``_ROOT_MARGIN`` of a positive threshold.  So every
    comparison with the row's threshold, and every test for a positive
    average (a zero block sum roots to exactly 0 both ways), comes out as
    with :func:`average_p`.
    """

    def __init__(self, u: GridFunction, p: float):
        self.u = u
        self.p = p
        a = np.abs(u.values)
        self.x = a if math.isinf(p) else a**p
        self.tables: dict[tuple[int, tuple[int, ...]], tuple[np.ndarray, np.ndarray]] = {}

    def _block_sums(self, k: int, omega: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Sums (maxima for ``p = inf``) over the full cubes, indexed by
        block, and per axis the corner ``m`` of block 0."""
        spec = self.u.spec
        L = 1 << (spec.kappa - k)
        starts = [spec.cube_cell_start(k, 0, w) for w in omega]
        nb = [(spec.N - s % L) // L for s in starts]
        rows = self.x[tuple(slice(s % L, s % L + b * L) for s, b in zip(starts, nb))]
        rows = rows.reshape([v for b in nb for v in (b, L)])
        rows = rows.transpose([*range(0, 2 * spec.n, 2), *range(1, 2 * spec.n, 2)])
        rows = rows.reshape(-1, L**spec.n)
        sums = rows.max(axis=1) if math.isinf(self.p) else rows.sum(axis=1)
        return sums.reshape(nb), np.array([-(s // L) for s in starts])

    def _means(
        self, k: int, omega: tuple[int, ...], M: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mask of the full cubes among the rows of ``M``, and their block
        means ``|Q|**-1 * integral_Q |u|**p`` (maxima for ``p = inf``)."""
        if (k, omega) not in self.tables:
            self.tables[k, omega] = self._block_sums(k, omega)
        sums, m0 = self.tables[k, omega]
        J = M - m0
        full = np.all((J >= 0) & (J < sums.shape), axis=1)
        v = sums[tuple(J[full].T)]
        if not math.isinf(self.p):
            spec = self.u.spec
            hn = 2.0 ** (-spec.kappa * spec.n)
            vol = 2.0 ** (-k * spec.n)
            v = hn * v / vol
        return full, v

    def _fill(
        self, k: int, omega: tuple[int, ...], M: np.ndarray, full: np.ndarray, vals
    ) -> np.ndarray:
        out = np.empty(len(M))
        out[full] = vals
        for i in np.flatnonzero(~full):
            out[i] = average_p(self.u, DyadicCube(k, tuple(M[i].tolist()), omega), self.p)
        return out

    def exact(self, k: int, omega: tuple[int, ...], M: np.ndarray) -> np.ndarray:
        """:func:`average_p` over the scale-``k`` cubes of class ``omega``
        whose corners are the rows of ``M``, bit for bit."""
        full, v = self._means(k, omega, M)
        if not math.isinf(self.p):
            e = 1.0 / self.p
            v = [x**e for x in v.tolist()]
        return self._fill(k, omega, M, full, v)

    def __call__(
        self, k: int, omega: tuple[int, ...], M: np.ndarray, t: np.ndarray | None = None
    ) -> np.ndarray:
        """Averages over the scale-``k`` cubes of class ``omega`` whose
        corners are the rows of ``M``: :meth:`exact` without thresholds,
        and with thresholds ``t`` values that compare with ``t`` and with 0
        as :meth:`exact`'s do."""
        if t is None or math.isinf(self.p):
            return self.exact(k, omega, M)
        full, mean = self._means(k, omega, M)
        e = 1.0 / self.p
        v = np.power(mean, e)
        t = t[full]
        both = np.flatnonzero((v > 0) & (t > 0))
        near = both[np.abs(v[both] - t[both]) <= t[both] * _ROOT_MARGIN]
        v[near] = [x**e for x in mean[near].tolist()]
        return self._fill(k, omega, M, full, v)


class _Sweep:
    """A stopping-time family as one top-down sweep per shift class.

    Entries get ids in the order the sweep finds them: the roots first, then
    the selected cubes scale by scale and, within a scale, by corner, so
    each entry's list of kids is sorted by ``(k, m)``.  Per id the sweep
    keeps the cube, the parent id, the rank, the kids, and the thresholds
    ``jump * average`` that the entry's own walk compares f- and g-averages
    against.
    """

    def __init__(
        self, avg_f: _CubeAverages, avg_g: _CubeAverages, jump_f: float, jump_g: float
    ):
        self.spec = avg_f.u.spec
        self.avg_f, self.avg_g = avg_f, avg_g
        self.jump_f, self.jump_g = jump_f, jump_g
        self.cubes: list[DyadicCube] = []
        self.parent: list[int] = []
        self.rank: list[int] = []
        self.kids: list[list[int]] = []
        self.tf = np.empty(0)
        self.tg = np.empty(0)
        self.roots = 0

    def add_root(self, q: DyadicCube, af: float, ag: float) -> None:
        """Open the walk below root ``q`` with its averages ``af``, ``ag``;
        add every root before the first :meth:`walk`."""
        self.cubes.append(q)
        self.parent.append(-1)
        self.rank.append(0)
        self.kids.append([])
        self.tf = np.append(self.tf, self.jump_f * af)
        self.tg = np.append(self.tg, self.jump_g * ag)
        self.roots += 1

    def walk(self, omega: tuple[int, ...]) -> None:
        """Walk every open walk of shift class ``omega`` one scale at a time.

        The frontier holds rows of (owning entry, corner).  At each scale
        one f- and one g-average call covers all rows, each row against its
        owner's thresholds: a row past either threshold is selected and
        becomes an entry, whose own walk goes on below it; any other row
        with a positive average passes its children to the next scale;
        the rest stop.  A root's walk starts at the root's own scale, and
        nothing goes below cell scale."""
        spec = self.spec
        kappa = spec.kappa
        at_scale: dict[int, list[int]] = {}
        for i in range(self.roots):
            if self.cubes[i].omega == omega:
                at_scale.setdefault(self.cubes[i].k, []).append(i)
        last = max(at_scale)
        offsets = np.array(list(itertools.product((0, 1), repeat=spec.n)))
        shift = np.array(omega)
        owner = np.empty(0, dtype=np.int64)
        M = np.empty((0, spec.n), dtype=np.int64)
        k = min(at_scale)
        while True:
            if len(M):
                tf, tg = self.tf[owner], self.tg[owner]
                af = self.avg_f(k, omega, M, tf)
                ag = self.avg_g(k, omega, M, tg)
                hit = np.flatnonzero((af > tf) | (ag > tg))
                if hit.size:
                    owner = owner.copy()
                    owner[hit] = self._add_selected(k, omega, M[hit], owner[hit])
                keep = (af > 0) | (ag > 0)
                owner, M = owner[keep], M[keep]
            mine = at_scale.get(k, [])
            if mine:
                owner = np.concatenate([owner, mine])
                M = np.concatenate([M, [self.cubes[i].m for i in mine]])
            if k == kappa or (not len(M) and k >= last):
                return
            M = ((2 * M + shift_sign(k) * shift)[:, None, :] + offsets).reshape(-1, spec.n)
            owner = np.repeat(owner, len(offsets))
            k += 1

    def _add_selected(
        self, k: int, omega: tuple[int, ...], M: np.ndarray, owner: np.ndarray
    ) -> np.ndarray:
        """Make entries of the selected scale-``k`` cubes with corners ``M``
        below the entries ``owner``; return their ids, row for row.  Their
        thresholds come from :meth:`_CubeAverages.exact`, so each is the
        one :func:`average_p`'s averages give."""
        order = np.lexsort(M.T[::-1])
        first = len(self.cubes)
        ids = np.empty(len(M), dtype=np.int64)
        ids[order] = np.arange(first, first + len(M))
        M, owner = M[order], owner[order]
        for m, p in zip(M.tolist(), owner.tolist()):
            self.kids[p].append(len(self.cubes))
            self.cubes.append(DyadicCube(k, tuple(m), omega))
            self.parent.append(p)
            self.rank.append(self.rank[p] + 1)
            self.kids.append([])
        af = self.avg_f.exact(k, omega, M)
        ag = self.avg_g.exact(k, omega, M)
        self.tf = np.concatenate([self.tf, self.jump_f * af])
        self.tg = np.concatenate([self.tg, self.jump_g * ag])
        return ids

    def emit(self, coll: SparseCollection) -> None:
        """Append the entries to ``coll`` depth first: the roots in order,
        each followed by its tree, where the kids of an entry go on a stack
        in ``(k, m)`` order and the last one is taken first."""
        index = [-1] * len(self.cubes)
        for root in range(self.roots):
            tree = []
            stack = [root]
            while stack:
                q = stack.pop()
                tree.append(q)
                stack.extend(self.kids[q])
            for j, q in enumerate(tree, len(coll.entries)):
                index[q] = j
            for q, survivor in zip(tree, self._survivors(tree)):
                p = self.parent[q]
                coll.entries.append(
                    SparseEntry(self.cubes[q], self.rank[q], index[p] if p >= 0 else -1, survivor)
                )

    def _survivors(self, tree: list[int]) -> list[np.ndarray]:
        """Survivor cells of each entry of one root's tree, listed parents
        first: each entry paints its cells with its place in ``tree``, so a
        cell ends up with the deepest entry that holds it, and one stable
        sort groups the root's cells by their label in flat index order."""
        cells = self.spec.box_flat_cells(self.cubes[tree[0]])
        if len(tree) == 1:
            return [cells]
        ranges = [self.spec.cell_ranges(self.cubes[q]) for q in tree]
        labels = np.zeros([i1 - i0 for i0, i1 in ranges[0]], dtype=np.intp)
        for j, box in enumerate(ranges[1:], 1):
            labels[tuple(slice(a - o, b - o) for (a, b), (o, _) in zip(box, ranges[0]))] = j
        labels = labels.ravel()
        cells = cells[np.argsort(labels, kind="stable")]
        return np.split(cells, np.cumsum(np.bincount(labels, minlength=len(tree)))[:-1])


def build_stopping_time(
    f: GridFunction, g: GridFunction, config: StoppingConfig
) -> SparseCollection:
    """Iterated stopping-time family driven by f- and g-average jumps.

    A descendant is selected when its f-average (exponent r) exceeds
    ``base**(1/r)`` times the current cube's, or its g-average (exponent s')
    exceeds ``base**(1/s')`` times the current cube's; maximal such
    descendants become the next rank.  Selection stops at cell scale.

    The descendants are walked in one top-down sweep per shift class
    (:class:`_Sweep`): at each scale, all open walks share one f- and one
    g-average call over block sums (:class:`_CubeAverages`), each cube
    compared with its own entry's thresholds.  The averages of the roots
    and of the selected cubes are :func:`average_p`'s bit for bit and are
    handed on as the next thresholds, so the family, entry order included,
    is that of the depth-first search.
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

    sweep = _Sweep(_CubeAverages(f, r), _CubeAverages(g, sp), jump_f, jump_g)
    for root in roots:
        af = average_p(f, root, r)
        ag = average_p(g, root, sp)
        if af != 0 or ag != 0:
            sweep.add_root(root, af, ag)
    for omega in dict.fromkeys(q.omega for q in sweep.cubes):
        sweep.walk(omega)
    sweep.emit(coll)
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

    # smallest core side 2**-k0 >= 1 that covers the reach
    reach = 2.0**config.ell1 + 2.0 * config.ell2
    k0 = 0
    while 2.0**-k0 < reach:
        k0 -= 1
    if Fraction(2) ** (-k0) > Fraction(2) ** (spec.K - 1):
        raise ValueError(
            "domain too small for the requested locality; increase K or shrink the reach"
        )

    r = config.pair.r
    sp = config.pair.s_prime
    one_minus = 1.0 - float(config.eta)
    cf = (3.0 ** (spec.n + 1) / one_minus) ** (1.0 / r) * _weak_constant(spec.n, r)
    cg = (2.0 / one_minus) ** (1.0 / sp) * _weak_constant(spec.n, sp)

    zero = (0,) * spec.n
    cores = list(enumerate_cubes(k0, zero, window))

    stack: list[tuple[DyadicCube, int, int]] = [(q, -1, 0) for q in reversed(cores)]
    while stack:
        q, parent_idx, rank = stack.pop()
        qbox = cube_box(q)
        tbox = concentric_dilate(qbox, 3)
        tau_f = cf * average_p(f, tbox, r)
        tau_g = cg * average_p(g, q, sp)
        mask = centred_level_set(f.restrict_box(tbox), r, tau_f)
        mask |= centred_level_set(g.restrict_box(q), sp, tau_g)
        kids: list[DyadicCube] = []
        if mask.any():
            kids = [
                w
                for w in whitney_decompose(mask, zero, spec)
                if qbox.contains_box(cube_box(w))
            ]
            kids.sort(key=lambda c: (c.k, c.m))
        me = _append_entry(coll, q, rank, parent_idx, kids)
        for w in reversed(kids):
            stack.append((w, me, rank + 1))
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
