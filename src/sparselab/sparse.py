"""Sparse cube families built from grid data.

Two constructions:

* stopping-time families: starting from root cubes of one shift class, the
  selected children of a cube are its maximal descendants whose f- or
  g-average jumps past a fixed multiple of the cube's own average.  The
  selected volume inside each cube is then at most half of it, so survivor
  sets keep at least half of every cube.

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

    def children_of(self, i: int) -> list[int]:
        return [j for j, e in enumerate(self.entries) if e.parent == i]

    def by_rank(self, rank: int) -> list[int]:
        return [j for j, e in enumerate(self.entries) if e.rank == rank]

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


class _CubeAverages:
    """p-averages of one function over shifted cubes given by integer corner
    arrays, equal to :func:`average_p`'s bit for bit.

    A full cube (one the domain edge does not clip) at scale ``k`` holds
    ``L = 2**(kappa-k)`` contiguous cells per axis, so the full cubes of one
    scale and shift class are the blocks of one reshape of ``|u|**p``.  Each
    block becomes one contiguous row of cells in row-major order, the order
    :func:`average_p` gathers them in, so a row sum is the ``np.sum`` that
    :func:`average_p` takes.  The root is taken with its scalar expression:
    numpy's array power rounds differently.  Clipped cubes go through
    :func:`average_p` itself.  Block sums are built on first use.
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

    def __call__(self, k: int, omega: tuple[int, ...], M: np.ndarray) -> np.ndarray:
        """Averages over the scale-``k`` cubes of class ``omega`` whose
        corners are the rows of ``M``."""
        if (k, omega) not in self.tables:
            self.tables[k, omega] = self._block_sums(k, omega)
        sums, m0 = self.tables[k, omega]
        J = M - m0
        full = np.all((J >= 0) & (J < sums.shape), axis=1)
        vals = sums[tuple(J[full].T)].tolist()
        if not math.isinf(self.p):
            spec = self.u.spec
            hn = 2.0 ** (-spec.kappa * spec.n)
            vol = 2.0 ** (-k * spec.n)
            vals = [(hn * v / vol) ** (1.0 / self.p) for v in vals]
        out = np.empty(len(M))
        out[full] = vals
        for i in np.flatnonzero(~full):
            out[i] = average_p(self.u, DyadicCube(k, tuple(M[i].tolist()), omega), self.p)
        return out


def _select(
    q: DyadicCube, avg_f: _CubeAverages, avg_g: _CubeAverages, tf: float, tg: float
) -> list[tuple[DyadicCube, float, float]]:
    """Maximal descendants of q whose f-average exceeds tf or whose g-average
    exceeds tg, sorted by (k, m), each with its two averages.

    The walk goes one scale at a time: each cube of the frontier is selected,
    or its children join the next frontier when one of its averages is
    positive, or it stops; nothing goes below cell scale."""
    spec = avg_f.u.spec
    offsets = np.array(list(itertools.product((0, 1), repeat=spec.n)))
    out = []
    k, omega = q.k, q.omega
    M = np.array([q.m])
    while k < spec.kappa and len(M):
        M = ((2 * M + shift_sign(k) * np.array(omega))[:, None, :] + offsets).reshape(-1, spec.n)
        k += 1
        af = avg_f(k, omega, M)
        ag = avg_g(k, omega, M)
        hit = (af > tf) | (ag > tg)
        order = np.lexsort(M[hit].T[::-1])
        picked = zip(M[hit][order].tolist(), af[hit][order].tolist(), ag[hit][order].tolist())
        out.extend((DyadicCube(k, tuple(m), omega), a, b) for m, a, b in picked)
        M = M[~hit & ((af > 0) | (ag > 0))]
    return out


def build_stopping_time(
    f: GridFunction, g: GridFunction, config: StoppingConfig
) -> SparseCollection:
    """Iterated stopping-time family driven by f- and g-average jumps.

    A descendant is selected when its f-average (exponent r) exceeds
    ``base**(1/r)`` times the current cube's, or its g-average (exponent s')
    exceeds ``base**(1/s')`` times the current cube's; maximal such
    descendants become the next rank.  Selection stops at cell scale.
    Descendants are walked one scale at a time over block sums
    (:class:`_CubeAverages`); each selected cube's averages are handed on,
    so no cube average is taken twice.
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

    avg_f = _CubeAverages(f, r)
    avg_g = _CubeAverages(g, sp)
    for root in roots:
        af = average_p(f, root, r)
        ag = average_p(g, root, sp)
        if af == 0 and ag == 0:
            continue
        stack = [(root, -1, 0, af, ag)]
        while stack:
            q, parent_idx, rank, qaf, qag = stack.pop()
            kids = _select(q, avg_f, avg_g, jump_f * qaf, jump_g * qag)
            me = _append_entry(coll, q, rank, parent_idx, [c for c, _, _ in kids])
            stack.extend((c, me, rank + 1, caf, cag) for c, caf, cag in kids)
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
    flavor: str
    eta: float
    entry_count: int
    min_margin: float  # min over entries of |E| / (eta * |region|)
    disjoint: bool
    failures: list[str]


def verify_sparsity(coll: SparseCollection) -> SparsityReport:
    """Check survivor volume bounds (exact volumes) and disjointness.

    The volume of each survivor set is computed as cube volume minus the sum
    of the selected children volumes (children are disjoint and nested), all
    in exact rational arithmetic; it must be at least ``eta`` times the
    region volume.  Survivor cell sets must be pairwise disjoint, per shift
    class for stopping families and globally for Whitney ones.
    """
    failures: list[str] = []
    min_margin = np.inf
    for i, e in enumerate(coll.entries):
        vol = e.cube.volume()
        kid_vol = sum(
            (coll.entries[j].cube.volume() for j in coll.children_of(i)),
            Fraction(0),
        )
        surv_vol = vol - kid_vol
        region_vol = coll.region(i).volume()
        need = coll.eta * region_vol
        margin = float(surv_vol / need) if need > 0 else np.inf
        min_margin = min(min_margin, margin)
        if surv_vol < need:
            failures.append(
                f"entry {i} (rank {e.rank}, k={e.cube.k}, m={e.cube.m}): "
                f"survivor {surv_vol} < {coll.eta} * region {region_vol}"
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
        flavor=coll.flavor,
        eta=float(coll.eta),
        entry_count=len(coll.entries),
        min_margin=float(min_margin) if coll.entries else np.inf,
        disjoint=disjoint,
        failures=failures,
    )
