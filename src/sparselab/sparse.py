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

import io
from dataclasses import dataclass, field
from fractions import Fraction
import numpy as np

from .dyadic import (
    Box,
    DyadicCube,
    children as cube_children,
    concentric_dilate,
    cube_box,
    enumerate_cubes,
    parent as cube_parent,
    whitney_decompose,
)
from .maximal import maximal_p
from .sample import ExponentPair, GridFunction, GridSpec, average_p

__all__ = [
    "SparseEntry",
    "SparseCollection",
    "StoppingConfig",
    "WhitneyConfig",
    "build_stopping_time",
    "build_whitney_sparse",
    "survivor_cubes",
    "verify_sparsity",
    "save_sparse_collection",
    "load_sparse_collection",
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

    def region(self, i: int) -> Box:
        """Averaging region of entry i: the cube itself, or its triple."""
        box = cube_box(self.entries[i].cube)
        return box if self.flavor == "stopping" else concentric_dilate(box, 3)


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
    extend_up: int = 0  # prepend this many coarser ancestors at negative rank
    max_rank: int | None = None


def _support_window(spec: GridSpec, *fns: GridFunction) -> Box | None:
    boxes = [b for b in (f.support_box() for f in fns) if b is not None]
    if not boxes:
        return None
    lo = tuple(min(b.lower[i] for b in boxes) for i in range(spec.n))
    hi = tuple(max(b.upper[i] for b in boxes) for i in range(spec.n))
    return Box(lo, hi)


def build_stopping_time(
    f: GridFunction, g: GridFunction, config: StoppingConfig
) -> SparseCollection:
    """Iterated stopping-time family driven by f- and g-average jumps.

    A descendant is selected when its f-average (exponent r) exceeds
    ``base**(1/r)`` times the current cube's, or its g-average (exponent s')
    exceeds ``base**(1/s')`` times the current cube's; maximal such
    descendants become the next rank.  Selection stops at cell scale.
    """
    spec = f.spec
    if g.spec != spec:
        raise ValueError("f and g must share a grid")
    r = config.pair.r
    sp = config.pair.s_prime
    base = config.threshold_base
    if base <= 1:
        raise ValueError("threshold base must exceed 1")
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

    def select(cube: DyadicCube, tf: float, tg: float) -> list[DyadicCube]:
        """Maximal descendants whose average jumps past tf or tg."""
        out = []
        stack = list(cube_children(cube)) if cube.k < spec.kappa else []
        while stack:
            c = stack.pop()
            af = average_p(f, c, r)
            ag = average_p(g, c, sp)
            if af > tf or ag > tg:
                out.append(c)
            elif (af > 0 or ag > 0) and c.k < spec.kappa:
                stack.extend(cube_children(c))
        return out

    for root in roots:
        af = average_p(f, root, r)
        ag = average_p(g, root, sp)
        if af == 0 and ag == 0:
            continue
        chain = [root]
        for _ in range(config.extend_up):
            chain.append(cube_parent(chain[-1]))
        # ancestors first, ranks -extend_up .. -1, each with its one known child
        prev = -1
        for depth in range(config.extend_up, 0, -1):
            prev = _append_entry(coll, chain[depth], -depth, prev, [chain[depth - 1]])
        # rank 0: run the recursive selection from the root
        stack = [(root, prev, 0, af, ag)]
        while stack:
            q, parent_idx, rank, qaf, qag = stack.pop()
            if config.max_rank is not None and rank > config.max_rank:
                continue
            kids = select(q, jump_f * qaf, jump_g * qag)
            kids.sort(key=lambda c: (c.k, c.m))
            me = _append_entry(coll, q, rank, parent_idx, kids)
            if config.max_rank is not None and rank == config.max_rank:
                continue
            for c in kids:
                stack.append((c, me, rank + 1, average_p(f, c, r), average_p(g, c, sp)))
    return coll


@dataclass(frozen=True)
class WhitneyConfig:
    pair: ExponentPair
    ell1: int = 1  # kernel localization: window radius 2**ell1
    ell2: float = 1.0  # oscillation maximal half-width cap, physical units
    eta: Fraction = Fraction(1, 2)  # survivor fraction target per core
    core_scale: int | None = None
    max_rank: int | None = None


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
    if not (0 < config.eta < 1):
        raise ValueError("eta must lie in (0, 1)")

    reach = 2.0**config.ell1 + 2.0 * config.ell2
    if config.core_scale is not None:
        k0 = config.core_scale
    else:
        k0 = 0
        while 2.0**-k0 < reach:
            k0 -= 1
    side = Fraction(2) ** (-k0)
    if side > Fraction(2) ** (spec.K - 1):
        raise ValueError(
            "domain too small for the requested locality; increase K or shrink the reach"
        )
    if float(side) < reach:
        raise ValueError("core side is below the composed operator reach")

    r = config.pair.r
    sp = config.pair.s_prime
    one_minus = 1.0 - float(config.eta)
    cf = (3.0 ** (spec.n + 1) / one_minus) ** (1.0 / r) * _weak_constant(spec.n, r)
    cg = (2.0 / one_minus) ** (1.0 / sp) * _weak_constant(spec.n, sp)

    zero = (0,) * spec.n
    cores = list(enumerate_cubes(k0, zero, window))

    def level_mask(u: GridFunction, p: float, tau: float) -> np.ndarray:
        if tau == 0.0 or not np.any(u.values):
            return np.zeros(spec.shape, dtype=bool)
        return maximal_p(u, p, centred=True, threshold=tau) > tau

    stack: list[tuple[DyadicCube, int, int]] = [(q, -1, 0) for q in reversed(cores)]
    while stack:
        q, parent_idx, rank = stack.pop()
        qbox = cube_box(q)
        tbox = concentric_dilate(qbox, 3)
        tau_f = cf * average_p(f, tbox, r)
        tau_g = cg * average_p(g, q, sp)
        mask = level_mask(f.restrict_box(tbox), r, tau_f)
        mask |= level_mask(g.restrict_box(qbox), sp, tau_g)
        kids: list[DyadicCube] = []
        if mask.any():
            kids = [
                w
                for w in whitney_decompose(mask, zero, spec)
                if qbox.contains_box(cube_box(w))
            ]
            kids.sort(key=lambda c: (c.k, c.m))
        me = _append_entry(coll, q, rank, parent_idx, kids)
        if config.max_rank is not None and rank >= config.max_rank:
            continue
        for w in reversed(kids):
            stack.append((w, me, rank + 1))
    return coll


def survivor_cubes(
    coll: SparseCollection, index: int, k: int
) -> list[DyadicCube]:
    """Scale-k descendants of entry ``index`` not inside any selected child.

    When k is at least as deep as every child's scale these tile the
    survivor set exactly.
    """
    entry = coll.entries[index]
    if k < entry.cube.k:
        raise ValueError("requested scale is coarser than the cube")
    kid_boxes = [cube_box(coll.entries[j].cube) for j in coll.children_of(index)]
    out: list[DyadicCube] = []
    stack = [entry.cube]
    while stack:
        c = stack.pop()
        cb = cube_box(c)
        if any(kb.contains_box(cb) for kb in kid_boxes):
            continue
        if c.k == k:
            out.append(c)
        else:
            stack.extend(cube_children(c))
    out.sort(key=lambda c: c.m)
    return out


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
    spec = coll.spec
    failures: list[str] = []
    min_margin = np.inf
    for i, e in enumerate(coll.entries):
        vol = e.cube.volume()
        kid_vol = sum(
            (coll.entries[j].cube.volume() for j in coll.children_of(i)),
            Fraction(0),
        )
        surv_vol = vol - kid_vol
        region_vol = vol if coll.flavor == "stopping" else vol * Fraction(3) ** spec.n
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
        if allcells.size != np.unique(allcells).size:
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


def _rle(cells: np.ndarray) -> str:
    if cells.size == 0:
        return "-"
    breaks = np.nonzero(np.diff(cells) != 1)[0]
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks, [cells.size - 1]])
    return ",".join(f"{cells[a]}:{cells[b] - cells[a] + 1}" for a, b in zip(starts, ends))


def _unrle(text: str) -> np.ndarray:
    if text == "-":
        return np.empty(0, dtype=np.int64)
    out = []
    for part in text.split(","):
        start, length = part.split(":")
        out.append(np.arange(int(start), int(start) + int(length), dtype=np.int64))
    return np.concatenate(out)


def save_sparse_collection(path, coll: SparseCollection) -> None:
    """Plain-text format: header lines, then one line per entry holding
    shift class, rank, parent, scale, position, and survivor runs."""
    buf = io.StringIO()
    buf.write("sparselab-sparse 1\n")
    buf.write(f"{coll.spec.n} {coll.spec.K} {coll.spec.kappa}\n")
    buf.write(f"{coll.flavor} {coll.eta.numerator}/{coll.eta.denominator}\n")
    buf.write(f"{len(coll.entries)}\n")
    for e in coll.entries:
        om = ",".join(str(t) for t in e.cube.omega)
        m = ",".join(str(t) for t in e.cube.m)
        buf.write(f"{om} {e.rank} {e.parent} {e.cube.k} {m} {_rle(e.survivor)}\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def load_sparse_collection(path) -> SparseCollection:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "sparselab-sparse 1":
        raise ValueError("not a sparse collection file")
    n, K, kappa = (int(t) for t in lines[1].split())
    flavor, eta_s = lines[2].split()
    num, den = eta_s.split("/")
    count = int(lines[3])
    spec = GridSpec(n=n, K=K, kappa=kappa)
    coll = SparseCollection(spec, flavor, Fraction(int(num), int(den)))
    for line in lines[4 : 4 + count]:
        om_s, rank_s, parent_s, k_s, m_s, rle = line.split()
        cube = DyadicCube(
            int(k_s),
            tuple(int(t) for t in m_s.split(",")),
            tuple(int(t) for t in om_s.split(",")),
        )
        coll.entries.append(
            SparseEntry(cube, int(rank_s), int(parent_s), _unrle(rle))
        )
    return coll
