"""Exact geometry of shifted dyadic cubes.

All corner arithmetic uses :class:`fractions.Fraction`, so containment and
tiling are exact.  A cube is indexed by a scale ``k`` (side ``2**-k``), an
integer corner vector ``m``, and a shift vector ``omega`` with entries in
``{0, 1, 2}``.  Axis ``i`` of the cube spans::

    [2**-k * (m_i + s*omega_i/3), 2**-k * (m_i + 1 + s*omega_i/3))

where ``s = +1`` at odd scales and ``-1`` at even scales.  Alternating the
shift orientation makes consecutive scales of each shifted family nest
exactly (children tile their parent), while the central thirds of the three
shifted families still tile space at every scale.  A scale-independent
orientation would leave same-family cubes at consecutive scales partially
overlapping, so no stopping-time recursion could descend through them.

Whitney decomposition of a grid open set counts a cube's flagged cells
through the grid's integer cube-to-cell map (``GridSpec.cell_slices``): the
cells of a shifted cube form one contiguous block, so each count is one
slice of the mask.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Box",
    "DyadicCube",
    "CubePoset",
    "shift_sign",
    "cube_box",
    "third_dilate",
    "concentric_dilate",
    "children",
    "whitney_decompose",
]

SHIFT_CHOICES = (0, 1, 2)


def shift_sign(k: int) -> int:
    """Orientation of the one-third shift at scale ``k`` (+1 odd, -1 even)."""
    return 1 if k % 2 else -1


@dataclass(frozen=True)
class Box:
    """Half-open axis-parallel box with exact rational corners."""

    lower: tuple[Fraction, ...]
    upper: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.lower) != len(self.upper):
            raise ValueError("corner dimension mismatch")
        for lo, hi in zip(self.lower, self.upper):
            if lo >= hi:
                raise ValueError("empty box: lower corner must be below upper")

    @property
    def n(self) -> int:
        return len(self.lower)

    @property
    def sides(self) -> tuple[Fraction, ...]:
        return tuple(hi - lo for lo, hi in zip(self.lower, self.upper))

    def volume(self) -> Fraction:
        v = Fraction(1)
        for s in self.sides:
            v *= s
        return v

    def contains_point(self, x: Sequence[Fraction]) -> bool:
        return all(lo <= xi < hi for lo, xi, hi in zip(self.lower, x, self.upper))

    def contains_box(self, other: "Box") -> bool:
        return all(
            lo <= olo and ohi <= hi
            for lo, hi, olo, ohi in zip(self.lower, self.upper, other.lower, other.upper)
        )

    def intersects(self, other: "Box") -> bool:
        return all(
            max(lo, olo) < min(hi, ohi)
            for lo, hi, olo, ohi in zip(self.lower, self.upper, other.lower, other.upper)
        )


@dataclass(frozen=True)
class DyadicCube:
    """Shifted dyadic cube of side ``2**-k``."""

    k: int
    m: tuple[int, ...]
    omega: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.m) != len(self.omega):
            raise ValueError("m and omega dimension mismatch")
        if not self.m:
            raise ValueError("dimension must be at least one")
        if any(w not in SHIFT_CHOICES for w in self.omega):
            raise ValueError("shift entries must lie in {0, 1, 2}")

    @property
    def n(self) -> int:
        return len(self.m)

    @property
    def side(self) -> Fraction:
        return Fraction(2) ** (-self.k)

    def volume(self) -> Fraction:
        return self.side**self.n


def cube_box(c: DyadicCube) -> Box:
    """Exact corner box of a shifted dyadic cube."""
    scale = Fraction(2) ** (-c.k)
    s = shift_sign(c.k)
    lower = tuple(scale * (mi + Fraction(s * wi, 3)) for mi, wi in zip(c.m, c.omega))
    upper = tuple(lo + scale for lo in lower)
    return Box(lower, upper)


def _as_box(q: DyadicCube | Box) -> Box:
    return q if isinstance(q, Box) else cube_box(q)


def third_dilate(q: DyadicCube | Box) -> Box:
    """Concentric central third of a cube or box."""
    return concentric_dilate(q, Fraction(1, 3))


def concentric_dilate(q: DyadicCube | Box, factor: Fraction | int) -> Box:
    """Box with the same center and sides scaled by ``factor`` (> 0, exact)."""
    factor = Fraction(factor)
    if factor <= 0:
        raise ValueError("dilation factor must be positive")
    box = _as_box(q)
    lower = []
    upper = []
    for lo, hi in zip(box.lower, box.upper):
        c = (lo + hi) / 2
        half = (hi - lo) * factor / 2
        lower.append(c - half)
        upper.append(c + half)
    return Box(tuple(lower), tuple(upper))


def children(c: DyadicCube) -> list[DyadicCube]:
    """The ``2**n`` scale ``k+1`` cubes of the same shifted family tiling ``c``."""
    s = shift_sign(c.k)
    base = tuple(2 * mi + s * wi for mi, wi in zip(c.m, c.omega))
    kids = []
    for offs in itertools.product((0, 1), repeat=c.n):
        kids.append(DyadicCube(c.k + 1, tuple(b + e for b, e in zip(base, offs)), c.omega))
    return kids


class CubePoset:
    """Finite collection of cubes/boxes ordered by inclusion of central thirds.

    ``q1 <= q2`` holds when the central third of ``q1`` sits inside the
    central third of ``q2``.  The poset also carries a rank function; the
    structural checks confirm that inclusion is graded by it (every covering
    step changes the rank by exactly one) and that rank-zero elements are the
    maximal ones.
    """

    def __init__(self, elements: Sequence[DyadicCube | Box], ranks: Sequence[int]):
        if len(elements) != len(ranks):
            raise ValueError("one rank per element required")
        self.elements = list(elements)
        self.ranks = list(ranks)
        self._thirds = [third_dilate(e) for e in elements]

    def leq(self, i: int, j: int) -> bool:
        """Whether element ``i`` precedes ``j`` (third of i inside third of j)."""
        return self._thirds[j].contains_box(self._thirds[i])

    def covers(self, i: int, j: int) -> bool:
        """Whether ``j`` covers ``i``: i < j with nothing strictly between."""
        if i == j or not self.leq(i, j):
            return False
        for t in range(len(self.elements)):
            if t in (i, j):
                continue
            if self.leq(i, t) and self.leq(t, j) and not self.leq(j, t):
                return False
        return True

    def check_graded(self) -> list[str]:
        """Structural violations of the graded-poset axioms (empty if sound)."""
        bad: list[str] = []
        size = len(self.elements)
        for i in range(size):
            for j in range(size):
                if i == j:
                    continue
                if self.leq(i, j) and self.leq(j, i):
                    bad.append(f"elements {i} and {j} have identical thirds")
                elif self.leq(i, j) and self.ranks[i] <= self.ranks[j]:
                    bad.append(
                        f"rank not compatible: {i} (rank {self.ranks[i]}) "
                        f"below {j} (rank {self.ranks[j]})"
                    )
        for i in range(size):
            for j in range(size):
                if i != j and self.covers(i, j) and self.ranks[i] != self.ranks[j] + 1:
                    bad.append(
                        f"cover {j} -> {i} jumps rank {self.ranks[j]} -> {self.ranks[i]}"
                    )
        for i in range(size):
            if self.ranks[i] == 0:
                continue
            if not any(
                self.leq(i, j) for j in range(size) if j != i and self.ranks[j] == 0
            ):
                bad.append(f"element {i} (rank {self.ranks[i]}) below no rank-0 element")
        return bad


def whitney_decompose(
    open_cells,
    omega: tuple[int, ...],
    grid,
) -> list[DyadicCube]:
    """Maximal dyadic cubes of family ``omega`` contained in a grid open set.

    ``open_cells`` is a boolean cell mask on ``grid`` (the open set is the
    union of the flagged cells, all other space counts as complement).  A
    cube counts as inside the open set when every cell its volume holds is
    flagged, so a shifted cube may poke past the domain edge by less than
    half a cell.  The returned cubes are pairwise disjoint, their union is
    exactly the open set, and each one's parent meets the complement.  Since
    the triple of a cube contains its parent, the concentric ``3``-dilate of
    every returned cube meets the complement, hence so does any larger
    dilate such as ``4 * sqrt(n)``.
    """
    mask = np.asarray(open_cells, dtype=bool)
    if mask.shape != grid.shape:
        raise ValueError("open set mask must match the grid shape")
    if mask.ndim != len(omega):
        raise ValueError("shift dimension must match the grid dimension")

    # A cube's cells are one block of the mask, clipped to the domain, so a
    # cube that loses cells past the domain edge never reaches its full
    # count.  The walk starts at a scale where every cube is wider than the
    # domain.
    out: list[DyadicCube] = []
    stack = list(enumerate_cubes(-(grid.K + 2), omega, grid.domain()))
    while stack:
        c = stack.pop()
        cnt = np.count_nonzero(mask[grid.cell_slices(c)])
        if cnt == 1 << ((grid.kappa - c.k) * grid.n):
            out.append(c)
        elif cnt > 0 and c.k < grid.kappa:
            stack.extend(children(c))
    out.sort(key=lambda c: (c.k, c.m))
    return out


def enumerate_cubes(
    k: int,
    omega: tuple[int, ...],
    window: Box,
) -> Iterable[DyadicCube]:
    """All scale-``k`` cubes of family ``omega`` meeting a window box.

    In sides, cube ``m`` spans ``[m + off, m + 1 + off)`` with ``off = s*omega/3``
    per axis, so it meets ``[L, U)`` exactly when ``floor(L - off) <= m < ceil(U - off)``.
    """
    scale = Fraction(2) ** (-k)
    ranges = []
    for ax in range(window.n):
        off = Fraction(shift_sign(k) * omega[ax], 3)
        lo = window.lower[ax] / scale - off
        hi = window.upper[ax] / scale - off
        ranges.append(range(math.floor(lo), math.ceil(hi)))
    for m in itertools.product(*ranges):
        yield DyadicCube(k, m, omega)
