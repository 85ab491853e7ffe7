"""Exact-geometry tests: cube corners, thirds, children, Whitney, poset."""

from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselab.dyadic import (
    Box,
    CubePoset,
    DyadicCube,
    children,
    concentric_dilate,
    cube_box,
    enumerate_cubes,
    third_dilate,
    whitney_decompose,
)
from sparselab.sample import GridSpec

from oracles import cube_containing_point, parent


def box1(lo, hi) -> Box:
    return Box((Fr(lo),), (Fr(hi),))


class TestCubeBox:
    def test_unit_cube(self):
        assert cube_box(DyadicCube(0, (0,), (0,))) == box1(0, 1)

    def test_shifted_half_scale(self):
        assert cube_box(DyadicCube(1, (2,), (1,))) == box1(Fr(7, 6), Fr(5, 3))

    def test_coarse_negative_index(self):
        assert cube_box(DyadicCube(-1, (-1,), (2,))) == box1(Fr(-2, 3), Fr(4, 3))

    def test_corner_denominators(self):
        for k in range(-2, 4):
            for m in (-3, 0, 5):
                for w in (0, 1, 2):
                    b = cube_box(DyadicCube(k, (m,), (w,)))
                    for c in b.lower + b.upper:
                        assert (3 * 2**max(k, 0) * c).denominator == 1

    def test_bad_shift_rejected(self):
        with pytest.raises(ValueError):
            DyadicCube(0, (0,), (3,))


class TestDilations:
    def test_third_of_unit(self):
        assert third_dilate(box1(0, 1)) == box1(Fr(1, 3), Fr(2, 3))

    def test_third_of_triple(self):
        assert third_dilate(box1(0, 3)) == box1(1, 2)

    def test_scale_zero_thirds_tile_unit_interval(self):
        # over all shifts, the central thirds restricted to [0,1) are the
        # three exact thirds of the interval
        window = box1(0, 1)
        got = set()
        for w in (0, 1, 2):
            for c in enumerate_cubes(0, (w,), window):
                t = third_dilate(c)
                if t.intersects(window):
                    got.add((max(t.lower[0], Fr(0)), min(t.upper[0], Fr(1))))
        assert got == {(Fr(0), Fr(1, 3)), (Fr(1, 3), Fr(2, 3)), (Fr(2, 3), Fr(1))}

    def test_concentric_triple(self):
        assert concentric_dilate(box1(0, 1), 3) == box1(-1, 2)

    def test_factor_one_is_identity(self):
        assert concentric_dilate(box1(0, 1), 1) == box1(0, 1)

    def test_concentric_half(self):
        assert concentric_dilate(box1(2, 4), Fr(1, 2)) == box1(Fr(5, 2), Fr(7, 2))

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(ValueError):
            concentric_dilate(box1(0, 1), 0)


class TestChildrenParent:
    def test_unit_interval_bisection(self):
        kids = children(DyadicCube(0, (0,), (0,)))
        assert sorted(cube_box(c).lower[0] for c in kids) == [Fr(0), Fr(1, 2)]
        assert all(c.k == 1 for c in kids)

    def test_square_quadrants(self):
        c = DyadicCube(0, (0, 0), (0, 0))
        kids = children(c)
        assert len(kids) == 4
        union = sum(cube_box(k).volume() for k in kids)
        assert union == cube_box(c).volume()
        for kid in kids:
            assert cube_box(c).contains_box(cube_box(kid))

    @given(
        k=st.integers(-3, 4),
        m=st.tuples(st.integers(-8, 8)),
        w=st.tuples(st.integers(0, 2)),
    )
    def test_parent_round_trip(self, k, m, w):
        c = DyadicCube(k, m, w)
        for kid in children(c):
            assert parent(kid) == c

    @given(
        k=st.integers(-3, 4),
        m=st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
        w=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    )
    @settings(max_examples=40)
    def test_children_tile_parent_2d(self, k, m, w):
        c = DyadicCube(k, m, w)
        kids = children(c)
        assert sum(cube_box(q).volume() for q in kids) == cube_box(c).volume()
        for a in range(len(kids)):
            assert cube_box(c).contains_box(cube_box(kids[a]))
            for b in range(a + 1, len(kids)):
                assert not cube_box(kids[a]).intersects(cube_box(kids[b]))


class TestNesting:
    @given(
        k1=st.integers(-2, 3),
        k2=st.integers(-2, 3),
        m1=st.integers(-6, 6),
        m2=st.integers(-6, 6),
        w=st.integers(0, 2),
    )
    @settings(max_examples=300)
    def test_trichotomy_same_shift(self, k1, k2, m1, m2, w):
        a = cube_box(DyadicCube(k1, (m1,), (w,)))
        b = cube_box(DyadicCube(k2, (m2,), (w,)))
        disjoint = not a.intersects(b)
        nested = a.contains_box(b) or b.contains_box(a)
        assert disjoint or nested


class TestThirdTiling:
    @pytest.mark.parametrize("k", [-1, 0, 2])
    def test_every_point_in_exactly_one_third(self, k):
        # sample points off all third boundaries (denominator 48 > 3*2^k)
        pts = [Fr(i, 48) + Fr(1, 96) for i in range(-96, 96)]
        window = box1(-3, 3)
        thirds = []
        for w in (0, 1, 2):
            thirds.extend(third_dilate(c) for c in enumerate_cubes(k, (w,), window))
        for x in pts:
            hits = sum(1 for t in thirds if t.contains_point((x,)))
            assert hits == 1, f"point {x} covered {hits} times at scale {k}"


class TestWhitney:
    def grid(self):
        return GridSpec(1, 1, 4)

    def test_empty_set(self):
        spec = self.grid()
        assert whitney_decompose(np.zeros(spec.N, dtype=bool), (0,), spec) == []

    def test_unit_interval_single_maximal_cube(self):
        # the discretized open set (0,1) is exactly the cells of [0,1), and
        # the maximal dyadic cube inside it is [0,1) itself; its parent
        # meets the complement
        spec = self.grid()
        cen = spec.centers()
        mask = (cen > 0.0) & (cen < 1.0)
        cubes = whitney_decompose(mask, (0,), spec)
        boxes = {(b.lower[0], b.upper[0]) for b in map(cube_box, cubes)}
        assert boxes == {(Fr(0), Fr(1))}

    def test_maximality_parent_leaves_open_set(self):
        spec = self.grid()
        cen = spec.centers()
        mask = (cen > 0.0) & (cen < 1.0) | (cen > 1.25) & (cen < 1.5)
        for c in whitney_decompose(mask, (0,), spec):
            pbox = cube_box(parent(c))
            lo, hi = float(pbox.lower[0]), float(pbox.upper[0])
            inside = (cen > lo) & (cen < hi)
            assert (~mask[inside]).any() or lo < -2.0 or hi > 2.0

    def test_cover_disjoint_and_dilate_property(self):
        spec = self.grid()
        rng = np.random.default_rng(7)
        for trial in range(10):
            mask = rng.random(spec.N) < 0.4
            cubes = whitney_decompose(mask, (0,), spec)
            covered = np.zeros(spec.N, dtype=bool)
            for c in cubes:
                cells = spec.box_flat_cells(cube_box(c))
                assert not covered[cells].any(), "cubes overlap"
                covered[cells] = True
            assert (covered == mask).all(), "union differs from the open set"
            # the 4*sqrt(n) dilate (factor 4 suffices in 1D) meets the complement
            for c in cubes:
                big = concentric_dilate(c, 4)
                lo, hi = big.lower[0], big.upper[0]
                cen = spec.centers()
                inside = (cen > float(lo)) & (cen < float(hi))
                assert (~mask[inside]).any() or float(lo) < -2.0 or float(hi) > 2.0

    def test_2d_cover_and_disjoint(self):
        spec = GridSpec(2, 1, 3)
        rng = np.random.default_rng(11)
        mask = rng.random(spec.shape) < 0.35
        cubes = whitney_decompose(mask, (1, 2), spec)
        covered = np.zeros(spec.N * spec.N, dtype=bool)
        for c in cubes:
            cells = spec.box_flat_cells(cube_box(c))
            assert not covered[cells].any()
            covered[cells] = True
        assert (covered.reshape(spec.shape) == mask).all()


@st.composite
def grid_mask_omega(draw):
    """A small 1D or 2D grid, a shift class, and a random or blocky cell
    mask with a flagged run along one domain edge."""
    n = draw(st.sampled_from((1, 2)))
    K = draw(st.integers(-1, 2))
    kappa = draw(st.integers(max(0, -K), 5 if n == 1 else 3))
    spec = GridSpec(n, K, kappa)
    omega = tuple(draw(st.sampled_from((0, 1, 2))) for _ in range(n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        mask = rng.random(spec.shape) < draw(st.sampled_from((0.3, 0.6, 0.9)))
    else:
        mask = np.zeros(spec.shape, dtype=bool)
        for _ in range(3):
            lo = rng.integers(0, spec.N, n)
            hi = lo + rng.integers(1, spec.N + 1, n)
            mask[tuple(slice(a, b) for a, b in zip(lo, hi))] = True
    axis = draw(st.integers(0, n - 1))
    edge = draw(st.sampled_from((0, -1)))
    run = draw(st.integers(1, spec.N))
    index = [slice(None)] * n
    index[axis] = slice(0, run) if edge == 0 else slice(spec.N - run, spec.N)
    mask[tuple(index)] = True
    return spec, omega, mask


class TestWhitneyMaximality:
    """Whitney cubes against the exact Fraction geometry, in 1D and 2D."""

    @given(grid_mask_omega())
    @settings(max_examples=150, deadline=None)
    def test_cubes_are_maximal_and_tile_the_mask(self, case):
        spec, omega, mask = case
        flat = mask.ravel()
        L, half_cell = spec.halfwidth, spec.h / 2
        # a cube holds all of its cells exactly when it pokes past the domain
        # by less than half a cell, which only a shifted cube can do
        grown = Box((-L - half_cell,) * spec.n, (L + half_cell,) * spec.n)

        def full_and_flagged(c):
            cells = spec.box_flat_cells(cube_box(c))
            return cells.size == 2 ** ((spec.kappa - c.k) * spec.n) and flat[cells].all()

        covered = np.zeros(flat.size, dtype=bool)
        for c in whitney_decompose(mask, omega, spec):
            assert c.omega == omega
            assert full_and_flagged(c)
            assert grown.contains_box(cube_box(c))
            assert not full_and_flagged(parent(c))
            cells = spec.box_flat_cells(cube_box(c))
            assert not covered[cells].any(), "cubes overlap"
            covered[cells] = True
        assert np.array_equal(covered, flat), "union differs from the mask"


class TestPoset:
    def test_triples_graded(self):
        # family stored as triples: root [0,1) and whitney-style children;
        # the central third of a child triple is the child cube itself
        root = concentric_dilate(box1(0, 1), 3)
        kid1 = concentric_dilate(box1(0, Fr(1, 2)), 3)
        kid2 = concentric_dilate(box1(Fr(7, 8), 1), 3)
        poset = CubePoset([root, kid1, kid2], [0, 1, 1])
        assert poset.leq(1, 0) and poset.leq(2, 0)
        assert not poset.leq(0, 1)
        assert poset.check_graded() == []

    def test_incompatible_rank_flagged(self):
        root = concentric_dilate(box1(0, 1), 3)
        kid = concentric_dilate(box1(0, Fr(1, 2)), 3)
        assert CubePoset([root, kid], [0, 0]) .check_graded() != []
        assert CubePoset([root, kid], [1, 0]) .check_graded() != []

    def test_orphan_flagged(self):
        a = concentric_dilate(box1(0, 1), 3)
        b = concentric_dilate(box1(5, 6), 3)
        bad = CubePoset([a, b], [0, 1]).check_graded()
        assert any("below no rank-0" in msg for msg in bad)

    def test_rank_skip_flagged(self):
        root = concentric_dilate(box1(0, 1), 3)
        kid = concentric_dilate(box1(0, Fr(1, 2)), 3)
        bad = CubePoset([root, kid], [0, 2]).check_graded()
        assert any("jumps rank" in msg for msg in bad)


class TestPointLocation:
    @given(
        num=st.integers(-200, 200),
        k=st.integers(-2, 4),
        w=st.integers(0, 2),
    )
    @settings(max_examples=200)
    def test_located_cube_contains_point(self, num, k, w):
        x = (Fr(num, 97),)
        c = cube_containing_point(x, k, (w,))
        assert c.k == k and c.omega == (w,)
        assert cube_box(c).contains_point(x)

