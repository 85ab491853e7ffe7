"""Stopping-time and Whitney sparse families and sparsity checks."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from sparselab.dyadic import Box, DyadicCube, concentric_dilate, cube_box, enumerate_cubes
from sparselab.sample import ExponentPair, GridFunction, GridSpec, average_p, make_corpus
from sparselab.sparse import (
    SparseCollection,
    SparseEntry,
    StoppingConfig,
    WhitneyConfig,
    _CubeAverages,
    build_stopping_time,
    build_whitney_sparse,
    verify_sparsity,
)

from oracles import box_cell_count, dfs_stopping_time

SPEC = GridSpec(1, 2, 5)
UNIT = DyadicCube(0, (0,), (0,))
PAIR_1_INF = ExponentPair(1.0, float("inf"))
PAIRS = (ExponentPair(2.0, 2.0), ExponentPair(4.0 / 3.0, 4.0), PAIR_1_INF)
# corpus slots 0-3 are bump, indicator, comb and band noise
CORPUS_PAIRS = ((1, 1), (2, 2), (0, 3), (3, 3), (1, 2), (3, 0))


def box01(lo, hi) -> Box:
    return Box((Fraction(lo),), (Fraction(hi),))


def spike_inputs(spec: GridSpec):
    """f jumps to 8 on the leftmost eighth of the unit cube, g is silent."""
    f = GridFunction.indicator(spec, box01(0, Fraction(1, 8)), amplitude=8.0)
    g = GridFunction.zeros(spec)
    return f, g


class TestStoppingTime:
    def test_constant_data_keeps_only_roots(self):
        f = GridFunction.indicator(SPEC, box01(0, 1))
        coll = build_stopping_time(
            f, f, StoppingConfig(pair=ExponentPair(2.0, 2.0), roots=(UNIT,))
        )
        assert len(coll) == 1
        assert coll.entries[0].cube == UNIT
        assert coll.entries[0].rank == 0
        assert coll.entries[0].parent == -1
        assert coll.entries[0].survivor.size == box_cell_count(SPEC, box01(0, 1))

    def test_spike_selects_exact_child(self):
        # averages through the spike: 1 on the root, then 2, 4, 8 along the
        # left branch, so the first strict jump past 4x happens at side 1/8
        f, g = spike_inputs(SPEC)
        coll = build_stopping_time(f, g, StoppingConfig(pair=PAIR_1_INF, roots=(UNIT,)))
        assert len(coll) == 2
        assert coll.entries[0].cube == UNIT
        assert coll.entries[1].cube == DyadicCube(3, (0,), (0,))
        assert coll.entries[1].rank == 1
        assert coll.entries[1].parent == 0

    def test_spike_survivors_partition_root(self):
        f, g = spike_inputs(SPEC)
        coll = build_stopping_time(f, g, StoppingConfig(pair=PAIR_1_INF, roots=(UNIT,)))
        s0, s1 = coll.entries[0].survivor, coll.entries[1].survivor
        assert np.intersect1d(s0, s1).size == 0
        together = np.union1d(s0, s1)
        assert np.array_equal(together, SPEC.box_flat_cells(box01(0, 1)))

    def test_region_is_the_cube(self):
        f, g = spike_inputs(SPEC)
        coll = build_stopping_time(f, g, StoppingConfig(pair=PAIR_1_INF, roots=(UNIT,)))
        assert coll.region(0) == UNIT

    def test_corpus_families_are_half_sparse(self):
        fs = make_corpus(SPEC, seed=21, count=4)
        for f, g in zip(fs[:2], fs[2:]):
            coll = build_stopping_time(f, g, StoppingConfig(pair=ExponentPair(2.0, 2.0)))
            report = verify_sparsity(coll)
            assert report.ok, report.failures
            assert report.min_margin >= 1.0
            assert coll.eta == Fraction(1, 2)

    def test_input_validation(self):
        f, g = spike_inputs(SPEC)
        # the config refuses its own base when it is built
        for base in (1.0, 0.5, -2.0):
            with pytest.raises(ValueError, match="exceed 1"):
                StoppingConfig(pair=PAIR_1_INF, threshold_base=base)
        other = GridFunction.zeros(GridSpec(1, 2, 4))
        with pytest.raises(ValueError, match="share a grid"):
            build_stopping_time(f, other, StoppingConfig(pair=PAIR_1_INF))

    def test_empty_data_gives_empty_family(self):
        z = GridFunction.zeros(SPEC)
        coll = build_stopping_time(z, z, StoppingConfig(pair=PAIR_1_INF))
        assert len(coll) == 0


def assert_same_family(got: SparseCollection, want: SparseCollection) -> None:
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got.entries, want.entries)):
        assert (a.cube, a.rank, a.parent) == (b.cube, b.rank, b.parent), i
        assert np.array_equal(a.survivor, b.survivor), i


class TestLevelWalkMatchesSearch:
    """The level walk over block sums gives the depth-first search's
    families entry for entry, ties at the thresholds included."""

    @pytest.mark.parametrize("seed", range(6))
    def test_corpus_families(self, seed):
        # six pairs times three exponent pairs per seed: 108 families over
        # the six seeds, small supports (exact 4x ties at coarse scales)
        # and smooth band noise alike
        spec = GridSpec(1, 2, 7)
        fs = make_corpus(spec, seed=seed, count=4)
        for (i, j), pair in itertools.product(CORPUS_PAIRS, PAIRS):
            config = StoppingConfig(pair=pair)
            assert_same_family(
                build_stopping_time(fs[i], fs[j], config), dfs_stopping_time(fs[i], fs[j], config)
            )

    @pytest.mark.parametrize("grid", [(2, 0, 3), (2, 1, 3)])
    def test_two_dimensional_families(self, grid):
        spec = GridSpec(*grid)
        fs = make_corpus(spec, seed=0, count=4)
        for (i, j), pair in itertools.product(CORPUS_PAIRS[:4], PAIRS):
            config = StoppingConfig(pair=pair)
            assert_same_family(
                build_stopping_time(fs[i], fs[j], config), dfs_stopping_time(fs[i], fs[j], config)
            )

    def test_other_threshold_base(self):
        spec = GridSpec(1, 1, 8)
        fs = make_corpus(spec, seed=3, count=4)
        for (i, j), pair in itertools.product(CORPUS_PAIRS, PAIRS):
            config = StoppingConfig(pair=pair, threshold_base=2.5)
            assert_same_family(
                build_stopping_time(fs[i], fs[j], config), dfs_stopping_time(fs[i], fs[j], config)
            )

    def test_explicit_roots(self):
        fs = make_corpus(SPEC, seed=4, count=4)
        inner = DyadicCube(2, (1,), (2,))
        for roots, pair in itertools.product(((UNIT,), (UNIT, inner)), PAIRS):
            config = StoppingConfig(pair=pair, roots=roots)
            for i, j in CORPUS_PAIRS:
                assert_same_family(
                    build_stopping_time(fs[i], fs[j], config),
                    dfs_stopping_time(fs[i], fs[j], config),
                )


class TestNumpyIdentities:
    """The level walk equals average_p bit for bit only while numpy sums
    the rows of a contiguous array as it sums each row on its own, and only
    because the root is taken as a scalar."""

    @pytest.mark.parametrize(
        "L", [*range(1, 10), 127, 128, 129, 256, 1000, 4096, 16384]
    )
    def test_row_sums_equal_slice_sums(self, L):
        rows = np.random.default_rng(L).lognormal(0.0, 3.0, size=(3, L))
        want = [np.sum(row.copy()) for row in rows]
        assert rows.sum(axis=1).tolist() == want

    @pytest.mark.parametrize("grid", [(1, 2, 6), (2, 0, 3)])
    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 2.0, 4.0, math.inf])
    def test_block_averages_equal_average_p(self, grid, p):
        # every cube meeting the domain at every scale the walk reaches,
        # full and clipped; p = 4/3 catches a vectorised root
        spec = GridSpec(*grid)
        f = make_corpus(spec, seed=2, count=4)[3]
        avg = _CubeAverages(f, p)
        for k in range(-(spec.K + 1), spec.kappa + 1):
            for omega in itertools.product(range(3), repeat=spec.n):
                cubes = list(enumerate_cubes(k, omega, spec.domain()))
                got = avg(k, omega, np.array([c.m for c in cubes])).tolist()
                assert got == [average_p(f, c, p) for c in cubes], (k, omega)


class TestWhitneySparse:
    SPEC3 = GridSpec(1, 3, 5)

    def flat(self):
        f = GridFunction.indicator(self.SPEC3, box01(0, 1))
        return f, WhitneyConfig(pair=ExponentPair(2.0, 2.0), ell1=1, ell2=1.0)

    def test_flat_data_keeps_single_core(self):
        f, config = self.flat()
        coll = build_whitney_sparse(f, f, config)
        assert len(coll) == 1
        e = coll.entries[0]
        assert e.rank == 0
        # reach 2**1 + 2 = 4 forces cores of side 4; only [0, 4) meets f
        assert cube_box(e.cube) == box01(0, 4)
        assert e.survivor.size == box_cell_count(self.SPEC3, box01(0, 4))

    def test_eta_and_region_are_triple_based(self):
        f, config = self.flat()
        coll = build_whitney_sparse(f, f, config)
        assert coll.flavor == "whitney"
        assert coll.eta == Fraction(1, 6)
        assert coll.region(0) == concentric_dilate(cube_box(coll.entries[0].cube), 3)
        report = verify_sparsity(coll)
        assert report.ok
        assert report.min_margin == pytest.approx(2.0)

    def test_spike_spawns_children_inside_core(self):
        spec = self.SPEC3
        f = GridFunction.indicator(spec, box01(0, Fraction(1, 8)))
        config = WhitneyConfig(pair=ExponentPair(2.0, 2.0), ell1=1, ell2=1.0)
        coll = build_whitney_sparse(f, f, config)
        assert coll.max_rank() >= 1
        for i, e in enumerate(coll.entries):
            if e.parent >= 0:
                parent = coll.entries[e.parent]
                assert e.rank == parent.rank + 1
                assert cube_box(parent.cube).contains_box(cube_box(e.cube))
        assert verify_sparsity(coll).ok

    def test_domain_must_fit_core(self):
        spec = GridSpec(1, 1, 5)
        f = GridFunction.indicator(spec, box01(0, Fraction(1, 2)))
        config = WhitneyConfig(pair=ExponentPair(2.0, 2.0), ell1=1, ell2=1.0)
        with pytest.raises(ValueError, match="domain too small"):
            build_whitney_sparse(f, f, config)

    def test_support_must_be_central(self):
        spec = self.SPEC3
        f = GridFunction.indicator(spec, box01(5, 6))
        config = WhitneyConfig(pair=ExponentPair(2.0, 2.0), ell1=1, ell2=1.0)
        with pytest.raises(ValueError, match="wraparound"):
            build_whitney_sparse(f, f, config)

    def test_eta_validation(self):
        # refused when the config is built, so vanishing data, which gives
        # an empty family, cannot carry an invalid eta into it
        for eta in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
            with pytest.raises(ValueError, match="eta must lie in"):
                WhitneyConfig(pair=ExponentPair(2.0, 2.0), eta=eta)

    def test_corpus_families_verify(self):
        spec = self.SPEC3
        fs = make_corpus(spec, seed=30, count=4)
        config = WhitneyConfig(pair=ExponentPair(2.0, 2.0), ell1=1, ell2=1.0)
        for f, g in zip(fs[:2], fs[2:]):
            coll = build_whitney_sparse(f, g, config)
            report = verify_sparsity(coll)
            assert report.ok, report.failures


class TestVerifySparsity:
    def test_overlap_is_flagged(self):
        cells = SPEC.box_flat_cells(box01(0, 1))
        coll = SparseCollection(SPEC, "stopping", Fraction(1, 2))
        coll.entries.append(SparseEntry(UNIT, 0, -1, cells))
        coll.entries.append(SparseEntry(UNIT, 0, -1, cells))
        report = verify_sparsity(coll)
        assert not report.ok
        assert not report.disjoint
        assert any("overlap" in msg for msg in report.failures)

    def test_exhausted_cube_is_flagged(self):
        coll = SparseCollection(SPEC, "stopping", Fraction(1, 2))
        coll.entries.append(SparseEntry(UNIT, 0, -1, np.empty(0, dtype=np.int64)))
        for m in (0, 1):
            cube = DyadicCube(1, (m,), (0,))
            coll.entries.append(
                SparseEntry(cube, 1, 0, SPEC.box_flat_cells(cube_box(cube)))
            )
        report = verify_sparsity(coll)
        assert not report.ok
        assert report.min_margin == 0.0

    def test_flavor_validation(self):
        with pytest.raises(ValueError, match="flavor"):
            SparseCollection(SPEC, "greedy", Fraction(1, 2))

