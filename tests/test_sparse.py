"""Stopping-time and Whitney sparse families and sparsity checks."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from sparselab import sparse
from sparselab.dyadic import Box, DyadicCube, concentric_dilate, cube_box, enumerate_cubes
from sparselab.pdo import apply
from sparselab.sample import ExponentPair, GridFunction, GridSpec, average_p, make_corpus
from sparselab.sparse import (
    SparseCollection,
    SparseEntry,
    StoppingConfig,
    WhitneyConfig,
    _CubeAverages,
    _Sweep,
    build_stopping_time,
    build_whitney_sparse,
    verify_sparsity,
)
from sparselab.symbol import bessel
from sparselab.verify import pointwise_domination_check, sparse_form

from oracles import (
    box_cell_count,
    dfs_stopping_time,
    dfs_whitney,
    parent,
    per_entry_domination,
    per_entry_sparse_form,
    per_entry_sparsity,
)

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

    def test_roots_cover_g_where_f_vanishes(self):
        # the scale -3 root [0, 8) of the unshifted class meets g's support
        # [1/2, 1) and not f's [-1, -1/2)
        f = GridFunction.indicator(SPEC, box01(-1, Fraction(-1, 2)))
        g = GridFunction.indicator(SPEC, box01(Fraction(1, 2), 1))
        coll = build_stopping_time(f, g, StoppingConfig(pair=ExponentPair(2.0, 2.0)))
        roots = [e.cube for e in coll.entries if e.rank == 0]
        assert DyadicCube(-3, (0,), (0,)) in roots
        assert roots == [c for w in range(3) for c in enumerate_cubes(-3, (w,), box01(-1, 1))]

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
        for roots, pair in itertools.product(((UNIT,), (UNIT, inner), ()), PAIRS):
            config = StoppingConfig(pair=pair, roots=roots)
            for i, j in CORPUS_PAIRS:
                assert_same_family(
                    build_stopping_time(fs[i], fs[j], config),
                    dfs_stopping_time(fs[i], fs[j], config),
                )

    @pytest.mark.parametrize("grid", [(1, 2, 5), (2, 1, 3)])
    def test_mixed_scale_overlapping_roots(self, grid):
        # roots of several shift classes and scales, nested, overlapping,
        # clipped by the domain edge, at cell scale and listed twice: each
        # root's walk starts at its own scale and its tree stays its own
        spec = GridSpec(*grid)
        roots = MIXED_ROOTS[spec.n]
        assert len({q.omega for q in roots}) == 3
        assert len({q.k for q in roots}) >= 4
        fs = make_corpus(spec, seed=6, count=4)
        for (i, j), pair in itertools.product(CORPUS_PAIRS[:4], PAIRS):
            config = StoppingConfig(pair=pair, roots=roots)
            assert_same_family(
                build_stopping_time(fs[i], fs[j], config), dfs_stopping_time(fs[i], fs[j], config)
            )


_DEEP_1D = DyadicCube(4, (3,), (1,))
_DEEP_2D = DyadicCube(2, (1, -2), (2, 1))
MIXED_ROOTS = {
    1: (
        UNIT,
        parent(parent(_DEEP_1D)),
        DyadicCube(-3, (-1,), (1,)),  # side 8, past the domain's left edge
        _DEEP_1D,
        DyadicCube(2, (1,), (2,)),
        parent(_DEEP_1D),
        DyadicCube(5, (-3,), (2,)),  # one cell
        UNIT,
    ),
    2: (
        DyadicCube(0, (0, 0), (0, 0)),
        parent(parent(_DEEP_2D)),
        DyadicCube(-2, (0, 0), (1, 2)),  # side 4, past two domain edges
        _DEEP_2D,
        DyadicCube(1, (0, 0), (0, 0)),
        DyadicCube(-1, (-1, -1), (1, 2)),
        parent(_DEEP_2D),
        DyadicCube(0, (0, 0), (0, 0)),
    ),
}


TIE_GRID = GridSpec(1, 2, 7)
# bump_00 of this corpus puts all its mass in one grandchild of the root:
# in real arithmetic that grandchild's mean is exactly base = 4 times the
# root's, so its average sits on its threshold up to rounding
TIE_ROOT = DyadicCube(-3, (-1,), (1,))
TIE_GRANDCHILD = DyadicCube(-1, (-1,), (1,))


def nudge_array_power(monkeypatch, factor: float) -> None:
    """Make ``np.power`` off by ``factor``: far more than numpy's own
    1 ulp, far less than the root filter's margin."""
    power = np.power
    monkeypatch.setattr(np, "power", lambda x, e: power(x, e) * factor)


class TestRootFilter:
    """The walk roots its averages with ``np.power``; only a value near a
    positive threshold, and the averages a selected cube hands on, take
    average_p's scalar root, and the family stays the depth-first search's."""

    def tie_inputs(self) -> GridFunction:
        f = make_corpus(TIE_GRID, seed=0, count=4)[0]
        assert f.name == "bump_00"
        return f

    def test_structural_tie_lies_inside_the_margin(self):
        f = self.tie_inputs()
        for pair in (ExponentPair(2.0, 2.0), ExponentPair(4.0 / 3.0, 4.0), PAIR_1_INF):
            t = 4.0 ** (1.0 / pair.r) * average_p(f, TIE_ROOT, pair.r)
            a = average_p(f, TIE_GRANDCHILD, pair.r)
            assert 0 < t and abs(a - t) <= t * sparse._ROOT_MARGIN, pair

    @pytest.mark.parametrize("factor", [1 + 2.0**-44, 1 - 2.0**-44])
    def test_tie_family_survives_a_nudged_array_power(self, monkeypatch, factor):
        # without the scalar fallback one of the two nudges moves the tie
        # across its threshold and the family changes
        f = self.tie_inputs()
        nudge_array_power(monkeypatch, factor)
        for pair in PAIRS:
            config = StoppingConfig(pair=pair, roots=(TIE_ROOT,))
            assert_same_family(build_stopping_time(f, f, config), dfs_stopping_time(f, f, config))

    @pytest.mark.parametrize("factor", [1 + 2.0**-44, 1 - 2.0**-44])
    def test_corpus_families_survive_a_nudged_array_power(self, monkeypatch, factor):
        fs = make_corpus(TIE_GRID, seed=0, count=4)
        nudge_array_power(monkeypatch, factor)
        for (i, j), pair in itertools.product(CORPUS_PAIRS, PAIRS):
            config = StoppingConfig(pair=pair)
            assert_same_family(
                build_stopping_time(fs[i], fs[j], config), dfs_stopping_time(fs[i], fs[j], config)
            )

    def test_infinite_margin_changes_nothing(self, monkeypatch):
        # every average near a positive threshold, that is all of them,
        # takes the scalar root
        fs = make_corpus(TIE_GRID, seed=0, count=4)
        configs = [StoppingConfig(pair=pair) for pair in PAIRS]
        configs += [StoppingConfig(pair=pair, roots=(TIE_ROOT,)) for pair in PAIRS]
        want = [
            build_stopping_time(fs[i], fs[j], config)
            for (i, j), config in itertools.product(CORPUS_PAIRS, configs)
        ]
        monkeypatch.setattr(sparse, "_ROOT_MARGIN", math.inf)
        for ((i, j), config), w in zip(itertools.product(CORPUS_PAIRS, configs), want):
            got = build_stopping_time(fs[i], fs[j], config)
            assert_same_family(got, w)
            assert_same_family(got, dfs_stopping_time(fs[i], fs[j], config))

    @pytest.mark.parametrize("p", [4.0 / 3.0, 2.0, 4.0])
    def test_threshold_calls_compare_as_average_p(self, monkeypatch, p):
        # thresholds on, just off and far from every average, and zero;
        # every shift class in one call, f and g at different exponents
        spec = GridSpec(1, 2, 6)
        fs = make_corpus(spec, seed=2, count=4)
        avg = _CubeAverages(spec, [(fs[0], p), (fs[3], 2.0)])
        nudge_array_power(monkeypatch, 1 + 2.0**-44)
        for k in range(-(spec.K + 1), spec.kappa + 1):
            W, M, _ = mixed_class_rows(spec, k)
            mean = avg.means(k, W, M)
            want = avg.roots(mean)
            for t in (want, want * (1 + 2.0**-50), want * (1 - 2.0**-50), 2 * want, 0 * want):
                got = avg.roots(mean, t)
                assert np.array_equal(got > t, want > t), k
                assert np.array_equal(got > 0, want > 0), k

    def test_cube_selected_through_g_hands_on_its_scalar_f_average(self, monkeypatch):
        # with the array power nudged, a threshold that came from np.power
        # would differ from every average_p value; each threshold the walks
        # compare f-averages against must be jump_f times an entry's
        # average_p, also below cubes that g alone selected
        spec = TIE_GRID
        fs = make_corpus(spec, seed=0, count=4)
        f, g = fs[3], fs[1]
        pair = ExponentPair(2.0, 2.0)
        jump = 4.0 ** (1.0 / pair.r)
        seen: list[float] = []
        roots = _CubeAverages.roots

        def spy(self, mean, t=None):
            if t is not None:  # row 0 holds f's thresholds
                seen.extend(t[0].tolist())
            return roots(self, mean, t)

        nudge_array_power(monkeypatch, 1 + 2.0**-44)
        monkeypatch.setattr(_CubeAverages, "roots", spy)
        config = StoppingConfig(pair=pair)
        coll = build_stopping_time(f, g, config)
        assert_same_family(coll, dfs_stopping_time(f, g, config))
        af = [average_p(f, e.cube, pair.r) for e in coll.entries]
        through_g = [
            i
            for i, e in enumerate(coll.entries)
            if e.parent >= 0
            and e.cube.k < spec.kappa
            and 0 < af[i] <= jump * af[e.parent]
        ]
        assert through_g
        assert {jump * af[i] for i in through_g} <= set(seen)
        assert set(seen) <= {jump * a for a in af}


class TestSweepCallCount:
    """One sweep over every shift class: each scale from the coarsest root
    to cell scale costs at most one averages call, for f and g and all
    open walks and roots of that scale together, and one batch of
    selections."""

    @pytest.mark.parametrize(
        "grid, roots",
        [((1, 2, 7), None), ((1, 0, 11), None), ((2, 1, 3), None), ((1, 2, 5), 1), ((2, 1, 3), 2)],
    )
    def test_calls_per_scale_and_class(self, monkeypatch, grid, roots):
        spec = GridSpec(*grid)
        fs = make_corpus(spec, seed=3, count=4)
        calls: list[int] = []
        selections: list[int] = []
        classes: list[int] = []
        means, add = _CubeAverages.means, _Sweep._add_selected

        def count_means(self, k, W, M):
            calls.append(k)
            classes.append(len({tuple(w) for w in W.tolist()}))
            return means(self, k, W, M)

        def count_add(self, k, *args):
            selections.append(k)
            return add(self, k, *args)

        monkeypatch.setattr(_CubeAverages, "means", count_means)
        monkeypatch.setattr(_Sweep, "_add_selected", count_add)
        root_cubes = MIXED_ROOTS[roots] if roots else None
        coarsest = min(q.k for q in root_cubes) if roots else -(spec.K + 1)
        walked = 0
        for (i, j), pair in itertools.product(CORPUS_PAIRS, PAIRS):
            calls.clear()
            selections.clear()
            coll = build_stopping_time(fs[i], fs[j], StoppingConfig(pair=pair, roots=root_cubes))
            tops = [e for e in coll.entries if e.parent < 0]
            walked += len(coll) > len(tops)
            assert len(calls) == len(set(calls)), (i, j, pair)
            assert len(selections) == len(set(selections)), (i, j, pair)
            assert set(calls) <= set(range(coarsest, spec.kappa + 1)), (i, j, pair)
            assert set(selections) <= set(calls), (i, j, pair)
        assert walked
        assert max(classes) == 3**spec.n if roots is None else max(classes) == 3

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
        # full and clipped, of every shift class, with one cube past the
        # domain per call, cell scale included; f and g in one call at
        # different exponents, inf among them, so each function's rows
        # must be gathered on their own (p = 4/3 also catches a vectorised
        # root)
        q = {1.0: math.inf, 4.0 / 3.0: 2.0, 2.0: 4.0 / 3.0, 4.0: 1.0, math.inf: 4.0}[p]
        spec = GridSpec(*grid)
        fs = make_corpus(spec, seed=2, count=4)
        f, g = fs[3], fs[0]
        avg = _CubeAverages(spec, [(f, p), (g, q)])
        for k in range(-(spec.K + 1), spec.kappa + 1):
            W, M, cubes = mixed_class_rows(spec, k)
            got = avg.roots(avg.means(k, W, M)).tolist()
            assert got[0] == [average_p(f, c, p) for c in cubes], k
            assert got[1] == [average_p(g, c, q) for c in cubes], k


def mixed_class_rows(spec: GridSpec, k: int):
    """Shift classes, corners and cubes of every scale-``k`` cube meeting
    the domain, all classes mixed, and one cube of class 1 past the
    domain's upper edge, which holds no cell."""
    cubes = [
        c
        for omega in itertools.product(range(3), repeat=spec.n)
        for c in enumerate_cubes(k, omega, spec.domain())
    ]
    m = (1 << (spec.K + k)) + 1 if spec.K + k >= 0 else 2
    past = DyadicCube(k, (m,) * spec.n, (1,) * spec.n)
    assert spec.box_flat_cells(past).size == 0
    cubes.insert(len(cubes) // 2, past)
    W = np.array([c.omega for c in cubes])
    M = np.array([c.m for c in cubes])
    return W, M, cubes


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

    def test_cores_cover_g_where_f_vanishes(self):
        f = GridFunction.indicator(self.SPEC3, box01(-1, Fraction(-1, 2)))
        g = GridFunction.indicator(self.SPEC3, box01(Fraction(1, 2), 1))
        coll = build_whitney_sparse(f, g, self.flat()[1])
        cores = [cube_box(e.cube) for e in coll.entries if e.rank == 0]
        assert cores == [box01(-4, 0), box01(0, 4)]

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
        # a reach past every float core side: the same error, not an overflow
        spec = GridSpec(1, 3, 5)
        f = GridFunction.indicator(spec, box01(0, Fraction(1, 2)))
        for ell1, ell2 in ((1, 1e308), (2000, 1.0), (3, 0.0)):
            config = WhitneyConfig(pair=ExponentPair(2.0, 2.0), ell1=ell1, ell2=ell2)
            with pytest.raises(ValueError, match="domain too small"):
                build_whitney_sparse(f, f, config)
        # a radius 2**(K-1) alone fits the largest core
        config = WhitneyConfig(pair=ExponentPair(2.0, 2.0), ell1=2, ell2=0.0)
        assert len(build_whitney_sparse(f, f, config))

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

    def test_s_one_is_refused(self):
        # at s = 1 the g level set would need the sup-norm maximal function
        with pytest.raises(ValueError, match="need s > 1"):
            WhitneyConfig(pair=ExponentPair(1.0, 1.0))

    def test_corpus_families_verify(self):
        spec = self.SPEC3
        fs = make_corpus(spec, seed=30, count=4)
        config = WhitneyConfig(pair=ExponentPair(2.0, 2.0), ell1=1, ell2=1.0)
        for f, g in zip(fs[:2], fs[2:]):
            coll = build_whitney_sparse(f, g, config)
            report = verify_sparsity(coll)
            assert report.ok, report.failures


WHITNEY_PAIRS = (*PAIRS[:2], ExponentPair(2.0, math.inf))


class TestWhitneyWalkMatchesStack:
    """The parents-first Whitney walk, listed by the emitter the sweep uses,
    gives the depth-first stack's families entry for entry."""

    @pytest.mark.parametrize("grid", [(1, 3, 6), (2, 3, 3)])
    def test_corpus_families(self, grid):
        spec = GridSpec(*grid)
        fs = make_corpus(spec, seed=2, count=4)
        z = GridFunction.zeros(spec)
        inputs = [(fs[i], fs[j]) for i, j in CORPUS_PAIRS] + [(z, z)]
        ranks = []
        for (f, g), pair in itertools.product(inputs, WHITNEY_PAIRS):
            config = WhitneyConfig(pair=pair, ell1=1, ell2=1.0)
            got = build_whitney_sparse(f, g, config)
            assert_same_family(got, dfs_whitney(f, g, config))
            ranks.append(got.max_rank())
        assert max(ranks) >= 1
        assert min(ranks) == -1  # the vanishing family


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

    def families(self):
        """Stopping and Whitney families of the corpus in 1D and 2D, and
        hand-made ones that fail the volume check, overlap, or both."""
        out = []
        for spec in (GridSpec(1, 2, 7), GridSpec(2, 1, 4)):
            fs = make_corpus(spec, seed=6, count=4)
            for (i, j), pair in zip(CORPUS_PAIRS, itertools.cycle(PAIRS)):
                out.append(build_stopping_time(fs[i], fs[j], StoppingConfig(pair=pair)))
        spec = GridSpec(1, 3, 5)
        fs = make_corpus(spec, seed=30, count=4)
        whitney = WhitneyConfig(pair=ExponentPair(2.0, 2.0), ell1=1, ell2=1.0)
        out += [build_whitney_sparse(f, g, whitney) for f, g in zip(fs[:2], fs[2:])]
        # a root whose children eat most of it, one of them twice
        bad = SparseCollection(SPEC, "stopping", Fraction(1, 2))
        bad.entries.append(SparseEntry(UNIT, 0, -1, np.empty(0, dtype=np.int64)))
        for m in (0, 1, 1):
            cube = DyadicCube(2, (m,), (0,))
            bad.entries.append(SparseEntry(cube, 1, 0, SPEC.box_flat_cells(cube_box(cube))))
        out.append(bad)
        # a Whitney entry with a region three times its cube
        tight = SparseCollection(SPEC, "whitney", Fraction(1, 2))
        tight.entries.append(SparseEntry(UNIT, 0, -1, SPEC.box_flat_cells(cube_box(UNIT))))
        out.append(tight)
        return out

    def test_matches_the_per_entry_check(self):
        families = self.families()
        assert any(not verify_sparsity(c).ok for c in families)
        assert any(len(c) > 100 for c in families)
        for coll in families:
            got, want = verify_sparsity(coll), per_entry_sparsity(coll)
            assert got == want
            assert math.copysign(1.0, got.min_margin) == math.copysign(1.0, want.min_margin)

    def test_tree_groups_children_and_ranks(self):
        for coll in self.families():
            children, ranks = coll.tree()
            assert len(ranks) == coll.max_rank() + 1
            for i in range(len(coll)):
                assert children[i] == [j for j, e in enumerate(coll.entries) if e.parent == i]
            for q, members in enumerate(ranks):
                assert members == [j for j, e in enumerate(coll.entries) if e.rank == q]


class TestFamilyReads:
    """``sparse_form`` and ``pointwise_domination_check`` read every region
    average in one call and add every entry's cells at once; both equal the
    per-entry loops bit for bit."""

    def cases(self, n: int):
        """(family, f, g, pair) for stopping and Whitney families of the
        corpus, stopping families on the mixed-scale overlapping roots, and
        the empty families of vanishing data."""
        out = []
        grids = {1: ((1, 2, 9), (1, 2, 5), (1, 3, 5)), 2: ((2, 1, 4), (2, 1, 3), (2, 3, 3))}
        stop, mixed, whit = (GridSpec(*g) for g in grids[n])
        fs = make_corpus(stop, seed=6, count=4)
        for (i, j), pair in itertools.product(CORPUS_PAIRS[:4], PAIRS):
            config = StoppingConfig(pair=pair)
            out.append((build_stopping_time(fs[i], fs[j], config), fs[i], fs[j], pair))
        fs = make_corpus(mixed, seed=6, count=4)
        for (i, j), pair in zip(CORPUS_PAIRS[:4], PAIRS):
            config = StoppingConfig(pair=pair, roots=MIXED_ROOTS[n])
            out.append((build_stopping_time(fs[i], fs[j], config), fs[i], fs[j], pair))
        fs = make_corpus(whit, seed=30, count=4)
        for (i, j), pair in itertools.product(((0, 2), (1, 3), (3, 3)), PAIRS[:2]):
            config = WhitneyConfig(pair=pair, ell1=1, ell2=1.0)
            out.append((build_whitney_sparse(fs[i], fs[j], config), fs[i], fs[j], pair))
        z = GridFunction.zeros(whit)
        out.append((build_stopping_time(z, z, StoppingConfig(pair=PAIR_1_INF)), z, z, PAIR_1_INF))
        config = WhitneyConfig(pair=ExponentPair(2.0, math.inf))
        out.append((build_whitney_sparse(z, z, config), z, z, config.pair))
        return out

    @pytest.mark.parametrize("n", [1, 2])
    def test_match_the_per_entry_loops(self, n):
        cases = self.cases(n)
        assert {c.flavor for c, *_ in cases} == {"stopping", "whitney"}
        assert any(c.max_rank() >= 3 for c, *_ in cases if c.flavor == "stopping")
        assert any(c.max_rank() >= 1 for c, *_ in cases if c.flavor == "whitney")
        assert sum(not len(c) for c, *_ in cases) == 2
        for coll, f, g, pair in cases:
            assert sparse_form(coll, f, g, pair) == per_entry_sparse_form(coll, f, g, pair)
            Tf = apply(bessel(-0.25, 0.5, 0.5, n=n), f)
            for image in (Tf, f):
                got = pointwise_domination_check(image, f, coll, pair.r)
                assert got == per_entry_domination(image, f, coll, pair.r)
