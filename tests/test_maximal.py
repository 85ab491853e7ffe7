"""Windowed maximal averages and the mean-oscillation maximal."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sparselab.dyadic import Box, DyadicCube
from sparselab import maximal
from sparselab.maximal import (
    _ladder,
    _prefix_sums,
    _sliding_max,
    _sweep,
    centred_level_set,
    ladder_widths,
    maximal_p,
    sharp_maximal,
)
from sparselab.sample import GridFunction, GridSpec, make_corpus

from oracles import block_sliding_max, centred_sweep, ladder_without_skips

SPEC = GridSpec(1, 2, 4)


def indicator(spec: GridSpec, lo, hi) -> GridFunction:
    return GridFunction.indicator(spec, Box((Fraction(lo),), (Fraction(hi),)))


def cell_index(spec: GridSpec, x: Fraction) -> int:
    return int((x + spec.halfwidth) / spec.h)


def centred_maximal(f: GridFunction, p: float) -> np.ndarray:
    """The centred p-maximal over every odd width, extended by zero off the
    grid: the full sweep that ``centred_level_set`` prunes."""
    P = _prefix_sums(np.abs(f.values) ** p)
    return centred_sweep(P, range(1, 2 * f.spec.N, 2)) ** (1.0 / p)


class TestMaximalP:
    def test_constant(self):
        f = GridFunction(SPEC, np.full(SPEC.shape, 5.0, dtype=np.complex128))
        for p in (1.0, 2.0, 3.5):
            m = maximal_p(f, p)
            assert np.max(np.abs(m - 5.0)) < 1e-12

    def test_unit_indicator_two_cells_right(self):
        # best window for a cell at distance 2 from the support stretches
        # back to the support: mass 1 over length 2 + h
        f = indicator(SPEC, 0, 1)
        h = SPEC.h
        i = cell_index(SPEC, Fraction(2))
        expected = float(1 / (2 + h))
        m1 = maximal_p(f, 1.0)
        assert m1[i] == pytest.approx(expected, rel=1e-12)
        m2 = maximal_p(f, 2.0)
        assert m2[i] == pytest.approx(expected**0.5, rel=1e-12)

    def test_unit_indicator_adjacent_cell(self):
        # one cell to the left of the support: window [-h, 1) wins
        f = indicator(SPEC, 0, 1)
        i = cell_index(SPEC, Fraction(0)) - 1
        expected = float(1 / (1 + SPEC.h))
        assert maximal_p(f, 1.0)[i] == pytest.approx(expected, rel=1e-12)

    def test_dominates_pointwise(self):
        f = make_corpus(SPEC, seed=2, count=3)[2]
        m = maximal_p(f, 1.0)
        assert np.min(m - np.abs(f.values)) > -1e-12

    def test_monotone_in_p(self):
        f = make_corpus(SPEC, seed=2, count=3)[0]
        m1 = maximal_p(f, 1.0)
        m2 = maximal_p(f, 2.0)
        m4 = maximal_p(f, 4.0)
        assert np.min(m2 - m1) > -1e-12
        assert np.min(m4 - m2) > -1e-12

    def test_sublinear(self):
        fs = make_corpus(SPEC, seed=7, count=2)
        f, g = fs[0], fs[1]
        both = f.with_values(f.values + g.values)
        lhs = maximal_p(both, 1.0)
        rhs = maximal_p(f, 1.0) + maximal_p(g, 1.0)
        assert np.max(lhs - rhs) < 1e-12

    def test_centred_below_uncentred(self):
        # a centred window poking off the grid is dominated by its clipped
        # version, which the uncentred sweep visits
        f = make_corpus(SPEC, seed=4, count=1)[0]
        c = centred_maximal(f, 1.0)
        u = maximal_p(f, 1.0)
        assert np.max(c - u) < 1e-12

    def test_point_mass_windows(self):
        spec = GridSpec(1, 1, 3)
        vals = np.zeros(spec.shape, dtype=np.complex128)
        i0 = spec.N // 2
        vals[i0] = 1.0
        f = GridFunction(spec, vals)
        u = maximal_p(f, 1.0)
        c = centred_maximal(f, 1.0)
        assert u[i0 + 1] == pytest.approx(0.5, rel=1e-12)
        assert c[i0 + 1] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_centred_threshold_prunes_exactly_above(self, monkeypatch):
        f = make_corpus(SPEC, seed=11, count=1)[0]
        full = centred_maximal(f, 1.0)
        t = float(np.quantile(full, 0.6))
        swept = []
        widths = maximal._centred_widths

        def spy(*args):
            swept.append(list(widths(*args)))
            return widths(*args)

        monkeypatch.setattr(maximal, "_centred_widths", spy)
        mask = centred_level_set(f, 1.0, t)
        assert np.array_equal(mask, full > t)
        assert mask.any() and not mask.all()
        # the level set skips the widest windows
        (widths,) = swept
        assert widths == list(range(1, widths[-1] + 1, 2))
        assert widths[-1] < 2 * SPEC.N - 1

    def test_parameter_validation(self):
        f = indicator(SPEC, 0, 1)
        with pytest.raises(ValueError, match="finite and positive"):
            maximal_p(f, float("inf"))
        with pytest.raises(ValueError, match="finite and positive"):
            maximal_p(f, 0.0)
        with pytest.raises(ValueError, match="finite and positive"):
            centred_level_set(f, float("inf"), 1.0)
        for tau in (-1.0, 0.0, math.nan, -math.inf):
            with pytest.raises(ValueError, match="threshold must be positive"):
                centred_level_set(f, 1.0, tau)

    def test_level_set_checks_p_before_the_zero_shortcut(self):
        z = GridFunction.zeros(SPEC)
        for p in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                centred_level_set(z, p, 1.0)

    def test_level_set_rejects_nan_and_negative_tau_on_vanishing_data(self):
        z = GridFunction.zeros(SPEC)
        for tau in (-1.0, math.nan):
            with pytest.raises(ValueError, match="threshold must be positive"):
                centred_level_set(z, 2.0, tau)

    def test_sharp_maximal_rejects_nan_and_negative_caps(self):
        f = indicator(SPEC, 0, 1)
        for cap in (math.nan, -1.0, -math.inf):
            with pytest.raises(ValueError, match="radius_cap must be nonnegative"):
                sharp_maximal(f, cap)

    def test_sharp_maximal_infinite_cap_is_no_cap(self):
        # so is any cap whose windows span the domain, however large
        f = make_corpus(SPEC, seed=3, count=1)[0]
        for cap in (math.inf, 1e308, float(SPEC.halfwidth)):
            assert np.array_equal(sharp_maximal(f, cap), sharp_maximal(f)), cap

    def test_2d_exhaustive_guard(self):
        spec = GridSpec(2, 1, 8)
        f = GridFunction.zeros(spec)
        with pytest.raises(ValueError, match="at most 512 cells per axis"):
            maximal_p(f, 1.0)

    def test_2d_constant_and_half_plane(self):
        spec = GridSpec(2, 1, 3)
        ones = GridFunction(spec, np.ones(spec.shape, dtype=np.complex128))
        assert np.max(np.abs(maximal_p(ones, 1.0) - 1.0)) < 1e-12
        half = GridFunction.indicator(
            spec, Box((Fraction(-2), Fraction(-2)), (Fraction(0), Fraction(2)))
        )
        m = maximal_p(half, 1.0)
        i = cell_index(spec, Fraction(-1))
        assert m[i, i] == pytest.approx(1.0, rel=1e-12)


class TestCentredLevelSet:
    """The pruned level set against the full centred maximal, at quantiles
    of that maximal and at Whitney-type levels (a constant times the
    p-average of f)."""

    @pytest.mark.parametrize("spec", [GridSpec(1, 2, 5), GridSpec(2, 1, 3)], ids=["1d", "2d"])
    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 2.0])
    def test_matches_full_maximal(self, spec, p):
        n = spec.n
        for f in make_corpus(spec, seed=17, count=8):
            full = centred_maximal(f, p)
            avg = float(np.mean(np.abs(f.values) ** p)) ** (1.0 / p)
            weak = 3.0 ** (n / p)
            levels = [float(q) for q in np.quantile(full, [0.1, 0.5, 0.9, 0.99])]
            levels += [avg, weak * avg, (3.0 ** (n + 1) / 0.5) ** (1.0 / p) * weak * avg]
            for tau in levels:
                assert np.array_equal(centred_level_set(f, p, tau), full > tau), (f.name, tau)

    @pytest.mark.parametrize("n", [1, 2])
    def test_widths_are_the_admissible_odd_widths(self, n):
        # the bisection against the comprehension over every odd width
        for kappa in range(9):
            spec = GridSpec(n, 1, kappa)
            N, h = spec.N, float(spec.h)
            edges = [(w * h) ** n for w in (1, 3, N - 1, N + 1, 2 * N - 1)]
            caps = [0.0, -1.0, 5e-324, math.inf, math.nan, 1e300, *np.geomspace(1e-6, 1e6, 13)]
            caps += edges + [np.nextafter(e, t) for e in edges for t in (0.0, math.inf)]
            for cap in map(float, caps):
                want = [w for w in range(1, 2 * N, 2) if (w * h) ** n <= cap]
                assert list(maximal._centred_widths(N, h, n, cap)) == want, (kappa, cap)

    @pytest.mark.parametrize("spec", [GridSpec(1, 2, 6), GridSpec(2, 1, 3)], ids=["1d", "2d"])
    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 2.0])
    def test_flat_indicators_match_the_sweep(self, spec, p):
        # plateaus of the maximal, where windows tie, taken as the levels
        n, L = spec.n, spec.halfwidth
        boxes = [(Fraction(-1, 2), Fraction(1, 2)), (-L / 2, Fraction(0)), (Fraction(0), L / 4)]
        for lo, hi in boxes:
            f = GridFunction.indicator(spec, Box((lo,) * n, (hi,) * n))
            full = centred_maximal(f, p)
            avg = float(np.mean(np.abs(f.values) ** p)) ** (1.0 / p)
            plateaus = np.unique(full)
            levels = [float(v) for v in plateaus[:: max(1, len(plateaus) // 24)]]
            levels += [avg, 3.0 ** (n / p) * avg, np.nextafter(1.0, 0.0), 1.0 / 3.0]
            for tau in levels:
                assert np.array_equal(centred_level_set(f, p, tau), full > tau), (lo, hi, tau)

    def test_vanishing_function_gives_empty_mask(self):
        for spec in (SPEC, GridSpec(2, 1, 3)):
            z = GridFunction.zeros(spec)
            for tau in (0.0, 1.0):
                mask = centred_level_set(z, 2.0, tau)
                assert mask.shape == spec.shape and mask.dtype == bool and not mask.any()


def sweep_maximal(f: GridFunction, p: float) -> np.ndarray:
    """The per-width sweep over every window width: the oracle for the 1D
    uncentred hull path."""
    return _sweep(_prefix_sums(np.abs(f.values) ** p), range(1, f.spec.N + 1)) ** (1.0 / p)


class TestHullPath:
    """The 1D uncentred maximal, whose windows of two or more cells come
    from hull tangents, against the per-width sweep."""

    @pytest.mark.parametrize("kappa", [5, 7, 9])  # N = 256, 1024, 4096
    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 2.0])
    def test_matches_sweep(self, kappa, p):
        # Every chosen window is a real window evaluated with the sweep's
        # formula, so a value never exceeds the sweep's.  It can fall short
        # where windows tie within rounding: inside the flat parts of the
        # indicator and the comb, where every window has the same exact
        # average, the sweep keeps the largest rounding of it.  That costs
        # at most 2 ulp; smooth data (bumps, band noise) matches bit for bit.
        spec = GridSpec(1, 2, kappa)
        for f in make_corpus(spec, seed=2, count=4):
            fast, ref = maximal_p(f, p), sweep_maximal(f, p)
            if f.name.startswith(("bump", "bandnoise")):
                assert np.array_equal(fast, ref), f.name
            else:
                assert np.all(fast <= ref), f.name
                assert np.all(ref - fast <= 2 * np.spacing(ref)), f.name

    def test_indicator_far_cells(self):
        # the best window for a cell far from the support runs from the cell
        # to the far end of the support, hundreds of cells wide
        spec = GridSpec(1, 2, 7)
        h = spec.h
        f = indicator(spec, 0, 1)
        m1, m2 = maximal_p(f, 1.0), maximal_p(f, 2.0)
        for x, length in ((Fraction(3), 3 + h), (Fraction(-2), Fraction(3))):
            i = cell_index(spec, x)
            assert m1[i] == pytest.approx(float(1 / length), rel=1e-12)
            assert m2[i] == pytest.approx(float(1 / length) ** 0.5, rel=1e-12)

    def test_zeros_and_constant(self):
        spec = GridSpec(1, 2, 7)
        assert np.array_equal(maximal_p(GridFunction.zeros(spec), 1.0), np.zeros(spec.shape))
        f = GridFunction(spec, np.full(spec.shape, 0.7 - 0.2j))
        for p in (1.0, 2.0):
            fast, ref = maximal_p(f, p), sweep_maximal(f, p)
            assert np.all(fast <= ref) and np.all(ref - fast <= 2 * np.spacing(ref))
            assert np.max(np.abs(fast - abs(0.7 - 0.2j))) < 1e-12

    @pytest.mark.parametrize("edge", [0, -1])
    def test_spike_at_domain_edge(self, edge):
        # one unit spike: the best window runs from the cell to the spike,
        # a unique maximum, so every value is exact
        spec = GridSpec(1, 2, 7)
        vals = np.zeros(spec.shape, dtype=np.complex128)
        vals[edge] = 1.0
        f = GridFunction(spec, vals)
        distance = np.arange(spec.N)[::1 if edge == 0 else -1]
        expected = 1.0 / (distance + 1)
        for p in (1.0, 2.0):
            fast = maximal_p(f, p)
            assert np.array_equal(fast, expected ** (1.0 / p))
            assert np.array_equal(fast, sweep_maximal(f, p))


class TestLadder:
    def test_powers_of_two(self):
        assert ladder_widths(16) == [1, 2, 4, 8, 16]
        assert ladder_widths(1) == [1]

    def test_cap(self):
        assert ladder_widths(16, cap_cells=5) == [1, 2, 4]
        assert ladder_widths(16, cap_cells=100) == [1, 2, 4, 8, 16]


class TestSharpMaximal:
    def test_constant_oscillation_vanishes(self):
        f = GridFunction(SPEC, np.full(SPEC.shape, 2.0 + 1.0j))
        assert np.max(sharp_maximal(f)) == 0.0

    def test_sign_step_saturates(self):
        # a symmetric window across the sign change has mean zero and mean
        # deviation one; the full-grid window puts that value everywhere
        vals = np.where(SPEC.centers() >= 0.0, 1.0, -1.0).astype(np.complex128)
        f = GridFunction(SPEC, vals)
        s = sharp_maximal(f)
        assert np.max(np.abs(s - 1.0)) < 1e-12

    def test_radius_cap_localizes(self):
        vals = np.where(SPEC.centers() >= 0.0, 1.0, -1.0).astype(np.complex128)
        f = GridFunction(SPEC, vals)
        s = sharp_maximal(f, radius_cap=0.5)
        x = SPEC.centers()
        assert np.max(s[np.abs(x) > 1.5]) == 0.0
        assert np.max(s) == pytest.approx(1.0, rel=1e-12)

    def test_cap_below_one_cell(self):
        f = make_corpus(SPEC, seed=3, count=1)[0]
        s = sharp_maximal(f, radius_cap=float(SPEC.h) / 4.0)
        assert np.array_equal(s, np.zeros(SPEC.shape))

    def test_cap_monotone(self):
        f = make_corpus(SPEC, seed=5, count=1)[0]
        s_small = sharp_maximal(f, radius_cap=0.25)
        s_big = sharp_maximal(f, radius_cap=1.0)
        s_all = sharp_maximal(f)
        assert np.max(s_small - s_big) < 1e-12
        assert np.max(s_big - s_all) < 1e-12

    def test_bounded_by_twice_maximal(self):
        f = make_corpus(SPEC, seed=6, count=2)[1]
        s = sharp_maximal(f)
        m = maximal_p(f, 1.0)
        assert np.max(s - 2.0 * m) < 1e-12

    def test_ladder_below_exhaustive(self):
        spec = GridSpec(1, 1, 4)
        f = make_corpus(spec, seed=8, count=1)[0]
        ladder = sharp_maximal(f)
        every = _brute_force(f, 1.0)[2]
        assert np.max(ladder - every) < 1e-12
        assert np.max(every) >= np.max(ladder)

    def test_2d_constant(self):
        spec = GridSpec(2, 1, 3)
        ones = GridFunction(spec, np.ones(spec.shape, dtype=np.complex128))
        assert np.max(sharp_maximal(ones)) == 0.0


def _sharp_input(spec: GridSpec, real: bool) -> GridFunction:
    """A corpus item with a random imaginary part, or its real part."""
    f = make_corpus(spec, seed=4, count=3)[1]
    if real:
        return f.with_values(f.values.real)
    rng = np.random.default_rng(spec.N)
    return f.with_values(f.values + 1j * rng.standard_normal(spec.shape))


def _region_inputs(spec: GridSpec, real: bool) -> list[GridFunction]:
    """``_sharp_input``, an indicator, with a bump and band noise, whose
    window sums round, each with a random imaginary part or real."""
    fs = make_corpus(spec, seed=4, count=4)
    rng = np.random.default_rng(spec.N + 1)
    out = [_sharp_input(spec, real)]
    for f in (fs[0], fs[3]):
        vals = f.values.real
        if not real:
            vals = vals + 1j * rng.standard_normal(spec.shape)
        out.append(f.with_values(vals))
    return out


def _cell_box(spec: GridSpec, lo, hi) -> Box:
    """The box of the cells ``lo[i] .. hi[i] - 1`` on every axis."""
    h, L = spec.h, spec.halfwidth
    return Box(tuple(i * h - L for i in lo), tuple(i * h - L for i in hi))


def _regions(spec: GridSpec) -> list:
    """Random boxes, boxes touching each edge, one-cell boxes, the whole
    domain, a box past the domain and a shifted cube."""
    rng = np.random.default_rng(7 * spec.N + spec.n)
    N, n = spec.N, spec.n

    def span():
        a, b = sorted(rng.choice(N + 1, size=2, replace=False))
        return int(a), int(b)

    out = []
    for _ in range(4):
        lo, hi = zip(*(span() for _ in range(n)))
        out.append(_cell_box(spec, lo, hi))
    for ax in range(n):
        for edge in (0, N):
            lo, hi = map(list, zip(*(span() for _ in range(n))))
            k = int(rng.integers(1, N // 4))
            lo[ax], hi[ax] = (0, k) if edge == 0 else (N - k, N)
            out.append(_cell_box(spec, lo, hi))
    for i in (0, N // 2 + 1, N - 1):
        out.append(_cell_box(spec, (i,) * n, (i + 1,) * n))
    out.append(spec.domain())
    L = spec.halfwidth
    out.append(Box((L / 2,) * n, (2 * L,) * n))
    out.append(DyadicCube(-spec.K + 1, (0,) * n, (1,) * n))
    return out


class TestSharpMaximalRegion:
    """``sharp_maximal(..., region=R)`` against the full grid."""

    @pytest.mark.parametrize("spec", [GridSpec(1, 2, 5), GridSpec(2, 1, 3)], ids=["1d", "2d"])
    # a cap of 0.01 is under half a cell on both grids: no window fits
    @pytest.mark.parametrize("cap", [None, 0.25, 1.0, 0.01])
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_matches_full_grid_on_the_region(self, spec, cap, real):
        for f in _region_inputs(spec, real):
            full = sharp_maximal(f, cap)
            for region in _regions(spec):
                got = sharp_maximal(f, cap, region=region)
                inside = np.zeros(spec.shape, dtype=bool)
                inside[spec.cell_slices(region)] = True
                assert inside.any()
                assert np.all(np.isnan(got[~inside]))
                assert np.array_equal(got[inside], full[inside]), (f.name, region)

    def test_region_outside_the_domain_is_all_nan(self):
        spec = GridSpec(1, 2, 4)
        L = spec.halfwidth
        got = sharp_maximal(_sharp_input(spec, True), 1.0, region=Box((L,), (2 * L,)))
        assert got.shape == spec.shape
        assert np.all(np.isnan(got))


class TestSlidingMax:
    """Window maxima by doubling against the block prefix/suffix scheme."""

    def test_every_width_with_ties_pads_and_stacked_rows(self):
        rng = np.random.default_rng(3)
        for length in (1, 2, 3, 5, 8, 16, 33, 100):
            # few distinct values, so windows tie; -inf as the pads have it
            a = rng.integers(0, 4, size=(3, length)).astype(float)
            a[rng.random(a.shape) < 0.25] = -np.inf
            for w in range(1, length + 1):
                want = block_sliding_max(a, w)
                assert np.array_equal(_sliding_max(a, w, 1), want), (length, w)
                assert np.array_equal(_sliding_max(a.T, w, 0), want.T), (length, w)


def _one_cell(spec: GridSpec, index: tuple) -> GridFunction:
    vals = np.zeros(spec.shape, dtype=np.complex128)
    vals[index] = 1.5
    return GridFunction(spec, vals, f"cell{index}")


def _ladder_inputs(spec: GridSpec) -> list[GridFunction]:
    """The corpus (bumps, indicators, combs, band noise), one-cell supports
    at each edge and corner, and the zero function."""
    N, n = spec.N, spec.n
    fs = make_corpus(spec, seed=6, count=4)
    fs += [_one_cell(spec, c) for c in itertools.product((0, N // 2, N - 1), repeat=n)]
    return fs + [GridFunction.zeros(spec)]


class TestSharpMaximalAgainstOracle:
    """The ladder with its skips against the ladder over every window, bit
    for bit."""

    @pytest.mark.parametrize("spec", [GridSpec(1, 2, 6), GridSpec(2, 1, 3)], ids=["1d", "2d"])
    @pytest.mark.parametrize("cap", [None, 0.25, 1.0])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_every_input(self, spec, cap, real):
        cap_cells = None if cap is None else int(2.0 * cap / float(spec.h))
        widths = ladder_widths(spec.N, cap_cells)
        rng = np.random.default_rng(spec.N)
        for f in _ladder_inputs(spec):
            vals = f.values.real.copy()
            if not real:
                # a phase keeps the support, so zero windows stay zero
                vals = vals * np.exp(1j * rng.uniform(0, 2 * np.pi, spec.shape))
            got = sharp_maximal(f.with_values(vals), cap)
            assert np.array_equal(got, ladder_without_skips(vals, widths)), f.name

    @pytest.mark.parametrize("spec", [GridSpec(1, 2, 6), GridSpec(2, 1, 3)], ids=["1d", "2d"])
    @pytest.mark.parametrize("cap_cells", [None, 8])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_floor(self, spec, cap_cells, real):
        # at floor 0 every value is the oracle's; above any floor every
        # value is the oracle's, bit for bit, and every other value is at or
        # under the floor; floors at oracle values test ties
        widths = ladder_widths(spec.N, cap_cells)
        rng = np.random.default_rng(spec.N + 1)
        for f in _ladder_inputs(spec):
            vals = f.values.real.copy()
            if not real:
                vals = vals * np.exp(1j * rng.uniform(0, 2 * np.pi, spec.shape))
            want = ladder_without_skips(vals, widths)
            P = _prefix_sums(vals)
            assert np.array_equal(_ladder(vals, P, widths), want), f.name
            top = float(want.max())
            for floor in {1e-14, *np.quantile(want, [0.1, 0.5, 0.9]).tolist(), top / 3, top}:
                got = _ladder(vals, P, widths, floor)
                above = want > floor
                assert np.array_equal(got[above], want[above]), (f.name, floor)
                assert np.all(got[~above] <= floor), (f.name, floor)

    @pytest.mark.parametrize("spec", [GridSpec(1, 2, 5), GridSpec(2, 1, 3)], ids=["1d", "2d"])
    @pytest.mark.parametrize("cap", [None, 1.0])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_regions_read_whole_grid_sums(self, spec, cap, real):
        # a region's ladder runs on its crop with the whole grid's prefix
        # sums; sums that start at the crop give other bits on some cell
        # whenever a crop is a strict part of the grid
        cap_cells = None if cap is None else int(2.0 * cap / float(spec.h))
        widths = ladder_widths(spec.N, cap_cells)
        reach = widths[-1]
        moved = False
        for f in _region_inputs(spec, real)[1:]:
            vals = f.values.real if real else f.values
            P = _prefix_sums(vals)
            for region in _regions(spec):
                ranges = spec.cell_ranges(region)
                crop = tuple(slice(max(a - reach, 0), min(b + reach, spec.N)) for a, b in ranges)
                cells = tuple(slice(a - c.start, b - c.start) for (a, b), c in zip(ranges, crop))
                got = sharp_maximal(f, cap, region=region)[spec.cell_slices(region)]
                sums = P[tuple(slice(c.start, c.stop + 1) for c in crop)]
                want = ladder_without_skips(vals[crop], widths, sums)[cells]
                assert np.array_equal(got, want), (f.name, region)
                local = ladder_without_skips(vals[crop], widths)[cells]
                moved |= not np.array_equal(local, want)
        assert moved == (cap is not None)


class TestSharpMaximalBits:
    """Block size and real arithmetic leave every bit in place."""

    @pytest.mark.parametrize("spec", [GridSpec(1, 2, 6), GridSpec(2, 1, 3)], ids=["1d", "2d"])
    @pytest.mark.parametrize("cap", [None, 1.0])
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_block_size(self, spec, cap, real, monkeypatch):
        f = _sharp_input(spec, real)
        ref = sharp_maximal(f, cap)
        for chunk in (1 << 6, 1 << 9, 1 << 12, 1 << 21):
            monkeypatch.setattr(maximal, "_OSC_CHUNK", chunk)
            assert np.array_equal(sharp_maximal(f, cap), ref)

    def test_2d_blocks_split_rows_of_window_starts(self):
        # at 128**2 a row of the 64-cell windows' starts holds 65 * 64**2
        # complex differences, 4.3 MB; blocks of about _OSC_CHUNK elements
        # keep the whole uncapped ladder under 4 MB
        f = _sharp_input(GridSpec(2, 2, 4), False)
        tracemalloc.start()
        try:
            sharp_maximal(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.parametrize("spec", [GridSpec(1, 2, 6), GridSpec(2, 1, 3)], ids=["1d", "2d"])
    @pytest.mark.parametrize("cap", [None, 0.25, 1.0])
    def test_real_input_matches_complex_arithmetic(self, spec, cap):
        for f in make_corpus(spec, seed=9, count=4):
            f = f.with_values(f.values.real)
            assert f.values.dtype == np.complex128
            cap_cells = None if cap is None else int(2.0 * cap / float(spec.h))
            widths = ladder_widths(spec.N, cap_cells)
            want = _ladder(f.values, _prefix_sums(f.values), widths)
            assert np.array_equal(sharp_maximal(f, cap), want)


def _brute_force(f: GridFunction, p: float) -> tuple[np.ndarray, ...]:
    """Uncentred and centred p-maximal and the sharp maximal over every
    cell-aligned window (side w on every axis), one window at a time, and
    the sharp maximal over the windows whose side is a power of two (the
    ladder)."""
    v = f.values
    n, N = f.spec.n, f.spec.N
    u = np.abs(v) ** p
    unc, cen, osc, osc_ladder = (np.zeros(v.shape) for _ in range(4))
    for w in range(1, N + 1):
        for start in itertools.product(range(N - w + 1), repeat=n):
            box = tuple(slice(a, a + w) for a in start)
            unc[box] = np.maximum(unc[box], u[box].mean())
            window = v[box]
            dev = np.abs(window - window.mean()).mean()
            osc[box] = np.maximum(osc[box], dev)
            if w & (w - 1) == 0:
                osc_ladder[box] = np.maximum(osc_ladder[box], dev)
    for w in range(1, 2 * N, 2):
        k = (w - 1) // 2
        for cell in itertools.product(range(N), repeat=n):
            box = tuple(slice(max(i - k, 0), min(i + k + 1, N)) for i in cell)
            cen[cell] = max(cen[cell], u[box].sum() / w**n)
    return unc ** (1.0 / p), cen ** (1.0 / p), osc, osc_ladder


class TestBruteForce:
    @pytest.mark.parametrize(
        "spec", [GridSpec(1, 0, 2), GridSpec(1, 1, 2), GridSpec(2, 0, 1), GridSpec(2, 0, 2)]
    )
    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 2.0])
    def test_every_window(self, spec, p):
        rng = np.random.default_rng(spec.N + spec.n)
        vals = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
        vals[rng.random(spec.shape) < 0.3] = 0.0
        f = GridFunction(spec, vals)
        unc, cen, _, osc_ladder = _brute_force(f, p)
        np.testing.assert_allclose(maximal_p(f, p), unc, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(centred_maximal(f, p), cen, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(sharp_maximal(f), osc_ladder, rtol=1e-12, atol=1e-13)
