"""Windowed maximal averages and the mean-oscillation maximal."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from sparselab.dyadic import Box
from sparselab import maximal
from sparselab.maximal import (
    _NARROW,
    _prefix_sums,
    _sweep,
    centred_level_set,
    ladder_widths,
    maximal_p,
    sharp_maximal,
)
from sparselab.sample import GridFunction, GridSpec, make_corpus

SPEC = GridSpec(1, 2, 4)


def indicator(spec: GridSpec, lo, hi) -> GridFunction:
    return GridFunction.indicator(spec, Box((Fraction(lo),), (Fraction(hi),)))


def cell_index(spec: GridSpec, x: Fraction) -> int:
    return int((x + spec.halfwidth) / spec.h)


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
        c = maximal_p(f, 1.0, centred=True)
        u = maximal_p(f, 1.0, centred=False)
        assert np.max(c - u) < 1e-12

    def test_point_mass_windows(self):
        spec = GridSpec(1, 1, 3)
        vals = np.zeros(spec.shape, dtype=np.complex128)
        i0 = spec.N // 2
        vals[i0] = 1.0
        f = GridFunction(spec, vals)
        u = maximal_p(f, 1.0)
        c = maximal_p(f, 1.0, centred=True)
        assert u[i0 + 1] == pytest.approx(0.5, rel=1e-12)
        assert c[i0 + 1] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_centred_threshold_prunes_exactly_above(self, monkeypatch):
        f = make_corpus(SPEC, seed=11, count=1)[0]
        full = maximal_p(f, 1.0, centred=True)
        t = float(np.quantile(full, 0.6))
        swept = []

        def spy(P, widths, centred):
            swept.append(list(widths))
            return _sweep(P, widths, centred)

        monkeypatch.setattr(maximal, "_sweep", spy)
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
        for tau in (-1.0, 0.0):
            with pytest.raises(ValueError, match="threshold must be positive"):
                centred_level_set(f, 1.0, tau)

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
            full = maximal_p(f, p, centred=True)
            avg = float(np.mean(np.abs(f.values) ** p)) ** (1.0 / p)
            weak = 3.0 ** (n / p)
            levels = [float(q) for q in np.quantile(full, [0.1, 0.5, 0.9, 0.99])]
            levels += [avg, weak * avg, (3.0 ** (n + 1) / 0.5) ** (1.0 / p) * weak * avg]
            for tau in levels:
                assert np.array_equal(centred_level_set(f, p, tau), full > tau), (f.name, tau)

    def test_vanishing_function_gives_empty_mask(self):
        for spec in (SPEC, GridSpec(2, 1, 3)):
            z = GridFunction.zeros(spec)
            for tau in (0.0, 1.0):
                mask = centred_level_set(z, 2.0, tau)
                assert mask.shape == spec.shape and mask.dtype == bool and not mask.any()


def sweep_maximal(f: GridFunction, p: float) -> np.ndarray:
    """The per-width sweep over every window width: the oracle for the 1D
    uncentred hull path."""
    return _sweep(_prefix_sums(np.abs(f.values) ** p), range(1, f.spec.N + 1), False) ** (1.0 / p)


class TestHullPath:
    """The 1D uncentred maximal against the per-width sweep, on grids wide
    enough that windows of more than ``_NARROW`` cells come from hull
    tangents."""

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
            assert length / h > _NARROW
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
        np.testing.assert_allclose(maximal_p(f, p, centred=True), cen, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(sharp_maximal(f), osc_ladder, rtol=1e-12, atol=1e-13)
