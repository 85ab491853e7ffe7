"""Norm estimators, scaling fits, sparse-form checks, and the endpoint audit."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from sparselab.dyadic import Box, DyadicCube
from sparselab.pdo import (
    CutoffFamily,
    PieceIndex,
    default_cutoffs,
    kernel_matrix,
    piece_operator,
    symbol_operator,
)
from sparselab.sample import ExponentPair, GridFunction, GridSpec, make_corpus
from sparselab.sparse import (
    SparseCollection,
    SparseEntry,
    WhitneyConfig,
    build_whitney_sparse,
)
from sparselab.symbol import LocalizedAmplitude, bessel, custom_symbol, multiplication
from sparselab.verify import (
    DecayProbeConfig,
    ProbeReport,
    composed_sharp_apply,
    dense_l2_norm,
    empirical_norm,
    endpoint_audit,
    form_threshold_order,
    kernel_decay_fit,
    kernel_difference_probe,
    norm_scaling_fit,
    pointwise_domination_check,
    predicted_band_slope,
    report_dict,
    schur_bound,
    schur_piece_bound,
    sharp_lambda,
    sharp_ratio_probe,
    sparse_form,
    sparse_form_ratio,
    tau_prefactor_probe,
    third_partition_residual,
)

SPEC = GridSpec(1, 1, 4)
SPEC2D = GridSpec(2, 1, 2)
PAIR22 = ExponentPair(2.0, 2.0)


def box01(lo, hi) -> Box:
    return Box((Fraction(lo),), (Fraction(hi),))


def unit_indicator(spec: GridSpec) -> GridFunction:
    return GridFunction.indicator(spec, box01(0, 1))


class TestThresholds:
    def test_sharp_lambda(self):
        assert sharp_lambda(0.5, 0.5) == 0.0
        assert sharp_lambda(1.0, 0.0) == 0.0
        assert sharp_lambda(0.5, 0.8) == pytest.approx(0.15)

    def test_form_threshold_order(self):
        assert form_threshold_order(1, 0.5, 0.5, PAIR22) == 0.0
        val = form_threshold_order(1, 0.5, 0.5, ExponentPair(4.0 / 3.0, 4.0))
        assert val == pytest.approx(-0.25)
        assert form_threshold_order(1, 0.5, 0.8, PAIR22) == pytest.approx(-0.15)
        half_line = form_threshold_order(1, 0.5, 0.5, ExponentPair(2.0, math.inf))
        assert half_line == pytest.approx(-0.25)


class TestEmpiricalNorm:
    def test_identity_exact_pairs(self):
        op = symbol_operator(bessel(0.0), SPEC)
        h = float(SPEC.h)
        est = empirical_norm(op, ExponentPair(1.0, math.inf), SPEC)
        assert est.kind == "exact"
        assert est.value == pytest.approx(1.0 / h, rel=1e-12)
        # from L^1 and into L^inf the closed forms collapse to h powers
        est12 = empirical_norm(op, ExponentPair(1.0, 2.0), SPEC)
        assert est12.value == pytest.approx(h**-0.5, rel=1e-12)
        est2i = empirical_norm(op, ExponentPair(2.0, math.inf), SPEC)
        assert est2i.value == pytest.approx(h**-0.5, rel=1e-12)
        # in 2D the powers are of the cell volume h**2; a point mass
        # realizes the lower bound of the identity exactly
        op2 = symbol_operator(bessel(0.0, n=2), SPEC2D)
        hn = float(SPEC2D.h) ** 2
        est2 = empirical_norm(op2, ExponentPair(1.0, math.inf), SPEC2D)
        assert est2.value == pytest.approx(1.0 / hn, rel=1e-12)
        low = empirical_norm(op2, ExponentPair(4.0 / 3.0, 4.0), SPEC2D)
        assert low.kind == "lower_bound"
        assert low.value == pytest.approx(hn**-0.5, rel=1e-10)

    def test_power_iteration_matches_svd(self):
        op = symbol_operator(bessel(-1.0), SPEC)
        est = empirical_norm(op, PAIR22, SPEC)
        assert est.kind == "iterated"
        assert est.value == pytest.approx(dense_l2_norm(op, SPEC), rel=1e-6)

    def test_identity_l2_norm_is_one(self):
        for spec in (SPEC, SPEC2D):
            est = empirical_norm(symbol_operator(bessel(0.0, n=spec.n), spec), PAIR22, spec)
            assert est.value == pytest.approx(1.0, rel=1e-8)

    def test_general_pair_lower_bound_is_sharp_for_multipliers(self):
        # a point mass realizes max|phi| times the grid embedding factor
        op = symbol_operator(multiplication("cosine"), SPEC)
        pair = ExponentPair(4.0 / 3.0, 4.0)
        est = empirical_norm(op, pair, SPEC)
        assert est.kind == "lower_bound"
        phi_max = float(np.max(np.abs(np.cos(np.pi * SPEC.centers() / 4.0))))
        expected = phi_max * float(SPEC.h) ** (1.0 / 4.0 - 3.0 / 4.0)
        assert est.value == pytest.approx(expected, rel=1e-10)

    def test_trials_validation(self):
        op = symbol_operator(bessel(0.0), SPEC)
        with pytest.raises(ValueError, match="trials"):
            empirical_norm(op, PAIR22, SPEC, trials=0)

    def test_dense_oracle_size_guard(self):
        with pytest.raises(ValueError, match="1024"):
            dense_l2_norm(np.zeros((2048, 2048)), GridSpec(1, 4, 6))


class TestSchurBounds:
    def test_identity_two_two(self):
        for spec in (SPEC, SPEC2D):
            rep = schur_bound(symbol_operator(bessel(0.0, n=spec.n), spec), PAIR22, spec)
            assert rep.p == 1.0
            assert rep.theta == pytest.approx(0.5)
            assert rep.product_bound == pytest.approx(1.0, rel=1e-12)

    def test_identity_one_inf(self):
        rep = schur_bound(
            symbol_operator(bessel(0.0), SPEC), ExponentPair(1.0, math.inf), SPEC
        )
        assert math.isinf(rep.p)
        assert rep.theta == 0.0
        assert rep.product_bound == pytest.approx(1.0 / float(SPEC.h), rel=1e-12)

    def test_multiplier_two_two(self):
        rep = schur_bound(symbol_operator(multiplication("cosine"), SPEC), PAIR22, SPEC)
        phi_max = float(np.max(np.abs(np.cos(np.pi * SPEC.centers() / 4.0))))
        assert rep.product_bound == pytest.approx(phi_max, rel=1e-12)

    def test_piece_bound_certifies_norm(self):
        spec = GridSpec(1, 2, 5)
        a = bessel(-1.0)
        idx = PieceIndex(3, 1, 0.3)
        bound = schur_piece_bound(a, default_cutoffs(), idx, PAIR22, spec)
        est = empirical_norm(piece_operator(a, default_cutoffs(), idx, spec), PAIR22, spec)
        assert bound >= est.value - 1e-10


class TestPredictedSlopes:
    def test_formulas(self):
        assert predicted_band_slope("l1_linf", bessel(-1.0)) == pytest.approx(0.0)
        assert predicted_band_slope(
            "lr_linf", bessel(-0.5), pair=ExponentPair(2.0, math.inf)
        ) == pytest.approx(0.0)
        assert predicted_band_slope("l2_l2", bessel(-1.0, 0.5, 0.8)) == pytest.approx(-0.85)
        val = predicted_band_slope(
            "lr_ls", bessel(-1.0, 0.5, 0.5), pair=ExponentPair(4.0 / 3.0, 4.0)
        )
        assert val == pytest.approx(-0.5)

    def test_nu_enters_through_the_effective_delta(self):
        a = bessel(-1.0, 0.5, 0.0)
        assert predicted_band_slope("l2_l2", a, nu=0.9) == pytest.approx(-0.8)

    def test_validation(self):
        with pytest.raises(ValueError, match="pair"):
            predicted_band_slope("lr_linf", bessel(-1.0))
        with pytest.raises(ValueError, match="unknown mode"):
            predicted_band_slope("l3_l3", bessel(-1.0))


class TestNormScalingFit:
    SPEC6 = GridSpec(1, 2, 6)

    def test_band_fit_tracks_prediction(self):
        fit = norm_scaling_fit(bessel(-1.0), self.SPEC6, "l1_linf", js=[2, 3, 4, 5, 6])
        assert fit.predicted_slope == pytest.approx(0.0)
        assert fit.excess is not None and fit.excess <= 0.3
        assert len(fit.values) == 5

    def test_l2_fit_uses_power_iteration(self):
        fit = norm_scaling_fit(bessel(-0.5), self.SPEC6, "l2_l2", js=[2, 3, 4, 5])
        assert all(kind == "iterated" for kind in fit.kinds)
        assert fit.slope <= -0.5 + 0.3

    def test_shell_fit_decays_fast(self):
        fit = norm_scaling_fit(
            bessel(-1.0),
            self.SPEC6,
            "l2_l2",
            ells=[0, 1, 2, 3, 4],
            j_fixed=5,
            nu=0.5,
        )
        assert fit.predicted_slope is None
        assert fit.slope < -1.0

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            norm_scaling_fit(bessel(-1.0), self.SPEC6, "l1_linf")
        with pytest.raises(ValueError, match="exactly one"):
            norm_scaling_fit(bessel(-1.0), self.SPEC6, "l1_linf", js=[2], ells=[0])
        with pytest.raises(ValueError, match="j_fixed"):
            norm_scaling_fit(bessel(-1.0), self.SPEC6, "l1_linf", ells=[0, 1])


class TestKernelDecayFit:
    SPEC6 = GridSpec(1, 2, 6)

    def test_shells_decay(self):
        fit = kernel_decay_fit(bessel(-1.0), self.SPEC6, j=5, ells=[0, 1, 2, 3, 4], nu=0.5)
        assert fit.mode == "kernel_decay"
        assert fit.slope < -1.5

    def test_nu_must_stay_below_rho(self):
        with pytest.raises(ValueError, match="below the symbol's rho"):
            kernel_decay_fit(bessel(-1.0, 0.5, 0.5), self.SPEC6, j=5, ells=[0, 1], nu=0.5)

    def test_noise_floor_guard(self):
        with pytest.raises(ValueError, match="noise floor"):
            kernel_decay_fit(
                bessel(-1.0), self.SPEC6, j=5, ells=[0, 1, 2], nu=0.5, floor=1e6
            )

    def test_scalar_point_on_a_2d_grid(self):
        # a scalar x stands for that coordinate on every axis
        fit = kernel_decay_fit(bessel(-1.0, n=2), GridSpec(2, 1, 3), 5, list(range(6)), 0.95)
        assert len(fit.indices) >= 2


class TestDecayProbeConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="tau"):
            DecayProbeConfig(tau=1.5)
        with pytest.raises(ValueError, match="theta"):
            DecayProbeConfig(theta=1.5)
        with pytest.raises(ValueError, match="p"):
            DecayProbeConfig(p=3.0)
        with pytest.raises(ValueError, match="annulus"):
            DecayProbeConfig(c1=0.4)

    def test_resolved_h_midpoint(self):
        # admissible interval (m + n/p, m + n/p + 1) scaled by 1/rho
        cfg = DecayProbeConfig()
        assert cfg.resolved_h(bessel(-0.5), 1) == pytest.approx(0.5)

    def test_resolved_h_range_check(self):
        cfg = DecayProbeConfig(h=5.0)
        with pytest.raises(ValueError, match="admissible"):
            cfg.resolved_h(bessel(-0.5), 1)


class TestKernelDifference:
    SPEC6 = GridSpec(1, 2, 6)

    def test_variation_decays_at_predicted_rate(self):
        a = bessel(-0.5, 0.5, 0.5)
        cfg = DecayProbeConfig()
        fit = kernel_difference_probe(a, self.SPEC6, 0.0, -cfg.tau, cfg)
        assert fit.predicted_slope == pytest.approx(-cfg.resolved_h(a, 1))
        assert fit.slope <= fit.predicted_slope + 0.5

    def test_windowed_variant(self):
        a = bessel(-0.5, 0.5, 0.5)
        cfg = DecayProbeConfig()
        fit = kernel_difference_probe(a, self.SPEC6, 0.0, -cfg.tau, cfg, window_ell1=1)
        assert fit.slope <= fit.predicted_slope + 0.5

    def test_base_point_separation_guard(self):
        cfg = DecayProbeConfig(tau=0.125)
        with pytest.raises(ValueError, match="further apart"):
            kernel_difference_probe(bessel(-0.5), self.SPEC6, 0.0, -0.5, cfg)
        # Euclidean: each axis is within tau, the points are not
        with pytest.raises(ValueError, match="further apart"):
            kernel_difference_probe(
                bessel(-0.5, n=2), GridSpec(2, 1, 3), (0.0, 0.0), (-0.1, -0.1), cfg
            )

    def test_two_dimensional_annuli_match_the_dense_form(self):
        spec = GridSpec(2, 1, 3)
        N, h2, c = spec.N, float(spec.h) ** 2, spec.centers()
        a = custom_symbol(
            # not symmetric under swapping the axes, in x or in xi
            lambda x, xi: np.cos(x[0] - 0.5 * x[1])
            * (1.0 + xi[0] ** 2 + 4.0 * xi[1] ** 2) ** -0.5,
            m=-1.0,
            rho=1.0,
            delta=0.0,
            n=2,
        )
        cfg = DecayProbeConfig(tau=0.125, theta=1.0)
        # base points one cell apart along axis 1
        fit = kernel_difference_probe(a, spec, (c[16], c[16]), (c[16], c[15]), cfg)
        # M[i, j] = h**2 K(x_i, y_j) over flat cell indices
        M = kernel_matrix(a, spec)
        diff = np.abs(M[16 * N + 16] - M[16 * N + 15]).reshape(N, N) / h2
        X, Y = np.meshgrid(c, c, indexing="ij")
        dist = np.hypot(X - c[16], Y - c[15])
        want = []
        for j in fit.indices:
            mask = (dist >= 2.0**j * 0.125) & (dist <= 2.0 ** (j + 1) * 0.125)
            want.append(np.sqrt(np.sum(diff[mask] ** 2) * h2))
        assert fit.indices == [0, 1, 2]
        np.testing.assert_allclose(fit.values, want, rtol=1e-10, atol=0)

    def test_tau_prefactor_smoke(self):
        a = bessel(-0.5, 0.5, 0.5)
        cfg = DecayProbeConfig()
        rep = tau_prefactor_probe(a, self.SPEC6, 0.0, cfg, tau2=cfg.tau / 2.0)
        h_exp = cfg.resolved_h(a, 1)
        want = h_exp * (a.rho - cfg.theta) - a.m - 1.0 / cfg.p
        assert rep.exponent_predicted == pytest.approx(want)
        assert rep.per_index
        assert math.isfinite(rep.exponent_measured)


class TestSparseForms:
    def single_cube_family(self, spec: GridSpec) -> SparseCollection:
        coll = SparseCollection(spec, "stopping", Fraction(1, 2))
        cube = DyadicCube(0, (0,), (0,))
        coll.entries.append(
            SparseEntry(cube, 0, -1, spec.box_flat_cells(box01(0, 1)))
        )
        return coll

    def test_single_cube_form_value(self):
        f = unit_indicator(SPEC)
        coll = self.single_cube_family(SPEC)
        form = sparse_form(coll, f, f, PAIR22)
        assert form.value == pytest.approx(1.0, rel=1e-12)
        assert form.per_cube == [pytest.approx(1.0, rel=1e-12)]

    def test_identity_ratio_is_one(self):
        f = unit_indicator(SPEC)
        coll = self.single_cube_family(SPEC)
        rep = sparse_form_ratio(symbol_operator(bessel(0.0), SPEC), f, f, coll, PAIR22)
        assert rep.ratio == pytest.approx(1.0, rel=1e-10)
        assert not rep.violation

    def test_empty_family_flags_violation(self):
        f = unit_indicator(SPEC)
        coll = SparseCollection(SPEC, "stopping", Fraction(1, 2))
        rep = sparse_form_ratio(symbol_operator(bessel(0.0), SPEC), f, f, coll, PAIR22)
        assert rep.violation
        assert math.isinf(rep.ratio)

    def test_zero_data_zero_ratio(self):
        z = GridFunction.zeros(SPEC)
        coll = SparseCollection(SPEC, "stopping", Fraction(1, 2))
        rep = sparse_form_ratio(symbol_operator(bessel(0.0), SPEC), z, z, coll, PAIR22)
        assert rep.ratio == 0.0
        assert not rep.violation


class TestDomination:
    def test_identity_fully_covered(self):
        f = unit_indicator(SPEC)
        coll = SparseCollection(SPEC, "stopping", Fraction(1, 2))
        cube = DyadicCube(0, (0,), (0,))
        coll.entries.append(SparseEntry(cube, 0, -1, SPEC.box_flat_cells(box01(0, 1))))
        rep = pointwise_domination_check(symbol_operator(bessel(0.0), SPEC), f, coll, 2.0)
        assert rep.uncovered_count == 0
        assert rep.constant == pytest.approx(1.0, rel=1e-10)

    def test_empty_family_leaves_everything_uncovered(self):
        f = unit_indicator(SPEC)
        coll = SparseCollection(SPEC, "stopping", Fraction(1, 2))
        rep = pointwise_domination_check(symbol_operator(bessel(0.0), SPEC), f, coll, 2.0)
        assert rep.covered_fraction == 0.0
        assert rep.uncovered_count == SPEC.box_cell_count(box01(0, 1))
        assert rep.constant == 0.0


class TestSharpRatio:
    SPEC3 = GridSpec(1, 3, 5)

    def test_constant_input_is_inactive(self):
        ones = GridFunction(self.SPEC3, np.ones(self.SPEC3.shape, dtype=np.complex128))
        rep = sharp_ratio_probe(bessel(0.0), ones, ell1=1, ell2=1.0, p=2.0)
        assert rep.active_cells == 0
        assert rep.max_ratio == 0.0
        assert rep.flagged == 0

    def test_corpus_ratios_are_finite_and_covered(self):
        fs = make_corpus(self.SPEC3, seed=12, count=3)
        rep = sharp_ratio_probe(bessel(-0.25, 0.5, 0.5), fs, ell1=1, ell2=1.0, p=2.0)
        assert rep.flagged == 0
        assert math.isfinite(rep.max_ratio)
        assert rep.max_ratio > 0.0
        assert rep.median_ratio <= rep.max_ratio

    def test_precomputed_maxima_match(self):
        from sparselab.maximal import maximal_p

        fs = make_corpus(self.SPEC3, seed=12, count=2)
        pre = [maximal_p(f, 2.0) for f in fs]
        a = bessel(-0.25, 0.5, 0.5)
        direct = sharp_ratio_probe(a, fs, ell1=1, ell2=1.0, p=2.0)
        cached = sharp_ratio_probe(a, fs, ell1=1, ell2=1.0, p=2.0, precomputed_max=pre)
        assert cached.max_ratio == pytest.approx(direct.max_ratio, rel=1e-12)

    def test_composed_reach(self):
        spec = self.SPEC3
        vals = np.zeros(spec.shape, dtype=np.complex128)
        i0 = spec.N // 2
        vals[i0] = 1.0
        S = composed_sharp_apply(LocalizedAmplitude(bessel(-1.0), 1), 1.0, GridFunction(spec, vals))
        c = spec.centers()
        dist = np.abs(c - c[i0])
        dist = np.minimum(dist, 2.0 * float(spec.halfwidth) - dist)
        peak = float(np.max(S))
        assert peak > 0.0
        assert float(np.max(S[dist >= 4.0], initial=0.0)) < 1e-13 * peak


class TestEndpointAudit:
    SPEC3 = GridSpec(1, 3, 5)
    A = bessel(-0.25, 0.5, 0.5)

    def whitney_family(self, f, g):
        return build_whitney_sparse(
            f, g, WhitneyConfig(pair=PAIR22, ell1=1, ell2=1.0)
        )

    def test_single_core_audit_is_exact(self):
        f = unit_indicator(self.SPEC3)
        coll = self.whitney_family(f, f)
        rep = endpoint_audit(f, f, coll, self.A, 1, 1.0, PAIR22)
        assert rep.ok
        assert rep.base_residual < 1e-12
        assert rep.pairing_captured == pytest.approx(1.0, rel=1e-9)
        assert rep.poset_violations == []
        assert rep.sets_disjoint and rep.measure_ok
        assert rep.base_lhs <= rep.c0 * rep.total_form + 1e-9

    def test_multi_rank_audit(self):
        spec = self.SPEC3
        f = GridFunction.indicator(spec, box01(0, Fraction(1, 8)))
        g = unit_indicator(spec)
        coll = self.whitney_family(f, g)
        assert coll.max_rank() >= 1
        rep = endpoint_audit(f, g, coll, self.A, 1, 1.0, PAIR22)
        assert rep.ok
        assert len(rep.rank_lhs) == coll.max_rank() + 1
        assert all(rep.rank_ok)
        assert all(vr <= rep.volume_bound + 1e-12 for vr in rep.volume_ratios)

    def test_flavor_guard(self):
        f = unit_indicator(self.SPEC3)
        coll = SparseCollection(self.SPEC3, "stopping", Fraction(1, 2))
        with pytest.raises(ValueError, match="Whitney"):
            endpoint_audit(f, f, coll, self.A, 1, 1.0, PAIR22)

    def test_reach_guard(self):
        f = unit_indicator(self.SPEC3)
        coll = self.whitney_family(f, f)
        with pytest.raises(ValueError, match="reach"):
            endpoint_audit(f, f, coll, self.A, 2, 1.0, PAIR22)


class TestPartitionIdentity:
    def test_third_tiling_reassembles(self):
        f = make_corpus(SPEC, seed=1, count=1)[0]
        assert third_partition_residual(f, 0) == 0.0
        assert third_partition_residual(f, 1) == 0.0


class TestReportSerialization:
    def test_schur_report_serializes(self):
        rep = schur_bound(symbol_operator(bessel(0.0), SPEC), PAIR22, SPEC)
        text = json.dumps(report_dict(rep), sort_keys=True)
        assert "product_bound" in text

    def test_audit_report_serializes(self):
        spec = GridSpec(1, 3, 5)
        f = unit_indicator(spec)
        coll = build_whitney_sparse(f, f, WhitneyConfig(pair=PAIR22, ell1=1, ell2=1.0))
        rep = endpoint_audit(f, f, coll, bessel(-0.25, 0.5, 0.5), 1, 1.0, PAIR22)
        data = report_dict(rep)
        text = json.dumps(data, sort_keys=True)
        assert isinstance(data["rank_ok"][0], bool)
        assert "final_constant" in text

    def test_fractions_become_floats(self):
        from sparselab.sparse import verify_sparsity

        coll = SparseCollection(SPEC, "stopping", Fraction(1, 2))
        coll.entries.append(
            SparseEntry(
                DyadicCube(0, (0,), (0,)), 0, -1, SPEC.box_flat_cells(box01(0, 1))
            )
        )
        data = report_dict(verify_sparsity(coll))
        assert data["eta"] == 0.5
        json.dumps(data)

    def test_values_become_strict_json(self):
        rep = ProbeReport(
            "probe",
            {"n": np.int64(3), "tau": Fraction(1, 8), "point": (1, np.float32(0.5))},
            {
                "grid": np.array([[1.0, np.inf], [-np.inf, np.nan]]),
                "nested": {"v": [np.float64(2.5), {"w": Fraction(1, 3)}]},
            },
            {"slope": -math.inf, "inf": np.float64(np.inf)},
            True,
        )
        data = report_dict(rep)
        assert data == {
            "name": "probe",
            "inputs": {"n": 3, "tau": 0.125, "point": [1, 0.5]},
            "constants": {
                "grid": [[1.0, "inf"], ["-inf", "nan"]],
                "nested": {"v": [2.5, {"w": 1.0 / 3.0}]},
            },
            "slopes": {"slope": "-inf", "inf": "inf"},
            "passed": True,
        }
        assert type(data["inputs"]["n"]) is int
        assert type(data["inputs"]["point"][1]) is float
        assert type(data["constants"]["nested"]["v"][0]) is float
        json.dumps(data, allow_nan=False)
