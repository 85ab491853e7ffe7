"""Norm estimators, scaling fits, sparse-form checks, and the endpoint audit."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sparselab import maximal, verify
from sparselab.dyadic import Box, DyadicCube
from sparselab.maximal import sharp_maximal
from sparselab.pdo import (
    OperatorHandle,
    PieceIndex,
    band_operator,
    default_cutoffs,
    localized_operator,
    piece_operator,
    symbol_operator,
)
from sparselab.sample import ExponentPair, GridFunction, GridSpec, average_p, make_corpus
from sparselab.sparse import (
    SparseCollection,
    SparseEntry,
    WhitneyConfig,
    build_whitney_sparse,
)
from sparselab.symbol import (
    SymbolClass,
    bessel,
    custom_symbol,
    multiplication,
    oscillatory_ct,
    rough_bump,
)
from sparselab.verify import (
    DecayProbeConfig,
    ProbeReport,
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
    sharp_ratio_probe,
    sparse_form,
    sparse_form_ratio,
)

from oracles import (
    DenseMatrix,
    box_cell_count,
    dense_l2_norm,
    dense_top_ritz,
    exact_count_above,
    full_grid_sharp_ratio,
    third_partition_residual,
)

SRC = Path(__file__).resolve().parents[1] / "src"
SPEC = GridSpec(1, 1, 4)
SPEC2D = GridSpec(2, 1, 2)
PAIR22 = ExponentPair(2.0, 2.0)


def box01(lo, hi) -> Box:
    return Box((Fraction(lo),), (Fraction(hi),))


def unit_indicator(spec: GridSpec) -> GridFunction:
    return GridFunction.indicator(spec, box01(0, 1))


class TestThresholds:
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

    def test_exact_forms_read_rows_and_columns(self):
        # cos(x) <D>^-1 has no symmetric kernel, so its rows and columns differ
        a = custom_symbol(
            lambda x, xi: np.cos(x[0]) * (1.0 + xi[0] ** 2) ** -0.5, m=-1.0, rho=1.0, delta=0.0
        )
        op = symbol_operator(a, SPEC)
        h = float(SPEC.h)
        A = np.abs(op.matrix()) / h
        N = A.shape[0]
        row_max = max(math.sqrt(sum(A[i, j] ** 2 for j in range(N)) * h) for i in range(N))
        col_max = max(math.sqrt(sum(A[i, j] ** 2 for i in range(N)) * h) for j in range(N))
        into_inf = empirical_norm(op, ExponentPair(2.0, math.inf), SPEC)
        from_one = empirical_norm(op, ExponentPair(1.0, 2.0), SPEC)
        assert (into_inf.kind, from_one.kind) == ("exact", "exact")
        assert into_inf.value == pytest.approx(row_max, rel=1e-12)
        assert from_one.value == pytest.approx(col_max, rel=1e-12)
        assert abs(row_max - col_max) > 1e-3 * max(row_max, col_max)

    def test_lanczos_matches_svd(self):
        op = symbol_operator(bessel(-1.0), SPEC)
        est = empirical_norm(op, PAIR22, SPEC)
        assert est.kind == "iterated"
        assert est.value == pytest.approx(dense_l2_norm(op, SPEC), rel=1e-6)

    @pytest.mark.parametrize("j", [5, 6, 7, 8])
    def test_multiplier_band_pieces_match_svd(self, j):
        # pure multipliers have near-degenerate tops, where a power method stalls
        spec = GridSpec(1, 2, 6)
        op = band_operator(bessel(-1.0, 0.5), default_cutoffs(), j, spec)
        est = empirical_norm(op, PAIR22, spec)
        assert est.kind == "iterated"
        assert est.residual <= verify._TOL
        assert est.value == pytest.approx(dense_l2_norm(op, spec), rel=1e-9)

    def test_cap_reads_capped(self, monkeypatch):
        monkeypatch.setattr(verify, "_MAX_ITER", 2)
        est = empirical_norm(symbol_operator(bessel(-1.0), SPEC), PAIR22, SPEC)
        assert est.kind == "capped"
        assert est.iterations == 2
        assert est.residual > verify._TOL

    def test_identity_l2_norm_is_one(self):
        for spec in (SPEC, SPEC2D):
            est = empirical_norm(symbol_operator(bessel(0.0, n=spec.n), spec), PAIR22, spec)
            assert est.value == pytest.approx(1.0, rel=1e-8)

    def test_identity_converges_in_one_step(self):
        est = empirical_norm(symbol_operator(bessel(0.0), SPEC), PAIR22, SPEC)
        assert (est.kind, est.iterations, est.value) == ("iterated", 1, 1.0)

    def test_general_pair_lower_bound_is_sharp_for_multipliers(self):
        # a point mass realizes max|phi| times the grid embedding factor
        op = symbol_operator(multiplication("cosine"), SPEC)
        pair = ExponentPair(4.0 / 3.0, 4.0)
        est = empirical_norm(op, pair, SPEC)
        assert est.kind == "lower_bound"
        phi_max = float(np.max(np.abs(np.cos(np.pi * SPEC.centers() / 4.0))))
        expected = phi_max * float(SPEC.h) ** (1.0 / 4.0 - 3.0 / 4.0)
        assert est.value == pytest.approx(expected, rel=1e-10)

    def test_dense_oracle_size_guard(self):
        with pytest.raises(ValueError, match="1024"):
            dense_l2_norm(np.zeros((2048, 2048)), GridSpec(1, 4, 6))


def _tridiagonal(kind: str, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A k x k symmetric tridiagonal (diagonal, off-diagonal) whose top
    eigenvalue is its largest in modulus, as for a Lanczos tridiagonal of
    a Gram map.  Off-diagonals carry random signs where they are random."""
    rng = np.random.default_rng(seed)
    if kind in ("random", "zeros"):
        # diagonally dominant, so positive semidefinite; "zeros" has about a
        # quarter of its off-diagonal exactly 0
        beta = rng.standard_normal(k - 1)
        if kind == "zeros":
            beta[rng.uniform(size=k - 1) < 0.25] = 0.0
        ab = np.abs(np.concatenate(([0.0], beta, [0.0])))
        return ab[:-1] + ab[1:] + rng.uniform(0.0, 1.0, k), beta
    if kind == "diagonal":
        return rng.uniform(0.0, 1.0, k), np.zeros(k - 1)
    if kind in ("graded", "graded_up"):
        # entries from 1 down to 1e-12 along the diagonal (or up to 1)
        alpha = 10.0 ** (-12.0 * np.arange(k) / max(k - 1, 1)) * rng.uniform(1.0, 1.5, k)
        beta = 0.4 * np.sqrt(alpha[:-1] * alpha[1:]) * rng.choice([-1.0, 1.0], k - 1)
        return (alpha, beta) if kind == "graded" else (alpha[::-1].copy(), beta[::-1].copy())
    # "cluster_<gap>" ("_top"): the first and last diagonal entries are
    # 1 - gap and 1 (1 and 1 - gap), and a mirror-symmetric chain, diagonal
    # in [0.3, 0.5] and off-diagonal in [0.05, 0.1], couples the ends.  From
    # k = 50 the top two eigenvalues lie gap apart, with eigenvectors at
    # opposite ends.  Shorter chains couple the ends more strongly than
    # gap: the two eigenvectors then share their last entries, which no
    # double-precision method (eigh included) resolves better than about
    # 1e-16 / (their gap)
    gap = float(kind.split("_")[1])
    alpha, beta = rng.uniform(0.3, 0.5, k), rng.uniform(0.05, 0.1, k - 1)
    alpha, beta = (alpha + alpha[::-1]) / 2, (beta + beta[::-1]) / 2
    alpha[0], alpha[-1] = 1.0 - gap, 1.0
    if kind.endswith("_top"):
        return alpha[::-1].copy(), beta[::-1].copy()
    return alpha, beta


def _assert_top_ritz(alpha: np.ndarray, beta: np.ndarray) -> None:
    """``_top_ritz`` against the exact top eigenvalue and the dense oracle.

    theta lies within one ulp of the exact top eigenvalue: no eigenvalue
    lies above the float after it, and one lies above the float before it
    (exact Sturm counts).  The dense ``eigh`` misses that eigenvalue by up
    to 9 ulp on the random diagonally dominant family, so theta is held to
    1e-14 relative of it; ``|u_k|`` to 1e-12 absolute."""
    theta, u = verify._top_ritz(alpha, beta)
    assert exact_count_above(alpha, beta, math.nextafter(theta, math.inf)) == 0
    assert exact_count_above(alpha, beta, math.nextafter(theta, -math.inf)) >= 1
    want_theta, want_u = dense_top_ritz(alpha, beta)
    assert abs(theta - want_theta) <= 1e-14 * abs(want_theta)
    assert abs(u - want_u) <= 1e-12


class TestTopRitz:
    """The O(k) top Ritz pair of a Lanczos tridiagonal."""

    SIZES = [1, 2, 3, 4, 5, 8, 13, 16, 31, 50, 64, 100, 128, 192, 255, 300, 400]

    @pytest.mark.parametrize(
        "kind",
        ["random", "zeros", "diagonal", "graded", "graded_up", "cluster_1e-4",
         "cluster_1e-8", "cluster_1e-12", "cluster_1e-12_top"],
    )
    def test_families_match_exact_counts_and_the_dense_oracle(self, kind):
        for k in self.SIZES:
            if kind.startswith("cluster") and k < 50:
                continue
            for seed in range(2):
                _assert_top_ritz(*_tridiagonal(kind, k, seed))

    def test_cluster_gaps_are_as_built(self):
        for gap in (1e-4, 1e-8, 1e-12):
            for k in (50, 400):
                alpha, beta = _tridiagonal(f"cluster_{gap:g}", k, 0)
                w = np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta, -1))
                assert w[-1] - w[-2] == pytest.approx(gap, rel=0.05, abs=0.0)

    def test_one_by_one_is_exact(self):
        for a0 in (0.0, 1.0, -2.5, 3e-300, 0.1):
            assert verify._top_ritz(np.array([a0]), np.zeros(0)) == (a0, 1.0)

    def test_zero_tridiagonal(self):
        theta, u = verify._top_ritz(np.zeros(3), np.zeros(2))
        assert abs(theta) <= 2.0**-104 and 0.0 <= u <= 1.0

    def test_non_finite_entries_raise(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                verify._top_ritz(np.array([1.0, bad]), np.array([0.5]))

    def test_tridiagonals_of_the_norms_workload(self, monkeypatch):
        # every tridiagonal the 2 -> 2 estimates of perfbench's norms
        # workload solve: the band fits j = 2..9 of bessel(-1, 0.5) at
        # kappa 7 and rough_bump(-0.5, 0.5) at kappa 6, and the pieces
        # (5, ell, 0.45), ell = 0..5, of cos(x) / sqrt(1 + xi**2) and
        # bessel(-1, 0.5) at kappa 6; a check at Lanczos step k solves a
        # k x k tridiagonal
        seen = []
        top_ritz = verify._top_ritz

        def record(alpha, beta):
            seen.append((alpha.copy(), beta.copy()))
            return top_ritz(alpha, beta)

        monkeypatch.setattr(verify, "_top_ritz", record)
        js = list(range(2, 10))
        norm_scaling_fit(bessel(-1.0, 0.5), GridSpec(1, 2, 7), "l2_l2", js=js)
        norm_scaling_fit(rough_bump(-0.5, 0.5), GridSpec(1, 2, 6), "l2_l2", js=js)
        general = custom_symbol(
            lambda x, xi: np.cos(x[0]) / np.sqrt(1.0 + xi[0] ** 2), m=-1.0, rho=1.0, delta=1.0
        )
        spec6 = GridSpec(1, 2, 6)
        for a in (general, bessel(-1.0, 0.5)):
            for ell in range(6):
                op = piece_operator(a, default_cutoffs(), PieceIndex(5, ell, 0.45), spec6)
                empirical_norm(op, PAIR22, spec6)
        monkeypatch.undo()
        assert len(seen) == 143
        assert max(len(alpha) for alpha, _ in seen) == 192
        for alpha, beta in seen:
            _assert_top_ritz(alpha, beta)


class TestLanczosPins:
    """What the 2 -> 2 Lanczos estimate reads, step for step."""

    def test_bessel_band_iterations(self):
        spec, fam = GridSpec(1, 2, 7), default_cutoffs()
        ests = [
            empirical_norm(band_operator(bessel(-1.0, 0.5), fam, j, spec), PAIR22, spec)
            for j in range(2, 10)
        ]
        assert [e.iterations for e in ests] == [4, 8, 16, 24, 40, 64, 112, 192]
        assert {e.kind for e in ests} == {"iterated"}

    def test_identity_estimates_have_the_dense_solves_bits(self, monkeypatch):
        # the identity stops after one step, at a 1 x 1 tridiagonal: its
        # estimate is bit for bit the one the dense eigensolve gives
        specs = (GridSpec(1, 1, 5), GridSpec(2, 1, 3))

        def estimates():
            return [
                empirical_norm(symbol_operator(bessel(0.0, n=spec.n), spec), PAIR22, spec)
                for spec in specs
            ]

        ests = estimates()
        assert [(e.kind, e.iterations, e.value) for e in ests] == [("iterated", 1, 1.0)] * 2
        monkeypatch.setattr(verify, "_top_ritz", dense_top_ritz)
        assert ests == estimates()

    def test_no_k_by_k_temporary(self):
        # band 9 runs 192 steps; the basis V (400 x 1024 floats) is the one
        # large array, and a dense eigensolve of the 192 x 192 tridiagonal
        # would add at least three times 192**2 floats to the peak
        spec = GridSpec(1, 2, 7)
        gram, real = band_operator(bessel(-1.0, 0.5), default_cutoffs(), 9, spec).gram()
        N = spec.N
        # once untraced: a first call imports what numpy's seeding needs
        verify._lanczos_l2(gram, real, N, PAIR22, 0)
        tracemalloc.start()
        try:
            est = verify._lanczos_l2(gram, real, N, PAIR22, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k = est.iterations
        assert (real, k) == (True, 192)
        basis = min(verify._MAX_ITER, N) * N * 8
        assert peak - basis < 8 * k * k


def _structured_symbol(kind: str, n: int):
    if kind == "multiplier":
        return bessel(-1.0, 0.5, n=n)
    if kind == "unit_b":  # separable, |b| = 1
        return rough_bump(-0.5, 0.5, n=n)
    if kind == "cos_b":  # separable; |b| varies, and neither |b| nor |row| is even

        def x_fact(x):
            return np.cos(np.pi * (x[0] - 0.5) / 4.0)

        def xi_fact(xi):
            return np.exp(-0.3j * xi[0]) / np.sqrt(1.0 + sum(c * c for c in xi))

        return SymbolClass("custom", -1.0, 1.0, 0.0, "smooth", n,
                           lambda x, xi: x_fact(x) * xi_fact(xi), x_fact, xi_fact)
    if kind == "real_cos_b":  # separable, |b| varies, and the kernel is real

        def x_fact(x):
            return np.cos(np.pi * (x[0] - 0.5) / 4.0)

        def xi_fact(xi):
            return 1.0 / np.sqrt(1.0 + sum(c * c for c in xi))

        return SymbolClass("custom", -1.0, 1.0, 0.0, "smooth", n,
                           lambda x, xi: x_fact(x) * xi_fact(xi), x_fact, xi_fact)
    if kind == "oscillatory":  # a multiplier with a complex kernel
        return oscillatory_ct(0.5, -1.0, n=n)
    if kind == "general_phase":  # general, and not Hermitian at the Nyquist index
        return custom_symbol(
            lambda x, xi: np.cos(x[0]) * np.exp(1j * xi[0]) / np.sqrt(1.0 + sum(c * c for c in xi)),
            m=-1.0, rho=1.0, delta=1.0, n=n,
        )
    return custom_symbol(
        lambda x, xi: np.cos(x[0]) / np.sqrt(1.0 + sum(c * c for c in xi)),
        m=-1.0, rho=1.0, delta=1.0, n=n,
    )


def _structured_piece(kind: str, piece: str, spec: GridSpec):
    a, fam = _structured_symbol(kind, spec.n), default_cutoffs()
    if piece == "band":
        return band_operator(a, fam, 3, spec)
    if piece == "localized":
        return localized_operator(a, 1, spec)
    if piece == "full":
        return symbol_operator(a, spec)
    return piece_operator(a, fam, PieceIndex(3, 1, 0.45), spec)


def _kernel_lp(A: np.ndarray, p: float, axis: int, hn: float) -> np.ndarray:
    """Grid L^p norms of the kernel ``A`` along one axis, summed directly."""
    if math.isinf(p):
        return np.max(A, axis=axis)
    return (np.sum(A**p, axis=axis) * hn) ** (1.0 / p)


class TestStructuredNorms:
    """A handle's norms, read from its structure, against the dense path
    (the handle's matrix wrapped in the ``DenseMatrix`` test double)."""

    KINDS = ["multiplier", "unit_b", "cos_b", "general"]
    EXACT_PAIRS = [
        ExponentPair(2.0, math.inf),
        ExponentPair(4.0 / 3.0, math.inf),
        ExponentPair(1.0, math.inf),
        ExponentPair(1.0, 2.0),
        ExponentPair(1.0, 4.0),
    ]
    SCHUR_PAIRS = [PAIR22, ExponentPair(4.0 / 3.0, 4.0), *EXACT_PAIRS]

    @pytest.mark.parametrize("spec", [SPEC, GridSpec(2, 1, 3)], ids=["1d", "2d"])
    @pytest.mark.parametrize("piece", ["band", "window"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_handle_matches_dense(self, kind, piece, spec):
        op = _structured_piece(kind, piece, spec)
        M, hn = op.matrix(), float(spec.h) ** spec.n
        dense_op = DenseMatrix(M, spec)
        for p in (1.0, math.inf):
            rows, cols = op.kernel_norms(p)
            for got, axis in ((rows, 1), (cols, 0)):
                want = _kernel_lp(np.abs(M) / hn, p, axis, hn)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13 * want.max())
        est = empirical_norm(op, PAIR22, spec)
        assert est.kind == "iterated"
        assert est.value == pytest.approx(dense_l2_norm(M, spec), rel=1e-9)
        for pair in self.EXACT_PAIRS:
            est, dense = empirical_norm(op, pair, spec), empirical_norm(dense_op, pair, spec)
            assert (est.kind, dense.kind) == ("exact", "exact")
            assert est.value == pytest.approx(dense.value, rel=1e-12)
        for pair in self.SCHUR_PAIRS:
            got, want = schur_bound(op, pair, spec), schur_bound(dense_op, pair, spec)
            assert got.product_bound == pytest.approx(want.product_bound, rel=1e-12)
            assert got.sum_variant == pytest.approx(want.sum_variant, rel=1e-12)
        pair = ExponentPair(4.0 / 3.0, 4.0)
        low = empirical_norm(op, pair, spec)
        assert low.kind == "lower_bound"
        assert 0.0 < low.value <= schur_bound(op, pair, spec).product_bound * (1.0 + 1e-12)

    @pytest.mark.parametrize("spec", [SPEC, GridSpec(2, 1, 3)], ids=["1d", "2d"])
    @pytest.mark.parametrize("kind", ["multiplier", "unit_b", "cos_b"])
    def test_structured_handles_build_no_matrix(self, kind, spec, monkeypatch):
        ops = [_structured_piece(kind, piece, spec) for piece in ("band", "window")]

        def refuse(self):
            raise AssertionError("matrix() built for a structured handle")

        monkeypatch.setattr(OperatorHandle, "matrix", refuse)
        for op in ops:
            for pair in self.SCHUR_PAIRS:
                empirical_norm(op, pair, spec)
                schur_bound(op, pair, spec)

    @pytest.mark.parametrize("spec", [SPEC, GridSpec(2, 1, 3)], ids=["1d", "2d"])
    def test_general_norms_build_no_matrix(self, spec, monkeypatch):
        # only the 2 -> 2 Gram map reads a general handle's dense matrix;
        # its row and column norms have the dense reductions' bits
        op = _structured_piece("general", "window", spec)
        dense_op = DenseMatrix(op.matrix(), spec)

        def refuse(self):
            raise AssertionError("matrix() built for a row or column norm")

        monkeypatch.setattr(OperatorHandle, "matrix", refuse)
        for pair in self.EXACT_PAIRS:
            assert empirical_norm(op, pair, spec) == empirical_norm(dense_op, pair, spec)
        for pair in self.SCHUR_PAIRS:
            assert schur_bound(op, pair, spec) == schur_bound(dense_op, pair, spec)
        assert empirical_norm(op, ExponentPair(4.0 / 3.0, 4.0), spec).kind == "lower_bound"

    @pytest.mark.parametrize("spec", [SPEC, GridSpec(2, 1, 3)], ids=["1d", "2d"])
    @pytest.mark.parametrize("piece", ["band", "window", "localized"])
    @pytest.mark.parametrize("kind", ["multiplier", "unit_b", "general"])
    def test_real_gram_maps_match_dense(self, kind, piece, spec):
        # a real kernel, or a circulant M^H M, gives a real Gram map, and
        # Lanczos in a real basis reads the dense 2 -> 2 norm
        op = _structured_piece(kind, piece, spec)
        gram, real = op.gram()
        assert real
        v = np.random.default_rng(1).standard_normal(spec.N**spec.n)
        assert gram(v).dtype == np.float64
        est = empirical_norm(op, PAIR22, spec)
        assert (est.kind, est.residual <= verify._TOL) == ("iterated", True)
        assert est.value == pytest.approx(dense_l2_norm(op, spec), rel=1e-9)

    @pytest.mark.parametrize("spec", [SPEC, GridSpec(2, 1, 3)], ids=["1d", "2d"])
    @pytest.mark.parametrize("piece", ["full", "localized"])
    @pytest.mark.parametrize("kind", ["cos_b", "real_cos_b", "general_phase"])
    def test_complex_gram_maps_stay_complex(self, kind, piece, spec):
        # a separable handle with varying |b| keeps the complex FFT pairs,
        # for a real kernel (real_cos_b) too; no band: a band vanishes at
        # the Nyquist index, the one frequency where cos_b and
        # general_phase break the Hermitian symmetry
        op = _structured_piece(kind, piece, spec)
        gram, real = op.gram()
        assert not real
        est = empirical_norm(op, PAIR22, spec)
        assert est.kind == "iterated"
        assert est.value == pytest.approx(dense_l2_norm(op, spec), rel=1e-9)

    @pytest.mark.parametrize("spec", [SPEC, GridSpec(2, 1, 3)], ids=["1d", "2d"])
    @pytest.mark.parametrize("piece", ["band", "window", "localized"])
    @pytest.mark.parametrize("kind", ["multiplier", "unit_b", "oscillatory"])
    def test_spectrum_map_has_the_gram_eigenvalues(self, kind, piece, spec):
        # M^H M is circulant: in the frequency basis a pointwise product with
        # a real spectrum d, for a complex symbol as for a real one
        op = _structured_piece(kind, piece, spec)
        gram, real = op.gram()
        size = spec.N**spec.n
        d = gram(np.ones(size))
        assert real and d.dtype == np.float64
        v = np.random.default_rng(2).standard_normal(size)
        assert np.array_equal(gram(v), d * v)
        M = op.matrix()
        want = np.linalg.eigvalsh(M.conj().T @ M)
        np.testing.assert_allclose(np.sort(d), want, rtol=0, atol=1e-12 * want[-1])

    def test_multiplier_fit_past_the_dense_limit(self):
        # N = 32768 cells, where matrix() refuses
        spec = GridSpec(1, 2, 12)
        a = bessel(-1.0, 0.5)
        with pytest.raises(ValueError, match="too large"):
            band_operator(a, default_cutoffs(), 5, spec).matrix()
        js = [5, 6, 7]
        fit = norm_scaling_fit(a, spec, "l1_linf", js=js)
        assert fit.kinds == ["exact"] * 3
        assert fit.excess is not None and fit.excess <= 0.3
        fit = norm_scaling_fit(a, spec, "l2_l2", js=js)
        assert fit.kinds == ["iterated"] * 3
        assert fit.excess is not None and fit.excess <= 0.3


class TestSchurBounds:
    def test_identity_two_two(self):
        for spec in (SPEC, SPEC2D):
            rep = schur_bound(symbol_operator(bessel(0.0, n=spec.n), spec), PAIR22, spec)
            assert rep.product_bound == pytest.approx(1.0, rel=1e-12)

    def test_identity_one_inf(self):
        rep = schur_bound(
            symbol_operator(bessel(0.0), SPEC), ExponentPair(1.0, math.inf), SPEC
        )
        assert rep.product_bound == pytest.approx(1.0 / float(SPEC.h), rel=1e-12)

    def test_multiplier_two_two(self):
        rep = schur_bound(symbol_operator(multiplication("cosine"), SPEC), PAIR22, SPEC)
        phi_max = float(np.max(np.abs(np.cos(np.pi * SPEC.centers() / 4.0))))
        assert rep.product_bound == pytest.approx(phi_max, rel=1e-12)

    def test_piece_bound_certifies_norm(self):
        spec = GridSpec(1, 2, 5)
        a = bessel(-1.0)
        idx = PieceIndex(3, 1, 0.3)
        op = piece_operator(a, default_cutoffs(), idx, spec)
        bound = schur_bound(op, PAIR22, spec).product_bound
        est = empirical_norm(op, PAIR22, spec)
        assert bound >= est.value - 1e-10


class TestPredictedSlopes:
    def test_formulas(self):
        assert predicted_band_slope("l1_linf", bessel(-1.0)) == pytest.approx(0.0)
        assert predicted_band_slope(
            "lr_linf", bessel(-0.5), pair=ExponentPair(2.0, math.inf)
        ) == pytest.approx(0.0)
        assert predicted_band_slope("l2_l2", bessel(-1.0, 0.5, 0.8)) == pytest.approx(-0.85)
        # delta below rho adds no growth
        assert predicted_band_slope("l2_l2", bessel(-1.0)) == -1.0
        val = predicted_band_slope(
            "lr_ls", bessel(-1.0, 0.5, 0.5), pair=ExponentPair(4.0 / 3.0, 4.0)
        )
        assert val == pytest.approx(-0.5)

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

    def test_l2_fit_uses_lanczos(self):
        fit = norm_scaling_fit(bessel(-0.5), self.SPEC6, "l2_l2", js=[2, 3, 4, 5])
        assert all(kind == "iterated" for kind in fit.kinds)
        assert fit.slope <= -0.5 + 0.3

    @pytest.mark.parametrize("mode", ["lr_ls", "l2_l2", "l1_linf"])
    def test_one_corpus_per_fit(self, mode, monkeypatch):
        # a lower-bound mode builds the trial corpus once for all its bands,
        # with the estimates of one empirical_norm per band; other modes none
        a, pair, js = rough_bump(-0.5, 0.5), ExponentPair(4.0 / 3.0, 4.0), [2, 3, 4]
        use = pair if mode == "lr_ls" else None
        fam = default_cutoffs()
        want = [
            empirical_norm(band_operator(a, fam, j, self.SPEC6), verify._mode_pair(mode, use),
                           self.SPEC6, seed=5)
            for j in js
        ]
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return make_corpus(*args, **kwargs)

        monkeypatch.setattr(verify, "make_corpus", spy)
        fit = norm_scaling_fit(a, self.SPEC6, mode, js=js, pair=use, seed=5)
        assert len(calls) == (1 if mode == "lr_ls" else 0)
        assert fit.values == [e.value for e in want]
        assert fit.kinds == [e.kind for e in want]


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
        # one shell cannot carry a fit
        with pytest.raises(ValueError, match="noise floor"):
            kernel_decay_fit(bessel(-1.0), self.SPEC6, j=5, ells=[0], nu=0.5)

    def test_scalar_point_on_a_2d_grid(self):
        # the fit's base point, the origin, has one coordinate per axis
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

    def test_resolved_h_midpoint(self):
        # admissible interval (m + n/p, m + n/p + 1) scaled by 1/rho
        cfg = DecayProbeConfig()
        assert cfg.resolved_h(bessel(-0.5), 1) == pytest.approx(0.5)


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
        M = symbol_operator(a, spec).matrix()
        diff = np.abs(M[16 * N + 16] - M[16 * N + 15]).reshape(N, N) / h2
        X, Y = np.meshgrid(c, c, indexing="ij")
        dist = np.hypot(X - c[16], Y - c[15])
        want = []
        for j in fit.indices:
            mask = (dist >= 2.0**j * 0.125) & (dist <= 2.0 ** (j + 1) * 0.125)
            want.append(np.sqrt(np.sum(diff[mask] ** 2) * h2))
        assert fit.indices == [0, 1, 2]
        np.testing.assert_allclose(fit.values, want, rtol=1e-10, atol=0)


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
        assert sparse_form(coll, f, f, PAIR22) == pytest.approx(1.0, rel=1e-12)

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
        assert rep.uncovered_count == box_cell_count(SPEC, box01(0, 1))
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

    def test_huge_ell1_is_a_wraparound_risk(self):
        fs = make_corpus(self.SPEC3, seed=12, count=1)
        with pytest.raises(ValueError, match="wraparound risk"):
            sharp_ratio_probe(bessel(-0.25, 0.5, 0.5), fs, ell1=2000, ell2=1.0, p=2.0)

    @pytest.mark.parametrize("size", [1, 2, 7, 8, 101, 1000])
    def test_median_has_the_bits_of_np_median(self, size):
        rng = np.random.default_rng(size)
        for x in (rng.lognormal(size=size), rng.integers(0, 3, size).astype(float)):
            assert verify._median(x) == float(np.median(x))

    def test_lab_start_up_and_a_probe_skip_heavy_imports(self):
        # multiprocessing loads only for parallel runs, numpy.ma never
        code = (
            "import sys\n"
            "import sparselab.cli\n"
            "from sparselab.sample import GridSpec, make_corpus\n"
            "from sparselab.symbol import bessel\n"
            "from sparselab.verify import sharp_ratio_probe\n"
            "fs = make_corpus(GridSpec(1, 3, 5), seed=12, count=2)\n"
            "rep = sharp_ratio_probe(bessel(-0.25, 0.5, 0.5), fs, ell1=1, ell2=1.0, p=2.0)\n"
            "assert rep.active_cells > 0\n"
            "print(sorted({'concurrent.futures.process', 'numpy.ma'} & set(sys.modules)))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_precomputed_maxima_match(self):
        from sparselab.maximal import maximal_p

        fs = make_corpus(self.SPEC3, seed=12, count=2)
        pre = [maximal_p(f, 2.0) for f in fs]
        a = bessel(-0.25, 0.5, 0.5)
        direct = sharp_ratio_probe(a, fs, ell1=1, ell2=1.0, p=2.0)
        cached = sharp_ratio_probe(a, fs, ell1=1, ell2=1.0, p=2.0, precomputed_max=pre)
        assert cached.max_ratio == pytest.approx(direct.max_ratio, rel=1e-12)

    @pytest.mark.parametrize("spec", [GridSpec(1, 3, 6), GridSpec(2, 1, 4)], ids=["1d", "2d"])
    @pytest.mark.parametrize("ell2", [0.25, 1.0, 2.0])
    def test_box_report_matches_the_full_grid(self, spec, ell2):
        # the probe's image skips the windows under DENOM_FLOOR; its report
        # is the full grid's, for a real kernel (bessel) and a complex one
        # (oscillatory_ct)
        fs = make_corpus(spec, seed=21, count=4)
        floor, grid = verify.DENOM_FLOOR, ((0, spec.N),) * spec.n
        for a in (bessel(-0.25, 0.5, 0.5, n=spec.n), oscillatory_ct(0.5, -1.0, n=spec.n)):
            want, images = full_grid_sharp_ratio(a, fs, 1, ell2, 2.0)
            assert sharp_ratio_probe(a, fs, ell1=1, ell2=ell2, p=2.0) == want
            op = localized_operator(a, 1, spec)
            for f, full in zip(fs, images):
                got = maximal._sharp_at(op.apply(f), ell2, grid, floor)
                above = got > floor
                assert np.array_equal(above, full > floor)
                assert np.array_equal(got[above], full[above])
                assert np.all(got[~above] <= floor)

    def test_floor_skips_work_the_full_grid_does(self):
        # compact supports leave a rounding-level image far from them in
        # 1D: the floor skips its windows, which the full grid computes
        spec = GridSpec(1, 4, 6)
        a = bessel(-0.25, 0.5, 0.5)
        image = localized_operator(a, 1, spec).apply(make_corpus(spec, seed=21, count=1)[0])
        full = sharp_maximal(image, 1.0)
        got = maximal._sharp_at(image, 1.0, ((0, spec.N),), verify.DENOM_FLOOR)
        above = full > verify.DENOM_FLOOR
        assert above.any() and np.array_equal(got[above], full[above])
        assert np.any(got[~above] < full[~above])

    def test_composed_reach(self):
        spec = self.SPEC3
        vals = np.zeros(spec.shape, dtype=np.complex128)
        i0 = spec.N // 2
        vals[i0] = 1.0
        image = localized_operator(bessel(-1.0), 1, spec).apply(GridFunction(spec, vals))
        S = sharp_maximal(image, 1.0)
        c = spec.centers()
        dist = np.abs(c - c[i0])
        dist = np.minimum(dist, 2.0 * float(spec.halfwidth) - dist)
        peak = float(np.max(S))
        assert peak > 0.0
        assert float(np.max(S[dist >= 4.0], initial=0.0)) < 1e-13 * peak


    @pytest.mark.parametrize("spec", [GridSpec(1, 3, 5), GridSpec(2, 2, 3)])
    def test_real_input_runs_the_real_ladder(self, spec, monkeypatch):
        ladder, ladder_dtypes = maximal._ladder, []

        def recording_ladder(vals, P, widths, floor=0.0):
            ladder_dtypes.append(vals.dtype)
            return ladder(vals, P, widths, floor)

        monkeypatch.setattr(maximal, "_ladder", recording_ladder)
        a = bessel(-0.25, 0.5, 0.5, n=spec.n)
        op = localized_operator(a, 1, spec)
        R, _, _ = op._transfer
        fft, ifft = (np.fft.fft, np.fft.ifft) if spec.n == 1 else (np.fft.fft2, np.fft.ifft2)
        for f in make_corpus(spec, seed=12, count=4):
            assert not np.any(op.apply(f).values.imag)
            fhat = fft(f.values)
            # the complex-path image, with its rounding in the imaginary parts
            image = f.with_values(ifft(R * fhat))
            assert np.any(image.values.imag)
            want = sharp_maximal(image, radius_cap=1.0)
            ladder_dtypes.clear()
            got = sharp_maximal(op.apply(f), 1.0)
            assert ladder_dtypes == [np.float64]
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(want)


class TestEndpointAudit:
    SPEC3 = GridSpec(1, 3, 5)
    A = bessel(-0.25, 0.5, 0.5)

    def whitney_family(self, f, g, pair=PAIR22):
        return build_whitney_sparse(f, g, WhitneyConfig(pair=pair, ell1=1, ell2=1.0))

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

    def test_vanishing_data_audits_the_empty_family(self):
        z = GridFunction.zeros(self.SPEC3)
        pair = ExponentPair(2.0, math.inf)
        coll = self.whitney_family(z, z, pair)
        assert len(coll) == 0
        rep = endpoint_audit(z, z, coll, self.A, 1, 1.0, pair)
        assert rep.ok
        assert rep.rank_lhs == rep.rank_ok == rep.volume_ratios == []
        assert rep.base_lhs == rep.pairing == rep.total_form == rep.final_constant == 0.0
        assert rep.a1 == rep.a2 == rep.a3 == rep.a4 == rep.c0 == 0.0
        assert type(rep.base_lhs) is float

    @pytest.mark.parametrize(
        "grid, pair",
        [((1, 3, 6), PAIR22), ((2, 3, 3), ExponentPair(2.0, math.inf))],
        ids=["1d", "2d"],
    )
    def test_a4_and_total_form_read_per_entry_averages(self, grid, pair):
        spec = GridSpec(*grid)
        fs = make_corpus(spec, seed=2, count=4)
        f, g = fs[2], fs[0]
        coll = self.whitney_family(f, g, pair)
        assert coll.max_rank() >= 1
        rep = endpoint_audit(f, g, coll, bessel(-0.25, 0.5, 0.5, n=spec.n), 1, 1.0, pair)
        af = [average_p(f, coll.region(i), pair.r) for i in range(len(coll))]
        ag = [average_p(g, coll.region(i), pair.s_prime) for i in range(len(coll))]
        ratios = [
            ag[i] / ag[e.parent]
            for i, e in enumerate(coll.entries)
            if e.parent >= 0 and ag[e.parent] > verify.DENOM_FLOOR
        ]
        assert rep.a4 == max(ratios) > 0
        forms = [
            sum(
                float(e.cube.volume()) * af[i] * ag[i]
                for i, e in enumerate(coll.entries)
                if e.rank == q
            )
            for q in range(coll.max_rank() + 1)
        ]
        assert rep.total_form == float(sum(forms)) > 0

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

    def test_reach_guard_decides_ell1_in_integers(self):
        # the cores have side 4: a radius of 4 fits it, 8 does not, and
        # 2**2000 is refused before it can overflow a float
        f = unit_indicator(self.SPEC3)
        coll = self.whitney_family(f, f)
        assert {float(coll.entries[i].cube.side) for i in coll.tree()[1][0]} == {4.0}
        assert endpoint_audit(f, f, coll, self.A, 2, 0.0, PAIR22).ok
        for ell1 in (3, 2000):
            with pytest.raises(ValueError, match="core side is below the composed operator reach"):
                endpoint_audit(f, f, coll, self.A, ell1, 0.0, PAIR22)
        # without cores the localization refuses the radius
        z = GridFunction.zeros(self.SPEC3)
        empty = self.whitney_family(z, z, ExponentPair(2.0, math.inf))
        with pytest.raises(ValueError, match="wraparound risk"):
            endpoint_audit(z, z, empty, self.A, 2000, 1.0, ExponentPair(2.0, math.inf))


class TestEndpointAuditCrop:
    """The audit computes its localized and carved images on the regions
    it reads; ignoring ``region`` gives the full-grid reports."""

    P2I = ExponentPair(2.0, math.inf)

    @pytest.mark.parametrize(
        "grid, pairs",
        [((1, 4, 7), [(0, 1), (2, 3), (6, 7)]), ((2, 3, 3), [(0, 1)])],
        ids=["1d-k7", "2d-k3"],
    )
    def test_matches_full_grid(self, grid, pairs, monkeypatch):
        spec = GridSpec(*grid)
        a = bessel(-0.25, 0.5, 0.5, n=spec.n)
        corpus = make_corpus(spec, seed=11, count=8)
        cases = []
        for i, j in pairs:
            f, g = corpus[i], corpus[j]
            coll = build_whitney_sparse(f, g, WhitneyConfig(pair=self.P2I, ell1=1, ell2=1.0))
            assert len(coll) > 1
            cases.append((f, g, coll, endpoint_audit(f, g, coll, a, 1, 1.0, self.P2I)))

        def full_grid(f, radius_cap=None, region=None):
            return sharp_maximal(f, radius_cap)

        monkeypatch.setattr(verify, "sharp_maximal", full_grid)
        for f, g, coll, cropped in cases:
            assert cropped.ok
            full = endpoint_audit(f, g, coll, a, 1, 1.0, self.P2I)
            assert report_dict(cropped) == report_dict(full)

    @pytest.mark.parametrize(
        "grid, pairs",
        [((1, 4, 7), [(0, 1), (2, 3), (6, 7)]), ((2, 3, 3), [(0, 1), (1, 0)])],
        ids=["1d-k7", "2d-k3"],
    )
    def test_global_image_on_the_box_it_is_read_on(self, grid, pairs, monkeypatch):
        # the composed image of f is computed on the bounding box of the
        # cells where g is nonzero and of the rank-0 cores; the reports are
        # those of the image on the whole grid, bit for bit
        spec = GridSpec(*grid)
        a = bessel(-0.25, 0.5, 0.5, n=spec.n)
        corpus = make_corpus(spec, seed=11, count=8)
        sharp_at, boxes = verify._sharp_at, []

        def spy(f, radius_cap, ranges):
            boxes.append(ranges)
            return sharp_at(f, radius_cap, ranges)

        def whole_grid(f, radius_cap, ranges):
            return sharp_at(f, radius_cap, ((0, spec.N),) * spec.n)

        for i, j in pairs:
            f, g = corpus[i], corpus[j]
            coll = build_whitney_sparse(f, g, WhitneyConfig(pair=self.P2I, ell1=1, ell2=1.0))
            monkeypatch.setattr(verify, "_sharp_at", spy)
            boxed = endpoint_audit(f, g, coll, a, 1, 1.0, self.P2I)
            (box,) = boxes[-1:]
            need = np.abs(g.values) > 0
            for e in coll.entries:
                if e.rank == 0:
                    need[spec.cell_slices(e.cube)] = True
            cells = np.nonzero(need)
            assert tuple(box) == tuple((int(c.min()), int(c.max()) + 1) for c in cells)
            assert math.prod(i1 - i0 for i0, i1 in box) < spec.N**spec.n
            monkeypatch.setattr(verify, "_sharp_at", whole_grid)
            assert report_dict(boxed) == report_dict(
                endpoint_audit(f, g, coll, a, 1, 1.0, self.P2I)
            )


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
        sparsity = report_dict(verify_sparsity(coll))
        data = report_dict(ProbeReport("sparsity", {"eta": coll.eta}, sparsity, {}, True))
        assert type(data["inputs"]["eta"]) is float and data["inputs"]["eta"] == 0.5
        # the survivor (the whole unit cube) over eta times the region
        assert data["constants"]["min_margin"] == 2.0
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
