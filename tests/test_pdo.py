"""Cutoff algebra, operator application paths, and kernel slices."""

import math
from fractions import Fraction

import numpy as np
import pytest

from sparselab.dyadic import Box
from sparselab.pdo import (
    CutoffFamily,
    PieceIndex,
    apply,
    band_operator,
    forward_transform,
    inverse_eval,
    kernel_slice,
    localized_operator,
    lp_piece_apply,
    piece_operator,
    spatial_piece_apply,
    symbol_operator,
)
from sparselab.sample import GridFunction, GridSpec, make_corpus
from sparselab.symbol import bessel, custom_symbol, multiplication, rough_bump

from oracles import default_truncation, direct_quadrature

SPEC = GridSpec(1, 2, 6)
FAM = CutoffFamily()
GENERAL_1D = custom_symbol(
    lambda x, xi: np.cos(x[0]) * (1.0 + xi[0] ** 2) ** -0.5, m=-1.0, rho=1.0, delta=0.0
)
GENERAL_2D = custom_symbol(
    # not symmetric under swapping the axes, in x or in xi
    lambda x, xi: np.cos(x[0] - 0.5 * x[1]) * (1.0 + xi[0] ** 2 + 4.0 * xi[1] ** 2) ** -0.5,
    m=-1.0,
    rho=1.0,
    delta=0.0,
    n=2,
)


def bump(spec: GridSpec, width: float = 1.5) -> GridFunction:
    """Smooth real bump supported well inside the central half."""

    def fn(x):
        t = np.clip(1.0 - (x / width) ** 2, 0.0, None)
        return np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)

    return GridFunction.from_callable(spec, fn, name="bump")


class TestCutoffs:
    def test_psi0_plateau_and_support(self):
        r = np.array([0.0, 0.25, 0.5, 1.0, 1.1, 3.0])
        v = FAM.psi0(r)
        assert np.all(v[:3] == 1.0)
        assert np.all(v[3:] == 0.0)

    def test_psi0_midpoint(self):
        # the transition step is symmetric about r = 3/4, where it equals 1/2
        assert FAM.psi0(np.array([0.75]))[0] == pytest.approx(0.5, abs=1e-15)

    def test_psi_annulus(self):
        r = np.array([0.1, 0.5, 2.0, 5.0])
        assert np.all(FAM.psi(r) == 0.0)
        assert FAM.psi(np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-15)

    def test_band_supports(self):
        r = np.linspace(0.0, 20.0, 2001)
        v3 = FAM.band(3, r)
        inside = (r >= 2.0) & (r <= 8.0)
        assert np.all(v3[~inside] == 0.0)
        assert v3[np.argmin(np.abs(r - 4.0))] == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(FAM.band(0, r), FAM.psi0(r))

    def test_band_negative_index(self):
        with pytest.raises(ValueError):
            FAM.band(-1, np.zeros(3))

    def test_band_telescoping(self):
        # sum_{j<=J} psi_j collapses to a single low-pass at scale 2**J
        r = np.linspace(0.0, 300.0, 4001)
        J = 8
        total = sum(FAM.band(j, r) for j in range(J + 1))
        assert np.max(np.abs(total - FAM.psi0(r * 2.0**-J))) < 1e-14

    def test_window_telescoping(self):
        r = np.linspace(0.0, 50.0, 3001)
        j, nu, L = 4, 0.4, 6
        total = sum(FAM.window(j, ell, nu, r) for ell in range(L + 1))
        target = FAM.psi0(r * 2.0 ** (j * nu - L - 1))
        assert np.max(np.abs(total - target)) < 1e-14

    def test_piece_index_validation(self):
        with pytest.raises(ValueError):
            PieceIndex(-1, 0, 0.0)
        with pytest.raises(ValueError):
            PieceIndex(0, -2, 0.0)
        with pytest.raises(ValueError):
            PieceIndex(0, 0, 1.0)


class TestTruncation:
    def test_one_dimensional_value(self):
        assert default_truncation(SPEC) == 9

    def test_two_dimensional_value(self):
        assert default_truncation(GridSpec(2, 1, 4)) == 8

    def test_partition_of_unity_on_grid(self):
        J = default_truncation(SPEC)
        r = np.abs(SPEC.freqs())
        total = sum(FAM.band(j, r) for j in range(J + 1))
        assert np.max(np.abs(total - 1.0)) < 1e-12


class TestTransforms:
    def test_roundtrip(self):
        f = make_corpus(SPEC, seed=5, count=3)[1]
        back = inverse_eval(SPEC, forward_transform(f))
        assert np.max(np.abs(back - f.values)) < 1e-12

    def test_plancherel_mass(self):
        # hat(f)(0) is the integral of f over the box, up to (2 pi)**-1
        f = bump(SPEC)
        fh = forward_transform(f)
        mass = float(SPEC.h) * np.sum(f.values)
        i0 = int(np.argmin(np.abs(SPEC.freqs())))
        assert fh[i0] == pytest.approx(mass / (2.0 * np.pi), rel=1e-12)


class TestApply:
    def test_identity_symbol(self):
        f = bump(SPEC)
        g = apply(bessel(0.0), f)
        assert np.max(np.abs(g.values - f.values)) < 1e-10

    def test_multiplication_symbol(self):
        f = bump(SPEC)
        g = apply(multiplication("cosine"), f)
        phi = np.cos(np.pi * SPEC.centers() / 4.0)
        assert np.max(np.abs(g.values - phi * f.values)) < 1e-12

    def test_direct_matches_fft_path(self):
        spec = GridSpec(1, 2, 6)
        a = bessel(-2.0)
        f = bump(spec)
        fast = apply(a, f)
        slow = direct_quadrature(a, f)
        assert np.max(np.abs(fast.values - slow.values)) < 1e-10

    def test_x_dependent_direct_matches_dense_kernel(self):
        spec = GridSpec(1, 1, 5)
        a = custom_symbol(
            lambda x, xi: np.cos(x[0]) * (1.0 + xi[0] ** 2) ** -0.5,
            m=-1.0,
            rho=1.0,
            delta=0.0,
            n=1,
        )
        f = bump(spec, width=0.9)
        via_quadrature = direct_quadrature(a, f)
        M = symbol_operator(a, spec).matrix()
        assert np.max(np.abs(M @ f.values - via_quadrature.values)) < 1e-10
        scale = np.max(np.abs(via_quadrature.values))
        assert np.max(np.abs(apply(a, f).values - via_quadrature.values)) < 1e-12 * scale

    def test_general_symbol_matches_quadrature_in_2d(self):
        spec = GridSpec(2, 1, 3)
        f = make_corpus(spec, seed=5, count=4)[3]
        want = direct_quadrature(GENERAL_2D, f).values
        got = apply(GENERAL_2D, f).values
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    def test_function_on_another_grid_refused(self):
        handle = symbol_operator(bessel(-1.0), SPEC)
        f = bump(GridSpec(1, 1, 5), width=0.9)
        for run in (handle, handle.apply):
            with pytest.raises(ValueError, match="given to an operator"):
                run(f)

    def test_support_guard(self):
        near_edge = Box((Fraction(3),), (Fraction(7, 2),))
        f = GridFunction.indicator(SPEC, near_edge)
        with pytest.raises(ValueError, match="wraparound"):
            apply(bessel(-1.0), f)

    def test_linearity(self):
        a = bessel(-1.5)
        f = bump(SPEC)
        g = make_corpus(SPEC, seed=9, count=2)[0]
        lhs = apply(a, f.with_values(2.0 * f.values - 0.5j * g.values))
        rhs = 2.0 * apply(a, f).values - 0.5j * apply(a, g).values
        assert np.max(np.abs(lhs.values - rhs)) < 1e-10

    def test_translation_covariance(self):
        # x-independent symbols commute with grid translations
        a = bessel(-1.0)
        core = Box((Fraction(-1),), (Fraction(0),))
        f = GridFunction.indicator(SPEC, core)
        shift = 8
        shifted = f.with_values(np.roll(f.values, shift))
        lhs = apply(a, shifted).values
        rhs = np.roll(apply(a, f).values, shift)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestFrequencyPieces:
    def test_piece_is_band_multiplier(self):
        f = bump(SPEC)
        j = 4
        g = lp_piece_apply(bessel(0.0), FAM, j, f)
        want = FAM.band(j, np.abs(SPEC.freqs())) * forward_transform(f)
        assert np.max(np.abs(forward_transform(g) - want)) < 1e-12

    def test_pieces_sum_to_operator(self):
        a = bessel(-1.0)
        f = bump(SPEC)
        J = default_truncation(SPEC)
        total = np.zeros(SPEC.shape, dtype=np.complex128)
        for j in range(J + 1):
            total += lp_piece_apply(a, FAM, j, f).values
        assert np.max(np.abs(total - apply(a, f).values)) < 1e-10

    def test_general_band_piece_matches_quadrature(self):
        a = custom_symbol(
            lambda x, xi: np.cos(x[0]) * (1.0 + xi[0] ** 2) ** -0.5, m=-1.0, rho=1.0, delta=0.0
        )
        f = bump(SPEC)
        j = 5
        want = direct_quadrature(a, f, FAM.band(j, np.abs(SPEC.freqs()))).values
        got = lp_piece_apply(a, FAM, j, f).values
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    def test_band_operator_handle(self):
        f = bump(SPEC)
        handle = band_operator(bessel(-1.0), FAM, 3, SPEC)
        direct = lp_piece_apply(bessel(-1.0), FAM, 3, f)
        assert np.array_equal(handle(f).values, direct.values)
        M = handle.matrix()
        assert np.max(np.abs(M @ f.values - direct.values)) < 1e-10


class TestSpatialPieces:
    def test_shells_sum_to_band_piece(self):
        # once the outermost window plateaus past the torus diameter the
        # spatial splitting is exact, not just close
        a = bessel(-1.0)
        f = bump(SPEC)
        j, nu = 4, 0.5
        L = 5
        band = lp_piece_apply(a, FAM, j, f)
        total = np.zeros(SPEC.shape, dtype=np.complex128)
        for ell in range(L + 1):
            total += spatial_piece_apply(a, FAM, PieceIndex(j, ell, nu), f).values
        assert np.max(np.abs(total - band.values)) < 1e-10

    def test_piece_operator_reach(self):
        # a point source spreads no farther than the outer window radius
        a = bessel(-1.0)
        idx = PieceIndex(3, 1, 0.0)
        vals = np.zeros(SPEC.shape, dtype=np.complex128)
        i0 = SPEC.N // 2
        vals[i0] = 1.0
        f = GridFunction(SPEC, vals)
        g = spatial_piece_apply(a, FAM, idx, f)
        c = SPEC.centers()
        dist = np.abs(c - c[i0])
        dist = np.minimum(dist, 2.0 * float(SPEC.halfwidth) - dist)
        outside = dist >= 2.0 ** (idx.ell - idx.j * idx.nu + 1)
        peak = np.max(np.abs(g.values))
        assert peak > 0.0
        # FFT-based correlation leaves only roundoff beyond the window reach
        assert np.max(np.abs(g.values[outside])) < 1e-13 * peak

    def test_piece_operator_matrix(self):
        a = bessel(-1.0)
        idx = PieceIndex(2, 2, 0.25)
        f = bump(SPEC)
        handle = piece_operator(a, FAM, idx, SPEC)
        M = handle.matrix()
        assert np.max(np.abs(M @ f.values - handle(f).values)) < 1e-10


class TestKernelSlices:
    def test_identity_row_is_discrete_delta(self):
        row = symbol_operator(bessel(0.0), SPEC).row((0,))
        h = float(SPEC.h)
        assert row[0] == pytest.approx(1.0 / h, rel=1e-10)
        assert np.max(np.abs(row[1:])) < 1e-10 / h
        assert h * np.sum(row) == pytest.approx(1.0, rel=1e-10)

    def test_slice_window_support(self):
        idx = PieceIndex(3, 1, 0.0)
        row = kernel_slice(bessel(-1.0), FAM, idx, 0.0, SPEC)
        # the shell window vanishes within 0.5 of the cell nearest x = 0
        c = SPEC.centers()
        inner = np.abs(c - c[np.argmin(np.abs(c))]) <= 0.5
        assert np.max(np.abs(row[inner])) == 0.0
        assert np.max(np.abs(row)) > 0.0

    def test_slice_snaps_to_cell_center(self):
        # an x-dependent symbol, so rows at neighbouring cells differ
        a = GENERAL_1D
        idx = PieceIndex(2, 0, 0.0)
        c = SPEC.centers()
        i = int(np.argmin(np.abs(c - 0.26)))
        row = kernel_slice(a, FAM, idx, 0.26, SPEC)
        assert np.array_equal(row, kernel_slice(a, FAM, idx, float(c[i]), SPEC))
        assert not np.array_equal(row, kernel_slice(a, FAM, idx, float(c[i + 1]), SPEC))

    def test_cache_never_returns_another_symbols_slice(self):
        # a slice depends on its symbol alone, also when a fresh symbol
        # reuses a freed symbol's id
        idx = PieceIndex(4, 1, 0.5)
        held = {m: bessel(m) for m in (-1.0, 0.5)}
        want = {m: kernel_slice(a, FAM, idx, 0.0, SPEC) for m, a in held.items()}
        assert not np.array_equal(want[-1.0], want[0.5])
        for k in range(200):
            m = (-1.0, 0.5)[k % 2]
            assert np.array_equal(kernel_slice(bessel(m), FAM, idx, 0.0, SPEC), want[m])

    def test_even_symbol_gives_even_real_row(self):
        idx = PieceIndex(3, 2, 0.0)
        row = kernel_slice(bessel(-1.0), FAM, idx, 0.0, SPEC)
        assert np.max(np.abs(row.imag)) < 1e-12
        # K(x, x + t) = K(x, x - t) around the cell x nearest 0, periodically
        i, t = int(np.argmin(np.abs(SPEC.centers()))), np.arange(SPEC.N)
        assert np.max(np.abs(row[(i + t) % SPEC.N] - row[(i - t) % SPEC.N])) < 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("kind", ["multiplier", "separable_sign", "separable_cos", "general"])
    def test_row_is_matrix_row(self, kind, n):
        spec = GridSpec(1, 2, 4) if n == 1 else GridSpec(2, 1, 3)
        a = {
            "multiplier": bessel(-1.0, n=n),
            "separable_sign": rough_bump(-1.0, 1.0, n=n),
            "separable_cos": multiplication("cosine", n=n),
            "general": GENERAL_1D if n == 1 else GENERAL_2D,
        }[kind]
        hn = float(spec.h) ** n
        last = spec.N - 1
        cells = [(0,) * n, (last,) * n, (spec.N // 2 - 1,) * n, (3, last - 5)[:n]]
        for op in (
            symbol_operator(a, spec),
            band_operator(a, FAM, 2, spec),
            piece_operator(a, FAM, PieceIndex(2, 1, 0.5), spec),
            localized_operator(a, 1, spec),
        ):
            M = op.matrix()
            for c in cells:
                row = op.row(c)
                assert row.shape == spec.shape
                want = M[np.ravel_multi_index(c, spec.shape)].reshape(spec.shape)
                assert np.array_equal(row * hn, want)


class TestLocalized:
    def test_multiplication_unchanged(self):
        # a pointwise multiplier has zero kernel reach, so any window keeps it
        f = bump(SPEC)
        phi = np.cos(np.pi * SPEC.centers() / 4.0)
        for ell1 in (0, 1, 2):
            g = localized_operator(multiplication("cosine"), ell1, SPEC).apply(f)
            assert np.max(np.abs(g.values - phi * f.values)) < 1e-12

    def test_reach_bound(self):
        a = bessel(-1.0)
        ell1 = 1
        vals = np.zeros(SPEC.shape, dtype=np.complex128)
        i0 = SPEC.N // 2
        vals[i0] = 1.0
        g = localized_operator(a, ell1, SPEC).apply(GridFunction(SPEC, vals))
        c = SPEC.centers()
        dist = np.abs(c - c[i0])
        dist = np.minimum(dist, 2.0 * float(SPEC.halfwidth) - dist)
        peak = np.max(np.abs(g.values))
        assert peak > 0.0
        assert np.max(np.abs(g.values[dist >= 2.0**ell1])) < 1e-13 * peak

    def test_domain_guard(self):
        with pytest.raises(ValueError, match="localization exponent must be nonnegative"):
            localized_operator(bessel(-1.0), -1, SPEC)
        with pytest.raises(ValueError, match="wraparound risk: the localization radius"):
            localized_operator(bessel(-1.0), 3, SPEC)

    def test_handle_matches_function(self):
        f = bump(SPEC)
        op = localized_operator(bessel(-1.0), 2, SPEC)
        assert np.max(np.abs(op.matrix() @ f.values - op.apply(f).values)) < 1e-10


class TestDenseKernels:
    def test_multiplication_matrix_is_diagonal(self):
        spec = GridSpec(1, 1, 5)
        M = symbol_operator(multiplication("cosine"), spec).matrix()
        phi = np.cos(np.pi * spec.centers() / 4.0)
        assert np.max(np.abs(M - np.diag(phi))) < 1e-12

    def test_symbol_operator_matrix(self):
        f = bump(SPEC)
        handle = symbol_operator(bessel(-2.0), SPEC)
        M = handle.matrix()
        assert np.max(np.abs(M @ f.values - handle(f).values)) < 1e-10

    @pytest.mark.parametrize(
        "a",
        [
            bessel(-1.0, n=2),
            multiplication("cosine", n=2),
            GENERAL_2D,
        ],
        ids=["multiplier", "separable", "general"],
    )
    def test_two_dimensional_matrix_matches_application(self, a):
        spec = GridSpec(2, 1, 3)
        f = make_corpus(spec, seed=5, count=4)[3]
        for handle in (
            symbol_operator(a, spec),
            piece_operator(a, FAM, PieceIndex(2, 1, 0.5), spec),
            localized_operator(a, 1, spec),
        ):
            M = handle.matrix()
            assert M.shape == (spec.N**2, spec.N**2)
            assert np.max(np.abs(M @ f.values.ravel() - handle.apply(f).values.ravel())) < 1e-10

    @pytest.mark.parametrize(
        "a", [bessel(-1.0), multiplication("cosine")], ids=["multiplier", "separable"]
    )
    @pytest.mark.parametrize(
        "op",
        [
            lambda a, spec: apply(a, GridFunction.zeros(spec)),
            lambda a, spec: symbol_operator(a, spec).matrix(),
        ],
        ids=["apply", "kernel_matrix"],
    )
    def test_one_dimensional_symbol_on_a_2d_grid_raises(self, a, op):
        with pytest.raises(ValueError):
            op(a, GridSpec(2, 1, 3))

    def test_oversized_matrix_refused(self):
        with pytest.raises(ValueError, match="too large"):
            symbol_operator(bessel(-1.0), GridSpec(1, 4, 9)).matrix()


def test_default_nu_clamps():
    from sparselab.pdo import default_nu

    assert default_nu(0.5) == pytest.approx(0.45)
    assert default_nu(0.0) == 0.0
    assert math.isclose(default_nu(1.0), 0.95)
