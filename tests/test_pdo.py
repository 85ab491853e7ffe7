"""Cutoff algebra, operator application paths, and kernel slices."""

import math
from fractions import Fraction

import numpy as np
import pytest

from sparselab.dyadic import Box
from sparselab.pdo import (
    CutoffFamily,
    OperatorHandle,
    PieceIndex,
    _cell_rows,
    _rows,
    apply,
    band_operator,
    kernel_slice,
    localized_operator,
    lp_piece_apply,
    piece_operator,
    spatial_piece_apply,
    symbol_operator,
)
from sparselab.sample import GridFunction, GridSpec, make_corpus
from sparselab.symbol import (
    SymbolClass,
    bessel,
    custom_symbol,
    multiplication,
    oscillatory_ct,
    rough_bump,
)

from oracles import (
    cellwise_apply,
    default_truncation,
    dense_kernel_norms,
    direct_quadrature,
    fourier_sum,
    gathered_matrix,
)

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
    def test_plancherel_mass(self):
        # hat(f)(0) is the integral of f over the box, up to (2 pi)**-1
        f = bump(SPEC)
        fh = fourier_sum(f)
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
        want = FAM.band(j, np.abs(SPEC.freqs())) * fourier_sum(f)
        assert np.max(np.abs(fourier_sum(g) - want)) < 1e-12

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


class TestStructuredApplication:
    """Multiplier and separable handles take one path, windowed or not:
    ``b * ifft(R * fft(f))``."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("op", ["full", "band", "piece", "localized"])
    @pytest.mark.parametrize(
        "family", ["bessel", "oscillatory_ct", "rough_bump", "multiplication"]
    )
    def test_matches_quadrature_or_dense_kernel(self, family, op, n):
        spec = GridSpec(1, 2, 4) if n == 1 else GridSpec(2, 1, 3)
        a = {
            "bessel": bessel(-1.0, n=n),
            "oscillatory_ct": oscillatory_ct(0.5, -1.0, n=n),
            "rough_bump": rough_bump(-1.0, 1.0, n=n),
            "multiplication": multiplication("cosine", n=n),
        }[family]
        handle = {
            "full": symbol_operator(a, spec),
            "band": band_operator(a, FAM, 2, spec),
            "piece": piece_operator(a, FAM, PieceIndex(2, 0, 0.5), spec),
            "localized": localized_operator(a, 1, spec),
        }[op]
        for f in make_corpus(spec, seed=11, count=4)[2:]:
            got = handle(f).values
            if handle.window is None:
                want = direct_quadrature(a, f, handle.mult).values
            else:
                want = (handle.matrix() @ f.values.ravel()).reshape(spec.shape)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _handles(a, spec: GridSpec) -> list:
    """The full operator, a band, a windowed piece and the localized operator."""
    return [
        symbol_operator(a, spec),
        band_operator(a, FAM, 2, spec),
        piece_operator(a, FAM, PieceIndex(2, 1, 0.5), spec),
        localized_operator(a, 1, spec),
    ]


class TestHandleRecord:
    """A handle's transfer function is computed once, from arrays that
    cannot change after construction."""

    def test_transfer_is_computed_once(self, monkeypatch):
        spec = GridSpec(1, 2, 5)
        calls = []
        free_row = OperatorHandle._free_row

        def counting(self):
            calls.append(self)
            return free_row(self)

        monkeypatch.setattr(OperatorHandle, "_free_row", counting)
        handle = band_operator(bessel(-0.25, 0.5, 0.5), FAM, 2, spec)
        f = bump(spec)
        first = handle.apply(f).values
        handle.gram()
        assert np.array_equal(handle.apply(f).values, first)
        assert calls == [handle]
        assert handle._transfer is handle._transfer

    def test_mult_and_window_are_read_only_copies(self):
        spec = GridSpec(1, 2, 5)
        a = bessel(-0.25, 0.5, 0.5)
        mult = np.ones(spec.shape)
        window = localized_operator(a, 1, spec).window.copy()
        handle = OperatorHandle(a, spec, mult, window)
        before = handle.apply(bump(spec)).values
        mult[:] = 0.0
        window[:] = 0.0
        assert np.array_equal(handle.apply(bump(spec)).values, before)
        for arr in (handle.mult, handle.window, handle._transfer[0]):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0


def _complex_image(handle, f: GridFunction) -> np.ndarray:
    """``b * ifft(R * fft(f))`` from the handle's transfer function, in
    complex arithmetic throughout."""
    R, xf, _ = handle._transfer
    fft, ifft = (np.fft.fft, np.fft.ifft) if f.spec.n == 1 else (np.fft.fft2, np.fft.ifft2)
    fhat = fft(f.values)
    out = ifft(R * fhat)
    return out if xf is None else xf * out


class TestRealKernels:
    """A multiplier or separable kernel is real when its amplitude is exactly
    Hermitian and its window and x-factor are real; it maps real data to
    real data, with the real parts of the complex computation."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("family", ["bessel", "rough_bump", "multiplication"])
    def test_real_input_gives_the_real_part(self, family, n):
        spec = GridSpec(1, 2, 6) if n == 1 else GridSpec(2, 1, 4)
        a = {
            "bessel": bessel(-0.25, 0.5, 0.5, n=n),
            "rough_bump": rough_bump(-0.25, 0.5, n=n),
            "multiplication": multiplication("cosine", n=n),
        }[family]
        noisy = False
        for handle in _handles(a, spec):
            for f in make_corpus(spec, seed=3, count=4):
                assert not np.any(f.values.imag)
                got, want = handle.apply(f).values, _complex_image(handle, f)
                assert not np.any(got.imag)
                assert np.array_equal(got.real, want.real)
                noisy = noisy or bool(np.any(want.imag))
        # the complex path leaves rounding in the imaginary parts
        assert noisy

    @pytest.mark.parametrize("n", [1, 2])
    def test_complex_kernels_and_inputs_stay_complex(self, n):
        spec = GridSpec(1, 2, 6) if n == 1 else GridSpec(2, 1, 4)
        odd = SymbolClass(
            # a real, odd xi-factor: the kernel is imaginary
            family="odd", m=1.0, rho=1.0, delta=0.0, kind="smooth", n=n,
            fn=lambda x, xi: xi[0] + 0.0 * x[0], xi_factor=lambda xi: xi[0],
        )
        complex_b = multiplication(lambda x: np.exp(1j * x[0]), n=n)
        a = bessel(-0.25, 0.5, 0.5, n=n)
        f = make_corpus(spec, seed=3, count=4)[3]
        cases = [(h, f) for sym in (oscillatory_ct(0.5, -0.25, n=n), odd, complex_b)
                 for h in _handles(sym, spec)]
        cases += [(h, f.with_values(f.values * (1.0 + 0.5j))) for h in _handles(a, spec)]
        window = 1j * localized_operator(a, 1, spec).window
        cases += [(OperatorHandle(a, spec, window=window), f)]
        for handle, g in cases:
            got = handle.apply(g).values
            assert np.any(got.imag)
            assert np.array_equal(got, _complex_image(handle, g))

    @pytest.mark.parametrize("n", [1, 2])
    def test_general_symbol_real_exactly_when_hermitian(self, n):
        # a Hermitian general symbol gives real data a real image; times
        # exp(1j xi) its amplitude is not Hermitian, and the image is complex
        spec = GridSpec(1, 2, 4) if n == 1 else GridSpec(2, 1, 3)
        a = GENERAL_1D if n == 1 else GENERAL_2D
        f = make_corpus(spec, seed=3, count=4)[3]
        assert not np.any(f.values.imag)
        got = localized_operator(a, 1, spec).apply(f).values
        assert not np.any(got.imag) and np.any(got.real)
        assert np.any(localized_operator(_times_phase(a), 1, spec).apply(f).values.imag)


def _times_phase(a: SymbolClass) -> SymbolClass:
    """The general symbol ``a(x, xi) exp(1j xi_1)``: not Hermitian in xi."""
    return custom_symbol(lambda x, xi: a.fn(x, xi) * np.exp(1j * xi[0]), a.m, a.rho, a.delta, a.n)


class TestRealRows:
    """``_cell_rows`` is real exactly when a block's amplitude is Hermitian,
    and general handles built on real rows run in real arithmetic."""

    SPECS = [GridSpec(1, 2, 6), GridSpec(2, 1, 3)]

    @staticmethod
    def symbols(n: int) -> dict:
        general = GENERAL_1D if n == 1 else GENERAL_2D
        return {
            "bessel": (bessel(-1.0, n=n), True),
            "rough_bump": (rough_bump(-1.0, 1.0, n=n), True),
            "general": (general, True),
            "oscillatory_ct": (oscillatory_ct(0.5, -1.0, n=n), False),
            "general_phase": (_times_phase(general), False),
        }

    @pytest.mark.parametrize("spec", SPECS, ids=["1d", "2d"])
    def test_rows_are_real_exactly_when_hermitian(self, spec):
        c, ones = spec.centers(), (1,) * spec.n
        xi = spec.grid_coords(spec.freqs())
        band = FAM.band(3, np.sqrt(sum(q * q for q in xi)))
        last = np.arange(min(spec.N, 40))
        cells = tuple(np.full(last.size, 2) for _ in range(spec.n - 1)) + (last,)
        xs = tuple(c[ix].reshape((-1,) + ones) for ix in cells)
        for name, (a, hermitian) in self.symbols(spec.n).items():
            for mult in (None, band):
                rows = _cell_rows(a, spec, mult, cells)
                amp = np.broadcast_to(a.eval(xs, tuple(q[None] for q in xi)), rows.shape)
                amp = amp if mult is None else amp * mult
                # the amplitude's symmetry, checked by index, not by _hermitian
                mirror = amp[(...,) + np.ix_(*(-np.arange(spec.N) % spec.N,) * spec.n)]
                symmetric = np.array_equal(mirror, np.conj(amp))
                # the band vanishes at the Nyquist index, the one frequency
                # where exp(1j xi) is not real, so only the full phase
                # symbol is a negative control
                if mult is None:
                    assert symmetric == hermitian, name
                assert rows.dtype == (np.float64 if symmetric else np.complex128), name
                # the complex rows: the inverse DFT of the whole amplitude
                full = _rows(spec, amp)
                peak = np.max(np.abs(full))
                assert np.max(np.abs(rows.real - full.real)) <= 1e-15 * peak, name
                if symmetric:
                    assert np.max(np.abs(full.imag)) <= 1e-15 * peak

    @pytest.mark.parametrize("spec", SPECS, ids=["1d", "2d"])
    def test_general_apply_of_real_data_is_real(self, spec):
        a = GENERAL_1D if spec.n == 1 else GENERAL_2D
        corpus = make_corpus(spec, seed=6, count=4)[2:]
        for op in _handles(a, spec):
            M = op.matrix()
            assert M.dtype == np.float64
            for f in corpus + [corpus[0].with_values(corpus[0].values * (0.5 - 2j))]:
                got, want = op.apply(f).values, (M @ f.values.ravel()).reshape(spec.shape)
                assert np.any(got.imag) == np.any(f.values.imag)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("spec", SPECS, ids=["1d", "2d"])
    def test_complex_windows_and_symbols_stay_complex(self, spec):
        a = GENERAL_1D if spec.n == 1 else GENERAL_2D
        f = make_corpus(spec, seed=6, count=4)[3]
        window = 1j * localized_operator(a, 1, spec).window
        phase = _times_phase(a)
        # no band: a band would vanish where the phase symbol is not Hermitian
        ops = [symbol_operator(phase, spec), localized_operator(phase, 1, spec)]
        for op in [OperatorHandle(a, spec, window=window), *ops]:
            M = op.matrix()
            assert M.dtype == np.complex128
            got = op.apply(f).values
            assert np.any(got.imag)
            assert np.max(np.abs(got - (M @ f.values.ravel()).reshape(spec.shape))) <= (
                1e-12 * np.max(np.abs(got))
            )


    def test_real_and_complex_blocks_in_one_handle(self):
        # Hermitian in xi where x <= 0 only (for x > 0 the amplitude at the
        # Nyquist index is not real): the row blocks left of 0 are real,
        # the others complex, and matrix() and apply put them together
        spec, N = SPEC, SPEC.N
        a = custom_symbol(
            lambda x, xi: (1.0 + 1j * np.maximum(x[0], 0.0) * xi[0]) / (1.0 + xi[0] ** 2),
            m=-1.0, rho=1.0, delta=0.0,
        )
        c, hn = spec.centers(), float(spec.h)
        (xi,) = spec.grid_coords(spec.freqs())
        # all-complex rows: the inverse DFT of the whole amplitude, row by row
        full = _rows(spec, np.broadcast_to(a.eval((c[:, None],), (xi[None],)), (N, N)))
        i = np.arange(N)
        want = hn * full[i[:, None], (i[:, None] - i[None, :]) % N]
        left = c < 0
        for op in (symbol_operator(a, spec), localized_operator(a, 1, spec)):
            M = op.matrix()
            assert M.dtype == np.complex128
            assert not np.any(M[left].imag) and np.all(np.any(M[~left].imag, axis=1))
            if op.window is None:
                assert np.max(np.abs(M - want)) <= 1e-15 * np.max(np.abs(want))
            assert op.row((3,)).dtype == np.float64
            assert op.row((N - 3,)).dtype == np.complex128
            for k in (3, N // 2 - 1, N // 2, N - 3):
                assert np.array_equal(op.row((k,)), M[k] / hn)
            corpus = make_corpus(spec, seed=6, count=4)[2:]
            for f in corpus + [corpus[0].with_values(corpus[0].values * (0.5 - 2j))]:
                got = op.apply(f).values
                ref = M @ f.values.ravel()
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
                if op.window is None:
                    assert np.max(np.abs(got - want @ f.values.ravel())) <= (
                        1e-12 * np.max(np.abs(ref))
                    )


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestRealSymbols:
    """A symbol whose values are real evaluates in float64, and its kernel
    rows are built in real arithmetic with the bits of the same values
    given as complex ones."""

    @staticmethod
    def pair(a: SymbolClass) -> tuple[SymbolClass, SymbolClass]:
        """``a`` and the same function returned as complex values."""
        as_complex = custom_symbol(lambda x, xi: a.fn(x, xi) + 0j, a.m, a.rho, a.delta, a.n)
        return a, as_complex

    def test_eval_dtype_follows_the_values(self):
        x, xi = (np.zeros((3, 1)),), (np.linspace(-4.0, 4.0, 8)[None],)
        real, as_complex = self.pair(GENERAL_1D)
        assert real.eval(x, xi).dtype == np.float64
        assert as_complex.eval(x, xi).dtype == np.complex128
        assert np.array_equal(real.eval(x, xi), as_complex.eval(x, xi))
        integer = custom_symbol(lambda x, xi: np.ones(xi[0].shape, dtype=int), 0.0, 1.0, 0.0)
        assert integer.eval(x, xi).dtype == np.float64
        for a, dtype in [
            (bessel(-1.0), np.float64),
            (rough_bump(-0.5, 0.5), np.float64),
            (multiplication("cosine"), np.float64),
            (oscillatory_ct(0.5, -1.0), np.complex128),
        ]:
            assert a.eval(x, xi).dtype == dtype

    @pytest.mark.parametrize("spec", [GridSpec(1, 2, 5), GridSpec(2, 1, 3)], ids=["1d", "2d"])
    def test_real_values_keep_the_complex_values_bits(self, spec):
        real, as_complex = self.pair(GENERAL_1D if spec.n == 1 else GENERAL_2D)
        f = make_corpus(spec, seed=4, count=4)[3]
        inputs = [f, f.with_values(f.values * (0.5 - 2j))]
        cell = (3,) * spec.n
        for op_r, op_c in zip(_handles(real, spec), _handles(as_complex, spec)):
            assert op_r.row(cell).dtype == np.float64
            assert _same_bits(op_r.row(cell), op_c.row(cell))
            assert _same_bits(op_r.matrix(), op_c.matrix())
            for p in (1.0, 2.0, math.inf):
                for got, want in zip(op_r.kernel_norms(p), op_c.kernel_norms(p)):
                    assert _same_bits(got, want)
            for g in inputs:
                assert _same_bits(op_r.apply(g).values, op_c.apply(g).values)

    @pytest.mark.parametrize("n", [1, 2])
    def test_real_symbol_odd_in_xi_has_complex_rows(self, n):
        spec = GridSpec(1, 2, 5) if n == 1 else GridSpec(2, 1, 3)
        odd = custom_symbol(
            lambda x, xi: np.cos(x[0]) * np.arctan(xi[-1]) / (1.0 + xi[-1] ** 2), -1.0, 1.0, 0.0, n
        )
        assert odd.eval(spec.grid_coords(spec.centers()), spec.grid_coords(spec.freqs())).dtype == (
            np.float64
        )
        op = symbol_operator(odd, spec)
        assert op.row((3,) * n).dtype == np.complex128
        assert op.matrix().dtype == np.complex128
        assert np.any(op.apply(make_corpus(spec, seed=4, count=4)[3]).values.imag)


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
        # the radius 2**ell1 against the half-width 2**K, in integers: 2**2000
        # would overflow a float
        localized_operator(bessel(-1.0), SPEC.K, SPEC)
        for ell1 in (SPEC.K + 1, 2000):
            with pytest.raises(ValueError, match="wraparound risk: the localization radius"):
                localized_operator(bessel(-1.0), ell1, SPEC)

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


class TestGeneralRows:
    """General kernels: rows laid out by strided copies, norms reduced a
    block at a time and block contractions, against the index gather, the
    whole-matrix reductions and the per-cell dot products."""

    SPECS = [GridSpec(1, 2, 6), GridSpec(2, 1, 3)]  # 4 row blocks; 32 blocks of 32

    @staticmethod
    def handles(a, spec: GridSpec) -> list:
        return [
            symbol_operator(a, spec),
            band_operator(a, FAM, 3, spec),
            piece_operator(a, FAM, PieceIndex(3, 1, 0.45), spec),
            localized_operator(a, 1, spec),
        ]

    @pytest.mark.parametrize("spec", SPECS, ids=["1d", "2d"])
    @pytest.mark.parametrize("kind", ["general", "multiplier"])
    def test_matrix_is_the_index_gather(self, kind, spec):
        general = GENERAL_1D if spec.n == 1 else GENERAL_2D
        a = general if kind == "general" else bessel(-1.0, n=spec.n)
        for op in self.handles(a, spec):
            assert np.array_equal(op.matrix(), gathered_matrix(op))

    @pytest.mark.parametrize("spec", SPECS, ids=["1d", "2d"])
    def test_norms_are_the_whole_matrix_reductions(self, spec):
        a, hn = GENERAL_1D if spec.n == 1 else GENERAL_2D, float(spec.h) ** spec.n
        for op in self.handles(a, spec)[1:3]:
            M = gathered_matrix(op)
            for p in (1.0, 2.0, math.inf):
                rows, cols = dense_kernel_norms(M, p, hn)
                got_rows, got_cols = op.kernel_norms(p)
                assert np.array_equal(got_rows, rows) and np.array_equal(got_cols, cols)
            # one side alone has the same bits, and the other side is None
            rows_only, none = op.kernel_norms(p, cols=False)
            no, cols_only = op.kernel_norms(p, rows=False)
            assert none is None and no is None
            assert np.array_equal(rows_only, rows) and np.array_equal(cols_only, cols)

    @pytest.mark.parametrize("spec", SPECS, ids=["1d", "2d"])
    def test_norms_build_no_matrix(self, spec, monkeypatch):
        a = GENERAL_1D if spec.n == 1 else GENERAL_2D
        want = [symbol_operator(a, spec).kernel_norms(p) for p in (1.0, math.inf)]

        def refuse(self):
            raise AssertionError("matrix() built for kernel norms")

        monkeypatch.setattr(OperatorHandle, "matrix", refuse)
        for p, (rows, cols) in zip((1.0, math.inf), want):
            got_rows, got_cols = symbol_operator(a, spec).kernel_norms(p)
            assert np.array_equal(got_rows, rows) and np.array_equal(got_cols, cols)

    @pytest.mark.parametrize("spec", SPECS, ids=["1d", "2d"])
    def test_block_application_matches_cellwise(self, spec):
        a = GENERAL_1D if spec.n == 1 else GENERAL_2D
        for op in self.handles(a, spec):
            for f in make_corpus(spec, seed=4, count=4)[2:]:
                want = cellwise_apply(op, f).values
                got = op.apply(f).values
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("spec", SPECS, ids=["1d", "2d"])
    @pytest.mark.parametrize("shape", ["scalar", "x_only", "xi_only"])
    def test_symbols_that_ignore_a_variable(self, shape, spec):
        # the value may broadcast to less than the (cells, frequencies) grid
        fn = {
            "scalar": lambda x, xi: 0.5,
            "x_only": lambda x, xi: np.cos(x[0]) + 0.25 * x[-1],
            "xi_only": lambda x, xi: (1.0 + xi[0] ** 2 + 2.0 * xi[-1] ** 2) ** -0.5,
        }[shape]

        def full(x, xi):
            grid = np.broadcast_shapes(*(c.shape for c in x + xi))
            return np.broadcast_to(fn(x, xi), grid)

        a, b = (custom_symbol(g, m=-1.0, rho=1.0, delta=0.0, n=spec.n) for g in (fn, full))
        for op, ref in zip(self.handles(a, spec), self.handles(b, spec)):
            assert np.array_equal(op.matrix(), ref.matrix())
            assert np.array_equal(op.row((3,) * spec.n), ref.row((3,) * spec.n))
        # and the rows are the operator's: a constant symbol is c times the identity
        if shape == "scalar":
            f = make_corpus(spec, seed=2, count=4)[3]
            got = symbol_operator(a, spec).apply(f).values
            assert np.max(np.abs(got - 0.5 * f.values)) <= 1e-12 * np.max(np.abs(f.values))


def test_default_nu_clamps():
    from sparselab.pdo import default_nu

    assert default_nu(0.5) == pytest.approx(0.45)
    assert default_nu(0.0) == 0.0
    assert math.isclose(default_nu(1.0), 0.95)
