"""Grid, averages, exponent pairs, corpus, serialization."""

import math
import tracemalloc
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselab.dyadic import Box, DyadicCube, children, cube_box
from sparselab.sample import (
    ExponentPair,
    GridFunction,
    GridSpec,
    average_p,
    load_grid_function,
    make_corpus,
    save_grid_function,
)

from oracles import box_cell_count


def box1(lo, hi) -> Box:
    return Box((Fr(lo),), (Fr(hi),))


class TestGridSpec:
    def test_point_count(self):
        assert GridSpec(1, 2, 6).N == 2**9
        assert GridSpec(2, 1, 3).N == 2**5

    def test_spacing_and_domain(self):
        spec = GridSpec(1, 2, 6)
        assert spec.h == Fr(1, 64)
        assert spec.domain().lower == (Fr(-4),)
        assert spec.domain().upper == (Fr(4),)

    def test_centers_are_cell_midpoints(self):
        spec = GridSpec(1, 1, 3)
        cen = spec.centers()
        assert cen[0] == -2 + 1 / 16
        assert cen[-1] == 2 - 1 / 16

    @pytest.mark.parametrize("k", [-2, 0, 3, 6])
    def test_cube_cell_capacity(self, k):
        # every unshifted dyadic cube between the domain and grid scales
        # holds exactly 2^(kappa - k) cells per axis
        spec = GridSpec(1, 2, 6)
        c = DyadicCube(k, (0,), (0,))
        assert box_cell_count(spec, cube_box(c)) == 2 ** (spec.kappa - k)


class TestAverage:
    def setup_method(self):
        self.spec = GridSpec(1, 2, 6)

    def test_constant_function(self):
        f = GridFunction.indicator(self.spec, box1(-4, 4), amplitude=3.0 - 4.0j)
        for p in (1.0, 2.0, 3.5, math.inf):
            assert average_p(f, box1(0, 1), p) == pytest.approx(5.0, abs=1e-12)

    def test_half_indicator_p1(self):
        f = GridFunction.indicator(self.spec, box1(0, Fr(1, 2)))
        assert average_p(f, box1(0, 1), 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_half_indicator_p2(self):
        f = GridFunction.indicator(self.spec, box1(0, Fr(1, 2)))
        assert average_p(f, box1(0, 1), 2.0) == pytest.approx(2**-0.5, abs=1e-14)

    def test_half_indicator_sup(self):
        f = GridFunction.indicator(self.spec, box1(0, Fr(1, 2)))
        assert average_p(f, box1(0, 1), math.inf) == pytest.approx(1.0, abs=1e-14)

    def test_subgrid_cube_rejected(self):
        f = GridFunction.zeros(self.spec)
        with pytest.raises(ValueError, match="subgrid"):
            average_p(f, box1(0, Fr(1, 256)), 1.0)

    def test_partition_additivity(self):
        # the p=1 average over a cube is the volume-weighted mean of the
        # averages over its dyadic children (equal volumes here)
        fs = make_corpus(self.spec, seed=2, count=3)
        q = DyadicCube(1, (1,), (0,))
        for f in fs:
            af = f.with_values(np.abs(f.values))
            whole = average_p(af, cube_box(q), 1.0)
            parts = [average_p(af, cube_box(c), 1.0) for c in children(q)]
            assert whole == pytest.approx(sum(parts) / len(parts), abs=1e-12)

    @given(
        seed=st.integers(0, 5),
        lo=st.integers(-8, 4),
        width=st.integers(1, 4),
        r=st.floats(1.0, 4.0),
        bump=st.floats(0.1, 4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_average_monotone_in_exponent(self, seed, lo, width, r, bump):
        f = make_corpus(self.spec, seed=seed, count=1)[0]
        q = Box((Fr(lo, 2),), (Fr(lo, 2) + Fr(width, 2),))
        a_r = average_p(f, q, r)
        a_s = average_p(f, q, r + bump)
        assert a_r <= a_s + 1e-12
        assert a_s <= average_p(f, q, math.inf) + 1e-12


class TestExponentPair:
    def test_order_validation(self):
        with pytest.raises(ValueError):
            ExponentPair(3.0, 2.0)
        with pytest.raises(ValueError):
            ExponentPair(0.5, 2.0)

    def test_duals(self):
        assert ExponentPair(2.0, 2.0).s_prime == 2.0
        assert ExponentPair(1.0, math.inf).s_prime == 1.0
        assert ExponentPair(1.0, math.inf).r_prime == math.inf
        assert ExponentPair(4 / 3, 4.0).s_prime == pytest.approx(4 / 3)

    def test_schur_exponent(self):
        # 1 + 1/s = 1/p + 1/r
        assert ExponentPair(2.0, 2.0).schur_p == pytest.approx(1.0)
        assert ExponentPair(4 / 3, 4.0).schur_p == pytest.approx(2.0)
        assert math.isinf(ExponentPair(1.0, math.inf).schur_p)

    def test_schur_exponent_at_least_one(self):
        for r, s in [(1.0, 1.0), (1.5, 2.0), (2.0, math.inf), (3.0, 3.0)]:
            assert ExponentPair(r, s).schur_p >= 1.0


class TestCorpus:
    def test_deterministic(self):
        spec = GridSpec(1, 2, 6)
        a = make_corpus(spec, seed=1, count=5)
        b = make_corpus(spec, seed=1, count=5)
        assert [f.name for f in a] == [f.name for f in b]
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.values, fb.values)

    def test_supports_in_central_half(self):
        spec = GridSpec(1, 2, 6)
        half = spec.central_half()
        for f in make_corpus(spec, seed=3, count=8):
            sup = f.support_box()
            assert sup is not None and half.contains_box(sup)

    def test_contains_bump_and_indicator(self):
        names = [f.name for f in make_corpus(GridSpec(1, 2, 6), seed=0, count=4)]
        assert any("bump" in n for n in names)
        assert any("indicator" in n for n in names)

    def test_2d_supports(self):
        spec = GridSpec(2, 1, 3)
        half = spec.central_half()
        for f in make_corpus(spec, seed=1, count=4):
            sup = f.support_box()
            assert sup is not None and half.contains_box(sup)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        spec = GridSpec(1, 2, 5)
        f = make_corpus(spec, seed=4, count=1)[0]
        p = tmp_path / "f.gf"
        save_grid_function(p, f)
        g = load_grid_function(p)
        assert g.spec == spec
        assert np.array_equal(g.values, f.values)

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "bad.gf"
        p.write_bytes(b"1 2\n")
        with pytest.raises(ValueError, match="header"):
            load_grid_function(p)

    def test_payload_length_checked(self, tmp_path):
        p = tmp_path / "short.gf"
        p.write_bytes(b"1 2 5\n" + b"\x00" * 16)
        with pytest.raises(ValueError, match="expected"):
            load_grid_function(p)


def test_lp_norm_of_unit_indicator():
    spec = GridSpec(1, 2, 6)
    f = GridFunction.indicator(spec, box1(0, 1))
    assert f.lp_norm(2.0) == pytest.approx(1.0, abs=1e-14)
    assert f.lp_norm(1.0) == pytest.approx(1.0, abs=1e-14)


def test_restrict_box_zeroes_outside():
    spec = GridSpec(1, 2, 6)
    f = GridFunction.indicator(spec, box1(-2, 2))
    g = f.restrict_box(box1(0, 1))
    assert g.lp_norm(1.0) == pytest.approx(1.0, abs=1e-14)
    assert np.all(g.values[: spec.N // 2] == 0)


class TestGridFunctionValues:
    """Each construction holds one new read-only grid array."""

    SPEC = GridSpec(1, 2, 14)

    def _constructions(self):
        spec = self.SPEC
        f = make_corpus(spec, seed=1, count=1)[0]
        real = np.ascontiguousarray(f.values.real)
        writable = f.values.copy()
        return [
            (real, lambda: f.with_values(real)),
            (writable, lambda: f.with_values(writable)),
            (writable, lambda: GridFunction(spec, writable)),
            (f.values, lambda: f.restrict_box(box1(-1, 1))),
            (None, lambda: GridFunction.zeros(spec)),
            (None, lambda: GridFunction.indicator(spec, box1(-1, 1))),
        ]

    def test_values_are_read_only_and_not_the_callers(self):
        for source, make in self._constructions():
            g = make()
            assert not g.values.flags.writeable
            assert g.values.dtype == np.complex128 and g.values.shape == self.SPEC.shape
            if source is not None:
                assert not np.shares_memory(g.values, source)

    def test_one_grid_array_per_construction(self):
        limit = 1.5 * self.SPEC.N**self.SPEC.n * 16
        for _, make in self._constructions():
            tracemalloc.start()
            try:
                make()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit


@st.composite
def grid_and_cube(draw):
    """A grid and a cube of scale ``-(K+3) .. kappa`` whose index reaches
    past the domain on both sides."""
    n = draw(st.sampled_from((1, 2)))
    K = draw(st.integers(-1, 3))
    kappa = draw(st.integers(max(0, -K), 8))
    k = draw(st.integers(-(K + 3), kappa))
    reach = 2 ** max(K + k, 0) + 2
    m = tuple(draw(st.integers(-reach - 1, reach)) for _ in range(n))
    omega = tuple(draw(st.sampled_from((0, 1, 2))) for _ in range(n))
    return GridSpec(n, K, kappa), DyadicCube(k, m, omega)


class TestCubeCellMap:
    """The integer cube-to-cell map against the exact Fraction reference."""

    @given(grid_and_cube())
    @settings(max_examples=400, deadline=None)
    def test_matches_fraction_ranges(self, spec_cube):
        spec, c = spec_cube
        assert spec.cell_ranges(c) == spec.cell_ranges(cube_box(c))
        assert np.array_equal(spec.box_flat_cells(c), spec.box_flat_cells(cube_box(c)))

    @given(grid_and_cube(), st.integers(0, 3), st.sampled_from((1.0, 4 / 3, 2.0, math.inf)))
    @settings(max_examples=100, deadline=None)
    def test_cube_average_equals_box_average(self, spec_cube, slot, p):
        spec, c = spec_cube
        f = make_corpus(spec, seed=slot, count=slot + 1)[slot]
        assert average_p(f, c, p) == average_p(f, cube_box(c), p)

    def test_cube_finer_than_a_cell_raises(self):
        spec = GridSpec(1, 1, 3)
        c = DyadicCube(spec.kappa + 1, (0,), (1,))
        with pytest.raises(ValueError, match="subgrid"):
            spec.cell_ranges(c)
        with pytest.raises(ValueError, match="subgrid"):
            average_p(GridFunction.zeros(spec), c, 2.0)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension"):
            GridSpec(2, 1, 3).cell_ranges(DyadicCube(0, (0,), (0,)))
