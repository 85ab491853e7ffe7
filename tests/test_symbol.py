"""Symbol families and the finite-difference seminorm probe."""

import numpy as np
import pytest

from sparselab.symbol import (
    bessel,
    custom_symbol,
    multiplication,
    oscillatory_ct,
    rough_bump,
    seminorm_probe,
)


def xi_line(radius: float, count: int = 400) -> np.ndarray:
    return np.linspace(-radius, radius, count)


class TestFamilies:
    def test_bessel_zero_is_one(self):
        a = bessel(0.0)
        xi = xi_line(50.0)
        vals = a.fn((np.zeros_like(xi),), (xi,))
        assert np.max(np.abs(vals - 1.0)) == 0.0

    def test_bessel_order_decay(self):
        a = bessel(-2.0)
        v = a.fn((np.zeros(1),), (np.array([3.0]),))
        assert v[0] == pytest.approx((1 + 9.0) ** -1.0, rel=1e-12)

    def test_oscillatory_modulus(self):
        a = oscillatory_ct(0.5, -1.0)
        xi = np.array([4.0])
        v = a.fn((np.zeros(1),), (xi,))
        assert np.abs(v[0]) == pytest.approx((1 + 16.0) ** -0.5, rel=1e-12)
        assert np.angle(v[0]) == pytest.approx(4.0**0.5, rel=1e-12)

    def test_oscillatory_parameter_validation(self):
        with pytest.raises(ValueError):
            oscillatory_ct(0.0, -1.0)

    def test_rough_bump_sign_pattern(self):
        a = rough_bump(-1.0, 0.5)
        assert a.kind == "rough_symbol"
        x = np.array([1.0 / 64.0])  # sin(pi/2) > 0
        y = np.array([3.0 / 64.0])  # sin(3 pi/2) < 0
        xi = np.zeros(1)
        assert a.fn((x,), (xi,))[0].real == 1.0
        assert a.fn((y,), (xi,))[0].real == -1.0

    def test_multiplication_is_xi_independent(self):
        a = multiplication("cosine")
        x = np.array([0.5])
        v1 = a.fn((x,), (np.array([0.0]),))
        v2 = a.fn((x,), (np.array([100.0]),))
        assert v1 == v2
        assert a.structure == "separable"


class TestSeminormProbe:
    def test_constant_symbol(self):
        assert seminorm_probe(bessel(0.0), (0,), (0,), xi_line(30.0)) == pytest.approx(1.0)

    def test_bessel_minus_one_weighted_sup(self):
        # sup over xi of (1+xi^2)^(-1/2) (1+|xi|) sits in [1, sqrt 2]
        val = seminorm_probe(bessel(-1.0), (0,), (0,), xi_line(40.0, 2001))
        assert 1.0 <= val <= 2**0.5 + 1e-9

    def test_multiplication_xi_derivative_vanishes(self):
        val = seminorm_probe(multiplication("cosine"), (1,), (0,), xi_line(10.0))
        assert val < 1e-6

    def test_rough_symbol_rejects_x_derivatives(self):
        with pytest.raises(ValueError, match="no x-regularity"):
            seminorm_probe(rough_bump(-1.0, 0.5), (0,), (1,), xi_line(5.0))

    def test_order_cap(self):
        with pytest.raises(ValueError, match="order"):
            seminorm_probe(bessel(-1.0), (3,), (2,), xi_line(5.0))

    def test_multi_index_length_checked(self):
        with pytest.raises(ValueError):
            seminorm_probe(bessel(-1.0), (1, 0), (0,), xi_line(5.0))

    @pytest.mark.parametrize("family", ["bessel", "oscillatory", "mult"])
    def test_probe_stable_under_range_doubling(self, family):
        # class-membership spot check: the weighted sup must not grow as the
        # xi window doubles
        a = {
            "bessel": bessel(-1.0),
            "oscillatory": oscillatory_ct(0.5, -0.5),
            "mult": multiplication("cosine"),
        }[family]
        for alpha in [(0,), (1,), (2,)]:
            near = seminorm_probe(a, alpha, (0,), xi_line(20.0, 801))
            far = seminorm_probe(a, alpha, (0,), xi_line(40.0, 1601))
            assert far <= near * 1.1 + 1e-9

    def test_oscillatory_derivative_costs_rho(self):
        # first xi-derivative of exp(i |xi|^(1-rho)) decays like |xi|^(-rho):
        # weighting with the declared rho stays bounded under range doubling,
        # pretending rho = 1 does not
        rho = 0.5
        honest = oscillatory_ct(rho, 0.0)
        pretended = custom_symbol(honest.fn, m=0.0, rho=1.0, delta=0.0, n=1)
        xs = (np.zeros(1),)
        ranges = [(8.0, 321), (16.0, 641), (32.0, 1281), (64.0, 2561)]

        def grid(radius, count):
            return np.linspace(radius / 4.0, radius, count)

        honest_vals = [seminorm_probe(honest, (1,), (0,), grid(*rc)) for rc in ranges]
        pretend_vals = [seminorm_probe(pretended, (1,), (0,), grid(*rc)) for rc in ranges]
        assert honest_vals[-1] <= honest_vals[0] * 1.15
        assert pretend_vals[-1] >= pretend_vals[0] * 2.0
