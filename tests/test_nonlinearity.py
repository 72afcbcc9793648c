import numpy as np
import pytest

from semifem.nonlinearity import (CutNonlinearity, PowerLaw, check_monotone,
                                  cut)

Z = np.zeros(1)


def kink_term():
    # 50 sgn(u + 1) |u + 1|^(1/3): non-Lipschitz at u = -1.
    return PowerLaw(scale=50.0, exponent=1 / 3, shift=-1.0)


class TestPowerLaw:
    def test_value_at_zero(self):
        assert kink_term()(Z, Z, np.array([0.0]))[0] == pytest.approx(50.0, abs=1e-13)

    def test_zero_at_kink(self):
        assert kink_term()(Z, Z, np.array([-1.0]))[0] == 0.0

    def test_cube_root_of_eight(self):
        assert kink_term()(Z, Z, np.array([7.0]))[0] == pytest.approx(100.0, rel=1e-12)

    def test_identity_for_unit_parameters(self):
        u = np.linspace(-4, 4, 17)
        np.testing.assert_allclose(PowerLaw()(Z, Z, u), u, atol=1e-15)

    def test_spatial_weight_and_shift(self):
        d = PowerLaw(scale=2.0, exponent=0.5,
                     shift=lambda x, y: x, weight=lambda x, y: y)
        x = np.array([0.25])
        y = np.array([3.0])
        u = np.array([1.25])
        assert d(x, y, u)[0] == pytest.approx(3.0 * 2.0 * 1.0, rel=1e-14)

    def test_odd_around_shift(self):
        d = kink_term()
        t = np.linspace(0.0, 5.0, 50)
        plus = d(Z, Z, -1.0 + t)
        minus = d(Z, Z, -1.0 - t)
        assert np.max(np.abs(plus + minus)) <= 1e-13 * np.max(np.abs(plus))

    def test_monotone_on_random_pairs(self):
        rng = np.random.default_rng(5)
        d = PowerLaw(scale=3.0, exponent=0.4, shift=0.7)
        a = rng.uniform(-10, 10, 200)
        b = rng.uniform(-10, 10, 200)
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        assert np.all(d(Z, Z, lo) <= d(Z, Z, hi) + 1e-12)

    def test_linear_case_is_globally_lipschitz(self):
        # exponent 1: difference quotients bounded by weight * scale.
        d = PowerLaw(scale=2.5, exponent=1.0, weight=3.0)
        rng = np.random.default_rng(8)
        u = rng.uniform(-50, 50, 300)
        v = rng.uniform(-50, 50, 300)
        keep = np.abs(u - v) > 1e-12
        quot = np.abs(d(Z, Z, u[keep]) - d(Z, Z, v[keep])) / np.abs(u - v)[keep]
        assert np.max(quot) <= 3.0 * 2.5 + 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PowerLaw(scale=0.0)
        with pytest.raises(ValueError):
            PowerLaw(exponent=1.5)
        with pytest.raises(ValueError):
            PowerLaw(exponent=0.0)
        with pytest.raises(ValueError):
            PowerLaw(weight=-1.0)
        for bad in ({"scale": np.inf}, {"shift": np.nan}, {"weight": np.nan},
                    {"weight": np.inf}):
            with pytest.raises(ValueError, match="finite"):
                PowerLaw(**bad)

    def test_describe_mentions_parameters(self):
        text = kink_term().describe()
        assert "50" in text and "exponent" in text


class TestCut:
    def test_clamps_above(self):
        d = cut(PowerLaw(), 1.0)
        assert d(Z, Z, np.array([2.0]))[0] == 1.0

    def test_unchanged_inside_band(self):
        base = kink_term()
        d = cut(base, 3.0)
        u = np.linspace(-3.0, 3.0, 101)
        np.testing.assert_array_equal(d(Z, Z, u), base(Z, Z, u))

    def test_cubic_below(self):
        cubic = lambda x, y, u: u ** 3
        d = CutNonlinearity(cubic, 2.0)
        assert d(Z, Z, np.array([-5.0]))[0] == -8.0

    def test_constant_outside(self):
        # Beyond the bound the clamped term takes the base term's value at +-M.
        base = kink_term()
        d = cut(base, 2.0)
        far = d(Z, Z, np.array([100.0, 1e9, -7.0, -1e9]))
        edges = base(Z, Z, np.array([2.0, 2.0, -2.0, -2.0]))
        np.testing.assert_array_equal(far, edges)

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            cut(PowerLaw(), 0.0)

    def test_describe_nests(self):
        assert "cut(" in cut(kink_term(), 2.0).describe()


class TestCheckMonotone:
    POINTS = [(0.1, 0.2), (0.5, 0.5), (0.9, 0.1)]

    def test_power_law_passes(self):
        report = check_monotone(PowerLaw(exponent=0.5), self.POINTS, (-5, 5), 101)
        assert report.passed and bool(report)
        assert report.witness is None

    def test_decreasing_fails_with_witness(self):
        decreasing = lambda x, y, u: -u
        report = check_monotone(decreasing, self.POINTS, (-1, 1), 11)
        assert not report.passed
        x, y, u_lo, u_hi, d_lo, d_hi = report.witness
        assert u_lo < u_hi and d_lo > d_hi + 1e-12

    def test_cut_preserves_monotonicity(self):
        report = check_monotone(cut(kink_term(), 2.0), self.POINTS, (-10, 10), 101)
        assert report.passed

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            check_monotone(PowerLaw(), self.POINTS, (0, 1), 1)

    @pytest.mark.parametrize("u_range", [(1.0, -1.0), (-np.inf, np.inf), (0.0, np.nan),
                                         (1.0, 1.0)])
    def test_rejects_empty_or_nonfinite_range(self, u_range):
        with pytest.raises(ValueError, match="u_range"):
            check_monotone(PowerLaw(), self.POINTS, u_range, 11)
