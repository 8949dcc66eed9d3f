import math

import numpy as np
import pytest
from scipy.optimize import brentq

from gbmlab import thresholds as th

# Golden roots frozen from the fine-grid oracle below (step 1e-6).
F1_AT_1 = 2.311070
F1_AT_001 = 0.439258
F2_AT_1 = 1.626635
Y1_AT_001 = 4.346152   # root of 0.5 (s log(s/y) + y - s) = 1 at s = 0.04 + 2 f1(0.01)

TABLE1 = {0.01: 3.18, 1.0: 8.96, 2.0: 12.63, 3.0: 15.9,
          4.0: 18.98, 5.0: 21.93, 6.0: 24.78, 7.0: 27.57}


def grid_scan_min_root(obj, lo, hi, step=1e-6):
    """Independent oracle: first grid point where obj crosses 1."""
    xs = np.arange(lo + step, hi, step)
    vals = obj(xs)
    idx = np.argmax(vals > 1.0)
    assert vals[idx] > 1.0, "oracle found no crossing"
    return xs[idx]


class TestF1:
    def test_golden_b1(self):
        def obj(f):
            return (2 + f) * np.log((2 + f) / 2) - f
        oracle = grid_scan_min_root(obj, 2.0, 3.0)
        assert abs(oracle - F1_AT_1) < 2e-6
        assert th.solve_f1(1.0) == pytest.approx(F1_AT_1, abs=2e-6)

    def test_golden_b001(self):
        def obj(f):
            return (0.02 + f) * np.log((0.02 + f) / 0.02) - f
        oracle = grid_scan_min_root(obj, 0.2, 1.0)
        assert abs(oracle - F1_AT_001) < 2e-6
        assert th.solve_f1(0.01) == pytest.approx(F1_AT_001, abs=2e-6)

    def test_monotone_in_b(self):
        vals = [th.solve_f1(b) for b in (0.5, 1.0, 2.0, 4.0)]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_bracketing_invariant(self):
        for b in (0.1, 1.0, 3.0):
            f = th.solve_f1(b)
            def obj(x):
                return (2 * b + x) * math.log((2 * b + x) / (2 * b)) - x
            assert obj(f - 1e-8) <= 1.0 < obj(f + 1e-8)


class TestF2:
    def test_golden_b1(self):
        def obj(f):
            return (2 - f) * np.log((2 - f) / 2) + f
        oracle = grid_scan_min_root(obj, 1.0, 1.999)
        assert abs(oracle - F2_AT_1) < 2e-6
        assert th.solve_f2(1.0) == pytest.approx(F2_AT_1, abs=2e-6)

    def test_absent_below_half(self):
        assert th.solve_f2(0.01) is None
        assert th.solve_f2(0.3) is None

    def test_absent_at_exact_half(self):
        # supremum of the objective equals 2b = 1; the strict inequality fails
        assert th.solve_f2(0.5) is None

    def test_exists_above_half(self):
        f2 = th.solve_f2(0.51)
        assert f2 is not None and 0 < f2 < 1.02

    def test_bracketing_invariant(self):
        for b in (0.7, 1.0, 2.5):
            f = th.solve_f2(b)
            def obj(x):
                return (2 * b - x) * math.log((2 * b - x) / (2 * b)) + x
            assert obj(f - 1e-8) <= 1.0 < obj(f + 1e-8)


class TestTheta1:
    def test_golden_y1_small_b(self):
        b = 0.01
        f1 = th.solve_f1(b)
        s1 = 4 * b + 2 * f1

        def obj(y):
            return 0.5 * (s1 * np.log(s1 / y) + y - s1)
        oracle = grid_scan_min_root(obj, s1, 8.0)
        assert abs(oracle - Y1_AT_001) < 5e-6
        for a in (3.0, 4.0, 6.0):
            assert th.solve_theta1(a, b, f1) == pytest.approx(2 * a - Y1_AT_001, abs=1e-5)

    def test_empty_constraint_set(self):
        b = 1.0
        f1 = th.solve_f1(b)
        # 2a <= 4b + 2 f1 leaves no feasible theta
        assert th.solve_theta1(2.0, b, f1) == 0.0

    def test_increasing_in_a(self):
        b = 1.0
        f1 = th.solve_f1(b)
        vals = [th.solve_theta1(a, b, f1) for a in (9.0, 10.0, 12.0, 15.0)]
        assert all(x < y for x, y in zip(vals, vals[1:]))


class TestTheta2:
    def test_absent_f2_gives_a(self):
        assert th.solve_theta2(5.0, 0.2, None) == 5.0

    def test_empty_feasible_set_gives_a(self):
        b = 1.0
        f2 = th.solve_f2(b)
        # floor constraint 2a - 4b + 2 f2 exceeds a at a = 9
        assert 2 * 9 - 4 * b + 2 * f2 > 9
        assert th.solve_theta2(9.0, b, f2) == 9.0

    def test_at_least_2b(self):
        for a, b in ((9.0, 1.0), (15.0, 3.0), (4.0, 0.8)):
            f2 = th.solve_f2(b)
            assert th.solve_theta2(a, b, f2) >= 2 * b - 1e-12


class TestBisection:
    """`_bisect` returns a bracket at most tol wide, pred false at lo and true at hi;
    `_grow` doubles at most a fixed number of times."""

    def test_bracket_contract(self):
        for c in (0.0, 1e-12, 0.3, 1.0 / 3.0, 0.999999, 1.0):
            lo, hi = th._bisect(lambda x: x >= c, -1.0, 2.0)
            assert hi - lo <= th.BISECT_TOL
            assert lo < c <= hi

    def test_f1_f2_are_the_true_end(self):
        tol = th.BISECT_TOL
        for target in (0.5, 1.0, 1.3):
            for b in (0.01, 1.0, 3.0):
                def obj1(f):
                    return (2 * b + f) * math.log((2 * b + f) / (2 * b)) - f

                def obj2(f):
                    return (2 * b - f) * math.log((2 * b - f) / (2 * b)) + f

                f1 = th.solve_f1(b, target)
                assert obj1(f1 - 2 * tol) <= target < obj1(f1)
                f2 = th.solve_f2(b, target)
                if f2 is not None:
                    assert obj2(f2 - 2 * tol) <= target < obj2(f2)

    def test_theta_roots_are_the_bracket_ends(self):
        # theta1 = 2a - y1 and theta2 = 2a - y2 are exact subtractions when
        # a <= y <= 2a (Sterbenz), so y is read back bit for bit; brentq
        # places a in that range, theta1 takes hi and theta2 takes lo
        tol = th.BISECT_TOL
        checked = 0
        for target in (1e-3, 1e-2, 0.05, 1.0):
            for b in (0.3, 1.0, 3.0):
                f1 = th.solve_f1(b, target)
                s1 = 4 * b + 2 * f1
                a = 0.75 * brentq(lambda y: th._phi(s1, y) - target, s1, 4 * (s1 + target + 1))
                y1 = 2 * a - th.solve_theta1(a, b, f1, target)
                assert th._phi(s1, y1 - 2 * tol) <= target < th._phi(s1, y1)
                f2 = th.solve_f2(b, target)
                if f2 is None:
                    continue
                s2 = 4 * b - 2 * f2
                y2 = brentq(lambda y: th._phi(s2, y) - target, 1e-300, s2)
                if y2 <= 2.1 * b:
                    continue        # theta2 is 2b or a, whatever y2 is
                a = 0.5 * (b + 1.5 * y2)
                y2 = 2 * a - th.solve_theta2(a, b, f2, target)
                assert th._phi(s2, y2 + 2 * tol) <= target < th._phi(s2, y2)
                checked += 1
        assert checked >= 4

    def test_min_a_returns_the_true_end(self):
        for b in (0.01, 1.0, 3.0):
            a = th.min_a_for_b(b)
            assert th.recovery_condition(a, b)
            assert not th.recovery_condition(a - 2e-3, b)

    def test_growth_is_capped(self):
        # 200 doublings of the bracket reach about 3e60, where the objective is near 5e62
        with pytest.raises(th.RegimeError):
            th.solve_f1(1.0, target=1e300)

    def test_ends_when_the_bracket_stops_moving(self):
        # f1 is about 5.4e8 here, where neighbouring floats are 6e-8 apart,
        # more than the 1e-9 tolerance; the bracket stops at adjacent floats
        f1 = th.solve_f1(1.0, 1e10)
        assert 5e8 < f1 < 6e8
        lo, hi = th._bisect(lambda x: x >= f1, 0.0, 2 * f1)
        assert hi == f1 and lo == np.nextafter(f1, 0.0)

    @pytest.mark.parametrize("target", [-0.5, 0.0, -0.0, -1e308, float("nan")])
    def test_target_not_above_zero_is_rejected(self, target):
        # every objective starts at 0, so such a target would be met at once
        for solve in (th.solve_f1, th.solve_f2):
            with pytest.raises(ValueError, match="divergence target must be > 0"):
                solve(1.0, target)
        with pytest.raises(ValueError, match="divergence target must be > 0"):
            th.thresholds_1d(5000, 13.0, 1.0, target)


class TestThresholds1D:
    def test_composition(self):
        ts = th.thresholds_1d(5000, 13.0, 1.0)
        ln = math.log(5000)
        assert ts.E_S == pytest.approx((2 + ts.f1) * ln / 5000, rel=1e-12)
        assert ts.E_D == pytest.approx((2 - ts.f2) * ln / 5000, rel=1e-12)
        assert ts.e_d_enabled

    def test_low_branch_disabled_for_small_b(self):
        ts = th.thresholds_1d(5000, 3.2, 0.01)
        assert ts.E_D is None and not ts.e_d_enabled

    def test_scale_invariance(self):
        vals = [th.thresholds_1d(n, 13.0, 1.0).E_S * n / math.log(n)
                for n in (1000, 5000, 50_000)]
        assert max(vals) - min(vals) < 1e-9

    def test_regime_rejection(self):
        with pytest.raises(th.RegimeError):
            th.thresholds_1d(5000, 1.5, 1.0)

    def test_deterministic(self):
        a = th.thresholds_1d(4096, 11.0, 2.0)
        b = th.thresholds_1d(4096, 11.0, 2.0)
        assert a == b

    @pytest.mark.parametrize("n", [-5, 0, 1, 2])
    def test_small_n_rejected_with_one_message(self, n):
        # log(log n) is undefined below n = 3 (log 1 = 0, log 2 < 1)
        for solve in (th.finite_size_exponent, lambda n: th.thresholds_1d(n, 13.0, 1.0)):
            with pytest.raises(ValueError, match=r"^n must be >= 3$"):
                solve(n)
        assert th.finite_size_exponent(3) > 1.0


class TestRecoveryCondition:
    def test_table1_reproduction(self):
        for b, expect in TABLE1.items():
            got = th.min_a_for_b(b)
            assert abs(got - expect) <= 0.02, (b, got)

    def test_absent_f2_reduces_to_theta1_condition(self):
        # with theta2 = a the disjunction collapses to theta1 > 2
        for b in (0.01, 0.2, 0.4):
            f1 = th.solve_f1(b)
            for a in np.linspace(2 * b + 0.5, 6.0, 12):
                t1 = th.solve_theta1(float(a), b, f1)
                assert th.recovery_condition(float(a), b) == (t1 > 2.0)


class TestThresholdsHD:
    def test_separating_window(self):
        ts = th.thresholds_hd(5000, 2, 0.5, 0.12)
        assert ts.feasible and ts.E_D < ts.E_S

    def test_equal_radii_rejected(self):
        with pytest.raises(th.RegimeError):
            th.thresholds_hd(5000, 2, 0.3, 0.3)

    @pytest.mark.parametrize("r_s, r_d", [(3.0, 1.0), (2.5, 2.2), (2.0 + 1e-12, 1.0)])
    def test_radius_above_two_rejected(self, r_s, r_d):
        # chord radii live in [0, 2]; the check and its text are dense_plan's
        with pytest.raises(th.RegimeError, match=r"^need 0 < r_d < r_s <= 2, got "):
            th.thresholds_hd(5000, 2, r_s, r_d)
        with pytest.raises(th.RegimeError, match=r"^need 0 < r_d < r_s <= 2, got "):
            th.dense_plan(5000, 2, r_s, r_d)

    def test_radius_two_accepted(self):
        assert th.thresholds_hd(5000, 2, 2.0, 1.0).feasible

    def test_linear_growth_in_n(self):
        # the B n term dominates the sqrt deviation once n B >> log n
        a = th.thresholds_hd(100_000, 2, 1.0, 0.5)
        b = th.thresholds_hd(200_000, 2, 1.0, 0.5)
        assert b.E_S / a.E_S == pytest.approx(2.0, rel=0.05)

    def test_constant_bounds_enforced(self):
        with pytest.raises(ValueError):
            th.thresholds_hd(5000, 2, 0.5, 0.12, c_s=0.5)
        with pytest.raises(ValueError):
            th.thresholds_hd(5000, 2, 0.5, 0.12, c_d=1.5)


class TestDensePlan:
    def test_logarithmic_growth_at_constant_radii(self):
        # large gap so neither cap binds: g scales like log n, h like sqrt(n log n)
        p1 = th.dense_plan(30_000, 2, 1.2, 0.4)
        p2 = th.dense_plan(60_000, 2, 1.2, 0.4)
        assert p1.g == p1.g_formula and p2.g == p2.g_formula
        assert p2.g / p1.g == pytest.approx(math.log(60_000) / math.log(30_000), rel=0.02)
        assert p2.h / p1.h == pytest.approx(math.sqrt(2 * math.log(60_000) / math.log(30_000)), rel=0.02)

    def test_half_n_cap_for_tiny_gap(self):
        p = th.dense_plan(2000, 2, 0.41, 0.40)
        assert p.g_formula == 1000

    def test_g_capped_to_third_of_h(self):
        p = th.dense_plan(3000, 2, 0.6, 0.4)
        assert p.g <= p.h // 3
        assert p.g_formula == 1500 and p.h == 2122 and p.g == 707

    def test_budget_formula(self):
        p = th.dense_plan(4000, 2, 1.0, 0.5)
        assert p.query_budget == p.h * (p.h - 1) // 2 + (4000 - p.h) * 2 * p.g

    def test_no_signal_rejected(self):
        with pytest.raises(th.RegimeError):
            th.dense_plan(1000, 2, 0.3, 0.3)
