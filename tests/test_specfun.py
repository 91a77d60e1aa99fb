import mpmath as mp
import numpy as np
import pytest

from semicircleqm import specfun
from semicircleqm.evolution import coeff_I_series
from semicircleqm.exceptions import ConvergenceError, DomainError, PoleError
from semicircleqm.specfun import (
    bessel_j,
    bessel_j_all,
    bessel_j_series,
    bessel_tail_index,
    hyp1f1,
)

mp.mp.dps = 40

EDGE_ARGUMENTS = [0.1, -0.1, 1.0, 8.0, 16.0, 32.0, 48.0, 63.9, 64.0, -64.0]


@pytest.fixture(scope="module")
def mpmath_orders():
    """J_0(x) .. J_80(x) at 40 digits for every edge argument."""
    return {x: np.array([float(mp.besselj(n, x)) for n in range(81)]) for x in EDGE_ARGUMENTS}


class TestBesselJ:
    def test_order_zero_at_origin(self):
        res = bessel_j(0, 0.0)
        assert res.value == 1.0
        assert res.tail_bound <= 1e-14

    def test_order_one_at_origin(self):
        assert bessel_j(1, 0.0).value == 0.0

    def test_value_at_two(self):
        # high-precision series value, 40 digits then rounded
        assert abs(bessel_j(0, 2.0).value - 0.22389077914123567) < 1e-15

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
    @pytest.mark.parametrize("x", [0.1, 0.7, 2.0, 5.5, 16.0, -3.2, 64.0, -64.0])
    def test_against_high_precision(self, n, x):
        want = float(mp.besselj(n, x))
        assert abs(bessel_j(n, x).value - want) <= 1e-14

    def test_tail_bound_is_honest(self):
        res = bessel_j(3, 4.0)
        assert abs(res.value - float(mp.besselj(3, 4.0))) <= res.tail_bound + 1e-14

    def test_argument_cap(self):
        with pytest.raises(DomainError):
            bessel_j(0, 65.0)

    @pytest.mark.parametrize("x", EDGE_ARGUMENTS)
    def test_to_the_cap_within_reported_bound(self, x, mpmath_orders):
        for n in range(81):
            got = bessel_j(n, x)
            err = abs(got.value - mpmath_orders[x][n])
            assert err <= 1e-14
            assert err <= got.tail_bound + got.rounding_bound

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            bessel_j(-1, 1.0)

    def test_three_term_recurrence(self):
        for t in np.linspace(0.25, 8.0, 16):
            jv = [bessel_j(n, t).value for n in range(12)]
            for n in range(1, 10):
                assert abs(2 * n * jv[n] / t - jv[n + 1] - jv[n - 1]) <= 1e-12

    def test_plane_wave_expansion(self):
        # e^{2it} = J_0(2t) + 2 sum_m i^m J_m(2t) at angle zero
        for t in np.linspace(0.25, 4.0, 10):
            m_top = bessel_tail_index(t, 1e-14)
            jv = [bessel_j(m, 2 * t).value for m in range(m_top + 1)]
            total = jv[0] + 2 * sum((1j) ** m * jv[m] for m in range(1, m_top + 1))
            assert abs(total - np.exp(2j * t)) <= 1e-10

    def test_normalization(self):
        # J_0^2 + 2 sum_m J_m^2 = 1
        for x in np.linspace(0.5, 8.0, 10):
            m_top = bessel_tail_index(x / 2, 1e-14) + 2
            jv = [bessel_j(m, x).value for m in range(m_top)]
            assert abs(jv[0] ** 2 + 2 * sum(v * v for v in jv[1:]) - 1.0) <= 1e-10


class TestBesselOrders:
    @pytest.mark.parametrize("x", EDGE_ARGUMENTS)
    def test_to_the_cap_within_reported_bound(self, x, mpmath_orders):
        got = bessel_j_all(80, x)
        assert got.values.shape == (81,)
        err = float(np.max(np.abs(got.values - mpmath_orders[x])))
        assert err <= 1e-14
        assert err <= got.tail_bound + got.rounding_bound

    def test_origin(self):
        got = bessel_j_all(5, 0.0)
        assert got.values.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert got.tail_bound == 0.0

    @pytest.mark.parametrize("x", [1e-300, -3e-12, 2.0**-30, 2.0**-29])
    def test_tiny_arguments(self, x):
        got = bessel_j_all(40, x)
        want = np.array([float(mp.besselj(n, x)) for n in range(41)])
        assert np.all(np.abs(got.values - want) <= 1e-15 * np.abs(want))

    def test_negative_argument_parity(self):
        pos = bessel_j_all(30, 12.5).values
        neg = bessel_j_all(30, -12.5).values
        assert np.array_equal(neg, pos * (-1.0) ** np.arange(31))

    def test_high_orders_far_past_the_argument(self):
        got = bessel_j_all(2000, 3.0)
        want = float(mp.besselj(40, 3.0))
        assert abs(got.values[40] - want) <= 1e-14 * want
        assert got.values[2000] == 0.0

    def test_start_orders_that_disagree_raise(self, monkeypatch):
        true_miller = specfun._miller
        starts = []

        def shifted_second_run(x, start):
            values, condition = true_miller(x, start)
            starts.append(start)
            return (values + 1e-12 if len(starts) == 2 else values), condition

        monkeypatch.setattr(specfun, "_miller", shifted_second_run)
        with pytest.raises(ConvergenceError):
            bessel_j_all(10, 20.0)

    def test_argument_cap(self):
        with pytest.raises(DomainError):
            bessel_j_all(3, -64.5)
        with pytest.raises(DomainError):
            bessel_j_all(3, float("nan"))

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            bessel_j_all(-1, 1.0)


class TestBesselSeries:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
    @pytest.mark.parametrize("x", [0.1, 0.7, 2.0, 5.5, -3.2])
    def test_small_arguments_within_reported_bound(self, n, x):
        got = bessel_j_series(n, x)
        assert abs(got.value - float(mp.besselj(n, x))) <= got.tail_bound + got.rounding_bound

    @pytest.mark.parametrize("n", [0, 20])
    def test_rounding_bound_is_honest_at_the_cap(self, n):
        # the terms reach about 1e26 at x = 64; the exact sum cancels them without loss
        got = bessel_j_series(n, 64.0)
        want = float(mp.besselj(n, 64.0))
        err = abs(got.value - want)
        assert err <= 1e-15 * max(1.0, abs(want))
        assert err <= got.tail_bound + got.rounding_bound

    @pytest.mark.parametrize("x", EDGE_ARGUMENTS)
    def test_to_the_cap_within_reported_bound(self, x, mpmath_orders):
        for n in range(41):
            got = bessel_j_series(n, x)
            want = mpmath_orders[x][n]
            err = abs(got.value - want)
            assert err <= 1e-15 * abs(want)
            assert err <= got.tail_bound + got.rounding_bound

    @pytest.mark.parametrize(("n", "x"), [(40, 1.0), (20, 1.0), (12, 0.5)])
    def test_relative_accuracy_far_below_one(self, n, x):
        # J_40(1) ~ 1.1e-60: a stop at eps max(1, |sum|) keeps only the first term here
        got = bessel_j_series(n, x)
        want = mp.besselj(n, x)
        assert float(abs(got.value - want) / abs(want)) <= 1e-15
        assert got.tail_bound <= 2.0**-51 * abs(got.value)

    @pytest.mark.parametrize(("n", "x"), [(40, 1e-10), (20, 1e-200)])
    def test_reported_bounds_cover_a_value_that_underflows(self, n, x):
        # J_40(1e-10) ~ 1e-460 and J_20(1e-200) ~ 4e-4025 round to 0.0
        got = bessel_j_series(n, x)
        assert got.value == 0.0
        err = abs(mp.mpf(got.value) - mp.besselj(n, mp.mpf(x)))
        assert err > 0
        assert err <= mp.mpf(got.tail_bound) + mp.mpf(got.rounding_bound)

    @pytest.mark.parametrize("x", EDGE_ARGUMENTS)
    def test_backward_recurrence_matches_the_series_to_the_cap(self, x):
        series = np.array([bessel_j_series(n, x).value for n in range(41)])
        assert float(np.max(np.abs(bessel_j_all(40, x).values - series))) <= 1e-13

    def test_argument_cap(self):
        with pytest.raises(DomainError):
            bessel_j_series(0, 65.0)


class TestBesselRatio:
    """(n+1) J_{n+1}(2t)/t with its t = 0 limit: the coefficient I[0, n](t) of its defining series."""

    def test_limit_at_zero_order_zero(self):
        assert coeff_I_series(0, 0, 0.0) == 1.0

    def test_limit_at_zero_higher_order(self):
        assert coeff_I_series(0, 3, 0.0) == 0.0

    def test_value_at_one(self):
        assert abs(coeff_I_series(0, 0, 1.0) - 0.5767248077568734) < 1e-15

    @pytest.mark.parametrize("n", [0, 1, 4])
    @pytest.mark.parametrize("t", [0.3, 1.7, -2.5, 6.0])
    def test_matches_direct_quotient(self, n, t):
        want = (n + 1) * float(mp.besselj(n + 1, 2 * t)) / t
        assert abs(coeff_I_series(0, n, t) - want) <= 1e-13 * max(1.0, abs(want))

    def test_continuity_near_zero(self):
        assert abs(coeff_I_series(0, 0, 1e-9) - 1.0) < 1e-15


class TestHyp1F1:
    def test_at_zero(self):
        assert hyp1f1(0.3, 1.7, 0.0).value == 1.0

    def test_exponential_identity(self):
        # 1F1(1; 2; z) = (e^z - 1)/z
        got = hyp1f1(1.0, 2.0, 1.0)
        assert abs(got.value - 1.718281828459045) <= 1e-15

    @pytest.mark.parametrize("z", [0.5, -1.5, 2.0 + 1.0j, 4j * 0.5, 4j * 2.0, -3.7])
    def test_against_high_precision(self, z):
        want = complex(mp.hyp1f1(0.5, 2.0, z))
        got = hyp1f1(0.5, 2.0, z)
        assert abs(got.value - want) <= max(got.tail_bound, 1e-13 * max(1.0, abs(want)))

    @pytest.mark.parametrize("b", [0.0, -1.0, -5.0])
    def test_pole_detection(self, b):
        with pytest.raises(PoleError):
            hyp1f1(0.5, b, 1.0)

    def test_argument_cap(self):
        with pytest.raises(DomainError):
            hyp1f1(0.5, 2.0, 100.0)

    @pytest.mark.parametrize("a,b,z", [(float("nan"), 2.0, 1.0), (0.5, float("inf"), 1.0), (0.5, 2.0, complex("nan"))])
    def test_non_finite_arguments_rejected(self, a, b, z):
        with pytest.raises(DomainError):
            hyp1f1(a, b, z)

    def test_tail_bound_is_honest(self):
        got = hyp1f1(1.5, 4.0, 8j)
        want = complex(mp.hyp1f1(1.5, 4.0, 8j))
        assert abs(got.value - want) <= got.tail_bound + 1e-13

    @pytest.mark.parametrize("a,b", [(0.5, 2.0), (1.5, 4.0), (-2.5, 0.5)])
    @pytest.mark.parametrize("r", [2.0, 16.0, 32.0, 63.9, 64.0])
    def test_reported_bounds_cover_the_error_to_the_cap(self, a, b, r):
        for phase in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
            z = r * np.exp(1j * phase)
            got = hyp1f1(a, b, z)
            want = complex(mp.hyp1f1(a, b, z))
            err = abs(got.value - want)
            assert err <= 1e-15 * max(1.0, abs(want))
            assert err <= got.tail_bound + got.rounding_bound

    def test_rounding_bound_is_honest_at_the_cap(self):
        # the terms reach about 1e27 at z = 64i; the exact sum cancels them without loss
        got = hyp1f1(0.5, 2.0, 64j)
        want = complex(mp.hyp1f1(0.5, 2.0, 64j))
        err = abs(got.value - want)
        assert err <= 1e-15 * max(1.0, abs(want))
        assert err <= got.tail_bound + got.rounding_bound


class TestTailIndex:
    def test_zero_argument(self):
        assert bessel_tail_index(0.0, 1e-10) == 1

    def test_unit_argument(self):
        # direct evaluation of the coefficient bound
        assert bessel_tail_index(1.0, 1e-10) == 13

    def test_moderate_argument(self):
        assert bessel_tail_index(4.0, 1e-8) == 31

    @pytest.mark.parametrize("t,tol", [(0.5, 1e-10), (2.0, 1e-10), (4.0, 1e-8), (8.0, 1e-10)])
    def test_bound_dominates_actual_tail(self, t, tol):
        n_star = bessel_tail_index(t, tol)
        tail = mp.nsum(
            lambda n: abs((n + 1) * mp.besselj(int(n) + 1, 2 * t) / t), [n_star + 1, n_star + 250]
        )
        assert float(tail) < tol

    @pytest.mark.parametrize("t", [27.0, -40.0, 64.0])
    def test_no_overflow_past_the_translation_cap(self, t):
        # smallest n with e^(t^2) (1 + t^2/2) |t|^(n+1)/(n+1)! / (1 - |t|/(n+2)) < tol, at 40 digits
        tol = 1e-10
        at = mp.mpf(abs(t))

        def bound(n):
            return mp.exp(at**2) * (1 + at**2 / 2) * at ** (n + 1) / mp.factorial(n + 1) / (1 - at / (n + 2))

        n_star = bessel_tail_index(t, tol)
        assert n_star + 2 > abs(t)
        assert bound(n_star) < tol <= bound(n_star - 1)

    def test_monotone_in_tolerance(self):
        assert bessel_tail_index(2.0, 1e-12) >= bessel_tail_index(2.0, 1e-6)
