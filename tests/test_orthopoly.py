import numpy as np
import pytest

from semicircleqm import checks
from semicircleqm.combinatorics import catalan
from semicircleqm.exceptions import DomainError
from semicircleqm.orthopoly import (
    connection_checks,
    phi,
    phi_all,
    phi_closed_form,
    quadrature_rule,
    t_cheb,
)


class TestPhi:
    def test_monic_start(self):
        for x in (-1.5, 0.0, 0.3, 2.0):
            assert phi(0, x) == 1.0
            assert phi(1, x) == x

    def test_degree_two_root(self):
        assert phi(2, 1.0) == 0.0

    def test_trig_value(self):
        x = 2.0 * np.cos(np.pi / 8)
        assert abs(phi(3, x) - 2.6131259297527531) < 1e-12

    def test_recurrence_vs_closed_form_to_high_degree(self):
        thetas = np.linspace(0.02, np.pi - 0.02, 101)
        xs = 2.0 * np.cos(thetas)
        vals = phi_all(200, xs)
        for n in range(0, 201, 10):
            closed = np.sin((n + 1) * thetas) / np.sin(thetas)
            rel = np.max(np.abs(vals[n] - closed) / np.maximum(1.0, np.abs(closed)))
            assert rel <= 1e-10

    def test_support_enforced(self):
        with pytest.raises(DomainError):
            phi(3, 2.5)

    def test_closed_form_rejects_edge(self):
        with pytest.raises(DomainError):
            phi_closed_form(3, 2.0)

    def test_phi_all_consistent(self):
        xs = np.array([-1.0, 0.25, 1.75])
        stacked = phi_all(6, xs)
        for n in range(7):
            assert np.allclose(stacked[n], [phi(n, float(x)) for x in xs], atol=0, rtol=0)


class TestTCheb:
    def test_degree_zero_is_two(self):
        assert t_cheb(0, 0.7) == 2.0

    def test_degree_one_is_identity(self):
        for x in (-2.0, -0.4, 1.1):
            assert abs(t_cheb(1, x) - x) < 1e-14

    def test_degree_two(self):
        assert abs(t_cheb(2, 1.0) - (-1.0)) < 1e-14

    def test_connection_identities(self):
        xs = np.linspace(-1.99, 1.99, 101)
        for report in connection_checks(100, xs):
            assert report.passed, str(report)

    @pytest.mark.parametrize(
        ("n_max", "xs"),
        [
            (100, 2.0 * np.cos(np.linspace(0.03, np.pi - 0.03, 101))),
            (1, np.array([0.3])),
            (7, np.random.default_rng(3).uniform(-2.0, 2.0, 33)),
            (300, np.linspace(-2.0, 2.0, 57)),
        ],
    )
    def test_connection_residuals_equal_the_per_order_loop_bit_for_bit(self, n_max, xs):
        # the reference: one t_cheb call per order, and the maxima taken order by order
        pv = phi_all(n_max + 1, xs)
        phim1 = np.vstack([np.zeros_like(xs)[None, :], pv[:-1]])
        res1 = res2 = res3 = 0.0
        for n in range(0, n_max + 1):
            tnext = t_cheb(n + 1, xs)
            scale = np.maximum(1.0, np.abs(tnext))
            r1 = np.max(np.abs(tnext - (pv[n + 1] - phim1[n])) / scale)
            tn = t_cheb(n, xs)
            r2 = np.max(np.abs(2.0 * tnext - (xs * tn - (4.0 - xs**2) * phim1[n])) / scale)
            r3 = np.max(np.abs(tnext - (2.0 * pv[n + 1] - xs * pv[n])) / scale)
            res1, res2, res3 = max(res1, r1), max(res2, r2), max(res3, r3)
        got = [report.residual for report in connection_checks(n_max, xs)]
        assert got == [float(res1), float(res2), float(res3)]

    def test_connection_at_origin(self):
        # T_2(0) = Phi_2(0) - Phi_0(0) = -1 - 1
        assert abs(t_cheb(2, 0.0) - (phi(2, 0.0) - phi(0, 0.0))) < 1e-15
        assert t_cheb(2, 0.0) == -2.0

    def test_lowest_connection_uses_vanishing_convention(self):
        # T_1 = Phi_1 with the degree -1 polynomial set to zero
        for x in (-1.2, 0.0, 0.8):
            assert abs(t_cheb(1, x) - phi(1, x)) < 1e-14

    def test_all_three_identities_at_a_point(self):
        n, x = 4, 0.7
        lhs = t_cheb(n + 1, x)
        assert abs(lhs - (phi(n + 1, x) - phi(n - 1, x))) < 1e-12
        assert abs(2 * lhs - (x * t_cheb(n, x) - (4 - x * x) * phi(n - 1, x))) < 1e-12
        assert abs(lhs - (2 * phi(n + 1, x) - x * phi(n, x))) < 1e-12


class TestQuadrature:
    def test_total_mass(self):
        for m in (1, 2, 8, 64):
            _, w = quadrature_rule(m)
            assert abs(np.sum(w) - 1.0) <= 1e-14

    def test_second_moment(self):
        nodes, w = quadrature_rule(2)
        assert abs(np.sum(w * nodes**2) - 1.0) <= 1e-14

    def test_orthonormality_low_degrees(self):
        nodes, w = quadrature_rule(4)
        p3 = phi_all(3, nodes)[3]
        p2 = phi_all(3, nodes)[2]
        assert abs(np.sum(w * p3 * p3) - 1.0) <= 1e-13
        assert abs(np.sum(w * p3 * p2)) <= 1e-13

    def test_orthonormality_to_degree_twenty(self):
        assert checks.polynomial_identities()[0] <= 1e-12

    def test_even_moments_are_catalan(self):
        assert checks.quadrature_moments(9) <= 1e-10

    def test_odd_moments_vanish(self):
        nodes, w = quadrature_rule(64)
        for j in (1, 3, 7):
            assert abs(np.sum(w * nodes**j)) <= 1e-13

    def test_exactness_degree(self):
        # rule with m nodes integrates x^(2m-2) exactly (degree <= 2m-1)
        m = 6
        nodes, w = quadrature_rule(m)
        assert abs(np.sum(w * nodes ** (2 * m - 2)) - catalan(m - 1)) <= 1e-12

    def test_node_count_validation(self):
        with pytest.raises(DomainError):
            quadrature_rule(0)
