import math

import numpy as np
import pytest

from semicircleqm import evolution
from semicircleqm.exceptions import DomainError, SingularNodeError
from semicircleqm.fock import build_momentum
from semicircleqm.hilbert import (
    ChebSeries,
    TChebSeries,
    evolved_phi1_closed_form,
    evolved_vacuum_closed_form,
    hilbert_mu_pv,
    hilbert_mu_spectral,
    kapteyn_integral_cos,
    kapteyn_integral_sin,
    kapteyn_sum_cos,
    kapteyn_sum_sin,
    kinetic_apply,
    momentum_apply,
    pv_integral_angle,
    rho_weight,
    schrodinger_commutator_check,
    t_to_phi,
)
from semicircleqm.orthopoly import gauss_legendre, phi_all, quadrature_rule, t_cheb


def phi_series(n, size=None):
    size = (n + 1) if size is None else size
    coeffs = np.zeros(size, dtype=complex)
    coeffs[n] = 1.0
    return ChebSeries.from_coeffs(coeffs)


class TestSpectral:
    def test_vacuum_maps_to_first(self):
        out = hilbert_mu_spectral(phi_series(0))
        assert np.allclose(out.coeffs, [0.0, 1.0])

    def test_level_three(self):
        out = hilbert_mu_spectral(phi_series(3))
        want = np.zeros(5)
        want[4] = 1.0
        assert np.allclose(out.coeffs, want)

    def test_zero_maps_to_zero(self):
        out = hilbert_mu_spectral(ChebSeries.from_coeffs(np.zeros(4)))
        assert np.all(out.coeffs == 0)

    def test_t_to_phi_roundtrip_against_pointwise(self):
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal(9)
        f = ChebSeries.from_coeffs(coeffs)
        back = t_to_phi(hilbert_mu_spectral(f))
        xs = np.linspace(-1.9, 1.9, 17)
        direct = sum(coeffs[n] * np.array([t_cheb(n + 1, float(x)) for x in xs]) for n in range(9))
        assert np.max(np.abs(back.evaluate(xs).real - direct)) <= 1e-12

    def test_t_to_phi_equals_the_term_loop_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for size in (1, 2, 3, 18):
            d = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            want = np.zeros(size, dtype=complex)
            want[0] += 2.0 * d[0]
            for j in range(1, size):
                want[j] += d[j]
                if j >= 2:
                    want[j - 2] -= d[j]
            assert t_to_phi(TChebSeries(d)).coeffs.tobytes() == want.tobytes()


class TestPrincipalValue:
    def test_vacuum_at_one(self):
        # x = 1.0 is a node of any rule whose size+1 is divisible by 3
        # (angle pi/3); 2047 + 1 = 2^11 avoids the collision
        got = hilbert_mu_pv(lambda y: np.ones_like(np.asarray(y, dtype=float)), 1.0, m=2047)
        assert abs(got - 1.0) <= 1e-13

    def test_level_two_at_half(self):
        got = hilbert_mu_pv(lambda y: phi_all(2, y)[2], 0.5)
        assert abs(got - (-1.375)) <= 1e-12
        assert abs(got - t_cheb(3, 0.5)) <= 1e-12

    def test_level_one_at_zero(self):
        got = hilbert_mu_pv(lambda y: phi_all(1, y)[1], 0.0)
        assert abs(got - (-2.0)) <= 1e-12

    @pytest.mark.parametrize("n", range(0, 13))
    def test_matches_first_kind_polynomials(self, n):
        xs, _ = quadrature_rule(25)
        for x in xs:
            got = hilbert_mu_pv(lambda y: phi_all(n, y)[n], float(x), 2048)
            assert abs(got - t_cheb(n + 1, float(x))) <= 1e-6

    def test_singular_node_rejected(self):
        nodes, _ = quadrature_rule(64)
        with pytest.raises(SingularNodeError):
            hilbert_mu_pv(lambda y: np.ones_like(np.asarray(y, dtype=float)), float(nodes[10]), 64)

    def test_interior_only(self):
        with pytest.raises(DomainError):
            hilbert_mu_pv(lambda y: np.ones_like(np.asarray(y, dtype=float)), 2.0)

    def test_array_points_equal_scalar_calls_bit_for_bit(self):
        xs, _ = quadrature_rule(25)
        stacked = hilbert_mu_pv(lambda y: phi_all(12, y), xs, 2048)
        assert stacked.shape == (13,) + xs.shape
        for n in range(0, 13):
            f = lambda y, n=n: phi_all(n, y)[n]  # noqa: E731
            got = hilbert_mu_pv(f, xs, 2048)
            assert got.shape == xs.shape
            assert got.tolist() == [hilbert_mu_pv(f, float(x), 2048) for x in xs]
            # each row of the stacked call is the single-function call
            assert stacked[n].tolist() == got.tolist()
        for x in xs[::6]:
            rows = hilbert_mu_pv(lambda y: phi_all(12, y), float(x), 2048)
            assert rows.shape == (13,)
            singles = [hilbert_mu_pv(lambda y, n=n: phi_all(n, y)[n], float(x), 2048) for n in range(13)]
            assert rows.tolist() == singles

    def test_one_node_collision_in_array_rejected(self):
        nodes, _ = quadrature_rule(64)
        xs = np.array([-1.1, 0.3, float(nodes[10]), 1.5])
        with pytest.raises(SingularNodeError):
            hilbert_mu_pv(lambda y: np.ones_like(np.asarray(y, dtype=float)), xs, 64)

    def test_one_exterior_point_in_array_rejected(self):
        with pytest.raises(DomainError):
            hilbert_mu_pv(lambda y: np.ones_like(np.asarray(y, dtype=float)), np.array([0.5, 2.0]))


class TestCachedRules:
    @pytest.mark.parametrize("rule, size", [(quadrature_rule, 25), (gauss_legendre, 24)])
    def test_read_only_and_shared(self, rule, size):
        nodes, weights = rule(size)
        assert not nodes.flags.writeable and not weights.flags.writeable
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        again = rule(size)
        assert again[0] is nodes and again[1] is weights

    def test_gauss_legendre_matches_numpy(self):
        nodes, weights = gauss_legendre(48)
        want_nodes, want_weights = np.polynomial.legendre.leggauss(48)
        assert np.array_equal(nodes, want_nodes) and np.array_equal(weights, want_weights)


class TestMomentumRealization:
    def test_basis_action(self):
        out = momentum_apply(phi_series(2, 4))
        want = np.zeros(5, dtype=complex)
        want[3] = 1j
        want[1] = -1j
        assert np.allclose(out.coeffs, want)

    def test_vacuum_action(self):
        out = momentum_apply(phi_series(0, 1))
        assert np.allclose(out.coeffs, [0.0, 1j])

    def test_matches_matrix_on_random_series(self):
        rng = np.random.default_rng(0)
        pmat = build_momentum(18).entries
        for _ in range(25):
            coeffs = rng.standard_normal(17) + 1j * rng.standard_normal(17)
            out = momentum_apply(ChebSeries.from_coeffs(coeffs)).coeffs
            ref = pmat @ np.concatenate([coeffs, [0.0]])
            assert np.max(np.abs(out[:18] - ref)) <= 1e-13

    def test_skew_adjoint(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(50):
            fc = rng.standard_normal(17) + 1j * rng.standard_normal(17)
            gc = rng.standard_normal(17) + 1j * rng.standard_normal(17)
            hf = t_to_phi(hilbert_mu_spectral(ChebSeries.from_coeffs(fc))).coeffs
            hg = t_to_phi(hilbert_mu_spectral(ChebSeries.from_coeffs(gc))).coeffs
            lhs = np.vdot(np.concatenate([fc, [0.0]]), hg)
            rhs = np.vdot(hf, np.concatenate([gc, [0.0]]))
            worst = max(worst, abs(lhs + rhs))
        assert worst <= 1e-10

    def test_kinetic_matches_half_square(self):
        rng = np.random.default_rng(2)
        pmat = build_momentum(18).entries
        p2 = pmat @ pmat
        for _ in range(10):
            coeffs = rng.standard_normal(17) + 1j * rng.standard_normal(17)
            out = kinetic_apply(ChebSeries.from_coeffs(coeffs)).coeffs
            ref = 0.5 * (p2 @ np.concatenate([coeffs, [0.0]]))
            assert np.max(np.abs(out[:16] - ref[:16])) <= 1e-12

    def test_kinetic_of_zero(self):
        out = kinetic_apply(ChebSeries.from_coeffs(np.zeros(5)))
        assert np.all(out.coeffs == 0)

    def test_commutation_with_position_is_rank_one(self):
        # multiply-by-x then momentum, minus the reverse, equals
        # 2i <vacuum, .> vacuum on coefficient series
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(12) + 1j * rng.standard_normal(12)

        def multiply_by_x(c):
            out = np.zeros(c.size + 1, dtype=complex)
            out[1:] += c
            out[:-2] += c[1:]
            return out

        pf = momentum_apply(ChebSeries.from_coeffs(coeffs)).coeffs
        x_pf = multiply_by_x(pf)
        p_xf = momentum_apply(ChebSeries.from_coeffs(multiply_by_x(coeffs))).coeffs
        diff = x_pf - p_xf
        want = np.zeros_like(diff)
        want[0] = 2j * coeffs[0]
        assert np.max(np.abs(diff - want)) <= 1e-13


class TestSchrodingerWeight:
    def test_density_normalization(self):
        xg, wg = np.polynomial.legendre.leggauss(64)
        thetas = 0.5 * np.pi * (xg + 1.0)
        w = 0.5 * np.pi * wg
        val = np.sum(w * rho_weight(2 * np.cos(thetas)) ** 2 * 2 * np.sin(thetas))
        assert abs(val - 1.0) <= 1e-12

    def test_zero_outside_support(self):
        assert rho_weight(2.5) == 0.0
        assert rho_weight(-3.0) == 0.0

    def test_commutator_on_vacuum(self):
        report = schrodinger_commutator_check(0, 2048)
        assert report.passed, str(report)

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_commutator_vanishes_on_excited(self, n):
        report = schrodinger_commutator_check(n, 2048)
        assert report.passed, str(report)


class TestKapteyn:
    def test_zero_argument_sin(self):
        assert abs(kapteyn_sum_sin(0.0, 1.0)) == 0.0
        assert abs(kapteyn_integral_sin(0.0, 1.0)) <= 1e-12

    def test_zero_argument_cos(self):
        assert abs(kapteyn_sum_cos(0.0, 1.0)) == 0.0
        assert abs(kapteyn_integral_cos(0.0, 1.0)) <= 1e-12

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3])
    def test_series_equals_integral(self, t, theta):
        assert abs(kapteyn_sum_sin(t, theta) - kapteyn_integral_sin(t, theta)) <= 1e-6
        assert abs(kapteyn_sum_cos(t, theta) - kapteyn_integral_cos(t, theta)) <= 1e-6

    @pytest.mark.parametrize("t", [0.5, 4.0])
    @pytest.mark.parametrize("theta", [0.2, np.pi / 3, 2.9])
    def test_panel_array_equals_panel_loop(self, t, theta):
        def g(p):
            return np.sin(2.0 * t * np.sin(p)) * np.sin(p)

        xg, wg = np.polynomial.legendre.leggauss(16)
        edges = np.concatenate([np.linspace(0.0, theta, 13)[:-1], np.linspace(theta, np.pi, 13)])
        want = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            xs = 0.5 * (b - a) * xg + 0.5 * (a + b)
            ws = 0.5 * (b - a) * wg
            want += float(np.sum(ws * (g(xs) - g(np.array([theta]))[0]) / (math.cos(theta) - np.cos(xs))))
        assert pv_integral_angle(g, theta) == want

    def test_angle_validation(self):
        with pytest.raises(DomainError):
            kapteyn_sum_sin(1.0, 0.0)

    def test_argument_cap(self):
        with pytest.raises(DomainError):
            kapteyn_sum_sin(9.0, 1.0)


class TestEvolvedClosedForms:
    def test_identity_at_time_zero(self):
        assert evolved_vacuum_closed_form(0.0, 0.7) == 1.0 + 0j

    def test_vacuum_matches_amplitude_series(self):
        for t in (0.5, 1.0, 2.0):
            for x in np.linspace(-1.8, 1.8, 15):
                series = evolution.evolve_P(0, t, tol=1e-12).evaluate(float(x))
                closed = evolved_vacuum_closed_form(t, float(x))
                assert abs(series - closed) <= 1e-6

    def test_first_level_matches_amplitude_series(self):
        for t in (0.5, 1.0, 2.0):
            for x in np.linspace(-1.8, 1.8, 15):
                series = evolution.evolve_P(1, t, tol=1e-12).evaluate(float(x))
                closed = evolved_phi1_closed_form(t, float(x))
                assert abs(series - closed) <= 1e-6

    def test_edge_rejected(self):
        with pytest.raises(DomainError):
            evolved_vacuum_closed_form(1.0, 2.0)
