import math

import mpmath as mp
import numpy as np
import pytest

from semicircleqm import checks, hilbert
from semicircleqm.exceptions import DomainError, SingularNodeError
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
    t_to_phi,
)
from semicircleqm.orthopoly import gauss_legendre, phi_all, quadrature_rule, t_cheb
from test_acceptance import POINTWISE


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

    def test_rows_match_the_subtracted_integrand_formula(self):
        # reference: 2 sum w (v - f(x)) / (x - y) + f(x) x, the kernel not formed apart
        xs, _ = quadrature_rule(25)
        nodes, weights = quadrature_rule(2048)
        stacked = hilbert_mu_pv(lambda y: phi_all(12, y), xs, 2048)
        vals, fx = phi_all(12, nodes), phi_all(12, xs)
        for n in range(13):
            want = (
                2.0 * np.sum(weights * (vals[n] - fx[n][:, None]) / (xs[:, None] - nodes), axis=1)
                + fx[n] * xs
            )
            assert float(np.max(np.abs(stacked[n] - want))) <= 1e-13

    @pytest.mark.parametrize("offset", [-2e-10, -1.01e-10, 1.01e-10, 2e-10])
    def test_points_next_to_a_node(self, offset):
        # just outside the 1e-10 singular guard the nearest node's kernel entry is about w/offset and
        # amplifies the rounding of its f(y) and f(x) terms; at 1.01e-12, inside the guard, the error
        # against T_{n+1} reaches 7.0e-6
        nodes, _ = quadrature_rule(2048)
        xs = nodes[[154, 300, 1024, 1900]] + offset
        got = hilbert_mu_pv(lambda y: phi_all(12, y), xs, 2048)
        want = np.array([t_cheb(n + 1, xs) for n in range(13)])
        assert float(np.max(np.abs(got - want))) <= checks._QUAD_TOL_PV

    @pytest.mark.parametrize("offset", [-9.9e-11, -1.01e-12, 1.01e-12, 1e-11, 9.9e-11])
    def test_points_inside_the_guard_are_refused(self, offset):
        nodes, _ = quadrature_rule(2048)
        with pytest.raises(SingularNodeError):
            hilbert_mu_pv(lambda y: phi_all(12, y), nodes[154] + offset, 2048)

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
        assert checks.momentum_realization(0, samples=25, pairs=0)[0] <= 1e-13

    def test_skew_adjoint(self):
        assert checks.momentum_realization(1, samples=0, pairs=50)[1] <= 1e-10

    def test_kinetic_matches_half_square(self):
        assert checks.kinetic_action(2, samples=10) <= 1e-12

    def test_no_series_gives_zero(self):
        assert checks.momentum_realization(0, samples=0, pairs=0) == (0.0, 0.0)
        assert checks.kinetic_action(0, samples=0) == 0.0

    @pytest.mark.parametrize("shape", [(20, 17), (5, 3, 17)])
    def test_batch_equals_one_series_calls_bit_for_bit(self, shape):
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        series = coeffs.reshape(-1, shape[-1])
        for fn, arg in (
            (hilbert_mu_spectral, ChebSeries.from_coeffs),
            (t_to_phi, TChebSeries),
            (momentum_apply, ChebSeries.from_coeffs),
            (kinetic_apply, ChebSeries.from_coeffs),
        ):
            batch = fn(arg(coeffs)).coeffs
            singles = np.array([fn(arg(c)).coeffs for c in series])
            assert batch.shape == shape[:-1] + singles.shape[1:]
            assert batch.reshape(singles.shape).tobytes() == singles.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_criteria_draw_the_sequential_series(self, monkeypatch, seed):
        # the series in the order of per-series draws standard_normal(17) + 1j * standard_normal(17):
        # the action's samples, then the pairs f, g, then the kinetic check's samples
        draws = np.random.default_rng(seed)
        want = np.array([draws.standard_normal(17) + 1j * draws.standard_normal(17) for _ in range(20 + 2 * 50 + 10)])
        seen = []
        for name in ("momentum_apply", "hilbert_mu_spectral", "kinetic_apply"):
            true = getattr(hilbert, name)
            monkeypatch.setattr(hilbert, name, lambda f, true=true: seen.append(f.coeffs) or true(f))
        rng = np.random.default_rng(seed)
        checks.momentum_realization(rng, 20, 50)
        checks.kinetic_action(rng, 10)
        # momentum_apply also transforms spectrally, and kinetic_apply applies the momentum twice
        action, f, g, kinetic = seen[0], seen[2], seen[3], seen[4]
        assert action.tobytes() == want[:20].tobytes()
        assert f.tobytes() == want[20:120:2].tobytes() and g.tobytes() == want[21:120:2].tobytes()
        assert kinetic.tobytes() == want[120:].tobytes()

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
        assert checks.weight_norm() <= 1e-12

    def test_zero_outside_support(self):
        assert rho_weight(2.5) == 0.0
        assert rho_weight(-3.0) == 0.0

    def test_commutator_on_vacuum(self):
        assert checks.weighted_commutator([0])[0] <= 1e-8

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_commutator_vanishes_on_excited(self, n):
        assert checks.weighted_commutator([n])[0] <= 1e-8

    def test_commutator_refuses_a_negative_level(self):
        with pytest.raises(DomainError):
            checks.weighted_commutator([0, -1])

    def test_stacked_commutator_equals_one_call_per_level(self):
        stacked = checks.weighted_commutator(range(7))
        assert list(stacked) == [checks.weighted_commutator([n])[0] for n in range(7)]


class TestKapteyn:
    def test_zero_argument_sin(self):
        assert abs(kapteyn_sum_sin(0.0, 1.0)) == 0.0
        assert abs(kapteyn_integral_sin(0.0, 1.0)) <= 1e-12

    def test_zero_argument_cos(self):
        assert abs(kapteyn_sum_cos(0.0, 1.0)) == 0.0
        assert abs(kapteyn_integral_cos(0.0, 1.0)) <= 1e-12

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize(
        "theta",
        # the last four lie within 1e-8 of an edge of (0, pi), where a panel node can round onto theta
        [np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3, 5e-324, 1e-300, 1e-8, math.nextafter(np.pi, 0.0)],
    )
    def test_series_equals_integral(self, t, theta):
        assert np.max(checks.kapteyn((t,), (theta,))) <= 1e-6

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
            gap = 2.0 * np.sin(0.5 * (xs + theta)) * np.sin(0.5 * (xs - theta))
            want += float(np.sum(ws * (g(xs) - g(np.array([theta]))[0]) / gap))
        assert pv_integral_angle(g, theta) == want

    def test_angle_validation(self):
        with pytest.raises(DomainError):
            kapteyn_sum_sin(1.0, 0.0)

    @pytest.mark.parametrize("t", [32.0, -32.0, math.nextafter(32.0, 0.0)])
    @pytest.mark.parametrize("theta", [0.1, 1.0, 2.5, 3.0])
    def test_sums_at_the_cap_match_mpmath(self, t, theta):
        with mp.workdps(40):
            terms = [(-1) ** m * mp.besselj(m, 2 * mp.mpf(t)) for m in range(1, 200)]
            want_sin = float(mp.fsum(c * mp.sin(m * mp.mpf(theta)) for m, c in enumerate(terms, 1)))
            want_cos = float(mp.fsum(c * mp.cos(m * mp.mpf(theta)) for m, c in enumerate(terms, 1)))
        assert abs(kapteyn_sum_sin(t, theta) - want_sin) <= 1e-14
        assert abs(kapteyn_sum_cos(t, theta) - want_cos) <= 1e-14
        assert abs(kapteyn_integral_sin(t, theta) - want_sin) <= 1e-14

    def test_argument_cap(self):
        past = math.nextafter(32.0, math.inf)
        for fn in (kapteyn_sum_sin, kapteyn_sum_cos, kapteyn_integral_sin, kapteyn_integral_cos):
            with pytest.raises(DomainError):
                fn(past, 1.0)


class TestEvolvedClosedForms:
    def test_identity_at_time_zero(self):
        assert evolved_vacuum_closed_form(0.0, 0.7) == 1.0 + 0j

    def test_vacuum_matches_amplitude_series(self):
        assert checks.pointwise_closed_forms((0.5, 1.0, 2.0), np.linspace(-1.8, 1.8, 15))[0] <= 1e-6

    def test_first_level_matches_amplitude_series(self):
        assert checks.pointwise_closed_forms((0.5, 1.0, 2.0), np.linspace(-1.8, 1.8, 15))[1] <= 1e-6

    def test_edge_rejected(self):
        with pytest.raises(DomainError):
            evolved_vacuum_closed_form(1.0, 2.0)

    @pytest.mark.parametrize("closed_form", [evolved_vacuum_closed_form, evolved_phi1_closed_form])
    @pytest.mark.parametrize("t", [0.0, *POINTWISE["ts"]])
    def test_array_form_equals_the_scalar_calls(self, closed_form, t):
        xs = np.concatenate([POINTWISE["xs"], [-(2.0 - 1e-6), -1.9999989, 1.9999989, 2.0 - 1e-6]])
        got = closed_form(t, xs)
        assert got.shape == xs.shape and got.dtype == complex
        want = [closed_form(t, float(x)) for x in xs]
        assert all(type(w) is complex for w in want)
        assert np.array_equal(got, want)
        assert closed_form(t, xs.reshape(1, 19, 1)).shape == (1, 19, 1)

    def test_angle_array_equals_the_scalar_calls(self):
        thetas = np.array([[5e-324, 1e-8, 0.2], [np.pi / 3, 2.9, math.nextafter(np.pi, 0.0)]])

        def g(p):
            return np.sin(2.0 * np.sin(p)) * np.sin(p)

        got = pv_integral_angle(g, thetas)
        assert got.shape == thetas.shape
        assert np.array_equal(got, [[pv_integral_angle(g, float(th)) for th in row] for row in thetas])
        with pytest.raises(DomainError):
            pv_integral_angle(g, np.array([1.0, np.pi]))
