import mpmath as mp
import numpy as np
import pytest

from semicircleqm import oracle
from semicircleqm.combinatorics import catalan
from semicircleqm.exceptions import ConvergenceError, DimensionError
from semicircleqm.fock import (
    basis,
    build_momentum,
    build_number_function,
    build_position,
)
from semicircleqm.specfun import bessel_j


class TestExpmApply:
    def test_zero_time_returns_input(self):
        dim = 12
        v = np.arange(1, dim + 1, dtype=complex) / dim
        res = oracle.expm_apply(build_momentum(dim), 0.0, v)
        assert np.array_equal(res.vector, v)

    def test_diagonal_generator(self):
        dim = 10
        lam = build_number_function(dim, lambda n: n)
        v = np.ones(dim) / np.sqrt(dim)
        res = oracle.expm_apply(lam, 1j * 0.7, v)
        want = np.exp(1j * 0.7 * np.arange(dim)) * v
        assert np.max(np.abs(res.vector - want)) <= 1e-13

    def test_matches_bessel_amplitudes(self):
        # evolved vacuum amplitudes have the closed form
        # (-1)^l (l+1) J_{l+1}(2t)/t; the two engines share no code
        dim, t = 64, 1.0
        res = oracle.expm_apply(build_momentum(dim), 1j * t, basis(0, dim))
        for l in range(20):
            want = (-1.0) ** l * (l + 1) * bessel_j(l + 1, 2 * t).value / t
            assert abs(res.vector[l] - want) <= 1e-9

    def test_unitarity(self):
        dim = 48
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        coeffs /= np.linalg.norm(coeffs)
        res = oracle.expm_apply(build_momentum(dim), 1j * 2.0, coeffs)
        assert abs(np.linalg.norm(res.vector) - 1.0) <= 1e-12

    def test_group_property(self):
        dim = 40
        p = build_momentum(dim)
        v = basis(0, dim)
        va = oracle.expm_apply(p, 1j * 0.4, v).vector
        vb = oracle.expm_apply(p, 1j * 0.6, va).vector
        vc = oracle.expm_apply(p, 1j * 1.0, v).vector
        assert np.max(np.abs(vb - vc)) <= 1e-10

    def test_refinement_stability(self):
        small = oracle.expm_apply(build_momentum(48), 1j * 1.5, basis(0, 48))
        large = oracle.expm_apply(build_momentum(96), 1j * 1.5, basis(0, 96))
        assert np.max(np.abs(large.vector[:40] - small.vector[:40])) <= max(
            small.residual_bound * 4, 1e-10
        )

    def test_residual_bound_reported(self):
        res = oracle.expm_apply(build_momentum(32), 1j * 1.0, basis(0, 32), tol=1e-12)
        assert 0 <= res.residual_bound <= 1e-11
        assert res.series_terms > 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            oracle.expm_apply(build_momentum(8), 1j, basis(0, 9))

    def test_non_square_operator(self):
        with pytest.raises(DimensionError):
            oracle.expm_apply(build_momentum(8)[:, :7], 1j, basis(0, 7))

    def test_dense_cap(self):
        with pytest.raises(DimensionError):
            oracle.expm_matrix(np.zeros((600, 600)), 1j)

    def test_non_unitary_generator(self):
        # real exponent of the position operator: not norm preserving,
        # still matches the eigendecomposition
        dim = 16
        x = build_position(dim)
        res = oracle.expm_apply(x, 0.5, basis(0, dim))
        eig, vec = np.linalg.eigh(x.real)
        want = vec @ (np.exp(0.5 * eig) * vec.T[:, 0])
        assert np.max(np.abs(res.vector - want)) <= 1e-11


def random_hermitian(dim):
    rng = np.random.default_rng(dim)
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (mat + mat.conj().T) / (2.0 * np.sqrt(dim))


# (operator, z): three skew-Hermitian exponents and one real exponent of the
# position, whose exponential does not preserve the norm
ACTION_CASES = {
    "momentum": (build_momentum, 1.5j),
    "position, real z": (build_position, 0.5),
    "number": (lambda dim: build_number_function(dim, lambda n: n), 0.3j),
    "random Hermitian": (random_hermitian, 2.0j),
}


class TestTaylorAction:
    @pytest.mark.parametrize("dim", [8, 32, 96, 256])
    @pytest.mark.parametrize("case", sorted(ACTION_CASES))
    def test_matches_the_dense_exponential(self, case, dim):
        build, z = ACTION_CASES[case]
        op = build(dim)
        rng = np.random.default_rng(dim + 1)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        tol = 1e-12
        res = oracle.expm_apply(op, z, v, tol)
        mat, _, _ = oracle.expm_matrix(op, z)
        vnorm = np.linalg.norm(v)
        assert np.linalg.norm(res.vector - mat @ v) <= tol * vnorm
        assert 0.0 <= res.residual_bound <= tol * vnorm

    @pytest.mark.parametrize(("dim", "t"), [(256, 16.0), (256, -16.0), (512, 64.0)])
    def test_bound_covers_the_error_against_the_closed_form(self, dim, t):
        # evolved vacuum amplitudes are (-1)^l (l+1) J_{l+1}(2t)/t; the amplitude
        # at level dim is below 1e-190, so the truncation leaves the sampled levels
        res = oracle.expm_apply(build_momentum(dim), 1j * t, basis(0, dim))
        assert res.residual_bound <= 1e-12
        levels = range(0, int(2 * abs(t)) + 60, 5)
        with mp.workdps(40):
            want = [(-1) ** l * (l + 1) * mp.besselj(l + 1, 2 * t) / t for l in levels]
            err = max(abs(mp.mpc(complex(res.vector[l])) - w) for l, w in zip(levels, want))
        assert err <= res.residual_bound

    def test_never_forms_the_exponential(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("expm_apply formed a dense exponential")

        monkeypatch.setattr(oracle, "expm_matrix", refuse)
        monkeypatch.setattr(oracle, "_taylor_expm", refuse)
        res = oracle.expm_apply(build_momentum(64), 3j, basis(2, 64))
        assert abs(np.linalg.norm(res.vector) - 1.0) <= 1e-12


class TestTruncationLevel:
    def test_zero_time(self):
        assert oracle.truncation_level(0.0, 3, 1e-10) == 5
        assert oracle.truncation_level(0.0, 0, 1e-6) == 2

    def test_adequacy_at_unit_time(self):
        n = oracle.truncation_level(1.0, 0, 1e-10)
        assert 10 <= n <= 64
        small = oracle.expm_apply(build_momentum(n), 1j, basis(0, n)).vector
        big = oracle.expm_apply(build_momentum(2 * n), 1j, basis(0, 2 * n)).vector
        assert np.linalg.norm(big[:n] - small) + np.linalg.norm(big[n:]) < 1e-10

    def test_adequacy_high_level(self):
        n = oracle.truncation_level(4.0, 8, 1e-8)
        small = oracle.expm_apply(build_momentum(n), 4j, basis(8, n)).vector
        big = oracle.expm_apply(build_momentum(2 * n), 4j, basis(8, 2 * n)).vector
        assert np.linalg.norm(big[:n] - small) + np.linalg.norm(big[n:]) < 1e-8

    def test_kinetic_generator_spreads_faster(self):
        assert oracle.truncation_level(1.0, 0, 1e-8, generator="P2") >= oracle.truncation_level(
            1.0, 0, 1e-8, generator="P"
        )

    def test_dimension_cap_past_the_translation_cap(self):
        # t = 30 still fits: the doubling certifies a dimension of at most 512
        n = oracle.truncation_level(30.0, 4, 1e-10)
        assert n <= 512
        small = oracle.expm_apply(build_momentum(n), 30j, basis(4, n)).vector
        big = oracle.expm_apply(build_momentum(2 * n), 30j, basis(4, 2 * n)).vector
        assert np.linalg.norm(big[:n] - small) + np.linalg.norm(big[n:]) < 1e-10
        with pytest.raises(ConvergenceError):
            oracle.truncation_level(100.0, 4, 1e-10)


class TestReferenceIntegrals:
    def test_even_moments(self):
        for j in range(6):
            got = oracle.semicircle_expectation(lambda y, j=j: y ** (2 * j), 64)
            assert abs(got - catalan(j)) <= 1e-11

    def test_char_function_at_zero(self):
        assert abs(oracle.char_function_quadrature(0.0) - 1.0) <= 1e-14
