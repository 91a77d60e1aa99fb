from math import comb

import numpy as np
import pytest

from semicircleqm.combinatorics import catalan
from semicircleqm.exceptions import DimensionError, DomainError, TruncationError
from semicircleqm.fock import (
    FockVector,
    build_annihilation,
    build_creation,
    build_momentum,
    build_number_function,
    build_position,
    coherent_kernel,
    coherent_kernel_truncated,
    commutator,
    harmonic_char,
    harmonic_char_from_state,
    lie_bracket_checks,
    multiplication_table_checks,
    vacuum_moment,
    vacuum_projection,
)


class TestBuilders:
    def test_lowering_kills_vacuum(self):
        a = build_annihilation(6)
        e0 = FockVector.basis(0, 6)
        assert np.all(a.apply(e0).coeffs == 0)

    def test_raising_shifts(self):
        ap = build_creation(6)
        assert np.allclose(ap.apply(FockVector.basis(2, 6)).coeffs, FockVector.basis(3, 6).coeffs)

    def test_raising_truncates_top(self):
        ap = build_creation(4)
        assert np.all(ap.apply(FockVector.basis(3, 4)).coeffs == 0)

    def test_lower_after_raise_is_identity(self):
        n = 8
        a, ap = build_annihilation(n), build_creation(n)
        prod = a @ ap
        for k in range(n - 1):
            ek = FockVector.basis(k, n)
            assert np.allclose(prod.apply(ek).coeffs, ek.coeffs)

    def test_adjoint_pairing(self):
        a = build_annihilation(7)
        assert np.allclose(a.adjoint().entries, build_creation(7).entries)

    def test_dimension_guard(self):
        with pytest.raises(DimensionError):
            build_annihilation(1)

    def test_number_function_diagonals(self):
        lam = build_number_function(5, lambda n: n)
        assert np.allclose(np.diag(lam.entries), [0, 1, 2, 3, 4])
        omega = build_number_function(5, lambda n: 0.0 if n == 0 else 1.0)
        eye_minus_p0 = np.eye(5, dtype=complex) - vacuum_projection(5).entries
        assert np.allclose(omega.entries, eye_minus_p0)
        delta0 = build_number_function(5, lambda n: 1.0 if n == 0 else 0.0)
        assert np.allclose(delta0.entries, vacuum_projection(5).entries)


class TestPositionMomentum:
    def test_matrix_entry(self):
        x = build_position(5)
        assert x.entries[0, 1] == 1.0

    def test_position_spectrum(self):
        eig = np.sort(np.linalg.eigvalsh(build_position(5).entries.real))
        want = np.sort(2.0 * np.cos(np.arange(1, 6) * np.pi / 6.0))
        assert np.allclose(eig, want, atol=1e-13)
        assert np.max(np.abs(eig)) < 2.0

    def test_norm_approaches_two(self):
        norms = [
            float(np.max(np.abs(np.linalg.eigvalsh(build_position(n).entries.real))))
            for n in (4, 8, 16, 32, 64)
        ]
        for n, got in zip((4, 8, 16, 32, 64), norms):
            assert abs(got - 2.0 * np.cos(np.pi / (n + 1))) <= 1e-12
        assert all(b > a for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 2.0

    def test_momentum_hermitian(self):
        p = build_momentum(9)
        assert np.allclose(p.entries, p.adjoint().entries)


class TestCommutators:
    def test_lowering_raising_interior(self):
        n = 8
        a, ap = build_annihilation(n), build_creation(n)
        c = commutator(a, ap)
        assert np.allclose(c.interior_block(), vacuum_projection(n).interior_block())

    def test_position_momentum_interior(self):
        n = 8
        c = commutator(build_position(n), build_momentum(n))
        assert np.allclose(c.interior_block(), 2j * vacuum_projection(n).interior_block())

    def test_self_commutator_vanishes(self):
        a = build_annihilation(6)
        assert np.all(commutator(a, a).entries == 0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            commutator(build_annihilation(4), build_annihilation(5))

    def test_number_shift_relations(self):
        n = 9
        f = build_number_function(n, lambda k: k * k + 1.0)
        f_shift = build_number_function(n, lambda k: (k + 1) ** 2 + 1.0)
        a, ap = build_annihilation(n), build_creation(n)
        lhs = (f @ ap) - (ap @ f_shift)
        assert np.max(np.abs(lhs.interior_block())) == 0.0
        rhs = (a @ f) - (f_shift @ a)
        assert np.max(np.abs(rhs.interior_block())) == 0.0

    def test_multiplication_table_exact(self):
        for report in multiplication_table_checks(10):
            assert report.passed, str(report)


class TestVacuumMoments:
    def test_second_moment(self):
        assert vacuum_moment(2, "X", 16) == 1

    def test_odd_moment_vanishes(self):
        assert vacuum_moment(1, "P", 16) == 0
        assert vacuum_moment(7, "X", 16) == 0

    def test_sixth_moment(self):
        assert vacuum_moment(6, "X", 16) == 5

    @pytest.mark.parametrize("n", [*range(0, 9), 40])
    def test_even_moments_are_catalan_for_both(self, n):
        # C_40 > 2^63 is past `catalan`'s 64-bit range: binomial(2n, n)/(n+1) there
        dim = 4 * n + 4
        want = catalan(n) if n <= 30 else comb(2 * n, n) // (n + 1)
        assert vacuum_moment(2 * n, "X", dim) == want
        assert vacuum_moment(2 * n, "P", dim) == want

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            vacuum_moment(8, "X", 16)

    def test_which_validation(self):
        with pytest.raises(DomainError):
            vacuum_moment(2, "Q", 16)


class TestLieBrackets:
    def test_all_relations_exact(self):
        for report in lie_bracket_checks(12, 3, 3):
            assert report.passed, str(report)

    def test_lowest_relations_explicitly(self):
        n = 6
        a, ap = build_annihilation(n), build_creation(n)
        p0 = vacuum_projection(n)
        lhs = commutator(a, p0)
        assert np.allclose(lhs.entries, -(p0 @ a).entries)
        lhs2 = commutator(ap, p0)
        assert np.allclose(lhs2.entries, (ap @ p0).entries)

    def test_off_diagonal_bracket_is_rank_one(self):
        n = 8
        a, ap = build_annihilation(n), build_creation(n)
        p0 = vacuum_projection(n)
        t1 = (ap @ ap) @ p0  # raises twice from the vacuum
        t2 = p0 @ a
        c = commutator(t1, t2).entries
        want = np.zeros((n, n), dtype=complex)
        want[2, 1] = 1.0
        assert np.allclose(c, want)

    def test_diagonal_bracket_carries_vacuum_correction(self):
        # [a+ P0, P0 a] = e1 e1* - P0, not e1 e1* alone
        n = 6
        a, ap = build_annihilation(n), build_creation(n)
        p0 = vacuum_projection(n)
        c = commutator(ap @ p0, p0 @ a).entries
        want = np.zeros((n, n), dtype=complex)
        want[1, 1] = 1.0
        want[0, 0] = -1.0
        assert np.allclose(c, want)


class TestCoherent:
    def test_vacuum_overlap(self):
        assert coherent_kernel(0.0, 0.7) == 1.0

    def test_real_symmetric(self):
        assert abs(coherent_kernel(0.5, 0.5) - 4.0 / 3.0) < 1e-15

    def test_complex_value_vs_truncated_series(self):
        u, v = 0.3j, 0.4
        closed = coherent_kernel(u, v)
        assert abs(closed - (0.9858044164037855 - 0.11829652996845426j)) < 1e-15
        partial, tail = coherent_kernel_truncated(u, v, 200)
        assert abs(closed - partial) <= tail + 1e-15

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            coherent_kernel(1.0, 0.5)


class TestHarmonicChar:
    def test_time_zero(self):
        assert harmonic_char(0.0, 0.3, 1.7) == 1.0

    def test_pure_vacuum(self):
        t, w = 0.9, 1.3
        assert abs(harmonic_char(t, 1.0, w) - np.exp(1j * t * w)) < 1e-15

    def test_mixture(self):
        t = 1.1
        want = 0.25 * np.exp(1j * t) + 0.75 * np.exp(2j * t)
        assert abs(harmonic_char(t, 0.25, 1.0) - want) < 1e-15

    def test_against_diagonal_state(self):
        xi = FockVector.from_coeffs([0.5, np.sqrt(0.75), 0.0, 0.0, 0.0])
        for t in (0.0, 0.4, 2.3):
            assert abs(harmonic_char(t, 0.25, 1.0) - harmonic_char_from_state(t, xi, 1.0)) < 1e-14

    def test_weight_validation(self):
        with pytest.raises(DomainError):
            harmonic_char(1.0, 1.2, 1.0)
