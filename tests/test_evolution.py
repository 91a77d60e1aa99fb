import mpmath as mp
import numpy as np
import pytest

from semicircleqm import checks, evolution, oracle
from semicircleqm.evolution import (
    CoeffKind,
    Generator,
    build_coeff_table,
    char_function,
    char_function_catalan_series,
    coeff_I,
    coeff_I2,
    coeff_I2_series,
    coeff_I_series,
    element_table,
    evolve,
    evolve_H1,
    evolve_P,
    evolve_P2_level1,
    evolve_P2_vacuum,
    evolve_P_pointwise,
    evolve_X,
    evolve_X_vacuum_pointwise,
    heisenberg_aplus_P,
    heisenberg_aplus_P2,
    heisenberg_block,
    matrix_element_P,
    state_char_function,
)
from semicircleqm.exceptions import CrossCheckError, DomainError, TruncationError
from semicircleqm.fock import build_momentum, build_position
from semicircleqm.specfun import bessel_j, bessel_j_all

NAN = float("nan")


def momentum_oracle_column(t, k, dim):
    mat, _, _ = oracle.expm_matrix(build_momentum(dim), 1j * t)
    return mat[:, k]


def offset_engine_column(monkeypatch, offset):
    """Shift every entry of the engine's vacuum column, the route checked against the series."""
    column = evolution._coeff_column
    monkeypatch.setattr(evolution, "_coeff_column", lambda kind, t, s: column(kind, t, s) + offset)


class TestCoeffI:
    def test_vacuum_entry_is_bessel_ratio(self):
        for t in (1e-9, 0.3, 1.0, 2.5):
            assert abs(coeff_I(0, 0, t) - bessel_j_all(1, 2 * t).values[1] / t) <= 1e-14

    def test_time_zero_delta(self):
        assert coeff_I(0, 0, 0.0) == 1.0
        assert coeff_I(2, 1, 0.0) == 0.0
        assert coeff_I(0, 3, 0.0) == 0.0

    def test_one_one_value(self):
        # -3 J_3(1.4)/0.7 from the high-precision series
        got = coeff_I(1, 1, 0.7)
        assert abs(got - (-0.21641877123836266)) <= 1e-14
        assert abs(coeff_I_series(1, 1, 0.7) - got) <= 1e-13

    @pytest.mark.parametrize("t", [0.25, 0.8, 2.0, 4.0])
    def test_symmetry_relations_from_series_alone(self, t):
        # both reflections computed from the defining series independently
        for m in range(0, 21):
            for n in range(0, 21 - m):
                base = coeff_I_series(m, n, t)
                assert abs(base - (-1.0) ** m * coeff_I_series(0, m + n, t)) <= 1e-12
                assert abs(base - (-1.0) ** n * coeff_I_series(m + n, 0, t)) <= 1e-12

    def test_argument_cap(self):
        with pytest.raises(DomainError):
            coeff_I(0, 0, 17.0)

    def test_route_disagreement_is_detected(self, monkeypatch):
        offset_engine_column(monkeypatch, 0.123)
        with pytest.raises(CrossCheckError):
            coeff_I(0, 0, 1.0)

    @pytest.mark.parametrize("kind", list(CoeffKind))
    def test_tables_cross_check_the_engine_column(self, monkeypatch, kind):
        offset_engine_column(monkeypatch, 0.123)
        with pytest.raises(CrossCheckError):
            build_coeff_table(kind, 1.0, 4)

    def test_small_offset_at_the_edge_is_detected(self, monkeypatch):
        # the routes agree to ~5e-16 here; a check widened to 64 eps sum|terms| (~4e-3) let 1e-10 pass
        offset_engine_column(monkeypatch, 1e-10)
        with pytest.raises(CrossCheckError):
            build_coeff_table(CoeffKind.MOMENTUM_I, 15.9, 20)


class TestMatrixElements:
    def test_column_from_vacuum(self):
        t = 1.3
        for l in range(6):
            want = (-1.0) ** l * (l + 1) * bessel_j(l + 1, 2 * t).value / t
            assert abs(matrix_element_P(l, 0, t) - want) <= 1e-13

    def test_identity_at_time_zero(self):
        for l, k in ((0, 0), (2, 2), (3, 1), (1, 4)):
            assert matrix_element_P(l, k, 0.0) == (1.0 if l == k else 0.0)

    def test_against_matrix_exponential(self):
        assert checks.evolutions_vs_oracle("P", (1.2,), (3,), 1e-10)[1] <= 1e-9

    def test_transpose_symmetry(self):
        # the group element table is symmetric up to a sign flip of l-k
        t = 0.9
        for l in range(5):
            for k in range(5):
                assert abs(
                    matrix_element_P(l, k, t) - (-1.0) ** (l - k) * matrix_element_P(k, l, t)
                ) <= 1e-13

    def test_time_reversal_is_adjoint(self):
        t = 0.8
        u_pos = element_table("P", t, 10)
        u_neg = element_table("P", -t, 10)
        assert np.max(np.abs(u_neg - u_pos.conj().T)) <= 1e-13


class TestEvolveP:
    def test_time_zero_is_identity(self):
        state = evolve_P(0, 0.0)
        assert state.amplitudes[0] == 1.0
        assert np.all(state.amplitudes[1:] == 0)

    def test_unit_norm_and_oracle_match(self):
        state = evolve_P(0, 1.0, l_max=40, tol=1e-10)
        assert state.norm_defect() <= 1e-8
        col = momentum_oracle_column(1.0, 0, 64)
        assert np.max(np.abs(state.amplitudes - col[:41])) <= 1e-8

    def test_pointwise_closed_form(self):
        for (k, t, x) in ((3, 0.5, 0.4), (0, 1.0, -1.1), (2, 2.0, 1.3)):
            state = evolve_P(k, t, tol=1e-12)
            assert abs(state.evaluate(x) - evolve_P_pointwise(k, t, x, tol=1e-12)) <= 1e-10

    @pytest.mark.parametrize("t", [16.0, -16.0])
    def test_pointwise_closed_form_at_the_cap(self, t):
        state = evolve_P(1, t, tol=1e-12)
        assert abs(state.evaluate(0.7) - evolve_P_pointwise(1, t, 0.7, tol=1e-12)) <= 1e-10

    @pytest.mark.parametrize("t", [16.5, -16.5, 30.0])
    def test_pointwise_closed_form_refuses_past_the_cap(self, t):
        with pytest.raises(DomainError):
            evolve_P_pointwise(0, t, 0.3)

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            evolve_P(0, 2.0, l_max=3, tol=1e-10)

    def test_tail_index_recorded(self):
        state = evolve_P(2, 1.5, tol=1e-9)
        assert state.tail_index >= 1
        assert state.amplitudes.size == state.k + state.tail_index + 1


class TestEvolveX:
    def test_time_zero_is_identity(self):
        state = evolve_X(3, 0.0, l_max=6)
        want = np.zeros(7, dtype=complex)
        want[3] = 1.0
        assert np.allclose(state.amplitudes, want)

    def test_vacuum_pointwise_formula(self):
        t, x = 0.8, 1.1
        want = np.exp(1j * t * x) - 1j * x * bessel_j(1, 2 * t).value
        assert abs(evolve_X_vacuum_pointwise(t, x) - want) <= 1e-15

    def test_vacuum_amplitudes_sum_to_plane_wave(self):
        # the position operator is multiplication, so the evolved vacuum
        # is exactly e^(itx); the first-kind reassembly differs from it
        # by its removed order-one term i x J_1(2t)
        for t in (0.4, 1.7):
            state = evolve_X(0, t, tol=1e-12)
            j1 = bessel_j(1, 2 * t).value
            for x in (-1.5, 0.2, 0.9):
                assert abs(state.evaluate(x) - np.exp(1j * t * x)) <= 1e-10
                assert abs(state.evaluate(x) - evolve_X_vacuum_pointwise(t, x) - 1j * x * j1) <= 1e-10

    def test_against_matrix_exponential(self):
        t = 0.6
        dim = oracle.truncation_level(t, 1, 1e-10, generator="X")
        mat, _, _ = oracle.expm_matrix(build_position(dim), 1j * t)
        state = evolve_X(1, t, l_max=40, tol=1e-10)
        top = min(41, dim)
        assert np.max(np.abs(state.amplitudes[:top] - mat[:top, 1])) <= 1e-8

    def test_unit_norm(self):
        for t in (0.5, 2.0):
            assert evolve_X(4, t, tol=1e-12).norm_defect() <= 1e-9


class TestCharFunctions:
    def test_time_zero(self):
        assert char_function(Generator.P, 0.0) == 1.0

    def test_value_at_one(self):
        assert abs(char_function("P", 1.0) - 0.5767248077568734) <= 1e-15

    def test_equal_for_position_and_momentum(self):
        for t in (0.3, 1.1, 3.7):
            assert char_function("P", t) == char_function("X", t)

    def test_against_quadrature(self):
        for t in np.linspace(0.0, 4.0, 21):
            got = char_function("P", float(t))
            want = oracle.char_function_quadrature(float(t), 256)
            assert abs(got - want) <= 1e-10

    def test_catalan_series_route(self):
        for t in np.linspace(0.1, 8.0, 12):
            assert abs(char_function("P", float(t)) - char_function_catalan_series(float(t))) <= 1e-12

    @pytest.mark.parametrize("t", [16.0, -16.0])
    def test_catalan_series_at_the_cap(self, t):
        with mp.workdps(40):
            want = float(mp.besselj(1, 2 * t) / t)
        assert abs(char_function_catalan_series(t) - want) <= 1e-15

    def test_state_char_vacuum(self):
        for t in (0.5, 1.5):
            assert abs(state_char_function(0, t) - char_function("P", t)) <= 1e-15

    def test_state_char_at_time_zero(self):
        for l in (0, 1, 5):
            assert state_char_function(l, 0.0) == 1.0

    def test_state_char_against_oracle(self):
        t, l = 1.3, 2
        dim = oracle.truncation_level(t, l, 1e-10)
        mat, _, _ = oracle.expm_matrix(build_momentum(dim), 1j * t)
        assert abs(state_char_function(l, t) - mat[l, l]) <= 1e-9

    def test_rejects_kinetic_generator(self):
        with pytest.raises(DomainError):
            char_function("P2", 1.0)

    @pytest.mark.parametrize("t", [16.5, -20.0, 24.0])
    def test_beyond_translation_cap_rejected(self, t):
        # the Bessel ratio route returned -15.98 at t = 24 (mpmath: -4.7e-4)
        with pytest.raises(DomainError):
            char_function("P", t)
        with pytest.raises(DomainError):
            char_function("X", t)
        with pytest.raises(DomainError):
            state_char_function(2, t)

    def test_translation_cap_itself_allowed(self):
        for t in (16.0, -16.0):
            assert abs(char_function("P", t)) <= 1.0
            assert abs(state_char_function(2, t)) <= 1.0


class TestKineticCoefficients:
    def test_vacuum_entry_is_hypergeometric(self):
        from semicircleqm.specfun import hyp1f1

        for t in (0.2, 0.9):
            want = hyp1f1(0.5, 2.0, 4j * t).value
            assert abs(coeff_I2(0, 0, t) - want) <= 1e-13

    def test_odd_orders_vanish(self):
        assert coeff_I2(1, 0, 0.7) == 0j
        assert coeff_I2(0, 3, 0.7) == 0j

    def test_series_route_agrees(self):
        for t in (0.25, 1.0, 2.0):
            for m in range(0, 7):
                for n in range(0, 7 - m):
                    if (m + n) % 2 == 0:
                        assert abs(coeff_I2(m, n, t) - coeff_I2_series(m, n, t)) <= 1e-11

    def test_reflection_symmetry(self):
        for t in (0.4, 1.5):
            for m in range(0, 6):
                for n in range(0, 6 - m):
                    base = coeff_I2_series(m, n, t)
                    assert abs(base - (-1) ** m * coeff_I2_series(0, m + n, t)) <= 1e-12
                    assert abs(base - (-1) ** n * coeff_I2_series(m + n, 0, t)) <= 1e-12

    def test_against_matrix_exponential(self):
        t = 0.4
        dim = oracle.truncation_level(t, 0, 1e-10, generator="P2")
        p = build_momentum(dim)
        mat, _, _ = oracle.expm_matrix(p @ p, 1j * t)
        assert abs(coeff_I2(0, 2, t) - mat[2, 0]) <= 1e-9


class TestEvolveP2:
    def test_time_zero(self):
        state = evolve_P2_vacuum(0.0)
        assert state.amplitudes[0] == 1.0
        assert np.all(state.amplitudes[1:] == 0)

    def test_ground_amplitude_is_coefficient(self):
        for t in (0.2, 0.7):
            state = evolve_P2_vacuum(t, tol=1e-11)
            assert abs(state.amplitudes[0] - coeff_I2(0, 0, t)) <= 1e-14

    def test_even_support(self):
        state = evolve_P2_vacuum(0.5, tol=1e-11)
        assert np.all(state.amplitudes[1::2] == 0)

    def test_unit_norm(self):
        for t in (0.3, 1.0, 2.0):
            assert evolve_P2_vacuum(t, tol=1e-12).norm_defect() <= 1e-9

    def test_vacuum_against_oracle(self):
        t = 0.3
        dim = oracle.truncation_level(t, 0, 1e-10, generator="P2")
        p = build_momentum(dim)
        mat, _, _ = oracle.expm_matrix(p @ p, 1j * t)
        state = evolve_P2_vacuum(t, l_max=40, tol=1e-10)
        top = min(41, dim)
        assert np.max(np.abs(state.amplitudes[:top] - mat[:top, 0])) <= 1e-7

    def test_first_level_against_oracle(self):
        assert checks.evolutions_vs_oracle("P2", (0.35,), (1,), 1e-10)[0] <= 1e-7

    def test_odd_support_for_first_level(self):
        state = evolve_P2_level1(0.4, tol=1e-10)
        assert np.all(state.amplitudes[0::2] == 0)


class TestHeisenbergP:
    def test_zero_time(self):
        assert heisenberg_aplus_P(0.0, 2, 3) == 0j

    def test_symmetry(self):
        for (m, n) in ((0, 1), (2, 3), (1, 4)):
            assert abs(heisenberg_aplus_P(0.7, m, n) - heisenberg_aplus_P(0.7, n, m)) <= 1e-12

    def test_omega_scales_linearly(self):
        base = heisenberg_aplus_P(0.5, 0, 0, omega=1.0)
        assert abs(heisenberg_aplus_P(0.5, 0, 0, omega=2.5) - 2.5 * base) <= 1e-13

    def test_against_oracle_conjugation(self):
        assert checks.heisenberg_conjugation("P", (0.9,), 1) <= 1e-6

    def test_negative_time_parity(self):
        # the kernel u_m(s) u_n(s) of the evolved vacuum has parity
        # (-1)^(m+n) in s, so the correction has parity (-1)^(m+n+1) in t
        for (m, n) in ((0, 0), (1, 2), (2, 2), (0, 3)):
            plus = heisenberg_aplus_P(0.5, m, n)
            minus = heisenberg_aplus_P(-0.5, m, n)
            assert abs(minus - (-1.0) ** (m + n + 1) * plus) <= 1e-12

    def test_negative_time_against_oracle(self):
        assert checks.heisenberg_conjugation("P", (-0.5,), 3) <= 1e-8

    @pytest.mark.parametrize("t", [12.0, -16.0, 16.0])
    def test_block_against_oracle_to_the_cap(self, t):
        assert checks.heisenberg_conjugation("P", (t,), 4) <= 1e-8

    def test_beyond_translation_cap_rejected(self):
        with pytest.raises(DomainError):
            heisenberg_aplus_P(16.5, 0, 0)

    def test_block_matches_entries(self):
        block = heisenberg_block("P", 0.9, 7, 7)
        entries = np.array([[heisenberg_aplus_P(0.9, m, n) for n in range(8)] for m in range(8)])
        assert np.max(np.abs(block - entries)) <= 1e-8

    @pytest.mark.parametrize("generator", ["X", "H1"])
    def test_block_rejects_other_generators(self, generator):
        with pytest.raises(DomainError):
            heisenberg_block(generator, 0.5, 2, 2)


class TestHeisenbergP2:
    def test_zero_time(self):
        assert np.all(heisenberg_aplus_P2(0.0, 3, 3) == 0)

    def test_hermitian_block(self):
        block = heisenberg_aplus_P2(0.25, 5, 5)
        assert np.max(np.abs(block - block.conj().T)) <= 1e-10

    def test_against_oracle_conjugation(self):
        assert checks.heisenberg_conjugation("P2", (0.25,), 8) <= 1e-6


class TestTablesAndGroupLaw:
    def test_group_law_momentum(self):
        assert checks.group_law({"P": ((0.3, 0.7),)}) <= 1e-8

    def test_group_law_position(self):
        assert checks.group_law({"X": ((0.3, 0.7),)}) <= 1e-8

    def test_coeff_table_invariants(self):
        for kind in (CoeffKind.MOMENTUM_I, CoeffKind.POSITION_I, CoeffKind.KINETIC_I2):
            table = build_coeff_table(kind, 0.8, 6)
            for report in table.validate():
                assert report.passed, str(report)
            assert max(table.agreements.values()) <= 1e-11

    @pytest.mark.parametrize("kind, size", [(CoeffKind.KINETIC_I2, 7), (CoeffKind.MOMENTUM_I, 13)])
    def test_series_cached_once_per_order_sum(self, kind, size):
        # one defining series per s = m + n (per even s for the kinetic group)
        series = evolution._series_cached
        series.cache_clear()
        build_coeff_table(kind, 0.7, 12)
        assert series.cache_info().currsize == size

    def test_coeff_table_at_time_zero(self):
        table = build_coeff_table(CoeffKind.MOMENTUM_I, 0.0, 4)
        for report in table.validate():
            assert report.passed, str(report)

    def test_evolve_h1_phases(self):
        state0 = evolve_H1(0, 1.2, omega1=1.5)
        assert abs(state0.amplitudes[0] - np.exp(1j * 1.2 * 1.5)) <= 1e-15
        state2 = evolve_H1(2, 1.2, omega1=1.5)
        assert abs(state2.amplitudes[2] - np.exp(2j * 1.2 * 1.5)) <= 1e-15
        assert state2.norm_defect() <= 1e-15


def closed_form_column(generator, k, t, size):
    """<l | e^{itG} | k> for l < size from the Bessel and 1F1 closed forms, at 30 digits."""
    with mp.workdps(30):
        t = mp.mpf(t)

        def bessel(l):
            return (l + 1) * mp.besselj(l + 1, 2 * t) / t

        def kinetic(n):  # I2[0, n](t) for even n
            h = n // 2
            return (-1j * t) ** h / mp.factorial(h) * mp.hyp1f1(mp.mpf(n + 1) / 2, n + 2, 4j * t)

        out = np.zeros(size, dtype=complex)
        for l in range(size):
            if generator == "P":
                out[l] = complex((-1) ** l * bessel(l))
            elif generator == "X":
                out[l] = complex(mp.mpc(0, 1) ** l * bessel(l))
            elif l % 2 == k:
                out[l] = complex(kinetic(l) if k == 0 else kinetic(l - 1) - kinetic(l + 1))
        return out


class TestSineTransformEngine:
    @pytest.mark.parametrize(
        "call",
        [lambda: evolve_P(0, NAN), lambda: element_table("X", NAN, 4), lambda: coeff_I2(0, 2, NAN),
         lambda: heisenberg_block("P2", NAN, 2, 2), lambda: evolve_P(0, 1.0, tol=NAN),
         lambda: evolve_P2_vacuum(1.0, tol=NAN), lambda: heisenberg_block("P", 1.0, 2, 2, tol=NAN)],
        ids=["evolve", "element-table", "coefficient", "heisenberg", "nan-tol", "kinetic-nan-tol",
             "heisenberg-nan-tol"],
    )
    def test_nan_arguments_are_refused(self, call):
        with pytest.raises(DomainError):
            call()

    @pytest.mark.parametrize(
        "generator, k, t",
        [("P", 0, t) for t in (16.0, -16.0, 12.7)]
        + [("X", 0, t) for t in (16.0, -16.0, 12.7)]
        + [("P2", k, t) for k in (0, 1) for t in (8.0, -8.0)],
    )
    def test_domain_edges_against_mpmath(self, generator, k, t):
        named = {
            ("P", 0): lambda: evolve_P(0, t),
            ("X", 0): lambda: evolve_X(0, t),
            ("P2", 0): lambda: evolve_P2_vacuum(t),
            ("P2", 1): lambda: evolve_P2_level1(t),
        }
        state = named[(generator, k)]()
        want = closed_form_column(generator, k, t, state.amplitudes.size)
        assert np.max(np.abs(state.amplitudes - want)) <= 1e-12
        assert state.norm_defect() <= 1e-10

    @pytest.mark.parametrize(
        "call, rows",
        [(lambda: evolve_P(0, 16.0), 191), (lambda: evolve_P2_vacuum(8.0), 261), (lambda: evolve_P2_vacuum(2.0), 85),
         (lambda: evolve_X(3, -11.0), 114), (lambda: evolve_P2_level1(-5.5), 190)],
        ids=["P-16", "P2-vacuum-8", "P2-vacuum-2", "X-3-minus-11", "P2-level1-minus-5.5"],
    )
    def test_default_rows_are_pinned(self, call, rows):
        # the tail levels of both generators come from one search; their row counts stay put
        assert call().amplitudes.size == rows

    def test_truncation_grows_past_a_short_start(self, monkeypatch):
        # a tail level of 1 starts the truncation far too small; the
        # agreement check must keep growing it
        monkeypatch.setattr(evolution, "bessel_tail_index", lambda t, tol: 1)
        state = evolve_P(0, 8.0, l_max=40)
        assert np.max(np.abs(state.amplitudes - closed_form_column("P", 0, 8.0, 41))) <= 1e-12

    def test_unreachable_agreement_raises(self):
        # rounding alone separates two truncations by more than 1e-21
        with pytest.raises(TruncationError):
            evolve_X(0, 1.0, tol=1e-20)

    def test_kinetic_from_any_level(self):
        t, k = 0.3, 2
        state = evolve("P2", k, t)
        dim = oracle.truncation_level(t, state.amplitudes.size, 1e-10, generator="P2")
        p = build_momentum(dim)
        mat, _, _ = oracle.expm_matrix(p @ p, 1j * t)
        assert np.max(np.abs(state.amplitudes - mat[: state.amplitudes.size, k])) <= 1e-9
        assert np.all(state.amplitudes[1::2] == 0)

    def test_table_matches_columns(self):
        for gen in ("P", "X", "P2"):
            table = element_table(gen, 0.9, 6)
            for k in range(7):
                column = evolve(gen, k, 0.9).amplitudes[:7]
                assert np.max(np.abs(table[:, k] - column)) <= 1e-14

    def test_table_identity_at_time_zero(self):
        for gen in ("P", "X", "P2"):
            assert np.array_equal(element_table(gen, 0.0, 5), np.eye(6))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: evolve_X(0, 20.0),
            lambda: evolve_P(0, -16.5),
            lambda: evolve_P2_level1(9.0),
            lambda: element_table("X", 17.0, 3),
            lambda: build_coeff_table(CoeffKind.POSITION_I, 17.0, 4),
            lambda: build_coeff_table(CoeffKind.KINETIC_I2, -8.5, 4),
            lambda: evolve("H1", 0, 1.0),
        ],
    )
    def test_out_of_domain_is_refused(self, call):
        with pytest.raises(DomainError):
            call()


def reference_coefficient(kind, m, n, t):
    """I[m, n](t) (I2 for the kinetic kind) from the Bessel and 1F1 closed forms, at 30 digits."""
    s = m + n
    if kind is CoeffKind.KINETIC_I2:
        return (-1) ** m * closed_form_column("P2", 0, t, s + 1)[s]
    value = (-1) ** s * closed_form_column("P", 0, t, s + 1)[s]  # I[0, s]
    return 1j**s * value if kind is CoeffKind.POSITION_I else (-1) ** m * value


class TestCoefficientDomainEdges:
    @pytest.mark.parametrize(
        "kind, t",
        [(kind, t) for kind in (CoeffKind.MOMENTUM_I, CoeffKind.POSITION_I) for t in (15.9, -16.0)]
        + [(CoeffKind.KINETIC_I2, t) for t in (7.9, -8.0)],
    )
    def test_tables_against_mpmath(self, kind, t):
        table = build_coeff_table(kind, t, 20)
        want = {s: reference_coefficient(kind, 0, s, t) for s in range(21)}
        for (m, n), value in table.entries.items():
            ref = want[m + n] * (1 if kind is CoeffKind.POSITION_I else (-1) ** m)
            assert abs(value - ref) <= 1e-11
        assert max(table.agreements.values()) <= 1e-11

    @pytest.mark.parametrize("t", [15.9, -16.0])
    def test_coeff_I_against_mpmath(self, t):
        for m, n in ((0, 0), (0, 8), (3, 5), (5, 15)):
            assert abs(coeff_I(m, n, t) - reference_coefficient(CoeffKind.MOMENTUM_I, m, n, t)) <= 1e-11

    @pytest.mark.parametrize("t", [7.9, -8.0])
    def test_coeff_I2_against_mpmath(self, t):
        for m, n in ((0, 0), (0, 8), (3, 5), (5, 15)):
            assert abs(coeff_I2(m, n, t) - reference_coefficient(CoeffKind.KINETIC_I2, m, n, t)) <= 1e-11

    @pytest.mark.parametrize("t", [12.0, 15.9, 16.0])
    def test_char_functions_against_mpmath(self, t):
        with mp.workdps(30):
            tt = mp.mpf(t)
            want = complex(mp.besselj(1, 2 * tt) / tt)
            want_state = complex(sum((-1) ** m * (2 * m + 1) * mp.besselj(2 * m + 1, 2 * tt) / tt for m in range(3)))
        assert abs(char_function("P", t) - want) <= 1e-13
        assert abs(state_char_function(2, t) - want_state) <= 1e-13
