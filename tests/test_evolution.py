import cmath
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semicircleqm import checks, evolution, oracle, specfun
from semicircleqm.evolution import (
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
from semicircleqm.exceptions import DomainError, QuadratureError, TruncationError
from semicircleqm.fock import basis
from semicircleqm.specfun import bessel_j, bessel_j_all

NAN = float("nan")


def count_tail_searches(monkeypatch) -> list:
    """Record every `_tail_index` search the engine makes, through evolution or specfun."""
    true_search, searches = specfun._tail_index, []

    def counted(*args):
        searches.append(args)
        return true_search(*args)

    monkeypatch.setattr(specfun, "_tail_index", counted)
    monkeypatch.setattr(evolution, "_tail_index", counted)
    return searches


@pytest.fixture
def fresh_tail_spans():
    """Empty the cache of `_tail_span` before and after a test that replaces or counts its search."""
    evolution._tail_span.cache_clear()
    yield
    evolution._tail_span.cache_clear()


def count_exact_series(monkeypatch) -> list:
    """Record every series that `specfun._exact_series` sums, through evolution or specfun."""
    true_sum, sums = specfun._exact_series, []

    def counted(*args, **kwargs):
        sums.append(args)
        return true_sum(*args, **kwargs)

    monkeypatch.setattr(specfun, "_exact_series", counted)
    monkeypatch.setattr(evolution, "_exact_series", counted)
    return sums


def times_up_to_the_cap(gen):
    """t anywhere in [-cap, cap], and the two edges themselves."""
    cap = evolution._GENERATORS[gen].cap
    return st.floats(-cap, cap) | st.sampled_from((-cap, cap))


def offset_engine_column(monkeypatch, offset):
    """Shift every entry of the engine's vacuum column, the route checked against the series."""
    column = evolution._coeff_column
    monkeypatch.setattr(evolution, "_coeff_column", lambda gen, t, s: column(gen, t, s) + offset)


def route_gap(gen, t, max_order):
    """The largest gap of the engine's table to the defining series, by the criterion of verify and the gate."""
    return float(np.max(checks.coefficient_routes({gen: (t,)}, max_order)))


TABLE_GENERATORS = (Generator.P, Generator.X, Generator.P2)
# the ids these cases have always run under, from the tables' older kind names
KIND_IDS = {Generator.P: "CoeffKind.MOMENTUM_I", Generator.X: "CoeffKind.POSITION_I", Generator.P2: "CoeffKind.KINETIC_I2"}


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
        assert route_gap(Generator.P, 1.0, 0) <= checks.COEFF_ROUTE_TOL
        offset_engine_column(monkeypatch, 0.123)
        assert abs(coeff_I(0, 0, 1.0) - coeff_I_series(0, 0, 1.0)) == pytest.approx(0.123)
        assert route_gap(Generator.P, 1.0, 0) > checks.COEFF_ROUTE_TOL

    @pytest.mark.parametrize("gen", TABLE_GENERATORS, ids=KIND_IDS.get)
    def test_tables_cross_check_the_engine_column(self, monkeypatch, gen):
        assert route_gap(gen, 1.0, 4) <= checks.COEFF_ROUTE_TOL
        offset_engine_column(monkeypatch, 0.123)
        assert route_gap(gen, 1.0, 4) > checks.COEFF_ROUTE_TOL

    def test_small_offset_at_the_edge_is_detected(self, monkeypatch):
        # the routes agree to ~5e-16 here; a check widened to 64 eps sum|terms| (~4e-3) let 1e-10 pass
        assert route_gap(Generator.P, 15.9, 20) <= 1e-15
        offset_engine_column(monkeypatch, 1e-10)
        assert route_gap(Generator.P, 15.9, 20) > checks.COEFF_ROUTE_TOL

    def test_accuracy_is_absolute(self):
        # the engine meets the tiny I[0, 12](0.01) ~ 2.1e-33 only within rounding of 1; the series is relative
        with mp.workdps(30):
            want = float(13 * mp.besselj(13, mp.mpf("0.02")) / mp.mpf("0.01"))
        assert abs(coeff_I(0, 12, 0.01) - want) <= 1e-17
        assert abs(coeff_I_series(0, 12, 0.01) - want) <= 1e-15 * want

    def test_repeated_coefficient_searches_no_tail(self, monkeypatch):
        first = coeff_I(3, 2, 16.0)
        searches = count_tail_searches(monkeypatch)
        assert coeff_I(3, 2, 16.0) == first
        assert not searches


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
        col = oracle._certified_columns("P", 1.0, (0, 40), 1e-10)[:, 0]  # certified past level 40
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
        col = oracle._certified_columns("X", t, (1,), 1e-10)[:, 0]
        state = evolve_X(1, t, l_max=40, tol=1e-10)
        top = min(41, col.size)
        assert np.max(np.abs(state.amplitudes[:top] - col[:top])) <= 1e-8

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
        col = oracle._certified_columns("P", t, (l,), 1e-10)[:, 0]
        assert abs(state_char_function(l, t) - col[l]) <= 1e-9

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
        col = oracle._certified_columns("P2", t, (0,), 1e-10)[:, 0]
        assert abs(coeff_I2(0, 2, t) - col[2]) <= 1e-9


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
        col = oracle._certified_columns("P2", t, (0,), 1e-10)[:, 0]
        state = evolve_P2_vacuum(t, l_max=40, tol=1e-10)
        top = min(41, col.size)
        assert np.max(np.abs(state.amplitudes[:top] - col[:top])) <= 1e-7

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
        assert checks.heisenberg_conjugation("P", (0.9,), 1, 1) <= 1e-6

    def test_negative_time_parity(self):
        # the kernel u_m(s) u_n(s) of the evolved vacuum has parity
        # (-1)^(m+n) in s, so the correction has parity (-1)^(m+n+1) in t
        for (m, n) in ((0, 0), (1, 2), (2, 2), (0, 3)):
            plus = heisenberg_aplus_P(0.5, m, n)
            minus = heisenberg_aplus_P(-0.5, m, n)
            assert abs(minus - (-1.0) ** (m + n + 1) * plus) <= 1e-12

    def test_negative_time_against_oracle(self):
        assert checks.heisenberg_conjugation("P", (-0.5,), 3, 3) <= 1e-8

    @pytest.mark.parametrize("t", [12.0, -16.0, 16.0])
    def test_block_against_oracle_to_the_cap(self, t):
        assert checks.heisenberg_conjugation("P", (t,), 4, 4) <= 1e-8

    def test_beyond_translation_cap_rejected(self):
        with pytest.raises(DomainError):
            heisenberg_aplus_P(16.5, 0, 0)

    def test_unconverged_quadrature_names_its_highest_order(self):
        # the orders double from 24 and stop below 512, so 384 is the last one evaluated
        with pytest.raises(QuadratureError, match=r"did not reach tol=1e-16 by order 384$"):
            heisenberg_block("P", 16.0, 1, 1, tol=1e-16)

    def test_block_matches_entries(self):
        block = heisenberg_block("P", 0.9, 7, 7)
        entries = np.array([[heisenberg_aplus_P(0.9, m, n) for n in range(8)] for m in range(8)])
        assert np.max(np.abs(block - entries)) <= 1e-8

    @pytest.mark.parametrize("generator", ["X", "H1"])
    def test_block_rejects_other_generators(self, generator):
        with pytest.raises(DomainError):
            heisenberg_block(generator, 0.5, 2, 2)

    @pytest.mark.parametrize("generator, t", [("P", 16.0), ("P2", -8.0)])
    def test_block_searches_one_tail(self, monkeypatch, fresh_tail_spans, generator, t):
        # the tail bound grows with |t|, so the search at t sizes the column at
        # every node; a search per node would make at least 24 + 48
        searches = count_tail_searches(monkeypatch)
        heisenberg_block(generator, t, 3, 3)
        assert len(searches) == 1


class TestHeisenbergP2:
    def test_zero_time(self):
        assert np.all(heisenberg_aplus_P2(0.0, 3, 3) == 0)

    def test_hermitian_block(self):
        # the bound that the benchmark's reference applies to every P2 block at any --tol, on the
        # CLI's ranges (|t| < 2, blocks 3..6 at tol 1e-8) and at the cap t = +-8
        for t in (*np.linspace(-1.99, 1.99, 9), 0.25, -8.0, 8.0):
            for size in range(3, 7):
                block = heisenberg_aplus_P2(float(t), size - 1, size - 1, tol=1e-8)
                assert np.max(np.abs(block - block.conj().T)) <= 1e-12, (t, size)

    def test_against_oracle_conjugation(self):
        assert checks.heisenberg_conjugation("P2", (0.25,), 8, 8) <= 1e-6

    @pytest.mark.parametrize("generator, t", [("P", 0.9), ("P2", 0.25), ("P2", -8.0)])
    def test_transposed_blocks_are_adjoint(self, generator, t):
        tall = heisenberg_block(generator, t, 7, 2)
        wide = heisenberg_block(generator, t, 2, 7)
        assert tall.shape == (8, 3)
        assert np.max(np.abs(tall - wide.conj().T)) <= 1e-15


class TestTablesAndGroupLaw:
    def test_group_law_momentum(self):
        assert checks.group_law({"P": ((0.3, 0.7),)}) <= 1e-8

    def test_group_law_position(self):
        assert checks.group_law({"X": ((0.3, 0.7),)}) <= 1e-8

    def test_coeff_table_invariants(self):
        # entry (m, n) is (-1)^m times entry (0, m+n), for X the same value, and 0 at odd m+n for P2
        for gen in TABLE_GENERATORS:
            entries = build_coeff_table(gen, 0.8, 6).entries
            for (m, n), value in entries.items():
                assert value == (1 if gen is Generator.X else (-1) ** m) * entries[0, m + n]
                if gen is Generator.P2 and (m + n) % 2 == 1:
                    assert value == 0
            assert route_gap(gen, 0.8, 6) <= checks.COEFF_ROUTE_TOL

    def test_no_public_coefficient_call_sums_a_series(self, monkeypatch):
        # t never met before, so every column and every series would be computed afresh
        sums = count_exact_series(monkeypatch)
        evolution._series_cached.cache_clear()
        for t in (0.7316, -15.93, 7.977, 1e-9):
            build_coeff_table(Generator.P, t, 12)
            build_coeff_table(Generator.X, -t, 12)
            build_coeff_table(Generator.P2, t / 2, 12)
            coeff_I(3, 4, t)
            coeff_I2(2, 4, t / 2)
            matrix_element_P(5, 3, t)
            char_function("P", t)
            char_function("X", -t)
            state_char_function(4, t)
        assert not sums
        assert evolution._series_cached.cache_info().currsize == 0

    @pytest.mark.parametrize("gen, size", [(Generator.P2, 7), (Generator.P, 13)], ids=KIND_IDS.get)
    def test_series_cached_once_per_order_sum(self, monkeypatch, gen, size):
        # the route check sums one defining series per s = m + n (per even s for the kinetic group)
        sums = count_exact_series(monkeypatch)
        evolution._series_cached.cache_clear()
        for _ in range(2):
            route_gap(gen, 0.7, 12)
        assert len(sums) == size
        assert evolution._series_cached.cache_info().misses == 13

    def test_coeff_table_at_time_zero(self):
        # the identity, delta[m+n, 0], with no -0.0 part
        for gen in TABLE_GENERATORS:
            for (m, n), value in build_coeff_table(gen, 0.0, 4).entries.items():
                assert repr(value) == ("(1+0j)" if m + n == 0 else "0j")

    @pytest.mark.parametrize("legacy, gen", [("momentum_I", "P"), ("position_I", "X"), ("kinetic_I2", "P2")])
    def test_legacy_kind_strings(self, legacy, gen):
        table = build_coeff_table(legacy, -3.2, 8)
        assert table.kind is Generator(gen)
        assert repr(table) == repr(build_coeff_table(gen, -3.2, 8))

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
        [(lambda: evolve_P(0, 16.0), 72), (lambda: evolve_P2_vacuum(8.0), 103), (lambda: evolve_P2_vacuum(2.0), 41),
         (lambda: evolve_X(3, -11.0), 57), (lambda: evolve_P2_level1(-5.5), 78), (lambda: evolve_P(0, 1.0), 14)],
        ids=["P-16", "P2-vacuum-8", "P2-vacuum-2", "X-3-minus-11", "P2-level1-minus-5.5", "P-1"],
    )
    def test_default_rows_are_pinned(self, call, rows):
        # the walk bounds of `_tail_span` fix the default rows; they are part of the output contract
        assert call().amplitudes.size == rows

    def test_truncation_grows_past_a_short_start(self, monkeypatch, fresh_tail_spans):
        # a tail level of 1 starts the truncation far too small; the
        # agreement check must keep growing it
        monkeypatch.setattr(evolution, "_tail_index", lambda log_c, a, tol: 1)
        state = evolve_P(0, 8.0, l_max=40)
        assert state.tail_index == 1
        assert np.max(np.abs(state.amplitudes - closed_form_column("P", 0, 8.0, 41))) <= 1e-12

    @settings(deadline=None)
    @given(
        generator_and_t=st.sampled_from(list(evolution._GENERATORS)).flatmap(
            lambda gen: st.tuples(st.just(gen), times_up_to_the_cap(gen))
        ),
        k=st.integers(0, 12),
        tol=st.sampled_from((1e-6, 1e-10, 1e-13)),
    )
    def test_tail_bound_holds(self, generator_and_t, k, tol):
        # the default rows end at k plus the tail span; the oracle's exponential on
        # 64 further levels puts at most tol on the levels past them
        generator, t = generator_and_t
        top = evolve(generator, k, t, tol=tol).amplitudes.size - 1
        dim = top + 65
        ref = oracle.expm_apply(oracle._generator(generator.value, dim), 1j * t, basis(k, dim), 1e-3 * tol).vector
        assert float(np.sum(np.abs(ref[top + 1 :]))) <= tol

    @settings(deadline=None)
    @given(
        generator_and_t=st.sampled_from(list(evolution._GENERATORS)).flatmap(
            lambda gen: st.tuples(
                st.just(gen),
                times_up_to_the_cap(gen) | times_up_to_the_cap(gen).map(np.float64)
                | st.integers(-int(evolution._GENERATORS[gen].cap), int(evolution._GENERATORS[gen].cap)),
            )
        ),
        tol=st.sampled_from((1e-6, 1e-10, 1e-13)),
    )
    def test_cached_tail_span_is_a_fresh_search(self, generator_and_t, tol):
        # float, np.float64 and int times of equal value share one entry; each reads the fresh search
        generator, t = generator_and_t
        facts = evolution._GENERATORS[generator]
        tail = specfun._tail_index(facts.walk * abs(float(t)), abs(float(t)), tol)
        assert evolution._tail_span(generator, t, tol) == (tail, facts.step * tail)
        assert evolution._tail_span(generator, t, tol) == (tail, facts.step * tail)  # from the cache
        info = evolution._tail_span.cache_info()
        assert info.maxsize == 1024 and info.currsize <= 1024
        # a refusal raises on every call and is never cached
        sign = -1 if t < 0 else 1
        past = (sign * np.nextafter(facts.cap, np.inf), sign * (int(facts.cap) + 1))
        for refused in ((Generator.H1, t), (generator, past[0]), (generator, past[1])):
            for _ in range(2):
                with pytest.raises(DomainError):
                    evolution._tail_span(*refused, tol)
        assert evolution._tail_span.cache_info().currsize == info.currsize

    def test_unreachable_agreement_raises(self):
        # rounding alone separates two truncations by more than 1e-21
        with pytest.raises(TruncationError):
            evolve_X(0, 1.0, tol=1e-20)

    def test_kinetic_from_any_level(self):
        t, k = 0.3, 2
        state = evolve("P2", k, t)
        # the block also holds the column of the level past the amplitudes, so it reaches past them
        col = oracle._certified_columns("P2", t, (k, state.amplitudes.size), 1e-10)[:, 0]
        assert np.max(np.abs(state.amplitudes - col[: state.amplitudes.size])) <= 1e-9
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
            lambda: build_coeff_table(Generator.X, 17.0, 4),
            lambda: build_coeff_table(Generator.P2, -8.5, 4),
            lambda: build_coeff_table("H1", 1.0, 4),
            lambda: evolve("H1", 0, 1.0),
        ],
    )
    def test_out_of_domain_is_refused(self, call):
        with pytest.raises(DomainError):
            call()

    @pytest.mark.parametrize("t", [0.0, 0.5])
    @pytest.mark.parametrize("generator", ["H1", Generator.H1, "Q"])
    def test_a_generator_with_no_evolution_is_refused_at_every_time(self, generator, t):
        # the identity shortcuts at t = 0 let no such generator through, and each refusal names the argument
        calls = [
            lambda: evolve(generator, 1, t),
            lambda: element_table(generator, t, 3),
            lambda: build_coeff_table(generator, t, 4),
            lambda: heisenberg_block(generator, t, 1, 1),
            lambda: oracle.truncation_level(t, 1, 1e-10, generator),
        ]
        for call in calls:
            with pytest.raises(DomainError, match=r"\bgenerator\b"):
                call()


def inline_group_block(gen, t, cols, rows, span, tol):
    """`evolution._group_block` as it was before its node table: every round builds the nodes inline."""
    d = np.arange(rows)[:, None] - cols
    if t == 0.0:
        return (d == 0).astype(complex)
    m = rows + span
    prev, step = None, evolution._GENERATORS[gen].step
    while m <= evolution._DIM_CAP:
        theta = np.arange(1, m + 1) * (np.pi / (m + 1))
        x = 2.0 * np.cos(theta)
        phase = np.exp(1j * t * (x if step == 1 else x ** step))
        c = (2.0 / (m + 1)) * np.sin(np.outer(theta, cols + 1)) * phase[:, None]
        zero = np.zeros((1, cols.size))
        block = 0.5j * np.fft.fft(np.concatenate([zero, c, zero, -c[::-1]]), axis=0)[1 : rows + 1]
        if prev is not None and float(np.max(np.abs(block - prev))) <= tol / 10.0:
            break
        prev, m = block, 2 * m + 1
    else:
        raise TruncationError("no agreement")
    i_d = np.array([1, 1j, -1, -1j])[d % 4]
    if gen is Generator.P2:
        return np.where(d % 2 == 1, 0.0, block * i_d)
    if gen is Generator.P:
        return (block * i_d).real.astype(complex)
    return np.where(d % 2 == 1, 1j * block.imag, block.real)


def engine_cases():
    """(generator, t, cols, rows, span, tol): one and many source columns at +-cap, t = 0 and inside."""
    for gen, facts in evolution._GENERATORS.items():
        for t in (facts.cap, -facts.cap, 0.0, 0.7 * facts.cap, -1.3):
            span = evolution._tail_span(gen, t, 1e-10)[1]
            yield gen, t, np.array([3]), 4 + span, span, 1e-10
            yield gen, t, np.arange(9), 9, span, 1e-10
            yield gen, t, np.array([0, 5]), 6 + span, span, 1e-13


class TestSineNodeTable:
    @pytest.mark.parametrize("gen, t, cols, rows, span, tol", list(engine_cases()))
    def test_engine_equals_the_inline_nodes_bit_for_bit(self, gen, t, cols, rows, span, tol):
        want = inline_group_block(gen, t, cols, rows, span, tol)
        got = evolution._group_block(gen, t, cols, rows, span, tol)
        assert got.shape == want.shape
        assert np.all(got == want)
        assert np.all(evolution._group_block(gen, t, cols, rows, span, tol) == want)  # from the table's entries

    @pytest.mark.parametrize("gen", list(evolution._GENERATORS))
    def test_a_doubling_chain_equals_the_inline_nodes(self, gen):
        # no span at the cap: the truncation 8 doubles to 17, 35, 71, ... before two agree
        t = evolution._GENERATORS[gen].cap
        evolution._sine_nodes.cache_clear()
        got = evolution._group_block(gen, t, np.array([0, 2]), 8, 0, 1e-10)
        assert evolution._sine_nodes.cache_info().misses >= 4
        assert np.all(got == inline_group_block(gen, t, np.array([0, 2]), 8, 0, 1e-10))

    @pytest.mark.parametrize("m, step", [(1, 1), (53, 1), (150, 2), (4095, 2)])
    def test_entries_are_the_inline_nodes_and_read_only(self, m, step):
        theta, eig = evolution._sine_nodes(m, step)
        want = np.arange(1, m + 1) * (np.pi / (m + 1))
        assert np.all(theta == want)
        assert np.all(eig == (2.0 * np.cos(want)) ** step)
        for arr in (theta, eig):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    def test_the_table_is_bounded(self):
        info = evolution._sine_nodes.cache_info()
        # the docstring's worst case: entries x 2 arrays x 8 B x m, m <= _DIM_CAP
        assert info.maxsize * 2 * 8 * evolution._DIM_CAP <= 16.8e6
        for m in range(1, info.maxsize + 40):
            evolution._sine_nodes(m, 1)
        assert evolution._sine_nodes.cache_info().currsize == info.maxsize


def reference_coefficient(gen, m, n, t):
    """I[m, n](t) (I2 for P2) from the Bessel and 1F1 closed forms, at 30 digits."""
    s = m + n
    if gen is Generator.P2:
        return (-1) ** m * closed_form_column("P2", 0, t, s + 1)[s]
    value = (-1) ** s * closed_form_column("P", 0, t, s + 1)[s]  # I[0, s]
    return 1j**s * value if gen is Generator.X else (-1) ** m * value


class TestCoefficientDomainEdges:
    @pytest.mark.parametrize(
        "gen, t",
        [(gen, t) for gen in (Generator.P, Generator.X) for t in (15.9, -16.0)]
        + [(Generator.P2, t) for t in (7.9, -8.0)],
        ids=KIND_IDS.get,
    )
    def test_tables_against_mpmath(self, gen, t):
        table = build_coeff_table(gen, t, 20)
        want = {s: reference_coefficient(gen, 0, s, t) for s in range(21)}
        for (m, n), value in table.entries.items():
            ref = want[m + n] * (1 if gen is Generator.X else (-1) ** m)
            assert abs(value - ref) <= 1e-11
        assert route_gap(gen, t, 20) <= checks.COEFF_ROUTE_TOL

    @pytest.mark.parametrize("t", [15.9, -16.0])
    def test_coeff_I_against_mpmath(self, t):
        for m, n in ((0, 0), (0, 8), (3, 5), (5, 15)):
            assert abs(coeff_I(m, n, t) - reference_coefficient(Generator.P, m, n, t)) <= 1e-11

    @pytest.mark.parametrize("t", [7.9, -8.0])
    def test_coeff_I2_against_mpmath(self, t):
        for m, n in ((0, 0), (0, 8), (3, 5), (5, 15)):
            assert abs(coeff_I2(m, n, t) - reference_coefficient(Generator.P2, m, n, t)) <= 1e-11

    @pytest.mark.parametrize("t", [12.0, 15.9, 16.0])
    def test_char_functions_against_mpmath(self, t):
        with mp.workdps(30):
            tt = mp.mpf(t)
            want = complex(mp.besselj(1, 2 * tt) / tt)
            want_state = complex(sum((-1) ** m * (2 * m + 1) * mp.besselj(2 * m + 1, 2 * tt) / tt for m in range(3)))
        assert abs(char_function("P", t) - want) <= 1e-13
        assert abs(state_char_function(2, t) - want_state) <= 1e-13


@lru_cache(maxsize=None)
def bessel_2t(n, t):
    """J_n(2t) for any integer n, from mpmath at 30 digits: J_{-n} = (-1)^n J_n."""
    with mp.workdps(30):
        value = float(mp.besselj(abs(n), 2 * mp.mpf(t)))
    return -value if n < 0 and n % 2 else value


def x_image(l, k, t):
    """<l|e^{itX}|k> = i^(l-k) J_{l-k}(2t) - i^(l+k+2) J_{l+k+2}(2t): the half-line by the method of images."""
    return 1j ** ((l - k) % 4) * bessel_2t(l - k, t) - 1j ** ((l + k + 2) % 4) * bessel_2t(l + k + 2, t)


class TestHalfLineImages:
    """The engine against the image formulas, which need no truncation (the oracle past the dense cap).

    P = D X D* with D = diag(i^l) multiplies the X image by i^(l-k), and
    on odd levels l = 2j+1, k = 2j'+1 the kinetic group is
    (-1)^(j-j') e^{2it} times the X image at (j, j').
    """

    @pytest.mark.parametrize("gen", ["P", "X"])
    @pytest.mark.parametrize("t", [0.3, -1.7, 12.3, 16.0, -16.0])
    def test_translation_and_position_groups(self, gen, t):
        for k in (0, 3, 11):
            state = evolve(gen, k, t, tol=1e-13)
            for l, value in enumerate(state.amplitudes):
                phase = 1j ** ((l - k) % 4) if gen == "P" else 1.0
                assert abs(value - phase * x_image(l, k, t)) <= 1e-13

    @pytest.mark.parametrize("t", [0.3, -1.7, 4.0, 8.0, -8.0])
    def test_odd_kinetic_sector(self, t):
        for k in (1, 3, 11):
            state = evolve("P2", k, t, tol=1e-13)
            for l, value in enumerate(state.amplitudes):
                j, jk = (l - 1) // 2, (k - 1) // 2
                want = (-1) ** (j - jk) * cmath.exp(2j * t) * x_image(j, jk, t) if l % 2 else 0.0
                assert abs(value - want) <= 1e-13

    def test_position_group_from_level_1500(self):
        # |J_n(x)| <= (x/2)^n / n!, so below level k - 100 both image terms are under 2 * 16^100/100! < 1e-37
        k, t = 1500, 16.0
        amplitudes = evolve("X", k, t, tol=1e-12).amplitudes
        assert np.max(np.abs(amplitudes[: k - 100])) <= 1e-12
        for l in range(k - 100, amplitudes.size):
            assert abs(amplitudes[l] - x_image(l, k, t)) <= 1e-12
