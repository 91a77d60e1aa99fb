import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semicircleqm import evolution, oracle
from semicircleqm.combinatorics import catalan
from semicircleqm.exceptions import ConvergenceError, DimensionError, DomainError
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
        with pytest.raises(DimensionError, match="dense cap 512"):
            oracle.expm_apply(np.zeros((513, 513)), 1j, np.ones(513))
        assert np.array_equal(oracle.expm_apply(np.zeros((512, 512)), 1j, np.ones(512)).vector, np.ones(512))

    def test_non_unitary_generator(self):
        # real exponent of the position operator: not norm preserving,
        # still matches the eigendecomposition
        dim = 16
        x = build_position(dim)
        res = oracle.expm_apply(x, 0.5, basis(0, dim))
        eig, vec = np.linalg.eigh(x.real)
        want = vec @ (np.exp(0.5 * eig) * vec.T[:, 0])
        assert np.max(np.abs(res.vector - want)) <= 1e-11


def eigh_exponential(op, z):
    """e^(zA) of a Hermitian A from its eigendecomposition, a reference that shares no code with the Taylor steps."""
    eig, vec = np.linalg.eigh(op)
    return (vec * np.exp(z * eig)) @ vec.conj().T


def random_hermitian(dim):
    rng = np.random.default_rng(dim)
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (mat + mat.conj().T) / (2.0 * np.sqrt(dim))


# (operator, z): three skew-Hermitian exponents and two real ones, whose exponentials do not
# preserve the norm: the position, and the number operator, whose trace shift mu > 0 lifts the
# result by e^mu
ACTION_CASES = {
    "momentum": (build_momentum, 1.5j),
    "position, real z": (build_position, 0.5),
    "number": (lambda dim: build_number_function(dim, lambda n: n), 0.3j),
    "number, real z": (lambda dim: build_number_function(dim, lambda n: n), 0.01),
    "random Hermitian": (random_hermitian, 2.0j),
}


def unshifted_action(op, z, v, tol=1e-12):
    """The Taylor steps of `expm_apply` on zA itself, with no trace shift: (vector, series_terms)."""
    za, nrm, skew, _ = oracle._scaled(op, z)
    steps = max(1, math.ceil(nrm / oracle._STEP_NORM))
    b = za / steps
    step_norm = nrm / steps
    log_growth = 0.0 if skew else step_norm
    w = np.asarray(v, dtype=complex)
    vnorm = float(np.linalg.norm(w))
    total_terms = 0
    for j in range(steps):
        step_tol = tol * vnorm / steps * math.exp(-log_growth * (steps - 1 - j))
        terms, _ = oracle._taylor_terms(step_norm, float(np.linalg.norm(w)), step_tol)
        term = total = w
        for k in range(1, terms + 1):
            term = b @ term / k
            total = total + term
        w = total
        total_terms += terms
    return w, total_terms


@settings(deadline=None)
@given(
    dim=st.integers(2, 40),
    cols=st.integers(1, 4),
    t=st.floats(-8.0, 8.0),
    offset=st.floats(-4.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_columns_match_single_actions(dim, cols, t, offset, seed):
    # a random Hermitian operator plus offset I, so that the trace shift acts; every column of one
    # block pass lies within the two residual bounds of its own single-vector call, up to rounding
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    op = (mat + mat.conj().T) / (2.0 * np.sqrt(dim)) + offset * np.eye(dim)
    block = rng.standard_normal((dim, cols)) + 1j * rng.standard_normal((dim, cols))
    res = oracle.expm_apply(op, 1j * t, block)
    assert res.vector.shape == (dim, cols)
    for j in range(cols):
        single = oracle.expm_apply(op, 1j * t, block[:, j])
        rounding = 1e-14 * np.linalg.norm(block[:, j])
        gap = np.linalg.norm(res.vector[:, j] - single.vector)
        assert gap <= res.residual_bound + single.residual_bound + rounding


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
        mat = eigh_exponential(op, z)
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

    @pytest.mark.parametrize("dim", [8, 32, 96, 256])
    @pytest.mark.parametrize("case", sorted(ACTION_CASES))
    def test_block_columns_match_single_calls_and_the_dense_exponential(self, case, dim):
        # three columns of different norms in one pass; the block's bound covers every column
        build, z = ACTION_CASES[case]
        op = build(dim)
        rng = np.random.default_rng(dim + 2)
        block = (rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))) * [1.0, 0.5, 3.0]
        res = oracle.expm_apply(op, z, block)
        mat = eigh_exponential(op, z)
        assert res.vector.shape == (dim, 3)
        assert 0.0 <= res.residual_bound <= 1e-12 * np.max(np.linalg.norm(block, axis=0))
        for j in range(3):
            single = oracle.expm_apply(op, z, block[:, j])
            vnorm = np.linalg.norm(block[:, j])
            assert np.linalg.norm(res.vector[:, j] - single.vector) <= res.residual_bound + single.residual_bound
            assert np.linalg.norm(res.vector[:, j] - mat @ block[:, j]) <= res.residual_bound + 1e-14 * vnorm

    def test_an_overflowing_shift_raises(self):
        # e^mu overflows a double at mu = 300 * 3.5 and at 1e3; the identity shifts to 0 and would
        # take no Taylor step at all
        with pytest.raises(ConvergenceError):
            oracle.expm_apply(build_number_function(8, lambda n: n), 300.0, np.ones(8))
        with pytest.raises(ConvergenceError):
            oracle.expm_apply(np.eye(8), 1e3, np.ones(8))
        assert np.array_equal(oracle.expm_apply(np.eye(8), 300.0, np.ones(8)).vector, np.full(8, np.exp(300.0) + 0j))

    def test_block_keeps_its_shape_and_refuses_an_empty_block(self):
        p = build_momentum(8)
        assert oracle.expm_apply(p, 1j, np.eye(8)[:, :1]).vector.shape == (8, 1)
        with pytest.raises(DimensionError):
            oracle.expm_apply(p, 1j, np.zeros((8, 0)))
        with pytest.raises(DimensionError):
            oracle.expm_apply(p, 1j, np.zeros((8, 2, 2)))

    @pytest.mark.parametrize(
        ("build", "z", "dim"),
        [(build_momentum, 1.5j, 32), (build_momentum, -16j, 256), (build_position, 0.5, 96), (build_position, 7j, 64)],
        ids=["P-1.5", "P-minus-16", "X-real-z", "X-7"],
    )
    def test_an_empty_diagonal_takes_the_unshifted_path_bit_for_bit(self, build, z, dim):
        op = build(dim)
        v = np.random.default_rng(dim).standard_normal(dim) + 0j
        res = oracle.expm_apply(op, z, v)
        want, terms = unshifted_action(op, z, v)
        assert np.array_equal(res.vector, want)
        assert res.series_terms == terms

    @pytest.mark.parametrize(
        ("op", "z", "most"),
        [(build_number_function(48, lambda n: n), 0.9j, 0.6), (build_momentum(256) @ build_momentum(256), 8j, 0.6)],
        ids=["number-48", "P2-256"],
    )
    def test_the_trace_shift_saves_terms_and_meets_tol(self, op, z, most):
        # the number operator: 319 -> 168 terms; P^2 at t = 8: 240 -> 130
        dim = op.shape[0]
        v = basis(0, dim) + basis(dim // 3, dim)
        res = oracle.expm_apply(op, z, v)
        _, unshifted_terms = unshifted_action(op, z, v)
        assert res.series_terms <= most * unshifted_terms
        vnorm = np.linalg.norm(v)
        assert np.linalg.norm(res.vector - eigh_exponential(op, z) @ v) <= 1e-12 * vnorm
        assert res.residual_bound <= 1e-12 * vnorm


    @pytest.mark.parametrize(
        ("op", "z"),
        [(oracle._generator("P2", 158), 8j), (oracle._generator("P2", 316), -3.3j),
         (build_number_function(48, lambda n: n), 0.9j), (build_number_function(40, lambda n: n), 0.01),
         (random_hermitian(30), 2.0j), (random_hermitian(17) + 5.0 * np.eye(17), -0.7)],
        ids=["P2-158", "P2-316", "number-48", "number-real-z", "random-Hermitian", "shifted-random-Hermitian"],
    )
    def test_the_shifted_bound_from_the_magnitude_sums(self, op, z):
        # the O(n) diagonal correction of the sums of |zA| bounds ||zA - mu I|| as the direct pass over it does
        za, _, _, sums = oracle._scaled(op, z)
        mu = complex(np.trace(za)) / za.shape[0]
        shifted = za - mu * np.eye(za.shape[0])
        bound = oracle._shifted_bound(za, mu, sums)
        assert np.linalg.norm(shifted, 2) <= bound
        assert abs(bound - oracle._norm2_upper(shifted)) <= 1e-14 * bound

    @pytest.mark.parametrize(
        "v",
        [np.array([np.inf] + [0.0] * 7), np.array([np.nan] + [0.0] * 7), np.full(8, 1e308),
         np.eye(8)[:, :3] + np.pad([[0.0, -np.inf, 0.0]], ((0, 7), (0, 0))), np.full((8, 2), 1e200 + 1e200j)],
        ids=["inf-entry", "nan-entry", "overflowing-norm", "inf-column", "overflowing-block-column"],
    )
    def test_a_vector_that_is_not_finite_is_refused(self, v):
        with pytest.raises(DomainError, match=r"\bv\b"):
            oracle.expm_apply(build_momentum(8), 1j, v)


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

    @pytest.mark.parametrize(
        ("generator", "t", "k", "tol", "dim"),
        [("P", 1.0, 0, 1e-10, 30), ("P", 0.3, 8, 1e-10, 36), ("P", 4.0, 8, 1e-8, 64), ("P", 16.0, 12, 1e-10, 150),
         ("P", -16.0, 8, 1e-12, 148), ("P", 30.0, 4, 1e-10, 212), ("X", 2.0, 1, 1e-10, 40),
         ("X", -16.0, 12, 1e-10, 150), ("P2", 0.25, 8, 1e-10, 54), ("P2", 1.0, 0, 1e-8, 50),
         ("P2", 8.0, 0, 1e-10, 158), ("P2", -8.0, 8, 1e-6, 146)],
    )
    def test_accepted_dimensions_are_pinned(self, generator, t, k, tol, dim):
        # the dimension the doubling accepts, 2N for the first N whose evolution agrees with 2N's;
        # the criteria's reference blocks are truncated there.  Each is the first comparison's
        # 2 max(8, k + s tail index + 1)
        assert oracle.truncation_level(t, k, tol, generator) == dim

    def test_takes_a_generator_member_or_its_value(self):
        for gen in evolution._GENERATORS:
            assert oracle.truncation_level(1.0, 0, 1e-10, gen) == oracle.truncation_level(1.0, 0, 1e-10, gen.value)

    def test_kinetic_generator_spreads_faster(self):
        assert oracle.truncation_level(1.0, 0, 1e-8, generator="P2") >= oracle.truncation_level(
            1.0, 0, 1e-8, generator="P"
        )

    def test_dimension_cap_past_the_translation_cap(self):
        # t = 30 and t = 64 still fit: the doubling certifies a dimension of at most 512, and a
        # larger one, up to the dense cap, agrees with it
        for t in (30.0, 64.0):
            n = oracle.truncation_level(t, 4, 1e-10)
            assert n <= 512
            m = min(2 * n, 512)
            small = oracle.expm_apply(build_momentum(n), 1j * t, basis(4, n)).vector
            big = oracle.expm_apply(build_momentum(m), 1j * t, basis(4, m)).vector
            assert np.linalg.norm(big[:n] - small) + np.linalg.norm(big[n:]) < 1e-10
        with pytest.raises(ConvergenceError):
            oracle.truncation_level(100.0, 4, 1e-10)

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_an_unknown_generator_raises_at_every_time(self, t):
        # the identity shortcut at t = 0 does not let an unknown kind through
        with pytest.raises(DomainError):
            oracle.truncation_level(t, 3, 1e-10, generator="H1")


class TestCertifiedColumns:
    @pytest.mark.parametrize(
        ("generator", "t", "ks"),
        [("P", 1.5, (0, 4)), ("P", 16.0, range(13)), ("X", -16.0, range(13)), ("P2", 8.0, (0,)),
         ("P2", -0.25, range(9)), ("X", 0.9, (8, 2, 5))],
    )
    def test_equals_the_level_and_one_action(self, generator, t, ks):
        # one doubling on the block gives the dimension of `truncation_level` for the highest
        # level and, per column, the action on that basis vector there
        tol = 1e-10
        block = oracle._certified_columns(generator, t, ks, tol)
        dim = oracle.truncation_level(t, max(ks), tol, generator)
        assert block.shape == (dim, len(ks))
        op = oracle._generator(generator, dim)
        for column, k in zip(block.T, ks):
            want = oracle.expm_apply(op, 1j * t, basis(k, dim), 1e-13).vector
            assert np.linalg.norm(column - want) <= tol

    @pytest.mark.parametrize("dim", [2, 3, 8, 158, 316])
    def test_kinetic_generator_equals_the_squared_momentum(self, dim):
        # built from its three nonzero diagonals, entry for entry the dense product P P
        p = build_momentum(dim)
        p2 = oracle._generator("P2", dim)
        assert p2.dtype == np.complex128
        assert np.array_equal(p2, p @ p)

    def test_kinetic_generator_refuses_one_level_as_the_momentum_does(self):
        for build in (build_momentum, lambda dim: oracle._generator("P2", dim)):
            with pytest.raises(DomainError, match="dim"):
                build(1)

    def test_zero_time_is_the_identity(self):
        block = oracle._certified_columns("P", 0.0, (3, 1), 1e-10)
        assert np.array_equal(block, np.eye(5)[:, [3, 1]])


CAPS = {gen.value: facts.cap for gen, facts in evolution._GENERATORS.items()}  # the domain of each evolution


@settings(deadline=None)
@given(
    generator_and_t=st.sampled_from(sorted(CAPS)).flatmap(
        lambda gen: st.tuples(st.just(gen), st.floats(-CAPS[gen], CAPS[gen]).filter(bool))
    ),
    ks=st.lists(st.integers(0, 12), min_size=1, max_size=3),
    log_tol=st.floats(-12.0, -6.0),
)
def test_certified_columns_take_two_actions(generator_and_t, ks, log_tol):
    # the doubling starts where its first comparison, N against 2N, certifies the block: one action
    # at N and one at 2N
    generator, t = generator_and_t
    dims = []
    with pytest.MonkeyPatch.context() as patch:
        action = oracle.expm_apply
        patch.setattr(oracle, "expm_apply", lambda op, *args: dims.append(op.shape[0]) or action(op, *args))
        block = oracle._certified_columns(generator, t, ks, 10.0**log_tol)
    assert dims == [dims[0], 2 * dims[0]]
    assert block.shape == (2 * dims[0], len(ks))


class TestReferenceIntegrals:
    def test_even_moments(self):
        for j in range(6):
            got = oracle.semicircle_expectation(lambda y, j=j: y ** (2 * j), 64)
            assert abs(got - catalan(j)) <= 1e-11

    def test_char_function_at_zero(self):
        assert abs(oracle.char_function_quadrature(0.0) - 1.0) <= 1e-14
