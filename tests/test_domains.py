"""One sweep of every public argument guard: each row varies one argument of one function.

A row is a function, the argument it varies, the call with the other
arguments at a fixed valid point, and the argument's domain: values the
call must refuse with `DomainError` (naming the argument), and values
inside it at which the call must return finite numbers.  Capped domains
are probed at NaN, +-inf and just past +-cap, and inside at +-cap, -0.0
and the least subnormal; every tol at NaN, +-inf, 0, -0.0 and -1e-8,
and the H1 frequency omega1 there too and inside at the least subnormal;
every order, level, node count and dimension at NaN, +-inf, one below
its least value and a fraction above it; every generator at an unknown
name and at each member it does not evolve, and inside at each one it
does, by name and as a member.
`test_every_guarded_argument_has_a_row` finds each public function that
takes such an argument and fails on any argument without a row.
"""

import inspect
import math
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

from semicircleqm import combinatorics, evolution, fock, hilbert, oracle, orthopoly, specfun
from semicircleqm.evolution import Generator
from semicircleqm.exceptions import DomainError, TruncationError

INF = math.inf
TINY = 5e-324  # least positive subnormal
NON_FINITE = (math.nan, INF, -INF)


class Domain(NamedTuple):
    refused: tuple
    inside: tuple


def capped(cap: float) -> Domain:
    past = math.nextafter(cap, INF)
    return Domain(NON_FINITE + (past, -past), (cap, -cap, -0.0, TINY))


FINITE = Domain(NON_FINITE, (-0.0, TINY))
POSITIVE = Domain(NON_FINITE + (0.0, -0.0, -1e-8), ())
FREQUENCY = Domain(POSITIVE.refused, (TINY,))  # omega1 of the quadratic well H1


def generators(*names: str) -> Domain:
    """The generators a call evolves, by name and as members: every other member, and an unknown name, are refused."""
    taken = tuple(map(Generator, names))
    return Domain(("Q", *(gen.value for gen in Generator if gen not in taken)), names + taken)


EVOLVED = generators("P", "X", "P2")


def index(least: int) -> Domain:
    """Integers >= least: refused one below and at a fraction above it."""
    return Domain(NON_FINITE + (least - 1, least + 0.5), ())


INDEX = index(0)
COUNT = index(1)  # node counts, grids and dimensions that start at 1
THETA = Domain(NON_FINITE + (0.0, -0.0, math.pi), (1.0,))
SUPPORT = capped(2.0)
OPEN_SUPPORT = capped(math.nextafter(2.0, 0.0))
SCALAR = Domain(NON_FINITE + (1e308j,), FINITE.inside)  # z of the oracle: 1e308j overflows |z| ||A||
VECTOR = Domain(NON_FINITE + (1e308,), FINITE.inside)  # every entry of v: 1e308 overflows ||v||
UNIT_DISC = Domain(NON_FINITE + (1.0, -1.0), (-0.0, TINY, math.nextafter(1.0, 0.0)))

# argument names that a guard covers: t, x, z, v, theta, omega, tol, orders, levels and dimensions
GUARDED = {
    "t", "x", "z", "v", "theta", "omega", "omega1", "tol", "dim", "generator",
    "n", "m", "k", "l", "p", "n_max", "m_max", "l_max", "max_order", "m_plus", "m_minus", "order",
}
MODULES = (combinatorics, evolution, fock, hilbert, oracle, orthopoly, specfun)


class Row(NamedTuple):
    fn: Callable
    arg: str
    call: Callable
    domain: Domain
    named: str = ""  # the name the refusal gives, when it is not arg


OP = fock.build_momentum(8)
VEC = fock.basis(0, 8)
XI = [0.5, math.sqrt(0.75)]
ev, hb = evolution, hilbert

ROWS = [
    # specfun
    Row(specfun.bessel_j_all, "n_max", lambda n: specfun.bessel_j_all(n, 1.0), INDEX),
    Row(specfun.bessel_j_all, "x", lambda x: specfun.bessel_j_all(3, x).values, capped(64.0)),
    Row(specfun.bessel_j, "n", lambda n: specfun.bessel_j(n, 1.0), INDEX),
    Row(specfun.bessel_j, "x", lambda x: specfun.bessel_j(3, x).value, capped(64.0)),
    Row(specfun.bessel_j_series, "n", lambda n: specfun.bessel_j_series(n, 1.0), INDEX),
    Row(specfun.bessel_j_series, "x", lambda x: specfun.bessel_j_series(3, x).value, capped(64.0)),
    Row(specfun.bessel_j_series_orders, "orders", lambda n: specfun.bessel_j_series_orders((2, n), 1.0), INDEX),
    Row(specfun.bessel_j_series_orders, "x",
        lambda x: [r.value for r in specfun.bessel_j_series_orders((0, 3), x)], capped(64.0)),
    Row(specfun.hyp1f1, "z", lambda z: specfun.hyp1f1(0.5, 2.0, z).value, capped(64.0)),
    # evolution: coefficients
    Row(ev.coeff_I_series, "m", lambda m: ev.coeff_I_series(m, 1, 0.5), INDEX),
    Row(ev.coeff_I_series, "n", lambda n: ev.coeff_I_series(1, n, 0.5), INDEX),
    Row(ev.coeff_I_series, "t", lambda t: ev.coeff_I_series(1, 2, t), FINITE),
    Row(ev.coeff_I, "m", lambda m: ev.coeff_I(m, 1, 0.5), INDEX),
    Row(ev.coeff_I, "n", lambda n: ev.coeff_I(1, n, 0.5), INDEX),
    Row(ev.coeff_I, "t", lambda t: ev.coeff_I(1, 2, t), capped(16.0)),
    Row(ev.coeff_I2_series, "m", lambda m: ev.coeff_I2_series(m, 1, 0.5), INDEX),
    Row(ev.coeff_I2_series, "n", lambda n: ev.coeff_I2_series(1, n, 0.5), INDEX),
    Row(ev.coeff_I2_series, "t", lambda t: ev.coeff_I2_series(1, 3, t), FINITE),
    Row(ev.coeff_I2, "m", lambda m: ev.coeff_I2(m, 1, 0.5), INDEX),
    Row(ev.coeff_I2, "n", lambda n: ev.coeff_I2(1, n, 0.5), INDEX),
    Row(ev.coeff_I2, "t", lambda t: ev.coeff_I2(1, 3, t), capped(8.0)),
    Row(ev.matrix_element_P, "l", lambda l: ev.matrix_element_P(l, 1, 0.5), INDEX),
    Row(ev.matrix_element_P, "k", lambda k: ev.matrix_element_P(1, k, 0.5), INDEX),
    Row(ev.matrix_element_P, "t", lambda t: ev.matrix_element_P(2, 1, t), capped(16.0)),
    Row(ev.build_coeff_table, "t", lambda t: list(ev.build_coeff_table("kinetic_I2", t, 4).entries.values()),
        capped(8.0)),
    Row(ev.build_coeff_table, "max_order", lambda n: ev.build_coeff_table("momentum_I", 0.5, n), INDEX),
    Row(ev.build_coeff_table, "generator", lambda g: list(ev.build_coeff_table(g, 0.5, 4).entries.values()),
        Domain(EVOLVED.refused, EVOLVED.inside + ("momentum_I", "position_I", "kinetic_I2"))),
    Row(ev.char_function, "generator", lambda g: ev.char_function(g, 0.5), generators("P", "X")),
    Row(ev.char_function, "t", lambda t: ev.char_function("X", t), capped(16.0)),
    Row(ev.char_function_catalan_series, "t", ev.char_function_catalan_series, FINITE),
    Row(ev.state_char_function, "l", lambda l: ev.state_char_function(l, 0.5), INDEX),
    Row(ev.state_char_function, "t", lambda t: ev.state_char_function(2, t), capped(16.0)),
    # evolution: evolutions and element tables
    Row(ev.evolve, "generator", lambda g: ev.evolve(g, 1, 0.5).amplitudes, EVOLVED),
    Row(ev.evolve, "k", lambda k: ev.evolve("P", k, 0.5), INDEX),
    Row(ev.evolve, "t", lambda t: ev.evolve("X", 1, t).amplitudes, capped(16.0)),
    Row(ev.evolve, "l_max", lambda l_max: ev.evolve("P", 0, 0.5, l_max), INDEX),
    Row(ev.evolve, "tol", lambda tol: ev.evolve("P2", 0, 0.5, tol=tol), POSITIVE),
    Row(ev.evolve_P, "k", lambda k: ev.evolve_P(k, 0.5), INDEX),
    Row(ev.evolve_P, "t", lambda t: ev.evolve_P(0, t).amplitudes, capped(16.0)),
    Row(ev.evolve_P, "l_max", lambda l_max: ev.evolve_P(0, 0.5, l_max), INDEX),
    Row(ev.evolve_P, "tol", lambda tol: ev.evolve_P(0, 0.5, tol=tol), POSITIVE),
    Row(ev.evolve_X, "k", lambda k: ev.evolve_X(k, 0.5), INDEX),
    Row(ev.evolve_X, "t", lambda t: ev.evolve_X(0, t).amplitudes, capped(16.0)),
    Row(ev.evolve_X, "l_max", lambda l_max: ev.evolve_X(0, 0.5, l_max), INDEX),
    Row(ev.evolve_X, "tol", lambda tol: ev.evolve_X(0, 0.5, tol=tol), POSITIVE),
    Row(ev.evolve_P2_vacuum, "t", lambda t: ev.evolve_P2_vacuum(t).amplitudes, capped(8.0)),
    Row(ev.evolve_P2_vacuum, "l_max", lambda l_max: ev.evolve_P2_vacuum(0.5, l_max), INDEX),
    Row(ev.evolve_P2_vacuum, "tol", lambda tol: ev.evolve_P2_vacuum(0.5, tol=tol), POSITIVE),
    Row(ev.evolve_P2_level1, "t", lambda t: ev.evolve_P2_level1(t).amplitudes, capped(8.0)),
    Row(ev.evolve_P2_level1, "l_max", lambda l_max: ev.evolve_P2_level1(0.5, l_max), INDEX),
    Row(ev.evolve_P2_level1, "tol", lambda tol: ev.evolve_P2_level1(0.5, tol=tol), POSITIVE),
    Row(ev.evolve_H1, "k", lambda k: ev.evolve_H1(k, 0.5), INDEX),
    Row(ev.evolve_H1, "t", lambda t: ev.evolve_H1(1, t).amplitudes, FINITE),
    Row(ev.evolve_H1, "omega1", lambda w: ev.evolve_H1(1, 0.5, w).amplitudes, FREQUENCY),
    Row(ev.evolve_H1, "l_max", lambda l_max: ev.evolve_H1(0, 0.5, 1.0, l_max), INDEX),
    Row(ev.element_table, "generator", lambda g: ev.element_table(g, 0.5, 3), EVOLVED),
    Row(ev.element_table, "t", lambda t: ev.element_table("P2", t, 3), capped(8.0)),
    Row(ev.element_table, "l_max", lambda l_max: ev.element_table("X", 0.5, l_max), INDEX),
    Row(ev.element_table, "tol", lambda tol: ev.element_table("X", 0.5, 3, tol), POSITIVE),
    # evolution: pointwise closed forms
    Row(ev.evolve_P_pointwise, "k", lambda k: ev.evolve_P_pointwise(k, 0.5, 0.3), INDEX),
    Row(ev.evolve_P_pointwise, "t", lambda t: ev.evolve_P_pointwise(1, t, 0.3), capped(16.0)),
    Row(ev.evolve_P_pointwise, "x", lambda x: ev.evolve_P_pointwise(1, 0.5, x), SUPPORT),
    Row(ev.evolve_P_pointwise, "tol", lambda tol: ev.evolve_P_pointwise(1, 0.5, 0.3, tol), POSITIVE),
    Row(ev.evolve_X_vacuum_pointwise, "t", lambda t: ev.evolve_X_vacuum_pointwise(t, 0.3), capped(32.0)),
    Row(ev.evolve_X_vacuum_pointwise, "x", lambda x: ev.evolve_X_vacuum_pointwise(0.5, x), SUPPORT),
    # evolution: Heisenberg corrections
    Row(ev.heisenberg_block, "generator", lambda g: ev.heisenberg_block(g, 0.5, 1, 1), generators("P", "P2")),
    Row(ev.heisenberg_block, "t", lambda t: ev.heisenberg_block("P", t, 0, 1), capped(16.0)),
    Row(ev.heisenberg_block, "m_max", lambda m: ev.heisenberg_block("P", 0.5, m, 1), INDEX),
    Row(ev.heisenberg_block, "n_max", lambda n: ev.heisenberg_block("P", 0.5, 1, n), INDEX),
    Row(ev.heisenberg_block, "omega", lambda w: ev.heisenberg_block("P2", 0.5, 1, 1, w), FINITE),
    Row(ev.heisenberg_block, "tol", lambda tol: ev.heisenberg_block("P2", 0.5, 1, 1, tol=tol), POSITIVE),
    Row(ev.heisenberg_aplus_P, "t", lambda t: ev.heisenberg_aplus_P(t, 0, 1), capped(16.0)),
    Row(ev.heisenberg_aplus_P, "m", lambda m: ev.heisenberg_aplus_P(0.5, m, 1), INDEX, "m_max"),
    Row(ev.heisenberg_aplus_P, "n", lambda n: ev.heisenberg_aplus_P(0.5, 1, n), INDEX, "n_max"),
    Row(ev.heisenberg_aplus_P, "omega", lambda w: ev.heisenberg_aplus_P(0.5, 0, 1, w), FINITE),
    Row(ev.heisenberg_aplus_P, "tol", lambda tol: ev.heisenberg_aplus_P(0.5, 0, 1, tol=tol), POSITIVE),
    Row(ev.heisenberg_aplus_P2, "t", lambda t: ev.heisenberg_aplus_P2(t, 1, 1), capped(8.0)),
    Row(ev.heisenberg_aplus_P2, "m_max", lambda m: ev.heisenberg_aplus_P2(0.5, m, 1), INDEX),
    Row(ev.heisenberg_aplus_P2, "n_max", lambda n: ev.heisenberg_aplus_P2(0.5, 1, n), INDEX),
    Row(ev.heisenberg_aplus_P2, "omega", lambda w: ev.heisenberg_aplus_P2(0.5, 1, 1, w), FINITE),
    Row(ev.heisenberg_aplus_P2, "tol", lambda tol: ev.heisenberg_aplus_P2(0.5, 1, 1, tol=tol), POSITIVE),
    # hilbert
    Row(hb.hilbert_mu_pv, "x", lambda x: hb.hilbert_mu_pv(lambda y: y * y, x), OPEN_SUPPORT),
    Row(hb.hilbert_mu_pv, "m", lambda m: hb.hilbert_mu_pv(np.cos, 0.3, m), COUNT),
    Row(hb.rho_weight, "x", hb.rho_weight, FINITE),
    Row(hb.pv_integral_angle, "theta", lambda theta: hb.pv_integral_angle(np.cos, theta), THETA),
    Row(hb.kapteyn_sum_sin, "t", lambda t: hb.kapteyn_sum_sin(t, 1.0), capped(32.0)),
    Row(hb.kapteyn_sum_sin, "theta", lambda theta: hb.kapteyn_sum_sin(0.5, theta), THETA),
    Row(hb.kapteyn_sum_cos, "t", lambda t: hb.kapteyn_sum_cos(t, 1.0), capped(32.0)),
    Row(hb.kapteyn_sum_cos, "theta", lambda theta: hb.kapteyn_sum_cos(0.5, theta), THETA),
    Row(hb.kapteyn_integral_sin, "t", lambda t: hb.kapteyn_integral_sin(t, 1.0), capped(32.0)),
    Row(hb.kapteyn_integral_sin, "theta", lambda theta: hb.kapteyn_integral_sin(0.5, theta), THETA),
    Row(hb.kapteyn_integral_cos, "t", lambda t: hb.kapteyn_integral_cos(t, 1.0), capped(32.0)),
    Row(hb.kapteyn_integral_cos, "theta", lambda theta: hb.kapteyn_integral_cos(0.5, theta), THETA),
    Row(hb.evolved_vacuum_closed_form, "t", lambda t: hb.evolved_vacuum_closed_form(t, 0.3), capped(32.0)),
    Row(hb.evolved_vacuum_closed_form, "x", lambda x: hb.evolved_vacuum_closed_form(0.5, x), capped(2.0 - 1e-6)),
    Row(hb.evolved_phi1_closed_form, "t", lambda t: hb.evolved_phi1_closed_form(t, 0.3), capped(32.0)),
    Row(hb.evolved_phi1_closed_form, "x", lambda x: hb.evolved_phi1_closed_form(0.5, x), capped(2.0 - 1e-6)),
    Row(hb.spectral_identity_table, "n_max", lambda n: hb.spectral_identity_table(n, 0.3), INDEX),
    Row(hb.spectral_identity_table, "x", lambda x: hb.spectral_identity_table(3, x), OPEN_SUPPORT),
    # orthopoly
    Row(orthopoly.phi, "n", lambda n: orthopoly.phi(n, 0.3), INDEX),
    Row(orthopoly.phi, "x", lambda x: orthopoly.phi(5, x), SUPPORT),
    Row(orthopoly.phi_all, "n_max", lambda n: orthopoly.phi_all(n, 0.3), INDEX),
    Row(orthopoly.phi_all, "x", lambda x: orthopoly.phi_all(5, np.array([0.1, x])), SUPPORT),
    Row(orthopoly.phi_closed_form, "n", lambda n: orthopoly.phi_closed_form(n, 0.3), INDEX),
    Row(orthopoly.phi_closed_form, "x", lambda x: orthopoly.phi_closed_form(5, x), capped(2.0 - 1e-6)),
    Row(orthopoly.t_cheb, "n", lambda n: orthopoly.t_cheb(n, 0.3), INDEX),
    Row(orthopoly.t_cheb, "x", lambda x: orthopoly.t_cheb(5, x), SUPPORT),
    Row(orthopoly.quadrature_rule, "m", orthopoly.quadrature_rule, COUNT),
    Row(orthopoly.gauss_legendre, "order", orthopoly.gauss_legendre, COUNT),
    Row(orthopoly.connection_checks, "n_max", lambda n: orthopoly.connection_checks(n, [0.3]), COUNT),
    Row(orthopoly.connection_checks, "x_grid", lambda x: [r.residual for r in orthopoly.connection_checks(3, [x])],
        SUPPORT, "x"),
    # fock
    Row(fock.basis, "n", lambda n: fock.basis(n, 8), INDEX),
    Row(fock.basis, "dim", lambda dim: fock.basis(0, dim), COUNT),
    *(Row(fn, "dim", fn, index(2))
      for fn in (fock.build_annihilation, fock.build_creation, fock.build_position, fock.build_momentum)),
    Row(fock.build_number_function, "dim", lambda dim: fock.build_number_function(dim, float), COUNT),
    Row(fock.vacuum_projection, "dim", fock.vacuum_projection, COUNT),
    Row(fock.multiplication_table_checks, "dim", fock.multiplication_table_checks, index(3)),
    Row(fock.vacuum_moment, "n", lambda n: fock.vacuum_moment(n, "X", 16), INDEX),
    Row(fock.vacuum_moment, "dim", lambda dim: fock.vacuum_moment(2, "X", dim), INDEX),
    Row(fock.lie_bracket_checks, "dim", lambda dim: fock.lie_bracket_checks(dim, 1, 1), INDEX),
    Row(fock.lie_bracket_checks, "m_max", lambda m: fock.lie_bracket_checks(8, m, 1), INDEX),
    Row(fock.lie_bracket_checks, "n_max", lambda n: fock.lie_bracket_checks(8, 1, n), INDEX),
    Row(fock.coherent_kernel, "u", lambda u: fock.coherent_kernel(u, 0.5), UNIT_DISC),
    Row(fock.coherent_kernel, "v", lambda v: fock.coherent_kernel(0.5, v), UNIT_DISC),
    Row(fock.coherent_kernel_truncated, "u", lambda u: fock.coherent_kernel_truncated(u, 0.5, 8), UNIT_DISC),
    Row(fock.coherent_kernel_truncated, "v", lambda v: fock.coherent_kernel_truncated(0.5, v, 8), UNIT_DISC),
    Row(fock.coherent_kernel_truncated, "dim", lambda dim: fock.coherent_kernel_truncated(0.5, 0.5, dim), INDEX),
    Row(fock.harmonic_char, "t", lambda t: fock.harmonic_char(t, 0.25, 1.0), FINITE),
    Row(fock.harmonic_char, "omega1", lambda w: fock.harmonic_char(0.5, 0.25, w), FREQUENCY),
    Row(fock.harmonic_char_from_state, "t", lambda t: fock.harmonic_char_from_state(t, XI, 1.0), FINITE),
    Row(fock.harmonic_char_from_state, "omega1", lambda w: fock.harmonic_char_from_state(0.5, XI, w), FREQUENCY),
    # oracle
    Row(oracle.expm_apply, "z", lambda z: oracle.expm_apply(OP, z, VEC).vector, SCALAR),
    Row(oracle.expm_apply, "v", lambda v: oracle.expm_apply(OP, 0.5j, np.full(8, v)).vector, VECTOR),
    Row(oracle.expm_apply, "tol", lambda tol: oracle.expm_apply(OP, 0.5j, VEC, tol), POSITIVE),
    Row(oracle.truncation_level, "t", lambda t: oracle.truncation_level(t, 0, 1e-10), FINITE),
    Row(oracle.truncation_level, "k", lambda k: oracle.truncation_level(1.0, k, 1e-10), INDEX),
    Row(oracle.truncation_level, "tol", lambda tol: oracle.truncation_level(1.0, 0, tol), POSITIVE),
    Row(oracle.truncation_level, "generator", lambda g: oracle.truncation_level(1.0, 0, 1e-10, g), EVOLVED),
    Row(oracle.semicircle_expectation, "m", lambda m: oracle.semicircle_expectation(np.cos, m), COUNT),
    Row(oracle.char_function_quadrature, "t", oracle.char_function_quadrature, FINITE),
    Row(oracle.char_function_quadrature, "m", lambda m: oracle.char_function_quadrature(0.5, m), COUNT),
    # combinatorics
    Row(combinatorics.catalan, "p", combinatorics.catalan, INDEX),
    *(Row(fn, arg, lambda v, fn=fn, arg=arg: fn(**dict(dict(m_plus=1, m_minus=0, p=2), **{arg: v})), INDEX)
      for fn in (combinatorics.theta_count, combinatorics.nu_plus_on_theta)
      for arg in ("m_plus", "m_minus", "p")),
    *(Row(fn, "k", fn, INDEX)
      for fn in (combinatorics.all_sign_words, combinatorics.normal_forms, combinatorics.prefix_normal_forms,
                 combinatorics.sign_word_distribution)),
    *(Row(fn, arg, lambda v, fn=fn, arg=arg: fn(**dict(dict(k=4, m_plus=1, m_minus=1), **{arg: v})), INDEX)
      for fn in (combinatorics.enumerate_theta_class, combinatorics.brute_force_theta)
      for arg in ("k", "m_plus", "m_minus")),
]


def row_id(row: Row) -> str:
    return f"{row.fn.__module__.rsplit('.', 1)[1]}.{row.fn.__name__}-{row.arg}"


@pytest.mark.parametrize("row", ROWS, ids=row_id)
def test_outside_the_domain_is_refused(row):
    for value in row.domain.refused:
        with pytest.raises(DomainError) as refusal:
            row.call(value)
        assert re.search(rf"\b{row.named or row.arg}\b", str(refusal.value)), (value, str(refusal.value))


@pytest.mark.parametrize("row", [row for row in ROWS if row.domain.inside], ids=row_id)
def test_inside_the_domain_is_finite(row):
    for value in row.domain.inside:
        assert np.all(np.isfinite(np.asarray(row.call(value), dtype=complex))), value


def test_every_guarded_argument_has_a_row():
    covered = {(row.fn, row.arg) for row in ROWS}
    missing = [
        f"{module.__name__}.{name}({arg})"
        for module in MODULES
        for name, fn in vars(module).items()
        if not name.startswith("_") and callable(fn) and not inspect.isclass(fn)
        and getattr(fn, "__module__", None) == module.__name__
        for arg in inspect.signature(fn).parameters
        if arg in GUARDED and (fn, arg) not in covered
    ]
    assert not missing


def test_level_cap_at_the_translation_edge():
    # the engine's truncation doubling stops at dimension 4095, so at t = 16 and tol 1e-10 the
    # highest source level is 1904; the README's domain list names this cap
    assert np.isfinite(evolution.evolve("P", 1904, 16.0).amplitudes).all()
    with pytest.raises(TruncationError, match="below dimension 4095"):
        evolution.evolve("P", 1905, 16.0)
