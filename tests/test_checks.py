"""Every criterion of `checks.CRITERIA` can fail: one table of program mutants covers them all.

A row of MUTANTS perturbs one program function, through monkeypatch, by
a stated amount at a stated point.  It names the verify rows that must
then fail, and every other verify row must pass; and it names the
acceptance-gate lines that must fail, each evaluated only on the part
of its grid where the mutant acts.  This is mutation analysis in the
sense of DeMillo, Lipton and Sayward, "Hints on test data selection",
IEEE Computer 11(4), 1978: a criterion that no mutant of the program
fails checks only its own definition.
"""

import inspect
import re
import sys
from dataclasses import is_dataclass, replace
from math import nan
from typing import Callable, NamedTuple

import numpy as np
import pytest
from test_acceptance import GATE, residual

from semicircleqm import checks, combinatorics, evolution, fock, hilbert, oracle, orthopoly, specfun

FORMULA = "counting formula vs enumeration (k <= 14)"
RAISING = "raising count is p + m_plus on every class"
REASSEMBLY = "coefficients reassemble the matrix exponential"
EXPM = "amplitudes match the matrix exponential"
UNIT = "evolved states are unit norm"
GROUP = "group law U(t)U(s) = U(t+s) on the 8x8 block"
PV = "PV transform sends Phi_n to T_{n+1} (n <= 12)"
MILLER = "backward recurrence matches the defining series"
CATALAN = "vacuum moments are Catalan numbers (n <= 8)"
SPECTRAL = (
    "momentum action matches the tridiagonal matrix",
    "transform is skew-adjoint on series (50 pairs)",
    "kinetic action matches half the squared matrix",
)
CONNECTIONS = ("T[n+1] = Phi[n+1] - Phi[n-1]", "2 T[n+1] = x T[n] - (4-x^2) Phi[n-1]", "T[n+1] = 2 Phi[n+1] - x Phi[n]")
ORACLE = (
    "exponential preserves norm (skew-Hermitian)",
    "diagonal generator exponentiates componentwise",
    "semigroup property e^A e^B = e^(A+B)",
    "doubling the dimension leaves amplitudes fixed",
    "z = 0 returns the input vector",
)
MULTIPLICATION = (
    "a a+ = 1 (interior)", "a+ a = 1 - P0", "[a, a+] = P0 (interior)", "[X, P] = 2i P0 (interior)",
    "F a+ = a+ F(.+1) (interior)", "a F = F(.+1) a (interior)",
)
BRACKETS = [
    *(name for m in range(4) for name in (f"[a, P0 a^{m}] = -P0 a^{m + 1}", f"[a+^{m} P0, a+] = -a+^{m + 1} P0")),
    *(f"[a+^{m} P0, P0 a^{n}] = e{m} e{n}* {'- P0' if m == n else ''}" for m in range(4) for n in range(4)),
]
SWAP_INVARIANT = (
    *(f"[a, P0 a^{m}] = -P0 a^{m + 1}" for m in (1, 2, 3)),
    *(f"[a+^{m} P0, a+] = -a+^{m + 1} P0" for m in (1, 2, 3)),
    "[a+^0 P0, P0 a^0] = e0 e0* - P0",
)
CHAR_LINES = (
    "characteristic function equals J_1(2t)/t",
    "characteristic function vs quadrature (21 points)",
    "characteristic function vs Catalan series",
)


def moved(amount, at=(), field=None, when=lambda args: True):
    """Perturbation: add amount to entry `at` of the result (or of its field) wherever when(arguments) holds."""

    def perturb(true):
        signature = inspect.signature(true)

        def mutant(*args, **kwargs):
            out = true(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if not when(bound.arguments):
                return out
            value = np.array(out if field is None else getattr(out, field))  # a copy: caches hand out read-only arrays
            value[at] += amount
            value = value.item() if value.ndim == 0 else value
            if field is None:
                return value
            return replace(out, **{field: value}) if is_dataclass(out) else out._replace(**{field: value})

        return mutant

    return perturb


class Mutant(NamedTuple):
    criterion: Callable  # the `checks.CRITERIA` entry the mutant fails
    target: tuple  # (module, name) of the program function perturbed
    perturb: Callable  # true function -> mutant
    rows: tuple = ()  # the verify rows that fail; every other verify row passes
    lines: tuple = ()  # (gate line name, grid changes): the lines that fail, on the points where the mutant acts
    label: str = ""  # tells two rows of one criterion apart


MUTANTS = [
    Mutant(checks.enumeration, (combinatorics, "theta_count"),
           moved(1, when=lambda a: (a["m_plus"], a["m_minus"], a["p"]) == (2, 1, 3)),
           (FORMULA,), (("enumeration equals counting formula", dict(ks=(9,))),)),
    Mutant(checks.enumeration, (combinatorics, "normal_forms"),
           moved(1, 12345, "nu_plus", lambda a: a["k"] == 14),
           (RAISING,), label="raising"),
    Mutant(checks.catalan_counts, (combinatorics, "catalan"),
           moved(1, when=lambda a: a["p"] == 10),
           ("empty normal form counts are Catalan (p <= 10)",)),
    Mutant(checks.bessel_identities, (specfun, "bessel_j_series"),
           moved(1e-12, field="value"),
           (MILLER,)),
    Mutant(fock.multiplication_table_checks, (fock, "build_annihilation"),
           moved(1, (6, 2), when=lambda a: a["dim"] == 12),
           ("a a+ = 1 (interior)", "a+ a = 1 - P0", "[a, a+] = P0 (interior)", "[X, P] = 2i P0 (interior)",
            "a F = F(.+1) a (interior)")),
    # entries moved off 0 and 1 by less than 1, which an int64 cast toward zero would hide;
    # build_position and build_momentum are built from build_annihilation, so the brackets see them too
    *(Mutant(fock.multiplication_table_checks, (fock, "build_annihilation"),
             moved(amount, ([0, 3], [1, 7]), when=lambda a: a["dim"] == 12),
             (*MULTIPLICATION, *BRACKETS), label=label)
      for amount, label in ((0.5, "half"), (1e-9, "nudge"))),
    # P of the wrong sign swaps a = (X + iP)/2 and a+; the swapped pair satisfies seven of the brackets
    Mutant(fock.lie_bracket_checks, (fock, "build_momentum"),
           lambda true: lambda dim: true(dim) * (-1 if dim == 12 else 1),
           tuple(name for name in BRACKETS if name not in SWAP_INVARIANT)),
    Mutant(checks.vacuum_moments, (fock, "vacuum_moment"),
           moved(1, when=lambda a: (a["n"], a["which"]) == (8, "P")),
           (CATALAN,), (("vacuum moments are Catalan numbers (exact)", {}),)),
    Mutant(checks.fock_closed_forms, (fock, "coherent_kernel"),
           moved(1e-6, when=lambda a: (a["u"], a["v"]) == (0.5, 0.5)),
           ("coherent kernel geometric series",)),
    Mutant(checks.polynomial_identities, (orthopoly, "phi_all"),
           moved(1e-6, 200, when=lambda a: a["n_max"] == 200),
           ("recurrence vs trigonometric closed form (n <= 200)",)),
    Mutant(orthopoly.connection_checks, (orthopoly, "phi_all"),
           moved(1e-9, 50, when=lambda a: a["n_max"] == 101),
           CONNECTIONS),
    Mutant(checks.quadrature_moments, (oracle, "semicircle_expectation"),
           moved(1e-9),
           ("even quadrature moments are Catalan numbers",), (("vacuum moments via Gauss quadrature", {}),)),
    # a wrong subtracted term f(x) x of the quadrature: the weighted commutator is blind to it
    Mutant(checks.pv_transform, (hilbert, "hilbert_mu_pv"),
           lambda true: lambda f, x, m=2048: true(f, x, m) + 1e-5 * np.asarray(f(x)),
           (PV,), ((PV, {}),)),
    Mutant(checks.spectral_transform, (hilbert, "t_to_phi"),
           moved(1e-12, 0, "coeffs", lambda a: a["series"].coeffs.size <= 14),
           lines=(("spectral transform path", {}),)),
    # the top coefficient of an image of 17 coefficients: the kinetic check reads only the lowest 16
    Mutant(checks.momentum_realization, (hilbert, "momentum_apply"),
           moved(1e-6, 17, "coeffs", lambda a: a["f"].coeffs.size == 17),
           (SPECTRAL[0],), (("momentum action equals tridiagonal matrix", {}),)),
    Mutant(checks.kinetic_action, (hilbert, "kinetic_apply"),
           moved(1e-9, 0, "coeffs"),
           (SPECTRAL[2],)),
    Mutant(checks.weight_norm, (hilbert, "rho_weight"),
           lambda true: lambda x: true(x) * (1.0 + 1e-6),
           ("squared weight integrates to 1",)),
    Mutant(checks.weighted_commutator, (orthopoly, "phi_all"),
           moved(1e-5, 3, when=lambda a: a["n_max"] == 3),
           ("[Q,P]/i on weighted level 3",),
           (("weighted coordinate/momentum commutator on levels 0..6", dict(levels=(0, 1, 3))),)),
    Mutant(checks.kapteyn, (hilbert, "kapteyn_sum_sin"),
           moved(1e-5, when=lambda a: a["t"] == 2.0),
           ("Bessel sine sum vs PV integral (t=2.0, theta=1.0472)",),
           (("Bessel trigonometric sums vs PV integrals", dict(ts=(2.0,))),)),
    Mutant(checks.pointwise_closed_forms, (hilbert, "evolved_vacuum_closed_form"),
           moved(1e-5, when=lambda a: a["t"] == 0.5),
           ("pointwise PV closed forms match amplitude series",),
           (("translation-group PV closed forms vs series", dict(ts=(0.5,))),)),
    Mutant(checks.coefficient_closed_forms, (evolution, "_series_cached"),
           moved(1e-9, when=lambda a: (a["kinetic"], a["s"], a["t"]) == (False, 16, 2.5)),
           lines=(("defining series vs Bessel/1F1 closed forms (m+n <= 16)", dict(ts=(2.5,))),)),
    Mutant(checks.unit_norm, (evolution, "evolve_P2_vacuum"),
           moved(1e-7, 0, "amplitudes", lambda a: a["t"] == 0.5),
           (UNIT,), (("unitarity of all closed-form evolutions", dict(ts=(), kinetic_ts=(0.5,))),)),
    Mutant(checks.group_law, (evolution, "element_table"),
           moved(1e-7, (0, 0), when=lambda a: a["t"] == 1.0),
           (GROUP,), ((GROUP, dict(pairs={"P": ((0.3, 0.7),)})),)),
    Mutant(checks.evolutions_vs_oracle, (evolution, "evolve"),
           moved(1e-7, 1, "amplitudes", lambda a: (a["k"], a["t"]) == (4, 0.5)),
           (EXPM,)),
    # the evolutions do not read the coefficients
    Mutant(checks.evolutions_vs_oracle, (evolution, "coeff_I"),
           lambda true: lambda m, n, t, tol=None: true(m, n, t, tol) * (-1 if (m, n) == (1, 0) else 1),
           (REASSEMBLY,), (("translation-group elements vs matrix exponential", dict(ts=(0.25,))),), "reassembly"),
    Mutant(checks.element_tables, (evolution, "element_table"),
           moved(1e-7, (0, 0), when=lambda a: a["t"] == 4.0),
           lines=(("position-group elements vs matrix exponential", dict(ts=(4.0,))),)),
    Mutant(checks.heisenberg_conjugation, (evolution, "heisenberg_block"),
           moved(1e-5, (0, 0), when=lambda a: 0 < a["t"] < 0.5),
           ("raising-operator correction matches conjugation",),
           (("raising-operator correction (translation) vs conjugation", dict(ts=(0.3,))),
            ("raising-operator correction (kinetic) vs conjugation", dict(ts=(0.25,))))),
    Mutant(checks.char_function_routes, (evolution, "char_function"),
           moved(1e-9),
           lines=tuple((name, {}) for name in CHAR_LINES)),
    Mutant(checks.position_vacuum_law, (evolution, "evolve_X_vacuum_pointwise"),
           moved(1e-9, when=lambda a: a["t"] == 0.5),
           lines=(("position-group vacuum law e^{itx} - ixJ_1(2t)", dict(ts=(0.5,))),)),
    Mutant(checks.expm_identities, (oracle, "expm_apply"),
           moved(1e-6, 1, "vector", lambda a: len(a["op"]) == 48),
           ORACLE),
]


def mutant_id(mutant: Mutant) -> str:
    return "-".join(filter(None, (mutant.criterion.__name__, mutant.label)))


def test_every_criterion_has_a_mutant_of_the_program():
    assert {mutant.criterion for mutant in MUTANTS} == set(checks.CRITERIA)
    for mutant in MUTANTS:
        module, name = mutant.target
        # a public function of the library, or a private one that the library calls
        called = re.search(rf"(?<!def )\b{name}\(", inspect.getsource(module))
        assert module is not checks and (not name.startswith("_") or called), name


@pytest.mark.parametrize("mutant", MUTANTS, ids=mutant_id)
def test_mutant_fails_its_rows_and_lines(monkeypatch, mutant):
    module, name = mutant.target
    monkeypatch.setattr(module, name, mutant.perturb(getattr(module, name)))
    assert {r.name for _, r in verify_rows() if not r.passed} == set(mutant.rows)
    lines = {line.name: line for line in GATE}
    for line_name, grid in mutant.lines:
        line = lines[line_name]
        assert residual(line._replace(grid={**line.grid, **grid})) > line.tol, line_name


def test_combinatorics_suite_passes_exactly():
    reports = checks.combinatorics_suite()
    assert len(reports) == 3
    assert all(r.tolerance == 0.0 and r.residual == 0.0 for r in reports)


def test_backward_recurrence_criterion_passes_on_working_code():
    reports = {r.name: r for r in checks.specfun_suite()}
    assert reports[MILLER].passed
    assert reports[MILLER].tolerance == 1e-13


# verify's (suite, name, tolerance) rows at seed 0, in order
VERIFY_ROWS = [
    *(("combinatorics", name, 0.0) for name in (
        FORMULA, "empty normal form counts are Catalan (p <= 10)", RAISING)),
    ("specfun", "Bessel three-term recurrence", 1e-08),
    ("specfun", MILLER, 1e-13),
    ("specfun", "plane-wave (Jacobi-Anger) expansion at 2t", 1e-08),
    ("specfun", "Bessel normalization sum", 1e-08),
    ("specfun", "1F1(1;2;z) = (e^z - 1)/z", 1e-08),
    *(("fock", name, 0.0) for name in (*MULTIPLICATION, *BRACKETS, CATALAN)),
    ("fock", "position norm is 2 cos(pi/(N+1))", 1e-08),
    ("fock", "coherent kernel geometric series", 1e-08),
    ("fock", "two-point characteristic function vs diagonal state", 1e-08),
    ("orthopoly", "orthonormality under the Gauss rule (degree <= 20)", 1e-08),
    ("orthopoly", "recurrence vs trigonometric closed form (n <= 200)", 1e-10),
    *(("orthopoly", name, 1e-11) for name in CONNECTIONS),
    ("orthopoly", "even quadrature moments are Catalan numbers", 1e-10),
    ("hilbert", PV, 1e-06),
    ("hilbert", SPECTRAL[0], 1e-08),
    ("hilbert", SPECTRAL[1], 1e-10),
    ("hilbert", SPECTRAL[2], 1e-12),
    ("hilbert", "squared weight integrates to 1", 1e-08),
    *(("hilbert", f"[Q,P]/i on weighted level {n}", 1e-08) for n in (0, 1, 3)),
    *(("hilbert", f"Bessel {kind} sum vs PV integral (t={t}, theta=1.0472)", 1e-06)
      for t in (0.5, 2.0) for kind in ("sine", "cosine")),
    ("hilbert", "pointwise PV closed forms match amplitude series", 1e-06),
    ("evolution", UNIT, 1e-08),
    ("evolution", GROUP, 1e-08),
    ("evolution", EXPM, 1e-08),
    ("evolution", REASSEMBLY, 1e-08),
    ("evolution", "raising-operator correction matches conjugation", 1e-06),
    *(("oracle", name, tol) for name, tol in zip(ORACLE, (1e-12, 1e-08, 1e-10, 1e-10, 0.0))),
]


def verify_rows(**kwargs):
    return [(suite, r) for suite, reports in checks.run_all(**kwargs).items() for r in reports]


def test_verify_rows_are_pinned():
    assert [(suite, r.name, r.tolerance) for suite, r in verify_rows(seed=0)] == VERIFY_ROWS


def test_gate_covers_every_criterion_through_the_registry():
    assert sorted({line.num for line in GATE}) == list(range(1, 13))
    assert all(line.criterion in checks.CRITERIA for line in GATE)


def test_every_verify_row_comes_from_a_registry_function(monkeypatch):
    def nan_residuals(fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            if isinstance(out, list):
                return [replace(r, residual=nan) for r in out]
            return np.full(np.shape(out), nan)

        return wrapped

    for fn in checks.CRITERIA:
        monkeypatch.setattr(sys.modules[fn.__module__], fn.__name__, nan_residuals(fn))
    assert all(np.isnan(r.residual) for _, r in verify_rows())


def test_gate_reaches_the_domain_edges(monkeypatch):
    def moved_past_twelve(true):
        def wrapped(generator, t, *args, **kwargs):
            out = true(generator, t, *args, **kwargs)
            return out + 1e-5 if abs(t) > 12 else out

        return wrapped

    def past_twelve(line):
        # the line on the points of its grid where the move acts
        grid = dict(line.grid)
        if "ts" in grid:
            grid["ts"] = tuple(t for t in grid["ts"] if abs(t) > 12)
        if "pairs" in grid:
            grid["pairs"] = {gen: tuple(p for p in pairs if abs(sum(p)) > 12) for gen, pairs in grid["pairs"].items()}
        return line._replace(grid=grid)

    monkeypatch.setattr(evolution, "element_table", moved_past_twelve(evolution.element_table))
    monkeypatch.setattr(evolution, "heisenberg_block", moved_past_twelve(evolution.heisenberg_block))
    for num in (6, 10, 12):
        assert any(residual(past_twelve(line)) > line.tol for line in GATE if line.num == num), num
    assert all(r.passed for _, r in verify_rows())
