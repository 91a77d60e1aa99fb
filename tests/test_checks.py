import sys
from dataclasses import replace
from math import nan

import numpy as np
import pytest
from test_acceptance import GATE, residual

from semicircleqm import checks, combinatorics, evolution, fock, hilbert, oracle, specfun

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


def residuals(reports):
    return {r.name: r.residual for r in reports}


def test_combinatorics_suite_passes_exactly():
    reports = checks.combinatorics_suite()
    assert len(reports) == 4
    assert all(r.tolerance == 0.0 and r.residual == 0.0 for r in reports)


def test_counting_oracle_catches_formula_off_by_one(monkeypatch):
    true_count = combinatorics.theta_count

    def off_by_one(m_plus, m_minus, p):
        return true_count(m_plus, m_minus, p) + (1 if (m_plus, m_minus, p) == (2, 1, 3) else 0)

    monkeypatch.setattr(combinatorics, "theta_count", off_by_one)
    got = residuals(checks.combinatorics_suite())
    assert got[FORMULA] == 1.0
    assert got[RAISING] == 0.0


def test_raising_count_catches_one_wrong_word(monkeypatch):
    true_forms = combinatorics.normal_forms

    def one_word_off(k):
        forms = true_forms(k)
        if k == 14:
            forms.nu_plus[12345] += 1
        return forms

    monkeypatch.setattr(combinatorics, "normal_forms", one_word_off)
    got = residuals(checks.combinatorics_suite())
    assert got[RAISING] == 1.0
    assert got[FORMULA] == 0.0


def test_reassembly_catches_one_flipped_coefficient(monkeypatch):
    true_coeff = evolution.coeff_I

    def one_sign_flipped(m, n, t, tol=None):
        value = true_coeff(m, n, t, tol)
        return -value if (m, n) == (1, 0) else value

    monkeypatch.setattr(evolution, "coeff_I", one_sign_flipped)
    reports = {r.name: r for r in checks.evolution_suite()}
    assert not reports[REASSEMBLY].passed
    # the evolutions themselves do not read the coefficients
    assert reports[EXPM].passed


def test_oracle_criteria_catch_one_moved_level(monkeypatch):
    true_apply = oracle.expm_apply

    def one_level_moved(op, z, v, tol=1e-12):
        res = true_apply(op, z, v, tol)
        vector = res.vector.copy()
        vector[1] += 1e-6  # not renormalised
        return replace(res, vector=vector)

    monkeypatch.setattr(oracle, "expm_apply", one_level_moved)
    reports = {r.name: r for r in checks.evolution_suite()}
    assert not reports[EXPM].passed
    assert not reports[REASSEMBLY].passed
    # the evolutions and their group law never call the oracle
    assert reports[UNIT].passed
    assert reports[GROUP].passed


def test_pv_criteria_catch_a_shifted_quadrature(monkeypatch):
    true_pv = hilbert.hilbert_mu_pv

    def shifted(f, x, m=2048):
        return true_pv(f, x, m) + 1e-5

    monkeypatch.setattr(hilbert, "hilbert_mu_pv", shifted)
    reports = {r.name: r for r in checks.hilbert_suite()}
    assert not reports[PV].passed
    for n in (0, 1, 3):
        assert not reports[f"[Q,P]/i on weighted level {n}"].passed
    # the spectral route never calls the quadrature
    assert all(reports[name].passed for name in SPECTRAL)


def test_backward_recurrence_criterion_catches_a_shifted_series(monkeypatch):
    true_series = specfun.bessel_j_series

    def shifted(n, x):
        res = true_series(n, x)
        return replace(res, value=res.value + 1e-12)

    monkeypatch.setattr(specfun, "bessel_j_series", shifted)
    reports = {r.name: r for r in checks.specfun_suite()}
    assert not reports[MILLER].passed
    assert reports[MILLER].residual >= 1e-12
    # the recurrence itself never calls the series
    assert reports["Bessel normalization sum"].passed


def test_backward_recurrence_criterion_passes_on_working_code():
    reports = {r.name: r for r in checks.specfun_suite()}
    assert reports[MILLER].passed
    assert reports[MILLER].tolerance == 1e-13


@pytest.mark.parametrize(("matrix", "entry"), [(0, (0, 5)), (1, (5, 0))])
def test_fock_criteria_catch_one_extra_shift_entry(monkeypatch, matrix, entry):
    true_shifts = fock._int_shift_matrices

    def one_extra_entry(dim):
        shifts = true_shifts(dim)
        shifts[matrix][entry] = 1  # a[0, 5] or a+[5, 0]: interior for dim 12
        return shifts

    monkeypatch.setattr(fock, "_int_shift_matrices", one_extra_entry)
    reports = {r.name: r for r in checks.fock_suite()}
    assert not reports["a a+ = 1 (interior)"].passed
    assert not reports["[a, a+] = P0 (interior)"].passed
    # the entry enters e0^T a^n (n >= 1) or a+^m e0 (m >= 1), so exactly
    # those rank-one brackets fail; the rest never read it
    for m in range(4):
        for n in range(4):
            name = f"[a+^{m} P0, P0 a^{n}] = e{m} e{n}* {'- P0' if m == n else ''}"
            assert reports[name].passed == ((n if matrix == 0 else m) == 0), name
        assert reports[f"[a, P0 a^{m}] = -P0 a^{m + 1}"].passed
        assert reports[f"[a+^{m} P0, a+] = -a+^{m + 1} P0"].passed
    # the vacuum moments run their own banded recurrence
    assert reports[CATALAN].passed


def test_catalan_criterion_catches_a_moment_off_by_one(monkeypatch):
    true_moment = fock.vacuum_moment

    def off_by_one(n, which, dim):
        return true_moment(n, which, dim) + (1 if (n, which) == (8, "P") else 0)

    monkeypatch.setattr(fock, "vacuum_moment", off_by_one)
    reports = {r.name: r for r in checks.fock_suite()}
    assert reports[CATALAN].residual == 1.0
    assert not reports[CATALAN].passed
    assert reports["a a+ = 1 (interior)"].passed


# verify's (suite, name, tolerance) rows at seed 0, in order
BRACKETS = [
    *(name for m in range(4) for name in (f"[a, P0 a^{m}] = -P0 a^{m + 1}", f"[a+^{m} P0, a+] = -a+^{m + 1} P0")),
    *(f"[a+^{m} P0, P0 a^{n}] = e{m} e{n}* {'- P0' if m == n else ''}" for m in range(4) for n in range(4)),
]
VERIFY_ROWS = [
    *(("combinatorics", name, 0.0) for name in (
        "counting formula vs enumeration (k <= 14)", "class sizes sum to 2^k (k <= 14)",
        "empty normal form counts are Catalan (p <= 10)", "raising count is p + m_plus on every class")),
    ("specfun", "Bessel three-term recurrence", 1e-08),
    ("specfun", "backward recurrence matches the defining series", 1e-13),
    ("specfun", "plane-wave (Jacobi-Anger) expansion at 2t", 1e-08),
    ("specfun", "Bessel normalization sum", 1e-08),
    ("specfun", "1F1(1;2;z) = (e^z - 1)/z", 1e-08),
    *(("fock", name, 0.0) for name in (
        "a a+ = 1 (interior)", "a+ a = 1 - P0", "[a, a+] = P0 (interior)", "[X, P] = 2i P0 (interior)",
        "F a+ = a+ F(.+1) (interior)", "a F = F(.+1) a (interior)", *BRACKETS,
        "vacuum moments are Catalan numbers (n <= 8)")),
    ("fock", "position norm is 2 cos(pi/(N+1))", 1e-08),
    ("fock", "coherent kernel geometric series", 1e-08),
    ("fock", "two-point characteristic function vs diagonal state", 1e-08),
    ("orthopoly", "orthonormality under the Gauss rule (degree <= 20)", 1e-08),
    ("orthopoly", "recurrence vs trigonometric closed form (n <= 200)", 1e-10),
    ("orthopoly", "T[n+1] = Phi[n+1] - Phi[n-1]", 1e-11),
    ("orthopoly", "2 T[n+1] = x T[n] - (4-x^2) Phi[n-1]", 1e-11),
    ("orthopoly", "T[n+1] = 2 Phi[n+1] - x Phi[n]", 1e-11),
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
    ("evolution", "coefficient routes agree (orders <= 8)", 1e-11),
    ("evolution", UNIT, 1e-08),
    ("evolution", GROUP, 1e-08),
    ("evolution", EXPM, 1e-08),
    ("evolution", REASSEMBLY, 1e-08),
    ("evolution", "raising-operator correction matches conjugation", 1e-06),
    ("oracle", "exponential preserves norm (skew-Hermitian)", 1e-12),
    ("oracle", "diagonal generator exponentiates componentwise", 1e-08),
    ("oracle", "semigroup property e^A e^B = e^(A+B)", 1e-10),
    ("oracle", "doubling the dimension leaves amplitudes fixed", 1e-10),
    ("oracle", "z = 0 returns the input vector", 0.0),
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


def test_position_vacuum_law_catches_a_moved_closed_form(monkeypatch):
    true_pointwise = evolution.evolve_X_vacuum_pointwise
    monkeypatch.setattr(evolution, "evolve_X_vacuum_pointwise", lambda t, x: true_pointwise(t, x) + 1e-9)
    line = next(line for line in GATE if line.criterion is checks.position_vacuum_law)
    assert residual(line) > line.tol
    # no verify row reads the closed form
    assert all(r.passed for _, r in verify_rows())
