from dataclasses import replace

import pytest

from semicircleqm import checks, combinatorics, evolution, fock, hilbert, specfun

FORMULA = "counting formula vs enumeration (k <= 14)"
RAISING = "raising count is p + m_plus on every class"
REASSEMBLY = "coefficients reassemble the matrix exponential"
EXPM = "amplitudes match the matrix exponential"
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
