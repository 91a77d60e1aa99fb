"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them on
success).  The criteria pit closed forms against independent engines:
exhaustive enumeration, exact integer matrix arithmetic, Gauss
quadrature, principal-value quadrature, and the certified dense matrix
exponential.
"""

import time

import numpy as np

from semicircleqm import evolution, fock, hilbert, oracle, orthopoly
from semicircleqm.combinatorics import catalan, sign_word_distribution, theta_count
from semicircleqm.specfun import bessel_j, bessel_tail_index


def report(num, name, residual, tol, runtime=None):
    status = "PASS" if residual <= tol else "FAIL"
    extra = f", {runtime:.2f}s" if runtime is not None else ""
    print(f"ACCEPTANCE {num:2d} [{status}] {name}: max residual {residual:.3e} (tol {tol:.1e}{extra})")
    assert residual <= tol, f"criterion {num} ({name}): {residual:.3e} > {tol:.1e}"


def test_criterion_01_combinatorics_oracle():
    start = time.time()
    worst = 0
    for k in range(15):
        hist = sign_word_distribution(k)
        worst = max(worst, abs(sum(hist.values()) - 2**k))
        for m_plus in range(k + 1):
            for m_minus in range(k + 1 - m_plus):
                if (k - m_plus - m_minus) % 2:
                    continue
                p = (k - m_plus - m_minus) // 2
                got = hist.get((m_plus, m_minus), 0)
                worst = max(worst, abs(got - theta_count(m_plus, m_minus, p)))
    elapsed = time.time() - start
    report(1, "enumeration equals counting formula, classes fill 2^k", float(worst), 0.0, elapsed)
    assert elapsed < 5.0, f"criterion 1 runtime {elapsed:.2f}s exceeds 5s"


def test_criterion_02_catalan_moments():
    worst_exact = 0
    for n in range(9):
        dim = 4 * n + 4
        cn = catalan(n)
        worst_exact = max(
            worst_exact,
            abs(fock.vacuum_moment(2 * n, "X", dim) - cn),
            abs(fock.vacuum_moment(2 * n, "P", dim) - cn),
        )
    worst_quad = max(
        abs(oracle.semicircle_expectation(lambda y, j=j: y ** (2 * j), 64) - catalan(j))
        for j in range(9)
    )
    report(2, "vacuum moments are Catalan numbers (exact)", float(worst_exact), 0.0)
    report(2, "vacuum moments via Gauss quadrature", worst_quad, 1e-10)


def test_criterion_03_hilbert_transform_identity():
    xs, _ = orthopoly.quadrature_rule(25)
    worst_pv = 0.0
    worst_spectral = 0.0
    for n in range(13):
        for x in xs:
            pv = hilbert.hilbert_mu_pv(lambda y, n=n: orthopoly.phi_all(n, y)[n], float(x), 2048)
            worst_pv = max(worst_pv, abs(pv - orthopoly.t_cheb(n + 1, float(x))))
        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        spectral = hilbert.hilbert_mu_spectral(hilbert.ChebSeries.from_coeffs(coeffs))
        back = hilbert.t_to_phi(spectral)
        for x in xs[:5]:
            worst_spectral = max(
                worst_spectral,
                abs(back.evaluate(float(x)) - orthopoly.t_cheb(n + 1, float(x))),
            )
    report(3, "PV transform sends Phi_n to T_{n+1} (n <= 12)", worst_pv, 1e-6)
    report(3, "spectral transform path", worst_spectral, 1e-13)


def test_criterion_04_momentum_realization():
    rng = np.random.default_rng(0)
    pmat = fock.build_momentum(18).entries
    worst = 0.0
    for _ in range(25):
        coeffs = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        out = hilbert.momentum_apply(hilbert.ChebSeries.from_coeffs(coeffs)).coeffs
        ref = pmat @ np.concatenate([coeffs, [0.0]])
        worst = max(worst, float(np.max(np.abs(out[:18] - ref))))
    skew = 0.0
    for _ in range(50):
        fc = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        gc = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        hf = hilbert.t_to_phi(hilbert.hilbert_mu_spectral(hilbert.ChebSeries.from_coeffs(fc))).coeffs
        hg = hilbert.t_to_phi(hilbert.hilbert_mu_spectral(hilbert.ChebSeries.from_coeffs(gc))).coeffs
        skew = max(skew, abs(np.vdot(np.concatenate([fc, [0.0]]), hg) + np.vdot(hf, np.concatenate([gc, [0.0]]))))
    report(4, "momentum action equals tridiagonal matrix", worst, 1e-13)
    report(4, "transform skew-adjointness (50 pairs)", skew, 1e-10)


def test_criterion_05_schrodinger_commutator():
    worst = 0.0
    for n in range(7):
        rep = hilbert.schrodinger_commutator_check(n, 2048, eval_points=25)
        worst = max(worst, rep.residual)
    report(5, "weighted coordinate/momentum commutator on levels 0..6", worst, 1e-8)


T_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)


def test_criterion_06_evolutions_vs_oracle():
    worst_p = 0.0
    worst_x = 0.0
    worst_p2 = 0.0
    for t in T_GRID:
        dim_p = oracle.truncation_level(t, 12, 1e-10, generator="P")
        u_p, _, _ = oracle.expm_matrix(fock.build_momentum(dim_p), 1j * t)
        dim_x = oracle.truncation_level(t, 12, 1e-10, generator="X")
        u_x, _, _ = oracle.expm_matrix(fock.build_position(dim_x), 1j * t)
        for l in range(13):
            for k in range(13):
                worst_p = max(worst_p, abs(evolution.matrix_element_P(l, k, t) - u_p[l, k]))
        table_x = evolution.element_table("X", t, 12)
        worst_x = max(worst_x, float(np.max(np.abs(table_x - u_x[:13, :13]))))
        dim_p2 = oracle.truncation_level(t, 0, 1e-10, generator="P2")
        p_op = fock.build_momentum(dim_p2)
        u_p2, _, _ = oracle.expm_matrix(p_op @ p_op, 1j * t)
        state = evolution.evolve_P2_vacuum(t, tol=1e-10)
        top = min(state.amplitudes.size, dim_p2)
        worst_p2 = max(worst_p2, float(np.max(np.abs(state.amplitudes[:top] - u_p2[:top, 0]))))
    report(6, "translation-group elements vs matrix exponential", worst_p, 1e-8)
    report(6, "position-group elements vs matrix exponential", worst_x, 1e-8)
    report(6, "kinetic-group vacuum amplitudes vs matrix exponential", worst_p2, 1e-7)


def test_criterion_07_characteristic_function():
    worst_closed = 0.0
    worst_quad = 0.0
    for t in np.linspace(0.0, 4.0, 21):
        t = float(t)
        got = evolution.char_function("P", t)
        if t == 0.0:
            want = 1.0
        else:
            want = bessel_j(1, 2 * t).value / t
        worst_closed = max(worst_closed, abs(got - want))
        worst_quad = max(worst_quad, abs(got - oracle.char_function_quadrature(t, 512)))
    worst_series = max(
        abs(evolution.char_function("P", float(t)) - evolution.char_function_catalan_series(float(t)))
        for t in np.linspace(0.1, 4.0, 15)
    )
    report(7, "characteristic function equals J_1(2t)/t", worst_closed, 1e-12)
    report(7, "characteristic function vs quadrature (21 points)", worst_quad, 1e-10)
    report(7, "characteristic function vs Catalan series", worst_series, 1e-12)


def test_criterion_08_pointwise_vacuum_laws():
    worst_x = 0.0
    worst_p = 0.0
    xs = np.linspace(-1.8, 1.8, 15)
    for t in (0.5, 1.0, 2.0):
        j1 = bessel_j(1, 2 * t).value
        for x in xs:
            x = float(x)
            want = np.exp(1j * t * x) - 1j * x * j1
            worst_x = max(worst_x, abs(evolution.evolve_X_vacuum_pointwise(t, x) - want))
            s0 = evolution.evolve_P(0, t, tol=1e-12).evaluate(x)
            s1 = evolution.evolve_P(1, t, tol=1e-12).evaluate(x)
            worst_p = max(
                worst_p,
                abs(s0 - hilbert.evolved_vacuum_closed_form(t, x)),
                abs(s1 - hilbert.evolved_phi1_closed_form(t, x)),
            )
    report(8, "position-group vacuum law e^{itx} - ixJ_1(2t)", worst_x, 1e-10)
    report(8, "translation-group PV closed forms vs series", worst_p, 1e-6)


def test_criterion_09_kapteyn_sums():
    worst = 0.0
    for t in (0.5, 1.0, 2.0, 4.0):
        for theta in (np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3):
            worst = max(
                worst,
                abs(hilbert.kapteyn_sum_sin(t, theta) - hilbert.kapteyn_integral_sin(t, theta)),
                abs(hilbert.kapteyn_sum_cos(t, theta) - hilbert.kapteyn_integral_cos(t, theta)),
            )
    report(9, "Bessel trigonometric sums vs PV integrals", worst, 1e-6)


def test_criterion_10_heisenberg_evolutions():
    worst_p = 0.0
    for t in (0.3, 0.9):
        dim = oracle.truncation_level(t, 8, 1e-10, generator="P")
        u, _, _ = oracle.expm_matrix(fock.build_momentum(dim), 1j * t)
        ap = fock.build_creation(dim).entries
        conj = u @ ap @ u.conj().T - ap
        for m in range(8):
            for n in range(8):
                worst_p = max(worst_p, abs(evolution.heisenberg_aplus_P(t, m, n) - conj[m, n]))
    t = 0.25
    dim = oracle.truncation_level(t, 8, 1e-10, generator="P2")
    p_op = fock.build_momentum(dim)
    u2, _, _ = oracle.expm_matrix(p_op @ p_op, 1j * t)
    ap = fock.build_creation(dim).entries
    conj2 = u2 @ ap @ u2.conj().T - ap
    block = evolution.heisenberg_aplus_P2(t, 7, 7)
    worst_p2 = float(np.max(np.abs(block - conj2[:8, :8])))
    report(10, "raising-operator correction (translation) vs conjugation", worst_p, 1e-6)
    report(10, "raising-operator correction (kinetic) vs conjugation", worst_p2, 1e-6)


def test_criterion_11_coefficient_path_cross_check():
    from math import factorial

    from semicircleqm.specfun import bessel_j_all, hyp1f1

    worst = 0.0
    for t in (0.25, 1.0, 2.5, 4.0):
        jv = bessel_j_all(17, 2 * t).values
        for m in range(17):
            for n in range(17 - m):
                s = m + n
                closed = (-1.0) ** m * (s + 1) * jv[s + 1] / t
                series = evolution.coeff_I_series(m, n, t)
                worst = max(worst, abs(closed - series))
                if s % 2 == 0:
                    h = s // 2
                    closed2 = (-1) ** m * (-1j * t) ** h / factorial(h) * hyp1f1((s + 1) / 2, s + 2, 4j * t).value
                    series2 = evolution.coeff_I2_series(m, n, t)
                    worst = max(worst, abs(closed2 - series2))
    report(11, "defining series vs Bessel/1F1 closed forms (m+n <= 16)", worst, 1e-11)


def test_criterion_12_unitarity_and_group_law():
    worst_norm = 0.0
    for t in T_GRID:
        for k in range(9):
            worst_norm = max(worst_norm, evolution.evolve_P(k, t, tol=1e-10).norm_defect())
            worst_norm = max(worst_norm, evolution.evolve_X(k, t, tol=1e-10).norm_defect())
        worst_norm = max(worst_norm, evolution.evolve_P2_vacuum(t, tol=1e-10).norm_defect())
    worst_group = 0.0
    for gen in ("P", "X"):
        size = 8 + bessel_tail_index(1.4, 1e-12)
        tables = {t: evolution.element_table(gen, t, size) for t in (0.3, 0.7, 0.6, 1.0, 1.4)}
        for t1, t2 in ((0.3, 0.3), (0.3, 0.7), (0.7, 0.3), (0.7, 0.7)):
            prod = tables[t1] @ tables[t2]
            worst_group = max(worst_group, float(np.max(np.abs((prod - tables[round(t1 + t2, 10)])[:8, :8]))))
    size2 = 8 + 2 * evolution._p2_level_tail_index(1.4, 1e-11) + 2
    tables2 = {t: evolution.element_table("P2", t, size2) for t in (0.3, 0.7, 0.6, 1.0, 1.4)}
    for t1, t2 in ((0.3, 0.3), (0.3, 0.7), (0.7, 0.7)):
        prod = tables2[t1] @ tables2[t2]
        worst_group = max(worst_group, float(np.max(np.abs((prod - tables2[round(t1 + t2, 10)])[:8, :8]))))
    report(12, "unitarity of all closed-form evolutions", worst_norm, 1e-8)
    report(12, "group law U(t)U(s) = U(t+s) on the 8x8 block", worst_group, 1e-8)
