"""Module-by-module invariant suites backing the command-line verifier.

Each suite returns CheckReport records.  Exactness-class identities
(algebraic relations, spectral relabelings, series cross-checks) are
compared against the caller-supplied tolerance; quadrature-limited
identities keep their intrinsic tolerances, which are part of the
numerical contract and documented per check.  The combinatorics suite
visits every sign word of length <= 14 through the prefix-sum normal
forms of `combinatorics.normal_forms`, one vectorised pass per length.
"""

from __future__ import annotations

from math import cos, pi, sqrt

import numpy as np

from . import combinatorics as comb_mod
from . import evolution, fock, hilbert, oracle, orthopoly, specfun
from .report import CheckReport

_QUAD_TOL_PV = 1e-6


def combinatorics_suite(k_max: int = 14, tol: float = 1e-8) -> list[CheckReport]:
    """Counting formula and raising counts against every word of length k <= k_max.

    One `normal_forms(k)` pass per length supplies all three enumeration
    criteria: its (m_plus, m_minus) histogram must equal `theta_count` in
    every reachable cell and 0 elsewhere, the reachable classes must hold
    all 2^k words, and every word's directly counted raisings must equal
    p + m_plus for its class.
    """
    del tol  # exact integer checks
    worst_formula = 0
    worst_union = 0
    worst_nu = 0
    for k in range(k_max + 1):
        forms = comb_mod.normal_forms(k)
        cells = forms.m_plus.astype(np.intp) * (k + 1) + forms.m_minus
        hist = np.bincount(cells, minlength=(k + 1) ** 2)
        # cells outside the reachable set expect no words; a word landing
        # there also fails the raising-count criterion through its 0 entry
        reachable = np.zeros(hist.size, dtype=bool)
        want_count = np.zeros(hist.size, dtype=np.int64)
        want_nu = np.zeros(hist.size, dtype=np.int64)
        for m_plus in range(k + 1):
            for m_minus in range(k + 1 - m_plus):
                if (k - m_plus - m_minus) % 2:
                    continue
                p = (k - m_plus - m_minus) // 2
                cell = m_plus * (k + 1) + m_minus
                reachable[cell] = True
                want_count[cell] = comb_mod.theta_count(m_plus, m_minus, p)
                want_nu[cell] = comb_mod.nu_plus_on_theta(m_plus, m_minus, p)
        worst_formula = max(worst_formula, int(np.max(np.abs(hist - want_count))))
        worst_union = max(worst_union, abs(int(hist[reachable].sum()) - 2**k))
        worst_nu = max(worst_nu, int(np.max(np.abs(forms.nu_plus - want_nu[cells]))))
    catalan_defect = max(
        abs(comb_mod.theta_count(0, 0, p) - comb_mod.catalan(p)) for p in range(11)
    )
    return [
        CheckReport(f"counting formula vs enumeration (k <= {k_max})", float(worst_formula), 0.0),
        CheckReport(f"class sizes sum to 2^k (k <= {k_max})", float(worst_union), 0.0),
        CheckReport("empty normal form counts are Catalan (p <= 10)", float(catalan_defect), 0.0),
        CheckReport("raising count is p + m_plus on every class", float(worst_nu), 0.0),
    ]


def specfun_suite(tol: float = 1e-8) -> list[CheckReport]:
    """Bessel and 1F1 identities.

    The three-term recurrence tests the defining series; the backward
    recurrence of `bessel_j_all` must match those series values and
    carries the Jacobi-Anger and normalization sums.
    """
    xs = np.linspace(0.25, 8.0, 12)
    rec = 0.0
    miller = 0.0
    for t in xs:
        jv = np.array([specfun.bessel_j_series(n, t).value for n in range(12)])
        for n in range(1, 10):
            rec = max(rec, abs(2 * n * jv[n] / t - jv[n + 1] - jv[n - 1]))
        miller = max(miller, float(np.max(np.abs(specfun.bessel_j_all(11, t).values - jv))))
    ja = 0.0
    for t in np.linspace(0.25, 4.0, 8):
        jv = specfun.bessel_j_all(specfun.bessel_tail_index(t, 1e-14), 2 * t).values
        total = jv[0] + 2 * np.sum((1j) ** np.arange(1, jv.size) * jv[1:])
        ja = max(ja, abs(total - np.exp(2j * t)))
    norm = 0.0
    for x in np.linspace(0.5, 8.0, 8):
        jv = specfun.bessel_j_all(specfun.bessel_tail_index(x / 2, 1e-14) + 1, x).values
        norm = max(norm, abs(jv[0] ** 2 + 2 * np.sum(jv[1:] ** 2) - 1.0))
    fident = 0.0
    for z in (0.5, 1.0, 2.0, -1.5):
        fident = max(fident, abs(specfun.hyp1f1(1.0, 2.0, z).value - (np.exp(z) - 1.0) / z))
    return [
        CheckReport("Bessel three-term recurrence", rec, tol),
        CheckReport("backward recurrence matches the defining series", miller, 1e-13),
        CheckReport("plane-wave (Jacobi-Anger) expansion at 2t", ja, tol),
        CheckReport("Bessel normalization sum", norm, tol),
        CheckReport("1F1(1;2;z) = (e^z - 1)/z", fident, tol),
    ]


def fock_suite(tol: float = 1e-8) -> list[CheckReport]:
    reports = fock.multiplication_table_checks(12)
    reports += fock.lie_bracket_checks(12, 3, 3)
    moment_defect = 0
    for n in range(0, 9):
        cn = comb_mod.catalan(n)
        dim = 4 * n + 4
        moment_defect = max(
            moment_defect,
            abs(fock.vacuum_moment(2 * n, "X", dim) - cn),
            abs(fock.vacuum_moment(2 * n, "P", dim) - cn),
            abs(fock.vacuum_moment(2 * n + 1, "X", dim)),
            abs(fock.vacuum_moment(2 * n + 1, "P", dim)),
        )
    reports.append(CheckReport("vacuum moments are Catalan numbers (n <= 8)", float(moment_defect), 0.0))
    norm_defect = 0.0
    for dim in (4, 8, 16, 32):
        eig = np.linalg.eigvalsh(fock.build_position(dim).entries.real)
        norm_defect = max(norm_defect, abs(float(np.max(np.abs(eig))) - 2.0 * cos(pi / (dim + 1))))
    reports.append(CheckReport("position norm is 2 cos(pi/(N+1))", norm_defect, tol))
    coh = 0.0
    for u, v in ((0.3j, 0.4), (0.5, 0.5), (-0.2 + 0.1j, 0.35j)):
        closed = fock.coherent_kernel(u, v)
        partial, tail = fock.coherent_kernel_truncated(u, v, 200)
        coh = max(coh, abs(closed - partial) - tail if abs(closed - partial) > tail else 0.0)
    reports.append(CheckReport("coherent kernel geometric series", coh, tol))
    hdef = 0.0
    for t in (0.0, 0.7, 2.0):
        xi = fock.FockVector.from_coeffs([0.5, sqrt(0.75), 0.0, 0.0])
        hdef = max(
            hdef,
            abs(fock.harmonic_char(t, 0.25, 1.0) - fock.harmonic_char_from_state(t, xi, 1.0)),
        )
    reports.append(CheckReport("two-point characteristic function vs diagonal state", hdef, tol))
    return reports


def orthopoly_suite(tol: float = 1e-8) -> list[CheckReport]:
    nodes, weights = orthopoly.quadrature_rule(64)
    vals = orthopoly.phi_all(20, nodes)
    gram = (vals * weights) @ vals.T
    ortho = float(np.max(np.abs(gram - np.eye(21))))
    thetas = np.linspace(0.03, pi - 0.03, 101)
    xs = 2.0 * np.cos(thetas)
    rec_vs_closed = 0.0
    pv = orthopoly.phi_all(200, xs)
    for n in range(0, 201, 20):
        closed = np.sin((n + 1) * thetas) / np.sin(thetas)
        rec_vs_closed = max(
            rec_vs_closed, float(np.max(np.abs(pv[n] - closed) / np.maximum(1.0, np.abs(closed))))
        )
    conn = orthopoly.connection_checks(100, xs)
    reports = [
        CheckReport("orthonormality under the Gauss rule (degree <= 20)", ortho, tol),
        CheckReport("recurrence vs trigonometric closed form (n <= 200)", rec_vs_closed, 1e-10),
    ]
    reports += conn
    moments = max(
        abs(oracle.semicircle_expectation(lambda y, j=j: y ** (2 * j), 64) - comb_mod.catalan(j))
        for j in range(0, 9)
    )
    reports.append(CheckReport("even quadrature moments are Catalan numbers", moments, 1e-10))
    return reports


def hilbert_suite(tol: float = 1e-8, seed: int = 0) -> list[CheckReport]:
    rng = np.random.default_rng(seed)
    pv_defect = 0.0
    eval_grid, _ = orthopoly.quadrature_rule(25)
    pv = hilbert.hilbert_mu_pv(lambda y: orthopoly.phi_all(12, y), eval_grid, 2048)
    for n in range(0, 13):
        pv_defect = max(pv_defect, float(np.max(np.abs(pv[n] - orthopoly.t_cheb(n + 1, eval_grid)))))
    mom_defect = 0.0
    pmat = fock.build_momentum(18).entries
    for _ in range(20):
        coeffs = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        f = hilbert.ChebSeries.from_coeffs(coeffs)
        out = hilbert.momentum_apply(f).coeffs
        ref = pmat @ np.concatenate([coeffs, [0.0]])
        mom_defect = max(mom_defect, float(np.max(np.abs(out[:18] - ref))))
    skew = 0.0
    for _ in range(50):
        fc = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        gc = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        f = hilbert.ChebSeries.from_coeffs(fc)
        g = hilbert.ChebSeries.from_coeffs(gc)
        hf = hilbert.t_to_phi(hilbert.hilbert_mu_spectral(f)).coeffs
        hg = hilbert.t_to_phi(hilbert.hilbert_mu_spectral(g)).coeffs
        lhs = np.vdot(np.concatenate([fc, [0.0]]), hg)
        rhs = np.vdot(hf, np.concatenate([gc, [0.0]]))
        skew = max(skew, abs(lhs + rhs))
    kin_defect = 0.0
    p2 = pmat @ pmat
    for _ in range(10):
        coeffs = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        f = hilbert.ChebSeries.from_coeffs(coeffs)
        out = hilbert.kinetic_apply(f).coeffs
        ref = 0.5 * (p2 @ np.concatenate([coeffs, [0.0]]))
        # the top two rows of the squared truncated matrix carry the
        # boundary defect; the series result is exact everywhere
        kin_defect = max(kin_defect, float(np.max(np.abs(out[:16] - ref[:16]))))
    # integrate rho^2 over [-2, 2] after x = 2 cos(theta), where the
    # integrand is smooth and Gauss-Legendre is exact to rounding
    xg, wg = orthopoly.gauss_legendre(64)
    thetas_gl = 0.5 * pi * (xg + 1.0)
    w_gl = 0.5 * pi * wg
    integrand = hilbert.rho_weight(2.0 * np.cos(thetas_gl)) ** 2 * 2.0 * np.sin(thetas_gl)
    rho_norm = abs(float(np.sum(w_gl * integrand)) - 1.0)
    reports = [
        CheckReport("PV transform sends Phi_n to T_{n+1} (n <= 12)", pv_defect, _QUAD_TOL_PV),
        CheckReport("momentum action matches the tridiagonal matrix", mom_defect, tol),
        CheckReport("transform is skew-adjoint on series (50 pairs)", skew, 1e-10),
        CheckReport("kinetic action matches half the squared matrix", kin_defect, 1e-12),
        CheckReport("squared weight integrates to 1", rho_norm, 1e-8),
    ]
    for n in (0, 1, 3):
        reports.append(hilbert.schrodinger_commutator_check(n, 2048))
    for t in (0.5, 2.0):
        reports += hilbert.kapteyn_checks(t, pi / 3, _QUAD_TOL_PV)
    closed_defect = 0.0
    for t in (0.5, 1.0):
        state0 = evolution.evolve_P(0, t, tol=1e-12)
        state1 = evolution.evolve_P(1, t, tol=1e-12)
        for x in (-1.1, 0.4, 1.5):
            closed_defect = max(
                closed_defect,
                abs(state0.evaluate(x) - hilbert.evolved_vacuum_closed_form(t, x)),
                abs(state1.evaluate(x) - hilbert.evolved_phi1_closed_form(t, x)),
            )
    reports.append(
        CheckReport("pointwise PV closed forms match amplitude series", closed_defect, _QUAD_TOL_PV)
    )
    return reports


def evolution_suite(tol: float = 1e-8) -> list[CheckReport]:
    cross = 0.0
    for t in (0.25, 0.7, 2.0, 4.0):
        # agreements are the gaps between the engine column and the defining series
        for kind, t_kind in ((evolution.CoeffKind.MOMENTUM_I, t), (evolution.CoeffKind.KINETIC_I2, t / 2)):
            cross = max(cross, max(evolution.build_coeff_table(kind, t_kind, 8).agreements.values()))
    unit = 0.0
    for t in (0.5, 1.0, 2.0):
        for k in (0, 3):
            unit = max(unit, evolution.evolve_P(k, t, tol=1e-12).norm_defect())
            unit = max(unit, evolution.evolve_X(k, t, tol=1e-12).norm_defect())
        unit = max(unit, evolution.evolve_P2_vacuum(t / 2, tol=1e-12).norm_defect())
    group = 0.0
    for gen in (evolution.Generator.P, evolution.Generator.X):
        t1, t2 = 0.3, 0.7
        l_big = 12 + specfun.bessel_tail_index(t1 + t2, 1e-12)
        u1 = evolution.element_table(gen, t1, l_big)
        u2 = evolution.element_table(gen, t2, l_big)
        u12 = evolution.element_table(gen, t1 + t2, l_big)
        group = max(group, float(np.max(np.abs((u1 @ u2 - u12)[:8, :8]))))
    orc = 0.0
    reassembly = 0.0
    for t in (0.5, 1.5):
        dim = oracle.truncation_level(t, 4, 1e-10)
        p = fock.build_momentum(dim)
        for k in (0, 4):
            # the evolved basis vector k, column k of e^(itP), by the Taylor action
            ref = oracle.expm_apply(p, 1j * t, fock.FockVector.basis(k, dim), 1e-12).vector
            state = evolution.evolve_P(k, t, tol=1e-11)
            top = min(ref.size, state.amplitudes.size)
            orc = max(orc, float(np.max(np.abs(ref[:top] - state.amplitudes[:top]))))
            # evolve_P does not read the coefficients; this ties them to the group
            reassembled = np.array([evolution.matrix_element_P(l, k, t) for l in range(top)])
            reassembly = max(reassembly, float(np.max(np.abs(ref[:top] - reassembled))))
    t_h = 0.4
    dim = oracle.truncation_level(t_h, 8, 1e-10)
    # the conjugation needs whole rows of e^(itP): one dense exponential costs less
    # at this dimension than the four Taylor actions that would give them
    u_mat, _, _ = oracle.expm_matrix(fock.build_momentum(dim), 1j * t_h)
    ap = fock.build_creation(dim).entries
    conj = u_mat @ ap @ u_mat.conj().T - ap
    heis = float(np.max(np.abs(evolution.heisenberg_block("P", t_h, 3, 3) - conj[:4, :4])))
    return [
        CheckReport("coefficient routes agree (orders <= 8)", cross, 1e-11),
        CheckReport("evolved states are unit norm", unit, 1e-8),
        CheckReport("group law U(t)U(s) = U(t+s) on the 8x8 block", group, 1e-8),
        CheckReport("amplitudes match the matrix exponential", orc, 1e-8),
        CheckReport("coefficients reassemble the matrix exponential", reassembly, 1e-8),
        CheckReport("raising-operator correction matches conjugation", heis, 1e-6),
    ]


def oracle_suite(tol: float = 1e-8) -> list[CheckReport]:
    dim = 48
    p = fock.build_momentum(dim)
    v = fock.FockVector.basis(0, dim)
    vc = oracle.expm_apply(p, 1j * 1.0, v).vector
    unit = abs(vc @ np.conj(vc) - 1.0)
    diag = fock.build_number_function(dim, lambda nn: nn)
    w = fock.FockVector.from_coeffs(np.ones(dim) / sqrt(dim))
    got = oracle.expm_apply(diag, 1j * 0.9, w).vector
    want = np.exp(1j * 0.9 * np.arange(dim)) * w.coeffs
    diag_defect = float(np.max(np.abs(got - want)))
    grp = 0.0
    va = oracle.expm_apply(p, 1j * 0.4, v).vector
    vb = oracle.expm_apply(p, 1j * 0.6, fock.FockVector.from_coeffs(va)).vector
    grp = float(np.max(np.abs(vb - vc)))
    ref = oracle.expm_apply(fock.build_momentum(96), 1j * 1.0, fock.FockVector.basis(0, 96)).vector
    refine = float(np.max(np.abs(ref[:dim] - vc)))
    z0 = float(np.max(np.abs(oracle.expm_apply(p, 0.0, v).vector - v.coeffs)))
    return [
        CheckReport("exponential preserves norm (skew-Hermitian)", float(abs(unit)), 1e-12),
        CheckReport("diagonal generator exponentiates componentwise", diag_defect, tol),
        CheckReport("semigroup property e^A e^B = e^(A+B)", grp, 1e-10),
        CheckReport("doubling the dimension leaves amplitudes fixed", refine, 1e-10),
        CheckReport("z = 0 returns the input vector", z0, 0.0),
    ]


def run_all(tol: float = 1e-8, seed: int = 0) -> dict[str, list[CheckReport]]:
    """Every module's invariant suite, keyed by module name."""
    return {
        "combinatorics": combinatorics_suite(tol=tol),
        "specfun": specfun_suite(tol),
        "fock": fock_suite(tol),
        "orthopoly": orthopoly_suite(tol),
        "hilbert": hilbert_suite(tol, seed),
        "evolution": evolution_suite(tol),
        "oracle": oracle_suite(tol),
    }
