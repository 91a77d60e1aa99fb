"""Every invariant behind `semicircle-qm verify` and the acceptance gate, defined once.

A criterion is one function of its grid that returns its residuals: a
number, or a tuple or array of them, in the order its docstring gives.
It attaches no name and no tolerance.  The seven `*_suite` functions
evaluate the criteria on the verify grids and report them under
verify's names, and `tests/test_acceptance.py` evaluates the same
functions on the gate's wider grids, which reach the domain edges
|t| = 16 (P, X) and |t| = 8 (P^2).  `CRITERIA` lists every function a
row of `run_all` or a gate line comes from, the Fock and polynomial
check lists that name their own rows included, and the mutant table of
`tests/test_checks.py` shows each of them failing on a perturbed
program function: a criterion that no mutant of the program can fail
checks only its own definition, and is not kept.

Exactness-class identities are compared against the caller-supplied
tolerance; quadrature-limited identities keep their intrinsic
tolerances, which are part of the numerical contract.  The enumeration
criterion visits every sign word of length <= 14 through the
prefix-sum normal forms of `combinatorics.normal_forms`, one vectorised
pass per length.
"""

from __future__ import annotations

from math import cos, factorial, pi, sqrt

import numpy as np

from . import combinatorics as comb_mod
from . import evolution, fock, hilbert, oracle, orthopoly, specfun
from .exceptions import check_index, check_positive
from .report import CheckReport

_QUAD_TOL_PV = 1e-6
_PV_NODES = 2048  # nodes of every principal-value quadrature
_THETAS = np.linspace(0.03, pi - 0.03, 101)  # interior angles of the polynomial identities
_K_MAX = 14  # longest sign word of the enumeration criterion


def enumeration(ks) -> tuple[int, int]:
    """(formula, raising): every word of each length k in ks against the counting formula.

    The (m_plus, m_minus) histogram of `normal_forms(k)` against
    `theta_count` in every cell (0 outside the reachable ones), and each
    word's raisings against p + m_plus.  The histogram of all 2^k words
    sums to 2^k by construction, and a word in an unreachable cell adds
    at least 1 to the formula residual, so the class sizes need no
    check of their own.
    """
    worst_formula = worst_nu = 0
    for k in ks:
        forms = comb_mod.normal_forms(k)
        cells = forms.m_plus.astype(np.intp) * (k + 1) + forms.m_minus
        hist = np.bincount(cells, minlength=(k + 1) ** 2)
        # cells outside the reachable set expect no words; a word landing
        # there also fails the raising-count criterion through its 0 entry
        want_count = np.zeros(hist.size, dtype=np.int64)
        want_nu = np.zeros(hist.size, dtype=np.int64)
        for m_plus in range(k + 1):
            for m_minus in range(k + 1 - m_plus):
                if (k - m_plus - m_minus) % 2:
                    continue
                p = (k - m_plus - m_minus) // 2
                cell = m_plus * (k + 1) + m_minus
                want_count[cell] = comb_mod.theta_count(m_plus, m_minus, p)
                want_nu[cell] = comb_mod.nu_plus_on_theta(m_plus, m_minus, p)
        worst_formula = max(worst_formula, int(np.max(np.abs(hist - want_count))))
        worst_nu = max(worst_nu, int(np.max(np.abs(forms.nu_plus - want_nu[cells]))))
    return worst_formula, worst_nu


def catalan_counts() -> int:
    """Largest |theta_count(0, 0, p) - C_p| for p <= 10."""
    return max(abs(comb_mod.theta_count(0, 0, p) - comb_mod.catalan(p)) for p in range(11))


def combinatorics_suite(tol: float = 1e-8) -> list[CheckReport]:
    del tol  # exact integer checks
    formula, raising = enumeration(range(_K_MAX + 1))
    return [
        CheckReport(f"counting formula vs enumeration (k <= {_K_MAX})", float(formula), 0.0),
        CheckReport("empty normal form counts are Catalan (p <= 10)", float(catalan_counts()), 0.0),
        CheckReport("raising count is p + m_plus on every class", float(raising), 0.0),
    ]


def bessel_identities() -> tuple[float, float, float, float, float]:
    """(recurrence, backward, plane_wave, normalization, hyp1f1) on fixed grids.

    The three-term recurrence tests the defining series; the backward
    recurrence of `bessel_j_all` must match those series values and
    carries the Jacobi-Anger and normalization sums.
    """
    rec = miller = 0.0
    for t in np.linspace(0.25, 8.0, 12):
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
    return rec, miller, ja, norm, fident


def specfun_suite(tol: float = 1e-8) -> list[CheckReport]:
    rec, miller, ja, norm, fident = bessel_identities()
    return [
        CheckReport("Bessel three-term recurrence", rec, tol),
        CheckReport("backward recurrence matches the defining series", miller, 1e-13),
        CheckReport("plane-wave (Jacobi-Anger) expansion at 2t", ja, tol),
        CheckReport("Bessel normalization sum", norm, tol),
        CheckReport("1F1(1;2;z) = (e^z - 1)/z", fident, tol),
    ]


def vacuum_moments(n_max: int) -> int:
    """Largest gap of the exact vacuum moments of X and P to C_n (order 2n) and 0 (order 2n+1), n <= n_max."""
    worst = 0
    for n in range(n_max + 1):
        cn = comb_mod.catalan(n)
        dim = 4 * n + 4
        worst = max(
            worst,
            abs(fock.vacuum_moment(2 * n, "X", dim) - cn),
            abs(fock.vacuum_moment(2 * n, "P", dim) - cn),
            abs(fock.vacuum_moment(2 * n + 1, "X", dim)),
            abs(fock.vacuum_moment(2 * n + 1, "P", dim)),
        )
    return worst


def fock_closed_forms() -> tuple[float, float, float]:
    """(position_norm, coherent, two_point) defects against closed forms on fixed grids."""
    norm_defect = 0.0
    for dim in (4, 8, 16, 32):
        eig = np.linalg.eigvalsh(fock.build_position(dim).real)
        norm_defect = max(norm_defect, abs(float(np.max(np.abs(eig))) - 2.0 * cos(pi / (dim + 1))))
    coh = 0.0
    for u, v in ((0.3j, 0.4), (0.5, 0.5), (-0.2 + 0.1j, 0.35j)):
        closed = fock.coherent_kernel(u, v)
        partial, tail = fock.coherent_kernel_truncated(u, v, 200)
        coh = max(coh, abs(closed - partial) - tail if abs(closed - partial) > tail else 0.0)
    hdef = 0.0
    xi = np.array([0.5, sqrt(0.75), 0.0, 0.0])
    for t in (0.0, 0.7, 2.0):
        hdef = max(hdef, abs(fock.harmonic_char(t, 0.25, 1.0) - fock.harmonic_char_from_state(t, xi, 1.0)))
    return norm_defect, coh, hdef


def fock_suite(tol: float = 1e-8) -> list[CheckReport]:
    norm, coherent, two_point = fock_closed_forms()
    return [
        *fock.multiplication_table_checks(12),
        *fock.lie_bracket_checks(12, 3, 3),
        CheckReport("vacuum moments are Catalan numbers (n <= 8)", float(vacuum_moments(8)), 0.0),
        CheckReport("position norm is 2 cos(pi/(N+1))", norm, tol),
        CheckReport("coherent kernel geometric series", coherent, tol),
        CheckReport("two-point characteristic function vs diagonal state", two_point, tol),
    ]


def polynomial_identities() -> tuple[float, float]:
    """(orthonormality, recurrence): the Gauss-rule Gram matrix of Phi_0..Phi_20, and Phi_n vs its closed form."""
    nodes, weights = orthopoly.quadrature_rule(64)
    vals = orthopoly.phi_all(20, nodes)
    ortho = float(np.max(np.abs((vals * weights) @ vals.T - np.eye(21))))
    rec_vs_closed = 0.0
    pv = orthopoly.phi_all(200, 2.0 * np.cos(_THETAS))
    for n in range(0, 201, 20):
        closed = np.sin((n + 1) * _THETAS) / np.sin(_THETAS)
        rec_vs_closed = max(
            rec_vs_closed, float(np.max(np.abs(pv[n] - closed) / np.maximum(1.0, np.abs(closed))))
        )
    return ortho, rec_vs_closed


def quadrature_moments(j_max: int) -> float:
    """Largest gap of the 64-point Gauss moments of y^(2j) to C_j, j <= j_max."""
    return max(
        abs(oracle.semicircle_expectation(lambda y, j=j: y ** (2 * j), 64) - comb_mod.catalan(j))
        for j in range(j_max + 1)
    )


def orthopoly_suite(tol: float = 1e-8) -> list[CheckReport]:
    ortho, rec_vs_closed = polynomial_identities()
    return [
        CheckReport("orthonormality under the Gauss rule (degree <= 20)", ortho, tol),
        CheckReport("recurrence vs trigonometric closed form (n <= 200)", rec_vs_closed, 1e-10),
        *orthopoly.connection_checks(100, 2.0 * np.cos(_THETAS)),
        CheckReport("even quadrature moments are Catalan numbers", quadrature_moments(8), 1e-10),
    ]


def pv_transform(n_max: int, points: int) -> float:
    """Largest |H Phi_n - T_{n+1}|, n <= n_max, by one stacked 2048-node PV quadrature at `points` Gauss nodes."""
    xs, _ = orthopoly.quadrature_rule(points)
    pv = hilbert.hilbert_mu_pv(lambda y: orthopoly.phi_all(n_max, y), xs, _PV_NODES)
    return max(float(np.max(np.abs(pv[n] - orthopoly.t_cheb(n + 1, xs)))) for n in range(n_max + 1))


def spectral_transform(n_max: int, xs) -> float:
    """Largest |H Phi_n - T_{n+1}| on xs, n <= n_max, by the spectral relabeling re-expanded over Phi."""
    worst = 0.0
    for n in range(n_max + 1):
        unit = hilbert.ChebSeries.from_coeffs(np.eye(n + 1)[n])
        back = hilbert.t_to_phi(hilbert.hilbert_mu_spectral(unit))
        worst = max(worst, float(np.max(np.abs(back.evaluate(xs) - orthopoly.t_cheb(n + 1, xs)))))
    return worst


def _random_series(rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(17) + 1j * rng.standard_normal(17)


def momentum_realization(rng, samples: int, pairs: int) -> tuple[float, float]:
    """(action, skew) on random series from rng (a Generator or a seed), drawn in that order.

    The series momentum against the tridiagonal matrix on `samples`
    series, then |<f, H g> + <H f, g>| on `pairs` pairs.
    """
    rng = np.random.default_rng(rng)
    pmat = fock.build_momentum(18)
    action = 0.0
    for _ in range(samples):
        coeffs = _random_series(rng)
        out = hilbert.momentum_apply(hilbert.ChebSeries.from_coeffs(coeffs)).coeffs
        action = max(action, float(np.max(np.abs(out[:18] - pmat @ np.append(coeffs, 0.0)))))
    skew = 0.0
    for _ in range(pairs):
        fc = _random_series(rng)
        gc = _random_series(rng)
        hf, hg = (hilbert.t_to_phi(hilbert.hilbert_mu_spectral(hilbert.ChebSeries.from_coeffs(c))) for c in (fc, gc))
        skew = max(skew, abs(np.vdot(np.append(fc, 0.0), hg.coeffs) + np.vdot(hf.coeffs, np.append(gc, 0.0))))
    return action, skew


def kinetic_action(rng, samples: int) -> float:
    """The series half-square of the momentum against half the squared matrix on `samples` random series."""
    rng = np.random.default_rng(rng)
    pmat = fock.build_momentum(18)
    p2 = pmat @ pmat
    worst = 0.0
    for _ in range(samples):
        coeffs = _random_series(rng)
        out = hilbert.kinetic_apply(hilbert.ChebSeries.from_coeffs(coeffs)).coeffs
        ref = 0.5 * (p2 @ np.append(coeffs, 0.0))
        # the top two rows of the squared truncated matrix carry the
        # boundary defect; the series result is exact everywhere
        worst = max(worst, float(np.max(np.abs(out[:16] - ref[:16]))))
    return worst


def weight_norm() -> float:
    """|integral of rho^2 - 1|, after x = 2 cos(theta), where Gauss-Legendre is exact to rounding."""
    xg, wg = orthopoly.gauss_legendre(64)
    thetas = 0.5 * pi * (xg + 1.0)
    integrand = hilbert.rho_weight(2.0 * np.cos(thetas)) ** 2 * 2.0 * np.sin(thetas)
    return abs(float(np.sum(0.5 * pi * wg * integrand)) - 1.0)


def weighted_commutator(levels) -> np.ndarray:
    """[Q, P]/i on the weighted levels Phi_n rho, one residual per level.

    In the weighted representation the momentum is i rho H rho^{-1} and
    Q is multiplication by x, so applied to Phi_n rho the commutator
    divided by i is rho(x) (x (H Phi_n)(x) - (H y Phi_n)(x)); this
    equals 2 rho for n = 0 and vanishes for n >= 1 (the full commutator
    is the rank-one operator 2i rho <rho, .>).  Both transforms of every
    level come from one stacked 2048-node PV quadrature at the 25 Gauss
    nodes.
    """
    levels = list(levels)
    check_index("levels", *levels)
    grid, _ = orthopoly.quadrature_rule(25)
    nodes, _ = orthopoly.quadrature_rule(_PV_NODES)
    # nudge off a shared node of the two cosine grids
    shared = np.min(np.abs(grid[:, None] - nodes), axis=1) < 1e-9
    xs = np.where(shared, grid + 1e-7, grid)

    def levels_and_moments(y):
        phi = orthopoly.phi_all(max(levels), y)[levels]
        return np.concatenate([phi, y * phi])

    transformed = hilbert.hilbert_mu_pv(levels_and_moments, xs, _PV_NODES)
    rho = hilbert.rho_weight(xs)
    got = rho * (xs * transformed[: len(levels)] - transformed[len(levels) :])
    want = np.where(np.array(levels)[:, None] == 0, 2.0 * rho, 0.0)
    return np.max(np.abs(got - want), axis=1)


def kapteyn(ts, thetas) -> np.ndarray:
    """|series - PV integral| of the alternating Bessel sine and cosine sums, shape (2, len(ts), len(thetas))."""
    routes = (
        (hilbert.kapteyn_sum_sin, hilbert.kapteyn_integral_sin),
        (hilbert.kapteyn_sum_cos, hilbert.kapteyn_integral_cos),
    )
    return np.array([[[abs(sum_(t, th) - integral(t, th)) for th in thetas] for t in ts] for sum_, integral in routes])


def pointwise_closed_forms(ts, xs) -> tuple[float, float]:
    """(vacuum, first_level): gaps of the PV closed forms of e^{itP} on levels 0 and 1 to the amplitude series."""
    vacuum = first_level = 0.0
    for t in ts:
        state0 = evolution.evolve_P(0, t, tol=1e-12)
        state1 = evolution.evolve_P(1, t, tol=1e-12)
        for x in map(float, xs):
            vacuum = max(vacuum, abs(state0.evaluate(x) - hilbert.evolved_vacuum_closed_form(t, x)))
            first_level = max(first_level, abs(state1.evaluate(x) - hilbert.evolved_phi1_closed_form(t, x)))
    return vacuum, first_level


def hilbert_suite(tol: float = 1e-8, seed: int = 0) -> list[CheckReport]:
    rng = np.random.default_rng(seed)
    action, skew = momentum_realization(rng, 20, 50)
    levels = (0, 1, 3)
    kapteyn_ts = (0.5, 2.0)
    sine, cosine = kapteyn(kapteyn_ts, (pi / 3,))
    closed_forms = max(pointwise_closed_forms((0.5, 1.0), (-1.1, 0.4, 1.5)))
    return [
        CheckReport("PV transform sends Phi_n to T_{n+1} (n <= 12)", pv_transform(12, 25), _QUAD_TOL_PV),
        CheckReport("momentum action matches the tridiagonal matrix", action, tol),
        CheckReport("transform is skew-adjoint on series (50 pairs)", skew, 1e-10),
        CheckReport("kinetic action matches half the squared matrix", kinetic_action(rng, 10), 1e-12),
        CheckReport("squared weight integrates to 1", weight_norm(), 1e-8),
        *(
            CheckReport(f"[Q,P]/i on weighted level {n}", float(r), 1e-8)
            for n, r in zip(levels, weighted_commutator(levels))
        ),
        *(
            CheckReport(f"Bessel {kind} sum vs PV integral (t={t}, theta={pi / 3:.4f})", float(r[i, 0]), _QUAD_TOL_PV)
            for i, t in enumerate(kapteyn_ts)
            for kind, r in (("sine", sine), ("cosine", cosine))
        ),
        CheckReport("pointwise PV closed forms match amplitude series", closed_forms, _QUAD_TOL_PV),
    ]


def coefficient_closed_forms(ts, s_max: int) -> float:
    """Largest gap of the defining series to the Bessel and 1F1 closed forms, m + n <= s_max."""
    worst = 0.0
    for t in ts:
        jv = specfun.bessel_j_all(s_max + 1, 2 * t).values
        for m in range(s_max + 1):
            for n in range(s_max + 1 - m):
                s = m + n
                closed = (-1.0) ** m * (s + 1) * jv[s + 1] / t
                worst = max(worst, abs(closed - evolution.coeff_I_series(m, n, t)))
                if s % 2 == 0:
                    h = s // 2
                    hyp = specfun.hyp1f1((s + 1) / 2, s + 2, 4j * t).value
                    closed2 = (-1) ** m * (-1j * t) ** h / factorial(h) * hyp
                    worst = max(worst, abs(closed2 - evolution.coeff_I2_series(m, n, t)))
    return worst


def unit_norm(ts, ks, kinetic_ts, tol: float) -> float:
    """Largest norm defect of e^{itP}, e^{itX} from levels ks at ts and e^{itP^2}|0> at kinetic_ts, evolved to tol."""
    return max(
        [evolution.evolve(gen, k, t, tol=tol).norm_defect() for t in ts for k in ks for gen in ("P", "X")]
        + [evolution.evolve_P2_vacuum(t, tol=tol).norm_defect() for t in kinetic_ts]
    )


def group_law(pairs: dict) -> float:
    """Largest |U(t1) U(t2) - U(t1 + t2)| on the 8x8 block, (t1, t2) in pairs[generator].

    The tables run 12 levels past the tail of U(t1 + t2) at 1e-12.
    """
    worst = 0.0
    for generator, gen_pairs in pairs.items():
        gen = evolution.Generator(generator)
        for t1, t2 in gen_pairs:
            size = 12 + evolution._tail_span(gen, t1 + t2, 1e-12)[1]
            u1, u2, u12 = (evolution.element_table(gen, t, size) for t in (t1, t2, t1 + t2))
            worst = max(worst, float(np.max(np.abs((u1 @ u2 - u12)[:8, :8]))))
    return worst


def evolutions_vs_oracle(generator: str, ts, ks, tol: float, rows: int | None = None) -> tuple[float, float]:
    """(amplitudes, reassembly): columns k of e^{itG} against the Taylor action on basis vector k.

    The engine's columns, evolved to tol, and for G = P (else 0) the
    coefficients reassembled by `matrix_element_P`, which `evolve_P`
    does not read; on the levels below rows (default: all shared).  G
    is truncated at `oracle.truncation_level(t, max(ks), 1e-10)`.
    """
    amplitudes = reassembly = 0.0
    for t in ts:
        dim = oracle.truncation_level(t, max(ks), 1e-10, generator)
        op = oracle._generator(generator, dim)
        for k in ks:
            ref = oracle.expm_apply(op, 1j * t, fock.basis(k, dim), 1e-12).vector
            state = evolution.evolve(generator, k, t, tol=tol)
            top = min(ref.size, state.amplitudes.size)
            top = top if rows is None else min(top, rows)
            amplitudes = max(amplitudes, float(np.max(np.abs(ref[:top] - state.amplitudes[:top]))))
            if generator == "P":
                reassembled = np.array([evolution.matrix_element_P(l, k, t) for l in range(top)])
                reassembly = max(reassembly, float(np.max(np.abs(ref[:top] - reassembled))))
    return amplitudes, reassembly


def element_tables(generator: str, ts, size: int) -> float:
    """Largest gap of `element_table` to the dense exponential of the truncated G on the size x size block."""
    worst = 0.0
    for t in ts:
        dim = oracle.truncation_level(t, size - 1, 1e-10, generator)
        u, _, _ = oracle.expm_matrix(oracle._generator(generator, dim), 1j * t)
        table = evolution.element_table(generator, t, size - 1)
        worst = max(worst, float(np.max(np.abs(table - u[:size, :size]))))
    return worst


def heisenberg_conjugation(generator: str, ts, size: int) -> float:
    """Largest gap of `heisenberg_block` to U a+ U* - a+ on the size x size block.

    U is the dense exponential of G truncated at `truncation_level(t,
    max(size, 8), 1e-10)`: the conjugation needs whole rows of U, which
    one dense exponential gives more cheaply than the actions.
    """
    worst = 0.0
    for t in ts:
        dim = oracle.truncation_level(t, max(size, 8), 1e-10, generator)
        u, _, _ = oracle.expm_matrix(oracle._generator(generator, dim), 1j * t)
        ap = fock.build_creation(dim)
        conj = u @ ap @ u.conj().T - ap
        block = evolution.heisenberg_block(generator, t, size - 1, size - 1)
        worst = max(worst, float(np.max(np.abs(block - conj[:size, :size]))))
    return worst


def char_function_routes(ts, series_ts) -> tuple[float, float, float]:
    """(closed, quadrature, series): the characteristic function vs J_1(2t)/t, 512-point quadrature, Catalan series."""
    closed = quad = 0.0
    for t in map(float, ts):
        got = evolution.char_function("P", t)
        closed = max(closed, abs(got - (1.0 if t == 0.0 else specfun.bessel_j(1, 2 * t).value / t)))
        quad = max(quad, abs(got - oracle.char_function_quadrature(t, 512)))
    series = max(
        abs(evolution.char_function("P", t) - evolution.char_function_catalan_series(t))
        for t in map(float, series_ts)
    )
    return closed, quad, series


def position_vacuum_law(ts, xs, tol: float) -> float:
    """Largest gap of `evolve_X_vacuum_pointwise` + i x J_1(2t) to the Phi_l(x) sum of `evolve_X(0, t, tol=tol)`."""
    worst = 0.0
    for t in ts:
        state = evolution.evolve_X(0, t, tol=tol)
        j1 = specfun.bessel_j(1, 2 * t).value
        for x in map(float, xs):
            worst = max(worst, abs(evolution.evolve_X_vacuum_pointwise(t, x) + 1j * x * j1 - state.evaluate(x)))
    return worst


def evolution_suite(tol: float = 1e-8) -> list[CheckReport]:
    unit = unit_norm((0.5, 1.0, 2.0), (0, 3), (0.25, 0.5, 1.0), 1e-12)
    group = group_law({"P": ((0.3, 0.7),), "X": ((0.3, 0.7),)})
    amplitudes, reassembly = evolutions_vs_oracle("P", (0.5, 1.5), (0, 4), 1e-11)
    return [
        CheckReport("evolved states are unit norm", unit, 1e-8),
        CheckReport("group law U(t)U(s) = U(t+s) on the 8x8 block", group, 1e-8),
        CheckReport("amplitudes match the matrix exponential", amplitudes, 1e-8),
        CheckReport("coefficients reassemble the matrix exponential", reassembly, 1e-8),
        CheckReport("raising-operator correction matches conjugation", heisenberg_conjugation("P", (0.4,), 4), 1e-6),
    ]


def expm_identities() -> tuple[float, float, float, float, float]:
    """(unit, diagonal, semigroup, refinement, zero) defects of `oracle.expm_apply` at dim 48."""
    dim = 48
    p = fock.build_momentum(dim)
    v = fock.basis(0, dim)
    vc = oracle.expm_apply(p, 1j * 1.0, v).vector
    unit = float(abs(vc @ np.conj(vc) - 1.0))
    diag = fock.build_number_function(dim, lambda nn: nn)
    w = np.ones(dim) / sqrt(dim)
    got = oracle.expm_apply(diag, 1j * 0.9, w).vector
    diag_defect = float(np.max(np.abs(got - np.exp(1j * 0.9 * np.arange(dim)) * w)))
    va = oracle.expm_apply(p, 1j * 0.4, v).vector
    vb = oracle.expm_apply(p, 1j * 0.6, va).vector
    grp = float(np.max(np.abs(vb - vc)))
    ref = oracle.expm_apply(fock.build_momentum(96), 1j * 1.0, fock.basis(0, 96)).vector
    refine = float(np.max(np.abs(ref[:dim] - vc)))
    z0 = float(np.max(np.abs(oracle.expm_apply(p, 0.0, v).vector - v)))
    return unit, diag_defect, grp, refine, z0


def oracle_suite(tol: float = 1e-8) -> list[CheckReport]:
    unit, diag_defect, grp, refine, z0 = expm_identities()
    return [
        CheckReport("exponential preserves norm (skew-Hermitian)", unit, 1e-12),
        CheckReport("diagonal generator exponentiates componentwise", diag_defect, tol),
        CheckReport("semigroup property e^A e^B = e^(A+B)", grp, 1e-10),
        CheckReport("doubling the dimension leaves amplitudes fixed", refine, 1e-10),
        CheckReport("z = 0 returns the input vector", z0, 0.0),
    ]


CRITERIA = (
    enumeration, catalan_counts, bessel_identities, fock.multiplication_table_checks, fock.lie_bracket_checks,
    vacuum_moments, fock_closed_forms, polynomial_identities, orthopoly.connection_checks, quadrature_moments,
    pv_transform, spectral_transform, momentum_realization, kinetic_action, weight_norm, weighted_commutator,
    kapteyn, pointwise_closed_forms, coefficient_closed_forms, unit_norm, group_law, evolutions_vs_oracle,
    element_tables, heisenberg_conjugation, char_function_routes, position_vacuum_law, expm_identities,
)


def run_all(tol: float = 1e-8, seed: int = 0) -> dict[str, list[CheckReport]]:
    """Every module's invariant suite, keyed by module name."""
    check_positive("tol", tol)
    check_index("seed", seed)
    return {
        "combinatorics": combinatorics_suite(tol=tol),
        "specfun": specfun_suite(tol),
        "fock": fock_suite(tol),
        "orthopoly": orthopoly_suite(tol),
        "hilbert": hilbert_suite(tol, seed),
        "evolution": evolution_suite(tol),
        "oracle": oracle_suite(tol),
    }
