"""Closed-form unitary evolutions on the semicircle Fock space.

The translation group generated by the momentum operator expands over
normally ordered products with numerical coefficients

    I[m, n](t) = sum_p t^(m+n+2p)/(m+n+2p)! (-1)^(p+m) N(m, n, p)

where N(m, n, p) is the exact inverse-normal-order count of
`combinatorics.theta_count`.  The series reaches the counts through
their ballot ratio N(0, s, p+1)/N(0, s, p), s = m+n, and
`specfun._exact_series` sums it exactly.  The same coefficients are
matrix elements of the group, I[m, n](t) = (-1)^n <m+n|e^{itP}|0>,
which equals the Bessel closed form (-1)^m (m+n+1) J_{m+n+1}(2t) / t.
Analogous tables
cover the position group (same profile with an i^(m+n) phase) and the
kinetic group e^{i t P^2}, whose closed form is a confluent
hypergeometric function.  Evolutions and element tables come from one
sine-transform engine with its own truncation check.  Each coefficient
is its defining series summed exactly in integers, checked within the
caller's tol against the engine's vacuum column.  Heisenberg-picture
corrections of the raising operator integrate a low-rank kernel of the
same column.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, log

import numpy as np

from . import orthopoly
from .exceptions import (
    CrossCheckError,
    DomainError,
    QuadratureError,
    TruncationError,
    check_finite,
    check_index,
    check_positive,
    check_support,
)
from .hilbert import ChebSeries
from .orthopoly import phi_all, t_cheb
from .report import CheckReport
from .specfun import _MAX_ABS_ARGUMENT, _exact_series, _tail_index, bessel_j, bessel_j_all, bessel_tail_index


class CoeffKind(enum.Enum):
    MOMENTUM_I = "momentum_I"
    POSITION_I = "position_I"
    KINETIC_I2 = "kinetic_I2"


class Generator(enum.Enum):
    P = "P"
    X = "X"
    P2 = "P2"
    H1 = "H1"


@dataclass(frozen=True)
class CoeffTable:
    """Normally-ordered expansion coefficients of one group element."""

    t: float
    kind: CoeffKind
    entries: dict[tuple[int, int], complex]
    agreements: dict[tuple[int, int], float]

    def validate(self) -> list[CheckReport]:
        """Structural invariants of the table."""
        reports = []
        if self.kind is CoeffKind.MOMENTUM_I:
            resid = max(
                (
                    abs(v - (-1) ** m * self.entries[(0, m + n)])
                    for (m, n), v in self.entries.items()
                    if (0, m + n) in self.entries
                ),
                default=0.0,
            )
            reports.append(CheckReport("I[m,n] = (-1)^m I[0,m+n]", resid, 1e-13))
        if self.kind is CoeffKind.KINETIC_I2:
            resid = max(
                (abs(v) for (m, n), v in self.entries.items() if (m + n) % 2 == 1),
                default=0.0,
            )
            reports.append(CheckReport("I2[m,n] = 0 for odd m+n", resid, 0.0))
        if self.t == 0.0:
            resid = max(
                abs(v - (1.0 if m + n == 0 else 0.0)) for (m, n), v in self.entries.items()
            )
            reports.append(CheckReport("entries at t=0 are delta[m+n,0]", resid, 0.0))
        return reports


@dataclass(frozen=True)
class EvolvedState:
    """Amplitudes <level l | group element | level k> for l = 0..l_max."""

    t: float
    k: int
    amplitudes: np.ndarray
    generator: Generator
    tail_index: int

    def norm_defect(self) -> float:
        return abs(float(np.sum(np.abs(self.amplitudes) ** 2)) - 1.0)

    def evaluate(self, x):
        """Pointwise value sum_l amplitude_l Phi_l(x)."""
        return ChebSeries(self.amplitudes).evaluate(x)


# ---------------------------------------------------------------------------
# coefficients: the engine's vacuum column, checked by the defining series

_COLUMN_TOL = 1e-13  # engine tolerance of every coefficient column


@lru_cache(maxsize=1024)
def _vacuum_column(gen: Generator, t: float, top: int) -> np.ndarray:
    """Read-only <level l | e^{itG} | 0> for l <= top, from the engine at _COLUMN_TOL."""
    column = _group_block(gen, t, np.array([0]), top, _COLUMN_TOL)[0][:, 0]
    column.flags.writeable = False
    return column


@lru_cache(maxsize=1024)
def _column_tail(gen: Generator, t: float) -> int:
    """Levels the tail of e^{itG}|0> spans at _COLUMN_TOL, searched once per (gen, t)."""
    return _tail_span(gen, t, _COLUMN_TOL)[1]


def _coeff_column(kind: CoeffKind, t: float, s: int) -> np.ndarray:
    """Vacuum column behind the coefficients of kind at t, through level max(s, tail level).

    Sized past the tail level, so one cache entry per t serves every s up to it.
    """
    gen = Generator.P2 if kind is CoeffKind.KINETIC_I2 else Generator.P
    check_finite("t", t, _MAX_T[gen])
    return _vacuum_column(gen, float(t), max(s, _column_tail(gen, float(t))))


@lru_cache(maxsize=1024)
def _series_cached(kinetic: bool, s: int, t: float) -> float | complex:
    """Defining series of I[0, s] (or I2[0, s]) with exact counts N(0, s, p), summed exactly.

        I[0, s]  = sum_p (-1)^p t^(s+2p)/(s+2p)! N(0, s, p)
        I2[0, s] = (-i)^h sum_p i^p t^(h+p)/(h+p)! N(0, s, p),   h = s/2

    Term p+1 is term p times +-t^step/((e+1)...(e+step)) (step 2 and
    e = s+2p, or step 1 and e = h+p) and the ballot ratio
    N(0, s, p+1)/N(0, s, p) = (s+2p+1)(s+2p+2)/((p+1)(s+p+2)), with the
    common factors cancelled; `specfun._exact_series` sums the terms in
    exact integers over t = a/b and rounds once.  Its stop rule,
    eps max(1, |partial sum|), is eps here, since |I[0, s]| <= 1 (a
    unitary matrix element).
    """
    check_finite("t", t)
    if kinetic and s % 2 == 1:
        return 0j  # P^2 keeps parity
    a, b = float(t).as_integer_ratio()
    at = abs(t)
    if kinetic:
        h = s // 2
        lead_re, lead_im = ((1, 0), (0, -1), (-1, 0), (0, 1))[h % 4]  # (-i)^h
        power, scale = a**h, b**h * factorial(h)
        two_a = 2 * a
        return _exact_series(
            (lead_re * power, lead_im * power, scale),
            lambda p: (0, (s + 2 * p + 1) * two_a, (p + 1) * (s + p + 2) * b),
            lambda p: 2.0 * at * (s + 2 * p + 3) / ((p + 2) * (s + p + 3)),
        )[0]
    a2, b2 = -a * a, b * b
    tt = at * at
    return _exact_series(
        (a**s, 0, b**s * factorial(s)),
        lambda p: (a2, 0, (p + 1) * (s + p + 2) * b2),
        lambda p: tt / ((p + 2) * (s + p + 3)),
    )[0].real


def _checked_coefficient(
    kind: CoeffKind, s: int, t: float, tol: float | None, column: np.ndarray
) -> tuple[float | complex, float]:
    """The [0, s] coefficient from the defining series and its gap to the engine column.

    I[0, s] = (-1)^s <s|e^{itP}|0> and I2[0, s] = <s|e^{itP^2}|0> must
    agree within tol (default 1e-11).  The series is returned: it rounds
    once, the transform at every node.  Every (m, s-m) coefficient is
    this value times (-1)^m, or i^s for the position group, so one check
    per (kind, s, t) covers them all.
    """
    kinetic = kind is CoeffKind.KINETIC_I2
    if kinetic and s % 2 == 1:
        return 0j, 0.0  # P^2 keeps parity
    tol = 1e-11 if tol is None else tol
    check_positive("tol", tol)
    engine = complex(column[s]) if kinetic else (-1.0) ** s * float(column[s].real)
    series = _series_cached(kinetic, s, float(t))
    gap = abs(engine - series)
    if gap > tol:
        raise CrossCheckError(
            f"{kind.value}[0,{s}]({t}): engine column {engine} vs defining series {series} "
            f"differ beyond {tol:.2e}"
        )
    return series, gap


def _entry(kind: CoeffKind, value: float | complex, m: int, s: int) -> complex:
    """Coefficient (m, s-m) from the [0, s] coefficient."""
    if kind is CoeffKind.POSITION_I:
        return (1j) ** s * value
    # signs go on before complex() and never on a zero, so no -0.0 parts appear
    if kind is CoeffKind.KINETIC_I2 and s % 2 == 1:
        return 0j
    return complex((-1.0) ** m * value)


def _coefficient(kind: CoeffKind, m: int, n: int, t: float, tol: float | None) -> complex:
    check_index("m, n", m, n)
    s = m + n
    return _entry(kind, _checked_coefficient(kind, s, t, tol, _coeff_column(kind, t, s))[0], m, s)


def coeff_I_series(m: int, n: int, t: float) -> complex:
    """Defining-series route alone (exact inverse-normal-order counts); any finite t."""
    check_index("m, n", m, n)
    return complex((-1.0) ** m * _series_cached(False, m + n, float(t)))


def coeff_I(m: int, n: int, t: float, tol: float | None = None) -> complex:
    """Translation-group coefficient I[m, n](t), cross-checked both ways.

    Compares (-1)^n <m+n|e^{itP}|0> from the sine-transform engine,
    which equals the Bessel closed form (-1)^m (m+n+1) J_{m+n+1}(2t)/t,
    with the exactly summed defining series and requires agreement
    within tol (default 1e-11).  Returns the series value.
    """
    return _coefficient(CoeffKind.MOMENTUM_I, m, n, t, tol)


def matrix_element_P(l: int, k: int, t: float, tol: float | None = None) -> complex:
    """<level l | translation group | level k> = sum_m I[l-m, k-m](t), m <= min(l, k)."""
    check_index("l, k", l, k)
    return sum(coeff_I(l - m, k - m, t, tol) for m in range(min(l, k) + 1))


# ---------------------------------------------------------------------------
# Schroedinger evolutions level by level

_DIM_CAP = 4095
_MAX_T = {Generator.P: 16.0, Generator.X: 16.0, Generator.P2: 8.0}


def _tail_span(gen: Generator, t: float, tol: float) -> tuple[int, int]:
    """Tail level of e^{itG} at tol and the levels it spans past a source level.

    P^2 counts even levels: |<2m|e^{itP^2}|0>| <= 2 e^(4|t|) (4|t|)^m / m!.
    """
    if gen is Generator.P2:
        tail = _tail_index(log(2.0) + 4.0 * abs(t), 4.0 * abs(t), tol)
        return tail, 2 * tail
    tail = bessel_tail_index(t, tol)
    return tail, tail


def _group_block(gen: Generator, t: float, cols: np.ndarray, l_max: int | None, tol: float):
    """(<level l | e^{itG} | level k> for l <= l_max, k in cols; tail index; top), G in {X, P, P2}.

    top is max(cols) plus the levels the tail spans (`_tail_span`);
    l_max defaults to it.  The DST-I
    diagonalises X on m levels: eigenvalues 2 cos(j pi/(m+1)), the
    `orthopoly.quadrature_rule` nodes, and eigenvectors
    sqrt(2/(m+1)) sin((l+1) j pi/(m+1)); P = D X D* with D = diag(i^l).
    m starts past l_max plus the tail level and grows to 2m+1, which
    keeps every node, until two truncations agree within tol/10.
    """
    if gen not in _MAX_T:
        raise DomainError(f"sine-transform evolutions cover generators P, X, P2, got {gen.value}")
    check_finite("t", t, _MAX_T[gen])
    if l_max is not None:
        check_index("l_max", l_max)
    tail, span = _tail_span(gen, t, tol)
    top = int(cols.max()) + span
    rows = (top if l_max is None else l_max) + 1
    d = np.arange(rows)[:, None] - cols
    if t == 0.0:
        return (d == 0).astype(complex), tail, top
    m = rows + span
    prev = None
    while m <= _DIM_CAP:
        theta = np.arange(1, m + 1) * (np.pi / (m + 1))
        x = 2.0 * np.cos(theta)
        phase = np.exp(1j * t * (x * x if gen is Generator.P2 else x))
        c = (2.0 / (m + 1)) * np.sin(np.outer(theta, cols + 1)) * phase[:, None]
        zero = np.zeros((1, cols.size))
        # DST-I of each column as the FFT of its odd extension (0, c, 0, -reversed c)
        block = 0.5j * np.fft.fft(np.concatenate([zero, c, zero, -c[::-1]]), axis=0)[1 : rows + 1]
        if prev is not None and float(np.max(np.abs(block - prev))) <= tol / 10.0:
            break
        prev, m = block, 2 * m + 1
    else:
        raise TruncationError(f"no agreement within {tol / 10.0:.1e} below dimension {_DIM_CAP}")
    i_d = np.array([1, 1j, -1, -1j])[d % 4]
    if gen is Generator.P2:  # P^2 keeps parity
        return np.where(d % 2 == 1, 0.0, block * i_d), tail, top
    if gen is Generator.P:  # e^{itX} is real at even d and imaginary at odd d
        return (block * i_d).real.astype(complex), tail, top
    return np.where(d % 2 == 1, 1j * block.imag, block.real), tail, top


def evolve(
    generator: Generator | str, k: int, t: float, l_max: int | None = None, tol: float = 1e-10
) -> EvolvedState:
    """Amplitudes <level l | e^{itG} | level k>, G in {P, X, P2}, up to l_max or k plus the tail level."""
    gen = Generator(generator)
    check_index("k", k)
    block, tail, top = _group_block(gen, t, np.array([k]), l_max, tol)
    if l_max is not None and l_max < top:
        raise TruncationError(f"l_max={l_max} below the required tail level {top}")
    return EvolvedState(t=t, k=k, amplitudes=block[:, 0], generator=gen, tail_index=tail)


def evolve_P(k: int, t: float, l_max: int | None = None, tol: float = 1e-10) -> EvolvedState:
    """Amplitudes of the translation group from source level k."""
    return evolve(Generator.P, k, t, l_max, tol)


def evolve_X(k: int, t: float, l_max: int | None = None, tol: float = 1e-10) -> EvolvedState:
    """Amplitudes of the position group from source level k."""
    return evolve(Generator.X, k, t, l_max, tol)


def evolve_P2_vacuum(t: float, l_max: int | None = None, tol: float = 1e-10) -> EvolvedState:
    """Kinetic group on the vacuum: amplitudes on even levels only."""
    return evolve(Generator.P2, 0, t, l_max, tol)


def evolve_P2_level1(t: float, l_max: int | None = None, tol: float = 1e-10) -> EvolvedState:
    """Kinetic group on the first excited level: odd-level amplitudes (P^2 keeps parity)."""
    return evolve(Generator.P2, 1, t, l_max, tol)


def evolve_H1(k: int, t: float, omega1: float = 1.0, l_max: int | None = None) -> EvolvedState:
    """Quadratic-well group: a pure phase on each level (diagonal generator); any finite t, omega1 > 0."""
    check_index("k", k)
    check_finite("t", t)
    check_positive("omega1", omega1)
    top = k if l_max is None else l_max
    check_index("l_max", top)
    if top < k:
        raise TruncationError(f"l_max={l_max} below source level {k}")
    amps = np.zeros(top + 1, dtype=complex)
    amps[k] = cmath.exp(1j * t * (omega1 if k == 0 else 2.0 * omega1))
    return EvolvedState(t=t, k=k, amplitudes=amps, generator=Generator.H1, tail_index=0)


def evolve_P_pointwise(k: int, t: float, x: float, tol: float = 1e-10) -> complex:
    """Pointwise closed form of the translation group from level k.

    Bessel/first-kind-polynomial expansion:

        J_0(2t) Phi_k(x) - sum_{n=1..k} J_n(2t) T_{k-n+2}(x)
        - J_{k+1}(2t) Phi_1(x)
        + x sum_{n=0..k} sum_{m>=n+2} (-1)^(m-n) J_m(2t) Phi_{m+k-2n-1}(x)

    The single -J_{k+1}(2t) Phi_1(x) term is the boundary contribution
    of the reindexed telescoping; dropping it breaks the identity with
    the amplitude series for every x != 0 (verified against the matrix
    oracle).  Raises DomainError for |t| > 16, like `evolve_P`.
    """
    check_index("k", k)
    check_finite("t", t, _MAX_T[Generator.P])
    m_top = bessel_tail_index(t, tol / 100.0) + k + 4
    jv = bessel_j_all(m_top, 2.0 * t).values
    pv = phi_all(m_top + k + 2, x)
    val = jv[0] * pv[k]
    for n in range(1, k + 1):
        val -= jv[n] * t_cheb(k - n + 2, x)
    val -= jv[k + 1] * pv[1]
    double = 0.0
    for n in range(0, k + 1):
        for m in range(n + 2, m_top + 1):
            double += (-1.0) ** (m - n) * jv[m] * pv[m + k - 2 * n - 1]
    return complex(val + x * double)


def evolve_X_vacuum_pointwise(t: float, x: float) -> complex:
    """First-kind reassembly of the position group on the vacuum.

    Returns e^(itx) - i x J_1(2t), which by the plane-wave expansion
    equals J_0(2t) + sum_{m>=2} i^m J_m(2t) T_m(x): the Bessel series of
    the evolution with its order-one term removed.  The position
    operator acts as multiplication, so the full pointwise evolved
    vacuum is e^(itx) itself; the amplitude series of evolve_X sums to
    that, exceeding this combination by exactly i x J_1(2t).  |t| <= 32.
    """
    check_finite("t", t, _MAX_ABS_ARGUMENT / 2)  # the Bessel argument is 2t
    check_support(x)
    return cmath.exp(1j * t * x) - 1j * x * bessel_j(1, 2.0 * t).value


# ---------------------------------------------------------------------------
# characteristic functions

def char_function(generator: Generator | str, t: float) -> complex:
    """Vacuum characteristic function of the position or momentum group.

    Both equal I[0, 0](t) = J_1(2t)/t, checked like every coefficient:
    the vacuum distribution of either operator is the semicircle law.
    Raises DomainError for |t| > 16.
    """
    gen = Generator(generator)
    if gen not in (Generator.P, Generator.X):
        raise DomainError("characteristic function defined for generators P and X")
    return coeff_I(0, 0, t)


def char_function_catalan_series(t: float) -> complex:
    """Independent route: sum_p (-t^2)^p C_p / (2p)! with exact Catalan numbers.

    Term p+1 is term p times -t^2 C_{p+1} / (C_p (2p+1)(2p+2)), with
    C_{p+1}/C_p = 2(2p+1)/(p+2); `specfun._exact_series` sums the terms
    in exact integers (the binary float t is a rational number), so the
    alternating cancellation costs no precision; only the final
    division rounds.  Any finite t.
    """
    check_finite("t", t)
    a, b = float(t).as_integer_ratio()
    a2, b2 = -a * a, b * b
    tt = t * t
    return complex(
        _exact_series(
            (1, 0, 1),
            lambda p: (2 * (2 * p + 1) * a2, 0, (p + 2) * (2 * p + 1) * (2 * p + 2) * b2),
            lambda p: tt / ((p + 2) * (p + 3)),
        )[0].real
    )


def state_char_function(l: int, t: float) -> complex:
    """Characteristic function of the momentum in the level-l basis state.

    Partial diagonal sum sum_{m=0..l} I[m, m](t); raises DomainError for
    |t| > 16.
    """
    check_index("l", l)
    column = _coeff_column(CoeffKind.MOMENTUM_I, t, 2 * l)  # one column for every m
    values = [_checked_coefficient(CoeffKind.MOMENTUM_I, 2 * m, t, None, column)[0] for m in range(l + 1)]
    return complex(sum((-1.0) ** m * value for m, value in enumerate(values)))


# ---------------------------------------------------------------------------
# kinetic group e^{i t P^2}

def coeff_I2_series(m: int, n: int, t: float) -> complex:
    """Defining-series route for the kinetic coefficient; any finite t."""
    check_index("m, n", m, n)
    return (-1) ** m * _series_cached(True, m + n, float(t))


def coeff_I2(m: int, n: int, t: float, tol: float | None = None) -> complex:
    """Kinetic-group coefficient I2[m, n](t), cross-checked both ways.

    Zero for odd m+n; otherwise the exactly summed defining series,
    required to agree within tol (default 1e-11) with (-1)^m
    <m+n|e^{itP^2}|0> from the sine-transform engine, which equals the
    closed form
        (-1)^m (-it)^((m+n)/2) / ((m+n)/2)! 1F1((m+n+1)/2; m+n+2; 4it).
    """
    return _coefficient(CoeffKind.KINETIC_I2, m, n, t, tol)


# ---------------------------------------------------------------------------
# Heisenberg-picture corrections of the raising operator

def _gauss_legendre_adaptive(f_block, t: float, tol: float):
    """Integrate a vector/matrix-valued function over [0, t] by GL doubling from order 24."""
    prev = None
    order = 24
    while order <= 512:
        xg, wg = orthopoly.gauss_legendre(order)
        s_nodes = 0.5 * t * (xg + 1.0)
        s_weights = 0.5 * t * wg
        total = sum(w * f_block(s) for s, w in zip(s_nodes, s_weights))
        if prev is not None and float(np.max(np.abs(total - prev))) < tol:
            return total
        prev = total
        order *= 2
    raise QuadratureError(f"Heisenberg quadrature did not reach tol={tol} by order 512")


def heisenberg_block(
    generator: Generator | str, t: float, m_max: int, n_max: int, omega: float = 1.0, tol: float = 1e-8
) -> np.ndarray:
    """Raising-operator correction U a^+ U^* - a^+ for m <= m_max, n <= n_max, U = e^{itG}, G in {P, P2}.

    By the free relation a a^+ = 1 the derivative of the evolved raising
    operator is a low-rank kernel of the evolved vacuum u_s = e^{isG}|0>:
    u_s u_s^* for P, and the Hermitian rank-two i(w_s u_s^* - u_s w_s^*)
    for P2, with w_s the evolved first level, w[2j+1] = u[2j] - u[2j+2].
    The block integrates the kernel over [0, t] by Gauss-Legendre
    doubling to tol, reading u from the engine's cached vacuum column at
    each node.  Hermitian when m_max = n_max.  Raises DomainError for
    |t| above 16 (P) or 8 (P2).
    """
    gen = Generator(generator)
    if gen not in (Generator.P, Generator.P2):
        raise DomainError(f"Heisenberg corrections cover generators P and P2, got {gen.value}")
    check_index("m_max, n_max", m_max, n_max)
    check_finite("t", t, _MAX_T[gen])
    check_finite("omega", omega)
    check_positive("tol", tol)
    if t == 0.0:
        return np.zeros((m_max + 1, n_max + 1), dtype=complex)
    kind = CoeffKind.KINETIC_I2 if gen is Generator.P2 else CoeffKind.MOMENTUM_I
    top = max(m_max, n_max)

    def kernel(s: float) -> np.ndarray:
        u = _coeff_column(kind, s, top + 1)
        um, un = u[: m_max + 1], u[: n_max + 1]
        if gen is Generator.P:
            return np.outer(um, un.conj())
        w = np.zeros(top + 1, dtype=complex)
        w[1::2] = u[0:top:2] - u[2 : top + 2 : 2]
        wm, wn = w[: m_max + 1], w[: n_max + 1]
        return 1j * (np.outer(wm, un.conj()) - np.outer(um, wn.conj()))

    return omega * _gauss_legendre_adaptive(kernel, t, tol)


def heisenberg_aplus_P(t: float, m: int, n: int, omega: float = 1.0, tol: float = 1e-8) -> complex:
    """Entry (m, n) of the raising-operator correction under the translation group.

    Equals omega (-1)^(m+n) (m+1)(n+1) int_0^t J_{m+1}(2s) J_{n+1}(2s) / s^2 ds,
    symmetric in (m, n); read from `heisenberg_block`.
    """
    return complex(heisenberg_block(Generator.P, t, m, n, omega, tol)[m, n])


def heisenberg_aplus_P2(
    t: float, m_max: int, n_max: int, omega: float = 1.0, tol: float = 1e-8
) -> np.ndarray:
    """Raising-operator correction block under the kinetic group, from `heisenberg_block`."""
    return heisenberg_block(Generator.P2, t, m_max, n_max, omega, tol)


# ---------------------------------------------------------------------------
# element tables

def element_table(generator: Generator | str, t: float, l_max: int, tol: float = 1e-10) -> np.ndarray:
    """Matrix of group elements <level l | e^{itG} | level k> for l, k <= l_max, G in {P, X, P2}."""
    check_index("l_max", l_max)
    return _group_block(Generator(generator), t, np.arange(l_max + 1), l_max, tol)[0]


def build_coeff_table(kind: CoeffKind | str, t: float, max_order: int) -> CoeffTable:
    """Coefficient table over all (m, n) with m + n <= max_order.

    Each entry records the checked value and the absolute discrepancy
    between the engine column and the defining series (method
    agreement).  One vacuum column
    serves the whole table, and the routes are cross-checked once per
    s = m + n: the entries (m, s-m) all follow from the [0, s]
    coefficient.
    """
    kind = CoeffKind(kind)
    check_index("max_order", max_order)
    column = _coeff_column(kind, t, max_order)
    entries: dict[tuple[int, int], complex] = {}
    agreements: dict[tuple[int, int], float] = {}
    for s in range(max_order + 1):
        value, gap = _checked_coefficient(kind, s, t, None, column)
        for m in range(s + 1):
            entries[(m, s - m)] = _entry(kind, value, m, s)
            agreements[(m, s - m)] = gap
    return CoeffTable(t=float(t), kind=kind, entries=entries, agreements=agreements)
