"""Closed-form unitary evolutions on the semicircle Fock space.

The translation group generated by the momentum operator expands over
normally ordered products with numerical coefficients

    I[m, n](t) = sum_p t^(m+n+2p)/(m+n+2p)! (-1)^(p+m) N(m, n, p)

where N(m, n, p) is the exact inverse-normal-order count from
`combinatorics.theta_count`.  The same coefficients collapse to the
Bessel closed form I[m, n](t) = (-1)^m (m+n+1) J_{m+n+1}(2t) / t, and
every coefficient entry point cross-checks both routes.  Analogous
tables cover the position group (same Bessel profile with an i^(m+n)
phase) and the kinetic group e^{i t P^2}, whose closed form is a
confluent hypergeometric function.  Heisenberg-picture corrections of
the raising operator are rank-one integrals of these amplitudes.
Evolutions and element tables come from one sine-transform engine
with its own truncation check.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import exp, factorial

import numpy as np

from . import orthopoly
from .combinatorics import theta_count_unbounded
from .exceptions import (
    ConvergenceError,
    CrossCheckError,
    DomainError,
    QuadratureError,
    TruncationError,
)
from .orthopoly import phi_all, t_cheb
from .report import CheckReport
from .specfun import bessel_j, bessel_j_ratio, bessel_tail_index, hyp1f1

_EPS = np.finfo(float).eps
_SERIES_TERM_CAP = 500
_MAX_T_MOMENTUM = 16.0
_MAX_T_KINETIC = 8.0


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
        vals = phi_all(self.amplitudes.size - 1, x)
        return np.tensordot(self.amplitudes, vals, axes=(0, 0))


# ---------------------------------------------------------------------------
# translation-group coefficients: defining series and Bessel closed form

@lru_cache(maxsize=65536)
def _coeff_series_cached(s: int, t: float) -> tuple[float, float]:
    """Defining series of I[0, s] with exact counts; returns (value, sum of |terms|)."""
    # t^(s+2p)/(s+2p)! iterated as a float; counts stay exact integers
    weight = 1.0
    for j in range(1, s + 1):
        weight *= t / j
    total = 0.0
    comp = 0.0
    abs_total = 0.0
    for p in range(_SERIES_TERM_CAP):
        term = (-1.0) ** p * weight * float(theta_count_unbounded(0, s, p))
        y = term - comp
        acc = total + y
        comp = (acc - total) - y
        total = acc
        abs_total += abs(term)
        next_weight = weight * t * t / ((s + 2 * p + 1) * (s + 2 * p + 2))
        next_scale = abs(next_weight) * float(theta_count_unbounded(0, s, p + 1))
        q = t * t / ((p + 2) * (p + s + 3))  # exact term ratio, decreasing
        if q < 1.0 and next_scale / (1.0 - q) <= _EPS * max(1.0, abs_total):
            return total, abs_total
        weight = next_weight
    raise ConvergenceError(f"coefficient series (s={s},t={t}) hit the {_SERIES_TERM_CAP}-term cap")


@lru_cache(maxsize=65536)
def _i0_bessel(s: int, t: float) -> float:
    """Closed form I[0, s](t) = (s+1) J_{s+1}(2t)/t via the ratio series."""
    return bessel_j_ratio(s, t)


def _checked_closed_form(
    kind: CoeffKind, s: int, t: float, tol: float | None
) -> tuple[float | complex, float]:
    """Closed form of the [0, s] coefficient and its distance from the defining series.

    Every (m, s-m) coefficient is this value times (-1)^m, or i^s for the
    position group, so one check per (kind, s, t) covers them all.  The
    routes must agree within tol (default 1e-11), widened by the
    rounding scale of the series when its terms are large.
    """
    kinetic = kind is CoeffKind.KINETIC_I2
    cap = _MAX_T_KINETIC if kinetic else _MAX_T_MOMENTUM
    if abs(t) > cap:
        raise DomainError(f"|t| <= {cap} required, got {t}")
    t = float(t)
    if kinetic and s % 2 == 1:
        return 0j, 0.0  # P^2 keeps parity
    closed = _i2_closed(s, t) if kinetic else _i0_bessel(s, t)
    series, abs_total = (_i2_series_cached if kinetic else _coeff_series_cached)(s, t)
    gap = abs(closed - series)
    effective = max(tol if tol is not None else 1e-11, 64.0 * _EPS * abs_total)
    if gap > effective:
        raise CrossCheckError(
            f"{kind.value}[0,{s}]({t}): series {series} vs closed form {closed} "
            f"differ beyond {effective:.2e}"
        )
    return closed, gap


def _entry(kind: CoeffKind, closed: float | complex, m: int, s: int) -> complex:
    """Coefficient (m, s-m) from the closed form of the [0, s] coefficient."""
    if kind is CoeffKind.POSITION_I:
        return (1j) ** s * closed
    # signs go on before complex() and never on a zero, so no -0.0 parts appear
    if kind is CoeffKind.KINETIC_I2 and s % 2 == 1:
        return 0j
    return complex((-1.0) ** m * closed)


def _coefficient(kind: CoeffKind, m: int, n: int, t: float, tol: float | None) -> complex:
    if m < 0 or n < 0:
        raise DomainError("orders must be non-negative")
    return _entry(kind, _checked_closed_form(kind, m + n, t, tol)[0], m, m + n)


def coeff_I_series(m: int, n: int, t: float) -> complex:
    """Defining-series route alone (exact inverse-normal-order counts)."""
    return complex((-1.0) ** m * _coeff_series_cached(m + n, float(t))[0])


def coeff_I(m: int, n: int, t: float, tol: float | None = None) -> complex:
    """Translation-group coefficient I[m, n](t), cross-checked both ways.

    Evaluates the defining series and the Bessel closed form
    (-1)^m (m+n+1) J_{m+n+1}(2t)/t and requires agreement within tol
    (widened by the rounding scale of the series when its terms are
    large).  Returns the Bessel-path value.
    """
    return _coefficient(CoeffKind.MOMENTUM_I, m, n, t, tol)


def matrix_element_P(l: int, k: int, t: float, tol: float | None = None) -> complex:
    """<level l | translation group | level k> = sum_m I[l-m, k-m](t), m <= min(l, k)."""
    if l < 0 or k < 0:
        raise DomainError("levels must be non-negative")
    return sum(coeff_I(l - m, k - m, t, tol) for m in range(min(l, k) + 1))


# ---------------------------------------------------------------------------
# Schroedinger evolutions level by level

_DIM_CAP = 4095
_MAX_T = {Generator.P: _MAX_T_MOMENTUM, Generator.X: _MAX_T_MOMENTUM, Generator.P2: _MAX_T_KINETIC}


def _group_block(gen: Generator, t: float, cols: np.ndarray, l_max: int | None, tol: float):
    """(<level l | e^{itG} | level k> for l <= l_max, k in cols; tail index; top), G in {X, P, P2}.

    top is max(cols) plus the tail level (`bessel_tail_index`, or twice
    `_p2_level_tail_index` for P2); l_max defaults to it.  The DST-I
    diagonalises X on m levels: eigenvalues 2 cos(j pi/(m+1)), the
    `orthopoly.quadrature_rule` nodes, and eigenvectors
    sqrt(2/(m+1)) sin((l+1) j pi/(m+1)); P = D X D* with D = diag(i^l).
    m starts past l_max plus the tail level and grows to 2m+1, which
    keeps every node, until two truncations agree within tol/10.
    """
    if gen not in _MAX_T:
        raise DomainError(f"sine-transform evolutions cover generators P, X, P2, got {gen.value}")
    if abs(t) > _MAX_T[gen]:
        raise DomainError(f"|t| <= {_MAX_T[gen]} required for generator {gen.value}, got {t}")
    tail = _p2_level_tail_index(t, tol) if gen is Generator.P2 else bessel_tail_index(t, tol)
    span = 2 * tail if gen is Generator.P2 else tail
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
    if k < 0:
        raise DomainError("source level must be >= 0")
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
    """Quadratic-well group: a pure phase on each level (diagonal generator)."""
    if k < 0:
        raise DomainError("source level must be >= 0")
    top = max(k, 0) if l_max is None else l_max
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
    oracle).
    """
    if k < 0:
        raise DomainError("source level must be >= 0")
    if abs(x) > 2.0:
        raise DomainError("x must lie in [-2, 2]")
    m_top = bessel_tail_index(t, tol / 100.0) + k + 4
    jv = np.array([bessel_j(m, 2.0 * t).value for m in range(m_top + 1)])
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
    that, exceeding this combination by exactly i x J_1(2t).
    """
    if abs(x) > 2.0:
        raise DomainError("x must lie in [-2, 2]")
    return cmath.exp(1j * t * x) - 1j * x * bessel_j(1, 2.0 * t).value


# ---------------------------------------------------------------------------
# characteristic functions

def char_function(generator: Generator | str, t: float) -> complex:
    """Vacuum characteristic function of the position or momentum group.

    Both equal J_1(2t)/t: the vacuum distribution of either operator is
    the semicircle law.  Raises DomainError for |t| > 16.
    """
    gen = Generator(generator)
    if gen not in (Generator.P, Generator.X):
        raise DomainError("characteristic function defined for generators P and X")
    return complex(_i0_bessel(0, _char_t(t)))


def _char_t(t: float) -> float:
    """t as a float within the translation-group cap of the Bessel ratio route."""
    if abs(t) > _MAX_T_MOMENTUM:
        raise DomainError(f"|t| <= {_MAX_T_MOMENTUM} required, got {t}")
    return float(t)


def char_function_catalan_series(t: float) -> complex:
    """Independent route: sum_p (-t^2)^p C_p / (2p)! with exact Catalan numbers.

    The partial sums are accumulated in exact rational arithmetic (the
    binary float t is a rational number), so the alternating
    cancellation costs no precision; only the final conversion rounds.
    """
    from math import comb

    t2 = Fraction(t) ** 2
    total = Fraction(0)
    term = Fraction(1)
    for p in range(_SERIES_TERM_CAP):
        cp = comb(2 * p, p) // (p + 1)
        total += term * cp
        term *= -t2 / ((2 * p + 1) * (2 * p + 2))
        nxt_cp = comb(2 * p + 2, p + 1) // (p + 2)
        if abs(float(term)) * nxt_cp <= 1e-18 * max(1.0, abs(float(total))):
            return complex(float(total))
    raise ConvergenceError(f"Catalan series did not converge for t={t}")


def state_char_function(l: int, t: float) -> complex:
    """Characteristic function of the momentum in the level-l basis state.

    Partial diagonal sum sum_{m=0..l} I[m, m](t); raises DomainError for
    |t| > 16.
    """
    if l < 0:
        raise DomainError("level must be >= 0")
    t = _char_t(t)
    return complex(sum((-1.0) ** m * _i0_bessel(2 * m, t) for m in range(l + 1)))


# ---------------------------------------------------------------------------
# kinetic group e^{i t P^2}

@lru_cache(maxsize=65536)
def _i2_series_cached(s: int, t: float) -> tuple[complex, float]:
    """Defining series of the kinetic coefficient I2[0, s] with exact counts.

    The terms (it)^(h+p)/(h+p)! N(0,s,p) grow to ~1e5 before decaying
    at |t| = 4 while the sum stays bounded by 1, so the partial sums are
    accumulated in exact rational arithmetic (t is a dyadic rational);
    only the final conversion to complex rounds.
    """
    if s % 2 == 1:
        return 0j, 0.0
    h = s // 2
    t_exact = Fraction(t)
    weight = t_exact**h / factorial(h)
    re = Fraction(0)
    im = Fraction(0)
    abs_total = 0.0
    for p in range(_SERIES_TERM_CAP):
        magnitude = weight * theta_count_unbounded(0, s, p)
        phase = (h + p) % 4  # i^(h+p)
        if phase == 0:
            re += magnitude
        elif phase == 1:
            im += magnitude
        elif phase == 2:
            re -= magnitude
        else:
            im -= magnitude
        abs_total += abs(float(magnitude))
        count_next = theta_count_unbounded(0, s, p + 1)
        next_weight = weight * t_exact / (h + p + 1)
        next_scale = abs(float(next_weight)) * float(count_next)
        q = abs(t) * (float(theta_count_unbounded(0, s, p + 2)) / float(count_next)) / (h + p + 2)
        # the accumulation is exact, so truncate relative to the value,
        # not to the (much larger) sum of term magnitudes
        value_scale = max(1.0, abs(float(re)) + abs(float(im)))
        if q < 0.5 and next_scale / (1.0 - q) <= _EPS * value_scale:
            return (-1) ** h * complex(float(re), float(im)), abs_total
        weight = next_weight
    raise ConvergenceError(f"kinetic series (s={s},t={t}) hit the {_SERIES_TERM_CAP}-term cap")


@lru_cache(maxsize=65536)
def _i2_closed(n: int, t: float) -> complex:
    """Closed form I2[0, n](t) for even n via the confluent hypergeometric series."""
    h = n // 2
    f = hyp1f1((n + 1) / 2.0, float(n + 2), 4j * t)
    return (-1j * t) ** h / factorial(h) * f.value


def coeff_I2_series(m: int, n: int, t: float) -> complex:
    """Defining-series route for the kinetic coefficient."""
    return (-1) ** m * _i2_series_cached(m + n, float(t))[0]


def coeff_I2(m: int, n: int, t: float, tol: float | None = None) -> complex:
    """Kinetic-group coefficient I2[m, n](t), cross-checked both ways.

    Zero for odd m+n; otherwise equals
        (-1)^m (-it)^((m+n)/2) / ((m+n)/2)! 1F1((m+n+1)/2; m+n+2; 4it),
    verified against the defining series with exact counts.
    """
    return _coefficient(CoeffKind.KINETIC_I2, m, n, t, tol)


def _p2_level_tail_index(t: float, tol: float) -> int:
    """Even-level count M with the amplitude tail beyond level 2M below tol.

    |amplitude at level 2m| <= 2 (4|t|)^m e^(4|t|) / m!, so the tail is
    geometric once m + 2 > 4|t|.
    """
    at = abs(t)
    if at == 0.0:
        return 1
    pref = 2.0 * exp(4.0 * at)
    m = 1
    lead = (4.0 * at) ** 2 / 2.0
    while True:
        if m + 2 > 4.0 * at and pref * lead / (1.0 - 4.0 * at / (m + 2)) < tol:
            return m
        m += 1
        lead *= 4.0 * at / (m + 1)
        if m > 100_000:
            raise ConvergenceError("kinetic tail index search did not terminate")


# ---------------------------------------------------------------------------
# Heisenberg-picture corrections of the raising operator

def _gauss_legendre_adaptive(f_block, t: float, tol: float, start_order: int = 24):
    """Integrate a vector/matrix-valued function over [0, t] by GL doubling."""
    prev = None
    order = start_order
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


def heisenberg_aplus_P(t: float, m: int, n: int, omega: float = 1.0, tol: float = 1e-8) -> complex:
    """Entry (m, n) of the raising-operator correction under the translation group.

        omega (-1)^(m+n) (m+1)(n+1) int_0^t J_{m+1}(2s) J_{n+1}(2s) / s^2 ds

    evaluated through the ratio series (n+1) J_{n+1}(2s)/s, which extends
    continuously to s = 0; symmetric in (m, n).
    """
    if m < 0 or n < 0:
        raise DomainError("orders must be non-negative")
    if t == 0.0:
        return 0j
    sign = (-1.0) ** (m + n)

    def integrand(s: float):
        return np.array(sign * bessel_j_ratio(m, s) * bessel_j_ratio(n, s))

    value = _gauss_legendre_adaptive(integrand, t, tol)
    return complex(omega * float(value))


def heisenberg_aplus_P2(
    t: float, m_max: int, n_max: int, omega: float = 1.0, tol: float = 1e-8
) -> np.ndarray:
    """Raising-operator correction block under the kinetic group.

    The derivative of the evolved raising operator is the Hermitian
    rank-two kernel i(w_s u_s^* - u_s w_s^*) with u_s the evolved vacuum
    and w_s the evolved first level (both under e^{i s P^2}); the block
    integrates it over [0, t].  The result is Hermitian when
    m_max = n_max.
    """
    if m_max < 0 or n_max < 0:
        raise DomainError("block extents must be non-negative")
    if t == 0.0:
        return np.zeros((m_max + 1, n_max + 1), dtype=complex)
    level_top = max(m_max, n_max)
    inner_tol = tol / 100.0

    def block(s: float) -> np.ndarray:
        m_tail = _p2_level_tail_index(s, inner_tol)
        top = max(2 * m_tail + 1, level_top)
        u = np.zeros(top + 1, dtype=complex)
        w = np.zeros(top + 1, dtype=complex)
        for j in range(0, top // 2 + 1):
            u[2 * j] = _i2_closed(2 * j, s)
        for j in range(0, (top - 1) // 2 + 1):
            w[2 * j + 1] = _i2_closed(2 * j, s) - _i2_closed(2 * j + 2, s)
        um = u[: m_max + 1]
        un = u[: n_max + 1]
        wm = w[: m_max + 1]
        wn = w[: n_max + 1]
        return 1j * (np.outer(wm, un.conj()) - np.outer(um, wn.conj()))

    value = _gauss_legendre_adaptive(block, t, tol)
    return omega * value


# ---------------------------------------------------------------------------
# element tables

def element_table(generator: Generator | str, t: float, l_max: int, tol: float = 1e-10) -> np.ndarray:
    """Matrix of group elements <level l | e^{itG} | level k> for l, k <= l_max, G in {P, X, P2}."""
    return _group_block(Generator(generator), t, np.arange(l_max + 1), l_max, tol)[0]


def build_coeff_table(kind: CoeffKind | str, t: float, max_order: int) -> CoeffTable:
    """Coefficient table over all (m, n) with m + n <= max_order.

    Each entry records the closed-form value and the absolute
    discrepancy between the two evaluation routes (method agreement).
    The routes are cross-checked once per s = m + n: the entries
    (m, s-m) all follow from the [0, s] coefficient.
    """
    kind = CoeffKind(kind)
    entries: dict[tuple[int, int], complex] = {}
    agreements: dict[tuple[int, int], float] = {}
    for s in range(max_order + 1):
        closed, gap = _checked_closed_form(kind, s, t, None)
        for m in range(s + 1):
            entries[(m, s - m)] = _entry(kind, closed, m, s)
            agreements[(m, s - m)] = gap
    return CoeffTable(t=float(t), kind=kind, entries=entries, agreements=agreements)
