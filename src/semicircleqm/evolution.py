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
The tables of the position group, <m+n|e^{itX}|0>, and of the kinetic
group, I2[m, n](t) = (-1)^m <m+n|e^{itP^2}|0>, whose closed form is a
confluent hypergeometric function, are signed vacuum amplitudes of
their own groups too: each table is named by its generator, P, X or P2,
and entry (m, n) is (-1)^(a m + b n) <m+n|e^{itG}|0>, with (a, b) the
sign of the generator's row in `_GENERATORS`.  Evolutions, element
tables and coefficients come from one sine-transform engine with its
own truncation check: each coefficient is read from its group's cached
vacuum column, accurate in absolute terms.  The defining series, summed
exactly in integers, stays public as the independent route with
relative accuracy (`coeff_I_series`, `coeff_I2_series`), and
`checks.coefficient_routes` compares the two.  Heisenberg-picture
corrections of the raising operator integrate a low-rank kernel of the
same column.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import NamedTuple

import numpy as np

from . import orthopoly
from .exceptions import (
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
from .specfun import _MAX_ABS_ARGUMENT, _exact_series, _tail_index, bessel_j, bessel_j_all


class Generator(enum.Enum):
    P = "P"
    X = "X"
    P2 = "P2"
    H1 = "H1"

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"unknown generator {value!r}; the generators are P, X, P2 and H1")


class _Facts(NamedTuple):
    cap: float  # the largest |t| evolved
    step: int  # the levels one power of the generator moves
    walk: float  # c of the walk-bound prefactor e^(c|t|) of `_tail_span`
    sign: tuple[int, int]  # (a, b): coefficient (m, n) is (-1)^(a m + b n) <m+n|e^{itG}|0>


_GENERATORS = {  # what the engine, the oracle's doubling, `checks` and the CLI read of a generator
    Generator.P: _Facts(16.0, 1, 1.0, (0, 1)),
    Generator.X: _Facts(16.0, 1, 1.0, (0, 0)),
    Generator.P2: _Facts(8.0, 2, 3.0, (1, 0)),
}


@dataclass(frozen=True)
class CoeffTable:
    """Normally-ordered expansion coefficients of the group generated by kind (P, X or P2)."""

    t: float
    kind: Generator
    entries: dict[tuple[int, int], complex]


@dataclass(frozen=True)
class EvolvedState:
    """Amplitudes <level l | group element | level k> for l = 0..l_max.

    tail_index is the tail level of `_tail_span`: the amplitudes run by
    default to level k + s tail_index, s the generator's level step.
    """

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
# coefficients: the engine's vacuum column, and the defining series as the independent route

_COLUMN_TOL = 1e-13  # engine tolerance of every coefficient column


@lru_cache(maxsize=1024)
def _vacuum_column(gen: Generator, t: float, top: int, span: int) -> np.ndarray:
    """Read-only <level l | e^{itG} | 0> for l <= top, from the engine at _COLUMN_TOL.

    span is `_tail_span` at _COLUMN_TOL and at |t| or a larger time.
    """
    column = _group_block(gen, t, np.array([0]), top + 1, span, _COLUMN_TOL)[:, 0]
    column.flags.writeable = False
    return column


def _coeff_column(gen: Generator, t: float, s: int) -> np.ndarray:
    """Vacuum column of gen's own group at t, behind its coefficients, through level max(s, tail level).

    Sized past the tail level, so one cache entry per (gen, t) serves
    every s up to it.  `_tail_span` refuses H1 and a t past the cap.
    """
    span = _tail_span(gen, float(t), _COLUMN_TOL)[1]
    return _vacuum_column(gen, float(t), max(s, span), span)


@lru_cache(maxsize=1024)
def _series_cached(kinetic: bool, s: int, t: float) -> float | complex:
    """Defining series of I[0, s] (or I2[0, s]) with exact counts N(0, s, p), summed exactly.

        I[0, s]  = sum_p (-1)^p t^(s+2p)/(s+2p)! N(0, s, p)
        I2[0, s] = (-i)^h sum_p i^p t^(h+p)/(h+p)! N(0, s, p),   h = s/2

    Term p+1 is term p times +-t^step/((e+1)...(e+step)) (step 2 and
    e = s+2p, or step 1 and e = h+p) and the ballot ratio
    N(0, s, p+1)/N(0, s, p) = (s+2p+1)(s+2p+2)/((p+1)(s+p+2)), with the
    common factors cancelled; `specfun._exact_series` sums the terms in
    exact integers over t = a/b and rounds once.  The stop is relative,
    at eps |partial sum|, so the value is accurate relative to itself
    even where the coefficient is far below 1 (I[0, 12](0.01) ~ 2.1e-33).
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
            relative=True,
        )[0]
    a2, b2 = -a * a, b * b
    tt = at * at
    return _exact_series(
        (a**s, 0, b**s * factorial(s)),
        lambda p: (a2, 0, (p + 1) * (s + p + 2) * b2),
        lambda p: tt / ((p + 2) * (s + p + 3)),
        relative=True,
    )[0].real


def _signed(gen: Generator, column: np.ndarray, m: int, n: int) -> complex:
    """Coefficient (m, n) of gen from its vacuum column: (-1)^(a m + b n) <m+n|e^{itG}|0>, (a, b) its sign.

    The + 0j clears every -0.0 part, so an exact zero reads 0j.
    """
    a, b = _GENERATORS[gen].sign
    return (-1.0) ** (a * m + b * n) * complex(column[m + n]) + 0j


def _coefficient(gen: Generator, m: int, n: int, t: float) -> complex:
    check_index("m, n", m, n)
    return _signed(gen, _coeff_column(gen, t, m + n), m, n)


def coeff_I_series(m: int, n: int, t: float) -> complex:
    """Defining-series route alone (exact inverse-normal-order counts), accurate relative to itself; any finite t."""
    check_index("m, n", m, n)
    return complex((-1.0) ** m * _series_cached(False, m + n, float(t)))


def coeff_I(m: int, n: int, t: float) -> complex:
    """Translation-group coefficient I[m, n](t) = (-1)^n <m+n|e^{itP}|0>, from the engine's vacuum column.

    Entry (m, n) of `build_coeff_table("P", t, ...)`; the table of
    generator X holds <m+n|e^{itX}|0> = i^(m+n) I[0, m+n](t).  Equals the
    Bessel closed form (-1)^m (m+n+1) J_{m+n+1}(2t)/t.  The
    accuracy is absolute (the column is evolved to tol 1e-13 and meets
    the defining series within about 1e-15 up to the cap), so a coefficient
    far below 1 keeps no relative digits: I[0, 12](0.01) ~ 2.1e-33 reads
    ~ -1e-18.  `coeff_I_series` is the route with relative accuracy.
    Raises DomainError for |t| > 16.
    """
    return _coefficient(Generator.P, m, n, t)


def matrix_element_P(l: int, k: int, t: float) -> complex:
    """<level l | translation group | level k> = sum_m I[l-m, k-m](t), m <= min(l, k).

    Term m is I[l-m, k-m] = (-1)^(k+m) <l+k-2m|e^{itP}|0>: every term is
    read by the sign rule from one engine vacuum column through level
    l + k (absolute accuracy, as for `coeff_I`).  Raises DomainError for
    |t| > 16.
    """
    check_index("l, k", l, k)
    column = _coeff_column(Generator.P, t, l + k)  # one column for every m
    return complex(sum(_signed(Generator.P, column, l - m, k - m).real for m in range(min(l, k) + 1)))


# ---------------------------------------------------------------------------
# Schroedinger evolutions level by level

_DIM_CAP = 4095


@lru_cache(maxsize=1024)
def _tail_span(gen: Generator, t: float, tol: float) -> tuple[int, int]:
    """Tail level of e^{itG}, G in {P, X, P2}, at tol and the levels it spans past any source level.

    X is the 0/1 tridiagonal matrix of the half-line and P = D X D* with
    D = diag(i^l), so |<l|G^n|k>| for G in {X, P} is at most the number
    of +-1 walks of length n on Z from k to l.  Summing |t|^n/n! over
    those walks gives

        |<k+-j|e^{itG}|k>| <= I_j(2|t|) <= e^(t^2/(j+1)) |t|^j/j!,

    and X^2 on Z is 2 + S^2 + S^-2 with S the shift, so

        |<k+-2h|e^{itP^2}|k>| <= e^(2|t|) I_h(2|t|) <= e^(2|t| + t^2/(h+1)) |t|^h/h!.

    `_tail_index` searches only n + 2 > |t|, where every later j + 1
    exceeds |t|, so the prefactors are at most e^(c|t|), c = 1 and 3 the
    walk constants of the rows in `_GENERATORS`: the levels past the tail
    carry at most tol in total, from every source level k.  The tail
    counts steps of the row's level step, pairs of levels for P^2.  The
    bound grows with |t|, so the span at |t| covers [-|t|, |t|].

    Searched once per (gen, t, tol) in one bounded cache: every
    evolution and element table reads its span from it, and every
    coefficient column and Heisenberg block at _COLUMN_TOL.  A refusal
    raises and is never cached.
    """
    if gen not in _GENERATORS:
        raise DomainError(f"sine-transform evolutions cover generator P, X or P2, got generator {gen.value}")
    facts = _GENERATORS[gen]
    check_finite("t", t, facts.cap)
    tail = _tail_index(facts.walk * abs(t), abs(t), tol)
    return tail, facts.step * tail


@lru_cache(maxsize=256)
def _sine_nodes(m: int, step: int) -> tuple[np.ndarray, np.ndarray]:
    """The DST-I nodes of the truncation m: theta_j = j pi/(m+1) and x_j^step, x_j = 2 cos theta_j, j = 1..m.

    G is X^step on the nodes.  `_group_block` reads only the larger
    truncation 2m+1 of each doubling pair, so the table holds those:
    node j of m is node 2j of 2m+1 bit for bit, because
    fl(pi/(2m+2)) = fl(pi/(m+1))/2.  Built once per (m, step) and
    shared, so the arrays are read-only.  At most 256 entries of two
    m-long float64 arrays, m <= `_DIM_CAP`: 256 x 2 x 8 B x 4095, about
    16.8 MB at worst; truncations of a few hundred levels, the usual
    ones, keep it near 1 MB.
    """
    theta = np.arange(1, m + 1) * (np.pi / (m + 1))
    x = 2.0 * np.cos(theta)
    return orthopoly._read_only(theta), orthopoly._read_only(x if step == 1 else x ** step)  # x ** 1 is a pow per node


_I_POWERS = np.array([1, 1j, -1, -1j])  # i^d, indexed by d mod 4


def _sine_transform(odd: np.ndarray, m: int, rows: int) -> np.ndarray:
    """Rows 1..rows of the DST-I of the m x c columns in rows 1..m of odd, a (2m+2)-row buffer.

    The rest of the buffer is filled with the odd extension
    (0, c, 0, -reversed c), whose FFT is the transform.
    """
    odd[0] = odd[m + 1] = 0.0
    np.negative(odd[m:0:-1], out=odd[m + 2 :])
    return 0.5j * np.fft.fft(odd, axis=0)[1 : rows + 1]


def _group_block(gen: Generator, t: float, cols: np.ndarray, rows: int, span: int, tol: float) -> np.ndarray:
    """<level l | e^{itG} | level k> for l < rows and k in cols, G in {X, P, P2}.

    span is `_tail_span` at tol and at |t| or a larger time.  The DST-I
    diagonalises X on m levels: eigenvalues 2 cos(j pi/(m+1)), the
    `orthopoly.quadrature_rule` nodes, and eigenvectors
    sqrt(2/(m+1)) sin((l+1) j pi/(m+1)); P = D X D* with D = diag(i^l).
    m starts at rows plus span and grows to 2m+1, which keeps every
    node, until two truncations agree within tol/10.  Each round forms
    the phase e^{itG} and the sine weights of the source columns on the
    grid of 2m+1 only, from the `_sine_nodes` table, straight into the
    (4m+4)-row buffer of that transform.  The first round's m needs no
    pass of its own: node j of m is node 2j of 2m+1 bit for bit, since
    fl(pi/(2m+2)) = fl(pi/(m+1))/2, and its weight 2/(m+1) is exactly
    twice 2/(2m+2), so its buffer holds twice the even-node entries.
    Each truncation is still its own FFT.
    """
    d = np.arange(rows)[:, None] - cols
    if t == 0.0:
        return (d == 0).astype(complex)
    m = rows + span
    prev, step = None, _GENERATORS[gen].step
    sources = cols + 1
    while 2 * m + 1 <= _DIM_CAP:
        big = 2 * m + 1
        theta, eig = _sine_nodes(big, step)  # eig: the eigenvalues of G, x^step
        phase = np.exp(1j * t * eig)
        odd = np.empty((2 * big + 2, cols.size), dtype=complex)
        weights = theta[:, None] * sources
        np.sin(weights, out=weights)
        weights *= 2.0 / (big + 1)
        c = np.multiply(weights, phase[:, None], out=odd[1 : big + 1])
        if prev is None:
            half = np.empty((2 * m + 2, cols.size), dtype=complex)
            np.multiply(c[1::2], 2.0, out=half[1 : m + 1])
            prev = _sine_transform(half, m, rows)
        block = _sine_transform(odd, big, rows)
        if float(np.abs(block - prev).max()) <= tol / 10.0:
            break
        prev, m = block, big
    else:
        raise TruncationError(f"no agreement within {tol / 10.0:.1e} below dimension {_DIM_CAP}")
    if gen is Generator.X:  # e^{itX} is real at even d and imaginary at odd d
        return np.where(d % 2 == 1, 1j * block.imag, block.real)
    i_d = _I_POWERS[d % 4]
    if gen is Generator.P2:  # P^2 keeps parity
        return np.where(d % 2 == 1, 0.0, block * i_d)
    return (block * i_d).real.astype(complex)  # D e^{itX} D*, real by the parity of e^{itX}


def evolve(
    generator: Generator | str, k: int, t: float, l_max: int | None = None, tol: float = 1e-10
) -> EvolvedState:
    """Amplitudes <level l | e^{itG} | level k>, G in {P, X, P2}, up to l_max or k plus the tail level."""
    gen = Generator(generator)
    check_index("k", k)
    tail, span = _tail_span(gen, t, tol)
    top = k + span
    if l_max is not None:
        check_index("l_max", l_max)
        if l_max < top:
            raise TruncationError(f"l_max={l_max} below the required tail level {top}")
        top = l_max
    block = _group_block(gen, t, np.array([k]), top + 1, span, tol)
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
    check_finite("t", t, _GENERATORS[Generator.P].cap)
    m_top = _tail_index(0.0, abs(t), tol / 100.0) + k + 4
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

    Both equal I[0, 0](t) = J_1(2t)/t, read from the engine like every
    coefficient (absolute accuracy): the vacuum distribution of either
    operator is the semicircle law.  N(0, 0, p) is the Catalan number
    C_p, so the defining series of I[0, 0], sum_p (-t^2)^p C_p/(2p)!, is
    `coeff_I_series(0, 0, t)`, the route with relative accuracy.  Raises
    DomainError for |t| > 16.
    """
    gen = Generator(generator)
    if gen not in (Generator.P, Generator.X):
        raise DomainError(f"characteristic function defined for generator P or X, got generator {gen.value}")
    return coeff_I(0, 0, t)


def state_char_function(l: int, t: float) -> complex:
    """Characteristic function of the momentum in the level-l basis state.

    Partial diagonal sum sum_{m=0..l} I[m, m](t), read from one engine
    column (absolute accuracy); raises DomainError for |t| > 16.
    """
    check_index("l", l)
    column = _coeff_column(Generator.P, t, 2 * l)  # one column for every m
    return complex(sum(_signed(Generator.P, column, m, m).real for m in range(l + 1)))


# ---------------------------------------------------------------------------
# kinetic group e^{i t P^2}

def coeff_I2_series(m: int, n: int, t: float) -> complex:
    """Defining-series route for the kinetic coefficient, accurate relative to itself; any finite t."""
    check_index("m, n", m, n)
    return (-1) ** m * _series_cached(True, m + n, float(t))


def coeff_I2(m: int, n: int, t: float) -> complex:
    """Kinetic-group coefficient I2[m, n](t) = (-1)^m <m+n|e^{itP^2}|0>, from the engine's vacuum column.

    Entry (m, n) of `build_coeff_table("P2", t, ...)`.  Zero for odd
    m+n; otherwise equal to the closed form
        (-1)^m (-it)^((m+n)/2) / ((m+n)/2)! 1F1((m+n+1)/2; m+n+2; 4it).
    The accuracy is absolute, as for `coeff_I`; `coeff_I2_series` is
    the route with relative accuracy.  Raises DomainError for |t| > 8.
    """
    return _coefficient(Generator.P2, m, n, t)


# ---------------------------------------------------------------------------
# Heisenberg-picture corrections of the raising operator

_GL_ORDERS = (24, 48, 96, 192, 384)  # every doubling of the order from 24 up to the cap 512


def _gauss_legendre_adaptive(integrate, t: float, tol: float):
    """Integrate a matrix-valued function over [0, t] by Gauss-Legendre doubling from order 24.

    integrate(nodes, weights) returns the weighted sum of the integrand
    over one order's nodes in one pass.  The orders double until two
    successive sums agree within tol; QuadratureError names the highest
    order evaluated.
    """
    prev = None
    for order in _GL_ORDERS:
        xg, wg = orthopoly.gauss_legendre(order)
        total = integrate(0.5 * t * (xg + 1.0), 0.5 * t * wg)
        if prev is not None and float(np.max(np.abs(total - prev))) < tol:
            return total
        prev = total
    raise QuadratureError(f"Heisenberg quadrature did not reach tol={tol} by order {_GL_ORDERS[-1]}")


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
    each node, sized by one tail search at |t|, which covers every node.
    Each order is one weighted product over its nodes: with U the nodes x
    levels array of the columns u_s, W that of the w_s and D the diagonal
    of the weights, the sum is U^T D conj(U) for P and i(A - A^*),
    A = W^T D conj(U), for P2, sliced to the block.  It equals the
    node-by-node sum of the kernel within rounding, not bit for bit.
    Hermitian when m_max = n_max.  Raises DomainError for
    |t| above 16 (P) or 8 (P2).
    """
    gen = Generator(generator)
    if gen not in (Generator.P, Generator.P2):
        raise DomainError(f"Heisenberg corrections cover generator P or P2, got generator {gen.value}")
    check_index("m_max, n_max", m_max, n_max)
    check_finite("t", t, _GENERATORS[gen].cap)
    check_finite("omega", omega)
    check_positive("tol", tol)
    if t == 0.0:
        return np.zeros((m_max + 1, n_max + 1), dtype=complex)
    top = max(m_max, n_max)
    span = _tail_span(gen, float(t), _COLUMN_TOL)[1]
    level = max(top, span) + 1  # u[top + 1] is read; past the tail, blocks of every size share the columns

    def integrate(nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
        u = np.array([_vacuum_column(gen, float(s), level, span)[: top + 2] for s in nodes])
        if gen is Generator.P:
            left = u[:, : top + 1]
        else:
            left = np.zeros((nodes.size, top + 1), dtype=complex)
            left[:, 1::2] = u[:, 0:top:2] - u[:, 2 : top + 2 : 2]
        a = left.T @ (weights[:, None] * u[:, : top + 1].conj())
        block = a if gen is Generator.P else 1j * (a - a.conj().T)
        return block[: m_max + 1, : n_max + 1]

    return omega * _gauss_legendre_adaptive(integrate, t, tol)


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
    gen = Generator(generator)
    return _group_block(gen, t, np.arange(l_max + 1), l_max + 1, _tail_span(gen, t, tol)[1], tol)


_LEGACY_KINDS = {"momentum_I": "P", "position_I": "X", "kinetic_I2": "P2"}  # older names of the three tables, still accepted


def build_coeff_table(generator: Generator | str, t: float, max_order: int) -> CoeffTable:
    """Coefficient table of the group of generator P, X or P2 over all (m, n) with m + n <= max_order.

    The strings "momentum_I", "position_I" and "kinetic_I2" are still
    accepted for P, X and P2.  Entry (m, n) is (-1)^(a m + b n)
    <m+n|e^{itG}|0>, read from the group's own engine vacuum column as by
    `coeff_I` and `coeff_I2` (absolute accuracy); the sign depends on m
    only through its parity, so the entries of one s share a signed pair.
    `checks.coefficient_routes` compares a table with the defining series.
    """
    gen = Generator(_LEGACY_KINDS.get(generator, generator) if isinstance(generator, str) else generator)
    check_index("max_order", max_order)
    column = _coeff_column(gen, t, max_order)
    entries: dict[tuple[int, int], complex] = {}
    for s in range(max_order + 1):
        signed = (_signed(gen, column, 0, s), _signed(gen, column, 1, s - 1))  # the entries of even and odd m
        for m in range(s + 1):
            entries[(m, s - m)] = signed[m % 2]
    return CoeffTable(t=float(t), kind=gen, entries=entries)
