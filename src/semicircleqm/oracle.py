"""Independent ground-truth engines for the closed-form evolutions.

`expm_apply` evaluates the matrix exponential by plain Taylor steps,
each with an explicit remainder bound ||B||^(k+1)/(k+1)! e^(||B||), and
shares no code with the Bessel or hypergeometric coefficient paths it is
used to check.  It applies e^(zA), A a square array such as the output
of the `fock` builders, to a vector, or to an n x c block of column
vectors in one pass, in s Taylor steps of norm at most 4 (the action of
Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 2011): O(n^2 c ||zA||)
work, and the n x n exponential is never formed.  As in that algorithm,
zA is first shifted by mu = trace(zA)/n and the result is multiplied
back by e^mu; the diagonal of the number operator and of P^2 then costs
about half the Taylor terms.
`truncation_level` certifies a truncation dimension by doubling: the
evolutions at N and 2N must agree, and that comparison is the
certificate.  The doubling starts at N = max(8, k + s n + 1), with n the
package's tail index at |t| and tol / 10 and s the levels one power of
the generator moves, the one fact read from `evolution._GENERATORS`,
where the first comparison accepts, so a certified block of columns
costs two Taylor actions.  Also provides quadrature reference integrals
against the semicircle measure.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import ceil, exp, log, sqrt

import numpy as np

from .evolution import _GENERATORS, Generator
from .exceptions import ConvergenceError, DimensionError, DomainError, check_finite, check_index, check_positive
from .fock import build_momentum, build_position
from .orthopoly import quadrature_rule
from .specfun import _tail_index

_MAX_DIM = 512
_MAX_TAYLOR_TERMS = 64
# norm bound of one step of expm_apply: a step's largest Taylor term is then below
# 4^4/4! ||w|| < 11 ||w||.  Against mpmath at dim 512, t = 64 the error is 1.4e-15,
# against 1.3e-14 at 8 and 2.9e-13 at 12, which save at most a third of the terms.
_STEP_NORM = 4.0
# Taylor tolerance of the actions behind a certified block of columns, which the criteria read
# as a reference: at 1e-12 the translation line of gate criterion 6 read its truncation, 1.2e-13
_REFERENCE_TOL = 1e-16
_LOG_FLOAT_MAX = log(sys.float_info.max)  # e^x overflows past this x
# below this norm e^(zA) moves no column norm past the 1e-12 (relative) that expm_apply's check
# allows, so such a zA counts as skew-Hermitian
_SKEW_NORM = 5e-13


@dataclass(frozen=True)
class ExpmResult:
    """e^(zA) v together with a certified bound on the truncation residual."""

    vector: np.ndarray
    series_terms: int
    residual_bound: float


def _sums_bound(col: np.ndarray, row: np.ndarray) -> float:
    """sqrt(norm1 * norm_inf) of a matrix from the column and row sums of its entrywise magnitudes."""
    return sqrt(float(col.max())) * sqrt(float(row.max()))


def _norm2_upper(mat: np.ndarray) -> float:
    """Cheap upper bound for the spectral norm: sqrt(norm1 * norm_inf)."""
    mag = np.abs(mat)
    return _sums_bound(mag.sum(axis=0), mag.sum(axis=1))


def _scaled(op: np.ndarray, z: complex) -> tuple[np.ndarray, float, bool, tuple[np.ndarray, np.ndarray]]:
    """z A as an array, an upper bound on its norm, whether it is skew-Hermitian, and its magnitude sums.

    |zA| = |z| |A| entrywise, so the bound is |z| times that of A, from
    the one magnitude pass that the overflow guard also reads.  The
    magnitude sums are the column and row sums of |zA|, which
    `_shifted_bound` corrects for a shift of the diagonal.  zA counts as
    skew-Hermitian when it is so entry by entry, its real part
    antisymmetric and its imaginary part symmetric, as at an imaginary z
    with A Hermitian and at z = 0, or when its norm bound is at most
    `_SKEW_NORM`.
    """
    mat = np.asarray(op, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"operator must be a square matrix, got shape {mat.shape}")
    if mat.shape[0] > _MAX_DIM:
        raise DimensionError(f"dimension {mat.shape[0]} exceeds the dense cap {_MAX_DIM}")
    check_finite("z", z)
    mag = np.abs(mat)
    # every sum over |zA| and |zA - mu I| is at most 2 |z| sum |A|, so none can overflow past this guard
    check_finite("|z| ||A||", 2.0 * abs(z) * float(mag.sum()))
    za = z * mat
    col, row = mag.sum(axis=0), mag.sum(axis=1)
    nrm = abs(z) * _sums_bound(col, row)
    check_finite("||zA||", nrm)
    skew = nrm <= _SKEW_NORM or bool((za.imag == za.imag.T).all() and (za.real == -za.real.T).all())
    return za, nrm, skew, (abs(z) * col, abs(z) * row)


def _shifted_bound(za: np.ndarray, mu: complex, sums: tuple[np.ndarray, np.ndarray]) -> float:
    """sqrt(norm1 * norm_inf) of zA - mu I from the magnitude sums of zA, in O(n).

    The shift moves only the diagonal, so each column and row sum of
    |zA - mu I| is that of |zA| with |zA_jj| replaced by |zA_jj - mu|.
    It equals the direct pass over |zA - mu I| up to rounding.
    """
    diag = np.diagonal(za)
    shift = np.abs(diag - mu) - np.abs(diag)
    return _sums_bound(sums[0] + shift, sums[1] + shift)


def _taylor_terms(nrm: float, scale: float, tol: float) -> tuple[int, float]:
    """Fewest terms k >= 1 whose remainder bound nrm^(k+1)/(k+1)! e^nrm scale is <= tol.

    Returns k and that bound.
    """
    bound = scale * exp(nrm) * nrm
    for k in range(1, _MAX_TAYLOR_TERMS + 1):
        bound *= nrm / (k + 1)
        if bound <= tol:
            return k, bound
    raise ConvergenceError(f"Taylor tolerance {tol} unreachable at {_MAX_TAYLOR_TERMS} terms")


def _column_norms(w: np.ndarray):
    """The norm of each column of an n x c block, or of a vector."""
    return np.linalg.norm(w, axis=0) if w.ndim == 2 else np.linalg.norm(w)


def expm_apply(op: np.ndarray, z: complex, v: np.ndarray, tol: float = 1e-12) -> ExpmResult:
    """Apply e^(z A) to a vector or to a block of columns with a certified residual bound, never forming e^(z A).

    v is a vector of the operator's length or an n x c block of c >= 1
    columns, acted on in one pass; `vector` has v's shape.  With
    mu = trace(zA)/n and the shifted C = zA - mu I, the result is
    e^mu e^C v (a zero mu skips the shift, so a generator with an empty
    diagonal, such as P or X, keeps the unshifted arithmetic).  mu is
    the mean eigenvalue of zA, so C has a centred spectrum: the number
    operator and P^2, whose spectra lie in [0, n-1] and [0, 4], take
    about half the terms.  With s = ceil(||C|| / 4) and B = C / s,
    e^C v is s steps w <- T_k(B) w of the Taylor polynomial T_k of e^B.
    Each step takes the fewest terms whose remainder bound
    ||B||^(k+1)/(k+1)! e^(||B||) ||w|| is at most
    tol ||v|| / s, divided by e^(||B||) for every later step when zA is
    not skew-Hermitian, since those steps can amplify its error by that
    much, and by |e^mu| when that exceeds 1; for a block, ||w|| and ||v||
    are the largest column norms.  residual_bound is the sum of the step
    bounds so amplified, times |e^mu|: it bounds the error of every
    column and is at most tol ||v||.  series_terms is the number of
    Taylor terms over all steps.  For skew-Hermitian z A the norm of
    every result column is asserted to match that of its input column to
    1e-12 (relative).  A v with a non-finite entry, or a column whose
    norm overflows, raises DomainError.
    """
    check_positive("tol", tol)
    za, nrm, skew, sums = _scaled(op, z)
    n = za.shape[0]
    w = np.asarray(v, dtype=complex)
    if w.ndim not in (1, 2) or w.shape[0] != n or w.size == 0:
        raise DimensionError(f"operator dim {n} vs vector shape {w.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry or an overflow makes a norm non-finite
        vnorms = _column_norms(w)
    vnorm = float(vnorms.max())
    check_finite("||v||", vnorm)
    mu = complex(np.trace(za)) / n
    if mu.real > _LOG_FLOAT_MAX:
        raise ConvergenceError(f"e^mu overflows at mu = trace(zA)/n = {mu:.3e}")
    if mu:
        nrm = _shifted_bound(za, mu, sums)
        za = za - mu * np.eye(n)
    lift = exp(max(mu.real, 0.0))  # |e^mu| where it can amplify the error
    steps = max(1, ceil(nrm / _STEP_NORM))
    b = za / steps
    step_norm = nrm / steps
    log_growth = 0.0 if skew else step_norm  # log of a bound on ||e^B||
    err, total_terms = 0.0, 0
    for j in range(steps):
        step_tol = tol * vnorm / steps * exp(-log_growth * (steps - 1 - j)) / lift
        terms, bound = _taylor_terms(step_norm, float(_column_norms(w).max()), step_tol)
        term = total = w
        for k in range(1, terms + 1):
            term = b @ term / k
            total = total + term
        w = total
        err = exp(log_growth) * err + bound
        total_terms += terms
    if mu:
        w = np.exp(mu) * w
        err *= exp(mu.real)
    if skew:
        defect = float(np.max(np.abs(_column_norms(w) - vnorms)))
        if defect > 1e-12 * max(1.0, vnorm) + err:
            raise ConvergenceError(f"norm preservation violated by {defect:.3e}")
    return ExpmResult(vector=w, series_terms=total_terms, residual_bound=err)


def _generator(kind: str, dim: int) -> np.ndarray:
    if kind == "P":
        return build_momentum(dim)
    if kind == "X":
        return build_position(dim)
    if kind == "P2":  # a*a + a a* - a*^2 - a^2 on the truncation, built from its three nonzero diagonals
        check_index("dim", dim, least=2)  # as build_momentum refuses it for P
        diagonal = np.full(dim, 2.0 + 0.0j)
        diagonal[0] -= 1.0  # a*a is 0 on level 0
        diagonal[-1] -= 1.0  # a a* is 0 on the top level
        return np.diag(diagonal) - np.eye(dim, k=2) - np.eye(dim, k=-2)
    raise DomainError(f"unknown generator kind {kind!r}")


def _certified_columns(generator: Generator | str, t: float, ks, tol: float) -> np.ndarray:
    """Columns ks of e^(itG), with G truncated where doubling certifies them to tol.

    Doubling procedure: evolve the block of basis vectors ks at N and 2N,
    one `expm_apply` each, and accept once every column agrees below tol
    (the generator is banded, so amplitude reaches level N only at
    series order ~N and the comparison certifies the tail); otherwise
    double N and compare again.  That comparison is the only
    certificate; the start only decides how soon it passes.  With
    top = max(ks), n = `_tail_index(0, |t|, tol / 10)` and s the levels
    one power of G moves (its row's step: 2 for P^2), the doubling starts
    at N = max(8, top + s n + 1).  Every level that N drops is n + 1
    powers of G from every column, past the orders whose tail is below
    tol / 10, so the first comparison accepts and a block takes two
    actions (for P, X and P^2 at |t| up to their caps, k <= 12 and tol
    in [1e-12, 1e-6]).  Returns the accepted 2N x len(ks) block.  The
    actions run to min(tol / 10, 1e-16), so that the block is a
    reference to rounding.  For t = 0 the evolution is the identity and
    dimension max(ks) + 2 suffices.  A generator other than P, X or P2
    raises DomainError at every t.
    """
    gen = Generator(generator)
    if gen not in _GENERATORS:
        raise DomainError(f"the oracle evolves generator P, X or P2, got generator {gen.value}")
    check_positive("tol", tol)
    ks = list(ks)
    check_index("k", *ks)
    top = max(ks)
    if t == 0.0:
        return np.eye(top + 2, dtype=complex)[:, ks]

    action_tol = min(tol / 10, _REFERENCE_TOL)

    def evolved(dim: int) -> np.ndarray:
        return expm_apply(_generator(gen.value, dim), 1j * t, np.eye(dim, dtype=complex)[:, ks], action_tol).vector

    n = max(8, top + _GENERATORS[gen].step * _tail_index(0.0, abs(t), tol / 10) + 1)
    small = None
    while 2 * n <= _MAX_DIM:
        small = evolved(n) if small is None else small
        big = evolved(2 * n)  # the next doubling's small
        defect = np.linalg.norm(big[:n] - small, axis=0) + np.linalg.norm(big[n:], axis=0)
        if np.max(defect) < tol:
            return big
        n, small = 2 * n, big
    raise ConvergenceError(f"no adequate truncation below {_MAX_DIM} for t={t}, k={top}")


def truncation_level(t: float, k: int, tol: float, generator: Generator | str = "P") -> int:
    """Truncation dimension adequate for evolving basis level k to accuracy tol.

    The dimension 2N at which the doubling of `_certified_columns`
    accepts column k: the evolutions at N and 2N agree below tol, from
    the start where that first comparison, the certificate, accepts.
    For t = 0 the evolution is the identity and k + 2 suffices.
    generator is a `Generator` or its value.  Raises DomainError for a
    generator other than P, X or P2, and ConvergenceError where no
    2N <= 512 certifies: t = 64 from level 4 at tol 1e-10 certifies at
    398, t = 100 raises.
    """
    return _certified_columns(generator, t, (k,), tol).shape[0]


def semicircle_expectation(f, m: int = 256) -> float:
    """Reference integral of f against the semicircle probability measure."""
    nodes, weights = quadrature_rule(m)
    return float(np.sum(weights * np.asarray(f(nodes))))


def char_function_quadrature(t: float, m: int = 256) -> complex:
    """Characteristic function of the semicircle law by Gauss quadrature; any finite t."""
    check_finite("t", t)
    nodes, weights = quadrature_rule(m)
    return complex(np.sum(weights * np.exp(1j * t * nodes)))
