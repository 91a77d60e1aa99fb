"""Independent ground-truth engines for the closed-form evolutions.

Two plain Taylor evaluations of the matrix exponential, each with an
explicit remainder bound ||B||^(k+1)/(k+1)! e^(||B||), share no code
with the Bessel or hypergeometric coefficient paths they are used to
check.  `expm_apply` applies e^(zA) to one vector in s Taylor steps of
norm at most 4 (the action of Al-Mohy and Higham, SIAM J. Sci. Comput.
33, 2011): O(n^2 ||zA||) work, and the n x n exponential is never
formed.  `expm_matrix` forms the whole matrix by scaling and squaring,
for callers that need every entry.  Both take the operator as a
square array, the output of the `fock` builders, and `expm_apply` the
vector as a 1-d array of its length.  Also provides quadrature
reference integrals against the semicircle measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, exp, log2

import numpy as np

from .exceptions import ConvergenceError, DimensionError, DomainError, check_finite, check_index, check_positive
from .fock import basis, build_momentum, build_position
from .orthopoly import quadrature_rule
from .specfun import _tail_index

_MAX_DIM = 512
_MAX_TAYLOR_TERMS = 64
# norm bound of one step of expm_apply: a step's largest Taylor term is then below
# 4^4/4! ||w|| < 11 ||w||.  Against mpmath at dim 512, t = 64 the error is 1.4e-15,
# against 1.3e-14 at 8 and 2.9e-13 at 12, which save at most a third of the terms.
_STEP_NORM = 4.0


@dataclass(frozen=True)
class ExpmResult:
    """e^(zA) v together with a certified bound on the truncation residual."""

    vector: np.ndarray
    series_terms: int
    residual_bound: float


def _norm2_upper(mat: np.ndarray) -> float:
    """Cheap upper bound for the spectral norm: sqrt(norm1 * norm_inf)."""
    mag = np.abs(mat)
    n1 = float(np.max(np.sum(mag, axis=0)))
    ninf = float(np.max(np.sum(mag, axis=1)))
    return float(np.sqrt(n1 * ninf))


def _scaled(op: np.ndarray, z: complex) -> tuple[np.ndarray, float, bool]:
    """z A as an array, an upper bound on its norm, and whether it is skew-Hermitian."""
    mat = np.asarray(op, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"operator must be a square matrix, got shape {mat.shape}")
    if mat.shape[0] > _MAX_DIM:
        raise DimensionError(f"dimension {mat.shape[0]} exceeds the dense cap {_MAX_DIM}")
    check_finite("z", z)
    # every sum over |zA| and |zA + (zA)*| is at most 2 |z| sum |A|, so none can overflow past this guard
    check_finite("|z| ||A||", 2.0 * abs(z) * float(np.sum(np.abs(mat))))
    za = z * mat
    nrm = _norm2_upper(za)
    check_finite("||zA||", nrm)
    return za, nrm, _norm2_upper(za + za.conj().T) <= 1e-12 * max(1.0, nrm)


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


def _taylor_expm(mat: np.ndarray, tol: float) -> tuple[np.ndarray, int, float]:
    """Taylor sum of e^mat for small-norm mat, with remainder bound."""
    terms, bound = _taylor_terms(_norm2_upper(mat), 1.0, tol)
    total = np.eye(mat.shape[0], dtype=complex)
    term = np.eye(mat.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ mat / k
        total += term
    return total, terms, bound


def expm_matrix(op: np.ndarray, z: complex, tol: float = 1e-13) -> tuple[np.ndarray, int, float]:
    """e^(z A) as a dense matrix, by scaling and squaring with a Taylor core.

    Returns (matrix, taylor_terms, residual_bound); the bound covers the
    Taylor truncation amplified through the squarings (operator norm,
    with e^(||B|| 2^j) growth factors; for skew-Hermitian arguments the
    intermediate exponentials have norm 1 and the bound is tight).
    """
    check_positive("tol", tol)
    za, nrm, skew = _scaled(op, z)
    squarings = max(0, ceil(log2(nrm / 0.5))) if nrm > 0.5 else 0
    b = za / (2**squarings)
    # error through j squarings: E_{j+1} <= 2 ||T_j|| E_j + E_j^2
    inner_tol = tol / (2.0 ** (squarings + 1)) / max(1.0, exp(0.0 if skew else min(nrm, 50.0)))
    result, terms, err = _taylor_expm(b, inner_tol)
    bnorm = _norm2_upper(b)
    for j in range(squarings):
        growth = 1.0 if skew else exp(min(bnorm * 2**j, 50.0))
        err = 2.0 * growth * err + err * err
        result = result @ result
    return result, terms, err


def expm_apply(op: np.ndarray, z: complex, v: np.ndarray, tol: float = 1e-12) -> ExpmResult:
    """Apply e^(z A) to a vector with a certified residual bound, never forming e^(z A).

    With s = ceil(||zA|| / 4) and B = zA / s, the result is s steps
    w <- T_k(B) w of the Taylor polynomial T_k of e^B.  Each step takes
    the fewest terms whose remainder bound ||B||^(k+1)/(k+1)! e^(||B||) ||w||
    is at most tol ||v|| / s, divided by e^(||B||) for every later step
    when zA is not skew-Hermitian, since those steps can amplify its
    error by that much.  residual_bound is the sum of the step bounds so
    amplified, at most tol ||v||, and series_terms the number of Taylor
    terms over all steps.  For skew-Hermitian z A the result norm is
    asserted to match the input norm to 1e-12 (relative).  The operator
    must be square and v a vector of its length.
    """
    check_positive("tol", tol)
    za, nrm, skew = _scaled(op, z)
    w = np.asarray(v, dtype=complex)
    if w.shape != za.shape[:1]:
        raise DimensionError(f"operator dim {za.shape[0]} vs vector shape {w.shape}")
    steps = max(1, ceil(nrm / _STEP_NORM))
    b = za / steps
    step_norm = nrm / steps
    log_growth = 0.0 if skew else step_norm  # log of a bound on ||e^B||
    vnorm = float(np.linalg.norm(w))
    err, total_terms = 0.0, 0
    for j in range(steps):
        step_tol = tol * vnorm / steps * exp(-log_growth * (steps - 1 - j))
        terms, bound = _taylor_terms(step_norm, float(np.linalg.norm(w)), step_tol)
        term = total = w
        for k in range(1, terms + 1):
            term = b @ term / k
            total = total + term
        w = total
        err = exp(log_growth) * err + bound
        total_terms += terms
    if skew:
        defect = abs(float(np.linalg.norm(w)) - vnorm)
        if defect > 1e-12 * max(1.0, vnorm) + err:
            raise ConvergenceError(f"norm preservation violated by {defect:.3e}")
    return ExpmResult(vector=w, series_terms=total_terms, residual_bound=err)


def _generator(kind: str, dim: int) -> np.ndarray:
    if kind == "P":
        return build_momentum(dim)
    if kind == "X":
        return build_position(dim)
    if kind == "P2":
        p = build_momentum(dim)
        return p @ p
    raise DomainError(f"unknown generator kind {kind!r}")


def truncation_level(t: float, k: int, tol: float, generator: str = "P") -> int:
    """Truncation dimension adequate for evolving basis level k to accuracy tol.

    Doubling procedure: starting from a tail-bound-informed dimension,
    compare the evolution computed at N and 2N and accept once they
    agree below tol (the generator is banded, so amplitude reaches level
    N only at series order ~N and the comparison certifies the tail).
    For t = 0 the evolution is the identity and k + 2 suffices.
    """
    check_positive("tol", tol)
    check_index("k", k)
    if t == 0.0:
        return k + 2

    def evolved(dim: int) -> np.ndarray:
        return expm_apply(_generator(generator, dim), 1j * t, basis(k, dim), tol / 10).vector

    n = max(k + 2, 8, k + _tail_index(0.0, abs(t), tol) // 2)
    small = None
    while 2 * n <= _MAX_DIM:
        small = evolved(n) if small is None else small
        big = evolved(2 * n)  # the next doubling's small
        defect = float(np.linalg.norm(big[:n] - small)) + float(np.linalg.norm(big[n:]))
        if defect < tol:
            return 2 * n
        n, small = 2 * n, big
    raise ConvergenceError(f"no adequate truncation below {_MAX_DIM} for t={t}, k={k}")


def semicircle_expectation(f, m: int = 256) -> float:
    """Reference integral of f against the semicircle probability measure."""
    nodes, weights = quadrature_rule(m)
    return float(np.sum(weights * np.asarray(f(nodes))))


def char_function_quadrature(t: float, m: int = 256) -> complex:
    """Characteristic function of the semicircle law by Gauss quadrature; any finite t."""
    check_finite("t", t)
    nodes, weights = quadrature_rule(m)
    return complex(np.sum(weights * np.exp(1j * t * nodes)))
