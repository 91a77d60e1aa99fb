"""Truncated one-mode Fock space with constant Jacobi sequence.

The basis vectors e_0, ..., e_{N-1} stand for the monic orthonormal
polynomials of the standard semicircle law.  Operators are dense
complex N x N numpy arrays and states complex vectors of length N
(`basis` gives e_n).  A dimension that is not an integer, or is below
2 for the operators built from a and a+ (1 for `basis` and the
diagonal ones), is refused with `DomainError`.  The lowering operator a
maps e_n -> e_{n-1} (e_0 -> 0) and is exact on the truncated space; the
raising operator maps e_n -> e_{n+1} and must send the top vector to 0,
so operator identities involving it hold only on the interior block
(row/column indices < N-1).  Algebraic identity checks run in exact
integer arithmetic on the program's own operators, rounded to np.int64
(each row adds the largest gap of an entry to its integer, 0 on the
program's 0/1 operators, so a moved entry fails it): the multiplication
table on the matrices of `build_annihilation` and `build_creation`, and
the bracket checks on a = (X + iP)/2 and a+ = (X - iP)/2 from
`build_position` and `build_momentum`.  No product overflows, because
every matrix they form is a 0/1 partial permutation (a, a+, P0, their
powers and products), a level diagonal, or a small sum of these, so no
entry exceeds N.  The vacuum moments run on vectors of Python ints,
since C_40 > 2^63.
"""

from __future__ import annotations

import cmath
from collections.abc import Callable

import numpy as np

from .exceptions import DimensionError, DomainError, TruncationError, check_finite, check_index, check_positive
from .report import CheckReport


def basis(n: int, dim: int) -> np.ndarray:
    """Basis vector e_n of the dimension-dim truncation, as a complex array."""
    check_index("n", n)
    check_index("dim", dim, least=1)
    if not n < dim:
        raise DimensionError(f"basis index {n} outside dimension {dim}")
    vec = np.zeros(dim, dtype=complex)
    vec[n] = 1.0
    return vec


def build_annihilation(dim: int) -> np.ndarray:
    """Lowering operator: e_n -> e_{n-1}, e_0 -> 0.  Exact under truncation."""
    check_index("dim", dim, least=2)
    return np.eye(dim, k=1, dtype=complex)


def build_creation(dim: int) -> np.ndarray:
    """Raising operator: e_n -> e_{n+1}, with the top vector sent to 0."""
    check_index("dim", dim, least=2)
    return np.eye(dim, k=-1, dtype=complex)


def build_number_function(dim: int, f) -> np.ndarray:
    """Diagonal operator diag(f(0), ..., f(N-1)) for a scalar function f."""
    check_index("dim", dim, least=1)
    return np.diag(np.array([complex(f(n)) for n in range(dim)]))


def vacuum_projection(dim: int) -> np.ndarray:
    """Rank-one projection onto the vacuum basis vector."""
    return build_number_function(dim, lambda n: 1.0 if n == 0 else 0.0)


def build_position(dim: int) -> np.ndarray:
    """Position operator: raising plus lowering (zero diagonal, Hermitian)."""
    a = build_annihilation(dim)
    return a + a.T


def build_momentum(dim: int) -> np.ndarray:
    """Momentum operator i (raising - lowering); Hermitian on the truncation."""
    a = build_annihilation(dim)
    return 1j * (a.T - a)


def commutator(op_a: np.ndarray, op_b: np.ndarray) -> np.ndarray:
    """A B - B A, refused for operands of different shapes."""
    if np.shape(op_a) != np.shape(op_b):
        raise DimensionError(f"dimension mismatch: {np.shape(op_a)} vs {np.shape(op_b)}")
    return op_a @ op_b - op_b @ op_a


# ---------------------------------------------------------------------------
# exact-integer arithmetic backend for algebraic identity checks

def _int_unit(dim: int, i: int, j: int) -> np.ndarray:
    out = np.zeros((dim, dim), dtype=np.int64)
    out[i, j] = 1
    return out


def _exact(a: np.ndarray, ap: np.ndarray) -> tuple[np.ndarray, np.ndarray, Callable[[np.ndarray], float]]:
    """(a, a+) rounded to int64, and the defect of an identity on them: its largest
    interior entry (indices < N-1) plus the largest gap of an entry of a or a+ to an integer."""
    rounded = [np.rint(mat.real) for mat in (a, ap)]
    gap = max(float(np.max(np.abs(mat - r))) for mat, r in zip((a, ap), rounded))

    def defect(mat: np.ndarray) -> float:
        cut = mat.shape[0] - 1
        return float(np.max(np.abs(mat[:cut, :cut]))) + gap

    return rounded[0].astype(np.int64), rounded[1].astype(np.int64), defect


def multiplication_table_checks(dim: int) -> list[CheckReport]:
    """Exact interior-block identities of the lowering/raising pair.

    On indices < N-1:  a a+ = 1,  a+ a = 1 - P0,  [a, a+] = P0, and
    [X, P] = 2i P0 (checked through the integer matrix i^-1 [X, P]/2).
    """
    check_index("dim", dim, least=3)
    a, ap, defect = _exact(build_annihilation(dim), build_creation(dim))
    eye = np.eye(dim, dtype=np.int64)
    p0 = _int_unit(dim, 0, 0)

    reports = [
        CheckReport("a a+ = 1 (interior)", defect(a @ ap - eye), 0.0),
        CheckReport("a+ a = 1 - P0", defect(ap @ a - (eye - p0)), 0.0),
        CheckReport("[a, a+] = P0 (interior)", defect((a @ ap - ap @ a) - p0), 0.0),
    ]
    # [X, P] = 2i P0 reduces to the integer identity [X, a+ - a] = 2 P0
    x = a + ap
    s = ap - a
    reports.append(CheckReport("[X, P] = 2i P0 (interior)", defect(x @ s - s @ x - 2 * p0), 0.0))
    # function-of-level shifts: F a+ = a+ F' and a F = F' a with F' the
    # shifted diagonal, checked for F = level numbers
    levels = np.arange(dim, dtype=np.int64)
    f_diag = np.diag(levels)
    f_shift = np.diag(levels + 1)
    reports.append(CheckReport("F a+ = a+ F(.+1) (interior)", defect(f_diag @ ap - ap @ f_shift), 0.0))
    reports.append(CheckReport("a F = F(.+1) a (interior)", defect(a @ f_diag - f_shift @ a), 0.0))
    return reports


def vacuum_moment(n: int, which: str, dim: int) -> int:
    """Exact vacuum moment <e_0, A^n e_0> for A the position or momentum.

    Vanishes for odd n and equals the Catalan number C_{n/2} otherwise;
    requires dim > 2n so the truncation boundary is never touched.  The
    banded action (a+ v)_i = v_{i-1}, (a v)_i = v_{i+1} runs on a list
    of Python ints, so the value is exact for every n.
    """
    check_index("n", n)
    check_index("dim", dim)
    if which not in ("X", "P"):
        raise DomainError(f"which must be 'X' or 'P', got {which!r}")
    if dim <= 2 * n:
        raise TruncationError(f"dimension {dim} too small for moment order {n}; need dim > {2 * n}")
    # X = a+ + a and i^-1 P = a+ - a
    sign = 1 if which == "X" else -1
    vec = [1] + [0] * (dim - 1)
    for _ in range(n):
        padded = [0, *vec, 0]  # padded[i] = v_{i-1}, padded[i + 2] = v_{i+1}
        vec = [padded[i] + sign * padded[i + 2] for i in range(dim)]
    value = vec[0]
    if which == "P" and n % 2 == 0:
        # P^n = i^n (a+ - a)^n; for even n = 2m the phase is (-1)^m
        value *= (-1) ** (n // 2)
    return value


def lie_bracket_checks(dim: int, m_max: int, n_max: int) -> list[CheckReport]:
    """Exact bracket relations of the raising/lowering pair with rank-one tails.

    Checks, in integer arithmetic on the interior block:

        [a, P0 a^m]       = -P0 a^(m+1)
        [a^(+m) P0, a+]   = -a^(+(m+1)) P0
        [a^(+m) P0, P0 a^n] = e_m e_n^*  -  delta_{mn} P0

    The diagonal correction -delta_{mn} P0 in the third relation is
    forced by direct matrix multiplication: both products are rank one
    and their difference picks up the vacuum projection exactly when
    m = n.  a = (X + iP)/2 and a+ = (X - iP)/2 come from the program's
    `build_position` and `build_momentum`: on the interior the brackets
    follow from the multiplication table, so on the matrices that table
    reads they could never fail without it.
    """
    check_index("m_max, n_max", m_max, n_max)
    check_index("dim", dim)
    if m_max + n_max + 2 > dim:
        raise DimensionError("need m_max + n_max + 2 <= dim")
    # X and iP have entries 0 and +-1, so (X +- iP)/2 is exact
    x, ip = build_position(dim), 1j * build_momentum(dim)
    a, ap, defect = _exact((x + ip) / 2, (x - ip) / 2)
    p0 = _int_unit(dim, 0, 0)
    top = max(m_max, n_max) + 1
    a_pow = [np.linalg.matrix_power(a, k) for k in range(top + 1)]
    ap_pow = [np.linalg.matrix_power(ap, k) for k in range(top + 1)]

    reports: list[CheckReport] = []
    for m in range(m_max + 1):
        am = a_pow[m]
        lhs = a @ (p0 @ am) - (p0 @ am) @ a
        reports.append(CheckReport(f"[a, P0 a^{m}] = -P0 a^{m + 1}", defect(lhs + p0 @ a_pow[m + 1]), 0.0))
        apm = ap_pow[m]
        lhs2 = (apm @ p0) @ ap - ap @ (apm @ p0)
        reports.append(
            CheckReport(f"[a+^{m} P0, a+] = -a+^{m + 1} P0", defect(lhs2 + ap_pow[m + 1] @ p0), 0.0)
        )
    for m in range(m_max + 1):
        t1 = ap_pow[m] @ p0
        for n in range(n_max + 1):
            t2 = p0 @ a_pow[n]
            lhs3 = t1 @ t2 - t2 @ t1
            expected = _int_unit(dim, m, n)
            if m == n:
                expected = expected - p0
            reports.append(
                CheckReport(
                    f"[a+^{m} P0, P0 a^{n}] = e{m} e{n}* {'- P0' if m == n else ''}",
                    defect(lhs3 - expected),
                    0.0,
                )
            )
    return reports


def _coherent_ratio(u: complex, v: complex) -> complex:
    """conj(u) v, the ratio of the coherent kernel's geometric series; |u| < 1 and |v| < 1 required."""
    if not (abs(u) < 1.0 and abs(v) < 1.0):
        raise DomainError("coherent parameters must satisfy |u| < 1, |v| < 1")
    return complex(u).conjugate() * complex(v)


def coherent_kernel(u: complex, v: complex) -> complex:
    """Overlap of two coherent vectors: the geometric-series kernel 1/(1 - conj(u) v)."""
    return 1.0 / (1.0 - _coherent_ratio(u, v))


def coherent_kernel_truncated(u: complex, v: complex, dim: int) -> tuple[complex, float]:
    """Partial geometric sum over the first dim levels plus a tail bound."""
    q = _coherent_ratio(u, v)
    check_index("dim", dim)
    total = 0j
    term = 1.0 + 0j
    for _ in range(dim):
        total += term
        term *= q
    tail = abs(q) ** dim / (1.0 - abs(q))
    return total, tail


def harmonic_char(t: float, p_xi: float, omega1: float) -> complex:
    """Two-point characteristic function of the quadratic-well generator.

    The generator is diagonal with value omega1 on the vacuum and
    2*omega1 on every excited level, so any unit vector with vacuum
    weight p_xi yields p_xi e^{i t omega1} + (1 - p_xi) e^{2 i t omega1}.
    """
    check_finite("t", t)
    check_positive("omega1", omega1)
    if not 0.0 <= p_xi <= 1.0:
        raise DomainError(f"vacuum weight must be in [0, 1], got {p_xi}")
    return p_xi * cmath.exp(1j * t * omega1) + (1.0 - p_xi) * cmath.exp(2j * t * omega1)


def harmonic_char_from_state(t: float, xi, omega1: float) -> complex:
    """Same quantity by explicit diagonal exponentiation of a state vector xi, 1-d and non-empty."""
    check_finite("t", t)
    check_positive("omega1", omega1)
    xi = np.asarray(xi, dtype=complex)
    if xi.ndim != 1 or xi.size < 1:
        raise DimensionError("state vector must be 1-d and non-empty")
    levels = np.arange(xi.size)
    eigenvalues = np.where(levels == 0, omega1, 2.0 * omega1)
    phases = np.exp(1j * t * eigenvalues)
    return complex(np.vdot(xi, phases * xi))
