"""Truncated one-mode Fock space with constant Jacobi sequence.

The basis vectors e_0, ..., e_{N-1} stand for the monic orthonormal
polynomials of the standard semicircle law.  The lowering operator a
maps e_n -> e_{n-1} (e_0 -> 0) and is exact on the truncated space; the
raising operator maps e_n -> e_{n+1} and must send the top vector to 0,
so operator identities involving it hold only on the interior block
(row/column indices < N-1).  Algebraic identity checks run in exact
integer arithmetic: the multiplication-table and bracket checks on
np.int64 matrices, which cannot overflow because every matrix they form
is a 0/1 partial permutation (a, a+, P0, their powers and products), a
level diagonal, or a small sum of these, so no entry exceeds N; the
vacuum moments on vectors of Python ints, since C_40 > 2^63.  Evolutions
use complex floating matrices.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, DomainError, TruncationError, check_finite, check_index, check_positive
from .report import CheckReport


class Boundary(enum.Enum):
    EXACT_INTERIOR = "exact_interior"  # truncation introduces no defect
    TRUNCATED = "truncated"            # top row/column carries a defect


@dataclass(frozen=True)
class FockVector:
    """Coefficient vector over the monic basis, truncation dimension N."""

    coeffs: np.ndarray
    dim: int

    @staticmethod
    def from_coeffs(coeffs) -> "FockVector":
        arr = np.asarray(coeffs, dtype=complex)
        if arr.ndim != 1 or arr.size < 1:
            raise DimensionError("coefficient vector must be 1-d and non-empty")
        return FockVector(coeffs=arr, dim=arr.size)

    @staticmethod
    def basis(n: int, dim: int) -> "FockVector":
        if not 0 <= n < dim:
            raise DimensionError(f"basis index {n} outside dimension {dim}")
        arr = np.zeros(dim, dtype=complex)
        arr[n] = 1.0
        return FockVector(coeffs=arr, dim=dim)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


@dataclass(frozen=True)
class FockOperator:
    """Dense N x N complex matrix acting on FockVector coefficients."""

    entries: np.ndarray
    dim: int
    boundary: Boundary

    @staticmethod
    def from_matrix(entries, boundary: Boundary = Boundary.TRUNCATED) -> "FockOperator":
        arr = np.asarray(entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError("operator matrix must be square")
        return FockOperator(entries=arr, dim=arr.shape[0], boundary=boundary)

    def adjoint(self) -> "FockOperator":
        return FockOperator(self.entries.conj().T.copy(), self.dim, self.boundary)

    def apply(self, v: FockVector) -> FockVector:
        if v.dim != self.dim:
            raise DimensionError(f"operator dim {self.dim} vs vector dim {v.dim}")
        return FockVector(self.entries @ v.coeffs, self.dim)

    def interior_block(self) -> np.ndarray:
        """Entries with both indices < N-1, where identities are exact."""
        return self.entries[: self.dim - 1, : self.dim - 1]

    def _combine(self, other: "FockOperator") -> Boundary:
        if self.boundary is Boundary.TRUNCATED or other.boundary is Boundary.TRUNCATED:
            return Boundary.TRUNCATED
        return Boundary.EXACT_INTERIOR

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        if other.dim != self.dim:
            raise DimensionError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return FockOperator(self.entries @ other.entries, self.dim, self._combine(other))

    def __add__(self, other: "FockOperator") -> "FockOperator":
        if other.dim != self.dim:
            raise DimensionError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return FockOperator(self.entries + other.entries, self.dim, self._combine(other))

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        if other.dim != self.dim:
            raise DimensionError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return FockOperator(self.entries - other.entries, self.dim, self._combine(other))

    def __mul__(self, scalar: complex) -> "FockOperator":
        return FockOperator(self.entries * scalar, self.dim, self.boundary)

    __rmul__ = __mul__


def _require_dim(n: int, minimum: int = 2) -> None:
    if n < minimum:
        raise DimensionError(f"dimension must be >= {minimum}, got {n}")


def build_annihilation(dim: int) -> FockOperator:
    """Lowering operator: e_n -> e_{n-1}, e_0 -> 0.  Exact under truncation."""
    _require_dim(dim)
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = 1.0
    return FockOperator(a, dim, Boundary.EXACT_INTERIOR)


def build_creation(dim: int) -> FockOperator:
    """Raising operator: e_n -> e_{n+1}, with the top vector sent to 0."""
    _require_dim(dim)
    ap = np.zeros((dim, dim), dtype=complex)
    for n in range(dim - 1):
        ap[n + 1, n] = 1.0
    return FockOperator(ap, dim, Boundary.TRUNCATED)


def build_number_function(dim: int, f) -> FockOperator:
    """Diagonal operator diag(f(0), ..., f(N-1)) for a scalar function f."""
    _require_dim(dim, minimum=1)
    diag = np.array([complex(f(n)) for n in range(dim)])
    return FockOperator(np.diag(diag), dim, Boundary.EXACT_INTERIOR)


def vacuum_projection(dim: int) -> FockOperator:
    """Rank-one projection onto the vacuum basis vector."""
    return build_number_function(dim, lambda n: 1.0 if n == 0 else 0.0)


def build_position(dim: int) -> FockOperator:
    """Position operator: raising plus lowering (zero diagonal, Hermitian)."""
    a = build_annihilation(dim)
    return FockOperator(a.entries + a.entries.T, dim, Boundary.TRUNCATED)


def build_momentum(dim: int) -> FockOperator:
    """Momentum operator i (raising - lowering); Hermitian on the truncation."""
    a = build_annihilation(dim)
    return FockOperator(1j * (a.entries.T - a.entries), dim, Boundary.TRUNCATED)


def commutator(op_a: FockOperator, op_b: FockOperator) -> FockOperator:
    """A B - B A."""
    return op_a @ op_b - op_b @ op_a


# ---------------------------------------------------------------------------
# exact-integer arithmetic backend for algebraic identity checks

def _int_shift_matrices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowering/raising matrices over np.int64.

    Both are 0/1 partial permutations, so every product of them, and of
    P0, is one too; the checks add at most a level diagonal (entries
    < N) and small multiples of these, so int64 arithmetic stays exact.
    """
    a = np.eye(dim, k=1, dtype=np.int64)
    return a, a.T.copy()


def _int_unit(dim: int, i: int, j: int) -> np.ndarray:
    out = np.zeros((dim, dim), dtype=np.int64)
    out[i, j] = 1
    return out


def _interior_defect(mat: np.ndarray) -> float:
    """Largest absolute entry on the interior block (indices < N-1)."""
    cut = mat.shape[0] - 1
    return float(np.max(np.abs(mat[:cut, :cut])))


def multiplication_table_checks(dim: int) -> list[CheckReport]:
    """Exact interior-block identities of the lowering/raising pair.

    On indices < N-1:  a a+ = 1,  a+ a = 1 - P0,  [a, a+] = P0, and
    [X, P] = 2i P0 (checked through the integer matrix i^-1 [X, P]/2).
    """
    _require_dim(dim, minimum=3)
    a, ap = _int_shift_matrices(dim)
    eye = np.eye(dim, dtype=np.int64)
    p0 = _int_unit(dim, 0, 0)
    defect = _interior_defect

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
    m = n.
    """
    check_index("m_max, n_max", m_max, n_max)
    if m_max + n_max + 2 > dim:
        raise DimensionError("need m_max + n_max + 2 <= dim")
    a, ap = _int_shift_matrices(dim)
    p0 = _int_unit(dim, 0, 0)
    defect = _interior_defect
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


def coherent_kernel(u: complex, v: complex) -> complex:
    """Overlap of two coherent vectors: the geometric-series kernel 1/(1 - conj(u) v)."""
    if not (abs(u) < 1.0 and abs(v) < 1.0):
        raise DomainError("coherent parameters must satisfy |u| < 1, |v| < 1")
    return 1.0 / (1.0 - complex(u).conjugate() * complex(v))


def coherent_kernel_truncated(u: complex, v: complex, dim: int) -> tuple[complex, float]:
    """Partial geometric sum over the first dim levels plus a tail bound."""
    if not (abs(u) < 1.0 and abs(v) < 1.0):
        raise DomainError("coherent parameters must satisfy |u| < 1, |v| < 1")
    q = complex(u).conjugate() * complex(v)
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


def harmonic_char_from_state(t: float, xi: FockVector, omega1: float) -> complex:
    """Same quantity by explicit diagonal exponentiation of a state vector."""
    check_finite("t", t)
    check_positive("omega1", omega1)
    levels = np.arange(xi.dim)
    eigenvalues = np.where(levels == 0, omega1, 2.0 * omega1)
    phases = np.exp(1j * t * eigenvalues)
    return complex(np.vdot(xi.coeffs, phases * xi.coeffs))
