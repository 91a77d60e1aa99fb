"""Series evaluation of Bessel J and the confluent hypergeometric 1F1.

Both functions are computed from their defining power series with
compensated (Kahan) summation and a rigorous geometric bound on the
omitted tail.  This is a deliberate small-to-moderate-argument design:
the argument range is capped (|x| <= 64) and no asymptotic expansions
are used.  Removable singularities such as J_{n+1}(2t)/t at t = 0 are
evaluated by dedicated series, never by dividing small numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp

from .exceptions import ConvergenceError, DomainError, PoleError

_MAX_ABS_ARGUMENT = 64.0
_BESSEL_TERM_CAP = 500
_HYP1F1_TERM_CAP = 1000


@dataclass(frozen=True)
class SeriesResult:
    """Value of a truncated series together with a bound on the omitted tail.

    tail_bound is an upper bound on the absolute value of the discarded
    terms (ratio-test geometric bound); it does not account for
    floating-point rounding of the retained terms.
    """

    value: complex
    terms_used: int
    tail_bound: float


class _KahanSum:
    """Compensated accumulator; also tracks the sum of |terms|."""

    __slots__ = ("total", "_comp", "abs_total")

    def __init__(self) -> None:
        self.total = 0j
        self._comp = 0j
        self.abs_total = 0.0

    def add(self, term: complex) -> None:
        y = term - self._comp
        t = self.total + y
        self._comp = (t - self.total) - y
        self.total = t
        self.abs_total += abs(term)


def bessel_j(n: int, x: float) -> SeriesResult:
    """Bessel function of the first kind J_n(x) by its defining series.

    J_n(x) = sum_p (-1)^p / (p! (n+p)!) (x/2)^(n+2p)

    Args:
        n: order, n >= 0.
        x: argument, |x| <= 64.
    Returns:
        SeriesResult whose tail_bound is below 1e-14 * max(1, |value|)
        at convergence.
    Raises:
        ConvergenceError: if more than 500 terms would be needed.
    """
    if n < 0:
        raise DomainError(f"bessel order must be >= 0, got {n}")
    if abs(x) > _MAX_ABS_ARGUMENT:
        raise DomainError(f"|x| <= {_MAX_ABS_ARGUMENT} required, got {x}")
    half = 0.5 * x
    # leading term (x/2)^n / n!, built incrementally to avoid overflow
    term = 1.0
    for j in range(1, n + 1):
        term *= half / j
    acc = _KahanSum()
    hh = half * half
    for p in range(_BESSEL_TERM_CAP):
        acc.add(term)
        nxt = -term * hh / ((p + 1) * (n + p + 1))
        ratio = hh / ((p + 2) * (n + p + 2))  # decreasing in p
        if ratio < 1.0:
            bound = abs(nxt) / (1.0 - ratio)
            if bound <= 0.5e-15 * max(1.0, abs(acc.total)):
                return SeriesResult(value=acc.total.real, terms_used=p + 1, tail_bound=bound)
        term = nxt
    raise ConvergenceError(f"bessel_j({n}, {x}) did not converge in {_BESSEL_TERM_CAP} terms")


def bessel_j_ratio(n: int, t: float) -> float:
    """(n+1) J_{n+1}(2t) / t, with the t = 0 limit taken by the series.

    Expanding J_{n+1}(2t) gives
        (n+1) J_{n+1}(2t)/t = (n+1) sum_p (-1)^p t^(n+2p) / (p! (n+1+p)!)
    so the value at t = 0 is 1 for n = 0 and 0 otherwise.
    """
    if n < 0:
        raise DomainError(f"order must be >= 0, got {n}")
    if abs(t) > _MAX_ABS_ARGUMENT / 2:
        raise DomainError(f"|t| <= {_MAX_ABS_ARGUMENT / 2} required, got {t}")
    # leading term (n+1) t^n / (n+1)! = t^n / n!
    term = 1.0
    for j in range(1, n + 1):
        term *= t / j
    acc = _KahanSum()
    tt = t * t
    for p in range(_BESSEL_TERM_CAP):
        acc.add(term)
        nxt = -term * tt / ((p + 1) * (n + p + 2))
        ratio = tt / ((p + 2) * (n + p + 3))
        if ratio < 1.0 and abs(nxt) / (1.0 - ratio) <= 0.5e-15 * max(1.0, abs(acc.total)):
            return acc.total.real
        term = nxt
    raise ConvergenceError(f"bessel_j_ratio({n}, {t}) did not converge")


def hyp1f1(a: float, b: float, z: complex) -> SeriesResult:
    """Confluent hypergeometric function 1F1(a; b; z) by its power series.

    1F1(a; b; z) = sum_k (a)_k / ((b)_k k!) z^k  with Pochhammer (a)_k.
    The term recursion multiplies by (a+k) z / ((b+k)(k+1)) exactly.

    Raises:
        PoleError: for b a non-positive integer.
        ConvergenceError: past 1000 terms.
    """
    if b <= 0 and float(b).is_integer():
        raise PoleError(f"1F1 pole: b = {b} is a non-positive integer")
    z = complex(z)
    if abs(z) > _MAX_ABS_ARGUMENT:
        raise DomainError(f"|z| <= {_MAX_ABS_ARGUMENT} required, got |z| = {abs(z)}")
    acc = _KahanSum()
    term: complex = 1.0 + 0j
    for k in range(_HYP1F1_TERM_CAP):
        acc.add(term)
        nxt = term * (a + k) * z / ((b + k) * (k + 1))
        # conservative geometric ratio valid once the recursion factor
        # is below 1/2 and shrinking (k beyond |z| and |a - b|)
        ratio = abs(z) * max(1.0, abs(a + k + 1) / abs(b + k + 1)) / (k + 2)
        if ratio < 0.5:
            bound = abs(nxt) / (1.0 - ratio)
            if bound <= 0.5e-15 * max(1.0, abs(acc.total)):
                return SeriesResult(value=acc.total, terms_used=k + 1, tail_bound=bound)
        term = nxt
    raise ConvergenceError(f"hyp1f1({a}, {b}, {z}) did not converge in {_HYP1F1_TERM_CAP} terms")


def bessel_tail_index(t: float, tol: float) -> int:
    """Smallest level n* >= 1 past which the coefficient tail is below tol.

    The order-n expansion coefficient of the translation group satisfies
        |c_n(t)| <= (|t|^n / n!) e^(t^2) (1 + t^2/2),
    so the tail sum over n > n* is bounded by the geometric estimate
        e^(t^2) (1 + t^2/2) * |t|^(n*+1)/(n*+1)! / (1 - |t|/(n*+2)).
    Returns the smallest n* making that bound < tol.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    at = abs(t)
    if at == 0.0:
        return 1
    prefactor = exp(at * at) * (1.0 + at * at / 2.0)
    n = 1
    lead = at ** 2 / 2.0  # |t|^(n+1)/(n+1)! at n = 1
    while True:
        if n + 2 > at and prefactor * lead / (1.0 - at / (n + 2)) < tol:
            return n
        n += 1
        lead *= at / (n + 1)
        if n > 100_000:
            raise ConvergenceError("tail index search did not terminate")
