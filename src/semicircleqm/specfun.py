"""Bessel J and the confluent hypergeometric 1F1 with rigorous error bounds.

Every Bessel order of an argument comes from one Miller backward
recurrence (`bessel_j_all`), normalised by J_0 + 2 sum_k J_2k = 1
(Gautschi, SIAM Rev. 9, 1967; A&S 9.12), and certified against a run
from twice the start order.  `bessel_j` reads one order from it.  The
defining power series stay public as independent references:
`bessel_j_series` for J at small |x|, and `hyp1f1` for 1F1.  They are
summed with compensated (Kahan) summation and report a geometric bound
on the omitted tail and a bound on the rounding of the retained terms.
This is a deliberate small-to-moderate-argument design: the argument
range is capped (|x| <= 64) and no asymptotic expansions are used.
Removable singularities such as J_{n+1}(2t)/t at t = 0 are evaluated
by dedicated series, never by dividing small numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, exp, fsum

import numpy as np

from .exceptions import ConvergenceError, DomainError, PoleError

_MAX_ABS_ARGUMENT = 64.0
_BESSEL_TERM_CAP = 500
_HYP1F1_TERM_CAP = 1000
_EPS = 2.0**-52
# below this |x| the first omitted series term is under 2^-62 relative, so the
# leading term (x/2)^n/n! is every J_n(x) to full precision
_TINY_ARGUMENT = 2.0**-30
_RESCALE = 1e100  # keeps the backward recurrence finite; ratios are unchanged


@dataclass(frozen=True)
class SeriesResult:
    """Value of a truncated series together with bounds on its error.

    tail_bound bounds the absolute value of the discarded terms
    (ratio-test geometric bound).  rounding_bound bounds the floating-
    point rounding of the retained terms: 8 k eps sum|terms| for k steps
    of the term recursion, covering the few roundings each step adds to
    every later term and those of the compensated sum.  Their sum bounds
    the absolute error of value.  `bessel_j` fills both from the
    recurrence's bounds (see `BesselOrders`).
    """

    value: complex
    terms_used: int
    tail_bound: float
    rounding_bound: float


@dataclass(frozen=True)
class BesselOrders:
    """J_0(x) .. J_{n_max}(x) from one backward recurrence, with error bounds.

    tail_bound is the largest change of any value between the start
    orders `start_order` and `2 * start_order` (the values come from the
    larger one).  rounding_bound is 8 eps sum_k |J_k| times the
    condition number of the normalisation sum.  Their sum bounds the
    absolute error of every value.  Below |x| = 2^-30 the values are the
    leading series terms and start_order is 0.
    """

    values: np.ndarray
    start_order: int
    tail_bound: float
    rounding_bound: float


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


def _rounding_bound(steps: int, abs_total: float) -> float:
    """8 k eps sum|terms| after k steps of a term recursion (see SeriesResult)."""
    return 8.0 * steps * _EPS * abs_total


def _check_bessel_domain(n: int, x: float) -> None:
    if n < 0:
        raise DomainError(f"bessel order must be >= 0, got {n}")
    if not abs(x) <= _MAX_ABS_ARGUMENT:  # also rejects nan
        raise DomainError(f"|x| <= {_MAX_ABS_ARGUMENT} required, got {x}")


def _miller(x: float, start: int) -> tuple[np.ndarray, float]:
    """J_0(x) .. J_start(x) recurred down from f_{start+1} = 0, f_start = 1.

    J_{k-1} = (2k/x) J_k - J_{k+1} grows downwards past |x|, so the
    start values wash out; dividing by f_0 + 2 sum_k f_2k normalises.
    Returns the values and the condition number of that sum.
    """
    c = 2.0 / x
    f = [0.0] * (start + 1)
    f[start] = cur = 1.0
    nxt = 0.0
    rescaled = []  # k at each rescaling: f_k and above are still unscaled
    for k in range(start, 0, -1):
        prev = k * c * cur - nxt
        if not -_RESCALE <= prev <= _RESCALE:
            rescaled.append(k)
            prev /= _RESCALE
            cur /= _RESCALE
        f[k - 1] = prev
        nxt = cur
        cur = prev
    values = np.array(f)
    for k in rescaled:
        values[k:] /= _RESCALE
    first, even = float(values[0]), values[2::2].tolist()
    norm = fsum([first, *even, *even])
    condition = (abs(first) + 2.0 * fsum(map(abs, even))) / abs(norm)
    return values / norm, condition


def bessel_j_all(n_max: int, x: float) -> BesselOrders:
    """Bessel functions J_0(x) .. J_{n_max}(x) by Miller's backward recurrence.

    The start order is 8 levels past n_max or past |x| + 12 |x|^(1/3),
    whichever is larger; J_k(x) < 1e-17 beyond the latter for |x| <= 64.
    A second run from twice that order certifies it: the two runs must
    agree within the rounding bound, and the second run's values are
    returned.

    Raises:
        DomainError: for n_max < 0 or |x| > 64.
        ConvergenceError: if the two runs differ beyond the rounding bound.
    """
    _check_bessel_domain(n_max, x)
    if abs(x) < _TINY_ARGUMENT:
        values = np.zeros(n_max + 1)
        term = 1.0
        for k in range(n_max + 1):
            values[k] = term
            term *= 0.5 * x / (k + 1)
            if term == 0.0:
                break
        return BesselOrders(values, 0, 0.0, 8.0 * _EPS * float(np.sum(np.abs(values))))
    start = max(n_max, ceil(abs(x) + 12.0 * abs(x) ** (1.0 / 3.0))) + 8
    low, _ = _miller(x, start)
    high, condition = _miller(x, 2 * start)
    agreement = float(np.max(np.abs(high[: n_max + 1] - low[: n_max + 1])))
    rounding = 8.0 * _EPS * condition * float(np.sum(np.abs(high)))
    if agreement > rounding:
        raise ConvergenceError(
            f"bessel_j_all({n_max}, {x}): start orders {start} and {2 * start} differ by {agreement:.2e}"
        )
    return BesselOrders(high[: n_max + 1], 2 * start, agreement, rounding)


def bessel_j(n: int, x: float) -> SeriesResult:
    """Bessel function of the first kind J_n(x), read from `bessel_j_all(n, x)`.

    Args:
        n: order, n >= 0.
        x: argument, |x| <= 64.
    Returns:
        SeriesResult whose terms_used is the recurrence's start order and
        whose tail_bound + rounding_bound bounds the absolute error.
    """
    orders = bessel_j_all(n, x)
    return SeriesResult(
        value=float(orders.values[n]),
        terms_used=orders.start_order,
        tail_bound=orders.tail_bound,
        rounding_bound=orders.rounding_bound,
    )


def bessel_j_series(n: int, x: float) -> SeriesResult:
    """J_n(x) by its defining series, the independent reference at small |x|.

    J_n(x) = sum_p (-1)^p / (p! (n+p)!) (x/2)^(n+2p)

    The terms grow roughly like e^|x| before they fall, so the rounding
    bound, and the error, grow with |x|.

    Returns:
        SeriesResult whose tail_bound is below 0.5e-15 * max(1, |value|)
        at convergence.
    Raises:
        ConvergenceError: if more than 500 terms would be needed.
    """
    _check_bessel_domain(n, x)
    half = 0.5 * x
    # leading term (x/2)^n / n!, built incrementally to avoid overflow
    term = 1.0
    for j in range(1, n + 1):
        term *= half / j
    # the compensated sum of _KahanSum, inlined on floats: verify calls this 144 times a pass
    total = comp = abs_total = 0.0
    hh = half * half
    for p in range(_BESSEL_TERM_CAP):
        y = term - comp
        partial = total + y
        comp = (partial - total) - y
        total = partial
        abs_total += abs(term)
        nxt = -term * hh / ((p + 1) * (n + p + 1))
        ratio = hh / ((p + 2) * (n + p + 2))  # decreasing in p
        if ratio < 1.0:
            bound = abs(nxt) / (1.0 - ratio)
            if bound <= 0.5e-15 * max(1.0, abs(total)):
                return SeriesResult(
                    value=total,
                    terms_used=p + 1,
                    tail_bound=bound,
                    rounding_bound=_rounding_bound(n + p + 1, abs_total),
                )
        term = nxt
    raise ConvergenceError(f"bessel_j_series({n}, {x}) did not converge in {_BESSEL_TERM_CAP} terms")


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
                return SeriesResult(
                    value=acc.total,
                    terms_used=k + 1,
                    tail_bound=bound,
                    rounding_bound=_rounding_bound(k + 1, acc.abs_total),
                )
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
