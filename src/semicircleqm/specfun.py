"""Bessel J and the confluent hypergeometric 1F1 with rigorous error bounds.

Every Bessel order of an argument comes from one Miller backward
recurrence (`bessel_j_all`), normalised by J_0 + 2 sum_k J_2k = 1
(Gautschi, SIAM Rev. 9, 1967; A&S 9.12), and certified against a run
from twice the start order.  `bessel_j` reads one order from it.  The
defining power series stay public as independent references:
`bessel_j_series` for J, and `hyp1f1` for 1F1.  Every defining series
of the package, these two and the coefficient and Catalan series of
`evolution`, is summed by one exact summer (`_exact_series`): a binary
float is a rational number, so each partial sum is a Gaussian-integer
numerator over one integer denominator, the alternating cancellation
costs nothing, and the final division is the only rounding.  Each
reports a geometric bound on the omitted tail and that one rounding.
This is a deliberate small-to-moderate-argument design: the argument
range is capped (|x| <= 64) and no asymptotic expansions are used.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from math import ceil, exp, factorial, fsum, inf, lgamma, log, log1p

import numpy as np

from .exceptions import ConvergenceError, PoleError, check_finite, check_index, check_positive

_MAX_ABS_ARGUMENT = 64.0
_SERIES_TERM_CAP = 1000
_LOG2_EPS = -52
_EPS = 2.0**_LOG2_EPS
_LOG_EPS = log(_EPS)
# below this |x| the first omitted series term is under 2^-62 relative, so the
# leading term (x/2)^n/n! is every J_n(x) to full precision
_TINY_ARGUMENT = 2.0**-30
_RESCALE = 1e100  # keeps the backward recurrence finite; ratios are unchanged
_TINIEST = 5e-324  # least positive subnormal double


@dataclass(frozen=True)
class SeriesResult:
    """Value of a truncated series together with bounds on its error.

    tail_bound bounds the absolute value of the discarded terms
    (ratio-test geometric bound); the defining series stop once it is at
    most eps max(1, |sum|), and `bessel_j_series` once it is at most
    eps |sum|, so its value is accurate relative to itself.  The
    retained terms are summed exactly, so rounding_bound is the one
    final rounding, eps (|Re value| + |Im value|).  Neither is below the
    least subnormal 5e-324 unless it is exactly 0, so a value that
    underflows keeps a nonzero bound.  Their sum bounds the absolute
    error of value.  `bessel_j` fills both from the
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


def _exact_series(
    lead: tuple[int, int, int],
    ratio: Callable[[int], tuple[int, int, int]],
    ratio_bound: Callable[[int], float],
    relative: bool = False,
) -> tuple[complex, int, float, float]:
    """Sum a defining series exactly and round once.

    Term 0 is lead = (re, im, den), the Gaussian integer re + i im over
    the integer den > 0; term k+1 is term k times ratio(k), given in the
    same form.  ratio_bound(k) bounds |term j+1 / term j| for every
    j > k (inf while no such bound is known).  Every partial sum is kept
    as one Gaussian-integer numerator over the denominator of its last
    term.  Terms stop once the geometric bound on the rest,
    |term k+1| / (1 - ratio_bound(k)), evaluated in logs, is at most
    eps max(1, |partial sum|), or eps |partial sum| if relative (a zero
    partial sum then stops it only at a zero term); a zero term ends the
    series, since every later term is a multiple of it.

    Returns:
        The `SeriesResult` fields: the correctly rounded partial sum,
        the number of terms in it, the tail bound and the one rounding,
        eps (|Re| + |Im|).  Where these underflow, the least subnormal
        5e-324 bounds them instead: the tail bound whenever a nonzero
        term is omitted, the rounding whenever the exact sum is nonzero.
    Raises:
        ConvergenceError: past _SERIES_TERM_CAP terms.
    """
    re, im, den = lead
    term_re, term_im = re, im  # numerator of term k over den
    den_bits = den.bit_length()
    for k in range(_SERIES_TERM_CAP):
        r_re, r_im, r_den = ratio(k)
        if r_im or term_im:
            term_re, term_im = term_re * r_re - term_im * r_im, term_re * r_im + term_im * r_re
            term_bits = max(term_re.bit_length(), term_im.bit_length())
        else:
            term_re *= r_re
            term_bits = term_re.bit_length()
        sum_bits = (max(re.bit_length(), im.bit_length()) if im else re.bit_length()) + 2 - den_bits
        next_den = den * r_den
        next_bits = next_den.bit_length()
        # a nonzero |term k+1| > 2^(term_bits - next_bits - 1) and |partial sum| < 2^sum_bits
        # (sum_bits may be negative), so the stop rule cannot hold before this does; the logs
        # of the big integers wait for it
        scale_bits = sum_bits if relative or sum_bits > 0 else 0
        if not term_bits or term_bits - next_bits - 1 <= _LOG2_EPS + scale_bits:
            q = ratio_bound(k) if term_bits else 0.0
            if q < 1.0:
                value = complex(re / den, im / den)
                log_tail = log(abs(term_re) + abs(term_im)) - log(next_den) - log1p(-q) if term_bits else -inf
                if not relative:
                    log_scale = log(max(1.0, abs(value)))
                elif re or im:
                    # from the exact sum, which stays nonzero where value underflows
                    log_scale = log(max(abs(re), abs(im))) - log(den)
                else:
                    log_scale = -inf
                if log_tail <= _LOG_EPS + log_scale:
                    # a nonzero tail or sum that underflows is still at most the least subnormal
                    tail = max(exp(log_tail), _TINIEST) if term_bits else 0.0
                    rounding = max(_EPS * (abs(value.real) + abs(value.imag)), _TINIEST) if re or im else 0.0
                    return value, k + 1, tail, rounding
        re = re * r_den + term_re
        if im or term_im:
            im = im * r_den + term_im
        den, den_bits = next_den, next_bits
    raise ConvergenceError(f"defining series did not converge in {_SERIES_TERM_CAP} terms")


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
    check_index("n_max", n_max)
    check_finite("x", x, _MAX_ABS_ARGUMENT)
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
    check_index("n", n)
    orders = bessel_j_all(n, x)
    return SeriesResult(
        value=float(orders.values[n]),
        terms_used=orders.start_order,
        tail_bound=orders.tail_bound,
        rounding_bound=orders.rounding_bound,
    )


def bessel_j_series(n: int, x: float) -> SeriesResult:
    """J_n(x) by its defining series (A&S 9.1.10), the independent reference.

    J_n(x) = sum_p (-1)^p / (p! (n+p)!) (x/2)^(n+2p)

    summed exactly by `_exact_series`: term p+1 is term p times
    -x^2 / (4 (p+1) (n+p+1)).  The terms stop at eps |partial sum|, not
    at eps max(1, |partial sum|), so the value is accurate relative to
    itself even where J_n(x) is far below 1 (J_40(1) ~ 1e-60).

    Returns:
        SeriesResult whose tail_bound is at most eps times the exact
        partial sum and whose value is that sum correctly rounded.
    """
    check_index("n", n)
    check_finite("x", x, _MAX_ABS_ARGUMENT)
    a, b = float(x).as_integer_ratio()
    a2, b2 = -a * a, 4 * b * b
    hh = 0.25 * x * x
    value, terms, tail, rounding = _exact_series(
        (a**n, 0, (2 * b) ** n * factorial(n)),
        lambda p: (a2, 0, (p + 1) * (n + p + 1) * b2),
        lambda p: hh / ((p + 2) * (n + p + 2)),
        relative=True,
    )
    return SeriesResult(value.real, terms, tail, rounding)


def hyp1f1(a: float, b: float, z: complex) -> SeriesResult:
    """Confluent hypergeometric function 1F1(a; b; z) by its power series (DLMF 13.2.2).

    1F1(a; b; z) = sum_k (a)_k / ((b)_k k!) z^k  with Pochhammer (a)_k,
    summed exactly by `_exact_series`: a, b and z are binary floats, so
    the term ratio (a+k) z / ((b+k)(k+1)) is an exact Gaussian rational.

    Raises:
        PoleError: for b a non-positive integer.
        DomainError: for |z| > 64, or a or b not finite.
        ConvergenceError: past 1000 terms.
    """
    check_finite("a", a)
    check_finite("b", b)
    if b <= 0 and float(b).is_integer():
        raise PoleError(f"1F1 pole: b = {b} is a non-positive integer")
    z = complex(z)
    check_finite("z", z, _MAX_ABS_ARGUMENT)
    a_num, a_den = float(a).as_integer_ratio()
    b_num, b_den = float(b).as_integer_ratio()
    re_num, re_den = z.real.as_integer_ratio()
    im_num, im_den = z.imag.as_integer_ratio()
    z_den = max(re_den, im_den)  # both are powers of two
    z_re, z_im = re_num * (z_den // re_den), im_num * (z_den // im_den)

    def ratio(k: int) -> tuple[int, int, int]:
        num = (a_num + k * a_den) * b_den
        den = a_den * (b_num + k * b_den) * z_den * (k + 1)
        if den < 0:
            num, den = -num, -den
        return num * z_re, num * z_im, den

    def ratio_bound(k: int) -> float:
        # for j > k with b + j > 0, |a+j|/(b+j) is at most max(1, its value at j = k+1)
        if b + k + 1 <= 0:
            return inf
        return abs(z) * max(1.0, abs(a + k + 1) / (b + k + 1)) / (k + 2)

    return SeriesResult(*_exact_series((1, 0, 1), ratio, ratio_bound))


def _tail_index(log_c: float, a: float, tol: float) -> int:
    """Smallest n >= 1 with n + 2 > a and C a^(n+1)/(n+1)! / (1 - a/(n+2)) < tol.

    That is the geometric bound on the tail sum_{m > n} C a^m/m!, taken in
    logs from log C so that it cannot overflow.  a is |t| times a constant.
    """
    check_finite("t", a)
    check_positive("tol", tol)
    if a == 0.0:
        return 1
    log_limit = log(tol) - log_c
    log_a = log(a)
    n = max(1, int(a) - 1)
    log_lead = (n + 1) * log_a - lgamma(n + 2)  # log a^(n+1)/(n+1)!
    # the geometric factor is at least 1, so its log1p is needed only once the lead is below the limit
    while log_lead >= log_limit or log_lead - log1p(-a / (n + 2)) >= log_limit:
        n += 1
        log_lead += log_a - log(n + 1)
        if n > 100_000:
            raise ConvergenceError("tail index search did not terminate")
    return n


def bessel_tail_index(t: float, tol: float) -> int:
    """Smallest level n* >= 1 past which the coefficient tail is below tol.

    The order-n expansion coefficient of the translation group satisfies
    |c_n(t)| <= (|t|^n / n!) e^(t^2) (1 + t^2/2), so n* is `_tail_index`
    at C = e^(t^2) (1 + t^2/2) and a = |t|.
    """
    at = abs(t)
    tt = at * at
    return _tail_index(tt + log1p(tt / 2.0), at, tol)
