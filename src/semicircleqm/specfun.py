"""Bessel J and the confluent hypergeometric 1F1 with rigorous error bounds.

Every Bessel order of an argument comes from one Miller backward
recurrence (`bessel_j_all`), normalised by J_0 + 2 sum_k J_2k = 1
(Gautschi, SIAM Rev. 9, 1967; A&S 9.12), started where `_tail_index`
puts the omitted orders below eps/256, and certified against a run
from twice the start order.  `bessel_j` reads one order from it.  The
defining power series stay public as independent references:
`bessel_j_series_orders` for J (any set of orders at one argument in
one pass, `bessel_j_series` for one), and `hyp1f1` for 1F1.  Every
defining series of the package, these two and the coefficient and
Catalan series of `evolution`, is summed exactly: a binary float is a
rational number, so each partial sum is a Gaussian-integer numerator
over one integer denominator, the alternating cancellation costs
nothing, and the final division is the only rounding.  Each reports a
geometric bound on the omitted tail and that one rounding.
`_exact_series` sums one series and the J pass every order of one
argument; both hold the same integers and stop by one rule,
`_tail_stop`, which bit-length tests let them try about once per
series.  The J pass, whose series are real, applies it to integers and
rounds to a float; `_exact_series` through `_series_stop`, which
rounds to a complex value.
This is a deliberate small-to-moderate-argument design: the argument
range is capped (|x| <= 64) and no asymptotic expansions are used.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import accumulate, count, islice, repeat
from math import exp, factorial, fsum, inf, lgamma, log, log1p, log2
from operator import lshift, mul

import numpy as np

from .exceptions import ConvergenceError, PoleError, check_finite, check_index, check_positive

_MAX_ABS_ARGUMENT = 64.0
_SERIES_TERM_CAP = 1000
_EPS = 2.0**-52
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
    term, and `_series_stop` decides where the terms stop; a bit-length
    test skips it wherever it cannot stop.

    Returns:
        The `SeriesResult` fields: the correctly rounded partial sum,
        the number of terms in it, the tail bound and the one rounding
        (see `_series_stop`).
    Raises:
        ConvergenceError: past _SERIES_TERM_CAP terms.
    """
    re, im, den = lead
    term_re, term_im = re, im  # numerator of term k over den
    for k in range(_SERIES_TERM_CAP):
        r_re, r_im, r_den = ratio(k)
        if r_im or term_im:
            term_re, term_im = term_re * r_re - term_im * r_im, term_re * r_im + term_im * r_re
            term_bits = max(term_re.bit_length(), term_im.bit_length())
        else:
            term_re *= r_re
            term_bits = term_re.bit_length()
        # partial sum k and term k+1 over the same denominator den r_den
        scaled_re, scaled_im, next_den = re * r_den, im * r_den, den * r_den
        # a nonzero |term k+1| is at least 2^(term_bits - 1), and eps times the scale of the stop rule
        # (max(|re|, |im|) for a relative stop, max(den, |re| + |im|) otherwise, times r_den) is below
        # 2^(scale_bits - 52), so the rule cannot hold before term_bits + 51 <= scale_bits
        sum_bits = max(scaled_re.bit_length(), scaled_im.bit_length()) if im else scaled_re.bit_length()
        scale_bits = sum_bits if relative else max(sum_bits + 1, next_den.bit_length())
        if not term_bits or term_bits + 51 <= scale_bits:
            found = _series_stop(re, im, den, term_re, term_im, r_den, ratio_bound(k) if term_bits else 0.0, relative)
            if found:
                return (found[0], k + 1, *found[1:])
        re = scaled_re + term_re
        if im or term_im:
            im = scaled_im + term_im
        den = next_den
    raise ConvergenceError(f"defining series did not converge in {_SERIES_TERM_CAP} terms")


def _series_stop(
    re: int, im: int, den: int, term_re: int, term_im: int, r_den: int, q: float, relative: bool
) -> tuple[complex, float, float] | None:
    """The stop of `_exact_series`: (value, tail bound, rounding bound), or None to go on.

    The partial sum is (re + i im)/den and the next term (term_re + i
    term_im)/(den r_den); `_tail_stop` decides, on the tail
    |term_re| + |term_im| against the scale max(1, |partial sum|), or
    max(|Re|, |Im|) of the exact partial sum if relative (a zero partial
    sum then stops only at a zero term).  The value is the partial sum
    correctly rounded (divided out only once a relative stop holds) and
    the rounding bound eps (|Re| + |Im|) of it, or the least subnormal
    5e-324 where that underflows and the exact sum is nonzero.
    """
    if not relative:
        value = complex(re / den, im / den)
        log_scale = log(max(1.0, abs(value)))
    elif re or im:
        # from the exact sum, which stays nonzero where value underflows
        log_scale = log(max(abs(re), abs(im))) - log(den)
    else:
        log_scale = -inf
    tail_bound = _tail_stop(abs(term_re) + abs(term_im), den * r_den, q, log_scale)
    if tail_bound is None:
        return None
    if relative:
        value = complex(re / den, im / den)
    rounding = max(_EPS * (abs(value.real) + abs(value.imag)), _TINIEST) if re or im else 0.0
    return value, tail_bound, rounding


def _tail_stop(tail: int, den: int, q: float, log_scale: float) -> float | None:
    """The stop rule of every exactly summed series: the tail bound, or None to go on.

    The next term is tail/den in absolute value, and q bounds the ratio
    of every later term to the one before.  The terms stop once the
    geometric bound on the rest, tail/den/(1 - q), evaluated in logs, is
    at most eps exp(log_scale); a zero term ends the series, since every
    later term is a multiple of it.  The bound returned is at least the
    least subnormal 5e-324 unless the tail is 0, so a nonzero omitted
    term that underflows keeps a nonzero bound.  Callers skip it, by bit
    lengths, wherever it cannot stop.
    """
    if q >= 1.0:
        return None
    log_tail = log(tail) - log(den) - log1p(-q) if tail else -inf
    if log_tail > _LOG_EPS + log_scale:
        return None
    return max(exp(log_tail), _TINIEST) if tail else 0.0


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

    The start order is 8 levels past n_max or past the order beyond which
    `_tail_index` bounds sum_k |J_k(x)| below eps/256, whichever is larger.
    A second run from twice that order certifies it: the two runs must
    agree within the rounding bound, and the second run's values are
    returned.

    Raises:
        DomainError: for n_max < 0 or |x| > 64.
        ConvergenceError: if the two runs differ beyond the rounding bound.
    """
    check_index("n_max", n_max)
    check_finite("x", x, _MAX_ABS_ARGUMENT)
    x = float(x)  # an np.float64 would run the recurrence in slower NumPy scalar arithmetic, to the same bits
    if abs(x) < _TINY_ARGUMENT:
        values = np.zeros(n_max + 1)
        term = 1.0
        for k in range(n_max + 1):
            values[k] = term
            term *= 0.5 * x / (k + 1)
            if term == 0.0:
                break
        return BesselOrders(values, 0, 0.0, 8.0 * _EPS * float(np.sum(np.abs(values))))
    start = max(n_max, _tail_index(0.0, 0.5 * abs(x), _EPS / 256.0)) + 8
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
    """J_n(x) by its defining series, the independent reference: `bessel_j_series_orders((n,), x)`.

    Returns:
        SeriesResult whose tail_bound is at most eps times the exact
        partial sum and whose value is that sum correctly rounded.
    """
    check_index("n", n)
    return bessel_j_series_orders((n,), x)[0]


def bessel_j_series_orders(orders, x: float) -> tuple[SeriesResult, ...]:
    """J_n(x) for every n in orders by the defining series (A&S 9.1.10), in one exact pass.

    J_n(x) = sum_p (-1)^p / (p! (n+p)!) (x/2)^(n+2p).

    With x = a/b in lowest terms, b a power of two and 2b = 2^s, term p
    is (-1)^p a^(n+2p) / (p! (n+p)! 2^(s(n+2p))).  Each order keeps the
    integers that `_exact_series` keeps when it sums this series with
    term ratio -x^2 / (4 (p+1) (n+p+1)): partial sum k is an integer over
    k! (n+k)! 2^(s(n+2k)), and partial sum k+1 is that integer times
    (k+1)(n+k+1) 2^(2s) plus the numerator of term k+1.  Each order
    stops by `_tail_stop`, as `_exact_series` does, with the same tail
    bound and the same one rounding: at the first partial sum that the
    geometric bound on the rest, with ratio bound x^2 / (4 (k+2)(n+k+2)),
    puts at most eps times itself, or at a zero term.  The orders of one
    parity share one list of the powers a^(n+2p), and a bit-length test
    skips the stop rule wherever it cannot hold.  The stop is
    relative, so the value is accurate relative to itself even where
    J_n(x) is far below 1 (J_40(1) ~ 1e-60).

    Returns:
        One SeriesResult per order, in the order given.
    Raises:
        DomainError: for an order that is not an integer >= 0, or |x| > 64.
        ConvergenceError: past 1000 terms.
    """
    orders = tuple(orders)
    check_index("orders", *orders)
    check_finite("x", x, _MAX_ABS_ARGUMENT)
    x = float(x)  # as in `bessel_j_all`: Python float arithmetic in the stop rule, to the same bits
    a, b = x.as_integer_ratio()
    shift = b.bit_length()  # 2b = 2^shift
    quarter_x2 = 0.25 * x * x
    # log2 |a|; with a = 0 every term after the first is 0 and the test below always passes
    log2_a = log2(abs(a)) if a else -inf
    # powers[n % 2][j] = a^(n % 2 + 2j), shared by the orders of one parity and grown as they need
    powers = ([1], [a])
    results = []
    for n in orders:
        row = powers[n % 2]
        j0 = n // 2 + 1  # term k+1 of J_n has numerator (-1)^(k+1) row[j0 + k]
        # about as many terms as J_n takes to its stop at |x| <= 64; the row doubles when an order
        # runs past them (near a zero of J_n, say)
        _extend_powers(row, a * a, j0 + int(1.5 * abs(x)) + 12)
        # acc = (-1)^k times the numerator of partial sum k, so that partial sum k+1 is
        # acc' = row[j0 + k] - acc m_k with the multiplier m_k = (k+1)(n+k+1) 2^(2 shift)
        acc = row[j0 - 1]
        k = 0
        found = None
        while found is None:
            if k >= _SERIES_TERM_CAP:
                raise ConvergenceError(f"defining series did not converge in {_SERIES_TERM_CAP} terms")
            if len(row) <= j0 + k:
                _extend_powers(row, a * a, 2 * len(row))
            multipliers = map(lshift, map(mul, count(k + 1), count(n + k + 1)), repeat(2 * shift))
            # the stop rule needs |term k+1| <= eps |partial sum k|, and term k+1 over partial sum k
            # is row[j0 + k] / (acc m_k), so it cannot hold before acc m_k has more bits than
            # log2 |a^(n+2k+2)| + 52 (less 1e-6 for the rounding of that bound)
            least_bits = count((n + 2 * k + 2) * log2_a + 52 - 1e-6, 2 * log2_a)
            for k, v, m, bits in zip(range(k, _SERIES_TERM_CAP), row[j0 + k :], multipliers, least_bits):
                scaled = acc * m
                if scaled.bit_length() > bits:
                    # partial sum k is (-1)^k acc over k! (n+k)! 2^(shift (n+2k)), term k+1 is
                    # (-1)^(k+1) v over that times m: the integers that `_exact_series` holds there
                    sign = -1 if k % 2 else 1
                    den = factorial(k) * factorial(n + k) << shift * (n + 2 * k)
                    q = quarter_x2 / ((k + 2) * (n + k + 2)) if v else 0.0
                    tail_bound = _tail_stop(abs(v), den * m, q, log(abs(acc)) - log(den) if acc else -inf)
                    if tail_bound is not None:
                        value = sign * acc / den
                        rounding = max(_EPS * abs(value), _TINIEST) if acc else 0.0
                        found = SeriesResult(value, k + 1, tail_bound, rounding)
                        break
                acc = v - scaled
            else:
                k += 1
        results.append(found)
    return tuple(results)


def _extend_powers(row: list[int], factor: int, size: int) -> None:
    """Continue row, a list of integers in which each is factor times the one before, to size entries."""
    if len(row) < size:
        row.extend(islice(accumulate(repeat(factor, size - len(row)), mul, initial=row[-1]), 1, None))


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

    With log C = 0 and a = |t| it is the package's one rule for how many
    Bessel orders a sum needs.  By Poisson's integral (A&S 9.1.20)
    J_n(2t) = t^n / (sqrt(pi) Gamma(n + 1/2)) int_0^pi cos(2t cos phi) sin^(2n) phi dphi,
    and sin^(2n) integrates over [0, pi] to sqrt(pi) Gamma(n + 1/2) / n!, so
    |J_n(2t)| <= |t|^n/n! for real t (A&S 9.1.62): the orders past n sum
    to less than tol, and so do the translation coefficients, since
    (m+1) |J_{m+1}(2t)| / |t| <= |t|^m/m!.
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

