"""Exact combinatorics of products of raising/lowering steps.

A sign word encodes a product of creation (+) and annihilation (-)
operators, leftmost factor first.  Under the single rewrite rule
"a lowering step immediately followed by a raising step cancels"
(the constant-Jacobi-sequence case), every word reduces to a block of
raisings followed by a block of lowerings.  This module provides the
closed counting formula for the number of length-k words reducing to a
given normal form, Catalan numbers as the special case with empty
normal form, and exhaustive enumeration oracles.

All arithmetic is exact; results are required to fit in a signed 64-bit
integer and an OverflowError is raised otherwise, so the contract is
portable to fixed-width integer environments.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from math import comb
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .exceptions import EnumerationLimitError, check_index

PLUS = 1
MINUS = -1

_INT64_MAX = 2**63 - 1
_CATALAN_MAX_P = 30
_ENUMERATION_MAX_K = 22

SignWord = tuple[int, ...]


class NormalForm(NamedTuple):
    """Reduced word: m_plus raising steps followed by m_minus lowering steps."""

    m_plus: int
    m_minus: int


class NormalFormArrays(NamedTuple):
    """Normal forms and raising counts of all 2^k words, in `all_sign_words(k)` order."""

    m_plus: np.ndarray
    m_minus: np.ndarray
    nu_plus: np.ndarray


def as_sign_word(word: Iterable[int] | str) -> SignWord:
    """Coerce a '+-' string or an iterable of +1/-1 into a canonical word."""
    if isinstance(word, str):
        table = {"+": PLUS, "-": MINUS}
        try:
            return tuple(table[c] for c in word)
        except KeyError as exc:
            raise ValueError(f"invalid sign character in {word!r}") from exc
    out = tuple(word)
    if any(s not in (PLUS, MINUS) for s in out):
        raise ValueError("sign word entries must be +1 or -1")
    return out


def nu_plus(word: Iterable[int] | str) -> int:
    """Number of raising steps in the word."""
    return sum(1 for s in as_sign_word(word) if s == PLUS)


def catalan(p: int) -> int:
    """p-th Catalan number binomial(2p, p)/(p+1), exactly.

    Restricted to p <= 30 so the result fits in a signed 64-bit integer.
    """
    check_index("p", p)
    if p > _CATALAN_MAX_P:
        raise OverflowError(f"catalan({p}) exceeds the supported exact range (p <= {_CATALAN_MAX_P})")
    return comb(2 * p, p) // (p + 1)


def theta_count(m_plus: int, m_minus: int, p: int) -> int:
    """Number of words of length m_plus + m_minus + 2p reducing to (m_plus, m_minus).

    Ballot-type closed form
        (s+1)/(2p+s+1) * binomial(2p+s+1, p),   s = m_plus + m_minus,
    which is always an exact integer.  Python integers never wrap; the
    64-bit range guard is a portability contract.
    """
    check_index("m_plus, m_minus, p", m_plus, m_minus, p)
    s = m_plus + m_minus
    numerator = (s + 1) * comb(2 * p + s + 1, p)
    count, rem = divmod(numerator, 2 * p + s + 1)
    assert rem == 0, "ballot formula must divide exactly"
    if count > _INT64_MAX:
        raise OverflowError(f"theta_count({m_plus},{m_minus},{p}) exceeds the exact 64-bit range")
    return count


def normal_order(word: Iterable[int] | str) -> NormalForm:
    """Reduce a word with the rewrite (lowering, raising) -> (empty word).

    A single left-to-right stack pass suffices: cancelling an adjacent
    (-,+) pair never creates a new redex to its left, so the result is
    independent of rewrite order.
    """
    stack: list[int] = []
    for s in as_sign_word(word):
        if s == PLUS and stack and stack[-1] == MINUS:
            stack.pop()
        else:
            stack.append(s)
    m_plus = sum(1 for s in stack if s == PLUS)
    return NormalForm(m_plus=m_plus, m_minus=len(stack) - m_plus)


def _check_enumerable(k: int) -> None:
    check_index("k", k)
    if k > _ENUMERATION_MAX_K:
        raise EnumerationLimitError(
            f"refusing exhaustive enumeration for k={k} > {_ENUMERATION_MAX_K}"
        )


def all_sign_words(k: int) -> Iterator[SignWord]:
    """All 2^k words of length k, refused above k = 22."""
    _check_enumerable(k)
    return product((PLUS, MINUS), repeat=k)


def normal_forms(k: int) -> NormalFormArrays:
    """Normal forms and raising counts of all 2^k words of length k, refused above k = 22.

    Entry i belongs to the i-th word of `all_sign_words(k)`, whose j-th
    letter is a lowering step when bit k-1-j of i is set: the last step
    of the scan behind `prefix_normal_forms(k)`.
    """
    _check_enumerable(k)
    return deque(_scan(k), maxlen=1)[0]


def prefix_normal_forms(k: int) -> tuple[NormalFormArrays, ...]:
    """`normal_forms(j)` for every j <= k, from one letter-by-letter scan of the words of length k.

    Refused above k = 22.
    """
    _check_enumerable(k)
    return tuple(_scan(k))


def _scan(k: int) -> Iterator[NormalFormArrays]:
    """The normal forms of all words of length 0, 1, ..., k, each length grown from the one before.

    The scan carries each word's running score (+1 per raising, -1 per
    lowering) and its largest prefix sum so far; then
        m_plus = max(0, largest prefix sum),  m_minus = m_plus - total,
    while nu_plus counts the raising letters directly, independently of
    the normal form.  A word of length j+1 is the word of length j at
    index i // 2 followed by the letter that bit 0 of its index i gives,
    so each step appends both letters to every word of the step before
    and the words stay in `all_sign_words` order.  All values fit in
    int8 for k <= 22.
    """
    letter = np.array([PLUS, MINUS], dtype=np.int8)  # bit 0 of the index: 0 raises, 1 lowers
    raises = (letter == PLUS).astype(np.int8)
    total = top = raised = np.zeros(1, dtype=np.int8)
    for j in range(k + 1):
        if j:
            total = (total[:, None] + letter).reshape(-1)
            top = np.maximum(top[:, None], total.reshape(-1, 2)).reshape(-1)
            raised = (raised[:, None] + raises).reshape(-1)
        yield NormalFormArrays(m_plus=top, m_minus=top - total, nu_plus=raised)


def enumerate_theta_class(k: int, m_plus: int, m_minus: int) -> Iterator[SignWord]:
    """Words of length k whose normal order is (m_plus, m_minus)."""
    check_index("m_plus, m_minus", m_plus, m_minus)
    target = NormalForm(m_plus, m_minus)
    return (w for w in all_sign_words(k) if normal_order(w) == target)


def brute_force_theta(k: int, m_plus: int, m_minus: int) -> int:
    """Count, by exhaustive enumeration, the words counted by theta_count.

    Independent oracle for the closed formula: for k - m_plus - m_minus
    = 2p >= 0, brute_force_theta(k, m_plus, m_minus) equals
    theta_count(m_plus, m_minus, p); it is 0 for unreachable targets.
    """
    check_index("m_plus, m_minus", m_plus, m_minus)
    return sign_word_distribution(k).get(NormalForm(m_plus, m_minus), 0)


def sign_word_distribution(k: int) -> dict[NormalForm, int]:
    """Histogram of normal forms over all 2^k words of length k."""
    forms = normal_forms(k)
    counts = np.bincount(forms.m_plus.astype(np.intp) * (k + 1) + forms.m_minus)
    return {NormalForm(*divmod(int(c), k + 1)): int(counts[c]) for c in np.flatnonzero(counts)}


def nu_plus_on_theta(m_plus: int, m_minus: int, p: int) -> int:
    """Common raising-step count of every word in the (m_plus, m_minus, p) class.

    Every word of length m_plus + m_minus + 2p reducing to
    (m_plus, m_minus) performs exactly p cancelled raisings plus the
    m_plus surviving ones.
    """
    check_index("m_plus, m_minus, p", m_plus, m_minus, p)
    return p + m_plus
