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

from itertools import product
from math import comb
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .exceptions import EnumerationLimitError

PLUS = 1
MINUS = -1

_INT64_MAX = 2**63 - 1
_CATALAN_MAX_P = 30
_ENUMERATION_MAX_K = 22
# Words per block of the vectorised enumeration; bounds its working memory.
_BLOCK_WORDS = 2**14

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
    if p < 0:
        raise ValueError(f"catalan index must be >= 0, got {p}")
    if p > _CATALAN_MAX_P:
        raise OverflowError(f"catalan({p}) exceeds the supported exact range (p <= {_CATALAN_MAX_P})")
    return comb(2 * p, p) // (p + 1)


def theta_count_unbounded(m_plus: int, m_minus: int, p: int) -> int:
    """Ballot count without the 64-bit range guard (internal series engine).

    Same exact integer as theta_count; Python integers never wrap, so
    the guard on the public operation is a portability contract, not a
    correctness requirement.
    """
    if m_plus < 0 or m_minus < 0 or p < 0:
        raise ValueError("theta_count arguments must be non-negative")
    s = m_plus + m_minus
    numerator = (s + 1) * comb(2 * p + s + 1, p)
    count, rem = divmod(numerator, 2 * p + s + 1)
    assert rem == 0, "ballot formula must divide exactly"
    return count


def theta_count(m_plus: int, m_minus: int, p: int) -> int:
    """Number of words of length m_plus + m_minus + 2p reducing to (m_plus, m_minus).

    Ballot-type closed form
        (s+1)/(2p+s+1) * binomial(2p+s+1, p),   s = m_plus + m_minus,
    which is always an exact integer.
    """
    count = theta_count_unbounded(m_plus, m_minus, p)
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
    if k < 0:
        raise ValueError("word length must be >= 0")
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
    letter is a lowering step when bit k-1-j of i is set.  The words are
    scanned letter by letter in blocks of at most 2^14, carrying each
    word's running score (+1 per raising, -1 per lowering) and its
    largest prefix sum so far; then
        m_plus = max(0, largest prefix sum),  m_minus = m_plus - total,
    while nu_plus counts the raising letters directly, independently of
    the normal form.  All values fit in int8 for k <= 22.
    """
    _check_enumerable(k)
    n_words = 2**k
    m_plus = np.empty(n_words, dtype=np.int8)
    m_minus = np.empty(n_words, dtype=np.int8)
    nu = np.empty(n_words, dtype=np.int8)
    block = min(n_words, _BLOCK_WORDS)
    for start in range(0, n_words, block):
        index = np.arange(start, start + block, dtype=np.int32)
        total = np.zeros(block, dtype=np.int8)
        top = np.zeros(block, dtype=np.int8)
        raised = np.zeros(block, dtype=np.int8)
        for bit in range(k - 1, -1, -1):
            raising = ((index >> bit) & 1) == 0
            total += np.where(raising, np.int8(PLUS), np.int8(MINUS))
            np.maximum(top, total, out=top)
            raised += raising
        m_plus[start : start + block] = top
        m_minus[start : start + block] = top - total
        nu[start : start + block] = raised
    return NormalFormArrays(m_plus=m_plus, m_minus=m_minus, nu_plus=nu)


def enumerate_theta_class(k: int, m_plus: int, m_minus: int) -> Iterator[SignWord]:
    """Words of length k whose normal order is (m_plus, m_minus)."""
    target = NormalForm(m_plus, m_minus)
    return (w for w in all_sign_words(k) if normal_order(w) == target)


def brute_force_theta(k: int, m_plus: int, m_minus: int) -> int:
    """Count, by exhaustive enumeration, the words counted by theta_count.

    Independent oracle for the closed formula: for k - m_plus - m_minus
    = 2p >= 0, brute_force_theta(k, m_plus, m_minus) equals
    theta_count(m_plus, m_minus, p); it is 0 for unreachable targets.
    """
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
    if m_plus < 0 or m_minus < 0 or p < 0:
        raise ValueError("arguments must be non-negative")
    return p + m_plus
