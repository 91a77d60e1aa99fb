from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semicircleqm import checks
from semicircleqm.combinatorics import (
    NormalForm,
    all_sign_words,
    brute_force_theta,
    catalan,
    enumerate_theta_class,
    normal_forms,
    normal_order,
    nu_plus,
    nu_plus_on_theta,
    prefix_normal_forms,
    sign_word_distribution,
    theta_count,
)
from semicircleqm.exceptions import EnumerationLimitError


def dyck_path_count(p):
    """Independent oracle: count lattice paths that never dip below zero."""

    def walk(pos, height):
        if pos == 2 * p:
            return 1 if height == 0 else 0
        total = walk(pos + 1, height + 1)
        if height > 0:
            total += walk(pos + 1, height - 1)
        return total

    return walk(0, 0)


class TestCatalan:
    def test_base_case(self):
        assert catalan(0) == 1

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7])
    def test_matches_dyck_path_enumeration(self, p):
        assert catalan(p) == dyck_path_count(p)

    def test_known_values(self):
        assert catalan(3) == 5
        assert catalan(5) == 42

    def test_range_guard(self):
        with pytest.raises(OverflowError):
            catalan(31)
        with pytest.raises(ValueError):
            catalan(-1)


class TestThetaCount:
    def test_empty_normal_form_is_catalan(self):
        assert theta_count(0, 0, 2) == 2
        for p in range(11):
            assert theta_count(0, 0, p) == catalan(p)

    @pytest.mark.parametrize("m,n", [(0, 0), (1, 0), (2, 5), (7, 3)])
    def test_no_cancellation_gives_one(self, m, n):
        assert theta_count(m, n, 0) == 1

    def test_single_cancellation(self):
        assert theta_count(1, 0, 1) == 2
        assert theta_count(1, 0, 1) == brute_force_theta(3, 1, 0)

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            theta_count(-1, 0, 0)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            theta_count(0, 0, 40)


class TestNormalOrder:
    def test_single_cancelling_pair(self):
        assert normal_order("-+") == NormalForm(0, 0)

    def test_empty_word(self):
        assert normal_order(()) == NormalForm(0, 0)

    def test_trailing_pair(self):
        assert normal_order("+-+") == NormalForm(1, 0)

    def test_already_normal(self):
        assert normal_order("++--") == NormalForm(2, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([1, -1]), max_size=18))
    def test_rewrite_order_independence(self, word):
        # reduce at the rightmost redex repeatedly; must agree with the
        # single left-to-right stack pass
        w = list(word)
        while True:
            redexes = [i for i in range(len(w) - 1) if w[i] == -1 and w[i + 1] == 1]
            if not redexes:
                break
            i = redexes[-1]
            del w[i : i + 2]
        m_plus = sum(1 for s in w if s == 1)
        assert normal_order(word) == NormalForm(m_plus, len(w) - m_plus)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([1, -1]), max_size=18))
    def test_result_is_normal_ordered(self, word):
        nf = normal_order(word)
        assert nf.m_plus >= 0 and nf.m_minus >= 0
        assert nf.m_plus + nf.m_minus <= len(word)
        assert (len(word) - nf.m_plus - nf.m_minus) % 2 == 0


class TestBruteForce:
    def test_identity_class_of_length_two(self):
        assert brute_force_theta(2, 0, 0) == 1

    def test_length_three(self):
        assert brute_force_theta(3, 1, 0) == 2

    def test_length_six_identity_is_catalan(self):
        assert brute_force_theta(6, 0, 0) == catalan(3)

    def test_enumeration_refusal(self):
        with pytest.raises(EnumerationLimitError):
            brute_force_theta(23, 0, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
    )
    def test_formula_matches_enumeration(self, k, m_plus, m_minus):
        count = brute_force_theta(k, m_plus, m_minus)
        reachable = m_plus + m_minus <= k and (k - m_plus - m_minus) % 2 == 0
        if reachable:
            p = (k - m_plus - m_minus) // 2
            assert count == theta_count(m_plus, m_minus, p)
        else:
            assert count == 0


class TestClassStructure:
    @pytest.mark.parametrize("k", range(0, 11))
    def test_classes_partition_all_words(self, k):
        hist = sign_word_distribution(k)
        assert sum(hist.values()) == 2**k

    def test_raising_count_formula(self):
        assert nu_plus_on_theta(0, 0, 4) == 4
        assert nu_plus_on_theta(2, 1, 0) == 2
        assert nu_plus_on_theta(1, 0, 3) == 4

    @pytest.mark.parametrize("k,m_plus,m_minus", [(7, 1, 0), (6, 2, 2), (8, 0, 2), (9, 3, 0)])
    def test_raising_count_constant_on_class(self, k, m_plus, m_minus):
        p = (k - m_plus - m_minus) // 2
        expected = nu_plus_on_theta(m_plus, m_minus, p)
        words = list(enumerate_theta_class(k, m_plus, m_minus))
        assert words, "class should be non-empty"
        assert all(nu_plus(w) == expected for w in words)

    def test_all_sign_words_count(self):
        assert sum(1 for _ in all_sign_words(5)) == 32


class TestNormalForms:
    @pytest.mark.parametrize("k", range(0, 13))
    def test_matches_stack_pass_on_every_word(self, k):
        forms = normal_forms(k)
        assert forms.m_plus.size == forms.m_minus.size == forms.nu_plus.size == 2**k
        for i, word in enumerate(all_sign_words(k)):
            nf = normal_order(word)
            assert (forms.m_plus[i], forms.m_minus[i]) == nf, (k, word)
            assert forms.nu_plus[i] == nu_plus(word), (k, word)

    def test_matches_stack_pass_where_the_first_letter_lowers(self):
        # word 2^14 of length 15 is the first whose first letter is a lowering step
        forms = normal_forms(15)
        start = 2**14 - 8
        for i, word in enumerate(islice(all_sign_words(15), start, start + 16), start):
            assert (forms.m_plus[i], forms.m_minus[i]) == normal_order(word)
            assert forms.nu_plus[i] == nu_plus(word)

    @pytest.mark.parametrize("k", [15, 16])
    def test_histogram_past_the_verify_lengths_equals_formula(self, k):
        assert checks.enumeration([k]) == (0, 0)

    @pytest.mark.parametrize("k", [0, 1, 7, 15])
    def test_prefix_scan_gives_every_shorter_length(self, k):
        prefixes = prefix_normal_forms(k)
        assert len(prefixes) == k + 1
        for j, forms in enumerate(prefixes):
            assert all(np.array_equal(got, want) for got, want in zip(forms, normal_forms(j))), j

    def test_compact_dtypes(self):
        forms = normal_forms(6)
        assert all(a.dtype == np.int8 for a in forms)

    def test_limits(self):
        with pytest.raises(EnumerationLimitError):
            normal_forms(23)
        with pytest.raises(ValueError):
            normal_forms(-1)
        with pytest.raises(EnumerationLimitError):
            prefix_normal_forms(23)
