"""Counting machinery: enumeration orders, cross-checked counts, lemmas."""

import math
from fractions import Fraction

import pytest

from homflypt import (
    InvalidRange,
    aut_order,
    multiplicities,
    ordered_decompositions,
    partitions,
    set_partitions,
    surjection_count,
    surjection_count_enumerated,
    surjection_count_partition_form,
    verify_lemma,
    verify_partition_identity,
)


class TestPartitions:
    def test_small(self):
        assert list(partitions(1)) == [(1,)]
        assert list(partitions(3)) == [(3,), (2, 1), (1, 1, 1)]

    def test_count_m10(self):
        assert sum(1 for _ in partitions(10)) == 42

    def test_counts_match_dp_oracle(self):
        # independent oracle: p(m, k) = partitions of m with parts <= k
        def p(m, k):
            if m == 0:
                return 1
            if m < 0 or k == 0:
                return 0
            return p(m - k, k) + p(m, k - 1)

        for m in range(1, 13):
            assert sum(1 for _ in partitions(m)) == p(m, m)

    def test_all_distinct_and_sorted(self):
        for m in range(1, 9):
            seen = set()
            for parts in partitions(m):
                assert sum(parts) == m
                assert list(parts) == sorted(parts, reverse=True)
                assert parts not in seen
                seen.add(parts)

    def test_invalid(self):
        with pytest.raises(InvalidRange):
            list(partitions(0))


class TestAut:
    def test_examples(self):
        assert aut_order((2, 2, 1)) == 2
        assert aut_order((1, 1, 1, 1)) == 24
        assert aut_order((5,)) == 1

    def test_multiplicities(self):
        assert multiplicities((3, 2, 2, 1)) == {3: 1, 2: 2, 1: 1}


class TestOrderedDecompositions:
    def test_m2_n2(self):
        assert list(ordered_decompositions(2, 2)) == [((1,), (2,)), ((2,), (1,))]

    def test_m3_n2_count(self):
        assert sum(1 for _ in ordered_decompositions(3, 2)) == 6

    def test_m3_n3_is_singleton_permutations(self):
        decs = list(ordered_decompositions(3, 3))
        assert len(decs) == 6
        assert all(all(len(block) == 1 for block in dec) for dec in decs)

    def test_blocks_disjoint_cover(self):
        for m, n in [(4, 2), (5, 3), (6, 4)]:
            for blocks in ordered_decompositions(m, n):
                assert all(blocks)
                merged = sorted(x for block in blocks for x in block)
                assert merged == list(range(1, m + 1))

    def test_lexicographic_assignment_order(self):
        # first decomposition of (3, 2) corresponds to assignment (0, 0, 1)
        first = next(iter(ordered_decompositions(3, 2)))
        assert first == ((1, 2), (3,))

    def test_invalid(self):
        with pytest.raises(InvalidRange):
            list(ordered_decompositions(2, 3))
        with pytest.raises(InvalidRange):
            list(ordered_decompositions(0, 1))


class TestSetPartitions:
    def test_bell_counts(self):
        bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
        for m, expected in enumerate(bell):
            assert sum(1 for _ in set_partitions(range(m))) == expected

    def test_blocks_sorted_by_first_element(self):
        for blocks in set_partitions(range(4)):
            firsts = [block[0] for block in blocks]
            assert firsts == sorted(firsts)


class TestSurjectionCounts:
    def test_examples(self):
        assert surjection_count(2, 2) == 2
        assert surjection_count(3, 2) == 6
        assert surjection_count(7, 1) == 1
        assert surjection_count(3, 5) == 0

    def test_iterator_agreement_small(self):
        # exhaustive against the iterator for every m <= 8
        for m in range(1, 9):
            for n in range(1, m + 1):
                count = sum(1 for _ in ordered_decompositions(m, n))
                assert count == surjection_count(m, n)

    @pytest.mark.parametrize("m,n", [(9, 2), (9, 3), (10, 2), (10, 3)])
    def test_iterator_agreement_spot_checks(self, m, n):
        assert sum(1 for _ in ordered_decompositions(m, n)) == surjection_count(m, n)

    def test_enumerated_structures_agree_up_to_m10(self):
        # full m <= 10 coverage through explicit set-partition enumeration
        for m in range(1, 11):
            for n in range(1, m + 1):
                assert surjection_count_enumerated(m, n) == surjection_count(m, n)

    def test_partition_closed_form_agrees(self):
        for m in range(1, 11):
            for n in range(1, m + 1):
                assert surjection_count_partition_form(m, n) == surjection_count(m, n)

    def test_invalid(self):
        with pytest.raises(InvalidRange):
            surjection_count(0, 1)


class TestLemmas:
    def test_51_examples(self):
        report = verify_lemma("5.1", 2)
        assert report.passed
        assert report.lhs == Fraction(1)

    def test_51_range(self):
        for m in range(2, 11):
            assert verify_lemma("5.1", m).passed

    def test_52_range(self):
        for m in range(3, 11):
            assert verify_lemma("5.2", m).passed

    def test_53_examples_and_range(self):
        report = verify_lemma("5.3", 1)
        assert report.passed and report.lhs == -1
        for m in range(1, 11):
            assert verify_lemma("5.3", m).passed

    def test_54_example(self):
        report = verify_lemma("5.4", 3)
        assert report.passed
        assert report.lhs == 4

    def test_54_range(self):
        for n in range(2, 13):
            assert verify_lemma("5.4", n).passed

    def test_54_n1_fails_as_documented(self):
        report = verify_lemma("5.4", 1)
        assert not report.passed
        assert report.lhs == 1 and report.rhs == 2

    def test_two_paths_agree(self):
        for m in range(2, 9):
            report = verify_lemma("5.1", m)
            assert report.context["lhs_enumerated"] == report.context["lhs_closed_form"]

    def test_bad_ranges(self):
        with pytest.raises(InvalidRange):
            verify_lemma("5.1", 1)
        with pytest.raises(InvalidRange):
            verify_lemma("5.2", 2)
        with pytest.raises(InvalidRange):
            verify_lemma("9.9", 3)


class TestPartitionIdentity:
    def test_m2_term_by_hand(self):
        # only (1,1) contributes: (1/2) * 2! * 2! / (1 * 1 * 2) = 1
        report = verify_partition_identity(2)
        assert report.passed and report.lhs == Fraction(1)

    def test_range(self):
        for m in range(2, 9):
            assert verify_partition_identity(m).passed

    def test_invalid(self):
        with pytest.raises(InvalidRange):
            verify_partition_identity(1)

    def test_lhs_is_the_explicit_partition_sum(self):
        # the oracle: every partition of m with at least two parts contributes
        # (-1)^len / len * len! * m! / (prod of part factorials * |Aut|); the
        # terms of one length are lemma 5.1's term at n = len
        for m in range(2, 12):
            by_length: dict[int, Fraction] = {}
            for parts in partitions(m):
                n = len(parts)
                if n < 2:
                    continue
                denom = aut_order(parts) * math.prod(math.factorial(p) for p in parts)
                term = Fraction((-1) ** n, n) * math.factorial(n) * math.factorial(m) / denom
                by_length[n] = by_length.get(n, Fraction(0)) + term
            for n, total in by_length.items():
                assert total == Fraction((-1) ** n, n) * surjection_count_partition_form(m, n)
            assert verify_partition_identity(m).lhs == sum(by_length.values()), m


class TestFullOrderedAccumulation:
    def test_lemma51_by_raw_iteration(self):
        # a third route for small m: accumulate over every ordered
        # decomposition one by one
        for m in range(2, 8):
            total = Fraction(0)
            for n in range(2, m + 1):
                for _ in ordered_decompositions(m, n):
                    total += Fraction((-1) ** n, n)
            assert total == 1
