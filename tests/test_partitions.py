import math
from itertools import product

import pytest

from brute import count_exact_length, dominates, enumerate_partitions_recursive
from wkintersect.cli import _count_exact_length
from wkintersect.pengine import r_max
from wkintersect.partitions import (
    count_partitions,
    enumerate_partitions,
    format_partition,
    hook_numbers,
    parse_partition,
    partition_class,
    ptrim,
    transpose,
    z_factor,
)


def all_partitions(d):
    return list(enumerate_partitions(d, d if d else 1))


def test_z_factor_examples():
    assert z_factor((), 3) == 6
    assert z_factor((1, 1), 3) == 2
    assert z_factor((2, 1), 3) == 1


def test_dominates_examples():
    assert dominates((2,), (1, 1))
    assert not dominates((1, 1), (2,))
    assert dominates((3, 1), (3, 1))
    assert not dominates((2, 1), (2,))  # unequal weights compare False


def test_dominance_is_partial_order():
    for d in range(0, 11):
        parts = all_partitions(d)
        for lam in parts:
            assert dominates(lam, lam)
        for lam, mu in product(parts, parts):
            if dominates(lam, mu) and dominates(mu, lam):
                assert lam == mu
        for lam, mu, nu in product(parts, parts, parts):
            if dominates(lam, mu) and dominates(mu, nu):
                assert dominates(lam, nu)


def test_dominance_transpose_duality():
    for d in range(0, 11):
        parts = all_partitions(d)
        for lam, mu in product(parts, parts):
            assert dominates(lam, mu) == dominates(transpose(mu), transpose(lam))


def test_hook_numbers():
    assert hook_numbers((), 3) == (2, 1, 0)
    assert hook_numbers((3, 1), 3) == (5, 2, 0)
    for d in range(0, 9):
        for n in range(1, 5):
            for lam in enumerate_partitions(d, n):
                L = hook_numbers(lam, n)
                assert all(L[i] > L[i + 1] for i in range(n - 1))
                assert L[-1] >= 0


def test_transpose():
    assert transpose((3, 1)) == (2, 1, 1)
    assert transpose((1, 1, 1)) == (3,)
    assert transpose((2, 2)) == (2, 2)
    for d in range(0, 11):
        for lam in all_partitions(d):
            assert transpose(transpose(lam)) == lam


def test_enumeration_order_and_constraints():
    assert list(enumerate_partitions(3, 3)) == [(3,), (2, 1), (1, 1, 1)]
    assert list(enumerate_partitions(4, 2)) == [(4,), (3, 1), (2, 2)]
    assert list(enumerate_partitions(0, 3)) == [()]
    assert list(enumerate_partitions(5, 3, max_part=2)) == [(2, 2, 1)]


def _brute(d, rows, cap):
    if d == 0:
        return 1
    if rows == 0 or cap == 0:
        return 0
    total = 0
    for first in range(min(cap, d), 0, -1):
        total += _brute(d - first, rows - 1, first)
    return total


def test_enumeration_count_bound_and_brute_force():
    for d in range(0, 12):
        for n in range(1, 6):
            got = len(list(enumerate_partitions(d, n)))
            assert got == _brute(d, n, d)
            assert got <= math.factorial(d + n) // (math.factorial(n) * math.factorial(d))


def _caps(d):
    # every max_part up to d = 16, a spread of them beyond
    if d <= 16:
        return [None] + list(range(d + 2))
    return [None, 2, d // 3, d // 2, d - 1]


def test_enumeration_matches_the_recursive_reference():
    # the one-list walk yields the reference's sequence under the bounds
    for d in range(31):
        for rows in range(9):
            for cap in _caps(d):
                got = list(enumerate_partitions(d, rows, cap))
                assert got == list(enumerate_partitions_recursive(d, rows, max_part=cap)), (
                    d, rows, cap)


def test_count_partitions_matches_the_enumeration():
    for d in range(41):
        for n in range(10):
            size = sum(1 for _ in enumerate_partitions(d, n))
            assert count_partitions(d, n, size) == size, (d, n)
            if size > 1:
                # past the limit only the excess is certain
                assert count_partitions(d, n, size - 1) > size - 1, (d, n)
    assert count_partitions(-1, 3, 10) == 0
    assert count_partitions(1497, 1500, 20000) > 20000


def test_enumeration_uniqueness():
    for d in range(0, 10):
        for n in range(1, 6):
            seq = list(enumerate_partitions(d, n))
            assert len(seq) == len(set(seq))
            assert seq == sorted(seq, reverse=True)
            for lam in seq:
                assert sum(lam) == d and len(lam) <= n


def test_partition_class_cached():
    assert partition_class(3, 3) == ((3,), (2, 1), (1, 1, 1))
    assert partition_class(3, 3) is partition_class(3, 3)


def test_text_forms():
    assert format_partition((3, 1)) == "3,1"
    assert format_partition(()) == "-"
    assert parse_partition("3,1") == (3, 1)
    assert parse_partition("-") == ()


def test_ptrim_validation():
    assert ptrim((3, 1, 0, 0)) == (3, 1)
    with pytest.raises(ValueError):
        ptrim((1, 2))
    with pytest.raises(ValueError):
        ptrim((1, -1))


def test_exact_length_count_matches_enumeration():
    # the `wk elo` "allowed" column: counted by recursion, checked against
    # the enumeration of every weight
    for n in range(1, 8):
        for r in range(r_max(n) + 1):
            assert _count_exact_length(n, r) == count_exact_length(n, r), (n, r)
