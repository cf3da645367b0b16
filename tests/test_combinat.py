import math
from collections import Counter
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from liepowers.combinat import (
    ClassFunction,
    class_of_partition,
    compositions,
    higher_lie_dim,
    mobius,
    next_partition,
    p_equivalence_classes,
    partitions,
    stabilized_type,
    witt_dim,
    young_character,
)


def test_partition_counts():
    # 1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77
    counts = [len(partitions(r)) for r in range(13)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def test_partitions_shape_and_order():
    ps = partitions(4)
    assert ps == ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))
    for lam in partitions(7):
        assert sum(lam) == 7
        assert all(a >= b for a, b in zip(lam, lam[1:]))
    assert sorted(ps) == list(ps)


def test_compositions_count_and_distinct():
    for r in range(1, 9):
        cs = compositions(r)
        assert len(cs) == 2 ** (r - 1)
        assert len(set(cs)) == len(cs)
        assert all(sum(c) == r and all(x > 0 for x in c) for c in cs)


def test_lex_and_successor():
    assert next_partition((1, 1, 1, 1)) == (2, 1, 1)
    assert next_partition((3, 1)) == (4,)
    assert next_partition((4,)) is None


def test_mobius_values():
    assert [mobius(k) for k in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def _brute_lyndon_count(n, r):
    cnt = 0
    for w in product(range(n), repeat=r):
        rots = [w[i:] + w[:i] for i in range(r)]
        if all(w < rot for rot in rots[1:]):
            cnt += 1
    return cnt


def test_witt_dim_against_brute_lyndon():
    for n in (2, 3):
        for r in range(1, 8):
            assert witt_dim(n, r) == _brute_lyndon_count(n, r)


def test_witt_dim_frozen_values():
    assert witt_dim(2, 3) == 2
    assert witt_dim(2, 6) == 9
    assert witt_dim(2, 9) == 56
    assert witt_dim(2, 12) == 335
    assert witt_dim(3, 6) == 116
    assert witt_dim(3, 8) == 810


def test_higher_lie_dims_sum_to_tensor_dim():
    for n in (2, 3):
        for r in range(1, 9):
            assert sum(higher_lie_dim(n, lam) for lam in partitions(r)) == n ** r


def test_higher_lie_dim_values():
    # n=2, r=4 along ascending lex
    vals = [higher_lie_dim(2, lam) for lam in partitions(4)]
    assert vals == [5, 3, 1, 4, 3]
    assert higher_lie_dim(2, (12,)) == 335
    assert higher_lie_dim(2, (6, 3, 3)) == witt_dim(2, 6) * math.comb(2 + 1, 2)


def test_young_character_small_table():
    # r = 3: induced-from-Young-subgroup permutation characters
    classes = [(1, 1, 1), (2, 1), (3,)]
    table = {
        (3,): [1, 1, 1],
        (2, 1): [3, 1, 0],
        (1, 1, 1): [6, 0, 0],
    }
    for nu, want in table.items():
        assert [young_character(nu, lam) for lam in classes] == want


def test_young_character_identity_value_is_multinomial():
    for r in (4, 5, 6):
        for nu in compositions(r):
            denom = 1
            for part in nu:
                denom *= math.factorial(part)
            assert young_character(nu, (1,) * r) == math.factorial(r) // denom


def test_young_character_order_insensitive_in_nu():
    # induced characters only depend on the multiset of block sizes
    assert young_character((1, 2, 1), (2, 1, 1)) == young_character((2, 1, 1), (2, 1, 1))
    for lam in partitions(5):
        assert young_character((2, 3), lam) == young_character((3, 2), lam)


def test_count_block_assignments_edge_cases():
    # the block-assignment counts are read through young_character
    assert young_character((), ()) == 1
    assert young_character((2,), (1, 1)) == 1
    assert young_character((1, 1), (2,)) == 0
    assert young_character((4, 2), (2, 2, 2)) == 3
    # zero parts, empty shapes and mismatched sizes
    assert young_character((0, 2), (2,)) == 1
    assert young_character((), (1,)) == 0
    assert young_character((3,), (1, 1)) == 0


@lru_cache(maxsize=None)
def _count_block_assignments(nu, mu):
    """Number of ways to deal the parts of mu (equal parts
    distinguishable) onto ordered blocks with sums nu, by recursion on
    the first block."""
    mu = tuple(sorted(mu, reverse=True))
    if not nu:
        return 1 if not mu else 0
    if sum(nu) != sum(mu):
        return 0
    mult = Counter(mu)
    sizes = sorted(mult)
    total = 0

    def choose(i, remaining, ways, taken):
        nonlocal total
        if remaining == 0:
            rest = []
            for s in sizes:
                rest.extend([s] * (mult[s] - taken.get(s, 0)))
            total += ways * _count_block_assignments(nu[1:], tuple(rest))
            return
        if i == len(sizes):
            return
        s = sizes[i]
        for k in range(min(mult[s], remaining // s) + 1):
            taken[s] = k
            choose(i + 1, remaining - k * s, ways * math.comb(mult[s], k),
                   taken)
        taken.pop(s, None)

    choose(0, nu[0], 1, {})
    return total


def test_young_character_matches_block_assignment_recursion():
    for r in range(11):
        for nu in partitions(r):
            for lam in partitions(r):
                assert young_character(nu, lam) == \
                    _count_block_assignments(nu, lam), (nu, lam)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7))
def test_young_character_nonnegative_int(r):
    for nu in partitions(r):
        for lam in partitions(r):
            v = young_character(nu, lam)
            assert isinstance(v, int) and v >= 0


def test_class_function_ops():
    f = ClassFunction(3, {(3,): 1, (1, 1, 1): 2})
    g = ClassFunction(3, {(3,): 1})
    assert (f - g).values == {(1, 1, 1): 2}
    assert (f + g)((3,)) == 2
    assert (f * g).values == {(3,): 1}
    assert f.scale(3).reduce_mod(3).values == {}
    assert ClassFunction(3, {(2, 1): 1}).is_indicator([(2, 1)])
    assert not f.is_indicator([(3,)])


def test_stabilized_type():
    assert stabilized_type((4,), 2) == (1, 1, 1, 1)
    assert stabilized_type((6,), 2) == (3, 3)
    assert stabilized_type((12,), 2) == (3, 3, 3, 3)
    assert stabilized_type((3,), 3) == (1, 1, 1)
    assert stabilized_type((6, 3), 3) == (2, 2, 2, 1, 1, 1)
    assert stabilized_type((9,), 2) == (9,)
    # no part of a stabilized type is divisible by p
    for lam in partitions(8):
        for p in (2, 3):
            assert all(part % p for part in stabilized_type(lam, p))


def test_p_classes_r4_p2():
    cls = p_equivalence_classes(4, 2)
    assert len(cls) == 2
    assert cls[0].members == ((1, 1, 1, 1), (2, 1, 1), (2, 2), (4,))
    assert cls[1].members == ((3, 1),)
    assert (2, 2) in cls[0]
    assert (3, 1) not in cls[0]


def test_p_classes_r3_p3():
    cls = p_equivalence_classes(3, 3)
    assert [c.members for c in cls] == [((1, 1, 1), (3,)), ((2, 1),)]


def test_class_of_twelve_p2():
    c = class_of_partition((12,), 2)
    assert set(c.members) == {(3, 3, 3, 3), (6, 3, 3), (6, 6), (12,)}
    assert c.stable == (3, 3, 3, 3)


def test_class_of_nine_p2_is_singleton():
    assert class_of_partition((9,), 2).members == ((9,),)


@pytest.mark.parametrize("lam", [(), (0,), (3, -1), (2.0,), ("2",)])
def test_class_of_partition_rejects_a_non_partition(lam):
    # no p-class holds these; a zero part would keep stabilized_type
    # dividing by p forever
    with pytest.raises(ValueError, match="not a partition"):
        class_of_partition(lam, 2)


def test_classes_partition_the_partitions():
    for r, p in ((5, 2), (6, 2), (6, 3), (7, 5)):
        cls = p_equivalence_classes(r, p)
        seen = []
        for c in cls:
            seen.extend(c.members)
        assert sorted(seen) == sorted(partitions(r))
        # ordering by smallest member
        smalls = [c.smallest for c in cls]
        assert smalls == sorted(smalls)


def test_class_indicator():
    c = p_equivalence_classes(4, 2)[0]
    ind = ClassFunction(c.r, dict.fromkeys(c.members, 1))
    assert ind.is_indicator(c.members)
    assert ind((3, 1)) == 0
    assert ind((2, 2)) == 1
