"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per criterion.
"""

import itertools
import random
import time

from liepowers.combinat import (
    compositions,
    graded_witt_dims,
    higher_lie_dim,
    p_equivalence_classes,
    partitions,
    witt_dim,
    young_character,
)
from liepowers.decompose import (
    certify_decomposition,
    construct_B_family,
    prop35_check,
    split_tensor_power,
)
from liepowers.descent import (
    DescentElement,
    gr_action_check,
    lift_idempotents,
    multiply_permutation_oracle,
)
from liepowers.freelie import (
    lazard_pieces,
    lie_power,
    pbw_monomial_vector,
    pbw_monomials,
    symmetrize_extend,
    truncate_subspace,
)
from liepowers.linalg import Subspace


# a prime above every structure constant and character value these tests
# meet, so the descent algebra over GF(_Z) multiplies as over the integers
_Z = 94906249


def test_criterion_01_witt_pbw_bookkeeping():
    """Lie power dims, higher-Lie totals, and PBW factor dims."""
    start = time.monotonic()
    for p in (2, 3):
        for n in (2, 3):
            for r in range(1, 9):
                assert lie_power(p, n, r).dim == witt_dim(n, r)
                parts = sorted(partitions(r))
                total = 0
                vecs = []
                for lam in parts:
                    monos = pbw_monomials(n, lam)
                    assert len(monos) == higher_lie_dim(n, lam)
                    total += len(monos)
                    for mono in monos:
                        vecs.append(pbw_monomial_vector(p, n, mono))
                assert total == n ** r
                # joint independence makes every filtration factor dim
                # equal the count of monomials of that shape
                span = Subspace.from_vectors(p, n ** r, vecs)
                assert span.dim == n ** r
    assert time.monotonic() - start < 30


def test_criterion_02_descent_oracle_equivalence():
    """Structure constants against the group-algebra oracle."""
    start = time.monotonic()
    for r in range(1, 6):
        for a in compositions(r):
            for b in compositions(r):
                x = DescentElement.x_basis(r, _Z, a)
                y = DescentElement.x_basis(r, _Z, b)
                assert (x * y).as_permutation_counter() == \
                    multiply_permutation_oracle(x, y)
    rng = random.Random(6)
    comps6 = compositions(6)
    for _ in range(100):
        x = DescentElement.x_basis(6, _Z, rng.choice(comps6))
        y = DescentElement.x_basis(6, _Z, rng.choice(comps6))
        z = DescentElement.x_basis(6, _Z, rng.choice(comps6))
        assert (x * y) * z == x * (y * z)
    rng = random.Random(5)
    for _ in range(100):
        r = rng.randint(1, 5)
        comps = compositions(r)
        x = DescentElement.x_basis(r, _Z, rng.choice(comps))
        y = DescentElement.x_basis(r, _Z, rng.choice(comps))
        assert (x * y).c_map() == x.c_map() * y.c_map()
    assert time.monotonic() - start < 60


def _ordered_set_partitions(elems, sizes):
    if not sizes:
        yield ()
        return
    for combo in itertools.combinations(sorted(elems), sizes[0]):
        block = frozenset(combo)
        for tail in _ordered_set_partitions(elems - block, sizes[1:]):
            yield (block,) + tail


def _induced_character_oracle(nu, lam):
    """Count cosets of the parabolic of shape nu fixed by a permutation
    of cycle type lam, by direct enumeration."""
    r = sum(nu)
    perm = list(range(r))
    pos = 0
    for part in lam:
        cyc = list(range(pos, pos + part))
        for i, a in enumerate(cyc):
            perm[a] = cyc[(i + 1) % part]
        pos += part
    count = 0
    for blocks in _ordered_set_partitions(frozenset(range(r)), tuple(nu)):
        if all(frozenset(perm[x] for x in blk) == blk for blk in blocks):
            count += 1
    return count


def test_criterion_03_young_characters():
    """Block-assignment counts equal the induced-character oracle, and
    are constant mod p on p-classes."""
    start = time.monotonic()
    for r in range(1, 7):
        lams = partitions(r)
        for nu in compositions(r):
            for lam in lams:
                assert young_character(nu, lam) == \
                    _induced_character_oracle(nu, lam)
    for p in (2, 3, 5):
        for r in range(2, 7):
            for cls in p_equivalence_classes(r, p):
                members = sorted(cls.members)
                for nu in compositions(r):
                    vals = {young_character(nu, lam) % p for lam in members}
                    assert len(vals) == 1
    assert time.monotonic() - start < 60


def test_criterion_04_descent_action_on_lie_products():
    """The descent action on products of Lie elements agrees with the
    dealt-subword expansion."""
    for p in (2, 3):
        for r in range(1, 7):
            assert gr_action_check(p, 2, r, trials=50, seed=0)


def test_criterion_05_idempotent_families():
    """Complete orthogonal idempotent families with indicator images."""
    start = time.monotonic()
    for p in (2, 3):
        for r in range(1, 8):
            fam = lift_idempotents(r, p)
            items = list(fam.items())
            total = None
            for cls, e in items:
                assert e * e == e
                assert e.c_map().is_indicator(cls.members)
                total = e if total is None else total + e
            assert total == DescentElement.one(r, p)
            for i, (_, e) in enumerate(items):
                for j, (_, f) in enumerate(items):
                    if i != j:
                        assert (e * f).is_zero()
    assert time.monotonic() - start < 120


def test_criterion_06_filtration_theorem():
    """Class-summand splitting with verified chain dims everywhere."""
    start = time.monotonic()
    for p in (2, 3):
        for n in (2, 3):
            for r in range(2, 7):
                report = split_tensor_power(n, r, p)
                assert sum(report.summand_dims()) == n ** r
                for entry in report.entries:
                    assert entry.summand.dim == sum(entry.factor_dims)
                for cls in p_equivalence_classes(r, p):
                    assert prop35_check(n, r, p, cls)
    dims = sorted(split_tensor_power(2, 4, 2).summand_dims())
    assert dims == [4, 12]
    assert time.monotonic() - start < 300


def test_criterion_07_decomposition_flagship():
    """p=2, k=3, n=2 family through degree 12 with certificates."""
    start = time.monotonic()
    res = construct_B_family(2, 2, 3, 12)
    assert res.b_dims() == {3: 2, 6: 8, 9: 54, 12: 304}
    lower6 = [piece.dim for _, piece in res.degrees[6].lower]
    lower9 = [piece.dim for _, piece in res.degrees[9].lower]
    lower12 = [piece.dim for _, piece in res.degrees[12].lower]
    assert witt_dim(2, 6) == 9 == sum(lower6) + 8
    assert witt_dim(2, 9) == 56 == sum(lower9) + 54
    assert witt_dim(2, 12) == 335 == sum(lower12) + 304
    assert lower12 == [3, 28]
    report = certify_decomposition(res)
    assert report["ok"]
    assert time.monotonic() - start < 600


def test_criterion_08_decomposition_second_config():
    """p=3, k=2, n=2 family through degree 6."""
    start = time.monotonic()
    res = construct_B_family(2, 3, 2, 6)
    assert res.degrees[2].basis == lie_power(3, 2, 2)
    assert res.degrees[2].basis.dim == 1
    assert res.degrees[6].basis == lie_power(3, 2, 6)
    assert res.degrees[6].basis.dim == 9
    assert certify_decomposition(res)["ok"]
    assert time.monotonic() - start < 120


def test_criterion_09_lazard_elimination():
    """Free-Lie dimension bookkeeping under elimination, closed form
    and concrete pieces."""
    for b in range(0, 3):
        for c in range(0, 3):
            gens = {m + 1: c * b ** m for m in range(6)}
            gens = {d: g for d, g in gens.items() if g}
            tail = graded_witt_dims(gens, 6) if gens else {}
            for d in range(1, 7):
                assert witt_dim(b + c, d) == \
                    witt_dim(b, d) + tail.get(d, 0)
    for p in (2, 3):
        units2 = list(lie_power(p, 2, 1).packed_rows())
        pieces = lazard_pieces(p, 2, 1, [units2[1]], 1, [units2[0]], 6)
        for m, piece in pieces.items():
            assert piece.dim == 1
        units3 = list(lie_power(p, 3, 1).packed_rows())
        pieces = lazard_pieces(p, 3, 1, units3[1:], 1, units3[:1], 5)
        for m, piece in pieces.items():
            assert piece.dim == 2
        pieces = lazard_pieces(p, 3, 1, units3[2:], 1, units3[:2], 5)
        for m, piece in pieces.items():
            assert piece.dim == 2 ** m


def test_criterion_10_truncation_extension():
    """Symmetrized extension then truncation is the identity, and the
    rank-3 family truncates onto the rank-2 family."""
    for p in (2, 3):
        for r in range(1, 5):
            lie = lie_power(p, 2, r)
            ext = symmetrize_extend(lie, 2, 3, r)
            assert truncate_subspace(ext, 3, 2, r) == lie
            report = split_tensor_power(2, r, p)
            for entry in report.entries:
                summand = entry.summand
                ext = symmetrize_extend(summand, 2, 3, r)
                assert truncate_subspace(ext, 3, 2, r) == summand
    res3 = construct_B_family(3, 2, 3, 6)
    res2 = construct_B_family(2, 2, 3, 6)
    for q in (3, 6):
        assert truncate_subspace(res3.degrees[q].basis, 3, 2, q) == \
            res2.degrees[q].basis
    assert certify_decomposition(res3, companion=res2)["ok"]
