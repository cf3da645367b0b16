import math
import operator
import random
from collections import Counter
from itertools import product as iter_product

import numpy as np
import pytest

from liepowers.combinat import (
    class_of_partition,
    compositions,
    next_partition,
    p_equivalence_classes,
    partitions,
    young_character,
)
from liepowers.descent import (
    DescentElement,
    _assemble,
    _newton_lift,
    class_projector,
    element_action_matrix,
    gr_action_check,
    lift_idempotents,
    lift_matrix_idempotent,
    multiply_permutation_oracle,
    solve_class_indicator,
    x_action_matrix,
    xnu_as_permutation_sum,
)
from liepowers.freelie import (
    concat_packed,
    filtration_subspace,
    lie_power,
    pbw_monomial_vector,
)
from liepowers.linalg import Mat, rref
from oracles import Tensor, apply_place_permutation, lie_element


# a prime above every structure constant and character value these tests
# meet, so the descent algebra over GF(_Z) multiplies as over the integers
_Z = 94906249


def test_xnu_permutations_small():
    assert set(xnu_as_permutation_sum((1, 2))) == {
        (1, 2, 3), (2, 1, 3), (3, 1, 2)}
    assert set(xnu_as_permutation_sum((2, 1))) == {
        (1, 2, 3), (1, 3, 2), (2, 3, 1)}
    assert xnu_as_permutation_sum((3,)) == ((1, 2, 3),)


def test_xnu_permutations_are_descent_sets():
    # X^nu is exactly the permutations with descents inside the partial sums
    for nu in compositions(5):
        sums = set()
        t = 0
        for c in nu[:-1]:
            t += c
            sums.add(t)
        got = set(xnu_as_permutation_sum(nu))
        assert len(got) == math.factorial(5) // math.prod(
            math.factorial(c) for c in nu)
        for sigma in got:
            des = {i + 1 for i in range(4) if sigma[i] > sigma[i + 1]}
            assert des <= sums
        # and every permutation with that descent property appears
        from itertools import permutations as allperms
        want = set()
        for sigma in allperms(range(1, 6)):
            des = {i + 1 for i in range(4) if sigma[i] > sigma[i + 1]}
            if des <= sums:
                want.add(sigma)
        assert got == want


def test_x_product_pinned_example():
    a = DescentElement.x_basis(3, _Z, (1, 2))
    b = DescentElement.x_basis(3, _Z, (2, 1))
    prod = a * b
    assert prod.coeffs == {(1, 1, 1): 1, (2, 1): 1}


def test_x_product_matches_group_algebra_rank_le_4():
    for r in (2, 3, 4):
        comps = compositions(r)
        for ca in comps:
            for cb in comps:
                a = DescentElement.x_basis(r, _Z, ca)
                b = DescentElement.x_basis(r, _Z, cb)
                got = (a * b).as_permutation_counter()
                want = multiply_permutation_oracle(a, b)
                assert got == want, (ca, cb)


def test_x_product_matches_group_algebra_rank_6_up_to_3_parts():
    comps = [c for c in compositions(6) if len(c) <= 3]
    assert len(comps) == 16
    for ca in comps:
        for cb in comps:
            a = DescentElement.x_basis(6, _Z, ca)
            b = DescentElement.x_basis(6, _Z, cb)
            assert (a * b).as_permutation_counter() == \
                multiply_permutation_oracle(a, b), (ca, cb)


def test_x_product_rank_7_is_associative_and_multiplicative():
    # rank 7 is past the permutation oracles of these tests; the product
    # rule is checked against the character map and against itself
    r = 7
    rng = random.Random(7)
    comps = compositions(r)

    def element():
        return DescentElement(r, _Z, {
            comps[rng.randrange(len(comps))]: rng.randrange(1, 5)
            for _ in range(2)})

    for _ in range(20):
        a, b, c = element(), element(), element()
        assert (a * b).c_map() == (a.c_map() * b.c_map()).reduce_mod(_Z)
        assert (a * b) * c == a * (b * c)


def test_x_product_identity_and_associativity():
    r = 5
    rng = random.Random(3)
    comps = compositions(r)
    one = DescentElement.one(r, _Z)
    for _ in range(10):
        ca, cb, cc = (comps[rng.randrange(len(comps))] for _ in range(3))
        a = DescentElement.x_basis(r, _Z, ca)
        b = DescentElement.x_basis(r, _Z, cb)
        c = DescentElement.x_basis(r, _Z, cc)
        assert one * a == a * one == a
        assert (a * b) * c == a * (b * c)


def test_c_map_values_and_multiplicativity():
    r = 4
    rng = random.Random(5)
    comps = compositions(r)
    for nu in comps:
        x = DescentElement.x_basis(r, _Z, nu)
        cm = x.c_map()
        for lam in partitions(r):
            assert cm(lam) == young_character(nu, lam)
    for p in (2, 3):
        for _ in range(20):
            a = DescentElement(r, p, {
                comps[rng.randrange(len(comps))]: rng.randrange(1, p)
                for _ in range(3)})
            b = DescentElement(r, p, {
                comps[rng.randrange(len(comps))]: rng.randrange(1, p)
                for _ in range(3)})
            assert (a * b).c_map() == (a.c_map() * b.c_map()).reduce_mod(p)


def test_action_matrix_matches_permutation_expansion():
    for p, n, r in iter_product((2, 3), (2, 3), (2, 3, 4)):
        N = n ** r
        for nu in compositions(r):
            mat = x_action_matrix(p, n, r, nu)
            perms = xnu_as_permutation_sum(nu)
            for i in range(N):
                if p == 2:
                    v = 1 << i
                    want = 0
                    for sigma in perms:
                        want ^= apply_place_permutation(p, n, r, v, sigma)
                    assert mat.apply(v) == want, (p, n, r, nu, i)
                else:
                    v = np.zeros(N, dtype=np.int64)
                    v[i] = 1
                    want = np.zeros(N, dtype=np.int64)
                    for sigma in perms:
                        want = (want + apply_place_permutation(
                            p, n, r, v, sigma)) % p
                    assert np.array_equal(mat.apply(v), want), (
                        p, n, r, nu, i)


def test_action_is_module_action():
    # acting by x then by y is the same as acting by x*y, tying the
    # product orientation to the operator composition order
    p, n, r = 3, 2, 4
    rng = random.Random(11)
    comps = compositions(r)
    for _ in range(10):
        ca = comps[rng.randrange(len(comps))]
        cb = comps[rng.randrange(len(comps))]
        x = DescentElement.x_basis(r, p, ca)
        y = DescentElement.x_basis(r, p, cb)
        v = np.array([rng.randrange(p) for _ in range(n ** r)],
                     dtype=np.int64)
        step = element_action_matrix(n, y).apply(
            element_action_matrix(n, x).apply(v))
        direct = element_action_matrix(n, x * y).apply(v)
        assert np.array_equal(step, direct)


def test_solve_class_indicator_r3_p2():
    classes = p_equivalence_classes(3, 2)
    assert [c.members for c in classes] == [((1, 1, 1), (2, 1)), ((3,),)]
    y = solve_class_indicator(3, 2, classes[0].members)
    assert y.c_map().is_indicator(classes[0].members)


@pytest.mark.parametrize("r,p", [(3, 2), (4, 2), (3, 3), (5, 3), (6, 2)])
def test_idempotent_families(r, p):
    fam = lift_idempotents(r, p)  # self-verifying constructor
    assert len(fam.classes) == len(p_equivalence_classes(r, p))
    total = DescentElement(r, p, {})
    for cl, e in fam:
        assert (e * e) == e
        assert e.c_map().is_indicator(cl.members)
        total = total + e
    assert total == DescentElement.one(r, p)


def test_idempotent_indicator_action_on_filtration():
    # e_J acts as identity on the PBW layer of a class member and sends
    # layers of other classes into later filtration steps
    p, n, r = 2, 2, 3
    fam = lift_idempotents(r, p)
    mats = {cl.smallest: element_action_matrix(n, e) for cl, e in fam}
    for lam in partitions(r):
        nxt = next_partition(lam)
        wnext = filtration_subspace(p, n, r, nxt) if nxt else None
        from liepowers.freelie import pbw_monomials
        for mono in pbw_monomials(n, lam):
            w = pbw_monomial_vector(p, n, mono)
            for cl, e in fam:
                img = mats[cl.smallest].apply(w)
                diff = img ^ w if lam in cl else img
                if wnext is None:
                    assert diff == 0, (lam, cl.smallest)
                else:
                    assert wnext.contains(diff), (lam, cl.smallest)


def test_matrix_lift_agrees_with_algebra_lift():
    # the idempotent part of y is a polynomial in y, so lifting the
    # action matrix of y lands exactly on the action matrix of the lifted
    # element, and so does lifting it one weight space at a time
    for n, p, r in ((2, 2, 4), (3, 3, 4)):
        classes = p_equivalence_classes(r, p)
        y = solve_class_indicator(r, p, classes[0].members)
        e = _newton_lift(y, p, operator.mul)
        got = lift_matrix_idempotent(element_action_matrix(n, y), p)
        want = element_action_matrix(n, e)
        assert got == want, (n, p, r)
        assert _assemble(p, n, r, class_projector(n, y)[0]) == want, (n, p, r)


def _expanded_action_matrix(n, elem):
    """The action matrix of a descent element summed over its permutation
    expansion, one place permutation of all words at a time."""
    from liepowers.linalg import _digit_table
    r = elem.r
    D = _digit_table(n, r)
    powers = n ** np.arange(r - 1, -1, -1)
    out = np.zeros((n ** r, n ** r), dtype=np.int64)
    for sigma, v in elem.as_permutation_counter().items():
        out[np.arange(n ** r), D[:, [s - 1 for s in sigma]] @ powers] += v
    return Mat.from_array(elem.p, out)


@pytest.mark.parametrize("n,p,r", [(2, 2, 6), (3, 2, 4), (3, 3, 4),
                                   (4, 2, 3)])
def test_class_projector_blocks_follow_letter_permutations(n, p, r,
                                                           monkeypatch):
    # the blocks at weights out of non-increasing order are spread from
    # the non-increasing ones, and must still be those of the lift of the
    # matrix summed over the permutation expansion
    from liepowers import descent
    from liepowers.linalg import _weight_blocks, rref
    unshuffle = descent._unshuffle_blocks
    top = []

    def counted(p_, n_, r_, c):
        out = unshuffle(p_, n_, r_, c)
        if r_ == r:
            top.append(sorted(out))
        return out

    monkeypatch.setattr(descent, "_unshuffle_blocks", counted)
    N = n ** r
    blocks = _weight_blocks(n, r)
    reps = sorted(alpha for alpha in blocks if list(alpha) == sorted(
        alpha, reverse=True))
    assert len(reps) < len(blocks)
    for cls in p_equivalence_classes(r, p):
        y = solve_class_indicator(r, p, sorted(cls.members))
        E, rank = class_projector(n, y)
        dense = _expanded_action_matrix(n, y)
        assert element_action_matrix(n, y) == dense, cls
        lifted = lift_matrix_idempotent(dense, p)
        assert _assemble(p, n, r, E) == lifted, cls
        assert set(E) == set(rank) == set(blocks)
        rows = lifted.packed_rows()
        for alpha, idx in blocks.items():
            block = Mat.from_packed(p, [rows[i] for i in idx], N).columns(idx)
            assert rank[alpha] == rref(block)[1], (cls, alpha)
            # the ranks are equal across an orbit of weights
            assert rank[alpha] == rank[tuple(sorted(alpha, reverse=True))]
        assert sum(rank.values()) == rref(lifted)[1]
    assert top and all(keys == reps for keys in top)


@pytest.mark.parametrize("n,p,r", [(2, 2, 6), (3, 2, 4), (3, 3, 4),
                                   (2, 2, 12)])
def test_class_projector_ranks_complement_the_kernels(n, p, r):
    # per weight, the class projector E_alpha of the one-part cycle type
    # is idempotent, so its kernel is the row space of I - E_alpha, and
    # the rank of E_alpha is the block size less that kernel's dimension
    y = solve_class_indicator(r, p, sorted(class_of_partition((r,),
                                                              p).members))
    E, rank = class_projector(n, y)
    for alpha, block in E.items():
        d = block.ncols
        kernel, dim = rref(Mat.identity(p, d) - block)
        assert kernel @ block == Mat.zeros(p, d, d)
        assert rank[alpha] == rref(block)[1] == d - dim
        assert rank[alpha] == rank[tuple(sorted(alpha, reverse=True))]


def test_lift_idempotents_is_cached():
    from liepowers.descent import _verify_family
    fam = lift_idempotents(5, 3)
    assert lift_idempotents(5, 3) is fam
    _verify_family(fam)


def test_descent_operators_make_no_full_size_products(monkeypatch):
    # every descent operator is block diagonal over the weight spaces, so
    # no product is larger than the largest one, C(10, 5) = 252 for n = 2
    from liepowers import descent, linalg
    for cached in (linalg._weight_blocks, descent._unshuffle_blocks,
                   descent._weight_orbits):
        cached.cache_clear()
    shapes = []
    matmul = Mat.__matmul__

    def counted(a, b):
        shapes.append((a.nrows, a.ncols, b.ncols))
        return matmul(a, b)

    monkeypatch.setattr(Mat, "__matmul__", counted)
    cls = next(c for c in p_equivalence_classes(10, 2) if (10,) in c)
    y = solve_class_indicator(10, 2, sorted(cls.members))
    E = _assemble(2, 2, 10, class_projector(2, y)[0])
    assert E.nrows == E.ncols == 2 ** 10
    assert shapes and max(max(shape) for shape in shapes) <= 252


def _unshuffle_reference(p, n, r, c):
    """The first-block unshuffle blocks as int64 cell arrays of whole
    blocks build them: cell i * d + j counts the position sets that send
    word i of a weight space to word j."""
    from itertools import combinations
    from liepowers import descent
    from liepowers.linalg import _digit_table, _weight_blocks
    pos = descent._positions(n, r)
    subsets = np.array(list(combinations(range(r), c)), dtype=np.intp)
    in_s = np.zeros((len(subsets), r), dtype=bool)
    in_s[np.arange(len(subsets))[:, None], subsets] = True
    slot = np.where(in_s, np.cumsum(in_s, axis=1) - 1,
                    c + np.cumsum(~in_s, axis=1) - 1)
    image = _digit_table(n, r) @ (n ** (r - 1 - slot)).T
    out = {}
    for alpha, (rep, _) in descent._weight_orbits(n, r).items():
        if alpha == rep:
            idx = _weight_blocks(n, r)[alpha]
            d = len(idx)
            cells = np.arange(d)[:, None] * d + pos[image[idx]]
            out[alpha] = Mat.from_array(p, np.bincount(
                cells.ravel(), minlength=d * d).reshape(d, d))
    return out


@pytest.mark.parametrize("n,r,p", [(2, 8, 2), (3, 6, 3), (2, 7, 5)])
def test_unshuffle_blocks_match_whole_block_cells(n, r, p, monkeypatch):
    # built in int32 a chunk of rows at a time, with the real chunk and
    # with one of a few rows
    from liepowers import descent
    for chunk in (descent._CHUNK, 64):
        monkeypatch.setattr(descent, "_CHUNK", chunk)
        descent._unshuffle_blocks.cache_clear()
        for c in range(1, r + 1):
            assert descent._unshuffle_blocks(p, n, r, c) == \
                _unshuffle_reference(p, n, r, c), (chunk, c)
    descent._unshuffle_blocks.cache_clear()


def test_dealt_sum_convention():
    # one block of degree 1 then one of degree 2, factors of degrees 2,1:
    # the only deal puts the degree-1 factor first
    from liepowers.descent import _dealt_sum
    p, n = 3, 2
    a = lie_element(p, n, (1, 2)).to_packed()     # degree 2
    b = Tensor.letter(p, n, 1).to_packed()        # degree 1
    got = _dealt_sum(p, n, (1, 2), [(2, a), (1, b)])
    want = concat_packed(p, n, 1, b, 2, a)
    assert np.array_equal(got, want)


def test_gr_action_check_runs():
    for p, n, r in ((2, 2, 4), (3, 2, 3)):
        count = gr_action_check(p, n, r, trials=4, seed=1)
        assert count == 4 * len(compositions(r))


def test_kills_lie_elements_in_finer_blocks():
    # X^(1,2) annihilates the degree-3 Lie elements (their type (3) is
    # lex-last, so the graded statement forces an exact zero)
    p, n, r = 2, 2, 3
    mat = x_action_matrix(p, n, r, (1, 2))
    for row in lie_power(p, n, r).packed_rows():
        assert mat.apply(row) == 0
