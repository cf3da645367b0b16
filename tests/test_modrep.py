import random

import numpy as np
import pytest

from liepowers.combinat import partitions
from liepowers.descent import (
    apply_place_permutation,
    element_action_matrix,
    lift_idempotents,
)
from liepowers.freelie import filtration_subspace, lie_power
from liepowers.linalg import Mat, Subspace, field, word_to_index
from liepowers.modrep import (
    TensorAction,
    _generates_gl,
    _raw_generators,
    generated_group_order,
    gl_generators,
    group_order_formula,
    induce_on_tensor_power,
    is_invariant,
    module_closure,
    primitive_root,
)


def test_gl2_f2_generator_matrices():
    gens = gl_generators(2, 2)
    assert len(gens) == 2
    assert gens[0].to_lists() == [[0, 1], [1, 0]]
    assert gens[1].to_lists() == [[1, 1], [0, 1]]


_GL_ORDERS = [
    (2, 2, 6),
    (2, 3, 48),
    (3, 2, 168),
    (3, 3, 11232),
    (4, 2, 20160),
    (2, 7, 2016),
]


@pytest.mark.parametrize("n,p,order", _GL_ORDERS)
def test_generated_group_orders(n, p, order):
    assert group_order_formula(n, p) == order
    assert generated_group_order(gl_generators(n, p)) == order


@pytest.mark.parametrize("n,p,order", _GL_ORDERS + [(1, 2, 1), (1, 5, 4)])
def test_generation_certificate_against_closure(n, p, order):
    # the closure is the oracle: the certificate accepts the generating
    # list, and rejects it without the transvection, a proper subgroup
    gens = _raw_generators(n, p)
    assert _generates_gl(gens, n, p)
    assert generated_group_order(gens) == order
    if n > 1:
        rest = gens[:1] + gens[2:]
        assert not _generates_gl(rest, n, p)
        assert generated_group_order(rest) < order


@pytest.mark.parametrize("n,p", [(5, 2), (6, 5), (8, 3)])
def test_generation_certificate_past_the_closure(n, p):
    # |GL(5, 2)| is about 10^7 and the others are far larger
    assert len(gl_generators(n, p)) == (2 if p == 2 else 3)
    cycle, trans = _raw_generators(n, p)[:2]
    assert not _generates_gl([cycle, cycle] + _raw_generators(n, p)[2:], n, p)
    assert not _generates_gl([trans, trans] + _raw_generators(n, p)[2:], n, p)


@pytest.mark.parametrize("n,p", [(3, 3), (4, 2), (2, 7), (8, 3)])
def test_generated_subgroup_orders(n, p):
    # (8, 3): 3^64 overflows int64, so the closure keys by Python ints
    cycle, trans = gl_generators(n, p)[:2]
    assert generated_group_order([cycle]) == n
    assert generated_group_order([trans]) == p
    assert generated_group_order([cycle, cycle]) == n


def test_generated_group_order_limit():
    gens = gl_generators(3, 3)
    assert generated_group_order(gens, limit=11232) == 11232
    with pytest.raises(ArithmeticError, match="exceeds 11231"):
        generated_group_order(gens, limit=11231)
    with pytest.raises(ArithmeticError):
        generated_group_order(gens[:1], limit=2)


def test_gl1_is_cyclic():
    gens = gl_generators(1, 5)
    assert len(gens) == 1
    assert gens[0].to_lists() == [[2]]
    assert generated_group_order(gens) == 4 == group_order_formula(1, 5)


def test_primitive_roots():
    assert primitive_root(2) == 1
    assert primitive_root(3) == 2
    assert primitive_root(5) == 2
    assert primitive_root(7) == 3


def test_identity_action():
    act = induce_on_tensor_power([Mat.identity(2, 2)], 3)
    for v in [0, 1, 5, 255, 1 << 7]:
        assert act.apply(0, v) == v
    assert act.induced_matrix(0) == Mat.identity(2, 8)


def test_swap_exchanges_letters():
    act = induce_on_tensor_power(gl_generators(2, 2), 2)
    i12 = word_to_index((1, 2), 2)
    i21 = word_to_index((2, 1), 2)
    assert act.apply(0, 1 << i12) == 1 << i21
    assert act.apply(0, 1 << i21) == 1 << i12


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("r", [2, 3])
def test_induced_matrix_matches_apply(n, p, r):
    act = induce_on_tensor_power(gl_generators(n, p), r)
    rng = random.Random(11)
    dim = n ** r
    for gi in range(len(act.generators)):
        m = act.induced_matrix(gi)
        vecs = [[1 if i == j else 0 for i in range(dim)] for j in range(dim)]
        vecs += [[rng.randrange(p) for _ in range(dim)] for _ in range(5)]
        for v in vecs:
            got = act.apply(gi, v if p != 2 else sum(b << i for i, b in enumerate(v)))
            want = m.apply(v)
            if p == 2:
                assert got == sum(b << i for i, b in enumerate(want)) \
                    if isinstance(got, int) else got == want
            else:
                assert np.array_equal(np.asarray(got), np.asarray(want))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_batched_action_matches_induced_matrix(n, p):
    # the dense induced matrix is the oracle for both sides of the
    # matrix-free product, down to r = 0 and stacks of no rows
    rng = np.random.default_rng(10 * n + p)
    for r in range(6):
        act = induce_on_tensor_power(gl_generators(n, p), r)
        dim = n ** r
        for gi in range(len(act.generators)):
            g = act.induced_matrix(gi)
            for m in (0, 1, 5):
                rows = Mat.from_array(p, rng.integers(0, p, size=(m, dim)))
                assert act.times(gi, rows) == rows @ g
                cols = Mat.from_array(p, rng.integers(0, p, size=(dim, m)))
                assert act.times(gi, cols, left=True) == g @ cols


def test_batched_action_rejects_a_wrong_shape():
    with pytest.raises(ValueError, match="invertible"):
        induce_on_tensor_power([Mat.from_rows(2, [[1, 1], [1, 1]])], 1)
    act = induce_on_tensor_power(gl_generators(2, 3), 2)
    with pytest.raises(ValueError, match="shape/modulus"):
        act.times(0, Mat.identity(3, 3))
    with pytest.raises(ValueError, match="shape/modulus"):
        act.times(0, Mat.zeros(3, 4, 3), left=False)
    with pytest.raises(ValueError, match="shape/modulus"):
        act.times(0, Mat.identity(5, 4), left=True)


def test_tensor_kernel_reduces_before_int64_overflows():
    # 1030 terms of (p - 1)^2 exceed 2^63 for the largest usable prime, so
    # the kernel must reduce part-way through a column
    p, n = 94906249, 1030
    g = np.full((n, n), p - 1, dtype=np.int64)
    x = np.full((2, n), p - 1, dtype=np.int64)
    x[1, ::3] = 1
    got = field(p).tensor_times(x, g, n, 1)
    want = [[sum(int(a) * (p - 1) for a in row) % p] * n for row in x]
    assert got.tolist() == want


def test_action_is_multiplicative():
    g, h, _ = gl_generators(2, 3)
    act = TensorAction([g, h, g @ h], 3)
    rng = random.Random(5)
    for _ in range(10):
        v = [rng.randrange(3) for _ in range(8)]
        two_step = act.apply(1, act.apply(0, v))
        assert np.array_equal(np.asarray(two_step), np.asarray(act.apply(2, v)))


@pytest.mark.parametrize("p,n,rmax", [(2, 2, 6), (3, 2, 5), (2, 3, 4)])
def test_lie_power_invariant(p, n, rmax):
    gens = gl_generators(n, p)
    for r in range(1, rmax + 1):
        act = induce_on_tensor_power(gens, r)
        assert is_invariant(lie_power(p, n, r), act)


def test_module_closure_fixed_point():
    act = induce_on_tensor_power(gl_generators(2, 2), 3)
    lp = lie_power(2, 2, 3)
    assert module_closure(lp, act) == lp


def test_module_closure_of_a_single_word():
    act = induce_on_tensor_power(gl_generators(2, 2), 2)
    seed = Subspace.from_packed(2, 4, [1 << word_to_index((1, 2), 2)])
    closed = module_closure(seed, act)
    assert closed.dim == 4
    assert closed.contains_space(seed)


def test_module_closure_monotone():
    act = induce_on_tensor_power(gl_generators(2, 3), 3)
    rng = random.Random(23)
    for _ in range(5):
        vecs = [[rng.randrange(3) for _ in range(8)] for _ in range(2)]
        seed = Subspace.from_vectors(3, 8, vecs)
        closed = module_closure(seed, act)
        assert closed.contains_space(seed)
        assert is_invariant(closed, act)


@pytest.mark.parametrize("p,n,r", [(2, 2, 3), (3, 2, 3), (2, 3, 3)])
def test_substitution_commutes_with_place_permutations(p, n, r):
    act = induce_on_tensor_power(gl_generators(n, p), r)
    rng = random.Random(7)
    transpositions = []
    for i in range(r - 1):
        sig = list(range(1, r + 1))
        sig[i], sig[i + 1] = sig[i + 1], sig[i]
        transpositions.append(tuple(sig))
    dim = n ** r
    for _ in range(8):
        if p == 2:
            v = rng.randrange(1 << dim)
        else:
            v = np.array([rng.randrange(p) for _ in range(dim)], dtype=np.int64)
        for gi in range(len(act.generators)):
            for sig in transpositions:
                a = apply_place_permutation(p, n, r, act.apply(gi, v), sig)
                b = act.apply(gi, apply_place_permutation(p, n, r, v, sig))
                if p == 2:
                    assert a == b
                else:
                    assert np.array_equal(a, b)


def test_pbw_filtration_invariant():
    act = induce_on_tensor_power(gl_generators(2, 2), 4)
    for lam in partitions(4):
        assert is_invariant(filtration_subspace(2, 2, 4, lam), act)


@pytest.mark.parametrize("p,n,r", [(2, 2, 4), (3, 2, 3)])
def test_class_idempotent_images_invariant(p, n, r):
    act = induce_on_tensor_power(gl_generators(n, p), r)
    fam = lift_idempotents(r, p)
    for cls, e in fam.items():
        em = element_action_matrix(n, e)
        image = Subspace.from_packed(p, n ** r, em.packed_rows())
        assert is_invariant(image, act)
