from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liepowers.combinat import (
    graded_witt_dims,
    higher_lie_dim,
    partitions,
    witt_dim,
)
from liepowers.freelie import (
    Tensor,
    _rename,
    bracket_packed,
    bracket_products,
    concat_all,
    concat_packed,
    dynkin_matrix,
    filtration_subspace,
    lazard_pieces,
    lie_element,
    lie_power,
    lyndon_expansion,
    lyndon_packed,
    lyndon_words,
    pack_tensor,
    pbw_monomial_vector,
    pbw_monomials,
    standard_factorization,
    subalgebra_generated,
    symmetrize_extend,
    truncate_subspace,
    truncate_vector,
)
from liepowers.decompose import _by_weight
from liepowers.linalg import (
    Subspace,
    field,
    _weight_blocks,
    _weight_index,
    index_to_word,
    word_to_index,
    word_weight,
)


def test_lyndon_words_small():
    assert lyndon_words(2, 1) == ((1,), (2,))
    assert lyndon_words(2, 2) == ((1, 2),)
    assert lyndon_words(2, 3) == ((1, 1, 2), (1, 2, 2))
    assert lyndon_words(2, 4) == ((1, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 2))
    assert lyndon_words(3, 2) == ((1, 2), (1, 3), (2, 3))


def _is_lyndon(w):
    return all(w < w[i:] + w[:i] for i in range(1, len(w)))


def test_lyndon_words_counts_and_property():
    for n in (2, 3):
        for r in range(1, 8):
            ws = lyndon_words(n, r)
            assert len(ws) == witt_dim(n, r)
            assert list(ws) == sorted(ws)
            for w in ws:
                assert _is_lyndon(w)


def test_standard_factorization():
    assert standard_factorization((1, 2)) == ((1,), (2,))
    assert standard_factorization((1, 1, 2)) == ((1,), (1, 2))
    assert standard_factorization((1, 2, 2)) == ((1, 2), (2,))
    assert standard_factorization((1, 1, 2, 2)) == ((1,), (1, 2, 2))
    # both halves are again Lyndon
    for w in lyndon_words(2, 6) + lyndon_words(3, 5):
        u, v = standard_factorization(w)
        assert _is_lyndon(u) and _is_lyndon(v)
        assert u + v == w


def test_lyndon_expansion_triangular_unit_diagonal():
    # expansion = the word itself plus lex-larger rearrangements
    for n, r in ((2, 4), (2, 6), (3, 4)):
        for w in lyndon_words(n, r):
            exp = lyndon_expansion(n, w)
            assert exp[w] == 1
            for w2 in exp:
                assert sorted(w2) == sorted(w)
                assert w2 >= w


def test_lyndon_expansion_explicit():
    # [[1,2] bracketed] = 12 - 21
    assert lyndon_expansion(2, (1, 2)) == {(1, 2): 1, (2, 1): -1}
    # [1,[1,2]] = 112 - 121 - 121 + 211 wait: compute directly in the test
    e = lyndon_expansion(2, (1, 1, 2))
    assert e == {(1, 1, 2): 1, (1, 2, 1): -2, (2, 1, 1): 1}


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lyndon_packed_matches_the_integer_expansion(p, n):
    key = field(p).key
    for r in range(1, 13 if (p, n) == (2, 2) else 8):
        for w in lyndon_words(n, r):
            # the word itself is bracketed outside the memo, which would
            # otherwise keep every degree-7 row (300 MB at n = 4, p = 5)
            got = lyndon_packed.__wrapped__(p, n, w)
            assert key(got) == key(pack_tensor(p, n, r,
                                               lyndon_expansion(n, w)))


def test_lie_element_matches_tensor_bracket():
    p = 5
    x = Tensor.letter(p, 2, 1)
    y = Tensor.letter(p, 2, 2)
    assert lie_element(p, 2, (1, 2)) == x.bracket(y)
    assert lie_element(p, 2, (1, 1, 2)) == x.bracket(x.bracket(y))
    assert lie_element(p, 2, (1, 2, 2)) == x.bracket(y).bracket(y)


def test_char2_bracket_is_symmetric_product():
    x = Tensor.letter(2, 2, 1)
    y = Tensor.letter(2, 2, 2)
    assert x.bracket(y) == x * y + y * x


def test_lie_power_dims():
    for p in (2, 3):
        for n in (2, 3):
            for r in range(1, 7):
                assert lie_power(p, n, r).dim == witt_dim(n, r)


def test_lie_power_contains_brackets_of_members():
    p, n = 2, 2
    l2 = lie_power(p, n, 2)
    l3 = lie_power(p, n, 3)
    l5 = lie_power(p, n, 5)
    for v2 in l2.packed_rows():
        for v3 in l3.packed_rows():
            w = bracket_packed(p, n, 2, v2, 3, v3)
            assert l5.contains(w)


def test_concat_and_bracket_packed_match_tensor_ops():
    for p in (2, 3):
        a = lie_element(p, 2, (1, 2))
        b = lie_element(p, 2, (1, 1, 2))
        prod = a * b
        br = a.bracket(b)
        got_prod = concat_packed(p, 2, 2, a.to_packed(), 3, b.to_packed())
        got_br = bracket_packed(p, 2, 2, a.to_packed(), 3, b.to_packed())
        assert Tensor.from_packed(p, 2, 5, got_prod) == prod
        assert Tensor.from_packed(p, 2, 5, got_br) == br
        c = lie_element(p, 2, (1, 2, 2))
        got_all = concat_all(p, 2, [(2, a.to_packed()), (3, b.to_packed()),
                                    (3, c.to_packed())])
        assert Tensor.from_packed(p, 2, 8, got_all) == prod * c


def test_pbw_monomials_counts():
    # number of monomials of each type = higher Lie module dimension
    for n in (2, 3):
        for r in (3, 4, 5):
            for lam in partitions(r):
                assert len(pbw_monomials(n, lam)) == higher_lie_dim(n, lam)


def test_pbw_monomials_shape():
    ms = pbw_monomials(2, (2, 1, 1))
    for m in ms:
        assert sorted(len(w) for w in m) == [1, 1, 2]
        # factors sorted by (degree, word)
        assert list(m) == sorted(m, key=lambda w: (len(w), w))


def test_filtration_chain_dims():
    # consecutive quotients have the higher Lie dimensions; the top is the
    # Lie power, the bottom is the full tensor power
    for p, n, r in ((2, 2, 4), (2, 2, 6), (3, 2, 5), (2, 3, 4), (3, 3, 4)):
        ps = partitions(r)
        dims = [filtration_subspace(p, n, r, lam).dim for lam in ps]
        assert dims[0] == n ** r
        assert filtration_subspace(p, n, r, (r,)) == lie_power(p, n, r)
        for i, lam in enumerate(ps):
            upper = dims[i + 1] if i + 1 < len(ps) else 0
            assert dims[i] - upper == higher_lie_dim(n, lam)


@pytest.mark.parametrize("p,n,r", [(2, 2, 5), (3, 2, 4)])
def test_filtration_matches_products_of_integer_expansions(p, n, r):
    # the span of every PBW monomial of type >= lam, each a product of
    # lie_element tensors, which expand over the integers
    for lam in partitions(r):
        vecs = []
        for mu in partitions(r):
            if mu < lam:
                continue
            for mono in pbw_monomials(n, mu):
                t = lie_element(p, n, mono[0])
                for w in mono[1:]:
                    t = t * lie_element(p, n, w)
                vecs.append(t.to_packed())
        assert filtration_subspace(p, n, r, lam) == \
            Subspace.from_packed(p, n ** r, vecs)


def test_filtration_nested():
    p, n, r = 2, 2, 5
    ps = partitions(r)
    for a, b in zip(ps, ps[1:]):
        assert filtration_subspace(p, n, r, a).contains_space(
            filtration_subspace(p, n, r, b))


def test_filtration_straightening():
    # a product written in the wrong order stays inside the span for its
    # sorted type
    p, n = 3, 2
    a = lie_element(p, n, (1, 2))      # degree 2
    b = lie_element(p, n, (1, 1, 2))   # degree 3
    prod = b * a                       # factors out of order
    w = filtration_subspace(p, n, 5, (3, 2))
    assert w.contains(prod.to_packed())
    assert not lie_power(p, n, 5).contains(prod.to_packed())


def test_weight_component_dims_of_lie_power():
    # weights of L^4 over n=2: (3,1) and (1,3) give 1 each, (2,2) gives 1
    p, n, r = 2, 2, 4
    l4 = lie_power(p, n, r)
    parts = _by_weight(l4, n, r, "Lie power")
    assert parts[(3, 1)].nrows == 1
    assert parts[(2, 2)].nrows == 1
    assert parts[(1, 3)].nrows == 1
    assert l4.dim == 3


def test_weight_component_sums_to_space():
    p, n, r = 3, 2, 4
    s = lie_power(p, n, r)
    parts = _by_weight(s, n, r, "Lie power")
    assert sorted(parts) == [(a, r - a) for a in range(r + 1)]
    assert sum(rows.nrows for rows in parts.values()) == s.dim


def _labels(n, r):
    weights = list(_weight_blocks(n, r))
    return [weights[t] for t in _weight_index(n, r).tolist()]


def test_weight_labels_shape():
    labs = _labels(2, 3)
    assert len(labs) == 8
    assert labs[word_to_index((1, 1, 1), 2)] == (3, 0)
    assert labs[word_to_index((2, 1, 2), 2)] == (1, 2)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("r", [0, 1, 2, 3, 4, 5])
def test_weight_tables_match_word_weight(n, r):
    want = [word_weight(index_to_word(i, n, r), n) for i in range(n ** r)]
    assert _labels(n, r) == want
    blocks = _weight_blocks(n, r)
    assert list(blocks) == sorted(set(want))
    for alpha, idx in blocks.items():
        assert idx.tolist() == [i for i, w in enumerate(want) if w == alpha]
    assert (r + 1,) + (0,) * (n - 1) not in blocks


def test_lyndon_words_need_a_letter():
    for n in (0, -1):
        with pytest.raises(ValueError, match="at least one letter"):
            lyndon_words(n, 2)


def test_truncate_vector_and_subspace():
    p, r = 2, 3
    l3 = lie_power(p, 3, r)
    t = truncate_subspace(l3, 3, 2, r)
    # killing letter 3 maps the Lyndon basis onto the rank-2 one
    assert t == lie_power(p, 2, r)
    v = lie_element(p, 3, (1, 3, 3)).to_packed()
    assert truncate_vector(p, 3, 2, r, v) == 0
    w = lie_element(p, 3, (1, 1, 2)).to_packed()
    assert truncate_vector(p, 3, 2, r, w) == lie_element(p, 2, (1, 1, 2)).to_packed()


def test_truncate_vector_odd_p():
    v = lie_element(3, 3, (1, 2)).to_packed()
    got = truncate_vector(3, 3, 2, 2, v)
    assert np.array_equal(got, lie_element(3, 2, (1, 2)).to_packed())


def test_dynkin_word_expansion_explicit():
    # rho(1 2) = [1,2]; rho(2 1) = [2,1] = -[1,2]
    p, n = 7, 2
    d = dynkin_matrix(p, n, 2)
    assert Tensor.from_packed(p, n, 2, d.apply(
        Tensor.from_word(p, n, (1, 2)).to_packed())) == lie_element(p, n, (1, 2))
    assert Tensor.from_packed(p, n, 2, d.apply(
        Tensor.from_word(p, n, (2, 1)).to_packed())) == lie_element(p, n, (1, 2)).scale(-1)
    # rho(1 1 2) = [[1,1],2] = 0
    d3 = dynkin_matrix(p, n, 3)
    assert not any(d3.apply(Tensor.from_word(p, n, (1, 1, 2)).to_packed()))


def test_dynkin_squared_is_r_times_dynkin():
    for p, n, r in ((2, 2, 3), (3, 2, 4), (5, 2, 3), (3, 3, 3)):
        d = dynkin_matrix(p, n, r)
        assert (d @ d) == d.scale(r)


def test_dynkin_image_inside_lie_power():
    p, n, r = 3, 2, 4
    d = dynkin_matrix(p, n, r)
    lp = lie_power(p, n, r)
    for i in range(n ** r):
        row = d.row(i)
        assert lp.contains(row)


def test_dynkin_fixes_lie_power_up_to_r():
    # on L^r the left-normed bracketing multiplies by r
    for p, n, r in ((5, 2, 3), (3, 2, 4), (2, 2, 3)):
        d = dynkin_matrix(p, n, r)
        for v in lie_power(p, n, r).basis_rows():
            got = d.apply(list(v))
            want = [(r * a) % p for a in v]
            assert list(got) == want


def test_subalgebra_generated_free_case():
    # the letters generate the whole free Lie algebra
    for p, n in ((2, 2), (3, 2)):
        gens = {1: [Tensor.letter(p, n, a).to_packed() for a in range(1, n + 1)]}
        got = subalgebra_generated(p, n, gens, 6)
        for r in range(1, 7):
            assert got[r] == lie_power(p, n, r)


def test_subalgebra_generated_single_element():
    # one degree-2 generator spans a 1-dim abelian subalgebra: nothing in
    # degree 4 since [x,x] = 0
    p, n = 3, 2
    x = lie_element(p, n, (1, 2)).to_packed()
    got = subalgebra_generated(p, n, {2: [x]}, 8)
    assert set(got) == {2}
    assert got[2].dim == 1


def test_extend_then_truncate_roundtrip():
    p, r = 2, 3
    v = lie_element(p, 2, (1, 1, 2)).to_packed()
    w = _rename(p, 3, r, (1, 2), [v])[0]
    assert truncate_vector(p, 3, 2, r, w) == v
    # the extended vector lives on the same words, just re-indexed
    assert bin(w).count("1") == bin(v).count("1")


def test_symmetrize_extend_recovers_lie_power():
    # L^r is stable under permuting letters, so symmetrizing the r-letter
    # Lie power into more letters and truncating back is the identity
    for p, r in ((2, 3), (3, 3), (2, 4)):
        lp = lie_power(p, r, r)
        big = symmetrize_extend(lp, r, r + 1, r)
        back = truncate_subspace(big, r + 1, r, r)
        assert back == lp
        # and the symmetrization fills out the full Lie power upstairs
        assert big == lie_power(p, r + 1, r)


def test_symmetrize_extend_single_word_orbit():
    # span{v1 v1} in two letters symmetrizes to span{v1v1, v2v2, v3v3}
    p, r = 2, 2
    one = Subspace.from_packed(p, 4, [1])  # word (1,1) has index 0
    big = symmetrize_extend(one, 2, 3, r)
    assert big.dim == 3
    words = sorted(word_to_index(w, 3) for w in [(1, 1), (2, 2), (3, 3)])
    assert sorted(i for row in big.packed_rows()
                  for i in range(9) if row >> i & 1) == words


def test_lazard_pieces_letter_elimination():
    # eliminate the free factor generated by letter 1: pieces
    # [v2, v1, ..., v1] with m copies of v1 each have dimension 1, and
    # their degrees fill out the predicted generator degrees
    p, n = 2, 2
    x = [Tensor.letter(p, n, 2).to_packed()]
    b = [Tensor.letter(p, n, 1).to_packed()]
    pieces = lazard_pieces(p, n, 1, x, 1, b, 5)
    assert sorted(pieces) == [0, 1, 2, 3, 4]
    assert all(sp.dim == 1 for sp in pieces.values())
    # m = 2 piece is the left-normed [[2,1],1]
    t1 = Tensor.letter(p, n, 1)
    t2 = Tensor.letter(p, n, 2)
    want = t2.bracket(t1).bracket(t1)
    assert pieces[2].contains(want.to_packed())


def test_lazard_pieces_dimension_check_fires():
    # using a dependent generator pair makes the first bracket piece
    # degenerate, which must be reported rather than silently accepted
    p, n = 2, 2
    x = [Tensor.letter(p, n, 1).to_packed()]
    b = [Tensor.letter(p, n, 1).to_packed()]
    with pytest.raises(ArithmeticError):
        lazard_pieces(p, n, 1, x, 1, b, 4)


def test_graded_witt_matches_plain_witt():
    for n in range(1, 6):
        dims = graded_witt_dims({1: n}, 20)
        assert dims == {d: witt_dim(n, d) for d in range(1, 21)
                        if witt_dim(n, d)}


def test_graded_witt_elimination_identity():
    # free algebra on two degree-1 letters splits as the algebra on one
    # letter plus the algebra on pieces of degrees 1+m, one per m
    upper = graded_witt_dims({1: 2}, 20)
    piece_gens = {1 + m: 1 for m in range(20)}
    eliminated = graded_witt_dims(piece_gens, 20)
    for d in range(2, 21):
        assert upper[d] == eliminated[d]
    assert upper[1] == 1 + eliminated[1]


def test_graded_witt_refuses_bad_degrees_and_counts():
    with pytest.raises(ValueError, match="positive"):
        graded_witt_dims({1: 2, 0: 1}, 6)
    # a negative count gives l_1 = -1
    with pytest.raises(ArithmeticError, match="graded Witt"):
        graded_witt_dims({1: -1}, 6)
    # generators above max_degree do not count
    assert graded_witt_dims({7: 3}, 6) == {}


def test_lazard_dimension_identity_concrete():
    # split the three letters as B = {1,2}, C = {3}; degree-d dims of the
    # full algebra decompose through the elimination of L(B)
    p, n = 2, 3
    b_rows = [Tensor.letter(p, n, a).to_packed() for a in (1, 2)]
    c_rows = [Tensor.letter(p, n, 3).to_packed()]
    pieces = lazard_pieces(p, n, 1, c_rows, 1, b_rows, 5)
    assert all(pieces[m].dim == 2 ** m for m in pieces)
    gens = {1 + m: 2 ** m for m in range(6)}
    lower = graded_witt_dims(gens, 6)
    for d in range(2, 7):
        assert witt_dim(3, d) == witt_dim(2, d) + lower[d]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1), st.integers(0, 255), st.integers(0, 255))
def test_bracket_packed_antisymmetry(pi, a, b):
    p = (2, 3)[pi]
    n, r = 2, 2  # degree-2 vectors in a 4-dim space; packed ints use low 4 bits
    if p == 2:
        v1, v2 = a & 15, b & 15
        w1 = bracket_packed(p, n, r, v1, r, v2)
        w2 = bracket_packed(p, n, r, v2, r, v1)
        assert w1 == w2  # -1 = 1 mod 2
    else:
        v1 = np.array([a & 3, (a >> 2) & 3, (a >> 4) & 3, (a >> 6) & 3]) % p
        v2 = np.array([b & 3, (b >> 2) & 3, (b >> 4) & 3, (b >> 6) & 3]) % p
        w1 = bracket_packed(p, n, r, v1, r, v2)
        w2 = bracket_packed(p, n, r, v2, r, v1)
        # negated in int64: rows are unsigned, where -w2 would wrap
        assert np.array_equal(w1, (-w2.astype(np.int64)) % p)
