import hashlib
import itertools
import os
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import liepowers.decompose as decompose_module
from liepowers.combinat import higher_lie_dim, p_equivalence_classes
from liepowers.decompose import (
    ComplementSearchExhausted,
    _projection_flaw,
    certify_decomposition,
    construct_B_family,
    prop35_check,
    split_tensor_power,
)
import liepowers.descent as descent_module
import liepowers.freelie as freelie_module
from liepowers.freelie import (filtration_subspace, lie_power,
                               pbw_monomial_vector, pbw_monomials,
                               subalgebra_generated)
from liepowers.descent import (_assemble, element_action_matrix,
                               lift_idempotents)
from liepowers.linalg import (Mat, Subspace, _invert, _weight_blocks,
                              _weight_index, is_direct_sum, rref,
                              solve_equivariant_projection)
from liepowers.modrep import TensorAction, gl_generators
from oracles import multisets_by_filter, slot_budgets_by_filter


def _build_degree(q, k, n, p, family):
    """The degree-q data from the family below q, as construct_B_family
    builds it."""
    return decompose_module._build_degree(
        q, k, n, p, TensorAction(gl_generators(n, p), q), lie_power(p, n, q),
        family)


def test_split_one_class_p2_r2():
    rep = split_tensor_power(2, 2, 2)
    assert rep.summand_dims() == [4]
    entry = rep.entries[0]
    assert list(entry.members) == [(1, 1), (2,)]
    assert entry.chain_dims == [4, 1, 0]
    assert entry.factor_dims == [3, 1]


def test_split_p2_r4_dims():
    rep = split_tensor_power(2, 4, 2)
    dims = rep.summand_dims()
    assert sorted(dims) == [4, 12]
    assert sum(dims) == 16
    for entry in rep.entries:
        if (4,) in list(entry.members):
            assert entry.summand.dim == 12
        else:
            assert list(entry.members) == [(3, 1)]
            assert entry.summand.dim == 4


def test_split_p3_r2_dims():
    rep = split_tensor_power(2, 2, 3)
    assert rep.summand_dims() == [3, 1]


def test_split_p2_r3():
    rep = split_tensor_power(2, 3, 2)
    assert sorted(rep.summand_dims()) == [2, 6]


def test_split_n3_totals():
    rep = split_tensor_power(3, 3, 3)
    assert sum(rep.summand_dims()) == 27
    for entry in rep.entries:
        want = sum(higher_lie_dim(3, lam) for lam in entry.members)
        assert entry.summand.dim == want


def test_split_deterministic():
    a = split_tensor_power(2, 3, 2)
    b = split_tensor_power(2, 3, 2)
    for x, y in zip(a.entries, b.entries):
        assert x.summand == y.summand
        assert x.chain_dims == y.chain_dims


def test_prop35_small_ranks():
    for p in (2, 3):
        for r in range(2, 5):
            for cls in p_equivalence_classes(r, p):
                assert prop35_check(2, r, p, cls)


def test_prop35_check_of_another_degree_raises_key_error():
    # the class must be one of T^r's own; a degree-4 class has no
    # idempotent among those of degree 3
    cls = p_equivalence_classes(4, 2)[0]
    with pytest.raises(KeyError):
        prop35_check(2, 3, 2, cls)


def _dense_split(n, r, p):
    """Per class of lift_idempotents(r, p): (class, summand, chain dims,
    factor dims, PBW verdict) from the dense n^r x n^r idempotent E, the
    filtration subspaces and the row space of E."""
    N = n ** r
    out = []
    for cls, e in lift_idempotents(r, p):
        E = element_action_matrix(n, e)
        summand = Subspace.from_packed(p, N, E.packed_rows())
        members = sorted(cls.members)
        chain = [Subspace.from_packed(p, N, (filtration_subspace(
            p, n, r, lam).basis_matrix() @ E).packed_rows()).dim
            for lam in members] + [0]
        vecs = [E.apply(pbw_monomial_vector(p, n, mono))
                for lam in members for mono in pbw_monomials(n, lam)]
        span = Subspace.from_packed(p, N, vecs)
        out.append((cls, summand, chain,
                    [higher_lie_dim(n, lam) for lam in members],
                    span.dim == len(vecs) and span == summand))
    return out


@pytest.mark.parametrize("n,r,p", [(2, 5, 2), (2, 6, 3), (3, 4, 3),
                                   (3, 5, 2), (2, 4, 5)])
def test_graded_split_matches_dense_route(n, r, p):
    rep = split_tensor_power(n, r, p)
    dense = _dense_split(n, r, p)
    assert len(rep.entries) == len(dense)
    for entry, (cls, summand, chain, factors, pbw) in zip(rep.entries,
                                                           dense):
        assert entry.members == sorted(cls.members)
        assert entry.summand == summand
        assert entry.chain_dims == chain
        assert entry.factor_dims == factors
        assert prop35_check(n, r, p, cls) == pbw


def test_filtration_forms_no_dense_operator(monkeypatch):
    # the split and the PBW check work one weight space at a time: no
    # product has an n^r x n^r factor, and neither the dense idempotent
    # nor a full-width filtration subspace is built
    n, r, p = 3, 5, 3
    N = n ** r
    shapes = []
    matmul = Mat.__matmul__

    def counted(a, b):
        shapes.append((a.nrows, a.ncols, b.ncols))
        return matmul(a, b)

    def refused(name):
        def call(*args, **kwargs):
            raise AssertionError("%s called on the filtration path" % name)
        return call

    monkeypatch.setattr(Mat, "__matmul__", counted)
    for module in (decompose_module, descent_module):
        monkeypatch.setattr(module, "element_action_matrix",
                            refused("element_action_matrix"))
    for module in (decompose_module, freelie_module):
        monkeypatch.setattr(module, "filtration_subspace",
                            refused("filtration_subspace"), raising=False)
    rep = split_tensor_power(n, r, p)
    assert sum(rep.summand_dims()) == N
    for cls in p_equivalence_classes(r, p):
        assert prop35_check(n, r, p, cls)
    assert shapes
    assert not [s for s in shapes if s[0] == s[1] == N or s[1] == s[2] == N]


def test_family_p2_k3_through_6():
    res = construct_B_family(2, 2, 3, 6)
    assert res.b_dims() == {3: 2, 6: 8}
    d6 = res.degrees[6]
    assert d6.elim.dim == 0
    assert d6.complement.dim == 8
    assert [c for c, _ in d6.lower] == [1]
    assert d6.lower[0][1].dim == 1
    assert lie_power(2, 2, 6).contains_space(d6.basis)
    assert certify_decomposition(res)["ok"]


def test_family_p3_k2_through_6():
    res = construct_B_family(2, 3, 2, 6)
    assert res.b_dims() == {2: 1, 4: 3, 6: 9}
    assert res.degrees[4].basis == lie_power(3, 2, 4)
    assert res.degrees[6].basis == lie_power(3, 2, 6)
    assert res.degrees[6].elim.dim == 3
    assert res.degrees[6].complement.dim == 6
    assert certify_decomposition(res)["ok"]


def test_family_k1_degenerate():
    res = construct_B_family(2, 2, 1, 4)
    assert res.b_dims() == {1: 2, 2: 0, 3: 0, 4: 0}
    assert certify_decomposition(res)["ok"]


def test_family_rejects_p_dividing_k():
    with pytest.raises(ValueError):
        construct_B_family(2, 2, 2, 4)
    with pytest.raises(ValueError):
        construct_B_family(2, 3, 3, 6)


def test_family_deterministic():
    a = construct_B_family(2, 2, 3, 6)
    b = construct_B_family(2, 2, 3, 6)
    for q in a.degrees:
        assert a.degrees[q].basis == b.degrees[q].basis
        assert a.degrees[q].projection == b.degrees[q].projection


def _forced_failure(*args):
    raise ArithmeticError("forced")


def _assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_stage_one_failure_is_loud(monkeypatch):
    # the class projector is built in the worker, whose failure reaches
    # the parent with its type, degree and text
    monkeypatch.setattr(decompose_module, "class_projector", _forced_failure)
    with pytest.raises(ComplementSearchExhausted) as exc:
        construct_B_family(2, 2, 3, 6)
    assert exc.value.degree == 6
    assert str(exc.value) == "degree 6: projector lifting failed: forced"
    _assert_no_child_process()


def test_complement_search_exhausted_pickles():
    exc = pickle.loads(pickle.dumps(ComplementSearchExhausted(6, "x")))
    assert type(exc) is ComplementSearchExhausted
    assert exc.degree == 6 and exc.reason == "x"
    assert str(exc) == "degree 6: x"


def test_worker_leaves_no_process():
    assert construct_B_family(2, 2, 3, 9).b_dims() == {3: 2, 6: 8, 9: 54}
    _assert_no_child_process()


def test_worker_death_names_its_status(monkeypatch):
    monkeypatch.setattr(decompose_module, "_canonical_data",
                        lambda *args: os._exit(3))
    with pytest.raises(ComplementSearchExhausted,
                       match="^degree 6: canonical-data worker exited "
                       "with status 3 and no result$"):
        construct_B_family(2, 2, 3, 6)
    _assert_no_child_process()


def test_worker_is_killed_when_the_parent_leaves(monkeypatch):
    # a solve that fails while the worker still runs kills and reaps it
    def forced_solve(*args, **kwargs):
        raise RuntimeError("forced solve")

    monkeypatch.setattr(decompose_module, "_canonical_data",
                        lambda *args: time.sleep(60))
    monkeypatch.setattr(decompose_module, "solve_equivariant_projection",
                        forced_solve)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="forced solve"):
        construct_B_family(2, 2, 3, 6)
    assert time.monotonic() - start < 30
    _assert_no_child_process()


def test_projection_flaw_reaches_the_failure(monkeypatch):
    # the star-route certificate, the bracketing projection at q = k and
    # the zero projection all meet the one check
    families = {k: construct_B_family(2, 2, k, k).degrees for k in (1, 3)}
    monkeypatch.setattr(decompose_module, "_projection_flaw",
                        lambda proj, basis, action: "forced flaw")
    for k, q in [(3, 6), (3, 3), (1, 2)]:
        with pytest.raises(ComplementSearchExhausted,
                           match="^degree %d: forced flaw$" % q):
            _build_degree(q, k, 2, 2, families[k])


def _star_route_rejects(monkeypatch, q, reason, canon=None, solve=None):
    """Build degree q of n = 2, p = 2, k = 3 with the canonical data
    passed through canon and the solve replaced by solve, and check that
    the star route rejects it for reason."""
    res = construct_B_family(2, 2, 3, q - 3)
    if canon is not None:
        real = decompose_module._canonical_data
        monkeypatch.setattr(decompose_module, "_canonical_data",
                            lambda *args: canon(real(*args)))
    if solve is not None:
        monkeypatch.setattr(decompose_module, "solve_equivariant_projection",
                            solve)
    with pytest.raises(ComplementSearchExhausted) as exc:
        _build_degree(q, 3, 2, 2, res.degrees)
    assert str(exc.value) == "degree %d: %s" % (q, reason)
    _assert_no_child_process()


def _with_star(canon, rows):
    return {**canon, "star": Subspace.from_packed(2, canon["star"].ambient,
                                                  rows)}


def _lie_row_off(star):
    """A row of L^6 outside the star span."""
    return next(r for r in lie_power(2, 2, 6).packed_rows()
                if not star.contains_space(
                    Subspace.from_packed(2, star.ambient, [r])))


def test_star_span_with_an_extra_lie_row_is_rejected(monkeypatch):
    # a Lie row outside the lower pieces makes the star span meet L^6 in
    # more than them
    def extra(canon):
        star = canon["star"]
        return _with_star(canon, star.packed_rows() + [_lie_row_off(star)])

    _star_route_rejects(monkeypatch, 6,
                        "star span meets the Lie power incorrectly", extra)


def test_star_span_missing_a_lower_piece_is_rejected(monkeypatch):
    # a star row that the lower pieces need, traded for a Lie row outside
    # the star span: the star span meets L^6 in the right dimension, but
    # not in the lower pieces
    lower_sum = decompose_module._settled_part(
        6, 3, 2, 2, construct_B_family(2, 2, 3, 3).degrees)[1]
    assert lower_sum.dim

    def traded(canon):
        star = canon["star"]
        rows = star.packed_rows()
        for i in range(len(rows)):
            kept = rows[:i] + rows[i + 1:]
            if not Subspace.from_packed(2, star.ambient,
                                        kept).contains_space(lower_sum):
                return _with_star(canon, kept + [_lie_row_off(star)])
        raise AssertionError("every star row is spare")

    _star_route_rejects(monkeypatch, 6,
                        "star span meets the Lie power incorrectly", traded)


def test_star_span_short_of_the_class_summand_is_rejected(monkeypatch):
    res = construct_B_family(2, 2, 3, 3)
    expect = decompose_module._canonical_data(6, 3, 2, 2,
                                              res.degrees)["expect"]
    _star_route_rejects(
        monkeypatch, 6, "star span plus Lie power has dimension %d, "
        "expected %d" % (expect, expect + 1),
        lambda canon: {**canon, "expect": canon["expect"] + 1})


def test_missing_equivariant_projection_is_rejected(monkeypatch):
    _star_route_rejects(
        monkeypatch, 6, "no weight-preserving equivariant projection of "
        "the Lie power onto the settled part exists",
        solve=lambda *args, **kwargs: None)


def test_complement_meeting_the_bracket_pieces_is_rejected(monkeypatch):
    # at degree 9 the bracket pieces [W_6, B_3] are nonzero; the zero
    # projection of L^9 leaves all of L^9 as the complement
    def zero(action, known, lie, labels):
        assert known.dim and lie.dim > known.dim
        return Mat.zeros(2, lie.dim, lie.dim)

    _star_route_rejects(monkeypatch, 9,
                        "complement meets the bracket pieces", solve=zero)


def test_class_projector_rank_off_by_one_is_rejected(monkeypatch):
    def bumped(canon):
        alpha = next(iter(canon["rank"]))
        return {**canon, "rank": {**canon["rank"],
                                  alpha: canon["rank"][alpha] + 1}}

    _star_route_rejects(
        monkeypatch, 6, "class projector is not injective on the "
        "star-extended Lie power", bumped)


def test_family_rejects_zero_modulus():
    with pytest.raises(ValueError, match="prime modulus, got 0"):
        construct_B_family(2, 0, 1, 2)


def _closure_pieces(q, k, n, p, family):
    """The lower Lie pieces at degree q as degree-q parts of the bracket
    closures of the lower bases."""
    s = q // k
    out = []
    for c in (c for c in range(1, s) if s % c == 0):
        basis = family[c * k].basis
        piece = Subspace.zero(p, n ** q)
        if basis.dim:
            piece = subalgebra_generated(
                p, n, {c * k: basis.packed_rows()}, q).get(q, piece)
        out.append((c, piece))
    return out


@pytest.mark.parametrize("n,p,k,top", [(2, 2, 3, 12), (3, 3, 2, 6)])
def test_certify_derives_the_constructed_lower_pieces(n, p, k, top):
    # certify re-derives the lower Lie pieces at k p^j by the routine the
    # construction used, and gets the stored ones
    res = construct_B_family(n, p, k, top)
    dims = []
    q = k
    while q <= top:
        lower = decompose_module._lower_pieces(q, k, n, p, res.degrees)
        assert lower == res.degrees[q].lower
        dims.append(sum(piece.dim for _, piece in lower))
        q *= p
    assert len(dims) >= 2 and any(dims)
    # the pieces substituted into free Lie powers are the bracket closures
    for q in range(2 * k, top + 1, k):
        assert res.degrees[q].lower == _closure_pieces(q, k, n, p,
                                                       res.degrees)


def test_lower_pieces_of_a_full_lower_basis():
    # B_3 replaced by all of T^3: its pieces are still the bracket
    # closures, free of the expected dimension but outside L^q, and the
    # splitting fails either way
    res = construct_B_family(2, 2, 3, 9)
    res.degrees[3].basis = Subspace.from_vectors(2, 8, np.eye(8, dtype=int))
    for q in (6, 9):
        lower = decompose_module._lower_pieces(q, 3, 2, 2, res.degrees)
        assert lower == _closure_pieces(q, 3, 2, 2, res.degrees)
        lie = lie_power(2, 2, q)
        splits = is_direct_sum([piece for _, piece in lower if piece.dim]
                               + [res.degrees[q].basis], lie)
        flaw = decompose_module._splitting_flaw(q, 3, 2, 2, res.degrees, lie)
        assert not splits
        assert flaw == "the lower pieces and the basis do not split it"


def test_zero_degrees_skip_the_canonical_data(monkeypatch):
    # for k = 1 the lower pieces fill every L^q with q >= 2, so B_q = 0 is
    # certified by the zero projection, and no star span is built
    monkeypatch.setattr(decompose_module, "_canonical_data", _forced_failure)
    res = construct_B_family(2, 2, 1, 8)
    assert res.b_dims() == {1: 2, **{q: 0 for q in range(2, 9)}}
    for q in range(2, 9):
        assert res.degrees[q].projection == Mat.zeros(2, 2 ** q, 2 ** q)
    assert certify_decomposition(res)["ok"]


def test_certify_records_a_missing_lower_degree():
    res = construct_B_family(2, 2, 3, 6)
    del res.degrees[3]
    rep = certify_decomposition(res)
    assert rep["degrees"][6][-1] == (
        "Lie power splits over the lower bases (degree 3 is needed for "
        "degree 6 but is missing from the family)", False)
    assert not rep["ok"]


def test_dense_dimension_cap_boundary():
    decompose_module._check_dense_dim(2, 14)  # 16384
    with pytest.raises(ValueError, match="n=2 at degree 15 exceeds"):
        decompose_module._check_dense_dim(2, 15)
    # n = 1 never reaches the cap, however large the degree
    decompose_module._check_dense_dim(1, 10 ** 12)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be positive"):
            decompose_module._check_dense_dim(n, 2)


def test_tampered_projection_detected():
    res = construct_B_family(2, 3, 2, 4)
    data = res.degrees[4]
    arr = data.projection.to_array()
    arr[0, 0] = (arr[0, 0] + 1) % 3
    data.projection = Mat.from_array(3, arr)
    rep = certify_decomposition(res)
    assert not rep["ok"]


def test_canonical_complement_public():
    w = construct_B_family(2, 2, 3, 6).degrees[6].complement
    assert w.dim == 8
    lie = lie_power(2, 2, 6)
    assert lie.contains_space(w)


def test_canonical_complement_needs_lower_degrees():
    with pytest.raises(ValueError, match="degree 3"):
        _build_degree(6, 3, 2, 2, {})


def test_canonical_data_needs_lower_degrees():
    # a missing divisor degree must not leave a smaller star span
    with pytest.raises(ValueError, match="degree 3 is needed for degree 6"):
        decompose_module._canonical_data(6, 3, 2, 2, {})


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=6), st.integers(0, 9))
def test_multisets_with_sum_matches_the_filter(sizes, total):
    got = decompose_module._multisets_with_sum(sizes, total)
    assert sorted(got) == sorted(multisets_by_filter(sizes, total))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)), max_size=6),
       st.integers(0, 9))
def test_multisets_with_sum_gives_the_slot_budgets(divisors, q):
    # one use of divisor d adds step slots of width d
    budgets = decompose_module._multisets_with_sum(
        [d * step for d, step in divisors], q)
    got = [tuple(step * budget.count(i) for i, (_, step)
                 in enumerate(divisors)) for budget in budgets]
    assert sorted(got) == sorted(slot_budgets_by_filter(divisors, q))


def test_multisets_with_sum_at_the_horizon():
    # the Lie factors of n = 3, q = 12 over B_3: 8 of length 1, 28 of
    # length 2 and 1008 of length 4 fill a budget of 4 slots
    start = time.perf_counter()
    got = decompose_module._multisets_with_sum([1] * 8 + [2] * 28
                                               + [4] * 1008, 4)
    assert len(got) == len(set(got)) == 2752
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n,p,k,q,dim,digest", [
    (2, 2, 3, 12, 108,
     "0ee088c80f4409a9eb28a70a412049d8e2bbb366b09b01af9aead2beeab84a62"),
    (3, 2, 3, 9, 168,
     "c18a3271da9301cd1d3e6a08527870363eba4f0a74c2b5dc2b4f72ad38762441"),
])
def test_star_span_is_pinned(n, p, k, q, dim, digest):
    # the dimension and digest of the canonical rows that filtering every
    # candidate multiset gave; the order products are listed in is free
    family = construct_B_family(n, p, k, q - k).degrees
    star = decompose_module._canonical_data(q, k, n, p, family)["star"]
    text = ",".join("%x" % row for row in star.packed_rows())
    assert star.dim == dim
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_truncation_companion():
    res3 = construct_B_family(3, 2, 3, 6)
    res2 = construct_B_family(2, 2, 3, 6)
    rep = certify_decomposition(res3, companion=res2)
    names = [name for q in rep["degrees"] for name, _ in rep["degrees"][q]]
    assert any("truncation" in name for name in names)
    assert rep["ok"]


def _dense_flaw(proj, basis, action):
    """The certificate by its definition, with N x N products: proj is
    idempotent, its row space is the basis, and it commutes with every
    generator."""
    if proj @ proj != proj:
        return "not idempotent"
    if Subspace.from_packed(proj.p, proj.ncols, proj.packed_rows()) != basis:
        return "image differs"
    for gi in range(len(action.generators)):
        g = action.induced_matrix(gi)
        if proj @ g != g @ proj:
            return "not commuting"
    return None


def _candidate_projections(proj, basis, action, rng):
    """The stored certificate, perturbations of it, and projections onto
    random subspaces: (projection, basis) pairs with mixed verdicts."""
    p, N, r = proj.p, proj.ncols, basis.dim
    P = proj.to_array()
    B = basis.basis_matrix().to_array()
    C = P[:, basis.pivots]
    g = action.induced_matrix(0).to_array()
    out = [(P, basis), (np.zeros_like(P), basis), ((P @ g) % p, basis),
           ((2 * P) % p, basis)]
    for _ in range(6):
        flip = P.copy()
        i, j = rng.integers(0, N, size=2)
        flip[i, j] = (flip[i, j] + rng.integers(1, p)) % p
        out.append((flip, basis))
        u, v = rng.integers(0, p, size=(2, N))
        out.append(((P + np.outer(u, v)) % p, basis))
        # idempotent onto span B, moved along the kernel of B
        z = (np.eye(N, dtype=np.int64) - P) @ rng.integers(0, p, size=(N, r))
        out.append((((C + z) % p) @ B % p, basis))
        # rows in span B, but B C' != I
        x = rng.integers(0, p, size=(r, r))
        out.append(((C @ x % p) @ B % p, basis))
        # a projection onto a random subspace of the same dimension
        rand = Subspace.from_vectors(p, N, rng.integers(0, p, size=(r, N)))
        if rand.dim:
            rb = rand.basis_matrix().to_array()
            out.append((np.eye(N, dtype=np.int64)[:, rand.pivots] @ rb % p,
                        rand))
    return [(Mat.from_array(p, a), b) for a, b in out]


@pytest.mark.parametrize("n,p,k,top", [(2, 2, 3, 6), (2, 3, 2, 4)])
def test_projection_flaw_agrees_with_dense_definition(n, p, k, top):
    res = construct_B_family(n, p, k, top)
    rng = np.random.default_rng(17 * p + top)
    verdicts = []
    for q, data in sorted(res.degrees.items()):
        action = TensorAction(gl_generators(n, p), q)
        for proj, basis in _candidate_projections(data.projection, data.basis,
                                                  action, rng):
            new = _projection_flaw(proj, basis, action)
            want = _dense_flaw(proj, basis, action)
            assert (new is None) == (want is None), (q, new, want)
            verdicts.append(new is None)
    assert any(verdicts) and not all(verdicts)


def _flaw_case(vecs, proj_rows):
    # T^2(V) for n = 2 over GF(2): words 11, 12, 21, 22 are indices 0..3
    action = TensorAction(gl_generators(2, 2), 2)
    basis = Subspace.from_vectors(2, 4, vecs)
    proj = Mat.from_rows(2, proj_rows)
    return proj, basis, action


@pytest.mark.parametrize("vecs,proj_rows,message", [
    # the identity has rows outside span{11}
    ([[1, 0, 0, 0]], np.eye(4, dtype=int).tolist(),
     "rows lie outside the stored basis"),
    # the zero map does not fix the Lie power L^2 = span{12 + 21}
    ([[0, 1, 1, 0]], [[0] * 4] * 4, "does not fix the stored basis"),
    # span{11} is a summand of T^2, but the letter swap moves it to 22
    ([[1, 0, 0, 0]], [[1, 0, 0, 0]] + [[0] * 4] * 3,
     "not invariant under generator 0"),
    # L^2 is invariant but not a direct summand of T^2 in characteristic 2
    ([[0, 1, 1, 0]], [[0] * 4, [0, 1, 1, 0], [0] * 4, [0] * 4],
     "fails to commute with generator"),
])
def test_projection_flaw_messages(vecs, proj_rows, message):
    proj, basis, action = _flaw_case(vecs, proj_rows)
    assert message in _projection_flaw(proj, basis, action)
    assert _dense_flaw(proj, basis, action) is not None


def test_projection_flaw_makes_no_full_size_products(monkeypatch):
    res = construct_B_family(2, 2, 3, 9)
    data = res.degrees[9]
    N = 2 ** 9
    action = TensorAction(gl_generators(2, 2), 9)
    for gi in range(len(action.generators)):
        action.induced_matrix(gi)  # built by concatenation, not products
    shapes = []
    matmul = Mat.__matmul__

    def counted(a, b):
        shapes.append((a.nrows, a.ncols, b.ncols))
        return matmul(a, b)

    monkeypatch.setattr(Mat, "__matmul__", counted)
    assert _projection_flaw(data.projection, data.basis, action) is None
    assert shapes and (N, N, N) not in shapes
    assert all(data.basis.dim in shape for shape in shapes)


def _unblocked_flaw(proj, basis, action):
    """The certificate check on whole matrices, as it ran before it was
    cut into weight blocks: C = P[:, pi] from all N rows, C B against P,
    B C against I and C M against g C with g's induced matrix."""
    B = basis.basis_matrix()
    C = proj.columns(basis.pivots)
    if C @ B != proj:
        return "projection rows lie outside the stored basis"
    if B @ C != Mat.identity(proj.p, basis.dim):
        return "projection does not fix the stored basis"
    for gi in range(len(action.generators)):
        img = B @ action.induced_matrix(gi)
        M = img.columns(basis.pivots)
        if M @ B != img:
            return "stored basis is not invariant under generator %d" % gi
        if C @ M != action.induced_matrix(gi) @ C:
            return "projection fails to commute with generator %d" % gi
    return None


@pytest.mark.parametrize("n,p,k,top", [(2, 2, 3, 6), (2, 3, 2, 4),
                                       (3, 2, 3, 3)])
def test_a_flipped_entry_in_any_weight_block_fails(n, p, k, top):
    # one entry changed in the rows of one weight space, for every weight
    # space: the blockwise check fails, with the message of the check on
    # whole matrices
    res = construct_B_family(n, p, k, top)
    rng = np.random.default_rng(31 * p + top)
    data = res.degrees[top]
    action = TensorAction(gl_generators(n, p), top)
    P = data.projection.to_array()
    for idx in _weight_blocks(n, top).values():
        flip = P.copy()
        i, j = rng.choice(idx), rng.integers(0, n ** top)
        flip[i, j] = (flip[i, j] + rng.integers(1, p)) % p
        flip = Mat.from_array(p, flip)
        got = _projection_flaw(flip, data.basis, action)
        assert got is not None
        assert got == _unblocked_flaw(flip, data.basis, action)


def test_an_ungraded_projection_still_certifies():
    # P' = P + (I - P) Y P, with Y the sum of h^-1 Z h over GL(2, 2) for a
    # random Z, is an equivariant projection onto the same basis (rows act
    # on the right), and it is not graded: the blockwise check assumes no
    # grading
    res = construct_B_family(2, 2, 3, 6)
    data = res.degrees[6]
    P = data.projection.to_array()
    N = len(P)
    action = TensorAction(gl_generators(2, 2), 6)
    group = [Mat.from_array(2, np.array(bits).reshape(2, 2))
             for bits in itertools.product((0, 1), repeat=4)
             if rref(Mat.from_array(2, np.array(bits).reshape(2, 2)))[1] == 2]
    assert len(group) == 6
    lifts = [(TensorAction([_invert(h)], 6).induced_matrix(0).to_array(),
              TensorAction([h], 6).induced_matrix(0).to_array())
             for h in group]
    weight = _weight_index(2, 6)
    rng = np.random.default_rng(5)
    for _ in range(10):
        Z = rng.integers(0, 2, size=(N, N))
        Y = sum(hinv @ Z @ h for hinv, h in lifts) % 2
        moved = (P + (np.eye(N, dtype=np.int64) - P) @ Y @ P) % 2
        rows, cols = np.nonzero(moved)
        if (weight[rows] != weight[cols]).any():
            break
    else:
        raise AssertionError("no ungraded projection found")
    moved = Mat.from_array(2, moved)
    assert moved != data.projection
    assert _projection_flaw(moved, data.basis, action) is None
    assert _dense_flaw(moved, data.basis, action) is None
    res.degrees[6].projection = moved
    assert certify_decomposition(res)["ok"]


def _dense_certificate(p, N, basis, star, kernel):
    """The projection onto basis along star + kernel from one inverse of
    the stacked N x N rows."""
    rows = basis.packed_rows() + star.packed_rows() + kernel.packed_rows()
    inv = _invert(Mat.from_packed(p, rows, N))
    return inv.columns(range(basis.dim)) @ basis.basis_matrix()


@pytest.mark.parametrize("n,p,k,top", [(2, 2, 3, 9), (3, 3, 2, 4),
                                       (2, 3, 2, 6)])
def test_graded_stage_one_matches_the_dense_route(n, p, k, top):
    res = construct_B_family(n, p, k, top)
    for q in range(2 * k, top + 1, k):
        N = n ** q
        canon = decompose_module._canonical_data(q, k, n, p, res.degrees)
        E = _assemble(p, n, q, canon["projector"])
        # E is idempotent, so its kernel is the row space of I - E
        kernel = Subspace.from_packed(
            p, N, (Mat.identity(p, N) - E).packed_rows())
        assert sum(canon["rank"].values()) == N - kernel.dim
        basis, star = res.degrees[q].basis, canon["star"]
        graded = decompose_module._assemble_certificate(
            p, n, q, decompose_module._by_weight(basis, n, q, "basis"),
            decompose_module._by_weight(star, n, q, "star span"),
            canon["projector"], canon["rank"])
        assert graded == _dense_certificate(p, N, basis, star, kernel)
        assert graded == res.degrees[q].projection


def _stacked_inverse_certificate(p, n, q, basis, star, kernel):
    """The certificate from one inverse per weight space of the d x d
    stacked rows, through the echelon of [rows | I], or None when they
    are not a basis."""
    pieces = {}
    for alpha, b in basis.items():
        rows = (b.packed_rows() + star[alpha].packed_rows()
                + kernel[alpha].packed_rows())
        if len(rows) != b.ncols:
            return None
        try:
            inv = _invert(Mat.from_packed(p, rows, b.ncols))
        except ValueError:
            return None
        pieces[alpha] = inv.columns(range(b.nrows)) @ b
    return _assemble(p, n, q, pieces)


@pytest.fixture(scope="module")
def flagship_family():
    return construct_B_family(2, 2, 3, 12)


@pytest.mark.parametrize("n,p,k,q", [(2, 2, 3, 6), (2, 2, 3, 9),
                                     (2, 2, 3, 12), (3, 3, 2, 6)])
def test_certificate_matches_the_stacked_inverse(n, p, k, q,
                                                 flagship_family):
    res = flagship_family if (n, p, k) == (2, 2, 3) else \
        construct_B_family(n, p, k, q)
    canon = decompose_module._canonical_data(q, k, n, p, res.degrees)
    basis = decompose_module._by_weight(res.degrees[q].basis, n, q, "basis")
    star = decompose_module._by_weight(canon["star"], n, q, "star span")
    E, rank = canon["projector"], canon["rank"]
    # E_alpha is idempotent, so its kernel is the row space of I - E_alpha
    kernel = {alpha: Subspace.from_packed(p, block.ncols, (Mat.identity(
        p, block.ncols) - block).packed_rows()).basis_matrix()
        for alpha, block in E.items()}

    def both(basis, star):
        got = decompose_module._assemble_certificate(p, n, q, basis, star,
                                                     E, rank)
        assert got == _stacked_inverse_certificate(p, n, q, basis, star,
                                                   kernel)
        return got

    assert both(basis, star) == res.degrees[q].projection
    # a weight space with basis rows and star rows
    alpha = next(a for a in basis if basis[a].nrows and star[a].nrows)
    swapped = Mat.from_packed(p, basis[alpha].packed_rows()[:1] +
                              star[alpha].packed_rows()[1:], star[alpha].ncols)
    assert both(basis, {**star, alpha: swapped}) is None
    # a rank off by one at a weight space with basis or star rows
    for shift in (-1, 1):
        assert decompose_module._assemble_certificate(
            p, n, q, basis, star, E, {**rank, alpha: rank[alpha] + shift}) \
            is None
    # a star row replaced by a row of ker E_alpha, on which E is not
    # injective
    alpha = next(a for a in star if star[a].nrows and kernel[a].nrows)
    killed = Mat.from_packed(p, kernel[alpha].packed_rows()[:1] +
                             star[alpha].packed_rows()[1:], star[alpha].ncols)
    assert both(basis, {**star, alpha: killed}) is None


def test_weight_crossing_row_is_loud(monkeypatch):
    # a complement whose first row gains a word of another weight spans a
    # subspace that is not a sum of weight components
    res = construct_B_family(2, 2, 3, 3)
    complement_from = decompose_module._complement_from
    blocks = _weight_blocks(2, 6)

    def crossing(space, proj):
        w = complement_from(space, proj)
        rows = w.packed_rows()
        own = next(idx for idx in blocks.values() if w.pivots[0] in idx)
        other = next(i for i in range(2 ** 6) if i not in own)
        rows[0] ^= 1 << other
        out = Subspace.from_packed(2, 2 ** 6, rows)
        assert out.dim == w.dim
        return out

    monkeypatch.setattr(decompose_module, "_complement_from", crossing)
    with pytest.raises(ComplementSearchExhausted,
                       match="^degree 6: a row of the basis crosses weight "
                             "spaces$"):
        _build_degree(6, 3, 2, 2, res.degrees)


def test_construction_forms_no_dense_operator(monkeypatch):
    # stage 1 works one weight space at a time and reads generators
    # without their induced matrices: no product has an N x N factor
    gl_generators(2, 2)  # its cached generation check multiplies matrices
    dense, shapes, induced = [], [], []
    matmul = Mat.__matmul__

    def degree(gens, q):
        dense.append(2 ** q)  # the degree now under construction
        return TensorAction(gens, q)

    def counted(a, b):
        N = dense[-1]
        shapes.append((a.nrows, a.ncols, b.ncols, N))
        return matmul(a, b)

    monkeypatch.setattr(decompose_module, "TensorAction", degree)
    monkeypatch.setattr(Mat, "__matmul__", counted)
    monkeypatch.setattr(TensorAction, "induced_matrix",
                        lambda self, gi: induced.append(self.r))
    res = construct_B_family(2, 2, 3, 9)
    assert res.b_dims() == {3: 2, 6: 8, 9: 54}
    assert dense == [8, 64, 512] and induced == []
    assert {s[-1] for s in shapes} == {8, 64, 512}
    # the class projector, its ranks and the star span are built in a
    # worker process, out of this counter's sight, so build them here too
    built = len(shapes)
    for q in (6, 9):
        dense.append(2 ** q)
        decompose_module._canonical_data(q, 3, 2, 2, res.degrees)
    assert len(shapes) > built
    assert not [s for s in shapes if s[0] == s[1] == s[3]
                or s[1] == s[2] == s[3]]


def test_solve_reads_generators_as_matrices(monkeypatch):
    # the solve multiplies each stacked basis by a generator once,
    # through TensorAction.times, with no one-vector apply call
    solve = decompose_module.solve_equivariant_projection
    apply = TensorAction.apply
    solved, calls = [], []

    def traced_solve(action, image, domain, labels):
        solved.append(action.r)
        try:
            return solve(action, image, domain, labels)
        finally:
            solved.append(None)

    def counted_apply(self, gi, vec):
        if solved and solved[-1] is not None:
            calls.append(self.r)
        return apply(self, gi, vec)

    monkeypatch.setattr(decompose_module, "solve_equivariant_projection",
                        traced_solve)
    monkeypatch.setattr(TensorAction, "apply", counted_apply)
    construct_B_family(2, 2, 3, 9)
    assert 9 in solved
    assert calls == []


@pytest.mark.parametrize("n,p,k,top", [(2, 2, 3, 9), (2, 3, 2, 6)])
def test_construction_copies_no_matrix_to_int64(monkeypatch, n, p, k, top):
    # the solve and the generator action read rows through the field
    # backend alone, so the family is the same with Mat.to_array refused
    want = construct_B_family(n, p, k, top)

    def refused(self):
        raise AssertionError("Mat.to_array called")

    monkeypatch.setattr(Mat, "to_array", refused)
    got = construct_B_family(n, p, k, top)
    assert got.b_dims() == want.b_dims()
    for q, data in want.degrees.items():
        assert got.degrees[q].basis == data.basis
        assert got.degrees[q].complement == data.complement
        assert got.degrees[q].projection == data.projection


@pytest.mark.parametrize("n,p,q", [(2, 2, 6), (3, 3, 4)])
def test_projection_onto_the_whole_lie_power_is_the_identity(n, p, q):
    # when the lower Lie pieces and the bracket pieces fill L^q there is
    # no complement to solve for: the solver returns the identity, whose
    # kernel W is 0
    lie = lie_power(p, n, q)
    got = solve_equivariant_projection(
        TensorAction(gl_generators(n, p), q), lie, lie,
        labels=_weight_index(n, q)[lie.pivots])
    assert got == Mat.identity(p, lie.dim)
