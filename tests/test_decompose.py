import pytest

from liepowers.combinat import higher_lie_dim, p_equivalence_classes
from liepowers.decompose import (
    ComplementSearchExhausted,
    canonical_complement,
    certify_decomposition,
    construct_B_family,
    prop35_check,
    split_tensor_power,
)
from liepowers.freelie import lie_power
from liepowers.linalg import Mat


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
        assert a.degrees[q].stage == b.degrees[q].stage


def test_stages_recorded():
    res = construct_B_family(2, 3, 2, 6)
    for data in res.degrees.values():
        assert data.stage in (1, 2, 3)


def test_tampered_projection_detected():
    res = construct_B_family(2, 3, 2, 4)
    data = res.degrees[4]
    arr = data.projection.to_array()
    arr[0, 0] = (arr[0, 0] + 1) % 3
    data.projection = Mat.from_array(3, arr)
    rep = certify_decomposition(res)
    assert not rep["ok"]


def test_canonical_complement_public():
    res = construct_B_family(2, 2, 3, 3)
    w = canonical_complement(6, 3, 2, 2, res.degrees)
    assert w.dim == 8
    lie = lie_power(2, 2, 6)
    assert lie.contains_space(w)


def test_canonical_complement_needs_lower_degrees():
    with pytest.raises(ValueError, match="degree 3"):
        canonical_complement(6, 3, 2, 2, {})


def test_truncation_companion():
    res3 = construct_B_family(3, 2, 3, 6)
    res2 = construct_B_family(2, 2, 3, 6)
    rep = certify_decomposition(res3, companion=res2)
    names = [name for q in rep["degrees"] for name, _ in rep["degrees"][q]]
    assert any("truncation" in name for name in names)
    assert rep["ok"]
