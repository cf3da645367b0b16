import ast
import collections
import itertools
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import liepowers
from liepowers import linalg
from liepowers.descent import DescentElement
from liepowers.freelie import concat_packed
from liepowers.linalg import (
    Mat,
    Subspace,
    _canonical_solution,
    _csr,
    _echp,
    _invert,
    _mul2,
    _mul2_words,
    _projection_from_x,
    _projection_problem,
    _rows_to_words,
    _solve_linear_system,
    _spin_solution,
    _unknown_index,
    _words_to_rows,
    affine_projection_family,
    direct_sum,
    field,
    format_subspace,
    is_direct_sum,
    parse_subspace,
    rref,
    solve_equivariant_projection,
    substitute,
    word_weight,
)
from liepowers.modrep import TensorAction, gl_generators
from oracles import (
    Tensor,
    format_terms,
    index_to_word,
    kronecker_projection_system,
    word_to_index,
)


def test_check_prime():
    # field(p) is the only modulus check
    for p in (2, 3, 5, 7, 11, 94906249):
        assert field(p) is field(p)
    for bad in (1, 4, 6, 9, -3, 97 * 97, 2 ** 61 - 1, 2.0, 3.0, True):
        with pytest.raises(ValueError):
            field(bad)


def test_rref_keeps_shape_and_rank():
    m = Mat.from_rows(2, [[1, 1], [1, 1]])
    r, rank = rref(m)
    assert rank == 1
    assert r.to_array().tolist() == [[1, 1], [0, 0]]

    m = Mat.from_rows(5, [[2, 4], [1, 2], [0, 3]])
    r, rank = rref(m)
    assert rank == 2
    assert r.to_array().tolist() == [[1, 0], [0, 1], [0, 0]]


def test_rref_is_canonical_mod3():
    # same row space, different presentations
    a = Mat.from_rows(3, [[1, 2, 0], [0, 1, 1]])
    b = Mat.from_rows(3, [[2, 1, 0], [1, 2, 0], [0, 2, 2]])
    ra, ka = rref(a)
    rb, kb = rref(b)
    assert ka == kb == 2
    assert ra.to_array().tolist()[:2] == rb.to_array().tolist()[:2]


def test_matmul_and_identity():
    for p in (2, 3, 5):
        a = Mat.from_rows(p, [[1, 2, 0], [0, 1, 1]])
        i3 = Mat.identity(p, 3)
        assert (a @ i3) == a
        i2 = Mat.identity(p, 2)
        assert (i2 @ a) == a


def test_matmul_matches_numpy_reference():
    rng = np.random.default_rng(7)
    for p in (2, 3, 7):
        a = rng.integers(0, p, size=(13, 17))
        b = rng.integers(0, p, size=(17, 9))
        ma = Mat.from_rows(p, a.tolist())
        mb = Mat.from_rows(p, b.tolist())
        want = (a @ b) % p
        assert (ma @ mb).to_array().tolist() == want.tolist()


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("m,k,n", [(13, 17, 9), (300, 600, 40)])
def test_field_backend_parity(p, m, k, n):
    # the second shape spans several 64-bit words; every backend must
    # agree with plain numpy mod p
    rng = np.random.default_rng(p * 1000 + k)
    F = field(p)
    a = rng.integers(0, p, size=(m, k))
    b = rng.integers(0, p, size=(k, n))
    rows = F.from_array(a)
    assert np.array_equal(F.digits(rows, k), a)
    assert np.array_equal(F.digits(F.from_array(a - 5 * p), k), a)
    for row, dense in zip(rows, a):
        want = [(int(i), int(dense[i])) for i in np.nonzero(dense)[0]]
        assert list(F.terms(row)) == want
        assert F.key(F.from_terms(k, want)) == F.key(row)
    got = Mat.from_array(p, a) @ Mat.from_array(p, b)
    assert np.array_equal(got.to_array(), (a @ b) % p)
    # apply is the one-row product, on a packed row and on a plain list
    mb = Mat.from_array(p, b)
    for dense in a[:3]:
        want = Mat.from_array(p, dense[None, :]) @ mb
        assert F.key(mb.apply(F.from_array(dense[None, :])[0])) == \
            F.key(want.packed_rows()[0])
        assert mb.apply(dense.tolist()) == want.to_array().tolist()[0]


@pytest.mark.parametrize("p", [2, 3, 11])
@pytest.mark.parametrize("width", [13, 600])
def test_mat_columns(p, width):
    # widths on both sides of the 512-column switch of the GF(2) kernels
    rng = np.random.default_rng(width + p)
    a = rng.integers(0, p, size=(9, width))
    m = Mat.from_array(p, a)
    for cols in ([], [0], [width - 1, 3, 3, 0], list(range(1, width, 7))):
        got = m.columns(cols)
        assert (got.p, got.nrows, got.ncols) == (p, 9, len(cols))
        assert got == Mat.from_array(p, a[:, cols].reshape(9, len(cols)))
    # spread is the inverse: distinct columns back in place, zeros between
    for cols in ([], [0], [width - 1, 3, 0], list(range(1, width, 7))):
        kept = np.zeros_like(a)
        kept[:, cols] = a[:, cols]
        assert m.columns(cols).spread(cols, width) == Mat.from_array(p, kept)
    assert Mat.zeros(p, 0, width).columns([2, 1]).nrows == 0
    assert Mat.zeros(p, 0, 2).spread([2, 1], width).nrows == 0


@pytest.mark.parametrize("nb,bw", [(13, 70), (603, 130)])
def test_mul2_words_matches_tables(nb, bw):
    # B's row count is not a multiple of 8, so the last table is short;
    # A's even byte columns are zero and its odd ones, the last included,
    # are random
    rng = np.random.default_rng(nb)
    F = field(2)
    a = rng.integers(0, 2, size=(40, nb))
    a[:, (np.arange(nb) // 8) % 2 == 0] = 0
    arows = F.from_array(a) + [0]
    brows = F.from_array(rng.integers(0, 2, size=(nb, bw)))
    got = _mul2_words(_rows_to_words(arows, nb), _rows_to_words(brows, bw))
    assert _words_to_rows(got) == F.from_array(
        np.vstack([a, np.zeros((1, nb), dtype=int)]) @ F.digits(brows, bw))


@pytest.mark.parametrize("nb", [1, 7, 8, 9, 511, 512, 513])
def test_mul2_matches_dense_product_mod_2(nb):
    # A and B row counts straddle byte boundaries and 256 and 512 rows;
    # half of A's rows have zero bytes between nonzero ones
    rng = np.random.default_rng(nb)
    F = field(2)
    b = rng.integers(0, 2, size=(nb, 70))
    for na in (0, 1, 2, 5, 17, 255, 256, 257):  # tables of 1, 2, 4, 8 bits
        a = rng.integers(0, 2, size=(na, nb))
        a[::2, (np.arange(nb) // 8) % 2 == 1] = 0
        got = _mul2(F.from_array(a), F.from_array(b))
        assert got == F.from_array((a @ b) % 2)
        got = Mat.from_array(2, a) @ Mat.from_array(2, b)
        assert np.array_equal(got.to_array(), (a @ b) % 2)


def test_one_row_apply_at_4096_columns_is_the_dense_product():
    # a one-row product builds two-entry tables, not 256-entry ones
    rng = np.random.default_rng(4096)
    b = rng.integers(0, 2, size=(4096, 4096), dtype=np.uint8)
    mb = Mat.from_array(2, b)
    for v in (rng.integers(0, 2, size=4096), np.eye(4096, dtype=int)[-1]):
        want = np.bitwise_xor.reduce(b[v == 1], axis=0)
        assert mb.apply(v.tolist()) == want.tolist()
        assert mb.apply(field(2).from_array(v[None, :])[0]) == \
            field(2).from_array(want[None, :])[0]


@pytest.mark.parametrize("p", [2, 3, 11])
def test_mat_equality_compares_whole_blocks(p):
    rng = np.random.default_rng(p)
    a = rng.integers(0, p, size=(5, 70))
    m = Mat.from_array(p, a)
    assert m == Mat.from_array(p, a.copy())
    assert hash(m) == hash(Mat.from_array(p, a.copy()))
    b = a.copy()
    b[4, 69] = (b[4, 69] + 1) % p
    assert m != Mat.from_array(p, b)
    assert m != Mat.from_array(p, a[:4]) and m != Mat.from_array(p, a[:, 1:])
    assert Mat.zeros(p, 0, 3) == Mat.zeros(p, 0, 3) != Mat.zeros(p, 0, 2)
    assert Mat.zeros(p, 2, 3) != Mat.zeros(7, 2, 3)  # the modulus


def test_every_gf2_product_runs_the_word_kernel(monkeypatch):
    calls = []

    def counted(A, B):
        calls.append((A.shape[0], B.shape[0]))
        return _mul2_words(A, B)

    monkeypatch.setattr(linalg, "_mul2_words", counted)
    shapes = [(0, 3, 2), (3, 0, 2), (3, 2, 0), (1, 1, 1), (2, 700, 1),
              (300, 600, 40)]
    for m, k, n in shapes:
        a, b = np.ones((m, k), dtype=int), np.ones((k, n), dtype=int)
        got = (Mat.from_array(2, a) @ Mat.from_array(2, b)).to_array()
        assert np.array_equal(got, (a @ b) % 2)
    assert calls == [(m, k) for m, k, _ in shapes]


def test_sparse_gf2_product_takes_one_xor_per_set_bit(monkeypatch):
    # a left factor with few set bits skips the word kernel, and gives the
    # product all the same
    rng = np.random.default_rng(8)
    a = np.zeros((40, 300), dtype=int)
    a[np.arange(40), rng.integers(0, 300, size=40)] = 1
    b = rng.integers(0, 2, size=(300, 90))
    calls = []
    monkeypatch.setattr(linalg, "_mul2_words",
                        lambda A, B: calls.append(1) or _mul2_words(A, B))
    got = (Mat.from_array(2, a) @ Mat.from_array(2, b)).to_array()
    assert np.array_equal(got, (a @ b) % 2) and not calls
    dense = (Mat.from_array(2, b.T) @ Mat.from_array(2, b)).to_array()
    assert np.array_equal(dense, (b.T @ b) % 2) and calls


def test_mul2_rejects_rows_outside_the_left_factor():
    with pytest.raises(ValueError):
        _mul2([4], [1, 1])  # bit 2 selects a third row of B
    with pytest.raises(ValueError):
        _mul2([-1], [1, 1])
    with pytest.raises(ValueError):
        _mul2([1], [])


# the largest prime with (p - 1)^2 < 2^53, and the next prime after it
_P_CAP = 94906249
_P_OVER = 94906297


def _exact_product(a, b, p):
    """Python-int reference for (a @ b) mod p."""
    return (a.astype(object) @ b.astype(object)) % p


def test_field_rejects_primes_past_the_exact_bound():
    assert (_P_CAP - 1) ** 2 < 2 ** 53 <= (_P_OVER - 1) ** 2
    # 2^61 - 1 is prime: the bound is checked before any trial division
    for p in (_P_OVER, 2147483659, 2 ** 61 - 1):
        with pytest.raises(ValueError, match="2\\^53"):
            field(p)
        with pytest.raises(ValueError):
            Mat.from_rows(p, [[1]])
    p = _P_CAP
    a = Mat.from_rows(p, [[p - 1, p - 1], [0, 1]])
    b = Mat.from_rows(p, [[p - 1, 0], [p - 1, 1]])
    assert (a @ b).to_array().tolist() == [[2, p - 1], [p - 1, 1]]


def test_exact_product_729_mod3():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 3, size=(729, 729))
    b = rng.integers(0, 3, size=(729, 729))
    got = (Mat.from_array(3, a) @ Mat.from_array(3, b)).to_array()
    # int64 is exact here (729 * 4 terms), so it checks the whole result;
    # rows at the tile edges are also checked against Python ints
    assert np.array_equal(got, (a @ b) % 3)
    rows = [0, 255, 256, 511, 512, 728]
    assert np.array_equal(got[rows], _exact_product(a[rows], b, 3))


@pytest.mark.parametrize("p", [30012019, _P_CAP])
@pytest.mark.parametrize("m,k,n", [(300, 37, 260), (3, 40, 257), (257, 5, 1)])
def test_exact_product_near_the_bound(p, m, k, n):
    # the inner dimension splits into chunks of 9 terms (p = 30012019) or
    # of 1 term (the cap); shapes straddle the 256 tiles; entries near
    # p - 1 make every partial sum large
    rng = np.random.default_rng(m + k + n)
    a = rng.integers(0, p, size=(m, k))
    b = rng.integers(0, p, size=(k, n))
    a[::2] = p - 1 - rng.integers(0, 3, size=a[::2].shape)
    b[:, ::3] = p - 1
    got = (Mat.from_array(p, a) @ Mat.from_array(p, b)).to_array()
    assert np.array_equal(got, _exact_product(a, b, p))


def test_exact_vecmat_long_inner_dimension():
    # past 1024 terms of (p - 1)^2 an int64 dot product wraps
    p = _P_CAP
    rng = np.random.default_rng(1)
    v = np.full(1100, p - 1)
    block = rng.integers(p - 4, p, size=(1100, 3))
    want = _exact_product(v[None, :], block, p)[0].tolist()
    assert Mat.from_array(p, block).apply(v.tolist()) == want


@pytest.mark.parametrize("p", [3, _P_CAP])
@pytest.mark.parametrize("m,k,n", [(0, 4, 3), (4, 0, 3), (0, 0, 0), (3, 4, 0)])
def test_exact_product_empty_shapes(p, m, k, n):
    a = Mat.from_array(p, np.ones((m, k), dtype=np.int64))
    b = Mat.from_array(p, np.ones((k, n), dtype=np.int64))
    got = (a @ b).to_array()
    assert got.shape == (m, n) and not got.any()


def test_odd_p_row_text_roundtrip_and_checks():
    p = 7
    m = Mat.from_rows(p, [[0, 6, 3], [1, 2, 5], [6, 6, 0]])
    texts = m.row_texts()
    assert texts == ["0 6 3", "1 2 5", "6 6 0"]
    assert Mat.from_texts(p, 3, texts) == m
    for bad, msg in [(["0 6 3", "1 2", "6 6 0"], "row 1: 2 entries, expected 3"),
                     (["0 6 7", "1 2 5", "6 6 0"], "row 0: entry outside 0..6"),
                     (["0 6 3", "1 2 5", "-1 6 0"], "row 2: entry outside 0..6"),
                     (["0 6 3", "1 2 99999999999999999999", "6 6 0"],
                      "row 1: entry outside 0..6"),
                     (["0 6 3", "1 x 5", "6 6 0"], "row 1: invalid literal")]:
        with pytest.raises(ValueError, match=msg):
            Mat.from_texts(p, 3, bad)


def test_odd_p_row_text_takes_only_what_row_text_writes():
    F = field(3)
    assert F.parse_row("0 1 2", 3).tolist() == [0, 1, 2]
    # np.array(tokens, dtype=np.int64) takes all of these
    for text in ("+1 1 2", "01 1 2", "\u0661 1 2", "0  1 2", " 0 1 2",
                 "0 1 2 ", "0\t1 2"):
        with pytest.raises(ValueError) as exc:
            F.parse_row(text, 3)
        assert str(exc.value) == "not 3 decimals joined by single spaces"
    assert field(11).parse_row("10 0", 2).tolist() == [10, 0]
    with pytest.raises(ValueError, match="not 2 decimals"):
        field(11).parse_row("1_0 0", 2)


_CODEC_PRIMES = [3, 5, 11, 101, 94906249]


def _codec_blocks(p):
    """Blocks the payload codec must write and read at p: random ones of
    several shapes, 0 rows, 1 column, all zeros and all p - 1."""
    rng = np.random.default_rng(p)
    shapes = [(0, 4), (1, 1), (5, 1), (3, 7), (40, 33)]
    for m, n in shapes:
        yield rng.integers(0, p, size=(m, n))
        # entries of every decimal width up to that of p - 1
        widths = rng.integers(0, len(str(p - 1)), size=(m, n))
        yield np.minimum(rng.integers(0, p, size=(m, n)) // 10 ** widths,
                         p - 1)
    yield np.zeros((6, 9), dtype=np.int64)
    yield np.full((6, 9), p - 1, dtype=np.int64)


@pytest.mark.parametrize("p", _CODEC_PRIMES)
def test_block_writer_joins_decimals_and_reader_inverts_it(p, monkeypatch):
    F = field(p)

    def parse_row(text, n):
        raise AssertionError("the block guess missed text the writer wrote")

    monkeypatch.setattr(F, "parse_row", parse_row)
    for block in _codec_blocks(p):
        m, n = block.shape
        texts = F.write_rows(block, n)
        assert texts == [" ".join(map(str, row)) for row in block.tolist()]
        back = F.read_rows(texts, n)
        assert back.shape == (m, n) and (back == block).all()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_block_codec_roundtrip_random(data):
    p = data.draw(st.sampled_from([2] + _CODEC_PRIMES))
    m = data.draw(st.integers(0, 12))
    n = data.draw(st.integers(1, 70))
    # entries at the ends of the range, where a decimal gains a digit
    pool = sorted(x for x in {0, 1, 9, 10, 99, 100, p - 2, p - 1} if x < p)
    entries = st.one_of(st.integers(0, p - 1), st.sampled_from(pool))
    block = np.array(data.draw(st.lists(st.lists(
        entries, min_size=n, max_size=n), min_size=m, max_size=m)),
        dtype=np.int64).reshape(m, n)
    F = field(p)
    rows = F.from_array(block)
    texts = F.write_rows(rows, n)
    if p == 2:
        want = ["%0*x" % ((n + 3) // 4, int("".join(map(str, row[::-1])), 2))
                for row in block.tolist()]
    else:
        want = [" ".join(map(str, row)) for row in block.tolist()]
    assert texts == want
    assert (F.digits(F.read_rows(texts, n), n) == block).all()


@pytest.mark.parametrize("p,texts,message", [
    # a tab for a space
    (7, ["0 6 3", "1\t2 5", "6 6 0"],
     "row 1: not 3 decimals joined by single spaces"),
    # a row end inside a row: the joined block still has 9 tokens
    (7, ["0 6 3", "1 2\n5", "6 6 0"],
     "row 1: not 3 decimals joined by single spaces"),
    # the last token of row 0 moved to the start of row 1
    (7, ["0 6", "3 1 2 5", "6 6 0"], "row 0: 2 entries, expected 3"),
    # the same, the other way round
    (7, ["0 6 3 1", "2 5", "6 6 0"], "row 0: 4 entries, expected 3"),
    # a 25-digit token, too wide for int64
    (7, ["0 6 3", "1 2 " + "1" * 25, "6 6 0"], "row 1: entry outside 0..6"),
    # 25 digits of leading zeros: the value fits, its text does not
    (7, ["0 6 3", "1 2 " + "0" * 25, "6 6 0"],
     "row 1: not 3 decimals joined by single spaces"),
    # an entry equal to p, which the writer never writes
    (7, ["0 6 3", "1 2 5", "6 7 0"], "row 2: entry outside 0..6"),
    (101, ["0 100 3", "101 2 5", "6 6 0"], "row 1: entry outside 0..100"),
    # a row that is not a string
    (7, ["0 6 3", 5, "6 6 0"], "row 1: not a string"),
    # upper-case hex: parse_row reads it, the writer writes lower case
    (2, ["a", "A", "0", "0"], "row 1: not the canonical text of its entries"),
    (2, ["a", "0x1", "0", "0"], "row 1: not 1 hex digits"),
    (2, ["a", "1", "-1", "0"], "row 2: not 1 hex digits"),
])
def test_block_reader_falls_back_to_the_row_messages(p, texts, message):
    with pytest.raises(ValueError) as exc:
        Mat.from_texts(p, len(texts), texts)
    assert str(exc.value) == message


def test_row_storage_stays_inside_linalg():
    # only linalg may know how rows and matrices are stored
    private = {"_d", "_wrap2", "_wrapp", "_pack2", "_unpack2"}
    found = []
    for path in sorted(Path(liepowers.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "attr", None) or getattr(node, "id", None) \
                or getattr(node, "name", None)
            if name in private:
                found.append("%s:%d %s" % (path.name, node.lineno, name))
    assert not found


def test_mat_apply_row_vector():
    m = Mat.from_rows(3, [[1, 1], [0, 2]])
    assert list(m.apply([1, 1])) == [1, 0]
    m2 = Mat.from_rows(2, [[0, 1], [1, 0]])
    assert m2.apply([1, 0]) == [0, 1]


def test_modulus_zero_rejected():
    # characteristic 0 has no row backend, and nothing else takes it
    with pytest.raises(ValueError):
        field(0)
    with pytest.raises(ValueError):
        Tensor(0, 2, 1, {(1,): 1})
    with pytest.raises(ValueError):
        DescentElement(2, 0, {(2,): 1})
    # past the exact bound the modulus is refused before trial division
    start = time.monotonic()
    with pytest.raises(ValueError, match="2\\^53"):
        gl_generators(2, 2 ** 61 - 1)
    assert time.monotonic() - start < 1
    with pytest.raises(ValueError):
        Mat.from_rows(0, [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        Mat.zeros(0, 2, 2)
    with pytest.raises(ValueError):
        Subspace.from_vectors(0, 2, [[1, 0]])


def test_subspace_membership_enumerated_gf2():
    # span over F_2^3; compare canonical membership with brute force
    vecs = [[1, 1, 0], [0, 1, 1]]
    s = Subspace.from_vectors(2, 3, vecs)
    assert s.dim == 2
    expect = set()
    for c1, c2 in itertools.product((0, 1), repeat=2):
        v = tuple((c1 * a + c2 * b) % 2 for a, b in zip(*vecs))
        expect.add(v)
    for v in itertools.product((0, 1), repeat=3):
        assert s.contains(list(v)) == (v in expect)


def test_subspace_equality_is_presentation_free():
    s1 = Subspace.from_vectors(3, 4, [[1, 2, 0, 1], [0, 0, 1, 1]])
    s2 = Subspace.from_vectors(3, 4, [[1, 2, 1, 2], [0, 0, 2, 2], [1, 2, 2, 0]])
    assert s1 == s2
    assert hash(s1) == hash(s2)


def _brute_intersection(p, amb, s1, s2):
    # enumerate all of F_p^amb; fine for tiny ambients
    pts = []
    for v in itertools.product(range(p), repeat=amb):
        if s1.contains(list(v)) and s2.contains(list(v)):
            pts.append(list(v))
    return Subspace.from_vectors(p, amb, pts)


def test_intersection_matches_enumeration():
    s1 = Subspace.from_vectors(2, 4, [[1, 0, 1, 0], [0, 1, 1, 1], [1, 1, 1, 0]])
    s2 = Subspace.from_vectors(2, 4, [[1, 1, 0, 1], [0, 0, 1, 1]])
    assert s1.intersect(s2) == _brute_intersection(2, 4, s1, s2)

    t1 = Subspace.from_vectors(3, 3, [[1, 0, 2], [0, 1, 1]])
    t2 = Subspace.from_vectors(3, 3, [[1, 1, 0], [0, 0, 1]])
    assert t1.intersect(t2) == _brute_intersection(3, 3, t1, t2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1).map(lambda i: (2, 3)[i]),
       st.lists(st.lists(st.integers(0, 6), min_size=5, max_size=5), max_size=4),
       st.lists(st.lists(st.integers(0, 6), min_size=5, max_size=5), max_size=4))
def test_intersection_properties(p, rows1, rows2):
    a = Subspace.from_vectors(p, 5, [[x % p for x in r] for r in rows1])
    b = Subspace.from_vectors(p, 5, [[x % p for x in r] for r in rows2])
    i = a.intersect(b)
    s = a.sum(b)
    assert i == b.intersect(a)
    assert s == b.sum(a)
    assert a.contains_space(i) and b.contains_space(i)
    assert s.contains_space(a) and s.contains_space(b)
    # dim formula
    assert s.dim + i.dim == a.dim + b.dim
    assert is_direct_sum([a, b], s) == (i.dim == 0)
    assert is_direct_sum([i, s], s) == (i.dim == 0)
    assert s.intersect(a) == a and i.sum(a) == a


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2), min_size=4, max_size=4),
                min_size=1, max_size=5),
       st.integers(0, 4))
def test_canonical_form_stable_under_shuffle(rows, seed):
    rows = [[x % 3 for x in r] for r in rows]
    s1 = Subspace.from_vectors(3, 4, rows)
    rng = np.random.default_rng(seed)
    alt = [list(r) for r in rows]
    rng.shuffle(alt)
    # also throw in random combinations of the originals
    if len(rows) >= 2:
        comb = [(a + 2 * b) % 3 for a, b in zip(rows[0], rows[1])]
        alt.append(comb)
    s2 = Subspace.from_vectors(3, 4, alt)
    assert s1 == s2


def test_direct_sum_check():
    a = Subspace.from_vectors(2, 4, [[1, 0, 0, 0]])
    b = Subspace.from_vectors(2, 4, [[0, 1, 1, 0]])
    c = Subspace.from_vectors(2, 4, [[0, 0, 0, 1]])
    whole = Subspace.from_vectors(2, 4, [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]])
    assert is_direct_sum([a, b, c], whole)
    overlap = Subspace.from_vectors(2, 4, [[1, 0, 0, 0], [0, 1, 1, 0]])
    assert not is_direct_sum([a, overlap], whole)
    assert not is_direct_sum([a, b], whole)
    # the dimensions of a and overlap add up to dim whole, but they meet
    # in a, so their sum is only overlap
    assert direct_sum(2, 4, [a, overlap]) == (overlap, 3)
    assert direct_sum(2, 4, [a, b, c]) == (whole, 3)
    assert direct_sum(2, 4, []) == (Subspace.zero(2, 4), 0)


def test_group_action_validates_generators():
    # the projection solver's group action refuses a singular generator
    # and a generator over another field
    sing = Mat.from_rows(2, [[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="invertible"):
        TensorAction([sing], 1)
    with pytest.raises(ValueError, match="shape/modulus"):
        TensorAction([Mat.identity(2, 2), Mat.identity(3, 2)], 1)


def _substitute_oracle(p, n, d, images, r, row):
    """substitute, one word at a time: the chained concatenation of the
    images of its letters, scaled and summed."""
    F = field(p)
    acc = F.zero(n ** (d * r))
    for idx, c in F.terms(row):
        img = F.unit(1, 0)
        for a in index_to_word(idx, len(images), r):
            img = concat_packed(p, n, 0, img, d, images[a - 1])
        acc = F.add(acc, F.scale(img, c))
    return acc


def test_substitute_matches_word_by_word_oracle():
    rng = np.random.default_rng(11)
    for p in (2, 3):
        F = field(p)
        for trial in range(12):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(0, 3))
            b = int(rng.integers(1, 4))
            # random rows, with zero rows and unit rows among them
            images = [F.from_array(rng.integers(0, p, size=(1, n ** d)))[0]
                      for _ in range(b)]
            images[int(rng.integers(b))] = F.zero(n ** d)
            images[int(rng.integers(b))] = F.unit(n ** d, int(
                rng.integers(n ** d)))
            for r in range(4):
                rows = list(F.from_array(
                    rng.integers(0, p, size=(3, b ** r))))
                rows.append(F.unit(b ** r, int(rng.integers(b ** r))))
                got = substitute(p, n, d, images, r, rows)
                want = [_substitute_oracle(p, n, d, images, r, row)
                        for row in rows]
                assert [F.key(v) for v in got] == [F.key(v) for v in want]


def test_equivariant_projection_infeasible_swap_gf2():
    # C_2 swapping coordinates of F_2^2; image = span{(1,1)}.
    # The only candidate sends both basis vectors to (1,1)+c(1,1); over F_2
    # idempotence and equivariance cannot both hold, and the solver's linear
    # system is inconsistent.
    swap = Mat.from_rows(2, [[0, 1], [1, 0]])
    act = TensorAction([swap], 1)
    dom = Subspace.from_vectors(2, 2, [[1, 0], [0, 1]])
    img = Subspace.from_vectors(2, 2, [[1, 1]])
    assert solve_equivariant_projection(act, img, dom, [0, 0]) is None
    assert affine_projection_family(act, img, dom, [0, 0]) is None


def test_equivariant_projection_swap_gf3():
    # same setup over F_3 succeeds: pi = [[2,2],[2,2]]
    swap = Mat.from_rows(3, [[0, 1], [1, 0]])
    act = TensorAction([swap], 1)
    dom = Subspace.from_vectors(3, 2, [[1, 0], [0, 1]])
    img = Subspace.from_vectors(3, 2, [[1, 1]])
    pi = solve_equivariant_projection(act, img, dom, [0, 0])
    assert pi is not None
    assert pi.to_array().tolist() == [[2, 2], [2, 2]]
    assert (pi @ pi) == pi
    assert (pi @ swap) == (swap @ pi)
    # kernel of pi is the complementary line span{(1,2)}
    assert list(pi.apply([1, 2])) == [0, 0]


def test_equivariant_projection_respects_preconditions():
    swap = Mat.from_rows(3, [[0, 1], [1, 0]])
    act = TensorAction([swap], 1)
    dom = Subspace.from_vectors(3, 2, [[1, 1]])
    img = Subspace.from_vectors(3, 2, [[1, 0]])
    with pytest.raises(ValueError):
        solve_equivariant_projection(act, img, dom, [0])  # outside domain
    bad_dom = Subspace.from_vectors(3, 2, [[1, 0]])  # not swap-invariant
    with pytest.raises(ValueError):
        solve_equivariant_projection(act, Subspace.zero(3, 2), bad_dom, [0])


def test_equivariant_projection_block_diagonal_action():
    # direct sum of a 2-dim swap module and a fixed line over F_5;
    # projecting onto the fixed line must kill the swap summand
    g = Mat.from_rows(5, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    act = TensorAction([g], 1)
    dom = Subspace.from_vectors(5, 3, np.eye(3, dtype=int).tolist())
    img = Subspace.from_vectors(5, 3, [[0, 0, 1]])
    pi = solve_equivariant_projection(act, img, dom, [0, 0, 0])
    assert pi is not None
    assert (pi @ pi) == pi
    assert (pi @ g) == (g @ pi)
    assert list(pi.apply([0, 0, 1])) == [0, 0, 1]
    # (1,1,0) spans the trivial part of the swap module; several equivariant
    # projections exist, every one of them keeps image = the fixed line
    assert list(pi.apply([1, 4, 0])) == [0, 0, 0]


def test_projection_with_weight_labels():
    # two one-dimensional label blocks; the labelled solve pins the
    # off-block entries to zero
    g = Mat.from_rows(3, [[2, 0], [0, 1]])
    act = TensorAction([g], 1)
    dom = Subspace.from_vectors(3, 2, [[1, 0], [0, 1]])
    img = Subspace.from_vectors(3, 2, [[1, 0]])
    pi = solve_equivariant_projection(act, img, dom, labels=["a", "b"])
    assert pi is not None
    assert pi.to_array().tolist() == [[1, 0], [0, 0]]


def test_image_row_crossing_labels_raises():
    # span{(1,1)} has no grade under the labels "a" and "b": the solver
    # refuses it rather than solving an ungraded system
    swap = Mat.from_rows(3, [[0, 1], [1, 0]])
    act = TensorAction([swap], 1)
    dom = Subspace.from_vectors(3, 2, [[1, 0], [0, 1]])
    img = Subspace.from_vectors(3, 2, [[1, 1]])
    for solve in (solve_equivariant_projection, affine_projection_family):
        with pytest.raises(ValueError, match="crosses labels"):
            solve(act, img, dom, labels=["a", "b"])


def test_graded_system_is_solved_alone():
    # e1 g = e1 and e2 g = e1 + 2 e2: the only invariant complement of
    # span{e1} is span{e1 + e2}, which crosses the grades "a" and "b", so
    # the equivariant projection exists but no weight-preserving one does
    g = Mat.from_rows(3, [[1, 0], [1, 2]])
    act = TensorAction([g], 1)
    dom = Subspace.from_vectors(3, 2, [[1, 0], [0, 1]])
    img = Subspace.from_vectors(3, 2, [[1, 0]])
    assert solve_equivariant_projection(
        act, img, dom, [0, 0]).to_array().tolist() == [[1, 0], [2, 0]]
    assert solve_equivariant_projection(act, img, dom,
                                        labels=["a", "b"]) is None
    # the affine family solves the same system, labels included
    base, dirs = affine_projection_family(act, img, dom, [0, 0])
    assert base.to_array().tolist() == [[1, 0], [2, 0]] and dirs == []
    assert affine_projection_family(act, img, dom, labels=["a", "b"]) is None


def test_affine_family_spans_all_solutions():
    # trivial action: every idempotent with the given image solves the
    # system; family dimension = dim(image) * codim
    ident = Mat.identity(2, 3)
    act = TensorAction([ident], 1)
    dom = Subspace.from_vectors(2, 3, np.eye(3, dtype=int).tolist())
    img = Subspace.from_vectors(2, 3, [[1, 0, 0]])
    base, dirs = affine_projection_family(act, img, dom, [0, 0, 0])
    assert (base @ base) == base
    assert len(dirs) == 2
    seen = set()
    for bits in itertools.product((0, 1), repeat=len(dirs)):
        m = base
        for b, d in zip(bits, dirs):
            if b:
                m = m + d
        seen.add(tuple(tuple(r) for r in m.to_array().tolist()))
        # all family members are projections onto the same image here
        assert (m @ m) == m
    assert len(seen) == 4


def test_word_index_roundtrip():
    n, r = 3, 4
    for idx in range(n ** r):
        w = index_to_word(idx, n, r)
        assert word_to_index(w, n) == idx
    assert word_to_index((1, 1, 1, 2), 3) == 1
    assert word_to_index((2, 1, 1, 1), 3) == 27
    assert word_weight((1, 3, 1, 2), 3) == (2, 1, 1)


def test_subspace_text_roundtrip():
    s = Subspace.from_vectors(2, 8, [[1, 0, 1, 0, 0, 0, 0, 0],
                                     [0, 1, 0, 0, 0, 0, 0, 1]])
    txt = "# demo\n" + format_subspace(s, 2, 3)
    assert txt.startswith("# demo\n2 2 3\n")
    back, n, r = parse_subspace(txt)
    assert (n, r) == (2, 3)
    assert back == s


def test_subspace_text_accepts_comments_and_blank_lines():
    txt = "# header comment\n\n3 2 2\n1 11 2 22  # trailing note\n"
    s, n, r = parse_subspace(txt)
    assert (n, r) == (2, 2)
    assert s.dim == 1
    assert s.contains([1, 0, 0, 2])


def test_subspace_text_roundtrip_with_two_digit_letters():
    # n > 9: letters are joined by '.', so letter 10 is not read as 1, 0
    n, r = 11, 2
    words = [(10, 11), (1, 10), (11, 1), (2, 3)]
    vecs = []
    for w in words:
        v = [0] * n ** r
        v[word_to_index(w, n)] = 1
        vecs.append(v)
    s = Subspace.from_vectors(3, n ** r, vecs)
    txt = format_subspace(s, n, r)
    assert "1 10.11" in txt and "1 1.10" in txt and "1 2.3" in txt
    back, bn, br = parse_subspace(txt)
    assert (bn, br) == (n, r)
    assert back == s
    with pytest.raises(ValueError, match="length 1, expected 2"):
        parse_subspace("3 11 2\n1 10\n")
    with pytest.raises(ValueError, match="letter 12 outside"):
        parse_subspace("3 11 2\n1 12.1\n")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_subspace_text_roundtrip_random(data):
    n = data.draw(st.integers(1, 11))
    r = data.draw(st.integers(1, 4))
    p = data.draw(st.sampled_from([2, 3]))
    N = n ** r
    F = field(p)
    rows = data.draw(st.lists(st.lists(
        st.tuples(st.integers(0, N - 1), st.integers(1, p - 1)),
        max_size=6), max_size=5))
    s = Subspace.from_packed(p, N, [F.from_terms(N, t) for t in rows])
    txt = format_subspace(s, n, r)
    # the text written word by word through format_terms
    want = ["%d %d %d" % (p, n, r)] + [
        format_terms([(index_to_word(j, n, r), c) for j, c in F.terms(row)],
                     n, r)
        for row in s.packed_rows()]
    assert txt == "\n".join(want) + "\n"
    back, bn, br = parse_subspace(txt, header=(p, n, r))
    assert (bn, br) == (n, r)
    assert back == s


@pytest.mark.parametrize("text,word,coeff", [
    ("2 2 2\n1 1\uff12\n", (1, 2), 1),    # a fullwidth digit in a word
    ("2 2 2\n+1 12\n", (1, 2), 1),         # a signed coefficient
    ("5 2 2\n\u0663 12\n", (1, 2), 3),     # an Arabic-Indic coefficient
    ("3 11 2\n1 01.3\n", (1, 3), 1),       # a letter with a leading zero
])
def test_subspace_text_accepts_non_canonical_tokens(text, word, coeff):
    s, n, r = parse_subspace(text)
    F = field(s.p)
    assert s == Subspace.from_packed(
        s.p, n ** r, [F.from_terms(n ** r, [(word_to_index(word, n), coeff)])])


def test_parse_rejects_bad_words():
    for text, message in [
            ("2 2 3\n1 12\n", "word '12' has length 2, expected 3"),
            ("2 2 2\n1 1.2\n", "word '1.2' has length 3, expected 2"),
            ("2 2 3\n1 132\n", "letter 3 outside alphabet 1..2"),
            ("2 2 2\n1 12\n1 02\n", "letter 0 outside alphabet 1..2"),
            ("3 11 2\n1 1.12\n", "letter 12 outside alphabet 1..11"),
            ("2 2 2\n1 12 1\n", "dangling token in term line: '1 12 1'"),
            ("3 2 2\n1 1 2 12\n", "word '1' has length 1, expected 2"),
            ("2 2 40\n1 1\n", "word '1' has length 1, expected 40"),
            ("2 2 -2\n1 1\n", "word '1' has length 1, expected -2"),
            ("3 -2 2\n1 11\n", "letter 1 outside alphabet 1..-2")]:
        with pytest.raises(ValueError) as exc:
            parse_subspace(text)
        assert str(exc.value) == message


def test_gf2_row_text_takes_only_ascii_hex_digits():
    F = field(2)
    assert F.parse_row("01ff", 16) == 0x1ff
    assert F.parse_row("1FFf", 16) == 0x1fff
    # int(text, 16) takes all of these
    for text in ("0x1f", "1_ff", " 1ff", "1\u0663ff", "10000"):
        with pytest.raises(ValueError) as exc:
            F.parse_row(text, 16)
        assert str(exc.value) == "not 4 hex digits"


# ---------------------------------------------------------------------------
# the spin solve against the Kronecker system and the dict loops


def _reference_system(prob, allowed):
    """The projection system as dict loops build it, one equation and one
    coefficient at a time: (unknown index, nonzero rows, rhs), every
    equation other than 0 = 0 in generator and equation order."""
    p, d, m = prob["p"], prob["d"], prob["m"]
    F, k = field(p), d - m
    unk = {}
    for u in range(k):
        for v in range(m):
            if allowed is None or allowed(u, v) is not None:
                unk[(u, v)] = len(unk)
    rows, rhs = [], []
    for block in prob["blocks"]:
        a, c, dd = (b.to_array() for b in block)
        for i in range(k):
            for j in range(m):
                coeff = {}
                for v in range(m):
                    coeff[(i, v)] = (coeff.get((i, v), 0) + int(a[v][j])) % p
                for u in range(k):
                    coeff[(u, j)] = (coeff.get((u, j), 0) - int(dd[i][u])) % p
                row = F.from_terms(len(unk), [(unk[key], f) for key, f
                                              in coeff.items() if key in unk])
                b = int(c[i][j]) % p
                if b or not F.is_zero(row):
                    rows.append(row)
                    rhs.append(b)
    return unk, rows, rhs


def _reference_solve(p, rows, rhs, nunk):
    """Particular solution and kernel read off the echelon term by term."""
    F = field(p)
    aug = [F.join(r, F.from_terms(1, [(0, b)]), nunk)
           for r, b in zip(rows, rhs)]
    ech, piv = F.echelon(aug, nunk + 1)
    if nunk in piv:
        return None
    part = []
    free = {j: [(j, 1)] for j in range(nunk) if j not in piv}
    for r, c in zip(ech, piv):
        for j, f in F.terms(r):
            if j == nunk:
                part.append((c, f))
            elif j in free:
                free[j].append((c, -f))
    return (F.from_terms(nunk, part),
            [F.from_terms(nunk, t) for t in free.values()])


def _csr_equations(p, system, nunk):
    """(packed rows over the unknowns, right-hand sides) of a CSR system
    of ``kronecker_projection_system``, after checking its form: int64
    row starts, int32 columns and coefficients in the narrowest unsigned
    dtype holding p - 1; each row nonempty, its columns ascending up to
    the right-hand side at nunk, and no coefficient 0."""
    ptr, cols, vals = system
    assert (ptr.dtype, cols.dtype, vals.dtype) == (
        np.int64, np.int32, np.min_scalar_type(p - 1))
    assert ptr[0] == 0 and ptr[-1] == len(cols) == len(vals)
    aug = np.zeros((len(ptr) - 1, nunk + 1), dtype=np.int64)
    for e in range(len(ptr) - 1):
        at = slice(ptr[e], ptr[e + 1])
        assert len(cols[at]) and (np.diff(cols[at]) > 0).all()
        assert cols[at][-1] <= nunk and (vals[at] > 0).all()
        assert (vals[at] < p).all()
        aug[e, cols[at]] = vals[at]
    return list(field(p).from_array(aug[:, :nunk])), aug[:, nunk].tolist()


def _reference_ansatz(prob, labels):
    """The graded ansatz from per-row label sets, or None: a function of
    (u, v) that gives the label of X[u, v] when it keeps the grading and
    None otherwise."""
    F = field(prob["p"])
    lab_free = [labels[j] for j in prob["free"]]
    lab_im = []
    for r in prob["image"].packed_rows():
        ls = {labels[j] for j, _ in F.terms(r)}
        lab_im.append(ls.pop() if len(ls) == 1 else None)
    if None in lab_im:
        return None
    return lambda u, v: lab_free[u] if lab_free[u] == lab_im[v] else None


def _elimination_order(unk, label):
    """The unknowns (u, v) of unk in elimination order: by the number of
    unknowns of their label, largest first, then by label, by v descending
    and by u; without labels every unknown has the one label 0."""
    label = label or (lambda u, v: 0)
    size = collections.Counter(label(u, v) for u, v in unk)
    return sorted(unk, key=lambda uv: (-size[label(*uv)], label(*uv),
                                       -uv[1], uv[0]))


def _random_invertible(rng, p, n):
    while True:
        a = rng.integers(0, p, size=(n, n))
        if rref(Mat.from_array(p, a))[1] == n:
            return a


def _random_projection_case(rng, p, d, m, split):
    """An action on F_p^d with an invariant m-dimensional image, and a
    0/1 label per coordinate.  The image rows mostly sit inside one label,
    so a graded ansatz often exists.  With ``split`` the action permutes
    bases of the image and of a random invariant complement, so that
    equivariant projections exist and usually form a family."""
    labels = rng.integers(0, 2, size=d).tolist()
    while True:
        rows = rng.integers(0, p, size=(m, d))
        if rng.random() < 0.75:
            for row in rows:
                row[np.array(labels) != rng.integers(0, 2)] = 0
        image = Subspace.from_vectors(p, d, rows)
        if image.dim == m:
            break
    while True:
        rest = (rng.integers(0, p, size=(d - m, d)) if split else
                np.eye(d, dtype=np.int64)[[j for j in range(d)
                                           if j not in image.pivots]])
        P = Mat.from_array(p, np.vstack([image.basis_matrix().to_array(),
                                         rest]).reshape(d, d))
        if rref(P)[1] == d:
            break
    gens = []
    for _ in range(rng.integers(1, 3)):
        # block lower triangular over the rows of P: the image is fixed
        g = np.zeros((d, d), dtype=np.int64)
        if split:
            g[:m, :m] = np.eye(m, dtype=np.int64)[rng.permutation(m)]
            g[m:, m:] = np.eye(d - m, dtype=np.int64)[rng.permutation(d - m)]
        else:
            g[:m, :m] = _random_invertible(rng, p, m)
            g[m:, m:] = _random_invertible(rng, p, d - m)
            g[m:, :m] = rng.integers(0, p, size=(d - m, m))
        gens.append(_invert(P) @ Mat.from_array(p, g) @ P)
    domain = Subspace.from_vectors(p, d, np.eye(d, dtype=np.int64))
    return TensorAction(gens, 1), image, domain, labels


# at 251 and 65521 a sum of narrow coefficients would wrap in their dtype
@pytest.mark.parametrize("p", [2, 3, 5, 251, 65521])
def test_projection_system_matches_dict_loop_reference(p):
    # the Kronecker system against the dict loops, and the spin solve's
    # canonical (particular, kernel) against the solve of both
    rng = np.random.default_rng(100 + p)
    F = field(p)
    graded = families = 0
    for t in range(48):
        d = 1 + t % 6
        m = (0, d, int(rng.integers(0, d + 1)))[t % 3]  # k = 0 and m = 0 too
        action, image, domain, labels = _random_projection_case(
            rng, p, d, m, split=t % 4 != 3)
        # one label for every coordinate: the ungraded system
        ungraded = _projection_problem(action, image, domain, [0] * d)
        assert not any(lab.any() for lab in ungraded["labels"])
        allowed = _reference_ansatz(ungraded, labels)
        attempts = [(ungraded, None)]
        if allowed is None:
            with pytest.raises(ValueError, match="crosses labels"):
                _projection_problem(action, image, domain, labels)
        else:
            attempts.append((_projection_problem(action, image, domain,
                                                 labels), allowed))
            graded += 1
        for prob, ref in attempts:
            index, nunk, system = kronecker_projection_system(prob)
            assert np.array_equal(index, _unknown_index(prob))
            rows, rhs = _csr_equations(p, system, nunk)
            unk, ref_rows, ref_rhs = _reference_system(prob, ref)
            assert nunk == len(unk)
            # the reference numbers the unknowns row by row; the
            # assembly numbers them in elimination order
            order = _elimination_order(unk, ref)
            assert {(int(u), int(v)): int(index[u, v])
                    for u, v in zip(*np.nonzero(index >= 0))} == \
                {uv: e for e, uv in enumerate(order)}
            renumbered = F.take(ref_rows, nunk, [unk[uv] for uv in order])
            assert [(F.key(r), b) for r, b in zip(rows, rhs)] == \
                [(F.key(r), b) for r, b in zip(renumbered, ref_rhs)]
            want = _reference_solve(p, ref_rows, ref_rhs, nunk)
            for got in (_solve_linear_system(p, system, nunk),
                        _spin_solution(prob, index)):
                assert (got is None) == (want is None)
                if got is not None:
                    got = _canonical_solution(p, *got, index)
                    assert F.key(got[0]) == F.key(want[0])
                    assert list(map(F.key, got[1])) == \
                        list(map(F.key, want[1]))
            families += bool(rows) and want is not None and bool(want[1])
    assert graded >= 10 and families >= 5


@pytest.mark.parametrize("p", [2, 3, 5, 251, 65521])
def test_projection_from_x_matches_adapted_basis(p):
    # the closed form Y @ image against T^-1 [[I, 0], [X, 0]] T, where T is
    # the image rows followed by the unit rows at the free columns
    rng = np.random.default_rng(200 + p)
    F = field(p)
    for t in range(30):
        d = 1 + t % 6
        m = (0, d, int(rng.integers(0, d + 1)))[t % 3]
        action, image, domain, labels = _random_projection_case(
            rng, p, d, m, split=t % 2 == 0)
        prob = _projection_problem(action, image, domain, [0] * d)
        index = _unknown_index(prob)
        nunk = int(np.count_nonzero(index >= 0))
        T = Mat.from_packed(p, prob["image"].packed_rows() +
                            [F.unit(d, int(j)) for j in prob["free"]], d)
        for _ in range(3):
            x = rng.integers(0, p, size=nunk)
            pad = np.zeros((d, d), dtype=np.int64)
            pad[:m, :m] = np.eye(m, dtype=np.int64)
            pad[m:, :m] = x.reshape(d - m, m)
            want = _invert(T) @ Mat.from_array(p, pad) @ T
            got = _projection_from_x(prob, F.from_array([x])[0], index)
            assert got == want


def _random_system(rng, p, kind):
    """(aug, nunk) of a random system with the given kind: aug holds the
    coefficients of the unknowns and then the right-hand side, one row
    per equation.  'consistent' and 'rank-deficient' have a solution, the
    latter with a kernel of half the unknowns or more, 'inconsistent' has
    none and 'zero-width' has no unknown."""
    nunk = 0 if kind == "zero-width" else int(rng.integers(1, 12))
    nrows = int(rng.integers(0, 14))
    a = rng.integers(0, p, size=(nrows, nunk))
    if kind == "rank-deficient" and nrows:
        basis = rng.integers(0, p, size=(max(1, nunk // 2), nunk))
        a = rng.integers(0, p, size=(nrows, len(basis))) @ basis % p
    a[rng.random(a.shape) < 0.5] = 0  # sparse rows, zero rows among them
    x = rng.integers(0, p, size=nunk)
    rhs = a @ x % p
    if kind in ("inconsistent", "zero-width") and nrows:
        rhs[int(rng.integers(nrows))] += 1 + int(rng.integers(p - 1))
        rhs %= p
    return np.column_stack((a.reshape(nrows, nunk), rhs)), nunk


@pytest.mark.parametrize("p", [2, 3, 5])
def test_canonical_solution_matches_the_reference_order(p):
    # the system solved with its unknowns in a random order and its
    # equations shuffled, then canonicalised, gives the answer of the
    # solve in reference order
    rng = np.random.default_rng(300 + p)
    F = field(p)
    seen = collections.Counter()
    for t in range(160):
        kind = ("consistent", "inconsistent", "rank-deficient",
                "zero-width")[t % 4]
        aug, nunk = _random_system(rng, p, kind)
        # index[u, v] numbers the kept unknowns, the others are -1; its
        # reference order reads the kept entries row by row
        keep = np.zeros(2 * nunk + 1, dtype=bool)
        keep[rng.choice(len(keep), size=nunk, replace=False)] = True
        index = np.full(len(keep), -1, dtype=np.intp)
        index[keep] = rng.permutation(nunk)
        index = index.reshape(-1, 1) if t % 2 else index.reshape(1, -1)
        shuffled = aug[rng.permutation(len(aug))][
            :, np.append(np.argsort(index[index >= 0]), nunk)]
        got = _solve_linear_system(p, _csr(shuffled), nunk)
        want = _solve_linear_system(p, _csr(aug), nunk)
        assert (got is None) == (want is None)
        if want is None:
            seen["none"] += 1
            continue
        got = _canonical_solution(p, *got, index)
        assert F.key(got[0]) == F.key(want[0])
        assert list(map(F.key, got[1])) == list(map(F.key, want[1]))
        seen["kernel"] += len(want[1]) >= 2
        seen["part"] += not F.is_zero(want[0]) and bool(want[1])
    assert min(seen.values()) >= 10, seen


def test_projection_system_chunks_agree(monkeypatch):
    # the spin's relations reach their echelon a chunk at a time; one
    # relation per chunk gives the same solution
    rng = np.random.default_rng(7)
    action, image, domain, labels = _random_projection_case(rng, 3, 5, 2,
                                                            split=True)
    prob = _projection_problem(action, image, domain, [0] * 5)
    index = _unknown_index(prob)
    whole = _spin_solution(prob, index)
    assert whole is not None
    blocks = []
    absorb = linalg._absorb

    def seen(F, p, ech, piv, block):
        blocks.append(len(block))
        return absorb(F, p, ech, piv, block)

    monkeypatch.setattr(linalg, "_absorb", seen)
    monkeypatch.setattr(linalg, "_CHUNK", 1)
    parts = _spin_solution(prob, index)
    assert len(blocks) > 1  # more than one chunk of relations
    F = field(3)
    assert F.key(whole[0]) == F.key(parts[0])
    assert list(map(F.key, whole[1])) == list(map(F.key, parts[1]))


def test_solve_packs_one_chunk_of_equations_at_a_time(monkeypatch):
    # the family's spin relations reach their echelon a chunk at a time,
    # the solve gets that echelon, at most nunk + 1 rows, as CSR arrays,
    # and the GF(2) echelon packs no more equations at once than one
    # chunk of _CHUNK entries
    from liepowers.decompose import construct_B_family
    F = field(2)
    packed, systems, blocks = [], [], []
    from_triples, solve = type(F).from_triples, linalg._solve_linear_system
    absorb = linalg._absorb

    def counted(self, nrows, ncols, *triples):
        packed.append((nrows, ncols))
        return from_triples(self, nrows, ncols, *triples)

    def seen(p, system, nunk):
        systems.append((system, nunk))
        return solve(p, system, nunk)

    def absorbed(F, p, ech, piv, block):
        blocks.append(len(block))
        return absorb(F, p, ech, piv, block)

    monkeypatch.setattr(type(F), "from_triples", counted)
    monkeypatch.setattr(linalg, "_solve_linear_system", seen)
    monkeypatch.setattr(linalg, "_absorb", absorbed)
    monkeypatch.setattr(linalg, "_CHUNK", 1 << 10)
    construct_B_family(2, 2, 3, 9)
    assert systems and all(isinstance(a, np.ndarray)
                           for system, _ in systems for a in system)
    assert all(len(system[0]) - 1 <= nunk + 1 for system, nunk in systems)
    assert len(blocks) > 1 and sum(blocks) > max(
        len(system[0]) - 1 for system, _ in systems)
    assert all(nrows <= max(1, (1 << 10) // ncols) for nrows, ncols in packed)
    assert sum(nrows for nrows, _ in packed) >= sum(
        len(system[0]) - 1 for system, _ in systems)


def test_solve_streams_equations_in_the_gf2_echelon_order(monkeypatch):
    # read off the CSR, the solve's order is the one _GF2.echelon sorts
    # the packed augmented rows into (descending lowest column, stable,
    # empty rows last), so the elimination makes the same XORs
    rng = np.random.default_rng(11)
    aug = rng.integers(0, 2, size=(60, 31))
    aug[rng.random(aug.shape) < 0.85] = 0
    fed = []
    rref2 = linalg._rref2_ints

    def seen(vecs):
        fed.append(list(vecs))
        return rref2(fed[-1])

    monkeypatch.setattr(linalg, "_rref2_ints", seen)
    monkeypatch.setattr(linalg, "_CHUNK", 64)  # two equations a chunk
    _solve_linear_system(2, _csr(aug), 30)
    field(2).echelon(field(2).from_array(aug), 31)
    assert fed[0] == fed[1] and 0 in fed[0]


def _sparse_rows(rng, nrows, width, bits):
    arr = np.zeros((nrows, width), dtype=np.int64)
    for row in arr:
        row[rng.choice(width, size=bits, replace=False)] = 1
    return field(2).from_array(arr)


@pytest.mark.parametrize("nrows,width,dense", [
    (600, 700, False), (400, 700, False), (700, 520, False),
    (520, 520, True), (300, 300, True), (600, 600, True),
])
def test_gf2_echelon_matches_odd_p_kernel(nrows, width, dense):
    # sparse and dense rows on both sides of 512 rows and columns; the
    # reference is the int64 elimination of odd p, run at p = 2
    F = field(2)
    rng = np.random.default_rng(nrows * width)
    if dense:
        rows = F.from_array(rng.integers(0, 2, size=(nrows, width)))
    else:
        rows = _sparse_rows(rng, nrows, width, 3)
    rows += [rows[0] ^ rows[1], 0, rows[2]]  # rank-deficient
    a, piv = _echp(F.digits(rows, width), 2)
    assert F.echelon(rows, width) == (F.from_array(a[:len(piv)]), piv)


# ---------------------------------------------------------------------------
# odd-p rows in the narrowest unsigned dtype

_NARROW_PRIMES = [3, 251, 257, 65521, _P_CAP]


@pytest.mark.parametrize("p", _NARROW_PRIMES)
def test_odd_p_rows_are_stored_in_the_narrowest_unsigned_dtype(p):
    # uint8 below 257, uint16 up to 65521, uint32 above; entries below p
    F, want = field(p), np.min_scalar_type(p - 1)
    rng = np.random.default_rng(p % 1000)
    arr = rng.integers(0, p, size=(5, 9))
    arr[0] = p - 1
    block = F.from_array(arr)
    ech, piv = F.echelon(block, 9)
    texts = F.write_rows(block, 9)
    made = {
        "zero": F.zero(9), "unit": F.unit(9, 4),
        "stack": F.stack(list(block), 9), "from_array": block,
        "from_array negative": F.from_array(arr - p),
        "coerce": F.coerce(arr[1].tolist()),
        "from_triples": F.from_triples(2, 9, np.array([0, 1]), np.array(
            [3, 8]), np.array([p - 1, -1])),
        "from_terms": F.from_terms(9, [(2, p - 1), (2, p - 1), (5, -1)]),
        "take": F.take(block, 9, [8, 0, 3]), "digits": F.digits(block, 9),
        "add": F.add(block[0], block[1]), "sub": F.sub(block[1], block[0]),
        "scale": F.scale(block[0], -1),
        "concat": F.concat(block[0], block[1], 9),
        "reduce": F.reduce(ech, piv, [block[0], F.zero(9)])[0],
        "matmul": F.matmul(block, F.from_array(rng.integers(0, p, (9, 4)))),
        "tensor_times": F.tensor_times(block, rng.integers(0, p, (3, 3)),
                                       3, 2),
        "echelon": ech,
        "echelon_csr": F.echelon_csr(_csr(arr), np.arange(5), 9)[0],
        "read_rows": F.read_rows(texts, 9),
        "parse_row": F.parse_row(texts[0], 9),
    }
    for name, got in made.items():
        assert got.dtype == want and int(got.max(initial=0)) < p, name
    assert F.dtype == want


def _reference_rref(a, p):
    """Python-int Gauss-Jordan: (canonical nonzero rows, pivots)."""
    a = [[int(x) % p for x in row] for row in a]
    piv = []
    for c in range(len(a[0])):
        r = len(piv)
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for j, row in enumerate(a):
            if j != r and row[c]:
                a[j] = [(x - row[c] * y) % p for x, y in zip(row, a[r])]
        piv.append(c)
    return a[:len(piv)], piv


@pytest.mark.parametrize("p", [251, 65521])
def test_odd_p_arithmetic_on_rows_of_p_minus_1_matches_int64(p):
    # uint8 (p = 251) and uint16 (p = 65521) arithmetic on these rows
    # would wrap; every kernel must widen before it computes
    F = field(p)
    a = np.full((4, 6), p - 1, dtype=np.int64)
    a[np.arange(4), np.arange(1, 5)] = np.arange(4)  # rank 4
    x, y = a[0], a[1]
    rows = F.from_array(a)
    u, v = rows[0], rows[1]
    assert np.array_equal(F.add(u, v), (x + y) % p)
    assert np.array_equal(F.sub(u, v), (x - y) % p)
    assert np.array_equal(F.scale(u, p - 1), x * (p - 1) % p)
    assert np.array_equal(F.concat(u, v, 6), np.outer(x, y).ravel() % p)
    ech, piv = _reference_rref(a, p)
    got, got_piv = F.echelon(rows, 6)
    assert got.tolist() == ech and got_piv == piv
    w = np.full(6, p - 1, dtype=np.int64)
    want = (w - w[piv] @ np.array(ech, dtype=np.int64)) % p
    assert np.array_equal(F.reduce(got, piv, [F.from_array(w)])[0], want)
    b = np.full((6, 3), p - 1, dtype=np.int64)
    assert np.array_equal(F.matmul(rows, F.from_array(b)),
                          _exact_product(a, b, p))
    g = np.full((3, 3), p - 1, dtype=np.int64)
    t = np.full((2, 9), p - 1, dtype=np.int64)
    t[1, ::2] = 1
    assert np.array_equal(F.tensor_times(F.from_array(t), g, 3, 2),
                          _exact_product(t, np.kron(g, g), p))


@pytest.mark.parametrize("p", [131, 251, 32771, 65521])
def test_solve_at_wide_primes_matches_a_python_int_solve(p):
    # the kernel and particular solution negate echelon entries; negating
    # unsigned uint8 (p > 127) or uint16 (p > 32767) entries wraps
    rng = np.random.default_rng(p)
    for t in range(24):
        aug, nunk = _random_system(rng, p, ("consistent", "rank-deficient",
                                            "inconsistent")[t % 3])
        ech, piv = _reference_rref(aug, p) if len(aug) else ([], [])
        got = _solve_linear_system(p, _csr(aug), nunk)
        if nunk in piv:
            assert got is None
            continue
        free = [j for j in range(nunk) if j not in piv]
        part = [0] * nunk
        kernel = [[int(j == f) for j in range(nunk)] for f in free]
        for row, c in zip(ech, piv):
            part[c] = row[nunk]
            for vec, f in zip(kernel, free):
                vec[c] = -row[f] % p
        assert got[0].tolist() == part
        assert [v.tolist() for v in got[1]] == kernel


def test_odd_p_echelon_updates_touched_rows_a_chunk_at_a_time(monkeypatch):
    # with a small chunk, the rows a pivot touches span many chunks (two
    # rows each at the first column); the result is the same
    rng = np.random.default_rng(5)
    a = rng.integers(0, 5, size=(40, 30)).astype(np.uint8)
    a[:, 7] = (a[:, 2] + 2 * a[:, 5]) % 5  # a non-pivot column
    whole, piv = _echp(a.copy(), 5)
    monkeypatch.setattr(linalg, "_CHUNK", 64)
    block = a.copy()
    parts, piv_parts = _echp(block, 5)
    assert parts is block and parts.dtype == np.uint8  # in place, narrow
    assert piv_parts == piv and 7 not in piv
    assert np.array_equal(parts, whole)
    assert [list(r) for r in parts[:len(piv)]] == _reference_rref(a, 5)[0]


def test_odd_p_family_stores_every_block_narrow():
    from liepowers.decompose import construct_B_family
    res = construct_B_family(3, 3, 2, 4)
    for q, data in res.degrees.items():
        for block in (data.basis.packed_rows(), data.projection.packed_rows(),
                      data.complement.packed_rows()):
            assert all(row.dtype == np.uint8 for row in block), q
