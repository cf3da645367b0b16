"""Free Lie algebra machinery inside tensor powers.

Words are tuples over the alphabet 1..n and index the monomial basis of
T^r(V) big-endian in base n.  A bracketed Lyndon word is built directly
as a packed row of GF(p), one packed bracket per step of its standard
factorization, and memoized per (p, n, word); bracketed Lyndon words are
triangular with unit diagonal against the lex order, so they stay
independent mod any prime.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, product

from .combinat import partitions, witt_dim
from .linalg import (
    Mat,
    Subspace,
    _digit_table,
    field,
    substitute,
)
from .modrep import TensorAction, module_closure

__all__ = [
    "lyndon_words",
    "standard_factorization",
    "lyndon_packed",
    "lie_power",
    "pbw_monomials",
    "pbw_monomial_vector",
    "filtration_subspace",
    "truncate_vector",
    "truncate_subspace",
    "symmetrize_extend",
    "concat_packed",
    "concat_all",
    "bracket_packed",
    "dynkin_matrix",
    "subalgebra_generated",
    "bracket_products",
    "lazard_pieces",
]


# ---------------------------------------------------------------------------
# Lyndon words and bracketed expansions


@lru_cache(maxsize=None)
def lyndon_words(n, r):
    """Lyndon words of length exactly r over 1..n, in lex order (Duval)."""
    if n < 1:
        raise ValueError("the alphabet needs at least one letter, got n=%r"
                         % (n,))
    out = []
    w = [1]
    while True:
        if len(w) == r:
            out.append(tuple(w))
        # extend w periodically to length r, then bump the last free letter
        x = [w[i % len(w)] for i in range(r)]
        while x and x[-1] == n:
            x.pop()
        if not x:
            break
        x[-1] += 1
        w = x
    return tuple(out)


def standard_factorization(w):
    """w = u v with v the lex-least proper suffix; for Lyndon w both halves
    are again Lyndon."""
    if len(w) < 2:
        raise ValueError("need length at least 2")
    v = min(w[i:] for i in range(1, len(w)))
    return w[: len(w) - len(v)], v


@lru_cache(maxsize=None)
def lyndon_packed(p, n, w):
    """Packed row of the bracketed Lyndon word w in T^|w|(V_n) over GF(p):
    a letter is a unit row, and w = uv (its standard factorization) is
    the packed bracket of u and v.  The row is shared by every caller."""
    if len(w) == 1:
        return field(p).unit(n, w[0] - 1)
    u, v = standard_factorization(w)
    return bracket_packed(p, n, len(u), lyndon_packed(p, n, u),
                          len(v), lyndon_packed(p, n, v))


@lru_cache(maxsize=None)
def lie_power(p, n, r):
    """The degree-r homogeneous piece of the free Lie algebra, as a
    subspace of T^r(V_n), spanned by the packed bracketed Lyndon words
    of length r."""
    s = Subspace.from_packed(p, n ** r, [lyndon_packed(p, n, w)
                                         for w in lyndon_words(n, r)])
    # triangularity of bracketed Lyndon words keeps them independent mod p
    if s.dim != witt_dim(n, r):
        raise ArithmeticError(
            "bracketed Lyndon words of degree %d span dimension %d, "
            "expected %d" % (r, s.dim, witt_dim(n, r)))
    return s


# ---------------------------------------------------------------------------
# PBW monomials and the lexicographic filtration


@lru_cache(maxsize=None)
def pbw_monomials(n, lam):
    """All products of bracketed Lyndon words of type lam, one per multiset
    of factors, factors sorted by (degree, word)."""
    lam = tuple(sorted(lam, reverse=True))
    by_size = {}
    for part in lam:
        by_size[part] = by_size.get(part, 0) + 1
    pools = []
    for size in sorted(by_size):
        pools.append(list(combinations_with_replacement(lyndon_words(n, size),
                                                        by_size[size])))
    out = []
    for pick in product(*pools):
        factors = tuple(w for grp in pick for w in grp)
        out.append(factors)
    return tuple(sorted(out))


def pbw_monomial_vector(p, n, monomial):
    """Packed vector of a product of bracketed Lyndon words."""
    return concat_all(p, n, [(len(w), lyndon_packed(p, n, w))
                             for w in monomial])


@lru_cache(maxsize=None)
def filtration_subspace(p, n, r, lam):
    """Span of all PBW monomials whose type is >= lam in lex.

    These spans decrease as lam grows; the top one is the Lie power
    itself, the bottom one is all of T^r, and consecutive quotients have
    the higher Lie module dimensions.  Reordering a product only creates
    commutator terms of lex-larger type, which keeps each span closed
    under the substitution action.
    """
    lam = tuple(sorted(lam, reverse=True))
    if sum(lam) != r:
        raise ValueError(f"{lam} is not a partition of {r}")
    return Subspace.from_packed(p, n ** r, [
        pbw_monomial_vector(p, n, mono)
        for mu in partitions(r) if mu >= lam for mono in pbw_monomials(n, mu)])


# ---------------------------------------------------------------------------
# alphabet truncation and letter symmetrization


def truncate_vector(p, n_from, n_to, r, vec):
    """Image under the substitution killing letters above n_to, re-indexed
    into T^r(V_{n_to})."""
    if n_to > n_from:
        raise ValueError("truncation cannot grow the alphabet")
    return _rename(p, n_to, r, [a if a <= n_to else None
                                for a in range(1, n_from + 1)], [vec])[0]


def truncate_subspace(space, n_from, n_to, r):
    return Subspace.from_packed(space.p, n_to ** r, [
        truncate_vector(space.p, n_from, n_to, r, v)
        for v in space.packed_rows()])


def _rename(p, n, r, letters, rows):
    """Rows of T^r over len(letters) letters with letter a renamed
    letters[a - 1], a letter of 1..n, or sent to 0 where that is None."""
    F = field(p)
    images = [F.zero(n) if a is None else F.unit(n, a - 1) for a in letters]
    return substitute(p, n, 1, images, r, rows)


def symmetrize_extend(space, n_from, n_to, r):
    """Sum of all letter-permutation images of ``space`` inside
    T^r(V_{n_to}).

    The embedded space is closed under the substitution action of
    Sym(n_to), generated by the transposition of the first two letters
    and the full cycle.  Spans such as Lie powers or images of descent
    idempotents are already permutation-stable, so for those inputs
    truncating the result back to n_from letters recovers the original
    space.
    """
    p = space.p
    F = field(p)
    swap = list(range(n_to))
    if n_to >= 2:
        swap[0], swap[1] = swap[1], swap[0]
    cyc = list(range(1, n_to)) + [0]
    gens = [Mat.from_packed(p, [F.unit(n_to, j) for j in perm], n_to)
            for perm in (swap, cyc)]
    seed = Subspace.from_packed(p, n_to ** r, _rename(
        p, n_to, r, range(1, n_from + 1), space.packed_rows()))
    return module_closure(seed, TensorAction(gens, r))


# ---------------------------------------------------------------------------
# packed concatenation and bracket


def concat_packed(p, n, r1, v1, r2, v2):
    """Concatenation product on packed vectors: index(uv) = index(u)*n^r2
    + index(v)."""
    return field(p).concat(v1, v2, n ** r2)


def concat_all(p, n, pieces):
    """Concatenation product, in order, of a nonempty list of (degree,
    packed row) pieces over V_n.  It is formed from the right, so each
    step spreads one piece over the running product."""
    F = field(p)
    deg, out = pieces[-1]
    for d, row in reversed(pieces[:-1]):
        out = F.concat(row, out, n ** deg)
        deg += d
    return out


def bracket_packed(p, n, r1, v1, r2, v2):
    a = concat_packed(p, n, r1, v1, r2, v2)
    b = concat_packed(p, n, r2, v2, r1, v1)
    return field(p).sub(a, b)


# ---------------------------------------------------------------------------
# left-normed bracketing


@lru_cache(maxsize=None)
def dynkin_matrix(p, n, r):
    """Matrix (rows act on the right) of w = a_1...a_r |->
    [...[[a_1,a_2],a_3]...,a_r].

    On the degree-r Lie piece this operator is multiplication by r, so
    dividing by r (possible when p does not divide r) yields a projection
    certifying the Lie power as a direct summand.
    """
    F = field(p)
    rows = []
    for w in _digit_table(n, r).tolist():
        cur = F.unit(n, w[0])
        for deg, a in enumerate(w[1:], 1):
            cur = bracket_packed(p, n, deg, cur, 1, F.unit(n, a))
        rows.append(cur)
    return Mat.from_packed(p, rows, n ** r)


# ---------------------------------------------------------------------------
# graded subalgebra closure


def subalgebra_generated(p, n, generators, max_degree):
    """Graded Lie subalgebra generated by packed homogeneous elements.

    ``generators`` maps degree -> list of packed vectors.  Returns degree
    -> Subspace for every degree up to max_degree where the subalgebra is
    nonzero.  Degree d is spanned by the generators of degree d and the
    brackets [L_i, L_j] with i + j = d, built degree by degree.  No
    package code calls it: it is the tests' oracle for
    ``decompose._lower_pieces``, and ``bench/tracer.py`` wraps it by name.
    """
    spans = {}
    for d in range(1, max_degree + 1):
        rows = list(generators.get(d, []))
        for i in range(1, d // 2 + 1):
            if i in spans and d - i in spans:
                rows += bracket_products(p, n, i, spans[i].packed_rows(),
                                         d - i, spans[d - i].packed_rows())
        span = Subspace.from_packed(p, n ** d, rows)
        if span.dim:
            spans[d] = span
    return spans


def bracket_products(p, n, deg_x, x_rows, deg_b, b_rows):
    """All brackets [x, b] with x from the first list and b from the
    second, as packed vectors of degree deg_x + deg_b."""
    return [bracket_packed(p, n, deg_x, x, deg_b, b)
            for x in x_rows for b in b_rows]


def lazard_pieces(p, n, deg_x, x_rows, deg_b, b_rows, max_degree):
    """Left-normed pieces [x, b, ..., b] of a Lazard elimination.

    Returns {m: Subspace} for each count m >= 0 of appended b-factors
    with deg_x + m*deg_b <= max_degree.  When B is a free factor being
    eliminated and X is complementary, the pieces freely generate the
    kernel of the elimination, so the piece with m factors has dimension
    dim(X) * dim(B)**m.  A piece of smaller rank means the elimination
    hypothesis fails, which is reported as ArithmeticError.
    """
    pieces = {}
    cur_rows = list(x_rows)
    cur_deg = deg_x
    m = 0
    while cur_deg <= max_degree:
        sp = Subspace.from_packed(p, n ** cur_deg, cur_rows)
        want = len(x_rows) * len(b_rows) ** m
        if sp.dim != want:
            raise ArithmeticError(
                "piece with %d appended factors has dimension %d, "
                "expected %d" % (m, sp.dim, want))
        pieces[m] = sp
        m += 1
        cur_deg += deg_b
        if cur_deg > max_degree or not b_rows:
            break
        cur_rows = bracket_products(
            p, n, cur_deg - deg_b, cur_rows, deg_b, b_rows)
    return pieces
