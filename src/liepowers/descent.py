"""Solomon's descent algebra, its class-function map, and tensor actions.

Elements are stored over GF(p), p checked by ``linalg.field``, on the
basis X^c indexed by compositions c of r, where X^c is the sum of all
permutations whose descent set is contained in the partial-sum set of
c.  Products follow Solomon's rule: X^a X^b sums X^(row-wise reading
of the nonzero entries) over the nonnegative integer matrices with row
sums b and column sums a.  The readings are counted by a recursion on
the rows, memoised on the remaining row sums and column budgets, so no
matrix is listed one by one (validated against the group algebra in
the test suite).  The map onto class functions sends X^c to the Young
character of c and has nilpotent kernel, which is what makes
idempotent lifting work.

Permutations act on tensors by place permutation, (w.sigma)_i =
w_{sigma(i)}, so X^c acts by splitting off subsequences: X^c(w) is the
sum over ways to pick disjoint subsequences of sizes c_1, c_2, ... whose
concatenation rearranges w.  Action matrices are assembled from that
description rather than by expanding permutations.

A place permutation keeps the letter content of a word, so every descent
operator on T^q(V) is block diagonal over the weight spaces T^q_alpha,
spanned by the words of content alpha, of dimension multinomial(q; alpha);
the weight spaces are read from ``linalg._weight_blocks``.
Letter permutations commute with place permutations and permute the
weight spaces, so the block of a descent operator at alpha is its block
at alpha sorted into non-increasing order, with rows and columns
permuted (``_weight_orbits``).  Descent operators, their Newton lifts and
the lifts' ranks are therefore built one orbit of weights at a time,
at its non-increasing weight, and spread to the rest of the orbit by an
index permutation: 7 of the 13 weights for n = 2, q = 12, 7 of the 28
for n = 3, q = 6.  A product costs the sum over the orbits of
dim(T^q_alpha)^3 instead of (n^q)^3: 48 times less for n = 2, q = 12
(largest block 924), 394 times less for n = 3, q = 6.  The dense
n^q x n^q matrix is assembled only when a caller asks for it;
``class_projector`` hands out the blocks and their ranks themselves.
"""

from collections import Counter
from functools import lru_cache
from itertools import combinations, product
import operator
import random

import numpy as np

from .combinat import (
    ClassFunction,
    compositions,
    p_equivalence_classes,
    partitions,
    young_character,
)
from .linalg import (
    Mat,
    _CHUNK,
    _csr,
    _digit_table,
    _solve_linear_system,
    _weight_blocks,
    field,
    index_to_word,
    word_to_index,
)

__all__ = [
    "DescentElement",
    "xnu_as_permutation_sum",
    "apply_place_permutation",
    "x_action_matrix",
    "element_action_matrix",
    "class_projector",
    "lift_idempotents",
    "lift_matrix_idempotent",
    "IdempotentFamily",
    "gr_action_check",
]


# ---------------------------------------------------------------------------
# permutation expansion (small ranks; the oracle side of everything)


@lru_cache(maxsize=None)
def xnu_as_permutation_sum(nu):
    """The permutations (one-line tuples) summing to X^nu, for sum(nu) <= 8.

    Each permutation arises from an ordered set partition of {1..r} into
    blocks of sizes nu: sort each block and concatenate.  The result is
    exactly the set of permutations whose descent set lies in the partial
    sums of nu.
    """
    nu = tuple(nu)
    r = sum(nu)
    if r > 8:
        raise ValueError("permutation expansion is capped at rank 8")
    if any(c <= 0 for c in nu):
        raise ValueError("composition parts must be positive")
    out = []

    def rec(remaining, parts, acc):
        if not parts:
            out.append(tuple(acc))
            return
        k = parts[0]
        for pick in combinations(remaining, k):
            rest = tuple(x for x in remaining if x not in pick)
            rec(rest, parts[1:], acc + list(pick))

    rec(tuple(range(1, r + 1)), nu, [])
    return tuple(out)


def apply_place_permutation(p, n, r, vec, sigma):
    """Place permutation on a packed tensor: position i of the image word
    holds letter sigma(i) of the source word."""
    F = field(p)
    terms = []
    for i, c in F.terms(vec):
        w = index_to_word(i, n, r)
        terms.append((word_to_index(tuple(w[s - 1] for s in sigma), n), c))
    return F.from_terms(n ** r, terms)


# ---------------------------------------------------------------------------
# structure constants


@lru_cache(maxsize=None)
def _readings(rows, cols):
    """The row-wise readings of the nonzero entries of the nonnegative
    integer matrices with row sums ``rows`` and column sums ``cols``, as a
    tuple of (reading, count) pairs: the head row's nonzero entries put in
    front of each reading of the remaining rows, whose column sums are what
    the head row leaves of ``cols``."""
    if not rows:
        return (((), 1),) if not any(cols) else ()
    out = Counter()
    for head in product(*(range(min(c, rows[0]) + 1) for c in cols)):
        if sum(head) == rows[0]:
            word = tuple(v for v in head if v)
            left = tuple(c - v for c, v in zip(cols, head))
            for tail, count in _readings(rows[1:], left):
                out[word + tail] += count
    return tuple(out.items())


@lru_cache(maxsize=None)
def _x_product_table(alpha, beta):
    """Integer expansion of X^alpha * X^beta.

    Sum over nonnegative integer matrices with row sums beta and column
    sums alpha of X^(row-wise reading of the nonzero entries).  Returns a
    tuple of (composition, multiplicity) pairs; multiplicities are plain
    integers, reduced mod p by the caller.
    """
    return tuple(sorted(_readings(beta, alpha)))


class DescentElement:
    """An element of the descent algebra of S_r over GF(p)."""

    __slots__ = ("r", "p", "coeffs")

    def __init__(self, r, p, coeffs=None):
        field(p)
        self.r = r
        self.p = p
        self.coeffs = {}
        if coeffs:
            for c, v in coeffs.items():
                c = tuple(c)
                if sum(c) != r or any(x <= 0 for x in c):
                    raise ValueError(f"{c} is not a composition of {r}")
                v %= p
                if v:
                    self.coeffs[c] = v

    @classmethod
    def x_basis(cls, r, p, comp):
        return cls(r, p, {tuple(comp): 1})

    @classmethod
    def one(cls, r, p):
        return cls(r, p, {(r,): 1})

    def is_zero(self):
        return not self.coeffs

    def _check(self, other):
        if self.r != other.r or self.p != other.p:
            raise ValueError("mixed descent algebras")

    def __add__(self, other):
        self._check(other)
        vals = dict(self.coeffs)
        for c, v in other.coeffs.items():
            vals[c] = vals.get(c, 0) + v
        return DescentElement(self.r, self.p, vals)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, a):
        return DescentElement(self.r, self.p,
                              {c: a * v for c, v in self.coeffs.items()})

    def __mul__(self, other):
        self._check(other)
        vals = {}
        for ca, va in self.coeffs.items():
            for cb, vb in other.coeffs.items():
                w = va * vb
                for comp, mult in _x_product_table(ca, cb):
                    vals[comp] = vals.get(comp, 0) + w * mult
        return DescentElement(self.r, self.p, vals)

    def __eq__(self, other):
        return isinstance(other, DescentElement) and \
            (self.r, self.p, self.coeffs) == (other.r, other.p, other.coeffs)

    def __hash__(self):
        return hash((self.r, self.p, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        terms = " + ".join(f"{v}*X{list(c)}"
                           for c, v in sorted(self.coeffs.items()))
        return f"DescentElement(r={self.r}, p={self.p}: {terms or '0'})"

    def c_map(self):
        """Image in the algebra of functions on cycle types: X^c goes to
        the Young character of c."""
        vals = {}
        for lam in partitions(self.r):
            tot = 0
            for c, v in self.coeffs.items():
                tot += v * young_character(c, lam)
            tot %= self.p
            if tot:
                vals[lam] = tot
        return ClassFunction(self.r, vals)

    def as_permutation_counter(self):
        """Expansion into permutations (rank capped at 8); used as the
        multiplication oracle."""
        out = Counter()
        for c, v in self.coeffs.items():
            for sigma in xnu_as_permutation_sum(c):
                out[sigma] += v
        return Counter({s: v % self.p for s, v in out.items() if v % self.p})


def multiply_permutation_oracle(a, b):
    """Product computed in the group algebra; (sigma tau)(i) =
    sigma(tau(i)) matches composition of right-acting place permutations.
    """
    a._check(b)
    out = Counter()
    pa = a.as_permutation_counter()
    pb = b.as_permutation_counter()
    for sig, va in pa.items():
        for tau, vb in pb.items():
            comp = tuple(sig[t - 1] for t in tau)
            out[comp] += va * vb
    return Counter({s: v % a.p for s, v in out.items() if v % a.p})


# ---------------------------------------------------------------------------
# action on tensor space


def _place_blocks(p, size, pieces):
    """The size x size matrix with each (idx, block) of pieces on rows and
    columns idx, zero elsewhere; the idx arrays partition range(size).
    Blocks are spread a chunk of about _CHUNK entries of the result at a
    time."""
    rows = [None] * size
    step = max(1, _CHUNK // max(size, 1))
    for idx, block in pieces:
        packed = block.packed_rows()
        for s in range(0, len(packed), step):
            part = Mat.from_packed(p, packed[s:s + step], block.ncols)
            for i, row in zip(idx[s:s + step].tolist(),
                              part.spread(idx, size).packed_rows()):
                rows[i] = row
    return Mat.from_packed(p, rows, size)


def _assemble(p, n, r, blocks):
    """The dense matrix on T^r(V_n) with the given weight blocks."""
    return _place_blocks(p, n ** r, [(idx, blocks[alpha]) for alpha, idx
                                     in _weight_blocks(n, r).items()])


@lru_cache(maxsize=None)
def _positions(n, r):
    """Per word index of T^r(V_n), its position among the words of its
    weight space (see ``_weight_blocks``)."""
    pos = np.empty(n ** r, dtype=np.intp)
    for idx in _weight_blocks(n, r).values():
        pos[idx] = np.arange(len(idx))
    return pos


@lru_cache(maxsize=None)
def _weight_orbits(n, r):
    """Each weight alpha of T^r(V_n) -> (rep, perm): rep is alpha sorted
    into non-increasing order, and perm[i] is the position in T^r_rep of
    the image of word i of T^r_alpha under the letter permutation that
    sorts alpha.

    Place permutations commute with letter permutations, so the block at
    alpha of a descent operator is its block at rep with rows and columns
    taken in the order perm, of the same rank.  Only the blocks at the
    non-increasing weights are built.
    """
    D = _digit_table(n, r)
    pos = _positions(n, r)
    powers = n ** np.arange(r - 1, -1, -1)
    out = {}
    for alpha, idx in _weight_blocks(n, r).items():
        # letter order[j] has the j-th largest count, and becomes letter j
        order = np.argsort([-a for a in alpha], kind="stable")
        to_rep = np.empty(n, dtype=np.int64)
        to_rep[order] = np.arange(n)
        rep = tuple(alpha[a] for a in order.tolist())
        out[alpha] = (rep, pos[to_rep[D[idx]] @ powers])
    return out


def _spread(n, r, reps):
    """The blocks at every weight of an operator on T^r(V_n) that commutes
    with letter permutations, from its blocks ``reps`` at the
    non-increasing weights (see ``_weight_orbits``)."""
    out = {}
    for alpha, (rep, perm) in _weight_orbits(n, r).items():
        block = reps[rep]
        if alpha != rep:
            rows = block.packed_rows()
            block = Mat.from_packed(block.p, [rows[i] for i in perm],
                                    block.ncols).columns(perm)
        out[alpha] = block
    return out


@lru_cache(maxsize=None)
def _unshuffle_blocks(p, n, r, c):
    """Blocks at the non-increasing weights of the first-block unshuffle
    of size c, the map w -> sum over position sets S of size c of
    w_S . w_rest."""
    blocks = _weight_blocks(n, r)
    pos = _positions(n, r).astype(np.int32)
    # place[i, j]: the place value that position i of w takes in
    # w_S . w_rest for the j-th set S, where it is the t-th position of S
    # or the t-th of the rest
    subsets = np.array(list(combinations(range(r), c)), dtype=np.intp)
    in_s = np.zeros((len(subsets), r), dtype=bool)
    in_s[np.arange(len(subsets))[:, None], subsets] = True
    slot = np.where(in_s, np.cumsum(in_s, axis=1) - 1,
                    c + np.cumsum(~in_s, axis=1) - 1)
    place = (n ** (r - 1 - slot)).T
    # the image index is linear in the letters, so it is the sum of the
    # parts of the first h and of the last r - h letters, read from two
    # tables of n^h and n^(r - h) rows
    h = r // 2
    m = n ** (r - h)
    H = (_digit_table(n, h) @ place[:h]).astype(np.int32)
    L = (_digit_table(n, r - h) @ place[h:]).astype(np.int32)
    step = max(1, _CHUNK // len(subsets))
    out = {}
    for alpha, (rep, _) in _weight_orbits(n, r).items():
        if alpha != rep:
            continue
        idx = blocks[alpha]
        d = len(idx)
        counts = np.empty((d, d), dtype=np.int32)
        # a chunk of rows at a time, cell t * d + column of its row t
        for s in range(0, d, step):
            rows = idx[s:s + step]
            cells = H[rows // m]
            cells += L[rows % m]
            cells = pos[cells]
            cells += (np.arange(len(rows), dtype=np.int32) * d)[:, None]
            counts[s:s + step] = np.bincount(
                cells.ravel(), minlength=len(rows) * d).reshape(-1, d)
        out[alpha] = Mat.from_array(p, counts)
    return out


def _rep_blocks(n, elem):
    """Blocks at the non-increasing weights of the action matrix of a
    descent element.

    X^(c, tail) is the first-block unshuffle U_c of size c followed by
    I tensor X^tail, so the terms with first part c add up to U_c times
    I tensor Y_c, Y_c the sum of their tails: one unshuffle and at most
    one product per first part, none when Y_c is a multiple of the
    identity (X^(r) is U_r).  Inside a weight space the words sharing
    their first c letters form consecutive runs, and I tensor Y_c acts
    on each run by the block of Y_c at the weight of the run's suffixes.
    """
    p, r = elem.p, elem.r
    tails = {}
    for comp, v in elem.coeffs.items():
        tails.setdefault(comp[0], {})[comp[1:]] = v
    blocks = _weight_blocks(n, r)
    out = {rep: Mat.zeros(p, len(blocks[rep]), len(blocks[rep]))
           for rep, _ in _weight_orbits(n, r).values()}
    for c, tail in sorted(tails.items()):
        U = _unshuffle_blocks(p, n, r, c)
        if set(tail) <= {(), (r - c,)}:
            (v,) = tail.values()
            for alpha in out:
                out[alpha] = out[alpha] + U[alpha].scale(v)
            continue
        Y = _element_blocks(n, DescentElement(r - c, p, tail))
        m = n ** (r - c)
        suffix_digits = _digit_table(n, r - c)
        for alpha in out:
            idx = blocks[alpha]
            starts = np.flatnonzero(np.diff(idx // m, prepend=-1))
            ends = np.append(starts[1:], len(idx))
            pieces = []
            for s, e in zip(starts.tolist(), ends.tolist()):
                gamma = np.bincount(suffix_digits[idx[s] % m], minlength=n)
                pieces.append((np.arange(s, e), Y[tuple(gamma.tolist())]))
            out[alpha] = out[alpha] + U[alpha] @ _place_blocks(
                p, len(idx), pieces)
    return out


def _element_blocks(n, elem):
    """Weight blocks of the action matrix of a descent element, keyed as
    in ``_weight_blocks``."""
    return _spread(n, elem.r, _rep_blocks(n, elem))


def x_action_matrix(p, n, r, comp):
    """Matrix (row convention) of X^comp on T^r of an n-dimensional space,
    assembled from its weight blocks."""
    comp = tuple(comp)
    if sum(comp) != r:
        raise ValueError(f"{comp} is not a composition of {r}")
    return element_action_matrix(n, DescentElement.x_basis(r, p, comp))


def element_action_matrix(n, elem):
    """Action matrix of a descent element on T^r(V_n)."""
    return _assemble(elem.p, n, elem.r, _element_blocks(n, elem))


def class_projector(n, elem):
    """``lift_matrix_idempotent`` of the action matrix of elem, lifted one
    weight space at a time, with its ranks.  Returns (E, rank), each keyed
    as in ``_weight_blocks``: E maps each weight to its block (``_assemble``
    gives the dense matrix), and rank to the rank of that block.

    Newton's map acts on each block on its own and fixes a block once it
    is idempotent, so the blocks are those of the dense lift exactly, and
    the lift fails (after the same rounds) exactly when the dense one does.
    Lifts and ranks are computed once per orbit of weights under letter
    permutations, at its non-increasing weight, and spread to the rest of
    the orbit (see ``_weight_orbits``).
    """
    p = elem.p
    lifted = {rep: lift_matrix_idempotent(block, p)
              for rep, block in _rep_blocks(n, elem).items()}
    ranks = {rep: len(field(p).echelon(E.packed_rows(), E.ncols)[1])
             for rep, E in lifted.items()}
    return _spread(n, elem.r, lifted), {
        alpha: ranks[rep] for alpha, (rep, _) in _weight_orbits(
            n, elem.r).items()}


# ---------------------------------------------------------------------------
# idempotent lifting


class IdempotentFamily:
    """Orthogonal primitive idempotents of the descent algebra mod p,
    one per p-equivalence class of partitions, summing to the identity."""

    __slots__ = ("r", "p", "classes", "idempotents")

    def __init__(self, r, p, classes, idempotents):
        self.r = r
        self.p = p
        self.classes = tuple(classes)
        self.idempotents = tuple(idempotents)

    def items(self):
        return list(zip(self.classes, self.idempotents))

    def idempotent_for(self, lam):
        """The idempotent whose class contains the partition lam."""
        lam = tuple(sorted(lam, reverse=True))
        for cl, e in zip(self.classes, self.idempotents):
            if lam in cl:
                return e
        raise KeyError(f"{lam} is not a partition of {self.r}")

    def __iter__(self):
        return iter(zip(self.classes, self.idempotents))


def _newton_lift(e, p, mul):
    """Newton lifting e <- 3e^2 - 2e^3 until e is idempotent, products
    taken by mul: a descent element or an action matrix.  Mod 2 a round
    is e^2, so the cube, which vanishes there, is not computed."""
    for _ in range(12):
        s = mul(e, e)
        if s == e:
            return e
        e = s.scale(3) - mul(s, e).scale(2) if 2 % p else s
    raise ArithmeticError("idempotent lifting did not converge")


def solve_class_indicator(r, p, members):
    """A descent element whose class-function image is the indicator of
    the given set of partitions, supported on partition-shaped X^lam."""
    parts = partitions(r)
    cols = parts  # unknowns a_lam, one per partition-shaped basis element
    want = {tuple(sorted(m, reverse=True)) for m in members}
    aug = np.array([[young_character(mu, lam) for mu in cols] + [lam in want]
                    for lam in parts], dtype=np.int64) % p
    sol = _solve_linear_system(p, _csr(aug), len(cols))
    if sol is None:
        raise ArithmeticError("indicator is not in the image of c")
    return DescentElement(r, p, {cols[j]: c
                                 for j, c in field(p).terms(sol[0])})


@lru_cache(maxsize=None)
def lift_idempotents(r, p):
    """The orthogonal primitive idempotent family of the descent algebra
    of S_r over GF(p).

    For each p-equivalence class, in ascending order of smallest member:
    solve for an element mapping to the class indicator, Newton-lift it
    to an idempotent, then orthogonalize against the already-accepted
    ones by the two-sided product with (1 - partial sum) and re-lift.
    The family is verified to consist of orthogonal idempotents with
    indicator images summing to the identity.
    """
    classes = p_equivalence_classes(r, p)
    one = DescentElement.one(r, p)
    done = []
    partial = DescentElement(r, p, {})
    for cl in classes:
        y = solve_class_indicator(r, p, cl.members)
        e = _newton_lift(y, p, operator.mul)
        if done:
            resid = one - partial
            e = _newton_lift(resid * e * resid, p, operator.mul)
        done.append(e)
        partial = partial + e
    fam = IdempotentFamily(r, p, classes, done)
    _verify_family(fam)
    return fam


def _verify_family(fam):
    one = DescentElement.one(fam.r, fam.p)
    total = DescentElement(fam.r, fam.p, {})
    for cl, e in fam:
        if not (e * e == e):
            raise ArithmeticError(f"lift for {cl.smallest} is not idempotent")
        if not e.c_map().is_indicator(cl.members):
            raise ArithmeticError(
                f"lift for {cl.smallest} has the wrong class image")
        total = total + e
    if not (total == one):
        raise ArithmeticError("idempotents do not sum to the identity")
    es = fam.idempotents
    for i in range(len(es)):
        for j in range(len(es)):
            if i != j and not (es[i] * es[j]).is_zero():
                raise ArithmeticError("idempotents are not orthogonal")


def lift_matrix_idempotent(mat, p):
    """Newton lifting at the level of an action matrix."""
    return _newton_lift(mat, p, operator.matmul)


# ---------------------------------------------------------------------------
# graded action check


def gr_action_check(p, n, r, trials=50, seed=0):
    """Check the graded description of the X^nu action on PBW products.

    For a product w = a_1 ... a_l of homogeneous Lie elements of degrees
    lam (non-increasing), X^nu applied to w agrees, modulo the span of
    PBW monomials of lexicographically later type, with the sum over all
    ways of dealing the factors onto blocks with degree sums nu; each
    block keeps its factors in their original order and blocks are
    concatenated in order.  Raises ArithmeticError with context on the
    first mismatch; returns the number of comparisons on success.
    """
    from .freelie import (concat_all, filtration_subspace, lyndon_packed,
                          lyndon_words)
    from .combinat import next_partition

    F = field(p)
    rng = random.Random(seed)
    basis = {}
    for d in range(1, r + 1):
        basis[d] = [lyndon_packed(p, n, w) for w in lyndon_words(n, d)]

    def random_lie(d):
        while True:
            v = F.zero(n ** d)
            for b in basis[d]:
                v = F.add(v, F.scale(b, rng.randrange(p)))
            if not F.is_zero(v):
                return v

    parts_list = partitions(r)
    checked = 0
    for nu in compositions(r):
        mat = x_action_matrix(p, n, r, nu)
        for _ in range(trials):
            lam = parts_list[rng.randrange(len(parts_list))]
            factors = [(d, random_lie(d)) for d in lam]
            lhs = mat.apply(concat_all(p, n, factors))
            diff = F.sub(lhs, _dealt_sum(p, n, nu, factors))
            nxt = next_partition(lam)
            if nxt is None:
                ok = F.is_zero(diff)
            else:
                ok = filtration_subspace(p, n, r, nxt).contains(diff)
            if not ok:
                raise ArithmeticError(
                    f"graded action mismatch at nu={nu}, type={lam}")
            checked += 1
    return checked


def _dealt_sum(p, n, nu, factors):
    """Sum over ways of dealing the factors onto blocks with degree sums
    nu, of the concatenated block products."""
    from .freelie import concat_all

    F = field(p)
    t = len(nu)
    l = len(factors)
    out = None
    assign = [0] * l

    def emit():
        nonlocal out
        # blocks in order, each keeping its factors' order (a stable sort)
        dealt = sorted(range(l), key=assign.__getitem__)
        w = concat_all(p, n, [factors[i] for i in dealt])
        out = w if out is None else F.add(out, w)

    def rec(i, remaining):
        if i == l:
            if all(x == 0 for x in remaining):
                emit()
            return
        d = factors[i][0]
        for j in range(t):
            if remaining[j] >= d:
                assign[i] = j
                rem = list(remaining)
                rem[j] -= d
                rec(i + 1, rem)

    rec(0, list(nu))
    return F.zero(n ** sum(nu)) if out is None else out
