"""Solomon's descent algebra, its class-function map, and tensor actions.

Elements are stored over GF(p), p checked by ``linalg.field``, on the
basis X^c indexed by compositions c of r, where X^c is the sum of all
permutations whose descent set is contained in the partial-sum set of
c.  Products follow the nonnegative-integer-matrix rule (validated
against the group algebra in the test suite); the map onto class
functions sends X^c to the Young character of c and has nilpotent
kernel, which is what makes idempotent lifting work.

Permutations act on tensors by place permutation, (w.sigma)_i =
w_{sigma(i)}, so X^c acts by splitting off subsequences: X^c(w) is the
sum over ways to pick disjoint subsequences of sizes c_1, c_2, ... whose
concatenation rearranges w.  Action matrices are assembled from that
description rather than by expanding permutations.

A place permutation keeps the letter content of a word, so every descent
operator on T^q(V) is block diagonal over the weight spaces T^q_alpha,
spanned by the words of content alpha, of dimension multinomial(q; alpha);
the weight spaces are read from ``linalg._weight_blocks``.
X^c, the sums of them and their Newton lifts are built and multiplied one
weight block at a time, at a cost of sum over alpha of dim(T^q_alpha)^3
per product instead of (n^q)^3: for n = 2, q = 12 the largest block is
924 and the blocks together cost 33 times less than one dense product.
The dense n^q x n^q matrix is assembled only when a caller asks for it;
``class_projector`` hands out the blocks themselves.
"""

from collections import Counter
from functools import lru_cache
from itertools import combinations
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
    "act_on_tensor",
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
def _x_product_table(alpha, beta):
    """Integer expansion of X^alpha * X^beta.

    Sum over nonnegative integer matrices with row sums beta and column
    sums alpha of X^(row-wise reading of the nonzero entries).  Returns a
    tuple of (composition, multiplicity) pairs; multiplicities are plain
    integers, reduced mod p by the caller.
    """
    t = len(alpha)
    out = Counter()

    def fill(ri, cols, acc):
        if ri == len(beta):
            out[tuple(acc)] += 1
            return
        target = beta[ri]
        row = [0] * t

        def cells(j, left, acc2):
            if j == t:
                if left == 0:
                    fill(ri + 1,
                         tuple(c - row[k] for k, c in enumerate(cols)),
                         acc2)
                return
            hi = min(left, cols[j])
            for v in range(hi + 1):
                row[j] = v
                cells(j + 1, left - v, acc2 + ([v] if v else []))
            row[j] = 0

        cells(0, target, acc)

    fill(0, tuple(alpha), [])
    return tuple(sorted(out.items()))


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
    columns idx, zero elsewhere; the idx arrays partition range(size)."""
    rows = [None] * size
    for idx, block in pieces:
        for i, row in zip(idx.tolist(),
                          block.spread(idx, size).packed_rows()):
            rows[i] = row
    return Mat.from_packed(p, rows, size)


def _assemble(p, n, r, blocks):
    """The dense matrix on T^r(V_n) with the given weight blocks."""
    return _place_blocks(p, n ** r, [(idx, blocks[alpha]) for alpha, idx
                                     in _weight_blocks(n, r).items()])


@lru_cache(maxsize=None)
def _unshuffle_blocks(p, n, r, c):
    """Weight blocks of the first-block unshuffle of size c, the map
    w -> sum over position sets S of size c of w_S . w_rest."""
    blocks = _weight_blocks(n, r)
    pos = np.empty(n ** r, dtype=np.intp)
    for idx in blocks.values():
        pos[idx] = np.arange(len(idx))
    # place[i, j]: the place value that position i of w takes in
    # w_S . w_rest for the j-th set S
    subsets = list(combinations(range(r), c))
    place = np.zeros((r, len(subsets)), dtype=np.int64)
    for j, S in enumerate(subsets):
        order = S + tuple(i for i in range(r) if i not in S)
        place[list(order), j] = n ** np.arange(r - 1, -1, -1)
    # the image index is linear in the letters, so it is the sum of the
    # parts of the first h and of the last r - h letters, read from two
    # tables of n^h and n^(r - h) rows
    h = r // 2
    m = n ** (r - h)
    H = _digit_table(n, h) @ place[:h]
    L = _digit_table(n, r - h) @ place[h:]
    out = {}
    for alpha, idx in blocks.items():
        d = len(idx)
        cells = np.arange(d)[:, None] * d + pos[H[idx // m] + L[idx % m]]
        counts = np.bincount(cells.ravel(), minlength=d * d)
        out[alpha] = Mat.from_array(p, counts.reshape(d, d))
    return out


@lru_cache(maxsize=None)
def _x_blocks(p, n, r, comp):
    """Weight blocks of X^comp on T^r(V_n), keyed as in _weight_blocks.

    X^(c, tail) is the first-block unshuffle of size c followed by
    I tensor X^tail.  Inside a weight space the words sharing their first
    c letters form consecutive runs, and I tensor X^tail acts on each run
    by the block of X^tail at the weight of the run's suffixes.
    """
    blocks = _weight_blocks(n, r)
    if len(comp) <= 1:
        return {alpha: Mat.identity(p, len(idx))
                for alpha, idx in blocks.items()}
    c = comp[0]
    U = _unshuffle_blocks(p, n, r, c)
    if len(comp) == 2:
        return U
    tail = _x_blocks(p, n, r - c, comp[1:])
    m = n ** (r - c)
    suffix_digits = _digit_table(n, r - c)
    out = {}
    for alpha, idx in blocks.items():
        prefix = idx // m
        starts = np.flatnonzero(np.diff(prefix, prepend=-1))
        ends = np.append(starts[1:], len(idx))
        pieces = []
        for s, e in zip(starts.tolist(), ends.tolist()):
            gamma = np.bincount(suffix_digits[idx[s] % m], minlength=n)
            pieces.append((np.arange(s, e), tail[tuple(gamma.tolist())]))
        out[alpha] = U[alpha] @ _place_blocks(p, len(idx), pieces)
    return out


def x_action_matrix(p, n, r, comp):
    """Matrix (row convention) of X^comp on T^r of an n-dimensional space,
    assembled from its weight blocks."""
    comp = tuple(comp)
    if sum(comp) != r:
        raise ValueError(f"{comp} is not a composition of {r}")
    return _assemble(p, n, r, _x_blocks(p, n, r, comp))


def _element_blocks(n, elem):
    """Weight blocks of the action matrix of a descent element."""
    p, r = elem.p, elem.r
    out = {alpha: Mat.zeros(p, len(idx), len(idx))
           for alpha, idx in _weight_blocks(n, r).items()}
    for c, v in sorted(elem.coeffs.items()):
        for alpha, block in _x_blocks(p, n, r, c).items():
            out[alpha] = out[alpha] + block.scale(v)
    return out


def element_action_matrix(n, elem):
    """Action matrix of a descent element on T^r(V_n)."""
    return _assemble(elem.p, n, elem.r, _element_blocks(n, elem))


def class_projector(n, elem):
    """``lift_matrix_idempotent`` of the action matrix of elem, lifted one
    weight space at a time and returned as its weight blocks, keyed as in
    ``_weight_blocks``; ``_assemble`` gives the dense matrix.

    Newton's map acts on each block on its own and fixes a block once it
    is idempotent, so the blocks are those of the dense lift exactly, and
    the lift fails (after the same rounds) exactly when the dense one does.
    """
    p = elem.p
    return {alpha: lift_matrix_idempotent(block, p)
            for alpha, block in _element_blocks(n, elem).items()}


def act_on_tensor(elem, n, vec):
    """Apply a descent element to one packed tensor."""
    return element_action_matrix(n, elem).apply(vec)


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


def _lift_in_algebra(y, max_rounds=12):
    """Newton lifting e <- 3e^2 - 2e^3 until e is idempotent."""
    e = y
    for _ in range(max_rounds):
        s = e * e
        if s == e:
            return e
        e = s.scale(3) - (s * e).scale(2)
    raise ArithmeticError("idempotent lifting did not converge")


def solve_class_indicator(r, p, members):
    """A descent element whose class-function image is the indicator of
    the given set of partitions, supported on partition-shaped X^lam."""
    parts = partitions(r)
    cols = parts  # unknowns a_lam, one per partition-shaped basis element
    want = {tuple(sorted(m, reverse=True)) for m in members}
    F = field(p)
    rows = [F.from_terms(len(cols), [(j, young_character(mu, lam))
                                     for j, mu in enumerate(cols)])
            for lam in parts]
    rhs = [1 if lam in want else 0 for lam in parts]
    sol = _solve_linear_system(p, rows, rhs, len(cols))
    if sol is None:
        raise ArithmeticError("indicator is not in the image of c")
    return DescentElement(r, p, {cols[j]: c for j, c in F.terms(sol[0])})


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
        e = _lift_in_algebra(y)
        if done:
            resid = one - partial
            e = _lift_in_algebra(resid * e * resid)
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


def lift_matrix_idempotent(mat, p, max_rounds=12):
    """Newton lifting at the level of an action matrix.

    Each round maps e to 3e^2 - 2e^3.  Mod 2 that is e^2, so the cube,
    which vanishes there, is not computed.
    """
    e = mat
    for _ in range(max_rounds):
        s = e @ e
        if s == e:
            return e
        e = s.scale(3) - (s @ e).scale(2) if 2 % p else s
    raise ArithmeticError("matrix idempotent lifting did not converge")


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
