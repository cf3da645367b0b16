"""Slow, independent references that the tests compare the package with.

No ``liepowers`` command reaches these: word indexing one letter at a
time, tensors as word dicts, bracketed Lyndon words expanded over the
integers, place permutations word by word, and GL(n, p) enumerated by
breadth-first closure.
"""

from functools import lru_cache

import numpy as np

from liepowers.freelie import standard_factorization
from liepowers.linalg import field

# ---------------------------------------------------------------------------
# words


def word_to_index(word, n):
    """Words are tuples of letters 1..n; the index is big-endian base n."""
    idx = 0
    for a in word:
        if not 1 <= a <= n:
            raise ValueError(f"letter {a} outside 1..{n}")
        idx = idx * n + (a - 1)
    return idx


def index_to_word(idx, n, r):
    out = []
    for _ in range(r):
        out.append(idx % n + 1)
        idx //= n
    return tuple(reversed(out))


def format_terms(pairs, n, r):
    """Render [(word, coeff), ...] as 'c w c w ...'.  A word is its
    letters' digits run together, or, when n > 9 and a letter may have
    two digits, its letters joined by '.'."""
    sep = "." if n > 9 else ""
    bits = []
    for word, c in pairs:
        bits.append(str(c))
        bits.append(sep.join(str(a) for a in word))
    return " ".join(bits)


# ---------------------------------------------------------------------------
# tensors as word dicts


class Tensor:
    """Sparse element of T^r(V_n) over GF(p): a dict word -> coefficient,
    zero coefficients dropped."""

    __slots__ = ("p", "n", "r", "coeffs")

    def __init__(self, p, n, r, coeffs=None):
        field(p)
        self.p = p
        self.n = n
        self.r = r
        self.coeffs = {}
        if coeffs:
            for w, c in coeffs.items():
                if len(w) != r:
                    raise ValueError(f"word {w} has wrong length for degree {r}")
                c %= p
                if c:
                    self.coeffs[tuple(w)] = c

    @classmethod
    def from_word(cls, p, n, word):
        return cls(p, n, len(word), {tuple(word): 1})

    @classmethod
    def letter(cls, p, n, a):
        return cls.from_word(p, n, (a,))

    def __add__(self, other):
        self._compat(other, same_degree=True)
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = (out.get(w, 0) + c) % self.p
        return Tensor(self.p, self.n, self.r, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return Tensor(self.p, self.n, self.r,
                      {w: c * v for w, v in self.coeffs.items()})

    def __mul__(self, other):
        """Concatenation product."""
        self._compat(other)
        out = {}
        for w1, c1 in self.coeffs.items():
            for w2, c2 in other.coeffs.items():
                w = w1 + w2
                out[w] = (out.get(w, 0) + c1 * c2) % self.p
        return Tensor(self.p, self.n, self.r + other.r, out)

    def bracket(self, other):
        return self * other - other * self

    def _compat(self, other, same_degree=False):
        if (self.p, self.n) != (other.p, other.n):
            raise ValueError("mixed ground data")
        if same_degree and self.r != other.r:
            raise ValueError("degree mismatch")

    def to_packed(self):
        return pack_tensor(self.p, self.n, self.r, self.coeffs)

    @classmethod
    def from_packed(cls, p, n, r, vec):
        return cls(p, n, r, unpack_tensor(p, n, r, vec))

    def __eq__(self, other):
        return isinstance(other, Tensor) and \
            (self.p, self.n, self.r) == (other.p, other.n, other.r) and \
            self.coeffs == other.coeffs

    def __repr__(self):
        terms = " + ".join(f"{c}*{''.join(map(str, w))}"
                           for w, c in sorted(self.coeffs.items()))
        return f"Tensor({terms or '0'})"


def pack_tensor(p, n, r, coeffs):
    return field(p).from_terms(
        n ** r, [(word_to_index(w, n), c) for w, c in coeffs.items()])


def unpack_tensor(p, n, r, vec):
    return {index_to_word(i, n, r): c for i, c in field(p).terms(vec)}


@lru_cache(maxsize=None)
def lyndon_expansion(n, w):
    """Integer expansion of the bracketed Lyndon word w (a tuple) in the
    word basis.

    Bracketing follows the standard factorization recursively; the result
    is cached per (n, w) and shared by every modulus.
    """
    if len(w) == 1:
        return {w: 1}
    u, v = standard_factorization(w)
    out = {}
    for wa, ca in lyndon_expansion(n, u).items():
        for wb, cb in lyndon_expansion(n, v).items():
            c = ca * cb
            k1 = wa + wb
            k2 = wb + wa
            out[k1] = out.get(k1, 0) + c
            out[k2] = out.get(k2, 0) - c
    return {k: c for k, c in out.items() if c}


def lie_element(p, n, w):
    """The bracketed Lyndon word as a Tensor mod p."""
    return Tensor(p, n, len(w), lyndon_expansion(n, w))


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
# GL(n, p) by enumeration

# enumerating beyond this is pointless for a sanity check and slow in Python
_CLOSURE_LIMIT = 10 ** 7


def group_order_formula(n, p):
    """|GL(n, F_p)| = prod_{i<n} (p^n - p^i)."""
    pn = p ** n
    out = 1
    for i in range(n):
        out *= pn - p ** i
    return out


def generated_group_order(gens, limit=_CLOSURE_LIMIT):
    """Size of the group generated by the given invertible matrices.

    Breadth-first closure one level at a time: the new elements of a level
    are stacked as an (m, n, n) array and multiplied by every generator at
    once, and each matrix is keyed by its n^2 entries read as base-p
    digits.  Raises ArithmeticError if the closure exceeds ``limit``
    elements.
    """
    p, n = gens[0].p, gens[0].nrows
    garrs = np.stack([g.to_array() for g in gens])
    wide = p ** (n * n) > np.iinfo(np.int64).max  # then key by Python ints
    digits = np.array([p ** i for i in range(n * n)], object if wide else np.int64)
    frontier = np.eye(n, dtype=np.int64)[None]
    seen = set((frontier.reshape(1, -1) @ digits).tolist())
    while len(frontier):
        prods = (frontier[:, None] @ garrs % p).reshape(-1, n, n)
        keys = prods.reshape(len(prods), -1) @ digits
        level = dict(zip(keys.tolist(), range(len(prods))))
        fresh = [i for key, i in level.items() if key not in seen]
        seen.update(level)
        if len(seen) > limit:
            raise ArithmeticError("generated group exceeds %d elements" % limit)
        frontier = prods[fresh]
    return len(seen)
