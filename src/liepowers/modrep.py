"""Group actions on tensor powers, for certifying direct summands.

GL(n, F_p) enters through a short generating list: the cyclic letter
permutation, one elementary transvection, and (for p > 2) a primitive
scalar in the first coordinate.  Generation is proved once per (n, p)
by deriving every elementary transvection from the list (see
``_generates_gl``), at any n and p, without enumerating the group.
``generated_group_order`` enumerates a generated group by a breadth-first
closure; it is the independent check the tests compare against.

The induced action on T^r(V) substitutes each letter of a word by the
image row of the generator.  ``TensorAction.times`` multiplies a stack of
rows by an induced generator, on either side, through r per-axis
contractions with the n x n generator, so the n^r x n^r matrix is never
formed; the equivariant solver and the certificate check read the action
only through it, and ``apply`` is its one-row case.
"""

from functools import lru_cache

import numpy as np

from .linalg import (
    Mat,
    SpanBuilder,
    field,
    rref,
    substitute,
)

__all__ = [
    "primitive_root",
    "group_order_formula",
    "generated_group_order",
    "gl_generators",
    "TensorAction",
    "module_closure",
]

# enumerating beyond this is pointless for a sanity check and slow in Python
_CLOSURE_LIMIT = 10 ** 7


def primitive_root(p):
    """Smallest generator of the multiplicative group of F_p."""
    field(p)
    if p == 2:
        return 1
    fac = []
    m = p - 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            fac.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        fac.append(m)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise ArithmeticError("no primitive root found; p is not prime")


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


def _raw_generators(n, p):
    gens = []
    if n == 1:
        gens.append(Mat.from_rows(p, [[primitive_root(p)]]))
        return gens
    cyc = [[0] * n for _ in range(n)]
    for i in range(n):
        cyc[i][(i + 1) % n] = 1
    gens.append(Mat.from_rows(p, cyc))
    trans = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    trans[0][1] = 1
    gens.append(Mat.from_rows(p, trans))
    if p > 2:
        diag = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        diag[0][0] = primitive_root(p)
        gens.append(Mat.from_rows(p, diag))
    return gens


def _generates_gl(gens, n, p):
    """True when gens = [letter cycle c, transvection t, primitive
    diagonal (p > 2 only)] provably generates GL(n, F_p).

    The words c^((n-1) i) t c^i, which are c^(-i) t c^i for an n-cycle,
    must give every I + E_(i,i+1) (indices mod n); each is compared with
    the exact elementary matrix.  Nothing more is computed: the commutator
    [I + E_ij, I + E_jk] = I + E_ik, followed along the cycle
    i -> i+1 -> ... -> k, yields every elementary transvection I + E_ik,
    and over a prime field these generate SL(n, F_p).  diag(g, 1, ..., 1)
    with g a primitive root then reaches every determinant.  For n = 1
    the list must be [(g)].  False means no certificate, not a proof that
    the list fails to generate.  For n >= 2 the cost is 3n - 4 products
    of n x n matrices.
    """
    def elementary(i, j, c=1):
        arr = np.eye(n, dtype=np.int64)
        arr[i, j] += c
        return Mat.from_array(p, arr)

    diag = elementary(0, 0, primitive_root(p) - 1)
    if n == 1:
        return gens == [diag]
    if len(gens) < 2 or gens[2:] != ([diag] if p > 2 else []):
        return False
    c, word = gens[:2]
    back = c
    for _ in range(n - 2):
        back = back @ c
    for i in range(n):
        if word != elementary(i, (i + 1) % n):
            return False
        if i < n - 1:
            word = back @ word @ c
    return True


@lru_cache(maxsize=None)
def _gl_generators_checked(n, p):
    gens = _raw_generators(n, p)
    if not _generates_gl(gens, n, p):
        raise ArithmeticError(
            "cannot certify that the generators span GL(%d,%d)" % (n, p))
    return tuple(gens)


def gl_generators(n, p):
    """A generating set of GL(n, F_p): letter cycle, one transvection,
    and a primitive diagonal when p > 2.

    Generation is certified by ``_generates_gl`` (cached per (n, p)).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    field(p)
    return list(_gl_generators_checked(n, p))


# ---------------------------------------------------------------------------
# induced action on T^r(V)


class TensorAction:
    """Letter-substitution action of GL(n) generators on T^r(V).

    ``generators`` holds the small n x n matrices; at r = 1 this is their
    plain action on V.  ``times`` multiplies a stack of rows by an induced
    n^r x n^r generator matrix without forming it; ``induced_matrix``
    forms it, for tests that compare against the dense product.
    """

    __slots__ = ("p", "n", "r", "dim", "generators", "_f", "_arrs", "_mats")

    def __init__(self, gens, r):
        if not gens:
            raise ValueError("generator list must be nonempty")
        p = gens[0].p
        n = gens[0].nrows
        if r < 0:
            raise ValueError("r must be nonnegative")
        for g in gens:
            if g.p != p or g.nrows != n or g.ncols != n:
                raise ValueError("generator shape/modulus mismatch")
            if rref(g)[1] != n:
                raise ValueError("generators must be invertible")
        self.p = p
        self.n = n
        self.r = r
        self.dim = n ** r
        self.generators = list(gens)
        self._f = field(p)
        self._arrs = [g.to_array() for g in gens]
        self._mats = [None] * len(gens)

    def times(self, gi, mat, left=False):
        """mat @ G for a stack of rows, or G @ mat when left, where G is
        the induced matrix of generator gi; G is never formed.

        Row convention: a row times G contracts each tensor axis of the
        row with g in turn (see the field backends' ``tensor_times``).
        G @ mat is (mat^T @ G^T)^T, and G^T is the induced matrix of g^T.
        """
        if mat.p != self.p or (mat.nrows if left else mat.ncols) != self.dim:
            raise ValueError("shape/modulus mismatch")
        g = self._arrs[gi]
        if left:
            mat, g = mat.transpose(), g.T
        out = Mat.from_packed(self.p, self._f.tensor_times(
            mat.packed_rows(), g, self.n, self.r), self.dim)
        return out.transpose() if left else out

    def apply(self, gi, vec):
        """Image of a degree-r tensor under generator gi: a packed row for
        a packed row, a plain list for a plain list."""
        F = self._f
        row = self.times(gi, Mat.from_packed(self.p, [F.coerce(vec)],
                                             self.dim)).packed_rows()[0]
        return F.to_array([row], self.dim)[0].tolist() \
            if isinstance(vec, list) else row

    def induced_matrix(self, gi):
        """Dense n^r x n^r matrix of generator gi (cached).  No package
        code calls it: it is the tests' oracle for ``times``, and
        ``bench/tracer.py`` wraps it by name.

        Row w of the matrix is the image of the word w under the
        substitution of the rows of g for the letters.
        """
        if self._mats[gi] is None:
            F = self._f
            self._mats[gi] = Mat.from_packed(self.p, substitute(
                self.p, self.n, 1, self.generators[gi].packed_rows(), self.r,
                [F.unit(self.dim, i) for i in range(self.dim)]), self.dim)
        return self._mats[gi]

    def __repr__(self):
        return "TensorAction(p=%d, n=%d, r=%d, %d generators)" % (
            self.p, self.n, self.r, len(self.generators))


def module_closure(seed, action):
    """Smallest action-invariant subspace containing the seed."""
    sb = SpanBuilder(seed.p, seed.ambient)
    queue = []
    for v in seed.packed_rows():
        if sb.add(v):
            queue.append(v)
    while queue:
        v = queue.pop()
        for gi in range(len(action.generators)):
            w = action.apply(gi, v)
            if sb.add(w):
                queue.append(w)
    return sb.subspace()

