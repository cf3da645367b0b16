"""Partitions, compositions and the character combinatorics they carry.

Partitions are non-increasing tuples of positive ints; compositions keep
their order.  Plain tuple comparison gives the lexicographic order used to
index the Poincare-Birkhoff-Witt filtration, so (1,1,1,1) < (2,1,1) <
(2,2) < (3,1) < (4).
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache

from .linalg import field

__all__ = [
    "partitions",
    "compositions",
    "next_partition",
    "mobius",
    "witt_dim",
    "higher_lie_dim",
    "graded_witt_dims",
    "young_character",
    "ClassFunction",
    "stabilized_type",
    "p_equivalence_classes",
    "PClass",
    "class_of_partition",
]


@lru_cache(maxsize=None)
def partitions(r, max_part=None):
    """All partitions of r, ascending lex, as non-increasing tuples."""
    if r < 0:
        return ()
    if r == 0:
        return ((),)
    if max_part is None or max_part > r:
        max_part = r
    out = []
    for first in range(1, max_part + 1):
        for rest in partitions(r - first, first):
            out.append((first,) + rest)
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def compositions(r):
    """All 2^(r-1) compositions of r, ascending lex."""
    if r == 0:
        return ((),)
    out = []
    for first in range(1, r + 1):
        for rest in compositions(r - first):
            out.append((first,) + rest)
    return tuple(out)


def next_partition(lam):
    """Successor of lam in the ascending lex list of partitions of |lam|,
    or None at the top."""
    r = sum(lam)
    ps = partitions(r)
    i = ps.index(tuple(lam))
    return ps[i + 1] if i + 1 < len(ps) else None


@lru_cache(maxsize=None)
def mobius(n):
    if n == 1:
        return 1
    m, res = n, 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            res = -res
        d += 1
    if m > 1:
        res = -res
    return res


@lru_cache(maxsize=None)
def witt_dim(n, r):
    """Dimension of the degree-r piece of the free Lie algebra on n
    letters: (1/r) sum over d|r of mobius(d) * n^(r/d)."""
    if r < 1:
        raise ValueError("degree must be positive")
    total = 0
    for d in range(1, r + 1):
        if r % d == 0:
            total += mobius(d) * n ** (r // d)
    q, rem = divmod(total, r)
    if rem:
        raise ArithmeticError("necklace count %d for degree %d is not "
                              "divisible by %d" % (total, r, r))
    return q


def higher_lie_dim(n, lam):
    """Dimension of the higher Lie module for partition lam over an
    n-dimensional space: one symmetric-power factor per part size."""
    mult = Counter(lam)
    out = 1
    for size, m in mult.items():
        out *= math.comb(witt_dim(n, size) + m - 1, m)
    return out


def graded_witt_dims(generator_counts, max_degree):
    """Homogeneous dimensions of the free Lie algebra on a graded set.

    ``generator_counts`` maps degree e to the number g_e of free
    generators in that degree.  The dimensions l_d are determined by
    prod_d (1 - t^d)^{l_d} = 1 - sum_e g_e t^e.  Applying t d/dt log to
    both sides gives c_m = sum_{d|m} d*l_d, where C = sum_m c_m t^m
    satisfies C(t) (1 - P(t)) = t P'(t) for P = sum_e g_e t^e, that is
    c_m = m*g_m + sum_{e<m} g_e*c_{m-e}; Moebius inversion then gives
    l_m = (1/m) sum_{d|m} mobius(m/d)*c_d exactly, in integers.
    """
    g = [0] * (max_degree + 1)
    for e, count in generator_counts.items():
        if e <= 0:
            raise ValueError("generator degrees must be positive")
        if e <= max_degree:
            g[e] += count
    c = [0] * (max_degree + 1)
    dims = {}
    for m in range(1, max_degree + 1):
        c[m] = m * g[m] + sum(g[e] * c[m - e] for e in range(1, m))
        ld, rem = divmod(sum(mobius(m // d) * c[d]
                             for d in range(1, m + 1) if m % d == 0), m)
        if rem or ld < 0:
            raise ArithmeticError("non-integral graded Witt dimension")
        if ld:
            dims[m] = ld
    return dims


@lru_cache(maxsize=None)
def _power_sum(lam):
    """The power sum p_lam = prod_i (x_1^lam_i + x_2^lam_i + ...) in the
    monomial basis, for a partition lam: partition mu -> coefficient of
    x^mu.  Built from the table of lam without its last part by
    multiplying in that part's power sum."""
    if not lam:
        return {(): 1}
    k = lam[-1]
    out = Counter()
    for mu, c in _power_sum(lam[:-1]).items():
        # m_mu p_k: raising a part b of mu by k, or adding a new part k,
        # gives m_nu with coefficient the number of parts of nu equal to
        # b + k, or to k
        for part in set(mu):
            nu = list(mu)
            nu.remove(part)
            nu = tuple(sorted(nu + [part + k], reverse=True))
            out[nu] += c * nu.count(part + k)
        nu = tuple(sorted(mu + (k,), reverse=True))
        out[nu] += c * nu.count(k)
    return dict(out)


def young_character(nu, lam):
    """Value at cycle type lam of the permutation character on cosets of
    the Young subgroup of shape nu (zero parts allowed).

    It counts the ways to deal the cycles of lam onto ordered blocks with
    sizes nu, which is the coefficient of x^nu in the power sum p_lam;
    that coefficient depends only on the multiset of parts of nu and is
    read from the cached table of p_lam.
    """
    key = tuple(sorted((part for part in nu if part), reverse=True))
    return _power_sum(tuple(sorted(lam, reverse=True))).get(key, 0)


class ClassFunction:
    """A function on cycle types of a fixed degree, with dict storage.

    Values live in whatever ring the caller uses (ints, Fractions, or
    ints mod p handled by the caller); arithmetic is pointwise.
    """

    __slots__ = ("r", "values")

    def __init__(self, r, values=None):
        self.r = r
        self.values = {}
        if values:
            for lam, v in values.items():
                lam = tuple(sorted(lam, reverse=True))
                if sum(lam) != r:
                    raise ValueError(f"{lam} is not a partition of {r}")
                if v:
                    self.values[lam] = v

    def __call__(self, lam):
        return self.values.get(tuple(sorted(lam, reverse=True)), 0)

    def __add__(self, other):
        if self.r != other.r:
            raise ValueError("degree mismatch")
        vals = dict(self.values)
        for k, v in other.values.items():
            vals[k] = vals.get(k, 0) + v
        return ClassFunction(self.r, vals)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return ClassFunction(self.r, {k: c * v for k, v in self.values.items()})

    def reduce_mod(self, p):
        return ClassFunction(self.r, {k: v % p for k, v in self.values.items()})

    def __mul__(self, other):
        """Pointwise product (characters multiply pointwise)."""
        if self.r != other.r:
            raise ValueError("degree mismatch")
        vals = {}
        for k, v in self.values.items():
            w = other.values.get(k)
            if w:
                vals[k] = v * w
        return ClassFunction(self.r, vals)

    def __eq__(self, other):
        return isinstance(other, ClassFunction) and self.r == other.r \
            and self.values == other.values

    def __hash__(self):
        return hash((self.r, tuple(sorted(self.values.items()))))

    def is_indicator(self, members):
        want = {tuple(sorted(m, reverse=True)) for m in members}
        for lam in partitions(self.r):
            v = self.values.get(lam, 0)
            if v != (1 if lam in want else 0):
                return False
        return True

    def __repr__(self):
        return f"ClassFunction(r={self.r}, {self.values})"


# ---------------------------------------------------------------------------
# p-equivalence of cycle types


def stabilized_type(lam, p):
    """Replace each part l = p^a * l' (p not dividing l') by p^a copies of
    l'.  Iterating changes nothing more, and two types are p-equivalent
    exactly when their stabilizations agree.  ValueError unless p is a
    prime that ``field`` accepts."""
    field(p)
    out = []
    for part in lam:
        a = 0
        while part % p == 0:
            part //= p
            a += 1
        out.extend([part] * (p ** a))
    return tuple(sorted(out, reverse=True))


class PClass:
    """One p-equivalence class of partitions of r."""

    __slots__ = ("r", "p", "members", "stable")

    def __init__(self, r, p, members):
        self.r = r
        self.p = p
        self.members = tuple(sorted(members))
        self.stable = stabilized_type(self.members[0], p)

    @property
    def smallest(self):
        return self.members[0]

    def __contains__(self, lam):
        return tuple(sorted(lam, reverse=True)) in set(self.members)

    def __eq__(self, other):
        return isinstance(other, PClass) and \
            (self.r, self.p, self.members) == (other.r, other.p, other.members)

    def __hash__(self):
        return hash((self.r, self.p, self.members))

    def __repr__(self):
        return f"PClass(r={self.r}, p={self.p}, members={list(self.members)})"


@lru_cache(maxsize=None)
def p_equivalence_classes(r, p):
    """All p-equivalence classes of partitions of r, ordered by ascending
    lex on their smallest member."""
    buckets = {}
    for lam in partitions(r):
        buckets.setdefault(stabilized_type(lam, p), []).append(lam)
    classes = [PClass(r, p, mem) for mem in buckets.values()]
    classes.sort(key=lambda c: c.smallest)
    return tuple(classes)


def class_of_partition(lam, p):
    """The p-equivalence class of the partition lam, whose parts may come
    in any order.  ValueError unless lam is a nonempty tuple of ints >= 1.
    """
    if not lam or any(not isinstance(x, int) or x < 1 for x in lam):
        raise ValueError("%r is not a partition of a positive integer"
                         % (lam,))
    key = stabilized_type(lam, p)
    return next(c for c in p_equivalence_classes(sum(lam), p)
                if c.stable == key)
