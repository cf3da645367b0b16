"""Splitting tensor powers: class summands, and the recursive B-family.

Two jobs live here.  ``split_tensor_power`` decomposes T^r(V) into the
images of the lifted class idempotents of the descent algebra and checks
the chain of PBW-filtration ranks inside each summand against the
closed-form dimensions, one weight space at a time, as the idempotents
keep letter content.  ``construct_B_family`` builds, degree by degree,
subspaces B_{sk} of the Lie powers L^{sk}(V) such that every L^{sk}(V)
is the direct sum of the free-Lie-algebra pieces generated by the lower
B's plus the new B_{sk}, and each B_{sk} is certified a direct summand
of T^{sk}(V) by an explicit idempotent equivariant projection.

Every degree q = sk, s = 1 included, takes one path (``_build_degree``),
which picks B_q's projection in one place: Dynkin's bracketing map
scaled by 1/k at q = k, where B_k = L^k; the zero projection when the
lower Lie pieces fill L^q; otherwise the star-route certificate, whose
complement W_{sk} (the new part of B_{sk} beyond the bracket pieces
carried up from lower degrees) comes from one weight-preserving
equivariant-projection solve inside L^{sk}(V).  That certificate is
the projection onto B_{sk} along the star span plus ker E: E lifts the
idempotent of the p-class of the one-part cycle type to an operator on
T^q, and the star span is spanned by class-symmetrised products of
lower-degree basis elements.  The star span must meet L^q exactly in
the lower Lie pieces, which lie in L^q, so this is checked by
dimensions: it holds them, and dim star + dim L^q - dim(star + L^q)
is theirs.  No solve at tensor-power scale is needed.
The theorems predict that every check passes, so any failure raises
ComplementSearchExhausted naming the degree and the reason.

The route runs one weight space T^q_alpha (the words of one letter
content) at a time.  E keeps letter content, and B, the star span and
ker E are sums of their weight components, so E is held as its weight
blocks and their ranks (``class_projector``), and P is computed block by
block.  With M the basis and star rows at alpha and R = M E_alpha, one
echelon of R checks that M stacks with ker E_alpha to a basis, which
makes E injective on the star-extended Lie power, and P_alpha is
E_alpha[:, pi] (R[:, pi])^-1[:, :b] B_alpha, pi the pivot columns of R:
one inverse of the size of the rank of E_alpha.  P is written from its
blocks, and no kernel basis is formed.  A canonical row that crosses
weight spaces means a space is not graded, and raises
ComplementSearchExhausted.
Generators act through the action's ``times``, so the only n^q x n^q
matrix formed is the reported P.

At each degree that needs them, the class projector, its ranks and the
star span read only the family below q, and the equivariant solve only
the action, the settled part and L^q, so one forked worker process
builds the former while this process runs the solve.  The results, the
checks and their order are those of building both in this process, and
no option switches the worker off.

A certificate P (N x N) for a basis B (r x N, canonical, pivot columns
pi) is checked through C = P[:, pi] without any N x N x N product, and
(i) one weight space of P's rows at a time, so without any N x N one:

(i) C B = P holds exactly when every row of P lies in span B;
(ii) given (i), B C = I_r holds exactly when P is idempotent with image
     span B;
(iii) given (i) and (ii), P g = g P holds exactly when B g = M B with
     M = (B g)[:, pi] (span B is g-invariant) and C M = g C.
"""

import os
import pickle
import signal
from contextlib import contextmanager
from functools import lru_cache, partial
from itertools import product as iter_product

import numpy as np

from .combinat import (
    class_of_partition,
    higher_lie_dim,
    partitions,
    witt_dim,
)
from .descent import (
    _assemble,
    _element_blocks,
    class_projector,
    element_action_matrix,
    lift_idempotents,
    solve_class_indicator,
)
from .freelie import (
    bracket_products,
    concat_all,
    dynkin_matrix,
    lie_power,
    pbw_monomial_vector,
    pbw_monomials,
    truncate_subspace,
)
from .linalg import (
    Mat,
    Subspace,
    _invert,
    _restrict,
    _weight_blocks,
    _weight_index,
    direct_sum,
    field,
    is_direct_sum,
    rref,
    solve_equivariant_projection,
    substitute,
    word_weight,
)
from .modrep import TensorAction, gl_generators

__all__ = [
    "ClassSummand",
    "FiltrationReport",
    "split_tensor_power",
    "prop35_check",
    "DegreeData",
    "DecompositionResult",
    "ComplementSearchExhausted",
    "construct_B_family",
    "certify_decomposition",
]

# hard dimension cap before any dense allocation
_DIM_CAP = 20000


class ComplementSearchExhausted(ArithmeticError):
    """No certified equivariant complement at one degree."""

    def __init__(self, degree, reason):
        super().__init__("degree %d: %s" % (degree, reason))
        self.degree = degree
        self.reason = reason

    def __reduce__(self):
        return type(self), (self.degree, self.reason)


def _check_dense_dim(n, q):
    """Raise ValueError unless n >= 1 and n^q is within the dense-dimension
    cap, found by multiplying up to the cap rather than forming a power of
    any size."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return
    dim = 1
    for _ in range(q):
        dim *= n
        if dim > _DIM_CAP:
            raise ValueError(
                "n=%d at degree %d exceeds the dense-dimension cap %d"
                % (n, q, _DIM_CAP))


def _check_family_args(n, p, k, max_degree):
    """Raise ValueError unless p is a usable prime, k >= 1, p does not
    divide k, max_degree >= k, n >= 1 and the top degree is within the
    dense-dimension cap."""
    field(p)
    if k < 1:
        raise ValueError("k must be positive")
    if k % p == 0:
        raise ValueError("k must not be divisible by p")
    if max_degree < k:
        raise ValueError("max_degree is below k; nothing to construct")
    _check_dense_dim(n, max_degree // k * k)


# ---------------------------------------------------------------------------
# the filtration of T^r(V) by class summands


class ClassSummand:
    """One class summand e_J T^r(V) with its filtration chain ranks."""

    __slots__ = ("members", "summand", "chain_dims", "factor_dims")

    def __init__(self, members, summand, chain_dims, factor_dims):
        self.members = members
        self.summand = summand
        self.chain_dims = chain_dims
        self.factor_dims = factor_dims

    def __repr__(self):
        return "ClassSummand(members=%s, dim=%d)" % (
            list(self.members), self.summand.dim)


class FiltrationReport:
    """T^r(V) split into class summands, with verified chain dims."""

    __slots__ = ("p", "n", "r", "entries")

    def __init__(self, p, n, r, entries):
        self.p = p
        self.n = n
        self.r = r
        self.entries = entries

    def summand_dims(self):
        return [e.summand.dim for e in self.entries]

    def __repr__(self):
        return "FiltrationReport(p=%d, n=%d, r=%d, summand dims %s)" % (
            self.p, self.n, self.r, self.summand_dims())


@lru_cache(maxsize=1)
def _graded_filtration(n, r, p):
    """The weight blocks of each idempotent of ``lift_idempotents(r, p)``,
    and per weight alpha the types and the rows in T^r_alpha of the PBW
    monomials of content alpha, largest type first."""
    blocks = _weight_blocks(n, r)
    rows = {alpha: ([], []) for alpha in blocks}
    for lam in sorted(partitions(r), reverse=True):
        for mono in pbw_monomials(n, lam):
            types, vecs = rows[word_weight(sum(mono, ()), n)]
            types.append(lam)
            vecs.append(pbw_monomial_vector(p, n, mono))
    return [_element_blocks(n, e) for _, e in lift_idempotents(r, p)], {
        alpha: (tuple(types), Mat.from_packed(p, vecs, n ** r).columns(
            blocks[alpha])) for alpha, (types, vecs) in rows.items()}


def split_tensor_power(n, r, p):
    """Split T^r(V) into the images of the lifted class idempotents.

    Validates, by rank differences, that each summand's PBW chain drops
    exactly by the higher-Lie dimension at the class's own partitions
    and not at all elsewhere.  Any mismatch raises ArithmeticError
    naming the class and partition.  With V the monomials of content
    alpha, the chain drops at lam at each row of V E_alpha of type lam off
    the span of the rows above it, a pivot column of (V E_alpha)^T.
    """
    idempotents, monomials = _graded_filtration(n, r, p)
    parts = sorted(partitions(r))
    blocks = _weight_blocks(n, r)
    N = n ** r
    entries = []
    stacked = {alpha: [] for alpha in blocks}
    for (cls, _), E in zip(lift_idempotents(r, p), idempotents):
        drops = dict.fromkeys(parts, 0)
        rows = []
        for alpha, block in E.items():
            types, V = monomials[alpha]
            for i in field(p).echelon((V @ block).transpose().packed_rows(),
                                      V.nrows)[1]:
                drops[types[i]] += 1
            own = Subspace.from_packed(p, block.ncols, block.packed_rows(
                )).basis_matrix()
            stacked[alpha] += own.packed_rows()
            rows += own.spread(blocks[alpha], N).packed_rows()
        summand = Subspace.from_packed(p, N, rows)
        for lam in parts:
            want = higher_lie_dim(n, lam) if lam in cls else 0
            if drops[lam] != want:
                raise ArithmeticError(
                    "filtration factor mismatch for class %s at partition "
                    "%s: rank drop %d, expected %d"
                    % (cls.smallest, lam, drops[lam], want))
        members = sorted(cls.members)
        chain = [sum(drops[mu] for mu in parts if mu >= lam)
                 for lam in members] + [0]
        factors = [higher_lie_dim(n, lam) for lam in members]
        if summand.dim != sum(factors) or chain[0] != summand.dim:
            raise ArithmeticError(
                "summand dimension mismatch for class %s: dim %d, chain "
                "top %d, factor sum %d"
                % (cls.smallest, summand.dim, chain[0], sum(factors)))
        entries.append(ClassSummand(members, summand, chain, factors))
    # each summand is the sum of its weight components, so the summands
    # decompose T^r(V) when those at each weight decompose T^r_alpha
    for alpha, rows in stacked.items():
        d = len(blocks[alpha])
        if not len(field(p).echelon(rows, d)[1]) == len(rows) == d:
            raise ArithmeticError(
                "class summands do not decompose the tensor power (p=%d, "
                "n=%d, r=%d)" % (p, n, r))
    return FiltrationReport(p, n, r, entries)


def prop35_check(n, r, p, J):
    """True iff the idempotent E of class J maps the PBW monomials of J's
    partitions to a basis of the class summand: per weight alpha, their
    rows V of content alpha have rank(V E_alpha) = len(V) = rank E_alpha."""
    fam = lift_idempotents(r, p)
    e = fam.idempotent_for(J.smallest)
    idempotents, monomials = _graded_filtration(n, r, p)
    for alpha, block in idempotents[fam.idempotents.index(e)].items():
        types, V = monomials[alpha]
        mine = Mat.from_packed(p, [row for t, row in zip(
            types, V.packed_rows()) if t in J], V.ncols)
        if not rref(mine @ block)[1] == mine.nrows == rref(block)[1]:
            return False
    return True


# ---------------------------------------------------------------------------
# the B-family


class DegreeData:
    """Everything retained for one constructed degree q = s k."""

    __slots__ = ("degree", "basis", "elim", "complement", "lower",
                 "projection")

    def __init__(self, degree, basis, elim, complement, lower, projection):
        self.degree = degree
        self.basis = basis            # B_q, a Subspace of T^q(V)
        self.elim = elim              # bracket pieces carried from below
        self.complement = complement  # the new equivariant complement W_q
        self.lower = lower            # [(c, L^{s/c} on the degree-ck basis)]
        self.projection = projection  # certificate: T^q -> T^q onto basis

    def __repr__(self):
        return "DegreeData(degree=%d, dim B=%d)" % (
            self.degree, self.basis.dim)


class DecompositionResult:
    """The family B_k, B_2k, ... up to max_degree, with certificates."""

    __slots__ = ("p", "n", "k", "max_degree", "degrees")

    def __init__(self, p, n, k, max_degree, degrees):
        self.p = p
        self.n = n
        self.k = k
        self.max_degree = max_degree
        self.degrees = degrees

    def b_dims(self):
        return {q: d.basis.dim for q, d in sorted(self.degrees.items())}

    def __repr__(self):
        return "DecompositionResult(p=%d, n=%d, k=%d, B dims %s)" % (
            self.p, self.n, self.k, self.b_dims())


def _proper_divisors(s):
    return [c for c in range(1, s) if s % c == 0]


def _p_part(q, p):
    m = 0
    while q % p == 0:
        q //= p
        m += 1
    return m, q


def _complement_from(space, proj):
    """Ambient kernel of a projection given in domain coordinates."""
    eye = Mat.identity(space.p, space.dim)
    amb = (eye - proj) @ space.basis_matrix()
    return Subspace.from_packed(space.p, space.ambient, amb.packed_rows())


def _multisets_with_sum(sizes, total, start=0):
    """Non-decreasing index tuples from start on into sizes (each >= 1)
    whose sizes add up to total, built on the budget left after each
    index."""
    if total == 0:
        return [()]
    return [(i,) + rest for i in range(start, len(sizes)) if sizes[i] <= total
            for rest in _multisets_with_sum(sizes, total - sizes[i], i)]


@lru_cache(maxsize=None)
def _star_matrix(p, b, c_d, step):
    """The class idempotent of a slot pattern of c_d // step slots of
    width step, acting on T^c_d over a b-letter alphabet."""
    idem = lift_idempotents(c_d, p).idempotent_for((step,) * (c_d // step))
    return element_action_matrix(b, idem)


def _canonical_data(q, k, n, p, family):
    """Class projector, its ranks and the star span at degree q; the
    projector and its ranks are kept per weight space (``class_projector``).

    The star span is built from products of lower-degree basis elements:
    for each proper divisor degree d, Lie elements over the degree-d
    basis (of the lengths a p-power ladder prescribes) are multiplied in
    non-decreasing order and hit with the class idempotent of the
    matching p-class, computed with the degree-d basis as the alphabet
    and then substituted into T^q(V).  Raises ComplementSearchExhausted
    when any rank check fails, and ValueError when a lower degree is
    missing from family.
    """
    N = n ** q
    m, q1 = _p_part(q, p)
    members = sorted(class_of_partition((q,), p).members)
    expect = sum(higher_lie_dim(n, lam) for lam in members)

    e0 = solve_class_indicator(q, p, members)
    try:
        E, rank = class_projector(n, e0)
    except ArithmeticError as exc:
        raise ComplementSearchExhausted(
            q, "projector lifting failed: %s" % exc)
    # E is block diagonal over the weight spaces, so its rank is theirs summed
    if sum(rank.values()) != expect:
        raise ComplementSearchExhausted(
            q, "class projector rank %d, expected %d"
            % (sum(rank.values()), expect))

    # graded generating sets over each lower degree d
    ds = []
    for d in range(k, q, k):
        if q % d:
            continue
        data = _family_degree(family, d, q)
        if data.basis.dim == 0:
            continue
        j, d1 = _p_part(d, p)
        step = q1 // d1
        b = data.basis.dim
        brows = data.basis.packed_rows()
        elems = []
        for i in range(j, m + 1):
            ell = p ** (i - j) * step
            for row in lie_power(p, b, ell).packed_rows():
                elems.append((ell, row))
        ds.append((d, step, b, brows, elems))

    # slot budgets: each use of divisor d adds step slots of width d
    star_rows = []
    for budget in _multisets_with_sum([d * step for d, step, *_ in ds], q):
        per_d = []
        for i in sorted(set(budget)):
            d, step, b, brows, elems = ds[i]
            c_d = step * budget.count(i)
            prods = Mat.from_packed(p, [
                concat_all(p, b, [elems[j] for j in multi])
                for multi in _multisets_with_sum([ell for ell, _ in elems],
                                                 c_d)], b ** c_d)
            starred = (prods @ _star_matrix(p, b, c_d, step)).packed_rows()
            per_d.append([(c_d * d, row) for row in substitute(
                p, n, d, brows, c_d, starred)])
        star_rows.extend(concat_all(p, n, combo)
                         for combo in iter_product(*per_d))

    star = Subspace.from_packed(p, N, star_rows)
    if star.dim != len(star_rows):
        raise ComplementSearchExhausted(
            q, "star span has rank %d from %d products"
            % (star.dim, len(star_rows)))
    return {"projector": E, "rank": rank, "star": star, "expect": expect}


def _by_weight(space, n, q, what):
    """The canonical rows of a subspace of T^q grouped by weight space:
    weight -> Mat of its rows in that space's coordinates (its words in
    ascending index order, as in ``_weight_blocks``).  A subspace has
    this form exactly when it is the sum of its weight components; a row
    that crosses weight spaces raises ComplementSearchExhausted."""
    blocks = _weight_blocks(n, q)
    label = _weight_index(n, q)
    rows = field(space.p).digits(space.packed_rows(), space.ambient)
    own = label[space.pivots]
    if ((rows != 0) & (label != own[:, None])).any():
        raise ComplementSearchExhausted(
            q, "a row of the %s crosses weight spaces" % what)
    return {alpha: Mat.from_array(space.p, rows[own == t][:, idx])
            for t, (alpha, idx) in enumerate(blocks.items())}


def _assemble_certificate(p, n, q, basis, star, E, rank):
    """Projection onto basis along star + ker E, or None if the three do
    not stack to a basis of the tensor power.  basis and star map each
    weight to their rows in it (see ``_by_weight``), E to the class
    projector's block there and rank to its rank (``class_projector``).
    The basis rows B and star rows S stack to M = [B; S], which stacks
    with ker E_alpha to a basis exactly when R = M E_alpha has full row
    rank and M has rank E_alpha rows.  With pi the pivot columns of R,
    the projection is then E_alpha[:, pi] (R[:, pi])^-1[:, :b] B: it
    kills ker E_alpha and maps M to [B; 0].  It is unique, so it is the
    one the stacked rows' inverse gives."""
    pieces = {}
    for alpha, b in basis.items():
        M = Mat.from_packed(p, b.packed_rows() + star[alpha].packed_rows(),
                            b.ncols)
        R = M @ E[alpha]
        pi = field(p).echelon(R.packed_rows(), R.ncols)[1]
        if not M.nrows == len(pi) == rank[alpha]:
            return None
        pieces[alpha] = E[alpha].columns(pi) @ _invert(
            R.columns(pi)).columns(range(b.nrows)) @ b
    return _assemble(p, n, q, pieces)


def _projection_flaw(proj, basis, action):
    """None when proj certifies basis as an equivariant direct summand
    of the tensor power; otherwise a short description of the failure.

    With B the canonical basis (r x N, pivot columns pi) and C = P[:, pi],
    the certificate is: (i) C B = P, i.e. every row of P lies in span B;
    (ii) B C = I_r, i.e. P is idempotent with image exactly span B; and
    (iii) per generator g, B g = M B with M = (B g)[:, pi], i.e. span B
    is g-invariant, and C M = g C, i.e. P g = g P.  Given (i) and (ii),
    (iii) is equivalent to P g = g P, since B has independent rows.
    Every product has r as one of its dimensions.  (i) runs one weight
    space of P's rows at a time, and C is taken from those row blocks, so
    neither an N x N product nor a take over all N rows of P is formed;
    nothing assumes that P is graded.
    """
    p, N, r = proj.p, proj.ncols, basis.dim
    B = basis.basis_matrix()
    rows = proj.packed_rows()
    C = [None] * N
    for idx in _weight_blocks(action.n, action.r).values():
        Pa = Mat.from_packed(p, [rows[i] for i in idx], N)
        Ca = Pa.columns(basis.pivots)
        if Ca @ B != Pa:
            return "projection rows lie outside the stored basis"
        for i, row in zip(idx.tolist(), Ca.packed_rows()):
            C[i] = row
    C = Mat.from_packed(p, C, r)
    if B @ C != Mat.identity(p, r):
        return "projection does not fix the stored basis"
    for gi in range(len(action.generators)):
        M = _restrict(basis, partial(action.times, gi))
        if M is None:
            return "stored basis is not invariant under generator %d" % gi
        if C @ M != action.times(gi, C, left=True):
            return "projection fails to commute with generator %d" % gi
    return None


@contextmanager
def _canonical_worker(q, k, n, p, family):
    """Build ``_canonical_data(q, k, n, p, family)`` in a forked worker
    while the with-block runs; yields a function that waits for the
    worker and returns the data, or raises what the build raised.

    The worker sends its pickled outcome through a pipe and always leaves
    through os._exit, so it runs no atexit handler and flushes none of
    the parent's streams.  A worker that dies without an outcome raises
    ComplementSearchExhausted naming its exit status (minus the signal
    number when a signal ended it).  On every way out
    of the block the worker is reaped, and killed first if it has not
    been joined.
    """
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            try:
                outcome = (True, _canonical_data(q, k, n, p, family))
            except Exception as exc:
                outcome = (False, exc)
            with os.fdopen(wfd, "wb") as pipe:
                pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    pipe = os.fdopen(rfd, "rb")
    reaped = False

    def join():
        nonlocal reaped
        # read to the end before waiting: the worker blocks on a full pipe
        data = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True
        if status or not data:
            raise ComplementSearchExhausted(
                q, "canonical-data worker exited with status %d and no "
                "result" % status)
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    try:
        yield join
    finally:
        pipe.close()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _split_off(q, k, n, p, action, lie, lower_sum, elim, known, family):
    """Find W complementing the settled part ``known`` = lower_sum + elim
    of L^q, and the projection onto B = elim + W along the star span plus
    ker E.  Returns (basis, W, projection) for ``_build_degree`` to check;
    any failure on the way raises ComplementSearchExhausted naming q and
    the reason."""
    # the canonical data need only the family below q, and the solve only
    # the action, the settled part and L^q, so the two run side by side
    with _canonical_worker(q, k, n, p, family) as canonical:
        sol = solve_equivariant_projection(
            action, known, lie, labels=_weight_index(n, q)[lie.pivots])
        canon = canonical()
    star = canon["star"]
    merged = star.sum(lie)
    # the star span must meet the Lie power exactly in the lower Lie
    # pieces: lower_sum lies in L^q (``_settled_part``), so that holds when
    # the star span holds lower_sum and the two meet in its dimension
    if not star.contains_space(lower_sum) or \
            star.dim + lie.dim - merged.dim != lower_sum.dim:
        raise ComplementSearchExhausted(
            q, "star span meets the Lie power incorrectly")
    # and must stack with it to the full class summand
    if merged.dim != canon["expect"]:
        raise ComplementSearchExhausted(
            q, "star span plus Lie power has dimension %d, expected %d"
            % (merged.dim, canon["expect"]))

    if sol is None:
        raise ComplementSearchExhausted(
            q, "no weight-preserving equivariant projection of the Lie "
            "power onto the settled part exists")
    wnew = _complement_from(lie, sol)

    basis, want = direct_sum(p, n ** q, [elim, wnew])
    if basis.dim != want:
        raise ComplementSearchExhausted(
            q, "complement meets the bracket pieces")
    proj = _assemble_certificate(p, n, q, _by_weight(basis, n, q, "basis"),
                                 _by_weight(star, n, q, "star span"),
                                 canon["projector"], canon["rank"])
    if proj is None:
        raise ComplementSearchExhausted(
            q, "class projector is not injective on the star-extended Lie "
            "power")
    return basis, wnew, proj


def _family_degree(family, d, q):
    """The DegreeData of degree d, which degree q needs; ValueError when
    family lacks it."""
    if d not in family:
        raise ValueError("degree %d is needed for degree %d but is "
                         "missing from the family" % (d, q))
    return family[d]


def _lower_pieces(q, k, n, p, family):
    """The Lie piece L^{s/c}(B_ck) of L^q generated by each lower basis
    B_ck, for the proper divisors c of s = q / k, as [(c, piece)]: the
    image of the free Lie power L^{s/c} on dim B_ck letters under the
    substitution of the rows of B_ck for the letters, which is the
    degree-q part of the Lie subalgebra that B_ck generates.

    A piece whose dimension is not witt_dim(dim B_ck, s/c), as free
    generation requires, raises ArithmeticError; a lower degree missing
    from family raises ValueError.
    """
    s = q // k
    pieces = []
    for c in _proper_divisors(s):
        bd = _family_degree(family, c * k, q).basis
        ell = s // c
        rows = []
        if bd.dim:
            rows = substitute(p, n, c * k, bd.packed_rows(), ell,
                              lie_power(p, bd.dim, ell).packed_rows())
        piece = Subspace.from_packed(p, n ** q, rows)
        want = witt_dim(bd.dim, ell)
        if piece.dim != want:
            raise ArithmeticError(
                "free generation fails at degree %d: Lie elements of "
                "length %d over the degree-%d basis span dimension "
                "%d, expected %d" % (q, ell, c * k, piece.dim, want))
        pieces.append((c, piece))
    return pieces


def _splitting_degrees(k, p, max_degree):
    """The degrees k, pk, p^2 k, ... up to max_degree, at which
    certification re-checks the splitting of the Lie power."""
    q = k
    while q <= max_degree:
        yield q
        q *= p


def _splitting_flaw(q, k, n, p, family, lie):
    """None when the Lie power at degree q is the direct sum of the lower
    pieces re-derived from family and of the basis; else the reason."""
    try:
        if _splits(_lower_pieces(q, k, n, p, family), family[q].basis, lie):
            return None
    except (ArithmeticError, ValueError) as exc:
        return str(exc)
    return "the lower pieces and the basis do not split it"


def _splits(lower, basis, lie):
    """True when the Lie power is the direct sum of the nonzero lower
    pieces and the basis."""
    return is_direct_sum([piece for _, piece in lower if piece.dim]
                         + [basis], lie)


def _settled_part(q, k, n, p, family):
    """The part of L^q settled by the family below degree q.

    Returns (lower, lower_sum, elim): the lower Lie pieces (see
    ``_lower_pieces``), their sum, and the span of the bracket pieces
    carried up from lower complements.  A dimension that contradicts free
    generation raises ArithmeticError; a lower degree missing from family
    raises ValueError.
    """
    s = q // k
    N = n ** q
    lower = _lower_pieces(q, k, n, p, family)
    lower_sum, want = direct_sum(p, N, [piece for _, piece in lower])
    if lower_sum.dim != want:
        raise ArithmeticError(
            "lower Lie pieces overlap at degree %d: joint dimension "
            "%d, expected %d" % (q, lower_sum.dim, want))

    pieces = []
    for total in range(1, s - 1):
        i = s - total
        # the partitions of total, each read with its parts ascending
        for tau in (lam[::-1] for lam in partitions(total)):
            if any(i + sum(tau[:u]) <= tau[u] for u in range(len(tau))):
                continue
            wpart = _family_degree(family, i * k, q).complement
            if wpart.dim == 0:
                continue
            rows = list(wpart.packed_rows())
            deg = i * k
            count = wpart.dim
            for t_part in tau:
                bpart = _family_degree(family, t_part * k, q).basis
                if bpart.dim == 0:
                    count = 0
                    break
                rows = bracket_products(p, n, deg, rows, t_part * k,
                                        list(bpart.packed_rows()))
                deg += t_part * k
                count *= bpart.dim
            if count == 0:
                continue
            piece = Subspace.from_packed(p, N, rows)
            if piece.dim != count:
                raise ArithmeticError(
                    "bracket piece over the degree-%d complement with "
                    "appended degrees %s has dimension %d, expected %d"
                    % (i * k, [t * k for t in tau], piece.dim, count))
            pieces.append(piece)
    elim, want = direct_sum(p, N, pieces)
    if elim.dim != want:
        raise ArithmeticError(
            "bracket pieces overlap at degree %d: joint dimension %d, "
            "expected %d" % (q, elim.dim, want))
    lie = lie_power(p, n, q)
    if not lie.contains_space(elim) or not lie.contains_space(lower_sum):
        raise ArithmeticError(
            "settled part escapes the Lie power at degree %d" % q)
    return lower, lower_sum, elim


def _build_degree(q, k, n, p, action, lie, family):
    """DegreeData for q = s k from the family below q: the settled part
    of L^q, one projection onto the new basis B_q, its certificate check,
    and the check that L^q is the direct sum of the lower Lie pieces and
    B_q.

    The projection is Dynkin's bracketing map scaled by 1/k at q = k,
    where B_k = L^k; the zero projection onto B_q = 0 when the lower Lie
    pieces fill L^q; and otherwise the star-route certificate of
    ``_split_off``.  A flawed projection raises ComplementSearchExhausted.
    """
    N = n ** q
    lower, lower_sum, elim = _settled_part(q, k, n, p, family)
    known, want = direct_sum(p, N, [lower_sum, elim])
    if known.dim != want:
        raise ArithmeticError(
            "bracket pieces overlap the lower Lie pieces at degree %d" % q)
    if q == k:
        # bracketing maps L^k to itself as k times the identity
        basis = wnew = lie
        proj = dynkin_matrix(p, n, q).scale(pow(k % p, p - 2, p))
    elif lower_sum.dim == lie.dim:
        basis = wnew = Subspace.zero(p, N)
        proj = Mat.zeros(p, N, N)
    else:
        basis, wnew, proj = _split_off(q, k, n, p, action, lie, lower_sum,
                                       elim, known, family)
    flaw = _projection_flaw(proj, basis, action)
    if flaw is not None:
        raise ComplementSearchExhausted(q, flaw)
    if not _splits(lower, basis, lie):
        raise ArithmeticError(
            "degree-%d Lie power fails to split into the lower pieces "
            "plus the new basis" % q)
    return DegreeData(q, basis, elim, wnew, lower, proj)


def construct_B_family(n, p, k, max_degree):
    """Build the family B_k, B_2k, ... splitting Lie powers off tensor
    powers, with a certified equivariant projection at every degree.

    Requires p prime, p not dividing k, and n^max_degree within the
    dense-dimension cap (ValueError otherwise).  Every verification
    failure raises ArithmeticError, ComplementSearchExhausted included.
    """
    _check_family_args(n, p, k, max_degree)
    gens = gl_generators(n, p)
    degrees = {}
    for q in range(k, max_degree + 1, k):
        degrees[q] = _build_degree(q, k, n, p, TensorAction(gens, q),
                                   lie_power(p, n, q), degrees)
    return DecompositionResult(p, n, k, max_degree, degrees)


def certify_decomposition(result, companion=None):
    """Re-verify a constructed family from its stored data alone.

    Checks, per degree: the stored projection is an idempotent
    equivariant operator with image the stored basis, and the basis
    lies inside the Lie power.  At every degree with s = q / k >= 2 the
    lower Lie pieces are re-derived from the stored lower bases, free
    generation included, and the exact splitting of the Lie power is
    re-checked.  At degrees k, pk, p^2 k, ... that is its own splitting
    check; at the other degrees it is part of the basis check, whose
    name then carries the reason of a failure.  When
    companion (a family built at a smaller n, same p and k) is given,
    letters beyond its rank are truncated away and the bases compared
    degree by degree.

    Returns a report dict with per-degree check lists and an overall
    "ok" flag; failures are collected, not raised.
    """
    p, n, k = result.p, result.n, result.k
    gens = gl_generators(n, p)
    report = {"p": p, "n": n, "k": k, "max_degree": result.max_degree,
              "degrees": {}, "ok": True}

    def record(q, name, ok):
        report["degrees"].setdefault(q, []).append((name, bool(ok)))
        if not ok:
            report["ok"] = False

    def check(q, name, flaw):
        record(q, name if flaw is None else "%s (%s)" % (name, flaw),
               flaw is None)

    splitting = set(_splitting_degrees(k, p, result.max_degree))
    for q in sorted(result.degrees):
        data = result.degrees[q]
        action = TensorAction(gens, q)
        lie = lie_power(p, n, q)
        check(q, "projection certificate",
              _projection_flaw(data.projection, data.basis, action))
        if not lie.contains_space(data.basis):
            flaw = "a basis row is not a Lie element"
        elif q // k >= 2 and q not in splitting:
            flaw = _splitting_flaw(q, k, n, p, result.degrees, lie)
        else:
            flaw = None
        check(q, "basis lies in the Lie power", flaw)

    for q in sorted(splitting & set(result.degrees)):
        check(q, "Lie power splits over the lower bases",
              _splitting_flaw(q, k, n, p, result.degrees,
                              lie_power(p, n, q)))

    if companion is not None:
        if companion.p != p or companion.k != k or companion.n >= n:
            raise ValueError(
                "companion must share p and k and have smaller rank")
        for q in sorted(set(result.degrees) & set(companion.degrees)):
            trunc = truncate_subspace(result.degrees[q].basis, n,
                                      companion.n, q)
            record(q, "truncation to rank %d matches" % companion.n,
                   trunc == companion.degrees[q].basis)
    return report
