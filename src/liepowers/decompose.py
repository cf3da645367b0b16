"""Splitting tensor powers: class summands, and the recursive B-family.

Two jobs live here.  ``split_tensor_power`` decomposes T^r(V) into the
images of the lifted class idempotents of the descent algebra and checks
the chain of PBW-filtration ranks inside each summand against the
closed-form dimensions.  ``construct_B_family`` builds, degree by
degree, subspaces B_{sk} of the Lie powers L^{sk}(V) such that every
L^{sk}(V) is the direct sum of the free-Lie-algebra pieces generated by
the lower B's plus the new B_{sk}, and each B_{sk} is certified a direct
summand of T^{sk}(V) by an explicit idempotent equivariant projection.

The complement W_{sk} (the new part of B_{sk} beyond the bracket pieces
carried up from lower degrees) is found by one weight-preserving
equivariant-projection solve inside L^{sk}(V).  The
direct-summand certificate for B_{sk} inside the full tensor power is
the projection onto B_{sk} along the star span plus ker E: E lifts the
idempotent of the p-class of the one-part cycle type to an operator on
T^q, and the star span is spanned by class-symmetrised products of
lower-degree basis elements.  No solve at tensor-power scale is needed.
The theorems predict that every check on this route passes, so any
failure raises ComplementSearchExhausted naming the degree and the
reason.

The route runs one weight space T^q_alpha (the words of one letter
content) at a time.  E keeps letter content, and B, the star span and
ker E are sums of their weight components, so E is held as its weight
blocks (``class_projector``), and its rank and kernel, the check that E
is injective on the star-extended Lie power, and P (through an inverse
of the size of the rank of E_alpha) are computed block by block; P is
written from its blocks.  A canonical row that crosses weight spaces
means a space is not graded, and raises ComplementSearchExhausted.
Generators act through the action's ``times``, so the only n^q x n^q
matrix formed is the reported P.

At each degree that needs them, the class projector, its kernel and the
star span read only the family below q, and the equivariant solve only
the action, the settled part and L^q, so one forked worker process
builds the former while this process runs the solve.  The results, the
checks and their order are those of building both in this process, and
no option switches the worker off.

A certificate P (N x N) for a basis B (r x N, canonical, pivot columns
pi) is checked through C = P[:, pi] without any N x N x N product:

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
from itertools import combinations_with_replacement, product as iter_product

import numpy as np

from .combinat import (
    class_of_partition,
    higher_lie_dim,
    partitions,
    witt_dim,
)
from .descent import (
    _assemble,
    class_projector,
    element_action_matrix,
    lift_idempotents,
    solve_class_indicator,
)
from .freelie import (
    bracket_products,
    concat_all,
    dynkin_matrix,
    filtration_subspace,
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


def _rowspace(m, ambient):
    return Subspace.from_packed(m.p, ambient, m.packed_rows())


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


def split_tensor_power(n, r, p):
    """Split T^r(V) into the images of the lifted class idempotents.

    Validates, by rank differences, that each summand's PBW chain drops
    exactly by the higher-Lie dimension at the class's own partitions
    and not at all elsewhere.  Any mismatch raises ArithmeticError
    naming the class and partition.
    """
    fam = lift_idempotents(r, p)
    parts = sorted(partitions(r))
    wsubs = [filtration_subspace(p, n, r, lam) for lam in parts]
    N = n ** r
    entries = []
    summands = []
    for cls, e in fam:
        E = element_action_matrix(n, e)
        summand = _rowspace(E, N)
        dims = []
        for w in wsubs:
            img = w.basis_matrix() @ E
            dims.append(Subspace.from_packed(p, N, img.packed_rows()).dim)
        dims.append(0)
        for t, lam in enumerate(parts):
            drop = dims[t] - dims[t + 1]
            want = higher_lie_dim(n, lam) if lam in cls else 0
            if drop != want:
                raise ArithmeticError(
                    "filtration factor mismatch for class %s at partition "
                    "%s: rank drop %d, expected %d"
                    % (cls.smallest, lam, drop, want))
        members = sorted(cls.members)
        chain = [dims[parts.index(lam)] for lam in members] + [0]
        factors = [higher_lie_dim(n, lam) for lam in members]
        if summand.dim != sum(factors) or chain[0] != summand.dim:
            raise ArithmeticError(
                "summand dimension mismatch for class %s: dim %d, chain "
                "top %d, factor sum %d"
                % (cls.smallest, summand.dim, chain[0], sum(factors)))
        entries.append(ClassSummand(members, summand, chain, factors))
        summands.append(summand)
    if not is_direct_sum(summands, _rowspace(Mat.identity(p, N), N)):
        raise ArithmeticError(
            "class summands do not decompose the tensor power (p=%d, "
            "n=%d, r=%d)" % (p, n, r))
    return FiltrationReport(p, n, r, entries)


def prop35_check(n, r, p, J):
    """True iff the idempotent of class J maps the PBW monomials of J's
    partitions to a basis of the class summand."""
    fam = lift_idempotents(r, p)
    e = fam.idempotent_for(J.smallest)
    E = element_action_matrix(n, e)
    vecs = []
    for lam in sorted(J.members):
        for mono in pbw_monomials(n, lam):
            vecs.append(E.apply(pbw_monomial_vector(p, n, mono)))
    N = n ** r
    span = Subspace.from_vectors(p, N, vecs)
    return span.dim == len(vecs) and span == _rowspace(E, N)


# ---------------------------------------------------------------------------
# the B-family


class DegreeData:
    """Everything retained for one constructed degree q = s k."""

    __slots__ = ("degree", "s", "basis", "elim", "complement", "lower",
                 "projection")

    def __init__(self, degree, s, basis, elim, complement, lower,
                 projection):
        self.degree = degree
        self.s = s
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


def _multisets_with_slot_sum(elems, total):
    """Non-decreasing index tuples into elems with slot counts summing
    to total; elems is a list of (slots, vector) with slots >= 1."""
    return [multi for size in range(1, total + 1)
            for multi in combinations_with_replacement(range(len(elems)), size)
            if sum(elems[j][0] for j in multi) == total]


@lru_cache(maxsize=None)
def _star_matrix(p, b, c_d, step):
    """The class idempotent of a slot pattern of c_d // step slots of
    width step, acting on T^c_d over a b-letter alphabet."""
    idem = lift_idempotents(c_d, p).idempotent_for((step,) * (c_d // step))
    return element_action_matrix(b, idem)


def _canonical_data(q, k, n, p, family):
    """Class projector, its kernel, and the star span at degree q; the
    projector and its kernel are kept per weight space, the kernel as
    basis rows that are the identity at ``free`` (``class_projector``).

    The star span is built from products of lower-degree basis elements:
    for each proper divisor degree d, Lie elements over the degree-d
    basis (of the lengths a p-power ladder prescribes) are multiplied in
    non-decreasing order and hit with the class idempotent of the
    matching p-class, computed with the degree-d basis as the alphabet
    and then substituted into T^q(V).  Raises ComplementSearchExhausted
    when any rank check fails.
    """
    N = n ** q
    m, q1 = _p_part(q, p)
    members = sorted(class_of_partition((q,), p).members)
    expect = sum(higher_lie_dim(n, lam) for lam in members)

    e0 = solve_class_indicator(q, p, members)
    try:
        E, kernel, free = class_projector(n, e0)
    except ArithmeticError as exc:
        raise ComplementSearchExhausted(
            q, "projector lifting failed: %s" % exc)
    # E is block diagonal over the weight spaces, so its kernel is the sum
    # of those of its blocks, and its rank is N less their dimensions
    rank = N - sum(rows.nrows for rows in kernel.values())
    if rank != expect:
        raise ComplementSearchExhausted(
            q, "class projector rank %d, expected %d" % (rank, expect))

    # graded generating sets over each lower degree d
    ds = []
    for d in range(k, q, k):
        if q % d:
            continue
        data = family.get(d)
        if data is None or data.basis.dim == 0:
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

    # slot budgets: c_d slots of width d per divisor, multiples of step
    sigmas = [sigma for sigma in iter_product(
        *(range(0, q // d + 1, step) for d, step, *_ in ds))
        if sum(c * d for c, (d, *_) in zip(sigma, ds)) == q]

    star_rows = []
    for sigma in sigmas:
        per_d = []
        for (d, step, b, brows, elems), c_d in zip(ds, sigma):
            if c_d == 0:
                continue
            idem = _star_matrix(p, b, c_d, step)
            starred = [idem.apply(concat_all(p, b, [elems[j] for j in multi]))
                       for multi in _multisets_with_slot_sum(elems, c_d)]
            per_d.append([(c_d * d, row) for row in substitute(
                p, n, d, brows, c_d, starred)])
        if per_d:
            star_rows.extend(concat_all(p, n, combo)
                             for combo in iter_product(*per_d))

    star = Subspace.from_packed(p, N, star_rows)
    if star.dim != len(star_rows):
        raise ComplementSearchExhausted(
            q, "star span has rank %d from %d products"
            % (star.dim, len(star_rows)))
    return {
        "members": members,
        "projector": E,
        "kernel": kernel,
        "free": free,
        "star": star,
        "expect": expect,
    }


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


def _assemble_certificate(p, n, q, basis, star, kernel, free):
    """Projection onto basis along star + kernel, or None if the three
    do not stack to a basis of the tensor power.  basis and star map each
    weight to their rows in it (see ``_by_weight``), kernel to basis rows
    K of the class projector's kernel in it, and free to the columns phi
    where K is the identity (``class_projector``).  Reduced over K at phi,
    the basis rows B and star rows S stack to M = [B_tau - B_phi K_tau;
    S_tau - S_phi K_tau], tau the other columns, which is invertible
    exactly when the stacked rows are a basis.  The projection is then
    Q (first b columns of M^-1) B, with Q[tau] = I and Q[phi] = -K_tau;
    it is unique, so it is the one the stacked rows' inverse gives."""
    pieces = {}
    for alpha, b in basis.items():
        K, phi, s, d = kernel[alpha], free[alpha], star[alpha], b.ncols
        if b.nrows + s.nrows + K.nrows != d:
            return None
        tau = np.setdiff1d(np.arange(d), phi)
        Kt = K.columns(tau)
        rows = Mat.from_packed(p, b.packed_rows() + s.packed_rows(), d)
        try:
            inv = _invert(rows.columns(tau) - rows.columns(phi) @ Kt)
        except ValueError:
            return None
        head = inv.columns(range(b.nrows))  # Q head: head, -K_tau head
        stacked = head.packed_rows() + (Kt @ head).scale(-1).packed_rows()
        pieces[alpha] = Mat.from_packed(p, [stacked[i] for i in np.argsort(
            np.concatenate((tau, phi)))], b.nrows) @ b
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
    Every product has r as one of its dimensions.
    """
    B = basis.basis_matrix()
    C = proj.columns(basis.pivots)
    if C @ B != proj:
        return "projection rows lie outside the stored basis"
    if B @ C != Mat.identity(proj.p, basis.dim):
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


def _split_off(q, k, n, p, action, lie, lower_sum, elim, family):
    """Find W complementing the settled part of L^q and certify
    B = elim + W as a direct summand of T^q by the projection along the
    star span plus ker E, or, when the lower Lie pieces fill L^q, by the
    zero projection onto B = W = 0.  Returns (basis, W, projection); any
    failure raises ComplementSearchExhausted naming q and the reason."""
    N = n ** q
    known, want = direct_sum(p, N, [lower_sum, elim])
    if known.dim != want:
        raise ArithmeticError(
            "bracket pieces overlap the lower Lie pieces at degree %d" % q)
    if lower_sum.dim == lie.dim:
        # the lower pieces fill L^q, so B_q is 0 and so is its projection
        basis, proj = Subspace.zero(p, N), Mat.zeros(p, N, N)
        flaw = _projection_flaw(proj, basis, action)
        if flaw is not None:
            raise ComplementSearchExhausted(q, flaw)
        return basis, basis, proj
    # the canonical data need only the family below q, and the solve only
    # the action, the settled part and L^q, so the two run side by side
    with _canonical_worker(q, k, n, p, family) as canonical:
        sol = None
        if known.dim != lie.dim:
            sol = solve_equivariant_projection(
                action, known, lie, labels=_weight_index(n, q)[lie.pivots])
        canon = canonical()
    star = canon["star"]
    # the star span must meet the Lie power exactly in the lower Lie
    # pieces, and must stack with it to the full class summand
    if star.intersect(lie) != lower_sum:
        raise ComplementSearchExhausted(
            q, "star span meets the Lie power incorrectly")
    merged = star.sum(lie)
    if merged.dim != canon["expect"]:
        raise ComplementSearchExhausted(
            q, "star span plus Lie power has dimension %d, expected %d"
            % (merged.dim, canon["expect"]))
    E = canon["projector"]
    for alpha, rows in _by_weight(merged, n, q, "star-extended Lie "
                                  "power").items():
        if rref(rows @ E[alpha])[1] != rows.nrows:
            raise ComplementSearchExhausted(
                q, "class projector is not injective on the star-extended "
                "Lie power")

    if known.dim == lie.dim:
        wnew = Subspace.zero(p, N)
    elif sol is None:
        raise ComplementSearchExhausted(
            q, "no weight-preserving equivariant projection of the Lie "
            "power onto the settled part exists")
    else:
        wnew = _complement_from(lie, sol)

    basis, want = direct_sum(p, N, [elim, wnew])
    if basis.dim != want:
        raise ComplementSearchExhausted(
            q, "complement meets the bracket pieces")
    proj = _assemble_certificate(p, n, q, _by_weight(basis, n, q, "basis"),
                                 _by_weight(star, n, q, "star span"),
                                 canon["kernel"], canon["free"])
    if proj is None:
        raise ComplementSearchExhausted(
            q, "basis, star span and class-projector kernel do not stack "
            "to a basis")
    flaw = _projection_flaw(proj, basis, action)
    if flaw is not None:
        raise ComplementSearchExhausted(q, flaw)
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
        if i < 2:
            continue
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
    """DegreeData for q = s k with s >= 2, from the family below q: the
    settled part of L^q, the certified split, and the check that L^q is
    the direct sum of the lower Lie pieces and the new basis."""
    lower, lower_sum, elim = _settled_part(q, k, n, p, family)
    basis, wnew, proj = _split_off(q, k, n, p, action, lie, lower_sum,
                                   elim, family)
    if not _splits(lower, basis, lie):
        raise ArithmeticError(
            "degree-%d Lie power fails to split into the lower pieces "
            "plus the new basis" % q)
    return DegreeData(q, q // k, basis, elim, wnew, lower, proj)


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
    for s in range(1, max_degree // k + 1):
        q = s * k
        action = TensorAction(gens, q)
        lie = lie_power(p, n, q)
        if s == 1:
            inv_k = pow(q % p, p - 2, p)
            proj = dynkin_matrix(p, n, q).scale(inv_k)
            flaw = _projection_flaw(proj, lie, action)
            if flaw is not None:
                raise ArithmeticError(
                    "degree-%d bracketing projection: %s" % (q, flaw))
            degrees[q] = DegreeData(q, s, lie, Subspace.zero(p, n ** q),
                                    lie, [], proj)
            continue
        degrees[q] = _build_degree(q, k, n, p, action, lie, degrees)
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
