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
carried up from lower degrees) is found by an equivariant-projection
solve inside L^{sk}(V), trying weight-preserving solutions first.  The
direct-summand certificate for B_{sk} inside the full tensor power is
the projection onto B_{sk} along the star span plus ker E: E lifts the
idempotent of the p-class of the one-part cycle type to an operator on
T^q, and the star span is spanned by class-symmetrised products of
lower-degree basis elements.  No solve at tensor-power scale is needed.
The theorems predict that every check on this route passes, so any
failure raises ComplementSearchExhausted naming the degree and the
reason.

A certificate P (N x N) for a basis B (r x N, canonical, pivot columns
pi) is checked through C = P[:, pi] without any N x N x N product:

(i) C B = P holds exactly when every row of P lies in span B;
(ii) given (i), B C = I_r holds exactly when P is idempotent with image
     span B;
(iii) given (i) and (ii), P g = g P holds exactly when B g = M B with
     M = (B g)[:, pi] (span B is g-invariant) and C M = g C.
"""

from itertools import product as iter_product

from .combinat import (
    higher_lie_dim,
    p_equivalence_classes,
    partitions,
    witt_dim,
)
from .descent import (
    class_projector,
    element_action_matrix,
    lift_idempotents,
    solve_class_indicator,
)
from .freelie import (
    bracket_products,
    concat_packed,
    dynkin_matrix,
    filtration_subspace,
    lie_power,
    pbw_monomial_vector,
    pbw_monomials,
    subalgebra_generated,
    truncate_subspace,
)
from .linalg import (
    Mat,
    SpanBuilder,
    Subspace,
    _invert,
    field,
    index_to_word,
    is_direct_sum,
    solve_equivariant_projection,
    word_weight,
)
from .modrep import gl_generators, induce_on_tensor_power

__all__ = [
    "ClassSummand",
    "FiltrationReport",
    "split_tensor_power",
    "prop35_check",
    "DegreeData",
    "DecompositionResult",
    "ComplementSearchExhausted",
    "construct_B_family",
    "canonical_complement",
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


def _check_dense_dim(n, q):
    """Raise ValueError when n^q exceeds the dense-dimension cap, found by
    multiplying up to the cap rather than forming a power of any size."""
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
    """Raise ValueError unless p is a usable prime, n >= 1, k >= 1, p does
    not divide k, max_degree >= k, and the top degree is within the
    dense-dimension cap."""
    field(p)
    if k < 1:
        raise ValueError("k must be positive")
    if k % p == 0:
        raise ValueError("k must not be divisible by p")
    if n < 1:
        raise ValueError("n must be positive")
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


def _ascending_compositions(total):
    out = []

    def rec(minpart, remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(minpart, remaining + 1):
            acc.append(part)
            rec(part, remaining - part, acc)
            acc.pop()

    rec(1, total, [])
    return out


def _weight_labels(space, n, r):
    """Weight of each canonical basis row, read off its pivot word."""
    return [word_weight(index_to_word(c, n, r), n) for c in space.pivots]


def _complement_from(space, proj):
    """Ambient kernel of a projection given in domain coordinates."""
    eye = Mat.identity(space.p, space.dim)
    amb = (eye - proj) @ space.basis_matrix()
    return Subspace.from_packed(space.p, space.ambient, amb.packed_rows())


def _multisets_with_slot_sum(elems, total):
    """Non-decreasing index tuples into elems with slot counts summing
    to total; elems is a list of (slots, vector)."""
    out = []

    def rec(start, remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for j in range(start, len(elems)):
            if elems[j][0] <= remaining:
                acc.append(j)
                rec(j, remaining - elems[j][0], acc)
                acc.pop()

    rec(0, total, [])
    return out


def _canonical_data(q, k, n, p, family, action):
    """Class projector, its kernel, and the star span at degree q.

    The star span is built from products of lower-degree basis elements:
    for each proper divisor degree d, Lie elements over the degree-d
    basis (of the lengths a p-power ladder prescribes) are multiplied in
    non-decreasing order and hit with the class idempotent of the
    matching p-class, computed in base-d coordinates and then expanded
    into T^q(V).  Raises ComplementSearchExhausted when any rank check
    fails.
    """
    N = n ** q
    F = field(p)
    m, q1 = _p_part(q, p)
    J = None
    for cls in p_equivalence_classes(q, p):
        if (q,) in cls:
            J = cls
            break
    members = sorted(J.members)
    expect = sum(higher_lie_dim(n, lam) for lam in members)

    e0 = solve_class_indicator(q, p, members)
    try:
        E = class_projector(n, e0)
    except ArithmeticError as exc:
        raise ComplementSearchExhausted(
            q, "projector lifting failed: %s" % exc)
    image = _rowspace(E, N)
    if image.dim != expect:
        raise ComplementSearchExhausted(
            q, "class projector rank %d, expected %d" % (image.dim, expect))
    kernel = _rowspace(Mat.identity(p, N) - E, N)

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
    sigmas = []

    def rec_sigma(idx, remaining, acc):
        if idx == len(ds):
            if remaining == 0:
                sigmas.append(tuple(acc))
            return
        d, step = ds[idx][0], ds[idx][1]
        c = 0
        while c * d <= remaining:
            acc.append(c)
            rec_sigma(idx + 1, remaining - c * d, acc)
            acc.pop()
            c += step

    rec_sigma(0, q, [])

    embed_memo = {}

    def embed(d, brows, word):
        # word letters are 1-based indices into the degree-d basis rows
        key = (d, word)
        got = embed_memo.get(key)
        if got is None:
            got = brows[word[0] - 1]
            deg = d
            for letter in word[1:]:
                got = concat_packed(p, n, deg, got, d, brows[letter - 1])
                deg += d
            embed_memo[key] = got
        return got

    star_matrix_memo = {}

    def star_matrix(c_d, step):
        key = (c_d, step)
        got = star_matrix_memo.get(key)
        if got is None:
            fam_c = lift_idempotents(c_d, p)
            got = fam_c.idempotent_for((step,) * (c_d // step))
            star_matrix_memo[key] = got
        return got

    star_rows = []
    expected_count = 0
    for sigma in sigmas:
        per_d = []
        for (d, step, b, brows, elems), c_d in zip(ds, sigma):
            if c_d == 0:
                continue
            vectors = []
            for multi in _multisets_with_slot_sum(elems, c_d):
                f = None
                slots = 0
                for j in multi:
                    ell, row = elems[j]
                    if f is None:
                        f = row
                    else:
                        f = concat_packed(p, b, slots, f, ell, row)
                    slots += ell
                starred = element_action_matrix(
                    b, star_matrix(c_d, step)).apply(f)
                amb = F.zero(n ** (c_d * d))
                for idx, c in F.terms(starred):
                    word = index_to_word(idx, b, c_d)
                    amb = F.add(amb, F.scale(embed(d, brows, word), c))
                vectors.append((c_d * d, amb))
            per_d.append(vectors)
        if not per_d:
            continue
        count = 1
        for vectors in per_d:
            count *= len(vectors)
        expected_count += count
        for combo in iter_product(*per_d):
            acc = None
            deg = 0
            for piece_deg, vec in combo:
                if acc is None:
                    acc = vec
                else:
                    acc = concat_packed(p, n, deg, acc, piece_deg, vec)
                deg += piece_deg
            star_rows.append(acc)

    star = Subspace.from_packed(p, N, star_rows)
    if star.dim != expected_count:
        raise ComplementSearchExhausted(
            q, "star span has rank %d from %d products"
            % (star.dim, expected_count))
    return {
        "members": members,
        "projector": E,
        "image": image,
        "kernel": kernel,
        "star": star,
        "expect": expect,
    }


def _assemble_certificate(p, ambient, basis, star, kernel):
    """Projection onto basis along star + kernel, or None if the three
    do not stack to a basis of the tensor power."""
    rows = (list(basis.packed_rows()) + list(star.packed_rows())
            + list(kernel.packed_rows()))
    if len(rows) != ambient:
        return None
    try:
        inv = _invert(Mat.from_packed(p, rows, ambient))
    except ValueError:
        return None
    # the projection keeps the first b coordinates over the stacked rows:
    # inv . diag(I_b, 0) . stacked = (first b columns of inv) . B
    return inv.columns(range(basis.dim)) @ basis.basis_matrix()


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
        g = action.induced_matrix(gi)
        Bg = B @ g
        M = Bg.columns(basis.pivots)
        if M @ B != Bg:
            return "stored basis is not invariant under generator %d" % gi
        if C @ M != g @ C:
            return "projection fails to commute with generator %d" % gi
    return None


def _split_off(q, k, n, p, action, lie, lower_sum, elim, family):
    """Find W complementing the settled part of L^q and certify
    B = elim + W as a direct summand of T^q by the projection along the
    star span plus ker E.  Returns (basis, W, projection); any failure
    raises ComplementSearchExhausted naming q and the reason."""
    N = n ** q
    known = lower_sum.sum(elim)
    if known.dim != lower_sum.dim + elim.dim:
        raise ArithmeticError(
            "bracket pieces overlap the lower Lie pieces at degree %d" % q)
    # the canonical data need only the family below q; building them
    # before the solve also keeps the heap peak lower
    canon = _canonical_data(q, k, n, p, family, action)
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
    img = merged.basis_matrix() @ canon["projector"]
    if Subspace.from_packed(p, N, img.packed_rows()).dim != merged.dim:
        raise ComplementSearchExhausted(
            q, "class projector is not injective on the star-extended Lie "
            "power")

    if known.dim == lie.dim:
        wnew = Subspace.zero(p, N)
    else:
        labels = _weight_labels(lie, n, q)
        sol = solve_equivariant_projection(action, known, lie, labels=labels)
        if sol is None:
            raise ComplementSearchExhausted(
                q, "no equivariant projection of the Lie power onto the "
                "settled part exists")
        wnew = _complement_from(lie, sol)

    basis = elim.sum(wnew)
    if basis.dim != elim.dim + wnew.dim:
        raise ComplementSearchExhausted(
            q, "complement meets the bracket pieces")
    proj = _assemble_certificate(p, N, basis, star, canon["kernel"])
    if proj is None:
        raise ComplementSearchExhausted(
            q, "basis, star span and class-projector kernel do not stack "
            "to a basis")
    flaw = _projection_flaw(proj, basis, action)
    if flaw is not None:
        raise ComplementSearchExhausted(q, flaw)
    return basis, wnew, proj


def _settled_part(q, k, n, p, family):
    """The part of L^q settled by the family below degree q.

    Returns (lower, lower_sum, elim): the Lie piece generated by each
    lower basis B_ck as [(c, piece)], the sum of those pieces, and the
    span of the bracket pieces carried up from lower complements.  A
    dimension that contradicts free generation raises ArithmeticError;
    a lower degree missing from family raises ValueError.
    """
    s = q // k
    N = n ** q

    def data(d):
        if d not in family:
            raise ValueError("degree %d is needed for degree %d but is "
                             "missing from the family" % (d, q))
        return family[d]

    lower = []
    lower_sb = SpanBuilder(p, N)
    expected_lower = 0
    for c in _proper_divisors(s):
        bd = data(c * k).basis
        if bd.dim == 0:
            lower.append((c, Subspace.zero(p, N)))
            continue
        closure = subalgebra_generated(
            p, n, {c * k: list(bd.packed_rows())}, q)
        piece = closure.get(q, Subspace.zero(p, N))
        want = witt_dim(bd.dim, s // c)
        if piece.dim != want:
            raise ArithmeticError(
                "free generation fails at degree %d: Lie elements of "
                "length %d over the degree-%d basis span dimension "
                "%d, expected %d" % (q, s // c, c * k, piece.dim, want))
        lower.append((c, piece))
        for row in piece.packed_rows():
            lower_sb.add(row)
        expected_lower += want
    if lower_sb.dim != expected_lower:
        raise ArithmeticError(
            "lower Lie pieces overlap at degree %d: joint dimension "
            "%d, expected %d" % (q, lower_sb.dim, expected_lower))
    lower_sum = lower_sb.subspace()

    elim_sb = SpanBuilder(p, N)
    expected_elim = 0
    for total in range(1, s - 1):
        i = s - total
        if i < 2:
            continue
        for tau in _ascending_compositions(total):
            if any(i + sum(tau[:u]) <= tau[u] for u in range(len(tau))):
                continue
            wpart = data(i * k).complement
            if wpart.dim == 0:
                continue
            rows = list(wpart.packed_rows())
            deg = i * k
            count = wpart.dim
            for t_part in tau:
                bpart = data(t_part * k).basis
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
            for row in piece.packed_rows():
                elim_sb.add(row)
            expected_elim += count
    if elim_sb.dim != expected_elim:
        raise ArithmeticError(
            "bracket pieces overlap at degree %d: joint dimension %d, "
            "expected %d" % (q, elim_sb.dim, expected_elim))
    elim = elim_sb.subspace()
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
    pieces = [piece for _, piece in lower if piece.dim]
    if not is_direct_sum(pieces + [basis], lie):
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
        action = induce_on_tensor_power(gens, q)
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


def canonical_complement(q, k, n, p, family):
    """The new complement W at degree q, given the family data below q.

    family maps constructed degrees to DegreeData.  Recomputes the
    settled part of L^q from the family, solves for an equivariant
    complement, and verifies its certificate and the splitting of L^q.
    Raises ComplementSearchExhausted when the certificate fails, and
    ValueError when a degree below q that the settled part needs is
    missing from family.
    """
    if q % k or q // k < 2:
        raise ValueError("degree must be a multiple of k of weight >= 2")
    action = induce_on_tensor_power(gl_generators(n, p), q)
    lie = lie_power(p, n, q)
    return _build_degree(q, k, n, p, action, lie, family).complement


def certify_decomposition(result, companion=None):
    """Re-verify a constructed family from its stored data alone.

    Checks, per degree: the stored projection is an idempotent
    equivariant operator with image the stored basis, and the basis
    lies inside the Lie power.  At degrees k, pk, p^2 k, ... the lower
    Lie pieces are re-derived independently and the exact splitting of
    the Lie power is re-checked.  When companion (a family built at a
    smaller n, same p and k) is given, letters beyond its rank are
    truncated away and the bases compared degree by degree.

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

    for q in sorted(result.degrees):
        data = result.degrees[q]
        action = induce_on_tensor_power(gens, q)
        lie = lie_power(p, n, q)
        flaw = _projection_flaw(data.projection, data.basis, action)
        record(q, "projection certificate"
               if flaw is None else "projection certificate (%s)" % flaw,
               flaw is None)
        record(q, "basis lies in the Lie power",
               lie.contains_space(data.basis))

    q = k
    while q <= result.max_degree:
        if q in result.degrees:
            pieces = []
            for c in _proper_divisors(q // k):
                if c * k not in result.degrees:
                    continue
                bd = result.degrees[c * k].basis
                if bd.dim == 0:
                    continue
                closure = subalgebra_generated(
                    p, result.n, {c * k: list(bd.packed_rows())}, q)
                piece = closure.get(q)
                if piece is not None and piece.dim:
                    pieces.append(piece)
            pieces.append(result.degrees[q].basis)
            ok = is_direct_sum(pieces, lie_power(p, result.n, q))
            record(q, "Lie power splits over the lower bases", ok)
        q *= p

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
