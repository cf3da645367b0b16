"""Command-line interface.

Subcommands: dims (dimension tables), pclasses (p-equivalence classes),
filtration (class-summand split of a tensor power), decompose (build a
B-family, which certifies every degree as it goes, and report the
verdicts of that construction, optionally writing a certificate file),
certify (re-verify a certificate file from its data alone), selftest
(quick or full check suites).

Exit codes:
  0  everything verified;
  1  a certificate or mathematical invariant failed, including a degree
     at which decompose finds no certified complement;
  2  usage error, malformed input file, or dimension cap.

JSON reports share one shape: {config, results, certificates, totals,
timing_ms}.  Certificates reference payload entries holding subspaces
(in the shared text format, as string arrays) and projection matrices
(hex rows for p = 2, space-separated digits otherwise), so a report can
be re-checked without re-running the construction.  certify takes a
payload only byte for byte as decompose writes it.  Output is
deterministic apart from timing_ms.
"""

import argparse
import json
import sys
import time
from contextlib import contextmanager, nullcontext
from itertools import zip_longest

from .combinat import (
    compositions,
    higher_lie_dim,
    p_equivalence_classes,
    partitions,
    witt_dim,
    young_character,
)
from .decompose import (
    _check_dense_dim,
    _check_family_args,
    _proper_divisors,
    _splitting_degrees,
    DecompositionResult,
    DegreeData,
    certify_decomposition,
    construct_B_family,
    prop35_check,
    split_tensor_power,
)
from .descent import (
    DescentElement,
    gr_action_check,
    lift_idempotents,
    multiply_permutation_oracle,
)
from .freelie import lie_power, symmetrize_extend, truncate_subspace
from .linalg import (
    Mat,
    Subspace,
    field,
    parse_subspace,
    subspace_lines,
)

_MAX_R = 30
# filtration lifts the descent idempotents of degree r, then splits T^r(V)
# by them one weight space at a time.  On a 2-vCPU VM lifting takes 0.3 s at
# r = 7 and 2-3.5 s at r = 8, and filtration --p 3 --n 3 --r 7 takes 2.5 s
_MAX_FILTRATION_R = 7


def _part_str(lam):
    return "+".join(str(x) for x in lam)


def _check_caps(args, max_r, need_power=None):
    field(args.p)  # ValueError unless p is a prime the field code accepts
    if not 1 <= args.r <= max_r:
        raise ValueError("r out of range 1..%d" % max_r)
    if need_power is not None:
        _check_dense_dim(args.n, need_power)


# ---------------------------------------------------------------------------
# matrix payloads (subspaces use the shared text format)


def _matrix_payload(m):
    return {"type": "matrix", "p": m.p, "size": m.ncols,
            "rows": m.row_texts()}


# the keys of a decompose report, and of each kind of payload object
_REPORT_KEYS = {"config", "results", "certificates", "payloads", "totals",
                "timing_ms"}
_PAYLOAD_KEYS = {"matrix": {"type", "p", "size", "rows"},
                 "subspace": {"type", "lines"}}


def _payload_object(payloads, key, kind):
    """The payload object at key, which must be of the given kind with
    exactly that kind's keys."""
    obj = payloads[key]
    if not isinstance(obj, dict):
        raise TypeError("not an object")
    extra = sorted(set(obj) ^ _PAYLOAD_KEYS[kind])
    if extra:
        flaw = "%s key %s" % ("unexpected" if extra[0] in obj else "missing",
                              extra[0])
    else:
        flaw = _json_mismatch({"type": obj["type"]}, {"type": kind})
    if flaw:
        raise ValueError("malformed payload %s: %s" % (key, flaw))
    return obj


def _matrix_from_payload(payloads, key):
    obj = _payload_object(payloads, key, "matrix")
    try:
        return Mat.from_texts(*_ints(obj, "p", "size"), obj["rows"])
    except ValueError as exc:
        raise ValueError("payload %s: %s" % (key, exc)) from None


def _subspace_payload(space, n, r):
    return {"type": "subspace", "lines": list(subspace_lines(space, n, r))}


def _subspace_from_payload(payloads, key, p, n, r):
    """The subspace of a payload whose header must be 'p n r'; the header
    is checked before any row is parsed.  The lines must then be those
    ``_subspace_payload`` writes for that subspace, byte for byte, which
    are written and compared one at a time."""
    lines = _payload_object(payloads, key, "subspace")["lines"]
    try:
        space = parse_subspace("\n".join(lines), header=(p, n, r))[0]
        for i, (got, want) in enumerate(zip_longest(
                lines, subspace_lines(space, n, r))):
            if got != want:
                raise ValueError("line %d: not the canonical text of the "
                                 "subspace" % i)
        return space
    except ValueError as exc:
        raise ValueError("payload %s: %s" % (key, exc)) from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_dims(args):
    _check_caps(args, _MAX_R)
    p, n, r = args.p, args.n, args.r
    if n < 1:
        raise ValueError("n must be positive")
    rows = []
    total = 0
    for lam in sorted(partitions(r)):
        d = higher_lie_dim(n, lam)
        total += d
        rows.append({"partition": _part_str(lam), "dim": d})
    ok = total == n ** r
    payload = {
        "config": {"command": "dims", "p": p, "n": n, "r": r},
        "results": rows,
        "certificates": [],
        "totals": {"checks": 1, "passed": int(ok),
                   "sum": total, "expected": n ** r,
                   "witt_dim": witt_dim(n, r)},
    }
    return payload, ("partition", "dim"), 0 if ok else 1


def cmd_pclasses(args):
    _check_caps(args, _MAX_R)
    p, r = args.p, args.r
    rows = []
    covered = 0
    for cls in p_equivalence_classes(r, p):
        members = sorted(cls.members)
        covered += len(members)
        rows.append({"class": _part_str(cls.smallest),
                     "size": len(members),
                     "members": [_part_str(m) for m in members]})
    ok = covered == len(partitions(r))
    payload = {
        "config": {"command": "pclasses", "p": p, "r": r},
        "results": rows,
        "certificates": [],
        "totals": {"checks": 1, "passed": int(ok), "classes": len(rows)},
    }
    return payload, ("class", "size", "members"), 0 if ok else 1


def cmd_filtration(args):
    _check_caps(args, _MAX_FILTRATION_R, need_power=args.r)
    p, n, r = args.p, args.n, args.r
    report = split_tensor_power(n, r, p)
    classes = {frozenset(c.members): c for c in p_equivalence_classes(r, p)}
    rows = []
    certs = []
    passed = 0
    for entry in report.entries:
        cls = classes[frozenset(entry.members)]
        iso = prop35_check(n, r, p, cls)
        passed += int(iso)
        rows.append({"class": _part_str(sorted(entry.members)[0]),
                     "members": [_part_str(m) for m in entry.members],
                     "summand_dim": entry.summand.dim,
                     "chain_dims": list(entry.chain_dims),
                     "factor_dims": list(entry.factor_dims),
                     "pbw_basis_check": bool(iso)})
        certs.append({"kind": "filtration_class",
                      "degree_or_class": _part_str(sorted(entry.members)[0]),
                      "status": "ok" if iso else "fail",
                      "stage": None, "data_ref": None})
    ok = passed == len(rows)
    payload = {
        "config": {"command": "filtration", "p": p, "n": n, "r": r},
        "results": rows,
        "certificates": certs,
        "totals": {"checks": len(rows), "passed": passed},
    }
    return payload, ("class", "summand_dim", "chain_dims",
                     "pbw_basis_check"), 0 if ok else 1


# "stage" (always 1) and "max_search" (always 64) are fixed fields of the
# decompose report, kept so existing reports stay byte-identical
_MAX_SEARCH = 64


def _result_row(n, k, q, b_dims, elim_dim, complement_dim):
    """The results row of degree q in a decompose report, given the
    dimension of every basis and the split of B_q between the bracket
    pieces and the new complement.  The lower piece L^{s/c}(B_ck) is
    freely generated, so its dimension is witt_dim(dim B_ck, s / c)."""
    s = q // k
    return {"degree": q, "b_dim": b_dims[q], "elim_dim": elim_dim,
            "complement_dim": complement_dim,
            "lower_dims": [[c * k, witt_dim(b_dims[c * k], s // c)]
                           for c in _proper_divisors(s)],
            "lie_dim": witt_dim(n, q), "stage": 1}


def _certificates(p, k, max_degree, degrees):
    """The certificates and totals of a decompose report over the
    ascending degrees: a projection and a basis certificate per degree,
    and a splitting certificate at k, pk, p^2 k, ...  Each is "ok", as
    decompose reports only a family every check of which passed."""
    splitting = set(_splitting_degrees(k, p, max_degree))
    certs = []
    for q in degrees:
        for kind in ("projection", "basis"):
            certs.append({"kind": kind, "degree_or_class": q,
                          "status": "ok", "stage": 1,
                          "data_ref": "%s/%d" % (kind, q)})
        if q in splitting:
            certs.append({"kind": "splitting", "degree_or_class": q,
                          "status": "ok", "stage": None, "data_ref": None})
    return certs, {"checks": len(certs), "passed": len(certs)}


def cmd_decompose(args):
    p, n, k = args.p, args.n, args.k
    max_degree = args.max_degree
    result = construct_B_family(n, p, k, max_degree)
    # construct_B_family raises at the first failed check, so every check
    # certify_decomposition would make here has already passed: the
    # construction runs _projection_flaw and _splits at every degree, and
    # _splits implies B_q lies in L^q.
    degrees = sorted(result.degrees)
    b_dims = result.b_dims()
    rows = []
    payloads = {}
    for q in degrees:
        data = result.degrees[q]
        rows.append(_result_row(n, k, q, b_dims, data.elim.dim,
                                data.complement.dim))
        payloads["basis/%d" % q] = _subspace_payload(data.basis, n, q)
        payloads["projection/%d" % q] = _matrix_payload(data.projection)
    certs, totals = _certificates(p, k, max_degree, degrees)
    payload = {
        "config": {"command": "decompose", "p": p, "n": n, "k": k,
                   "max_degree": max_degree, "max_search": _MAX_SEARCH},
        "results": rows,
        "certificates": certs,
        "payloads": payloads,
        "totals": totals,
    }
    return payload, ("degree", "b_dim", "elim_dim", "complement_dim",
                     "lie_dim", "stage"), 0


@contextmanager
def _reading(part):
    """Report a part of an input report that has the wrong JSON type as a
    ValueError naming the part, so certify exits 2 rather than 1."""
    try:
        yield
    except (TypeError, AttributeError) as exc:
        raise ValueError("malformed %s: %s" % (part, exc)) from None


def _ints(obj, *keys):
    """The values of obj at keys, each of which must be a JSON integer;
    anything else (a float, a bool, a string) raises TypeError."""
    out = []
    for key in keys:
        value = obj[key]
        if type(value) is not int:
            raise TypeError("%s is %r, not an integer" % (key, value))
        out.append(value)
    return out


def _json_mismatch(got, want):
    """The first key, in sorted order, at which the dicts got and want
    differ as JSON (so true is not 1 and 1.0 is not 1), with the two
    values as JSON text ("absent" for a missing key); None when they
    agree."""
    for key in sorted(set(got) | set(want)):
        a = json.dumps(got[key]) if key in got else "absent"
        b = json.dumps(want[key]) if key in want else "absent"
        if a != b:
            return "%s is %s, expected %s" % (key, a, b)
    return None


def _result_from_payload(payload):
    extra = sorted(set(payload) - _REPORT_KEYS)
    if extra:
        raise ValueError("malformed report: unexpected key %s" % extra[0])
    with _reading("config"):
        p, n, k, max_degree = _ints(payload["config"], "p", "n", "k",
                                    "max_degree")
        flaw = _json_mismatch(payload["config"], {
            "command": "decompose", "p": p, "n": n, "k": k,
            "max_degree": max_degree, "max_search": _MAX_SEARCH})
    if flaw:
        raise ValueError("malformed config: %s" % flaw)
    if k < 1:  # the degree range below needs a positive step
        raise ValueError("k must be positive")
    with _reading("results"):
        rows = list(payload["results"])
    entries = []
    for i, row in enumerate(rows):
        with _reading("results entry %d" % i):
            entries.extend(_ints(row, "degree"))
    # a range is lazy, so its length costs nothing however large the
    # claimed max_degree; only equal counts are listed
    want = range(k, max_degree + 1, k)
    if len(entries) != len(want):
        raise ValueError("report result count %d, expected %d"
                         % (len(entries), len(want)))
    got = list(want)
    if entries != got:
        raise ValueError("malformed results: cover degrees %s, expected %s"
                         % (entries, got))
    # the configuration must be one decompose accepts before any payload
    # is parsed; after the count check, so a huge max_degree is named by
    # its count rather than by the dimension cap
    _check_family_args(n, p, k, max_degree)
    degrees = {}
    for q in got:
        key = "basis/%d" % q
        with _reading("payload " + key):
            basis = _subspace_from_payload(payload["payloads"], key, p, n, q)
        key = "projection/%d" % q
        with _reading("payload " + key):
            proj = _matrix_from_payload(payload["payloads"], key)
        if proj.p != p or proj.ncols != n ** q:
            raise ValueError("projection payload size mismatch at degree "
                             "%d" % q)
        zero = Subspace.zero(p, n ** q)
        degrees[q] = DegreeData(q, basis, zero, zero, [], proj)
    result = DecompositionResult(p, n, k, max_degree, degrees)
    _check_summary(payload, rows, result)
    return result


def _check_summary(payload, rows, result):
    """ValueError unless the results rows, certificates, totals and
    payload keys are those decompose writes for the stored bases.  The
    split of b_dim between elim_dim and complement_dim needs the settled
    part, which certify does not rebuild, so only their sum is checked."""
    n, k, b_dims = result.n, result.k, result.b_dims()
    for i, row in enumerate(rows):
        with _reading("results entry %d" % i):
            elim, comp = _ints(row, "elim_dim", "complement_dim")
            q = row["degree"]
            if min(elim, comp) < 0 or elim + comp != b_dims[q]:
                flaw = "elim_dim %d and complement_dim %d do not split " \
                    "b_dim %d" % (elim, comp, b_dims[q])
            else:
                flaw = _json_mismatch(row, _result_row(n, k, q, b_dims,
                                                       elim, comp))
        if flaw:
            raise ValueError("malformed results entry %d: %s" % (i, flaw))
    certs, totals = _certificates(result.p, k, result.max_degree,
                                  sorted(b_dims))
    with _reading("certificates"):
        got = list(payload["certificates"])
    if len(got) != len(certs):
        raise ValueError("malformed certificates: %d entries, expected %d"
                         % (len(got), len(certs)))
    for i, (cert, want) in enumerate(zip(got, certs)):
        with _reading("certificates entry %d" % i):
            flaw = _json_mismatch(cert, want)
        if flaw:
            raise ValueError("malformed certificates entry %d: %s"
                             % (i, flaw))
    with _reading("totals"):
        flaw = _json_mismatch(payload["totals"], totals)
    if flaw:
        raise ValueError("malformed totals: %s" % flaw)
    named = {"%s/%d" % (kind, q) for q in b_dims
             for kind in ("basis", "projection")}
    extra = sorted(set(payload["payloads"]) - named)
    if extra:
        raise ValueError("malformed payloads: no degree names %s" % extra[0])


def cmd_certify(args):
    with open(args.certificate, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    with _reading("report"):
        command = payload.get("config", {}).get("command")
    if command != "decompose":
        raise ValueError("certificate file is not a decompose report")
    result = _result_from_payload(payload)
    report = certify_decomposition(result)
    rows = []
    checks = 0
    passed = 0
    for q in sorted(report["degrees"]):
        for name, ok in report["degrees"][q]:
            checks += 1
            passed += int(ok)
            rows.append({"degree": q, "check": name,
                         "status": "ok" if ok else "fail"})
    payload_out = {
        "config": {"command": "certify", "p": result.p, "n": result.n,
                   "k": result.k, "max_degree": result.max_degree},
        "results": rows,
        "certificates": [],
        "totals": {"checks": checks, "passed": passed},
    }
    return payload_out, ("degree", "check", "status"), \
        0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# self-test suites


def _st_dims_bookkeeping():
    for p in (2, 3):
        for n in (2, 3):
            for r in range(1, 5):
                if lie_power(p, n, r).dim != witt_dim(n, r):
                    return False
                total = sum(higher_lie_dim(n, lam)
                            for lam in partitions(r))
                if total != n ** r:
                    return False
    return True


def _st_descent_oracle():
    for p in (2, 3):
        for r in (2, 3):
            comps = compositions(r)
            for a in comps:
                for b in comps:
                    x = DescentElement.x_basis(r, p, a)
                    y = DescentElement.x_basis(r, p, b)
                    if (x * y).as_permutation_counter() != \
                            multiply_permutation_oracle(x, y):
                        return False
    return True


def _st_young_constancy():
    for p in (2, 3):
        for r in (3, 4):
            for cls in p_equivalence_classes(r, p):
                members = sorted(cls.members)
                for nu in compositions(r):
                    vals = {young_character(nu, lam) % p for lam in members}
                    if len(vals) != 1:
                        return False
    return True


def _st_idempotent_families():
    for p in (2, 3):
        for r in range(1, 5):
            lift_idempotents(r, p)
    return True


def _st_gr_action():
    return (gr_action_check(2, 2, 3, trials=10, seed=1)
            and gr_action_check(3, 2, 3, trials=10, seed=1))


def _st_filtration_examples():
    if split_tensor_power(2, 2, 2).summand_dims() != [4]:
        return False
    if sorted(split_tensor_power(2, 4, 2).summand_dims()) != [4, 12]:
        return False
    if split_tensor_power(2, 2, 3).summand_dims() != [3, 1]:
        return False
    for p in (2, 3):
        for r in range(2, 5):
            for cls in p_equivalence_classes(r, p):
                if not prop35_check(2, r, p, cls):
                    return False
    return True


def _st_family_small():
    res = construct_B_family(2, 2, 3, 6)
    if res.b_dims() != {3: 2, 6: 8}:
        return False
    if not certify_decomposition(res)["ok"]:
        return False
    res = construct_B_family(2, 3, 2, 6)
    if res.b_dims() != {2: 1, 4: 3, 6: 9}:
        return False
    return certify_decomposition(res)["ok"]


def _st_filtration_sweep():
    for p in (2, 3):
        for n in (2, 3):
            for r in range(2, 7):
                rep = split_tensor_power(n, r, p)
                if sum(rep.summand_dims()) != n ** r:
                    return False
    return True


def _st_family_flagship():
    res = construct_B_family(2, 2, 3, 12)
    if res.b_dims() != {3: 2, 6: 8, 9: 54, 12: 304}:
        return False
    return certify_decomposition(res)["ok"]


def _st_truncation():
    res3 = construct_B_family(3, 2, 3, 6)
    res2 = construct_B_family(2, 2, 3, 6)
    rep = certify_decomposition(res3, companion=res2)
    if not rep["ok"]:
        return False
    for p in (2, 3):
        for r in (2, 3):
            lie = lie_power(p, 2, r)
            ext = symmetrize_extend(lie, 2, 3, r)
            if truncate_subspace(ext, 3, 2, r) != lie:
                return False
    return True


_SELFTEST_QUICK = [
    ("dimension bookkeeping", _st_dims_bookkeeping),
    ("descent multiplication oracle", _st_descent_oracle),
    ("young character constancy", _st_young_constancy),
    ("idempotent families", _st_idempotent_families),
    ("descent action on lie products", _st_gr_action),
    ("filtration examples", _st_filtration_examples),
    ("small decompositions", _st_family_small),
]

_SELFTEST_FULL = _SELFTEST_QUICK + [
    ("filtration sweep", _st_filtration_sweep),
    ("flagship decomposition", _st_family_flagship),
    ("truncation consistency", _st_truncation),
]


def cmd_selftest(args):
    suite = _SELFTEST_QUICK if args.level == "quick" else _SELFTEST_FULL
    rows = []
    passed = 0
    for name, fn in suite:
        try:
            ok, note = bool(fn()), ""
        except Exception as exc:  # a failed invariant inside a helper
            ok, note = False, "%s: %s" % (type(exc).__name__, exc)
        passed += int(ok)
        row = {"check": name, "status": "ok" if ok else "fail"}
        if note:
            row["note"] = note
        rows.append(row)
    payload = {
        "config": {"command": "selftest", "level": args.level},
        "results": rows,
        "certificates": [],
        "totals": {"checks": len(rows), "passed": passed},
    }
    return payload, ("check", "status"), 0 if passed == len(rows) else 1


# ---------------------------------------------------------------------------
# rendering and entry point


def _render_text(payload, columns):
    lines = []
    conf = payload["config"]
    lines.append(" ".join("%s=%s" % (k, conf[k]) for k in sorted(conf)))
    rows = payload["results"]
    if rows:
        table = [[str(row.get(c, "")) for c in columns] for row in rows]
        widths = [max(len(columns[i]), max(len(t[i]) for t in table))
                  for i in range(len(columns))]
        lines.append("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
        for t in table:
            lines.append("  ".join(x.ljust(w) for x, w in zip(t, widths)))
    totals = payload["totals"]
    lines.append(" ".join("%s=%s" % (k, totals[k]) for k in sorted(totals)))
    return "\n".join(lines) + "\n"


def _render_csv(payload, columns):
    import csv as _csv
    import io as _io
    buf = _io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in payload["results"]:
        writer.writerow([row.get(c, "") for c in columns])
    return buf.getvalue()


def build_parser():
    parser = argparse.ArgumentParser(
        prog="liepowers",
        description="Modular Lie powers inside tensor powers: dimension "
                    "tables, filtrations, decompositions, certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, *, r=False, n=False, k=False):
        sp.add_argument("--p", type=int, required=True,
                        help="field characteristic (prime)")
        if n:
            sp.add_argument("--n", type=int, required=True,
                            help="rank of the underlying module")
        if r:
            sp.add_argument("--r", type=int, required=True,
                            help="tensor degree")
        if k:
            sp.add_argument("--k", type=int, required=True,
                            help="base degree of the family")
            sp.add_argument("--max-degree", type=int, required=True,
                            help="largest constructed degree")
        sp.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
        sp.add_argument("--out", help="write the report here "
                                      "instead of stdout")

    sp = sub.add_parser("dims", help="higher-Lie dimension table")
    add_common(sp, r=True, n=True)
    sp = sub.add_parser("pclasses", help="p-equivalence classes")
    add_common(sp, r=True)
    sp = sub.add_parser("filtration", help="split a tensor power into "
                                           "class summands")
    add_common(sp, r=True, n=True)
    sp = sub.add_parser("decompose", help="construct and certify a "
                                          "B-family")
    add_common(sp, n=True, k=True)
    sp = sub.add_parser("certify", help="re-verify a decompose report")
    sp.add_argument("certificate", help="path to a decompose JSON report")
    sp.add_argument("--format", choices=("text", "json", "csv"),
                    default="text")
    sp.add_argument("--out")
    sp = sub.add_parser("selftest", help="run the built-in check suites")
    sp.add_argument("--level", choices=("quick", "full"), default="quick")
    sp.add_argument("--format", choices=("text", "json", "csv"),
                    default="text")
    sp.add_argument("--out")
    return parser


_DISPATCH = {
    "dims": cmd_dims,
    "pclasses": cmd_pclasses,
    "filtration": cmd_filtration,
    "decompose": cmd_decompose,
    "certify": cmd_certify,
    "selftest": cmd_selftest,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        payload, columns, code = _DISPATCH[args.command](args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print("invariant failed: %s" % exc, file=sys.stderr)
        return 1
    payload["timing_ms"] = int((time.monotonic() - start) * 1000)
    with (open(args.out, "w", encoding="utf-8") if args.out
          else nullcontext(sys.stdout)) as fh:
        if args.format == "json":
            # streamed: no copy of the whole report text is built
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
        elif args.format == "csv":
            fh.write(_render_csv(payload, columns))
        else:
            fh.write(_render_text(payload, columns))
    return code


if __name__ == "__main__":
    sys.exit(main())
