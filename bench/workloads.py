"""The benchmark's fixed CLI sessions and the correctness gate on each output.

A session is a list of ordered command groups.  Commands inside a group
depend on each other (``certify`` reads the report ``decompose`` wrote)
and keep their order; independent groups run in an order the seed picks.
``{report}`` in an argument list stands for the session's report path.

Every pinned value below was recorded from the package as first
benchmarked; a report digest covers the whole report except
``timing_ms``, the only part that may differ between runs.
"""

import hashlib
import json

WORKLOADS = {
    # The paper's headline certificate: 4096-dimensional T^12, GF(2)
    # bit-packed products, the equivariant solve and a 4.9 MB report.
    "flagship-p2": [
        [("decompose", ["decompose", "--p", "2", "--n", "2", "--k", "3",
                        "--max-degree", "12", "--format", "json",
                        "--out", "{report}"]),
         ("certify", ["certify", "{report}"])],
    ],
    # The odd-p path: almost all time goes to 729 x 729 int64 products.
    "oddp-n3": [
        [("decompose", ["decompose", "--p", "3", "--n", "3", "--k", "2",
                        "--max-degree", "6", "--format", "json",
                        "--out", "{report}"]),
         ("certify", ["certify", "{report}"])],
    ],
    # Descent-algebra multiplication: the class split of T^7 and the
    # k = 1 family, whose idempotents are lifted at every degree.
    # The certify step is cheap and gives this session a certify_s too.
    # Runnable by name; BENCHMARK.json leaves it out (see README.md).
    "descent-r7": [
        [("filtration", ["filtration", "--p", "2", "--n", "2", "--r", "7",
                         "--format", "json"])],
        [("decompose", ["decompose", "--p", "2", "--n", "2", "--k", "1",
                        "--max-degree", "7", "--format", "json",
                        "--out", "{report}"]),
         ("certify", ["certify", "{report}"])],
    ],
}

# What each workload's outputs must be.
PINS = {
    "flagship-p2": {
        "decompose_digest":
            "1f7ac77167b871df1485eec053038212e8fd0d98a28342ff46d4251cc3ef985d",
        "b_dims": {3: 2, 6: 8, 9: 54, 12: 304},
        "certify_checks": 11,
        "certify_digest":
            "7623b6131b9c61e7b45cc1702b3b5faf2df24c821da5a06e713ddda377be42ee",
    },
    "oddp-n3": {
        "decompose_digest":
            "142b05febea3577101a74871843e7fd3c305fb7d3ede69ca216c964f5b69aa69",
        "b_dims": {2: 3, 4: 15, 6: 108},
        "certify_checks": 8,
        "certify_digest":
            "99ec8b64528bfdb114a2b6abbd9754447ac6f4a5e696eda73e9469c699b83c15",
    },
    "descent-r7": {
        "decompose_digest":
            "88c9d6030d2ee6c3437b36353a3f530d6d97e67937a910d66ca6b2e783e19e49",
        "b_dims": {1: 2, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0},
        "certify_checks": 17,
        "certify_digest":
            "233d978bd73d7d144d0822f04690720ed6d37995ac762006875764d8821a93b2",
        "filtration_digest":
            "54d18780fd46245bd0b8b70af90d7cbddd214945ef8454d2dba6d4954167a767",
        "summand_dims": [38, 24, 24, 24, 18],
        "ambient": 2 ** 7,
    },
}


def report_digest(payload):
    """sha256 of a JSON report without its ``timing_ms`` entry."""
    payload = {k: v for k, v in payload.items() if k != "timing_ms"}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _totals_line(text):
    """The ``checks=.. passed=..`` line that ends a text report."""
    lines = text.splitlines()
    fields = dict(item.split("=", 1) for item in lines[-1].split()) \
        if lines else {}
    return int(fields.get("checks", -1)), int(fields.get("passed", -2))


def check_output(workload, command, stdout, report_path):
    """Problems with one command's output; an empty list means correct.

    Returns (problems, facts), where facts are values read from the
    output that the traced run reports (report size, certificate stages).
    """
    pins = PINS[workload]
    problems = []
    facts = {}
    if command == "decompose":
        with open(report_path, "rb") as fh:
            raw = fh.read()
        facts["report_bytes"] = len(raw)
        payload = json.loads(raw)
        if report_digest(payload) != pins["decompose_digest"]:
            problems.append("decompose report differs from the pinned digest")
        rows = payload["results"]
        b_dims = {int(r["degree"]): int(r["b_dim"]) for r in rows}
        if b_dims != pins["b_dims"]:
            problems.append("B dimensions %s, expected %s"
                            % (b_dims, pins["b_dims"]))
        totals = payload["totals"]
        if totals["checks"] != totals["passed"]:
            problems.append("decompose passed %s of %s checks"
                            % (totals["passed"], totals["checks"]))
        facts["degrees"] = len(rows)
        facts["stage1"] = sum(1 for r in rows if r["stage"] == 1)
    elif command == "certify":
        text = stdout.decode()
        checks, passed = _totals_line(text)
        if checks != passed or checks != pins["certify_checks"]:
            problems.append("certify passed %d of %d checks, expected %d"
                            % (passed, checks, pins["certify_checks"]))
        if hashlib.sha256(stdout).hexdigest() != pins["certify_digest"]:
            problems.append("certify output differs from the pinned digest")
    elif command == "filtration":
        payload = json.loads(stdout)
        if report_digest(payload) != pins["filtration_digest"]:
            problems.append("filtration report differs from the pinned "
                            "digest")
        dims = [int(r["summand_dim"]) for r in payload["results"]]
        if dims != pins["summand_dims"] or sum(dims) != pins["ambient"]:
            problems.append("summand dimensions %s, expected %s"
                            % (dims, pins["summand_dims"]))
        if not all(r["pbw_basis_check"] for r in payload["results"]):
            problems.append("a filtration class failed its PBW basis check")
    return problems, facts
