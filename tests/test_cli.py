import copy
import json
import os
import time

import pytest

import liepowers.decompose as decompose_module
from liepowers.cli import main
from liepowers.combinat import witt_dim


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_dims_example(capsys):
    code, out = run(capsys, "dims", "--p", "2", "--n", "2", "--r", "4")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    # header line, column line, five partition rows, totals line
    assert len(lines) == 8
    assert "sum=16" in lines[-1]


def test_dims_trivial_row(capsys):
    code, out = run(capsys, "dims", "--p", "2", "--n", "2", "--r", "1")
    assert code == 0
    rows = [ln for ln in out.splitlines() if ln.startswith("1 ")]
    assert len(rows) == 1 and rows[0].split()[1] == "2"


def test_dims_csv(capsys):
    code, out = run(capsys, "dims", "--p", "2", "--n", "2", "--r", "4",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "partition,dim"
    assert len(lines) == 6


def test_dims_cap_exit_2(capsys):
    code = main(["dims", "--p", "2", "--n", "2", "--r", "99"])
    assert code == 2


@pytest.mark.parametrize("n", ["0", "-1"])
def test_dims_rejects_nonpositive_n(n, capsys):
    assert main(["dims", "--p", "2", "--n", n, "--r", "2"]) == 2
    assert "n must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["pclasses", "--p", "4", "--r", "4"],
    ["dims", "--p", "4", "--n", "2", "--r", "2"],
    ["dims", "--p", "1", "--n", "2", "--r", "2"],
])
def test_composite_modulus_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "modulus must be a prime" in capsys.readouterr().err


def test_pclasses_example(capsys):
    code, out = run(capsys, "pclasses", "--p", "2", "--r", "4")
    assert code == 0
    payload_code, payload = run(capsys, "pclasses", "--p", "2", "--r", "4",
                                "--format", "json")
    data = json.loads(payload)
    assert len(data["results"]) == 2


def test_filtration_instance(capsys):
    code, out = run(capsys, "filtration", "--p", "2", "--n", "2", "--r", "4",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    dims = sorted(row["summand_dim"] for row in data["results"])
    assert dims == [4, 12]
    assert all(row["pbw_basis_check"] for row in data["results"])


def test_decompose_json_and_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    code = main(["decompose", "--p", "2", "--n", "2", "--k", "3",
                 "--max-degree", "6", "--format", "json",
                 "--out", str(out_file)])
    assert code == 0
    data = json.loads(out_file.read_text())
    assert [row["b_dim"] for row in data["results"]] == [2, 8]
    assert all(c["status"] == "ok" for c in data["certificates"])
    assert all(row["stage"] == 1 for row in data["results"])
    assert all(c["stage"] == 1 for c in data["certificates"]
               if c["kind"] in ("projection", "basis"))
    assert data["config"]["max_search"] == 64
    assert data["totals"]["checks"] == data["totals"]["passed"]
    code = main(["certify", str(out_file)])
    capsys.readouterr()
    assert code == 0


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_decompose_out_file_holds_the_bytes_of_stdout(fmt, tmp_path,
                                                      capsys, monkeypatch):
    # the report is written straight into --out; with the clock stopped,
    # so that timing_ms is 0 both times, those are the bytes of stdout
    import types
    import liepowers.cli as cli_module
    monkeypatch.setattr(cli_module, "time",
                        types.SimpleNamespace(monotonic=lambda: 0.0))
    argv = ["decompose", "--p", "3", "--n", "2", "--k", "2",
            "--max-degree", "4", "--format", fmt]
    out_file = tmp_path / "report"
    assert main(argv + ["--out", str(out_file)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert out_file.read_bytes() == printed.encode("utf-8")
    assert printed.endswith("\n")
    if fmt == "json":
        assert json.loads(printed)["timing_ms"] == 0


@pytest.mark.parametrize("p", ["2", "3"])
def test_decompose_does_not_import_numpy_ma(p, tmp_path):
    # numpy.ma costs 20-50 ms of import in each process; the worker's
    # imports show in the same stderr
    import re
    import subprocess
    import sys
    import liepowers
    src = os.path.dirname(os.path.dirname(liepowers.__file__))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "liepowers.cli",
         "decompose", "--p", p, "--n", "2", "--k", "2" if p == "3" else "3",
         "--max-degree", "6", "--format", "json",
         "--out", str(tmp_path / "r.json")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "liepowers.linalg" in proc.stderr  # importtime did report
    assert not re.search(r"numpy\.ma(\.\w+)*\s*$", proc.stderr, re.M)


@pytest.mark.parametrize("k,line,checks", [
    ("1", "1 10", 5),           # degree 1: one-letter words
    ("2", "1 9.10 2 10.9", 3),  # degree 2: letters joined by '.'
])
def test_decompose_report_with_two_digit_letters_certifies(tmp_path, capsys,
                                                          k, line, checks):
    out_file = tmp_path / "cert.json"
    assert main(["decompose", "--p", "3", "--n", "10", "--k", k,
                 "--max-degree", "2", "--format", "json",
                 "--out", str(out_file)]) == 0
    lines = json.loads(out_file.read_text())["payloads"]["basis/" + k][
        "lines"]
    assert lines[0] == "3 10 " + k and lines[-1] == line
    code, out = run(capsys, "certify", str(out_file))
    assert code == 0
    assert "checks=%d passed=%d" % (checks, checks) in out


_CHECK_KINDS = {"projection certificate": "projection",
                "basis lies in the Lie power": "basis",
                "Lie power splits over the lower bases": "splitting"}


@pytest.mark.parametrize("n,p,k,top", [
    (2, 2, 3, 9), (2, 2, 1, 6), (2, 3, 2, 8), (3, 3, 1, 4)])
def test_decompose_reports_the_verdicts_of_certification(tmp_path, n, p,
                                                         k, top):
    out_file = tmp_path / "cert.json"
    assert main(["decompose", "--p", str(p), "--n", str(n), "--k", str(k),
                 "--max-degree", str(top), "--format", "json",
                 "--out", str(out_file)]) == 0
    data = json.loads(out_file.read_text())
    report = decompose_module.certify_decomposition(
        decompose_module.construct_B_family(n, p, k, top))
    want = []
    for q in sorted(report["degrees"]):
        for name, ok in report["degrees"][q]:
            kind = _CHECK_KINDS[name]
            stage = None if kind == "splitting" else 1
            ref = None if kind == "splitting" else "%s/%d" % (kind, q)
            want.append({"kind": kind, "degree_or_class": q,
                         "status": "ok" if ok else "fail", "stage": stage,
                         "data_ref": ref})
    assert data["certificates"] == want
    assert data["totals"] == {"checks": len(want),
                              "passed": sum(c["status"] == "ok"
                                            for c in want)}


def test_decompose_checks_each_projection_once(monkeypatch, tmp_path):
    seen = []
    flaw = decompose_module._projection_flaw

    def counted(proj, basis, action):
        seen.append(proj.ncols)
        return flaw(proj, basis, action)

    monkeypatch.setattr(decompose_module, "_projection_flaw", counted)
    assert main(["decompose", "--p", "2", "--n", "2", "--k", "3",
                 "--max-degree", "9", "--format", "json",
                 "--out", str(tmp_path / "cert.json")]) == 0
    assert seen == [2 ** 3, 2 ** 6, 2 ** 9]


def test_certify_tampered_exit_1(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    assert main(["decompose", "--p", "3", "--n", "2", "--k", "2",
                 "--max-degree", "4", "--format", "json",
                 "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    rows = payload["payloads"]["projection/4"]["rows"]
    parts = rows[0].split()
    parts[0] = str((int(parts[0]) + 1) % 3)
    rows[0] = " ".join(parts)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code = main(["certify", str(bad)])
    capsys.readouterr()
    assert code == 1


@pytest.fixture(scope="module")
def odd_report(tmp_path_factory):
    out_file = tmp_path_factory.mktemp("report") / "cert.json"
    assert main(["decompose", "--p", "3", "--n", "2", "--k", "2",
                 "--max-degree", "4", "--format", "json",
                 "--out", str(out_file)]) == 0
    return json.loads(out_file.read_text())


def _drop_top_degree(payload):
    payload["results"] = [r for r in payload["results"] if r["degree"] != 4]
    return payload


def _shift_by_p(payload):
    rows = payload["payloads"]["projection/4"]["rows"]
    rows[:] = [" ".join(str(int(t) + 3) for t in row.split()) for row in rows]
    return payload


def _drop_last_row(payload):
    payload["payloads"]["projection/4"]["rows"].pop()
    return payload


def _short_row(payload):
    rows = payload["payloads"]["projection/4"]["rows"]
    rows[0] = rows[0].rsplit(" ", 1)[0]
    return payload


def _top_level_list(payload):
    return []


def _config_is_a_string(payload):
    payload["config"] = "decompose"
    return payload


def _result_is_a_number(payload):
    payload["results"][0] = 3
    return payload


def _degree_is_null(payload):
    payload["results"][0]["degree"] = None
    return payload


def _basis_is_a_string(payload):
    payload["payloads"]["basis/4"] = "x"
    return payload


def _p_is_a_float(payload):
    payload["config"]["p"] = 2.5  # int() would read p = 2
    return payload


def _k_is_true(payload):
    payload["config"]["k"] = True  # a bool is an int subclass
    return payload


def _stage_is_a_float(payload):
    payload["results"][0]["stage"] = 1.0
    return payload


def _huge_max_degree(payload):
    payload["config"]["max_degree"] = 10 ** 9  # no list of 5e8 degrees
    return payload


def _wrong_degree(payload):
    payload["results"][1]["degree"] = 6
    return payload


def _empty_family(payload):
    payload["config"]["max_degree"] = payload["config"]["k"] - 1
    payload["results"] = []
    return payload


def _p_divides_k(payload):
    payload["config"]["p"] = 2  # k = 2
    return payload


def _basis_header_is_huge(payload):
    # n^r = 3^(10^8) must not be formed: the header is checked first
    payload["payloads"]["basis/4"]["lines"] = ["2 3 100000000"]
    return payload


def _basis_header_has_another_p(payload):
    payload["payloads"]["basis/4"]["lines"] = ["2 2 4"]  # report has p = 3
    return payload


def _p_is_a_large_prime(payload):
    payload["config"]["p"] = 2 ** 61 - 1  # no trial division up to 2^30
    return payload


@pytest.mark.parametrize("mutate,message", [
    (_drop_top_degree, "result count 1, expected 2"),
    (_p_is_a_float, "malformed config: p is 2.5, not an integer"),
    (_k_is_true, "malformed config: k is True, not an integer"),
    (_stage_is_a_float, "malformed results entry 0: stage is 1.0"),
    (_huge_max_degree, "result count 2, expected 500000000"),
    (_wrong_degree, "cover degrees [2, 6], expected [2, 4]"),
    (_shift_by_p, "payload projection/4: row 0: entry outside 0..2"),
    (_drop_last_row, "payload projection/4: expected a list of 16 rows"),
    (_short_row, "payload projection/4: row 0: 15 entries, expected 16"),
    (_top_level_list, "malformed report"),
    (_config_is_a_string, "malformed report"),
    (_result_is_a_number, "malformed results entry 0"),
    (_degree_is_null, "malformed results entry 0"),
    (_basis_is_a_string, "malformed payload basis/4"),
    (_empty_family, "max_degree is below k"),
    (_p_divides_k, "k must not be divisible by p"),
    (_p_is_a_large_prime, "need (p - 1)^2 < 2^53"),
    (_basis_header_is_huge,
     "payload basis/4: header '2 3 100000000', expected '3 2 4'"),
    (_basis_header_has_another_p,
     "payload basis/4: header '2 2 4', expected '3 2 4'"),
])
def test_certify_rejects_malformed_report(odd_report, tmp_path, capsys,
                                          mutate, message):
    payload = mutate(copy.deepcopy(odd_report))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    start = time.monotonic()
    assert main(["certify", str(bad)]) == 2
    # every case is refused while the report is read, before any check
    assert time.monotonic() - start < 2
    assert message in capsys.readouterr().err


@pytest.fixture(scope="module")
def even_report(tmp_path_factory):
    out_file = tmp_path_factory.mktemp("report") / "cert.json"
    assert main(["decompose", "--p", "2", "--n", "2", "--k", "3",
                 "--max-degree", "9", "--format", "json",
                 "--out", str(out_file)]) == 0
    return json.loads(out_file.read_text())


def _certify_code(payload, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code = main(["certify", str(bad)])
    return code, capsys.readouterr().err


def _set(key, value, at=0):
    def mutate(payload):
        payload["results"][at][key] = value
    return mutate


def _bump(key, at=1):
    def mutate(payload):
        payload["results"][at][key] += 1
    return mutate


def _cert(key, value):
    def mutate(payload):
        payload["certificates"][0][key] = value
    return mutate


def _ref_to_the_top_degree(payload):
    top = payload["results"][-1]["degree"]
    payload["certificates"][0]["data_ref"] = "projection/%d" % top


def _no_certificates(payload):
    payload["certificates"] = []


def _one_failed_check(payload):
    payload["totals"] = {"checks": 1, "passed": 0}


def _extra_payload(payload):
    conf = payload["config"]
    key = "projection/%d" % (conf["max_degree"] + conf["k"])
    payload["payloads"][key] = payload["payloads"]["projection/%d"
                                                   % conf["k"]]


def _max_search_63(payload):
    payload["config"]["max_search"] = 63


def _reversed_results(payload):
    payload["results"].reverse()


def _config_key(payload):
    payload["config"]["extra"] = 1


def _report_key(payload):
    payload["extra"] = 1


def _projection_typed_subspace(payload):
    payload["payloads"]["projection/%d" % payload["config"]["k"]]["type"] = \
        "subspace"


def _payload_key(payload):
    payload["payloads"]["basis/%d" % payload["config"]["k"]]["extra"] = 1


@pytest.mark.parametrize("report", ["even_report", "odd_report"])
@pytest.mark.parametrize("mutate,message", [
    (_set("b_dim", 999), "malformed results entry 0: b_dim is 999"),
    (_set("lie_dim", 7), "malformed results entry 0: lie_dim is 7"),
    (_bump("elim_dim"), "malformed results entry 1: elim_dim"),
    (_bump("complement_dim"), "malformed results entry 1: elim_dim"),
    (_set("lower_dims", [99], at=1),
     "malformed results entry 1: lower_dims is [99]"),
    (_set("stage", 2), "malformed results entry 0: stage is 2, expected 1"),
    (_cert("status", "fail"),
     'malformed certificates entry 0: status is "fail", expected "ok"'),
    (_ref_to_the_top_degree, "malformed certificates entry 0: data_ref"),
    (_no_certificates, "malformed certificates: 0 entries"),
    (_one_failed_check, "malformed totals: checks is 1"),
    (_extra_payload, "malformed payloads: no degree names projection/"),
    (_max_search_63, "malformed config: max_search is 63, expected 64"),
    (_reversed_results, "malformed results: cover degrees"),
    (_config_key, "malformed config: extra is 1, expected absent"),
    (_report_key, "malformed report: unexpected key extra"),
    (_projection_typed_subspace,
     'projection/%k: type is "subspace", expected "matrix"'),
    (_payload_key, "malformed payload basis/%k: unexpected key extra"),
], ids=["b_dim", "lie_dim", "elim_dim", "complement_dim", "lower_dims",
        "stage", "status", "data_ref", "no-certificates", "totals",
        "extra-payload", "max_search", "reversed-results", "config-key",
        "report-key", "projection-typed-subspace", "payload-key"])
def test_certify_rejects_a_summary_decompose_never_writes(
        request, report, tmp_path, capsys, mutate, message):
    payload = copy.deepcopy(request.getfixturevalue(report))
    message = message.replace("%k", str(payload["config"]["k"]))
    mutate(payload)
    code, err = _certify_code(payload, tmp_path, capsys)
    assert code == 2 and message in err


@pytest.mark.parametrize("report", ["even_report", "odd_report"])
def test_certify_rejects_each_changed_results_field(request, report,
                                                    tmp_path, capsys):
    # every field of every results row, changed by one value, is refused
    # as malformed or fails a check
    clean = request.getfixturevalue(report)
    assert _certify_code(clean, tmp_path, capsys)[0] == 0
    tried = 0
    for i, row in enumerate(clean["results"]):
        for key, value in row.items():
            payload = copy.deepcopy(clean)
            if isinstance(value, int):
                payload["results"][i][key] = value + 1
            else:
                payload["results"][i][key] = value[:-1] if value else [[1, 1]]
            assert _certify_code(payload, tmp_path, capsys)[0] in (1, 2), \
                (i, key)
            tried += 1
    assert tried == 7 * len(clean["results"])


@pytest.mark.parametrize("rewrite", [
    lambda row: row.replace("1", "+1", 1),
    lambda row: row.replace("1", "01", 1),
    lambda row: row.replace("1", "\u0661", 1),
    lambda row: row.replace(" ", "  ", 1),
    lambda row: " " + row,
    lambda row: row + " ",
], ids=["plus", "leading-zero", "arabic-indic-digit", "double-space",
        "leading-space", "trailing-space"])
def test_certify_rejects_odd_p_row_text_decompose_never_writes(
        odd_report, tmp_path, capsys, rewrite):
    # each row keeps its values, so only the parser can refuse it
    payload = copy.deepcopy(odd_report)
    rows = payload["payloads"]["projection/4"]["rows"]
    i = next(i for i, row in enumerate(rows) if "1" in row.split())
    rows[i] = rewrite(rows[i])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["certify", str(bad)]) == 2
    assert "payload projection/4: row %d: not 16 decimals joined by " \
        "single spaces" % i in capsys.readouterr().err


@pytest.fixture(scope="module")
def oddp_n3_report(tmp_path_factory):
    out_file = tmp_path_factory.mktemp("report") / "cert.json"
    assert main(["decompose", "--p", "3", "--n", "3", "--k", "2",
                 "--max-degree", "6", "--format", "json",
                 "--out", str(out_file)]) == 0
    return json.loads(out_file.read_text())


@pytest.mark.parametrize("rewrite", [
    lambda line: "+" + line,
    lambda line: "0" + line,
    lambda line: "4" + line[1:],
    lambda line: "\u0661" + line[1:],
    lambda line: line + " 3 33",
    lambda line: line + " ",
], ids=["plus", "leading-zero", "coefficient-p-plus-1", "arabic-indic-digit",
        "zero-term", "trailing-space"])
def test_certify_rejects_subspace_text_decompose_never_writes(
        oddp_n3_report, tmp_path, capsys, rewrite):
    # parse_subspace reads each line as the same basis vector, so only
    # the comparison with the text decompose writes can refuse it
    payload = copy.deepcopy(oddp_n3_report)
    lines = payload["payloads"]["basis/2"]["lines"]
    assert lines[1].startswith("1 ")
    lines[1] = rewrite(lines[1])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["certify", str(bad)]) == 2
    assert "payload basis/2: line 1: not the canonical text of the " \
        "subspace" in capsys.readouterr().err


@pytest.mark.parametrize("rewrite,line", [
    (lambda lines: lines[:1] + lines[2:3] + lines[1:2] + lines[3:], 1),
    (lambda lines: lines + [""], 4),
    (lambda lines: ["# a comment"] + lines, 0),
], ids=["rows-swapped", "empty-line-appended", "comment"])
def test_certify_rejects_subspace_lines_decompose_never_writes(
        oddp_n3_report, tmp_path, capsys, rewrite, line):
    # the same span, but not the lines of its canonical basis
    payload = copy.deepcopy(oddp_n3_report)
    basis = payload["payloads"]["basis/2"]
    assert len(basis["lines"]) == 4
    basis["lines"] = rewrite(basis["lines"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["certify", str(bad)]) == 2
    assert "payload basis/2: line %d: not the canonical text" % line in \
        capsys.readouterr().err


def test_certify_rejects_upper_case_hex_row(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    assert main(["decompose", "--p", "2", "--n", "3", "--k", "3",
                 "--max-degree", "6", "--format", "json",
                 "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    rows = payload["payloads"]["projection/6"]["rows"]
    # int(row, 16) reads the same bits from the upper-cased text
    i = next(i for i, row in enumerate(rows) if row != row.upper())
    rows[i] = rows[i].upper()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["certify", str(bad)]) == 2
    assert "payload projection/6: row %d: not the canonical text of its " \
        "entries" % i in capsys.readouterr().err


def test_certify_rejects_underscored_entry_at_p_11(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    assert main(["decompose", "--p", "11", "--n", "2", "--k", "1",
                 "--max-degree", "2", "--format", "json",
                 "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    rows = payload["payloads"]["projection/2"]["rows"]
    rows[0] = "1_0" + rows[0][1:]  # int() reads 10, an entry below p
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["certify", str(bad)]) == 2
    assert "payload projection/2: row 0: not 4 decimals" in \
        capsys.readouterr().err


def test_certify_rejects_wide_hex_row(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    assert main(["decompose", "--p", "2", "--n", "2", "--k", "3",
                 "--max-degree", "3", "--format", "json",
                 "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    payload["payloads"]["projection/3"]["rows"][0] = "100"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["certify", str(bad)]) == 2
    assert "payload projection/3: row 0" in capsys.readouterr().err


def test_certify_missing_file_exit_2(capsys):
    assert main(["certify", "/no/such/file.json"]) == 2


def test_decompose_p_divides_k_exit_2(capsys):
    assert main(["decompose", "--p", "2", "--n", "2", "--k", "2",
                 "--max-degree", "4"]) == 2


def test_decompose_modulus_past_exact_bound_exit_2(capsys):
    # the first prime with (p - 1)^2 >= 2^53
    assert main(["decompose", "--p", "94906297", "--n", "2", "--k", "1",
                 "--max-degree", "2"]) == 2
    assert "2^53" in capsys.readouterr().err


def test_decompose_dimension_cap_exit_2(capsys):
    # the cap is decided without forming 3^(10^7)
    start = time.monotonic()
    assert main(["decompose", "--p", "2", "--n", "3", "--k", "1",
                 "--max-degree", "10000000"]) == 2
    assert time.monotonic() - start < 1
    assert "dense-dimension cap" in capsys.readouterr().err
    assert main(["decompose", "--p", "2", "--n", "3", "--k", "1",
                 "--max-degree", "100000"]) == 2
    assert "dense-dimension cap" in capsys.readouterr().err


@pytest.mark.parametrize("n,r", [("1", "12"), ("2", "8")])
def test_filtration_degree_bound_exit_2(n, r, capsys):
    # the descent idempotents of degree 8 take minutes to lift, whatever n
    start = time.monotonic()
    assert main(["filtration", "--p", "2", "--n", n, "--r", r]) == 2
    assert time.monotonic() - start < 1
    assert "r out of range 1..7" in capsys.readouterr().err
    # dims needs no lifting and keeps its own bound
    assert main(["dims", "--p", "2", "--n", n, "--r", r]) == 0


@pytest.mark.parametrize("argv", [
    ["filtration", "--p", "2", "--n", "0", "--r", "2"],
    ["filtration", "--p", "2", "--n", "-1", "--r", "2"],
    ["decompose", "--p", "2", "--n", "0", "--k", "3", "--max-degree", "6"],
])
def test_alphabet_below_one_letter_exit_2(argv, capsys):
    # n < 1 is refused before any Lyndon word is enumerated
    start = time.monotonic()
    assert main(argv) == 2
    assert time.monotonic() - start < 1
    assert "n must be positive" in capsys.readouterr().err


def _restate_b_dim(payload, q, dim):
    """The results rows rewritten as decompose writes them for a basis of
    dimension dim at degree q: its b_dim, split as complement_dim, and
    the lower_dims of the degrees above that it generates.  A forged
    basis then gets past the reading of the report to certify's checks."""
    for row in payload["results"]:
        if row["degree"] == q:
            row.update(b_dim=dim, elim_dim=0, complement_dim=dim)
        for pair in row["lower_dims"]:
            if pair[0] == q:
                pair[1] = witt_dim(dim, row["degree"] // q)


def test_certify_records_a_cut_lower_basis(tmp_path, capsys):
    # B_3 cut to one row: the degree-6 splitting check fails and is
    # recorded with the other checks, not raised
    out_file = tmp_path / "cert.json"
    assert main(["decompose", "--p", "2", "--n", "2", "--k", "3",
                 "--max-degree", "6", "--format", "json",
                 "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    lines = payload["payloads"]["basis/3"]["lines"]
    assert len(lines) == 3  # the header and two rows
    del lines[2:]
    _restate_b_dim(payload, 3, 1)
    out_file.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["certify", str(out_file), "--format", "json"]) == 1
    rows = json.loads(capsys.readouterr().out)["results"]
    assert {"degree": 6, "check": "Lie power splits over the lower bases "
            "(the lower pieces and the basis do not split it)",
            "status": "fail"} in rows
    assert len(rows) == 6


def test_certify_rejects_an_emptied_basis_between_splitting_degrees(
        tmp_path, capsys):
    # degree 9 = 3k is not k p^j: B_9 emptied and its projection zeroed
    # pass the projection check, so the basis check must find that L^9
    # no longer splits over the lower pieces
    out_file = tmp_path / "cert.json"
    assert main(["decompose", "--p", "2", "--n", "2", "--k", "3",
                 "--max-degree", "9", "--format", "json",
                 "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    del payload["payloads"]["basis/9"]["lines"][1:]
    rows = payload["payloads"]["projection/9"]["rows"]
    rows[:] = ["0" * len(row) for row in rows]
    _restate_b_dim(payload, 9, 0)
    out_file.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["certify", str(out_file), "--format", "json"]) == 1
    rows = json.loads(capsys.readouterr().out)["results"]
    failed = [(row["degree"], row["check"]) for row in rows
              if row["status"] == "fail"]
    assert failed == [(9, "basis lies in the Lie power (the lower pieces "
                          "and the basis do not split it)")]
    assert len(rows) == 8


def test_decompose_stage_one_failure_exit_1(monkeypatch, capsys):
    def forced(*args):
        raise ArithmeticError("forced")

    monkeypatch.setattr(decompose_module, "class_projector", forced)
    assert main(["decompose", "--p", "2", "--n", "2", "--k", "3",
                 "--max-degree", "6"]) == 1
    err = capsys.readouterr().err
    assert "invariant failed: degree 6: projector lifting failed: forced" \
        in err


def test_decompose_bracketing_flaw_exit_1(monkeypatch, capsys):
    # degree k is checked by the same call, and fails the same way, as
    # every other degree
    monkeypatch.setattr(decompose_module, "_projection_flaw",
                        lambda proj, basis, action: "forced flaw")
    assert main(["decompose", "--p", "2", "--n", "2", "--k", "3",
                 "--max-degree", "6"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "invariant failed: degree 3: forced flaw"]


def test_decompose_worker_death_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(decompose_module, "_canonical_data",
                        lambda *args: os._exit(3))
    assert main(["decompose", "--p", "2", "--n", "2", "--k", "3",
                 "--max-degree", "6"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "invariant failed: degree 6: canonical-data worker exited with "
        "status 3 and no result"]


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["dims", "--p", "2"])
    assert exc.value.code == 2


def test_max_search_is_not_an_option():
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--p", "2", "--n", "2", "--k", "3",
              "--max-degree", "6", "--max-search", "5"])
    assert exc.value.code == 2


def test_json_deterministic(tmp_path):
    files = []
    for name in ("a.json", "b.json"):
        out_file = tmp_path / name
        assert main(["decompose", "--p", "2", "--n", "2", "--k", "3",
                     "--max-degree", "6", "--format", "json",
                     "--out", str(out_file)]) == 0
        files.append(json.loads(out_file.read_text()))
    for data in files:
        data.pop("timing_ms")
    assert json.dumps(files[0], sort_keys=True) == \
        json.dumps(files[1], sort_keys=True)


def test_selftest_quick(capsys):
    code, out = run(capsys, "selftest", "--level", "quick")
    assert code == 0
    assert "fail" not in out

