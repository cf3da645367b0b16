import copy
import json
import os
import time

import pytest

import liepowers.decompose as decompose_module
from liepowers.cli import main


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

