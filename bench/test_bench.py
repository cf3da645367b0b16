"""Tests of the benchmark's own tracing and gates.

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from tracer import Tracer, matmul_counts
from workloads import check_output, report_digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TINY = ["decompose", "--p", "2", "--n", "2", "--k", "3", "--max-degree", "6",
        "--format", "json"]


def _env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _traced(tmp_path, tag):
    report = tmp_path / (tag + ".json")
    trace = tmp_path / (tag + ".trace.json")
    subprocess.run([sys.executable, str(BENCH / "traced_cli.py"), str(trace)]
                   + TINY + ["--out", str(report)], env=_env(), check=True)
    return json.loads(report.read_text()), json.loads(trace.read_text())


def test_self_time_is_inclusive_minus_wrapped_children():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    f = {}

    def leaf():
        now[0] += 2

    def mid():
        now[0] += 1
        f["leaf"]()
        now[0] += 3
        f["leaf"]()

    def top(depth):
        now[0] += 1
        f["mid"]()
        if depth:
            f["top"](depth - 1)

    f["leaf"] = tracer.wrap("x.leaf", leaf)
    f["mid"] = tracer.wrap("x.mid", mid)
    f["top"] = tracer.wrap("y", top)
    f["top"](1)
    groups = tracer.snapshot()["groups"]
    assert groups["x.leaf"] == {"calls": 4, "self_s": 8.0, "incl_s": 8.0}
    assert groups["x.mid"] == {"calls": 2, "self_s": 8.0, "incl_s": 16.0}
    # the recursive entry is counted once in the inclusive time
    assert groups["y"] == {"calls": 2, "self_s": 2.0, "incl_s": 18.0}
    assert sum(g["self_s"] for g in groups.values()) == now[0]


def test_matmul_counts_from_shapes():
    madds, mb = matmul_counts([[2, 8, 16, 4, 3], [3, 2, 2, 2, 1]])
    assert madds == 3 * 8 * 16 * 4 + 8
    assert mb == (3 * (128 + 64 + 32) / 8 + 12 * 8) / 1e6


def test_tracing_leaves_the_report_unchanged(tmp_path):
    plain = tmp_path / "plain.json"
    subprocess.run([sys.executable, "-m", "liepowers.cli"] + TINY
                   + ["--out", str(plain)], env=_env(), check=True)
    traced, _ = _traced(tmp_path, "traced")
    assert report_digest(traced) == report_digest(json.loads(
        plain.read_text()))


def test_counts_on_a_tiny_configuration_are_fixed(tmp_path):
    _, first = _traced(tmp_path, "first")
    _, second = _traced(tmp_path, "second")
    calls = {g: s["calls"] for g, s in first["groups"].items()}
    assert calls["modrep.induced_matrix"] == 8
    assert calls["descent.lift_idempotents"] == 1
    assert calls["linalg.matmul"] == 38
    assert sum(shape[-1] for shape in first["shapes"]) == 38
    assert calls == {g: s["calls"] for g, s in second["groups"].items()}
    assert first["shapes"] == second["shapes"]


def test_gate_rejects_a_changed_report(tmp_path):
    report = tmp_path / "r.json"
    report.write_text(json.dumps({
        "results": [{"degree": 1, "b_dim": 2, "stage": 1}],
        "totals": {"checks": 1, "passed": 1}}))
    problems, _ = check_output("descent-r7", "decompose", b"", report)
    assert any("digest" in p for p in problems)
    assert any("B dimensions" in p for p in problems)
    problems, _ = check_output("descent-r7", "certify",
                               b"checks=17 passed=16\n", None)
    assert any("16 of 17" in p for p in problems)


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "flagship-p2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""


def test_every_listed_metric_is_produced_with_its_unit():
    import run

    listed = json.loads((ROOT / "BENCHMARK.json").read_text())

    class Runner:
        peak_rss_kb = 1024

    session = {"probes": [0.3], "commands": [
        {"name": "decompose", "wall_s": 2.0, "trace": {"groups": {},
                                                      "shapes": []},
         "facts": {"stage1": 1, "degrees": 1, "report_bytes": 10}}]}
    produced = run.end_to_end([session], Runner())
    assert {m["name"]: m["unit"] for m in listed["end_to_end"]} == \
        {name: unit for name, (_, unit) in produced.items()}
    figures, _, _ = run.per_layer(session, [session])
    for m in listed["per_layer"]:
        assert figures[m["name"]][1] == m["unit"], m["name"]
