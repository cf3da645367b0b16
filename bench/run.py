"""The liepowers benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above this file, and the
package is imported from its ``src`` directory, so nothing is installed.

One closed-loop client runs a workload's CLI session (see workloads.py)
one command at a time, each command in a fresh process, so the package's
caches start cold as they do for every CLI user.  It keeps starting
sessions while less than S seconds have passed (at least one), and
between commands it times fresh interpreters that only import
``liepowers.cli`` (the set-up cost).  The seed fixes where those probes
fall and the order of independent command groups.

--trace 0 reports the end-to-end metrics: medians over the run's sessions
and probes, and the largest max-RSS of any command.

--trace 1 runs the same untraced sessions, then one more session in which
every command runs under bench/tracer.py, and reports per-layer calls,
self and inclusive times, computed matmul work, and the tracing overhead
(traced wall time minus the untraced median).

Every command's output is checked against pinned values; the last line
of standard output is one JSON object {correct, attempted, failed,
metrics}, and the exit code is 1 when any check failed.  Details, with
the run environment, go to .bench_out/.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

from tracer import GROUPS, LAYERS, layer_of, matmul_counts  # noqa: E402
from workloads import WORKLOADS, check_output  # noqa: E402

PROBES_PER_SESSION = 5
RUN_LIMIT_S = 170.0  # every child is killed at this point of the run
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")


class Runner:
    """Starts the run's child processes and keeps what each one cost."""

    def __init__(self, deadline):
        self.deadline = deadline
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kb = 0

    def invoke(self, argv, tag):
        """Run argv to completion; return (wall_s, cpu_s, exit, stdout)."""
        stdout_path = OUT / (tag + ".out")
        stderr_path = OUT / (tag + ".err")
        self.attempted += 1
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdout=out, stderr=err)
            reaped = threading.Event()

            def kill():
                if not reaped.is_set():
                    os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(
                max(0.0, self.deadline - time.monotonic()), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                reaped.set()
            finally:
                timer.cancel()
                timer.join()
            proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        cpu = usage.ru_utime + usage.ru_stime
        return wall, cpu, code, stdout_path.read_bytes()


def probe(runner, tag, problems):
    """Wall time of a fresh interpreter importing the CLI, or None."""
    wall, _, code, _ = runner.invoke(
        [sys.executable, "-c", "import liepowers.cli"], tag)
    if code != 0:
        runner.failed += 1
        problems.append("%s: exit code %d" % (tag, code))
        return None
    return wall


def run_session(runner, workload, rng, index, traced, problems):
    """One pass over the workload's commands, with set-up probes between.

    Returns {"commands": [...], "probes": [...]}; each command entry has
    its name, wall time and, for a traced session, its tracer counters.
    """
    groups = list(WORKLOADS[workload])
    rng.shuffle(groups)
    commands = [cmd for group in groups for cmd in group]
    probe_slots = sorted(rng.randrange(len(commands) + 1)
                         for _ in range(PROBES_PER_SESSION))
    prefix = "%s-%d%s" % (workload, index, "-traced" if traced else "")
    report = OUT / (prefix + ".json")
    report.unlink(missing_ok=True)  # a stale report must not pass the gate
    session = {"commands": [], "probes": []}
    for position in range(len(commands) + 1):
        for _ in range(probe_slots.count(position)):
            if not traced:
                tag = "%s-probe%d" % (prefix, len(session["probes"]))
                session["probes"].append(probe(runner, tag, problems))
        if position == len(commands):
            break
        name, args = commands[position]
        args = [str(report) if a == "{report}" else a for a in args]
        tag = "%s-%s" % (prefix, name)
        trace_path = OUT / (tag + ".trace.json")
        trace_path.unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, str(BENCH / "traced_cli.py"),
                    str(trace_path)] + args
        else:
            argv = [sys.executable, "-m", "liepowers.cli"] + args
        wall, cpu, code, stdout = runner.invoke(argv, tag)
        entry = {"name": name, "wall_s": wall, "cpu_s": cpu, "exit": code}
        bad = ["exit code %d" % code] if code != 0 else []
        if not bad:
            try:
                found, entry["facts"] = check_output(workload, name, stdout,
                                                     report)
                bad.extend(found)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                bad.append("unreadable output: %r" % exc)
        if not bad and traced:
            entry["trace"] = json.loads(trace_path.read_text())
        if bad:
            runner.failed += 1
            problems.extend("%s %s: %s" % (prefix, name, b) for b in bad)
        session["commands"].append(entry)
    return session


def git_sha():
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "seed": seed,
    }


def median(values):
    return statistics.median(values) if values else float("nan")


def command_walls(sessions):
    """Command name -> its wall times over the sessions."""
    walls = {}
    for s in sessions:
        for c in s["commands"]:
            walls.setdefault(c["name"], []).append(c["wall_s"])
    return walls


def session_wall(session):
    return sum(c["wall_s"] for c in session["commands"])


def end_to_end(sessions, runner):
    walls = command_walls(sessions)
    probes = [w for s in sessions for w in s["probes"] if w is not None]
    return {
        "setup_s": (median(probes), "s"),
        "decompose_s": (median(walls.get("decompose", [])), "s"),
        "certify_s": (median(walls.get("certify", [])), "s"),
        "session_s": (median([session_wall(s) for s in sessions]), "s"),
        "peak_rss_mb": (runner.peak_rss_kb / 1024, "MB"),
    }


def per_layer(traced, untraced_sessions):
    """Every per-group and per-layer figure of one traced session.

    Returns (metrics, shape histogram, layer self times); BENCHMARK.json
    names the metrics that are reported.
    """
    groups = {g: {"calls": 0, "self_s": 0.0, "incl_s": 0.0} for g in GROUPS}
    histogram = Counter()
    facts = {}
    for c in traced["commands"]:
        for g, s in c["trace"]["groups"].items():
            for key in s:
                groups[g][key] += s[key]
        for *shape, count in c["trace"]["shapes"]:
            histogram[tuple(shape)] += count
        if c["name"] == "decompose":
            facts = c["facts"]
    m = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for g, s in groups.items():
        m[g + ".calls"] = (s["calls"], "count")
        m[g + ".self_s"] = (s["self_s"], "s")
        m[g + ".incl_s"] = (s["incl_s"], "s")
        layer_self[layer_of(g)] += s["self_s"]
    for layer, value in layer_self.items():
        m[layer + ".self_s"] = (value, "s")
    shapes = [[*shape, count] for shape, count in sorted(histogram.items())]
    madds, computed_mb = matmul_counts(shapes)
    m["linalg.matmul.madds"] = (madds, "count")
    m["linalg.matmul.computed_mb"] = (computed_mb, "MB")
    m["decompose.stage1_share"] = (facts["stage1"] / facts["degrees"],
                                   "ratio")
    m["cli.report_mb"] = (facts["report_bytes"] / 1e6, "MB")
    wall = sum(c["wall_s"] for c in traced["commands"])
    untraced = median([session_wall(s) for s in untraced_sessions])
    m["trace.wall_s"] = (wall, "s")
    m["trace.unwrapped_s"] = (wall - sum(layer_self.values()), "s")
    m["trace.untraced_s"] = (untraced, "s")
    m["trace.overhead_s"] = (wall - untraced, "s")
    return m, shapes, layer_self


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "liepowers" / "cli.py").is_file():
        print("no liepowers package under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2

    start = time.monotonic()
    runner = Runner(start + RUN_LIMIT_S)
    OUT.mkdir(exist_ok=True)
    rng = random.Random(args.seed)
    env = environment(args.seed)
    env["loadavg_before"] = os.getloadavg()
    problems = []
    # the first import in a fresh checkout writes the bytecode caches
    probe(runner, "%s-warmup" % args.workload, problems)
    sessions = []
    # another session must leave room for a traced one before the limit
    while not sessions or (
            time.monotonic() - start < args.seconds
            and time.monotonic() - start + 2.5 * session_wall(sessions[-1])
            < RUN_LIMIT_S):
        sessions.append(run_session(runner, args.workload, rng,
                                    len(sessions), False, problems))
    traced = None
    if args.trace:
        traced = run_session(runner, args.workload, rng, len(sessions), True,
                             problems)
    env["loadavg_after"] = os.getloadavg()

    shapes = []
    figures = {}
    if problems:
        metrics = {}
    elif args.trace:
        figures, shapes, layer_self = per_layer(traced, sessions)
        listed = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = {m["name"]: figures[m["name"]]
                   for m in listed["per_layer"]}
    else:
        metrics = end_to_end(sessions, runner)

    details = {
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "problems": problems,
        "sessions": sessions, "traced_session": traced,
        "matmul_shapes": [{"p": p, "m": mm, "k": k, "n": n, "count": c}
                          for p, mm, k, n, c in shapes],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in (figures or metrics).items()},
    }
    detail_path = OUT / ("%s-seed%d-trace%d.json"
                         % (args.workload, args.seed, args.trace))
    detail_path.write_text(json.dumps(details, indent=1, default=list))

    print("environment %s" % json.dumps(env))
    for s in sessions:
        print("session " + " ".join("%s=%.3fs" % (c["name"], c["wall_s"])
                                    for c in s["commands"]))
    if traced:
        untraced = command_walls(sessions)
        for c in traced["commands"]:
            base = median(untraced[c["name"]])
            print("traced %s: %.3fs, untraced median %.3fs, overhead %.3fs"
                  % (c["name"], c["wall_s"], base, c["wall_s"] - base))
        if not problems:
            wall = figures["trace.wall_s"][0]
            for layer, value in layer_self.items():
                print("layer %-10s self %8.3fs %5.1f%%"
                      % (layer, value, 100 * value / wall))
            print("matmul shapes (p, m, k, n, count): %s" % shapes)
    for p in problems:
        print("FAILED %s" % p)
    print("details in %s" % detail_path.relative_to(ROOT))
    print(json.dumps({
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
