#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of mmphf-lab.

    python3 perfbench/run.py --workload chif-certify --seed 1 --seconds 34 --trace 0

Run from the root of a checkout; nothing needs installing.  Each round
of a workload makes every call of its list as a fresh
`python -m mmphf_lab.cli` process (this checkout's `src` on PYTHONPATH),
and twice (LIB_PASSES) in this already-warm process through
`mmphf_lab.cli.main`, the same entry point the console script calls; the
in-process calls are interleaved with the fresh-process ones.  A run
makes the whole number of rounds that ends nearest --seconds (at least
one); every output is checked independently (checks.py).  With
--trace 1 each round also replays its calls under the span recorder
(tracing.py) and the per-layer metrics are reported instead of the
end-to-end ones; the spans go to perfbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  README.md describes the
workloads, metrics and reference figures.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from checks import CheckError
from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# In-process passes over the call list per round, interleaved with the
# fresh-process calls: each call's in-process time is sampled at points
# apart, not in one stretch of a few seconds.
LIB_PASSES = 2
SETUP_SAMPLES = 3  # at least: one before the rounds, one after each, more at the end
IMPORT_SAMPLES = 3
DEADLINE_S = 170  # a run must end within 180 s; calls still running then are killed

LAYER_TIMES = {
    "graphs.build_graph_s": ["graphs.build_graph"],
    "coloring.maximal_sets_bits_s": ["coloring.maximal_sets_bits"],
    "lp.solve_covering_lp_s": ["lp.solve_covering_lp"],
    "coloring.verify_s": ["coloring.verify_primal", "coloring.verify_dual"],
    "coloring.chromatic_number_s": ["coloring.chromatic_number"],
    "mmphf.build.rank-map_s": ["mmphf.build.rank-map"],
    "mmphf.build.explicit-set_s": ["mmphf.build.explicit-set"],
    "mmphf.query.rank-map_s": ["mmphf.query.rank-map"],
    "mmphf.query.explicit-set_s": ["mmphf.query.explicit-set"],
    "mmphf.extract_coloring_s": ["mmphf.extract_coloring"],
    "mmphf.parameterize_s": ["mmphf.parameterize"],
    "harddist.sample_s": ["harddist.sample"],
    "harddist.verify_trace_s": ["harddist.verify_trace"],
    "harddist.enumerate_distribution_s": ["harddist.enumerate_distribution"],
    "harddist.adversary_bound_exact_s": ["harddist.adversary_bound_exact"],
    "serialize.trace_json_s": ["serialize.trace_json"],
    "windowtree.prune_s": ["windowtree.prune"],
    "windowtree.case1_inequality_check_s": ["windowtree.case1_inequality_check"],
}
LAYER_COUNTS = ["graphs.adjacency_tests", "coloring.maximal_sets", "lp.columns", "lp.rows",
                "mmphf.builds", "mmphf.queries"]


class BenchError(Exception):
    pass


def load_package():
    """Import mmphf_lab from this checkout's src/, refusing any other copy."""
    init = SRC / "mmphf_lab" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"{init} not found: run from the root of an mmphf-lab checkout")
    sys.path.insert(0, str(SRC))
    import mmphf_lab
    import mmphf_lab.cli  # noqa: F401
    path = Path(mmphf_lab.__file__).resolve()
    if path != init.resolve():
        raise BenchError(f"mmphf_lab imported from {path}, not from {SRC}")
    return mmphf_lab


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def child_package_origin(env) -> Path:
    """Where a fresh process with env finds mmphf_lab, without importing it."""
    out = subprocess.run(
        [sys.executable, "-c", "import importlib.util as u; print(u.find_spec('mmphf_lab').origin)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True)
    return Path(out.stdout.strip()).resolve()


def run_cli(argv, env, workdir, deadline):
    """One fresh CLI process: (wall s, peak RSS MB, exit code, stdout text, stderr text)."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "mmphf_lab.cli", *argv],
                                stdout=out, stderr=err, cwd=ROOT, env=env)
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.perf_counter() >= deadline:
        raise BenchError(f"deadline reached during `{' '.join(argv)}`")
    return wall, usage.ru_maxrss / 1024, proc.returncode, out_path.read_text(), err_path.read_text()


def setup_time(env, workdir, deadline) -> float:
    """Wall time of a fresh `python -m mmphf_lab.cli --version`."""
    wall, _, code, _, err = run_cli(["--version"], env, workdir, deadline)
    if code != 0:
        raise BenchError(f"`--version` exited {code}: {err[-2000:]}")
    return wall


def run_lib(pkg, argv):
    """The same call inside this process: (wall s, exit code, stdout text, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # every timed call starts from the same heap state
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pkg.cli.main(list(argv))
    except Exception:
        err.write(traceback.format_exc())
        code = 1
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def outcome(op, path, code, text, err) -> str:
    """'ok', 'failed' (nonzero exit) or 'rejected' (a check refused the output)."""
    if code != 0:
        print(f"failed ({path}): exit {code}: {' '.join(op.argv)}\n{err[-2000:]}", file=sys.stderr)
        return "failed"
    digest = hashlib.sha256(text.encode()).digest()
    if digest not in op.passed:
        try:
            op.check(text)
        except (CheckError, AttributeError, KeyError, IndexError, TypeError, ValueError) as e:
            print(f"rejected ({path}): {' '.join(op.argv)}: {e!r}", file=sys.stderr)
            return "rejected"
        op.passed.add(digest)
    return "ok"


def run_round(pkg, ops, env, workdir, deadline, traced):
    """Each op as a fresh process; after each, the next LIB_PASSES calls of
    the in-process stream, which goes LIB_PASSES times through the list, so
    a long in-process call is sampled at points apart.  Traced, the first
    in-process pass of each op runs once more under the span recorder.

    rnd["cli"][i] is op i's fresh-process wall time, rnd["lib"][i] the
    list of its in-process wall times.
    """
    tracer = Tracer() if traced else None
    rnd = {"cli": [], "lib": [[] for _ in ops], "rss": [], "outcomes": [], "tracer": tracer}
    stream = list(range(len(ops))) * LIB_PASSES
    for i, op in enumerate(ops):
        wall, rss, *result = run_cli(op.argv, env, workdir, deadline)
        rnd["cli"].append(wall)
        rnd["rss"].append(rss)
        rnd["outcomes"].append(outcome(op, "process", *result))
        for j in stream[i * LIB_PASSES:(i + 1) * LIB_PASSES]:
            wall, *result = run_lib(pkg, ops[j].argv)
            rnd["lib"][j].append(wall)
            rnd["outcomes"].append(outcome(ops[j], "in-process", *result))
            if tracer and len(rnd["lib"][j]) == 1:
                with tracer.installed(pkg), tracer.span(f"cli.{ops[j].name}"):
                    _, *result = run_lib(pkg, ops[j].argv)
                rnd["outcomes"].append(outcome(ops[j], "traced", *result))
    return rnd


def import_times(env) -> tuple:
    """Median cumulative import time of mmphf_lab and of mmphf_lab.harddist, from -X importtime."""
    package, harddist = [], []
    for _ in range(IMPORT_SAMPLES):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mmphf_lab"],
                             cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
                             check=True).stderr
        cumulative = {}
        for line in err.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line.split("|")
                if cum.strip().isdigit():
                    cumulative[name.strip()] = int(cum) / 1e6
        package.append(cumulative["mmphf_lab"])
        harddist.append(cumulative["mmphf_lab.harddist"])
    return statistics.median(package), statistics.median(harddist)


def layer_metrics(rounds, imports) -> dict:
    per_round = []
    for rnd in rounds:
        tracer = rnd["tracer"]
        selfs = tracer.self_times()
        m = {name: sum(selfs.get(s, 0.0) for s in spans) for name, spans in LAYER_TIMES.items()}
        m["cli.self_s"] = sum(v for k, v in selfs.items() if k.startswith("cli."))
        m.update({name: tracer.counts[name] for name in LAYER_COUNTS})
        keys = tracer.counts["mmphf.keys"]
        m["mmphf.payload_bits_per_key"] = tracer.counts["mmphf.payload_bits"] / keys if keys else 0.0
        traced_total = sum(end - start for _, parent, _, start, end in tracer.spans if parent is None)
        m["trace.overhead_s"] = traced_total - sum(lib[0] for lib in rnd["lib"])
        per_round.append(m)
    metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    metrics["cli.process_overhead_s"] = statistics.median(
        c - statistics.median(lib) for rnd in rounds for c, lib in zip(rnd["cli"], rnd["lib"]))
    metrics["import.package_s"], metrics["import.harddist_s"] = imports
    return metrics


def write_trace(path, rounds):
    spans = [{"round": i, "id": sid, "parent": parent, "name": name, "start_s": start, "end_s": end}
             for i, rnd in enumerate(rounds) for sid, parent, name, start, end in rnd["tracer"].spans]
    path.write_text(json.dumps({"spans": spans}) + "\n")


def unit_of(name) -> str:
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_per_key", "bits/key")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    pkg = load_package()
    env = child_env()
    origin = child_package_origin(env)
    if origin != Path(pkg.__file__).resolve():
        raise BenchError(f"a fresh process imports mmphf_lab from {origin}, not from {SRC}")
    print(f"package: {origin}")

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops = WORKLOADS[args.workload](args.seed, workdir)
        setup = [setup_time(env, workdir, deadline)]
        imports = import_times(env) if args.trace else None
        rounds = []
        started = time.perf_counter()
        while True:
            rounds.append(run_round(pkg, ops, env, workdir, deadline, bool(args.trace)))
            setup.append(setup_time(env, workdir, deadline))
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(rounds) / 2 > args.seconds:
                break  # the run ends after the whole number of rounds nearest --seconds
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_time(env, workdir, deadline))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Every round makes the same calls, so each call's median over the run
    # is taken first and the medians are summed.
    cli = [statistics.median(r["cli"][i] for r in rounds) for i in range(len(ops))]
    lib = [statistics.median(t for r in rounds for t in r["lib"][i]) for i in range(len(ops))]
    for c, t, op in zip(cli, lib, ops):
        print(f"{c:8.3f} s cli {t:8.3f} s lib  {' '.join(op.argv)}")
    outcomes = [o for r in rounds for o in r["outcomes"]]
    if args.trace:
        metrics = layer_metrics(rounds, imports)
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        write_trace(trace_path, rounds)
        print(f"trace: {trace_path}")
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(cli),
            "call_p50_s": statistics.median(w for r in rounds for w in r["cli"]),
            "lib_wall_s": sum(lib),
            "peak_rss_mb": max(x for r in rounds for x in r["rss"]),
        }
    print(f"rounds: {len(rounds)}, calls per round: {len(ops)}, setup samples: {len(setup)}")
    print(json.dumps({
        "correct": "rejected" not in outcomes,
        "attempted": len(outcomes),
        "failed": sum(o != "ok" for o in outcomes),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
