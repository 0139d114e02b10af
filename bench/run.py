"""Benchmark of stabpair: exact verdicts, orbit optimisation, Monte Carlo
heights and the command line, end to end and layer by layer.

    python3 bench/run.py --workload verdicts --seed 1 --seconds 30 --trace 0

Workloads: verdicts, orbits, heights, cli (or `all`, which runs the four in
turn in this process).  With --trace 0 the run sets up, then repeats whole
rounds of the workload's operations for about --seconds, checks every
output, and prints the end-to-end metrics.  With --trace 1 it instead runs
a warm-up, an untraced and a traced round of every workload and prints the
per-layer metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Results and traces are also
written under bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# One BLAS thread, set before numpy loads and inherited by every child, so
# that the load runs on one thread.  OpenBLAS's default pool kept a second
# thread busy in `orbits`: it added a third to the process's CPU time and
# widened the spread of its timings between runs.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import harness  # noqa: E402
from harness import RESULTS_DIR, ROOT, nproc, op_medians

harness.use_checkout_sources()

import commands  # noqa: E402
import heights  # noqa: E402
import orbits  # noqa: E402
import verdicts  # noqa: E402

# cli first: with --workload all, its children then fork from a small parent,
# whose resident size they would otherwise inherit into their peak
WORKLOADS = {m.NAME: m for m in (commands, verdicts, orbits, heights)}
SETUP_PROBES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_probe(name: str, seed: int) -> None:
    """Body of a set-up child: import stabpair and build the workload's inputs."""
    import stabpair  # noqa: F401

    mod = WORKLOADS[name]
    inputs = mod.build(seed)
    if hasattr(mod, "close"):
        mod.close(inputs)


def measure_setup(name: str, seed: int) -> float:
    """Median seconds from starting a fresh interpreter until the inputs exist."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# timed runs
# ---------------------------------------------------------------------------

def summarize(mod, rounds: list) -> tuple:
    """(wall, part a, part b) seconds per round, each a sum of per-operation medians."""
    if hasattr(mod, "summarize"):
        return mod.summarize(rounds)
    a, b, other = (sum(op_medians(rounds, part).values()) for part in ("a", "b", "other"))
    return a + b + other, a, b


def timed_run(name: str, seed: int, seconds: float) -> dict:
    mod = WORKLOADS[name]
    setup_s = measure_setup(name, seed)
    inputs = mod.build(seed)
    try:
        warm = mod.WARM_ROUNDS   # run and checked, but not timed
        rounds = []
        start = time.perf_counter()
        while True:
            rounds.append(mod.run_round(inputs, len(rounds)))
            elapsed = time.perf_counter() - start
            typical = statistics.median(r.wall_s for r in rounds[warm:] or rounds)
            if len(rounds) - warm >= mod.MIN_ROUNDS and elapsed + typical > seconds:
                break
        who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        problems = mod.check(inputs, rounds)
    finally:
        if hasattr(mod, "close"):
            mod.close(inputs)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    rounds = rounds[warm:]
    wall, part_a, part_b = summarize(mod, rounds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "part_a_s": (part_a, "s"),
        "part_b_s": (part_b, "s"),
    }
    return {
        "rounds": len(rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "named_metrics": mod.named_metrics(part_a, part_b),
        "round_wall_s": [r.wall_s for r in rounds],
        "op_medians_s": {part: op_medians(rounds, part) for part in ("a", "b", "other")},
        "problems": problems,
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def _subprocess_seconds(code: str, env: dict, runs: int = 3, inner: bool = False) -> float:
    """Median wall seconds of `python -c code`, or of the float it prints."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        times.append(float(proc.stdout) if inner else time.perf_counter() - t0)
    return statistics.median(times)


def thread_speedup() -> float:
    """Samples/s of one black-box height at min(2, nproc) threads over 1 thread."""
    from stabpair.igusa import height
    from stabpair.varieties import rnc_hyperdiscriminant

    poly = rnc_hyperdiscriminant(8)
    seconds = []
    for threads in (1, min(2, nproc())):
        t0 = time.perf_counter()
        height(poly, samples=131_072, seed=0, threads=threads)
        seconds.append(time.perf_counter() - t0)
    return seconds[0] / seconds[1]


def traced_run(name: str, seed: int) -> dict:
    import tracer as tracing

    tr = tracing.Tracer()
    tracing.install(tr)
    per_workload, overhead, problems = {}, {}, []
    try:
        for wname, mod in WORKLOADS.items():
            tr.enabled = True
            inputs = mod.build(seed)
            tr.enabled = False
            run = getattr(mod, "run_inprocess_round", mod.run_round)
            try:
                warm = run(inputs, 0)
                untraced = run(inputs, 0)
                tr.enabled = True
                traced = run(inputs, 0)
                tr.enabled = False
                problems += mod.check(inputs, [warm, untraced, traced])
            finally:
                if hasattr(mod, "close"):
                    mod.close(inputs)
            overhead[wname] = traced.wall_s - untraced.wall_s
            per_workload[wname] = {"attempted": 3 * traced.attempted,
                                   "failed": 3 * traced.failed,
                                   "untraced_wall_s": untraced.wall_s,
                                   "traced_wall_s": traced.wall_s}
    finally:
        tr.uninstall()
    env = commands.child_env()
    probes = {
        "interpreter_s": _subprocess_seconds("pass", env),
        "import_s": _subprocess_seconds(
            "import time; t = time.perf_counter(); import stabpair.cli; "
            "print(time.perf_counter() - t)", env, inner=True),
        "thread_speedup": thread_speedup(),
        "span_cost_s": tracing.span_cost(),
    }
    metrics = layer_metrics(tr, probes, overhead)
    trace_file = RESULTS_DIR / f"trace-{name}-seed{seed}.json"
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps({
        "summary": tr.summary(), "edges": tr.edges(), "counts": dict(tr.counts),
        "spans": len(tr.spans), "per_workload": per_workload}, indent=1))
    chosen = list(per_workload) if name == "all" else [name]
    return {"rounds": 3,
            "attempted": sum(per_workload[n]["attempted"] for n in chosen),
            "failed": sum(per_workload[n]["failed"] for n in chosen),
            "metrics": metrics, "per_workload": per_workload, "problems": problems}


def layer_metrics(tr, probes: dict, overhead: dict) -> dict:
    s = tr.summary()
    c = tr.counts

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def total(*names):
        return sum(s.get(n, {}).get("total_s", 0.0) for n in names)

    count, sec = "count", "s"
    m = {
        "exactgeom.hull_calls": (calls("exactgeom.hull"), count),
        "exactgeom.hull_s": (total("exactgeom.hull"), sec),
        "exactgeom.hull_points_in": (c["hull_points_in"], count),
        "exactgeom.hull_vertices_out": (c["hull_vertices_out"], count),
        "exactgeom.halfspaces_s": (total("exactgeom.halfspaces"), sec),
        "exactgeom.contains_calls": (calls("exactgeom.contains"), count),
        "exactgeom.contains_s": (total("exactgeom.contains"), sec),
        "pairstab.weight_polytope_s": (total("pairstab.weight_polytope"), sec),
        "pairstab.support_points": (c["support_points"], count),
        "pairstab.verify_witness_s": (total("pairstab.verify_witness"), sec),
        "polyrep.act_exact_calls": (calls("polyrep.act_exact"), count),
        "polyrep.act_exact_s": (total("polyrep.act_exact"), sec),
        "polyrep.act_float_calls": (calls("polyrep.act_float"), count),
        "polyrep.act_float_s": (total("polyrep.act_float"), sec),
        "polyrep.act_terms_out": (c["act_terms_out"], count),
        "polyrep.evaluate_batch_s": (total("polyrep.evaluate_batch"), sec),
        "polyrep.gaussian_batch_s": (total("polyrep.gaussian_batch"), sec),
        "energy.nu_pair_calls": (calls("energy.nu_pair"), count),
        "energy.nu_pair_s": (total("energy.nu_pair"), sec),
        "energy.inner_s": (total("energy.inner"), sec),
        "energy.optimizer_evals": (c["optimizer_evals"], count),
        "energy.optimizer_self_s": (s.get("energy.minimize", {}).get("self_s", 0.0), sec),
        "igusa.height_calls": (calls("igusa.height"), count),
        "igusa.height_s": (total("igusa.height"), sec),
        "igusa.samples": (c["height_samples"], count),
        "igusa.resampled": (c["height_resampled"], count),
        "igusa.thread_speedup": (probes["thread_speedup"], "ratio"),
        "varieties.build_s": (total("varieties.build"), sec),
        "varieties.discrepancy_s": (total("varieties.discrepancy_table"), sec),
        "cli.interpreter_s": (probes["interpreter_s"], sec),
        "cli.import_s": (probes["import_s"], sec),
        "cli.command_s": (total("cli.main"), sec),
    }
    for layer, self_s in tr.layer_self().items():
        m[f"{layer}.self_s"] = (self_s, sec)
    for wname, seconds in overhead.items():
        m[f"{wname}.trace_overhead_s"] = (seconds, sec)
    # spans times the cost of one span estimates the overhead without the
    # round-to-round noise that the differences above carry
    m["trace.spans"] = (len(tr.spans), count)
    m["trace.span_cost_s"] = (probes["span_cost_s"], sec)
    return m


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def machine() -> dict:
    import numpy
    import scipy

    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(), "git_commit": git_commit()}


def print_block(name: str, res: dict) -> None:
    print(f"workload {name}: {res['rounds']} rounds, attempted {res['attempted']}, "
          f"failed {res['failed']}")
    for metric, (value, unit) in {**res["metrics"], **res.get("named_metrics", {})}.items():
        print(f"  {name}/{metric} {value:.6g} {unit}")
    for problem in res["problems"]:
        print(f"  CHECK FAILED: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.trace:
        results = {args.workload: traced_run(args.workload, args.seed)}
    else:
        results = {n: timed_run(n, args.seed, args.seconds) for n in names}
    for n, res in results.items():
        print_block(n, res)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(),
              "workloads": results}
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, res in results.items() for k, v in res["metrics"].items()}
    line = {
        "correct": not any(res["problems"] for res in results.values()),
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": sum(res["failed"] for res in results.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
