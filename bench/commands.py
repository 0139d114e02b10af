"""Workload `cli`: the README commands, one at a time as subprocesses.

Part a is the geometric mean over commands of each command's median
latency across rounds; part b is the start-up floor every command pays, a
fresh `import stabpair.cli` in a new interpreter.  `discrepancy` is left
out because the `heights` workload covers it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction

from harness import SRC, WORK_DIR, Round, nproc, op_medians, seed_int, timed

NAME = "cli"
MIN_ROUNDS = 2
WARM_ROUNDS = 0    # subprocesses start cold anyway; set-up probes warm the file cache
PART_A = "cmd_median_s"
PART_B = "import_floor_s"


def commands(seed: int) -> list:
    """(label, argv after `stabpair`, artifact name) of each README command."""
    s = [str(seed_int(seed, 20, k) % 10**6) for k in range(4)]
    return [
        ("polytope", ["polytope", "--poly", "disc:2"], "polytope.json"),
        ("semistable", ["semistable", "--pair", "v=disc:2,w=disc:2", "--trials", "50",
                        "--seed", s[0]], "semistable.json"),
        ("stable-search", ["stable-search", "--pair", "v=res:2,w=disc:2", "--q", "8",
                           "--m-max", "50"], "search.json"),
        ("energy", ["energy", "--pair", "v=res:2,w=disc:2", "--sigma", "diag:2,1,0.5"],
         "energy.json"),
        ("energy-scan", ["energy-scan", "--pair", "v=res:2,w=disc:2", "--rays", "8",
                         "--decades", "6", "--seed", s[1]], "scan.csv"),
        ("zeta", ["zeta", "--poly", "det:2", "--s", "1", "--samples", "1000000",
                  "--seed", s[2]], "zeta.json"),
        ("height", ["height", "--poly", "disc:2", "--samples", "1000000", "--seed", s[3],
                    "--audit-bounds"], "height.json"),
        ("degeneration", ["degeneration", "--d-range", "10:200", "--convention",
                          "standard"], "limits.csv"),
        ("variety", ["variety", "--family", "rnc", "--d", "3"], "conic3.json"),
        ("height-monomial", ["height", "--poly", "monomial:1,0"], "monomial.json"),
    ]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # the commands' default thread count, kept within this machine's cores
    env["STABPAIR_THREADS"] = str(nproc())
    return env


def argv_with_out(argv: list, artifact: str) -> list:
    flag = "--emit" if argv[0] == "variety" else "--out"
    return argv + [flag, artifact]


def build(seed: int) -> dict:
    work = WORK_DIR / f"cli-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    return {"seed": seed, "commands": commands(seed), "work": work, "env": child_env()}


def close(inputs: dict) -> None:
    shutil.rmtree(inputs["work"], ignore_errors=True)


def _run(argv: list, inputs: dict):
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=inputs["work"], env=inputs["env"],
                          capture_output=True, timeout=120)
    return time.perf_counter() - t0, proc


def run_round(inputs: dict, index: int) -> Round:
    """Every round repeats the same seeded commands; `index` only numbers it."""
    out = Round()
    results = {}
    start = time.perf_counter()
    for label, argv, artifact in inputs["commands"]:
        seconds, proc = _run([sys.executable, "-m", "stabpair.cli"]
                             + argv_with_out(argv, artifact), inputs)
        out.a[label] = seconds
        results[label] = _collect(inputs, artifact, proc.returncode,
                                  proc.stderr.decode(errors="replace"))
    seconds, proc = _run([sys.executable, "-c", "import stabpair.cli"], inputs)
    out.b["import"] = seconds
    if proc.returncode != 0:
        results["import"] = {"code": proc.returncode, "stderr": proc.stderr.decode()[-400:]}
    out.wall_s = time.perf_counter() - start
    out.attempted = len(inputs["commands"]) + 1
    out.outputs = {"results": results}
    return out


def run_inprocess_round(inputs: dict, index: int) -> Round:
    """The same commands through `stabpair.cli.main` in this process (no start-up)."""
    from stabpair import cli

    out = Round()
    results = {}
    os.environ["STABPAIR_THREADS"] = inputs["env"]["STABPAIR_THREADS"]
    start = time.perf_counter()
    for label, argv, artifact in inputs["commands"]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = timed(out.a, label, cli.main,
                         argv_with_out(argv, str(inputs["work"] / artifact)))
        results[label] = _collect(inputs, artifact, code, err.getvalue())
    out.wall_s = time.perf_counter() - start
    out.attempted = len(inputs["commands"])
    out.outputs = {"results": results}
    return out


def _collect(inputs: dict, artifact: str, code: int, stderr: str) -> dict:
    """A command's exit code, stderr tail, artifact and manifest; removes the files."""
    path = inputs["work"] / artifact
    manifest = path.with_name(artifact + ".manifest.json")
    result = {"code": code, "stderr": stderr[-400:],
              "artifact": path.read_bytes() if path.exists() else None,
              "manifest": manifest.read_bytes() if manifest.exists() else None}
    for p in (path, manifest):
        p.unlink(missing_ok=True)
    return result


def summarize(rounds: list) -> tuple:
    """(wall, part a, part b): part a is the geometric mean over commands of
    each command's median latency, part b the median import floor."""
    medians = op_medians(rounds, "a")
    geomean = math.exp(sum(math.log(m) for m in medians.values()) / len(medians))
    imports = op_medians(rounds, "b")["import"]
    return sum(medians.values()) + imports, geomean, imports


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(data: bytes):
    return json.loads(data.decode("utf-8"), parse_constant=_reject_constant)


def strict_csv(data: bytes, text_columns=("exponents",)) -> list:
    """Rows of a `# comment` + header CSV; every non-text cell a finite float."""
    lines = data.decode("utf-8").splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError("missing comment line")
    rows = list(csv.reader(lines[1:], strict=True))
    header, body = rows[0], rows[1:]
    if not body:
        raise ValueError("no data rows")
    for row in body:
        if len(row) != len(header):
            raise ValueError(f"row of {len(row)} fields under {len(header)} columns")
        for name, cell in zip(header, row):
            if name not in text_columns and not math.isfinite(float(cell)):
                raise ValueError(f"non-finite {name} cell {cell!r}")
    return [dict(zip(header, row)) for row in body]


def check_payload(label: str, argv: list, data: bytes, problems: list) -> None:
    import reference

    identity3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    if label == "polytope":
        got = {tuple(Fraction(c) for c in v) for v in strict_json(data)["vertices"]}
        want = set(reference.sum_zero(reference.acted_characters("disc", 2, identity3)))
        if got != want:
            problems.append(f"polytope disc:2 vertices {sorted(got)} != {sorted(want)}")
    elif label == "semistable":
        p = strict_json(data)
        if p["status"] != "semistable-certified-on-diagonal-torus" or p["trials"] != 50:
            problems.append(f"(disc:2, disc:2) is {p['status']} after {p['trials']} trials")
    elif label == "stable-search":
        # N(disc:2) is a segment (the form is isobaric) and cannot absorb
        # the full-dimensional q Q + m N(res:2)
        chars = reference.acted_characters("disc", 2, identity3)
        isobaric = len({a[1] + 2 * a[2] for a in chars}) == 1
        if isobaric and strict_json(data)["exponent"] is not None:
            problems.append("stable-search found an exponent for (res:2, disc:2)")
    elif label == "energy":
        p = strict_json(data)
        t = (2.0, 1.0, 0.5)
        trace = math.log(sum(x * x for x in t) / 3)
        w_ratio = reference.diagonal_log_ratio("disc", 2, t)
        v_ratio = reference.diagonal_log_ratio("res", 2, t)
        comp = p["components"]
        for name, got, want in (("trace_term", comp["trace_term"], trace),
                                ("w_log_ratio", comp["w_log_ratio"], w_ratio),
                                ("v_log_ratio", comp["v_log_ratio"], v_ratio),
                                ("nu", p["nu"], w_ratio - v_ratio)):
            if abs(got - want) > 1e-9:
                problems.append(f"energy {name} = {got}, expected {want}")
    elif label == "energy-scan":
        if len(strict_csv(data)) != 8 * 13:
            problems.append("energy-scan row count")
    elif label == "zeta":
        p = strict_json(data)
        if not abs(p["value"] - reference.det_zeta(2, 1.0)) <= 5 * p["stderr"]:
            problems.append(f"zeta(det_2; 1) = {p['value']} +- {p['stderr']}, expected 1/10")
    elif label == "height":
        p = strict_json(data)
        if not (math.isfinite(p["h"]) and math.isfinite(p["stderr"])):
            problems.append("height disc:2 not finite")
    elif label == "degeneration":
        rows = strict_csv(data)
        if [int(r["d"]) for r in rows] != list(range(10, 201)):
            problems.append("degeneration rows do not cover d = 10..200")
    elif label == "variety":
        p = strict_json(data)
        for key, kind, deg in (("R_X", "res", 6), ("Delta_X", "disc", 4)):
            got = {tuple(sum(col) for col in zip(*t["exps"])) for t in p[key]["terms"]}
            want = reference.acted_characters(kind, 3, [[int(i == j) for j in range(4)]
                                                        for i in range(4)])
            if p[key]["degree"] != deg or got != want:
                problems.append(f"variety {key} support differs from the {kind}:3 form")
    elif label == "height-monomial":
        h = strict_json(data)["h"]
        if abs(h - (math.log(2) - 1)) > 1e-12:
            problems.append(f"height monomial:1,0 = {h}, expected log 2 - 1")


def check(inputs: dict, rounds: list) -> list:
    problems = []
    first = rounds[0].outputs["results"]
    if "import" in first:
        problems.append(f"import stabpair.cli failed: {first['import']['stderr']}")
    for label, argv, artifact in inputs["commands"]:
        res = first[label]
        if res["code"] != 0 or res["artifact"] is None or res["manifest"] is None:
            problems.append(f"{label}: exit {res['code']}, {res['stderr']}")
            continue
        if any(r.outputs["results"][label]["artifact"] != res["artifact"] for r in rounds[1:]):
            problems.append(f"{label}: seeded repeats are not byte-identical")
        try:
            manifest = strict_json(res["manifest"])
            digest = hashlib.sha256(res["artifact"]).hexdigest()
            if manifest["outputs"] != {artifact: digest} or manifest["subcommand"] != argv[0]:
                problems.append(f"{label}: manifest does not match the artifact")
            check_payload(label, argv, res["artifact"], problems)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"{label}: unparseable output ({exc})")
    return problems


def named_metrics(part_a_s: float, part_b_s: float) -> dict:
    return {PART_A: (part_a_s, "s"), PART_B: (part_b_s, "s")}
