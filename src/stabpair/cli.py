"""Command-line surface: reproducible experiments with JSON/CSV artifacts.

Every run can write its artifact plus a manifest sidecar recording the
subcommand, the full flag set, the master seed, library versions and the
output digests; two runs with identical manifests (wall time aside)
produce bit-identical numeric payloads.  Exit codes: 0 success, 1 verdict
contradicts --expect, 2 usage or specification errors (CLIUsageError, or
a flag argparse rejects), 3 internal or numerical failure (any other
ValueError, an arithmetic or evaluation error, or a NaN or infinity that
strict JSON cannot carry).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, energy, igusa, pairstab, polyrep, varieties
from .pairstab import PairSpec
from .polyrep import GroupElement, MatrixShape, OnePSG

SCHEMA = 1


class CLIUsageError(ValueError):
    """Bad flags or malformed specifications (exit code 2)."""


class ExpectationFailed(RuntimeError):
    """A verdict contradicted --expect (exit code 1)."""


# ---------------------------------------------------------------------------
# specification parsing
# ---------------------------------------------------------------------------

def parse_poly_spec(spec: str):
    """Named built-ins (disc:<d>, res:<d>, det:<n>, monomial:<exps>) or a JSON file.

    A trailing ^k wraps the polynomial in a formal tensor power, so the
    degree-normalized variety pair is expressible as v=res:d^<deg disc>,
    w=disc:d^<deg res>.
    """
    base_spec, caret, power_text = spec.rpartition("^")
    if caret and "/" not in power_text and "\\" not in power_text:
        try:
            exponent = int(power_text)
        except ValueError:
            exponent = None
        if exponent is not None:
            from .polyrep import FormalPower

            if exponent < 1:
                raise CLIUsageError(f"formal power must be >= 1 in {spec!r}")
            return FormalPower(parse_poly_spec(base_spec), exponent)
    if ":" in spec:
        head, _, rest = spec.partition(":")
        if head in ("disc", "res"):
            d = _int_arg(rest, spec)
            if d < 2:
                raise CLIUsageError(f"the curve family needs degree >= 2 in {spec!r}")
            build = varieties.rnc_hyperdiscriminant if head == "disc" else varieties.rnc_resultant
            return build(d)
        if head == "det":
            n = _int_arg(rest, spec)
            if not 1 <= n <= 6:
                raise CLIUsageError(f"det size out of range in {spec!r}")
            return polyrep.determinant_poly(n)
        if head == "monomial":
            rows = []
            for row in rest.split(";"):
                try:
                    rows.append(tuple(int(x) for x in row.split(",")))
                except ValueError as exc:
                    raise CLIUsageError(f"bad monomial exponents in {spec!r}") from exc
                if any(x < 0 for x in rows[-1]):
                    raise CLIUsageError(f"negative monomial exponent in {spec!r}")
            if len({len(r) for r in rows}) != 1:
                raise CLIUsageError(f"ragged monomial exponent rows in {spec!r}")
            return polyrep.monomial(MatrixShape(len(rows), len(rows[0])), tuple(rows))
        raise CLIUsageError(f"unknown polynomial builder {head!r} in {spec!r}")
    path = Path(spec)
    if not path.exists():
        raise CLIUsageError(f"polynomial spec {spec!r}: no such builder or file")
    try:
        return polyrep.poly_from_json(path.read_text(encoding="utf-8"))
    except (ValueError, KeyError) as exc:
        raise CLIUsageError(f"malformed polynomial JSON in {spec!r}: {exc}") from exc


def _evaluable_poly(spec: str):
    """A polynomial spec for the sampling commands, which take no formal power."""
    poly = parse_poly_spec(spec)
    if isinstance(poly, polyrep.FormalPower):
        raise CLIUsageError(f"{spec!r}: formal powers are never sampled; pass the base")
    return poly


def _int_arg(text: str, spec: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise CLIUsageError(f"expected an integer in {spec!r}") from exc


def parse_pair_spec(spec: str) -> PairSpec:
    """Pairs are written v=<polyspec>,w=<polyspec>.

    The split happens at the literal ",w=" so polynomial specs may contain
    commas of their own (monomial exponent lists do).
    """
    if not spec.startswith("v="):
        raise CLIUsageError(f"pair spec {spec!r} must look like v=<spec>,w=<spec>")
    v_text, sep, w_text = spec[2:].partition(",w=")
    if not sep or not v_text or not w_text:
        raise CLIUsageError(f"pair spec {spec!r} must supply both v= and w=")
    v, w = parse_poly_spec(v_text), parse_poly_spec(w_text)
    try:
        return PairSpec.of(v, w)
    except ValueError as exc:
        raise CLIUsageError(f"pair spec {spec!r}: {exc}") from exc


def parse_sigma_spec(spec: str, ambient: int) -> GroupElement:
    """diag:<entries>, ray:<exponents>:<t>, or a JSON matrix file."""
    path = Path(spec)
    if not spec.startswith(("diag:", "ray:")) and not path.exists():
        raise CLIUsageError(f"sigma spec {spec!r}: no such form or file")
    try:
        if spec.startswith("diag:"):
            sigma = GroupElement.diagonal(tuple(float(x) for x in spec[5:].split(",")))
        elif spec.startswith("ray:"):
            lam_text, _, t_text = spec[4:].rpartition(":")
            lam = OnePSG(tuple(int(x) for x in lam_text.split(",")))
            sigma = GroupElement(lam.matrix(float(t_text)))
        else:
            data = json.loads(path.read_text(encoding="utf-8"))
            sigma = GroupElement([[complex(*e) if isinstance(e, list) else complex(e)
                                   for e in row] for row in data])
    except (ValueError, TypeError, ArithmeticError) as exc:
        raise CLIUsageError(f"bad sigma spec {spec!r}: {exc}") from exc
    if sigma.size != ambient:
        raise CLIUsageError(f"sigma spec {spec!r} has size {sigma.size}, "
                            f"the pair has {ambient} columns")
    return sigma


# ---------------------------------------------------------------------------
# artifact plumbing
# ---------------------------------------------------------------------------

def _resolve_threads(args) -> int:
    if getattr(args, "threads", None):
        return args.threads
    env = os.environ.get("STABPAIR_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise CLIUsageError(f"bad STABPAIR_THREADS value {env!r}") from exc
    return os.cpu_count() or 1


def _require_finite(value, key: str) -> None:
    """Raise ArithmeticError naming `key` if `value` holds a NaN or infinity."""
    if isinstance(value, dict):
        for k, v in value.items():
            _require_finite(v, f"{key}.{k}" if key else str(k))
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _require_finite(v, f"{key}[{i}]")
    elif isinstance(value, (float, np.floating)) and not math.isfinite(value):
        raise ArithmeticError(f"non-finite value {float(value)!r} for {key!r}")


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _flatten(payload: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, name + "."))
        elif isinstance(value, (list, tuple)):
            flat[name] = json.dumps(value)
        else:
            flat[name] = value
    return flat


def _emit_report(args, payload: dict) -> None:
    """Write a scalar report as JSON (default) or a one-row CSV."""
    _require_finite(payload, "")
    if getattr(args, "format", None) == "csv":
        flat = _flatten(payload)
        keys = sorted(flat)
        text = _csv_text("single-row report; columns are flattened JSON keys",
                         keys, [[flat[k] for k in keys]])
    else:
        text = _json_text(payload)
    _write_artifact(args, text, args._started)


def _emit_table(args, comment: str, header: list, rows: list) -> None:
    """Write a table as CSV (default) or a JSON row bundle."""
    for i, row in enumerate(rows):
        _require_finite(dict(zip(header, row)), f"rows[{i}]")
    if getattr(args, "format", None) == "json":
        payload = {"schema": SCHEMA, "comment": comment, "columns": header,
                   "rows": [list(r) for r in rows]}
        text = _json_text(payload)
    else:
        text = _csv_text(comment, header, rows)
    _write_artifact(args, text, args._started)


def _csv_text(comment: str, header: list, rows: list) -> str:
    lines = [f"# {comment}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(x) for x in row))
    return "\n".join(lines) + "\n"


def _csv_cell(x) -> str:
    if isinstance(x, float):
        # plain-float repr is shortest-roundtrip and, unlike numpy scalar
        # repr, stays parseable CSV
        return repr(float(x))
    return str(x)


def _write_artifact(args, text: str, started: float) -> None:
    if not args.out:
        sys.stdout.write(text)
        return
    out = Path(args.out)
    out.write_text(text, encoding="utf-8")
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    manifest = {
        "schema": SCHEMA,
        "subcommand": args.subcommand,
        "flags": {k: v for k, v in sorted(vars(args).items())
                  if k not in ("func", "subcommand") and not k.startswith("_")
                  and v is not None},
        "seed": getattr(args, "seed", None),
        "versions": {
            "stabpair": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "wall_time_s": round(time.time() - started, 3),
        "outputs": {out.name: digest},
    }
    Path(str(out) + ".manifest.json").write_text(_json_text(manifest),
                                                 encoding="utf-8")


def _fraction_str(x) -> str:
    return str(Fraction(x))


def _fields(obj, names: str) -> dict:
    """The named attributes of obj, for a payload."""
    return {name: getattr(obj, name) for name in names.split()}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_polytope(args) -> int:
    poly = parse_poly_spec(args.poly)
    wp = pairstab.weight_polytope(poly)
    payload = {
        "schema": SCHEMA,
        "poly": args.poly,
        "dim": wp.dim,
        "vertices": [[_fraction_str(c) for c in v] for v in wp.vertices],
    }
    _emit_report(args, payload)
    return 0


def _cmd_semistable(args) -> int:
    pair = parse_pair_spec(args.pair)
    verdict = pairstab.semistable_probe(pair, trials=args.trials, rng_seed=args.seed)
    payload = {
        "schema": SCHEMA,
        "pair": args.pair,
        "status": verdict.status,
        "trials": verdict.trials,
        "witness": None,
    }
    if verdict.witness is not None:
        g, lam = verdict.witness
        check = pairstab.verify_witness(pair, g, lam)
        witness = {
            "group_element": [[_fraction_str(e) for e in row] for row in g.entries],
            "one_ps": list(lam.exponents),
            "weight_v": _fraction_str(check["weight_v"]),
            "weight_w": _fraction_str(check["weight_w"]),
        }
        witness_text = json.dumps(witness, sort_keys=True)
        payload["witness"] = witness
        payload["reverify_hash"] = hashlib.sha256(witness_text.encode()).hexdigest()
    _emit_report(args, payload)
    if args.expect:
        got = "destabilized" if verdict.destabilized else "semistable"
        if got != args.expect:
            raise ExpectationFailed(f"expected {args.expect}, verdict {verdict.status}")
    return 0


def _cmd_stable_search(args) -> int:
    pair = parse_pair_spec(args.pair)
    m = pairstab.stable_search(pair, q=args.q, m_max=args.m_max, scheme=args.scheme,
                               probe_trials=args.probe_trials, rng_seed=args.seed)
    payload = {"schema": SCHEMA, "pair": args.pair, "exponent": m,
               **_fields(args, "q m_max scheme"),
               "status": "stable-with-exponent" if m is not None else "no-exponent-found"}
    _emit_report(args, payload)
    return 0


def _cmd_energy(args) -> int:
    pair = parse_pair_spec(args.pair)
    sigma = parse_sigma_spec(args.sigma, pair.ambient)
    rep = energy.energy_report(pair, sigma, samples=args.samples, seed=args.seed)
    payload = {"schema": SCHEMA, "pair": args.pair, "sigma": args.sigma, "nu": rep.nu,
               "j": rep.j, "components": dict(zip(("w_log_ratio", "v_log_ratio",
                                                   "trace_term"), rep.components))}
    _emit_report(args, payload)
    return 0


def _cmd_energy_scan(args) -> int:
    pair = parse_pair_spec(args.pair)
    rng = np.random.default_rng(args.seed)
    rows = []
    for ray_idx in range(args.rays):
        lam = energy._random_sum_zero(rng, pair.ambient)
        ts = np.logspace(-0.25, -args.decades, args.points)
        nus, js = energy._pair_along_ray(pair, lam, ts)
        label = " ".join(str(e) for e in lam.exponents)
        for t, nu, j in zip(ts, nus, js):
            rows.append((ray_idx, label, float(t), float(nu), float(j)))
    _emit_table(
        args,
        "columns: ray=index, exponents=diagonal one-parameter exponents, "
        "t=|parameter|, nu=pair energy log||sw||^2/||w||^2-log||sv||^2/||v||^2, "
        "j=deg*log(trace/(N+1))-log||sv||^2/||v||^2",
        ["ray", "exponents", "t", "nu", "j"], rows)
    return 0


def _cmd_zeta(args) -> int:
    poly = _evaluable_poly(args.poly)
    if not args.s >= 0:
        raise CLIUsageError(f"--s must be >= 0, got {args.s}")
    est = igusa.zeta(poly, args.s, samples=args.samples, seed=args.seed,
                     threads=_resolve_threads(args))
    payload = {"schema": SCHEMA, "poly": args.poly, "seed": args.seed,
               **_fields(est, "s value log_value stderr samples")}
    if args.poly.startswith("det:"):
        n = int(args.poly.split(":")[1])
        payload["closed_form"] = {
            "standard": igusa.zeta_det(n, args.s, cols=n, convention="standard"),
            "paper": igusa.zeta_det(n, args.s, cols=n, convention="paper"),
        }
        payload["convention_note"] = (
            "the two closed-form conventions disagree (already 1 vs 1/pi at "
            "n=1, s=1); the Monte Carlo estimate matches `standard`")
    _emit_report(args, payload)
    return 0


def _cmd_height(args) -> int:
    poly = _evaluable_poly(args.poly)
    rep = igusa.height(poly, samples=args.samples, seed=args.seed,
                       threads=_resolve_threads(args))
    payload = {"schema": SCHEMA, "poly": args.poly, "seed": args.seed,
               **_fields(rep, "h log_Z1 Zprime0 stderr ci_halfwidth method samples")}
    if args.audit_bounds:
        if poly.shape.rows != 1:
            raise CLIUsageError("--audit-bounds applies to vector variable spaces")
        audit = igusa.height_bounds_audit(poly, samples=args.samples, seed=args.seed,
                                          threads=_resolve_threads(args))
        payload["bounds"] = _fields(
            audit, "lower lower_alt upper pass_lower pass_lower_alt pass_upper")
    _emit_report(args, payload)
    return 0


def _parse_range(text: str, least: int) -> list:
    lo, sep, hi = text.partition(":")
    try:
        values = list(range(int(lo), int(hi) + 1)) if sep else [int(lo)]
    except ValueError as exc:
        raise CLIUsageError(f"bad degree range {text!r}") from exc
    if not values or values[0] < least:
        raise CLIUsageError(f"degree range {text!r} must be nonempty and start at >= {least}")
    return values


def _cmd_degeneration(args) -> int:
    # the table is built in for curves (n = 1); the library takes any n
    rows = []
    for d in _parse_range(args.d_range, 1):
        lim = igusa.degeneration_limit_heights(
            n=1, N=d, d=d, deg_R=2 * d, deg_Delta=2 * d - 2,
            convention=args.convention)
        rows.append((d, lim.hF_limit, lim.hDelta_limit, lim.delta_limit,
                     lim.delta_limit / d**2))
    _emit_table(
        args,
        "columns: d=embedding degree (N=d), hF=limit height of the resultant "
        "side, hDelta=limit height of the hyperdiscriminant side, "
        "delta=|deg_Delta*hF-deg_R*hDelta|, delta_over_d2=delta/d^2; "
        f"convention={args.convention}",
        ["d", "hF_limit", "hDelta_limit", "delta", "delta_over_d2"], rows)
    return 0


def _cmd_discrepancy(args) -> int:
    d_values = _parse_range(args.d, 2)
    rows, fit = varieties.discrepancy_table(d_values, samples=args.samples,
                                            seed=args.seed,
                                            threads=_resolve_threads(args))
    table = [(r.d, r.deg_R, r.deg_Delta, r.h_F, r.h_F_stderr, r.h_Delta,
              r.h_Delta_stderr, r.delta, r.delta_over_d2) for r in rows]
    _emit_table(
        args,
        "columns: d=curve degree, deg_R/deg_Delta=form degrees 2d and 2d-2, "
        "h_F/h_Delta=Monte Carlo heights with standard errors, "
        "delta=|deg_Delta*h_F-deg_R*h_Delta|, delta_over_d2=delta/d^2; "
        f"log-log growth fit: exponent={fit['exponent']!r} "
        f"ci_halfwidth={fit['exponent_ci_halfwidth']!r}",
        ["d", "deg_R", "deg_Delta", "h_F", "h_F_stderr", "h_Delta",
         "h_Delta_stderr", "delta", "delta_over_d2"], table)
    return 0


def _cmd_variety(args) -> int:
    example = varieties.rnc_example(args.d)
    payload = {"schema": SCHEMA, **_fields(example, "family n N d deg_R deg_Delta")}
    for key, poly in (("R_X", example.R_X), ("Delta_X", example.Delta_X)):
        if isinstance(poly, polyrep.SparsePolynomial):
            payload[key] = json.loads(polyrep.poly_to_json(poly))
        else:
            payload[key] = {"blackbox": poly.name, "degree": poly.degree,
                            "shape": list(poly.shape),
                            "note": "evaluation-only at this degree"}
    _emit_report(args, payload)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _at_least(least: int):
    """argparse type: an integer >= least."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    parse.__name__ = "integer"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabpair",
        description="semistability of pairs, energies, zeta functions and heights")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, func, help, reads=(), samples_default=10**6):
        # --out and --format, plus those of --seed, --samples, --threads it reads
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=["json", "csv"], default=None)
        kinds = {"seed": (int, 0), "samples": (_at_least(2), samples_default),
                 "threads": (_at_least(1), None)}
        for flag in reads:
            kind, default = kinds[flag]
            p.add_argument(f"--{flag}", type=kind, default=default)
        return p

    monte_carlo = ("seed", "samples", "threads")

    p = command("polytope", _cmd_polytope, "weight polytope of a polynomial")
    p.add_argument("--poly", required=True)

    p = command("semistable", _cmd_semistable, "pair semistability probe", ("seed",))
    p.add_argument("--pair", required=True)
    p.add_argument("--trials", type=_at_least(1), default=20)
    p.add_argument("--expect", choices=["semistable", "destabilized"], default=None)

    p = command("stable-search", _cmd_stable_search, "twist exponent search", ("seed",))
    p.add_argument("--pair", required=True)
    p.add_argument("--q", type=_at_least(1), required=True)
    p.add_argument("--m-max", type=int, default=50)
    p.add_argument("--scheme", choices=["m:m+1", "m-1:m"], default="m:m+1")
    p.add_argument("--probe-trials", type=_at_least(0), default=0)

    p = command("energy", _cmd_energy, "nu and J at one group element",
                ("seed", "samples"), samples_default=200_000)
    p.add_argument("--pair", required=True)
    p.add_argument("--sigma", required=True)

    p = command("energy-scan", _cmd_energy_scan, "nu and J along sampled diagonal rays",
                ("seed",))
    p.add_argument("--pair", required=True)
    p.add_argument("--rays", type=_at_least(0), default=8)
    p.add_argument("--decades", type=int, default=6)
    p.add_argument("--points", type=_at_least(0), default=13)

    p = command("zeta", _cmd_zeta, "Gaussian local zeta value", monte_carlo)
    p.add_argument("--poly", required=True)
    p.add_argument("--s", type=float, required=True)

    p = command("height", _cmd_height, "height of a polynomial", monte_carlo)
    p.add_argument("--poly", required=True)
    p.add_argument("--audit-bounds", action="store_true")

    p = command("degeneration", _cmd_degeneration,
                "closed-form limit heights table (curves)")
    p.add_argument("--d-range", required=True)
    p.add_argument("--convention", choices=list(igusa.CONVENTIONS), default="standard")

    p = command("discrepancy", _cmd_discrepancy, "Monte Carlo height-discrepancy table",
                monte_carlo, samples_default=200_000)
    p.add_argument("--d", required=True)

    p = command("variety", _cmd_variety, "emit a rational normal curve's forms")
    p.add_argument("--d", type=_at_least(2), required=True)
    # undocumented spellings that bench/commands.py still passes: the only
    # family, and an alias of --out
    p.add_argument("--family", choices=["rnc"], default=argparse.SUPPRESS,
                   help=argparse.SUPPRESS)
    p.add_argument("--emit", dest="out", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args._started = time.time()
    try:
        return args.func(args)
    except ExpectationFailed as exc:
        print(f"verdict: {exc}", file=sys.stderr)
        return 1
    except CLIUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, igusa.EvaluationError) as exc:
        # past parsing, a ValueError from a layer is an internal fault
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
