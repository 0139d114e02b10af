"""Command-line surface: parsing, artifacts, manifests, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stabpair
from stabpair.cli import main, parse_pair_spec, parse_poly_spec, parse_sigma_spec
from stabpair.polyrep import SparsePolynomial, poly_to_json


def run(args):
    return main(args)


# -- spec parsing ------------------------------------------------------------------

def test_parse_builtin_specs():
    disc = parse_poly_spec("disc:2")
    assert disc.terms == {((0, 2, 0),): 1, ((1, 0, 1),): -4}
    det = parse_poly_spec("det:2")
    assert det.degree == 2 and det.shape == (2, 2)
    mono = parse_poly_spec("monomial:1,0,2")
    assert mono.degree == 3 and mono.shape == (1, 3)
    matrix_mono = parse_poly_spec("monomial:1,0;0,1")
    assert matrix_mono.shape == (2, 2)


def test_parse_poly_json_roundtrip(tmp_path):
    p = parse_poly_spec("disc:3")
    f = tmp_path / "poly.json"
    f.write_text(poly_to_json(p), encoding="utf-8")
    q = parse_poly_spec(str(f))
    assert isinstance(q, SparsePolynomial) and q.degree == p.degree


def test_parse_errors_are_usage_errors():
    from stabpair.cli import CLIUsageError

    for bad in ("bogus:3", "det:x", "no-such-file.json", "monomial:1,a"):
        with pytest.raises(CLIUsageError):
            parse_poly_spec(bad)
    with pytest.raises(CLIUsageError):
        parse_pair_spec("v=disc:2")
    with pytest.raises(CLIUsageError):
        parse_sigma_spec("diag:1,2", 3)


def test_parse_sigma_forms():
    s = parse_sigma_spec("diag:2,0.5", 2)
    assert s.matrix[0, 0] == 2
    r = parse_sigma_spec("ray:1,-1:0.1", 2)
    assert r.matrix[0, 0] == pytest.approx(0.1)
    assert r.matrix[1, 1] == pytest.approx(10.0)


# -- subcommands --------------------------------------------------------------------

def test_polytope_command(tmp_path, capsys):
    out = tmp_path / "wp.json"
    assert run(["polytope", "--poly", "disc:2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert sorted(payload["vertices"]) == sorted(
        [["-2/3", "4/3", "-2/3"], ["1/3", "-2/3", "1/3"]])
    manifest = json.loads((tmp_path / "wp.json.manifest.json").read_text())
    assert manifest["subcommand"] == "polytope"
    assert manifest["flags"] == {"out": str(out), "poly": "disc:2"}
    assert "wp.json" in manifest["outputs"]


def test_semistable_command_certified(tmp_path):
    out = tmp_path / "verdict.json"
    code = run(["semistable", "--pair", "v=disc:2,w=disc:2", "--trials", "5",
                "--seed", "1", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["status"].startswith("semistable-certified")
    assert payload["witness"] is None


def test_semistable_expect_mismatch_exits_one(tmp_path):
    out = tmp_path / "verdict.json"
    code = run(["semistable", "--pair", "v=monomial:2,0,w=monomial:1,1",
                "--trials", "3", "--expect", "semistable", "--out", str(out)])
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["status"] == "destabilized"
    assert payload["witness"]["one_ps"] is not None
    assert "reverify_hash" in payload


def test_stable_search_command(capsys):
    code = run(["stable-search", "--pair",
                "v=monomial:1,1,w=monomial:1,1", "--q", "1", "--m-max", "5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    # N(w) is a point at the origin: the q-simplex never fits inside
    assert payload["exponent"] is None


def test_energy_command(capsys):
    code = run(["energy", "--pair", "v=disc:2,w=disc:2",
                "--sigma", "diag:2,1,0.5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["nu"] == pytest.approx(0.0, abs=1e-12)
    assert payload["components"]["trace_term"] == pytest.approx(
        math.log((4 + 1 + 0.25) / 3))


def test_energy_scan_csv(tmp_path):
    out = tmp_path / "scan.csv"
    code = run(["energy-scan", "--pair", "v=monomial:1,1,w=disc:2"
                .replace("1,1", "1,1,0"), "--rays", "2", "--points", "5",
                "--seed", "3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "ray,exponents,t,nu,j"
    assert len(lines) == 2 + 2 * 5


def test_energy_scan_formal_powers_scale_linearly(capsys):
    def rows(pair):
        assert run(["energy-scan", "--pair", pair, "--rays", "1", "--points", "2",
                    "--seed", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[2:]
        return [[float(x) for x in line.split(",")[3:]] for line in lines]

    squared = rows("v=res:2^2,w=disc:2^2")
    plain = rows("v=res:2,w=disc:2")
    assert len(squared) == 2
    assert squared == [[2 * nu, 2 * j] for nu, j in plain]


def test_zeta_command_det_closed_forms(tmp_path):
    # det:1 lives on the 1x1 space: D = 1, so Z(det_1; 1) = Gamma(1)/Gamma(2) = 1
    out = tmp_path / "zeta.json"
    code = run(["zeta", "--poly", "det:1", "--s", "1", "--samples", "20000",
                "--seed", "7", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["closed_form"]["standard"] == pytest.approx(1.0)
    assert payload["closed_form"]["paper"] == pytest.approx(1.0 / math.pi)
    assert "convention_note" in payload
    assert abs(payload["value"] - 1.0) < 5 * payload["stderr"]


def test_height_command_with_audit(capsys):
    code = run(["height", "--poly", "monomial:1,0", "--samples", "1000",
                "--audit-bounds"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "closed-form"
    assert payload["h"] == pytest.approx(math.log(2) - 1)
    assert payload["bounds"]["upper"] == 0.0


def test_degeneration_csv(tmp_path):
    out = tmp_path / "degen.csv"
    code = run(["degeneration", "--d-range", "10:12", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1] == "d,hF_limit,hDelta_limit,delta,delta_over_d2"
    assert len(lines) == 2 + 3
    code2 = run(["degeneration", "--d-range", "10:12", "--convention", "paper",
                 "--out", str(out)])
    assert code2 == 0


def test_discrepancy_csv_and_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["discrepancy", "--d", "2:3", "--samples", "20000", "--seed", "5"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b), "--threads", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["flags"]["d"] == "2:3"
    assert manifest["outputs"]["a.csv"] == json.loads(
        (tmp_path / "b.csv.manifest.json").read_text())["outputs"]["b.csv"]


def test_variety_emit(tmp_path):
    out = tmp_path / "conic.json"
    assert run(["variety", "--d", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["deg_R"] == 4 and payload["deg_Delta"] == 2
    assert payload["R_X"]["degree"] == 4
    manifest = json.loads((tmp_path / "conic.json.manifest.json").read_text())
    assert manifest["flags"] == {"d": 2, "out": str(out)}
    assert run(["variety", "--d", "6", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["R_X"]["blackbox"].startswith("rnc-resultant")


def test_format_flag(tmp_path, capsys):
    # scalar report as one-row CSV
    code = run(["height", "--poly", "monomial:2,0", "--samples", "1000",
                "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("#") and "h" in lines[1].split(",")
    # table as JSON rows
    code = run(["degeneration", "--d-range", "5:6", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["columns"][0] == "d"
    assert len(payload["rows"]) == 2


def test_formal_power_spec_and_normalized_pair():
    from stabpair.polyrep import FormalPower

    fp = parse_poly_spec("disc:2^4")
    assert isinstance(fp, FormalPower) and fp.exponent == 4
    # the raw conic pair is destabilized but the degree-normalized one is
    # certified on the diagonal torus
    import json as _json
    import io
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(["semistable", "--pair", "v=res:2,w=disc:2",
                    "--trials", "1"]) == 0
    assert _json.loads(buf.getvalue())["status"] == "destabilized"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(["semistable", "--pair", "v=res:2^2,w=disc:2^4",
                    "--trials", "10", "--seed", "2"]) == 0
    assert _json.loads(buf.getvalue())["status"].startswith("semistable-certified")


def test_variety_emit_alias(tmp_path, capsys):
    # --family rnc and --emit still parse, but help no longer lists them
    out = tmp_path / "alias.json"
    assert run(["variety", "--family", "rnc", "--d", "2", "--emit", str(out)]) == 0
    assert json.loads(out.read_text())["deg_R"] == 4
    assert run(["variety", "--help"]) == 0
    usage = capsys.readouterr().out
    assert "--out" in usage and "--emit" not in usage and "--family" not in usage


def test_csv_cells_never_leak_numpy_reprs():
    import numpy as np

    from stabpair.cli import _csv_cell

    assert _csv_cell(np.float64(1.5)) == "1.5"
    assert _csv_cell(0.1) == "0.1"
    assert _csv_cell(7) == "7"


def test_overflow_in_height_exits_three(capsys):
    # the delta-method variance overflows at this degree
    assert run(["height", "--poly", "disc:24", "--samples", "2000", "--seed", "7"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: OverflowError") and "Traceback" not in err


def test_non_finite_payload_exits_three_and_names_key(capsys):
    assert run(["height", "--poly", "disc:40", "--samples", "2000", "--seed", "7"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite" in captured.err and "'h'" in captured.err


@pytest.mark.parametrize("degree", [24, 40])
def test_overflow_error_output_carries_no_numpy_warning(degree):
    # run as a fresh process, where no test runner captures the warnings
    env = dict(os.environ, PYTHONWARNINGS="default")
    src = str(Path(stabpair.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "stabpair.cli", "height", "--poly", f"disc:{degree}",
         "--samples", "2000", "--seed", "7"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: OverflowError")
    assert "RuntimeWarning" not in proc.stderr


def test_usage_errors_exit_two(capsys):
    assert run(["zeta", "--poly", "bogus:1", "--s", "1"]) == 2
    assert run(["zeta", "--poly", "disc:1", "--s", "1"]) == 2  # family needs d >= 2
    assert run(["degeneration", "--d-range", "x:y"]) == 2
    assert run(["discrepancy", "--family", "rnc", "--d", "2"]) == 2  # flag removed
    assert run(["discrepancy", "--d", "1:3"]) == 2
    assert run(["not-a-command"]) == 2
    assert run(["semistable", "--pair", "v=disc:2,w=disc:2", "--trials", "0"]) == 2
    assert run(["energy", "--pair", "v=res:2,w=disc:3", "--sigma", "diag:1,1,1"]) == 2
    assert run(["energy", "--pair", "v=res:2,w=disc:2", "--sigma", "diag:0,1,1"]) == 2
    assert run(["energy", "--pair", "v=res:2,w=disc:2", "--sigma", "diag:1,1"]) == 2
    assert run(["zeta", "--poly", "det:2", "--s", "-1"]) == 2
    assert run(["zeta", "--poly", "disc:2^2", "--s", "1"]) == 2
    assert run(["height", "--poly", "monomial:1,-1"]) == 2
    assert run(["variety", "--d", "1"]) == 2
    assert run(["height", "--poly", "disc:3", "--threads", "-3"]) == 2
    assert run(["height", "--poly", "disc:3", "--threads", "0"]) == 2


def test_internal_value_error_exits_three(monkeypatch, capsys):
    from stabpair import pairstab

    def broken(poly):
        raise ValueError("planted internal fault")

    monkeypatch.setattr(pairstab, "weight_polytope", broken)
    assert run(["polytope", "--poly", "disc:2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: planted internal fault")
    assert "Traceback" not in err
