"""Package surface: exported names and import cost."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import stabpair

MODULES = sorted(m.name for m in pkgutil.iter_modules(stabpair.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"stabpair.{name}")
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"stabpair.{name}.__all__ names missing {export!r}"


def _loaded_after(code: str, modules: tuple) -> list:
    """Which of `modules` a fresh interpreter has imported after running `code`."""
    env = dict(os.environ)
    src = str(Path(stabpair.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code += f"\nimport sys; print(*[m for m in {modules!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.split()


def test_cli_import_leaves_out_the_optimizer():
    # scipy.optimize (the optimizers) is imported on first use, not at
    # start-up; nothing in the library imports scipy.special
    assert _loaded_after("import stabpair.cli", ("scipy.optimize", "scipy.special")) == []


def test_exact_verdicts_leave_out_scipy_hulls_and_optimizers():
    # the exact kernel needs neither Qhull nor an LP solver; importing
    # scipy.spatial alone costs about 38 MB of resident memory
    code = ("from stabpair import pairstab, varieties\n"
            "pair = varieties.normalized_pair(varieties.rnc_example(2))\n"
            "pairstab.semistable_probe(pair, trials=2)\n"
            "pairstab.stable_search(pair, q=4, m_max=3, probe_trials=1)")
    assert _loaded_after(code, ("scipy.spatial", "scipy.optimize")) == []


def test_benchmark_set_up_forms_leave_out_scipy():
    # the forms the benchmark builds before it times anything; importing
    # scipy.special alone would add a large share of that set-up
    code = ("from stabpair import polyrep, varieties\n"
            "polyrep.determinant_poly(3)\n"
            "varieties.rnc_hyperdiscriminant(5), varieties.rnc_resultant(4)\n"
            "varieties.rnc_hyperdiscriminant(12), varieties.rnc_hyperdiscriminant(24)\n"
            "for d in (2, 3, 4):\n"
            "    varieties.normalized_pair(varieties.rnc_example(d))")
    assert _loaded_after(code, ("scipy",)) == []


def test_heights_leave_out_scipy():
    # heights, zetas and the discrepancy table take log Gamma and digamma
    # from igusa itself; importing scipy.special would add about 16 MB to the
    # peak memory of `stabpair height`
    code = ("from stabpair import igusa, polyrep, varieties\n"
            "igusa.height(polyrep.determinant_poly(3), samples=2000)\n"
            "igusa.height(varieties.rnc_hyperdiscriminant(12), samples=2000)\n"
            "igusa.height(polyrep.monomial(polyrep.MatrixShape(2, 3), ((2, 0, 1), (0, 1, 0))))\n"
            "igusa.zeta(polyrep.determinant_poly(2), 1.0, samples=2000)\n"
            "igusa.zeta_prime_zero(polyrep.determinant_poly(2), samples=2000)\n"
            "igusa.height_det_closed(3)\n"
            "varieties.discrepancy_table((4, 5), samples=2000)")
    assert _loaded_after(code, ("scipy",)) == []
