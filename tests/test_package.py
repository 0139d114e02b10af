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


def test_cli_import_leaves_out_the_optimizer():
    # scipy.optimize (the optimizers) and scipy.special (the gamma functions)
    # are imported on first use, not at start-up
    env = dict(os.environ)
    src = str(Path(stabpair.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    lazy = ("scipy.optimize", "scipy.special")
    code = f"import sys, stabpair.cli; print([m in sys.modules for m in {lazy!r}])"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[False, False]"
