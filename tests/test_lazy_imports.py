"""What each entry point imports, and the lazy ``biquo`` namespace.

``biquo/__init__.py`` resolves every public name from one table on first
use, and each CLI subcommand imports only the modules it runs.  Import
sets are checked in fresh interpreters, where nothing else has loaded
the package yet.  Only ``biquo.oracles`` imports numpy.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import biquo

ROOT = Path(__file__).resolve().parents[1]


def run_python(code: str) -> dict:
    """Run code in a fresh interpreter; it prints one JSON object last."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


IMPORT_SETS = """
import contextlib, io, json, sys
import biquo.cli

def loaded(names):
    return sorted(name for name in names if name in sys.modules)

out = {"cli": loaded(%(cli)r)}
with contextlib.redirect_stdout(io.StringIO()):
    biquo.cli.main(["invariant", "t1", "--b1", "6", "--c1", "8"])
    out["invariant"] = loaded(%(invariant)r)
    biquo.cli.main(["scan", "t3", "--radius", "1"])
    out["scan"] = loaded(%(scan)r)
print(json.dumps(out))
"""


def test_cli_imports_only_what_a_subcommand_runs():
    absent = {
        "cli": ["biquo.checks", "biquo.report", "biquo.invariants", "biquo.nodal",
                "multiprocessing", "numpy"],
        "invariant": ["biquo.checks", "biquo.report", "multiprocessing"],
        "scan": ["multiprocessing"],
    }
    assert run_python(IMPORT_SETS % absent) == {step: [] for step in absent}


def test_only_oracles_imports_numpy():
    importers = set()
    for path in (ROOT / "src" / "biquo").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.relative_to(ROOT / "src").as_posix())
    assert importers == {"biquo/oracles.py"}


@pytest.mark.parametrize("name", biquo.__all__)
def test_public_name_is_its_module_attribute(name):
    obj = getattr(biquo, name)
    module = sys.modules[obj.__module__]
    assert module.__name__ == f"biquo.{biquo._MODULE_OF[name]}"
    assert getattr(module, name) is obj
    # resolved on each lookup, never stored in the package
    assert name not in vars(biquo)


def test_namespace_lists_and_star_imports_every_public_name():
    assert set(biquo.__all__) <= set(dir(biquo))
    assert "__version__" in dir(biquo)
    namespace = {}
    exec("from biquo import *", namespace)
    assert all(namespace[name] is getattr(biquo, name) for name in biquo.__all__)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        biquo.nope  # noqa: B018
    # a submodule is still importable by name through the package
    from biquo import report

    assert report.scan is biquo.scan


TRACED_ROWS = """
import json, sys
sys.path.insert(0, %(perfbench)r)
import biquo.cli
from tracer import Tracer

before = sorted(name for name in sys.modules if name.startswith("biquo"))
tracer = Tracer()
with tracer.installed():
    biquo.t1_invariant(3, 5)
    biquo.t3_discriminant_class(1, 1, 3)
counts = tracer.summary()
from biquo import arith
print(json.dumps({
    "before": before,
    "counts": counts,
    "restored": not hasattr(biquo.cube_class_mod_q, "__wrapped__")
        and biquo.cube_class_mod_q is arith.cube_class_mod_q,
}))
"""


def test_benchmark_tracer_counts_modules_it_imports_itself():
    # perfbench's tracer rebinds the aliases of the modules loaded when it
    # installs; here it installs before any module the rows run is loaded
    out = run_python(TRACED_ROWS % {"perfbench": str(ROOT / "perfbench")})
    assert out["before"] == ["biquo", "biquo.cli"]
    counts = out["counts"]
    assert counts["arith.cube_class_mod_q.calls"] == 2
    assert counts["linalg.QuotientSpace.new.calls"] == 1
    assert counts["invariants.t3_membership_quadratic.calls"] == 1
    assert out["restored"]
