"""The package names the benchmark wraps still exist.

``perfbench`` times ``verify`` checks by wrapping package functions named
in ``workloads.VERIFY_CALLS``, and traces layers named in
``tracer.TARGETS``; a renamed target would otherwise fail only when the
benchmark runs.  Installing the verify tracer here makes it fail the
test suite instead, and checks that uninstalling restores every name;
every traced layer must resolve to a callable.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from tracer import TARGETS, Tracer  # noqa: E402
from workloads import VERIFY_CALLS  # noqa: E402

from biquo import checks, invariants, nodal  # noqa: E402


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_verify_tracer_installs_and_uninstalls():
    tracer = Tracer(VERIFY_CALLS)
    with tracer.installed():
        originals = {}
        for name, module_name, path in VERIFY_CALLS:
            wrapper = _resolve(module_name, path)
            assert hasattr(wrapper, "__wrapped__"), name
            originals[name] = wrapper.__wrapped__
        # the aliases bound by ``from .x import name`` are wrapped too
        assert checks.rank_one_elements is invariants.rank_one_elements
        assert nodal.rational_roots.__wrapped__ is originals["roots"]
        checks.rank_one_elements(invariants.t3_kernel_system(1, 5, 2))
    names = [span[0] for span in tracer.spans]
    assert names[0] == "rank_one" and "roots" in names
    for name, module_name, path in VERIFY_CALLS:
        assert _resolve(module_name, path) is originals[name], name
    assert nodal.rational_roots is originals["roots"]


def test_tracer_targets_resolve():
    for name, module_name, path in TARGETS:
        importlib.import_module(module_name)
        assert callable(_resolve(module_name, path)), name
