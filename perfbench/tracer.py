"""Span tracer that wraps the package's layer functions from outside.

Each target is wrapped once, and every name in a ``biquo`` module that is
bound to the original object (for example ``cube_class_mod_q`` bound by
``from .arith import ...`` in ``invariants`` and ``checks``) is rebound to
the wrapper, so calls through any import path are counted.  Methods are
wrapped on their class, which every caller reaches by attribute lookup.

Spans stay in memory with a link to their parent span and are written
out only when the caller asks.  A span's self time is its duration minus
the durations of its direct child spans.  For hot tiny functions
(``HomPoly.new``, ``Gaussian.div``) the call count is exact but the self
time includes the wrapper's own cost.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

# (metric name, module, attribute path); ``new`` is the constructor and
# ``mul``/``div`` the operators.
TARGETS = (
    ("arith.factor", "biquo.arith", "factor"),
    ("arith.gaussian_factor", "biquo.arith", "gaussian_factor"),
    ("arith.cube_class_mod_q", "biquo.arith", "cube_class_mod_q"),
    ("arith.square_class", "biquo.arith", "square_class"),
    ("arith.split_prime_rep", "biquo.arith", "split_prime_rep"),
    ("arith.Gaussian.div", "biquo.arith", "Gaussian.__truediv__"),
    ("poly.HomPoly.new", "biquo.poly", "HomPoly.__init__"),
    ("poly.HomPoly.mul", "biquo.poly", "HomPoly.__mul__"),
    ("poly.HomPoly.substitute", "biquo.poly", "HomPoly.substitute"),
    ("univar.up_factor", "biquo.univar", "up_factor"),
    ("univar.rational_roots", "biquo.univar", "rational_roots"),
    ("linalg.rref", "biquo.linalg", "rref"),
    ("linalg.det", "biquo.linalg", "det"),
    ("linalg.solve", "biquo.linalg", "solve"),
    ("linalg.kernel_basis", "biquo.linalg", "kernel_basis"),
    ("linalg.QuotientSpace.new", "biquo.linalg", "QuotientSpace.__init__"),
    ("linalg.QuotientSpace.coords", "biquo.linalg", "QuotientSpace.coords"),
    ("graded.GradedQuotient.piece", "biquo.graded", "GradedQuotient.piece"),
    ("graded.square_map_kernel", "biquo.graded", "square_map_kernel"),
    ("graded.QuadricSystem.new", "biquo.graded", "QuadricSystem.__init__"),
    ("biquotient.quotient_ring", "biquo.biquotient", "quotient_ring"),
    ("biquotient.KleinRing.trilinear", "biquo.biquotient", "KleinRing.trilinear"),
    ("biquotient.circle_bundle_degree4", "biquo.biquotient", "circle_bundle_degree4"),
    ("nodal.det_cubic", "biquo.nodal", "det_cubic"),
    ("nodal.singular_points", "biquo.nodal", "singular_points"),
    ("nodal.inflection_lines", "biquo.nodal", "inflection_lines"),
    ("nodal.resultant_in_var", "biquo.nodal", "resultant_in_var"),
    ("invariants.t1_invariant_from_net", "biquo.invariants", "t1_invariant_from_net"),
    ("invariants.t2_quadratic_form", "biquo.invariants", "t2_quadratic_form"),
    ("invariants.t2_det_class", "biquo.invariants", "t2_det_class"),
    ("invariants.t3_membership_quadratic", "biquo.invariants", "t3_membership_quadratic"),
    ("invariants.rank_one_elements", "biquo.invariants", "rank_one_elements"),
    ("oracles.numeric_inflection_roots", "biquo.oracles", "numeric_inflection_roots"),
    ("oracles.numeric_rank_one_roots", "biquo.oracles", "numeric_rank_one_roots"),
    ("report.scan", "biquo.report", "scan"),
)

# Reported as a call count only: the wrapper costs about as much as the call.
CALLS_ONLY = ("arith.Gaussian.div",)

# Spans of this function that have child spans built a piece; the others
# were answered from the ring's cache.
PIECE = "graded.GradedQuotient.piece"


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for name, _, _ in TARGETS:
        names.append(f"{name}.calls")
        if name not in CALLS_ONLY:
            names.append(f"{name}.self_s")
    return names + ["linalg.rref_per_quotient", "arith.div_per_cube_class"]


class Tracer:
    """Records one span per call of each target while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        # span: [name, parent index, request, start ns, end ns]
        self.spans: list[list] = []
        self.request = ""
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1], self.request, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target and rebind every module-level alias of it."""
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "biquo" or key.startswith("biquo."))
        ]
        for name, module_name, path in self.targets:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            self._set(owner, attr, wrapper)
            if owner_path:
                continue  # a method: callers reach it through the class
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, alias, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    def summary(self) -> dict[str, float]:
        """Per-layer metrics over all spans recorded so far (default targets)."""
        calls = {name: 0 for name, _, _ in TARGETS}
        self_ns = {name: 0 for name, _, _ in TARGETS}
        has_child = [False] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            calls[name] += 1
            self_ns[name] += end - start
            if parent >= 0:
                has_child[parent] = True
                self_ns[self.spans[parent][0]] -= end - start
        out: dict[str, float] = {}
        for name, _, _ in TARGETS:
            out[f"{name}.calls"] = calls[name]
            if name not in CALLS_ONLY:
                out[f"{name}.self_s"] = self_ns[name] / 1e9
        pieces_built = sum(
            1 for span, child in zip(self.spans, has_child)
            if child and span[0] == PIECE
        )
        quotients = pieces_built + calls["linalg.QuotientSpace.new"]
        out["linalg.rref_per_quotient"] = (
            calls["linalg.rref"] / quotients if quotients else 0.0
        )
        cube = calls["arith.cube_class_mod_q"]
        out["arith.div_per_cube_class"] = (
            calls["arith.Gaussian.div"] / cube if cube else 0.0
        )
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: id, parent, request, name, start, end."""
        with open(path, "w") as fh:
            for i, (name, parent, request, start, end) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, request, name, start, end]) + "\n")
