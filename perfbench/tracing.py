"""Outside-in tracing of the pspectra layers.

The tracer replaces public functions of the package with wrappers that
record a span (name, start, end, parent, attributes) per call. Every module
attribute bound to a wrapped function is patched, so calls through
``from .psolve import solve_closed`` style bindings are seen too. Spans are
kept in memory; ``write`` stores them as JSON lines and ``layer_metrics``
turns a span list into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from time import perf_counter


def _solve_attrs(args, result):
    return {"iterations": int(result.iterations),
            "vertices": int(args[0].n_vertices)}


def _balance_attrs(args, result):
    return {"evaluations": int(result.evaluations)}


# (module, function, span name, attributes taken from the call's result)
TARGETS = [
    ("pspectra.mesh", "build_icosphere", "mesh.build", None),
    ("pspectra.mesh", "build_interval", "mesh.build", None),
    ("pspectra.mesh", "extract_hemisphere", "mesh.build", None),
    ("pspectra.psolve", "mirror_index", "mesh.mirror_index", None),
    ("pspectra.conformal", "random_smooth_factor", "conformal.factor", None),
    ("pspectra.conformal", "cap_density", "conformal.factor", None),
    ("pspectra.conformal", "normalize_unit_volume", "conformal.factor", None),
    ("pspectra.psolve", "solve_closed", "psolve.solve", _solve_attrs),
    ("pspectra.psolve", "solve_neumann", "psolve.solve", _solve_attrs),
    ("pspectra.psolve", "solve_dirichlet", "psolve.solve", _solve_attrs),
    ("pspectra.psolve", "p_shift", "psolve.p_shift", None),
    ("pspectra.psolve", "rayleigh_quotient", "psolve.quotient", None),
    ("pspectra.psolve", "shooting_eigenvalue_1d", "psolve.oracle", None),
    ("pspectra.psolve", "solve_ivp", "psolve.ode_integration", None),
    ("pspectra.mobius", "balance", "mobius.balance", _balance_attrs),
    ("pspectra.mobius", "moment_vector", "mobius.moment_vector", None),
    ("pspectra.mobius", "balanced_energy_bound", "mobius.energy_bound", None),
    ("pspectra.bounds", "verify_bound", "bounds.verify", None),
]


class Tracer:
    """Span recorder with install/uninstall of the function wrappers."""

    def __init__(self):
        self.spans = []
        self.returned_iterations = 0
        self._stack = []
        self._patches = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = {"name": name, "start": 0.0, "end": 0.0, "parent": parent,
                "attrs": {}}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = perf_counter()
        return span

    def _close(self, span):
        span["end"] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, **attrs):
        span = self._open(name)
        span["attrs"].update(attrs)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name, attrs_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs_of is not None:
                span["attrs"].update(attrs_of(args, result))
                self.returned_iterations += span["attrs"].get("iterations", 0)
            return result
        return traced

    def install(self):
        """Wrap every target at every binding inside the loaded package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pspectra"
                                         or n.startswith("pspectra."))]
        for module_name, attr, name, attrs_of in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name, attrs_of)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans):
    """Per-layer times and counts from a span list.

    A layer's time sums the spans of that name that have no ancestor of the
    same name, so a public function that reaches itself through another
    binding is not counted twice; self time is a span's duration minus its
    direct children.
    """
    children_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            children_time[span["parent"]] += span["end"] - span["start"]

    def outermost(span):
        parent = span["parent"]
        while parent is not None:
            if spans[parent]["name"] == span["name"]:
                return False
            parent = spans[parent]["parent"]
        return True

    total = {}
    self_time = {}
    calls = {}
    for i, span in enumerate(spans):
        name = span["name"]
        dur = span["end"] - span["start"]
        calls[name] = calls.get(name, 0) + 1
        if outermost(span):
            total[name] = total.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur - children_time[i]

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)

    def ratio(a, b):
        return a / b if b else 0.0

    iterations = attr_sum("psolve.solve", "iterations")
    vertex_iterations = sum(s["attrs"]["iterations"] * s["attrs"]["vertices"]
                            for s in spans if s["name"] == "psolve.solve")
    descent = self_time.get("psolve.solve", 0.0)
    oracle = total.get("psolve.oracle", 0.0)
    integrations = calls.get("psolve.ode_integration", 0)
    balance = total.get("mobius.balance", 0.0)
    evaluations = attr_sum("mobius.balance", "evaluations")
    return {
        "mesh.build_s": (total.get("mesh.build", 0.0), "s"),
        "mesh.build_calls": (calls.get("mesh.build", 0), "count"),
        "mesh.mirror_index_s": (total.get("mesh.mirror_index", 0.0), "s"),
        "conformal.factor_s": (total.get("conformal.factor", 0.0), "s"),
        "psolve.solve_calls": (calls.get("psolve.solve", 0), "count"),
        "psolve.descent_self_s": (descent, "s"),
        "psolve.iterations": (iterations, "count"),
        "psolve.s_per_iteration": (ratio(descent, iterations), "s"),
        "psolve.vertex_iterations": (vertex_iterations, "count"),
        "psolve.p_shift_s": (total.get("psolve.p_shift", 0.0), "s"),
        "psolve.p_shift_calls": (calls.get("psolve.p_shift", 0), "count"),
        "psolve.oracle_s": (oracle, "s"),
        "psolve.ode_integrations": (integrations, "count"),
        "psolve.s_per_integration": (ratio(oracle, integrations), "s"),
        "mobius.balance_s": (balance, "s"),
        "mobius.evaluations": (evaluations, "count"),
        "mobius.moment_vector_calls": (calls.get("mobius.moment_vector", 0),
                                       "count"),
        "mobius.s_per_evaluation": (ratio(balance, evaluations), "s"),
        "bounds.self_s": (self_time.get("bounds.verify", 0.0), "s"),
        "cli.self_s": (self_time.get("cli.command", 0.0), "s"),
        "cli.bytes_written": (attr_sum("cli.command", "bytes_written"),
                              "bytes"),
    }


def self_check(spans, returned_iterations, balance_evaluations):
    """Cross-check a trace read back from disk against the program's counts.

    ``returned_iterations`` is the running sum of ``iterations`` over the
    results the solves returned; ``balance_evaluations`` are the counts the
    balance command wrote to its results.json. Returns a list of problems.
    """
    problems = []
    metrics = layer_metrics(spans)
    traced = metrics["psolve.iterations"][0]
    if traced != returned_iterations:
        problems.append(f"psolve.iterations {traced} != {returned_iterations}"
                        " summed over the returned results")
    bounds = sum(1 for s in spans if s["name"] == "mobius.energy_bound")
    expected = sum(balance_evaluations) + bounds
    calls = metrics["mobius.moment_vector_calls"][0]
    if calls != expected:
        problems.append(f"mobius.moment_vector_calls {calls} != {expected}"
                        " (evaluations written plus one per energy bound)")
    return problems
