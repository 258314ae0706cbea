"""The benchmark's tracer patches functions of the program by name; a
renamed function must fail here, not only in the benchmark's own smoke run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return [(module_name, attr)
            for module_name, attr, *_ in _tracing().TARGETS]


@pytest.mark.parametrize("module_name, attr", _targets())
def test_trace_target_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_coarse_to_fine_solve_is_one_span(sphere3):
    # the coarser levels of a level-3 solve run below the public solve, so
    # the tracer sees one solve and counts its systems once
    from pspectra import SolveOptions, psolve
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = psolve.solve_closed(sphere3, np.ones(sphere3.n_vertices),
                                  SolveOptions(p=1.5))
    finally:
        tracer.uninstall()
    solves = [s for s in tracer.spans if s["name"] == "psolve.solve"]
    assert len(solves) == 1
    assert solves[0]["attrs"]["iterations"] == res.iterations > 0
    assert tracing.self_check(tracer.spans, tracer.returned_iterations,
                              []) == []


def test_dirichlet_scaling_integrates_once(tmp_path):
    # the oracle's own integrator runs no nested solve_ivp, so one command
    # is one ode_integration span, inside the one oracle span
    import json
    from pspectra import cli
    tracing = _tracing()
    cfg = tmp_path / "d.json"
    cfg.write_text(json.dumps({"p": 3.0, "eps": [1.0, 0.5, 0.25], "n": 20,
                               "seed": 0}))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cli.main(["dirichlet-scaling", "--config", str(cfg),
                  "--out", str(tmp_path / "out")], standalone_mode=False)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    integrations = [s for s in spans if s["name"] == "psolve.ode_integration"]
    oracles = [i for i, s in enumerate(spans) if s["name"] == "psolve.oracle"]
    assert len(integrations) == 1 and len(oracles) == 1
    assert integrations[0]["parent"] == oracles[0]
    assert tracing.layer_metrics(spans)["psolve.ode_integrations"][0] == 1
