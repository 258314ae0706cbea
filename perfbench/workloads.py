"""Workload definitions: generated CLI configs and the checks on their outputs.

A workload is a fixed list of ``pspectra`` commands. The workload seed only
generates the configs; the program receives nothing but those files.
``smoke=True`` shrinks every mesh (level-2 icosphere, 20-segment interval)
for the harness test.

The solve work is chaotic in the inputs: a 2% change of the random
factors' amplitude moved the iteration total of the six random
verify-bound solves by up to 24%. So the seed only draws inputs that leave
the work nearly unchanged: the config ``seed`` key where the solver does
not use it (one start, no random starts), the sign of each coordinate of
the cap directions (an exact symmetry of the icosphere, which still moves a
balance solve's iterations by a few percent through rounding), and which
of the two equal closed-form bounds verify-bound checks on the sphere. The
factors themselves are fixed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# The options verify-bound hard-codes for its solves.
BOUND_SOLVER = {"multistart": 1, "tolerance": 1e-6, "residual_target": 1e-3}


@dataclass
class Command:
    """One CLI invocation: command name, its config, and the output check.

    ``check`` gets the output directory and returns a list of problems
    (empty when the outputs are correct).
    """

    name: str
    command: str
    config: dict
    check: Callable[[Path], list]


def _results(outdir):
    return json.loads((outdir / "results.json").read_text())


def _rows(outdir):
    with open(outdir / "rows.csv") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _check_bound(p):
    def check(outdir):
        problems = []
        reports = _results(outdir)["reports"]
        rows = _rows(outdir)
        if len(rows) != len(reports):
            problems.append("rows.csv and results.json disagree on cases")
        for i, r in enumerate(reports):
            if not r["passed"]:
                problems.append(f"case {i} exceeds the bound")
        # criterion 05: the round sphere nearly attains 8 pi at p = 2
        ratio = reports[0]["computed_lambda"] / (8.0 * math.pi)
        if p == 2.0 and ratio < 0.95:
            problems.append(f"round-sphere ratio {ratio:.4f} < 0.95")
        return problems
    return check


def _check_dirichlet(outdir):
    problems = []
    res = _results(outdir)
    if not res["fem_constant_1e6"]:
        problems.append("FEM scaled column not constant within 1e-6")
    if not res["oracle_constant_1e9"]:
        problems.append("oracle scaled column not constant within 1e-9")
    for row in _rows(outdir):
        rel = abs(float(row["lambda_fem"]) / float(row["lambda_oracle"]) - 1.0)
        # criterion 01's FEM tolerance against the continuum value
        if rel > 5e-3:
            problems.append(f"eps {row['eps']}: FEM off the oracle by {rel:.2e}")
    return problems


def _check_flag(key):
    def check(outdir):
        return [] if _results(outdir)[key] else [f"{key} is false"]
    return check


def _rng(seed):
    return np.random.default_rng(seed % 2**63)  # any integer seed


def _seed_key(rng):
    return int(rng.integers(0, 1_000_000))


def sphere_bound(seed, smoke=False):
    """verify-bound on the level-5 icosphere, the round factor plus three
    random ones (factor seeds 0, 1, 2), at p = 2 and p = 1.5."""
    rng = _rng(seed)
    cmds = []
    for p in (2.0, 1.5):
        # genus 0: the genus bound equals the conformal-volume bound
        cfg = {"mesh": {"kind": "icosphere", "level": 2 if smoke else 5},
               "p": p, "n_factors": 3, "amplitude": 1.0, "seed": 0,
               "source": str(rng.choice(["conformal_volume",
                                         "genus_surface"]))}
        cmds.append(Command(f"verify-bound-p{p:g}", "verify-bound", cfg,
                            _check_bound(p)))
    return cmds


def interval_dirichlet(seed, smoke=False):
    """dirichlet-scaling on 200 segments at p in {1.5, 2, 3}, with the
    CLI's default (tight) solver settings."""
    rng = _rng(seed)
    n = 20 if smoke else 200
    return [Command(f"dirichlet-scaling-p{p:g}", "dirichlet-scaling",
                    {"p": p, "eps": [1.0, 0.25], "n": n,
                     "seed": _seed_key(rng)},
                    _check_dirichlet)
            for p in (1.5, 2.0, 3.0)]


# cap directions of acceptance criterion 06
CAP_DIRECTIONS = {1.7: [0.3, -0.5, 0.8], 2.0: [1.0, 0.2, 0.1]}


def sphere_balance(seed, smoke=False):
    """balance with a cap factor at p = 1.7 and p = 2, and reflect at
    p = 2.5 with a symmetric random factor, on the level-4 icosphere."""
    rng = _rng(seed)
    mesh = {"kind": "icosphere", "level": 2 if smoke else 4}
    cmds = []
    for p, direction in CAP_DIRECTIONS.items():
        signs = rng.choice([-1.0, 1.0], size=3)
        cfg = {"mesh": mesh, "p": p,
               "factor": {"kind": "cap",
                          "direction": [float(s * d) for s, d
                                        in zip(signs, direction)]},
               "solver": BOUND_SOLVER, "seed": _seed_key(rng)}
        cmds.append(Command(f"balance-p{p:g}", "balance", cfg,
                            _check_flag("bound_holds")))
    cfg = {"mesh": mesh, "p": 2.5,
           "factor": {"kind": "random_smooth", "symmetric": True, "seed": 0},
           "solver": BOUND_SOLVER, "seed": _seed_key(rng)}
    cmds.append(Command("reflect-p2.5", "reflect", cfg,
                        _check_flag("inequality_holds")))
    return cmds


WORKLOADS = {
    "sphere-bound": sphere_bound,
    "interval-dirichlet": interval_dirichlet,
    "sphere-balance": sphere_balance,
}


def write_configs(commands, directory):
    """Write one config file per command; returns their paths in order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for cmd in commands:
        path = directory / f"{cmd.name}.json"
        path.write_text(json.dumps(cmd.config, indent=2, sort_keys=True))
        paths.append(path)
    return paths
