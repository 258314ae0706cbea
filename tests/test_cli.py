import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackError

from pspectra import (bounds, build_icosphere, cli, conformal, mobius,
                      psolve)
from pspectra.cli import _sweep_case, main


def run(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


CIRCLE = {"kind": "circle", "n": 400, "length": 2 * np.pi}


SCALE_MESHES = [
    ({"kind": "circle", "n": 20, "length": 2 * np.pi}, "closed"),
    ({"kind": "icosphere", "level": 2}, "closed"),
    ({"kind": "hemisphere", "level": 3}, "neumann")]
SCALE_MESH_IDS = ["circle", "icosphere", "hemisphere"]


@pytest.fixture()
def outdir(tmp_path):
    return tmp_path / "out"


class TestEigen:
    def test_circle_lambda_one(self, tmp_path, outdir):
        cfg = write_config(tmp_path / "c.json", {
            "mesh": CIRCLE, "p": 2.0,
            "factor": {"kind": "constant", "value": 1.0},
            "problem": "closed", "seed": 1,
        })
        result = run(["eigen", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 0, result.output
        payload = json.loads((outdir / "results.json").read_text())
        assert payload["lambda"] == pytest.approx(1.0, rel=0.01)
        assert payload["stop_reason"] == "eigensolve"
        assert (outdir / "eigenfunction.csv").exists()
        assert (outdir / "mesh.csv").exists()

    def test_sphere_lambda_two(self, tmp_path, outdir):
        cfg = write_config(tmp_path / "s.json", {
            "mesh": {"kind": "icosphere", "level": 4}, "p": 2.0,
            "factor": {"kind": "constant", "value": 1.0},
            "problem": "closed", "seed": 0,
            "solver": {"multistart": 1},
        })
        result = run(["eigen", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 0
        payload = json.loads((outdir / "results.json").read_text())
        assert payload["lambda"] == pytest.approx(2.0, rel=0.02)
        assert (outdir / "mesh.off").exists()

    def test_invalid_p_exits_one(self, tmp_path, outdir):
        cfg = write_config(tmp_path / "bad.json", {
            "mesh": CIRCLE, "p": 1.0,
            "factor": {"kind": "constant"}, "seed": 0,
        })
        result = run(["eigen", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 1

    def test_unknown_problem_exits_one(self, tmp_path, outdir):
        # the problem is checked before the factor a dirichlet one omits
        cfg = write_config(tmp_path / "bad.json", {
            "mesh": CIRCLE, "p": 2.0, "problem": "bogus"})
        result = run(["eigen", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 1
        assert "error: unknown problem 'bogus'" in result.output
        assert "Traceback" not in result.output

    def test_missing_config_exits_one(self, outdir):
        result = run(["eigen", "--config", "nope.json", "--out", str(outdir)])
        assert result.exit_code == 1

    def test_unknown_solver_key_exits_one(self, tmp_path, outdir):
        cfg = write_config(tmp_path / "bad.json", {
            "mesh": CIRCLE, "p": 2.0, "factor": {"kind": "constant"},
            "seed": 0, "solver": {"multistart": 1, "max_iters": 10},
        })
        result = run(["eigen", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 1
        assert "error: invalid solver config" in result.output
        assert "Traceback" not in result.output

    # an infinite residual_target would accept the p = 2 start as the
    # converged p = 3 result, and an infinite p would fail later with an
    # unrelated message
    @pytest.mark.parametrize("key,value,message", [
        ("p", np.inf, "p must be finite and exceed 1"),
        ("solver", {"residual_target": np.inf},
         "residual_target must be positive and finite")],
        ids=["p", "residual_target"])
    def test_infinite_solver_value_exits_one(self, tmp_path, outdir, key,
                                             value, message):
        cfg = write_config(tmp_path / "bad.json", {
            "mesh": {"kind": "circle", "n": 20, "length": 2 * np.pi},
            "p": 3.0, "factor": {"kind": "constant"}, key: value})
        result = run(["eigen", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 1
        assert f"error: {message}" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("factor,builder", [
        ({"kind": "band_plateau", "eps": 0.5},
         lambda mesh: conformal.smooth_band_plateau_factor(mesh, 0.5, 3.0)),
        ({"kind": "band_plateau", "eps": 0.5, "smooth": False},
         lambda mesh: conformal.band_plateau_factor(mesh, 0.5, 3.0)),
        ({"kind": "random_smooth", "seed": 3},
         lambda mesh: conformal.random_smooth_factor(mesh, 3))],
        ids=["smooth-band", "sharp-band", "random-smooth"])
    def test_normalized_circle_factor(self, tmp_path, outdir, factor,
                                      builder):
        cfg = write_config(tmp_path / "c.json", {
            "mesh": CIRCLE, "p": 3.0,
            "factor": {**factor, "normalize": True}})
        result = run(["eigen", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 0, result.output
        lam = json.loads((outdir / "results.json").read_text())["lambda"]
        mesh = cli.build_mesh(CIRCLE)
        f = conformal.normalize_unit_volume(mesh, builder(mesh))
        expected = psolve.solve_closed(mesh, f, psolve.SolveOptions(p=3.0))
        assert np.isfinite(lam)
        assert lam == pytest.approx(expected.lam, rel=1e-12)

    @pytest.mark.parametrize("problem,mesh", [
        ("closed", CIRCLE),
        ("dirichlet", {"kind": "interval", "n": 20, "a": -1.0, "b": 1.0})])
    def test_singular_factorization_exits_one(self, tmp_path, outdir,
                                              monkeypatch, problem, mesh):
        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(psolve, "splu", singular)
        cfg = write_config(tmp_path / "c.json", {
            "mesh": mesh, "p": 2.0, "factor": {"kind": "constant"},
            "problem": problem, "seed": 0,
        })
        result = run(["eigen", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 1
        assert ("error: p = 2 eigensolve failed: Factor is exactly singular"
                in result.output)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("mesh, problem", SCALE_MESHES,
                             ids=SCALE_MESH_IDS)
    def test_eigenvalue_scales_with_the_factor(self, tmp_path, mesh, problem,
                                               p):
        # lambda c^(p/2) is the same for every constant factor c, up to
        # round-off; at p = 3, c = 1e+-300 puts lambda out of float range
        values = [1e-300, 1e-200, 1e-100, 1.0, 1e100, 1e200, 1e300]
        lam_c = {}
        for value in values[1:-1] if p == 3.0 else values:
            out = tmp_path / f"out{value:g}"
            cfg = write_config(tmp_path / "c.json", {
                "mesh": mesh, "p": p,
                "factor": {"kind": "constant", "value": value},
                "problem": problem, "seed": 0,
            })
            result = run(["eigen", "--config", cfg, "--out", str(out)])
            assert result.exit_code == 0, result.output
            payload = json.loads((out / "results.json").read_text())
            assert payload["converged"]
            lam_c[value] = payload["lambda"] * value ** (p / 2.0)
        for value, got in lam_c.items():
            assert got == pytest.approx(lam_c[1.0], rel=1e-12), value

    @pytest.mark.parametrize("value", [1e-300, 1e300])
    @pytest.mark.parametrize("mesh, problem", SCALE_MESHES,
                             ids=SCALE_MESH_IDS)
    def test_eigenvalue_out_of_float_range_exits_one(self, tmp_path, outdir,
                                                      mesh, problem, value):
        # lambda = O(c^(-3/2)): 1e450 or 1e-450
        cfg = write_config(tmp_path / "c.json", {
            "mesh": mesh, "p": 3.0,
            "factor": {"kind": "constant", "value": value},
            "problem": problem, "seed": 0,
        })
        result = run(["eigen", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 1
        assert "error: lambda = " in result.output
        assert "Traceback" not in result.output

    def test_failed_arpack_run_exits_one(self, tmp_path, outdir,
                                         monkeypatch):
        def failing(*args, **kwargs):
            raise ArpackError(-9999)

        monkeypatch.setattr(psolve, "eigsh", failing)
        cfg = write_config(tmp_path / "c.json", {
            "mesh": {"kind": "circle", "n": 20, "length": 2 * np.pi},
            "p": 2.0, "factor": {"kind": "constant"},
            "problem": "closed", "seed": 0,
        })
        result = run(["eigen", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 1
        assert "error: p = 2 eigensolve failed: " in result.output
        assert "Traceback" not in result.output

    def test_empty_off_mesh_exits_one(self, tmp_path, outdir):
        (tmp_path / "empty.off").write_text("OFF\n0 0 0\n")
        cfg = write_config(tmp_path / "bad.json", {
            "mesh": {"kind": "off", "path": str(tmp_path / "empty.off")},
            "p": 2.0, "factor": {"kind": "constant"}, "seed": 0,
        })
        result = run(["eigen", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 1
        assert "error: OFF file has no vertices or faces" in result.output
        assert "Traceback" not in result.output


class TestSweepEps:
    def test_trend_and_outputs(self, tmp_path, outdir):
        cfg = write_config(tmp_path / "sweep.json", {
            "mesh": {"kind": "circle", "n": 1500, "length": 2 * np.pi},
            "p": 3.0, "eps": [0.4, 0.2],
            "solver": {"multistart": 1, "tolerance": 3e-6,
                       "residual_target": 1e-3, "max_iterations": 6000},
            "seed": 0,
        })
        result = run(["sweep-eps", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 0, result.output
        rows = (outdir / "rows.csv").read_text().splitlines()
        assert rows[1] == ("eps,lambda,volume,lambda_eps_scaled,"
                           "lambda_unit_volume")
        assert len(rows) == 4
        assert (outdir / "chart.svg").read_text().startswith("<svg")
        payload = json.loads((outdir / "results.json").read_text())
        assert payload["strictly_increasing"]
        assert payload["scaled_nondecreasing"]

    def test_rejects_increasing_eps(self, tmp_path, outdir):
        cfg = write_config(tmp_path / "sweep.json", {
            "mesh": CIRCLE, "p": 3.0, "eps": [0.2, 0.4], "seed": 0,
        })
        result = run(["sweep-eps", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 1

    def test_rejects_under_resolved(self, tmp_path, outdir):
        cfg = write_config(tmp_path / "sweep.json", {
            "mesh": {"kind": "circle", "n": 40, "length": 2 * np.pi},
            "p": 3.0, "eps": [0.2], "seed": 0,
        })
        result = run(["sweep-eps", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 1

    def test_rejects_eps_out_of_range(self, tmp_path, outdir):
        # a negative eps is out of range, not under-resolved
        cfg = write_config(tmp_path / "sweep.json", {
            "mesh": CIRCLE, "p": 3.0, "eps": [0.5, -0.1]})
        result = run(["sweep-eps", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 1
        assert "error: eps must lie in (0, pi/2)" in result.output

    def test_rejects_p_below_dim(self, tmp_path, outdir):
        cfg = write_config(tmp_path / "sweep.json", {
            "mesh": {"kind": "icosphere", "level": 4}, "p": 1.5,
            "eps": [0.5], "seed": 0,
        })
        result = run(["sweep-eps", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 1

    def test_sphere_case_reaches_low_branch(self):
        # a field of quotient 10.55 exists; the descent from the band ramp
        # stopped at 61.04 and reported converged
        opts = psolve.SolveOptions(p=3.0, residual_target=1e-3,
                                   max_iterations=4000)
        mesh = cli.build_mesh({"kind": "icosphere", "level": 4})
        row = _sweep_case(mesh, 0.5, opts, None)
        assert row["lambda"] <= 10.6
        assert row["converged"]

    def test_builds_one_mesh(self, tmp_path, outdir, monkeypatch):
        calls = []
        build_circle = cli.mesh_mod.build_circle

        def counted(*args):
            calls.append(args)
            return build_circle(*args)
        monkeypatch.setattr(cli.mesh_mod, "build_circle", counted)
        cfg = write_config(tmp_path / "sweep.json", {
            "mesh": {"kind": "circle", "n": 200, "length": 2 * np.pi},
            "p": 3.0, "eps": [0.4, 0.3, 0.2]})
        result = run(["sweep-eps", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 0, result.output
        assert len(calls) == 1

    def test_shared_mesh_keeps_bits(self):
        # each case reuses the layouts, dissection order and coarse chain
        # that the cases before it cached on the mesh
        spec = {"kind": "icosphere", "level": 3}
        opts = psolve.SolveOptions(p=3.0, residual_target=1e-3,
                                   max_iterations=4000)
        eps_list = [1.0, 0.85, 0.7]

        def chain(meshes):
            warm, lams = None, []
            for mesh, eps in zip(meshes, eps_list):
                row = _sweep_case(mesh, eps, opts, warm)
                warm = row["eigenfunction"]
                lams.append(row["lambda"].hex())
            return lams
        shared = cli.build_mesh(spec)
        assert (chain([shared] * len(eps_list))
                == chain([cli.build_mesh(spec) for _ in eps_list]))


class TestVerifyBound:
    def test_small_batch_passes(self, tmp_path, outdir):
        cfg = write_config(tmp_path / "vb.json", {
            "mesh": {"kind": "icosphere", "level": 3}, "p": 2.0,
            "n_factors": 2, "amplitude": 0.8, "seed": 0,
        })
        result = run(["verify-bound", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 0, result.output
        rows = (outdir / "rows.csv").read_text().splitlines()
        assert rows[1] == "case,bound_value,computed_lambda,slack,passed"
        assert len(rows) == 5  # header + round + 2 factors... plus comment
        payload = json.loads((outdir / "results.json").read_text())
        assert payload["all_passed"]

    def test_p2_batch_factors_the_stiffness_once(self, tmp_path, outdir,
                                                  monkeypatch):
        # at p = 2 the sphere's bordered stiffness is the same for every
        # factor; the round case factors it and the three others reuse it
        splu, calls = psolve.splu, []

        def spy(*args, **kwargs):
            calls.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(psolve, "splu", spy)
        cfg = write_config(tmp_path / "vb.json", {
            "mesh": {"kind": "icosphere", "level": 3}, "p": 2.0,
            "n_factors": 3, "seed": 0,
        })
        result = run(["verify-bound", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 0, result.output
        assert len(calls) == 1

    def test_corrupted_bound_self_test(self, tmp_path, outdir, monkeypatch):
        bound = bounds.conformal_volume_bound
        monkeypatch.setattr(bounds, "conformal_volume_bound",
                            lambda *args: bound(*args) * 1e-4)
        cfg = write_config(tmp_path / "vb.json", {
            "mesh": {"kind": "icosphere", "level": 3}, "p": 2.0,
            "n_factors": 1, "seed": 0,
        })
        result = run(["verify-bound", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 2


    def _level2_p15(self, tmp_path, outdir, solver=None):
        payload = {"mesh": {"kind": "icosphere", "level": 2}, "p": 1.5,
                   "n_factors": 1, "seed": 0}
        if solver is not None:
            payload["solver"] = solver
        cfg = write_config(tmp_path / "vb.json", payload)
        return run(["verify-bound", "--config", cfg, "--out", str(outdir)])

    def test_invalid_solver_block_exits_one(self, tmp_path, outdir):
        # NaN parses as JSON and fails no "< 0" comparison
        for solver, message in [
                ({"bogus_key": 3}, "invalid solver config"),
                ({"residual_target": float("nan")},
                 "residual_target must be positive")]:
            result = self._level2_p15(tmp_path, outdir, solver)
            assert result.exit_code == 1
            assert f"error: {message}" in result.output
            assert "Traceback" not in result.output

    def test_ignored_solver_keys_keep_outputs(self, tmp_path):
        # tolerance and multistart set nothing, but older configs (the
        # benchmark's among them) still pass them
        outs = [tmp_path / "old", tmp_path / "new"]
        for out, solver in zip(outs, [
                {"multistart": 1, "tolerance": 1e-6, "residual_target": 1e-3},
                {"residual_target": 1e-3}]):
            result = self._level2_p15(tmp_path, out, solver)
            assert result.exit_code == 0, result.output
        # the first line of rows.csv is the generation timestamp
        rows = [(out / "rows.csv").read_text().splitlines()[1:]
                for out in outs]
        assert rows[0] == rows[1]
        assert ((outs[0] / "results.json").read_bytes()
                == (outs[1] / "results.json").read_bytes())

    # a delta key is refused rather than ignored: it used to set the solve's
    # regularization level
    @pytest.mark.parametrize("solver,message", [
        ({"multistart": "x"}, "config key 'multistart' must be a JSON integer"),
        ({"multistart": 0}, "multistart must be at least 1"),
        ({"tolerance": -1}, "tolerance must be positive"),
        ({"delta": 1e-6}, "invalid solver config: unknown keys ['delta']")])
    def test_malformed_ignored_solver_key_exits_one(self, tmp_path, outdir,
                                                    solver, message):
        result = self._level2_p15(tmp_path, outdir, solver)
        assert result.exit_code == 1
        assert f"error: {message}" in result.output
        assert "Traceback" not in result.output

    # a negative count ran the round case alone; a NaN or negative slack
    # flagged every case as a violated bound
    @pytest.mark.parametrize("key,value", [
        ("n_factors", -2), ("slack", float("nan")), ("slack", -0.5)])
    def test_malformed_batch_exits_one(self, tmp_path, outdir, key, value):
        cfg = write_config(tmp_path / "vb.json", {
            "mesh": {"kind": "icosphere", "level": 1}, "p": 2.0, key: value})
        result = run(["verify-bound", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 1
        assert f"error: config key '{key}'" in result.output
        assert "Traceback" not in result.output

    def test_solver_block_is_used(self, tmp_path):
        lams = []
        for solver in (None, {"max_iterations": 1}):
            out = tmp_path / f"out{len(lams)}"
            result = self._level2_p15(tmp_path, out, solver)
            assert result.exit_code == 0, result.output
            reports = json.loads((out / "results.json").read_text())["reports"]
            lams.append([r["computed_lambda"] for r in reports])
        assert lams[0] != lams[1]


class TestReflect:
    def test_round_factor_equality(self, tmp_path, outdir):
        cfg = write_config(tmp_path / "r.json", {
            "mesh": {"kind": "icosphere", "level": 3}, "p": 2.0,
            "factor": {"kind": "constant", "value": 1.0}, "seed": 0,
            "solver": {"multistart": 1},
        })
        result = run(["reflect", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 0, result.output
        payload = json.loads((outdir / "results.json").read_text())
        assert payload["lambda_closed"] == pytest.approx(2.0, rel=0.02)
        assert payload["lambda_neumann"] == pytest.approx(2.0, rel=0.02)
        assert payload["reflection_defect"] <= 1e-8
        assert payload["inequality_holds"]

    def test_asymmetric_factor_rejected(self, tmp_path, outdir):
        cfg = write_config(tmp_path / "r.json", {
            "mesh": {"kind": "icosphere", "level": 3}, "p": 2.0,
            "factor": {"kind": "random_smooth", "seed": 1,
                       "symmetric": False},
            "seed": 0,
        })
        result = run(["reflect", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 1


class TestDirichletScaling:
    def test_constant_column(self, tmp_path, outdir):
        cfg = write_config(tmp_path / "d.json", {
            "p": 2.0, "eps": [1.0, 0.5], "n": 200, "seed": 0,
        })
        result = run(["dirichlet-scaling", "--config", cfg,
                      "--out", str(outdir)])
        assert result.exit_code == 0, result.output
        payload = json.loads((outdir / "results.json").read_text())
        assert payload["fem_constant_1e6"]
        assert payload["oracle_constant_1e9"]
        assert payload["oracle_scaled"][0] == pytest.approx(
            np.pi ** 2 / 4, rel=1e-8)

    def test_one_integration_per_command(self, tmp_path, outdir,
                                         monkeypatch):
        eps = [1.0, 0.5, 0.25]
        scalar = [psolve.shooting_eigenvalue_1d(3.0, "dirichlet", e).hex()
                  for e in eps]
        solve_ivp, calls = psolve.solve_ivp, [0]

        def counting_solve_ivp(*args, **kwargs):
            calls[0] += 1
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(psolve, "solve_ivp", counting_solve_ivp)
        cfg = write_config(tmp_path / "d.json", {
            "p": 3.0, "eps": eps, "n": 40, "seed": 0})
        result = run(["dirichlet-scaling", "--config", cfg,
                      "--out", str(outdir)])
        assert result.exit_code == 0, result.output
        assert calls[0] == 1
        rows = (outdir / "rows.csv").read_text().splitlines()[2:]
        assert [float(r.split(",")[3]).hex() for r in rows] == scalar

    @pytest.mark.parametrize("eps", [[1.0, 0.0], [-0.5], [0.5, -0.25]])
    def test_nonpositive_eps_exits_one(self, tmp_path, outdir, eps):
        cfg = write_config(tmp_path / "d.json", {
            "p": 2.0, "eps": eps, "n": 40, "seed": 0})
        result = run(["dirichlet-scaling", "--config", cfg,
                      "--out", str(outdir)])
        assert result.exit_code == 1
        assert len(result.output.splitlines()) == 1
        assert result.output.startswith("error: ")
        assert "Traceback" not in result.output


class TestBalanceCommand:
    def test_cap_density(self, tmp_path, outdir):
        cfg = write_config(tmp_path / "bc.json", {
            "mesh": {"kind": "icosphere", "level": 2}, "p": 2.0,
            "factor": {"kind": "cap", "direction": [0.3, -0.5, 0.8],
                       "concentration": 6.0},
            "seed": 0, "solver": {"multistart": 1},
        })
        result = run(["balance", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 0, result.output
        payload = json.loads((outdir / "results.json").read_text())
        assert payload["moment_norm"] <= 1e-6
        assert payload["t"] < 1.0
        assert payload["bound_holds"]

    def test_uniform_density(self, tmp_path, outdir):
        cfg = write_config(tmp_path / "b.json", {
            "mesh": {"kind": "icosphere", "level": 2}, "p": 2.0,
            "factor": {"kind": "constant", "value": 1.0}, "seed": 0,
            "solver": {"multistart": 1},
        })
        result = run(["balance", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 0, result.output
        payload = json.loads((outdir / "results.json").read_text())
        assert payload["t"] == pytest.approx(1.0)
        assert payload["moment_norm"] <= 1e-6
        assert payload["bound_holds"]


    def test_bound_violation_exits_two(self, tmp_path, outdir, monkeypatch):
        solve_closed = psolve.solve_closed

        def above_bound(*args, **kwargs):
            result = solve_closed(*args, **kwargs)
            result.lam = 1e6
            return result

        monkeypatch.setattr(psolve, "solve_closed", above_bound)
        cfg = write_config(tmp_path / "b.json", {
            "mesh": {"kind": "icosphere", "level": 2}, "p": 2.0,
            "factor": {"kind": "constant", "value": 1.0}, "seed": 0,
        })
        result = run(["balance", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 2
        assert "flagged:" in result.output
        payload = json.loads((outdir / "results.json").read_text())
        assert payload["moment_norm"] <= 1e-6
        assert not payload["bound_holds"]

    def test_missed_balance_exits_two(self, tmp_path, outdir, monkeypatch):
        # a miss far above tol is flagged with results, not an error
        def missed(mesh, phi, density, p, tol):
            ident = mobius.MobiusMap(np.array([0.0, 0.0, 1.0]), 1.0)
            norm = np.linalg.norm(
                mobius.moment_vector(mesh, phi, density, p, ident))
            return mobius.BalanceResult(ident, float(norm), 1, False)

        monkeypatch.setattr(mobius, "balance", missed)
        cfg = write_config(tmp_path / "b.json", {
            "mesh": {"kind": "icosphere", "level": 2}, "p": 2.0,
            "factor": {"kind": "cap", "direction": [0.3, -0.5, 0.8]},
        })
        result = run(["balance", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 2
        assert "flagged: balancing did not reach tolerance" in result.output
        payload = json.loads((outdir / "results.json").read_text())
        assert not payload["converged"]
        assert payload["moment_norm"] > 1e-2

    @pytest.mark.parametrize("tol", [-1.0, 0.0])
    def test_nonpositive_tol_exits_one(self, tmp_path, outdir, tol):
        cfg = write_config(tmp_path / "b.json", {
            "mesh": {"kind": "icosphere", "level": 1}, "p": 2.0,
            "factor": {"kind": "constant", "value": 1.0}, "tol": tol,
        })
        result = run(["balance", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 1
        assert "error: tol" in result.output
        assert "Traceback" not in result.output


class TestNonConvergenceFlag:
    def test_tiny_budget_exits_two(self, tmp_path, outdir):
        cfg = write_config(tmp_path / "t.json", {
            "mesh": {"kind": "icosphere", "level": 2}, "p": 2.5,
            "factor": {"kind": "random_smooth", "seed": 2},
            "seed": 0, "solver": {"multistart": 1, "max_iterations": 5},
        })
        result = run(["eigen", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 2
        # results are still written for inspection
        payload = json.loads((outdir / "results.json").read_text())
        assert payload["stop_reason"] == "max_iterations"


class TestUsageErrors:
    # click exits 2 on these, the code the CLI keeps for flagged results
    @pytest.mark.parametrize("args,message", [
        (["--bogus"], "No such option '--bogus'"),
        (["eigen"], "Missing option '--config'"),
        (["nope"], "No such command 'nope'"),
        (["eigen", "--config"], "Option '--config' requires an argument"),
        ([], "Usage:"),
        (["sweep-eps", "--config", "c.json", "--jobs", "2"],
         "No such option '--jobs'"),
        (["verify-bound", "--config", "c.json", "--jobs", "2"],
         "No such option '--jobs'")],
        ids=["option", "config", "command", "config-value", "bare",
             "sweep-jobs", "verify-jobs"])
    def test_usage_error_exits_one(self, args, message):
        result = run(args)
        assert result.exit_code == 1
        assert message in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("name", [None, *main.commands],
                             ids=["main", *main.commands])
    def test_help_exits_zero(self, name):
        # every command takes --config and --out and nothing else
        if name is not None:
            command = main.commands[name]
            assert [p.name for p in command.params] == ["config_path", "out"]
            assert list(inspect.signature(
                command.callback.__wrapped__).parameters) == ["cfg", "outdir"]
        assert run([name, "--help"] if name else ["--help"]).exit_code == 0


class TestStartup:
    def test_solves_without_root_finding_leave_scipy_optimize_unloaded(
            self, tmp_path):
        # only balance (MINPACK root) loads scipy.optimize, and no command
        # loads scipy.integrate; a fresh interpreter shows what the rest load
        bound = write_config(tmp_path / "vb.json", {
            "mesh": {"kind": "icosphere", "level": 2}, "p": 1.5,
            "n_factors": 1, "seed": 0})
        eigen = write_config(tmp_path / "e.json", {
            "mesh": {"kind": "icosphere", "level": 2}, "p": 1.5,
            "factor": {"kind": "constant", "value": 1.0},
            "problem": "closed", "seed": 0})
        scaling = write_config(tmp_path / "d.json", {
            "p": 3.0, "eps": [1.0, 0.5], "n": 20, "seed": 0})
        script = f"""
import sys
from pspectra.cli import main
unloaded = ("scipy.optimize", "scipy.integrate")
assert not any(m in sys.modules for m in unloaded), "import"
for name, cfg in [("verify-bound", {bound!r}), ("eigen", {eigen!r}),
                  ("dirichlet-scaling", {scaling!r})]:
    main([name, "--config", cfg, "--out", {str(tmp_path)!r} + "/" + name],
         standalone_mode=False)
    assert not any(m in sys.modules for m in unloaded), name
"""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert done.returncode == 0, done.stderr
        for name in ("verify-bound", "eigen", "dirichlet-scaling"):
            assert (tmp_path / name / "results.json").exists()


class TestFileMeshInputs:
    def test_off_mesh_with_factor_csv(self, tmp_path, outdir):
        # a mesh OFF file plus a factor CSV fully specify the metric
        import pspectra as ps
        sphere = ps.build_icosphere(3)
        ps.save_off(sphere, tmp_path / "m.off")
        f = ps.random_smooth_factor(sphere, seed=2, amplitude=0.6)
        ps.save_factor_csv(f, tmp_path / "f.csv")
        cfg = write_config(tmp_path / "c.json", {
            "mesh": {"kind": "off", "path": str(tmp_path / "m.off")},
            "p": 2.0,
            "factor": {"kind": "csv", "path": str(tmp_path / "f.csv")},
            "seed": 0, "solver": {"multistart": 1},
        })
        result = run(["eigen", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 0, result.output
        payload = json.loads((outdir / "results.json").read_text())
        assert payload["lambda"] > 0


class TestDeterminism:
    def test_rerun_byte_identical_modulo_timestamp(self, tmp_path):
        cfg = write_config(tmp_path / "d.json", {
            "p": 2.5, "eps": [1.0, 0.5], "n": 150, "seed": 3,
        })
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run(["dirichlet-scaling", "--config", cfg,
                    "--out", str(out1)]).exit_code == 0
        assert run(["dirichlet-scaling", "--config", cfg,
                    "--out", str(out2)]).exit_code == 0
        rows1 = (out1 / "rows.csv").read_text().splitlines()[1:]
        rows2 = (out2 / "rows.csv").read_text().splitlines()[1:]
        assert rows1 == rows2


EIGEN_CIRCLE = {"mesh": {"kind": "circle", "n": 40, "length": 2 * np.pi},
                "p": 2.0, "factor": {"kind": "constant", "value": 1.0},
                "problem": "closed", "seed": 0, "solver": {"multistart": 1}}
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                         st.floats(allow_nan=False, allow_infinity=False),
                         st.text(max_size=4))
# JSON values by type; a key's value is replaced by one of another type
JSON_VALUES = {
    "null": st.none(), "boolean": st.booleans(),
    "number": st.one_of(st.integers(-3, 3),
                        st.floats(allow_nan=False, allow_infinity=False)),
    "string": st.text(max_size=4),
    "array": st.lists(JSON_SCALARS, max_size=3),
    "object": st.dictionaries(st.text(max_size=4), JSON_SCALARS, max_size=3),
}


def _json_type(value):
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}[type(value)]


@st.composite
def mistyped_eigen_configs(draw):
    key = draw(st.sampled_from(sorted(EIGEN_CIRCLE)))
    kind = _json_type(EIGEN_CIRCLE[key])
    value = draw(st.one_of([s for k, s in JSON_VALUES.items() if k != kind]))
    return {**EIGEN_CIRCLE, key: value}


class TestMalformedConfig:
    @settings(max_examples=40, deadline=None)
    @example(command="eigen", config=5)
    @example(command="eigen", config={**EIGEN_CIRCLE, "p": None})
    @example(command="eigen", config={
        **EIGEN_CIRCLE, "mesh": {**EIGEN_CIRCLE["mesh"], "n": "a"}})
    @example(command="eigen", config={**EIGEN_CIRCLE, "solver": [1]})
    @example(command="eigen", config={
        **EIGEN_CIRCLE, "p": 3.0, "solver": {"max_iterations": -5}})
    @example(command="dirichlet-scaling",
             config={"p": 2.0, "eps": 0.5, "n": 40})
    @given(command=st.just("eigen"), config=mistyped_eigen_configs())
    def test_wrong_json_type_exits_one(self, tmp_path_factory, command,
                                       config):
        tmp = tmp_path_factory.mktemp("cfg")
        cfg = write_config(tmp / "c.json", config)
        result = run([command, "--config", cfg, "--out", str(tmp / "out")])
        assert result.exit_code == 1
        assert "error: " in result.output
        assert "Traceback" not in result.output


ICO1 = {"kind": "icosphere", "level": 1}


class TestValidationExits:
    @pytest.mark.parametrize("command, config, message", [
        ("eigen", {k: v for k, v in EIGEN_CIRCLE.items() if k != "mesh"},
         "config is missing required key 'mesh'"),
        ("eigen", {**EIGEN_CIRCLE, "mesh": {"kind": "torus"}},
         "unknown mesh kind 'torus'"),
        ("eigen", {**EIGEN_CIRCLE, "factor": {"kind": "bogus"}},
         "unknown factor kind 'bogus'"),
        ("verify-bound", {"mesh": ICO1, "p": 2.0, "n_factors": 0,
                          "source": "bogus"},
         "unknown bound source 'bogus'"),
        ("reflect", EIGEN_CIRCLE, "reflection needs an icosphere mesh"),
        ("balance", EIGEN_CIRCLE, "balancing needs an icosphere mesh"),
        ("eigen", {**EIGEN_CIRCLE, "mesh": {**ICO1, "level": 2.5}},
         "config key 'level' must be a JSON integer"),
    ], ids=["missing-key", "mesh-kind", "factor-kind", "bound-source",
            "reflect-circle", "balance-circle", "fractional-level"])
    def test_exits_one_with_message(self, tmp_path, outdir, command, config,
                                    message):
        cfg = write_config(tmp_path / "c.json", config)
        result = run([command, "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 1
        assert result.output.split("error: ", 1)[1] == message + "\n"
        assert "Traceback" not in result.output

    def test_integral_float_level_reads_as_int(self, tmp_path, outdir):
        cfg = write_config(tmp_path / "c.json", {
            **EIGEN_CIRCLE, "mesh": {**ICO1, "level": 2.0}})
        result = run(["eigen", "--config", cfg, "--out", str(outdir)])
        assert result.exit_code == 0, result.output
        header = (outdir / "mesh.off").read_text().splitlines()[1]
        assert header.split()[0] == "162"


@pytest.mark.parametrize("mesh, factor, word", [
    (EIGEN_CIRCLE["mesh"], {"kind": "cap", "direction": [1.0, 0.0]}, "cap"),
    ({"kind": "icosphere", "level": 1},
     {"kind": "cap", "direction": [0.0, 0.0, 0.0]}, "cap"),
    ({"kind": "interval", "n": 20, "a": -1.0, "b": 1.0},
     {"kind": "random_smooth", "seed": 1}, "random_smooth"),
], ids=["cap-on-circle", "zero-cap-direction", "random_smooth-on-interval"])
def test_unusable_factor_exits_one(tmp_path, outdir, mesh, factor, word):
    cfg = write_config(tmp_path / "c.json", {
        **EIGEN_CIRCLE, "mesh": mesh, "factor": factor})
    result = run(["eigen", "--config", cfg, "--out", str(outdir)])
    assert result.exit_code == 1
    assert "error: " in result.output
    assert word in result.output.split("error: ", 1)[1]
    assert "Traceback" not in result.output


_ICO1 = build_icosphere(1)
# well-formed inputs for the EIGEN_CIRCLE config (40 vertices) and a level-1
# icosphere; the strategy below breaks one row or token of one of them
VALID_FILES = {
    "factor_csv": "vertex,value\n" + "".join(f"{i},1.0\n" for i in range(40)),
    "mesh_csv": (f"# kind=circle length={2 * np.pi!r}\n"
                 "vertex,coordinate,boundary\n"
                 + "".join(f"{i},{i * 2 * np.pi / 40!r},0\n"
                           for i in range(40))),
    "off": (f"OFF\n{_ICO1.n_vertices} {_ICO1.n_elements} 0\n"
            + "".join("%r %r %r\n" % tuple(map(float, v))
                      for v in _ICO1.vertices)
            + "".join("3 %d %d %d\n" % tuple(e) for e in _ICO1.elements)),
}
# never a number, not even nan or inf
WORDS = st.text(alphabet="bcxyz", min_size=1, max_size=3)


@st.composite
def malformed_files(draw):
    kind = draw(st.sampled_from(sorted(VALID_FILES)))
    text = VALID_FILES[kind]
    if kind == "off":
        tokens = text.split()
        nv, nf = int(tokens[1]), int(tokens[2])
        how = draw(st.sampled_from(["truncate", "word", "huge_index"]))
        if how == "truncate":
            tokens = tokens[:draw(st.integers(0, len(tokens) - 1))]
        elif how == "word":
            # token 3 (the edge count) is not read
            k = draw(st.integers(0, len(tokens) - 2))
            tokens[k + (k >= 3)] = draw(WORDS)
        else:
            face = draw(st.integers(0, nf - 1))
            tokens[4 + 3 * nv + 4 * face + draw(st.integers(1, 3))] = "9" * 25
        return kind, " ".join(tokens)
    lines = text.splitlines(keepends=True)
    header = 1 if kind == "factor_csv" else 2
    i = draw(st.integers(header, len(lines) - 1))
    fields = lines[i].strip().split(",")
    k = draw(st.integers(0, len(fields) - 1))
    how = draw(st.sampled_from(["drop", "extra", "word"]))
    if how == "drop":
        del fields[k]
    elif how == "extra":
        fields.insert(k, "1")
    else:
        fields[k] = draw(WORDS)
    lines[i] = ",".join(fields) + "\n"
    return kind, "".join(lines)


class TestMalformedInputFile:
    @settings(max_examples=40, deadline=None)
    @example(case=("factor_csv", "vertex,value\n0\n1\n"))
    @example(case=("mesh_csv", "# kind=interval\nvertex,coordinate,boundary\n"
                               "0,0.0\n1,1.0,1\n"))
    @example(case=("mesh_csv", "# kind=circle\nvertex,coordinate,boundary\n"
                               "0,0.0,0\n1,1.0,0\n2,2.0,0\n"))
    # vertex columns out of order: reversed, constant, all out of range
    @example(case=("factor_csv", "vertex,value\n" + "".join(
        f"{39 - i},{1.0 + i / 40!r}\n" for i in range(40))))
    @example(case=("factor_csv", "vertex,value\n" + "7,1.0\n" * 40))
    @example(case=("mesh_csv", f"# kind=circle length={2 * np.pi!r}\n"
                               "vertex,coordinate,boundary\n" + "".join(
                                   f"99,{i * 2 * np.pi / 40!r},0\n"
                                   for i in range(40))))
    @example(case=("off", "OFF\n3 1 0\n1 0 0\n0 1 0\n0 0 1\n"
                          "3 0 1 99999999999999999999\n"))
    @given(case=malformed_files())
    def test_exits_one(self, tmp_path_factory, case):
        kind, text = case
        tmp = tmp_path_factory.mktemp("file")
        (tmp / "input").write_text(text)
        key, file_kind = {"factor_csv": ("factor", "csv"),
                          "mesh_csv": ("mesh", "csv"),
                          "off": ("mesh", "off")}[kind]
        cfg = write_config(tmp / "c.json", {
            **EIGEN_CIRCLE, key: {"kind": file_kind,
                                  "path": str(tmp / "input")}})
        result = run(["eigen", "--config", cfg, "--out", str(tmp / "out")])
        assert result.exit_code == 1
        assert "error: " in result.output
        assert "Traceback" not in result.output
