"""Benchmark of the pspectra command-line program.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sphere-bound --seed 1 --seconds 36 --trace 0

The program is imported from ``src/`` and driven in-process through
``pspectra.cli.main`` with one BLAS thread. Each workload is a fixed list of
CLI commands on configs generated from ``--seed`` (see workloads.py). The
command list is repeated while another repetition still fits in
``--seconds``, and every command's outputs are checked.

``--trace 0`` reports the end-to-end metrics (medians over repetitions);
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see tracing.py). A line describing the
machine precedes the result; the last line of standard output is the result
object. Spans are written to ``.perfbench/traces/``.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 3


def import_cli():
    """Import pspectra.cli from this checkout's sources, nowhere else."""
    if not (SRC / "pspectra" / "cli.py").is_file():
        raise SystemExit(f"error: no pspectra sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pspectra.cli
    if Path(pspectra.cli.__file__).resolve().parents[1] != SRC:
        raise SystemExit(f"error: pspectra was imported from "
                         f"{pspectra.cli.__file__}, not from {SRC}")
    return pspectra.cli


def probe_setup(args):
    """One set-up: interpreter start, program import, config generation."""
    import_cli()
    from workloads import WORKLOADS, write_configs
    write_configs(WORKLOADS[args.workload](args.seed, smoke=args.smoke),
                  args.probe_setup)


def measure_setup(args, workdir):
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--probe-setup", str(workdir / "probe")]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def machine_info():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None  # a checkout without git history
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "pspectra").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def invoke(cli, command, config, out):
    """Run one CLI command in-process; returns (exit code or None, log)."""
    log = io.StringIO()
    try:
        with redirect_stdout(log), redirect_stderr(log):
            cli.main([command, "--config", str(config), "--out", str(out)],
                     standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash counts as a failed command, the run goes on
        code = None
        log.write(traceback.format_exc())
    return code, log.getvalue()


def bytes_under(directory):
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


@dataclass
class Rep:
    """One pass over a workload's commands."""

    wall: float = 0.0
    cpu: float = 0.0
    command_wall: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    balance_evaluations: list = field(default_factory=list)


def run_rep(cli, commands, configs, outroot, tracer=None):
    rep = Rep()
    for cmd, config in zip(commands, configs):
        out = outroot / cmd.name
        shutil.rmtree(out, ignore_errors=True)
        rep.attempted += 1
        span = (tracer.span("cli.command", command=cmd.name)
                if tracer is not None else nullcontext())
        w0, c0 = time.perf_counter(), time.process_time()
        with span as record:
            code, log = invoke(cli, cmd.command, config, out)
        wall = time.perf_counter() - w0
        rep.cpu += time.process_time() - c0
        rep.wall += wall
        rep.command_wall[cmd.name] = wall
        if code != 0:
            errors = [f"exit code {code}: {log.strip()}"]
        else:
            try:
                errors = cmd.check(out)
                if cmd.command == "balance":
                    results = json.loads((out / "results.json").read_text())
                    rep.balance_evaluations.append(results["evaluations"])
            except (OSError, ValueError, KeyError) as exc:
                errors = [f"unreadable output: {exc!r}"]
        if record is not None:
            record["attrs"]["bytes_written"] = bytes_under(out)
        if errors:
            rep.failed += 1
            rep.problems += [f"{cmd.name}: {e}" for e in errors]
    return rep


def repeat(seconds, run_one, at_least):
    """Call run_one(i) for i = 0, 1, ... while another call still fits in
    ``seconds`` at the mean duration so far, and at least ``at_least``
    times."""
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(run_one(len(reps)))
        elapsed = time.perf_counter() - start
        if (len(reps) >= at_least
                and elapsed * (1 + 1 / len(reps)) > seconds):
            return reps


def end_to_end(args, cli, commands, configs, workdir):
    setup = measure_setup(args, workdir)
    reps = repeat(args.seconds,
                  lambda i: run_rep(cli, commands, configs, workdir / "out"),
                  at_least=1)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": (statistics.median(r.wall for r in reps), "s"),
        "cpu_s": (statistics.median(r.cpu for r in reps), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return reps, metrics, []


def traced(args, cli, commands, configs, workdir):
    from tracing import Tracer, layer_metrics, read_spans, self_check

    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    layers = []
    problems = []

    def run_one(i):
        if i % 2 == 0:
            return run_rep(cli, commands, configs, workdir / "out")
        tracer = Tracer()
        tracer.install()
        try:
            rep = run_rep(cli, commands, configs, workdir / "out", tracer)
        finally:
            tracer.uninstall()
        path = trace_dir / f"{args.workload}-seed{args.seed}-rep{i}.jsonl"
        tracer.write(path)
        spans = read_spans(path)
        problems.extend(self_check(spans, tracer.returned_iterations,
                                   rep.balance_evaluations))
        layers.append(layer_metrics(spans))
        return rep

    reps = repeat(args.seconds, run_one, at_least=2)
    metrics = {}
    for name, (value, unit) in layers[0].items():
        values = [layer[name][0] for layer in layers]
        if unit == "s":
            value = statistics.median(values)
        elif len(set(values)) > 1:
            problems.append(f"{name} differs between traced passes: {values}")
        metrics[name] = (value, unit)
    untraced = statistics.median(r.wall for r in reps[0::2])
    with_trace = statistics.median(r.wall for r in reps[1::2])
    metrics["trace.overhead_s"] = (with_trace - untraced, "s")
    return reps, metrics, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny meshes, for the harness test")
    parser.add_argument("--probe-setup", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup is not None:
        return probe_setup(args)
    cli = import_cli()
    from workloads import WORKLOADS, write_configs
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        commands = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
        configs = write_configs(commands, workdir / "configs")
        print(json.dumps({"machine": machine_info(), "workload": args.workload,
                          "seed": args.seed}))
        measure = traced if args.trace else end_to_end
        reps, metrics, problems = measure(args, cli, commands, configs,
                                          workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(r.failed for r in reps)
    problems = [p for r in reps for p in r.problems] + problems
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"repetitions": len(reps),
                      "command_wall_s": [r.command_wall for r in reps]}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
