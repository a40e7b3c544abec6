"""The nashseek benchmark: one workload per invocation.

    python3 benchmarks/run.py --workload reference --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it times the workload's operations with nothing wrapped
and prints the end-to-end metrics; with ``--trace 1`` it alternates plain
and traced cycles of the same operations and prints the per-layer metrics.
Every operation's output is checked against ``goldens.json``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric by name and unit, and the environment the run saw. A full report
(per-operation times, and for traced runs the spans of the first traced
cycle) is written under ``benchmarks/out/``.

The benchmark runs the package from ``src/`` of the checkout it sits in,
in this process, with BLAS pinned to one thread so that a run measures one
core. It changes no setting of the machine.
"""

from __future__ import annotations

import os

# Before anything imports numpy: one BLAS thread, so runs on a shared
# machine compete for one core rather than two, and repeat.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import golden
import tracer as tr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("cli", "scenario", "sim", "seeker", "dynamics", "game", "graph", "errors")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 150


def import_package() -> dict:
    """Import the package from this checkout's ``src/``; name -> module."""
    if not (SRC / "nashseek" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package at {SRC / 'nashseek'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return {name: importlib.import_module(f"nashseek.{name}") for name in MODULES}


def work_dir(tag: str) -> Path:
    path = HERE / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def source_identity() -> dict:
    """Git sha when the checkout is a repository, and a digest of ``src/``."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "nashseek").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {"git_sha": sha or "not a git checkout", "src_sha256": digest.hexdigest()[:16]}


def environment(workload: str, seed: int, indices: list[int], why: str, load: tuple) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        **source_identity(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg_at_start": list(load),
        "workload": workload,
        "seed": seed,
        "pool_entries": indices,
        "why": why,
        "noise": "shared machine: other tenants' load moves the core's speed; nothing is "
        "pinned or isolated, so times are scaled by a calibration kernel (calibrate.py) "
        "and medians over many operations are reported",
    }


# -- operations -------------------------------------------------------------


def invoke(cli, op) -> tuple[float, int, str, str]:
    """Time one CLI invocation; return (wall, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv())
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is exit 1 for a CLI user
        code = 1
        err.write(traceback.format_exc())
    return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()


class Runner:
    """Executes operations in-process and checks them against the goldens."""

    def __init__(self, modules: dict, goldens: dict):
        self.cli = modules["cli"]
        self.goldens = goldens["inputs"]
        self.failures: list[str] = []

    def execute(self, op) -> tuple[float, int]:
        """Time one operation and check it; return (wall, exit code)."""
        wall, code, out, err = invoke(self.cli, op)
        try:
            record = golden.extract(op, code, out)
            bad = golden.compare(op.kind, record, self.goldens[op.key][op.kind])
        except (OSError, ValueError, KeyError) as exc:
            bad = [f"unreadable output: {exc!r}"]
        if bad:
            detail = err.strip().splitlines()[-1:] if code else []
            self.failures.append(f"{op.kind} {op.key}: {'; '.join(bad + detail)}")
        return wall, code


def prepare(workload: str, seed: int, tag: str):
    """Import the package, generate the inputs and check them against the goldens."""
    modules = import_package()
    import workloads

    goldens = golden.load()
    indices = workloads.select(workload, seed)
    work = work_dir(tag)
    inputs, ops = workloads.materialize(workload, indices, work)
    for inp in inputs:
        want = goldens["inputs"][inp.key]["digest"]
        if workloads.digest(inp.config) != want:
            raise SystemExit(f"benchmark: generated input {inp.key} differs from its golden input")
    return modules, goldens, indices, work, ops


# -- set-up probe (runs in a fresh process) -----------------------------------


def probe(workload: str, seed: int) -> dict:
    """Cold set-up in this fresh process.

    Import, input generation, parse and build of every input, and the first
    operation cut to one logged interval, which pays every one-time cost of
    an operation (lazy imports, first linear-algebra calls, table set-up,
    file writes) but not the bulk of its steps.
    """
    t0 = time.perf_counter()
    modules = import_package()
    t_import = time.perf_counter() - t0
    import workloads

    t1 = time.perf_counter()
    work = work_dir(f"probe-{workload}")
    try:
        inputs, ops = workloads.materialize(workload, workloads.select(workload, seed), work)
        t_generate = time.perf_counter() - t1
        t2 = time.perf_counter()
        for inp in inputs:
            modules["scenario"].build(modules["scenario"].parse_config(inp.config))
        t_parse_build = time.perf_counter() - t2
        first, code, _, err = invoke(modules["cli"], workloads.shortened(inputs[0], ops[0], work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    kernel_s = calibrate.settled_median()
    return {
        "import_s": t_import,
        "generate_s": t_generate,
        "parse_build_s": t_parse_build,
        "first_op_s": first,
        "setup_s": t_import + t_generate + t_parse_build + first,
        "kernel_s": kernel_s,
        "ok": code == 0,
        "error": err.strip().splitlines()[-1:],
    }


def run_probes(workload: str, seed: int) -> list[dict]:
    results = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: set-up probe failed:\n{proc.stderr.strip()}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


# -- measurement ------------------------------------------------------------


def _percentile_beyond(times: list[float]) -> tuple[str, float] | None:
    """Highest of p90/p99 that leaves at least ten samples beyond it."""
    for q, name in ((0.99, "op_p99_s"), (0.90, "op_p90_s")):
        if len(times) * (1 - q) >= 10:
            return name, statistics.quantiles(times, n=100)[round(q * 100) - 1]
    return None


def measure(args, contract: dict) -> dict:
    import workloads

    load = os.getloadavg()
    probes = run_probes(args.workload, args.seed)
    modules, goldens, indices, work, ops = prepare(args.workload, args.seed, args.workload)
    runner = Runner(modules, goldens)
    speed = calibrate.Speed()
    try:
        for op in ops:  # warm-up cycle: caches fill and lazy set-up finishes
            runner.execute(op)
        warm_failed = len(runner.failures)
        walls, codes = [], []
        speed.sample()
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            for op in ops:  # whole cycles only, so every op type has equal weight
                wall, code = runner.execute(op)
                speed.sample()
                walls.append(wall)
                codes.append(code)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    times = speed.scale(walls)
    # Throughput over the median cycle: one slow stretch of a run moves a
    # median less than the run's total.
    cycle_s = statistics.median(
        sum(times[k:k + len(ops)]) for k in range(0, len(times), len(ops))
    )
    steps = sum(op.steps for op in ops)
    attempted = len(times) + len(ops)
    failed = len(runner.failures)
    setups = [p["setup_s"] * calibrate.REFERENCE_S / p["kernel_s"] for p in probes]
    metrics = {
        "op_p50_s": (statistics.median(times), "s"),
        "op_samples": (len(times), "count"),
        "scenarios_per_s": (sum(op.scenarios for op in ops) / cycle_s, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    tail = _percentile_beyond(times)
    if tail:
        metrics[tail[0]] = (tail[1], "s")
    if steps:
        metrics["steps_per_s"] = (steps / cycle_s, "1/s")
    metrics["fail_frac"] = (failed / attempted, "1")
    metrics["op_wall_p50_s"] = (statistics.median(walls), "s (unscaled)")
    metrics["setup_wall_s"] = (statistics.median(p["setup_s"] for p in probes), "s (unscaled)")
    metrics["kernel_p50_s"] = (statistics.median(speed.samples), "s")
    env = environment(args.workload, args.seed, indices, workloads.WHY[args.workload], load)
    report = {
        "env": env,
        "cycle": [f"{op.kind} {op.key}" for op in ops],
        "op_times_s": times,
        "op_walls_s": walls,
        "kernel_s": speed.samples,
        "exit_codes": codes,
        "warmup_failures": warm_failed,
        "probes": probes,
        "failures": runner.failures,
    }
    return finish(args, contract["end_to_end"], metrics, attempted, failed,
                  all(p["ok"] for p in probes) and not failed, report)


def measure_traced(args, contract: dict) -> dict:
    import workloads

    load = os.getloadavg()
    modules, goldens, indices, work, ops = prepare(args.workload, args.seed, f"{args.workload}-trace")
    runner = Runner(modules, goldens)
    tracer = tr.Tracer(modules)
    plain_walls, traced_walls, cycles, first_spans = [], [], [], None
    attempted = 0
    try:
        for op in ops:
            runner.execute(op)
        attempted += len(ops)
        start = time.perf_counter()
        while not cycles or time.perf_counter() - start < args.seconds:
            t0 = time.perf_counter()
            for op in ops:
                runner.execute(op)
            plain_walls.append(time.perf_counter() - t0)
            tracer.reset()
            tracer.install()
            codes = []
            t0 = time.perf_counter()
            try:
                for k, op in enumerate(ops):
                    tracer.op = k
                    codes.append(runner.execute(op)[1])
            finally:
                tracer.remove()
            traced_walls.append(time.perf_counter() - t0)
            cycles.append(tr.cycle_metrics(tracer, codes))
            if first_spans is None:
                first_spans = list(tracer.spans)
            attempted += 2 * len(ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    repeat_ok = all(
        all(c[name] == cycles[0][name] for c in cycles) for name in tr.EXACT_COUNTS
    )
    metrics = {}
    for name, unit in tr.PER_LAYER_UNITS.items():
        if name == "trace.overhead_s":
            value = statistics.median(traced_walls) - statistics.median(plain_walls)
        elif name in tr.EXACT_COUNTS:
            value = cycles[0][name]
        else:
            value = statistics.median(c[name] for c in cycles)
        label = f"{unit} (computed)" if name in tr.COMPUTED else unit
        metrics[name] = (value, label)
    failed = len(runner.failures)
    report = {
        "env": environment(args.workload, args.seed, indices, workloads.WHY[args.workload], load),
        "cycle": [f"{op.kind} {op.key}" for op in ops],
        "cycles_traced": len(cycles),
        "plain_cycle_walls_s": plain_walls,
        "traced_cycle_walls_s": traced_walls,
        "counts_repeat_exactly": repeat_ok,
        "untraced": tracer.missing,
        "failures": runner.failures,
        "spans_first_traced_cycle": first_spans,
    }
    return finish(args, contract["per_layer"], metrics, attempted, failed,
                  repeat_ok and not failed, report)


def finish(args, declared, metrics, attempted, failed, correct, report) -> dict:
    """Print every metric and the environment, write the report, build the result.

    ``metrics`` maps name -> (value, unit label) and holds more than the
    ``declared`` metrics of BENCHMARK.json; the result line carries only those.
    """
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"benchmark: metrics not produced: {missing}")
    for key, value in report["env"].items():
        print(f"env {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for line in report["failures"]:
        print(f"FAILED {line}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    path.write_text(json.dumps(report, indent=1))
    print(f"report: {path.relative_to(ROOT)}")
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in declared
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        print(json.dumps(probe(args.workload, args.seed)))
        return 0
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in contract["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    result = measure_traced(args, contract) if args.trace else measure(args, contract)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
