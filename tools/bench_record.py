"""Write a BENCH_<label>.json record of one checkout's performance.

    python3 tools/bench_record.py --label baseline --checkout ../parent
    python3 tools/bench_record.py --label linop --pairs-against ../parent

The record is written to BENCH_<label>.json at the root of this repository.
For every workload in BENCHMARK.json the record runs ``benchmarks/run.py``
of the checkout once per seed 1 to 5 (``--trace 0``), each for the
``run_seconds`` that BENCHMARK.json sets, and keeps the median and the
quartiles of each end-to-end metric over the seeds. It also records the
tier-1 test wall time (the command of ROADMAP.md), the wall time of
``nashseek paper-example``, and the per-call time of one RK4 right-hand
side call and of one whole RK4 step on the worked example's players
(order 3, theta 1/3, directed cycle) at several sizes n, each scaled by
the benchmark's speed calibration, as the minimum and the median over
RHS_REPEATS timings, and then the minimum of each over PROBE_ROUNDS
probes. Both right-hand sides (dense operator and blockwise) are timed,
except that no dense operator over PROBE_MAX_OPERATOR_BYTES is built. The
probe drives the checkout's ``sim._Stepper``, so a checkout without one
cannot be probed. The same probe times the logging layer: ``sim._integrate``
per step on one member at the INTEGRATE_STEPS sizes, logging every 10
steps and once, recorded under ``integrate``, and gradient play: the time
per ``game.solve_nash_gradient_play`` call on the games of pool entry 0 of
the benchmark's preflight workload at the GRADPLAY_SIZES, recorded under
``gradplay``, and the pinned-Laplacian diagnostic: the time per
``graph.pinning_diagnostic`` call on the graphs of preflight pool entry 0
(N = 8 to 32), on large_n pool entry 0's graph (n = 96) and on the
directed 96-cycle, whose blocks all tie, recorded under ``pinning``. It
also times the setup layers: one ``dynamics.build_transformation`` call at
the TRANSFORM_CALLS orders, recorded under ``transform``, and one
``sim._Tables`` construction for the worked example's players on a directed
cycle at the TABLES_CALLS sizes, recorded under ``tables``.

Everything runs in child processes with BLAS on one thread. Each checkout
gets its own bytecode cache (``PYTHONPYCACHEPREFIX``), empty when the
record starts, so neither side imports through the other's cache files or
through stale ones left in its tree. The record
names the checkout's git sha, a digest of its ``src/``, Python, numpy and
``nproc``. Runs take a while: about run_seconds plus 15 s per workload and
seed, plus the tier-1 suite.

With ``--pairs-against PARENT`` it also runs 10 pairs of every workload in
BENCHMARK.json on PARENT and on the checkout, pair k with seed k on both
sides, alternating which side runs first, and records each side's
end-to-end metrics, the pairs the checkout won on each metric, and the
quartiles of both sides. Its right-hand-side and step probes then
alternate between PARENT and the checkout, and PARENT's are recorded as
``parent_rhs_per_call``. ``rhs_ratio_to_parent`` then holds, per size and
path, per gradient-play game, per diagnostic graph and per setup row, the
median over the rounds of each round's checkout/PARENT ratio of the scaled
medians: both sides of a round run back to back, so the ratio cancels the
machine's drift, which a minimum over rounds does not.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
import calibrate  # noqa: E402
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
SEEDS = [1, 2, 3, 4, 5]
PAIRS = 10
# n = 96 is the size of the large_n workload, probed on the blockwise path only
RHS_SIZES = (3, 6, 12, 13, 14, 15, 16, 20, 24, 96)
# the dense operator at n = 96 would take 1.5 GB
PROBE_MAX_OPERATOR_BYTES = 2**27
RHS_CALLS = 2000
RHS_REPEATS = 7
# the logging layer: sim._integrate on the worked example's players at these
# sizes and step counts, logging every 10 steps and once at the end
INTEGRATE_STEPS = {6: 1000, 96: 50}
# gradient play on the preflight workload's games of these sizes
GRADPLAY_SIZES = (8, 32)
# the pinned-Laplacian diagnostic's calls per timing below n = 32, a few ms of work
PINNING_CALLS = {8: 16, 16: 4, 24: 2}
# calls per timing of build_transformation at each order (20 is the cap, about
# 0.1 s a call) and of _Tables at each size, each timing a few ms at least
TRANSFORM_CALLS = {1: 64, 3: 16, 10: 1, 20: 1}
TABLES_CALLS = {3: 16, 6: 16, 24: 16, 96: 8}
# probe rounds; with --pairs-against the two sides' probes alternate
PROBE_ROUNDS = 5


@functools.cache
def pycache_root() -> tempfile.TemporaryDirectory:
    """This record's bytecode caches, one directory per checkout, removed at exit."""
    return tempfile.TemporaryDirectory(prefix="bench_record_pycache_")


def child_env(checkout: Path) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(checkout / "src")
    env["PYTHONPYCACHEPREFIX"] = str(
        Path(pycache_root().name) / hashlib.sha256(str(checkout).encode()).hexdigest()[:16]
    )
    return env


def identity(checkout: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((checkout / "src" / "nashseek").rglob("*.py")):
        digest.update(path.relative_to(checkout / "src").as_posix().encode())
        digest.update(path.read_bytes())
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                         capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=checkout,
                           capture_output=True, text=True).stdout.strip()
    import numpy as np

    return {
        "git_sha": sha or "not a git checkout",
        "src_uncommitted_changes": bool(dirty),
        "src_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": 1,
    }


def quartiles(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def contract(checkout: Path) -> dict:
    return json.loads((checkout / "BENCHMARK.json").read_text())


def workloads(checkout: Path, seeds: list[int], seconds: float) -> dict:
    result = {}
    for workload in (w["name"] for w in contract(checkout)["workloads"]):
        per_metric: dict[str, list[float]] = {}
        units, failed, attempted = {}, 0, 0
        for seed in seeds:
            line = bench_run(checkout, workload, seed, seconds)
            failed += line["failed"]
            attempted += line["attempted"]
            for name, metric in line["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"  {workload} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()),
                  flush=True)
        result[workload] = {
            "seeds": seeds,
            "seconds": seconds,
            "failed": failed,
            "attempted": attempted,
            "metrics": {k: {"unit": units[k], **quartiles(v)} for k, v in per_metric.items()},
        }
    return result


def bench_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``benchmarks/run.py --trace 0`` run; its result line."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=child_env(checkout), capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pairs(checkout: Path, parent: Path, workload: str, count: int, seconds: float) -> dict:
    better = {m["name"]: m["better"] for m in contract(checkout)["end_to_end"]}
    sides: dict[str, list[dict]] = {"parent": [], "change": []}
    for k in range(count):
        order = [("parent", parent), ("change", checkout)]
        for side, path in order if k % 2 == 0 else order[::-1]:
            line = bench_run(path, workload, k + 1, seconds)
            sides[side].append({m: v["value"] for m, v in line["metrics"].items()}
                               | {"failed": line["failed"]})
        print(f"  {workload} pair {k + 1}: " + ", ".join(
            f"{side} op_p50_s={runs[-1]['op_p50_s']:.4g}" for side, runs in sides.items()),
            flush=True)
    result = {"workload": workload, "seconds": seconds, "seeds": list(range(1, count + 1)),
              "first": ["parent" if k % 2 == 0 else "change" for k in range(count)]}
    for metric, direction in better.items():
        a = [run[metric] for run in sides["parent"]]
        b = [run[metric] for run in sides["change"]]
        wins = sum((y < x) if direction == "lower" else (y > x) for x, y in zip(a, b))
        result[metric] = {"parent": quartiles(a), "change": quartiles(b),
                          "change_wins": wins, "pairs": count}
    result["failed"] = {side: sum(r["failed"] for r in runs) for side, runs in sides.items()}
    return result


def tier1(checkout: Path) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=checkout, env=child_env(checkout),
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"wall_s": wall, "summary": tail}


def paper_example(checkout: Path) -> dict:
    with tempfile.TemporaryDirectory() as out:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "nashseek.cli", "paper-example", "--out", out],
            cwd=checkout, env=child_env(checkout), capture_output=True, text=True,
        )
        wall = time.perf_counter() - start
    verdicts = [line for line in proc.stdout.splitlines() if line.startswith("[")]
    return {"wall_s": wall, "exit": proc.returncode, "verdicts": verdicts}


def rhs_rounds(sides: list[Path]) -> list[list[dict]]:
    """Each side's probes, the sides alternating, PROBE_ROUNDS times.

    The machine's speed drifts over minutes, so a time taken once, or on
    one side minutes after the other, is noise; see :func:`probe_minima`
    and :func:`probe_ratios`.
    """
    runs: list[list[dict]] = [[] for _ in sides]
    for r in range(PROBE_ROUNDS):
        order = list(range(len(sides)))
        for k in order if r % 2 == 0 else order[::-1]:
            runs[k].append(rhs_times(sides[k]))
    return runs


# the probe's lists of timed rows
PROBE_TABLES = ("sizes", "integrate", "gradplay", "pinning", "transform", "tables")


def probe_minima(side: list[dict]) -> dict:
    """One side's probe rounds merged: each time as its minimum over the rounds."""
    merged = {**side[0], "rounds": PROBE_ROUNDS}
    for table in PROBE_TABLES:
        merged[table] = [
            {key: min(probe[table][i][key] for probe in side) for key in row}
            for i, row in enumerate(side[0][table])
        ]
    return merged


def probe_ratios(change: list[dict], parent: list[dict]) -> list[dict]:
    """Per row and timed key, the median over rounds of change/parent scaled medians."""
    rows = []
    for table in PROBE_TABLES:
        for i, row in enumerate(change[0][table]):
            ratios = {"table": table,
                      **{k: row[k] for k in ("graph", "n", "order") if k in row}}
            for key in row:
                if key.endswith("_us_median") and key in parent[0][table][i]:
                    ratios[key.replace("_us_median", "_ratio_median")] = statistics.median(
                        c[table][i][key] / p[table][i][key] for c, p in zip(change, parent)
                    )
            rows.append(ratios)
    return rows


def rhs_times(checkout: Path) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--rhs-probe"], cwd=checkout,
                          env=child_env(checkout), capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"rhs probe failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rhs_probe() -> dict:
    """Per-call times of one right-hand side and one RK4 step at each n, on each path.

    Runs in a child process that imports the package under test, on the
    worked example's players, and times the checkout's own pieces: the
    bound right-hand side (``sim._dense_rhs`` or ``sim._blockwise_rhs``)
    and ``sim._Stepper`` stepping it.
    """
    import numpy as np
    from nashseek import PlayerSpec, SeekerMode, cycle_digraph, ring_game, sim

    binds = {"blockwise": sim._blockwise_rhs, "dense": sim._dense_rhs}
    h = 1e-3
    rows = []
    for n in RHS_SIZES:
        game, g = ring_game(n), cycle_digraph(n)
        specs = tuple(PlayerSpec(order=3, theta=1 / 3, delta=1.0, u_limit=0.4815)
                      for _ in range(n))
        x0 = [np.array([float(i + 1), 1.0, 1.0]) for i in range(n)]
        tables = sim._Tables(specs, SeekerMode.SATURATED_DIRECTED, g)
        row = {"n": n, "state_len": tables.width, "operator_bytes": tables.operator_bytes()}
        for name, make in binds.items():
            if name == "dense" and row["operator_bytes"] > PROBE_MAX_OPERATOR_BYTES:
                continue
            state = tables.initial_state(x0, 1.0, 1.0)
            bind = make(tables, game)
            rhs_call = bind(state, np.empty_like(state), np.empty(tables.rows))
            step_call = sim._Stepper(bind, tables.rows, state, h).step
            calls = max(50, RHS_CALLS // n)
            for key, call in ((name, rhs_call), (f"{name}_step", step_call)):
                row.update(per_call_us(key, call, calls))
        rows.append(row)
    return {"players": "order 3, theta 1/3, directed cycle, ring game", "step_size": h,
            "sizes": rows, "integrate": integrate_rows(h), "gradplay": gradplay_rows(),
            "pinning": pinning_rows(), "transform": transform_rows(), "tables": tables_rows()}


def integrate_rows(h: float) -> list[dict]:
    """Per-step time of ``sim._integrate``, one member, at each INTEGRATE_STEPS size.

    Logging every 10 steps and once at the end (``log_every`` = steps); the
    difference is the logging layer's cost per step. The right-hand sides
    are built outside the timing, as ``sim._chunks`` builds them, and the
    operator only where ``sim._DENSE_MAX_BYTES`` allows it.
    """
    import numpy as np
    from nashseek import PlayerSpec, SeekerMode, SimConfig, cycle_digraph, ring_game, sim
    from nashseek.game import solve_nash_closed_form

    rows = []
    for n, steps in INTEGRATE_STEPS.items():
        game, g = ring_game(n), cycle_digraph(n)
        specs = tuple(PlayerSpec(order=3, theta=1 / 3, delta=1.0, u_limit=0.4815)
                      for _ in range(n))
        x0 = [np.array([float(i + 1), 1.0, 1.0]) for i in range(n)]
        tables = sim._Tables(specs, SeekerMode.SATURATED_DIRECTED, g)
        dense = (sim._dense_rhs(tables, game)
                 if tables.operator_bytes() <= sim._DENSE_MAX_BYTES else None)
        blockwise = sim._blockwise_rhs(tables, game)
        ref = solve_nash_closed_form(game)
        state = tables.initial_state(x0, 1.0, 1.0)[None]
        t_end = steps * h
        row = {"n": n, "steps": steps, "path": "blockwise" if dense is None else "dense"}
        for name, every in (("log_every_10", 10), ("log_once", steps)):
            config = SimConfig(step_size=h, t_end=t_end, log_every=every, conv_window=t_end)

            def call():
                sim._integrate(tables, dense, blockwise, ref, state, config)

            call()
            per_step = [scaled_time(call, 1) / steps * 1e6 for _ in range(RHS_REPEATS)]
            row[f"{name}_us_min"] = min(per_step)
            row[f"{name}_us_median"] = statistics.median(per_step)
        rows.append(row)
    return rows


def gradplay_rows() -> list[dict]:
    """Time per ``solve_nash_gradient_play`` call on preflight pool entry 0's games.

    The games come from this repository's ``benchmarks/workloads.py``, so
    both sides of a pair solve the same ones.
    """
    import numpy as np
    import workloads
    from nashseek.game import QuadraticGame, solve_nash_gradient_play

    rows = []
    for inp in workloads.pool_inputs("preflight", 0):
        jac = np.array(inp.config["game"]["jacobian"])
        if len(jac) not in GRADPLAY_SIZES:
            continue
        game = QuadraticGame(jacobian=jac, offset=np.array(inp.config["game"]["offset"]))
        rows.append({"n": len(jac),
                     **per_call_us("solve", lambda: solve_nash_gradient_play(game), 1)})
    return rows


def pinning_rows() -> list[dict]:
    """Time per ``pinning_diagnostic`` call on the preflight and large_n graphs and a cycle.

    The graphs of preflight pool entry 0 and large_n pool entry 0 come from
    this repository's ``benchmarks/workloads.py``, so both sides of a pair
    take the same ones. The directed 96-cycle is the diagnostic's worst
    case: its blocks all tie, so every one is eigensolved.
    """
    import numpy as np
    import workloads
    from nashseek.graph import Digraph, cycle_digraph, pinning_diagnostic

    inputs = workloads.pool_inputs("preflight", 0) + workloads.pool_inputs("large_n", 0)
    graphs = [(inp.key.split("/")[0], Digraph(np.array(inp.config["graph"]["weights"])))
              for inp in inputs]
    graphs.append(("cycle", cycle_digraph(96)))
    rows = []
    for name, g in graphs:
        rows.append({"graph": name, "n": g.n, **per_call_us(
            "diagnostic", lambda: pinning_diagnostic(g), PINNING_CALLS.get(g.n, 1))})
    return rows


def transform_rows() -> list[dict]:
    """Time per ``build_transformation`` call at each TRANSFORM_CALLS order, theta 1/3."""
    from nashseek import PlayerSpec, build_transformation

    rows = []
    for order, calls in TRANSFORM_CALLS.items():
        spec = PlayerSpec(order=order, theta=1 / 3, delta=1.0, u_limit=10.0)
        rows.append({"order": order,
                     **per_call_us("build", lambda: build_transformation(spec), calls)})
    return rows


def tables_rows() -> list[dict]:
    """Time per ``sim._Tables`` construction on the worked example's players, directed cycle."""
    from nashseek import PlayerSpec, SeekerMode, cycle_digraph, sim

    rows = []
    for n, calls in TABLES_CALLS.items():
        g = cycle_digraph(n)
        specs = tuple(PlayerSpec(order=3, theta=1 / 3, delta=1.0, u_limit=0.4815)
                      for _ in range(n))
        rows.append({"n": n, **per_call_us(
            "setup", lambda: sim._Tables(specs, SeekerMode.SATURATED_DIRECTED, g), calls)})
    return rows


def per_call_us(name: str, call, calls: int) -> dict:
    """Scaled µs per call, minimum and median over RHS_REPEATS timings of ``calls`` calls.

    One call runs first, untimed, so lazy setup stays out of the timings.
    """
    call()
    per_call = [scaled_time(call, calls) / calls * 1e6 for _ in range(RHS_REPEATS)]
    return {f"{name}_us_min": min(per_call), f"{name}_us_median": statistics.median(per_call)}


def scaled_time(call, number: int) -> float:
    """Wall time of ``number`` calls, scaled as the benchmark scales its times.

    The factor is ``calibrate.REFERENCE_S`` over the mean of the fixed
    kernel's times just before and just after, so the time reads as on a
    core at the benchmark's reference speed (see benchmarks/calibrate.py).
    """
    before = calibrate.kernel()
    wall = timeit.timeit(call, number=number)
    return wall * calibrate.REFERENCE_S / ((before + calibrate.kernel()) / 2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label")
    parser.add_argument("--checkout", type=Path, default=ROOT)
    parser.add_argument("--pairs-against", type=Path)
    parser.add_argument("--rhs-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rhs_probe:
        print(json.dumps(rhs_probe()))
        return 0
    if not args.label:
        parser.error("--label is required")
    checkout = args.checkout.resolve()
    seconds = float(contract(checkout)["run_seconds"])
    record = {"label": args.label, "env": identity(checkout)}
    parent = args.pairs_against.resolve() if args.pairs_against else None
    print("rhs per call", flush=True)
    probes = rhs_rounds([checkout] + ([parent] if parent else []))
    record["rhs_per_call"] = probe_minima(probes[0])
    print("paper-example", flush=True)
    record["paper_example"] = paper_example(checkout)
    print("workloads", flush=True)
    record["workloads"] = workloads(checkout, SEEDS, seconds)
    print("tier-1", flush=True)
    record["tier1"] = tier1(checkout)
    if parent:
        print("pairs", flush=True)
        record["pairs"] = [pairs(checkout, parent, w["name"], PAIRS, seconds)
                           for w in contract(checkout)["workloads"]]
        record["parent_rhs_per_call"] = probe_minima(probes[1])
        record["rhs_ratio_to_parent"] = probe_ratios(probes[0], probes[1])
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
