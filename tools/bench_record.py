"""Write a BENCH_<label>.json record of one checkout's performance.

    python3 tools/bench_record.py --label baseline --checkout ../parent
    python3 tools/bench_record.py --label linop --pairs-against ../parent

The record is written to BENCH_<label>.json at the root of this repository.
For every workload in BENCHMARK.json the record runs ``benchmarks/run.py``
of the checkout once per seed 1 to 5 (``--trace 0``), each for the
``run_seconds`` that BENCHMARK.json sets, and keeps the median and the
quartiles of each end-to-end metric over the seeds (``workloads``). It also
records the tier-1 test wall time (the command of ROADMAP.md), and the scaled
per-call times of its probe: a child process that imports the checkout's
``src/`` and times, PROBE_ROUNDS times, each layer of ROADMAP.md's aim 1 on the
worked example's players (order 3, theta 1/3, ring game, directed cycle)
unless a row's function says otherwise: one right-hand side call and one
RK4 step on each path (``sizes``), the logging layer (``integrate``),
gradient play, the pinned-Laplacian diagnostic, the transformation build,
``_Tables`` setup, output writing, ``check_game``, and ``nashseek
paper-example`` (``paper_example``; the record's ``paper_example.wall_s``).
One function, :func:`per_call_us`, times every row once per round, and each
time is kept as its minimum over the rounds.

Everything runs in child processes with BLAS on one thread. Each checkout
gets its own bytecode cache (``PYTHONPYCACHEPREFIX``), empty when the
record starts, so neither side imports through the other's cache files or
through stale ones left in its tree. The record names the checkout's git
sha, a digest of its ``src/``, Python, numpy and ``nproc``. Runs take a
while: about run_seconds plus 8 s per workload, seed and side, plus the tier-1
suite and the probe.

With ``--pairs-against PARENT`` the workloads run as 10 pairs on PARENT and
on the checkout, pair k with seed k on both sides, alternating which side
runs first, and the record also keeps each side's end-to-end metrics, the
pairs the checkout won on each metric, and the quartiles of both sides
(``pairs``). ``workloads`` then holds the checkout's runs of pairs 1 to 5,
the same runs as in ``pairs``. The probe rounds then alternate between PARENT
and the checkout, PARENT's are recorded as ``parent_rhs_per_call``, and
``rhs_ratio_to_parent`` holds, per probe row, the median over the rounds
of each round's checkout/PARENT ratio of the scaled times, and each
round's ratio: both sides of a round run back to back, so the ratio
cancels the machine's drift, which a minimum over rounds does not.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
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
# the sizes at which ROADMAP.md's aim 1 asks for each layer
LAYER_SIZES = (3, 6, 24, 96)
# the logging layer: sim._integrate at these sizes and step counts per call
INTEGRATE_STEPS = {3: 1000, 6: 1000, 24: 200, 96: 50}
# gradient play on the preflight workload's games of these sizes
GRADPLAY_SIZES = (8, 32)
PINNING_CYCLES = (3, 6, 96)
# 20 is the cap on a player's order
TRANSFORM_ORDERS = (1, 3, 10, 20)
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


def alternate(sides: list[Path], rounds: int, run) -> list[list]:
    """Each side's ``run(side, k)`` for k below ``rounds``, the side that goes first alternating.

    The machine's speed drifts over minutes, so a time taken on one side
    minutes after the other is noise; see :func:`pairs` and :func:`probe_ratios`.
    """
    results: list[list] = [[] for _ in sides]
    for k in range(rounds):
        order = range(len(sides))
        for i in order if k % 2 == 0 else reversed(order):
            results[i].append(run(sides[i], k))
    return results


def bench_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``benchmarks/run.py --trace 0`` run; its result line."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=child_env(checkout), capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"  {workload} seed {seed} {checkout}: "
          + ", ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()), flush=True)
    return line


def workloads(runs: dict[str, list[dict]], seconds: float) -> dict:
    """Per workload, the checkout's result lines at SEEDS summed and in quartiles.

    ``runs`` holds each workload's result lines of the checkout, seed 1 first.
    """
    result = {}
    for workload, lines in runs.items():
        lines = lines[: len(SEEDS)]
        result[workload] = {
            "seeds": SEEDS,
            "seconds": seconds,
            "failed": sum(line["failed"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "metrics": {name: {"unit": metric["unit"],
                               **quartiles([line["metrics"][name]["value"] for line in lines])}
                        for name, metric in lines[0]["metrics"].items()},
        }
    return result


def pairs(workload: str, parent: list[dict], change: list[dict], better: dict,
          seconds: float) -> dict:
    """One workload's record in ``pairs``, from both sides' result lines, pair k at seed k + 1.

    ``better`` maps each end-to-end metric to "lower" or "higher"; pair k
    ran the parent first when k is even (:func:`alternate`).
    """
    count = len(change)
    result = {"workload": workload, "seconds": seconds, "seeds": list(range(1, count + 1)),
              "first": ["parent" if k % 2 == 0 else "change" for k in range(count)]}
    for metric, direction in better.items():
        a = [line["metrics"][metric]["value"] for line in parent]
        b = [line["metrics"][metric]["value"] for line in change]
        wins = sum((y < x) if direction == "lower" else (y > x) for x, y in zip(a, b))
        result[metric] = {"parent": quartiles(a), "change": quartiles(b),
                          "change_wins": wins, "pairs": count}
    result["failed"] = {side: sum(line["failed"] for line in lines)
                        for side, lines in (("parent", parent), ("change", change))}
    return result


def tier1(checkout: Path) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=checkout, env=child_env(checkout),
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"wall_s": wall, "summary": tail}


def probe_minima(side: list[dict]) -> dict:
    """One side's probe rounds merged: each time as its minimum over the rounds."""
    merged = {**side[0], "rounds": len(side)}
    for table, rows in side[0].items():
        if isinstance(rows, list):
            merged[table] = [
                {key: min(probe[table][i][key] for probe in side) for key in row}
                for i, row in enumerate(rows)
            ]
    return merged


def probe_ratios(change: list[dict], parent: list[dict]) -> list[dict]:
    """Per row and timed key: each round's change/parent ratio of scaled times, and the median."""
    ratios = []
    for table, rows in change[0].items():
        if not isinstance(rows, list):
            continue
        for i, row in enumerate(rows):
            entry = {"table": table, **{k: row[k] for k in ("graph", "n", "order") if k in row}}
            for key in row:
                if key.endswith("_us") and key in parent[0][table][i]:
                    rounds = [c[table][i][key] / p[table][i][key] for c, p in zip(change, parent)]
                    stem = key.removesuffix("_us")
                    entry[f"{stem}_ratio_median"] = statistics.median(rounds)
                    entry[f"{stem}_ratio_rounds"] = rounds
            ratios.append(entry)
    return ratios


def rhs_times(checkout: Path) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--rhs-probe"], cwd=checkout,
                          env=child_env(checkout), capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"rhs probe failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rhs_probe() -> dict:
    """Every probe row, in the child process; private pieces such as ``sim._Stepper`` included."""
    h = 1e-3
    with tempfile.TemporaryDirectory() as out:
        return {"players": "order 3, theta 1/3, directed cycle, ring game", "step_size": h,
                "sizes": sizes_rows(h), "integrate": integrate_rows(h),
                "gradplay": gradplay_rows(), "pinning": pinning_rows(),
                "transform": transform_rows(), "tables": tables_rows(),
                "outputs": outputs_rows(Path(out)), "check_game": check_game_rows(),
                "paper_example": paper_example_rows(Path(out))}


def worked_example(n: int, sim: dict | None = None) -> tuple[dict, object]:
    """The worked example's players on a ring game over a directed n-cycle: parsed, built."""
    from nashseek.scenario import build, parse_config

    cfg = parse_config({
        "game": {"type": "ring", "n": n}, "graph": {"type": "cycle", "n": n},
        "players": {"order": 3, "theta": 1 / 3, "delta": 1.0, "u_limit": 0.4815},
        "init": {"x0": [[float(i + 1), 1.0, 1.0] for i in range(n)], "z0": 1.0, "c0": 1.0},
        "sim": sim or {},
    })
    return cfg, build(cfg)


def sizes_rows(h: float) -> list[dict]:
    """Per call of one right-hand side and one RK4 step at each RHS_SIZES n, on each path."""
    import numpy as np
    from nashseek import sim

    binds = {"blockwise": sim._blockwise_rhs, "dense": sim._dense_rhs}
    rows = []
    for n in RHS_SIZES:
        cfg, built = worked_example(n)
        tables = sim._Tables(built.specs, built.mode, built.graph)
        row = {"n": n, "state_len": tables.width, "operator_bytes": tables.operator_bytes()}
        for name, make in binds.items():
            if name == "dense" and row["operator_bytes"] > PROBE_MAX_OPERATOR_BYTES:
                continue
            state = tables.initial_state(**cfg["init"])
            bind = make(tables, built.game)
            rhs_call = bind(state, np.empty_like(state), np.empty(tables.rows))
            step_call = sim._Stepper(bind, tables.rows, state, h).step
            for key, call in ((name, rhs_call), (f"{name}_step", step_call)):
                row.update(per_call_us(key, call))
        rows.append(row)
    return rows


def integrate_rows(h: float) -> list[dict]:
    """Per-step time of ``sim._integrate``, one member, at each INTEGRATE_STEPS size.

    Logging every 10 steps and once at the end (``log_every`` = steps); the
    difference is the logging layer's cost per step. The right-hand sides
    are built outside the timing, as ``sim._chunks`` builds them, and the
    operator only where ``sim._DENSE_MAX_BYTES`` allows it.
    """
    from nashseek import SimConfig, sim
    from nashseek.game import solve_nash_closed_form

    rows = []
    for n, steps in INTEGRATE_STEPS.items():
        cfg, built = worked_example(n)
        tables = sim._Tables(built.specs, built.mode, built.graph)
        dense = (sim._dense_rhs(tables, built.game)
                 if tables.operator_bytes() <= sim._DENSE_MAX_BYTES else None)
        blockwise = sim._blockwise_rhs(tables, built.game)
        ref = solve_nash_closed_form(built.game)
        state = tables.initial_state(**cfg["init"])[None]
        t_end = steps * h
        row = {"n": n, "steps": steps, "path": "blockwise" if dense is None else "dense"}
        for name, every in (("log_every_10", 10), ("log_once", steps)):
            config = SimConfig(step_size=h, t_end=t_end, log_every=every, conv_window=t_end)
            per_call = per_call_us(
                name, lambda: sim._integrate(tables, dense, blockwise, ref, state, config))
            row.update((key, us / steps) for key, us in per_call.items())
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
                     **per_call_us("solve", lambda: solve_nash_gradient_play(game))})
    return rows


def pinning_rows() -> list[dict]:
    """Time per ``pinning_diagnostic`` call on the preflight and large_n graphs and cycles.

    The graphs of preflight pool entry 0 and large_n pool entry 0 come from
    this repository's ``benchmarks/workloads.py``, so both sides of a pair
    take the same ones. A directed cycle is the diagnostic's worst case:
    its blocks all tie, so every one is eigensolved.
    """
    import numpy as np
    import workloads
    from nashseek.graph import Digraph, cycle_digraph, pinning_diagnostic

    inputs = workloads.pool_inputs("preflight", 0) + workloads.pool_inputs("large_n", 0)
    graphs = [(inp.key.split("/")[0], Digraph(np.array(inp.config["graph"]["weights"])))
              for inp in inputs]
    graphs += [("cycle", cycle_digraph(n)) for n in PINNING_CYCLES]
    return [{"graph": name, "n": g.n, **per_call_us("diagnostic", lambda: pinning_diagnostic(g))}
            for name, g in graphs]


def transform_rows() -> list[dict]:
    """Time per ``build_transformation`` call at each TRANSFORM_ORDERS order, theta 1/3."""
    from nashseek import PlayerSpec, build_transformation

    rows = []
    for order in TRANSFORM_ORDERS:
        spec = PlayerSpec(order=order, theta=1 / 3, delta=1.0, u_limit=10.0)
        rows.append({"order": order, **per_call_us("build", lambda: build_transformation(spec))})
    return rows


def tables_rows() -> list[dict]:
    """Time per ``sim._Tables`` construction at each LAYER_SIZES n."""
    from nashseek import sim

    rows = []
    for n in LAYER_SIZES:
        _, built = worked_example(n)
        rows.append({"n": n, **per_call_us(
            "setup", lambda: sim._Tables(built.specs, built.mode, built.graph))})
    return rows


def outputs_rows(out: Path) -> list[dict]:
    """Time per ``write_trajectory_csv`` plus ``write_summary_json`` call at each LAYER_SIZES n.

    What they write is a 1 s run's results at the default step and
    ``log_every``: 100 logged rows.
    """
    from nashseek import run
    from nashseek.cli import write_summary_json, write_trajectory_csv

    rows = []
    for n in LAYER_SIZES:
        cfg, built = worked_example(n, {"t_end": 1.0, "conv_window": 1.0})
        traj, summary = run(built.game, built.graph, built.specs, built.mode, **cfg["init"],
                            config=built.sim)

        def write():
            write_trajectory_csv(out / "trajectory.csv", traj)
            write_summary_json(out / "summary.json", summary, cfg)

        rows.append({"n": n, "logged_rows": len(traj.times), **per_call_us("write", write)})
    return rows


def check_game_rows() -> list[dict]:
    """Time per ``check_game`` call on the ring game at each LAYER_SIZES n."""
    from nashseek import check_game, ring_game

    rows = []
    for n in LAYER_SIZES:
        game = ring_game(n)
        rows.append({"n": n, **per_call_us("check", lambda: check_game(game))})
    return rows


def paper_example_rows(out: Path) -> list[dict]:
    """Time per ``nashseek paper-example`` run, in process, with its exit code and verdicts."""
    from nashseek.cli import main

    stdout, codes = io.StringIO(), []

    def paper_example():
        stdout.seek(0)
        stdout.truncate()
        with contextlib.redirect_stdout(stdout):
            codes.append(main(["paper-example", "--out", str(out)]))

    row = per_call_us("run", paper_example)
    verdicts = [line for line in stdout.getvalue().splitlines() if line.startswith("[")]
    return [{"exit": codes[-1], "verdicts": verdicts, **row}]


def per_call_us(name: str, call) -> dict:
    """Scaled µs per call, as ``{name}_us``: the one timing rule.

    The timing is one batch of as many calls as ``timeit.Timer.autorange``
    finds take 0.2 s at least, the search's last batch, so a call of 0.2 s
    or more is timed alone, from its first run. It is scaled as the
    benchmark scales an operation: by ``calibrate.REFERENCE_S`` over the
    median of ``calibrate.WINDOW`` fixed kernel times just before it and as
    many just after, so it reads as on a core at the benchmark's reference
    speed (see benchmarks/calibrate.py).
    """
    window = range(calibrate.WINDOW)
    before = [calibrate.kernel() for _ in window]
    number, wall = timeit.Timer(call).autorange()
    around = before + [calibrate.kernel() for _ in window]
    return {f"{name}_us": wall * calibrate.REFERENCE_S / statistics.median(around) / number * 1e6}


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
    sides = [checkout] + ([parent] if parent else [])
    print("probe", flush=True)
    probes = alternate(sides, PROBE_ROUNDS, lambda side, _: rhs_times(side))
    record["rhs_per_call"] = probe_minima(probes[0])
    run = record["rhs_per_call"]["paper_example"][0]
    record["paper_example"] = {"wall_s": run["run_us"] / 1e6, "exit": run["exit"],
                               "verdicts": run["verdicts"]}
    print("workloads", flush=True)
    # per workload, [parent's lines, checkout's lines] or [checkout's lines]: the
    # parent runs first in even pairs
    runs = {}
    for name in (w["name"] for w in contract(checkout)["workloads"]):
        runs[name] = alternate(sides[::-1], PAIRS if parent else len(SEEDS),
                               lambda side, k: bench_run(side, name, k + 1, seconds))
    record["workloads"] = workloads({w: lines[-1] for w, lines in runs.items()}, seconds)
    print("tier-1", flush=True)
    record["tier1"] = tier1(checkout)
    if parent:
        better = {m["name"]: m["better"] for m in contract(checkout)["end_to_end"]}
        record["pairs"] = [pairs(w, lines[0], lines[1], better, seconds)
                           for w, lines in runs.items()]
        record["parent_rhs_per_call"] = probe_minima(probes[1])
        record["rhs_ratio_to_parent"] = probe_ratios(probes[0], probes[1])
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
