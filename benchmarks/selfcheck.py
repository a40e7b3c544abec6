"""Self-checks of the benchmark harness.

    python3 benchmarks/selfcheck.py

1. A perturbed golden, and an operation that exits non-zero, are each
   counted as a failed operation, not as a crash of the harness.
2. Every exact count repeats between two traced runs of the same seed.
3. Every metric that BENCHMARK.json names appears, with its unit, for every
   workload, and every per-layer metric appears in the traced report.

Exits 0 when every check holds; prints one line per check.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import golden
import run as bench
import tracer
import workloads

SECONDS = "1"


def _bench(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(bench.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=bench.ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"benchmark run failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _perturb(value):
    """The first float of a golden record, moved by 1%."""
    if isinstance(value, float):
        return value * 1.01 + 1e-3, True
    if isinstance(value, list):
        for k, item in enumerate(value):
            new, done = _perturb(item)
            if done:
                return value[:k] + [new] + value[k + 1:], True
    if isinstance(value, dict):
        for key in sorted(value):
            if key in ("exit", "log_dt"):
                continue
            new, done = _perturb(value[key])
            if done:
                return {**value, key: new}, True
    return value, False


def check_golden_gate() -> list[str]:
    modules = bench.import_package()
    goldens = golden.load()
    problems = []
    work = bench.work_dir("selfcheck")
    try:
        for workload in ("reference", "preflight"):
            _, ops = workloads.materialize(workload, workloads.select(workload, 0), work)
            for op in ops[:2]:
                clean = bench.Runner(modules, goldens)
                clean.execute(op)
                bad = copy.deepcopy(goldens)
                entry = bad["inputs"][op.key]
                entry[op.kind], changed = _perturb(entry[op.kind])
                perturbed = bench.Runner(modules, bad)
                perturbed.execute(op)
                if clean.failures or not changed or len(perturbed.failures) != 1:
                    problems.append(f"{op.kind} {op.key}: clean {clean.failures}, "
                                    f"perturbed {perturbed.failures}")
        broken = workloads.Op("run", "reference/0", str(work / "missing.json"), str(work / "x"), 1, 0)
        runner = bench.Runner(modules, goldens)
        _, code = runner.execute(broken)
        if code != 2 or len(runner.failures) != 1:
            problems.append(f"missing config: exit {code}, failures {runner.failures}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return problems


def _declared(workload: str, declared: list[dict], result: dict, lines: list[str]) -> list[str]:
    """Every declared metric is in the result with its unit, and printed."""
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"{workload}: not correct: {result}")
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append(f"{workload}: {m['name']} missing or wrong unit: {got}")
        if not any(line.startswith(f"{workload} {m['name']} = ") for line in lines):
            problems.append(f"{workload}: {m['name']} not printed")
    return problems


def check_runs() -> list[str]:
    contract = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in workloads.WORKLOADS:
        plain, plain_lines = _bench(workload, 3, 0)
        traced, traced_lines = _bench(workload, 3, 1)
        again, _ = _bench(workload, 3, 1)
        problems += _declared(workload, contract["end_to_end"], plain, plain_lines)
        problems += _declared(workload, contract["per_layer"], traced, traced_lines)
        printed = {line.split()[1] for line in plain_lines + traced_lines
                   if line.startswith(f"{workload} ")}
        wanted = set(tracer.PER_LAYER_UNITS) | {"fail_frac", "op_samples"}
        if workload != "preflight":
            wanted.add("steps_per_s")
        if wanted - printed:
            problems.append(f"{workload}: not printed: {sorted(wanted - printed)}")
        for name in tracer.EXACT_COUNTS:
            if traced["metrics"].get(name) != again["metrics"].get(name):
                problems.append(f"{workload}: {name} differs between runs of one seed")
    return problems


def main() -> int:
    ok = True
    for name, check in (("golden gate", check_golden_gate), ("runs and counts", check_runs)):
        problems = check()
        ok &= not problems
        print(f"[{'PASS' if not problems else 'FAIL'}] {name}")
        for line in problems:
            print(f"    {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
