"""Golden results of every pool input, and the check of an operation against them.

Run as a script to (re)write ``goldens.json`` from the package in ``src/``:

    python3 benchmarks/golden.py

The committed file was taken on the seed commit of the benchmark. An
operation fails when its exit code is not 0 or when an output differs from
its golden by more than the tolerances below. Every run must also keep the
certified properties: ``bound_violated`` false and ``c_monotone`` true.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"

# Run summaries: floats to RTOL/ATOL; t_converge to one logged interval.
RTOL = 1e-6
ATOL = 1e-9
# check prints 6 (and, for the condition number, 4) significant digits.
CHECK_RTOL = 1e-3
# solve-ne prints 10 significant digits, and gradient play stops at a
# gradient residual of 1e-10, which leaves up to 1e-10 / modulus in y.
SOLVE_RTOL = 1e-8
SOLVE_ATOL = 1e-8
DEVIATION_ATOL = 1e-8

TOLERANCES = {
    "run_rtol": RTOL,
    "run_atol": ATOL,
    "t_converge_atol": "one logged interval (log_every * step_size)",
    "check_rtol": CHECK_RTOL,
    "solve_rtol": SOLVE_RTOL,
    "solve_atol": SOLVE_ATOL,
    "deviation_atol": DEVIATION_ATOL,
}

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\binf\b|\bnan\b")
_SUMMARY_KEYS = ("converged", "t_converge", "final_err", "max_abs_u", "c_final_range")


def _summaries(op) -> list[dict]:
    out = Path(op.out_dir)
    paths = (
        [out / f"replicate_{r:02d}" / "summary.json" for r in range(op.scenarios)]
        if op.scenarios > 1
        else [out / "summary.json"]
    )
    records = []
    for path in paths:
        data = json.loads(path.read_text())
        sim = data["resolved_config"]["sim"]
        rec = {key: data[key] for key in _SUMMARY_KEYS}
        rec["bound_violated"] = data["bound_violated"]
        rec["c_monotone"] = data["c_monotone"]
        rec["log_dt"] = sim["log_every"] * sim["step_size"]
        records.append(rec)
    return records


def _check_lines(stdout: str) -> list[list]:
    lines = []
    for line in stdout.splitlines():
        m = re.match(r"\[(PASS|FAIL)\] ([^:]+): (.*)", line)
        if m:
            nums = [float(v) for v in _NUMBER.findall(m.group(3))]
            lines.append([m.group(1), m.group(2), nums])
    return lines


def _solve_lines(stdout: str) -> dict:
    rec = {}
    for line in stdout.splitlines():
        label, _, rest = line.partition(":")
        nums = [float(v) for v in _NUMBER.findall(rest)]
        if label.startswith("closed-form"):
            rec["closed_form"] = nums
        elif label.startswith("gradient-play"):
            rec["gradient_play"] = nums
        elif label.startswith("max deviation"):
            rec["deviation"] = nums[0]
    return rec


def extract(op, exit_code: int, stdout: str):
    """The golden-comparable record of one finished operation."""
    if exit_code != 0:
        return {"exit": exit_code}
    if op.kind == "run":
        return {"exit": 0, "summaries": _summaries(op)}
    if op.kind == "check":
        return {"exit": 0, "lines": _check_lines(stdout)}
    return {"exit": 0, **_solve_lines(stdout)}


def _close(a, b, rtol: float, atol: float) -> bool:
    if isinstance(a, list) or isinstance(b, list):
        return (
            isinstance(a, list)
            and isinstance(b, list)
            and len(a) == len(b)
            and all(_close(x, y, rtol, atol) for x, y in zip(a, b))
        )
    if a is None or b is None or isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=rtol, abs_tol=atol)


def compare(kind: str, record: dict, golden: dict) -> list[str]:
    """Mismatches between an operation's record and its golden; empty if it passes."""
    if record.get("exit") != 0:
        return [f"exit {record.get('exit')}"]
    bad = []
    if kind == "run":
        got, want = record["summaries"], golden["summaries"]
        if len(got) != len(want):
            return [f"{len(got)} summaries, golden has {len(want)}"]
        for r, (g, w) in enumerate(zip(got, want)):
            if g["bound_violated"] or not g["c_monotone"]:
                bad.append(f"replicate {r}: bound_violated={g['bound_violated']} "
                           f"c_monotone={g['c_monotone']}")
            for key in ("converged", "final_err", "max_abs_u", "c_final_range"):
                if not _close(g[key], w[key], RTOL, ATOL):
                    bad.append(f"replicate {r}: {key} {g[key]} vs golden {w[key]}")
            if not _close(g["t_converge"], w["t_converge"], 0.0, w["log_dt"] + ATOL):
                bad.append(f"replicate {r}: t_converge {g['t_converge']} vs golden {w['t_converge']}")
    elif kind == "check":
        got, want = record["lines"], golden["lines"]
        if [l[:2] for l in got] != [l[:2] for l in want]:
            bad.append(f"verdict lines {[l[:2] for l in got]} vs golden {[l[:2] for l in want]}")
        elif not all(_close(g[2], w[2], CHECK_RTOL, 0.0) for g, w in zip(got, want)):
            bad.append("check line numbers differ from golden")
    else:
        for key in ("closed_form", "gradient_play"):
            if not _close(record.get(key), golden["closed_form"], SOLVE_RTOL, SOLVE_ATOL):
                bad.append(f"{key} {record.get(key)} vs golden {golden['closed_form']}")
        dev = record.get("deviation")
        if dev is None or not _close(dev, golden["deviation"], 0.0, DEVIATION_ATOL):
            bad.append(f"deviation {dev} vs golden {golden['deviation']}")
    return bad


def load() -> dict:
    return json.loads(GOLDENS.read_text())


def main() -> int:
    import contextlib
    import io
    import shutil

    import run as bench

    cli = bench.import_package()["cli"]
    import workloads

    work = bench.work_dir("goldens")
    inputs = {}
    try:
        for workload in workloads.WORKLOADS:
            for index in range(workloads.pool_size(workload)):
                inps, ops = workloads.materialize(workload, [index], work)
                entry = {inp.key: {"digest": workloads.digest(inp.config)} for inp in inps}
                for op in ops:
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        code = cli.main(op.argv())
                    rec = extract(op, code, buf.getvalue())
                    if rec["exit"] != 0:
                        raise SystemExit(f"{op.key} {op.kind} exited {code}")
                    entry[op.key][op.kind] = rec
                inputs.update(entry)
                print(f"{workload} {index}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    payload = {
        "taken_on": bench.source_identity(),
        "tolerances": TOLERANCES,
        "inputs": inputs,
    }
    # One line per input keeps the file diffable without one line per number.
    rows = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(inputs.items())]
    GOLDENS.write_text(
        f'{{"taken_on": {json.dumps(payload["taken_on"], sort_keys=True)},\n'
        f' "tolerances": {json.dumps(payload["tolerances"], sort_keys=True)},\n'
        ' "inputs": {\n' + ",\n".join(rows) + "\n }}\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
