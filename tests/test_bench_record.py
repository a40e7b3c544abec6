"""How tools/bench_record.py assembles its record from result lines and probe rounds.

No subprocess runs: the benchmark runs, the probe, the tier-1 run and the
checkout's identity are replaced by synthetic ones, so these tests check
which runs the record is built from, not any time.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
BETTER = {m["name"]: m["better"] for m in CONTRACT["end_to_end"]}


@pytest.fixture(scope="module")
def bench_record():
    """tools/bench_record.py as a module, without bytecode files or a lasting sys.path entry."""
    path, dont_write = list(sys.path), sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_record", ROOT / "tools" / "bench_record.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
        sys.dont_write_bytecode = dont_write
    return module


def metric_value(side: str, seed: int) -> float:
    """The change reads the seed; the parent one more up to seed 7 and one less after."""
    if side == "change":
        return float(seed)
    return float(seed + 1 if seed <= 7 else seed - 1)


def result_line(side: str, seed: int) -> dict:
    return {
        "correct": True,
        "attempted": 10 * seed,
        "failed": int(seed == 2),
        "metrics": {
            name: {"value": metric_value(side, seed), "unit": "s"} for name in BETTER
        },
    }


def probe(side: str, r: int) -> dict:
    """Probe round r of one side: the change's times rise with r, the parent's stay at 2."""
    us = float(r + 1) if side == "change" else 2.0
    return {
        "players": "synthetic",
        "step_size": 1e-3,
        "sizes": [
            {"n": 3, "state_len": 21, "dense_us": us, "blockwise_us": 2 * us},
            {"n": 96, "state_len": 9600, "blockwise_us": 3 * us},
        ],
        "pinning": [{"graph": "cycle", "n": 3, "diagnostic_us": us}],
        # a table that no list in the tool names
        "unlisted": [{"order": 20, "build_us": 5 * us}],
        "paper_example": [{"exit": 0, "verdicts": ["[PASS] synthetic"], "run_us": 1e6 * us}],
    }


def record(bench_record, monkeypatch, tmp_path, paired: bool):
    """Run the tool's main on synthetic runs; the record and the calls in the order made."""
    parent = tmp_path / "parent"
    sides = {ROOT: "change", parent: "parent"}
    calls, rounds = [], {"change": 0, "parent": 0}

    def bench_run(checkout, workload, seed, seconds):
        calls.append((workload, seed, sides[checkout]))
        return result_line(sides[checkout], seed)

    def rhs_times(checkout):
        side = sides[checkout]
        calls.append(("probe", rounds[side], side))
        rounds[side] += 1
        return probe(side, rounds[side] - 1)

    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "bench_run", bench_run)
    monkeypatch.setattr(bench_record, "rhs_times", rhs_times)
    monkeypatch.setattr(bench_record, "tier1", lambda checkout: {"wall_s": 1.0, "summary": ""})
    monkeypatch.setattr(bench_record, "identity", lambda checkout: {})
    argv = ["--label", "synthetic", "--checkout", str(ROOT)]
    if paired:
        argv += ["--pairs-against", str(parent)]
    assert bench_record.main(argv) == 0
    return json.loads((tmp_path / "BENCH_synthetic.json").read_text()), calls


@pytest.mark.parametrize("paired", [False, True], ids=["unpaired", "paired"])
def test_workloads_are_the_checkouts_runs_at_seeds_one_to_five(
    bench_record, monkeypatch, tmp_path, paired
):
    rec, calls = record(bench_record, monkeypatch, tmp_path, paired)
    runs = [call for call in calls if call[0] != "probe"]
    # each seed runs once per side present: 80 runs paired, 20 unpaired
    seeds = range(1, 11) if paired else range(1, 6)
    assert sorted(runs) == sorted(
        (w, seed, side)
        for w in WORKLOADS
        for seed in seeds
        for side in (("change", "parent") if paired else ("change",))
    )
    assert list(rec["workloads"]) == WORKLOADS
    for w, entry in rec["workloads"].items():
        assert (entry["seeds"], entry["failed"], entry["attempted"]) == ([1, 2, 3, 4, 5], 1, 150)
        for name, metric in entry["metrics"].items():
            assert metric["runs"] == [1.0, 2.0, 3.0, 4.0, 5.0]
            assert (metric["median"], metric["q1"], metric["q3"]) == (3.0, 2.0, 4.0)
    assert ("pairs" in rec) is paired


def test_pairs_keep_win_counts_and_first_alternation(bench_record, monkeypatch, tmp_path):
    rec, calls = record(bench_record, monkeypatch, tmp_path, paired=True)
    assert [p["workload"] for p in rec["pairs"]] == WORKLOADS
    for p in rec["pairs"]:
        order = [side for w, _, side in calls if w == p["workload"]]
        assert p["first"] == order[::2] == ["parent", "change"] * 5
        assert p["seeds"] == list(range(1, 11))
        assert p["failed"] == {"parent": 1, "change": 1}
        for name, direction in BETTER.items():
            # the change is lower at seeds 1 to 7 and higher at 8 to 10
            assert p[name]["change_wins"] == (7 if direction == "lower" else 3)
            assert p[name]["pairs"] == 10
            assert p[name]["change"]["runs"] == [float(s) for s in range(1, 11)]
            assert p[name]["parent"]["runs"] == sorted(
                metric_value("parent", s) for s in range(1, 11)
            )
            # the workloads' runs are among the change side's runs of the pairs
            assert set(rec["workloads"][p["workload"]]["metrics"][name]["runs"]) <= set(
                p[name]["change"]["runs"]
            )


def test_every_probe_table_reaches_the_record(bench_record, monkeypatch, tmp_path):
    rec, calls = record(bench_record, monkeypatch, tmp_path, paired=True)
    probes = [side for w, _, side in calls if w == "probe"]
    # the checkout goes first in even rounds
    assert probes == ["change", "parent", "parent", "change"] * 2 + ["change", "parent"]
    tables = [k for k, v in probe("change", 0).items() if isinstance(v, list)]
    ratios = rec["rhs_ratio_to_parent"]
    assert [row["table"] for row in ratios] == [
        table for table in tables for _ in probe("change", 0)[table]
    ]
    for key, side in (("rhs_per_call", "change"), ("parent_rhs_per_call", "parent")):
        merged = rec[key]
        assert merged["rounds"] == 5
        for table in tables:
            # each time at its minimum over the rounds, the change's from round 0
            assert merged[table] == json.loads(json.dumps(probe(side, 0)[table]))
    rows = iter(ratios)
    for table in tables:
        for row in probe("change", 0)[table]:
            ratio = next(rows)
            timed = [k.removesuffix("_us") for k in row if k.endswith("_us")]
            assert sorted(k for k in ratio if k.endswith("_ratio_median")) == sorted(
                f"{stem}_ratio_median" for stem in timed
            )
            for stem in timed:
                assert ratio[f"{stem}_ratio_rounds"] == [0.5, 1.0, 1.5, 2.0, 2.5]
                assert ratio[f"{stem}_ratio_median"] == 1.5
    assert rec["paper_example"] == {"wall_s": 1.0, "exit": 0, "verdicts": ["[PASS] synthetic"]}
