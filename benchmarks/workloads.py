"""Inputs and operations of the four benchmark workloads.

Every input is a plain scenario dict generated here with numpy alone, so
the program under test receives only JSON files, never objects built by
its own code. Inputs come from a fixed pool per workload: pool entry ``i``
is generated from the generator seed ``(workload tag, i)``, and the run's
``--seed`` picks which pool entries a run uses and in which order. The pool
lets every input have a golden result taken once on the seed commit
(``goldens.json``, written by ``golden.py``).

All workloads are closed loops with one client: an operation is one
``nashseek`` command line invocation, made in-process through
``nashseek.cli.main``, and the next one starts when the last one returns.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

POOL_SIZE = 8

# One sentence per workload on why it exists; printed in the environment block.
WHY = {
    "reference": (
        "the worked example (6 third-order players, directed 6-cycle): n is small "
        "and orders are uniform, so per-step interpreter overhead dominates"
    ),
    "sweep": (
        "run --replicates on a 5-player mixed-order config: replicates share shape, "
        "step and horizon, the input a batched integrator exploits, and the padded "
        "non-uniform plant branch runs"
    ),
    "large_n": (
        "96 order-2 players on a sparse random digraph: the dense lap @ z and "
        "n^2-wide array work replace interpreter overhead"
    ),
    "preflight": (
        "check and solve-ne at n in {8, 16, 24, 32} without integration: the dense "
        "pinned-Laplacian eigensolve and the game solvers dominate"
    ),
}

WORKLOADS = tuple(WHY)
_TAG = {name: k for k, name in enumerate(WORKLOADS)}

# Reference: the worked example over a short horizon.
REF_T_END = 1.0
REF_STEP = 1e-3
# Sweep: replicates of one explicit config per operation.
SWEEP_N = 5
SWEEP_ORDERS = (1, 2, 3, 4, 4)
SWEEP_REPLICATES = 4
SWEEP_STEP = 4e-3
SWEEP_T_END = 2.0
SWEEP_CONFIGS = 2
# Large n: one config per operation, cycling over a few pool entries.
LARGE_N = 96
LARGE_EXTRA_IN = 2
LARGE_STEP = 1e-3
LARGE_T_END = 0.25
LARGE_CONFIGS = 2
# Preflight: check and solve-ne at each size, on one pool entry.
PREFLIGHT_SIZES = (8, 16, 24, 32)
PREFLIGHT_CONFIGS = 1
# Coupling 0.94 makes gradient play take about 13,400 iterations, which puts
# a solve between check at n = 16 and at n = 24: two operations of the cycle
# are slower than every solve and two faster, so the median is a solve.
PREFLIGHT_RING_COUPLING = 0.94


@dataclass(frozen=True)
class Input:
    """One generated scenario file and the golden key of its results."""

    key: str
    config: dict


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a workload's operation cycle.

    ``kind`` is the subcommand; ``scenarios`` and ``steps`` are the number
    of scenarios it handles and the RK4 steps it integrates in total.
    """

    kind: str
    key: str
    config_path: str
    out_dir: str
    scenarios: int
    steps: int

    def argv(self) -> list[str]:
        if self.kind == "run":
            argv = ["run", self.config_path, "--out", self.out_dir]
            if self.scenarios > 1:
                argv += ["--replicates", str(self.scenarios), "--jobs", "1"]
            return argv
        return [self.kind, self.config_path]


def _rng(workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([_TAG[workload], index])


def _monotone_game(n: int, rng: np.random.Generator) -> dict:
    """Strongly monotone quadratic game with symmetric-part spectrum in [0.5, 3]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sym = q @ np.diag(rng.uniform(0.5, 3.0, size=n)) @ q.T
    skew = rng.uniform(-0.5, 0.5, size=(n, n))
    skew = skew - skew.T
    return {
        "jacobian": (sym + skew).tolist(),
        "offset": rng.uniform(-1.0, 1.0, size=n).tolist(),
    }


def _shuffled_ring_game(n: int, rng: np.random.Generator) -> dict:
    """Game ``I - b S`` with S a random directed n-cycle among the players.

    Its modulus (1 - b) and Lipschitz bound do not depend on n or on the
    draw, and offsets in [0.5, 1.5] keep the start's weight on the slowest
    mode about the same, so gradient play takes the same number of
    iterations (within 1%) on every pool entry and size.
    """
    order = rng.permutation(n)
    jac = np.eye(n)
    jac[order, np.roll(order, -1)] = -PREFLIGHT_RING_COUPLING
    return {"jacobian": jac.tolist(), "offset": rng.uniform(0.5, 1.5, size=n).tolist()}


def _strongly_connected(
    n: int, rng: np.random.Generator, extra_prob: float = 0.0, extra_in: int = 0
) -> dict:
    """A cycle through a shuffled node order plus extra arcs.

    ``extra_prob`` adds each other arc independently; ``extra_in`` gives
    every node that many more in-neighbors drawn at random.
    """
    w = np.zeros((n, n))
    order = rng.permutation(n)
    w[order[np.arange(1, n + 1) % n], order] = 1.0
    if extra_prob:
        w[rng.random((n, n)) < extra_prob] = 1.0
    for i in range(n):
        for j in rng.choice(n - 1, size=extra_in, replace=False):
            w[i, j + (j >= i)] = 1.0
    np.fill_diagonal(w, 0.0)
    return {"weights": w.tolist()}


def _reference_config() -> dict:
    return {
        "game": {"type": "ring", "n": 6},
        "graph": {"type": "cycle", "n": 6},
        "mode": "SaturatedDirected",
        "players": {"order": 3, "theta": 1.0 / 3.0, "delta": 1.0, "u_limit": 0.4815},
        "init": {"x0": [[float(i), 1.0, 1.0] for i in range(1, 7)], "z0": 1.0, "c0": 1.0},
        "sim": {
            "step_size": REF_STEP,
            "t_end": REF_T_END,
            "log_every": 10,
            "conv_window": REF_T_END,
        },
    }


def _sweep_config(index: int) -> dict:
    rng = _rng("sweep", index)
    orders = rng.permutation(SWEEP_ORDERS).tolist()
    thetas = rng.uniform(0.1, 0.45, size=SWEEP_N).tolist()
    return {
        "game": _monotone_game(SWEEP_N, rng),
        "graph": _strongly_connected(SWEEP_N, rng, extra_prob=0.3),
        "mode": "SaturatedDirected",
        "players": [
            {"order": m, "theta": th, "delta": 1.0} for m, th in zip(orders, thetas)
        ],
        "init": {
            "x0": {"random": {"low": -1.0, "high": 1.0}},
            "z0": {"random": {"low": -1.0, "high": 1.0}},
            "c0": 1.0,
        },
        "sim": {
            "step_size": SWEEP_STEP,
            "t_end": SWEEP_T_END,
            "log_every": 10,
            "conv_window": SWEEP_T_END,
        },
        "seed": int(rng.integers(0, 2**31)),
    }


def _large_config(index: int) -> dict:
    rng = _rng("large_n", index)
    return {
        "game": {"type": "ring", "n": LARGE_N},
        "graph": _strongly_connected(LARGE_N, rng, extra_in=LARGE_EXTRA_IN),
        "mode": "SaturatedDirected",
        "players": {"order": 2, "theta": 0.3, "delta": 1.0},
        "init": {"x0": {"random": {"low": -1.0, "high": 1.0}}, "z0": 0.0, "c0": 1.0},
        "sim": {
            "step_size": LARGE_STEP,
            "t_end": LARGE_T_END,
            "log_every": 10,
            "conv_window": LARGE_T_END,
        },
        "seed": int(rng.integers(0, 2**31)),
    }


def _preflight_config(index: int, n: int) -> dict:
    rng = _rng("preflight", index * 100 + n)
    return {
        "game": _shuffled_ring_game(n, rng),
        "graph": _strongly_connected(n, rng, extra_prob=0.15),
        "mode": "SaturatedDirected",
        "players": {"order": 2, "theta": 0.3, "delta": 1.0},
    }


def pool_inputs(workload: str, index: int) -> list[Input]:
    """The scenario inputs of pool entry ``index`` of ``workload``."""
    if workload == "reference":
        return [Input("reference/0", _reference_config())]
    if workload == "sweep":
        return [Input(f"sweep/{index}", _sweep_config(index))]
    if workload == "large_n":
        return [Input(f"large_n/{index}", _large_config(index))]
    if workload == "preflight":
        return [
            Input(f"preflight/{index}/n{n}", _preflight_config(index, n))
            for n in PREFLIGHT_SIZES
        ]
    raise ValueError(f"unknown workload {workload!r}")


def pool_size(workload: str) -> int:
    return 1 if workload == "reference" else POOL_SIZE


def select(workload: str, seed: int) -> list[int]:
    """Pool entries a run with generator seed ``seed`` uses, in cycle order."""
    count = {
        "reference": 1,
        "sweep": SWEEP_CONFIGS,
        "large_n": LARGE_CONFIGS,
        "preflight": PREFLIGHT_CONFIGS,
    }
    rng = np.random.default_rng([_TAG[workload], seed])
    return rng.choice(pool_size(workload), size=count[workload], replace=False).tolist()


def _steps(t_end: float, h: float) -> int:
    return round(t_end / h)


def operations(inp: Input, config_path: str, out_dir: str) -> list[Op]:
    """The CLI operations a workload makes on one input."""
    workload = inp.key.split("/")[0]
    if workload == "reference":
        return [Op("run", inp.key, config_path, out_dir, 1, _steps(REF_T_END, REF_STEP))]
    if workload == "sweep":
        k = SWEEP_REPLICATES
        return [Op("run", inp.key, config_path, out_dir, k, k * _steps(SWEEP_T_END, SWEEP_STEP))]
    if workload == "large_n":
        return [Op("run", inp.key, config_path, out_dir, 1, _steps(LARGE_T_END, LARGE_STEP))]
    return [
        Op("check", inp.key, config_path, out_dir, 1, 0),
        Op("solve-ne", inp.key, config_path, out_dir, 1, 0),
    ]


def shortened(inp: Input, op: Op, work_dir: Path) -> Op:
    """``op`` on ``inp`` cut to one logged interval; other kinds unchanged."""
    if op.kind != "run":
        return op
    sim = dict(inp.config["sim"])
    sim["t_end"] = sim["conv_window"] = sim["log_every"] * sim["step_size"]
    stem = inp.key.replace("/", "_") + "_short"
    path = work_dir / f"{stem}.json"
    path.write_text(json.dumps({**inp.config, "sim": sim}))
    steps = op.scenarios * sim["log_every"]
    return replace(op, config_path=str(path), out_dir=str(work_dir / stem), steps=steps)


def digest(config: dict) -> str:
    """Stable hash of a generated input, stored beside its golden."""
    text = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def materialize(workload: str, indices: list[int], work_dir: Path) -> tuple[list[Input], list[Op]]:
    """Write the selected inputs as JSON files and return the operation cycle."""
    inputs: list[Input] = []
    ops: list[Op] = []
    for index in indices:
        for inp in pool_inputs(workload, index):
            stem = inp.key.replace("/", "_")
            path = work_dir / f"{stem}.json"
            path.write_text(json.dumps(inp.config))
            inputs.append(inp)
            ops.extend(operations(inp, str(path), str(work_dir / stem)))
    return inputs, ops
