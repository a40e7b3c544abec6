"""Run the regression set through ``nashseek.cli.main`` and record every output.

Usage: python3 tools/regress.py OUT

Every command runs in-process from this checkout's ``src/``. For a command
NAME, OUT/NAME holds the files the command wrote (under ``files/``), its
``stdout``, its ``stderr`` and its ``exit`` code, with OUT written as
``<OUT>`` in the streams; an exception that escapes ``main`` is recorded as
its last traceback line in ``exit``. Two checkouts give byte-identical
results exactly when ``diff -r`` finds nothing between their OUT
directories:

    python3 tools/regress.py /tmp/a          # in one checkout
    python3 tools/regress.py /tmp/b          # in the other
    diff -r /tmp/a /tmp/b

The set: a 100 s run of the worked example; the ``sweep``, ``large_n`` and
``preflight`` pool entries of the benchmark, generated by
``benchmarks/workloads.py`` and run as its operations run them; a 20 s run
of the worked example in each mode; a mixed-order and a faulting replicate
batch; ``check`` and ``run`` on a config that is not strongly connected;
``check`` on a missing file; ``paper-example``; a ring of order-12
players, where the control law sums enough terms for the order of
summation to show; and a ring of order-2 players started at x0 = 1e308,
whose state stays finite while its sum overflows; three replicates of
16 order-3 players on a weighted digraph, whose operator is over the
dense bound, so they step as one stacked batch on the blockwise path; and
``solve-ne`` on games that gradient play's step and stop rules must
handle: a skew part ten times the modulus, J = 1e-300 I and 1e300 I with
offsets of the same scale, and the preflight ring I - 0.94 S at n = 32;
``check`` with the large-theta override on a theta above 1, a theta below
0 and a negative delta, which its per-player lines fail; ``solve-ne``
on a file without a game block; and ``run`` on players that PlayerSpec
rejects (theta 0.6 without the override, the worked example's players
under a 0.4 limit, a negative delta) and, with ``check``, on an unknown
form, which is a config error; and ``check`` on graphs for its
pinned-Laplacian line: a strongly connected 3-node digraph at weights of
1e300 and 1e-300, the chain closed by an arc of 1e-13 (condition 7.4e13),
a 24-node digraph with weights spanning 10^+-6, and the 24-cycle; and
``run`` and ``check`` on a ring of three order-2 players with an x0 row
one entry short, a 2x2 z0, c0 = 0 or ``log_every`` = 2.5, each a config
error.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))
sys.dont_write_bytecode = True  # leave no cache files under benchmarks/

import workloads  # noqa: E402
from nashseek.cli import main  # noqa: E402

SWEEP_ENTRIES = range(workloads.POOL_SIZE)
LARGE_N_ENTRIES = (0, 1)
PREFLIGHT_ENTRY = 0

# the smallest configs that replicate, mix orders and fault
_PAIR = {
    "game": {"type": "ring", "n": 2},
    "graph": {"type": "cycle", "n": 2},
    "players": {"order": 1, "theta": 0.3, "delta": 1.0},
    "sim": {"step_size": 2e-3, "t_end": 2.0, "log_every": 4, "conv_window": 1.0},
}
MIXED_ORDERS = dict(
    _PAIR,
    players=[{"order": 1, "theta": 0.3, "delta": 1.0}, {"order": 3, "theta": 0.3, "delta": 1.0}],
    init={"x0": {"random": {"low": -1, "high": 1}}, "z0": {"random": {"low": -1, "high": 1}}},
    seed=4,
)
# z0 drawn from [0, 6] at this step: some replicates diverge, some do not
FAULTING = dict(
    _PAIR,
    init={"z0": {"random": {"low": 0.0, "high": 6.0}}},
    seed=5,
    sim={"step_size": 0.05, "t_end": 2.0, "log_every": 1, "conv_window": 1.0},
)
NOT_STRONGLY_CONNECTED = dict(
    _PAIR,
    game={"type": "ring", "n": 3},
    graph={"weights": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]},
)
ORDER_12_RING = {
    "game": {"type": "ring", "n": 3},
    "graph": {"type": "cycle", "n": 3},
    "players": {"order": 12, "theta": 0.3, "delta": 1.0},
    "init": {"x0": {"random": {"low": -1.0, "high": 1.0}}, "z0": 0.5, "c0": 1.0},
    "sim": {"step_size": 1e-3, "t_end": 50.0, "log_every": 10, "conv_window": 10.0},
    "seed": 12,
}
# 16 order-3 players: an operator over sim._DENSE_MAX_BYTES, so the
# replicates step as one stacked blockwise batch, pinned with non-unit
# weights on a cycle with extra arcs
_ARCS = {(i, (i + 1) % 16): 1.0 for i in range(16)}
_ARCS.update({(0, 5): 0.5, (3, 11): 2.5, (7, 2): 1.5, (9, 14): 0.25, (12, 4): 3.0, (15, 8): 0.75})
STACKED_BLOCKWISE = {
    "game": {"type": "ring", "n": 16},
    "graph": {"weights": [[_ARCS.get((i, j), 0.0) for j in range(16)] for i in range(16)]},
    "players": {"order": 3, "theta": 0.3, "delta": 1.0},
    "init": {"x0": {"random": {"low": -1.0, "high": 1.0}}, "z0": {"random": {"low": -1.0, "high": 1.0}}},
    "sim": {"step_size": 2e-3, "t_end": 2.0, "log_every": 5, "conv_window": 1.0},
    "seed": 16,
}
# every entry finite, their sum not: the run passes the exact check behind
# the loop's finiteness screen and logs nan outputs
OVERFLOWING_SUM = {
    "game": {"type": "ring", "n": 3},
    "graph": {"type": "cycle", "n": 3},
    "players": {"order": 2, "theta": 0.3, "delta": 1.0},
    "init": {"x0": 1e308},
    # the state first goes non-finite at t = 1.66
    "sim": {"step_size": 2e-3, "t_end": 1.0, "log_every": 4, "conv_window": 0.5},
}


def _pinned_laplacian_graphs() -> dict[str, dict]:
    """Graphs for ``check``'s pinned-Laplacian line, by command name.

    A strongly connected 3-node digraph at 1e300 and at 1e-300; the one-way
    chain closed by an arc of 1e-13, whose pinned Laplacian has condition
    7.4e13; 24 nodes on a shuffled cycle with extra arcs, weights spanning
    10^+-6 (condition 7.8e10, one block eigensolved); and the 24-cycle,
    whose blocks all tie.
    """
    rng = random.Random(24)
    order = rng.sample(range(24), 24)
    arcs = {(order[k], order[k - 1]) for k in range(24)}
    arcs |= {(i, j) for i in range(24) for j in range(24) if i != j and rng.random() < 0.3}
    weighted = [[10.0 ** rng.uniform(-6, 6) if (i, j) in arcs else 0.0 for j in range(24)]
                for i in range(24)]
    graphs = {
        "weights-1e300": [[0, 2e300, 1e300], [1e300, 0, 0], [0, 1e300, 0]],
        "weights-1e-300": [[0, 2e-300, 1e-300], [1e-300, 0, 0], [0, 1e-300, 0]],
        "chain-1e-13": [[0, 0, 1e-13], [1, 0, 0], [0, 1, 0]],
        "weighted-24": weighted,
    }
    configs = {name: dict(_PAIR, game={"type": "ring", "n": len(w)}, graph={"weights": w})
               for name, w in graphs.items()}
    configs["cycle-24"] = dict(
        _PAIR, game={"type": "ring", "n": 24}, graph={"type": "cycle", "n": 24}
    )
    return configs


# values PlayerSpec rejects whatever the override
PLAYERS_OUTSIDE_THE_OVERRIDE = {
    "theta-above-one": {"order": 1, "theta": 1.5, "delta": 1.0},
    "theta-below-zero": {"order": 1, "theta": -0.2, "delta": 1.0},
    "negative-delta": {"order": 2, "theta": 0.3, "delta": -1.0, "u_limit": 1.0},
}

# a ring of three order-2 players, and one init or sim entry each that
# breaks a rule of run's inputs
_RING_3 = dict(
    _PAIR,
    game={"type": "ring", "n": 3},
    graph={"type": "cycle", "n": 3},
    players={"order": 2, "theta": 0.3, "delta": 1.0},
)
MALFORMED_RING_3 = {
    "x0-row-short": {"init": {"x0": [[0.0, 0.0], [0.0, 0.0], [0.0]]}},
    "z0-2x2": {"init": {"z0": [[0.0, 0.0], [0.0, 0.0]]}},
    "c0-zero": {"init": {"c0": 0.0}},
    "log-every-2.5": {"sim": dict(_PAIR["sim"], log_every=2.5)},
}


def _solve_ne_games() -> dict[str, dict]:
    """Games for ``solve-ne``, by command name."""
    n = 8
    u = [n**-0.5] * n
    v = [(-1) ** i * n**-0.5 for i in range(n)]
    # I + 10 (u v^T - v u^T): modulus 1 and a skew part ten times larger
    skew = [[float(i == j) + 10.0 * (u[i] * v[j] - v[i] * u[j]) for j in range(n)] for i in range(n)]
    games = {"solve-ne-skew": {"jacobian": skew, "offset": [1.0] * n}}
    for name, scale in (("tiny", 1e-300), ("huge", 1e300)):
        eye = [[scale * (i == j) for j in range(2)] for i in range(2)]
        games[f"solve-ne-{name}"] = {"jacobian": eye, "offset": [scale, scale]}
    ring = [[1.0 if i == j else -0.94 if j == (i + 1) % 32 else 0.0 for j in range(32)] for i in range(32)]
    games["solve-ne-ring-32"] = {"jacobian": ring, "offset": [1.0] * 32}
    return {name: {"game": game} for name, game in games.items()}


def _reference(t_end: float, conv_window: float, **changes) -> dict:
    config = workloads.pool_inputs("reference", 0)[0].config
    sim = dict(config["sim"], t_end=t_end, conv_window=conv_window)
    return {**config, "sim": sim, **changes}


def _modes() -> dict[str, dict]:
    """A 20 s worked-example run in each mode, with the players and graph it requires."""
    n = 6
    symmetric = [[float((i - j) % n in (1, n - 1)) for j in range(n)] for i in range(n)]

    def ref(mode: str, **changes) -> dict:
        return _reference(20.0, 10.0, mode=mode, **changes)

    return {
        "mode-SaturatedDirected": ref("SaturatedDirected"),
        "mode-Unsaturated": ref("Unsaturated"),
        "mode-UndirectedAdaptive": ref("UndirectedAdaptive", graph={"weights": symmetric}),
        "mode-AlternateForm": ref(
            "AlternateForm", players={"order": 3, "theta": 1.0 / 3.0, "delta": 1.0, "form": "alternate"}
        ),
        "mode-FirstOrder": ref(
            "FirstOrder",
            players={"order": 1, "theta": 1.0 / 3.0, "delta": 1.0},
            init={"x0": [[float(i)] for i in range(1, n + 1)], "z0": 1.0, "c0": 1.0},
        ),
    }


def commands(inputs: Path, out: Path) -> dict[str, list[str]]:
    """Each command of the set by name, its config files written under ``inputs``."""

    def config(name: str, data: dict) -> str:
        path = inputs / f"{name}.json"
        path.write_text(json.dumps(data))
        return str(path)

    def run(name: str, data: dict, *flags: str) -> list[str]:
        return ["run", config(name, data), "--out", str(out / name / "files"), *flags]

    cmds = {"reference-100s": run("reference-100s", _reference(100.0, 10.0))}
    pools = [("sweep", i) for i in SWEEP_ENTRIES]
    pools += [("large_n", i) for i in LARGE_N_ENTRIES] + [("preflight", PREFLIGHT_ENTRY)]
    for workload, index in pools:
        for inp in workloads.pool_inputs(workload, index):
            stem = inp.key.replace("/", "_")
            path = config(stem, inp.config)
            for op in workloads.operations(inp, path, str(out / f"{stem}-run" / "files")):
                cmds[f"{stem}-{op.kind}"] = op.argv()
    for name, data in _modes().items():
        cmds[name] = run(name, data)
    cmds["mixed-orders"] = run("mixed-orders", MIXED_ORDERS, "--replicates", "3")
    cmds["faulting"] = run("faulting", FAULTING, "--replicates", "6")
    cmds["check-reference"] = ["check", config("reference", _reference(1.0, 1.0))]
    cmds["run-not-strongly-connected"] = run("run-not-strongly-connected", NOT_STRONGLY_CONNECTED)
    cmds["check-not-strongly-connected"] = ["check", cmds["run-not-strongly-connected"][1]]
    cmds["check-missing-file"] = ["check", str(inputs / "missing.json")]
    cmds["paper-example"] = ["paper-example", "--out", str(out / "paper-example" / "files")]
    cmds["order-12-ring"] = run("order-12-ring", ORDER_12_RING)
    cmds["overflowing-sum"] = run("overflowing-sum", OVERFLOWING_SUM)
    cmds["stacked-blockwise"] = run("stacked-blockwise", STACKED_BLOCKWISE, "--replicates", "3")
    for name, data in _solve_ne_games().items():
        cmds[name] = ["solve-ne", config(name, data)]
    for name, players in PLAYERS_OUTSIDE_THE_OVERRIDE.items():
        data = dict(_PAIR, players=players, allow_large_theta=True)
        cmds[f"check-{name}"] = ["check", config(f"check-{name}", data)]
    no_game = {key: value for key, value in _PAIR.items() if key != "game"}
    cmds["solve-ne-no-game"] = ["solve-ne", config("solve-ne-no-game", no_game)]
    reference = _reference(1.0, 1.0)
    rejected = {
        "theta-0.6": dict(_PAIR, players={"order": 1, "theta": 0.6, "delta": 1.0}),
        "reference-u-limit-0.4": dict(reference, players=dict(reference["players"], u_limit=0.4)),
        "negative-delta": dict(_PAIR, players=PLAYERS_OUTSIDE_THE_OVERRIDE["negative-delta"]),
        "unknown-form": dict(
            _PAIR, players={"order": 2, "theta": 0.3, "delta": 1.0, "form": "weird"}
        ),
    }
    for name, data in rejected.items():
        cmds[f"run-{name}"] = run(f"run-{name}", data)
    cmds["check-unknown-form"] = ["check", cmds["run-unknown-form"][1]]
    for name, data in _pinned_laplacian_graphs().items():
        cmds[f"check-{name}"] = ["check", config(f"check-{name}", data)]
    for name, changes in MALFORMED_RING_3.items():
        cmds[f"run-{name}"] = run(f"run-{name}", {**_RING_3, **changes})
        cmds[f"check-{name}"] = ["check", cmds[f"run-{name}"][1]]
    return cmds


def record(name: str, argv: list[str], out: Path) -> None:
    """Run one command and write its streams and exit code under out/name."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = str(main(argv))
        except Exception as exc:  # recorded, so a traceback shows up as a difference
            code = traceback.format_exception_only(type(exc), exc)[-1].strip()
    where = out / name
    where.mkdir(parents=True, exist_ok=True)
    for stream, text in (("stdout", stdout.getvalue()), ("stderr", stderr.getvalue())):
        (where / stream).write_text(text.replace(str(out), "<OUT>"))
    (where / "exit").write_text(code.replace(str(out), "<OUT>") + "\n")


def run_set(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    inputs = out / "inputs"
    inputs.mkdir(parents=True)
    for name, cmd in commands(inputs, out).items():
        print(name, flush=True)
        record(name, cmd, out)
    return 0


if __name__ == "__main__":
    sys.exit(run_set(sys.argv[1:]))
