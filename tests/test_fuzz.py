"""Mutated scenario files: run, check and solve-ne end in a classified exit
with strict JSON output and at most one line on stderr.

Each example takes a small valid scenario in one of the five modes,
replaces, adds or deletes a few of its fields with values of the wrong
type, out of range or extreme, or with valid values that break a method
hypothesis or make the run diverge, and drives the command line on it,
with or without run's --replicates flag. Every outcome must be an exit
code in {0, 2, 3, 4}, never an uncaught exception, and every summary.json
written must parse as strict JSON. Exit 0 leaves stderr empty; any other
exit prints exactly one stderr line, except check after a [FAIL] line,
which prints none. A second property runs check and then run on each
drawn config: when check exits 0, run exits 0 or 4, and when check exits
2, run exits 2 with the same stderr line. Values stay small enough that a
run finishes in milliseconds.
"""

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nashseek.cli import main

BASE = {
    "game": {"type": "ring", "n": 3},
    "graph": {"type": "cycle", "n": 3},
    "mode": "SaturatedDirected",
    "players": [
        {"order": 1, "theta": 0.3, "delta": 1.0},
        {"order": 2, "theta": 0.25, "delta": 1.0},
        {"order": 3, "theta": 0.4, "delta": 1.0, "u_limit": 2.0},
    ],
    "init": {"x0": {"random": {"low": -1.0, "high": 1.0}}, "z0": 0.5, "c0": 1.0},
    "sim": {"step_size": 0.01, "t_end": 0.2, "log_every": 2, "conv_window": 0.1},
    "seed": 3,
}
# One valid scenario per mode, so that mutations start from a run that succeeds.
_COMPLETE = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
BASES = {
    "SaturatedDirected": BASE,
    "Unsaturated": {**BASE, "mode": "Unsaturated"},
    "FirstOrder": {**BASE, "mode": "FirstOrder", "players": {"order": 1, "theta": 0.3, "delta": 1.0}},
    "AlternateForm": {
        **BASE,
        "mode": "AlternateForm",
        "players": [dict(p, form="alternate") for p in BASE["players"]],
    },
    "UndirectedAdaptive": {**BASE, "mode": "UndirectedAdaptive", "graph": {"weights": _COMPLETE}},
}

# Every field of BASE, plus keys it leaves out; a path ends at the key to mutate.
PATHS = [
    ("game",), ("game", "type"), ("game", "n"), ("game", "jacobian"), ("game", "offset"),
    ("graph",), ("graph", "type"), ("graph", "n"), ("graph", "weights"),
    ("mode",), ("players",), ("players", 0), ("seed",), ("allow_large_theta",),
    ("init",), ("init", "x0"), ("init", "z0"), ("init", "c0"),
    ("sim",), ("sim", "step_size"), ("sim", "t_end"), ("sim", "log_every"),
    ("sim", "conv_tol"), ("sim", "conv_window"), ("extra",),
] + [
    ("players", i, key)
    for i in range(3)
    for key in ("order", "theta", "delta", "u_limit", "form", "auto_delta_margin")
]

DELETE = object()
# Deleting these falls back to t_end = 100 s of simulated time: slow, not wrong.
SLOW_DELETES = {("sim",), ("sim", "t_end")}

# Wrong types, out-of-range and extreme numbers (20 and 21 are the order cap
# and one past it, 10**400 is beyond double range), and well-formed blocks
# placed where they do not belong.
values = st.sampled_from(
    [
        None, True, False, 0, 1, 2, 3, 7, 20, 21, -1, 0.0, 0.3, 0.5, 0.7, 1.5, -0.2,
        1e-300, 1e300, -1e300, 10**400, "", "x", "ring", "cycle", "standard", "alternate",
        "AlternateForm", "Unsaturated", "FirstOrder", "UndirectedAdaptive",
        [], [1], ["a"], [[1]], [[0, 1, 1], [1, 0, 1], [1, 1, 0]], [[1, 2], [3]],
        {}, {"n": 3}, {"type": "ring", "n": 3}, {"type": "cycle", "n": 3},
        {"random": {}}, {"random": 5}, {"random": {"low": [1]}},
        {"random": {"low": "a", "high": 1}}, {"random": {"low": 2, "high": 1}},
        {"random": {"low": -1e300, "high": 1e300}},
        {"order": 2, "theta": 0.3, "delta": 1.0},
    ]
)
# Valid values where they bite, which the pool above rarely draws: a theta
# in [0.5, 1), which fails check's theta-range line unless overridden, a
# u_limit below every player's certified bound, and a step that diverges
# (at t = 2.4 s in every mode) within its horizon. Half the mutations come
# from here, and lead check to [FAIL] lines and run to exits 3 and 4.
DIVERGING_SIM = {"step_size": 0.8, "t_end": 16.0, "log_every": 1, "conv_window": 8.0}
player = st.integers(0, 2)
in_range = st.one_of(
    st.tuples(player.map(lambda i: ("players", i, "theta")), st.sampled_from([0.5, 0.6, 0.9])),
    st.tuples(player.map(lambda i: ("players", i, "u_limit")), st.just(0.05)),
    st.just((("sim",), DIVERGING_SIM)),
)
mutations = st.lists(
    st.one_of(st.tuples(st.sampled_from(PATHS), st.one_of(st.just(DELETE), values)), in_range),
    min_size=1,
    max_size=3,
)


def mutate(data: dict, path: tuple, value) -> None:
    node = data
    for key in path[:-1]:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return  # an earlier mutation replaced the parent; nothing to change
    last = path[-1]
    if isinstance(node, dict) or (isinstance(node, list) and isinstance(last, int) and last < len(node)):
        if value is DELETE:
            if isinstance(node, dict) and path not in SLOW_DELETES:
                node.pop(last, None)
        else:
            node[last] = copy.deepcopy(value)


# A command line, split on spaces; run's flags read the config too.
COMMANDS = ["run", "check", "run --replicates 2", "solve-ne"]


def mutated(mode: str, changes: list) -> dict:
    data = copy.deepcopy(BASES[mode])
    for path, value in changes:
        mutate(data, path, value)
    return data


def drive(tmp: str, data: dict, command: str) -> tuple[int, str, str]:
    """Write ``data`` as a config under ``tmp`` and run ``command`` on it.

    Returns the exit code, stdout and stderr; run writes under ``tmp/out``.
    """
    command, *flags = command.split()
    cfg = Path(tmp) / "cfg.json"
    cfg.write_text(json.dumps(data))
    out = ["--out", str(Path(tmp) / "out")] if command == "run" else []
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # theta >= 0.5 warns by design
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, str(cfg), *out, *flags])
    return code, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(BASES)), mutations, st.sampled_from(COMMANDS))
# the drawn examples rarely put the order cap, or one past it, on an order
@example("SaturatedDirected", [(("players", 0, "order"), 20)], "run")
@example("SaturatedDirected", [(("players", 0, "order"), 21)], "run")
# --replicates shifts the seed, so the seed must be validated first
@example("SaturatedDirected", [(("seed",), "x")], "run --replicates 2")
# a [FAIL] line ends check with exit 3 and nothing on stderr; an unknown
# form is a config error, one line on stderr, as an unknown mode is
@example("SaturatedDirected", [(("players", 0, "theta"), 0.7)], "check")
@example("SaturatedDirected", [(("players", 0, "form"), "x")], "check")
# auto_delta_margin divides u_limit by the gain row's sum, which is 0 here
@example(
    "SaturatedDirected",
    [
        (("players", 2, "theta"), 0.0),
        (("players", 2, "auto_delta_margin"), 0.5),
        (("players", 2, "delta"), DELETE),
    ],
    "run",
)
def test_mutated_scenarios_exit_classified(mode, changes, command):
    data = mutated(mode, changes)
    with tempfile.TemporaryDirectory() as tmp:
        code, stdout, stderr = drive(tmp, data, command)
        assert code in (0, 2, 3, 4), (code, data)
        failed_check = command == "check" and "[FAIL]" in stdout
        lines = 0 if code == 0 or failed_check else 1
        assert stderr.count("\n") == lines, (code, stderr, data)
        for summary in Path(tmp).rglob("summary.json"):
            json.loads(summary.read_text(), parse_constant=_reject_constant)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(BASES)), mutations)
def test_check_and_run_agree(mode, changes):
    # check passes only what run starts stepping, and rejects a config error
    # with run's own message; a [FAIL] line (exit 3) may be check's alone
    data = mutated(mode, changes)
    with tempfile.TemporaryDirectory() as tmp:
        checked, _, check_err = drive(tmp, data, "check")
        ran, _, run_err = drive(tmp, data, "run")
    if checked == 0:
        assert ran in (0, 4), (ran, run_err, data)
    if checked == 2:
        assert (ran, run_err) == (2, check_err), data


def _reject_constant(name):
    raise AssertionError(f"summary.json holds the non-finite constant {name}")
