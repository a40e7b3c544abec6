"""Declarative run descriptions: JSON in, validated run inputs out.

A scenario file is one JSON object with the blocks

    game     {"type": "ring", "n": N} or {"jacobian": [[...]], "offset": [...]}
    graph    {"type": "cycle", "n": N} or {"weights": [[...]]}
    mode     one of the SeekerMode value strings (default "SaturatedDirected")
    players  one dict broadcast to every player, or a list of N dicts; each
             needs order, theta, and exactly one of delta or
             auto_delta_margin (the latter sizes delta from u_limit), and
             may set u_limit (default delta) and form (default "standard")
    init     optional x0/z0/c0; scalars broadcast, nested lists are taken
             as-is, and {"random": {"low": a, "high": b}} draws uniformly
             using the top-level seed (defaults: x0 and z0 zero, c0 one)
    sim      optional overrides of SimConfig's fields and defaults
    seed     integer; required whenever any init block is random
    allow_large_theta  opt-in for theta >= 0.5 (default false)

Parsing materializes every default and resolves every random draw, so a
parsed config is the resolved JSON object itself: equal configs mean
bit-identical runs, and parsing it again returns it unchanged. Its
``init``, ``sim`` and player blocks are the keyword arguments of ``run``,
SimConfig and PlayerSpec. Parsing validates structure, including the mode
and form names, and raises every config error that needs neither the game
nor the graph built: the order and form rules PlayerSpec states, each
player's mode rule, what SimConfig rejects, the 1 GiB log cap and the
rules on x0, z0 and c0, all through the code ``run_batch`` uses.
:func:`build` constructs the run objects and raises what PlayerSpec's gain
verdicts, the game and the graph reject, so ``check`` can first print
PlayerSpec's gain-range and actuator verdicts by name.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .dynamics import FORM_STANDARD, PlayerSpec, check_order_and_form, delta_for_limit
from .errors import ConfigError
from .game import QuadraticGame, ring_game
from .graph import Digraph, cycle_digraph
from .seeker import SeekerMode, _check_mode
from .sim import SimConfig, _init_arrays, _log_bytes

__all__ = [
    "BuiltScenario",
    "parse_config",
    "build",
    "reference_scenario",
]

_MODE_VALUES = {m.value for m in SeekerMode}
_TOP_KEYS = {"game", "graph", "mode", "players", "init", "sim", "seed", "allow_large_theta"}
_PLAYER_KEYS = {"order", "theta", "delta", "auto_delta_margin", "u_limit", "form"}
_INIT_KEYS = {"x0", "z0", "c0"}
# the largest n whose n x n float64 matrix fits in 1 GiB
_MAX_BUILT_IN_N = math.isqrt(2**30 // 8)


@dataclass
class BuiltScenario:
    """Run-ready objects a batch shares; x0, z0 and c0 stay each config's own."""

    game: QuadraticGame
    graph: Digraph
    specs: tuple[PlayerSpec, ...]
    mode: SeekerMode
    sim: SimConfig


def _reject_unknown(block: dict, allowed: set, where: str) -> None:
    extra = set(block) - allowed
    if extra:
        raise ConfigError(f"unknown {where} keys: {sorted(extra)}")


def _numeric(obj, name: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (ValueError, TypeError):
        raise ConfigError(f"{name} must be numeric and rectangular") from None
    return arr


def read_json(path: str | Path):
    """Parse a JSON file; unreadable, malformed or non-finite input is a ConfigError.

    Non-finite means ``NaN``, ``Infinity`` or ``-Infinity``, or a literal
    beyond double range, such as ``1e400`` or a 400-digit integer.
    """
    def reject(text: str):
        shown = text if len(text) <= 24 else f"{text[:12]}... ({len(text)} characters)"
        raise ConfigError(f"{path}: non-finite number {shown} is not allowed")

    def to_float(text: str) -> float:
        value = float(text)
        return value if math.isfinite(value) else reject(text)

    def to_int(text: str) -> int:
        return int(text) if math.isfinite(float(text)) else reject(text)

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=reject, parse_float=to_float, parse_int=to_int)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # not UTF-8, the encoding of JSON, or nested deeper than the parser recurses
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None


def _built_in_size(block: dict, what: str) -> int:
    n = block.get("n")
    if not isinstance(n, int) or n < 2:
        raise ConfigError(f"{what} needs integer n >= 2, got {n!r}")
    if n > _MAX_BUILT_IN_N:
        raise ConfigError(
            f"{what} n = {n} exceeds the cap of {_MAX_BUILT_IN_N}: "
            "its n x n matrix would take more than 1 GiB"
        )
    return n


def _game_size(game: dict) -> int:
    if "type" in game:
        if game.get("type") != "ring":
            raise ConfigError(f"unknown game type {game.get('type')!r}")
        _reject_unknown(game, {"type", "n"}, "game")
        return _built_in_size(game, "ring game")
    _reject_unknown(game, {"jacobian", "offset"}, "game")
    if "jacobian" not in game or "offset" not in game:
        raise ConfigError("explicit game needs both jacobian and offset")
    jac = _numeric(game["jacobian"], "game.jacobian")
    off = _numeric(game["offset"], "game.offset")
    if jac.ndim != 2 or jac.shape[0] != jac.shape[1]:
        raise ConfigError(f"game.jacobian must be square, got shape {jac.shape}")
    if off.shape != (jac.shape[0],):
        raise ConfigError("game.offset length must match the jacobian size")
    if jac.shape[0] < 2:
        raise ConfigError(f"explicit game needs at least 2 players, got {jac.shape[0]}")
    return jac.shape[0]


def _graph_size(graph: dict) -> int:
    if "type" in graph:
        if graph.get("type") != "cycle":
            raise ConfigError(f"unknown graph type {graph.get('type')!r}")
        _reject_unknown(graph, {"type", "n"}, "graph")
        return _built_in_size(graph, "cycle graph")
    _reject_unknown(graph, {"weights"}, "graph")
    if "weights" not in graph:
        raise ConfigError("explicit graph needs a weights matrix")
    w = _numeric(graph["weights"], "graph.weights")
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ConfigError(f"graph.weights must be square, got shape {w.shape}")
    return w.shape[0]


def game_from_block(block: dict) -> QuadraticGame:
    """Validate a game block and construct its game."""
    _game_size(block)
    if "type" in block:
        return ring_game(block["n"])
    return QuadraticGame(
        jacobian=np.asarray(block["jacobian"], dtype=float),
        offset=np.asarray(block["offset"], dtype=float),
    )


def graph_from_block(block: dict) -> Digraph:
    """Construct the digraph of a graph block that parse_config accepted."""
    if "type" in block:
        return cycle_digraph(block["n"])
    return Digraph(weights=np.asarray(block["weights"], dtype=float))


def _is_random(value) -> bool:
    return isinstance(value, dict) and "random" in value


def _is_scalar(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(block: dict, key: str, where: str, default: float | None = None) -> float:
    value = block.get(key, default)
    if not _is_scalar(value):
        raise ConfigError(f"{where} {key} must be a number, got {value!r}")
    return float(value)


def _random_bounds(value, where: str) -> tuple[float, float]:
    _reject_unknown(value, {"random"}, where)
    spec = value["random"]
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} random block must be an object")
    _reject_unknown(spec, {"low", "high"}, where)
    low = _number(spec, "low", where, -1.0)
    high = _number(spec, "high", where, 1.0)
    if not (low < high and math.isfinite(high - low)):
        raise ConfigError(
            f"{where} random bounds need low < high and a finite high - low, got [{low}, {high}]"
        )
    return low, high


def _resolve_player(p, i: int) -> dict:
    where = f"players[{i}]"
    if not isinstance(p, dict):
        raise ConfigError(f"{where} must be an object")
    _reject_unknown(p, _PLAYER_KEYS, where)
    for key in ("order", "theta"):
        if key not in p:
            raise ConfigError(f"{where} is missing {key!r}")
    order = p["order"]
    form = p.get("form", FORM_STANDARD)
    try:
        check_order_and_form(order, form)
    except ValueError as exc:
        raise ConfigError(f"{where} {exc}") from None
    theta = _number(p, "theta", where)
    if ("delta" in p) == ("auto_delta_margin" in p):
        raise ConfigError(f"{where} needs exactly one of delta or auto_delta_margin")
    if "auto_delta_margin" in p:
        if "u_limit" not in p:
            raise ConfigError(f"{where} auto_delta_margin requires u_limit")
        try:
            u_limit = _number(p, "u_limit", where)
            margin = _number(p, "auto_delta_margin", where)
            delta = delta_for_limit(order, theta, u_limit, margin, form)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    else:
        delta = _number(p, "delta", where)
    return {
        "order": order,
        "theta": theta,
        "delta": delta,
        "u_limit": _number(p, "u_limit", where, delta),
        "form": form,
    }


def parse_config(data: dict) -> dict:
    """Validate raw JSON data and resolve every default and random draw.

    Random init blocks are drawn in the fixed order x0, z0, c0 from one
    generator seeded by the top-level seed, so a given (config, seed) pair
    always resolves to the same concrete numbers.
    """
    if not isinstance(data, dict):
        raise ConfigError("scenario config must be a JSON object")
    _reject_unknown(data, _TOP_KEYS, "config")
    for key in ("game", "graph", "players"):
        if key not in data:
            raise ConfigError(f"config is missing the {key!r} block")

    game = data["game"]
    graph = data["graph"]
    if not isinstance(game, dict) or not isinstance(graph, dict):
        raise ConfigError("game and graph blocks must be objects")
    n = _game_size(game)
    n_graph = _graph_size(graph)
    if n != n_graph:
        raise ConfigError(f"game has {n} players but graph has {n_graph} nodes")

    mode = data.get("mode", "SaturatedDirected")
    if not isinstance(mode, str) or mode not in _MODE_VALUES:
        raise ConfigError(
            f"unknown mode {mode!r}; expected one of {sorted(_MODE_VALUES)}"
        )

    allow_large_theta = data.get("allow_large_theta", False)
    if not isinstance(allow_large_theta, bool):
        raise ConfigError(f"allow_large_theta must be true or false, got {allow_large_theta!r}")
    raw_players = data["players"]
    if isinstance(raw_players, dict):
        raw_players = [raw_players] * n
    if not isinstance(raw_players, list) or len(raw_players) != n:
        raise ConfigError(f"players must be one dict or a list of {n} dicts")
    players = [_resolve_player(p, i) for i, p in enumerate(raw_players)]
    for p in players:
        _check_mode(p["order"], p["form"], SeekerMode(mode))

    seed = data.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool) or seed < 0):
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")

    init = data.get("init", {})
    if not isinstance(init, dict):
        raise ConfigError("init block must be an object")
    _reject_unknown(init, _INIT_KEYS, "init")
    raw_x0 = init.get("x0", 0.0)
    raw_z0 = init.get("z0", 0.0)
    raw_c0 = init.get("c0", 1.0)
    needs_rng = any(_is_random(v) for v in (raw_x0, raw_z0, raw_c0))
    if needs_rng and seed is None:
        raise ConfigError("random init blocks require a top-level seed")
    rng = np.random.default_rng(seed) if needs_rng else None

    orders = [p["order"] for p in players]
    if _is_random(raw_x0):
        low, high = _random_bounds(raw_x0, "init.x0")
        x0 = [rng.uniform(low, high, size=m).tolist() for m in orders]
    elif _is_scalar(raw_x0):
        x0 = [[float(raw_x0)] * m for m in orders]
    elif isinstance(raw_x0, list):
        for i, row in enumerate(raw_x0):
            if not isinstance(row, (list, tuple)) or not all(_is_scalar(v) for v in row):
                raise ConfigError(f"init.x0[{i}] must be a flat list of numbers")
        x0 = [[float(v) for v in row] for row in raw_x0]
    else:
        raise ConfigError("init.x0 must be a scalar, a list of lists, or a random block")

    def resolve_matrix(raw, name: str):
        if _is_random(raw):
            low, high = _random_bounds(raw, f"init.{name}")
            return rng.uniform(low, high, size=(n, n)).tolist()
        if _is_scalar(raw):
            return float(raw)
        if not isinstance(raw, list):
            raise ConfigError(f"init.{name} must be a scalar, a list of lists, or a random block")
        return _numeric(raw, f"init.{name}").tolist()

    z0 = resolve_matrix(raw_z0, "z0")
    c0 = resolve_matrix(raw_c0, "c0")
    # the rules on initial conditions, in run_batch's code; built x0 rows meet them
    _init_arrays(x0 if isinstance(raw_x0, list) else None, z0, c0, orders)

    sim = data.get("sim", {})
    if not isinstance(sim, dict):
        raise ConfigError("sim block must be an object")
    sim_fields = fields(SimConfig)
    _reject_unknown(sim, {f.name for f in sim_fields}, "sim")
    # SimConfig states the integer rule of log_every, its one integer field
    sim_resolved = {
        f.name: (
            sim.get(f.name, f.default)
            if isinstance(f.default, int)
            else _number(sim, f.name, "sim", f.default)
        )
        for f in sim_fields
    }
    # what run_batch rejects in the sim block alone, before check prints a line
    _log_bytes(SimConfig(**sim_resolved), n)

    return {
        "game": game,
        "graph": graph,
        "mode": mode,
        "players": players,
        "init": {"x0": x0, "z0": z0, "c0": c0},
        "sim": sim_resolved,
        "seed": seed,
        "allow_large_theta": allow_large_theta,
    }


def build(cfg: dict) -> BuiltScenario:
    """Construct run-ready objects; raises the underlying validation errors."""
    return BuiltScenario(
        game=game_from_block(cfg["game"]),
        graph=graph_from_block(cfg["graph"]),
        specs=tuple(
            PlayerSpec(**p, allow_large_theta=cfg["allow_large_theta"]) for p in cfg["players"]
        ),
        mode=SeekerMode(cfg["mode"]),
        sim=SimConfig(**cfg["sim"]),
    )


def reference_scenario(mode: str = "SaturatedDirected") -> dict:
    """Six third-order players on a directed ring, the package's worked example.

    Player i starts at plant state (i, 1, 1) in original coordinates with
    unit estimates and unit gains; the control levels certify a closed-loop
    input bound of 13/27, inside the 0.4815 actuator limit.
    """
    return parse_config(
        {
            "game": {"type": "ring", "n": 6},
            "graph": {"type": "cycle", "n": 6},
            "mode": mode,
            "players": {
                "order": 3,
                "theta": 1.0 / 3.0,
                "delta": 1.0,
                "u_limit": 0.4815,
            },
            "init": {
                "x0": [[float(i), 1.0, 1.0] for i in range(1, 7)],
                "z0": 1.0,
                "c0": 1.0,
            },
        }
    )
