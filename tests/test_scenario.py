"""Config parsing, default materialization, and scenario construction."""

import json

import numpy as np
import pytest

from nashseek import (
    ConfigError,
    SeekerMode,
    build,
    parse_config,
    reference_scenario,
)


def minimal(**overrides):
    data = {
        "game": {"type": "ring", "n": 2},
        "graph": {"type": "cycle", "n": 2},
        "players": {"order": 1, "theta": 0.3, "delta": 1.0},
    }
    data.update(overrides)
    return data


class TestDefaults:
    def test_materialized_defaults(self):
        cfg = parse_config(minimal())
        assert cfg["mode"] == "SaturatedDirected"
        assert cfg["init"]["x0"] == [[0.0], [0.0]]
        assert cfg["init"]["z0"] == 0.0
        assert cfg["init"]["c0"] == 1.0
        assert cfg["players"][0]["u_limit"] == 1.0
        assert cfg["players"][0]["form"] == "standard"
        assert cfg["sim"] == {
            "step_size": 1e-3,
            "t_end": 100.0,
            "log_every": 10,
            "conv_tol": 1e-2,
            "conv_window": 10.0,
        }
        assert cfg["seed"] is None
        assert not cfg["allow_large_theta"]

    def test_broadcast_and_explicit_players(self):
        cfg = parse_config(minimal())
        assert len(cfg["players"]) == 2
        assert cfg["players"][0] == cfg["players"][1]
        explicit = minimal(
            players=[
                {"order": 1, "theta": 0.2, "delta": 1.0},
                {"order": 2, "theta": 0.4, "delta": 0.5},
            ]
        )
        cfg = parse_config(explicit)
        assert [p["order"] for p in cfg["players"]] == [1, 2]

    def test_round_trip(self):
        cfg = parse_config(
            minimal(
                init={"x0": [[0.5], [1.5]], "z0": {"random": {"low": -1, "high": 1}}},
                sim={"t_end": 20.0, "conv_window": 5.0},
                seed=3,
            )
        )
        # the blocks in the order summary.json writes them
        assert list(cfg) == [
            "game", "graph", "mode", "players", "init", "sim", "seed", "allow_large_theta"
        ]
        assert list(cfg["init"]) == ["x0", "z0", "c0"]
        assert parse_config(json.loads(json.dumps(cfg))) == cfg


class TestRandomInit:
    def test_seed_determinism(self):
        data = minimal(init={"z0": {"random": {"low": -1, "high": 1}}}, seed=5)
        a = parse_config(data)
        b = parse_config(data)
        assert a["init"]["z0"] == b["init"]["z0"]
        c = parse_config(minimal(init={"z0": {"random": {"low": -1, "high": 1}}}, seed=6))
        assert a["init"]["z0"] != c["init"]["z0"]

    def test_x0_random_respects_orders(self):
        data = minimal(
            players=[
                {"order": 3, "theta": 0.3, "delta": 1.0},
                {"order": 1, "theta": 0.3, "delta": 1.0},
            ],
            init={"x0": {"random": {"low": -2, "high": 2}}},
            seed=1,
        )
        cfg = parse_config(data)
        assert [len(row) for row in cfg["init"]["x0"]] == [3, 1]
        assert all(-2 <= v <= 2 for row in cfg["init"]["x0"] for v in row)

    def test_random_needs_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(minimal(init={"z0": {"random": {}}}))


class TestAutoDelta:
    def test_margin_one_meets_limit_exactly(self):
        cfg = parse_config(
            minimal(
                players={
                    "order": 3,
                    "theta": 1.0 / 3.0,
                    "auto_delta_margin": 1.0,
                    "u_limit": 13.0 / 27.0,
                }
            )
        )
        assert cfg["players"][0]["delta"] == pytest.approx(1.0)

    def test_fractional_margin(self):
        cfg = parse_config(
            minimal(
                players={
                    "order": 3,
                    "theta": 1.0 / 3.0,
                    "auto_delta_margin": 0.9,
                    "u_limit": 13.0 / 27.0,
                }
            )
        )
        assert cfg["players"][0]["delta"] == pytest.approx(0.9)

    def test_exactly_one_of_delta_and_margin(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(minimal(players={"order": 1, "theta": 0.3}))
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(
                minimal(
                    players={
                        "order": 1,
                        "theta": 0.3,
                        "delta": 1.0,
                        "auto_delta_margin": 0.9,
                        "u_limit": 1.0,
                    }
                )
            )

    def test_margin_requires_limit(self):
        with pytest.raises(ConfigError, match="u_limit"):
            parse_config(minimal(players={"order": 1, "theta": 0.3, "auto_delta_margin": 0.9}))


class TestValidation:
    def test_missing_block(self):
        with pytest.raises(ConfigError, match="graph"):
            parse_config({"game": {"type": "ring", "n": 2}, "players": {}})

    def test_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config(minimal(extra=1))
        with pytest.raises(ConfigError, match="players"):
            parse_config(minimal(players={"order": 1, "theta": 0.3, "delta": 1.0, "x": 1}))

    def test_size_mismatch(self):
        with pytest.raises(ConfigError, match="nodes"):
            parse_config(minimal(graph={"type": "cycle", "n": 3}))

    def test_built_in_size_cap_is_the_largest_1gib_matrix(self):
        # 11585^2 doubles fit in 1 GiB and 11586^2 do not; the size check
        # passes or rejects before anything of that size is built
        for block in ("game", "graph"):
            kind = {"game": "ring", "graph": "cycle"}[block]
            with pytest.raises(ConfigError, match="game has .* but graph has"):
                parse_config(minimal(**{block: {"type": kind, "n": 11585}}))
            with pytest.raises(ConfigError, match="n = 11586 exceeds the cap of 11585"):
                parse_config(minimal(**{block: {"type": kind, "n": 11586}}))

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config(minimal(mode="Telepathic"))

    def test_non_positive_gain(self):
        with pytest.raises(ConfigError, match="c0"):
            parse_config(minimal(init={"c0": 0.0}))

    def test_x0_row_length(self):
        with pytest.raises(ConfigError, match="x0"):
            parse_config(minimal(init={"x0": [[1.0, 2.0], [0.0]]}))

    def test_bool_log_every_rejected(self):
        with pytest.raises(ConfigError, match="log_every"):
            parse_config(minimal(sim={"log_every": True}))

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ConfigError, match="jacobian"):
            parse_config(
                minimal(game={"jacobian": [[1.0, 0.0], [1.0]], "offset": [0.0, 0.0]})
            )

    def test_construct_gate_for_theta(self):
        # parsing checks structure only; the theta gate fires on construction
        data = minimal(players={"order": 1, "theta": 0.6, "delta": 1.0})
        cfg = parse_config(data)
        assert cfg["players"][0]["theta"] == 0.6
        with pytest.raises(ValueError, match="0.5"):
            build(parse_config(data))


class TestBuild:
    def test_built_objects(self):
        cfg = parse_config(
            minimal(
                init={"z0": 0.5, "c0": [[2.0, 3.0], [4.0, 5.0]]},
                sim={"t_end": 10.0, "conv_window": 2.0},
            )
        )
        built = build(cfg)
        np.testing.assert_allclose(built.game.jacobian, [[4.0, -2.0], [-2.0, 4.0]])
        np.testing.assert_allclose(built.graph.weights, [[0.0, 1.0], [1.0, 0.0]])
        assert built.mode is SeekerMode.SATURATED_DIRECTED
        assert built.specs[0].theta == 0.3
        assert cfg["init"]["z0"] == 0.5
        assert cfg["init"]["c0"] == [[2.0, 3.0], [4.0, 5.0]]
        assert built.sim.t_end == 10.0

    def test_reference_scenario(self):
        cfg = reference_scenario()
        assert len(cfg["players"]) == 6
        assert cfg["players"][0]["order"] == 3
        assert cfg["players"][0]["u_limit"] == 0.4815
        assert cfg["init"]["x0"] == [[float(i), 1.0, 1.0] for i in range(1, 7)]
        assert cfg["init"]["z0"] == 1.0 and cfg["init"]["c0"] == 1.0
        assert reference_scenario("Unsaturated")["mode"] == "Unsaturated"
