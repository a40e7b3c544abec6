"""End-to-end CLI behavior: files, formats, and exit codes."""

import json
import warnings

import numpy as np
import pytest

from nashseek import parse_config, sim
from nashseek.cli import main
from conftest import skew_game

BASE = {
    "game": {"type": "ring", "n": 2},
    "graph": {"type": "cycle", "n": 2},
    "players": {"order": 1, "theta": 0.3, "delta": 1.0},
    "sim": {"step_size": 2e-3, "t_end": 2.0, "log_every": 4, "conv_window": 1.0},
}


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_strict_json(path):
    def reject(name):
        raise ValueError(f"non-finite constant {name} in {path}")

    return json.loads(path.read_text(), parse_constant=reject)


class TestRun:
    def test_writes_contracted_files(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,y_1,y_2,u_1,u_2,err,tilde_norm,z_residual,xbar_tail_max"
        steps = round(2.0 / 2e-3)
        assert len(lines) == 1 + steps // 4
        data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert data.shape == (steps // 4, 9)
        np.testing.assert_allclose(data[:, 0], np.arange(1, steps // 4 + 1) * 4 * 2e-3)
        # 17 significant digits round-trip doubles exactly: rewriting the
        # parsed values must reproduce the file
        rewritten = "\n".join(
            ",".join(f"{v:.17g}" for v in row) for row in data
        )
        assert rewritten == "\n".join(lines[1:])

    def test_summary_is_self_contained(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {
            "converged",
            "t_converge",
            "final_err",
            "max_abs_u",
            "step_max_abs_u",
            "certified_bounds",
            "bound_violated",
            "c_final_range",
            "c_monotone",
            "unsaturated_entry_time",
            "c_trailing_drift",
            "resolved_config",
        }
        # the embedded config re-parses to the identical scenario
        assert parse_config(summary["resolved_config"]) == parse_config(BASE)
        assert summary["certified_bounds"] == [1.0, 1.0]

    def test_replicates_fan_out(self, tmp_path, capsys):
        data = dict(BASE, init={"z0": {"random": {"low": -0.5, "high": 0.5}}}, seed=9)
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "reps"
        assert main(["run", cfg_path, "--out", str(out), "--replicates", "2"]) == 0
        for r in range(2):
            assert (out / f"replicate_{r:02d}" / "trajectory.csv").exists()
            assert (out / f"replicate_{r:02d}" / "summary.json").exists()
        captured = capsys.readouterr().out
        assert "seed 9" in captured and "seed 10" in captured
        # replicates resolve different initial estimates
        s0 = json.loads((out / "replicate_00" / "summary.json").read_text())
        s1 = json.loads((out / "replicate_01" / "summary.json").read_text())
        assert (
            s0["resolved_config"]["init"]["z0"] != s1["resolved_config"]["init"]["z0"]
        )

    def test_replicates_match_single_runs(self, tmp_path, capsys):
        data = dict(
            BASE,
            players=[{"order": 1, "theta": 0.3, "delta": 1.0}, {"order": 3, "theta": 0.3, "delta": 1.0}],
            init={"x0": {"random": {"low": -1, "high": 1}}, "z0": {"random": {"low": -1, "high": 1}}},
            seed=4,
        )
        out = tmp_path / "reps"
        # --jobs is accepted and ignored: the replicates integrate as one batch
        argv = ["run", write_config(tmp_path, data), "--out", str(out), "--replicates", "3"]
        assert main(argv + ["--jobs", "2"]) == 0
        for r in range(3):
            single = write_config(tmp_path, dict(data, seed=4 + r), name=f"single_{r}.json")
            assert main(["run", single, "--out", str(tmp_path / f"single_{r}")]) == 0
            for name in ("trajectory.csv", "summary.json"):
                batched = (out / f"replicate_{r:02d}" / name).read_bytes()
                assert batched == (tmp_path / f"single_{r}" / name).read_bytes(), (r, name)

    def test_faulted_replicate_exits_4_and_keeps_the_others(self, tmp_path, capsys):
        # z0 drawn from [0, 6]: seeds 5 and 7 diverge at this step, seed 6 does not
        data = dict(
            BASE,
            init={"z0": {"random": {"low": 0.0, "high": 6.0}}},
            seed=5,
            sim={"step_size": 0.05, "t_end": 2.0, "log_every": 1, "conv_window": 1.0},
        )
        out = tmp_path / "reps"
        argv = ["run", write_config(tmp_path, data), "--out", str(out), "--replicates", "3"]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical fault: integration fault at t = ")
        assert captured.err.count("\n") == 1
        assert "replicate 00 (seed 5): numerical fault: integration fault" in captured.out
        assert (out / "replicate_01" / "trajectory.csv").exists()
        assert read_strict_json(out / "replicate_01" / "summary.json")["resolved_config"]["seed"] == 6
        assert not (out / "replicate_00").exists() and not (out / "replicate_02").exists()

    def test_jobs_below_one_is_2(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE)
        assert main(["run", cfg_path, "--out", str(tmp_path / "o"), "--jobs", "0"]) == 2

    def test_drift_without_a_late_row_is_null(self, tmp_path):
        # t_end 1 with a row every 0.6: no row at or after 0.9 * t_end
        data = dict(BASE, sim={"step_size": 0.01, "t_end": 1.0, "log_every": 60, "conv_window": 1.0})
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, data), "--out", str(out)]) == 0
        assert read_strict_json(out / "summary.json")["c_trailing_drift"] is None

    def test_unbounded_certified_bounds_are_null(self, tmp_path):
        data = dict(BASE, mode="Unsaturated")
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, data), "--out", str(out)]) == 0
        assert read_strict_json(out / "summary.json")["certified_bounds"] == [None, None]

    def test_first_order_auto_delta_meets_limit(self, tmp_path):
        # margin 1 sizes delta to the limit itself; x0 = 5 drives |u| to delta
        data = dict(
            BASE,
            players={"order": 1, "theta": 0.3, "auto_delta_margin": 1.0, "u_limit": 1.0},
            init={"x0": 5.0},
        )
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert [p["delta"] for p in summary["resolved_config"]["players"]] == [1.0, 1.0]
        assert max(summary["max_abs_u"]) == 1.0
        assert not summary["bound_violated"]

    def test_allow_large_theta_flag(self, tmp_path):
        data = dict(BASE, players={"order": 1, "theta": 0.6, "delta": 1.0})
        cfg_path = write_config(tmp_path, data)
        assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 3
        cfg_path = write_config(tmp_path, dict(data, allow_large_theta=True))
        with pytest.warns(RuntimeWarning):
            code = main(["run", cfg_path, "--out", str(tmp_path / "o")])
        assert code == 0


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"game": {"type": "ring", "n": 2}})
        assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "check", "solve-ne"])
    @pytest.mark.parametrize(
        "payload",
        [b"{not json", b"\xff{}", b"[" * 5000 + b"]" * 5000],
        ids=["malformed", "not-utf-8", "nested-5000-deep"],
    )
    def test_invalid_json_is_2(self, tmp_path, capsys, command, payload):
        path = tmp_path / "bad.json"
        path.write_bytes(payload)
        extra = ["--out", str(tmp_path / "o")] if command == "run" else []
        assert main([command, str(path), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "check", "solve-ne"])
    @pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
    def test_unreadable_config_path_is_2(self, tmp_path, capsys, command, name):
        path = tmp_path / name
        extra = ["--out", str(tmp_path / "o")] if command == "run" else []
        assert main([command, str(path), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "check", "solve-ne"])
    def test_built_in_blocks_too_large_to_build_are_2(self, tmp_path, capsys, command):
        # each 10**7 x 10**7 matrix would take 728 TiB; nothing is allocated
        data = dict(BASE, game={"type": "ring", "n": 10**7}, graph={"type": "cycle", "n": 10**7})
        cfg_path = write_config(tmp_path, data)
        extra = ["--out", str(tmp_path / "o")] if command == "run" else []
        assert main([command, cfg_path, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ring game n = 10000000 exceeds the cap of 11585")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "check", "solve-ne"])
    def test_one_player_game_is_2(self, tmp_path, capsys, command):
        # the built-in ring with n = 1 is a config error too
        data = dict(BASE, game={"jacobian": [[2.0]], "offset": [1.0]}, graph={"weights": [[0.0]]})
        cfg_path = write_config(tmp_path, data)
        extra = ["--out", str(tmp_path / "o")] if command == "run" else []
        assert main([command, cfg_path, *extra]) == 2
        err = capsys.readouterr().err
        assert err == "config error: explicit game needs at least 2 players, got 1\n"

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_cycle_graph_too_large_to_build_is_2(self, tmp_path, capsys, command):
        cfg_path = write_config(tmp_path, dict(BASE, graph={"type": "cycle", "n": 10**7}))
        extra = ["--out", str(tmp_path / "o")] if command == "run" else []
        assert main([command, cfg_path, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cycle graph n = 10000000 exceeds the cap of 11585")
        assert err.count("\n") == 1

    def test_assumption_failure_is_3(self, tmp_path, capsys):
        # one-way chain: not strongly connected
        data = dict(
            BASE,
            game={"type": "ring", "n": 3},
            graph={"weights": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]},
        )
        cfg_path = write_config(tmp_path, data)
        assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 3
        assert "strongly connected" in capsys.readouterr().err

    def test_non_numeric_theta_is_2(self, tmp_path, capsys):
        data = dict(BASE, players={"order": 1, "theta": "abc", "delta": 1.0})
        cfg_path = write_config(tmp_path, data)
        assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert "theta must be a number" in capsys.readouterr().err

    def test_boolean_order_is_2(self, tmp_path, capsys):
        data = dict(BASE, players={"order": True, "theta": 0.3, "delta": 1.0})
        cfg_path = write_config(tmp_path, data)
        assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert "order must be a positive integer" in capsys.readouterr().err

    def test_nan_step_size_is_2(self, tmp_path, capsys):
        data = dict(BASE, sim=dict(BASE["sim"], step_size=float("nan")))
        cfg_path = write_config(tmp_path, data)
        assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert main(["check", cfg_path]) == 2
        assert "non-finite number NaN" in capsys.readouterr().err

    def test_infinite_initial_estimate_is_2(self, tmp_path, capsys):
        data = dict(BASE, init={"z0": float("inf")})
        cfg_path = write_config(tmp_path, data)
        assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert main(["check", cfg_path]) == 2
        assert "non-finite number Infinity" in capsys.readouterr().err

    def test_nan_game_offset_is_2(self, tmp_path, capsys):
        data = {"game": {"jacobian": [[2.0, 0.0], [0.0, 2.0]], "offset": [float("nan"), 1.0]}}
        cfg_path = write_config(tmp_path, data)
        assert main(["solve-ne", cfg_path]) == 2
        assert "non-finite number NaN" in capsys.readouterr().err

    # json.dumps cannot write a literal beyond double range, so it goes into the text
    @pytest.mark.parametrize("command", ["run", "check", "solve-ne"])
    @pytest.mark.parametrize(
        "data",
        [
            dict(BASE, players={"order": 1, "theta": 0.3, "delta": 1.0, "u_limit": "HUGE"}),
            dict(BASE, init={"x0": "HUGE"}),
        ],
        ids=["u_limit", "x0"],
    )
    def test_literal_beyond_double_is_2(self, tmp_path, capsys, data, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data).replace('"HUGE"', "1e400"))
        out = ["--out", str(tmp_path / "o")] if command == "run" else []
        assert main([command, str(cfg_path), *out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "non-finite number 1e400" in err
        assert err.count("\n") == 1

    # run's flags read the config only after it parses; a count below one is
    # a config error of its own
    @pytest.mark.parametrize(
        "data, flags",
        [
            (BASE, ["--replicates", "0"]),
            ([BASE], ["--replicates", "2"]),
            (None, ["--replicates", "2"]),
            (dict(BASE, seed="x"), ["--replicates", "2"]),
            (dict(BASE, seed=[1]), ["--replicates", "2"]),
            (dict(BASE, seed=True), ["--replicates", "2"]),
        ],
        ids=[
            "zero-replicates",
            "list-root-replicates",
            "null-root-replicates",
            "string-seed-replicates",
            "list-seed-replicates",
            "boolean-seed-replicates",
        ],
    )
    def test_malformed_config_under_run_flags_is_2(self, tmp_path, capsys, data, flags):
        cfg_path = write_config(tmp_path, data)
        assert main(["run", cfg_path, "--out", str(tmp_path / "o"), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1

    # malformed blocks that no other test reaches
    _EYE = [[2.0, 0.0], [0.0, 2.0]]
    MALFORMED = {
        "random-low-not-below-high": (
            {"init": {"z0": {"random": {"low": 1.0, "high": 0.0}}}, "seed": 1},
            "init.z0 random bounds need low < high",
        ),
        "random-not-an-object": (
            {"init": {"z0": {"random": 5}}, "seed": 1},
            "init.z0 random block must be an object",
        ),
        "players-a-string": ({"players": "abc"}, "players must be one dict or a list of 2 dicts"),
        "players-too-few": (
            {"players": [BASE["players"]]},
            "players must be one dict or a list of 2 dicts",
        ),
        "x0-a-string": (
            {"init": {"x0": "abc"}},
            "init.x0 must be a scalar, a list of lists, or a random block",
        ),
        "sim-a-list": ({"sim": []}, "sim block must be an object"),
        "game-without-offset": (
            {"game": {"jacobian": _EYE}},
            "explicit game needs both jacobian and offset",
        ),
        "jacobian-not-square": (
            {"game": {"jacobian": [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0]], "offset": [0.0, 0.0]}},
            "game.jacobian must be square, got shape (2, 3)",
        ),
        "offset-of-wrong-length": (
            {"game": {"jacobian": _EYE, "offset": [0.0, 0.0, 0.0]}},
            "game.offset length must match the jacobian size",
        ),
        "graph-without-weights": ({"graph": {}}, "explicit graph needs a weights matrix"),
    }

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize("overrides, message", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_block_is_2(self, tmp_path, capsys, command, overrides, message):
        cfg_path = write_config(tmp_path, {**BASE, **overrides})
        extra = ["--out", str(tmp_path / "o")] if command == "run" else []
        assert main([command, cfg_path, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize("block", ["x0", "z0", "c0"])
    def test_random_range_wider_than_a_double_is_2(self, tmp_path, capsys, command, block):
        # high - low overflows, and no generator draws from an infinite range
        data = dict(BASE, init={block: {"random": {"low": -1e308, "high": 1e308}}}, seed=1)
        cfg_path = write_config(tmp_path, data)
        extra = ["--out", str(tmp_path / "o")] if command == "run" else []
        assert main([command, cfg_path, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: init.{block} random bounds need low < high")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, where",
        [
            (["run", "{cfg}", "--out", "{file}"], "{file}"),
            (["run", "{cfg}", "--out", "{file}/sub"], "{file}/sub"),
            (["run", "{cfg}", "--replicates", "2", "--out", "{file}"], "{file}"),
            (["paper-example", "--out", "{file}"], "{file}"),
        ],
        ids=["run", "run-below-a-file", "replicates", "paper-example"],
    )
    def test_unwritable_out_is_2(self, tmp_path, capsys, monkeypatch, argv, where):
        def refuse(*args):
            raise AssertionError("integrated before the output directory was checked")

        # the directory is checked up front: no step runs
        monkeypatch.setattr(sim, "_integrate", refuse)
        afile = tmp_path / "afile"
        afile.write_text("kept")
        names = {"cfg": write_config(tmp_path, BASE), "file": str(afile)}
        assert main([arg.format(**names) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write outputs under {where.format(**names)}: ")
        assert err.count("\n") == 1
        assert afile.read_text() == "kept"

    def test_transformation_overflow_is_4(self, tmp_path, capsys):
        # T's entries grow like theta^(-m(m-1)/2) and overflow double precision
        data = dict(BASE, players={"order": 9, "theta": 1e-10, "delta": 1.0})
        cfg_path = write_config(tmp_path, data)
        assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical fault: coordinate change is not representable")
        assert err.count("\n") == 1

    def test_numerical_fault_is_4(self, tmp_path, capsys):
        data = dict(
            BASE,
            init={"z0": 1000.0},
            sim={"step_size": 0.05, "t_end": 2.0, "log_every": 1, "conv_window": 1.0},
        )
        cfg_path = write_config(tmp_path, data)
        assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 4
        assert "numerical fault" in capsys.readouterr().err


class TestSolveNe:
    @pytest.mark.parametrize(
        "data", [[], {}, {"game": [[1.0]]}], ids=["list-root", "no-game", "game-a-list"]
    )
    def test_without_a_game_object_is_2(self, tmp_path, capsys, data):
        assert main(["solve-ne", write_config(tmp_path, data)]) == 2
        assert capsys.readouterr().err == "config error: config needs a game block\n"

    def test_ring_agreement(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"game": {"type": "ring", "n": 6}})
        assert main(["solve-ne", cfg_path]) == 0
        out = capsys.readouterr().out
        assert "closed-form" in out and "gradient-play" in out
        assert out.count("-0.5") >= 12
        deviation = float(out.strip().splitlines()[-1].split(":")[1])
        assert deviation < 1e-6

    def test_skew_game_fails_monotonicity(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            {"game": {"jacobian": [[0.0, 1.0], [-1.0, 0.0]], "offset": [1.0, 1.0]}},
        )
        assert main(["solve-ne", cfg_path]) == 3
        assert "monotone" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_extreme_diagonal_game(self, tmp_path, capsys, scale):
        # unscaled, the default step's row norm and its square underflow to 0
        # (a division by zero) or overflow to inf (a zero step that never moves)
        jacobian = (np.eye(3) * scale).tolist()
        cfg_path = write_config(tmp_path, {"game": {"jacobian": jacobian, "offset": [1, 1, 1]}})
        assert main(["solve-ne", cfg_path]) == 0
        # both solvers print the equilibrium -1 / scale for every player
        assert capsys.readouterr().out.count(f"{-1 / scale:.10g}") == 6


    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_skew_and_extreme_scale_games_solve(self, tmp_path, capsys, scale):
        # the row-norm step diverged on the skew game; scaled with its
        # offset, the solution stays put
        game = skew_game(scale=scale)
        data = {"game": {"jacobian": game.jacobian.tolist(), "offset": game.offset.tolist()}}
        cfg_path = write_config(tmp_path, data)
        assert main(["solve-ne", cfg_path]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        deviation = float(out.strip().splitlines()[-1].split(":")[1])
        closed = np.linalg.solve(game.jacobian, -game.offset)
        assert deviation <= 1e-6 * np.abs(closed).max()

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_extreme_diagonal_game_with_scaled_offset(self, tmp_path, capsys, scale):
        # an absolute stop (residual < 1e-10) took y = 0 at 1e-300
        data = {"game": {"jacobian": (np.eye(2) * scale).tolist(), "offset": [scale, scale]}}
        cfg_path = write_config(tmp_path, data)
        assert main(["solve-ne", cfg_path]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines()[:2] == ["closed-form  : [-1, -1]", "gradient-play: [-1, -1]"]
        assert float(out.strip().splitlines()[-1].split(":")[1]) <= 1e-6


class TestCheck:
    def test_all_pass(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, BASE)
        assert main(["check", cfg_path]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        for name in (
            "monotonicity",
            "lipschitz",
            "theta-range",
            "actuator-bound",
            "strong-connectivity",
            "pinned-laplacian",
        ):
            assert name in out

    def test_theta_range_failure(self, tmp_path, capsys):
        data = dict(BASE, players={"order": 1, "theta": 0.6, "delta": 1.0})
        cfg_path = write_config(tmp_path, data)
        assert main(["check", cfg_path]) == 3
        assert "[FAIL] theta-range player 1" in capsys.readouterr().out

    def test_actuator_bound_failure(self, tmp_path, capsys):
        for players, mode, bound in (
            (
                {"order": 3, "theta": 1.0 / 3.0, "delta": 1.0, "u_limit": 0.4},
                "SaturatedDirected",
                "0.481481",
            ),
            # the first-order law u = -sat(x + eta) reaches delta, not theta * delta
            (
                {"order": 1, "theta": 0.3, "delta": 2.0, "u_limit": 1.0},
                "SaturatedDirected",
                "= 2 vs limit 1",
            ),
            # the alternate law reaches m * theta * delta, not the standard series
            (
                {"order": 3, "theta": 0.4, "delta": 1.0, "u_limit": 0.7, "form": "alternate"},
                "AlternateForm",
                "= 1.2 vs limit 0.7",
            ),
        ):
            cfg_path = write_config(tmp_path, dict(BASE, players=players, mode=mode))
            assert main(["check", cfg_path]) == 3
            out = capsys.readouterr().out
            assert "[FAIL] actuator-bound player 1" in out
            assert bound in out

    # values PlayerSpec rejects fail their line whatever the override
    @pytest.mark.parametrize(
        "players, line",
        [
            (
                {"order": 1, "theta": 1.5, "delta": 1.0},
                "[FAIL] theta-range player 1: theta = 1.5, design range (0, 0.5)\n",
            ),
            (
                {"order": 1, "theta": -0.2, "delta": 1.0},
                "[FAIL] theta-range player 1: theta = -0.2, design range (0, 0.5)\n",
            ),
            (
                {"order": 2, "theta": 0.3, "delta": -1.0, "u_limit": 1.0},
                "[FAIL] actuator-bound player 1: certified delta * sum(gain_row) = -0.39 "
                "vs limit 1 (delta and u_limit must be positive)\n",
            ),
        ],
        ids=["theta-above-one", "theta-below-zero", "negative-delta"],
    )
    def test_values_player_spec_rejects_fail(self, tmp_path, capsys, players, line):
        cfg_path = write_config(tmp_path, dict(BASE, players=players, allow_large_theta=True))
        assert main(["check", cfg_path]) == 3
        captured = capsys.readouterr()
        assert line in captured.out and captured.err == ""

    def test_disconnected_graph_failure(self, tmp_path, capsys):
        data = dict(
            BASE,
            game={"type": "ring", "n": 3},
            graph={"weights": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]},
        )
        cfg_path = write_config(tmp_path, data)
        assert main(["check", cfg_path]) == 3
        assert "[FAIL] strong-connectivity" in capsys.readouterr().out

    def test_tiny_jacobian_lipschitz_bounds(self, tmp_path, capsys):
        # unscaled, each row norm underflows to 0
        jacobian = (np.eye(3) * 1e-300).tolist()
        data = dict(
            BASE,
            game={"jacobian": jacobian, "offset": [1, 1, 1]},
            graph={"type": "cycle", "n": 3},
        )
        main(["check", write_config(tmp_path, data)])
        assert "row bounds l_i = [1e-300, 1e-300, 1e-300]" in capsys.readouterr().out

    def test_pinned_laplacian_failure(self, tmp_path, capsys):
        # strongly connected, but the pinned Laplacian's condition is 7.4e13
        data = dict(
            BASE,
            game={"type": "ring", "n": 3},
            graph={"weights": [[0, 0, 1e-13], [1, 0, 0], [0, 1, 0]]},
        )
        cfg_path = write_config(tmp_path, data)
        assert main(["check", cfg_path]) == 3
        out = capsys.readouterr().out
        assert "[PASS] strong-connectivity" in out
        assert "[FAIL] pinned-laplacian" in out
        # a check-only verdict: run skips the O(n^4) diagnostic
        assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 0

    def test_pinned_laplacian_past_the_size_cap(self, tmp_path, capsys):
        # the largest n whose three (n, n, n) float64 stacks fit in 1 GiB
        assert 24 * 355**3 <= 2**30 < 24 * 356**3
        data = dict(BASE, game={"type": "ring", "n": 356}, graph={"type": "cycle", "n": 356})
        assert main(["check", write_config(tmp_path, data)]) == 3
        captured = capsys.readouterr()
        assert captured.err == ""
        fails = [line for line in captured.out.splitlines() if line.startswith("[FAIL]")]
        assert fails == [
            "[FAIL] pinned-laplacian: not run at n = 356: past n = 355, its three (n, n, n) "
            "float64 stacks would take more than the 1 GiB cap"
        ]


# Extreme but finite inputs, each with the exit code of check and of run.
_HUGE = {
    # the row norms are finite: scaled, they do not overflow
    "jacobian-1e300": (
        0,
        0,
        {"game": {"jacobian": (np.eye(3) * 1e300).tolist(), "offset": [0, 0, 0]}},
    ),
    # J + J.T would overflow; its halves do not
    "jacobian-1.5e308": (
        0,
        0,
        {"game": {"jacobian": (np.eye(3) * 1.5e308).tolist(), "offset": [0, 0, 0]}},
    ),
    # row sums beyond double range: the Laplacian is not representable
    "weights-1e308": (
        3,
        3,
        {
            "game": {"type": "ring", "n": 3},
            "graph": {"weights": [[0, 1e308, 1e308], [1, 0, 0], [0, 1, 0]]},
        },
    ),
    # strongly connected at either end of double range: the pinned-Laplacian
    # diagnostic passes both; the run's state overflows at 1e300 (exit 4)
    "weights-1e300": (
        0,
        4,
        {
            "game": {"type": "ring", "n": 3},
            "graph": {"weights": [[0, 2e300, 1e300], [1e300, 0, 0], [0, 1e300, 0]]},
        },
    ),
    "weights-1e-300": (
        0,
        0,
        {
            "game": {"type": "ring", "n": 3},
            "graph": {"weights": [[0, 2e-300, 1e-300], [1e-300, 0, 0], [0, 1e-300, 0]]},
        },
    ),
}


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("check_code, run_code, overrides", _HUGE.values(), ids=_HUGE.keys())
def test_extreme_finite_input_warns_nothing(
    tmp_path, capsys, command, check_code, run_code, overrides
):
    data = {**BASE, "graph": {"type": "cycle", "n": 3}, **overrides}
    cfg_path = write_config(tmp_path, data)
    out = ["--out", str(tmp_path / "o")] if command == "run" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, cfg_path, *out])
    assert code == (run_code if command == "run" else check_code)
    assert capsys.readouterr().err.count("\n") <= 1


# Ring game on a directed 3-cycle with second-order players, and one change
# each that run rejects (or, in the bound-at-limit case, accepts) before it
# integrates. check must give the same exit code for every one of them, and
# that code is the one listed with the change.
AGREEMENT_BASE = {
    "game": {"type": "ring", "n": 3},
    "graph": {"type": "cycle", "n": 3},
    "players": {"order": 2, "theta": 0.3, "delta": 1.0},
    "sim": {"step_size": 0.01, "t_end": 0.1, "log_every": 1, "conv_window": 0.05},
}
AGREEMENT_CASES = {
    "first-order-mode": (2, {"mode": "FirstOrder"}),
    "alternate-form-mode": (2, {"mode": "AlternateForm"}),
    "undirected-adaptive-mode": (3, {"mode": "UndirectedAdaptive"}),
    "negative-delta": (3, {"players": {"order": 2, "theta": 0.3, "delta": -1.0, "u_limit": 1.0}}),
    "negative-u-limit": (3, {"players": {"order": 2, "theta": 0.3, "delta": 1.0, "u_limit": -1.0}}),
    "unknown-form": (2, {"players": {"order": 2, "theta": 0.3, "delta": 1.0, "form": "weird"}}),
    "negative-step": (2, {"sim": dict(AGREEMENT_BASE["sim"], step_size=-0.01)}),
    "window-beyond-horizon": (2, {"sim": dict(AGREEMENT_BASE["sim"], conv_window=5.0)}),
    # certified bound 1000 * (1 + 5e-13): inside the relative slack on the limit
    "bound-at-limit": (
        0,
        {"players": {"order": 1, "theta": 0.3, "delta": 1000.0 * (1 + 5e-13), "u_limit": 1000.0}},
    ),
    "theta-beyond-one": (
        3,
        {"players": {"order": 2, "theta": 1.5, "delta": 1.0}, "allow_large_theta": True},
    ),
    # the first-order law reaches delta = 2, over the limit of 1
    "first-order-over-limit": (
        3,
        {"mode": "FirstOrder", "players": {"order": 1, "theta": 0.3, "delta": 2.0, "u_limit": 1.0}},
    ),
    "log-every-beyond-steps": (2, {"sim": dict(AGREEMENT_BASE["sim"], log_every=50)}),
    "steps-beyond-cap": (2, {"sim": dict(AGREEMENT_BASE["sim"], t_end=1e15)}),
    # 2e7 logged rows of 2 * 3 + 5 doubles: 1.6 GiB
    "log-beyond-1gib": (2, {"sim": dict(AGREEMENT_BASE["sim"], t_end=2e5)}),
    # malformed fields that once ended in a traceback (exit 1)
    "mode-not-a-string": (2, {"mode": ["SaturatedDirected"]}),
    "random-bound-not-a-number": (2, {"init": {"z0": {"random": {"low": [1]}}}, "seed": 1}),
    "theta-overflows-the-bound": (3, {"players": {"order": 3, "theta": 1e300, "delta": 1.0}}),
    "negative-seed": (2, {"seed": -1}),
    # every delta meets the limit when the gain row sums to 0, so none is largest
    "zero-gain-sum-auto-delta": (
        2,
        {"players": {"order": 2, "theta": 0, "auto_delta_margin": 0.5, "u_limit": 1}},
    ),
    # the exact-rational transformation build takes seconds beyond order 20
    "order-beyond-cap": (2, {"players": {"order": 21, "theta": 0.3, "delta": 1.0}}),
    # skew-symmetric coupling of players 1 and 2: modulus 0, not strongly monotone
    "non-monotone-game": (
        3,
        {"game": {"jacobian": [[0, 1, 0], [-1, 0, 0], [0, 0, 1]], "offset": [0, 0, 0]}},
    ),
    # modulus 1e-13 passes the monotonicity line; the closed-form solve refuses it
    "ill-conditioned-game": (
        4,
        {"game": {"jacobian": [[1e-13, 0, 0], [0, 1, 0], [0, 0, 1]], "offset": [0, 0, 0]}},
    ),
    # T's entries grow like theta^(-m(m-1)/2) and overflow double precision
    "transformation-overflow": (4, {"players": {"order": 9, "theta": 1e-10, "delta": 1.0}}),
    "integer-beyond-double": (
        2,
        {"players": {"order": 2, "theta": 0.3, "delta": 1.0, "u_limit": 10**400}},
    ),
    "allow-large-theta-not-bool": (
        2,
        {"players": {"order": 1, "theta": 0.6, "delta": 1.0}, "allow_large_theta": "no"},
    ),
    # the alternate law reaches m * theta * delta = 1.2, over the limit of 0.7
    # (the standard series would give 0.624)
    "alternate-over-own-bound": (
        3,
        {
            "mode": "AlternateForm",
            "players": {"order": 3, "theta": 0.4, "delta": 1.0, "u_limit": 0.7, "form": "alternate"},
        },
    ),
}


class TestCheckRunAgreement:
    # errors of the config alone, on a 3-ring whose verdict lines all pass:
    # check exits 2 before its first line, with run's message
    @pytest.mark.parametrize(
        "overrides",
        [
            {"sim": {"t_end": 1.0}},  # shorter than the default 10 s conv_window
            {"mode": "FirstOrder", "players": {"order": 3, "theta": 0.3, "delta": 1.0}},
            {"sim": dict(AGREEMENT_BASE["sim"], t_end=2e5)},  # 1.6 GiB of logged rows
        ],
        ids=["sim-block", "first-order-mode-order-3", "log-beyond-1gib"],
    )
    def test_config_error_exits_2_before_any_line(self, tmp_path, capsys, overrides):
        cfg_path = write_config(tmp_path, {**AGREEMENT_BASE, **overrides})
        checked = main(["check", cfg_path])
        check_out = capsys.readouterr()
        ran = main(["run", cfg_path, "--out", str(tmp_path / "o")])
        run_err = capsys.readouterr().err
        assert checked == ran == 2
        assert check_out.out == ""
        assert check_out.err == run_err and run_err.startswith("config error: ")
        assert run_err.count("\n") == 1

    @pytest.mark.parametrize(
        "code, overrides", AGREEMENT_CASES.values(), ids=AGREEMENT_CASES.keys()
    )
    def test_same_exit_code(self, tmp_path, capsys, code, overrides):
        cfg_path = write_config(tmp_path, {**AGREEMENT_BASE, **overrides})
        checked = main(["check", cfg_path])
        check_out = capsys.readouterr()
        ran = main(["run", cfg_path, "--out", str(tmp_path / "o")])
        run_err = capsys.readouterr().err
        assert checked == ran == code
        if "[FAIL]" not in check_out.out:
            # every verdict passed, so check went on to run's own validation
            assert check_out.err == run_err
