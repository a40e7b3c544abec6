"""Command line front end: scenario runner, preflight checks, solvers.

Subcommands:

    run            integrate a scenario config, write trajectory.csv and
                   summary.json (optionally seed-shifted replicates, which
                   integrate together as one batch)
    paper-example  run the built-in six-player worked example and its
                   unsaturated comparison, printing pass/fail verdicts
    solve-ne       print the equilibrium from both solvers and their gap
    check          preflight a config: named pass/fail assumption checks

Exit codes: 0 success, 2 config error, 3 violated method hypothesis,
4 numerical fault. Convergence status is data in summary.json, never an
exit code.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .dynamics import spec_verdicts
from .errors import (
    ConfigError,
    ConnectivityError,
    ConvergenceError,
    IllConditionedGameError,
    IntegrationError,
    ModeOrderError,
    MonotonicityError,
    SingularTransformError,
    SymmetryError,
)
from .game import check_game, solve_nash_closed_form, solve_nash_gradient_play
from .graph import is_strongly_connected, pinning_diagnostic
from .scenario import (
    build,
    game_from_block,
    graph_from_block,
    parse_config,
    read_json,
    reference_scenario,
)
from .sim import Summary, Trajectory, run, run_batch

__all__ = ["main"]

# check runs the pinned-Laplacian diagnostic up to the largest n whose three
# (n, n, n) float64 stacks fit in 1 GiB (its measured peak is about 3.1 such
# stacks); past it the line fails without running it
_PINNING_MAX_N = int((2**30 // (3 * 8)) ** (1 / 3))


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    """Columns: t, y_1..y_N, u_1..u_N, err, tilde_norm, z_residual, xbar_tail_max."""
    n = traj.y.shape[1]
    header = (
        ["t"]
        + [f"y_{i}" for i in range(1, n + 1)]
        + [f"u_{i}" for i in range(1, n + 1)]
        + ["err", "tilde_norm", "z_residual", "xbar_tail_max"]
    )
    table = np.column_stack(
        [traj.times, traj.y, traj.u, traj.err, traj.tilde_norm, traj.z_residual, traj.xbar_tail_max]
    )
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=",".join(header), comments="")


def _json_value(value):
    """A summary field as strict JSON data: arrays become lists, NaN and infinities null."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_summary_json(path: Path, summary: Summary, cfg: dict) -> None:
    fields = {key: _json_value(value) for key, value in asdict(summary).items()}
    payload = {**fields, "resolved_config": cfg}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_outputs(
    out_dir: Path, traj: Trajectory, summary: Summary, cfg: dict, prefix: str = ""
) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(out_dir / f"{prefix}trajectory.csv", traj)
        write_summary_json(out_dir / f"{prefix}summary.json", summary, cfg)
    except OSError as exc:
        raise ConfigError(f"cannot write outputs under {out_dir}: {exc.strerror or exc}") from None


def _check_out(out_dir: Path) -> None:
    """Before any integration, and creating nothing, reject an ``out_dir`` that
    is not a writable directory and whose nearest existing ancestor is not one."""
    nearest = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not nearest.is_dir():
        code = errno.ENOTDIR
    elif not os.access(nearest, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise ConfigError(f"cannot write outputs under {out_dir}: {os.strerror(code)}")


def _execute(cfg: dict, out_dir: Path, prefix: str = "") -> tuple[Trajectory, Summary]:
    built = build(cfg)
    traj, summary = run(
        built.game, built.graph, built.specs, built.mode, **cfg["init"], config=built.sim
    )
    _write_outputs(out_dir, traj, summary, cfg, prefix)
    return traj, summary


def _verdict_line(summary: Summary) -> str:
    t_conv = "-" if summary.t_converge is None else f"{summary.t_converge:.6g}"
    return (
        f"converged={summary.converged} t_converge={t_conv} "
        f"final_err={summary.final_err:.6g} max_abs_u={max(summary.max_abs_u):.6g} "
        f"bound_violated={summary.bound_violated} c_monotone={summary.c_monotone}"
    )


def cmd_run(args) -> int:
    raw = read_json(args.config)
    # validated before the replicates below re-parse it with shifted seeds
    cfg = parse_config(raw)
    out = Path(args.out)
    if args.replicates < 1:
        raise ConfigError(f"--replicates must be >= 1, got {args.replicates}")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    _check_out(out)
    if args.replicates == 1:
        _, summary = _execute(cfg, out)
        print(_verdict_line(summary))
        print(f"wrote {out / 'trajectory.csv'} and {out / 'summary.json'}")
        return 0
    # seed-shifted replicates differ only in their random init draws, so
    # they share game, graph, players, mode and sim and integrate as one batch
    base_seed = 0 if cfg["seed"] is None else cfg["seed"]
    cfgs = [parse_config({**raw, "seed": base_seed + r}) for r in range(args.replicates)]
    built = build(cfgs[0])
    results = run_batch(
        built.game, built.graph, built.specs, built.mode, [c["init"] for c in cfgs], built.sim
    )
    fault = None
    for r, (cfg, result) in enumerate(zip(cfgs, results)):
        head = f"replicate {r:02d} (seed {base_seed + r})"
        if isinstance(result, IntegrationError):
            print(f"{head}: numerical fault: {result}")
            fault = fault or result
            continue
        traj, summary = result
        _write_outputs(out / f"replicate_{r:02d}", traj, summary, cfg)
        print(f"{head}: {_verdict_line(summary)}")
    if fault is not None:
        raise fault
    print(f"wrote {args.replicates} replicate directories under {out}")
    return 0


def cmd_paper_example(args) -> int:
    out = Path(args.out)
    _check_out(out)
    cfg = reference_scenario()
    traj, summary = _execute(cfg, out)
    ucfg = reference_scenario(mode="Unsaturated")
    _, usummary = _execute(ucfg, out, prefix="unsaturated_")

    cap = max(summary.certified_bounds)
    peak = float(max(summary.step_max_abs_u))
    upeak = float(max(usummary.step_max_abs_u))
    entry = summary.unsaturated_entry_time
    drift = summary.c_trailing_drift
    checks = [
        (
            "convergence",
            summary.converged,
            f"final error {summary.final_err:.3e} vs tolerance 1e-02 over the last "
            f"{cfg['sim']['conv_window']:g} s",
        ),
        (
            "actuator-bound",
            not summary.bound_violated,
            f"max |u| {peak:.6f} vs certified 13/27 = {cap:.6f}",
        ),
        (
            "tail-entry",
            entry is not None,
            "all saturations inactive from t = "
            + (f"{entry:.6g} s onward" if entry is not None else "never (still active at end)"),
        ),
        (
            "estimator-residual",
            traj.z_residual[-1] < 0.1,
            f"final max |z_ij + eta_j| = {traj.z_residual[-1]:.3e} vs 0.1",
        ),
        (
            "output-link",
            traj.tilde_norm[-1] < 0.1,
            f"final linked-state norm {traj.tilde_norm[-1]:.3e} vs 0.1",
        ),
        (
            "gain-settling",
            drift is not None and drift < 1e-3,
            f"adaptive-gain drift {drift:.3e} over the last 10% vs 1e-03"
            if drift is not None
            else "adaptive-gain drift not measured: no logged row in the last 10%",
        ),
        (
            "unsaturated-contrast",
            usummary.converged and upeak > cap,
            f"comparison converged={usummary.converged}, its max |u| {upeak:.6f} vs 13/27",
        ),
    ]
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    print(
        f"wrote trajectory.csv, summary.json, unsaturated_trajectory.csv, "
        f"unsaturated_summary.json under {out}"
    )
    return 0


def cmd_solve_ne(args) -> int:
    data = read_json(args.config)
    if not isinstance(data, dict) or not isinstance(data.get("game"), dict):
        raise ConfigError("config needs a game block")
    game = game_from_block(data["game"])
    y_closed = solve_nash_closed_form(game)
    y_play = solve_nash_gradient_play(game)
    deviation = float(np.abs(y_closed - y_play).max())
    fmt = lambda y: "[" + ", ".join(f"{v:.10g}" for v in y) + "]"
    print(f"closed-form  : {fmt(y_closed)}")
    print(f"gradient-play: {fmt(y_play)}")
    print(f"max deviation: {deviation:.3e}")
    return 0


def cmd_check(args) -> int:
    cfg = parse_config(read_json(args.config))
    game = game_from_block(cfg["game"])
    graph = graph_from_block(cfg["graph"])
    cert = check_game(game)

    checks: list[tuple[str, bool, str]] = []
    checks.append(
        (
            "monotonicity",
            cert.strongly_monotone,
            f"pseudo-gradient modulus omega = {cert.monotonicity:.6g} (need > 0)",
        )
    )
    lip = ", ".join(f"{v:.6g}" for v in cert.lipschitz)
    checks.append(
        ("lipschitz", bool(np.isfinite(cert.lipschitz).all()), f"row bounds l_i = [{lip}]")
    )
    for i, p in enumerate(cfg["players"], start=1):
        verdicts = spec_verdicts(**p, allow_large_theta=cfg["allow_large_theta"])
        checks += [(f"{name} player {i}", holds, detail) for name, holds, detail in verdicts]
    if cfg["mode"] == "UndirectedAdaptive":  # the one mode that assumes symmetric weights
        checks.append(("symmetry", graph.symmetric, "weights[i][j] == weights[j][i] for all i, j"))
    connected = is_strongly_connected(graph)
    checks.append(
        (
            "strong-connectivity",
            connected,
            "directed path between every ordered node pair"
            if connected
            else "some ordered node pair has no directed path",
        )
    )
    if graph.n > _PINNING_MAX_N:
        checks.append(
            (
                "pinned-laplacian",
                False,
                f"not run at n = {graph.n}: past n = {_PINNING_MAX_N}, its three (n, n, n) "
                "float64 stacks would take more than the 1 GiB cap",
            )
        )
    else:
        diag = pinning_diagnostic(graph)
        checks.append(
            (
                "pinned-laplacian",
                diag.nonsingular and diag.min_real_eig > 0,
                f"min real eigenvalue {diag.min_real_eig:.6g}, condition {diag.condition:.3e}",
            )
        )

    all_ok = True
    for name, ok, detail in checks:
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    if not all_ok:
        return 3
    # run's own setup, up to its first step: raises what run raises
    built = build(cfg)
    run_batch(built.game, built.graph, built.specs, built.mode, [cfg["init"]], built.sim)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nashseek",
        description="Distributed Nash-equilibrium seeking for saturated integrator-chain players.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a scenario config and serialize the results")
    p_run.add_argument("config", help="path to a scenario JSON file")
    p_run.add_argument("--out", default="out", help="output directory (default: out)")
    p_run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted and ignored: replicates integrate as one batch in this process",
    )
    p_run.add_argument(
        "--replicates",
        type=int,
        default=1,
        help="number of seed-shifted repetitions of the scenario",
    )
    p_run.set_defaults(func=cmd_run)

    p_ex = sub.add_parser(
        "paper-example",
        help="run the built-in six-player worked example plus its unsaturated comparison",
    )
    p_ex.add_argument("--out", default="out", help="output directory (default: out)")
    p_ex.set_defaults(func=cmd_paper_example)

    p_ne = sub.add_parser("solve-ne", help="solve the config's game with both equilibrium solvers")
    p_ne.add_argument("config", help="path to a JSON file with at least a game block")
    p_ne.set_defaults(func=cmd_solve_ne)

    p_chk = sub.add_parser("check", help="preflight the assumptions behind a scenario config")
    p_chk.add_argument("config", help="path to a scenario JSON file")
    p_chk.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ModeOrderError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (MonotonicityError, ConnectivityError, SymmetryError, ValueError) as exc:
        print(f"assumption failed: {exc}", file=sys.stderr)
        return 3
    except (
        IntegrationError,
        SingularTransformError,
        IllConditionedGameError,
        ConvergenceError,
    ) as exc:
        print(f"numerical fault: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
