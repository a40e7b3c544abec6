"""Acceptance criteria, one test per criterion.

Every test prints one [PASS]/[FAIL] line with the measured quantities
before asserting, so the verdict survives in the captured output either
way. Long runs are shared through module-scoped fixtures.
"""

import json
import time

import numpy as np
import pytest

from nashseek import (
    FORM_ALTERNATE,
    FORM_STANDARD,
    Digraph,
    IntegrationError,
    PlayerSpec,
    SeekerMode,
    SimConfig,
    build,
    build_transformation,
    cycle_digraph,
    reference_scenario,
    ring_game,
    run,
    solve_nash_closed_form,
    solve_nash_gradient_play,
)
from nashseek.cli import main as cli_main
from conftest import random_monotone_game, random_strongly_connected
from oracles import similarity_residual

BOUND = 13.0 / 27.0

VERDICTS: list[str] = []


def verdict(num: int, ok: bool, detail: str) -> None:
    """Record and print the one-line verdict, then enforce it."""
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    VERDICTS.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def example_dir(tmp_path_factory):
    """cmd output of the built-in worked example plus its unsaturated twin."""
    out = tmp_path_factory.mktemp("example")
    start = time.perf_counter()
    code = cli_main(["paper-example", "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    return out, elapsed


@pytest.fixture(scope="module")
def reference_runs():
    """Base 100 s run, an identical rerun, and a step-halved run."""
    results = {}
    for key, h in (("base", 1e-3), ("rerun", 1e-3), ("halved", 5e-4)):
        scenario = reference_scenario()
        built = build(scenario)
        cfg = SimConfig(step_size=h, t_end=100.0, log_every=round(0.01 / h))
        results[key] = run(
            built.game,
            built.graph,
            built.specs,
            built.mode,
            **scenario["init"],
            config=cfg,
        )
    return results


@pytest.fixture(scope="module")
def companion_run():
    """The worked example on a horizon long enough to converge."""
    scenario = reference_scenario()
    built = build(scenario)
    cfg = SimConfig(step_size=2e-3, t_end=300.0, log_every=5)
    return run(
        built.game,
        built.graph,
        built.specs,
        built.mode,
        **scenario["init"],
        config=cfg,
    )


@pytest.fixture(scope="module")
def first_order_run():
    game = ring_game(3)
    g = cycle_digraph(3)
    specs = tuple(PlayerSpec(order=1, theta=1.0 / 3.0, delta=1.0) for _ in range(3))
    cfg = SimConfig(step_size=1e-3, t_end=60.0, log_every=10)
    return run(game, g, specs, SeekerMode.FIRST_ORDER, config=cfg)


@pytest.fixture(scope="module")
def undirected_run():
    w = cycle_digraph(6).weights
    g = Digraph(weights=w + w.T)
    specs = tuple(PlayerSpec(order=3, theta=1.0 / 3.0, delta=1.0) for _ in range(6))
    x0 = [np.array([float(i), 1.0, 1.0]) for i in range(1, 7)]
    cfg = SimConfig(step_size=2e-3, t_end=300.0, log_every=5)
    return run(
        ring_game(6),
        g,
        specs,
        SeekerMode.UNDIRECTED_ADAPTIVE,
        x0=x0,
        z0=1.0,
        c0=1.0,
        config=cfg,
    )


@pytest.fixture(scope="module")
def random_scenarios():
    """Twenty randomized closed-loop runs: digraph, game, orders, gains, init."""
    rng = np.random.default_rng(62024)
    cfg = SimConfig(step_size=4e-3, t_end=200.0, log_every=5)
    out = []
    for idx in range(20):
        n = int(rng.integers(2, 5))
        game = random_monotone_game(n, rng)
        g = random_strongly_connected(n, rng)
        specs = tuple(
            PlayerSpec(
                order=int(rng.integers(1, 4)),
                theta=float(rng.uniform(0.1, 0.45)),
                delta=1.0,
            )
            for _ in range(n)
        )
        x0 = [rng.uniform(-1.0, 1.0, size=s.order) for s in specs]
        z0 = rng.uniform(-0.5, 0.5, size=(n, n))
        try:
            traj, summary = run(
                game, g, specs, SeekerMode.SATURATED_DIRECTED,
                x0=x0, z0=z0, c0=1.0, config=cfg,
            )
            out.append({"idx": idx, "n": n, "traj": traj, "summary": summary, "fault": None})
        except IntegrationError as exc:
            out.append({"idx": idx, "n": n, "traj": None, "summary": None, "fault": str(exc)})
    return out


@pytest.fixture(scope="module")
def converged_runs(companion_run, first_order_run, undirected_run, random_scenarios):
    """Every converged saturated-mode run the suite produced."""
    runs = [
        ("worked-example-300s", companion_run),
        ("first-order-ring", first_order_run),
        ("undirected-adaptive", undirected_run),
    ]
    for item in random_scenarios:
        if item["summary"] is not None and item["summary"].converged:
            runs.append((f"random-{item['idx']:02d}", (item["traj"], item["summary"])))
    return [(name, traj, summary) for name, (traj, summary) in runs if summary.converged]


def test_criterion_01_worked_example_convergence(example_dir):
    out, elapsed = example_dir
    summary = json.loads((out / "summary.json").read_text())
    ok = summary["converged"] and elapsed < 60.0
    verdict(
        1,
        ok,
        "worked example sustains error < 1e-2 over the final 10 s of the 100 s "
        f"horizon: converged={summary['converged']}, final error "
        f"{summary['final_err']:.3f}, runtime {elapsed:.1f} s (limit 60 s)",
    )


def test_criterion_02_actuator_bound(example_dir):
    out, _ = example_dir
    summary = json.loads((out / "summary.json").read_text())
    peak = max(summary["step_max_abs_u"])
    ok = peak <= BOUND + 1e-9 and not summary["bound_violated"]
    verdict(
        2,
        ok,
        f"max |u| over every integration step {peak:.6f} <= 13/27 + 1e-9 "
        f"({BOUND:.6f}), bound_violated={summary['bound_violated']}",
    )


def test_criterion_03_unsaturated_contrast(example_dir):
    out, _ = example_dir
    summary = json.loads((out / "unsaturated_summary.json").read_text())
    peak = max(summary["step_max_abs_u"])
    ok = summary["converged"] and peak > BOUND
    verdict(
        3,
        ok,
        f"unsaturated twin converged={summary['converged']} (final error "
        f"{summary['final_err']:.3f}) and its peak |u| over every step {peak:.6f} "
        "exceeds 13/27",
    )


def test_criterion_04_transformation_identities():
    worst_a = worst_b = 0.0
    worst_m2 = 0.0
    for m in range(1, 7):
        for theta in (0.1, 1.0 / 3.0, 0.45):
            for form in (FORM_STANDARD, FORM_ALTERNATE):
                # u_limit m covers the alternate bound m * theta * delta
                tr = build_transformation(
                    PlayerSpec(order=m, theta=theta, delta=1.0, u_limit=float(m), form=form)
                )
                res_a, res_b = similarity_residual(tr)
                worst_a = max(worst_a, res_a)
                worst_b = max(worst_b, res_b)
                if m == 2:
                    closed = np.array([[1.0 / theta, -1.0 / theta], [0.0, 1.0]])
                    worst_m2 = max(worst_m2, np.abs(tr.t_matrix - closed).max())
    ok = worst_a < 1e-10 and worst_b < 1e-12 and worst_m2 < 1e-12
    verdict(
        4,
        ok,
        "orders 1..6, all gains, both forms: max similarity residuals "
        f"{worst_a:.1e} (state, limit 1e-10) and {worst_b:.1e} (input, limit "
        f"1e-12); second-order closed form off by {worst_m2:.1e} (limit 1e-12)",
    )


def test_criterion_05_solver_oracle_equivalence():
    rng = np.random.default_rng(52024)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 6))
        game = random_monotone_game(n, rng)
        gap = float(
            np.abs(solve_nash_closed_form(game) - solve_nash_gradient_play(game)).max()
        )
        worst = max(worst, gap)
    verdict(
        5,
        worst <= 1e-6,
        f"25 random monotone games: closed-form vs gradient-play worst gap "
        f"{worst:.2e} (limit 1e-6)",
    )


def test_criterion_06_randomized_property_suite(random_scenarios):
    faults = [it for it in random_scenarios if it["fault"] is not None]
    finished = [it for it in random_scenarios if it["summary"] is not None]
    converged = [it for it in finished if it["summary"].converged]
    violations = [it for it in finished if it["summary"].bound_violated]
    non_monotone = [it for it in finished if not it["summary"].c_monotone]
    stragglers = [it["idx"] for it in finished if not it["summary"].converged]
    ok = not faults and not violations and not non_monotone and len(converged) == 20
    verdict(
        6,
        ok,
        f"20 randomized scenarios by t = 200: {len(converged)}/20 converged "
        f"(stragglers: {stragglers}), {len(violations)} bound violations, "
        f"{len(non_monotone)} gain-monotonicity failures, {len(faults)} faults",
    )


def test_criterion_07_saturation_exit(converged_runs):
    assert converged_runs, "no converged saturated runs to audit"
    bad = []
    entries = {}
    for name, traj, summary in converged_runs:
        entry = summary.unsaturated_entry_time
        if entry is None:
            bad.append(name)
            continue
        entries[name] = entry
        after = traj.xbar_tail_max[traj.times >= entry]
        if not (after <= 0.0).all():
            bad.append(name)
    latest = max(entries.values()) if entries else float("nan")
    verdict(
        7,
        not bad,
        f"{len(converged_runs)} converged saturated runs all leave saturation "
        f"for good (latest entry {latest:.2f} s); offenders: {bad}",
    )


def test_criterion_08_estimator_internals(converged_runs):
    assert converged_runs, "no converged runs to audit"
    bad = []
    for name, traj, summary in converged_runs:
        if not (
            traj.z_residual[-1] < 0.1
            and traj.tilde_norm[-1] < 0.1
            and summary.c_trailing_drift < 1e-3
        ):
            bad.append(
                f"{name}: z {traj.z_residual[-1]:.2e}, link {traj.tilde_norm[-1]:.2e}, "
                f"drift {summary.c_trailing_drift:.2e}"
            )
    verdict(
        8,
        not bad,
        f"{len(converged_runs)} converged runs keep final estimate residual "
        f"and linked-state norm below 0.1 and trailing gain drift below 1e-3; "
        f"offenders: {bad}",
    )


def test_criterion_09_variant_modes(first_order_run, undirected_run):
    _, s_first = first_order_run
    _, s_undir = undirected_run
    ok = s_first.converged and s_undir.converged
    t_first = s_first.t_converge
    t_undir = s_undir.t_converge
    verdict(
        9,
        ok,
        "first-order ring converged="
        f"{s_first.converged} (t = {t_first if t_first is not None else float('nan'):.1f} s), "
        "undirected adaptive on the symmetrized cycle converged="
        f"{s_undir.converged} (t = {t_undir if t_undir is not None else float('nan'):.1f} s), "
        "both within 1e-2 of the closed-form equilibrium",
    )


def test_criterion_10_numerical_hygiene(reference_runs):
    base_traj, _ = reference_runs["base"]
    rerun_traj, _ = reference_runs["rerun"]
    halved_traj, _ = reference_runs["halved"]
    identical = (
        np.array_equal(base_traj.y, rerun_traj.y)
        and np.array_equal(base_traj.u, rerun_traj.u)
        and np.array_equal(base_traj.err, rerun_traj.err)
    )
    halving_gap = float(np.abs(base_traj.y[-1] - halved_traj.y[-1]).max())
    ok = identical and halving_gap < 1e-6
    verdict(
        10,
        ok,
        f"rerun bit-identical={identical}; halving the step changes y(100) by "
        f"{halving_gap:.2e} (limit 1e-6)",
    )
