"""Outside-in tracer: spans and counts around the package's public functions.

Nothing in the package is edited. The tracer replaces module attributes
with wrappers for the length of a traced cycle and puts the originals back
afterwards. This works because the simulator and the CLI look up the
functions they call (``rk4_step``, ``build_transformation``, ``run``,
``write_trajectory_csv`` and the rest) by global name at call time.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``op`` the operation it belongs to.
A name's self time is its spans' duration minus the part covered by child
spans. Hot calls that would cost more to time than to run (the RK4
right-hand side, ``pseudo_gradient``) are counted, not timed.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

# (module, attribute, span name). The same function is wrapped in every
# namespace that calls it, so each call is seen once, under one name.
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_config", "scenario.parse_config"),
    ("scenario", "parse_config", "scenario.parse_config"),
    ("cli", "build", "scenario.build"),
    ("scenario", "build", "scenario.build"),
    ("cli", "run", "sim.run"),
    ("cli", "write_trajectory_csv", "cli.write_trajectory_csv"),
    ("cli", "write_summary_json", "cli.write_summary_json"),
    ("cli", "check_game", "game.check_game"),
    ("sim", "check_game", "game.check_game"),
    ("game", "check_game", "game.check_game"),
    ("cli", "solve_nash_closed_form", "game.solve_nash_closed_form"),
    ("sim", "solve_nash_closed_form", "game.solve_nash_closed_form"),
    ("cli", "solve_nash_gradient_play", "game.solve_nash_gradient_play"),
    ("cli", "pinning_diagnostic", "graph.pinning_diagnostic"),
    ("cli", "is_strongly_connected", "graph.is_strongly_connected"),
    ("sim", "is_strongly_connected", "graph.is_strongly_connected"),
    ("sim", "build_transformation", "dynamics.build_transformation"),
    ("sim", "detect_convergence", "sim.detect_convergence"),
    ("sim", "unsaturated_entry", "sim.unsaturated_entry"),
    ("seeker", "integral_scale", "seeker.integral_scale"),
    ("seeker", "certified_bound", "seeker.certified_bound"),
)


class Tracer:
    """Records spans and counts while installed; one instance per run."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.run_sizes: list[int] = []
        self.pinned_sizes: list[int] = []
        self.op = -1
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------
    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def _rk4_step(self, fn):
        counts = self.counts

        def counted(rhs):
            def rhs_counted(state):
                counts["sim.rhs_calls"] += 1
                return rhs(state)

            return rhs_counted

        def rk4_step(rhs, state, h):
            counts["sim.state_len"] = max(counts["sim.state_len"], len(state))
            return fn(counted(rhs), state, h)

        return self._span("sim.rk4_step", rk4_step)

    def _run(self, fn):
        def run(game, g, *args, **kwargs):
            self.run_sizes.append(g.n)
            return fn(game, g, *args, **kwargs)

        return self._span("sim.run", run)

    def _pinning(self, fn):
        def pinning_diagnostic(g):
            self.pinned_sizes.append(g.n)
            return fn(g)

        return self._span("graph.pinning_diagnostic", pinning_diagnostic)

    def _csv(self, fn):
        counts = self.counts

        def write_trajectory_csv(path, traj):
            fn(path, traj)
            counts["cli.csv_bytes"] += os.path.getsize(path)

        return self._span("cli.write_trajectory_csv", write_trajectory_csv)

    def _pseudo_gradient(self, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        def pseudo_gradient(game, y):
            if stack and spans[stack[-1]][0] == "game.solve_nash_gradient_play":
                counts["game.gradient_play_iters"] += 1
            return fn(game, y)

        return pseudo_gradient

    # -- install / remove -----------------------------------------------
    def _set(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``; note it if it is gone."""
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap every traced attribute; a renamed one is listed in ``missing``."""
        self.missing.clear()
        special = {
            ("cli", "run"): self._run,
            ("cli", "pinning_diagnostic"): self._pinning,
            ("cli", "write_trajectory_csv"): self._csv,
        }
        for mod, attr, name in SPANS:
            make = special.get((mod, attr)) or functools.partial(self._span, name)
            self._set(self.modules[mod], attr, make)
        self._set(self.modules["sim"], "rk4_step", self._rk4_step)
        game_cls = self.modules["game"].QuadraticGame
        self._set(game_cls, "self_gradients", functools.partial(self._span, "game.self_gradients"))
        self._set(game_cls, "pseudo_gradient", self._pseudo_gradient)

    def remove(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def reset(self) -> None:
        """Drop recorded spans and counts; called between cycles."""
        self.spans.clear()
        self.counts.clear()
        self.run_sizes.clear()
        self.pinned_sizes.clear()

    # -- aggregation ----------------------------------------------------
    def totals(self) -> tuple[dict, dict, Counter]:
        """Inclusive time, self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl: dict = defaultdict(float)
        self_t: dict = defaultdict(float)
        calls: Counter = Counter()
        for k, (name, start, end, _, _) in enumerate(self.spans):
            incl[name] += end - start
            self_t[name] += end - start - child[k]
            calls[name] += 1
        return incl, self_t, calls


# Per-layer metrics of one cycle: name -> unit. Names ending in ``_s`` are
# wall seconds summed over the cycle's operations. ``(computed)`` counts are
# derived from sizes, not measured.
PER_LAYER_UNITS = {
    "sim.rk4_step_s": "s",
    "sim.rk4_step_calls": "count",
    "sim.rk4_step_us": "us",
    "sim.rk4_step_self_s": "s",
    "sim.rhs_calls": "count",
    "sim.state_len": "count",
    "sim.lap_flops_per_step": "count",
    "sim.run_self_s": "s",
    "sim.detect_convergence_s": "s",
    "sim.unsaturated_entry_s": "s",
    "game.self_gradients_s": "s",
    "game.self_gradients_calls": "count",
    "game.check_game_s": "s",
    "game.solve_nash_closed_form_s": "s",
    "game.solve_nash_gradient_play_s": "s",
    "game.gradient_play_iters": "count",
    "graph.pinning_diagnostic_s": "s",
    "graph.pinned_matrix_bytes": "bytes",
    "graph.is_strongly_connected_s": "s",
    "dynamics.build_transformation_s": "s",
    "dynamics.build_transformation_calls": "count",
    "seeker.setup_s": "s",
    "scenario.parse_config_s": "s",
    "scenario.build_s": "s",
    "scenario.parse_config_calls": "count",
    "cli.write_trajectory_csv_s": "s",
    "cli.csv_bytes": "bytes",
    "cli.write_summary_json_s": "s",
    "cli.self_s": "s",
    "errors.exit_2": "count",
    "errors.exit_3": "count",
    "errors.exit_4": "count",
    "trace.overhead_s": "s",
}

COMPUTED = ("sim.lap_flops_per_step", "graph.pinned_matrix_bytes")

# Counts that must repeat exactly from cycle to cycle and run to run.
EXACT_COUNTS = tuple(
    name for name, unit in PER_LAYER_UNITS.items() if unit in ("count", "bytes")
)


def cycle_metrics(tracer: Tracer, exit_codes: list[int]) -> dict:
    """Per-layer metrics of the cycle the tracer recorded (no overhead term)."""
    incl, self_t, calls = tracer.totals()
    c = tracer.counts
    steps = calls["sim.rk4_step"]
    n_run = max(tracer.run_sizes, default=0)
    return {
        "sim.rk4_step_s": incl["sim.rk4_step"],
        "sim.rk4_step_calls": steps,
        "sim.rk4_step_us": 1e6 * incl["sim.rk4_step"] / steps if steps else 0.0,
        "sim.rk4_step_self_s": self_t["sim.rk4_step"],
        "sim.rhs_calls": c["sim.rhs_calls"],
        "sim.state_len": c["sim.state_len"],
        "sim.lap_flops_per_step": 8 * n_run**3,
        "sim.run_self_s": self_t["sim.run"],
        "sim.detect_convergence_s": incl["sim.detect_convergence"],
        "sim.unsaturated_entry_s": incl["sim.unsaturated_entry"],
        "game.self_gradients_s": incl["game.self_gradients"],
        "game.self_gradients_calls": calls["game.self_gradients"],
        "game.check_game_s": incl["game.check_game"],
        "game.solve_nash_closed_form_s": incl["game.solve_nash_closed_form"],
        "game.solve_nash_gradient_play_s": incl["game.solve_nash_gradient_play"],
        "game.gradient_play_iters": c["game.gradient_play_iters"],
        "graph.pinning_diagnostic_s": incl["graph.pinning_diagnostic"],
        "graph.pinned_matrix_bytes": sum(8 * n**4 for n in tracer.pinned_sizes),
        "graph.is_strongly_connected_s": incl["graph.is_strongly_connected"],
        "dynamics.build_transformation_s": incl["dynamics.build_transformation"],
        "dynamics.build_transformation_calls": calls["dynamics.build_transformation"],
        "seeker.setup_s": incl["seeker.integral_scale"] + incl["seeker.certified_bound"],
        "scenario.parse_config_s": incl["scenario.parse_config"],
        "scenario.build_s": incl["scenario.build"],
        "scenario.parse_config_calls": calls["scenario.parse_config"],
        "cli.write_trajectory_csv_s": incl["cli.write_trajectory_csv"],
        "cli.csv_bytes": c["cli.csv_bytes"],
        "cli.write_summary_json_s": incl["cli.write_summary_json"],
        "cli.self_s": self_t["cli.main"],
        "errors.exit_2": exit_codes.count(2),
        "errors.exit_3": exit_codes.count(3),
        "errors.exit_4": exit_codes.count(4),
    }
