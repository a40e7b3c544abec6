"""Integrator, state layout, detectors, and whole-loop consistency."""

import copy
import warnings
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

from nashseek import sim
from nashseek import (
    ConfigError,
    ConnectivityError,
    Digraph,
    IntegrationError,
    ModeOrderError,
    MonotonicityError,
    PlayerSpec,
    QuadraticGame,
    SeekerMode,
    SimConfig,
    SymmetryError,
    Trajectory,
    build_transformation,
    certified_bound,
    cycle_digraph,
    detect_convergence,
    ring_game,
    run,
    run_batch,
    Summary,
    unsaturated_entry,
)
from conftest import random_monotone_game, random_strongly_connected
from oracles import (
    SeekerState,
    blockwise_rhs_reference,
    consensus_rhs,
    control,
    pack_state,
    rk4_step,
    tilde_x1,
    unpack_state,
)

SAT = SeekerMode.SATURATED_DIRECTED

# _DENSE_MAX_BYTES that selects each right-hand side of the integrator
RHS_PATHS = {"dense": 2**62, "blockwise": 0}
# every mode on both paths; the dense cases keep the plain mode as their id
MODES_ON_PATHS = [
    pytest.param(mode, path, id=mode.value if path == "dense" else f"{mode.value}-{path}")
    for path in RHS_PATHS
    for mode in SeekerMode
]


@pytest.fixture
def use_path(monkeypatch):
    """Select a right-hand side; returns how often the dense operator was built."""
    built = []
    make = sim.linear_operator

    def counting(*args):
        built.append(1)
        return make(*args)

    monkeypatch.setattr(sim, "linear_operator", counting)

    def select(path):
        monkeypatch.setattr(sim, "_DENSE_MAX_BYTES", RHS_PATHS[path])
        return built

    return select


def synthetic_traj(times, err=None, tail=None):
    times = np.asarray(times, dtype=float)
    k = times.size
    return Trajectory(
        times=times,
        y=np.zeros((k, 1)),
        u=np.zeros((k, 1)),
        err=np.asarray(err, dtype=float) if err is not None else np.zeros(k),
        xbar_tail_max=np.asarray(tail, dtype=float) if tail is not None else np.full(k, -1.0),
        tilde_norm=np.zeros(k),
        z_residual=np.zeros(k),
        c_snapshot=np.ones((1, 1)),
    )


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.steps == 100_000

    def test_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(step_size=0.0)
        with pytest.raises(ConfigError):
            SimConfig(log_every=0)
        with pytest.raises(ConfigError, match="log_every must be a positive integer, got True"):
            SimConfig(log_every=True)
        with pytest.raises(ConfigError):
            SimConfig(t_end=5.0, conv_window=10.0)
        with pytest.raises(ConfigError):
            SimConfig(conv_tol=-1.0)
        with pytest.raises(ConfigError, match="no row would be logged"):
            SimConfig(step_size=0.01, t_end=1.0, log_every=500, conv_window=0.5)
        with pytest.raises(ConfigError, match="exceeds the cap"):
            SimConfig(t_end=1e15)


class TestStateLayout:
    def test_flat_length(self):
        state = SeekerState(
            xbar=(np.zeros(1), np.zeros(1)),
            z=np.zeros((2, 2)),
            c=np.ones((2, 2)),
            eta=np.zeros(2),
        )
        assert pack_state(state).size == 12

    def test_round_trip(self, rng):
        orders = (2, 1, 3)
        n = 3
        state = SeekerState(
            xbar=tuple(rng.standard_normal(m) for m in orders),
            z=rng.standard_normal((n, n)),
            c=rng.uniform(0.5, 2.0, size=(n, n)),
            eta=rng.standard_normal(n),
        )
        back = unpack_state(pack_state(state), orders)
        for a, b in zip(back.xbar, state.xbar):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(back.z, state.z)
        np.testing.assert_array_equal(back.c, state.c)
        np.testing.assert_array_equal(back.eta, state.eta)

    def test_segment_order(self):
        # layout contract: [xbar_1 | xbar_2 | z row-major | c row-major | eta]
        state = SeekerState(
            xbar=(np.array([1.0]), np.array([2.0])),
            z=np.array([[3.0, 4.0], [5.0, 6.0]]),
            c=np.array([[7.0, 8.0], [9.0, 10.0]]),
            eta=np.array([11.0, 12.0]),
        )
        np.testing.assert_array_equal(pack_state(state), np.arange(1.0, 13.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            unpack_state(np.zeros(11), (1, 1))


class TestRk4:
    def test_exponential_decay_accuracy(self):
        def decay(s, out, lin):
            return partial(np.negative, s, out)

        out = sim._Stepper(decay, 0, np.array([1.0]), 0.1).step()
        assert out[0] == pytest.approx(np.exp(-0.1), abs=1e-6)


class TestDetectors:
    def test_exponential_error_crossing(self):
        times = np.arange(1, 10001) * 1e-3
        traj = synthetic_traj(times, err=np.exp(-times))
        ok, t_conv = detect_convergence(traj, 1e-2, 1.0)
        assert ok
        assert t_conv == pytest.approx(-np.log(1e-2), abs=2e-3)

    def test_always_below(self):
        traj = synthetic_traj([0.1, 0.2, 0.3], err=[0.0, 0.0, 0.0])
        ok, t_conv = detect_convergence(traj, 1e-2, 0.2)
        assert ok and t_conv == pytest.approx(0.1)

    def test_tail_above_tolerance(self):
        traj = synthetic_traj([0.1, 0.2, 0.3], err=[0.0, 0.0, 0.5])
        assert detect_convergence(traj, 1e-2, 0.2) == (False, None)

    # a spike 0.4 s and 0.8 s before the end of a 1 s window: the second is
    # in the window's older half
    @pytest.mark.parametrize("spike", [95, 91], ids=["newer-half", "older-half"])
    def test_spike_inside_window(self, spike):
        times = np.arange(1, 101) * 0.1
        err = np.full(100, 1e-4)
        err[spike] = 0.5
        traj = synthetic_traj(times, err=err)
        assert detect_convergence(traj, 1e-2, 1.0) == (False, None)

    def test_entry_cases(self):
        t = [0.1, 0.2, 0.3, 0.4]
        assert unsaturated_entry(synthetic_traj(t, tail=[-1, -1, -1, -1])) == 0.1
        assert unsaturated_entry(synthetic_traj(t, tail=[1.0, -1, -1, 1e-6])) is None
        assert unsaturated_entry(synthetic_traj(t, tail=[1.0, 0.5, -0.1, -0.2])) == 0.3
        # exactly zero counts as inside the level
        assert unsaturated_entry(synthetic_traj(t, tail=[1.0, 0.0, 0.0, 0.0])) == 0.2


def small_setup(n=3, orders=(1, 2, 3), form="standard"):
    game = ring_game(n)
    g = cycle_digraph(n)
    thetas = (0.2, 0.3, 1.0 / 3.0)
    specs = tuple(
        PlayerSpec(order=m, theta=thetas[i % 3], delta=1.0, form=form)
        for i, m in enumerate(orders)
    )
    return game, g, specs


class TestRunValidation:
    def test_disconnected_graph_rejected(self):
        w = np.zeros((3, 3))
        w[1, 0] = w[2, 1] = 1.0
        game, _, specs = small_setup()
        with pytest.raises(ConnectivityError):
            run(game, Digraph(weights=w), specs, SAT)

    def test_undirected_mode_needs_symmetry(self):
        game, g, specs = small_setup()
        with pytest.raises(SymmetryError):
            run(game, g, specs, SeekerMode.UNDIRECTED_ADAPTIVE)

    def test_first_order_mode_needs_order_one(self):
        game, g, specs = small_setup()
        with pytest.raises(ModeOrderError):
            run(game, g, specs, SeekerMode.FIRST_ORDER)

    def test_non_positive_gain_rejected(self):
        game, g, specs = small_setup()
        with pytest.raises(ConfigError):
            run(game, g, specs, SAT, c0=0.0)

    def test_wrong_x0_shape_rejected(self):
        game, g, specs = small_setup()
        with pytest.raises(ConfigError):
            run(game, g, specs, SAT, x0=[np.zeros(2)] * 3)

    def test_inputs_of_the_wrong_length_rejected(self):
        game, g, specs = small_setup()
        with pytest.raises(ConfigError, match="x0 has 2 entries for 3 players"):
            run(game, g, specs, SAT, x0=[np.zeros(1), np.zeros(2)])
        with pytest.raises(ConfigError, match=r"z0 has shape \(2, 2\), expected \(3, 3\)"):
            run(game, g, specs, SAT, z0=np.zeros((2, 2)))
        with pytest.raises(ConfigError, match="got 2 player specs for 3 players"):
            run_batch(game, g, specs[:2], SAT, [{"x0": None, "z0": 0.0, "c0": 1.0}], SimConfig())

    def test_size_mismatch_rejected(self):
        game, _, specs = small_setup()
        with pytest.raises(ConfigError):
            run(game, cycle_digraph(4), specs, SAT)

    def test_game_not_strongly_monotone_rejected(self):
        _, g, specs = small_setup()
        skew = QuadraticGame(jacobian=[[0, 1, 0], [-1, 0, 0], [0, 0, 1]], offset=np.zeros(3))
        with pytest.raises(MonotonicityError):
            run(skew, g, specs, SAT)


class TestRunBehavior:
    CFG = SimConfig(step_size=1e-3, t_end=0.05, log_every=1, conv_window=0.05)

    @pytest.mark.parametrize("mode, path", MODES_ON_PATHS)
    def test_matches_scalar_reference(self, rng, use_path, mode, path):
        """Each right-hand side of the integrator against the per-player scalar laws."""
        built = use_path(path)
        game, g, specs = small_setup(
            orders=(1, 1, 1) if mode is SeekerMode.FIRST_ORDER else (1, 2, 3),
            form="alternate" if mode is SeekerMode.ALTERNATE_FORM else "standard",
        )
        if mode is SeekerMode.UNDIRECTED_ADAPTIVE:
            g = Digraph(weights=np.ones((3, 3)) - np.eye(3))
        x0 = [rng.uniform(-1, 1, size=s.order) for s in specs]
        z0 = rng.uniform(-0.5, 0.5, size=(3, 3))
        c0 = rng.uniform(0.5, 1.5, size=(3, 3))
        traj, _ = run(game, g, specs, mode, x0=x0, z0=z0, c0=c0, config=self.CFG)
        assert len(built) == (path == "dense")

        transforms = [build_transformation(s) for s in specs]

        def slow_rhs(flat):
            st = unpack_state(flat, specs)
            rates = consensus_rhs(st, g, game, mode)
            pieces = []
            for i, spec in enumerate(specs):
                u = control(i, st, spec, mode)
                pieces.append(transforms[i].a_bar @ st.xbar[i] + u)
            return np.concatenate(
                [*pieces, rates.z_dot.ravel(), rates.c_dot.ravel(), rates.eta_dot]
            )

        flat = np.concatenate(
            [
                np.concatenate([transforms[i].t_inverse @ x0[i] for i in range(3)]),
                z0.ravel(),
                c0.ravel(),
                np.zeros(3),
            ]
        )
        h = self.CFG.step_size
        for k in range(self.CFG.steps):
            flat = rk4_step(slow_rhs, flat, h)
            st = unpack_state(flat, specs)
            y = [float(transforms[i].t_matrix[0] @ st.xbar[i]) for i in range(3)]
            u = [control(i, st, specs[i], mode) for i in range(3)]
            tilde = max(abs(tilde_x1(i, st, specs[i])) for i in range(3))
            zres = float(np.abs(st.z + st.eta).max())
            np.testing.assert_allclose(traj.y[k], y, atol=1e-9)
            np.testing.assert_allclose(traj.u[k], u, atol=1e-9)
            assert traj.tilde_norm[k] == pytest.approx(tilde, abs=1e-9)
            assert traj.z_residual[k] == pytest.approx(zres, abs=1e-9)

    def test_rerun_bit_identical(self):
        game, g, specs = small_setup()
        x0 = [np.full(s.order, 0.4) for s in specs]
        a = run(game, g, specs, SAT, x0=x0, z0=0.2, config=self.CFG)
        b = run(game, g, specs, SAT, x0=x0, z0=0.2, config=self.CFG)
        np.testing.assert_array_equal(a[0].y, b[0].y)
        np.testing.assert_array_equal(a[0].u, b[0].u)
        np.testing.assert_array_equal(a[0].err, b[0].err)

    def test_logging_grid(self):
        game, g, specs = small_setup()
        cfg = SimConfig(step_size=1e-3, t_end=1.0, log_every=7, conv_window=0.5)
        traj, _ = run(game, g, specs, SAT, config=cfg)
        assert traj.times.size == 1000 // 7
        assert traj.times[0] == pytest.approx(7e-3)
        assert traj.times[-1] == pytest.approx(994e-3)

    def test_certified_bounds_in_summary(self):
        game, g, specs = small_setup()
        _, summary = run(game, g, specs, SAT, config=self.CFG)
        expected = [certified_bound(s, SAT) for s in specs]
        np.testing.assert_allclose(summary.certified_bounds, expected)

    def test_blowup_raises_with_time(self, monkeypatch):
        game, g, specs = small_setup(orders=(1, 1, 1))
        cfg = SimConfig(step_size=0.05, t_end=2.0, log_every=1, conv_window=1.0)
        with pytest.raises(IntegrationError) as info:
            run(game, g, specs, SAT, z0=1e3, config=cfg)
        assert info.value.time is not None
        # a batch whose members all fault, at steps 2 and 3, stops at the last
        steps = record_steppers(monkeypatch)["steps"]
        inits = [{"x0": None, "z0": z0, "c0": 1.0} for z0 in (1e3, 5.0)]
        results = list(run_batch(game, g, specs, SAT, inits, cfg))
        assert [round(r.time / cfg.step_size) for r in results] == [2, 3]
        # three batch steps, each fault's one lone re-take after its step
        assert steps == [(2,), (2,), (), (2,), ()]

    def test_bound_and_monotonicity_fuzz(self, rng):
        cfg = SimConfig(step_size=4e-3, t_end=1.0, log_every=5, conv_window=0.5)
        for trial in range(100):
            n = int(rng.integers(2, 5))
            game = random_monotone_game(n, rng)
            g = random_strongly_connected(n, rng)
            specs = tuple(
                PlayerSpec(
                    order=int(rng.integers(1, 4)),
                    theta=float(rng.uniform(0.1, 0.45)),
                    delta=float(rng.uniform(0.5, 2.0)),
                )
                for _ in range(n)
            )
            x0 = [rng.uniform(-1, 1, size=s.order) for s in specs]
            z0 = rng.uniform(-0.5, 0.5, size=(n, n))
            traj, summary = run(game, g, specs, SAT, x0=x0, z0=z0, config=cfg)
            assert not summary.bound_violated, trial
            assert summary.c_monotone, trial
            bounds = np.array([certified_bound(s, SAT) for s in specs])
            assert (np.abs(traj.u) <= bounds + 1e-9).all(), trial


def assert_same_result(result, solo):
    """Every Trajectory array and Summary field equal, bit for bit."""
    (traj, summary), (solo_traj, solo_summary) = result, solo
    for f in fields(Trajectory):
        np.testing.assert_array_equal(getattr(traj, f.name), getattr(solo_traj, f.name))
    for f in fields(Summary):
        np.testing.assert_array_equal(getattr(summary, f.name), getattr(solo_summary, f.name))
        assert type(getattr(summary, f.name)) is type(getattr(solo_summary, f.name))


def poison_dense_rhs(monkeypatch):
    """Make the bound dense right-hand side write NaN rates wherever c_11 > 5.

    Elsewhere its rates are off by a relative 1e-9, which tells its steps
    apart from the blockwise ones.
    """
    make = sim._dense_rhs

    def faulting(tables, game):
        bind = make(tables, game)
        c11 = tables.npad + tables.n**2

        def poisoned_bind(s, out, lin):
            rhs = bind(s, out, lin)

            def poisoned():
                rhs()
                out[...] = out * (1 + 1e-9)
                out[s[..., c11] > 5.0] = np.nan

            return poisoned

        return poisoned_bind

    monkeypatch.setattr(sim, "_dense_rhs", faulting)


def record_steppers(monkeypatch):
    """Record the member shape of every stepper built and of every step taken,
    and whether each step started from a finite state."""
    seen = {"built": [], "steps": [], "finite": []}
    init, step = sim._Stepper.__init__, sim._Stepper.step

    def recording_init(self, bind, rows, state, h):
        seen["built"].append(state.shape[:-1])
        init(self, bind, rows, state, h)
        self.recorded_start = state

    def recording_step(self):
        # the start is the previous step's result, as the loop left it
        seen["steps"].append(self.recorded_start.shape[:-1])
        seen["finite"].append(bool(np.isfinite(self.recorded_start).all()))
        self.recorded_start = step(self)
        return self.recorded_start

    monkeypatch.setattr(sim._Stepper, "__init__", recording_init)
    monkeypatch.setattr(sim._Stepper, "step", recording_step)
    return seen


class TestRunBatch:
    CFG = SimConfig(step_size=1e-3, t_end=0.05, log_every=2, conv_window=0.05)

    @staticmethod
    def inits(rng, specs, members):
        n = len(specs)
        x0s = [[rng.uniform(-1, 1, size=s.order) for s in specs] for _ in range(members)]
        z0s = [rng.uniform(-0.5, 0.5, size=(n, n)) for _ in range(members)]
        c0s = [rng.uniform(0.5, 1.5, size=(n, n)) for _ in range(members)]
        return [{"x0": x0, "z0": z0, "c0": c0} for x0, z0, c0 in zip(x0s, z0s, c0s)]

    @pytest.mark.parametrize("mode, path", MODES_ON_PATHS)
    def test_members_match_solo_runs(self, rng, use_path, mode, path):
        use_path(path)
        game, g, specs = small_setup(
            orders=(1, 1, 1) if mode is SeekerMode.FIRST_ORDER else (1, 2, 3),
            form="alternate" if mode is SeekerMode.ALTERNATE_FORM else "standard",
        )
        if mode is SeekerMode.UNDIRECTED_ADAPTIVE:
            g = Digraph(weights=np.ones((3, 3)) - np.eye(3))
        inits = self.inits(rng, specs, 4)
        inits[3] = {"x0": None, "z0": 0.25, "c0": 2.0}  # defaults and scalars batch too
        results = list(run_batch(game, g, specs, mode, inits, self.CFG))
        assert len(results) == 4
        for result, init in zip(results, inits):
            solo = run(game, g, specs, mode, **init, config=self.CFG)
            assert_same_result(result, solo)

    def test_diverging_members_are_reported_and_the_rest_match(self):
        game, g, specs = small_setup(orders=(1, 1, 1))
        cfg = SimConfig(step_size=0.05, t_end=2.0, log_every=1, conv_window=1.0)
        z0s = [0.2, 1e3, -0.3, 1e3]
        inits = [{"x0": None, "z0": z0, "c0": 1.0} for z0 in z0s]
        results = list(run_batch(game, g, specs, SAT, inits, cfg))
        with pytest.raises(IntegrationError) as info:
            run(game, g, specs, SAT, z0=1e3, config=cfg)
        for b in (1, 3):
            assert isinstance(results[b], IntegrationError)
            assert results[b].time == info.value.time is not None
            assert results[b].component == info.value.component
            assert str(results[b]) == str(info.value)
        for b in (0, 2):
            assert_same_result(results[b], run(game, g, specs, SAT, z0=z0s[b], config=cfg))

    def test_fault_component_indexes_the_documented_layout(self):
        # orders (2, 1, 3) pad the loop's plant block to (3, 3); the third
        # player's first state sits at 6 there and at 3 in pack_state's layout
        game, g, specs = small_setup(orders=(2, 1, 3))
        cfg = SimConfig(step_size=0.05, t_end=2.0, log_every=1, conv_window=1.0)
        x0 = [np.zeros(2), np.zeros(1), np.full(3, 1.7e308)]
        with np.errstate(over="ignore"):
            inits = [{"x0": x, "z0": 0.0, "c0": 1.0} for x in (None, x0)]
            results = list(run_batch(game, g, specs, SAT, inits, cfg))
        assert isinstance(results[1], IntegrationError)
        assert results[1].component == 3
        assert_same_result(results[0], run(game, g, specs, SAT, config=cfg))

    def test_dense_fault_matches_the_blockwise_fault(self, use_path):
        # an overflow in one slot, and a divergence of the estimates
        game, g, specs = small_setup(orders=(2, 1, 3))
        cfg = SimConfig(step_size=0.05, t_end=2.0, log_every=1, conv_window=1.0)
        x0 = [np.zeros(2), np.zeros(1), np.full(3, 1.7e308)]
        cases = [dict(x0=x0), dict(z0=1e3)]
        faults = {}
        for path in RHS_PATHS:
            use_path(path)
            for k, case in enumerate(cases):
                with np.errstate(over="ignore"), pytest.raises(IntegrationError) as info:
                    run(game, g, specs, SAT, config=cfg, **case)
                faults[path, k] = (info.value.time, info.value.component, str(info.value))
        for k in range(len(cases)):
            assert faults["dense", k] == faults["blockwise", k]
        assert faults["dense", 0][1] == 3

    @pytest.mark.parametrize("path", RHS_PATHS)
    def test_fault_from_a_z_entry_off_the_arcs(self, use_path, path):
        # z_01 = 1e200 is off the arcs of the directed 3-cycle. Its column's
        # innovations square to inf at the first stage at (0, 1) and (1, 1),
        # both off the arcs, where pinning every entry made 0 * inf = NaN in
        # xi from the next stage on and pinning on the arcs does not. The
        # fault keeps the time, component and message it had then.
        use_path(path)
        game, g, specs = small_setup(orders=(2, 1, 3))
        cfg = SimConfig(step_size=0.05, t_end=2.0, log_every=1, conv_window=1.0)
        z0 = np.zeros((3, 3))
        z0[0, 1] = 1e200
        tables = sim._Tables(specs, SAT, g)
        state = tables.initial_state(None, z0, 1.0)
        rates = np.empty_like(state)
        with np.errstate(over="ignore", invalid="ignore"):
            sim._blockwise_rhs(tables, game)(state, rates, np.empty(tables.rows))()
        x, zdot, cdot, eta = tables.split(rates)
        assert np.isfinite(x).all() and np.isfinite(eta).all()
        for block in (zdot, cdot):
            assert np.argwhere(~np.isfinite(block)).tolist() == [[0, 1], [1, 1]]
        assert (g.weights[~np.isfinite(zdot)] == 0).all()
        with pytest.raises(IntegrationError) as info:
            run(game, g, specs, SAT, z0=z0, config=cfg)
        assert (info.value.time, info.value.component, str(info.value)) == (
            0.05,
            0,
            "integration fault at t = 0.05: non-finite state component 0 after a step",
        )

    def test_dense_fault_of_one_member_leaves_the_others_dense(self, rng, monkeypatch, use_path):
        # a dense right-hand side that faults wherever c_11 starts high, as a
        # dense-only overflow would, while the blockwise step stays finite;
        # elsewhere it is off by a relative 1e-9, which tells its steps apart
        use_path("dense")
        poison_dense_rhs(monkeypatch)
        game, g, specs = small_setup()
        inits = self.inits(rng, specs, 3)
        inits[1]["c0"] = np.full((3, 3), 10.0)
        results = list(run_batch(game, g, specs, SAT, inits, self.CFG))
        solo = [run(game, g, specs, SAT, **init, config=self.CFG) for init in inits]
        for b in range(3):
            assert_same_result(results[b], solo[b])
        use_path("blockwise")
        for b in range(3):
            blockwise = run(game, g, specs, SAT, **inits[b], config=self.CFG)
            # the high-gain member stepped blockwise throughout, the others densely
            if b == 1:
                assert_same_result(results[b], blockwise)
            else:
                assert any(
                    not np.array_equal(getattr(results[b][0], f.name), getattr(blockwise[0], f.name))
                    for f in fields(Trajectory)
                )

    def test_members_faulting_together_match_their_solo_runs(self, monkeypatch, use_path):
        # one step faults three ways at once: a dense-only fault (the dense
        # right-hand side is poisoned wherever c_11 is high, as above), a true
        # divergence, and a healthy member
        use_path("dense")
        poison_dense_rhs(monkeypatch)
        game, g, specs = small_setup(orders=(1, 1, 1))
        cfg = SimConfig(step_size=0.05, t_end=2.0, log_every=1, conv_window=1.0)
        z0s, c0s = [0.2, 1e3, -0.3], [10.0, 1.0, 1.0]
        inits = [{"x0": None, "z0": z0, "c0": c0} for z0, c0 in zip(z0s, c0s)]
        results = list(run_batch(game, g, specs, SAT, inits, cfg))
        with pytest.raises(IntegrationError) as info:
            run(game, g, specs, SAT, z0=1e3, config=cfg)
        assert isinstance(results[1], IntegrationError)
        assert results[1].time == info.value.time is not None
        assert results[1].component == info.value.component
        assert str(results[1]) == str(info.value)
        # the reported time is that of the step that went non-finite
        before = info.value.time - cfg.step_size
        run(game, g, specs, SAT, z0=1e3, config=replace(cfg, t_end=before, conv_window=before))
        for b in (0, 2):
            solo = run(game, g, specs, SAT, z0=z0s[b], c0=c0s[b], config=cfg)
            assert_same_result(results[b], solo)

    def test_faults_raise_no_warning(self, monkeypatch, use_path):
        # the loop's one np.errstate silences every overflow of a faulting step
        use_path("dense")
        game, g, specs = small_setup(orders=(1, 1, 1))
        cfg = SimConfig(step_size=0.05, t_end=2.0, log_every=1, conv_window=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError):
                run(game, g, specs, SAT, z0=1e3, config=cfg)
            poison_dense_rhs(monkeypatch)
            pairs = ((0.2, 10.0), (1e3, 1.0), (-0.3, 1.0))
            inits = [{"x0": None, "z0": z0, "c0": c0} for z0, c0 in pairs]
            results = list(run_batch(game, g, specs, SAT, inits, cfg))
        assert [isinstance(r, IntegrationError) for r in results] == [False, True, False]

    @pytest.mark.parametrize("repark", [False, True])
    def test_a_fault_keeps_the_batch_shape(self, monkeypatch, use_path, repark):
        # the finite rows of a faulted step are kept, the diverging member is
        # parked in place; with repark, its parked row (the only one whose c
        # is zero) goes non-finite again at every later step
        use_path("dense")
        game, g, specs = small_setup(orders=(1, 1, 1))
        cfg = SimConfig(step_size=0.05, t_end=2.0, log_every=1, conv_window=1.0)
        z0s = [0.2, 1e3, -0.3]
        with pytest.raises(IntegrationError) as info:
            run(game, g, specs, SAT, z0=1e3, config=cfg)
        solo = [run(game, g, specs, SAT, z0=z0s[b], config=cfg) for b in (0, 2)]
        if repark:
            poison_rates(monkeypatch, 0.0, hit=np.equal)
        seen = record_steppers(monkeypatch)
        inits = [{"x0": None, "z0": z0, "c0": 1.0} for z0 in z0s]
        results = list(run_batch(game, g, specs, SAT, inits, cfg))
        # every step of the batch, and one lone re-take of the diverging member
        # after the step it faults at, the second
        assert seen["steps"] == [(3,)] * 2 + [()] + [(3,)] * (cfg.steps - 2)
        assert seen["built"] == [(3,), ()]
        # the parked row restarts from zeros, not from the non-finite result
        assert all(seen["finite"])
        assert (results[1].time, results[1].component, str(results[1])) == (
            info.value.time,
            info.value.component,
            str(info.value),
        )
        assert_same_result(results[0], solo[0])
        assert_same_result(results[2], solo[1])

    def test_state_above_the_bound_never_builds_the_operator(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("dense operator built")

        monkeypatch.setattr(sim, "linear_operator", refuse)
        cfg = SimConfig(step_size=1e-3, t_end=2e-3, log_every=1, conv_window=1e-3)
        # the benchmark's large_n shape: a 1.4 GB operator at the default bound
        n = 96
        specs = tuple(PlayerSpec(order=2, theta=0.3, delta=1.0) for _ in range(n))
        run(ring_game(n), cycle_digraph(n), specs, SAT, config=cfg)
        # one byte under a small state's operator
        game, g, specs = small_setup()
        tables = sim._Tables(specs, SAT, g)
        monkeypatch.setattr(sim, "_DENSE_MAX_BYTES", tables.operator_bytes() - 1)
        run(game, g, specs, SAT, config=cfg)

    def test_chunked_batch_matches_unchunked(self, rng, monkeypatch):
        game, g, specs = small_setup()
        inits = self.inits(rng, specs, 5)
        whole = list(run_batch(game, g, specs, SAT, inits, self.CFG))
        shapes = []
        init, step = sim._Stepper.__init__, sim._Stepper.step

        def recording_init(self, bind, rows, state, h):
            init(self, bind, rows, state, h)
            self.recorded_start = state

        def recording_step(self):
            shapes.append(self.recorded_start.shape[:-1])
            self.recorded_start = step(self)
            return self.recorded_start

        member_bytes = (self.CFG.steps // self.CFG.log_every) * (2 * 3 + 5) * 8
        monkeypatch.setattr(sim, "_MAX_LOG_BYTES", 2 * member_bytes)
        monkeypatch.setattr(sim._Stepper, "__init__", recording_init)
        monkeypatch.setattr(sim._Stepper, "step", recording_step)
        chunked = list(run_batch(game, g, specs, SAT, inits, self.CFG))
        steps = self.CFG.steps
        assert shapes == [(2,)] * steps + [(2,)] * steps + [()] * steps
        for a, b in zip(chunked, whole, strict=True):
            assert_same_result(a, b)

    def test_results_survive_the_next_chunk(self, rng, monkeypatch):
        # no chunk's result shares a buffer that a later chunk writes
        game, g, specs = small_setup()
        inits = self.inits(rng, specs, 4)
        member_bytes = (self.CFG.steps // self.CFG.log_every) * (2 * 3 + 5) * 8
        monkeypatch.setattr(sim, "_MAX_LOG_BYTES", 2 * member_bytes)
        results = run_batch(game, g, specs, SAT, inits, self.CFG)
        first = [next(results), next(results)]
        kept = copy.deepcopy(first)
        assert len(list(results)) == 2
        for a, b in zip(first, kept):
            assert_same_result(a, b)

    def test_right_hand_sides_are_built_at_the_first_next(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("right-hand side built")

        monkeypatch.setattr(sim, "_dense_rhs", refuse)
        monkeypatch.setattr(sim, "_blockwise_rhs", refuse)
        game, g, specs = small_setup()
        results = run_batch(game, g, specs, SAT, [{"x0": None, "z0": 0.0, "c0": 1.0}], self.CFG)
        with pytest.raises(AssertionError, match="right-hand side built"):
            next(results)

    def test_input_errors_raise(self):
        game, g, specs = small_setup()
        inits = [{"x0": x0, "z0": 0.0, "c0": 1.0} for x0 in (None, [np.zeros(2)] * 3)]
        with pytest.raises(ConfigError, match="x0"):
            run_batch(game, g, specs, SAT, inits, self.CFG)

    def test_drift_is_none_without_a_row_in_the_last_tenth(self):
        game, g, specs = small_setup()
        cfg = SimConfig(step_size=0.01, t_end=1.0, log_every=60, conv_window=0.5)
        traj, summary = run(game, g, specs, SAT, config=cfg)
        assert traj.times.tolist() == [pytest.approx(0.6)]
        assert summary.c_trailing_drift is None

    def test_drift_is_measured_from_the_first_row_of_the_last_tenth(self):
        # rows every 0.07 s: the first at or after 0.9 t_end = 1.8 is at 1.82
        game, g, specs = small_setup()
        x0 = [np.full(s.order, 0.4) for s in specs]
        cfg = SimConfig(step_size=0.01, t_end=2.0, log_every=7, conv_window=0.5)
        traj, summary = run(game, g, specs, SAT, x0=x0, z0=0.2, config=cfg)
        t_mark = traj.times[traj.times >= 0.9 * cfg.t_end][0]
        assert t_mark == pytest.approx(1.82)
        cut, _ = run(game, g, specs, SAT, x0=x0, z0=0.2, config=replace(cfg, t_end=t_mark))
        drift = np.abs(traj.c_snapshot - cut.c_snapshot).max()
        assert drift > 0
        assert summary.c_trailing_drift == drift


def poison_rates(monkeypatch, threshold, hit=np.greater):
    """Make both bound right-hand sides write NaN rates wherever c_11 > ``threshold``.

    ``hit`` replaces the comparison >.
    """
    for name in ("_dense_rhs", "_blockwise_rhs"):

        def faulting(tables, game, make=getattr(sim, name)):
            bind = make(tables, game)
            c11 = tables.npad + tables.n**2

            def poisoned_bind(s, out, lin):
                rhs = bind(s, out, lin)

                def poisoned():
                    rhs()
                    out[hit(s[..., c11], threshold)] = np.nan

                return poisoned

            return poisoned_bind

        monkeypatch.setattr(sim, name, faulting)


class TestStepAudit:
    """The certified properties are audited on every step, not only on logged rows."""

    def test_peak_between_logged_rows(self, monkeypatch):
        game, g, specs = small_setup()
        x0 = [np.full(s.order, 0.4) for s in specs]
        every = SimConfig(step_size=1e-2, t_end=2.0, log_every=1, conv_window=0.5)
        sparse = replace(every, log_every=25)
        traj, _ = run(game, g, specs, SAT, x0=x0, z0=0.2, config=every)
        _, summary = run(game, g, specs, SAT, x0=x0, z0=0.2, config=sparse)
        np.testing.assert_array_equal(summary.step_max_abs_u, np.abs(traj.u).max(axis=0))
        # the third player's |u| peaks at the first step, before the first logged row
        logged, peak = summary.max_abs_u[2], summary.step_max_abs_u[2]
        assert logged < peak
        # a bound between the two is exceeded only between logged rows
        bound = (logged + peak) / 2
        certified = sim._seeker.certified_bound
        monkeypatch.setattr(
            sim._seeker,
            "certified_bound",
            lambda spec, mode: bound if spec == specs[2] else certified(spec, mode),
        )
        traj, summary = run(game, g, specs, SAT, x0=x0, z0=0.2, config=sparse)
        assert summary.certified_bounds[2] == bound
        assert (np.abs(traj.u) <= summary.certified_bounds).all()
        assert summary.bound_violated
        assert summary.step_max_abs_u[2] > summary.max_abs_u[2]

    def test_gain_dip_between_logged_rows(self, monkeypatch, use_path):
        # every gain falls for two steps after the row logged at step 10, then
        # rises past where it was for four, all before the row at step 20
        use_path("dense")
        make = sim._dense_rhs
        calls = []

        def dipping(tables, game):
            bind = make(tables, game)
            gains = slice(tables.npad + tables.n**2, tables.npad + 2 * tables.n**2)

            def dipping_bind(s, out, lin):
                rhs = bind(s, out, lin)

                def dipped():
                    rhs()
                    step = len(calls) // 4 + 1
                    calls.append(step)
                    if step in (11, 12):
                        out[..., gains] = -1.0
                    elif 13 <= step <= 16:
                        out[..., gains] = 1.0

                return dipped

            return dipping_bind

        monkeypatch.setattr(sim, "_dense_rhs", dipping)
        game, g, specs = small_setup()
        cfg = SimConfig(step_size=1e-3, t_end=0.05, log_every=10, conv_window=0.05)
        _, summary = run(game, g, specs, SAT, config=cfg)
        assert calls[-1] == cfg.steps
        assert not summary.c_monotone

    # the audit forgives a fall of _C_MONOTONE_SLACK = 1e-12 per step
    @pytest.mark.parametrize("dip, monotone", [(3e-12, False), (5e-13, True)])
    def test_gain_dip_at_the_slack(self, monkeypatch, use_path, dip, monotone):
        use_path("dense")
        make = sim._dense_rhs
        cfg = SimConfig(step_size=1e-3, t_end=0.05, log_every=10, conv_window=0.05)

        def falling(tables, game):
            bind = make(tables, game)
            gains = slice(tables.npad + tables.n**2, tables.npad + 2 * tables.n**2)

            def falling_bind(s, out, lin):
                rhs = bind(s, out, lin)

                def fallen():
                    rhs()
                    out[..., gains] = -dip / cfg.step_size

                return fallen

            return falling_bind

        monkeypatch.setattr(sim, "_dense_rhs", falling)
        game, g, specs = small_setup()
        _, summary = run(game, g, specs, SAT, config=cfg)
        # every gain fell from c0 = 1 by dip on each step
        for c in summary.c_final_range:
            assert 1.0 - c == pytest.approx(cfg.steps * dip, rel=1e-3)
        assert summary.c_monotone is monotone

    # the audit forgives a peak 1e-9 above the certified bound
    @pytest.mark.parametrize("under, violated", [(3e-9, True), (5e-10, False)])
    def test_bound_at_the_tolerance(self, monkeypatch, under, violated):
        game, g, specs = small_setup()
        x0 = [np.full(s.order, 0.4) for s in specs]
        cfg = SimConfig(step_size=1e-2, t_end=2.0, log_every=25, conv_window=0.5)
        _, summary = run(game, g, specs, SAT, x0=x0, z0=0.2, config=cfg)
        assert not summary.bound_violated
        peak = summary.step_max_abs_u[2]
        bound = peak - under
        certified = sim._seeker.certified_bound
        monkeypatch.setattr(
            sim._seeker,
            "certified_bound",
            lambda spec, mode: bound if spec == specs[2] else certified(spec, mode),
        )
        _, summary = run(game, g, specs, SAT, x0=x0, z0=0.2, config=cfg)
        assert summary.certified_bounds[2] == bound
        assert summary.step_max_abs_u[2] == peak
        assert summary.bound_violated is violated

    @pytest.mark.parametrize("fit", [1, 2, 4, 7])
    def test_block_boundaries_leave_results_unchanged(self, monkeypatch, fit):
        # blocks of K < steps rows, whose boundaries need not fall on logged
        # rows, and a member that faults mid-block, against one block that
        # holds the whole run
        poison_rates(monkeypatch, 1.5)
        game, g, specs = small_setup(orders=(1, 1, 1))
        cfg = SimConfig(step_size=0.05, t_end=2.0, log_every=3, conv_window=1.0)
        z0s = [0.2, 3.0, -0.3]

        def results():
            inits = [{"x0": None, "z0": z0, "c0": 1.0} for z0 in z0s]
            batch = run_batch(game, g, specs, SAT, inits, cfg)
            return [*batch, run(game, g, specs, SAT, z0=z0s[0], config=cfg)]

        monkeypatch.setattr(sim, "_HISTORY_BYTES", 2**40)
        whole = results()
        row_bytes = 3 * sim._Tables(specs, SAT, g).width * 8
        monkeypatch.setattr(sim, "_HISTORY_BYTES", (fit + 1) * row_bytes)
        filled = []
        block_pass = sim._BlockPass.run

        def recording(passes, block, k0):
            filled.append(len(block) - 1)
            block_pass(passes, block, k0)

        monkeypatch.setattr(sim._BlockPass, "run", recording)
        blocks = results()
        # the batch's first block holds K rows past its carried row 0, the most that fit
        rows = filled[0]
        assert rows == fit
        # the high-gain member faults between its block's first and last rows
        assert isinstance(whole[1], IntegrationError)
        fault_step = round(whole[1].time / cfg.step_size)
        assert fault_step > cfg.log_every and (rows == 1 or (fault_step - 1) % rows)
        assert (blocks[1].time, blocks[1].component, str(blocks[1])) == (
            whole[1].time,
            whole[1].component,
            str(whole[1]),
        )
        for b in (0, 2, 3):
            assert_same_result(blocks[b], whole[b])


def test_tables_build_one_transformation_per_distinct_spec(monkeypatch):
    built = []
    build = sim.build_transformation

    def recording(spec):
        built.append(spec)
        return build(spec)

    monkeypatch.setattr(sim, "build_transformation", recording)
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    for owner, name in (
        (sim, "gain_row"),
        (sim._seeker, "integral_scale"),
        (sim._seeker, "certified_bound"),
    ):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    # six third-order players with three distinct thetas
    game, g, specs = small_setup(n=6, orders=(3,) * 6)
    tables = sim._Tables(specs, SAT, g)
    assert built == list(specs[:3])
    assert sorted(calls) == ["certified_bound"] * 3 + ["gain_row"] * 3 + ["integral_scale"] * 3
    for spec, tr in zip(specs, tables.transforms):
        np.testing.assert_array_equal(tr.t_inverse, build(spec).t_inverse)


def test_order_12_controls_are_pinned_bit_for_bit():
    # the tail terms are summed before the innermost one; at order 12 another
    # summation order changes the rounding of u
    specs = (PlayerSpec(order=12, theta=0.3, delta=1.0),) * 3
    tables = sim._Tables(specs, SAT, cycle_digraph(3))
    rng = np.random.default_rng(4)
    x = rng.uniform(-1.5, 1.5, size=(3, 12))
    eta = rng.uniform(-1.0, 1.0, size=3)
    assert [v.hex() for v in tables.controls(x, eta)] == [
        "-0x1.44dc8d78c8ad3p-4",
        "0x1.c88b2b6d80d98p-3",
        "-0x1.0303e9beceb5fp-2",
    ]


def allocating(bind, rows):
    """A bound right-hand side as rhs(s) -> new array, the form the RK4 oracle takes."""

    def rhs(s):
        out = np.empty_like(s)
        bind(s, out, np.empty(s.shape[:-1] + (rows,)))()
        return out

    return rhs


def saturated_states(rng, members, path):
    """Tables, the path's bind and (members, L) initial states with saturations active."""
    game, g, specs = small_setup()
    tables = sim._Tables(specs, SAT, g)
    inits = TestRunBatch.inits(rng, specs, members)
    for init in inits:  # initial plant states up to 5 keep the saturations active
        init["x0"] = [5 * x for x in init["x0"]]
    state = np.array([tables.initial_state(**init) for init in inits])
    make = sim._dense_rhs if path == "dense" else sim._blockwise_rhs
    return tables, make(tables, game), state


@pytest.mark.parametrize(
    "path, members",
    [
        pytest.param(path, members, id=str(members) if path == "dense" else f"{path}-{members}")
        for path in RHS_PATHS
        for members in (1, 3)
    ],
)
def test_dense_stepper_agrees_with_rk4_step(rng, path, members):
    # the weighted products sum in another order than the RK4 oracle, so each
    # step, restarted from the oracle's state, agrees to rounding, not bit for bit
    tables, bind, state = saturated_states(rng, members, path)
    state = state[0] if members == 1 else state
    rhs = allocating(bind, tables.rows)
    h = 1e-2
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(250):
            step = sim._Stepper(bind, tables.rows, state, h).step()
            state = rk4_step(rhs, state, h)
            assert (np.abs(step - state) <= 1e-14 * np.maximum(1.0, np.abs(state))).all()


@pytest.mark.parametrize("n", [3, 7, 16, 40])
@pytest.mark.parametrize("mode", list(SeekerMode), ids=lambda mode: mode.value)
def test_blockwise_rhs_writes_the_bits_of_the_n2_wide_form(n, mode):
    # random weighted digraphs, games and orders 1 to 5; a lone member and a
    # stacked batch of three, both read as the stepper's views of its
    # (..., 5, L) blocks, against the form that pins every entry. lin starts
    # as NaN, so no rate may read what the call did not write there.
    rng = np.random.default_rng(n)
    orders = [1] * n if mode is SeekerMode.FIRST_ORDER else rng.integers(1, 6, size=n).tolist()
    form = "alternate" if mode is SeekerMode.ALTERNATE_FORM else "standard"
    specs = tuple(
        PlayerSpec(order=m, theta=0.3, delta=rng.uniform(0.5, 2.0), u_limit=10.0, form=form)
        for m in orders
    )
    w = random_strongly_connected(n, rng).weights * rng.uniform(0.25, 3.0, size=(n, n))
    if mode is SeekerMode.UNDIRECTED_ADAPTIVE:
        w = w + w.T
    g = Digraph(weights=w)
    assert len(np.unique(w[w > 0])) > 1
    game = random_monotone_game(n, rng)
    tables = sim._Tables(specs, mode, g)
    new, reference = sim._blockwise_rhs(tables, game), blockwise_rhs_reference(tables, game)
    for lead in [(), (3,)]:
        blocks = rng.standard_normal(lead + (5, tables.width)) * 3.0
        s = blocks[..., 0, :]
        x, z, c, eta = tables.split(s)
        x *= tables.mask
        np.abs(c, out=c)
        c += 0.5
        expected = np.empty(lead + (tables.width,))
        lin = np.full(lead + (tables.rows,), np.nan)
        for _ in range(2):
            new(s, blocks[..., 1, :], lin)()
            reference(s, expected, None)()
            assert np.isfinite(expected).all()
            np.testing.assert_array_equal(blocks[..., 1, :], expected)
            z *= 10.0  # the second call from another state, over lin's leftovers


@pytest.mark.parametrize("path", RHS_PATHS)
def test_stepper_members_match_lone_steppers(rng, path):
    tables, bind, state = saturated_states(rng, 3, path)
    h = 1e-2
    batch = sim._Stepper(bind, tables.rows, state, h)
    lone = [sim._Stepper(bind, tables.rows, s, h) for s in state]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(250):
            stepped = batch.step()
            for b, stepper in enumerate(lone):
                np.testing.assert_array_equal(stepped[b], stepper.step())


@pytest.mark.parametrize("path", RHS_PATHS)
def test_a_finite_state_whose_sum_overflows_is_no_fault(use_path, path):
    # x0 = 1e308 keeps every entry finite while the state's sum overflows:
    # the screen's exact check passes it, and its neighbour in the batch
    # steps as it would alone
    use_path(path)
    game, g, specs = small_setup(orders=(2, 2, 2))
    cfg = SimConfig(step_size=2e-3, t_end=0.2, log_every=4, conv_window=0.1)
    huge = [np.full(2, 1e308)] * 3
    start = sim._Tables(specs, SAT, g).initial_state(huge, 0.0, 1.0)
    with np.errstate(over="ignore"):
        assert np.isfinite(start).all() and not np.isfinite(start.sum())
    inits = [{"x0": x0, "z0": 0.0, "c0": 1.0} for x0 in (huge, None)]
    results = list(run_batch(game, g, specs, SAT, inits, cfg))
    assert not isinstance(results[0], IntegrationError)
    traj, _ = results[0]
    assert np.isfinite(traj.c_snapshot).all()
    assert_same_result(results[1], run(game, g, specs, SAT, config=cfg))


def clip_pair(a, lo, hi, out=None):
    """A saturation as np.maximum, then np.minimum."""
    return np.minimum(np.maximum(a, lo, out=out), hi, out=out)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("lead", [(), (11,)], ids=["lone", "batch"])
@pytest.mark.parametrize("mode", [SAT, SeekerMode.UNSATURATED], ids=lambda mode: mode.value)
def test_clip_ufunc_writes_the_bits_of_maximum_then_minimum(monkeypatch, mode, lead):
    # sim saturates with numpy's clip ufunc, imported from numpy's private
    # umath module; if numpy moves or changes it, this fails. Each value of
    # the edge set fills every plant slot of one row: NaN, the infinities,
    # the levels +-delta themselves, signed zeros and +-1e308.
    game, g, specs = small_setup()
    tables = sim._Tables(specs, mode, g)
    level = np.inf if mode is SeekerMode.UNSATURATED else 1.0
    np.testing.assert_array_equal(tables.hi, np.full(tables.npad, level))
    edges = [np.nan, np.inf, -np.inf, 1.0, -1.0, 0.0, -0.0, 1e308, -1e308, 0.5, -3.0]
    values = np.repeat(np.array(edges)[:, None], tables.npad, axis=1)
    for x in list(values) if lead == () else [values]:
        expected = clip_pair(x, tables.lo, tables.hi)
        np.testing.assert_array_equal(bits(sim.clip(x, tables.lo, tables.hi)), bits(expected))
        inplace = x.copy()
        sim.clip(inplace, tables.lo, tables.hi, inplace)
        np.testing.assert_array_equal(bits(inplace), bits(expected))
    # _Tables.controls on the same plant slots, padded ones zero, eta zero
    x = np.where(tables.mask, values.reshape(len(edges), tables.n, tables.mmax), 0.0)
    x = x[0] if lead == () else x
    eta = np.zeros(x.shape[:-1])
    got = tables.controls(x, eta)
    monkeypatch.setattr(sim, "clip", clip_pair)
    np.testing.assert_array_equal(bits(got), bits(tables.controls(x, eta)))


@pytest.mark.parametrize("members", [1, 3])
def test_dense_rhs_clip_writes_the_bits_of_maximum_then_minimum(rng, monkeypatch, members):
    tables, bind, state = saturated_states(rng, members, "dense")
    state = state[0] if members == 1 else state
    out, lin = np.empty_like(state), np.empty(state.shape[:-1] + (tables.rows,))
    bind(state, out, lin)()
    # some saturation is active: an argument sits at its level
    assert (np.abs(lin[..., : tables.npad]) == tables.hi).any()
    monkeypatch.setattr(sim, "clip", clip_pair)
    expected = np.empty_like(state)
    bind(state, expected, lin)()
    np.testing.assert_array_equal(bits(out), bits(expected))
