"""Fixed-step closed-loop simulation and convergence diagnostics.

The full state is one flat vector laid out as

    [ xbar_1 | ... | xbar_N | z row-major | c row-major | eta ]

of length sum(m_i) + 2 N^2 + N, advanced by classical Runge-Kutta 4 with a
constant step. A fixed-step scheme keeps reruns bit-identical and makes the
step-halving consistency check meaningful; the dynamics are smooth and
non-stiff at the default step for the parameter ranges this package targets.

The hot loop uses a fused, vectorized right-hand side over padded
(N, max_order) plant arrays whose control gains are each player's
:func:`nashseek.dynamics.gain_row`. Its agreement with the scalar per-player
laws in :mod:`nashseek.seeker` is pinned by tests, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from . import seeker as _seeker
from .dynamics import PlayerSpec, build_transformation, gain_row, output_coefficients
from .errors import (
    ConfigError,
    ConnectivityError,
    IntegrationError,
    SymmetryError,
)
from .game import GameModel, QuadraticGame, check_game, solve_nash_closed_form
from .graph import Digraph, is_strongly_connected, laplacian
from .seeker import SeekerMode, SeekerState

__all__ = [
    "SimConfig",
    "Trajectory",
    "Summary",
    "pack_state",
    "unpack_state",
    "rk4_step",
    "validate_run_inputs",
    "run",
    "detect_convergence",
    "unsaturated_entry",
]

_C_MONOTONE_SLACK = 1e-12
# Checked before anything is allocated; a logged row holds 2N + 5 doubles.
_MAX_STEPS = 10**9
_MAX_LOG_BYTES = 2**30


@dataclass(frozen=True)
class SimConfig:
    """Integration and convergence-detection settings."""

    step_size: float = 1e-3
    t_end: float = 100.0
    log_every: int = 10
    conv_tol: float = 1e-2
    conv_window: float = 10.0

    def __post_init__(self):
        if self.step_size <= 0:
            raise ConfigError(f"step_size must be positive, got {self.step_size}")
        if not isinstance(self.log_every, (int, np.integer)) or self.log_every < 1:
            raise ConfigError(f"log_every must be a positive integer, got {self.log_every!r}")
        object.__setattr__(self, "log_every", int(self.log_every))
        if not self.t_end >= self.conv_window > 0:
            raise ConfigError(
                f"need t_end >= conv_window > 0, got t_end={self.t_end}, "
                f"conv_window={self.conv_window}"
            )
        if self.conv_tol <= 0:
            raise ConfigError(f"conv_tol must be positive, got {self.conv_tol}")
        if not self.t_end / self.step_size <= _MAX_STEPS:
            raise ConfigError(f"t_end / step_size exceeds the cap of {_MAX_STEPS:.0e} steps")
        if self.steps < 1:
            raise ConfigError("t_end shorter than one step")
        if self.log_every > self.steps:
            raise ConfigError(f"log_every > {self.steps} steps: no row would be logged")

    @property
    def steps(self) -> int:
        return round(self.t_end / self.step_size)


@dataclass
class Trajectory:
    """Logged run history. Row k of every array belongs to times[k].

    ``xbar_tail_max`` is max_i,k>=2 (|xbar_ik| - delta_i): non-positive
    exactly when every tail state sits inside its saturation level (it is
    -inf throughout if every player is first-order). ``tilde_norm`` is
    sup_i of the innermost-term argument, ``z_residual`` is
    max_ij |z_ij + eta_j|, and ``c_snapshot`` is the final gain matrix.
    """

    times: NDArray[np.float64]
    y: NDArray[np.float64]
    u: NDArray[np.float64]
    err: NDArray[np.float64]
    xbar_tail_max: NDArray[np.float64]
    tilde_norm: NDArray[np.float64]
    z_residual: NDArray[np.float64]
    c_snapshot: NDArray[np.float64]


@dataclass
class Summary:
    """Scalar verdicts of one run; everything a test or a report gates on."""

    converged: bool
    t_converge: float | None
    final_err: float
    max_abs_u: NDArray[np.float64]
    certified_bounds: NDArray[np.float64]
    bound_violated: bool
    c_final_range: tuple[float, float]
    c_monotone: bool
    unsaturated_entry_time: float | None
    c_trailing_drift: float


def pack_state(state: SeekerState) -> NDArray[np.float64]:
    """Flatten to the documented layout [xbar_1..xbar_N | z | c | eta]."""
    return np.concatenate(
        [np.concatenate([np.asarray(x, dtype=float).ravel() for x in state.xbar]),
         state.z.ravel(), state.c.ravel(), np.asarray(state.eta, dtype=float)]
    )


def unpack_state(flat: NDArray[np.floating], orders: Sequence) -> SeekerState:
    """Inverse of :func:`pack_state`; ``orders`` may hold ints or PlayerSpecs."""
    ms = [int(getattr(o, "order", o)) for o in orders]
    n = len(ms)
    nx = sum(ms)
    expected = nx + 2 * n * n + n
    flat = np.asarray(flat, dtype=float)
    if flat.shape != (expected,):
        raise ValueError(f"flat state has length {flat.shape}, expected ({expected},)")
    xbar = []
    pos = 0
    for m in ms:
        xbar.append(flat[pos : pos + m].copy())
        pos += m
    z = flat[pos : pos + n * n].reshape(n, n).copy()
    pos += n * n
    c = flat[pos : pos + n * n].reshape(n, n).copy()
    pos += n * n
    return SeekerState(xbar=tuple(xbar), z=z, c=c, eta=flat[pos:].copy())


def rk4_step(
    rhs: Callable[[NDArray[np.float64]], NDArray[np.float64]],
    state: NDArray[np.float64],
    h: float,
) -> NDArray[np.float64]:
    """One classical Runge-Kutta 4 step; raises on a non-finite result.

    Overflow inside the stage evaluations is silenced: a diverging state is
    reported once through IntegrationError instead of a warning per stage.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = rhs(state)
        k2 = rhs(state + (0.5 * h) * k1)
        k3 = rhs(state + (0.5 * h) * k2)
        k4 = rhs(state + h * k3)
        out = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
        bad = int(np.flatnonzero(~np.isfinite(out))[0])
        raise IntegrationError(
            f"non-finite state component {bad} after a step", component=bad
        )
    return out


class _Tables:
    """Precomputed per-run arrays for the fused right-hand side."""

    def __init__(self, specs: Sequence[PlayerSpec], mode: SeekerMode, g: Digraph):
        n = len(specs)
        ms = np.array([s.order for s in specs])
        mmax = int(ms.max())
        self.n = n
        self.orders = ms
        self.nx = int(ms.sum())
        self.mmax = mmax
        self.uniform = bool((ms == ms[0]).all())
        self.mask = np.zeros((n, mmax), dtype=bool)
        for i, m in enumerate(ms):
            self.mask[i, :m] = True
        self.abar = np.zeros((n, mmax, mmax))
        self.bmask = np.zeros((n, mmax))
        self.wmat = np.zeros((n, mmax))
        self.thm = np.zeros(n)
        self.pvec = np.zeros(n)
        self.out_rows = np.zeros((n, mmax))
        self.transforms = []
        for i, spec in enumerate(specs):
            m = spec.order
            tr = build_transformation(spec)
            self.transforms.append(tr)
            self.abar[i, :m, :m] = tr.a_bar
            self.bmask[i, :m] = 1.0
            self.out_rows[i, :m] = output_coefficients(tr)
            row = gain_row(m, spec.theta, spec.form)
            self.thm[i] = row[0]
            self.wmat[i, 1:m] = row[1:]
            self.pvec[i] = _seeker.integral_scale(spec)
        self.deltas = np.array([s.delta for s in specs])
        self.delta_col = self.deltas[:, None]
        self.saturated = mode is not SeekerMode.UNSATURATED
        self.rho_augmented = mode is not SeekerMode.UNDIRECTED_ADAPTIVE
        self.weights = g.weights
        self.lap = laplacian(g)
        self.certified = np.array([_seeker.certified_bound(s, mode) for s in specs])

    def plant(self, flat: NDArray[np.float64]) -> NDArray[np.float64]:
        """Padded (N, mmax) view/copy of the plant block."""
        if self.uniform:
            return flat[: self.nx].reshape(self.n, self.mmax)
        x = np.zeros((self.n, self.mmax))
        x[self.mask] = flat[: self.nx]
        return x

    def controls(self, x: NDArray[np.float64], eta: NDArray[np.float64]) -> NDArray[np.float64]:
        if self.saturated:
            satx = np.clip(x, -self.delta_col, self.delta_col)
            inner = np.clip(x[:, 0] + self.pvec * eta, -self.deltas, self.deltas)
        else:
            satx = x
            inner = x[:, 0] + self.pvec * eta
        return -((self.wmat * satx).sum(axis=1) + self.thm * inner)

    def outputs(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        return (self.out_rows * x).sum(axis=1)

    def tail_max(self, x: NDArray[np.float64]) -> float:
        tails = self.mask.copy()
        tails[:, 0] = False
        if not tails.any():
            return float("-inf")
        return float((np.abs(x) - self.delta_col)[tails].max())

    def tilde(self, x: NDArray[np.float64], eta: NDArray[np.float64]) -> NDArray[np.float64]:
        return x[:, 0] + self.pvec * eta


def validate_run_inputs(
    game: GameModel,
    g: Digraph,
    specs: Sequence[PlayerSpec],
    mode: SeekerMode,
    config: SimConfig,
) -> None:
    """Raise what :func:`run` rejects about its inputs before integrating."""
    n = g.n
    if game.n_players != n:
        raise ConfigError(f"game has {game.n_players} players but graph has {n}")
    log_bytes = (config.steps // config.log_every) * (2 * n + 5) * 8
    if log_bytes > _MAX_LOG_BYTES:
        raise ConfigError(
            f"logged arrays would take {log_bytes / 2**30:.3g} GiB, over the 1 GiB cap; "
            "raise log_every or shorten t_end"
        )
    if len(specs) != n:
        raise ConfigError(f"got {len(specs)} player specs for {n} players")
    for spec in specs:
        _seeker._check_mode(spec, mode)
    if mode is SeekerMode.UNDIRECTED_ADAPTIVE and not g.symmetric:
        raise SymmetryError(
            "UndirectedAdaptive mode requires a symmetric weight matrix"
        )
    if not is_strongly_connected(g):
        raise ConnectivityError(
            "communication digraph must be strongly connected"
        )


def _materialize(value, shape, name: str) -> NDArray[np.float64]:
    if np.ndim(value) == 0:
        return np.full(shape, float(value))
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ConfigError(f"{name} has shape {arr.shape}, expected {shape}")
    return arr.copy()


def run(
    game: GameModel,
    g: Digraph,
    specs: Sequence[PlayerSpec],
    mode: SeekerMode,
    x0: Sequence[NDArray[np.floating]] | None = None,
    z0=0.0,
    c0=1.0,
    config: SimConfig = SimConfig(),
    y_star: NDArray[np.floating] | None = None,
) -> tuple[Trajectory, Summary]:
    """Integrate the closed loop and report trajectory plus verdicts.

    ``x0`` holds per-player initial plant states in the *original* chain
    coordinates (converted internally); omitted pieces default to zero
    plants, zero estimates, unit gains. ``y_star`` overrides the reference
    used for the error column; by default it is solved in closed form for
    quadratic games and left NaN otherwise.
    """
    validate_run_inputs(game, g, specs, mode, config)
    n = g.n
    tables = _Tables(specs, mode, g)

    if x0 is None:
        x0 = [np.zeros(s.order) for s in specs]
    if len(x0) != n:
        raise ConfigError(f"x0 has {len(x0)} entries for {n} players")
    xbar0 = []
    for i, spec in enumerate(specs):
        xi = np.asarray(x0[i], dtype=float).ravel()
        if xi.shape != (spec.order,):
            raise ConfigError(
                f"x0[{i}] has shape {xi.shape}, expected ({spec.order},)"
            )
        xbar0.append(tables.transforms[i].t_inverse @ xi)
    z_init = _materialize(z0, (n, n), "z0")
    c_init = _materialize(c0, (n, n), "c0")
    if (c_init <= 0).any():
        raise ConfigError(
            f"initial adaptive gains must be positive, got min {c_init.min():.6g}"
        )

    if y_star is None and isinstance(game, QuadraticGame):
        if check_game(game).strongly_monotone:
            y_star = solve_nash_closed_form(game)
    ref = np.full(n, np.nan) if y_star is None else np.asarray(y_star, dtype=float)

    state = np.concatenate(
        [np.concatenate(xbar0), z_init.ravel(), c_init.ravel(), np.zeros(n)]
    )

    nx, n2 = tables.nx, n * n
    zo, co, eo = nx, nx + n2, nx + 2 * n2
    lap, w = tables.lap, tables.weights
    rho_aug = tables.rho_augmented
    self_gradients = game.self_gradients
    plant, controls = tables.plant, tables.controls
    abar, bmask, mask, uniform = tables.abar, tables.bmask, tables.mask, tables.uniform

    def rhs(s: NDArray[np.float64]) -> NDArray[np.float64]:
        x = plant(s)
        z = s[zo:co].reshape(n, n)
        c = s[co:eo].reshape(n, n)
        eta = s[eo:]
        xi = lap @ z + w * (z + eta)
        rho = xi * xi
        gain = c + rho if rho_aug else c
        u = controls(x, eta)
        xdot = (abar @ x[:, :, None])[:, :, 0] + u[:, None] * bmask
        out = np.empty_like(s)
        out[:nx] = xdot.ravel() if uniform else xdot[mask]
        out[zo:co] = (-gain * xi).ravel()
        out[co:eo] = rho.ravel()
        out[eo:] = self_gradients(z)
        return out

    h = config.step_size
    steps = config.steps
    log_every = config.log_every
    n_logs = steps // log_every
    times = np.empty(n_logs)
    y_log = np.empty((n_logs, n))
    u_log = np.empty((n_logs, n))
    err_log = np.empty(n_logs)
    tail_log = np.empty(n_logs)
    tilde_log = np.empty(n_logs)
    zres_log = np.empty(n_logs)
    c_monotone = True
    c_prev = c_init.copy()
    drift_mark_t = 0.9 * config.t_end
    c_at_mark: NDArray[np.float64] | None = None

    row = 0
    for k in range(1, steps + 1):
        try:
            state = rk4_step(rhs, state, h)
        except IntegrationError as exc:
            raise IntegrationError(
                f"integration fault at t = {k * h:.6g}: {exc}",
                time=k * h,
                component=exc.component,
            ) from None
        if k % log_every:
            continue
        t = k * h
        x = plant(state)
        z = state[zo:co].reshape(n, n)
        c = state[co:eo].reshape(n, n)
        eta = state[eo:]
        times[row] = t
        y = tables.outputs(x)
        y_log[row] = y
        u_log[row] = controls(x, eta)
        err_log[row] = np.abs(y - ref).max()
        tail_log[row] = tables.tail_max(x)
        tilde_log[row] = np.abs(tables.tilde(x, eta)).max()
        zres_log[row] = np.abs(z + eta).max()
        if c_monotone and (c < c_prev - _C_MONOTONE_SLACK).any():
            c_monotone = False
        c_prev = c.copy()
        if c_at_mark is None and t >= drift_mark_t:
            c_at_mark = c.copy()
        row += 1

    c_final = state[co:eo].reshape(n, n).copy()
    traj = Trajectory(
        times=times,
        y=y_log,
        u=u_log,
        err=err_log,
        xbar_tail_max=tail_log,
        tilde_norm=tilde_log,
        z_residual=zres_log,
        c_snapshot=c_final,
    )
    converged, t_conv = detect_convergence(traj, config.conv_tol, config.conv_window)
    max_abs_u = np.abs(u_log).max(axis=0)
    drift = (
        float(np.abs(c_final - c_at_mark).max()) if c_at_mark is not None else float("nan")
    )
    summary = Summary(
        converged=converged,
        t_converge=t_conv,
        final_err=float(err_log[-1]),
        max_abs_u=max_abs_u,
        certified_bounds=tables.certified,
        bound_violated=bool((max_abs_u > tables.certified + 1e-9).any()),
        c_final_range=(float(c_final.min()), float(c_final.max())),
        c_monotone=c_monotone,
        unsaturated_entry_time=unsaturated_entry(traj),
        c_trailing_drift=drift,
    )
    return traj, summary


def detect_convergence(
    traj: Trajectory, tol: float, window: float
) -> tuple[bool, float | None]:
    """Trailing-window convergence verdict over the logged error.

    Converged iff every logged error in [t_last - window, t_last] is below
    tol; the reported time is the first logged instant after which the error
    never rises back to tol.
    """
    times, err = traj.times, traj.err
    if times.size == 0:
        return False, None
    in_window = times >= times[-1] - window - 1e-12
    window_err = err[in_window]
    if window_err.size == 0 or not (window_err < tol).all():
        return False, None
    bad = np.flatnonzero(~(err < tol))
    if bad.size == 0:
        return True, float(times[0])
    return True, float(times[bad[-1] + 1])


def unsaturated_entry(traj: Trajectory) -> float | None:
    """First logged time after which every tail state stays inside its level.

    None when the run ends with a tail state outside; the first logged time
    when the whole trajectory stays inside.
    """
    tail = traj.xbar_tail_max
    if tail.size == 0:
        return None
    bad = np.flatnonzero(tail > 0)
    if bad.size == 0:
        return float(traj.times[0])
    if bad[-1] == tail.size - 1:
        return None
    return float(traj.times[bad[-1] + 1])
