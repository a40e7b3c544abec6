"""Fixed-step closed-loop simulation and convergence diagnostics.

The state of one scenario is documented as one flat vector laid out as

    [ xbar_1 | ... | xbar_N | z row-major | c row-major | eta ]

of length sum(m_i) + 2 N^2 + N, advanced by classical Runge-Kutta 4 with a
constant step; ``IntegrationError.component`` indexes this layout. A
fixed-step scheme keeps reruns bit-identical and makes the step-halving
consistency check meaningful; the dynamics are smooth and non-stiff at the
default step for the parameter ranges this package targets.

Inside the loop the plant block is padded to (N, mmax), mmax the largest
order, so the loop state has length L = N mmax + 2 N^2 + N:

    [ xbar padded to (N, mmax) row-major | z | c | eta ]

Padded slots stay zero. Fault components are still reported in the
documented layout. The integrator advances a state of shape (..., L), so
:func:`run_batch` steps B scenarios that share game, graph, players, mode
and :class:`SimConfig` as one (B, L) array; :func:`run` is the B = 1 case.
:func:`run_batch` is the one place that validates run inputs: it rejects
them, builds the coordinate changes and the initial states before it
returns, and builds a right-hand side only when its iterator is first
advanced. ``nashseek check`` calls it and discards the iterator, so it
stops exactly where a run starts stepping.

Every term of the closed loop is linear in the state except the
saturations and the xi^2 products. So where the operator stays within
``_DENSE_MAX_BYTES``, the right-hand side is one product with
a dense (R, L) operator built once per batch (:func:`linear_operator`),
whose row blocks are

    [ saturation arguments (xbar_1 + p eta | xbar_2 ... xbar_m), (N, mmax)
    | Abar xbar, (N, mmax)
    | -xi = -(L z + W o (z + 1 eta^T)), (N, N)
    | rowsum(J o z), N ]

followed by one call of numpy's clip ufunc against delta per slot (delta =
inf when unsaturated), a second product with the gain matrix built from
:func:`nashseek.dynamics.gain_row` that forms Abar xbar + b u, and the
elementwise xi^2 and c products. The products are stacked matrix-vector
products, (B, 1, L) @ (L, R), never one (B, L) @ (L, R) matrix product:
BLAS may sum a matrix product's rows in another order than a lone vector's,
and the stacked form keeps every member bit-identical to its solo run.
At these sizes a step costs numpy's fixed cost per call more than its
arithmetic. Both right-hand sides take the form ``bind(s, out, lin)``,
which returns a call that writes the rate at ``s`` into ``out``; the dense
one returns its seven bound numpy calls as a :class:`_Calls` tuple. One
:class:`_Stepper`, built once per chunk of members, steps either: it owns
the state, stage and product buffers, binds the right-hand side to each
(input, output) pair once, splices each :class:`_Calls` into one flat
tuple of calls per RK4 phase, and forms each stage argument and the new
state as one weighted product over the member's [s | k1 | k2 | k3 | k4]
rows, in those buffers. That sums in another order than
state + (h/6) (k1 + 2 k2 + 2 k3 + k4), the RK4 oracle in
``tests/oracles.py``, so the two agree to rounding, not bit for bit; the
products are stacked per member for the same reason as the operator's, so
members stay bit-identical to their solo runs. A dense step is 32 numpy
calls with no Python frame per right-hand side, 33 with the loop's screen.

Above the byte bound the blockwise right-hand side (rowwise J o z, a
Laplacian product, the pinning term on the graph's arcs only and the padded
plant block) runs instead, and no operator is built; there a step is passes
over n^2-wide arrays, not numpy's cost per call. The loop screens each step
by the state's sum, ``np.add.reduce(state, None)``, finite when every
entry is. A step that fails the screen keeps the batch's shape: its
finite rows are kept, each bit-identical to its member's solo step, and
each non-finite row re-takes the step alone and blockwise, since a dense
product turns one overflowed entry into NaN across its member's whole
row. A re-take still non-finite records its member's IntegrationError at
its first non-finite entry and parks the row at zeros; the chunk stops
once every member has faulted.
The agreement of both right-hand sides with the scalar per-player laws in
``tests/oracles.py`` is pinned by tests, not assumed.

The loop copies each accepted state into the next row of a step-history
block of K + 1 rows of (B, L), row 0 holding the state before the block's
first step. K is the most rows whose block fits ``_HISTORY_BYTES``
(2 MiB), and at most the run's steps: 1000 on the benchmark's ``reference``
run, 500 on ``sweep`` and 13 on ``large_n``. Every K steps and
at the end, one pass over the filled rows computes, in stacked calls, u at
every step for the per-step peak |u| against the certified bound, c
against the row before in one comparison for the monotonicity audit, and
the logged columns of the rows on the ``log_every`` grid. So
``bound_violated`` and ``c_monotone`` cover every step, and the log costs
one pass per block instead of a dozen calls per logged row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import isfinite
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np
from numpy._core.umath import clip
from numpy.typing import NDArray

from . import seeker as _seeker
from .dynamics import PlayerSpec, build_transformation, gain_row
from .errors import (
    ConfigError,
    ConnectivityError,
    IntegrationError,
    MonotonicityError,
    SymmetryError,
)
from .game import QuadraticGame, check_game, solve_nash_closed_form
from .graph import Digraph, is_strongly_connected, laplacian
from .seeker import SeekerMode

__all__ = [
    "SimConfig",
    "Trajectory",
    "Summary",
    "run",
    "run_batch",
    "detect_convergence",
    "unsaturated_entry",
]

_C_MONOTONE_SLACK = 1e-12
# Checked before anything is allocated; a logged row holds 2N + 5 doubles.
# The log cap holds per scenario, and run_batch integrates its members in
# chunks whose logs together stay within it.
_MAX_STEPS = 10**9
_MAX_LOG_BYTES = 2**30
# Largest dense operator the right-hand side multiplies by; above it the
# blockwise right-hand side runs. It was set at the measured crossover for
# order-3 players on a directed cycle, one BLAS thread, 2 MB of L2 per core
# (scaled medians of rhs_per_call in BENCH_clipflat.json, from
# tools/bench_record.py): per call, 17 us dense against 21 us blockwise at
# n = 12 (a 0.61 MB operator), 19 against 20 us at n = 13 (0.81 MB), 26
# against 21 us at n = 14 (1.05 MB), 29 against 22 us at n = 15 (1.35 MB)
# and 44 against 22 us at n = 16 (1.70 MB), as the operator leaves the
# cache. n = 14 read level in BENCH_edgepin.json (23 against 23 us); the
# bound stays, since moving it changes which path, and so which bits, a
# config gets.
_DENSE_MAX_BYTES = 1_200_000
# Largest step-history block of _integrate, its carried row included; the
# block is at least one row.
_HISTORY_BYTES = 2 * 2**20


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
        if (
            not isinstance(self.log_every, (int, np.integer))
            or isinstance(self.log_every, bool)
            or self.log_every < 1
        ):
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
    """Scalar verdicts of one run; everything a test or a report gates on.

    ``max_abs_u`` is each player's peak |u| over the logged rows and
    ``step_max_abs_u`` over every step; ``bound_violated`` (a peak above
    ``certified_bounds``) and ``c_monotone`` (no gain fell by more than
    1e-12 in a step) are decided over every step.
    ``c_trailing_drift`` is max |c_final - c| against the first logged row
    at or after 0.9 t_end, and None when no row is logged there.
    """

    converged: bool
    t_converge: float | None
    final_err: float
    max_abs_u: NDArray[np.float64]
    step_max_abs_u: NDArray[np.float64]
    certified_bounds: NDArray[np.float64]
    bound_violated: bool
    c_final_range: tuple[float, float]
    c_monotone: bool
    unsaturated_entry_time: float | None
    c_trailing_drift: float | None


def _vecmat(v: NDArray[np.float64], m: NDArray[np.float64], out: NDArray[np.float64]) -> Callable:
    """A call that writes v @ m into ``out``, one BLAS matrix-vector call per member.

    Either operand may be a stack of members: :class:`_Stepper` weights a
    stack of (j, L) blocks by one vector, :func:`_dense_rhs` multiplies a
    stack of vectors by one operator. A stack is multiplied as
    (..., 1, j) @ (..., j, L), never as one matrix product, which BLAS may
    sum in another order than a lone vector's. np.dot of a lone vector and
    matrix makes the same call at a lower fixed cost.
    """
    if v.ndim == 1 and m.ndim == 2:
        return partial(np.dot, v, m, out)
    return partial(np.matmul, v[..., None, :], m, out[..., None, :])


class _Calls(tuple):
    """Bound calls made in order when the tuple is called.

    :class:`_Stepper` splices one into its phase's flat tuple of calls, so
    the calls run with no Python frame of their own.
    """

    def __call__(self) -> None:
        for call in self:
            call()


class _Stepper:
    """Classical RK4 on either right-hand side, in buffers it owns.

    Built for one state shape (..., L) from ``bind`` (see :func:`_dense_rhs`
    and :func:`_blockwise_rhs`) and the length ``rows`` of its scratch
    buffer ``lin``. Each member has a (5, L) block of rows
    [s | k1 | k2 | k3 | k4], held as (..., 5, L), and two such blocks swap
    each step. The right-hand side is bound to each (input, output) pair
    once, so a step makes no view and allocates nothing beyond the
    right-hand side's own temporaries (the blockwise one's are the size of
    the plant block, none n^2-wide). Each
    stage argument is one weighted product over the block's leading rows,
    s + (h/2) k1 as [1, h/2] against [s; k1], and so is the new state,
    [1, h/6, h/3, h/3, h/6] against the whole block, written into the other
    block's row 0. A batch's products are stacked per member
    (:func:`_vecmat`): a single product over the flattened (5, B L) may
    sum a member in another order than its lone product (it changed some
    bit in 102 of 2,560 random member products), while the stacked form
    keeps every member bit-identical to its solo run.

    A bound right-hand side that is a :class:`_Calls` is spliced into its
    phase's one flat tuple of calls; any other callable stays one call.
    A step enters no np.errstate and screens nothing: :func:`_integrate`
    silences overflow around its loop and screens each step.
    """

    def __init__(self, bind: Callable, rows: int, state: NDArray[np.float64], h: float):
        lead = state.shape[:-1]
        blocks = np.empty((2,) + lead + (5, state.shape[-1]))
        blocks[0, ..., 0, :] = state
        stage = np.empty(state.shape)
        lin = np.empty(lead + (rows,))
        weights = (
            np.array([1.0, 0.5 * h]),
            np.array([1.0, 0.0, 0.5 * h]),
            np.array([1.0, 0.0, 0.0, h]),
        )
        combine = np.array([1.0, h / 6.0, h / 3.0, h / 3.0, h / 6.0])
        self._phases = []
        for cur, nxt in ((blocks[0], blocks[1]), (blocks[1], blocks[0])):
            s, ks = cur[..., 0, :], [cur[..., j, :] for j in range(1, 5)]
            calls = [bind(s, ks[0], lin)]
            for j, w in enumerate(weights, start=2):
                calls += [_vecmat(w, cur[..., :j, :], stage), bind(stage, ks[j - 1], lin)]
            calls.append(_vecmat(combine, cur, nxt[..., 0, :]))
            flat = [c for call in calls for c in (call if isinstance(call, _Calls) else [call])]
            self._phases.append((tuple(flat), nxt[..., 0, :]))
        self._phase = 0

    def step(self) -> NDArray[np.float64]:
        """Advance one step and return the new state, a buffer reused two steps on.

        Rows the caller overwrites in it are the next step's start.
        """
        calls, nxt = self._phases[self._phase]
        for call in calls:
            call()
        self._phase ^= 1
        return nxt


class _Tables:
    """The closed loop's layout and coefficients, stated once for a batch.

    The loop state is [x padded to (N, mmax) row-major | z | c | eta] of
    length ``width``, z, c and eta starting at ``z0``, ``c0`` and ``eta0``.
    The rows of :func:`linear_operator`'s operator are [saturation arguments
    | Abar x | -xi | Jz], ``rows`` in all, -xi and Jz starting at ``xi0``
    and ``jz0``. ``gains`` (N, mmax) holds each player's
    :func:`nashseek.dynamics.gain_row`, and ``lo``/``hi`` the clip pair of
    each slot of the plant block. The padded slots stay zero because their
    rows and columns of ``abar`` and their ``mask`` and ``gains`` entries
    are zero.
    """

    def __init__(self, specs: Sequence[PlayerSpec], mode: SeekerMode, g: Digraph):
        n = len(specs)
        ms = np.array([s.order for s in specs])
        mmax = int(ms.max())
        self.n = n
        self.mmax = mmax
        self.npad = n * mmax
        self.z0, self.c0, self.eta0 = self.npad, self.npad + n * n, self.npad + 2 * n * n
        self.width = self.eta0 + n
        self.xi0, self.jz0 = 2 * self.npad, 2 * self.npad + n * n
        self.rows = self.jz0 + n
        self.mask = np.arange(mmax) < ms[:, None]
        self.tails = self.mask & (np.arange(mmax) > 0)
        # documented-layout index of each loop-state slot (a padded slot maps
        # to its player's last state, the one its non-finite value comes from)
        self.packed = np.concatenate(
            [np.cumsum(self.mask.ravel()) - 1, ms.sum() + np.arange(self.width - self.npad)]
        )
        self.abar = np.zeros((n, mmax, mmax))
        self.gains = np.zeros((n, mmax))
        self.pvec = np.zeros(n)
        self.out_rows = np.zeros((n, mmax))
        self.certified = np.zeros(n)
        # everything a player's spec determines, once per distinct spec
        built = {}
        for spec in dict.fromkeys(specs):
            tr = build_transformation(spec)
            built[spec] = (
                tr,
                gain_row(spec.order, spec.theta, spec.form),
                _seeker.integral_scale(spec),
                _seeker.certified_bound(spec, mode),
            )
        self.transforms = [built[spec][0] for spec in specs]
        for i, spec in enumerate(specs):
            m = spec.order
            tr, self.gains[i, :m], self.pvec[i], self.certified[i] = built[spec]
            self.abar[i, :m, :m] = tr.a_bar
            self.out_rows[i, :m] = tr.t_matrix[0]  # y = x_1 in bar coordinates
        deltas = np.array([s.delta for s in specs])
        self.delta_col = deltas[:, None]
        # clip level per slot of the flat (..., N mmax) plant block, inf when
        # unsaturated: clip(x, -inf, inf) is x
        levels = np.full(n, np.inf) if mode is SeekerMode.UNSATURATED else deltas
        self.hi = np.repeat(levels, mmax)
        self.lo = -self.hi
        self.rho_augmented = mode is not SeekerMode.UNDIRECTED_ADAPTIVE
        self.weights = g.weights
        self.lap = laplacian(g)

    def operator_bytes(self) -> int:
        """Size of the dense (R, L) operator of :func:`linear_operator`."""
        return 8 * self.rows * self.width

    def split(self, s: NDArray[np.float64]):
        """Views x (..., N, mmax), z and c (..., N, N), eta (..., N) of a loop state."""
        lead, n = s.shape[:-1], self.n
        return (
            s[..., : self.z0].reshape(lead + (n, self.mmax)),
            s[..., self.z0 : self.c0].reshape(lead + (n, n)),
            s[..., self.c0 : self.eta0].reshape(lead + (n, n)),
            s[..., self.eta0 :],
        )

    def controls(self, x: NDArray[np.float64], eta: NDArray[np.float64]) -> NDArray[np.float64]:
        """u = -gain_row . sat([x_1 + p eta | x_2 ...]) per player."""
        arg = x.copy()
        arg[..., 0] += self.pvec * eta
        flat = arg.reshape(arg.shape[:-2] + (self.npad,))
        clip(flat, self.lo, self.hi, flat)
        terms = self.gains * arg
        # the tail terms summed first, then the innermost term: the order
        # that keeps logged u bit-identical across versions
        return -(terms[..., 1:].sum(axis=-1) + terms[..., 0])

    def outputs(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        return (self.out_rows * x).sum(axis=-1)

    def tail_max(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        if not self.tails.any():
            return np.full(x.shape[:-2], -np.inf)
        return (np.abs(x) - self.delta_col)[..., self.tails].max(axis=-1)

    def initial_state(self, x0, z0, c0) -> NDArray[np.float64]:
        """Loop state of one scenario from original-coordinate plant states."""
        n = self.n
        if x0 is None:
            x0 = [np.zeros(tr.order) for tr in self.transforms]
        if len(x0) != n:
            raise ConfigError(f"x0 has {len(x0)} entries for {n} players")
        x = np.zeros((n, self.mmax))
        for i, tr in enumerate(self.transforms):
            xi = np.asarray(x0[i], dtype=float).ravel()
            if xi.shape != (tr.order,):
                raise ConfigError(
                    f"x0[{i}] has shape {xi.shape}, expected ({tr.order},)"
                )
            x[i, : tr.order] = tr.t_inverse @ xi
        z_init = _materialize(z0, (n, n), "z0")
        c_init = _materialize(c0, (n, n), "c0")
        if (c_init <= 0).any():
            raise ConfigError(
                f"initial adaptive gains must be positive, got min {c_init.min():.6g}"
            )
        return np.concatenate([x.ravel(), z_init.ravel(), c_init.ravel(), np.zeros(n)])


def linear_operator(
    tables: _Tables, game: QuadraticGame
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """The closed loop's linear part as the pair (op, gain).

    ``op`` is (R, L) with R = 2 N mmax + N^2 + N; its rows map a loop state
    to the saturation arguments, Abar xbar, -xi and rowsum(J o z), in the
    order of the module docstring. ``gain`` is (N mmax, 2 N mmax): applied
    to [sat(arguments) | Abar xbar] it gives xbar's rate Abar xbar + b u,
    with u = -gain_row . sat(arguments) broadcast over the player's slots.
    """
    n, mmax, npad = tables.n, tables.mmax, tables.npad
    nn = n * n
    z0, eta0, xi0, jz0 = tables.z0, tables.eta0, tables.xi0, tables.jz0
    op = np.zeros((tables.rows, tables.width))
    # saturation arguments: every real slot of xbar, plus p_i eta_i on the first
    slots = np.flatnonzero(tables.mask)
    op[slots, slots] = 1.0
    players = np.arange(n)
    op[players * mmax, eta0 + players] = tables.pvec
    # block-diagonal plant drift: row (i, k), column (i, l) holds abar[i, k, l]
    i = players[:, None, None]
    k = np.arange(mmax)[None, :, None]
    l = np.arange(mmax)[None, None, :]
    op[npad + i * mmax + k, i * mmax + l] = tables.abar
    # -xi_ij = -sum_k L_ik z_kj - w_ij z_ij - w_ij eta_j
    w = tables.weights
    entries = np.arange(nn)
    op[xi0 : xi0 + nn, z0 : z0 + nn] = -np.kron(tables.lap, np.eye(n))
    op[xi0 + entries, z0 + entries] -= w.ravel()
    op[xi0 : xi0 + nn, eta0 : eta0 + n] = -(w[:, :, None] * np.eye(n)).reshape(nn, n)
    # eta rates without the offset: row i of J against row i of z
    op[jz0 + players[:, None], z0 + entries.reshape(n, n)] = game.jacobian
    # u_i = -gain_row_i . sat(arguments_i) added to each of player i's rates,
    # plus the identity on Abar xbar
    gain = np.zeros((npad, 2 * npad))
    gain[i * mmax + k, i * mmax + l] = -tables.gains[:, None, :] * tables.mask[:, :, None]
    gain[slots, npad + slots] = 1.0
    return op, gain


def _blockwise_rhs(tables: _Tables, game: QuadraticGame) -> Callable:
    """Right-hand side from the Laplacian, the arcs, the game and the padded plant block.

    Returns ``bind(s, out, lin)`` as :func:`_dense_rhs` does, and writes the
    same bits as the n^2-wide form in ``tests/oracles.py``. It makes the
    views of ``s``, ``out`` and ``lin`` once. The call it returns holds
    rowwise J o z, then -xi, in the -xi rows of ``lin`` that the dense path
    uses, adds the pinning term on the arcs only, and allocates no n^2
    temporary.
    """
    n, z0, eta0, xi0, jz0 = tables.n, tables.z0, tables.eta0, tables.xi0, tables.jz0
    neg_lap = -tables.lap
    w = tables.weights.ravel()
    arcs = np.flatnonzero(w)
    arc_w = w[arcs]
    # per arc (i, j): the loop-state columns of z_ij and eta_j, and lin's of -xi_ij
    gather = np.stack([z0 + arcs, eta0 + arcs % n])
    pinned = (..., xi0 + arcs)
    jac, offset = game.jacobian, game.offset
    rho_aug = tables.rho_augmented
    split, controls = tables.split, tables.controls
    abar, mask = tables.abar, tables.mask
    add, multiply, matmul = np.add, np.multiply, np.matmul
    reduce, subtract_at = np.add.reduce, np.subtract.at

    def bind(s: NDArray[np.float64], out: NDArray[np.float64], lin: NDArray[np.float64]):
        x, z, c, eta = split(s)
        xdot, zdot, cdot, etadot = split(out)
        neg_xi = lin[..., xi0:jz0].reshape(z.shape)
        x_col, xdot_col = x[..., None], xdot[..., None]
        pins = np.empty(s.shape[:-1] + gather.shape)
        pin, eta_j = pins[..., 0, :], pins[..., 1, :]

        def rhs() -> None:
            # eta's rates first, with J o z held in the -xi rows
            multiply(jac, z, out=neg_xi)
            reduce(neg_xi, axis=-1, out=etadot)
            add(etadot, offset, out=etadot)
            # -xi = -L z - w (z + eta), the pinning term on the arcs only; then
            # cdot = xi^2 and zdot = (c + xi^2) (-xi)
            matmul(neg_lap, z, out=neg_xi)
            s.take(gather, axis=-1, out=pins)
            add(pin, eta_j, out=pin)
            multiply(pin, arc_w, out=pin)
            subtract_at(lin, pinned, pin)
            multiply(neg_xi, neg_xi, out=cdot)
            if rho_aug:
                add(c, cdot, out=zdot)
                multiply(zdot, neg_xi, out=zdot)
            else:
                multiply(c, neg_xi, out=zdot)
            matmul(abar, x_col, out=xdot_col)
            add(xdot, controls(x, eta)[..., None] * mask, out=xdot)

        return rhs

    return bind


def _dense_rhs(tables: _Tables, game: QuadraticGame) -> Callable:
    """Right-hand side as two stacked products with :func:`linear_operator`'s pair.

    Returns ``bind(s, out, lin)``. It takes the input, the output and an
    (..., R) buffer for the operator's product, makes every view of them
    once, and returns a :class:`_Calls` of seven bound numpy calls (six when
    rho is not augmented) that writes the rate at ``s`` into ``out``
    without allocating. Each passes its output positionally, which a
    ufunc takes at a lower fixed cost than the keyword.
    """
    op, gain = linear_operator(tables, game)
    op_t = np.ascontiguousarray(op.T)
    gain_t = np.ascontiguousarray(gain.T)
    npad, c0, eta0, xi0, jz0 = tables.npad, tables.c0, tables.eta0, tables.xi0, tables.jz0
    hi, lo = tables.hi, tables.lo
    offset = game.offset
    rho_aug = tables.rho_augmented
    multiply, add = np.multiply, np.add

    def bind(s: NDArray[np.float64], out: NDArray[np.float64], lin: NDArray[np.float64]):
        arg = lin[..., :npad]
        neg_xi = lin[..., xi0:jz0]
        c = s[..., c0:eta0]
        zdot, cdot = out[..., npad:c0], out[..., c0:eta0]
        calls = [
            _vecmat(s, op_t, lin),
            partial(clip, arg, lo, hi, arg),
            _vecmat(lin[..., :xi0], gain_t, out[..., :npad]),
            partial(multiply, neg_xi, neg_xi, cdot),
        ]
        if rho_aug:
            calls += [partial(add, c, cdot, zdot), partial(multiply, zdot, neg_xi, zdot)]
        else:
            calls.append(partial(multiply, c, neg_xi, zdot))
        calls.append(partial(add, lin[..., jz0:], offset, out[..., eta0:]))
        return _Calls(calls)

    return bind


def _log_row(n: int) -> tuple[dict[str, int | slice], int]:
    """Where each logged :class:`Trajectory` field sits in a logged row, and the row's length."""
    scalars = ("err", "xbar_tail_max", "tilde_norm", "z_residual")
    places = {"times": 0, "y": slice(1, n + 1), "u": slice(n + 1, 2 * n + 1)}
    places.update((name, 2 * n + 1 + k) for k, name in enumerate(scalars))
    return places, 2 * n + 1 + len(scalars)


def _log_bytes(config: SimConfig, n: int) -> int:
    """Bytes of one scenario's logged arrays; a ConfigError when over the 1 GiB cap."""
    size = (config.steps // config.log_every) * _log_row(n)[1] * 8
    if size > _MAX_LOG_BYTES:
        raise ConfigError(
            f"logged arrays would take {size / 2**30:.3g} GiB, over the 1 GiB cap; "
            "raise log_every or shorten t_end"
        )
    return size


def _materialize(value, shape, name: str) -> NDArray[np.float64]:
    if np.ndim(value) == 0:
        return np.full(shape, float(value))
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ConfigError(f"{name} has shape {arr.shape}, expected {shape}")
    return arr.copy()


def run(
    game: QuadraticGame,
    g: Digraph,
    specs: Sequence[PlayerSpec],
    mode: SeekerMode,
    x0: Sequence[NDArray[np.floating]] | None = None,
    z0=0.0,
    c0=1.0,
    config: SimConfig = SimConfig(),
) -> tuple[Trajectory, Summary]:
    """Integrate the closed loop and report trajectory plus verdicts.

    ``x0`` holds per-player initial plant states in the *original* chain
    coordinates (converted internally); omitted pieces default to zero
    plants, zero estimates, unit gains. The error column is measured against
    the closed-form equilibrium. This is :func:`run_batch` with one member;
    its fault is raised.
    """
    (result,) = run_batch(game, g, specs, mode, [{"x0": x0, "z0": z0, "c0": c0}], config)
    if isinstance(result, IntegrationError):
        raise result
    return result


def run_batch(
    game: QuadraticGame,
    g: Digraph,
    specs: Sequence[PlayerSpec],
    mode: SeekerMode,
    inits: Sequence[Mapping],
    config: SimConfig,
) -> Iterator[tuple[Trajectory, Summary] | IntegrationError]:
    """Integrate B scenarios that differ only in their initial x0, z0 and c0.

    Member b starts from ``inits[b]``, a mapping with keys ``x0``, ``z0`` and
    ``c0``, each taking what :func:`run` takes; a parsed config's ``init``
    block is one. Everything :func:`run` rejects is rejected
    before this returns; the right-hand sides are built, and members
    integrated, only as the returned iterator is consumed. It yields,
    in member order, each member's ``(Trajectory, Summary)`` or, when its
    state stopped being finite, its IntegrationError; a faulted member
    leaves the batch and the others go on, bit-identical to their solo runs.
    Members are integrated in consecutive chunks as the iterator is
    consumed, so the logs of one chunk stay within the 1 GiB cap of one
    scenario.
    """
    n = g.n
    if game.n_players != n:
        raise ConfigError(f"game has {game.n_players} players but graph has {n}")
    # the convergence proof, and the closed-form reference, need it
    cert = check_game(game)
    if not cert.strongly_monotone:
        raise MonotonicityError(cert.monotonicity)
    log_bytes = _log_bytes(config, n)
    if len(specs) != n:
        raise ConfigError(f"got {len(specs)} player specs for {n} players")
    for spec in specs:
        _seeker._check_mode(spec.order, spec.form, mode)
    if mode is SeekerMode.UNDIRECTED_ADAPTIVE and not g.symmetric:
        raise SymmetryError("UndirectedAdaptive mode requires a symmetric weight matrix")
    if not is_strongly_connected(g):
        raise ConnectivityError("communication digraph must be strongly connected")
    tables = _Tables(specs, mode, g)
    states = np.array([tables.initial_state(**init) for init in inits]).reshape(-1, tables.width)
    chunk = max(1, _MAX_LOG_BYTES // log_bytes)
    return _chunks(tables, game, solve_nash_closed_form(game), states, config, chunk)


def _chunks(tables, game, ref, states, config, chunk):
    """Build the right-hand sides at the first ``next()``, then integrate chunk by chunk."""
    blockwise = _blockwise_rhs(tables, game)
    dense = _dense_rhs(tables, game) if tables.operator_bytes() <= _DENSE_MAX_BYTES else None
    for start in range(0, len(states), chunk):
        yield from _integrate(tables, dense, blockwise, ref, states[start : start + chunk], config)


def _integrate(
    tables: _Tables,
    dense: Callable | None,
    blockwise: Callable,
    ref: NDArray[np.float64],
    state: NDArray[np.float64],
    config: SimConfig,
) -> list[tuple[Trajectory, Summary] | IntegrationError]:
    """The RK4 loop over one chunk: a (B, L) state, one result per row.

    A :class:`_Stepper` steps ``dense``, :func:`_dense_rhs`'s bind, or
    ``blockwise`` where ``dense`` is None. Each accepted state is copied
    into the next row of a (K + 1, B, L) step-history block, whose row 0
    holds the state before the block's first step, and a
    :class:`_BlockPass` reads the filled rows when the block is full and at
    the end. Each step is screened by its state's sum; when the screen
    fails, each non-finite row re-takes its step from the history block's
    last row, or is parked at zeros (see the module docstring), in place in
    the state the stepper steps from next. One np.errstate silencing
    overflow and invalid operations is entered around the whole loop, not
    once per step, so it covers the screen and the block passes as well: a
    logged value of a finite state that overflows, such as an output of a
    huge plant state, raises no warning either.
    """
    width = tables.width
    h = config.step_size
    members = len(state)
    passes = _BlockPass(tables, ref, config, members)
    # K, the most rows whose block, its carried row 0 included, fits the cap
    block_rows = min(max(1, _HISTORY_BYTES // (members * width * 8) - 1), config.steps)

    if members == 1:
        # a lone member steps as one (L,) vector: numpy's fixed cost per call
        # grows with every broadcast axis
        state = state[0]
    block = np.empty((block_rows + 1,) + state.shape)
    block[0] = state
    rows = list(block)
    stepper = _Stepper(blockwise if dense is None else dense, tables.rows, state, h)

    steps = config.steps
    faults: dict[int, IntegrationError] = {}
    copyto, total = np.copyto, np.add.reduce
    k = 0
    j = 0  # rows of the block filled since its row 0; row j is the next step's start
    with np.errstate(over="ignore", invalid="ignore"):
        while k < steps:
            state = stepper.step()
            # a finite state whose sum overflows passes the exact check below
            if not isfinite(total(state, None)):
                # only the non-finite rows re-take the step, each alone and
                # blockwise (see the module docstring), written in place
                t = (k + 1) * h
                result, start = state.reshape(-1, width), rows[j].reshape(-1, width)
                for b in np.flatnonzero(~np.isfinite(result).all(axis=-1)).tolist():
                    if b not in faults:
                        result[b] = _Stepper(blockwise, tables.rows, start[b], h).step()
                        bad = np.flatnonzero(~np.isfinite(result[b]))
                        if not bad.size:
                            continue
                        comp = int(tables.packed[bad[0]])
                        what = f"non-finite state component {comp} after a step"
                        faults[b] = IntegrationError(
                            f"integration fault at t = {t:.6g}: {what}", time=t, component=comp
                        )
                    result[b] = 0.0
                if len(faults) == members:
                    break
            k += 1
            j += 1
            copyto(rows[j], state)
            if j == block_rows:
                passes.run(block, k - j)
                copyto(rows[0], state)
                j = 0
        if j:
            passes.run(block[: j + 1], k - j)

    c_final = tables.split(state.reshape(-1, width))[2].copy()
    results: list[tuple[Trajectory, Summary] | IntegrationError] = []
    for b in range(members):
        if b in faults:
            results.append(faults[b])
            continue
        columns = {name: passes.log[b][:, at] for name, at in passes.places.items()}
        traj = Trajectory(**columns, c_snapshot=c_final[b])
        mark = None if passes.c_mark is None else passes.c_mark[b]
        summary = _summarize(
            traj, tables, config, passes.c_monotone[b], mark, passes.step_peak[b]
        )
        results.append((traj, summary))
    return results


class _BlockPass:
    """Per-member results of the passes over one chunk's step-history blocks.

    Each :meth:`run` reads a block's rows in stacked calls: u at every row
    for the per-step peak |u| (``step_peak``), c against the row before
    for the monotonicity audit (``c_monotone``), and the logged columns of
    the rows on the ``log_every`` grid, placed as :func:`_log_row` says
    (``places``) and written into the chunk's (B, steps // log_every,
    2N + 5) ``log`` with one assignment. The logged values are those of the
    state at their step, computed by the same calls on more rows, so a log
    does not depend on where the block boundaries fall.
    """

    def __init__(self, tables: _Tables, ref: NDArray[np.float64], config: SimConfig, members: int):
        self.tables = tables
        self.ref = ref
        self.h = config.step_size
        self.every = config.log_every
        self.places, width = _log_row(tables.n)
        self.log = np.empty((members, config.steps // self.every, width))
        self.logged = 0
        self.step_peak = np.zeros((members, tables.n))
        self.c_monotone = np.ones(members, dtype=bool)
        # c at the first logged row at or after 0.9 t_end, None until one is
        self.mark_t = 0.9 * config.t_end
        self.c_mark = None

    def run(self, block: NDArray[np.float64], k0: int) -> None:
        """Audit and log ``block``'s rows 1..J, the states after steps k0 + 1..k0 + J.

        Row 0 is the state after step k0. The block is (J + 1, B, L), or
        (J + 1, L) for a lone member; parked rows are read and not used.
        """
        tables = self.tables
        block = block.reshape(len(block), -1, tables.width)
        x, z, c, eta = tables.split(block)
        u = tables.controls(x[1:], eta[1:])
        np.maximum(self.step_peak, np.abs(u).max(axis=0), out=self.step_peak)
        # c against the row before, in one comparison whose temporaries are
        # no larger than the block
        self.c_monotone &= ~(c[1:] < c[:-1] - _C_MONOTONE_SLACK).any(axis=(0, 2, 3))
        # block row 1 + first is the first on the grid
        first = -(k0 + 1) % self.every
        grid = slice(1 + first, None, self.every)
        t = np.arange(k0 + 1 + first, k0 + len(block), self.every) * self.h
        if not t.size:
            return
        x, z, c, eta = x[grid], z[grid], c[grid], eta[grid]
        y = tables.outputs(x)
        cols = np.empty(y.shape[:-1] + self.log.shape[-1:])
        for name, value in (
            ("times", t[:, None]),
            ("y", y),
            ("u", u[first :: self.every]),
            ("err", np.abs(y - self.ref).max(axis=-1)),
            ("xbar_tail_max", tables.tail_max(x)),
            ("tilde_norm", np.abs(x[..., 0] + tables.pvec * eta).max(axis=-1)),
            ("z_residual", np.abs(z + eta[..., None, :]).max(axis=(-2, -1))),
        ):
            cols[..., self.places[name]] = value
        end = self.logged + t.size
        self.log[:, self.logged : end] = cols.swapaxes(0, 1)
        self.logged = end
        if self.c_mark is None:
            hit = np.flatnonzero(t >= self.mark_t)
            if hit.size:
                self.c_mark = c[hit[0]].copy()


def _summarize(
    traj: Trajectory,
    tables: _Tables,
    config: SimConfig,
    c_monotone: bool,
    c_at_mark: NDArray[np.float64] | None,
    step_peak: NDArray[np.float64],
) -> Summary:
    c_final = traj.c_snapshot
    converged, t_conv = detect_convergence(traj, config.conv_tol, config.conv_window)
    drift = None if c_at_mark is None else float(np.abs(c_final - c_at_mark).max())
    return Summary(
        converged=converged,
        t_converge=t_conv,
        final_err=float(traj.err[-1]),
        max_abs_u=np.abs(traj.u).max(axis=0),
        step_max_abs_u=step_peak.copy(),
        certified_bounds=tables.certified.copy(),
        bound_violated=bool((step_peak > tables.certified + 1e-9).any()),
        c_final_range=(float(c_final.min()), float(c_final.max())),
        c_monotone=bool(c_monotone),
        unsaturated_entry_time=unsaturated_entry(traj),
        c_trailing_drift=drift,
    )


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
    window_err = err[times >= times[-1] - window - 1e-12]
    if window_err.size == 0 or not (window_err < tol).all():
        return False, None
    return True, _settled_from(times, err < tol)


def unsaturated_entry(traj: Trajectory) -> float | None:
    """First logged time after which every tail state stays inside its level.

    None when the run ends with a tail state outside; the first logged time
    when the whole trajectory stays inside.
    """
    return _settled_from(traj.times, ~(traj.xbar_tail_max > 0))


def _settled_from(times: NDArray[np.float64], holds: NDArray[np.bool_]) -> float | None:
    """First logged time from which ``holds`` is true at every row to the end.

    None when it is false at the last row or no row is logged.
    """
    bad = np.flatnonzero(~holds)
    if bad.size == 0:
        return float(times[0]) if times.size else None
    if bad[-1] == holds.size - 1:
        return None
    return float(times[bad[-1] + 1])
