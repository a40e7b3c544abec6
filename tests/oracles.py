"""Scalar, per-player reference laws the vectorized simulator is tested against.

The package runs the paper's control and estimator laws only as the fused
right-hand sides in :mod:`nashseek.sim`. The forms here state them one
player (or one estimate entry) at a time, as the paper writes them, and
stay independent of :func:`nashseek.dynamics.gain_row` and ``sim._Tables``:
:func:`control` writes its gains out term by term. They are also written to
touch only one-hop information, so an access audit can poison everything
else and observe no difference.

Also here: the integrator-chain pair, the canonical matrix from its
definition and the controllability matrix, the independent route to the
coordinate change of :mod:`nashseek.dynamics`, whose exact residuals
:func:`similarity_residual` takes; the order-independent geometric control
bound; the flat state layout [xbar_1..xbar_N | z | c | eta] that
``IntegrationError.component`` indexes (:func:`pack_state`); and the
textbook RK4 step (:func:`rk4_step`) that the simulator's stepper is
checked against; gradient play as one loop with a residual test after
every iteration (:func:`gradient_play_reference`), which the package's
blocked loop must reproduce bit for bit at the same step, and the step that
minimizes the iteration's spectral radius found by a search
(:func:`spectral_step_reference`); and the blockwise right-hand side
in its n^2-wide form (:func:`blockwise_rhs_reference`), pinning every
entry of the estimate matrix, whose bits the simulator's arc-list form
must write; and the pinned-Laplacian diagnostic with an eigensolve of
every block (:func:`pinning_diagnostic_reference`), whose result the
package's pruned diagnostic must give bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from nashseek.dynamics import FORM_ALTERNATE, FORM_STANDARD, PlayerSpec, Transformation
from nashseek.errors import ConvergenceError, MonotonicityError, NashseekError
from nashseek.game import QuadraticGame, check_game
from nashseek.graph import Digraph, PinningDiagnostic, laplacian
from nashseek.seeker import SeekerMode, _check_mode, integral_scale
from nashseek.sim import _Tables


def saturation(value, delta: float):
    """Clip to [-delta, delta]; scalar in, scalar out; arrays pass through."""
    if delta <= 0:
        raise ValueError(f"saturation level must be positive, got {delta}")
    clipped = np.clip(value, -delta, delta)
    return float(clipped) if np.isscalar(value) or np.ndim(value) == 0 else clipped


def chain_matrices(m: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Integrator-chain pair: superdiagonal shift matrix and last-unit input."""
    a = np.diag(np.ones(m - 1), 1) if m > 1 else np.zeros((1, 1))
    b = np.zeros(m)
    b[-1] = 1.0
    return a, b


def canonical_a(m: int, theta, form: str = FORM_STANDARD) -> NDArray:
    """Canonical system matrix from its definition, strictly upper triangular.

    Column l (1-based) holds theta^(m-l+1) above the diagonal in the standard
    form and theta in the alternate form. A Fraction theta gives the exact
    entries (an object array), a float theta their float powers.
    """
    a = np.zeros((m, m), dtype=object if isinstance(theta, Fraction) else float)
    for l in range(2, m + 1):
        a[: l - 1, l - 1] = theta if form == FORM_ALTERNATE else theta ** (m - l + 1)
    return a


def controllability_matrix(a: NDArray[np.floating], b: NDArray[np.floating]) -> NDArray[np.float64]:
    """Columns b, A b, ..., A^(m-1) b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    m = b.shape[0]
    cols = [b]
    for _ in range(m - 1):
        cols.append(a @ cols[-1])
    return np.column_stack(cols)


def similarity_residual(tr: Transformation) -> tuple[float, float]:
    """Max-norm residuals of A T - T Abar and B - T 1 over Fractions: the chain's
    pair and :func:`canonical_a` at the exact binary theta, with no rounding."""
    m = tr.order
    t = np.array(tr.exact_t, dtype=object)
    chain_a = np.eye(m, k=1, dtype=int).astype(object)
    res_a = np.abs(chain_a @ t - t @ canonical_a(m, Fraction(tr.theta), tr.form)).max()
    res_b = np.abs(t.sum(axis=1) - np.eye(m, dtype=int)[m - 1]).max()
    return float(res_a), float(res_b)


def geometric_control_bound(theta: float, delta: float) -> float:
    """Order-independent geometric-series bound theta/(1-theta) * delta.

    Covers the high-order law only: looser than :func:`max_control_bound` for
    any finite order m >= 2, but handy as the sufficient condition for choosing
    delta independently of the order. The first-order law reaches delta itself.
    """
    return theta / (1.0 - theta) * delta


class GainIntegrityError(NashseekError):
    """A non-positive adaptive gain was observed.

    The gains are non-decreasing from positive initial values, so this can
    only mean the integrator was fed a corrupted state.
    """


#: Modes whose estimate update multiplies the innovation by (gain + innovation^2).
_RHO_AUGMENTED = frozenset(
    {
        SeekerMode.SATURATED_DIRECTED,
        SeekerMode.FIRST_ORDER,
        SeekerMode.UNSATURATED,
        SeekerMode.ALTERNATE_FORM,
    }
)


@dataclass
class SeekerState:
    """Full seeker state for one instant.

    xbar:  per-player plant state in bar coordinates, lengths m_i.
    z:     (N, N) estimate matrix; row i is player i's estimated profile.
    c:     (N, N) adaptive gains, positive wherever used.
    eta:   (N,) gradient integrals.
    """

    xbar: tuple[NDArray[np.float64], ...]
    z: NDArray[np.float64]
    c: NDArray[np.float64]
    eta: NDArray[np.float64]

    def __post_init__(self):
        n = len(self.xbar)
        if self.z.shape != (n, n) or self.c.shape != (n, n) or self.eta.shape != (n,):
            raise ValueError(
                f"inconsistent state shapes: {len(self.xbar)} plants, "
                f"z {self.z.shape}, c {self.c.shape}, eta {self.eta.shape}"
            )


@dataclass
class ConsensusRates:
    z_dot: NDArray[np.float64]
    c_dot: NDArray[np.float64]
    eta_dot: NDArray[np.float64]


def innovation(i: int, j: int, state: SeekerState, g: Digraph) -> float:
    """Consensus innovation for entry (i, j), one-hop information only.

    Reads player i's own estimate row, in-neighbor entries z_kj, and
    eta_j only when j itself is an in-neighbor (the weight gates it).
    """
    w = g.weights
    z = state.z
    acc = 0.0
    for k in np.flatnonzero(w[i] > 0):
        acc += w[i, k] * (z[i, j] - z[k, j])
    if w[i, j] > 0:
        acc += w[i, j] * (z[i, j] + state.eta[j])
    return acc


def innovation_matrix(
    z: NDArray[np.floating],
    eta: NDArray[np.floating],
    g: Digraph,
) -> NDArray[np.float64]:
    """All innovations at once: L @ z + weights * (z + eta per column)."""
    return laplacian(g) @ z + g.weights * (z + eta)


def self_gradients(game: QuadraticGame, profiles: NDArray[np.floating]) -> NDArray[np.float64]:
    """Player i's gradient at row i of ``profiles`` (..., N, N), its own estimate."""
    return (game.jacobian * profiles).sum(axis=-1) + game.offset


def consensus_rhs(
    state: SeekerState,
    g: Digraph,
    game: QuadraticGame,
    mode: SeekerMode,
) -> ConsensusRates:
    """Time derivatives of the estimator variables (z, c, eta).

    The gains must be positive; they are non-decreasing from positive
    initial values, so a violation means the caller corrupted the state.
    """
    if (state.c <= 0).any():
        raise GainIntegrityError(
            f"non-positive adaptive gain (min {state.c.min():.3e}); state is corrupted"
        )
    xi = innovation_matrix(state.z, state.eta, g)
    rho = xi * xi
    gain = state.c + rho if mode in _RHO_AUGMENTED else state.c
    return ConsensusRates(
        z_dot=-gain * xi,
        c_dot=rho,
        eta_dot=self_gradients(game, state.z),
    )


def control(i: int, state: SeekerState, spec: PlayerSpec, mode: SeekerMode) -> float:
    """Player i's control input, from its own bar state and gradient integral.

    First-order players share one degenerate law u = -sat(x + eta) in all
    saturated modes. Higher orders feed back the tail states through
    theta-power gains and the first state (shifted by the scaled integral)
    through the innermost term; every fed-back quantity is saturated except
    in UNSATURATED mode.
    """
    _check_mode(spec.order, spec.form, mode)
    xbar = state.xbar[i]
    eta_i = float(state.eta[i])
    m = spec.order
    theta = spec.theta
    delta = spec.delta
    sat = (lambda v: v) if mode is SeekerMode.UNSATURATED else (lambda v: saturation(v, delta))
    inner = xbar[0] + integral_scale(spec) * eta_i
    if m == 1:
        return -sat(inner)
    if spec.form == FORM_ALTERNATE:
        tail = sum(theta * sat(xbar[m - k]) for k in range(1, m))
        return float(-tail - theta * sat(inner))
    tail = sum(theta**k * sat(xbar[m - k]) for k in range(1, m))
    return float(-tail - theta**m * sat(inner))


def ascending_integral_scale(m: int, theta: float) -> float:
    """The standard form's integral scale theta * theta^2 * ... * theta^(m-1), left to right."""
    scale = 1.0
    for k in range(1, m):
        scale *= theta**k
    return scale


def tilde_x1(i: int, state: SeekerState, spec: PlayerSpec) -> float:
    """Innermost-term argument: first bar state plus the scaled gradient integral.

    This is the quantity whose decay links the estimator to the plant output;
    the simulator logs its sup over players as ``tilde_norm``.
    """
    return float(state.xbar[i][0] + integral_scale(spec) * state.eta[i])


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


def rk4_step(rhs, state: NDArray[np.float64], h: float) -> NDArray[np.float64]:
    """One classical Runge-Kutta 4 step of an allocating ``rhs(s) -> new array``.

    The arithmetic is state + (h/6) (k1 + 2 k2 + 2 k3 + k4), summed left to
    right, on a state of any shape. ``sim._Stepper`` forms the same step as
    weighted products, which sum in another order.
    """
    k1 = rhs(state)
    k2 = rhs(state + 0.5 * h * k1)
    k3 = rhs(state + 0.5 * h * k2)
    k4 = rhs(state + h * k3)
    return state + (k1 + 2.0 * k2 + 2.0 * k3 + k4) * (h / 6.0)


def spectral_step_reference(game: QuadraticGame) -> float:
    """The step s minimizing rho(s) = max_k |1 - s lambda_k|, by ternary search.

    rho is convex in s, equals 1 at s = 0 and is at least 1 from
    min_k 2 Re lambda_k / |lambda_k|^2 on, so the minimizer lies between.
    200 thirds shrink that bracket below double resolution. The eigenvalues
    are those of J over 2**floor(log2 max |J_ij|), and the step is scaled
    back. Raises :class:`ConvergenceError` when the best rho is not below 1.
    """
    scale = 2.0 ** math.floor(math.log2(np.abs(game.jacobian).max()))
    lam = np.linalg.eigvals(game.jacobian / scale)

    def rho(s: float) -> float:
        return float(np.abs(1.0 - s * lam).max())

    lo, hi = 0.0, float((2.0 * lam.real / np.abs(lam) ** 2).min())
    for _ in range(200):
        third = (hi - lo) / 3.0
        if rho(lo + third) < rho(hi - third):
            hi -= third
        else:
            lo += third
    step = (lo + hi) / 2.0
    if not rho(step) < 1.0:
        raise ConvergenceError(float(np.abs(game.offset).max()), 0, "no contracting step")
    return step / scale


def gradient_play_reference(
    game: QuadraticGame, step: float | None = None, max_iters: int = 200_000
) -> NDArray[np.float64]:
    """Gradient play as :func:`nashseek.game.solve_nash_gradient_play` states it.

    Damped fixed-point iteration y <- y - step * F(y) from y = 0, testing
    ||F(y)||_inf <= 1e-10 * ||offset||_inf before every update. The default
    step minimizes the spectral radius of I - step * J, found by
    :func:`spectral_step_reference`, a search rather than the package's
    candidate formula, so the two defaults agree to rounding, not bit for bit.
    """
    y = np.zeros(game.n_players)
    if step is None:
        cert = check_game(game)
        if not cert.strongly_monotone:
            raise MonotonicityError(cert.monotonicity)
        step = spectral_step_reference(game)
    tol = 1e-10 * np.abs(game.offset).max()
    for _ in range(max_iters):
        grad = game.pseudo_gradient(y)
        if np.abs(grad).max() <= tol:
            return y
        y -= step * grad
    raise ConvergenceError(float(np.abs(game.pseudo_gradient(y)).max()), max_iters)


def pinning_diagnostic_reference(g: Digraph) -> PinningDiagnostic:
    """:func:`nashseek.graph.pinning_diagnostic` with every block eigensolved.

    No bracket and no block dropped: ``np.linalg.eigvals`` on all n
    blocks. The package's result must equal this one bit for bit.
    """
    blocks = laplacian(g) + np.eye(g.n) * g.weights.T[:, None, :]
    eigs = np.linalg.eigvals(blocks)
    sv = np.linalg.svd(blocks, compute_uv=False)
    return PinningDiagnostic(
        min_real_eig=float(eigs.real.min()),
        condition=float(sv.max() / sv.min()) if sv.min() > 0 else float("inf"),
    )


def blockwise_rhs_reference(tables: _Tables, game: QuadraticGame):
    """``sim._blockwise_rhs`` as a pass over every entry of the n^2-wide blocks.

    Returns ``bind(s, out, lin)`` like the simulator's; it ignores ``lin``
    and allocates its n^2 temporaries. The pinning term w o (z + 1 eta^T)
    is formed over all n^2 entries, zero off the arcs, and xi is negated
    last.
    """
    lap, w = tables.lap, tables.weights
    rho_aug = tables.rho_augmented
    split, controls = tables.split, tables.controls
    abar, mask = tables.abar, tables.mask

    def bind(s, out, lin):
        x, z, c, eta = split(s)
        xdot, zdot, cdot, etadot = split(out)

        def rhs() -> None:
            xi = lap @ z
            pinned = z + eta[..., None, :]
            np.multiply(pinned, w, out=pinned)
            np.add(xi, pinned, out=xi)
            np.multiply(xi, xi, out=cdot)
            if rho_aug:
                np.add(c, cdot, out=zdot)
            else:
                zdot[...] = c
            np.multiply(zdot, xi, out=zdot)
            np.negative(zdot, out=zdot)
            xdot[...] = (abar @ x[..., None])[..., 0] + controls(x, eta)[..., None] * mask
            etadot[...] = self_gradients(game, z)

        return rhs

    return bind
