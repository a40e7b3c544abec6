"""Equilibrium-seeking laws: bounded controls plus the adaptive estimator.

Player i never sees the true action profile. It integrates its own cost
gradient along its estimated profile (eta_i), exchanges estimate rows with
in-neighbors, and runs an adaptive consensus loop whose innovation for
entry (i, j) is

    xi_ij = sum_k a_ik (z_ij - z_kj) + a_ij (z_ij + eta_j),

driving z_ij -> -eta_j and -eta -> the Nash equilibrium. The consensus
gains c_ij grow by the squared innovation and settle at finite values, so
no global gain depending on network size has to be tuned in advance.

The plant-side control laws act in the canonical (bar) coordinates and pass
every fed-back state through a saturation, which is what certifies the
actuator bound a priori. Scalar, per-player implementations live here and
are the reference the vectorized simulator path is tested against; they are
also written to touch only one-hop information so an access audit can poison
everything else and observe no difference. :func:`control` writes its gains
out term by term as an independent oracle; :func:`integral_scale` and
:func:`certified_bound` derive from :func:`nashseek.dynamics.gain_row`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .dynamics import (
    FORM_ALTERNATE,
    FORM_STANDARD,
    PlayerSpec,
    gain_row,
    max_control_bound,
    saturation,
)
from .errors import GainIntegrityError, ModeOrderError
from .game import QuadraticGame
from .graph import Digraph, laplacian

__all__ = [
    "SeekerMode",
    "SeekerState",
    "ConsensusRates",
    "innovation",
    "innovation_matrix",
    "consensus_rhs",
    "control",
    "tilde_x1",
    "integral_scale",
    "certified_bound",
]


class SeekerMode(enum.Enum):
    """Which closed-loop variant to run.

    SATURATED_DIRECTED is the main design: bounded controls, any strongly
    connected digraph, innovation-squared added to the gain inside the
    estimate update. FIRST_ORDER is its single-integrator special case.
    UNDIRECTED_ADAPTIVE drops that extra innovation term (gain alone
    multiplies the innovation) and requires symmetric weights. UNSATURATED
    removes the clipping from the standard law. ALTERNATE_FORM states the
    same design in the all-theta canonical form.
    """

    SATURATED_DIRECTED = "SaturatedDirected"
    FIRST_ORDER = "FirstOrder"
    UNDIRECTED_ADAPTIVE = "UndirectedAdaptive"
    UNSATURATED = "Unsaturated"
    ALTERNATE_FORM = "AlternateForm"


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
    for k in g.in_neighbors(i):
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
        eta_dot=game.self_gradients(state.z),
    )


def integral_scale(spec: PlayerSpec) -> float:
    """Coefficient on eta inside the innermost control term: the product of gain_row[1:].

    prod_{k=1}^{m-1} theta^k for the standard form, theta^(m-1) for the
    alternate form, 1 for a first-order player.
    """
    return float(np.prod(gain_row(spec.order, spec.theta, spec.form)[1:][::-1]))


def _check_mode(spec: PlayerSpec, mode: SeekerMode) -> None:
    if mode is SeekerMode.FIRST_ORDER and spec.order != 1:
        raise ModeOrderError(
            f"FirstOrder mode requires order 1 players, got order {spec.order}"
        )
    if spec.order >= 2:
        want = FORM_ALTERNATE if mode is SeekerMode.ALTERNATE_FORM else FORM_STANDARD
        if spec.form != want:
            raise ModeOrderError(
                f"mode {mode.value} requires canonical form {want!r}, "
                f"got {spec.form!r}"
            )


def control(i: int, state: SeekerState, spec: PlayerSpec, mode: SeekerMode) -> float:
    """Player i's control input, from its own bar state and gradient integral.

    First-order players share one degenerate law u = -sat(x + eta) in all
    saturated modes. Higher orders feed back the tail states through
    theta-power gains and the first state (shifted by the scaled integral)
    through the innermost term; every fed-back quantity is saturated except
    in UNSATURATED mode.
    """
    _check_mode(spec, mode)
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


def tilde_x1(i: int, state: SeekerState, spec: PlayerSpec) -> float:
    """Innermost-term argument: first bar state plus the scaled gradient integral.

    This is the quantity whose decay links the estimator to the plant output;
    the simulator logs its sup over players as ``tilde_norm``.
    """
    return float(state.xbar[i][0] + integral_scale(spec) * state.eta[i])


def certified_bound(spec: PlayerSpec, mode: SeekerMode) -> float:
    """Tight a-priori sup-bound of |control| for arbitrary states: delta * sum(gain_row).

    Mode- and order-aware: the degenerate first-order law saturates at
    delta; the standard law at sum_k theta^k * delta; the alternate form at
    m * theta * delta (:func:`nashseek.dynamics.max_control_bound`); the
    unsaturated law is unbounded.
    """
    if mode is SeekerMode.UNSATURATED:
        return float("inf")
    return max_control_bound(spec.order, spec.theta, spec.delta, spec.form)
