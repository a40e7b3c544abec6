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
actuator bound a priori. The package runs these laws only as the vectorized
right-hand sides of :mod:`nashseek.sim`; this module holds what they share:
the closed-loop variants, the mode/form compatibility rule, and the
coefficients :func:`integral_scale` and :func:`certified_bound`, both
derived from :func:`nashseek.dynamics.gain_row`. The scalar per-player laws
those right-hand sides are tested against live in ``tests/oracles.py``.
"""

from __future__ import annotations

import enum

import numpy as np

from .dynamics import FORM_ALTERNATE, FORM_STANDARD, PlayerSpec, gain_row, max_control_bound
from .errors import ModeOrderError

__all__ = ["SeekerMode", "integral_scale", "certified_bound"]


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


def integral_scale(spec: PlayerSpec) -> float:
    """Coefficient on eta inside the innermost control term: the product of gain_row[1:].

    prod_{k=1}^{m-1} theta^k for the standard form, theta^(m-1) for the
    alternate form, 1 for a first-order player.
    """
    return float(np.prod(gain_row(spec.order, spec.theta, spec.form)[1:][::-1]))


def _check_mode(order: int, form: str, mode: SeekerMode) -> None:
    """Raise ModeOrderError unless a player of this order and form runs in ``mode``."""
    if mode is SeekerMode.FIRST_ORDER and order != 1:
        raise ModeOrderError(f"FirstOrder mode requires order 1 players, got order {order}")
    if order >= 2:
        want = FORM_ALTERNATE if mode is SeekerMode.ALTERNATE_FORM else FORM_STANDARD
        if form != want:
            raise ModeOrderError(
                f"mode {mode.value} requires canonical form {want!r}, got {form!r}"
            )


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
