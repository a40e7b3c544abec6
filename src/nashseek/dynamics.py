"""Player plants: integrator chains and the canonical coordinate change.

Each player is a chain of ``order`` integrators driven by a scalar input.
The bounded control law is designed in special coordinates in which the
system matrix is strictly upper triangular with theta-power entries and the
input matrix is all ones; the chain is mapped there by a similarity
transformation T with x = T @ xbar.

The exact canonical matrix Abar, in Fractions of the (exact binary) theta,
is built once per player and everything else is read from it: T comes from
a backward recurrence on the similarity equations, T^-1 is the canonical
controllability matrix Abar^k 1 with its columns reversed, and the float
canonical matrix is its projection. T is not found by inverting the
controllability matrix: that matrix becomes numerically singular long
before order 6 at small theta, while the exact recurrence holds for any
representable theta (the intertwiner matching both canonical matrices and
input vectors is unique for controllable single-input pairs). The float64
projections stored alongside are what the integrator uses; the exact
entries are kept so the similarity identities can be certified without
rounding. The package itself never checks them: ``similarity_residual`` in
``tests/oracles.py`` does, in Fractions, against a canonical matrix written
there from its definition rather than read from :func:`_exact_abar`
(``test_dynamics`` and acceptance criterion 4).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.typing import NDArray

from .errors import SingularTransformError

__all__ = [
    "PlayerSpec",
    "Transformation",
    "build_transformation",
    "gain_row",
    "max_control_bound",
    "delta_for_limit",
    "FORM_STANDARD",
    "FORM_ALTERNATE",
]

FORM_STANDARD = "standard"
FORM_ALTERNATE = "alternate"

# build_transformation works in exact Fractions, whose cost climbs steeply
# with the order: at theta 0.45 one build took 117 ms at order 20, 381 ms at
# 25 and 1.1 s at 30 (median of 5, one core of a 2-vCPU VM), and order 60
# had not finished after 100 s. A run builds one per distinct player, so the
# cap keeps each build near a tenth of a second.
MAX_ORDER = 20


def _column_coeffs(m: int, theta, form: str) -> dict:
    """Per 1-based column: above-diagonal canonical value (l >= 2), innermost gain (l = 1).

    Generic in the number type: Fractions give T exactly, floats the gains.
    """
    if form == FORM_STANDARD:
        return {l: theta ** (m - l + 1) for l in range(1, m + 1)}
    if form == FORM_ALTERNATE:
        return {l: theta for l in range(1, m + 1)}
    raise ValueError(f"form must be {FORM_STANDARD!r} or {FORM_ALTERNATE!r}, got {form!r}")


def _exact_abar(m: int, theta: Fraction, form: str) -> NDArray[np.object_]:
    """Canonical system matrix in exact Fractions, the one source of its entries.

    Strictly upper triangular with constant columns: theta^(m-l+1) above the
    diagonal of column l in the standard form, theta everywhere above it in
    the alternate form.
    """
    abar = np.full((m, m), Fraction(0), dtype=object)
    for l, val in _column_coeffs(m, theta, form).items():
        abar[: l - 1, l - 1] = val
    return abar


def check_order_and_form(order, form) -> None:
    """Raise ValueError unless order is an integer from 1 to :data:`MAX_ORDER` and form is known.

    A bool is not an order. Both :class:`PlayerSpec` and the config parser
    state their order and form rules through this one check.
    """
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool) or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds the cap of {MAX_ORDER}")
    if form not in (FORM_STANDARD, FORM_ALTERNATE):
        raise ValueError(f"form must be {FORM_STANDARD!r} or {FORM_ALTERNATE!r}, got {form!r}")


def spec_verdicts(
    order: int, theta: float, delta: float, u_limit: float, form: str, allow_large_theta: bool
) -> list[tuple[str, bool, str]]:
    """The gain-range and actuator-bound rules of :class:`PlayerSpec` as ``(name, holds, detail)``.

    theta must lie in (0, 1/2), the range the convergence guarantee covers,
    or in [1/2, 1) under ``allow_large_theta``. delta and u_limit must be
    positive, and the certified bound :func:`max_control_bound` of the
    player's form must meet u_limit, up to relative rounding. ``check``
    prints these verdicts and PlayerSpec raises on the first that fails.
    """
    in_range = 0.0 < theta < 0.5
    override = not in_range and allow_large_theta and 0.0 < theta < 1.0
    bound = max_control_bound(order, theta, delta, form)
    positive = delta > 0 and u_limit > 0
    return [
        (
            "theta-range",
            in_range or override,
            f"theta = {theta:.6g}, design range (0, 0.5)" + (" [override]" if override else ""),
        ),
        (
            "actuator-bound",
            positive and bound <= u_limit + 1e-12 * max(1.0, u_limit),
            f"certified delta * sum(gain_row) = {bound:.6g} vs limit {u_limit:.6g}"
            + ("" if positive else " (delta and u_limit must be positive)"),
        ),
    ]


@dataclass(frozen=True)
class PlayerSpec:
    """Per-player design parameters.

    order runs from 1 to :data:`MAX_ORDER`; theta, delta and u_limit must
    pass :func:`spec_verdicts`. theta is held below 1/2 because the
    boundedness argument for the tail states needs theta/(1-theta) < 1;
    under ``allow_large_theta`` a theta in [1/2, 1) runs with a warning,
    since the convergence guarantee is void there. The limit defaults to
    delta, which the standard form always meets when theta < 1/2 and the
    alternate form only when m * theta <= 1.
    """

    order: int
    theta: float
    delta: float
    u_limit: float | None = None
    form: str = FORM_STANDARD
    allow_large_theta: bool = False

    def __post_init__(self):
        check_order_and_form(self.order, self.form)
        object.__setattr__(self, "order", int(self.order))
        if self.u_limit is None:
            object.__setattr__(self, "u_limit", float(self.delta))
        verdicts = spec_verdicts(
            self.order, self.theta, self.delta, self.u_limit, self.form, self.allow_large_theta
        )
        for name, holds, detail in verdicts:
            if not holds:
                raise ValueError(f"{name}: {detail}")
        if self.theta >= 0.5:  # admitted by the override
            warnings.warn(
                f"theta = {self.theta} >= 0.5: tail-state boundedness and the "
                "convergence guarantee no longer hold",
                RuntimeWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class Transformation:
    """Coordinate change x = t_matrix @ xbar for one player.

    ``exact_t`` / ``exact_t_inverse`` hold the entries as Fractions of the
    (exact binary) theta; the float arrays are their rounded projections.
    ``a_bar`` is the canonical system matrix the control law is stated in;
    its input vector is all ones.
    """

    order: int
    theta: float
    form: str
    t_matrix: NDArray[np.float64] = field(repr=False)
    t_inverse: NDArray[np.float64] = field(repr=False)
    a_bar: NDArray[np.float64] = field(repr=False)
    exact_t: tuple[tuple[Fraction, ...], ...] = field(repr=False)
    exact_t_inverse: tuple[tuple[Fraction, ...], ...] = field(repr=False)


def _exact_t(abar: NDArray[np.object_]) -> NDArray[np.object_]:
    """T from the similarity equations A T = T Abar and T 1 = e_m, last row first.

    Row m is e_m; above it, the shifted-row identity
    T[k+1, l] = Abar[0, l] * (sum of row k before column l) gives row k's
    prefix sums, and the zero row sum closes the last entry.
    """
    m = len(abar)
    t = np.full((m, m), Fraction(0), dtype=object)
    t[m - 1, m - 1] = Fraction(1)
    zero = np.array([Fraction(0)], dtype=object)
    for k in range(m - 2, -1, -1):
        prefix = np.concatenate([zero, t[k + 1, 1:] / abar[0, 1:], zero])
        t[k] = np.diff(prefix)
    return t


def build_transformation(spec: PlayerSpec) -> Transformation:
    """Exact coordinate change for one player.

    T^-1 is the canonical controllability matrix [Abar^(m-1) 1, ..., Abar 1, 1]:
    T = R(chain) R(canonical)^-1, and R(chain), the column-reversed
    identity, is its own inverse.
    """
    m = spec.order
    abar = _exact_abar(m, Fraction(spec.theta), spec.form)
    t = _exact_t(abar)
    krylov = [np.full(m, Fraction(1), dtype=object)]
    for _ in range(m - 1):
        krylov.append(abar @ krylov[-1])
    t_inv = np.column_stack(krylov[::-1])
    try:
        # float() of each entry; an entry beyond double range overflows
        t_f, tinv_f, abar_f = t.astype(float), t_inv.astype(float), abar.astype(float)
    except OverflowError:
        raise SingularTransformError(m, spec.theta) from None
    return Transformation(
        order=m,
        theta=spec.theta,
        form=spec.form,
        t_matrix=t_f,
        t_inverse=tinv_f,
        a_bar=abar_f,
        exact_t=tuple(map(tuple, t)),
        exact_t_inverse=tuple(map(tuple, t_inv)),
    )


def gain_row(order: int, theta: float, form: str = FORM_STANDARD) -> list[float]:
    """Gains of the saturated law on sat(xbar_1 + p eta), sat(xbar_2), ..., sat(xbar_m).

    theta^m, ..., theta (standard form), all theta (alternate form), [1.0] at
    order 1. Callers sum and multiply it in ascending powers (``row[::-1]``),
    the order that keeps runs bit-identical to the term-by-term laws.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order == 1:
        return [1.0]
    return list(_column_coeffs(order, theta, form).values())


def _gain_sum(m: int, theta: float, form: str) -> float:
    """sum(gain_row) in ascending powers; inf when a power of |theta| > 1 overflows."""
    try:
        return sum(gain_row(m, theta, form)[::-1])
    except OverflowError:
        return math.inf


def max_control_bound(m: int, theta: float, delta: float, form: str = FORM_STANDARD) -> float:
    """Certified |u| bound of the saturated law, delta * sum(gain_row(m, theta, form)).

    sum_k theta^k * delta for the standard form, m * theta * delta for the
    alternate form, delta at order 1.
    """
    return float(_gain_sum(m, theta, form) * delta)


def delta_for_limit(
    m: int, theta: float, u_limit: float, margin: float = 1.0, form: str = FORM_STANDARD
) -> float:
    """Largest delta (scaled by margin) whose :func:`max_control_bound` meets u_limit."""
    if not 0 < margin <= 1:
        raise ValueError(f"margin must lie in (0, 1], got {margin}")
    if u_limit <= 0:
        raise ValueError(f"u_limit must be positive, got {u_limit}")
    total = _gain_sum(m, theta, form)
    if total == 0:
        raise ValueError(
            f"the gain row of order {m} at theta {theta:.6g} sums to 0: every delta "
            "meets u_limit, so there is no largest one"
        )
    return float(margin * u_limit / total)
