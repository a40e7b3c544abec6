"""Player plants: integrator chains and the canonical coordinate change.

Each player is a chain of ``order`` integrators driven by a scalar input.
The bounded control law is designed in special coordinates in which the
system matrix is strictly upper triangular with theta-power entries and the
input matrix is all ones; the chain is mapped there by a similarity
transformation T with x = T @ xbar.

T is built by a backward recurrence over exact rationals rather than by
inverting the controllability matrix: the two characterizations coincide
(the intertwiner matching both canonical matrices and input vectors is
unique for controllable single-input pairs), but the controllability matrix
becomes numerically singular long before order 6 at small theta, while the
recurrence is exact for any representable theta. The float64 projections
stored alongside are what the integrator uses; the exact entries are kept
so the similarity identities can be certified without rounding.
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
    "canonical_a",
    "canonical_b",
    "PlayerSpec",
    "Transformation",
    "build_transformation",
    "similarity_residual",
    "output_coefficients",
    "gain_row",
    "max_control_bound",
    "delta_for_limit",
    "FORM_STANDARD",
    "FORM_ALTERNATE",
]

FORM_STANDARD = "standard"
FORM_ALTERNATE = "alternate"

# build_transformation works in exact Fractions, whose cost climbs steeply
# with the order: at theta 0.45 one build took 204 ms at order 20, 650 ms at
# 25 and 1.5 s at 30, and order 60 had not finished after 100 s. A run
# builds one per player, so the cap keeps each build near a fifth of a
# second.
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


def canonical_a(m: int, theta: float, form: str = FORM_STANDARD) -> NDArray[np.float64]:
    """Canonical system matrix: strictly upper triangular, constant columns.

    Standard form puts theta^(m-l+1) in column l above the diagonal; the
    alternate form puts theta everywhere above the diagonal.
    """
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    coeffs = _column_coeffs(m, Fraction(theta), form)
    a = np.zeros((m, m))
    for l, val in coeffs.items():
        a[: l - 1, l - 1] = float(val)
    return a


def canonical_b(m: int) -> NDArray[np.float64]:
    """Canonical input vector: all ones."""
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    return np.ones(m)


def theta_in_design_range(theta: float) -> bool:
    """Whether theta lies in (0, 1/2), the range the convergence guarantee covers."""
    return 0.0 < theta < 0.5


def order_within_cap(order: int) -> bool:
    """Whether an order is at most :data:`MAX_ORDER`, the largest one built in bounded time."""
    return order <= MAX_ORDER


def bound_within_limit(bound: float, u_limit: float) -> bool:
    """Whether a certified control bound meets the actuator limit, up to relative rounding."""
    return bound <= u_limit + 1e-12 * max(1.0, u_limit)


@dataclass(frozen=True)
class PlayerSpec:
    """Per-player design parameters.

    order runs from 1 to :data:`MAX_ORDER`.

    theta must lie in (0, 1/2): the boundedness argument for the tail states
    needs theta/(1-theta) < 1. Values in [1/2, 1) are admitted only with
    ``allow_large_theta`` and a warning, since the convergence guarantee is
    void there. The control bound :func:`max_control_bound` of the player's
    own form, delta times the sum of its :func:`gain_row` (delta itself at
    order 1, m * theta * delta for the alternate form), must not exceed the
    actuator limit ``u_limit``. The limit defaults to delta, which the
    standard form always meets when theta < 1/2 and the alternate form only
    when m * theta <= 1.
    """

    order: int
    theta: float
    delta: float
    u_limit: float | None = None
    form: str = FORM_STANDARD
    allow_large_theta: bool = False

    def __post_init__(self):
        if not isinstance(self.order, (int, np.integer)) or self.order < 1:
            raise ValueError(f"order must be a positive integer, got {self.order!r}")
        object.__setattr__(self, "order", int(self.order))
        if not order_within_cap(self.order):
            raise ValueError(f"order {self.order} exceeds the cap of {MAX_ORDER}")
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")
        if not theta_in_design_range(self.theta):
            if not self.allow_large_theta:
                raise ValueError(
                    f"theta = {self.theta} is outside the guaranteed range (0, 0.5); "
                    "pass allow_large_theta=True to run anyway"
                )
            warnings.warn(
                f"theta = {self.theta} >= 0.5: tail-state boundedness and the "
                "convergence guarantee no longer hold",
                RuntimeWarning,
                stacklevel=2,
            )
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.u_limit is None:
            object.__setattr__(self, "u_limit", float(self.delta))
        elif self.u_limit <= 0:
            raise ValueError(f"u_limit must be positive, got {self.u_limit}")
        if self.form not in (FORM_STANDARD, FORM_ALTERNATE):
            raise ValueError(
                f"form must be {FORM_STANDARD!r} or {FORM_ALTERNATE!r}, got {self.form!r}"
            )
        bound = max_control_bound(self.order, self.theta, self.delta, self.form)
        if not bound_within_limit(bound, self.u_limit):
            raise ValueError(
                f"control bound delta*sum(gain_row) = {bound:.6g} exceeds the "
                f"actuator limit u_limit = {self.u_limit:.6g}; shrink delta "
                f"(e.g. via delta_for_limit) or raise the limit"
            )


@dataclass(frozen=True)
class Transformation:
    """Coordinate change x = t_matrix @ xbar for one player.

    ``exact_t`` / ``exact_t_inverse`` hold the entries as Fractions of the
    (exact binary) theta; the float arrays are their rounded projections.
    ``a_bar``/``b_bar`` are the canonical pair the control law is stated in.
    """

    order: int
    theta: float
    form: str
    t_matrix: NDArray[np.float64] = field(repr=False)
    t_inverse: NDArray[np.float64] = field(repr=False)
    a_bar: NDArray[np.float64] = field(repr=False)
    b_bar: NDArray[np.float64] = field(repr=False)
    exact_t: tuple[tuple[Fraction, ...], ...] = field(repr=False)
    exact_t_inverse: tuple[tuple[Fraction, ...], ...] = field(repr=False)


def _exact_t_rows(m: int, theta: Fraction, form: str) -> list[list[Fraction]]:
    """Rows of T from the similarity equations, built last row first.

    Row m must be (0, ..., 0, 1); above it, the shifted-row identity
    T[k+1, l] = c_l * (prefix sum of row k through column l-1) determines
    row k's prefix sums, and the zero row sum closes the last entry.
    """
    coeffs = _column_coeffs(m, theta, form)
    rows = [[Fraction(0)] * m for _ in range(m)]
    rows[m - 1][m - 1] = Fraction(1)
    for k in range(m - 2, -1, -1):
        prefix = [Fraction(0)] * (m + 2)  # prefix[l] = sum of row k before column l
        for l in range(2, m + 1):
            prefix[l] = rows[k + 1][l - 1] / coeffs[l]
        for l in range(1, m + 1):
            rows[k][l - 1] = prefix[l + 1] - prefix[l]
    return rows


def _exact_t_inverse_rows(m: int, theta: Fraction, form: str) -> list[list[Fraction]]:
    """T^-1 = (canonical controllability matrix) with columns reversed.

    Follows from T = R(chain) @ R(canonical)^-1 and R(chain) being the
    column-reversed identity, which is its own inverse.
    """
    coeffs = _column_coeffs(m, theta, form)
    a_rows = [
        [coeffs[l + 1] if l > k else Fraction(0) for l in range(m)] for k in range(m)
    ]
    cols = [[Fraction(1)] * m]
    for _ in range(m - 1):
        prev = cols[-1]
        cols.append([sum(a_rows[k][j] * prev[j] for j in range(m)) for k in range(m)])
    return [[cols[m - 1 - j][k] for j in range(m)] for k in range(m)]


def _to_float(rows: list[list[Fraction]]) -> NDArray[np.float64]:
    return np.array([[float(x) for x in row] for row in rows])


def build_transformation(spec: PlayerSpec) -> Transformation:
    """Exact coordinate change for one player; order 1 degenerates to T = [1]."""
    m = spec.order
    theta = Fraction(spec.theta)
    if m == 1:
        one = ((Fraction(1),),)
        eye = np.ones((1, 1))
        return Transformation(
            order=1,
            theta=spec.theta,
            form=spec.form,
            t_matrix=eye.copy(),
            t_inverse=eye.copy(),
            a_bar=np.zeros((1, 1)),
            b_bar=np.ones(1),
            exact_t=one,
            exact_t_inverse=one,
        )
    t_rows = _exact_t_rows(m, theta, spec.form)
    tinv_rows = _exact_t_inverse_rows(m, theta, spec.form)
    try:
        t_f = _to_float(t_rows)
        tinv_f = _to_float(tinv_rows)
    except OverflowError:
        raise SingularTransformError(m, spec.theta) from None
    return Transformation(
        order=m,
        theta=spec.theta,
        form=spec.form,
        t_matrix=t_f,
        t_inverse=tinv_f,
        a_bar=canonical_a(m, spec.theta, spec.form),
        b_bar=canonical_b(m),
        exact_t=tuple(tuple(row) for row in t_rows),
        exact_t_inverse=tuple(tuple(row) for row in tinv_rows),
    )


def similarity_residual(tr: Transformation) -> tuple[float, float]:
    """Exact max-norm residuals of A T - T Abar and B - T Bbar.

    Evaluated over the rational entries, so the returned values measure the
    construction itself, with no float rounding in the check. Both are zero
    for every transformation this module builds; the function exists so that
    tests certify that instead of assuming it.
    """
    m = tr.order
    theta = Fraction(tr.theta)
    coeffs = _column_coeffs(m, theta, tr.form)
    t = tr.exact_t
    res_a = Fraction(0)
    for k in range(m):
        for l in range(m):
            shifted = t[k + 1][l] if k < m - 1 else Fraction(0)
            canon = coeffs[l + 1] * sum(t[k][j] for j in range(l)) if l >= 1 else Fraction(0)
            res_a = max(res_a, abs(shifted - canon))
    res_b = Fraction(0)
    for k in range(m):
        want = Fraction(1) if k == m - 1 else Fraction(0)
        res_b = max(res_b, abs(sum(t[k]) - want))
    return float(res_a), float(res_b)


def output_coefficients(tr: Transformation) -> NDArray[np.float64]:
    """First row of T: the player's output y = x_1 written in bar coordinates."""
    return tr.t_matrix[0].copy()


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
