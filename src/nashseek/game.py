"""Quadratic games: gradients, regularity certificates, and Nash solvers.

A game couples N cost functions f_i(y) through a shared action profile
y in R^N (one scalar action per player). Only own-action partial gradients
matter downstream, so the interface is gradient evaluation, not cost
evaluation. The stacked gradient (pseudo-gradient) of a quadratic game is
affine, F(y) = R y + r, which makes the Nash equilibrium the root of a
linear system and gives two independent solution routes: a direct solve and
damped gradient-play iteration. The pair is used as a cross-checking
oracle throughout the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import ConvergenceError, IllConditionedGameError, MonotonicityError

__all__ = [
    "QuadraticGame",
    "GameCertificate",
    "check_game",
    "solve_nash_closed_form",
    "solve_nash_gradient_play",
    "ring_game",
]

# the largest condition number the closed-form solve and the pinned-Laplacian
# diagnostic accept
_COND_LIMIT = 1e12
# gradient play's iterations per residual test
_GRADIENT_PLAY_BLOCK = 64


@dataclass(frozen=True)
class QuadraticGame:
    """Game whose pseudo-gradient is the affine map y -> jacobian @ y + offset.

    ``jacobian[i, j]`` is the sensitivity of player i's own-action gradient
    to player j's action. The matrix need not be symmetric.
    """

    jacobian: NDArray[np.float64]
    offset: NDArray[np.float64]

    def __post_init__(self):
        jac = np.asarray(self.jacobian, dtype=float)
        off = np.asarray(self.offset, dtype=float).ravel()
        if jac.ndim != 2 or jac.shape[0] != jac.shape[1]:
            raise ValueError(f"jacobian must be square, got shape {jac.shape}")
        if off.shape[0] != jac.shape[0]:
            raise ValueError(
                f"offset length {off.shape[0]} does not match jacobian size {jac.shape[0]}"
            )
        if not (np.isfinite(jac).all() and np.isfinite(off).all()):
            raise ValueError("game coefficients must be finite")
        jac = jac.copy()
        off = off.copy()
        jac.flags.writeable = False
        off.flags.writeable = False
        object.__setattr__(self, "jacobian", jac)
        object.__setattr__(self, "offset", off)

    @property
    def n_players(self) -> int:
        return self.offset.shape[0]

    def pseudo_gradient(self, y: NDArray[np.floating]) -> NDArray[np.float64]:
        """Stacked own-action gradients, all evaluated at the same profile y."""
        y = np.asarray(y, dtype=float)
        return self.jacobian @ y + self.offset


@dataclass(frozen=True)
class GameCertificate:
    """Regularity constants of a quadratic game.

    ``monotonicity`` is the smallest eigenvalue of the symmetrized gradient
    Jacobian; positive means the pseudo-gradient is strongly monotone and
    the Nash equilibrium exists and is unique. ``lipschitz[i]`` bounds how
    fast player i's gradient can change across profiles (row 2-norm).
    """

    monotonicity: float
    lipschitz: NDArray[np.float64] = field(repr=False)

    @property
    def strongly_monotone(self) -> bool:
        return self.monotonicity > 0.0


def check_game(game: QuadraticGame) -> GameCertificate:
    """Compute the monotonicity modulus and per-player Lipschitz constants.

    The symmetric part of the Jacobian is formed explicitly before the
    eigensolve, so nearly-symmetric input needs no tolerance decision; it
    sums exact halves, which cannot overflow. The row norms are those of
    the Jacobian scaled by a power of two, which is exact, so they neither
    underflow to 0 for tiny entries nor overflow for huge finite ones; a
    norm beyond double range reads inf, without a warning. A non-positive
    modulus is reported, not raised: some callers only want the numbers,
    and the simulator records the violation instead of dying.
    """
    jac = game.jacobian
    sym = 0.5 * jac + 0.5 * jac.T
    modulus = float(np.linalg.eigvalsh(sym)[0])
    scale = _power_of_two_below(jac)
    with np.errstate(over="ignore"):
        lips = np.linalg.norm(jac / scale, axis=1) * scale
    return GameCertificate(monotonicity=modulus, lipschitz=lips)


def solve_nash_closed_form(game: QuadraticGame) -> NDArray[np.float64]:
    """Nash equilibrium as the root of jacobian @ y + offset = 0.

    Raises :class:`IllConditionedGameError` when the Jacobian is numerically
    singular, which is how an (undetected) monotonicity violation usually
    surfaces here.
    """
    cond = float(np.linalg.cond(game.jacobian))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise IllConditionedGameError(cond)
    y = np.linalg.solve(game.jacobian, -game.offset)
    residual = np.abs(game.pseudo_gradient(y)).max()
    scale = max(1.0, float(np.abs(game.offset).max()))
    if residual > 1e-10 * scale:
        raise IllConditionedGameError(cond)
    return y


def _power_of_two_below(a: NDArray[np.float64]) -> float:
    """The power of two at or below max |a_ij|; dividing by it is exact."""
    return float(np.ldexp(1.0, np.frexp(np.abs(a).max())[1] - 1))


def _spectral_step(jac: NDArray[np.float64]) -> tuple[float, float]:
    """The step s that minimizes rho(I - s J) = max_k |1 - s lambda_k|, and that rho.

    phi(s) = max_k |1 - s lambda_k|^2 = 1 + s max_k (|lambda_k|^2 s - 2 Re lambda_k)
    is convex, so its minimizer is one eigenvalue's own minimizer
    Re lambda_k / |lambda_k|^2 or a crossing 2 (Re lambda_i - Re lambda_j) /
    (|lambda_i|^2 - |lambda_j|^2) of two of them; the positive candidate with
    the smallest phi is taken. The eigenvalues are those of J scaled by a
    power of two, so |lambda|^2 neither overflows nor underflows; the step is
    scaled back, and reads inf where it is beyond double range. With no
    positive candidate it returns (0, 1).
    """
    scale = _power_of_two_below(jac)
    lam = np.linalg.eigvals(jac / scale)
    # J is real: a conjugate pair has one |1 - s lambda| for every real s
    lam = lam[lam.imag >= 0]
    re, sq = lam.real, np.abs(lam) ** 2
    i, j = np.triu_indices(lam.size, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cands = np.concatenate([re / sq, 2.0 * (re[i] - re[j]) / (sq[i] - sq[j])])
    cands = cands[np.isfinite(cands) & (cands > 0)]
    if not cands.size:
        return 0.0, 1.0
    # max_k |1 - s lambda_k| at every candidate s, about 2**20 entries at a time
    slabs = np.array_split(cands, -(-cands.size * lam.size // 2**20))
    rho = np.concatenate([np.abs(1.0 - np.multiply.outer(s, lam)).max(axis=1) for s in slabs])
    best = int(np.argmin(rho))
    with np.errstate(over="ignore"):
        return float(cands[best] / scale), float(rho[best])


def solve_nash_gradient_play(
    game: QuadraticGame, step: float | None = None, max_iters: int = 200_000
) -> NDArray[np.float64]:
    """Damped fixed-point iteration y <- y - step * F(y) from y = 0.

    The default step minimizes the spectral radius rho(I - step * J) over
    the eigenvalues of J (:func:`_spectral_step`). For an affine map the
    iteration converges exactly when that radius is below 1, which the
    strongly monotone games that pass :func:`check_game` allow in exact
    arithmetic; where it is not below 1 in floating point,
    :class:`ConvergenceError` is raised before any iteration. It stops at
    the first iterate whose gradient satisfies
    ||F(y)||_inf <= 1e-10 * ||offset||_inf, a test relative to the game's
    scale that certifies the answer independently of the step; with a zero
    offset it returns y = 0 at once.

    The iterates are written in blocks of ``_GRADIENT_PLAY_BLOCK`` (64),
    and the residual test runs once per block over all of its gradients,
    so up to 63 iterations run past the stop. The first iterate whose
    gradient passes is returned: the same iterate, bit for bit, that a test
    after every iteration returns.
    """
    if step is None:
        cert = check_game(game)
        if not cert.strongly_monotone:
            raise MonotonicityError(cert.monotonicity)
        step, rho = _spectral_step(game.jacobian)
        if not (rho < 1.0 and np.isfinite(step)):
            raise ConvergenceError(
                float(np.abs(game.offset).max()), 0,
                f"gradient play cannot contract in double precision: the best step "
                f"{step:.3e} leaves rho(I - step * J) = {rho:.17g}",
            )
    jac, offset = game.jacobian, game.offset
    tol = 1e-10 * np.abs(offset).max()
    # row k of ys is the iterate whose gradient is row k of grads; row k + 1
    # is the next iterate, and the last row carries over to the next block
    ys = np.zeros((_GRADIENT_PLAY_BLOCK + 1, game.n_players))
    grads = np.empty((_GRADIENT_PLAY_BLOCK, game.n_players))
    scaled = np.empty(game.n_players)
    rows = list(zip(ys[:-1], grads, ys[1:]))
    done = 0
    while done < max_iters:
        count = min(_GRADIENT_PLAY_BLOCK, max_iters - done)
        for y, grad, nxt in rows[:count]:
            np.dot(jac, y, grad)
            np.add(grad, offset, grad)
            np.multiply(step, grad, scaled)
            np.subtract(y, scaled, nxt)
        hit = np.flatnonzero(np.abs(grads[:count]).max(axis=1) <= tol)
        if hit.size:
            return ys[hit[0]].copy()
        ys[0] = ys[count]
        done += count
    raise ConvergenceError(float(np.abs(game.pseudo_gradient(ys[0])).max()), max_iters)


def ring_game(n: int) -> QuadraticGame:
    """Cyclically coupled quadratic game used by the bundled reference scenario.

    Player i's cost is y_i^2 + y_i + (y_i - y_{i+1})^2 with the successor
    index wrapping around, so the gradient is 4 y_i - 2 y_{i+1} + 1 and the
    equilibrium is y_i = -1/2 for every n >= 2.
    """
    if n < 2:
        raise ValueError(f"ring game needs at least 2 players, got {n}")
    succ = np.zeros((n, n))
    for i in range(n):
        succ[i, (i + 1) % n] = 1.0
    return QuadraticGame(jacobian=4.0 * np.eye(n) - 2.0 * succ, offset=np.ones(n))
