"""Directed communication graphs and the induced coupling matrices.

Weight convention: ``weights[i, j] > 0`` means player i *receives* from
player j (j is an in-neighbor of i). Self-loops are forbidden. The
estimator analysis rests on two matrices derived from the weights:

* the directed Laplacian L = diag(row sums) - weights, and
* the pinned Laplacian kron(L, I_N) + diag(weights row-major), block
  diagonal up to a permutation with column-j block L + diag(weights[:, j]),
  L pinned at the in-neighbors of j. For a strongly connected digraph every
  node has an out-edge, so each block is a nonsingular M-matrix and the
  whole estimation loop is a contraction.

Each block A_j is a Z-matrix with non-negative row sums, so its eigenvalue
of least real part is real: tau_j = s - rho(s I - A_j) for any s at or above
its largest diagonal entry. When A_j is nonsingular, P_j = A_j^-1 >= 0 and
tau_j = 1 / rho(P_j), and for any positive x the Collatz-Wielandt ratios
r_i = (P_j x)_i / x_i bracket rho(P_j): 1 / max r <= tau_j <= 1 / min r.
A block whose lower end lies above another block's upper end cannot hold
the least tau, and no eigensolve is needed to know it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .game import _COND_LIMIT, _power_of_two_below

__all__ = [
    "Digraph",
    "PinningDiagnostic",
    "laplacian",
    "pinning_diagnostic",
    "is_strongly_connected",
    "cycle_digraph",
]


@dataclass(frozen=True)
class Digraph:
    """Weighted digraph over n >= 2 players, stored as an (n, n) matrix."""

    weights: NDArray[np.float64]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weight matrix must be square, got shape {w.shape}")
        if w.shape[0] < 2:
            raise ValueError("need at least 2 players")
        with np.errstate(over="ignore"):  # the row sums are the Laplacian's diagonal
            if not np.isfinite(w.sum(axis=1)).all():
                raise ValueError("weights and their row sums must be finite")
        if (w < 0).any():
            raise ValueError("weights must be non-negative")
        if np.diagonal(w).any():
            raise ValueError("self-loops are not allowed (diagonal must be zero)")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def symmetric(self) -> bool:
        return bool(np.array_equal(self.weights, self.weights.T))


@dataclass(frozen=True)
class PinningDiagnostic:
    """Spectral health of the pinned Laplacian."""

    min_real_eig: float
    condition: float

    @property
    def nonsingular(self) -> bool:
        return bool(np.isfinite(self.condition) and self.condition < _COND_LIMIT)


def laplacian(g: Digraph) -> NDArray[np.float64]:
    """Directed Laplacian L = diag(row sums) - weights."""
    w = g.weights
    return np.diag(w.sum(axis=1)) - w


def pinning_diagnostic(g: Digraph) -> PinningDiagnostic:
    """Spectral summary of the pinned estimator matrix of ``g``.

    A positive minimal real eigenvalue part with a finite, moderate
    condition number certifies that the consensus estimator's error
    dynamics are a contraction for strongly connected graphs. Solved over
    the n diagonal blocks stacked, O(n^4) instead of O(n^6) work.

    The condition number takes every block's singular values. When it is
    below the nonsingular limit, one stacked inverse of the blocks, divided
    by a power of two (exact), gives x = P_j 1 and the ratios
    (P_j x)_i / x_i that bracket each tau_j (module docstring). A block
    whose lower end exceeds the least upper end by a relative margin of
    1e-6, which covers the rounding of the inverse, cannot hold the minimum
    and skips the nonsymmetric eigensolve. The rest are eigensolved, so the
    minimum is LAPACK's own value for the block that holds it, bit for bit.
    Every block is eigensolved when a ratio is not finite and positive.
    """
    blocks = laplacian(g) + np.eye(g.n) * g.weights.T[:, None, :]
    sv = np.linalg.svd(blocks, compute_uv=False)
    condition = float(sv.max() / sv.min()) if sv.min() > 0 else float("inf")
    if condition < _COND_LIMIT:
        inv = np.linalg.inv(blocks / _power_of_two_below(blocks))
        x = inv.sum(axis=2)
        with np.errstate(all="ignore"):
            ratios = np.matmul(inv, x[..., None])[..., 0] / x
        if np.isfinite(ratios).all() and (ratios > 0).all():
            # keep j unless 1 / max r_j > (1 + 1e-6) / max_k min r_k
            blocks = blocks[ratios.max(axis=1) * (1.0 + 1e-6) >= ratios.min(axis=1).max()]
    return PinningDiagnostic(
        min_real_eig=float(np.linalg.eigvals(blocks).real.min()), condition=condition
    )


def is_strongly_connected(g: Digraph) -> bool:
    """Whether every node reaches every other, by squaring the reachability matrix.

    With R = (weight support | I) as 0/1 floats, R^k is positive exactly
    where a path of at most k arcs runs. Squaring R and clipping it at 1
    doubles k until it covers n - 1 arcs, the longest path without a repeated
    node, so the digraph is strongly connected exactly when no entry is
    zero. Entries stay small integers, which floats hold exactly.
    """
    reach = (g.weights > 0) + np.eye(g.n)
    span = 1
    while span < g.n - 1:
        reach = np.minimum(reach @ reach, 1.0)
        span *= 2
    return bool(reach.all())


def cycle_digraph(n: int) -> Digraph:
    """Directed n-cycle where player i receives from player i-1 (mod n)."""
    w = np.zeros((n, n))
    for i in range(n):
        w[i, (i - 1) % n] = 1.0
    return Digraph(w)

