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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "Digraph",
    "PinningDiagnostic",
    "laplacian",
    "pinning_diagnostic",
    "is_strongly_connected",
    "cycle_digraph",
]

_COND_LIMIT = 1e12


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
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
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

    def in_neighbors(self, i: int) -> NDArray[np.int_]:
        """Indices j that player i receives from (weights[i, j] > 0)."""
        return np.flatnonzero(self.weights[i] > 0)

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
    """
    blocks = laplacian(g) + np.eye(g.n) * g.weights.T[:, None, :]
    eigs = np.linalg.eigvals(blocks)
    sv = np.linalg.svd(blocks, compute_uv=False)
    return PinningDiagnostic(
        min_real_eig=float(eigs.real.min()),
        condition=float(sv.max() / sv.min()) if sv.min() > 0 else float("inf"),
    )


def _reachable(adj: NDArray[np.bool_], start: int) -> NDArray[np.bool_]:
    """Nodes reachable from ``start`` following edges adj[source, target]."""
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nxt in np.flatnonzero(adj[node] & ~seen):
            seen[nxt] = True
            frontier.append(nxt)
    return seen


def is_strongly_connected(g: Digraph) -> bool:
    """Two reachability sweeps from node 0: forward and along reversed edges.

    Information flows j -> i when weights[i, j] > 0, so the forward edge
    relation is the transpose of the weight support. Strong connectivity of
    a digraph is equivalent to node 0 reaching everything and everything
    reaching node 0.
    """
    support = g.weights > 0
    forward = _reachable(support.T, 0)
    backward = _reachable(support, 0)
    return bool(forward.all() and backward.all())


def cycle_digraph(n: int) -> Digraph:
    """Directed n-cycle where player i receives from player i-1 (mod n)."""
    w = np.zeros((n, n))
    for i in range(n):
        w[i, (i - 1) % n] = 1.0
    return Digraph(w)

