"""Digraph model, Laplacians, and connectivity checks."""

import warnings

import numpy as np
import pytest

from nashseek import (
    Digraph,
    cycle_digraph,
    is_strongly_connected,
    laplacian,
    pinning_diagnostic,
)
from conftest import random_strongly_connected


def closure_strongly_connected(weights: np.ndarray) -> bool:
    """Floyd-Warshall transitive closure; independent connectivity oracle."""
    reach = weights > 0
    n = reach.shape[0]
    reach = reach | np.eye(n, dtype=bool)
    for k in range(n):
        reach = reach | (reach[:, k : k + 1] & reach[k : k + 1, :])
    return bool(reach.all())


class TestDigraph:
    def test_cycle_structure(self):
        g = cycle_digraph(3)
        # each node listens to its predecessor only
        np.testing.assert_allclose(
            g.weights, [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
        )
        assert g.n == 3
        assert np.flatnonzero(g.weights[0]).tolist() == [2]
        assert not g.symmetric

    def test_symmetrized_cycle(self):
        w = cycle_digraph(4).weights
        g = Digraph(weights=w + w.T)
        assert g.symmetric
        assert np.flatnonzero(g.weights[0]).tolist() == [1, 3]

    def test_validation(self):
        with pytest.raises(ValueError):
            Digraph(weights=np.ones((2, 3)))
        with pytest.raises(ValueError):
            Digraph(weights=np.array([[0.0, 1.0], [-1.0, 0.0]]))
        with pytest.raises(ValueError):
            Digraph(weights=np.array([[1.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            Digraph(weights=np.zeros((1, 1)))

    def test_weights_frozen(self):
        g = cycle_digraph(3)
        with pytest.raises(ValueError):
            g.weights[0, 0] = 5.0


class TestLaplacian:
    def test_three_cycle(self):
        lap = laplacian(cycle_digraph(3))
        np.testing.assert_allclose(lap, [[1, 0, -1], [-1, 1, 0], [0, -1, 1]])
        # row sums of a Laplacian vanish
        np.testing.assert_allclose(lap.sum(axis=1), np.zeros(3), atol=0)

    def test_pinned_diagnostic_matches_dense_oracle(self, rng):
        # the full n^2 x n^2 pinned matrix, row-major like the estimate matrix
        for n in range(2, 11):
            g = random_strongly_connected(n, rng)
            w = g.weights
            lap = np.diag(w.sum(axis=1)) - w
            pinned = np.kron(lap, np.eye(n)) + np.diag(w.ravel())
            diag = pinning_diagnostic(g)
            want_eig = np.linalg.eigvals(pinned).real.min()
            assert diag.min_real_eig == pytest.approx(want_eig, rel=1e-9)
            assert diag.condition == pytest.approx(np.linalg.cond(pinned), rel=1e-9)
            assert diag.nonsingular
        # one-way chain: column 2 is pinned nowhere, so its block is singular
        w = np.zeros((3, 3))
        w[1, 0] = 1.0
        w[2, 1] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            diag = pinning_diagnostic(Digraph(weights=w))
        assert diag.nonsingular is False

    def test_pinning_diagnostic_two_cycle(self):
        diag = pinning_diagnostic(cycle_digraph(2))
        assert diag.min_real_eig == pytest.approx((3.0 - np.sqrt(5.0)) / 2.0, abs=1e-9)
        assert diag.nonsingular

    def test_unpinned_laplacian_is_singular_alone(self):
        # without the pinning diagonal the Laplacian itself has eigenvalue 0
        lap = laplacian(cycle_digraph(4))
        eigs = np.linalg.eigvals(lap)
        assert np.abs(eigs).min() < 1e-12


class TestConnectivity:
    def test_cycle_is_strongly_connected(self):
        for n in (2, 3, 6):
            assert is_strongly_connected(cycle_digraph(n))

    def test_one_way_chain_is_not(self):
        w = np.zeros((3, 3))
        w[1, 0] = 1.0
        w[2, 1] = 1.0
        assert not is_strongly_connected(Digraph(weights=w))

    def test_agrees_with_closure_oracle(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 7))
            w = (rng.random((n, n)) < 0.35).astype(float)
            np.fill_diagonal(w, 0.0)
            if not w.any():
                continue
            g = Digraph(weights=w)
            assert is_strongly_connected(g) == closure_strongly_connected(w)
        # sparse digraphs up to n = 40, alone and over a directed cycle, whose
        # paths of up to n - 1 arcs take up to six squarings to cover
        for n in range(7, 41):
            cycle = cycle_digraph(n).weights
            for p in (0.5 / n, 1.0 / n, 2.0 / n, 4.0 / n):
                w = (rng.random((n, n)) < p).astype(float)
                np.fill_diagonal(w, 0.0)
                for w in (w, np.maximum(w, cycle)):
                    g = Digraph(weights=w)
                    assert is_strongly_connected(g) == closure_strongly_connected(w)

    def test_random_generator_always_strongly_connected(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            g = random_strongly_connected(n, rng)
            assert is_strongly_connected(g)
            assert closure_strongly_connected(g.weights)
