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
from conftest import preflight_inputs, random_strongly_connected
from oracles import pinning_diagnostic_reference


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


def random_digraph(n: int, rng: np.random.Generator, kind: int) -> Digraph:
    """A digraph on n nodes, over a shuffled cycle unless ``kind`` is 5.

    kind 0 and 5 give 0/1 weights, 1 lognormal weights, 2 weights spanning
    10^+-8, 3 weights spanning 10^+-3 at the scale 1e300 or 1e-300 (by n's
    parity), and 4 uniform weights cubed. Without the cycle the digraph is
    mostly not strongly connected, so some blocks are singular.
    """
    support = rng.random((n, n)) < rng.uniform(0.05, 0.6)
    if kind != 5:
        order = rng.permutation(n)
        support[order, np.roll(order, 1)] = True
    np.fill_diagonal(support, False)
    weights = {
        0: lambda: 1.0,
        1: lambda: rng.lognormal(0.0, 1.0, (n, n)),
        2: lambda: 10.0 ** rng.uniform(-8.0, 8.0, (n, n)),
        3: lambda: 10.0 ** rng.uniform(-3.0, 3.0, (n, n)) * (1e300 if n % 2 else 1e-300),
        4: lambda: rng.uniform(0.0, 1.0, (n, n)) ** 3,
        5: lambda: 1.0,
    }[kind]()
    return Digraph(weights=support * weights)


class TestPinningPruning:
    """The diagnostic eigensolves only the blocks that can hold the minimum."""

    def test_matches_every_block_eigensolved(self, rng):
        nonsingular = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(1000):
                g = random_digraph(int(rng.integers(2, 41)), rng, k % 6)
                got, want = pinning_diagnostic(g), pinning_diagnostic_reference(g)
                assert got.min_real_eig == want.min_real_eig, k
                assert got.condition == want.condition, k
                nonsingular += got.nonsingular
        # most draws are nonsingular, so the pruned path is what is tested
        assert nonsingular > 750

    def test_preflight_graph_eigensolves_fewer_blocks(self, monkeypatch):
        inp = preflight_inputs()[-1]
        g = Digraph(weights=np.array(inp.config["graph"]["weights"], dtype=float))
        assert g.n == 32
        diag, solved = eigensolved_blocks(g, monkeypatch)
        assert solved and sum(solved) < g.n
        assert diag == pinning_diagnostic_reference(g)

    def test_cycle_keeps_every_tied_block(self, monkeypatch):
        # every block of a cycle is a relabelling of the others: all tie
        g = cycle_digraph(12)
        diag, solved = eigensolved_blocks(g, monkeypatch)
        assert solved == [12]
        assert diag == pinning_diagnostic_reference(g)


def eigensolved_blocks(g: Digraph, monkeypatch) -> tuple:
    """The diagnostic of g and the number of blocks of each ``eigvals`` call it made."""
    solved, eigvals = [], np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: solved.append(len(a)) or eigvals(a))
    diag = pinning_diagnostic(g)
    monkeypatch.undo()
    return diag, solved


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
