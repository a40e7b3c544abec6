"""Shared helpers for test inputs: monotone games, strongly connected digraphs
and the benchmark's preflight inputs."""

import sys
from pathlib import Path

import numpy as np
import pytest

from nashseek import Digraph, QuadraticGame, is_strongly_connected


def random_monotone_game(n: int, rng: np.random.Generator) -> QuadraticGame:
    """Strongly monotone quadratic game with modulus at least 0.5.

    The symmetric part is built from an orthogonal conjugation of a
    positive diagonal, so its spectrum is known by construction; the skew
    part shifts no real symmetric eigenvalue.
    """
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sym = q @ np.diag(rng.uniform(0.5, 3.0, size=n)) @ q.T
    skew = rng.uniform(-0.5, 0.5, size=(n, n))
    skew = skew - skew.T
    offset = rng.uniform(-1.0, 1.0, size=n)
    return QuadraticGame(jacobian=sym + skew, offset=offset)


def skew_game(n: int = 8, scale: float = 1.0) -> QuadraticGame:
    """scale * (I + 10 (u v^T - v u^T)) with offset scale * 1, u = 1/sqrt(n), v = +-1/sqrt(n).

    Its modulus is scale and its skew part ten times larger; the row-norm
    step 0.9 * modulus / max_row_norm^2 does not contract on it.
    """
    u = np.full(n, 1.0 / np.sqrt(n))
    v = np.array([(-1.0) ** i for i in range(n)]) / np.sqrt(n)
    jac = scale * (np.eye(n) + 10.0 * (np.outer(u, v) - np.outer(v, u)))
    return QuadraticGame(jacobian=jac, offset=np.full(n, scale))


def random_strongly_connected(
    n: int,
    rng: np.random.Generator,
    extra_arc_prob: float = 0.3,
) -> Digraph:
    """Random cycle through a shuffled node order plus independent extra arcs.

    The embedded cycle already makes the graph strongly connected; the check
    at the end is a guard against future edits, not a rejection loop.
    """
    w = np.zeros((n, n))
    order = rng.permutation(n)
    for idx in range(n):
        receiver = order[(idx + 1) % n]
        sender = order[idx]
        w[receiver, sender] = 1.0
    extra = rng.random((n, n)) < extra_arc_prob
    extra &= ~np.eye(n, dtype=bool)
    w[extra & (w == 0)] = 1.0
    g = Digraph(w)
    if not is_strongly_connected(g):
        raise AssertionError("generator invariant violated: cycle core missing")
    return g


def preflight_inputs() -> list:
    """The inputs of pool entry 0 of the benchmark's preflight workload, N = 8 to 32."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads
    finally:
        sys.path.pop(0)
        sys.dont_write_bytecode = dont_write
    return workloads.pool_inputs("preflight", 0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Repeat the acceptance verdict lines where capture cannot hide them."""
    mod = sys.modules.get("test_acceptance")
    verdicts = getattr(mod, "VERDICTS", None)
    if verdicts:
        terminalreporter.section("acceptance verdicts")
        for line in verdicts:
            terminalreporter.write_line(line)
