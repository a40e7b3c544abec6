"""solve-ne on drawn strongly monotone games: exit 0, the closed form's answer, a clean stderr.

Each example builds J = 2**k (S + K) and offset 2**k r. S is symmetric
with its smallest eigenvalue, the modulus, equal to 1 and the rest drawn
up to ``spread``; K is skew with spectral norm ``ratio`` times the
modulus; k spans most of the double exponent range. Gradient play must
find a contracting step and stop on a residual relative to the offset at
every such scale, so its answer agrees with the closed form to 1e-6
relative, and nothing (no numpy warning either) reaches stderr.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nashseek.cli import main


def drawn_game(n: int, seed: int, ratio: float, spread: float, k: int):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sym = q @ np.diag(np.concatenate([[1.0], rng.uniform(1.0, spread, n - 1)])) @ q.T
    a = rng.standard_normal((n, n))
    skew = (a - a.T) * (ratio / np.linalg.norm(a - a.T, 2))
    return np.ldexp(sym + skew, k), np.ldexp(rng.uniform(-1.0, 1.0, n), k)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    ratio=st.floats(0.0, 10.0),
    spread=st.floats(1.0, 4.0),
    k=st.integers(-990, 990),
)
# the largest skew part at both ends of the scale range
@example(n=12, seed=0, ratio=10.0, spread=1.0, k=990)
@example(n=12, seed=0, ratio=10.0, spread=1.0, k=-990)
def test_solve_ne_matches_closed_form(n, seed, ratio, spread, k):
    jac, offset = drawn_game(n, seed, ratio, spread, k)
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "game.json"
        cfg.write_text(json.dumps({"game": {"jacobian": jac.tolist(), "offset": offset.tolist()}}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(["solve-ne", str(cfg)])
    assert code == 0, stderr.getvalue()
    assert stderr.getvalue() == "" and not caught, (stderr.getvalue(), caught)
    closed = np.linalg.solve(jac, -offset)
    deviation = float(stdout.getvalue().strip().splitlines()[-1].split(":")[1])
    assert deviation <= 1e-6 * np.abs(closed).max(), (deviation, closed)
