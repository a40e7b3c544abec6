"""Game model, certificates, and the two equilibrium solvers."""

import numpy as np
import pytest

from nashseek import (
    ConvergenceError,
    IllConditionedGameError,
    MonotonicityError,
    QuadraticGame,
    check_game,
    ring_game,
    solve_nash_closed_form,
    solve_nash_gradient_play,
)
from conftest import random_monotone_game


class TestRingGame:
    def test_six_player_jacobian_row(self):
        game = ring_game(6)
        # row i couples player i to its cyclic successor only
        np.testing.assert_allclose(game.jacobian[0], [4.0, -2.0, 0, 0, 0, 0])
        np.testing.assert_allclose(game.jacobian[5], [-2.0, 0, 0, 0, 0, 4.0])
        np.testing.assert_allclose(game.offset, np.ones(6))

    def test_two_player_matrix(self):
        game = ring_game(2)
        np.testing.assert_allclose(game.jacobian, [[4.0, -2.0], [-2.0, 4.0]])

    def test_certificate_values(self):
        cert = check_game(ring_game(6))
        assert cert.monotonicity == pytest.approx(2.0, abs=1e-12)
        assert cert.lipschitz == pytest.approx(np.full(6, np.sqrt(20.0)), abs=1e-12)
        assert cert.strongly_monotone

    def test_gradient_values(self):
        game = ring_game(6)
        grad = lambda i, y: game.jacobian[i] @ y + game.offset[i]
        # 4 y_i - 2 y_{i+1} + 1 at three reference profiles
        assert grad(0, np.full(6, -0.5)) == pytest.approx(0.0)
        assert grad(2, np.zeros(6)) == pytest.approx(1.0)
        assert grad(5, np.ones(6)) == pytest.approx(3.0)

    def test_pseudo_gradient_stacks_gradients(self):
        game = ring_game(4)
        y = np.array([0.3, -1.2, 0.8, 2.0])
        expected = [game.jacobian[i] @ y + game.offset[i] for i in range(4)]
        np.testing.assert_allclose(game.pseudo_gradient(y), expected)

    def test_equilibrium_is_minus_half(self):
        y = solve_nash_closed_form(ring_game(6))
        np.testing.assert_allclose(y, np.full(6, -0.5), atol=1e-12)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ring_game(1)


class TestQuadraticGame:
    def test_diagonal_game_equilibrium(self):
        game = QuadraticGame(jacobian=2.0 * np.eye(3), offset=np.ones(3))
        np.testing.assert_allclose(solve_nash_closed_form(game), np.full(3, -0.5))

    def test_self_gradients_uses_own_rows(self):
        game = ring_game(3)
        profiles = np.array([[1.0, 0.0, 2.0], [0.5, -1.0, 0.0], [0.0, 0.0, 3.0]])
        expected = [game.jacobian[i] @ profiles[i] + game.offset[i] for i in range(3)]
        np.testing.assert_allclose(game.self_gradients(profiles), expected)

    def test_inputs_are_frozen_copies(self):
        jac = 2.0 * np.eye(2)
        game = QuadraticGame(jacobian=jac, offset=np.zeros(2))
        jac[0, 0] = 99.0
        assert game.jacobian[0, 0] == 2.0
        with pytest.raises(ValueError):
            game.jacobian[0, 0] = 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadraticGame(jacobian=np.ones((2, 3)), offset=np.ones(2))
        with pytest.raises(ValueError):
            QuadraticGame(jacobian=np.eye(2), offset=np.ones(3))
        with pytest.raises(ValueError):
            QuadraticGame(jacobian=np.array([[np.inf, 0], [0, 1.0]]), offset=np.zeros(2))

    def test_skew_game_not_strongly_monotone(self):
        game = QuadraticGame(
            jacobian=np.array([[0.0, 1.0], [-1.0, 0.0]]), offset=np.zeros(2)
        )
        cert = check_game(game)
        assert cert.monotonicity == pytest.approx(0.0, abs=1e-12)
        assert not cert.strongly_monotone


class TestSolvers:
    def test_gradient_play_matches_closed_form(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            game = random_monotone_game(n, rng)
            y_closed = solve_nash_closed_form(game)
            y_play = solve_nash_gradient_play(game)
            np.testing.assert_allclose(y_play, y_closed, atol=1e-8)

    def test_closed_form_residual_is_zero(self):
        game = ring_game(5)
        y = solve_nash_closed_form(game)
        assert np.abs(game.pseudo_gradient(y)).max() < 1e-12

    def test_gradient_play_requires_monotonicity(self):
        game = QuadraticGame(
            jacobian=np.array([[0.0, 1.0], [-1.0, 0.0]]), offset=np.ones(2)
        )
        with pytest.raises(MonotonicityError):
            solve_nash_gradient_play(game)

    def test_gradient_play_iteration_budget(self):
        game = ring_game(3)
        with pytest.raises(ConvergenceError):
            solve_nash_gradient_play(game, max_iters=3)

    def test_explicit_step_overrides_default(self):
        game = ring_game(3)
        y = solve_nash_gradient_play(game, step=0.05)
        np.testing.assert_allclose(y, np.full(3, -0.5), atol=1e-8)

    def test_singular_jacobian_rejected(self):
        game = QuadraticGame(jacobian=np.zeros((2, 2)), offset=np.ones(2))
        with pytest.raises(IllConditionedGameError):
            solve_nash_closed_form(game)
