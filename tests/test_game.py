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
from nashseek.game import _spectral_step
from conftest import preflight_inputs, random_monotone_game, skew_game
from oracles import gradient_play_reference, self_gradients, spectral_step_reference


def preflight_games() -> list[QuadraticGame]:
    """The games of pool entry 0 of the benchmark's preflight workload."""
    return [
        QuadraticGame(
            jacobian=np.array(inp.config["game"]["jacobian"]),
            offset=np.array(inp.config["game"]["offset"]),
        )
        for inp in preflight_inputs()
    ]


def slow_ring(n: int) -> QuadraticGame:
    """I - 0.94 S with S the cyclic shift: at SLOW_STEP, gradient play takes thousands of iterations."""
    return QuadraticGame(
        jacobian=np.eye(n) - 0.94 * np.roll(np.eye(n), 1, axis=1), offset=np.ones(n)
    )


# rho(I - SLOW_STEP * J) = 0.9982 on slow_ring; its best step 1.0 gives 0.94
SLOW_STEP = 0.03


def at_package_step(game: QuadraticGame, **kwargs) -> np.ndarray:
    """The per-iteration reference run at the step the package picks by default."""
    return gradient_play_reference(game, step=_spectral_step(game.jacobian)[0], **kwargs)


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
        np.testing.assert_allclose(self_gradients(game, profiles), expected)

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
        # the default step solves ring_game(3) in about 35 iterations
        game = ring_game(3)
        with pytest.raises(ConvergenceError):
            solve_nash_gradient_play(game, step=0.05, max_iters=3)

    def test_explicit_step_overrides_default(self):
        game = ring_game(3)
        y = solve_nash_gradient_play(game, step=0.05)
        np.testing.assert_allclose(y, np.full(3, -0.5), atol=1e-8)

    def test_singular_jacobian_rejected(self):
        game = QuadraticGame(jacobian=np.zeros((2, 2)), offset=np.ones(2))
        with pytest.raises(IllConditionedGameError):
            solve_nash_closed_form(game)


class TestGradientPlayBlocks:
    """The blocked loop returns what a residual test after every iteration returns."""

    def test_preflight_games_match_reference(self):
        games = preflight_games()
        assert [g.n_players for g in games] == [8, 16, 24, 32]
        for game in games:
            assert np.array_equal(solve_nash_gradient_play(game), at_package_step(game))

    def test_random_games_match_reference(self, rng):
        for n in list(range(2, 41)) + [2, 3, 5, 7, 11, 17, 40]:
            game = random_monotone_game(n, rng)
            assert np.array_equal(solve_nash_gradient_play(game), at_package_step(game)), n

    def test_zero_offset_stops_at_the_start(self):
        game = QuadraticGame(jacobian=ring_game(5).jacobian, offset=np.zeros(5))
        y = solve_nash_gradient_play(game)
        assert np.array_equal(y, np.zeros(5))
        assert np.array_equal(y, gradient_play_reference(game))

    # an explicit small step: the default one solves slow_ring in under 400
    @pytest.mark.parametrize("max_iters", [0, 1, 3, 63, 64, 65, 128, 129, 255, 256, 257, 1000])
    def test_exhausted_budget_matches_reference(self, max_iters):
        game = slow_ring(6)
        with pytest.raises(ConvergenceError) as got:
            solve_nash_gradient_play(game, step=SLOW_STEP, max_iters=max_iters)
        with pytest.raises(ConvergenceError) as want:
            gradient_play_reference(game, step=SLOW_STEP, max_iters=max_iters)
        assert got.value.iterations == want.value.iterations == max_iters
        assert got.value.residual == want.value.residual
        assert str(got.value) == str(want.value)

    def test_stop_inside_a_later_block_matches_reference(self):
        # thousands of iterations at SLOW_STEP and hundreds at the default:
        # the stop lands past the first block
        game = slow_ring(6)
        assert np.array_equal(solve_nash_gradient_play(game), at_package_step(game))
        for step in (SLOW_STEP, 0.05, 0.3, 1.0):
            assert np.array_equal(
                solve_nash_gradient_play(game, step=step),
                gradient_play_reference(game, step=step),
            )

    def test_returned_array_is_not_a_buffer_view(self):
        y = solve_nash_gradient_play(ring_game(4))
        assert y.base is None and y.flags.writeable


class TestSpectralStep:
    """The default step minimizes rho(I - step * J), or gradient play raises up front."""

    def games(self, rng) -> list[QuadraticGame]:
        return preflight_games() + [skew_game(), slow_ring(6), ring_game(5)] + [
            random_monotone_game(n, rng) for n in (2, 3, 4, 7, 12)
        ]

    def test_step_matches_the_search(self, rng):
        for game in self.games(rng):
            step, rho = _spectral_step(game.jacobian)
            searched = spectral_step_reference(game)
            lam = np.linalg.eigvals(game.jacobian)
            assert rho == pytest.approx(np.abs(1.0 - step * lam).max(), abs=1e-12)
            assert rho <= np.abs(1.0 - searched * lam).max() + 1e-12
            assert step == pytest.approx(searched, rel=1e-6)

    def test_default_route_agrees_with_the_search_route(self, rng):
        for game in self.games(rng):
            np.testing.assert_allclose(
                solve_nash_gradient_play(game), gradient_play_reference(game), rtol=1e-8
            )

    def test_preflight_step_and_radius(self):
        # I - 0.94 S has its spectrum on the circle |lambda - 1| = 0.94
        for game in preflight_games():
            step, rho = _spectral_step(game.jacobian)
            assert step == pytest.approx(1.0, rel=1e-12)
            assert rho == pytest.approx(0.94, rel=1e-12)

    def test_skew_game_contracts(self):
        # the row-norm step 0.9 * mu / lmax^2 gave rho 1.026 here, and diverged
        assert _spectral_step(skew_game().jacobian)[1] < 0.996

    def test_no_contracting_step_raises_before_iterating(self):
        # modulus 1e-20 > 0, but every |1 - s lambda| rounds to at least 1
        game = QuadraticGame(jacobian=np.array([[1e-20, 1.0], [-1.0, 1e-20]]), offset=np.ones(2))
        assert check_game(game).strongly_monotone
        with pytest.raises(ConvergenceError) as got:
            solve_nash_gradient_play(game)
        assert got.value.iterations == 0
        assert str(got.value).startswith("gradient play cannot contract in double precision")
        assert "\n" not in str(got.value)
