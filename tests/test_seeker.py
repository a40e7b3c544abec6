"""Control laws, consensus estimator rates, and certified input bounds."""

from fractions import Fraction

import numpy as np
import pytest

from nashseek import (
    Digraph,
    ModeOrderError,
    PlayerSpec,
    SeekerMode,
    certified_bound,
    cycle_digraph,
    gain_row,
    integral_scale,
    ring_game,
)
from conftest import random_strongly_connected
from oracles import (
    GainIntegrityError,
    ascending_integral_scale,
    SeekerState,
    canonical_a,
    consensus_rhs,
    control,
    innovation,
    innovation_matrix,
    self_gradients,
    tilde_x1,
)

SAT = SeekerMode.SATURATED_DIRECTED


def make_state(n, orders, fill=0.0):
    return SeekerState(
        xbar=tuple(np.full(m, float(fill)) for m in orders),
        z=np.zeros((n, n)),
        c=np.ones((n, n)),
        eta=np.zeros(n),
    )


class TestInnovation:
    def test_two_player_example(self):
        g = cycle_digraph(2)
        state = make_state(2, (1, 1))
        state.z[0, 0] = 1.0
        # neighbor disagreement only: 1 * (z_00 - z_10) = 1
        assert innovation(0, 0, state, g) == pytest.approx(1.0)

    def test_pinning_term_gated_by_weight(self):
        g = cycle_digraph(2)
        state = make_state(2, (1, 1))
        state.eta[1] = 2.0
        # j=1 is an in-neighbor of 0, so eta_1 enters through the pin
        assert innovation(0, 1, state, g) == pytest.approx(2.0)
        # j=0 is not an in-neighbor of 0, so eta_0 must not enter
        state.eta[0] = 99.0
        assert innovation(0, 0, state, g) == pytest.approx(0.0)

    def test_matrix_matches_scalar(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            g = random_strongly_connected(n, rng)
            state = make_state(n, (1,) * n)
            state.z[:] = rng.standard_normal((n, n))
            state.eta[:] = rng.standard_normal(n)
            xi = innovation_matrix(state.z, state.eta, g)
            for i in range(n):
                for j in range(n):
                    assert xi[i, j] == pytest.approx(
                        innovation(i, j, state, g), abs=1e-12
                    )

    def test_one_hop_locality(self):
        g = cycle_digraph(3)  # player 1 receives from player 0 only
        state = make_state(3, (1, 1, 1))
        state.z[:] = np.arange(9.0).reshape(3, 3)
        state.eta[:] = [0.3, 0.1, 0.7]
        baseline = innovation(1, 2, state, g)
        # entries outside player 1's one-hop view must not matter
        state.z[2, :] = 1e9
        state.eta[0] = -1e9
        state.eta[2] = 1e9
        assert innovation(1, 2, state, g) == baseline


class TestConsensusRates:
    def test_matches_manual_computation(self, rng):
        n = 3
        g = cycle_digraph(n)
        game = ring_game(n)
        state = make_state(n, (1,) * n)
        state.z[:] = rng.standard_normal((n, n))
        state.c[:] = rng.uniform(0.5, 2.0, size=(n, n))
        state.eta[:] = rng.standard_normal(n)
        xi = innovation_matrix(state.z, state.eta, g)
        rates = consensus_rhs(state, g, game, SAT)
        np.testing.assert_allclose(rates.z_dot, -(state.c + xi**2) * xi)
        np.testing.assert_allclose(rates.c_dot, xi**2)
        np.testing.assert_allclose(rates.eta_dot, self_gradients(game, state.z))

    def test_undirected_mode_uses_plain_gain(self, rng):
        n = 3
        w = cycle_digraph(n).weights
        g = Digraph(weights=w + w.T)
        game = ring_game(n)
        state = make_state(n, (1,) * n)
        state.z[:] = rng.standard_normal((n, n))
        xi = innovation_matrix(state.z, state.eta, g)
        rates = consensus_rhs(state, g, game, SeekerMode.UNDIRECTED_ADAPTIVE)
        np.testing.assert_allclose(rates.z_dot, -state.c * xi)

    def test_equilibrium_is_stationary(self):
        n = 3
        g = cycle_digraph(n)
        game = ring_game(n)
        y_star = np.full(n, -0.5)
        state = make_state(n, (1,) * n)
        state.z[:] = np.tile(y_star, (n, 1))
        state.eta[:] = -y_star
        rates = consensus_rhs(state, g, game, SAT)
        np.testing.assert_allclose(rates.z_dot, np.zeros((n, n)), atol=1e-14)
        np.testing.assert_allclose(rates.c_dot, np.zeros((n, n)), atol=1e-14)
        np.testing.assert_allclose(rates.eta_dot, np.zeros(n), atol=1e-14)

    def test_rejects_non_positive_gain(self):
        state = make_state(2, (1, 1))
        state.c[0, 1] = 0.0
        with pytest.raises(GainIntegrityError):
            consensus_rhs(state, cycle_digraph(2), ring_game(2), SAT)


class TestControl:
    def test_mode_order_gate(self):
        state = make_state(2, (2, 2))
        spec = PlayerSpec(order=2, theta=0.3, delta=1.0)
        with pytest.raises(ModeOrderError):
            control(0, state, spec, SeekerMode.FIRST_ORDER)
        with pytest.raises(ModeOrderError):
            control(0, state, spec, SeekerMode.ALTERNATE_FORM)
        alt = PlayerSpec(order=2, theta=0.3, delta=1.0, form="alternate")
        with pytest.raises(ModeOrderError):
            control(0, state, alt, SAT)

    def test_deep_saturation_hits_certified_bound(self):
        state = make_state(1, (3,), fill=10.0)
        state.eta[0] = 10.0
        spec = PlayerSpec(order=3, theta=1.0 / 3.0, delta=1.0)
        assert control(0, state, spec, SAT) == pytest.approx(-13.0 / 27.0)

    def test_first_order_law(self):
        state = make_state(1, (1,), fill=1.0)
        state.eta[0] = 1.0
        spec = PlayerSpec(order=1, theta=0.3, delta=1.0)
        assert control(0, state, spec, SeekerMode.FIRST_ORDER) == pytest.approx(-1.0)
        # same degenerate law under the general saturated mode
        assert control(0, state, spec, SAT) == pytest.approx(-1.0)

    def test_unsaturated_scales_linearly(self):
        state = make_state(1, (3,), fill=10.0)
        spec = PlayerSpec(order=3, theta=1.0 / 3.0, delta=1.0)
        u = control(0, state, spec, SeekerMode.UNSATURATED)
        assert u == pytest.approx(-10.0 * 13.0 / 27.0)

    def test_alternate_form_deep_saturation(self):
        state = make_state(1, (3,), fill=10.0)
        state.eta[0] = 10.0
        spec = PlayerSpec(order=3, theta=0.3, delta=1.0, form="alternate")
        u = control(0, state, spec, SeekerMode.ALTERNATE_FORM)
        assert u == pytest.approx(-3 * 0.3 * 1.0)

    def test_reads_only_own_state(self):
        state = make_state(3, (2, 2, 2), fill=0.5)
        state.eta[:] = [0.1, 0.2, 0.3]
        spec = PlayerSpec(order=2, theta=0.3, delta=1.0)
        baseline = control(1, state, spec, SAT)
        state.xbar[0][:] = 1e9
        state.xbar[2][:] = -1e9
        state.eta[0] = 1e9
        state.eta[2] = -1e9
        state.z[:] = 1e9
        assert control(1, state, spec, SAT) == baseline

    def test_certified_bound_fuzz(self, rng):
        cases = [
            (PlayerSpec(order=1, theta=0.2, delta=0.7), SAT),
            (PlayerSpec(order=2, theta=0.45, delta=2.0), SAT),
            (PlayerSpec(order=4, theta=0.3, delta=1.5), SAT),
            # the alternate law reaches m * theta * delta = 0.6, over delta
            (PlayerSpec(order=3, theta=0.4, delta=0.5, u_limit=0.6, form="alternate"),
             SeekerMode.ALTERNATE_FORM),
            (PlayerSpec(order=1, theta=0.4, delta=0.5), SeekerMode.FIRST_ORDER),
        ]
        for spec, mode in cases:
            bound = certified_bound(spec, mode)
            for _ in range(200):
                state = SeekerState(
                    xbar=(rng.uniform(-50, 50, size=spec.order),),
                    z=np.zeros((1, 1)),
                    c=np.ones((1, 1)),
                    eta=rng.uniform(-50, 50, size=1),
                )
                assert abs(control(0, state, spec, mode)) <= bound + 1e-12


class TestScalesAndBounds:
    def test_integral_scale_values(self):
        assert integral_scale(PlayerSpec(order=1, theta=0.3, delta=1.0)) == 1.0
        assert integral_scale(
            PlayerSpec(order=3, theta=1.0 / 3.0, delta=1.0)
        ) == pytest.approx(1.0 / 27.0)
        assert integral_scale(
            PlayerSpec(order=3, theta=0.3, delta=1.0, form="alternate")
        ) == pytest.approx(0.09)

    def test_integral_scale_multiplies_ascending_powers(self):
        # the product's order sets its bits: reversed, it differs in most draws
        rng = np.random.default_rng(0)
        for m in range(4, 21):
            for theta in rng.uniform(0.01, 0.5, size=200).tolist():
                spec = PlayerSpec(order=m, theta=theta, delta=1.0)
                assert integral_scale(spec) == ascending_integral_scale(m, theta)

    def test_gain_row_is_the_law_and_the_canonical_columns(self):
        # unit bar vectors inside the saturation level read the gains off the
        # hand-written law; the tail gains are canonical_a's column values
        for m in range(1, 7):
            for theta in (0.1, 0.2, 1.0 / 3.0, 0.45):
                for form, mode in (("standard", SAT), ("alternate", SeekerMode.ALTERNATE_FORM)):
                    # u_limit m * delta covers the alternate bound m * theta * delta
                    spec = PlayerSpec(
                        order=m, theta=theta, delta=2.0, u_limit=2.0 * m, form=form
                    )
                    row = gain_row(m, theta, form)
                    probed = []
                    for l in range(m):
                        state = make_state(1, (m,))
                        state.xbar[0][l] = 1.0
                        probed.append(control(0, state, spec, mode))
                    assert probed == [-g for g in row], (m, theta, form)
                    np.testing.assert_array_max_ulp(
                        np.array(row[1:]),
                        canonical_a(m, Fraction(theta), form)[0, 1:].astype(float),
                        maxulp=1,
                    )

    def test_tilde_links_integral_to_first_state(self):
        state = make_state(1, (3,))
        state.xbar[0][0] = -1.0
        state.eta[0] = 27.0
        spec = PlayerSpec(order=3, theta=1.0 / 3.0, delta=1.0)
        assert tilde_x1(0, state, spec) == pytest.approx(0.0)

    def test_certified_bound_values(self):
        assert certified_bound(
            PlayerSpec(order=3, theta=1.0 / 3.0, delta=1.0), SAT
        ) == pytest.approx(13.0 / 27.0)
        assert certified_bound(PlayerSpec(order=1, theta=0.3, delta=2.0), SAT) == 2.0
        assert certified_bound(
            PlayerSpec(order=3, theta=0.3, delta=1.0, form="alternate"),
            SeekerMode.ALTERNATE_FORM,
        ) == pytest.approx(0.9)
        assert certified_bound(
            PlayerSpec(order=3, theta=1.0 / 3.0, delta=1.0), SeekerMode.UNSATURATED
        ) == np.inf

    def test_state_shape_validation(self):
        with pytest.raises(ValueError):
            SeekerState(
                xbar=(np.zeros(2),),
                z=np.zeros((2, 2)),
                c=np.ones((2, 2)),
                eta=np.zeros(2),
            )
