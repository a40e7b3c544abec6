"""Canonical forms, the coordinate change, and control-bound arithmetic."""

from fractions import Fraction

import numpy as np
import pytest

from nashseek import (
    FORM_ALTERNATE,
    FORM_STANDARD,
    PlayerSpec,
    SingularTransformError,
    build_transformation,
    delta_for_limit,
    max_control_bound,
)
from nashseek.dynamics import MAX_ORDER
from oracles import (
    canonical_a,
    chain_matrices,
    controllability_matrix,
    geometric_control_bound,
    saturation,
    similarity_residual,
)

THETAS = (0.1, 1.0 / 3.0, 0.45)


class TestSaturation:
    def test_scalar_values(self):
        assert saturation(2.0, 1.0) == 1.0
        assert saturation(-2.0, 1.0) == -1.0
        assert saturation(0.5, 1.0) == 0.5
        assert isinstance(saturation(3, 1.0), float)

    def test_array_input(self):
        np.testing.assert_allclose(
            saturation(np.array([-3.0, 0.2, 3.0]), 0.5), [-0.5, 0.2, 0.5]
        )

    def test_level_must_be_positive(self):
        with pytest.raises(ValueError):
            saturation(1.0, 0.0)


class TestCanonicalForms:
    def test_standard_third_order(self):
        a = canonical_a(3, 1.0 / 3.0)
        np.testing.assert_allclose(
            a, [[0, 1.0 / 9.0, 1.0 / 3.0], [0, 0, 1.0 / 3.0], [0, 0, 0]]
        )

    def test_alternate_third_order(self):
        a = canonical_a(3, 0.25, form=FORM_ALTERNATE)
        np.testing.assert_allclose(a, [[0, 0.25, 0.25], [0, 0, 0.25], [0, 0, 0]])

    def test_forms_agree_at_second_order(self):
        np.testing.assert_allclose(
            canonical_a(2, 0.3), canonical_a(2, 0.3, form=FORM_ALTERNATE)
        )

    def test_chain_matrices(self):
        a, b = chain_matrices(2)
        np.testing.assert_allclose(a, [[0, 1], [0, 0]])
        np.testing.assert_allclose(b, [0, 1])

    def test_controllability_of_chain(self):
        a, b = chain_matrices(2)
        np.testing.assert_allclose(controllability_matrix(a, b), [[0, 1], [1, 0]])

    def test_controllability_of_canonical_pair(self):
        theta = 0.4
        r = controllability_matrix(canonical_a(2, theta), np.ones(2))
        np.testing.assert_allclose(r, [[1, theta], [1, 0]])


class TestPlayerSpec:
    def test_defaults(self):
        spec = PlayerSpec(order=3, theta=1.0 / 3.0, delta=1.0)
        assert spec.u_limit == 1.0
        assert spec.form == FORM_STANDARD

    def test_theta_range_gate(self):
        with pytest.raises(ValueError, match="0.5"):
            PlayerSpec(order=2, theta=0.6, delta=1.0)
        with pytest.warns(RuntimeWarning):
            spec = PlayerSpec(order=2, theta=0.6, delta=1.0, allow_large_theta=True)
        assert spec.theta == 0.6
        # outside (0, 1) is invalid regardless of the override
        with pytest.raises(ValueError):
            PlayerSpec(order=2, theta=1.2, delta=1.0, allow_large_theta=True)
        with pytest.raises(ValueError):
            PlayerSpec(order=2, theta=0.0, delta=1.0)

    def test_order_and_delta_validation(self):
        with pytest.raises(ValueError):
            PlayerSpec(order=0, theta=0.3, delta=1.0)
        with pytest.raises(ValueError):
            PlayerSpec(order=1.5, theta=0.3, delta=1.0)
        # a bool is an int to isinstance, but no order, as the parser holds
        with pytest.raises(ValueError, match="order must be a positive integer, got True"):
            PlayerSpec(order=True, theta=0.3, delta=1.0)
        with pytest.raises(ValueError):
            PlayerSpec(order=2, theta=0.3, delta=-1.0)
        with pytest.raises(ValueError):
            PlayerSpec(order=2, theta=0.3, delta=1.0, form="bogus")

    def test_order_cap(self):
        PlayerSpec(order=MAX_ORDER, theta=0.3, delta=1.0)
        with pytest.raises(ValueError, match="exceeds the cap"):
            PlayerSpec(order=MAX_ORDER + 1, theta=0.3, delta=1.0)

    def test_actuator_limit_gate(self):
        # certified bound 13/27 exceeds a 0.4 limit
        with pytest.raises(ValueError, match="actuator-bound: certified delta"):
            PlayerSpec(order=3, theta=1.0 / 3.0, delta=1.0, u_limit=0.4)
        PlayerSpec(order=3, theta=1.0 / 3.0, delta=1.0, u_limit=0.4815)


class TestTransformation:
    def test_first_order_is_identity(self):
        tr = build_transformation(PlayerSpec(order=1, theta=0.3, delta=1.0))
        np.testing.assert_allclose(tr.t_matrix, [[1.0]])
        np.testing.assert_allclose(tr.t_inverse, [[1.0]])
        np.testing.assert_allclose(tr.a_bar, [[0.0]])

    def test_second_order_closed_form(self):
        for theta in THETAS:
            for form in (FORM_STANDARD, FORM_ALTERNATE):
                tr = build_transformation(
                    PlayerSpec(order=2, theta=theta, delta=1.0, form=form)
                )
                np.testing.assert_allclose(
                    tr.t_matrix,
                    [[1.0 / theta, -1.0 / theta], [0.0, 1.0]],
                    atol=1e-12,
                )

    def test_third_order_frozen_matrix(self):
        tr = build_transformation(PlayerSpec(order=3, theta=1.0 / 3.0, delta=1.0))
        np.testing.assert_allclose(
            tr.t_matrix, [[27.0, -36.0, 9.0], [0.0, 3.0, -3.0], [0.0, 0.0, 1.0]]
        )

    def test_exact_residuals_vanish(self):
        for m in range(1, 7):
            for theta in THETAS:
                for form in (FORM_STANDARD, FORM_ALTERNATE):
                    # u_limit m covers the alternate bound m * theta * delta
                    tr = build_transformation(
                        PlayerSpec(order=m, theta=theta, delta=1.0, u_limit=float(m), form=form)
                    )
                    res_a, res_b = similarity_residual(tr)
                    assert res_a == 0.0, (m, theta, form)
                    assert res_b == 0.0, (m, theta, form)

    def test_exact_inverse_is_exact(self):
        for m in (2, 4, 6):
            tr = build_transformation(PlayerSpec(order=m, theta=0.45, delta=1.0))
            for i in range(m):
                for j in range(m):
                    prod = sum(
                        tr.exact_t[i][k] * tr.exact_t_inverse[k][j] for k in range(m)
                    )
                    assert prod == (Fraction(1) if i == j else Fraction(0))

    def test_matches_controllability_construction(self):
        # same matrix through the definitional route, well conditioned at low order
        for m in (2, 3, 4):
            for form in (FORM_STANDARD, FORM_ALTERNATE):
                theta = 1.0 / 3.0
                a, b = chain_matrices(m)
                r_chain = controllability_matrix(a, b)
                r_canon = controllability_matrix(canonical_a(m, theta, form=form), np.ones(m))
                expected = r_chain @ np.linalg.inv(r_canon)
                tr = build_transformation(
                    PlayerSpec(order=m, theta=theta, delta=1.0, u_limit=float(m), form=form)
                )
                np.testing.assert_allclose(tr.t_matrix, expected, rtol=1e-9, atol=1e-9)

    def test_float_projection_accuracy(self):
        # the float views satisfy the similarity identities to relative precision
        for m in range(1, 7):
            for theta in THETAS:
                tr = build_transformation(PlayerSpec(order=m, theta=theta, delta=1.0))
                a, b = chain_matrices(m)
                lhs = a @ tr.t_matrix
                rhs = tr.t_matrix @ tr.a_bar
                scale = max(1.0, np.abs(tr.t_matrix).max())
                assert np.abs(lhs - rhs).max() <= 1e-13 * scale
                assert np.abs(b - tr.t_matrix @ np.ones(m)).max() <= 1e-12 * scale

    def test_output_coefficients_leading_entry(self):
        tr = build_transformation(PlayerSpec(order=3, theta=1.0 / 3.0, delta=1.0))
        # the output y = x_1 in bar coordinates is T's first row
        np.testing.assert_allclose(tr.t_matrix[0], [27.0, -36.0, 9.0])
        # leading entry is exactly the reciprocal of prod_{k<m} theta^k,
        # taken at the binary value of theta (hence Fraction of the float)
        exact_theta = Fraction(1.0 / 3.0)
        assert tr.exact_t[0][0] == 1 / (exact_theta * exact_theta**2)

    def test_overflow_is_singular_transform(self):
        with pytest.raises(SingularTransformError):
            build_transformation(PlayerSpec(order=9, theta=1e-10, delta=1.0))

    def test_inverse_maps_original_initial_state(self):
        tr = build_transformation(PlayerSpec(order=3, theta=1.0 / 3.0, delta=1.0))
        xbar = tr.t_inverse @ np.array([1.0, 1.0, 1.0])
        np.testing.assert_allclose(tr.t_matrix @ xbar, [1.0, 1.0, 1.0], atol=1e-12)


class TestBounds:
    def test_reference_bound(self):
        assert max_control_bound(3, 1.0 / 3.0, 1.0) == pytest.approx(13.0 / 27.0)

    def test_first_order_bound_is_delta(self):
        # the first-order law u = -sat(x + eta) reaches delta itself
        assert max_control_bound(1, 0.3, 2.0) == 2.0

    def test_geometric_dominates_finite_sum(self):
        # the geometric series covers the high-order law only
        for m in range(2, 7):
            for theta in THETAS:
                assert (
                    max_control_bound(m, theta, 1.0)
                    <= geometric_control_bound(theta, 1.0) + 1e-15
                )

    def test_delta_for_limit_examples(self):
        assert delta_for_limit(3, 1.0 / 3.0, 13.0 / 27.0) == pytest.approx(1.0)
        assert delta_for_limit(2, 1.0 / 3.0, 0.45) == pytest.approx(1.0125)

    def test_delta_for_limit_round_trip(self):
        delta = delta_for_limit(4, 0.45, 0.7, margin=0.9)
        assert max_control_bound(4, 0.45, delta) == pytest.approx(0.9 * 0.7)

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            delta_for_limit(2, 0.3, 1.0, margin=0.0)
        with pytest.raises(ValueError):
            delta_for_limit(2, 0.3, -1.0)
