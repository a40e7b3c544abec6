"""The package's public names: what ``run``, ``check``, ``solve-ne`` and ``paper-example`` use."""

import nashseek

PUBLIC = """
    BuiltScenario ConfigError ConnectivityError ConvergenceError Digraph FORM_ALTERNATE
    FORM_STANDARD GameCertificate IllConditionedGameError IntegrationError ModeOrderError
    MonotonicityError NashseekError PinningDiagnostic PlayerSpec QuadraticGame
    SeekerMode SimConfig SingularTransformError Summary SymmetryError Trajectory Transformation
    build build_transformation certified_bound check_game cycle_digraph delta_for_limit
    detect_convergence gain_row integral_scale is_strongly_connected laplacian max_control_bound
    parse_config pinning_diagnostic reference_scenario ring_game run run_batch
    solve_nash_closed_form solve_nash_gradient_play unsaturated_entry
""".split()


def test_public_names_are_pinned():
    # a name added to or dropped from a module's __all__ shows up here
    assert sorted(nashseek.__all__) == PUBLIC
