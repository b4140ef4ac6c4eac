"""Each entry point rejects a NaN or infinite parameter up front.

The range rule is defined once in ``starflux.errors``; these tests check
that every object or function carrying a run parameter applies it, so
the error names the parameter instead of surfacing later as a failed
solve, a crash or a silently non-finite result.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import simple_star
from starflux import (
    ArcProfile,
    ConfigError,
    CouplingMatrix,
    DimensionMismatch,
    ExperimentSpec,
    InvalidGamma,
    NonPositiveParameter,
    PiecewiseConstantField,
    ProportionalTarget,
    SolverConfig,
    TraceSignal,
    TwoOutTarget,
    build_compatible,
    incoming_trace,
    make_grid,
    march_to_steady,
    solve_exact,
    solve_parabolic,
)

non_finite = pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"]
)


def pair():
    net = simple_star([1.0], [2.0])
    K = CouplingMatrix.from_array([[0.0, 0.7], [0.7, 0.0]], net)
    u0 = PiecewiseConstantField(
        (
            ArcProfile.from_lists(1.0, [0.5], [1.0, 0.0]),
            ArcProfile.from_lists(1.0, [], [0.0]),
        )
    )
    return net, K, u0


def spec(**plan) -> ExperimentSpec:
    net, K, u0 = pair()
    args = dict(B=(1.0, 0.0), epsilons=(0.08, 0.04), T=0.5, h_rule=8.0, theta=1.5)
    args.update(plan)
    return ExperimentSpec(net=net, K=K, u0=u0, **args)


@non_finite
@pytest.mark.parametrize("field", ["epsilon", "T", "dt", "h_rule"])
def test_solver_config(field, bad):
    kwargs = dict(epsilon=0.1, T=0.5, dt=0.01, h_rule=8.0)
    kwargs[field] = bad
    with pytest.raises(NonPositiveParameter, match=f"^{field}: must be finite"):
        SolverConfig(**kwargs)


@non_finite
@pytest.mark.parametrize("field", ["epsilons", "T", "h_rule", "theta"])
def test_experiment_spec(field, bad):
    plan = {field: (0.08, bad) if field == "epsilons" else bad}
    with pytest.raises(ConfigError, match=f"^{field}.*: must be finite"):
        spec(**plan)


@non_finite
def test_experiment_spec_boundary(bad):
    with pytest.raises(ConfigError, match="^B: need 2 finite boundary"):
        spec(B=(bad, 0.0))
    with pytest.raises(ConfigError, match="^B: need 2 boundary values"):
        spec(B=(bad, 0.0, 0.0))


@pytest.mark.parametrize(
    "field, value, rule", [("theta", 0.5, "exceed 1"), ("h_rule", 2.0, "at least 4")]
)
def test_experiment_spec_rejects_a_bad_plan_at_construction(field, value, rule):
    # rejected once at construction, not again at every level of the sweep
    with pytest.raises(ConfigError, match=f"^{field}: must be finite and {rule}"):
        spec(**{field: value})


@non_finite
def test_solve_exact_and_incoming_trace(bad):
    net, _, u0 = pair()
    gamma = np.array([[1.0]])
    with pytest.raises(NonPositiveParameter, match="^T: must be finite"):
        solve_exact(net, gamma, u0, [1.0, 0.0], bad)
    with pytest.raises(NonPositiveParameter, match="^T: must be finite"):
        incoming_trace(net, 0, u0.arcs[0], 1.0, bad)
    with pytest.raises(NonPositiveParameter, match="need 2 finite boundary"):
        solve_exact(net, gamma, u0, [bad, 0.0], 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_transmission_weights_and_trace_signal(bad):
    net = simple_star([1.0], [1.0, 1.0])
    u0 = PiecewiseConstantField.constant(net, [0.0, 0.0, 0.0])
    for gamma in ([[bad], [bad]], [[0.5], [bad]]):
        with pytest.raises(InvalidGamma, match="must be finite"):
            solve_exact(net, np.array(gamma), u0, [1.0, 0.0, 0.0], 0.5)
    for breaks, values in (([bad], [1.0, 2.0]), ([0.5], [1.0, bad])):
        with pytest.raises(DimensionMismatch, match="must be finite"):
            TraceSignal.from_lists(breaks, values)


@non_finite
@pytest.mark.parametrize("field", ["epsilon_n", "theta", "B"])
def test_build_compatible(field, bad):
    net, K, u0 = pair()
    args = dict(B=[1.0, 0.0], epsilon_n=0.125, theta=1.5)
    args[field] = [bad, 0.0] if field == "B" else bad
    hint = "need 2 finite boundary" if field == "B" else f"^{field}: must be finite"
    with pytest.raises(NonPositiveParameter, match=hint):
        build_compatible(u0, args["B"], net, K, args["epsilon_n"], args["theta"])


@non_finite
def test_march_to_steady_theta(bad):
    net, K, u0 = pair()
    grid = make_grid(net, h=0.05)
    with pytest.raises(NonPositiveParameter, match="^theta: must be finite"):
        march_to_steady(net, K, grid, 0.5, bad, u0, [0.0, 0.0])


@non_finite
@pytest.mark.parametrize("field", ["h", "epsilon", "rule_constant"])
def test_make_grid(field, bad):
    net, _, _ = pair()
    kwargs = {"h": bad} if field == "h" else {"epsilon": 0.1, field: bad}
    with pytest.raises(NonPositiveParameter, match=f"^{field}: must be finite"):
        make_grid(net, **kwargs)


@non_finite
def test_solve_parabolic_boundary(bad):
    net, K, u0 = pair()
    with pytest.raises(NonPositiveParameter, match="need 2 finite boundary"):
        solve_parabolic(net, K, u0, [bad, 0.0], SolverConfig(0.1, 0.05))


@non_finite
def test_design_targets(bad):
    with pytest.raises(InvalidGamma, match="strictly inside"):
        ProportionalTarget((bad, 0.5))
    with pytest.raises(InvalidGamma, match="strictly inside"):
        TwoOutTarget((0.5, bad))
