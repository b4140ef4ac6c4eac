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
    ResolventProblem,
    SolverConfig,
    TwoOutTarget,
    build_compatible,
    compute_gamma,
    make_grid,
    march_to_steady,
    solve_exact,
    solve_parabolic,
    solve_resolvent,
)
from starflux.grids import MIN_H_RULE
from starflux.hyperbolic import incoming_trace

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


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda rule: SolverConfig(0.1, 0.5, h_rule=rule), "h_rule"),
        (lambda rule: make_grid(pair()[0], epsilon=0.1, rule_constant=rule), "rule_constant"),
    ],
    ids=["SolverConfig", "make_grid"],
)
def test_solver_and_grid_hold_the_plans_h_rule_floor(build, name):
    """SolverConfig and make_grid hold ExperimentSpec's floor, MIN_H_RULE:
    the floor itself passes, anything below it fails."""
    build(MIN_H_RULE)
    with pytest.raises(NonPositiveParameter, match=f"^{name}: must be finite and at least 4"):
        build(3.99)


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
    # the junction trace is a profile on [0, T]; B_i arrives at t = 1
    with pytest.raises(DimensionMismatch, match="^profile entries must be finite"):
        incoming_trace(net, 0, u0.arcs[0], bad, 2.0)


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
        march_to_steady(net, K, grid, 0.5, ResolventProblem.build(bad, u0, [0.0, 0.0]))


@pytest.mark.parametrize("bad", [-1.0, np.nan], ids=["negative", "nan"])
def test_resolvent_problem_constructor_checks_theta(bad):
    """The dataclass constructor checks theta itself, so a problem built
    without build never reaches a march: a negative theta would stamp the
    steady state t = theta, a NaN one fail as a zero pivot."""
    net, K, u0 = pair()
    grid = make_grid(net, h=0.05)
    with pytest.raises(NonPositiveParameter, match="^theta: must be finite"):
        march_to_steady(
            net, K, grid, 0.5, ResolventProblem(theta=bad, f=u0, boundary=np.array([0.7, 0.3]))
        )


@non_finite
def test_resolvent_problem_constructor_checks_boundary(bad):
    _, _, u0 = pair()
    with pytest.raises(NonPositiveParameter, match="need 2 finite boundary"):
        ResolventProblem(theta=1.0, f=u0, boundary=np.array([0.7, bad]))
    with pytest.raises(DimensionMismatch):
        ResolventProblem(theta=1.0, f=u0, boundary=np.zeros((2, 2)))


def test_resolvent_problem_checks_once(monkeypatch):
    """build hands its inputs to the constructor, which checks each once
    and keeps a read-only copy of the boundary."""
    import starflux.parabolic.resolvent as resolvent

    calls = []
    for name in ("finite_above", "finite_values"):
        original = getattr(resolvent, name)
        monkeypatch.setattr(
            resolvent, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k)
        )
    _, _, u0 = pair()
    boundary = [0.7, 0.3]
    prob = ResolventProblem.build(1, u0, boundary)
    assert calls == ["finite_above", "finite_values"]
    assert type(prob.theta) is float and prob.theta == 1.0
    assert not prob.boundary.flags.writeable and prob.boundary.tolist() == boundary


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf, 0.0], ids=["nan", "inf", "-inf", "zero"]
)
def test_march_to_steady_epsilon(bad):
    net, K, u0 = pair()
    grid = make_grid(net, h=0.05)
    prob = ResolventProblem.build(1.0, u0, [0.0, 0.0])
    with pytest.raises(NonPositiveParameter, match="^epsilon: must be finite"):
        march_to_steady(net, K, grid, bad, prob)


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


@pytest.mark.parametrize(
    "count, length",
    [
        pytest.param(2, 0.5, id="0.5"),
        pytest.param(2, 3.0, id="3.0"),
        pytest.param(1, 1.0, id="one-too-few"),
        pytest.param(3, 1.0, id="one-too-many"),
    ],
)
def test_profiles_must_match_their_arcs(count, length):
    """All five entry points that take data arc by arc want one profile
    per arc, each as long as its arc. Unchecked, a short list would be
    zipped short, and sampling would stretch the last piece of a short
    profile over the rest of its arc; a long one would be cut."""
    net, K, u0 = pair()
    gamma = compute_gamma(net, K).gamma
    first = ArcProfile.from_lists(length, [length / 2], [1.0, 0.0])
    off = PiecewiseConstantField((first, u0.arcs[1], u0.arcs[1])[:count])
    if count == net.m:
        hint = f"arc 0 has length 1.0, its profile {length}"
    else:
        hint = f"{count} profiles for 2 arcs"
    with pytest.raises(DimensionMismatch, match=f"^profiles: {hint}"):
        solve_exact(net, gamma, off, [1.0, 0.0], 0.5)
    with pytest.raises(DimensionMismatch, match=f"^profiles: {hint}"):
        build_compatible(off, [1.0, 0.0], net, K, 0.125)
    prob = ResolventProblem.build(1.0, off, [0.0, 0.0])
    with pytest.raises(DimensionMismatch, match=f"^forcing profiles: {hint}"):
        solve_resolvent(net, K, 0.1, prob)
    with pytest.raises(DimensionMismatch, match=f"^forcing profiles: {hint}"):
        march_to_steady(net, K, make_grid(net, h=0.05), 0.2, prob)
    cfg = SolverConfig(epsilon=0.2, T=0.05)
    with pytest.raises(DimensionMismatch, match=f"^initial profiles: {hint}"):
        solve_parabolic(net, K, off, [0.0, 0.0], cfg)
