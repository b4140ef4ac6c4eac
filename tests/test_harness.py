"""Sweep orchestration: row pipeline, crash isolation, CSV emission."""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest

from starflux import (
    ConfigError,
    CouplingMatrix,
    ExperimentSpec,
    PiecewiseConstantField,
    ArcProfile,
    build_network,
    run_convergence,
)
from starflux import harness
from starflux.harness import (
    approx_csv,
    coupling_csv,
    gamma_csv,
    node_trace_error,
    run_approx,
    run_parabolic_simulation,
    sample_hyperbolic,
)
from starflux.hyperbolic import HyperbolicSolution
from starflux.parabolic.evolve import ParabolicTrajectory
from starflux.transmission import compute_gamma


def pair_net(k: float = 0.8, lam: tuple[float, float] = (1.0, 2.0)):
    net = build_network(
        [(1.0, lam[0], "in"), (1.0, lam[1], "out")]
    )
    K = CouplingMatrix.from_array(np.array([[0.0, k], [k, 0.0]]), net)
    return net, K


def one_jump_field(net, position: float = 0.35) -> PiecewiseConstantField:
    profiles = [
        ArcProfile.from_lists(net.arc(0).length, [position], [1.0, 0.0])
    ]
    for i in range(1, net.m):
        profiles.append(ArcProfile.from_lists(net.arc(i).length, [], [0.0]))
    return PiecewiseConstantField(tuple(profiles))


def make_spec(net, K, u0, B, epsilons, T=0.5, **kw) -> ExperimentSpec:
    return ExperimentSpec(
        net=net, K=K, u0=u0, B=np.asarray(B, dtype=float),
        epsilons=tuple(epsilons), T=T, **kw,
    )


def hand_solution(net, breakpoints, values, T: float) -> HyperbolicSolution:
    """Minimal exact-solution shell carrying a prescribed outgoing trace."""
    return HyperbolicSolution(
        net=net,
        B=np.zeros(net.m),
        u0=PiecewiseConstantField.constant(net, np.zeros(net.m)),
        T=T,
        junction=(
            ArcProfile.from_lists(T, [], [0.0]),
            ArcProfile.from_lists(T, breakpoints, values),
        ),
    )


def hand_trajectory(step_times, outgoing_values) -> ParabolicTrajectory:
    """Trajectory shell: only diagnostics times and node history matter."""
    times = np.asarray(step_times, dtype=float)
    diagnostics = np.zeros((times.size, 4))
    diagnostics[:, 0] = times
    history = np.zeros((times.size, 2))
    history[:, 1] = outgoing_values
    return ParabolicTrajectory(
        initial=None, final=None, diagnostics=diagnostics,
        node_history=history, operator=None, node_defect=0.0,
    )


class TestNodeTraceError:
    def test_hand_computed_overlap(self):
        # para trace: 2 on (0,.25], 4 on (.25,.5]; exact: 1 on (0,.1], 3 after
        # |2-1|*.1 + |2-3|*.15 + |4-3|*.25 = 0.5
        net, _ = pair_net()
        trajectory = hand_trajectory([0.0, 0.25, 0.5], [99.0, 2.0, 4.0])
        exact = hand_solution(net, [0.1], [1.0, 3.0], 0.5)
        assert node_trace_error(trajectory, exact) == pytest.approx(0.5, abs=1e-15)

    def test_breakpoint_coinciding_with_step_time(self):
        net, _ = pair_net()
        trajectory = hand_trajectory([0.0, 0.25, 0.5], [99.0, 2.0, 4.0])
        exact = hand_solution(net, [0.25], [1.0, 3.0], 0.5)
        # |2-1|*.25 + |4-3|*.25
        assert node_trace_error(trajectory, exact) == pytest.approx(0.5, abs=1e-15)

    def test_breakpoints_beyond_horizon_ignored(self):
        net, _ = pair_net()
        trajectory = hand_trajectory([0.0, 0.5], [99.0, 1.0])
        # the exact trace reaches T = 1, the march stops at 0.5
        exact = hand_solution(net, [0.9], [0.0, 7.0], 1.0)
        assert node_trace_error(trajectory, exact) == pytest.approx(0.5, abs=1e-15)

    def test_initial_row_never_enters(self):
        net, _ = pair_net()
        trajectory = hand_trajectory([0.0, 0.5], [1e9, 0.0])
        exact = hand_solution(net, [], [0.0], 0.5)
        assert node_trace_error(trajectory, exact) == 0.0


class TestExperimentSpecValidation:
    def test_increasing_levels_rejected(self):
        net, K = pair_net()
        u0 = PiecewiseConstantField.constant(net, [0.0, 0.0])
        with pytest.raises(ConfigError, match="decreasing"):
            make_spec(net, K, u0, [0.0, 0.0], [0.04, 0.08])

    def test_nonpositive_level_rejected(self):
        net, K = pair_net()
        u0 = PiecewiseConstantField.constant(net, [0.0, 0.0])
        with pytest.raises(ConfigError, match="positive"):
            make_spec(net, K, u0, [0.0, 0.0], [0.04, 0.0])

    def test_nonpositive_horizon_rejected(self):
        net, K = pair_net()
        u0 = PiecewiseConstantField.constant(net, [0.0, 0.0])
        with pytest.raises(ConfigError, match="T"):
            make_spec(net, K, u0, [0.0, 0.0], [0.04], T=0.0)


class TestRunConvergence:
    def test_zero_data_gives_identically_zero_errors(self):
        net, K = pair_net()
        u0 = PiecewiseConstantField.constant(net, [0.0, 0.0])
        spec = make_spec(net, K, u0, [0.0, 0.0], [0.1, 0.05], T=0.3)
        report = run_convergence(spec)
        assert len(report.rows) == 2
        assert report.failures == ()
        for row in report.rows:
            assert row.l1_error_final_time == 0.0
            assert row.node_trace_l1_error == 0.0
            assert row.flux_residual_max == 0.0
            assert row.min_value == 0.0

    def test_step_data_errors_strictly_decrease(self):
        net, K = pair_net()
        spec = make_spec(
            net, K, one_jump_field(net), [1.0, 0.0],
            [0.08, 0.04, 0.02, 0.01], T=0.5,
        )
        report = run_convergence(spec)
        assert report.failures == ()
        errs = [row.l1_error_final_time for row in report.rows]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        eps = [row.epsilon for row in report.rows]
        assert eps == sorted(eps, reverse=True)

    def test_failed_level_is_isolated(self):
        # epsilon_n = 0.7 cannot clear the node zones on unit arcs, so the
        # data construction fails; the 0.04 level must still come through
        net, K = pair_net()
        spec = make_spec(
            net, K, one_jump_field(net), [1.0, 0.0], [0.7, 0.04], T=0.3
        )
        report = run_convergence(spec)
        assert len(report.rows) == 1
        assert report.rows[0].epsilon == 0.04
        assert len(report.failures) == 1
        eps, reason = report.failures[0]
        assert eps == 0.7
        assert "WidthOverflow" in reason

    def test_gamma_and_oracle_run_once_per_sweep(self, monkeypatch):
        calls = {"compute_gamma": 0, "solve_exact": 0}
        for name in calls:
            original = getattr(harness, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(harness, name, counted)
        net, K = pair_net()
        spec = make_spec(
            net, K, one_jump_field(net), [1.0, 0.0], [0.08, 0.04, 0.02], T=0.3
        )
        report = run_convergence(spec)
        assert len(report.rows) == 3
        assert calls == {"compute_gamma": 1, "solve_exact": 1}

    def test_worker_pool_matches_inline(self):
        net, K = pair_net()
        spec = make_spec(
            net, K, one_jump_field(net), [1.0, 0.0], [0.08, 0.04], T=0.3
        )
        inline = run_convergence(spec, workers=1)
        pooled = run_convergence(spec, workers=2)
        for a, b in zip(inline.rows, pooled.rows):
            assert astuple(a)[:-1] == astuple(b)[:-1]  # all but wall_time

    def test_csv_round_trips_doubles_exactly(self):
        net, K = pair_net()
        spec = make_spec(
            net, K, one_jump_field(net), [1.0, 0.0], [0.08], T=0.3
        )
        report = run_convergence(spec)
        lines = report.csv().strip().splitlines()
        assert lines[0] == (
            "epsilon,h,dt,l1_error_final_time,node_trace_l1_error,"
            "flux_residual_max,min_value,wall_time"
        )
        parsed = [float(tok) for tok in lines[1].split(",")]
        assert tuple(parsed) == astuple(report.rows[0])


class TestRunners:
    def test_gamma_csv_single_outgoing(self):
        # equal speeds and a power-of-two coupling keep the elimination
        # exact in binary, so the emitted weight is the literal 1.0
        net, K = pair_net(k=0.5, lam=(1.0, 1.0))
        system = compute_gamma(net, K)
        lines = gamma_csv(system).strip().splitlines()
        assert lines[0] == "outgoing_arc,incoming_0"
        assert lines[1] == "1,1.0000000000000000e+00"

    def test_gamma_csv_weight_within_solver_tolerance(self):
        net, K = pair_net()
        lines = gamma_csv(compute_gamma(net, K)).strip().splitlines()
        assert float(lines[1].split(",")[1]) == pytest.approx(1.0, abs=1e-10)

    def test_coupling_csv_layout(self):
        net, K = pair_net(k=0.8)
        lines = coupling_csv(K).strip().splitlines()
        assert lines[0] == "arc,arc_0,arc_1"
        assert lines[1].split(",")[0] == "0"
        assert float(lines[1].split(",")[2]) == 0.8

    def test_sample_hyperbolic_zero_data(self):
        net, K = pair_net()
        u0 = PiecewiseConstantField.constant(net, [0.0, 0.0])
        samples = sample_hyperbolic(
            net, K, u0, np.zeros(2), T=0.5, times=3, points=5
        )
        assert len(samples) == 3 * 2 * 5
        assert all(u == 0.0 for _, _, _, u in samples)

    def test_parabolic_simulation_shapes(self):
        net, K = pair_net()
        u0 = PiecewiseConstantField.constant(net, [0.0, 0.0])
        snapshot, diagnostics = run_parabolic_simulation(
            net, K, u0, np.zeros(2), epsilon=0.1, T=0.1
        )
        cells = [round(net.arc(i).length / h) for i, h in enumerate([0.0125, 0.0125])]
        assert len(snapshot) == sum(c + 1 for c in cells)
        assert all(t == 0.1 for _, _, t, _ in snapshot)
        assert diagnostics.shape[1] == 4
        assert diagnostics[0, 0] == 0.0
        assert diagnostics[-1, 0] == pytest.approx(0.1, abs=1e-14)

    def test_approx_sweep_rows(self):
        net, K = pair_net()
        rows = run_approx(
            net, K, one_jump_field(net), np.array([1.0, 0.0]), (3, 6)
        )
        assert [r.n for r in rows] == [3, 4, 5, 6]
        assert [r.epsilon_n for r in rows] == [2.0**-n for n in range(3, 7)]
        # the smoothed one-jump profile has total variation exactly |J| = 1
        for r in rows:
            assert r.tv_norm == pytest.approx(1.0, abs=1e-12)
            assert r.membership_residual <= 1e-9
        errs = [r.l1_error for r in rows]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        text = approx_csv(rows).strip().splitlines()
        assert text[0] == "n,epsilon_n,l1_error,tv_norm,scaled_w21,membership_residual"
        assert text[1].startswith("3,1.2500000000000000e-01,")

    def test_approx_range_validation(self):
        net, K = pair_net()
        with pytest.raises(ConfigError, match="n range"):
            run_approx(net, K, one_jump_field(net), np.zeros(2), (5, 3))
