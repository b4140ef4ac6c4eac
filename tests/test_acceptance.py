"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single pass/fail line (visible with -s) with the
measured quantities, then asserts. Tolerances and runtime budgets are
pinned; random campaigns run on fixed seeds so reruns are bit-stable.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from conftest import EXPERIMENTS, cross_ones_coupling, random_coupling, random_network, simple_star
from starflux import (
    ArcProfile,
    CouplingMatrix,
    PiecewiseConstantField,
    ProportionalTarget,
    ResolventProblem,
    SolverConfig,
    TwoOutTarget,
    build_compatible,
    build_network,
    compute_gamma,
    design_proportional,
    design_two_outgoing,
    l1_distance,
    make_grid,
    march_to_steady,
    proportional_gamma_matrix,
    resolvent_forcing_field,
    roundtrip_error,
    run_convergence,
    solve_parabolic,
    solve_resolvent,
    two_out_gamma_matrix,
)
from starflux.harness import load_experiment_spec


def _report(index: int, label: str, failures: list[str], detail: str) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[{index:2d}/12] {label}: {status} ({detail})")
    assert not failures, f"{label}: " + "; ".join(failures)


def one_out_network(rng: np.random.Generator):
    """Random star with a single outgoing arc, 1..7 incoming."""
    m = int(rng.integers(2, 9))
    specs = [
        (
            float(rng.uniform(0.5, 2.0)),
            float(rng.uniform(0.1, 10.0)),
            "in" if i < m - 1 else "out",
        )
        for i in range(m)
    ]
    return build_network(specs)


def random_nonneg_field(rng: np.random.Generator, net) -> PiecewiseConstantField:
    arcs = []
    for i in range(net.m):
        length = net.arc(i).length
        pieces = int(rng.integers(1, 4))
        breaks = np.sort(rng.uniform(0.05 * length, 0.95 * length, pieces - 1))
        arcs.append(ArcProfile.from_lists(length, breaks, rng.uniform(0.0, 2.0, pieces)))
    return PiecewiseConstantField(tuple(arcs))


@pytest.fixture(scope="module")
def positivity_runs():
    """Fifty random nonnegative states marched 100 implicit steps each."""
    rng = np.random.default_rng(20260814)
    diagnostics = []
    with warnings.catch_warnings():
        # raw random data violates the node conditions; the projection
        # handles it, and the warning is the expected notice
        warnings.simplefilter("ignore")
        for _ in range(50):
            m = int(rng.integers(2, 5))
            n_inc = int(rng.integers(1, m))
            net = build_network(
                [
                    (
                        float(rng.uniform(0.5, 1.5)),
                        float(rng.uniform(0.5, 3.0)),
                        "in" if i < n_inc else "out",
                    )
                    for i in range(m)
                ]
            )
            K = random_coupling(rng, net)
            u0 = random_nonneg_field(rng, net)
            B = rng.uniform(0.0, 1.0, net.m)
            dt = float(rng.uniform(0.002, 0.01))
            cfg = SolverConfig(
                epsilon=float(rng.uniform(0.1, 0.4)), T=100 * dt, dt=dt
            )
            traj = solve_parabolic(net, K, u0, B, cfg)
            assert traj.diagnostics.shape[0] == 101
            diagnostics.append(traj.diagnostics)
    return diagnostics


@pytest.fixture(scope="module")
def pulse_run():
    """Compact interior pulse, zero boundary data, 200 implicit steps."""
    net = simple_star([1.0], [2.0])
    K = CouplingMatrix.from_array([[0.0, 1.0], [1.0, 0.0]], net)
    pulse = PiecewiseConstantField(
        (
            ArcProfile.from_lists(1.0, [0.3, 0.6], [0.0, 1.0, 0.0]),
            ArcProfile.from_lists(1.0, [], [0.0]),
        )
    )
    cfg = SolverConfig(epsilon=0.4, T=200 * 0.004, dt=0.004)
    return solve_parabolic(net, K, pulse, [0.0, 0.0], cfg)


def run_experiment(name: str):
    """A checked-in experiment's plan, its sweep report and its run time."""
    spec = load_experiment_spec(EXPERIMENTS / name / "experiment.json")
    start = time.perf_counter()
    report = run_convergence(spec)
    return spec, report, time.perf_counter() - start


@pytest.fixture(scope="module")
def viscosity_sweep():
    """The pinned 2-in/2-out sweep against the characteristics oracle."""
    return run_experiment("pinned_sweep")


def test_01_gamma_nonnegative_and_column_stochastic():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst_entry, worst_col = 0.0, 0.0
    for _ in range(200):
        net = random_network(rng)
        system = compute_gamma(net, random_coupling(rng, net))
        worst_entry = min(worst_entry, float(np.min(system.gamma)))
        worst_col = max(
            worst_col, float(np.max(np.abs(system.gamma.sum(axis=0) - 1.0)))
        )
    elapsed = time.perf_counter() - start
    failures = []
    if worst_entry < -1e-12:
        failures.append(f"negative weight {worst_entry:.3e}")
    if worst_col > 1e-10:
        failures.append(f"column sum off by {worst_col:.3e}")
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s")
    _report(
        1,
        "200 random networks: weights nonnegative, columns sum to 1",
        failures,
        f"min entry {worst_entry:.1e}, col dev {worst_col:.1e}, {elapsed:.2f}s",
    )


def test_02_single_outgoing_arc_takes_all_flux():
    rng = np.random.default_rng(1002)
    worst_unit, worst_pair, worst_structural = 0.0, 0.0, 0.0
    pairs = 0
    for _ in range(100):
        net = one_out_network(rng)
        system = compute_gamma(net, random_coupling(rng, net))
        n_inc = len(net.incoming_ids)
        lam_out = net.arc(net.outgoing_ids[0]).speed
        # the weight row is the outgoing speed times the matching
        # inverse row; clamping only strips negative rounding noise
        z = system.certificates.inverse
        expected = np.maximum(lam_out * z[n_inc, :n_inc], 0.0)
        worst_structural = max(
            worst_structural, float(np.max(np.abs(system.gamma[0] - expected)))
        )
        # one outgoing row: each column holds a single entry, so unit
        # column sums force every weight to 1
        dev = float(np.max(np.abs(system.gamma - 1.0)))
        worst_unit = max(worst_unit, dev)
        if net.m == 2:
            pairs += 1
            worst_pair = max(worst_pair, dev)
    failures = []
    if worst_structural > 0.0:
        failures.append(f"gamma deviates from speed*z by {worst_structural:.3e}")
    if worst_unit > 1e-12:
        failures.append(f"weight off unity by {worst_unit:.3e}")
    if pairs == 0:
        failures.append("no 1-in/1-out instances drawn")
    if worst_pair > 1e-14:
        failures.append(f"1-in/1-out weight off unity by {worst_pair:.3e}")
    _report(
        2,
        "100 single-outgoing networks: every weight is exactly the full flux",
        failures,
        f"max |gamma-1| {worst_unit:.1e}, 1-in/1-out max {worst_pair:.1e} "
        f"over {pairs} pairs",
    )


def test_03_positive_coupling_implies_positive_weight():
    rng = np.random.default_rng(1003)
    checked, worst = 0, np.inf
    for _ in range(200):
        net = random_network(rng)
        K = random_coupling(rng, net, extra_link_prob=float(rng.uniform(0.0, 0.8)))
        system = compute_gamma(net, K)
        for li, l in enumerate(net.outgoing_ids):
            for ji, j in enumerate(net.incoming_ids):
                if K.k[l, j] > 0.0:
                    checked += 1
                    worst = min(worst, float(system.gamma[li, ji]))
    failures = []
    if checked == 0:
        failures.append("no directly coupled pairs drawn")
    if worst <= 1e-14:
        failures.append(f"coupled weight {worst:.3e} not above 1e-14")
    _report(
        3,
        "200 random instances: direct coupling forces a positive weight",
        failures,
        f"{checked} coupled pairs, smallest weight {worst:.3e}",
    )


def test_04_inverse_design_round_trips():
    rng = np.random.default_rng(1004)
    start = time.perf_counter()
    worst_prop = 0.0
    for _ in range(100):
        m = int(rng.integers(3, 9))
        n_out = int(rng.integers(2, m))
        net = build_network(
            [
                (
                    float(rng.uniform(0.5, 2.0)),
                    float(rng.uniform(0.1, 10.0)),
                    "in" if i < m - n_out else "out",
                )
                for i in range(m)
            ]
        )
        w = rng.uniform(0.1, 1.0, n_out)
        target = ProportionalTarget(tuple(w / w.sum()))
        K = design_proportional(net, target)
        worst_prop = max(
            worst_prop, roundtrip_error(net, K, proportional_gamma_matrix(net, target))
        )
    worst_two = 0.0
    for _ in range(100):
        n_inc = int(rng.integers(1, 7))
        net = build_network(
            [
                (
                    float(rng.uniform(0.5, 2.0)),
                    float(rng.uniform(0.1, 10.0)),
                    "in" if i < n_inc else "out",
                )
                for i in range(n_inc + 2)
            ]
        )
        target = TwoOutTarget(tuple(rng.uniform(0.05, 0.95, n_inc)))
        K = design_two_outgoing(net, target)
        worst_two = max(
            worst_two, roundtrip_error(net, K, two_out_gamma_matrix(net, target))
        )
    elapsed = time.perf_counter() - start
    failures = []
    if worst_prop > 1e-9:
        failures.append(f"proportional round-trip {worst_prop:.3e}")
    if worst_two > 1e-9:
        failures.append(f"two-outgoing round-trip {worst_two:.3e}")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 10s")
    _report(
        4,
        "100+100 coupling designs reproduce their target weights",
        failures,
        f"proportional {worst_prop:.1e}, two-outgoing {worst_two:.1e}, {elapsed:.2f}s",
    )


def _march_ratios(net, K, theta, eps, seed, spacings) -> list[float]:
    f = resolvent_forcing_field(net, np.random.default_rng(seed))
    boundary = np.random.default_rng(seed + 1).uniform(-1.0, 1.0, net.m)
    prob = ResolventProblem.build(theta, f, boundary)
    sol = solve_resolvent(net, K, eps, prob)
    errors = []
    for h in spacings:
        grid = make_grid(net, h=h)
        state = march_to_steady(net, K, grid, eps, prob)
        errors.append(l1_distance(sol, state, grid))
    return [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]


def test_05_closed_form_steady_solver_and_march_agree():
    rng = np.random.default_rng(314159)
    worst_residual, worst_margin = 0.0, np.inf
    for trial in range(20):
        if trial % 2 == 0:
            net = simple_star(
                [float(rng.uniform(0.5, 3.0))], [float(rng.uniform(0.5, 3.0))]
            )
        else:
            net = simple_star(
                [float(rng.uniform(0.5, 3.0)) for _ in range(2)],
                [float(rng.uniform(0.5, 3.0)) for _ in range(2)],
            )
        K = random_coupling(rng, net)
        prob = ResolventProblem.build(
            float(rng.uniform(0.5, 2.0)),
            resolvent_forcing_field(net, rng, pieces=3),
            rng.uniform(-1.0, 1.0, net.m),
        )
        sol = solve_resolvent(net, K, float(rng.uniform(0.3, 1.0)), prob)
        rep = sol.residual_report()
        worst_residual = max(
            worst_residual,
            max(rep.ode_max, rep.dirichlet_max, rep.node_max) / rep.scale,
        )
        worst_margin = min(worst_margin, float(np.min(sol.dominance_margins)))

    # pinned refinement ladders, one per supported shape; grids start
    # inside the asymptotic first-order regime for the chosen viscosity
    pair = simple_star([1.0], [2.0])
    ratios_pair = _march_ratios(
        pair,
        CouplingMatrix.from_array([[0.0, 1.5], [1.5, 0.0]], pair),
        theta=0.8,
        eps=0.5,
        seed=11,
        spacings=(0.04, 0.02, 0.01, 0.005),
    )
    cross = simple_star([1.0, 3.0], [2.0, 0.5])
    ratios_cross = _march_ratios(
        cross,
        cross_ones_coupling(cross),
        theta=1.2,
        eps=0.4,
        seed=5,
        spacings=(0.02, 0.01, 0.005, 0.0025),
    )
    failures = []
    if worst_residual > 1e-9:
        failures.append(f"substitution residual {worst_residual:.3e} of scale")
    if worst_margin <= 0.0:
        failures.append(f"column dominance margin {worst_margin:.3e}")
    for name, ratios in (("pair", ratios_pair), ("cross", ratios_cross)):
        if not all(1.6 <= r <= 2.4 for r in ratios):
            failures.append(f"{name} march ratios {ratios} leave [1.6, 2.4]")
    _report(
        5,
        "20 steady problems solve exactly; marching converges at first order",
        failures,
        f"residual {worst_residual:.1e}, margin {worst_margin:.2e}, ratios "
        f"{[f'{r:.2f}' for r in ratios_pair + ratios_cross]}",
    )


def test_06_implicit_marching_preserves_positivity(positivity_runs):
    worst = min(float(np.min(d[:, 2])) for d in positivity_runs)
    failures = []
    if worst < -1e-12:
        failures.append(f"state dipped to {worst:.3e}")
    _report(
        6,
        "50 nonnegative states stay nonnegative over 100 implicit steps",
        failures,
        f"global minimum {worst:.1e}",
    )


def test_07_junction_flux_balances_at_every_recorded_step(
    positivity_runs, pulse_run, viscosity_sweep
):
    _, report, _ = viscosity_sweep
    worst = max(float(np.max(np.abs(d[:, 3]))) for d in positivity_runs)
    worst = max(worst, float(np.max(np.abs(pulse_run.diagnostics[:, 3]))))
    worst = max(worst, max(row.flux_residual_max for row in report.rows))
    steps = sum(d.shape[0] for d in positivity_runs)
    steps += pulse_run.diagnostics.shape[0]
    failures = []
    if worst > 1e-10:
        failures.append(f"flux residual {worst:.3e}")
    _report(
        7,
        "every recorded step balances the junction flux",
        failures,
        f"worst |residual| {worst:.1e} across {steps}+ steps",
    )


def test_08_pulse_l1_norm_never_grows(pulse_run):
    norms = pulse_run.diagnostics[:, 1]
    growth = float(np.max(np.diff(norms)))
    failures = []
    if norms.shape[0] != 201:
        failures.append(f"expected 200 steps, recorded {norms.shape[0] - 1}")
    if growth > 1e-10:
        failures.append(f"norm grew by {growth:.3e} in one step")
    _report(
        8,
        "zero-boundary pulse dissipates monotonically for 200 steps",
        failures,
        f"largest step change {growth:.1e}",
    )


def test_09_viscosity_sweep_error_contracts(viscosity_sweep):
    spec, report, elapsed = viscosity_sweep
    failures = []
    if report.failures:
        failures.append(f"failed levels: {report.failures}")
    errors = [row.l1_error_final_time for row in report.rows]
    if [row.epsilon for row in report.rows] != list(spec.epsilons):
        failures.append("rows not in descending viscosity order")
    if not all(a > b for a, b in zip(errors, errors[1:])):
        failures.append(f"errors not strictly decreasing: {errors}")
    if errors and errors[-1] > 0.35 * errors[0]:
        failures.append(
            f"final/first {errors[-1] / errors[0]:.4f} exceeds 0.35"
        )
    if elapsed >= 180.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 3min")
    _report(
        9,
        "viscous solutions approach the transport solution as viscosity drops",
        failures,
        f"errors {[f'{e:.4f}' for e in errors]}, "
        f"final/first {errors[-1] / errors[0]:.4f}, {elapsed:.1f}s",
    )


def test_10_smoothed_data_family_obeys_the_pinned_bounds():
    net = simple_star([1.0], [2.0])
    K = CouplingMatrix.from_array([[0.0, 0.8], [0.8, 0.0]], net)
    v = PiecewiseConstantField(
        (
            ArcProfile.from_lists(1.0, [0.4], [0.0, 1.0]),
            ArcProfile.from_lists(1.0, [], [0.6]),
        )
    )
    B = [0.0, 0.6]
    tv = v.total_variation()
    deriv_slack = 0.25  # one constant for the whole sweep, frozen with margin

    start = time.perf_counter()
    l1_errors, memberships, deriv_norms, scaled_w21 = [], [], [], []
    for n in range(3, 11):
        compat = build_compatible(v, B, net, K, 2.0**-n, theta=1.5)
        l1_errors.append(compat.l1_error)
        memberships.append(compat.membership_residual)
        deriv_norms.append(sum(compat.deriv_norms))
        scaled_w21.append(2.0**-n * sum(compat.w21_norms))
    elapsed = time.perf_counter() - start

    failures = []
    if max(memberships) > 1e-9:
        failures.append(f"membership residual {max(memberships):.3e}")
    if not all(a > b for a, b in zip(l1_errors, l1_errors[1:])):
        failures.append(f"distances not strictly decreasing: {l1_errors}")
    if l1_errors[-1] > 1e-2:
        failures.append(f"final distance {l1_errors[-1]:.3e} above 1e-2")
    if max(deriv_norms) > tv + deriv_slack:
        failures.append(
            f"derivative mass {max(deriv_norms):.4f} above TV+{deriv_slack}"
        )
    if max(scaled_w21) / min(scaled_w21) > 10.0:
        failures.append(
            f"scaled second-derivative spread {max(scaled_w21) / min(scaled_w21):.2f}"
        )
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s")
    _report(
        10,
        "smoothed data family: admissible, convergent, uniformly bounded",
        failures,
        f"final distance {l1_errors[-1]:.1e}, max derivative mass "
        f"{max(deriv_norms):.3f} vs TV {tv:.1f}, spread "
        f"{max(scaled_w21) / min(scaled_w21):.2f}, {elapsed:.2f}s",
    )


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the incoming node row is not conservative, and "
    "the mass it adds lifts the coarse levels' error above the prediction",
)
def test_11_pinned_sweep_matches_its_heat_kernel_prediction(viscosity_sweep):
    """The pinned jump starts at 0.35 on arc 0 and moves at speed 1 to 0.85
    by T = 0.5, so it never reaches the junction. Each level's L1 error is
    then the heat-kernel smoothing of a unit jump, 2 sqrt(eps_eff T / pi),
    with eps_eff = eps (1 + 1/16 + 1/64): at h = eps/8 the upwind flux on
    arc 0 (speed 1) adds the numerical viscosity h/2 = eps/16, and backward
    Euler with dt = h/4 (half the spacing over the top speed 2) adds
    dt/2 = eps/64.

    The tolerance is set at eps 0.08, where the smoothing width sqrt(eps T)
    = 0.2 exceeds the front's distance 0.15 to the junction, so the arc's
    ends bend the profile most. There a conservative node row (ROADMAP
    item 1's prototype A) sits +0.92% from the prediction, prototype B
    -0.44%, and every finer level closer. The seed scheme sits +3.86%,
    +3.17% and +1.88% at the three coarsest levels. 1.5% passes A with a
    margin of more than half its worst deviation and fails the seed.
    """
    spec, report, _ = viscosity_sweep
    tol = 0.015
    failures = [f"failed levels: {report.failures}"] if report.failures else []
    if len(report.rows) != len(spec.epsilons):
        failures.append(f"{len(report.rows)} of {len(spec.epsilons)} levels ran")
    deviations = []
    for row in report.rows:
        eps_eff = row.epsilon * (1.0 + 1.0 / 16.0 + 1.0 / 64.0)
        predicted = 2.0 * np.sqrt(eps_eff * spec.T / np.pi)
        deviations.append(row.l1_error_final_time / predicted - 1.0)
        if not abs(deviations[-1]) <= tol:
            failures.append(
                f"eps {row.epsilon}: {deviations[-1]:+.2%} from {predicted:.4f}"
            )
    _report(
        11,
        "each pinned level's error matches the heat-kernel smoothing of its jump",
        failures,
        f"deviations {[f'{d:+.2%}' for d in deviations]}, "
        f"tolerance {tol:.1%}",
    )


# its sampled data misses the node rows by about 1.5 on every level and is
# projected onto them, with this notice (ROADMAP item 8)
@pytest.mark.filterwarnings("ignore:initial data violates the discrete node conditions")
def test_12_junction_active_sweep_runs_every_level_clean():
    """The 4-arc sweep whose incoming data reaches the junction before T.

    Its errors are reported, not gated: under ROADMAP item 1's defect they
    grow as epsilon drops, and at eps 0.02 the march dips to -2.5e-3
    (item 9), so neither a contraction nor a positivity bound holds yet.
    """
    spec, report, elapsed = run_experiment("junction_sweep")
    failures = [f"failed levels: {report.failures}"] if report.failures else []
    if [row.epsilon for row in report.rows] != list(spec.epsilons):
        failures.append(f"levels {[row.epsilon for row in report.rows]}")
    non_finite = [row.epsilon for row in report.rows if not np.all(np.isfinite(astuple(row)))]
    if non_finite:
        failures.append(f"non-finite cells at eps {non_finite}")
    worst = max((row.flux_residual_max for row in report.rows), default=0.0)
    if not worst <= 1e-10:
        failures.append(f"flux residual {worst:.3e}")
    _report(
        12,
        "the junction-active sweep runs every level with a balanced junction",
        failures,
        f"L1 errors {[f'{row.l1_error_final_time:.4f}' for row in report.rows]}, "
        f"node-trace errors {[f'{row.node_trace_l1_error:.4f}' for row in report.rows]}, "
        f"worst |residual| {worst:.1e}, {elapsed:.1f}s",
    )
