"""Exact transport solution: traces, node signals, snapshots."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import cross_ones_coupling, random_coupling, random_network, simple_star
from starflux import (
    ArcProfile,
    DimensionMismatch,
    InvalidGamma,
    PiecewiseConstantField,
    check_flux_conservation,
    compute_gamma,
    make_grid,
    solve_exact,
)
from starflux.errors import finite_above
from starflux.grids import new_state
from starflux.hyperbolic import GAMMA_INPUT_TOL, incoming_trace, l1_distance


def test_arc_profile_is_left_continuous():
    p = ArcProfile.from_lists(1.0, [0.25, 0.5], [5.0, 7.0, 9.0])
    assert p.evaluate(0.0) == 5.0
    assert p.evaluate(0.25) == 5.0
    assert p.evaluate(0.3) == 7.0
    assert p.evaluate(0.5) == 7.0
    assert p.evaluate(0.75) == 9.0
    np.testing.assert_array_equal(p.evaluate(np.array([0.1, 0.4, 0.9])), [5, 7, 9])
    assert p.total_variation() == 4.0


def test_arc_profile_validation():
    with pytest.raises(DimensionMismatch):
        ArcProfile.from_lists(1.0, [0.5], [1.0])
    with pytest.raises(DimensionMismatch):
        ArcProfile.from_lists(1.0, [0.0], [1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        ArcProfile.from_lists(1.0, [1.0], [1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        ArcProfile.from_lists(1.0, [0.6, 0.4], [1.0, 2.0, 3.0])


def test_profiles_and_signals_reject_non_1d_data():
    """Unchecked, a 2-d profile would pass and fail later in evaluate.

    Junction signals in time are profiles on [0, T], so one check
    covers both."""
    for b, v in (([[0.5]], [[1.0, 2.0]]), ([0.5], [[1.0, 2.0]]), (0.5, [1.0, 2.0])):
        with pytest.raises(DimensionMismatch, match="must be 1-d"):
            ArcProfile.from_lists(1.0, b, v)


def profile_rules_one_by_one(length, breakpoints, values):
    """ArcProfile.from_lists' checks one rule at a time, the reference."""
    finite_above(length, "length")
    b = np.asarray(breakpoints, dtype=float)
    v = np.asarray(values, dtype=float)
    if v.size != b.size + 1:
        raise DimensionMismatch(
            f"{b.size} breakpoints need {b.size + 1} values, got {v.size}"
        )
    if not (np.all(np.isfinite(b)) if b.size else True) or not np.all(np.isfinite(v)):
        raise DimensionMismatch("profile entries must be finite")
    if b.size:
        if np.any(b <= 0.0) or np.any(b >= length):
            raise DimensionMismatch(
                f"profile breakpoints must lie strictly inside (0, {length})"
            )
        if np.any(np.diff(b) <= 0.0):
            raise DimensionMismatch("profile breakpoints must strictly increase")


def gamma_rules_one_by_one(g):
    """solve_exact's transmission-weight checks one rule at a time."""
    if not np.all(np.isfinite(g)):
        raise InvalidGamma("transmission weights must be finite")
    if float(np.min(g, initial=0.0)) < -1e-12:
        raise InvalidGamma("transmission weights must be nonnegative")
    if float(np.max(np.abs(g.sum(axis=0) - 1.0), initial=0.0)) > GAMMA_INPUT_TOL:
        raise InvalidGamma("transmission columns must sum to one")


def verdict(fn, *args):
    """None when fn accepts, else the class and message it raises."""
    try:
        fn(*args)
    except Exception as exc:  # the class is part of the verdict
        return type(exc), str(exc)
    return None


def assert_same_verdict(new, ref, b, v, what):
    """The fused check accepts exactly what the reference accepted, on
    1-d data, and raises the reference's error otherwise. Non-1-d data
    the reference let through (or crashed on, as np.diff does on a
    scalar) now raises the 1-d rule."""
    one_d = np.ndim(b) == 1 and np.ndim(v) == 1
    if ref is not None and ref[0] is DimensionMismatch:
        assert new == ref
    elif ref is None and one_d:
        assert new is None
    else:
        assert new == (
            DimensionMismatch,
            f"{what} breakpoints and values must be 1-d, got shapes "
            f"{np.shape(b)} and {np.shape(v)}",
        )


special = st.sampled_from(
    [np.nan, np.inf, -np.inf, 0.0, -0.0, 0.5, 0.5, 1.0, 2.0, -1.0, 1e308, -1e308]
)
entries = st.one_of(special, st.floats(0.01, 0.74), st.floats(-0.5, 2.5))
shapes = st.one_of(
    hnp.array_shapes(min_dims=1, max_dims=1, min_side=0, max_side=5),
    hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
)


@st.composite
def piece_data(draw):
    """Breakpoints, often sorted, and values, often one more of them."""
    b = draw(hnp.arrays(float, draw(shapes), elements=entries))
    if draw(st.booleans()):
        b = np.sort(b, axis=-1) if b.ndim else b
    v_shape = draw(
        st.one_of(st.just((b.size + 1,)), st.just((1, b.size + 1)), shapes)
    )
    v = draw(hnp.arrays(float, v_shape, elements=entries))
    as_list = draw(st.booleans())
    return (b.tolist(), v.tolist()) if as_list else (b, v)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(data=piece_data(), length=st.sampled_from([1.0, 1, 2.0, 0.75]))
def test_piece_checks_match_the_rule_by_rule_reference(data, length):
    """NaN, inf, unsorted, duplicate and out-of-range breaks, empty, 0-d
    and 2-d arrays: same acceptance and the same class and message."""
    b, v = data
    new = verdict(ArcProfile.from_lists, length, b, v)
    assert_same_verdict(new, verdict(profile_rules_one_by_one, length, b, v), b, v, "profile")
    if new is None:
        p = ArcProfile.from_lists(length, b, v)
        assert p.length == float(length)
        assert p.breakpoints.tobytes() == np.asarray(b, dtype=float).tobytes()
        assert p.values.tobytes() == np.asarray(v, dtype=float).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    g=hnp.arrays(
        float,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=3),
        elements=st.one_of(
            st.sampled_from([np.nan, np.inf, -np.inf, -1e-12, -2e-12, 1e308]),
            st.floats(0.0, 1.0),
        ),
    ),
    scale=st.booleans(),
)
@example(g=np.array([[1e308], [1e308], [np.inf]]), scale=False)
def test_gamma_checks_match_the_rule_by_rule_reference(g, scale):
    """Non-finite, negative and non-stochastic weights, alone and mixed.

    The example holds an infinite weight beside two whose sum
    overflows: the column sums must not be formed for it.
    """
    if scale:  # columns scaled to sum to about one
        with np.errstate(all="ignore"):
            g = g / g.sum(axis=0)
    n_out, n_inc = g.shape
    net = simple_star([1.0] * n_inc, [1.0] * n_out)
    u0 = PiecewiseConstantField.constant(net, [0.0] * net.m)
    new = verdict(solve_exact, net, g, u0, [1.0] * net.m, 0.5)
    assert new == verdict(gamma_rules_one_by_one, g)


def test_incoming_trace_replays_profile_from_node_end():
    """Profile pieces reach the node newest-first, then the inflow value."""
    net = simple_star([2.0], [1.0])
    u0 = ArcProfile.from_lists(1.0, [0.25, 0.5], [5.0, 7.0, 9.0])
    tr = incoming_trace(net, 0, u0, B_i=3.0, T=10.0)
    np.testing.assert_allclose(tr.breakpoints, [0.25, 0.375, 0.5])
    np.testing.assert_array_equal(tr.values, [9.0, 7.0, 5.0, 3.0])
    assert tr.evaluate(0.1) == 9.0
    assert tr.evaluate(0.3) == 7.0
    assert tr.evaluate(0.45) == 5.0
    assert tr.evaluate(2.0) == 3.0


def test_incoming_trace_truncates_at_horizon():
    net = simple_star([2.0], [1.0])
    u0 = ArcProfile.from_lists(1.0, [0.25, 0.5], [5.0, 7.0, 9.0])
    tr = incoming_trace(net, 0, u0, B_i=3.0, T=0.3)
    np.testing.assert_allclose(tr.breakpoints, [0.25])
    np.testing.assert_array_equal(tr.values, [9.0, 7.0])


def test_solve_exact_single_pair_frozen():
    """1-in/1-out star, constant data 4 washing out to inflow 2."""
    net = simple_star([1.0], [2.0])
    ts = compute_gamma(net, cross_ones_coupling(net))
    u0 = PiecewiseConstantField(
        (
            ArcProfile.from_lists(1.0, [], [4.0]),
            ArcProfile.from_lists(1.0, [], [0.0]),
        )
    )
    sol = solve_exact(net, ts.gamma, u0, [2.0, 0.0], T=2.0)

    # node signal: flux 1*4 until t=1, then 1*2; outgoing speed 2 halves it
    np.testing.assert_allclose(sol.junction[1].breakpoints, [1.0])
    np.testing.assert_allclose(sol.junction[1].values, [2.0, 1.0])

    # incoming arc at t=0.4: inflow value behind x=0.4, data ahead
    assert sol.evaluate(0, 0.25, 0.4) == 2.0
    assert sol.evaluate(0, 0.75, 0.4) == 4.0
    # outgoing arc at t=0.4: node value 2 behind the front at x=0.8
    assert sol.evaluate(1, 0.5, 0.4) == 2.0
    assert sol.evaluate(1, 0.9, 0.4) == 0.0

    snap = sol.snapshot(0.4)
    np.testing.assert_allclose(snap.arcs[0].breakpoints, [0.4])
    np.testing.assert_array_equal(snap.arcs[0].values, [2.0, 4.0])
    np.testing.assert_allclose(snap.arcs[1].breakpoints, [0.8])
    np.testing.assert_array_equal(snap.arcs[1].values, [2.0, 0.0])

    assert check_flux_conservation(sol, np.linspace(0.01, 2.0, 37)) <= 1e-12


def test_evaluation_is_confined_to_the_horizon_and_the_arcs():
    """Past T the stored node signals stop, so evaluate refuses to guess.

    With T = 0.5 the inflow value 1 has not yet crossed the node; a
    solution to T = 3 shows it reaching x = 0.2 on the outgoing arc at
    t = 1.5, where the shorter solution used to answer 0.
    """
    net = simple_star([1.0], [1.0])
    ts = compute_gamma(net, cross_ones_coupling(net))
    u0 = PiecewiseConstantField.constant(net, [0.0, 0.0])
    assert solve_exact(net, ts.gamma, u0, [1.0, 0.0], T=3.0).evaluate(1, 0.2, 1.5) == 1.0

    sol = solve_exact(net, ts.gamma, u0, [1.0, 0.0], T=0.5)
    assert sol.evaluate(1, 1.0, 0.5) == 0.0
    for t in (1.5, -0.1, np.nan):
        with pytest.raises(DimensionMismatch, match="outside"):
            sol.evaluate(1, 0.2, t)
    for x in (-0.1, 1.1, np.nan, np.array([0.5, 1.5])):
        with pytest.raises(DimensionMismatch, match="outside"):
            sol.evaluate(0, x, 0.2)
    for t in (1.5, -0.1, np.nan):
        with pytest.raises(DimensionMismatch, match="outside"):
            sol.snapshot(t)


def test_solution_restarted_from_snapshot_matches():
    """Semigroup property: restarting at an intermediate time changes nothing."""
    net = simple_star([1.0, 2.0], [1.5, 0.5], [1.0, 1.3], [0.8, 1.0])
    ts = compute_gamma(net, cross_ones_coupling(net))
    u0 = PiecewiseConstantField(
        (
            ArcProfile.from_lists(1.0, [0.3, 0.7], [1.0, 0.2, 0.9]),
            ArcProfile.from_lists(1.3, [0.5], [0.6, 0.1]),
            ArcProfile.from_lists(0.8, [], [0.0]),
            ArcProfile.from_lists(1.0, [0.4], [0.3, 0.0]),
        )
    )
    B = np.array([0.8, 0.4, 0.0, 0.0])
    t1, t2 = 0.205, 0.41
    sol = solve_exact(net, ts.gamma, u0, B, T=1.0)
    restarted = solve_exact(net, ts.gamma, sol.snapshot(t1), B, T=1.0 - t1)

    grid = make_grid(net, h=1e-3)
    a, b = sol.snapshot(t2), restarted.snapshot(t2 - t1)
    gap = 0.0
    for i, h in enumerate(grid.spacings):
        mids = grid.midpoints(i)
        gap += h * float(np.sum(np.abs(a.arcs[i].evaluate(mids) - b.arcs[i].evaluate(mids))))
    assert gap <= 1e-12


def test_flux_conservation_random_times():
    net = simple_star([1.0, 3.0], [2.0, 0.7])
    ts = compute_gamma(net, cross_ones_coupling(net))
    rng = np.random.default_rng(41)
    profiles = []
    for arc in net.arcs:
        breaks = np.sort(rng.uniform(0.05, arc.length - 0.05, 3))
        vals = rng.uniform(-1.0, 2.0, 4)
        profiles.append(ArcProfile.from_lists(arc.length, breaks, vals))
    u0 = PiecewiseConstantField(tuple(profiles))
    sol = solve_exact(net, ts.gamma, u0, rng.uniform(0.0, 1.0, 4), T=3.0)
    assert check_flux_conservation(sol, rng.uniform(0.0, 3.0, 64)) <= 1e-12


def loop_flux_balance(sol, t_samples):
    """Per-time reference for check_flux_conservation: one scalar per trace."""
    ts = np.asarray(t_samples, dtype=float)
    arcs = list(zip(sol.net.arcs, sol.junction))
    worst = 0.0
    for t in ts:
        inflow = sum(
            float(arc.speed * tr.evaluate(t)) for arc, tr in arcs if arc.incoming
        )
        outflow = sum(
            float(arc.speed * nv.evaluate(t)) for arc, nv in arcs if not arc.incoming
        )
        worst = max(worst, abs(inflow - outflow))
    return worst


def random_solution(rng):
    """Exact solution on a random 2-8-arc star with 1-4 pieces per arc."""
    net = random_network(rng)
    gamma = compute_gamma(net, random_coupling(rng, net)).gamma
    profiles = []
    for arc in net.arcs:
        pieces = int(rng.integers(1, 5))
        breaks = np.sort(rng.uniform(0.1, 0.9, pieces - 1)) * arc.length
        values = rng.uniform(0.0, 2.0, pieces)
        profiles.append(ArcProfile.from_lists(arc.length, breaks, values))
    u0 = PiecewiseConstantField(tuple(profiles))
    T = float(rng.uniform(0.5, 3.0))
    return solve_exact(net, gamma, u0, rng.uniform(0.0, 1.0, net.m), T)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_flux_check_matches_per_time_loop_on_random_stars(seed):
    """All sample times in one pass give the per-time loop's value, bit for bit.

    The times include every trace and node breakpoint, where the
    left-continuous signals switch pieces, and times past the horizon.
    """
    rng = np.random.default_rng(seed)
    sol = random_solution(rng)
    T = sol.T
    switches = [s.breakpoints for s in sol.junction]
    ts = np.concatenate(
        [np.linspace(0.0, T, 31), rng.uniform(0.0, 2.0 * T, 16), *switches]
    )
    got = check_flux_conservation(sol, ts)
    want = loop_flux_balance(sol, ts)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert got <= 1e-9


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_junction_holds_incoming_traces_and_profiles_on_the_horizon(seed):
    """Each arc has one junction signal, a profile on [0, T]; an
    incoming arc's is its incoming_trace, bit for bit."""
    rng = np.random.default_rng(seed)
    sol = random_solution(rng)
    assert len(sol.junction) == sol.net.m
    for signal in sol.junction:
        assert isinstance(signal, ArcProfile)
        assert signal.length == sol.T
    for j in sol.net.incoming_ids:
        want = incoming_trace(sol.net, j, sol.u0.arcs[j], sol.B[j], sol.T)
        assert sol.junction[j].breakpoints.tobytes() == want.breakpoints.tobytes()
        assert sol.junction[j].values.tobytes() == want.values.tobytes()


def snapshot_reference(sol, t):
    """snapshot's breakpoints and values, candidates built one by one."""
    profiles = []
    for arc in sol.net.arcs:
        lam, L = arc.speed, arc.length
        cand = [b + lam * t for b in sol.u0.arcs[arc.id].breakpoints]
        cand.append(lam * t)
        if not arc.incoming:
            cand.extend(lam * (t - s) for s in sol.junction[arc.id].breakpoints)
        breaks = np.unique([c for c in cand if 0.0 < c < L])
        edges = np.concatenate([[0.0], breaks, [L]])
        mids = 0.5 * (edges[:-1] + edges[1:])
        profiles.append((breaks, np.asarray(sol.evaluate(arc.id, mids, t))))
    return profiles


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_snapshot_matches_pointwise_candidates_on_random_stars(seed):
    """Candidate breakpoints built as arrays give the same profiles, bit
    for bit, at 0, T, every node switch and random times."""
    rng = np.random.default_rng(seed)
    sol = random_solution(rng)
    switches = np.concatenate(
        [sol.junction[l].breakpoints for l in sol.net.outgoing_ids] + [[]]
    )
    for t in [0.0, sol.T, *switches[switches <= sol.T], *rng.uniform(0.0, sol.T, 4)]:
        snap = sol.snapshot(t)
        for got, (breaks, values) in zip(snap.arcs, snapshot_reference(sol, t)):
            assert got.breakpoints.tobytes() == breaks.tobytes()
            assert got.values.tobytes() == values.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    when=st.sampled_from(["start", "horizon", "drawn"]),
    fraction=st.floats(0.0, 1.0),
)
def test_snapshot_profiles_are_valid_by_construction(seed, when, fraction):
    """snapshot builds its profiles without from_lists; each one still
    passes from_lists unchanged, is read-only, and equals, bit for bit,
    evaluate at the midpoints of its pieces, at 0, T and a drawn time."""
    rng = np.random.default_rng(seed)
    sol = random_solution(rng)
    t = {"start": 0.0, "horizon": sol.T, "drawn": fraction * sol.T}[when]
    snap = sol.snapshot(t)
    for arc, got, (breaks, values) in zip(
        sol.net.arcs, snap.arcs, snapshot_reference(sol, t)
    ):
        assert got.length == arc.length
        checked = ArcProfile.from_lists(got.length, got.breakpoints, got.values)
        assert checked.breakpoints.tobytes() == got.breakpoints.tobytes()
        assert checked.values.tobytes() == got.values.tobytes()
        assert not got.breakpoints.flags.writeable
        assert not got.values.flags.writeable
        assert got.breakpoints.tobytes() == breaks.tobytes()
        assert got.values.tobytes() == values.tobytes()


def test_flux_check_rejects_bad_sample_times():
    """Times are checked before any signal is read; no times give 0.0."""
    net = simple_star([1.0], [2.0])
    ts = compute_gamma(net, cross_ones_coupling(net))
    u0 = PiecewiseConstantField.constant(net, [4.0, 0.0])
    sol = solve_exact(net, ts.gamma, u0, [2.0, 0.0], T=2.0)
    for bad in ([np.nan], [0.5, np.inf], [-np.inf]):
        with pytest.raises(DimensionMismatch, match="finite"):
            check_flux_conservation(sol, bad)
    for bad in ([[0.5, 1.0]], 0.5):
        with pytest.raises(DimensionMismatch, match="1-d"):
            check_flux_conservation(sol, bad)
    assert check_flux_conservation(sol, []) == 0.0


def test_l1_distance_between_constant_fields():
    """A constant state against a transport solution that stays 1: each
    arc adds its length times the gap."""
    net = simple_star([1.0], [1.0], [2.0], [1.0])
    ts = compute_gamma(net, cross_ones_coupling(net))
    ones_field = PiecewiseConstantField.constant(net, [1.0, 1.0])
    sol = solve_exact(net, ts.gamma, ones_field, [1.0, 1.0], 1.0)
    grid = make_grid(net, h=0.01)
    state = new_state(grid, [np.full(n + 1, v) for n, v in zip(grid.cells, [0.0, 3.0])])
    assert l1_distance(state, sol, t=0.0) == pytest.approx(2.0 * 1.0 + 1.0 * 2.0)
    ones = new_state(grid, [np.ones(n + 1) for n in grid.cells])
    assert l1_distance(ones, sol, t=0.5) == 0.0


def test_solve_exact_validation():
    net = simple_star([1.0], [1.0])
    u0 = PiecewiseConstantField.constant(net, [0.0, 0.0])
    with pytest.raises(InvalidGamma):
        solve_exact(net, np.array([[0.5]]), u0, [0.0, 0.0], T=1.0)
    with pytest.raises(InvalidGamma):
        solve_exact(net, np.array([[-0.2]]), u0, [0.0, 0.0], T=1.0)
    with pytest.raises(DimensionMismatch):
        solve_exact(net, np.array([[1.0]]), u0, [0.0], T=1.0)


def test_l1_distance_needs_the_grid_arcs_and_points():
    """An exact solution on another number of arcs than the state's grid
    is refused instead of compared on the common part, and so are a
    transport solution without a time and an exact side that is neither
    solution."""
    net2 = simple_star([1.0], [2.0])
    net3 = simple_star([1.0], [2.0, 0.5])
    grid2, grid3 = make_grid(net2, h=0.1), make_grid(net3, h=0.1)
    u0 = PiecewiseConstantField.constant(net3, [1.0, 0.0, 0.0])
    gamma = compute_gamma(net3, cross_ones_coupling(net3)).gamma
    oracle = solve_exact(net3, gamma, u0, [1.0, 0.0, 0.0], 1.0)
    state2 = new_state(grid2, [np.full(n + 1, 0.5) for n in grid2.cells])
    with pytest.raises(DimensionMismatch, match="^3 arcs for a grid of 2$"):
        l1_distance(state2, oracle, t=0.5)
    state3 = new_state(grid3, [np.full(n + 1, 0.5) for n in grid3.cells])
    with pytest.raises(DimensionMismatch, match="^comparing a solution needs a time t$"):
        l1_distance(state3, oracle)
    with pytest.raises(DimensionMismatch, match="^cannot take midpoint values"):
        l1_distance(state3, u0)
    # at t = 0 the oracle is u0, 0.5 away from the state on every arc
    assert l1_distance(state3, oracle, t=0.0) == pytest.approx(0.5 * 3.0)
