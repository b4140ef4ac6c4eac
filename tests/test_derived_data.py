"""Data each frozen object derives once: the same bits as a fresh object's,
read-only, and the coupling's sign rules checked once per matrix."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cross_ones_coupling, random_coupling, random_network, simple_star
from starflux import (
    ArcProfile,
    CouplingMatrix,
    PiecewiseConstantField,
    ResolventProblem,
    alpha_from_k,
    build_network,
    compute_gamma,
    make_grid,
    resolvent_forcing_field,
    solve_exact,
    solve_resolvent,
)
from starflux import network, transmission
from starflux.parabolic import resolvent, scheme
from starflux.parabolic.scheme import assemble_step_operator


def _copy_field(field: PiecewiseConstantField) -> PiecewiseConstantField:
    return PiecewiseConstantField(
        tuple(ArcProfile.from_lists(p.length, p.breakpoints, p.values) for p in field.arcs)
    )


def _outputs(net, K, u0, B, prob, epsilon, T) -> list[np.ndarray]:
    """Every number compute_gamma, solve_resolvent, residual_report and
    the exact snapshot hand back, in a fixed order."""
    system = compute_gamma(net, K)
    sol = solve_resolvent(net, K, epsilon, prob)
    snap = solve_exact(net, system.gamma, u0, B, T).snapshot(T)
    cert = system.certificates
    numbers = [system.gamma, system.condition_indicator]
    numbers += [getattr(cert, field.name) for field in dataclasses.fields(cert)]
    numbers += [
        getattr(sol, name)
        for name in ("a1", "a2", "edges", "g", "c", "d", "alpha", "h_rhs", "dominance_margins")
    ]
    numbers += list(dataclasses.astuple(sol.residual_report()))
    numbers += [a for p in snap.arcs for a in (p.breakpoints, p.values)]
    return [np.asarray(x) for x in numbers]


def _bits(arrays: list[np.ndarray]) -> list[tuple]:
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8), linked=st.booleans())
def test_filled_caches_give_the_bits_of_fresh_objects(seed, m, linked):
    """Results from a network, coupling and fields whose derived data is
    already built equal, bit for bit, those from equal objects built
    afresh and from pickled copies; reducible couplings (linked False)
    take the node matrix's block-by-block path. Every derived array is
    read-only, in a pickled copy too, whose own arrays stay read-only."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, m_min=m, m_max=m)
    K = random_coupling(rng, net, ensure_outgoing_linked=linked)
    u0 = resolvent_forcing_field(net, rng)
    B = rng.uniform(0.0, 1.0, m)
    prob = ResolventProblem.build(
        float(rng.uniform(0.2, 3.0)), resolvent_forcing_field(net, rng), rng.uniform(-1.0, 1.0, m)
    )
    epsilon, T = float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.1, 2.0))

    _outputs(net, K, u0, B, prob, epsilon, T)  # fills every cache
    warm = _outputs(net, K, u0, B, prob, epsilon, T)
    fresh_net = build_network(
        [(a.length, a.speed, "in" if a.incoming else "out") for a in net.arcs]
    )
    fresh_prob = ResolventProblem.build(prob.theta, _copy_field(prob.f), prob.boundary)
    cold = _outputs(
        fresh_net, CouplingMatrix.from_array(K.k, fresh_net), _copy_field(u0), B.copy(),
        fresh_prob, epsilon, T,
    )
    assert _bits(warm) == _bits(cold)

    copies = pickle.loads(pickle.dumps((net, K, u0, B, prob)))
    assert _bits(_outputs(*copies, epsilon, T)) == _bits(warm)
    for net, K, prob in [(net, K, prob), (copies[0], copies[1], copies[4])]:
        derived = [net.speeds(), net.incoming, alpha_from_k(K), *prob.padded]
        derived += [K.k, prob.boundary]
        assert not any(a.flags.writeable for a in derived)


@pytest.mark.filterwarnings("ignore::starflux.UnstableConfig")
def test_one_coupling_checks_its_sign_rules_once(monkeypatch):
    """compute_gamma, solve_resolvent and assemble_step_operator on one K
    evaluate its sign rules once between them, while each still calls
    validate_assumptions and alpha_from_k through its own module."""
    net = simple_star([1.0, 3.0], [2.0, 0.5])
    K = cross_ones_coupling(net)
    forcing = resolvent_forcing_field(net, np.random.default_rng(5))
    prob = ResolventProblem.build(1.2, forcing, [0.4, -0.2, 0.9, 0.1])
    calls = []

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls.append(f"{owner.__name__}.{name}")
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(network, "_coupling_defects")
    for owner in (transmission, scheme):
        counted(owner, "validate_assumptions")
        counted(owner, "alpha_from_k")
    counted(resolvent, "alpha_from_k")

    compute_gamma(net, K)
    solve_resolvent(net, K, 0.3, prob)
    assemble_step_operator(net, K, make_grid(net, h=0.05), 0.3, 0.01)
    assert sorted(calls) == sorted([
        "starflux.network._coupling_defects",
        "starflux.transmission.validate_assumptions",
        "starflux.transmission.alpha_from_k",
        "starflux.parabolic.resolvent.alpha_from_k",
        "starflux.parabolic.scheme.validate_assumptions",
        "starflux.parabolic.scheme.alpha_from_k",
    ])
