"""Network construction, exchange matrix, and assumption checks."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import random_coupling, random_network, simple_star
from starflux import (
    AssumptionViolated,
    CouplingMatrix,
    DimensionMismatch,
    EmptySide,
    NonPositiveParameter,
    PiecewiseConstantField,
    ResolventProblem,
    SolverConfig,
    alpha_from_k,
    build_compatible,
    build_network,
    compute_gamma,
    solve_parabolic,
    solve_resolvent,
    validate_assumptions,
)


def test_build_network_assigns_ids_in_order():
    net = build_network(
        [
            (2.0, 1.5, "in"),
            (1.0, 3.0, "out"),
            (0.5, 0.7, "in"),
        ]
    )
    assert net.m == 3
    assert net.incoming_ids == (0, 2)
    assert net.outgoing_ids == (1,)
    assert net.arc(0).node_position == 2.0
    assert net.arc(0).outer_position == 0.0
    assert net.arc(1).node_position == 0.0
    assert net.arc(1).outer_position == 1.0
    np.testing.assert_allclose(net.speeds(), [1.5, 3.0, 0.7])


def test_build_network_rejects_one_sided_stars():
    with pytest.raises(EmptySide):
        build_network([(1.0, 1.0, "in"), (1.0, 2.0, "in")])
    with pytest.raises(EmptySide):
        build_network([(1.0, 1.0, "out")])


def test_build_network_rejects_bad_parameters():
    with pytest.raises(NonPositiveParameter):
        build_network([(0.0, 1.0, "in"), (1.0, 1.0, "out")])
    with pytest.raises(NonPositiveParameter):
        build_network([(1.0, -2.0, "in"), (1.0, 1.0, "out")])
    with pytest.raises(DimensionMismatch):
        build_network([(1.0, 1.0, "sideways"), (1.0, 1.0, "out")])


def test_alpha_from_k_frozen_three_arcs():
    """Hand-checked exchange matrix for a 3-arc coupling."""
    net = simple_star([1.0], [1.0, 1.0])
    K = CouplingMatrix.from_array(
        [[0.0, 1.0, 2.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], net
    )
    alpha = alpha_from_k(K)
    expected = np.array(
        [[3.0, -1.0, -2.0], [-1.0, 1.0, 0.0], [-2.0, 0.0, 2.0]]
    )
    np.testing.assert_array_equal(alpha, expected)


def test_alpha_rows_and_columns_sum_to_zero():
    rng = np.random.default_rng(7)
    for _ in range(25):
        net = random_network(rng)
        K = random_coupling(rng, net)
        alpha = alpha_from_k(K)
        np.testing.assert_allclose(alpha.sum(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(alpha.sum(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(alpha, alpha.T, atol=1e-12)
        off = alpha - np.diag(np.diag(alpha))
        assert np.all(off <= 0.0)
        assert np.all(np.diag(alpha) >= 0.0)


def test_alpha_from_k_rejects_bad_couplings():
    net = simple_star([1.0], [1.0])
    with pytest.raises(AssumptionViolated):
        alpha_from_k(CouplingMatrix.from_array([[0.0, -1.0], [-1.0, 0.0]], net))
    with pytest.raises(AssumptionViolated):
        alpha_from_k(CouplingMatrix.from_array([[0.0, 1.0], [2.0, 0.0]], net))
    with pytest.raises(AssumptionViolated):
        alpha_from_k(CouplingMatrix.from_array([[1.0, 1.0], [1.0, 0.0]], net))


@pytest.mark.parametrize("scale", [1e-13, 1.0, 1e6])
def test_symmetry_rule_is_relative_to_the_scale_of_k(scale):
    """Asymmetry counts relative to max|K|, so scaling K and the speeds
    together, which leaves gamma unchanged, leaves the verdict unchanged."""
    net = simple_star([scale], [scale])
    near = CouplingMatrix.from_array(
        [[0.0, scale], [scale * (1.0 + 1e-15), 0.0]], net
    )
    validate_assumptions(net, near)
    alpha_from_k(near)
    assert compute_gamma(net, near).gamma[0, 0] == pytest.approx(1.0, abs=1e-14)

    skewed = CouplingMatrix.from_array([[0.0, scale], [3.0 * scale, 0.0]], net)
    for check in (validate_assumptions, compute_gamma):
        with pytest.raises(AssumptionViolated, match=r"^asymmetry .* times max\|K\|$"):
            check(net, skewed)
    with pytest.raises(AssumptionViolated, match="asymmetry"):
        alpha_from_k(skewed)


def test_coupling_matrix_shape_validation():
    net = simple_star([1.0], [1.0])
    with pytest.raises(DimensionMismatch):
        CouplingMatrix.from_array(np.zeros((3, 3)), net)
    with pytest.raises(DimensionMismatch):
        CouplingMatrix.from_array(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        CouplingMatrix.from_array([[0.0, np.nan], [np.nan, 0.0]])


def _zero_data(net):
    return PiecewiseConstantField.constant(net, [0.0] * net.m), [0.0] * net.m


ENTRY_POINTS = {
    "compute_gamma": compute_gamma,
    "solve_parabolic": lambda net, K: solve_parabolic(
        net, K, *_zero_data(net), SolverConfig(epsilon=0.1, T=0.1)
    ),
    "solve_resolvent": lambda net, K: solve_resolvent(
        net, K, 0.5, ResolventProblem.build(0.8, *_zero_data(net))
    ),
    "build_compatible": lambda net, K: build_compatible(
        *_zero_data(net), net, K, epsilon_n=0.125
    ),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_entry_points_reject_a_coupling_sized_for_another_network(entry):
    net = simple_star([1.0], [1.0, 1.0])
    K = CouplingMatrix.from_array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(
        DimensionMismatch, match="^matrix is 2x2 but the network has 3 arcs$"
    ):
        entry(net, K)


def test_validate_assumptions_all_hold():
    rng = np.random.default_rng(11)
    net = random_network(rng)
    assert validate_assumptions(net, random_coupling(rng, net)) is None

    # an isolated outgoing arc takes no flux, but the weights stay well posed
    net2 = simple_star([1.0], [1.0, 1.0])
    K2 = CouplingMatrix.from_array(
        [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], net2
    )
    validate_assumptions(net2, K2)


def test_validate_assumptions_rejects_unlinked_incoming_arcs():
    # arc 0 incoming couples only within its side: incoming link missing
    net = simple_star([1.0, 1.0], [1.0])
    K = CouplingMatrix.from_array(
        [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], net
    )
    with pytest.raises(
        AssumptionViolated, match=r"^incoming arcs \[0\] have no outgoing coupling$"
    ):
        validate_assumptions(net, K)

    # an asymmetric K: the links are read off the incoming rows, and the
    # message names every breach
    K3 = CouplingMatrix.from_array(
        [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], net
    )
    with pytest.raises(AssumptionViolated) as info:
        validate_assumptions(net, K3)
    asymmetry, unlinked = str(info.value).split("; ")
    assert asymmetry.startswith("asymmetry ")
    assert unlinked == "incoming arcs [1] have no outgoing coupling"


def test_validate_assumptions_rejects_sign_breaks():
    net = simple_star([1.0], [1.0])
    # a negative entry is no link either
    with pytest.raises(AssumptionViolated, match="^negative coupling entries; incoming"):
        validate_assumptions(
            net, CouplingMatrix.from_array([[0.0, -0.5], [-0.5, 0.0]], net)
        )
