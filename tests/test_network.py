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
    alpha_from_k,
    build_network,
    compute_gamma,
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
    assert validate_assumptions(net, near).holds_sign_symmetry
    alpha_from_k(near)
    assert compute_gamma(net, near).gamma[0, 0] == pytest.approx(1.0, abs=1e-14)

    skewed = CouplingMatrix.from_array([[0.0, scale], [3.0 * scale, 0.0]], net)
    report = validate_assumptions(net, skewed)
    assert not report.holds_sign_symmetry
    assert any("asymmetry" in msg for msg in report.messages)
    with pytest.raises(AssumptionViolated, match="asymmetry"):
        alpha_from_k(skewed)
    with pytest.raises(AssumptionViolated, match="asymmetry"):
        compute_gamma(net, skewed)


def test_coupling_matrix_shape_validation():
    net = simple_star([1.0], [1.0])
    with pytest.raises(DimensionMismatch):
        CouplingMatrix.from_array(np.zeros((3, 3)), net)
    with pytest.raises(DimensionMismatch):
        CouplingMatrix.from_array(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        CouplingMatrix.from_array([[0.0, np.nan], [np.nan, 0.0]])


def test_validate_assumptions_all_hold():
    rng = np.random.default_rng(11)
    net = random_network(rng)
    K = random_coupling(rng, net)
    report = validate_assumptions(net, K)
    assert report.holds_sign_symmetry
    assert report.holds_incoming_linked
    assert report.holds_outgoing_linked
    assert report.messages == ()


def test_validate_assumptions_flags_unlinked_sides():
    # arc 0 incoming couples only within its side: incoming link missing
    net = simple_star([1.0, 1.0], [1.0])
    K = CouplingMatrix.from_array(
        [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], net
    )
    report = validate_assumptions(net, K)
    assert report.holds_sign_symmetry
    assert not report.holds_incoming_linked
    assert report.holds_outgoing_linked

    # outgoing arc 2 isolated instead
    net2 = simple_star([1.0], [1.0, 1.0])
    K2 = CouplingMatrix.from_array(
        [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], net2
    )
    report2 = validate_assumptions(net2, K2)
    assert report2.holds_incoming_linked
    assert not report2.holds_outgoing_linked
    assert report2.messages == ("outgoing arcs [2] have no incoming coupling",)

    # an asymmetric K: each side is judged by its own rows
    K3 = CouplingMatrix.from_array(
        [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], net
    )
    report3 = validate_assumptions(net, K3)
    assert not report3.holds_incoming_linked
    assert not report3.holds_outgoing_linked
    assert report3.messages[1:] == (
        "incoming arcs [1] have no outgoing coupling",
        "outgoing arcs [2] have no incoming coupling",
    )


def test_validate_assumptions_flags_sign_breaks():
    net = simple_star([1.0], [1.0])
    report = validate_assumptions(
        net, CouplingMatrix.from_array([[0.0, -0.5], [-0.5, 0.0]], net)
    )
    assert not report.holds_sign_symmetry
    assert any("negative" in msg for msg in report.messages)
