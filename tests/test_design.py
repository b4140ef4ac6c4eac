"""Inverse design of couplings from prescribed split ratios."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import simple_star
from starflux import (
    DimensionMismatch,
    InvalidGamma,
    ProportionalTarget,
    TwoOutTarget,
    compute_gamma,
    design_proportional,
    design_two_outgoing,
    proportional_gamma_matrix,
    roundtrip_error,
    two_out_gamma_matrix,
)


def test_proportional_target_validation():
    ProportionalTarget((0.4, 0.6))
    with pytest.raises(InvalidGamma):
        ProportionalTarget((0.5, 0.6))
    with pytest.raises(InvalidGamma):
        ProportionalTarget((1.0, 0.0))
    with pytest.raises(DimensionMismatch):
        ProportionalTarget((1.0,))


def test_design_proportional_frozen_couplings():
    """Two incoming arcs, outgoing speeds (1, 2), target (0.4, 0.6).

    The feasibility bound gives magnitude 0.625 and couplings 0.5 / 0.6,
    worked out by hand.
    """
    net = simple_star([1.0, 1.0], [1.0, 2.0])
    K = design_proportional(net, ProportionalTarget((0.4, 0.6)))
    k = K.k
    for i in (0, 1):
        assert k[i, 2] == pytest.approx(0.5, abs=1e-15)
        assert k[i, 3] == pytest.approx(0.6, abs=1e-15)
    # no couplings inside either side
    assert k[0, 1] == 0.0 and k[2, 3] == 0.0
    np.testing.assert_array_equal(k, k.T)


def test_design_proportional_roundtrip_exact():
    net = simple_star([2.0, 0.5, 1.0], [1.0, 3.0, 0.7])
    target = ProportionalTarget((0.2, 0.5, 0.3))
    K = design_proportional(net, target)
    err = roundtrip_error(net, K, proportional_gamma_matrix(net, target))
    assert err <= 1e-12


def test_design_proportional_shape_checks():
    net = simple_star([1.0], [1.0, 1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        design_proportional(net, ProportionalTarget((0.5, 0.5)))


def test_design_two_outgoing_degenerate_coefficient():
    """One incoming arc, outgoing speeds (1, 3), target fraction 1/4.

    The linear system decouples from the trial magnitude here, so the
    first trial is accepted and the coupling to the first outgoing arc
    is exactly a third of the trial value.
    """
    net = simple_star([1.0], [1.0, 3.0])
    K = design_two_outgoing(net, TwoOutTarget((0.25,)))
    assert K.k[0, 2] == pytest.approx(1.0, abs=1e-15)
    assert K.k[0, 1] == pytest.approx(1.0 / 3.0, rel=1e-12)
    ts = compute_gamma(net, K)
    np.testing.assert_allclose(ts.gamma[:, 0], [0.25, 0.75], atol=1e-12)


def test_design_two_outgoing_equal_speeds_even_split():
    net = simple_star([1.0, 1.0], [2.0, 2.0])
    K = design_two_outgoing(net, TwoOutTarget((0.5, 0.5)))
    for i in (0, 1):
        assert K.k[i, 2] == pytest.approx(K.k[i, 3], rel=1e-12)
    err = roundtrip_error(
        net, K, two_out_gamma_matrix(net, TwoOutTarget((0.5, 0.5)))
    )
    assert err <= 1e-12


def test_design_two_outgoing_halves_until_admissible():
    """A lopsided target forces several halvings before X lands in (0,1)."""
    net = simple_star([1.0, 1.0], [1.0, 1.0])
    target = TwoOutTarget((0.9, 0.1))
    K = design_two_outgoing(net, target)
    # the shared coupling is the halved trial value
    assert K.k[0, 3] == K.k[1, 3]
    assert K.k[0, 3] <= 0.1251
    err = roundtrip_error(net, K, two_out_gamma_matrix(net, target))
    assert err <= 1e-9


def test_design_two_outgoing_random_roundtrips():
    rng = np.random.default_rng(31)
    for _ in range(20):
        m_inc = int(rng.integers(1, 5))
        net = simple_star(
            list(rng.uniform(0.1, 10.0, m_inc)), list(rng.uniform(0.1, 10.0, 2))
        )
        target = TwoOutTarget(tuple(rng.uniform(0.05, 0.95, m_inc)))
        K = design_two_outgoing(net, target)
        err = roundtrip_error(net, K, two_out_gamma_matrix(net, target))
        assert err <= 1e-9


def test_design_two_outgoing_validation():
    net3 = simple_star([1.0], [1.0, 1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        design_two_outgoing(net3, TwoOutTarget((0.5,)))
    with pytest.raises(InvalidGamma):
        TwoOutTarget((1.5,))
