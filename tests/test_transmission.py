"""Node system assembly, M-matrix certification, transmission weights."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cross_ones_coupling, random_coupling, random_network, simple_star
from starflux import (
    AssumptionViolated,
    CouplingMatrix,
    SingularMatrix,
    alpha_from_k,
    assemble_q,
    build_network,
    certify_m_matrix,
    compute_gamma,
)
from starflux.transmission import connected_components


def two_arc_system(k: float, lam_out: float):
    net = simple_star([1.0], [lam_out])
    K = CouplingMatrix.from_array([[0.0, k], [k, 0.0]], net)
    return net, K


def test_assemble_q_frozen_two_arcs():
    """Single coupled pair: Q = [[k, -k], [-k, k + speed]], det = k*speed."""
    net, K = two_arc_system(2.0, 3.0)
    q = assemble_q(net, alpha_from_k(K))
    np.testing.assert_array_equal(q, [[2.0, -2.0], [-2.0, 5.0]])
    cert = certify_m_matrix(q)
    assert cert.det == pytest.approx(6.0, abs=1e-14)


def test_assemble_q_orders_incoming_before_outgoing():
    # arcs interleaved: out, in, out, in
    net_specs = [(1.0, 1.0, "out"), (1.0, 2.0, "in"), (1.0, 3.0, "out"), (1.0, 4.0, "in")]
    from starflux import build_network

    net = build_network(net_specs)
    K = cross_ones_coupling(net)
    q = assemble_q(net, alpha_from_k(K))
    assert net.incoming_ids + net.outgoing_ids == (1, 3, 0, 2)
    # outgoing rows get their speed added on the diagonal
    np.testing.assert_allclose(np.diag(q), [2.0, 2.0, 2.0 + 1.0, 2.0 + 3.0])
    np.testing.assert_allclose(q, q.T)


def test_q_gershgorin_margins():
    """Incoming rows are dominant with equality, outgoing rows by the speed."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        net = random_network(rng)
        K = random_coupling(rng, net)
        q = assemble_q(net, alpha_from_k(K))
        off = np.sum(np.abs(q - np.diag(np.diag(q))), axis=1)
        margins = np.diag(q) - off
        n_inc = len(net.incoming_ids)
        np.testing.assert_allclose(margins[:n_inc], 0.0, atol=1e-12)
        out_speeds = [net.arc(a).speed for a in net.outgoing_ids]
        np.testing.assert_allclose(margins[n_inc:], out_speeds, rtol=1e-12)


def test_certify_m_matrix_flags_and_inverse():
    rng = np.random.default_rng(5)
    for _ in range(20):
        net = random_network(rng)
        K = random_coupling(rng, net)
        q = assemble_q(net, alpha_from_k(K))
        cert = certify_m_matrix(q)
        assert cert.sign_pattern_ok
        assert cert.gershgorin_ok
        assert cert.every_block_strict
        assert cert.det > 0.0
        assert cert.inverse_nonneg
        assert cert.m_matrix_ok
        resid = cert.inverse @ q - np.eye(net.m)
        scale = max(1.0, np.max(np.abs(q)) * np.max(np.abs(cert.inverse)))
        assert np.max(np.abs(resid)) <= 1e-10 * scale


def test_certify_m_matrix_rejects_singular_block():
    # uncoupled incoming arc produces a zero pivot
    net = simple_star([1.0, 1.0], [1.0])
    K = CouplingMatrix.from_array(
        [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]], net
    )
    q = assemble_q(net, alpha_from_k(K))
    with pytest.raises(SingularMatrix):
        certify_m_matrix(q)


def test_compute_gamma_frozen_two_in_two_out():
    """Symmetric 2+2 star with unit cross couplings splits flux evenly."""
    net = simple_star([1.0, 1.0], [1.0, 1.0])
    ts = compute_gamma(net, cross_ones_coupling(net))
    np.testing.assert_allclose(ts.gamma, 0.5 * np.ones((2, 2)), atol=1e-14)
    assert ts.certificates.irreducible
    assert ts.certificates.gershgorin_ok
    assert ts.certificates.m_matrix_ok
    assert ts.certificates.det > 0.0
    # node response to unit flux on the first incoming arc (hand-solved):
    # incoming weights first, then outgoing values
    response = ts.certificates.inverse @ np.array([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(response, [1.0, 0.5, 0.5, 0.5], atol=1e-14)


def test_compute_gamma_single_pair_is_exactly_one():
    for k, lam in [(2.0, 3.0), (0.3, 7.7), (5.0, 0.1)]:
        net, K = two_arc_system(k, lam)
        ts = compute_gamma(net, K)
        assert abs(ts.gamma[0, 0] - 1.0) <= 1e-14


def test_gamma_invariants_random():
    rng = np.random.default_rng(17)
    for _ in range(50):
        net = random_network(rng)
        K = random_coupling(rng, net)
        ts = compute_gamma(net, K)
        assert np.all(ts.gamma >= 0.0)
        np.testing.assert_allclose(ts.gamma.sum(axis=0), 1.0, atol=1e-10)
        z = ts.certificates.inverse
        np.testing.assert_allclose(z, z.T, atol=1e-10 * np.max(np.abs(z)))
        assert ts.condition_indicator > 0.0


def test_gamma_invariant_under_joint_scaling():
    """Doubling K and all speeds leaves the weights unchanged."""
    rng = np.random.default_rng(23)
    net = random_network(rng)
    K = random_coupling(rng, net)
    ts = compute_gamma(net, K)

    from starflux import build_network

    scaled_specs = [
        (a.length, 2.0 * a.speed, "in" if a.incoming else "out") for a in net.arcs
    ]
    net2 = build_network(scaled_specs)
    K2 = CouplingMatrix.from_array(2.0 * K.k, net2)
    ts2 = compute_gamma(net2, K2)
    np.testing.assert_array_equal(ts.gamma, ts2.gamma)


def test_reducible_coupling_splits_into_blocks():
    """Two disjoint in/out pairs: block-diagonal weights, identity gamma."""
    net = simple_star([1.0, 2.0], [3.0, 4.0])
    K = CouplingMatrix.from_array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 2.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 2.0, 0.0, 0.0],
        ],
        net,
    )
    q = assemble_q(net, alpha_from_k(K))
    assert len(connected_components(q)) == 2
    ts = compute_gamma(net, K)
    np.testing.assert_allclose(ts.gamma, np.eye(2), atol=1e-14)
    assert not ts.certificates.irreducible
    assert ts.certificates.m_matrix_ok


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), parts=st.integers(2, 3))
def test_union_of_stars_solves_block_by_block(seed, parts):
    """Stars joined at one node with a block-diagonal K stay separate.

    Each sub-star's unknowns form their own components of Q, the cross
    blocks of gamma are exactly zero, and each diagonal block of gamma is
    the sub-star's own: bit for bit wherever the joined Q holds the
    sub-star's Q bit for bit, since each block is inverted on its own.
    Once a row of the joined K has 8 or more entries numpy sums it
    pairwise, so a diagonal of Q may round one ulp away from the
    sub-star's, and the blocks then agree to rounding.
    """
    rng = np.random.default_rng(seed)
    subs = []
    for _ in range(parts):
        sub = random_network(rng, m_max=6)
        subs.append((sub, random_coupling(rng, sub)))
    specs = [(a.length, a.speed, "in" if a.incoming else "out") for sub, _ in subs for a in sub.arcs]
    net = build_network(specs)
    k = scipy.linalg.block_diag(*(sub_k.k for _, sub_k in subs))
    ts = compute_gamma(net, CouplingMatrix.from_array(k, net))
    assert not ts.certificates.irreducible
    assert ts.certificates.m_matrix_ok

    n_inc = len(net.incoming_ids)
    expected_comps = []
    in_at, out_at = 0, 0
    for sub, sub_k in subs:
        sub_inc, sub_out = len(sub.incoming_ids), len(sub.outgoing_ids)
        # unknown r of the sub-star's Q is unknown place[r] of the joined Q
        place = list(range(in_at, in_at + sub_inc)) + list(
            range(n_inc + out_at, n_inc + out_at + sub_out)
        )
        sub_q = assemble_q(sub, alpha_from_k(sub_k))
        expected_comps += [[place[r] for r in c] for c in connected_components(sub_q)]

        rows = ts.gamma[out_at : out_at + sub_out]
        block, sub_gamma = rows[:, in_at : in_at + sub_inc], compute_gamma(sub, sub_k).gamma
        np.testing.assert_allclose(block, sub_gamma, rtol=0.0, atol=1e-13)
        if ts.q[np.ix_(place, place)].tobytes() == sub_q.tobytes():
            assert block.tobytes() == sub_gamma.tobytes()
        assert not np.any(rows[:, :in_at]) and not np.any(rows[:, in_at + sub_inc :])
        in_at, out_at = in_at + sub_inc, out_at + sub_out
    assert connected_components(ts.q) == sorted(expected_comps)


def test_isolated_outgoing_arc_is_tolerated():
    """An outgoing arc with no couplings gets zero weight, sums still one."""
    net = simple_star([1.0], [1.0, 2.0])
    K = CouplingMatrix.from_array(
        [[0.0, 1.5, 0.0], [1.5, 0.0, 0.0], [0.0, 0.0, 0.0]], net
    )
    ts = compute_gamma(net, K)
    np.testing.assert_allclose(ts.gamma[:, 0], [1.0, 0.0], atol=1e-14)


def test_compute_gamma_requires_incoming_links():
    net = simple_star([1.0, 1.0], [1.0])
    K = CouplingMatrix.from_array(
        [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], net
    )
    with pytest.raises(AssumptionViolated):
        compute_gamma(net, K)


def test_sign_lemma_positive_coupling_gives_positive_weight():
    rng = np.random.default_rng(29)
    for _ in range(30):
        net = random_network(rng)
        K = random_coupling(rng, net)
        ts = compute_gamma(net, K)
        for lp, l in enumerate(net.outgoing_ids):
            for jp, j in enumerate(net.incoming_ids):
                if K.k[l, j] > 0.0:
                    assert ts.gamma[lp, jp] > 1e-14
