"""Node system assembly, M-matrix certification, transmission weights."""

from __future__ import annotations

import dataclasses
import re
import warnings

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
from starflux.transmission import (
    PIVOT_RTOL,
    MCertificate,
    _components,
    _lu_invert,
    _same_block,
)


def connected_components(q):
    """compute_gamma's components of q's pattern, as sorted index lists."""
    return [comp.tolist() for comp in _components(_same_block(q))]


def lu_reference(sub):
    """Block inverse and determinant from lu_factor + lu_solve.

    The getrf/getrs pair that one gesv call runs; kept as the reference
    the certificate must match bit for bit.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(sub, check_finite=False)
    udiag = np.diag(lu)
    threshold = PIVOT_RTOL * max(np.max(np.abs(np.diag(sub))), 1e-300)
    if np.min(np.abs(udiag)) < threshold:
        raise SingularMatrix(
            f"node system pivot {np.min(np.abs(udiag)):.3e} below threshold "
            f"{threshold:.3e}"
        )
    sign = 1.0 if np.sum(piv != np.arange(len(piv))) % 2 == 0 else -1.0
    inv = scipy.linalg.lu_solve((lu, piv), np.eye(sub.shape[0]), check_finite=False)
    return inv, sign * float(np.prod(udiag))


def bfs_components(q):
    """Components of the symmetrized off-diagonal pattern by breadth-first
    search from each unvisited unknown in order, each sorted."""
    linked = (np.abs(q) + np.abs(q.T)) > 0.0
    np.fill_diagonal(linked, False)
    seen = np.zeros(q.shape[0], dtype=bool)
    comps = []
    for start in range(q.shape[0]):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in np.flatnonzero(linked[v]):
                if not seen[w]:
                    seen[w] = True
                    stack.append(int(w))
        comps.append(sorted(comp))
    return comps


def certify_reference(q):
    """The certificate computed rule by rule, block by block."""
    scale = max(float(np.max(np.abs(q))), 1e-300)
    tol = 1e-12 * scale
    offdiag = q - np.diag(np.diag(q))
    sign_ok = bool(np.all(offdiag <= tol) and np.all(np.diag(q) >= -tol))
    margins = np.diag(q) - np.sum(np.abs(offdiag), axis=1)
    comps = bfs_components(q)
    inverse = np.zeros_like(q)
    det = 1.0
    for comp in comps:
        idx = np.asarray(comp)
        sub_inv, sub_det = lu_reference(q[np.ix_(idx, idx)])
        inverse[np.ix_(idx, idx)] = sub_inv
        det *= sub_det
    min_entry = float(np.min(inverse))
    inv_scale = max(float(np.max(np.abs(inverse))), 1e-300)
    return MCertificate(
        irreducible=len(comps) == 1,
        sign_pattern_ok=sign_ok,
        gershgorin_ok=bool(np.all(margins >= -tol)),
        every_block_strict=all(np.any(margins[np.asarray(c)] > tol) for c in comps),
        det=det,
        inverse_nonneg=min_entry >= -1e-12 * inv_scale,
        inverse=inverse,
    )


def assert_bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_certificate_matches_reference(q):
    """certify_m_matrix equals the reference bit for bit, or raises the
    same SingularMatrix message."""
    try:
        ref = certify_reference(q)
    except SingularMatrix as exc:
        with pytest.raises(SingularMatrix, match=f"^{re.escape(str(exc))}$"):
            certify_m_matrix(q)
        return None
    cert = certify_m_matrix(q)
    for field in dataclasses.fields(MCertificate):
        got, want = getattr(cert, field.name), getattr(ref, field.name)
        assert type(got) is type(want), field.name
        assert_bitwise_equal(got, want)
    return cert


def union_of_stars(rng, parts):
    """``parts`` random stars joined at one node, K block-diagonal."""
    subs = []
    for _ in range(parts):
        sub = random_network(rng, m_max=6)
        subs.append((sub, random_coupling(rng, sub)))
    specs = [(a.length, a.speed, "in" if a.incoming else "out") for sub, _ in subs for a in sub.arcs]
    net = build_network(specs)
    k = scipy.linalg.block_diag(*(sub_k.k for _, sub_k in subs))
    return net, CouplingMatrix.from_array(k, net), subs


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
    net, K, subs = union_of_stars(np.random.default_rng(seed), parts)
    ts = compute_gamma(net, K)
    q = assemble_q(net, alpha_from_k(K))
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
        if q[np.ix_(place, place)].tobytes() == sub_q.tobytes():
            assert block.tobytes() == sub_gamma.tobytes()
        assert not np.any(rows[:, :in_at]) and not np.any(rows[:, in_at + sub_inc :])
        in_at, out_at = in_at + sub_inc, out_at + sub_out
    assert connected_components(q) == sorted(expected_comps)


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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), parts=st.integers(1, 3))
def test_certificate_matches_lu_factor_reference(seed, parts):
    """One gesv per block gives the lu_factor/lu_solve certificate bit for bit.

    Single stars (parts = 1) and the reducible unions above: inverse,
    det with its sign, every flag, and the condition indicator.
    """
    net, K, _ = union_of_stars(np.random.default_rng(seed), parts)
    ts = compute_gamma(net, K)
    q = assemble_q(net, alpha_from_k(K))
    ref = certify_reference(q)
    assert_certificate_matches_reference(q)
    cond = float(np.max(np.abs(q)) * np.max(np.abs(ref.inverse)))
    assert_bitwise_equal(ts.condition_indicator, cond)


@pytest.mark.parametrize(
    "block",
    [
        [[1e-3, 1.0], [1.0, 1.0]],  # one row swap: det < 0
        [[0.0, 2.0, 1.0], [1.0, 0.5, 3.0], [4.0, 1.0, 0.25]],  # two swaps
        [[2.0, 3.0, 1.0], [4.0, 1.0, 5.0], [8.0, 2.0, 2.0]],
        [[1.0, 1.0], [1.0, 1.0]],  # exact zero pivot: LAPACK info > 0
        [[1.0, 1.0], [1.0, 1.0 + 2.0**-44]],  # pivot 5.7e-14, below PIVOT_RTOL
        [[1.0, 1.0], [1.0, 1.0 + 2.0**-43]],  # pivot 1.1e-13, just above
    ],
)
def test_lu_invert_matches_reference_on_pivoting_blocks(block):
    """Blocks that are no M-matrix force row pivoting, and a singular
    block raises the reference's message; whole certificates agree too."""
    sub = np.array(block)
    try:
        inv, det = lu_reference(sub)
    except SingularMatrix as exc:
        with pytest.raises(SingularMatrix, match=f"^{re.escape(str(exc))}$"):
            _lu_invert(sub)
    else:
        got_inv, got_det = _lu_invert(sub)
        assert_bitwise_equal(got_inv, inv)
        assert_bitwise_equal(got_det, det)
        assert got_det == pytest.approx(np.linalg.det(sub), rel=1e-12)
    cert = assert_certificate_matches_reference(sub)
    assert cert is None or not cert.m_matrix_ok


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 12),
    density=st.floats(0.0, 0.6),
    seed=st.integers(0, 2**32 - 1),
)
def test_connected_components_match_breadth_first_search(n, density, seed):
    """Same components in the same order as a search, on patterns that
    need not be symmetric, with isolated unknowns and signed entries."""
    rng = np.random.default_rng(seed)
    q = np.where(rng.uniform(size=(n, n)) < density, rng.normal(size=(n, n)), 0.0)
    assert connected_components(q) == bfs_components(q)
