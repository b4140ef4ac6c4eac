"""Shared builders for networks and admissible couplings."""

from __future__ import annotations

import numpy as np

from starflux import CouplingMatrix, build_network
from starflux.network import StarNetwork


def simple_star(
    in_speeds: list[float],
    out_speeds: list[float],
    in_lengths: list[float] | None = None,
    out_lengths: list[float] | None = None,
) -> StarNetwork:
    """Star with the incoming arcs first, unit lengths by default."""
    in_lengths = in_lengths or [1.0] * len(in_speeds)
    out_lengths = out_lengths or [1.0] * len(out_speeds)
    specs = [
        (L, lam, "in") for L, lam in zip(in_lengths, in_speeds)
    ] + [(L, lam, "out") for L, lam in zip(out_lengths, out_speeds)]
    return build_network(specs)


def random_network(
    rng: np.random.Generator,
    m_min: int = 2,
    m_max: int = 8,
    speed_low: float = 0.1,
    speed_high: float = 10.0,
) -> StarNetwork:
    """Random star with at least one arc on each side."""
    m = int(rng.integers(m_min, m_max + 1))
    n_inc = int(rng.integers(1, m))
    specs = []
    for i in range(m):
        specs.append(
            (
                float(rng.uniform(0.5, 2.0)),
                float(rng.uniform(speed_low, speed_high)),
                "in" if i < n_inc else "out",
            )
        )
    return build_network(specs)


def random_coupling(
    rng: np.random.Generator,
    net: StarNetwork,
    ensure_outgoing_linked: bool = True,
    extra_link_prob: float = 0.5,
) -> CouplingMatrix:
    """Symmetric nonnegative coupling with guaranteed cross-side links.

    Every incoming arc gets at least one positive coupling to an
    outgoing arc; optionally the converse too. Extra links (including
    within one side) are sprinkled at random.
    """
    m = net.m
    K = np.zeros((m, m))
    inc = list(net.incoming_ids)
    out = list(net.outgoing_ids)
    for i in inc:
        l = int(rng.choice(out))
        K[i, l] = K[l, i] = float(rng.uniform(0.2, 5.0))
    if ensure_outgoing_linked:
        for l in out:
            if not np.any(K[l, inc] > 0.0):
                i = int(rng.choice(inc))
                K[i, l] = K[l, i] = float(rng.uniform(0.2, 5.0))
    for a in range(m):
        for b in range(a + 1, m):
            if K[a, b] == 0.0 and rng.uniform() < extra_link_prob:
                K[a, b] = K[b, a] = float(rng.uniform(0.0, 3.0))
    return CouplingMatrix.from_array(K, net)


def cross_ones_coupling(net: StarNetwork) -> CouplingMatrix:
    """All-ones coupling across the junction, none within a side."""
    K = np.zeros((net.m, net.m))
    for i in net.incoming_ids:
        for l in net.outgoing_ids:
            K[i, l] = K[l, i] = 1.0
    return CouplingMatrix.from_array(K, net)


def cell_averages(profile, x: np.ndarray, h: float) -> np.ndarray:
    """Mean of a piecewise-constant profile over [x - h/2, x + h/2] cut to
    [0, length], summed piece by piece from each piece's overlap."""
    lo = np.maximum(x - 0.5 * h, 0.0)
    hi = np.minimum(x + 0.5 * h, profile.length)
    edges = np.concatenate([[0.0], profile.breakpoints, [profile.length]])
    overlap = np.minimum(hi[:, None], edges[1:]) - np.maximum(lo[:, None], edges[:-1])
    return np.clip(overlap, 0.0, None) @ profile.values / (hi - lo)
