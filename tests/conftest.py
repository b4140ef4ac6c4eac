"""Shared builders for networks and admissible couplings, the reference
implicit step, numpy's pairwise summation depth, and where the
checked-in experiments live."""

from __future__ import annotations

from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from starflux import CouplingMatrix, build_network
from starflux.grids import Grid
from starflux.network import StarNetwork, alpha_from_k

ROOT = Path(__file__).resolve().parents[1]
#: the checked-in sweeps, one directory of JSON documents each
EXPERIMENTS = ROOT / "experiments"

#: silences assemble_step_operator's UnstableConfig warning for a step
#: whose positivity certificate fails (StepOperator.positive), which
#: random_coupling's stars draw often; the tests that march or solve on
#: such stars do not depend on positivity
ignore_uncertified_step = pytest.mark.filterwarnings("ignore:the junction Schur complement")


def pairwise_depth(n):
    """Most roundings a term meets in numpy's pairwise sum of n terms
    (pairwise_sum in numpy's loops_utils.h.src): one by one below 8; to
    128, 8 running sums of every 8th term added in 3 levels, then the
    n % 8 left; above, two halves cut at a multiple of 8."""
    if n < 8:
        return n
    if n <= 128:
        return n // 8 + 2 + n % 8
    half = n // 2 - (n // 2) % 8
    return 1 + max(pairwise_depth(half), pairwise_depth(n - half))


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


class ReferenceStep:
    """One implicit step, written out in grid order, arc by arc, from net,
    alpha_from_k(K), the spacings, eps and dt, and nothing of
    starflux.parabolic: matrix @ u = rhs_scale * u_old.

    x runs along the flow: an incoming arc ends at the junction, an
    outgoing one starts there. node, inner and outer are each arc's
    junction point, its neighbour into the arc and its outer end, as grid
    positions; beta is +1 on incoming and -1 on outgoing arcs. Interior
    rows read (u - u_old)/dt + speed*u_x = eps*u_xx, upwind and central;
    outer rows u = u_old; node rows alpha[i] @ u_node = beta_i * F_i,
    F_i = speed_i*u_node_i - eps*beta_i*(u_node_i - u_inner_i)/h_i.
    """

    def __init__(self, net: StarNetwork, K: CouplingMatrix, grid: Grid, eps: float, dt: float):
        self.net, self.grid, self.eps, self.dt = net, grid, eps, dt
        self.alpha = alpha_from_k(K)
        incoming = np.array([arc.incoming for arc in net.arcs])
        first = np.asarray(grid.offsets[:-1])
        last = first + np.asarray(grid.cells)
        self.beta = np.where(incoming, 1.0, -1.0)
        self.node = np.where(incoming, last, first)
        self.inner = np.where(incoming, last - 1, first + 1)
        self.outer = np.where(incoming, first, last)
        self.rhs_scale = np.full(grid.offsets[-1], 1.0 / dt)
        self.rhs_scale[self.outer] = 1.0
        self.rhs_scale[self.node] = 0.0

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense step matrix, built on first read."""
        A = np.zeros((self.grid.offsets[-1],) * 2)
        A[self.outer, self.outer] = 1.0
        for i, arc in enumerate(self.net.arcs):
            h = self.grid.spacings[i]
            k = np.arange(self.grid.offsets[i] + 1, self.grid.offsets[i + 1] - 1)
            adv, dif = arc.speed / h, self.eps / (h * h)
            A[k, k - 1] = -(adv + dif)
            A[k, k] = 1.0 / self.dt + adv + 2.0 * dif
            A[k, k + 1] = -dif
            eh, row = self.eps / h, self.node[i]
            A[row, self.node] = self.alpha[i]
            A[row, row] = (self.alpha[i, i] - self.beta[i] * arc.speed) + eh
            A[row, self.inner[i]] = -eh
        return A

    def flux_residual(self, flat: np.ndarray) -> float:
        """sum_i beta_i * F_i of the grid-order values flat, arc after arc."""
        total = 0.0
        for i, arc in enumerate(self.net.arcs):
            u, v, b = flat[self.node[i]], flat[self.inner[i]], self.beta[i]
            total += b * (arc.speed * u - self.eps * b * ((u - v) / self.grid.spacings[i]))
        return float(total)
