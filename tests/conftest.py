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
    positions; incoming flags the incoming arcs. Every row reads one
    flux rule: through the interface between points k and k+1 of arc i,
    flux(i, u_k, u_k1) = p*u_k - q*u_k1, p = speed + eps/h, q = eps/h.
    Interior rows read (u_k - u_old_k)/dt + (F_{k+1/2} - F_{k-1/2})/h = 0;
    outer rows u = u_old; node rows alpha[i] @ u_node = beta_i * G_i
    (node_coefficients).
    """

    def __init__(self, net: StarNetwork, K: CouplingMatrix, grid: Grid, eps: float, dt: float):
        self.net, self.grid, self.eps, self.dt = net, grid, eps, dt
        self.alpha = alpha_from_k(K)
        self.incoming = np.array([arc.incoming for arc in net.arcs])
        first = np.asarray(grid.offsets[:-1])
        last = first + np.asarray(grid.cells)
        self.node = np.where(self.incoming, last, first)
        self.inner = np.where(self.incoming, last - 1, first + 1)
        self.outer = np.where(self.incoming, first, last)
        self.rhs_scale = np.full(grid.offsets[-1], 1.0 / dt)
        self.rhs_scale[self.outer] = 1.0
        self.rhs_scale[self.node] = 0.0

    def pq(self, i: int) -> tuple[float, float]:
        """Arc i's flux coefficients: upwind transport plus central diffusion."""
        q = self.eps / self.grid.spacings[i]
        return self.net.arcs[i].speed + q, q

    def flux(self, i: int, u_k: float, u_k1: float) -> float:
        """The flux through an interface of arc i whose upstream point
        holds u_k and whose downstream one holds u_k1."""
        p, q = self.pq(i)
        return p * u_k - q * u_k1

    def node_coefficients(self, i: int) -> tuple[float, float]:
        """beta_i * G_i's coefficients of u_node_i and u_inner_i: the flux
        through arc i's node-side interface, out of an incoming arc (beta
        +1) and into an outgoing one (beta -1), plus on an incoming arc
        the junction source speed_i * (u_node_i - u_inner_i)."""
        (p, q), speed = self.pq(i), self.net.arcs[i].speed
        if self.incoming[i]:
            # flux(i, u_inner, u_node) + speed * (u_node - u_inner)
            return -q + speed, p - speed
        # -flux(i, u_node, u_inner)
        return -p, q

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense step matrix, built on first read."""
        A = np.zeros((self.grid.offsets[-1],) * 2)
        A[self.outer, self.outer] = 1.0
        for i in range(self.net.m):
            h = self.grid.spacings[i]
            p, q = self.pq(i)
            k = np.arange(self.grid.offsets[i] + 1, self.grid.offsets[i + 1] - 1)
            A[k, k - 1] = -p / h
            A[k, k] = 1.0 / self.dt + (p + q) / h
            A[k, k + 1] = -q / h
            node_coef, inner_coef = self.node_coefficients(i)
            row = self.node[i]
            A[row, self.node] = self.alpha[i]
            A[row, row] = self.alpha[i, i] - node_coef
            A[row, self.inner[i]] = -inner_coef
        return A

    def flux_residual(self, flat: np.ndarray) -> float:
        """sum_i beta_i * G_i of the grid-order values flat, arc after arc."""
        total = 0.0
        for i in range(self.net.m):
            node_coef, inner_coef = self.node_coefficients(i)
            total += node_coef * flat[self.node[i]] + inner_coef * flat[self.inner[i]]
        return float(total)
