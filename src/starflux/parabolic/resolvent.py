"""Closed-form solution of the steady viscous resolvent equation.

On each arc, v - theta*(eps*v'' - speed*v') = f with piecewise-constant
f has an explicit solution: two exponential modes plus a particular
part. The particular part is built from one-sided convolutions, the
decaying mode integrated from the left end and the growing mode from
the right end, so every exponent that appears is nonpositive and the
representation stays bounded for arbitrarily small viscosity. The outer
Dirichlet values eliminate one coefficient per arc; the transmission
conditions couple the remaining ones through an m x m system that is
strictly diagonally dominant by columns, with margins given by the
mode fluxes themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..errors import (
    DimensionMismatch,
    NumericalError,
    SingularMatrix,
    finite_above,
    finite_values,
)
from ..grids import DiscreteState, Grid
from ..hyperbolic import ArcProfile, PiecewiseConstantField
from ..network import CouplingMatrix, StarNetwork, alpha_from_k

#: midpoint samples per arc at which residual_report checks the equation
RESIDUAL_SAMPLES = 400


@dataclass(frozen=True)
class ResolventProblem:
    """Relaxation weight, forcing field, and outer Dirichlet values."""

    theta: float
    f: PiecewiseConstantField
    boundary: np.ndarray

    @classmethod
    def build(
        cls, theta: float, f: PiecewiseConstantField, boundary: Sequence[float]
    ) -> "ResolventProblem":
        finite_above(theta, "theta")
        # any flat length here; solve_resolvent matches it to the network
        b = np.asarray(boundary, dtype=float)
        b = finite_values(b, b.size).copy()
        b.flags.writeable = False
        return cls(theta=theta, f=f, boundary=b)


@dataclass(frozen=True)
class _ArcSolution:
    """All per-arc constants needed to evaluate v, v', v''.

    v(x) = c*exp(a1*x) + d*exp(a2*(x - L)) + p(x): both homogeneous
    modes are written with nonpositive exponents on [0, L], c attached
    to the left end and d to the right end.
    """

    speed: float
    length: float
    a1: float
    a2: float
    edges: np.ndarray  # forcing piece edges including 0 and length
    g: np.ndarray  # -f_r / (theta*eps) per piece
    c: float
    d: float

    def _convolutions(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One-sided mode integrals I1 (left, decaying) and I2 (right).

        I1(x) integrates exp(a1*(x-s)) g(s) over [0, x] and I2(x)
        integrates exp(a2*(x-s)) g(s) over [x, L]; every exponent is
        nonpositive, so both are bounded by |g| over the mode scale.
        Each piece is one row of a (pieces, points) array; the rows are
        summed as a running total from zero, in piece order.
        """
        a1, a2 = self.a1, self.a2
        lo = self.edges[:-1, np.newaxis]
        hi = self.edges[1:, np.newaxis]
        g = self.g[:, np.newaxis]
        # left part of each piece, [lo, min(hi, x)]
        hi_l = np.minimum(hi, x)
        w = hi_l - lo
        mask = w > 0.0
        w = np.where(mask, w, 0.0)
        anchor = np.where(mask, hi_l, x)
        t1 = np.where(
            mask, g * np.exp(a1 * (x - anchor)) * np.expm1(a1 * w) / a1, 0.0
        )
        # right part of each piece, [max(lo, x), hi]
        lo_r = np.maximum(lo, x)
        w = hi - lo_r
        mask = w > 0.0
        w = np.where(mask, w, 0.0)
        anchor = np.where(mask, lo_r, x)
        t2 = np.where(
            mask, -g * np.exp(a2 * (x - anchor)) * np.expm1(-a2 * w) / a2, 0.0
        )
        return sum(t1, np.zeros_like(x)), sum(t2, np.zeros_like(x))

    def particular(self, x: np.ndarray) -> np.ndarray:
        """Rows p, p', p'' of the bounded particular part at the points x."""
        a1, a2 = self.a1, self.a2
        i1, i2 = self._convolutions(x)
        gap = a2 - a1
        idx = np.searchsorted(self.edges[1:-1], x, side="left")
        return np.stack(
            [
                -(i1 + i2) / gap,
                -(a1 * i1 + a2 * i2) / gap,
                self.g[idx] - (a1 * a1 * i1 + a2 * a2 * i2) / gap,
            ]
        )

    def derivatives(self, x: np.ndarray) -> np.ndarray:
        """Rows v, v', v'' at the 1-d points x, from one pass over f."""
        a1, a2, L = self.a1, self.a2, self.length
        p = self.particular(x)
        mode1 = np.exp(a1 * x)
        mode2 = np.exp(a2 * (x - L))
        live = mode2 > 0.0
        # an underflowed mode contributes nothing even when the a2^k
        # prefactor has overflowed, so keep 0*inf out of the product
        return np.stack(
            [
                self.c * a1**k * mode1
                + np.where(live, self.d * a2**k * mode2, 0.0)
                + p[k]
                for k in range(3)
            ]
        )

    def evaluate(self, x: np.ndarray | float, order: int = 0) -> np.ndarray | float:
        xs = np.asarray(x, dtype=float)
        out = self.derivatives(xs.ravel())[order].reshape(xs.shape)
        if np.isscalar(x):
            return float(out)
        return out


@dataclass(frozen=True)
class ResidualReport:
    """Worst defects of a resolvent solution, absolute and scaled."""

    ode_max: float
    dirichlet_max: float
    node_max: float
    scale: float

    @property
    def worst_scaled(self) -> float:
        return max(self.ode_max, self.dirichlet_max, self.node_max) / self.scale


@dataclass(frozen=True)
class ResolventSolution:
    """Evaluable resolvent solution with its coupling-system evidence."""

    net: StarNetwork
    epsilon: float
    problem: ResolventProblem
    arcs: tuple[_ArcSolution, ...]
    alpha: np.ndarray
    h_rhs: np.ndarray
    dominance_margins: np.ndarray

    def evaluate(
        self, arc_id: int, x: np.ndarray | float, order: int = 0
    ) -> np.ndarray | float:
        return self.arcs[arc_id].evaluate(x, order)

    def residual_report(self) -> ResidualReport:
        """Worst defects of the equation, the outer ends and the junction.

        Each arc is evaluated once, at RESIDUAL_SAMPLES midpoints plus
        its node and outer ends, and every check reads that one
        (v, v', v'') result.
        """
        n = RESIDUAL_SAMPLES
        m = len(self.arcs)
        theta = self.problem.theta
        node_v, node_flux, outer_v = np.empty(m), np.empty(m), np.empty(m)
        ode_max = 0.0
        for i, (arc, edge) in enumerate(zip(self.arcs, self.net.arcs)):
            xs = (np.arange(n) + 0.5) * (arc.length / n)
            ends = [edge.node_position, edge.outer_position]
            v, dv, ddv = arc.derivatives(np.append(xs, ends))
            fvals = self.problem.f.arcs[i].evaluate(xs)
            resid = (
                v[:n] - theta * (self.epsilon * ddv[:n] - arc.speed * dv[:n])
                - fvals
            )
            ode_max = max(ode_max, float(np.max(np.abs(resid))))
            node_v[i], outer_v[i] = v[n], v[n + 1]
            # speed*v - eps*v' at the junction end
            node_flux[i] = arc.speed * v[n] - self.epsilon * dv[n]

        dir_max = 0.0
        node_max = 0.0
        for i, edge in enumerate(self.net.arcs):
            dir_max = max(dir_max, abs(outer_v[i] - self.problem.boundary[i]))
            beta = 1.0 if edge.incoming else -1.0
            defect = beta * node_flux[i] - float(self.alpha[i] @ node_v)
            node_max = max(node_max, abs(defect))

        scale = max(
            1.0,
            max(float(np.max(np.abs(p.values))) for p in self.problem.f.arcs),
            float(np.max(np.abs(self.problem.boundary))),
        )
        return ResidualReport(
            ode_max=ode_max,
            dirichlet_max=dir_max,
            node_max=node_max,
            scale=scale,
        )


def solve_resolvent(
    net: StarNetwork,
    K: CouplingMatrix,
    epsilon: float,
    prob: ResolventProblem,
) -> ResolventSolution:
    """Assemble and solve the coupled two-mode system on every arc.

    The unknown per arc is the coefficient of its junction-attached
    mode; the outer Dirichlet condition eliminates the other one. The
    resulting m x m system is strictly column dominant with margins
    mu_i + nu_i*E_i on incoming arcs and nu_i + mu_i*E_i on outgoing
    ones (mu = eps*a2 - speed, nu = speed - eps*a1), so it stays
    solvable down to vanishing viscosity, where it degenerates to the
    transport transmission system.
    """
    finite_above(epsilon, "epsilon")
    theta = prob.theta
    alpha = alpha_from_k(K)
    m = net.m
    if len(prob.f.arcs) != m:
        raise DimensionMismatch(f"{len(prob.f.arcs)} forcing profiles for {m} arcs")
    finite_values(prob.boundary, m)

    a1 = np.empty(m)
    a2 = np.empty(m)
    mu = np.empty(m)  # eps*a2 - speed, positive
    nu = np.empty(m)  # speed - eps*a1, positive
    E = np.empty(m)  # exp(-(a2 - a1) * L)
    F = np.empty(m)  # exp(a1 * L)
    G = np.empty(m)  # exp(-a2 * L)
    incoming = np.array([arc.incoming for arc in net.arcs])
    edges_all: list[np.ndarray] = []
    g_all: list[np.ndarray] = []

    for i, arc in enumerate(net.arcs):
        lam, L = arc.speed, arc.length
        disc = float(np.sqrt(lam * lam + 4.0 * epsilon / theta))
        a2[i] = (lam + disc) / (2.0 * epsilon)
        a1[i] = -2.0 / (theta * (lam + disc))
        mu[i] = 2.0 * epsilon / (theta * (disc + lam))
        nu[i] = (lam + disc) / 2.0
        F[i] = np.exp(a1[i] * L)
        G[i] = np.exp(-a2[i] * L)
        E[i] = F[i] * G[i]

        profile = prob.f.arcs[i]
        edges = np.concatenate([[0.0], profile.breakpoints, [L]])
        edges_all.append(edges)
        g_all.append(-profile.values / (theta * epsilon))

    # particular part and its slope at both arc ends, read off each arc
    # before its mode weights c and d are known
    p0 = np.empty(m)
    pL = np.empty(m)
    dp0 = np.empty(m)
    dpL = np.empty(m)
    probes = []
    for i, arc in enumerate(net.arcs):
        probe = _ArcSolution(
            speed=arc.speed,
            length=arc.length,
            a1=a1[i],
            a2=a2[i],
            edges=edges_all[i],
            g=g_all[i],
            c=0.0,
            d=0.0,
        )
        probes.append(probe)
        (p0[i], pL[i]), (dp0[i], dpL[i]), _ = probe.particular(
            np.array([0.0, arc.length])
        )

    b = prob.boundary
    lam = net.speeds()
    # node value of each arc splits as unknown*(1 - E) + t
    t = np.where(incoming, (b - p0) * F + pL, (b - pL) * G + p0)

    one_minus_E = 1.0 - E
    H = alpha * one_minus_E[np.newaxis, :]
    base_diag = np.where(incoming, mu + nu * E, nu + mu * E)
    H[np.arange(m), np.arange(m)] += base_diag

    alpha_t = alpha @ t
    rhs = np.where(
        incoming,
        (b - p0) * F * nu + (lam * pL - epsilon * dpL) - alpha_t,
        (b - pL) * G * mu - (lam * p0 - epsilon * dp0) - alpha_t,
    )
    if not (np.all(np.isfinite(H)) and np.all(np.isfinite(rhs))):
        raise NumericalError(
            "coupling system assembly produced non-finite entries"
        )

    margins = np.abs(np.diag(H)) - (
        np.sum(np.abs(H), axis=0) - np.abs(np.diag(H))
    )
    if np.any(margins <= 0.0):
        raise SingularMatrix("coupling system lost strict column dominance")
    w = np.linalg.solve(H, rhs)

    arcs = []
    for i, arc in enumerate(net.arcs):
        if arc.incoming:
            d = float(w[i])
            c = float((b[i] - p0[i]) - d * G[i])
        else:
            c = float(w[i])
            d = float((b[i] - pL[i]) - c * F[i])
        arcs.append(replace(probes[i], c=c, d=d))

    return ResolventSolution(
        net=net,
        epsilon=epsilon,
        problem=prob,
        arcs=tuple(arcs),
        alpha=alpha,
        h_rhs=rhs,
        dominance_margins=margins,
    )


def l1_error_against_state(
    sol: ResolventSolution, state: DiscreteState, grid: Grid
) -> float:
    """Composite-midpoint L1 gap between the closed form and a state."""
    total = 0.0
    for i, vals in enumerate(state.values):
        mids = grid.midpoints(i)
        exact = np.asarray(sol.evaluate(i, mids), dtype=float)
        approx = 0.5 * (vals[:-1] + vals[1:])
        total += grid.spacings[i] * float(np.sum(np.abs(exact - approx)))
    return total


def resolvent_forcing_field(
    net: StarNetwork, rng: np.random.Generator, pieces: int = 3, amplitude: float = 1.0
) -> PiecewiseConstantField:
    """Random piecewise-constant forcing, handy for consistency checks."""
    profiles = []
    for arc in net.arcs:
        n_b = int(rng.integers(0, pieces))
        breaks = np.sort(rng.uniform(0.1 * arc.length, 0.9 * arc.length, n_b))
        vals = rng.uniform(-amplitude, amplitude, n_b + 1)
        profiles.append(ArcProfile.from_lists(arc.length, breaks, vals))
    return PiecewiseConstantField(tuple(profiles))
