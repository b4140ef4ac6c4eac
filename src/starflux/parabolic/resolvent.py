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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import (
    DimensionMismatch,
    NumericalError,
    SingularMatrix,
    finite_above,
    finite_values,
)
from ..hyperbolic import ArcProfile, PiecewiseConstantField, check_profile_lengths
from ..network import CouplingMatrix, StarNetwork, _as_square, alpha_from_k, junction_residual

#: midpoint samples per arc at which residual_report checks the equation
RESIDUAL_SAMPLES = 400


@dataclass(frozen=True)
class ResolventProblem:
    """Relaxation weight, forcing field, and outer Dirichlet values.

    Constructing one checks theta and the boundary values once: theta
    becomes a finite positive float, boundary a read-only copy of finite
    values.
    """

    theta: float
    f: PiecewiseConstantField
    boundary: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", finite_above(self.theta, "theta"))
        # any flat length here; check matches it to the network
        b = np.asarray(self.boundary, dtype=float)
        b = finite_values(b, b.size).copy()
        b.flags.writeable = False
        object.__setattr__(self, "boundary", b)

    @classmethod
    def build(
        cls, theta: float, f: PiecewiseConstantField, boundary: Sequence[float]
    ) -> "ResolventProblem":
        """The problem in positional form; the constructor checks it."""
        return cls(theta=theta, f=f, boundary=boundary)

    def check(self, net: StarNetwork) -> None:
        """Raise DimensionMismatch unless the problem fits net: the forcing
        profiles as check_profile_lengths wants, one boundary value per arc."""
        check_profile_lengths(self.f.arcs, net, "forcing profiles")
        finite_values(self.boundary, net.m)


def _convolutions(
    a1: np.ndarray, a2: np.ndarray, edges: np.ndarray, g: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One-sided mode integrals I1 (left, decaying) and I2 (right).

    Row i of x holds points on arc i, whose modes are a1[i], a2[i] and
    whose forcing pieces are edges[i] and g[i]. I1(x) integrates
    exp(a1*(x-s)) g(s) over [0, x] and I2(x) integrates exp(a2*(x-s))
    g(s) over [x, L]; every exponent is nonpositive, so both are bounded
    by |g| over the mode scale. All arcs and pieces form one
    (arcs, pieces, points) array, and the pieces are summed as a running
    total from +0.0, in piece order. No mask is needed: an empty side of
    a piece gets width +0.0, so its term is a signed zero that leaves the
    sum's bits as they are, and anchored at min(hi, x) or max(lo, x) every
    exponent stays nonpositive, so nothing overflows.
    """
    a1 = a1[:, np.newaxis, np.newaxis]
    a2 = a2[:, np.newaxis, np.newaxis]
    lo = edges[:, :-1, np.newaxis]
    hi = edges[:, 1:, np.newaxis]
    g = g[:, :, np.newaxis]
    xs = x[:, np.newaxis, :]
    # left part of each piece, [lo, min(hi, x)]
    hi_l = np.minimum(hi, xs)
    w = np.maximum(hi_l - lo, 0.0)
    t1 = g * np.exp(a1 * (xs - hi_l)) * np.expm1(a1 * w) / a1
    # right part of each piece, [max(lo, x), hi]
    lo_r = np.maximum(lo, xs)
    w = np.maximum(hi - lo_r, 0.0)
    t2 = -g * np.exp(a2 * (xs - lo_r)) * np.expm1(-a2 * w) / a2
    i1 = np.zeros_like(x)
    i2 = np.zeros_like(x)
    for r in range(t1.shape[1]):
        i1 = i1 + t1[:, r]
        i2 = i2 + t2[:, r]
    return i1, i2


def _particular(
    a1: np.ndarray, a2: np.ndarray, edges: np.ndarray, g: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows p, p', p'' of the bounded particular part, each (arcs, points);
    p'' reads g on each point's piece, found one inner edge at a time."""
    i1, i2 = _convolutions(a1, a2, edges, g, x)
    a1 = a1[:, np.newaxis]
    a2 = a2[:, np.newaxis]
    gap = a2 - a1
    idx = np.zeros(x.shape, dtype=np.intp)
    for r in range(1, g.shape[1]):
        idx += edges[:, r : r + 1] < x
    idx += g.shape[1] * np.arange(g.shape[0])[:, np.newaxis]
    return (
        -(i1 + i2) / gap,
        -(a1 * i1 + a2 * i2) / gap,
        g.ravel()[idx] - (a1 * a1 * i1 + a2 * a2 * i2) / gap,
    )


def _pad_pieces(
    edges: Sequence[np.ndarray], g: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-arc piece edges and weights into (arcs, pieces) arrays.

    Arcs with fewer pieces are padded with pieces of zero width at their
    right end and zero weight, which add exactly +0.0 to every integral
    and are never the piece holding a point of [0, L].
    """
    pieces = max(row.size for row in g)
    edges_pad = np.empty((len(g), pieces + 1))
    g_pad = np.zeros((len(g), pieces))
    for i, (e, w) in enumerate(zip(edges, g)):
        edges_pad[i, : e.size] = e
        edges_pad[i, e.size :] = e[-1]
        g_pad[i, : w.size] = w
    return edges_pad, g_pad


def _derivatives(
    a1: np.ndarray, a2: np.ndarray, edges: np.ndarray, g: np.ndarray,
    c: np.ndarray, d: np.ndarray, x: np.ndarray,
) -> list[np.ndarray]:
    """Rows v, v', v'' of every arc at its row of points, each (arcs, points).

    Row i of x lies on arc i, where v(x) = c*exp(a1*x) + d*exp(a2*(x - L))
    + p(x): both homogeneous modes have nonpositive exponents on [0, L],
    c attached to the left end and d to the right end. L is each arc's
    last piece edge. One pass over all arcs and forcing pieces.
    """
    p = _particular(a1, a2, edges, g, x)
    mode1 = np.exp(a1[:, np.newaxis] * x)
    mode2 = np.exp(a2[:, np.newaxis] * (x - edges[:, -1:]))
    live = mode2 > 0.0
    rows = []
    for k in range(3):
        # scalar powers per arc: an array power a1**k rounds differently
        c_k = np.array([ci * ai**k for ci, ai in zip(c, a1)])[:, np.newaxis]
        d_k = np.array([di * ai**k for di, ai in zip(d, a2)])[:, np.newaxis]
        # an underflowed mode contributes nothing even when the a2^k
        # prefactor has overflowed, so keep 0*inf out of the product
        rows.append(c_k * mode1 + np.where(live, d_k * mode2, 0.0) + p[k])
    return rows


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
    """Evaluable resolvent solution with its coupling-system evidence.

    Row i of a1, a2 (mode exponents), c, d (mode weights), edges and g
    belongs to arc i. edges holds the forcing piece edges from 0 to the
    arc's length and g = -f/(theta*eps) per piece; arcs with fewer
    pieces are padded as _pad_pieces describes.
    """

    net: StarNetwork
    epsilon: float
    problem: ResolventProblem
    a1: np.ndarray
    a2: np.ndarray
    edges: np.ndarray
    g: np.ndarray
    c: np.ndarray
    d: np.ndarray
    alpha: np.ndarray
    h_rhs: np.ndarray
    dominance_margins: np.ndarray

    def _rows(self, rows: "slice | list[int]", x: np.ndarray) -> list[np.ndarray]:
        """Rows v, v', v'' of the arcs ``rows`` picks, at their rows of x."""
        return _derivatives(
            self.a1[rows], self.a2[rows], self.edges[rows], self.g[rows],
            self.c[rows], self.d[rows], x,
        )

    def evaluate(
        self, arc_id: int, x: np.ndarray | float, order: int = 0
    ) -> np.ndarray | float:
        """Row ``order`` of (v, v', v'') on one arc at x.

        Raises DimensionMismatch for x outside [0, length], NaN included.
        """
        length = self.net.arc(arc_id).length
        xs = np.asarray(x, dtype=float)
        if not np.all((xs >= 0.0) & (xs <= length)):
            raise DimensionMismatch(f"x outside [0, {length}]")
        out = self._rows([arc_id], xs.reshape(1, -1))[order][0].reshape(xs.shape)
        if np.isscalar(x):
            return float(out)
        return out

    def residual_report(self) -> ResidualReport:
        """Worst defects of the equation, the outer ends and the junction.

        All arcs are evaluated in one pass, each at RESIDUAL_SAMPLES
        midpoints plus its node and outer ends, and every check reads
        that one (v, v', v'') result.
        """
        n = RESIDUAL_SAMPLES
        theta = self.problem.theta
        speed = self.net.speeds()
        lengths = self.edges[:, -1]
        xs = (np.arange(n) + 0.5) * (lengths / n)[:, np.newaxis]
        ends = np.array([[e.node_position, e.outer_position] for e in self.net.arcs])
        v, dv, ddv = self._rows(slice(None), np.concatenate([xs, ends], axis=1))
        fvals = np.stack([p.evaluate(x) for p, x in zip(self.problem.f.arcs, xs)])
        resid = (
            v[:, :n]
            - theta * (self.epsilon * ddv[:, :n] - speed[:, np.newaxis] * dv[:, :n])
            - fvals
        )
        ode_max = float(np.max(np.abs(resid)))
        dir_max = float(np.max(np.abs(v[:, n + 1] - self.problem.boundary)))

        node_max = junction_residual(self.net, self.alpha, self.epsilon, v[:, n], dv[:, n])

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
    _as_square(K.k, net.m)
    alpha = alpha_from_k(K)
    m = net.m
    prob.check(net)

    lam = net.speeds()
    L = np.array([arc.length for arc in net.arcs])
    incoming = np.array([arc.incoming for arc in net.arcs])
    disc = np.sqrt(lam * lam + 4.0 * epsilon / theta)
    a2 = (lam + disc) / (2.0 * epsilon)
    a1 = -2.0 / (theta * (lam + disc))
    mu = 2.0 * epsilon / (theta * (disc + lam))  # eps*a2 - speed, positive
    nu = (lam + disc) / 2.0  # speed - eps*a1, positive
    F = np.exp(a1 * L)
    G = np.exp(-a2 * L)
    E = F * G  # exp(-(a2 - a1) * L)

    edges, g = _pad_pieces(
        [
            np.concatenate([[0.0], profile.breakpoints, [length]])
            for profile, length in zip(prob.f.arcs, L)
        ],
        [-profile.values / (theta * epsilon) for profile in prob.f.arcs],
    )
    # particular part and its slope at both ends of every arc, read off
    # before the mode weights c and d are known
    ends = np.stack([np.zeros(m), L], axis=1)
    (p0, pL), (dp0, dpL), _ = (row.T for row in _particular(a1, a2, edges, g, ends))

    b = prob.boundary
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

    d = np.where(incoming, w, (b - pL) - w * F)
    c = np.where(incoming, (b - p0) - w * G, w)
    return ResolventSolution(
        net=net,
        epsilon=epsilon,
        problem=prob,
        a1=a1,
        a2=a2,
        edges=edges,
        g=g,
        c=c,
        d=d,
        alpha=alpha,
        h_rhs=rhs,
        dominance_margins=margins,
    )


def resolvent_forcing_field(
    net: StarNetwork, rng: np.random.Generator, pieces: int = 3
) -> PiecewiseConstantField:
    """Random piecewise-constant forcing, handy for consistency checks."""
    profiles = []
    for arc in net.arcs:
        n_b = int(rng.integers(0, pieces))
        breaks = np.sort(rng.uniform(0.1 * arc.length, 0.9 * arc.length, n_b))
        vals = rng.uniform(-1.0, 1.0, n_b + 1)
        profiles.append(ArcProfile.from_lists(arc.length, breaks, vals))
    return PiecewiseConstantField(tuple(profiles))
