"""Choosing coupling coefficients that realize prescribed split ratios.

Two constructive designs are provided. The proportional design makes
every incoming arc split its flux in the same prescribed proportions,
using a coupling that is constant along each outgoing arc's column. The
two-outgoing design prescribes, per incoming arc, the fraction sent to
the first of exactly two outgoing arcs; it fixes the coupling to the
second arc at a trial magnitude and solves a small linear system for
the remaining column, halving the magnitude until the solution is
admissible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InfeasibleTheta,
    InvalidGamma,
    NoConvergence,
)
from .network import CouplingMatrix, StarNetwork

#: target weights must sum to one this tightly
TARGET_SUM_TOL = 1e-12
#: smallest trial coupling magnitude before giving up
MIN_TRIAL_K = 1e-300


@dataclass(frozen=True)
class ProportionalTarget:
    """Common split ratios for all incoming arcs.

    weights[l] is the fraction every incoming arc should send to the
    l-th outgoing arc (outgoing arcs in id order). Entries must lie in
    the open interval (0, 1) and sum to one, which requires at least two
    outgoing arcs.
    """

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 2:
            raise DimensionMismatch("need at least two outgoing weights")
        if not np.all((w > 0.0) & (w < 1.0)):  # NaN fails too
            raise InvalidGamma("target weights must lie strictly inside (0, 1)")
        if abs(float(w.sum()) - 1.0) > TARGET_SUM_TOL:
            raise InvalidGamma(
                f"target weights sum to {float(w.sum()):.16f}, expected 1"
            )


@dataclass(frozen=True)
class TwoOutTarget:
    """Per-incoming fractions routed to the first of two outgoing arcs.

    fractions[j] is the share of incoming arc j's flux that should leave
    through the first outgoing arc (id order); the rest leaves through
    the second. Entries must lie strictly inside (0, 1).
    """

    fractions: tuple[float, ...]

    def __post_init__(self) -> None:
        f = np.asarray(self.fractions, dtype=float)
        if f.ndim != 1 or f.size < 1:
            raise DimensionMismatch("need one fraction per incoming arc")
        if not np.all((f > 0.0) & (f < 1.0)):  # NaN fails too
            raise InvalidGamma("fractions must lie strictly inside (0, 1)")


def design_proportional(
    net: StarNetwork, target: ProportionalTarget
) -> CouplingMatrix:
    """Coupling whose transmission weights equal the target on every column.

    The construction couples each incoming arc to outgoing arc l with the
    same coefficient k_l and leaves both sides internally uncoupled. The
    magnitude parameter is set to half its feasibility bound, which keeps
    every k_l finite and positive.
    """
    inc = net.incoming_ids
    out = net.outgoing_ids
    w = np.asarray(target.weights, dtype=float)
    if w.size != len(out):
        raise DimensionMismatch(
            f"{w.size} weights for {len(out)} outgoing arcs"
        )
    m_inc = len(inc)
    speeds = np.array([net.arc(l).speed for l in out])

    theta = 0.5 * float(np.min(speeds / (m_inc * w)))
    denom = speeds - m_inc * theta * w
    if theta <= 0.0 or np.any(denom <= 0.0):
        raise InfeasibleTheta(
            "no admissible coupling magnitude for the requested weights"
        )
    k_col = speeds * theta * w / denom

    K = np.zeros((net.m, net.m))
    for pos, l in enumerate(out):
        for j in inc:
            K[j, l] = K[l, j] = k_col[pos]
    return CouplingMatrix.from_array(K, net)


def design_two_outgoing(
    net: StarNetwork, target: TwoOutTarget
) -> CouplingMatrix:
    """Coupling realizing per-incoming split fractions over two outgoing arcs.

    With the coupling to the second outgoing arc frozen at a trial value
    k, the fractions demand that the couplings to the first arc satisfy a
    linear system in the auxiliary variables X_j = K_j1 / (k + K_j1).
    The system is solved exactly, first with k = 1; if any X_j falls
    outside (0, 1) the trial k is halved and the solve repeated. Raises
    NoConvergence when k underflows without an admissible solution.
    """
    inc = net.incoming_ids
    out = net.outgoing_ids
    if len(out) != 2:
        raise DimensionMismatch(
            f"two-outgoing design needs exactly 2 outgoing arcs, got {len(out)}"
        )
    g = np.asarray(target.fractions, dtype=float)
    if g.size != len(inc):
        raise DimensionMismatch(
            f"{g.size} fractions for {len(inc)} incoming arcs"
        )
    h1, h2 = out
    lam1 = net.arc(h1).speed
    lam2 = net.arc(h2).speed

    # row j: k*(lam1 - g_j*(lam1+lam2))*sum(X) + lam1*lam2*X_j = lam1*lam2*g_j
    c = lam1 - g * (lam1 + lam2)
    rhs = lam1 * lam2 * g
    k = 1.0
    while k >= MIN_TRIAL_K:
        A = lam1 * lam2 * np.eye(g.size) + k * np.outer(c, np.ones(g.size))
        try:
            X = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:
            k *= 0.5
            continue
        if np.all(X > 0.0) and np.all(X < 1.0):
            K = np.zeros((net.m, net.m))
            for pos, j in enumerate(inc):
                K[j, h1] = K[h1, j] = k * X[pos] / (1.0 - X[pos])
                K[j, h2] = K[h2, j] = k
            return CouplingMatrix.from_array(K, net)
        k *= 0.5
    raise NoConvergence(
        "trial coupling underflowed without an admissible solution"
    )


def proportional_gamma_matrix(
    net: StarNetwork, target: ProportionalTarget
) -> np.ndarray:
    """Target transmission matrix for the proportional design."""
    w = np.asarray(target.weights, dtype=float)
    return np.tile(w[:, None], (1, len(net.incoming_ids)))


def two_out_gamma_matrix(net: StarNetwork, target: TwoOutTarget) -> np.ndarray:
    """Target transmission matrix for the two-outgoing design."""
    g = np.asarray(target.fractions, dtype=float)
    return np.vstack([g, 1.0 - g])


def roundtrip_error(
    net: StarNetwork,
    K: CouplingMatrix,
    target_gamma: np.ndarray | Sequence[Sequence[float]],
) -> float:
    """Max-norm gap between realized and requested transmission weights."""
    from .transmission import compute_gamma

    target = np.asarray(target_gamma, dtype=float)
    ts = compute_gamma(net, K)
    if target.shape != ts.gamma.shape:
        raise DimensionMismatch(
            f"target shape {target.shape} vs realized {ts.gamma.shape}"
        )
    return float(np.max(np.abs(ts.gamma - target), initial=0.0))
