"""Node transmission system and the limit transmission weights.

At vanishing viscosity the junction couples the arcs through a small
linear system: the unknowns are the effective node weights of the
incoming arcs and the node values of the outgoing arcs, driven by the
incoming fluxes. The system matrix Q is a symmetric M-matrix, so its
inverse is entrywise nonnegative; the weights gamma_lj = speed_l * z_lj
(outgoing l, incoming j) are nonnegative and each incoming column sums
to exactly one, which is mass conservation across the junction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack

from .errors import DimensionMismatch, InvalidGamma, SingularMatrix
from .network import CouplingMatrix, StarNetwork, alpha_from_k, validate_assumptions

#: relative pivot threshold for node-system factorizations
PIVOT_RTOL = 1e-13
#: tolerance for gamma column sums (mass conservation across the node)
COLUMN_SUM_TOL = 1e-10
#: negative gamma entries above this magnitude are an error, below it noise
GAMMA_NEG_TOL = 1e-12


def assemble_q(net: StarNetwork, alpha: np.ndarray) -> np.ndarray:
    """Build the read-only node system matrix Q from the exchange matrix.

    Unknown r of Q belongs to arc ``(net.incoming_ids + net.outgoing_ids)[r]``:
    incoming arcs first (their node weights), then outgoing arcs (their
    node values), each block in arc-id order. Rows for incoming arcs are
    plain exchange rows; rows for outgoing arcs additionally carry the arc
    speed on the diagonal, which is what makes them strictly diagonally
    dominant.
    """
    if alpha.shape[0] != net.m:
        raise DimensionMismatch(
            f"exchange matrix is {alpha.shape[0]}x{alpha.shape[0]} for a "
            f"{net.m}-arc network"
        )
    n_inc = len(net.incoming_ids)
    perm = np.array(net.incoming_ids + net.outgoing_ids)
    q = alpha[perm][:, perm]
    out = np.arange(n_inc, net.m)
    q[out, out] += net.speeds()[perm[n_inc:]]
    q.flags.writeable = False
    return q


def _same_block(q: np.ndarray) -> np.ndarray:
    """Boolean matrix: entry (v, w) is True when v and w share a component.

    Components are those of the symmetrized off-diagonal pattern, found
    by squaring the boolean reachability matrix until it stops growing;
    boolean products cannot overflow.
    """
    reach = (np.abs(q) + np.abs(q.T)) > 0.0
    np.fill_diagonal(reach, True)
    while True:
        grown = reach @ reach
        if (grown == reach).all():
            return reach
        reach = grown


def _components(reach: np.ndarray) -> list[np.ndarray]:
    """Index arrays of the components, ordered by their smallest member."""
    first = reach.argmax(axis=1)
    leaders = np.flatnonzero(first == np.arange(first.size))
    return [np.flatnonzero(reach[v]) for v in leaders]


def _lu_invert(sub: np.ndarray) -> tuple[np.ndarray, float]:
    """Invert a principal block by LU with partial pivoting.

    One LAPACK gesv factors the block and solves against the identity.
    Returns (inverse, determinant). Raises SingularMatrix when a pivot
    is exactly zero or falls below PIVOT_RTOL relative to the largest
    diagonal entry.
    """
    n = sub.shape[0]
    lu, piv, inv, info = scipy.linalg.lapack.dgesv(sub, np.eye(n))
    udiag = lu.diagonal()
    pivot = np.abs(udiag).min()
    threshold = PIVOT_RTOL * max(np.abs(sub.diagonal()).max(), 1e-300)
    if info > 0 or pivot < threshold:
        raise SingularMatrix(
            f"node system pivot {pivot:.3e} below threshold {threshold:.3e}"
        )
    sign = -1.0 if (piv != np.arange(n)).sum() % 2 else 1.0
    return inv, sign * float(udiag.prod())


@dataclass(frozen=True)
class MCertificate:
    """Checkable evidence that the node matrix is a nonsingular M-matrix.

    irreducible: the off-diagonal pattern couples all unknowns in one
        block (reported, not required).
    sign_pattern_ok: nonpositive off-diagonal, nonnegative diagonal.
    gershgorin_ok: every row diagonally dominant (equality allowed).
    every_block_strict: each irreducible block has a strictly dominant
        row, which upgrades dominance to invertibility.
    det: determinant (product over blocks); positive for an M-matrix.
    inverse_nonneg: computed inverse is entrywise nonnegative up to noise.
    inverse: the computed inverse, kept as the evidence for the claim.
    """

    irreducible: bool
    sign_pattern_ok: bool
    gershgorin_ok: bool
    every_block_strict: bool
    det: float
    inverse_nonneg: bool
    inverse: np.ndarray

    @property
    def m_matrix_ok(self) -> bool:
        return (
            self.sign_pattern_ok
            and self.gershgorin_ok
            and self.every_block_strict
            and self.det > 0.0
            and self.inverse_nonneg
        )


def certify_m_matrix(q: np.ndarray) -> MCertificate:
    """Certify M-matrix structure blockwise and produce the inverse.

    Works per irreducible block so reducible couplings (isolated arcs,
    disjoint junction groups) are certified block by block. Raises
    SingularMatrix if any block fails to factor.
    """
    diag = q.diagonal()
    scale = max(float(np.abs(q).max()), 1e-300)
    tol = 1e-12 * scale

    offdiag = q - np.diag(diag)
    sign_ok = bool((offdiag <= tol).all() and (diag >= -tol).all())

    margins = diag - np.abs(offdiag).sum(axis=1)
    gershgorin_ok = bool((margins >= -tol).all())

    reach = _same_block(q)
    # each unknown's block holds a strictly dominant row
    every_block_strict = bool((reach & (margins > tol)).any(axis=1).all())

    comps = _components(reach)
    inverse = np.zeros_like(q)
    det = 1.0
    for idx in comps:
        block = (idx[:, None], idx)
        sub_inv, sub_det = _lu_invert(q[block])
        inverse[block] = sub_inv
        det *= sub_det

    inv_scale = max(float(np.abs(inverse).max()), 1e-300)
    inverse_nonneg = float(inverse.min()) >= -1e-12 * inv_scale
    inverse.flags.writeable = False
    return MCertificate(
        irreducible=len(comps) == 1,
        sign_pattern_ok=sign_ok,
        gershgorin_ok=gershgorin_ok,
        every_block_strict=every_block_strict,
        det=det,
        inverse_nonneg=inverse_nonneg,
        inverse=inverse,
    )


@dataclass(frozen=True)
class TransmissionSystem:
    """Solved node system: certificates and transmission weights.

    The inverse and determinant of the node matrix Q (assemble_q) live
    in ``certificates``. gamma has one row per outgoing arc and one column
    per incoming arc, both in arc-id order; gamma[l, j] is the fraction
    of incoming flux j that leaves through outgoing arc l. Every column
    sums to one. condition_indicator is max|Q| * max|Q^-1|, never asserted.
    """

    net: StarNetwork
    gamma: np.ndarray
    certificates: MCertificate
    condition_indicator: float


def compute_gamma(net: StarNetwork, K: CouplingMatrix) -> TransmissionSystem:
    """Full pipeline from coupling matrix to transmission weights.

    Checks (net, K) with validate_assumptions, which raises on a breach,
    assembles and certifies the node matrix, and returns the solved
    system. Gamma entries are checked nonnegative and column-stochastic;
    negative noise within GAMMA_NEG_TOL is clamped to zero, anything
    worse raises InvalidGamma.
    """
    validate_assumptions(net, K)
    q = assemble_q(net, alpha_from_k(K))
    cert = certify_m_matrix(q)
    if not cert.m_matrix_ok:
        raise SingularMatrix("node matrix failed M-matrix certification")
    z = cert.inverse

    n_inc = len(net.incoming_ids)
    out_speeds = net.speeds()[~net.incoming]
    gamma = out_speeds[:, None] * z[n_inc:, :n_inc]

    min_gamma = float(gamma.min(initial=0.0))
    if min_gamma < -GAMMA_NEG_TOL:
        raise InvalidGamma(f"negative transmission weight {min_gamma:.3e}")
    gamma = np.where(gamma < 0.0, 0.0, gamma)

    col_sums = gamma.sum(axis=0)
    worst = float(np.abs(col_sums - 1.0).max(initial=0.0))
    if worst > COLUMN_SUM_TOL:
        raise InvalidGamma(
            f"gamma column sums deviate from 1 by {worst:.3e}"
        )

    gamma.flags.writeable = False
    cond = float(np.abs(q).max() * np.abs(z).max())
    return TransmissionSystem(net=net, gamma=gamma, certificates=cert, condition_indicator=cond)

