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

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    AssumptionViolated,
    DimensionMismatch,
    InvalidGamma,
    SingularMatrix,
)
from .network import (
    AlphaMatrix,
    CouplingMatrix,
    StarNetwork,
    alpha_from_k,
    validate_assumptions,
)

#: relative pivot threshold for node-system factorizations
PIVOT_RTOL = 1e-13
#: tolerance for gamma column sums (mass conservation across the node)
COLUMN_SUM_TOL = 1e-10
#: negative gamma entries above this magnitude are an error, below it noise
GAMMA_NEG_TOL = 1e-12


@dataclass(frozen=True)
class QMatrix:
    """Node system matrix with its unknown ordering.

    ordering[r] is the arc id of unknown r: incoming arcs first (their
    node weights), then outgoing arcs (their node values), each block in
    arc-id order. incoming_count is the size of the first block.
    """

    q: np.ndarray
    ordering: tuple[int, ...]
    incoming_count: int


def assemble_q(net: StarNetwork, alpha: AlphaMatrix) -> QMatrix:
    """Build the node system matrix from the exchange matrix.

    Rows for incoming arcs are plain exchange rows; rows for outgoing
    arcs additionally carry the arc speed on the diagonal, which is what
    makes them strictly diagonally dominant.
    """
    if alpha.m != net.m:
        raise DimensionMismatch(
            f"exchange matrix is {alpha.m}x{alpha.m} for a {net.m}-arc network"
        )
    ordering = net.incoming_ids + net.outgoing_ids
    perm = np.asarray(ordering)
    q = alpha.alpha[np.ix_(perm, perm)].copy()
    n_inc = len(net.incoming_ids)
    for r in range(n_inc, net.m):
        q[r, r] += net.arc(ordering[r]).speed
    q.flags.writeable = False
    return QMatrix(q=q, ordering=ordering, incoming_count=n_inc)


def _pattern(q: np.ndarray) -> np.ndarray:
    pat = np.abs(q) + np.abs(q.T)
    np.fill_diagonal(pat, 0.0)
    return pat > 0.0


def connected_components(q: np.ndarray) -> list[list[int]]:
    """Connected components of the off-diagonal coupling pattern.

    The pattern is symmetrized first, so for the symmetric node matrix
    this is exactly the partition into irreducible diagonal blocks.
    """
    pat = _pattern(q)
    n = q.shape[0]
    seen = np.zeros(n, dtype=bool)
    comps: list[list[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in np.flatnonzero(pat[v]):
                if not seen[w]:
                    seen[w] = True
                    stack.append(int(w))
        comps.append(sorted(comp))
    return comps


def check_irreducible(q: QMatrix | np.ndarray) -> bool:
    """True when the node system couples all unknowns in one block."""
    mat = q.q if isinstance(q, QMatrix) else np.asarray(q, dtype=float)
    return len(connected_components(mat)) == 1


def _lu_invert(sub: np.ndarray) -> tuple[np.ndarray, float]:
    """Invert a principal block by LU with partial pivoting.

    Returns (inverse, determinant). Raises SingularMatrix when a pivot
    falls below PIVOT_RTOL relative to the largest diagonal entry.
    """
    with warnings.catch_warnings():
        # the explicit pivot check below reports singularity on its own
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
    det = sign * float(np.prod(udiag))
    inv = scipy.linalg.lu_solve((lu, piv), np.eye(sub.shape[0]), check_finite=False)
    return inv, det


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
    min_inverse_entry: float
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


def certify_m_matrix(q: QMatrix | np.ndarray) -> MCertificate:
    """Certify M-matrix structure blockwise and produce the inverse.

    Works per irreducible block so reducible couplings (isolated arcs,
    disjoint junction groups) are certified block by block. Raises
    SingularMatrix if any block fails to factor.
    """
    mat = q.q if isinstance(q, QMatrix) else np.asarray(q, dtype=float)
    n = mat.shape[0]
    scale = max(float(np.max(np.abs(mat))), 1e-300)
    tol = 1e-12 * scale

    offdiag = mat - np.diag(np.diag(mat))
    sign_ok = bool(np.all(offdiag <= tol) and np.all(np.diag(mat) >= -tol))

    offsum = np.sum(np.abs(offdiag), axis=1)
    margins = np.diag(mat) - offsum
    gershgorin_ok = bool(np.all(margins >= -tol))

    comps = connected_components(mat)
    every_block_strict = all(
        np.any(margins[np.asarray(comp)] > tol) for comp in comps
    )

    inverse = np.zeros_like(mat)
    det = 1.0
    for comp in comps:
        idx = np.asarray(comp)
        sub_inv, sub_det = _lu_invert(mat[np.ix_(idx, idx)])
        inverse[np.ix_(idx, idx)] = sub_inv
        det *= sub_det

    min_entry = float(np.min(inverse))
    inv_scale = max(float(np.max(np.abs(inverse))), 1e-300)
    inverse_nonneg = min_entry >= -1e-12 * inv_scale
    inverse.flags.writeable = False
    return MCertificate(
        irreducible=len(comps) == 1,
        sign_pattern_ok=sign_ok,
        gershgorin_ok=gershgorin_ok,
        every_block_strict=every_block_strict,
        det=det,
        inverse_nonneg=inverse_nonneg,
        min_inverse_entry=min_entry,
        inverse=inverse,
    )


@dataclass(frozen=True)
class TransmissionSystem:
    """Solved node system: matrix, inverse, and transmission weights.

    gamma has one row per outgoing arc and one column per incoming arc,
    both in arc-id order; gamma[l, j] is the fraction of incoming flux j
    that leaves through outgoing arc l. Every column sums to one.
    condition_indicator is max|q| * max|z|, reported but never asserted.
    """

    net: StarNetwork
    q: QMatrix
    z: np.ndarray
    gamma: np.ndarray
    det_q: float
    certificates: MCertificate
    condition_indicator: float

    @property
    def incoming_ids(self) -> tuple[int, ...]:
        return self.net.incoming_ids

    @property
    def outgoing_ids(self) -> tuple[int, ...]:
        return self.net.outgoing_ids


def compute_gamma(net: StarNetwork, K: CouplingMatrix) -> TransmissionSystem:
    """Full pipeline from coupling matrix to transmission weights.

    Validates assumptions (raising AssumptionViolated when the sign or
    incoming-side connectivity conditions fail), assembles and certifies
    the node matrix, and returns the solved system. Gamma entries are
    checked nonnegative and column-stochastic; negative noise within
    GAMMA_NEG_TOL is clamped to zero, anything worse raises InvalidGamma.
    """
    report = validate_assumptions(net, K)
    if not report.holds_sign_symmetry or not report.holds_incoming_linked:
        raise AssumptionViolated("; ".join(report.messages) or "assumptions fail")

    alpha = alpha_from_k(K)
    qm = assemble_q(net, alpha)
    cert = certify_m_matrix(qm)
    if not cert.m_matrix_ok:
        raise SingularMatrix("node matrix failed M-matrix certification")
    z = cert.inverse

    n_inc = qm.incoming_count
    out_speeds = np.array([net.arc(l).speed for l in net.outgoing_ids])
    gamma = out_speeds[:, None] * z[n_inc:, :n_inc]

    min_gamma = float(np.min(gamma, initial=0.0))
    if min_gamma < -GAMMA_NEG_TOL:
        raise InvalidGamma(f"negative transmission weight {min_gamma:.3e}")
    gamma = np.where(gamma < 0.0, 0.0, gamma)

    col_sums = gamma.sum(axis=0)
    worst = float(np.max(np.abs(col_sums - 1.0), initial=0.0))
    if worst > COLUMN_SUM_TOL:
        raise InvalidGamma(
            f"gamma column sums deviate from 1 by {worst:.3e}"
        )

    gamma.flags.writeable = False
    cond = float(np.max(np.abs(qm.q)) * np.max(np.abs(z)))
    return TransmissionSystem(
        net=net,
        q=qm,
        z=z,
        gamma=gamma,
        det_q=cert.det,
        certificates=cert,
        condition_indicator=cond,
    )


def hyperbolic_node_traces(
    ts: TransmissionSystem, incoming_flux: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Node response to a vector of incoming fluxes.

    incoming_flux[j] is speed_j * trace of incoming arc j at the node
    (arc-id order). Returns (outgoing_values, node_weights): the node
    values of the outgoing arcs and the effective weights of the
    incoming arcs. outgoing_values satisfies
    speed_l * outgoing_values[l] = sum_j gamma[l, j] * incoming_flux[j].
    """
    flux = np.asarray(incoming_flux, dtype=float)
    n_inc = ts.q.incoming_count
    if flux.shape != (n_inc,):
        raise DimensionMismatch(
            f"expected {n_inc} incoming fluxes, got shape {flux.shape}"
        )
    rhs = np.concatenate([flux, np.zeros(ts.net.m - n_inc)])
    x = ts.z @ rhs
    return x[n_inc:], x[:n_inc]
