"""Lift piecewise-constant data into the viscous compatibility class.

Rough data cannot initialize the viscous problem directly: the node
coupling and the inflow boundary values impose pointwise conditions
that a BV function has no reason to satisfy. This module builds, for a
given viscosity epsilon_n and exponent theta > 1, a C^1 piecewise
polynomial replacement: jumps become cubic transitions of width
epsilon_n, a cubic on the node-side interval of width
delta_n = epsilon_n**theta enforces the transmission slope exactly,
and a quadratic on [0, epsilon_n] of each incoming arc pins the inflow
value. All norms of the result are computed in closed form from the
polynomial coefficients, so the construction can be audited without
quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import DimensionMismatch, WidthOverflow, finite_above, finite_values
from .hyperbolic import ArcProfile, PiecewiseConstantField, check_profile_lengths
from .network import CouplingMatrix, StarNetwork, _as_square, alpha_from_k, junction_residual

#: node-interval exponent used when none is requested; any theta > 1 works
DEFAULT_THETA = 1.5


def _shifted(coeffs: np.ndarray, s: float) -> np.ndarray:
    """Coefficients of p(xi + s) for ascending-power coefficients."""
    out = np.zeros_like(coeffs)
    for j, cj in enumerate(coeffs):
        for k in range(j + 1):
            out[k] += cj * math.comb(j, k) * s ** (j - k)
    return out


def _real_roots_inside(coeffs: np.ndarray, width: float) -> list[float]:
    """Real roots strictly inside (0, width) of a polynomial with a nonzero
    coefficient, for sign-splitting."""
    c = np.asarray(coeffs, dtype=float)
    top = float(np.max(np.abs(c)))
    # drop negligible leading coefficients so the companion matrix of
    # a numerically lower-degree polynomial is not ill-posed
    keep = c.size
    while keep > 1 and abs(c[keep - 1]) <= 1e-14 * top:
        keep -= 1
    c = c[:keep]
    if c.size <= 1:
        return []
    roots = npoly.polyroots(c)
    out = []
    for r in roots:
        if abs(r.imag) <= 1e-8 * (1.0 + abs(r.real)):
            x = float(r.real)
            if 0.0 < x < width:
                out.append(x)
    return sorted(out)


@dataclass(frozen=True)
class PolynomialPiece:
    """One polynomial segment, coefficients in ascending powers of x - lo."""

    lo: float
    hi: float
    coeffs: np.ndarray

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def _deriv_coeffs(self, order: int) -> np.ndarray:
        if order == 0:
            return self.coeffs
        return npoly.polyder(self.coeffs, m=order)

    def evaluate(self, x: np.ndarray | float, order: int = 0) -> np.ndarray | float:
        xi = np.asarray(x, dtype=float) - self.lo
        val = npoly.polyval(xi, self._deriv_coeffs(order))
        if np.isscalar(x):
            return float(val)
        return val

    def l1_norm(self, order: int = 0) -> float:
        """Exact integral of |derivative of given order| over the piece.

        The antiderivative is evaluated between consecutive sign
        changes, found as polynomial roots, so no quadrature enters.
        """
        d = self._deriv_coeffs(order)
        if d.size == 0 or not np.any(d):
            return 0.0
        anti = npoly.polyint(d)
        cuts = [0.0, *_real_roots_inside(d, self.width), self.width]
        total = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            total += abs(float(npoly.polyval(b, anti) - npoly.polyval(a, anti)))
        return total


@dataclass(frozen=True)
class PiecewisePoly:
    """Contiguous polynomial pieces tiling [0, length]."""

    length: float
    pieces: tuple[PolynomialPiece, ...]

    def __post_init__(self) -> None:
        if not self.pieces:
            raise DimensionMismatch("need at least one piece")
        if abs(self.pieces[0].lo) > 1e-14 or abs(self.pieces[-1].hi - self.length) > 1e-12:
            raise DimensionMismatch("pieces must span [0, length]")

    def piece_index(self, x: np.ndarray) -> np.ndarray:
        uppers = np.array([p.hi for p in self.pieces])
        return np.minimum(
            np.searchsorted(uppers, x, side="left"), len(self.pieces) - 1
        )

    def evaluate(self, x: np.ndarray | float, order: int = 0) -> np.ndarray | float:
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        idx = self.piece_index(xs)
        out = np.empty_like(xs)
        for k, piece in enumerate(self.pieces):
            mask = idx == k
            if np.any(mask):
                out[mask] = piece.evaluate(xs[mask], order)
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(out[0])
        return out

    def l1_norm(self, order: int = 0) -> float:
        return sum(p.l1_norm(order) for p in self.pieces)

    def w21_norm(self) -> float:
        """L1 norms of the function and its first two derivatives."""
        return self.l1_norm(0) + self.l1_norm(1) + self.l1_norm(2)

    def restricted(self, a: float, b: float) -> list[PolynomialPiece]:
        """Pieces covering [a, b], trimmed and re-anchored at their lo."""
        out = []
        for p in self.pieces:
            lo, hi = max(p.lo, a), min(p.hi, b)
            if hi - lo <= 0.0:
                continue
            out.append(PolynomialPiece(lo, hi, _shifted(p.coeffs, lo - p.lo)))
        return out


def l1_distance_to_profile(poly: PiecewisePoly, profile: ArcProfile) -> float:
    """Exact L1 distance between a piecewise polynomial and step data."""
    cuts = np.unique(
        np.concatenate(
            [
                [0.0, poly.length],
                [p.hi for p in poly.pieces[:-1]],
                profile.breakpoints,
            ]
        )
    )
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        piece = poly.pieces[int(poly.piece_index(np.asarray((a + b) / 2.0)))]
        coeffs = _shifted(piece.coeffs, a - piece.lo).copy()
        coeffs[0] -= float(profile.evaluate((a + b) / 2.0))
        total += PolynomialPiece(a, b, coeffs).l1_norm(0)
    return total


def _transition_piece(lo: float, hi: float, v_left: float, v_right: float) -> PolynomialPiece:
    """Monotone cubic step from v_left to v_right with flat ends."""
    w = hi - lo
    jump = v_right - v_left
    coeffs = np.array([v_left, 0.0, 3.0 * jump / w**2, -2.0 * jump / w**3])
    return PolynomialPiece(lo, hi, coeffs)


def _free_zone(arc, epsilon_n: float, delta_n: float) -> tuple[float, float]:
    """Interval where jump transitions may live on this arc.

    The node-side interval of width delta_n is reserved for the cubic
    on every arc, and incoming arcs additionally reserve [0, epsilon_n]
    for the inflow quadratic.
    """
    if arc.incoming:
        return epsilon_n, arc.length - delta_n
    return delta_n, arc.length


def _smooth(
    v: PiecewiseConstantField, net: StarNetwork, epsilon_n: float, delta_n: float
) -> tuple[PiecewisePoly, ...]:
    """Replace each jump by a cubic transition of width epsilon_n.

    Transitions are clipped so they stay disjoint and clear of the
    reserved end zones; per arc the derivative's L1 norm equals the
    total variation of the data (each transition is monotone), and the
    second derivative integrates to 3|jump|/width per transition.
    Raises WidthOverflow when a jump sits inside a reserved zone or no
    room is left for a transition.
    """
    half = epsilon_n / 2.0

    smoothed = []
    for i, arc in enumerate(net.arcs):
        profile = v.arcs[i]
        lo_f, hi_f = _free_zone(arc, epsilon_n, delta_n)
        breaks = profile.breakpoints
        values = profile.values
        jumps = [
            (float(breaks[k]), float(values[k]), float(values[k + 1]))
            for k in range(breaks.size)
            if values[k + 1] != values[k]
        ]

        windows: list[tuple[float, float, float, float]] = []
        for k, (b, v_left, v_right) in enumerate(jumps):
            if not (lo_f <= b <= hi_f):
                raise WidthOverflow(
                    f"arc {i}: jump at {b:.6g} lies in a reserved zone for "
                    f"epsilon_n={epsilon_n:.3g}"
                )
            left_cap = b - lo_f if k == 0 else (b - jumps[k - 1][0]) / 2.0
            right_cap = hi_f - b if k == len(jumps) - 1 else (jumps[k + 1][0] - b) / 2.0
            lo = b - min(half, left_cap, b - lo_f)
            hi = b + min(half, right_cap, hi_f - b)
            if hi - lo <= 0.0:
                raise WidthOverflow(
                    f"arc {i}: no room to smooth the jump at {b:.6g}"
                )
            windows.append((lo, hi, v_left, v_right))

        pieces: list[PolynomialPiece] = []
        cursor = 0.0
        for lo, hi, v_left, v_right in windows:
            if lo > cursor:
                pieces.append(PolynomialPiece(cursor, lo, np.array([v_left])))
            pieces.append(_transition_piece(lo, hi, v_left, v_right))
            cursor = hi
        tail_value = (
            windows[-1][3] if windows else float(profile.evaluate(arc.length))
        )
        if cursor < arc.length:
            pieces.append(
                PolynomialPiece(cursor, arc.length, np.array([tail_value]))
            )
        smoothed.append(PiecewisePoly(arc.length, tuple(pieces)))
    return tuple(smoothed)


def _hermite_tail(
    c0: float, c1: float, width: float, value_end: float, slope_end: float
) -> np.ndarray:
    """Cubic with given value/slope at 0 and at width, ascending coeffs."""
    a = value_end - c0 - c1 * width
    b = slope_end - c1
    c2 = (3.0 * a - b * width) / width**2
    c3 = (b * width - 2.0 * a) / width**3
    return np.array([c0, c1, c2, c3])


def _node_cubic(
    w: Sequence[PiecewisePoly],
    arc_id: int,
    net: StarNetwork,
    alpha: np.ndarray,
    epsilon_n: float,
    delta_n: float,
) -> PolynomialPiece:
    """Cubic on the node-side interval enforcing the transmission slope.

    The cubic matches the smoothed core's value and derivative at the
    interior joint and its value at the node; the remaining degree of
    freedom pins epsilon_n times the node slope to the coupling
    balance, so the assembled data satisfies the viscous node condition
    exactly; build_compatible has checked that delta_n fits on the arc.
    """
    arc = net.arc(arc_id)
    node_vals = np.array([p.evaluate(a.node_position) for p, a in zip(w, net.arcs)])
    coupling = float(alpha[arc_id] @ node_vals)
    lam = arc.speed

    if arc.incoming:
        lo, hi = arc.length - delta_n, arc.length
        c0 = float(w[arc_id].evaluate(lo))
        c1 = float(w[arc_id].evaluate(lo, 1))
        value_end = float(node_vals[arc_id])
        slope_end = (lam * value_end - coupling) / epsilon_n
    else:
        lo, hi = 0.0, delta_n
        c0 = float(node_vals[arc_id])
        c1 = (coupling + lam * c0) / epsilon_n
        value_end = float(w[arc_id].evaluate(hi))
        slope_end = float(w[arc_id].evaluate(hi, 1))
    return PolynomialPiece(lo, hi, _hermite_tail(c0, c1, delta_n, value_end, slope_end))


def fit_boundary_quadratic(
    w_arc: PiecewisePoly, boundary_value: float, epsilon_n: float
) -> PolynomialPiece:
    """Quadratic on [0, epsilon_n] pinning the inflow value.

    Matches the core's value and derivative at epsilon_n and takes the
    prescribed value at 0.
    """
    if epsilon_n >= w_arc.length:
        raise WidthOverflow("boundary interval exceeds the arc")
    a = float(w_arc.evaluate(epsilon_n)) - boundary_value
    s = float(w_arc.evaluate(epsilon_n, 1))
    c1 = 2.0 * a / epsilon_n - s
    c2 = (s - a / epsilon_n) / epsilon_n
    return PolynomialPiece(0.0, epsilon_n, np.array([boundary_value, c1, c2]))


@dataclass(frozen=True)
class CompatibleData:
    """C^1 polynomial data admissible for the viscous problem.

    arcs holds the per-arc functions, C^1 at every joint and equal to B
    at each inflow end by construction. The other fields are exact
    diagnostics: the node-condition residual, the L1 error and norms.
    """

    epsilon_n: float
    arcs: tuple[PiecewisePoly, ...]
    membership_residual: float
    l1_error: float
    deriv_norms: np.ndarray
    w21_norms: np.ndarray

    @property
    def scaled_w21(self) -> float:
        """epsilon_n times the full W^{2,1} norm over the network."""
        return self.epsilon_n * float(np.sum(self.w21_norms))


def build_compatible(
    v: PiecewiseConstantField,
    B: Sequence[float],
    net: StarNetwork,
    K: CouplingMatrix,
    epsilon_n: float,
    theta: float = DEFAULT_THETA,
) -> CompatibleData:
    """Assemble the compatible replacement of rough data.

    Smooths the jumps, overlays the node cubic on every arc and the
    inflow quadratic on incoming arcs, and reports exact membership and
    norm diagnostics. Raises DimensionMismatch unless K fits net, and
    WidthOverflow when the reserved intervals do not fit on an arc at
    this epsilon_n.
    """
    finite_above(epsilon_n, "epsilon_n")
    finite_above(theta, "theta", 1.0)
    bvals = finite_values(B, net.m)
    _as_square(K.k, net.m)
    alpha = alpha_from_k(K)
    delta_n = epsilon_n**theta

    for i, arc in enumerate(net.arcs):
        needed = epsilon_n + delta_n if arc.incoming else delta_n
        if needed >= arc.length:
            raise WidthOverflow(
                f"arc {i}: reserved intervals ({needed:.3g}) exceed length "
                f"{arc.length:.3g}"
            )

    check_profile_lengths(v.arcs, net, "profiles")
    core = _smooth(v, net, epsilon_n, delta_n)
    cubics = tuple(
        _node_cubic(core, i, net, alpha, epsilon_n, delta_n) for i in range(net.m)
    )
    assembled = []
    for i, arc in enumerate(net.arcs):
        if arc.incoming:
            r = fit_boundary_quadratic(core[i], float(bvals[i]), epsilon_n)
            pieces = [
                r,
                *core[i].restricted(epsilon_n, arc.length - delta_n),
                cubics[i],
            ]
        else:
            pieces = [cubics[i], *core[i].restricted(delta_n, arc.length)]
        assembled.append(PiecewisePoly(arc.length, tuple(pieces)))

    ends = [(poly, arc.node_position) for poly, arc in zip(assembled, net.arcs)]
    membership = junction_residual(
        net,
        alpha,
        epsilon_n,
        np.array([poly.evaluate(x) for poly, x in ends]),
        np.array([poly.evaluate(x, 1) for poly, x in ends]),
    )

    l1_err = 0.0
    deriv_norms = np.empty(net.m)
    w21_norms = np.empty(net.m)
    for i in range(net.m):
        l1_err += l1_distance_to_profile(assembled[i], v.arcs[i])
        deriv_norms[i] = assembled[i].l1_norm(1)
        w21_norms[i] = assembled[i].w21_norm()

    return CompatibleData(
        epsilon_n=epsilon_n,
        arcs=tuple(assembled),
        membership_residual=membership,
        l1_error=float(l1_err),
        deriv_norms=deriv_norms,
        w21_norms=w21_norms,
    )
