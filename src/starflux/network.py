"""Star-network geometry, coupling matrices, and structural assumptions.

A star network is a junction joined by m arcs. Each arc carries its own
interval [0, L_i] and a positive transport speed. Incoming arcs meet the
junction at x = L_i, outgoing arcs at x = 0, so flow always runs toward
increasing x. The junction exchange is encoded by a symmetric nonnegative
coupling matrix K whose off-diagonal entry K_ij weights the jump between
the traces of arcs i and j.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AssumptionViolated,
    DimensionMismatch,
    EmptySide,
    finite_above,
)


class Orientation(enum.Enum):
    """Direction of an arc relative to the junction."""

    INCOMING = "in"
    OUTGOING = "out"

    @classmethod
    def parse(cls, value: "Orientation | str") -> "Orientation":
        if isinstance(value, Orientation):
            return value
        try:
            return cls(value)
        except ValueError:
            raise DimensionMismatch(
                f"orientation must be 'in' or 'out', got {value!r}"
            ) from None


@dataclass(frozen=True)
class Arc:
    """One edge of the star.

    The arc owns the interval [0, length]. For incoming arcs the junction
    sits at x = length and the outer endpoint at x = 0; outgoing arcs are
    the mirror image. ``speed`` is the (positive) transport velocity in the
    direction of increasing x.
    """

    id: int
    length: float
    speed: float
    orientation: Orientation

    @property
    def incoming(self) -> bool:
        return self.orientation is Orientation.INCOMING

    @property
    def node_position(self) -> float:
        """Coordinate of the junction endpoint on this arc."""
        return self.length if self.incoming else 0.0

    @property
    def outer_position(self) -> float:
        """Coordinate of the non-junction endpoint on this arc."""
        return 0.0 if self.incoming else self.length


@dataclass(frozen=True)
class StarNetwork:
    """Immutable collection of arcs meeting at one junction."""

    arcs: tuple[Arc, ...]

    @property
    def m(self) -> int:
        return len(self.arcs)

    @property
    def incoming_ids(self) -> tuple[int, ...]:
        return tuple(a.id for a in self.arcs if a.incoming)

    @property
    def outgoing_ids(self) -> tuple[int, ...]:
        return tuple(a.id for a in self.arcs if not a.incoming)

    def arc(self, arc_id: int) -> Arc:
        return self.arcs[arc_id]

    def speeds(self) -> np.ndarray:
        return np.array([a.speed for a in self.arcs])


def build_network(arc_specs: Iterable[Sequence[object]]) -> StarNetwork:
    """Assemble a validated StarNetwork from (length, speed, orientation) triples.

    Arc ids are assigned in input order. Raises NonPositiveParameter for
    bad lengths or speeds and EmptySide if either side of the junction is
    empty.
    """
    arcs: list[Arc] = []
    for i, entry in enumerate(arc_specs):
        if len(entry) != 3:
            raise DimensionMismatch(
                f"arc {i}: expected (length, speed, orientation)"
            )
        length, speed, orientation = entry
        length = finite_above(length, f"arc {i} length")  # type: ignore[arg-type]
        speed = finite_above(speed, f"arc {i} speed")  # type: ignore[arg-type]
        arcs.append(Arc(i, length, speed, Orientation.parse(orientation)))

    net = StarNetwork(tuple(arcs))
    if not net.incoming_ids or not net.outgoing_ids:
        raise EmptySide(
            "network needs at least one incoming and one outgoing arc"
        )
    return net


def _as_square(matrix: np.ndarray | Sequence[Sequence[float]], m: int | None) -> np.ndarray:
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    if m is not None and arr.shape[0] != m:
        raise DimensionMismatch(
            f"matrix is {arr.shape[0]}x{arr.shape[0]} but the network has {m} arcs"
        )
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatch("matrix entries must be finite")
    return arr


@dataclass(frozen=True)
class CouplingMatrix:
    """Junction exchange coefficients K.

    Only shape and finiteness are enforced at construction; sign,
    symmetry, and connectivity are the business of validate_assumptions,
    so a report can still be produced for a bad matrix.
    """

    k: np.ndarray

    @classmethod
    def from_array(
        cls, matrix: np.ndarray | Sequence[Sequence[float]], net: StarNetwork | None = None
    ) -> "CouplingMatrix":
        arr = _as_square(matrix, net.m if net is not None else None)
        arr = arr.copy()
        arr.flags.writeable = False
        return cls(arr)

    @property
    def m(self) -> int:
        return self.k.shape[0]


#: symmetry tolerance for K, relative to its largest entry
SYMMETRY_TOL = 1e-12


def _coupling_defects(k: np.ndarray) -> list[str]:
    """Ways K breaks the sign rules: nonnegative, symmetric, zero diagonal."""
    defects = []
    if np.any(k < 0.0):
        defects.append("negative coupling entries")
    sym_defect = float(np.max(np.abs(k - k.T), initial=0.0))
    if sym_defect > SYMMETRY_TOL * float(np.max(np.abs(k), initial=0.0)):
        defects.append(
            f"asymmetry {sym_defect:.3e} exceeds {SYMMETRY_TOL:.0e} times max|K|"
        )
    if np.any(np.diag(k) != 0.0):
        defects.append("nonzero diagonal")
    return defects


def alpha_from_k(K: CouplingMatrix) -> np.ndarray:
    """Convert coupling coefficients to the zero-row-sum exchange matrix.

    alpha has -K off the diagonal and the row sums of K on it, so every
    row and column sums to zero. Returned read-only. Raises
    AssumptionViolated if K breaks the sign rules, since the exchange
    matrix's sign structure depends on them.
    """
    k = K.k
    defects = _coupling_defects(k)
    if defects:
        raise AssumptionViolated("; ".join(defects))
    alpha = -k.astype(float)
    np.fill_diagonal(alpha, k.sum(axis=1))
    alpha.flags.writeable = False
    return alpha


@dataclass(frozen=True)
class AssumptionReport:
    """Which structural assumptions the pair (network, K) satisfies.

    holds_sign_symmetry: K is componentwise nonnegative, symmetric, zero
        diagonal.
    holds_incoming_linked: every incoming arc has positive coupling to at
        least one outgoing arc (needed for well-posed node weights).
    holds_outgoing_linked: every outgoing arc has positive coupling to at
        least one incoming arc (needed for nonzero outflow).
    """

    holds_sign_symmetry: bool
    holds_incoming_linked: bool
    holds_outgoing_linked: bool
    messages: tuple[str, ...] = ()


def validate_assumptions(net: StarNetwork, K: CouplingMatrix) -> AssumptionReport:
    """Check sign/symmetry and the two cross-side connectivity conditions."""
    k = _as_square(K.k, net.m)
    messages = _coupling_defects(k)
    sign_ok = not messages

    inc = list(net.incoming_ids)
    out = list(net.outgoing_ids)
    incoming_linked = all(np.any(k[i, out] > 0.0) for i in inc)
    if not incoming_linked:
        bad = [i for i in inc if not np.any(k[i, out] > 0.0)]
        messages.append(f"incoming arcs {bad} have no outgoing coupling")
    outgoing_linked = all(np.any(k[l, inc] > 0.0) for l in out)
    if not outgoing_linked:
        bad = [l for l in out if not np.any(k[l, inc] > 0.0)]
        messages.append(f"outgoing arcs {bad} have no incoming coupling")

    return AssumptionReport(
        holds_sign_symmetry=sign_ok,
        holds_incoming_linked=incoming_linked,
        holds_outgoing_linked=outgoing_linked,
        messages=tuple(messages),
    )
