"""Uniform per-arc grids and grid-sampled states.

Each arc gets its own uniform grid with at least four cells so a
boundary layer and an interior always coexist. Discrete states carry
one value per grid point per arc plus the time stamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .errors import DimensionMismatch, NonPositiveParameter
from .network import StarNetwork

#: smallest admissible number of cells per arc
MIN_CELLS = 4


@dataclass(frozen=True)
class Grid:
    """Uniform grid per arc: cells[i] intervals of width spacings[i]."""

    cells: tuple[int, ...]
    spacings: tuple[float, ...]

    @property
    def arc_count(self) -> int:
        return len(self.cells)

    def nodes(self, arc_id: int) -> np.ndarray:
        n = self.cells[arc_id]
        return np.linspace(0.0, n * self.spacings[arc_id], n + 1)

    def midpoints(self, arc_id: int) -> np.ndarray:
        h = self.spacings[arc_id]
        return (np.arange(self.cells[arc_id]) + 0.5) * h


def make_grid(
    net: StarNetwork,
    h: float | None = None,
    epsilon: float | None = None,
    rule_constant: float = 8.0,
    max_cells: int = 10**6,
) -> Grid:
    """Build per-arc grids from a target spacing or a viscosity rule.

    Exactly one of ``h`` and ``epsilon`` must be given; with ``epsilon``
    the target spacing is epsilon / rule_constant, which resolves the
    boundary layer as long as rule_constant >= 4. Cell counts are
    rounded up, clipped to [MIN_CELLS, max_cells], and the spacing is
    recomputed so cells exactly tile each arc.
    """
    if (h is None) == (epsilon is None):
        raise DimensionMismatch("give exactly one of h and epsilon")
    if epsilon is not None:
        if epsilon <= 0.0:
            raise NonPositiveParameter("epsilon must be positive")
        if rule_constant < 4.0:
            raise NonPositiveParameter("grid rule constant must be >= 4")
        h = epsilon / rule_constant
    assert h is not None
    if h <= 0.0 or not np.isfinite(h):
        raise NonPositiveParameter("grid spacing must be positive")

    cells = []
    spacings = []
    for arc in net.arcs:
        n = int(np.ceil(arc.length / h))
        n = min(max(n, MIN_CELLS), max_cells)
        cells.append(n)
        spacings.append(arc.length / n)
    return Grid(cells=tuple(cells), spacings=tuple(spacings))


class ArcEvaluable(Protocol):
    """Anything that can be evaluated pointwise along one arc."""

    def evaluate(self, x: np.ndarray | float) -> np.ndarray | float: ...


@dataclass(frozen=True)
class DiscreteState:
    """Grid values per arc at one time."""

    values: tuple[np.ndarray, ...]
    t: float

    def min_value(self) -> float:
        return min(float(np.min(v)) for v in self.values)

    def max_abs(self) -> float:
        return max(float(np.max(np.abs(v))) for v in self.values)

    def is_finite(self) -> bool:
        return all(bool(np.all(np.isfinite(v))) for v in self.values)


def new_state(
    grid: Grid, arrays: Sequence[np.ndarray], t: float = 0.0
) -> DiscreteState:
    """Validate array lengths against the grid and freeze them."""
    if len(arrays) != grid.arc_count:
        raise DimensionMismatch(
            f"{len(arrays)} arrays for {grid.arc_count} arcs"
        )
    frozen = []
    for i, arr in enumerate(arrays):
        a = np.asarray(arr, dtype=float)
        if a.shape != (grid.cells[i] + 1,):
            raise DimensionMismatch(
                f"arc {i}: expected {grid.cells[i] + 1} values, got {a.shape}"
            )
        if not np.all(np.isfinite(a)):
            raise DimensionMismatch(f"arc {i}: non-finite state values")
        a = a.copy()
        a.flags.writeable = False
        frozen.append(a)
    return DiscreteState(values=tuple(frozen), t=float(t))


def sample_on_grid(
    profiles: Sequence[ArcEvaluable], grid: Grid, t: float = 0.0
) -> DiscreteState:
    """Pointwise sample per-arc profiles at the grid nodes."""
    if len(profiles) != grid.arc_count:
        raise DimensionMismatch(
            f"{len(profiles)} profiles for {grid.arc_count} arcs"
        )
    arrays = [
        np.asarray(profiles[i].evaluate(grid.nodes(i)), dtype=float)
        for i in range(grid.arc_count)
    ]
    return new_state(grid, arrays, t)


def discrete_l1_norm(state: DiscreteState, grid: Grid) -> float:
    """Composite-trapezoid L1 norm of |state| summed over arcs."""
    total = 0.0
    for i, vals in enumerate(state.values):
        h = grid.spacings[i]
        a = np.abs(vals)
        total += h * (0.5 * a[0] + np.sum(a[1:-1]) + 0.5 * a[-1])
    return float(total)
