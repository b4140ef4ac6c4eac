"""Uniform per-arc grids and grid-sampled states.

Each arc gets its own uniform grid with at least four cells so a
boundary layer and an interior always coexist. A discrete state keeps
one value per grid point in a single flat vector, arc after arc, plus
the time stamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Protocol, Sequence

import numpy as np

from .errors import DimensionMismatch, finite_above
from .network import StarNetwork

#: smallest admissible number of cells per arc
MIN_CELLS = 4
#: largest number of cells per arc; finer targets are clipped to it
MAX_CELLS = 10**6
#: default grid rule: target spacing epsilon / DEFAULT_H_RULE
DEFAULT_H_RULE = 8.0
#: smallest admissible grid rule: coarser grids leave the layer unresolved
MIN_H_RULE = 4.0


def to_march_order(flat: np.ndarray) -> np.ndarray:
    """flat's even-indexed rows, then its odd-indexed ones, as a new array."""
    return np.concatenate([flat[0::2], flat[1::2]])


def to_grid_order(x: np.ndarray) -> np.ndarray:
    """The inverse of to_march_order, as a new array."""
    flat = np.empty_like(x)
    n_even = (x.shape[0] + 1) // 2
    flat[0::2] = x[:n_even]
    flat[1::2] = x[n_even:]
    return flat


def march_index(k: np.ndarray, size: int) -> np.ndarray:
    """Positions in march order of grid-order indices k into size rows."""
    return k // 2 + (k % 2) * ((size + 1) // 2)


@dataclass(frozen=True)
class Grid:
    """Uniform grid per arc: cells[i] intervals of width spacings[i]."""

    cells: tuple[int, ...]
    spacings: tuple[float, ...]

    @property
    def arc_count(self) -> int:
        return len(self.cells)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Arc i's points sit at [offsets[i], offsets[i + 1]) of a flat state."""
        return tuple(accumulate((n + 1 for n in self.cells), initial=0))

    @cached_property
    def march_runs(self) -> np.ndarray:
        """Where each arc's even-indexed points start in march order, then
        each arc's odd-indexed ones: sorted starts of 2 * arc_count runs."""
        first = np.asarray(self.offsets[:-1])
        return np.concatenate([(first + 1) // 2, first // 2 + (self.offsets[-1] + 1) // 2])

    @cached_property
    def march_ends(self) -> np.ndarray:
        """Each arc's first point, then each arc's last one, in march order."""
        b = np.asarray(self.offsets)
        return march_index(np.concatenate([b[:-1], b[1:] - 1]), b[-1])

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
    rule_constant: float = DEFAULT_H_RULE,
) -> Grid:
    """Build per-arc grids from a target spacing or a viscosity rule.

    Exactly one of ``h`` and ``epsilon`` must be given; with ``epsilon``
    the target spacing is epsilon / rule_constant, which resolves the
    boundary layer as long as rule_constant >= MIN_H_RULE. Cell counts
    are rounded up, clipped to [MIN_CELLS, MAX_CELLS], and the spacing
    is recomputed so cells exactly tile each arc.
    """
    if (h is None) == (epsilon is None):
        raise DimensionMismatch("give exactly one of h and epsilon")
    if epsilon is not None:
        h = finite_above(epsilon, "epsilon") / finite_above(
            rule_constant, "rule_constant", MIN_H_RULE, inclusive=True
        )
    h = finite_above(h, "h")

    cells = []
    spacings = []
    for arc in net.arcs:
        n = int(np.ceil(arc.length / h))
        n = min(max(n, MIN_CELLS), MAX_CELLS)
        cells.append(n)
        spacings.append(arc.length / n)
    return Grid(cells=tuple(cells), spacings=tuple(spacings))


class ArcEvaluable(Protocol):
    """Anything that can be evaluated pointwise along one arc."""

    def evaluate(self, x: np.ndarray | float) -> np.ndarray | float: ...


@dataclass(frozen=True)
class DiscreteState:
    """Grid values of every arc at one time, in one read-only vector.

    flat holds the arcs one after another; arc i is
    flat[bounds[i]:bounds[i + 1]], and values hands out those slices as
    read-only views. Build states with new_state or sample_on_grid.
    """

    flat: np.ndarray
    bounds: tuple[int, ...]
    t: float

    @property
    def values(self) -> tuple[np.ndarray, ...]:
        b = self.bounds
        return tuple(self.flat[b[i] : b[i + 1]] for i in range(len(b) - 1))

    def min_value(self) -> float:
        return float(np.min(self.flat))


def new_state(
    grid: Grid, arrays: Sequence[np.ndarray], t: float = 0.0
) -> DiscreteState:
    """Validate array lengths against the grid and copy them into one state."""
    if len(arrays) != grid.arc_count:
        raise DimensionMismatch(
            f"{len(arrays)} arrays for {grid.arc_count} arcs"
        )
    for i, arr in enumerate(arrays):
        shape = np.shape(arr)
        if shape != (grid.cells[i] + 1,):
            raise DimensionMismatch(
                f"arc {i}: expected {grid.cells[i] + 1} values, got {shape}"
            )
    flat = np.concatenate(arrays, dtype=float)
    finite = np.isfinite(flat)
    if not finite.all():
        arc = int(np.searchsorted(grid.offsets, np.argmin(finite), side="right")) - 1
        raise DimensionMismatch(f"arc {arc}: non-finite state values")
    return adopt_state(grid, flat, t)


def adopt_state(grid: Grid, flat: np.ndarray, t: float) -> DiscreteState:
    """Freeze a finite vector nobody else holds into a state, without a copy."""
    if flat.shape != (grid.offsets[-1],):
        raise DimensionMismatch(f"{flat.size} values for {grid.offsets[-1]} points")
    flat.flags.writeable = False
    return DiscreteState(flat, grid.offsets, float(t))


def check_on_grid(state: DiscreteState, grid: Grid) -> None:
    """Raise DimensionMismatch unless state holds grid's points, arc by arc."""
    if state.bounds == grid.offsets:
        return
    if len(state.bounds) != len(grid.offsets):
        raise DimensionMismatch(
            f"state has {len(state.bounds) - 1} arcs, the grid {grid.arc_count}"
        )
    points = np.diff(state.bounds)
    arc = int(np.argmax(points != np.asarray(grid.cells) + 1))
    raise DimensionMismatch(
        f"arc {arc}: state has {points[arc]} points for {grid.cells[arc]} cells"
    )


def sample_on_grid(profiles: Sequence[ArcEvaluable], grid: Grid) -> DiscreteState:
    """Pointwise sample per-arc profiles at the grid nodes, at time 0."""
    if len(profiles) != grid.arc_count:
        raise DimensionMismatch(
            f"{len(profiles)} profiles for {grid.arc_count} arcs"
        )
    arrays = [
        np.asarray(profiles[i].evaluate(grid.nodes(i)), dtype=float)
        for i in range(grid.arc_count)
    ]
    return new_state(grid, arrays)


def average_on_grid(profiles: Sequence, grid: Grid) -> DiscreteState:
    """Average each profile over its grid points' cells, at time 0.

    A point x of an arc of length L gets the profile's mean over
    [x - h/2, x + h/2] cut to [0, L], the difference of its primitive
    (profile.primitive) at the two ends over their distance.
    """
    if len(profiles) != grid.arc_count:
        raise DimensionMismatch(
            f"{len(profiles)} profiles for {grid.arc_count} arcs"
        )
    arrays = []
    for i, profile in enumerate(profiles):
        x = grid.nodes(i)
        half = 0.5 * grid.spacings[i]
        lo = np.maximum(x - half, 0.0)
        hi = np.minimum(x + half, profile.length)
        arrays.append((profile.primitive(hi) - profile.primitive(lo)) / (hi - lo))
    return new_state(grid, arrays)


def discrete_l1_norm(state: DiscreteState, grid: Grid) -> float:
    """Composite-trapezoid L1 norm of |state|: march_l1_and_min's, in march order."""
    return march_l1_and_min(to_march_order(state.flat), grid)[0]


def march_l1_and_min(x: np.ndarray, grid: Grid) -> tuple[float, float]:
    """The composite-trapezoid L1 norm and the minimum of x, a state on
    grid in march order (to_march_order).

    Arc a adds h_a * ((S_even + S_odd) - 0.5 * (|u_first| + |u_last|)) to
    +0.0 in arc order, in Python floats; S_even and S_odd sum |u| over its
    even- and odd-indexed points, contiguous runs that np.add.reduceat
    adds as their first value plus the pairwise sum of the rest. No BLAS
    dot or einsum: their sum orders follow thread count or SIMD dispatch.
    The minimum is NaN on any NaN and -inf on any -inf, the norm +inf or
    NaN on any +inf. Skipping np.abs when no value is negative changes
    only the sign of a zero run sum, which the add to +0.0 makes +0.0.
    """
    lowest = float(x.min())
    runs = np.add.reduceat(x if lowest >= 0.0 else np.abs(x), grid.march_runs).tolist()
    ends = x[grid.march_ends].tolist()
    m, total = grid.arc_count, 0.0
    for h, even, odd, first, last in zip(grid.spacings, runs, runs[m:], ends, ends[m:]):
        total += h * ((even + odd) - 0.5 * (abs(first) + abs(last)))
    return total, lowest
