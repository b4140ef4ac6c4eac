"""Exact transport solution on the star by characteristics.

Piecewise-constant initial data rides along characteristics with the arc
speed. Incoming arcs feed the junction with the time trace of their
data; the transmission weights split the total incoming flux into node
values for the outgoing arcs, which then advect outward. Everything
stays piecewise constant, so the solution is represented exactly by
breakpoint lists and evaluated pointwise without discretization error.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidGamma, finite_above, finite_values
from .grids import DiscreteState, Grid
from .network import StarNetwork

#: input transmission matrices may deviate from column sums 1 by this much
GAMMA_INPUT_TOL = 1e-8


def _check_breaks(breaks: np.ndarray, upper: float, what: str) -> None:
    if breaks.size:
        if np.any(breaks <= 0.0) or np.any(breaks >= upper):
            raise DimensionMismatch(
                f"{what} breakpoints must lie strictly inside (0, {upper})"
            )
        if np.any(np.diff(breaks) <= 0.0):
            raise DimensionMismatch(f"{what} breakpoints must strictly increase")


@dataclass(frozen=True)
class ArcProfile:
    """Piecewise-constant function on one arc's interval [0, length].

    Piece r takes values[r] on (breakpoints[r-1], breakpoints[r]], with
    the first piece closed at 0: the profile is left-continuous.
    """

    length: float
    breakpoints: np.ndarray
    values: np.ndarray

    @classmethod
    def from_lists(
        cls,
        length: float,
        breakpoints: Sequence[float],
        values: Sequence[float],
    ) -> "ArcProfile":
        finite_above(length, "length")
        b = np.asarray(breakpoints, dtype=float)
        v = np.asarray(values, dtype=float)
        if v.size != b.size + 1:
            raise DimensionMismatch(
                f"{b.size} breakpoints need {b.size + 1} values, got {v.size}"
            )
        if not (np.all(np.isfinite(b)) if b.size else True) or not np.all(
            np.isfinite(v)
        ):
            raise DimensionMismatch("profile entries must be finite")
        _check_breaks(b, length, "profile")
        b.flags.writeable = False
        v.flags.writeable = False
        return cls(length=float(length), breakpoints=b, values=v)

    def evaluate(self, x: np.ndarray | float) -> np.ndarray | float:
        idx = np.searchsorted(self.breakpoints, x, side="left")
        return self.values[idx]

    def total_variation(self) -> float:
        if self.values.size < 2:
            return 0.0
        return float(np.sum(np.abs(np.diff(self.values))))


@dataclass(frozen=True)
class PiecewiseConstantField:
    """One ArcProfile per arc, aligned with the network's arc ids."""

    arcs: tuple[ArcProfile, ...]

    @classmethod
    def constant(cls, net: StarNetwork, values: Sequence[float]) -> "PiecewiseConstantField":
        vals = np.asarray(values, dtype=float)
        if vals.shape != (net.m,):
            raise DimensionMismatch(f"need {net.m} constants, got {vals.shape}")
        return cls(
            tuple(
                ArcProfile.from_lists(net.arc(i).length, [], [vals[i]])
                for i in range(net.m)
            )
        )

    def total_variation(self) -> float:
        return sum(a.total_variation() for a in self.arcs)


@dataclass(frozen=True)
class TraceSignal:
    """Piecewise-constant signal in time, left-continuous.

    Piece r holds on (breakpoints[r-1], breakpoints[r]]; the last piece
    extends to every later time.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    @classmethod
    def from_lists(
        cls, breakpoints: Sequence[float], values: Sequence[float]
    ) -> "TraceSignal":
        b = np.asarray(breakpoints, dtype=float)
        v = np.asarray(values, dtype=float)
        if v.size != b.size + 1:
            raise DimensionMismatch(
                f"{b.size} breakpoints need {b.size + 1} values, got {v.size}"
            )
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(v))):
            raise DimensionMismatch("signal entries must be finite")
        if b.size and (np.any(b <= 0.0) or np.any(np.diff(b) <= 0.0)):
            raise DimensionMismatch("signal breakpoints must be positive increasing")
        b.flags.writeable = False
        v.flags.writeable = False
        return cls(breakpoints=b, values=v)

    def evaluate(self, t: np.ndarray | float) -> np.ndarray | float:
        idx = np.searchsorted(self.breakpoints, t, side="left")
        return self.values[idx]


def incoming_trace(
    net: StarNetwork, arc_id: int, u0_i: ArcProfile, B_i: float, T: float
) -> TraceSignal:
    """Time trace of an incoming arc's value at the junction.

    The data slides toward the junction at the arc speed, so the trace
    replays the initial profile from the junction end backwards; once the
    whole profile has passed (after length/speed), the inflow value B_i
    takes over. Breakpoints at or beyond the horizon T are dropped.
    """
    arc = net.arc(arc_id)
    if not arc.incoming:
        raise DimensionMismatch(f"arc {arc_id} is not incoming")
    T = finite_above(T, "T")
    lam, L = arc.speed, arc.length

    breaks = [(L - b) / lam for b in reversed(u0_i.breakpoints.tolist())]
    values = list(reversed(u0_i.values.tolist()))
    breaks.append(L / lam)
    values.append(float(B_i))

    cut = bisect.bisect_left(breaks, T)
    return TraceSignal.from_lists(breaks[:cut], values[: cut + 1])


def _merged_partition(traces: Sequence[TraceSignal], T: float) -> np.ndarray:
    pool = np.concatenate(
        [tr.breakpoints for tr in traces] + [np.empty(0)]
    )
    pool = np.unique(pool)
    return pool[pool < T]


@dataclass(frozen=True)
class HyperbolicSolution:
    """Exact transport solution, evaluable anywhere in space-time."""

    net: StarNetwork
    gamma: np.ndarray
    B: np.ndarray
    u0: PiecewiseConstantField
    T: float
    traces: tuple[TraceSignal, ...]
    node_values: tuple[TraceSignal, ...]

    def evaluate(
        self, arc_id: int, x: np.ndarray | float, t: float
    ) -> np.ndarray | float:
        """Solution value on one arc at time t; vectorized over x."""
        arc = self.net.arc(arc_id)
        xs = np.asarray(x, dtype=float)
        shift = xs - arc.speed * t
        from_data = self.u0.arcs[arc_id].evaluate(shift)
        if arc.incoming:
            out = np.where(shift > 0.0, from_data, self.B[arc_id])
        else:
            pos = self.net.outgoing_ids.index(arc_id)
            s = t - xs / arc.speed
            from_node = self.node_values[pos].evaluate(np.maximum(s, 0.0))
            out = np.where(s > 0.0, from_node, from_data)
        if np.isscalar(x):
            return float(out)
        return out

    def snapshot(self, t: float) -> PiecewiseConstantField:
        """Exact piecewise-constant spatial profile at time t."""
        profiles = []
        for arc in self.net.arcs:
            lam, L = arc.speed, arc.length
            cand = [b + lam * t for b in self.u0.arcs[arc.id].breakpoints]
            cand.append(lam * t)
            if not arc.incoming:
                pos = self.net.outgoing_ids.index(arc.id)
                cand.extend(
                    lam * (t - s) for s in self.node_values[pos].breakpoints
                )
            breaks = np.unique([c for c in cand if 0.0 < c < L])
            edges = np.concatenate([[0.0], breaks, [L]])
            mids = 0.5 * (edges[:-1] + edges[1:])
            vals = np.asarray(self.evaluate(arc.id, mids, t), dtype=float)
            profiles.append(ArcProfile.from_lists(L, breaks, vals))
        return PiecewiseConstantField(tuple(profiles))


def solve_exact(
    net: StarNetwork,
    gamma: np.ndarray,
    u0: PiecewiseConstantField,
    B: Sequence[float],
    T: float,
) -> HyperbolicSolution:
    """Solve the inviscid transport problem exactly up to time T.

    gamma is the (outgoing x incoming) transmission matrix; B holds the
    inflow values indexed by arc id (entries for outgoing arcs are
    ignored here, the outflow end needs no condition). Raises
    InvalidGamma for non-finite or negative entries or column sums away
    from one.
    """
    g = np.asarray(gamma, dtype=float)
    n_out, n_inc = len(net.outgoing_ids), len(net.incoming_ids)
    if g.shape != (n_out, n_inc):
        raise DimensionMismatch(
            f"gamma shape {g.shape}, expected {(n_out, n_inc)}"
        )
    if not np.all(np.isfinite(g)):
        raise InvalidGamma("transmission weights must be finite")
    if float(np.min(g, initial=0.0)) < -1e-12:
        raise InvalidGamma("transmission weights must be nonnegative")
    if float(np.max(np.abs(g.sum(axis=0) - 1.0), initial=0.0)) > GAMMA_INPUT_TOL:
        raise InvalidGamma("transmission columns must sum to one")
    if len(u0.arcs) != net.m:
        raise DimensionMismatch(f"{len(u0.arcs)} profiles for {net.m} arcs")
    bvals = finite_values(B, net.m)
    T = finite_above(T, "T")

    traces = tuple(
        incoming_trace(net, j, u0.arcs[j], float(bvals[j]), T)
        for j in net.incoming_ids
    )
    breaks = _merged_partition(traces, T)
    edges = np.concatenate([[0.0], breaks, [T]])
    mids = 0.5 * (edges[:-1] + edges[1:])
    piece_values = np.column_stack([tr.evaluate(mids) for tr in traces])

    in_speeds = np.array([net.arc(j).speed for j in net.incoming_ids])
    out_speeds = np.array([net.arc(l).speed for l in net.outgoing_ids])
    flux = piece_values * in_speeds
    node_vals = (flux @ g.T) / out_speeds
    node_values = tuple(
        TraceSignal.from_lists(breaks, node_vals[:, pos])
        for pos in range(n_out)
    )

    g = g.copy()
    g.flags.writeable = False
    bvals = bvals.copy()
    bvals.flags.writeable = False
    return HyperbolicSolution(
        net=net,
        gamma=g,
        B=bvals,
        u0=u0,
        T=float(T),
        traces=traces,
        node_values=node_values,
    )


def _midpoint_values(
    obj: "HyperbolicSolution | PiecewiseConstantField | DiscreteState",
    arc_id: int,
    mids: np.ndarray,
    t: float | None,
) -> np.ndarray:
    if isinstance(obj, HyperbolicSolution):
        if t is None:
            raise DimensionMismatch("comparing a solution needs a time t")
        return np.asarray(obj.evaluate(arc_id, mids, t), dtype=float)
    if isinstance(obj, PiecewiseConstantField):
        return np.asarray(obj.arcs[arc_id].evaluate(mids), dtype=float)
    if isinstance(obj, DiscreteState):
        vals = obj.values[arc_id]
        if vals.size != mids.size + 1:
            raise DimensionMismatch(
                f"arc {arc_id}: state has {vals.size} points for {mids.size} cells"
            )
        return 0.5 * (vals[:-1] + vals[1:])
    raise DimensionMismatch(f"cannot take midpoint values of {type(obj)!r}")


def l1_distance(
    a: "HyperbolicSolution | PiecewiseConstantField | DiscreteState",
    b: "HyperbolicSolution | PiecewiseConstantField | DiscreteState",
    grid: Grid,
    t: float | None = None,
) -> float:
    """Composite-midpoint L1 distance between two solution-like objects.

    Discrete states are averaged onto cell midpoints; exact solutions are
    evaluated there (at time t). Summed over all arcs.
    """
    total = 0.0
    for arc_id in range(grid.arc_count):
        mids = grid.midpoints(arc_id)
        va = _midpoint_values(a, arc_id, mids, t)
        vb = _midpoint_values(b, arc_id, mids, t)
        total += grid.spacings[arc_id] * float(np.sum(np.abs(va - vb)))
    return total


def check_flux_conservation(
    sol: HyperbolicSolution, t_samples: Sequence[float]
) -> float:
    """Worst junction flux imbalance over the sample times.

    Conservation means total incoming flux equals total outgoing flux at
    every time; with column-stochastic weights this holds identically, so
    the return value is numerical noise.
    """
    ts = np.asarray(t_samples, dtype=float)
    in_speeds = np.array([sol.net.arc(j).speed for j in sol.net.incoming_ids])
    out_speeds = np.array([sol.net.arc(l).speed for l in sol.net.outgoing_ids])
    worst = 0.0
    for t in ts:
        inflow = sum(
            float(in_speeds[p] * tr.evaluate(t)) for p, tr in enumerate(sol.traces)
        )
        outflow = sum(
            float(out_speeds[p] * nv.evaluate(t))
            for p, nv in enumerate(sol.node_values)
        )
        worst = max(worst, abs(inflow - outflow))
    return worst
