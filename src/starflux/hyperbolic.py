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
from .grids import DiscreteState
from .network import Arc, StarNetwork

#: input transmission matrices may deviate from column sums 1 by this much
GAMMA_INPUT_TOL = 1e-8


def _increasing_inside(b: np.ndarray, upper: float) -> bool:
    """True when 1-d ``b`` strictly increases inside (0, upper).

    Comparing neighbours, not their differences, keeps huge breakpoints
    from overflowing; NaN fails every comparison.
    """
    return b.size == 0 or bool(
        b[0] > 0.0 and b[-1] < upper and (b[1:] > b[:-1]).all()
    )


@dataclass(frozen=True)
class ArcProfile:
    """Piecewise-constant function on [0, length]: one arc, or a time span.

    Piece r takes values[r] on (breakpoints[r-1], breakpoints[r]], with
    the first piece closed at 0: the profile is left-continuous.
    evaluate extends the first and last pieces beyond the interval.
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
        """Read-only profile from breakpoints and values.

        Raises NonPositiveParameter for a bad length and
        DimensionMismatch unless breakpoints and values are finite, 1-d,
        one more value than breakpoints, and the breakpoints strictly
        increase inside (0, length).
        """
        upper = finite_above(length, "length")
        b = np.asarray(breakpoints, dtype=float)
        v = np.asarray(values, dtype=float)
        if not (
            b.ndim == 1
            and v.ndim == 1
            and v.size == b.size + 1
            and np.isfinite(v).all()
            and _increasing_inside(b, upper)
        ):
            if v.size != b.size + 1:
                raise DimensionMismatch(
                    f"{b.size} breakpoints need {b.size + 1} values, got {v.size}"
                )
            if not (np.isfinite(b).all() and np.isfinite(v).all()):
                raise DimensionMismatch("profile entries must be finite")
            if b.size and ((b <= 0.0).any() or (b >= upper).any()):
                raise DimensionMismatch(
                    f"profile breakpoints must lie strictly inside (0, {length})"
                )
            if b.ndim and b.size and (np.diff(b) <= 0.0).any():
                raise DimensionMismatch("profile breakpoints must strictly increase")
            raise DimensionMismatch(
                "profile breakpoints and values must be 1-d, got shapes "
                f"{b.shape} and {v.shape}"
            )
        b.flags.writeable = False
        v.flags.writeable = False
        return cls(length=upper, breakpoints=b, values=v)

    def evaluate(self, x: np.ndarray | float) -> np.ndarray | float:
        idx = np.searchsorted(self.breakpoints, x, side="left")
        return self.values[idx]

    def primitive(self, x: np.ndarray) -> np.ndarray:
        """The integral of the profile from 0 to each x in [0, length]."""
        starts = np.concatenate([[0.0], self.breakpoints])
        mass = np.concatenate([[0.0], np.cumsum(self.values[:-1] * np.diff(starts))])
        idx = np.searchsorted(self.breakpoints, x, side="left")
        return mass[idx] + self.values[idx] * (x - starts[idx])

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


def check_profile_lengths(profiles: Sequence, net: StarNetwork, what: str) -> None:
    """Raise DimensionMismatch unless there is one profile per arc, each
    as long as its arc; ``what`` names the profiles in the message.

    The one profile rule of every entry point; profiles need a ``length``.
    """
    if len(profiles) != net.m:
        raise DimensionMismatch(f"{what}: {len(profiles)} profiles for {net.m} arcs")
    for profile, arc in zip(profiles, net.arcs):
        if profile.length != arc.length:
            raise DimensionMismatch(
                f"{what}: arc {arc.id} has length {arc.length}, its "
                f"profile {profile.length}"
            )


def incoming_trace(
    net: StarNetwork, arc_id: int, u0_i: ArcProfile, B_i: float, T: float
) -> ArcProfile:
    """Time trace of an incoming arc's value at the junction, on [0, T].

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
    return ArcProfile.from_lists(T, breaks[:cut], values[: cut + 1])


def _merged_partition(traces: Sequence[ArcProfile], T: float) -> np.ndarray:
    pool = np.concatenate(
        [tr.breakpoints for tr in traces] + [np.empty(0)]
    )
    pool = np.unique(pool)
    return pool[pool < T]


@dataclass(frozen=True)
class HyperbolicSolution:
    """Exact transport solution, evaluable anywhere in space-time.

    junction[i] is arc i's value at the junction over [0, T]: the
    arriving trace on an incoming arc, the transmitted node value on an
    outgoing one.
    """

    net: StarNetwork
    B: np.ndarray
    u0: PiecewiseConstantField
    T: float
    junction: tuple[ArcProfile, ...]

    def evaluate(
        self, arc_id: int, x: np.ndarray | float, t: float
    ) -> np.ndarray | float:
        """Solution value on one arc at time t; vectorized over x.

        Raises DimensionMismatch for t outside [0, T] or x outside
        [0, length], NaN included: past the horizon the stored traces
        no longer describe the solution.
        """
        arc = self.net.arc(arc_id)
        self._check_time(t)
        xs = np.asarray(x, dtype=float)
        if not ((xs >= 0.0) & (xs <= arc.length)).all():
            raise DimensionMismatch(f"arc {arc_id}: x outside [0, {arc.length}]")
        out = self._values(arc, xs, t)
        if np.isscalar(x):
            return float(out)
        return out

    def _check_time(self, t: float) -> None:
        if not 0.0 <= t <= self.T:
            raise DimensionMismatch(f"t = {t} lies outside [0, {self.T}]")

    def _values(self, arc: Arc, xs: np.ndarray, t: float) -> np.ndarray:
        """The solution on ``arc`` at checked points xs and time t."""
        shift = xs - arc.speed * t
        from_data = self.u0.arcs[arc.id].evaluate(shift)
        if arc.incoming:
            return np.where(shift > 0.0, from_data, self.B[arc.id])
        s = t - xs / arc.speed
        from_node = self.junction[arc.id].evaluate(np.maximum(s, 0.0))
        return np.where(s > 0.0, from_node, from_data)

    def snapshot(self, t: float) -> PiecewiseConstantField:
        """Exact piecewise-constant spatial profile at time t in [0, T].

        Raises DimensionMismatch for t outside [0, T], NaN included. t is
        checked once and each profile is valid by construction, so none
        passes from_lists: its breakpoints are np.unique's, cut to (0,
        length), its values read-only copies of checked data.
        """
        self._check_time(t)
        profiles = []
        for arc in self.net.arcs:
            lam, L = arc.speed, arc.length
            parts = [self.u0.arcs[arc.id].breakpoints + lam * t, [lam * t]]
            if not arc.incoming:
                parts.append(lam * (t - self.junction[arc.id].breakpoints))
            cand = np.concatenate(parts)
            breaks = np.unique(cand[(cand > 0.0) & (cand < L)])
            edges = np.concatenate([[0.0], breaks, [L]])
            vals = self._values(arc, 0.5 * (edges[:-1] + edges[1:]), t)
            breaks.flags.writeable = False
            vals.flags.writeable = False
            profiles.append(ArcProfile(length=L, breakpoints=breaks, values=vals))
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
    # finite (NaN fails every comparison), nonnegative, columns summing
    # to one; the column sums are formed only once the entries are finite
    if not (
        g.min(initial=0.0) >= -1e-12
        and g.max(initial=0.0) < np.inf
        and np.abs(g.sum(axis=0) - 1.0).max(initial=0.0) <= GAMMA_INPUT_TOL
    ):
        if not np.isfinite(g).all():
            raise InvalidGamma("transmission weights must be finite")
        if g.min(initial=0.0) < -1e-12:
            raise InvalidGamma("transmission weights must be nonnegative")
        raise InvalidGamma("transmission columns must sum to one")
    bvals = finite_values(B, net.m)
    T = finite_above(T, "T")
    check_profile_lengths(u0.arcs, net, "profiles")

    traces = tuple(
        incoming_trace(net, j, u0.arcs[j], float(bvals[j]), T)
        for j in net.incoming_ids
    )
    breaks = _merged_partition(traces, T)
    edges = np.concatenate([[0.0], breaks, [T]])
    mids = 0.5 * (edges[:-1] + edges[1:])
    piece_values = np.column_stack([tr.evaluate(mids) for tr in traces])

    speeds = net.speeds()
    in_speeds = speeds[list(net.incoming_ids)]
    out_speeds = speeds[list(net.outgoing_ids)]
    flux = piece_values * in_speeds
    node_vals = (flux @ g.T) / out_speeds
    junction = dict(zip(net.incoming_ids, traces))
    for pos, arc_id in enumerate(net.outgoing_ids):
        junction[arc_id] = ArcProfile.from_lists(T, breaks, node_vals[:, pos])

    bvals = bvals.copy()
    bvals.flags.writeable = False
    return HyperbolicSolution(
        net=net,
        B=bvals,
        u0=u0,
        T=float(T),
        junction=tuple(junction[i] for i in range(net.m)),
    )


def l1_distance(
    state: DiscreteState,
    exact: "HyperbolicSolution | ResolventSolution",
    t: float | None = None,
) -> float:
    """Composite-midpoint L1 distance between a grid state and an exact
    solution, summed over all arcs.

    The state is averaged onto its grid's cell midpoints, and the exact
    solution is evaluated there: a HyperbolicSolution at time t, a
    steady ResolventSolution as it is. Raises DimensionMismatch for any
    other exact side, a HyperbolicSolution without t, and an exact
    solution on another number of arcs than the state.
    """
    from .parabolic.resolvent import ResolventSolution

    if isinstance(exact, HyperbolicSolution):
        if t is None:
            raise DimensionMismatch("comparing a solution needs a time t")
        at = (t,)
    elif isinstance(exact, ResolventSolution):
        at = ()
    else:
        raise DimensionMismatch(f"cannot take midpoint values of {type(exact)!r}")
    grid = state.grid
    if exact.net.m != grid.arc_count:
        raise DimensionMismatch(f"{exact.net.m} arcs for a grid of {grid.arc_count}")
    total = 0.0
    for arc_id, u in enumerate(state.values):
        v = np.asarray(exact.evaluate(arc_id, grid.midpoints(arc_id), *at), dtype=float)
        total += grid.spacings[arc_id] * float(np.sum(np.abs(0.5 * (u[:-1] + u[1:]) - v)))
    return total


def check_flux_conservation(
    sol: HyperbolicSolution, t_samples: Sequence[float]
) -> float:
    """Worst junction flux imbalance over the sample times.

    Conservation means total incoming flux equals total outgoing flux at
    every time; with column-stochastic weights this holds identically, so
    the return value is numerical noise. Each junction signal is
    evaluated once over all sample times, and the incoming and the
    outgoing fluxes are each summed in arc order from zero. Raises
    DimensionMismatch unless the sample times are a finite 1-d
    sequence; no samples give 0.0.
    """
    ts = np.asarray(t_samples, dtype=float)
    if ts.ndim != 1:
        raise DimensionMismatch(f"sample times must be 1-d, got shape {ts.shape}")
    if not np.all(np.isfinite(ts)):
        raise DimensionMismatch("sample times must be finite")
    inflow = np.zeros_like(ts)
    outflow = np.zeros_like(ts)
    for arc, signal in zip(sol.net.arcs, sol.junction):
        flux = arc.speed * signal.evaluate(ts)
        if arc.incoming:
            inflow = inflow + flux
        else:
            outflow = outflow + flux
    return float(np.max(np.abs(inflow - outflow), initial=0.0))
