"""Experiment orchestration: the viscosity sweep and CSV emission.

run_convergence drives the full pipeline per viscosity level: smooth the
rough data into admissible form, march the viscous scheme, solve the
inviscid problem exactly from the transmission weights, and tabulate the
L1 gaps. Rows are independent, so the sweep can fan out over a bounded
process pool; a failure in one row is recorded with its reason and never
disturbs the others. Each level also records the warnings it raised, its
step's positivity certificate and its data's node defect (LevelRecord),
in the worker that ran it, for the run manifest.

The module also hosts the thin runners behind the other subcommands
(gamma/design/simulate/approx-data), which take every setting from the
command line, and the CSV formatting used by all of them: fixed
17-significant-digit scientific notation, so emitted doubles round-trip
exactly and runs can be diffed byte for byte.
"""

from __future__ import annotations

import json
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields
from functools import partial
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .configio import load_experiment, load_initial_data, load_network
from .dataprep import DEFAULT_THETA, build_compatible
from .errors import ConfigError, ValidationError, finite_above, finite_values
from .grids import DEFAULT_H_RULE, MIN_H_RULE
from .hyperbolic import (
    HyperbolicSolution,
    PiecewiseConstantField,
    l1_distance,
    solve_exact,
)
from .network import CouplingMatrix, StarNetwork
from .parabolic import ParabolicTrajectory, SolverConfig, solve_parabolic
from .transmission import TransmissionSystem, compute_gamma


#: most rows sample_hyperbolic builds, times x points x arcs: each is one
#: Python tuple and a CSV line of some 71 bytes, 0.7 GB at the bound; a
#: larger lattice is refused before anything is solved
MAX_LATTICE_ROWS = 10**7


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _csv(header: Sequence[str], rows: Iterable[Iterable]) -> str:
    """The one CSV row layout: ints via str, every other cell via _fmt."""
    lines = [",".join(header)]
    lines.extend(
        ",".join(str(v) if isinstance(v, int) else _fmt(v) for v in row) for row in rows
    )
    return "\n".join(lines) + "\n"


def _rows_csv(row_type: type, rows: Iterable) -> str:
    """Dataclass rows under their field names."""
    return _csv([f.name for f in fields(row_type)], (astuple(r) for r in rows))


@dataclass(frozen=True)
class ExperimentSpec:
    """Resolved viscosity-sweep plan: inputs in memory, levels validated.

    The one owner of the plan's ranges and defaults, so a bad plan fails
    here once instead of at every level.
    """

    net: StarNetwork
    K: CouplingMatrix
    u0: PiecewiseConstantField
    B: np.ndarray
    epsilons: tuple[float, ...]
    T: float
    h_rule: float = DEFAULT_H_RULE
    theta: float = DEFAULT_THETA

    def __post_init__(self) -> None:
        if not self.epsilons:
            raise ConfigError("epsilons: need at least one viscosity level")
        for i, eps in enumerate(self.epsilons):
            finite_above(eps, f"epsilons[{i}]", error=ConfigError)
        if any(b >= a for a, b in zip(self.epsilons, self.epsilons[1:])):
            raise ConfigError("epsilons: must be strictly decreasing")
        finite_above(self.T, "T", error=ConfigError)
        finite_above(self.h_rule, "h_rule", MIN_H_RULE, inclusive=True, error=ConfigError)
        finite_above(self.theta, "theta", 1.0, error=ConfigError)
        try:
            finite_values(self.B, self.net.m)
        except ValidationError as exc:
            raise ConfigError(f"B: {exc}") from None


def load_experiment_spec(path: str | Path) -> ExperimentSpec:
    """Read an experiment document and everything it points at."""
    network_path, data_path, plan = load_experiment(path)
    net, K = load_network(network_path)
    assert K is not None
    u0, B = load_initial_data(data_path, net)
    return ExperimentSpec(net=net, K=K, u0=u0, B=B, **plan)


@dataclass(frozen=True)
class ConvergenceRow:
    """One viscosity level of the sweep; wall_time is always last."""

    epsilon: float
    h: float
    dt: float
    l1_error_final_time: float
    node_trace_l1_error: float
    flux_residual_max: float
    min_value: float
    wall_time: float


@dataclass(frozen=True)
class LevelRecord:
    """What one viscosity level reported besides its row.

    warnings holds each warning the level raised, as (category name,
    message), in order, as far as the active filters let it through;
    schur_inv_min is its step's positivity certificate
    (StepOperator.schur_inv_min) and node_defect the node defect of its
    data before the projection (ParabolicTrajectory.node_defect), both
    None when the level failed before its march returned. seconds times
    its phases "compat" (build_compatible), "march" (solve_parabolic)
    and "compare" (l1_distance and node_trace_error), steps counts its
    march's steps; None on a failure.
    """

    epsilon: float
    warnings: tuple[tuple[str, str], ...]
    schur_inv_min: float | None
    node_defect: float | None
    seconds: dict[str, float] | None
    steps: int | None

    def manifest_entry(self) -> dict:
        warned = [{"category": c, "message": m} for c, m in self.warnings]
        return {**asdict(self), "warnings": warned}


@dataclass(frozen=True)
class ConvergenceReport:
    """Sweep outcome: rows sorted by viscosity descending, plus failures
    and one LevelRecord per level, in the plan's order.

    failures pairs each aborted viscosity level with the reason string;
    an aborted level never removes or corrupts the successful rows.
    """

    rows: tuple[ConvergenceRow, ...]
    failures: tuple[tuple[float, str], ...]
    levels: tuple[LevelRecord, ...]

    def csv(self) -> str:
        return _rows_csv(ConvergenceRow, self.rows)


def node_trace_error(
    trajectory: ParabolicTrajectory, exact: HyperbolicSolution
) -> float:
    """L1 gap on (0, T) between marched and exact outgoing junction traces.

    Only outgoing arcs are compared: their junction value feeds the
    characteristics directly, so the viscous trace approaches the exact
    transmitted value. Incoming arcs keep an O(1) node layer for every
    viscosity, so their pointwise junction values are not expected to
    match the inviscid traces.
    """
    step_times = trajectory.diagnostics[:, 0]
    horizon = step_times[-1]
    total = 0.0
    for arc_id in exact.net.outgoing_ids:
        signal = exact.junction[arc_id]
        # breakpoints lie inside (0, T); keep those the march reached
        inner = signal.breakpoints[signal.breakpoints < horizon]
        edges = np.unique(np.concatenate([step_times, inner]))
        mids = 0.5 * (edges[:-1] + edges[1:])
        hyp = np.asarray(signal.evaluate(mids), dtype=float)
        # the marched value on (t_{k-1}, t_k] is the end-of-step row k
        idx = np.searchsorted(step_times, mids, side="left")
        para = trajectory.node_history[idx, arc_id]
        total += float(np.sum(np.abs(para - hyp) * np.diff(edges)))
    return total


def _sweep_row(
    payload: tuple[ExperimentSpec, HyperbolicSolution], epsilon: float
) -> tuple[ConvergenceRow | str, LevelRecord]:
    """Run one viscosity level against the sweep's exact solution.

    payload is (spec, exact); returns the level's row, or the reason
    string when the level failed, with the level's LevelRecord. The
    warnings are recorded under the filters in force, so one that would
    print is recorded instead, and one that is an error still fails the
    level.
    """
    spec, exact = payload
    schur_inv_min = node_defect = seconds = steps = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            marks = [time.perf_counter()]
            net, K, B, T = spec.net, spec.K, spec.B, spec.T
            compat = build_compatible(spec.u0, B, net, K, epsilon, spec.theta)
            marks.append(time.perf_counter())
            cfg = SolverConfig(epsilon=epsilon, T=T, h_rule=spec.h_rule)
            trajectory = solve_parabolic(net, K, compat.arcs, B, cfg)
            marks.append(time.perf_counter())
            schur_inv_min = trajectory.operator.schur_inv_min
            node_defect = trajectory.node_defect
            final_error = l1_distance(trajectory.final, exact, t=T)
            trace_error = node_trace_error(trajectory, exact)
            marks.append(time.perf_counter())
            times = trajectory.diagnostics[:, 0]
            outcome = ConvergenceRow(
                epsilon=float(epsilon),
                h=float(max(trajectory.final.grid.spacings)),
                dt=float(times[1] - times[0]),
                l1_error_final_time=float(final_error),
                node_trace_l1_error=float(trace_error),
                flux_residual_max=float(np.max(np.abs(trajectory.diagnostics[:, 3]))),
                min_value=float(np.min(trajectory.diagnostics[:, 2])),
                wall_time=time.perf_counter() - marks[0],
            )
            seconds = dict(zip(("compat", "march", "compare"), np.diff(marks).tolist()))
            steps = times.size - 1
        except Exception as exc:  # crash isolation: one level must not kill the sweep
            outcome = f"{type(exc).__name__}: {exc}"
    raised = tuple((w.category.__name__, str(w.message)) for w in caught)
    return outcome, LevelRecord(
        float(epsilon), raised, schur_inv_min, node_defect, seconds, steps
    )


def run_convergence(spec: ExperimentSpec, workers: int = 1) -> ConvergenceReport:
    """Run the viscosity sweep, one row per level.

    The transmission weights and the exact solution do not depend on
    epsilon, so both are computed once per sweep, before any level runs:
    compute_gamma also checks the coupling assumptions (raising on
    violation). Per-level work then runs inline or on a bounded process
    pool when workers > 1. Rows come back in the plan's order, which
    ExperimentSpec keeps strictly decreasing in viscosity, failed levels
    in the failures list with their reasons, and every level's
    LevelRecord in the plan's order.
    """
    system = compute_gamma(spec.net, spec.K)
    exact = solve_exact(spec.net, system.gamma, spec.u0, spec.B, spec.T)
    payload = (spec, exact)
    if workers <= 1:
        outcomes = [_sweep_row(payload, e) for e in spec.epsilons]
    else:
        # the frozen payload is pickled, so each worker gets an exact copy
        with ProcessPoolExecutor(
            max_workers=min(workers, len(spec.epsilons))
        ) as pool:
            outcomes = list(pool.map(partial(_sweep_row, payload), spec.epsilons))

    rows = [r for r, _ in outcomes if isinstance(r, ConvergenceRow)]
    failures = [
        (float(e), r) for e, (r, _) in zip(spec.epsilons, outcomes) if isinstance(r, str)
    ]
    return ConvergenceReport(
        rows=tuple(rows),
        failures=tuple(failures),
        levels=tuple(level for _, level in outcomes),
    )


def gamma_csv(system: TransmissionSystem) -> str:
    """Transmission weights, one row per outgoing arc, incoming columns."""
    header = ["outgoing_arc"] + [f"incoming_{j}" for j in system.net.incoming_ids]
    rows = (
        [l, *system.gamma[pos]] for pos, l in enumerate(system.net.outgoing_ids)
    )
    return _csv(header, rows)


def certificate_summary(system: TransmissionSystem) -> str:
    c = system.certificates
    return (
        f"certificates: irreducible={c.irreducible} "
        f"gershgorin_ok={c.gershgorin_ok} m_matrix_ok={c.m_matrix_ok} "
        f"det_q={c.det:.6e} "
        f"condition_indicator={system.condition_indicator:.6e}"
    )


def coupling_csv(K: CouplingMatrix) -> str:
    """Full symmetric coupling matrix, one row per arc."""
    m = K.m
    header = ["arc"] + [f"arc_{j}" for j in range(m)]
    return _csv(header, ([i, *K.k[i]] for i in range(m)))


def field_csv(samples: Iterable[tuple[int, float, float, float]]) -> str:
    """Long-format space-time samples: (arc_id, x, t, u) per row."""
    return _csv(["arc_id", "x", "t", "u"], samples)


def diagnostics_csv(diagnostics: np.ndarray) -> str:
    """Per-step march diagnostics in recorded order."""
    return _csv(["t", "l1_norm", "min_value", "flux_residual"], diagnostics)


def sample_hyperbolic(
    net: StarNetwork,
    K: CouplingMatrix,
    u0: PiecewiseConstantField,
    B: np.ndarray,
    T: float,
    times: int,
    points: int,
) -> list[tuple[int, float, float, float]]:
    """Exact transport solution sampled on a uniform space-time lattice.

    Raises ConfigError for fewer than 1 time or 2 points, or for a
    lattice of more than MAX_LATTICE_ROWS rows.
    """
    if times < 1 or points < 2:
        raise ConfigError("need at least 1 time and 2 sample points")
    rows = times * points * net.m
    if rows > MAX_LATTICE_ROWS:
        raise ConfigError(
            f"{times} times x {points} points x {net.m} arcs is {rows} rows, "
            f"more than MAX_LATTICE_ROWS = {MAX_LATTICE_ROWS:.0e}"
        )
    system = compute_gamma(net, K)
    sol = solve_exact(net, system.gamma, u0, B, T)
    t_grid = np.linspace(0.0, T, times) if times > 1 else np.array([T])
    samples = []
    for t in t_grid:
        for arc in net.arcs:
            xs = np.linspace(0.0, arc.length, points)
            us = np.asarray(sol.evaluate(arc.id, xs, float(t)), dtype=float)
            samples.extend(
                (arc.id, float(x), float(t), float(u)) for x, u in zip(xs, us)
            )
    return samples


def run_parabolic_simulation(
    net: StarNetwork,
    K: CouplingMatrix,
    u0: PiecewiseConstantField,
    B: np.ndarray,
    epsilon: float,
    T: float,
    h_rule: float,
) -> tuple[list[tuple[int, float, float, float]], np.ndarray]:
    """March the viscous scheme; final snapshot plus per-step diagnostics.

    The raw data is sampled directly onto the grid (junction values are
    projected onto the discrete node conditions, with a warning when the
    data was far from compatible).
    """
    cfg = SolverConfig(epsilon=epsilon, T=T, h_rule=h_rule)
    trajectory = solve_parabolic(net, K, u0, B, cfg)
    snapshot = []
    for arc in net.arcs:
        xs = trajectory.final.grid.nodes(arc.id)
        vals = trajectory.final.values[arc.id]
        snapshot.extend(
            (arc.id, float(x), float(T), float(u)) for x, u in zip(xs, vals)
        )
    return snapshot, trajectory.diagnostics


@dataclass(frozen=True)
class ApproxRow:
    """One smoothing level of the admissible-data sweep."""

    n: int
    epsilon_n: float
    l1_error: float
    tv_norm: float
    scaled_w21: float
    membership_residual: float


def run_approx(
    net: StarNetwork,
    K: CouplingMatrix,
    u0: PiecewiseConstantField,
    B: np.ndarray,
    n_range: tuple[int, int],
    theta: float,
) -> tuple[ApproxRow, ...]:
    """Build compatible data at epsilon_n = 2^-n for n over the range."""
    lo, hi = n_range
    if lo < 1 or hi < lo:
        raise ConfigError(f"n range: need 1 <= lo <= hi, got {lo}:{hi}")
    rows = []
    for n in range(lo, hi + 1):
        eps_n = 2.0 ** (-n)
        data = build_compatible(u0, B, net, K, eps_n, theta)
        rows.append(
            ApproxRow(
                n=n,
                epsilon_n=eps_n,
                l1_error=data.l1_error,
                tv_norm=float(np.sum(data.deriv_norms)),
                scaled_w21=data.scaled_w21,
                membership_residual=data.membership_residual,
            )
        )
    return tuple(rows)


def approx_csv(rows: Sequence[ApproxRow]) -> str:
    return _rows_csv(ApproxRow, rows)


def write_manifest(out_dir: Path, manifest: dict) -> Path:
    """Drop the resolved run description next to the CSV outputs."""
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
