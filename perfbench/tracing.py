"""Spans around calls into starflux, taken from outside the library.

Each public function of interest is replaced, on the module attribute
its caller looks up, by a wrapper that records a span: name, start, end,
parent span, and the context (pass number and viscosity level or case
id) current when it started. The LU factorization that ``splu`` returns
is wrapped in a proxy so that each ``solve`` is a span of its own.
Spans stay in memory and are written out when the run ends.

``install`` patches and ``uninstall`` restores, so untraced and traced
passes can run in one process.
"""

from __future__ import annotations

import json
import time
import warnings
from collections import defaultdict
from pathlib import Path

import scipy.sparse.linalg

import starflux.cli
import starflux.dataprep
import starflux.design
import starflux.grids
import starflux.harness
import starflux.hyperbolic
import starflux.parabolic.evolve
import starflux.parabolic.resolvent
import starflux.parabolic.scheme
import starflux.transmission

_evolve = starflux.parabolic.evolve
_scheme = starflux.parabolic.scheme
_harness = starflux.harness
_resolvent = starflux.parabolic.resolvent

#: (owner, attribute, span name). The owner is the namespace the caller
#: resolves the name in, so `from x import f` callers are patched at
#: their own module.
PATCHES = (
    (starflux.cli, "main", "cli.main"),
    (_harness, "load_experiment", "configio.load"),
    (_harness, "load_network", "configio.load"),
    (_harness, "load_initial_data", "configio.load"),
    (_harness, "_sweep_row", "harness.sweep_row"),
    (_harness.ConvergenceReport, "csv", "harness.csv"),
    (_harness, "build_compatible", "dataprep.build_compatible"),
    (_harness, "solve_parabolic", "evolve.solve_parabolic"),
    (_harness, "compute_gamma", "transmission.compute_gamma"),
    (_harness, "solve_exact", "hyperbolic.solve_exact"),
    (_harness, "l1_distance", "hyperbolic.l1_distance"),
    (_harness, "node_trace_error", "harness.node_trace_error"),
    (_evolve, "assemble_step_operator", "scheme.assemble"),
    (_evolve, "step", "scheme.step"),
    (_evolve, "discrete_l1_norm", "grids.discrete_l1_norm"),
    (_evolve, "flux_residual", "scheme.flux_residual"),
    (starflux.grids.DiscreteState, "min_value", "grids.min_value"),
    (starflux.transmission, "compute_gamma", "transmission.compute_gamma"),
    (starflux.transmission, "validate_assumptions", "network.validate_assumptions"),
    (starflux.transmission, "alpha_from_k", "network.alpha_from_k"),
    (_scheme, "validate_assumptions", "network.validate_assumptions"),
    (_scheme, "alpha_from_k", "network.alpha_from_k"),
    (starflux.dataprep, "alpha_from_k", "network.alpha_from_k"),
    (_resolvent, "alpha_from_k", "network.alpha_from_k"),
    (starflux.design, "design_proportional", "design.design"),
    (starflux.design, "design_two_outgoing", "design.design"),
    (starflux.hyperbolic, "solve_exact", "hyperbolic.solve_exact"),
    (starflux.hyperbolic, "check_flux_conservation", "hyperbolic.check_flux_conservation"),
    (_resolvent, "solve_resolvent", "resolvent.solve"),
    (_resolvent.ResolventSolution, "residual_report", "resolvent.residual_report"),
)

#: per-layer metric -> (span name, what to take per pass, unit)
SPAN_METRICS = {
    "scheme.lu_solve_s": ("scheme.lu_solve", "time", "s"),
    "scheme.step_s": ("scheme.step", "time", "s"),
    "scheme.step_calls": ("scheme.step", "calls", "count"),
    "grids.discrete_l1_norm_s": ("grids.discrete_l1_norm", "time", "s"),
    "grids.min_value_s": ("grids.min_value", "time", "s"),
    "scheme.flux_residual_s": ("scheme.flux_residual", "time", "s"),
    "evolve.self_s": ("evolve.solve_parabolic", "self", "s"),
    "scheme.assemble_s": ("scheme.assemble", "time", "s"),
    "dataprep.build_compatible_s": ("dataprep.build_compatible", "time", "s"),
    "transmission.compute_gamma_s": ("transmission.compute_gamma", "time", "s"),
    "transmission.compute_gamma_calls": ("transmission.compute_gamma", "calls", "count"),
    "network.validate_assumptions_calls": ("network.validate_assumptions", "calls", "count"),
    "network.alpha_from_k_calls": ("network.alpha_from_k", "calls", "count"),
    "design.design_s": ("design.design", "time", "s"),
    "hyperbolic.solve_exact_s": ("hyperbolic.solve_exact", "time", "s"),
    "hyperbolic.solve_exact_calls": ("hyperbolic.solve_exact", "calls", "count"),
    "hyperbolic.l1_distance_s": ("hyperbolic.l1_distance", "time", "s"),
    "harness.node_trace_error_s": ("harness.node_trace_error", "time", "s"),
    "hyperbolic.check_flux_conservation_s": ("hyperbolic.check_flux_conservation", "time", "s"),
    "resolvent.solve_s": ("resolvent.solve", "time", "s"),
    "resolvent.residual_report_s": ("resolvent.residual_report", "time", "s"),
    "configio.load_s": ("configio.load", "time", "s"),
    "harness.csv_s": ("harness.csv", "time", "s"),
    "cli.self_s": ("cli.main", "self", "s"),
}

#: per-layer metric -> fact recorded at the span boundaries (all counts;
#: sizes are those of the pass's largest level)
FACT_METRICS = {
    "scheme.lu_nnz": "lu_nnz",
    "scheme.unknowns": "unknowns",
    "scheme.matrix_nnz": "matrix_nnz",
    "evolve.steps": "steps",
    "evolve.compat_warnings": "compat_warnings",
}

#: computed: 2 flops per LU nonzero per solve, over the time in solve
MFLOPS_METRIC = "scheme.lu_solve_mflops"
#: traced pass_s minus untraced pass_s, reported with the layers
OVERHEAD_METRIC = "trace.overhead_s"

COMPAT_WARNING_PREFIX = "initial data violates the discrete node conditions"


class _TracedLU:
    """Stands in for a SuperLU object; every ``solve`` is a span."""

    def __init__(self, lu, tracer: "Tracer") -> None:
        self._lu = lu
        self._tracer = tracer
        self.nnz = int(lu.L.nnz + lu.U.nnz)

    def solve(self, rhs, *args, **kwargs):
        tracer = self._tracer
        tracer.add_fact("lu_flops", 2.0 * self.nnz)
        return tracer.call("scheme.lu_solve", self._lu.solve, rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """In-memory span recorder plus per-pass facts (sizes and counts)."""

    def __init__(self) -> None:
        #: (name, start, end, parent index, pass number, level or case id)
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.pass_no = -1
        self.label: float | int | None = None
        #: pass number -> fact name -> value
        self.facts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        #: one row per factorized level: sizes of the step system
        self.levels: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        spans = self.spans
        stack = self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent, self.pass_no, self.label)

    def add_fact(self, name: str, value: float) -> None:
        self.facts[self.pass_no][name] += float(value)

    def peak_fact(self, name: str, value: float) -> None:
        facts = self.facts[self.pass_no]
        facts[name] = max(facts[name], float(value))

    def start_pass(self, pass_no: int) -> None:
        self.pass_no = pass_no
        self.label = None

    # -- patching ------------------------------------------------------

    def _wrapper(self, name: str, fn):
        call = self.call

        def traced(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        return traced

    def _sweep_row(self, fn):
        def traced(payload, epsilon):
            self.label = float(epsilon)
            try:
                return self.call("harness.sweep_row", fn, payload, epsilon)
            finally:
                self.label = None

        return traced

    def _assemble(self, fn):
        def traced(*args, **kwargs):
            op = self.call("scheme.assemble", fn, *args, **kwargs)
            self.peak_fact("unknowns", op.size)
            self.peak_fact("matrix_nnz", op.matrix.nnz)
            self.peak_fact("lu_nnz", op.lu.nnz)
            self.levels.append(
                {"pass": self.pass_no, "epsilon": self.label, "unknowns": op.size,
                 "matrix_nnz": int(op.matrix.nnz), "lu_nnz": op.lu.nnz}
            )
            return op

        return traced

    def _solve_parabolic(self, fn):
        def traced(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                traj = self.call("evolve.solve_parabolic", fn, *args, **kwargs)
            steps = traj.diagnostics.shape[0] - 1
            self.add_fact("steps", steps)
            self.add_fact(
                "compat_warnings",
                sum(str(w.message).startswith(COMPAT_WARNING_PREFIX) for w in caught),
            )
            if self.levels and self.levels[-1]["pass"] == self.pass_no:
                self.levels[-1]["steps"] = steps
            return traj

        return traced

    def _splu(self, fn):
        def traced(*args, **kwargs):
            return _TracedLU(fn(*args, **kwargs), self)

        return traced

    def install(self) -> None:
        special = {
            "harness.sweep_row": self._sweep_row,
            "scheme.assemble": self._assemble,
            "evolve.solve_parabolic": self._solve_parabolic,
        }
        for owner, attr, name in PATCHES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            make = special.get(name)
            setattr(owner, attr, make(original) if make else self._wrapper(name, original))
        original = scipy.sparse.linalg.splu
        self._saved.append((scipy.sparse.linalg, "splu", original))
        scipy.sparse.linalg.splu = self._splu(original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- reporting -----------------------------------------------------

    def per_pass(self) -> dict[int, dict[str, float]]:
        """Every per-layer metric (but the overhead) for each traced pass."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        totals: dict[int, dict[tuple[str, str], float]] = defaultdict(lambda: defaultdict(float))
        for idx, span in enumerate(spans):
            if span is None:
                continue
            name, start, end, _, pass_no, _ = span
            per = totals[pass_no]
            per[(name, "time")] += end - start
            per[(name, "self")] += end - start - child_time[idx]
            per[(name, "calls")] += 1
        out = {}
        for pass_no in sorted(set(totals) | set(self.facts)):
            per = totals[pass_no]
            facts = self.facts[pass_no]
            row = {
                metric: per[(span, kind)]
                for metric, (span, kind, _) in SPAN_METRICS.items()
            }
            row.update((metric, facts[fact]) for metric, fact in FACT_METRICS.items())
            solve_s = per[("scheme.lu_solve", "time")]
            row[MFLOPS_METRIC] = facts["lu_flops"] / solve_s / 1e6 if solve_s > 0.0 else 0.0
            out[pass_no] = row
        return out

    def write(self, path: Path) -> None:
        """One JSON line per span: name, start, end, parent, pass, label."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {m: unit for m, (_, _, unit) in SPAN_METRICS.items()}
    units.update((m, "count") for m in FACT_METRICS)
    units[MFLOPS_METRIC] = "Mflop/s"
    units[OVERHEAD_METRIC] = "s"
    return units
