"""Workload inputs, passes and output checks for the starflux benchmark.

Three workloads, each a closed loop of passes run back to back by one
single-threaded process:

``pinned_sweep``
    ``starflux converge --workers 1`` on the pinned 2-in/2-out
    experiment of the acceptance suite. Small grids: fixed per-level
    work and per-step Python overhead dominate. Incoming data reaches
    the junction only after T, so the junction carries no flux.
``junction_sweep``
    The same entry point on a 4-arc star whose incoming data reaches the
    junction before T, swept down to epsilon = 0.0025. The march and its
    O(epsilon^-2) cost dominate.
``junction_batch``
    Seeded random stars through the junction, design, oracle and
    resolvent layers. It never marches, so march work should not move it.

The sweep inputs are fixed; the batch inputs are a pure function of the
seed. Every pass is checked, and a failed check counts as a failed level
or case.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import starflux.cli
import starflux.harness
import starflux.parabolic.evolve
from starflux import design, hyperbolic, transmission
from starflux.design import ProportionalTarget, TwoOutTarget
from starflux.hyperbolic import ArcProfile, PiecewiseConstantField
from starflux.network import CouplingMatrix, StarNetwork, build_network
from starflux.parabolic import resolvent
from starflux.parabolic.resolvent import ResolventProblem

#: horizon of the exact oracle in the batch
BATCH_T = 1.5
#: sample times for the exact junction flux balance in the batch
BATCH_FLUX_TIMES = np.linspace(0.0, BATCH_T, 31)

GAMMA_COLUMN_TOL = 1e-12
ROUNDTRIP_TOL = 1e-9
EXACT_FLUX_TOL = 1e-9
RESOLVENT_TOL = 1e-9
SWEEP_FLUX_TOL = 1e-10


@dataclass(frozen=True)
class SweepSpec:
    """One experiment for ``starflux converge``, as JSON documents."""

    network: dict
    data: dict
    epsilons: tuple[float, ...]
    T: float
    #: final/first L1 error must not exceed this (the acceptance gate)
    contraction_gate: float | None


def _net_doc(in_speeds, out_speeds, K) -> dict:
    arcs = [{"length": 1.0, "speed": s, "orientation": "in"} for s in in_speeds]
    arcs += [{"length": 1.0, "speed": s, "orientation": "out"} for s in out_speeds]
    return {"arcs": arcs, "K": K}


PINNED = SweepSpec(
    network=_net_doc(
        (1.0, 2.0),
        (1.0, 2.0),
        [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]],
    ),
    data={
        "arcs": [
            {"breaks": [0.35], "values": [1.0, 0.0]},
            {"breaks": [], "values": [0.0]},
            {"breaks": [], "values": [0.0]},
            {"breaks": [], "values": [0.0]},
        ],
        "boundary": [1.0, 0.0, 0.0, 0.0],
    },
    epsilons=(0.08, 0.04, 0.02, 0.01),
    T=0.5,
    contraction_gate=0.35,
)

JUNCTION = SweepSpec(
    network=_net_doc(
        (1.0, 2.0),
        (1.5, 0.5),
        [[0, 0, 2, 1], [0, 0, 1, 0.5], [2, 1, 0, 0], [1, 0.5, 0, 0]],
    ),
    data={
        "arcs": [
            {"breaks": [0.7], "values": [1.0, 0.5]},
            {"breaks": [], "values": [0.5]},
            {"breaks": [], "values": [0.0]},
            {"breaks": [], "values": [0.0]},
        ],
        "boundary": [1.0, 0.5, 0.0, 0.0],
    },
    epsilons=(0.02, 0.01, 0.005, 0.0025),
    T=0.5,
    # the seed scheme does not contract the L1 gap here; it is recorded,
    # not gated
    contraction_gate=None,
)

#: the smoke test's sizes: same code paths, a second or so per pass
TINY_SWEEPS = {
    "pinned_sweep": SweepSpec(PINNED.network, PINNED.data, (0.08, 0.04), 0.5, None),
    "junction_sweep": SweepSpec(
        JUNCTION.network, JUNCTION.data, (0.02, 0.01), 0.5, None
    ),
}
BATCH_CASES = 500
#: batch cases cycle through these star sizes
ARC_COUNTS = tuple(range(2, 9))
TINY_BATCH_CASES = 20


def sweep_spec(workload: str, tiny: bool) -> SweepSpec:
    if tiny:
        return TINY_SWEEPS[workload]
    return {"pinned_sweep": PINNED, "junction_sweep": JUNCTION}[workload]


# --------------------------------------------------------------------------
# sweeps


@dataclass
class SweepInputs:
    spec: SweepSpec
    config: Path
    warmup_config: Path
    out_dir: Path


def make_sweep_inputs(spec: SweepSpec, work_dir: Path) -> SweepInputs:
    """Write the experiment documents the CLI reads."""
    work_dir.mkdir(parents=True, exist_ok=True)
    (work_dir / "net.json").write_text(json.dumps(spec.network))
    (work_dir / "u0.json").write_text(json.dumps(spec.data))
    exp = {"network": "net.json", "data": "u0.json", "T": spec.T, "h_rule": 8.0, "theta": 1.5}
    config = work_dir / "experiment.json"
    config.write_text(json.dumps({**exp, "epsilons": list(spec.epsilons)}))
    # the coarsest level alone, to run every code path once before timing
    warmup = work_dir / "warmup.json"
    warmup.write_text(json.dumps({**exp, "epsilons": [spec.epsilons[0]]}))
    return SweepInputs(spec, config, warmup, work_dir / "out")


def run_converge(config: Path, out_dir: Path, seed: int) -> int:
    """One ``starflux converge`` call, in process, its summary swallowed."""
    argv = ["converge", "--config", str(config), "--out", str(out_dir),
            "--workers", "1", "--seed", str(seed)]
    with contextlib.redirect_stdout(io.StringIO()):
        return starflux.cli.main(argv)


@contextlib.contextmanager
def sweep_probes(tick, level_spans: dict[float, tuple[float, float]]):
    """Call ``tick`` before each march step and time each level.

    Patches the module attributes the sweep looks up, as the tracer does:
    ``starflux.parabolic.evolve.step`` and ``starflux.harness._sweep_row``.
    ``level_spans`` maps epsilon to the (start, end) of its level.
    """
    evolve, harness = starflux.parabolic.evolve, starflux.harness
    step, sweep_row = evolve.step, harness._sweep_row
    clock = time.perf_counter

    def probed_step(*args, **kwargs):
        tick()
        return step(*args, **kwargs)

    def timed_row(payload, epsilon):
        start = clock()
        try:
            return sweep_row(payload, epsilon)
        finally:
            level_spans[float(epsilon)] = (start, clock())

    evolve.step, harness._sweep_row = probed_step, timed_row
    try:
        yield
    finally:
        evolve.step, harness._sweep_row = step, sweep_row


@dataclass
class SweepPass:
    start: float
    end: float
    #: epsilon -> (start, end) of its level, when the levels were timed
    level_spans: dict[float, tuple[float, float]]
    levels: list[dict]
    failed: int
    problems: list[str]
    digest: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


def check_sweep_pass(
    inputs: SweepInputs,
    exit_code: int,
    start: float,
    end: float,
    level_spans: dict[float, tuple[float, float]],
) -> SweepPass:
    """Read back convergence.csv and apply the sweep's output checks."""
    spec = inputs.spec
    problems: list[str] = []
    levels: list[dict] = []
    text = ""
    csv_path = inputs.out_dir / "convergence.csv"
    if exit_code != 0:
        problems.append(f"converge exited with {exit_code}")
    elif not csv_path.exists():
        problems.append("convergence.csv missing")
    else:
        text = csv_path.read_text()
        lines = text.splitlines()
        header = lines[0].split(",")
        levels = [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]
        manifest = json.loads((inputs.out_dir / "manifest.json").read_text())
        for fail in manifest.get("failures", []):
            problems.append(f"level {fail['epsilon']} failed: {fail['reason']}")

    bad_levels = set()
    for row in levels:
        if not all(math.isfinite(v) for v in row.values()):
            bad_levels.add(row["epsilon"])
            problems.append(f"level {row['epsilon']}: non-finite values")
        if abs(row["flux_residual_max"]) > SWEEP_FLUX_TOL:
            bad_levels.add(row["epsilon"])
            problems.append(
                f"level {row['epsilon']}: flux residual {row['flux_residual_max']:.3e}"
            )
    failed = len(bad_levels)
    if [row["epsilon"] for row in levels] != list(spec.epsilons):
        problems.append(f"expected levels {list(spec.epsilons)}")
        failed = len(spec.epsilons)
    elif spec.contraction_gate is not None:
        ratio = levels[-1]["l1_error_final_time"] / levels[0]["l1_error_final_time"]
        if not ratio <= spec.contraction_gate:
            problems.append(
                f"final/first L1 {ratio:.4f} exceeds {spec.contraction_gate}"
            )
            failed = len(spec.epsilons)
    return SweepPass(start, end, level_spans, levels, failed, problems, csv_digest(text))


def csv_digest(text: str) -> str:
    """sha256 of convergence.csv with the wall_time column dropped."""
    rows = [ln.split(",") for ln in text.splitlines()]
    if rows and "wall_time" in rows[0]:
        col = rows[0].index("wall_time")
        rows = [r[:col] + r[col + 1 :] for r in rows]
    body = "\n".join(",".join(r) for r in rows)
    return hashlib.sha256(body.encode()).hexdigest()


# --------------------------------------------------------------------------
# batch


def random_network(rng: np.random.Generator, m: int) -> StarNetwork:
    """Random star with m arcs and at least one arc on each side.

    The test suite's recipe, kept here so the benchmark's inputs do not
    change when the tests do. The arc count is given rather than drawn,
    so that every seed has the same mix of sizes.
    """
    n_inc = int(rng.integers(1, m))
    specs = [
        (float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.1, 10.0)),
         "in" if i < n_inc else "out")
        for i in range(m)
    ]
    return build_network(specs)


def random_coupling(rng: np.random.Generator, net: StarNetwork) -> CouplingMatrix:
    """Symmetric nonnegative coupling with every arc linked across the node."""
    m = net.m
    K = np.zeros((m, m))
    inc = list(net.incoming_ids)
    out = list(net.outgoing_ids)
    for i in inc:
        l = int(rng.choice(out))
        K[i, l] = K[l, i] = float(rng.uniform(0.2, 5.0))
    for l in out:
        if not np.any(K[l, inc] > 0.0):
            i = int(rng.choice(inc))
            K[i, l] = K[l, i] = float(rng.uniform(0.2, 5.0))
    for a in range(m):
        for b in range(a + 1, m):
            if K[a, b] == 0.0 and rng.uniform() < 0.5:
                K[a, b] = K[b, a] = float(rng.uniform(0.0, 3.0))
    return CouplingMatrix.from_array(K, net)


def _random_field(
    rng: np.random.Generator, net: StarNetwork, low: float, high: float
) -> PiecewiseConstantField:
    arcs = []
    for arc in net.arcs:
        pieces = int(rng.integers(1, 4))
        breaks = np.sort(rng.uniform(0.1 * arc.length, 0.9 * arc.length, pieces - 1))
        arcs.append(ArcProfile.from_lists(arc.length, breaks, rng.uniform(low, high, pieces)))
    return PiecewiseConstantField(tuple(arcs))


@dataclass(frozen=True)
class Case:
    """One random star and everything the batch hands the library for it."""

    case_id: int
    net: StarNetwork
    K: CouplingMatrix
    proportional: ProportionalTarget | None
    two_out: TwoOutTarget | None
    u0: PiecewiseConstantField
    B: np.ndarray
    resolvent_eps: float
    resolvent_problem: ResolventProblem


def make_batch(seed: int, count: int) -> list[Case]:
    rng = np.random.default_rng(seed)
    cases = []
    for case_id in range(count):
        net = random_network(rng, ARC_COUNTS[case_id % len(ARC_COUNTS)])
        K = random_coupling(rng, net)
        n_out = len(net.outgoing_ids)
        proportional = two_out = None
        if n_out >= 2:
            w = rng.uniform(0.1, 1.0, n_out)
            proportional = ProportionalTarget(tuple(w / w.sum()))
        if n_out == 2:
            two_out = TwoOutTarget(tuple(rng.uniform(0.05, 0.95, len(net.incoming_ids))))
        u0 = _random_field(rng, net, 0.0, 2.0)
        B = rng.uniform(0.0, 1.0, net.m)
        problem = ResolventProblem.build(
            float(rng.uniform(0.2, 3.0)),
            _random_field(rng, net, -1.0, 1.0),
            rng.uniform(-1.0, 1.0, net.m),
        )
        cases.append(
            Case(case_id, net, K, proportional, two_out, u0, B,
                 float(rng.uniform(0.05, 1.0)), problem)
        )
    return cases


@dataclass
class CaseOutput:
    gamma: np.ndarray
    roundtrips: list[float]
    snapshot: list[np.ndarray]
    flux_balance: float
    resolvent_w: np.ndarray
    resolvent_worst: float


def run_case(case: Case) -> CaseOutput:
    """The library calls of one batch case, looked up on their modules."""
    system = transmission.compute_gamma(case.net, case.K)
    roundtrips = []
    if case.proportional is not None:
        Kp = design.design_proportional(case.net, case.proportional)
        target = design.proportional_gamma_matrix(case.net, case.proportional)
        roundtrips.append(design.roundtrip_error(case.net, Kp, target))
    if case.two_out is not None:
        K2 = design.design_two_outgoing(case.net, case.two_out)
        target = design.two_out_gamma_matrix(case.net, case.two_out)
        roundtrips.append(design.roundtrip_error(case.net, K2, target))
    exact = hyperbolic.solve_exact(case.net, system.gamma, case.u0, case.B, BATCH_T)
    snap = exact.snapshot(BATCH_T)
    balance = hyperbolic.check_flux_conservation(exact, BATCH_FLUX_TIMES)
    sol = resolvent.solve_resolvent(case.net, case.K, case.resolvent_eps, case.resolvent_problem)
    report = sol.residual_report()
    return CaseOutput(
        gamma=system.gamma,
        roundtrips=roundtrips,
        snapshot=[np.concatenate([p.breakpoints, p.values]) for p in snap.arcs],
        flux_balance=balance,
        resolvent_w=sol.h_rhs,
        resolvent_worst=report.worst_scaled,
    )


def case_problems(out: CaseOutput) -> list[str]:
    """The batch's output checks for one case; empty when it passes."""
    problems = []
    g = out.gamma
    if not np.all(np.isfinite(g)) or float(np.min(g)) < 0.0:
        problems.append("gamma has a negative or non-finite weight")
    col = float(np.max(np.abs(g.sum(axis=0) - 1.0)))
    if not col <= GAMMA_COLUMN_TOL:
        problems.append(f"gamma column sum off by {col:.3e}")
    for err in out.roundtrips:
        if not err <= ROUNDTRIP_TOL:
            problems.append(f"design round trip {err:.3e}")
    if not out.flux_balance <= EXACT_FLUX_TOL:
        problems.append(f"exact flux balance {out.flux_balance:.3e}")
    if not out.resolvent_worst <= RESOLVENT_TOL:
        problems.append(f"resolvent residual {out.resolvent_worst:.3e}")
    return problems


def batch_digest(outputs: list[CaseOutput]) -> str:
    """sha256 over every numeric output of a batch pass, in case order."""
    h = hashlib.sha256()
    for out in outputs:
        parts = [out.gamma.ravel(), np.asarray(out.roundtrips, dtype=float),
                 *out.snapshot, np.asarray([out.flux_balance, out.resolvent_worst]),
                 out.resolvent_w]
        for p in parts:
            h.update(np.ascontiguousarray(p, dtype=np.float64).tobytes())
    return h.hexdigest()


@dataclass
class BatchPass:
    start: float
    end: float
    #: (start, end) of each case on the perf_counter clock
    case_spans: list[tuple[float, float]]
    failed: int
    problems: list[str]
    digest: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


def run_batch_pass(cases: list[Case], tracer=None, tick=None) -> BatchPass:
    """Time every case, then check them all outside the timed region.

    With a tracer, each case's spans are labelled with its case id.
    ``tick`` is called before each case, outside its timed span.
    """
    outputs: list[CaseOutput | None] = []
    errors: list[str | None] = []
    spans = []
    clock = time.perf_counter
    start = clock()
    for case in cases:
        if tick is not None:
            tick()
        if tracer is not None:
            tracer.label = case.case_id
        t0 = clock()
        try:
            outputs.append(run_case(case))
            errors.append(None)
        except Exception as exc:  # a raising case is a failed case, not a crash
            outputs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        spans.append((t0, clock()))
    end = clock()

    problems = []
    failed = 0
    for case, out, err in zip(cases, outputs, errors):
        found = [err] if out is None else case_problems(out)
        if found:
            failed += 1
            problems.extend(f"case {case.case_id}: {p}" for p in found)
    digest = batch_digest([o for o in outputs if o is not None])
    return BatchPass(start, end, spans, failed, problems, digest)
