"""starflux benchmark: one workload, measured end to end or per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pinned_sweep --seed 1 --seconds 45 --trace 0

The parent process starts every process itself, one at a time: a
set-up-only process, three measured processes that each run the
workload's passes back to back for a third of ``--seconds``, and another
set-up-only process. ``setup_s`` is the median set-up time of all five;
the other metrics pool the passes of the measured processes, so that no
single process's memory layout decides them. Each child gets OMP/OpenBLAS/MKL thread counts of 1 in its
own environment and imports starflux from ``src/`` of the checkout.

``--trace 0`` reports the end-to-end metrics of an untraced run. Its
timings are in reference seconds (see ``speed.py``): the measured
process times a fixed speed probe between batch cases and between march
steps, and scales the work around each probe by the machine's speed
then. The report keeps the wall times too.
``--trace 1`` alternates untraced and traced passes for the same time,
and reports the per-layer metrics of the traced passes plus the tracing
overhead (median over pairs of a traced pass less the untraced pass
before it, in wall time). Per-layer timings are wall time.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full report, with quality fields, output digests, per-level sizes
and machine facts, goes to ``perfbench/out/``; spans of a traced run go
there too, one JSON line each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("pinned_sweep", "junction_sweep", "junction_batch")
SWEEPS = ("pinned_sweep", "junction_sweep")
#: batch seed when none is given (README: a second seed for re-checks)
DEFAULT_SEED = 20201017
#: measured processes of a run, one after another, each running its
#: share of --seconds; their passes are pooled
MEASURED_PROCESSES = 3
#: set-up-only processes around the measured ones; all of them count
SETUP_PROCESSES = 2
#: speed probes (after untimed warm-up runs) that scale each set-up time
SETUP_WARM_PROBES = 5
SETUP_PROBE_COUNT = 9
#: a child that has not finished by then is killed
CHILD_TIMEOUT_S = 170.0
#: pooled samples needed before p99 has ten samples above it
P99_MIN_SAMPLES = 1000

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "finest_level_s": "s",
    "case_p50_ms": "ms",
    "case_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed of junction_batch (default {DEFAULT_SEED}; "
                        "re-check claims with 7331); the sweeps' inputs are pinned")
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the smoke test's small inputs")
    p.add_argument("--child", choices=("setup", "run"), default=None,
                   help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, default=None, help=argparse.SUPPRESS)
    p.add_argument("--part", type=int, default=0, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --------------------------------------------------------------------------
# child side: import starflux, build inputs, run passes


def _import_workloads():
    sys.path.insert(0, str(SRC))
    import starflux

    if Path(starflux.__file__).resolve().parent != SRC / "starflux":
        raise SystemExit(f"starflux imported from {starflux.__file__}, not {SRC}")
    import workloads

    return workloads


def _setup_seconds(args, ready: float) -> tuple:
    """Set-up time, raw and in reference seconds, and a warm probe.

    The probe runs after ``ready``, so it is not part of set-up.
    """
    import speed

    probe = speed.SpeedProbe()
    probe.warm(SETUP_WARM_PROBES)
    for _ in range(SETUP_PROBE_COUNT):
        probe.probe()
    wall = ready - args.t0
    return {"setup_s": wall / probe.median_slowness(), "setup_wall_s": wall}, probe


def _sweep_child(args, wl) -> dict:
    spec = wl.sweep_spec(args.workload, args.size == "tiny")
    inputs = wl.make_sweep_inputs(spec, OUT / f"{args.workload}-{args.size}")
    ready = time.monotonic()
    setup, probe = _setup_seconds(args, ready)
    if args.child == "setup":
        return setup
    probe.warm()
    wl.run_converge(inputs.warmup_config, inputs.out_dir, args.seed)
    clock = time.perf_counter

    def one_pass(tracer):
        levels: dict[float, tuple[float, float]] = {}
        if tracer is None:
            probe.probe()
            start = clock()
            with wl.sweep_probes(probe.tick, levels):
                code = wl.run_converge(inputs.config, inputs.out_dir, args.seed)
            end = clock()
            probe.probe()
        else:
            start = clock()
            code = wl.run_converge(inputs.config, inputs.out_dir, args.seed)
            end = clock()
        return wl.check_sweep_pass(inputs, code, start, end, levels)

    result = _run_passes(args, one_pass, probe)
    passes = result.pop("passes")
    checked = passes + result.pop("traced", [])
    last = passes[-1]
    finest = min(spec.epsilons)
    finest_spans = [p.level_spans[finest] for p in passes if finest in p.level_spans]
    pass_s = [probe.seconds(p.start, p.end) for p in passes]
    result.update(
        setup,
        attempted=len(checked) * len(spec.epsilons),
        failed=sum(p.failed for p in checked),
        problems=[q for p in checked for q in p.problems][:20],
        pass_s=pass_s,
        pass_wall_s=[probe.seconds(p.start, p.end, scaled=False) for p in passes],
        finest_level_s=[probe.seconds(a, b) for a, b in finest_spans] or [0.0],
        finest_level_wall_s=[probe.seconds(a, b, scaled=False) for a, b in finest_spans],
        # a sweep's case is one converge call: the request its user waits for
        case_s=[[s] for s in pass_s],
        digests=sorted({p.digest for p in checked}),
        quality={
            "rows": last.levels,
            "finest": {k: last.levels[-1][k] for k in
                       ("epsilon", "l1_error_final_time", "node_trace_l1_error", "min_value")}
            if last.levels else None,
        },
    )
    return result


def _batch_child(args, wl) -> dict:
    count = wl.TINY_BATCH_CASES if args.size == "tiny" else wl.BATCH_CASES
    cases = wl.make_batch(args.seed, count)
    ready = time.monotonic()
    setup, probe = _setup_seconds(args, ready)
    if args.child == "setup":
        return setup
    probe.warm()
    wl.run_batch_pass(cases[: max(1, count // 25)])

    def one_pass(tracer):
        if tracer is not None:
            return wl.run_batch_pass(cases, tracer)
        probe.probe()
        batch = wl.run_batch_pass(cases, None, probe.tick)
        probe.probe()
        return batch

    result = _run_passes(args, one_pass, probe)
    passes = result.pop("passes")
    checked = passes + result.pop("traced", [])
    largest = max(c.net.m for c in cases)

    def largest_class_s(p, scaled=True):
        return sum(probe.seconds(a, b, scaled) for (a, b), c in zip(p.case_spans, cases)
                   if c.net.m == largest)

    result.update(
        setup,
        attempted=len(checked) * count,
        failed=sum(p.failed for p in checked),
        problems=[q for p in checked for q in p.problems][:20],
        pass_s=[probe.seconds(p.start, p.end) for p in passes],
        pass_wall_s=[probe.seconds(p.start, p.end, scaled=False) for p in passes],
        finest_level_s=[largest_class_s(p) for p in passes],
        finest_level_wall_s=[largest_class_s(p, scaled=False) for p in passes],
        case_s=[[probe.seconds(a, b) for a, b in p.case_spans] for p in passes],
        digests=sorted({p.digest for p in checked}),
        quality={"largest_arc_count": largest, "cases": count},
    )
    return result


def _run_passes(args, one_pass, probe) -> dict:
    """Passes back to back for the run time; traced runs alternate.

    one_pass(tracer) runs and checks one pass; tracer is None untraced,
    and only untraced passes run speed probes. A traced run follows each
    untraced pass with a traced one, so that both see the same stretches
    of machine speed and their difference is the tracing overhead.
    """
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    untraced, traced = [], []
    clock = time.perf_counter
    deadline = clock() + args.seconds
    # start another pass while it would end, on the last one's time,
    # less than half a pass past the deadline: runs last --seconds on average
    last = 0.0
    while not untraced or clock() + last / 2 < deadline:
        began = clock()
        untraced.append(one_pass(None))
        if tracer is not None:
            tracer.start_pass(len(traced))
            tracer.install()
            try:
                traced.append(one_pass(tracer))
            finally:
                tracer.uninstall()
        last = clock() - began
    result = {"passes": untraced, "probes": len(probe.slowness),
              "slowness_median": probe.median_slowness()}
    if tracer is None:
        return result
    spans_path = OUT / f"spans-{args.workload}-{args.size}-{args.part}.jsonl"
    tracer.write(spans_path)
    levels = [row for row in tracer.levels if row["pass"] == len(traced) - 1]
    return {
        **result,
        "traced": traced,
        "layer_rows": list(tracer.per_pass().values()),
        "layer_units": tracing.metric_units(),
        "overhead_metric": tracing.OVERHEAD_METRIC,
        "traced_pass_s": [p.seconds for p in traced],
        # each traced pass less the untraced pass just before it
        "overheads": [t.seconds - probe.seconds(u.start, u.end, scaled=False)
                      for u, t in zip(untraced, traced)],
        "levels": levels,
        "spans_files": [str(spans_path.relative_to(ROOT))],
        "span_count": sum(s is not None for s in tracer.spans),
    }


def child_main(args) -> int:
    import resource

    wl = _import_workloads()
    if args.workload in SWEEPS:
        result = _sweep_child(args, wl)
    else:
        result = _batch_child(args, wl)
    if args.child == "run":
        import numpy
        import scipy

        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["machine"] = {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
        }
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------------
# parent side: spawn, collect, report


def _spawn(args, mode: str, part: int = 0) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # the same dict and set layouts in every process
    env["PYTHONHASHSEED"] = "0"
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds / MEASURED_PROCESSES),
            "--trace", str(args.trace), "--size", args.size, "--child", mode,
            "--part", str(part),
            "--t0", repr(time.monotonic())]
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def _case_p99_ms(case_s: list[list[float]]) -> tuple[float, str]:
    """p99 of case latency pooled over every pass of the run.

    A run with fewer than P99_MIN_SAMPLES cases (ten above p99) reports
    the median over passes of each pass's slowest case instead.
    """
    pooled = [s for per_pass in case_s for s in per_pass]
    if len(pooled) >= P99_MIN_SAMPLES:
        return (statistics.quantiles(pooled, n=100)[98] * 1e3,
                f"p99 of {len(pooled)} cases pooled over {len(case_s)} passes")
    return (statistics.median(max(c) for c in case_s) * 1e3,
            f"median over {len(case_s)} passes of the slowest case "
            f"({len(pooled)} cases: too few for p99)")


#: per-process lists that are pooled over the measured processes
POOLED = ("pass_s", "pass_wall_s", "finest_level_s", "finest_level_wall_s", "case_s",
          "problems", "traced_pass_s", "overheads", "layer_rows", "spans_files")


def _merge(runs: list[dict]) -> dict:
    """One result from the measured processes: passes pooled, counts summed."""
    merged = dict(runs[-1])
    for key in POOLED:
        if key in merged:
            merged[key] = [x for r in runs for x in r[key]]
    merged["problems"] = merged["problems"][:20]
    for key in ("attempted", "failed", "probes", "span_count"):
        if key in merged:
            merged[key] = sum(r[key] for r in runs)
    merged["digests"] = sorted({d for r in runs for d in r["digests"]})
    merged["peak_rss_mb"] = max(r["peak_rss_mb"] for r in runs)
    merged["slowness_median"] = statistics.median(r["slowness_median"] for r in runs)
    return merged


def _layers(child: dict) -> dict:
    """Per-layer metrics: medians over the traced passes, plus the overhead."""
    rows = child["layer_rows"]
    values = {k: statistics.median(r[k] for r in rows) for k in rows[0]} if rows else {}
    values[child["overhead_metric"]] = statistics.median(child["overheads"])
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in child["layer_units"].items()}


def _reference(workload: str, seed: int) -> str | None:
    ref = json.loads((HERE / "reference.json").read_text())
    entry = ref.get(workload)
    if isinstance(entry, dict):
        return entry.get(str(seed))
    return entry


def parent_main(args) -> int:
    # set-up processes before and after the measured process, so that they
    # sample more than one stretch of this machine's varying speed
    half = SETUP_PROCESSES // 2
    setups = [_spawn(args, "setup") for _ in range(half)]
    runs = [_spawn(args, "run", part) for part in range(MEASURED_PROCESSES)]
    setups += runs
    setups += [_spawn(args, "setup") for _ in range(SETUP_PROCESSES - half)]
    child = _merge(runs)

    p99, p99_how = _case_p99_ms(child["case_s"])
    pooled = [s for per_pass in child["case_s"] for s in per_pass]
    end_to_end = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "pass_s": statistics.median(child["pass_s"]),
        "finest_level_s": statistics.median(child["finest_level_s"]),
        "case_p50_ms": statistics.median(pooled) * 1e3,
        "case_p99_ms": p99,
        "peak_rss_mb": child["peak_rss_mb"],
    }
    digest = child["digests"][0] if len(child["digests"]) == 1 else None
    reference = _reference(args.workload, args.seed) if args.size == "full" else None
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "end_to_end": end_to_end,
        "samples": {"setup": len(setups), "passes": len(child["pass_s"]), "cases": len(pooled)},
        "case_p99_ms_is": p99_how,
        "setup_s_each": [s["setup_s"] for s in setups],
        "setup_wall_s_each": [s["setup_wall_s"] for s in setups],
        "speed": {"probes": child["probes"], "slowness_median": child["slowness_median"]},
        "attempted": child["attempted"],
        "failed": child["failed"],
        "fail_ratio": child["failed"] / child["attempted"],
        "problems": child["problems"],
        "outputs_digest": digest,
        "outputs_deterministic": len(child["digests"]) == 1,
        "outputs_match_seed": None if reference is None else digest == reference,
        "quality": child["quality"],
        "machine": child["machine"],
    }
    if args.trace:
        report["layers"] = _layers(child)
    for key in ("traced_pass_s", "levels", "spans_files", "span_count"):
        if key in child:
            report[key] = child[key]
    report["pass_s_each"] = child["pass_s"]
    report["pass_wall_s_each"] = child["pass_wall_s"]
    report["finest_level_s_each"] = child["finest_level_s"]
    report["finest_level_wall_s_each"] = child["finest_level_wall_s"]
    report["case_p50_ms_each"] = [statistics.median(c) * 1e3 for c in child["case_s"]]

    OUT.mkdir(parents=True, exist_ok=True)
    report_path = OUT / f"report-{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    m = report["machine"]
    print(f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} scipy={m['scipy']}")
    print(f"samples: {len(setups)} set-ups, {len(child['pass_s'])} passes, {len(pooled)} cases")
    print(f"fail_ratio = {child['failed']}/{child['attempted']}")
    for problem in child["problems"][:5]:
        print(f"problem: {problem}")
    if args.trace:
        metrics = report["layers"]
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    for name, entry in metrics.items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"case_p99_ms is the {p99_how}")
    print(f"quality: {json.dumps(child['quality'].get('finest', child['quality']))}")
    print(f"outputs_digest={digest} outputs_match_seed={report['outputs_match_seed']}")
    print(f"report: {report_path.relative_to(ROOT)}")
    correct = child["failed"] == 0 and report["outputs_deterministic"]
    print(json.dumps({
        "correct": correct,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "starflux" / "__init__.py").is_file():
        print(f"error: no starflux sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    try:
        return parent_main(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
