"""Command-line front end.

Five subcommands cover the package's capabilities:

``gamma``
    Transmission weights of a network, printed as CSV (one row per
    outgoing arc, one column per incoming arc) with a certificate
    summary line.
``design``
    Inverse design: synthesize a coupling matrix K realizing a target
    split, emit it as CSV together with the realized round-trip error.
    The target's key (``weights`` or ``fractions``) picks the family.
``simulate``
    Either the exact inviscid solution sampled on a space-time lattice
    (``--mode hyperbolic``) or the viscous march (``--mode parabolic
    --epsilon E``) with its final snapshot and per-step diagnostics.
``converge``
    The vanishing-viscosity sweep described by an experiment document;
    emits the convergence table.
``approx-data``
    The admissible-data construction swept over smoothing levels
    epsilon_n = 2^-n.

Global flags: ``--config PATH`` (input JSON), ``--out DIR`` (write all
outputs plus a run manifest there; default prints the primary CSV to
stdout), ``--workers N``, ``--seed S``. Every pipeline here is
deterministic; the seed is recorded in the manifest so randomized
callers can stamp their runs.

Exit codes: 0 on success, 2 on validation failure (malformed JSON,
schema violations, infeasible parameters), 3 on numerical failure.
The library range-checks the numeric flags a command reads: a NaN,
infinite or out-of-range value exits 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .configio import (
    load_design_target,
    load_initial_data,
    load_network,
)
from .dataprep import DEFAULT_THETA
from .design import (
    ProportionalTarget,
    design_proportional,
    design_two_outgoing,
    proportional_gamma_matrix,
    roundtrip_error,
    two_out_gamma_matrix,
)
from .errors import ConfigError, NumericalError, ValidationError
from .grids import DEFAULT_H_RULE
from .harness import (
    approx_csv,
    certificate_summary,
    coupling_csv,
    diagnostics_csv,
    field_csv,
    gamma_csv,
    load_experiment_spec,
    run_approx,
    run_convergence,
    run_parabolic_simulation,
    sample_hyperbolic,
    write_manifest,
)
from .transmission import compute_gamma


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", required=True, metavar="PATH", help="input JSON document"
    )
    common.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="write CSV outputs and a run manifest into this directory "
        "(default: print the primary CSV to stdout)",
    )
    common.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for sweeps (default 1: run inline)",
    )
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="S",
        help="stamped into the run manifest; all pipelines are deterministic",
    )

    parser = argparse.ArgumentParser(
        prog="starflux",
        description="Transport on star networks: transmission weights, "
        "viscous and inviscid solvers, coupling design.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "gamma",
        parents=[common],
        help="transmission weights and solvability certificates",
    )

    p_design = sub.add_parser(
        "design", parents=[common], help="synthesize a coupling for a target split"
    )
    p_design.add_argument(
        "--target", required=True, metavar="PATH", help="target JSON document"
    )

    p_sim = sub.add_parser(
        "simulate", parents=[common], help="run one solver on given data"
    )
    p_sim.add_argument(
        "--data", required=True, metavar="PATH", help="initial data JSON document"
    )
    p_sim.add_argument(
        "--mode", choices=["hyperbolic", "parabolic"], required=True
    )
    p_sim.add_argument("--T", type=float, required=True, help="time horizon")
    p_sim.add_argument(
        "--epsilon", type=float, default=None, help="viscosity (parabolic mode)"
    )
    p_sim.add_argument(
        "--h-rule",
        type=float,
        default=DEFAULT_H_RULE,
        help="grid rule h = epsilon / h_rule "
        f"(parabolic mode, default {DEFAULT_H_RULE:g})",
    )
    p_sim.add_argument(
        "--times",
        type=int,
        default=9,
        help="sample times on [0, T] (hyperbolic mode, default 9)",
    )
    p_sim.add_argument(
        "--points",
        type=int,
        default=201,
        help="sample points per arc (hyperbolic mode, default 201)",
    )

    sub.add_parser(
        "converge",
        parents=[common],
        help="vanishing-viscosity sweep from an experiment document",
    )

    p_approx = sub.add_parser(
        "approx-data",
        parents=[common],
        help="admissible-data construction over smoothing levels",
    )
    p_approx.add_argument(
        "--data", required=True, metavar="PATH", help="rough data JSON document"
    )
    p_approx.add_argument(
        "--n-range",
        default="3:10",
        metavar="LO:HI",
        help="smoothing levels epsilon_n = 2^-n for n in LO..HI (default 3:10)",
    )
    p_approx.add_argument(
        "--theta",
        type=float,
        default=DEFAULT_THETA,
        help=f"stretch exponent for the node clearance (default {DEFAULT_THETA})",
    )
    return parser


def _parse_n_range(text: str) -> tuple[int, int]:
    lo_str, sep, hi_str = text.partition(":")
    try:
        if not sep:
            raise ValueError
        lo, hi = int(lo_str), int(hi_str)
    except ValueError:
        raise ConfigError(f"--n-range: expected LO:HI integers, got {text!r}") from None
    return lo, hi


def _emit(
    args: argparse.Namespace,
    outputs: dict[str, str],
    manifest: dict,
    summary: list[str],
) -> None:
    """Write outputs per the --out convention.

    Without --out the first entry of ``outputs`` goes to stdout and any
    further files are skipped with a note on stderr; with --out every
    file lands in the directory together with manifest.json. Summary
    lines print to stdout either way.
    """
    if args.out is None:
        names = list(outputs)
        sys.stdout.write(outputs[names[0]])
        for skipped in names[1:]:
            print(f"note: pass --out DIR to also write {skipped}", file=sys.stderr)
    else:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in outputs.items():
            (out_dir / name).write_text(text)
        manifest["outputs"] = sorted(outputs)
        write_manifest(out_dir, manifest)
        print(f"wrote {', '.join(sorted(outputs))} to {out_dir}")
    for line in summary:
        print(line)


def _base_manifest(args: argparse.Namespace) -> dict:
    return {
        "command": args.command,
        "config": str(Path(args.config).resolve()),
        "seed": args.seed,
        "workers": args.workers,
        "version": __version__,
    }


def _cmd_gamma(args: argparse.Namespace) -> int:
    net, K = load_network(args.config)
    assert K is not None
    system = compute_gamma(net, K)
    manifest = _base_manifest(args)
    manifest["arcs"] = net.m
    _emit(
        args,
        {"gamma.csv": gamma_csv(system)},
        manifest,
        [certificate_summary(system)],
    )
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    net, _ = load_network(args.config, need_coupling=False)
    target = load_design_target(args.target)
    if isinstance(target, ProportionalTarget):
        K = design_proportional(net, target)
        target_gamma = proportional_gamma_matrix(net, target)
        mode = "proportional"
    else:
        K = design_two_outgoing(net, target)
        target_gamma = two_out_gamma_matrix(net, target)
        mode = "two-out"
    error = roundtrip_error(net, K, target_gamma)
    manifest = _base_manifest(args)
    manifest["target"] = str(Path(args.target).resolve())
    manifest["mode"] = mode
    manifest["round_trip_error"] = error
    _emit(
        args,
        {"coupling.csv": coupling_csv(K)},
        manifest,
        [f"round_trip_error={error:.6e}"],
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    net, K = load_network(args.config)
    assert K is not None
    u0, B = load_initial_data(args.data, net)
    manifest = _base_manifest(args)
    manifest["data"] = str(Path(args.data).resolve())
    manifest["mode"] = args.mode
    manifest["T"] = args.T

    if args.mode == "hyperbolic":
        samples = sample_hyperbolic(
            net, K, u0, B, args.T, times=args.times, points=args.points
        )
        manifest["times"] = args.times
        manifest["points"] = args.points
        _emit(
            args,
            {"field.csv": field_csv(samples)},
            manifest,
            [f"sampled {args.times} times x {args.points} points per arc"],
        )
        return 0

    if args.epsilon is None:
        raise ConfigError("--epsilon is required with --mode parabolic")
    snapshot, diagnostics = run_parabolic_simulation(
        net, K, u0, B, args.epsilon, args.T, h_rule=args.h_rule
    )
    manifest["epsilon"] = args.epsilon
    manifest["h_rule"] = args.h_rule
    _emit(
        args,
        {
            "snapshot.csv": field_csv(snapshot),
            "diagnostics.csv": diagnostics_csv(diagnostics),
        },
        manifest,
        [
            f"marched {diagnostics.shape[0] - 1} steps, final L1 norm "
            f"{diagnostics[-1, 1]:.6e}"
        ],
    )
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    spec = load_experiment_spec(args.config)
    report = run_convergence(spec, workers=max(1, args.workers))
    manifest = _base_manifest(args)
    manifest["epsilons"] = list(spec.epsilons)
    manifest["T"] = spec.T
    manifest["h_rule"] = spec.h_rule
    manifest["theta"] = spec.theta
    manifest["failures"] = [
        {"epsilon": eps, "reason": reason} for eps, reason in report.failures
    ]
    summary = [f"{len(report.rows)} rows, {len(report.failures)} failures"]
    summary.extend(
        f"failed epsilon={eps:g}: {reason}" for eps, reason in report.failures
    )
    _emit(args, {"convergence.csv": report.csv()}, manifest, summary)
    return 0


def _cmd_approx(args: argparse.Namespace) -> int:
    net, K = load_network(args.config)
    assert K is not None
    u0, B = load_initial_data(args.data, net)
    lo, hi = _parse_n_range(args.n_range)
    rows = run_approx(net, K, u0, B, (lo, hi), theta=args.theta)
    manifest = _base_manifest(args)
    manifest["data"] = str(Path(args.data).resolve())
    manifest["n_range"] = [lo, hi]
    manifest["theta"] = args.theta
    _emit(args, {"approx.csv": approx_csv(rows)}, manifest, [])
    return 0


_COMMANDS = {
    "gamma": _cmd_gamma,
    "design": _cmd_design,
    "simulate": _cmd_simulate,
    "converge": _cmd_converge,
    "approx-data": _cmd_approx,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
