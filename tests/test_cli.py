"""Command-line behavior: exit codes, output layout, determinism."""

from __future__ import annotations

import csv
import json

import pytest

from conftest import EXPERIMENTS
from starflux.cli import main
from starflux.parabolic import evolve
from starflux.parabolic.evolve import COMPATIBILITY_WARN_TOL

PAIR_NET = {
    "arcs": [
        {"length": 1.0, "speed": 1.0, "orientation": "in"},
        {"length": 1.0, "speed": 1.0, "orientation": "out"},
    ],
    "K": [[0.0, 0.5], [0.5, 0.0]],
}

PAIR_DATA = {
    "arcs": [
        {"breaks": [0.35], "values": [1.0, 0.0]},
        {"breaks": [], "values": [0.0]},
    ],
    "boundary": [1.0, 0.0],
}


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def write_experiment(tmp_path, epsilons):
    """An experiment document over PAIR_NET and PAIR_DATA with T = 0.3."""
    write_json(tmp_path, "net.json", PAIR_NET)
    write_json(tmp_path, "u0.json", PAIR_DATA)
    return write_json(tmp_path, "exp.json", {
        "network": "net.json", "data": "u0.json", "epsilons": epsilons, "T": 0.3,
    })


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_gamma_prints_unit_weight_and_certificates(tmp_path, capsys):
    net = write_json(tmp_path, "net.json", PAIR_NET)
    assert main(["gamma", "--config", net]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "outgoing_arc,incoming_0"
    assert float(lines[1].split(",")[1]) == pytest.approx(1.0, abs=1e-12)
    assert lines[2].startswith("certificates: irreducible=True")
    assert "m_matrix_ok=True" in lines[2]


def test_malformed_json_exits_2_with_diagnostic(tmp_path, capsys):
    bad = tmp_path / "net.json"
    bad.write_text('{"arcs": [{"length": }]}')
    assert main(["gamma", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "net.json:1:" in err


def test_schema_violation_exits_2_with_field_path(tmp_path, capsys):
    doc = json.loads(json.dumps(PAIR_NET))
    del doc["arcs"][1]["speed"]
    net = write_json(tmp_path, "net.json", doc)
    assert main(["gamma", "--config", net]) == 2
    assert "arcs[1].speed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "digits, name",
    [(400, "error: arcs[0].length: must be finite"), (5000, "net.json: invalid JSON")],
    ids=["too-large-for-a-float", "beyond-the-digit-limit"],
)
def test_huge_json_integer_exits_2_naming_where(tmp_path, capsys, digits, name):
    net = tmp_path / "net.json"
    net.write_text(json.dumps(PAIR_NET).replace("1.0", "1" + "0" * digits, 1))
    assert main(["gamma", "--config", str(net)]) == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gamma", "converge"])
def test_coupling_breach_exits_2_naming_it(tmp_path, capsys, command):
    """Incoming arc 0 couples only to the other incoming arc."""
    write_json(tmp_path, "net.json", {
        "arcs": [
            {"length": 1.0, "speed": 1.0, "orientation": "in"},
            {"length": 1.0, "speed": 1.0, "orientation": "in"},
            {"length": 1.0, "speed": 1.0, "orientation": "out"},
        ],
        "K": [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
    })
    write_json(tmp_path, "u0.json", {
        "arcs": [{"breaks": [], "values": [0.0]}] * 3, "boundary": [0.0] * 3,
    })
    config = str(tmp_path / "net.json")
    if command == "converge":
        config = write_json(tmp_path, "exp.json", {
            "network": "net.json", "data": "u0.json", "epsilons": [0.08], "T": 0.3,
        })
    out_dir = tmp_path / "run"
    assert main([command, "--config", config, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err == "error: incoming arcs [0] have no outgoing coupling\n"
    assert not out_dir.exists()


def test_design_then_gamma_round_trip(tmp_path, capsys):
    """Design K for the pinned sweep's arcs, then read its weights back."""
    pinned = json.loads((EXPERIMENTS / "pinned_sweep" / "network.json").read_text())
    net = write_json(tmp_path, "net.json", {"arcs": pinned["arcs"]})
    target = write_json(tmp_path, "target.json", {"weights": [0.3, 0.7]})
    out_dir = tmp_path / "designed"
    assert main([
        "design", "--config", net, "--target", target, "--out", str(out_dir),
    ]) == 0
    summary = capsys.readouterr().out
    assert "round_trip_error=" in summary

    rows = read_csv(out_dir / "coupling.csv")
    k = [[float(row[f"arc_{j}"]) for j in range(4)] for row in rows]
    full = dict(pinned, K=k)
    net_full = write_json(tmp_path, "net_full.json", full)
    gamma_dir = tmp_path / "gamma_out"
    assert main(["gamma", "--config", net_full, "--out", str(gamma_dir)]) == 0
    gamma_rows = read_csv(gamma_dir / "gamma.csv")
    for row in gamma_rows:
        weight = 0.3 if row["outgoing_arc"] == "2" else 0.7
        for j in (0, 1):
            assert abs(float(row[f"incoming_{j}"]) - weight) <= 1e-9


def test_simulate_hyperbolic_stdout_csv(tmp_path, capsys):
    net = write_json(tmp_path, "net.json", PAIR_NET)
    data = write_json(tmp_path, "u0.json", PAIR_DATA)
    assert main([
        "simulate", "--config", net, "--data", data,
        "--mode", "hyperbolic", "--T", "0.5", "--times", "2", "--points", "3",
    ]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "arc_id,x,t,u"
    assert lines[-1].startswith("sampled 2 times")
    assert len(lines) == 1 + 2 * 2 * 3 + 1  # header + times*arcs*points + summary


def test_simulate_parabolic_requires_epsilon(tmp_path, capsys):
    net = write_json(tmp_path, "net.json", PAIR_NET)
    data = write_json(tmp_path, "u0.json", PAIR_DATA)
    assert main([
        "simulate", "--config", net, "--data", data,
        "--mode", "parabolic", "--T", "0.1",
    ]) == 2
    assert "--epsilon" in capsys.readouterr().err


def test_simulate_parabolic_too_large_to_march_exits_2(tmp_path, capsys, monkeypatch):
    """A subnormal epsilon clips the grid to MAX_CELLS cells per arc; the
    march's work bound refuses it before anything is assembled."""

    def unreachable(*args):
        raise AssertionError("assembled a march beyond the work bound")

    monkeypatch.setattr(evolve, "assemble_step_operator", unreachable)
    net = write_json(tmp_path, "net.json", PAIR_NET)
    data = write_json(tmp_path, "u0.json", PAIR_DATA)
    assert main([
        "simulate", "--config", net, "--data", data, "--mode", "parabolic",
        "--epsilon", "1e-320", "--T", "0.5", "--out", str(tmp_path / "run"),
    ]) == 2
    assert "MAX_MARCH_WORK" in capsys.readouterr().err


def test_simulate_parabolic_writes_snapshot_and_diagnostics(tmp_path, capsys):
    net = write_json(tmp_path, "net.json", PAIR_NET)
    data = write_json(tmp_path, "u0.json", PAIR_DATA)
    out_dir = tmp_path / "run"
    assert main([
        "simulate", "--config", net, "--data", data, "--mode", "parabolic",
        "--epsilon", "0.1", "--T", "0.1", "--out", str(out_dir),
    ]) == 0
    capsys.readouterr()
    snap = read_csv(out_dir / "snapshot.csv")
    assert {row["t"] for row in snap} == {f"{0.1:.16e}"}
    diag = read_csv(out_dir / "diagnostics.csv")
    assert list(diag[0]) == ["t", "l1_norm", "min_value", "flux_residual"]
    assert float(diag[0]["t"]) == 0.0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["epsilon"] == 0.1
    assert sorted(manifest["outputs"]) == ["diagnostics.csv", "snapshot.csv"]


def test_converge_manifest_and_determinism(tmp_path, capsys):
    exp = write_experiment(tmp_path, [0.08, 0.04])
    outs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        assert main([
            "converge", "--config", exp, "--out", str(out_dir),
            "--workers", "2", "--seed", "7",
        ]) == 0
        outs.append(out_dir)
    capsys.readouterr()

    manifest = json.loads((outs[0] / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["epsilons"] == [0.08, 0.04]
    assert manifest["failures"] == []

    # identical inputs give identical bytes apart from the wall_time column
    first, second = (
        (out / "convergence.csv").read_text().splitlines() for out in outs
    )
    assert first[0] == second[0]
    for a, b in zip(first[1:], second[1:]):
        assert a.split(",")[:-1] == b.split(",")[:-1]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_converge_records_each_levels_warnings_and_certificate(tmp_path, capsys, workers):
    """The junction-active sweep's data violates the node conditions at
    every level; each level's warning, node defect and positivity
    certificate reach manifest.json and the summary, from worker
    processes too, and so do its step count and its time split into
    phases, within its wall_time. The node defect is the number the
    warning prints."""
    source = EXPERIMENTS / "junction_sweep"
    exp = write_json(tmp_path, "exp.json", {
        "network": str(source / "network.json"), "data": str(source / "data.json"),
        "epsilons": [0.04, 0.02], "T": 0.5,
    })
    out_dir = tmp_path / "run"
    assert main(["converge", "--config", exp, "--out", str(out_dir), "--workers", workers]) == 0
    stdout = capsys.readouterr().out
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["failures"] == []
    assert [level["epsilon"] for level in manifest["levels"]] == [0.04, 0.02]
    walls = [float(row["wall_time"]) for row in read_csv(out_dir / "convergence.csv")]
    for level, wall_time in zip(manifest["levels"], walls, strict=True):
        assert level["schur_inv_min"] > 0.0
        assert level["steps"] > 0
        seconds = level["seconds"]
        assert sorted(seconds) == ["compare", "compat", "march"]
        assert min(seconds.values()) >= 0.0
        assert sum(seconds.values()) <= wall_time
        (warning,) = level["warnings"]
        assert warning["category"] == "UserWarning"
        assert level["node_defect"] > COMPATIBILITY_WARN_TOL
        assert warning["message"] == (
            f"initial data violates the discrete node conditions by {level['node_defect']:.3e}"
        )
        line = f"warning at epsilon={level['epsilon']:g}: UserWarning: {warning['message']}"
        assert line in stdout.splitlines()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_converge_rejects_workers_below_one(tmp_path, capsys, workers):
    exp = write_experiment(tmp_path, [0.08])
    out_dir = tmp_path / "run"
    assert main(["converge", "--config", exp, "--out", str(out_dir), "--workers", workers]) == 2
    assert f"error: workers: must be at least 1, got {workers}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_converge_reports_failed_levels(tmp_path, capsys):
    exp = write_experiment(tmp_path, [0.7, 0.04])
    out_dir = tmp_path / "run"
    assert main(["converge", "--config", exp, "--out", str(out_dir)]) == 0
    stdout = capsys.readouterr().out
    assert "1 failures" in stdout
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["failures"][0]["epsilon"] == 0.7
    assert "WidthOverflow" in manifest["failures"][0]["reason"]
    failed, ran = manifest["levels"]
    assert failed["seconds"] is None and failed["steps"] is None
    assert failed["node_defect"] is None
    assert ran["steps"] > 0 and ran["seconds"]["march"] > 0.0
    rows = read_csv(out_dir / "convergence.csv")
    assert len(rows) == 1


def test_approx_data_csv(tmp_path, capsys):
    net = write_json(tmp_path, "net.json", PAIR_NET)
    data = write_json(tmp_path, "u0.json", PAIR_DATA)
    assert main([
        "approx-data", "--config", net, "--data", data, "--n-range", "3:5",
    ]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,epsilon_n,l1_error,tv_norm,scaled_w21,membership_residual"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["3", "4", "5"]


def test_approx_data_bad_range_exits_2(tmp_path, capsys):
    net = write_json(tmp_path, "net.json", PAIR_NET)
    data = write_json(tmp_path, "u0.json", PAIR_DATA)
    assert main([
        "approx-data", "--config", net, "--data", data, "--n-range", "5-3",
    ]) == 2
    assert "--n-range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags, name",
    [
        ("simulate", ["--mode", "hyperbolic", "--T", "nan"], "T"),
        ("simulate", ["--mode", "parabolic", "--epsilon", "0.1", "--T", "nan"], "T"),
        ("simulate", ["--mode", "parabolic", "--epsilon", "inf", "--T", "0.1"], "epsilon"),
        ("approx-data", ["--theta", "inf"], "theta"),
        ("approx-data", ["--theta", "nan"], "theta"),
    ],
    ids=["hyperbolic-T-nan", "parabolic-T-nan", "parabolic-epsilon-inf",
         "approx-theta-inf", "approx-theta-nan"],
)
def test_non_finite_parameter_exits_2_naming_it(tmp_path, capsys, command, flags, name):
    net = write_json(tmp_path, "net.json", PAIR_NET)
    data = write_json(tmp_path, "u0.json", PAIR_DATA)
    out_dir = tmp_path / "run"
    argv = [command, "--config", net, "--data", data, "--out", str(out_dir), *flags]
    assert main(argv) == 2
    assert f"error: {name}: must be finite" in capsys.readouterr().err
    assert not out_dir.exists()


def test_numerical_failure_exits_3(tmp_path, capsys):
    # epsilon_n = 0.5 cannot clear the node zones on short arcs
    short = {
        "arcs": [
            {"length": 0.6, "speed": 1.0, "orientation": "in"},
            {"length": 0.6, "speed": 1.0, "orientation": "out"},
        ],
        "K": [[0.0, 0.5], [0.5, 0.0]],
    }
    net = write_json(tmp_path, "net.json", short)
    data = write_json(tmp_path, "u0.json", {
        "arcs": [
            {"breaks": [], "values": [0.0]},
            {"breaks": [], "values": [0.0]},
        ],
        "boundary": [0.0, 0.0],
    })
    assert main([
        "approx-data", "--config", net, "--data", data, "--n-range", "1:1",
    ]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_missing_subcommand_is_an_argparse_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
