"""The checked-in sweeps under experiments/, and the benchmark's copies.

perfbench/workloads.py still writes its own copy of each sweep before
it runs ``starflux converge`` on it (ROADMAP item 4 points it at these
documents). Until then this module keeps the two equal: it loads
workloads.py from its path, has it write its documents into a temporary
directory, and compares them with the checked-in ones.
"""

from __future__ import annotations

import importlib.util
import json
import sys

import pytest

from conftest import EXPERIMENTS, ROOT


def read(path):
    return json.loads(path.read_text())


@pytest.fixture
def workloads(monkeypatch):
    """perfbench/workloads.py, imported from its path and only read."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, workload", [("pinned_sweep", "PINNED"), ("junction_sweep", "JUNCTION")]
)
def test_benchmark_sweep_equals_the_checked_in_documents(tmp_path, workloads, name, workload):
    """Network, data, viscosity ladder, T, h_rule and theta, value for value."""
    inputs = workloads.make_sweep_inputs(getattr(workloads, workload), tmp_path)
    theirs = read(inputs.config)
    ours = read(EXPERIMENTS / name / "experiment.json")
    for key in ("network", "data"):
        assert read(tmp_path / theirs.pop(key)) == read(EXPERIMENTS / name / ours.pop(key)), key
    assert theirs == ours
