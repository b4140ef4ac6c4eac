"""JSON document loading: schemas, diagnostics, path resolution."""

from __future__ import annotations

import json

import numpy as np
import pytest

from starflux import (
    ConfigError,
    ProportionalTarget,
    TwoOutTarget,
    load_design_target,
    load_experiment,
    load_experiment_spec,
    load_initial_data,
    load_network,
)

GOOD_NET = {
    "arcs": [
        {"length": 1.0, "speed": 1.0, "orientation": "in"},
        {"length": 2.0, "speed": 3.0, "orientation": "out"},
    ],
    "K": [[0.0, 0.5], [0.5, 0.0]],
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    if isinstance(payload, str):
        path.write_text(payload)
    else:
        path.write_text(json.dumps(payload))
    return path


def test_network_roundtrip(tmp_path):
    net, K = load_network(write(tmp_path, "net.json", GOOD_NET))
    assert net.m == 2
    assert net.incoming_ids == (0,)
    assert net.outgoing_ids == (1,)
    assert net.arc(1).length == 2.0
    assert net.arc(1).speed == 3.0
    assert K is not None
    np.testing.assert_array_equal(K.k, [[0.0, 0.5], [0.5, 0.0]])


def test_invalid_json_reports_line_and_column(tmp_path):
    path = write(tmp_path, "bad.json", '{"arcs": [,]}')
    with pytest.raises(ConfigError, match=r"bad\.json:1:11"):
        load_network(path)


def test_missing_arc_field_reports_path(tmp_path):
    doc = {"arcs": [GOOD_NET["arcs"][0], {"length": 1.0, "orientation": "out"}],
           "K": GOOD_NET["K"]}
    with pytest.raises(ConfigError, match=r"arcs\[1\]\.speed"):
        load_network(write(tmp_path, "net.json", doc))


def test_bad_orientation_reports_path(tmp_path):
    doc = json.loads(json.dumps(GOOD_NET))
    doc["arcs"][0]["orientation"] = "sideways"
    with pytest.raises(ConfigError, match=r"arcs\[0\]\.orientation"):
        load_network(write(tmp_path, "net.json", doc))


def test_nonpositive_speed_reports_path(tmp_path):
    doc = json.loads(json.dumps(GOOD_NET))
    doc["arcs"][1]["speed"] = 0.0
    with pytest.raises(ConfigError, match=r"arcs\[1\]\.speed.*positive"):
        load_network(write(tmp_path, "net.json", doc))


def test_ragged_coupling_row_reports_path(tmp_path):
    doc = json.loads(json.dumps(GOOD_NET))
    doc["K"][1] = [0.5]
    with pytest.raises(ConfigError, match=r"K\[1\]"):
        load_network(write(tmp_path, "net.json", doc))


def test_boolean_is_not_a_number(tmp_path):
    doc = json.loads(json.dumps(GOOD_NET))
    doc["K"][0][1] = True
    with pytest.raises(ConfigError, match=r"K\[0\]\[1\]"):
        load_network(write(tmp_path, "net.json", doc))


def test_unknown_top_level_field_rejected(tmp_path):
    doc = dict(GOOD_NET, comment="hi")
    with pytest.raises(ConfigError, match="comment.*unknown"):
        load_network(write(tmp_path, "net.json", doc))


def test_missing_coupling_block(tmp_path):
    doc = {"arcs": GOOD_NET["arcs"]}
    path = write(tmp_path, "net.json", doc)
    with pytest.raises(ConfigError, match="K.*missing"):
        load_network(path)
    net, K = load_network(path, need_coupling=False)
    assert K is None
    assert net.m == 2


def test_initial_data_roundtrip(tmp_path):
    net, _ = load_network(write(tmp_path, "net.json", GOOD_NET))
    doc = {
        "arcs": [
            {"breaks": [0.25], "values": [1.0, 0.0]},
            {"breaks": [], "values": [0.5]},
        ],
        "boundary": [1.0, 0.0],
    }
    u0, B = load_initial_data(write(tmp_path, "u0.json", doc), net)
    assert u0.arcs[0].evaluate(0.25) == 1.0
    assert u0.arcs[0].evaluate(0.26) == 0.0
    assert u0.arcs[1].evaluate(1.7) == 0.5
    np.testing.assert_array_equal(B, [1.0, 0.0])


def test_initial_data_wrong_profile_count(tmp_path):
    net, _ = load_network(write(tmp_path, "net.json", GOOD_NET))
    doc = {"arcs": [{"breaks": [], "values": [0.0]}], "boundary": [0.0, 0.0]}
    with pytest.raises(ConfigError, match="expected 2 profiles"):
        load_initial_data(write(tmp_path, "u0.json", doc), net)


def test_initial_data_value_count_mismatch(tmp_path):
    net, _ = load_network(write(tmp_path, "net.json", GOOD_NET))
    doc = {
        "arcs": [
            {"breaks": [0.5], "values": [1.0]},
            {"breaks": [], "values": [0.0]},
        ],
        "boundary": [0.0, 0.0],
    }
    with pytest.raises(ConfigError, match=r"arcs\[0\]\.values"):
        load_initial_data(write(tmp_path, "u0.json", doc), net)


def test_initial_data_break_outside_arc(tmp_path):
    net, _ = load_network(write(tmp_path, "net.json", GOOD_NET))
    doc = {
        "arcs": [
            {"breaks": [1.5], "values": [1.0, 0.0]},
            {"breaks": [], "values": [0.0]},
        ],
        "boundary": [0.0, 0.0],
    }
    with pytest.raises(ConfigError, match=r"arcs\[0\]\.breaks"):
        load_initial_data(write(tmp_path, "u0.json", doc), net)


def test_design_target_kinds(tmp_path):
    prop = load_design_target(write(tmp_path, "t1.json", {"weights": [0.3, 0.7]}))
    assert isinstance(prop, ProportionalTarget)
    assert prop.weights == (0.3, 0.7)

    two = load_design_target(write(tmp_path, "t2.json", {"fractions": [0.25]}))
    assert isinstance(two, TwoOutTarget)
    assert two.fractions == (0.25,)


def test_design_target_key_must_be_unique(tmp_path):
    path = write(tmp_path, "t.json", {"weights": [0.5, 0.5], "fractions": [0.5]})
    with pytest.raises(ConfigError, match="exactly one"):
        load_design_target(path)


def test_design_target_mode_mismatch(tmp_path):
    path = write(tmp_path, "t.json", {"weights": [0.5, 0.5]})
    with pytest.raises(ConfigError, match="two-out"):
        load_design_target(path, mode="two-out")


def test_experiment_resolves_paths_relative_to_document(tmp_path):
    sub = tmp_path / "nested"
    sub.mkdir()
    doc = {
        "network": "net.json",
        "data": "u0.json",
        "epsilons": [0.08, 0.04],
        "T": 0.5,
    }
    cfg = load_experiment(write(sub, "exp.json", doc))
    assert cfg.network_path == (sub / "net.json").resolve()
    assert cfg.data_path == (sub / "u0.json").resolve()
    assert cfg.epsilons == (0.08, 0.04)
    assert cfg.T == 0.5
    assert cfg.h_rule == 8.0
    assert cfg.theta == 1.5


GOOD_DATA = {
    "arcs": [
        {"breaks": [0.25], "values": [1.0, 0.0]},
        {"breaks": [], "values": [0.5]},
    ],
    "boundary": [1.0, 0.0],
}

#: hints of the cases load_experiment rejects; the rest are ranges, which
#: ExperimentSpec owns
STRUCTURAL_HINTS = ("at least 1", "unknown")


@pytest.mark.parametrize(
    "patch, hint",
    [
        ({"epsilons": [0.04, 0.08]}, "decreasing"),
        ({"epsilons": [0.04, -0.01]}, "positive"),
        ({"epsilons": []}, "at least 1"),
        ({"T": -1.0}, "positive"),
        ({"theta": 1.0}, "exceed 1"),
        ({"h_rule": 2.0}, "at least 4"),
        ({"extra": 1}, "unknown"),
    ],
)
def test_experiment_validation(tmp_path, patch, hint):
    write(tmp_path, "n.json", GOOD_NET)
    write(tmp_path, "d.json", GOOD_DATA)
    doc = {"network": "n.json", "data": "d.json", "epsilons": [0.1], "T": 1.0}
    doc.update(patch)
    path = write(tmp_path, "exp.json", doc)
    if hint in STRUCTURAL_HINTS:
        with pytest.raises(ConfigError, match=hint):
            load_experiment(path)
    else:
        load_experiment(path)  # parses: ranges are not checked here
        with pytest.raises(ConfigError, match=hint):
            load_experiment_spec(path)


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_network(tmp_path / "absent.json")
