"""JSON input documents: schemas, parsing, and path-aware validation.

Every runnable input is a JSON file. Four document kinds exist:

network
    ``{"arcs": [{"length": L, "speed": s, "orientation": "in"|"out"},
    ...], "K": [[...], ...]}``. One entry per arc, ids in list order; K
    is the m x m symmetric coupling matrix.
data
    ``{"arcs": [{"breaks": [...], "values": [...]}, ...],
    "boundary": [...]}``. Piecewise-constant initial data per arc
    (len(values) == len(breaks) + 1) and one inflow value per arc
    (entries for outgoing arcs are carried but unused).
target
    ``{"weights": [...]}`` for the proportional design or
    ``{"fractions": [...]}`` for the two-outgoing design.
experiment
    ``{"network": "net.json", "data": "u0.json", "epsilons": [...],
    "T": t, "h_rule": 8.0, "theta": 1.5}``. File paths are resolved
    relative to the experiment document; h_rule and theta are optional.

Malformed JSON is rejected with the decoder's line/column position;
structurally invalid documents are rejected with the dotted path of the
offending field (for example ``arcs[2].speed``). Both raise ConfigError.
It checks structure (fields, types, shapes, finite numbers) and hands
on only the numbers a document gives: the sweep plan's ranges (epsilon
ladder, T, h_rule, theta) and defaults belong to ``harness.ExperimentSpec``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .design import ProportionalTarget, TwoOutTarget
from .errors import ConfigError, ValidationError, finite_above
from .hyperbolic import ArcProfile, PiecewiseConstantField
from .network import CouplingMatrix, StarNetwork, build_network


def _load_document(path: str | Path) -> Any:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"{p}: cannot read ({exc.strerror or exc})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{p}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})"
        ) from None
    except ValueError as exc:  # an integer beyond the interpreter's digit limit
        raise ConfigError(f"{p}: invalid JSON ({exc})") from None


def _as_object(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    return value


def _as_array(value: Any, where: str, min_len: int = 0) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a JSON array")
    if len(value) < min_len:
        raise ConfigError(
            f"{where}: expected at least {min_len} entries, got {len(value)}"
        )
    return value


def _require(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        field = f"{where}.{key}" if where else key
        raise ConfigError(f"{field}: missing required field")
    return obj[key]


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    extra = sorted(set(obj) - allowed)
    if extra:
        field = f"{where}.{extra[0]}" if where else extra[0]
        raise ConfigError(f"{field}: unknown field")


def _as_number(value: Any, where: str, positive: bool = False) -> float:
    # bool is an int subclass; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number")
    try:
        x = float(value)
    except OverflowError:
        raise ConfigError(f"{where}: must be finite, got an integer too large") from None
    if positive:
        return finite_above(x, where, error=ConfigError)
    if not np.isfinite(x):
        raise ConfigError(f"{where}: must be finite")
    return x


def _as_number_list(value: Any, where: str, min_len: int = 0) -> list[float]:
    arr = _as_array(value, where, min_len)
    return [_as_number(v, f"{where}[{i}]") for i, v in enumerate(arr)]


def load_network(
    path: str | Path, need_coupling: bool = True
) -> tuple[StarNetwork, CouplingMatrix | None]:
    """Parse and validate a network document.

    Structural problems raise ConfigError with the field path; semantic
    problems (non-symmetric K, negative couplings, an empty side of the
    junction) surface as the usual validation errors from the network
    builders. With need_coupling=False the "K" block may be absent, for
    workflows that synthesize the coupling themselves.
    """
    doc = _as_object(_load_document(path), str(path))
    _reject_unknown(doc, {"arcs", "K"}, "")
    raw_arcs = _as_array(_require(doc, "arcs", ""), "arcs", min_len=2)

    specs = []
    for i, entry in enumerate(raw_arcs):
        where = f"arcs[{i}]"
        arc = _as_object(entry, where)
        _reject_unknown(arc, {"length", "speed", "orientation"}, where)
        length = _as_number(_require(arc, "length", where), f"{where}.length", positive=True)
        speed = _as_number(_require(arc, "speed", where), f"{where}.speed", positive=True)
        orientation = _require(arc, "orientation", where)
        if orientation not in ("in", "out"):
            raise ConfigError(
                f"{where}.orientation: expected \"in\" or \"out\", got {orientation!r}"
            )
        specs.append((length, speed, orientation))

    m = len(specs)
    net = build_network(specs)
    if "K" not in doc and not need_coupling:
        return net, None
    raw_k = _as_array(_require(doc, "K", ""), "K", min_len=m)
    if len(raw_k) != m:
        raise ConfigError(f"K: expected {m} rows for {m} arcs, got {len(raw_k)}")
    rows = []
    for i, row in enumerate(raw_k):
        vals = _as_number_list(row, f"K[{i}]")
        if len(vals) != m:
            raise ConfigError(
                f"K[{i}]: expected {m} entries, got {len(vals)}"
            )
        rows.append(vals)

    K = CouplingMatrix.from_array(np.asarray(rows), net)
    return net, K


def load_initial_data(
    path: str | Path, net: StarNetwork
) -> tuple[PiecewiseConstantField, np.ndarray]:
    """Parse piecewise-constant initial data and inflow boundary values.

    The document must carry exactly one profile per network arc and one
    boundary entry per arc (outgoing entries are placeholders). Breaks
    must be strictly increasing inside the open arc interval.
    """
    doc = _as_object(_load_document(path), str(path))
    _reject_unknown(doc, {"arcs", "boundary"}, "")
    raw_arcs = _as_array(_require(doc, "arcs", ""), "arcs")
    if len(raw_arcs) != net.m:
        raise ConfigError(
            f"arcs: expected {net.m} profiles for this network, got {len(raw_arcs)}"
        )

    profiles = []
    for i, entry in enumerate(raw_arcs):
        where = f"arcs[{i}]"
        prof = _as_object(entry, where)
        _reject_unknown(prof, {"breaks", "values"}, where)
        breaks = _as_number_list(_require(prof, "breaks", where), f"{where}.breaks")
        values = _as_number_list(
            _require(prof, "values", where), f"{where}.values", min_len=1
        )
        if len(values) != len(breaks) + 1:
            raise ConfigError(
                f"{where}.values: expected {len(breaks) + 1} values for "
                f"{len(breaks)} breaks, got {len(values)}"
            )
        try:
            profiles.append(ArcProfile.from_lists(net.arc(i).length, breaks, values))
        except ValidationError as exc:
            raise ConfigError(f"{where}.breaks: {exc}") from None

    boundary = _as_number_list(_require(doc, "boundary", ""), "boundary")
    if len(boundary) != net.m:
        raise ConfigError(
            f"boundary: expected {net.m} entries, got {len(boundary)}"
        )
    return PiecewiseConstantField(tuple(profiles)), np.asarray(boundary)


def load_design_target(path: str | Path) -> ProportionalTarget | TwoOutTarget:
    """Parse a design target document.

    ``{"weights": [...]}`` selects the proportional design and
    ``{"fractions": [...]}`` the two-outgoing design.
    """
    doc = _as_object(_load_document(path), str(path))
    _reject_unknown(doc, {"weights", "fractions"}, "")
    if ("weights" in doc) == ("fractions" in doc):
        raise ConfigError(
            "target: give exactly one of \"weights\" and \"fractions\""
        )
    if "weights" in doc:
        weights = _as_number_list(doc["weights"], "weights", min_len=2)
        return ProportionalTarget(tuple(weights))
    fractions = _as_number_list(doc["fractions"], "fractions", min_len=1)
    return TwoOutTarget(tuple(fractions))


def load_experiment(path: str | Path) -> tuple[Path, Path, dict[str, Any]]:
    """Parse an experiment document into its inputs and its plan.

    Returns the network and data paths, resolved relative to the
    document, and the plan's finite numbers keyed by
    harness.ExperimentSpec field: epsilons and T, plus h_rule and theta
    when the document gives them.
    """
    p = Path(path)
    doc = _as_object(_load_document(p), str(p))
    _reject_unknown(doc, {"network", "data", "epsilons", "T", "h_rule", "theta"}, "")

    network_rel = _require(doc, "network", "")
    data_rel = _require(doc, "data", "")
    for key, val in (("network", network_rel), ("data", data_rel)):
        if not isinstance(val, str) or not val:
            raise ConfigError(f"{key}: expected a file path string")

    eps = _as_number_list(_require(doc, "epsilons", ""), "epsilons", min_len=1)
    plan = {"epsilons": tuple(eps), "T": _as_number(_require(doc, "T", ""), "T")}
    for key in ("h_rule", "theta"):
        if key in doc:
            plan[key] = _as_number(doc[key], key)

    base = p.resolve().parent
    return (base / network_rel).resolve(), (base / data_rel).resolve(), plan
