"""The shared range rule: finite_above and finite_values."""

from __future__ import annotations

import numpy as np
import pytest

from starflux import ConfigError, DimensionMismatch, NonPositiveParameter
from starflux.errors import finite_above, finite_values


@pytest.mark.parametrize(
    "value, bound, inclusive, accepted",
    [
        (1e-300, 0.0, False, True),
        (0.0, 0.0, False, False),
        (0.0, 0.0, True, True),
        (-1e-300, 0.0, True, False),
        (4.0, 4.0, True, True),
        (4.0, 4.0, False, False),
        (1.5, 1.0, False, True),
        (np.nan, 0.0, False, False),
        (np.nan, 0.0, True, False),
        (np.inf, 0.0, False, False),
        (-np.inf, 0.0, True, False),
    ],
)
def test_finite_above_admits_finite_values_past_the_bound(
    value, bound, inclusive, accepted
):
    if accepted:
        out = finite_above(np.float64(value), "x", bound, inclusive=inclusive)
        assert out == value and type(out) is float
    else:
        with pytest.raises(NonPositiveParameter, match="^x: must be finite"):
            finite_above(value, "x", bound, inclusive=inclusive)


@pytest.mark.parametrize(
    "bound, inclusive, rule",
    [(0.0, False, "positive"), (1.0, False, "exceed 1"), (4.0, True, "at least 4")],
)
def test_finite_above_message_names_parameter_rule_and_value(bound, inclusive, rule):
    with pytest.raises(
        ConfigError, match=f"^theta: must be finite and {rule}, got nan$"
    ):
        finite_above(np.nan, "theta", bound, inclusive=inclusive, error=ConfigError)


def test_finite_values_checks_shape_then_finiteness():
    out = finite_values((1, 2.5), 2)
    assert out.dtype == float and out.tolist() == [1.0, 2.5]
    with pytest.raises(DimensionMismatch, match="need 3 boundary values"):
        finite_values([0.0, 0.0], 3)
    with pytest.raises(DimensionMismatch):
        finite_values([[0.0, 0.0]], 2)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonPositiveParameter, match="need 2 finite boundary"):
            finite_values([0.0, bad], 2)
