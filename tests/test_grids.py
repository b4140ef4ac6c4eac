"""Grids and flat discrete states: layout, ownership, reductions."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import simple_star
from starflux import DimensionMismatch, discrete_l1_norm, make_grid, new_state


def small_grid():
    net = simple_star([1.0], [2.0, 0.5], in_lengths=[1.0], out_lengths=[0.5, 1.5])
    return make_grid(net, h=0.25)


def test_offsets_and_weights_follow_the_cells():
    grid = small_grid()
    # the short arc is held at MIN_CELLS = 4 cells of 0.125
    assert grid.cells == (4, 4, 6)
    assert grid.offsets == (0, 5, 10, 17)
    w = grid.weights
    np.testing.assert_array_equal(w[:5], [0.125, 0.25, 0.25, 0.25, 0.125])
    np.testing.assert_array_equal(w[5:10], [0.0625, 0.125, 0.125, 0.125, 0.0625])
    assert w.sum() == pytest.approx(3.0)
    assert not w.flags.writeable
    # computed once per grid
    assert grid.weights is w
    assert grid.offsets is grid.offsets


def test_new_state_copies_the_callers_arrays():
    grid = small_grid()
    arrays = [np.arange(n + 1, dtype=float) for n in grid.cells]
    state = new_state(grid, arrays, 0.5)
    arrays[0][:] = -7.0
    arrays[2][3] = np.nan
    np.testing.assert_array_equal(state.values[0], np.arange(5.0))
    np.testing.assert_array_equal(state.values[2], np.arange(7.0))
    assert state.t == 0.5
    assert state.bounds == grid.offsets


def test_flat_and_views_are_read_only_and_shared():
    grid = small_grid()
    state = new_state(grid, [np.ones(n + 1) for n in grid.cells])
    assert state.flat.flags.c_contiguous
    assert not state.flat.flags.writeable
    with pytest.raises(ValueError):
        state.flat[0] = 2.0
    for i, view in enumerate(state.values):
        assert view.shape == (grid.cells[i] + 1,)
        assert not view.flags.writeable
        assert np.shares_memory(view, state.flat)
        with pytest.raises(ValueError):
            view[-1] = 2.0


def test_new_state_rejects_wrong_shapes_and_non_finite_values():
    grid = small_grid()
    good = [np.zeros(n + 1) for n in grid.cells]
    with pytest.raises(DimensionMismatch):
        new_state(grid, good[:2])
    with pytest.raises(DimensionMismatch, match="arc 1"):
        new_state(grid, [good[0], np.zeros(4), good[2]])
    bad = [a.copy() for a in good]
    bad[2][0] = np.inf
    with pytest.raises(DimensionMismatch, match="arc 2: non-finite"):
        new_state(grid, bad)


def test_reductions_match_the_per_arc_formulas():
    grid = small_grid()
    rng = np.random.default_rng(5)
    arrays = [rng.uniform(-1.0, 1.0, n + 1) for n in grid.cells]
    state = new_state(grid, arrays)
    assert state.min_value() == min(float(np.min(a)) for a in arrays)
    trapezoid = sum(
        h * (0.5 * abs(a[0]) + np.sum(np.abs(a[1:-1])) + 0.5 * abs(a[-1]))
        for a, h in zip(arrays, grid.spacings)
    )
    assert discrete_l1_norm(state, grid) == pytest.approx(trapezoid, rel=1e-15)
