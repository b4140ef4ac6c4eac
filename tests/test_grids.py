"""Grids and flat discrete states: layout, ownership, reductions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import pairwise_depth, simple_star
from starflux import DimensionMismatch, Grid, discrete_l1_norm, make_grid, new_state
from starflux.grids import MAX_CELLS, MIN_CELLS, adopt_state, march_l1_and_min, to_march_order


def small_grid():
    net = simple_star([1.0], [2.0, 0.5], in_lengths=[1.0], out_lengths=[0.5, 1.5])
    return make_grid(net, h=0.25)


def test_offsets_and_weights_follow_the_cells():
    grid = small_grid()
    # the short arc is held at MIN_CELLS = 4 cells of 0.125
    assert grid.cells == (4, 4, 6)
    assert grid.offsets == (0, 5, 10, 17)
    # computed once per grid
    assert grid.offsets is grid.offsets


@pytest.mark.parametrize("target", [{"h": 1e-320}, {"epsilon": 1e-320}, {"h": 1e-9}])
def test_a_target_finer_than_max_cells_gets_max_cells(target):
    """A subnormal target spacing overflows the cell count to inf, which
    is clipped like any other count above MAX_CELLS."""
    net = simple_star([1.0], [2.0], in_lengths=[1.0], out_lengths=[0.5])
    grid = make_grid(net, **target)
    assert grid.cells == (MAX_CELLS, MAX_CELLS)
    assert grid.spacings == (1.0 / MAX_CELLS, 0.5 / MAX_CELLS)


def test_new_state_copies_the_callers_arrays():
    grid = small_grid()
    arrays = [np.arange(n + 1, dtype=float) for n in grid.cells]
    state = new_state(grid, arrays, 0.5)
    arrays[0][:] = -7.0
    arrays[2][3] = np.nan
    np.testing.assert_array_equal(state.values[0], np.arange(5.0))
    np.testing.assert_array_equal(state.values[2], np.arange(7.0))
    assert state.t == 0.5
    assert state.grid is grid


def test_flat_and_views_are_read_only_and_shared():
    """Arc i's values are the view flat[offsets[i]:offsets[i + 1]] of the
    state's own grid."""
    grid = small_grid()
    state = new_state(grid, [np.full(n + 1, float(i)) for i, n in enumerate(grid.cells)])
    assert state.flat.flags.c_contiguous
    assert not state.flat.flags.writeable
    with pytest.raises(ValueError):
        state.flat[0] = 2.0
    b = state.grid.offsets
    assert len(state.values) == grid.arc_count
    for i, view in enumerate(state.values):
        assert view.shape == (grid.cells[i] + 1,)
        assert (view == float(i)).all()
        assert view.tobytes() == state.flat[b[i] : b[i + 1]].tobytes()
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
    assert discrete_l1_norm(state) == pytest.approx(trapezoid, rel=1e-15)


#: values that decide the fast path's bits: signed zeros, subnormals
#: of both signs and the smallest normal
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308]


def bits(value):
    return np.float64(value).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    cells=st.lists(
        st.one_of(st.just(MIN_CELLS), st.integers(MIN_CELLS, 300)), min_size=2, max_size=8
    ),
    values=st.lists(
        st.one_of(
            st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=True),
            st.sampled_from(EDGE_VALUES),
        ),
        min_size=1,
        max_size=64,
    ),
    weight=st.floats(1e-6, 10.0),
    nonnegative=st.booleans(),
)
@example(cells=[4, 4], values=[-0.0], weight=0.5, nonnegative=True)
@example(cells=[4, 5, 4], values=[0.0, -0.0, 0.0], weight=0.5, nonnegative=False)
@example(cells=[5, 4], values=[-0.0, 5e-324], weight=1e-6, nonnegative=True)
def test_march_l1_is_one_trapezoid_rule(cells, values, weight, nonnegative):
    """The L1 norm every diagnostics row records, on random grids.

    values, repeated to the grid's size, is the state in grid order. Its
    norm is the same bits from grid order (discrete_l1_norm, the start
    row) and march order (march_l1_and_min, every later row), and the
    same bits with np.abs skipped, as it is when no value is negative, as
    with it, signed zeros included; the minimum is np.min's.

    Against math.fsum of the trapezoid terms h*|u| (0.5*h*|u| at the
    ends), each rounded once, so within u = eps/2 of the exact sum S:
    np.add.reduceat adds each run's first value to the pairwise sum of
    the rest, d = 1 + pairwise_depth(n - 1) roundings for the longest run
    of n. The two runs' add makes d + 1; subtracting the half ends, at
    most half of the arc's share s of S, at most doubles that error
    relative to s, and the ends' add, the subtraction and the product
    with h add one each, m - 1 adds over the arcs after: 2d + 4 + m
    roundings, 2d + 6 + m with the reference's two, to first order
    (Higham, Accuracy and Stability of Numerical Algorithms, sec. 4.2).
    d + m + 4 eps, twice that, covers the higher-order terms. A rounding
    in the subnormal range is off by at most half the smallest subnormal
    instead, scaled by h after the ends' halving: one per product of the
    reference and two per arc.
    """
    m = len(cells)
    grid = Grid(tuple(cells), tuple(weight * (1 + i % 3) for i in range(m)))
    size = grid.offsets[-1]
    flat = np.resize(np.asarray(values, dtype=float), size)
    if nonnegative:
        # -0.0 < 0.0 is false, so negative zeros stay
        flat = np.where(flat < 0.0, -flat, flat)
    x = to_march_order(flat)
    runs = np.diff([*grid.march_runs, size])
    # np.add.reduceat returns x[i] for an empty run starting at i
    assert (runs > 0).all()

    l1, lowest = march_l1_and_min(x, grid)
    assert bits(lowest) == bits(np.min(x))
    assert bits(discrete_l1_norm(adopt_state(grid, flat.copy(), 0.0))) == bits(l1)
    assert bits(march_l1_and_min(np.abs(x), grid)[0]) == bits(l1)

    terms = []
    for i, h in enumerate(grid.spacings):
        a = np.abs(flat[grid.offsets[i] : grid.offsets[i + 1]])
        terms += [0.5 * h * a[0], *(h * a[1:-1]), 0.5 * h * a[-1]]
    exact = math.fsum(terms)
    d = max(1 + pairwise_depth(n - 1) for n in runs)
    tiny = np.finfo(float).smallest_subnormal * (size + 2 * m * max(1.0, *grid.spacings))
    assert abs(l1 - exact) <= (d + m + 4) * np.finfo(float).eps * exact + tiny
