"""Hindsight oracles, competitive ratio, and regret.

The offline oracle is the purchase DP with each episode's realized price
as its one atom per slot, on a grid of storage levels, so its cost is
exact whenever demands, capacity, and the initial fill are multiples of
the grid step.  ``hindsight_indices`` sweeps it backward one level-major
value row at a time, by ``policies.SlotGeometry.min_costs``, and keeps
only each slot's base-stock index J; the forward pass,
``hindsight_pass``, clips grid[J] into each row's feasible next levels
(``policies.clip_purchases``), the step ``DpPolicy`` takes on a value
table.  That purchase is feasible by construction, so the pass needs no
clamp and no clamp record, and it computes each slot's feasible range
once.  ``offline_costs`` scores E episodes at once and returns their (E,)
costs; it takes its rows in ``policies.sweep_blocks`` of
``oracle_row_floats`` a row.  Every row's result is the same bits
whatever block it lands in, and ``offline_optimal`` is the one-row pass
as a ``Trajectory``.  The runners that call these live in
``experiments``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimation import estimate  # noqa: F401  (a name bench/tracer.py wraps)
from .model import Instance, Trajectory, demand_rows, price_rows
from .model import simulate  # noqa: F401  (a name bench/tracer.py wraps)
from .policies import (
    argmin_purchase,  # noqa: F401  (a name bench/tracer.py wraps)
    backward_step,  # noqa: F401  (a name bench/tracer.py wraps)
    base_stock_index,
    clip_purchases,
    slot_sweep,
    storage_grid,
    sweep_blocks,
)
from .prices import resample  # noqa: F401  (a name bench/tracer.py wraps)
from .prices import as_series


# (W,) columns of floats the oracle's sweep holds per row: the next and new
# values, the scan and its buffer, the slopes, and the endpoint values
# (tracemalloc reads 5.7)
ORACLE_LEVELS = 8
# and more under a realized demand, where each slot's ``SlotGeometry`` is (W, E):
# its lowest next levels, the purchase to serve, its ``RowBracket`` and the
# dense interpolation's temporaries (tracemalloc reads 7.5)
ROW_GEOMETRY_LEVELS = 8
# (T,) arrays it holds per row: J, the price copy ``offline_costs`` takes, and
# the forward pass's purchases and levels (tracemalloc reads 4.0)
ORACLE_SLOTS = 4


def oracle_row_floats(horizon: int, width: int, per_row: bool) -> int:
    """The floats one row of the oracle holds, for ``sweep_blocks``: W-level columns and T-slot arrays."""
    return (ORACLE_LEVELS + ROW_GEOMETRY_LEVELS * per_row) * width + ORACLE_SLOTS * horizon


def hindsight_indices(instance: Instance, prices: np.ndarray, grid: np.ndarray, demand):
    """The hindsight oracle's base-stock index of every slot and row: a (T, E) array.

    ``prices`` is (E, T) and ``demand`` the demand the rows plan for, (T,)
    or one (E, T) row per series.  The backward sweep holds one level-major
    (W, E) value row at a time, row e's price its one atom per slot
    (``SlotGeometry.min_costs``).  At slot t it records J[t, e], the
    ``base_stock_index`` of values[t + 1] at price prices[e, t], and then
    drops that row.
    """
    T = instance.horizon
    columns = prices.T
    best = np.empty((T, prices.shape[0]), dtype=np.intp)
    values = np.zeros((grid.size, prices.shape[0]))
    for t, geometry in slot_sweep(grid, instance.storage.capacity, demand):
        best[t] = base_stock_index(grid, values, columns[t])
        values = geometry.min_costs(values, columns[t])
        del geometry  # so the sweep builds the next one with this one gone
    return best


def hindsight_pass(instance: Instance, prices: np.ndarray, grid: np.ndarray, best, demand):
    """The oracle's forward pass: read-only purchases (E, T), levels (E, T+1) and costs (E,).

    At slot t every row buys ``clip_purchases`` at its index J[t], which
    lies in the row's feasible range, so no clamp follows, and steps its
    level by the purchase less the demand it plans for, (T,) or one (E, T)
    row per series.  Each row's cost is one ``np.dot`` of its prices and
    purchases, so a row's bits do not depend on the other rows.
    """
    T = instance.horizon
    spec = instance.storage
    E = prices.shape[0]
    purchases = np.empty((E, T))
    levels = np.empty((E, T + 1))
    level = np.full(E, spec.initial_level)
    levels[:, 0] = level
    for t in range(T):
        d = demand[..., t]
        q = clip_purchases(grid, best[t], spec, level, d)
        level = level + q - d
        purchases[:, t] = q
        levels[:, t + 1] = level
    costs = np.empty(E)
    for e in range(E):
        costs[e] = np.dot(prices[e], purchases[e])
    for arr in (purchases, levels, costs):
        arr.flags.writeable = False
    return purchases, levels, costs


def offline_costs(
    instance: Instance, prices, grid_size: int = 100, realized_demand=None
) -> np.ndarray:
    """Hindsight-optimal costs of E price series by backward DP on a grid: a read-only (E,) array.

    ``realized_demand`` (one (E, T) row per series) replaces the instance's
    demand for the oracle.  Row e equals ``offline_optimal`` on series e
    bit for bit.  Rows go through in ``sweep_blocks`` of
    ``oracle_row_floats`` a row, and each block is one
    ``hindsight_indices`` sweep and one ``hindsight_pass``.
    """
    T = instance.horizon
    prices = price_rows(prices, T)
    E = prices.shape[0]
    demand = None if realized_demand is None else demand_rows(realized_demand, E, T)
    grid = storage_grid(instance.storage.capacity, grid_size)
    costs = np.empty(E)
    for start, stop in sweep_blocks(E, oracle_row_floats(T, grid.size, demand is not None)):
        rows = prices[start:stop]
        plan = instance.demand if demand is None else demand[start:stop]
        best = hindsight_indices(instance, rows, grid, plan)
        costs[start:stop] = hindsight_pass(instance, rows, grid, best, plan)[2]
    costs.flags.writeable = False
    return costs


def offline_optimal(instance: Instance, prices, grid_size: int = 100) -> Trajectory:
    """Hindsight-optimal trajectory of one price series: the one-row ``offline_costs``."""
    prices = as_series(prices, "prices")
    T = instance.horizon
    if prices.size < T:
        raise ValueError(f"need at least {T} prices, got {prices.size}")
    rows = prices[None, :T]
    grid = storage_grid(instance.storage.capacity, grid_size)
    best = hindsight_indices(instance, rows, grid, instance.demand)
    purchases, levels, costs = hindsight_pass(instance, rows, grid, best, instance.demand)
    return Trajectory(prices=rows[0], purchases=purchases[0], levels=levels[0],
                      total_cost=float(costs[0]))


def competitive_ratio(alg_cost, opt_cost):
    """Online cost divided by hindsight-optimal cost on the same prices, element-wise.

    Raises at the first nonpositive oracle cost in row-major order.
    """
    bad = np.flatnonzero(np.asarray(opt_cost) <= 0)
    if bad.size:
        raise ValueError(
            f"competitive ratio undefined for opt_cost={np.ravel(opt_cost)[bad[0]].item()}"
        )
    return alg_cost / opt_cost


@dataclass(frozen=True)
class RegretReport:
    """Mean paired cost difference with its standard error."""

    mean: float
    stderr: float
    diffs: np.ndarray


def regret(alg_costs, opt_costs) -> RegretReport:
    """Mean(alg) - mean(opt) over cost pairs sharing random seeds."""
    alg = np.asarray(alg_costs, dtype=float)
    opt = np.asarray(opt_costs, dtype=float)
    if alg.shape != opt.shape or alg.ndim != 1 or alg.size < 1:
        raise ValueError("cost vectors must be equal-length, one-dimensional, nonempty")
    diffs = alg - opt
    stderr = float(diffs.std(ddof=1) / math.sqrt(diffs.size)) if diffs.size > 1 else math.nan
    return RegretReport(mean=float(diffs.mean()), stderr=stderr, diffs=diffs)
