"""Hindsight oracles, competitive ratio, and regret.

The offline oracle is the purchase DP with each episode's realized price
as its one atom per slot, on a grid of storage levels, so its cost is
exact whenever demands, capacity, and the initial fill are multiples of
the grid step.  ``hindsight_indices`` sweeps it backward one level-major
value row at a time, by ``policies.SlotGeometry.min_costs``, and keeps
only each slot's base-stock index J; the greedy pass clips grid[J] into
each row's feasible next levels (``policies.clip_purchases``), the step
``DpPolicy`` takes on a value table.  ``offline_costs`` scores E episodes
at once through ``simulate_batch`` and returns their (E,) costs; it takes
its rows in ``policies.sweep_blocks`` of ``oracle_row_floats`` a row.
Every row's result is the same bits whatever block it lands in, and
``offline_optimal`` is the one-row ``simulate``.  The runners that call
these live in ``experiments``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimation import estimate  # noqa: F401  (a name bench/tracer.py wraps)
from .model import (
    Instance,
    Trajectory,
    demand_rows,
    price_rows,
    simulate,
    simulate_batch,
)
from .policies import (
    Policy,
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
ORACLE_LEVELS = 8
# and more under a realized demand, where each slot's ``SlotGeometry`` is (W, E):
# its lowest next levels, the purchase to serve, four index arrays and the
# interpolation offsets and widths, and what building it holds
ROW_GEOMETRY_LEVELS = 10
# (T,) arrays it holds per row: J, and the greedy pass's price copy,
# purchases, levels and clamp flags
ORACLE_SLOTS = 5


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


class _HindsightRule(Policy):
    """The oracle's greedy rule: at slot t, ``clip_purchases`` of each row's J[t]."""

    policy_id = "offline"

    def __init__(self, grid: np.ndarray, best: np.ndarray, demand) -> None:
        self.grid = grid
        self.best = best
        self.demand = demand

    def decide_batch(self, t, levels, prices, instance):
        return clip_purchases(
            self.grid, self.best[t], instance.storage, levels, self.demand[..., t]
        )


def offline_costs(
    instance: Instance, prices, grid_size: int = 100, realized_demand=None
) -> np.ndarray:
    """Hindsight-optimal costs of E price series by backward DP on a grid: a read-only (E,) array.

    ``realized_demand`` (one (E, T) row per series) replaces the instance's
    demand for the oracle.  Row e equals ``offline_optimal`` on series e
    bit for bit.  Rows go through in ``sweep_blocks`` of
    ``oracle_row_floats`` a row, and each block is one
    ``hindsight_indices`` sweep and one greedy pass.
    """
    T = instance.horizon
    prices = price_rows(prices, T)
    E = prices.shape[0]
    demand = None if realized_demand is None else demand_rows(realized_demand, E, T)
    grid = storage_grid(instance.storage.capacity, grid_size)
    costs = np.empty(E)
    for start, stop in sweep_blocks(E, oracle_row_floats(T, grid.size, demand is not None)):
        rows = prices[start:stop]
        realized = None if demand is None else demand[start:stop]
        plan = instance.demand if realized is None else realized
        rule = _HindsightRule(grid, hindsight_indices(instance, rows, grid, plan), plan)
        costs[start:stop] = simulate_batch(instance, rows, rule, realized).total_cost
    costs.flags.writeable = False
    return costs


def offline_optimal(instance: Instance, prices, grid_size: int = 100) -> Trajectory:
    """Hindsight-optimal trajectory of one price series: the one-row ``offline_costs``."""
    prices = as_series(prices, "prices")
    T = instance.horizon
    if prices.size < T:
        raise ValueError(f"need at least {T} prices, got {prices.size}")
    grid = storage_grid(instance.storage.capacity, grid_size)
    best = hindsight_indices(instance, prices[None, :T], grid, instance.demand)
    return simulate(instance, prices, _HindsightRule(grid, best, instance.demand))


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
