"""Hindsight oracles, competitive ratio, and regret.

The offline oracle is a value table like any other: ``hindsight_table``
runs the purchase DP with each episode's realized price as its one atom
per slot, by ``policies.SlotGeometry.min_costs``, and ``DpPolicy`` is its
greedy rule, so its cost is exact whenever demands, capacity, and the
initial fill are multiples of the grid step.  ``offline_costs`` scores E
episodes at once through ``simulate_batch`` and returns their (E,) costs;
it takes its rows in the DP table's ``policies.sweep_blocks``, which bound
the value cube's memory.  Every row's result is the same bits whatever
block it lands in, and ``offline_optimal`` is the one-row ``simulate``.
The runners that call these live in ``experiments``.
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
    DpPolicy,
    ValueTable,
    argmin_purchase,  # noqa: F401  (a name bench/tracer.py wraps)
    backward_step,  # noqa: F401  (a name bench/tracer.py wraps)
    slot_sweep,
    storage_grid,
    sweep_blocks,
)
from .prices import resample  # noqa: F401  (a name bench/tracer.py wraps)
from .prices import as_series


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, header: str, rows) -> None:
    """Write a header line and one comma-joined line per row (floats via repr)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def hindsight_table(
    instance: Instance, prices: np.ndarray, grid: np.ndarray, demand
) -> ValueTable:
    """The hindsight oracle's value table for E price series: row e's price its one atom per slot.

    ``prices`` is (E, T) and ``demand`` the demand the rows plan for, (T,)
    or one (E, T) row per series.  The backward sweep fills the
    (T+1, E, G+1) values by ``SlotGeometry.min_costs``.
    """
    values = np.zeros((instance.horizon + 1, prices.shape[0], grid.size))
    for t, geometry in slot_sweep(grid, instance.storage.capacity, demand):
        values[t] = geometry.min_costs(values[t + 1], prices[:, t])
    return ValueTable(grid, values, demand)


def offline_costs(
    instance: Instance, prices, grid_size: int = 100, realized_demand=None
) -> np.ndarray:
    """Hindsight-optimal costs of E price series by backward DP on a grid: a read-only (E,) array.

    ``realized_demand`` (one (E, T) row per series) replaces the instance's
    demand for the oracle.  Row e equals ``offline_optimal`` on series e
    bit for bit.  Rows go through in ``sweep_blocks``, each block one
    ``hindsight_table`` that ``DpPolicy`` acts on.
    """
    T = instance.horizon
    prices = price_rows(prices, T)
    E = prices.shape[0]
    demand = None if realized_demand is None else demand_rows(realized_demand, E, T)
    grid = storage_grid(instance.storage.capacity, grid_size)
    costs = np.empty(E)
    for start, stop in sweep_blocks(E, T, grid.size, 1):
        rows = prices[start:stop]
        realized = None if demand is None else demand[start:stop]
        plan = instance.demand if realized is None else realized
        # one expression, so one block's table is alive at a time
        costs[start:stop] = simulate_batch(
            instance, rows, DpPolicy(hindsight_table(instance, rows, grid, plan)), realized,
        ).total_cost
    costs.flags.writeable = False
    return costs


def offline_optimal(instance: Instance, prices, grid_size: int = 100) -> Trajectory:
    """Hindsight-optimal trajectory of one price series: ``DpPolicy`` on its ``hindsight_table``."""
    prices = as_series(prices, "prices")
    T = instance.horizon
    if prices.size < T:
        raise ValueError(f"need at least {T} prices, got {prices.size}")
    grid = storage_grid(instance.storage.capacity, grid_size)
    table = hindsight_table(instance, prices[None, :T], grid, instance.demand)
    return simulate(instance, prices, DpPolicy(table))


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
