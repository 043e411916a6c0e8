"""Hindsight oracles, competitive ratio, regret, and bound-violation rounds.

The offline oracle is a value table like any other: ``hindsight_table``
runs the purchase DP with each episode's realized price as its one atom
per slot, by ``policies.SlotGeometry.min_costs``, and ``DpPolicy`` is its
greedy rule, so its cost is exact whenever demands, capacity, and the
initial fill are multiples of the grid step.  ``offline_costs`` scores E
episodes at once through ``simulate_batch`` and returns their (E,) costs;
it takes its rows in the DP table's ``policies.sweep_blocks``, which bound
the value cube's memory.  Every row's result is the same bits whatever
block it lands in, and ``offline_optimal`` is the one-row ``simulate``.

A violation chunk estimates its (round, n) pairs and scores them together:
one threshold batch and one oracle batch over the distinct series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig
from .estimation import EstimationError, estimate
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
    ThresholdPolicy,
    ValueTable,
    argmin_purchase,  # noqa: F401  (a name bench/tracer.py wraps)
    backward_step,  # noqa: F401  (a name bench/tracer.py wraps)
    slot_sweep,
    storage_grid,
    sweep_blocks,
)
from .prices import _resample as resample  # trusts its input; violation_rounds validates it
from .prices import as_series
from .seeds import stream

METRIC_HEADER = "round,n,policy_id,alg_cost,opt_cost,cr,cr_bound,violated,regret,theta_hat,seed"


@dataclass(frozen=True)
class MetricRow:
    """One experiment record, matching the documented CSV schema."""

    round: int
    n: int
    policy_id: str
    alg_cost: float
    opt_cost: float
    cr: float
    cr_bound: float
    violated: bool
    regret: float
    theta_hat: float
    seed: int


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


def write_metric_rows(path, rows) -> None:
    rows = sorted(rows, key=lambda r: (r.n, r.round, r.policy_id))
    _write_csv(
        path,
        METRIC_HEADER,
        [
            (r.round, r.n, r.policy_id, r.alg_cost, r.opt_cost, r.cr, r.cr_bound,
             int(r.violated), r.regret, r.theta_hat, r.seed)
            for r in rows
        ],
    )


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


@dataclass(frozen=True)
class ViolationReport:
    """Bound-violation frequency for one sample size."""

    n: int
    rounds: int
    violations: int
    failures: int
    p_hat: float
    stderr: float
    rows: tuple[MetricRow, ...] = field(repr=False, default=())


def violation_rounds(
    config: ExperimentConfig, instance: Instance, eval_model, history: np.ndarray,
    ns, round_indices,
) -> tuple[list[list[MetricRow]], list[int]]:
    """Run a batch of violation rounds at every sample size in ``ns``.

    Returns the rows and the failure count of each n, in the order of
    ``ns``.  Each round is seeded by its own index, so any partition of the
    round indices across workers reproduces the same rows.

    A round estimates from a size-n sample, then scores its threshold
    policy on the config's ``eval_episodes`` evaluation series.  The series
    come from the evaluation model (drawn once per round, for every n), or
    with ``eval_source=held-out`` from windows of the history after its
    first n records, which form the estimation pool.  Rounds whose
    estimation fails are counted, not dropped.  The estimated (round, n)
    pairs of the chunk are scored together: one threshold batch with one
    threshold per row, and one oracle batch over the distinct series.
    """
    T = instance.horizon
    E = config.eval_episodes
    held = config.eval_source == "held-out"
    history = as_series(history, "history")  # once per chunk; resample indexes it as is
    failures = [0] * len(ns)
    scored = []  # (index into ns, round, estimate report)
    series = []  # E price series per scored (round, n)
    for r in round_indices:
        drawn = None if held else [
            eval_model.draw(stream(config.seed, 1, r, e), T) for e in range(E)
        ]
        for i, n in enumerate(ns):
            pool = history[:n] if held else history
            sample = resample(pool, n, stream(config.seed, 0, r), mode=config.resample_mode)
            try:
                report = estimate(
                    sample, config.alpha,
                    conservative=config.conservative,
                    clamp_nonpositive_lower=config.clamp_m,
                )
            except EstimationError:
                failures[i] += 1
                continue
            if held:
                held_out = history[n:]
                windows = []
                for e in range(E):
                    start = int(stream(config.seed, 1, r, e).integers(0, held_out.size - T + 1))
                    windows.append(held_out[start : start + T])
            else:
                windows = drawn
            if config.clamp_eval_to_bounds:
                windows = [np.clip(p, report.lower_bound, report.upper_bound) for p in windows]
            scored.append((i, r, report))
            series.extend(windows)
    rows_by_n: list[list[MetricRow]] = [[] for _ in ns]
    if not scored:
        return rows_by_n, failures
    prices = np.array(series)
    thresholds = np.repeat([report.threshold for *_, report in scored], E)
    alg = simulate_batch(instance, prices, ThresholdPolicy(thresholds)).total_cost.reshape(-1, E)
    series_id: dict[bytes, int] = {}
    which = np.array([series_id.setdefault(row.tobytes(), len(series_id)) for row in prices])
    first = np.unique(which, return_index=True)[1]
    opt = offline_costs(instance, prices[first], config.G)[which].reshape(-1, E)
    crs = competitive_ratio(alg, opt)
    for (i, r, report), alg_costs, opt_costs, round_crs in zip(scored, alg, opt, crs):
        round_cr = float(round_crs.max() if config.verdict == "any" else round_crs.mean())
        bound = report.ratio_bound
        rows_by_n[i].append(MetricRow(
            round=r,
            n=ns[i],
            policy_id="threshold",
            alg_cost=float(alg_costs.mean()),
            opt_cost=float(opt_costs.mean()),
            cr=round_cr,
            cr_bound=bound,
            violated=bool(round_cr > bound),
            regret=float((alg_costs - opt_costs).mean()),
            theta_hat=report.threshold,
            seed=config.seed,
        ))
    return rows_by_n, failures
