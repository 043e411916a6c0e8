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

A violation chunk is whole-array work over its rounds.  It estimates in
blocks of ``BLOCK_FLOATS // max(n)`` rounds, so its bootstrap index array
and each (rounds, n) sample hold at most ``BLOCK_FLOATS`` values: a block
draws each round's bootstrap indices once, at the largest n, and slices
the smaller samples from them, and each n's samples are one
``estimate_rows`` call.  It then scores every estimated (round, n) pair
together: one threshold batch and one oracle batch over the distinct
series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig
from .estimation import estimate  # noqa: F401  (a name bench/tracer.py wraps)
from .estimation import BLOCK_FLOATS, estimate_rows
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


def _estimate_rounds(config: ExperimentConfig, history: np.ndarray, ns, rounds: list):
    """Each (n, round)'s estimate: (4, len(ns), R) threshold, ratio bound, lower and
    upper bound, and the (len(ns), R) mask of failed estimates.

    Round r's sample of size n is what ``resample`` draws with
    ``stream(seed, 0, r)`` from the history, or with ``eval_source=held-out``
    from its first n records.  A with-replacement bootstrap of the whole
    history draws max(ns) indices once per round, and the smaller samples
    are their prefixes; every other sample is drawn by ``resample``, once
    per (round, n).  Rounds go in blocks of ``BLOCK_FLOATS // max(ns)``.
    """
    mode, held = config.resample_mode, config.eval_source == "held-out"
    shared = mode == "with-replacement" and not held
    values = np.empty((4, len(ns), len(rounds)))
    failed = np.empty((len(ns), len(rounds)), dtype=bool)
    per_block = max(1, BLOCK_FLOATS // max(ns))
    for first in range(0, len(rounds), per_block):
        block = slice(first, first + per_block)
        if shared:
            drawn = np.array([
                stream(config.seed, 0, r).integers(0, history.size, size=max(ns))
                for r in rounds[block]
            ])
        for i, n in enumerate(ns):
            if shared:
                samples = history[drawn[:, :n]]
            else:
                pool = history[:n] if held else history
                samples = np.array([
                    resample(pool, n, stream(config.seed, 0, r), mode=mode) for r in rounds[block]
                ])
            fits = estimate_rows(
                samples, config.alpha,
                conservative=config.conservative, clamp_nonpositive_lower=config.clamp_m,
            )
            values[:, i, block] = fits.threshold, fits.ratio_bound, fits.lower_bound, fits.upper_bound
            failed[i, block] = fits.failed
    return values, failed


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
    T, E = instance.horizon, config.eval_episodes
    held = config.eval_source == "held-out"
    history = as_series(history, "history")  # once per chunk; the samples index it as is
    rounds = list(round_indices)
    values, failed = _estimate_rounds(config, history, ns, rounds)
    failures = failed.sum(axis=1).tolist()
    rows_by_n: list[list[MetricRow]] = [[] for _ in ns]
    at, which = np.nonzero(~failed.T)  # the scored (round, n) pairs, round-major
    if not at.size:
        return rows_by_n, failures
    theta, bound, lower, upper = values[:, which, at]
    if held:
        prices = np.empty((at.size, E, T))
        for s, (a, i) in enumerate(zip(at.tolist(), which.tolist())):
            n = ns[i]
            for e in range(E):
                rng = stream(config.seed, 1, rounds[a], e)
                start = n + int(rng.integers(0, history.size - n - T + 1))
                prices[s, e] = history[start : start + T]
    else:
        drawn = np.array([
            [eval_model.draw(stream(config.seed, 1, r, e), T) for e in range(E)] for r in rounds
        ])
        prices = drawn[at]
    if config.clamp_eval_to_bounds:
        prices = np.clip(prices, lower[:, None, None], upper[:, None, None])
    prices = prices.reshape(-1, T)
    alg = simulate_batch(
        instance, prices, ThresholdPolicy(np.repeat(theta, E))
    ).total_cost.reshape(-1, E)
    series_id: dict[bytes, int] = {}
    ids = np.array([series_id.setdefault(row.tobytes(), len(series_id)) for row in prices])
    first = np.unique(ids, return_index=True)[1]
    opt = offline_costs(instance, prices[first], config.G)[ids].reshape(-1, E)
    crs = competitive_ratio(alg, opt)
    round_crs = crs.max(axis=1) if config.verdict == "any" else crs.mean(axis=1)
    for a, i, alg_cost, opt_cost, cr, cr_bound, reg, theta_hat in zip(
        at.tolist(), which.tolist(), alg.mean(axis=1).tolist(), opt.mean(axis=1).tolist(),
        round_crs.tolist(), bound.tolist(), (alg - opt).mean(axis=1).tolist(), theta.tolist(),
    ):
        rows_by_n[i].append(MetricRow(
            round=rounds[a],
            n=ns[i],
            policy_id="threshold",
            alg_cost=alg_cost,
            opt_cost=opt_cost,
            cr=cr,
            cr_bound=cr_bound,
            violated=cr > cr_bound,
            regret=reg,
            theta_hat=theta_hat,
            seed=config.seed,
        ))
    return rows_by_n, failures
