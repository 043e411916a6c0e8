"""Hindsight oracles, competitive ratio, regret, and bound-violation rounds.

The offline oracle is the purchase DP with each episode's realized price as
its single atom per slot, so its cost is exact whenever demands, capacity,
and the initial fill are multiples of the grid step.  ``offline_costs``
scores E episodes at once: ``policies.SlotGeometry.min_costs`` fills a
(T+1, E, G+1) value cube indexed as a ``ValueTable``'s, and
``simulate_batch``, the one simulation engine, runs the greedy rule that
reads each row's own value rows.  The geometry, the part of the slot that
no price changes, is built again only where the slot demand changes: one
shared by every row under the instance's demand, one row per series under
a realized demand.  Rows go through in the DP table's
``policies.sweep_blocks``, which bound the cube's memory; every row's
result is the same bits whatever block it lands in, and
``offline_optimal`` is the one-row case.  The brute-force oracle
enumerates purchase lattices on tiny instances and exists only to
validate the others.

A violation chunk estimates its (round, n) pairs and scores them together,
``BATCH_ROWS`` evaluation series at a time: one threshold batch and one
oracle batch over the distinct series.
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
    TrajectoryBatch,
    demand_rows,
    feasible_purchase_range,
    one_row,
    price_rows,
    simulate,  # noqa: F401  (a name bench/tracer.py wraps)
    simulate_batch,
)
from .policies import (
    ThresholdPolicy,
    argmin_purchase,  # noqa: F401  (a name bench/tracer.py wraps)
    argmin_purchases,
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


class _HindsightRule:
    """Greedy forward pass against each row's own value rows, for ``simulate_batch``."""

    policy_id = "offline"

    def __init__(self, grid: np.ndarray, values: np.ndarray, demand: np.ndarray) -> None:
        self.grid = grid
        self.values = values  # (T+1, E, G+1): values[t] is the value before slot t
        self.demand = demand  # (T,), or (E, T) per row

    def decide_batch(self, t, levels, prices, instance):
        return argmin_purchases(
            self.grid, self.values[t + 1], instance.storage, levels,
            self.demand[..., t], prices,
        )


def offline_costs(
    instance: Instance, prices, grid_size: int = 100, realized_demand=None
) -> TrajectoryBatch:
    """Hindsight-optimal trajectories of E price series by backward DP on a grid.

    ``realized_demand`` (one (E, T) row per series) replaces the instance's
    demand for the oracle.  Row e equals ``offline_optimal`` on series e
    bit for bit.  Rows go through in ``sweep_blocks``, and the sweep stops
    at slot 1, because the greedy pass reads only the value after each slot.
    """
    T = instance.horizon
    prices = price_rows(prices, T)
    E = prices.shape[0]
    per_row = realized_demand is not None
    demand = demand_rows(realized_demand, E, T) if per_row else instance.demand
    capacity = instance.storage.capacity
    grid = storage_grid(capacity, grid_size)
    blocks = sweep_blocks(E, T, grid.size)
    cube = np.zeros((T + 1, max(stop - start for start, stop in blocks), grid.size))
    parts = []
    for start, stop in blocks:
        p = prices[start:stop]
        d = demand[start:stop] if per_row else demand
        values = cube[:, : stop - start]  # row T stays zero, row 0 is never built
        for t, geometry in slot_sweep(grid, capacity, d, first_slot=1):
            values[t] = geometry.min_costs(values[t + 1], p[:, t])
        parts.append(simulate_batch(
            instance, p, _HindsightRule(grid, values, d),
            realized_demand=d if per_row else None,
        ))
    if len(parts) == 1:
        return parts[0]
    joined = {
        name: np.concatenate([getattr(part, name) for part in parts]) for name in
        ("prices", "purchases", "levels", "total_cost", "clamped")
    }
    for arr in joined.values():
        arr.flags.writeable = False
    return TrajectoryBatch(**joined)


def offline_optimal(instance: Instance, prices, grid_size: int = 100) -> Trajectory:
    """Hindsight-optimal trajectory of one price series: the one-row ``offline_costs``."""
    return one_row(offline_costs, instance, prices, grid_size)


def brute_force_optimal(instance: Instance, prices, q_step: float) -> float:
    """Exact minimum cost over purchase sequences on the q_step lattice.

    Exponential enumeration; guarded to T <= 6 and at most 12 lattice steps
    per slot.  Used solely to validate offline_optimal and DpPolicy.
    """
    prices = np.asarray(prices, dtype=float)
    T = instance.horizon
    if T > 6:
        raise ValueError(f"brute force limited to T <= 6, got {T}")
    if q_step <= 0:
        raise ValueError("q_step must be > 0")
    spec = instance.storage
    q_cap = float(np.max(instance.demand)) + spec.capacity
    if q_cap / q_step > 12 + 1e-9:
        raise ValueError(
            f"lattice too fine: q_max/q_step = {q_cap / q_step:.1f} exceeds 12"
        )

    demand = instance.demand
    memo: dict[tuple[int, float], float] = {}

    def best(t: int, level: float) -> float:
        if t == T:
            return 0.0
        key = (t, round(level, 9))
        hit = memo.get(key)
        if hit is not None:
            return hit
        q_lo, q_hi = feasible_purchase_range(spec, level, float(demand[t]))
        k_lo = math.ceil((q_lo - 1e-9) / q_step)
        k_hi = math.floor((q_hi + 1e-9) / q_step)
        out = math.inf
        for k in range(max(k_lo, 0), k_hi + 1):
            q = k * q_step
            cost = prices[t] * q + best(t + 1, level + q - float(demand[t]))
            if cost < out:
                out = cost
        memo[key] = out
        return out

    result = best(0, spec.initial_level)
    if not math.isfinite(result):
        raise ValueError("no feasible purchase sequence on the given lattice")
    return result


def competitive_ratio(alg_cost: float, opt_cost: float) -> float:
    """Online cost divided by hindsight-optimal cost on the same prices."""
    if opt_cost <= 0:
        raise ValueError(f"competitive ratio undefined for opt_cost={opt_cost}")
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


BATCH_ROWS = 1024  # episodes per runner batch: bounds (rows x (G+1)) temporaries and held series


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
    pairs are scored together, whenever their series reach ``BATCH_ROWS``
    and at the end of the chunk: one threshold batch with one threshold
    per row, and one oracle batch over the distinct series.
    """
    T = instance.horizon
    E = config.eval_episodes
    held = config.eval_source == "held-out"
    history = as_series(history, "history")  # once per chunk; resample indexes it as is
    rows_by_n: list[list[MetricRow]] = [[] for _ in ns]
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
        if len(series) >= BATCH_ROWS:
            _score_rounds(config, instance, ns, scored, series, rows_by_n)
            scored, series = [], []
    if scored:
        _score_rounds(config, instance, ns, scored, series, rows_by_n)
    return rows_by_n, failures


def _score_rounds(config, instance, ns, scored, series, rows_by_n) -> None:
    """Append one MetricRow per scored (round, n) to ``rows_by_n``."""
    E = config.eval_episodes
    prices = np.array(series)
    thresholds = np.repeat([report.threshold for *_, report in scored], E)
    alg = simulate_batch(instance, prices, ThresholdPolicy(thresholds)).total_cost
    series_id: dict[bytes, int] = {}
    which = np.array([series_id.setdefault(row.tobytes(), len(series_id)) for row in prices])
    first = np.unique(which, return_index=True)[1]
    opt = offline_costs(instance, prices[first], config.G).total_cost[which]
    for k, (i, r, report) in enumerate(scored):
        alg_costs = alg[k * E : (k + 1) * E]
        opt_costs = opt[k * E : (k + 1) * E]
        crs = np.array([
            competitive_ratio(a, o) for a, o in zip(alg_costs.tolist(), opt_costs.tolist())
        ])
        round_cr = float(crs.max() if config.verdict == "any" else crs.mean())
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
