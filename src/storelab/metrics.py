"""Hindsight oracles, competitive ratio, regret, and bound-violation rounds.

The offline oracle reuses the DP machinery with the realized price as a
single atom per slot, so its cost is exact whenever demands, capacity, and
the initial fill are multiples of the grid step.  The brute-force oracle
enumerates purchase lattices on tiny instances and exists only to validate
the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig
from .estimation import EstimationError, estimate
from .model import Instance, Trajectory, feasible_purchase_range, simulate
from .policies import Policy, ThresholdPolicy, argmin_purchase, backward_step, storage_grid
from .prices import resample
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


class _HindsightGreedy(Policy):
    """Greedy forward pass against per-slot value tables built from known prices."""

    policy_id = "offline"

    def __init__(self, grid: np.ndarray, values: np.ndarray) -> None:
        self.grid = grid
        self.values = values

    def decide(self, t, level, price, instance):
        return argmin_purchase(
            self.grid, self.values[t + 1], instance.storage, level,
            float(instance.demand[t]), price,
        )


def offline_optimal(instance: Instance, prices, grid_size: int = 100) -> Trajectory:
    """Hindsight-optimal trajectory by deterministic backward DP on a grid."""
    prices = np.asarray(prices, dtype=float)
    T = instance.horizon
    if prices.size < T:
        raise ValueError(f"need at least {T} prices, got {prices.size}")
    spec = instance.storage
    grid = storage_grid(spec.capacity, grid_size)
    values = np.zeros((T + 1, grid.size))
    one = np.ones(1)
    for t in range(T - 1, -1, -1):
        values[t] = backward_step(
            grid, values[t + 1], float(instance.demand[t]), spec,
            np.asarray([float(prices[t])]), one,
        )
    return simulate(instance, prices, _HindsightGreedy(grid, values))


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


def _violation_round(
    config: ExperimentConfig, instance: Instance, eval_model, history: np.ndarray,
    n: int, round_idx: int, oracle_costs: dict[bytes, float],
) -> MetricRow:
    """Estimate from one size-n sample, then score its threshold policy.

    The config's ``eval_episodes`` evaluation series come from the
    evaluation model, or with ``eval_source=held-out`` from windows of the
    history after its first n records, which form the estimation pool.
    Oracle costs are looked up in ``oracle_costs`` by the exact price
    bytes and added on a miss, so a series the round already scored at
    another n is not scored again.
    """
    held_out = history[n:] if config.eval_source == "held-out" else None
    pool = history if held_out is None else history[:n]
    sample = resample(pool, n, stream(config.seed, 0, round_idx), mode=config.resample_mode)
    report = estimate(
        sample, config.alpha,
        conservative=config.conservative,
        clamp_nonpositive_lower=config.clamp_m,
    )
    policy = ThresholdPolicy(report.threshold)
    bound = report.ratio_bound
    T = instance.horizon
    alg_costs = np.empty(config.eval_episodes)
    opt_costs = np.empty(config.eval_episodes)
    crs = np.empty(config.eval_episodes)
    for e in range(config.eval_episodes):
        rng = stream(config.seed, 1, round_idx, e)
        if held_out is not None:
            start = int(rng.integers(0, held_out.size - T + 1))
            prices = held_out[start : start + T]
        else:
            prices = eval_model.draw(rng, T)
        if config.clamp_eval_to_bounds:
            prices = np.clip(prices, report.lower_bound, report.upper_bound)
        alg = simulate(instance, prices, policy).total_cost
        key = prices.tobytes()
        opt = oracle_costs.get(key)
        if opt is None:
            opt = oracle_costs[key] = offline_optimal(instance, prices, config.G).total_cost
        alg_costs[e] = alg
        opt_costs[e] = opt
        crs[e] = competitive_ratio(alg, opt)
    round_cr = float(crs.max() if config.verdict == "any" else crs.mean())
    return MetricRow(
        round=round_idx,
        n=n,
        policy_id="threshold",
        alg_cost=float(alg_costs.mean()),
        opt_cost=float(opt_costs.mean()),
        cr=round_cr,
        cr_bound=bound,
        violated=bool(round_cr > bound),
        regret=float((alg_costs - opt_costs).mean()),
        theta_hat=report.threshold,
        seed=config.seed,
    )


def violation_rounds(
    config: ExperimentConfig, instance: Instance, eval_model, history: np.ndarray,
    ns, round_indices,
) -> tuple[list[list[MetricRow]], list[int]]:
    """Run a batch of violation rounds at every sample size in ``ns``.

    Returns the rows and the failure count of each n, in the order of
    ``ns``.  Each round is seeded by its own index, so any partition of the
    round indices across workers reproduces the same rows.  Inside a round
    the n grid shares one oracle cache: model-drawn, unclamped evaluation
    series do not depend on n, so each is scored once per round.  Rounds
    whose estimation fails are counted, not dropped.
    """
    rows: list[list[MetricRow]] = [[] for _ in ns]
    failures = [0] * len(ns)
    for r in round_indices:
        oracle_costs: dict[bytes, float] = {}
        for i, n in enumerate(ns):
            try:
                rows[i].append(
                    _violation_round(config, instance, eval_model, history, n, r, oracle_costs)
                )
            except EstimationError:
                failures[i] += 1
    return rows, failures
