"""Experiment runners: estimation, violation curves, policy comparison,
adaptive convergence, and assumption relaxations.

Every Monte Carlo unit derives its RNG stream from (master seed, fixed
index path), so runs are reproducible and byte-identical for any worker
count; output rows are canonically ordered before writing.

Fan-out: a runner splits each index range (rounds or episodes) into
contiguous chunks, at least one per worker, and more where what one
chunk holds, ``CHUNK_ARRAYS`` arrays per price series, would not fit
``policies.SWEEP_BYTES`` (through ``sweep_blocks``).  Every chunk runs one
module-level function with the frozen config and the objects the runner
built once bound by ``functools.partial``; results are merged in chunk
order.  A violation curve is one fan-out over rounds that covers every n
of the grid, and an adaptive sweep one fan-out over rounds that covers
every warmup x refresh grid point, so one pool serves each run, and none
at one worker.

A chunk is one batch: its episodes are scored as one (E, T) price array,
with one ``simulate_batch`` per policy and one ``offline_costs`` call.
A policy comparison (policy-compare, or one relax scenario) keeps the
costs as arrays and takes all its ratios with one element-wise
``competitive_ratio`` call; only policy-compare builds per-episode
``MetricRow`` records, to write them.  An adaptive chunk steps every
(warmup, round, episode) of its rounds as rows of one adaptive policy per
block, with one ``simulate_batch`` call per refresh stride: each row
re-estimates from its own warmup and observed prices, one family call per
refresh slot rebuilds every row of the block (one stacked DP value
table), and the block's base policy, one table row per distinct warmup,
is built once for every refresh stride.  A block is whole (warmup, round)
groups, as many as ``sweep_blocks`` fits by their refresh tables; a group
too big for that is a block alone.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    ExperimentConfig,
    build_instance,
    build_model,
    load_history,
    scenario_models,
)
from .estimation import (
    EstimateReport,
    RECORD_FIELDS,
    estimate,
    model_bounds,
    threshold_price,
)
from .metrics import (
    MetricRow,
    ViolationReport,
    _write_csv,
    competitive_ratio,
    offline_costs,
    offline_optimal,  # noqa: F401  (a name bench/tracer.py wraps)
    regret,
    violation_rounds,
    write_metric_rows,
)
from .model import Instance, simulate_batch
from .model import simulate  # noqa: F401  (a name bench/tracer.py wraps)
from .policies import (
    AdaptivePolicy,
    DpFamily,
    DpPolicy,
    ThresholdFamily,
    ThresholdPolicy,
    breakpoint_lattice,
    build_value_table,
    linear_budget,
    sweep_blocks,
)
from .prices import generate
from .seeds import stream

VIOLATION_HEADER = "n,p_hat,stderr,violations,failures,rounds"
SUMMARY_HEADER = "policy_id,mean_cost,regret,regret_stderr,cr_p50,cr_p95,cr_max"
RELAX_HEADER = "scenario," + SUMMARY_HEADER
ADAPTIVE_HEADER = (
    "warmup,refresh,mean_cost,regret_vs_dp,stderr_vs_dp,"
    "regret_vs_offline,stderr_vs_offline"
)


# (T,) float arrays a chunk holds per price series: the series, the rows it
# is stacked from, and simulate_batch's price copy, purchases and levels
CHUNK_ARRAYS = 5


def _map_chunks(
    fn, count: int, workers: int, horizon: int, series: int, demand_rows: int = 0
) -> list:
    """fn(chunk) for contiguous chunks of range(count), in order.

    A unit of the range holds ``series`` price series of ``horizon`` floats,
    each ``CHUNK_ARRAYS`` arrays of that size, and ``demand_rows`` realized
    demand rows.  There are at least ``workers`` chunks, and more where
    ``sweep_blocks`` needs them for what one chunk holds to fit
    ``SWEEP_BYTES``.  With one worker, or one chunk, every chunk runs in
    this process; otherwise all of them go through one pool of up to
    ``workers`` processes.
    """
    width = series * CHUNK_ARRAYS + demand_rows
    parts = max(len(sweep_blocks(count, horizon, width, 0)), min(workers, count))
    bounds = np.linspace(0, count, parts + 1).astype(int).tolist()
    chunks = [range(start, stop) for start, stop in zip(bounds[:-1], bounds[1:])]
    if workers <= 1 or len(chunks) <= 1:
        return [fn(chunk) for chunk in chunks]
    with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
        return list(pool.map(fn, chunks))


# ---------------------------------------------------------------------------
# estimate


def run_estimate(config: ExperimentConfig, workers: int = 1) -> EstimateReport:
    """Single-shot estimation from a history file or a synthesized history."""
    history = load_history(config)
    report = estimate(
        history,
        config.alpha,
        conservative=config.conservative,
        clamp_nonpositive_lower=config.clamp_m,
    )
    record = report.to_record()
    _write_csv(config.out, ",".join(RECORD_FIELDS), [tuple(record[k] for k in RECORD_FIELDS)])
    print(f"theta_hat={report.threshold!r} cr_bound={report.ratio_bound!r}")
    return report


# ---------------------------------------------------------------------------
# violation curve


def _violation_reports(
    config: ExperimentConfig, history, ns, workers: int
) -> list[ViolationReport]:
    """One ViolationReport per sample size in ``ns``, in that order.

    The checks run once for the whole grid, before any round; the rounds
    are then fanned out once, and each chunk covers every n.
    """
    if min(ns) < 2:
        raise ValueError(f"sample size must be >= 2, got {min(ns)}")
    history = np.asarray(history, dtype=float)
    instance = build_instance(config)
    largest = max(ns)
    if config.eval_source == "held-out" and history.size - largest < instance.horizon:
        raise ConfigError(
            "history",
            f"held-out history too short: {history.size - largest} < horizon {instance.horizon}",
        )
    if config.resample_mode != "with-replacement" and largest > history.size:
        raise ConfigError(
            "history",
            f"n={largest} exceeds history length {history.size} "
            f"for mode {config.resample_mode!r}",
        )
    chunk = partial(violation_rounds, config, instance, build_model(config), history, tuple(ns))
    parts = _map_chunks(chunk, config.rounds, workers, config.T, len(ns) * config.eval_episodes)
    reports = []
    for i, n in enumerate(ns):
        rows = tuple(row for part_rows, _ in parts for row in part_rows[i])
        violations = sum(int(r.violated) for r in rows)
        p_hat = violations / config.rounds
        reports.append(ViolationReport(
            n=n, rounds=config.rounds, violations=violations,
            failures=sum(part_failures[i] for _, part_failures in parts),
            p_hat=p_hat, stderr=math.sqrt(p_hat * (1.0 - p_hat) / config.rounds),
            rows=rows,
        ))
    return reports


def bound_violation_probability(
    config: ExperimentConfig, history, n: int, workers: int = 1
) -> ViolationReport:
    """Frequency of rounds whose competitive ratio exceeds its estimated bound.

    Each of the config's ``rounds`` draws a size-n sample from the history,
    estimates the threshold and the ratio bound, runs the threshold policy
    on fresh evaluation series (never on the estimation sample), and
    compares the round's competitive ratio (mean over episodes, or the
    worst episode) against the bound.  Rounds whose estimation fails are
    counted in ``failures``, not dropped.  This is the violation curve's
    body for the one-point grid ``(n,)``.
    """
    return _violation_reports(config, history, (n,), workers)[0]


def run_violation_curve(config: ExperimentConfig, workers: int = 1) -> list[ViolationReport]:
    """Bound-violation probability for every sample size in the n grid."""
    reports = _violation_reports(config, load_history(config), sorted(config.n_grid), workers)
    _write_csv(
        config.out,
        VIOLATION_HEADER,
        [(r.n, r.p_hat, r.stderr, r.violations, r.failures, r.rounds) for r in reports],
    )
    return reports


# ---------------------------------------------------------------------------
# policy comparison (also the engine behind the relaxation scenarios)


@dataclass(frozen=True)
class PolicySummary:
    scenario: str
    policy_id: str
    mean_cost: float
    regret: float
    regret_stderr: float
    cr_p50: float
    cr_p95: float
    cr_max: float


def _true_parameter_policies(config: ExperimentConfig, instance: Instance, policy_model):
    """Threshold, budgeted-threshold, and DP policies from true model parameters."""
    upper, lower = model_bounds(policy_model, config.clamp_m)
    theta = threshold_price(upper, lower)
    return (
        ThresholdPolicy(theta),
        ThresholdPolicy(
            theta, fill_target=linear_budget(theta, upper, lower, instance.storage.capacity),
            policy_id="budgeted",
        ),
        DpPolicy(build_value_table(instance, policy_model, config.K)),
    )


def _compare_chunk(
    config: ExperimentConfig, instance: Instance, eval_model, policies, eta: float,
    episodes: range,
) -> tuple[np.ndarray, np.ndarray]:
    """Oracle costs (E,) and the policies' costs (len(policies), E) of ``episodes``."""
    T = instance.horizon
    prices = np.array([generate(eval_model, T, stream(config.seed, 1, e)) for e in episodes])
    realized = None
    if eta > 0.0:
        realized = np.array([
            instance.demand * (1.0 + stream(config.seed, 2, e).uniform(-eta, eta, T))
            for e in episodes
        ])
    opt_costs = offline_costs(instance, prices, config.G, realized_demand=realized)
    alg_costs = np.array([
        simulate_batch(instance, prices, policy, realized_demand=realized).total_cost
        for policy in policies
    ])
    return opt_costs, alg_costs


def _quantiles(values, qs) -> list[float]:
    """``float(np.quantile(values, q))`` for each q, bit for bit.

    numpy's default linear rule: the virtual index v = (n-1)·q falls
    between the order statistics a and b at i = floor(v) and i + 1, and
    g = v - i interpolates them from the nearer end, as numpy's ``_lerp``
    does.  At or past the last index numpy reads the last value for both,
    with i = -1.  Each q partitions a copy of the values at numpy's own
    indices, so even the sign of a zero comes out as numpy's; a NaN
    partitions last and is the result.  ``np.quantile`` itself imports
    ``numpy.ma`` on first use.
    """
    x = np.asarray(values, dtype=float)
    last = x.size - 1
    out = []
    for q in qs:
        v = last * q
        i = -1 if v >= last else math.floor(v)
        j = -1 if i == -1 else i + 1
        part = np.partition(x, sorted({0, -1, i, j})).tolist()
        if math.isnan(part[-1]):
            out.append(part[-1])
            continue
        a, b, g = part[i], part[j], v - i
        diff = b - a
        out.append(b - diff * (1.0 - g) if g >= 0.5 else a + diff * g)
    return out


def _compare_core(
    config: ExperimentConfig,
    eval_model,
    policy_model,
    eta: float,
    scenario: str,
    workers: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[PolicySummary]]:
    """Oracle costs (E,), policy costs and ratios (3, E), and one summary per policy.

    The true-parameter policies, a DP value table among them, are built
    once here and bound to every chunk.
    """
    instance = build_instance(config)
    policies = _true_parameter_policies(config, instance, policy_model)
    chunk = partial(_compare_chunk, config, instance, eval_model, policies, eta)
    parts = _map_chunks(chunk, config.episodes, workers, config.T, 1, int(eta > 0.0))
    opt = np.concatenate([opt for opt, _ in parts])
    alg = np.concatenate([alg for _, alg in parts], axis=1)
    crs = competitive_ratio(alg, opt)
    summaries = []
    for policy, alg_k, crs_k in zip(policies, alg, crs):
        reg = regret(alg_k, opt)
        cr_p50, cr_p95 = _quantiles(crs_k, (0.50, 0.95))
        summaries.append(
            PolicySummary(
                scenario=scenario, policy_id=policy.policy_id,
                mean_cost=float(alg_k.mean()), regret=reg.mean,
                regret_stderr=reg.stderr,
                cr_p50=cr_p50, cr_p95=cr_p95,
                cr_max=float(crs_k.max()),
            )
        )
    return opt, alg, crs, summaries


def run_policy_compare(
    config: ExperimentConfig, workers: int = 1
) -> tuple[list[MetricRow], list[PolicySummary]]:
    """Threshold, budgeted-threshold, and DP policies against the hindsight oracle."""
    model = build_model(config)
    opt, alg, crs, summaries = _compare_core(config, model, model, 0.0, "baseline", workers)
    upper, lower = model_bounds(model, config.clamp_m)
    theta, bound = threshold_price(upper, lower), math.sqrt(upper / lower)
    rows = [
        MetricRow(
            round=e, n=0, policy_id=summary.policy_id, alg_cost=a, opt_cost=o, cr=cr,
            cr_bound=bound, violated=cr > bound, regret=a - o, theta_hat=theta, seed=config.seed,
        )
        for summary, alg_k, crs_k in zip(summaries, alg.tolist(), crs.tolist())
        for e, (a, o, cr) in enumerate(zip(alg_k, opt.tolist(), crs_k))
    ]
    rows.sort(key=lambda r: (r.round, r.policy_id))
    write_metric_rows(config.out, rows)
    _write_csv(
        summary_path(config.out),
        SUMMARY_HEADER,
        [
            (s.policy_id, s.mean_cost, s.regret, s.regret_stderr,
             s.cr_p50, s.cr_p95, s.cr_max)
            for s in summaries
        ],
    )
    return rows, summaries


def summary_path(out) -> Path:
    out = Path(out)
    return out.with_name(out.stem + ".summary.csv")


# ---------------------------------------------------------------------------
# adaptive convergence


@dataclass(frozen=True)
class AdaptiveRow:
    warmup: int
    refresh: float  # slots between re-estimations; inf means never refresh
    mean_cost: float
    regret_vs_dp: float
    stderr_vs_dp: float
    regret_vs_offline: float
    stderr_vs_offline: float


def _adaptive_chunk(
    config: ExperimentConfig, instance: Instance, model, true_policy: DpPolicy, rounds: range,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """True-parameter DP, oracle and per-grid-point adaptive costs of ``rounds``.

    Each (round, episode) stream and each (warmup, round) warmup is drawn
    once.  The adaptive rows are every (warmup, round, episode) of the
    chunk, in that order, in blocks of whole (warmup, round) groups cut by
    ``sweep_blocks``: a group's refresh table holds (T+1) x W floats per
    episode, W the instance's ``breakpoint_lattice``.  A block draws its
    groups' warmups when it runs, and one adaptive policy per block
    estimates each of them once, builds its base policy once, and steps
    every row of the block in one ``simulate_batch`` per refresh stride.
    Costs are in (round, episode) order; the adaptive ones come one array
    per warmup x refresh grid point, warmups sorted, refreshes in config
    order.
    """
    T = instance.horizon
    E = config.episodes
    flat = np.array([generate(model, T, stream(config.seed, 4, r, e))
                     for r in rounds for e in range(E)])
    true_costs = simulate_batch(instance, flat, true_policy).total_cost
    oracle_costs = offline_costs(instance, flat, config.G)
    if config.family == "dp":
        family = DpFamily(instance, config.K)
    else:
        family = ThresholdFamily()
    strides = [None if math.isinf(refresh) else int(refresh) for refresh in config.refresh_grid]
    warmup_sizes = sorted(config.warmup_grid)
    groups = len(warmup_sizes) * len(rounds)  # group g is warmup g // len(rounds)
    costs = np.empty((len(strides), groups * E))
    width = breakpoint_lattice(instance.storage.capacity, instance.demand).size
    for first, stop in sweep_blocks(groups, T + 1, width * E, 0):
        warmups = [
            generate(model, warmup_sizes[g // len(rounds)],
                     stream(config.seed, 3, g // len(rounds), rounds[g % len(rounds)]))
            for g in range(first, stop)
        ]
        policy = AdaptivePolicy(
            family, warmups, np.repeat(np.arange(stop - first), E), alpha=config.alpha,
            conservative=config.conservative, clamp_nonpositive_lower=config.clamp_m,
        )
        rows = np.arange(first * E, stop * E)
        prices = flat[rows % len(flat)]
        for si, stride in enumerate(strides):
            policy.refresh_stride = stride
            costs[si, rows] = simulate_batch(instance, prices, policy).total_cost
    adaptive_costs = list(costs.reshape(len(strides), len(warmup_sizes), -1).swapaxes(0, 1)
                          .reshape(-1, len(flat)))
    return true_costs, oracle_costs, adaptive_costs


def run_adaptive_convergence(
    config: ExperimentConfig, workers: int = 1
) -> list[AdaptiveRow]:
    """Adaptive-policy regret against the true-parameter DP and the oracle.

    Sweeps warmup sizes and refresh strides; episodes share price streams
    across all grid points and against the true-parameter arm, so regrets
    are paired comparisons.  The streams do not depend on the grid point,
    so one fan-out over rounds draws each stream once, scores it once with
    the true-parameter DP and the oracle, and runs every grid point's
    adaptive policy on it.
    """
    instance = build_instance(config)
    model = build_model(config)
    true_policy = DpPolicy(build_value_table(instance, model, config.K))
    chunk = partial(_adaptive_chunk, config, instance, model, true_policy)
    parts = _map_chunks(chunk, config.rounds, workers, config.T, config.episodes)
    true_costs = np.concatenate([p[0] for p in parts])
    oracle_costs = np.concatenate([p[1] for p in parts])
    grid = [(w, refresh) for w in sorted(config.warmup_grid) for refresh in config.refresh_grid]
    rows = []
    for k, (warmup, refresh) in enumerate(grid):
        adaptive_costs = np.concatenate([p[2][k] for p in parts])
        vs_dp = regret(adaptive_costs, true_costs)
        vs_off = regret(adaptive_costs, oracle_costs)
        rows.append(
            AdaptiveRow(
                warmup=warmup, refresh=refresh,
                mean_cost=float(adaptive_costs.mean()),
                regret_vs_dp=vs_dp.mean, stderr_vs_dp=vs_dp.stderr,
                regret_vs_offline=vs_off.mean, stderr_vs_offline=vs_off.stderr,
            )
        )
    _write_csv(
        config.out,
        ADAPTIVE_HEADER,
        [
            (r.warmup, r.refresh, r.mean_cost, r.regret_vs_dp, r.stderr_vs_dp,
             r.regret_vs_offline, r.stderr_vs_offline)
            for r in rows
        ],
    )
    return rows


# ---------------------------------------------------------------------------
# relaxations


def run_relaxation(config: ExperimentConfig, workers: int = 1) -> list[PolicySummary]:
    """Re-run the policy comparison under relaxed assumptions.

    Scenarios: serially correlated prices (ar1), a skewed price law while
    policies assume the normal one (lognormal), and multiplicative demand
    noise revealed at decision time (demand-noise).  Episode price streams
    are shared across scenarios.  Returns three summaries per scenario, in
    scenario order; no per-episode record is built.
    """
    summaries: list[PolicySummary] = []
    for scenario in config.scenarios:
        eval_model, policy_model, eta = scenario_models(config, scenario)
        summaries.extend(_compare_core(config, eval_model, policy_model, eta, scenario, workers)[3])
    _write_csv(
        config.out,
        RELAX_HEADER,
        [
            (s.scenario, s.policy_id, s.mean_cost, s.regret, s.regret_stderr,
             s.cr_p50, s.cr_p95, s.cr_max)
            for s in summaries
        ],
    )
    return summaries
