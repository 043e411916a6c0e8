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
built once bound by ``functools.partial``.  A fan-out is a fork-join: the
calling process runs one share of the chunks itself and starts one worker
process per other share, which receives that function and its share once,
as process arguments, so the history and the policies are not sent per
chunk.  Results are merged in chunk order.  A violation curve is one
fan-out over rounds that covers every n of the grid, an adaptive sweep one
fan-out over rounds that covers every warmup x refresh grid point, and a
policy comparison one fan-out over episodes that covers every scenario
(relax runs its scenarios as one comparison, policy-compare is the
one-scenario case), so a run starts at most workers - 1 processes, and
none at one worker.

A chunk is one batch.  A violation chunk estimates in blocks of
``BLOCK_FLOATS // max(n)`` rounds, so its bootstrap index array and each
(rounds, n) sample hold at most ``BLOCK_FLOATS`` values: a block draws
each round's bootstrap indices once, at the largest n, and slices the
smaller samples from them, and each n's samples are one ``estimate_rows``
call.  It then scores every estimated (round, n) pair together, with one
threshold batch and one oracle batch over the distinct series, and
returns each n's per-round threshold, ratio bound and ratio as arrays.

A comparison chunk draws each distinct price model's series once, stacks
the rows of all scenarios, and runs each true-parameter policy over them
in one ``simulate_batch``, with one ``offline_costs`` call per scenario;
the policies are built once per run, one row per distinct policy model
(one stacked DP value table).  A comparison keeps the costs as arrays
and takes each scenario's ratios with one element-wise
``competitive_ratio`` call; policy-compare writes its per-episode rows
straight from those arrays.

An adaptive chunk steps every (warmup, round, episode) of its rounds as
rows of one adaptive policy per block, with one ``simulate_batch`` call
per refresh stride: each row re-estimates from its own warmup and
observed prices, one family call per refresh slot rebuilds every row of
the block (one stacked DP value table), and the block's base policy, one
table row per distinct warmup, is built once for every refresh stride.  A
block is whole (warmup, round) groups, as many as ``sweep_blocks`` fits by
their refresh tables; a group too big for that is a block alone.
"""

from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor  # noqa: F401  (a name bench/tracer.py wraps)
from dataclasses import dataclass, field
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
    estimate_rows,
    model_bounds,
    threshold_price,
)
from .metrics import (
    _write_csv,
    competitive_ratio,
    offline_costs,
    offline_optimal,  # noqa: F401  (a name bench/tracer.py wraps)
    regret,
)
from .model import Instance, simulate_batch
from .model import simulate  # noqa: F401  (a name bench/tracer.py wraps)
from .policies import (
    AdaptivePolicy,
    DpFamily,
    DpPolicy,
    ThresholdFamily,
    ThresholdPolicy,
    ValueTable,
    breakpoint_lattice,
    build_value_table,
    build_value_tables,
    linear_budget,
    sweep_blocks,
)
from .prices import _resample, as_series, generate
from .seeds import stream

METRIC_HEADER = "round,n,policy_id,alg_cost,opt_cost,cr,cr_bound,violated,regret,theta_hat,seed"
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
    this process.  Otherwise the chunks are dealt round-robin into
    min(workers, chunks) shares, share i being ``chunks[i::shares]``: this
    process runs share 0 while one worker process per other share, started
    with ``fn`` and its share as process arguments, runs that share and
    sends its results back over a pipe.  A share stops at its first failing
    chunk, and the error raised is the first failing chunk's in chunk
    order, as at one worker.
    """
    width = series * CHUNK_ARRAYS + demand_rows
    parts = max(len(sweep_blocks(count, horizon * width)), min(workers, count))
    bounds = np.linspace(0, count, parts + 1).astype(int).tolist()
    chunks = [range(start, stop) for start, stop in zip(bounds[:-1], bounds[1:])]
    shares = min(workers, len(chunks))
    if shares <= 1:
        return [fn(chunk) for chunk in chunks]
    procs, pipes = [], []
    try:
        for i in range(1, shares):
            receiver, sender = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(
                target=_send_share, args=(fn, chunks[i::shares], sender), daemon=True
            )
            proc.start()
            sender.close()  # so a worker that dies leaves its pipe at EOF
            procs.append(proc)
            pipes.append(receiver)
        replies = [_run_share(fn, chunks[0::shares])]
        for proc, receiver in zip(procs, pipes):
            try:
                replies.append(receiver.recv())
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"a fan-out worker exited with code {proc.exitcode} before sending its results"
                ) from None
        # share i stops at its chunk len(results), chunk len(results) * shares + i of all
        failures = [
            (len(results) * shares + i, error)
            for i, (results, error) in enumerate(replies) if error is not None
        ]
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc, receiver in zip(procs, pipes):
            proc.join()
            receiver.close()
    return [replies[k % shares][0][k // shares] for k in range(len(chunks))]


def _run_share(fn, share: list) -> tuple[list, Exception | None]:
    """fn over a share's chunks in order, up to the first that raises: the results, and its error."""
    results = []
    for chunk in share:
        try:
            results.append(fn(chunk))
        except Exception as error:
            return results, error
    return results, None


def _send_share(fn, share: list, sender) -> None:
    """A fan-out worker process: run its share and send back what ``_run_share`` returns."""
    sender.send(_run_share(fn, share))


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


# floats in each (rounds, n) sample array a violation chunk builds for one
# ``estimate_rows`` call: a block of max(1, BLOCK_FLOATS // max(ns)) rounds
BLOCK_FLOATS = 1 << 15


@dataclass(frozen=True, eq=False)
class ViolationReport:
    """Bound-violation frequency for one sample size, and its rounds.

    ``theta_hat``, ``cr_bound`` and ``cr`` are read-only (rounds,) arrays:
    each round's estimated threshold, ratio bound and competitive ratio,
    NaN at the rounds whose estimate failed.  A round violates its bound
    when ``cr > cr_bound``.
    """

    n: int
    rounds: int
    violations: int
    failures: int
    p_hat: float
    stderr: float
    theta_hat: np.ndarray = field(repr=False)
    cr_bound: np.ndarray = field(repr=False)
    cr: np.ndarray = field(repr=False)


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
                    _resample(pool, n, stream(config.seed, 0, r), mode=mode) for r in rounds[block]
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
) -> tuple[np.ndarray, list[int]]:
    """Run a batch of violation rounds at every sample size in ``ns``.

    Returns a (3, len(ns), R) array, each n's threshold, ratio bound and
    competitive ratio per round, NaN at the rounds whose estimate failed,
    and the failure count of each n, in the order of ``ns``.  Each round
    is seeded by its own index, so any partition of the round indices
    across workers reproduces the same values.  ``history`` is indexed as
    given: the caller validates it, as ``as_series`` does.

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
    rounds = list(round_indices)
    values, failed = _estimate_rounds(config, history, ns, rounds)
    failures = failed.sum(axis=1).tolist()
    out = np.full((3, len(ns), len(rounds)), np.nan)
    at, which = np.nonzero(~failed.T)  # the scored (round, n) pairs, round-major
    if not at.size:
        return out, failures
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
    out[:, which, at] = theta, bound, round_crs
    return out, failures


def _violation_reports(
    config: ExperimentConfig, history, ns, workers: int
) -> list[ViolationReport]:
    """One ViolationReport per sample size in ``ns``, in that order.

    The checks run once for the whole grid, before any round, and the
    history is validated once, with ``as_series``; the rounds are then
    fanned out once, and each chunk covers every n.
    """
    if min(ns) < 2:
        raise ValueError(f"sample size must be >= 2, got {min(ns)}")
    history = np.asarray(history, dtype=float)
    if history.size == 0:
        verb = "bootstrap" if config.resample_mode == "with-replacement" else "sample"
        raise ConfigError("history", f"cannot {verb} an empty history")
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
    history = as_series(history, "history")  # once per run; every chunk indexes it as given
    chunk = partial(violation_rounds, config, instance, build_model(config), history, tuple(ns))
    parts = _map_chunks(chunk, config.rounds, workers, config.T, len(ns) * config.eval_episodes)
    values = np.concatenate([part for part, _ in parts], axis=-1)
    values.flags.writeable = False
    reports = []
    for i, n in enumerate(ns):
        theta_hat, cr_bound, cr = values[:, i]
        violations = int(np.count_nonzero(cr > cr_bound))
        p_hat = violations / config.rounds
        reports.append(ViolationReport(
            n=n, rounds=config.rounds, violations=violations,
            failures=sum(part_failures[i] for _, part_failures in parts),
            p_hat=p_hat, stderr=math.sqrt(p_hat * (1.0 - p_hat) / config.rounds),
            theta_hat=theta_hat, cr_bound=cr_bound, cr=cr,
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


@dataclass(frozen=True, eq=False)
class _TruePolicies:
    """Threshold, budgeted-threshold and DP policies from true model parameters.

    One row per distinct policy model: its threshold, its budgeted fill
    target and its row of one stacked DP value table.  ``serve(rows)``
    gives the three policies for a batch whose row e acts on model
    ``rows[e]``.
    """

    thresholds: np.ndarray
    fill_targets: np.ndarray
    table: ValueTable

    @classmethod
    def build(cls, config: ExperimentConfig, instance: Instance, models) -> _TruePolicies:
        bounds = [model_bounds(model, config.clamp_m) for model in models]
        thresholds = [threshold_price(upper, lower) for upper, lower in bounds]
        capacity = instance.storage.capacity
        fill_targets = [
            linear_budget(theta, upper, lower, capacity)
            for theta, (upper, lower) in zip(thresholds, bounds)
        ]
        return cls(np.array(thresholds), np.array(fill_targets),
                   build_value_tables(instance, models, config.K))

    def serve(self, rows: np.ndarray) -> tuple[ThresholdPolicy, ThresholdPolicy, DpPolicy]:
        theta = self.thresholds[rows]
        return (
            ThresholdPolicy(theta),
            ThresholdPolicy(theta, fill_target=self.fill_targets[rows], policy_id="budgeted"),
            DpPolicy(self.table, rows),
        )


def _distinct(items) -> tuple[list, list[int]]:
    """The distinct items, compared by ``==``, in first-seen order, and each item's index among them."""
    unique, index = [], []
    for item in items:
        if item not in unique:
            unique.append(item)
        index.append(unique.index(item))
    return unique, index


def _compare_chunk(
    config: ExperimentConfig, instance: Instance, eval_models, etas, policies: _TruePolicies,
    model_rows, episodes: range,
) -> tuple[np.ndarray, np.ndarray]:
    """Oracle costs (S, E) and the three policies' costs (3, S, E) of ``episodes``.

    Scenario s draws its prices from ``eval_models[s]``, with demand noise
    at level ``etas[s]``, and its policies act on policy model
    ``model_rows[s]``.  Each distinct price model's series are drawn once,
    each from its episode's one generator restored to its starting state,
    and the realized demand once per distinct eta > 0; the rows of all
    scenarios are stacked scenario-major, the noise-free ones carrying the
    nominal demand, and each policy runs over all of them in one
    ``simulate_batch``.  The oracle runs once per scenario.
    """
    T, E = instance.horizon, len(episodes)
    models, drawn_rows = _distinct(eval_models)
    rngs = [stream(config.seed, 1, e) for e in episodes]
    starts = [rng.bit_generator.state for rng in rngs]
    drawn = []
    for model in models:
        for rng, start in zip(rngs, starts):
            rng.bit_generator.state = start
        drawn.append(np.array([generate(model, T, rng) for rng in rngs]))
    noise = {
        eta: np.array([
            instance.demand * (1.0 + stream(config.seed, 2, e).uniform(-eta, eta, T))
            for e in episodes
        ])
        for eta in dict.fromkeys(etas) if eta > 0.0
    }
    prices = np.concatenate([drawn[i] for i in drawn_rows])
    realized = None
    if noise:
        nominal = np.broadcast_to(instance.demand, (E, T))
        realized = np.concatenate([noise.get(eta, nominal) for eta in etas])
    opt_costs = np.array([
        offline_costs(instance, prices[s * E:(s + 1) * E], config.G,
                      realized_demand=noise.get(eta))
        for s, eta in enumerate(etas)
    ])
    alg_costs = np.array([
        simulate_batch(instance, prices, policy, realized_demand=realized).total_cost
        for policy in policies.serve(np.repeat(model_rows, E))
    ])
    return opt_costs, alg_costs.reshape(-1, len(etas), E)


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
    config: ExperimentConfig, scenarios, workers: int,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, list[PolicySummary]]]:
    """Per scenario: oracle costs (E,), policy costs and ratios (3, E), and one summary per policy.

    ``scenarios`` holds (name, price model, policy model, eta) tuples.  The
    true-parameter policies are built once, one row per distinct policy
    model (a DP value table among them), and one fan-out over episodes
    scores every scenario.  The ratios are taken per scenario, in scenario
    order, so the first undefined one raised is the first scenario's.
    """
    instance = build_instance(config)
    names, eval_models, policy_models, etas = zip(*scenarios)
    models, model_rows = _distinct(policy_models)
    policies = _TruePolicies.build(config, instance, models)
    chunk = partial(_compare_chunk, config, instance, eval_models, etas, policies, model_rows)
    noisy = any(eta > 0.0 for eta in etas)
    parts = _map_chunks(
        chunk, config.episodes, workers, config.T, len(scenarios), len(scenarios) * noisy
    )
    opt = np.concatenate([opt for opt, _ in parts], axis=-1)
    alg = np.concatenate([alg for _, alg in parts], axis=-1)
    policy_ids = [policy.policy_id for policy in policies.serve(model_rows)]
    results = []
    for s, scenario in enumerate(names):
        crs = competitive_ratio(alg[:, s], opt[s])
        summaries = []
        for policy_id, alg_k, crs_k in zip(policy_ids, alg[:, s], crs):
            reg = regret(alg_k, opt[s])
            cr_p50, cr_p95 = _quantiles(crs_k, (0.50, 0.95))
            summaries.append(
                PolicySummary(
                    scenario=scenario, policy_id=policy_id,
                    mean_cost=float(alg_k.mean()), regret=reg.mean,
                    regret_stderr=reg.stderr,
                    cr_p50=cr_p50, cr_p95=cr_p95,
                    cr_max=float(crs_k.max()),
                )
            )
        results.append((opt[s], alg[:, s], crs, summaries))
    return results


def run_policy_compare(config: ExperimentConfig, workers: int = 1) -> list[PolicySummary]:
    """Threshold, budgeted-threshold, and DP policies against the hindsight oracle.

    Writes one row per (episode, policy), in (round, policy_id) order, from
    the (E,) oracle and (3, E) cost and ratio arrays, and the summaries.
    """
    model = build_model(config)
    [(opt, alg, crs, summaries)] = _compare_core(config, [("baseline", model, model, 0.0)], workers)
    upper, lower = model_bounds(model, config.clamp_m)
    theta, bound = threshold_price(upper, lower), math.sqrt(upper / lower)
    columns = zip([s.policy_id for s in summaries], alg.tolist(), crs.tolist(), (alg - opt).tolist())
    _write_csv(config.out, METRIC_HEADER, sorted(
        (e, 0, policy_id, a, o, cr, bound, int(cr > bound), reg, theta, config.seed)
        for policy_id, alg_k, crs_k, reg_k in columns
        for e, (a, o, cr, reg) in enumerate(zip(alg_k, opt.tolist(), crs_k, reg_k))
    ))
    _write_csv(
        summary_path(config.out),
        SUMMARY_HEADER,
        [
            (s.policy_id, s.mean_cost, s.regret, s.regret_stderr,
             s.cr_p50, s.cr_p95, s.cr_max)
            for s in summaries
        ],
    )
    return summaries


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
    for first, stop in sweep_blocks(groups, (T + 1) * width * E):
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
    are shared across scenarios, and all of them are one comparison: one
    fan-out over episodes.  Returns three summaries per scenario, in
    scenario order; no per-episode record is built.
    """
    scenarios = [(s, *scenario_models(config, s)) for s in config.scenarios]
    summaries = [
        summary for *_, part in _compare_core(config, scenarios, workers) for summary in part
    ]
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
