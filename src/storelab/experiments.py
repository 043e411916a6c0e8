"""Experiment runners: estimation, violation curves, policy comparison,
adaptive convergence, and assumption relaxations.

Every Monte Carlo unit derives its RNG stream from (master seed, fixed
index path), so runs are reproducible and byte-identical for any worker
count; output rows are canonically ordered before writing.  A chunk keys
each of its stream sites' units at once (``seeds.KeyedStreams``) and
draws every unit from one re-keyed generator.

Every batched loop blocks its rows by ``policies.sweep_blocks``, the one
memory rule: the fewest equal blocks whose rows, each counted in floats,
fit ``SWEEP_BYTES``.  Fan-out: a runner splits each index range (rounds
or episodes) into contiguous chunks, at least one per worker, and more
where what one chunk holds, ``chunk_row_floats`` per unit, would not fit
that budget.  Every chunk runs one
module-level function with the frozen config and the objects the runner
built once bound by ``functools.partial``, and returns a tuple of arrays
whose last axis runs over its units.  A fan-out is a fork-join over
min(workers, chunks) contiguous shares of the chunks, at every worker
count: the calling process runs the first share itself and starts one
worker process per other share, which receives that function and its
share once, as process arguments, so the history and the policies are not
sent per chunk.  The fan-out joins each of the chunks' arrays along its
last axis, in chunk order, so a runner reads whole-range arrays.  A
violation curve is one fan-out over rounds that covers every n of the
grid, an adaptive sweep one fan-out over rounds that covers every warmup
x refresh grid point, and a policy comparison one fan-out over episodes
that covers every scenario (relax runs its scenarios as one comparison,
policy-compare is the one-scenario case), so a run starts at most
workers - 1 processes, and none at one worker.

A chunk is one batch.  A violation chunk estimates its rounds in
blocks of ``estimate_row_floats(max(n))`` floats a round, its bootstrap
indices, a sample, the sample's deviations and its statistics: a block draws
each round's bootstrap indices once, at the largest n, and slices the
smaller samples from them, and each n's samples are one ``estimate_rows``
call.  It then scores every estimated (round, n) pair together, with one
threshold batch and one oracle batch over the distinct series, and
returns each n's per-round threshold, ratio bound and ratio as arrays.

A comparison chunk draws each distinct price model's series once (an
AR(1) model as whole rows, ``prices.generate_rows``), stacks the rows of
all scenarios, and runs each true-parameter policy over them in one
``simulate_batch``, with one ``offline_costs`` call over the rows of every
noise-free scenario and one per noisy eta;
the policies are built once per run, one row per distinct policy model
(one stacked DP value table), with the thresholds and budgeted fill
targets of one ``model_bounds`` call.  A comparison keeps the costs as
arrays and takes each scenario's ratios with one element-wise
``competitive_ratio`` call; policy-compare writes its per-episode rows
straight from those arrays, with the threshold and ratio bound of its
model's ``model_bounds`` row.  The estimate CSV is one ``EstimateReport``,
whose fields are its columns.

An adaptive chunk steps every (warmup, round, episode) of its rounds as
rows of one adaptive policy per block, with one ``simulate_batch`` call
per refresh stride: each row re-estimates from its own warmup and
observed prices, one family call per refresh slot rebuilds every row of
the block (one stacked DP value table), and the block's base policy, one
table row per distinct warmup, is built once for every refresh stride.  A
block is as many rows as fit the budget, whatever the episode count, a
row counting a refresh and a base table row of (T+1) x W floats and a
chunk's series; it draws and estimates the warmup of every (warmup,
round) group its rows touch, so a group split across two blocks does so
in both, with the same bits.
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
    estimate,
    estimate_row_floats,
    estimate_rows,
    model_bounds,
)
from .metrics import (
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
    _distinct,
    breakpoint_lattice,
    build_value_table,
    build_value_tables,
    linear_budget,
    sweep_blocks,
)
from .prices import _resample, as_series, generate, generate_rows
from .seeds import KeyedStreams

ESTIMATE_HEADER = "n,alpha,mean,s,mu_lo,mu_hi,sigma_lo,sigma_hi,m_hat,M_hat,theta_hat,conservative"
METRIC_HEADER = "round,n,policy_id,alg_cost,opt_cost,cr,cr_bound,violated,regret,theta_hat,seed"
VIOLATION_HEADER = "n,p_hat,stderr,violations,failures,rounds"
SUMMARY_HEADER = "policy_id,mean_cost,regret,regret_stderr,cr_p50,cr_p95,cr_max"
RELAX_HEADER = "scenario," + SUMMARY_HEADER
ADAPTIVE_HEADER = (
    "warmup,refresh,mean_cost,regret_vs_dp,stderr_vs_dp,"
    "regret_vs_offline,stderr_vs_offline"
)


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


def _write_records(path, header: str, records) -> None:
    """One line per record, each column the record's attribute of that header name."""
    names = header.split(",")
    _write_csv(path, header, [[getattr(record, name) for name in names] for record in records])


# (T,) float arrays a chunk holds per price series: the series, the rows it
# is stacked from, simulate_batch's price copy, purchases and levels, and one
# for its clamp flags and the levels' first column
CHUNK_ARRAYS = 6
# and floats per series beside them: its keyed stream's words, its costs, its
# policies' parameters and simulate_batch's per-slot (E,) temporaries
CHUNK_FLOATS = 32


def chunk_row_floats(horizon: int, series: int, demand_rows: int = 0) -> int:
    """The floats one unit of a chunk holds, for ``sweep_blocks``: price series and demand rows."""
    return series * (CHUNK_ARRAYS * horizon + CHUNK_FLOATS) + demand_rows * horizon


def _split(items, parts: int) -> list:
    """``items`` cut into ``parts`` contiguous slices at ``np.linspace`` edges."""
    edges = np.linspace(0, len(items), parts + 1).astype(int).tolist()
    return [items[start:stop] for start, stop in zip(edges[:-1], edges[1:])]


def _map_chunks(
    fn, count: int, workers: int, horizon: int, series: int, demand_rows: int = 0
) -> tuple[np.ndarray, ...]:
    """fn over contiguous chunks of range(count), its arrays joined in chunk order.

    ``fn(chunk)`` returns a tuple of arrays whose last axis runs over the
    chunk's units, and array i of the result is every chunk's array i
    concatenated along that axis.  A unit holds ``series`` price series of
    ``horizon`` floats, each ``CHUNK_ARRAYS`` arrays of that size and
    ``CHUNK_FLOATS`` more floats, and ``demand_rows`` realized demand rows.
    The oracle, the value tables and the estimation and adaptive blocks it
    runs are bounded by their own blocks.  There are at least ``workers``
    chunks, and more where ``sweep_blocks`` needs them for what one chunk
    holds to fit ``SWEEP_BYTES``.  The chunks are cut into min(workers,
    chunks) contiguous shares: this process runs share 0 while one worker
    process per other share, started with ``fn`` and its share as process
    arguments, runs that share and sends its results back over a pipe.  A
    share stops at its first failing chunk, so the first reply that holds
    an error holds the first failing chunk's, as at one worker.
    """
    parts = max(len(sweep_blocks(count, chunk_row_floats(horizon, series, demand_rows))),
                min(workers, count))
    chunks = _split(range(count), parts)
    shares = _split(chunks, min(workers, len(chunks)))
    procs, pipes = [], []
    try:
        for share in shares[1:]:
            receiver, sender = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(
                target=_send_share, args=(fn, share, sender), daemon=True
            )
            proc.start()
            sender.close()  # so a worker that dies leaves its pipe at EOF
            procs.append(proc)
            pipes.append(receiver)
        results, error = _run_share(fn, shares[0])
        for proc, receiver in zip(procs, pipes):
            if error is not None:
                break
            try:
                more, error = receiver.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"a fan-out worker exited with code {proc.exitcode} before sending its results"
                ) from None
            results += more
        if error is not None:
            raise error
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc, receiver in zip(procs, pipes):
            proc.join()
            receiver.close()
    return tuple(np.concatenate(arrays, axis=-1) for arrays in zip(*results))


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
    _write_records(config.out, ESTIMATE_HEADER, [report])
    print(f"theta_hat={report.theta_hat!r} cr_bound={report.ratio_bound!r}")
    return report


# ---------------------------------------------------------------------------
# violation curve


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
    upper bound, and the (len(ns), R) mask of failed estimates: those that
    ``estimate`` rejects and those of a zero-spread sample.

    Round r's sample of size n is what ``resample`` draws with
    ``stream(seed, 0, r)`` from the history, or with ``eval_source=held-out``
    from its first n records.  A with-replacement bootstrap of the whole
    history draws max(ns) indices once per round, and the smaller samples
    are their prefixes; every other sample is drawn by ``resample``, once
    per (round, n).  Every round's stream is keyed once (``KeyedStreams``),
    and rounds go in ``sweep_blocks`` of ``estimate_row_floats(max(ns))``.
    """
    mode, held = config.resample_mode, config.eval_source == "held-out"
    shared = mode == "with-replacement" and not held
    values = np.empty((4, len(ns), len(rounds)))
    failed = np.empty((len(ns), len(rounds)), dtype=bool)
    keyed = KeyedStreams(config.seed, 0, rounds)
    for first, stop in sweep_blocks(len(rounds), estimate_row_floats(max(ns))):
        block = slice(first, stop)
        streams = keyed[block]
        # rows are filled one at a time, so no list of per-round arrays is held
        if shared:
            drawn = np.fromiter((rng.integers(0, history.size, size=max(ns)) for rng in streams),
                                np.dtype((np.int64, max(ns))), stop - first)
        for i, n in enumerate(ns):
            if shared:
                samples = history[drawn[:, :n]]
            else:
                pool = history[:n] if held else history
                samples = np.fromiter((_resample(pool, n, rng, mode=mode) for rng in streams),
                                      np.dtype((float, n)), stop - first)
            fits = estimate_rows(
                samples, config.alpha,
                conservative=config.conservative, clamp_nonpositive_lower=config.clamp_m,
            )
            values[:, i, block] = fits.threshold, fits.ratio_bound, fits.lower_bound, fits.upper_bound
            # a zero-spread sample's bounds collapse to its one price, so its
            # ratio bound of 1 is no estimate: the round counts as failed
            failed[i, block] = fits.failed | (fits.sample_std == 0.0)
    return values, failed


def violation_rounds(
    config: ExperimentConfig, instance: Instance, eval_model, history: np.ndarray,
    ns, round_indices,
) -> tuple[np.ndarray]:
    """Run a batch of violation rounds at every sample size in ``ns``.

    Returns ``(values,)``, a (3, len(ns), R) array of each n's threshold,
    ratio bound and competitive ratio per round, in the order of ``ns``,
    NaN at the rounds whose estimate failed: an n's failures are its NaN
    thresholds.  Each round is seeded by its own index, so any partition
    of the round indices across workers reproduces the same values.
    ``history`` is indexed as given: the caller validates it, as
    ``as_series`` does.

    A round estimates from a size-n sample, then scores its threshold
    policy on the config's ``eval_episodes`` evaluation series.  The series
    come from the evaluation model (drawn once per round, for every n), or
    with ``eval_source=held-out`` from windows of the history after its
    first n records, which form the estimation pool.  Rounds whose
    estimation fails stay in the arrays, as NaN.  The estimated (round, n)
    pairs of the chunk are scored together: one threshold batch with one
    threshold per row, and one oracle batch over the distinct series.
    """
    T, E = instance.horizon, config.eval_episodes
    held = config.eval_source == "held-out"
    rounds = list(round_indices)
    values, failed = _estimate_rounds(config, history, ns, rounds)
    out = np.full((3, len(ns), len(rounds)), np.nan)
    at, which = np.nonzero(~failed.T)  # the scored (round, n) pairs, round-major
    if not at.size:
        return (out,)
    theta, bound, lower, upper = values[:, which, at]
    if held:
        prices = np.empty((at.size * E, T))
        sizes = np.repeat(np.asarray(ns)[which], E).tolist()
        streams = KeyedStreams(config.seed, 1, np.asarray(rounds)[at][:, None], np.arange(E))
        for s, (n, rng) in enumerate(zip(sizes, streams)):
            start = n + int(rng.integers(0, history.size - n - T + 1))
            prices[s] = history[start : start + T]
        prices = prices.reshape(at.size, E, T)
    else:
        streams = KeyedStreams(config.seed, 1, np.asarray(rounds)[:, None], np.arange(E))
        prices = eval_model.draw_rows(streams, T).reshape(len(rounds), E, T)[at]
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
    return (out,)


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
    (values,) = _map_chunks(chunk, config.rounds, workers, config.T, len(ns) * config.eval_episodes)
    values.flags.writeable = False
    reports = []
    for i, n in enumerate(ns):
        theta_hat, cr_bound, cr = values[:, i]
        violations = int(np.count_nonzero(cr > cr_bound))
        p_hat = violations / config.rounds
        reports.append(ViolationReport(
            n=n, rounds=config.rounds, violations=violations,
            failures=int(np.isnan(theta_hat).sum()),
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
    worst episode) against the bound.  Rounds whose estimation fails, or
    whose sample has zero spread, are counted in ``failures``, not
    dropped.  This is the violation curve's body for the one-point grid
    ``(n,)``.
    """
    return _violation_reports(config, history, (n,), workers)[0]


def run_violation_curve(config: ExperimentConfig, workers: int = 1) -> list[ViolationReport]:
    """Bound-violation probability for every sample size in the n grid."""
    reports = _violation_reports(config, load_history(config), sorted(config.n_grid), workers)
    _write_records(config.out, VIOLATION_HEADER, reports)
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
        fits = model_bounds(models, config.clamp_m)
        thresholds = fits.threshold
        rows = zip(thresholds.tolist(), fits.upper_bound.tolist(), fits.lower_bound.tolist())
        capacity = instance.storage.capacity
        fill_targets = [linear_budget(*row, capacity) for row in rows]
        return cls(thresholds, np.array(fill_targets),
                   build_value_tables(instance, models, config.K))

    def serve(self, rows: np.ndarray) -> tuple[ThresholdPolicy, ThresholdPolicy, DpPolicy]:
        theta = self.thresholds[rows]
        return (
            ThresholdPolicy(theta),
            ThresholdPolicy(theta, fill_target=self.fill_targets[rows], policy_id="budgeted"),
            DpPolicy(self.table, rows),
        )


def _compare_chunk(
    config: ExperimentConfig, instance: Instance, eval_models, etas, policies: _TruePolicies,
    model_rows, episodes: range,
) -> tuple[np.ndarray, np.ndarray]:
    """Oracle costs (S, E) and the three policies' costs (3, S, E) of ``episodes``.

    Scenario s draws its prices from ``eval_models[s]``, with demand noise
    at level ``etas[s]``, and its policies act on policy model
    ``model_rows[s]``.  The episodes' streams are keyed once
    (``KeyedStreams``); each distinct price model's series are drawn once,
    every one from its episode's stream, and the realized demand once per
    distinct eta > 0.  The rows of all scenarios are stacked
    scenario-major, the noise-free ones carrying the nominal demand, and
    each policy runs over all of them in one ``simulate_batch``.  The
    oracle runs once over the rows of every noise-free scenario, and once
    per noisy eta.
    """
    T, E = instance.horizon, len(episodes)
    units = np.asarray(episodes)
    models, drawn_rows = _distinct(eval_models)
    price_streams = KeyedStreams(config.seed, 1, units)
    drawn = [generate_rows(model, T, price_streams) for model in models]
    noise_streams = KeyedStreams(config.seed, 2, units)
    noise = {
        eta: instance.demand * (1.0 + np.array([rng.uniform(-eta, eta, T)
                                                for rng in noise_streams]))
        for eta in dict.fromkeys(etas) if eta > 0.0
    }
    prices = np.concatenate([drawn[i] for i in drawn_rows])
    realized = None
    if noise:
        nominal = np.broadcast_to(instance.demand, (E, T))
        realized = np.concatenate([noise.get(eta, nominal) for eta in etas])
    opt_costs = np.empty((len(etas), E))
    for eta in dict.fromkeys(etas):
        group = [s for s, other in enumerate(etas) if other == eta]
        demand = noise.get(eta)
        # the group's rows are stacked for the oracle alone, and dropped with its call
        opt_costs[group] = offline_costs(
            instance, np.concatenate([drawn[drawn_rows[s]] for s in group]), config.G,
            realized_demand=None if demand is None else np.tile(demand, (len(group), 1)),
        ).reshape(len(group), E)
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
    opt, alg = _map_chunks(
        chunk, config.episodes, workers, config.T, len(scenarios), len(scenarios) * noisy
    )
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
    fits = model_bounds([model], config.clamp_m)
    theta, bound = float(fits.threshold[0]), float(fits.ratio_bound[0])
    columns = zip([s.policy_id for s in summaries], alg.tolist(), crs.tolist(), (alg - opt).tolist())
    _write_csv(config.out, METRIC_HEADER, sorted(
        (e, 0, policy_id, a, o, cr, bound, int(cr > bound), reg, theta, config.seed)
        for policy_id, alg_k, crs_k, reg_k in columns
        for e, (a, o, cr, reg) in enumerate(zip(alg_k, opt.tolist(), crs_k, reg_k))
    ))
    _write_records(summary_path(config.out), SUMMARY_HEADER, summaries)
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """True-parameter DP, oracle and per-grid-point adaptive costs of ``rounds``.

    Each (round, episode) series is drawn once, from streams keyed once
    per chunk.  The adaptive rows are every (warmup, round, episode) of
    the chunk, in that order, in blocks cut by ``sweep_blocks``: a row
    holds a refresh table row of (T+1) x W floats, W the instance's
    ``breakpoint_lattice``, a base table row where its warmup is its own,
    and its trajectory's arrays.  A block draws the warmup of each (warmup,
    round) group its rows touch from that group's keyed stream, so a group
    split across two blocks draws the same warmup in both; one adaptive
    policy per block estimates each of its warmups once, builds its base
    policy once, and steps every row of the block in one ``simulate_batch``
    per refresh stride.
    Costs are (R·E,) arrays in (round, episode) order; the adaptive ones are
    one (grid, R·E) array, a row per warmup x refresh grid point, warmups
    sorted, refreshes in config order.
    """
    T = instance.horizon
    E = config.episodes
    units = np.asarray(rounds)
    flat = generate_rows(model, T, KeyedStreams(config.seed, 4, units[:, None], np.arange(E)))
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
    group = np.arange(groups)
    warmup_streams = KeyedStreams(config.seed, 3, group // len(rounds), units[group % len(rounds)])
    # a row holds its refresh table's row, a base table row where its warmup
    # is its own, and what a chunk holds per series
    for first, stop in sweep_blocks(groups * E, 2 * (T + 1) * width + chunk_row_floats(T, 1)):
        head, tail = first // E, -(-stop // E)  # the groups the block's rows touch
        warmups = [
            generate(model, warmup_sizes[g // len(rounds)], rng)
            for g, rng in zip(range(head, tail), warmup_streams[head:tail])
        ]
        rows = np.arange(first, stop)
        policy = AdaptivePolicy(
            family, warmups, rows // E - head, alpha=config.alpha,
            conservative=config.conservative, clamp_nonpositive_lower=config.clamp_m,
        )
        prices = flat[rows % len(flat)]
        for si, stride in enumerate(strides):
            policy.refresh_stride = stride
            costs[si, rows] = simulate_batch(instance, prices, policy).total_cost
        del policy, prices  # its tables and rows, before the next block builds its own
    adaptive_costs = (costs.reshape(len(strides), len(warmup_sizes), -1).swapaxes(0, 1)
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
    true_costs, oracle_costs, adaptive = _map_chunks(
        chunk, config.rounds, workers, config.T, config.episodes
    )
    grid = [(w, refresh) for w in sorted(config.warmup_grid) for refresh in config.refresh_grid]
    rows = []
    for (warmup, refresh), adaptive_costs in zip(grid, adaptive):
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
    _write_records(config.out, ADAPTIVE_HEADER, rows)
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
    _write_records(config.out, RELAX_HEADER, summaries)
    return summaries
