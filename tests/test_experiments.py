import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import fields, replace
from functools import lru_cache, partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import storelab.experiments as experiments
import storelab.policies as policies
from storelab import (
    ConfigError,
    EstimationError,
    ExperimentConfig,
    Normal,
    ThresholdPolicy,
    bound_violation_probability,
    competitive_ratio,
    estimate,
    generate,
    resample,
)
from storelab import cli
from storelab.cli import main
from storelab.config import build_instance, build_model, load_history
from storelab.experiments import (
    ADAPTIVE_HEADER,
    METRIC_HEADER,
    RELAX_HEADER,
    SUMMARY_HEADER,
    VIOLATION_HEADER,
    run_adaptive_convergence,
    run_estimate,
    run_policy_compare,
    run_relaxation,
    run_violation_curve,
    summary_path,
)
from storelab.metrics import oracle_row_floats
from storelab.seeds import stream
from storelab.special import normal_cdf, normal_pdf

from conftest import reference_offline_optimal, reference_simulate


def _no_rounds(*args):
    raise AssertionError("a round ran")


def _no_one_row_simulate(*args, **kwargs):
    raise AssertionError("the runner called the one-row simulate")


def _field_reprs(record):
    """Each field's repr, an array's as a list: NaN matches NaN, and -0.0 only -0.0."""
    return tuple(
        repr(value.tolist() if isinstance(value, np.ndarray) else value)
        for value in (getattr(record, f.name) for f in fields(record))
    )


def _reference_violation_rows(config, history, n):
    """One n's per-round threshold, ratio bound and ratio, one round and one episode at a time.

    Three lists of ``config.rounds`` floats, NaN at the rounds whose
    estimate fails or whose sample has zero spread.  ``reference_simulate``
    and the per-episode reference oracle score each series; the estimate,
    series and round ratio follow the runner's definition.
    """
    instance, eval_model = build_instance(config), build_model(config)
    T = instance.horizon
    rows = ([], [], [])
    for r in range(config.rounds):
        held_out = history[n:] if config.eval_source == "held-out" else None
        pool = history if held_out is None else history[:n]
        sample = resample(pool, n, stream(config.seed, 0, r), mode=config.resample_mode)
        try:
            report = estimate(sample, config.alpha, conservative=config.conservative,
                              clamp_nonpositive_lower=config.clamp_m)
        except EstimationError:
            report = None
        if report is None or report.s == 0.0:
            for column in rows:
                column.append(math.nan)
            continue
        policy = ThresholdPolicy(report.theta_hat)
        alg_costs, opt_costs, crs = (np.empty(config.eval_episodes) for _ in range(3))
        for e in range(config.eval_episodes):
            rng = stream(config.seed, 1, r, e)
            if held_out is not None:
                start = int(rng.integers(0, held_out.size - T + 1))
                prices = held_out[start : start + T]
            else:
                prices = eval_model.draw(rng, T)
            if config.clamp_eval_to_bounds:
                prices = np.clip(prices, report.m_hat, report.M_hat)
            alg_costs[e] = reference_simulate(instance, prices, policy).total_cost
            opt_costs[e] = reference_offline_optimal(instance, prices, config.G).total_cost
            crs[e] = competitive_ratio(alg_costs[e], opt_costs[e])
        round_cr = float(crs.max() if config.verdict == "any" else crs.mean())
        for column, value in zip(rows, (report.theta_hat, report.ratio_bound, round_cr)):
            column.append(value)
    return rows


EXPECTED_OPT = 184.6405  # E[OPT] at the default instance; see test_metrics


def _exact_threshold_cost(T, capacity, demand, mu, sigma, theta, fill):
    """Expected cost of a threshold rule: constant demand, i.i.d. N(mu, sigma^2) prices.

    A price <= theta tops the store up to ``fill`` after serving the slot,
    a higher one buys only what the store cannot cover, so the levels form
    a finite set and the expectation is a T-step recursion over them, with
    E[p; p <= theta] = mu Phi(z) - sigma phi(z) at z = (theta - mu) / sigma.
    """
    z = (theta - mu) / sigma
    p_cheap = normal_cdf(z)
    cheap = mu * p_cheap - sigma * normal_pdf(z)  # E[p; p <= theta]
    dear = mu - cheap  # E[p; p > theta]

    @lru_cache(maxsize=None)
    def cost_to_go(t, level):
        if t == T:
            return 0.0
        q_lo, q_hi = max(0.0, demand - level), demand + capacity - level
        q_cheap = min(max(demand + fill - level, q_lo), q_hi)
        return (
            cheap * q_cheap + p_cheap * cost_to_go(t + 1, level + q_cheap - demand)
            + dear * q_lo + (1.0 - p_cheap) * cost_to_go(t + 1, level + q_lo - demand)
        )

    return cost_to_go(0, 0.0)


class _FanOutLog:
    """What the runners' fan-outs do in this process.

    ``own_shares`` holds (pid, chunks) for each share the calling process
    runs itself, one per fan-out at every worker count (at one worker the
    one share holds every chunk); ``started`` counts the worker processes
    it starts.  ``Process.start`` is wrapped on its class, so the process
    objects stay picklable under any start method.
    """

    def __init__(self, monkeypatch):
        self.own_shares, self.started = [], 0
        run_share, start = experiments._run_share, multiprocessing.process.BaseProcess.start

        def recording_share(fn, share):
            self.own_shares.append((os.getpid(), list(share)))
            return run_share(fn, share)

        def counting_start(process):
            self.started += 1
            start(process)

        monkeypatch.setattr(experiments, "_run_share", recording_share)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)


def _groups_per_block(monkeypatch, config, groups):
    """Set ``SWEEP_BYTES`` so an adaptive block holds ``groups`` (warmup, round) groups."""
    instance = build_instance(config)
    width = policies.breakpoint_lattice(instance.storage.capacity, instance.demand).size
    group_bytes = 8 * (config.T + 1) * width * config.episodes
    monkeypatch.setattr(policies, "SWEEP_BYTES", groups * group_bytes)


def _units_per_chunk(monkeypatch, config, units):
    """Set ``SWEEP_BYTES`` so a runner chunk holds ``units`` rounds or episodes.

    A unit holds ``CHUNK_ARRAYS`` arrays of T floats per price series: one
    series per policy-compare episode and per relax scenario and episode,
    len(n_grid) x eval_episodes per violation round, and episodes per
    adaptive round.  When a relax scenario is noisy, a relax episode also
    holds a realized demand row per scenario.
    """
    scenarios = len(config.scenarios) if config.kind == "relax" else 1
    series = {
        "violation-curve": len(config.n_grid) * config.eval_episodes,
        "adaptive": config.episodes,
    }.get(config.kind, scenarios)
    noisy = config.kind == "relax" and "demand-noise" in config.scenarios and config.eta > 0.0
    width = series * experiments.CHUNK_ARRAYS + scenarios * noisy
    monkeypatch.setattr(policies, "SWEEP_BYTES", units * 8 * config.T * width)


def small_config(tmp_path, **kw):
    base = dict(
        T=6, B=2.0, s0=0.0, G=20, K=11,
        rounds=4, eval_episodes=2, episodes=8,
        n_grid=(5, 20), warmup_grid=(10, 50), refresh_grid=(math.inf,),
        seed=123, out=str(tmp_path / "out.csv"),
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunEstimate:
    def test_degenerate_history_file(self, tmp_path):
        history = tmp_path / "prices.csv"
        history.write_text("3.0\n3.0\n3.0\n3.0\n")
        config = small_config(tmp_path, kind="estimate", history=str(history), clamp_m=True)
        report = run_estimate(config)
        assert report.s == 0.0
        assert report.theta_hat == 3.0
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0].startswith("n,alpha,mean,s,")
        assert len(lines) == 2

    def test_synthetic_history_concentrates(self, tmp_path):
        config = small_config(
            tmp_path, kind="estimate", history=None, history_size=10**5,
            mu=10.0, sigma=2.0, alpha=0.05,
        )
        report = run_estimate(config)
        assert 15.9 <= report.M_hat <= 16.1
        assert 3.9 <= report.m_hat <= 4.1

    def test_missing_history_file_exits_1(self, tmp_path, capsys):
        code = main([
            "estimate", "--set", "history=/no/such/history.csv",
            "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 1
        assert "/no/such/history.csv" in capsys.readouterr().err


class TestRunViolationCurve:
    def test_single_row(self, tmp_path):
        config = small_config(tmp_path, kind="violation-curve", n_grid=(10,), rounds=1)
        reports = run_violation_curve(config)
        assert len(reports) == 1
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == VIOLATION_HEADER
        assert len(lines) == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        config = small_config(tmp_path, kind="violation-curve")
        run_violation_curve(config)
        first = (tmp_path / "out.csv").read_bytes()
        run_violation_curve(config)
        assert (tmp_path / "out.csv").read_bytes() == first

    def test_worker_count_does_not_change_output(self, tmp_path):
        # 7 rounds over 2 and 3 workers give uneven chunks
        blobs = []
        for workers in (1, 2, 3):
            config = small_config(tmp_path, kind="violation-curve", n_grid=(5, 20, 40),
                                  rounds=7, out=str(tmp_path / f"w{workers}.csv"))
            run_violation_curve(config, workers=workers)
            blobs.append((tmp_path / f"w{workers}.csv").read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_workers_do_not_change_rows(self, tmp_path):
        config = small_config(tmp_path, kind="violation-curve")
        history = generate(Normal(10.0, 2.0), 500, seed=5)
        serial = bound_violation_probability(config, history, 20, workers=1)
        parallel = bound_violation_probability(config, history, 20, workers=2)
        assert _field_reprs(parallel) == _field_reprs(serial)
        assert serial.cr.shape == (config.rounds,)

    def test_history_is_checked_once_before_the_fan_out(self, tmp_path, monkeypatch):
        config = small_config(tmp_path, kind="violation-curve")
        history = generate(Normal(10.0, 2.0), 500, seed=5)
        fan_outs = _FanOutLog(monkeypatch)
        bad = history.copy()
        bad[7] = math.nan
        with pytest.raises(ValueError, match="history contains non-finite values"):
            bound_violation_probability(config, bad, 20, workers=2)
        assert (fan_outs.own_shares, fan_outs.started) == ([], 0)
        # the empty history's ConfigError still comes first
        with pytest.raises(ConfigError, match="cannot bootstrap an empty history"):
            bound_violation_probability(config, [], 20, workers=2)
        # a list is validated into the same series as the array
        as_array = bound_violation_probability(config, history, 20, workers=2)
        as_list = bound_violation_probability(config, history.tolist(), 20, workers=2)
        assert _field_reprs(as_list) == _field_reprs(as_array)
        assert fan_outs.started == 2

    def test_runner_reports_equal_per_n_reports(self, tmp_path):
        config = small_config(tmp_path, kind="violation-curve", n_grid=(20, 5))
        reports = run_violation_curve(config)
        history = load_history(config)
        assert [_field_reprs(r) for r in reports] == [
            _field_reprs(bound_violation_probability(config, history, n)) for n in (5, 20)
        ]

    @pytest.mark.parametrize("source", ["model", "held-out"])
    @pytest.mark.parametrize("mode", ["with-replacement", "prefix", "random-window"])
    def test_empty_history_is_rejected_first(self, monkeypatch, tmp_path, mode, source):
        # before the held-out length and the largest n are checked against it
        monkeypatch.setattr(experiments, "violation_rounds", _no_rounds)
        config = small_config(tmp_path, kind="violation-curve", eval_source=source,
                              resample_mode=mode)
        verb = "bootstrap" if mode == "with-replacement" else "sample"
        with pytest.raises(ConfigError) as caught:
            bound_violation_probability(config, np.array([]), 10)
        assert str(caught.value) == f"history: cannot {verb} an empty history"

    def test_oracle_scores_each_stream_once(self, tmp_path, monkeypatch):
        scored = []
        oracle = experiments.offline_costs

        def counting_oracle(instance, prices, *args, **kwargs):
            scored.append(len(prices))
            return oracle(instance, prices, *args, **kwargs)

        monkeypatch.setattr(experiments, "offline_costs", counting_oracle)
        config = small_config(tmp_path, kind="violation-curve", n_grid=(40, 5, 20),
                              rounds=5, eval_episodes=3)
        reports = run_violation_curve(config)
        # model-drawn, unclamped series do not depend on n: one oracle batch
        # over the 5 x 3 distinct series
        assert scored == [5 * 3]
        history = load_history(config)
        assert [_field_reprs(r) for r in reports] == [
            _field_reprs(bound_violation_probability(config, history, n)) for n in (5, 20, 40)
        ]

    def test_each_series_is_drawn_once(self, tmp_path, monkeypatch):
        draws = []
        draw = Normal.draw

        def counting_draw(self, rng, length):
            draws.append(length)
            return draw(self, rng, length)

        monkeypatch.setattr(Normal, "draw", counting_draw)
        config = small_config(tmp_path, kind="violation-curve", n_grid=(40, 5, 20),
                              rounds=5, eval_episodes=3, clamp_eval_to_bounds=True)
        run_violation_curve(config)
        # one synthesized history, then each (round, episode) series once for
        # every n, clipped per n
        assert draws == [config.history_size] + [config.T] * (5 * 3)

    @pytest.mark.parametrize("mode", [
        dict(),
        dict(eval_source="held-out", resample_mode="prefix", history_size=300),
        dict(clamp_eval_to_bounds=True),
        dict(verdict="any"),
        dict(mu=7.0, sigma=2.5, clamp_lo=0.5, clamp_hi=14.0, clamp_m=False, history_size=400),
        dict(resample_mode="random-window", history_size=300),
        dict(eval_source="held-out", history_size=300),
        dict(conservative=True),
    ], ids=["default", "held-out", "clamped-eval", "any-verdict", "estimation-failures",
            "random-window", "held-out-bootstrap", "conservative"])
    def test_rows_match_per_slot_reference(self, tmp_path, monkeypatch, mode):
        # every round's threshold, bound and ratio, bit for bit, against
        # reference_simulate and the per-episode reference oracle; the two
        # chunks of three rounds estimate in blocks of two rounds, then one
        monkeypatch.setattr(experiments, "BLOCK_FLOATS", 2 * 60)
        config = small_config(tmp_path, kind="violation-curve", n_grid=(3, 8, 60),
                              rounds=6, eval_episodes=3, **mode)
        reports = run_violation_curve(config, workers=2)
        history = load_history(config)
        for report in reports:
            expected = _reference_violation_rows(config, history, report.n)
            got = (report.theta_hat, report.cr_bound, report.cr)
            assert [repr(values.tolist()) for values in got] == [repr(values) for values in expected]
            # NaN exactly at the failed rounds, in every array
            failed = np.isnan(report.theta_hat)
            for values in got:
                assert not values.flags.writeable
                assert np.array_equal(np.isnan(values), failed)
            assert report.failures == np.count_nonzero(failed)
            assert report.violations == np.count_nonzero(report.cr > report.cr_bound)
        if mode.get("clamp_m") is False:
            assert any(r.failures for r in reports)

    @pytest.mark.parametrize("mode", [
        dict(eval_source="held-out", resample_mode="prefix", history_size=300),
        dict(clamp_eval_to_bounds=True),
        # estimation fails at some n but not at others in the same round
        dict(mu=7.0, sigma=2.5, clamp_lo=0.5, clamp_hi=14.0, clamp_m=False, history_size=400),
        dict(eval_source="held-out", history_size=300),
    ], ids=["held-out", "clamped-eval", "mixed-failures", "held-out-bootstrap"])
    def test_n_dependent_series_equal_per_n_reports(self, tmp_path, mode):
        config = small_config(tmp_path, kind="violation-curve", n_grid=(3, 8, 60),
                              rounds=6, eval_episodes=2, **mode)
        reports = run_violation_curve(config)
        history = load_history(config)
        assert [_field_reprs(r) for r in reports] == [
            _field_reprs(bound_violation_probability(config, history, n)) for n in (3, 8, 60)
        ]
        if mode.get("clamp_m") is False:
            assert all(0 < r.failures < r.rounds for r in reports)
            assert len({frozenset(np.flatnonzero(np.isnan(r.cr)).tolist()) for r in reports}) > 1

    def test_constant_history_fails_every_round(self, tmp_path):
        # a zero-spread sample's bounds collapse to its one price: a ratio
        # bound of 1 is no estimate, so the round is a failure, not a violation
        history = tmp_path / "constant.csv"
        history.write_text("3.0\n" * 5)
        config = small_config(tmp_path, kind="violation-curve", history=str(history),
                              n_grid=(3,), rounds=4)
        (report,) = run_violation_curve(config)
        assert (report.failures, report.violations, report.p_hat) == (4, 0, 0.0)
        assert np.isnan(report.theta_hat).all()
        assert (tmp_path / "out.csv").read_text().splitlines()[1] == "3,0.0,0.0,0,4,4"

    def test_two_price_bootstrap_fails_its_zero_spread_rounds(self, tmp_path):
        history = tmp_path / "two.csv"
        history.write_text("9.0\n11.0\n")
        config = small_config(tmp_path, kind="violation-curve", history=str(history),
                              n_grid=(2, 3), rounds=8)
        reports = run_violation_curve(config, workers=2)
        for report in reports:
            expected = _reference_violation_rows(config, load_history(config), report.n)
            got = (report.theta_hat, report.cr_bound, report.cr)
            assert [repr(values.tolist()) for values in got] == [repr(values) for values in expected]
            assert 0 < report.failures < report.rounds

    def test_held_out_evaluation_source(self, tmp_path):
        # estimation uses the first n values, evaluation windows the suffix
        history = tmp_path / "hist.csv"
        rng = np.random.default_rng(71)
        history.write_text("\n".join(repr(float(v)) for v in rng.normal(10, 2, 400)) + "\n")
        config = small_config(
            tmp_path, kind="violation-curve", history=str(history),
            eval_source="held-out", resample_mode="prefix",
            n_grid=(50,), rounds=3,
        )
        reports = run_violation_curve(config)
        assert reports[0].rounds == 3
        assert reports[0].failures == 0

    def test_conservative_mode_runs(self, tmp_path):
        config = small_config(
            tmp_path, kind="estimate", conservative=True, history_size=2000,
        )
        report = run_estimate(config)
        assert report.conservative
        point = run_estimate(replace(config, conservative=False))
        assert report.M_hat > point.M_hat
        assert report.m_hat < point.m_hat


class TestRunPolicyCompare:
    def test_degenerate_constant_price(self, tmp_path):
        # storage-free instance at (near) constant price: every policy
        # matches the oracle exactly, so all regrets vanish
        config = small_config(
            tmp_path, kind="policy-compare", B=0.0, s0=0.0,
            mu=7.0, sigma=1e-12, episodes=4,
        )
        summaries = run_policy_compare(config)
        for summary in summaries:
            assert summary.regret == pytest.approx(0.0, abs=1e-9)
            assert summary.cr_max == pytest.approx(1.0, abs=1e-9)

    def test_metric_rows_file(self, tmp_path):
        config = small_config(tmp_path, kind="policy-compare")
        summaries = run_policy_compare(config)
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == METRIC_HEADER
        assert len(lines) == 1 + 3 * config.episodes
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        for r in rows:
            assert float(r["regret"]) == float(r["alg_cost"]) - float(r["opt_cost"])
            assert (r["n"], r["seed"]) == ("0", str(config.seed))
        for s in summaries:
            costs = [float(r["alg_cost"]) for r in rows if r["policy_id"] == s.policy_id]
            assert s.mean_cost == float(np.mean(costs))
        summary_lines = summary_path(config.out).read_text().splitlines()
        assert summary_lines[0] == SUMMARY_HEADER
        assert len(summary_lines) == 4

    def test_reproducible_and_worker_invariant(self, tmp_path):
        c1 = small_config(tmp_path, kind="policy-compare", out=str(tmp_path / "a.csv"))
        c2 = replace(c1, out=str(tmp_path / "b.csv"))
        run_policy_compare(c1, workers=1)
        run_policy_compare(c2, workers=2)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_threshold_rules_match_their_exact_expected_cost(self, tmp_path):
        # the default instance: T=24, C=5, unit demand, N(10, 2^2) prices,
        # theta = 8, and the budgeted rule's fill target 5 * (16 - 8) / 12
        config = ExperimentConfig(kind="policy-compare", episodes=400, seed=41,
                                  out=str(tmp_path / "pc.csv"))
        summaries = run_policy_compare(config)
        lines = (tmp_path / "pc.csv").read_text().splitlines()
        alg_cost = lines[0].split(",").index("alg_cost")
        exact = {
            "threshold": _exact_threshold_cost(24, 5.0, 1.0, 10.0, 2.0, 8.0, 5.0),
            "budgeted": _exact_threshold_cost(24, 5.0, 1.0, 10.0, 2.0, 8.0, 10.0 / 3.0),
        }
        assert exact["threshold"] == pytest.approx(215.7775, abs=1e-4)
        assert exact["budgeted"] == pytest.approx(217.8960, abs=1e-4)
        by_id = {s.policy_id: s for s in summaries}
        for policy_id, cost in exact.items():
            alg = np.array([float(line.split(",")[alg_cost]) for line in lines[1:]
                            if line.split(",")[2] == policy_id])
            stderr = alg.std(ddof=1) / math.sqrt(alg.size)
            summary = by_id[policy_id]
            assert abs(summary.mean_cost - cost) < 4.0 * stderr
            assert abs(summary.regret - (cost - EXPECTED_OPT)) < 4.0 * summary.regret_stderr

    def test_dp_beats_threshold_here(self, tmp_path):
        config = small_config(tmp_path, kind="policy-compare", episodes=60)
        summaries = run_policy_compare(config)
        by_id = {s.policy_id: s for s in summaries}
        assert by_id["dp"].mean_cost <= by_id["threshold"].mean_cost


# few distinct values, signed zeros and infinities, so order statistics tie
QUANTILE_VALUES = st.one_of(
    st.sampled_from((-0.0, 0.0, 1.0, 1.5, math.inf, -math.inf)),
    st.floats(-1e6, 1e6, allow_subnormal=False),
)


class TestSummaryQuantiles:
    @given(
        st.lists(QUANTILE_VALUES, min_size=1, max_size=300),
        st.lists(st.floats(0.0, 1.0), max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_match_np_quantile(self, values, drawn):
        x = np.asarray(values)
        qs = [0.5, 0.95, *drawn]
        with np.errstate(invalid="ignore"):  # np.quantile between two infinities
            want = [float(np.quantile(x, q)) for q in qs]
        got = experiments._quantiles(x, qs)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_no_subcommand_imports_numpy_ma(self, tmp_path):
        # numpy imports numpy.ma lazily, on the first call of some functions
        # (np.quantile; np.unique without return_index), at tens of ms; a
        # fresh interpreter, since pytest or hypothesis may have imported it here
        tiny = ["--set", "T=4", "--set", "B=1.0", "--set", "G=10"]
        runs = {
            "relax": ["--set", "episodes=5"],
            "policy-compare": ["--set", "episodes=5"],
            "estimate": ["--set", "history_size=50", "--set", "conservative=true"],
            "violation-curve": ["--set", "n_grid=10,100", "--set", "rounds=3",
                                "--set", "history_size=200"],
            "adaptive": ["--set", "warmup_grid=10,30", "--set", "refresh_grid=inf,1,2",
                         "--set", "rounds=2", "--set", "episodes=2"],
        }
        code = ["import sys", "from storelab.cli import main"]
        for command, sets in runs.items():
            argv = [command, *tiny, *sets, "--out", str(tmp_path / f"{command}.csv")]
            code += [f"assert main({argv!r}) == 0", f"print({command!r}, 'numpy.ma' in sys.modules)"]
        src = str(Path(experiments.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-c", "\n".join(code)], env=env, capture_output=True, text=True,
            check=True,
        )
        imported = [line for line in done.stdout.splitlines() if line.endswith((" True", " False"))]
        assert imported == [f"{command} False" for command in runs]


class TestRunAdaptive:
    def test_rows_and_header(self, tmp_path):
        config = small_config(
            tmp_path, kind="adaptive", warmup_grid=(10, 50),
            refresh_grid=(math.inf,), rounds=2, episodes=5,
        )
        rows = run_adaptive_convergence(config)
        assert len(rows) == 2
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == ADAPTIVE_HEADER
        assert len(lines) == 3

    def test_infinite_refresh_equals_static_policy(self, tmp_path):
        # one warmup draw, threshold family: the adaptive arm must reproduce
        # the static policy built from the same warmup estimate
        config = small_config(
            tmp_path, kind="adaptive", family="threshold",
            warmup_grid=(100,), refresh_grid=(math.inf,), rounds=1, episodes=6,
        )
        rows = run_adaptive_convergence(config)
        from storelab import Instance, StorageSpec, ThresholdPolicy, simulate
        from storelab.seeds import stream

        warmup = generate(Normal(config.mu, config.sigma), 100, stream(config.seed, 3, 0, 0))
        static = ThresholdPolicy(estimate(warmup, 0.05, clamp_nonpositive_lower=True).theta_hat)
        inst = Instance.constant(config.T, 1.0, StorageSpec(config.B))
        costs = []
        for e in range(6):
            prices = generate(Normal(config.mu, config.sigma), config.T, stream(config.seed, 4, 0, e))
            costs.append(simulate(inst, prices, static).total_cost)
        assert rows[0].mean_cost == pytest.approx(float(np.mean(costs)), rel=1e-12)

    def test_finite_refresh_runs(self, tmp_path):
        config = small_config(
            tmp_path, kind="adaptive", family="threshold",
            warmup_grid=(20,), refresh_grid=(2.0,), rounds=2, episodes=3,
        )
        rows = run_adaptive_convergence(config)
        assert len(rows) == 1
        assert math.isfinite(rows[0].regret_vs_offline)

    def test_oracle_scores_each_stream_once(self, tmp_path, monkeypatch):
        scored = []
        oracle = experiments.offline_costs

        def counting_oracle(instance, prices, *args, **kwargs):
            scored.append(len(prices))
            return oracle(instance, prices, *args, **kwargs)

        monkeypatch.setattr(experiments, "offline_costs", counting_oracle)
        for warmups, refreshes in (((10,), (math.inf,)), ((10, 30, 50), (math.inf, 2.0))):
            scored.clear()
            config = small_config(tmp_path, kind="adaptive", rounds=3, episodes=4,
                                  warmup_grid=warmups, refresh_grid=refreshes)
            run_adaptive_convergence(config)
            assert sum(scored) == 3 * 4

    def test_one_fan_out_draws_each_stream_once(self, tmp_path, monkeypatch):
        draws = []
        generate_ = experiments.generate

        def counting_generate(model, length, seed):
            draws.append(length)
            return generate_(model, length, seed)

        monkeypatch.setattr(experiments, "generate", counting_generate)
        fan_outs = _FanOutLog(monkeypatch)
        config = small_config(tmp_path, kind="adaptive", rounds=4, episodes=3,
                              warmup_grid=(10, 30), refresh_grid=(math.inf, 2.0))
        serial = run_adaptive_convergence(config)
        # 4 x 3 episode streams and 2 warmups per round, whatever the grid
        assert sorted(draws) == [config.T] * 12 + [10] * 4 + [30] * 4
        # one worker: this process runs the one share, of every chunk
        assert (fan_outs.own_shares, fan_outs.started) == ([(os.getpid(), [range(0, 4)])], 0)
        assert run_adaptive_convergence(config, workers=2) == serial
        # one fan-out: this process runs chunk 0, one worker process the other
        assert fan_outs.own_shares[1:] == [(os.getpid(), [range(0, 2)])]
        assert fan_outs.started == 1

    @staticmethod
    def _count_work(tmp_path, monkeypatch, groups=None):
        """(rows per estimate call, value-table builds, warmup draw sizes) of one
        small adaptive run.

        ``groups``, if given, is the (warmup, round) groups per adaptive block.
        """
        import storelab.policies as policies

        config = small_config(tmp_path, kind="adaptive", rounds=3, episodes=4,
                              warmup_grid=(10, 30), refresh_grid=(math.inf, 2.0))
        if groups is not None:
            _groups_per_block(monkeypatch, config, groups)
        builds, estimates, draws = [], [], []
        build, estimate_rows = policies.build_value_tables, policies.estimate_rows
        generate_ = experiments.generate

        def counting_build(*args, **kwargs):
            builds.append(1)
            return build(*args, **kwargs)

        def counting_estimate(samples, *args, **kwargs):
            estimates.append(len(samples))
            return estimate_rows(samples, *args, **kwargs)

        def counting_generate(model, length, seed):
            draws.append(length)
            return generate_(model, length, seed)

        monkeypatch.setattr(policies, "build_value_tables", counting_build)
        monkeypatch.setattr(policies, "estimate_rows", counting_estimate)
        monkeypatch.setattr(experiments, "generate", counting_generate)
        monkeypatch.setattr(experiments, "simulate", _no_one_row_simulate)
        run_adaptive_convergence(config)
        return estimates, len(builds), sorted(d for d in draws if d != config.T)

    def test_each_value_table_is_built_once(self, tmp_path, monkeypatch):
        estimates, builds, draws = self._count_work(tmp_path, monkeypatch)
        # 2 warmups x 3 rounds x 4 episodes = 24 adaptive rows in one block.
        # The block estimates its six warmups once each and builds one base
        # table over them, shared by both strides; stride 2 at T=6
        # re-estimates every row at slots 2 and 4, and each of those slots
        # builds one stacked table; plus the true-parameter table
        assert sum(estimates) == 6 + 24 * 2
        # one estimate_rows call per warmup size, at construction and at
        # each refresh slot: every history here fits in one block
        assert len(estimates) == 2 + 2 * 2
        assert builds == 1 + 1 + 2
        assert draws == [10] * 3 + [30] * 3

    def test_each_block_builds_its_own_tables(self, tmp_path, monkeypatch):
        estimates, builds, draws = self._count_work(tmp_path, monkeypatch, groups=2)
        # three blocks of two (warmup, round) groups: a block estimates the
        # warmups of its own groups, so each warmup is drawn and estimated
        # once however many blocks there are
        assert sum(estimates) == 6 + 24 * 2
        # each block holds one round's two warmups, of two sizes: one call
        # per size at construction and at each refresh slot
        assert len(estimates) == 3 * (2 + 2 * 2)
        assert builds == 1 + 3 * (1 + 2)
        assert draws == [10] * 3 + [30] * 3

    @pytest.mark.parametrize("kw", [
        dict(family="dp", refresh_grid=(math.inf, 2.0, 1.0)),
        dict(family="threshold", refresh_grid=(math.inf, 2.0, 1.0)),
        dict(family="dp", refresh_grid=(3.0,), conservative=True, warmup_grid=(5, 40, 12)),
        dict(family="dp", refresh_grid=(2.0,), s0=0.5,
             demand="vector:1.0,0.5,1.5,0.0,1.2,0.8"),
    ])
    @pytest.mark.parametrize("batch_rows", [1024, 3])
    def test_costs_match_one_policy_per_warmup_and_round(self, tmp_path, monkeypatch, kw,
                                                         batch_rows):
        from storelab import DpPolicy, build_value_table

        from conftest import reference_adaptive_costs

        config = small_config(tmp_path, kind="adaptive", rounds=4, episodes=4, **kw)
        instance, model = build_instance(config), build_model(config)
        true_policy = DpPolicy(build_value_table(instance, model, config.K))
        # a sweep budget of ``batch_rows`` oracle rows
        width = policies.storage_grid(instance.storage.capacity, config.G).size
        monkeypatch.setattr(policies, "SWEEP_BYTES",
                            batch_rows * 8 * oracle_row_floats(config.T, width, False))
        rounds = range(1, 4)  # a chunk that does not start at round 0
        want = reference_adaptive_costs(config, instance, model, rounds)
        got = experiments._adaptive_chunk(config, instance, model, true_policy, rounds)[2]
        assert [c.tobytes() for c in got] == [c.tobytes() for c in want]
        # and with one (warmup, round) group per adaptive block
        _groups_per_block(monkeypatch, config, 1)
        got = experiments._adaptive_chunk(config, instance, model, true_policy, rounds)[2]
        assert [c.tobytes() for c in got] == [c.tobytes() for c in want]

    @pytest.mark.parametrize("family", ["dp", "threshold"])
    def test_blocks_and_workers_do_not_change_output(self, tmp_path, monkeypatch, family):
        config = small_config(tmp_path, kind="adaptive", family=family, rounds=5, episodes=4,
                              warmup_grid=(10, 30), refresh_grid=(math.inf, 2.0))
        run_adaptive_convergence(config)
        whole = (tmp_path / "out.csv").read_bytes()
        # 1, 2 and 3 of the 10 (warmup, round) groups per block
        for groups in (1, 2, 3):
            _groups_per_block(monkeypatch, config, groups)
            run_adaptive_convergence(config)
            assert (tmp_path / "out.csv").read_bytes() == whole
        monkeypatch.undo()
        # 5 rounds make uneven chunks: 2 + 3 at two workers, 1 + 2 + 2 at three
        for workers in (1, 2, 3):
            run_adaptive_convergence(config, workers=workers)
            assert (tmp_path / "out.csv").read_bytes() == whole

    def test_wide_lattice_blocks_keep_tables_to_one_round(self, tmp_path):
        import tracemalloc

        from storelab.policies import SWEEP_BYTES, breakpoint_lattice, sweep_blocks

        rng = np.random.default_rng(5)
        T = 48
        demand = "vector:" + ",".join(f"{d:.3f}" for d in rng.uniform(0.2, 2.0, T))
        config = small_config(tmp_path, kind="adaptive", T=T, B=50.0, demand=demand,
                              rounds=2, episodes=6, warmup_grid=(10, 50),
                              refresh_grid=(16.0,))
        instance = build_instance(config)
        width = breakpoint_lattice(instance.storage.capacity, instance.demand).size
        row_bytes = 8 * (T + 1) * width
        assert width > 1000 and 6 * row_bytes > SWEEP_BYTES
        # a table of one (warmup, round) group's six rows exceeds SWEEP_BYTES,
        # so each of the 2 x 2 groups is a block alone
        groups = len(config.warmup_grid) * config.rounds
        assert sweep_blocks(groups, (T + 1) * width * config.episodes) == [
            (g, g + 1) for g in range(groups)
        ]
        tracemalloc.start()
        try:
            run_adaptive_convergence(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one group's refresh table, the block's one-row base table and the
        # true-parameter table, and sweep temporaries within SWEEP_BYTES; one
        # table of all 24 rows would be 24 rows alone
        assert peak < (6 + 2) * row_bytes + SWEEP_BYTES

    def test_worker_invariance(self, tmp_path):
        c1 = small_config(tmp_path, kind="adaptive", rounds=4, episodes=3,
                          warmup_grid=(10, 30), out=str(tmp_path / "a1.csv"))
        c2 = replace(c1, out=str(tmp_path / "a2.csv"))
        run_adaptive_convergence(c1, workers=1)
        run_adaptive_convergence(c2, workers=4)
        assert (tmp_path / "a1.csv").read_bytes() == (tmp_path / "a2.csv").read_bytes()


class TestRunRelaxation:
    def test_null_scenario_reproduces_baseline(self, tmp_path):
        cfg_pc = small_config(tmp_path, kind="policy-compare", out=str(tmp_path / "pc.csv"))
        summaries_pc = run_policy_compare(cfg_pc)
        cfg_rx = replace(cfg_pc, kind="relax", scenarios=("baseline",), out=str(tmp_path / "rx.csv"))
        assert run_relaxation(cfg_rx) == summaries_pc
        pc_lines = summary_path(cfg_pc.out).read_text().splitlines()[1:]
        rx_lines = (tmp_path / "rx.csv").read_text().splitlines()[1:]
        assert rx_lines == ["baseline," + line for line in pc_lines]

    def test_all_scenarios_emit_rows(self, tmp_path):
        config = small_config(tmp_path, kind="relax", episodes=6, phi=0.8)
        summaries = run_relaxation(config)
        assert [(s.scenario, s.policy_id) for s in summaries] == [
            (scenario, policy_id)
            for scenario in ("baseline", "ar1", "lognormal", "demand-noise")
            for policy_id in ("threshold", "budgeted", "dp")
        ]
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == RELAX_HEADER
        assert len(lines) == 1 + 4 * 3

    def test_lognormal_misspecification_reported(self, tmp_path):
        # paired comparison of dp regret under lognormal vs normal prices.
        # The difference is reported, not sign-asserted: the skewed law also
        # moves the offline baseline, and measured at reference scale the
        # dp regret actually resolves slightly below the normal baseline.
        config = small_config(
            tmp_path, kind="relax", episodes=150,
            scenarios=("baseline", "lognormal"),
        )
        summaries = run_relaxation(config)
        by = {(s.scenario, s.policy_id): s for s in summaries}
        base = by[("baseline", "dp")]
        skew = by[("lognormal", "dp")]
        diff = skew.regret - base.regret
        spread = 2.0 * math.hypot(base.regret_stderr, skew.regret_stderr)
        assert math.isfinite(diff) and spread > 0.0
        print(f"lognormal-vs-baseline dp regret difference {diff:+.4f} (2se {spread:.4f})")

    def test_demand_noise_needs_eta(self, tmp_path):
        config = small_config(tmp_path, kind="relax", scenarios=("demand-noise",), eta=0.3, episodes=5)
        summaries = run_relaxation(config)
        assert [s.policy_id for s in summaries] == ["threshold", "budgeted", "dp"]
        for s in summaries:
            assert s.scenario == "demand-noise"
            values = [getattr(s, f.name) for f in fields(s)][2:]
            assert all(math.isfinite(v) for v in values), s

    def test_one_ratio_call_per_scenario(self, tmp_path, monkeypatch):
        shapes = []
        ratio = experiments.competitive_ratio

        def counting_ratio(alg, opt):
            shapes.append((np.shape(alg), np.shape(opt)))
            return ratio(alg, opt)

        monkeypatch.setattr(experiments, "competitive_ratio", counting_ratio)
        config = small_config(tmp_path, kind="relax", episodes=6, phi=0.8)
        assert len(run_relaxation(config)) == 4 * 3
        assert shapes == [((3, 6), (6,))] * 4

    def test_relax_requires_normal_model(self, tmp_path):
        with pytest.raises(ConfigError, match="model"):
            small_config(tmp_path, kind="relax", model="ar1")

    def test_true_parameter_policies_built_once_per_run(self, tmp_path, monkeypatch):
        # one stacked DP value table per run, however many chunks it spans, with
        # one row per distinct policy model: N(mu, sigma) for three scenarios,
        # and the AR(1) marginal
        calls = []
        build = experiments.build_value_tables

        def counting_build(instance, models, *args, **kwargs):
            calls.append(list(models))
            return build(instance, models, *args, **kwargs)

        monkeypatch.setattr(experiments, "build_value_tables", counting_build)
        monkeypatch.setattr(experiments, "build_value_table", _no_rounds)
        config = small_config(tmp_path, kind="relax", episodes=9)
        _units_per_chunk(monkeypatch, config, 2)
        run_relaxation(config)
        assert calls == [[Normal(config.mu, config.sigma),
                          Normal(config.mu, config.sigma / math.sqrt(1.0 - config.phi ** 2))]]

    def test_every_scenario_equals_its_own_run(self, tmp_path):
        # one batch of four scenarios, bit for bit the four one-scenario runs
        config = small_config(tmp_path, kind="relax", episodes=7, phi=0.8, eta=0.3)
        together = run_relaxation(config)
        alone = [
            summary
            for scenario in config.scenarios
            for summary in run_relaxation(replace(config, scenarios=(scenario,)))
        ]
        assert [_field_reprs(s) for s in together] == [_field_reprs(s) for s in alone]

    def test_scenario_order_does_not_change_rows(self, tmp_path):
        config = small_config(tmp_path, kind="relax", episodes=7, phi=0.8, eta=0.3)
        run_relaxation(config)
        lines = (tmp_path / "out.csv").read_text().splitlines()
        reordered = replace(config, scenarios=tuple(reversed(config.scenarios)),
                            out=str(tmp_path / "reordered.csv"))
        run_relaxation(reordered)
        other = (tmp_path / "reordered.csv").read_text().splitlines()
        assert other[0] == lines[0]
        assert sorted(other[1:]) == sorted(lines[1:])
        assert other[1:] != lines[1:]

    def test_baseline_equals_policy_compare(self, tmp_path):
        config = small_config(tmp_path, kind="relax", episodes=7, phi=0.8, eta=0.3)
        baseline = [s for s in run_relaxation(config) if s.scenario == "baseline"]
        compared = run_policy_compare(
            replace(config, kind="policy-compare", out=str(tmp_path / "pc.csv"))
        )
        assert [_field_reprs(s) for s in baseline] == [_field_reprs(s) for s in compared]

    def test_one_fan_out_per_run(self, tmp_path, monkeypatch):
        config = small_config(tmp_path, kind="relax", episodes=7, phi=0.8, eta=0.3)
        fan_outs = _FanOutLog(monkeypatch)
        run_relaxation(config)
        whole = (tmp_path / "out.csv").read_bytes()
        run_relaxation(config, workers=2)
        # every scenario in one fan-out per run: at one worker this process
        # runs the one chunk, at two chunk 0 while one worker process runs
        # the other
        assert fan_outs.own_shares == [(os.getpid(), [range(0, 7)]), (os.getpid(), [range(0, 3)])]
        assert fan_outs.started == 1
        assert (tmp_path / "out.csv").read_bytes() == whole


@pytest.mark.parametrize("kind, runner, kw", [
    ("violation-curve", run_violation_curve, dict(rounds=7, clamp_eval_to_bounds=True)),
    ("relax", run_relaxation, dict(scenarios=("baseline", "demand-noise"), eta=0.3, episodes=11)),
    ("adaptive", run_adaptive_convergence, dict(rounds=3, episodes=4, refresh_grid=(math.inf, 2.0))),
])
def test_batch_rows_do_not_change_output(tmp_path, monkeypatch, kind, runner, kw):
    # a runner chunk is one batch, of as many rounds or episodes as fit the
    # sweep budget; where the chunks split must not show in the output
    config = small_config(tmp_path, kind=kind, **kw)
    runner(config)
    whole = (tmp_path / "out.csv").read_bytes()
    units = config.rounds if kind in ("violation-curve", "adaptive") else config.episodes
    chunk_fn = {"violation-curve": "violation_rounds", "relax": "_compare_chunk",
                "adaptive": "_adaptive_chunk"}[kind]
    chunks = []
    fn = getattr(experiments, chunk_fn)

    def recording(*args):
        chunks.append(args[-1])
        return fn(*args)

    fan_outs = _FanOutLog(monkeypatch)
    for rows in (1, 4):
        _units_per_chunk(monkeypatch, config, rows)
        chunks.clear()
        monkeypatch.setattr(experiments, chunk_fn, recording)
        runner(config)
        assert (tmp_path / "out.csv").read_bytes() == whole
        # the fewest contiguous chunks of at most ``rows`` units, all run in
        # this process
        assert [i for c in chunks for i in c] == list(range(units))
        assert len(chunks) == -(-units // rows)
        assert max(len(c) for c in chunks) <= rows
        monkeypatch.setattr(experiments, chunk_fn, fn)  # a spawned worker unpickles it by name
        runner(config, workers=2)
        assert (tmp_path / "out.csv").read_bytes() == whole
        # one fan-out: this process runs the first half of the chunks, one
        # worker process the rest (one chunk at one worker is two at two)
        pid, share = fan_outs.own_shares[-1]
        assert pid == os.getpid() and share[0].start == 0
        assert len(chunks) == 1 or share == chunks[:len(chunks) // 2]
    # one fan-out per run, and one worker process per run at two workers
    assert len(fan_outs.own_shares) == 4 and fan_outs.started == 2


def test_relax_memory_does_not_grow_with_episodes_beyond_cost_arrays(tmp_path, monkeypatch):
    import tracemalloc

    config = ExperimentConfig(kind="relax", scenarios=("baseline",), G=10, seed=3,
                              out=str(tmp_path / "r.csv"))
    run_relaxation(replace(config, episodes=8))  # first-call caches out of the peaks
    # chunks of 256 episodes of 24 prices; the oracle's blocks hold 22 rows
    _units_per_chunk(monkeypatch, config, 256)
    peaks = []
    for episodes in (512, 1536):
        tracemalloc.start()
        try:
            run_relaxation(replace(config, episodes=episodes))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the runner keeps (E,) oracle costs, (3, E) policy costs and ratios, their
    # per-chunk parts and the summaries' (E,) temporaries: under 32 floats an
    # episode.  Holding every episode's prices and trajectories at once would
    # take over 100.
    assert peaks[1] - peaks[0] < 32 * 8 * (1536 - 512)


def test_relax_chunks_are_bounded_by_what_they_hold(tmp_path, monkeypatch):
    import tracemalloc

    config = ExperimentConfig(kind="relax", scenarios=("baseline",), G=10, seed=3,
                              out=str(tmp_path / "r.csv"))
    whole = {}
    for episodes in (8, 512, 2048):
        run_relaxation(replace(config, episodes=episodes))  # 8: first-call caches out of the peaks
        whole[episodes] = (tmp_path / "r.csv").read_bytes()
    # a chunk's series and trajectories fit 256 KiB: 273 episodes of 24 prices
    monkeypatch.setattr(policies, "SWEEP_BYTES", 1 << 18)
    peaks = []
    for episodes in (512, 2048):
        tracemalloc.start()
        try:
            run_relaxation(replace(config, episodes=episodes))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (tmp_path / "r.csv").read_bytes() == whole[episodes]
    # past two chunks the peak grows by the runner's cost arrays alone, about
    # 8 floats an episode.  Counting a chunk by its price series alone lets
    # it grow to 1365 episodes here, and the peak by about 50 floats an episode.
    assert peaks[1] - peaks[0] < 16 * 8 * (2048 - 512)


def test_violation_chunk_memory_does_not_grow_with_rounds_beyond_one_block(tmp_path):
    import tracemalloc

    config = small_config(tmp_path, kind="violation-curve", T=6, G=10, eval_episodes=1,
                          n_grid=(10, 10_000), history_size=100_000, clamp_m=True)
    instance, model = build_instance(config), build_model(config)
    history = load_history(config)
    chunk = partial(experiments.violation_rounds, config, instance, model, history, (10, 10_000))
    chunk(range(2))  # first-call caches out of the peaks
    peaks = []
    for rounds in (6, 60):
        tracemalloc.start()
        try:
            (values,) = chunk(range(rounds))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        # no round failed: no threshold reads NaN
        assert values.shape == (3, 2, rounds)
        assert not np.isnan(values).any()
    # the bootstrap work of a block of three rounds at n = 10 000 is alive at a
    # time: its draw, a sample and the sample's temporaries.  The rest of the
    # chunk grows by the scored pairs' prices, costs and ratios, under a
    # kilobyte a round here; one array of the block is 256 KiB.  Drawing
    # every round's samples at once would add over 4 MiB per array.
    assert peaks[1] - peaks[0] < 8 * experiments.BLOCK_FLOATS


class _PickleCountingChunk:
    """A chunk function that counts the times this process pickles it."""

    pickles = 0

    def __call__(self, chunk: range) -> tuple[np.ndarray]:
        return (np.array([i * i for i in chunk]),)

    def __reduce__(self):
        type(self).pickles += 1
        return _PickleCountingChunk, ()


def test_each_worker_receives_the_chunk_function_once(monkeypatch):
    # one unit per chunk: a unit of one series of SWEEP_BYTES floats fills a block alone
    chunk = _PickleCountingChunk()
    monkeypatch.setattr(_PickleCountingChunk, "pickles", 0)
    (squares,) = experiments._map_chunks(chunk, 6, 2, policies.SWEEP_BYTES, 1)
    assert squares.tolist() == [i * i for i in range(6)]
    # as an argument of the one worker process: once at most, whatever the
    # start method (a forked worker inherits it unpickled), where a pickled
    # task per chunk would send it 3 times
    assert _PickleCountingChunk.pickles <= 1


class _FailingChunk:
    """A chunk function of one-unit chunks that fails at the units it names.

    At unit ``exits_at`` its process exits with code 3, sending nothing; at
    unit ``hangs_at`` it sleeps for ten minutes; at a unit of ``raises_at``
    it raises a ``ConfigError`` naming the unit.  Should the exit unit run
    in the process that built the chunk function, the test's own, it
    raises an ``AssertionError`` instead, so a misplaced case fails by name
    and does not end the test run.
    """

    def __init__(self, raises_at=(), exits_at=None, hangs_at=None):
        self.raises_at, self.exits_at, self.hangs_at = raises_at, exits_at, hangs_at
        self.home = os.getpid()

    def __call__(self, chunk: range) -> tuple[np.ndarray]:
        if chunk.start == self.exits_at:
            if os.getpid() == self.home:
                raise AssertionError(f"exit chunk {chunk.start} ran in the calling process")
            os._exit(3)
        if chunk.start == self.hangs_at:
            time.sleep(600)
        if chunk.start in self.raises_at:
            raise ConfigError("unit", f"chunk {chunk.start} failed")
        return (np.array(chunk),)


@pytest.fixture
def fan_out_deadline():
    """Fail the test with a TimeoutError if it runs past 60 s: a fan-out that hangs fails."""

    def expire(signum, frame):
        raise TimeoutError("the fan-out did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _units_and_pids(chunk: range) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A (1, k) and a (k,) array of a chunk's units, and the pid that ran each unit, (k,)."""
    units = np.array(chunk)
    return units[None, :] * 10, units * units, np.full(units.size, os.getpid())


# six chunks of one unit (a unit of one SWEEP_BYTES series fills a block)
@pytest.mark.parametrize("workers, runs", [
    (1, [6]), (2, [3, 3]), (3, [2, 2, 2]), (4, [1, 2, 1, 2]),
])
def test_chunk_arrays_join_in_chunk_order(fan_out_deadline, workers, runs):
    tens, squares, pids = experiments._map_chunks(
        _units_and_pids, 6, workers, policies.SWEEP_BYTES, 1
    )
    # each array joined along its last axis: the one-worker result
    units = np.arange(6)
    assert tens.tolist() == [(units * 10).tolist()]
    assert squares.tolist() == (units * units).tolist()
    # each share is a contiguous run of chunks in one process, this process's first
    starts = np.flatnonzero(np.diff(pids, prepend=-1))
    assert np.diff([*starts, 6]).tolist() == runs
    assert pids[0] == os.getpid() and len(set(pids.tolist())) == len(runs)
    assert multiprocessing.active_children() == []


# six chunks of one unit: at 2 workers this process runs units 0-2 and one
# worker process units 3-5; at 4 workers the shares are 0, 1-2, 3 and 4-5,
# so a worker's failure can come before another worker's
@pytest.mark.parametrize("workers, raises_at", [
    (2, (2,)), (2, (3,)), (2, (0, 5)), (2, (4, 5)),
    (4, (2, 3)), (4, (1, 5)), (4, (5, 1, 3)), (4, (4, 0)),
], ids=["caller", "worker", "caller-first", "worker-twice",
        "worker-first", "worker-first-early", "three-workers", "caller-first-of-four"])
def test_a_failing_chunk_raises_what_one_worker_raises(fan_out_deadline, workers, raises_at):
    chunk = _FailingChunk(raises_at)
    with pytest.raises(ConfigError) as serial:
        experiments._map_chunks(chunk, 6, 1, policies.SWEEP_BYTES, 1)
    with pytest.raises(ConfigError) as fanned:
        experiments._map_chunks(chunk, 6, workers, policies.SWEEP_BYTES, 1)
    # the first failing chunk's error, in chunk order, with its type and fields
    assert str(fanned.value) == str(serial.value) == f"unit: chunk {min(raises_at)} failed"
    assert fanned.value.field == "unit"
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_raises(fan_out_deadline):
    with pytest.raises(RuntimeError, match="exited with code 3"):
        experiments._map_chunks(_FailingChunk(exits_at=3), 6, 2, policies.SWEEP_BYTES, 1)
    assert multiprocessing.active_children() == []
    # at three workers (shares 0-1, 2-3 and 4-5) the other worker, still in
    # its chunk, is ended with it
    with pytest.raises(RuntimeError, match="exited with code 3"):
        experiments._map_chunks(
            _FailingChunk(exits_at=2, hangs_at=4), 6, 3, policies.SWEEP_BYTES, 1
        )
    assert multiprocessing.active_children() == []
    # a failure in this process's own share ends the workers it started too
    with pytest.raises(ConfigError, match="chunk 0 failed"):
        experiments._map_chunks(_FailingChunk((0,)), 6, 3, policies.SWEEP_BYTES, 1)
    assert multiprocessing.active_children() == []


class TestCli:
    def test_policy_compare_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "cli.csv"
        code = main([
            "policy-compare", "--seed", "5", "--out", str(out),
            "--set", "T=4", "--set", "episodes=3", "--set", "G=10", "--set", "K=5",
            "--set", "B=1.0",
        ])
        assert code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_bad_set_value_exits_1(self, tmp_path, capsys):
        code = main(["policy-compare", "--set", "alpha=nope", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "alpha" in capsys.readouterr().err

    def test_fractional_refresh_stride_exits_1(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        code = main(["adaptive", "--set", "refresh_grid=2.5,2", "--out", str(out)])
        assert code == 1
        assert "refresh_grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["policy-compare", "violation-curve", "relax"])
    def test_zero_demand_exits_1_before_any_episode(self, tmp_path, capsys, command):
        out = tmp_path / "z.csv"
        code = main([command, "--set", "demand=constant:0", "--out", str(out)])
        assert code == 1
        assert "demand" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec, file_text, message", [
        ("file", "1.0\nabc\n1.0\n", "demand file {path}:2: cannot parse demand from 'abc'"),
        ("file", "1.0\n1.0\nnan\n", "demand file {path}:3: demand must be finite and >= 0"),
        ("file", "1.0\n-0.5\n1.0\n", "demand file {path}:2: demand must be finite and >= 0"),
        ("vector:1,-1,1", None, "demand vector: demand must be finite and >= 0, got '-1'"),
        ("vector:1,inf,1", None, "demand vector: demand must be finite and >= 0, got 'inf'"),
        ("constant:nan", None, "constant demand: demand must be finite and >= 0, got 'nan'"),
    ], ids=["file-unparsable", "file-nan", "file-negative", "vector-negative", "vector-inf",
            "constant-nan"])
    def test_malformed_demand_exits_1(self, tmp_path, capsys, spec, file_text, message):
        path = tmp_path / "demand.txt"
        if file_text is not None:
            path.write_text(file_text)
            spec = f"file:{path}"
        out = tmp_path / "d.csv"
        code = main(["policy-compare", "--set", "T=3", "--set", f"demand={spec}",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: demand: " + message.format(path=path))
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["policy-compare", "violation-curve", "relax"])
    def test_initial_fill_covering_demand_exits_1_before_any_episode(
        self, tmp_path, capsys, command
    ):
        # 24 slots of 0.1 or 0.2 fit in a full store of 5
        for demand in ("constant:0.1", "constant:0.2"):
            out = tmp_path / "s.csv"
            code = main([
                command, "--set", "s0=5", "--set", f"demand={demand}",
                "--set", "episodes=3", "--out", str(out),
            ])
            assert code == 1
            err = capsys.readouterr().err
            assert "demand" in err and "s0" in err
            assert not out.exists()

    def test_relax_unclamped_nonpositive_bound_exits_1_before_any_episode(self, tmp_path, capsys):
        # the AR(1) marginal std is 10/3, so mu - 3 std rounds just below 0
        out = tmp_path / "r.csv"
        code = main(["relax", "--set", "clamp_m=false", "--out", str(out)])
        assert code == 1
        assert "clamp_m" in capsys.readouterr().err
        assert not out.exists()

    def test_adaptive_unclamped_exits_1_before_any_round(self, tmp_path, capsys):
        # the warmup of 10 draws from N(7, 2^2) estimates a lower bound of -0.306
        out = tmp_path / "a.csv"
        code = main([
            "adaptive", "--seed", "3", "--set", "T=8", "--set", "B=2.0", "--set", "rounds=3",
            "--set", "G=20", "--set", "K=9", "--set", "episodes=6",
            "--set", "warmup_grid=10,40", "--set", "refresh_grid=inf,1,2",
            "--set", "clamp_m=false", "--set", "mu=7.0", "--set", "sigma=2.0",
            "--out", str(out),
        ])
        assert code == 1
        assert "clamp_m" in capsys.readouterr().err
        assert not out.exists()

    def test_policy_compare_unclamped_nonpositive_bound_exits_1_before_any_episode(
        self, tmp_path, capsys
    ):
        out = tmp_path / "p.csv"
        code = main(["policy-compare", "--set", "clamp_m=false", "--set", "mu=5", "--out", str(out)])
        assert code == 1
        assert "clamp_m" in capsys.readouterr().err
        assert not out.exists()

    def test_short_held_out_history_exits_1_before_any_round(
        self, tmp_path, capsys, monkeypatch
    ):
        # 30 - 10 held-out values cannot fill one 24-slot evaluation window;
        # n=2 alone would fit, but the check covers the whole grid up front
        monkeypatch.setattr(experiments, "violation_rounds", _no_rounds)
        history = tmp_path / "h.csv"
        history.write_text("\n".join(str(10.0 + i % 3) for i in range(30)) + "\n")
        out = tmp_path / "v.csv"
        code = main([
            "violation-curve", "--set", f"history={history}", "--set", "eval_source=held-out",
            "--set", "resample_mode=prefix", "--set", "n_grid=2,10", "--out", str(out),
        ])
        assert code == 1
        assert "held-out history too short: 20 < horizon 24" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["prefix", "random-window"])
    def test_history_shorter_than_largest_n_exits_1_before_any_round(
        self, tmp_path, capsys, monkeypatch, mode
    ):
        monkeypatch.setattr(experiments, "violation_rounds", _no_rounds)
        history = tmp_path / "h.csv"
        history.write_text("\n".join(str(10.0 + i % 3) for i in range(6)) + "\n")
        out = tmp_path / "v.csv"
        code = main([
            "violation-curve", "--set", f"history={history}", "--set", f"resample_mode={mode}",
            "--set", "n_grid=5,10", "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "configuration error: history:" in err
        assert f"n=10 exceeds history length 6 for mode '{mode}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, sets, field", [
        ("policy-compare", ["sigma=inf"], "sigma"),
        ("relax", ["sigma=inf"], "sigma"),
        ("policy-compare", ["clamp_lo=nan", "clamp_hi=nan"], "clamp_lo"),
        ("policy-compare", ["clamp_lo=8", "clamp_hi=nan"], "clamp_hi"),
        ("violation-curve", ["clamp_lo=nan", "clamp_hi=nan"], "clamp_lo"),
        ("estimate", ["mu=nan"], "mu"),
        ("policy-compare", ["mu=inf"], "mu"),
        ("violation-curve", ["mu=-inf"], "mu"),
        ("estimate", ["model=lognormal", "log_mu=nan"], "log_mu"),
        ("policy-compare", ["model=lognormal", "log_sigma=inf"], "log_sigma"),
        ("policy-compare", ["B=nan"], "B"),
        ("policy-compare", ["B=inf"], "B"),
    ])
    def test_non_finite_model_parameter_exits_1(self, tmp_path, capsys, command, sets, field):
        out = tmp_path / "f.csv"
        code = main([command, "--out", str(out), *(a for kv in sets for a in ("--set", kv))])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"configuration error: {field}: must ")
        assert not out.exists()

    def test_infinite_clamp_bounds_are_allowed(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main(["policy-compare", "--set", "episodes=2", "--set", "clamp_lo=-inf",
                     "--set", "clamp_hi=inf", "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_runtime_estimation_failure_exits_2(self, tmp_path, capsys):
        # negative-mean prices make the lower bound nonpositive; clamp disabled
        history = tmp_path / "h.csv"
        rng = np.random.default_rng(8)
        history.write_text("\n".join(str(v) for v in rng.normal(0.0, 5.0, 50)) + "\n")
        code = main([
            "estimate", "--set", f"history={history}", "--set", "clamp_m=false",
            "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 2
        assert "run failed" in capsys.readouterr().err

    def test_capacity_whose_grid_steps_round_to_zero_exits_1(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code = main([
            "policy-compare", "--seed", "3", "--set", "T=4", "--set", "B=5e-324",
            "--set", "rounds=2", "--set", "G=10", "--set", "K=5", "--set", "n_grid=10",
            "--set", "history_size=200", "--out", str(out),
        ])
        assert code == 1
        assert "configuration error: B:" in capsys.readouterr().err
        assert not out.exists()

    def test_env_seed_honored_and_flag_wins(self, tmp_path, monkeypatch):
        # the estimate record depends on the seed through the synthesized history
        out1 = tmp_path / "e1.csv"
        out2 = tmp_path / "e2.csv"
        out3 = tmp_path / "e3.csv"
        args = ["estimate", "--set", "history_size=500"]
        monkeypatch.setenv("STORELAB_SEED", "111")
        assert main(args + ["--out", str(out1)]) == 0
        monkeypatch.delenv("STORELAB_SEED")
        assert main(args + ["--seed", "111", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        monkeypatch.setenv("STORELAB_SEED", "111")
        assert main(args + ["--seed", "222", "--out", str(out3)]) == 0
        assert out3.read_bytes() != out1.read_bytes()

    def test_bad_env_seed_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("STORELAB_SEED", "not-a-number")
        for command in ("estimate", "relax"):
            code = main([command, "--out", str(tmp_path / "x.csv")])
            assert code == 1
            assert "STORELAB_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, field", [
        (["model=lognormal"], "model"),
        (["scenarios=lognormal", "mu=-1"], "mu"),
    ])
    def test_relax_config_errors_exit_1_before_any_episode(
        self, tmp_path, capsys, overrides, field
    ):
        out = tmp_path / "r.csv"
        code = main(["relax", *(a for o in overrides for a in ("--set", o)), "--out", str(out)])
        assert code == 1
        assert f"configuration error: {field}:" in capsys.readouterr().err
        assert not out.exists()

    def test_flags_win_over_set_and_env(self, tmp_path, monkeypatch):
        # kind, then --set, then STORELAB_SEED, then --seed and --out
        seen = []
        monkeypatch.setitem(cli._SUBCOMMANDS, "estimate", lambda config, workers: seen.append(config))
        monkeypatch.setenv("STORELAB_SEED", "5")
        out = str(tmp_path / "flag.csv")
        assert main(["estimate", "--set", "seed=4", "--set", "out=set.csv", "--set", "mu=9",
                     "--out", out]) == 0
        assert main(["estimate", "--set", "kind=adaptive", "--seed", "6"]) == 0
        assert [(c.kind, c.seed, c.out, c.mu) for c in seen] == [
            ("estimate", 5, out, 9.0), ("adaptive", 6, "report.csv", 10.0)]
