"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds (visible with
``pytest tests/test_acceptance.py -v -s``).  Tolerances are fixed here and
match the documented contract; seeds are frozen so runs are reproducible.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from storelab import (
    Clamped,
    DpPolicy,
    Empirical,
    ExperimentConfig,
    Instance,
    Normal,
    StorageSpec,
    ThresholdPolicy,
    bound_violation_probability,
    brute_force_optimal,
    build_value_table,
    feasible_purchase_range,
    generate,
    offline_costs,
    offline_optimal,
    regret,
    simulate,
    simulate_batch,
)
from storelab.experiments import (
    run_adaptive_convergence,
    run_estimate,
    run_policy_compare,
    run_relaxation,
    run_violation_curve,
    summary_path,
)
from storelab.seeds import stream
from storelab.special import chi2_cdf, chi2_quantile, t_cdf, t_quantile

from conftest import random_aligned_instance


def _report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


REFERENCE = Instance.constant(24, 1.0, StorageSpec(capacity=5.0, initial_level=0.0))


class TestCriterion1CiCoverage:
    def test_interval_coverage(self):
        trials, n, alpha = 10_000, 30, 0.05
        rng = stream(101)
        data = rng.standard_normal((trials, n))
        means = data.mean(axis=1)
        stds = data.std(ddof=1, axis=1)
        # identical construction to mu_interval / sigma_interval, vectorized
        t_crit = t_quantile(1 - alpha / 2, n - 1)
        chi_hi = chi2_quantile(1 - alpha / 2, n - 1)
        chi_lo = chi2_quantile(alpha / 2, n - 1)
        half = t_crit * stds / math.sqrt(n)
        mu_cov = float(np.mean((means - half <= 0.0) & (0.0 <= means + half)))
        sig_lo = stds * math.sqrt((n - 1) / chi_hi)
        sig_hi = stds * math.sqrt((n - 1) / chi_lo)
        sigma_cov = float(np.mean((sig_lo <= 1.0) & (1.0 <= sig_hi)))

        # spot check that the vectorized construction equals the API
        from storelab import SampleStats, mu_interval, sigma_interval

        for i in (0, 7, 42):
            stats = SampleStats(n, float(means[i]), float(stds[i]))
            lo, hi = mu_interval(stats, alpha)
            assert lo == pytest.approx(means[i] - half[i], rel=1e-12)
            assert hi == pytest.approx(means[i] + half[i], rel=1e-12)
            slo, shi = sigma_interval(stats, alpha)
            assert slo == pytest.approx(sig_lo[i], rel=1e-12)
            assert shi == pytest.approx(sig_hi[i], rel=1e-12)

        assert 0.94 <= mu_cov <= 0.96, f"mu coverage {mu_cov}"
        assert 0.94 <= sigma_cov <= 0.96, f"sigma coverage {sigma_cov}"
        _report("criterion 1 (CI coverage)", f"mu={mu_cov:.4f} sigma={sigma_cov:.4f}")


class TestCriterion2QuantileAnchors:
    def test_anchors_and_round_trip(self):
        assert t_quantile(0.975, 10) == pytest.approx(2.2281, abs=1e-3)
        assert chi2_quantile(0.975, 10) == pytest.approx(20.483, abs=1e-2)
        assert chi2_quantile(0.5, 2) == pytest.approx(2 * math.log(2), abs=1e-6)
        worst = 0.0
        for df in (1, 2, 5, 30, 1000):
            for p in np.arange(0.01, 1.0, 0.01):
                p = float(p)
                worst = max(worst, abs(t_cdf(t_quantile(p, df), df) - p))
                worst = max(worst, abs(chi2_cdf(chi2_quantile(p, df), df) - p))
        assert worst <= 1e-7, f"round-trip error {worst}"
        _report("criterion 2 (quantile anchors)", f"worst round-trip {worst:.2e}")


class TestCriterion3ThreeSigmaMass:
    def test_mass_inside_bounds(self):
        series = generate(Normal(10.0, 2.0), 10**6, stream(301))
        inside = float(np.mean((series >= 4.0) & (series <= 16.0)))
        assert abs(inside - 0.9973) <= 0.002, f"mass {inside}"
        _report("criterion 3 (three-sigma mass)", f"P(m<=p<=M)={inside:.5f}")


class TestCriterion4ThresholdIdentity:
    def test_identity_on_random_bounds(self):
        from storelab import threshold_price

        rng = stream(401)
        worst = 0.0
        for _ in range(1000):
            lower = float(rng.uniform(1e-3, 1e3))
            upper = lower * float(rng.uniform(1.0, 1e4))
            theta = threshold_price(upper, lower)
            rel = abs(theta * theta - upper * lower) / (upper * lower)
            worst = max(worst, rel)
        assert worst <= 1e-15, f"relative error {worst}"
        _report("criterion 4 (threshold identity)", f"worst relative error {worst:.2e}")


class TestCriterion5CompetitiveRatioGuarantee:
    def test_bounded_prices_never_exceed_the_bound(self):
        lower, upper = 4.0, 16.0
        bound = math.sqrt(upper / lower)  # 2.0
        theta = math.sqrt(upper * lower)  # 8.0
        model = Clamped(Normal(10.0, 2.0), lower, upper)
        prices = np.array([generate(model, REFERENCE.horizon, stream(5501, i)) for i in range(2000)])
        alg = simulate_batch(REFERENCE, prices, ThresholdPolicy(theta)).total_cost
        opt = offline_costs(REFERENCE, prices, 100).total_cost
        crs = alg / opt
        assert np.all(crs <= bound), f"series {int(np.argmax(crs))}: CR {crs.max()} exceeds {bound}"
        assert np.all(crs >= 1.0 - 1e-9)
        _report("criterion 5 (CR guarantee)", f"max CR {crs.max():.4f} <= {bound}")


class TestCriterion6OracleEquivalence:
    def test_offline_matches_brute_force(self):
        rng = np.random.default_rng(601)
        worst = 0.0
        for _ in range(200):
            inst = random_aligned_instance(rng)
            prices = rng.uniform(1.0, 10.0, inst.horizon)
            grid_size = max(2, round(inst.storage.capacity / 0.25))
            off = offline_optimal(inst, prices, grid_size).total_cost
            bf = brute_force_optimal(inst, prices, 0.25)
            worst = max(worst, abs(off - bf))
            assert abs(off - bf) <= 1e-6
        _report("criterion 6a (oracle equivalence)", f"max |offline-brute| {worst:.2e}")

    def test_dp_matches_exhaustive_enumeration(self):
        inst = Instance(3, np.ones(3), StorageSpec(1.0))
        table = build_value_table(inst, Empirical([1.0, 3.0]), grid_size=100, atom_count=10)
        step = 0.5

        def value(t, level, price):
            if t == 3:
                return 0.0
            q_lo, q_hi = feasible_purchase_range(inst.storage, level, 1.0)
            best = math.inf
            for k in range(math.ceil((q_lo - 1e-9) / step), math.floor((q_hi + 1e-9) / step) + 1):
                q = k * step
                nxt = level + q - 1.0
                best = min(best, price * q + 0.5 * (value(t + 1, nxt, 1.0) + value(t + 1, nxt, 3.0)))
            return best

        expected = 0.5 * (value(0, 0.0, 1.0) + value(0, 0.0, 3.0))
        pol = DpPolicy(table)
        costs = [
            simulate(inst, np.asarray(path), pol).total_cost
            for path in itertools.product([1.0, 3.0], repeat=3)
        ]
        got = float(np.mean(costs))
        assert got == pytest.approx(expected, abs=1e-6)
        assert table.values[0, 0] == pytest.approx(expected, abs=1e-6)
        _report("criterion 6b (dp vs enumeration)", f"|E[cost]-enum| {abs(got - expected):.2e}")


class TestCriterion7DpDominance:
    def test_dominance_and_positive_regret(self):
        table = build_value_table(REFERENCE, Normal(10.0, 2.0), 100, 51)
        dp = DpPolicy(table)
        thb = ThresholdPolicy(8.0)  # sqrt((10+6)(10-6)) from the true parameters
        prices = np.array([
            generate(Normal(10.0, 2.0), REFERENCE.horizon, stream(7701, 1, e)) for e in range(1000)
        ])
        dp_costs = simulate_batch(REFERENCE, prices, dp).total_cost
        thb_costs = simulate_batch(REFERENCE, prices, thb).total_cost
        opt_costs = offline_costs(REFERENCE, prices, 100).total_cost
        dp_mean = float(np.mean(dp_costs))
        thb_mean = float(np.mean(thb_costs))
        assert dp_mean <= thb_mean * 1.005, f"dp {dp_mean} vs thb {thb_mean}"
        rep = regret(dp_costs, opt_costs)
        assert rep.mean > 3.0 * rep.stderr, f"regret {rep.mean} +- {rep.stderr}"
        _report(
            "criterion 7 (dp dominance, positive regret)",
            f"dp {dp_mean:.2f} <= thb {thb_mean:.2f}; regret {rep.mean:.2f} ({rep.mean / rep.stderr:.0f} se)",
        )


class TestCriterion8ViolationTrend:
    def test_nonincreasing_in_sample_size(self):
        history = generate(Normal(10.0, 2.0), 10**5, stream(8101, 90))
        # the reference instance with prices N(10, 2^2) clamped to [4, 16]
        config = ExperimentConfig(
            kind="violation-curve", clamp_lo=4.0, clamp_hi=16.0,
            rounds=200, eval_episodes=2, seed=8101, clamp_m=True,
        )
        reports = [bound_violation_probability(config, history, n) for n in (10, 100, 1000)]
        for prev, cur in zip(reports, reports[1:]):
            slack = 2.0 * math.hypot(prev.stderr, cur.stderr)
            assert cur.p_hat <= prev.p_hat + slack, (
                f"p_hat rose from {prev.p_hat} (n={prev.n}) to {cur.p_hat} (n={cur.n})"
            )
        detail = " -> ".join(f"{r.p_hat:.3f}@n={r.n}" for r in reports)
        _report("criterion 8 (violation trend)", detail)


class TestCriterion9AdaptiveConvergence:
    def test_regret_shrinks_with_warmup(self, tmp_path):
        config = ExperimentConfig(
            kind="adaptive", T=24, B=5.0, s0=0.0, mu=10.0, sigma=2.0,
            warmup_grid=(10, 100, 1000, 10000), refresh_grid=(math.inf,),
            rounds=8, episodes=25, family="dp", G=100, K=51,
            seed=9201, out=str(tmp_path / "adaptive.csv"),
        )
        rows = run_adaptive_convergence(config)
        assert [r.warmup for r in rows] == [10, 100, 1000, 10000]
        for prev, cur in zip(rows, rows[1:]):
            slack = 2.0 * math.hypot(prev.stderr_vs_dp, cur.stderr_vs_dp)
            assert cur.regret_vs_dp <= prev.regret_vs_dp + slack
        final = rows[-1]
        assert abs(final.regret_vs_dp) <= 0.02 * final.mean_cost, (
            f"final regret {final.regret_vs_dp} vs mean cost {final.mean_cost}"
        )
        detail = " -> ".join(f"{r.regret_vs_dp:+.3f}@{r.warmup}" for r in rows)
        _report("criterion 9 (adaptive convergence)", detail)


class TestCriterion10Determinism:
    def test_byte_identical_across_workers_and_reruns(self, tmp_path):
        # family=dp with stride 3 < T exercises the adaptive reference pass
        # and the partial value-table rebuilds.  40 policy-compare and relax
        # episodes put the oracle's 32-row block boundary at a different row
        # for 1, 2 and 3 workers (one chunk of 40, two of 20, 13 + 13 + 14).
        base = ExperimentConfig(
            T=8, B=2.0, G=20, K=11, rounds=8, eval_episodes=2, episodes=12,
            n_grid=(5, 25), warmup_grid=(10, 50), refresh_grid=(math.inf, 3.0),
            family="dp", seed=1001,
        )
        episodes = {"policy-compare": 40, "relax": 40}
        outputs = []
        for kind, runner in (
            ("estimate", run_estimate),
            ("violation-curve", run_violation_curve),
            ("policy-compare", run_policy_compare),
            ("adaptive", run_adaptive_convergence),
            ("relax", run_relaxation),
        ):
            runs = [("w1", 1), ("w2", 2), ("w1b", 1)]
            if kind in ("violation-curve", "policy-compare", "relax"):
                runs.append(("w3", 3))  # uneven chunks: 8 rounds as 2, 3, 3
            blobs = []
            for tag, workers in runs:
                out = tmp_path / f"{kind}-{tag}.csv"
                config = replace(base, kind=kind, out=str(out),
                                 episodes=episodes.get(kind, base.episodes))
                runner(config, workers=workers)
                blob = out.read_bytes()
                if kind == "policy-compare":
                    blob += summary_path(out).read_bytes()
                blobs.append(blob)
            assert blobs[0] == blobs[1], f"{kind}: workers changed the output"
            assert blobs[0] == blobs[2], f"{kind}: rerun changed the output"
            assert all(b == blobs[0] for b in blobs[3:]), f"{kind}: 3 workers changed the output"
            outputs.append(kind)
        _report("criterion 10 (determinism)", f"byte-identical: {', '.join(outputs)}")
