from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import integrate
from scipy import stats as st

from storelab import (
    ConfigError,
    DpPolicy,
    ExperimentConfig,
    Instance,
    Normal,
    StorageSpec,
    ThresholdPolicy,
    bound_violation_probability,
    build_value_table,
    competitive_ratio,
    generate,
    offline_optimal,
    regret,
    simulate,
)
from storelab import experiments
from storelab.metrics import offline_costs
from storelab.policies import storage_grid
from storelab.seeds import stream

from conftest import brute_force_optimal, hindsight_table, random_aligned_instance


class TestOfflineOptimal:
    def test_constant_price_identity(self):
        inst = Instance.constant(5, 1.0, StorageSpec(2.0, initial_level=1.5))
        traj = offline_optimal(inst, np.full(5, 3.0), grid_size=20)
        assert traj.total_cost == pytest.approx(3.0 * (5.0 - 1.5), rel=1e-9)

    def test_buy_ahead_of_a_price_spike(self):
        inst = Instance(2, np.array([1.0, 1.0]), StorageSpec(1.0))
        traj = offline_optimal(inst, [1.0, 3.0], grid_size=4)
        assert traj.total_cost == pytest.approx(2.0, abs=1e-9)
        assert traj.purchases[0] == pytest.approx(2.0)

    def test_ascending_prices_match_brute_force(self):
        rng = np.random.default_rng(99)
        for _ in range(5):
            inst = random_aligned_instance(rng)
            prices = np.sort(rng.uniform(1.0, 10.0, inst.horizon))
            grid_size = max(2, round(inst.storage.capacity / 0.25))
            off = offline_optimal(inst, prices, grid_size).total_cost
            bf = brute_force_optimal(inst, prices, 0.25)
            assert off == pytest.approx(bf, abs=1e-9)

    def test_oracle_never_beaten_by_policies(self, reference_instance):
        rng = np.random.default_rng(5)
        table = build_value_table(reference_instance, Normal(10.0, 2.0), 21)
        policies = [ThresholdPolicy(8.0), DpPolicy(table)]
        for _ in range(20):
            prices = rng.normal(10.0, 2.0, 24)
            opt = offline_optimal(reference_instance, prices, 100).total_cost
            for pol in policies:
                alg = simulate(reference_instance, prices, pol).total_cost
                assert alg >= opt - 1e-9
                assert competitive_ratio(alg, opt) >= 1.0 - 1e-9

    def test_mean_cost_matches_the_exact_expectation(self, reference_instance):
        # With capacity 5, unit demand and an empty start, slot t's unit is
        # bought at the cheapest of the last min(t + 1, 6) prices, so with
        # i.i.d. N(10, 2^2) prices E[OPT] = sum_{k=1..6} E[min of k] +
        # 18 E[min of 6].  The grid (step 0.05) holds every level exactly.
        def expected_min(k):
            def integrand(x):
                return x * k * st.norm.pdf(x, 10.0, 2.0) * st.norm.sf(x, 10.0, 2.0) ** (k - 1)
            return integrate.quad(integrand, -np.inf, np.inf)[0]

        exact = sum(expected_min(k) for k in range(1, 7)) + 18 * expected_min(6)
        assert exact == pytest.approx(184.6405, abs=1e-4)
        prices = generate(Normal(10.0, 2.0), 24 * 2000, stream(11)).reshape(2000, 24)
        costs = offline_costs(reference_instance, prices, 100)
        stderr = costs.std(ddof=1) / np.sqrt(costs.size)
        assert abs(costs.mean() - exact) < 4.0 * stderr

    def test_short_price_series_rejected(self):
        inst = Instance.constant(3, 1.0, StorageSpec(1.0))
        with pytest.raises(ValueError):
            offline_optimal(inst, [1.0, 2.0])


class TestHindsightTable:
    """The oracle's value before slot 0, read at the initial fill, is its cost.

    On a grid that holds every demand, the capacity and the initial fill,
    the table's values are the exact optimum of each series, so they must
    agree with the greedy pass's cost to within rounding.
    """

    @staticmethod
    def _assert_start_values_are_costs(instance, prices, grid_size, realized=None):
        grid = storage_grid(instance.storage.capacity, grid_size)
        demand = instance.demand if realized is None else realized
        table = hindsight_table(instance, prices, grid, demand)
        s0 = instance.storage.initial_level
        start = [np.interp(s0, grid, row) for row in table.values[0]]
        costs = offline_costs(instance, prices, grid_size, realized_demand=realized)
        scale = np.abs(prices).mean() * np.sum(demand, axis=-1)  # a cost's size
        assert np.all(np.abs(start - costs) <= 1e-12 * scale)

    @pytest.mark.parametrize("mu", [10.0, 1.0])  # N(1, 2^2) prices go negative
    def test_unit_demand(self, reference_instance, mu):
        prices = generate(Normal(mu, 2.0), 24 * 256, stream(31)).reshape(256, 24)
        self._assert_start_values_are_costs(reference_instance, prices, 100)

    def test_vector_demand(self):
        inst = Instance(6, np.array([0.5, 1.0, 0.0, 1.5, 0.25, 1.0]), StorageSpec(2.0, 0.5))
        prices = generate(Normal(2.0, 3.0), 6 * 256, stream(32)).reshape(256, 6)
        self._assert_start_values_are_costs(inst, prices, 8)

    def test_realized_demand(self):
        inst = Instance(6, np.array([0.5, 1.0, 0.0, 1.5, 0.25, 1.0]), StorageSpec(2.0, 0.5))
        prices = generate(Normal(2.0, 3.0), 6 * 64, stream(33)).reshape(64, 6)
        realized = 0.25 * np.random.default_rng(34).integers(0, 8, (64, 6))
        self._assert_start_values_are_costs(inst, prices, 8, realized)


class TestBruteForce:
    def test_single_slot(self):
        inst = Instance.constant(1, 1.0, StorageSpec(2.0, initial_level=0.5))
        assert brute_force_optimal(inst, [4.0], 0.25) == pytest.approx(2.0)

    def test_guards(self):
        with pytest.raises(ValueError):
            brute_force_optimal(Instance.constant(7, 1.0, StorageSpec(1.0)), np.ones(7), 0.5)
        with pytest.raises(ValueError):
            # 1 demand + capacity 2 over step 0.1 -> 30 lattice steps per slot
            brute_force_optimal(Instance.constant(2, 1.0, StorageSpec(2.0)), np.ones(2), 0.1)

    def test_agrees_with_offline_on_aligned_instances(self):
        rng = np.random.default_rng(123)
        for _ in range(40):
            inst = random_aligned_instance(rng)
            prices = rng.uniform(1.0, 10.0, inst.horizon)
            grid_size = max(2, round(inst.storage.capacity / 0.25))
            off = offline_optimal(inst, prices, grid_size).total_cost
            bf = brute_force_optimal(inst, prices, 0.25)
            assert off == pytest.approx(bf, abs=1e-7)


class TestRatioAndRegret:
    def test_competitive_ratio_values(self):
        assert competitive_ratio(10.0, 10.0) == 1.0
        assert competitive_ratio(20.0, 10.0) == 2.0

    def test_zero_optimal_cost_is_an_error(self):
        with pytest.raises(ValueError):
            competitive_ratio(1.0, 0.0)

    def test_arrays_give_the_scalar_division_bits(self):
        rng = np.random.default_rng(17)
        alg = rng.uniform(0.1, 400.0, (3, 64))
        opt = rng.uniform(0.1, 400.0, 64)
        want = np.array([
            [competitive_ratio(a, o) for a, o in zip(row, opt.tolist())] for row in alg.tolist()
        ])
        got = competitive_ratio(alg, opt)
        assert got.shape == (3, 64)
        assert got.tobytes() == want.tobytes()
        assert type(competitive_ratio(3.0, 2.0)) is float

    def test_arrays_raise_at_the_first_nonpositive_cost_in_row_major_order(self):
        opt = np.array([[2.0, 5.0, -0.25], [0.0, -3.5, 1.0]])  # -0.25 comes first
        with pytest.raises(ValueError) as scalar:
            competitive_ratio(1.0, -0.25)
        with pytest.raises(ValueError) as batch:
            competitive_ratio(np.ones((2, 3)), opt)
        assert str(batch.value) == str(scalar.value)
        assert str(batch.value) == "competitive ratio undefined for opt_cost=-0.25"
        with pytest.raises(ValueError, match=r"opt_cost=0\.0$"):
            competitive_ratio(np.ones((3, 4)), np.array([1.0, 0.0, -2.0, 3.0]))

    def test_regret_identical_vectors(self):
        report = regret([5.0, 7.0], [5.0, 7.0])
        assert report.mean == 0.0

    def test_regret_arithmetic(self):
        report = regret([3.0, 5.0], [2.0, 4.0])
        assert report.mean == 1.0
        assert report.diffs.tolist() == [1.0, 1.0]
        assert report.stderr == 0.0

    def test_regret_length_mismatch(self):
        with pytest.raises(ValueError):
            regret([1.0], [1.0, 2.0])


def violation_config(**kw) -> ExperimentConfig:
    """A violation-curve config; the defaults are the reference instance and N(10, 2^2)."""
    return ExperimentConfig(kind="violation-curve", **kw)


class TestViolationProbability:
    def test_degenerate_constant_history(self):
        # every sample of a constant history has zero spread, so its bounds
        # collapse to the one price: a ratio bound of 1 is no estimate, and
        # every round counts as a failure, none as a violation
        history = np.full(50, 7.0)
        config = violation_config(
            T=4, B=0.0, mu=7.0, sigma=1e-12,
            rounds=5, eval_episodes=2, seed=21, clamp_m=True,
        )
        report = bound_violation_probability(config, history, 10)
        assert report.p_hat == 0.0
        assert (report.failures, report.violations) == (config.rounds, 0)
        for values in (report.theta_hat, report.cr_bound, report.cr):
            assert np.isnan(values).all()

    def test_bounded_prices_never_violate(self):
        # the guarantee setting: evaluation prices clamped into the round's
        # estimated [lower, upper] never push the ratio past sqrt(upper/lower)
        history = generate(Normal(10.0, 2.0), 5000, seed=31)
        config = violation_config(
            rounds=100, eval_episodes=1, seed=32,
            clamp_m=True, clamp_eval_to_bounds=True, verdict="any",
        )
        report = bound_violation_probability(config, history, 1000)
        assert report.violations == 0
        assert report.failures == 0

    def test_fixed_seed_reproduces_violated_round_set(self):
        history = generate(Normal(10.0, 2.0), 2000, seed=41)
        config = violation_config(rounds=30, eval_episodes=2, seed=42, clamp_m=True)
        a = bound_violation_probability(config, history, 10)
        b = bound_violation_probability(config, history, 10)
        assert (a.cr > a.cr_bound).tolist() == (b.cr > b.cr_bound).tolist()
        assert a.p_hat == b.p_hat

    def test_failures_counted_not_dropped(self):
        # heavy-tailed history around zero makes nonpositive lower bounds common
        history = generate(Normal(0.0, 5.0), 2000, seed=51)
        config = violation_config(rounds=40, eval_episodes=1, seed=52, clamp_m=False)
        report = bound_violation_probability(config, history, 5)
        assert report.failures > 0
        assert np.count_nonzero(np.isnan(report.cr)) == report.failures

    def test_held_out_evaluation(self):
        history = generate(Normal(10.0, 2.0), 500, seed=61)
        config = violation_config(
            rounds=10, eval_episodes=2, seed=62,
            resample_mode="prefix", eval_source="held-out", clamp_m=True,
        )
        report = bound_violation_probability(config, history, 100)
        assert report.rounds == 10
        # prefix estimation from the first 100 values is round-independent
        thetas = set(report.theta_hat.tolist())
        assert len(thetas) == 1

    def test_parameter_validation(self, monkeypatch):
        def no_rounds(*args):
            raise AssertionError("a round ran")

        monkeypatch.setattr(experiments, "violation_rounds", no_rounds)
        history = np.arange(10.0) + 1.0
        config = violation_config(rounds=1, eval_episodes=1, seed=0)
        with pytest.raises(ValueError, match="sample size"):
            bound_violation_probability(config, history, 1)
        with pytest.raises(ConfigError, match="verdict"):
            bound_violation_probability(replace(config, verdict="sometimes"), history, 5)
        # 10 - 5 held-out values cannot fill one 24-slot window
        held_out = replace(config, eval_source="held-out", resample_mode="prefix")
        with pytest.raises(ValueError, match="held-out history too short: 5 < horizon 24"):
            bound_violation_probability(held_out, history, 5)
        with pytest.raises(ConfigError, match="cannot bootstrap an empty history"):
            bound_violation_probability(config, [], 5)


class TestBootstrapPrefixes:
    @given(
        hst.sampled_from((3, 10**5, 2**31, 2**32 + 5)),
        hst.integers(2, 3000),
        hst.lists(hst.integers(1, 3000), max_size=4),
        hst.integers(0, 2**32 - 1),
        hst.integers(0, 10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_prefixes_of_the_largest_draw_equal_per_n_draws(self, size, largest, more, seed, r):
        # a violation round draws its bootstrap indices once, at the largest
        # n, and each smaller n's sample is a prefix of that draw
        ns = {largest, largest - 1} | {n for n in more if n <= largest}  # odd and even n
        drawn = stream(seed, 0, r).integers(0, size, size=largest)
        for n in ns:
            assert np.array_equal(drawn[:n], stream(seed, 0, r).integers(0, size, size=n))


class TestMetricRows:
    def test_csv_header_and_order(self, tmp_path):
        # a tight bound, so some episodes violate it and some do not
        config = ExperimentConfig(
            kind="policy-compare", T=6, B=2.0, s0=0.0, G=20, K=11,
            mu=10.0, sigma=0.5, episodes=20, seed=123, out=str(tmp_path / "rows.csv"),
        )
        summaries = experiments.run_policy_compare(config)
        lines = (tmp_path / "rows.csv").read_text().splitlines()
        assert lines[0] == experiments.METRIC_HEADER
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        ids = sorted(s.policy_id for s in summaries)
        assert ids == ["budgeted", "dp", "threshold"]
        assert [(int(r["round"]), r["policy_id"]) for r in rows] == [
            (e, policy_id) for e in range(config.episodes) for policy_id in ids
        ]
        # the violated flag is serialized as 0/1
        assert {r["violated"] for r in rows} == {"0", "1"}
        for r in rows:
            assert r["violated"] == str(int(float(r["cr"]) > float(r["cr_bound"])))
