import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storelab import (
    DegenerateSpreadError,
    EstimationError,
    Normal,
    NonpositiveLowerBoundError,
    SampleStats,
    estimate,
    generate,
    mu_interval,
    sigma_interval,
    threshold_price,
)
from storelab import estimation
from storelab.estimation import CLAMP_EPS, clamp_lower_bound, estimate_rows


def sample_stats(data) -> SampleStats:
    """The sample statistics of ``estimate``, which clamps so that any spread estimates."""
    return estimate(data, clamp_nonpositive_lower=True).stats


class TestSampleStats:
    def test_constant_sample(self):
        stats = sample_stats([3.0, 3.0, 3.0, 3.0])
        assert stats.mean == 3.0
        assert stats.sample_std == 0.0

    def test_two_point_closed_form(self):
        stats = sample_stats([0.0, 2.0])
        assert (stats.n, stats.mean) == (2, 1.0)
        assert stats.sample_std == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_large_sample_within_sampling_bounds(self):
        # ~3 standard errors around the true values for 1e4 draws of N(5, 2^2)
        data = generate(Normal(5.0, 2.0), 10**4, seed=88)
        stats = sample_stats(data)
        assert 4.94 <= stats.mean <= 5.06
        assert 1.96 <= stats.sample_std <= 2.04

    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        data = rng.normal(0, 3, 500)
        stats = sample_stats(data)
        assert stats.mean == pytest.approx(float(data.mean()), rel=1e-12)
        assert stats.sample_std == pytest.approx(float(data.std(ddof=1)), rel=1e-12)

    def test_too_small(self):
        with pytest.raises(EstimationError, match="need at least 2 observations, got 1"):
            sample_stats([1.0])
        with pytest.raises(EstimationError, match="got 0"):
            sample_stats([])

    def test_bad_samples_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            sample_stats([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="non-finite"):
            sample_stats([1.0, np.inf, 2.0])


class TestMuInterval:
    def test_zero_spread_collapses(self):
        stats = SampleStats(n=5, mean=4.2, sample_std=0.0)
        assert mu_interval(stats, 0.05) == (4.2, 4.2)

    def test_textbook_case(self):
        # half width = (2 / sqrt(16)) * t_{0.975}(15) = 0.5 * 2.1314
        stats = SampleStats(n=16, mean=10.0, sample_std=2.0)
        lo, hi = mu_interval(stats, 0.05)
        assert lo == pytest.approx(8.934, abs=1e-3)
        assert hi == pytest.approx(11.066, abs=1e-3)

    def test_width_shrinks_as_alpha_grows(self):
        stats = SampleStats(n=12, mean=0.0, sample_std=1.0)
        widths = []
        for alpha in (0.01, 0.05, 0.2, 0.5, 0.9):
            lo, hi = mu_interval(stats, alpha)
            widths.append(hi - lo)
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_width_scales_with_inverse_sqrt_n(self):
        # same S at n and 4n: the ratio tracks 1/2 up to the t critical points
        s = 1.7
        n = 100
        w1 = np.diff(mu_interval(SampleStats(n, 0.0, s), 0.05))[0]
        w4 = np.diff(mu_interval(SampleStats(4 * n, 0.0, s), 0.05))[0]
        assert abs(w4 / w1 - 0.5) < 0.05 * 0.5


class TestSigmaInterval:
    def test_textbook_case(self):
        # sqrt(10 / 20.483) and sqrt(10 / 3.247)
        stats = SampleStats(n=11, mean=0.0, sample_std=1.0)
        lo, hi = sigma_interval(stats, 0.05)
        assert lo == pytest.approx(0.699, abs=1e-3)
        assert hi == pytest.approx(1.755, abs=1e-3)

    def test_zero_spread_errors(self):
        with pytest.raises(DegenerateSpreadError):
            sigma_interval(SampleStats(n=4, mean=1.0, sample_std=0.0), 0.05)

    def test_alpha_near_one_concentrates_at_median_point(self):
        stats = SampleStats(n=21, mean=0.0, sample_std=1.5)
        lo, hi = sigma_interval(stats, 0.999)
        from storelab.special import chi2_quantile

        center = 1.5 * math.sqrt(20 / chi2_quantile(0.5, 20))
        assert lo == pytest.approx(center, rel=1e-2)
        assert hi == pytest.approx(center, rel=1e-2)

    def test_coverage_sanity(self):
        # reduced-scale check; the acceptance suite runs the full 1e4 trials
        rng = np.random.default_rng(2024)
        data = rng.standard_normal((2000, 30))
        s = data.std(ddof=1, axis=1)
        from storelab.special import chi2_quantile

        lo = s * math.sqrt(29 / chi2_quantile(0.975, 29))
        hi = s * math.sqrt(29 / chi2_quantile(0.025, 29))
        coverage = np.mean((lo <= 1.0) & (1.0 <= hi))
        assert 0.93 <= coverage <= 0.97


class TestBoundsAndThreshold:
    def test_point_mode(self):
        # mean 10 and s 1 exactly
        report = estimate([9.0, 10.0, 11.0])
        assert (report.upper_bound, report.lower_bound) == (13.0, 7.0)

    def test_point_mode_can_go_nonpositive(self):
        fits = estimate_rows([[0.0, 1.0, 2.0]])
        assert (fits.upper_bound[0], fits.lower_bound[0]) == (4.0, -2.0)
        assert fits.failed[0]

    def test_conservative_widens(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            samples = rng.normal(8, 2, (3, int(rng.integers(5, 200))))
            point = estimate_rows(samples, 0.05, conservative=False)
            wide = estimate_rows(samples, 0.05, conservative=True)
            assert (wide.upper_bound > point.upper_bound).all()
            assert (wide.lower_bound < point.lower_bound).all()
            stats = SampleStats(samples.shape[1], point.mean[0], point.sample_std[0])
            mu_lo, mu_hi = mu_interval(stats, 0.05)
            _, sigma_hi = sigma_interval(stats, 0.05)
            assert wide.upper_bound[0] == mu_hi + 3.0 * sigma_hi
            assert wide.lower_bound[0] == mu_lo - 3.0 * sigma_hi

    def test_threshold_examples(self):
        assert threshold_price(4.0, 1.0) == pytest.approx(2.0, rel=1e-15)
        assert threshold_price(7.5, 7.5) == pytest.approx(7.5, rel=1e-15)
        assert threshold_price(13.0, 7.0) == pytest.approx(math.sqrt(91.0), rel=1e-15)

    def test_threshold_rejects_nonpositive_lower(self):
        with pytest.raises(NonpositiveLowerBoundError):
            threshold_price(4.0, -2.0)
        with pytest.raises(NonpositiveLowerBoundError):
            threshold_price(4.0, 0.0)

    def test_threshold_rejects_unordered(self):
        with pytest.raises(ValueError):
            threshold_price(1.0, 2.0)

    def test_clamp(self):
        assert clamp_lower_bound(4.0, -2.0) == pytest.approx(4e-3)
        assert clamp_lower_bound(4.0, 1.0) == 1.0

    @given(
        st.floats(0.01, 1e6),
        st.floats(1.0, 1e4),
    )
    @settings(max_examples=300, deadline=None)
    def test_threshold_squared_identity(self, lower, factor):
        upper = lower * factor
        theta = threshold_price(upper, lower)
        assert math.isclose(theta * theta, upper * lower, rel_tol=1e-15)


class TestEstimateReport:
    def test_degenerate_history_with_clamp(self):
        report = estimate([3.0, 3.0, 3.0, 3.0], 0.05, clamp_nonpositive_lower=True)
        assert report.stats.sample_std == 0.0
        assert report.mu_interval == (3.0, 3.0)
        assert report.sigma_interval == (0.0, 0.0)
        assert report.upper_bound == report.lower_bound == 3.0
        assert report.threshold == 3.0
        assert report.ratio_bound == 1.0

    def test_intervals_computed_from_stats_and_alpha(self):
        data = generate(Normal(10.0, 2.0), 300, seed=8)
        for alpha in (0.01, 0.05, 0.3):
            for conservative in (False, True):
                report = estimate(data, alpha, conservative=conservative)
                assert report.mu_interval == mu_interval(report.stats, alpha)
                assert report.sigma_interval == sigma_interval(report.stats, alpha)

    def test_bad_alpha_raises_at_call_time_in_point_mode(self):
        data = generate(Normal(10.0, 2.0), 50, seed=9)
        for alpha in (1.5, 0.0):
            with pytest.raises(ValueError, match="alpha"):
                estimate(data, alpha)

    def test_nonpositive_lower_errors_without_clamp(self):
        rng = np.random.default_rng(1)
        data = rng.normal(0.0, 5.0, 100)  # mean ~0, s ~5 so lower ~ -15
        with pytest.raises(NonpositiveLowerBoundError):
            estimate(data, 0.05)
        report = estimate(data, 0.05, clamp_nonpositive_lower=True)
        assert report.lower_clamped
        assert report.lower_bound == pytest.approx(1e-3 * report.upper_bound)

    def test_record_keys_and_values(self):
        data = generate(Normal(10.0, 2.0), 500, seed=3)
        report = estimate(data, 0.05)
        record = report.to_record()
        assert tuple(record) == (
            "n", "alpha", "mean", "s", "mu_lo", "mu_hi", "sigma_lo", "sigma_hi",
            "m_hat", "M_hat", "theta_hat", "conservative",
        )
        assert record["n"] == 500
        assert record["m_hat"] == report.lower_bound
        assert record["M_hat"] == report.upper_bound
        assert record["theta_hat"] == report.threshold
        assert record["conservative"] == 0
        assert record["theta_hat"] ** 2 == pytest.approx(
            record["M_hat"] * record["m_hat"], rel=1e-14
        )

    def test_invariants_hold_on_random_samples(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            data = rng.normal(12, 2, int(rng.integers(5, 400)))
            report = estimate(data, float(rng.uniform(0.01, 0.5)))
            assert report.mu_interval[0] <= report.stats.mean <= report.mu_interval[1]
            assert 0 <= report.sigma_interval[0] <= report.sigma_interval[1]
            assert report.lower_bound <= report.upper_bound

    def test_three_sigma_mass_quick(self):
        # reduced-scale version of the acceptance criterion
        series = generate(Normal(10.0, 2.0), 10**5, seed=55)
        inside = np.mean((series >= 4.0) & (series <= 16.0))
        assert abs(inside - 0.9973) < 0.005


def _bits(value) -> str:
    return float(value).hex()


def _scalar_estimate(sample, alpha, conservative, clamp):
    """The estimate of one sample, step by step in scalars.

    Returns (mean, s, upper, lower, clamped, theta, ratio bound); raises
    ``threshold_price``'s error where the lower bound ends up <= 0.
    """
    x = np.asarray(sample, dtype=float)
    n = x.size
    mean = float(x.mean())
    s = math.sqrt(float(np.sum((x - mean) ** 2)) / (n - 1))
    upper, lower = mean + 3.0 * s, mean - 3.0 * s
    if conservative and s > 0.0:
        stats = SampleStats(n, mean, s)
        mu_lo, mu_hi = mu_interval(stats, alpha)
        _, sigma_hi = sigma_interval(stats, alpha)
        upper, lower = mu_hi + 3.0 * sigma_hi, mu_lo - 3.0 * sigma_hi
    clamped = False
    if clamp and upper > 0.0:
        floored = max(lower, CLAMP_EPS * upper)
        clamped, lower = floored > lower, floored
    theta = threshold_price(upper, lower)
    return mean, s, upper, lower, clamped, theta, math.sqrt(upper / lower)


class TestEstimateRows:
    @given(
        st.integers(1, 5),
        st.one_of(st.integers(2, 40), st.integers(41, 5000)),
        st.integers(0, 2**32 - 1),
        st.floats(-5.0, 20.0),
        st.sampled_from((1e-9, 0.1, 2.0, 30.0)),
        st.lists(st.booleans(), min_size=5, max_size=5),
        st.floats(0.01, 0.5),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_the_scalar_pipeline_bit_for_bit(
        self, rows, n, seed, loc, scale, constant, alpha, conservative, clamp
    ):
        samples = loc + scale * np.random.default_rng(seed).standard_normal((rows, n))
        for i in range(rows):
            if constant[i]:
                samples[i] = round(loc * 4.0) / 4.0  # zero spread
        fits = estimate_rows(samples, alpha, conservative=conservative,
                             clamp_nonpositive_lower=clamp)
        threshold, ratio_bound = fits.threshold, fits.ratio_bound
        for i in range(rows):
            try:
                want = _scalar_estimate(samples[i], alpha, conservative, clamp)
            except EstimationError as exc:
                assert fits.failed[i]
                assert repr(float(fits.lower_bound[i])) in str(exc)
                assert np.isnan(threshold[i]) and np.isnan(ratio_bound[i])
                with pytest.raises(EstimationError) as err:
                    estimate(samples[i], alpha, conservative=conservative,
                             clamp_nonpositive_lower=clamp)
                assert type(err.value) is type(exc) and str(err.value) == str(exc)
                continue
            assert not fits.failed[i]
            got = (fits.mean[i], fits.sample_std[i], fits.upper_bound[i], fits.lower_bound[i],
                   fits.lower_clamped[i], threshold[i], ratio_bound[i])
            assert [_bits(v) for v in got] == [_bits(v) for v in want]
            # every field of the one-row estimate is row i's
            report = estimate(samples[i], alpha, conservative=conservative,
                              clamp_nonpositive_lower=clamp)
            assert (report.alpha, report.stats.n, report.conservative) == (alpha, n, conservative)
            assert report.lower_clamped is bool(fits.lower_clamped[i])
            fields = (report.stats.mean, report.stats.sample_std, report.upper_bound,
                      report.lower_bound, report.lower_clamped, report.threshold,
                      report.ratio_bound)
            assert [_bits(v) for v in fields] == [_bits(v) for v in got]
            if constant[i]:
                assert fits.sample_std[i] == 0.0

    def test_conservative_estimates_invert_each_quantile_once(self, monkeypatch):
        calls = []

        def counted(name):
            inverse = getattr(estimation, name)

            def quantile(p, df):
                calls.append((name, p, df))
                return inverse(p, df)
            return quantile

        for name in ("t_quantile", "chi2_quantile"):
            monkeypatch.setattr(estimation, name, counted(name))
        estimation._bound_quantiles.cache_clear()
        rng = np.random.default_rng(12)
        alpha = 0.1
        for _ in range(5):
            report = estimate(rng.normal(10.0, 2.0, 30), alpha, conservative=True)
            _ = report.mu_interval, report.sigma_interval  # read through the cache too
        assert calls == [
            ("t_quantile", 1.0 - alpha / 2.0, 29),
            ("chi2_quantile", 1.0 - alpha / 2.0, 29),
            ("chi2_quantile", alpha / 2.0, 29),
        ]

    def test_whole_array_errors_are_estimates(self):
        with pytest.raises(EstimationError, match="need at least 2 observations, got 1"):
            estimate_rows(np.ones((3, 1)))
        with pytest.raises(ValueError, match="non-finite"):
            estimate_rows(np.array([[1.0, 2.0], [np.nan, 1.0]]))
        with pytest.raises(ValueError, match="alpha"):
            estimate_rows(np.ones((2, 3)), 1.5)
        with pytest.raises(ValueError, match="two-dimensional"):
            estimate_rows(np.ones(3))
