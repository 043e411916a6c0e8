import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storelab import (
    EstimateReport,
    EstimationError,
    Normal,
    NonpositiveLowerBoundError,
    estimate,
    generate,
)
from storelab import estimation
from storelab.estimation import CLAMP_EPS, estimate_rows, model_bounds
from storelab.experiments import ESTIMATE_HEADER
from storelab.special import chi2_quantile, t_quantile


def sample_stats(data) -> EstimateReport:
    """``estimate`` of ``data``, which clamps so that any spread estimates."""
    return estimate(data, clamp_nonpositive_lower=True)


def shaped_sample(n: int, mean: float, s: float) -> np.ndarray:
    """A size-n sample whose mean and standard deviation are ``mean`` and ``s``, up to rounding."""
    z = np.random.default_rng(n).standard_normal(n)
    return mean + s * (z - z.mean()) / z.std(ddof=1)


class TestSampleStats:
    def test_constant_sample(self):
        stats = sample_stats([3.0, 3.0, 3.0, 3.0])
        assert stats.mean == 3.0
        assert stats.s == 0.0

    def test_two_point_closed_form(self):
        stats = sample_stats([0.0, 2.0])
        assert (stats.n, stats.mean) == (2, 1.0)
        assert stats.s == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_large_sample_within_sampling_bounds(self):
        # ~3 standard errors around the true values for 1e4 draws of N(5, 2^2)
        data = generate(Normal(5.0, 2.0), 10**4, seed=88)
        stats = sample_stats(data)
        assert 4.94 <= stats.mean <= 5.06
        assert 1.96 <= stats.s <= 2.04

    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        data = rng.normal(0, 3, 500)
        stats = sample_stats(data)
        assert stats.mean == pytest.approx(float(data.mean()), rel=1e-12)
        assert stats.s == pytest.approx(float(data.std(ddof=1)), rel=1e-12)

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
        stats = sample_stats([4.2] * 5)
        assert stats.mean == pytest.approx(4.2, rel=1e-15)
        assert (stats.mu_lo, stats.mu_hi) == (stats.mean, stats.mean)

    def test_textbook_case(self):
        # half width = (2 / sqrt(16)) * t_{0.975}(15) = 0.5 * 2.1314
        stats = sample_stats(shaped_sample(16, 10.0, 2.0))
        assert stats.mu_lo == pytest.approx(8.934, abs=1e-3)
        assert stats.mu_hi == pytest.approx(11.066, abs=1e-3)

    def test_width_shrinks_as_alpha_grows(self):
        data = shaped_sample(12, 0.0, 1.0)
        widths = []
        for alpha in (0.01, 0.05, 0.2, 0.5, 0.9):
            stats = estimate(data, alpha, clamp_nonpositive_lower=True)
            widths.append(stats.mu_hi - stats.mu_lo)
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_width_scales_with_inverse_sqrt_n(self):
        # same S at n and 4n: the ratio tracks 1/2 up to the t critical points
        s = 1.7
        n = 100
        w1, w4 = (
            stats.mu_hi - stats.mu_lo
            for stats in (sample_stats(shaped_sample(m, 0.0, s)) for m in (n, 4 * n))
        )
        assert abs(w4 / w1 - 0.5) < 0.05 * 0.5


class TestSigmaInterval:
    def test_textbook_case(self):
        # sqrt(10 / 20.483) and sqrt(10 / 3.247)
        stats = sample_stats(shaped_sample(11, 0.0, 1.0))
        assert stats.sigma_lo == pytest.approx(0.699, abs=1e-3)
        assert stats.sigma_hi == pytest.approx(1.755, abs=1e-3)

    def test_zero_spread_collapses(self):
        # no sigma interval widens a zero-spread sample: its conservative
        # bounds are its point bounds, the one price
        point = sample_stats([1.0] * 4)
        wide = estimate([1.0] * 4, conservative=True)
        assert (point.sigma_lo, point.sigma_hi) == (wide.sigma_lo, wide.sigma_hi) == (0.0, 0.0)
        assert (point.M_hat, point.m_hat) == (wide.M_hat, wide.m_hat) == (1.0, 1.0)

    def test_alpha_near_one_concentrates_at_median_point(self):
        stats = estimate(shaped_sample(21, 0.0, 1.5), 0.999, clamp_nonpositive_lower=True)
        center = stats.s * math.sqrt(20 / chi2_quantile(0.5, 20))
        assert stats.sigma_lo == pytest.approx(center, rel=1e-2)
        assert stats.sigma_hi == pytest.approx(center, rel=1e-2)

    def test_coverage_sanity(self):
        # reduced-scale check; the acceptance suite runs the full 1e4 trials
        rng = np.random.default_rng(2024)
        data = rng.standard_normal((2000, 30))
        reports = [sample_stats(row) for row in data]
        coverage = np.mean([r.sigma_lo <= 1.0 <= r.sigma_hi for r in reports])
        assert 0.93 <= coverage <= 0.97


class TestBoundsAndThreshold:
    def test_point_mode(self):
        # mean 10 and s 1 exactly
        report = estimate([9.0, 10.0, 11.0])
        assert (report.M_hat, report.m_hat) == (13.0, 7.0)

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
            report = sample_stats(samples[0])
            assert wide.upper_bound[0] == report.mu_hi + 3.0 * report.sigma_hi
            assert wide.lower_bound[0] == report.mu_lo - 3.0 * report.sigma_hi

    def test_threshold_examples(self):
        fits = model_bounds([Normal(2.5, 0.5), Normal(10.0, 1.0)], clamp=False)
        assert fits.upper_bound.tolist() == [4.0, 13.0]
        assert fits.lower_bound.tolist() == [1.0, 7.0]
        assert fits.threshold.tolist() == pytest.approx([2.0, math.sqrt(91.0)], rel=1e-15)
        assert estimate([7.5, 7.5]).theta_hat == 7.5

    def test_threshold_rejects_nonpositive_lower(self):
        # lower bounds -2 and 0
        fits = model_bounds([Normal(1.0, 1.0), Normal(3.0, 1.0)], clamp=False)
        assert fits.lower_bound.tolist() == [-2.0, 0.0]
        assert fits.failed.all()
        assert np.isnan(fits.threshold).all() and np.isnan(fits.ratio_bound).all()
        for i, lower in enumerate(("-2.0", "0.0")):
            error = fits.failure(i)
            assert type(error) is NonpositiveLowerBoundError
            assert str(error) == f"threshold undefined for lower bound {lower} <= 0; clamp it first"
        with pytest.raises(NonpositiveLowerBoundError, match="lower bound -2.0 <= 0"):
            estimate([0.0, 1.0, 2.0])

    @given(st.lists(st.tuples(st.floats(-20.0, 20.0), st.floats(1e-6, 30.0)), min_size=1,
                    max_size=6),
           st.booleans(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_bounds_are_ordered(self, params, conservative, clamp):
        samples = np.array([shaped_sample(12, mean, s) for mean, s in params])
        for fits in (estimate_rows(samples, conservative=conservative,
                                   clamp_nonpositive_lower=clamp),
                     model_bounds([Normal(mean, s) for mean, s in params], clamp)):
            assert (fits.upper_bound >= fits.lower_bound).all()
            ok = ~fits.failed
            assert (fits.lower_bound[ok] <= fits.threshold[ok]).all()
            assert (fits.threshold[ok] <= fits.upper_bound[ok]).all()

    def test_clamp(self):
        fits = model_bounds([Normal(1.0, 1.0), Normal(2.5, 0.5)], clamp=True)
        assert fits.lower_bound[0] == pytest.approx(4e-3)
        assert fits.lower_bound[1] == 1.0
        assert fits.lower_clamped.tolist() == [True, False]
        assert not fits.failed.any()

    @given(
        st.floats(0.01, 1e6),
        st.floats(1.0, 1e4, exclude_min=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_threshold_squared_identity(self, lower, factor):
        upper = lower * factor
        fits = model_bounds([Normal((upper + lower) / 2.0, (upper - lower) / 6.0)], clamp=False)
        upper, lower = float(fits.upper_bound[0]), float(fits.lower_bound[0])
        theta = float(fits.threshold[0])
        assert math.isclose(theta * theta, upper * lower, rel_tol=1e-15)


class TestEstimateReport:
    def test_degenerate_history_with_clamp(self):
        report = estimate([3.0, 3.0, 3.0, 3.0], 0.05, clamp_nonpositive_lower=True)
        assert report.s == 0.0
        assert (report.mu_lo, report.mu_hi) == (3.0, 3.0)
        assert (report.sigma_lo, report.sigma_hi) == (0.0, 0.0)
        assert report.M_hat == report.m_hat == 3.0
        assert report.theta_hat == 3.0
        assert report.ratio_bound == 1.0

    def test_intervals_computed_from_stats_and_alpha(self):
        data = generate(Normal(10.0, 2.0), 300, seed=8)
        for alpha in (0.01, 0.05, 0.3):
            for conservative in (False, True):
                report = estimate(data, alpha, conservative=conservative)
                n, mean, s = report.n, report.mean, report.s
                half = s / math.sqrt(n) * t_quantile(1.0 - alpha / 2.0, n - 1)
                assert (report.mu_lo, report.mu_hi) == (mean - half, mean + half)
                assert (report.sigma_lo, report.sigma_hi) == (
                    s * math.sqrt((n - 1) / chi2_quantile(1.0 - alpha / 2.0, n - 1)),
                    s * math.sqrt((n - 1) / chi2_quantile(alpha / 2.0, n - 1)),
                )

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
        assert report.m_hat == pytest.approx(1e-3 * report.M_hat)

    def test_record_keys_and_values(self):
        data = generate(Normal(10.0, 2.0), 500, seed=3)
        report = estimate(data, 0.05)
        names = [f.name for f in fields(EstimateReport)]
        assert names[:12] == ESTIMATE_HEADER.split(",") == [
            "n", "alpha", "mean", "s", "mu_lo", "mu_hi", "sigma_lo", "sigma_hi",
            "m_hat", "M_hat", "theta_hat", "conservative",
        ]
        assert names[12:] == ["ratio_bound", "lower_clamped"]
        assert (report.n, report.conservative, report.lower_clamped) == (500, 0, False)
        # every float column is a Python float, which the CSV writes by repr
        assert all(type(getattr(report, name)) is float for name in names[1:11] + ["ratio_bound"])
        assert report.theta_hat ** 2 == pytest.approx(report.M_hat * report.m_hat, rel=1e-14)
        assert report.ratio_bound ** 2 == pytest.approx(report.M_hat / report.m_hat, rel=1e-14)

    def test_invariants_hold_on_random_samples(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            data = rng.normal(12, 2, int(rng.integers(5, 400)))
            report = estimate(data, float(rng.uniform(0.01, 0.5)))
            assert report.mu_lo <= report.mean <= report.mu_hi
            assert 0 <= report.sigma_lo <= report.sigma_hi
            assert report.m_hat <= report.M_hat

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
    a ``NonpositiveLowerBoundError`` where the lower bound ends up <= 0.
    """
    x = np.asarray(sample, dtype=float)
    n = x.size
    mean = float(x.mean())
    s = math.sqrt(float(np.sum((x - mean) ** 2)) / (n - 1))
    upper, lower = mean + 3.0 * s, mean - 3.0 * s
    if conservative and s > 0.0:
        half = s / math.sqrt(n) * t_quantile(1.0 - alpha / 2.0, n - 1)
        sigma_hi = s * math.sqrt((n - 1) / chi2_quantile(alpha / 2.0, n - 1))
        upper, lower = (mean + half) + 3.0 * sigma_hi, (mean - half) - 3.0 * sigma_hi
    clamped = False
    if clamp and upper > 0.0:
        floored = max(lower, CLAMP_EPS * upper)
        clamped, lower = floored > lower, floored
    if lower <= 0.0:
        raise NonpositiveLowerBoundError(
            f"threshold undefined for lower bound {lower} <= 0; clamp it first"
        )
    return mean, s, upper, lower, clamped, math.sqrt(upper * lower), math.sqrt(upper / lower)


class TestModelBounds:
    @given(
        st.lists(st.tuples(st.floats(-5.0, 20.0), st.sampled_from((1e-9, 0.1, 2.0, 30.0))),
                 min_size=1, max_size=5),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_estimate_rows_point_bounds_bit_for_bit(self, params, seed):
        # the last two rows clamp (mean 1, s 2: lower -5, upper 7) and fail
        # even with the clamp (mean -10, s 1: upper -7)
        params = params + [(1.0, 2.0), (-10.0, 1.0)]
        z = np.random.default_rng(seed).standard_normal((len(params), 8))
        samples = np.array([loc + scale * row for (loc, scale), row in zip(params, z)])
        samples[-2:] = [shaped_sample(8, loc, scale) for loc, scale in params[-2:]]
        seen = set()
        for clamp in (False, True):
            fits = estimate_rows(samples, clamp_nonpositive_lower=clamp)
            models = [Normal(mean, s) for mean, s in zip(fits.mean.tolist(),
                                                         fits.sample_std.tolist())]
            bounds = model_bounds(models, clamp)
            for name in ("mean", "sample_std", "upper_bound", "lower_bound", "lower_clamped",
                         "failed", "threshold", "ratio_bound"):
                got, want = getattr(bounds, name), getattr(fits, name)
                assert [_bits(v) for v in got] == [_bits(v) for v in want], name
            for i in np.flatnonzero(fits.failed).tolist():
                assert str(bounds.failure(i)) == str(fits.failure(i))
            seen.update(("clamped",) * bool(fits.lower_clamped.any()))
            seen.update((f"failed-{clamp}",) * bool(fits.failed.any()))
        assert seen == {"clamped", "failed-False", "failed-True"}

    def test_models_of_every_kind(self):
        from storelab import AR1, Clamped, LogNormal

        models = [Normal(10.0, 2.0), LogNormal(2.28, 0.2), AR1(10.0, 2.0, 0.8),
                  Clamped(Normal(10.0, 2.0), 8.0, 12.0)]
        fits = model_bounds(models, clamp=True)
        for i, model in enumerate(models):
            mean, std = model.marginal_mean, model.marginal_std
            assert fits.upper_bound[i] == mean + 3.0 * std
            assert fits.lower_bound[i] == max(mean - 3.0 * std, CLAMP_EPS * (mean + 3.0 * std))
        assert model_bounds([], clamp=True).failed.shape == (0,)


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
            except NonpositiveLowerBoundError as exc:
                assert fits.failed[i]
                assert repr(float(fits.lower_bound[i])) in str(exc)
                assert np.isnan(threshold[i]) and np.isnan(ratio_bound[i])
                assert str(fits.failure(i)) == str(exc)
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
            assert (report.alpha, report.n, report.conservative) == (alpha, n, conservative)
            assert report.lower_clamped is bool(fits.lower_clamped[i])
            columns = (report.mean, report.s, report.M_hat, report.m_hat, report.lower_clamped,
                       report.theta_hat, report.ratio_bound)
            assert [_bits(v) for v in columns] == [_bits(v) for v in got]
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
            estimate(rng.normal(10.0, 2.0, 30), alpha, conservative=True)
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
