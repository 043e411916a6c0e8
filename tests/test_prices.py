import math

import numpy as np
import pytest
import scipy.stats as st

from storelab import (
    AR1,
    Clamped,
    Empirical,
    IngestError,
    LogNormal,
    Normal,
    generate,
    ingest,
    resample,
    write_series,
)
from storelab import prices
from storelab.prices import RESAMPLE_MODES, as_series


class TestGenerate:
    def test_degenerate_normal_concentrates_at_mu(self):
        series = generate(Normal(10.0, 1e-12), 5, seed=1)
        assert np.all(np.abs(series - 10.0) < 1e-6)

    def test_normal_large_sample_moments(self):
        # law of large numbers at one million draws, ~3 sigma of each estimator
        series = generate(Normal(0.0, 1.0), 10**6, seed=42)
        assert -0.01 <= series.mean() <= 0.01
        assert 0.997 <= series.std(ddof=1) <= 1.003

    def test_ar1_with_zero_phi_is_iid_normal(self):
        # two-sample KS below the alpha=0.01 critical value on 1e5 draws
        a = generate(AR1(0.0, 1.0, 0.0), 10**5, seed=11)
        b = generate(Normal(0.0, 1.0), 10**5, seed=12)
        stat = st.ks_2samp(a, b).statistic
        n = m = 10**5
        critical = 1.628 * math.sqrt((n + m) / (n * m))
        assert stat < critical

    def test_ar1_stationary_variance(self):
        model = AR1(5.0, 1.0, 0.6)
        series = generate(model, 10**5, seed=202)
        target = 1.0 / (1.0 - 0.36)
        assert abs(series.var(ddof=1) - target) / target < 0.05

    def test_fixed_seed_is_bit_identical(self):
        a = generate(Normal(3.0, 2.0), 1000, seed=7)
        b = generate(Normal(3.0, 2.0), 1000, seed=7)
        assert np.array_equal(a, b)
        c = generate(Normal(3.0, 2.0), 1000, seed=8)
        assert not np.array_equal(a, c)

    def test_rejects_empirical(self):
        with pytest.raises(ValueError):
            generate(Empirical([1.0, 2.0]), 5, seed=0)
        with pytest.raises(ValueError):
            generate(Clamped(Empirical([1.0, 2.0]), 0.0, 5.0), 5, seed=0)

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            generate(Normal(0.0, 1.0), 0, seed=0)

    def test_clamped_respects_bounds(self):
        series = generate(Clamped(Normal(10.0, 4.0), 4.0, 16.0), 10**4, seed=5)
        assert series.min() >= 4.0 and series.max() <= 16.0

    def test_model_parameter_validation(self):
        with pytest.raises(ValueError):
            Normal(0.0, 0.0)
        with pytest.raises(ValueError):
            AR1(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            LogNormal(0.0, -1.0)
        with pytest.raises(ValueError):
            Clamped(Normal(0.0, 1.0), 2.0, 1.0)

    def test_lognormal_moment_matching(self):
        model = LogNormal.from_moments(10.0, 2.0)
        assert model.marginal_mean == pytest.approx(10.0, rel=1e-12)
        assert model.marginal_std == pytest.approx(2.0, rel=1e-12)


class TestQuantiles:
    def test_normal_model_quantile(self):
        model = Normal(10.0, 2.0)
        assert model.quantile(0.5) == pytest.approx(10.0, abs=1e-12)
        assert model.quantile(0.975) == pytest.approx(st.norm.ppf(0.975, 10, 2), abs=1e-9)

    def test_empirical_quantile_two_atoms(self):
        model = Empirical([1.0, 3.0])
        assert model.quantile(0.25) == 1.0
        assert model.quantile(0.5) == 1.0
        assert model.quantile(0.75) == 3.0

    def test_ar1_quantile_uses_stationary_marginal(self):
        model = AR1(0.0, 1.0, 0.8)
        sd = 1.0 / math.sqrt(1.0 - 0.64)
        assert model.quantile(0.975) == pytest.approx(st.norm.ppf(0.975, scale=sd), abs=1e-9)


class TestResample:
    def test_prefix(self):
        assert resample([1.0, 2.0, 3.0, 4.0], 2, seed=0, mode="prefix").tolist() == [1.0, 2.0]

    def test_single_atom_bootstrap(self):
        assert resample([5.0], 3, seed=1, mode="with-replacement").tolist() == [5.0, 5.0, 5.0]

    def test_bootstrap_mean_concentration(self):
        history = generate(Normal(0.0, 1.0), 1000, seed=33)
        sample = resample(history, 1000, seed=34, mode="with-replacement")
        assert abs(sample.mean() - history.mean()) < 0.1

    def test_window_is_contiguous(self):
        history = np.arange(50.0)
        window = resample(history, 10, seed=2, mode="random-window")
        assert np.array_equal(window, np.arange(window[0], window[0] + 10))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            resample([1.0, 2.0], 3, seed=0, mode="prefix")
        with pytest.raises(ValueError):
            resample([1.0, 2.0], 0, seed=0, mode="with-replacement")
        with pytest.raises(ValueError):
            resample([1.0, 2.0], 2, seed=0, mode="nonsense")

    def test_deterministic_per_seed(self):
        history = np.arange(100.0)
        a = resample(history, 20, seed=9, mode="with-replacement")
        b = resample(history, 20, seed=9, mode="with-replacement")
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("writeable", [True, False])
    @pytest.mark.parametrize("as_list", [True, False])
    @pytest.mark.parametrize("mode", RESAMPLE_MODES)
    def test_non_finite_history_is_rejected(self, writeable, as_list, mode):
        for bad in (math.nan, math.inf):
            history = np.array([1.0, bad, 3.0])
            history.flags.writeable = writeable
            with pytest.raises(ValueError, match="history contains non-finite values"):
                resample(history.tolist() if as_list else history, 2, seed=0, mode=mode)

    def test_read_only_buffer_with_nan_is_rejected(self):
        history = np.frombuffer(np.array([1.0, math.nan, 3.0]).tobytes())
        assert not history.flags.writeable
        with pytest.raises(ValueError, match="history contains non-finite values"):
            resample(history, 2, seed=0)

    @pytest.mark.parametrize("mode", RESAMPLE_MODES)
    def test_validated_series_is_indexed_as_it_stands(self, mode, monkeypatch):
        history = as_series(np.arange(50.0))
        expected = resample(np.arange(50.0), 10, seed=4, mode=mode)
        monkeypatch.setattr(prices, "as_series", None)  # a second validation would fail
        sample = prices._resample(history, 10, seed=4, mode=mode)
        assert sample.tobytes() == expected.tobytes()
        assert not sample.flags.writeable and not np.shares_memory(sample, history)


class TestIngest:
    def test_plain_rows(self, tmp_csv):
        path = tmp_csv()
        path.write_text("10.0\n12.5\n9.1\n")
        assert ingest(path).tolist() == [10.0, 12.5, 9.1]

    def test_parse_error_names_line(self, tmp_csv):
        path = tmp_csv()
        path.write_text("1.0\nabc\n2.0\n")
        with pytest.raises(IngestError, match=r":2:"):
            ingest(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="missing"):
            ingest(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_csv):
        path = tmp_csv()
        path.write_text("\n\n")
        with pytest.raises(IngestError, match="no prices"):
            ingest(path)

    def test_non_finite_value(self, tmp_csv):
        path = tmp_csv()
        path.write_text("1.0\ninf\n")
        with pytest.raises(IngestError, match=":2:"):
            ingest(path)

    def test_round_trip_is_exact(self, tmp_csv):
        rng = np.random.default_rng(17)
        series = rng.normal(10.0, 2.0, 200)
        series[0] = 1.0 / 3.0
        series[1] = 1e-17
        series[2] = -123456.789012345678
        path = tmp_csv()
        write_series(path, series)
        back = ingest(path)
        assert np.array_equal(back, series)
