import math
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storelab import AR1, Clamped, ConfigError, ExperimentConfig, Normal, parse_config, render_config
import storelab.config as config_module
from storelab.cli import main
from storelab.config import apply_overrides, build_instance, build_model, load_config


class TestRoundTrip:
    def test_defaults(self):
        config = ExperimentConfig()
        assert parse_config(render_config(config)) == config

    @given(
        kind=st.sampled_from(("estimate", "policy-compare", "adaptive", "relax")),
        mu=st.floats(1.0, 100.0),
        sigma=st.floats(0.1, 10.0),
        T=st.integers(1, 48),
        alpha=st.floats(0.01, 0.5),
        rounds=st.integers(1, 50),
        n_grid=st.lists(st.integers(2, 500), min_size=1, max_size=4),
        refresh=st.sampled_from((math.inf, 1.0, 6.0)),
        clamp=st.booleans(),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_configs(self, kind, mu, sigma, T, alpha, rounds, n_grid, refresh, clamp, seed):
        values = dict(
            kind=kind, mu=mu, sigma=sigma, T=T, alpha=alpha, rounds=rounds,
            n_grid=tuple(n_grid), refresh_grid=(refresh,), clamp_m=clamp, seed=seed,
            B=float(T), s0=float(T) / 2,
        )
        # the unclamped true-parameter lower bound; relax's ar1 scenario has the widest law
        lower = {
            "policy-compare": mu - 3.0 * sigma,
            "relax": mu - 3.0 * AR1(mu, sigma, ExperimentConfig.phi).marginal_std,
        }.get(kind, math.inf)
        # a repeated grid entry would write two rows of one key
        if len(set(n_grid)) < len(n_grid):
            with pytest.raises(ConfigError, match="n_grid"):
                ExperimentConfig(**values)
        # an adaptive warmup's estimate has no earlier report to fall back on
        elif not clamp and (kind == "adaptive" or lower <= 0.0):
            with pytest.raises(ConfigError, match="clamp_m"):
                ExperimentConfig(**values)
        else:
            config = ExperimentConfig(**values)
            assert parse_config(render_config(config)) == config

    def test_comments_and_blank_lines(self):
        text = render_config(ExperimentConfig()) + "\n# a comment line\n\n"
        assert parse_config(text) == ExperimentConfig()

    def test_optional_none_round_trips(self):
        config = ExperimentConfig(clamp_lo=None, clamp_hi=None, history=None)
        parsed = parse_config(render_config(config))
        assert parsed.clamp_lo is None and parsed.history is None

    def test_clamp_pair_round_trips(self):
        config = ExperimentConfig(clamp_lo=4.0, clamp_hi=16.0)
        assert parse_config(render_config(config)) == config

    def test_infinite_refresh_round_trips(self):
        config = ExperimentConfig(refresh_grid=(math.inf, 4.0))
        assert parse_config(render_config(config)) == config


class TestValidation:
    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="wat"):
            parse_config("wat=1\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("no equals sign here\n")

    def test_bad_boolean(self):
        with pytest.raises(ConfigError, match="clamp_m"):
            parse_config("clamp_m=maybe\n")

    def test_bad_integer(self):
        with pytest.raises(ConfigError, match="rounds"):
            parse_config("rounds=two\n")

    def test_field_level_messages(self):
        for line, field in [
            ("rounds=0", "rounds"),
            ("alpha=1.5", "alpha"),
            ("T=0", "T"),
            ("G=1", "G"),
            ("kind=mystery", "kind"),
            ("model=uniform", "model"),
            ("verdict=never", "verdict"),
            ("n_grid=1,10", "n_grid"),
            ("eta=1.5", "eta"),
            ("s0=99.0", "s0"),
            ("scenarios=baseline,chaos", "scenarios"),
        ]:
            with pytest.raises(ConfigError, match=field):
                parse_config(line + "\n")

    def test_fractional_refresh_stride_rejected(self):
        # the runner would run stride int(2.5) = 2 under the label 2.5
        for grid in ("2.5", "2.5,2", "inf,1.0001"):
            with pytest.raises(ConfigError, match="refresh_grid"):
                parse_config(f"kind=adaptive\nrefresh_grid={grid}\n")
        assert parse_config("kind=adaptive\nrefresh_grid=2.0,inf\n").refresh_grid == (2.0, math.inf)

    @pytest.mark.parametrize("field, grid", [
        ("n_grid", "10,100,10"),
        ("warmup_grid", "10,10"),
        ("refresh_grid", "inf,6,inf"),
        ("refresh_grid", "2,2.0"),
        ("scenarios", "baseline,ar1,baseline"),
    ])
    def test_repeated_grid_entry_rejected(self, field, grid):
        # each entry is one output row, so a repeat would write two rows of one key
        with pytest.raises(ConfigError, match="distinct") as err:
            parse_config(f"{field}={grid}\n")
        assert err.value.field == field

    def test_estimate_needs_two_synthesized_prices(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config("kind=estimate\nhistory_size=1\n")
        assert err.value.field == "history_size"
        assert parse_config("kind=estimate\nhistory_size=2\n").history_size == 2
        # the synthesized history's size is not read beside a history file
        path = tmp_path / "h.csv"
        path.write_text("10.0\n11.0\n")
        parse_config(f"kind=estimate\nhistory_size=1\nhistory={path}\n")
        parse_config("kind=policy-compare\nhistory_size=1\n")

    def test_violation_curve_needs_two_synthesized_prices(self, tmp_path):
        # every sample of a one-price history has zero spread, so no round estimates
        with pytest.raises(ConfigError, match="violation-curve needs") as err:
            parse_config("kind=violation-curve\nhistory_size=1\n")
        assert err.value.field == "history_size"
        assert parse_config("kind=violation-curve\nhistory_size=2\n").history_size == 2
        path = tmp_path / "h.csv"
        path.write_text("10.0\n11.0\n")
        parse_config(f"kind=violation-curve\nhistory_size=1\nhistory={path}\n")

    @pytest.mark.parametrize("command, key, value", [
        ("adaptive", "warmup_grid", "10,10"),
        ("violation-curve", "n_grid", "10,10"),
        ("estimate", "history_size", "1"),
        ("violation-curve", "history_size", "1"),
    ])
    def test_ambiguous_or_undefined_run_exits_1(self, tmp_path, capsys, command, key, value):
        out = tmp_path / "x.csv"
        assert main([command, "--set", f"{key}={value}", "--out", str(out)]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_clamp_bounds_must_pair(self):
        with pytest.raises(ConfigError, match="clamp_lo"):
            parse_config("clamp_lo=4.0\n")

    def test_missing_history_file(self):
        with pytest.raises(ConfigError, match="no/such/file"):
            parse_config("kind=estimate\nhistory=no/such/file.csv\n")

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="missing config"):
            load_config(tmp_path / "absent.txt")

    @pytest.mark.parametrize("kind", ["policy-compare", "violation-curve", "relax"])
    def test_zero_total_demand_rejected_for_ratio_kinds(self, kind):
        for demand in ("constant:0", "vector:0,0"):
            with pytest.raises(ConfigError, match="demand"):
                parse_config(f"kind={kind}\nT=2\ndemand={demand}\n")

    @pytest.mark.parametrize("kind", ["policy-compare", "violation-curve", "relax"])
    def test_initial_fill_covering_total_demand_rejected_for_ratio_kinds(self, kind):
        # buying nothing is then optimal, so every opt_cost is <= 0
        for demand in ("constant:1.0", "vector:0.5,1.5"):  # total 2 over T=2
            for s0 in (2.0, 3.0):
                with pytest.raises(ConfigError, match="demand") as err:
                    parse_config(f"kind={kind}\nT=2\ndemand={demand}\ns0={s0}\n")
                assert "s0" in str(err.value)
            config = parse_config(f"kind={kind}\nT=2\ndemand={demand}\ns0=1.99\n")
            assert build_instance(config).storage.initial_level == 1.99

    @pytest.mark.parametrize("kind", ["estimate", "adaptive"])
    def test_zero_total_demand_allowed_without_ratios(self, kind):
        config = parse_config(f"kind={kind}\ndemand=constant:0\n")
        assert build_instance(config).demand.sum() == 0.0
        config = parse_config(f"kind={kind}\nT=2\ndemand=constant:1.0\ns0=3.0\n")
        assert build_instance(config).storage.initial_level == 3.0

    def test_relax_unclamped_nonpositive_lower_bound_rejected(self):
        # the AR(1) marginal std is 2 / sqrt(1 - 0.8^2) = 10/3: mu - 3 std rounds below 0
        with pytest.raises(ConfigError, match="clamp_m"):
            parse_config("kind=relax\nclamp_m=false\n")
        with pytest.raises(ConfigError, match="'baseline'"):
            parse_config("kind=relax\nclamp_m=false\nmu=5.0\n")
        # the same models pass with the clamp, or without the ar1 scenario
        parse_config("kind=relax\nclamp_m=true\n")
        parse_config("kind=relax\nclamp_m=false\nscenarios=baseline,lognormal,demand-noise\n")

    def test_policy_compare_unclamped_nonpositive_lower_bound_rejected(self):
        with pytest.raises(ConfigError, match="clamp_m"):
            parse_config("kind=policy-compare\nclamp_m=false\nmu=5.0\n")
        # clamping the prices to [4, 16] leaves the policies' bounds at 5 -+ 3 * 2
        with pytest.raises(ConfigError, match="clamp_m"):
            parse_config("kind=policy-compare\nclamp_m=false\nmu=5.0\nclamp_lo=4\nclamp_hi=16\n")
        parse_config("kind=policy-compare\nclamp_m=true\nmu=5.0\n")
        parse_config("kind=violation-curve\nclamp_m=false\nmu=5.0\n")

    @pytest.mark.parametrize("kind, sets, field", [
        # exp(1000) overflows the lognormal's marginal mean
        ("policy-compare", "model=lognormal\nlog_mu=1000\n", "log_mu"),
        # finite bounds near 1e304, whose product overflows the threshold
        ("policy-compare", "model=lognormal\nlog_mu=700\n", "log_mu"),
        # a finite mean and an infinite standard deviation
        ("policy-compare", "model=lognormal\nlog_mu=700\nlog_sigma=3.5\n", "log_mu"),
        ("policy-compare", "mu=1e200\n", "mu"),
        ("policy-compare", "mu=1e308\nsigma=1e308\n", "mu"),
        ("relax", "mu=1e200\nscenarios=baseline,ar1\n", "mu"),
    ])
    def test_policy_model_bounds_must_be_finite(self, tmp_path, capsys, kind, sets, field):
        with pytest.raises(ConfigError) as err:
            parse_config(f"kind={kind}\n{sets}")
        assert err.value.field == field
        out = tmp_path / "x.csv"
        overrides = [arg for kv in sets.split() for arg in ("--set", kv)]
        assert main([kind, *overrides, "--out", str(out)]) == 1
        assert f"{field}: " in capsys.readouterr().err
        assert not out.exists()
        if field == "log_mu":
            # the same parameters configure runs that derive no bounds from the model
            parse_config(f"kind=estimate\n{sets}")
        else:
            # a mean past PRICE_LIMIT is rejected for every kind
            with pytest.raises(ConfigError, match="^mu: must be at most"):
                parse_config(f"kind=estimate\n{sets}")

    @pytest.mark.parametrize("kind, sets, field", [
        # 1 - alpha/2 rounds to 1, where no quantile is defined
        ("estimate", "alpha=1e-300", "alpha"),
        ("estimate", "alpha=1e-17", "alpha"),
        # a price scale whose squares overflow: an estimate of inf, or no policy
        ("estimate", "mu=1e200", "mu"),
        ("estimate", "mu=-1e200", "mu"),
        ("estimate", "sigma=1e200", "sigma"),
        ("adaptive", "sigma=1e200", "sigma"),
        ("violation-curve", "sigma=1e200", "sigma"),
        # the relax lognormal scenario's moment match: past PRICE_LIMIT ...
        ("relax", "mu=1e200", "mu"),
        ("relax", "sigma=1e200", "sigma"),
        # ... and (sigma / mu)^2 out of float range: LogNormal.from_moments
        # raises OverflowError for a small mean and ValueError for a small spread
        ("relax", "mu=1e-300", "mu"),
        ("relax", "sigma=1e-300", "sigma"),
        ("relax", "mu=1e99 sigma=1e-250", "sigma"),
    ])
    def test_out_of_range_parameters_are_config_errors(self, tmp_path, capsys, kind, sets, field):
        with pytest.raises(ConfigError) as err:
            parse_config(f"kind={kind}\n" + "\n".join(sets.split()) + "\n")
        assert err.value.field == field
        out = tmp_path / "x.csv"
        overrides = [arg for kv in sets.split() for arg in ("--set", kv)]
        assert main([kind, *overrides, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"configuration error: {field}: ")
        assert not out.exists()

    def test_the_smallest_usable_alpha_runs(self, tmp_path):
        # 1 - 1e-15 / 2 is below 1, so its quantiles are defined
        out = tmp_path / "x.csv"
        assert main(["estimate", "--set", "alpha=1e-15", "--set", "history_size=100",
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_adaptive_needs_clamp_m(self):
        # a warmup whose unclamped lower bound is <= 0 has no earlier report to keep
        with pytest.raises(ConfigError, match="clamp_m"):
            parse_config("kind=adaptive\nclamp_m=false\n")
        parse_config("kind=adaptive\nclamp_m=true\n")

    def test_capacity_needs_nonzero_grid_steps(self):
        # 5e-324 / 10 rounds to 0, so the grid repeats level 0
        with pytest.raises(ConfigError, match="B"):
            parse_config("B=5e-324\nG=10\n")
        parse_config("B=1e-300\nG=10\n")
        parse_config("B=0.0\ns0=0.0\nkind=adaptive\n")

    def test_relax_ar1_scenario_needs_valid_phi(self):
        with pytest.raises(ConfigError, match="phi"):
            parse_config("kind=relax\nphi=1.5\n")
        parse_config("kind=relax\nphi=1.5\nscenarios=baseline\n")

    def test_prefix_mode_needs_large_history(self):
        with pytest.raises(ConfigError, match="n_grid"):
            parse_config(
                "kind=violation-curve\nresample_mode=prefix\nhistory_size=100\nn_grid=10,1000\n"
            )


class TestEveryConfigIsValid:
    @pytest.mark.parametrize("values, field", [
        (dict(kind="adaptive", G=1), "G"),
        (dict(kind="adaptive", clamp_m=False), "clamp_m"),
        (dict(episodes=0), "episodes"),
        (dict(kind="relax", model="ar1"), "model"),
        (dict(kind="relax", scenarios=("lognormal",), mu=-1.0), "mu"),
    ])
    def test_constructor_validates(self, values, field):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**values)
        assert err.value.field == field

    def test_replace_validates(self):
        with pytest.raises(ConfigError) as err:
            replace(ExperimentConfig(), alpha=2.0)
        assert err.value.field == "alpha"

    def test_mean_checked_only_for_the_relax_lognormal_scenario(self):
        ExperimentConfig(kind="relax", scenarios=("baseline",), mu=-1.0)
        ExperimentConfig(kind="policy-compare", model="lognormal", mu=-1.0)

    def test_each_way_in_validates_once_and_unpickling_not_again(self, monkeypatch, tmp_path):
        calls = []
        validate = config_module.validate_config
        monkeypatch.setattr(config_module, "validate_config",
                            lambda config: calls.append(config) or validate(config))
        path = tmp_path / "c.cfg"
        path.write_text("kind=relax\nepisodes=7\n")
        config = load_config(path)
        overridden = apply_overrides(config, {"episodes": "8", "seed": "3"})
        assert len(calls) == 2 and calls == [config, overridden]

        def refuse(config):
            raise AssertionError("an unpickled config was validated again")

        monkeypatch.setattr(config_module, "validate_config", refuse)
        assert pickle.loads(pickle.dumps(overridden)) == overridden


class TestOverrides:
    def test_set_override(self):
        config = apply_overrides(ExperimentConfig(), {"mu": "12.5", "rounds": "7"})
        assert config.mu == 12.5 and config.rounds == 7

    def test_set_override_validates(self):
        with pytest.raises(ConfigError, match="alpha"):
            apply_overrides(ExperimentConfig(), {"alpha": "2.0"})

    def test_set_unknown_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            apply_overrides(ExperimentConfig(), {"bogus": "1"})


class TestBuilders:
    def test_build_normal_model(self):
        model = build_model(ExperimentConfig(model="normal", mu=3.0, sigma=0.5))
        assert model == Normal(3.0, 0.5)

    def test_build_ar1_model(self):
        model = build_model(ExperimentConfig(model="ar1", mu=3.0, sigma=0.5, phi=0.4))
        assert model == AR1(3.0, 0.5, 0.4)

    def test_build_clamped_model(self):
        model = build_model(ExperimentConfig(clamp_lo=4.0, clamp_hi=16.0))
        assert isinstance(model, Clamped)
        assert model.lo == 4.0 and model.hi == 16.0

    def test_constant_demand_instance(self):
        inst = build_instance(ExperimentConfig(T=4, B=2.0, s0=1.0, demand="constant:1.5"))
        assert inst.demand.tolist() == [1.5, 1.5, 1.5, 1.5]
        assert inst.storage.initial_level == 1.0

    def test_vector_demand_instance(self):
        inst = build_instance(ExperimentConfig(T=3, demand="vector:1,2,0.5", B=5.0))
        assert inst.demand.tolist() == [1.0, 2.0, 0.5]

    def test_vector_demand_length_mismatch(self):
        with pytest.raises(ConfigError, match="demand"):
            parse_config("T=3\ndemand=vector:1,2\n")

    def test_file_demand(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("1.0\n0.5\n")
        config = parse_config(f"T=2\ndemand=file:{path}\n")
        inst = build_instance(config)
        assert inst.demand.tolist() == [1.0, 0.5]

    def test_unknown_demand_spec(self):
        with pytest.raises(ConfigError, match="demand"):
            parse_config("demand=linear:1\n")
