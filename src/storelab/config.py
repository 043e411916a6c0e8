"""Experiment configuration: a flat key=value text format with validation.

Every knob of every experiment kind lives in one dataclass so a single
parser and renderer cover all subcommands.  A config validates itself
when it is built, parsed, overridden or replaced, so every config that
exists is valid and ``parse_config(render_config(c))`` returns an equal
config for every one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .estimation import model_bounds
from .model import ENERGY_TOL, Instance, StorageSpec
from .policies import storage_grid
from .prices import AR1, RESAMPLE_MODES, Clamped, LogNormal, Normal, ingest

KINDS = ("estimate", "violation-curve", "policy-compare", "adaptive", "relax")
MODELS = ("normal", "lognormal", "ar1")
SCENARIOS = ("baseline", "ar1", "lognormal", "demand-noise")
FAMILIES = ("dp", "threshold")
# kinds that score every episode by alg_cost / opt_cost
_RATIO_KINDS = ("violation-curve", "policy-compare", "relax")
# the largest |mu| and sigma: past it a price's square, and a sample's sum of
# squared deviations, can overflow
PRICE_LIMIT = 1e100


class ConfigError(ValueError):
    """A configuration field is missing, malformed, or inconsistent."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message

    def __reduce__(self):
        # pickle as (field, message), so the error survives a fan-out worker's pipe
        return type(self), (self.field, self.message)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str = "policy-compare"
    # price model
    model: str = "normal"
    mu: float = 10.0
    sigma: float = 2.0
    log_mu: float = 2.28
    log_sigma: float = 0.2
    phi: float = 0.8
    clamp_lo: float | None = None
    clamp_hi: float | None = None
    # history source for estimation experiments
    history: str | None = None
    history_size: int = 100_000
    # instance
    T: int = 24
    B: float = 5.0
    s0: float = 0.0
    demand: str = "constant:1.0"
    # estimation knobs
    alpha: float = 0.05
    conservative: bool = False
    clamp_m: bool = True
    resample_mode: str = "with-replacement"
    eval_source: str = "model"
    verdict: str = "mean"
    clamp_eval_to_bounds: bool = False
    # sweep grids
    n_grid: tuple[int, ...] = (10, 100, 1000)
    warmup_grid: tuple[int, ...] = (10, 100, 1000, 10000)
    refresh_grid: tuple[float, ...] = (math.inf,)
    # Monte Carlo sizes
    rounds: int = 100
    eval_episodes: int = 3
    episodes: int = 200
    # adaptive / relaxation extras
    family: str = "dp"
    scenarios: tuple[str, ...] = SCENARIOS
    eta: float = 0.2
    # numerics
    G: int = 100  # the hindsight oracle's storage grid steps; the DP has no grid option
    K: int = 51
    # run control
    seed: int = 20260809
    out: str = "report.csv"

    def __post_init__(self) -> None:
        validate_config(self)


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}  # annotation strings
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(raw: str) -> bool:
    try:
        return _BOOLS[raw.lower()]
    except KeyError:
        raise ValueError(raw) from None


_SCALAR_PARSERS = {"bool": _parse_bool, "int": int, "float": float, "str": str}


def _coerce(field: str, raw: str):
    """Parse raw text by the field's annotation: a scalar, ``X | None`` or ``tuple[X, ...]``."""
    raw = raw.strip()
    typ = _FIELD_TYPES[field]
    if typ.endswith(" | None"):
        if raw == "":
            return None
        typ = typ.removesuffix(" | None")
    try:
        if typ.startswith("tuple["):
            parse = _SCALAR_PARSERS[typ.removeprefix("tuple[").removesuffix(", ...]")]
            return tuple(parse(tok.strip()) for tok in raw.split(",") if tok.strip())
        return _SCALAR_PARSERS[typ](raw)
    except ValueError:
        raise ConfigError(field, f"cannot parse {raw!r} as {typ}") from None


def _render_value(field: str, value) -> str:
    if value is None:
        return ""
    if _FIELD_TYPES[field] == "bool":
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config(text: str) -> ExperimentConfig:
    """Parse key=value lines ('#' starts a comment) into a config."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}", f"expected key=value, got {body!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(key, "unknown configuration key")
        values[key] = _coerce(key, raw)
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError("config", f"missing config file: {path}")
    return parse_config(path.read_text(encoding="utf-8"))


def render_config(config: ExperimentConfig) -> str:
    """Canonical key=value text; omitted optional fields render as empty."""
    lines = [f"{name}={_render_value(name, getattr(config, name))}" for name in _FIELD_TYPES]
    return "\n".join(lines) + "\n"


def apply_overrides(config: ExperimentConfig, overrides: dict[str, str]) -> ExperimentConfig:
    """Apply key=value string overrides (CLI --set) on top of a config."""
    values = {}
    for key, raw in overrides.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(key, "unknown configuration key")
        values[key] = _coerce(key, raw)
    return replace(config, **values)


def validate_config(config: ExperimentConfig) -> None:
    """Field-level validation; raises ConfigError naming the offending field."""
    if config.kind not in KINDS:
        raise ConfigError("kind", f"must be one of {KINDS}, got {config.kind!r}")
    if config.model not in MODELS:
        raise ConfigError("model", f"must be one of {MODELS}, got {config.model!r}")
    if config.kind == "relax" and config.model != "normal":
        raise ConfigError("model", "relaxation scenarios are defined for the normal model")
    # the intervals' upper quantile is taken at 1 - alpha/2, which must round below 1
    if not (0.0 < config.alpha < 1.0 and 1.0 - config.alpha / 2.0 < 1.0):
        raise ConfigError("alpha", f"must lie in (0, 1) with 1 - alpha/2 < 1, got {config.alpha}")
    for name in ("mu", "sigma", "log_mu", "log_sigma", "B"):
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ConfigError(name, f"must be finite, got {value!r}")
        if name in ("mu", "sigma") and abs(value) > PRICE_LIMIT:
            raise ConfigError(name, f"must be at most {PRICE_LIMIT!r} in magnitude, got {value!r}")
    if config.model in ("normal", "ar1") and not config.sigma > 0:
        raise ConfigError("sigma", f"must be > 0, got {config.sigma}")
    if config.model == "lognormal" and not config.log_sigma > 0:
        raise ConfigError("log_sigma", f"must be > 0, got {config.log_sigma}")
    uses_phi = config.model == "ar1" or (config.kind == "relax" and "ar1" in config.scenarios)
    if uses_phi and not (-1.0 < config.phi < 1.0):
        raise ConfigError("phi", f"must lie in (-1, 1), got {config.phi}")
    if (config.clamp_lo is None) != (config.clamp_hi is None):
        raise ConfigError("clamp_lo", "clamp_lo and clamp_hi must be set together")
    for name in ("clamp_lo", "clamp_hi"):
        if getattr(config, name) is not None and math.isnan(getattr(config, name)):
            raise ConfigError(name, "must not be NaN")
    if config.clamp_lo is not None and config.clamp_lo > config.clamp_hi:
        raise ConfigError("clamp_lo", "clamp_lo must not exceed clamp_hi")
    if config.T < 1:
        raise ConfigError("T", f"horizon must be >= 1, got {config.T}")
    if config.B < 0:
        raise ConfigError("B", f"capacity must be >= 0, got {config.B}")
    if not (0.0 <= config.s0 <= config.B):
        raise ConfigError("s0", f"initial level must lie in [0, B], got {config.s0}")
    for name in ("rounds", "eval_episodes", "episodes", "history_size"):
        if getattr(config, name) < 1:
            raise ConfigError(name, f"must be >= 1, got {getattr(config, name)}")
    if config.G < 2:
        raise ConfigError("G", f"grid size must be >= 2, got {config.G}")
    # the oracle interpolates over its G-step grid, so no step may round to 0
    if config.B > 0 and not np.all(np.diff(storage_grid(config.B, config.G)) > 0):
        raise ConfigError(
            "B", f"capacity {config.B!r} is too small for a {config.G}-step storage grid"
        )
    if config.K < 1:
        raise ConfigError("K", f"atom count must be >= 1, got {config.K}")
    if config.resample_mode not in RESAMPLE_MODES:
        raise ConfigError("resample_mode", f"must be one of {RESAMPLE_MODES}")
    if config.eval_source not in ("model", "held-out"):
        raise ConfigError("eval_source", "must be 'model' or 'held-out'")
    if config.verdict not in ("mean", "any"):
        raise ConfigError("verdict", "must be 'mean' or 'any'")
    if config.family not in FAMILIES:
        raise ConfigError("family", f"must be one of {FAMILIES}")
    if not (0.0 <= config.eta < 1.0):
        raise ConfigError("eta", f"demand-noise level must lie in [0, 1), got {config.eta}")
    for name in ("n_grid", "warmup_grid", "refresh_grid", "scenarios"):
        grid = getattr(config, name)
        if not grid:
            raise ConfigError(name, "grid must be nonempty")
        repeated = sorted({v for v in grid if grid.count(v) > 1})
        if repeated:
            # each entry is one output row, so a repeat writes two rows of one key
            raise ConfigError(name, f"grid entries must be distinct, got {repeated} repeated")
    if any(n < 2 for n in config.n_grid):
        raise ConfigError("n_grid", "every sample size must be >= 2")
    if any(w < 2 for w in config.warmup_grid):
        raise ConfigError("warmup_grid", "every warmup size must be >= 2")
    if any(not (r >= 1) for r in config.refresh_grid):
        raise ConfigError("refresh_grid", "every refresh stride must be >= 1 (inf allowed)")
    fractional = [r for r in config.refresh_grid if math.isfinite(r) and r != int(r)]
    if fractional:
        raise ConfigError("refresh_grid", f"refresh strides must be whole slots, got {fractional}")
    unknown = [s for s in config.scenarios if s not in SCENARIOS]
    if unknown:
        raise ConfigError("scenarios", f"unknown scenarios {unknown}, expected {SCENARIOS}")
    if config.kind == "relax" and "lognormal" in config.scenarios and not config.mu > 0:
        raise ConfigError("mu", f"the lognormal scenario needs a mean mu > 0, got {config.mu}")
    if config.kind in ("violation-curve", "estimate"):
        if config.history is not None and not Path(config.history).is_file():
            raise ConfigError("history", f"missing history file: {config.history}")
        if config.history is None and config.history_size < 2:
            raise ConfigError(
                "history_size",
                f"{config.kind} needs a synthesized history of >= 2 prices, "
                f"got {config.history_size}",
            )
    if config.history is None and config.kind in ("violation-curve",):
        # synthesized history must accommodate prefix/window draws
        if config.resample_mode != "with-replacement":
            if max(config.n_grid) > config.history_size:
                raise ConfigError(
                    "n_grid", "largest n exceeds history_size for a non-bootstrap mode"
                )
    demand = _parse_demand_spec(config.demand, config.T)
    # an initial fill that covers the total demand makes buying nothing optimal
    total = float(demand.sum())
    if config.kind in _RATIO_KINDS and total <= config.s0 + ENERGY_TOL:
        raise ConfigError(
            "demand",
            f"total demand {total!r} does not exceed the initial fill s0={config.s0!r}, "
            f"so {config.kind}'s competitive ratios are undefined",
        )
    if config.kind == "adaptive" and not config.clamp_m:
        raise ConfigError(
            "clamp_m",
            "adaptive needs clamp_m=true: a warmup estimate with a lower price bound <= 0 "
            "has no earlier report to fall back on",
        )
    # the true-parameter threshold policies need finite price bounds and
    # threshold, and a positive lower price bound
    location = "log_mu" if config.model == "lognormal" and config.kind == "policy-compare" else "mu"
    if config.kind == "relax":
        # the lognormal scenario's moment match fails where (sigma / mu)^2
        # overflows, for a small mu, or underflows, for a small sigma
        location = "mu" if config.sigma > config.mu else "sigma"
    try:  # a model constructor, or ``math.exp`` of a lognormal's marginal moments
        if config.kind == "policy-compare":
            policy_models = {"model": build_model(config)}
        elif config.kind == "relax":
            policy_models = {
                f"scenario {s!r}": scenario_models(config, s)[1] for s in config.scenarios
            }
        else:
            policy_models = {}
        with np.errstate(over="ignore"):  # an overflowing bound or threshold is reported below
            fits = model_bounds(policy_models.values(), config.clamp_m)
            thresholds = fits.threshold.tolist()
    except (ValueError, OverflowError) as err:
        raise ConfigError(
            location, f"the price model's moments leave float range ({type(err).__name__}: {err})"
        ) from None
    rows = zip(policy_models, fits.lower_bound.tolist(), fits.upper_bound.tolist(), thresholds)
    for label, lower, upper, threshold in rows:
        if not (math.isfinite(lower) and math.isfinite(upper)) or math.isinf(threshold):
            raise ConfigError(
                location,
                f"{label} has price bounds [{lower!r}, {upper!r}] and threshold {threshold!r}; "
                "they must be finite",
            )
        if lower <= 0.0:
            raise ConfigError(
                "clamp_m",
                f"{label} has lower price bound {lower!r} <= 0, so its threshold is undefined"
                + ("" if config.clamp_m else " without clamp_m=true"),
            )


def build_model(config: ExperimentConfig):
    """Price model described by the config, including the optional clamp."""
    if config.model == "normal":
        base = Normal(config.mu, config.sigma)
    elif config.model == "lognormal":
        base = LogNormal(config.log_mu, config.log_sigma)
    else:
        base = AR1(config.mu, config.sigma, config.phi)
    if config.clamp_lo is not None:
        return Clamped(base, config.clamp_lo, config.clamp_hi)
    return base


def scenario_models(config: ExperimentConfig, scenario: str) -> tuple[object, Normal, float]:
    """A relax scenario's (price model, normal model the policies assume, eta).

    The prices are serially correlated under ``ar1`` (the policies assume
    its normal marginal), lognormal with the normal model's mean and
    standard deviation under ``lognormal``, and the demand is noisy at
    level ``eta`` under ``demand-noise``.
    """
    assumed = Normal(config.mu, config.sigma)
    if scenario == "ar1":
        prices = AR1(config.mu, config.sigma, config.phi)
        return prices, Normal(config.mu, prices.marginal_std), 0.0
    if scenario == "lognormal":
        return LogNormal.from_moments(config.mu, config.sigma), assumed, 0.0
    return assumed, assumed, config.eta if scenario == "demand-noise" else 0.0


def _demand_entry(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError("demand", f"{where}: cannot parse demand from {raw!r}") from None
    if not (math.isfinite(value) and value >= 0):
        raise ConfigError("demand", f"{where}: demand must be finite and >= 0, got {raw!r}")
    return value


def _parse_demand_spec(spec: str, horizon: int) -> np.ndarray:
    head, _, tail = spec.partition(":")
    if head == "constant":
        return np.full(horizon, _demand_entry(tail, "constant demand"))
    if head == "vector":
        entries = [(tok, "demand vector") for tok in tail.split(",") if tok.strip()]
    elif head == "file":
        if not Path(tail).is_file():
            raise ConfigError("demand", f"missing demand file: {tail}")
        lines = Path(tail).read_text(encoding="utf-8").splitlines()
        entries = [
            (line, f"demand file {tail}:{n}") for n, line in enumerate(lines, 1) if line.strip()
        ]
    else:
        raise ConfigError("demand", f"unknown demand spec {spec!r} (constant:|vector:|file:)")
    values = np.array([_demand_entry(raw, where) for raw, where in entries], dtype=float)
    if values.size != horizon:
        raise ConfigError("demand", f"{head} demand has {values.size} values, horizon is {horizon}")
    return values


def build_instance(config: ExperimentConfig) -> Instance:
    demand = _parse_demand_spec(config.demand, config.T)
    storage = StorageSpec(capacity=config.B, initial_level=config.s0)
    return Instance(horizon=config.T, demand=demand, storage=storage)


def load_history(config: ExperimentConfig):
    """Historical series: from file when configured, else synthesized."""
    if config.history is not None:
        return ingest(config.history)
    from .prices import generate
    from .seeds import stream

    return generate(build_model(config), config.history_size, stream(config.seed, 90))
