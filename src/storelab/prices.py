"""Synthetic price generators and ingestion of historical price files.

Models expose two things: ``draw`` for sampling a series and ``quantile``
for the marginal (for AR1: stationary) distribution, which is what the
dynamic-programming policy integrates over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .seeds import rng_from
from .special import normal_quantile

RESAMPLE_MODES = ("with-replacement", "prefix", "random-window")


class IngestError(ValueError):
    """A price file is missing, empty, or has an unparseable row."""


def as_series(values, name: str = "series") -> np.ndarray:
    """Validate and freeze a price series (1-d, finite, float64)."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Normal:
    """Independent draws from N(mu, sigma^2)."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not (self.sigma > 0) or not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be > 0, got {self.sigma}")

    def draw(self, rng: np.random.Generator, length: int) -> np.ndarray:
        return rng.normal(self.mu, self.sigma, length)

    def quantile(self, p: float) -> float:
        return self.mu + self.sigma * normal_quantile(p)

    @property
    def marginal_mean(self) -> float:
        return self.mu

    @property
    def marginal_std(self) -> float:
        return self.sigma


@dataclass(frozen=True)
class LogNormal:
    """exp of N(log_mu, log_sigma^2); right-skewed positive prices."""

    log_mu: float
    log_sigma: float

    def __post_init__(self) -> None:
        if not (self.log_sigma > 0) or not math.isfinite(self.log_sigma):
            raise ValueError(f"log_sigma must be > 0, got {self.log_sigma}")

    @classmethod
    def from_moments(cls, mean: float, std: float) -> "LogNormal":
        """Parameters matching a target mean and standard deviation."""
        if mean <= 0:
            raise ValueError("lognormal moment matching needs mean > 0")
        s2 = math.log1p((std / mean) ** 2)
        return cls(log_mu=math.log(mean) - 0.5 * s2, log_sigma=math.sqrt(s2))

    def draw(self, rng: np.random.Generator, length: int) -> np.ndarray:
        return rng.lognormal(self.log_mu, self.log_sigma, length)

    def quantile(self, p: float) -> float:
        return math.exp(self.log_mu + self.log_sigma * normal_quantile(p))

    @property
    def marginal_mean(self) -> float:
        return math.exp(self.log_mu + 0.5 * self.log_sigma**2)

    @property
    def marginal_std(self) -> float:
        return self.marginal_mean * math.sqrt(math.expm1(self.log_sigma**2))


@dataclass(frozen=True)
class AR1:
    """Mean-reverting Gaussian chain p(t) = mu + phi (p(t-1) - mu) + eps(t).

    Innovations eps are N(0, sigma^2); the first value is drawn from the
    stationary distribution N(mu, sigma^2 / (1 - phi^2)), so the whole
    series is stationary.  ``quantile`` refers to that stationary marginal.
    """

    mu: float
    sigma: float
    phi: float

    def __post_init__(self) -> None:
        if not (self.sigma > 0) or not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not (-1.0 < self.phi < 1.0):
            raise ValueError(f"phi must lie in (-1, 1), got {self.phi}")

    def draw(self, rng: np.random.Generator, length: int) -> np.ndarray:
        z = rng.standard_normal(length)
        out = np.empty(length)
        out[0] = self.mu + self.marginal_std * z[0]
        for t in range(1, length):
            out[t] = self.mu + self.phi * (out[t - 1] - self.mu) + self.sigma * z[t]
        return out

    def quantile(self, p: float) -> float:
        return self.mu + self.marginal_std * normal_quantile(p)

    @property
    def marginal_mean(self) -> float:
        return self.mu

    @property
    def marginal_std(self) -> float:
        return self.sigma / math.sqrt(1.0 - self.phi**2)


@dataclass(frozen=True, eq=False)
class Empirical:
    """A fixed historical series; sampled via resample, never generated."""

    series: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "series", as_series(self.series))
        if self.series.size == 0:
            raise ValueError("empirical model needs a nonempty series")

    def quantile(self, p: float) -> float:
        # inverse empirical CDF: smallest value v with F(v) >= p
        svals = np.sort(self.series)
        n = svals.size
        k = min(n - 1, max(0, math.ceil(p * n) - 1))
        return float(svals[k])

    @property
    def marginal_mean(self) -> float:
        return float(self.series.mean())

    @property
    def marginal_std(self) -> float:
        return float(self.series.std(ddof=1)) if self.series.size > 1 else 0.0


@dataclass(frozen=True, eq=False)
class Clamped:
    """Clip another model's prices into [lo, hi].

    Used by competitive-ratio experiments that require bounded prices.
    Moments are reported from the base model (the clip is a thin trim).
    """

    base: object
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (self.lo <= self.hi):
            raise ValueError(f"clamp bounds out of order: [{self.lo}, {self.hi}]")

    def draw(self, rng: np.random.Generator, length: int) -> np.ndarray:
        return np.clip(self.base.draw(rng, length), self.lo, self.hi)

    def quantile(self, p: float) -> float:
        return float(min(max(self.base.quantile(p), self.lo), self.hi))

    @property
    def marginal_mean(self) -> float:
        return self.base.marginal_mean

    @property
    def marginal_std(self) -> float:
        return self.base.marginal_std


def generate(model, length: int, seed) -> np.ndarray:
    """Sample a price series of the given length, deterministic per seed."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    inner = model.base if isinstance(model, Clamped) else model
    if isinstance(inner, Empirical):
        raise ValueError("empirical histories are resampled, not generated")
    return as_series(model.draw(rng_from(seed), length))


def resample(history, n: int, seed, mode: str = "with-replacement") -> np.ndarray:
    """Draw a size-n sample from a historical series.

    ``prefix`` takes the first n values, ``random-window`` a contiguous
    random window, ``with-replacement`` an i.i.d. bootstrap sample.  The
    history is validated with ``as_series`` first.
    """
    return _resample(as_series(history, "history"), n, seed, mode)


def _resample(history: np.ndarray, n: int, seed, mode: str) -> np.ndarray:
    """``resample`` of a series ``as_series`` has already validated, indexed as it stands."""
    if mode not in RESAMPLE_MODES:
        raise ValueError(f"unknown resample mode {mode!r}, expected one of {RESAMPLE_MODES}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if mode == "with-replacement":
        if history.size == 0:
            raise ValueError("cannot bootstrap an empty history")
        rng = rng_from(seed)
        sample = history[rng.integers(0, history.size, size=n)]
    elif n > history.size:
        raise ValueError(f"n={n} exceeds history length {history.size} for mode {mode!r}")
    elif mode == "prefix":
        sample = history[:n].copy()
    else:
        rng = rng_from(seed)
        start = int(rng.integers(0, history.size - n + 1))
        sample = history[start : start + n].copy()
    sample.flags.writeable = False
    return sample


def ingest(path) -> np.ndarray:
    """Read one price per non-blank line from a text file, in file order."""
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"missing price file: {path}")
    values: list[float] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            raw = line.strip()
            if not raw:
                continue
            try:
                value = float(raw)
            except ValueError:
                raise IngestError(f"{path}:{lineno}: cannot parse price from {raw!r}") from None
            if not math.isfinite(value):
                raise IngestError(f"{path}:{lineno}: non-finite price {raw!r}")
            values.append(value)
    if not values:
        raise IngestError(f"{path}: no prices found")
    return as_series(values)


def write_series(path, series) -> None:
    """Write a series one price per line with full round-trip precision."""
    series = as_series(series)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for v in series:
            fh.write(f"{v:.17g}\n")
