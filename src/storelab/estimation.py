"""Point estimates, confidence intervals, and the derived trading bounds.

From a sample of prices this module produces the classical t interval for
the mean and chi-squared interval for the standard deviation, turns them
into three-sigma price bounds (upper/lower), and sets the purchase
threshold at the geometric mean of those bounds.

``estimate_rows`` is the one estimation pipeline: it estimates R
equal-size samples at once, as whole-array work over an (R, n) array, and
flags a row whose lower bound is <= 0 rather than raising.  ``estimate``
is its one-row case, as an ``EstimateReport`` that raises
``threshold_price``'s error where the row fails.  The t and chi-squared
quantiles of every interval and bound are computed once per (n, alpha)
and cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .special import chi2_quantile, t_quantile

CLAMP_EPS = 1e-3

# floats in one sample array passed to ``estimate_rows``: callers estimate
# their rows in blocks of max(1, BLOCK_FLOATS // n) size-n samples
BLOCK_FLOATS = 1 << 15


class EstimationError(ValueError):
    """Base class for estimation failures."""


class DegenerateSpreadError(EstimationError):
    """The sample has zero spread, so the sigma interval is undefined."""


class NonpositiveLowerBoundError(EstimationError):
    """The lower price bound is <= 0; the threshold is undefined without a clamp."""


@dataclass(frozen=True)
class SampleStats:
    """Sample size, mean, and standard deviation (n-1 denominator)."""

    n: int
    mean: float
    sample_std: float


def mu_interval(stats: SampleStats, alpha: float) -> tuple[float, float]:
    """Two-sided (1-alpha) interval for the mean: mean +- s/sqrt(n) t_{1-alpha/2}."""
    _check_alpha(alpha)
    half = stats.sample_std / math.sqrt(stats.n) * _bound_quantiles(stats.n, alpha)[0]
    return stats.mean - half, stats.mean + half


def sigma_interval(stats: SampleStats, alpha: float) -> tuple[float, float]:
    """Two-sided (1-alpha) interval for sigma from (n-1)s^2/sigma^2 ~ chi2(n-1).

    The lower endpoint uses the upper chi-squared critical point and vice
    versa, which keeps the interval ordered.
    """
    _check_alpha(alpha)
    if stats.sample_std <= 0.0:
        raise DegenerateSpreadError("sigma interval undefined at zero sample spread")
    df = stats.n - 1
    _, chi2_hi, chi2_lo = _bound_quantiles(stats.n, alpha)
    return stats.sample_std * math.sqrt(df / chi2_hi), stats.sample_std * math.sqrt(df / chi2_lo)


def threshold_price(upper: float, lower: float) -> float:
    """Purchase threshold at the geometric mean sqrt(upper * lower)."""
    if upper < lower:
        raise ValueError(f"bounds out of order: upper={upper} < lower={lower}")
    if lower <= 0.0:
        raise NonpositiveLowerBoundError(
            f"threshold undefined for lower bound {lower} <= 0; clamp it first"
        )
    return math.sqrt(upper * lower)


def clamp_lower_bound(upper: float, lower: float) -> float:
    """Floor the lower bound at CLAMP_EPS times a positive upper bound."""
    return max(lower, CLAMP_EPS * upper) if upper > 0.0 else lower


def model_bounds(model, clamp: bool) -> tuple[float, float]:
    """Three-sigma (upper, lower) price bounds of a model's marginal law.

    With ``clamp`` the lower bound is floored as ``estimate`` floors it; a
    nonpositive lower bound is returned as is, for the caller to reject.
    """
    mean, std = model.marginal_mean, model.marginal_std
    upper, lower = mean + 3.0 * std, mean - 3.0 * std
    return upper, clamp_lower_bound(upper, lower) if clamp else lower


@dataclass(frozen=True)
class EstimateReport:
    """Everything derived from one sample at one confidence level."""

    alpha: float
    stats: SampleStats
    upper_bound: float
    lower_bound: float
    threshold: float
    conservative: bool
    lower_clamped: bool = False

    @property
    def mu_interval(self) -> tuple[float, float]:
        """(1-alpha) t interval for the mean, computed on read."""
        return mu_interval(self.stats, self.alpha)

    @property
    def sigma_interval(self) -> tuple[float, float]:
        """(1-alpha) chi-squared interval for sigma; (0, 0) at zero spread."""
        if self.stats.sample_std <= 0.0:
            return 0.0, 0.0
        return sigma_interval(self.stats, self.alpha)

    @property
    def ratio_bound(self) -> float:
        """Guaranteed competitive-ratio ceiling sqrt(upper / lower)."""
        return math.sqrt(self.upper_bound / self.lower_bound)

    def to_record(self) -> dict:
        """Flat record: the estimate CSV's columns, in order, and their values."""
        mu_lo, mu_hi = self.mu_interval
        sigma_lo, sigma_hi = self.sigma_interval
        return {
            "n": self.stats.n,
            "alpha": self.alpha,
            "mean": self.stats.mean,
            "s": self.stats.sample_std,
            "mu_lo": mu_lo,
            "mu_hi": mu_hi,
            "sigma_lo": sigma_lo,
            "sigma_hi": sigma_hi,
            "m_hat": self.lower_bound,
            "M_hat": self.upper_bound,
            "theta_hat": self.threshold,
            "conservative": int(self.conservative),
        }


@dataclass(frozen=True, eq=False)
class RowEstimates:
    """``estimate_rows`` of R size-n samples: one (R,) array per statistic.

    Where a row's lower bound is <= 0, ``failed[i]`` is set and the
    threshold and ratio bound read NaN; ``estimate`` raises there.
    """

    mean: np.ndarray
    sample_std: np.ndarray
    upper_bound: np.ndarray
    lower_bound: np.ndarray
    lower_clamped: np.ndarray
    failed: np.ndarray

    @property
    def threshold(self) -> np.ndarray:
        """Purchase thresholds sqrt(upper * lower); NaN where ``failed``."""
        return self._where_defined(np.multiply)

    @property
    def ratio_bound(self) -> np.ndarray:
        """Competitive-ratio ceilings sqrt(upper / lower); NaN where ``failed``."""
        return self._where_defined(np.divide)

    def _where_defined(self, op) -> np.ndarray:
        out = np.full(self.failed.shape, np.nan)
        ok = ~self.failed
        out[ok] = np.sqrt(op(self.upper_bound[ok], self.lower_bound[ok]))
        return out


@lru_cache(maxsize=256)
def _bound_quantiles(n: int, alpha: float) -> tuple[float, float, float]:
    """t(1-alpha/2), chi2(1-alpha/2) and chi2(alpha/2) at n - 1 degrees of freedom."""
    df = n - 1
    return (
        t_quantile(1.0 - alpha / 2.0, df),
        chi2_quantile(1.0 - alpha / 2.0, df),
        chi2_quantile(alpha / 2.0, df),
    )


def estimate_rows(
    samples,
    alpha: float = 0.05,
    *,
    conservative: bool = False,
    clamp_nonpositive_lower: bool = False,
) -> RowEstimates:
    """Estimate every row of an (R, n) array of samples, as whole-array work.

    Each step runs on (R,) arrays: the two-pass mean and sample standard
    deviation; the three-sigma bounds mean +- 3 s, or in conservative mode
    the (1-alpha) interval ends (the upper bound takes the high ends of the
    mean and sigma intervals, the lower bound the low end of the mean
    interval minus three times the high sigma end; a zero-spread row keeps
    its point bounds); and the clamp, which floors a lower bound at
    ``CLAMP_EPS`` times a positive upper bound.  The threshold and the
    ratio bound are taken when read.  A row whose lower bound ends up <= 0
    is flagged in ``failed``; errors that concern the whole array (a bad
    alpha, n < 2, a non-finite value) raise.
    """
    _check_alpha(alpha)
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2:
        raise ValueError("samples must be two-dimensional, one sample per row")
    rows, n = x.shape
    if n < 2:
        raise EstimationError(f"need at least 2 observations, got {n}")
    if not np.isfinite(x).all():
        raise ValueError("sample contains non-finite values")
    mean = np.add.reduce(x, axis=1) / n  # x.mean(axis=1), without its wrapper
    dev = x - mean[:, None]
    s = np.sqrt(np.add.reduce(np.square(dev, out=dev), axis=1) / (n - 1))
    upper, lower = mean + 3.0 * s, mean - 3.0 * s
    if conservative:
        t_q, _, chi2_lo = _bound_quantiles(n, alpha)
        half = s / math.sqrt(n) * t_q
        sig_hi = s * math.sqrt((n - 1) / chi2_lo)
        spread = s > 0.0
        upper = np.where(spread, (mean + half) + 3.0 * sig_hi, upper)
        lower = np.where(spread, (mean - half) - 3.0 * sig_hi, lower)
    clamped = np.zeros(rows, dtype=bool)
    if clamp_nonpositive_lower:
        floor = CLAMP_EPS * upper
        clamped = (upper > 0.0) & (floor > lower)
        lower = np.where(clamped, floor, lower)
    return RowEstimates(
        mean=mean, sample_std=s, upper_bound=upper, lower_bound=lower,
        lower_clamped=clamped, failed=lower <= 0.0,
    )


def estimate(
    data,
    alpha: float = 0.05,
    *,
    conservative: bool = False,
    clamp_nonpositive_lower: bool = False,
) -> EstimateReport:
    """``estimate_rows`` of one sample, as a report.

    A zero-spread sample degenerates gracefully: both intervals collapse,
    the bounds coincide with the mean, and the threshold equals it.  A
    nonpositive lower bound raises unless the clamp is requested.
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 1:
        raise ValueError("sample must be one-dimensional")
    fit = estimate_rows(arr[None, :], alpha, conservative=conservative,
                        clamp_nonpositive_lower=clamp_nonpositive_lower)
    upper, lower = float(fit.upper_bound[0]), float(fit.lower_bound[0])
    return EstimateReport(
        alpha=alpha, stats=SampleStats(arr.size, float(fit.mean[0]), float(fit.sample_std[0])),
        upper_bound=upper, lower_bound=lower, threshold=threshold_price(upper, lower),
        conservative=conservative, lower_clamped=bool(fit.lower_clamped[0]),
    )


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
