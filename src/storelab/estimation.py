"""Point estimates, confidence intervals, and the derived trading bounds.

From a sample of prices this module produces the classical t interval for
the mean and chi-squared interval for the standard deviation, turns them
into three-sigma price bounds (upper/lower), and sets the purchase
threshold at the geometric mean of those bounds.

``estimate_rows`` is the one estimation pipeline: it estimates R
equal-size samples at once, as whole-array work over an (R, n) array, and
flags a row whose lower bound is <= 0 rather than raising.  ``estimate``
is its one-row case, as an ``EstimateReport`` record of the estimate
CSV's columns, and raises the row's ``NonpositiveLowerBoundError`` where
it fails.  ``model_bounds`` bounds true price models by the same
arithmetic, one ``RowEstimates`` row per model: one helper turns a mean
and a standard deviation into the bounds, the clamp and the failed mask,
and one gives the interval ends.  The t and chi-squared quantiles of
every interval and bound are computed once per (n, alpha) and cached.
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


class NonpositiveLowerBoundError(EstimationError):
    """The lower price bound is <= 0; the threshold is undefined without a clamp."""


@dataclass(frozen=True)
class EstimateReport:
    """``estimate`` of one sample: the estimate CSV's columns, in order, then
    the ratio bound sqrt(M_hat / m_hat) and whether the lower bound was clamped."""

    n: int
    alpha: float
    mean: float
    s: float
    mu_lo: float
    mu_hi: float
    sigma_lo: float
    sigma_hi: float
    m_hat: float
    M_hat: float
    theta_hat: float
    conservative: int  # 0 or 1, as the CSV writes it
    ratio_bound: float
    lower_clamped: bool


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

    def failure(self, i: int) -> NonpositiveLowerBoundError:
        """The error of failed row i, which ``estimate`` raises."""
        return NonpositiveLowerBoundError(
            f"threshold undefined for lower bound {float(self.lower_bound[i])} <= 0; clamp it first"
        )

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


def _intervals(mean, s, n: int, alpha: float):
    """(mu_lo, mu_hi, sigma_lo, sigma_hi) of size-n samples at level 1 - alpha.

    The t interval mean +- s/sqrt(n) t_{1-alpha/2}, and the interval for
    sigma from (n-1)s^2/sigma^2 ~ chi2(n-1), whose lower end uses the upper
    chi-squared point and vice versa; at zero spread both collapse.
    """
    t_q, chi2_hi, chi2_lo = _bound_quantiles(n, alpha)
    half = s / math.sqrt(n) * t_q
    sigma_lo, sigma_hi = s * math.sqrt((n - 1) / chi2_hi), s * math.sqrt((n - 1) / chi2_lo)
    return mean - half, mean + half, sigma_lo, sigma_hi


def _bounded(mean, s, clamp: bool, ends=None) -> RowEstimates:
    """Rows of means and standard deviations, bounded and clamped.

    The bounds are hi + 3 w and lo - 3 w, with (lo, hi, w) the (mean,
    mean, s) of the three-sigma bounds, or the conservative ``ends``
    (mu_lo, mu_hi, sigma_hi).  ``clamp`` floors a lower bound at
    ``CLAMP_EPS`` times a positive upper bound; a row whose lower bound
    ends up <= 0 is ``failed``.
    """
    lo, hi, w = (mean, mean, s) if ends is None else ends
    upper, lower = hi + 3.0 * w, lo - 3.0 * w
    clamped = np.zeros(mean.shape, dtype=bool)
    if clamp:
        floor = CLAMP_EPS * upper
        clamped = (upper > 0.0) & (floor > lower)
        lower = np.where(clamped, floor, lower)
    return RowEstimates(
        mean=mean, sample_std=s, upper_bound=upper, lower_bound=lower,
        lower_clamped=clamped, failed=lower <= 0.0,
    )


def model_bounds(models, clamp: bool) -> RowEstimates:
    """Three-sigma bounds of each model's marginal law, one row per model.

    The rows are bounded, clamped with ``clamp`` and failed as
    ``estimate_rows`` bounds an estimate, from each model's
    ``marginal_mean`` and ``marginal_std``.
    """
    mean = np.array([model.marginal_mean for model in models], dtype=float)
    std = np.array([model.marginal_std for model in models], dtype=float)
    return _bounded(mean, std, clamp)


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
    interval minus three times the high sigma end, which at zero spread
    are the point bounds); and the clamp, which floors a lower bound at
    ``CLAMP_EPS`` times a positive upper bound.  The threshold and the
    ratio bound are taken when read.  A row whose lower bound ends up <= 0
    is flagged in ``failed``; errors that concern the whole array (a bad
    alpha, n < 2, a non-finite value) raise.
    """
    _check_alpha(alpha)
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2:
        raise ValueError("samples must be two-dimensional, one sample per row")
    n = x.shape[1]
    if n < 2:
        raise EstimationError(f"need at least 2 observations, got {n}")
    if not np.isfinite(x).all():
        raise ValueError("sample contains non-finite values")
    mean = np.add.reduce(x, axis=1) / n  # x.mean(axis=1), without its wrapper
    dev = x - mean[:, None]
    s = np.sqrt(np.add.reduce(np.square(dev, out=dev), axis=1) / (n - 1))
    ends = None
    if conservative:
        mu_lo, mu_hi, _, sigma_hi = _intervals(mean, s, n, alpha)
        ends = mu_lo, mu_hi, sigma_hi
    return _bounded(mean, s, clamp_nonpositive_lower, ends)


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
    if fit.failed[0]:
        raise fit.failure(0)
    ends = _intervals(fit.mean, fit.sample_std, arr.size, alpha)
    columns = (fit.mean, fit.sample_std, *ends, fit.lower_bound, fit.upper_bound, fit.threshold)
    return EstimateReport(
        arr.size, alpha, *(float(a[0]) for a in columns), int(conservative),
        float(fit.ratio_bound[0]), bool(fit.lower_clamped[0]),
    )


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
