"""Control policies: threshold rules, expected-cost DP, and adaptive re-estimation.

The threshold policy buys and fills the store whenever the price is at or
below its threshold (the boundary price counts as cheap) and serves from
storage otherwise.  The DP policy minimizes expected cost by backward
induction on a storage grid, integrating the price with equal-weight
quantile-midpoint atoms, and acts on the observed price each slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import special
from .estimation import EstimateReport, EstimationError, estimate
from .model import (
    Instance,
    StorageSpec,
    feasible_purchase_range,
    feasible_purchase_ranges,
    max_first,
    min_first,
)
from .prices import Normal, as_series


class Policy:
    """Per-slot purchase rule driven by the simulation engine.

    ``decide`` maps (slot, storage level, observed price, instance) to a
    purchase; the engine clamps it into the feasible range.  A policy that
    defines ``observe`` is passed each slot's price after the slot, so it
    can accumulate price history.  ``decide_batch`` takes one level and one
    price per row and returns one purchase per row, equal bit for bit to
    ``decide`` on each row; ``simulate_batch`` drives it.
    """

    policy_id = "policy"

    def decide(self, t: int, level: float, price: float, instance: Instance) -> float:
        raise NotImplementedError

    def decide_batch(
        self, t: int, levels: np.ndarray, prices: np.ndarray, instance: Instance
    ) -> np.ndarray:
        raise NotImplementedError


class ThresholdPolicy(Policy):
    """Fill the store at cheap prices, drain it at expensive ones.

    At a price <= threshold the policy buys the demand plus whatever tops
    the store up to ``fill_target`` (the full capacity by default); above
    the threshold it moves toward an empty store, buying only what the
    store cannot cover.  ``threshold`` may also be one value per row, for
    ``decide_batch`` only.
    """

    def __init__(self, threshold, fill_target: float | None = None,
                 policy_id: str = "threshold") -> None:
        values = np.asarray(threshold, dtype=float)
        if values.ndim > 1 or not (np.all(values > 0) and np.all(np.isfinite(values))):
            raise ValueError(f"threshold must be finite and > 0, got {threshold}")
        if fill_target is not None and not (0.0 <= fill_target < math.inf):
            raise ValueError(f"fill target must be finite and >= 0, got {fill_target}")
        self.threshold = float(values) if values.ndim == 0 else values
        self.fill_target = fill_target
        self.policy_id = policy_id

    def _target_full(self, spec: StorageSpec) -> float:
        if self.fill_target is None:
            return spec.capacity
        if self.fill_target > spec.capacity + 1e-9:
            raise ValueError(
                f"fill target {self.fill_target} exceeds capacity {spec.capacity}"
            )
        return self.fill_target

    def decide(self, t, level, price, instance):
        spec = instance.storage
        target_full = self._target_full(spec)
        d = float(instance.demand[t])
        q_lo, q_hi = feasible_purchase_range(spec, level, d)
        target = target_full if price <= self.threshold else 0.0
        want = d + target - level
        return min(max(want, q_lo), q_hi)

    def decide_batch(self, t, levels, prices, instance):
        spec = instance.storage
        target_full = self._target_full(spec)
        d = instance.demand[t]
        q_lo, q_hi = feasible_purchase_ranges(spec, levels, d)
        target = np.where(prices <= self.threshold, target_full, 0.0)
        want = d + target - levels
        return min_first(max_first(want, q_lo), q_hi)


def linear_budget(threshold: float, upper: float, lower: float, capacity: float) -> float:
    """Fill budget shrinking linearly from full capacity to zero.

    A threshold at the lower price bound keeps the whole capacity, one at
    the upper bound keeps none; in between the budget is
    capacity * (upper - threshold) / (upper - lower), clipped to [0, 1].
    """
    span = upper - lower
    if span <= 0.0:
        frac = 1.0 if threshold <= lower else 0.0
    else:
        frac = min(max((upper - threshold) / span, 0.0), 1.0)
    return capacity * frac


@dataclass(frozen=True, eq=False)
class ValueTable:
    """Expected optimal cost-to-go on a storage grid.

    values[t, i] is the pre-price expected cost of serving slots t..T-1
    optimally starting from storage grid[i]; values[T] is identically zero.
    Only rows first_slot..T are built; the rows before it are zero.
    """

    grid: np.ndarray
    values: np.ndarray
    first_slot: int = 0

    @property
    def horizon(self) -> int:
        return self.values.shape[0] - 1


def storage_grid(capacity: float, grid_size: int) -> np.ndarray:
    """Equally spaced storage levels; a zero-capacity store collapses to one point."""
    if capacity <= 0.0:
        return np.zeros(1)
    return np.linspace(0.0, capacity, grid_size + 1)


def backward_step(
    grid: np.ndarray,
    v_next: np.ndarray,
    demand: float,
    spec: StorageSpec,
    atoms: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """One Bellman step of the purchase DP.

    For every grid level and price atom, minimizes price * purchase plus
    the interpolated next value over candidate next levels: every feasible
    grid point plus the exact lower feasibility endpoint.  The store can
    always fill to capacity within a slot, so the feasible next levels are
    [s_lo, capacity], and splitting the cost as p (d - s) + (p s' + V(s'))
    turns the scan into suffix minima over the next-level axis.
    """
    cap = spec.capacity
    q_lo = np.maximum(0.0, demand - np.minimum(grid, cap))
    s_lo = np.clip(grid + (q_lo - demand), 0.0, cap)
    v_lo = np.interp(s_lo, grid, v_next)
    shifted = atoms[:, None] * grid[None, :] + v_next[None, :]  # (K, G+1) over s'
    suffix = np.minimum.accumulate(shifted[:, ::-1], axis=1)[:, ::-1]
    idx = np.searchsorted(grid, s_lo, side="left")
    best = np.minimum(suffix[:, idx], atoms[:, None] * s_lo[None, :] + v_lo[None, :])
    return weights @ (atoms[:, None] * (demand - grid[None, :]) + best)


def _midpoint_probs(count: int) -> np.ndarray:
    return (np.arange(count) + 0.5) / count


@lru_cache(maxsize=None)
def _standard_normal_atoms(count: int) -> np.ndarray:
    """Read-only standard-normal quantiles at the ``count`` midpoints."""
    z = np.asarray([special.normal_quantile(float(p)) for p in _midpoint_probs(count)])
    z.flags.writeable = False
    return z


def quantile_atoms(model, count: int) -> np.ndarray:
    """Equal-weight quantile-midpoint price atoms: quantiles (j - 0.5) / count.

    A ``Normal`` model's atoms are ``mu + sigma * z`` over the cached
    standard-normal midpoints, the same arithmetic as ``Normal.quantile``.
    """
    if count < 1:
        raise ValueError(f"need at least one atom, got {count}")
    if isinstance(model, Normal):
        return model.mu + model.sigma * _standard_normal_atoms(count)
    return np.asarray([model.quantile(float(p)) for p in _midpoint_probs(count)], dtype=float)


def build_value_table(
    instance: Instance, model, grid_size: int = 100, atom_count: int = 51,
    first_slot: int = 0,
) -> ValueTable:
    """Backward induction over the horizon for a price model.

    Only slots first_slot..T-1 are stepped.  values[t] depends on
    values[t + 1] alone, so those rows equal a full build bit for bit.
    """
    if grid_size < 2:
        raise ValueError(f"grid size must be >= 2, got {grid_size}")
    T = instance.horizon
    if not (0 <= first_slot <= T):
        raise ValueError(f"first slot must lie in [0, {T}], got {first_slot}")
    spec = instance.storage
    grid = storage_grid(spec.capacity, grid_size)
    atoms = quantile_atoms(model, atom_count)
    weights = np.full(atom_count, 1.0 / atom_count)
    values = np.zeros((T + 1, grid.size))
    for t in range(T - 1, first_slot - 1, -1):
        values[t] = backward_step(
            grid, values[t + 1], float(instance.demand[t]), spec, atoms, weights
        )
    grid.flags.writeable = False
    values.flags.writeable = False
    return ValueTable(grid=grid, values=values, first_slot=first_slot)


def argmin_purchase(
    grid: np.ndarray,
    v_next: np.ndarray,
    spec: StorageSpec,
    level: float,
    demand: float,
    price: float,
) -> float:
    """Purchase minimizing price * q + interpolated next value.

    Candidates are the feasible grid next-levels plus the exact endpoint
    levels; ties resolve toward the smaller purchase.
    """
    q_lo, q_hi = feasible_purchase_range(spec, level, demand)
    cap = spec.capacity
    s_lo = min(max(level + q_lo - demand, 0.0), cap)
    s_hi = min(max(level + q_hi - demand, 0.0), cap)
    i0 = int(np.searchsorted(grid, s_lo, side="left"))
    i1 = int(np.searchsorted(grid, s_hi, side="right"))
    # Already non-decreasing (grid[i0] >= s_lo, grid[i1 - 1] <= s_hi); a repeated
    # level costs the same, so argmin picks the same level as over unique values.
    cands = np.concatenate(([s_lo], grid[i0:i1], [s_hi]))
    costs = price * (cands - level + demand) + np.interp(cands, grid, v_next)
    pick = float(cands[int(np.argmin(costs))])
    return min(max(pick - level + demand, q_lo), q_hi)


def interp_rows(x: np.ndarray, grid: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """``np.interp(x[e], grid, fp[e])`` for every row e, bit for bit.

    ``x`` is (E, m); ``fp`` is (E, len(grid)) or one shared row.  The same
    arithmetic as numpy's interp: a point on the grid (or beyond its ends)
    takes the grid value, any other the slope times its offset from the
    grid point below, plus that point's value.  Values must be finite.
    """
    n = grid.size
    rows = fp.reshape(-1, n)
    if n == 1:
        return np.broadcast_to(rows, x.shape)
    x = np.minimum(np.maximum(x, grid[0]), grid[-1])
    j = np.minimum(np.searchsorted(grid, x, side="right"), n - 1) - 1
    if rows.shape[0] > 1:
        j_flat = j + (n * np.arange(x.shape[0]))[:, None]
    else:
        j_flat = j
    x0, x1 = grid[j], grid[j + 1]
    y0, y1 = rows.take(j_flat), rows.take(j_flat + 1)
    inner = (y1 - y0) / (x1 - x0) * (x - x0) + y0
    return np.where(x == x1, y1, np.where(x == x0, y0, inner))


def argmin_purchases(
    grid: np.ndarray,
    v_next: np.ndarray,
    spec: StorageSpec,
    levels: np.ndarray,
    demand,
    prices: np.ndarray,
) -> np.ndarray:
    """``argmin_purchase`` for every row, bit for bit.

    ``v_next`` is one shared row or one row per level, ``demand`` one value
    or one per row.  Grid points outside a row's feasible next levels cost
    +inf; the pick is the first minimum in ``argmin_purchase``'s candidate
    order: lower endpoint, grid points, upper endpoint.
    """
    q_lo, q_hi = feasible_purchase_ranges(spec, levels, demand)
    cap = spec.capacity
    s_lo = min_first(max_first(levels + q_lo - demand, 0.0), cap)
    s_hi = min_first(max_first(levels + q_hi - demand, 0.0), cap)
    v_lo, v_hi = interp_rows(np.stack((s_lo, s_hi), axis=1), grid, v_next).T
    cost_lo = prices * (s_lo - levels + demand) + v_lo
    cost_hi = prices * (s_hi - levels + demand) + v_hi
    d = demand if np.ndim(demand) == 0 else demand[:, None]
    grid_cost = prices[:, None] * (grid - levels[:, None] + d) + v_next
    grid_cost[(grid < s_lo[:, None]) | (grid > s_hi[:, None])] = np.inf
    j = np.argmin(grid_cost, axis=1)
    cost_grid = grid_cost[np.arange(j.size), j]
    pick = np.where(cost_grid <= cost_hi, grid[j], s_hi)
    pick = np.where((cost_lo <= cost_grid) & (cost_lo <= cost_hi), s_lo, pick)
    return min_first(max_first(pick - levels + demand, q_lo), q_hi)


class DpPolicy(Policy):
    """Greedy policy against a value table, acting on the observed price."""

    policy_id = "dp"

    def __init__(self, table: ValueTable) -> None:
        self.table = table

    def _check_slot(self, t: int) -> None:
        table = self.table
        if t >= table.horizon:
            raise IndexError(f"slot {t} beyond table horizon {table.horizon}")
        if t < table.first_slot:
            raise IndexError(f"slot {t} before table first slot {table.first_slot}")

    def decide(self, t, level, price, instance):
        table = self.table
        self._check_slot(t)
        return argmin_purchase(
            table.grid, table.values[t + 1], instance.storage, level,
            float(instance.demand[t]), price,
        )

    def decide_batch(self, t, levels, prices, instance):
        table = self.table
        self._check_slot(t)
        return argmin_purchases(
            table.grid, table.values[t + 1], instance.storage, levels,
            instance.demand[t], prices,
        )


class ThresholdFamily:
    """Builds a threshold policy from an estimate report."""

    def __call__(self, report: EstimateReport, first_slot: int) -> Policy:
        return ThresholdPolicy(report.threshold)


@dataclass(frozen=True, eq=False)
class DpFamily:
    """Builds a DP policy from an estimate report via a fitted normal model.

    The policy acts from slot ``first_slot`` on, so only those rows of its
    value table are built.
    """

    instance: Instance
    grid_size: int = 100
    atom_count: int = 51

    def __call__(self, report: EstimateReport, first_slot: int) -> Policy:
        model = Normal(report.stats.mean, max(report.stats.sample_std, 1e-12))
        table = build_value_table(
            self.instance, model, self.grid_size, self.atom_count, first_slot
        )
        return DpPolicy(table)


class AdaptivePolicy(Policy):
    """Re-estimates price statistics from accumulated history.

    Wraps a policy family ((estimate report, first slot) -> policy that
    acts from that slot on).  The base policy is built once, from the
    warmup.  Prices observed during the run join the warmup history; every
    ``refresh_stride`` observed slots the estimates and the policy are
    rebuilt at the current slot.  A failed refresh keeps the previous
    policy and is recorded in ``events``.  The engine passes each slot's
    price to ``observe``.  One instance drives one trajectory; use
    ``reset`` between episodes.

    ``decide_batch`` drives one trajectory per row instead: a call at slot
    0 starts every row from the base policy, and a refresh re-estimates
    each row from the warmup plus that row's observed prices.  Its events
    name the row.
    """

    policy_id = "adaptive"

    def __init__(
        self,
        family: Callable[[EstimateReport, int], Policy],
        warmup,
        refresh_stride: int | None = None,
        *,
        alpha: float = 0.05,
        conservative: bool = False,
        clamp_nonpositive_lower: bool = False,
    ) -> None:
        """Raises EstimationError when the warmup itself gives no estimate."""
        if refresh_stride is not None and refresh_stride < 1:
            raise ValueError(f"refresh stride must be >= 1, got {refresh_stride}")
        self.family = family
        self.refresh_stride = refresh_stride
        self.alpha = alpha
        self.conservative = conservative
        self.clamp_nonpositive_lower = clamp_nonpositive_lower
        self._warmup = as_series(warmup, "warmup")
        if self._warmup.size < 2:
            raise ValueError("need a warmup of at least 2 prices")
        self._base = self._rebuild(self._warmup, 0)
        self.reset()

    def reset(self) -> None:
        """Restore the history to the warmup and the policy to the base one."""
        self.history = self._warmup.tolist()
        self.events: list[str] = []
        self._since_refresh = 0
        self._current = self._base

    def decide(self, t, level, price, instance):
        stride = self.refresh_stride
        if stride is not None and self._since_refresh >= stride:
            self._since_refresh = 0
            self._current = self._refreshed(self._current, self.history, t, "")
        return self._current.decide(t, level, price, instance)

    def observe(self, price: float) -> None:
        self.history.append(float(price))
        self._since_refresh += 1

    def decide_batch(self, t, levels, prices, instance):
        if t == 0:
            self.events = []
            self._rows = [self._base] * levels.size
            self._observed = np.empty((levels.size, instance.horizon))
        stride = self.refresh_stride
        if stride is not None and t > 0 and t % stride == 0:
            rows = self._rows
            for e, row in enumerate(rows):
                history = np.concatenate((self._warmup, self._observed[e, :t]))
                rows[e] = self._refreshed(row, history, t, f"row {e}: ")
        q = self._decide_rows(t, levels, prices, instance)
        self._observed[:, t] = prices
        return q

    def _decide_rows(self, t, levels, prices, instance):
        rows = self._rows
        first = rows[0]
        if all(row is first for row in rows):
            return first.decide_batch(t, levels, prices, instance)
        if isinstance(first, DpPolicy):
            v_next = np.stack([row.table.values[t + 1] for row in rows])
            return argmin_purchases(
                first.table.grid, v_next, instance.storage, levels, instance.demand[t], prices,
            )
        if isinstance(first, ThresholdPolicy):  # ThresholdFamily's rules fill to capacity
            thresholds = ThresholdPolicy(np.array([row.threshold for row in rows]))
            return thresholds.decide_batch(t, levels, prices, instance)
        raise TypeError(f"no row-wise decide for {type(first).__name__} rows")

    def _rebuild(self, history, first_slot: int) -> Policy:
        report = estimate(
            history,
            self.alpha,
            conservative=self.conservative,
            clamp_nonpositive_lower=self.clamp_nonpositive_lower,
        )
        return self.family(report, first_slot)

    def _refreshed(self, current: Policy, history, t: int, label: str) -> Policy:
        """The policy rebuilt from ``history`` at slot t, or ``current`` if that fails."""
        try:
            return self._rebuild(history, t)
        except EstimationError as exc:
            self.events.append(
                f"{label}refresh failed at n={len(history)} ({exc}); kept previous policy"
            )
            return current
