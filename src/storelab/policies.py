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
from typing import Callable

import numpy as np

from .estimation import EstimateReport, EstimationError, estimate
from .model import Instance, StorageSpec, feasible_purchase_range
from .prices import Normal


class Policy:
    """Per-slot purchase rule driven by the simulation engine.

    ``decide`` maps (slot, storage level, observed price, instance) to a
    purchase; the engine clamps it into the feasible range.  ``observe``
    is called after every slot so stateful policies can accumulate price
    history.
    """

    policy_id = "policy"

    def decide(self, t: int, level: float, price: float, instance: Instance) -> float:
        raise NotImplementedError

    def observe(self, price: float) -> None:
        pass


class FixedPlanPolicy(Policy):
    """Price-oblivious policy that replays a fixed purchase plan."""

    policy_id = "fixed-plan"

    def __init__(self, plan) -> None:
        self.plan = np.asarray(plan, dtype=float)

    def decide(self, t, level, price, instance):
        return float(self.plan[t])


class ThresholdPolicy(Policy):
    """Fill the store at cheap prices, drain it at expensive ones.

    At a price <= threshold the policy buys the demand plus whatever tops
    the store up to ``fill_target`` (the full capacity by default); above
    the threshold it moves toward an empty store, buying only what the
    store cannot cover.
    """

    def __init__(self, threshold: float, fill_target: float | None = None,
                 policy_id: str = "threshold") -> None:
        if not (threshold > 0) or not math.isfinite(threshold):
            raise ValueError(f"threshold must be finite and > 0, got {threshold}")
        if fill_target is not None and fill_target < 0:
            raise ValueError(f"fill target must be >= 0, got {fill_target}")
        self.threshold = float(threshold)
        self.fill_target = fill_target
        self.policy_id = policy_id

    def decide(self, t, level, price, instance):
        spec = instance.storage
        if self.fill_target is None:
            target_full = spec.capacity
        else:
            target_full = self.fill_target
            if target_full > spec.capacity + 1e-9:
                raise ValueError(
                    f"fill target {target_full} exceeds capacity {spec.capacity}"
                )
        d = float(instance.demand[t])
        q_lo, q_hi = feasible_purchase_range(spec, level, d)
        target = target_full if price <= self.threshold else 0.0
        want = d + target - level
        return min(max(want, q_lo), q_hi)


def threshold_policy(threshold: float) -> ThresholdPolicy:
    """Threshold policy that fills to full capacity when the price is cheap."""
    return ThresholdPolicy(threshold)


def budgeted_threshold_policy(
    threshold: float, budget_map: Callable[[float], float]
) -> ThresholdPolicy:
    """Threshold policy whose cheap-price fill target is budget_map(threshold)."""
    budget = float(budget_map(threshold))
    if budget < 0 or not math.isfinite(budget):
        raise ValueError(f"budget map returned {budget}, expected a value in [0, capacity]")
    return ThresholdPolicy(threshold, fill_target=budget, policy_id="budgeted")


@dataclass(frozen=True)
class LinearBudget:
    """Fill budget shrinking linearly from full capacity to zero.

    A threshold at the lower price bound keeps the whole capacity, one at
    the upper bound keeps none; in between the budget is
    capacity * (upper - threshold) / (upper - lower), clipped to [0, 1].
    """

    upper: float
    lower: float
    capacity: float

    def __call__(self, threshold: float) -> float:
        span = self.upper - self.lower
        if span <= 0.0:
            frac = 1.0 if threshold <= self.lower else 0.0
        else:
            frac = min(max((self.upper - threshold) / span, 0.0), 1.0)
        return self.capacity * frac


@dataclass(frozen=True, eq=False)
class ValueTable:
    """Expected optimal cost-to-go on a storage grid.

    values[t, i] is the pre-price expected cost of serving slots t..T-1
    optimally starting from storage grid[i]; values[T] is identically zero.
    Only rows first_slot..T are built; the rows before it are zero.
    """

    grid: np.ndarray
    values: np.ndarray
    atoms: np.ndarray
    weights: np.ndarray
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


def quantile_atoms(model, count: int) -> np.ndarray:
    """Equal-weight quantile-midpoint price atoms: quantiles (j - 0.5) / count."""
    if count < 1:
        raise ValueError(f"need at least one atom, got {count}")
    probs = (np.arange(count) + 0.5) / count
    return np.asarray([model.quantile(float(p)) for p in probs], dtype=float)


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
    return ValueTable(grid=grid, values=values, atoms=atoms, weights=weights,
                      first_slot=first_slot)


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


class DpPolicy(Policy):
    """Greedy policy against a value table, acting on the observed price."""

    policy_id = "dp"

    def __init__(self, table: ValueTable) -> None:
        self.table = table

    def decide(self, t, level, price, instance):
        table = self.table
        if t >= table.horizon:
            raise IndexError(f"slot {t} beyond table horizon {table.horizon}")
        if t < table.first_slot:
            raise IndexError(f"slot {t} before table first slot {table.first_slot}")
        return argmin_purchase(
            table.grid, table.values[t + 1], instance.storage, level,
            float(instance.demand[t]), price,
        )


def dp_policy(table: ValueTable) -> DpPolicy:
    return DpPolicy(table)


def write_value_table(table: ValueTable, path) -> None:
    """Dump a value table as CSV rows (t, grid index, level, value)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,grid_index,s,value\n")
        for t in range(table.values.shape[0]):
            for i, s in enumerate(table.grid):
                fh.write(f"{t},{i},{s!r},{table.values[t, i]!r}\n")


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
    acts from that slot on).  Prices observed during the run join the
    warmup history; every ``refresh_stride`` observed slots the estimates
    and the base policy are rebuilt at the current slot.  A failed refresh
    keeps the previous policy and is recorded in ``events`` (which the
    simulation engine copies into the trajectory log).  One instance
    drives one trajectory; use ``reset`` between episodes.
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
        if refresh_stride is not None and refresh_stride < 1:
            raise ValueError(f"refresh stride must be >= 1, got {refresh_stride}")
        self.family = family
        self.refresh_stride = refresh_stride
        self.alpha = alpha
        self.conservative = conservative
        self.clamp_nonpositive_lower = clamp_nonpositive_lower
        self._warmup = [float(v) for v in np.asarray(warmup, dtype=float)]
        if len(self._warmup) < 2:
            raise ValueError("need a warmup of at least 2 prices")
        self.reset()

    def reset(self) -> None:
        """Restore the history to the warmup and rebuild the base policy.

        Raises EstimationError when the warmup itself gives no estimate.
        """
        self.history = list(self._warmup)
        self.events: list[str] = []
        self.reports: list[EstimateReport] = []
        self._since_refresh = 0
        self._current = self._rebuild(0)

    def decide(self, t, level, price, instance):
        stride = self.refresh_stride
        if stride is not None and self._since_refresh >= stride:
            self._try_refresh(t)
        return self._current.decide(t, level, price, instance)

    def observe(self, price: float) -> None:
        self.history.append(float(price))
        self._since_refresh += 1

    def _rebuild(self, first_slot: int) -> Policy:
        report = estimate(
            self.history,
            self.alpha,
            conservative=self.conservative,
            clamp_nonpositive_lower=self.clamp_nonpositive_lower,
        )
        policy = self.family(report, first_slot)
        self.reports.append(report)
        return policy

    def _try_refresh(self, t: int) -> None:
        self._since_refresh = 0
        try:
            self._current = self._rebuild(t)
        except EstimationError as exc:
            self.events.append(
                f"refresh failed at n={len(self.history)} ({exc}); kept previous policy"
            )
