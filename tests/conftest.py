import math

import numpy as np
import pytest

from storelab import (
    AdaptivePolicy,
    DpFamily,
    DpPolicy,
    EstimationError,
    Instance,
    StorageSpec,
    ThresholdFamily,
    ThresholdPolicy,
    Trajectory,
    ValueTable,
    estimate,
    feasible_purchase_range,
    generate,
)
from storelab.model import ENERGY_TOL, simulate_batch
from storelab.policies import storage_grid
from storelab.seeds import stream


# Reference instance used across the experiment-facing tests:
# 24 unit-demand slots, a 5-unit store starting empty.
@pytest.fixture(scope="session")
def reference_instance() -> Instance:
    return Instance.constant(24, 1.0, StorageSpec(capacity=5.0, initial_level=0.0))


@pytest.fixture()
def tmp_csv(tmp_path):
    def _path(name="series.csv"):
        return tmp_path / name

    return _path


def random_aligned_instance(rng: np.random.Generator, step: float = 0.25):
    """Tiny instance whose demands, capacity, and s0 are lattice-aligned.

    Sized to stay within the brute-force guard: max demand plus capacity
    never exceeds 12 lattice steps.
    """
    T = int(rng.integers(1, 5))
    B = step * int(rng.integers(2, 7))
    s0 = step * int(rng.integers(0, round(B / step) + 1))
    demand = step * rng.integers(0, 7, size=T).astype(float)
    return Instance(T, demand, StorageSpec(capacity=B, initial_level=s0))


# -- scalar references for the batched engine -------------------------------
# Python-float code, one slot and one series at a time, that every row of
# ``simulate_batch``, ``decide_batch``, ``argmin_purchases`` and
# ``offline_costs`` must match bit for bit.  ``build_value_table`` sums its
# base-stock step in another order and matches ``reference_value_rows``
# within the bound that ``tests/test_batch.py`` states.


def reference_backward_step(grid, v_next, demand, spec, atoms, weights):
    """One Bellman step of the purchase DP, every product formed afresh.

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


def reference_value_rows(instance, atoms, grid, first_slot=0):
    """``build_value_table``'s values on ``grid``, one ``reference_backward_step`` per slot."""
    spec = instance.storage
    atoms = np.asarray(atoms, dtype=float)
    weights = np.full(atoms.size, 1.0 / atoms.size)
    values = np.zeros((instance.horizon + 1, grid.size))
    for t in range(instance.horizon - 1, first_slot - 1, -1):
        values[t] = reference_backward_step(
            grid, values[t + 1], float(instance.demand[t]), spec, atoms, weights
        )
    return values


def reference_argmin_purchase(grid, v_next, spec, level, demand, price, dedupe=False):
    """Purchase minimizing price * q + interpolated next value, for one level.

    Candidates are the feasible grid next-levels plus the exact endpoint
    levels (deduplicated with ``np.unique`` if ``dedupe``); ties resolve
    toward the smaller purchase.
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
    cands = np.unique(cands) if dedupe else cands
    costs = price * (cands - level + demand) + np.interp(cands, grid, v_next)
    pick = float(cands[int(np.argmin(costs))])
    return min(max(pick - level + demand, q_lo), q_hi)


def reference_decide(policy, t, level, price, instance) -> float:
    """The scalar rule of a threshold or DP policy; any other policy's own ``decide``."""
    spec = instance.storage
    d = float(instance.demand[t])
    if isinstance(policy, ThresholdPolicy):
        q_lo, q_hi = feasible_purchase_range(spec, level, d)
        target = policy._target_full(spec) if price <= policy.threshold else 0.0
        return min(max(d + target - level, q_lo), q_hi)
    if isinstance(policy, DpPolicy):  # a one-model table, or a stacked table of one row
        table = policy.table
        v_next = table.values[t + 1].reshape(table.grid.size)
        return reference_argmin_purchase(table.grid, v_next, spec, level, d, price)
    return policy.decide(t, level, price, instance)


class ReferenceAdaptive:
    """An AdaptivePolicy's schedule for batch row ``row``: its history grows by a price a slot.

    The row starts from its own warmup, as the family's one-row policy.
    Every ``refresh_stride`` slots the policy is rebuilt from the history,
    as the family's one-row policy from the slot on; a failed estimate
    keeps the previous policy and is logged in ``events``.
    """

    def __init__(self, adaptive: AdaptivePolicy, row: int) -> None:
        self.adaptive = adaptive
        self.history = adaptive._warmups[adaptive._warmup_rows[row]].tolist()
        self.current = adaptive.family([self._estimate()], 0)
        self.events: list[str] = []

    def _estimate(self):
        adaptive = self.adaptive
        return estimate(
            self.history, adaptive.alpha, conservative=adaptive.conservative,
            clamp_nonpositive_lower=adaptive.clamp_nonpositive_lower,
        )

    def decide(self, t, level, price, instance):
        stride = self.adaptive.refresh_stride
        if stride is not None and t > 0 and t % stride == 0:
            try:
                self.current = self.adaptive.family([self._estimate()], t)
            except EstimationError as exc:
                self.events.append(
                    f"refresh failed at n={len(self.history)} ({exc}); kept previous policy"
                )
        self.history.append(float(price))
        return reference_decide(self.current, t, level, price, instance)


def reference_adaptive_costs(config, instance, model, rounds) -> list[np.ndarray]:
    """The adaptive runner's costs over ``rounds``, one ``AdaptivePolicy`` per (warmup, round).

    Each policy starts every row from its round's warmup and steps that
    round's episodes as batch rows, once per refresh stride.  The arrays
    come in the runner's order: one per warmup x refresh grid point,
    warmups sorted, refreshes in config order, episodes in (round, episode)
    order.
    """
    T = instance.horizon
    family = DpFamily(instance, config.K) if config.family == "dp" else ThresholdFamily()
    strides = [None if math.isinf(refresh) else int(refresh) for refresh in config.refresh_grid]
    costs = []
    for wi, warmup_size in enumerate(sorted(config.warmup_grid)):
        per_stride = [[] for _ in strides]
        for r in rounds:
            prices = np.array([
                generate(model, T, stream(config.seed, 4, r, e)) for e in range(config.episodes)
            ])
            policy = AdaptivePolicy(
                family, [generate(model, warmup_size, stream(config.seed, 3, wi, r))],
                np.zeros(config.episodes, int), alpha=config.alpha,
                conservative=config.conservative, clamp_nonpositive_lower=config.clamp_m,
            )
            for stride, out in zip(strides, per_stride):
                policy.refresh_stride = stride
                out.append(simulate_batch(instance, prices, policy).total_cost)
        costs.extend(np.concatenate(out) for out in per_stride)
    return costs


def reference_simulate(instance, prices, policy, realized_demand=None) -> Trajectory:
    """The per-slot engine: one series, Python floats, ``reference_decide`` each slot."""
    prices = np.asarray(prices, dtype=float)
    T = instance.horizon
    demand = instance.demand if realized_demand is None else realized_demand
    spec = instance.storage
    level = spec.initial_level
    purchases = np.empty(T)
    levels = np.empty(T + 1)
    levels[0] = level
    clamped = []
    for t in range(T):
        d = float(demand[t])
        q_lo, q_hi = feasible_purchase_range(spec, level, d)
        q = float(reference_decide(policy, t, level, float(prices[t]), instance))
        if not np.isfinite(q):
            raise ValueError(f"policy returned non-finite purchase at slot {t}")
        q_used = min(max(q, q_lo), q_hi)
        if abs(q_used - q) > ENERGY_TOL:
            clamped.append(t)
        level = level + q_used - d
        purchases[t] = q_used
        levels[t + 1] = level
    return Trajectory(
        prices=prices[:T], purchases=purchases, levels=levels,
        total_cost=float(np.dot(prices[:T], purchases)), clamped_slots=tuple(clamped),
    )


def reference_offline_optimal(instance: Instance, prices, grid_size: int = 100):
    """The per-episode grid oracle: T scalar backward steps, then a per-slot greedy pass.

    The reference that ``offline_costs`` and ``offline_optimal`` must match
    bit for bit.
    """
    prices = np.asarray(prices, dtype=float)
    T = instance.horizon
    spec = instance.storage
    grid = storage_grid(spec.capacity, grid_size)
    values = np.zeros((T + 1, grid.size))
    one = np.ones(1)
    for t in range(T - 1, -1, -1):
        values[t] = reference_backward_step(
            grid, values[t + 1], float(instance.demand[t]), spec,
            np.asarray([float(prices[t])]), one,
        )
    return reference_simulate(instance, prices, DpPolicy(ValueTable(grid, values)))
