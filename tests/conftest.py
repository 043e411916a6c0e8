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
from storelab.estimation import RowEstimates
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
# within the bound that ``tests/test_batch.py`` states; its step matches
# ``reference_backward_step``, the same sums found row by row, bit for bit.


def reference_backward_step(geometry, v_next, atoms):
    """``policies.backward_step`` with J and m found row by row: (values, J, at).

    Each row searches its slopes for J, then J's reversed, non-decreasing
    ranks for the count of atoms whose J falls short of each level's L;
    row e's sums sit at flat index (K + 1) e + m.  The sums after that
    are the step's own.
    """
    slopes = v_next[:, 1:] - v_next[:, :-1]
    np.divide(slopes, geometry.steps, out=slopes)
    np.maximum.accumulate(slopes, axis=-1, out=slopes)
    best = np.empty(atoms.atoms.shape, dtype=np.intp)
    terms = np.empty(atoms.atoms.shape)
    at = np.empty(v_next.shape, dtype=np.intp)
    count = atoms.atoms.shape[1]
    for e in range(v_next.shape[0]):
        j = slopes[e].searchsorted(atoms.neg_atoms[e])
        best[e] = j
        terms[e] = v_next[e].take(j)
        at[e] = (count + 1) * e + count - j[::-1].searchsorted(geometry.lo_index)
    terms += atoms.atoms * geometry.grid[best]
    terms *= atoms.weight
    head = np.zeros(atoms.tail_wp.shape)
    np.add.accumulate(terms, axis=-1, out=head[:, 1:])
    out = atoms.mean * geometry.to_serve
    out += head.take(at)
    out += geometry.s_lo * atoms.tail_wp.take(at)
    at_lo = np.array([np.interp(geometry.s_lo, geometry.grid, row) for row in v_next])
    at_lo *= atoms.tail_w.take(at)
    out += at_lo
    return out, best, at


def reference_candidate_step(grid, v_next, demand, spec, atoms, weights):
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
    """``build_value_table``'s values on ``grid``, one ``reference_candidate_step`` per slot."""
    spec = instance.storage
    atoms = np.asarray(atoms, dtype=float)
    weights = np.full(atoms.size, 1.0 / atoms.size)
    values = np.zeros((instance.horizon + 1, grid.size))
    for t in range(instance.horizon - 1, first_slot - 1, -1):
        values[t] = reference_candidate_step(
            grid, values[t + 1], float(instance.demand[t]), spec, atoms, weights
        )
    return values


def reference_base_stock_purchase(grid, v_next, spec, level, demand, price):
    """The DP's purchase for one level: its base-stock level clipped into the feasible range.

    J counts the segment slopes of ``v_next`` strictly below -price, and
    the next level is grid[J] clipped into [s_lo, s_hi], or s_lo on a
    one-point grid.  Python floats throughout; the rule that every row of
    ``argmin_purchases`` must match bit for bit.
    """
    q_lo, q_hi = feasible_purchase_range(spec, level, demand)
    cap = spec.capacity
    s_lo = min(max(level + q_lo - demand, 0.0), cap)
    pick = s_lo
    g, v = grid.tolist(), v_next.tolist()
    if len(g) > 1:
        s_hi = min(max(level + q_hi - demand, 0.0), cap)
        slopes = [(v[i + 1] - v[i]) / (g[i + 1] - g[i]) for i in range(len(g) - 1)]
        best = sum(slope < -price for slope in slopes)
        pick = min(max(g[best], s_lo), s_hi)
    return min(max(pick - level + demand, q_lo), q_hi)


def reference_scan(grid, v_next, spec, level, demand, price, dedupe=False):
    """The candidate next levels of one level and what each costs: (levels, costs).

    Candidates are the exact lower endpoint, the feasible grid next-levels
    and the exact upper endpoint, in that order (deduplicated with
    ``np.unique`` if ``dedupe``); each costs price * purchase plus the
    interpolated next value.
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
    return cands, price * (cands - level + demand) + np.interp(cands, grid, v_next)


def reference_argmin_purchase(grid, v_next, spec, level, demand, price, dedupe=False):
    """Purchase minimizing price * q + interpolated next value, for one level, by a scan.

    The first cheapest of ``reference_scan``'s candidates, so ties resolve
    toward the smaller purchase.  The optimality reference that the
    base-stock rule is held to on convex rows.
    """
    q_lo, q_hi = feasible_purchase_range(spec, level, demand)
    cands, costs = reference_scan(grid, v_next, spec, level, demand, price, dedupe)
    pick = float(cands[int(np.argmin(costs))])
    return min(max(pick - level + demand, q_lo), q_hi)


def fits_of(*reports) -> RowEstimates:
    """The ``RowEstimates`` a policy family takes, one row per estimate report."""
    return RowEstimates(
        mean=np.array([r.mean for r in reports]),
        sample_std=np.array([r.s for r in reports]),
        upper_bound=np.array([r.M_hat for r in reports]),
        lower_bound=np.array([r.m_hat for r in reports]),
        lower_clamped=np.array([r.lower_clamped for r in reports], dtype=bool),
        failed=np.zeros(len(reports), dtype=bool),
    )


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
        return reference_base_stock_purchase(table.grid, v_next, spec, level, d, price)
    return policy.decide(t, level, price, instance)


class ReferenceAdaptive:
    """An AdaptivePolicy's schedule for batch row ``row``: its history grows by a price a slot.

    The row starts from its own warmup, as the family's one-row policy.
    Every ``refresh_stride`` slots the policy is rebuilt from the history,
    one ``estimate`` of one sample, as the family's one-row policy from the
    slot on; a failed estimate keeps the previous policy and is logged in
    ``events``.
    """

    def __init__(self, adaptive: AdaptivePolicy, row: int) -> None:
        self.adaptive = adaptive
        self.history = adaptive._warmups[adaptive._warmup_rows[row]].tolist()
        self.current = adaptive.family(fits_of(self._estimate()), 0)
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
                self.current = self.adaptive.family(fits_of(self._estimate()), t)
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


def hindsight_table(instance: Instance, prices, grid, demand) -> ValueTable:
    """The grid oracle's value table for E price series, row e's price its one atom per slot.

    ``prices`` is (E, T) and ``demand`` the demand the rows plan for, (T,)
    or one (E, T) row per series.  One ``reference_candidate_step`` per
    row and slot fills the (T+1, E, W) values, and ``DpPolicy`` is its
    greedy rule: the reference for ``metrics.hindsight_indices``, which
    keeps only each slot's base-stock index.
    """
    prices = np.asarray(prices, dtype=float)
    T = instance.horizon
    rows = np.broadcast_to(np.asarray(demand, dtype=float), (prices.shape[0], T))
    values = np.zeros((T + 1, prices.shape[0], grid.size))
    one = np.ones(1)
    for e in range(prices.shape[0]):
        for t in range(T - 1, -1, -1):
            values[t, e] = reference_candidate_step(
                grid, values[t + 1, e], float(rows[e, t]), instance.storage,
                np.asarray([float(prices[e, t])]), one,
            )
    return ValueTable(grid, values, demand)


def reference_offline_optimal(instance: Instance, prices, grid_size: int = 100):
    """The per-episode grid oracle: T scalar backward steps, then a per-slot greedy pass.

    The reference that ``offline_costs`` and ``offline_optimal`` must match
    bit for bit.
    """
    prices = np.asarray(prices, dtype=float)
    grid = storage_grid(instance.storage.capacity, grid_size)
    table = hindsight_table(instance, prices[None, :instance.horizon], grid, instance.demand)
    values = table.values[:, 0]
    return reference_simulate(
        instance, prices, DpPolicy(ValueTable(grid, values, instance.demand))
    )


def brute_force_optimal(instance: Instance, prices, q_step: float) -> float:
    """Exact minimum cost over purchase sequences on the q_step lattice.

    Exponential enumeration; guarded to T <= 6 and at most 12 lattice steps
    per slot.  The scalar reference that ``offline_optimal`` and the DP
    policy are checked against on tiny instances.
    """
    prices = np.asarray(prices, dtype=float)
    T = instance.horizon
    if T > 6:
        raise ValueError(f"brute force limited to T <= 6, got {T}")
    if q_step <= 0:
        raise ValueError("q_step must be > 0")
    spec = instance.storage
    q_cap = float(np.max(instance.demand)) + spec.capacity
    if q_cap / q_step > 12 + 1e-9:
        raise ValueError(
            f"lattice too fine: q_max/q_step = {q_cap / q_step:.1f} exceeds 12"
        )

    demand = instance.demand
    memo: dict[tuple[int, float], float] = {}

    def best(t: int, level: float) -> float:
        if t == T:
            return 0.0
        key = (t, round(level, 9))
        hit = memo.get(key)
        if hit is not None:
            return hit
        q_lo, q_hi = feasible_purchase_range(spec, level, float(demand[t]))
        k_lo = math.ceil((q_lo - 1e-9) / q_step)
        k_hi = math.floor((q_hi + 1e-9) / q_step)
        out = math.inf
        for k in range(max(k_lo, 0), k_hi + 1):
            q = k * q_step
            cost = prices[t] * q + best(t + 1, level + q - float(demand[t]))
            if cost < out:
                out = cost
        memo[key] = out
        return out

    result = best(0, spec.initial_level)
    if not math.isfinite(result):
        raise ValueError("no feasible purchase sequence on the given lattice")
    return result
