"""One-shot load serving: storage dynamics, feasibility, and the simulation engine.

``simulate_batch`` runs E price series as (E, T) arrays, stepping every
row's level together; it is the one loop over slots that drives a policy.
``simulate`` is its one-row case.

Units: prices are currency per unit of energy, demands and storage levels are
energy.  The store is lossless with unit efficiency and no per-slot charge or
discharge limit beyond its capacity, purchases only (no export back to the
grid), and energy left over at the end of the horizon has no salvage value.
Energy comparisons use an absolute tolerance of 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prices import as_series

ENERGY_TOL = 1e-9


class InfeasibleSlotError(ValueError):
    """A slot's purchase interval is empty, which only a level outside [0, capacity] causes."""


@dataclass(frozen=True)
class StorageSpec:
    """Capacity and initial fill of the store; within one slot it may fill or empty completely."""

    capacity: float
    initial_level: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.capacity) or self.capacity < 0:
            raise ValueError(f"capacity must be finite and >= 0, got {self.capacity}")
        if not (-ENERGY_TOL <= self.initial_level <= self.capacity + ENERGY_TOL):
            raise ValueError(
                f"initial_level {self.initial_level} outside [0, {self.capacity}]"
            )


@dataclass(frozen=True, eq=False)
class Instance:
    """A one-shot load-serving problem: horizon, demand vector, and storage."""

    horizon: int
    demand: np.ndarray
    storage: StorageSpec

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        demand = np.asarray(self.demand, dtype=float)
        if demand.shape != (self.horizon,):
            raise ValueError(
                f"demand has length {demand.size}, expected horizon {self.horizon}"
            )
        if not np.all(np.isfinite(demand)) or np.any(demand < 0):
            raise ValueError("every demand entry must be finite and >= 0")
        demand = demand.copy()
        demand.flags.writeable = False
        object.__setattr__(self, "demand", demand)

    @classmethod
    def constant(cls, horizon: int, demand: float, storage: StorageSpec) -> "Instance":
        return cls(horizon, np.full(horizon, float(demand)), storage)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Realized run of one policy on one price series."""

    prices: np.ndarray
    purchases: np.ndarray
    levels: np.ndarray  # length T+1, levels[0] is the initial fill
    total_cost: float
    clamped_slots: tuple[int, ...] = ()


def feasible_purchase_range(
    spec: StorageSpec, level: float, demand: float
) -> tuple[float, float]:
    """Interval of purchases that serve the demand and respect the store.

    The lower end buys whatever the store cannot discharge, the upper end
    buys the demand plus everything the store can still absorb.  Raises
    InfeasibleSlotError when the interval is empty, which signals a
    malformed state (cannot happen for a level within [0, capacity]).
    """
    if demand < 0:
        raise ValueError(f"demand must be >= 0, got {demand}")
    q_lo = max(0.0, demand - min(level, spec.capacity))
    q_hi = demand + min(spec.capacity - level, spec.capacity)
    if q_lo > q_hi + ENERGY_TOL:
        raise InfeasibleSlotError(
            f"no feasible purchase: need >= {q_lo}, can buy <= {q_hi} "
            f"(level={level}, demand={demand})"
        )
    return q_lo, max(q_hi, q_lo)


@dataclass(frozen=True, eq=False)
class TrajectoryBatch:
    """Realized runs of one policy on E price series, one row per series.

    ``clamped[e]`` marks the slots whose purchase was clamped, so
    ``clamped[e].sum()`` is row e's clamp count.
    """

    prices: np.ndarray  # (E, T)
    purchases: np.ndarray  # (E, T)
    levels: np.ndarray  # (E, T+1), levels[:, 0] is the initial fill
    total_cost: np.ndarray  # (E,)
    clamped: np.ndarray  # (E, T) bool


def max_first(a, b):
    """Elementwise builtin ``max(a, b)``: ``a`` unless ``b > a``.

    ``np.maximum`` may pick either of two equal values (0.0 and -0.0);
    this keeps the builtin's choice, so batched code matches scalar
    code bit for bit.
    """
    return np.where(b > a, b, a)


def min_first(a, b):
    """Elementwise builtin ``min(a, b)``: ``a`` unless ``b < a``."""
    return np.where(b < a, b, a)


def feasible_purchase_ranges(spec: StorageSpec, levels, demand):
    """``feasible_purchase_range`` for every row of ``levels``, bit for bit.

    ``demand`` is one value or one per row.  An empty interval raises
    InfeasibleSlotError for the first such row.
    """
    cap = spec.capacity
    q_lo = max_first(0.0, demand - min_first(levels, cap))
    q_hi = demand + min_first(cap - levels, cap)
    bad = q_lo > q_hi + ENERGY_TOL
    if np.any(bad):
        e = int(np.argmax(bad))
        level = float(np.broadcast_to(levels, bad.shape)[e])
        d = float(np.broadcast_to(demand, bad.shape)[e])
        raise InfeasibleSlotError(
            f"no feasible purchase: need >= {float(q_lo[e])}, can buy <= {float(q_hi[e])} "
            f"(level={level}, demand={d})"
        )
    return q_lo, max_first(q_hi, q_lo)


def price_rows(prices, horizon: int) -> np.ndarray:
    """Validate an (E, >= horizon) price array; a read-only copy of its first T columns."""
    prices = np.asarray(prices, dtype=float)
    if prices.ndim != 2:
        raise ValueError("prices must be two-dimensional (episodes, slots)")
    if prices.size and not np.all(np.isfinite(prices)):
        raise ValueError("prices contains non-finite values")
    if prices.shape[1] < horizon:
        raise ValueError(f"need at least {horizon} prices, got {prices.shape[1]}")
    rows = np.array(prices[:, :horizon])
    rows.flags.writeable = False
    return rows


def demand_rows(realized_demand, episodes: int, horizon: int) -> np.ndarray:
    """Validate one realized demand row per episode."""
    demand = np.asarray(realized_demand, dtype=float)
    if demand.shape != (episodes, horizon):
        raise ValueError(f"realized_demand must have shape {(episodes, horizon)}")
    if not np.all(np.isfinite(demand)) or np.any(demand < 0):
        raise ValueError("realized demand entries must be finite and >= 0")
    return demand


def simulate_batch(instance, prices, policy, realized_demand=None) -> TrajectoryBatch:
    """Drive a policy over E price series at once, stepping ``levels[E]`` together.

    The policy's ``decide_batch(t, levels, prices, instance)`` gets every
    row's level and observed price and returns one purchase per row, which
    is clamped into the feasible range (clamps are recorded).
    ``realized_demand``, when given, is one (E, T) row per series; it
    drives the dynamics and feasibility while the policy still acts on the
    nominal instance.  Each row's cost is one ``np.dot``, so a row's bits
    do not depend on the other rows.
    """
    T = instance.horizon
    prices = price_rows(prices, T)
    E = prices.shape[0]
    demand = None if realized_demand is None else demand_rows(realized_demand, E, T)

    spec = instance.storage
    level = np.full(E, spec.initial_level)
    purchases = np.empty((E, T))
    levels = np.empty((E, T + 1))
    levels[:, 0] = level
    clamped = np.empty((E, T), dtype=bool)
    for t in range(T):
        d = instance.demand[t] if demand is None else demand[:, t]
        q_lo, q_hi = feasible_purchase_ranges(spec, level, d)
        q = np.asarray(policy.decide_batch(t, level, prices[:, t], instance), dtype=float)
        if not np.all(np.isfinite(q)):
            raise ValueError(f"policy returned non-finite purchase at slot {t}")
        q_used = min_first(max_first(q, q_lo), q_hi)
        clamped[:, t] = np.abs(q_used - q) > ENERGY_TOL
        level = level + q_used - d
        purchases[:, t] = q_used
        levels[:, t + 1] = level

    total_cost = np.array([np.dot(prices[e], purchases[e]) for e in range(E)], dtype=float)
    for arr in (purchases, levels, total_cost, clamped):
        arr.flags.writeable = False
    return TrajectoryBatch(
        prices=prices, purchases=purchases, levels=levels,
        total_cost=total_cost, clamped=clamped,
    )


def one_row(engine, instance, prices, rule, realized_demand=None) -> Trajectory:
    """Row 0 of ``engine(instance, [prices], rule, realized_demand)`` as a Trajectory.

    ``engine`` is a batch engine (``simulate_batch`` or ``offline_costs``)
    and ``prices`` one series of at least T prices.
    """
    prices = as_series(prices, "prices")
    T = instance.horizon
    if prices.size < T:
        raise ValueError(f"need at least {T} prices, got {prices.size}")
    batch = engine(instance, prices[None, :], rule, realized_demand)
    return Trajectory(
        prices=batch.prices[0],
        purchases=batch.purchases[0],
        levels=batch.levels[0],
        total_cost=float(batch.total_cost[0]),
        clamped_slots=tuple(np.flatnonzero(batch.clamped[0]).tolist()),
    )


def simulate(instance, prices, policy, *, realized_demand=None) -> Trajectory:
    """Drive a policy over one price series: the one-row ``simulate_batch``.

    ``realized_demand``, when given, is one length-T row.
    """
    if realized_demand is not None:
        realized_demand = np.reshape(realized_demand, (1, -1))
    return one_row(simulate_batch, instance, prices, policy, realized_demand)
