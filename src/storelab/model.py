"""One-shot load serving: storage dynamics, feasibility, and the simulation engine.

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
    log: tuple[str, ...] = ()


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


def simulate(instance, prices, policy, *, realized_demand=None) -> Trajectory:
    """Drive a policy over a price realization, slot by slot.

    The policy sees (slot, level, observed price, instance) and returns a
    purchase, which is clamped into the feasible range (clamps are recorded).
    When ``realized_demand`` is given it drives the dynamics and feasibility
    while the policy still acts on the nominal instance.  After every slot
    the price is passed to the policy's ``observe`` hook if it has one.
    """
    prices = as_series(prices, "prices")
    T = instance.horizon
    if prices.size < T:
        raise ValueError(f"need at least {T} prices, got {prices.size}")
    if realized_demand is None:
        demand = instance.demand
    else:
        demand = np.asarray(realized_demand, dtype=float)
        if demand.shape != (T,):
            raise ValueError("realized_demand must match the horizon")
        if not np.all(np.isfinite(demand)) or np.any(demand < 0):
            raise ValueError("realized demand entries must be finite and >= 0")

    spec = instance.storage
    observe = getattr(policy, "observe", None)
    level = spec.initial_level
    purchases = np.empty(T)
    levels = np.empty(T + 1)
    levels[0] = level
    clamped: list[int] = []
    for t in range(T):
        p = float(prices[t])
        d = float(demand[t])
        q_lo, q_hi = feasible_purchase_range(spec, level, d)
        q = float(policy.decide(t, level, p, instance))
        if not np.isfinite(q):
            raise ValueError(f"policy returned non-finite purchase at slot {t}")
        q_used = min(max(q, q_lo), q_hi)
        if abs(q_used - q) > ENERGY_TOL:
            clamped.append(t)
        level = level + q_used - d
        purchases[t] = q_used
        levels[t + 1] = level
        if observe is not None:
            observe(p)

    used_prices = prices[:T]
    total_cost = float(np.dot(used_prices, purchases))
    purchases.flags.writeable = False
    levels.flags.writeable = False
    return Trajectory(
        prices=used_prices,
        purchases=purchases,
        levels=levels,
        total_cost=total_cost,
        clamped_slots=tuple(clamped),
        log=tuple(getattr(policy, "events", ())),
    )
