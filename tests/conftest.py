import numpy as np
import pytest

from storelab import Instance, Policy, StorageSpec, simulate
from storelab.policies import argmin_purchase, backward_step, storage_grid

# Reference instance used across the experiment-facing tests:
# 24 unit-demand slots, a 5-unit store starting empty, prices N(10, 2^2).
REF_MU = 10.0
REF_SIGMA = 2.0


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


class _HindsightGreedy(Policy):
    """Greedy forward pass against per-slot value tables built from known prices."""

    policy_id = "offline"

    def __init__(self, grid: np.ndarray, values: np.ndarray) -> None:
        self.grid = grid
        self.values = values

    def decide(self, t, level, price, instance):
        return argmin_purchase(
            self.grid, self.values[t + 1], instance.storage, level,
            float(instance.demand[t]), price,
        )


def reference_offline_optimal(instance: Instance, prices, grid_size: int = 100):
    """The per-episode grid oracle: T scalar backward steps, then a per-slot greedy pass.

    The reference that ``offline_costs`` and ``offline_optimal`` must match
    bit for bit.
    """
    prices = np.asarray(prices, dtype=float)
    T = instance.horizon
    if prices.size < T:
        raise ValueError(f"need at least {T} prices, got {prices.size}")
    spec = instance.storage
    grid = storage_grid(spec.capacity, grid_size)
    values = np.zeros((T + 1, grid.size))
    one = np.ones(1)
    for t in range(T - 1, -1, -1):
        values[t] = backward_step(
            grid, values[t + 1], float(instance.demand[t]), spec,
            np.asarray([float(prices[t])]), one,
        )
    return simulate(instance, prices, _HindsightGreedy(grid, values))
