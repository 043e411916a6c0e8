import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storelab import (
    InfeasibleSlotError,
    Instance,
    Policy,
    StorageSpec,
    brute_force_optimal,
    feasible_purchase_range,
    simulate,
)


class FixedPlanPolicy(Policy):
    """Price-oblivious policy that replays a fixed purchase plan."""

    policy_id = "fixed-plan"

    def __init__(self, plan) -> None:
        self.plan = np.asarray(plan, dtype=float)

    def decide_batch(self, t, levels, prices, instance):
        return np.full(levels.shape, self.plan[t])


class TestFeasiblePurchaseRange:
    def test_empty_store_must_buy_demand(self):
        lo, hi = feasible_purchase_range(StorageSpec(1.0), level=0.0, demand=1.0)
        assert (lo, hi) == (1.0, 2.0)

    def test_full_store_can_serve_everything(self):
        lo, hi = feasible_purchase_range(StorageSpec(1.0), level=1.0, demand=1.0)
        assert (lo, hi) == (0.0, 1.0)

    def test_closed_form_endpoints(self):
        # q_lo = d - min(level, B), q_hi = d + min(B - level, B)
        lo, hi = feasible_purchase_range(StorageSpec(2.0), level=0.5, demand=1.0)
        assert lo == pytest.approx(0.5, abs=1e-12)
        assert hi == pytest.approx(2.5, abs=1e-12)

    def test_infeasible_state_raises(self):
        # unreachable for in-contract levels; a malformed state trips the guard
        with pytest.raises(InfeasibleSlotError):
            feasible_purchase_range(StorageSpec(1.0), level=-5.0, demand=3.0)

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            feasible_purchase_range(StorageSpec(1.0), level=0.0, demand=-1.0)


class TestValidation:
    def test_initial_level_above_capacity(self):
        with pytest.raises(ValueError):
            StorageSpec(capacity=1.0, initial_level=2.0)

    def test_demand_length_mismatch(self):
        with pytest.raises(ValueError):
            Instance(3, np.array([1.0, 2.0]), StorageSpec(1.0))

    def test_negative_demand_entry(self):
        with pytest.raises(ValueError):
            Instance(2, np.array([1.0, -0.5]), StorageSpec(1.0))

    def test_demand_is_read_only(self):
        inst = Instance.constant(3, 1.0, StorageSpec(1.0))
        with pytest.raises(ValueError):
            inst.demand[0] = 9.0


class TestSimulate:
    def test_constant_price_cost_identity(self):
        inst = Instance(4, np.array([1.0, 0.5, 2.0, 1.0]), StorageSpec(3.0, initial_level=1.0))
        plan = FixedPlanPolicy([2.0, 0.5, 1.0, 1.5])
        traj = simulate(inst, np.full(4, 6.0), plan)
        total_demand = float(inst.demand.sum())
        s_final = traj.levels[-1]
        assert traj.total_cost == pytest.approx(6.0 * (total_demand - 1.0 + s_final), rel=1e-12)

    def test_zero_demand_never_buys(self):
        inst = Instance(5, np.zeros(5), StorageSpec(2.0))
        traj = simulate(inst, np.linspace(1, 5, 5), FixedPlanPolicy(np.zeros(5)))
        assert traj.total_cost == 0.0
        assert not traj.clamped_slots

    def test_buy_everything_early(self):
        # oracle: brute force over the purchase lattice gives the same 2.0
        inst = Instance(2, np.array([1.0, 1.0]), StorageSpec(1.0))
        traj = simulate(inst, [1.0, 3.0], FixedPlanPolicy([2.0, 0.0]))
        assert traj.total_cost == pytest.approx(2.0, abs=1e-12)
        assert brute_force_optimal(inst, [1.0, 3.0], 0.5) == pytest.approx(2.0, abs=1e-12)

    def test_rejects_nonfinite_prices(self):
        inst = Instance.constant(2, 1.0, StorageSpec(1.0))
        with pytest.raises(ValueError):
            simulate(inst, [1.0, np.nan], FixedPlanPolicy([1.0, 1.0]))

    def test_rejects_short_price_series(self):
        inst = Instance.constant(3, 1.0, StorageSpec(1.0))
        with pytest.raises(ValueError):
            simulate(inst, [1.0, 2.0], FixedPlanPolicy([1.0, 1.0, 1.0]))

    def test_clamping_is_recorded(self):
        inst = Instance.constant(2, 1.0, StorageSpec(1.0))
        traj = simulate(inst, [1.0, 1.0], FixedPlanPolicy([50.0, 0.0]))
        assert traj.clamped_slots == (0,)
        assert traj.purchases[0] == pytest.approx(2.0)

    def test_extra_prices_are_ignored(self):
        inst = Instance.constant(2, 1.0, StorageSpec(1.0))
        traj = simulate(inst, [1.0, 2.0, 99.0], FixedPlanPolicy([1.0, 1.0]))
        assert traj.prices.tolist() == [1.0, 2.0]


def _instances():
    specs = st.builds(
        StorageSpec,
        capacity=st.floats(0.1, 8.0),
        initial_level=st.just(0.0),
    )

    def build(spec, demand, frac):
        demand = np.asarray(demand)
        level = frac * spec.capacity
        spec = StorageSpec(spec.capacity, level)
        return Instance(len(demand), demand, spec)

    return st.builds(
        build,
        specs,
        st.lists(st.floats(0.0, 3.0), min_size=1, max_size=8),
        st.floats(0.0, 1.0),
    )


class TestSimulateProperties:
    @given(_instances(), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_levels_bounded_and_demand_conserved(self, inst, seed):
        rng = np.random.default_rng(seed)
        plan = FixedPlanPolicy(rng.uniform(0.0, 4.0, inst.horizon))
        prices = rng.uniform(0.5, 20.0, inst.horizon)
        traj = simulate(inst, prices, plan)
        assert np.all(traj.levels >= -1e-9)
        assert np.all(traj.levels <= inst.storage.capacity + 1e-9)
        # conservation: purchases = demand - s0 + s_T
        lhs = traj.purchases.sum()
        rhs = inst.demand.sum() - inst.storage.initial_level + traj.levels[-1]
        assert lhs == pytest.approx(rhs, abs=1e-7)
        # cost is the dot product of prices and purchases
        assert traj.total_cost == pytest.approx(float(prices @ traj.purchases), rel=1e-9)

    @given(_instances(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_deterministic(self, inst, seed):
        rng = np.random.default_rng(seed)
        plan = FixedPlanPolicy(rng.uniform(0.0, 4.0, inst.horizon))
        prices = rng.uniform(0.5, 20.0, inst.horizon)
        a = simulate(inst, prices, plan)
        b = simulate(inst, prices, plan)
        assert np.array_equal(a.purchases, b.purchases)
        assert a.total_cost == b.total_cost

    @given(_instances(), st.integers(0, 2**32 - 1), st.sampled_from([0.25, 0.5, 2.0, 4.0]))
    @settings(max_examples=40, deadline=None)
    def test_price_scaling_is_exact_for_fixed_plans(self, inst, seed, lam):
        # powers of two scale without rounding, so equality is exact
        rng = np.random.default_rng(seed)
        plan = FixedPlanPolicy(rng.uniform(0.0, 4.0, inst.horizon))
        prices = rng.uniform(0.5, 20.0, inst.horizon)
        base = simulate(inst, prices, plan)
        scaled = simulate(inst, lam * prices, plan)
        assert scaled.total_cost == lam * base.total_cost

    def test_price_scaling_general_factor(self):
        inst = Instance.constant(6, 1.0, StorageSpec(2.0))
        rng = np.random.default_rng(3)
        plan = FixedPlanPolicy(rng.uniform(0.0, 2.0, 6))
        prices = rng.uniform(1.0, 9.0, 6)
        base = simulate(inst, prices, plan)
        scaled = simulate(inst, 3.7 * prices, plan)
        assert scaled.total_cost == pytest.approx(3.7 * base.total_cost, rel=1e-12)
