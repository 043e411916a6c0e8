"""The batched engine against the scalar references, bit for bit.

``simulate_batch``, ``decide_batch``, ``interp_rows`` and ``offline_costs``
are the only engine, so every row they return must carry the same bits as
``np.interp`` and the per-slot references kept in ``conftest.py``
(``reference_simulate``, ``reference_argmin_purchase``,
``reference_offline_optimal``).  Comparisons use ``.tobytes()``, so a -0.0
in place of 0.0 shows.  The DP value table is the one stated exception:
its base-stock step matches ``reference_value_rows`` within ``VALUE_RTOL``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storelab import (
    AdaptivePolicy,
    DpFamily,
    EstimationError,
    ExperimentConfig,
    InfeasibleSlotError,
    Instance,
    Normal,
    Policy,
    StorageSpec,
    ThresholdFamily,
    ThresholdPolicy,
    DpPolicy,
    build_value_table,
    feasible_purchase_range,
    generate,
    offline_optimal,
)
from storelab import metrics
from storelab.config import build_instance, build_model
from storelab.experiments import run_policy_compare
from storelab.metrics import offline_costs
from storelab.model import feasible_purchase_ranges, simulate_batch
from storelab.policies import SlotGeometry, interp_rows, storage_grid
from storelab.seeds import stream

from conftest import (
    ReferenceAdaptive,
    reference_backward_step,
    reference_decide,
    reference_offline_optimal,
    reference_simulate,
    reference_value_rows,
)

PRICES = st.one_of(
    st.sampled_from((-0.0, 0.0, 1.0, 4.0, 8.0, 16.0)),
    st.floats(-5.0, 25.0, allow_subnormal=False),
)
# -0.0 passes every ">= 0" check, so demands, capacities and fills may carry it
DEMANDS = st.one_of(
    st.sampled_from((-0.0, 0.0, 0.5, 1.0)), st.floats(0.0, 3.0, allow_subnormal=False)
)


@st.composite
def batch_cases(draw):
    """An instance (off-grid capacity and demands, s0 > 0, zero capacity) and E price rows."""
    T = draw(st.integers(1, 6))
    capacity = draw(st.one_of(
        st.sampled_from((-0.0, 0.0, 1.0, 2.5, 5.0)), st.floats(0.05, 6.0, allow_subnormal=False)
    ))
    s0 = draw(st.one_of(
        st.just(-0.0), st.sampled_from((0.0, 0.5, 1.0)).map(lambda f: f * capacity),
        st.floats(0.0, 1.0).map(lambda f: f * capacity),
    ))
    demand = draw(st.lists(DEMANDS, min_size=T, max_size=T))
    instance = Instance(T, np.asarray(demand), StorageSpec(capacity, s0))
    E = draw(st.integers(1, 5))
    prices = np.asarray(draw(st.lists(
        st.lists(PRICES, min_size=T, max_size=T), min_size=E, max_size=E
    )))
    realized = None
    if draw(st.booleans()):
        noise = np.asarray(draw(st.lists(
            st.floats(-0.5, 0.5), min_size=E * T, max_size=E * T
        ))).reshape(E, T)
        realized = instance.demand * (1.0 + noise)
    return instance, prices, realized


def _assert_rows_match(batch, refs):
    assert len(refs) == batch.total_cost.shape[0]
    for e, ref in enumerate(refs):
        assert batch.prices[e].tobytes() == ref.prices.tobytes()
        assert batch.purchases[e].tobytes() == ref.purchases.tobytes()
        assert batch.levels[e].tobytes() == ref.levels.tobytes()
        assert batch.total_cost[e].tobytes() == np.float64(ref.total_cost).tobytes()
        assert tuple(np.flatnonzero(batch.clamped[e]).tolist()) == ref.clamped_slots


def _per_slot(instance, prices, policies, realized):
    return [
        reference_simulate(instance, prices[e], policies[e],
                           realized_demand=None if realized is None else realized[e])
        for e in range(prices.shape[0])
    ]


class TestInterpRows:
    @given(
        st.sampled_from((0.0, 1.0, 2.5, 5.0, 0.7)), st.integers(2, 30), st.integers(1, 4),
        st.integers(1, 5), st.booleans(), st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_np_interp(self, capacity, grid_size, rows, points, shared, seed):
        rng = np.random.default_rng(seed)
        grid = storage_grid(capacity, grid_size)
        fp = np.round(rng.uniform(-50.0, 50.0, (1 if shared else rows, grid.size)), 1)
        on_grid = grid[rng.integers(0, grid.size, (rows, points))]
        off_grid = rng.uniform(0.0, capacity, (rows, points))
        x = np.where(rng.random((rows, points)) < 0.5, on_grid, off_grid)
        got = interp_rows(x, grid, fp if not shared else fp[0])
        for e in range(rows):
            assert got[e].tobytes() == np.interp(x[e], grid, fp[0 if shared else e]).tobytes()


class TestSimulateBatch:
    @given(batch_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_threshold_rows_match_simulate(self, case, data):
        instance, prices, realized = case
        theta = data.draw(st.one_of(st.sampled_from((1.0, 4.0, 8.0)), st.floats(0.1, 20.0)))
        batch = simulate_batch(instance, prices, ThresholdPolicy(theta), realized_demand=realized)
        refs = _per_slot(instance, prices, [ThresholdPolicy(theta)] * len(prices), realized)
        _assert_rows_match(batch, refs)

    @given(batch_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_per_row_threshold_rows_match_simulate(self, case, data):
        instance, prices, realized = case
        thetas = np.asarray(data.draw(st.lists(
            st.one_of(st.sampled_from((1.0, 4.0, 8.0)), st.floats(0.1, 20.0)),
            min_size=len(prices), max_size=len(prices),
        )))
        batch = simulate_batch(instance, prices, ThresholdPolicy(thetas), realized_demand=realized)
        refs = _per_slot(instance, prices, [ThresholdPolicy(t) for t in thetas], realized)
        _assert_rows_match(batch, refs)

    @given(batch_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_budgeted_rows_match_simulate(self, case, data):
        instance, prices, realized = case
        theta = data.draw(st.floats(0.1, 20.0))
        target = instance.storage.capacity * data.draw(st.floats(0.0, 1.0))
        policy = ThresholdPolicy(theta, fill_target=target, policy_id="budgeted")
        batch = simulate_batch(instance, prices, policy, realized_demand=realized)
        _assert_rows_match(batch, _per_slot(instance, prices, [policy] * len(prices), realized))

    @given(batch_cases(), st.integers(2, 20), st.integers(1, 9), st.floats(1.0, 12.0),
           st.floats(0.5, 6.0))
    @settings(max_examples=100, deadline=None)
    def test_dp_rows_match_simulate(self, case, grid_size, atoms, mu, sigma):
        instance, prices, realized = case
        policy = DpPolicy(build_value_table(instance, Normal(mu, sigma), grid_size, atoms))
        batch = simulate_batch(instance, prices, policy, realized_demand=realized)
        _assert_rows_match(batch, _per_slot(instance, prices, [policy] * len(prices), realized))


def _adaptive_rows_match(instance, prices, realized, adaptive):
    """Each batch row equals the per-slot reference run; returns the batch events."""
    batch = simulate_batch(instance, prices, adaptive, realized_demand=realized)
    refs = [ReferenceAdaptive(adaptive) for _ in prices]
    _assert_rows_match(batch, _per_slot(instance, prices, refs, realized))
    for e, ref in enumerate(refs):
        label = f"row {e}: "
        assert [m[len(label):] for m in adaptive.events if m.startswith(label)] == ref.events
    return adaptive.events


class TestAdaptiveBatch:
    @given(batch_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_rows_match_per_slot_reference(self, case, data):
        instance, prices, realized = case
        T = instance.horizon
        if data.draw(st.booleans(), label="dp"):
            family = DpFamily(instance, data.draw(st.integers(2, 12)), data.draw(st.integers(1, 7)))
        else:
            family = ThresholdFamily()
        stride = data.draw(st.sampled_from((1, 2, max(T - 1, 1), None)), label="stride")
        warmup = data.draw(st.lists(st.floats(8.0, 12.0), min_size=2, max_size=6), label="warmup")
        clamp = data.draw(st.booleans(), label="clamp")
        conservative = clamp and data.draw(st.booleans(), label="conservative")
        # unclamped, the wide price rows make some refreshes fail and not others
        adaptive = AdaptivePolicy(family, warmup, stride, conservative=conservative,
                                  clamp_nonpositive_lower=clamp)
        _adaptive_rows_match(instance, prices, realized, adaptive)

    @given(st.integers(4, 8), st.integers(2, 8), st.floats(1.0, 4.0), st.booleans(),
           st.sampled_from((1, 2)), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_rows_refresh_apart(self, T, E, capacity, dp, stride, seed):
        # prices near the warmup mean, with wild slots that make every later
        # unclamped refresh of that row fail, so rows hold distinct policies
        rng = np.random.default_rng(seed)
        instance = Instance.constant(T, 1.0, StorageSpec(capacity))
        spread = rng.choice([0.5, 3.0, 60.0], size=(E, T), p=[0.45, 0.45, 0.1])
        prices = 10.0 + spread * rng.standard_normal((E, T))
        warmup = 10.0 + rng.standard_normal(int(rng.integers(2, 8)))
        family = DpFamily(instance, 20, 9) if dp else ThresholdFamily()
        try:
            adaptive = AdaptivePolicy(family, warmup, stride)
        except EstimationError:
            return
        _adaptive_rows_match(instance, prices, None, adaptive)

    @pytest.mark.parametrize("family", ["dp", "threshold"])
    def test_failed_refresh_events_name_the_rows(self, family):
        inst = Instance.constant(4, 1.0, StorageSpec(2.0))
        calm = [10.0, 10.4, 9.8, 10.1]
        wild = [500.0, -480.0, 510.0, 10.0]
        prices = np.array([calm, wild, calm, wild, calm])
        policy_family = DpFamily(inst, 10, 5) if family == "dp" else ThresholdFamily()
        adaptive = AdaptivePolicy(policy_family, [10.0, 10.5, 9.5, 10.2], refresh_stride=1)
        events = _adaptive_rows_match(inst, prices, None, adaptive)
        # the wild rows fail at every refresh (slots 1, 2, 3), the calm rows never
        assert sorted({m.split(":")[0] for m in events}) == ["row 1", "row 3"]
        assert len(events) == 2 * 3
        assert all("refresh failed" in m for m in events)

    def test_rows_of_other_policies_have_no_row_wise_decide(self):
        class BuyNothing(Policy):
            def decide_batch(self, t, levels, prices, instance):
                return np.zeros(levels.shape)

        inst = Instance.constant(3, 1.0, StorageSpec(1.0))
        adaptive = AdaptivePolicy(lambda report, first_slot: BuyNothing(), [10.0, 10.5], 1)
        with pytest.raises(TypeError, match="BuyNothing"):
            simulate_batch(inst, np.array([[10.0, 11.0, 9.0], [10.0, 12.0, 9.0]]), adaptive)


class _Atoms:
    """A price model whose quantile-midpoint atoms are the given values, in order."""

    def __init__(self, atoms) -> None:
        self.atoms = atoms

    def quantile(self, p: float) -> float:
        return self.atoms[int(p * len(self.atoms))]


@st.composite
def table_cases(draw):
    """A DP instance whose slots carry varying demands, 0 and above capacity among them."""
    T = draw(st.integers(1, 6))
    capacity = draw(st.one_of(
        st.sampled_from((-0.0, 0.0, 1.0, 2.5)), st.floats(0.05, 6.0, allow_subnormal=False)
    ))
    demand = draw(st.lists(st.one_of(
        DEMANDS, st.just(abs(capacity) + 1.0), st.floats(0.0, 9.0, allow_subnormal=False)
    ), min_size=T, max_size=T))
    s0 = capacity * draw(st.sampled_from((0.0, 0.5, 1.0)))
    atoms = draw(st.lists(st.one_of(
        st.sampled_from((-0.0, 0.0, -3.0, 2.0)), st.floats(-20.0, 20.0, allow_subnormal=False)
    ), min_size=1, max_size=9))
    return Instance(T, np.asarray(demand), StorageSpec(capacity, s0)), atoms


# The base-stock step sums over the sorted atoms in another order than the
# candidate scan of ``reference_backward_step``; the largest difference
# measured over three runs of 3000 ``table_cases`` draws is 1.1e-14 x
# max(1, |ref|).
VALUE_RTOL = 1e-12
# Rounding leaves a built row's slopes falling by up to 2.5e-15 x
# max(1, max |v|) / smallest grid step over the same draws.
SLOPE_RTOL = 1e-12


class TestValueTable:
    @given(table_cases(), st.integers(2, 25), st.data())
    @settings(max_examples=200, deadline=None)
    def test_rows_match_reference_steps(self, case, grid_size, data):
        instance, atoms = case
        first_slot = data.draw(st.integers(0, instance.horizon), label="first_slot")
        table = build_value_table(instance, _Atoms(atoms), grid_size, len(atoms), first_slot)
        ref = reference_value_rows(instance, atoms, grid_size, first_slot)
        assert np.all(np.abs(table.values - ref) <= VALUE_RTOL * np.maximum(1.0, np.abs(ref)))

    @given(table_cases(), st.integers(2, 25))
    @settings(max_examples=200, deadline=None)
    def test_rows_are_convex(self, case, grid_size):
        # the base-stock step's precondition on the row it reads
        instance, atoms = case
        table = build_value_table(instance, _Atoms(atoms), grid_size, len(atoms))
        steps = np.diff(table.grid)
        slopes = np.diff(table.values, axis=1) / steps
        tol = SLOPE_RTOL * max(1.0, np.abs(table.values).max()) / steps.min(initial=1.0)
        assert np.all(np.diff(slopes, axis=1) >= -tol)

    @given(table_cases(), st.integers(2, 25), st.data())
    @settings(max_examples=200, deadline=None)
    def test_atom_order_does_not_matter(self, case, grid_size, data):
        instance, atoms = case
        shuffled = data.draw(st.permutations(atoms), label="shuffled")
        table = build_value_table(instance, _Atoms(shuffled), grid_size, len(atoms))
        ordered = build_value_table(instance, _Atoms(sorted(atoms)), grid_size, len(atoms))
        assert table.values.tobytes() == ordered.values.tobytes()


class TestOfflineCosts:
    @given(batch_cases(), st.integers(2, 25), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_hindsight_step_rows_match_backward_step(self, case, grid_size, seed):
        instance, prices, realized = case
        spec = instance.storage
        grid = storage_grid(spec.capacity, grid_size)
        rng = np.random.default_rng(seed)
        v_next = np.round(rng.uniform(-30.0, 30.0, (len(prices), grid.size)), 1)
        zeros = rng.random(v_next.shape) < 0.3
        v_next[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
        # one demand that every row shares, or one per row
        demand = instance.demand[0] if realized is None else realized[:, 0]
        geometry = SlotGeometry(grid, spec.capacity, demand)
        got = metrics._hindsight_step(geometry, v_next, prices[:, 0])
        demand = np.broadcast_to(demand, (len(prices),))
        for e in range(len(prices)):
            ref = reference_backward_step(grid, v_next[e], float(demand[e]), spec,
                                          np.asarray([prices[e, 0]]), np.ones(1))
            assert got[e].tobytes() == ref.tobytes()

    @given(batch_cases(), st.integers(2, 25))
    @settings(max_examples=150, deadline=None)
    def test_rows_match_reference_oracle(self, case, grid_size):
        instance, prices, realized = case
        batch = offline_costs(instance, prices, grid_size, realized_demand=realized)
        refs = []
        for e in range(len(prices)):
            demand = instance.demand if realized is None else realized[e]
            oracle_instance = Instance(instance.horizon, demand, instance.storage)
            refs.append(reference_offline_optimal(oracle_instance, prices[e], grid_size))
        _assert_rows_match(batch, refs)

    @given(batch_cases(), st.integers(2, 25))
    @settings(max_examples=60, deadline=None)
    def test_offline_optimal_is_the_one_row_case(self, case, grid_size):
        instance, prices, _ = case
        got = offline_optimal(instance, prices[0], grid_size)
        ref = reference_offline_optimal(instance, prices[0], grid_size)
        assert got.purchases.tobytes() == ref.purchases.tobytes()
        assert got.levels.tobytes() == ref.levels.tobytes()
        assert np.float64(got.total_cost).tobytes() == np.float64(ref.total_cost).tobytes()
        assert got.clamped_slots == ref.clamped_slots

    @given(batch_cases(), st.sampled_from((1, 2, 3)))
    @settings(max_examples=60, deadline=None)
    def test_block_split_does_not_change_rows(self, case, block):
        instance, prices, realized = case
        whole = offline_costs(instance, prices, 10, realized_demand=realized)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "ORACLE_BLOCK", block)
            split = offline_costs(instance, prices, 10, realized_demand=realized)
        for name in ("prices", "purchases", "levels", "total_cost", "clamped"):
            assert getattr(split, name).tobytes() == getattr(whole, name).tobytes()

    def test_rows_cross_a_default_block(self, reference_instance):
        prices = generate(Normal(10.0, 2.0), 24 * 40, stream(17)).reshape(40, 24)
        batch = offline_costs(reference_instance, prices, 100)
        refs = [reference_offline_optimal(reference_instance, p, 100) for p in prices]
        _assert_rows_match(batch, refs)


class _NanPolicy(Policy):
    def decide_batch(self, t, levels, prices, instance):
        return np.full(levels.shape, math.nan)


def _message(fn, error=ValueError):
    with pytest.raises(error) as info:
        fn()
    return str(info.value)


class TestErrorPaths:
    def test_fill_target_above_capacity(self):
        inst = Instance.constant(2, 1.0, StorageSpec(1.0))
        policy = ThresholdPolicy(5.0, fill_target=2.0)
        prices = np.ones((3, 2))
        assert _message(lambda: simulate_batch(inst, prices, policy)) == _message(
            lambda: reference_simulate(inst, prices[0], policy)
        )

    def test_non_finite_purchase(self):
        inst = Instance.constant(2, 1.0, StorageSpec(1.0))
        prices = np.ones((3, 2))
        got = _message(lambda: simulate_batch(inst, prices, _NanPolicy()))
        assert got == _message(lambda: reference_simulate(inst, prices[0], _NanPolicy()))
        assert got == "policy returned non-finite purchase at slot 0"

    def test_infeasible_slot(self):
        spec = StorageSpec(1.0)
        levels = np.array([0.5, 3.0, 4.0])
        got = _message(lambda: feasible_purchase_ranges(spec, levels, 1.0), InfeasibleSlotError)
        assert got == _message(lambda: feasible_purchase_range(spec, 3.0, 1.0), InfeasibleSlotError)
        inst = Instance.constant(2, 1.0, spec)
        dp = DpPolicy(build_value_table(inst, Normal(10.0, 2.0), 10, 5))
        prices = np.full(3, 10.0)
        got = _message(lambda: dp.decide_batch(0, levels, prices, inst), InfeasibleSlotError)
        assert got == _message(lambda: reference_decide(dp, 0, 3.0, 10.0, inst), InfeasibleSlotError)

    def test_nonpositive_opt_cost_in_policy_compare(self, tmp_path):
        # prices N(3, 2^2) go negative, so some episode's oracle cost is <= 0
        config = ExperimentConfig(
            kind="policy-compare", mu=3.0, sigma=2.0, T=8, B=2.0, G=20, K=11,
            episodes=40, seed=5, out=str(tmp_path / "pc.csv"),
        )
        instance, model = build_instance(config), build_model(config)
        expected = None
        for e in range(config.episodes):
            prices = generate(model, config.T, stream(config.seed, 1, e))
            opt = reference_offline_optimal(instance, prices, config.G).total_cost
            if opt <= 0:
                expected = f"competitive ratio undefined for opt_cost={opt}"
                break
        assert expected is not None
        assert _message(lambda: run_policy_compare(config)) == expected
