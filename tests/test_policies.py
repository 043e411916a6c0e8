import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storelab import (
    AdaptivePolicy,
    DpPolicy,
    Empirical,
    EstimationError,
    Instance,
    Normal,
    StorageSpec,
    ThresholdFamily,
    ThresholdPolicy,
    ValueTable,
    build_value_table,
    estimate,
    feasible_purchase_range,
    generate,
    offline_optimal,
    simulate,
)
from storelab import policies
from storelab.model import ENERGY_TOL
from storelab.policies import (
    DpFamily,
    argmin_purchase,
    base_stock_index,
    breakpoint_lattice,
    clip_purchases,
    linear_budget,
    quantile_atoms,
    storage_grid,
)

from conftest import (
    hindsight_table,
    reference_argmin_purchase,
    reference_base_stock_purchase,
    reference_scan,
    reference_value_rows,
)

# The lattice table against a reference on another grid that holds every
# bend: both exact, so only rounding parts them (1.3e-15 relative measured).
EXACT_RTOL = 1e-12


def _inst(T=1, demand=1.0, B=1.0, s0=0.0):
    return Instance.constant(T, demand, StorageSpec(capacity=B, initial_level=s0))


class TestThresholdPolicy:
    def test_cheap_price_fills_storage(self):
        pol = ThresholdPolicy(2.0)
        assert pol.decide(0, 0.0, 1.0, _inst(B=1.0)) == pytest.approx(2.0)

    def test_expensive_price_serves_from_storage(self):
        pol = ThresholdPolicy(2.0)
        assert pol.decide(0, 1.0, 3.0, _inst(B=1.0, s0=1.0)) == pytest.approx(0.0)

    def test_boundary_price_counts_as_cheap(self):
        pol = ThresholdPolicy(2.0)
        assert pol.decide(0, 0.0, 2.0, _inst(B=1.0)) == pytest.approx(2.0)

    def test_decision_constant_within_one_side(self):
        pol = ThresholdPolicy(5.0)
        inst = _inst(B=2.0)
        below = {pol.decide(0, 0.5, p, inst) for p in (0.1, 2.5, 4.999, 5.0)}
        above = {pol.decide(0, 0.5, p, inst) for p in (5.001, 7.0, 50.0)}
        assert len(below) == 1 and len(above) == 1

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            ThresholdPolicy(0.0)

    @pytest.mark.parametrize("fill_target", [-1.0, math.nan, math.inf])
    def test_invalid_fill_target_rejected_at_construction(self, fill_target):
        with pytest.raises(ValueError, match="fill target"):
            ThresholdPolicy(5.0, fill_target=fill_target)

    def test_per_row_fill_target_names_its_first_bad_value(self):
        with pytest.raises(ValueError, match=r"^fill target must be finite and >= 0, got -2.0$"):
            ThresholdPolicy(5.0, fill_target=np.array([1.0, -2.0, math.nan]))
        with pytest.raises(ValueError, match="one value or one per row"):
            ThresholdPolicy(5.0, fill_target=np.ones((2, 2)))

    def test_per_row_fill_target_above_capacity_rejected(self):
        pol = ThresholdPolicy(5.0, fill_target=np.array([1.0, 2.0 + 1e-9, 3.0]))
        levels, prices = np.zeros(3), np.ones(3)
        with pytest.raises(ValueError, match=r"^fill target 3.0 exceeds capacity 2.0$"):
            pol.decide_batch(0, levels, prices, _inst(B=2.0))
        ok = ThresholdPolicy(5.0, fill_target=np.array([1.0, 2.0 + 1e-9]))
        assert ok.decide_batch(0, levels[:2], prices[:2], _inst(B=2.0)).tolist() == [2.0, 3.0]


def _budgeted(theta, budget):
    return ThresholdPolicy(theta, fill_target=budget, policy_id="budgeted")


class TestBudgetedThreshold:
    def test_budget_arithmetic(self):
        theta = math.sqrt(13.0 * 7.0)
        budget = linear_budget(theta, upper=13.0, lower=7.0, capacity=10.0)
        assert budget == pytest.approx(10.0 * (13.0 - theta) / 6.0)
        assert budget == pytest.approx(5.768, abs=1e-3)

    def test_threshold_at_lower_bound_keeps_full_budget(self):
        full = _budgeted(7.0, linear_budget(7.0, 13.0, 7.0, 10.0))
        plain = ThresholdPolicy(7.0)
        inst = _inst(T=1, B=10.0)
        for level in (0.0, 3.0, 10.0):
            for price in (1.0, 7.0, 20.0):
                assert full.decide(0, level, price, inst) == plain.decide(0, level, price, inst)

    def test_threshold_at_upper_bound_never_prebuys(self):
        pol = _budgeted(13.0, linear_budget(13.0, 13.0, 7.0, 10.0))
        inst = _inst(T=1, B=10.0, s0=2.0)
        # cheap price, but zero budget: serve from storage, buy only the shortfall
        assert pol.decide(0, 2.0, 5.0, inst) == pytest.approx(0.0)
        assert pol.decide(0, 0.5, 5.0, inst) == pytest.approx(0.5)

    def test_full_budget_map_identical_to_plain_threshold(self):
        plain = ThresholdPolicy(4.0)
        budgeted = _budgeted(4.0, 3.0)
        for level in np.linspace(0.0, 3.0, 7):
            for d in (0.0, 0.5, 1.0, 2.0):
                inst_d = _inst(T=1, demand=d, B=3.0)
                for price in (0.5, 4.0, 4.0001, 9.0):
                    assert budgeted.decide(0, float(level), price, inst_d) == pytest.approx(
                        plain.decide(0, float(level), price, inst_d)
                    )

    def test_budget_above_capacity_rejected_at_decide(self):
        pol = _budgeted(4.0, 99.0)
        with pytest.raises(ValueError):
            pol.decide(0, 0.0, 1.0, _inst(B=1.0))

    def test_degenerate_span(self):
        assert linear_budget(7.0, 7.0, 7.0, 4.0) == 4.0
        assert linear_budget(7.1, 7.0, 7.0, 4.0) == 0.0


class TestValueTable:
    @given(st.floats(-1e3, 1e3), st.floats(1e-12, 1e3), st.integers(1, 60))
    @settings(max_examples=500, deadline=None)
    def test_normal_atoms_equal_per_atom_quantiles(self, mu, sigma, count):
        model = Normal(mu, sigma)
        probs = (np.arange(count) + 0.5) / count
        expected = np.asarray([model.quantile(float(p)) for p in probs])
        assert quantile_atoms(model, count).tobytes() == expected.tobytes()

    def test_demand_must_fit_the_values(self):
        grid, values = np.zeros(3), np.zeros((4, 2, 3))
        # one shared demand row, or one per row of a stacked table
        assert ValueTable(grid, values, [1.0, 1.0, 1.0]).demand.tolist() == [1.0] * 3
        assert ValueTable(grid, values, np.ones((2, 3))).demand.shape == (2, 3)
        assert ValueTable(grid, values[:, 0], np.ones(3)).demand.shape == (3,)
        for table_values, demand in ((values, np.ones(4)), (values, np.ones((3, 3))),
                                     (values, 1.0), (values[:, 0], np.ones((1, 3)))):
            with pytest.raises(ValueError, match="does not fit"):
                ValueTable(grid, table_values, demand)

    def test_single_slot_value_is_mean_price(self):
        inst = _inst(T=1, demand=1.0, B=1.0)
        K = 51
        table = build_value_table(inst, Normal(10.0, 2.0), atom_count=K)
        assert table.values[0, 0] == pytest.approx(10.0, abs=3 * 2.0 / K)

    def test_degenerate_prices_make_timing_irrelevant(self):
        inst = Instance.constant(5, 1.0, StorageSpec(2.0, initial_level=1.5))
        table = build_value_table(inst, Normal(7.0, 1e-12), atom_count=11)
        expected = 7.0 * (5.0 - 1.5)
        # 1.5 lies between the lattice points 1 and 2, where the row is linear
        assert table.grid.tolist() == [0.0, 1.0, 2.0]
        assert np.interp(1.5, table.grid, table.values[0]) == pytest.approx(expected, rel=1e-6)

    def test_terminal_row_is_zero(self):
        inst = _inst(T=3, B=1.0)
        table = build_value_table(inst, Normal(5.0, 1.0), 11)
        assert np.all(table.values[-1] == 0.0)

    def test_values_nonincreasing_in_storage(self):
        inst = Instance(6, np.array([1.0, 0.0, 2.0, 1.0, 0.5, 1.0]), StorageSpec(3.0))
        table = build_value_table(inst, Normal(10.0, 3.0), 21)
        assert np.all(np.diff(table.values, axis=1) <= 1e-9)

    def test_values_finite_and_nonnegative_for_positive_prices(self):
        inst = _inst(T=4, B=2.0)
        table = build_value_table(inst, Empirical([1.0, 2.0, 5.0]), 12)
        assert np.all(np.isfinite(table.values))
        assert np.all(table.values >= -1e-12)

    def test_quadrature_convergence(self, reference_instance):
        model = Normal(10.0, 2.0)
        v51 = build_value_table(reference_instance, model, 51).values[0, 0]
        v201 = build_value_table(reference_instance, model, 201).values[0, 0]
        assert abs(v201 - v51) / v51 < 0.002

    def test_off_grid_capacity_is_exact(self):
        # C = 5.03 lies off the 100-step grid, whose table overstates V_0 by
        # about 0.07; the 503-step grid holds every bend (0, 1, ..., 5, C) up
        # to rounding, so its reference is exact, and so is the lattice table
        inst = Instance.constant(24, 1.0, StorageSpec(5.03))
        model = Normal(10.0, 2.0)
        atoms = quantile_atoms(model, 51)
        table = build_value_table(inst, model, 51)
        assert table.grid.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 5.03]
        fine = reference_value_rows(inst, atoms, storage_grid(5.03, 503))[0, 0]
        assert table.values[0, 0] == pytest.approx(fine, rel=EXACT_RTOL)
        coarse = reference_value_rows(inst, atoms, storage_grid(5.03, 100))[0, 0]
        assert coarse - fine > 0.05

    def test_window_sums_a_rounding_apart_merge(self):
        # 0.3 and 0.1 + 0.2 lie 5.6e-17 apart: one lattice point, so no slope
        # divides by a rounding error
        inst = Instance(3, np.array([0.3, 0.1, 0.2]), StorageSpec(1.0))
        model = Normal(10.0, 2.0)
        table = build_value_table(inst, model, 51)
        assert table.grid.tolist() == [0.0, 0.1, 0.2, 0.3, 0.4, 0.3 + (0.1 + 0.2), 1.0]
        assert np.all(np.isfinite(np.diff(table.values, axis=1) / np.diff(table.grid)))
        atoms = quantile_atoms(model, 51)
        ref = reference_value_rows(inst, atoms, table.grid)
        assert np.all(np.abs(table.values - ref) <= EXACT_RTOL * np.maximum(1.0, np.abs(ref)))
        fine = storage_grid(1.0, 1000)
        ref = reference_value_rows(inst, atoms, fine)
        got = np.array([np.interp(fine, table.grid, row) for row in table.values])
        assert np.all(np.abs(got - ref) <= EXACT_RTOL * np.maximum(1.0, np.abs(ref)))

    @given(st.integers(1, 40), st.floats(0.01, 5.0), st.floats(0.0, 50.0),
           st.lists(st.floats(0.0, 5.0), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_lattice_width_is_bounded(self, T, d, capacity, demand):
        constant = breakpoint_lattice(capacity, np.full(T, d))
        assert constant.size <= min(T, math.ceil(capacity / d)) + 2
        lattice = breakpoint_lattice(capacity, demand)
        assert lattice.size <= len(demand) * (len(demand) + 1) // 2 + 2
        for grid in (constant, lattice):
            if capacity == 0.0:
                assert grid.tolist() == [0.0]
                continue
            assert grid[0] == 0.0 and grid[-1] == capacity
            assert np.all(np.diff(grid[:-1]) >= ENERGY_TOL)
            assert grid.size == 2 or capacity - grid[-2] >= ENERGY_TOL

    def test_partial_build_matches_full_rows_bit_for_bit(self):
        inst = Instance(6, np.array([1.0, 0.0, 2.0, 1.0, 0.5, 1.0]), StorageSpec(3.0, 1.0))
        full = build_value_table(inst, Normal(10.0, 3.0), 21)
        for k in (0, 1, 3, 5, 6):
            part = build_value_table(inst, Normal(10.0, 3.0), 21, first_slot=k)
            assert part.first_slot == k
            assert part.values[k:].tobytes() == full.values[k:].tobytes()
            assert not part.values[:k].any()

    def test_first_slot_out_of_range(self):
        inst = _inst(T=3)
        for k in (-1, 4):
            with pytest.raises(ValueError, match="first slot"):
                build_value_table(inst, Normal(5.0, 1.0), 5, first_slot=k)

    def test_rebuild_is_bit_identical(self):
        inst = _inst(T=2, demand=0.25, B=1.0)
        table = build_value_table(inst, Normal(5.0, 1.0), 5)
        assert table.values.shape == (3, 4)  # (T+1) rows of the lattice 0, 0.25, 0.5, 1
        again = build_value_table(_inst(T=2, demand=0.25, B=1.0), Normal(5.0, 1.0), 5)
        assert again.values.tobytes() == table.values.tobytes()


def _two_atom_setup():
    inst = Instance(3, np.ones(3), StorageSpec(1.0))
    model = Empirical([1.0, 3.0])
    table = build_value_table(inst, model, atom_count=10)
    return inst, table


def _enumerate_online_optimum(inst, step=0.5):
    """Exact online optimum on the purchase lattice for the two-atom instance."""
    T = inst.horizon
    spec = inst.storage

    def value(t, level, price):
        if t == T:
            return 0.0
        q_lo, q_hi = feasible_purchase_range(spec, level, float(inst.demand[t]))
        best = math.inf
        for k in range(math.ceil((q_lo - 1e-9) / step), math.floor((q_hi + 1e-9) / step) + 1):
            q = k * step
            nxt = level + q - float(inst.demand[t])
            cont = 0.5 * (value(t + 1, nxt, 1.0) + value(t + 1, nxt, 3.0))
            best = min(best, price * q + cont)
        return best

    return 0.5 * (value(0, spec.initial_level, 1.0) + value(0, spec.initial_level, 3.0))


@st.composite
def _argmin_cases(draw, convex=False):
    """(grid, v_next, spec, level, demand, price) for one purchase.

    With ``convex``, the row's slopes are drawn sorted, some of them equal
    to minus the price (the next levels along those segments tie), or the
    row is ``-price * grid`` (every next level ties); otherwise it is any
    row.
    """
    capacity = draw(st.sampled_from((0.0, 1.0, 2.5, 5.0)))
    grid = storage_grid(capacity, draw(st.integers(2, 30)))
    on_grid = st.sampled_from(grid.tolist())  # endpoints land exactly on grid points
    level = draw(st.one_of(on_grid, st.floats(0.0, capacity)))
    demand = draw(st.one_of(on_grid, st.floats(0.0, 2.0 * capacity + 1.0)))
    price = draw(st.one_of(st.sampled_from((-0.0, 0.0)), st.floats(-5.0, 20.0)))
    if draw(st.booleans()):
        v_next = -price * grid  # every candidate (nearly) ties
    elif convex:
        slopes = np.sort(draw(st.lists(
            st.one_of(st.just(-price), st.floats(-40.0, 40.0)),
            min_size=grid.size - 1, max_size=grid.size - 1,
        )))
        v0 = draw(st.floats(-50.0, 50.0))
        v_next = v0 + np.concatenate(([0.0], np.cumsum(slopes * np.diff(grid))))
    else:
        v_next = np.asarray(draw(st.lists(
            st.floats(-50.0, 50.0), min_size=grid.size, max_size=grid.size)))
    return grid, v_next, StorageSpec(capacity), level, demand, price


@st.composite
def _dyadic_cases(draw):
    """A convex purchase case on a grid of step 0.25 whose every operation is exact.

    Levels, demands, prices and values are multiples of 1/4 or 1/16 of
    small size, and the slopes whole numbers, some equal to minus the
    price, so ties between next levels are exact.
    """
    steps = draw(st.integers(1, 20))
    grid = storage_grid(0.25 * steps, steps)
    quarters = st.integers(0, steps).map(lambda k: 0.25 * k)
    level = draw(quarters)
    demand = draw(st.integers(0, 2 * steps + 4).map(lambda k: 0.25 * k))
    price = 0.25 * draw(st.integers(-20, 80))
    slopes = np.sort(draw(st.lists(
        st.one_of(st.just(-price), st.integers(-40, 40).map(float)),
        min_size=steps, max_size=steps,
    )))
    v0 = draw(st.integers(-800, 800)) / 16.0
    v_next = v0 + np.concatenate(([0.0], np.cumsum(0.25 * slopes)))
    return grid, v_next, StorageSpec(0.25 * steps), level, demand, price


def _objective(grid, v_next, level, demand, price, q):
    """What a purchase q costs now and after: price * q + V(level + q - demand)."""
    return price * q + float(np.interp(level + q - demand, grid, v_next))


# The base-stock pick costs the scan's minimum in exact arithmetic; rounding
# moves the slopes it counts and the objective both.  The largest gap measured
# over two runs of 20000 convex ``_argmin_cases`` draws is 2.2e-15 x the scale
# in ``_objective_tol``; over two runs of 20000 rows of each real-table test
# below it is 0.
OBJECTIVE_RTOL = 1e-12


def _objective_tol(grid, v_next, spec, level, demand, price):
    """``OBJECTIVE_RTOL`` times the largest of 1, the purchase's cost bound and max |V|."""
    scale = max(1.0, abs(price) * (spec.capacity + demand), float(np.abs(v_next).max()))
    return OBJECTIVE_RTOL * scale


def _assert_near_scan(grid, v_next, spec, level, demand, price):
    """The pick's objective lies within ``_objective_tol`` of the deduplicated scan's minimum."""
    got = argmin_purchase(grid, v_next, spec, level, demand, price)
    want = reference_argmin_purchase(grid, v_next, spec, level, demand, price, dedupe=True)
    gap = _objective(grid, v_next, level, demand, price, got) - _objective(
        grid, v_next, level, demand, price, want
    )
    assert abs(gap) <= _objective_tol(grid, v_next, spec, level, demand, price)


class TestArgminPurchase:
    @given(_argmin_cases(convex=True))
    @settings(max_examples=300, deadline=None)
    def test_matches_deduplicated_candidates(self, case):
        # wherever the scan's cheapest next level is cheaper than every other
        # by more than the bound, the base-stock rule picks that level
        cands, costs = reference_scan(*case, dedupe=True)
        best = int(np.argmin(costs))
        rivals = costs[np.arange(cands.size) != best]
        if rivals.size == 0 or rivals.min() > costs[best] + _objective_tol(*case):
            assert argmin_purchase(*case) == reference_argmin_purchase(*case, dedupe=True)

    @given(_argmin_cases())
    @settings(max_examples=300, deadline=None)
    def test_batch_matches_scalar_bit_for_bit(self, case):
        # on any row, convex or not, the batch rule is the scalar rule
        grid, v_next, spec, level, demand, price = case
        want = np.float64(reference_base_stock_purchase(*case)).tobytes()
        assert np.float64(argmin_purchase(*case)).tobytes() == want
        prices = np.array([price])
        for v in (v_next, v_next[:, None]):  # one shared row, one level-major column per row
            best = base_stock_index(grid, v, prices)
            got = clip_purchases(grid, best, spec, np.array([level]), demand)
            assert got.tobytes() == want

    @given(_argmin_cases(convex=True))
    @settings(max_examples=300, deadline=None)
    def test_convex_rows_cost_the_scans_minimum(self, case):
        _assert_near_scan(*case)

    @given(_dyadic_cases())
    @settings(max_examples=300, deadline=None)
    def test_exact_rows_pick_the_scans_level(self, case):
        # exact arithmetic: the scan's first minimum, exact ties included, so the
        # smallest next level wins
        want = np.float64(reference_argmin_purchase(*case)).tobytes()
        assert np.float64(argmin_purchase(*case)).tobytes() == want
        assert reference_argmin_purchase(*case, dedupe=True) == argmin_purchase(*case)

    @given(st.integers(1, 6), st.floats(0.5, 6.0), st.integers(1, 9), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_dp_table_rows_cost_the_scans_minimum(self, T, capacity, atoms, seed):
        rng = np.random.default_rng(seed)
        inst = Instance(T, rng.uniform(0.0, 3.0, T), StorageSpec(capacity))
        models = [Normal(mu, sigma) for mu, sigma in rng.uniform((1.0, 0.5), (12.0, 6.0), (3, 2))]
        table = policies.build_value_tables(inst, models, atoms)
        for t, e, price in zip(rng.integers(0, T, 20), rng.integers(0, 3, 20),
                               rng.uniform(-5.0, 25.0, 20)):
            level = float(rng.choice([rng.uniform(0.0, capacity), rng.choice(table.grid)]))
            _assert_near_scan(table.grid, table.values[t + 1, e], inst.storage, level,
                              float(inst.demand[t]), float(price))

    @given(st.integers(1, 6), st.floats(0.5, 6.0), st.integers(2, 25), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_hindsight_rows_cost_the_scans_minimum(self, T, capacity, grid_size, seed):
        rng = np.random.default_rng(seed)
        inst = Instance.constant(T, 1.0, StorageSpec(capacity))
        prices = rng.uniform(-5.0, 25.0, (3, T))
        realized = rng.uniform(0.5, 1.5, (3, T))
        grid = storage_grid(capacity, grid_size)
        table = hindsight_table(inst, prices, grid, realized)
        for t, e in zip(rng.integers(0, T, 20), rng.integers(0, 3, 20)):
            level = float(rng.choice([rng.uniform(0.0, capacity), rng.choice(grid)]))
            _assert_near_scan(grid, table.values[t + 1, e], inst.storage, level,
                              float(realized[e, t]), float(prices[e, t]))


class TestDpPolicy:
    def test_two_atom_value_matches_enumeration(self):
        inst, table = _two_atom_setup()
        assert table.values[0, 0] == pytest.approx(_enumerate_online_optimum(inst), abs=1e-6)

    def test_two_atom_policy_expected_cost_matches_enumeration(self):
        inst, table = _two_atom_setup()
        pol = DpPolicy(table)
        costs = [
            simulate(inst, np.asarray(path), pol).total_cost
            for path in itertools.product([1.0, 3.0], repeat=3)
        ]
        assert np.mean(costs) == pytest.approx(_enumerate_online_optimum(inst), abs=1e-6)

    def test_final_slot_buys_only_the_shortfall(self):
        inst = Instance.constant(4, 1.0, StorageSpec(3.0))
        table = build_value_table(inst, Normal(10.0, 2.0), 11)
        pol = DpPolicy(table)
        for price in (0.5, 5.0, 50.0):
            assert pol.decide(3, 0.25, price, inst) == pytest.approx(0.75)
            assert pol.decide(3, 2.0, price, inst) == pytest.approx(0.0)

    def test_degenerate_model_matches_offline_on_constant_prices(self):
        inst = Instance.constant(6, 1.0, StorageSpec(2.0))
        table = build_value_table(inst, Normal(4.0, 1e-12), 11)
        prices = np.full(6, 4.0)
        dp_cost = simulate(inst, prices, DpPolicy(table)).total_cost
        off_cost = offline_optimal(inst, prices, 40).total_cost
        assert dp_cost == pytest.approx(off_cost, rel=1e-9)

    def test_slot_beyond_horizon(self):
        inst, table = _two_atom_setup()
        with pytest.raises(IndexError):
            DpPolicy(table).decide(3, 0.0, 1.0, inst)

    def test_slot_before_first_slot(self):
        inst = Instance.constant(4, 1.0, StorageSpec(2.0))
        pol = DpPolicy(build_value_table(inst, Normal(10.0, 2.0), 11, first_slot=2))
        with pytest.raises(IndexError):
            pol.decide(1, 0.0, 10.0, inst)
        assert pol.decide(2, 0.0, 10.0, inst) >= 0.0


@pytest.fixture
def fitted_rows(monkeypatch):
    """Every row AdaptivePolicy estimates, in order: (n, threshold, failed)."""
    rows = []
    original = policies.estimate_rows

    def recording(samples, *args, **kwargs):
        fits = original(samples, *args, **kwargs)
        n = samples.shape[1]
        rows.extend((n, theta, failed)
                    for theta, failed in zip(fits.threshold.tolist(), fits.failed.tolist()))
        return fits

    monkeypatch.setattr(policies, "estimate_rows", recording)
    return rows


class TestAdaptivePolicy:
    def test_never_refresh_equals_static_policy(self):
        warmup = generate(Normal(10.0, 2.0), 500, seed=1)
        inst = Instance.constant(12, 1.0, StorageSpec(3.0))
        prices = generate(Normal(10.0, 2.0), 12, seed=2)
        adaptive = AdaptivePolicy(ThresholdFamily(), [warmup], [0], refresh_stride=None)
        static = ThresholdPolicy(estimate(warmup, 0.05).theta_hat)
        a = simulate(inst, prices, adaptive)
        b = simulate(inst, prices, static)
        assert np.array_equal(a.purchases, b.purchases)
        assert a.total_cost == b.total_cost

    def test_refresh_every_slot_matches_scratch_estimates(self, fitted_rows):
        warmup = generate(Normal(10.0, 2.0), 50, seed=3)
        inst = Instance.constant(8, 1.0, StorageSpec(2.0))
        prices = generate(Normal(10.0, 2.0), 8, seed=4)
        adaptive = AdaptivePolicy(ThresholdFamily(), [warmup], [0], refresh_stride=1)
        simulate(inst, prices, adaptive)
        assert [n for n, _, _ in fitted_rows] == list(range(50, 58))
        got = [theta for _, theta, _ in fitted_rows]
        expected = [estimate(warmup, 0.05).theta_hat]
        history = list(warmup)
        for t in range(7):  # refreshes happen before slots 1..7
            history.append(float(prices[t]))
            expected.append(estimate(history, 0.05).theta_hat)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_failed_refresh_keeps_previous_policy_and_logs(self, fitted_rows):
        warmup = [10.0, 10.5, 9.5, 10.2]
        inst = Instance.constant(3, 1.0, StorageSpec(1.0))
        # wild prices push the three-sigma lower bound negative on every refresh
        prices = np.array([500.0, -480.0, 510.0])
        adaptive = AdaptivePolicy(ThresholdFamily(), [warmup], [0], refresh_stride=1)
        theta_before = fitted_rows[0][1]
        traj = simulate(inst, prices, adaptive)
        assert sum("refresh failed" in event for event in adaptive.events) == 2
        # only the initial estimate succeeded
        assert [failed for _, _, failed in fitted_rows] == [False, True, True]
        static = simulate(inst, prices, ThresholdPolicy(theta_before))
        assert np.array_equal(traj.purchases, static.purchases)

    def test_failed_refresh_keeps_the_last_refreshed_policy(self):
        built = []

        def family(fits, first_slot):
            built.append((first_slot, fits.threshold.tolist()))
            return ThresholdFamily()(fits, first_slot)

        warmup = [10.0, 10.5, 9.5, 10.2]
        inst = Instance.constant(4, 1.0, StorageSpec(1.0))
        prices = np.array([10.3, 9.9, 500.0, 10.0])
        adaptive = AdaptivePolicy(family, [warmup], [0], refresh_stride=1)
        simulate(inst, prices, adaptive)
        assert len(adaptive.events) == 1 and "n=7" in adaptive.events[0]
        # the failed refresh at slot 3 rebuilds the row from its slot-2 report
        assert built[-1] == (3, [estimate(warmup + [10.3, 9.9]).theta_hat])

    def test_short_warmup_without_prior_rejected(self):
        with pytest.raises(ValueError):
            AdaptivePolicy(ThresholdFamily(), [[10.0]], [0], refresh_stride=1)

    def test_bare_price_series_as_warmups_rejected(self):
        # warmups is a sequence of series: a bare series reads as scalar warmups
        with pytest.raises(ValueError, match="warmup must be one-dimensional"):
            AdaptivePolicy(ThresholdFamily(), [10.0, 10.5, 9.5], [0])
        with pytest.raises(ValueError, match="warmup must be one-dimensional"):
            AdaptivePolicy(ThresholdFamily(), np.array([10.0, 10.5, 9.5]), [0])

    def test_zero_refresh_stride_rejected(self):
        adaptive = AdaptivePolicy(ThresholdFamily(), [[10.0, 10.5, 9.5]], [0], refresh_stride=0)
        with pytest.raises(ValueError, match="refresh stride must be >= 1, got 0"):
            simulate(_inst(T=2), [10.0, 10.0], adaptive)

    def test_failed_initial_estimation_raises(self):
        # the three-sigma lower bound of the warmup is negative and unclamped
        with pytest.raises(EstimationError):
            AdaptivePolicy(ThresholdFamily(), [[10.0, -10.0, 10.0]], [0])

    def test_rerun_starts_from_the_warmup(self):
        # slot 0 restarts every row from the base policy; no reset in between
        warmup = generate(Normal(10.0, 2.0), 100, seed=9)
        adaptive = AdaptivePolicy(ThresholdFamily(), [warmup], [0], refresh_stride=2)
        inst = Instance.constant(6, 1.0, StorageSpec(2.0))
        prices = generate(Normal(10.0, 2.0), 6, seed=10)
        first = simulate(inst, prices, adaptive).purchases
        second = simulate(inst, prices, adaptive).purchases
        assert first.tobytes() == second.tobytes()

    def test_slot_after_zero_needs_slot_zero_first(self):
        adaptive = AdaptivePolicy(ThresholdFamily(), [[10.0, 10.5, 9.5]], [0], refresh_stride=1)
        inst = Instance.constant(3, 1.0, StorageSpec(1.0))
        with pytest.raises(ValueError, match="slot 2 before slot 0"):
            adaptive.decide(2, 0.0, 10.0, inst)
        with pytest.raises(ValueError, match="in order from slot 0"):
            adaptive.decide_batch(1, np.zeros(2), np.full(2, 10.0), inst)
        adaptive.decide(0, 0.0, 10.0, inst)
        assert adaptive.decide(1, 1.0, 10.0, inst) >= 0.0

    def test_dp_family_builds_value_tables(self):
        inst = Instance.constant(4, 1.0, StorageSpec(2.0))
        warmup = generate(Normal(10.0, 2.0), 200, seed=12)
        adaptive = AdaptivePolicy(DpFamily(inst, atom_count=11), [warmup], [0])
        prices = generate(Normal(10.0, 2.0), 4, seed=13)
        traj = simulate(inst, prices, adaptive)
        assert traj.total_cost > 0

    def test_dp_family_with_mid_episode_refresh(self, fitted_rows):
        # the table is rebuilt from the grown history at slots 3 and 6
        inst = Instance.constant(8, 1.0, StorageSpec(2.0))
        warmup = generate(Normal(10.0, 2.0), 30, seed=14)
        adaptive = AdaptivePolicy(
            DpFamily(inst, atom_count=11), [warmup], [0], refresh_stride=3
        )
        prices = generate(Normal(10.0, 2.0), 8, seed=15)
        traj = simulate(inst, prices, adaptive)
        # initial + two refreshes
        assert [(n, failed) for n, _, failed in fitted_rows] == [
            (30, False), (33, False), (36, False),
        ]
        assert np.isfinite(traj.total_cost)

    def test_dp_refresh_builds_only_remaining_rows(self):
        tables = []

        class RecordingFamily(DpFamily):
            def __call__(self, fits, first_slot):
                policy = super().__call__(fits, first_slot)
                tables.append(policy.table)
                return policy

        class FullTableFamily(DpFamily):
            def __call__(self, fits, first_slot):
                return super().__call__(fits, 0)

        inst = Instance.constant(12, 1.0, StorageSpec(3.0))
        warmup = generate(Normal(10.0, 2.0), 40, seed=16)
        prices = generate(Normal(10.0, 2.0), 12, seed=17)
        for stride, last_refresh in ((1, 11), (5, 10)):
            partial = AdaptivePolicy(RecordingFamily(inst, 11), [warmup], [0],
                                     refresh_stride=stride)
            full = AdaptivePolicy(FullTableFamily(inst, 11), [warmup], [0],
                                  refresh_stride=stride)
            a = simulate(inst, prices, partial)
            assert tables[-1].first_slot == last_refresh
            assert a.purchases.tobytes() == simulate(inst, prices, full).purchases.tobytes()
