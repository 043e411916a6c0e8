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
import tracemalloc

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
    build_value_tables,
    estimate,
    feasible_purchase_range,
    generate,
    offline_optimal,
)
from storelab import metrics, policies
from storelab.config import build_instance, build_model
from storelab.experiments import run_policy_compare
from storelab.metrics import offline_costs
from storelab.model import feasible_purchase_ranges, simulate_batch
from storelab.policies import (
    SlotGeometry, breakpoint_lattice, interp_rows, quantile_atoms, storage_grid,
)
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
def batch_cases(draw, min_rows=1):
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
    E = draw(st.integers(min_rows, 5))
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

    @given(batch_cases(), st.integers(1, 9), st.floats(1.0, 12.0), st.floats(0.5, 6.0))
    @settings(max_examples=100, deadline=None)
    def test_dp_rows_match_simulate(self, case, atoms, mu, sigma):
        instance, prices, realized = case
        policy = DpPolicy(build_value_table(instance, Normal(mu, sigma), atoms))
        batch = simulate_batch(instance, prices, policy, realized_demand=realized)
        _assert_rows_match(batch, _per_slot(instance, prices, [policy] * len(prices), realized))


def _row_events(events, e):
    label = f"row {e}: "
    return [m[len(label):] for m in events if m.startswith(label)]


def _adaptive_rows_match(instance, prices, realized, adaptive):
    """Each batch row equals the per-slot reference run; returns the batch events."""
    batch = simulate_batch(instance, prices, adaptive, realized_demand=realized)
    refs = [ReferenceAdaptive(adaptive, e) for e in range(len(prices))]
    _assert_rows_match(batch, _per_slot(instance, prices, refs, realized))
    for e, ref in enumerate(refs):
        assert _row_events(adaptive.events, e) == ref.events
    return adaptive.events


def _rows_match_one_policy_per_warmup(instance, prices, realized, family, warmups, rows,
                                      stride, **kw):
    """Rows of one policy over several warmups equal one policy per warmup; returns the events."""
    stacked = AdaptivePolicy(family, warmups, rows, stride, **kw)
    batch = simulate_batch(instance, prices, stacked, realized_demand=realized)
    for w, warmup in enumerate(warmups):
        mine = np.flatnonzero(rows == w)
        alone = AdaptivePolicy(family, [warmup], np.zeros(mine.size, int), stride, **kw)
        ref = simulate_batch(instance, prices[mine], alone,
                             realized_demand=None if realized is None else realized[mine])
        for name in ("purchases", "levels", "total_cost", "clamped"):
            assert getattr(batch, name)[mine].tobytes() == getattr(ref, name).tobytes()
        for i, e in enumerate(mine):
            assert _row_events(stacked.events, e) == _row_events(alone.events, i)
    return stacked.events


class TestAdaptiveBatch:
    @given(batch_cases(min_rows=2), st.data())
    @settings(max_examples=150, deadline=None)
    def test_rows_of_several_warmups_match_one_policy_per_warmup(self, case, data):
        instance, prices, realized = case
        E = prices.shape[0]
        if data.draw(st.booleans(), label="dp"):
            family = DpFamily(instance, data.draw(st.integers(1, 7)))
        else:
            family = ThresholdFamily()
        stride = data.draw(st.sampled_from((1, 2, None)), label="stride")
        warmups = data.draw(st.lists(
            st.lists(st.floats(8.0, 12.0), min_size=2, max_size=6), min_size=2, max_size=E,
        ), label="warmups")
        # every warmup serves a row, and the rows of one warmup need not be adjacent
        rows = np.array(data.draw(st.lists(
            st.integers(0, len(warmups) - 1), min_size=E, max_size=E,
        ), label="rows"))
        rows[data.draw(st.permutations(range(E)), label="order")[:len(warmups)]] = range(
            len(warmups)
        )
        clamp = data.draw(st.booleans(), label="clamp")
        conservative = clamp and data.draw(st.booleans(), label="conservative")
        # unclamped, the wide price rows make some refreshes fail and not others
        _rows_match_one_policy_per_warmup(
            instance, prices, realized, family, warmups, rows, stride,
            conservative=conservative, clamp_nonpositive_lower=clamp,
        )

    @pytest.mark.parametrize("family", ["dp", "threshold"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_failed_refreshes_of_several_warmups_name_the_rows(self, family, stride):
        inst = Instance.constant(4, 1.0, StorageSpec(2.0))
        calm = [10.0, 10.4, 9.8, 10.1]
        wild = [500.0, -480.0, 510.0, 10.0]
        prices = np.array([calm, wild, wild, calm, calm, wild])
        warmups = [[10.0, 10.5, 9.5, 10.2], [12.0, 11.0, 12.5, 11.5, 12.2]]
        rows = np.array([1, 0, 1, 0, 1, 0])
        policy_family = DpFamily(inst, 5) if family == "dp" else ThresholdFamily()
        events = _rows_match_one_policy_per_warmup(
            inst, prices, None, policy_family, warmups, rows, stride,
        )
        # the wild rows fail at every refresh, the calm rows never
        assert sorted({m.split(":")[0] for m in events}) == ["row 1", "row 2", "row 5"]
        assert len(events) == 3 * len(range(stride, 4, stride))

    def test_warmup_rows_fix_the_row_count(self):
        inst = Instance.constant(3, 1.0, StorageSpec(1.0))
        warmups = [[10.0, 10.5, 9.5], [11.0, 11.5]]
        with pytest.raises(ValueError, match="must index the 2 warmups"):
            AdaptivePolicy(ThresholdFamily(), warmups, [0, 2], 1)
        adaptive = AdaptivePolicy(ThresholdFamily(), warmups, [0, 1, 1], 1)
        with pytest.raises(ValueError, match="over 3 warmup rows cannot serve 2 rows"):
            simulate_batch(inst, np.full((2, 3), 10.0), adaptive)
        assert simulate_batch(inst, np.full((3, 3), 10.0), adaptive).total_cost.shape == (3,)

    @given(batch_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_rows_match_per_slot_reference(self, case, data):
        instance, prices, realized = case
        T = instance.horizon
        if data.draw(st.booleans(), label="dp"):
            family = DpFamily(instance, data.draw(st.integers(1, 7)))
        else:
            family = ThresholdFamily()
        stride = data.draw(st.sampled_from((1, 2, max(T - 1, 1), None)), label="stride")
        warmup = data.draw(st.lists(st.floats(8.0, 12.0), min_size=2, max_size=6), label="warmup")
        clamp = data.draw(st.booleans(), label="clamp")
        conservative = clamp and data.draw(st.booleans(), label="conservative")
        # unclamped, the wide price rows make some refreshes fail and not others
        adaptive = AdaptivePolicy(family, [warmup], np.zeros(len(prices), int), stride,
                                  conservative=conservative, clamp_nonpositive_lower=clamp)
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
        family = DpFamily(instance, 9) if dp else ThresholdFamily()
        try:
            adaptive = AdaptivePolicy(family, [warmup], np.zeros(E, int), stride)
        except EstimationError:
            return
        _adaptive_rows_match(instance, prices, None, adaptive)

    @pytest.mark.parametrize("family", ["dp", "threshold"])
    def test_failed_refresh_events_name_the_rows(self, family):
        inst = Instance.constant(4, 1.0, StorageSpec(2.0))
        calm = [10.0, 10.4, 9.8, 10.1]
        wild = [500.0, -480.0, 510.0, 10.0]
        prices = np.array([calm, wild, calm, wild, calm])
        policy_family = DpFamily(inst, 5) if family == "dp" else ThresholdFamily()
        adaptive = AdaptivePolicy(policy_family, [[10.0, 10.5, 9.5, 10.2]], [0] * 5,
                                  refresh_stride=1)
        events = _adaptive_rows_match(inst, prices, None, adaptive)
        # the wild rows fail at every refresh (slots 1, 2, 3), the calm rows never
        assert sorted({m.split(":")[0] for m in events}) == ["row 1", "row 3"]
        assert len(events) == 2 * 3
        assert all("refresh failed" in m for m in events)

    def test_custom_family_gets_one_report_per_row(self):
        built, served = [], []

        class BuyNothing(Policy):
            def __init__(self, reports) -> None:
                self.reports = reports

            def decide_batch(self, t, levels, prices, instance):
                served.append((t, len(self.reports), levels.size))
                return np.zeros(levels.shape)

        def family(reports, first_slot):
            built.append((first_slot, [report.stats.n for report in reports]))
            return BuyNothing(reports)

        inst = Instance.constant(3, 1.0, StorageSpec(1.0))
        adaptive = AdaptivePolicy(family, [[10.0, 10.5]], [0, 0], 1)
        simulate_batch(inst, np.array([[10.0, 11.0, 9.0], [10.0, 12.0, 9.0]]), adaptive)
        # the base policy is built from one report per row, both the warmup's
        assert built == [(0, [2, 2]), (1, [3, 3]), (2, [4, 4])]
        assert served == [(0, 2, 2), (1, 2, 2), (2, 2, 2)]


class _Atoms:
    """A price model whose quantile-midpoint atoms are the given values, in order."""

    def __init__(self, atoms) -> None:
        self.atoms = atoms

    def quantile(self, p: float) -> float:
        return self.atoms[int(p * len(self.atoms))]


ATOMS = st.one_of(
    st.sampled_from((-0.0, 0.0, -3.0, 2.0)), st.floats(-20.0, 20.0, allow_subnormal=False)
)


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
    atoms = draw(st.lists(ATOMS, min_size=1, max_size=9))
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
    @given(table_cases(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_rows_match_reference_steps(self, case, data):
        instance, atoms = case
        first_slot = data.draw(st.integers(0, instance.horizon), label="first_slot")
        table = build_value_table(instance, _Atoms(atoms), len(atoms), first_slot)
        lattice = breakpoint_lattice(instance.storage.capacity, instance.demand)
        assert table.grid.tobytes() == lattice.tobytes()
        ref = reference_value_rows(instance, atoms, lattice, first_slot)
        assert np.all(np.abs(table.values - ref) <= VALUE_RTOL * np.maximum(1.0, np.abs(ref)))

    @given(table_cases())
    @settings(max_examples=200, deadline=None)
    def test_rows_are_convex(self, case):
        # the base-stock step's precondition on the row it reads
        instance, atoms = case
        table = build_value_table(instance, _Atoms(atoms), len(atoms))
        steps = np.diff(table.grid)
        slopes = np.diff(table.values, axis=1) / steps
        tol = SLOPE_RTOL * max(1.0, np.abs(table.values).max()) / steps.min(initial=1.0)
        assert np.all(np.diff(slopes, axis=1) >= -tol)

    @given(table_cases(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_atom_order_does_not_matter(self, case, data):
        instance, atoms = case
        shuffled = data.draw(st.permutations(atoms), label="shuffled")
        table = build_value_table(instance, _Atoms(shuffled), len(atoms))
        ordered = build_value_table(instance, _Atoms(sorted(atoms)), len(atoms))
        assert table.values.tobytes() == ordered.values.tobytes()


    def test_bench_table_equals_the_grid_table_at_integer_levels(self, reference_instance):
        # values the CSV digests cannot see: on the default instance the
        # lattice is 0, 1, ..., 5, every 20th point of the 100-step grid
        model = Normal(10.0, 2.0)
        table = build_value_table(reference_instance, model, 51)
        assert table.grid.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        grid = storage_grid(5.0, 100)
        assert grid[::20].tobytes() == table.grid.tobytes()
        ref = reference_value_rows(reference_instance, quantile_atoms(model, 51), grid)[:, ::20]
        assert np.all(np.abs(table.values - ref) <= VALUE_RTOL * np.maximum(1.0, np.abs(ref)))


def _more_atom_rows(data, atoms, max_rows=6):
    """The case's atoms plus up to ``max_rows`` - 1 more rows of as many atoms."""
    extra = data.draw(st.lists(
        st.lists(ATOMS, min_size=len(atoms), max_size=len(atoms)), max_size=max_rows - 1
    ), label="extra rows")
    return [atoms] + extra


class TestValueTables:
    @given(table_cases(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_one_model_tables(self, case, data):
        instance, atoms = case
        rows = _more_atom_rows(data, atoms)
        first_slot = data.draw(st.integers(0, instance.horizon), label="first_slot")
        block = data.draw(st.sampled_from((1, 2, 3, 108)), label="block")
        models = [_Atoms(row) for row in rows]
        width = breakpoint_lattice(instance.storage.capacity, instance.demand).size
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(policies, "SWEEP_BYTES", _sweep_bytes(instance, width, len(atoms), block))
            stacked = build_value_tables(instance, models, len(atoms), first_slot)
        assert stacked.values.shape == (instance.horizon + 1, len(rows), width)
        for e, model in enumerate(models):
            one = build_value_table(instance, model, len(atoms), first_slot)
            assert stacked.grid.tobytes() == one.grid.tobytes()
            assert stacked.values[:, e].tobytes() == one.values.tobytes()

    def test_rows_cross_a_default_block(self, reference_instance):
        # 400 rows of 24 x 6 values and 51 atoms fit in SWEEP_BYTES
        rows = 420
        assert policies.sweep_blocks(rows, 24, 6, 51) == [(0, 210), (210, 420)]
        models = [Normal(8.0 + 0.01 * e, 2.0) for e in range(rows)]
        stacked = build_value_tables(reference_instance, models, 51, first_slot=6)
        for e, model in enumerate(models):
            one = build_value_table(reference_instance, model, 51, first_slot=6)
            assert stacked.values[:, e].tobytes() == one.values.tobytes()

    def test_no_models_give_an_empty_table(self, reference_instance):
        table = build_value_tables(reference_instance, [], 5)
        assert table.values.shape == (25, 0, 6)  # the lattice 0, 1, ..., 5

    @pytest.mark.parametrize("demand, built", [
        ([1.0] * 6, 1),
        ([1.0, 1.0, 2.0, 2.0, 2.0, 0.5], 3),  # one geometry per run of equal demands
        ([1.0, 2.0, 1.0, 2.0, 1.0, 2.0], 6),
    ])
    def test_one_geometry_per_demand_change(self, monkeypatch, demand, built):
        # every row plans for the nominal demand, so eight rows share each geometry
        shapes = []

        def counting(grid, capacity, d):
            geometry = SlotGeometry(grid, capacity, d)
            shapes.append(geometry.s_lo.shape)
            return geometry

        monkeypatch.setattr(policies, "SlotGeometry", counting)
        instance = Instance(6, np.asarray(demand), StorageSpec(2.5))
        models = [Normal(8.0 + e, 2.0) for e in range(8)]
        width = build_value_tables(instance, models, 5).grid.size
        assert shapes == [(width,)] * built

    def test_memory_stays_bounded(self, reference_instance):
        # beyond the table itself, one block's atoms, geometry and temporaries
        models = [Normal(8.0 + 0.001 * e, 2.0) for e in range(1024)]
        tracemalloc.start()
        try:
            table = build_value_tables(reference_instance, models, 51)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - table.values.nbytes < policies.SWEEP_BYTES

    @given(table_cases(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_permuting_the_models_permutes_the_rows(self, case, data):
        instance, atoms = case
        rows = _more_atom_rows(data, atoms)
        order = data.draw(st.permutations(range(len(rows))), label="order")
        table = build_value_tables(instance, [_Atoms(r) for r in rows], len(atoms))
        permuted = build_value_tables(instance, [_Atoms(rows[i]) for i in order], len(atoms))
        assert permuted.values.tobytes() == table.values[:, order].tobytes()

    @given(st.integers(1, 8), st.integers(1, 6), st.floats(0.0, 4.0, allow_subnormal=False),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_kept_report_rebuilt_later_keeps_its_rows(self, T, E, capacity, data):
        # an adaptive refresh rebuilds a row whose estimate failed from its
        # old report at the later slot, beside rows with fresh reports
        instance = Instance.constant(T, 1.0, StorageSpec(capacity))
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)

        def reports(count):
            return [
                estimate(rng.normal(10.0, 2.0, int(rng.integers(3, 30))),
                         clamp_nonpositive_lower=True)
                for _ in range(count)
            ]

        first = data.draw(st.integers(0, T), label="first")
        later = data.draw(st.integers(first, T), label="later")
        kept = data.draw(st.lists(st.booleans(), min_size=E, max_size=E), label="kept")
        old, fresh = reports(E), reports(E)
        new = [o if k else f for o, f, k in zip(old, fresh, kept)]
        family = DpFamily(instance, 7)
        before = family(old, first).table.values
        after = family(new, later).table.values
        for e in np.flatnonzero(kept):
            assert after[later:, e].tobytes() == before[later:, e].tobytes()

    def test_stacked_table_serves_one_row_per_model(self):
        inst = Instance.constant(3, 1.0, StorageSpec(2.0))
        models = [Normal(9.0, 2.0), Normal(10.0, 2.0), Normal(11.0, 2.0)]
        stacked = DpPolicy(build_value_tables(inst, models, 5))
        one = DpPolicy(build_value_tables(inst, models[:1], 5))
        levels, prices = np.array([0.0, 1.0, 2.0]), np.full(3, 10.0)
        q = stacked.decide_batch(0, levels, prices, inst)
        for e, model in enumerate(models):
            row = DpPolicy(build_value_table(inst, model, 5))
            assert q[e] == row.decide(0, levels[e], prices[e], inst)
        # a one-model table serves any number of rows; a stacked one only its own count
        assert one.decide_batch(0, levels[:2], prices[:2], inst).shape == (2,)
        with pytest.raises(ValueError, match="3 rows cannot serve 2 rows"):
            stacked.decide_batch(0, levels[:2], prices[:2], inst)

    def test_dp_family_builds_one_row_per_distinct_model(self):
        inst = Instance.constant(4, 1.0, StorageSpec(2.0))
        a = estimate([10.0, 10.5, 9.5, 10.2], clamp_nonpositive_lower=True)
        b = estimate([12.0, 11.0, 12.5], clamp_nonpositive_lower=True)
        a_again = estimate([10.0, 10.5, 9.5, 10.2], clamp_nonpositive_lower=True)
        family = DpFamily(inst, 7)
        policy = family([a, b, a_again, b, a], 1)
        # equal fitted models share a table row, whichever report object they come from
        assert policy.table.values.shape[1] == 2
        assert policy.rows.tolist() == [0, 1, 0, 1, 0]
        levels = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        prices = np.array([9.0, 10.0, 11.0, 12.0, 10.5])
        q = policy.decide_batch(1, levels, prices, inst)
        for e, report in enumerate([a, b, a, b, a]):
            alone = family([report], 1)
            assert q[e] == alone.decide(1, levels[e], prices[e], inst)
        # every policy maps its rows, to one row or to as many rows as models
        assert family([a, a_again], 0).rows.tolist() == [0, 0]
        assert family([a, b], 0).rows.tolist() == [0, 1]


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
        got = geometry.min_costs(v_next, prices[:, 0])
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
        split, sizes = _split_costs(instance, prices, 10, realized, block)
        # the fewest blocks of at most ``block`` rows, balanced to within one row
        assert sum(sizes) == len(prices)
        assert len(sizes) == -(-len(prices) // block)
        assert max(sizes) <= block and max(sizes) - min(sizes) <= 1
        _assert_same_batch(split, whole)

    def test_uneven_split_is_balanced(self, reference_instance):
        prices = generate(Normal(10.0, 2.0), 24 * 7, stream(5)).reshape(7, 24)
        whole = offline_costs(reference_instance, prices, 10)
        split, sizes = _split_costs(reference_instance, prices, 10, None, 3)
        assert sizes == [2, 2, 3]
        _assert_same_batch(split, whole)

    def test_sweep_blocks_are_the_fewest_that_fit(self):
        # the oracle's rows: 24 x 101 values and one price atom
        assert policies.sweep_blocks(107, 24, 101, 1) == [(0, 107)]
        assert policies.sweep_blocks(108, 24, 101, 1) == [(0, 54), (54, 108)]
        # the DP's rows on the lattice 0, 1, ..., 5: 24 x 6 values and 51 atoms
        assert policies.sweep_blocks(400, 24, 6, 51) == [(0, 400)]
        assert policies.sweep_blocks(401, 24, 6, 51) == [(0, 200), (200, 401)]
        assert policies.sweep_blocks(3, 24, 10**6, 1) == [(0, 1), (1, 2), (2, 3)]
        assert policies.sweep_blocks(0, 24, 101, 1) == []

    def test_no_rows_give_empty_rows(self):
        instance = Instance.constant(4, 1.0, StorageSpec(2.0))
        for realized in (None, np.zeros((0, 4))):
            batch = offline_costs(instance, np.zeros((0, 4)), 10, realized_demand=realized)
            assert batch.prices.shape == batch.purchases.shape == batch.clamped.shape == (0, 4)
            assert batch.levels.shape == (0, 5)
            assert batch.total_cost.shape == (0,)

    def test_rows_cross_a_default_block(self, reference_instance):
        rows = 120  # 107 rows of 24 x 101 values fit in SWEEP_BYTES
        assert len(policies.sweep_blocks(rows, 24, 101, 1)) == 2
        prices = generate(Normal(10.0, 2.0), 24 * rows, stream(17)).reshape(rows, 24)
        batch = offline_costs(reference_instance, prices, 100)
        refs = [reference_offline_optimal(reference_instance, p, 100) for p in prices]
        _assert_rows_match(batch, refs)

    def test_memory_stays_bounded(self, reference_instance):
        # the value cube is one block's, not E rows'; the (E, T) results stay small
        prices = generate(Normal(10.0, 2.0), 24 * 1024, stream(23)).reshape(1024, 24)
        tracemalloc.start()
        try:
            offline_costs(reference_instance, prices, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * policies.SWEEP_BYTES


def _sweep_bytes(instance, width, atoms, rows):
    """A ``SWEEP_BYTES`` that fits ``rows`` rows of a sweep over ``width`` levels and ``atoms``."""
    return rows * 8 * (instance.horizon * width + policies.STEP_ARRAYS * atoms)


def _split_costs(instance, prices, grid_size, realized, block):
    """``offline_costs`` with a byte budget of ``block`` value rows, and its block sizes."""
    sizes = []

    def recording(instance, prices, rule, realized_demand=None):
        sizes.append(len(prices))
        return simulate_batch(instance, prices, rule, realized_demand=realized_demand)

    with pytest.MonkeyPatch.context() as mp:
        width = storage_grid(instance.storage.capacity, grid_size).size
        mp.setattr(policies, "SWEEP_BYTES", _sweep_bytes(instance, width, 1, block))
        mp.setattr(metrics, "simulate_batch", recording)
        split = offline_costs(instance, prices, grid_size, realized_demand=realized)
    return split, sizes


def _assert_same_batch(got, want):
    for name in ("prices", "purchases", "levels", "total_cost", "clamped"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


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
        dp = DpPolicy(build_value_table(inst, Normal(10.0, 2.0), 5))
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
