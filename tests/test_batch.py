"""The batched engine against the scalar references, bit for bit.

``simulate_batch``, ``decide_batch``, ``interp_bracket`` and ``offline_costs``
are the only engine, so every row they return must carry the same bits as
``np.interp`` and the per-slot references kept in ``conftest.py``
(``reference_simulate``, ``reference_base_stock_purchase``,
``reference_offline_optimal``).  Comparisons use ``.tobytes()``, so a -0.0
in place of 0.0 shows.  The DP value table is the one stated exception:
its base-stock step matches ``reference_value_rows`` within ``VALUE_RTOL``.
"""

import math
import re
import tracemalloc
from unittest import mock

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
from storelab.metrics import hindsight_indices, offline_costs, oracle_row_floats
from storelab.model import TrajectoryBatch, feasible_purchase_ranges, simulate_batch
from storelab.policies import (
    AtomSums, SlotGeometry, ValueTable, backward_step, base_stock_index, base_stock_ranks,
    breakpoint_lattice, interp_bracket, quantile_atoms, storage_grid,
)
from storelab.seeds import stream

from conftest import (
    ReferenceAdaptive,
    fits_of,
    hindsight_table,
    reference_backward_step,
    reference_candidate_step,
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


class TestInterpBracket:
    @given(
        st.sampled_from((0.0, 1.0, 2.5, 5.0, 0.7)), st.integers(1, 30), st.integers(1, 4),
        st.integers(1, 5), st.booleans(), st.sampled_from((0.5, 1.0)),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_np_interp(self, capacity, grid_size, rows, points, shared, on_share, seed):
        # values are level-major, (W, rows); a shared bracket reads the same
        # points in every column, a per-row one column e's own points.  An
        # on_share of 1.0 puts every point on the grid: values_at's one-take path
        rng = np.random.default_rng(seed)
        grid = storage_grid(capacity, grid_size)
        fp = np.round(rng.uniform(-50.0, 50.0, (grid.size, rows)), 1)
        fp[rng.random(fp.shape) < 0.2] = -0.0
        on_grid = grid[rng.integers(0, grid.size, (points, rows))]
        off_grid = rng.uniform(0.0, capacity, (points, rows))
        x = np.where(rng.random((points, rows)) < on_share, on_grid, off_grid)
        if shared:
            x = x[:, 0]
            bracket = interp_bracket(x, grid, False)
            assert bracket.values_at(fp[:, 0]).tobytes() == np.interp(x, grid, fp[:, 0]).tobytes()
        else:
            bracket = interp_bracket(x, grid, True)
        got = bracket.values_at(fp)
        for e in range(rows):
            want = np.interp(x if shared else x[:, e], grid, fp[:, e])
            assert got[:, e].tobytes() == want.tobytes()


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

    @given(batch_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_per_row_budgeted_rows_match_scalar_policies(self, case, data):
        # one threshold and one fill target per row: row e is the scalar policy
        # of its own values, with and without a realized demand
        instance, prices, realized = case
        E = len(prices)
        thetas = data.draw(st.lists(st.floats(0.1, 20.0), min_size=E, max_size=E))
        fills = data.draw(st.lists(
            st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 1.0), min_size=E, max_size=E,
        ))
        fills = [f * instance.storage.capacity for f in fills]
        policy = ThresholdPolicy(np.array(thetas), fill_target=np.array(fills))
        for demand in [None] if realized is None else [None, realized]:
            batch = simulate_batch(instance, prices, policy, realized_demand=demand)
            for e in range(E):
                row = simulate_batch(
                    instance, prices[e:e + 1], ThresholdPolicy(thetas[e], fill_target=fills[e]),
                    realized_demand=None if demand is None else demand[e:e + 1],
                )
                for name in ("prices", "purchases", "levels", "total_cost", "clamped"):
                    assert getattr(batch, name)[e].tobytes() == getattr(row, name)[0].tobytes()

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


def _warmup_error(warmups, **kw):
    """The error ``estimate`` raises on the first warmup that gives no estimate, or None."""
    for warmup in warmups:
        try:
            estimate(warmup, **kw)
        except EstimationError as exc:
            return exc
    return None


class TestAdaptiveBatch:
    @given(batch_cases(min_rows=2), st.data())
    @settings(max_examples=150, deadline=None)
    def test_rows_of_several_warmups_match_one_policy_per_warmup(self, case, data):
        instance, prices, realized = case
        E, T = prices.shape
        if data.draw(st.booleans(), label="dp"):
            family = DpFamily(instance, data.draw(st.integers(1, 7)))
        else:
            family = ThresholdFamily()
        stride = data.draw(st.one_of(st.none(), st.integers(1, T)), label="stride")
        # warmups of several sizes; a small block bound splits one warmup's
        # rows, and one size's rows, over several ``estimate_rows`` calls
        block_floats = data.draw(st.sampled_from((1, 8, 16, 1 << 15)), label="block_floats")
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
        kw = dict(conservative=data.draw(st.booleans(), label="conservative"),
                  clamp_nonpositive_lower=data.draw(st.booleans(), label="clamp"))
        error = _warmup_error(warmups, **kw)
        if error is not None:
            # a warmup without an estimate raises the error estimate raises on it
            with pytest.raises(type(error), match=re.escape(str(error))):
                AdaptivePolicy(family, warmups, rows, stride, **kw)
            return
        # unclamped, the wide price rows make some refreshes fail and not others
        with mock.patch.object(policies, "BLOCK_FLOATS", block_floats):
            _rows_match_one_policy_per_warmup(
                instance, prices, realized, family, warmups, rows, stride, **kw
            )
            # and each row is the one-row estimate's per-slot schedule
            _adaptive_rows_match(instance, prices, realized,
                                 AdaptivePolicy(family, warmups, rows, stride, **kw))

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
        # no rows: nothing to estimate at any refresh
        none = AdaptivePolicy(ThresholdFamily(), warmups, [], 1)
        assert simulate_batch(inst, np.empty((0, 3)), none).total_cost.shape == (0,)

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
            def __init__(self, fits) -> None:
                self.fits = fits

            def decide_batch(self, t, levels, prices, instance):
                served.append((t, self.fits.mean.size, levels.size))
                return np.zeros(levels.shape)

        def family(fits, first_slot):
            built.append((first_slot, fits.mean.tolist()))
            return BuyNothing(fits)

        inst = Instance.constant(3, 1.0, StorageSpec(1.0))
        adaptive = AdaptivePolicy(family, [[10.0, 10.5]], [0, 0], 1)
        simulate_batch(inst, np.array([[10.0, 11.0, 9.0], [10.0, 12.0, 9.0]]), adaptive)

        def mean(*history):
            return estimate([10.0, 10.5, *history]).mean

        # the base policy is built from one fit per row, both the warmup's;
        # each refresh fits each row's grown history
        assert built == [
            (0, [mean()] * 2),
            (1, [mean(10.0)] * 2),
            (2, [mean(10.0, 11.0), mean(10.0, 12.0)]),
        ]
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
# candidate scan of ``reference_candidate_step``; the largest difference
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


def _assert_steps_match_reference(instance, models, count):
    """Every slot of the stacked table, stepped again, against ``reference_backward_step``.

    J, its flat index and ``at`` must match as integers, and the new rows
    bit for bit, both the step's and the table's own.
    """
    table = build_value_tables(instance, models, count)
    grid, capacity = table.grid, instance.storage.capacity
    atoms = AtomSums([quantile_atoms(model, count) for model in models], grid.size)
    rows = np.arange(len(models))[:, None]
    for t in range(instance.horizon):
        geometry = SlotGeometry(grid, capacity, instance.demand[t])
        v_next = table.values[t + 1]
        ref, ref_best, ref_at = reference_backward_step(geometry, v_next, atoms)
        best, flat, at = base_stock_ranks(geometry, v_next, atoms)
        assert best.tolist() == ref_best.tolist()
        assert flat.tolist() == (ref_best + grid.size * rows).tolist()
        assert at.tolist() == ref_at.tolist()
        assert backward_step(geometry, v_next, atoms).tobytes() == ref.tobytes()
        assert table.values[t].tobytes() == ref.tobytes()


class TestBackwardStep:
    """The whole-array step against the row-by-row ``reference_backward_step``.

    ``test_rows_equal_one_model_tables`` compares stacked rows with tables
    built by the same step, so only a reference of its own catches an
    off-by-one that both would share.
    """

    @given(table_cases(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_steps_match_the_row_by_row_reference(self, case, data):
        instance, atoms = case
        rows = _more_atom_rows(data, atoms)
        _assert_steps_match_reference(instance, [_Atoms(row) for row in rows], len(atoms))

    @pytest.mark.parametrize("rows", [1, 8, 64])
    @pytest.mark.parametrize("lattice", ["bench", "vector"])
    def test_rows_match_the_reference(self, reference_instance, rows, lattice):
        count = 51
        instance = reference_instance
        if lattice == "vector":  # window sums of U(0.2, 2) demand: more levels than atoms
            count = 5
            demand = np.random.default_rng(11).uniform(0.2, 2.0, 10)
            instance = Instance(10, demand, StorageSpec(4.0, 1.0))
            width = breakpoint_lattice(4.0, demand).size
            assert width > 4 * count
        models = [Normal(8.0 + 0.25 * e, 1.0 + 0.02 * e) for e in range(rows)]
        _assert_steps_match_reference(instance, models, count)

    @given(
        st.sampled_from((0.0, 1.0, 2.5, 5.0)) | st.floats(0.05, 6.0, allow_subnormal=False),
        st.sampled_from(("lattice", "uniform")),
        st.lists(st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.5, 10.0)) | st.floats(0.0, 7.0),
                 min_size=1, max_size=6),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_lo_index_is_the_left_search_of_s_lo(self, capacity, kind, demands, per_row):
        # L comes from the interpolation bracket's right-side search; it must
        # be the first grid index at or above s_lo, on grid points (s_lo = 0
        # and s_lo = C among them) and off them, on one-point grids too
        if kind == "lattice":
            grid = breakpoint_lattice(capacity, demands)
        else:
            grid = storage_grid(capacity, 4 * len(demands))
        demand = np.array(demands) if per_row else demands[0]
        geometry = SlotGeometry(grid, capacity, demand)
        want = np.searchsorted(grid, geometry.s_lo, side="left")
        if per_row:  # L read flat from level-major (W, E) rows: L x E + column
            assert geometry.s_lo.shape == (grid.size, len(demands))
            want = want * len(demands) + np.arange(len(demands))
        assert geometry.lo_index.shape == want.shape
        assert geometry.lo_index.tolist() == want.tolist()

    @pytest.mark.parametrize("capacity, demand, s_lo, lo_index", [
        (3.0, 0.0, [0.0, 1.0, 2.0, 3.0], [0, 1, 2, 3]),  # every level on a grid point, C too
        (3.0, 1.0, [0.0, 0.0, 1.0, 2.0], [0, 0, 1, 2]),
        (3.0, 0.5, [0.0, 0.5, 1.5, 2.5], [0, 1, 2, 3]),  # off the grid: the point above
        (3.0, 9.0, [0.0, 0.0, 0.0, 0.0], [0, 0, 0, 0]),  # all at 0
    ])
    def test_lo_index_on_and_off_grid_points(self, capacity, demand, s_lo, lo_index):
        grid = np.array([0.0, 1.0, 2.0, 3.0])
        geometry = SlotGeometry(grid, capacity, demand)
        assert geometry.s_lo.tolist() == s_lo
        assert geometry.lo_index.tolist() == lo_index
        rows = SlotGeometry(grid, capacity, np.array([demand, 0.0]))  # per-row geometry
        assert rows.s_lo.T.tolist() == [s_lo, [0.0, 1.0, 2.0, 3.0]]
        # level-major, read flat: L x 2 + column
        assert rows.lo_index.T.tolist() == [[2 * j for j in lo_index], [1, 3, 5, 7]]

    def test_lo_index_of_a_zero_capacity_store(self):
        assert SlotGeometry(np.zeros(1), 0.0, 1.0).lo_index.tolist() == [0]
        # per row, each column reads its own one level
        assert SlotGeometry(np.zeros(1), 0.0, np.array([0.0, 2.0])).lo_index.tolist() == [[0, 1]]

    def test_an_atom_on_minus_a_slope_counts_only_the_slopes_below(self):
        # levels 0..3 and d = 1, so L = 0, 0, 1, 2; slopes -5, -3, -1 and -3, -2, -1
        grid = np.array([0.0, 1.0, 2.0, 3.0])
        geometry = SlotGeometry(grid, 3.0, 1.0)
        assert geometry.lo_index.tolist() == [0, 0, 1, 2]
        v_next = np.array([[9.0, 4.0, 1.0, 0.0], [6.0, 3.0, 1.0, 0.0]])
        atoms = AtomSums([[5.0, 3.0, 1.0, 3.0], [3.0, 5.0, 2.0, 3.0]], grid.size)
        best, flat, at = base_stock_ranks(geometry, v_next, atoms)
        # J counts the slopes strictly below -p: an atom of 3 passes the slope -3
        assert best.tolist() == [[2, 1, 1, 0], [1, 0, 0, 0]]
        assert flat.tolist() == [[2, 1, 1, 0], [5, 4, 4, 4]]
        # m = #(J >= L) per level, at row e's sums from (K + 1) e = 5 e
        assert at.tolist() == [[4, 4, 3, 1], [9, 9, 6, 5]]
        ref, ref_best, ref_at = reference_backward_step(geometry, v_next, atoms)
        assert (ref_best.tolist(), ref_at.tolist()) == (best.tolist(), at.tolist())
        assert backward_step(geometry, v_next, atoms).tobytes() == ref.tobytes()


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
        # 402 rows of (24 + 8) x 6 values and temporaries and 9 x 51 atom floats fit
        rows = 440
        row_floats = (24 + policies.STEP_LEVELS) * 6 + policies.STEP_ARRAYS * 51
        assert policies.sweep_blocks(rows, row_floats) == [(0, 220), (220, 440)]
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

    def test_a_wide_lattice_block_fits_its_budget(self, monkeypatch):
        # U(0.2, 2) vector demand puts 302 levels on the lattice, many more than
        # the 51 atoms, so a step's (rows, W) temporaries outweigh its atom
        # arrays.  A block's value rows and all it holds beside the table must
        # fit SWEEP_BYTES; counting T x W values and the atoms alone, 34 rows
        # fill a block and overshoot it by about a fifth.
        demand = np.random.default_rng(0).uniform(0.2, 2.0, 24)
        instance = Instance(24, demand, StorageSpec(30.0))
        width = breakpoint_lattice(30.0, demand).size
        assert width == 302
        blocks = []

        def recording(atoms, levels):
            blocks.append(len(atoms))
            return AtomSums(atoms, levels)

        monkeypatch.setattr(policies, "AtomSums", recording)
        models = [Normal(8.0 + 0.01 * e, 2.0) for e in range(68)]
        build_value_tables(instance, models[:2], 51)  # first-call caches out of the peak
        blocks.clear()
        tracemalloc.start()
        try:
            table = build_value_tables(instance, models, 51)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_values = max(blocks) * 8 * instance.horizon * width
        assert peak - table.values.nbytes + block_values <= policies.SWEEP_BYTES

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
        before = family(fits_of(*old), first).table.values
        after = family(fits_of(*new), later).table.values
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

    def test_row_map_takes_each_value_row_with_its_demand(self):
        # a table whose rows plan for their own demands, served through a row map
        inst = Instance.constant(3, 1.0, StorageSpec(2.0))
        grid = storage_grid(2.0, 8)
        prices = np.array([[9.0, 12.0, 10.0], [11.0, 8.0, 10.0]])
        demand = np.array([[1.0, 0.5, 1.5], [0.25, 1.0, 0.75]])
        table = hindsight_table(inst, prices, grid, demand)
        rows = np.array([1, 0, 1])
        levels, observed = np.array([0.5, 1.0, 2.0]), np.array([9.0, 10.0, 11.0])
        q = DpPolicy(table, rows).decide_batch(0, levels, observed, inst)
        for e, r in enumerate(rows):
            alone = DpPolicy(ValueTable(grid, table.values[:, r], demand[r]))
            assert q[e] == alone.decide(0, levels[e], observed[e], inst)

    def test_dp_family_builds_one_row_per_distinct_model(self):
        inst = Instance.constant(4, 1.0, StorageSpec(2.0))
        a = estimate([10.0, 10.5, 9.5, 10.2], clamp_nonpositive_lower=True)
        b = estimate([12.0, 11.0, 12.5], clamp_nonpositive_lower=True)
        a_again = estimate([10.0, 10.5, 9.5, 10.2], clamp_nonpositive_lower=True)
        family = DpFamily(inst, 7)
        policy = family(fits_of(a, b, a_again, b, a), 1)
        # equal fitted models share a table row, whichever report object they come from
        assert policy.table.values.shape[1] == 2
        assert policy.rows.tolist() == [0, 1, 0, 1, 0]
        levels = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        prices = np.array([9.0, 10.0, 11.0, 12.0, 10.5])
        q = policy.decide_batch(1, levels, prices, inst)
        for e, report in enumerate([a, b, a, b, a]):
            alone = family(fits_of(report), 1)
            assert q[e] == alone.decide(1, levels[e], prices[e], inst)
        # every policy maps its rows, to one row or to as many rows as models
        assert family(fits_of(a, a_again), 0).rows.tolist() == [0, 0]
        assert family(fits_of(a, b), 0).rows.tolist() == [0, 1]


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
        # level-major: column e holds row e's values
        got = geometry.min_costs(np.ascontiguousarray(v_next.T), prices[:, 0])
        assert got.shape == (grid.size, len(prices))
        demand = np.broadcast_to(demand, (len(prices),))
        for e in range(len(prices)):
            ref = reference_candidate_step(grid, v_next[e], float(demand[e]), spec,
                                          np.asarray([prices[e, 0]]), np.ones(1))
            assert got[:, e].tobytes() == ref.tobytes()

    @given(batch_cases(), st.integers(1, 25), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_indices_are_the_reference_tables_counts(self, case, grid_size, clamped):
        # J[t, e] is the count of values[t + 1] slopes below -p that DpPolicy
        # makes on the reference table.  Clamped prices sit at whole values,
        # where slopes of a grid of quarter steps tie with minus the price
        instance, prices, realized = case
        if clamped:
            prices = np.maximum(np.round(prices), 4.0)
        grid = storage_grid(instance.storage.capacity, grid_size)
        plan = instance.demand if realized is None else realized
        best = hindsight_indices(instance, prices, grid, plan)
        table = hindsight_table(instance, prices, grid, plan)
        assert best.shape == (instance.horizon, len(prices))
        for t in range(instance.horizon):
            for e in range(len(prices)):
                g, v = grid.tolist(), table.values[t + 1, e].tolist()
                slopes = [(v[i + 1] - v[i]) / (g[i + 1] - g[i]) for i in range(len(g) - 1)]
                assert best[t, e] == sum(slope < -prices[e, t] for slope in slopes)
            got = base_stock_index(grid, table.values[t + 1].T, prices[:, t])
            assert got.tolist() == best[t].tolist()

    @given(batch_cases(), st.integers(2, 25))
    @settings(max_examples=150, deadline=None)
    def test_rows_match_reference_oracle(self, case, grid_size):
        instance, prices, realized = case
        costs, blocks = _oracle_blocks(instance, prices, grid_size, realized)
        refs = []
        for e in range(len(prices)):
            demand = instance.demand if realized is None else realized[e]
            oracle_instance = Instance(instance.horizon, demand, instance.storage)
            refs.append(reference_offline_optimal(oracle_instance, prices[e], grid_size))
        batch = _joined(blocks)
        _assert_rows_match(batch, refs)
        assert costs.shape == (len(prices),) and not costs.flags.writeable
        assert costs.tobytes() == batch.total_cost.tobytes()

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
        whole, whole_blocks = _oracle_blocks(instance, prices, 10, realized)
        split, split_blocks = _oracle_blocks(instance, prices, 10, realized, block)
        sizes = [len(b.total_cost) for b in split_blocks]
        # the fewest blocks of at most ``block`` rows, balanced to within one row
        assert sum(sizes) == len(prices)
        assert len(sizes) == -(-len(prices) // block)
        assert max(sizes) <= block and max(sizes) - min(sizes) <= 1
        _assert_same_batch(_joined(split_blocks), _joined(whole_blocks))
        assert split.tobytes() == whole.tobytes()

    def test_uneven_split_is_balanced(self, reference_instance):
        prices = generate(Normal(10.0, 2.0), 24 * 7, stream(5)).reshape(7, 24)
        whole, whole_blocks = _oracle_blocks(reference_instance, prices, 10, None)
        split, split_blocks = _oracle_blocks(reference_instance, prices, 10, None, 3)
        assert [len(b.total_cost) for b in split_blocks] == [2, 2, 3]
        _assert_same_batch(_joined(split_blocks), _joined(whole_blocks))
        assert split.tobytes() == whole.tobytes()

    def test_sweep_blocks_are_the_fewest_that_fit(self):
        # the oracle's rows at T = 24, G = 100: 8 x 101 level floats and 5 x 24
        # slot floats a row, and 10 x 101 more per row under a realized demand
        shared, per_row = oracle_row_floats(24, 101, False), oracle_row_floats(24, 101, True)
        assert (shared, per_row) == (928, 1938)
        assert policies.sweep_blocks(282, shared) == [(0, 282)]
        assert policies.sweep_blocks(283, shared) == [(0, 141), (141, 283)]
        assert policies.sweep_blocks(135, per_row) == [(0, 135)]
        assert policies.sweep_blocks(136, per_row) == [(0, 68), (68, 136)]
        # the DP's rows on the lattice 0, 1, ..., 5: (24 + 8) x 6 values and
        # temporaries, and 9 x 51 atom floats
        dp = (24 + policies.STEP_LEVELS) * 6 + policies.STEP_ARRAYS * 51
        assert policies.sweep_blocks(402, dp) == [(0, 402)]
        assert policies.sweep_blocks(403, dp) == [(0, 201), (201, 403)]
        assert policies.sweep_blocks(3, 10**6) == [(0, 1), (1, 2), (2, 3)]
        assert policies.sweep_blocks(0, shared) == []

    def test_no_rows_give_empty_rows(self):
        instance = Instance.constant(4, 1.0, StorageSpec(2.0))
        grid = storage_grid(2.0, 10)
        for realized in (None, np.zeros((0, 4))):
            costs = offline_costs(instance, np.zeros((0, 4)), 10, realized_demand=realized)
            assert costs.shape == (0,) and costs.dtype == float and not costs.flags.writeable
            # the sweep and its greedy pass themselves turn no rows into empty rows
            plan = instance.demand if realized is None else realized
            best = hindsight_indices(instance, np.zeros((0, 4)), grid, plan)
            assert best.shape == (4, 0)
            rule = metrics._HindsightRule(grid, best, plan)
            batch = simulate_batch(instance, np.zeros((0, 4)), rule, realized)
            assert batch.prices.shape == batch.purchases.shape == batch.clamped.shape == (0, 4)
            assert batch.levels.shape == (0, 5)
            assert batch.total_cost.shape == (0,)

    def test_rows_cross_a_default_block(self, reference_instance):
        rows = 300  # 282 rows of the oracle fit in SWEEP_BYTES at T = 24, G = 100
        assert len(policies.sweep_blocks(rows, oracle_row_floats(24, 101, False))) == 2
        prices = generate(Normal(10.0, 2.0), 24 * rows, stream(17)).reshape(rows, 24)
        costs, blocks = _oracle_blocks(reference_instance, prices, 100, None)
        assert len(blocks) == 2
        refs = [reference_offline_optimal(reference_instance, p, 100) for p in prices]
        _assert_rows_match(_joined(blocks), refs)
        assert costs.tobytes() == _joined(blocks).total_cost.tobytes()

    def test_a_violation_chunk_is_one_sweep(self, monkeypatch, reference_instance):
        # a violation chunk's 150 distinct rows at T = 24, G = 100 fit one
        # block; a (T+1, E, G+1) value cube would fill SWEEP_BYTES at 107 rows
        sweeps = []

        def counting(instance, prices, grid, demand):
            sweeps.append(prices.shape[0])
            return hindsight_indices(instance, prices, grid, demand)

        monkeypatch.setattr(metrics, "hindsight_indices", counting)
        prices = generate(Normal(10.0, 2.0), 24 * 150, stream(19)).reshape(150, 24)
        offline_costs(reference_instance, prices, 100)
        assert sweeps == [150]

    def test_memory_stays_bounded(self, reference_instance):
        # the value cube is one block's, not E rows'; the result is E costs
        prices = generate(Normal(10.0, 2.0), 24 * 1024, stream(23)).reshape(1024, 24)
        tracemalloc.start()
        try:
            offline_costs(reference_instance, prices, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * policies.SWEEP_BYTES


def _sweep_bytes(instance, width, atoms, rows):
    """A ``SWEEP_BYTES`` that fits ``rows`` rows of a DP sweep over ``width`` levels and ``atoms``."""
    row_floats = (instance.horizon + policies.STEP_LEVELS) * width
    return rows * 8 * (row_floats + policies.STEP_ARRAYS * atoms)


def _oracle_blocks(instance, prices, grid_size, realized, block=None):
    """``offline_costs`` and the trajectories of its blocks' greedy passes, in order.

    ``block``, if given, is a byte budget of that many oracle rows.
    """
    blocks = []

    def recording(instance, prices, rule, realized_demand=None):
        blocks.append(simulate_batch(instance, prices, rule, realized_demand=realized_demand))
        return blocks[-1]

    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            width = storage_grid(instance.storage.capacity, grid_size).size
            row_floats = oracle_row_floats(instance.horizon, width, realized is not None)
            mp.setattr(policies, "SWEEP_BYTES", block * 8 * row_floats)
        mp.setattr(metrics, "simulate_batch", recording)
        costs = offline_costs(instance, prices, grid_size, realized_demand=realized)
    return costs, blocks


def _joined(blocks):
    """One TrajectoryBatch of the rows of ``blocks``, in order."""
    return TrajectoryBatch(**{
        name: np.concatenate([getattr(b, name) for b in blocks])
        for name in ("prices", "purchases", "levels", "total_cost", "clamped")
    })


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
