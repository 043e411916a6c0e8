"""Control policies: threshold rules, expected-cost DP, and adaptive re-estimation.

The threshold policy buys and fills the store whenever the price is at or
below its threshold (the boundary price counts as cheap) and serves from
storage otherwise.  The DP policy minimizes expected cost by backward
induction on the instance's ``breakpoint_lattice``, the storage levels
where a value row can bend, integrating the price with equal-weight
quantile-midpoint atoms, and acts on the observed price each slot.  Each
value row is convex and linear between the lattice points, so the table
is exact for its atoms, and each backward step moves every atom to its
base-stock level, the lattice point where the row's slope reaches minus
the atom, and sums over the sorted atoms.  A step reads a
``SlotGeometry``, the part of the step fixed by the grid, the capacity and
the slot's demand; a sweep builds a new one only where the demand changes
from one slot to the next, and the hindsight oracle in ``metrics`` steps
through the same one, on its own ``storage_grid``, by
``SlotGeometry.min_costs``.  Both sweeps split their rows by
``sweep_blocks``.  The DP step is row-wise: one sweep builds a stacked
table, one value row per price model, and every row equals its model's
own table bit for bit.

A policy family maps a list of estimate reports and a first slot to one
policy that serves one batch row per report; the DP family gives equal
fitted models one table row.  The adaptive policy serves rows that each
start from one of its warmups, named by a row map fixed when it is built,
keeps a report per row, and rebuilds every row with one family call per
refresh slot.

Each policy implements one rule, ``decide_batch``, which ``simulate_batch``
drives with one level and one price per row; ``decide`` is its one-row
case, and ``argmin_purchase`` the one-row ``argmin_purchases``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import special
from .estimation import EstimateReport, EstimationError, estimate
from .model import (
    ENERGY_TOL,
    Instance,
    StorageSpec,
    feasible_purchase_range,  # noqa: F401  (a name bench/tracer.py wraps)
    feasible_purchase_ranges,
    max_first,
    min_first,
)
from .prices import Normal, as_series


class Policy:
    """Purchase rule driven by the simulation engine, one slot at a time.

    ``decide_batch`` maps (slot, storage levels, observed prices, instance)
    to one purchase per row; the engine clamps each into its feasible
    range.  ``decide`` is the one-row case.
    """

    policy_id = "policy"

    def decide(self, t: int, level: float, price: float, instance: Instance) -> float:
        q = self.decide_batch(t, np.array([float(level)]), np.array([float(price)]), instance)
        return float(q[0])

    def decide_batch(
        self, t: int, levels: np.ndarray, prices: np.ndarray, instance: Instance
    ) -> np.ndarray:
        raise NotImplementedError


class ThresholdPolicy(Policy):
    """Fill the store at cheap prices, drain it at expensive ones.

    At a price <= threshold the policy buys the demand plus whatever tops
    the store up to ``fill_target`` (the full capacity by default); above
    the threshold it moves toward an empty store, buying only what the
    store cannot cover.  ``threshold`` may also be one value per row.
    """

    def __init__(self, threshold, fill_target: float | None = None,
                 policy_id: str = "threshold") -> None:
        values = np.asarray(threshold, dtype=float)
        if values.ndim > 1 or not (np.all(values > 0) and np.all(np.isfinite(values))):
            raise ValueError(f"threshold must be finite and > 0, got {threshold}")
        if fill_target is not None and not (0.0 <= fill_target < math.inf):
            raise ValueError(f"fill target must be finite and >= 0, got {fill_target}")
        self.threshold = float(values) if values.ndim == 0 else values
        self.fill_target = fill_target
        self.policy_id = policy_id

    def _target_full(self, spec: StorageSpec) -> float:
        if self.fill_target is None:
            return spec.capacity
        if self.fill_target > spec.capacity + 1e-9:
            raise ValueError(
                f"fill target {self.fill_target} exceeds capacity {spec.capacity}"
            )
        return self.fill_target

    def decide_batch(self, t, levels, prices, instance):
        spec = instance.storage
        target_full = self._target_full(spec)
        d = instance.demand[t]
        q_lo, q_hi = feasible_purchase_ranges(spec, levels, d)
        target = np.where(prices <= self.threshold, target_full, 0.0)
        want = d + target - levels
        return min_first(max_first(want, q_lo), q_hi)


def linear_budget(threshold: float, upper: float, lower: float, capacity: float) -> float:
    """Fill budget shrinking linearly from full capacity to zero.

    A threshold at the lower price bound keeps the whole capacity, one at
    the upper bound keeps none; in between the budget is
    capacity * (upper - threshold) / (upper - lower), clipped to [0, 1].
    """
    span = upper - lower
    if span <= 0.0:
        frac = 1.0 if threshold <= lower else 0.0
    else:
        frac = min(max((upper - threshold) / span, 0.0), 1.0)
    return capacity * frac


@dataclass(frozen=True, eq=False)
class ValueTable:
    """Expected optimal cost-to-go on a grid of W storage levels.

    values[t, i] is the pre-price expected cost of serving slots t..T-1
    optimally starting from storage grid[i]; values[T] is identically zero.
    A table is (T+1, W); ``build_value_tables`` puts it on the instance's
    ``breakpoint_lattice``.  A stacked table holds one such row per price
    model, values[t, e, i], (T+1, E, W).
    Only slots first_slot..T are built; the slots before it are zero.
    """

    grid: np.ndarray
    values: np.ndarray
    first_slot: int = 0

    @property
    def horizon(self) -> int:
        return self.values.shape[0] - 1


def storage_grid(capacity: float, grid_size: int) -> np.ndarray:
    """The hindsight oracle's equally spaced storage levels; a zero-capacity store is one point."""
    if capacity <= 0.0:
        return np.zeros(1)
    return np.linspace(0.0, capacity, grid_size + 1)


def breakpoint_lattice(capacity: float, demand) -> np.ndarray:
    """The storage levels where a DP value row can bend: 0, C and the demand's window sums below C.

    The value after the last slot is flat.  A backward step at slot t
    reads the next row from the lowest feasible next level max(s - d_t, 0),
    so a row linear between the points B_{t+1} becomes one linear between
    B_t = {d_t + b : b in B_{t+1} or b = 0} within (0, C); the expectation
    over prices keeps those points.  Every row of a table is therefore
    linear between the union of the B_t with 0 and C, and its values there
    are exact for its atoms.  Each B_t is built from B_{t+1}, so equal window sums carry
    equal bits.  A point closer than ``ENERGY_TOL`` to the last one kept
    merges into it, and 0 and C always stay.  A zero-capacity store is the
    one level 0.  The lattice depends on the capacity and demand alone.
    """
    if capacity <= 0.0:
        return np.zeros(1)
    bends, found = set(), set()
    for d in np.asarray(demand, dtype=float)[::-1].tolist():
        bends = {x for x in (d + b for b in (*bends, 0.0)) if 0.0 < x < capacity}
        found |= bends
    levels = [0.0]
    for x in sorted(found):
        if x - levels[-1] >= ENERGY_TOL and capacity - x >= ENERGY_TOL:
            levels.append(x)
    levels.append(float(capacity))
    return np.array(levels)


def _take_rows(x: np.ndarray, n: int, per_row: bool):
    """(index offset, take axis) for indices into value rows of length n.

    With ``per_row``, row e of the (E, m) indices reads row e of (E, n)
    values through the flattened rows; otherwise every index reads one
    shared row, or the same positions of every row.
    """
    if per_row:
        return (n * np.arange(x.shape[0]))[:, None], None
    return 0, -1


class InterpBracket:
    """Where points fall on a grid: the half of ``np.interp`` that no value row changes.

    ``interp_bracket`` builds it once for a set of points; ``values_at``
    evaluates any value rows there.  The indices are ready for ``take``
    along ``axis``.
    """

    __slots__ = ("lo", "hi", "at", "exact", "offset", "width", "axis")

    def __init__(self, lo, hi, at, exact, offset, width, axis) -> None:
        self.lo = lo  # the grid point at or below each point
        self.hi = hi  # the grid point above it
        self.at = at  # the grid point a point lies on, where ``exact``
        self.exact = exact
        self.offset = offset  # point minus grid[lo]
        self.width = width  # grid[hi] - grid[lo]
        self.axis = axis

    def values_at(self, fp: np.ndarray) -> np.ndarray:
        """``np.interp`` of the points on the grid with values ``fp``, bit for bit."""
        y0 = fp.take(self.lo, axis=self.axis)
        out = fp.take(self.hi, axis=self.axis)
        out -= y0
        out /= self.width
        out *= self.offset
        out += y0
        np.copyto(out, fp.take(self.at, axis=self.axis), where=self.exact)
        return out


def interp_bracket(x: np.ndarray, grid: np.ndarray, per_row: bool) -> InterpBracket:
    """Bracket ``x`` on ``grid`` the way numpy's interp does.

    A point on the grid (or beyond its ends) takes the grid value, any
    other the slope times its offset from the grid point below, plus that
    point's value.  With ``per_row``, row e of an (E, m) ``x`` reads row e
    of (E, len(grid)) values; otherwise every point reads one shared row.
    On a one-point grid every point takes that point's value.
    """
    n = grid.size
    rows, axis = _take_rows(x, n, per_row)
    if n == 1:
        point = np.zeros(x.shape, dtype=np.intp) + rows
        ones = np.ones(x.shape)
        return InterpBracket(point, point, point, ones > 0.0, ones, ones, axis)
    x = np.minimum(np.maximum(x, grid[0]), grid[-1])
    j = np.minimum(np.searchsorted(grid, x, side="right"), n - 1) - 1
    x0, x1 = grid[j], grid[j + 1]
    on_hi = x == x1
    lo = j + rows
    return InterpBracket(lo, lo + 1, lo + on_hi, on_hi | (x == x0), x - x0, x1 - x0, axis)


class SlotGeometry:
    """The price-free half of one slot's Bellman step on a grid of W storage levels.

    For the slot's demand d and every grid level s, the lowest feasible
    next level is s_lo = clip(s + max(0, d - min(s, C)) - d, 0, C).  The
    store can always fill to capacity C within a slot, so the feasible
    next levels are [s_lo, C], and a purchase p (d - s) + p s' splits
    into a part fixed by s and a part fixed by s'.  ``lo_index`` is L,
    the first grid index at or above s_lo: the DP's ``backward_step``
    compares it with each atom's base-stock index, and the oracle's
    ``min_costs`` reads the suffix minima there.  ``demand`` is one value,
    which gives (W,) arrays that every price row shares, or one value per
    row (the oracle under a realized demand), which gives (E, W) arrays.
    """

    def __init__(self, grid: np.ndarray, capacity: float, demand) -> None:
        demand = np.asarray(demand, dtype=float)
        d = demand[..., None]
        q_lo = np.maximum(0.0, d - np.minimum(grid, capacity))
        self.grid_reversed = grid[::-1]
        self.s_lo = np.clip(grid + (q_lo - d), 0.0, capacity)
        self.to_serve = d - grid
        self.grid = grid
        self.steps = grid[1:] - grid[:-1]
        per_row = demand.ndim > 0
        self.lo_bracket = interp_bracket(self.s_lo, grid, per_row)
        rows, self.axis = _take_rows(self.s_lo, grid.size, per_row)
        self.lo_index = np.searchsorted(grid, self.s_lo, side="left")
        # s_lo's place in the suffix minima, which run over the reversed next-level axis
        self.suffix_at = rows + (grid.size - 1 - self.lo_index)

    def min_costs(self, v_next: np.ndarray, prices: np.ndarray) -> np.ndarray:
        """The hindsight oracle's Bellman step, row e's price ``prices[e]`` its one atom.

        ``v_next`` is (E, W) and need not be convex: the minimum of
        p s' + V(s') over the grid next levels in [s_lo, C] is a suffix
        minimum, and the exact endpoint s_lo is one more candidate.  The
        final ``+ 0.0`` turns a -0.0 into the 0.0 a one-atom mean gives.
        """
        p = prices[:, None]
        suffix = np.minimum.accumulate(p * self.grid_reversed + v_next[..., ::-1], axis=-1)
        at_lo = p * self.s_lo + self.lo_bracket.values_at(v_next)
        lowest = np.minimum(suffix.take(self.suffix_at, axis=self.axis), at_lo)
        return p * self.to_serve + lowest + 0.0


def slot_sweep(grid, capacity: float, demand: np.ndarray, first_slot: int = 0):
    """Yield (t, geometry) for t = T-1 down to ``first_slot``: a backward sweep's geometries.

    ``demand`` is (T,), shared by every row, or one row per series, (E, T).
    A slot whose demand equals the next slot's reuses that slot's
    ``SlotGeometry``, so the sweep holds one geometry at a time.
    """
    key = geometry = None
    for t in range(demand.shape[-1] - 1, first_slot - 1, -1):
        d = demand[..., t]
        if d.tobytes() != key:
            key, geometry = d.tobytes(), SlotGeometry(grid, capacity, d)
        yield t, geometry


class AtomSums:
    """A stacked DP table's price atoms, each row sorted ascending, and the sums its steps read.

    ``atoms`` is (E, K): K atoms for each of E tables, every atom weighing
    1/K.  ``tail_w[e, m]`` and ``tail_wp[e, m]`` sum the weights, and the
    weights times row e's atoms, of atoms m..K-1; both end in an exact
    0.0, and ``mean`` (``tail_wp[:, :1]``) is each row's mean price.  A
    step reads them flattened: ``row_ends[e]`` is the flat index of row
    e's last sum.  Sorting makes each table independent of the order its
    atoms come in.
    """

    def __init__(self, atoms) -> None:
        self.atoms = np.sort(np.asarray(atoms, dtype=float), axis=-1)
        self.neg_atoms = -self.atoms  # the slope each atom's base-stock level reaches
        rows, count = self.atoms.shape
        self.weight = 1.0 / count
        self.tail_w = _suffix_sums(np.full(self.atoms.shape, self.weight))
        self.tail_wp = _suffix_sums(self.weight * self.atoms)
        self.mean = self.tail_wp[:, :1]
        self.row_ends = [(count + 1) * e + count for e in range(rows)]


def _suffix_sums(x: np.ndarray) -> np.ndarray:
    """Suffix sums along the last axis, with an exact 0.0 appended."""
    out = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
    out[..., :-1] = np.add.accumulate(x[..., ::-1], axis=-1)[..., ::-1]
    return out


def backward_step(geometry: SlotGeometry, v_next: np.ndarray, atoms: AtomSums) -> np.ndarray:
    """One Bellman step of the purchase DP, by the atoms' base-stock levels, row by row.

    ``v_next`` is (E, W), one value row per row of ``atoms``; every row
    plans for the nominal demand, so all share the (W,) ``geometry``, and
    the result is the (E, W) new rows.  Each grid level s pays atom p for
    its purchase, p (d - s) + p s', and moves to the next level s' in
    [s_lo, C] that minimizes p s' + V(s'), V the interpolated value row;
    the new value is the weighted mean over the row's atoms.
    Each value row must be convex (every row this step builds is), so
    p s' + V(s') is convex and its minimum over the grid is at the
    base-stock index J, the first grid point whose right slope of V
    reaches -p.  The slopes are forced non-decreasing to absorb rounding.
    J falls as p rises, so the atoms whose J reaches L, the first grid
    index at or above s_lo, are the m cheapest, and they take grid[J]; the
    rest take the exact endpoint s_lo.  Sums over the sorted atoms give
    every level's value in O(K log G + G log K) per row.  J and m are
    integer ranks found row by row and the rest is element-wise, so each
    row carries the bits a one-row step gives it.
    """
    slopes = v_next[:, 1:] - v_next[:, :-1]
    np.divide(slopes, geometry.steps, out=slopes)
    np.maximum.accumulate(slopes, axis=-1, out=slopes)
    best = np.empty(atoms.atoms.shape, dtype=np.intp)  # J, non-increasing along each row
    terms = np.empty(atoms.atoms.shape)
    at = np.empty(v_next.shape, dtype=np.intp)  # per level, the flat index of row e's sums at m
    for e, row_end in enumerate(atoms.row_ends):
        j = slopes[e].searchsorted(atoms.neg_atoms[e])
        best[e] = j
        terms[e] = v_next[e].take(j)
        # m, the atoms whose J reaches L, is K less the atoms whose J falls short of it
        at[e] = row_end - j[::-1].searchsorted(geometry.lo_index)
    terms += atoms.atoms * geometry.grid[best]
    terms *= atoms.weight
    head = np.zeros(atoms.tail_wp.shape)
    np.add.accumulate(terms, axis=-1, out=head[:, 1:])
    out = atoms.mean * geometry.to_serve
    out += head.take(at)
    out += geometry.s_lo * atoms.tail_wp.take(at)
    at_lo = geometry.lo_bracket.values_at(v_next)
    at_lo *= atoms.tail_w.take(at)
    out += at_lo
    return out


def _midpoint_probs(count: int) -> np.ndarray:
    return (np.arange(count) + 0.5) / count


@lru_cache(maxsize=None)
def _standard_normal_atoms(count: int) -> np.ndarray:
    """Read-only standard-normal quantiles at the ``count`` midpoints."""
    z = np.asarray([special.normal_quantile(float(p)) for p in _midpoint_probs(count)])
    z.flags.writeable = False
    return z


def quantile_atoms(model, count: int) -> np.ndarray:
    """Equal-weight quantile-midpoint price atoms: quantiles (j - 0.5) / count.

    A ``Normal`` model's atoms are ``mu + sigma * z`` over the cached
    standard-normal midpoints, the same arithmetic as ``Normal.quantile``.
    """
    if count < 1:
        raise ValueError(f"need at least one atom, got {count}")
    if isinstance(model, Normal):
        return model.mu + model.sigma * _standard_normal_atoms(count)
    return np.asarray([model.quantile(float(p)) for p in _midpoint_probs(count)], dtype=float)


SWEEP_BYTES = 1 << 21  # bytes of one block of a backward sweep's rows
STEP_ARRAYS = 10  # (rows, K) float arrays a DP step's atom sums and temporaries hold at once


def sweep_blocks(rows: int, horizon: int, width: int, atoms: int) -> list[tuple[int, int]]:
    """(start, stop) of the fewest equal blocks of rows that fit ``SWEEP_BYTES``.

    A row costs its value floats, ``horizon`` x ``width``, and the
    ``STEP_ARRAYS`` rows of ``atoms`` floats that a DP step holds per table
    row (the oracle's one price per row is one atom).  The edges are
    ``np.linspace``'s, as ``experiments._map_chunks`` splits episodes; a row
    too big for ``SWEEP_BYTES`` is a block alone.
    """
    fit = max(1, SWEEP_BYTES // (8 * (horizon * width + STEP_ARRAYS * atoms)))
    edges = np.linspace(0, rows, -(-rows // fit) + 1).astype(int).tolist()
    return list(zip(edges[:-1], edges[1:]))


def build_value_tables(
    instance: Instance, models, atom_count: int = 51, first_slot: int = 0,
) -> ValueTable:
    """Backward induction over the horizon for several price models at once.

    Returns a stacked table on the instance's ``breakpoint_lattice`` of W
    levels, values of shape (T+1, E, W) with row e for ``models[e]``: one
    row-wise ``backward_step`` per slot, from atoms sorted once per table,
    so the order a model gives its atoms in does not change a bit, and
    each row equals ``build_value_table`` for its own model bit for bit.
    Rows go through in ``sweep_blocks``, each its own sweep, and a row's
    bits do not depend on its block.  Only slots first_slot..T-1 are
    stepped.  values[t] depends on values[t + 1] alone, and the lattice on
    the instance alone, so those slots equal a full build bit for bit.
    """
    T = instance.horizon
    if not (0 <= first_slot <= T):
        raise ValueError(f"first slot must lie in [0, {T}], got {first_slot}")
    capacity = instance.storage.capacity
    grid = breakpoint_lattice(capacity, instance.demand)
    values = np.zeros((T + 1, len(models), grid.size))
    for start, stop in sweep_blocks(len(models), T, grid.size, atom_count):
        atoms = AtomSums([quantile_atoms(model, atom_count) for model in models[start:stop]])
        rows = values[:, start:stop]
        for t, geometry in slot_sweep(grid, capacity, instance.demand, first_slot):
            rows[t] = backward_step(geometry, rows[t + 1], atoms)
    grid.flags.writeable = False
    values.flags.writeable = False
    return ValueTable(grid=grid, values=values, first_slot=first_slot)


def build_value_table(
    instance: Instance, model, atom_count: int = 51, first_slot: int = 0,
) -> ValueTable:
    """The one-model ``build_value_tables``: values of shape (T+1, W)."""
    table = build_value_tables(instance, [model], atom_count, first_slot)
    return ValueTable(grid=table.grid, values=table.values[:, 0], first_slot=first_slot)


def interp_rows(x: np.ndarray, grid: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """``np.interp(x[e], grid, fp[e])`` for every row e, bit for bit.

    ``x`` is (E, m); ``fp`` is (E, len(grid)) or one shared row.  Values
    must be finite.
    """
    rows = fp.reshape(-1, grid.size)
    per_row = rows.shape[0] != 1
    return interp_bracket(x, grid, per_row).values_at(rows if per_row else rows[0])


def argmin_purchases(
    grid: np.ndarray,
    v_next: np.ndarray,
    spec: StorageSpec,
    levels: np.ndarray,
    demand,
    prices: np.ndarray,
) -> np.ndarray:
    """Purchase minimizing price * q + interpolated next value, for every row.

    Candidates are the feasible grid next-levels plus the exact endpoint
    levels; ties resolve toward the smaller purchase.  ``v_next`` is one
    shared row or one row per level, ``demand`` one value or one per row.
    Grid points outside a row's feasible next levels cost +inf; the pick is
    the first minimum in candidate order: lower endpoint, grid points,
    upper endpoint.
    """
    q_lo, q_hi = feasible_purchase_ranges(spec, levels, demand)
    cap = spec.capacity
    s_lo = min_first(max_first(levels + q_lo - demand, 0.0), cap)
    s_hi = min_first(max_first(levels + q_hi - demand, 0.0), cap)
    v_lo, v_hi = interp_rows(np.stack((s_lo, s_hi), axis=1), grid, v_next).T
    cost_lo = prices * (s_lo - levels + demand) + v_lo
    cost_hi = prices * (s_hi - levels + demand) + v_hi
    d = demand if np.ndim(demand) == 0 else demand[:, None]
    grid_cost = prices[:, None] * (grid - levels[:, None] + d) + v_next
    grid_cost[(grid < s_lo[:, None]) | (grid > s_hi[:, None])] = np.inf
    j = np.argmin(grid_cost, axis=1)
    cost_grid = grid_cost[np.arange(j.size), j]
    pick = np.where(cost_grid <= cost_hi, grid[j], s_hi)
    pick = np.where((cost_lo <= cost_grid) & (cost_lo <= cost_hi), s_lo, pick)
    return min_first(max_first(pick - levels + demand, q_lo), q_hi)


def argmin_purchase(grid, v_next, spec: StorageSpec, level: float, demand: float,
                    price: float) -> float:
    """The one-row ``argmin_purchases``."""
    q = argmin_purchases(grid, v_next, spec, np.array([float(level)]), demand,
                         np.array([float(price)]))
    return float(q[0])


class DpPolicy(Policy):
    """Greedy policy against a value table, acting on the observed price.

    A one-model table serves every row; a stacked table of E models serves
    E rows, row e from its own value row, or, given ``rows``, batch row e
    from value row ``rows[e]``.
    """

    policy_id = "dp"

    def __init__(self, table: ValueTable, rows: np.ndarray | None = None) -> None:
        self.table = table
        self.rows = rows

    def decide_batch(self, t, levels, prices, instance):
        table = self.table
        if t >= table.horizon:
            raise IndexError(f"slot {t} beyond table horizon {table.horizon}")
        if t < table.first_slot:
            raise IndexError(f"slot {t} before table first slot {table.first_slot}")
        v_next = table.values[t + 1]
        if self.rows is not None:
            v_next = v_next[self.rows]
        if v_next.ndim > 1 and v_next.shape[0] not in (1, levels.size):
            raise ValueError(
                f"a stacked value table of {v_next.shape[0]} rows cannot serve "
                f"{levels.size} rows"
            )
        return argmin_purchases(
            table.grid, v_next, instance.storage, levels, instance.demand[t], prices,
        )


class ThresholdFamily:
    """Builds one threshold rule per estimate report, as one row-wise threshold policy."""

    def __call__(self, reports: list[EstimateReport], first_slot: int) -> Policy:
        return ThresholdPolicy(np.array([report.threshold for report in reports]))


@dataclass(frozen=True, eq=False)
class DpFamily:
    """Builds one DP policy over a stacked value table, one fitted normal model per report.

    Reports that fit the same model, bit for bit, share one table row, so
    rows that start from one warmup cost one row of the sweep; the policy
    sends each batch row to its report's table row.  The policy acts from
    slot ``first_slot`` on, so only those slots of its value table are
    built, all rows in one sweep.
    """

    instance: Instance
    atom_count: int = 51

    def __call__(self, reports: list[EstimateReport], first_slot: int) -> Policy:
        models, rows, index = [], [], {}
        for report in reports:
            mu, sigma = report.stats.mean, max(report.stats.sample_std, 1e-12)
            key = (float(mu).hex(), float(sigma).hex())
            if key not in index:
                index[key] = len(models)
                models.append(Normal(mu, sigma))
            rows.append(index[key])
        table = build_value_tables(self.instance, models, self.atom_count, first_slot)
        return DpPolicy(table, np.array(rows))


class AdaptivePolicy(Policy):
    """Re-estimates price statistics from accumulated history.

    Wraps a policy family: (estimate reports, first slot) -> one policy
    that acts from that slot on and serves one batch row per report.
    ``warmups`` is a sequence of price series, and batch row e starts
    from ``warmups[warmup_rows[e]]``, so a run has ``len(warmup_rows)``
    rows.  Each warmup is estimated once, and the base policy is built
    once, from one report per row, and serves every run;
    ``refresh_stride`` may change between runs.  Each row drives one
    trajectory, and its slots must come in order from slot 0: a call at
    slot 0 starts every row from the base policy.  The prices a row
    observes join its own warmup; every ``refresh_stride`` slots each
    row's report is re-estimated from that row's history, and one family
    call rebuilds every row's policy at the current slot.  A row whose
    estimate fails keeps its previous report, which rebuilt at the later
    slot gives the decisions its previous policy gave; the failure is
    recorded in ``events``, which name the row.  Rows share no state, so
    a row's decisions do not depend on the other rows.
    """

    policy_id = "adaptive"

    def __init__(
        self,
        family: Callable[[list[EstimateReport], int], Policy],
        warmups,
        warmup_rows,
        refresh_stride: int | None = None,
        *,
        alpha: float = 0.05,
        conservative: bool = False,
        clamp_nonpositive_lower: bool = False,
    ) -> None:
        """Raises EstimationError when a warmup itself gives no estimate."""
        self.family = family
        self.refresh_stride = refresh_stride
        self.alpha = alpha
        self.conservative = conservative
        self.clamp_nonpositive_lower = clamp_nonpositive_lower
        self._warmups = [as_series(w, "warmup") for w in warmups]
        if not self._warmups or min(w.size for w in self._warmups) < 2:
            raise ValueError("need a warmup of at least 2 prices")
        self._warmup_rows = [int(i) for i in warmup_rows]
        if not all(0 <= i < len(self._warmups) for i in self._warmup_rows):
            raise ValueError(f"warmup rows must index the {len(self._warmups)} warmups")
        self._warmup_reports = [self._estimate(w) for w in self._warmups]
        self._base = family([self._warmup_reports[i] for i in self._warmup_rows], 0)
        self.events: list[str] = []
        self._reports: list[EstimateReport] | None = None

    def decide_batch(self, t, levels, prices, instance):
        stride = self.refresh_stride
        if t == 0:
            if stride is not None and stride < 1:
                raise ValueError(f"refresh stride must be >= 1, got {stride}")
            if len(self._warmup_rows) != levels.size:
                raise ValueError(
                    f"an adaptive policy over {len(self._warmup_rows)} warmup rows "
                    f"cannot serve {levels.size} rows"
                )
            self.events = []
            self._reports = [self._warmup_reports[i] for i in self._warmup_rows]
            self._policy = self._base
            self._observed = np.empty((levels.size, instance.horizon))
        elif self._reports is None:
            raise ValueError(
                f"adaptive policy asked to decide slot {t} before slot 0; "
                "its slots must run in order from slot 0"
            )
        if stride is not None and t > 0 and t % stride == 0:
            self._refresh(t)
        q = self._policy.decide_batch(t, levels, prices, instance)
        self._observed[:, t] = prices
        return q

    def _refresh(self, t: int) -> None:
        for e, w in enumerate(self._warmup_rows):
            history = np.concatenate((self._warmups[w], self._observed[e, :t]))
            try:
                self._reports[e] = self._estimate(history)
            except EstimationError as exc:
                self.events.append(
                    f"row {e}: refresh failed at n={history.size} ({exc}); "
                    "kept previous policy"
                )
        self._policy = None  # drop the previous generation before building the next
        self._policy = self.family(self._reports, t)

    def _estimate(self, history) -> EstimateReport:
        return estimate(
            history,
            self.alpha,
            conservative=self.conservative,
            clamp_nonpositive_lower=self.clamp_nonpositive_lower,
        )
