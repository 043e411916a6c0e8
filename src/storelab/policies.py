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
from one slot to the next.  The hindsight oracle in ``metrics`` steps
through the same geometry, on its own ``storage_grid``, by
``SlotGeometry.min_costs``: its value rows are level-major, (W, E), one
grid level per row, and their suffix minima come from a log-step scan
(``suffix_minima``).  Both sweeps split their rows by ``sweep_blocks``,
the one way storelab blocks rows under its one budget, ``SWEEP_BYTES``.
The DP step is row-wise: one sweep builds a stacked table, one value row
per price model, and every row equals its model's own table bit for bit.
Its only loop over the rows is one sorted search for the base-stock
indices; the count of atoms that reach each level comes from one
histogram of those indices per row, and the sums are whole-array work.
A ``ValueTable`` carries the demand its rows plan for, and ``DpPolicy``
is the greedy rule over any such table.

A policy family maps ``RowEstimates``, one fitted row per batch row, and
a first slot to one policy that serves those rows; the DP family gives
equal fitted models one table row.  The adaptive policy serves rows that
each start from one of its warmups, named by a row map fixed when it is
built, keeps one fitted row per batch row, and rebuilds every row with
one family call per refresh slot.  A warmup that gives no estimate raises,
and a failed refresh is logged, with the error ``RowEstimates.failure``
builds for the row, which is the error ``estimate`` raises.

Each policy implements one rule, ``decide_batch``, which ``simulate_batch``
drives with one level and one price per row; ``decide`` is its one-row
case.  The DP's rule takes two steps: ``base_stock_index`` counts a convex
value row's slopes below minus the observed price, J, and
``clip_purchases`` clips the base-stock level grid[J] into the feasible
next levels (one row: ``argmin_purchase``).  In exact arithmetic that is
the cheapest next level, and the smallest of any that tie.  The oracle's
sweep records J itself, so its forward pass takes only the second step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable

import numpy as np

from . import special
from .estimation import RowEstimates, estimate_row_floats, estimate_rows
from .estimation import estimate  # noqa: F401  (a name bench/tracer.py wraps)
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
    store cannot cover.  ``threshold`` and ``fill_target`` may also be one
    value per row.  Each fill target must be finite, at least 0 and at
    most the capacity plus 1e-9; the first bad one is named in the error.
    """

    def __init__(self, threshold, fill_target: float | np.ndarray | None = None,
                 policy_id: str = "threshold") -> None:
        values = np.asarray(threshold, dtype=float)
        if values.ndim > 1 or not (np.all(values > 0) and np.all(np.isfinite(values))):
            raise ValueError(f"threshold must be finite and > 0, got {threshold}")
        self.threshold = float(values) if values.ndim == 0 else values
        self.fill_target = None if fill_target is None else _fill_targets(fill_target)
        self.policy_id = policy_id

    def _target_full(self, spec: StorageSpec):
        fill = self.fill_target
        if fill is None:
            return spec.capacity
        over = np.flatnonzero(np.ravel(fill) > spec.capacity + 1e-9)
        if over.size:
            raise ValueError(
                f"fill target {np.ravel(fill)[over[0]].item()} exceeds capacity {spec.capacity}"
            )
        return fill

    def decide_batch(self, t, levels, prices, instance):
        spec = instance.storage
        target_full = self._target_full(spec)
        d = instance.demand[t]
        q_lo, q_hi = feasible_purchase_ranges(spec, levels, d)
        target = np.where(prices <= self.threshold, target_full, 0.0)
        want = d + target - levels
        return min_first(max_first(want, q_lo), q_hi)


def _fill_targets(fill_target):
    """A fill target, one float or a (E,) array, each finite and >= 0."""
    fills = np.asarray(fill_target, dtype=float)
    if fills.ndim > 1:
        raise ValueError(f"fill target must be one value or one per row, got shape {fills.shape}")
    bad = np.flatnonzero(~((fills >= 0.0) & (fills < math.inf)))
    if bad.size:
        raise ValueError(f"fill target must be finite and >= 0, got {fills.ravel()[bad[0]].item()}")
    return float(fills) if fills.ndim == 0 else fills


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
    ``demand`` is the demand the rows plan for: (T,), shared by every row,
    or (E, T), one per row of a stacked table.  Every row is convex in the
    storage level, as ``DpPolicy`` needs: the rows that
    ``build_value_tables`` builds are, and so are the grid oracle's.
    """

    grid: np.ndarray
    values: np.ndarray
    demand: np.ndarray
    first_slot: int = 0

    def __post_init__(self) -> None:
        demand = np.asarray(self.demand, dtype=float)
        rows = self.values.shape[1:-1]  # (E,) for a stacked table
        if demand.shape not in ((self.horizon,), rows + (self.horizon,)):
            raise ValueError(
                f"demand of shape {demand.shape} does not fit values of shape {self.values.shape}"
            )
        object.__setattr__(self, "demand", demand)

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


class InterpBracket:
    """Where points fall on a grid: the half of ``np.interp`` that no value row changes.

    ``interp_bracket`` builds it once for a set of points; ``values_at``
    evaluates any level-major value rows there.  ``above`` reads the first
    grid point at or above each point, and ``at`` the grid point a point
    lies on, where it lies on one; only the ``off`` points, off every grid
    point, interpolate, between ``lo`` and ``hi``.  The indices are ready
    for ``take`` along axis 0.
    """

    __slots__ = ("above", "at", "off", "lo", "hi", "offset", "width")

    def __init__(self, above, at, off, lo, hi, offset, width) -> None:
        self.above = above
        self.at = at
        self.off = off
        self.lo = lo  # the grid point below each off point
        self.hi = hi  # the grid point above it
        self.offset = offset  # point minus grid[lo]
        self.width = width  # grid[hi] - grid[lo]

    def values_at(self, fp: np.ndarray) -> np.ndarray:
        """``np.interp`` of the points on the grid with level-major values ``fp``, bit for bit.

        ``fp`` is (W,) values, or (W, E), one row per grid level, every
        column read at the same points.
        """
        out = fp.take(self.at, axis=0)
        if self.off.size:
            y0 = fp.take(self.lo, axis=0)
            y = fp.take(self.hi, axis=0)
            y -= y0
            points = y.T  # the off-grid points on the last axis
            points /= self.width
            points *= self.offset
            y += y0
            out[self.off] = y
        return out


class RowBracket:
    """The per-row ``InterpBracket``: column e's own points, read from column e of (W, E) values.

    Every point is interpolated, from the flat index ``lo`` of the grid
    point below it in C-ordered (W, E) values and the index one grid row
    on; then the points on a grid point, ``on_lo`` on the one below and
    ``on_hi`` on the one above, take that point's value.  Interpolating
    all of them and masking costs less than indexing the off-grid subset.
    ``above`` is the flat index of the first grid point at or above each
    point.
    """

    __slots__ = ("above", "lo", "on_lo", "on_hi", "offset", "width")

    def __init__(self, above, lo, on_lo, on_hi, offset, width) -> None:
        self.above = above
        self.lo = lo
        self.on_lo = on_lo
        self.on_hi = on_hi
        self.offset = offset  # point minus the grid point below
        self.width = width  # the grid step it lies in

    def values_at(self, fp: np.ndarray) -> np.ndarray:
        """``np.interp`` of each column's points on the grid with (W, E) values ``fp``, bit for bit."""
        flat = fp.reshape(-1)
        y0 = flat.take(self.lo)
        if fp.shape[0] == 1:  # a one-point grid: every point is on it
            return y0
        y1 = flat[fp.shape[-1]:].take(self.lo)
        y = y1 - y0
        y /= self.width
        y *= self.offset
        y += y0
        np.copyto(y, y0, where=self.on_lo)
        np.copyto(y, y1, where=self.on_hi)
        return y


def interp_bracket(x: np.ndarray, grid: np.ndarray, per_row: bool):
    """Bracket ``x``, within the grid's span, on ``grid`` the way numpy's interp does.

    A point on a grid point takes its value, any other the slope times its
    offset from the grid point below, plus that point's value.  ``x`` is
    (m,), and every point reads the same grid rows (an ``InterpBracket``);
    or, with ``per_row``, (m, E), and column e reads column e of (W, E)
    values (a ``RowBracket``).  The per-row search guesses each point's
    grid interval from the grid's mean step and corrects the guess by
    exact comparisons with the interval's ends until none moves, so it is
    exact on any sorted grid, and a one-step guess error, all an evenly
    spaced grid's rounding makes, costs one correcting pass.  On a
    one-point grid every point takes that point's value.
    """
    x = np.asarray(x, dtype=float)
    if per_row:
        return _row_bracket(x, grid)
    if grid.size == 1:
        at = np.zeros(x.shape, dtype=np.intp)
        return InterpBracket(at, at, at[:0], at[:0], at[:0], x[:0], x[:0])
    below = np.searchsorted(grid[:-1], x, side="right")
    below -= 1
    x0, x1 = grid.take(below), grid[1:].take(below)
    on_lo = x == x0
    on_hi = x == x1
    at = below + on_hi
    off = np.flatnonzero(~(on_lo | on_hi))
    lo = at.take(off)  # an off point reads no grid point above it
    above = at.copy()
    above[off] += 1
    x0 = x0.take(off)
    return InterpBracket(above, at, off, lo, lo + 1, x.take(off) - x0, x1.take(off) - x0)


def _row_bracket(x: np.ndarray, grid: np.ndarray) -> RowBracket:
    """The per-row ``interp_bracket`` of (m, E) points."""
    stride = x.shape[-1]
    columns = np.arange(stride)
    if grid.size == 1:
        at = np.zeros(x.shape, dtype=np.intp) + columns
        return RowBracket(at, at, np.ones(x.shape, dtype=bool), np.zeros(x.shape, dtype=bool),
                          np.zeros(x.shape), np.ones(x.shape))
    lo = _bracket_guess(x, grid)
    x0 = grid.take(lo)
    width = grid[1:].take(lo)
    on_lo = x == x0
    on_hi = x == width
    width -= x0
    lo *= stride
    lo += columns
    above = lo + stride
    np.subtract(above, stride, out=above, where=on_lo)
    return RowBracket(above, lo, on_lo, on_hi, x - x0, width)


def _bracket_guess(x: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """``searchsorted(grid[:-1], x, side="right") - 1`` for every point, for ``interp_bracket``.

    The guess is the point's offset over the mean step, clipped to the
    W - 1 intervals; each pass then moves every point whose interval
    starts above it down one, and every point at or past its interval's
    end up one, the first interval open below and the last open above.
    """
    last = grid.size - 2
    guess = x - grid[0]
    guess *= last + 1
    guess /= grid[-1] - grid[0]
    np.floor(guess, out=guess)
    np.clip(guess, 0, last, out=guess)
    below = guess.astype(np.intp)
    starts = grid[:-1].copy()
    starts[0] = -np.inf
    ends = grid[1:].copy()
    ends[-1] = np.inf
    while True:
        down = starts.take(below) > x
        up = ends.take(below) <= x
        if not (down.any() or up.any()):
            return below
        below -= down
        below += up


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
    row (the oracle under a realized demand), which gives level-major
    (W, E) arrays, one column per row; L is then read flat from (W, E)
    rows, L x E + column.
    """

    def __init__(self, grid: np.ndarray, capacity: float, demand) -> None:
        d = np.asarray(demand, dtype=float)
        per_row = d.ndim > 0
        levels = grid[:, None] if per_row else grid
        q_lo = np.maximum(0.0, d - np.minimum(levels, capacity))
        self.s_lo = np.clip(levels + (q_lo - d), 0.0, capacity)
        self.to_serve = d - levels
        self.grid = grid
        self.steps = grid[1:] - grid[:-1]
        self.lo_bracket = interp_bracket(self.s_lo, grid, per_row)
        self.lo_index = self.lo_bracket.above
        self.lo_axis = None if per_row else 0  # a per-row L is a flat index

    def min_costs(self, v_next: np.ndarray, prices: np.ndarray) -> np.ndarray:
        """The hindsight oracle's Bellman step, column e's price ``prices[e]`` its one atom.

        ``v_next`` is level-major, (W, E), and need not be convex: the
        minimum of p s' + V(s') over the grid next levels in [s_lo, C] is
        a suffix minimum, and the exact endpoint s_lo is one more
        candidate.  A minimum is exact, so the log-step scan gives the
        bits of any other order, up to the sign of a zero; the final
        ``+ 0.0`` turns a -0.0 into the 0.0 a one-atom mean gives.
        """
        column = (self.grid.size, -1)
        scan = self.grid.reshape(column) * prices
        scan += v_next
        lowest = suffix_minima(scan).take(self.lo_index, axis=self.lo_axis)
        at_lo = self.s_lo.reshape(column) * prices
        at_lo += self.lo_bracket.values_at(v_next)
        np.minimum(lowest, at_lo, out=lowest)
        out = self.to_serve.reshape(column) * prices
        out += lowest
        out += 0.0
        return out


def suffix_minima(a: np.ndarray) -> np.ndarray:
    """Minima of a[i:] along the first axis, in ceil(log2(len(a))) whole-array passes.

    A log-step (Hillis-Steele) scan: after the pass of shift k each row
    holds the minimum of the 2k rows from it on.  The passes alternate
    between ``a`` and one buffer, and either may hold the result.
    """
    spare = np.empty_like(a)
    shift = 1
    while shift < len(a):
        np.minimum(a[:-shift], a[shift:], out=spare[:-shift])
        spare[-shift:] = a[-shift:]
        a, spare = spare, a
        shift *= 2
    return a


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
            geometry = None  # one geometry alive at a time, if the caller keeps none
            key, geometry = d.tobytes(), SlotGeometry(grid, capacity, d)
        yield t, geometry


class AtomSums:
    """A stacked DP table's price atoms, each row sorted ascending, and the sums its steps read.

    ``atoms`` is (E, K): K atoms for each of E tables, every atom weighing
    1/K, over value rows of ``width`` levels.  ``tail_w[e, m]`` and
    ``tail_wp[e, m]`` sum the weights, and the weights times row e's
    atoms, of atoms m..K-1; both end in an exact 0.0, and ``mean``
    (``tail_wp[:, :1]``) is each row's mean price.  A step reads the
    value rows and the sums flattened: ``level_starts`` and ``row_ends``
    are (E, 1), the flat index of row e's first level and of its last
    sum.  Sorting makes each table independent of the order its atoms
    come in.
    """

    def __init__(self, atoms, width: int) -> None:
        self.atoms = np.sort(np.asarray(atoms, dtype=float), axis=-1)
        self.neg_atoms = -self.atoms  # the slope each atom's base-stock level reaches
        rows, count = self.atoms.shape
        self.weight = 1.0 / count
        self.tail_w = _suffix_sums(np.full(self.atoms.shape, self.weight))
        self.tail_wp = _suffix_sums(self.weight * self.atoms)
        self.mean = self.tail_wp[:, :1]
        row = np.arange(rows, dtype=np.intp)[:, None]
        self.level_starts = width * row
        self.row_ends = (count + 1) * row + count


def _suffix_sums(x: np.ndarray) -> np.ndarray:
    """Suffix sums along the last axis, with an exact 0.0 appended."""
    out = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
    out[..., :-1] = np.add.accumulate(x[..., ::-1], axis=-1)[..., ::-1]
    return out


def base_stock_ranks(geometry: SlotGeometry, v_next: np.ndarray, atoms: AtomSums):
    """The integer half of ``backward_step``: (J, J's flat index, at), all exact ranks.

    J (E, K) is each atom's base-stock index, the first grid point whose
    right slope of its value row reaches -p: one sorted search per row,
    O(K log W), which counts the slopes strictly below -p.  The slopes
    are forced non-decreasing to absorb rounding.  J falls as p rises, so
    the atoms whose J reaches L, the first grid index at or above s_lo,
    are a row's m cheapest; m is K less the row's atoms whose J falls
    short of L, read at every level off one cumulative histogram of J
    per row, O(K + W).  ``at`` (E, W) is, per level, the flat index of
    row e's sums at m.
    """
    slopes = v_next[:, 1:] - v_next[:, :-1]
    np.divide(slopes, geometry.steps, out=slopes)
    np.maximum.accumulate(slopes, axis=-1, out=slopes)
    best = np.empty(atoms.atoms.shape, dtype=np.intp)  # J, non-increasing along each row
    for e in range(best.shape[0]):
        best[e] = slopes[e].searchsorted(atoms.neg_atoms[e])
    rows, width = v_next.shape
    flat = best + atoms.level_starts  # J as a flat index into the value rows
    below = np.zeros((rows, width + 1), dtype=np.intp)  # [e, L]: row e's atoms with J < L
    counts = np.bincount(flat.ravel(), minlength=rows * width).reshape(rows, width)
    np.add.accumulate(counts, axis=-1, out=below[:, 1:])
    return best, flat, atoms.row_ends - below.take(geometry.lo_index, axis=-1)


def backward_step(geometry: SlotGeometry, v_next: np.ndarray, atoms: AtomSums) -> np.ndarray:
    """One Bellman step of the purchase DP, by the atoms' base-stock levels, row-wise.

    ``v_next`` is (E, W), one value row per row of ``atoms``; every row
    plans for the nominal demand, so all share the (W,) ``geometry``, and
    the result is the (E, W) new rows.  Each grid level s pays atom p for
    its purchase, p (d - s) + p s', and moves to the next level s' in
    [s_lo, C] that minimizes p s' + V(s'), V the interpolated value row;
    the new value is the weighted mean over the row's atoms.
    Each value row must be convex (every row this step builds is), so
    p s' + V(s') is convex and its minimum over the grid is at the
    base-stock index J.  The m atoms whose J reaches L take grid[J], the
    rest the exact endpoint s_lo (``base_stock_ranks``), and sums over
    the sorted atoms give every level's value.  A step costs one sorted
    search per row, O(K log W), and whole-array work in O(K + W) per row.
    J and m are exact integers and the rest is element-wise, so each row
    carries the bits a one-row step gives it.
    """
    best, flat, at = base_stock_ranks(geometry, v_next, atoms)
    terms = v_next.take(flat)
    terms += atoms.atoms * geometry.grid.take(best)
    terms *= atoms.weight
    head = np.zeros(atoms.tail_wp.shape)
    np.add.accumulate(terms, axis=-1, out=head[:, 1:])
    out = atoms.mean * geometry.to_serve
    out += head.take(at)
    out += geometry.s_lo * atoms.tail_wp.take(at)
    at_lo = geometry.lo_bracket.values_at(v_next.T).T
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


SWEEP_BYTES = 1 << 21  # bytes of one block of rows, storelab's one memory budget
# (rows, K) arrays a DP step holds at once: the four of its ``AtomSums``, J, J's
# flat index and the terms, and then p grid[J] and its product, or the head sums
# and the buffer their accumulate writes through
STEP_ARRAYS = 9
# (rows, W) arrays a DP step holds at once beside its input rows: its new rows,
# the slopes, J's histogram and its prefix counts, ``at``, the takes of the sums,
# and the endpoint values with the level-major copy of the input their take reads
STEP_LEVELS = 8


def sweep_blocks(rows: int, row_floats: int) -> list[tuple[int, int]]:
    """(start, stop) of the fewest equal blocks of rows of ``row_floats`` floats that fit ``SWEEP_BYTES``.

    Every batched loop in storelab blocks its rows here.  A DP table's row
    counts its T x W values, ``STEP_ARRAYS`` rows of K atom floats and
    ``STEP_LEVELS`` rows of W floats; the hindsight oracle's,
    ``metrics.oracle_row_floats``; an estimated size-n row,
    ``estimation.estimate_row_floats(n)``; a runner chunk's row, one round
    or episode, ``experiments.chunk_row_floats``; an adaptive row, a
    refresh and a base table row of (T+1) x W floats and a chunk's series.
    The edges are ``np.linspace``'s; a row too big for ``SWEEP_BYTES`` is
    a block alone.
    """
    fit = max(1, SWEEP_BYTES // (8 * row_floats))
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
    bits do not depend on its block.  The whole table is allocated at
    once, outside those blocks: its callers bound E, the true-parameter
    runners by their few distinct price models and the adaptive runner by
    its blocks of rows.  Only slots first_slot..T-1 are
    stepped.  values[t] depends on values[t + 1] alone, and the lattice on
    the instance alone, so those slots equal a full build bit for bit.
    """
    T = instance.horizon
    if not (0 <= first_slot <= T):
        raise ValueError(f"first slot must lie in [0, {T}], got {first_slot}")
    capacity = instance.storage.capacity
    grid = breakpoint_lattice(capacity, instance.demand)
    values = np.zeros((T + 1, len(models), grid.size))
    row_floats = (T + STEP_LEVELS) * grid.size + STEP_ARRAYS * atom_count
    for start, stop in sweep_blocks(len(models), row_floats):
        atoms = AtomSums(
            [quantile_atoms(model, atom_count) for model in models[start:stop]], grid.size
        )
        rows = values[:, start:stop]
        for t, geometry in slot_sweep(grid, capacity, instance.demand, first_slot):
            rows[t] = backward_step(geometry, rows[t + 1], atoms)
    grid.flags.writeable = False
    values.flags.writeable = False
    return ValueTable(grid=grid, values=values, demand=instance.demand, first_slot=first_slot)


def build_value_table(
    instance: Instance, model, atom_count: int = 51, first_slot: int = 0,
) -> ValueTable:
    """The one-model ``build_value_tables``: values of shape (T+1, W)."""
    table = build_value_tables(instance, [model], atom_count, first_slot)
    return ValueTable(
        grid=table.grid, values=table.values[:, 0], demand=table.demand, first_slot=first_slot,
    )


def base_stock_index(grid: np.ndarray, v_next: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """J per row: the count of the value row's segment slopes strictly below -p.

    ``v_next`` is level-major: one (W,) row that every price shares, or
    (W, E), column e for ``prices[e]``.  On a convex row p s' + V(s')
    falls up to grid[J] and not after it, so grid[J] is the row's
    base-stock level for price p.
    """
    v = v_next.reshape(grid.size, -1)
    slopes = v[1:] - v[:-1]
    slopes /= (grid[1:] - grid[:-1])[:, None]
    return np.count_nonzero(slopes < -prices, axis=0)


def clip_purchases(
    grid: np.ndarray, best: np.ndarray, spec: StorageSpec, levels: np.ndarray, demand,
) -> np.ndarray:
    """The purchase that moves each row to grid[J] clipped into its feasible next levels.

    The next level is ``grid[best]`` clipped into the row's feasible range
    [s_lo, s_hi] (s_lo on a one-point grid, where ``best`` is not read).
    With J from ``base_stock_index`` on a convex row this is, in exact
    arithmetic, the first minimizer of a scan over s_lo, the grid points
    and s_hi, in that order: a tie between next levels, which needs p to
    equal minus a slope, goes to the smallest.  ``demand`` is one value or
    one per row.
    """
    q_lo, q_hi = feasible_purchase_ranges(spec, levels, demand)
    cap = spec.capacity
    pick = min_first(max_first(levels + q_lo - demand, 0.0), cap)
    if grid.size > 1:
        s_hi = min_first(max_first(levels + q_hi - demand, 0.0), cap)
        pick = min_first(max_first(grid[best], pick), s_hi)
    return min_first(max_first(pick - levels + demand, q_lo), q_hi)


def argmin_purchase(grid, v_next, spec: StorageSpec, level: float, demand: float,
                    price: float) -> float:
    """The one-row DP purchase: ``clip_purchases`` at the ``base_stock_index`` of one row."""
    prices = np.array([float(price)])
    best = base_stock_index(grid, np.asarray(v_next, dtype=float), prices)
    return float(clip_purchases(grid, best, spec, np.array([float(level)]), demand)[0])


class DpPolicy(Policy):
    """Base-stock policy against a convex value table, acting on the observed price.

    A one-model table serves every row; a stacked table of E models serves
    E rows, row e from its own value row, or, given ``rows``, batch row e
    from value row ``rows[e]``.  Each row plans for its value row's demand,
    the table's ``demand``, and buys by ``clip_purchases`` at the
    ``base_stock_index`` of that row for the observed price.
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
        v_next, demand = table.values[t + 1], table.demand[..., t]
        if self.rows is not None:
            v_next = v_next[self.rows]
            if demand.ndim:
                demand = demand[self.rows]
        if v_next.ndim > 1 and v_next.shape[0] not in (1, levels.size):
            raise ValueError(
                f"a stacked value table of {v_next.shape[0]} rows cannot serve "
                f"{levels.size} rows"
            )
        best = base_stock_index(table.grid, v_next.T, prices)
        return clip_purchases(table.grid, best, instance.storage, levels, demand)


def _distinct(items) -> tuple[list, list[int]]:
    """The distinct items in first-seen order, and each item's index among them.

    Items are the same when they hash and compare equal.
    """
    index, unique, rows = {}, [], []
    for item in items:
        if item not in index:
            index[item] = len(unique)
            unique.append(item)
        rows.append(index[item])
    return unique, rows


def _fieldwise(op, *fits: RowEstimates) -> RowEstimates:
    """``RowEstimates`` whose every array is ``op`` of that array of each of ``fits``."""
    return RowEstimates(**{
        f.name: op(*(getattr(fit, f.name) for fit in fits)) for f in fields(RowEstimates)
    })


class ThresholdFamily:
    """Builds one threshold rule per fitted row, as one row-wise threshold policy."""

    def __call__(self, fits: RowEstimates, first_slot: int) -> Policy:
        return ThresholdPolicy(fits.threshold)


@dataclass(frozen=True, eq=False)
class DpFamily:
    """Builds one DP policy over a stacked value table, one fitted normal model per row.

    Rows that fit the same model, bit for bit, share one table row, so
    rows that start from one warmup cost one row of the sweep; the policy
    sends each batch row to its model's table row.  The policy acts from
    slot ``first_slot`` on, so only those slots of its value table are
    built, all rows in one sweep.
    """

    instance: Instance
    atom_count: int = 51

    def __call__(self, fits: RowEstimates, first_slot: int) -> Policy:
        sigmas = np.maximum(fits.sample_std, 1e-12).tolist()
        unique, rows = _distinct(zip(map(float.hex, fits.mean.tolist()), map(float.hex, sigmas)))
        models = [Normal(float.fromhex(mu), float.fromhex(sigma)) for mu, sigma in unique]
        table = build_value_tables(self.instance, models, self.atom_count, first_slot)
        return DpPolicy(table, np.array(rows))


class AdaptivePolicy(Policy):
    """Re-estimates price statistics from accumulated history.

    Wraps a policy family: (``RowEstimates``, first slot) -> one policy
    that acts from that slot on and serves one batch row per fitted row.
    ``warmups`` is a sequence of price series, and batch row e starts
    from ``warmups[warmup_rows[e]]``, so a run has ``len(warmup_rows)``
    rows.  Each warmup is estimated once, and the base policy is built
    once, from one fitted row per batch row, and serves every run;
    ``refresh_stride`` may change between runs.  Each row drives one
    trajectory, and its slots must come in order from slot 0: a call at
    slot 0 starts every row from the base policy.  The prices a row
    observes join its own warmup; every ``refresh_stride`` slots each
    row's fit is re-estimated from that row's history, and one family
    call rebuilds every row's policy at the current slot.  Histories of
    one size n are estimated together, in ``sweep_blocks`` of
    ``estimate_row_floats(n)`` floats a row.  A row whose estimate fails keeps its
    previous fit, which rebuilt at the later slot gives the decisions its
    previous policy gave; the failure is recorded in ``events``, which
    name the row and quote its ``RowEstimates.failure``.  Rows share no
    state, so a row's decisions do not depend on the other rows.
    """

    policy_id = "adaptive"

    def __init__(
        self,
        family: Callable[[RowEstimates, int], Policy],
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
        self._warmup_rows = np.array([int(i) for i in warmup_rows], dtype=int)
        if not all(0 <= i < len(self._warmups) for i in self._warmup_rows):
            raise ValueError(f"warmup rows must index the {len(self._warmups)} warmups")
        fits = self._fit(np.arange(len(self._warmups)), 0)
        if fits.failed.any():
            raise fits.failure(int(np.flatnonzero(fits.failed)[0]))
        self._base_fits = _fieldwise(lambda a: a[self._warmup_rows], fits)
        self._base = family(self._base_fits, 0)
        self.events: list[str] = []
        self._fits: RowEstimates | None = None

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
            self._fits = self._base_fits
            self._policy = self._base
            self._observed = np.empty((levels.size, instance.horizon))
        elif self._fits is None:
            raise ValueError(
                f"adaptive policy asked to decide slot {t} before slot 0; "
                "its slots must run in order from slot 0"
            )
        # a run of no rows has nothing to refresh
        if stride is not None and t > 0 and t % stride == 0 and self._warmup_rows.size:
            self._refresh(t)
        q = self._policy.decide_batch(t, levels, prices, instance)
        self._observed[:, t] = prices
        return q

    def _refresh(self, t: int) -> None:
        fresh = self._fit(self._warmup_rows, t)
        for e in np.flatnonzero(fresh.failed).tolist():
            self.events.append(
                f"row {e}: refresh failed at n={self._warmups[self._warmup_rows[e]].size + t} "
                f"({fresh.failure(e)}); kept previous policy"
            )
        # a failed row keeps its previous fit
        self._fits = _fieldwise(lambda *pair: np.where(fresh.failed, *pair), self._fits, fresh)
        self._policy = None  # drop the previous generation before building the next
        self._policy = self.family(self._fits, t)

    def _fit(self, owners: np.ndarray, t: int) -> RowEstimates:
        """One fitted row per entry of ``owners``: row r's history is warmup
        ``owners[r]``, then batch row r's first t observed prices.

        Each block's samples are one array, every warmup broadcast into the
        left columns of its rows and the observed prices in the rest.
        """
        sizes = np.array([w.size for w in self._warmups])[owners]
        parts = []
        for m in dict.fromkeys(sizes.tolist()):
            rows = np.flatnonzero(sizes == m)
            for first, stop in sweep_blocks(rows.size, estimate_row_floats(m + t)):
                block = rows[first:stop]
                samples = np.empty((block.size, m + t))
                for w in dict.fromkeys(owners[block].tolist()):
                    samples[owners[block] == w, :m] = self._warmups[w]
                if t:
                    samples[:, m:] = self._observed[block, :t]
                parts.append((block, estimate_rows(
                    samples, self.alpha, conservative=self.conservative,
                    clamp_nonpositive_lower=self.clamp_nonpositive_lower,
                )))
        order = np.argsort(np.concatenate([block for block, _ in parts]))
        return _fieldwise(lambda *arrays: np.concatenate(arrays)[order], *(fit for _, fit in parts))
