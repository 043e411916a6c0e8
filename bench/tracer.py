"""In-memory span tracer wrapped around storelab's public functions.

Nothing under ``src/`` is modified: ``install`` rebinds each function at
the module-level names the runners look it up by (``from .x import y``
makes a second binding in the importing module, so both are wrapped).
Each span records (name, start, end, parent); spans stay in memory and
are written out once, when the traced run ends.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter, defaultdict
from statistics import median

import numpy as np

# (module, attribute, span name).  A function bound in several modules is
# wrapped at every binding a runner can reach.
SPANNED = (
    ("experiments", "load_history", "config.load_history"),
    ("experiments", "generate", "prices.generate"),
    ("prices", "generate", "prices.generate"),  # load_history imports it at call time
    ("metrics", "resample", "prices.resample"),
    ("experiments", "estimate", "estimation.estimate"),
    ("metrics", "estimate", "estimation.estimate"),
    ("policies", "estimate", "estimation.estimate"),
    ("estimation", "t_quantile", "special.t_quantile"),
    ("estimation", "chi2_quantile", "special.chi2_quantile"),
    ("special", "normal_quantile", "special.normal_quantile"),
    ("prices", "normal_quantile", "special.normal_quantile"),
    ("experiments", "simulate", "model.simulate"),
    ("metrics", "simulate", "model.simulate"),
    ("experiments", "offline_optimal", "metrics.offline_optimal"),
    ("metrics", "offline_optimal", "metrics.offline_optimal"),
    ("metrics", "backward_step", "policies.backward_step"),
    ("policies", "backward_step", "policies.backward_step"),
    ("metrics", "argmin_purchase", "policies.argmin_purchase"),
    ("policies", "argmin_purchase", "policies.argmin_purchase"),
    ("experiments", "build_value_table", "policies.build_value_table"),
    ("policies", "build_value_table", "policies.build_value_table"),
)

# Called once per slot per policy; a span each would dwarf the work, so
# these are counted only.
COUNTED = (
    ("model", "feasible_purchase_range", "model.feasible_purchase_range.calls"),
    ("policies", "feasible_purchase_range", "model.feasible_purchase_range.calls"),
)

DECIDE_CLASSES = ("ThresholdPolicy", "DpPolicy", "AdaptivePolicy")

TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)


class Tracer:
    """Span recorder plus the wasted-work counters read from call results."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = [-1]
        self.counters: Counter = Counter()
        self.oracle_inputs: set[bytes] = set()

    def span(self, name, fn, on_result=None):
        """Wrap fn so every call records a span; ``name`` may be a callable of self.

        A call made directly inside a span of the same name (recursion) is
        not recorded again, so ``calls`` counts entries from other layers.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        fixed = isinstance(name, str)

        def wrapper(*args, **kwargs):
            label = name if fixed else name(args[0])
            top = stack[-1]
            if top >= 0 and spans[top][0] == label:
                return fn(*args, **kwargs)
            record = [label, clock(), 0.0, top]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, key, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- result hooks -------------------------------------------------------

    def _oracle_input(self, args, kwargs, result) -> None:
        instance = args[0] if args else kwargs["instance"]
        prices = args[1] if len(args) > 1 else kwargs["prices"]
        digest = hashlib.blake2b(
            np.asarray(instance.demand, dtype=float).tobytes()
            + np.asarray(prices, dtype=float).tobytes(),
            digest_size=16,
        ).digest()
        self.oracle_inputs.add(digest)

    def _simulated(self, args, kwargs, result) -> None:
        instance = args[0] if args else kwargs["instance"]
        self.counters["model.clamped_slots"] += len(result.clamped_slots)
        self.counters["model.decided_slots"] += instance.horizon

    def _refreshed(self, args, kwargs, result) -> None:
        self.counters["policies.adaptive.refreshes"] += 1

    def dump(self) -> dict:
        counters = dict(self.counters)
        counters["metrics.offline_optimal.distinct_inputs"] = len(self.oracle_inputs)
        return {"spans": self.spans, "counters": counters}


def _modules():
    import storelab.estimation
    import storelab.experiments
    import storelab.metrics
    import storelab.model
    import storelab.policies
    import storelab.prices
    import storelab.special

    return {
        "estimation": storelab.estimation,
        "experiments": storelab.experiments,
        "metrics": storelab.metrics,
        "model": storelab.model,
        "policies": storelab.policies,
        "prices": storelab.prices,
        "special": storelab.special,
    }


def count_pools(counters: Counter) -> None:
    """Count process pools the runners start (``experiments.pool_starts``)."""
    experiments = _modules()["experiments"]
    pool = experiments.ProcessPoolExecutor

    def counting_pool(*args, **kwargs):
        counters["experiments.pool_starts"] += 1
        return pool(*args, **kwargs)

    experiments.ProcessPoolExecutor = counting_pool


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of storelab in place, for this process only."""
    mods = _modules()
    hooks = {
        "metrics.offline_optimal": tracer._oracle_input,
        "model.simulate": tracer._simulated,
    }
    for module, attr, name in SPANNED:
        on_result = hooks.get(name)
        if module == "policies" and attr == "estimate":
            on_result = tracer._refreshed  # AdaptivePolicy is its only caller there
        mod = mods[module]
        setattr(mod, attr, tracer.span(name, getattr(mod, attr), on_result))
    for module, attr, key in COUNTED:
        mod = mods[module]
        setattr(mod, attr, tracer.count(key, getattr(mod, attr)))
    for cls_name in DECIDE_CLASSES:
        cls = getattr(mods["policies"], cls_name)
        cls.decide = tracer.span(_decide_name, cls.decide)
    count_pools(tracer.counters)


def _decide_name(policy) -> str:
    return f"policies.decide.{policy.policy_id}"


# -- aggregation (runs in the benchmark process, from the dumped spans) -----


def tail(durations) -> tuple[float, float]:
    """(percentile, value) at the highest percentile with >= 10 calls beyond it.

    Falls back to the median when there are fewer than 20 calls.
    """
    values = np.sort(np.asarray(durations, dtype=float))
    pct = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if values.size * (100.0 - p) / 100.0 >= 10.0:
            pct = p
    return pct, float(np.percentile(values, pct)) if values.size else 0.0


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, self time, per-call durations.

    Self time is a span's duration minus the time its child spans cover.
    The tracer runs in one thread, so a span's children never overlap and
    the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "durations": []})
    for i, (name, start, end, _) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - covered[i]
        entry["durations"].append(end - start)
    return dict(stats)


def layer_stat(stats: dict, name: str, stat: str) -> tuple[float, str]:
    """Value of one ``<name>.<stat>`` metric, with a note for tail percentiles."""
    entry = stats.get(name, {"calls": 0, "self_s": 0.0, "durations": []})
    if stat == "calls":
        return float(entry["calls"]), ""
    if stat == "self_s":
        return entry["self_s"], ""
    if not entry["durations"]:
        return 0.0, "no calls"
    if stat == "p50_us":
        return median(entry["durations"]) * 1e6, ""
    pct, value = tail(entry["durations"])
    return value * 1e6, f"p{pct:g} of {entry['calls']} calls"
