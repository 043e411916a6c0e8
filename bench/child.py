"""One benchmark run of a storelab runner in a fresh process.

Usage: python3 bench/child.py CONFIG RUNNER WORKERS MODE [TRACE_OUT]

MODE is ``setup`` (stop just before the runner call), ``run`` (untraced),
``pools`` (untraced, counting process pools) or ``trace`` (every layer
wrapped, spans written to TRACE_OUT).  The last line of stdout is a JSON
record with the monotonic clock at the end of set-up, at the runner call
and after the CSV is written; the parent measures set-up from its own
clock at spawn.  Linux's monotonic clock is shared by all processes, so
the two can be subtracted.

A ``run`` also times ``reference_s`` just before the runner call and just
after it, on the same CPU, so the parent can express the run time in
units of the machine's speed at that moment (see ``run.py``).
"""

import json
import math
import resource
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402

import storelab  # noqa: E402
from storelab import experiments  # noqa: E402
from storelab.config import load_config  # noqa: E402

RUNNERS = {
    "relax": experiments.run_relaxation,
    "violation-curve": experiments.run_violation_curve,
    "adaptive": experiments.run_adaptive_convergence,
}


REFERENCE_LOOPS = 3000


def reference_s() -> float:
    """Wall time of a fixed mix of interpreter and small-array numpy work.

    The mix imitates the runners' inner loops (a per-slot Python loop, a
    51 x 101 broadcast with suffix minima, a dot product, ``interp`` and
    ``searchsorted`` on a 101-point grid) and calls no storelab code, so a
    change to the program cannot move it; only the machine's speed does.
    """
    grid = numpy.linspace(0.0, 5.0, 101)
    values = numpy.cos(grid)
    atoms = numpy.linspace(8.0, 12.0, 51)
    weights = numpy.full(51, 1.0 / 51)
    start = time.perf_counter()
    acc = 0.0
    for i in range(REFERENCE_LOOPS):
        shifted = atoms[:, None] * grid[None, :] + values[None, :]
        best = numpy.minimum.accumulate(shifted[:, ::-1], axis=1)[:, ::-1]
        acc += float(weights @ best[:, i % 101])
        x = numpy.interp(grid * 0.5 + i * 1e-6, grid, values)
        acc += float(x[numpy.searchsorted(grid, 2.5)])
        level = 0.0
        for t in range(24):
            level = min(max(level + (t % 5) * 0.3 - 1.0, 0.0), 5.0)
            acc += level
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise ArithmeticError("reference loop gave a non-finite sum")
    return elapsed


def main(argv) -> int:
    config_path, runner_name, workers, mode = argv[:4]
    config = load_config(config_path)
    runner = RUNNERS[runner_name]
    tracer = None
    counters = Counter()
    if mode == "trace":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
        runner = tracer.span("experiments.runner", runner)
    elif mode == "pools":
        from tracer import count_pools

        count_pools(counters)

    t_setup = time.monotonic()
    ref_before = reference_s() if mode == "run" else 0.0
    t_call = time.monotonic()
    if mode != "setup":
        runner(config, workers=int(workers))
    t_end = time.monotonic()
    ref_after = reference_s() if mode == "run" else 0.0

    if tracer is not None:
        Path(argv[4]).write_text(json.dumps(tracer.dump()), encoding="utf-8")
        counters = tracer.counters
    print(json.dumps({
        "t_setup": t_setup,
        "t_call": t_call,
        "t_end": t_end,
        "reference_s": (ref_before + ref_after) / 2.0,
        "maxrss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "maxrss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "pool_starts": counters.get("experiments.pool_starts", 0),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "storelab": storelab.__version__,
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
