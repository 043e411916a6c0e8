"""The benchmark's bindings and configs still fit the package.

``bench/tracer.py`` rebinds each ``(module, attribute)`` it lists with
``setattr``; a refactor that renames or moves one of them would make the
traced run fail or silently lose a layer.  ``bench/run.py`` writes each
workload's config to a file that the runner parses; a stricter validation
would make every benchmark run fail.  These tests pin both.
"""

import importlib
import importlib.util
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from storelab import parse_config

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # run.py imports tracer by its bare name
    spec.loader.exec_module(module)
    return module


tracer = _load_bench("tracer")
bench_run = _load_bench("run")


def _storelab(module):
    return importlib.import_module(f"storelab.{module}")


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in tracer.SPANNED + tracer.COUNTED])
def test_wrapped_function_resolves(module, attr):
    assert callable(getattr(_storelab(module), attr))


@pytest.mark.parametrize("cls_name", tracer.DECIDE_CLASSES)
def test_decide_class_resolves(cls_name):
    cls = getattr(_storelab("policies"), cls_name)
    assert callable(cls.decide)
    assert isinstance(cls.policy_id, str)


def test_process_pool_binding_resolves():
    assert _storelab("experiments").ProcessPoolExecutor is ProcessPoolExecutor


@pytest.mark.parametrize("seed", [3, 7, 22])
@pytest.mark.parametrize("workload", sorted(bench_run.WORKLOADS))
def test_workload_config_parses(workload, seed):
    # the same key=value lines bench/run.py writes for its child process
    config = {**bench_run.WORKLOADS[workload].config, "seed": str(seed), "out": "out.csv"}
    parsed = parse_config("".join(f"{k}={v}\n" for k, v in config.items()))
    assert parsed.kind == bench_run.WORKLOADS[workload].config["kind"]
