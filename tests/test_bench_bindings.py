"""The benchmark's bindings, configs and outputs still fit the package.

``bench/tracer.py`` rebinds each ``(module, attribute)`` it lists with
``setattr``; a refactor that renames or moves one of them would make the
traced run fail or silently lose a layer.  ``bench/run.py`` writes each
workload's config to a file that the runner parses; a stricter validation
would make every benchmark run fail.  Every timed or traced run must
reproduce the CSV digest that ``bench/digests.json`` records for its
seed, so an engine change that moves one bit of a workload's output fails
here first; by default at three seeds, and under ``-m slow`` at every
(workload, seed) the file records.  These tests pin all three.
"""

import hashlib
import importlib
import importlib.util
import json
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
bench_child = _load_bench("child")

DIGEST_SEEDS = (3, 7, 22)
RECORDED = json.loads(bench_run.DIGESTS.read_text(encoding="utf-8"))


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


def _workload_config(workload, seed, out):
    # the same key=value lines bench/run.py writes for its child process
    config = {**bench_run.WORKLOADS[workload].config, "seed": str(seed), "out": str(out)}
    return parse_config("".join(f"{k}={v}\n" for k, v in config.items()))


@pytest.mark.parametrize("seed", DIGEST_SEEDS)
@pytest.mark.parametrize("workload", sorted(bench_run.WORKLOADS))
def test_workload_config_parses(workload, seed):
    parsed = _workload_config(workload, seed, "out.csv")
    assert parsed.kind == bench_run.WORKLOADS[workload].config["kind"]


def _assert_digest_reproduces(workload, seed, out):
    config = _workload_config(workload, seed, out)
    bench_child.RUNNERS[bench_run.WORKLOADS[workload].runner](config, workers=1)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RECORDED[workload][str(seed)]


@pytest.mark.parametrize("seed", DIGEST_SEEDS)
@pytest.mark.parametrize("workload", sorted(bench_run.WORKLOADS))
def test_workload_output_matches_recorded_digest(workload, seed, tmp_path):
    _assert_digest_reproduces(workload, seed, tmp_path / "out.csv")


@pytest.mark.slow
@pytest.mark.parametrize("workload, seed", [
    (workload, int(seed)) for workload, seeds in sorted(RECORDED.items()) for seed in seeds
])
def test_every_recorded_digest_reproduces(workload, seed, tmp_path):
    _assert_digest_reproduces(workload, seed, tmp_path / "out.csv")
