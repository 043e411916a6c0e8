"""The traced benchmark wraps storelab functions by module-level name.

``bench/tracer.py`` rebinds each ``(module, attribute)`` it lists with
``setattr``; a refactor that renames or moves one of them would make the
traced run fail or silently lose a layer.  These tests pin every binding.
"""

import importlib
import importlib.util
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


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
