"""The README's library example runs, and the package's public names resolve."""

import importlib
import pkgutil
import re
from pathlib import Path

import storelab
from storelab import cli, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme"})
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_readme_example_config_parses():
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    config = parse_config(blocks[0])
    assert (config.kind, config.out) == ("violation-curve", "curve.csv")


def test_every_public_name_resolves_once():
    assert len(storelab.__all__) == len(set(storelab.__all__))
    for name in storelab.__all__:
        assert getattr(storelab, name) is not None


def test_readme_constants_are_module_attributes():
    # a stale constant name in the README fails here
    modules = [
        importlib.import_module(f"storelab.{info.name}")
        for info in pkgutil.iter_modules(storelab.__path__) if info.name != "__main__"
    ]
    names = set(re.findall(r"`([A-Z][A-Z0-9_]+)`", README.read_text(encoding="utf-8")))
    assert cli.SEED_ENV_VAR in names  # an environment variable, not an attribute
    for name in names - {cli.SEED_ENV_VAR}:
        assert any(hasattr(module, name) for module in modules), name
