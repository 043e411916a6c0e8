"""The README's library example runs, and the package's public names resolve."""

import re
from pathlib import Path

import storelab

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme"})
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_every_public_name_resolves_once():
    assert len(storelab.__all__) == len(set(storelab.__all__))
    for name in storelab.__all__:
        assert getattr(storelab, name) is not None
