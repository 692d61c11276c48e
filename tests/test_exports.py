"""Every name a module exports through ``__all__`` exists, and the README's
quick start runs, so removing a public function cannot leave a dangling
export or a stale example."""

import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

MODULES = ["dyadic", "builders", "wavelet", "estimators", "synth", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"localmf.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(blocks[0], "README.md", "exec"), {})
    assert out.getvalue()
