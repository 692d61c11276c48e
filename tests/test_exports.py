"""Every name a module exports through ``__all__`` exists, so removing a
public function cannot leave a dangling export."""

import importlib

import pytest

MODULES = ["dyadic", "builders", "wavelet", "estimators", "synth", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"localmf.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing
