"""Every name a starkres module exports in ``__all__`` exists.

A stale entry would otherwise surface only when a user imports it.
"""

import importlib
import pkgutil

import pytest

import starkres

MODULES = ["starkres"] + sorted(
    f"starkres.{m.name}" for m in pkgutil.iter_modules(starkres.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
