"""Every public name a module lists in ``__all__`` exists."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import gridepi

MODULES = ["gridepi"] + [f"gridepi.{m.name}" for m in pkgutil.iter_modules(gridepi.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_succeeds(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= namespace.keys()
