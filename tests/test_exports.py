"""Every public name a module lists in ``__all__`` exists, every name a
module imports is used or listed there, the package's modules import
one another without a cycle, and of the names ``planner`` imports from
``dynamics`` it lists only three."""

from __future__ import annotations

import ast
import graphlib
import importlib
import pkgutil
from pathlib import Path

import pytest

import gridepi
from gridepi import planner

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


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used_or_exported(name):
    module = importlib.import_module(name)
    with open(module.__file__, encoding="utf-8") as source:
        tree = ast.parse(source.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - set(getattr(module, "__all__", []))) == []


def _sibling_imports() -> dict[str, set[str]]:
    """The package modules each package module imports, read from its
    ``from .x import`` and ``from . import x`` lines."""
    package = Path(gridepi.__file__).parent
    names = {m.name for m in pkgutil.iter_modules(gridepi.__path__)}
    graph = {}
    for name in names:
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        graph[name] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    graph[name].add(node.module.partition(".")[0])
                else:
                    graph[name].update(a.name for a in node.names if a.name in names)
    return graph


def test_the_package_import_graph_has_no_cycle():
    # static_order raises CycleError, naming the cycle, if there is one
    graph = _sibling_imports()
    assert set(graphlib.TopologicalSorter(graph).static_order()) == set(graph)


@pytest.mark.parametrize("name", ["scenario", "rng", "fanout", "assets"])
def test_leaf_modules_import_no_sibling(name):
    assert _sibling_imports()[name] == set()


def test_dynamics_imports_only_rng_and_scenario():
    assert _sibling_imports()["dynamics"] == {"rng", "scenario"}


def test_planner_hands_on_only_three_action_names():
    # every other action name has one import path, gridepi.dynamics
    tree = ast.parse(Path(planner.__file__).read_text(encoding="utf-8"))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    assert set(planner.__all__) - defined == {"NOOP", "ActionKind", "available_actions"}
