"""Timing wrappers around the public functions of the ``gridepi`` modules.

The tracer measures every layer from outside: it replaces each hooked
function with a wrapper that records a span (id, name, start, end,
parent id) and per-name totals, and leaves the function itself alone.

Modules bind some hooked functions by name (``planner`` imports
``step_inplace``, ``harness`` and ``cli`` import ``run_episode``), so the
wrapper is written into every ``gridepi`` module attribute that holds the
original, not only into the defining module. ``dynamics.step_inplace``
binds ``apply_action_inplace`` lazily on its first call, so install the
tracer after importing the package and before the first simulated step.
A hook is looked up in its own module first and then in every other
``gridepi`` module that defines a function of that name, so that moving a
function keeps its metrics; a hook found nowhere is recorded in
``absent`` and measures zero.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

PACKAGE = "gridepi"

# (module, attribute, span name); the attribute may name a method as
# "Class.method".
HOOKS = (
    ("dynamics", "step_inplace", "dynamics.step_inplace"),
    ("dynamics", "exposure_probability", "dynamics.exposure_probability"),
    ("dynamics", "SimState.clone", "dynamics.clone"),
    ("dynamics", "events_to_jsonl", "dynamics.events_to_jsonl"),
    ("planner", "plan_with_stats", "planner.plan_with_stats"),
    ("planner", "available_actions", "planner.available_actions"),
    ("planner", "apply_action_inplace", "planner.apply_action_inplace"),
    ("planner", "run_episode", "planner.run_episode"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "simulate_school", "harness.simulate_school"),
    ("harness", "emit_results", "harness.emit_results"),
    ("cli", "cli_main", "cli.cli_main"),
)

HARNESS_SPANS = ("harness.run_experiment", "harness.simulate_school")

# Span names whose calls feed a counter through Tracer._observe.
OBSERVED = frozenset(
    HARNESS_SPANS
    + (
        "planner.plan_with_stats",
        "planner.run_episode",
        "dynamics.events_to_jsonl",
        "dynamics.step_inplace",
    )
)

# Hot functions run millions of times per pass; only the first spans of
# each name are kept, while the totals count every call.
SPAN_CAP = 2000


class Stat:
    """Totals for one span name. ``open`` is the number of calls in
    progress; ``self_s`` excludes the time of traced callees."""

    __slots__ = ("calls", "total_s", "self_s", "open")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.open = 0


class Tracer:
    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.stats = {name: Stat() for _, _, name in hooks}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._recorded: dict[str, int] = {}
        self._wrappers: dict[int, tuple] = {}  # id(wrapper) -> (wrapper, original)
        self._class_patches: list[tuple] = []

    # -- installation -----------------------------------------------------

    def _modules(self) -> list:
        return [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _resolve(self, modules: list, module_name: str, attribute: str):
        """Return (owner, key, original) for a hook, or None."""
        primary = f"{PACKAGE}.{module_name}"
        ordered = sorted(modules, key=lambda m: m.__name__ != primary)
        class_name, _, key = attribute.rpartition(".")
        for module in ordered:
            namespace = vars(module)
            if class_name:
                cls = namespace.get(class_name)
                if (
                    isinstance(cls, type)
                    and cls.__module__ == module.__name__
                    and key in vars(cls)
                ):
                    return cls, key, vars(cls)[key]
            else:
                fn = namespace.get(key)
                if callable(fn) and getattr(fn, "__module__", None) == module.__name__:
                    return module, key, fn
        return None

    def install(self) -> None:
        modules = self._modules()
        for module_name, attribute, name in self.hooks:
            found = self._resolve(modules, module_name, attribute)
            if found is None:
                self.absent.append(name)
                continue
            owner, key, original = found
            wrapper = self._wrap(name, original)
            self._wrappers[id(wrapper)] = (wrapper, original)
            if isinstance(owner, type):
                setattr(owner, key, wrapper)
                self._class_patches.append((owner, key, original))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back, including references the program
        bound to a wrapper after installation."""
        for cls, key, original in self._class_patches:
            setattr(cls, key, original)
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])

    def reset(self) -> None:
        """Forget everything measured so far (the hooks stay installed)."""
        for stat in self.stats.values():
            stat.calls = 0
            stat.total_s = 0.0
            stat.self_s = 0.0
        self.counters.clear()
        self.spans.clear()
        self._recorded.clear()

    # -- the wrapper ------------------------------------------------------

    def _count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _observe(self, name: str, args: tuple, result) -> None:
        """Counts read from a call's arguments or result."""
        if name == "planner.plan_with_stats":
            self._count("planner.iterations", result[1]["root_visits"])
        elif name == "planner.run_episode":
            if any(self.stats[h].open for h in HARNESS_SPANS):
                self._count("harness.episodes", len(result))
        elif name in HARNESS_SPANS:
            self._count("harness.cells", len(result))
        elif name == "dynamics.events_to_jsonl":
            self._count("dynamics.events", len(args[0]))
        elif name == "dynamics.step_inplace":
            if self.stats["planner.plan_with_stats"].open:
                self._count("planner.rollout_steps", 1)

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        recorded = self._recorded
        clock = time.perf_counter
        observe = self._observe if name in OBSERVED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [0.0, span_id]
            stack.append(frame)
            stat.open += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stat.open -= 1
                stack.pop()
                elapsed = t1 - t0
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[0]
                parent_id = None
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    parent_id = parent[1]
                kept = recorded.get(name, 0)
                if kept < SPAN_CAP:
                    recorded[name] = kept + 1
                    spans.append((span_id, name, t0, t1, parent_id))
            if observe is not None:
                observe(name, args, result)
            return result

        return wrapper

    # -- output -----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span_id, name, t0, t1, parent_id in self.spans:
                out.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": t0, "end": t1, "parent": parent_id}
                    )
                    + "\n"
                )
