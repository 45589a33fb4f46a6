"""Byte-for-byte comparison of CLI outputs against stored golden files.

Each case runs one ``gridepi`` command in process and compares its
stdout and every file it writes with ``tests/golden/<case>/``. The
golden files pin the exact RNG draw order and float arithmetic of the
simulator, so a speed-up that reorders either fails here even when every
statistical test still passes.

A deliberate behaviour change regenerates the files with::

    PYTHONPATH=src python tests/test_golden.py --regenerate

and says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from gridepi.assets import asset_path
from gridepi.cli import EXIT_OK, cli_main
from gridepi.dynamics import (
    MANDATE_MASKS,
    NOOP,
    Action,
    Trajectory,
    available_actions,
    events_to_jsonl,
    init_state,
    step_inplace,
    vaccinate,
)
from gridepi.rng import substream
from gridepi.scenario import load_scenario, serialize_scenario, validate

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
ROOMS = ("small_space", "larger_space", "small_crowded", "larger_crowded")
ROOM_ITERATIONS = 40
ROOM_SEED, ROOM_HORIZON, ROOM_ROUNDS = 7, 6, 2


def _bundled_room(name: str, workdir: Path, **planner) -> str:
    """A bundled room with a small search budget and the ``planner``
    overrides in its ``[planner]`` section, written to ``workdir``."""
    config = load_scenario(asset_path(f"{name}.scn"))
    config = replace(
        config,
        planner=replace(config.planner, uct_iterations=ROOM_ITERATIONS, **planner),
    )
    path = workdir / f"{name}.scn"
    path.write_text(serialize_scenario(config), encoding="utf-8")
    return str(path)


def _simulate_room(name: str, **planner):
    def argv(workdir: Path) -> list[str]:
        return [
            "simulate", _bundled_room(name, workdir, **planner), "--seed", str(ROOM_SEED),
            "--horizon", str(ROOM_HORIZON), "--rounds", str(ROOM_ROUNDS),
            "--out", str(workdir / "traj.csv"),
            "--events", str(workdir / "events.jsonl"),
            "--decisions", str(workdir / "decisions.jsonl"),
        ]
    return argv


def _simulate_crowd(room: str, fmt: str):
    def argv(workdir: Path) -> list[str]:
        return [
            "simulate", str(INPUTS / f"{room}.scn"), "--seed", "3", "--policy", "random",
            "--format", fmt,
            "--out", str(workdir / f"traj.{fmt}"),
            "--events", str(workdir / "events.jsonl"),
        ]
    return argv


# the cases that write planner decisions: case name -> (bundled room,
# [planner] overrides)
DECISION_CASES = {
    **{f"simulate_{room}": (room, {}) for room in ROOMS},
    # non-zero action costs, which every other case leaves at 0
    "simulate_costs": ("small_space", {"cost_mask_action": -0.3, "cost_vax_action": -0.1}),
}

# case name -> argv builder; every file the command writes into its work
# directory, plus its stdout, is compared.
CASES = {
    **{name: _simulate_room(room, **planner) for name, (room, planner) in DECISION_CASES.items()},
    "simulate_crowd_r1": _simulate_crowd("crowd_r1", "csv"),
    "simulate_crowd_r3": _simulate_crowd("crowd_r3", "json"),
    "experiment_tiny": lambda workdir: [
        "experiment", str(INPUTS / "tiny.exp"), "--seed", "5",
        "--out", str(workdir / "results.csv"),
    ],
    "experiment_tiny_json": lambda workdir: [
        "experiment", str(INPUTS / "tiny.exp"), "--seed", "5", "--runs", "1",
        "--format", "json",
    ],
    "benchmark_tiny": lambda workdir: ["benchmark", str(INPUTS / "tiny.bench"), "--seed", "5"],
    "oracle_enumerate": lambda workdir: ["oracle", "enumerate", str(INPUTS / "micro.scn")],
    "oracle_ode_conserving": lambda workdir: [
        "oracle", "ode", "--steps", "300", "--mode", "conserving",
    ],
    "oracle_ode_literal": lambda workdir: [
        "oracle", "ode", "--dt", "0.05", "--steps", "120", "--mode", "literal",
        "--out", str(workdir / "curve.csv"),
    ],
}


def run_case(name: str, workdir: Path) -> dict[str, bytes]:
    """Run one case in ``workdir``; return {file name: bytes} of its
    stdout (as ``stdout.txt``) and of every output file it wrote."""
    workdir.mkdir(parents=True, exist_ok=True)
    before = set(workdir.iterdir())
    argv = CASES[name](workdir)
    inputs = set(workdir.iterdir()) - before
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    assert code == EXIT_OK, out.getvalue()
    outputs = {"stdout.txt": out.getvalue().encode("utf-8")}
    for path in sorted(set(workdir.iterdir()) - before - inputs):
        outputs[path.name] = path.read_bytes()
    return outputs


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    outputs = run_case(name, tmp_path)
    expected_dir = GOLDEN / name
    expected = sorted(p.name for p in expected_dir.iterdir())
    assert sorted(outputs) == expected
    for file_name, data in outputs.items():
        assert data == (expected_dir / file_name).read_bytes(), f"{name}/{file_name} differs"


# ---------------------------------------------------------------------------
# The environment is a function of (scenario, seed, actions)
# ---------------------------------------------------------------------------

_NAMED_ACTIONS = {"noop": NOOP, "mandate_masks": MANDATE_MASKS}


def _decided_actions(path: Path) -> list[Action]:
    """The ``chosen_action`` of each line of a decision log, as actions."""
    actions = []
    for line in path.read_text(encoding="utf-8").splitlines():
        text = json.loads(line)["chosen_action"]
        action = _NAMED_ACTIONS.get(text)
        actions.append(action or vaccinate(int(text.removeprefix("vaccinate:"))))
    return actions


def _replay(validated, settings, seed: int, actions: list[Action]) -> tuple[str, str]:
    """The trajectory CSV and the event log of ``actions`` played from
    ``init_state(validated, seed)`` on the round's environment stream,
    without the planner."""
    state = init_state(validated, seed)
    env = substream(seed, "env")
    trajectory = Trajectory()
    trajectory.record(state)
    events = []
    for action in actions:
        step_inplace(state, action, validated, settings, env, events)
        trajectory.record(state)
    return trajectory.to_csv(), events_to_jsonl(events)


def _decision_case(name: str, workdir: Path):
    """The validated scenario and the settings the case's CLI run plays."""
    room, planner = DECISION_CASES[name]
    validated = validate(load_scenario(_bundled_room(room, workdir, **planner)))
    return validated, replace(validated.planner, horizon=ROOM_HORIZON, rounds=ROOM_ROUNDS)


@pytest.mark.parametrize("name", sorted(DECISION_CASES))
def test_decision_logs_replay_to_the_trajectories_and_events(name, tmp_path):
    """Each round's stored decisions, played through ``init_state`` and
    ``step_inplace`` alone, give its stored trajectory and event log byte
    for byte: the planner only chooses the actions, and the environment
    depends on nothing but the scenario, the seed and those actions."""
    validated, settings = _decision_case(name, tmp_path)
    for r in range(ROOM_ROUNDS):
        actions = _decided_actions(GOLDEN / name / f"decisions_r{r}.jsonl")
        assert len(actions) == ROOM_HORIZON
        trajectory, events = _replay(validated, settings, ROOM_SEED + r, actions)
        assert trajectory == (GOLDEN / name / f"traj_r{r}.csv").read_text(encoding="utf-8")
        assert events == (GOLDEN / name / f"events_r{r}.jsonl").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(DECISION_CASES))
def test_another_replayed_action_changes_the_replay(name, tmp_path):
    """Replacing round 0's first decided action by any other legal one
    changes the first step's trajectory or event log: the replay does
    not ignore the actions. (One step only: a changed vaccination could
    make a later decided one illegal.)"""
    validated, settings = _decision_case(name, tmp_path)
    first = _decided_actions(GOLDEN / name / "decisions_r0.jsonl")[0]
    decided = _replay(validated, settings, ROOM_SEED, [first])
    others = [a for a in available_actions(init_state(validated, ROOM_SEED), settings) if a != first]
    assert others
    for other in others:
        assert _replay(validated, settings, ROOM_SEED, [other]) != decided


def regenerate() -> None:
    for name in sorted(CASES):
        target = GOLDEN / name
        shutil.rmtree(target, ignore_errors=True)
        scratch = GOLDEN / f".{name}.work"
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            outputs = run_case(name, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        target.mkdir()
        for file_name, data in outputs.items():
            (target / file_name).write_bytes(data)
        print(f"{name}: {', '.join(sorted(outputs))}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_golden.py --regenerate")
    regenerate()
