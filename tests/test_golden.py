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
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from gridepi.assets import asset_path
from gridepi.cli import EXIT_OK, cli_main
from gridepi.scenario import load_scenario, serialize_scenario

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
ROOMS = ("small_space", "larger_space", "small_crowded", "larger_crowded")
ROOM_ITERATIONS = 40


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
            "simulate", _bundled_room(name, workdir, **planner), "--seed", "7",
            "--horizon", "6", "--rounds", "2",
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


# case name -> argv builder; every file the command writes into its work
# directory, plus its stdout, is compared.
CASES = {
    **{f"simulate_{room}": _simulate_room(room) for room in ROOMS},
    # non-zero action costs, which every other case leaves at 0
    "simulate_costs": _simulate_room(
        "small_space", cost_mask_action=-0.3, cost_vax_action=-0.1
    ),
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
