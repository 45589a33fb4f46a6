"""The benchmark's workloads, their inputs and their correctness checks.

Each workload is a closed loop with one client: the next operation
starts only after the previous one returned. A workload's operations are
a fixed list built from the workload seed; ``run.py`` runs the whole
list once per round, in a fresh seeded order each round, and every
operation must give the same output each time it runs. An operation
returns ((start, end) of its timed call on ``time.perf_counter``,
simulated steps, output bytes) and raises on any failure.

Calls into the program go through module attributes (``planner.run_episode``,
not a name imported from it), so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import time
from dataclasses import replace
from pathlib import Path

from gridepi import cli, dynamics, harness, oracle, planner, scenario
from gridepi.assets import asset_path

HERE = Path(__file__).resolve().parent
TINY = HERE / "tiny"
ROOMS = ("small_space", "larger_space", "small_crowded", "larger_crowded")

EXPERIMENT_HEADER = "simulation,N,masks,vaccines,walkable,total_tiles,density,pred_pos_pct,d_avg"
BENCHMARK_HEADER = "model,simulations,masks,vaccines,N,N_est,pred_pos_pct,true_pos_pct,abs_error"


class CheckFailed(Exception):
    """An output broke an invariant of the program."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def derive(*parts: object) -> int:
    """A 63-bit seed that depends only on ``parts``."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def check_trajectory(trajectory, n: int, horizon: int) -> None:
    rows = trajectory.rows
    check(len(rows) == horizon + 1, f"{len(rows)} trajectory rows for horizon {horizon}")
    previous = rows[0]
    for row in rows:
        check(row.s + row.e + row.i + row.r + row.d == n, f"census at step {row.step} != N")
        check(row.d == row.cum_deaths, f"D != cum_deaths at step {row.step}")
        check(
            row.cum_infections >= previous.cum_infections
            and row.cum_deaths >= previous.cum_deaths,
            f"cumulative counter decreased at step {row.step}",
        )
        previous = row


# ---------------------------------------------------------------------------
# plan_rooms
# ---------------------------------------------------------------------------


class PlanRooms:
    """Root UCT decisions from step-0 states of the four bundled rooms at
    their own search settings: two decisions per room, each from its own
    seeded initial state, so the median lands among the N=8 rooms and the
    p90 among the N=12 room's decisions. Few operations give each one many
    repeats in a run."""

    name = "plan_rooms"
    min_rounds = 3

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.rooms = load_bundled_rooms()
        self.per_room = 1 if tiny else 2
        self.iterations = 16 if tiny else None

    def operations(self) -> list:
        return [
            functools.partial(self._decide, room, derive(self.name, self.seed, room, j))
            for room in range(len(self.rooms))
            for j in range(self.per_room)
        ]

    def _decide(self, room: int, op_seed: int):
        validated = self.rooms[room]
        settings = validated.planner
        if self.iterations is not None:
            settings = replace(settings, uct_iterations=self.iterations)
        state = dynamics.init_state(validated, op_seed)
        rng = random.Random(op_seed)
        before = dynamics.census(state)
        t0 = time.perf_counter()
        action, stats = planner.plan_with_stats(state, validated, settings, rng)
        interval = (t0, time.perf_counter())

        check(sum(before) == validated.population, "census != N")
        check(state.step == 0 and dynamics.census(state) == before, "planning mutated the state")
        check(stats["root_visits"] == settings.uct_iterations, "root visits != iterations")
        per_action = stats["per_action"]
        check(sum(a["visits"] for a in per_action) == stats["root_visits"], "child visits != root visits")
        legal = [a.describe() for a in planner.available_actions(state, settings)]
        check([a["action"] for a in per_action] == legal, "root children != legal actions")
        most = max(a["visits"] for a in per_action)
        chosen = next(a["action"] for a in per_action if a["visits"] == most)
        check(action.describe() == chosen, "chosen action is not the most visited")
        output = f"{validated.name} {action.describe()} {json.dumps(stats, sort_keys=True)}\n"
        # every UCT iteration from step 0 simulates the full horizon
        return interval, stats["root_visits"] * settings.horizon, output.encode()


# ---------------------------------------------------------------------------
# crowd_room
# ---------------------------------------------------------------------------


def crowd_scenario_text(seed: int, width: int, height: int, persons: int,
                        infectious: int, walls: int, horizon: int) -> str:
    """A generated room: ``walls`` wall tiles, ``persons`` persons of whom
    ``infectious`` start infectious, at default epidemic parameters."""
    rng = random.Random(seed)
    cells = ["."] * (width * height)
    tiles = rng.sample(range(width * height), walls + persons)
    for tile in tiles[:walls]:
        cells[tile] = "#"
    people = tiles[walls:]
    for k, tile in enumerate(people):
        cells[tile] = "I" if k < infectious else "S"
    rows = ["".join(cells[y * width:(y + 1) * width]) for y in range(height)]
    return "\n".join(
        ["[grid]", *rows, "", "[planner]", f"horizon={horizon}", "rounds=1", ""]
    )


class CrowdRoom:
    """Random-policy episodes with event logs in generated 20x20 rooms of
    100 persons, 5 of them infectious; each operation is one episode plus
    rendering its events JSONL and trajectory CSV. One episode in each of
    eight rooms, so a run averages over room layouts."""

    name = "crowd_room"
    min_rounds = 3

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        shape = (10, 10, 25, 2, 5, 20) if tiny else (20, 20, 100, 5, 20, 100)
        self.rooms = [
            scenario.validate(scenario.parse_scenario(
                crowd_scenario_text(derive(seed, r), *shape), name=f"crowd{r}"))
            for r in range(2 if tiny else 8)
        ]
        self.per_room = 1

    def operations(self) -> list:
        return [
            functools.partial(self._episode, room, derive(self.name, self.seed, r, j))
            for r, room in enumerate(self.rooms)
            for j in range(self.per_room)
        ]

    def _episode(self, validated, op_seed: int):
        settings = validated.planner
        t0 = time.perf_counter()
        episodes = planner.run_episode(validated, settings, "random", op_seed, collect_events=True)
        events = dynamics.events_to_jsonl(episodes[0].events)
        trajectory = episodes[0].trajectory.to_csv()
        interval = (t0, time.perf_counter())

        check(len(episodes) == 1, "one round expected")
        episode = episodes[0]
        check_trajectory(episode.trajectory, validated.population, settings.horizon)
        first, final = episode.trajectory.rows[0], episode.trajectory.final
        kinds = [e.kind for e in episode.events]
        check(kinds.count("infected") == final.cum_infections - first.cum_infections,
              "infected events != new infections")
        check(kinds.count("died") == final.cum_deaths, "died events != deaths")
        check(events.count("\n") == len(kinds), "JSONL line count != event count")
        return interval, settings.horizon, (trajectory + events).encode()


# ---------------------------------------------------------------------------
# harness_sweep
# ---------------------------------------------------------------------------


class HarnessSweep:
    """``gridepi experiment table2.exp --runs 1`` then ``gridepi benchmark
    schools.bench``, in process, exactly as a user runs them, with the
    workload seed as the CLI seed. The two commands take about 20 s, so a
    run holds one round and its timings are single samples."""

    name = "harness_sweep"
    min_rounds = 1

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        if tiny:
            self.experiment, self.benchmark = TINY / "tiny.exp", TINY / "tiny.bench"
        else:
            self.experiment, self.benchmark = asset_path("table2.exp"), asset_path("schools.bench")
        experiments = harness.parse_experiment_file(self.experiment)
        schools = harness.parse_benchmark_file(self.benchmark)
        self.experiment_rows = sum(len(s.variations) for s in experiments)
        self.benchmark_rows = sum(len(s.variations) for s in schools)
        # Environment steps of every episode the two commands run (the
        # planner's rollout steps inside them are not countable from here).
        self.experiment_steps = sum(
            len(s.variations) * s.scenario.planner.rounds * s.scenario.planner.horizon
            for s in experiments
        )
        self.benchmark_steps = sum(
            harness.rooms_for(s.enrollment, s.per_room) * len(s.variations)
            * s.planner.rounds * s.planner.horizon
            for s in schools
        )

    def operations(self) -> list:
        cli_seed = str(self.seed)
        return [
            functools.partial(
                self._command,
                ["experiment", str(self.experiment), "--runs", "1", "--seed", cli_seed],
                EXPERIMENT_HEADER, self.experiment_rows, self.experiment_steps),
            functools.partial(
                self._command,
                ["benchmark", str(self.benchmark), "--seed", cli_seed],
                BENCHMARK_HEADER, self.benchmark_rows, self.benchmark_steps),
        ]

    @staticmethod
    def _command(argv: list[str], header: str, rows: int, steps: int):
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.cli_main(argv)
        interval = (t0, time.perf_counter())
        text = out.getvalue()
        check(code == 0, f"{argv[0]} exited with {code}")
        lines = text.splitlines()
        check(lines[0] == header, f"{argv[0]} header changed")
        check(len(lines) == rows + 1, f"{argv[0]} wrote {len(lines) - 1} rows, expected {rows}")
        column = header.split(",").index("pred_pos_pct")
        for line in lines[1:]:
            check(0.0 <= float(line.split(",")[column]) <= 100.0, "positivity outside [0, 100]")
        return interval, steps, text.encode()


WORKLOADS = {w.name: w for w in (PlanRooms, HarnessSweep, CrowdRoom)}


# ---------------------------------------------------------------------------
# Set-up checks
# ---------------------------------------------------------------------------

MICRO_ROOM = "[grid]\nSIS\n\n[params]\np_mv=0.0\n"


def oracle_checks() -> list[tuple[bool, str]]:
    """Exact enumeration of a 3-person static room must sum to 1, and the
    conserving ODE must keep the population: (passed, what) per check."""
    micro = scenario.validate(scenario.parse_scenario(MICRO_ROOM, name="micro"))
    total = oracle.enumerate_exact(micro, 6).total
    v0 = oracle.CompartmentVector.from_counts(99.0, 0.0, 1.0, 0.0, 0.0)
    curve = oracle.seird_integrate(v0, scenario.EpiParams(), 0.01, 1000, "conserving")
    return [
        (abs(total - 1.0) <= 1e-12, f"enumerated probabilities sum to {total!r}"),
        (all(abs(v.total - v0.n) <= 1e-9 * v0.n for v in curve), "conserving ODE lost mass"),
    ]


def load_bundled_rooms() -> list:
    return [scenario.validate(scenario.load_scenario(asset_path(f"{r}.scn"))) for r in ROOMS]
