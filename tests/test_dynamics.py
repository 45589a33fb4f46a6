"""Dynamics tests: initialization, movement, exposure, transitions."""

from __future__ import annotations

import functools
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridepi
from gridepi import assets, dynamics, fanout
from gridepi.dynamics import (
    Compartment,
    PersonState,
    SimState,
    StepEvent,
    TRAJECTORY_HEADER,
    Trajectory,
    census,
    death_probability_on_exit,
    events_to_jsonl,
    exposure_probability,
    init_state,
    step,
    step_inplace,
)
from gridepi.planner import NOOP, plan_with_stats, run_episode
from gridepi.rng import substream
from gridepi.scenario import EpiParams, load_scenario, parse_scenario, validate
from helpers import gather_exposure_probability, random_scenario

GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"

# every edge the health machine may take in one step, plus staying put
ALLOWED_TRANSITIONS = {
    (Compartment.S, Compartment.S),
    (Compartment.S, Compartment.E),
    (Compartment.E, Compartment.E),
    (Compartment.E, Compartment.S),
    (Compartment.E, Compartment.I),
    (Compartment.I, Compartment.I),
    (Compartment.I, Compartment.R),
    (Compartment.I, Compartment.D),
    (Compartment.R, Compartment.R),
    (Compartment.D, Compartment.D),
}


def _validated(text: str):
    return validate(parse_scenario(text))


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def test_init_census_and_counters():
    v = validate(load_scenario(assets.asset_path("small_space.scn")))
    state = init_state(v, 7)
    assert census(state) == (3, 0, 1, 0, 0)
    assert state.step == 0
    assert len(state.occupancy) == 4
    assert not state.mask_mandate_active
    for person in state.persons:
        assert state.occupancy[person.position] == person.id


def test_init_initial_recovered_counts_as_infected():
    v = _validated("[grid]\nRI\n")
    state = init_state(v, 3)
    _, _, i, r, d = census(state)
    assert i + r + d == 2


def test_init_refusers_deterministic():
    v = validate(load_scenario(assets.asset_path("small_crowded.scn")))
    a = init_state(v, 42)
    b = init_state(v, 42)
    assert a.mask_refusers == b.mask_refusers
    assert a.vax_refusers == b.vax_refusers


def test_init_zero_noncompliance_means_no_refusers():
    v = _validated("[grid]\nSSSI\n\n[params]\nmask_noncompliance=0.0\nvax_noncompliance=0.0\n")
    for seed in range(30):
        state = init_state(v, seed)
        assert state.mask_refusers == (False,) * len(state.persons)
        assert state.vax_refusers == (False,) * len(state.persons)


def test_init_full_noncompliance_marks_everyone():
    v = _validated("[grid]\nSSSI\n\n[params]\nmask_noncompliance=1.0\nvax_noncompliance=1.0\n")
    state = init_state(v, 5)
    assert state.mask_refusers == (True,) * len(state.persons)
    assert state.vax_refusers == (True,) * len(state.persons)


def test_init_pre_vaccinated():
    v = _validated("[grid]\nVI\n\n[params]\nvax_noncompliance=1.0\n")
    state = init_state(v, 1)
    assert state.persons[0].vaccinated
    assert not state.vax_refusers[0]
    assert state.persons[0].compartment is Compartment.S


def test_compliance_is_held_once_by_the_state():
    """Refusals are episode facts, held by the state in two tuples indexed
    by person id: a person carries no flag, no state is built without
    them, and a clone or a stepped copy shares the same tuples."""
    names = [f.name for f in fields(PersonState)]
    assert names == ["id", "compartment", "tile", "width", "vaccinated"]
    with pytest.raises(TypeError):
        SimState(0, [], [])
    v = validate(load_scenario(assets.asset_path("small_crowded.scn")))
    state = init_state(v, 42)
    assert len(state.mask_refusers) == len(state.vax_refusers) == v.population
    clone = state.clone()
    assert clone.mask_refusers is state.mask_refusers
    assert clone.vax_refusers is state.vax_refusers
    after, _ = step(state, NOOP, v, substream(42, "env"))
    assert after.mask_refusers is state.mask_refusers
    assert after.vax_refusers is state.vax_refusers


# ---------------------------------------------------------------------------
# Movement
# ---------------------------------------------------------------------------


def test_no_movement_when_p_mv_zero():
    v = _validated("[grid]\nS..I\n....\n\n[params]\np_mv=0.0\n")
    state = init_state(v, 9)
    start = [p.position for p in state.persons]
    rng = substream(9, "env")
    for _ in range(5):
        state, _ = step(state, NOOP, v, rng)
    assert [p.position for p in state.persons] == start


def test_enclosed_person_never_moves():
    v = _validated("[grid]\n###\n#S#\n###\n\n[params]\np_mv=1.0\n")
    state = init_state(v, 4)
    for seed in range(10):
        moved, _ = step(state, NOOP, v, substream(seed, "env"))
        assert moved.persons[0].position == (1, 1)


def test_contested_tile_goes_to_lower_id():
    # two persons flank one free tile; with p_mv=1 the lower id takes it
    v = _validated("[grid]\nS.S\n\n[params]\np_mv=1.0\n")
    state = init_state(v, 0)
    for seed in range(25):
        moved, _ = step(state, NOOP, v, substream(seed, "m"))
        assert moved.persons[0].position == (1, 0)
        assert moved.persons[1].position == (2, 0)
        assert len(moved.occupancy) == 2


def test_movement_keeps_occupancy_consistent():
    rng = random.Random(100)
    for _ in range(15):
        v = validate(random_scenario(rng))
        state = init_state(v, rng.randrange(10_000))
        env = substream(rng.randrange(10_000), "env")
        for _ in range(8):
            state, _ = step(state, NOOP, v, env)
            assert len(state.occupancy) == len(state.persons)
            for person in state.persons:
                assert state.occupancy[person.position] == person.id
                assert v.grid.is_walkable(person.x, person.y)


def test_dead_person_blocks_tile():
    # the infectious person dies on the first exit; the susceptible one
    # has the corpse tile as its only neighbor and can never move
    v = _validated(
        "[grid]\nSI\n\n[params]\np_mv=1.0\ninfected_persistence=0.0\n"
        "gamma=0.0\nmu=1.0\nbeta=0.0\n"
    )
    state = init_state(v, 2)
    rng = substream(2, "env")
    state, _ = step(state, NOOP, v, rng)
    assert state.persons[1].compartment is Compartment.D
    corpse_tile = state.persons[1].position
    for _ in range(5):
        state, _ = step(state, NOOP, v, rng)
        assert state.persons[1].position == corpse_tile
        assert state.persons[0].position != corpse_tile
    assert len(state.occupancy) == 2


def test_position_is_read_from_the_tile(monkeypatch):
    """A person's position lives in its tile alone: ``x``, ``y`` and
    ``position`` are read through the width the person carries, so a
    clone and a round sent back by a forked worker answer them too."""
    assert {"tile", "width"} <= set(PersonState.__slots__)
    assert not {"x", "y"} & set(PersonState.__slots__)
    # 12 x 11 with walls, so both coordinates reach two digits
    rows = [["#" if (x + 2 * y) % 9 == 4 else "." for x in range(12)] for y in range(11)]
    for x, y, letter in ((0, 0, "I"), (11, 0, "S"), (10, 9, "S"), (11, 10, "E"), (0, 10, "S")):
        rows[y][x] = letter
    grid = "\n".join("".join(row) for row in rows)
    v = _validated(f"[grid]\n{grid}\n\n[params]\np_mv=1.0\n")
    state = init_state(v, 3)
    assert [p.position for p in state.persons] == [pl.position for pl in v.placements]
    person = state.persons[0]
    with pytest.raises(AttributeError):
        person.x = 1
    for x, y in v.grid.walkable_positions():
        person.tile = y * 12 + x
        for p in (person, person.clone()):
            assert divmod(p.tile, 12) == (y, x)
            assert (p.x, p.y) == p.position == (x, y)
            assert p.width == 12

    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    monkeypatch.setattr(fanout, "FORK_MIN_BUDGET", 0)
    results = run_episode(v, replace(v.planner, horizon=6, rounds=2), "random", 5)
    assert len(forks) == 2
    for result in results:
        final = result.final_state
        assert [p.width for p in final.persons] == [12] * 5
        assert final.occupancy == {p.position: p.id for p in final.persons}
        assert all(v.grid.is_walkable(p.x, p.y) for p in final.persons)
    assert [p.position for p in results[0].final_state.persons] != [
        pl.position for pl in v.placements
    ]


# ---------------------------------------------------------------------------
# Exposure
# ---------------------------------------------------------------------------


def _two_person_state(source_masked=False, target_masked=False, target_vaccinated=False):
    # a side is masked under an active mandate unless it refuses
    v = _validated("[grid]\nSI\n\n[params]\np_mv=0.0\n")
    state = init_state(v, 0)
    state.mask_mandate_active = source_masked or target_masked
    state.mask_refusers = (not target_masked, not source_masked)
    state.persons[0].vaccinated = target_vaccinated
    return state, v.params


def test_exposure_single_adjacent_source():
    state, params = _two_person_state()
    assert exposure_probability(state.persons[0], state, params) == pytest.approx(0.78)


def test_exposure_vaccinated_target():
    state, params = _two_person_state(target_vaccinated=True)
    assert exposure_probability(state.persons[0], state, params) == pytest.approx(
        0.78 * 0.13
    )


def test_exposure_both_masked():
    state, params = _two_person_state(source_masked=True, target_masked=True)
    assert exposure_probability(state.persons[0], state, params) == pytest.approx(
        0.78 * 0.6 * 0.8
    )


def test_exposure_two_sources_combine():
    v = _validated("[grid]\nISI\n\n[params]\np_mv=0.0\n")
    state = init_state(v, 0)
    target = state.persons[1]
    assert exposure_probability(target, state, v.params) == pytest.approx(
        1 - (1 - 0.78) ** 2
    )
    assert exposure_probability(target, state, v.params) == pytest.approx(0.9516)


def test_exposure_out_of_radius_is_zero():
    v = _validated("[grid]\nS.I\n\n[params]\np_mv=0.0\n")
    state = init_state(v, 0)
    assert exposure_probability(state.persons[0], state, v.params) == 0.0


def test_exposure_radius_two_decays_with_distance():
    v = _validated("[grid]\nS.I\n\n[params]\np_mv=0.0\nexposure_radius=2\n")
    state = init_state(v, 0)
    assert exposure_probability(state.persons[0], state, v.params) == pytest.approx(
        0.78 / 2
    )


def test_exposure_requires_susceptible_target():
    v = _validated("[grid]\nSI\n")
    state = init_state(v, 0)
    with pytest.raises(ValueError):
        exposure_probability(state.persons[1], state, v.params)


def test_exposure_no_sources():
    v = _validated("[grid]\nSR\n")
    state = init_state(v, 0)
    assert exposure_probability(state.persons[0], state, v.params) == 0.0


def test_huge_exposure_radius_is_clamped_to_the_grid():
    # No tile of the 3x1 grid lies more than width + height - 2 = 2 away,
    # so a larger radius must give the radius-2 history without scanning
    # (2r+1)^2 offsets per source and step; the source stays infectious.
    # The radius stays moderate so that a kernel without the clamp fails
    # on time (about 2 s) instead of exhausting memory.
    def history(radius):
        v = _validated(
            f"[grid]\nSI.\n\n[params]\nexposure_radius={radius}\n"
            "infected_persistence=1.0\n"
        )
        state = init_state(v, 5)
        rng = substream(5, "env")
        trail = []
        for _ in range(20):
            state, events = step(state, NOOP, v, rng)
            trail.append((census(state), events))
        return trail

    reference = history(2)
    started = time.perf_counter()
    assert history(400) == reference
    assert time.perf_counter() - started < 0.5


def test_exposure_probability_scan_is_bounded_by_the_sources():
    # The probability reads the kernel's scatter through contact rows
    # that hold only the target: a huge radius must give the gather's
    # value without scanning (2r+1)^2 offsets per call. The radius stays
    # moderate so that a scan of the whole diamond fails on time (about
    # 2 s) instead of exhausting memory.
    v = _validated("[grid]\nSSI\n\n[params]\np_mv=0.0\nexposure_radius=400\n")
    state = init_state(v, 0)
    started = time.perf_counter()
    for _ in range(20):
        for target in state.persons[:2]:
            assert exposure_probability(target, state, v.params) == (
                gather_exposure_probability(target, state, v.params)
            )
    assert time.perf_counter() - started < 0.5
    assert exposure_probability(state.persons[0], state, v.params) == pytest.approx(
        0.78 / 2
    )


def test_large_radius_room_builds_only_the_rows_it_reads():
    # A legal 40x40 room at radius 100 (clamped to 78): a table of every
    # tile's contact row holds 2.56 million (tile, d) entries, about
    # 99 MB under tracemalloc. Validating the room and stepping it once
    # builds only the rows its two sources stand on, about 0.3 MB.
    rows = ["." * 40 for _ in range(40)]
    rows[0] = "I" + "S" * 9 + "." * 29 + "I"
    rows[20] = "S" * 20 + "." * 20
    config = parse_scenario(
        "[grid]\n" + "\n".join(rows) + "\n\n[params]\nexposure_radius=100\n"
    )
    tracemalloc.start()
    try:
        v = validate(config)
        state = init_state(v, 0)
        step_inplace(state, NOOP, v, v.planner, random.Random(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(v.contacts) <= 2
    assert peak < 2_000_000


def test_death_probability_on_exit():
    v = _validated("[grid]\nSI\n")
    state = init_state(v, 0)
    infectious = state.persons[1]
    assert death_probability_on_exit(infectious, v.params) == pytest.approx(0.07)
    infectious.vaccinated = True
    assert death_probability_on_exit(infectious, v.params) == pytest.approx(0.07 * 0.13)


# ---------------------------------------------------------------------------
# Health transitions
# ---------------------------------------------------------------------------


def test_transitions_are_synchronous():
    # every person is decided against the start-of-phase census. SI and
    # IS: the source always leaves I this step, yet its neighbor is still
    # exposed, whether it is decided before or after the source. EI with
    # sigma=0: the exposed person reverts to S and is not exposed again
    # by the staying source in the same step.
    exits = "[params]\np_mv=0.0\nbeta=1.0\ninfected_persistence=0.0\n"
    stays = "[params]\np_mv=0.0\nbeta=1.0\nsigma=0.0\ninfected_persistence=1.0\n"
    exposed = {Compartment.E}
    left = {Compartment.R, Compartment.D}
    cases = [
        ("SI", exits, (exposed, left)),
        ("IS", exits, (left, exposed)),
        ("EI", stays, ({Compartment.S}, {Compartment.I})),
    ]
    for row, params, expected in cases:
        v = _validated(f"[grid]\n{row}\n\n{params}")
        for seed in range(10):
            state = init_state(v, seed)
            after, _ = step(state, NOOP, v, substream(seed, "env"))
            got = [p.compartment for p in after.persons]
            assert all(c in allowed for c, allowed in zip(got, expected)), (row, seed, got)


def test_exposed_progression_with_certain_sigma():
    v = _validated("[grid]\nE.\n\n[params]\nsigma=1.0\np_mv=0.0\n")
    state = init_state(v, 0)
    after, _ = step(state, NOOP, v, substream(0, "env"))
    assert after.persons[0].compartment is Compartment.I
    assert census(after) == (0, 0, 1, 0, 0)


def test_exposed_reversion_with_zero_sigma():
    v = _validated("[grid]\nE.\n\n[params]\nsigma=0.0\np_mv=0.0\n")
    state = init_state(v, 0)
    after, _ = step(state, NOOP, v, substream(0, "env"))
    assert after.persons[0].compartment is Compartment.S
    assert census(after) == (1, 0, 0, 0, 0)


def test_all_recovered_is_absorbing():
    v = _validated("[grid]\nRR\n")
    state = init_state(v, 1)
    after, events = step(state, NOOP, v, substream(1, "env"))
    assert census(after) == (0, 0, 0, 2, 0)
    assert all(e.kind == "moved" for e in events)
    assert after.step == 1


def test_step_counters_and_monotonicity():
    rng = random.Random(200)
    for _ in range(10):
        v = validate(random_scenario(rng))
        state = init_state(v, rng.randrange(10_000))
        env = substream(rng.randrange(10_000), "env")
        for _ in range(10):
            _, _, i0, r0, d0 = census(state)
            state, _ = step(state, NOOP, v, env)
            _, _, i, r, d = census(state)
            assert i + r + d >= i0 + r0 + d0
            assert d >= d0


def test_step_only_legal_transitions():
    rng = random.Random(300)
    for _ in range(10):
        v = validate(random_scenario(rng))
        state = init_state(v, rng.randrange(10_000))
        env = substream(rng.randrange(10_000), "env")
        for _ in range(10):
            before = {p.id: p.compartment for p in state.persons}
            state, _ = step(state, NOOP, v, env)
            for person in state.persons:
                assert (before[person.id], person.compartment) in ALLOWED_TRANSITIONS


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_census_conserves_population(scenario_seed, run_seed):
    v = validate(random_scenario(random.Random(scenario_seed)))
    n = v.population
    state = init_state(v, run_seed)
    env = substream(run_seed, "env")
    assert sum(census(state)) == n
    for _ in range(5):
        state, _ = step(state, NOOP, v, env)
        assert sum(census(state)) == n


def test_step_is_pure():
    v = _validated("[grid]\nSI\n")
    state = init_state(v, 8)
    snapshot = state.clone()
    step(state, NOOP, v, substream(8, "env"))
    assert state == snapshot


def test_same_seed_same_history():
    v = validate(load_scenario(assets.asset_path("small_crowded.scn")))

    def history(seed):
        state = init_state(v, seed)
        env = substream(seed, "env")
        rows = []
        events = []
        for _ in range(10):
            state, ev = step(state, NOOP, v, env)
            rows.append(census(state))
            events.extend(ev)
        return rows, events_to_jsonl(events)

    assert history(77) == history(77)
    assert history(77) != history(78)


# ---------------------------------------------------------------------------
# Trajectory and event formats
# ---------------------------------------------------------------------------


def test_trajectory_csv_shape():
    v = _validated("[grid]\nSI\n\n[params]\np_mv=0.0\nbeta=0.0\n")
    state = init_state(v, 0)
    trajectory = Trajectory()
    trajectory.record(state)
    env = substream(0, "env")
    for _ in range(3):
        state, _ = step(state, NOOP, v, env)
        trajectory.record(state)
    text = trajectory.to_csv()
    lines = text.splitlines()
    assert lines[0] == TRAJECTORY_HEADER
    assert lines[1] == "0,1,0,1,0,0,1,0"
    assert len(lines) == 5
    assert trajectory.final.step == 3


def test_event_log_is_json_lines():
    v = validate(load_scenario(assets.asset_path("small_space.scn")))
    state = init_state(v, 3)
    _, events = step(state, NOOP, v, substream(3, "env"))
    text = events_to_jsonl(events)
    for line in text.splitlines():
        payload = json.loads(line)
        assert set(payload) == {"step", "kind", "person_id", "detail"}
        assert payload["step"] == 0


# crowd_r1 at seed 3 under the random policy writes every event kind
EVENT_KINDS = {
    "moved", "exposed", "infected", "recovered", "died",
    "masked", "vaccinated", "compliance_refusal",
}
MOVE_DETAIL = re.compile(r"\((\d+),(\d+)\)->\((\d+),(\d+)\)")


def _random_episodes(path, seed):
    v = validate(load_scenario(path))
    return v, run_episode(v, v.planner, "random", seed, collect_events=True)


def test_kernel_events_are_step_events():
    _, episodes = _random_episodes(GOLDEN_INPUTS / "crowd_r1.scn", 3)
    events = episodes[0].events
    assert {e.kind for e in events} == EVENT_KINDS
    refused = {e.detail for e in events if e.kind == "compliance_refusal"}
    assert refused == {"mask_mandate", "vaccination"}
    for e in events:
        assert isinstance(e, StepEvent)
        assert StepEvent(*e) == e
        assert repr(StepEvent(*e)) == repr(e)
    for name in StepEvent._fields:
        with pytest.raises(AttributeError):
            setattr(events[0], name, 0)


@pytest.mark.parametrize(
    "path", [GOLDEN_INPUTS / "crowd_r1.scn", assets.asset_path("small_crowded.scn")]
)
def test_moved_events_rebuild_positions(path):
    v, episodes = _random_episodes(path, 3)
    for r, episode in enumerate(episodes):
        state = init_state(v, 3 + r)
        positions = [(p.x, p.y) for p in state.persons]
        occupancy = dict(state.occupancy)
        moves = [e for e in episode.events if e.kind == "moved"]
        assert moves
        for e in moves:
            x0, y0, x1, y1 = map(int, MOVE_DETAIL.fullmatch(e.detail).groups())
            assert positions[e.person_id] == (x0, y0)
            assert occupancy.pop((x0, y0)) == e.person_id
            assert (x1, y1) not in occupancy
            positions[e.person_id] = (x1, y1)
            occupancy[(x1, y1)] = e.person_id
        final = episode.final_state
        assert positions == [(p.x, p.y) for p in final.persons]
        assert occupancy == final.occupancy


def _walled_room(rng, width, height):
    """A ``width`` x ``height`` room with random walls and one person."""
    cells = ["#" if rng.random() < 0.2 else "." for _ in range(width * height)]
    cells[0] = "S"
    rows = ["".join(cells[y * width:(y + 1) * width]) for y in range(height)]
    return validate(parse_scenario("[grid]\n" + "\n".join(rows) + "\n"))


def _divmod_text(tile, to_tile, width):
    y0, x0 = divmod(tile, width)
    y1, x1 = divmod(to_tile, width)
    return f"({x0},{y0})->({x1},{y1})"


def test_move_text_table_per_width(monkeypatch):
    """Two rooms of width 12 but different heights and walls share one
    table, and it holds the divmod text of every move they can make."""
    tables = functools.cache(dynamics._MoveText)
    monkeypatch.setattr(dynamics, "_move_texts", tables)
    rng = random.Random(21)
    for height in (11, 14):
        v = _walled_room(rng, 12, height)
        table = tables(12)
        before = len(table)
        for tile, row in enumerate(v.neighbors):
            for to_tile in row:
                assert table[tile << 32 | to_tile] == _divmod_text(tile, to_tile, 12)
        assert 0 < len(table) - before <= 4 * v.walkable_count
    assert tables.cache_info().currsize == 1
    assert any(re.search(r"\(1\d,1\d\)", text) for text in tables(12).values())


def test_move_text_is_built_only_for_logged_moves(monkeypatch):
    tables = functools.cache(dynamics._MoveText)
    monkeypatch.setattr(dynamics, "_move_texts", tables)
    v = validate(load_scenario(assets.asset_path("small_crowded.scn")))
    state = init_state(v, 3)
    _, stats = plan_with_stats(state, v, replace(v.planner, uct_iterations=40), substream(3, "plan"))
    assert stats["root_visits"] == 40
    run_episode(v, v.planner, "random", 3)
    assert tables.cache_info().currsize == 0
    episodes = run_episode(v, v.planner, "random", 3, collect_events=True)
    assert tables.cache_info().currsize == 1
    table = tables(v.grid.width)
    moves = {e.detail for episode in episodes for e in episode.events if e.kind == "moved"}
    assert set(table.values()) == moves
    pairs = {(tile, to_tile) for tile, row in enumerate(v.neighbors) for to_tile in row}
    assert {(key >> 32, key & 0xFFFFFFFF) for key in table} <= pairs
    assert len(table) <= 4 * v.walkable_count


# ---------------------------------------------------------------------------
# Module structure
# ---------------------------------------------------------------------------


def test_dynamics_steps_without_importing_the_planner():
    code = (
        "import sys\n"
        "from gridepi.dynamics import NOOP, init_state, step\n"
        "from gridepi.rng import substream\n"
        "from gridepi.scenario import parse_scenario, validate\n"
        "v = validate(parse_scenario('[grid]\\nSI.\\n'))\n"
        "step(init_state(v, 0), NOOP, v, substream(0, 'env'))\n"
        "assert 'gridepi.planner' not in sys.modules\n"
    )
    src = str(Path(gridepi.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
