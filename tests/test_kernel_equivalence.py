"""Exact equivalence of the step kernel's fast paths with their references.

The kernel runs on tile indices. It scatters exposure from the
infectious sources through per-tile contact rows (and
``exposure_probability`` reads one person's probability from that
scatter), draws random indices through ``rng.randbelow`` (the random
policy's action among them, as an index into ``available_actions``, and
a mover's tile), skips the transition phase where no one is exposed or
infectious, and formats event lines directly. Each must agree exactly
(``==``, never ``approx``) with the reference it replaces, draw for
draw, or stored outputs would change.
"""

from __future__ import annotations

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from gridepi.dynamics import (
    Compartment,
    StepEvent,
    _movement_inplace,
    _transition_inplace,
    events_to_jsonl,
    exposure_misses,
    exposure_probability,
    init_state,
)
from gridepi.planner import _random_action, available_actions
from gridepi.rng import randbelow
from gridepi.scenario import (
    ContactRows,
    EpiParams,
    GridMap,
    PlannerSettings,
    ScenarioConfig,
    parse_scenario,
    validate,
)

from helpers import (
    gather_exposure_probability,
    movement_reference,
    random_scenario,
    tuple_adjacency,
)

# ---------------------------------------------------------------------------
# Contact rows == a scan of the radius diamond with bounds and walls
# ---------------------------------------------------------------------------


def _diamond_scan(grid, tile, radius):
    """Sorted (tile, d) of the walkable tiles at Manhattan distance d in
    1..radius of ``tile``, by scanning every offset of the square."""
    y, x = divmod(tile, grid.width)
    return sorted(
        ((y + dy) * grid.width + x + dx, abs(dx) + abs(dy))
        for dx in range(-radius, radius + 1)
        for dy in range(-radius, radius + 1)
        if 1 <= abs(dx) + abs(dy) <= radius
        and grid.in_bounds(x + dx, y + dy)
        and grid.is_walkable(x + dx, y + dy)
    )


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.data(),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=200, deadline=None)
def test_contact_rows_equal_a_diamond_scan(width, height, data, radius):
    # Radii up to 6 on grids down to 1x1 reach past the clamp at
    # width + height - 2.
    walkable = data.draw(
        st.lists(st.sampled_from([True, True, False]), min_size=width * height,
                 max_size=width * height).filter(any)
    )
    grid = GridMap(width, height, tuple(walkable))
    validated = validate(ScenarioConfig(grid=grid, placements=()))
    rows = ContactRows(grid, radius)
    assert len(rows) == 0
    tiles = [tile for tile in range(width * height) if walkable[tile]]
    for tile in tiles:
        row = rows[tile]
        assert [d for d, _ in row] == sorted({d for _, d in _diamond_scan(grid, tile, radius)})
        assert all(ring for _, ring in row)
        flat = sorted((t, d) for d, ring in row for t in ring)
        assert flat == _diamond_scan(grid, tile, radius)
        assert rows[tile] is row
    assert sorted(rows) == tiles


# ---------------------------------------------------------------------------
# Exposure: scattered miss products == the per-target gather
# ---------------------------------------------------------------------------

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def exposure_cases(draw):
    """A grid with walls and persons of every kind, a random mask
    mandate, random refuser and vaccination flags, and random exposure
    parameters."""
    width = draw(st.integers(min_value=1, max_value=7))
    height = draw(st.integers(min_value=1, max_value=7))
    glyphs = draw(
        st.lists(
            st.sampled_from("#..SSSSIIIER"),
            min_size=width * height,
            max_size=width * height,
        )
    )
    if not any(g in "SIER" for g in glyphs):
        glyphs[0] = "S"
    rows = ["".join(glyphs[y * width:(y + 1) * width]) for y in range(height)]
    validated = validate(parse_scenario("[grid]\n" + "\n".join(rows) + "\n"))
    state = init_state(validated, 0)
    state.mask_mandate_active = draw(st.booleans())
    mask_refusers = []
    for person in state.persons:
        mask_refusers.append(draw(st.booleans()))
        person.vaccinated = draw(st.booleans())
    state.mask_refusers = tuple(mask_refusers)
    params = EpiParams(
        beta=draw(unit),
        k=draw(st.floats(min_value=1e-3, max_value=1.0)),
        mask_sus_mult=draw(unit),
        mask_inf_mult=draw(unit),
        vax_protection=draw(unit),
        exposure_radius=draw(st.integers(min_value=1, max_value=6)),
    )
    return state, params, validated


def _assert_scatter_matches(state, params, validated):
    sources = [p for p in state.persons if p.compartment is Compartment.I]
    rows = ContactRows(validated.grid, params.exposure_radius)
    misses = exposure_misses(sources, state, params, rows)
    for person in state.persons:
        if person.compartment is Compartment.S:
            expected = gather_exposure_probability(person, state, params)
            assert 1.0 - misses.get(person.id, 1.0) == expected
            assert exposure_probability(person, state, params) == expected
        else:
            assert person.id not in misses


@given(exposure_cases())
@settings(max_examples=200, deadline=None)
def test_scattered_exposure_equals_reference(case):
    _assert_scatter_matches(*case)


def test_scattered_exposure_many_masked_sources_around_one_target():
    # A masked, vaccinated target amid ten sources at distances 1, 2 and
    # 4, all masked by the mandate but the one right below it, a refuser,
    # with a wall in between.
    validated = validate(
        parse_scenario("[grid]\nI.I.I\n.I#I.\nI.S.I\n.III.\n#...#\n")
    )
    state = init_state(validated, 0)
    state.mask_mandate_active = True
    state.mask_refusers = tuple(person.id == 9 for person in state.persons)
    target = next(p for p in state.persons if p.compartment is Compartment.S)
    target.vaccinated = True
    for radius in (1, 2, 3):
        params = EpiParams(beta=0.9, k=0.7, exposure_radius=radius)
        _assert_scatter_matches(state, params, validated)
    assert exposure_probability(target, state, params) > 0.0


# ---------------------------------------------------------------------------
# Index draw: randbelow == random.Random.randrange, draw for draw
# ---------------------------------------------------------------------------


def test_randbelow_draws_exactly_like_randrange():
    for seed in (0, 1, 7, 1729, 2**40 + 3):
        fast = random.Random(seed)
        reference = random.Random(seed)
        for _ in range(3):
            for n in range(1, 65):
                assert randbelow(fast.getrandbits, n) == reference.randrange(n)
                assert fast.getstate() == reference.getstate()


# ---------------------------------------------------------------------------
# Movement: the tile draw == rng.randrange, draw for draw
# ---------------------------------------------------------------------------


def _check_movement(seed: int, p_mv: float) -> list[int]:
    """Run three movement phases and their (x, y) reference on equal
    copies of a random room, comparing after each; return the movers'
    free-neighbor counts."""
    rng = random.Random(seed)
    validated = validate(random_scenario(rng))
    width = validated.grid.width
    state = init_state(validated, seed)
    for person in state.persons:
        if rng.random() < 0.15:
            person.compartment = Compartment.D
    reference = state.clone()
    occupancy = {(p.x, p.y): p.id for p in reference.persons}
    adjacency = tuple_adjacency(validated.grid)
    fast_rng, reference_rng = random.Random(seed), random.Random(seed)
    counts = []
    for _ in range(3):
        _movement_inplace(state, validated.neighbors, width, p_mv, fast_rng)
        counts += movement_reference(reference, occupancy, adjacency, p_mv, reference_rng)
        assert [(p.x, p.y) for p in state.persons] == [(p.x, p.y) for p in reference.persons]
        occupant = state.occupant
        for p in state.persons:
            assert occupant[p.tile] == p.id
            assert occupancy[p.position] == p.id
        assert sum(1 for pid in occupant if pid >= 0) == len(state.persons)
        assert state.occupancy == occupancy
        assert fast_rng.getstate() == reference_rng.getstate()
    return counts


@given(st.integers(min_value=0, max_value=2**32), st.sampled_from([0.25, 0.6, 1.0]))
@settings(max_examples=200, deadline=None)
def test_movement_draws_like_randrange(seed, p_mv):
    _check_movement(seed, p_mv)


def test_movement_covers_every_free_neighbor_count():
    """Movers with 0, 1, 2, 3 and 4 free neighbors all occur, so the
    no-move, no-draw and rejection-loop cases are each compared."""
    seen = set()
    for seed in range(200):
        seen.update(_check_movement(seed, 1.0))
    assert seen == {0, 1, 2, 3, 4}


# ---------------------------------------------------------------------------
# Transition: no E and no I changes nothing and draws nothing
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100, deadline=None)
def test_transition_without_exposed_or_infectious_draws_nothing(seed):
    rng = random.Random(seed)
    validated = validate(random_scenario(rng))
    state = init_state(validated, seed)
    for person in state.persons:
        if person.compartment in (Compartment.E, Compartment.I):
            person.compartment = rng.choice((Compartment.S, Compartment.R, Compartment.D))
    before = state.clone()
    env = random.Random(seed)
    start = env.getstate()
    events = []
    assert _transition_inplace(state, validated.params, validated.contacts, env, events) == (0, 0)
    assert env.getstate() == start
    assert events == [] and state == before


# ---------------------------------------------------------------------------
# Random policy: _random_action == available_actions()[randrange(len)]
# ---------------------------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=10_000),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_random_action_draws_like_available_actions(seed, masks, vaccines, mandate):
    rng = random.Random(seed)
    state = init_state(validate(random_scenario(rng)), seed)
    state.mask_mandate_active = mandate
    for person in state.persons:
        person.vaccinated = rng.random() < 0.3
    settings_ = PlannerSettings(masks_available=masks, vaccines_available=vaccines)
    fast = random.Random(seed)
    reference = random.Random(seed)
    for _ in range(5):
        actions = available_actions(state, settings_)
        expected = actions[reference.randrange(len(actions))]
        assert _random_action(state, settings_, fast.getrandbits) is expected
        assert fast.getstate() == reference.getstate()


# ---------------------------------------------------------------------------
# Event log: direct formatter == json.dumps
# ---------------------------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=10**6),
    st.text(max_size=12),
    st.integers(min_value=0, max_value=10**6),
    st.text(max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_event_lines_equal_json_dumps(step, kind, person_id, detail):
    event = StepEvent(step, kind, person_id, detail)
    expected = json.dumps(
        {"step": step, "kind": kind, "person_id": person_id, "detail": detail}
    )
    assert events_to_jsonl([event]) == expected + "\n"
    assert events_to_jsonl([event, event]) == expected + "\n" + expected + "\n"
    assert events_to_jsonl([]) == ""
