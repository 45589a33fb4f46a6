"""Exact equivalence of the step kernel's fast paths with their references.

The kernel scatters exposure from the infectious sources, draws random
indices through ``rng.randbelow`` and picks the random policy's action
without building the action list, and formats event lines directly.
Each must agree exactly (``==``, never ``approx``) with the reference it
replaces, or stored outputs would change.
"""

from __future__ import annotations

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from gridepi.dynamics import (
    Compartment,
    StepEvent,
    events_to_jsonl,
    exposure_misses,
    exposure_probability,
    init_state,
)
from gridepi.planner import _random_action, _vaccinations, available_actions
from gridepi.rng import randbelow
from gridepi.scenario import EpiParams, PlannerSettings, parse_scenario, validate

from helpers import random_scenario

# ---------------------------------------------------------------------------
# Exposure: scattered miss products == exposure_probability
# ---------------------------------------------------------------------------

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def exposure_cases(draw):
    """A grid with walls and persons of every kind, random mask and
    vaccination flags, and random exposure parameters."""
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
    for person in state.persons:
        person.masked = draw(st.booleans())
        person.vaccinated = draw(st.booleans())
    params = EpiParams(
        beta=draw(unit),
        k=draw(st.floats(min_value=1e-3, max_value=1.0)),
        mask_sus_mult=draw(unit),
        mask_inf_mult=draw(unit),
        vax_protection=draw(unit),
        exposure_radius=draw(st.integers(min_value=1, max_value=3)),
    )
    return state, params, width + height - 2


def _assert_scatter_matches(state, params, reach):
    sources = [p for p in state.persons if p.compartment is Compartment.I]
    misses = exposure_misses(sources, state, params, reach)
    for person in state.persons:
        if person.compartment is Compartment.S:
            assert 1.0 - misses.get(person.id, 1.0) == exposure_probability(
                person, state, params
            )
        else:
            assert person.id not in misses


@given(exposure_cases())
@settings(max_examples=200, deadline=None)
def test_scattered_exposure_equals_reference(case):
    _assert_scatter_matches(*case)


def test_scattered_exposure_many_masked_sources_around_one_target():
    # A masked, vaccinated target amid ten sources at distances 1, 2 and
    # 4, all masked but the one right below it, with a wall in between.
    validated = validate(
        parse_scenario("[grid]\nI.I.I\n.I#I.\nI.S.I\n.III.\n#...#\n")
    )
    state = init_state(validated, 0)
    for person in state.persons:
        person.masked = person.id != 9
    target = next(p for p in state.persons if p.compartment is Compartment.S)
    target.vaccinated = True
    for radius in (1, 2, 3):
        params = EpiParams(beta=0.9, k=0.7, exposure_radius=radius)
        _assert_scatter_matches(state, params, 5 + 5 - 2)
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
    vaccinations = _vaccinations(state, settings_)
    for _ in range(5):
        actions = available_actions(state, settings_)
        expected = actions[reference.randrange(len(actions))]
        assert _random_action(state, settings_, vaccinations, fast.getrandbits) is expected
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
    assert event.to_json() == expected
    assert events_to_jsonl([event, event]) == expected + "\n" + expected + "\n"
    assert events_to_jsonl([]) == ""
