"""Planner tests: actions, rewards, UCT search, episode driver."""

from __future__ import annotations

import random
from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings as hypothesis_settings
from hypothesis import strategies as st

from gridepi import assets, planner
from gridepi.dynamics import (
    Compartment,
    census,
    exposure_probability,
    init_state,
    reward,
    step,
    step_inplace,
)
from gridepi.planner import (
    MANDATE_MASKS,
    NOOP,
    Action,
    ActionKind,
    IllegalActionError,
    SearchNode,
    _quiescent,
    _recommend,
    _search,
    apply_action_inplace,
    available_actions,
    plan,
    plan_with_stats,
    run_episode,
    vaccinate,
)
from gridepi.rng import substream
from gridepi.scenario import (
    PlannerSettings,
    ScenarioValidationError,
    load_scenario,
    parse_scenario,
    validate,
)
from helpers import random_scenario


def _validated(text: str):
    return validate(parse_scenario(text))


def _small_space():
    return validate(load_scenario(assets.asset_path("small_space.scn")))


_BUNDLED_ROOMS = {
    name: validate(load_scenario(assets.asset_path(name)))
    for name in ("small_space.scn", "small_crowded.scn", "larger_space.scn", "larger_crowded.scn")
}


def _apply(state, action, settings):
    """Apply ``action`` to a clone of ``state``; return the clone and events."""
    after = state.clone()
    events = []
    apply_action_inplace(after, action, settings, events)
    return after, events


# ---------------------------------------------------------------------------
# Action values
# ---------------------------------------------------------------------------


def test_action_descriptions():
    assert NOOP.describe() == "noop"
    assert MANDATE_MASKS.describe() == "mandate_masks"
    assert vaccinate(4).describe() == "vaccinate:4"


def test_action_canonical_order():
    shuffled = [vaccinate(3), NOOP, vaccinate(1), MANDATE_MASKS]
    assert sorted(shuffled) == [NOOP, MANDATE_MASKS, vaccinate(1), vaccinate(3)]


def test_vaccinate_is_interned():
    assert vaccinate(2) is vaccinate(2)
    assert vaccinate(2) == Action(ActionKind.VACCINATE, 2)
    # available_actions lists the interned objects, also for ids above
    # any that an earlier, smaller state listed
    settings_ = PlannerSettings(vaccines_available=True)
    for n in (3, 97):
        state = init_state(validate(parse_scenario("[grid]\n" + "S" * n + "\n")), 0)
        listed = [a for a in available_actions(state, settings_) if a.kind is ActionKind.VACCINATE]
        assert listed == [Action(ActionKind.VACCINATE, i) for i in range(n)]
        assert all(a is vaccinate(a.person_id) for a in listed)


# ---------------------------------------------------------------------------
# Available actions
# ---------------------------------------------------------------------------


def test_available_actions_small_space():
    v = _small_space()
    state = init_state(v, 0)
    # person 2 is the infectious one; everyone else is a vaccination target
    assert available_actions(state, v.planner) == [
        NOOP,
        MANDATE_MASKS,
        vaccinate(0),
        vaccinate(1),
        vaccinate(3),
    ]


def test_available_actions_respect_flags():
    v = _small_space()
    state = init_state(v, 0)
    masks_off = replace(v.planner, masks_available=False)
    assert MANDATE_MASKS not in available_actions(state, masks_off)
    vax_off = replace(v.planner, vaccines_available=False)
    assert available_actions(state, vax_off) == [NOOP, MANDATE_MASKS]
    neither = replace(v.planner, masks_available=False, vaccines_available=False)
    assert available_actions(state, neither) == [NOOP]


def test_mandate_unavailable_once_active():
    v = _small_space()
    state = init_state(v, 0)
    after, _ = _apply(state, MANDATE_MASKS, v.planner)
    assert MANDATE_MASKS not in available_actions(after, v.planner)


def test_vaccinated_person_leaves_action_set():
    v = _validated("[grid]\nSI\n\n[params]\nvax_noncompliance=0.0\n")
    state = init_state(v, 0)
    after, _ = _apply(state, vaccinate(0), v.planner)
    assert vaccinate(0) not in available_actions(after, v.planner)


def test_recovered_person_is_vaccination_target():
    v = _validated("[grid]\nRI\n")
    state = init_state(v, 0)
    assert vaccinate(0) in available_actions(state, v.planner)


# ---------------------------------------------------------------------------
# Applying actions
# ---------------------------------------------------------------------------


def test_noop_changes_nothing():
    v = _small_space()
    state = init_state(v, 1)
    after, events = _apply(state, NOOP, v.planner)
    assert after == state
    assert events == []


def test_mandate_masks_compliant_population():
    v = _validated("[grid]\nSSI\n\n[params]\nmask_noncompliance=0.0\n")
    state = init_state(v, 0)
    after, events = _apply(state, MANDATE_MASKS, v.planner)
    assert after.mask_mandate_active
    # the S next to the source and the source both wear masks
    assert exposure_probability(after.persons[1], after, v.params) == pytest.approx(
        0.78 * 0.6 * 0.8
    )
    assert events == [(0, "masked", 0, ""), (0, "masked", 1, ""), (0, "masked", 2, "")]


def test_mandate_masks_refusers():
    v = _validated("[grid]\nSSI\n\n[params]\nmask_noncompliance=1.0\n")
    state = init_state(v, 0)
    after, events = _apply(state, MANDATE_MASKS, v.planner)
    assert after.mask_mandate_active
    assert exposure_probability(after.persons[1], after, v.params) == pytest.approx(0.78)
    assert events == [(0, "compliance_refusal", pid, "mask_mandate") for pid in range(3)]


def test_mandate_skips_the_dead():
    v = _validated(
        "[grid]\nSI\n\n[params]\nmask_noncompliance=0.0\np_mv=0.0\nbeta=0.0\n"
        "infected_persistence=0.0\ngamma=0.0\nmu=1.0\n"
    )
    state = init_state(v, 0)
    state, _ = step(state, NOOP, v, substream(0, "env"))
    assert state.persons[1].compartment is Compartment.D
    after, events = _apply(state, MANDATE_MASKS, v.planner)
    assert events == [(1, "masked", 0, "")]
    quiet = state.clone()
    apply_action_inplace(quiet, MANDATE_MASKS, v.planner)
    assert quiet == after


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
@pytest.mark.parametrize("room", sorted(_BUNDLED_ROOMS))
def test_mandate_changes_the_state_alike_with_and_without_events(room, seed):
    v = _BUNDLED_ROOMS[room]
    settings = replace(v.planner, masks_available=True)
    state = init_state(v, seed)
    logged, quiet, events = state.clone(), state.clone(), []
    apply_action_inplace(logged, MANDATE_MASKS, settings, events)
    apply_action_inplace(quiet, MANDATE_MASKS, settings, None)
    assert logged == quiet
    assert len(events) == sum(p.compartment is not Compartment.D for p in state.persons)
    assert quiet.persons == state.persons
    assert quiet.mask_mandate_active
    assert quiet.action_costs == state.action_costs + settings.cost_mask_action


def test_mask_compliance_rate_matches_parameter():
    v = validate(load_scenario(assets.asset_path("small_crowded.scn")))
    masked = total = 0
    for seed in range(600):
        state = init_state(v, seed)
        after, events = _apply(state, MANDATE_MASKS, v.planner)
        masked += sum(e.kind == "masked" for e in events)
        total += len(after.persons)
    assert masked / total == pytest.approx(0.96, abs=0.01)


def test_vaccination_success_and_cost():
    settings = PlannerSettings(cost_vax_action=-0.5)
    v = _validated("[grid]\nSI\n\n[params]\nvax_noncompliance=0.0\n")
    state = init_state(v, 0)
    after, events = _apply(state, vaccinate(0), settings)
    assert after.persons[0].vaccinated
    assert after.action_costs == -0.5
    assert [e.kind for e in events] == ["vaccinated"]


def test_vaccination_refusal_still_costs():
    settings = PlannerSettings(cost_vax_action=-0.5)
    v = _validated("[grid]\nSI\n\n[params]\nvax_noncompliance=1.0\n")
    state = init_state(v, 0)
    after, events = _apply(state, vaccinate(0), settings)
    assert not after.persons[0].vaccinated
    assert after.action_costs == -0.5
    assert [e.kind for e in events] == ["compliance_refusal"]
    assert events[0].detail == "vaccination"


@pytest.mark.parametrize(
    "scenario, action, settings_patch",
    [
        ("[grid]\nSI\n", MANDATE_MASKS, {"masks_available": False}),
        ("[grid]\nSI\n", vaccinate(0), {"vaccines_available": False}),
        ("[grid]\nSI\n", vaccinate(5), {}),
        ("[grid]\nSI\n", vaccinate(-1), {}),
        ("[grid]\nSI\n", vaccinate(1), {}),
        ("[grid]\nEI\n", vaccinate(0), {}),
    ],
)
def test_illegal_actions_raise_and_leave_state_alone(scenario, action, settings_patch):
    v = _validated(scenario)
    settings = replace(v.planner, **settings_patch)
    state = init_state(v, 0)
    snapshot = state.clone()
    with pytest.raises(IllegalActionError):
        apply_action_inplace(state, action, settings)
    assert state == snapshot


def test_double_mandate_is_illegal():
    v = _small_space()
    state = init_state(v, 0)
    apply_action_inplace(state, MANDATE_MASKS, v.planner)
    with pytest.raises(IllegalActionError):
        apply_action_inplace(state, MANDATE_MASKS, v.planner)


def test_double_vaccination_is_illegal():
    v = _validated("[grid]\nSI\n\n[params]\nvax_noncompliance=0.0\n")
    state = init_state(v, 0)
    apply_action_inplace(state, vaccinate(0), v.planner)
    with pytest.raises(IllegalActionError):
        apply_action_inplace(state, vaccinate(0), v.planner)


def test_npi_flags_survive_steps():
    v = _validated("[grid]\nS.I\n\n[params]\nmask_noncompliance=0.0\nvax_noncompliance=0.0\n")
    state = init_state(v, 0)
    refusers = state.mask_refusers
    env = substream(0, "env")
    state, _ = step(state, MANDATE_MASKS, v, env)
    state, _ = step(state, vaccinate(0), v, env)
    for _ in range(5):
        state, _ = step(state, NOOP, v, env)
        assert state.mask_mandate_active
        assert state.persons[0].vaccinated
        assert state.mask_refusers == refusers


# ---------------------------------------------------------------------------
# Reward accounting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mu, expected", [(1.0, -6.0), (0.0, -1.0)])
def test_step_inplace_counts_new_harm(mu, expected):
    # the exposed person becomes infectious, a new infection; the
    # infectious person leaves I and dies with probability mu
    settings = PlannerSettings()
    v = _validated(
        "[grid]\nEI\n\n[params]\nsigma=1.0\ninfected_persistence=0.0\n"
        f"beta=0.0\np_mv=0.0\nmu={mu}\n"
    )
    state = init_state(v, 0)
    assert step_inplace(state, NOOP, v, settings, substream(0, "env")) == expected


def test_step_inplace_noop_reward_is_zero():
    settings = PlannerSettings()
    v = _validated("[grid]\nS.R\n\n[params]\np_mv=0.0\n")
    state = init_state(v, 0)
    assert step_inplace(state, NOOP, v, settings, substream(0, "env")) == 0.0


def test_episode_reward_identity():
    # the episode reward must equal the closed form computed from the final
    # state, with bit-identical floats
    v = validate(load_scenario(assets.asset_path("small_crowded.scn")))
    settings = replace(v.planner, rounds=1, uct_iterations=16)
    for seed in (11, 12, 13):
        (result,) = run_episode(v, settings, "planner", seed)
        final = result.final_state
        _, _, i, r, d = census(final)
        initial_infections = sum(
            1
            for p in init_state(v, seed).persons
            if p.compartment in (Compartment.I, Compartment.R)
        )
        expected = (
            settings.pen_i * (i + r + d - initial_infections)
            + settings.pen_d * d
            + final.action_costs
        )
        assert result.reward == expected


# Dyadic costs and penalties keep every sum exact, so rewards compare bit for bit.
HANDED_COSTS = {"cost_mask_action": -0.25, "cost_vax_action": -0.125}


def _closed_form(settings, start, final):
    """The census-based reference for the reward from ``start`` to ``final``."""
    _, _, i0, r0, d0 = census(start)
    _, _, i1, r1, d1 = census(final)
    infections = (i1 + r1 + d1) - (i0 + r0 + d0)
    return reward(settings, infections, d1 - d0, final.action_costs - start.action_costs)


@pytest.mark.parametrize("policy", ["random", "planner"])
def test_run_episode_charges_the_handed_costs(policy):
    # the room's [planner] section has zero costs; the settings handed to
    # run_episode carry the costs, and they are what the steps charge
    v = _small_space()
    assert v.planner.cost_mask_action == v.planner.cost_vax_action == 0.0
    settings = replace(v.planner, rounds=3, horizon=6, uct_iterations=16, **HANDED_COSTS)
    results = run_episode(v, settings, policy, 40)
    assert any(result.final_state.action_costs < 0 for result in results)
    for r, result in enumerate(results):
        start = init_state(v, 40 + r)
        assert result.reward == _closed_form(settings, start, result.final_state)


@pytest.mark.parametrize("policy", ["random", "planner"])
def test_round_r_is_a_one_round_episode_at_seed_plus_r(policy):
    # the harness runs each round as its own task on this identity
    v = _small_space()
    settings = replace(v.planner, rounds=5, horizon=6, uct_iterations=16, **HANDED_COSTS)
    results = run_episode(v, settings, policy, 40, True, True)
    assert any(result.events for result in results)
    one_round = replace(settings, rounds=1)
    for r, result in enumerate(results):
        (alone,) = run_episode(v, one_round, policy, 40 + r, True, True)
        assert alone == result
        assert repr(alone) == repr(result)


def test_step_inplace_charges_the_handed_costs():
    # small_space with its last legal action, a costly one whenever one is
    # legal; then the random rooms and random legal actions of acceptance
    # criterion 07, here checked step by step against the census
    small = _small_space()
    runs = [(small, replace(small.planner, **HANDED_COSTS), 5, lambda actions: actions[-1])]
    rng = random.Random(777)
    for _ in range(50):
        v = validate(random_scenario(rng))
        seed = rng.randrange(1 << 30)
        chooser = substream(seed, "plan")
        runs.append(
            (
                v,
                replace(v.planner, horizon=10, **HANDED_COSTS),
                seed,
                lambda actions, chooser=chooser: actions[chooser.randrange(len(actions))],
            )
        )
    cost = {
        ActionKind.NOOP: 0.0,
        ActionKind.MANDATE_MASKS: HANDED_COSTS["cost_mask_action"],
        ActionKind.VACCINATE: HANDED_COSTS["cost_vax_action"],
    }
    accrued = []
    for v, settings, seed, choose in runs:
        state = init_state(v, seed)
        start = state.clone()
        env = substream(seed, "env")
        summed = 0.0
        charged = 0.0
        for _ in range(settings.horizon):
            action = choose(available_actions(state, settings))
            before = state.clone()
            returned = step_inplace(state, action, v, settings, env)
            assert returned == _closed_form(settings, before, state)
            summed += returned
            charged += cost[action.kind]
        assert state.action_costs == charged
        assert summed == _closed_form(settings, start, state)
        accrued.append(state.action_costs)
    assert accrued[0] < 0
    assert any(costs < 0 for costs in accrued[1:])


def test_step_charges_the_room_costs_and_step_inplace_the_handed_ones():
    # step() runs under the room's own [planner] section; step_inplace
    # under the settings it is handed. No one can be infected or die, so
    # each step's reward is its cost.
    v = _validated("[grid]\nSR\n\n[planner]\ncost_mask_action=-0.5\n")
    state = init_state(v, 0)
    after, _ = step(state, MANDATE_MASKS, v, substream(0, "env"))
    assert after.action_costs == -0.5
    handed = replace(v.planner, cost_mask_action=-0.25)
    clone = state.clone()
    assert step_inplace(clone, MANDATE_MASKS, v, handed, substream(0, "env")) == -0.25
    assert clone.action_costs == -0.25


# ---------------------------------------------------------------------------
# UCT search
# ---------------------------------------------------------------------------


def _at_horizon(v, state):
    state.step = v.planner.horizon
    return v.planner


@pytest.mark.parametrize(
    "root",
    [
        lambda v, state: replace(v.planner, uct_iterations=0),
        _at_horizon,
        lambda v, state: replace(v.planner, masks_available=False, vaccines_available=False),
    ],
    ids=["zero_budget", "at_horizon", "single_action"],
)
def test_plan_returns_noop_at_a_root_with_nothing_to_search(root):
    v = _small_space()
    state = init_state(v, 0)
    settings = root(v, state)
    rng = substream(0, "plan")
    before = rng.getstate()
    assert plan_with_stats(state, v, settings, rng) == (NOOP, {"root_visits": 0, "per_action": []})
    assert rng.getstate() == before


@pytest.mark.parametrize(
    "patch, error",
    [
        ({"rounds": 0}, "planner.rounds must be >= 1"),
        ({"horizon": -1}, "planner.horizon must be >= 0"),
        ({"uct_exploration": 0.0}, "planner.uct_exploration must be positive"),
        (
            {"pen_i": -5.0, "pen_d": -1.0},
            "planner.pen_d must be <= pen_i (deaths penalized at least as hard)",
        ),
    ],
)
def test_invalid_settings_are_rejected(patch, error):
    v = _small_space()
    with pytest.raises(ScenarioValidationError) as info:
        replace(v.planner, **patch)
    assert info.value.errors == [error]
    with pytest.raises(ScenarioValidationError) as info:
        PlannerSettings(**patch)
    assert info.value.errors == [error]


def test_plan_does_not_mutate_state():
    v = _small_space()
    state = init_state(v, 0)
    snapshot = state.clone()
    settings = replace(v.planner, uct_iterations=64)
    plan(state, v, settings, substream(0, "plan"))
    assert state == snapshot


def test_plan_is_deterministic_per_stream():
    v = _small_space()
    state = init_state(v, 0)
    settings = replace(v.planner, uct_iterations=96)
    a1, s1 = plan_with_stats(state, v, settings, substream(5, "plan"))
    a2, s2 = plan_with_stats(state, v, settings, substream(5, "plan"))
    assert (a1, s1) == (a2, s2)


def test_plan_stats_account_for_every_iteration():
    v = _small_space()
    state = init_state(v, 0)
    settings = replace(v.planner, uct_iterations=80)
    _, stats = plan_with_stats(state, v, settings, substream(3, "plan"))
    assert stats["root_visits"] == 80
    assert sum(row["visits"] for row in stats["per_action"]) == 80
    labels = [row["action"] for row in stats["per_action"]]
    assert labels == ["noop", "mandate_masks", "vaccinate:0", "vaccinate:1", "vaccinate:3"]
    assert all(row["visits"] >= 1 for row in stats["per_action"])


def test_plan_lists_the_root_actions_once(monkeypatch):
    # the search reuses the list plan_with_stats made to decide whether
    # there is anything to search; one iteration of one step expands a
    # root action and lists no other state
    calls = []

    def counting(state, settings):
        calls.append(state.step)
        return available_actions(state, settings)

    monkeypatch.setattr(planner, "available_actions", counting)
    v = _small_space()
    state = init_state(v, 0)
    settings = replace(v.planner, uct_iterations=1, horizon=1)
    _, stats = plan_with_stats(state, v, settings, substream(3, "plan"))
    assert stats["root_visits"] == 1
    assert calls == [0]


def test_plan_breaks_visit_ties_by_canonical_order():
    # one iteration per root action gives every child exactly one visit,
    # so the choice falls to the first action in canonical order
    v = _small_space()
    state = init_state(v, 0)
    settings = replace(v.planner, uct_iterations=len(available_actions(state, v.planner)))
    action, stats = plan_with_stats(state, v, settings, substream(3, "plan"))
    assert action is NOOP
    labels = [row["action"] for row in stats["per_action"]]
    assert labels == ["noop", "mandate_masks", "vaccinate:0", "vaccinate:1", "vaccinate:3"]
    assert [row["visits"] for row in stats["per_action"]] == [1] * 5


_SPREADING = (Compartment.E, Compartment.I)


@st.composite
def _quiescent_roots(draw):
    """A bundled room's state with no exposed or infectious person, zero
    action costs and a budget around the root's action count k."""
    v = _BUNDLED_ROOMS[draw(st.sampled_from(sorted(_BUNDLED_ROOMS)))]
    state = init_state(v, draw(st.integers(0, 2**16)))
    for p in state.persons:
        if p.compartment in _SPREADING:
            p.compartment = draw(st.sampled_from([Compartment.S, Compartment.R, Compartment.D]))
        p.vaccinated = draw(st.booleans())
    state.mask_mandate_active = draw(st.booleans())
    masks, vaccines = draw(st.sampled_from([(True, False), (False, True), (True, True)]))
    settings = replace(
        v.planner,
        masks_available=masks,
        vaccines_available=vaccines,
        cost_mask_action=0.0,
        cost_vax_action=0.0,
    )
    state.step = draw(st.integers(0, settings.horizon - 1))
    k = len(available_actions(state, settings))
    assume(k > 1)
    settings = replace(
        settings,
        uct_iterations=draw(st.sampled_from([1, 2, k - 1, k, k + 1, 64])),
        uct_exploration=draw(st.sampled_from([5.0, 0.1, 1e-310, 5e-324, 1e308])),
    )
    return v, state, settings


@hypothesis_settings(derandomize=True, deadline=None, max_examples=120)
@given(_quiescent_roots())
def test_quiescent_root_replay_equals_the_search(root):
    # the reference is the full search, simulated to the horizon; a
    # function-scoped monkeypatch cannot serve every @given example
    v, state, settings = root
    searched = SearchNode()
    with patch.object(planner, "_quiescent", return_value=False):
        actions = available_actions(state, settings)
        _search(searched, actions, state, v, settings, substream(0, "plan"))
    expected = _recommend(searched)
    got = plan_with_stats(state, v, settings, substream(0, "plan"))
    assert got == expected
    assert repr(got) == repr(expected)  # the same signs of zero too


def _state_view(state):
    return (
        repr(state.persons),
        state.occupant,
        state.step,
        state.mask_mandate_active,
        state.action_costs,
    )


@hypothesis_settings(derandomize=True, deadline=None, max_examples=60)
@given(_quiescent_roots())
def test_plan_leaves_a_quiescent_root_untouched(root):
    # the search uses a quiescent root itself, without a clone, so it
    # must stop every iteration before stepping it
    v, state, settings = root
    before = state.clone()
    plan_with_stats(state, v, settings, substream(0, "plan"))
    assert _state_view(state) == _state_view(before)


def _quiescent_small_space():
    v = _small_space()
    state = init_state(v, 0)
    for p in state.persons:
        if p.compartment in _SPREADING:
            p.compartment = Compartment.R
    return v, state


def _searched(state, v, settings):
    """plan_with_stats's stats, and whether it drew from its stream."""
    rng = substream(0, "plan")
    before = rng.getstate()
    _, stats = plan_with_stats(state, v, settings, rng)
    return stats, rng.getstate() != before


def test_plan_draws_nothing_at_a_quiescent_root():
    v, state = _quiescent_small_space()
    stats, drew = _searched(state, v, replace(v.planner, uct_iterations=64))
    assert not drew
    assert stats["root_visits"] == 64
    assert all(row["mean_return"] == 0.0 for row in stats["per_action"])


def test_plan_searches_a_quiescent_root_with_an_action_cost():
    v, state = _quiescent_small_space()
    settings = replace(v.planner, uct_iterations=64, cost_vax_action=-0.125)
    stats, drew = _searched(state, v, settings)
    assert drew
    vaccinations = [row for row in stats["per_action"] if row["action"].startswith("vaccinate:")]
    assert vaccinations
    assert all(row["mean_return"] < 0 for row in vaccinations)


def test_plan_searches_a_root_with_an_exposed_person():
    # E can still become I, so the root is not quiescent
    v, state = _quiescent_small_space()
    state.persons[0].compartment = Compartment.E
    stats, drew = _searched(state, v, replace(v.planner, uct_iterations=64))
    assert drew
    assert stats["root_visits"] == 64


@pytest.mark.parametrize("name", sorted(_BUNDLED_ROOMS))
def test_search_steps_every_iteration_to_the_horizon(name, monkeypatch):
    # perfbench's plan_rooms counts uct_iterations * (horizon - t) simulated
    # steps per searched root; a search that skips steps must change this
    v = _BUNDLED_ROOMS[name]
    settings = replace(v.planner, uct_iterations=24)
    steps = []

    def counting_step(state, *args):
        steps.append(state.step)
        return step_inplace(state, *args)

    monkeypatch.setattr("gridepi.planner.step_inplace", counting_step)
    for t in (0, settings.horizon // 2, settings.horizon - 1):
        state = init_state(v, t)
        state.step = t
        assert not _quiescent(state, settings)
        assert len(available_actions(state, settings)) > 1
        steps.clear()
        _, stats = plan_with_stats(state, v, settings, substream(t, "plan"))
        assert stats["root_visits"] == 24
        assert sorted(steps) == sorted([*range(t, settings.horizon)] * 24)
    for p in state.persons:
        if p.compartment in _SPREADING:
            p.compartment = Compartment.R
    assert _quiescent(state, settings)
    steps.clear()
    _, stats = plan_with_stats(state, v, settings, substream(0, "plan"))
    assert stats["root_visits"] == 24
    assert steps == []


def test_plan_invariant_under_joint_reward_scaling():
    # multiplying the penalties and the exploration constant by the same
    # factor rescales every UCB term identically, so the search makes the
    # same choices and the same recommendation
    v = _small_space()
    state = init_state(v, 0)
    base = replace(v.planner, uct_iterations=120)
    scaled = replace(
        base,
        pen_i=base.pen_i * 4,
        pen_d=base.pen_d * 4,
        uct_exploration=base.uct_exploration * 4,
    )
    a1, s1 = plan_with_stats(state, v, base, substream(9, "plan"))
    a2, s2 = plan_with_stats(state, v, scaled, substream(9, "plan"))
    assert a1 == a2
    visits1 = [row["visits"] for row in s1["per_action"]]
    visits2 = [row["visits"] for row in s2["per_action"]]
    assert visits1 == visits2
    for r1, r2 in zip(s1["per_action"], s2["per_action"]):
        assert r2["mean_return"] == pytest.approx(4 * r1["mean_return"])


def test_planner_beats_noop_on_average():
    v = _small_space()
    settings = replace(v.planner, rounds=1, uct_iterations=128)

    def mean_return(policy):
        total = 0.0
        for seed in range(12):
            (result,) = run_episode(v, settings, policy, 1000 + seed)
            total += result.reward
        return total / 12

    assert mean_return("planner") > mean_return("noop")


# ---------------------------------------------------------------------------
# Episode driver
# ---------------------------------------------------------------------------


def test_run_episode_shapes():
    v = _small_space()
    settings = replace(v.planner, rounds=3, horizon=6, uct_iterations=8)
    results = run_episode(v, settings, "planner", 42, collect_decisions=True)
    assert len(results) == 3
    for result in results:
        assert len(result.trajectory.rows) == 7
        assert result.final_state.step == 6
        assert len(result.decisions) == 6
        for entry in result.decisions:
            assert set(entry) >= {"step", "chosen_action", "root_visits", "per_action"}


def test_run_episode_rounds_use_distinct_seeds():
    v = validate(load_scenario(assets.asset_path("small_crowded.scn")))
    settings = replace(v.planner, rounds=2, horizon=10)
    r0, r1 = run_episode(v, settings, "noop", 7)
    single = run_episode(v, replace(settings, rounds=1), "noop", 8)
    assert r1.trajectory.rows == single[0].trajectory.rows
    assert r0.trajectory.rows != r1.trajectory.rows


def test_run_episode_unknown_policy():
    v = _small_space()
    with pytest.raises(ValueError):
        run_episode(v, v.planner, "greedy", 0)


def test_noop_policy_ignores_npi_flags():
    # environment randomness is independent of the planning stream, so a
    # noop run is identical whether or not interventions were available
    v = _small_space()
    on = replace(v.planner, rounds=2, horizon=10)
    off = replace(on, masks_available=False, vaccines_available=False)
    rows_on = [r.trajectory.rows for r in run_episode(v, on, "noop", 21)]
    rows_off = [r.trajectory.rows for r in run_episode(v, off, "noop", 21)]
    assert rows_on == rows_off


def test_random_policy_is_deterministic():
    v = _small_space()
    settings = replace(v.planner, rounds=2, horizon=8)
    a = run_episode(v, settings, "random", 5, collect_events=True)
    b = run_episode(v, settings, "random", 5, collect_events=True)
    assert [r.trajectory.rows for r in a] == [r.trajectory.rows for r in b]
    assert [r.events for r in a] == [r.events for r in b]


def test_collect_events_covers_episode():
    v = _small_space()
    settings = replace(v.planner, rounds=1, horizon=5)
    (result,) = run_episode(v, settings, "noop", 3, collect_events=True)
    assert all(0 <= e.step < 5 for e in result.events)
    (quiet,) = run_episode(v, settings, "noop", 3)
    assert quiet.events == []
    assert quiet.trajectory.rows == result.trajectory.rows


def test_population_conserved_through_episode():
    v = validate(load_scenario(assets.asset_path("larger_crowded.scn")))
    settings = replace(v.planner, rounds=1, uct_iterations=12)
    (result,) = run_episode(v, settings, "planner", 99)
    n = v.population
    assert all(row.s + row.e + row.i + row.r + row.d == n for row in result.trajectory.rows)
    assert sum(census(result.final_state)) == n
