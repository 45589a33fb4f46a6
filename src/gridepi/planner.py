"""Rewards, the embedded anytime planner and the episode driver.

The actions themselves live in :mod:`gridepi.dynamics`, which applies
them at the start of each step; they are re-exported here.

The planner is an open-loop UCT search. Tree nodes sit on action edges;
environment stochasticity is re-sampled on every descent from the
planning stream, so node statistics average over outcomes rather than
conditioning on one sampled successor. Rollouts play uniformly random
legal actions to the episode horizon, returns are undiscounted sums of
step rewards, and the recommended action is the root child with the most
visits (ties broken by fixed action order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .dynamics import (
    MANDATE_MASKS,
    NOOP,
    Action,
    ActionKind,
    Compartment,
    IllegalActionError,
    SimState,
    StepEvent,
    Trajectory,
    apply_action_inplace,
    available_actions,
    init_state,
    step_inplace,
    vaccinate,
)
from .rng import randbelow, substream
from .scenario import PlannerSettings, ValidatedScenario

__all__ = [
    "Action",
    "ActionKind",
    "NOOP",
    "MANDATE_MASKS",
    "vaccinate",
    "IllegalActionError",
    "available_actions",
    "apply_action_inplace",
    "step_reward",
    "SearchNode",
    "plan",
    "plan_with_stats",
    "run_episode",
    "EpisodeResult",
    "POLICIES",
]

_S = Compartment.S
_R = Compartment.R

POLICIES = ("planner", "noop", "random")


# ---------------------------------------------------------------------------
# Reward
# ---------------------------------------------------------------------------


def _reward(settings: PlannerSettings, infections: int, deaths: int, costs: float) -> float:
    """The infection penalty times new infections, plus the death penalty
    times new deaths, plus the action costs incurred. Always <= 0 under
    the default penalties."""
    return settings.pen_i * infections + settings.pen_d * deaths + costs


def step_reward(before: SimState, after: SimState, settings: PlannerSettings) -> float:
    """Reward earned by the step from ``before`` to ``after``."""
    return _reward(
        settings,
        after.cumulative_infections - before.cumulative_infections,
        after.cumulative_deaths - before.cumulative_deaths,
        after.action_costs - before.action_costs,
    )


# ---------------------------------------------------------------------------
# UCT search
# ---------------------------------------------------------------------------


@dataclass
class SearchNode:
    """Node on an action edge of the open-loop search tree."""

    visit_count: int = 0
    total_return: float = 0.0
    children: dict[Action, "SearchNode"] = field(default_factory=dict)

    @property
    def mean_return(self) -> float:
        return self.total_return / self.visit_count if self.visit_count else 0.0


def _vaccinations(state: SimState, settings: PlannerSettings) -> list[Action]:
    """``vaccinate(id)`` of every person, in id order, for
    :func:`_random_action`; empty when vaccines are not available."""
    if not settings.vaccines_available:
        return []
    return [vaccinate(p.id) for p in state.persons]


def _random_action(
    state: SimState, settings: PlannerSettings, vaccinations: list[Action], getrandbits
) -> Action:
    """Uniformly random legal action, drawn exactly as
    ``actions[rng.randrange(len(actions))]`` over
    ``actions = available_actions(state, settings)`` draws it, without
    building that list: noop, the mask mandate while it is legal, then
    the vaccination of every eligible person in id order."""
    eligible = []
    for p, a in zip(state.persons, vaccinations):
        if not p.vaccinated and (p.compartment is _S or p.compartment is _R):
            eligible.append(a)
    head = 2 if settings.masks_available and not state.mask_mandate_active else 1
    index = randbelow(getrandbits, head + len(eligible))
    if index >= head:
        return eligible[index - head]
    return MANDATE_MASKS if index else NOOP


def _advance(
    sim: SimState,
    action: Action,
    validated: ValidatedScenario,
    settings: PlannerSettings,
    rng,
) -> float:
    """Step ``sim`` in place and return the step reward."""
    infections = sim.cumulative_infections
    deaths = sim.cumulative_deaths
    costs = sim.action_costs
    step_inplace(sim, action, validated, rng)
    return _reward(
        settings,
        sim.cumulative_infections - infections,
        sim.cumulative_deaths - deaths,
        sim.action_costs - costs,
    )


def _rollout(
    sim: SimState,
    validated: ValidatedScenario,
    settings: PlannerSettings,
    rng,
    horizon: int,
) -> float:
    total = 0.0
    if not settings.masks_available and not settings.vaccines_available:
        while sim.step < horizon:
            total += _advance(sim, NOOP, validated, settings, rng)
        return total
    getrandbits = rng.getrandbits
    vaccinations = _vaccinations(sim, settings)
    while sim.step < horizon:
        action = _random_action(sim, settings, vaccinations, getrandbits)
        total += _advance(sim, action, validated, settings, rng)
    return total


def _select(node: SearchNode, actions: list[Action], exploration: float) -> Action:
    log_visits = math.log(node.visit_count)
    best_action = actions[0]
    best_score = -math.inf
    for action in actions:
        child = node.children[action]
        score = (
            child.total_return / child.visit_count
            + exploration * math.sqrt(log_visits / child.visit_count)
        )
        if score > best_score:
            best_score = score
            best_action = action
    return best_action


def plan_with_stats(
    state: SimState,
    validated: ValidatedScenario,
    settings: PlannerSettings,
    rng,
) -> tuple[Action, dict]:
    """UCT recommendation plus root statistics for decision logging.

    The stats dict has ``root_visits`` and ``per_action``, a list of
    ``{action, visits, mean_return}`` entries in canonical action order.
    """
    validated = validated.with_planner(settings)
    horizon = settings.horizon

    def stats_for(root: SearchNode) -> dict:
        per_action = [
            {
                "action": a.describe(),
                "visits": root.children[a].visit_count,
                "mean_return": root.children[a].mean_return,
            }
            for a in sorted(root.children)
        ]
        return {"root_visits": root.visit_count, "per_action": per_action}

    if settings.uct_iterations <= 0 or state.step >= horizon:
        return NOOP, {"root_visits": 0, "per_action": []}
    root_actions = available_actions(state, settings)
    if len(root_actions) == 1:
        return root_actions[0], {"root_visits": 0, "per_action": []}

    exploration = settings.uct_exploration
    root = SearchNode()
    for _ in range(settings.uct_iterations):
        sim = state.clone()
        node = root
        path = [root]
        total = 0.0
        while sim.step < horizon:
            actions = available_actions(sim, settings)
            untried = [a for a in actions if a not in node.children]
            if untried:
                action = untried[0]
                total += _advance(sim, action, validated, settings, rng)
                child = SearchNode()
                node.children[action] = child
                path.append(child)
                total += _rollout(sim, validated, settings, rng, horizon)
                break
            action = _select(node, actions, exploration)
            total += _advance(sim, action, validated, settings, rng)
            node = node.children[action]
            path.append(node)
        for visited in path:
            visited.visit_count += 1
            visited.total_return += total

    best_action = NOOP
    best_visits = -1
    for action in sorted(root.children):
        visits = root.children[action].visit_count
        if visits > best_visits:
            best_visits = visits
            best_action = action
    return best_action, stats_for(root)


def plan(
    state: SimState,
    validated: ValidatedScenario,
    settings: PlannerSettings,
    rng,
) -> Action:
    """Recommend an action for ``state`` within the iteration budget.

    Uses only the supplied planning stream; the state is never mutated,
    so planning cannot perturb the environment. A zero iteration budget
    degrades to noop.
    """
    action, _ = plan_with_stats(state, validated, settings, rng)
    return action


# ---------------------------------------------------------------------------
# Episodes
# ---------------------------------------------------------------------------


@dataclass
class EpisodeResult:
    """Outcome of one round: the census trajectory, the episode reward,
    optional event and planner-decision logs, and the final state.

    ``reward`` is the closed form of the summed step rewards: infections
    count from the initial census, so persons infectious at time zero
    are starting conditions, not penalized events."""

    trajectory: Trajectory
    reward: float
    events: list[StepEvent]
    decisions: list[dict]
    final_state: SimState


def run_episode(
    validated: ValidatedScenario,
    settings: PlannerSettings,
    policy: str,
    seed: int,
    collect_events: bool = False,
    collect_decisions: bool = False,
) -> list[EpisodeResult]:
    """Run ``settings.rounds`` independent episodes of ``settings.horizon``
    steps each and return one result per round.

    Round r uses seed + r. Each round derives three independent streams
    from its seed: compliance flags (inside :func:`init_state`), the
    environment, and the planner. The planner and random policies draw
    only from the planning stream, so different policies see identical
    environment randomness until their actions first diverge.

    Args:
        validated: Scenario to simulate.
        settings: Active planner settings; these override the scenario's
            own planner section for this run.
        policy: One of "planner", "noop", "random".
        seed: Base seed for round 0.
        collect_events: Keep per-step event logs in the results.
        collect_decisions: Keep planner decision stats (planner policy only).

    Raises:
        ValueError: On an unknown policy name.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    validated = validated.with_planner(settings)
    results: list[EpisodeResult] = []
    for r in range(settings.rounds):
        round_seed = seed + r
        env_rng = substream(round_seed, "env")
        plan_rng = substream(round_seed, "plan")
        state = init_state(validated, round_seed)
        trajectory = Trajectory()
        trajectory.record(state)
        events: list[StepEvent] | None = [] if collect_events else None
        decisions: list[dict] = []
        vaccinations = _vaccinations(state, settings)
        for t in range(settings.horizon):
            if policy == "noop":
                action = NOOP
            elif policy == "random":
                action = _random_action(state, settings, vaccinations, plan_rng.getrandbits)
            else:
                action, stats = plan_with_stats(state, validated, settings, plan_rng)
                if collect_decisions:
                    decisions.append(
                        {"step": t, "chosen_action": action.describe(), **stats}
                    )
            step_inplace(state, action, validated, env_rng, events)
            trajectory.record(state)
        reward = _reward(
            settings,
            state.cumulative_infections - trajectory.rows[0].cum_infections,
            state.cumulative_deaths,
            state.action_costs,
        )
        results.append(
            EpisodeResult(trajectory, reward, events or [], decisions, state)
        )
    return results
