"""The embedded anytime planner and the episode driver.

The actions themselves live in :mod:`gridepi.dynamics`, which applies
them at the start of each step. Of their names the planner hands on
only ``NOOP``, ``ActionKind`` and :func:`available_actions`; every other
action name is imported from :mod:`gridepi.dynamics`. The reward
formula lives there too: :func:`~gridepi.dynamics.step_inplace` returns
each step's reward, and the search and the episode driver add up
what it returns. The legal actions of a state are listed only by
:func:`available_actions`: the tree expands and selects over that
list, and rollouts and the random policy draw an index into it.

The planner is an open-loop UCT search. Tree nodes sit on action edges;
environment stochasticity is re-sampled on every descent from the
planning stream, so node statistics average over outcomes rather than
conditioning on one sampled successor. Each iteration steps a copy of
the root state to the episode horizon in one loop: it descends by UCB1,
expands one untried action, then rolls out uniformly random legal
actions. Its return is the undiscounted sum of its step rewards, the
rollout's summed on their own and added once. The recommended action
is the root child with the most visits (ties broken by fixed action
order). At a quiescent root (no exposed or infectious person, zero
action costs) every return is exactly 0.0, so the search loop stops
each iteration after its root choice: the root statistics come from
the same expansions and UCB1 selections, with nothing simulated or drawn.

The ``settings`` handed to :func:`plan_with_stats` and :func:`run_episode`
govern the run, action costs included, in place of the scenario's own.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

from . import fanout
from .dynamics import (
    NOOP,
    Action,
    ActionKind,
    Compartment,
    SimState,
    StepEvent,
    Trajectory,
    TrajectoryRow,
    _new_event,
    available_actions,
    init_state,
    step_inplace,
)
from .rng import randbelow, substream
from .scenario import PlannerSettings, ValidatedScenario

__all__ = [
    "ActionKind",
    "NOOP",
    "available_actions",
    "SearchNode",
    "plan",
    "plan_with_stats",
    "run_episode",
    "EpisodeResult",
    "POLICIES",
]

POLICIES = ("planner", "noop", "random")


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


def _random_action(state: SimState, settings: PlannerSettings, getrandbits) -> Action:
    """Uniformly random legal action, drawn exactly as
    ``actions[rng.randrange(len(actions))]`` draws it."""
    actions = available_actions(state, settings)
    return actions[randbelow(getrandbits, len(actions))]


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


_SPREADING = (Compartment.E, Compartment.I)


def _quiescent(state: SimState, settings: PlannerSettings) -> bool:
    """No action costs and no exposed or infectious person: S stays S and
    R and D are absorbing, so every return from ``state`` is exactly
    ``pen_i * 0 + pen_d * 0 + 0.0 == 0.0`` (the penalties are finite)."""
    return (
        settings.cost_mask_action == 0.0
        and settings.cost_vax_action == 0.0
        and not any(p.compartment in _SPREADING for p in state.persons)
    )


def _search(
    root: SearchNode,
    root_actions: list[Action],
    state: SimState,
    validated: ValidatedScenario,
    settings: PlannerSettings,
    rng,
) -> None:
    """Run ``settings.uct_iterations`` UCT iterations from ``state`` into
    ``root`` and back every return up the iteration's path.

    Each iteration steps one clone of ``state`` to the horizon in one
    loop. While it is in the tree it descends by UCB1, until it expands
    the first untried action in canonical order; from there it rolls out
    uniformly random legal actions. The rollout's rewards are summed on
    their own and added to the tree steps' sum once, after the loop.
    ``root_actions`` is ``available_actions(state, settings)``, listed by
    the caller, and serves every iteration.

    At a :func:`_quiescent` root every return is 0.0, so each iteration
    stops after its root choice: ``state`` is not cloned, stepped or
    mutated, nothing is drawn from ``rng``, and the root statistics equal
    the full search's."""
    horizon = settings.horizon
    exploration = settings.uct_exploration
    getrandbits = rng.getrandbits
    quiescent = _quiescent(state, settings)
    for _ in range(settings.uct_iterations):
        sim = state if quiescent else state.clone()
        node = root
        path = [root]
        total = rollout = 0.0
        while sim.step < horizon:
            in_tree = node is not None
            if in_tree:
                actions = root_actions if node is root else available_actions(sim, settings)
                children = node.children
                for action in actions:
                    if action not in children:  # expand it, then roll out
                        children[action] = SearchNode()
                        node = None
                        break
                else:  # every action tried: descend by UCB1
                    action = _select(node, actions, exploration)
                    node = children[action]
                path.append(children[action])
                if quiescent:
                    break
            else:
                action = _random_action(sim, settings, getrandbits)
            gained = step_inplace(sim, action, validated, settings, rng)
            if in_tree:
                total += gained
            else:
                rollout += gained
        total += rollout
        for visited in path:
            visited.visit_count += 1
            visited.total_return += total


def _recommend(root: SearchNode) -> tuple[Action, dict]:
    """The most-visited root child plus the root statistics."""
    children = root.children
    ranked = sorted(children)
    per_action = [
        {
            "action": a.describe(),
            "visits": children[a].visit_count,
            "mean_return": children[a].mean_return,
        }
        for a in ranked
    ]
    # max() keeps the first of equals: ties go to the canonical order.
    best_action = max(ranked, key=lambda a: children[a].visit_count)
    return best_action, {"root_visits": root.visit_count, "per_action": per_action}


def plan_with_stats(
    state: SimState,
    validated: ValidatedScenario,
    settings: PlannerSettings,
    rng,
) -> tuple[Action, dict]:
    """UCT recommendation plus root statistics for decision logging.

    The stats dict has ``root_visits`` and ``per_action``, a list of
    ``{action, visits, mean_return}`` entries in canonical action order.
    The root's legal actions are listed once, here, and the search
    reuses that list. A root with nothing to search (zero budget, the
    horizon reached, or NOOP its one legal action) returns NOOP with
    empty statistics.

    A root with no exposed or infectious person under zero action costs
    is quiescent: no one can be infected or die again, so every return
    of the search is exactly 0.0. There :func:`_search` stops each
    iteration after its root choice, and nothing is drawn from ``rng``.
    In :func:`run_episode` every later root of the round is quiescent
    too, so the stream is not read again there.
    """
    root_actions = available_actions(state, settings)
    if settings.uct_iterations <= 0 or state.step >= settings.horizon or len(root_actions) == 1:
        return NOOP, {"root_visits": 0, "per_action": []}

    root = SearchNode()
    _search(root, root_actions, state, validated, settings, rng)
    return _recommend(root)


def plan(
    state: SimState,
    validated: ValidatedScenario,
    settings: PlannerSettings,
    rng,
) -> Action:
    """Recommend an action for ``state`` within the iteration budget.

    Uses only the supplied planning stream, and draws nothing from it at
    a quiescent root with zero action costs; the state is never mutated,
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
    and the optional event and planner-decision logs. The round's final
    state is not kept: replaying its actions through
    :func:`~gridepi.dynamics.init_state` and
    :func:`~gridepi.dynamics.step_inplace` on its environment stream
    rebuilds it.

    ``reward`` is the sum, in step order, of what the round's
    :func:`~gridepi.dynamics.step_inplace` calls returned. A step charges
    only its own E -> I infections and I -> D deaths, so persons
    infectious at time zero are not penalized."""

    trajectory: Trajectory
    reward: float
    events: list[StepEvent]
    decisions: list[dict]


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
    environment randomness until their actions first diverge. No round
    reads another's, so the rounds run on every usable CPU when their
    search pays for a fork; the results are the same for any CPU count.

    Args:
        validated: Scenario to simulate; its ``[planner]`` section is unread.
        settings: Planner settings that govern the run, action costs included.
        policy: One of "planner", "noop", "random".
        seed: Base seed for round 0.
        collect_events: Keep per-step event logs in the results.
        collect_decisions: Keep planner decision stats (planner policy only).

    Raises:
        ValueError: On an unknown policy name.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    return _play_runs([(validated, settings, policy, seed, collect_events, collect_decisions)])


def _play_round(
    validated: ValidatedScenario, settings: PlannerSettings, policy: str, seed: int,
    collect_events: bool = False, collect_decisions: bool = False,
) -> EpisodeResult:
    """One round of a run, seeded with ``seed``; it reads no other
    round's streams and not ``settings.rounds``."""
    env_rng = substream(seed, "env")
    plan_rng = substream(seed, "plan")
    state = init_state(validated, seed)
    trajectory = Trajectory()
    trajectory.record(state)
    events: list[StepEvent] | None = [] if collect_events else None
    decisions: list[dict] = []
    total = 0.0
    for t in range(settings.horizon):
        if policy == "noop":
            action = NOOP
        elif policy == "random":
            action = _random_action(state, settings, plan_rng.getrandbits)
        else:
            action, stats = plan_with_stats(state, validated, settings, plan_rng)
            if collect_decisions:
                decisions.append({"step": t, "chosen_action": action.describe(), **stats})
        total += step_inplace(state, action, validated, settings, env_rng, events)
        trajectory.record(state)
    return EpisodeResult(trajectory, total, events or [], decisions)


def _round_cost(validated: ValidatedScenario, settings: PlannerSettings, policy: str, *_) -> int:
    """Expected cost of a :func:`_play_round` task in person-steps: the
    steps it searches, none unless the planner has an intervention, times
    persons, since a step's work grows with the persons it moves."""
    if policy == "planner" and (settings.masks_available or settings.vaccines_available):
        return settings.horizon * settings.uct_iterations * validated.population
    return 0


def _play_runs(runs: list[tuple]) -> list[EpisodeResult]:
    """The rounds of every ``(validated, settings, policy, seed, *logs)``
    run, in run-then-round order, round r of a run seeded with its seed
    + r: the one place a run becomes rounds. They go through one
    :func:`fanout.fan_out` batch of :func:`_play_round` tasks, in forked
    workers when their summed :func:`_round_cost` pays for it, longest
    rounds first."""
    tasks = [
        (validated, settings, policy, seed + r, *logs)
        for validated, settings, policy, seed, *logs in runs
        for r in range(settings.rounds)
    ]
    return fanout.fan_out(_play_round, tasks, _round_cost, _pack_round, _unpack_round)


def _pack_round(result: EpisodeResult) -> tuple:
    """``result`` as the plain ``marshal`` data a fan-out worker writes:
    its four outputs, each census row and event as a plain tuple.
    :func:`_unpack_round` rebuilds an equal result with the same
    ``repr``."""
    rows = [astuple(row) for row in result.trajectory.rows]
    events = [tuple(event) for event in result.events]
    return rows, result.reward, events, result.decisions


def _unpack_round(data: tuple) -> EpisodeResult:
    rows, total, events, decisions = data
    return EpisodeResult(
        Trajectory([TrajectoryRow(*row) for row in rows]),
        total,
        [_new_event(StepEvent, event) for event in events],
        decisions,
    )
