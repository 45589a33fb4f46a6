"""The simulation core: state, interventions and the per-step dynamics.

Each simulation step applies three phases in order: the chosen
intervention action, a movement phase, and a synchronous health
transition phase. The transition phase applies each change where it is
drawn, in one pass: exposure comes from the start-of-phase sources, so
a person who leaves the infectious compartment this step still counts
as a source for susceptible neighbors this step.

Compartment flow is S -> E -> I -> {R, D}. An exposed person reverts to
S when the infection does not take hold, recovered persons cannot be
reinfected, and deceased persons stay on their tile and block movement.

Actions are applied at the start of a step, one per step: do nothing,
mandate masks for everyone (once per episode, permanent), or vaccinate a
single named person (permanent). Compliance was already decided at
initialization, so applying an action is deterministic: refusers simply
do not comply, which still consumes the step and any action cost.
Actions are named tuples ordered by (kind, person id). The legal actions
of a state are enumerated only by :func:`available_actions`;
:func:`apply_action_inplace` checks the one action it is given.

Exposure is scattered from the infectious sources: each source visits
the occupied tiles within the exposure radius and multiplies the miss
probability of every susceptible person there (:func:`exposure_misses`),
so exposure costs O(sources * radius^2) per step, not O(N^2).
:func:`exposure_probability` computes one person's probability by the
same formula and is the reference the exact oracle and the tests use.

All randomness comes from ``random.Random`` streams passed in by the
caller; the functions themselves hold no hidden state. :func:`step_inplace`
checks and charges actions under the planner settings it is handed;
:func:`step`, its pure variant, uses the scenario's ``[planner]`` section.

Output rows (:class:`TrajectoryRow` here, the harness metrics elsewhere)
are described by field tables of (column name, attribute, CSV format),
which :func:`rows_to_csv` and :func:`rows_to_json` render.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cache
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter
from typing import Any, Callable, Iterable, NamedTuple

from .rng import randbelow, substream
from .scenario import EpiParams, PlannerSettings, ValidatedScenario

__all__ = [
    "Compartment",
    "PersonState",
    "SimState",
    "StepEvent",
    "IllegalActionError",
    "ActionKind",
    "Action",
    "NOOP",
    "MANDATE_MASKS",
    "vaccinate",
    "available_actions",
    "apply_action_inplace",
    "Trajectory",
    "TrajectoryRow",
    "TRAJECTORY_FIELDS",
    "TRAJECTORY_HEADER",
    "FieldTable",
    "csv_header",
    "rows_to_csv",
    "rows_to_json",
    "init_state",
    "exposure_probability",
    "exposure_misses",
    "death_probability_on_exit",
    "step",
    "step_inplace",
    "census",
    "events_to_jsonl",
]


class Compartment(IntEnum):
    S = 0
    E = 1
    I = 2
    R = 3
    D = 4


_S = Compartment.S
_E = Compartment.E
_I = Compartment.I
_R = Compartment.R
_D = Compartment.D

LETTER_TO_COMPARTMENT = {"S": _S, "E": _E, "I": _I, "R": _R}

# Event kinds as they appear in the JSON event log.
MOVED = "moved"
EXPOSED = "exposed"
INFECTED = "infected"
RECOVERED = "recovered"
DIED = "died"
MASKED = "masked"
VACCINATED = "vaccinated"
COMPLIANCE_REFUSAL = "compliance_refusal"


@dataclass(frozen=True)
class StepEvent:
    """One audit-log entry. ``step`` is the index of the step being computed."""

    step: int
    kind: str
    person_id: int
    detail: str = ""

    def to_json(self) -> str:
        return events_to_jsonl([self])[:-1]


def events_to_jsonl(events: list[StepEvent]) -> str:
    """Render events as JSON lines, one object per line.

    Each line is byte for byte what ``json.dumps`` writes for the dict
    {step, kind, person_id, detail} at its default settings (ASCII
    escapes, ", " and ": " separators), formatted directly.
    """
    return "".join(
        [
            f'{{"step": {e.step}, "kind": {_json_str(e.kind)}, '
            f'"person_id": {e.person_id}, "detail": {_json_str(e.detail)}}}\n'
            for e in events
        ]
    )


@dataclass(slots=True)
class PersonState:
    id: int
    compartment: Compartment
    x: int
    y: int
    masked: bool = False
    vaccinated: bool = False
    mask_refuser: bool = False
    vax_refuser: bool = False

    @property
    def position(self) -> tuple[int, int]:
        return (self.x, self.y)

    def clone(self) -> "PersonState":
        return PersonState(
            self.id,
            self.compartment,
            self.x,
            self.y,
            self.masked,
            self.vaccinated,
            self.mask_refuser,
            self.vax_refuser,
        )


@dataclass(slots=True)
class SimState:
    """Full simulation state.

    ``persons`` is indexed by person id. ``occupancy`` maps each occupied
    tile to the id of the person on it (deceased persons included, since
    they keep blocking their tile). ``cumulative_infections`` counts
    persons ever infectious, which is always I + R + D.
    ``action_costs`` accumulates the (non-positive) cost of every action
    applied so far.
    """

    step: int
    persons: list[PersonState]
    occupancy: dict[tuple[int, int], int]
    mask_mandate_active: bool = False
    cumulative_infections: int = 0
    cumulative_deaths: int = 0
    action_costs: float = 0.0

    def clone(self) -> "SimState":
        return SimState(
            self.step,
            [p.clone() for p in self.persons],
            dict(self.occupancy),
            self.mask_mandate_active,
            self.cumulative_infections,
            self.cumulative_deaths,
            self.action_costs,
        )


def init_state(validated: ValidatedScenario, seed: int) -> SimState:
    """Create the step-0 state for a validated scenario.

    Compliance is decided here, once per person: refuser flags are drawn
    in ascending person-id order from the dedicated ``init`` stream of
    ``seed`` and never re-rolled. Pre-vaccinated persons are vaccinated
    from the start and never refusers.
    """
    params = validated.params
    rng = substream(seed, "init")
    persons: list[PersonState] = []
    occupancy: dict[tuple[int, int], int] = {}
    infections = 0
    for pl in validated.placements:
        mask_refuser = rng.random() < params.mask_noncompliance
        vax_refuser = rng.random() < params.vax_noncompliance
        compartment = LETTER_TO_COMPARTMENT[pl.compartment]
        vaccinated = pl.pre_vaccinated
        if vaccinated:
            vax_refuser = False
        if compartment is _I or compartment is _R:
            infections += 1
        x, y = pl.position
        persons.append(
            PersonState(
                pl.person_id,
                compartment,
                x,
                y,
                False,
                vaccinated,
                mask_refuser,
                vax_refuser,
            )
        )
        occupancy[pl.position] = pl.person_id
    return SimState(0, persons, occupancy, False, infections, 0, 0.0)


# ---------------------------------------------------------------------------
# Exposure
# ---------------------------------------------------------------------------


def exposure_probability(target: PersonState, state: SimState, params: EpiParams) -> float:
    """Probability that a susceptible person is exposed this step.

    Each infectious person within Manhattan distance 1..exposure_radius
    contributes an independent infection attempt with probability
    beta * (k / distance), scaled down by the source's mask, the target's
    mask, and the target's vaccination. The combined probability is one
    minus the product of the per-source miss probabilities.

    Raises:
        ValueError: If ``target`` is not susceptible.
    """
    if target.compartment is not _S:
        raise ValueError("exposure probability is defined for susceptible persons")
    radius = params.exposure_radius
    susceptibility = params.mask_sus_mult if target.masked else 1.0
    if target.vaccinated:
        susceptibility *= params.vax_protection
    beta_k = params.beta * params.k
    inf_mult = params.mask_inf_mult
    tx, ty = target.x, target.y
    miss = 1.0
    for src in state.persons:
        if src.compartment is _I:
            d = abs(src.x - tx) + abs(src.y - ty)
            if 1 <= d <= radius:
                attempt = (beta_k / d) * susceptibility
                if src.masked:
                    attempt *= inf_mult
                miss *= 1.0 - attempt
    return 1.0 - miss


@cache
def _diamond(radius: int) -> tuple[tuple[int, int, int], ...]:
    """Offsets (dx, dy, d) of the tiles at Manhattan distance d in 1..radius."""
    return tuple(
        (dx, dy, abs(dx) + abs(dy))
        for dx in range(-radius, radius + 1)
        for dy in range(-radius, radius + 1)
        if 1 <= abs(dx) + abs(dy) <= radius
    )


def exposure_misses(
    sources: list[PersonState], state: SimState, params: EpiParams, reach: int
) -> dict[int, float]:
    """Per-target miss products of this step's infection attempts.

    ``sources`` are the infectious persons of ``state`` in ascending id.
    Scatters from them instead of gathering per target: each source
    visits the occupied tiles of its radius diamond and multiplies the
    miss factor of every susceptible person found there. Each target's
    product thus has the same factors, float operations and order as in
    :func:`exposure_probability`, so ``1.0 - misses[target.id]`` equals
    it exactly. Susceptible persons with no source in range are absent
    (their probability is 0.0).

    ``reach`` is the largest Manhattan distance between two tiles of the
    grid, width + height - 2. The radius is clamped to it, which drops no
    tile and keeps a huge radius from scanning (2r+1)^2 offsets.
    """
    persons = state.persons
    occupant = state.occupancy.get
    offsets = _diamond(min(params.exposure_radius, reach))
    beta_k = params.beta * params.k
    mask_sus_mult = params.mask_sus_mult
    vax_protection = params.vax_protection
    inf_mult = params.mask_inf_mult
    misses: dict[int, float] = {}
    for src in sources:
        sx, sy = src.x, src.y
        src_masked = src.masked
        for dx, dy, d in offsets:
            tid = occupant((sx + dx, sy + dy))
            if tid is None:
                continue
            target = persons[tid]
            if target.compartment is not _S:
                continue
            susceptibility = mask_sus_mult if target.masked else 1.0
            if target.vaccinated:
                susceptibility *= vax_protection
            attempt = (beta_k / d) * susceptibility
            if src_masked:
                attempt *= inf_mult
            misses[tid] = misses.get(tid, 1.0) * (1.0 - attempt)
    return misses


def death_probability_on_exit(person: PersonState, params: EpiParams) -> float:
    """Probability of dying, given the person leaves the infectious
    compartment this step. Vaccination scales it down; the survivor
    recovers, so the recovery share is renormalized implicitly."""
    if person.vaccinated:
        return params.mu * params.vax_protection
    return params.mu


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------


def _movement_inplace(
    state: SimState,
    adjacency: dict[tuple[int, int], tuple[tuple[int, int], ...]],
    p_mv: float,
    rng,
    events: list[StepEvent] | None = None,
) -> None:
    occupancy = state.occupancy
    random = rng.random
    getrandbits = rng.getrandbits
    step_no = state.step
    for p in state.persons:
        if p.compartment is _D:
            continue
        if random() >= p_mv:
            continue
        pos = (p.x, p.y)
        candidates = []
        for t in adjacency[pos]:
            if t not in occupancy:
                candidates.append(t)
        if not candidates:
            continue
        if len(candidates) == 1:
            target = candidates[0]
        else:
            target = candidates[randbelow(getrandbits, len(candidates))]
        del occupancy[pos]
        occupancy[target] = p.id
        if events is not None:
            events.append(
                StepEvent(
                    step_no,
                    MOVED,
                    p.id,
                    f"({p.x},{p.y})->({target[0]},{target[1]})",
                )
            )
        p.x, p.y = target


def _transition_inplace(
    state: SimState,
    params: EpiParams,
    reach: int,
    rng,
    events: list[StepEvent] | None = None,
) -> None:
    # One pass, each change applied where it is drawn: exposure comes from
    # the start-of-phase sources, each person is visited once and no
    # branch reads another person, so the update is synchronous. A
    # susceptible person with no source in range draws nothing.
    persons = state.persons
    sigma = params.sigma
    persistence = params.infected_persistence
    random = rng.random
    step_no = state.step
    sources = []
    for p in persons:
        if p.compartment is _I:
            sources.append(p)
    misses = exposure_misses(sources, state, params, reach) if sources else {}
    for p in persons:
        c = p.compartment
        if c is _S:
            miss = misses.get(p.id)
            if miss is None:
                continue
            prob = 1.0 - miss
            if prob > 0.0 and random() < prob:
                p.compartment = _E
                if events is not None:
                    events.append(StepEvent(step_no, EXPOSED, p.id, f"prob={prob!r}"))
        elif c is _E:
            if random() < sigma:
                p.compartment = _I
                state.cumulative_infections += 1
                if events is not None:
                    events.append(StepEvent(step_no, INFECTED, p.id))
            else:
                p.compartment = _S
        elif c is _I:
            if random() < persistence:
                continue
            if random() < death_probability_on_exit(p, params):
                p.compartment = _D
                state.cumulative_deaths += 1
                if events is not None:
                    events.append(StepEvent(step_no, DIED, p.id))
            else:
                p.compartment = _R
                if events is not None:
                    events.append(StepEvent(step_no, RECOVERED, p.id))


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


class IllegalActionError(Exception):
    """Raised when an action does not apply in the current state."""


class ActionKind(IntEnum):
    NOOP = 0
    MANDATE_MASKS = 1
    VACCINATE = 2


class Action(NamedTuple):
    """One intervention. Ordering is (kind, person_id), which is also the
    deterministic tie-break order everywhere: noop, then the mask
    mandate, then vaccinations by ascending person id."""

    kind: ActionKind
    person_id: int = -1

    def describe(self) -> str:
        if self.kind is ActionKind.NOOP:
            return "noop"
        if self.kind is ActionKind.MANDATE_MASKS:
            return "mandate_masks"
        return f"vaccinate:{self.person_id}"


NOOP = Action(ActionKind.NOOP)
MANDATE_MASKS = Action(ActionKind.MANDATE_MASKS)

_vaccinate_cache: dict[int, Action] = {}
# Every id below this mark is in _vaccinate_cache.
_interned_below = 0


def vaccinate(person_id: int) -> Action:
    """Vaccination action for one person (instances are cached)."""
    action = _vaccinate_cache.get(person_id)
    if action is None:
        action = Action(ActionKind.VACCINATE, person_id)
        _vaccinate_cache[person_id] = action
    return action


def _intern_ids_below(n: int) -> None:
    global _interned_below
    for person_id in range(_interned_below, n):
        vaccinate(person_id)
    _interned_below = n


def available_actions(state: SimState, settings: PlannerSettings) -> list[Action]:
    """Legal actions in ``state``, in canonical order. This is the only
    place that enumerates them; the random policy and the planner's
    rollouts draw an index into this list.

    Noop is always legal. The mask mandate is legal while masks are
    enabled and no mandate is active yet. Vaccination is legal for each
    enabled, living, not-yet-vaccinated person who is susceptible or
    recovered (exposed, infectious, and deceased persons are not
    eligible).
    """
    actions = [NOOP]
    if settings.masks_available and not state.mask_mandate_active:
        actions.append(MANDATE_MASKS)
    if settings.vaccines_available:
        persons = state.persons
        if len(persons) > _interned_below:
            _intern_ids_below(len(persons))
        interned = _vaccinate_cache
        for p in persons:
            if not p.vaccinated and (p.compartment is _S or p.compartment is _R):
                actions.append(interned[p.id])
    return actions


def apply_action_inplace(
    state: SimState,
    action: Action,
    settings: PlannerSettings,
    events: list[StepEvent] | None = None,
) -> None:
    """Apply an action to ``state``, mutating it. Legality is checked
    before any mutation, so an IllegalActionError leaves the state as it
    was."""
    kind = action.kind
    if kind is ActionKind.NOOP:
        return
    step_no = state.step
    if kind is ActionKind.MANDATE_MASKS:
        if not settings.masks_available:
            raise IllegalActionError("mask mandate is not available in this scenario")
        if state.mask_mandate_active:
            raise IllegalActionError("mask mandate is already active")
        state.mask_mandate_active = True
        state.action_costs += settings.cost_mask_action
        for p in state.persons:
            if p.compartment is _D:
                continue
            if p.mask_refuser:
                if events is not None:
                    events.append(
                        StepEvent(step_no, COMPLIANCE_REFUSAL, p.id, "mask_mandate")
                    )
            else:
                p.masked = True
                if events is not None:
                    events.append(StepEvent(step_no, MASKED, p.id))
        return
    # vaccination
    if not settings.vaccines_available:
        raise IllegalActionError("vaccination is not available in this scenario")
    pid = action.person_id
    if pid < 0 or pid >= len(state.persons):
        raise IllegalActionError(f"no person with id {pid}")
    person = state.persons[pid]
    if person.vaccinated:
        raise IllegalActionError(f"person {pid} is already vaccinated")
    if person.compartment is not _S and person.compartment is not _R:
        raise IllegalActionError(
            f"person {pid} is not eligible for vaccination "
            f"(compartment {person.compartment.name})"
        )
    # a refusal still consumes the step and the action cost
    state.action_costs += settings.cost_vax_action
    if person.vax_refuser:
        if events is not None:
            events.append(StepEvent(step_no, COMPLIANCE_REFUSAL, pid, "vaccination"))
        return
    person.vaccinated = True
    if events is not None:
        events.append(StepEvent(step_no, VACCINATED, pid))


# ---------------------------------------------------------------------------
# Full step
# ---------------------------------------------------------------------------


def step_inplace(
    state: SimState,
    action: Action,
    validated: ValidatedScenario,
    settings: PlannerSettings,
    rng,
    events: list[StepEvent] | None = None,
) -> None:
    """Advance ``state`` by one step in place: action, movement, health.

    The action is checked for legality against ``settings``, which also
    set its cost, before anything is mutated. Movement moves each living
    person with probability p_mv to a uniformly chosen unoccupied
    walkable neighbor, in ascending id order (earlier movers claim
    contested tiles). Exposed for hot loops; most callers want :func:`step`.
    """
    params = validated.params
    grid = validated.grid
    apply_action_inplace(state, action, settings, events)
    _movement_inplace(state, validated.adjacency, params.p_mv, rng, events)
    _transition_inplace(state, params, grid.width + grid.height - 2, rng, events)
    state.step += 1


def step(
    state: SimState,
    action: Action,
    validated: ValidatedScenario,
    rng,
) -> tuple[SimState, list[StepEvent]]:
    """Advance one full simulation step under ``validated.planner``.

    Args:
        state: Current state; never mutated.
        action: The intervention to apply first.
        validated: Scenario the state was built from.
        rng: Environment random stream.

    Returns:
        The successor state and the ordered event log for this step.

    Raises:
        IllegalActionError: If the action is not applicable; ``state`` is
            left untouched.
    """
    events: list[StepEvent] = []
    new = state.clone()
    step_inplace(new, action, validated, validated.planner, rng, events)
    return new, events


def census(state: SimState) -> tuple[int, int, int, int, int]:
    """Compartment counts as (S, E, I, R, D); always sums to N."""
    counts = [0, 0, 0, 0, 0]
    for p in state.persons:
        counts[p.compartment] += 1
    return tuple(counts)


# ---------------------------------------------------------------------------
# Output rows
# ---------------------------------------------------------------------------

# A field table describes one row type as (column name, attribute, CSV
# format) triples. The column name is the CSV header cell and the JSON
# key; the CSV format turns the attribute's value into its CSV cell.
FieldTable = tuple[tuple[str, str, Callable[[Any], str]], ...]


def csv_header(fields: FieldTable) -> str:
    return ",".join([name for name, _, _ in fields])


def rows_to_csv(fields: FieldTable, rows: Iterable) -> str:
    """CSV text: the header line, then one line per row."""
    columns = [(attrgetter(attribute), fmt) for _, attribute, fmt in fields]
    lines = [csv_header(fields)]
    for row in rows:
        lines.append(",".join([fmt(get(row)) for get, fmt in columns]))
    return "\n".join(lines) + "\n"


def rows_to_json(key: str, fields: FieldTable, rows: Iterable) -> str:
    """JSON text ``{key: [...]}``, indented by 2, with one object per row
    that maps each column name to the attribute's full-precision value."""
    payload = [
        {name: getattr(row, attribute) for name, attribute, _ in fields} for row in rows
    ]
    return json.dumps({key: payload}, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryRow:
    step: int
    s: int
    e: int
    i: int
    r: int
    d: int
    cum_infections: int
    cum_deaths: int


TRAJECTORY_FIELDS: FieldTable = (
    ("step", "step", str),
    ("S", "s", str),
    ("E", "e", str),
    ("I", "i", str),
    ("R", "r", str),
    ("D", "d", str),
    ("cum_infections", "cum_infections", str),
    ("cum_deaths", "cum_deaths", str),
)
TRAJECTORY_HEADER = csv_header(TRAJECTORY_FIELDS)


@dataclass
class Trajectory:
    """Per-step census record of one episode, including the initial state."""

    rows: list[TrajectoryRow] = field(default_factory=list)

    def record(self, state: SimState) -> None:
        s, e, i, r, d = census(state)
        self.rows.append(
            TrajectoryRow(
                state.step,
                s,
                e,
                i,
                r,
                d,
                state.cumulative_infections,
                state.cumulative_deaths,
            )
        )

    @property
    def final(self) -> TrajectoryRow:
        return self.rows[-1]

    def to_csv(self) -> str:
        return rows_to_csv(TRAJECTORY_FIELDS, self.rows)

    def to_json(self) -> str:
        return rows_to_json("trajectory", TRAJECTORY_FIELDS, self.rows)
