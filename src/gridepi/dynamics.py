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

The kernel runs on tile indices ``y * width + x``: each person's
position lives in its tile alone (its coordinates are read from it), so
a move writes one field, and the state keeps one occupant per tile.
Exposure is scattered from the infectious sources: each source reads
the contact row of its tile (the walkable tiles within the exposure
radius, by distance; see :class:`~gridepi.scenario.ContactRows`) and
multiplies the miss probability of every susceptible person it finds
there (:func:`exposure_misses`), so exposure costs O(sources * radius^2)
per step, not O(N^2). This is the one exposure formula: the exact oracle
reads it once per joint state, and :func:`exposure_probability` takes
one person's probability from it.

All randomness comes from ``random.Random`` streams passed in by the
caller; the functions themselves hold no hidden state. :func:`step_inplace`
checks and charges actions under the planner settings it is handed and
returns the step's :func:`reward`; :func:`step`, its pure variant, uses
the scenario's ``[planner]`` section.

Handed an ``events`` list, a step appends one :class:`StepEvent` per
change it makes, in the order it makes them: ``masked``,
``vaccinated`` or ``compliance_refusal`` for the action, ``moved`` for
each move, then ``exposed``, ``infected``, ``recovered`` or ``died`` for
each health change. An exposed person reverting to S writes no event.
:func:`events_to_jsonl` renders the log; it lists each kind's detail.
A move's ``(x0,y0)->(x1,y1)`` detail is looked up in one table per grid
width, keyed by the two tile indices and filled on first use: at most
one entry per ordered pair of adjacent tiles up to the tallest room of
that width, 1,520 (about 0.2 MB) for 20x20 rooms. Planner steps pass
``None`` and build no event and no entry.

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
from typing import Any, Callable, Iterable, Mapping, NamedTuple

from .rng import randbelow, substream
from .scenario import ContactRows, EpiParams, PlannerSettings, ValidatedScenario

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
    "FieldTable",
    "rows_to_csv",
    "rows_to_json",
    "init_state",
    "exposure_probability",
    "exposure_misses",
    "death_probability_on_exit",
    "step",
    "step_inplace",
    "reward",
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

# Event kinds as they appear in the JSON event log.
MOVED = "moved"
EXPOSED = "exposed"
INFECTED = "infected"
RECOVERED = "recovered"
DIED = "died"
MASKED = "masked"
VACCINATED = "vaccinated"
COMPLIANCE_REFUSAL = "compliance_refusal"


class StepEvent(NamedTuple):
    """One audit-log entry. ``step`` is the index of the step being computed.

    A named tuple rather than a dataclass, so that the movement phase
    can record tens of thousands of moves at the cost of building tuples
    (see ``_new_event``) around a detail it looks up rather than formats
    (see ``_MoveText``). It compares equal to the plain tuple of its
    fields.
    """

    step: int
    kind: str
    person_id: int
    detail: str = ""


# StepEvent(...) runs the named tuple's generated __new__, a Python
# function; tuple.__new__(StepEvent, fields) builds the same object at the
# cost of a bare tuple. The movement phase, which writes nearly every event
# of a log, uses it, and so does the planner to rebuild the events of a
# round played in a forked worker.
_new_event = tuple.__new__


class _MoveText(dict):
    """``from_tile << 32 | to_tile`` -> the ``moved`` detail
    ``(x0,y0)->(x1,y1)`` on a grid of this width, built on first use.

    A tile index reads as coordinates through the width alone, so every
    room of one width shares a table (see ``_move_texts``). It holds one
    entry per distinct move made, at most four per tile: 1,520 for 20x20
    rooms, however many of them are played.
    """

    def __init__(self, width: int):
        super().__init__()
        self.width = width

    def __missing__(self, key: int) -> str:
        width = self.width
        y0, x0 = divmod(key >> 32, width)
        y1, x1 = divmod(key & 0xFFFFFFFF, width)
        text = self[key] = f"({x0},{y0})->({x1},{y1})"
        return text


_move_texts = cache(_MoveText)


def events_to_jsonl(events: list[StepEvent]) -> str:
    """Render events as JSON lines, one object per line.

    Each line is byte for byte what ``json.dumps`` writes for the dict
    {step, kind, person_id, detail} at its default settings (ASCII
    escapes, ", " and ": " separators), formatted directly. ``detail`` is
    ``(x,y)->(x,y)`` for ``moved``, ``prob=<repr>`` for ``exposed``,
    ``mask_mandate`` or ``vaccination`` for ``compliance_refusal``, and
    empty for every other kind.
    """
    return "".join(
        [
            f'{{"step": {step}, "kind": {_json_str(kind)}, '
            f'"person_id": {person_id}, "detail": {_json_str(detail)}}}\n'
            for step, kind, person_id, detail in events
        ]
    )


@dataclass(slots=True)
class PersonState:
    """One person. ``tile`` is the index ``y * width + x`` of the tile the
    person stands on, and the one copy of its position: ``x``, ``y`` and
    ``position`` are read from it through the grid ``width``, which
    :func:`init_state` sets once. A move writes ``tile`` alone. A living
    person is masked exactly while the state's mask mandate is active
    and the state's ``mask_refusers`` does not name them."""

    id: int
    compartment: Compartment
    tile: int
    width: int
    vaccinated: bool = False

    @property
    def x(self) -> int:
        return self.tile % self.width

    @property
    def y(self) -> int:
        return self.tile // self.width

    @property
    def position(self) -> tuple[int, int]:
        y, x = divmod(self.tile, self.width)
        return (x, y)

    def clone(self) -> "PersonState":
        return PersonState(
            self.id,
            self.compartment,
            self.tile,
            self.width,
            self.vaccinated,
        )


@dataclass(slots=True)
class SimState:
    """Full simulation state.

    ``persons`` is indexed by person id. ``occupant`` is indexed by tile
    index and holds the id of the person on the tile, or -1 (deceased
    persons included, since they keep blocking their tile).
    ``mask_refusers`` and ``vax_refusers``, indexed by person id, are
    the episode's compliance: :func:`init_state` draws them, no step
    changes them, and a clone shares them.
    ``action_costs`` accumulates the (non-positive) cost of every action
    applied so far. The occupancy map is a read-only property computed in
    O(N), so no hot path reads it. No infection or death total is kept:
    :func:`census` counts the compartments, and :func:`step_inplace`
    returns each step's reward.
    """

    step: int
    persons: list[PersonState]
    occupant: list[int]
    mask_refusers: tuple[bool, ...]
    vax_refusers: tuple[bool, ...]
    mask_mandate_active: bool = False
    action_costs: float = 0.0

    @property
    def occupancy(self) -> dict[tuple[int, int], int]:
        """Each person's (x, y) -> the occupant of its tile, in id order."""
        occupant = self.occupant
        return {p.position: occupant[p.tile] for p in self.persons}

    def clone(self) -> "SimState":
        return SimState(
            self.step,
            [p.clone() for p in self.persons],
            self.occupant[:],
            self.mask_refusers,
            self.vax_refusers,
            self.mask_mandate_active,
            self.action_costs,
        )


def init_state(validated: ValidatedScenario, seed: int) -> SimState:
    """Create the step-0 state for a validated scenario.

    Compliance is decided here, once per episode: each person's mask and
    then vaccination refusal is drawn, in ascending person-id order, from
    the dedicated ``init`` stream of ``seed`` into the state's
    ``mask_refusers`` and ``vax_refusers``, and never re-rolled.
    Pre-vaccinated persons are vaccinated from the start and never
    refusers.
    """
    params = validated.params
    width = validated.grid.width
    rng = substream(seed, "init")
    persons: list[PersonState] = []
    mask_refusers: list[bool] = []
    vax_refusers: list[bool] = []
    occupant = [-1] * len(validated.neighbors)
    for pl in validated.placements:
        mask_refusers.append(rng.random() < params.mask_noncompliance)
        refuses_vaccine = rng.random() < params.vax_noncompliance
        vax_refusers.append(refuses_vaccine and not pl.pre_vaccinated)
        x, y = pl.position
        tile = y * width + x
        compartment = Compartment[pl.compartment]
        persons.append(PersonState(pl.person_id, compartment, tile, width, pl.pre_vaccinated))
        occupant[tile] = pl.person_id
    return SimState(0, persons, occupant, tuple(mask_refusers), tuple(vax_refusers))


# ---------------------------------------------------------------------------
# Exposure
# ---------------------------------------------------------------------------


def exposure_probability(target: PersonState, state: SimState, params: EpiParams) -> float:
    """Probability that a susceptible person of ``state`` is exposed this
    step: one minus its miss product in :func:`exposure_misses`.

    Each source's contact row holds only the target, at its distance
    from the source when that is within the exposure radius, so the
    scatter costs O(sources) at any radius.

    Raises:
        ValueError: If ``target`` is not susceptible.
    """
    if target.compartment is not _S:
        raise ValueError("exposure probability is defined for susceptible persons")
    sources = [p for p in state.persons if p.compartment is _I]
    radius = params.exposure_radius
    (tx, ty), only_target = target.position, (target.tile,)
    rows = {}
    for src in sources:
        sx, sy = src.position
        d = abs(sx - tx) + abs(sy - ty)
        rows[src.tile] = ((d, only_target),) if 1 <= d <= radius else ()
    return 1.0 - exposure_misses(sources, state, params, rows).get(target.id, 1.0)


def exposure_misses(
    sources: list[PersonState],
    state: SimState,
    params: EpiParams,
    rows: Mapping[int, tuple[tuple[int, tuple[int, ...]], ...]],
) -> dict[int, float]:
    """Per-target miss products of this step's infection attempts: the
    one exposure formula.

    Each infectious person within Manhattan distance 1..exposure_radius
    of a susceptible person makes an independent infection attempt with
    probability beta * (k / distance), scaled down by the source's mask,
    the target's mask (each worn under the mandate unless a refuser)
    and the target's vaccination. ``sources`` are the
    infectious persons of ``state`` in ascending id; each reads the
    ``(d, tiles)`` contact row of its tile from ``rows`` (the scenario's
    :class:`~gridepi.scenario.ContactRows` in the kernel) and multiplies
    the miss factor ``1.0 - attempt`` of every susceptible person found
    on those tiles. The tests' per-target gather equals it bit for bit.
    Susceptible persons with no source in range are absent (their
    probability is 0.0).
    """
    persons = state.persons
    occupant = state.occupant
    mask_refusers = state.mask_refusers
    beta_k = params.beta * params.k
    mask_sus_mult = params.mask_sus_mult
    vax_protection = params.vax_protection
    inf_mult = params.mask_inf_mult
    mandate = state.mask_mandate_active
    misses: dict[int, float] = {}
    for src in sources:
        src_masked = mandate and not mask_refusers[src.id]
        for d, tiles in rows[src.tile]:
            for tile in tiles:
                tid = occupant[tile]
                if tid < 0:
                    continue
                target = persons[tid]
                if target.compartment is not _S:
                    continue
                susceptibility = mask_sus_mult if mandate and not mask_refusers[tid] else 1.0
                if target.vaccinated:
                    susceptibility *= vax_protection
                attempt = (beta_k / d) * susceptibility
                if src_masked:
                    attempt *= inf_mult
                misses[tid] = misses.get(tid, 1.0) * (1.0 - attempt)
    return misses


def death_probability_on_exit(person: PersonState, params: EpiParams) -> float:
    """Probability of dying, given the person leaves the infectious
    compartment this step. Vaccination scales it down. Whoever leaves
    and does not die recovers, so the recovery share is one minus this;
    ``gamma`` is not read."""
    if person.vaccinated:
        return params.mu * params.vax_protection
    return params.mu


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------


def _movement_inplace(
    state: SimState,
    neighbors: tuple[tuple[int, ...], ...],
    width: int,
    p_mv: float,
    rng,
    events: list[StepEvent] | None = None,
) -> None:
    occupant = state.occupant
    random = rng.random
    getrandbits = rng.getrandbits
    step_no = state.step
    texts = None if events is None else _move_texts(width)
    for p in state.persons:
        if p.compartment is _D:
            continue
        if random() >= p_mv:
            continue
        tile = p.tile
        candidates = []
        for t in neighbors[tile]:
            if occupant[t] < 0:
                candidates.append(t)
        n = len(candidates)
        if not n:
            continue
        if n == 1:
            target = candidates[0]
        else:
            target = candidates[randbelow(getrandbits, n)]
        occupant[tile] = -1
        occupant[target] = p.id
        p.tile = target
        if texts is not None:
            detail = texts[tile << 32 | target]
            events.append(_new_event(StepEvent, (step_no, MOVED, p.id, detail)))


def _transition_inplace(
    state: SimState,
    params: EpiParams,
    contacts: ContactRows,
    rng,
    events: list[StepEvent] | None = None,
) -> tuple[int, int]:
    # One pass, each change applied where it is drawn: exposure comes from
    # the start-of-phase sources, each person is visited once and no
    # branch reads another person, so the update is synchronous. A
    # susceptible person with no source in range draws nothing, and nor
    # does an R or a D, so with no E and no I nothing changes. Returns
    # the step's new infections (E -> I) and new deaths (I -> D).
    persons = state.persons
    sources = []
    exposed = False
    for p in persons:
        c = p.compartment
        if c is _I:
            sources.append(p)
        elif c is _E:
            exposed = True
    if not (sources or exposed):
        return 0, 0
    misses = exposure_misses(sources, state, params, contacts) if sources else {}
    sigma = params.sigma
    persistence = params.infected_persistence
    random = rng.random
    step_no = state.step
    infections = deaths = 0
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
                infections += 1
                if events is not None:
                    events.append(StepEvent(step_no, INFECTED, p.id))
            else:
                p.compartment = _S
        elif c is _I:
            if random() < persistence:
                continue
            if random() < death_probability_on_exit(p, params):
                p.compartment = _D
                deaths += 1
                if events is not None:
                    events.append(StepEvent(step_no, DIED, p.id))
            else:
                p.compartment = _R
                if events is not None:
                    events.append(StepEvent(step_no, RECOVERED, p.id))
    return infections, deaths


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

# vaccinate(i) at index i, for every id below its length
_vaccinations: list[Action] = []


@cache
def vaccinate(person_id: int) -> Action:
    """Vaccination action for one person (instances are cached)."""
    return Action(ActionKind.VACCINATE, person_id)


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
        interned = _vaccinations
        if len(persons) > len(interned):
            interned.extend(map(vaccinate, range(len(interned), len(persons))))
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
    was. A mask mandate sets the state's flag in O(1); only with
    ``events`` does it visit the living persons to log who complies."""
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
        if events is not None:
            refusers = state.mask_refusers
            for p in state.persons:
                if p.compartment is _D:
                    continue
                if refusers[p.id]:
                    events.append(StepEvent(step_no, COMPLIANCE_REFUSAL, p.id, "mask_mandate"))
                else:
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
    if state.vax_refusers[pid]:
        if events is not None:
            events.append(StepEvent(step_no, COMPLIANCE_REFUSAL, pid, "vaccination"))
        return
    person.vaccinated = True
    if events is not None:
        events.append(StepEvent(step_no, VACCINATED, pid))


# ---------------------------------------------------------------------------
# Full step
# ---------------------------------------------------------------------------


def reward(settings: PlannerSettings, infections: int, deaths: int, costs: float) -> float:
    """The infection penalty times new infections, plus the death penalty
    times new deaths, plus the action costs incurred. Always <= 0 under
    the default penalties."""
    return settings.pen_i * infections + settings.pen_d * deaths + costs


def step_inplace(
    state: SimState,
    action: Action,
    validated: ValidatedScenario,
    settings: PlannerSettings,
    rng,
    events: list[StepEvent] | None = None,
) -> float:
    """Advance ``state`` by one step in place: action, movement, health.

    The action is checked for legality against ``settings``, which also
    set its cost, before anything is mutated. Movement moves each living
    person with probability p_mv to a uniformly chosen unoccupied
    walkable neighbor, in ascending id order (earlier movers claim
    contested tiles). Exposed for hot loops; most callers want :func:`step`.
    Returns the step's :func:`reward` under ``settings``: its new
    infections (E -> I) and deaths (I -> D) and the cost it charged.
    """
    config = validated.config
    params = config.params
    costs = state.action_costs
    apply_action_inplace(state, action, settings, events)
    _movement_inplace(state, validated.neighbors, config.grid.width, params.p_mv, rng, events)
    infections, deaths = _transition_inplace(state, params, validated.contacts, rng, events)
    state.step += 1
    return reward(settings, infections, deaths, state.action_costs - costs)


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


def rows_to_csv(fields: FieldTable, rows: Iterable) -> str:
    """CSV text: the header line, then one line per row."""
    columns = [(attrgetter(attribute), fmt) for _, attribute, fmt in fields]
    lines = [",".join([name for name, _, _ in fields])]
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
    """One step's census. The cumulative totals, the ``cum_infections``
    and ``cum_deaths`` output columns, are read-only properties of it."""

    step: int
    s: int
    e: int
    i: int
    r: int
    d: int

    @property
    def cum_infections(self) -> int:
        """Persons ever infectious: I + R + D."""
        return self.i + self.r + self.d

    @property
    def cum_deaths(self) -> int:
        """Deceased persons: D."""
        return self.d


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


@dataclass
class Trajectory:
    """Per-step census record of one episode, including the initial state."""

    rows: list[TrajectoryRow] = field(default_factory=list)

    def record(self, state: SimState) -> None:
        self.rows.append(TrajectoryRow(state.step, *census(state)))

    @property
    def final(self) -> TrajectoryRow:
        return self.rows[-1]

    def to_csv(self) -> str:
        return rows_to_csv(TRAJECTORY_FIELDS, self.rows)

    def to_json(self) -> str:
        return rows_to_json("trajectory", TRAJECTORY_FIELDS, self.rows)
