"""Shared test utilities: random scenario generation, the reference
implementations the kernel's fast paths are checked against, and the
reading of a decision log's actions."""

from __future__ import annotations

import random

from gridepi.dynamics import MANDATE_MASKS, NOOP, Action, Compartment, vaccinate
from gridepi.scenario import ScenarioConfig, parse_scenario


def random_scenario_text(
    rng: random.Random,
    max_dim: int = 6,
    randomize_params: bool = True,
) -> str:
    """Build a small random but always-valid scenario text."""
    while True:
        width = rng.randint(2, max_dim)
        height = rng.randint(2, max_dim)
        rows = []
        persons = 0
        walkable = 0
        for _ in range(height):
            row = []
            for _ in range(width):
                if rng.random() < 0.18:
                    row.append("#")
                    continue
                walkable += 1
                if rng.random() < 0.3:
                    row.append(rng.choice("SSSIIERV"))
                    persons += 1
                else:
                    row.append(".")
            rows.append("".join(row))
        if walkable == 0 or persons == 0:
            continue
        text = "[grid]\n" + "\n".join(rows) + "\n"
        if randomize_params:
            text += (
                "\n[params]\n"
                f"beta={round(rng.uniform(0.1, 1.0), 3)}\n"
                f"sigma={round(rng.uniform(0.0, 1.0), 3)}\n"
                f"mu={round(rng.uniform(0.0, 1.0), 3)}\n"
                f"p_mv={round(rng.uniform(0.0, 1.0), 3)}\n"
                f"infected_persistence={round(rng.uniform(0.0, 0.95), 3)}\n"
            )
        return text


def gather_exposure_probability(target, state, params) -> float:
    """Probability that a susceptible person is exposed this step, gathered
    per target: the reference for ``dynamics.exposure_misses``.

    Each infectious person within Manhattan distance 1..exposure_radius
    contributes an independent infection attempt with probability
    beta * (k / distance), scaled down by the source's mask, the target's
    mask, and the target's vaccination. A person wears a mask while the
    state's mask mandate is active, unless they are a mask refuser. The
    combined probability is one minus the product of the per-source miss
    probabilities.

    Raises:
        ValueError: If ``target`` is not susceptible.
    """
    if target.compartment is not Compartment.S:
        raise ValueError("exposure probability is defined for susceptible persons")
    radius = params.exposure_radius
    mandate = state.mask_mandate_active
    refusers = state.mask_refusers
    susceptibility = params.mask_sus_mult if mandate and not refusers[target.id] else 1.0
    if target.vaccinated:
        susceptibility *= params.vax_protection
    beta_k = params.beta * params.k
    inf_mult = params.mask_inf_mult
    tx, ty = target.x, target.y
    miss = 1.0
    for src in state.persons:
        if src.compartment is Compartment.I:
            d = abs(src.x - tx) + abs(src.y - ty)
            if 1 <= d <= radius:
                attempt = (beta_k / d) * susceptibility
                if mandate and not refusers[src.id]:
                    attempt *= inf_mult
                miss *= 1.0 - attempt
    return 1.0 - miss


_NAMED_ACTIONS = {"noop": NOOP, "mandate_masks": MANDATE_MASKS}


def decided_action(text: str) -> Action:
    """A decision log's ``chosen_action`` text as an action."""
    return _NAMED_ACTIONS.get(text) or vaccinate(int(text.removeprefix("vaccinate:")))


def random_scenario(rng: random.Random, **kwargs) -> ScenarioConfig:
    return parse_scenario(random_scenario_text(rng, **kwargs))


def tuple_adjacency(grid) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
    """Walkable (x, y) -> its walkable 4-neighbors as (x, y) tuples in the
    fixed left/right/down/up order: the table the movement phase ran on
    before it ran on tile indices."""
    return {
        (x, y): tuple(
            (x + dx, y + dy)
            for dx, dy in ((-1, 0), (1, 0), (0, 1), (0, -1))
            if grid.in_bounds(x + dx, y + dy) and grid.is_walkable(x + dx, y + dy)
        )
        for x, y in grid.walkable_positions()
    }


def movement_reference(state, occupancy, adjacency, p_mv: float, rng) -> list[int]:
    """The movement phase as first written, on (x, y) tuples, an
    ``occupancy`` dict of (x, y) -> person id and ``rng.randrange``: each
    living person in id order moves with probability ``p_mv`` to a
    uniformly drawn free neighbor, and a person with one free neighbor
    moves there without a draw. Moves each person by writing its
    ``tile`` from the drawn (x, y), and updates ``occupancy``. Returns
    each mover's free-neighbor count, so a test can see which cases it
    covered."""
    counts = []
    for p in state.persons:
        if p.compartment is Compartment.D or rng.random() >= p_mv:
            continue
        pos = (p.x, p.y)
        candidates = [t for t in adjacency[pos] if t not in occupancy]
        counts.append(len(candidates))
        if not candidates:
            continue
        if len(candidates) == 1:
            target = candidates[0]
        else:
            target = candidates[rng.randrange(len(candidates))]
        del occupancy[pos]
        occupancy[target] = p.id
        x, y = target
        p.tile = y * p.width + x
    return counts
