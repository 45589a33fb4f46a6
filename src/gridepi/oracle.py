"""Reference computations the stochastic simulator is checked against.

Two independent routes:

* A mean-field compartment ODE integrated with forward Euler. The
  ``literal`` mode reproduces a published textbook-style system verbatim,
  including its quirks (the inflow to E omits the infectious factor, and
  the death outflow is written against the recovery complement), so it
  does not conserve population. The ``conserving`` mode is the corrected
  system whose flows mirror the simulator: exposure scales with I, and
  leaving I splits into recovery (gamma) and death (mu).

* Exact outcome enumeration for tiny static scenarios: with movement
  disabled, per-person transitions are independent given the current
  joint compartment assignment, so the full distribution over final
  censuses can be computed by dynamic programming. :func:`_person_outcomes`
  reads exposure from the gather formula :func:`~gridepi.dynamics.exposure_probability`
  and death from :func:`~gridepi.dynamics.death_probability_on_exit`. The
  sampler scatters exposure through ``exposure_misses`` instead, and
  ``tests/test_kernel_equivalence.py`` pins the two routes bit-equal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .dynamics import (
    Compartment,
    death_probability_on_exit,
    exposure_probability,
    init_state,
)
from .scenario import EpiParams, ValidatedScenario

__all__ = [
    "CompartmentVector",
    "OutcomeDistribution",
    "seird_euler_step",
    "seird_integrate",
    "enumerate_exact",
    "MAX_ENUM_PERSONS",
    "MAX_ENUM_TILES",
]

_S = Compartment.S
_E = Compartment.E
_I = Compartment.I
_R = Compartment.R
_D = Compartment.D

MODES = ("literal", "conserving")

MAX_ENUM_PERSONS = 3
MAX_ENUM_TILES = 9


@dataclass(frozen=True)
class CompartmentVector:
    """Real-valued compartment sizes with the reference population n."""

    s: float
    e: float
    i: float
    r: float
    d: float
    n: float

    @classmethod
    def from_counts(cls, s: float, e: float, i: float, r: float, d: float) -> "CompartmentVector":
        return cls(s, e, i, r, d, s + e + i + r + d)

    @property
    def total(self) -> float:
        return self.s + self.e + self.i + self.r + self.d


def _check_step_inputs(
    v: CompartmentVector, params: EpiParams, dt: float, mode: str
) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if not math.isfinite(dt):
        raise ValueError("dt must be finite")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if v.n <= 0.0:
        raise ValueError("population n must be positive")
    for name, value in (("S", v.s), ("E", v.e), ("I", v.i), ("R", v.r), ("D", v.d)):
        if not math.isfinite(value):
            raise ValueError("compartment values must be finite")
        if value < 0.0:
            raise ValueError(f"compartment {name} must be non-negative, got {value!r}")
    for name in ("beta", "sigma", "gamma", "mu"):
        value = getattr(params, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
        if value < 0.0:
            raise ValueError(f"{name} must be non-negative, got {value!r}")


def seird_euler_step(
    v: CompartmentVector, params: EpiParams, dt: float, mode: str = "conserving"
) -> CompartmentVector:
    """One forward Euler step of the compartment ODE.

    Args:
        v: Current compartment sizes.
        params: Uses beta, sigma, gamma, mu.
        dt: Step size, > 0.
        mode: "literal" or "conserving" (see module docstring).

    Raises:
        ValueError: On an unknown mode, a non-finite or non-positive dt,
            non-positive n, or a non-finite or negative compartment or
            rate. A step that overshoots below 0 is thus refused as the
            next step's input.
    """
    _check_step_inputs(v, params, dt, mode)
    beta, sigma, gamma, mu = params.beta, params.sigma, params.gamma, params.mu
    if mode == "literal":
        ds = -beta * (v.s / v.n) * v.i
        de = beta * (v.s / v.n) - sigma * v.e
        di = sigma * v.e - gamma * v.i
        dr = gamma * v.i
        dd = (1.0 - gamma) * v.i
    else:
        ds = -beta * (v.s / v.n) * v.i
        de = beta * (v.s / v.n) * v.i - sigma * v.e
        di = sigma * v.e - (gamma + mu) * v.i
        dr = gamma * v.i
        dd = mu * v.i
    return CompartmentVector(
        v.s + dt * ds,
        v.e + dt * de,
        v.i + dt * di,
        v.r + dt * dr,
        v.d + dt * dd,
        v.n,
    )


def seird_integrate(
    v0: CompartmentVector,
    params: EpiParams,
    dt: float,
    steps: int,
    mode: str = "conserving",
) -> list[CompartmentVector]:
    """Integrate for ``steps`` Euler steps; returns steps + 1 vectors
    starting with ``v0`` itself. The inputs are checked as in
    :func:`seird_euler_step` even when ``steps`` is 0."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    _check_step_inputs(v0, params, dt, mode)
    out = [v0]
    v = v0
    for _ in range(steps):
        v = seird_euler_step(v, params, dt, mode)
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# Exact enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OutcomeDistribution:
    """Distribution over final censuses, keyed by (S, E, I, R, D)."""

    horizon: int
    probabilities: dict[tuple[int, int, int, int, int], float]

    @property
    def total(self) -> float:
        return sum(self.probabilities.values())

    def to_json(self) -> str:
        payload = {
            "horizon": self.horizon,
            "distribution": {
                ",".join(str(c) for c in key): prob
                for key, prob in sorted(self.probabilities.items())
            },
        }
        return json.dumps(payload, indent=2) + "\n"


def _person_outcomes(index, sim, params):
    """Per-person next-compartment distribution given the current joint
    state; zero-probability branches are dropped."""
    person = sim.persons[index]
    c = person.compartment
    if c is _S:
        prob = exposure_probability(person, sim, params)
        if prob <= 0.0:
            return ((_S, 1.0),)
        if prob >= 1.0:
            return ((_E, 1.0),)
        return ((_S, 1.0 - prob), (_E, prob))
    if c is _E:
        sigma = params.sigma
        out = []
        if sigma < 1.0:
            out.append((_S, 1.0 - sigma))
        if sigma > 0.0:
            out.append((_I, sigma))
        return tuple(out)
    if c is _I:
        persistence = params.infected_persistence
        exit_prob = 1.0 - persistence
        death = death_probability_on_exit(person, params)
        out = []
        if persistence > 0.0:
            out.append((_I, persistence))
        if exit_prob > 0.0:
            if death < 1.0:
                out.append((_R, exit_prob * (1.0 - death)))
            if death > 0.0:
                out.append((_D, exit_prob * death))
        return tuple(out)
    return ((c, 1.0),)


def enumerate_exact(
    validated: ValidatedScenario, horizon: int
) -> OutcomeDistribution:
    """Exact distribution over the census after ``horizon`` steps.

    Only defined for static micro-scenarios: at most MAX_ENUM_PERSONS
    persons, at most MAX_ENUM_TILES walkable tiles and p_mv = 0; no
    intervention is applied (the noop policy). With movement off,
    positions are constant and the joint compartment assignment is a
    complete state, so the step operator is a product of independent
    per-person transition distributions.

    Raises:
        ValueError: If any guard is violated or horizon is negative.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if validated.population > MAX_ENUM_PERSONS:
        raise ValueError(
            f"exact enumeration is limited to {MAX_ENUM_PERSONS} persons"
        )
    if validated.walkable_count > MAX_ENUM_TILES:
        raise ValueError(f"exact enumeration is limited to {MAX_ENUM_TILES} walkable tiles")
    if validated.params.p_mv != 0.0:
        raise ValueError("exact enumeration requires p_mv = 0")

    params = validated.params
    # Seed choice is irrelevant: compliance flags only matter under
    # interventions, and the scratch state is only read through the
    # per-person transition formulas.
    scratch = init_state(validated, 0)
    start = tuple(p.compartment for p in scratch.persons)
    n = len(start)

    dist: dict[tuple, float] = {start: 1.0}
    for _ in range(horizon):
        next_dist: dict[tuple, float] = {}
        for key, key_prob in dist.items():
            for person, compartment in zip(scratch.persons, key):
                person.compartment = compartment
            outcome_sets = [_person_outcomes(i, scratch, params) for i in range(n)]
            combos = [((), 1.0)]
            for outcomes in outcome_sets:
                combos = [
                    (assigned + (comp,), p * q)
                    for assigned, p in combos
                    for comp, q in outcomes
                ]
            for assigned, p in combos:
                next_dist[assigned] = next_dist.get(assigned, 0.0) + key_prob * p
        dist = next_dist

    by_census: dict[tuple[int, int, int, int, int], float] = {}
    for key, prob in dist.items():
        counts = [0, 0, 0, 0, 0]
        for compartment in key:
            counts[compartment] += 1
        census_key = tuple(counts)
        by_census[census_key] = by_census.get(census_key, 0.0) + prob
    return OutcomeDistribution(horizon, by_census)
