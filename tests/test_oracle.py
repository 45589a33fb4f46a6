"""Oracle tests: mean-field ODE integration and exact micro enumeration."""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from gridepi import dynamics, oracle
from gridepi.dynamics import Compartment, census, init_state, step
from gridepi.oracle import (
    CompartmentVector,
    MODES,
    OutcomeDistribution,
    enumerate_exact,
    seird_euler_step,
    seird_integrate,
)
from gridepi.planner import NOOP
from gridepi.rng import substream
from gridepi.scenario import EpiParams, load_scenario, parse_scenario, validate

V0 = CompartmentVector.from_counts(99.0, 0.0, 1.0, 0.0, 0.0)


def _validated(text: str):
    return validate(parse_scenario(text))


# ---------------------------------------------------------------------------
# Euler stepping
# ---------------------------------------------------------------------------


def test_conserving_first_step_matches_hand_calculation():
    params = EpiParams()
    v1 = seird_euler_step(V0, params, dt=1.0, mode="conserving")
    assert V0.s - v1.s == pytest.approx(0.7722, abs=1e-12)
    assert v1.e == pytest.approx(0.7722, abs=1e-12)
    # gamma + mu = 1, so the whole infectious unit flows out in one step
    assert v1.i == pytest.approx(0.0, abs=1e-12)
    assert v1.r == pytest.approx(0.93, abs=1e-12)
    assert v1.d == pytest.approx(0.07, abs=1e-12)


def test_literal_first_step_matches_hand_calculation():
    params = EpiParams()
    v1 = seird_euler_step(V0, params, dt=1.0, mode="literal")
    assert V0.s - v1.s == pytest.approx(0.7722, abs=1e-12)
    assert v1.e == pytest.approx(0.7722, abs=1e-12)
    assert v1.i == pytest.approx(0.07, abs=1e-12)
    assert v1.r == pytest.approx(0.93, abs=1e-12)
    assert v1.d == pytest.approx(0.07, abs=1e-12)


def test_literal_exposure_term_ignores_infectious_count():
    # the literal incidence term depends only on S/N, so exposures keep
    # accruing even with no infectious mass at all
    params = EpiParams()
    start = CompartmentVector.from_counts(100.0, 0.0, 0.0, 0.0, 0.0)
    after = seird_euler_step(start, params, dt=1.0, mode="literal")
    assert after.e == pytest.approx(0.78, abs=1e-12)


def test_literal_mode_drifts():
    params = EpiParams()
    v1 = seird_euler_step(V0, params, dt=1.0, mode="literal")
    assert v1.total == pytest.approx(100.07, abs=1e-12)


def test_conserving_mode_conserves_for_thousands_of_steps():
    params = EpiParams()
    trail = seird_integrate(V0, params, dt=0.01, steps=1000, mode="conserving")
    assert len(trail) == 1001
    for v in trail:
        assert abs(v.total - 100.0) < 1e-9


def test_zero_beta_freezes_susceptibles():
    params = EpiParams(beta=0.0)
    for mode in MODES:
        trail = seird_integrate(V0, params, dt=0.05, steps=400, mode=mode)
        assert all(v.s == 99.0 for v in trail)


def test_modes_agree_except_infectious_outflow():
    # with beta = 0 and no exposed mass the derivative stacks differ only
    # in the I channel, by exactly dt * mu * I per step
    params = EpiParams(beta=0.0)
    start = CompartmentVector.from_counts(50.0, 0.0, 10.0, 0.0, 0.0)
    dt = 0.5
    lit = seird_euler_step(start, params, dt, mode="literal")
    con = seird_euler_step(start, params, dt, mode="conserving")
    assert lit.s == con.s
    assert lit.e == con.e
    assert lit.r == con.r
    # deaths match analytically ((1 - gamma) vs mu) but not bitwise
    assert lit.d == pytest.approx(con.d, abs=1e-12)
    assert lit.i - con.i == pytest.approx(dt * params.mu * start.i, abs=1e-12)


def test_integrate_zero_steps_is_identity():
    trail = seird_integrate(V0, EpiParams(), dt=0.1, steps=0)
    assert trail == [V0]


def test_euler_step_validation():
    params = EpiParams()
    with pytest.raises(ValueError):
        seird_euler_step(V0, params, dt=1.0, mode="exact")
    with pytest.raises(ValueError):
        seird_euler_step(V0, params, dt=0.0)
    with pytest.raises(ValueError):
        seird_euler_step(CompartmentVector(0.0, 0.0, 0.0, 0.0, 0.0, 0.0), params, 1.0)
    with pytest.raises(ValueError):
        seird_euler_step(
            CompartmentVector(float("nan"), 0.0, 1.0, 0.0, 0.0, 1.0), params, 1.0
        )
    with pytest.raises(ValueError):
        seird_integrate(V0, params, dt=0.1, steps=-1)


@pytest.mark.parametrize(
    "v0, dt, message",
    [
        (V0, 0.0, "dt must be positive"),
        (CompartmentVector(0.0, 0.0, 0.0, 0.0, 0.0, 0.0), 0.1, "population n must be positive"),
        (CompartmentVector(float("nan"), 0.0, 1.0, 0.0, 0.0, 1.0), 0.1, "must be finite"),
        (
            CompartmentVector.from_counts(-5.0, 0.0, 10.0, 0.0, 0.0),
            0.1,
            r"compartment S must be non-negative, got -5\.0",
        ),
        (
            CompartmentVector.from_counts(1.0, 0.0, 1.0, 0.0, -0.5),
            0.1,
            r"compartment D must be non-negative, got -0\.5",
        ),
    ],
)
def test_integrate_checks_inputs_without_steps(v0, dt, message):
    with pytest.raises(ValueError, match=message):
        seird_integrate(v0, EpiParams(), dt=dt, steps=0)
    with pytest.raises(ValueError, match="unknown mode"):
        seird_integrate(V0, EpiParams(), dt=0.1, steps=0, mode="exact")


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "dt, params, message",
    [
        (NAN, EpiParams(), "dt must be finite"),
        (INF, EpiParams(), "dt must be finite"),
        (0.1, EpiParams(beta=NAN), "beta must be finite"),
        (0.1, EpiParams(sigma=INF), "sigma must be finite"),
        (0.1, EpiParams(gamma=-INF), "gamma must be finite"),
        (0.1, EpiParams(mu=INF), "mu must be finite"),
        (0.1, EpiParams(beta=-3.0), r"beta must be non-negative, got -3\.0"),
        (0.1, EpiParams(gamma=-0.25), r"gamma must be non-negative, got -0\.25"),
    ],
)
def test_non_finite_dt_and_rates_are_named(dt, params, message):
    # with more than one step, a NaN curve would otherwise be blamed on
    # the compartments
    with pytest.raises(ValueError, match=message):
        seird_euler_step(V0, params, dt)
    for steps in (0, 1, 5):
        with pytest.raises(ValueError, match=message):
            seird_integrate(V0, params, dt=dt, steps=steps)


@pytest.mark.parametrize(
    "v0",
    [
        # finite compartments whose sum overflows: S / n would be 0
        CompartmentVector.from_counts(1e308, 0.0, 1e308, 0.0, 0.0),
        CompartmentVector(1.0, 0.0, 1.0, 0.0, 0.0, NAN),
    ],
)
def test_non_finite_population_is_refused(v0):
    message = "population n must be finite"
    with pytest.raises(ValueError, match=message):
        seird_euler_step(v0, EpiParams(), 0.1)
    for steps in (0, 3):
        with pytest.raises(ValueError, match=message):
            seird_integrate(v0, EpiParams(), dt=0.1, steps=steps)


def test_integrate_refuses_a_step_that_overshoots_below_zero():
    # I leaves at rate gamma + mu, so a step of dt = 20 takes it below 0
    # and the next step refuses that input
    (_, first) = seird_integrate(V0, EpiParams(), dt=20.0, steps=1)
    assert first.i < 0.0
    with pytest.raises(ValueError, match="compartment I must be non-negative"):
        seird_integrate(V0, EpiParams(), dt=20.0, steps=2)


def test_from_counts_sets_population():
    v = CompartmentVector.from_counts(3.0, 2.0, 1.0, 0.0, 0.0)
    assert v.n == 6.0
    assert v.total == 6.0


# ---------------------------------------------------------------------------
# Exact enumeration
# ---------------------------------------------------------------------------

MICRO = "[grid]\nSI\n\n[params]\np_mv=0.0\n"


def test_enumerate_one_step_joint_distribution():
    v = _validated(MICRO)
    dist = enumerate_exact(v, 1)
    expected = {
        (1, 0, 1, 0, 0): 0.22 * 0.8,
        (1, 0, 0, 1, 0): 0.22 * 0.2 * 0.93,
        (1, 0, 0, 0, 1): 0.22 * 0.2 * 0.07,
        (0, 1, 1, 0, 0): 0.78 * 0.8,
        (0, 1, 0, 1, 0): 0.78 * 0.2 * 0.93,
        (0, 1, 0, 0, 1): 0.78 * 0.2 * 0.07,
    }
    assert set(dist.probabilities) == set(expected)
    for key, prob in expected.items():
        assert dist.probabilities[key] == pytest.approx(prob, abs=1e-12)


def test_enumerate_one_step_marginals():
    v = _validated(MICRO)
    dist = enumerate_exact(v, 1)
    p_exposed = sum(p for (s, e, i, r, d), p in dist.probabilities.items() if e == 1)
    p_died = sum(p for (s, e, i, r, d), p in dist.probabilities.items() if d == 1)
    assert p_exposed == pytest.approx(0.78, abs=1e-12)
    assert p_died == pytest.approx(0.2 * 0.07, abs=1e-12)


def test_enumerate_probabilities_sum_to_one():
    v = _validated(MICRO)
    for horizon in (0, 1, 3, 5, 8):
        dist = enumerate_exact(v, horizon)
        assert dist.total == pytest.approx(1.0, abs=1e-12)
        assert all(p > 0 for p in dist.probabilities.values())
        assert all(sum(key) == 2 for key in dist.probabilities)


def test_enumerate_certain_exposure_has_one_outcome():
    # beta=1 without masks makes the exposure certain, and the infectious
    # person stays infectious
    v = _validated("[grid]\nSI\n\n[params]\nbeta=1\np_mv=0\ninfected_persistence=1\n")
    assert enumerate_exact(v, 1).probabilities == {(0, 1, 1, 0, 0): 1.0}


def test_enumerate_zero_horizon_is_point_mass():
    v = _validated(MICRO)
    dist = enumerate_exact(v, 0)
    assert dist.probabilities == {(1, 0, 1, 0, 0): 1.0}


def _micro_joint_states(start, horizon):
    """The joint compartment assignments with positive probability at
    each step 0..horizon-1 of ``micro.scn`` (S I V in a row, radius 1,
    default parameters, under which every branch listed here has a
    probability strictly between 0 and 1)."""
    S, E, I, R, D = Compartment
    near = {0: (1,), 1: (0, 2), 2: (1,)}
    layers = [{start}]
    for _ in range(horizon - 1):
        layer = set()
        for key in layers[-1]:
            options = []
            for i, c in enumerate(key):
                if c is S:
                    options.append((S, E) if any(key[j] is I for j in near[i]) else (S,))
                elif c is E:
                    options.append((S, I))
                elif c is I:
                    options.append((I, R, D))
                else:
                    options.append((c,))
            layer.update(itertools.product(*options))
        layers.append(layer)
    return layers


def test_enumerate_reads_the_kernels_exposure_formula(monkeypatch):
    # The enumeration must check the formula the sampler runs, not a copy
    # of it: it reads every exposure probability from the kernel's
    # scatter, one scatter per joint state per step, whose misses every
    # person's outcomes then read, and the distribution stays the stored
    # one.
    golden = Path(__file__).resolve().parent / "golden"
    v = validate(load_scenario(golden / "inputs" / "micro.scn"))
    assert oracle.exposure_misses is dynamics.exposure_misses
    scatter, outcomes = oracle.exposure_misses, oracle._person_outcomes
    log = []

    def spy_scatter(sources, state, params, rows):
        assert rows is v.contacts
        misses = scatter(sources, state, params, rows)
        log.append((tuple(p.compartment for p in state.persons), misses))
        return misses

    def spy_outcomes(person, misses, params):
        log.append(misses)
        return outcomes(person, misses, params)

    monkeypatch.setattr(oracle, "exposure_misses", spy_scatter)
    monkeypatch.setattr(oracle, "_person_outcomes", spy_outcomes)
    horizon = v.planner.horizon
    dist = enumerate_exact(v, horizon)
    expected = (golden / "oracle_enumerate" / "stdout.txt").read_text(encoding="utf-8")
    assert dist.to_json() == expected

    n = v.population
    assert len(log) % (n + 1) == 0
    keys = []
    for at in range(0, len(log), n + 1):
        key, misses = log[at]
        assert all(read is misses for read in log[at + 1:at + n + 1])
        keys.append(key)
    start = tuple(Compartment[pl.compartment] for pl in v.placements)
    layers = _micro_joint_states(start, horizon)
    assert len(keys) == sum(len(layer) for layer in layers)
    for layer in layers:
        assert set(keys[:len(layer)]) == layer
        keys = keys[len(layer):]


def test_enumerate_absorbing_population():
    v = _validated("[grid]\nRR#\n\n[params]\np_mv=0.0\n")
    dist = enumerate_exact(v, 6)
    assert dist.probabilities == {(0, 0, 0, 2, 0): 1.0}


def test_enumerate_guards():
    too_many = _validated("[grid]\nSSSI\n\n[params]\np_mv=0.0\n")
    with pytest.raises(ValueError):
        enumerate_exact(too_many, 3)
    too_wide = _validated("[grid]\nSI...\n.....\n\n[params]\np_mv=0.0\n")
    with pytest.raises(ValueError):
        enumerate_exact(too_wide, 3)
    moving = _validated("[grid]\nSI\n")
    with pytest.raises(ValueError):
        enumerate_exact(moving, 3)
    static = _validated(MICRO)
    with pytest.raises(ValueError):
        enumerate_exact(static, -1)


def test_enumerate_matches_monte_carlo():
    v = _validated(MICRO)
    horizon = 3
    dist = enumerate_exact(v, horizon)
    runs = 4000
    counts = Counter()
    for seed in range(runs):
        state = init_state(v, seed)
        env = substream(seed, "env")
        for _ in range(horizon):
            state, _ = step(state, NOOP, v, env)
        counts[census(state)] += 1
    for key, prob in dist.probabilities.items():
        assert counts[key] / runs == pytest.approx(prob, abs=0.035)
    assert set(counts) <= set(dist.probabilities)


def test_enumerate_vaccinated_start_shifts_mass():
    plain = enumerate_exact(_validated(MICRO), 1)
    shielded = enumerate_exact(
        _validated("[grid]\nVI\n\n[params]\np_mv=0.0\n"), 1
    )
    exposed = lambda d: sum(  # noqa: E731
        p for (s, e, i, r, d_), p in d.probabilities.items() if e == 1
    )
    assert exposed(shielded) == pytest.approx(0.78 * 0.13, abs=1e-12)
    assert exposed(shielded) < exposed(plain)


def test_outcome_distribution_json():
    dist = OutcomeDistribution(2, {(1, 0, 1, 0, 0): 0.25, (0, 1, 1, 0, 0): 0.75})
    payload = json.loads(dist.to_json())
    assert payload["horizon"] == 2
    assert payload["distribution"] == {"1,0,1,0,0": 0.25, "0,1,1,0,0": 0.75}


def test_enumerate_three_person_chain():
    # middle person flanked by two infectious neighbors: one-step exposure
    # probability is the two-source combination
    v = _validated("[grid]\nISI\n\n[params]\np_mv=0.0\n")
    dist = enumerate_exact(v, 1)
    assert dist.total == pytest.approx(1.0, abs=1e-12)
    p_exposed = sum(p for (s, e, i, r, d), p in dist.probabilities.items() if e == 1)
    assert p_exposed == pytest.approx(1 - 0.22**2, abs=1e-12)


def test_enumerate_agrees_with_simulation_on_random_micros():
    # spot-check a couple of tiny random layouts at a short horizon
    rng = random.Random(9)
    layouts = ["SE\n", "IE\n", "S#\nI.\n"]
    for body in layouts:
        v = _validated(f"[grid]\n{body}\n[params]\np_mv=0.0\n")
        dist = enumerate_exact(v, 2)
        runs = 2500
        counts = Counter()
        for _ in range(runs):
            seed = rng.randrange(1_000_000)
            state = init_state(v, seed)
            env = substream(seed, "env")
            for _ in range(2):
                state, _ = step(state, NOOP, v, env)
            counts[census(state)] += 1
        for key, count in counts.items():
            assert count / runs == pytest.approx(
                dist.probabilities[key], abs=0.04
            )
