"""End-to-end acceptance suite.

Each test covers one numbered criterion and reports a single
"[criterion NN] PASS/FAIL: ..." line, echoed in the terminal summary.
The statistical checks use fixed seeds, so the whole suite is
deterministic.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

from scipy import stats

from gridepi import assets
from gridepi.cli import cli_main
from gridepi.dynamics import Compartment, census, init_state, step, step_inplace
from gridepi.harness import parse_benchmark_file, rooms_for, simulate_school
from gridepi.oracle import CompartmentVector, enumerate_exact, seird_euler_step, seird_integrate
from gridepi.planner import (
    NOOP,
    ActionKind,
    available_actions,
    plan,
    run_episode,
)
from gridepi.rng import substream
from gridepi.scenario import (
    EpiParams,
    density,
    load_scenario,
    parse_scenario,
    serialize_scenario,
    validate,
)
from helpers import random_scenario

RESULTS: list[str] = []

ALLOWED_TRANSITIONS = {
    (Compartment.S, Compartment.S),
    (Compartment.S, Compartment.E),
    (Compartment.E, Compartment.E),
    (Compartment.E, Compartment.S),
    (Compartment.E, Compartment.I),
    (Compartment.I, Compartment.I),
    (Compartment.I, Compartment.R),
    (Compartment.I, Compartment.D),
    (Compartment.R, Compartment.R),
    (Compartment.D, Compartment.D),
}


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        RESULTS.append(f"[criterion {number:02d}] FAIL: {description}")
        raise
    RESULTS.append(f"[criterion {number:02d}] PASS: {description}")


def _bundled(name: str):
    return validate(load_scenario(assets.asset_path(name)))


def _episode_positivity(validated, settings, policy, seed) -> float:
    n = validated.population
    episodes = run_episode(validated, settings, policy, seed)
    return sum(
        100.0 * ep.trajectory.final.cum_infections / n for ep in episodes
    ) / len(episodes)


def test_criterion_01_conservation_suite():
    description = (
        "population, occupancy, and compartment transitions stay legal over "
        "100 random scenarios x 10 seeds x 20 steps in under 30 s"
    )
    with criterion(1, description):
        started = time.perf_counter()
        rng = random.Random(20260817)
        for _ in range(100):
            v = validate(random_scenario(rng))
            n = v.population
            for _ in range(10):
                seed = rng.randrange(1 << 30)
                state = init_state(v, seed)
                env = substream(seed, "env")
                for _ in range(20):
                    before = {p.id: p.compartment for p in state.persons}
                    state, _ = step(state, NOOP, v, env)
                    assert sum(census(state)) == n
                    assert len(state.occupancy) == n
                    for person in state.persons:
                        assert state.occupancy[person.position] == person.id
                        assert v.grid.is_walkable(person.x, person.y)
                        assert (
                            before[person.id],
                            person.compartment,
                        ) in ALLOWED_TRANSITIONS
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"conservation suite took {elapsed:.1f}s"


def test_criterion_02_oracle_equivalence():
    description = (
        "Monte Carlo terminal-census frequencies on the static two-person "
        "micro-scenario match exact enumeration within 0.02"
    )
    with criterion(2, description):
        v = validate(parse_scenario("[grid]\nSI\n\n[params]\np_mv=0.0\n"))
        horizon = 5
        exact = enumerate_exact(v, horizon)
        runs = 10_000
        counts: Counter = Counter()
        for seed in range(runs):
            state = init_state(v, seed)
            env = substream(seed, "env")
            for _ in range(horizon):
                state, _ = step(state, NOOP, v, env)
            counts[census(state)] += 1
        assert set(counts) <= set(exact.probabilities)
        for key, prob in exact.probabilities.items():
            assert abs(counts[key] / runs - prob) <= 0.02, (key, prob)
        one_step = enumerate_exact(v, 1)
        p_exposed = sum(
            p for (s, e, i, r, d), p in one_step.probabilities.items() if e == 1
        )
        p_died = sum(
            p for (s, e, i, r, d), p in one_step.probabilities.items() if d == 1
        )
        assert abs(p_exposed - 0.78) < 1e-12
        assert abs(p_died - 0.014) < 1e-12


def test_criterion_03_npi_ordering():
    description = (
        "on the small dense scenario mean positivity strictly drops from "
        "no interventions to masks to masks plus vaccines (paired one-sided "
        "tests at 0.05), with the baseline mean between 50 and 90"
    )
    with criterion(3, description):
        started = time.perf_counter()
        v = _bundled("small_space.scn")
        seeds = [2026_000 + i for i in range(30)]
        means: dict[str, list[float]] = {}
        for label, masks, vaccines in (
            ("none", False, False),
            ("masks", True, False),
            ("masks+vaccines", True, True),
        ):
            settings = replace(
                v.planner, masks_available=masks, vaccines_available=vaccines
            )
            policy = "planner" if (masks or vaccines) else "noop"
            means[label] = [
                _episode_positivity(v, settings, policy, seed) for seed in seeds
            ]
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
        m_none = mean(means["none"])
        m_masks = mean(means["masks"])
        m_both = mean(means["masks+vaccines"])
        assert m_none > m_masks > m_both, (m_none, m_masks, m_both)
        assert 50.0 <= m_none <= 90.0, m_none
        p_masks = stats.ttest_rel(
            means["masks"], means["none"], alternative="less"
        ).pvalue
        p_both = stats.ttest_rel(
            means["masks+vaccines"], means["masks"], alternative="less"
        ).pvalue
        assert p_masks < 0.05, p_masks
        assert p_both < 0.05, p_both
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"ordering study took {elapsed:.1f}s"


def test_criterion_04_density_trend():
    description = (
        "without interventions, mean positivity strictly increases with "
        "density across 0.25, 0.33, and 0.57"
    )
    with criterion(4, description):
        by_density = []
        for name in ("larger_space.scn", "small_space.scn", "small_crowded.scn"):
            v = _bundled(name)
            settings = replace(
                v.planner, masks_available=False, vaccines_available=False
            )
            values = [
                _episode_positivity(v, settings, "noop", 4000 + i) for i in range(30)
            ]
            by_density.append((density(v), sum(values) / len(values)))
        densities = [d for d, _ in by_density]
        assert densities == sorted(densities)
        assert round(densities[0], 2) == 0.25
        assert round(densities[1], 2) == 0.33
        assert round(densities[2], 2) == 0.57
        positivity = [p for _, p in by_density]
        assert positivity[0] < positivity[1] < positivity[2], positivity


def test_criterion_05_school_benchmark_bands():
    description = (
        "school benchmarks land in the reported bands under masks plus "
        "vaccines and the mean error shrinks as interventions are added"
    )
    with criterion(5, description):
        specs = parse_benchmark_file(assets.asset_path("schools.bench"))
        assert [s.name for s in specs] == ["EECB", "AMCPS"]
        seeds = [2000 + 37 * i for i in range(10)]
        for spec in specs:
            preds = {1: [], 2: [], 3: []}
            errors = {1: [], 2: [], 3: []}
            for seed in seeds:
                rows = simulate_school(spec, seed)
                assert [r.model for r in rows] == [
                    f"{spec.name}-MDP-{k}" for k in (1, 2, 3)
                ]
                for k, row in zip((1, 2, 3), rows):
                    preds[k].append(row.pred_pos_pct)
                    errors[k].append(row.abs_error)
            mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
            best = mean(preds[3])
            assert abs(best - spec.true_pos_pct) <= 12.0, (spec.name, best)
            e_none, e_masks, e_both = mean(errors[1]), mean(errors[2]), mean(errors[3])
            assert e_both < e_masks < e_none, (spec.name, e_none, e_masks, e_both)


def test_criterion_06_arithmetic_identities():
    description = (
        "classroom counts give estimated populations 104 and 357, and the "
        "four bundled scenarios have densities 0.33, 0.25, 0.57, 0.38"
    )
    with criterion(6, description):
        assert rooms_for(105, 8) == 13
        assert 8 * rooms_for(105, 8) == 104
        assert rooms_for(350, 17) == 21
        assert 17 * rooms_for(350, 17) == 357
        expected = {
            "small_space.scn": "0.33",
            "larger_space.scn": "0.25",
            "small_crowded.scn": "0.57",
            "larger_crowded.scn": "0.38",
        }
        for name, printed in expected.items():
            assert f"{density(_bundled(name)):.2f}" == printed, name


def test_criterion_07_reward_bookkeeping():
    description = (
        "across 50 random episodes the summed step rewards equal the "
        "closed-form penalty total bit for bit"
    )
    with criterion(7, description):
        rng = random.Random(777)
        charged = 0.0
        for _ in range(50):
            v = validate(random_scenario(rng))
            settings = replace(
                v.planner,
                horizon=10,
                cost_mask_action=-0.25,
                cost_vax_action=-0.125,
            )
            seed = rng.randrange(1 << 30)
            state = init_state(v, seed)
            _, _, i, r, d = census(state)
            initial_infections = i + r + d
            env = substream(seed, "env")
            chooser = substream(seed, "plan")
            total = 0.0
            for _ in range(settings.horizon):
                actions = available_actions(state, settings)
                action = actions[chooser.randrange(len(actions))]
                total += step_inplace(state, action, v, settings, env)
            _, _, i, r, d = census(state)
            closed_form = (
                settings.pen_i * (i + r + d - initial_infections)
                + settings.pen_d * d
                + state.action_costs
            )
            assert total == closed_form, (total, closed_form)
            charged += state.action_costs
        assert charged != 0.0, charged


def test_criterion_08_ode_oracle():
    description = (
        "conserving integration holds the population to within 1e-9 for "
        "10,000 steps, beta=0 freezes S exactly, and the first unit step "
        "removes 0.7722 susceptibles"
    )
    with criterion(8, description):
        v0 = CompartmentVector.from_counts(99.0, 0.0, 1.0, 0.0, 0.0)
        params = EpiParams()
        trail = seird_integrate(v0, params, dt=0.01, steps=10_000, mode="conserving")
        assert len(trail) == 10_001
        for vec in trail:
            assert abs(vec.total - 100.0) < 1e-9
        frozen = seird_integrate(
            v0, EpiParams(beta=0.0), dt=0.01, steps=10_000, mode="conserving"
        )
        assert all(vec.s == 99.0 for vec in frozen)
        first = seird_euler_step(v0, params, dt=1.0, mode="conserving")
        assert abs((first.s - v0.s) - (-0.7722)) < 1e-12


def test_criterion_09_determinism_and_round_trip(tmp_path, capsys):
    description = (
        "repeated CLI invocations are byte-identical and every bundled "
        "scenario survives a parse/serialize round trip"
    )
    with criterion(9, description):
        scenario = str(assets.asset_path("small_space.scn"))

        def simulate(tag: str) -> tuple[str, list[bytes]]:
            base = tmp_path / f"{tag}.csv"
            events = tmp_path / f"{tag}_ev.jsonl"
            code = cli_main(
                [
                    "simulate", scenario, "--seed", "99", "--rounds", "2",
                    "--out", str(base), "--events", str(events),
                ]
            )
            assert code == 0
            blobs = []
            for index in range(2):
                blobs.append((tmp_path / f"{tag}_r{index}.csv").read_bytes())
                blobs.append((tmp_path / f"{tag}_ev_r{index}.jsonl").read_bytes())
            return capsys.readouterr().out, blobs

        stdout_a, blobs_a = simulate("first")
        stdout_b, blobs_b = simulate("second")
        assert stdout_a == stdout_b
        assert blobs_a == blobs_b

        assert cli_main(["oracle", "ode", "--steps", "50"]) == 0
        ode_a = capsys.readouterr().out
        assert cli_main(["oracle", "ode", "--steps", "50"]) == 0
        assert capsys.readouterr().out == ode_a

        for name in (
            "small_space.scn",
            "small_crowded.scn",
            "larger_space.scn",
            "larger_crowded.scn",
        ):
            config = load_scenario(assets.asset_path(name))
            text = serialize_scenario(config)
            again = parse_scenario(text)
            assert again == config
            assert serialize_scenario(again) == text


def test_criterion_10_planner_sanity():
    description = (
        "with a -50 death penalty the planner vaccinates at step 0 in at "
        "least 60% of 20 planning seeds, against a 25% uniform baseline"
    )
    with criterion(10, description):
        v = validate(
            parse_scenario(
                "[grid]\nSS\nSI\n\n[planner]\n"
                "masks_available = false\n"
                "pen_d = -50.0\n"
                "rounds = 1\n"
                "uct_iterations = 500\n"
            )
        )
        state = init_state(v, 555)
        actions = available_actions(state, v.planner)
        # one noop plus three vaccination targets: a uniform pick lands on
        # any specific action with probability 0.25
        assert len(actions) == 4
        assert sum(a.kind is ActionKind.VACCINATE for a in actions) == 3
        chosen = [
            plan(state, v, v.planner, substream(seed, "plan")) for seed in range(20)
        ]
        vaccinations = sum(a.kind is ActionKind.VACCINATE for a in chosen)
        assert vaccinations >= 12, vaccinations
