"""Harness tests: sweep files, experiment runner, school benchmarks, emission."""

from __future__ import annotations

import csv
import json
from dataclasses import replace

import pytest

from gridepi import assets, planner
from gridepi.harness import (
    BENCHMARK_CSV_HEADER,
    BenchmarkMetrics,
    EXPERIMENT_CSV_HEADER,
    ExperimentSpec,
    RunMetrics,
    VARIATIONS,
    emit_results,
    make_classroom,
    parse_benchmark_file,
    parse_experiment_file,
    rooms_for,
    run_experiment,
    run_experiments,
    simulate_school,
    simulate_schools,
)
from gridepi.scenario import (
    PlannerSettings,
    ScenarioParseError,
    ScenarioValidationError,
    serialize_scenario,
    validate,
)

SMALL_EXP = """\
[experiment]
scenario = tiny.scn
variations = none, masks
runs = 2
label = tiny
seed = 77
"""

TINY_SCN = """\
[grid]
S.I
...

[planner]
horizon = 6
rounds = 2
uct_iterations = 8
"""


ONE_SCHOOL = """\
[school]
name = Tiny
enrollment = 105
per_room = 8
grid_x = 6
grid_y = 6
true_pos_pct = 21.2
variations = none
"""


# the second school's header is line 10 and its last line is 17
TWO_SCHOOLS = ONE_SCHOOL + "\n" + ONE_SCHOOL.replace("Tiny", "Second")


def _write_spec(tmp_path, exp_text=SMALL_EXP, scn_text=TINY_SCN):
    (tmp_path / "tiny.scn").write_text(scn_text, encoding="utf-8")
    spec_path = tmp_path / "sweep.exp"
    spec_path.write_text(exp_text, encoding="utf-8")
    return spec_path


# ---------------------------------------------------------------------------
# School arithmetic
# ---------------------------------------------------------------------------


def test_rooms_for_examples():
    assert rooms_for(105, 8) == 13
    assert rooms_for(350, 17) == 21


def test_rooms_for_rounds_half_to_even():
    assert rooms_for(25, 10) == 2
    assert rooms_for(35, 10) == 4


def test_rooms_for_is_exact_beyond_float_range():
    assert rooms_for(10**400 + 1, 2) == 5 * 10**399
    assert rooms_for(3 * 10**400 + 3, 2) == 15 * 10**399 + 2


def test_estimated_population():
    assert 8 * rooms_for(105, 8) == 104
    assert 17 * rooms_for(350, 17) == 357


def test_make_classroom_layout():
    config = make_classroom(6, 6, 8)
    v = validate(config)
    assert v.walkable_count == 36
    assert v.population == 8
    positions = [p.position for p in v.placements]
    expected_indices = [(i * 36) // 8 for i in range(8)]
    assert positions == [(i % 6, i // 6) for i in expected_indices]
    compartments = [p.compartment for p in v.placements]
    assert compartments.count("I") == 1
    assert compartments[8 // 2] == "I"


def test_make_classroom_rejects_overflow():
    with pytest.raises(ValueError):
        make_classroom(2, 2, 5)


def test_classroom_serializes_and_reparses():
    from gridepi.scenario import parse_scenario

    config = make_classroom(4, 3, 5)
    again = parse_scenario(serialize_scenario(config))
    assert again.grid == config.grid
    assert again.placements == config.placements
    assert again.params == config.params
    assert again.planner == config.planner


# ---------------------------------------------------------------------------
# Sweep file parsing
# ---------------------------------------------------------------------------


def test_parse_experiment_file(tmp_path):
    specs = parse_experiment_file(_write_spec(tmp_path))
    assert len(specs) == 1
    spec = specs[0]
    assert spec.label == "tiny"
    assert spec.runs == 2
    assert spec.seed == 77
    assert spec.variations == ((False, False), (True, False))
    assert spec.scenario.planner.horizon == 6


def test_parse_experiment_defaults(tmp_path):
    text = "[experiment]\nscenario = tiny.scn\n"
    specs = parse_experiment_file(_write_spec(tmp_path, exp_text=text))
    spec = specs[0]
    assert spec.label == "tiny"
    assert spec.runs == 3
    assert spec.seed is None
    assert spec.variations == ((False, False),)


@pytest.mark.parametrize(
    "text",
    [
        "[study]\nscenario = tiny.scn\n",
        "[experiment]\nvariations = none\n",
        "[experiment]\nscenario = tiny.scn\nruns = 0\n",
        "[experiment]\nscenario = tiny.scn\nvariations = sometimes\n",
        "[experiment]\nscenario = tiny.scn\nbudget = 3\n",
        "",
    ],
)
def test_parse_experiment_errors(tmp_path, text):
    with pytest.raises(ScenarioParseError):
        parse_experiment_file(_write_spec(tmp_path, exp_text=text))


@pytest.mark.parametrize(
    "old, new, line, message",
    [
        ("runs = 2", "runs = 0", 4, "runs must be >= 1"),
        ("runs = 2", "runs = two", 4, "bad value for 'runs': invalid literal"),
        (
            "variations = none, masks",
            "variations = ,",
            3,
            "bad value for 'variations': variations list is empty",
        ),
        (
            "variations = none, masks",
            "variations = none, sometimes",
            3,
            "bad value for 'variations': unknown variation 'sometimes'",
        ),
        # an empty path would resolve to the file's own directory
        ("scenario = tiny.scn", "scenario =", 2, "bad value for 'scenario': path is empty"),
        (
            "scenario = tiny.scn",
            "scenario =  # no file",
            2,
            "bad value for 'scenario': path is empty",
        ),
    ],
)
def test_parse_experiment_errors_on_the_value_line(tmp_path, old, new, line, message):
    path = _write_spec(tmp_path, exp_text=SMALL_EXP.replace(old, new))
    with pytest.raises(ScenarioParseError) as info:
        parse_experiment_file(path)
    assert info.value.line == line
    assert str(info.value).startswith(f"line {line}: {message}")


def test_parse_experiment_rejects_nul_in_scenario_path(tmp_path):
    path = tmp_path / "nul.exp"
    path.write_bytes(b"[experiment]\nscenario = a\0b.scn\n")
    with pytest.raises(ScenarioParseError) as info:
        parse_experiment_file(path)
    assert info.value.line == 2
    assert str(info.value).startswith("line 2: bad value for 'scenario': ")


def test_parse_experiment_rejects_a_room_without_persons(tmp_path):
    path = _write_spec(tmp_path, exp_text=SMALL_EXP * 2, scn_text="[grid]\n...\n")
    with pytest.raises(ScenarioParseError) as info:
        parse_experiment_file(path)
    assert str(info.value) == "line 1: scenario has no persons"


def test_experiment_spec_checks_itself(tmp_path):
    (spec,) = parse_experiment_file(_write_spec(tmp_path))
    with pytest.raises(ScenarioValidationError) as info:
        replace(spec, runs=0)
    assert info.value.errors == ["runs must be >= 1"]


_BAD_VARIATIONS = "variations must be a non-empty tuple of VARIATIONS flag pairs"


@pytest.mark.parametrize(
    "patch, error",
    [
        ({"runs": 1.5}, "runs must be an int"),
        ({"seed": "7"}, "seed must be an int"),
        ({"label": 5}, "label must be a str"),
        ({"scenario": "small_space.scn"}, "scenario must be a ScenarioConfig"),
        ({"variations": ("masks",)}, _BAD_VARIATIONS),
        ({"variations": ("none",)}, _BAD_VARIATIONS),
        ({"variations": ()}, _BAD_VARIATIONS),
        ({"variations": [(True, False)]}, _BAD_VARIATIONS),
        ({"variations": ((1, 0),)}, _BAD_VARIATIONS),
        ({"variations": ((True, False, True),)}, _BAD_VARIATIONS),
    ],
)
def test_experiment_spec_rejects_wrong_types(tmp_path, patch, error):
    (spec,) = parse_experiment_file(_write_spec(tmp_path))
    with pytest.raises(ScenarioValidationError) as info:
        replace(ExperimentSpec("x", spec.scenario), **patch)
    assert info.value.errors == [error]
    assert ExperimentSpec("x", spec.scenario, seed=None).seed is None


def test_parse_experiment_missing_scenario_file(tmp_path):
    spec_path = tmp_path / "sweep.exp"
    spec_path.write_text("[experiment]\nscenario = missing.scn\n", encoding="utf-8")
    with pytest.raises(OSError):
        parse_experiment_file(spec_path)


def test_parse_bundled_experiment_file():
    specs = parse_experiment_file(assets.asset_path("table2.exp"))
    assert [s.label for s in specs] == [
        "small_space",
        "larger_space",
        "small_crowded",
        "larger_crowded",
    ]
    assert all(s.runs == 3 for s in specs)
    assert sum(len(s.variations) for s in specs) == 10


def test_parse_bundled_benchmark_file():
    specs = parse_benchmark_file(assets.asset_path("schools.bench"))
    assert [s.name for s in specs] == ["EECB", "AMCPS"]
    eecb, amcps = specs
    assert (eecb.enrollment, eecb.per_room, eecb.grid_x, eecb.grid_y) == (105, 8, 6, 6)
    assert (amcps.enrollment, amcps.per_room, amcps.grid_x, amcps.grid_y) == (350, 17, 9, 7)
    assert eecb.true_pos_pct == 21.2
    assert amcps.true_pos_pct == 16.6
    assert eecb.planner.rounds == 1
    assert len(eecb.variations) == 3


@pytest.mark.parametrize(
    "mutation",
    [
        ("per_room = 8", "per_room = 40"),
        ("[school]", "[campus]"),
        ("enrollment = 105", "enrollment = 0"),
        ("name = Tiny", "name = Tiny\nfloors = 2"),
        # 3 / 8 rounds to 0 classrooms
        ("enrollment = 105", "enrollment = 3"),
    ],
)
def test_parse_benchmark_errors(tmp_path, mutation):
    old, new = mutation
    path = tmp_path / "one.bench"
    path.write_text(ONE_SCHOOL.replace(old, new), encoding="utf-8")
    with pytest.raises(ScenarioParseError):
        parse_benchmark_file(path)


@pytest.mark.parametrize(
    "line",
    [
        "true_pos_pct = nan",
        "true_pos_pct = inf",
        "true_pos_pct = -1",
        "true_pos_pct = 101",
        "true_pos_pct = 21.2\nuct_exploration = nan",
        "true_pos_pct = 21.2\nuct_exploration = -inf",
    ],
)
def test_parse_benchmark_rejects_bad_floats_on_their_line(tmp_path, line):
    path = tmp_path / "one.bench"
    path.write_text(ONE_SCHOOL.replace("true_pos_pct = 21.2", line), encoding="utf-8")
    with pytest.raises(ScenarioParseError) as info:
        parse_benchmark_file(path)
    assert info.value.line == 7 + line.count("\n")


@pytest.mark.parametrize(
    "line, message",
    [
        ("rounds = 0", "rounds must be >= 1"),
        ("horizon = -1", "horizon must be >= 0"),
        ("uct_iterations = -1", "uct_iterations must be >= 0"),
        ("uct_exploration = 0", "uct_exploration must be positive"),
    ],
)
def test_parse_benchmark_planner_keys_follow_planner_rules(tmp_path, line, message):
    path = tmp_path / "two.bench"
    path.write_text(TWO_SCHOOLS + line + "\n", encoding="utf-8")
    with pytest.raises(ScenarioParseError) as info:
        parse_benchmark_file(path)
    assert info.value.line == 18
    assert str(info.value) == f"line 18: {message}"


@pytest.mark.parametrize(
    "old, new, line, message",
    [
        ("grid_x = 6", "grid_x = -2", 5, "grid_x must be >= 1"),
        ("grid_y = 6", "grid_y = 0", 6, "grid_y must be >= 1"),
        ("enrollment = 105", "enrollment = 0", 3, "enrollment must be >= 1"),
        ("per_room = 8", "per_room = 0", 4, "per_room must be >= 1"),
        ("true_pos_pct = 21.2", "true_pos_pct = 101", 7, "true_pos_pct must be in [0, 100]"),
        (
            "variations = none",
            "variations = all",
            8,
            "bad value for 'variations': unknown variation 'all'",
        ),
    ],
)
def test_parse_benchmark_errors_on_the_value_line(tmp_path, old, new, line, message):
    path = tmp_path / "one.bench"
    path.write_text(ONE_SCHOOL.replace(old, new), encoding="utf-8")
    with pytest.raises(ScenarioParseError) as info:
        parse_benchmark_file(path)
    assert info.value.line == line
    assert str(info.value).startswith(f"line {line}: {message}")


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("per_room = 8", "per_room = 40", "per_room exceeds the classroom tile count"),
        ("enrollment = 105", "enrollment = 3", "enrollment / per_room rounds to 0 classrooms"),
    ],
)
def test_parse_benchmark_cross_key_errors_on_the_header_line(tmp_path, old, new, message):
    path = tmp_path / "two.bench"
    path.write_text(TWO_SCHOOLS.replace(old, new), encoding="utf-8")
    with pytest.raises(ScenarioParseError) as info:
        parse_benchmark_file(path)
    assert str(info.value) == f"line 1: {message}"


def test_school_spec_checks_itself():
    school = _tiny_school()
    with pytest.raises(ScenarioValidationError, match="rounds to 0 classrooms"):
        replace(school, enrollment=1, per_room=3, grid_x=2, grid_y=2)
    with pytest.raises(ScenarioValidationError, match="per_room exceeds"):
        replace(school, per_room=5)
    with pytest.raises(ScenarioValidationError) as info:
        replace(school, enrollment=0, grid_y=0)
    assert info.value.errors == ["enrollment must be >= 1", "grid_y must be >= 1"]
    with pytest.raises(ScenarioValidationError) as info:
        PlannerSettings(rounds=0)
    assert info.value.errors == ["planner.rounds must be >= 1"]


@pytest.mark.parametrize(
    "patch, error",
    [
        ({"enrollment": 10.5}, "enrollment must be an int"),
        ({"grid_x": 3.0}, "grid_x must be an int"),
        ({"name": 3}, "name must be a str"),
        ({"variations": ("none",)}, _BAD_VARIATIONS),
        ({"variations": ((False, None),)}, _BAD_VARIATIONS),
        ({"planner": "p"}, "planner must be a PlannerSettings"),
    ],
)
def test_school_spec_rejects_wrong_types(patch, error):
    with pytest.raises(ScenarioValidationError) as info:
        replace(_tiny_school(), **patch)
    assert info.value.errors == [error]


def test_parse_benchmark_planner_overrides(tmp_path):
    path = tmp_path / "one.bench"
    path.write_text(ONE_SCHOOL + "rounds = 2\nuct_exploration = 2.5\n", encoding="utf-8")
    (spec,) = parse_benchmark_file(path)
    assert spec.planner == PlannerSettings(rounds=2, uct_exploration=2.5)


def test_parse_benchmark_defaults(tmp_path):
    path = tmp_path / "one.bench"
    path.write_text(ONE_SCHOOL.replace("variations = none\n", ""), encoding="utf-8")
    (spec,) = parse_benchmark_file(path)
    assert spec.variations == ((False, False),)
    assert spec.planner == PlannerSettings(rounds=1)
    assert make_classroom(6, 6, 8).planner == spec.planner


def test_parse_skips_leading_byte_order_mark(tmp_path):
    (tmp_path / "plain").mkdir()
    (tmp_path / "bom").mkdir()
    plain = _write_spec(tmp_path / "plain")
    bom = _write_spec(tmp_path / "bom", "\ufeff" + SMALL_EXP, "\ufeff" + TINY_SCN)
    assert parse_experiment_file(bom) == parse_experiment_file(plain)
    (tmp_path / "plain" / "one.bench").write_text(ONE_SCHOOL, encoding="utf-8")
    (tmp_path / "bom" / "one.bench").write_text("\ufeff" + ONE_SCHOOL, encoding="utf-8")
    assert parse_benchmark_file(tmp_path / "bom" / "one.bench") == parse_benchmark_file(
        tmp_path / "plain" / "one.bench"
    )


def test_variation_table_is_total():
    assert set(VARIATIONS) == {"none", "masks", "vaccines", "masks+vaccines"}
    assert VARIATIONS["masks+vaccines"] == (True, True)


# ---------------------------------------------------------------------------
# Experiment runner
# ---------------------------------------------------------------------------


def test_run_experiment_rows(tmp_path):
    (spec,) = parse_experiment_file(_write_spec(tmp_path))
    rows = run_experiment(spec, default_seed=1)
    assert [r.simulation for r in rows] == ["tiny", "tiny+masks"]
    for row in rows:
        assert row.n == 2
        assert row.walkable == 6
        assert row.total_tiles == 6
        assert row.density == pytest.approx(2 / 6)
        # 2 runs x 2 rounds per variation
        assert len(row.episode_positivity) == 4
        assert len(row.trajectories) == 4
        assert 0.0 <= row.pred_pos_pct <= 100.0
    assert rows[0].masks is False and rows[1].masks is True


def test_run_experiment_is_deterministic(tmp_path):
    (spec,) = parse_experiment_file(_write_spec(tmp_path))
    assert run_experiment(spec, 5) == run_experiment(spec, 5)


def test_run_experiment_spec_seed_wins(tmp_path):
    (spec,) = parse_experiment_file(_write_spec(tmp_path))
    assert spec.seed == 77
    assert run_experiment(spec, 1) == run_experiment(spec, 2)
    unseeded = replace(spec, seed=None)
    a = run_experiment(unseeded, 1)
    b = run_experiment(unseeded, 2)
    assert a != b


def test_run_experiment_aggregates_are_recomputable(tmp_path):
    (spec,) = parse_experiment_file(_write_spec(tmp_path))
    for row in run_experiment(spec, 3):
        assert row.pred_pos_pct == sum(row.episode_positivity) / len(
            row.episode_positivity
        )
        assert row.d_avg == sum(row.episode_deaths) / len(row.episode_deaths)
        for pct, deaths, trajectory in zip(
            row.episode_positivity, row.episode_deaths, row.trajectories
        ):
            final = trajectory.final
            assert pct == 100.0 * final.cum_infections / row.n
            assert deaths == final.d
            assert final.step == spec.scenario.planner.horizon


def test_run_experiment_zero_horizon(tmp_path):
    scn = "[grid]\nS.I\n...\n\n[planner]\nhorizon = 0\nrounds = 1\n"
    (spec,) = parse_experiment_file(_write_spec(tmp_path, scn_text=scn))
    (row,) = run_experiment(replace(spec, variations=((False, False),)), 4)
    # nothing happens in a zero-length episode: only the seed infection
    assert row.pred_pos_pct == pytest.approx(100.0 * 1 / 2)
    assert row.d_avg == 0.0


# ---------------------------------------------------------------------------
# School simulation
# ---------------------------------------------------------------------------


def _tiny_school():
    from gridepi.harness import SchoolBenchmarkSpec

    planner = PlannerSettings(rounds=1, horizon=5, uct_iterations=4)
    return SchoolBenchmarkSpec(
        name="Tiny",
        enrollment=6,
        per_room=3,
        grid_x=2,
        grid_y=2,
        true_pos_pct=50.0,
        variations=((False, False), (True, True)),
        planner=planner,
    )


def test_simulate_school_rows():
    rows = simulate_school(_tiny_school(), 11)
    assert [r.model for r in rows] == ["Tiny-MDP-1", "Tiny-MDP-2"]
    for row in rows:
        assert row.simulations == 2
        assert row.n == 6
        assert row.n_est == 6
        assert 0.0 <= row.pred_pos_pct <= 100.0
        assert row.abs_error == abs(row.pred_pos_pct - 50.0)
    assert rows[0].masks is False and rows[1].masks is True
    assert rows[1].vaccines is True


def test_simulate_school_is_deterministic():
    assert simulate_school(_tiny_school(), 11) == simulate_school(_tiny_school(), 11)
    assert simulate_school(_tiny_school(), 11) != simulate_school(_tiny_school(), 12)


# ---------------------------------------------------------------------------
# One batch per file
# ---------------------------------------------------------------------------


def _two_experiments(tmp_path):
    (seeded,) = parse_experiment_file(_write_spec(tmp_path))
    other = replace(seeded, label="other", seed=None, runs=1, variations=((True, True),))
    return [seeded, other, seeded]


def test_one_experiment_batch_equals_the_specs_run_one_by_one(tmp_path):
    specs = _two_experiments(tmp_path)
    rows = run_experiments(specs, 6)
    assert rows == [row for spec in specs for row in run_experiment(spec, 6)]
    assert [len(row.trajectories) for row in rows] == [4, 4, 2, 4, 4]


def test_one_school_batch_equals_the_specs_run_one_by_one():
    schools = [_tiny_school(), replace(_tiny_school(), name="Other", enrollment=9)]
    rows = simulate_schools(schools, 11)
    assert rows == [row for school in schools for row in simulate_school(school, 11)]
    assert [row.model for row in rows] == [
        "Tiny-MDP-1", "Tiny-MDP-2", "Other-MDP-1", "Other-MDP-2"
    ]


def test_every_scenario_is_validated_before_any_round(tmp_path, monkeypatch):
    good, *_ = _two_experiments(tmp_path)
    first, second = good.scenario.placements
    shared = replace(good.scenario, placements=(first, replace(second, position=first.position)))
    rounds = []
    monkeypatch.setattr(planner, "_play_round", lambda *task: rounds.append(task))
    with pytest.raises(ScenarioValidationError, match="two persons share tile"):
        run_experiments([good, replace(good, scenario=shared)], 1)
    assert rounds == []


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _experiment_row(**overrides):
    base = dict(
        simulation="demo+masks",
        n=8,
        masks=True,
        vaccines=False,
        walkable=16,
        total_tiles=20,
        density=0.375,
        pred_pos_pct=62.25,
        d_avg=0.125,
    )
    base.update(overrides)
    return RunMetrics(**base)


def _benchmark_row():
    return BenchmarkMetrics(
        model="Tiny-MDP-1",
        simulations=13,
        masks=False,
        vaccines=False,
        n=105,
        n_est=104,
        pred_pos_pct=41.666,
        true_pos_pct=21.2,
        abs_error=20.466,
    )


def test_emit_experiment_csv_formatting():
    text = emit_results([_experiment_row()])
    lines = text.splitlines()
    assert lines[0] == EXPERIMENT_CSV_HEADER
    assert lines[1] == "demo+masks,8,yes,no,16,20,0.38,62.2,0.12"
    assert text.endswith("\n")


def test_emit_benchmark_csv_formatting():
    text = emit_results([_benchmark_row()])
    lines = text.splitlines()
    assert lines[0] == BENCHMARK_CSV_HEADER
    assert lines[1] == "Tiny-MDP-1,13,no,no,105,104,41.7,21.2,20.5"


def test_emit_csv_quotes_free_text_cells():
    labels = ['say "hi", A', "two\nlines", "plain"]
    text = emit_results([_experiment_row(simulation=label) for label in labels])
    assert text.splitlines()[1] == '"say ""hi"", A",8,yes,no,16,20,0.38,62.2,0.12'
    rows = list(csv.reader(text.splitlines(keepends=True)))
    assert [row[0] for row in rows[1:]] == labels
    assert all(len(row) == 9 for row in rows)
    payload = json.loads(emit_results([_experiment_row(simulation=labels[0])], fmt="json"))
    assert payload["results"][0]["simulation"] == labels[0]


def test_emit_json_keeps_full_precision():
    payload = json.loads(emit_results([_experiment_row()], fmt="json"))
    (row,) = payload["results"]
    assert row["density"] == 0.375
    assert row["pred_pos_pct"] == 62.25
    assert row["masks"] is True
    bench = json.loads(emit_results([_benchmark_row()], fmt="json"))
    assert bench["results"][0]["N_est"] == 104
    assert bench["results"][0]["abs_error"] == 20.466


def test_emit_writes_file(tmp_path):
    out = tmp_path / "results.csv"
    text = emit_results([_experiment_row()], out=out)
    assert out.read_text(encoding="utf-8") == text


def test_emit_rejects_bad_input():
    with pytest.raises(ValueError):
        emit_results([_experiment_row()], fmt="yaml")
    with pytest.raises(ValueError):
        emit_results([])
    with pytest.raises(ValueError):
        emit_results([_experiment_row(), _benchmark_row()])
