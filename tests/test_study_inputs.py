"""Property tests for the study inputs.

Any text given to a reader either parses or fails as a
ScenarioParseError with a line number (whole-file errors excepted), and
every spec a reader returns runs end to end or fails as a ScenarioError.
Every field of every input record built in code fits its annotation or
fails as a ScenarioValidationError naming the field.
"""

from __future__ import annotations

import re
from dataclasses import fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridepi.harness import (
    VARIATIONS,
    ExperimentSpec,
    SchoolBenchmarkSpec,
    emit_results,
    parse_benchmark_file,
    parse_experiment_file,
    run_experiment,
    simulate_school,
)
from gridepi.scenario import (
    EpiParams,
    GridMap,
    Placement,
    PlannerSettings,
    ScenarioConfig,
    ScenarioError,
    ScenarioParseError,
    ScenarioValidationError,
    file_keys,
    parse_scenario,
    validate,
)

FUZZ = settings(derandomize=True, deadline=None, max_examples=300)
END_TO_END = settings(derandomize=True, deadline=None, max_examples=40)

# errors about the file as a whole carry no line number
WHOLE_FILE_ERRORS = {
    "missing [grid] section",
    "no [experiment] sections found",
    "no [school] sections found",
}

ROOM_SCN = """\
[grid]
S.I
...

[planner]
horizon = 2
rounds = 1
uct_iterations = 4
"""

ZERO_CLASSROOMS = (
    "[school]\nname = Z\nenrollment = 1\nper_room = 3\n"
    "grid_x = 2\ngrid_y = 2\ntrue_pos_pct = 0\n"
)
RUNS_ZERO = "[experiment]\nscenario = room.scn\nruns = 0\n"
NUL_PATH = "[experiment]\nscenario = a\0b.scn\n"
# a [school] section's keys: the spec's fields and the classroom planner overrides
SCHOOL_KEYS = [
    *file_keys(SchoolBenchmarkSpec), "horizon", "rounds", "uct_iterations", "uct_exploration"
]
PEN_D_ABOVE_PEN_I = "[grid]\nSI\n\n[planner]\npen_i=-5\npen_d=-1\n"
HEADER_COMMENTS = (
    "[grid]  # floor\nSI\n",
    "[grid]\nSI\n[params] # disease\nbeta=0.5\n",
    "[grid]\nSI\n\n[params]\nbeta=0.5\n[planner]  # budget\nhorizon=3\n",
)

# no lone surrogates: every drawn text can be written as UTF-8
ANY_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=200)
VALUES = st.one_of(
    st.integers(min_value=-3, max_value=12).map(str),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(
        ["", "9" * 400, "1e400", "true", "false", "none", "masks, vaccines",
         "masks+vaccines", ",", "sometimes", "room.scn", "missing.scn", "a\0b"]
    ),
    st.text(max_size=8),
)


def _sectioned_text(headers: list[str], keys: list[str], extra=st.nothing()):
    """Lines from a reader's grammar (known headers and keys, random
    values) mixed with arbitrary lines."""
    line = st.one_of(
        st.sampled_from(headers).map("[{}]".format),
        st.tuples(st.sampled_from(keys), VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
        st.sampled_from(["", "# comment", "[other]", "key", "= 1"]),
        st.text(max_size=12),
        extra,
    )
    return st.lists(line, max_size=14).map("\n".join)


def _check_failure(exc: ScenarioParseError) -> None:
    assert exc.line is not None or str(exc) in WHOLE_FILE_ERRORS, str(exc)


@pytest.fixture(scope="module")
def study_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("study")
    (path / "room.scn").write_text(ROOM_SCN, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Readers: parse or fail with a line
# ---------------------------------------------------------------------------


@given(
    st.one_of(
        ANY_TEXT,
        _sectioned_text(
            ["grid", "params", "planner"],
            [*file_keys(EpiParams), *file_keys(PlannerSettings)],
            st.text(alphabet="#.SIERV", min_size=1, max_size=4),
        ),
    )
)
@example(PEN_D_ABOVE_PEN_I)
@example(HEADER_COMMENTS[0])
@example(HEADER_COMMENTS[1])
@example(HEADER_COMMENTS[2])
@FUZZ
def test_parse_scenario_parses_or_fails_on_a_line(text):
    try:
        parse_scenario(text)
    except ScenarioParseError as exc:
        _check_failure(exc)


@given(st.one_of(ANY_TEXT, _sectioned_text(["experiment"], list(file_keys(ExperimentSpec)))))
@example(NUL_PATH)
@example(RUNS_ZERO)
@FUZZ
def test_parse_experiment_file_parses_or_fails_on_a_line(study_dir, text):
    path = study_dir / "study.exp"
    path.write_text(text, encoding="utf-8")
    try:
        parse_experiment_file(path)
    except ScenarioParseError as exc:
        _check_failure(exc)
    except OSError:
        pass  # a referenced scenario that cannot be read


@given(st.one_of(ANY_TEXT, _sectioned_text(["school"], SCHOOL_KEYS)))
@example(ZERO_CLASSROOMS)
@FUZZ
def test_parse_benchmark_file_parses_or_fails_on_a_line(study_dir, text):
    path = study_dir / "study.bench"
    path.write_text(text, encoding="utf-8")
    try:
        parse_benchmark_file(path)
    except ScenarioParseError as exc:
        _check_failure(exc)


# One section per reader, its header on line 4 with a trailing comment, and
# in it an int key whose rule is ">= 1"
SECTIONS = {
    "params": ("[grid]\nSI\n\n[params]  # [x] = 1\n", "exposure_radius"),
    "experiment": ("# a\n# b\n\n[experiment]  # [x] = 1\n", "runs"),
    "school": ("# a\n# b\n\n[school]  # [x] = 1\n", "per_room"),
}


@pytest.mark.parametrize("section", sorted(SECTIONS))
@pytest.mark.parametrize(
    "lead, body, error",
    [
        ("", "oops\n", "line 5: expected key=value"),
        ("", "bogus = 1\n", "line 5: unknown key 'bogus' in [{section}]"),
        ("", "{key} = 2\n{key} = 3\n", "line 6: duplicate key '{key}' in [{section}]"),
        (
            "",
            "{key} = zebra\n",
            "line 5: bad value for '{key}': invalid literal for int() with base 10: 'zebra'",
        ),
        ("", "\n{key} = 0  # none\n", "line 6: {key} must be >= 1"),
        ("stray\n", "{key} = 2\n", "line 1: content before first section"),
    ],
)
def test_readers_share_one_grammar(tmp_path, section, lead, body, error):
    head, key = SECTIONS[section]
    text = lead + head + body.format(key=key)
    path = tmp_path / "study.txt"
    path.write_text(text, encoding="utf-8")
    read = {
        "params": lambda: parse_scenario(text),
        "experiment": lambda: parse_experiment_file(path),
        "school": lambda: parse_benchmark_file(path),
    }[section]
    with pytest.raises(ScenarioParseError) as info:
        read()
    assert str(info.value) == error.format(key=key, section=section)


FLOAT = "could not convert string to float: 'zebra'"
INT = "invalid literal for int() with base 10: 'zebra'"
UNIT = "must be in [0, 1]"
PLANNER_BUDGET = [
    ("horizon", INT, -1, "must be >= 0"),
    ("rounds", INT, 0, "must be >= 1"),
    ("uct_iterations", INT, -1, "must be >= 0"),
    ("uct_exploration", FLOAT, 0.0, "must be positive"),
]
# reader section -> (key, why "zebra" does not convert, an out-of-range
# value, its range message) for every ranged key the section reads
RANGED_KEYS = {
    "params": [
        *((key, FLOAT, 1.5, UNIT) for key in ("beta", "sigma", "gamma", "mu")),
        ("k", FLOAT, 0.0, "must be in (0, 1]"),
        *(
            (key, FLOAT, -0.5, UNIT)
            for key in (
                "p_mv", "infected_persistence", "mask_sus_mult", "mask_inf_mult",
                "mask_noncompliance", "vax_noncompliance", "vax_protection",
            )
        ),
        ("exposure_radius", INT, 0, "must be >= 1"),
    ],
    "planner": [
        ("pen_i", FLOAT, 0.0, "must be negative"),
        ("pen_d", FLOAT, 1.0, "must be negative"),
        ("cost_mask_action", FLOAT, 0.5, "must be <= 0"),
        ("cost_vax_action", FLOAT, 0.5, "must be <= 0"),
        *PLANNER_BUDGET,
    ],
    "experiment": [("runs", INT, 0, "must be >= 1")],
    "school": [
        *((key, INT, 0, "must be >= 1") for key in ("enrollment", "per_room", "grid_x", "grid_y")),
        ("true_pos_pct", FLOAT, 100.5, "must be in [0, 100]"),
        *PLANNER_BUDGET,  # the classroom planner overrides
    ],
}
# reader section -> the text before its key line, which is line 5
KEY_LINE_LEAD = {
    "params": "[grid]\nSI\n\n[params]\n",
    "planner": "[grid]\nSI\n\n[planner]\n",
    "experiment": "# a\n\n[experiment]\nscenario = room.scn\n",
    "school": "# a\n# b\n\n[school]\n",
}
NO_VARIATION = (
    "unknown variation 'zebra'; expected one of ['masks', 'masks+vaccines', 'none', 'vaccines']"
)
VARIATIONS_SAYS = "variations must be a non-empty tuple of VARIATIONS flag pairs"


@pytest.mark.parametrize(
    "section, key, text, error",
    [
        pytest.param(section, key, text, error, id=f"{section}.{key}={text}")
        for section, keys in RANGED_KEYS.items()
        for key, reason, value, says in keys
        for text, error in (
            ("zebra", f"bad value for {key!r}: {reason}"),
            (str(value), f"{key} {says}"),
        )
    ]
    + [
        pytest.param(section, "variations", text, error, id=f"{section}.variations={text}")
        for section in ("experiment", "school")
        for text, error in (
            ("zebra", f"bad value for 'variations': {NO_VARIATION}"),
            (",", "bad value for 'variations': variations list is empty"),
        )
    ],
)
def test_every_ranged_key_fails_with_its_message_on_its_line(study_dir, section, key, text, error):
    body = KEY_LINE_LEAD[section] + f"{key} = {text}\n"
    path = study_dir / "messages.txt"
    path.write_text(body, encoding="utf-8")
    read = {
        "params": lambda: parse_scenario(body),
        "planner": lambda: parse_scenario(body),
        "experiment": lambda: parse_experiment_file(path),
        "school": lambda: parse_benchmark_file(path),
    }[section]
    with pytest.raises(ScenarioParseError) as info:
        read()
    assert (info.value.line, str(info.value)) == (5, f"line 5: {error}")


# reader section -> (the record it sets, the prefix of that record's messages)
SECTION_RECORD = {
    "params": (EpiParams, "params."),
    "planner": (PlannerSettings, "planner."),
    "experiment": (ExperimentSpec, ""),
    "school": (SchoolBenchmarkSpec, ""),
}


@pytest.mark.parametrize(
    "section, key, value, error",
    [
        pytest.param(section, key, value, f"{key} {says}", id=f"{section}.{key}={value!r}")
        for section, keys in RANGED_KEYS.items()
        for key, _, value, says in keys
    ]
    + [
        pytest.param(section, "variations", (), VARIATIONS_SAYS, id=f"{section}.variations=()")
        for section in ("experiment", "school")
    ],
)
def test_every_ranged_field_fails_with_its_message_in_code(section, key, value, error):
    record, prefix = SECTION_RECORD[section]
    if key not in {f.name for f in fields(record)}:  # a school's planner override
        record, prefix = SECTION_RECORD["planner"]
    with pytest.raises(ScenarioValidationError) as info:
        BUILD_CHECKED[record](**{key: value})
    assert info.value.errors == [prefix + error]


# ---------------------------------------------------------------------------
# Parsed specs run end to end
# ---------------------------------------------------------------------------


def _key_lines(required: dict, optional: dict | None = None) -> st.SearchStrategy[str]:
    """``key = value`` lines for every ``required`` key and some ``optional`` ones."""
    return st.fixed_dictionaries(required, optional=optional).map(
        lambda values: "".join(f"{key} = {value}\n" for key, value in values.items())
    )


VARIATION_LISTS = st.lists(st.sampled_from(sorted(VARIATIONS)), min_size=1, max_size=3).map(
    ",".join
)

# in-range values, so most schools parse; at most 6 classrooms per school
SCHOOLS = st.lists(
    _key_lines(
        {
            "name": st.sampled_from(["A", "B,C", 'say "hi"']),
            "enrollment": st.integers(min_value=1, max_value=6),
            "per_room": st.integers(min_value=1, max_value=4),
            "grid_x": st.integers(min_value=1, max_value=3),
            "grid_y": st.integers(min_value=1, max_value=3),
            "true_pos_pct": st.floats(min_value=0.0, max_value=100.0),
        },
        {
            "variations": VARIATION_LISTS,
            "horizon": st.integers(min_value=0, max_value=40),
            "rounds": st.integers(min_value=1, max_value=2),
            "uct_iterations": st.integers(min_value=0, max_value=500),
            "uct_exploration": st.sampled_from([0.5, 5.0]),
        },
    ).map("[school]\n{}".format),
    min_size=1,
    max_size=2,
).map("\n".join)


@given(SCHOOLS)
@example(ZERO_CLASSROOMS)
@END_TO_END
def test_parsed_schools_reach_emit_results(study_dir, text):
    path = study_dir / "e2e.bench"
    path.write_text(text, encoding="utf-8")
    try:
        specs = parse_benchmark_file(path)
    except ScenarioParseError:
        return
    rows = []
    for spec in specs:
        budget = replace(
            spec.planner,
            horizon=min(spec.planner.horizon, 2),
            uct_iterations=min(spec.planner.uct_iterations, 4),
        )
        rows.extend(simulate_school(replace(spec, planner=budget), 3))
    emit_results(rows, "csv")
    emit_results(rows, "json")


@st.composite
def rooms(draw) -> str:
    width = draw(st.integers(min_value=1, max_value=4))
    row = st.text(alphabet="#.SIERV", min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=1, max_size=3))
    params = draw(
        _key_lines(
            {},
            {
                "beta": st.sampled_from([0.0, 0.5, 1.0]),
                "gamma": st.sampled_from([0.5, 0.93]),
                "p_mv": st.sampled_from([0.0, 0.5]),
                "exposure_radius": st.integers(min_value=1, max_value=3),
            }
        )
    )
    planner = draw(
        _key_lines(
            {},
            {
                "masks_available": st.sampled_from(["true", "false"]),
                "pen_i": st.sampled_from([-1.0, -6.0]),
                "horizon": st.integers(min_value=0, max_value=30),
                "rounds": st.integers(min_value=1, max_value=5),
                "uct_iterations": st.integers(min_value=0, max_value=500),
            }
        )
    )
    return "[grid]\n" + "\n".join(rows) + "\n\n[params]\n" + params + "\n[planner]\n" + planner


EXPERIMENTS = _key_lines(
    {},
    {
        "variations": VARIATION_LISTS,
        "runs": st.integers(min_value=0, max_value=3),
        "label": st.sampled_from(["x", "a,b"]),
        "seed": st.integers(min_value=-5, max_value=5),
    }
).map(lambda body: "[experiment]\nscenario = gen.scn\n" + body)


@given(rooms(), EXPERIMENTS)
@example(ROOM_SCN, RUNS_ZERO)
@example("[grid]\n...\n", "[experiment]\nscenario = gen.scn\n")
@END_TO_END
def test_parsed_experiments_run_or_fail_as_scenario_errors(study_dir, room, text):
    (study_dir / "gen.scn").write_text(room, encoding="utf-8")
    path = study_dir / "e2e.exp"
    path.write_text(text, encoding="utf-8")
    try:
        specs = parse_experiment_file(path)
    except ScenarioParseError:
        return
    for spec in specs:
        planner = spec.scenario.planner
        budget = replace(
            planner,
            horizon=min(planner.horizon, 2),
            rounds=min(planner.rounds, 2),
            uct_iterations=min(planner.uct_iterations, 4),
        )
        small = replace(spec, runs=1, scenario=replace(spec.scenario, planner=budget))
        try:
            emit_results(run_experiment(small, 3), "csv")
        except ScenarioError:
            pass


ROOM = parse_scenario("[grid]\nSI\n")

# record -> builds it with the given fields replaced and checks it
BUILD_CHECKED = {
    Placement: lambda **f: validate(
        replace(ROOM, placements=(replace(ROOM.placements[0], **f), ROOM.placements[1]))
    ),
    GridMap: lambda **f: validate(replace(ROOM, grid=replace(ROOM.grid, **f))),
    EpiParams: lambda **f: validate(replace(ROOM, params=replace(ROOM.params, **f))),
    PlannerSettings: lambda **f: replace(ROOM.planner, **f),
    ScenarioConfig: lambda **f: validate(replace(ROOM, **f)),
    ExperimentSpec: lambda **f: replace(ExperimentSpec("x", ROOM), **f),
    SchoolBenchmarkSpec: lambda **f: replace(SchoolBenchmarkSpec("s", 8, 8, 3, 3, 10.0), **f),
}
PROBES = ("x", None, 1.5, True, (1,), float("nan"))
# annotation as written -> the probes that fit it; no other probe fits any field
FITTING_PROBES = {"float": (1.5,), "bool": (True,), "str": ("x",), "int | None": (None,)}


@pytest.mark.parametrize(
    "record, name, annotation, value",
    [
        pytest.param(record, f.name, f.type, value, id=f"{record.__name__}.{f.name}={value!r}")
        for record in BUILD_CHECKED
        for f in fields(record)
        for value in PROBES
    ],
)
def test_every_input_field_fits_its_annotation(record, name, annotation, value):
    type_error = re.compile(rf"\b{name} must be an? ")
    if value in FITTING_PROBES.get(annotation, ()):
        try:
            BUILD_CHECKED[record](**{name: value})
        except ScenarioValidationError as exc:  # a range or structural error
            assert not any(map(type_error.search, exc.errors))
    else:
        with pytest.raises(ScenarioValidationError) as info:
            BUILD_CHECKED[record](**{name: value})
        assert any(map(type_error.search, info.value.errors))
