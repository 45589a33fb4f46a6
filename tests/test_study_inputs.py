"""Property tests for the study inputs.

Any text given to a reader either parses or fails as a
ScenarioParseError with a line number (whole-file errors excepted), and
every spec a reader returns runs end to end or fails as a ScenarioError.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridepi.harness import (
    EXPERIMENT_RULES,
    SCHOOL_RULES,
    VARIATIONS,
    emit_results,
    parse_benchmark_file,
    parse_experiment_file,
    run_experiment,
    simulate_school,
)
from gridepi.scenario import (
    PARAM_RULES,
    PLANNER_RULES,
    ScenarioError,
    ScenarioParseError,
    parse_scenario,
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
            [*PARAM_RULES, *PLANNER_RULES],
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


@given(st.one_of(ANY_TEXT, _sectioned_text(["experiment"], list(EXPERIMENT_RULES))))
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


@given(st.one_of(ANY_TEXT, _sectioned_text(["school"], list(SCHOOL_RULES))))
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
