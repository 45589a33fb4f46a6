"""Scenario grammar, round-trip, validation, and grid query tests."""

from __future__ import annotations

import math
import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridepi import assets
from gridepi.scenario import (
    EpiParams,
    GridMap,
    Placement,
    PlannerSettings,
    ScenarioConfig,
    ScenarioParseError,
    ScenarioValidationError,
    density,
    file_keys,
    load_scenario,
    parse_scenario,
    serialize_scenario,
    validate,
)

BUNDLED_SCENARIOS = (
    "small_space.scn",
    "small_crowded.scn",
    "larger_space.scn",
    "larger_crowded.scn",
)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_glyph_decode_counts():
    config = parse_scenario("[grid]\n#..#\n.I..\n....\n#..#\n")
    validated = validate(config)
    assert validated.walkable_count == 12
    assert validated.population == 1
    assert validated.placements[0].compartment == "I"
    assert validated.placements[0].position == (1, 1)


def test_person_ids_row_major():
    config = parse_scenario("[grid]\nS.I\nE.R\n")
    assert [pl.person_id for pl in config.placements] == [0, 1, 2, 3]
    assert [pl.compartment for pl in config.placements] == ["S", "I", "E", "R"]
    assert [pl.position for pl in config.placements] == [(0, 0), (2, 0), (0, 1), (2, 1)]


def test_pre_vaccinated_glyph():
    config = parse_scenario("[grid]\nVI\n")
    assert config.placements[0].compartment == "S"
    assert config.placements[0].pre_vaccinated is True
    assert config.placements[1].pre_vaccinated is False


def test_missing_sections_take_defaults():
    config = parse_scenario("[grid]\nSI\n")
    assert config.params == EpiParams()
    assert config.planner == PlannerSettings()
    assert config.params.beta == 0.78
    assert config.params.sigma == 0.95
    assert config.params.gamma == 0.93
    assert config.params.mu == 0.07
    assert config.params.k == 1.0
    assert config.params.infected_persistence == 0.8
    assert config.params.mask_noncompliance == 0.04
    assert config.params.vax_noncompliance == 0.07
    assert config.params.vax_protection == 0.13
    assert config.params.p_mv == 0.5
    assert config.params.exposure_radius == 1
    assert config.planner.pen_i == -1.0
    assert config.planner.pen_d == -5.0
    assert config.planner.horizon == 15
    assert config.planner.rounds == 5


def test_param_overrides_and_comments():
    text = (
        "# leading comment\n"
        "\n"
        "[grid]\n"
        "SI\n"
        "\n"
        "[params]\n"
        "beta=0.5   # inline comment\n"
        "\n"
        "p_mv=0.0\n"
        "[planner]\n"
        "horizon=3\n"
        "masks_available=false\n"
    )
    config = parse_scenario(text)
    assert config.params.beta == 0.5
    assert config.params.p_mv == 0.0
    assert config.params.sigma == 0.95
    assert config.planner.horizon == 3
    assert config.planner.masks_available is False


def test_ragged_grid_error_names_line():
    with pytest.raises(ScenarioParseError, match="ragged grid at line 3"):
        parse_scenario("[grid]\n#..#\n#.\n")


def test_bad_glyph_reports_position():
    with pytest.raises(ScenarioParseError, match="line 2, column 3"):
        parse_scenario("[grid]\n..X.\n")


@pytest.mark.parametrize(
    "text,match",
    [
        ("", "missing \\[grid\\]"),
        ("[params]\nbeta=0.5\n", "first section must be \\[grid\\]"),
        ("[grid]\nSI\n\n[grid]\nSI\n", "duplicate section"),
        ("[grid]\nSI\n\n[bogus]\n", "unknown section"),
        ("[grid]\nSI\n\n[planner]\nhorizon=3\n\n[params]\nbeta=0.5\n", "must come before"),
        ("hello\n[grid]\nSI\n", "content before"),
        ("[grid]\nSI\n\n[params]\nnope=1\n", "unknown key"),
        ("[grid]\nSI\n\n[params]\nbeta=0.5\nbeta=0.6\n", "duplicate key"),
        ("[grid]\nSI\n\n[params]\nbeta=1.5\n", "must be in \\[0, 1\\]"),
        ("[grid]\nSI\n\n[params]\nk=0.0\n", "must be in \\(0, 1\\]"),
        ("[grid]\nSI\n\n[params]\nbeta\n", "expected key=value"),
        ("[grid]\nSI\n\n[params]\nbeta=zebra\n", "bad value"),
        ("[grid]\nSI\n\n[params]\nexposure_radius=0\n", "must be >= 1"),
        ("[grid]\nSI\n\n[planner]\npen_i=0.5\n", "must be negative"),
        ("[grid]\nSI\n\n[planner]\nrounds=0\n", "must be >= 1"),
        ("[grid]\nSI\n\n[planner]\nmasks_available=maybe\n", "expected 'true' or 'false'"),
        ("[grid]\nSI\n\nstray\n", "unexpected content after grid"),
        ("[grid]\n\n[params]\nbeta=0.5\n", "no rows"),
    ],
)
def test_parse_errors(text, match):
    with pytest.raises(ScenarioParseError, match=match):
        parse_scenario(text)


@pytest.mark.parametrize("text", ["[grid]\n", "[grid]  # floor\n\n[params]\n", "[grid]\n\n[bogus]\n"])
def test_empty_grid_fails_on_its_header(text):
    with pytest.raises(ScenarioParseError) as info:
        parse_scenario(text)
    assert str(info.value) == "line 1: [grid] section has no rows"


def test_parse_error_carries_line_number():
    try:
        parse_scenario("[grid]\nSI\n\n[params]\nbeta=2.0\n")
    except ScenarioParseError as exc:
        assert exc.line == 5
    else:  # pragma: no cover
        pytest.fail("expected a parse error")


def test_pen_d_above_pen_i_fails_on_the_planner_header():
    with pytest.raises(ScenarioParseError) as info:
        parse_scenario("[grid]\nSI\n\n[planner]\npen_i=-5\npen_d=-1\n")
    assert info.value.line == 4
    assert str(info.value) == (
        "line 4: planner.pen_d must be <= pen_i (deaths penalized at least as hard)"
    )


@pytest.mark.parametrize(
    "text,plain",
    [
        ("[grid]  # floor\nSI\n", "[grid]\nSI\n"),
        (
            "[grid]\nSI\n[params] # disease\nbeta=0.5\n",
            "[grid]\nSI\n[params]\nbeta=0.5\n",
        ),
        (
            "[grid]\nSI\n\n[params]\nbeta=0.5\n[planner]  # budget\nhorizon=3\n",
            "[grid]\nSI\n\n[params]\nbeta=0.5\n[planner]\nhorizon=3\n",
        ),
    ],
)
def test_section_header_may_end_in_a_comment(text, plain):
    assert parse_scenario(text) == parse_scenario(plain)


def test_file_keys_name_every_field():
    assert list(file_keys(EpiParams)) == [f.name for f in fields(EpiParams)]
    assert list(file_keys(PlannerSettings)) == [f.name for f in fields(PlannerSettings)]


def test_load_skips_leading_byte_order_mark(tmp_path):
    text = assets.asset_path("small_space.scn").read_text(encoding="utf-8")
    (tmp_path / "plain").mkdir()
    (tmp_path / "bom").mkdir()
    plain = tmp_path / "plain" / "room.scn"
    bom = tmp_path / "bom" / "room.scn"
    plain.write_text(text, encoding="utf-8")
    bom.write_text("\ufeff" + text, encoding="utf-8")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_scenario(bom) == load_scenario(plain)


# ---------------------------------------------------------------------------
# Serialization round-trip
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_round_trip_bundled(name):
    config = load_scenario(assets.asset_path(name))
    assert parse_scenario(serialize_scenario(config)) == config


def test_serialize_writes_every_key():
    text = serialize_scenario(parse_scenario("[grid]\nSI\n"))
    for key in (
        "beta", "sigma", "gamma", "mu", "k", "p_mv", "infected_persistence",
        "mask_sus_mult", "mask_inf_mult", "mask_noncompliance",
        "vax_noncompliance", "vax_protection", "exposure_radius",
        "masks_available", "vaccines_available", "pen_i", "pen_d",
        "cost_mask_action", "cost_vax_action", "horizon", "rounds",
        "uct_iterations", "uct_exploration",
    ):
        assert f"\n{key}=" in text


def test_serialize_is_stable():
    config = parse_scenario("[grid]\nSI\n\n[params]\nbeta=0.25\n")
    once = serialize_scenario(config)
    assert serialize_scenario(parse_scenario(once)) == once


def test_name_not_part_of_equality():
    a = parse_scenario("[grid]\nSI\n", name="a")
    b = parse_scenario("[grid]\nSI\n", name="b")
    assert a == b
    assert a.name != b.name


@st.composite
def scenario_texts(draw):
    width = draw(st.integers(min_value=1, max_value=6))
    height = draw(st.integers(min_value=1, max_value=6))
    rows = draw(
        st.lists(
            st.text(alphabet="#.SIERV", min_size=width, max_size=width),
            min_size=height,
            max_size=height,
        )
    )
    return "[grid]\n" + "\n".join(rows) + "\n"


@given(scenario_texts())
@settings(max_examples=60, deadline=None)
def test_round_trip_random_grids(text):
    config = parse_scenario(text)
    assert parse_scenario(serialize_scenario(config)) == config


# ---------------------------------------------------------------------------
# Neighbors and density
# ---------------------------------------------------------------------------


def test_neighbors_interior_corner_enclosed():
    # Four tiles wide, so tile (x, y) is 4 * y + x; rows list the walkable
    # neighbors left, right, down, up.
    neighbors = validate(parse_scenario("[grid]\n....\n.#..\n....\n")).neighbors
    assert neighbors[1] == (0, 2)
    assert neighbors[0] == (1, 4)
    assert neighbors[10] == (9, 11, 6)
    assert neighbors[5] == ()
    enclosed = validate(parse_scenario("[grid]\n###\n#S#\n###\n")).neighbors
    assert enclosed == ((),) * 9


def test_neighbors_symmetry():
    rng = random.Random(11)
    for _ in range(20):
        rows = [
            "".join(rng.choice("#...") for _ in range(5)) for _ in range(5)
        ]
        grid = parse_scenario("[grid]\n" + "\n".join(rows) + "\n").grid
        neighbors = validate(ScenarioConfig(grid=grid, placements=())).neighbors
        assert len(neighbors) == grid.total_tiles
        for tile, near in enumerate(neighbors):
            y, x = divmod(tile, grid.width)
            if not grid.is_walkable(x, y):
                assert near == ()
            for other in near:
                oy, ox = divmod(other, grid.width)
                assert abs(ox - x) + abs(oy - y) == 1
                assert grid.is_walkable(ox, oy)
                assert tile in neighbors[other]


def test_density_examples():
    v = validate(parse_scenario("[grid]\n#S.#\n.S..\n..I.\n#.S#\n"))
    assert math.isclose(density(v), 4 / 12)
    v = validate(load_scenario(assets.asset_path("larger_crowded.scn")))
    assert math.isclose(density(v), 12 / 32)
    empty = validate(parse_scenario("[grid]\n...\n"))
    assert density(empty) == 0.0
    # a person on every walkable tile is the most a room can hold
    full = validate(parse_scenario("[grid]\nSS\nI#\n"))
    assert full.population == full.walkable_count == 3
    assert density(full) == 1.0


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _grid2() -> GridMap:
    return GridMap(2, 1, (True, True))


def test_validate_rejects_shared_tile():
    config = ScenarioConfig(
        grid=_grid2(),
        placements=(
            Placement(0, (0, 0), "S"),
            Placement(1, (0, 0), "I"),
        ),
    )
    with pytest.raises(ScenarioValidationError, match="share tile"):
        validate(config)


def test_validate_rejects_wall_placement():
    config = ScenarioConfig(
        grid=GridMap(2, 1, (False, True)),
        placements=(Placement(0, (0, 0), "I"),),
    )
    with pytest.raises(ScenarioValidationError, match="wall"):
        validate(config)


def test_validate_rejects_id_gaps():
    config = ScenarioConfig(
        grid=_grid2(),
        placements=(Placement(0, (0, 0), "S"), Placement(2, (1, 0), "I")),
    )
    with pytest.raises(ScenarioValidationError, match="0..N-1"):
        validate(config)


def test_validate_rejects_pre_vaccinated_non_susceptible():
    config = ScenarioConfig(
        grid=_grid2(),
        placements=(Placement(0, (0, 0), "I", pre_vaccinated=True),),
    )
    with pytest.raises(ScenarioValidationError, match="pre-vaccinated"):
        validate(config)


def test_validate_rejects_short_tiles_without_reading_them():
    """Placements on a grid whose tiles do not fill width*height are
    checked for bounds but not against the missing tiles."""
    config = ScenarioConfig(
        grid=GridMap(3, 3, (True,) * 4),
        placements=(Placement(0, (2, 2), "I"),),
    )
    with pytest.raises(ScenarioValidationError) as info:
        validate(config)
    assert info.value.errors == ["grid tile count does not match width*height"]


@pytest.mark.parametrize(
    "config, error",
    [
        (ScenarioConfig(GridMap(0, 1, ()), ()), "grid must have positive dimensions"),
        (
            ScenarioConfig(_grid2(), (Placement(0, (5, 0), "S"),)),
            "person 0 placed out of bounds at (5, 0)",
        ),
        (
            ScenarioConfig(_grid2(), (Placement(0, (0, 0), "Q"),)),
            "person 0 has unknown compartment 'Q'",
        ),
    ],
)
def test_validate_rejects_bad_grids_and_placements(config, error):
    with pytest.raises(ScenarioValidationError) as info:
        validate(config)
    assert info.value.errors == [error]


def test_validate_rejects_all_walls():
    config = ScenarioConfig(grid=GridMap(2, 1, (False, False)), placements=())
    with pytest.raises(ScenarioValidationError, match="no walkable"):
        validate(config)


def test_settings_reject_pen_d_above_pen_i():
    planner = parse_scenario("[grid]\nSI\n").planner
    with pytest.raises(ScenarioValidationError) as info:
        replace(planner, pen_i=-5.0, pen_d=-1.0)
    assert info.value.errors == [
        "planner.pen_d must be <= pen_i (deaths penalized at least as hard)"
    ]


@pytest.mark.parametrize(
    "patch, error",
    [
        ({"rounds": 2.0}, "planner.rounds must be an int"),
        ({"pen_i": float("-inf")}, "planner.pen_i must be a finite number"),
        ({"cost_mask_action": float("-inf")}, "planner.cost_mask_action must be a finite number"),
        ({"uct_exploration": float("inf")}, "planner.uct_exploration must be a finite number"),
        ({"masks_available": "no"}, "planner.masks_available must be a bool"),
        ({"horizon": True}, "planner.horizon must be an int"),
    ],
)
def test_settings_reject_wrong_types_and_non_finite_numbers(patch, error):
    with pytest.raises(ScenarioValidationError) as info:
        PlannerSettings(**patch)
    assert info.value.errors == [error]
    with pytest.raises(ScenarioValidationError) as info:
        replace(PlannerSettings(), **patch)
    assert info.value.errors == [error]


def test_settings_accept_ints_for_floats():
    settings = PlannerSettings(pen_i=-1, pen_d=-5, cost_vax_action=0, uct_exploration=2)
    assert settings.uct_exploration == 2


@pytest.mark.parametrize(
    "patch, error",
    [
        ({"exposure_radius": 1.5}, "params.exposure_radius must be an int"),
        ({"exposure_radius": "2"}, "params.exposure_radius must be an int"),
        ({"p_mv": None}, "params.p_mv must be a finite number"),
        # an int beyond the float range overflows math.isfinite
        ({"beta": 10**400}, "params.beta must be a finite number"),
    ],
)
def test_validate_rejects_wrongly_typed_params(patch, error):
    config = replace(parse_scenario("[grid]\nSI\n"), params=EpiParams(**patch))
    with pytest.raises(ScenarioValidationError) as info:
        validate(config)
    assert info.value.errors == [error]


@pytest.mark.parametrize("config", ["x", None, 5])
def test_validate_rejects_what_is_not_a_config(config):
    with pytest.raises(ScenarioValidationError) as info:
        validate(config)
    assert info.value.errors == ["validate needs a ScenarioConfig"]


def test_validate_lists_all_errors():
    config = ScenarioConfig(
        grid=_grid2(),
        placements=(
            Placement(0, (0, 0), "S"),
            Placement(0, (0, 0), "Q"),
        ),
    )
    with pytest.raises(ScenarioValidationError) as excinfo:
        validate(config)
    assert len(excinfo.value.errors) >= 3


def test_validate_warnings():
    v = validate(parse_scenario("[grid]\nSI\n\n[params]\ngamma=0.5\nmu=0.1\n"))
    assert any("gamma + mu" in w for w in v.warnings)
    v = validate(parse_scenario("[grid]\nS.\n"))
    assert any("no initially infectious" in w for w in v.warnings)
    v = validate(parse_scenario("[grid]\nSI\n"))
    assert v.warnings == ()


def test_validate_adjacency_table():
    v = validate(parse_scenario("[grid]\nS.\n.I\n"))
    assert v.neighbors == ((1, 2), (0, 3), (3, 0), (2, 1))


def test_validate_sorts_placements_by_id():
    config = ScenarioConfig(
        grid=GridMap(3, 1, (True, True, True)),
        placements=(
            Placement(1, (1, 0), "I"),
            Placement(0, (0, 0), "S"),
        ),
    )
    v = validate(config)
    assert [pl.person_id for pl in v.placements] == [0, 1]
