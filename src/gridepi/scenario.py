"""Scenario files: grid maps, initial populations, and parameter sets.

A scenario is a line-oriented UTF-8 text file with up to three sections,
in this order, each appearing at most once::

    [grid]
    #S.#
    .S..
    ..I.
    #.S#

    [params]
    beta=0.78        # per-contact transmission probability
    p_mv=0.5

    [planner]
    horizon=15
    uct_iterations=500

The ``[grid]`` body is a rectangle over the alphabet ``#.SIERV``:
``#`` wall, ``.`` empty walkable tile, and one letter per initially
placed person (``S`` susceptible, ``I`` infectious, ``E`` exposed,
``R`` recovered, ``V`` pre-vaccinated susceptible). Person ids are
assigned in row-major scan order. The body ends at the first blank
line; comments are not allowed inside it because ``#`` is the wall
glyph.

``[params]`` and ``[planner]`` are optional ``key=value`` sections.
Blank lines are ignored and ``#`` starts a comment. Unknown keys are
rejected; omitted keys take the defaults baked into
:class:`EpiParams` and :class:`PlannerSettings`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

__all__ = [
    "GridMap",
    "Placement",
    "EpiParams",
    "PlannerSettings",
    "ScenarioConfig",
    "ValidatedScenario",
    "ScenarioError",
    "ScenarioParseError",
    "ScenarioValidationError",
    "parse_scenario",
    "serialize_scenario",
    "load_scenario",
    "validate",
    "neighbors",
    "density",
]

GLYPH_WALL = "#"
GLYPH_EMPTY = "."

# glyph -> (initial compartment letter, pre_vaccinated)
PERSON_GLYPHS = {
    "S": ("S", False),
    "I": ("I", False),
    "E": ("E", False),
    "R": ("R", False),
    "V": ("S", True),
}

GRID_ALPHABET = frozenset(GLYPH_WALL + GLYPH_EMPTY + "".join(PERSON_GLYPHS))

# Movement candidates are enumerated in this fixed order so that draws
# are reproducible: left, right, down, up.
_DIRECTIONS = ((-1, 0), (1, 0), (0, 1), (0, -1))


class ScenarioError(Exception):
    """Base class for scenario-level failures."""


class ScenarioParseError(ScenarioError):
    """Malformed scenario text. Carries a 1-based line (and column) when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = f"line {line}, column {column}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ScenarioValidationError(ScenarioError):
    """One or more structural invariants violated. All errors are listed."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridMap:
    """Rectangular tile map. ``tiles`` is row-major, True = walkable."""

    width: int
    height: int
    tiles: tuple[bool, ...]

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def is_walkable(self, x: int, y: int) -> bool:
        return self.tiles[y * self.width + x]

    @property
    def total_tiles(self) -> int:
        return self.width * self.height

    @property
    def walkable_count(self) -> int:
        return sum(self.tiles)

    def walkable_positions(self) -> list[tuple[int, int]]:
        return [(x, y) for y in range(self.height) for x in range(self.width) if self.is_walkable(x, y)]


@dataclass(frozen=True)
class Placement:
    """One initially placed person."""

    person_id: int
    position: tuple[int, int]
    compartment: str  # one of "S", "E", "I", "R"
    pre_vaccinated: bool = False


@dataclass(frozen=True)
class EpiParams:
    """Disease and contact parameters.

    ``beta`` is the per-contact transmission probability at distance 1,
    ``k`` the contact scale divided by Manhattan distance, ``sigma`` the
    exposed-to-infectious probability, ``gamma``/``mu`` the recovery and
    death splits on leaving the infectious compartment, and
    ``infected_persistence`` the per-step probability of remaining
    infectious. Mask multipliers scale transmission when the susceptible
    or infectious side is masked; ``vax_protection`` multiplies both the
    infection and death probability of a vaccinated person.
    """

    beta: float = 0.78
    sigma: float = 0.95
    gamma: float = 0.93
    mu: float = 0.07
    k: float = 1.0
    p_mv: float = 0.5
    infected_persistence: float = 0.8
    mask_sus_mult: float = 0.8
    mask_inf_mult: float = 0.6
    mask_noncompliance: float = 0.04
    vax_noncompliance: float = 0.07
    vax_protection: float = 0.13
    exposure_radius: int = 1


@dataclass(frozen=True)
class PlannerSettings:
    """Intervention availability, reward shape, and search budget."""

    masks_available: bool = True
    vaccines_available: bool = True
    pen_i: float = -1.0
    pen_d: float = -5.0
    cost_mask_action: float = 0.0
    cost_vax_action: float = 0.0
    horizon: int = 15
    rounds: int = 5
    uct_iterations: int = 500
    uct_exploration: float = 5.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete scenario. ``name`` is presentation-only and excluded from
    structural equality because the file grammar does not carry it."""

    grid: GridMap
    placements: tuple[Placement, ...]
    params: EpiParams = EpiParams()
    planner: PlannerSettings = PlannerSettings()
    name: str = field(default="scenario", compare=False)


@dataclass(frozen=True)
class ValidatedScenario:
    """A checked scenario plus derived lookups used by the simulation.

    ``adjacency`` maps every walkable tile to its walkable 4-neighbors in
    the fixed left/right/down/up order. ``placements`` is sorted by
    person id.
    """

    config: ScenarioConfig
    walkable_count: int
    population: int
    placements: tuple[Placement, ...]
    adjacency: dict[tuple[int, int], tuple[tuple[int, int], ...]]
    warnings: tuple[str, ...] = ()

    @property
    def grid(self) -> GridMap:
        return self.config.grid

    @property
    def params(self) -> EpiParams:
        return self.config.params

    @property
    def planner(self) -> PlannerSettings:
        return self.config.planner

    @property
    def name(self) -> str:
        return self.config.name

    def with_planner(self, settings: PlannerSettings) -> "ValidatedScenario":
        """Same scenario with swapped planner settings (shares lookups)."""
        return replace(self, config=replace(self.config, planner=settings))


# ---------------------------------------------------------------------------
# Value parsing and range rules (shared by the parser and validate())
# ---------------------------------------------------------------------------


def _parse_float(text: str) -> float:
    value = float(text)
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError("value must be finite")
    return value


def _parse_int(text: str) -> int:
    return int(text, 10)


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    raise ValueError("expected 'true' or 'false'")


def _in_unit(v: float) -> bool:
    return 0.0 <= v <= 1.0


# key -> (converter, range predicate, range description)
PARAM_RULES: dict[str, tuple] = {
    "beta": (_parse_float, _in_unit, "must be in [0, 1]"),
    "sigma": (_parse_float, _in_unit, "must be in [0, 1]"),
    "gamma": (_parse_float, _in_unit, "must be in [0, 1]"),
    "mu": (_parse_float, _in_unit, "must be in [0, 1]"),
    "k": (_parse_float, lambda v: 0.0 < v <= 1.0, "must be in (0, 1]"),
    "p_mv": (_parse_float, _in_unit, "must be in [0, 1]"),
    "infected_persistence": (_parse_float, _in_unit, "must be in [0, 1]"),
    "mask_sus_mult": (_parse_float, _in_unit, "must be in [0, 1]"),
    "mask_inf_mult": (_parse_float, _in_unit, "must be in [0, 1]"),
    "mask_noncompliance": (_parse_float, _in_unit, "must be in [0, 1]"),
    "vax_noncompliance": (_parse_float, _in_unit, "must be in [0, 1]"),
    "vax_protection": (_parse_float, _in_unit, "must be in [0, 1]"),
    "exposure_radius": (_parse_int, lambda v: v >= 1, "must be >= 1"),
}

PLANNER_RULES: dict[str, tuple] = {
    "masks_available": (_parse_bool, lambda v: True, ""),
    "vaccines_available": (_parse_bool, lambda v: True, ""),
    "pen_i": (_parse_float, lambda v: v < 0.0, "must be negative"),
    "pen_d": (_parse_float, lambda v: v < 0.0, "must be negative"),
    "cost_mask_action": (_parse_float, lambda v: v <= 0.0, "must be <= 0"),
    "cost_vax_action": (_parse_float, lambda v: v <= 0.0, "must be <= 0"),
    # horizon 0 is allowed as the degenerate no-step episode
    "horizon": (_parse_int, lambda v: v >= 0, "must be >= 0"),
    "rounds": (_parse_int, lambda v: v >= 1, "must be >= 1"),
    "uct_iterations": (_parse_int, lambda v: v >= 0, "must be >= 0"),
    "uct_exploration": (_parse_float, lambda v: v > 0.0, "must be positive"),
}

_SECTION_ORDER = {"grid": 0, "params": 1, "planner": 2}


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_scenario(text: str, name: str = "scenario") -> ScenarioConfig:
    """Parse scenario text into a :class:`ScenarioConfig`.

    Args:
        text: Full file contents.
        name: Presentation name attached to the result (not part of the
            file grammar; callers usually pass the file stem).

    Returns:
        The parsed configuration, with person ids assigned in row-major
        scan order of the grid body.

    Raises:
        ScenarioParseError: On any grammar, glyph, key, or range problem,
            with 1-based line (and column where it applies) information.
    """
    grid_rows: list[str] = []
    grid_done = False
    section: str | None = None
    seen: list[str] = []
    values: dict[str, dict[str, object]] = {"params": {}, "planner": {}}

    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()

        if stripped.startswith("[") and stripped.endswith("]") and len(stripped) > 2:
            header = stripped[1:-1]
            if header not in _SECTION_ORDER:
                raise ScenarioParseError(f"unknown section [{header}]", lineno)
            if header in seen:
                raise ScenarioParseError(f"duplicate section [{header}]", lineno)
            if not seen and header != "grid":
                raise ScenarioParseError("first section must be [grid]", lineno)
            if seen and _SECTION_ORDER[header] < _SECTION_ORDER[seen[-1]]:
                raise ScenarioParseError(
                    f"section [{header}] must come before [{seen[-1]}]", lineno
                )
            if section == "grid" and not grid_rows:
                raise ScenarioParseError("[grid] section has no rows", lineno)
            seen.append(header)
            section = header
            continue

        if section is None:
            if not stripped or stripped.startswith("#"):
                continue
            raise ScenarioParseError("content before [grid] section", lineno)

        if section == "grid":
            if not stripped:
                if grid_rows:
                    grid_done = True
                continue
            if grid_done:
                raise ScenarioParseError("unexpected content after grid body", lineno)
            row = raw.rstrip()
            if grid_rows and len(row) != len(grid_rows[0]):
                raise ScenarioParseError(f"ragged grid at line {lineno}", lineno)
            for col, ch in enumerate(row, 1):
                if ch not in GRID_ALPHABET:
                    raise ScenarioParseError(
                        f"invalid grid glyph {ch!r}", lineno, col
                    )
            grid_rows.append(row)
            continue

        # key=value sections
        content = raw.split("#", 1)[0].strip()
        if not content:
            continue
        if "=" not in content:
            raise ScenarioParseError("expected key=value", lineno)
        key, _, value_text = content.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        rules = PARAM_RULES if section == "params" else PLANNER_RULES
        if key not in rules:
            raise ScenarioParseError(f"unknown key {key!r} in [{section}]", lineno)
        if key in values[section]:
            raise ScenarioParseError(f"duplicate key {key!r} in [{section}]", lineno)
        converter, predicate, description = rules[key]
        try:
            value = converter(value_text)
        except ValueError as exc:
            raise ScenarioParseError(f"bad value for {key!r}: {exc}", lineno) from None
        if not predicate(value):
            raise ScenarioParseError(f"{key} {description}", lineno)
        values[section][key] = value

    if "grid" not in seen:
        raise ScenarioParseError("missing [grid] section")
    if not grid_rows:
        raise ScenarioParseError("[grid] section has no rows")

    width = len(grid_rows[0])
    height = len(grid_rows)
    tiles: list[bool] = []
    placements: list[Placement] = []
    for y, row in enumerate(grid_rows):
        for x, ch in enumerate(row):
            tiles.append(ch != GLYPH_WALL)
            if ch in PERSON_GLYPHS:
                compartment, pre_vax = PERSON_GLYPHS[ch]
                placements.append(
                    Placement(len(placements), (x, y), compartment, pre_vax)
                )

    return ScenarioConfig(
        grid=GridMap(width, height, tuple(tiles)),
        placements=tuple(placements),
        params=EpiParams(**values["params"]),
        planner=PlannerSettings(**values["planner"]),
        name=name,
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Read and parse a scenario file; the file stem becomes its name. A
    leading UTF-8 byte order mark is skipped."""
    p = Path(path)
    return parse_scenario(p.read_text(encoding="utf-8-sig"), name=p.stem)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_PARAM_KEY_ORDER = tuple(PARAM_RULES)
_PLANNER_KEY_ORDER = tuple(PLANNER_RULES)


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return repr(value)


def serialize_scenario(config: ScenarioConfig) -> str:
    """Render a config back to canonical scenario text.

    Every parameter key is written explicitly so the output never depends
    on which defaults were in effect. Parsing the result reproduces the
    config exactly (up to the presentation name, which the grammar does
    not carry), with person ids renumbered in row-major order.
    """
    grid = config.grid
    cells = [
        GLYPH_EMPTY if grid.tiles[i] else GLYPH_WALL for i in range(grid.total_tiles)
    ]
    for pl in config.placements:
        x, y = pl.position
        glyph = "V" if pl.pre_vaccinated else pl.compartment
        cells[y * grid.width + x] = glyph

    lines = ["[grid]"]
    for y in range(grid.height):
        lines.append("".join(cells[y * grid.width : (y + 1) * grid.width]))
    lines.append("")
    lines.append("[params]")
    for key in _PARAM_KEY_ORDER:
        lines.append(f"{key}={_format_value(getattr(config.params, key))}")
    lines.append("")
    lines.append("[planner]")
    for key in _PLANNER_KEY_ORDER:
        lines.append(f"{key}={_format_value(getattr(config.planner, key))}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Validation and derived queries
# ---------------------------------------------------------------------------


def neighbors(grid: GridMap, pos: tuple[int, int]) -> set[tuple[int, int]]:
    """Walkable 4-neighborhood of an in-bounds tile.

    Raises:
        ValueError: If ``pos`` is outside the grid.
    """
    x, y = pos
    if not grid.in_bounds(x, y):
        raise ValueError(f"position {pos} out of bounds")
    result = set()
    for dx, dy in _DIRECTIONS:
        nx, ny = x + dx, y + dy
        if grid.in_bounds(nx, ny) and grid.is_walkable(nx, ny):
            result.add((nx, ny))
    return result


def validate(config: ScenarioConfig) -> ValidatedScenario:
    """Check structural invariants and build the derived lookups.

    Returns:
        A :class:`ValidatedScenario` carrying the walkable-tile count,
        population size, id-sorted placements, the adjacency table, and
        any non-fatal warnings.

    Raises:
        ScenarioValidationError: Listing every violated invariant.
    """
    errors: list[str] = []
    warnings: list[str] = []
    grid = config.grid

    if grid.width < 1 or grid.height < 1:
        errors.append("grid must have positive dimensions")
    if len(grid.tiles) != grid.total_tiles:
        errors.append("grid tile count does not match width*height")
    walkable = grid.walkable_count if not errors else 0
    if not errors and walkable == 0:
        errors.append("grid has no walkable tiles")

    for key, (_, predicate, description) in PARAM_RULES.items():
        if not predicate(getattr(config.params, key)):
            errors.append(f"params.{key} {description}")
    for key, (_, predicate, description) in PLANNER_RULES.items():
        if not predicate(getattr(config.planner, key)):
            errors.append(f"planner.{key} {description}")
    if config.planner.pen_d > config.planner.pen_i:
        errors.append("planner.pen_d must be <= pen_i (deaths penalized at least as hard)")

    n = len(config.placements)
    ids = sorted(pl.person_id for pl in config.placements)
    if ids != list(range(n)):
        errors.append("person ids must be exactly 0..N-1 with no gaps")
    seen_positions: set[tuple[int, int]] = set()
    for pl in config.placements:
        x, y = pl.position
        if not grid.in_bounds(x, y):
            errors.append(f"person {pl.person_id} placed out of bounds at {pl.position}")
            continue
        if not grid.is_walkable(x, y):
            errors.append(f"person {pl.person_id} placed on a wall at {pl.position}")
        if pl.position in seen_positions:
            errors.append(f"two persons share tile {pl.position}")
        seen_positions.add(pl.position)
        if pl.compartment not in ("S", "E", "I", "R"):
            errors.append(
                f"person {pl.person_id} has unknown compartment {pl.compartment!r}"
            )
        if pl.pre_vaccinated and pl.compartment != "S":
            errors.append(
                f"person {pl.person_id} is pre-vaccinated but not susceptible"
            )
    if not errors and n > walkable:
        errors.append("more persons than walkable tiles")

    if errors:
        raise ScenarioValidationError(errors)

    total_exit = config.params.gamma + config.params.mu
    if abs(total_exit - 1.0) > 1e-9:
        warnings.append(
            f"gamma + mu = {total_exit!r}, not 1; recovery/death split is renormalized"
        )
    if not any(pl.compartment == "I" for pl in config.placements):
        warnings.append("no initially infectious person; nothing will spread")

    adjacency = {
        pos: tuple(
            (pos[0] + dx, pos[1] + dy)
            for dx, dy in _DIRECTIONS
            if grid.in_bounds(pos[0] + dx, pos[1] + dy)
            and grid.is_walkable(pos[0] + dx, pos[1] + dy)
        )
        for pos in grid.walkable_positions()
    }

    return ValidatedScenario(
        config=config,
        walkable_count=walkable,
        population=n,
        placements=tuple(sorted(config.placements, key=lambda pl: pl.person_id)),
        adjacency=adjacency,
        warnings=tuple(warnings),
    )


def density(validated: ValidatedScenario) -> float:
    """Population per walkable tile."""
    return validated.population / validated.walkable_count
