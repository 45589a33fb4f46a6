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
glyph. A section header may end in a ``#`` comment.

``[params]`` and ``[planner]`` are optional ``key=value`` sections.
Blank lines are ignored and ``#`` starts a comment. Unknown keys are
rejected; omitted keys take the defaults baked into
:class:`EpiParams` and :class:`PlannerSettings`.
"""

from __future__ import annotations

import math
import types
import typing
from dataclasses import MISSING, dataclass, field, fields
from functools import cache
from pathlib import Path

__all__ = [
    "GridMap",
    "Placement",
    "EpiParams",
    "PlannerSettings",
    "ScenarioConfig",
    "ValidatedScenario",
    "ContactRows",
    "ScenarioError",
    "ScenarioParseError",
    "ScenarioValidationError",
    "parse_scenario",
    "serialize_scenario",
    "load_scenario",
    "validate",
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
# Value parsing, field types and ranges (shared by every parser,
# validate(), PlannerSettings and the harness specs). A field's type is
# its dataclass annotation and its range sits on the field (see
# :func:`ranged`), which applies once every field has its type. A file
# key is a field, read with the converter of its annotation.
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


_UNIT = (lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]")


def _is_finite_number(v: object) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


@cache
def _fits(hint: object) -> typing.Callable[[object], bool]:
    """The check of a value against annotation ``hint``; see :func:`type_errors`."""
    args = typing.get_args(hint)
    if hint is int:
        return lambda v: isinstance(v, int) and not isinstance(v, bool)
    if hint is float:
        return _is_finite_number
    if typing.get_origin(hint) is types.UnionType:
        sides = tuple(map(_fits, args))
        return lambda v: any(fits(v) for fits in sides)
    if args and args[-1] is Ellipsis:
        item = _fits(args[0])
        return lambda v: isinstance(v, tuple) and all(map(item, v))
    if args:
        items = tuple(map(_fits, args))
        return lambda v: (
            isinstance(v, tuple) and len(v) == len(items) and all(f(x) for f, x in zip(items, v))
        )
    return lambda v: isinstance(v, hint)


# annotation -> what a value of it must be, where "a"/"an" and its spelling
# would not say it
_TYPE_NAMES = {
    float: "a finite number",
    tuple[tuple[bool, bool], ...]: "a non-empty tuple of VARIATIONS flag pairs",
}


def _side(hint: object) -> object:
    """The X of ``X | None``; any other annotation itself."""
    return typing.get_args(hint)[0] if typing.get_origin(hint) is types.UnionType else hint


def _spelling(hint: object) -> str:
    if hint is Ellipsis:
        return "..."
    args = ", ".join(map(_spelling, typing.get_args(hint)))
    return f"{hint.__name__}[{args}]" if args else hint.__name__


@cache
def _field_types(cls: type) -> tuple:
    """``(field, annotation, its type check, range check, range
    description)`` per field of dataclass ``cls``; an unranged field's
    range check is None (see :func:`ranged`)."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f, hints[f.name], _fits(hints[f.name]), *f.metadata.get("range", (None, "")))
        for f in fields(cls)
    )


def type_errors(obj: object, prefix: str = "") -> list[str]:
    """``<prefix><field> must be <type>`` for each field of the dataclass
    ``obj`` that does not fit its annotation. An ``int`` is never a
    ``bool``, a ``float`` is a finite ``int`` or ``float``, a tuple is
    checked item by item, ``X | None`` takes either side (and is named
    as X), and any other class is checked with ``isinstance``."""
    errors = []
    for f, hint, fits, _, _ in _field_types(type(obj)):
        if not fits(getattr(obj, f.name)):
            hint = _side(hint)
            spelling = _spelling(hint)
            article = "an " if spelling[0] in "aeiouAEIOU" else "a "
            errors.append(f"{prefix}{f.name} must be {_TYPE_NAMES.get(hint, article + spelling)}")
    return errors


def ranged(check=None, says: str = "", *, default=MISSING, parse=None):
    """A dataclass field whose value must pass ``check``, which ``says``
    describes, once every field has its type. A file sets it through
    ``parse``, by default the converter of its annotation."""
    return field(default=default, metadata={"range": (check, says), "parse": parse})


# annotation -> its file converter; ``X | None`` is read as X
_PARSERS = {int: _parse_int, float: _parse_float, bool: _parse_bool, str: str}


@cache
def file_keys(cls: type) -> dict[str, tuple]:
    """``key -> (converter, range check, range description)`` for each
    field of dataclass ``cls`` that a file may set: one with a ``parse``
    converter or an annotation that has one, in field order."""
    keys = {}
    for f, hint, _, check, says in _field_types(cls):
        converter = f.metadata.get("parse") or _PARSERS.get(_side(hint))
        if converter:
            keys[f.name] = (converter, check, says)
    return keys


_SECTION_ORDER = {"grid": 0, "params": 1, "planner": 2}


def parse_value(keys: dict[str, tuple], key: str, text: str, lineno: int) -> object:
    """Convert ``text`` as ``keys[key]`` says (see :func:`file_keys`) and
    check its range.

    Raises:
        ScenarioParseError: On line ``lineno`` if the conversion fails or
            the value is out of range.
    """
    converter, predicate, description = keys[key]
    try:
        value = converter(text)
    except ValueError as exc:
        raise ScenarioParseError(f"bad value for {key!r}: {exc}", lineno) from None
    if predicate and not predicate(value):
        raise ScenarioParseError(f"{key} {description}", lineno)
    return value


def rule_errors(obj: object, prefix: str = "") -> list[str]:
    """The :func:`type_errors` of ``obj`` or, once every type holds,
    ``<prefix><field> <description>`` for each field, in field order,
    whose value breaks its :func:`ranged` check."""
    return type_errors(obj, prefix) or [
        f"{prefix}{f.name} {says}"
        for f, _, _, check, says in _field_types(type(obj))
        if check and not check(getattr(obj, f.name))
    ]


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
    exposed-to-infectious probability, ``mu`` the death probability on
    leaving the infectious compartment (the others recover), ``gamma``
    the recovery rate of the ODE oracle, which alone reads it, and
    ``infected_persistence`` the per-step probability of remaining
    infectious. Mask multipliers scale transmission when the susceptible
    or infectious side is masked; ``vax_protection`` multiplies both the
    infection and death probability of a vaccinated person.
    """

    beta: float = ranged(*_UNIT, default=0.78)
    sigma: float = ranged(*_UNIT, default=0.95)
    gamma: float = ranged(*_UNIT, default=0.93)
    mu: float = ranged(*_UNIT, default=0.07)
    k: float = ranged(lambda v: 0.0 < v <= 1.0, "must be in (0, 1]", default=1.0)
    p_mv: float = ranged(*_UNIT, default=0.5)
    infected_persistence: float = ranged(*_UNIT, default=0.8)
    mask_sus_mult: float = ranged(*_UNIT, default=0.8)
    mask_inf_mult: float = ranged(*_UNIT, default=0.6)
    mask_noncompliance: float = ranged(*_UNIT, default=0.04)
    vax_noncompliance: float = ranged(*_UNIT, default=0.07)
    vax_protection: float = ranged(*_UNIT, default=0.13)
    exposure_radius: int = ranged(lambda v: v >= 1, "must be >= 1", default=1)


@dataclass(frozen=True)
class PlannerSettings:
    """Intervention availability, reward shape, and search budget.

    Built or replaced, it raises ScenarioValidationError listing every
    field that does not fit its annotation (see :func:`type_errors`) or,
    once the types hold, every field outside its :func:`ranged` range and
    a ``pen_d`` above ``pen_i``.
    """

    masks_available: bool = True
    vaccines_available: bool = True
    pen_i: float = ranged(lambda v: v < 0.0, "must be negative", default=-1.0)
    pen_d: float = ranged(lambda v: v < 0.0, "must be negative", default=-5.0)
    cost_mask_action: float = ranged(lambda v: v <= 0.0, "must be <= 0", default=0.0)
    cost_vax_action: float = ranged(lambda v: v <= 0.0, "must be <= 0", default=0.0)
    # horizon 0 is allowed as the degenerate no-step episode
    horizon: int = ranged(lambda v: v >= 0, "must be >= 0", default=15)
    rounds: int = ranged(lambda v: v >= 1, "must be >= 1", default=5)
    uct_iterations: int = ranged(lambda v: v >= 0, "must be >= 0", default=500)
    uct_exploration: float = ranged(lambda v: v > 0.0, "must be positive", default=5.0)

    def __post_init__(self) -> None:
        errors = rule_errors(self, "planner.")
        if not errors and self.pen_d > self.pen_i:
            errors.append("planner.pen_d must be <= pen_i (deaths penalized at least as hard)")
        if errors:
            raise ScenarioValidationError(errors)


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

    The lookups index tile (x, y) as ``y * width + x``. ``neighbors[tile]``
    holds a walkable tile's walkable 4-neighbors in the fixed
    left/right/down/up order (which fixes the movement draws), and is
    empty for a wall. ``contacts`` holds each tile's :class:`ContactRows`
    row for the scenario's exposure radius, built on first use.
    ``placements`` is sorted by person id.
    """

    config: ScenarioConfig
    walkable_count: int
    population: int
    placements: tuple[Placement, ...]
    neighbors: tuple[tuple[int, ...], ...]
    contacts: ContactRows = field(compare=False, repr=False)
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


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def split_sections(text: str) -> list[tuple[str, int, list[tuple[int, str]]]]:
    """``(name, header line, body)`` per section of sectioned text, where a
    header is a line whose text before any ``#`` is ``[name]`` and a body
    holds the section's ``(line number, raw line)`` pairs. Only blank and
    comment lines may come before the first header."""
    sections: list[tuple[str, int, list[tuple[int, str]]]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        # "[" is never a grid glyph, so a header may end in a comment
        head = raw.split("#", 1)[0].strip()
        if head.startswith("[") and head.endswith("]") and len(head) > 2:
            sections.append((head[1:-1], lineno, []))
        elif sections:
            sections[-1][2].append((lineno, raw))
        elif head:
            raise ScenarioParseError("content before first section", lineno)
    return sections


def read_values(
    keys: dict[str, tuple], section: str, body: list[tuple[int, str]]
) -> dict[str, object]:
    """The ``key=value`` lines of a section body, each converted and
    range-checked on its own line by :func:`parse_value`. Blank lines are
    skipped, ``#`` starts a comment, and unknown or duplicate keys fail."""
    values: dict[str, object] = {}
    for lineno, raw in body:
        content = raw.split("#", 1)[0].strip()
        if not content:
            continue
        if "=" not in content:
            raise ScenarioParseError("expected key=value", lineno)
        key, _, value_text = content.partition("=")
        key = key.strip()
        if key not in keys:
            raise ScenarioParseError(f"unknown key {key!r} in [{section}]", lineno)
        if key in values:
            raise ScenarioParseError(f"duplicate key {key!r} in [{section}]", lineno)
        values[key] = parse_value(keys, key, value_text.strip(), lineno)
    return values


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
            A ``pen_d`` above ``pen_i`` fails on the ``[planner]`` header.
    """
    sections = split_sections(text)
    if not sections:
        raise ScenarioParseError("missing [grid] section")
    section: str | None = None
    header_lines: dict[str, int] = {}
    values: dict[str, dict[str, object]] = {"params": {}, "planner": {}}
    for header, header_line, body in sections:
        if header not in _SECTION_ORDER:
            raise ScenarioParseError(f"unknown section [{header}]", header_line)
        if header in header_lines:
            raise ScenarioParseError(f"duplicate section [{header}]", header_line)
        if section is None and header != "grid":
            raise ScenarioParseError("first section must be [grid]", header_line)
        if section is not None and _SECTION_ORDER[header] < _SECTION_ORDER[section]:
            raise ScenarioParseError(f"section [{header}] must come before [{section}]", header_line)
        header_lines[header] = header_line
        section = header
        if header != "grid":
            record = EpiParams if header == "params" else PlannerSettings
            values[header] = read_values(file_keys(record), header, body)
            continue
        grid_rows: list[str] = []
        grid_done = False
        for lineno, raw in body:
            row = raw.rstrip()
            if not row:
                grid_done = bool(grid_rows)
            elif grid_done:
                raise ScenarioParseError("unexpected content after grid body", lineno)
            elif grid_rows and len(row) != len(grid_rows[0]):
                raise ScenarioParseError(f"ragged grid at line {lineno}", lineno)
            else:
                for col, ch in enumerate(row, 1):
                    if ch not in GRID_ALPHABET:
                        raise ScenarioParseError(f"invalid grid glyph {ch!r}", lineno, col)
                grid_rows.append(row)
        if not grid_rows:
            raise ScenarioParseError("[grid] section has no rows", header_line)

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

    try:
        planner = PlannerSettings(**values["planner"])
    except ScenarioValidationError as exc:
        # each value passed on its own line, so only pen_d <= pen_i is left
        raise ScenarioParseError(str(exc), header_lines["planner"]) from None
    return ScenarioConfig(
        grid=GridMap(width, height, tuple(tiles)),
        placements=tuple(placements),
        params=EpiParams(**values["params"]),
        planner=planner,
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
    for header, record in (("params", config.params), ("planner", config.planner)):
        lines += ["", f"[{header}]"]
        lines += [f"{f.name}={_format_value(getattr(record, f.name))}" for f in fields(record)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Validation and derived queries
# ---------------------------------------------------------------------------


def _neighbor_rows(grid: GridMap) -> tuple[tuple[int, ...], ...]:
    """Per tile, its walkable 4-neighbors as tile indices in the fixed
    left/right/down/up order; empty for a wall. Every row refers to one
    int object per tile."""
    width, height, walkable = grid.width, grid.height, grid.tiles
    ids = list(range(width * height))
    rows = []
    for tile in ids:
        if not walkable[tile]:
            rows.append(())
            continue
        y, x = divmod(tile, width)
        rows.append(
            tuple(
                ids[(y + dy) * width + x + dx]
                for dx, dy in _DIRECTIONS
                if 0 <= x + dx < width
                and 0 <= y + dy < height
                and walkable[(y + dy) * width + x + dx]
            )
        )
    return tuple(rows)


class ContactRows(dict):
    """Tile index -> its contact row: ``(d, tiles)`` pairs, one per
    Manhattan distance d in 1..radius that has a walkable tile, listing
    the walkable tiles at distance d from it.

    The radius is ``exposure_radius`` clamped to width + height - 2, the
    largest distance between two tiles of the grid. A row is built the
    first time it is read, that is the first time an infectious person
    stands on the tile: a full table for a 40x40 room at radius 100
    would hold 2.56 million entries.
    """

    def __init__(self, grid: GridMap, radius: int):
        super().__init__()
        self.grid = grid
        self.radius = min(radius, grid.width + grid.height - 2)

    def __missing__(self, tile: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
        grid = self.grid
        width, height, walkable = grid.width, grid.height, grid.tiles
        y, x = divmod(tile, width)
        row = []
        for d in range(1, self.radius + 1):
            ring = []
            for dx in range(-d, d + 1):
                tx = x + dx
                if not 0 <= tx < width:
                    continue
                dy = d - abs(dx)
                for ty in (y + dy, y - dy) if dy else (y,):
                    if 0 <= ty < height and walkable[ty * width + tx]:
                        ring.append(ty * width + tx)
            if ring:
                row.append((d, tuple(ring)))
        row = self[tile] = tuple(row)
        return row


def validate(config: ScenarioConfig) -> ValidatedScenario:
    """Check structural invariants and build the derived lookups.

    Returns:
        A :class:`ValidatedScenario` carrying the walkable-tile count,
        population size, id-sorted placements, the neighbor and contact
        rows, and any non-fatal warnings.

    Raises:
        ScenarioValidationError: If ``config`` is not a ScenarioConfig,
            else listing every field of the config, its grid or a
            placement that does not fit its annotation or, once every
            type holds, every violated invariant.
    """
    if not isinstance(config, ScenarioConfig):
        raise ScenarioValidationError(["validate needs a ScenarioConfig"])
    errors = type_errors(config)
    if not errors:
        errors = type_errors(config.grid, "grid.")
        for i, pl in enumerate(config.placements):
            errors += type_errors(pl, f"placements[{i}].")
    if errors:
        raise ScenarioValidationError(errors)
    warnings: list[str] = []
    grid = config.grid

    if grid.width < 1 or grid.height < 1:
        errors.append("grid must have positive dimensions")
    if len(grid.tiles) != grid.total_tiles:
        errors.append("grid tile count does not match width*height")
    tiles_valid = not errors  # else a tile lookup may fall outside ``tiles``
    walkable = grid.walkable_count if tiles_valid else 0
    if tiles_valid and walkable == 0:
        errors.append("grid has no walkable tiles")

    errors += rule_errors(config.params, "params.")

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
        if tiles_valid and not grid.is_walkable(x, y):
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

    if errors:
        raise ScenarioValidationError(errors)

    total_exit = config.params.gamma + config.params.mu
    if abs(total_exit - 1.0) > 1e-9:
        warnings.append(
            f"gamma + mu = {total_exit!r}, not 1; gamma is read only by oracle ode, "
            "and the simulator's recovery share on leaving I is 1 - mu"
        )
    if not any(pl.compartment == "I" for pl in config.placements):
        warnings.append("no initially infectious person; nothing will spread")

    return ValidatedScenario(
        config=config,
        walkable_count=walkable,
        population=n,
        placements=tuple(sorted(config.placements, key=lambda pl: pl.person_id)),
        neighbors=_neighbor_rows(grid),
        contacts=ContactRows(grid, config.params.exposure_radius),
        warnings=tuple(warnings),
    )


def density(validated: ValidatedScenario) -> float:
    """Population per walkable tile."""
    return validated.population / validated.walkable_count
