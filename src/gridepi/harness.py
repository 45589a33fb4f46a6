"""Batch experiments: density/intervention sweeps and school benchmarks.

Experiment definition files reuse the sectioned key=value syntax of
scenario files. A sweep file holds one ``[experiment]`` section per
scenario::

    [experiment]
    scenario=small_space.scn        # path relative to this file
    variations=none,masks,masks+vaccines
    runs=3

Each variation toggles which interventions the planner may use; the
predicted positivity of a variation is the mean over runs and rounds of
the final ever-infected share. A benchmark file holds one ``[school]``
section per site::

    [school]
    name=EECB
    enrollment=105
    per_room=8
    grid_x=6
    grid_y=6
    true_pos_pct=21.2
    variations=none,masks,masks+vaccines

The school is modeled as identical fully walkable classrooms, one
simulation per room, with rooms = round-half-to-even(enrollment /
per_room) and the estimated population N_est = per_room * rooms.
Room-level infections are summed and divided by N_est to get the
school-level prediction, which is compared against the reported true
positivity.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

from .dynamics import FieldTable, Trajectory, csv_header, rows_to_csv, rows_to_json
from .planner import EpisodeResult, run_episode
from .rng import stable_seed
from .scenario import (
    EpiParams,
    GridMap,
    Placement,
    PlannerSettings,
    ScenarioConfig,
    ScenarioParseError,
    ValidatedScenario,
    _parse_float,
    density,
    load_scenario,
    validate,
)

__all__ = [
    "VARIATIONS",
    "ExperimentSpec",
    "RunMetrics",
    "SchoolBenchmarkSpec",
    "BenchmarkMetrics",
    "parse_experiment_file",
    "parse_benchmark_file",
    "run_experiment",
    "simulate_school",
    "make_classroom",
    "rooms_for",
    "emit_results",
    "EXPERIMENT_CSV_HEADER",
    "BENCHMARK_CSV_HEADER",
]

# variation token -> (masks_available, vaccines_available)
VARIATIONS = {
    "none": (False, False),
    "masks": (True, False),
    "vaccines": (False, True),
    "masks+vaccines": (True, True),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """One scenario plus the intervention variations to sweep."""

    label: str
    scenario: ScenarioConfig
    variations: tuple[tuple[bool, bool], ...]
    runs: int = 3
    seed: int | None = None


@dataclass(frozen=True)
class RunMetrics:
    """Aggregated outcome of one (scenario, variation) cell.

    ``episode_positivity`` and ``episode_deaths`` keep the per-episode
    values behind the means, and ``trajectories`` the full census
    records, so aggregates can be recomputed downstream.
    """

    simulation: str
    n: int
    masks: bool
    vaccines: bool
    walkable: int
    total_tiles: int
    density: float
    pred_pos_pct: float
    d_avg: float
    episode_positivity: tuple[float, ...] = ()
    episode_deaths: tuple[int, ...] = ()
    trajectories: tuple[Trajectory, ...] = ()


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# CSV rounds to fixed decimal places; JSON keeps full precision.
EXPERIMENT_FIELDS: FieldTable = (
    ("simulation", "simulation", str),
    ("N", "n", str),
    ("masks", "masks", _yesno),
    ("vaccines", "vaccines", _yesno),
    ("walkable", "walkable", str),
    ("total_tiles", "total_tiles", str),
    ("density", "density", "{:.2f}".format),
    ("pred_pos_pct", "pred_pos_pct", "{:.1f}".format),
    ("d_avg", "d_avg", "{:.2f}".format),
)
EXPERIMENT_CSV_HEADER = csv_header(EXPERIMENT_FIELDS)


@dataclass(frozen=True)
class SchoolBenchmarkSpec:
    """One school modeled as identical classrooms."""

    name: str
    enrollment: int
    per_room: int
    grid_x: int
    grid_y: int
    true_pos_pct: float
    variations: tuple[tuple[bool, bool], ...]
    planner: PlannerSettings = PlannerSettings(rounds=1)


@dataclass(frozen=True)
class BenchmarkMetrics:
    model: str
    simulations: int
    masks: bool
    vaccines: bool
    n: int
    n_est: int
    pred_pos_pct: float
    true_pos_pct: float
    abs_error: float


BENCHMARK_FIELDS: FieldTable = (
    ("model", "model", str),
    ("simulations", "simulations", str),
    ("masks", "masks", _yesno),
    ("vaccines", "vaccines", _yesno),
    ("N", "n", str),
    ("N_est", "n_est", str),
    ("pred_pos_pct", "pred_pos_pct", "{:.1f}".format),
    ("true_pos_pct", "true_pos_pct", "{:.1f}".format),
    ("abs_error", "abs_error", "{:.1f}".format),
)
BENCHMARK_CSV_HEADER = csv_header(BENCHMARK_FIELDS)


# ---------------------------------------------------------------------------
# Definition-file parsing
# ---------------------------------------------------------------------------


def _read_sections(text: str) -> list[tuple[str, int, dict[str, tuple[int, str]]]]:
    """Split sectioned key=value text into (header, line, {key: (line, value)});
    repeated headers are allowed."""
    sections: list[tuple[str, int, dict[str, tuple[int, str]]]] = []
    current: dict[str, tuple[int, str]] | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        content = raw.split("#", 1)[0].strip()
        if not content:
            continue
        if content.startswith("[") and content.endswith("]") and len(content) > 2:
            current = {}
            sections.append((content[1:-1], lineno, current))
            continue
        if current is None:
            raise ScenarioParseError("content before first section", lineno)
        if "=" not in content:
            raise ScenarioParseError("expected key=value", lineno)
        key, _, value = content.partition("=")
        key = key.strip()
        if key in current:
            raise ScenarioParseError(f"duplicate key {key!r}", lineno)
        current[key] = (lineno, value.strip())
    return sections


def _parse_variations(token_list: str, lineno: int) -> tuple[tuple[bool, bool], ...]:
    tokens = [t.strip() for t in token_list.split(",") if t.strip()]
    if not tokens:
        raise ScenarioParseError("variations list is empty", lineno)
    out = []
    for token in tokens:
        if token not in VARIATIONS:
            raise ScenarioParseError(
                f"unknown variation {token!r}; expected one of {sorted(VARIATIONS)}",
                lineno,
            )
        out.append(VARIATIONS[token])
    return tuple(out)


def _take(
    section: dict[str, tuple[int, str]],
    key: str,
    convert,
    header_line: int,
    default=None,
    required: bool = False,
):
    if key not in section:
        if required:
            raise ScenarioParseError(f"missing key {key!r}", header_line)
        return default
    lineno, raw = section.pop(key)
    try:
        return convert(raw, lineno)
    except ScenarioParseError:
        raise
    except ValueError as exc:
        raise ScenarioParseError(f"bad value for {key!r}: {exc}", lineno) from None


def _int_value(raw: str, _lineno: int) -> int:
    return int(raw, 10)


def _float_value(raw: str, _lineno: int) -> float:
    return _parse_float(raw)


def _percent_value(raw: str, lineno: int) -> float:
    value = _float_value(raw, lineno)
    if not 0.0 <= value <= 100.0:
        raise ValueError("must be in [0, 100]")
    return value


def _str_value(raw: str, _lineno: int) -> str:
    return raw


def parse_experiment_file(path: str | Path) -> list[ExperimentSpec]:
    """Parse an experiment sweep file; scenario paths resolve relative to it.

    Raises:
        ScenarioParseError: On unknown sections or keys, missing required
            keys, or bad values.
        OSError: If the file or a referenced scenario cannot be read.
    """
    path = Path(path)
    specs: list[ExperimentSpec] = []
    for header, header_line, section in _read_sections(path.read_text(encoding="utf-8-sig")):
        if header != "experiment":
            raise ScenarioParseError(f"unknown section [{header}]", header_line)
        scenario_rel = _take(section, "scenario", _str_value, header_line, required=True)
        scenario = load_scenario(path.parent / scenario_rel)
        variations = _parse_variations(
            _take(section, "variations", _str_value, header_line, default="none"),
            header_line,
        )
        runs = _take(section, "runs", _int_value, header_line, default=3)
        if runs < 1:
            raise ScenarioParseError("runs must be >= 1", header_line)
        label = _take(section, "label", _str_value, header_line, default=scenario.name)
        seed = _take(section, "seed", _int_value, header_line, default=None)
        if section:
            key = next(iter(section))
            raise ScenarioParseError(
                f"unknown key {key!r} in [experiment]", section[key][0]
            )
        specs.append(ExperimentSpec(label, scenario, variations, runs, seed))
    if not specs:
        raise ScenarioParseError("no [experiment] sections found")
    return specs


def parse_benchmark_file(path: str | Path) -> list[SchoolBenchmarkSpec]:
    """Parse a school benchmark file.

    Optional keys horizon, rounds, uct_iterations, and uct_exploration
    override the classroom planner settings; everything else uses the
    defaults.
    """
    path = Path(path)
    specs: list[SchoolBenchmarkSpec] = []
    for header, header_line, section in _read_sections(path.read_text(encoding="utf-8-sig")):
        if header != "school":
            raise ScenarioParseError(f"unknown section [{header}]", header_line)
        name = _take(section, "name", _str_value, header_line, required=True)
        enrollment = _take(section, "enrollment", _int_value, header_line, required=True)
        per_room = _take(section, "per_room", _int_value, header_line, required=True)
        grid_x = _take(section, "grid_x", _int_value, header_line, required=True)
        grid_y = _take(section, "grid_y", _int_value, header_line, required=True)
        true_pos = _take(section, "true_pos_pct", _percent_value, header_line, required=True)
        variations = _parse_variations(
            _take(section, "variations", _str_value, header_line, default="none"),
            header_line,
        )
        planner = PlannerSettings(rounds=1)
        planner = replace(
            planner,
            horizon=_take(section, "horizon", _int_value, header_line, default=planner.horizon),
            rounds=_take(section, "rounds", _int_value, header_line, default=planner.rounds),
            uct_iterations=_take(
                section, "uct_iterations", _int_value, header_line,
                default=planner.uct_iterations,
            ),
            uct_exploration=_take(
                section, "uct_exploration", _float_value, header_line,
                default=planner.uct_exploration,
            ),
        )
        if section:
            key = next(iter(section))
            raise ScenarioParseError(f"unknown key {key!r} in [school]", section[key][0])
        if enrollment < 1:
            raise ScenarioParseError("enrollment must be >= 1", header_line)
        if per_room < 1:
            raise ScenarioParseError("per_room must be >= 1", header_line)
        if per_room > grid_x * grid_y:
            raise ScenarioParseError(
                "per_room exceeds the classroom tile count", header_line
            )
        specs.append(
            SchoolBenchmarkSpec(
                name, enrollment, per_room, grid_x, grid_y, true_pos,
                variations, planner,
            )
        )
    if not specs:
        raise ScenarioParseError("no [school] sections found")
    return specs


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _variation_suffix(masks: bool, vaccines: bool) -> str:
    parts = []
    if masks:
        parts.append("masks")
    if vaccines:
        parts.append("vaccines")
    return "+" + "+".join(parts) if parts else ""


def _variation_runs(
    validated: ValidatedScenario,
    variations: tuple[tuple[bool, bool], ...],
    seed: int,
    label: str,
    count: int,
) -> Iterator[list[list[EpisodeResult]]]:
    """Yield, per variation in order, the episodes of ``count`` runs.

    Run i of variation v is seeded with stable_seed(seed, label, v, i),
    so adding runs or variations never perturbs existing ones, and no
    run depends on the order the runs execute in. Each variation enables
    its interventions on top of ``validated.planner``. Variations with at
    least one intervention use the embedded planner; the
    no-intervention variation runs the noop policy, which is the
    planner's only choice there anyway.
    """
    for v_index, (masks, vaccines) in enumerate(variations):
        settings = replace(
            validated.planner, masks_available=masks, vaccines_available=vaccines
        )
        policy = "planner" if (masks or vaccines) else "noop"
        yield [
            run_episode(validated, settings, policy, stable_seed(seed, label, v_index, i))
            for i in range(count)
        ]


def run_experiment(spec: ExperimentSpec, default_seed: int) -> list[RunMetrics]:
    """Run every variation of one experiment; deterministic given the seed
    (see :func:`_variation_runs` for the per-run seeds and policies)."""
    seed = spec.seed if spec.seed is not None else default_seed
    validated = validate(spec.scenario)
    n = validated.population
    rows: list[RunMetrics] = []
    sweep = _variation_runs(validated, spec.variations, seed, spec.label, spec.runs)
    for (masks, vaccines), runs in zip(spec.variations, sweep):
        episodes = [episode for run in runs for episode in run]
        positivity = [100.0 * ep.trajectory.final.cum_infections / n for ep in episodes]
        deaths = [ep.trajectory.final.d for ep in episodes]
        rows.append(
            RunMetrics(
                simulation=spec.label + _variation_suffix(masks, vaccines),
                n=n,
                masks=masks,
                vaccines=vaccines,
                walkable=validated.walkable_count,
                total_tiles=validated.grid.total_tiles,
                density=density(validated),
                pred_pos_pct=sum(positivity) / len(positivity),
                d_avg=sum(deaths) / len(deaths),
                episode_positivity=tuple(positivity),
                episode_deaths=tuple(deaths),
                trajectories=tuple(ep.trajectory for ep in episodes),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# School benchmarks
# ---------------------------------------------------------------------------


def rooms_for(enrollment: int, per_room: int) -> int:
    """Number of simulated classrooms: enrollment / per_room rounded half
    to even (Python's round)."""
    return round(enrollment / per_room)


def make_classroom(
    grid_x: int,
    grid_y: int,
    per_room: int,
    planner: PlannerSettings | None = None,
) -> ScenarioConfig:
    """Fully walkable classroom with ``per_room`` persons spread evenly
    over the tiles in scan order; the middle person starts infectious,
    everyone else susceptible."""
    tiles = grid_x * grid_y
    if per_room > tiles:
        raise ValueError("more persons than classroom tiles")
    indices = [(i * tiles) // per_room for i in range(per_room)]
    infected_slot = per_room // 2
    placements = tuple(
        Placement(
            slot,
            (index % grid_x, index // grid_x),
            "I" if slot == infected_slot else "S",
        )
        for slot, index in enumerate(indices)
    )
    return ScenarioConfig(
        grid=GridMap(grid_x, grid_y, (True,) * tiles),
        placements=placements,
        params=EpiParams(),
        planner=planner if planner is not None else PlannerSettings(rounds=1),
        name=f"classroom-{grid_x}x{grid_y}-{per_room}",
    )


def simulate_school(spec: SchoolBenchmarkSpec, default_seed: int) -> list[BenchmarkMetrics]:
    """Simulate one school and return a row per variation.

    Variation k is reported as ``<name>-MDP-<k+1>``. Every room of a
    variation runs with its own derived seed; the school-level prediction
    is 100 * (summed room infections) / N_est.
    """
    rooms = rooms_for(spec.enrollment, spec.per_room)
    n_est = spec.per_room * rooms
    classroom = make_classroom(spec.grid_x, spec.grid_y, spec.per_room, spec.planner)
    validated = validate(classroom)
    rows: list[BenchmarkMetrics] = []
    sweep = _variation_runs(validated, spec.variations, default_seed, spec.name, rooms)
    for v_index, ((masks, vaccines), runs) in enumerate(zip(spec.variations, sweep)):
        total_infections = 0.0
        for episodes in runs:
            total_infections += sum(
                ep.trajectory.final.cum_infections for ep in episodes
            ) / len(episodes)
        pred = 100.0 * total_infections / n_est
        rows.append(
            BenchmarkMetrics(
                model=f"{spec.name}-MDP-{v_index + 1}",
                simulations=rooms,
                masks=masks,
                vaccines=vaccines,
                n=spec.enrollment,
                n_est=n_est,
                pred_pos_pct=pred,
                true_pos_pct=spec.true_pos_pct,
                abs_error=abs(pred - spec.true_pos_pct),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Result emission
# ---------------------------------------------------------------------------


def emit_results(rows: list, fmt: str = "csv", out: str | Path | None = None) -> str:
    """Render result rows as CSV (fixed decimal places) or JSON (full
    precision) and optionally write them to ``out``.

    Row order is preserved exactly as produced.

    Raises:
        ValueError: On an unknown format or a mixed/unknown row type.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")
    if not rows:
        raise ValueError("no result rows to emit")
    kinds = {type(r) for r in rows}
    if kinds == {RunMetrics}:
        fields = EXPERIMENT_FIELDS
    elif kinds == {BenchmarkMetrics}:
        fields = BENCHMARK_FIELDS
    else:
        raise ValueError("rows must be all RunMetrics or all BenchmarkMetrics")
    text = rows_to_csv(fields, rows) if fmt == "csv" else rows_to_json("results", fields, rows)
    if out is not None:
        Path(out).write_text(text, encoding="utf-8")
    return text
