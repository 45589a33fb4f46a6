"""Batch experiments: density/intervention sweeps and school benchmarks.

Experiment and benchmark files share the scenario files' grammar of
``[name]`` headers, ``#`` comments and ``key=value`` lines, read by
:func:`scenario.split_sections` and :func:`scenario.read_values`. A sweep
file holds one ``[experiment]`` section per scenario::

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

A file key is a spec field (:func:`scenario.file_keys`); the optional
``[school]`` keys ``horizon``, ``rounds``, ``uct_iterations`` and
``uct_exploration`` are the :class:`PlannerSettings` fields of the
classroom planner budget (default: one round). Every value is checked on
its own line before any spec is built.

The spec types check themselves when built (``dataclasses.replace`` too):
every field fits its annotation (:func:`scenario.type_errors`), then the
range that sits on the field (:func:`scenario.ranged`),
``per_room <= grid_x * grid_y``, at least one classroom and at least one
person in an experiment's scenario. So files, the CLI
``--runs`` override and library callers meet one check; a reader
reports it on the section header line.

The school is modeled as identical fully walkable classrooms, one
simulation per room, with rooms = round-half-to-even(enrollment /
per_room) and the estimated population N_est = per_room * rooms.
Room-level infections are summed and divided by N_est to get the
school-level prediction, which is compared against the reported true
positivity.

Every run of every variation of every section is one planner run that
depends on no other, so :func:`run_experiments` and
:func:`simulate_schools` hand all of a file's runs to the planner in one
batch. The planner alone splits each run into its rounds, and
:mod:`gridepi.fanout` runs them on every CPU this process may run on
when the batch's search pays for a fork, longest rounds first. One batch
per file leaves no core idle at the end of each section.
:func:`run_experiment` and :func:`simulate_school` are the one-section
case. The batch's trajectories come back in run-then-round order, and
each section's rows take their own from the front, in file order: the
output is byte-identical for any CPU count, and ``taskset -c 0`` runs
the rounds serially.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import Callable, Iterator

from .dynamics import (
    FieldTable,
    Trajectory,
    csv_header,
    rows_to_csv,
    rows_to_json,
)
from .planner import _play_runs
from .rng import stable_seed
from .scenario import (
    EpiParams,
    GridMap,
    Placement,
    PlannerSettings,
    ScenarioConfig,
    ScenarioParseError,
    ScenarioValidationError,
    ValidatedScenario,
    density,
    file_keys,
    load_scenario,
    ranged,
    read_values,
    rule_errors,
    split_sections,
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
    "run_experiments",
    "simulate_school",
    "simulate_schools",
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
# (masks_available, vaccines_available) -> its suffix to a simulation label
_VARIATION_SUFFIX = {
    flags: "" if token == "none" else "+" + token for token, flags in VARIATIONS.items()
}


def _parse_variations(text: str) -> tuple[tuple[bool, bool], ...]:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise ValueError("variations list is empty")
    for token in tokens:
        if token not in VARIATIONS:
            raise ValueError(
                f"unknown variation {token!r}; expected one of {sorted(VARIATIONS)}"
            )
    return tuple(VARIATIONS[token] for token in tokens)


def _path_text(text: str) -> str:
    if not text:
        raise ValueError("path is empty")
    if "\0" in text:
        raise ValueError("embedded null byte")
    return text


# what a spec's variations must be, beyond their type
_SOME_VARIATIONS = (bool, "must be a non-empty tuple of VARIATIONS flag pairs")


@dataclass(frozen=True)
class ExperimentSpec:
    """One scenario plus the intervention variations to sweep."""

    label: str
    scenario: ScenarioConfig = ranged(parse=_path_text)  # a file holds its path
    variations: tuple[tuple[bool, bool], ...] = ranged(
        *_SOME_VARIATIONS, default=(VARIATIONS["none"],), parse=_parse_variations
    )
    runs: int = ranged(lambda v: v >= 1, "must be >= 1", default=3)
    seed: int | None = None

    def __post_init__(self) -> None:
        errors = rule_errors(self)
        if not (errors or self.scenario.placements):
            errors = ["scenario has no persons"]
        if errors:
            raise ScenarioValidationError(errors)


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


def _csv_text(text: str) -> str:
    """A free-text CSV cell, quoted per RFC 4180 when it holds a comma, a
    double quote or a line break, with inner double quotes doubled."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# CSV rounds to fixed decimal places; JSON keeps full precision.
EXPERIMENT_FIELDS: FieldTable = (
    ("simulation", "simulation", _csv_text),
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
    enrollment: int = ranged(lambda v: v >= 1, "must be >= 1")
    per_room: int = ranged(lambda v: v >= 1, "must be >= 1")
    grid_x: int = ranged(lambda v: v >= 1, "must be >= 1")
    grid_y: int = ranged(lambda v: v >= 1, "must be >= 1")
    true_pos_pct: float = ranged(lambda v: 0.0 <= v <= 100.0, "must be in [0, 100]")
    variations: tuple[tuple[bool, bool], ...] = ranged(
        *_SOME_VARIATIONS, default=(VARIATIONS["none"],), parse=_parse_variations
    )
    planner: PlannerSettings = PlannerSettings(rounds=1)

    def __post_init__(self) -> None:
        errors = rule_errors(self)
        if not errors and self.per_room > self.grid_x * self.grid_y:
            errors = ["per_room exceeds the classroom tile count"]
        elif not errors and rooms_for(self.enrollment, self.per_room) < 1:
            errors = ["enrollment / per_room rounds to 0 classrooms"]
        if errors:
            raise ScenarioValidationError(errors)


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
    ("model", "model", _csv_text),
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


def _read_specs(
    text: str, header: str, keys: dict[str, tuple], required: tuple[str, ...], build
) -> list:
    """Build one spec per repeated ``[header]`` section of sectioned
    key=value text (see :func:`scenario.read_values`), reading ``keys``.
    Every section's values are read before any ``build(values)`` runs; a
    missing ``required`` key and the spec's own errors, raised by
    ``build``, are reported on the header line."""
    sections = []
    for name, lineno, body in split_sections(text):
        if name != header:
            raise ScenarioParseError(f"unknown section [{name}]", lineno)
        sections.append((lineno, read_values(keys, header, body)))
    if not sections:
        raise ScenarioParseError(f"no [{header}] sections found")
    specs = []
    for header_line, values in sections:
        for key in required:
            if key not in values:
                raise ScenarioParseError(f"missing key {key!r}", header_line)
        try:
            specs.append(build(values))
        except ScenarioValidationError as exc:
            raise ScenarioParseError(str(exc), header_line) from None
    return specs


def parse_experiment_file(path: str | Path) -> list[ExperimentSpec]:
    """Parse an experiment sweep file; scenario paths resolve relative to it.

    Raises:
        ScenarioParseError: On unknown sections or keys, missing required
            keys, bad values, or a spec that breaks its own checks.
        OSError: If the file or a referenced scenario cannot be read.
    """
    path = Path(path)

    def build(values: dict) -> ExperimentSpec:
        scenario = load_scenario(path.parent / values.pop("scenario"))
        return ExperimentSpec(values.pop("label", scenario.name), scenario, **values)

    text = path.read_text(encoding="utf-8-sig")
    return _read_specs(text, "experiment", file_keys(ExperimentSpec), ("scenario",), build)


def parse_benchmark_file(path: str | Path) -> list[SchoolBenchmarkSpec]:
    """Parse a school benchmark file.

    Optional keys horizon, rounds, uct_iterations, and uct_exploration
    override the classroom planner settings, read and range-checked as
    the :class:`PlannerSettings` fields they set; everything else uses
    the defaults.
    """
    budget = ("horizon", "rounds", "uct_iterations", "uct_exploration")
    planner_keys = file_keys(PlannerSettings)
    keys = {**file_keys(SchoolBenchmarkSpec), **{key: planner_keys[key] for key in budget}}

    def build(values: dict) -> SchoolBenchmarkSpec:
        overrides = {key: values.pop(key) for key in budget if key in values}
        planner = replace(SchoolBenchmarkSpec.planner, **overrides)
        return SchoolBenchmarkSpec(**values, planner=planner)

    text = Path(path).read_text(encoding="utf-8-sig")
    required = ("name", "enrollment", "per_room", "grid_x", "grid_y", "true_pos_pct")
    return _read_specs(text, "school", keys, required, build)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _variation_runs(
    validated: ValidatedScenario,
    variations: tuple[tuple[bool, bool], ...],
    seed: int,
    label: str,
    count: int,
) -> list[tuple]:
    """The planner runs of ``count`` runs of every variation, ordered by
    variation, then run.

    Run i of variation v is seeded with stable_seed(seed, label, v, i),
    so adding runs or variations never perturbs existing ones, and no
    run depends on the order the runs execute in; the planner seeds the
    run's rounds from it. Each variation enables its interventions on
    top of ``validated.planner``, keeping its rounds, and runs the
    embedded planner; with no intervention enabled, noop is its only
    legal action, which it returns without drawing.
    """
    runs = []
    for v_index, (masks, vaccines) in enumerate(variations):
        settings = replace(validated.planner, masks_available=masks, vaccines_available=vaccines)
        for i in range(count):
            runs.append((validated, settings, "planner", stable_seed(seed, label, v_index, i)))
    return runs


def _play_batch(studies: list[tuple[list[tuple], Callable]]) -> list:
    """Play the runs of every ``(runs, rows)`` study in one
    :func:`_play_runs` batch, then build each study's rows, in study
    order, from one shared iterator over the batch's trajectories: each
    study takes its own rounds from the front."""
    episodes = _play_runs([run for runs, _ in studies for run in runs])
    trajectories = (episode.trajectory for episode in episodes)
    return [row for _, build in studies for row in build(trajectories)]


def _experiment(spec: ExperimentSpec, default_seed: int) -> tuple[list[tuple], Callable]:
    """The runs of one experiment and the function that turns their
    trajectories into its rows (see :func:`_variation_runs` for the seeds)."""
    seed = spec.seed if spec.seed is not None else default_seed
    validated = validate(spec.scenario)
    n = validated.population
    runs = _variation_runs(validated, spec.variations, seed, spec.label, spec.runs)

    def rows(batch: Iterator[Trajectory]) -> list[RunMetrics]:
        built = []
        for masks, vaccines in spec.variations:
            trajectories = list(islice(batch, spec.runs * validated.planner.rounds))
            positivity = [100.0 * t.final.cum_infections / n for t in trajectories]
            deaths = [t.final.d for t in trajectories]
            built.append(
                RunMetrics(
                    simulation=spec.label + _VARIATION_SUFFIX[masks, vaccines],
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
                    trajectories=tuple(trajectories),
                )
            )
        return built

    return runs, rows


def run_experiments(specs: list[ExperimentSpec], default_seed: int) -> list[RunMetrics]:
    """Run every variation of every experiment as one batch of rounds and
    return the rows in spec order; deterministic given the seed. Every
    scenario is validated before any round runs."""
    return _play_batch([_experiment(spec, default_seed) for spec in specs])


def run_experiment(spec: ExperimentSpec, default_seed: int) -> list[RunMetrics]:
    """Run every variation of one experiment: :func:`run_experiments` of ``[spec]``."""
    return run_experiments([spec], default_seed)


# ---------------------------------------------------------------------------
# School benchmarks
# ---------------------------------------------------------------------------


def rooms_for(enrollment: int, per_room: int) -> int:
    """Number of simulated classrooms: enrollment / per_room rounded half
    to even in exact arithmetic, so no enrollment overflows a float."""
    return round(Fraction(enrollment, per_room))


def make_classroom(
    grid_x: int,
    grid_y: int,
    per_room: int,
    planner: PlannerSettings = SchoolBenchmarkSpec.planner,
) -> ScenarioConfig:
    """Fully walkable classroom with ``per_room`` persons spread evenly
    over the tiles in scan order; the middle person starts infectious,
    everyone else susceptible. ``planner`` defaults to a school's."""
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
        planner=planner,
        name=f"classroom-{grid_x}x{grid_y}-{per_room}",
    )


def _school(spec: SchoolBenchmarkSpec, default_seed: int) -> tuple[list[tuple], Callable]:
    """The runs of one school, a run per classroom, and the function
    that turns their trajectories into a row per variation.

    Variation k is reported as ``<name>-MDP-<k+1>``. Every room of a
    variation runs with its own derived seed; the school-level prediction
    is 100 * (summed room infections) / N_est.
    """
    rooms = rooms_for(spec.enrollment, spec.per_room)
    n_est = spec.per_room * rooms
    classroom = make_classroom(spec.grid_x, spec.grid_y, spec.per_room, spec.planner)
    validated = validate(classroom)
    runs = _variation_runs(validated, spec.variations, default_seed, spec.name, rooms)

    def rows(batch: Iterator[Trajectory]) -> list[BenchmarkMetrics]:
        built = []
        for v_index, (masks, vaccines) in enumerate(spec.variations):
            total_infections = 0.0
            for _ in range(rooms):
                room = list(islice(batch, spec.planner.rounds))
                total_infections += sum(t.final.cum_infections for t in room) / len(room)
            pred = 100.0 * total_infections / n_est
            built.append(
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
        return built

    return runs, rows


def simulate_schools(
    specs: list[SchoolBenchmarkSpec], default_seed: int
) -> list[BenchmarkMetrics]:
    """Simulate every school as one batch of rounds and return a row per
    variation, in spec order. Every classroom is validated before any
    round runs."""
    return _play_batch([_school(spec, default_seed) for spec in specs])


def simulate_school(spec: SchoolBenchmarkSpec, default_seed: int) -> list[BenchmarkMetrics]:
    """Simulate one school: :func:`simulate_schools` of ``[spec]``."""
    return simulate_schools([spec], default_seed)


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
