"""Grid-based indoor SEIRD epidemic simulator with an embedded planner.

The package is organized around six modules:

* :mod:`gridepi.scenario` defines the scenario file format, validation,
  and grid queries.
* :mod:`gridepi.dynamics` is the simulation core: the population state,
  the interventions, the in-place step kernel with its one pure wrapper
  :func:`~gridepi.dynamics.step`, the reward formula, and the CSV/JSON
  rendering of output rows from their field tables.
* :mod:`gridepi.planner` defines the UCT search and episode execution:
  one round function that every multi-round run maps its rounds through.
* :mod:`gridepi.fanout` runs independent tasks on every usable CPU, in
  forked workers, with results identical to the serial loop's.
* :mod:`gridepi.oracle` provides the reference computations used to
  check the simulator: a mean-field ODE and exact enumeration of tiny
  static scenarios.
* :mod:`gridepi.harness` runs batch experiments and school benchmarks.

The :mod:`gridepi.cli` module exposes all of it as the ``gridepi``
command.
"""

from .scenario import (
    EpiParams,
    GridMap,
    Placement,
    PlannerSettings,
    ScenarioConfig,
    ScenarioError,
    ScenarioParseError,
    ScenarioValidationError,
    ValidatedScenario,
    density,
    load_scenario,
    parse_scenario,
    serialize_scenario,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "EpiParams",
    "GridMap",
    "Placement",
    "PlannerSettings",
    "ScenarioConfig",
    "ScenarioError",
    "ScenarioParseError",
    "ScenarioValidationError",
    "ValidatedScenario",
    "density",
    "load_scenario",
    "parse_scenario",
    "serialize_scenario",
    "validate",
]
