"""Grid-based indoor SEIRD epidemic simulator with an embedded planner.

The package is organized around five modules:

* :mod:`gridepi.scenario` defines the scenario file format, validation,
  and grid queries.
* :mod:`gridepi.dynamics` is the simulation core: the population state,
  the interventions, the in-place step kernel with its one pure wrapper
  :func:`~gridepi.dynamics.step`, and the CSV/JSON rendering of output
  rows from their field tables.
* :mod:`gridepi.planner` defines the reward, the UCT search, and episode
  execution.
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
    neighbors,
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
    "neighbors",
    "parse_scenario",
    "serialize_scenario",
    "validate",
]
