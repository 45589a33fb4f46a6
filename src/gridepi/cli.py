"""Command-line front end.

Subcommands::

    gridepi validate <scenario>
    gridepi simulate <scenario> [--seed N] [--policy planner|noop|random]
                     [--rounds N] [--horizon N] [--out traj.csv]
                     [--format csv|json] [--events ev.jsonl]
                     [--decisions dec.jsonl]
    gridepi experiment <specfile> [--seed N] [--runs N] [--out results.csv]
                     [--format csv|json]
    gridepi benchmark <specfile> [--seed N] [--out results.csv]
                     [--format csv|json]
    gridepi oracle ode [--s0 ... --mode literal|conserving --dt --steps --out]
    gridepi oracle enumerate <scenario> [--horizon N] [--out dist.json]

Exit codes: 0 success, 1 validation or usage error or an input too large
to hold in memory, 2 I/O error. Errors
go to standard error as ``error: ...`` lines, so they never land in
results written to standard output; ``warning: ...`` lines go to
standard output. All output is deterministic: the same invocation with
the same seed writes byte-identical files. The default seed is DEFAULT_SEED (1729).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import harness, oracle
from .dynamics import Trajectory, events_to_jsonl
from .planner import POLICIES, run_episode
from .scenario import (
    EpiParams,
    ScenarioError,
    ScenarioValidationError,
    density,
    load_scenario,
    validate,
)

__all__ = ["cli_main", "main", "DEFAULT_SEED"]

DEFAULT_SEED = 1729

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridepi",
        description="Grid-based indoor epidemic simulator and intervention planner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a scenario file")
    p_validate.set_defaults(run=_cmd_validate)
    p_validate.add_argument("scenario")

    p_sim = sub.add_parser("simulate", help="simulate one scenario")
    p_sim.set_defaults(run=_cmd_simulate)
    p_sim.add_argument("scenario")
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sim.add_argument("--policy", choices=POLICIES, default="planner")
    p_sim.add_argument("--rounds", type=int, default=None)
    p_sim.add_argument("--horizon", type=int, default=None)
    p_sim.add_argument("--out", default=None, help="trajectory file")
    p_sim.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sim.add_argument("--events", default=None, help="event log file (JSON lines)")
    p_sim.add_argument(
        "--decisions", default=None, help="planner decision log file (JSON lines)"
    )

    p_exp = sub.add_parser("experiment", help="run an experiment sweep file")
    p_exp.set_defaults(run=_cmd_experiment)
    p_exp.add_argument("specfile")
    p_exp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_exp.add_argument("--runs", type=int, default=None, help="override runs per cell")
    p_exp.add_argument("--out", default=None)
    p_exp.add_argument("--format", choices=("csv", "json"), default="csv")

    p_bench = sub.add_parser("benchmark", help="run a school benchmark file")
    p_bench.set_defaults(run=_cmd_benchmark)
    p_bench.add_argument("specfile")
    p_bench.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_bench.add_argument("--out", default=None)
    p_bench.add_argument("--format", choices=("csv", "json"), default="csv")

    p_oracle = sub.add_parser("oracle", help="reference computations")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)

    p_ode = oracle_sub.add_parser("ode", help="forward Euler compartment curve")
    p_ode.set_defaults(run=_cmd_oracle_ode)
    p_ode.add_argument("--s0", type=float, default=99.0)
    p_ode.add_argument("--e0", type=float, default=0.0)
    p_ode.add_argument("--i0", type=float, default=1.0)
    p_ode.add_argument("--r0", type=float, default=0.0)
    p_ode.add_argument("--d0", type=float, default=0.0)
    p_ode.add_argument("--beta", type=float, default=EpiParams.beta)
    p_ode.add_argument("--sigma", type=float, default=EpiParams.sigma)
    p_ode.add_argument("--gamma", type=float, default=EpiParams.gamma)
    p_ode.add_argument("--mu", type=float, default=EpiParams.mu)
    p_ode.add_argument("--dt", type=float, default=0.01)
    p_ode.add_argument("--steps", type=int, default=1000)
    p_ode.add_argument("--mode", choices=oracle.MODES, default="conserving")
    p_ode.add_argument("--out", default=None)

    p_enum = oracle_sub.add_parser(
        "enumerate", help="exact outcome distribution of a static micro-scenario"
    )
    p_enum.set_defaults(run=_cmd_oracle_enumerate)
    p_enum.add_argument("scenario")
    p_enum.add_argument("--horizon", type=int, default=None)
    p_enum.add_argument("--out", default=None)

    return parser


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _round_path(base: str, index: int, rounds: int) -> str:
    if rounds == 1:
        return base
    p = Path(base)
    return str(p.with_name(f"{p.stem}_r{index}{p.suffix}"))


def _cmd_validate(args) -> int:
    validated = validate(load_scenario(args.scenario))
    for warning in validated.warnings:
        print(f"warning: {warning}")
    print(
        f"OK {validated.name}: N={validated.population}, "
        f"walkable={validated.walkable_count}, "
        f"density={density(validated):.2f}"
    )
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = load_scenario(args.scenario)
    settings = config.planner
    if args.rounds is not None:
        settings = replace(settings, rounds=args.rounds)
    if args.horizon is not None:
        settings = replace(settings, horizon=args.horizon)
    validated = validate(config)
    if not validated.population:
        raise ScenarioValidationError(["scenario has no persons"])
    for warning in validated.warnings:
        print(f"warning: {warning}")
    episodes = run_episode(
        validated,
        settings,
        args.policy,
        args.seed,
        collect_events=args.events is not None,
        collect_decisions=args.decisions is not None,
    )
    # every round's files are written before the first summary line, so
    # an unwritable path exits 2 with no result on standard output
    to_text = Trajectory.to_csv if args.format == "csv" else Trajectory.to_json
    logs = [
        (args.out, lambda e: to_text(e.trajectory)),
        (args.events, lambda e: events_to_jsonl(e.events)),
        (args.decisions, lambda e: "".join(json.dumps(d) + "\n" for d in e.decisions)),
    ]
    for index, episode in enumerate(episodes):
        for base, render in logs:
            if base is not None:
                path = Path(_round_path(base, index, settings.rounds))
                path.write_text(render(episode), encoding="utf-8")
    n = validated.population
    mean_positivity = 0.0
    for index, episode in enumerate(episodes):
        final = episode.trajectory.final
        positivity = 100.0 * final.cum_infections / n
        mean_positivity += positivity
        print(
            f"round {index}: S={final.s} E={final.e} I={final.i} "
            f"R={final.r} D={final.d} "
            f"infected={final.cum_infections}/{n} ({positivity:.1f}%) "
            f"reward={episode.reward!r}"
        )
    print(f"mean positivity over {settings.rounds} rounds: "
          f"{mean_positivity / len(episodes):.1f}%")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    specs = harness.parse_experiment_file(args.specfile)
    if args.runs is not None:
        specs = [replace(spec, runs=args.runs) for spec in specs]
    rows = harness.run_experiments(specs, args.seed)
    sys.stdout.write(harness.emit_results(rows, args.format, args.out))
    return EXIT_OK


def _cmd_benchmark(args) -> int:
    specs = harness.parse_benchmark_file(args.specfile)
    rows = harness.simulate_schools(specs, args.seed)
    sys.stdout.write(harness.emit_results(rows, args.format, args.out))
    return EXIT_OK


def _cmd_oracle_ode(args) -> int:
    v0 = oracle.CompartmentVector.from_counts(
        args.s0, args.e0, args.i0, args.r0, args.d0
    )
    params = EpiParams(beta=args.beta, sigma=args.sigma, gamma=args.gamma, mu=args.mu)
    curve = oracle.seird_integrate(v0, params, args.dt, args.steps, args.mode)
    lines = ["t,S,E,I,R,D"]
    for index, v in enumerate(curve):
        t = index * args.dt
        lines.append(f"{t!r},{v.s!r},{v.e!r},{v.i!r},{v.r!r},{v.d!r}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_oracle_enumerate(args) -> int:
    config = load_scenario(args.scenario)
    validated = validate(config)
    horizon = args.horizon if args.horizon is not None else config.planner.horizon
    _write_or_print(oracle.enumerate_exact(validated, horizon).to_json(), args.out)
    return EXIT_OK


def cli_main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the process exit code instead of exiting."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; usage
        # problems are validation failures here, not I/O.
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.run(args)
    except ScenarioValidationError as exc:
        for error in exc.errors:
            print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
