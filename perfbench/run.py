"""gridepi benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload plan_rooms --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``plan_rooms`` (root planner decisions
in the four bundled rooms), ``harness_sweep`` (``gridepi experiment
table2.exp --runs 1`` plus ``gridepi benchmark schools.bench``) and
``crowd_room`` (random-policy episodes with event logs in generated
100-person rooms). Run from the repository root; the program is imported
from ``src/``.

A run sets up 15 times: each set-up imports ``gridepi`` afresh, loads
and validates the bundled rooms, runs the oracle checks, builds the
workload's operations from the seed, and warms up by running the
workload's tiny operations at the default seed against their stored
digest. The first set-up comes before any timed operation; the others
fall between rounds, spread evenly over ``--seconds`` (those not yet due
follow the last round), so that their median is the run's and not that
of its first second. The run measures rounds, each round every
operation once in a fresh seeded order, until the next round would end
after ``--seconds`` and at least the workload's ``min_rounds`` ran.
Every operation must give the same output on every repeat. At the default seed the digest of the operations' outputs must
equal the one stored in ``digests.json``.

Other tenants of a shared host slow it by up to 2x for minutes at a
time, so an untraced run samples the host's CPU speed throughout
(``speed.py``) and reports every time at the reference speed: the
wall time with each 10 ms stretch scaled by the slowdown measured at
its end. The context line gives the unscaled values too.

With ``--trace 0`` the result's metrics are the end-to-end metrics:

* ``setup_s``: median time of the 15 set-ups;
* ``wall_s``: time of one round, the sum of the operations' times;
* ``op_ms_p50``, ``op_ms_p90``: median and 90th percentile over the
  operations (decisions, episodes with their rendering, CLI commands) of
  each one's time, the median of its repeats;
* ``sim_steps_per_s``: simulated steps of one round per second of
  ``wall_s`` (planner steps on plan_rooms, episode steps on the other two);
* ``peak_rss_mb``: peak resident set size of the process.

With ``--trace 1`` the tracer (``tracer.py``) is installed before the
first step, the run sets up once, one round runs traced, the tracer is
removed and one round runs again untraced; the result's metrics are the
per-layer metrics of the traced round, including the tracing overhead,
in unscaled time, and spans are written to ``.perfbench_out/``. The traced and the untraced digests must be equal.
Per-layer names end in ``.calls`` (calls in the traced round), ``.us`` or
``.ms`` (mean time per call), ``.self_us`` or ``.self_ms`` (mean time per
call outside traced callees) or ``.share`` (share of the traced round);
``dynamics.events_to_jsonl.ms``, ``harness.emit_results.ms``,
``harness.self_s`` and ``cli.self_ms`` are totals over the round.

The last line of standard output is the JSON result. Every failed
operation, broken invariant or digest mismatch counts in ``failed``.
Without the program in ``src/`` the script exits with code 2 and prints
no result.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import resource  # noqa: E402

# Linux keeps the children's peak RSS across exec, so a parent's children
# show up here; only growth beyond this value is this run's.
CHILD_RSS_AT_START = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1729
SETUP_REPS = 15
PROGRAM_MODULES = ("scenario", "rng", "dynamics", "planner", "oracle", "harness", "cli", "assets")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "sim_steps_per_s": "steps/s",
    "peak_rss_mb": "MB",
}


def import_program() -> None:
    """Import every gridepi module from this checkout's ``src``, or exit 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gridepi
        for name in PROGRAM_MODULES:
            __import__(f"gridepi.{name}")
    except ImportError as exc:
        print(f"error: cannot import gridepi from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(gridepi.__file__).resolve().is_relative_to(src):
        print(f"error: gridepi was imported from {gridepi.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, within the range of ``values``."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Run:
    """Counts of one benchmark run and its stored digests."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        self.workload = workload
        self.seed = seed
        self.size = "tiny" if tiny else "full"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.stored = json.loads((HERE / "digests.json").read_text())

    def attempt(self, op) -> tuple | None:
        """Run one operation; returns ((start, end), steps, output
        digest), or None after counting its failure."""
        self.attempted += 1
        try:
            interval, steps, output = op()
        except Exception as exc:  # the loop must go on and count it
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        return interval, steps, hashlib.sha256(output).hexdigest()

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)

    def expect_digest(self, size: str, digest: str) -> None:
        stored = self.stored[size].get(self.workload)
        self.expect(stored == digest, f"{size} digest {digest} != stored {stored}")


def fresh_workloads():
    """Import ``gridepi`` and the workloads module anew, as a new process
    would."""
    for name in list(sys.modules):
        if name in ("gridepi", "workloads") or name.startswith("gridepi."):
            del sys.modules[name]
    import workloads
    return workloads


def setup_once(run: Run, workloads, tiny: bool, reps: list):
    """One set-up, timed into ``reps`` as ((start, end), load_validate_s,
    oracle_s); returns the workload."""
    start = time.perf_counter()
    if workloads is None:
        workloads = fresh_workloads()
    t0 = time.perf_counter()
    workloads.load_bundled_rooms()
    t1 = time.perf_counter()
    checks = workloads.oracle_checks()
    t2 = time.perf_counter()
    for ok, message in checks:
        run.expect(ok, message)
    workload_cls = workloads.WORKLOADS[run.workload]
    workload = workload_cls(run.seed, tiny)
    warm = measure(run, workload_cls(DEFAULT_SEED, True).operations(), 0.0, 1)
    run.expect_digest("tiny", warm.digest)
    reps.append(((start, time.perf_counter()), t1 - t0, t2 - t1))
    return workload


class Rounds:
    """Per-operation samples, as (start, end) intervals, of a run's rounds."""

    def __init__(self, size: int):
        self.samples: list[list[tuple]] = [[] for _ in range(size)]
        self.steps = [0] * size
        self.outputs: list[str | None] = [None] * size
        self.round_s: list[float] = []

    @property
    def digest(self) -> str:
        """Digest of every operation's output, in the operations' order."""
        sha = hashlib.sha256()
        for output in self.outputs:
            sha.update(f"{output or 'failed'}\n".encode())
        return sha.hexdigest()

    def median_s(self, timing) -> list[float]:
        """Each operation's median time over its repeats."""
        return [statistics.median(timing(*i) for i in s) for s in self.samples if s]


def measure(run: Run, operations: list, seconds: float, min_rounds: int,
            between=lambda: None) -> Rounds:
    """Rounds of every operation until the next round would end after
    ``seconds`` and at least ``min_rounds`` ran; ``between`` runs after
    each round, untimed."""
    rounds = Rounds(len(operations))
    start = time.perf_counter()
    while True:
        order = list(range(len(operations)))
        random.Random(f"{run.seed}:{len(rounds.round_s)}").shuffle(order)
        gc.collect()
        t0 = time.perf_counter()
        for k in order:
            done = run.attempt(operations[k])
            if done is None:
                continue
            interval, steps, output = done
            if rounds.outputs[k] is None:
                rounds.outputs[k], rounds.steps[k] = output, steps
            elif output != rounds.outputs[k]:
                run.failed += 1
                run.errors.append(f"operation {k} gave another output on a repeat")
                continue
            rounds.samples[k].append(interval)
        rounds.round_s.append(time.perf_counter() - t0)
        between()
        elapsed = time.perf_counter() - start
        if (len(rounds.round_s) >= min_rounds
                and elapsed + statistics.median(rounds.round_s) > seconds):
            return rounds


def end_to_end_metrics(setup_s: float, rounds: Rounds, timing) -> dict:
    per_op = rounds.median_s(timing)
    wall = sum(per_op)
    op_ms = [1000.0 * s for s in per_op]
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "op_ms_p50": statistics.median(op_ms) if op_ms else 0.0,
        "op_ms_p90": percentile(op_ms, 0.9) if op_ms else 0.0,
        "sim_steps_per_s": sum(rounds.steps) / wall if wall else 0.0,
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
    }


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def child_rss_grew() -> bool:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss > CHILD_RSS_AT_START


def cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def layer_metrics(tracer, traced_s: float, untraced_s: float, cpu_s: float,
                  load_validate_s: float, oracle_s: float) -> dict:
    stats = tracer.stats
    counters = tracer.counters

    def calls(name):
        return stats[name].calls

    def mean(name, scale, attribute="total_s"):
        stat = stats[name]
        return scale * getattr(stat, attribute) / stat.calls if stat.calls else 0.0

    def share(name):
        return stats[name].total_s / traced_s

    plan = stats["planner.plan_with_stats"]
    iterations = counters.get("planner.iterations", 0)
    harness_spans = [stats[n] for n in ("harness.run_experiment", "harness.simulate_school")]
    cells = counters.get("harness.cells", 0)
    return {
        "dynamics.step_inplace.calls": calls("dynamics.step_inplace"),
        "dynamics.step_inplace.us": mean("dynamics.step_inplace", 1e6),
        "dynamics.step_inplace.self_us": mean("dynamics.step_inplace", 1e6, "self_s"),
        "dynamics.exposure_probability.calls": calls("dynamics.exposure_probability"),
        "dynamics.exposure_probability.us": mean("dynamics.exposure_probability", 1e6),
        "dynamics.exposure_probability.share": share("dynamics.exposure_probability"),
        "dynamics.clone.calls": calls("dynamics.clone"),
        "dynamics.clone.us": mean("dynamics.clone", 1e6),
        "dynamics.events.count": counters.get("dynamics.events", 0),
        "dynamics.events_to_jsonl.ms": 1000.0 * stats["dynamics.events_to_jsonl"].total_s,
        "planner.plan_with_stats.calls": plan.calls,
        "planner.plan_with_stats.ms": mean("planner.plan_with_stats", 1e3),
        "planner.plan_with_stats.self_ms": mean("planner.plan_with_stats", 1e3, "self_s"),
        "planner.ms_per_100_iter": 1e5 * plan.total_s / iterations if iterations else 0.0,
        "planner.rollout_steps_per_s": (
            counters.get("planner.rollout_steps", 0) / plan.total_s if plan.total_s else 0.0
        ),
        "planner.available_actions.calls": calls("planner.available_actions"),
        "planner.available_actions.us": mean("planner.available_actions", 1e6),
        "planner.available_actions.share": share("planner.available_actions"),
        "planner.apply_action_inplace.calls": calls("planner.apply_action_inplace"),
        "planner.apply_action_inplace.us": mean("planner.apply_action_inplace", 1e6),
        "planner.run_episode.calls": calls("planner.run_episode"),
        "planner.run_episode.ms": mean("planner.run_episode", 1e3),
        "harness.cells": cells,
        "harness.episodes": counters.get("harness.episodes", 0),
        "harness.self_s": sum(s.self_s for s in harness_spans),
        "harness.cpu_over_wall": cpu_s / traced_s if cells else 0.0,
        "harness.child_peak_rss_mb": (
            peak_rss_mb(resource.RUSAGE_CHILDREN) if child_rss_grew() else 0.0
        ),
        "harness.emit_results.ms": 1000.0 * stats["harness.emit_results"].total_s,
        "cli.self_ms": 1000.0 * stats["cli.cli_main"].self_s,
        "scenario.load_validate_ms": 1000.0 * load_validate_s,
        "oracle.check_ms": 1000.0 * oracle_s,
        "trace.overhead": traced_s / untraced_s,
        "trace.absent_hooks": len(tracer.absent),
    }


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a few small operations (smoke test)")
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(HERE))
    import speed
    import tracer as tracing

    tiny = args.size == "tiny"
    run = Run(args.workload, args.seed, tiny)
    tracer = None
    reps: list[tuple] = []
    if args.trace:
        # No fresh imports here: the wrappers must stay in the modules used.
        tracer = tracing.Tracer()
        tracer.install()
        import workloads
        workload = setup_once(run, workloads, tiny, reps)
    else:
        probe = speed.SpeedProbe()
        probe.start()
        workload = setup_once(run, None, tiny, reps)
    operations = workload.operations()

    context = {
        "workload": args.workload,
        "why": next(w["why"] for w in benchmark["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "size": run.size,
        "trace": bool(args.trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": "{0.sysname}-{0.release}-{0.machine}".format(os.uname()),
        "commit": git_commit(),
        "start_s": reps[0][0][0] - START,
    }

    if tracer is None:
        measure_start = time.perf_counter()

        def set_up_when_due():
            due = measure_start + args.seconds * len(reps) / SETUP_REPS
            if len(reps) < SETUP_REPS and time.perf_counter() >= due:
                setup_once(run, None, tiny, reps)

        min_rounds = 1 if tiny else workload.min_rounds
        rounds = measure(run, operations, args.seconds, min_rounds, set_up_when_due)
        while len(reps) < SETUP_REPS:
            setup_once(run, None, tiny, reps)
        probe.stop()
        setup_s = statistics.median(probe.scaled(*r[0]) for r in reps)
        metrics = end_to_end_metrics(setup_s, rounds, probe.scaled)
        unscaled = end_to_end_metrics(
            statistics.median(end - start for (start, end), _, _ in reps),
            rounds, lambda start, end: end - start)
        context["unscaled"] = {name: unscaled[name] for name in ("setup_s", "wall_s", "op_ms_p50")}
        context["probe_cpu_us_p10_p50"] = [
            1e6 * percentile(probe.cpu_s, 0.1), 1e6 * statistics.median(probe.cpu_s)]
        units = END_TO_END_UNITS
        context["rounds"] = len(rounds.round_s)
        context["operations"] = len(operations)
        context["repeats"] = [len(s) for s in rounds.samples]
    else:
        tracer.reset()
        cpu0 = cpu_seconds()
        rounds = measure(run, operations, 0.0, 1)
        traced_s = rounds.round_s[0]
        cpu_s = cpu_seconds() - cpu0
        tracer.uninstall()
        reference = measure(run, operations, 0.0, 1)
        untraced_s = reference.round_s[0]
        run.expect(rounds.digest == reference.digest,
                   f"traced digest {rounds.digest} != untraced {reference.digest}")
        metrics = layer_metrics(tracer, traced_s, untraced_s, cpu_s,
                                statistics.median(r[1] for r in reps),
                                statistics.median(r[2] for r in reps))
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(spans)
        context["tracing_overhead"] = metrics["trace.overhead"]
        context["absent_hooks"] = tracer.absent
        context["spans"] = str(spans.relative_to(ROOT))
    context["digest"] = rounds.digest
    if args.seed == DEFAULT_SEED:
        run.expect_digest(run.size, rounds.digest)

    for error in run.errors:
        print(f"failed: {error}", file=sys.stderr)
    print("context " + json.dumps(context, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_ratio = {run.failed / run.attempted:.6g} fraction "
          f"({run.failed} of {run.attempted})")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
