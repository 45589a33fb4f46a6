"""The forked fan-out of rounds: same bytes and values as the serial
path in any dispatch order, no child left behind, and every failure ends
as the serial path ends, for the harness's batches and for
:func:`run_episode` alike.

The ``forked`` fixture makes every batch of two or more rounds fork two
workers, whatever the host: it reports two usable CPUs and drops the
small-batch rule. Each test that uses it also checks whether it forked,
how many rounds the parent ran itself, and that no child process
outlives it.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import signal
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from gridepi import fanout, harness, planner
from gridepi.assets import asset_path
from gridepi.cli import EXIT_USAGE, cli_main
from gridepi.harness import SchoolBenchmarkSpec, simulate_school
from gridepi.planner import run_episode
from gridepi.scenario import PlannerSettings, ScenarioError, load_scenario, validate
from test_golden import CASES, GOLDEN, INPUTS, ROOMS, run_case

HARNESS_CASES = ("experiment_tiny", "experiment_tiny_json", "benchmark_tiny")
SIMULATE_CASES = tuple(sorted(name for name in CASES if name.startswith("simulate_")))


class Spy:
    """Counts the forks, and the rounds the parent ran itself."""

    def __init__(self) -> None:
        self.forks = 0
        self.parent_tasks = 0


def _refuse(*args):
    raise BlockingIOError(11, "Resource temporarily unavailable")


@pytest.fixture
def forked(monkeypatch):
    spy = Spy()
    parent = os.getpid()
    real_fork, real_play_round = os.fork, planner._play_round

    def counting_fork():
        spy.forks += 1
        return real_fork()

    def counting_play_round(*task):
        if os.getpid() == parent:
            spy.parent_tasks += 1
        return real_play_round(*task)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(planner, "_play_round", counting_play_round)
    monkeypatch.setattr(fanout, "FORK_MIN_BUDGET", 0)
    yield spy
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _golden(name: str, tmp_path) -> None:
    outputs = run_case(name, tmp_path)
    for file_name, data in outputs.items():
        assert data == (GOLDEN / name / file_name).read_bytes(), f"{name}/{file_name} differs"


@pytest.mark.parametrize("name", HARNESS_CASES + SIMULATE_CASES)
def test_forked_path_matches_the_golden_files(name, tmp_path, forked):
    """Every multi-round ``simulate`` case forks too, whatever its policy,
    and writes the same trajectories, events and decisions."""
    _golden(name, tmp_path)
    assert forked.forks >= 2
    assert forked.parent_tasks == 0, "the workers left tasks to the parent"


@pytest.mark.parametrize("call", ["fork", "pipe", "memfd_create"])
def test_failed_fork_or_pipe_runs_in_process(call, tmp_path, forked, monkeypatch):
    monkeypatch.setattr(os, call, _refuse)
    _golden("benchmark_tiny", tmp_path)
    assert forked.forks == 0 and forked.parent_tasks > 0


def test_fork_failing_after_the_first_worker_runs_in_process(tmp_path, forked, monkeypatch):
    counting_fork = os.fork

    def second_fails():
        if forked.forks:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return counting_fork()

    monkeypatch.setattr(os, "fork", second_fails)
    _golden("experiment_tiny", tmp_path)
    assert forked.forks == 1


def _fails_in_a_child(monkeypatch) -> None:
    parent = os.getpid()
    real_play_round = planner._play_round

    def child_fails(*task):
        if os.getpid() != parent:
            raise RuntimeError("worker fault")
        return real_play_round(*task)

    monkeypatch.setattr(planner, "_play_round", child_fails)


def _dies_after(sent: int, monkeypatch) -> None:
    """Each child sends ``sent`` results and then dies without a word
    (killed, say) on its next round."""
    parent = os.getpid()
    real_play_round = planner._play_round
    calls = []

    def dies_later(*task):
        if os.getpid() != parent:
            calls.append(1)
            if len(calls) > sent:
                os._exit(9)
        return real_play_round(*task)

    monkeypatch.setattr(planner, "_play_round", dies_later)


def test_task_failing_only_in_a_child_reruns_in_the_parent(tmp_path, forked, monkeypatch):
    _fails_in_a_child(monkeypatch)
    _golden("benchmark_tiny", tmp_path)
    assert forked.forks == 2 and forked.parent_tasks > 0


def test_child_dying_after_some_results_reruns_the_rest(tmp_path, forked, monkeypatch):
    """A child that sends results and then dies loses only the tasks it
    had not sent."""
    _dies_after(2, monkeypatch)
    _golden("experiment_tiny", tmp_path)
    # each child sent two results before dying on its third task
    assert forked.forks == 2 and forked.parent_tasks == 8 - 2 * 2


def test_task_failing_everywhere_exits_one(forked, monkeypatch, capsys):
    def always_fails(*task):
        raise ScenarioError("no room for this episode")

    monkeypatch.setattr(planner, "_play_round", always_fails)
    code = cli_main(["benchmark", str(INPUTS / "tiny.bench"), "--seed", "5"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: no room for this episode\n"
    assert forked.forks == 2


def test_interrupted_wait_kills_and_reaps_every_worker(forked, monkeypatch):
    """A Ctrl-C while the parent waits for a worker propagates, and every
    forked worker is killed and reaped on the way out, the one being
    waited for included: none is left running or unreaped."""
    real_fork, real_waitpid = os.fork, os.waitpid
    forked_pids = []
    interrupted = []

    def recording_fork():
        pid = real_fork()
        if pid:
            forked_pids.append(pid)
        return pid

    def interrupted_once(pid, options):
        if not interrupted:
            interrupted.append(pid)
            raise KeyboardInterrupt
        return real_waitpid(pid, options)

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "waitpid", interrupted_once)
    with pytest.raises(KeyboardInterrupt):
        fanout.fan_out(lambda k: 2 * k, [(k,) for k in range(4)], lambda k: 1, lambda r: r, lambda r: r)
    left = []
    for pid in forked_pids:
        try:
            real_waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue  # reaped
        left.append(pid)
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            real_waitpid(pid, 0)
    assert forked.forks == 2 and len(forked_pids) == 2 and interrupted
    assert left == []


class Hung(Exception):
    pass


def _hung(signum, frame):
    raise Hung("the fan-out did not finish in time")


def test_more_workers_than_cores_and_tasks_than_the_pipe_holds(forked, monkeypatch):
    """Four workers on any host share 20,000 task indices, more than one
    PIPE_BUF write and more than the pipe's capacity: no index is lost
    (a lost one would leave the parent a task), and the rows equal the
    serial ones, within a time bound."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    school = SchoolBenchmarkSpec(
        name="Wide",
        enrollment=20_000,
        per_room=1,
        grid_x=1,
        grid_y=1,
        true_pos_pct=50.0,
        planner=PlannerSettings(rounds=1, horizon=0),
    )
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(60)
    try:
        rows = simulate_school(school, 3)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert forked.forks == 4 and forked.parent_tasks == 0
    monkeypatch.setattr(fanout, "FORK_MIN_BUDGET", 10**9)
    assert rows == simulate_school(school, 3)
    assert forked.parent_tasks == 20_000


# ---------------------------------------------------------------------------
# run_episode
# ---------------------------------------------------------------------------

ROUNDS = 4


def _episodes(policy: str) -> list:
    """``ROUNDS`` short rounds of small_crowded with every log kept."""
    validated = validate(load_scenario(asset_path("small_crowded.scn")))
    settings = replace(validated.planner, horizon=5, uct_iterations=30, rounds=ROUNDS)
    return run_episode(validated, settings, policy, 11, True, True)


def _serial(policy: str, monkeypatch) -> list:
    monkeypatch.setattr(fanout, "FORK_MIN_BUDGET", 10**9)
    return _episodes(policy)


def _assert_same(episodes: list, serial: list) -> None:
    """Equal with ``==`` and with ``repr``."""
    assert episodes == serial
    assert repr(episodes) == repr(serial)


@pytest.mark.parametrize("policy", ["planner", "random", "noop"])
def test_forked_run_episode_equals_the_serial_rounds(policy, forked, monkeypatch):
    episodes = _episodes(policy)
    assert forked.forks == 2 and forked.parent_tasks == 0
    _assert_same(episodes, _serial(policy, monkeypatch))
    assert forked.parent_tasks == ROUNDS


def test_run_episode_round_failing_only_in_a_child(forked, monkeypatch):
    _fails_in_a_child(monkeypatch)
    episodes = _episodes("planner")
    assert forked.forks == 2 and forked.parent_tasks == ROUNDS
    _assert_same(episodes, _serial("planner", monkeypatch))


def test_run_episode_child_dying_after_one_result(forked, monkeypatch):
    _dies_after(1, monkeypatch)
    episodes = _episodes("planner")
    # each child sent one result before dying on its second round
    assert forked.forks == 2 and forked.parent_tasks == ROUNDS - 2
    _assert_same(episodes, _serial("planner", monkeypatch))


@pytest.mark.parametrize("call", ["fork", "pipe", "memfd_create"])
def test_run_episode_failed_fork_or_pipe_runs_in_process(call, forked, monkeypatch):
    monkeypatch.setattr(os, call, _refuse)
    episodes = _episodes("random")
    assert forked.forks == 0 and forked.parent_tasks == ROUNDS
    _assert_same(episodes, _serial("random", monkeypatch))


def test_no_fork_where_none_pays(monkeypatch):
    """At the default small-batch rule on two CPUs, noop and random rounds
    search nothing and a one-round call has one task: none of them forks,
    packs or unpacks, whatever its search settings."""
    forks = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or _refuse())
    monkeypatch.setattr(planner, "_pack_round", _refuse)
    monkeypatch.setattr(planner, "_unpack_round", _refuse)
    validated = validate(load_scenario(asset_path("small_space.scn")))
    many = replace(validated.planner, rounds=5)
    assert 5 * many.horizon * many.uct_iterations >= fanout.FORK_MIN_BUDGET
    for policy in ("noop", "random"):
        assert len(run_episode(validated, many, policy, 3, collect_events=True)) == 5
    one = replace(validated.planner, rounds=1, horizon=2, uct_iterations=fanout.FORK_MIN_BUDGET)
    assert len(run_episode(validated, one, "planner", 3)) == 1
    assert forks == []


def test_result_the_pipe_cannot_carry_reruns_in_process(forked):
    """A packed result that ``marshal`` cannot write ends the worker that
    made it; the parent runs that task itself and returns the serial
    results."""
    parent = os.getpid()
    ran_here = []

    def run(k):
        if os.getpid() == parent:
            ran_here.append(k)
        return (lambda: k) if k == 1 else 2 * k

    results = fanout.fan_out(run, [(k,) for k in range(4)], lambda k: 1, lambda r: r, lambda r: r)
    assert forked.forks == 2 and ran_here == [1]
    assert [results[0], results[1](), *results[2:]] == [0, 1, 4, 6]


def test_workers_gone_before_the_pipe_drains_leave_the_rest_in_process(forked, monkeypatch):
    """Workers that exit without reading a task close the pipe's last
    read end: more 4-byte indices than a 64 KiB pipe holds make the
    parent's write fail with EPIPE, and the parent runs every task
    itself, within a time bound."""
    parent = os.getpid()
    real_read, real_write, real_fork_tasks = os.read, os.write, fanout._fork_tasks
    broken = []
    returned = []

    def exit_in_a_child(fd, size):
        if os.getpid() != parent:
            os._exit(0)
        return real_read(fd, size)

    def recording_write(fd, data):
        try:
            return real_write(fd, data)
        except BrokenPipeError:
            broken.append(fd)
            raise

    def recording_fork_tasks(*args):
        returned.append(real_fork_tasks(*args))
        return returned[-1]

    monkeypatch.setattr(os, "read", exit_in_a_child)
    monkeypatch.setattr(os, "write", recording_write)
    monkeypatch.setattr(fanout, "_fork_tasks", recording_fork_tasks)
    tasks = [(k,) for k in range(20_000)]
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(60)
    try:
        results = fanout.fan_out(lambda k: 2 * k, tasks, lambda k: 1, lambda r: r, lambda r: r)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    # the write failed once, and _fork_tasks returned rather than raised
    assert forked.forks == 2 and len(broken) == 1 and returned == [{}]
    assert results == [2 * k for k in range(20_000)]


def test_child_dying_inside_a_result_frame_reruns_that_task(forked, monkeypatch):
    """A child that writes only part of a result frame to its file and
    dies loses that one task: the parent runs it itself, reads every
    whole frame before it, and returns the serial results."""
    parent = os.getpid()
    real_memfd_create, real_write = os.memfd_create, os.write
    result_files = []
    ran_here = []
    dying = []  # set in the child that ran task 1

    def recording_memfd_create(*args):
        result_files.append(real_memfd_create(*args))
        return result_files[-1]

    def half_then_die(fd, data):
        if dying and fd in result_files:
            real_write(fd, data[: len(data) // 2])
            os._exit(9)
        return real_write(fd, data)

    def run(k):
        if os.getpid() == parent:
            ran_here.append(k)
        elif k == 1:
            dying.append(k)
        return [k] * 8

    monkeypatch.setattr(os, "memfd_create", recording_memfd_create)
    monkeypatch.setattr(os, "write", half_then_die)
    tasks = [(k,) for k in range(4)]
    results = fanout.fan_out(run, tasks, lambda k: 1, lambda r: r, lambda r: r)
    assert forked.forks == 2 and len(result_files) == 2 and ran_here == [1]
    assert results == [[k] * 8 for k in range(4)]


def test_workers_serve_a_caller_from_an_earlier_import(forked, monkeypatch):
    """A caller holding gridepi from before the package was imported
    afresh, as perfbench's set-up does, still gets every round from the
    workers, rebuilt with its own classes; a result pickled by import
    path would name the new classes, so a worker could not send it."""
    tasks = _mixed_rounds()
    earlier = {name: module for name, module in sys.modules.items() if name.split(".")[0] == "gridepi"}
    try:
        for name in earlier:
            del sys.modules[name]
        assert importlib.import_module("gridepi.planner") is not planner
        episodes = planner._play_runs(tasks)
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == "gridepi"]:
            del sys.modules[name]
        sys.modules.update(earlier)
    assert forked.forks == 2 and forked.parent_tasks == 0
    assert {type(episode) for episode in episodes} == {planner.EpisodeResult}
    monkeypatch.setattr(fanout, "FORK_MIN_BUDGET", 10**9)
    _assert_same(episodes, planner._play_runs(tasks))


# ---------------------------------------------------------------------------
# Worker count and the round cost
# ---------------------------------------------------------------------------


def _budget_tasks(horizon: int, iterations: int, masks: bool, count: int = 4) -> list:
    validated = validate(harness.make_classroom(3, 3, 3))
    settings = PlannerSettings(
        masks_available=masks,
        vaccines_available=False,
        rounds=1,
        horizon=horizon,
        uct_iterations=iterations,
    )
    return [(validated, settings, "planner", seed) for seed in range(count)]


def _workers(tasks: list) -> int:
    return fanout._worker_count(len(tasks), sum(planner._round_cost(*task) for task in tasks))


def _iterations_to_reach(budget: int, person_steps_per_iteration: int) -> int:
    return -(-budget // person_steps_per_iteration)


def test_worker_count_rules(monkeypatch):
    """The budget is counted in person-steps: each task searches 10 steps
    per iteration in a room of 3 persons."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    per_task = _iterations_to_reach(fanout.FORK_MIN_BUDGET, 10 * 3)  # one task reaches it
    big = _budget_tasks(10, per_task, True)
    assert _workers(big) == 3
    assert _workers(big[:2]) == 2  # at most one worker per task
    assert _workers(big[:1]) == 0
    # the budget is summed over the planner tasks with an intervention enabled
    per_four = _iterations_to_reach(fanout.FORK_MIN_BUDGET, 4 * 10 * 3)
    assert _workers(_budget_tasks(10, per_four, True)) == 3
    assert _workers(_budget_tasks(10, per_four - 1, True)) == 0
    assert _workers(_budget_tasks(10, 10**6, False)) == 0
    assert _workers([(v, s, "random", seed) for v, s, _, seed in big]) == 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
    assert _workers(big) == 0


def test_no_fork_while_another_thread_runs(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    big = _budget_tasks(10, fanout.FORK_MIN_BUDGET, True)
    assert _workers(big) == 2
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert _workers(big) == 0
    finally:
        release.set()
        thread.join()


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity", "memfd_create"])
def test_no_fork_without_the_os_calls(missing, monkeypatch):
    big = _budget_tasks(10, fanout.FORK_MIN_BUDGET, True)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(os, missing)
    assert _workers(big) == 0


def test_dispatch_order_is_longest_first():
    """Costs descending, equal costs in task order, zero-cost tasks last."""
    assert fanout._dispatch_order([0, 5, 3, 5, 0, 9, 3]) == [5, 1, 3, 2, 6, 0, 4]
    assert fanout._dispatch_order([0, 0, 0]) == [0, 1, 2]
    assert fanout._dispatch_order([]) == []


def test_round_cost_is_search_steps_times_persons():
    (task,) = _budget_tasks(10, 7, True, count=1)
    validated, settings, _, seed = task
    assert validated.population == 3
    assert planner._round_cost(*task) == 10 * 7 * 3
    assert planner._round_cost(validated, settings, "random", seed) == 0
    assert planner._round_cost(validated, settings, "noop", seed, True, True) == 0
    (idle,) = _budget_tasks(10, 7, False, count=1)
    assert planner._round_cost(*idle) == 0


@pytest.mark.parametrize("room", ROOMS)
def test_round_cost_is_at_least_the_search_steps(room):
    """A searching round has a person, so counting persons never drops a
    batch below the search steps that decided its fork before."""
    validated = validate(load_scenario(asset_path(f"{room}.scn")))
    settings = validated.planner
    assert settings.masks_available or settings.vaccines_available
    steps = settings.horizon * settings.uct_iterations
    assert planner._round_cost(validated, settings, "planner", 0) >= steps > 0


class Decided(Exception):
    """Ends a command once its fan-out batch's worker count is known."""


def _batch_workers(argv: list[str], monkeypatch) -> int:
    """Workers the one fan-out batch of ``gridepi argv`` gets on two CPUs;
    the command stops there, so none of its rounds runs."""
    decided = []

    def decide(run, tasks, cost, *codec):
        decided.append(fanout._worker_count(len(tasks), sum(cost(*task) for task in tasks)))
        raise Decided

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(fanout, "fan_out", decide)
    with pytest.raises(Decided):
        cli_main(argv)
    (workers,) = decided
    return workers


PERFBENCH_TINY = Path(__file__).resolve().parents[1] / "perfbench" / "tiny"
SMALL_BATCHES = {
    **{name: CASES[name] for name in HARNESS_CASES + SIMULATE_CASES},
    "perfbench_tiny_exp": lambda workdir: [
        "experiment", str(PERFBENCH_TINY / "tiny.exp"), "--runs", "1", "--seed", "1729",
    ],
    "perfbench_tiny_bench": lambda workdir: [
        "benchmark", str(PERFBENCH_TINY / "tiny.bench"), "--seed", "1729",
    ],
}
LARGE_BATCHES = {
    "table2_exp": ["experiment", str(asset_path("table2.exp")), "--runs", "1", "--seed", "1729"],
    "schools_bench": ["benchmark", str(asset_path("schools.bench")), "--seed", "1729"],
    **{f"simulate_{room}": ["simulate", str(asset_path(f"{room}.scn"))] for room in ROOMS},
}


@pytest.mark.parametrize("name", sorted(SMALL_BATCHES))
def test_golden_and_tiny_batches_run_in_process(name, tmp_path, monkeypatch):
    assert _batch_workers(SMALL_BATCHES[name](tmp_path), monkeypatch) == 0


@pytest.mark.parametrize("name", sorted(LARGE_BATCHES))
def test_study_and_bundled_room_batches_fork(name, monkeypatch):
    assert _batch_workers(LARGE_BATCHES[name], monkeypatch) >= 2


def _mixed_rounds() -> list:
    """One-round planner runs in two rooms, some with an intervention and
    some without, so their costs differ and some are 0, plus a random run."""
    tasks = []
    for room in ("small_space.scn", "small_crowded.scn"):
        validated = validate(load_scenario(asset_path(room)))
        for masks, vaccines, horizon in ((False, False, 4), (True, True, 3), (True, False, 5)):
            settings = replace(
                validated.planner,
                masks_available=masks,
                vaccines_available=vaccines,
                horizon=horizon,
                uct_iterations=20,
                rounds=1,
            )
            tasks += [(validated, settings, "planner", seed) for seed in (3, 4)]
    tasks.append((validated, settings, "random", 5))
    return tasks


@pytest.mark.parametrize("reverse", [False, True])
def test_dispatch_order_never_changes_a_result(reverse, forked, monkeypatch):
    """The forked rounds equal the serial ones, with ``==`` and ``repr``,
    whether the workers take them longest first or in the reverse order."""
    tasks = _mixed_rounds()
    costs = [planner._round_cost(*task) for task in tasks]
    longest_first = fanout._dispatch_order(costs)
    assert costs[longest_first[0]] == max(costs) > costs[longest_first[-1]] == 0
    order = longest_first[::-1] if reverse else longest_first
    monkeypatch.setattr(fanout, "_dispatch_order", lambda costs: order)
    sent = []
    real_fork_tasks = fanout._fork_tasks

    def recording(job, order, workers):
        sent.append(order)
        return real_fork_tasks(job, order, workers)

    monkeypatch.setattr(fanout, "_fork_tasks", recording)
    episodes = planner._play_runs(tasks)
    assert sent == [order]
    assert forked.forks == 2 and forked.parent_tasks == 0
    monkeypatch.setattr(fanout, "FORK_MIN_BUDGET", 10**9)
    _assert_same(episodes, planner._play_runs(tasks))
    assert forked.parent_tasks == len(tasks)


TWO_SECTIONS = """\
[experiment]
scenario = small.scn
variations = none, masks+vaccines
runs = 2
seed = 4

[experiment]
scenario = crowded.scn
variations = masks
runs = 1
"""


def test_one_batch_command_equals_its_sections_run_alone(tmp_path, forked):
    """A forked two-section ``gridepi experiment`` writes the rows that
    its two sections write one file each, under one header."""
    for name, asset in (("small", "small_space.scn"), ("crowded", "small_crowded.scn")):
        text = asset_path(asset).read_text(encoding="utf-8")
        text = text.replace("rounds=5", "rounds=2").replace("uct_iterations=500", "uct_iterations=12")
        (tmp_path / f"{name}.scn").write_text(text, encoding="utf-8")
    sections = TWO_SECTIONS.split("\n\n")
    paths = []
    for name, text in (("both", TWO_SECTIONS), ("first", sections[0]), ("second", sections[1])):
        (tmp_path / f"{name}.exp").write_text(text, encoding="utf-8")
        paths.append(tmp_path / f"{name}.csv")
        argv = ["experiment", str(tmp_path / f"{name}.exp"), "--seed", "8", "--out", str(paths[-1])]
        assert cli_main(argv) == 0
    assert forked.forks == 2 * 3 and forked.parent_tasks == 0
    both, first, second = (path.read_text(encoding="utf-8") for path in paths)
    header = first.splitlines(keepends=True)[0]
    assert second.startswith(header)
    assert both == first + second[len(header):]
    assert len(both.splitlines()) == 1 + 2 + 1


def test_variation_runs_are_whole_runs():
    """The harness hands the planner one run per variation and run, with
    the run's own seed and the scenario's own rounds."""
    validated = validate(harness.make_classroom(3, 3, 3, PlannerSettings(rounds=3)))
    runs = harness._variation_runs(validated, ((False, False), (True, True)), 9, "x", 2)
    assert [seed for _, _, _, seed in runs] == [
        harness.stable_seed(9, "x", v, i) for v in range(2) for i in range(2)
    ]
    assert {s.rounds for _, s, _, _ in runs} == {3}
    assert {policy for _, _, policy, _ in runs} == {"planner"}
    assert runs[0][1] == replace(validated.planner, masks_available=False, vaccines_available=False)
    assert runs[-1][1] == validated.planner


def test_play_runs_seeds_round_r_of_a_run_with_its_seed_plus_r():
    """Two 3-round runs become six rounds in run-then-round order, round
    r of a run seeded with the run's seed + r; with their event logs no
    two rounds come out alike, so any other seeding shows."""
    settings = PlannerSettings(rounds=3, horizon=4, uct_iterations=10)
    validated = validate(harness.make_classroom(3, 3, 3, settings))
    runs = [(validated, settings, "planner", 11, True), (validated, settings, "random", 40, True)]
    expected = [
        planner._play_round(v, s, p, seed + r, *logs)
        for v, s, p, seed, *logs in runs
        for r in range(3)
    ]
    assert len({repr(episode) for episode in expected}) == 6
    _assert_same(planner._play_runs(runs), expected)
