"""The harness's forked fan-out: same bytes as the serial path, no child
left behind, and every failure ends as the serial path ends.

The ``forked`` fixture makes every batch fork two workers, whatever the
host: it reports two usable CPUs and drops the small-batch rule. Each
test that uses it also checks that it forked and that no child process
outlives it.
"""

from __future__ import annotations

import os
import signal
import threading
from dataclasses import replace

import pytest

from gridepi import harness
from gridepi.cli import EXIT_USAGE, cli_main
from gridepi.harness import SchoolBenchmarkSpec, simulate_school
from gridepi.scenario import PlannerSettings, ScenarioError, validate
from test_golden import GOLDEN, INPUTS, run_case

HARNESS_CASES = ("experiment_tiny", "experiment_tiny_json", "benchmark_tiny")


class Spy:
    """Counts the forks, and the tasks the parent ran itself."""

    def __init__(self) -> None:
        self.forks = 0
        self.parent_tasks = 0


@pytest.fixture
def forked(monkeypatch):
    spy = Spy()
    parent = os.getpid()
    real_fork, real_run_task = os.fork, harness._run_task

    def counting_fork():
        spy.forks += 1
        return real_fork()

    def counting_run_task(*task):
        if os.getpid() == parent:
            spy.parent_tasks += 1
        return real_run_task(*task)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(harness, "_run_task", counting_run_task)
    monkeypatch.setattr(harness, "FORK_MIN_BUDGET", 0)
    yield spy
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _golden(name: str, tmp_path) -> None:
    outputs = run_case(name, tmp_path)
    for file_name, data in outputs.items():
        assert data == (GOLDEN / name / file_name).read_bytes(), f"{name}/{file_name} differs"


@pytest.mark.parametrize("name", HARNESS_CASES)
def test_forked_path_matches_the_golden_files(name, tmp_path, forked):
    _golden(name, tmp_path)
    assert forked.forks >= 2
    assert forked.parent_tasks == 0, "the workers left tasks to the parent"


@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_failed_fork_or_pipe_runs_in_process(call, tmp_path, forked, monkeypatch):
    def refuse(*args):
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, call, refuse)
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


def test_task_failing_only_in_a_child_reruns_in_the_parent(tmp_path, forked, monkeypatch):
    parent = os.getpid()
    real_run_episode = harness.run_episode

    def child_fails(*args, **kwargs):
        if os.getpid() != parent:
            raise RuntimeError("worker fault")
        return real_run_episode(*args, **kwargs)

    monkeypatch.setattr(harness, "run_episode", child_fails)
    _golden("benchmark_tiny", tmp_path)
    assert forked.forks == 2 and forked.parent_tasks > 0


def test_child_dying_after_some_results_reruns_the_rest(tmp_path, forked, monkeypatch):
    """A child that sends results and then dies without a word (killed,
    say) loses only the tasks it had not sent."""
    parent = os.getpid()
    real_run_episode = harness.run_episode
    calls = []

    def dies_on_third(*args, **kwargs):
        if os.getpid() != parent:
            calls.append(1)
            if len(calls) == 3:
                os._exit(9)
        return real_run_episode(*args, **kwargs)

    monkeypatch.setattr(harness, "run_episode", dies_on_third)
    _golden("experiment_tiny", tmp_path)
    # each child sent two results before dying on its third task
    assert forked.forks == 2 and forked.parent_tasks == 8 - 2 * 2


def test_task_failing_everywhere_exits_one(forked, monkeypatch, capsys):
    def always_fails(*args, **kwargs):
        raise ScenarioError("no room for this episode")

    monkeypatch.setattr(harness, "run_episode", always_fails)
    code = cli_main(["benchmark", str(INPUTS / "tiny.bench"), "--seed", "5"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().out == "error: no room for this episode\n"
    assert forked.forks == 2


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
    monkeypatch.setattr(harness, "FORK_MIN_BUDGET", 10**9)
    assert rows == simulate_school(school, 3)
    assert forked.parent_tasks == 20_000


def _budget_tasks(horizon: int, iterations: int, masks: bool, count: int = 4) -> list:
    validated = validate(harness.make_classroom(3, 3, 3))
    settings = PlannerSettings(
        masks_available=masks,
        vaccines_available=False,
        rounds=1,
        horizon=horizon,
        uct_iterations=iterations,
    )
    return [(validated, settings, seed) for seed in range(count)]


def test_worker_count_rules(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    per_task = harness.FORK_MIN_BUDGET // 10  # one 10-step task reaches the constant
    big = _budget_tasks(10, per_task, True)
    assert harness._worker_count(big) == 3
    assert harness._worker_count(big[:2]) == 2  # at most one worker per task
    assert harness._worker_count(big[:1]) == 0
    # the budget is summed over the tasks with an intervention enabled
    assert harness._worker_count(_budget_tasks(10, per_task // 4, True)) == 3
    assert harness._worker_count(_budget_tasks(10, per_task // 4 - 1, True)) == 0
    assert harness._worker_count(_budget_tasks(10, 10**6, False)) == 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
    assert harness._worker_count(big) == 0


def test_no_fork_while_another_thread_runs(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    big = _budget_tasks(10, harness.FORK_MIN_BUDGET, True)
    assert harness._worker_count(big) == 2
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert harness._worker_count(big) == 0
    finally:
        release.set()
        thread.join()


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_no_fork_without_the_os_calls(missing, monkeypatch):
    big = _budget_tasks(10, harness.FORK_MIN_BUDGET, True)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(os, missing)
    assert harness._worker_count(big) == 0


def test_task_list_splits_runs_into_rounds():
    validated = validate(harness.make_classroom(3, 3, 3, PlannerSettings(rounds=3)))
    tasks = harness._variation_runs(validated, ((False, False), (True, True)), 9, "x", 2)
    assert len(tasks) == 2 * 2 * 3
    base = harness.stable_seed(9, "x", 1, 1)
    assert [seed for _, _, seed in tasks[9:]] == [base, base + 1, base + 2]
    assert {s.rounds for _, s, _ in tasks} == {1}
    assert tasks[-1][1] == replace(validated.planner, rounds=1)
