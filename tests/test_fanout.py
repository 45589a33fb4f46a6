"""The forked fan-out of rounds: same bytes and values as the serial
path, no child left behind, and every failure ends as the serial path
ends, for the harness's batches and for :func:`run_episode` alike.

The ``forked`` fixture makes every batch of two or more rounds fork two
workers, whatever the host: it reports two usable CPUs and drops the
small-batch rule. Each test that uses it also checks whether it forked,
how many rounds the parent ran itself, and that no child process
outlives it.
"""

from __future__ import annotations

import os
import signal
import threading
from dataclasses import replace

import pytest

from gridepi import fanout, harness, planner
from gridepi.assets import asset_path
from gridepi.cli import EXIT_USAGE, cli_main
from gridepi.harness import SchoolBenchmarkSpec, simulate_school
from gridepi.planner import run_episode
from gridepi.scenario import PlannerSettings, ScenarioError, load_scenario, validate
from test_golden import CASES, GOLDEN, INPUTS, run_case

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


@pytest.mark.parametrize("call", ["fork", "pipe"])
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
    """Equal with ``==`` and with ``repr``: the final states' occupancy
    dicts hold the same tiles in the same order."""
    assert episodes == serial
    assert repr(episodes) == repr(serial)
    assert [list(e.final_state.occupancy) for e in episodes] == [
        list(e.final_state.occupancy) for e in serial
    ]


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


@pytest.mark.parametrize("call", ["fork", "pipe"])
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


# ---------------------------------------------------------------------------
# Worker count and the search budget
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
    return fanout._worker_count(len(tasks), planner._search_budget(tasks))


def test_worker_count_rules(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    per_task = fanout.FORK_MIN_BUDGET // 10  # one 10-step task reaches the constant
    big = _budget_tasks(10, per_task, True)
    assert _workers(big) == 3
    assert _workers(big[:2]) == 2  # at most one worker per task
    assert _workers(big[:1]) == 0
    # the budget is summed over the planner tasks with an intervention enabled
    assert _workers(_budget_tasks(10, per_task // 4, True)) == 3
    assert _workers(_budget_tasks(10, per_task // 4 - 1, True)) == 0
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


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_no_fork_without_the_os_calls(missing, monkeypatch):
    big = _budget_tasks(10, fanout.FORK_MIN_BUDGET, True)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(os, missing)
    assert _workers(big) == 0


def test_task_list_splits_runs_into_rounds():
    validated = validate(harness.make_classroom(3, 3, 3, PlannerSettings(rounds=3)))
    tasks = harness._variation_runs(validated, ((False, False), (True, True)), 9, "x", 2)
    assert len(tasks) == 2 * 2 * 3
    base = harness.stable_seed(9, "x", 1, 1)
    assert [seed for _, _, _, seed in tasks[9:]] == [base, base + 1, base + 2]
    assert {s.rounds for _, s, _, _ in tasks} == {1}
    assert {policy for _, _, policy, _ in tasks} == {"planner"}
    assert tasks[-1][1] == replace(validated.planner, rounds=1)
