"""Run independent tasks on every CPU this process may run on.

:func:`fan_out` returns what the serial loop ``[run(*task) for task in
tasks]`` returns. When the batch's cost pays for it, the tasks run in
forked workers. Each worker appends its results, as the plain
``marshal`` data its caller's ``pack`` makes, to its own in-memory file,
which this process reads once the workers have exited; the in-process
path packs nothing. The workers take the tasks longest first, by an
expected cost the caller computes from each task, so that no worker is
left with one long task while the others idle (Graham's LPT rule); the
results come back in task order whatever order they ran in. Any task
without a worker result runs in-process, in task order, so a failing
task raises exactly as on the serial path. This module knows no task
type.
"""

from __future__ import annotations

import marshal
import os
import signal
import threading
from typing import Callable, NoReturn

__all__ = ["FORK_MIN_BUDGET", "fan_out"]

# A batch whose summed cost is below this runs in-process: forking and
# reaping two workers costs about 5 ms. The unit is the caller's; the
# planner counts person-steps. small_space's 2 rounds of 4 steps (16,000)
# fork, which pays only where two CPUs are free: on a shared 2-vCPU host
# that lent about one, that batch took a median 120.6 ms forked against
# 91.2 ms in-process. The threshold stays below it all the same: the
# CI's one-CPU against every-CPU check relies on that batch forking.
FORK_MIN_BUDGET = 10_000


def fan_out(
    run: Callable, tasks: list[tuple], cost: Callable, pack: Callable, unpack: Callable
) -> list:
    """``[run(*task) for task in tasks]``, in forked workers when
    :func:`_worker_count` allows for a batch of the summed ``cost(*task)``.

    The workers take the tasks in :func:`_dispatch_order` of those
    costs. A worker writes ``pack(run(*task))``, which must be
    ``marshal``-able, and this process returns ``unpack`` of it. The
    caller's ``unpack`` names its own classes; a pickled result would
    name them by import path, which no longer leads to them once the
    package has been imported afresh, as a benchmark's set-up does."""
    costs = [cost(*task) for task in tasks]
    found: dict[int, object] = {}
    workers = _worker_count(len(tasks), sum(costs))
    if workers:
        try:
            found = _fork_tasks(lambda k: pack(run(*tasks[k])), _dispatch_order(costs), workers)
        except OSError:
            pass  # every task runs in-process
    return [unpack(found[k]) if k in found else run(*task) for k, task in enumerate(tasks)]


def _dispatch_order(costs: list) -> list[int]:
    """Task indices by descending cost; equal costs keep task order."""
    return sorted(range(len(costs)), key=lambda k: -costs[k])


def _worker_count(count: int, budget: int) -> int:
    """Workers to fork for ``count`` tasks: one per CPU this process may
    run on, at most one per task; 0 (run in-process) without ``os.fork``,
    CPU affinity or ``os.memfd_create``, with another thread running, with
    fewer than two workers, or below :data:`FORK_MIN_BUDGET`."""
    if not all(hasattr(os, call) for call in ("fork", "sched_getaffinity", "memfd_create")):
        return 0
    if threading.active_count() > 1 or budget < FORK_MIN_BUDGET:
        return 0
    workers = min(len(os.sched_getaffinity(0)), count)
    return workers if workers >= 2 else 0


def _fork_tasks(job: Callable, order: list[int], workers: int) -> dict[int, object]:
    """Run ``job(k)`` for every task index k in ``order`` in ``workers``
    forked children; return the results they wrote, by task index.

    The children take 4-byte task indices from one shared pipe in
    ``order``, so a child that finishes early takes the next task. This
    process writes one index per blocking write, so each write is atomic
    and each 4-byte read is one index; it then closes the pipe and reaps
    the children. Each child appends length-prefixed ``marshal`` frames
    of (index, result) to its own in-memory file, which never waits on
    this process, and this process reads every file once the children
    are gone. A child's copies of the other files change nothing, so the
    one descriptor it must close is its copy of the pipe's write end.
    Every child is reaped before this returns or raises."""
    owned: set[int] = set()  # descriptors this process has open
    children: list[int] = []  # forked and not yet reaped
    outs: list[int] = []  # one result file per child
    try:
        task_r, task_w = os.pipe()
        owned |= {task_r, task_w}
        for _ in range(workers):
            out = os.memfd_create("gridepi-fanout")
            owned.add(out)
            outs.append(out)
            pid = os.fork()
            if pid == 0:
                _worker(job, task_r, task_w, out)
            children.append(pid)
        os.close(task_r)
        owned.discard(task_r)
        try:
            for k in order:
                os.write(task_w, k.to_bytes(4, "little"))
        except BrokenPipeError:
            pass  # every child has exited; the rest run in-process
        os.close(task_w)  # the children read EOF once the pipe drains
        owned.discard(task_w)
        while children:
            os.waitpid(children[-1], 0)  # an interrupt here leaves it to the finally
            children.pop()
        files = [os.pread(out, os.fstat(out).st_size, 0) for out in outs]
    finally:
        for fd in owned:
            os.close(fd)
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    found: dict[int, object] = {}
    for data in files:
        pos = 0
        while pos + 4 <= len(data):
            end = pos + 4 + int.from_bytes(data[pos : pos + 4], "little")
            if end > len(data):
                break  # a child died while writing; its task reruns in-process
            k, result = marshal.loads(data[pos + 4 : end])
            found[k] = result
            pos = end
    return found


def _worker(job: Callable, task_r: int, task_w: int, out: int) -> NoReturn:
    """A forked child's whole life: close its copy of the pipe's write
    end ``task_w``, without which the pipe would never end, then run
    ``job`` on the task indices it reads from ``task_r`` and append each
    result to the in-memory file ``out`` until the task pipe is empty and
    closed. It never returns: the first task that raises ends it, without
    a traceback, and the parent runs that task again."""
    code = 1
    try:
        os.close(task_w)
        while record := os.read(task_r, 4):
            k = int.from_bytes(record, "little")
            frame = marshal.dumps((k, job(k)))
            frame = len(frame).to_bytes(4, "little") + frame
            while frame:
                frame = frame[os.write(out, frame) :]
        code = 0
    finally:
        os._exit(code)
