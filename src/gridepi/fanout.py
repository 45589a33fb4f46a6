"""Run independent tasks on every CPU this process may run on.

:func:`fan_out` returns what the serial loop ``[run(*task) for task in
tasks]`` returns. When the batch's cost pays for it, the tasks run in
forked workers and each result crosses a pipe as the plain ``marshal``
data its caller's ``pack`` makes; the in-process path packs nothing.
The workers take the tasks longest first, by an expected cost the
caller computes from each task, so that no worker is left with one long
task while the others idle (Graham's LPT rule); the results come back
in task order whatever order they ran in. Any task without a worker
result runs in-process, in task order, so a failing task raises exactly
as on the serial path. This module knows no task type.
"""

from __future__ import annotations

import marshal
import os
import select
import signal
import threading
from typing import Callable, NoReturn

__all__ = ["FORK_MIN_BUDGET", "fan_out"]

# A batch whose summed cost is below this runs in-process: forking and
# reaping two workers costs about 5 ms. The unit is the caller's; the
# planner counts person-steps, so small_space's 2 rounds of 4 steps
# (16,000) fork, each round taking 40-70 ms in-process.
FORK_MIN_BUDGET = 10_000


def fan_out(
    run: Callable, tasks: list[tuple], cost: Callable, pack: Callable, unpack: Callable
) -> list:
    """``[run(*task) for task in tasks]``, in forked workers when
    :func:`_worker_count` allows for a batch of the summed ``cost(*task)``.

    The workers take the tasks in :func:`_dispatch_order` of those
    costs. A worker sends ``pack(run(*task))``, which must be
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
    run on, at most one per task; 0 (run in-process) without ``os.fork``
    or CPU affinity, with another thread running, with fewer than two
    workers, or below :data:`FORK_MIN_BUDGET`."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 0
    if threading.active_count() > 1 or budget < FORK_MIN_BUDGET:
        return 0
    workers = min(len(os.sched_getaffinity(0)), count)
    return workers if workers >= 2 else 0


def _fork_tasks(job: Callable, order: list[int], workers: int) -> dict[int, object]:
    """Run ``job(k)`` for every task index k in ``order`` in ``workers``
    forked children; return the results they sent, by task index.

    The children take 4-byte task indices from one shared pipe in
    ``order``, so a child that finishes early takes the next task; every
    write to that pipe is whole indices and atomic, so each 4-byte read
    is one index.
    Each child sends length-prefixed ``marshal`` frames of (index,
    result) over its own pipe, and the parent reads every pipe to EOF.
    Every child is reaped before this returns or raises."""
    owned: set[int] = set()  # descriptors this process has open
    children: list[int] = []
    results: dict[int, bytearray] = {}  # result pipe -> bytes read so far
    done = False
    try:
        task_r, task_w = os.pipe()
        owned |= {task_r, task_w}
        for _ in range(workers):
            out_r, out_w = os.pipe()
            owned |= {out_r, out_w}
            pid = os.fork()
            if pid == 0:
                _worker(job, task_r, out_w, owned - {task_r, out_w})
            children.append(pid)
            results[out_r] = bytearray()
            os.close(out_w)
            owned.discard(out_w)
        os.close(task_r)
        owned.discard(task_r)
        pending = b"".join(k.to_bytes(4, "little") for k in order)
        os.set_blocking(task_w, False)
        poller = select.poll()
        poller.register(task_w, select.POLLOUT)
        for fd in results:
            poller.register(fd, select.POLLIN)
        reading = len(results)
        while reading:
            for fd, _ in poller.poll():
                if fd != task_w:
                    chunk = os.read(fd, 1 << 16)
                    results[fd] += chunk
                    if not chunk:
                        poller.unregister(fd)
                        reading -= 1
                    continue
                try:
                    # at most PIPE_BUF bytes, so a write is all or nothing
                    pending = pending[os.write(task_w, pending[: select.PIPE_BUF]) :]
                except BlockingIOError:
                    continue
                except BrokenPipeError:  # every child has exited
                    pending = b""
                if not pending:
                    poller.unregister(task_w)
                    os.close(task_w)  # the children read EOF once it drains
                    owned.discard(task_w)
        done = True
    finally:
        for fd in owned:
            os.close(fd)
        for pid in children:
            if not done:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    found: dict[int, object] = {}
    for data in results.values():
        pos = 0
        while pos + 4 <= len(data):
            end = pos + 4 + int.from_bytes(data[pos : pos + 4], "little")
            if end > len(data):
                break  # a child died while writing; its task reruns in-process
            k, result = marshal.loads(data[pos + 4 : end])
            found[k] = result
            pos = end
    return found


def _worker(job: Callable, task_r: int, out_w: int, inherited: set[int]) -> NoReturn:
    """A forked child's whole life: run ``job`` on the task indices it
    reads from ``task_r`` and send each result over ``out_w`` until the
    task pipe is empty and closed. It never returns: the first task that
    raises ends it, without a traceback, and the parent runs that task
    again."""
    code = 1
    try:
        for fd in inherited:  # with task_w open here, the task pipe never ends
            os.close(fd)
        while record := os.read(task_r, 4):
            k = int.from_bytes(record, "little")
            frame = marshal.dumps((k, job(k)))
            frame = len(frame).to_bytes(4, "little") + frame
            while frame:
                frame = frame[os.write(out_w, frame) :]
        code = 0
    finally:
        os._exit(code)
