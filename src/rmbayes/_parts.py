"""The one fork map, and the one place that decides how many processes run: the
batches of a range cut into parts, each after the first rendered in a forked child,
for ``parse``'s text and ``run_grid``'s cells. A range of one part, the usual case,
is rendered in the process and forks nothing.
"""

from __future__ import annotations

import os
import sys


def _fork_part(render, *args) -> tuple[int, int] | None:
    """A forked child that sends the bytes ``render(*args)`` up a pipe and exits: its
    pid and the pipe's read end, or None if the pipe or the fork failed."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(render(*args))
            status = 0
        finally:  # never back into the caller, whose stdout and exit are the parent's
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def in_parts(batches, size: int, parts: int):
    """The batches of ``range(size)`` cut evenly into at most ``parts`` parts, in order,
    where ``batches(start, end)`` yields a part's picklable batches: at most one part
    per item and per usable CPU (``os.sched_getaffinity``, else ``os.cpu_count()``),
    and one alone where forking is unsafe. A forked child renders each part after the
    first whole, as one pickled list; the first part, and any whose pipe, fork or child
    failed, is rendered here, so its error, if real, is raised here. Close the
    generator on every way out: that kills and reaps the children."""
    def whole(start: int, end: int) -> bytes:
        return pickle.dumps(list(batches(start, end)))

    # fork, not spawn, and only with no other Python thread running: the child runs
    # pure Python and numpy's own loops, while a spawned child would pay a fresh
    # interpreter with the CLI's imports, ~0.1 s of a ~0.45 s run, and need its input
    threading = sys.modules.get("threading")  # a thread can only run if this is loaded
    forkable = hasattr(os, "fork") and (threading is None or threading.active_count() == 1)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    parts = max(1, min(parts, size, cpus or 1)) if forkable else 1
    bounds = [size * part // parts for part in range(parts + 1)]
    if parts > 1:  # here, as a range of one part forks no child
        import pickle
    children = {}  # part -> (pid, read fd) of its child, until reaped
    try:
        for part in range(1, parts):
            child = _fork_part(whole, bounds[part], bounds[part + 1])
            if child is not None:
                children[part] = child
        for part in range(parts):
            rendered = None
            if part in children:
                pid, fd = children[part]
                with open(fd, "rb", closefd=False) as pipe:
                    data = pipe.read()
                status = os.waitpid(pid, 0)[1]
                del children[part]
                os.close(fd)
                if status == 0:
                    rendered = pickle.loads(data)
                del data  # keep the loaded copy only: this is the parent's peak
            yield from batches(bounds[part], bounds[part + 1]) if rendered is None else rendered
    finally:  # on any way out: a closed pipe, a full disk, an interrupt, an error
        for pid, fd in children.values():
            from signal import SIGKILL  # here, as a range of one part forks no child
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
