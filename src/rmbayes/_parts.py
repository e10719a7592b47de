"""The parts of a text that ``rmbayes parse`` renders, each after the first in a
forked child. A text of one part, the usual case, is rendered in the process and
forks nothing.
"""

from __future__ import annotations

import os


def _fork_part(render, *args) -> tuple[int, int] | None:
    """A forked child that sends the bytes ``render(*args)`` up a pipe and exits:
    its pid and the pipe's read end, or None if no pipe or process could be made."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    # fork, not spawn: no other Python thread runs here (cli._part_count) and the
    # child runs pure Python only, while a spawned child would pay a fresh interpreter
    # with the CLI's imports, ~0.1 s of a ~0.45 s run, and need the text sent to it
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


def in_parts(batches, bounds: list[int], sep: str):
    """The batches of each part of the text between ``bounds``, in order, where
    ``batches(start, end)`` renders a part. The first part is rendered here, batch
    by batch, while a forked child renders each later one whole, joined by ``sep``;
    a part whose child fails is rendered here too, so its error, if real, is raised
    here. Close the generator on every way out: that kills and reaps the children."""
    def whole(start: int, end: int) -> bytes:  # encoded a batch at a time: one copy less
        return sep.encode().join(batch.encode() for batch in batches(start, end))

    children = {}  # part -> (pid, read fd) of its child, until reaped
    try:
        for part in range(1, len(bounds) - 1):
            child = _fork_part(whole, bounds[part], bounds[part + 1])
            if child is not None:
                children[part] = child
        for part in range(len(bounds) - 1):
            rendered = None
            if part in children:
                pid, fd = children[part]
                with open(fd, "rb", closefd=False) as pipe:
                    data = pipe.read()
                status = os.waitpid(pid, 0)[1]
                del children[part]
                os.close(fd)
                if status == 0:
                    rendered = [data.decode()] if data else []
                del data  # keep the decoded copy only: this is the parent's peak
            yield from batches(bounds[part], bounds[part + 1]) if rendered is None else rendered
    finally:  # on any way out: a closed pipe, a full disk, an interrupt, an error
        for pid, fd in children.values():
            from signal import SIGKILL  # here, as a text of one part forks no child
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
