"""Independent pieces of work on every CPU: forked children and an ordered map.

A child is forked for one item by ``_spawn``: it inherits the item, and
everything else, by fork, and answers through its own pipe with one
protocol-5 pickle of its log records and its result or exception. A
writable array goes in-band as one raw buffer, which ``_receive`` reads
straight into the array it ends up in. ``_kill`` ends every child still
running. ``ordered_map`` is built on these three, and is the only way the
program forks. POSIX only.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import os
import pickle
import signal


def _spawn(fn, item, children) -> None:
    """Fork a child that runs ``fn(item)`` and answers; append its (pid, pipe) to ``children``.

    The child closes its copy of the pipe's read end, so once this process
    is gone its write fails and it exits. SIGINT and SIGTERM are blocked
    across the fork and stay blocked in the child; the child is recorded
    before they are unblocked, so a signal cannot orphan it.
    """
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT, signal.SIGTERM])
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
        if pid == 0:
            _answer(fn, item, read_fd, write_fd)
        children.append((pid, open(read_fd, "rb")))
    except BaseException:
        os.close(read_fd)
        raise
    finally:
        os.close(write_fd)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _answer(fn, item, read_fd, write_fd):
    """In a child: pickle (log records, ok, result or exception) to ``write_fd``; exit 0 or 255."""
    code = 255
    try:
        os.close(read_fd)
        records = []
        # Records that pass a logger's level and filters are kept, not handled here.
        logging.Logger.callHandlers = lambda logger, record: records.append(_detached(record))
        try:
            outcome = True, fn(item)
        except BaseException as exc:  # sent back: the parent raises every failure
            outcome = False, exc
        with open(write_fd, "wb") as out:
            pickle.dump((records, *outcome), out, protocol=5)
        code = 0
    finally:
        os._exit(code)


def _detached(record):
    """``record`` with its message formatted, so it pickles whatever its arguments are."""
    if record.exc_info:
        record.exc_text = logging.Formatter().formatException(record.exc_info)
    record.msg, record.args, record.exc_info = record.getMessage(), None, None
    return record


def _receive(children):
    """The first child's result: its records handled here, the child reaped, its exception raised.

    A child that dies without sending its whole answer raises OSError.
    """
    pid, pipe = children[0]
    try:
        records, ok, value = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):  # the stream ends, or is cut, early
        ok = None
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    del children[0]
    pipe.close()
    if code or ok is None:
        raise OSError(f"a worker process exited with status {code} before sending its result")
    for record in records:
        logging.getLogger(record.name).handle(record)
    if not ok:
        raise value
    return value


def _kill(children) -> None:
    """SIGKILL and reap every child in ``children``, close their pipes, and empty it."""
    for pid, _ in children:
        with contextlib.suppress(ProcessLookupError):  # reaped by an interrupted caller
            os.kill(pid, signal.SIGKILL)
    for pid, pipe in children:
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)
        pipe.close()
    children.clear()


def ordered_map(fn, items):
    """Yield ``fn(item)`` for each of ``items``, in item order, on every CPU.

    Items are drawn lazily, W = ``len(os.sched_getaffinity(0))`` at a time.
    Item i runs in this process when i % W == 0, and each of the W - 1 items
    after it in a child forked just before it: this process does the same
    share on every run, and with W = 1 nothing forks. A child's log records
    are handled here, in item order, just before its result is yielded; its
    exception is raised here with its type and message. A child that dies
    without sending its result raises OSError. On any error, and on
    ``close()``, every child is killed and reaped.
    """
    workers = len(os.sched_getaffinity(0))
    items = iter(items)
    children = []  # (pid, result pipe) of each child, in item order
    try:
        while batch := list(itertools.islice(items, workers)):
            for item in batch[1:]:
                _spawn(fn, item, children)
            yield fn(batch[0])
            while children:
                yield _receive(children)
    finally:
        _kill(children)
