"""Independent pieces of work on every CPU: one forked, ordered map.

``ordered_map`` runs a function over items in rounds of W, the CPU count of
the process's affinity mask (``taskset`` restricts it): a round's first item
runs in this process, each of the others in a child forked for it. A child
inherits its item, and everything else, by fork; only its result, or its
exception, and its log records come back, pickled with protocol 5, so that
arrays travel as raw bytes read straight into the buffers they end up in.
``fork``, ``reap`` and ``kill`` are the process primitives; ``export_q_csv``
uses them for its formatting children too. POSIX only.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import logging
import os
import pickle
import signal
import struct


def fork(child, running) -> None:
    """Run ``child()`` in a forked process that exits with the int it returns.

    The process exits 255 if ``child`` raises, and never returns into the
    caller's stack. Its pid is appended to ``running``. SIGINT is blocked
    across the fork and stays blocked in the child, so Ctrl-C reaches only
    this process, which kills its children; the pid is recorded before
    SIGINT is unblocked, so an interrupt cannot orphan the child.
    """
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
    try:
        pid = os.fork()
        if pid == 0:
            code = 255
            try:
                code = child()
            finally:
                os._exit(code)
        running.append(pid)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def reap(pid) -> int:
    """Wait for child ``pid``: its exit code, or minus the signal that killed it."""
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def kill(running) -> None:
    """SIGKILL and reap every child in ``running``, and empty it."""
    for pid in running:
        with contextlib.suppress(ProcessLookupError):  # reaped by an interrupted caller
            os.kill(pid, signal.SIGKILL)
    for pid in running:
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)
    running.clear()


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
    running, readers = [], []  # pid and result pipe of each child, in item order
    try:
        while batch := list(itertools.islice(items, workers)):
            for item in batch[1:]:
                read_fd, write_fd = os.pipe()
                readers.append(open(read_fd, "rb"))
                try:
                    fork(functools.partial(_send, fn, item, write_fd), running)
                finally:
                    os.close(write_fd)
            yield fn(batch[0])
            while readers:
                yield _receive(readers[0], running)
                readers.pop(0).close()
    finally:
        kill(running)
        for reader in readers:
            reader.close()


def _send(fn, item, write_fd) -> int:
    """In a child: run ``fn(item)`` and write its outcome and log records to ``write_fd``."""
    records = []
    # Records that pass a logger's level and filters are kept, not handled here.
    logging.Logger.callHandlers = lambda logger, record: records.append(_detached(record))
    try:
        outcome = True, fn(item)
    except BaseException as exc:  # sent back: the parent raises every failure
        outcome = False, exc
    buffers = []
    payload = pickle.dumps((records, *outcome), protocol=5, buffer_callback=buffers.append)
    views = [buffer.raw() for buffer in buffers]
    with open(write_fd, "wb") as out:
        out.write(struct.pack(f"<QQ{len(views)}Q", len(payload), len(views),
                              *(view.nbytes for view in views)))
        out.write(payload)
        for view in views:
            out.write(view)
    return 0


def _detached(record):
    """``record`` with its message formatted, so it pickles whatever its arguments are."""
    if record.exc_info:
        record.exc_text = logging.Formatter().formatException(record.exc_info)
    record.msg, record.args, record.exc_info = record.getMessage(), None, None
    return record


def _receive(reader, running):
    """The oldest child's result: read from ``reader``, its records handled, the child reaped."""
    try:
        size, count = struct.unpack("<QQ", _read(reader, 16))
        lengths = struct.unpack(f"<{count}Q", _read(reader, 8 * count))
        payload = _read(reader, size)
        buffers = [_read(reader, length) for length in lengths]
    except EOFError:
        payload = None
    code = reap(running[0])
    del running[0]
    if code or payload is None:
        raise OSError(f"a worker process exited with status {code} before sending its result")
    records, ok, value = pickle.loads(payload, buffers=buffers)
    for record in records:
        logging.getLogger(record.name).handle(record)
    if not ok:
        raise value
    return value


def _read(reader, size) -> bytearray:
    """Exactly ``size`` bytes from ``reader``, into one new buffer; EOFError if it ends first."""
    data = bytearray(size)
    view, filled = memoryview(data), 0
    while filled < size:
        n = reader.readinto(view[filled:])
        if not n:
            raise EOFError
        filled += n
    return data
