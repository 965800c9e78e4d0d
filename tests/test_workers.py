"""The forked, ordered map that trains stacks and fits chunks of trials on every CPU."""

import itertools
import logging
import os
import pickle
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import refsel
from refsel.exceptions import ComponentError, NumericError, ParseError
from refsel.workers import ordered_map

SRC = str(Path(refsel.__file__).parents[1])


@pytest.fixture
def cpus(monkeypatch):
    def patch(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return patch


def no_process_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_results_come_in_item_order_and_every_wth_item_runs_here(cpus):
    cpus(3)
    parent = os.getpid()
    results = list(ordered_map(lambda i: (i, os.getpid()), range(10)))
    assert [i for i, _ in results] == list(range(10))
    assert [pid == parent for _, pid in results] == [i % 3 == 0 for i in range(10)]
    assert len({pid for _, pid in results}) == 1 + 6  # every child item has its own process
    no_process_left()


def test_one_cpu_forks_nothing(cpus, monkeypatch):
    cpus(1)

    def no_fork():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    assert list(ordered_map(lambda i: i * i, range(5))) == [0, 1, 4, 9, 16]


def test_items_are_drawn_one_round_at_a_time(cpus):
    cpus(3)
    drawn = []

    def items():
        for i in itertools.count():
            drawn.append(i)
            yield i

    results = ordered_map(lambda i: i, items())
    assert list(itertools.islice(results, 4)) == [0, 1, 2, 3]
    results.close()
    assert drawn == list(range(6))
    no_process_left()


def test_arrays_arrive_whole_and_writable(cpus):
    cpus(2)

    def block(i):
        return {"q": np.arange(300_000, dtype=np.float64).reshape(1000, 300) * i,
                "labels": np.repeat([1, 0], 500), "tail": np.asfortranarray(np.eye(3) * i)}

    for i, got in enumerate(ordered_map(block, range(4))):
        want = block(i)
        for key in want:
            assert got[key].dtype == want[key].dtype and np.array_equal(got[key], want[key])
        assert got["q"].flags.c_contiguous and got["q"].flags.writeable
        assert got["tail"].flags.f_contiguous


def test_child_log_records_are_handled_here_in_item_order(cpus, caplog):
    cpus(4)
    logger = logging.getLogger("refsel.test_workers")

    def work(i):
        logger.info("item %d of %s", i, "ten")
        logger.debug("hidden %d", i)
        return i

    with caplog.at_level("INFO", logger="refsel.test_workers"):
        assert list(ordered_map(work, range(10))) == list(range(10))
    assert [r.getMessage() for r in caplog.records] == [f"item {i} of ten" for i in range(10)]


@pytest.mark.parametrize("error", [
    ComponentError(6, NumericError("non-finite reconstruction errors")),
    ParseError("bad cell", line=3),
    MemoryError("cannot allocate"),
    KeyboardInterrupt(),
], ids=lambda e: type(e).__name__)
def test_a_childs_exception_is_raised_here(cpus, error):
    cpus(4)

    def work(i):
        if i == 5:  # a child's item, in the second round
            raise error
        time.sleep(0.05 * (i % 4))
        return i

    results = ordered_map(work, range(8))
    assert list(itertools.islice(results, 5)) == [0, 1, 2, 3, 4]
    with pytest.raises(type(error)) as info:
        next(results)
    assert str(info.value) == str(error)
    if isinstance(error, ComponentError):
        assert info.value.exit_code == 3 and info.value.component_index == 6
        assert isinstance(info.value.__cause__, NumericError)
    no_process_left()


def test_a_child_that_dies_raises_os_error(cpus):
    cpus(2)

    def work(i):
        if i == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    with pytest.raises(OSError, match="exited with status -9 before sending its result"):
        list(ordered_map(work, range(4)))
    no_process_left()


def test_a_child_killed_while_sending_raises_os_error(cpus):
    # The child dies with its 1 MiB array part sent: the stream is cut inside the array.
    cpus(2)
    read_fd, write_fd = os.pipe()

    def work(i):
        if i:  # in the child
            os.write(write_fd, str(os.getpid()).encode())
            return np.ones(1 << 17)
        child = int(os.read(read_fd, 32))
        time.sleep(0.5)  # the child's result fills its pipe; it waits for this process to read
        os.kill(child, signal.SIGKILL)

    try:
        with pytest.raises(OSError, match="exited with status -9 before sending its result"):
            list(ordered_map(work, range(2)))
    finally:
        os.close(read_fd)
        os.close(write_fd)
    no_process_left()


def test_a_childs_array_is_read_straight_into_its_buffer(cpus):
    cpus(2)
    size = 8 << 20
    results = ordered_map(lambda i: np.ones(size // 8) if i else None, range(2))
    assert next(results) is None
    tracemalloc.start()
    try:
        received = next(results)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert received.nbytes == size and received.flags.writeable
    assert peak < 1.25 * size, peak
    no_process_left()


def gone(pid) -> bool:
    """Whether process ``pid`` has exited (a zombie left unreaped by its new parent counts)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def test_a_child_whose_parent_dies_exits(tmp_path):
    # The child's result outgrows the pipe; once its parent is killed, its write must fail.
    pid_file = tmp_path / "child.pid"
    script = f"""
import os, time
import numpy as np
from refsel.workers import ordered_map
os.sched_getaffinity = lambda pid: {{0, 1}}

def work(i):
    if i == 0:
        time.sleep(60)
    with open({str(pid_file)!r} + ".tmp", "w") as out:
        out.write(str(os.getpid()))
    os.replace({str(pid_file)!r} + ".tmp", {str(pid_file)!r})
    return np.ones(1 << 18)

list(ordered_map(work, range(2)))
"""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    parent = subprocess.Popen([sys.executable, "-c", script], env=env)
    try:
        deadline = time.monotonic() + 60
        while not pid_file.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
    finally:
        parent.kill()
        parent.wait()
    child = int(pid_file.read_text())
    deadline = time.monotonic() + 10
    while not gone(child) and time.monotonic() < deadline:
        time.sleep(0.05)
    try:
        assert gone(child), "the orphaned child is still running"
    finally:
        if not gone(child):
            os.kill(child, signal.SIGKILL)
    no_process_left()


def test_unpicklable_result_raises_os_error(cpus):
    cpus(2)
    with pytest.raises(OSError, match="exited with status 255"):
        list(ordered_map(lambda i: (lambda: i), range(2)))
    no_process_left()


def test_sigint_stays_blocked_in_children(cpus):
    # Ctrl-C reaches every process of the foreground group; only this one acts on it.
    cpus(3)
    parent = os.getpid()

    def work(i):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGINT)
        return i

    try:
        assert list(ordered_map(work, range(6))) == list(range(6))
    except KeyboardInterrupt:
        pytest.fail("a child acted on SIGINT")


def test_close_kills_the_running_children(cpus):
    cpus(4)

    def work(i):
        if i:
            time.sleep(60)
        return i

    results = ordered_map(work, range(4))
    start = time.monotonic()
    assert next(results) == 0
    results.close()
    assert time.monotonic() - start < 30
    no_process_left()


def test_component_error_survives_pickling():
    error = pickle.loads(pickle.dumps(ComponentError(2, NumericError("x"))))
    assert type(error) is ComponentError and str(error) == "component 2: x"
    assert error.component_index == 2 and error.exit_code == 3
    assert type(error.__cause__) is NumericError and str(error.__cause__) == "x"
