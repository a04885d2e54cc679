"""Process, timing and statistics helpers for the end-to-end benchmark.

Every set-up and every timed repetition runs in a child process.  The
benchmark process starts them (:data:`FRESH`) from a fork server that
has only imported this benchmark's modules, and through them ``repro``.
Each such child therefore starts as cold as a fresh ``repro run``: the
process-global memo caches (the token cache) are empty, and its peak
resident memory does not depend on what the benchmark process holds or
on which workloads ran before.  A batch workload's repetitions fork
(:data:`FORK`) from a child that did nothing but synthesize the corpus,
so they share it without synthesizing it again.

A child's function takes a connection to its parent first: it can send
messages up with :func:`send_up` and receive what the parent sends.  Its
return value travels back with the child's peak resident memory.
"""

from __future__ import annotations

import math
import multiprocessing
import multiprocessing.forkserver
import multiprocessing.resource_tracker
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from typing import Any, Callable

#: Children of the benchmark process: forked from a lean fork server.
FRESH = multiprocessing.get_context("forkserver")
FRESH.set_forkserver_preload(["workloads"])
#: Children of a child: forked from it, sharing what it holds.
FORK = multiprocessing.get_context("fork")

#: How long a parent waits for one message before killing the child:
#: only a hung child takes this long.
CHILD_TIMEOUT_S = 600.0


class ChildError(RuntimeError):
    """A child raised, died, or went silent."""


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _main(connection: Any, fn: Callable[..., Any], args: tuple) -> None:
    try:
        connection.send(("result", fn(connection, *args), _peak_rss_mb()))
    except BaseException:
        connection.send(("error", traceback.format_exc(), 0.0))
        raise
    finally:
        connection.close()


class Child:
    """``fn(connection, *args)`` running in a child process."""

    def __init__(self, fn: Callable[..., Any], *args: Any,
                 context: Any = FRESH) -> None:
        if context is FRESH:
            # The fork server is a new interpreter, and Python 3.11's
            # ignores this process's sys.path: without it the preload
            # fails silently and every child imports ``repro`` itself.
            os.environ["PYTHONPATH"] = os.pathsep.join(sys.path)
        self.connection, theirs = context.Pipe()
        self.process = context.Process(target=_main, args=(theirs, fn, args))
        self.process.start()
        theirs.close()

    def recv(self) -> Any:
        """The next message the child sent with :func:`send_up`."""
        kind, payload, _ = self._recv()
        if kind != "message":
            self.kill()
            raise ChildError(f"child {self.process.pid} ended early: "
                             f"{payload}")
        return payload

    def send(self, message: Any) -> None:
        self.connection.send(message)

    def finish(self) -> tuple[Any, float]:
        """Wait for the final result; returns ``(value, peak_rss_mb)``."""
        kind, payload, peak_mb = self._recv()
        self.process.join(CHILD_TIMEOUT_S)
        self.kill()
        if kind != "result":
            raise ChildError(f"child {self.process.pid} failed:\n{payload}")
        return payload, peak_mb

    def _recv(self) -> tuple[str, Any, float]:
        try:
            if self.connection.poll(CHILD_TIMEOUT_S):
                return self.connection.recv()
            problem = "went silent"
        except (EOFError, OSError):
            problem = "died"
        self.kill()
        raise ChildError(f"child {self.process.pid} {problem} "
                         f"(exit code {self.process.exitcode})")

    def kill(self) -> None:
        """Stop the child now if it still runs, and wait for it
        (idempotent)."""
        if self.process.exitcode is None:
            self.process.kill()
            self.process.join()
        self.connection.close()


def send_up(connection: Any, payload: Any) -> None:
    """From inside a child: send an intermediate message."""
    connection.send(("message", payload, 0.0))


def _plain(_connection: Any, fn: Callable[..., Any], *args: Any) -> Any:
    return fn(*args)


def run_in_child(fn: Callable[..., Any], *args: Any,
                 context: Any = FRESH) -> tuple[Any, float]:
    """``fn(*args)`` in a fresh child; ``(value, peak_rss_mb)``."""
    child = Child(_plain, fn, *args, context=context)
    try:
        return child.finish()
    finally:
        child.kill()


def stop_all() -> None:
    """Stop every child still running, then the fork server and the
    resource tracker it started, and wait for each to end."""
    for process in multiprocessing.active_children():
        process.kill()
        process.join()
    # Left alone, both only notice this process's exit, and nothing
    # waits for them to end.
    multiprocessing.forkserver._forkserver._stop()
    multiprocessing.resource_tracker._resource_tracker._stop()


# ----------------------------------------------------------------------
# The reference speed of the box.
# ----------------------------------------------------------------------

#: Seconds :func:`reference_s` takes on the measuring box at its usual
#: speed (2 vCPUs on a shared host, Python 3.11).
REFERENCE_S = 0.0075


def _reference_loop() -> None:
    counts: dict[int, int] = {}
    for number in range(60_000):
        key = number % 997
        counts[key] = counts.get(key, 0) + number
    sorted(str(number) for number in range(12_000))


def reference_s() -> float:
    """Seconds a fixed pure-Python loop takes now: the faster of two.

    The loop never calls into ``repro``, so no change to the program
    can move it; only the speed of the box does.
    """
    best = math.inf
    for _ in range(2):
        started = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - started)
    return best


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two :func:`reference_s` readings,
    scaled to what it takes when the box runs at its usual speed."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)


class Stopwatch:
    """Times the block it wraps, as the clock reads it (``wall_s``) and
    at the box's usual speed (``usual_s``).

    The box's speed can change every few seconds, so a reading before
    and after a long block cannot say how fast it ran in between.  A
    timer signal pauses the block every :attr:`LAP_S` for one more
    reading, and each stretch between two readings is scaled by their
    mean.  The readings' own time is left out of both sums.  Use it on
    the main thread, which is where signal handlers run.  With
    ``laps=False`` it reads only before and after the block: the pauses
    would land inside the spans of a traced block.
    """

    LAP_S = 0.25

    def __init__(self, laps: bool = True) -> None:
        self._lap_s = self.LAP_S if laps else 0.0

    def __enter__(self) -> "Stopwatch":
        self.wall_s = self.usual_s = 0.0
        self.readings = [reference_s()]
        self._previous = signal.signal(signal.SIGALRM, self._lap)
        self._since = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self._lap_s)
        return self

    def _lap(self, *_signal: Any) -> None:
        stretch = time.perf_counter() - self._since
        self.readings.append(reference_s())
        self.wall_s += stretch
        self.usual_s += at_reference_speed(stretch, *self.readings[-2:])
        self._since = time.perf_counter()
        # One-shot, re-armed after the reading: a slow reading cannot
        # let the next signal interrupt this handler.
        signal.setitimer(signal.ITIMER_REAL, self._lap_s)

    def __exit__(self, *exc_info: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._lap()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def reading(self) -> tuple[float, float]:
        return self.wall_s, self.usual_s


# ----------------------------------------------------------------------
# Statistics.
# ----------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
