"""Run a sweep from a chosen caller context.

The sweep entry points (``ProfilingExecutor.run``, ``build_feature_matrix``)
must give the same result whoever calls them: the test's own main thread,
a background thread (as an embedding application or an HTTP handler
would — the tracer keeps a per-thread span stack), or a child process
that then starts its own worker pool.  :func:`call_from` runs a
zero-argument callable in one of those contexts and hands back its
return value, re-raising any failure in the caller.

It is a plain helper module (no ``test_`` prefix), imported by the
suites.
"""

from __future__ import annotations

import multiprocessing
import threading
import traceback
from typing import Callable, TypeVar

T = TypeVar("T")

#: ``serial`` calls inline on the test's main thread; ``thread`` from a
#: background thread; ``process`` from a forked child process.
CALLERS = ("serial", "thread", "process")

#: Upper bound on one launched call, so a wedged caller fails the test
#: instead of hanging the suite.
TIMEOUT_S = 300.0


def call_from(caller: str, fn: Callable[[], T]) -> T:
    """Return ``fn()``, called from the context named by ``caller``."""
    if caller == "serial":
        return fn()
    if caller == "thread":
        return _call_from_thread(fn)
    if caller == "process":
        return _call_from_child_process(fn)
    raise ValueError(f"unknown caller {caller!r}; expected one of {CALLERS}")


def _call_from_thread(fn: Callable[[], T]) -> T:
    box: dict = {}

    def target() -> None:
        try:
            box["value"] = fn()
        except BaseException as error:  # re-raised on the test thread
            box["error"] = error

    thread = threading.Thread(target=target, name="sweep-caller")
    thread.start()
    thread.join(TIMEOUT_S)
    if thread.is_alive():
        raise TimeoutError(f"caller thread still running after {TIMEOUT_S}s")
    if "error" in box:
        raise box["error"]
    return box["value"]


def _call_from_child_process(fn: Callable[[], T]) -> T:
    # Fork, so ``fn`` may be any closure; the child reports back over a
    # pipe and exits without running the parent's atexit hooks.
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)

    def target() -> None:
        try:
            sender.send(("value", fn()))
        except BaseException:
            sender.send(("error", traceback.format_exc()))

    child = context.Process(target=target, name="sweep-caller")
    child.start()
    sender.close()
    try:
        if not receiver.poll(TIMEOUT_S):
            raise TimeoutError(f"caller process silent after {TIMEOUT_S}s")
        kind, value = receiver.recv()
    finally:
        child.join(TIMEOUT_S)
        if child.is_alive():
            child.kill()
            child.join()
        receiver.close()
    if kind == "error":
        raise AssertionError(f"sweep failed in the caller process:\n{value}")
    return value
