"""Reusable fault injector for the stream engine's durability protocol.

Simulates hard crashes (power loss, SIGKILL) at durability boundaries
by counting the process's ``os.fsync`` / ``os.replace`` calls and
raising :class:`CrashPoint` *in place of* the N-th one — the write
behind that fsync never becomes durable, the rename never happens, and
no ``finally`` cleanup that itself needs the faulted call can hide the
damage. The stream engine resolves both functions through the ``os``
module at call time, so patching the module attributes reaches every
journal append and checkpoint rename in the process.
``tests/test_stream_recovery.py`` sweeps every such call of a run.

Deliberately pytest-free, so a plain script can import it too.

Usage::

    injector = FaultInjector(crash_at=7, kind="fsync")
    with injector.armed():
        try:
            run_workload()
        except CrashPoint:
            ...   # the simulated crash; state dir is now "as killed"
    total = count_fault_points(run_workload, kind="fsync")
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

__all__ = [
    "CrashPoint",
    "FaultInjector",
    "count_fault_points",
]


class CrashPoint(BaseException):
    """A simulated hard crash at a durability boundary.

    Derives from ``BaseException`` so ordinary ``except Exception``
    error handling in the code under test cannot swallow the "kill"
    and keep running past it.
    """


class FaultInjector:
    """Counts fsync/replace calls and crashes in place of the N-th.

    *crash_at* is 1-based; ``crash_at=None`` never crashes (count-only
    mode). *kind* selects the patched call: ``"fsync"`` covers every
    journal append and the checkpoint flush, ``"replace"`` the atomic
    checkpoint publish.
    """

    def __init__(
        self, crash_at: "int | None" = None, kind: str = "fsync"
    ) -> None:
        if kind not in ("fsync", "replace"):
            raise ValueError(f"kind must be fsync or replace, got {kind!r}")
        if crash_at is not None and crash_at < 1:
            raise ValueError(f"crash_at is 1-based, got {crash_at}")
        self.kind = kind
        self.crash_at = crash_at
        self.calls = 0

    def _wrap(self, real: Callable[..., Any]) -> Callable[..., Any]:
        def faulted(*args: Any, **kwargs: Any) -> Any:
            self.calls += 1
            if self.crash_at is not None and self.calls == self.crash_at:
                raise CrashPoint(
                    f"simulated crash in place of {self.kind} "
                    f"call #{self.calls}"
                )
            return real(*args, **kwargs)

        return faulted

    @contextmanager
    def armed(self) -> Iterator["FaultInjector"]:
        """Patch ``os.<kind>`` for the duration of the block."""
        real = getattr(os, self.kind)
        setattr(os, self.kind, self._wrap(real))
        try:
            yield self
        finally:
            setattr(os, self.kind, real)


def count_fault_points(
    workload: Callable[[], Any], kind: str = "fsync"
) -> int:
    """How many *kind* calls a full run of *workload* performs.

    The chaos sweeps use this as the dry run: every integer in
    ``[1, count]`` is then a distinct crash point to inject.
    """
    injector = FaultInjector(crash_at=None, kind=kind)
    with injector.armed():
        workload()
    return injector.calls
