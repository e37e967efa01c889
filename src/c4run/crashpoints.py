"""Crash-point injection hooks for durability testing.

Write paths call :func:`crash_if` at named points. Normally these are
no-ops; the crash harness arms a point in-process via :func:`armed`, and
the next time execution reaches it an :class:`InjectedCrash` is raised.

:data:`CRASH_POINTS` is the one list of points: every ``crash_if`` name,
mapped to the outcome the crash campaign expects after recovery. The
campaign walks it in full, and :func:`armed` refuses a name missing from
it, so a point cannot exist untested and a typo cannot arm nothing.

InjectedCrash derives from BaseException so no ``except Exception`` handler
on the write path can accidentally swallow it; combined with ``with``-scoped
file locks, an injected crash leaves exactly the on-disk state a killed
process would have left.
"""

from __future__ import annotations

from contextlib import contextmanager

#: Every crash point -> expected outcome after recovery:
#: "absent"           a crashed create reads as absent; a retry rebuilds it
#: "deleted"          a crashed delete reads as absent; a repeat removes the tree
#: "unchanged"        a crashed record update (a kill on a Prepared instance)
#:                    leaves the record and its version as they were; start
#:                    then settles it Stopped with exit code 0 and refuses,
#:                    and a repeated kill reads the same
#: "completed"        the request completes with exactly one execution
#: "failed_ambiguous" the request fails safely and is never re-executed
CRASH_POINTS: dict[str, str] = {
    "create:post-root": "absent",
    "create:post-dirs": "absent",
    "create:post-bundle": "absent",
    "create:post-session": "absent",
    "create:pre-marker": "absent",
    "delete:post-marker": "deleted",
    "claim:post-rename": "completed",
    "accept:pre-commit": "completed",
    "accept:post-commit": "completed",
    "execute:post-marker": "failed_ambiguous",
    "update:pre-write": "unchanged",
    "execute:pre-prepare": "failed_ambiguous",
    "execute:pre-backend": "failed_ambiguous",
    "finalize:pre-meta": "failed_ambiguous",
    "finalize:post-log": "failed_ambiguous",
    "finalize:post-meta": "completed",
    "response:pre-write": "completed",
    "response:post-write": "completed",
}

_armed: set[str] = set()


class InjectedCrash(BaseException):
    """Raised when execution reaches an armed crash point."""

    def __init__(self, point: str) -> None:
        super().__init__(f"injected crash at {point!r}")
        self.point = point


def crash_if(point: str) -> None:
    if point in _armed:
        raise InjectedCrash(point)


@contextmanager
def armed(point: str):
    """Arm one registered crash point for the duration of the context."""
    if point not in CRASH_POINTS:
        raise ValueError(f"unknown crash point {point!r}")
    _armed.add(point)
    try:
        yield
    finally:
        _armed.discard(point)
