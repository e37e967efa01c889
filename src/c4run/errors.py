"""Exception taxonomy shared by every runtime layer.

Each error class maps to one CLI exit code so entrypoint behavior stays
testable: 0 success, 1 usage, 2 not-found, 3 illegal-state, 4 timeout,
5 internal.
"""

EXIT_USAGE = 1
EXIT_NOT_FOUND = 2
EXIT_ILLEGAL_STATE = 3
EXIT_TIMEOUT = 4
EXIT_INTERNAL = 5


class C4Error(Exception):
    """Base class for runtime errors; carries the CLI exit code."""

    exit_code = EXIT_INTERNAL


class InternalError(C4Error):
    """Unexpected runtime failure (anchor spawn, supervisor loss)."""


class UsageError(C4Error):
    """Bad arguments or an invalid bundle."""

    exit_code = EXIT_USAGE


class NotFoundError(C4Error):
    """No persistent record exists for the instance (it is in the initial state)."""

    exit_code = EXIT_NOT_FOUND


class IllegalStateError(C4Error):
    """The operation is not legal from the instance's current state."""

    exit_code = EXIT_ILLEGAL_STATE


class TransitionError(IllegalStateError):
    """A requested state edge is outside the legal transition DAG."""


class WaitTimeout(C4Error):
    """wait() gave up before the instance reached a terminal state."""

    exit_code = EXIT_TIMEOUT


class ContractViolation(C4Error):
    """A caller broke an internal precondition; indicates a programming error."""


class VersionConflict(C4Error):
    """Compare-and-swap on the state record lost a race; safe to retry."""


class CorruptStateError(C4Error):
    """A persisted artifact exists but cannot be parsed.

    Deliberately distinct from "absent": a truncated state file must not be
    read as the initial state, or corruption would silently reset the
    lifecycle.
    """


class AbsentRecordError(NotFoundError):
    """An operation that requires an existing record found none."""


class ExactlyOnceViolation(C4Error):
    """A write-once artifact (response, stage record) was written twice."""


class StageNotFound(C4Error):
    """The requested stage name is not registered in the backend's stage table."""


class PrepareFailed(C4Error):
    """The backend could not prepare a protected execution context."""


class BackendHandleInvalid(ContractViolation):
    """execute/destroy was called with a handle that is not live."""
