"""Adapter surface shared by every protected-execution backend.

The pipeline engine talks to backends only through prepare/execute/destroy
and the outcome type below; nothing backend-specific leaks upward. Every
execute call first calls the ``started`` callable the adapter was built
with, before any work happens: in serve that is
StateDir.write_started_marker, which commits the request's execution
receipt, the record that recovery reads as "touched" and the
exactly-once audits count. Execute returns the backend's outcome
unchanged: the record's path already names its cid and eid.
"""

from __future__ import annotations

import os
from typing import Callable, NamedTuple, Optional

from ..errors import BackendHandleInvalid
from ..protocol import StageRequest

CancelCheck = Callable[[], bool]
#: started(request_id, eid, stage, backend_id), called before any work.
Started = Callable[[str, str, str, str], None]


class BackendHandle(NamedTuple):
    """Opaque prepared execution context, valid from prepare until destroy."""

    token: str
    eid: str
    stage: str


class StageEvidence(NamedTuple):
    tee_type: str
    evidence_type: str
    measurement_hash: str
    extra: dict  # no default: a NamedTuple default would be one shared dict


class StageOutcome(NamedTuple):
    rc: int
    stdout: bytes
    evidence: StageEvidence


class AdapterBase:
    """Handle bookkeeping and the started call common to adapters.

    Subclasses implement `_prepare_context`, `_execute`, and
    `_destroy_context`; handle-validity errors and the started call are
    handled here so every backend behaves identically at the interface.
    """

    backend_id = "base"
    tee_type = "base"
    evidence_type = "base"

    def __init__(self, stage_table: dict, *, started: Started) -> None:
        self.stage_table = dict(stage_table)
        self.started = started
        self._live: dict[str, object] = {}

    # -- interface ----------------------------------------------------------

    def prepare(self, cid: str, eid: str, stage: str) -> BackendHandle:
        context = self._prepare_context(cid, eid, stage)
        handle = BackendHandle(token=os.urandom(16).hex(), eid=eid, stage=stage)
        self._live[handle.token] = context
        return handle

    def execute(
        self,
        handle: BackendHandle,
        request: StageRequest,
        *,
        cancel_check: Optional[CancelCheck] = None,
    ) -> StageOutcome:
        try:
            context = self._live[handle.token]
        except KeyError:
            raise BackendHandleInvalid(f"handle for {handle.eid} is not live") from None
        self.started(request.request_id, handle.eid, handle.stage, self.backend_id)
        return self._execute(handle, context, request, cancel_check or (lambda: False))

    def destroy(self, handle: BackendHandle) -> None:
        """Release the context; destroying twice (or never executing) is fine."""
        context = self._live.pop(handle.token, None)
        if context is not None:
            try:
                self._destroy_context(context)
            except Exception:  # a cleanup failure must not mask the stage's outcome
                pass

    # -- subclass hooks --------------------------------------------------------

    def _prepare_context(self, cid: str, eid: str, stage: str):
        raise NotImplementedError

    def _execute(self, handle: BackendHandle, context, request: StageRequest, cancel_check: CancelCheck) -> StageOutcome:
        raise NotImplementedError

    def _destroy_context(self, context) -> None:
        raise NotImplementedError

