"""Adapter surface shared by every protected-execution backend.

The pipeline engine talks to backends only through prepare/execute/destroy
and the outcome type below; nothing backend-specific leaks upward. Every
execute call is journaled to the receipts journal (fsutil.append_line,
under a flock on the journal itself) before any work happens, which is the
instrumentation the exactly-once audits count. Execute returns the
backend's outcome unchanged: the record's path already names its cid and eid.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .. import fsutil
from ..errors import BackendHandleInvalid
from ..protocol import StageRequest

CancelCheck = Callable[[], bool]


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
    """Handle bookkeeping and receipt instrumentation common to adapters.

    Subclasses implement `_prepare_context`, `_execute`, and
    `_destroy_context`; handle-validity errors and receipts are handled
    here so every backend behaves identically at the interface.
    """

    backend_id = "base"
    tee_type = "base"
    evidence_type = "base"

    def __init__(self, stage_table: dict, *, receipts_path: Path) -> None:
        self.stage_table = dict(stage_table)
        self.receipts_path = receipts_path
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
        self._write_receipt(handle, request)
        return self._execute(handle, context, request, cancel_check or (lambda: False))

    def destroy(self, handle: BackendHandle) -> None:
        """Release the context; destroying twice (or never executing) is fine."""
        context = self._live.pop(handle.token, None)
        if context is not None:
            try:
                self._destroy_context(context)
            except Exception:  # a cleanup failure must not mask the stage's outcome
                pass

    # -- instrumentation ------------------------------------------------------

    def _write_receipt(self, handle: BackendHandle, request: StageRequest) -> None:
        line = fsutil.json_canonical(
            {
                "request_id": request.request_id,
                "eid": handle.eid,
                "stage": handle.stage,
                "backend": self.backend_id,
                "ts": time.time(),
            }
        )
        with fsutil.locked(self.receipts_path):
            fsutil.append_line(self.receipts_path, line.encode())

    # -- subclass hooks --------------------------------------------------------

    def _prepare_context(self, cid: str, eid: str, stage: str):
        raise NotImplementedError

    def _execute(self, handle: BackendHandle, context, request: StageRequest, cancel_check: CancelCheck) -> StageOutcome:
        raise NotImplementedError

    def _destroy_context(self, context) -> None:
        raise NotImplementedError


def load_receipts(receipts_path: Path) -> list[dict]:
    """Parse the execution receipts journal (for audits and tests).

    A torn tail is no receipt (fsutil.read_lines); a complete line that is
    not an object naming a request_id is CorruptStateError.
    """
    try:
        lines, _ = fsutil.read_lines(receipts_path)
    except FileNotFoundError:
        return []
    return [fsutil.decode_json(line, f"line {n} of {receipts_path}", _receipt) for n, line in enumerate(lines, 1)]


def _receipt(obj: dict) -> dict:
    if not isinstance(obj["request_id"], str):
        raise TypeError("request_id is not a string")
    return obj
