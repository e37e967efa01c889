"""Stage pipeline engine: claim, accept, execute, finalize, recover.

Each request moves through ReqPending -> Claimed -> Prepared -> Executing ->
Completed/Failed. The engine is safe to run as several concurrent serve
instances on one instance directory:

- Claiming is an atomic rename into requests/claimed/, so exactly one
  instance obtains any request file.
- Claim + validate + acceptance-commit happen under the session lock and in
  sequence-number order, so the accepted-seq watermark only ever moves
  forward and concurrent instances cannot reject each other's in-order
  honest requests.
- The acceptance commit (the request's line appended to accepts.log and
  fsynced) is durable before any execution side effect; a request that
  crashed before the commit can be requeued and revalidated as if never
  seen. Each serve instance keeps the session in memory, folded from the
  journal once and then from the lines other instances append, so the cost
  of a request does not grow with the epoch.
- A started marker binds request to stage identifier before the backend is
  invoked; meta.json is the durable proof that the outcome was recorded.
  Recovery uses the ladder (response? meta? marker? journalled?) to requeue,
  resume, replay the response, or fail a claim as ambiguous — never running
  the backend twice for one accepted request.
- An idle loop waits on the wake FIFO that spool_request rings, for at most
  poll_interval: a missing or lost ring only falls back to polling.

Fail-fast policy: a stage that reports a nonzero rc emits a TEE-error
termination event and drives the instance record to Failed. That is the
only write of state.json serve makes: a stage's outcome lives in its own
artifacts, from which `state` derives the trust, health and phase flags.
Cancellations caused by kill are recorded as failed stage records but emit
no error event (the kill event itself represents that outcome). With
fail-fast off, stage failures are recorded in the stage artifacts only.
"""

from __future__ import annotations

import logging
import os
import select
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Optional

from .backends import AdapterBase, create_adapter
from .backends.base import CANCELLED_RC, TIMEOUT_RC
from .bundle import CompositeBundle, load_bundle
from .crashpoints import crash_if
from .errors import (
    AbsentRecordError,
    C4Error,
    CorruptStateError,
    ExactlyOnceViolation,
    IllegalStateError,
    PrepareFailed,
    StageNotFound,
)
from .fsutil import read_json, remove_if_exists
from .lifecycle import (
    CompositeStateRecord,
    EventSource,
    LifecycleState,
    TERMINAL_STATES,
    TerminationEvent,
    TerminationReason,
    reduce_termination,
)
from .protocol import (
    RejectReason,
    ResponseStatus,
    StageRequest,
    build_response,
    commit_acceptance,
    response_to_envelope,
    request_from_envelope,
    validate_request,
)
from .statedir import StageRecord, StateDir

logger = logging.getLogger(__name__)

PREPARE_FAILED_RC = 126
STAGE_NOT_FOUND_RC = 127
RECOVERY_AMBIGUOUS_RC = 125


class StagePipelineState(str, Enum):
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass
class WorkItem:
    """An accepted request bound to its stage identifier."""

    req: StageRequest
    eid: str
    claimed_path: Path
    claimed_at: float


@dataclass
class PipelineResult:
    request_id: str
    terminal: StagePipelineState
    stage: str = ""
    eid: Optional[str] = None
    rc: Optional[int] = None
    reject_reason: Optional[str] = None
    elapsed_s: float = 0.0


@dataclass
class ServeSummary:
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    stop_reason: str = ""
    elapsed_s: float = 0.0
    stages: list[dict] = field(default_factory=list)

    def record(self, result: PipelineResult) -> None:
        if result.terminal is StagePipelineState.COMPLETED:
            self.completed += 1
        elif result.reject_reason is not None:
            self.rejected += 1
        else:
            self.failed += 1
        self.stages.append(
            {
                "request_id": result.request_id,
                "stage": result.stage,
                "eid": result.eid,
                "rc": result.rc,
                "terminal": result.terminal.value,
                "reject_reason": result.reject_reason,
                "elapsed_s": round(result.elapsed_s, 6),
            }
        )

    def to_json(self) -> dict:
        return {
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "stop_reason": self.stop_reason,
            "elapsed_s": round(self.elapsed_s, 6),
            "stages": self.stages,
        }


def _drain_wake(fds: list[int]) -> None:
    """Consume every pending ring; the FIFO is non-blocking, so this stops
    as soon as it is empty."""
    for fd in fds:
        try:
            while os.read(fd, 512):
                pass
        except BlockingIOError:
            pass


def claim_next(sd: StateDir) -> Optional[Path]:
    """Claim the lowest-ordered pending request; None when the spool is empty.

    Rename atomicity guarantees a single winner per request under any number
    of concurrent claimers.
    """
    for pending in sd.pending_requests():
        claimed = sd.claim_request(pending)
        if claimed is not None:
            return claimed
    return None


class ServeLoop:
    """One serve instance bound to one composite instance.

    It reads the session once, so build it on a started instance: the
    epoch it validates against is the one start set.
    """

    def __init__(
        self,
        sd: StateDir,
        *,
        bundle: Optional[CompositeBundle] = None,
        adapter: Optional[AdapterBase] = None,
        fail_fast: bool = True,
        poll_interval: float = 0.05,
        workers: int = 4,
        idle_polls: int = 3,
        stop_check: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.sd = sd
        self.bundle = bundle or load_bundle(sd.bundle_dir)
        self.adapter = adapter or create_adapter(
            self.bundle.c4.backend_id,
            self.bundle.c4.stage_table,
            rootfs=sd.rootfs_dir,
            work_root=sd.enclaves_dir,
            receipts_path=sd.receipts_path,
        )
        self.fail_fast = fail_fast
        self.poll_interval = poll_interval
        self.workers = max(1, workers)
        self.idle_polls = idle_polls
        self.stop_check = stop_check or (lambda: False)
        self._terminal_cache: tuple[float, bool] = (0.0, False)
        # Always session.json plus exactly the first _journal_pos bytes of
        # accepts.log; advanced only under the session lock.
        self._session = sd.load_session_params()
        self._journal_pos = 0

    # -- cancellation -------------------------------------------------------

    def _instance_terminal(self) -> bool:
        now = time.monotonic()
        cached_at, value = self._terminal_cache
        if value or now - cached_at < 0.1:
            return value
        try:
            rec = self.sd.read_record()
        except CorruptStateError:
            return True
        value = rec is None or rec.state in TERMINAL_STATES
        self._terminal_cache = (now, value)
        return value

    def _cancel_requested(self) -> bool:
        return self.sd.kill_marker_path.exists() or self.stop_check() or self._instance_terminal()

    # -- claim + accept (dispatcher side, sequential under the session lock) --

    def _claim_and_accept_detail(self) -> tuple[Optional[WorkItem], Optional[PipelineResult]]:
        """Claim one request and run the Accept predicate against it.

        Returns a WorkItem for an accepted request, or the result of a
        rejection finalized inline (rejected response written, no stage
        identifier allocated); (None, None) when the spool is empty.
        """
        with self.sd.session_lock():
            claimed = claim_next(self.sd)
            if claimed is None:
                return None, None
            claimed_at = time.time()
            request_id = claimed.stem
            try:
                envelope = read_json(claimed, "request envelope")
                req = request_from_envelope(envelope)
            except (ValueError, CorruptStateError) as exc:
                logger.warning("%s: malformed request %s: %s", self.sd.cid, request_id, exc)
                return None, self._finalize_rejected(
                    claimed, request_id, RejectReason.AUTH_MAC_INVALID, claimed_at
                )
            # Catch up on what other serve instances accepted since.
            self._journal_pos = self.sd.fold_accepts(self._session, self._journal_pos)
            reason = validate_request(req, self._session, self.sd.cid)
            if reason is not None:
                return None, self._finalize_rejected(claimed, req.request_id, reason, claimed_at, req)
            crash_if("accept:pre-commit")
            self._journal_pos = self.sd.append_accept(self._journal_pos, req)
            commit_acceptance(self._session, req)
            crash_if("accept:post-commit")
        return self._bind(req, claimed, claimed_at), None

    def _bind(self, req: StageRequest, claimed: Path, claimed_at: float) -> WorkItem:
        """Bind an accepted request to the stage its (epoch, seq) names; the
        started marker is durable before any backend side effect."""
        eid = self.sd.allocate_eid(req.epoch, req.seq)
        self.sd.write_started_marker(req.request_id, eid, req.stage)
        crash_if("execute:post-marker")
        return WorkItem(req=req, eid=eid, claimed_path=claimed, claimed_at=claimed_at)

    def _finalize_rejected(
        self,
        claimed: Path,
        request_id: str,
        reason: RejectReason,
        claimed_at: float,
        req: Optional[StageRequest] = None,
    ) -> PipelineResult:
        """Rejected requests never reach protected execution; they get an
        authenticated negative response so an honest anchor can tell
        rejection from a host drop."""
        resp = build_response(
            self._session,
            request_id,
            rc=1,
            status=ResponseStatus.REJECTED,
            reject_reason=reason,
        )
        if not self.sd.has_response(request_id):
            try:
                self.sd.spool_response(request_id, response_to_envelope(resp))
            except ExactlyOnceViolation:
                pass  # a replayed request already has its rejection on disk
        remove_if_exists(claimed)
        logger.info("%s: rejected %s (%s)", self.sd.cid, request_id, reason.value)
        return PipelineResult(
            request_id=request_id,
            terminal=StagePipelineState.FAILED,
            stage=req.stage if req else "",
            reject_reason=reason.value,
            elapsed_s=time.time() - claimed_at,
        )

    # -- execute + finalize (worker side) ------------------------------------

    def execute_accepted(self, item: WorkItem) -> PipelineResult:
        req, eid = item.req, item.eid
        timings = {"claimed_at": item.claimed_at}
        cancelled = False
        try:
            crash_if("execute:pre-prepare")
            handle = self.adapter.prepare(self.sd.cid, eid, req.stage)
        except (StageNotFound, PrepareFailed, C4Error) as exc:
            rc = STAGE_NOT_FOUND_RC if isinstance(exc, StageNotFound) else PREPARE_FAILED_RC
            logger.warning("%s: prepare failed for %s: %s", self.sd.cid, req.request_id, exc)
            return self._finalize_outcome(
                item,
                rc=rc,
                stdout=b"",
                evidence=None,
                timings=timings,
                failure_reason=f"prepare:{exc}",
                cancelled=False,
            )
        timings["prepared_at"] = time.time()
        try:
            timings["executing_at"] = time.time()
            crash_if("execute:pre-backend")
            outcome = self.adapter.execute(handle, req, cancel_check=self._cancel_requested)
            cancelled = outcome.rc == CANCELLED_RC and self._cancel_requested()
        finally:
            self.adapter.destroy(handle)
        return self._finalize_outcome(
            item,
            rc=outcome.rc,
            stdout=outcome.stdout,
            evidence=outcome.evidence,
            timings=timings,
            failure_reason="cancelled" if cancelled else ("timeout" if outcome.rc == TIMEOUT_RC else None),
            cancelled=cancelled,
        )

    def _finalize_outcome(
        self,
        item: WorkItem,
        *,
        rc: int,
        stdout: bytes,
        evidence,
        timings: dict,
        failure_reason: Optional[str],
        cancelled: bool,
    ) -> PipelineResult:
        req, eid = item.req, item.eid
        timings["finished_at"] = time.time()
        status = "completed" if rc == 0 else "failed"
        record = StageRecord(
            eid=eid,
            stage=req.stage,
            request_id=req.request_id,
            backend=self.adapter.backend_id,
            tee_type=evidence.tee_type if evidence else self.adapter.tee_type,
            rc=rc,
            status=status,
            started_at=timings.get("executing_at", timings["claimed_at"]),
            finished_at=timings["finished_at"],
            evidence_type=evidence.evidence_type if evidence else "none",
            measurement_hash=evidence.measurement_hash if evidence else "",
            session_cid=self.sd.cid,
            session_epoch=req.epoch,
            session_seq=req.seq,
            failure_reason=failure_reason,
            timings=timings,
            evidence_extra=dict(evidence.extra) if evidence else None,
        )
        crash_if("finalize:pre-meta")
        self.sd.write_stage_record(eid, record, stdout)
        crash_if("finalize:post-meta")
        self._write_stage_response(req.request_id, record, stdout)
        self._cleanup_claim(req.request_id, item.claimed_path)
        if rc != 0 and not cancelled and self.fail_fast:
            self._fail_fast(eid, rc)
        return PipelineResult(
            request_id=req.request_id,
            terminal=StagePipelineState.COMPLETED if rc == 0 else StagePipelineState.FAILED,
            stage=req.stage,
            eid=eid,
            rc=rc,
            elapsed_s=timings["finished_at"] - item.claimed_at,
        )

    def _write_stage_response(self, request_id: str, record: StageRecord, output: bytes) -> None:
        resp = build_response(
            self._session,
            request_id,
            rc=record.rc,
            status=ResponseStatus.COMPLETED if record.status == "completed" else ResponseStatus.FAILED,
            eid=record.eid,
            output=output,
        )
        self.sd.spool_response(request_id, response_to_envelope(resp))

    def _cleanup_claim(self, request_id: str, claimed_path: Path) -> None:
        remove_if_exists(self.sd.started_marker_path(request_id))
        remove_if_exists(claimed_path)

    # -- record bookkeeping ---------------------------------------------------

    def _fail_fast(self, eid: str, rc: int) -> None:
        """A genuine stage error drives the instance record to Failed."""
        self.sd.append_event(
            TerminationEvent(
                src=EventSource.TEE,
                code=rc,
                reason=TerminationReason.ERROR,
                observed_at=time.time(),
                origin=f"stage:{eid}",
            )
        )
        exit_code, _ = reduce_termination(self.sd.load_events(), self.bundle.c4.c_untrusted)

        def mutate(cur: CompositeStateRecord) -> CompositeStateRecord:
            if cur.state in TERMINAL_STATES:
                return cur
            return cur.with_state(LifecycleState.FAILED, exit_code=exit_code)

        self.sd.update_record_rmw(mutate)

    # -- one-shot and loop ----------------------------------------------------

    def process_next(self) -> Optional[PipelineResult]:
        """Claim and fully process a single request; None when spool is empty."""
        item, rejected = self._claim_and_accept_detail()
        if rejected is not None:
            return rejected
        if item is None:
            return None
        return self.execute_accepted(item)

    def run(self, mode: str = "until-idle") -> ServeSummary:
        """Serve until the mode's exit condition; returns the summary.

        Modes: "until-idle" (idle_polls iterations in a row began and ended
        with no stage in flight and claimed nothing from the spool),
        "until-done" (anchor exited and everything drained), "forever"
        (until stop signal or the instance goes terminal).
        """
        if mode not in ("until-idle", "until-done", "forever"):
            raise IllegalStateError(f"unknown serve mode {mode!r}")
        rec = self.sd.read_record()
        if rec is None:
            raise AbsentRecordError(f"{self.sd.cid}: not found")
        summary = ServeSummary()
        started = time.monotonic()
        if rec.state in TERMINAL_STATES:
            logger.warning("%s: instance already terminal; nothing to serve", self.sd.cid)
            summary.stop_reason = "terminal"
            return summary
        if rec.state is not LifecycleState.RUNNING:
            raise IllegalStateError(f"{self.sd.cid}: serve requires a running instance")

        idle_streak = 0
        with self.sd.serve_lock(exclusive=False), self.sd.wake_fds() as bell:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                futures: set[Future] = set()
                stop_reason = ""
                while True:
                    if self.stop_check():
                        stop_reason = "signal"
                        break
                    if self._instance_terminal():
                        stop_reason = "terminal"
                        break
                    if self.sd.kill_marker_path.exists():
                        stop_reason = "killed"
                        break

                    # With every slot full the spool is not scanned, so an
                    # iteration that starts with stages in flight is never idle.
                    active = bool(futures)
                    # Drained before the scan, not after the wait: a ring for
                    # a file this scan claims must not end a later wait early.
                    _drain_wake(bell)
                    while len(futures) < self.workers:
                        item, rejected = self._claim_and_accept_detail()
                        if rejected is not None:
                            summary.record(rejected)
                            active = True
                            continue
                        if item is None:
                            break
                        futures.add(pool.submit(self.execute_accepted, item))
                        active = True

                    if futures:
                        done, futures = wait(futures, timeout=self.poll_interval, return_when=FIRST_COMPLETED)
                        for fut in done:
                            summary.record(fut.result())
                    if active or futures:
                        idle_streak = 0
                        continue

                    idle_streak += 1
                    if mode == "until-idle" and idle_streak >= self.idle_polls:
                        stop_reason = "idle"
                        break
                    if mode == "until-done" and self.sd.read_anchor_exit() is not None:
                        stop_reason = "done"
                        break
                    select.select(bell, [], [], self.poll_interval)

                for fut in futures:
                    summary.record(fut.result())
        summary.stop_reason = stop_reason
        summary.elapsed_s = time.monotonic() - started
        return summary

    # -- crash recovery ---------------------------------------------------------

    def recover(self) -> list[dict]:
        """Reconcile the claimed directory after a crash.

        Requires that no live serve instance holds the serve lock. For each
        claimed request, exactly one of:

        - response exists               -> clean up claim bookkeeping
        - stage record exists           -> replay the response from it
        - started marker, no record     -> ambiguous execution: fail safely
        - journalled, no started marker -> resume the pipeline (runs once)
        - never journalled              -> requeue for fresh validation
        """
        actions: list[dict] = []
        try:
            lock_ctx = self.sd.serve_lock(exclusive=True, blocking=False)
            lock_ctx.__enter__()
        except BlockingIOError:
            raise IllegalStateError(f"{self.sd.cid}: serve instances are active; cannot recover")
        try:
            # No serve instance runs, so nothing appends to the journal.
            self._journal_pos = self.sd.fold_accepts(self._session, self._journal_pos)
            for claimed in self.sd.claimed_requests():
                request_id = claimed.stem
                action = self._recover_one(claimed, request_id)
                actions.append({"request_id": request_id, "action": action})
            for marker in self.sd.started_markers():
                # A marker without its claimed file means the crash hit the
                # cleanup step itself; the response exists, so just finish.
                if not self.sd.claimed_path(marker["request_id"]).exists():
                    remove_if_exists(self.sd.started_marker_path(marker["request_id"]))
        finally:
            lock_ctx.__exit__(None, None, None)
        return actions

    def _recover_one(self, claimed: Path, request_id: str) -> str:
        if self.sd.has_response(request_id):
            self._cleanup_claim(request_id, claimed)
            return "cleaned"

        # meta.json is only written while the started marker exists, and the
        # marker only goes once the response is written: a claim with a
        # record but no response always still has its marker.
        marker = self.sd.read_started_marker(request_id)
        record = None
        if marker is not None and self.sd.meta_path(marker["eid"]).exists():
            record = self.sd.read_stage_record(marker["eid"])

        if record is not None:
            # Executed and recorded; regenerate the byte-identical response.
            output = self.sd.run_log_path(record.eid).read_bytes()
            self._write_stage_response(request_id, record, output)
            self._cleanup_claim(request_id, claimed)
            if record.rc != 0 and record.failure_reason != "cancelled" and self.fail_fast:
                self._fail_fast(record.eid, record.rc)
            return "response_replayed"

        if marker is None and request_id not in self._session.seen_request_ids:
            self.sd.requeue_claimed(claimed)
            return "requeued"

        # Accepted: the claimed envelope carries the (epoch, seq) that named
        # the stage.
        try:
            req = request_from_envelope(read_json(claimed, "request envelope"))
        except (ValueError, CorruptStateError):
            remove_if_exists(claimed)
            return "dropped_malformed"

        if marker is not None:
            # Execution may or may not have started; never run it again.
            now = time.time()
            record = StageRecord(
                eid=marker["eid"],
                stage=marker.get("stage", ""),
                request_id=request_id,
                backend=self.adapter.backend_id,
                tee_type=self.adapter.tee_type,
                rc=RECOVERY_AMBIGUOUS_RC,
                status="failed",
                started_at=marker.get("ts", now),
                finished_at=now,
                evidence_type="none",
                measurement_hash="",
                session_cid=self.sd.cid,
                session_epoch=req.epoch,
                session_seq=req.seq,
                failure_reason="recovery_ambiguous",
                timings={"claimed_at": marker.get("ts", now), "finished_at": now},
            )
            logger.warning("%s: ambiguous crashed stage for %s; failing it", self.sd.cid, request_id)
            self.sd.write_stage_record(marker["eid"], record, b"")
            self._write_stage_response(request_id, record, b"")
            self._cleanup_claim(request_id, claimed)
            if self.fail_fast:
                self._fail_fast(marker["eid"], RECOVERY_AMBIGUOUS_RC)
            return "failed_ambiguous"

        # Journalled but no started marker; requeueing would self-reject as a
        # replay, so resume under the eid its (epoch, seq) names, reusing a
        # directory an earlier bind left empty.
        result = self.execute_accepted(self._bind(req, claimed, time.time()))
        return f"resumed_{result.terminal.value}"
