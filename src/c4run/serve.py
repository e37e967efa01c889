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
- A request's stage is eid-<epoch>-<seq> of the request. Its receipt line
  in exec.receipts, which the adapter appends and fsyncs first in execute
  (StateDir.write_started_marker), says the backend may have been touched;
  meta.json proves the outcome was recorded. Recovery uses the ladder
  (response? touched or journalled? meta? touched?) to requeue, replay the
  response, fail a claim as ambiguous or resume it — never running the
  backend twice for one accepted request, and resuming one that crashed
  before its receipt.
- A serve with N workers runs N copies of one loop in threads, which
  coordinate through the session lock and the claim rename exactly as N
  serve processes do; the thread that claims a request executes it.
- An idle loop waits on the wake FIFO for at most poll_interval.
  spool_request rings it for a new request, and the anchor supervisor once
  anchor_exit.json is durable, so --until-done stops as soon as the anchor
  has exited. A missing or lost ring only falls back to polling.
- A serve takes every temp file and stage directory of a request from its
  stock of spares in spare/ (see fsutil.Spares). When the stock is empty
  it makes them in place, as every other verb does. A loop stocks only
  after a scan found the spool empty, just before it waits on the FIFO,
  never between a claim and its response; the stock holds one request's
  worth (a directory and three files) per worker. run() removes the unused
  spares whichever way it ends, and recover those a killed serve left.

Fail-fast policy: a stage that reports a nonzero rc emits a TEE-error
termination event and settles the instance record by the rule wait and
kill use (runtime.finalize_terminal), which then picks Failed. That is
the only write of state.json serve makes: a stage's outcome lives in its
own artifacts, from which `state` derives the trust, health and phase
flags.
Cancellations caused by kill are recorded as failed stage records but emit
no error event (the kill event itself represents that outcome). With
fail-fast off, stage failures are recorded in the stage artifacts only.
"""

from __future__ import annotations

import os
import select
import threading
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .backends import create_adapter
from .bundle import load_bundle
from .crashpoints import crash_if
from .errors import (
    CANCELLED_RC,
    TIMEOUT_RC,
    AbsentRecordError,
    C4Error,
    CorruptStateError,
    ExactlyOnceViolation,
    IllegalStateError,
    StageNotFound,
    warn,
)
from .fsutil import Spares, read_bytes, read_json, remove_if_exists
from .lifecycle import (
    EventSource,
    LifecycleState,
    TERMINAL_STATES,
    TerminationEvent,
    TerminationReason,
)
from .protocol import (
    RejectReason,
    ResponseStatus,
    StageRequest,
    authenticate_request,
    build_response,
    commit_acceptance,
    response_to_envelope,
    request_from_envelope,
    validate_request,
)
from .record import Record
from .runtime import finalize_terminal
from .statedir import NOT_EXECUTED, StageRecord, StateDir, request_epoch_seq, stage_eid

PREPARE_FAILED_RC = 126
STAGE_NOT_FOUND_RC = 127
RECOVERY_AMBIGUOUS_RC = 125


class WorkItem(NamedTuple):
    """An accepted request bound to its stage identifier."""

    req: StageRequest
    eid: str
    claimed_path: Path
    claimed_at: float


class PipelineResult(NamedTuple):
    request_id: str
    terminal: ResponseStatus
    eid: Optional[str] = None
    rc: Optional[int] = None
    reject_reason: Optional[str] = None


class ServeSummary(Record):
    """Counts only: each request's outcome is in its response and stage
    artifacts, so nothing here grows with the requests served."""

    __slots__ = ("completed", "failed", "rejected", "stop_reason", "elapsed_s")

    def __init__(self) -> None:
        self.completed = 0
        self.failed = 0
        self.rejected = 0
        self.stop_reason = ""
        self.elapsed_s = 0.0

    def record(self, result: PipelineResult) -> None:
        if result.terminal is ResponseStatus.COMPLETED:
            self.completed += 1
        elif result.terminal is ResponseStatus.REJECTED:
            self.rejected += 1
        else:
            self.failed += 1

    def to_json(self) -> dict:
        return {
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "stop_reason": self.stop_reason,
            "elapsed_s": round(self.elapsed_s, 6),
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
        fail_fast: bool = True,
        poll_interval: float = 0.05,
        workers: int = 4,
        idle_polls: int = 3,
        stop_check: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.sd = sd
        self.bundle = load_bundle(sd.bundle_dir)
        self.adapter = create_adapter(
            self.bundle.c4.backend_id,
            self.bundle.c4.stage_table,
            rootfs=sd.rootfs_dir,
            work_root=sd.enclaves_dir,
            started=sd.write_started_marker,
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
        sd.spare_dir.mkdir(exist_ok=True)
        # Per worker, one request's worth: its stage directory, and the temp
        # files of its run.log, meta.json and response.
        self.spares = Spares(sd.spare_dir, files=3 * self.workers, dirs=self.workers)

    # -- stopping -------------------------------------------------------------

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

    def _stop_reason(self) -> str:
        """Why serve must stop now, or "" to go on: the loop's stop check and
        the cancel check of a stage in flight."""
        if self.stop_check():
            return "signal"
        if self._instance_terminal():
            return "terminal"
        return "killed" if self.sd.kill_marker_path.exists() else ""

    # -- claim + accept (sequential under the session lock) -------------------

    def _claim_and_accept_detail(self) -> Optional[WorkItem | PipelineResult]:
        """Claim one request and run the Accept predicate against it.

        Returns a WorkItem for an accepted request, or the result of a
        rejection finalized inline (rejected response written, no stage
        identifier allocated); None when the spool is empty.
        """
        with self.sd.session_lock():
            claimed = claim_next(self.sd)
            if claimed is None:
                return None
            claimed_at = time.time()
            request_id = claimed.stem
            try:
                req = read_json(claimed, "request envelope", request_from_envelope)
            except CorruptStateError as exc:
                warn(self.sd.cid, "malformed request", request_id=request_id, error=str(exc))
                return self._finalize_rejected(claimed, request_id, RejectReason.AUTH_MAC_INVALID)
            # Catch up on what other serve instances accepted since.
            self._journal_pos = self.sd.fold_accepts(self._session, self._journal_pos)
            reason = validate_request(req, self._session, self.sd.cid)
            if reason is not None:
                return self._finalize_rejected(claimed, req.request_id, reason)
            crash_if("accept:pre-commit")
            self._journal_pos = self.sd.append_accept(self._journal_pos, req)
            commit_acceptance(self._session, req)
            crash_if("accept:post-commit")
        return self._bind(req, claimed, claimed_at)

    def _bind(self, req: StageRequest, claimed: Path, claimed_at: float) -> WorkItem:
        """Bind an accepted request to the stage its (epoch, seq) names."""
        eid = self.sd.allocate_eid(req.epoch, req.seq, self.spares)
        return WorkItem(req=req, eid=eid, claimed_path=claimed, claimed_at=claimed_at)

    def _finalize_rejected(self, claimed: Path, request_id: str, reason: RejectReason) -> PipelineResult:
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
                self.sd.spool_response(request_id, response_to_envelope(resp), self.spares)
            except ExactlyOnceViolation:
                pass  # a replayed request already has its rejection on disk
        remove_if_exists(claimed)
        return PipelineResult(request_id=request_id, terminal=ResponseStatus.REJECTED, reject_reason=reason.value)

    # -- execute + finalize (by the loop that claimed, outside the lock) ------

    def execute_accepted(self, item: WorkItem) -> PipelineResult:
        req, eid = item.req, item.eid
        timings = {"claimed_at": item.claimed_at}
        cancelled = False
        try:
            crash_if("execute:pre-prepare")
            handle = self.adapter.prepare(self.sd.cid, eid, req.stage)
        except C4Error as exc:
            rc = STAGE_NOT_FOUND_RC if isinstance(exc, StageNotFound) else PREPARE_FAILED_RC
            return self._finalize_outcome(item, rc=rc, timings=timings, failure_reason=f"prepare:{exc}")
        timings["prepared_at"] = time.time()
        try:
            timings["executing_at"] = time.time()
            crash_if("execute:pre-backend")
            outcome = self.adapter.execute(handle, req, cancel_check=self._stop_reason)
            cancelled = outcome.rc == CANCELLED_RC and self._stop_reason() != ""
        finally:
            self.adapter.destroy(handle)
        return self._finalize_outcome(
            item,
            rc=outcome.rc,
            stdout=outcome.stdout,
            evidence=outcome.evidence,
            timings=timings,
            failure_reason="cancelled" if cancelled else ("timeout" if outcome.rc == TIMEOUT_RC else None),
        )

    def _finalize_outcome(
        self,
        item: WorkItem,
        *,
        rc: int,
        timings: dict,
        failure_reason: Optional[str],
        stdout: bytes = b"",
        evidence=None,
    ) -> PipelineResult:
        req, eid = item.req, item.eid
        timings["finished_at"] = time.time()
        record = StageRecord(
            eid=eid,
            request_id=req.request_id,
            stage=req.stage,
            tee_type=evidence.tee_type if evidence else self.adapter.tee_type,
            rc=rc,
            evidence_type=evidence.evidence_type if evidence else NOT_EXECUTED,
            measurement_hash=evidence.measurement_hash if evidence else "",
            failure_reason=failure_reason,
            timings=timings,
            evidence_extra=evidence.extra if evidence else None,
        )
        crash_if("finalize:pre-meta")
        self.sd.write_stage_record(record, stdout, self.spares)
        crash_if("finalize:post-meta")
        self._respond(record, stdout, item.claimed_path)
        return PipelineResult(
            request_id=req.request_id,
            terminal=ResponseStatus.COMPLETED if rc == 0 else ResponseStatus.FAILED,
            eid=eid,
            rc=rc,
        )

    def _respond(self, record: StageRecord, output: bytes, claimed_path: Path) -> None:
        """Answer a recorded stage and retire its claim; then a failure other
        than a cancellation fails fast."""
        resp = build_response(
            self._session,
            record.request_id,
            rc=record.rc,
            status=ResponseStatus.COMPLETED if record.status == "completed" else ResponseStatus.FAILED,
            eid=record.eid,
            output=output,
        )
        self.sd.spool_response(record.request_id, response_to_envelope(resp), self.spares)
        remove_if_exists(claimed_path)
        if record.rc != 0 and record.failure_reason != "cancelled" and self.fail_fast:
            self._fail_fast(record.eid, record.rc)

    # -- record bookkeeping ---------------------------------------------------

    def _fail_fast(self, eid: str, rc: int) -> None:
        """A genuine stage error drives the instance record to Failed: its
        TEE-error event outranks every event that would settle Stopped."""
        self.sd.append_event(
            TerminationEvent(
                src=EventSource.TEE,
                code=rc,
                reason=TerminationReason.ERROR,
                observed_at=time.time(),
                origin=f"stage:{eid}",
            )
        )
        finalize_terminal(self.sd)

    # -- one-shot and loop ----------------------------------------------------

    def process_next(self) -> Optional[PipelineResult]:
        """Claim and fully process a single request; None when spool is empty."""
        claimed = self._claim_and_accept_detail()
        return self.execute_accepted(claimed) if isinstance(claimed, WorkItem) else claimed

    def run(self, mode: str = "until-idle") -> ServeSummary:
        """Serve until the mode's exit condition; returns the summary.

        Runs ``workers`` copies of one loop in threads: drain the wake FIFO,
        check whether to stop, process_next(), and after an empty scan stock
        spares and wait on the FIFO for at most poll_interval. Modes:
        "until-idle" (each loop ends after idle_polls empty scans in a row,
        serve once all have), "until-done" (a loop finds the spool empty
        after the anchor exited), "forever" (until stop signal or the
        instance goes terminal). A stop one loop sees, or an exception it
        raises, ends every loop; the first reason wins, and run() raises the
        first exception again.
        """
        if mode not in ("until-idle", "until-done", "forever"):
            raise IllegalStateError(f"unknown serve mode {mode!r}")
        rec = self.sd.read_record()
        if rec is None:
            raise AbsentRecordError(f"{self.sd.cid}: not found")
        summary = ServeSummary()
        started = time.monotonic()
        if rec.state in TERMINAL_STATES:
            summary.stop_reason = "terminal"
            return summary
        if rec.state is not LifecycleState.RUNNING:
            raise IllegalStateError(f"{self.sd.cid}: serve requires a running instance")

        lock = threading.Lock()
        errors: list[BaseException] = []

        def stop(reason: str) -> None:
            with lock:
                summary.stop_reason = summary.stop_reason or reason
            self.sd.ring_wake()  # a ring is one byte: each loop that stops passes it on

        def loop(bell: list[int]) -> None:
            idle_streak = 0
            try:
                while True:
                    # Drained first, so no ring for a stop is consumed unseen and
                    # no ring for a file this scan claims ends a later wait early.
                    _drain_wake(bell)
                    reason = summary.stop_reason or self._stop_reason()
                    if reason:
                        stop(reason)
                        return
                    result = self.process_next()
                    if result is not None:
                        with lock:
                            summary.record(result)
                        idle_streak = 0
                        continue
                    idle_streak += 1
                    if mode == "until-idle" and idle_streak >= self.idle_polls:
                        return
                    if mode == "until-done" and self.sd.read_anchor_exit() is not None:
                        stop("done")
                        return
                    self.spares.stock()
                    select.select(bell, [], [], self.poll_interval)
            except BaseException as exc:  # re-raised by run() once every loop ended
                errors.append(exc)
                stop("error")

        with self.sd.serve_lock(exclusive=False), self.sd.wake_fds() as bell:
            threads = [threading.Thread(target=loop, args=(bell,)) for _ in range(self.workers)]
            for t in threads:
                t.start()
            try:
                for t in threads:
                    t.join()
            except BaseException:  # e.g. KeyboardInterrupt: no loop may outlive the serve lock
                stop("error")
                for t in threads:
                    t.join()
                raise
            finally:
                self.spares.clear()
        if errors:
            raise errors[0]
        summary.stop_reason = summary.stop_reason or "idle"
        summary.elapsed_s = time.monotonic() - started
        return summary

    # -- crash recovery ---------------------------------------------------------

    def recover(self) -> list[dict]:
        """Reconcile the claimed directory after a crash.

        Requires that no live serve instance holds the serve lock. For each
        claimed request, the first of:

        - response exists                -> remove the claim
        - neither receipt nor journalled -> requeue for fresh validation
        - stage record exists            -> replay the response from it
        - receipt, no record             -> ambiguous execution: fail safely
        - journalled, no receipt         -> resume the pipeline (runs once)

        A claim whose id or envelope names no request this instance can
        have accepted, or whose envelope fails the bind and MAC checks of
        validate_request, is dropped. It first removes the spares that
        killed serve instances left.
        """
        actions: list[dict] = []
        try:
            lock_ctx = self.sd.serve_lock(exclusive=True, blocking=False)
            lock_ctx.__enter__()
        except BlockingIOError:
            raise IllegalStateError(f"{self.sd.cid}: serve instances are active; cannot recover")
        try:
            # No serve instance runs, so nothing appends to the journal and
            # every spare on disk is a killed serve's.
            self.spares.purge()
            self._journal_pos = self.sd.fold_accepts(self._session, self._journal_pos)
            touched = self.sd.touched()
            for claimed in self.sd.claimed_requests():
                action = self._recover_one(claimed, touched.get(claimed.stem))
                actions.append({"request_id": claimed.stem, "action": action})
        finally:
            lock_ctx.__exit__(None, None, None)
        return actions

    def _recover_one(self, claimed: Path, touched_at: Optional[float]) -> str:
        request_id = claimed.stem
        if self.sd.has_response(request_id):
            remove_if_exists(claimed)
            return "cleaned"

        # A touched claim is never requeued: its receipt is a second witness
        # of the acceptance, should the journal have lost the line.
        if touched_at is None and request_id not in self._session.seen_request_ids:
            self.sd.requeue_claimed(claimed)
            return "requeued"

        try:
            eid = stage_eid(*request_epoch_seq(request_id))
        except ValueError:
            remove_if_exists(claimed)  # validate_request binds every accepted id
            return "dropped_malformed"
        if self.sd.meta_path(eid).exists():
            # Executed and recorded; regenerate the byte-identical response,
            # unless the stage of its (epoch, seq) is another request's.
            record = self.sd.read_stage_record(eid)
            if record.request_id != request_id:
                remove_if_exists(claimed)
                return "dropped_malformed"
            self._respond(record, read_bytes(self.sd.run_log_path(eid)), claimed)
            return "response_replayed"

        try:
            req = read_json(claimed, "request envelope", request_from_envelope)
            if req.request_id != request_id or authenticate_request(req, self._session, self.sd.cid):
                raise CorruptStateError("the envelope is another request's, or forged")
        except CorruptStateError:
            remove_if_exists(claimed)
            return "dropped_malformed"

        if touched_at is not None:
            # The backend may have been touched; never run it again. The bind
            # did not fsync enclaves/, so its directory may be gone.
            self._finalize_outcome(
                self._bind(req, claimed, touched_at),
                rc=RECOVERY_AMBIGUOUS_RC,
                timings={"claimed_at": touched_at},
                failure_reason="recovery_ambiguous",
            )
            return "failed_ambiguous"

        # Journalled but no receipt, so the backend never ran; requeueing
        # would self-reject as a replay, so resume under the eid its (epoch,
        # seq) names, reusing the directory an earlier bind left.
        result = self.execute_accepted(self._bind(req, claimed, time.time()))
        return f"resumed_{result.terminal.value}"
