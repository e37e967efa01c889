"""Durable per-instance state directory: the untrusted host-side substrate.

Layout under ``<root>/<cid>/``:

    state.json            lifecycle record (see CompositeStateRecord)
    session.json          session parameters: cid, epoch, key, builder
                          counter; written only by create and start
    accepts.log           acceptance journal, one line per accepted request
                          (``<request_id> <nonce_hex>``), under the session lock
    requests/             pending request files <request_id>.req
    requests/claimed/     claimed request files (+ .started markers)
    responses/            response files <request_id>.resp
    enclaves/<EID>/       per-stage meta.json + run.log; EID is
                          eid-<epoch>-<seq> of the accepted request
    anchor.out            anchor stdout/stderr capture
    bundle/               materialized bundle (config.json + rootfs/)
    created.ok            create-completion marker
    events.json           termination-event journal (one JSON object per line)
    exec.receipts         backend execution receipts, appended before each run
    kill.requested        kill marker: stages cancel, serve stops, start refuses
    anchor.pid            written by the anchor supervisor once the anchor
                          runs; start returns only after it is durable
    anchor_exit.json      the anchor's exit, written by the supervisor that
                          reaped it (never for an anchor that failed to spawn)
    wake                  FIFO doorbell: spool_request rings it, serve waits
                          on it (made by serve, not by create)
    *.lock                advisory lock files, one per mutable object

Everything here is *coordination* state: nothing in this module derives a
security decision from file contents alone (request validation lives in the
protocol layer). What this module does guarantee:

- Atomicity: every JSON object is replaced via temp + fsync + rename, so a
  reader sees the old or the new object, never a torn one.
- Create decidability: the completion marker distinguishes a finished
  create from a crashed, partial one. A partial tree reads as absent (the
  initial state) and is discarded and rebuilt on the next create.
- One record write path: every update after create is a read-modify-write
  under the state lock that validates the state edge and bumps the version
  by one; the CAS form additionally requires the expected version, so
  stale writers cannot clobber newer records.
- Identifier freshness: a stage is named after its accepted request's
  (epoch, seq), which never repeats among accepted requests.
  ``validate_request`` rejects seq below the watermark, and the request's
  line in accepts.log, appended and fsynced before the name is bound, is
  what raises it to seq + 1 (``commit_acceptance`` applies the line). The
  bind only accepts the session's current epoch, and ``advance_epoch``
  only increments it.
- Journal tails: accepts.log is read up to its last newline. A line with
  no newline is the torn tail of an append that crashed before its fsync;
  that acceptance never committed, and the next append cuts it off.
- Write-once artifacts: responses and stage records cannot be overwritten.
- The wake FIFO carries no state: the spool files are the only truth, so a
  lost or missing ring delays serve by one poll interval and nothing else.

A corrupt (present but unparseable) state.json raises, and is never treated
as absent: conflating the two would let anyone reset the lifecycle by
truncating a file.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import stat
import time
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional

from . import fsutil
from .crashpoints import crash_if
from .errors import (
    AbsentRecordError,
    ContractViolation,
    CorruptStateError,
    ExactlyOnceViolation,
    TransitionError,
    VersionConflict,
)
from .lifecycle import (
    CompositeStateRecord,
    LifecycleState,
    TerminationEvent,
    EventSource,
    TerminationReason,
    validate_transition,
)
from .protocol import SCHEMA_VERSION, SessionState, StageRequest, commit_acceptance

logger = logging.getLogger(__name__)

MARKER_NAME = "created.ok"
EID_PREFIX = "eid-"


@dataclass(frozen=True)
class StageRecord:
    """Per-stage metadata persisted as enclaves/<EID>/meta.json."""

    eid: str
    stage: str
    request_id: str
    backend: str
    tee_type: str
    rc: int
    status: str  # "completed" | "failed"; terminal and write-once
    started_at: float
    finished_at: float
    evidence_type: str
    measurement_hash: str
    session_cid: str
    session_epoch: int
    session_seq: int
    log_path: str = "run.log"
    failure_reason: Optional[str] = None
    timings: Optional[dict] = None  # pipeline transition timestamps
    evidence_extra: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.status not in ("completed", "failed"):
            raise ContractViolation(f"stage status must be terminal, got {self.status!r}")

    def to_json(self) -> dict:
        obj = asdict(self)
        obj["schema_version"] = SCHEMA_VERSION
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "StageRecord":
        fields = {k: v for k, v in obj.items() if k != "schema_version"}
        return cls(**fields)


class Acceptance(NamedTuple):
    """One accepts.log line, ``<request_id> <nonce_hex>``: an accepted
    request. ``validate_request`` binds the id to ``<epoch>-<seq>-``, so
    the line carries both."""

    request_id: str
    nonce: bytes
    epoch: int
    seq: int

    @classmethod
    def parse(cls, line: bytes) -> "Acceptance":
        """Parse a line without its newline; ValueError if malformed."""
        request_id, nonce_hex = line.decode().split(" ")
        epoch, seq, _ = request_id.split("-", 2)
        return cls(request_id, bytes.fromhex(nonce_hex), int(epoch), int(seq))


def record_to_json(rec: CompositeStateRecord) -> dict:
    obj = {
        "schema_version": SCHEMA_VERSION,
        "cid": rec.cid,
        "state": rec.state.value,
        "ver": rec.ver,
        "oci_status": rec.oci_status.value,
    }
    for key in ("exit_code", "anchor_pid"):
        val = getattr(rec, key)
        if val is not None:
            obj[key] = val
    return obj


def record_from_json(obj: dict) -> CompositeStateRecord:
    return CompositeStateRecord(
        cid=obj["cid"],
        state=LifecycleState(obj["state"]),
        ver=int(obj["ver"]),
        exit_code=obj.get("exit_code"),
        anchor_pid=obj.get("anchor_pid"),
    )


def event_to_json(ev: TerminationEvent) -> dict:
    return {
        "src": ev.src.value,
        "code": ev.code,
        "reason": ev.reason.value,
        "observed_at": ev.observed_at,
        "origin": ev.origin,
    }


def event_from_json(obj: dict) -> TerminationEvent:
    return TerminationEvent(
        src=EventSource(obj["src"]),
        code=int(obj["code"]),
        reason=TerminationReason(obj["reason"]),
        observed_at=float(obj["observed_at"]),
        origin=obj.get("origin", ""),
    )


class StateDir:
    """Handle on one instance's directory tree.

    Handles are cheap and not shared across threads; every caller opens its
    own. Cross-process consistency comes from lock files, atomic rename,
    and the version CAS, not from in-process synchronization.
    """

    def __init__(self, root: Path, cid: str) -> None:
        if not cid or "/" in cid or cid in (".", ".."):
            raise ContractViolation(f"invalid cid {cid!r}")
        self.cid = cid
        # Absolute paths keep spawned helpers (supervisor, stage programs)
        # independent of the caller's working directory.
        self.path = (Path(root) / cid).absolute()

    # -- paths ------------------------------------------------------------

    @property
    def state_path(self) -> Path:
        return self.path / "state.json"

    @property
    def session_path(self) -> Path:
        return self.path / "session.json"

    @property
    def accepts_path(self) -> Path:
        return self.path / "accepts.log"

    @property
    def requests_dir(self) -> Path:
        return self.path / "requests"

    @property
    def claimed_dir(self) -> Path:
        return self.path / "requests" / "claimed"

    @property
    def responses_dir(self) -> Path:
        return self.path / "responses"

    @property
    def enclaves_dir(self) -> Path:
        return self.path / "enclaves"

    @property
    def anchor_out_path(self) -> Path:
        return self.path / "anchor.out"

    @property
    def bundle_dir(self) -> Path:
        return self.path / "bundle"

    @property
    def rootfs_dir(self) -> Path:
        return self.bundle_dir / "rootfs"

    @property
    def bundle_config_path(self) -> Path:
        return self.bundle_dir / "config.json"

    @property
    def marker_path(self) -> Path:
        return self.path / MARKER_NAME

    @property
    def events_path(self) -> Path:
        return self.path / "events.json"

    @property
    def anchor_pid_path(self) -> Path:
        return self.path / "anchor.pid"

    @property
    def anchor_exit_path(self) -> Path:
        return self.path / "anchor_exit.json"

    @property
    def kill_marker_path(self) -> Path:
        return self.path / "kill.requested"

    @property
    def receipts_path(self) -> Path:
        return self.path / "exec.receipts"

    @property
    def wake_path(self) -> Path:
        return self.path / "wake"

    def _lock_path(self, name: str) -> Path:
        return self.path / f"{name}.lock"

    def state_lock(self, **kw):
        return fsutil.locked(self._lock_path("state.json"), **kw)

    def session_lock(self, **kw):
        return fsutil.locked(self._lock_path("session.json"), **kw)

    def events_lock(self, **kw):
        return fsutil.locked(self._lock_path("events.json"), **kw)

    def serve_lock(self, **kw):
        return fsutil.locked(self._lock_path("serve"), **kw)

    def enclave_dir(self, eid: str) -> Path:
        return self.enclaves_dir / eid

    def meta_path(self, eid: str) -> Path:
        return self.enclave_dir(eid) / "meta.json"

    def run_log_path(self, eid: str) -> Path:
        return self.enclave_dir(eid) / "run.log"

    def request_path(self, request_id: str) -> Path:
        return self.requests_dir / f"{request_id}.req"

    def claimed_path(self, request_id: str) -> Path:
        return self.claimed_dir / f"{request_id}.req"

    def started_marker_path(self, request_id: str) -> Path:
        return self.claimed_dir / f"{request_id}.started"

    def response_path(self, request_id: str) -> Path:
        return self.responses_dir / f"{request_id}.resp"

    # -- existence --------------------------------------------------------

    def is_created(self) -> bool:
        """True iff a create completed; a partial tree does not count."""
        return self.marker_path.exists()

    # -- create / delete ---------------------------------------------------

    def init(
        self,
        bundle_source: Path,
        session_seed: Optional[str] = None,
        *,
        reuse_bundle: bool = False,
    ) -> None:
        """Materialize the full layout; idempotent over a completed create.

        A partially materialized tree left by a crashed create is detected
        via the missing completion marker, discarded, and rebuilt, so the
        instance observably stays in the initial state until the marker is
        durable.
        """
        if self.is_created():
            logger.debug("create on existing %s is a no-op", self.cid)
            return
        if self.path.exists():
            logger.warning("discarding partial create for %s", self.cid)
            shutil.rmtree(self.path)
        self.path.mkdir(parents=True)
        crash_if("create:post-root")
        for d in (self.requests_dir, self.claimed_dir, self.responses_dir, self.enclaves_dir):
            d.mkdir(parents=True)
        crash_if("create:post-dirs")
        self._materialize_bundle(bundle_source, reuse_bundle=reuse_bundle)
        crash_if("create:post-bundle")
        self.anchor_out_path.touch()
        self.events_path.touch()
        self.accepts_path.touch()
        self.receipts_path.touch()
        for name in ("state.json", "session.json", "events.json", "serve"):
            self._lock_path(name).touch()
        self.save_session(SessionState(cid=self.cid, epoch=0, sk=_derive_session_key(self.cid, session_seed)))
        crash_if("create:post-session")
        rec = CompositeStateRecord(cid=self.cid, state=LifecycleState.PREPARED, ver=1)
        fsutil.atomic_write_json(self.state_path, record_to_json(rec))
        crash_if("create:pre-marker")
        fsutil.atomic_write_json(
            self.marker_path,
            {"cid": self.cid, "bundle_source": str(bundle_source), "created_at": time.time()},
        )

    def _materialize_bundle(self, bundle_source: Path, *, reuse_bundle: bool) -> None:
        """Copy the bundle's config subset and rootfs into the state tree.

        Warm creates hardlink rootfs files instead of copying them, falling
        back to copy across filesystems.
        """
        src = Path(bundle_source)
        self.bundle_dir.mkdir()
        shutil.copy2(src / "config.json", self.bundle_config_path)
        if reuse_bundle:
            def _link(s: str, d: str) -> None:
                try:
                    os.link(s, d)
                except OSError:
                    shutil.copy2(s, d)

            shutil.copytree(src / "rootfs", self.rootfs_dir, copy_function=_link)
        else:
            shutil.copytree(src / "rootfs", self.rootfs_dir)

    def delete(self) -> None:
        """Remove the tree; the marker goes first so a crash mid-delete
        still reads as absent and repeated deletes stay no-ops."""
        if not self.path.exists():
            return
        fsutil.remove_if_exists(self.marker_path)
        fsutil.fsync_dir(self.path)
        crash_if("delete:post-marker")
        shutil.rmtree(self.path, ignore_errors=True)

    # -- record -----------------------------------------------------------

    def read_record(self) -> Optional[CompositeStateRecord]:
        """The persisted record, or None meaning the initial state.

        A tree without a completion marker is a crashed create and reads as
        absent; a marker without a parseable state.json is corruption.
        """
        if not self.is_created():
            return None
        try:
            obj = fsutil.read_json(self.state_path, "state.json")
        except FileNotFoundError:
            raise CorruptStateError(f"{self.cid}: created marker present but state.json missing")
        try:
            return record_from_json(obj)
        except (KeyError, ValueError, TypeError) as exc:
            raise CorruptStateError(f"{self.cid}: malformed state.json: {exc}") from exc

    def update_record(
        self,
        mutation: Callable[[CompositeStateRecord], CompositeStateRecord],
        expected_ver: int,
    ) -> CompositeStateRecord:
        """Compare-and-swap: :meth:`update_record_rmw` that first requires
        the on-disk version to be expected_ver, else raises VersionConflict.
        """
        def cas(current: CompositeStateRecord) -> CompositeStateRecord:
            if current.ver != expected_ver:
                raise VersionConflict(
                    f"{self.cid}: expected ver {expected_ver}, found {current.ver}"
                )
            return mutation(current)

        new = self.update_record_rmw(cas)
        if new is None:
            raise AbsentRecordError(f"{self.cid}: no record")
        return new

    def update_record_rmw(
        self,
        mutation: Callable[[CompositeStateRecord], CompositeStateRecord],
    ) -> Optional[CompositeStateRecord]:
        """The one write path for the record after init.

        Reads, mutates and writes wholly under the state lock, so updates
        are linearizable and strictly version-ordered. Fails without
        writing when the mutation raises, changes the cid or takes an
        illegal state edge. Returning the input unchanged from the mutation
        skips the write. The new record is durable before this returns.
        Returns None when no record exists.
        """
        with self.state_lock():
            current = self.read_record()
            if current is None:
                return None
            desired = mutation(current)
            if desired is current:
                return current
            if desired.cid != current.cid:
                raise ContractViolation("cid is immutable")
            if not validate_transition(current.state, desired.state):
                raise TransitionError(
                    f"{self.cid}: illegal transition {current.state.value} -> {desired.state.value}"
                )
            new = desired.with_state(desired.state, ver=current.ver + 1)
            crash_if("update:pre-write")
            fsutil.atomic_write_json(self.state_path, record_to_json(new))
            return new

    # -- session ----------------------------------------------------------

    def load_session(self) -> SessionState:
        """The session as validation sees it: session.json's parameters with
        the current epoch's accepted requests folded in from accepts.log."""
        session = self.load_session_params()
        self.fold_accepts(session, 0)
        return session

    def load_session_params(self) -> SessionState:
        """session.json alone, without the journal's accepted requests."""
        try:
            obj = fsutil.read_json(self.session_path, "session.json")
        except FileNotFoundError:
            raise AbsentRecordError(f"{self.cid}: no session") from None
        try:
            return SessionState.from_json(obj)
        except (KeyError, ValueError, TypeError) as exc:
            raise CorruptStateError(f"{self.cid}: malformed session.json: {exc}") from exc

    def save_session(self, session: SessionState) -> None:
        """Replace session.json; create and start are its only writers."""
        fsutil.atomic_write_json(self.session_path, session.to_json())

    # -- acceptance journal -------------------------------------------------

    def read_accepts(self, pos: int = 0) -> tuple[list[bytes], int]:
        """The complete lines of accepts.log past byte offset pos (without
        their newlines), and the offset just after the last of them."""
        try:
            with open(self.accepts_path, "rb") as f:
                f.seek(pos)
                data = f.read()
        except FileNotFoundError:
            return [], pos
        end = data.rfind(b"\n") + 1
        return data[:end].splitlines(), pos + end

    def fold_accepts(self, session: SessionState, pos: int) -> int:
        """Apply the journal's complete lines past pos to session, skipping
        other epochs' lines; returns the offset after the last one read."""
        lines, end = self.read_accepts(pos)
        for line in lines:
            try:
                acc = Acceptance.parse(line)
            except ValueError as exc:
                raise CorruptStateError(f"{self.cid}: malformed accepts.log line {line!r}") from exc
            if acc.epoch == session.epoch:
                commit_acceptance(session, acc)
        return end

    def append_accept(self, pos: int, req: StageRequest) -> int:
        """Commit an acceptance: write its line at offset pos and fsync.

        The caller holds the session lock and has folded the journal up to
        pos, the end of its last complete line, so anything past pos is the
        torn tail of an append that crashed; it is cut off first. Returns
        the offset after the new line.
        """
        line = f"{req.request_id} {req.nonce.hex()}\n".encode()
        with open(self.accepts_path, "ab") as f:
            size = f.tell()
            if size < pos:
                raise CorruptStateError(f"{self.cid}: accepts.log is shorter than its folded prefix")
            if size > pos:
                f.truncate(pos)
            f.write(line)
            f.flush()
            os.fsync(f.fileno())
        return pos + len(line)

    # -- stage identifiers --------------------------------------------------

    def allocate_eid(self, epoch: int, seq: int) -> str:
        """Name the stage of the accepted request (epoch, seq) and create its
        directory.

        An existing directory is reused: a crash between this mkdir and the
        started marker leaves it empty (meta.json and backend work files
        only appear after the marker), and recovery binds the same name.
        """
        eid = f"{EID_PREFIX}{epoch}-{seq}"
        self.enclave_dir(eid).mkdir(exist_ok=True)
        return eid

    # -- spool ------------------------------------------------------------

    def spool_request(self, envelope: dict, request_id: str) -> Path:
        """Write the request durably, then ring the wake FIFO.

        The ring is best effort: the request file is already in place, so a
        lost ring costs serve one poll interval and never the request. It is
        skipped when no FIFO exists (no serve has run yet), when no serve
        has it open (ENXIO), when a wake is already pending (EAGAIN) and when
        ``wake`` is not a FIFO at all.
        """
        path = self.request_path(request_id)
        fsutil.atomic_write_json(path, envelope)
        try:
            fd = _open_fifo(self.wake_path, os.O_WRONLY)
            if fd is not None:
                try:
                    os.write(fd, b"\0")
                finally:
                    os.close(fd)
        except OSError:
            pass  # ENOENT, ENXIO, EAGAIN, or EPIPE when the reader just left
        return path

    @contextmanager
    def wake_fds(self) -> Iterator[list[int]]:
        """Serve's end of the wake FIFO: the descriptors to wait on.

        Makes the FIFO if absent, so instances created before it existed are
        woken too. The FIFO is opened read-write: a read-only end reaches
        end-of-file once the last spooler closes, and then stays readable
        forever; holding a write end too prevents that (fifo(7)). Yields an
        empty list when ``wake`` is not a usable FIFO (the directory is host
        state), and serve then only polls.
        """
        fd = None
        try:
            with suppress(FileExistsError):
                os.mkfifo(self.wake_path, 0o600)
            fd = _open_fifo(self.wake_path, os.O_RDWR)
        except OSError as exc:
            logger.warning("%s: wake FIFO unusable (%s); serve polls only", self.cid, exc)
        else:
            if fd is None:
                logger.warning("%s: wake is not a FIFO; serve polls only", self.cid)
        try:
            yield [] if fd is None else [fd]
        finally:
            if fd is not None:
                os.close(fd)

    def pending_requests(self) -> list[Path]:
        """Pending request files, lowest (epoch, seq) first.

        Request file names embed epoch and sequence; numeric ordering here
        is what lets the serve loop accept in sequence order.
        """
        def key(p: Path) -> tuple:
            parts = p.stem.split("-", 2)
            try:
                return (0, int(parts[0]), int(parts[1]), p.name)
            except (ValueError, IndexError):
                return (1, 0, 0, p.name)

        return sorted(self.requests_dir.glob("*.req"), key=key)

    def claim_request(self, pending: Path) -> Optional[Path]:
        """Atomically claim one pending request via rename.

        Exactly one claimer wins; losers observe absence and move on.
        """
        target = self.claimed_dir / pending.name
        try:
            os.rename(pending, target)
        except FileNotFoundError:
            return None
        crash_if("claim:post-rename")
        return target

    def requeue_claimed(self, claimed: Path) -> None:
        os.rename(claimed, self.requests_dir / claimed.name)
        fsutil.fsync_dir(self.requests_dir)

    def claimed_requests(self) -> list[Path]:
        return sorted(self.claimed_dir.glob("*.req"))

    def write_started_marker(self, request_id: str, eid: str, stage: str) -> None:
        fsutil.atomic_write_json(
            self.started_marker_path(request_id),
            {"request_id": request_id, "eid": eid, "stage": stage, "ts": time.time()},
        )

    def read_started_marker(self, request_id: str) -> Optional[dict]:
        path = self.started_marker_path(request_id)
        try:
            return fsutil.read_json(path, "started marker")
        except FileNotFoundError:
            return None

    def started_markers(self) -> list[dict]:
        out = []
        for p in sorted(self.claimed_dir.glob("*.started")):
            try:
                out.append(fsutil.read_json(p, "started marker"))
            except (FileNotFoundError, CorruptStateError):
                continue
        return out

    def in_flight_count(self) -> int:
        """Stages bound to an identifier but not yet recorded terminal."""
        return sum(1 for m in self.started_markers() if not self.meta_path(m["eid"]).exists())

    # -- stage records and responses ---------------------------------------

    def write_stage_record(self, eid: str, record: StageRecord, log_bytes: bytes) -> None:
        """Persist run.log then meta.json, both write-once.

        meta.json is the durable "executed" commitment: recovery treats its
        presence as proof the outcome was recorded, and its absence (with a
        started marker) as an ambiguous execution.
        """
        enclave = self.enclave_dir(eid)
        if not enclave.is_dir():
            raise ContractViolation(f"enclave dir missing for {eid}")
        if record.eid != eid:
            raise ContractViolation("record/eid mismatch")
        if record.session_cid != self.cid:
            raise ContractViolation("stage record bound to a different instance")
        if self.meta_path(eid).exists():
            raise ExactlyOnceViolation(f"meta.json already written for {eid}")
        fsutil.atomic_write_bytes(self.run_log_path(eid), log_bytes)
        crash_if("finalize:post-log")
        payload = (fsutil.json_canonical(record.to_json()) + "\n").encode()
        fsutil.write_once_bytes(self.meta_path(eid), payload)

    def read_stage_record(self, eid: str) -> StageRecord:
        obj = fsutil.read_json(self.meta_path(eid), "meta.json")
        try:
            return StageRecord.from_json(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptStateError(f"malformed meta.json for {eid}: {exc}") from exc

    def list_eids(self) -> list[str]:
        if not self.enclaves_dir.is_dir():
            return []
        return sorted(p.name for p in self.enclaves_dir.iterdir() if p.is_dir())

    def stage_records(self) -> list[StageRecord]:
        out = []
        for eid in self.list_eids():
            if self.meta_path(eid).exists():
                out.append(self.read_stage_record(eid))
        return out

    def spool_response(self, request_id: str, envelope: dict) -> Path:
        """Write-once response file; the visible commit point for the anchor."""
        path = self.response_path(request_id)
        crash_if("response:pre-write")
        fsutil.write_once_bytes(path, (fsutil.json_canonical(envelope) + "\n").encode())
        crash_if("response:post-write")
        return path

    def has_response(self, request_id: str) -> bool:
        return self.response_path(request_id).exists()

    # -- termination events --------------------------------------------------

    def append_event(self, event: TerminationEvent) -> bool:
        """Journal a termination event, deduplicated by non-empty origin so
        concurrent finalizers cannot double-record one observation."""
        with self.events_lock():
            if event.origin and any(e.origin == event.origin for e in self._load_events_unlocked()):
                return False
            fsutil.append_line(self.events_path, fsutil.json_canonical(event_to_json(event)))
            return True

    def _load_events_unlocked(self) -> list[TerminationEvent]:
        try:
            text = self.events_path.read_text()
        except FileNotFoundError:
            return []
        events = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                events.append(event_from_json(json.loads(line)))
            except (ValueError, KeyError) as exc:
                raise CorruptStateError(f"{self.cid}: malformed event line: {exc}") from exc
        return events

    def load_events(self) -> list[TerminationEvent]:
        with self.events_lock():
            return self._load_events_unlocked()

    # -- anchor bookkeeping ---------------------------------------------------

    def read_anchor_exit(self) -> Optional[dict]:
        try:
            return fsutil.read_json(self.anchor_exit_path, "anchor_exit.json")
        except FileNotFoundError:
            return None

    def read_anchor_pid(self) -> Optional[int]:
        try:
            return int(fsutil.read_json(self.anchor_pid_path, "anchor.pid")["pid"])
        except (FileNotFoundError, KeyError, ValueError, CorruptStateError):
            return None


def _open_fifo(path: Path, flags: int) -> Optional[int]:
    """Open path non-blocking without following a symlink; None, having
    neither read nor written anything, when it is not a FIFO."""
    fd = os.open(path, flags | os.O_NONBLOCK | os.O_NOFOLLOW)
    if stat.S_ISFIFO(os.fstat(fd).st_mode):
        return fd
    os.close(fd)
    return None


def _derive_session_key(cid: str, seed: Optional[str]) -> bytes:
    import hashlib
    import secrets

    if seed is None:
        return secrets.token_bytes(32)
    return hashlib.sha256(f"{seed}:{cid}".encode()).digest()
