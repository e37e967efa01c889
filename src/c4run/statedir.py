"""Durable per-instance state directory: the untrusted host-side substrate.

Layout under ``<root>/<cid>/``:

    state.json            lifecycle record (see CompositeStateRecord)
    session.json          session parameters: cid, epoch, key; written only
                          by create and start
    accepts.log           acceptance journal, one line per accepted request
                          (``<request_id> <nonce_hex>``), under the session lock
    requests/             pending request files <request_id>.req
    requests/claimed/     claimed request files
    responses/            response files <request_id>.resp
    enclaves/<EID>/       per-stage meta.json (see StageRecord) + run.log;
                          EID is eid-<epoch>-<seq> of the accepted request
    anchor.out            anchor stdout/stderr capture
    bundle/               materialized bundle (config.json + rootfs/)
    created.ok            create-completion marker
    events.json           termination-event journal (one JSON object per
                          line), appended under a flock on itself
    exec.receipts         execution receipts, one line appended before each
                          backend run under a flock on itself: what says
                          the request's backend may have been touched
    kill.requested        kill marker: stages cancel, serve stops, start refuses
    anchor.pid            written by the anchor supervisor once the anchor
                          runs; start returns only after it is durable
    anchor_exit.json      the anchor's exit, written by the supervisor that
                          reaped it (never for an anchor that failed to spawn)
    wake                  FIFO doorbell: spool_request and the anchor
                          supervisor ring it, serve waits on it (made by
                          serve, not by create)
    spare/                serve's stock of empty files and directories,
                          made while it is idle and renamed or linked into
                          place as temp files and enclaves/<EID> (made by
                          serve, emptied when it stops and by recover)
    *.lock                advisory lock files: state.json, session.json
                          and serve

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
- Journal tails: accepts.log, events.json and exec.receipts are read up
  to their last newline (fsutil.read_lines). A line with no newline is the
  torn tail of an append that crashed before its fsync: that acceptance,
  event or receipt never committed, and the next append cuts it off. A
  complete line that does not parse is corruption. A missing accepts.log
  or exec.receipts raises, as a corrupt state.json does: recovery and the
  exactly-once rule read each as a commit record.
- Write-once artifacts: responses and stage records cannot be overwritten.
- The wake FIFO carries no state: the spool files and anchor_exit.json are
  the only truth, so a lost or missing ring delays serve by one poll
  interval and nothing else.

A present file that is not a regular file or does not decode is corrupt,
as fsutil alone decides, and raises: it is never read as absent (anchor.pid
reads as unknown), or anyone could reset the lifecycle by truncating a file.
"""

from __future__ import annotations

import math
import os
import shutil
import stat
import time
from contextlib import contextmanager, suppress
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
    warn,
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

MARKER_NAME = "created.ok"


def stage_eid(epoch: int, seq: int) -> str:
    """The one name of the stage of the accepted request (epoch, seq)."""
    return f"eid-{epoch}-{seq}"


def request_epoch_seq(request_id: str) -> tuple[int, int]:
    """The (epoch, seq) of an ``<epoch>-<seq>-`` id; ValueError otherwise."""
    epoch, seq, _ = request_id.split("-", 2)
    return int(epoch), int(seq)


#: The evidence_type of a stage whose backend never ran: a prepare failure
#: or an ambiguous execution failed by recovery.
NOT_EXECUTED = "none"


class StageRecord(NamedTuple):
    """Per-stage metadata persisted as enclaves/<EID>/meta.json.

    meta.json stores each field but ``eid``, which is the directory it is
    read from, and nothing that a path, the bundle or another field holds:
    the stage's instance and (epoch, seq) are in its path and request id,
    its backend is the bundle's, and its status follows from ``rc``.
    """

    eid: str
    request_id: str
    stage: str
    tee_type: str
    rc: int
    evidence_type: str
    measurement_hash: str
    failure_reason: Optional[str]
    timings: dict  # pipeline transition timestamps
    evidence_extra: Optional[dict]

    @property
    def status(self) -> str:
        return "completed" if self.rc == 0 else "failed"

    @property
    def executed(self) -> bool:
        """Whether the backend ran: only then is there evidence."""
        return self.evidence_type != NOT_EXECUTED

    def to_json(self) -> dict:
        obj = self._asdict()
        del obj["eid"]  # the directory meta.json is stored in
        obj["schema_version"] = SCHEMA_VERSION
        return obj

    @classmethod
    def from_json(cls, eid: str, obj: dict) -> "StageRecord":
        """The record in meta.json obj of stage eid; other keys are ignored.
        A missing key raises KeyError, and timings without a numeric
        finished_at, by which `state` orders records, ValueError."""
        record = cls(eid, *(obj[key] for key in cls._fields[1:]))
        if not isinstance(record.timings["finished_at"], (int, float)):
            raise ValueError("timings.finished_at is not a time")
        return record


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
        return cls(request_id, bytes.fromhex(nonce_hex), *request_epoch_seq(request_id))


def record_to_json(rec: CompositeStateRecord) -> dict:
    obj = {
        "schema_version": SCHEMA_VERSION,
        "cid": rec.cid,
        "state": rec.state.value,
        "ver": rec.ver,
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
        anchor_pid=_pid(obj.get("anchor_pid")),
    )


def _pid(value) -> Optional[int]:
    """None or a positive int, which no kill(2) reads as a process group."""
    if value is not None and (type(value) is not int or value < 1):
        raise ValueError(f"not a pid: {value!r}")
    return value


def _anchor_exit(obj: dict) -> dict:
    """obj, once its exit_code, term_signal and finished_at are what wait and kill reduce."""
    code, sig = obj["exit_code"], obj["term_signal"]
    if type(code) is not int or not 0 <= code <= 255 or type(sig) not in (int, type(None)):
        raise ValueError("anchor_exit.json holds no exit status")
    if not math.isfinite(obj["finished_at"]):
        raise ValueError("anchor_exit.json holds no exit time")
    return obj


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

    A handle holds only ``cid`` and ``path``: cheap, and safe to share across
    threads, as a serve's loops do. Consistency comes from lock files,
    atomic rename, and the version CAS, not from in-process synchronization.
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

    @property
    def spare_dir(self) -> Path:
        return self.path / "spare"

    def _lock_path(self, name: str) -> Path:
        return self.path / f"{name}.lock"

    def state_lock(self, **kw):
        return fsutil.locked(self._lock_path("state.json"), **kw)

    def session_lock(self, **kw):
        return fsutil.locked(self._lock_path("session.json"), **kw)

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
            return
        if self.path.exists():
            warn(self.cid, "discarding partial create")
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
        for name in ("state.json", "session.json", "serve"):
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
            return fsutil.read_json(self.state_path, "state.json", record_from_json)
        except FileNotFoundError:
            raise CorruptStateError(f"{self.cid}: created marker present but state.json missing")

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
            return fsutil.read_json(self.session_path, "session.json", SessionState.from_json)
        except FileNotFoundError:
            raise AbsentRecordError(f"{self.cid}: no session") from None

    def save_session(self, session: SessionState) -> None:
        """Replace session.json; create and start are its only writers."""
        fsutil.atomic_write_json(self.session_path, session.to_json())

    # -- acceptance journal -------------------------------------------------

    def read_accepts(self, pos: int = 0) -> tuple[list[bytes], int]:
        """The complete lines of accepts.log past byte offset pos (without
        their newlines), and the offset just after the last of them.

        A missing journal is corruption, not an empty epoch: init creates
        it before the fsynced completion marker, and reading it as empty
        would let serve accept and run an accepted request again.
        """
        try:
            return fsutil.read_lines(self.accepts_path, pos)
        except FileNotFoundError:
            raise _missing(self.accepts_path) from None

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
        """Commit an acceptance: append its line at offset pos, the end of
        the journal the caller folded under the session lock. Returns the
        offset after the new line."""
        return fsutil.append_line(self.accepts_path, f"{req.request_id} {req.nonce.hex()}".encode(), pos)

    # -- stage identifiers --------------------------------------------------

    def allocate_eid(self, epoch: int, seq: int, spares: Optional[fsutil.Spares] = None) -> str:
        """Name the stage of the accepted request (epoch, seq) and create its
        directory, by renaming a stocked spare directory into place if there
        is one.

        An existing directory is reused: a crash between this mkdir and the
        request's receipt leaves it empty or holding what prepare made
        (meta.json and the backend's own work only appear after the
        receipt), and recovery binds the same name.
        """
        eid = stage_eid(epoch, seq)
        path = self.enclave_dir(eid)
        spare = spares.directory() if spares is not None else None
        if spare is not None:
            try:
                os.rename(spare, path)  # also replaces an empty directory
                return eid
            except OSError:
                os.rmdir(spare)
        path.mkdir(exist_ok=True)
        return eid

    # -- spool ------------------------------------------------------------

    def spool_request(self, envelope: dict, request_id: str) -> Path:
        """Write the request durably, then ring the wake FIFO."""
        path = self.request_path(request_id)
        fsutil.atomic_write_json(path, envelope)
        self.ring_wake()
        return path

    def ring_wake(self) -> None:
        """Wake an idle serve to look at the directory again.

        Rung by spool_request once a request file is in place and by the
        anchor supervisor once anchor_exit.json is. The ring is best
        effort: the file it announces is already durable, so a lost ring
        costs serve one poll interval and nothing else. It is skipped when
        no FIFO exists (no serve has run yet), when no serve has it open
        (ENXIO), when a wake is already pending (EAGAIN) and when ``wake``
        is not a FIFO at all.
        """
        try:
            fd = _open_fifo(self.wake_path, os.O_WRONLY)
            if fd is not None:
                try:
                    os.write(fd, b"\0")
                finally:
                    os.close(fd)
        except OSError:
            pass  # ENOENT, ENXIO, EAGAIN, or EPIPE when the reader just left

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
            warn(self.cid, "wake FIFO unusable; serve polls only", error=str(exc))
        else:
            if fd is None:
                warn(self.cid, "wake is not a FIFO; serve polls only")
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
            try:
                return (0, *request_epoch_seq(p.stem), p.name)
            except ValueError:
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

    # -- execution receipts --------------------------------------------------

    def write_started_marker(self, request_id: str, eid: str, stage: str, backend: str) -> None:
        """Commit "the request's backend may now be touched": append and
        fsync its receipt line, under a flock on the journal. Adapters call
        this first in every execute, so no backend work precedes it."""
        line = {"request_id": request_id, "eid": eid, "stage": stage, "backend": backend, "ts": time.time()}
        try:
            with fsutil.locked(self.receipts_path, create=False):
                fsutil.append_line(self.receipts_path, fsutil.json_canonical(line).encode())
        except FileNotFoundError:
            raise _missing(self.receipts_path) from None
        crash_if("execute:post-receipt")

    def touched(self) -> dict[str, float]:
        """The ids of the requests with a complete receipt line, each with
        the ts of its first: the requests whose backend may have run."""
        touched: dict[str, float] = {}
        for receipt in load_receipts(self.receipts_path):
            touched.setdefault(receipt["request_id"], receipt["ts"])
        return touched

    def in_flight_count(self) -> int:
        """Claims with a receipt whose stage is not yet recorded; a claim
        named after no ``<epoch>-<seq>-`` id counts as none. The journal is
        read only while a claim exists."""
        claims = {p.stem for p in self.claimed_requests()}
        touched = self.touched() if claims else {}
        eids = []
        for request_id in claims & touched.keys():
            with suppress(ValueError):
                eids.append(stage_eid(*request_epoch_seq(request_id)))
        return sum(1 for eid in eids if not self.meta_path(eid).exists())

    # -- stage records and responses ---------------------------------------

    def write_stage_record(
        self, record: StageRecord, log_bytes: bytes, spares: Optional[fsutil.Spares] = None
    ) -> None:
        """Persist run.log then meta.json in record.eid, both write-once.

        meta.json is the durable "executed" commitment: recovery treats its
        presence as proof the outcome was recorded, and its absence (with a
        receipt) as an ambiguous execution.
        """
        eid = record.eid
        if not self.enclave_dir(eid).is_dir():
            raise ContractViolation(f"enclave dir missing for {eid}")
        if self.meta_path(eid).exists():
            raise ExactlyOnceViolation(f"meta.json already written for {eid}")
        fsutil.atomic_write_bytes(self.run_log_path(eid), log_bytes, spares)
        crash_if("finalize:post-log")
        payload = (fsutil.json_canonical(record.to_json()) + "\n").encode()
        fsutil.write_once_bytes(self.meta_path(eid), payload, spares)

    def read_stage_record(self, eid: str) -> StageRecord:
        return fsutil.read_json(self.meta_path(eid), "meta.json", lambda obj: StageRecord.from_json(eid, obj))

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

    def spool_response(self, request_id: str, envelope: dict, spares: Optional[fsutil.Spares] = None) -> Path:
        """Write-once response file; the visible commit point for the anchor."""
        path = self.response_path(request_id)
        crash_if("response:pre-write")
        fsutil.write_once_bytes(path, (fsutil.json_canonical(envelope) + "\n").encode(), spares)
        crash_if("response:post-write")
        return path

    def has_response(self, request_id: str) -> bool:
        return self.response_path(request_id).exists()

    # -- termination events --------------------------------------------------

    def append_event(self, event: TerminationEvent) -> bool:
        """Journal a termination event, deduplicated by non-empty origin so
        concurrent finalizers cannot double-record one observation."""
        with fsutil.locked(self.events_path):
            lines, end = fsutil.read_lines(self.events_path)
            if event.origin and any(e.origin == event.origin for e in self._parse_events(lines)):
                return False
            fsutil.append_line(self.events_path, fsutil.json_canonical(event_to_json(event)).encode(), end)
            return True

    def load_events(self) -> list[TerminationEvent]:
        """The journalled events; a torn tail is no event, so no lock."""
        try:
            return self._parse_events(fsutil.read_lines(self.events_path)[0])
        except FileNotFoundError:
            return []

    def _parse_events(self, lines: list[bytes]) -> list[TerminationEvent]:
        return [fsutil.decode_json(line, f"line {n} of {self.events_path}", event_from_json)
                for n, line in enumerate(lines, 1)]

    # -- anchor bookkeeping ---------------------------------------------------

    def read_anchor_exit(self) -> Optional[dict]:
        """The supervisor's record of the anchor's exit, or None before it."""
        try:
            return fsutil.read_json(self.anchor_exit_path, "anchor_exit.json", _anchor_exit)
        except FileNotFoundError:
            return None

    def read_anchor_pid(self) -> Optional[int]:
        """The pid in anchor.pid; None, meaning unknown, on any failure."""
        try:
            return fsutil.read_json(self.anchor_pid_path, "anchor.pid", lambda obj: _pid(obj["pid"]))
        except (FileNotFoundError, CorruptStateError):
            return None


def load_receipts(path: Path) -> list[dict]:
    """The receipts in the journal at path (fsutil.read_lines: a torn tail
    is no receipt). A missing journal, or a complete line that is not an
    object with a string request_id and a finite ts, is CorruptStateError."""
    try:
        lines, _ = fsutil.read_lines(path)
    except FileNotFoundError:
        raise _missing(path) from None
    return [fsutil.decode_json(line, f"line {n} of {path}", _receipt) for n, line in enumerate(lines, 1)]


def _receipt(obj: dict) -> dict:
    if not isinstance(obj["request_id"], str) or not math.isfinite(obj["ts"]):  # a non-number ts: TypeError
        raise ValueError("not a receipt: a request_id string and a finite ts")
    return obj


def _missing(path: Path) -> CorruptStateError:
    return CorruptStateError(f"{path.parent.name}: {path.name} is missing")


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

    if seed is None:
        return os.urandom(32)
    return hashlib.sha256(f"{seed}:{cid}".encode()).digest()
