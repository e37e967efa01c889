"""The six lifecycle entrypoints, callable in-process.

Each entrypoint is designed to run as a separate short-lived invocation:
all cross-call consistency comes from the state directory (version CAS,
locks, atomic writes), and every entrypoint is idempotent with respect to
the persisted record. The CLI wraps these functions and maps raised errors
to exit codes.

Start flow: start forks the anchor supervisor (supervise.launch) and
returns once the supervisor reports over a pipe that anchor.pid is durable;
a failed launch raises and leaves the instance Prepared.

Termination flow: the anchor supervisor records the anchor's exit
observation; stage failures journal TEE-error events as they happen; kill
journals a killed event. wait (or kill) reduces the journal to a single
dominant event, persists the exit code, and picks Stopped for a clean
finish or kill, Failed otherwise. A signal death caused by our own kill is
represented by the killed event alone, not double-counted as an anchor
error.
"""

from __future__ import annotations

import logging
import os
import signal
import time
from pathlib import Path
from typing import Callable, Optional

from .backends.base import TIMEOUT_RC
from .bundle import load_bundle
from .errors import (
    AbsentRecordError,
    C4Error,
    CorruptStateError,
    IllegalStateError,
    InternalError,
    WaitTimeout,
)
from .fsutil import atomic_write_json
from .lifecycle import (
    DEFAULT_UNTRUSTED_EXIT_CODE,
    EventSource,
    HealthEvidence,
    LifecycleState,
    ObservabilityEvidence,
    TERMINAL_STATES,
    TeeEvidence,
    TerminationEvent,
    TerminationReason,
    TrustEvidence,
    evaluate_observability,
    evaluate_readiness,
    is_done,
    reduce_termination,
)
from .statedir import StateDir
from .supervise import READY, launch

logger = logging.getLogger(__name__)

DEFAULT_KILL_GRACE_S = 5.0
WAIT_POLL_S = 0.05


def _statedir(root: Path, cid: str) -> StateDir:
    return StateDir(Path(root), cid)


def _require_record(sd: StateDir):
    rec = sd.read_record()
    if rec is None:
        raise AbsentRecordError(f"{sd.cid}: not found")
    return rec


def bundle_c_untrusted(sd: StateDir) -> int:
    """The bundle's trust-violation exit code; the default if unreadable."""
    try:
        return load_bundle(sd.bundle_dir).c4.c_untrusted
    except C4Error:
        return DEFAULT_UNTRUSTED_EXIT_CODE


def _anchor_alive(sd: StateDir, pid: Optional[int]) -> bool:
    if sd.read_anchor_exit() is not None:
        return False
    if pid is None:
        return False
    try:
        os.kill(pid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


# ---------------------------------------------------------------------------
# create / delete
# ---------------------------------------------------------------------------


def cmd_create(root: Path, cid: str, bundle_path: Path, *, reuse_bundle: bool = False) -> dict:
    """Materialize persistent state; never executes a protected stage.

    Repeating create on an existing instance is a success no-op; a create
    that fails leaves no record behind.
    """
    bundle = load_bundle(Path(bundle_path))
    sd = _statedir(root, cid)
    sd.init(bundle.path, bundle.c4.session_seed, reuse_bundle=reuse_bundle)
    rec = _require_record(sd)
    return {"cid": cid, "state": rec.state.value, "ver": rec.ver}


def cmd_delete(root: Path, cid: str, *, force: bool = False) -> dict:
    """Remove persistent artifacts once terminal; --force kills first.

    Deleting an absent instance is an idempotent success (it is already in
    the initial state).
    """
    sd = _statedir(root, cid)
    try:
        rec = sd.read_record()
    except CorruptStateError:
        if not force:
            raise
        rec = None
    if rec is not None and rec.state not in TERMINAL_STATES:
        if not force:
            raise IllegalStateError(f"{cid}: delete is permitted only after terminal states")
        cmd_kill(root, cid)
    # A fail-fast instance turns Failed while its anchor still runs, and kill
    # on a terminal instance is a no-op: end the anchor before its tree goes.
    pid = (rec.anchor_pid if rec else None) or sd.read_anchor_pid()
    if _anchor_alive(sd, pid):
        _signal_group(pid, signal.SIGKILL)
        _poll_until(lambda: sd.read_anchor_exit() is not None, DEFAULT_KILL_GRACE_S)
    sd.delete()
    return {"cid": cid, "deleted": True}


# ---------------------------------------------------------------------------
# start
# ---------------------------------------------------------------------------


def cmd_start(root: Path, cid: str) -> dict:
    """Launch or reattach to the anchor and move the instance to Running."""
    sd = _statedir(root, cid)
    rec = _require_record(sd)
    if rec.state in TERMINAL_STATES:
        raise IllegalStateError(f"{cid}: cannot start a {rec.state.value} instance")

    if rec.state is LifecycleState.RUNNING:
        pid = rec.anchor_pid or sd.read_anchor_pid()
        if _anchor_alive(sd, pid):
            return {"cid": cid, "state": rec.state.value, "pid": pid, "reattached": True}
        _record_anchor_exit_event(sd)
        raise IllegalStateError(
            f"{cid}: recorded state is running but the anchor is gone; run wait to settle it"
        )
    if sd.kill_marker_path.exists():  # a kill died before its record update
        cmd_kill(root, cid)
        raise IllegalStateError(f"{cid}: cannot start a killed instance")

    # Prepared: fresh epoch for the new anchor, then fork the supervisor.
    with sd.session_lock():
        session = sd.load_session_params()
        session.advance_epoch()
        sd.save_session(session)
    for stale in (sd.anchor_pid_path, sd.anchor_exit_path):
        try:
            os.unlink(stale)
        except FileNotFoundError:
            pass

    report = launch(sd)
    if report != READY:
        reason = report.decode(errors="replace") or "the supervisor exited without a report"
        raise InternalError(f"{cid}: anchor failed to launch: {reason}")
    pid = sd.read_anchor_pid()

    new = sd.update_record(
        lambda cur: cur.with_state(LifecycleState.RUNNING, anchor_pid=pid), rec.ver
    )
    return {"cid": cid, "state": new.state.value, "pid": pid}


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------


def cmd_state(root: Path, cid: str) -> dict:
    """OCI-style status envelope plus the observability annotations.

    The record supplies the lifecycle; the flags are derived here from the
    stage records and the in-flight markers. The newest record (by finish
    time, then identifier) gives the phase's last exit; the newest record
    of an executed stage gives the trust and health evidence.
    """
    sd = _statedir(root, cid)
    rec = _require_record(sd)
    pid = rec.anchor_pid or sd.read_anchor_pid()
    alive = rec.state is LifecycleState.RUNNING and _anchor_alive(sd, pid)
    try:
        require_conf = load_bundle(sd.bundle_dir).c4.require_conf
    except C4Error:
        require_conf = False

    def newest(records):
        return max(records, key=lambda r: (r.finished_at, r.eid), default=None)

    records = sd.stage_records()
    last = newest(records)
    executed = newest(r for r in records if r.evidence_type != "none")
    trust_ev, health_ev = TrustEvidence(), HealthEvidence()
    if executed is not None:
        trust_ev = TrustEvidence(e_att=True, e_meas=executed.measurement_hash, e_bind=True)
        health_ev = HealthEvidence(e_dep=True, e_res=True, e_perf=executed.rc != TIMEOUT_RC)
    tee_ev = TeeEvidence(e_call=sd.in_flight_count(), e_exit=last.rc if last else None)
    trust, health, phase = evaluate_observability(ObservabilityEvidence(trust_ev, health_ev, tee_ev))
    ready = evaluate_readiness(
        rec,
        prepared_r=alive,
        prepared_t=last is not None,
        require_conf=require_conf,
        trust=trust,
    )
    envelope = {
        "id": cid,
        "status": rec.oci_status.value,
        "bundle": str(sd.bundle_dir),
        "annotations": {
            "trust_flag": trust.value,
            "health_flag": health.value,
            "tee_phase": phase.value,
            "ready": ready,
        },
    }
    if alive and pid is not None:
        envelope["pid"] = pid
    if rec.exit_code is not None:
        envelope["exit_code"] = rec.exit_code
    return envelope


# ---------------------------------------------------------------------------
# wait / kill: termination reduction
# ---------------------------------------------------------------------------


def _record_anchor_exit_event(sd: StateDir) -> None:
    """Journal the anchor's exit observation exactly once.

    A signal death while a kill is in progress is the kill's own effect and
    is represented by the killed event, not an anchor error.
    """
    obs = sd.read_anchor_exit()
    if obs is None:
        return
    code = int(obs.get("exit_code", 1))
    sig = obs.get("term_signal")
    if sig is not None and sd.kill_marker_path.exists():
        return
    reason = TerminationReason.NORMAL if code == 0 else TerminationReason.ERROR
    sd.append_event(
        TerminationEvent(
            src=EventSource.REE,
            code=code,
            reason=reason,
            observed_at=float(obs.get("finished_at", time.time())),
            origin="anchor-exit",
        )
    )


def _finalize_terminal(sd: StateDir):
    """Reduce journaled events and persist the terminal record, deciding
    under the state lock so no concurrent writer can interleave."""
    c_untrusted = bundle_c_untrusted(sd)

    def settle(cur):
        if cur.state in TERMINAL_STATES:
            return cur
        events = sd.load_events()
        if not events:
            raise InternalError(f"{sd.cid}: no termination events to reduce")
        exit_code, dominant = reduce_termination(events, c_untrusted)
        if is_done(dominant) or dominant.reason is TerminationReason.KILLED:
            return cur.with_state(LifecycleState.STOPPED, exit_code=exit_code)
        return cur.with_state(LifecycleState.FAILED, exit_code=exit_code)

    rec = sd.update_record_rmw(settle)
    if rec is None:
        raise AbsentRecordError(f"{sd.cid}: not found")
    return rec


def cmd_wait(root: Path, cid: str, *, timeout: Optional[float] = None) -> dict:
    """Block (or poll) until terminal; report the composite exit result.

    Repeated waits observe the same terminal state and exit code. A timeout
    leaves the record untouched and exits distinctly.
    """
    sd = _statedir(root, cid)
    _require_record(sd)
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        rec = _require_record(sd)
        if rec.state in TERMINAL_STATES:
            return {"cid": cid, "state": rec.state.value, "exit_code": rec.exit_code}
        if rec.state is LifecycleState.RUNNING and sd.read_anchor_exit() is not None:
            _record_anchor_exit_event(sd)
            _await_stage_drain(sd, DEFAULT_KILL_GRACE_S)
            _finalize_terminal(sd)
            continue
        if deadline is not None and time.monotonic() >= deadline:
            raise WaitTimeout(f"{cid}: still {rec.state.value}")
        time.sleep(WAIT_POLL_S)


def cmd_kill(
    root: Path,
    cid: str,
    *,
    sig: int = signal.SIGTERM,
    grace_s: float = DEFAULT_KILL_GRACE_S,
) -> dict:
    """Terminate the anchor, cancel in-flight stages, settle a terminal state.

    Kill on a terminal instance is a no-op success; kill on a prepared
    instance stops it without ever starting the anchor.
    """
    sd = _statedir(root, cid)
    rec = _require_record(sd)
    if rec.state in TERMINAL_STATES:
        return {"cid": cid, "state": rec.state.value, "noop": True}

    atomic_write_json(sd.kill_marker_path, {"signal": sig, "ts": time.time()})

    if rec.state is LifecycleState.RUNNING:
        pid = rec.anchor_pid or sd.read_anchor_pid()
        if sd.read_anchor_exit() is None and pid is not None:
            _signal_group(pid, sig)
            if not _poll_until(lambda: sd.read_anchor_exit() is not None, grace_s):
                _signal_group(pid, signal.SIGKILL)
                _poll_until(lambda: sd.read_anchor_exit() is not None, grace_s)
        _record_anchor_exit_event(sd)
        _await_stage_drain(sd, grace_s)

    sd.append_event(
        TerminationEvent(
            src=EventSource.REE,
            code=0,
            reason=TerminationReason.KILLED,
            observed_at=time.time(),
            origin="kill",
        )
    )
    final = _finalize_terminal(sd)
    return {"cid": cid, "state": final.state.value, "exit_code": final.exit_code}


def _signal_group(pid: int, sig: int) -> None:
    try:
        os.killpg(pid, sig)
    except ProcessLookupError:
        pass
    except PermissionError:
        try:
            os.kill(pid, sig)
        except ProcessLookupError:
            pass


def _poll_until(done: Callable[[], bool], timeout_s: float) -> bool:
    """Poll done every 20 ms until it holds (True) or timeout_s passes (False)."""
    deadline = time.monotonic() + timeout_s
    while not done():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)
    return True


def _await_stage_drain(sd: StateDir, timeout_s: float) -> None:
    """In-flight stages observe the kill marker and cancel; wait briefly for
    their records to settle so the terminal reduction sees them."""
    if not _poll_until(lambda: sd.in_flight_count() == 0, timeout_s):
        logger.warning("%s: stages still in flight after kill grace", sd.cid)
