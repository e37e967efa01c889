"""Mechanical artifact and state audits.

These implement the invariant checks the correctness metrics are built on:
every acceptance journal line must parse and name a request id, nonce and
(epoch, seq) not journalled before in its epoch; per accepted request the
audit verifies a fresh stage directory, a well-formed record named after its
request's (epoch, seq), the run log, and exactly one response whose fields
match the record; the instance record is
checked against the projection and the replayed termination journal.
Validation is over artifacts only — the audit never inspects runtime
internals except the execution-receipt journal exposed for exactly-once
verification.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..backends import load_receipts
from ..errors import CorruptStateError
from ..fsutil import read_json
from ..lifecycle import (
    TERMINAL_STATES,
    TerminationReason,
    is_done,
    project_oci,
    reduce_termination,
)
from ..protocol import ResponseStatus, SessionState, response_from_envelope
from ..runtime import bundle_c_untrusted
from ..statedir import EID_PREFIX, Acceptance, StateDir

#: rc values a stage record may carry without an execution receipt
#: (prepare failures and crash-recovery ambiguity produce no execution).
_NO_EXECUTION_EVIDENCE = "none"


@dataclass
class AuditResult:
    checked: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def flag(self, message: str) -> None:
        self.violations.append(message)

    def to_json(self) -> dict:
        return {"checked": self.checked, "passed": self.passed, "violations": self.violations}


def audit_artifacts(sd: StateDir) -> AuditResult:
    """Per-stage artifact completeness and consistency (the IPR checks)."""
    result = AuditResult()
    try:
        session = sd.load_session_params()
    except Exception as exc:
        result.flag(f"session unreadable: {exc}")
        return result
    accepted = _audit_journal(sd, session, result)

    records = {}
    for eid in sd.list_eids():
        if not sd.meta_path(eid).exists():
            continue  # an allocated-but-unused identifier is a permitted gap
        try:
            rec = sd.read_stage_record(eid)
        except CorruptStateError as exc:
            result.flag(f"{eid}: meta.json malformed: {exc}")
            continue
        if rec.eid != eid:
            result.flag(f"{eid}: meta.json names {rec.eid}")
        if rec.eid != f"{EID_PREFIX}{rec.session_epoch}-{rec.session_seq}":
            result.flag(f"{eid}: recorded (epoch, seq) ({rec.session_epoch}, {rec.session_seq}) does not name it")
        if rec.session_cid != sd.cid:
            result.flag(f"{eid}: bound to foreign instance {rec.session_cid}")
        if rec.request_id in records:
            result.flag(f"{rec.request_id}: multiple stage records")
        records[rec.request_id] = rec

    eids = [r.eid for r in records.values()]
    if len(set(eids)) != len(eids):
        result.flag("stage identifiers are not unique across records")

    for rid in sorted(accepted):
        result.checked += 1
        rec = records.get(rid)
        if rec is None:
            result.flag(f"{rid}: accepted but no stage record")
            continue
        if not sd.run_log_path(rec.eid).exists():
            result.flag(f"{rid}: run.log missing")
        resp_path = sd.response_path(rid)
        if not resp_path.exists():
            result.flag(f"{rid}: no response")
            continue
        try:
            resp = response_from_envelope(read_json(resp_path, "response"))
        except (ValueError, CorruptStateError) as exc:
            result.flag(f"{rid}: response malformed: {exc}")
            continue
        if resp.status is ResponseStatus.REJECTED:
            result.flag(f"{rid}: accepted request carries a rejected response")
            continue
        if resp.rc != rec.rc:
            result.flag(f"{rid}: response rc {resp.rc} != recorded rc {rec.rc}")
        if resp.eid != rec.eid:
            result.flag(f"{rid}: response eid {resp.eid} != recorded {rec.eid}")
        expected_status = ResponseStatus.COMPLETED if rec.status == "completed" else ResponseStatus.FAILED
        if resp.status is not expected_status:
            result.flag(f"{rid}: response status {resp.status.value} != record {rec.status}")
        log_bytes = sd.run_log_path(rec.eid).read_bytes() if sd.run_log_path(rec.eid).exists() else b""
        if resp.output != log_bytes:
            result.flag(f"{rid}: response output diverges from run.log")

    # Responses never outnumber requests, and non-rejected ones need records.
    for resp_path in sd.responses_dir.glob("*.resp"):
        rid = resp_path.stem
        try:
            resp = response_from_envelope(read_json(resp_path, "response"))
        except (ValueError, CorruptStateError) as exc:
            result.flag(f"{rid}: response malformed: {exc}")
            continue
        if resp.status is not ResponseStatus.REJECTED and rid not in records:
            result.flag(f"{rid}: response without a stage record")

    # Exactly-once execution: at most one receipt per accepted request, and
    # a receipt-less record must be an unexecuted (prepare/recovery) failure.
    counts = Counter(r["request_id"] for r in load_receipts(sd.receipts_path))
    for rid, n in counts.items():
        if n != 1:
            result.flag(f"{rid}: {n} backend executions")
        if rid not in accepted:
            result.flag(f"{rid}: executed but never accepted")
    for rid, rec in records.items():
        if counts.get(rid, 0) == 0 and rec.evidence_type != _NO_EXECUTION_EVIDENCE:
            result.flag(f"{rid}: executed record without a receipt")
    return result


def _audit_journal(sd: StateDir, session: SessionState, result: AuditResult) -> set[str]:
    """Flag accepts.log lines that do not parse and any request id, nonce or
    (epoch, seq) journalled twice in one epoch; the seen sets load_session
    folds cannot show either. Returns the current epoch's accepted ids."""
    accepted = set()
    journalled = set()
    lines, _ = sd.read_accepts()
    for n, line in enumerate(lines, 1):
        try:
            acc = Acceptance.parse(line)
        except ValueError:
            result.flag(f"accepts.log line {n} does not parse: {line!r}")
            continue
        for what, key in (("request id", acc.request_id), ("nonce", acc.nonce.hex()), ("seq", acc.seq)):
            if (acc.epoch, what, key) in journalled:
                result.flag(f"accepts.log line {n}: {what} {key} journalled twice in epoch {acc.epoch}")
            journalled.add((acc.epoch, what, key))
        if acc.epoch == session.epoch:
            accepted.add(acc.request_id)
    return accepted


def audit_state_consistency(sd: StateDir) -> AuditResult:
    """state.json against independently replayed outcomes (the SCR checks),
    under the bundle's trust-violation exit code, as the runtime settles."""
    result = AuditResult()
    result.checked = 1
    try:
        raw = read_json(sd.state_path, "state.json")
    except Exception as exc:
        result.flag(f"state.json unreadable: {exc}")
        return result
    rec = sd.read_record()
    if rec is None:
        result.flag("record absent")
        return result

    if raw.get("oci_status") != project_oci(rec.state).value:
        result.flag(f"oci_status {raw.get('oci_status')} != projection of {rec.state.value}")
    if rec.ver < 1:
        result.flag("ver below 1")

    if rec.state in TERMINAL_STATES:
        if rec.exit_code is None:
            result.flag("terminal record without exit code")
        events = sd.load_events()
        if events:
            c_untrusted = bundle_c_untrusted(sd)
            # The terminal outcome froze at some point in the journal; an
            # event observed after that (a stage settling post-kill, say)
            # must not retroactively flag the record, so the replay accepts
            # the reduction of any journal prefix.
            consistent = False
            for k in range(1, len(events) + 1):
                exit_code, dominant = reduce_termination(events[:k], c_untrusted)
                clean = is_done(dominant) or dominant.reason is TerminationReason.KILLED
                expected_state = "stopped" if clean else "failed"
                if rec.exit_code == exit_code and rec.state.value == expected_state:
                    consistent = True
                    break
            if not consistent:
                exit_code, _ = reduce_termination(events, c_untrusted)
                result.flag(
                    f"terminal ({rec.state.value}, {rec.exit_code}) matches no replayed prefix"
                    f" (full reduction gives {exit_code})"
                )
        else:
            result.flag("terminal record without termination events")
    else:
        if rec.exit_code is not None:
            result.flag("non-terminal record carries an exit code")
    return result
