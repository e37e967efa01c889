"""Mechanical artifact and state audits.

These implement the invariant checks the correctness metrics are built on:
every acceptance journal line must parse, name a request id, nonce and
(epoch, seq) not journalled before in its epoch, and sort above the line
before it by (epoch, seq); every stage record must be well-formed and
stored under the stage its request's (epoch, seq) names; per accepted
request the audit verifies its record, the run log, and exactly one
response whose fields match the record; the instance record is checked
against the replayed termination journal. Validation is over artifacts
only — the audit never inspects runtime internals except the
execution-receipt journal exposed for exactly-once verification, whose
every complete line must be a receipt.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..backends import load_receipts
from ..errors import C4Error, CorruptStateError
from ..fsutil import read_bytes, read_json
from ..lifecycle import (
    TERMINAL_STATES,
    TerminationReason,
    is_done,
    reduce_termination,
)
from ..protocol import ResponseStatus, SessionState, response_from_envelope
from ..runtime import bundle_c_untrusted
from ..statedir import Acceptance, StateDir, request_epoch_seq, stage_eid


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
    except C4Error as exc:  # absent or corrupt
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
        try:  # a record moved under another stage's directory names that one
            named = stage_eid(*request_epoch_seq(rec.request_id))
        except (ValueError, AttributeError):
            named = None
        if named != eid:
            result.flag(f"{eid}: recorded request {rec.request_id} does not name it")
        records[rec.request_id] = rec

    for rid in sorted(accepted):
        result.checked += 1
        rec = records.get(rid)
        if rec is None:
            result.flag(f"{rid}: accepted but no stage record")
            continue
        try:
            log_bytes = read_bytes(sd.run_log_path(rec.eid))
        except (FileNotFoundError, CorruptStateError) as exc:
            result.flag(f"{rid}: run.log unreadable: {exc}")
            log_bytes = b""
        resp_path = sd.response_path(rid)
        if not resp_path.exists():
            result.flag(f"{rid}: no response")
            continue
        try:
            resp = read_json(resp_path, "response", response_from_envelope)
        except CorruptStateError as exc:
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
        if resp.output != log_bytes:
            result.flag(f"{rid}: response output diverges from run.log")

    # Responses never outnumber requests, and non-rejected ones need records.
    for resp_path in sd.responses_dir.glob("*.resp"):
        rid = resp_path.stem
        try:
            resp = read_json(resp_path, "response", response_from_envelope)
        except CorruptStateError as exc:
            result.flag(f"{rid}: response malformed: {exc}")
            continue
        if resp.status is not ResponseStatus.REJECTED and rid not in records:
            result.flag(f"{rid}: response without a stage record")

    # Exactly-once execution: at most one receipt per accepted request, and
    # a receipt-less record must be an unexecuted (prepare/recovery) failure.
    try:
        receipts = load_receipts(sd.receipts_path)
    except CorruptStateError as exc:
        result.flag(str(exc))
        return result
    counts = Counter(r["request_id"] for r in receipts)
    for rid, n in counts.items():
        if n != 1:
            result.flag(f"{rid}: {n} backend executions")
        if rid not in accepted:
            result.flag(f"{rid}: executed but never accepted")
    for rid, rec in records.items():
        if counts.get(rid, 0) == 0 and rec.executed:
            result.flag(f"{rid}: executed record without a receipt")
    return result


def _audit_journal(sd: StateDir, session: SessionState, result: AuditResult) -> set[str]:
    """Flag accepts.log lines that do not parse, any request id, nonce or
    (epoch, seq) journalled twice in one epoch, and any other line whose
    (epoch, seq) is not above the line before it: the session lock orders
    appends, seq rises within an epoch and epochs only rise. The seen sets
    load_session folds can show none of these. Returns the current epoch's
    accepted ids."""
    accepted = set()
    journalled = set()
    last = None
    try:
        lines, _ = sd.read_accepts()
    except CorruptStateError as exc:
        result.flag(str(exc))
        return accepted
    for n, line in enumerate(lines, 1):
        try:
            acc = Acceptance.parse(line)
        except ValueError:
            result.flag(f"accepts.log line {n} does not parse: {line!r}")
            continue
        order = (acc.epoch, acc.seq)
        if last is not None and order <= last and (acc.epoch, "seq", acc.seq) not in journalled:
            result.flag(f"accepts.log line {n}: (epoch, seq) {order} is not above the line before it")
        last = order
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
    try:  # the record's constructor rejects a ver below 1 and an exit code on
        # a non-terminal state, and requires one on a terminal state
        rec = sd.read_record()
    except CorruptStateError as exc:
        result.flag(f"state.json unreadable: {exc}")
        return result
    if rec is None:
        result.flag("record absent")
        return result

    if rec.state in TERMINAL_STATES:
        try:
            events = sd.load_events()
        except CorruptStateError as exc:
            result.flag(f"events.json unreadable: {exc}")
            return result
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
    return result
