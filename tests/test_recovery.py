import ast
from pathlib import Path

import pytest

from c4run import runtime
from c4run.backends import load_receipts
from c4run.crashpoints import CRASH_POINTS, InjectedCrash, armed
from c4run.errors import IllegalStateError
from c4run.fsutil import read_json
from c4run.protocol import ResponseStatus, build_request, request_to_envelope, response_from_envelope
from c4run.serve import RECOVERY_AMBIGUOUS_RC, ServeLoop, claim_next
from c4run.statedir import Acceptance, StateDir
from oracles import find_stage_record


def _spool_one(sd: StateDir, stage="hello"):
    session = sd.load_session()
    req = build_request(session, stage, b"p")
    sd.spool_request(request_to_envelope(req), req.request_id)
    return req


def _crash_at(sd: StateDir, point: str):
    loop = ServeLoop(sd, workers=1)
    with pytest.raises(InjectedCrash):
        with armed(point):
            loop.process_next()


def _executions(sd: StateDir, rid: str) -> int:
    return sum(1 for r in load_receipts(sd.receipts_path) if r["request_id"] == rid)


def _response_status(sd: StateDir, rid: str):
    return response_from_envelope(read_json(sd.response_path(rid), "response")).status


def test_recover_clean_state_is_empty(running_instance):
    assert ServeLoop(running_instance).recover() == []


def test_crash_before_accept_commit_requeues_and_completes(running_instance):
    sd = running_instance
    req = _spool_one(sd)
    _crash_at(sd, "accept:pre-commit")
    assert sd.claimed_requests() != []
    assert req.request_id not in sd.load_session().seen_request_ids

    actions = ServeLoop(sd).recover()
    assert actions == [{"request_id": req.request_id, "action": "requeued"}]
    # freshness still passes: the request revalidates and completes
    result = ServeLoop(sd, workers=1).process_next()
    assert result.terminal.value == "completed"
    assert _executions(sd, req.request_id) == 1


def test_crash_after_commit_resumes_without_revalidation(running_instance):
    sd = running_instance
    req = _spool_one(sd)
    _crash_at(sd, "accept:post-commit")
    assert req.request_id in sd.load_session().seen_request_ids

    actions = ServeLoop(sd).recover()
    assert actions == [{"request_id": req.request_id, "action": "resumed_completed"}]
    assert _executions(sd, req.request_id) == 1
    assert _response_status(sd, req.request_id) is ResponseStatus.COMPLETED


def test_torn_journal_line_is_no_acceptance(running_instance):
    # A serve that died mid-append left its request claimed and half its
    # journal line written: that acceptance never committed.
    sd = running_instance
    first = _spool_one(sd)
    ServeLoop(sd, workers=1).process_next()
    req = _spool_one(sd)
    assert claim_next(sd) is not None
    line = f"{req.request_id} {req.nonce.hex()}\n".encode()
    with open(sd.accepts_path, "ab") as f:
        f.write(line[: len(line) // 2])

    session = sd.load_session()
    assert first.request_id in session.seen_request_ids
    assert req.request_id not in session.seen_request_ids and req.nonce not in session.seen_nonces
    assert ServeLoop(sd).recover() == [{"request_id": req.request_id, "action": "requeued"}]
    assert ServeLoop(sd, workers=1).process_next().terminal.value == "completed"
    assert _executions(sd, req.request_id) == 1
    journal = sd.accepts_path.read_bytes()
    assert journal.endswith(b"\n")
    accepted = [Acceptance.parse(x) for x in journal.splitlines()]
    assert [(a.request_id, a.nonce) for a in accepted] == [(first.request_id, first.nonce), (req.request_id, req.nonce)]


def test_crash_between_bind_mkdir_and_marker_resumes_under_the_same_eid(running_instance):
    sd = running_instance
    req = _spool_one(sd)
    _crash_at(sd, "accept:post-commit")
    eid = f"eid-{req.epoch}-{req.seq}"
    sd.enclave_dir(eid).mkdir()  # what a crash after the bind's mkdir leaves

    actions = ServeLoop(sd).recover()
    assert actions == [{"request_id": req.request_id, "action": "resumed_completed"}]
    assert sd.list_eids() == [eid]
    assert find_stage_record(sd, req.request_id).eid == eid
    assert _executions(sd, req.request_id) == 1


def test_crash_in_execution_window_fails_safely_never_reexecutes(running_instance):
    sd = running_instance
    req = _spool_one(sd)
    _crash_at(sd, "execute:pre-backend")

    actions = ServeLoop(sd).recover()
    assert actions == [{"request_id": req.request_id, "action": "failed_ambiguous"}]
    assert _executions(sd, req.request_id) == 0
    record = find_stage_record(sd, req.request_id)
    assert record.status == "failed"
    assert record.rc == RECOVERY_AMBIGUOUS_RC
    assert record.failure_reason == "recovery_ambiguous"
    assert _response_status(sd, req.request_id) is ResponseStatus.FAILED


def test_ambiguous_record_carries_its_requests_epoch_and_seq(running_instance):
    from c4run.bench import audit_artifacts

    sd = running_instance
    for _ in range(2):
        _spool_one(sd)
        ServeLoop(sd, workers=1).process_next()
    req = _spool_one(sd)
    _crash_at(sd, "execute:pre-backend")

    assert ServeLoop(sd).recover() == [{"request_id": req.request_id, "action": "failed_ambiguous"}]
    record = find_stage_record(sd, req.request_id)
    assert record.eid == f"eid-{req.epoch}-{req.seq}" and req.seq == 2
    assert (record.session_epoch, record.session_seq) == (req.epoch, req.seq)
    ipr = audit_artifacts(sd)
    assert ipr.passed, ipr.violations


def test_crash_after_meta_replays_response_byte_identically(running_instance):
    sd = running_instance
    req = _spool_one(sd)
    _crash_at(sd, "response:pre-write")
    record = find_stage_record(sd, req.request_id)
    assert record is not None  # executed and recorded, response missing

    actions = ServeLoop(sd).recover()
    assert actions == [{"request_id": req.request_id, "action": "response_replayed"}]
    assert _executions(sd, req.request_id) == 1  # backend NOT re-executed

    # The regenerated response is byte-identical to an independent rebuild
    # from the stage record (the MAC is deterministic over those fields).
    from c4run.fsutil import json_canonical
    from c4run.protocol import build_response, response_to_envelope

    session = sd.load_session()
    expected = build_response(
        session,
        req.request_id,
        rc=record.rc,
        status=ResponseStatus.COMPLETED,
        eid=record.eid,
        output=sd.run_log_path(record.eid).read_bytes(),
    )
    expected_bytes = (json_canonical(response_to_envelope(expected)) + "\n").encode()
    assert sd.response_path(req.request_id).read_bytes() == expected_bytes

    # the replayed record is what state reports from: nothing left in flight
    annotations = runtime.cmd_state(sd.path.parent, sd.cid)["annotations"]
    assert (annotations["trust_flag"], annotations["health_flag"]) == ("trusted", "healthy")
    assert annotations["tee_phase"] == "idle"


def test_crash_after_response_only_cleans_up(running_instance):
    sd = running_instance
    req = _spool_one(sd)
    _crash_at(sd, "response:post-write")
    actions = ServeLoop(sd).recover()
    assert actions == [{"request_id": req.request_id, "action": "cleaned"}]
    assert _executions(sd, req.request_id) == 1
    assert sd.claimed_requests() == [] and sd.started_markers() == []


def test_recover_refuses_while_serve_instances_active(running_instance):
    sd = running_instance
    import threading

    hold = threading.Event()
    release = threading.Event()

    def holder():
        with sd.serve_lock(exclusive=False):
            hold.set()
            release.wait(timeout=10)

    t = threading.Thread(target=holder)
    t.start()
    hold.wait(timeout=5)
    try:
        with pytest.raises(IllegalStateError):
            ServeLoop(sd).recover()
    finally:
        release.set()
        t.join()
    assert ServeLoop(sd).recover() == []


def test_recovered_instance_passes_audits(running_instance):
    from c4run.bench import audit_artifacts

    sd = running_instance
    for point in ("accept:pre-commit", "finalize:pre-meta", "finalize:post-meta"):
        req = _spool_one(sd)
        _crash_at(sd, point)
        ServeLoop(sd).recover()
        loop = ServeLoop(sd, workers=1)
        while loop.process_next() is not None:
            pass
    ipr = audit_artifacts(sd)
    assert ipr.passed, ipr.violations


def test_crash_registry_lists_every_crash_point_in_src():
    src = Path(__file__).resolve().parent.parent / "src"
    calls = [
        node
        for path in src.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "crash_if"
    ]
    assert all(isinstance(c.args[0], ast.Constant) for c in calls), "crash_if takes a literal name"
    names = [c.args[0].value for c in calls]
    assert len(names) == len(set(names)), "each crash point is reached from one place"
    assert set(names) == set(CRASH_POINTS)
    with pytest.raises(ValueError):
        with armed("no:such-point"):
            pass
