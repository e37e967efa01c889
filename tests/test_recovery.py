import ast
import json
import os
import time
from pathlib import Path

import pytest

from c4run import cli, runtime
from c4run.backends import load_receipts
from c4run.crashpoints import CRASH_POINTS, InjectedCrash, armed
from c4run.errors import IllegalStateError
from c4run.fsutil import read_json
from c4run.protocol import ResponseStatus, response_from_envelope
from c4run.serve import RECOVERY_AMBIGUOUS_RC, ServeLoop, claim_next
from c4run.statedir import Acceptance, StateDir
from conftest import spool
from oracles import find_stage_record


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
    (req,) = spool(sd)
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
    (req,) = spool(sd)
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
    (first,) = spool(sd)
    ServeLoop(sd, workers=1).process_next()
    (req,) = spool(sd)
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


def _serve_one(sd: StateDir):
    spool(sd)
    assert ServeLoop(sd, workers=1).process_next().terminal.value == "completed"


TORN = b'{"code":0,"ori'


@pytest.mark.parametrize("journal", ["accepts", "events", "receipts"])
def test_a_torn_journal_tail_is_cut_by_the_next_append(running_instance, journal):
    # The crashed append left a fragment with no newline; the next append
    # (accept, kill, execute) must cut it off rather than extend it.
    sd = running_instance
    path, read, append = {
        "accepts": (sd.accepts_path, lambda: sd.read_accepts()[0], lambda: _serve_one(sd)),
        "events": (sd.events_path, sd.load_events, lambda: runtime.cmd_kill(sd.path.parent, sd.cid, grace_s=3)),
        "receipts": (sd.receipts_path, lambda: load_receipts(sd.receipts_path), lambda: _serve_one(sd)),
    }[journal]
    _serve_one(sd)
    before = read()
    with open(path, "ab") as f:
        f.write(TORN)
    assert read() == before
    append()
    after = read()
    assert after[: len(before)] == before and len(after) == len(before) + 1
    data = path.read_bytes()
    assert data.endswith(b"\n") and TORN not in data


def test_a_complete_garbage_event_line_is_corruption(running_instance, capsys):
    sd = running_instance
    with open(sd.events_path, "ab") as f:
        f.write(TORN + b"\n")
    assert cli.main(["--statedir-root", str(sd.path.parent), "kill", sd.cid, "--grace", "3"]) == 5
    assert "Traceback" not in capsys.readouterr().err
    sd.events_path.write_bytes(b"")  # so the fixture can settle and delete it


def test_recovery_drops_a_claimed_envelope_whose_mac_fails(running_instance):
    sd = running_instance
    (req,) = spool(sd)
    _crash_at(sd, "accept:post-commit")
    claimed = sd.claimed_path(req.request_id)
    envelope = read_json(claimed, "request envelope")
    envelope["stage"] = "fail"  # the MAC still covers "hello"
    claimed.write_text(json.dumps(envelope))

    assert ServeLoop(sd).recover() == [{"request_id": req.request_id, "action": "dropped_malformed"}]
    assert _executions(sd, req.request_id) == 0
    assert not sd.meta_path(f"eid-{req.epoch}-{req.seq}").exists()


def test_crash_between_bind_mkdir_and_marker_resumes_under_the_same_eid(running_instance):
    sd = running_instance
    (req,) = spool(sd)
    _crash_at(sd, "accept:post-commit")
    eid = f"eid-{req.epoch}-{req.seq}"
    sd.enclave_dir(eid).mkdir()  # what a crash after the bind's mkdir leaves

    actions = ServeLoop(sd).recover()
    assert actions == [{"request_id": req.request_id, "action": "resumed_completed"}]
    assert sd.list_eids() == [eid]
    assert find_stage_record(sd, req.request_id).eid == eid
    assert _executions(sd, req.request_id) == 1


@pytest.mark.parametrize("point", ["execute:pre-prepare", "execute:pre-backend"])
def test_a_crash_before_the_receipt_resumes_and_runs_once(running_instance, point):
    # No receipt line, so the backend never ran: the stage resumes.
    sd = running_instance
    (req,) = spool(sd)
    _crash_at(sd, point)
    assert load_receipts(sd.receipts_path) == []

    assert ServeLoop(sd).recover() == [{"request_id": req.request_id, "action": "resumed_completed"}]
    assert _executions(sd, req.request_id) == 1
    assert _response_status(sd, req.request_id) is ResponseStatus.COMPLETED
    assert sd.list_eids() == [f"eid-{req.epoch}-{req.seq}"]


def test_a_torn_receipt_tail_at_recovery_resumes_and_runs_once(running_instance):
    # A serve that died mid-append left half its receipt line: that receipt
    # never committed and the backend never ran.
    sd = running_instance
    (req,) = spool(sd)
    _crash_at(sd, "execute:pre-backend")
    line = json.dumps({"request_id": req.request_id, "eid": f"eid-{req.epoch}-{req.seq}", "ts": time.time()})
    with open(sd.receipts_path, "ab") as f:
        f.write(line.encode()[: len(line) // 2])
    assert sd.in_flight_count() == 0

    assert ServeLoop(sd).recover() == [{"request_id": req.request_id, "action": "resumed_completed"}]
    assert _executions(sd, req.request_id) == 1
    assert _response_status(sd, req.request_id) is ResponseStatus.COMPLETED
    journal = sd.receipts_path.read_bytes()
    assert journal.endswith(b"\n") and journal.count(b"\n") == 1


def test_a_crash_right_after_the_receipt_fails_safely(running_instance):
    sd = running_instance
    (req,) = spool(sd)
    _crash_at(sd, "execute:post-receipt")
    assert sd.in_flight_count() == 1

    assert ServeLoop(sd).recover() == [{"request_id": req.request_id, "action": "failed_ambiguous"}]
    assert _executions(sd, req.request_id) == 1  # the receipt alone: no second
    record = find_stage_record(sd, req.request_id)
    assert (record.rc, record.executed) == (RECOVERY_AMBIGUOUS_RC, False)
    assert sd.in_flight_count() == 0


def test_a_missing_receipts_journal_stops_recovery(running_instance, capsys):
    # The receipt is the commit record of "touched": reading its absence as
    # "no receipts" would resume, and so rerun, a stage that may have run.
    sd = running_instance
    (req,) = spool(sd)
    _crash_at(sd, "execute:post-receipt")
    sd.receipts_path.unlink()
    args = ["--statedir-root", str(sd.path.parent)]
    for verb in (["recover", sd.cid], ["state", sd.cid]):
        assert cli.main([*args, *verb]) == 5
        err = capsys.readouterr().err
        assert "exec.receipts is missing" in err and "Traceback" not in err
    eid = f"eid-{req.epoch}-{req.seq}"
    assert not sd.has_response(req.request_id) and not sd.meta_path(eid).exists()
    assert not sd.run_log_path(eid).exists() and sd.claimed_requests() == [sd.claimed_path(req.request_id)]
    assert not sd.receipts_path.exists()
    sd.receipts_path.touch()  # so the fixture can kill and delete it


def test_crash_in_execution_window_fails_safely_never_reexecutes(running_instance):
    sd = running_instance
    (req,) = spool(sd)
    _crash_at(sd, "finalize:pre-meta")

    actions = ServeLoop(sd).recover()
    assert actions == [{"request_id": req.request_id, "action": "failed_ambiguous"}]
    assert _executions(sd, req.request_id) == 1
    record = find_stage_record(sd, req.request_id)
    assert record.status == "failed"
    assert record.rc == RECOVERY_AMBIGUOUS_RC
    assert record.failure_reason == "recovery_ambiguous"
    assert _response_status(sd, req.request_id) is ResponseStatus.FAILED


def test_ambiguous_record_carries_its_requests_epoch_and_seq(running_instance):
    from c4run.bench import audit_artifacts

    sd = running_instance
    for _ in range(2):
        spool(sd)
        ServeLoop(sd, workers=1).process_next()
    (req,) = spool(sd)
    _crash_at(sd, "finalize:pre-meta")

    assert ServeLoop(sd).recover() == [{"request_id": req.request_id, "action": "failed_ambiguous"}]
    record = find_stage_record(sd, req.request_id)
    assert record.eid == f"eid-{req.epoch}-{req.seq}" and req.seq == 2
    assert record.request_id == req.request_id
    assert sd.read_stage_record(record.eid).request_id == req.request_id
    ipr = audit_artifacts(sd)
    assert ipr.passed, ipr.violations


def _plant_receipt(sd: StateDir, request_id: str, **fields) -> None:
    with open(sd.receipts_path, "a") as f:
        f.write(json.dumps({"request_id": request_id, "ts": time.time(), **fields}) + "\n")


@pytest.mark.parametrize("body", [{}, [], "\x00not json"], ids=["object", "list", "bytes"])
def test_a_started_markers_body_crashes_nothing(running_instance, body, capsys):
    # The started marker is the receipt line, host state: of it only the
    # request id and ts are read.
    sd = running_instance
    (req,) = spool(sd)
    _crash_at(sd, "finalize:pre-meta")
    _plant_receipt(sd, req.request_id, eid=body, stage=body, backend=body)
    for verb in (["state", sd.cid], ["kill", sd.cid, "--grace", "0.2"]):
        assert cli.main(["--statedir-root", str(sd.path.parent), *verb]) in range(6)
        assert "Traceback" not in capsys.readouterr().err
    journal = sd.receipts_path.read_bytes()
    assert ServeLoop(sd).recover() == [{"request_id": req.request_id, "action": "failed_ambiguous"}]
    assert sd.receipts_path.read_bytes() == journal  # no second execution


def test_a_started_marker_cannot_bind_another_stages_outcome(running_instance):
    sd = running_instance
    (first,) = spool(sd, stage="fail")
    ServeLoop(sd, workers=1).process_next()
    earlier = find_stage_record(sd, first.request_id)
    assert (earlier.eid, earlier.rc) == ("eid-1-0", 7)
    before = sd.meta_path(earlier.eid).read_bytes(), sd.response_path(first.request_id).read_bytes()
    (req,) = spool(sd)
    _crash_at(sd, "finalize:pre-meta")
    _plant_receipt(sd, req.request_id, eid=earlier.eid, stage="fail", backend="sim")

    assert ServeLoop(sd).recover() == [{"request_id": req.request_id, "action": "failed_ambiguous"}]
    resp = response_from_envelope(read_json(sd.response_path(req.request_id), "response"))
    assert (resp.eid, resp.rc) == (f"eid-{req.epoch}-{req.seq}", RECOVERY_AMBIGUOUS_RC)
    assert find_stage_record(sd, req.request_id).eid == resp.eid
    assert (sd.meta_path(earlier.eid).read_bytes(), sd.response_path(first.request_id).read_bytes()) == before


def test_a_claim_whose_stage_records_another_request_is_dropped(running_instance):
    # A planted claim and receipt whose id shares a recorded request's
    # (epoch, seq) cannot have been accepted: nothing answers it.
    sd = running_instance
    (first,) = spool(sd)
    ServeLoop(sd, workers=1).process_next()
    earlier = find_stage_record(sd, first.request_id)
    meta = sd.meta_path(earlier.eid).read_bytes()
    planted = f"{first.epoch}-{first.seq}-deadbeef"
    sd.claimed_path(planted).write_bytes(b"{}")
    sd.write_started_marker(planted, earlier.eid, "hello", "sim")

    assert ServeLoop(sd).recover() == [{"request_id": planted, "action": "dropped_malformed"}]
    assert not sd.has_response(planted) and sd.meta_path(earlier.eid).read_bytes() == meta
    assert os.listdir(sd.claimed_dir) == []


def test_an_ambiguous_record_is_stamped_when_its_marker_was_written(running_instance):
    # The started marker is the receipt line: the record's claimed_at is
    # its ts, the time the backend may first have been touched.
    sd = running_instance
    (req,) = spool(sd)
    before = time.time()
    _crash_at(sd, "finalize:pre-meta")

    assert ServeLoop(sd).recover() == [{"request_id": req.request_id, "action": "failed_ambiguous"}]
    record = find_stage_record(sd, req.request_id)
    (receipt,) = load_receipts(sd.receipts_path)
    assert record.timings["claimed_at"] == receipt["ts"] >= before
    assert set(record.timings) == {"claimed_at", "finished_at"}


def test_crash_after_meta_replays_response_byte_identically(running_instance):
    sd = running_instance
    (req,) = spool(sd)
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
    (req,) = spool(sd)
    _crash_at(sd, "response:post-write")
    actions = ServeLoop(sd).recover()
    assert actions == [{"request_id": req.request_id, "action": "cleaned"}]
    assert _executions(sd, req.request_id) == 1
    assert os.listdir(sd.claimed_dir) == []


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
        (req,) = spool(sd)
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
