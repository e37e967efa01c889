import dataclasses
import json
import os
import threading
import time
from collections import Counter

import pytest

from c4run import runtime
from c4run.anchor import run_workload
from c4run.backends import load_receipts
from c4run.bench import audit_artifacts
from c4run.fsutil import read_json
from c4run.errors import IllegalStateError
from c4run.lifecycle import LifecycleState as L
from c4run.protocol import (
    ResponseStatus,
    build_request,
    build_response,
    request_mac,
    request_to_envelope,
    response_from_envelope,
    response_to_envelope,
    verify_response,
)
from c4run.serve import ServeLoop, StagePipelineState, claim_next
from c4run.statedir import StateDir
from oracles import find_stage_record


def _spool(sd: StateDir, stage="hello", payload=b"p", n=1):
    """Build and spool n requests the way the anchor would."""
    session = sd.load_session()
    reqs = []
    for _ in range(n):
        req = build_request(session, stage, payload)
        sd.spool_request(request_to_envelope(req), req.request_id)
        reqs.append(req)
    return reqs


def _response(sd: StateDir, rid):
    return response_from_envelope(read_json(sd.response_path(rid), "response"))


def _annotations(sd: StateDir) -> dict:
    return runtime.cmd_state(sd.path.parent, sd.cid)["annotations"]


def test_single_request_full_pipeline(running_instance):
    sd = running_instance
    (req,) = _spool(sd)
    loop = ServeLoop(sd, workers=1)
    result = loop.process_next()
    assert result.terminal is StagePipelineState.COMPLETED
    eid = f"eid-{req.epoch}-{req.seq}"
    assert result.eid == eid

    record = sd.read_stage_record(eid)
    assert record.request_id == req.request_id and record.stage == "hello"
    assert record.rc == 0 and record.status == "completed"
    assert record.session_epoch == req.epoch and record.session_seq == req.seq
    assert sd.run_log_path(eid).read_bytes() == f"hello from {eid}\n".encode()

    resp = _response(sd, req.request_id)
    session = sd.load_session()
    assert verify_response(resp, session, {req.request_id})
    assert resp.status is ResponseStatus.COMPLETED and resp.eid == eid

    annotations = _annotations(sd)
    assert (annotations["trust_flag"], annotations["health_flag"]) == ("trusted", "healthy")
    assert annotations["tee_phase"] == "idle"
    assert req.request_id in session.seen_request_ids
    assert sd.claimed_requests() == [] and sd.started_markers() == []

    # meta/log precede the response and the pipeline timestamps are ordered
    t = record.timings
    assert t["claimed_at"] <= t["prepared_at"] <= t["executing_at"] <= t["finished_at"]


def test_replayed_request_rejected_without_new_eid(running_instance):
    sd = running_instance
    (req,) = _spool(sd)
    envelope = request_to_envelope(req)
    loop = ServeLoop(sd, workers=1)
    assert loop.process_next().terminal is StagePipelineState.COMPLETED
    original = sd.response_path(req.request_id).read_bytes()
    eids = sd.list_eids()

    sd.spool_request(envelope, req.request_id)  # adversarial replay
    result = loop.process_next()
    assert result.reject_reason == "fresh_replayed_id"
    assert sd.list_eids() == eids  # no stage identifier allocated
    assert sd.response_path(req.request_id).read_bytes() == original
    receipts = load_receipts(sd.receipts_path)
    assert len([r for r in receipts if r["request_id"] == req.request_id]) == 1


def test_rejected_request_gets_authenticated_negative_response(running_instance):
    sd = running_instance
    session = sd.load_session()
    req = build_request(session, "hello", b"p")
    env = request_to_envelope(req)
    env["cid"] = "someone-else"  # misroute; MAC now stale too, bind fires first
    sd.spool_request(env, req.request_id)
    loop = ServeLoop(sd, workers=1)
    result = loop.process_next()
    assert result.terminal is StagePipelineState.FAILED
    assert result.reject_reason == "bind_cid_mismatch"
    resp = _response(sd, req.request_id)
    assert resp.status is ResponseStatus.REJECTED and resp.eid is None
    assert verify_response(resp, sd.load_session(), {req.request_id})
    # the session is untouched by a rejected request
    assert req.request_id not in sd.load_session().seen_request_ids


def test_claim_next_empty_and_exactly_once(running_instance):
    sd = running_instance
    assert claim_next(sd) is None
    _spool(sd, n=1)
    winners = []
    barrier = threading.Barrier(4)

    def claimer():
        own = StateDir(sd.path.parent, sd.cid)
        barrier.wait()
        if claim_next(own) is not None:
            winners.append(1)

    threads = [threading.Thread(target=claimer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(winners) == 1


def test_hundred_requests_four_serve_instances_disjoint(running_instance):
    sd = running_instance
    reqs = _spool(sd, n=100)
    summaries = []
    lock = threading.Lock()

    def serve():
        own = StateDir(sd.path.parent, sd.cid)
        loop = ServeLoop(own, workers=2)
        summary = loop.run(mode="until-idle")
        with lock:
            summaries.append(summary)

    threads = [threading.Thread(target=serve) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert sum(s.completed for s in summaries) == 100
    assert sum(s.rejected for s in summaries) == 0
    processed = [st["request_id"] for s in summaries for st in s.stages]
    assert len(processed) == 100 and len(set(processed)) == 100  # pairwise disjoint
    assert set(processed) == {r.request_id for r in reqs}

    from collections import Counter

    counts = Counter(r["request_id"] for r in load_receipts(sd.receipts_path))
    assert all(n == 1 for n in counts.values()) and len(counts) == 100

    session = sd.load_session()
    accepted_seqs = sorted(int(rid.split("-")[1]) for rid in session.seen_request_ids)
    assert accepted_seqs == list(range(100))  # strictly increasing acceptance


def test_two_serve_loops_name_every_stage_after_its_request(running_instance):
    sd = running_instance
    reqs = _spool(sd, n=32)

    def serve():
        ServeLoop(StateDir(sd.path.parent, sd.cid), workers=2).run(mode="until-idle")

    threads = [threading.Thread(target=serve) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)

    records = sd.stage_records()
    assert len(records) == 32
    assert len({r.eid for r in records}) == 32
    by_rid = {r.request_id: r.eid for r in records}
    assert by_rid == {r.request_id: f"eid-{r.epoch}-{r.seq}" for r in reqs}
    ipr = audit_artifacts(sd)
    assert ipr.passed, ipr.violations


def test_second_serve_loop_sees_the_first_ones_accepts(running_instance):
    # Loop B's session is warm before loop A accepts r, so B catches every
    # replay of r only by reading the journal lines A appended since.
    sd = running_instance
    loop_a = ServeLoop(sd, workers=1)
    loop_b = ServeLoop(StateDir(sd.path.parent, sd.cid), workers=1)
    _spool(sd)
    assert loop_b.process_next().terminal is StagePipelineState.COMPLETED

    session = sd.load_session()
    earlier = build_request(session, "hello", b"p")
    r = build_request(session, "hello", b"p")
    sd.spool_request(request_to_envelope(r), r.request_id)
    assert loop_a.process_next().terminal is StagePipelineState.COMPLETED
    same_nonce = dataclasses.replace(build_request(session, "hello", b"p"), nonce=r.nonce, mac=b"")
    same_nonce = dataclasses.replace(same_nonce, mac=request_mac(session.sk, same_nonce))

    for req, reason in ((r, "fresh_replayed_id"), (same_nonce, "fresh_replayed_nonce"), (earlier, "order_stale_seq")):
        sd.spool_request(request_to_envelope(req), req.request_id)
        assert loop_b.process_next().reject_reason == reason
    receipts = Counter(x["request_id"] for x in load_receipts(sd.receipts_path))
    assert (receipts[r.request_id], receipts[same_nonce.request_id], receipts[earlier.request_id]) == (1, 0, 0)
    assert _response(sd, r.request_id).status is ResponseStatus.COMPLETED
    assert _response(sd, same_nonce.request_id).reject_reason.value == "fresh_replayed_nonce"
    assert _response(sd, earlier.request_id).reject_reason.value == "order_stale_seq"


def test_serve_cost_does_not_grow_with_the_epoch(running_instance, monkeypatch):
    # Each accept appends one journal line: serve never rewrites
    # session.json and reads the session at most once.
    sd = running_instance
    after_start = sd.session_path.read_bytes()
    _spool(sd, n=200)
    calls = Counter()
    for name in ("load_session", "save_session"):
        def counted(self, *args, _name=name, _original=getattr(StateDir, name)):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(StateDir, name, counted)
    summary = ServeLoop(sd, workers=4).run(mode="until-idle")
    assert (summary.completed, summary.rejected, summary.failed) == (200, 0, 0)
    assert sd.session_path.read_bytes() == after_start
    assert len(sd.accepts_path.read_bytes().splitlines()) == 200
    assert calls["load_session"] <= 1 and calls["save_session"] == 0


def _serve_poison_then_honest(sd: StateDir, request_id: str, text: str):
    """Spool a host-written request file, then an honest request, and serve both."""
    sd.request_path(request_id).write_text(text)
    (honest,) = _spool(sd)
    summary = ServeLoop(sd, workers=1).run(mode="until-idle")
    assert (summary.completed, summary.rejected) == (1, 1)
    assert _response(sd, request_id).reject_reason.value == "auth_mac_invalid"
    assert _response(sd, honest.request_id).status is ResponseStatus.COMPLETED
    assert list(sd.claimed_dir.iterdir()) == []


def test_request_whose_stage_is_a_lone_surrogate_is_rejected_and_serve_goes_on(running_instance):
    # The canonical encoding cannot carry "\ud800": it used to raise out of
    # validate_request's MAC check and leave the claim behind.
    sd = running_instance
    req = build_request(sd.load_session(), "hello", b"p")
    envelope = dict(request_to_envelope(req), stage="\ud800")
    _serve_poison_then_honest(sd, req.request_id, json.dumps(envelope))


def test_request_whose_seq_overflows_u64_is_rejected_and_serve_goes_on(running_instance):
    # An id bound to seq 2**64 passes the bind checks; packing that seq for
    # the MAC used to raise struct.error out of serve.
    sd = running_instance
    req = build_request(sd.load_session(), "hello", b"p")
    rid = f"{req.epoch}-{2**64}-zz"
    envelope = dict(request_to_envelope(req), seq=2**64, request_id=rid, response_path=f"responses/{rid}.resp")
    _serve_poison_then_honest(sd, rid, json.dumps(envelope))


def test_request_nested_too_deep_to_parse_is_rejected_and_serve_goes_on(running_instance):
    # json.loads raises RecursionError, not ValueError, on deep nesting.
    _serve_poison_then_honest(running_instance, "1-0-deep", "[" * 100_000)


@pytest.mark.parametrize(
    "tamper",
    [{"request_id": 7}, {"eid": 7}, {"rc": 2**70}, {"rc": "x"}, None],
    ids=["int-request-id", "int-eid", "rc-past-i64", "rc-not-an-int", "not-json"],
)
def test_anchor_counts_a_tampered_response_as_failed_verification(root, sim_bundle, monkeypatch, capsys, tamper):
    sd = StateDir(root, "t-anchor")
    sd.init(sim_bundle)
    session = sd.load_session()
    spool = sd.spool_request

    def spool_then_answer(envelope, request_id):
        path = spool(envelope, request_id)
        if tamper is None:
            sd.response_path(request_id).write_text("{")
        else:
            resp = build_response(session, request_id, rc=0, status=ResponseStatus.COMPLETED, eid="eid-0-0")
            sd.spool_response(request_id, dict(response_to_envelope(resp), **tamper))
        return path

    monkeypatch.setattr(sd, "spool_request", spool_then_answer)
    assert run_workload(sd, session, {"stages": ["hello"], "response_timeout_s": 5}) == 1
    assert "response failed verification" in capsys.readouterr().err


def test_until_idle_never_counts_a_full_iteration_as_idle(running_instance):
    # One slot, stages outlasting the poll: every iteration starts full, so
    # none of them scans the spool and none may count as idle.
    sd = running_instance
    _spool(sd, stage="sleep", n=3)  # 50 ms each in the sim table
    summary = ServeLoop(sd, workers=1, idle_polls=1, poll_interval=0.01).run(mode="until-idle")
    assert summary.stop_reason == "idle"
    assert summary.completed == 3
    assert sd.pending_requests() == []


def test_idle_serve_wakes_when_a_request_is_spooled(running_instance):
    sd = running_instance
    loop = ServeLoop(sd, workers=1, idle_polls=2, poll_interval=2.0)
    out = {}
    t = threading.Thread(target=lambda: out.setdefault("summary", loop.run(mode="until-idle")))
    t.start()
    time.sleep(0.3)  # serve has scanned the empty spool and is waiting
    spooled_at = time.time()
    (req,) = _spool(sd)
    t.join(timeout=15)
    assert not t.is_alive()
    assert out["summary"].completed == 1
    claimed_at = find_stage_record(sd, req.request_id).timings["claimed_at"]
    assert claimed_at - spooled_at < 0.5  # not the rest of a 2 s poll


def test_stale_ring_does_not_shorten_until_idle(running_instance):
    sd = running_instance
    os.mkfifo(sd.wake_path)
    fd = os.open(sd.wake_path, os.O_RDWR | os.O_NONBLOCK)  # keeps the byte in the pipe
    try:
        os.write(fd, b"\0")
        summary = ServeLoop(sd, workers=1, idle_polls=2, poll_interval=0.3).run(mode="until-idle")
    finally:
        os.close(fd)
    assert summary.stop_reason == "idle"
    assert summary.elapsed_s >= 0.3  # one full interval between the two idle scans


def test_wake_that_is_not_a_fifo_leaves_serve_polling(running_instance):
    sd = running_instance
    sd.wake_path.write_bytes(b"")  # readable at once, forever, if serve waited on it
    _spool(sd)
    scans = []
    real = sd.pending_requests

    def counted():
        scans.append(1)
        return real()

    sd.pending_requests = counted
    summary = ServeLoop(sd, workers=1, idle_polls=4, poll_interval=0.1).run(mode="until-idle")
    assert summary.completed == 1 and summary.stop_reason == "idle"
    assert summary.elapsed_s >= 0.3  # three full intervals between four idle scans
    assert len(scans) <= 6  # claim + empty scan, then one scan per idle iteration
    assert sd.wake_path.stat().st_size == 0


def test_fail_stage_drives_instance_failed_under_fail_fast(running_instance):
    sd = running_instance
    (req,) = _spool(sd, stage="fail")
    loop = ServeLoop(sd, workers=1, fail_fast=True)
    result = loop.process_next()
    assert result.terminal is StagePipelineState.FAILED and result.rc == 7
    rec = sd.read_record()
    assert rec.state is L.FAILED and rec.exit_code == 7
    assert sd.read_stage_record(result.eid).rc == 7
    assert _annotations(sd)["tee_phase"] == "error"
    resp = _response(sd, req.request_id)
    assert resp.status is ResponseStatus.FAILED and resp.rc == 7


def test_fail_stage_without_fail_fast_keeps_running(running_instance):
    sd = running_instance
    _spool(sd, stage="fail")
    loop = ServeLoop(sd, workers=1, fail_fast=False)
    result = loop.process_next()
    assert result.rc == 7
    rec = sd.read_record()
    assert rec.state is L.RUNNING
    assert sd.read_stage_record(result.eid).rc == 7
    assert _annotations(sd)["tee_phase"] == "error"
    assert sd.load_events() == []


def test_successful_stage_leaves_instance_record_unwritten(running_instance):
    sd = running_instance
    before = sd.read_record()
    _spool(sd)
    result = ServeLoop(sd, workers=1).process_next()
    assert result.terminal is StagePipelineState.COMPLETED
    assert sd.read_record() == before  # same state, same ver


def test_unknown_stage_fails_without_execution(running_instance):
    sd = running_instance
    (req,) = _spool(sd, stage="unregistered")
    loop = ServeLoop(sd, workers=1, fail_fast=False)
    result = loop.process_next()
    assert result.terminal is StagePipelineState.FAILED and result.rc == 127
    record = find_stage_record(sd, req.request_id)
    assert record.status == "failed" and record.evidence_type == "none"
    assert load_receipts(sd.receipts_path) == []


def test_stale_seq_rejected_after_later_accept(running_instance):
    sd = running_instance
    session = sd.load_session()
    early = build_request(session, "hello", b"p")
    late = build_request(session, "hello", b"p")
    loop = ServeLoop(sd, workers=1)
    sd.spool_request(request_to_envelope(late), late.request_id)
    assert loop.process_next().terminal is StagePipelineState.COMPLETED
    sd.spool_request(request_to_envelope(early), early.request_id)
    result = loop.process_next()
    assert result.reject_reason == "order_stale_seq"


def test_serve_run_modes_and_preconditions(root, sim_bundle, running_instance):
    sd = running_instance
    _spool(sd, n=4)
    summary = ServeLoop(sd, workers=4).run(mode="until-idle")
    assert summary.completed == 4 and summary.failed == 0 and summary.rejected == 0
    assert summary.stop_reason == "idle"
    assert len(summary.stages) == 4
    assert summary.elapsed_s > 0

    from c4run import runtime

    runtime.cmd_create(root, "unstarted", sim_bundle)
    with pytest.raises(IllegalStateError):
        ServeLoop(StateDir(root, "unstarted"), workers=1).run(mode="until-idle")
    with pytest.raises(IllegalStateError):
        ServeLoop(sd, workers=1).run(mode="sideways")
    runtime.cmd_delete(root, "unstarted", force=True)


def test_serve_on_terminal_instance_warns_and_exits(root, sim_bundle):
    from c4run import runtime

    runtime.cmd_create(root, "t-term", sim_bundle)
    runtime.cmd_kill(root, "t-term")  # Prepared -> Stopped
    summary = ServeLoop(StateDir(root, "t-term"), workers=1).run(mode="until-idle")
    assert summary.stop_reason == "terminal"
    assert summary.completed == summary.failed == summary.rejected == 0
    runtime.cmd_delete(root, "t-term")


def test_kill_marker_cancels_in_flight_stage(running_instance):
    sd = running_instance
    session = sd.load_session()
    req = build_request(session, "sleep", b"p")  # 50 ms default in the table
    # lengthen the sleep so the cancel lands mid-flight
    loop = ServeLoop(sd, workers=1)
    loop.adapter.stage_table["sleep"]["ms"] = 2000
    sd.spool_request(request_to_envelope(req), req.request_id)

    done = {}

    def run():
        done["result"] = loop.process_next()

    t = threading.Thread(target=run)
    t.start()
    time.sleep(0.3)
    from c4run.fsutil import atomic_write_json

    atomic_write_json(sd.kill_marker_path, {"signal": 15, "ts": time.time()})
    t.join(timeout=10)
    assert done["result"].terminal is StagePipelineState.FAILED
    record = find_stage_record(sd, req.request_id)
    assert record.failure_reason == "cancelled"
    assert record.status == "failed"
    assert sd.has_response(req.request_id)
    # a cancellation is the kill's effect, not a stage error event
    assert all(e.origin != f"stage:{record.eid}" for e in sd.load_events())


def test_tee_phase_active_while_stage_in_flight(running_instance):
    sd = running_instance
    loop = ServeLoop(sd, workers=1)
    loop.adapter.stage_table["sleep"]["ms"] = 600
    _spool(sd, stage="sleep")
    t = threading.Thread(target=loop.process_next)
    t.start()
    phases = set()
    for _ in range(50):
        phases.add(_annotations(sd)["tee_phase"])
        time.sleep(0.02)
    t.join(timeout=5)
    assert not t.is_alive()
    assert "active" in phases
    assert _annotations(sd)["tee_phase"] == "idle"
