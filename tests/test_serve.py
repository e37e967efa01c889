import itertools
import json
import os
import random
import stat
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from c4run import runtime
from c4run.anchor import run_workload
from c4run.backends import load_receipts
from c4run.backends.sim import DEFAULT_AESGCM_KEY, DEFAULT_AESGCM_NONCE
from c4run.bench import audit_artifacts
from c4run.fsutil import read_json
from c4run.errors import CorruptStateError, IllegalStateError
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
from c4run.serve import ServeLoop, claim_next
from c4run.statedir import StateDir
from conftest import spool
from oracles import find_stage_record

SRC = Path(__file__).resolve().parent.parent / "src"


def _response(sd: StateDir, rid):
    return response_from_envelope(read_json(sd.response_path(rid), "response"))


def _annotations(sd: StateDir) -> dict:
    return runtime.cmd_state(sd.path.parent, sd.cid)["annotations"]


def test_single_request_full_pipeline(running_instance):
    sd = running_instance
    (req,) = spool(sd)
    loop = ServeLoop(sd, workers=1)
    result = loop.process_next()
    assert result.terminal is ResponseStatus.COMPLETED
    eid = f"eid-{req.epoch}-{req.seq}"
    assert result.eid == eid

    record = sd.read_stage_record(eid)
    assert record.request_id == req.request_id and record.stage == "hello"
    assert record.rc == 0 and record.status == "completed"
    assert sd.run_log_path(eid).read_bytes() == f"hello from {eid}\n".encode()

    resp = _response(sd, req.request_id)
    session = sd.load_session()
    assert verify_response(resp, session, {req.request_id})
    assert resp.status is ResponseStatus.COMPLETED and resp.eid == eid

    annotations = _annotations(sd)
    assert (annotations["trust_flag"], annotations["health_flag"]) == ("trusted", "healthy")
    assert annotations["tee_phase"] == "idle"
    assert req.request_id in session.seen_request_ids
    assert os.listdir(sd.claimed_dir) == []

    # meta/log precede the response and the pipeline timestamps are ordered
    t = record.timings
    assert t["claimed_at"] <= t["prepared_at"] <= t["executing_at"] <= t["finished_at"]


def test_served_meta_json_holds_only_what_nothing_else_holds(running_instance):
    # Its path names the instance and (epoch, seq), the bundle the backend,
    # and rc the status.
    sd = running_instance
    spool(sd)
    result = ServeLoop(sd, workers=1).process_next()
    assert set(json.loads(sd.meta_path(result.eid).read_bytes())) == {
        "request_id", "stage", "tee_type", "rc", "evidence_type", "measurement_hash",
        "failure_reason", "timings", "evidence_extra", "schema_version",
    }


def test_replayed_request_rejected_without_new_eid(running_instance):
    sd = running_instance
    (req,) = spool(sd)
    envelope = request_to_envelope(req)
    loop = ServeLoop(sd, workers=1)
    assert loop.process_next().terminal is ResponseStatus.COMPLETED
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
    assert result.terminal is ResponseStatus.REJECTED
    assert result.reject_reason == "bind_cid_mismatch"
    resp = _response(sd, req.request_id)
    assert resp.status is ResponseStatus.REJECTED and resp.eid is None
    assert verify_response(resp, sd.load_session(), {req.request_id})
    # the session is untouched by a rejected request
    assert req.request_id not in sd.load_session().seen_request_ids


def test_claim_next_empty_and_exactly_once(running_instance):
    sd = running_instance
    assert claim_next(sd) is None
    spool(sd, n=1)
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
    reqs = spool(sd, n=100)
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
    processed = [r.request_id for r in sd.stage_records()]
    assert len(processed) == 100 and set(processed) == {r.request_id for r in reqs}

    from collections import Counter

    counts = Counter(r["request_id"] for r in load_receipts(sd.receipts_path))
    assert all(n == 1 for n in counts.values()) and len(counts) == 100

    session = sd.load_session()
    accepted_seqs = sorted(int(rid.split("-")[1]) for rid in session.seen_request_ids)
    assert accepted_seqs == list(range(100))  # strictly increasing acceptance


def test_two_serve_loops_name_every_stage_after_its_request(running_instance):
    sd = running_instance
    reqs = spool(sd, n=32)

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
    spool(sd)
    assert loop_b.process_next().terminal is ResponseStatus.COMPLETED

    session = sd.load_session()
    earlier = build_request(session, "hello", b"p")
    r = build_request(session, "hello", b"p")
    sd.spool_request(request_to_envelope(r), r.request_id)
    assert loop_a.process_next().terminal is ResponseStatus.COMPLETED
    same_nonce = build_request(session, "hello", b"p")._replace(nonce=r.nonce, mac=b"")
    same_nonce = same_nonce._replace(mac=request_mac(session.sk, same_nonce))

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
    spool(sd, n=200)
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
    (honest,) = spool(sd)
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


@pytest.mark.parametrize(
    "workload",
    [{"stages": "hello"}, {"stages": ["hello", "hello"], "concurrency": 0}],
    ids=["stages-not-a-list", "concurrency-zero"],
)
def test_anchor_rejects_an_invalid_workload_before_spooling(root, sim_bundle, capsys, workload):
    # With concurrency 0 the anchor used to wait for a free slot until its
    # response deadline, then fail requests that serve had completed.
    sd = StateDir(root, "t-anchor")
    sd.init(sim_bundle)
    t0 = time.monotonic()
    assert run_workload(sd, sd.load_session(), dict(workload, response_timeout_s=3)) == 2
    assert time.monotonic() - t0 < 1.0
    assert sd.pending_requests() == []
    assert "anchor: invalid workload" in capsys.readouterr().err


def test_until_idle_never_counts_a_full_iteration_as_idle(running_instance):
    # One loop, stages outlasting the poll: an iteration that ran a stage
    # never counts as idle.
    sd = running_instance
    spool(sd, stage="sleep", n=3)  # 50 ms each in the sim table
    summary = ServeLoop(sd, workers=1, idle_polls=1, poll_interval=0.01).run(mode="until-idle")
    assert summary.stop_reason == "idle"
    assert summary.completed == 3
    assert sd.pending_requests() == []


def test_four_workers_execute_four_stages_at_once(running_instance):
    # Each execute returns only once all four are inside execute together.
    sd = running_instance
    spool(sd, n=4)
    loop = ServeLoop(sd, workers=4)
    barrier = threading.Barrier(4, timeout=10)
    execute = loop.adapter.execute

    def execute_together(*args, **kwargs):
        barrier.wait()
        return execute(*args, **kwargs)

    loop.adapter.execute = execute_together
    summary = loop.run(mode="until-idle")
    assert (summary.completed, summary.failed, summary.stop_reason) == (4, 0, "idle")


def test_more_workers_than_cores_count_every_request_once(running_instance):
    # A short switch interval preempts the loops often: a lost update to the
    # shared counts, or a request run twice, would show here.
    sd = running_instance
    spool(sd, n=48)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        summary = ServeLoop(sd, workers=8).run(mode="until-idle")
    finally:
        sys.setswitchinterval(interval)
    assert (summary.completed, summary.failed, summary.rejected) == (48, 0, 0)
    counts = Counter(r["request_id"] for r in load_receipts(sd.receipts_path))
    assert len(counts) == 48 and set(counts.values()) == {1}


def test_an_exception_in_one_loop_ends_every_loop_and_leaves_run(running_instance):
    # forever mode with a 5 s poll: the three loops that scan an empty spool
    # end only because the failing one stops them, and no thread outlives run().
    sd = running_instance
    pending_requests = sd.pending_requests
    scans = itertools.count()

    def first_scan_fails():
        if next(scans) == 0:
            raise CorruptStateError("injected")
        return pending_requests()

    sd.pending_requests = first_scan_fails
    loop = ServeLoop(sd, workers=4, poll_interval=5.0)
    before = set(threading.enumerate())
    t0 = time.monotonic()
    with pytest.raises(CorruptStateError, match="injected"):
        loop.run(mode="forever")
    assert time.monotonic() - t0 < 2.5
    assert [t for t in threading.enumerate() if t not in before] == []


def test_idle_serve_wakes_when_a_request_is_spooled(running_instance):
    sd = running_instance
    loop = ServeLoop(sd, workers=1, idle_polls=2, poll_interval=2.0)
    out = {}
    t = threading.Thread(target=lambda: out.setdefault("summary", loop.run(mode="until-idle")))
    t.start()
    time.sleep(0.3)  # serve has scanned the empty spool and is waiting
    spooled_at = time.time()
    (req,) = spool(sd)
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


def test_until_done_stops_when_the_supervisor_rings_the_anchor_exit(root, sim_bundle):
    # The reference anchor spools 4 requests and exits once all are answered;
    # with a 5 s poll, only the supervisor's ring can end the wait that
    # follows the last response.
    runtime.cmd_create(root, "ring", sim_bundle)
    runtime.cmd_start(root, "ring")
    sd = StateDir(root, "ring")
    try:
        summary = ServeLoop(sd, workers=2, poll_interval=5.0).run(mode="until-done")
        returned_at = time.time()
        assert (summary.stop_reason, summary.completed) == ("done", 4)
        assert returned_at - sd.read_anchor_exit()["finished_at"] < 1.0
    finally:
        runtime.cmd_kill(root, "ring", grace_s=3)
        runtime.cmd_delete(root, "ring")


def test_wake_that_is_not_a_fifo_leaves_serve_polling(running_instance):
    sd = running_instance
    sd.wake_path.write_bytes(b"")  # readable at once, forever, if serve waited on it
    spool(sd)
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
    (req,) = spool(sd, stage="fail")
    loop = ServeLoop(sd, workers=1, fail_fast=True)
    result = loop.process_next()
    assert result.terminal is ResponseStatus.FAILED and result.rc == 7
    rec = sd.read_record()
    assert rec.state is L.FAILED and rec.exit_code == 7
    assert sd.read_stage_record(result.eid).rc == 7
    assert _annotations(sd)["tee_phase"] == "error"
    resp = _response(sd, req.request_id)
    assert resp.status is ResponseStatus.FAILED and resp.rc == 7


def test_fail_stage_without_fail_fast_keeps_running(running_instance):
    sd = running_instance
    spool(sd, stage="fail")
    loop = ServeLoop(sd, workers=1, fail_fast=False)
    result = loop.process_next()
    assert result.rc == 7
    rec = sd.read_record()
    assert rec.state is L.RUNNING
    assert sd.read_stage_record(result.eid).rc == 7
    assert _annotations(sd)["tee_phase"] == "error"
    assert sd.load_events() == []


def test_aesgcm_stage_seals_and_its_response_verifies(running_instance):
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    sd = running_instance
    (req,) = spool(sd, stage="aesgcm")
    assert ServeLoop(sd, workers=1).process_next().terminal is ResponseStatus.COMPLETED
    resp = _response(sd, req.request_id)
    assert verify_response(resp, sd.load_session(), {req.request_id})
    plaintext = random.Random(7).randbytes(1024 * 1024)  # the sim bundle's aesgcm entry
    sealed = AESGCM(DEFAULT_AESGCM_KEY).encrypt(DEFAULT_AESGCM_NONCE, plaintext, None)
    assert resp.output == sealed[-16:].hex().encode() + b"\n"


def test_successful_stage_leaves_instance_record_unwritten(running_instance):
    sd = running_instance
    before = sd.read_record()
    spool(sd)
    result = ServeLoop(sd, workers=1).process_next()
    assert result.terminal is ResponseStatus.COMPLETED
    assert sd.read_record() == before  # same state, same ver


def test_unknown_stage_fails_without_execution(running_instance):
    sd = running_instance
    (req,) = spool(sd, stage="unregistered")
    loop = ServeLoop(sd, workers=1, fail_fast=False)
    result = loop.process_next()
    assert result.terminal is ResponseStatus.FAILED and result.rc == 127
    record = find_stage_record(sd, req.request_id)
    assert record.status == "failed" and not record.executed
    assert load_receipts(sd.receipts_path) == []


def test_stale_seq_rejected_after_later_accept(running_instance):
    sd = running_instance
    session = sd.load_session()
    early = build_request(session, "hello", b"p")
    late = build_request(session, "hello", b"p")
    loop = ServeLoop(sd, workers=1)
    sd.spool_request(request_to_envelope(late), late.request_id)
    assert loop.process_next().terminal is ResponseStatus.COMPLETED
    sd.spool_request(request_to_envelope(early), early.request_id)
    result = loop.process_next()
    assert result.reject_reason == "order_stale_seq"


def test_serve_run_modes_and_preconditions(root, sim_bundle, running_instance):
    sd = running_instance
    spool(sd, n=4)
    summary = ServeLoop(sd, workers=4).run(mode="until-idle")
    assert summary.completed == 4 and summary.failed == 0 and summary.rejected == 0
    assert summary.stop_reason == "idle"
    assert len(sd.stage_records()) == 4
    assert summary.elapsed_s > 0
    assert list(summary.to_json()) == ["completed", "failed", "rejected", "stop_reason", "elapsed_s"]

    from c4run import runtime

    runtime.cmd_create(root, "unstarted", sim_bundle)
    with pytest.raises(IllegalStateError):
        ServeLoop(StateDir(root, "unstarted"), workers=1).run(mode="until-idle")
    with pytest.raises(IllegalStateError):
        ServeLoop(sd, workers=1).run(mode="sideways")
    runtime.cmd_delete(root, "unstarted", force=True)


def test_serve_on_terminal_instance_reports_terminal_and_exits(root, sim_bundle):
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
    assert done["result"].terminal is ResponseStatus.FAILED
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
    spool(sd, stage="sleep")
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


def test_missing_journal_stops_serve_before_a_second_execution(running_instance):
    # A host deletes accepts.log and a served request's response, then
    # spools the same envelope again: serve must not read the missing
    # journal as an empty epoch and run the request twice.
    sd = running_instance
    (req,) = spool(sd)
    assert ServeLoop(sd, workers=1).run(mode="until-idle").completed == 1
    sd.accepts_path.unlink()
    sd.response_path(req.request_id).unlink()
    sd.spool_request(request_to_envelope(req), req.request_id)

    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "c4run.cli", "--statedir-root", str(sd.path.parent),
         "serve", sd.cid, "--until-idle", "--workers", "1"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == CorruptStateError.exit_code, proc.stderr
    assert "accepts.log is missing" in proc.stderr
    assert [r["request_id"] for r in load_receipts(sd.receipts_path)] == [req.request_id]


def test_a_request_costs_eight_fsyncs_three_on_directories(running_instance, monkeypatch):
    # One each for the journal line and the receipt; a file and a directory
    # fsync each for run.log, meta.json and the response. Nothing else is
    # written durably, and the claim is gone once answered.
    sd = running_instance
    spool(sd)
    loop = ServeLoop(sd, workers=1)
    synced = []
    fsync = os.fsync

    def counted(fd):
        synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", counted)
    assert loop.process_next().terminal is ResponseStatus.COMPLETED
    monkeypatch.undo()
    assert (len(synced), sum(synced)) == (8, 3)
    assert os.listdir(sd.claimed_dir) == []


def _spare_inodes(sd: StateDir) -> set:
    return {os.lstat(sd.spare_dir / name).st_ino for name in os.listdir(sd.spare_dir)}


def test_a_stocked_request_makes_no_inode(running_instance):
    sd = running_instance
    (req,) = spool(sd)
    loop = ServeLoop(sd, workers=1)
    loop.spares.stock()
    stocked = _spare_inodes(sd)
    assert len(stocked) == 4  # a stage directory and three temp files

    result = loop.process_next()
    assert result.terminal is ResponseStatus.COMPLETED
    made = (
        sd.enclave_dir(result.eid),
        sd.run_log_path(result.eid),
        sd.meta_path(result.eid),
        sd.response_path(req.request_id),
    )
    assert {path.lstat().st_ino for path in made} == stocked
    assert os.listdir(sd.spare_dir) == []


@pytest.mark.parametrize("ending", ["idle", "done", "terminal", "error"])
def test_run_removes_its_spares_whichever_way_it_ends(root, sim_bundle, running_instance, ending):
    sd = running_instance
    if ending == "done":  # the reference anchor spools 4 requests and exits
        runtime.cmd_create(root, "done", sim_bundle)
        runtime.cmd_start(root, "done")
        sd = StateDir(root, "done")
    loop = ServeLoop(sd, workers=2, poll_interval=0.05, idle_polls=2)
    if ending == "error":
        scans = itertools.count()
        pending_requests = sd.pending_requests

        def third_scan_fails():
            if next(scans) == 2:
                raise CorruptStateError("injected")
            return pending_requests()

        sd.pending_requests = third_scan_fails
    else:
        loop.spares.stock()
    if ending == "terminal":
        out = {}
        t = threading.Thread(target=lambda: out.setdefault("summary", loop.run(mode="forever")))
        t.start()
        time.sleep(0.3)
        sd.update_record_rmw(lambda cur: cur.with_state(L.STOPPED, exit_code=0))
        t.join(timeout=15)
        assert out["summary"].stop_reason == "terminal"
    elif ending == "error":
        with pytest.raises(CorruptStateError, match="injected"):
            loop.run(mode="forever")
    else:
        mode = "until-done" if ending == "done" else "until-idle"
        assert loop.run(mode=mode).stop_reason == ending
    assert os.listdir(sd.spare_dir) == []
    if ending == "done":
        runtime.cmd_kill(root, "done", grace_s=3)
        runtime.cmd_delete(root, "done")


def test_a_spare_swapped_for_a_symlink_redirects_nothing(running_instance):
    # The host replaces every stocked spare's name with a symlink: the files'
    # to state.json, the directory's to the instance root.
    sd = running_instance
    (req,) = spool(sd)
    loop = ServeLoop(sd, workers=1)
    loop.spares.stock()
    state = sd.state_path.read_bytes()
    for name in os.listdir(sd.spare_dir):
        spare = sd.spare_dir / name
        target = sd.path if spare.is_dir() else sd.state_path
        (spare.rmdir if spare.is_dir() else spare.unlink)()
        spare.symlink_to(target)

    result = loop.process_next()
    assert result.terminal is ResponseStatus.COMPLETED
    assert sd.state_path.read_bytes() == state
    for path in (sd.enclave_dir(result.eid), sd.run_log_path(result.eid), sd.meta_path(result.eid),
                 sd.response_path(req.request_id)):
        assert not path.is_symlink()
    assert sd.read_stage_record(result.eid).request_id == req.request_id
    assert verify_response(_response(sd, req.request_id), sd.load_session(), {req.request_id})
    assert [r["request_id"] for r in load_receipts(sd.receipts_path)] == [req.request_id]
    assert os.listdir(sd.spare_dir) == []
