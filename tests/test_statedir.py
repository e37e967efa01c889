import json
import os
import threading
import time

import pytest

from c4run import fsutil
from c4run.crashpoints import InjectedCrash, armed
from c4run.errors import (
    ContractViolation,
    CorruptStateError,
    ExactlyOnceViolation,
    TransitionError,
    VersionConflict,
)
from c4run.lifecycle import EventSource, LifecycleState as L, TerminationEvent, TerminationReason
from c4run.statedir import StageRecord, StateDir, load_receipts
from oracles import find_stage_record


def _init(root, bundle, cid="c1") -> StateDir:
    sd = StateDir(root, cid)
    sd.init(bundle, "seed")
    return sd


def _tree_listing(path):
    return sorted(
        str(p.relative_to(path)) for p in path.rglob("*") if not p.name.endswith(".tmp")
    )


def test_init_materializes_full_layout(root, sim_bundle):
    sd = _init(root, sim_bundle)
    for p in (
        sd.state_path,
        sd.session_path,
        sd.requests_dir,
        sd.claimed_dir,
        sd.responses_dir,
        sd.enclaves_dir,
        sd.anchor_out_path,
        sd.accepts_path,
        sd.bundle_dir,
        sd.rootfs_dir,
        sd.marker_path,
    ):
        assert p.exists(), p
    rec = sd.read_record()
    assert rec.state is L.PREPARED and rec.ver == 1
    assert sd.list_eids() == []
    assert not (sd.path / "eid.seq").exists()
    session = sd.load_session()
    assert session.epoch == 0 and session.next_seq == 0
    # Neither stores what it can derive: the OCI status is project_oci(state),
    # and the builder counter starts each epoch at 0.
    assert set(json.loads(sd.session_path.read_text())) == {"schema_version", "cid", "epoch", "sk_hex"}
    assert set(json.loads(sd.state_path.read_text())) == {"schema_version", "cid", "state", "ver"}


def test_files_written_before_the_keys_went_still_read(root, sim_bundle):
    sd = _init(root, sim_bundle)
    state, session = json.loads(sd.state_path.read_text()), json.loads(sd.session_path.read_text())
    sd.state_path.write_text(json.dumps({**state, "oci_status": "created"}))
    sd.session_path.write_text(json.dumps({**session, "next_seq": 0}))
    assert sd.read_record().state is L.PREPARED
    assert sd.load_session().sk.hex() == session["sk_hex"]
    eid = sd.allocate_eid(1, 0)
    old_meta = {
        **_stage_record(eid).to_json(), "eid": eid, "backend": "sim", "status": "completed",
        "started_at": 1.0, "finished_at": 2.0, "session_cid": sd.cid, "session_epoch": 1,
        "session_seq": 0, "log_path": "run.log",
    }
    sd.meta_path(eid).write_text(json.dumps(old_meta))
    assert sd.read_stage_record(eid) == _stage_record(eid)


def test_init_idempotent_no_rewrites(root, sim_bundle):
    sd = _init(root, sim_bundle)
    before = {p: p.stat().st_mtime_ns for p in (sd.state_path, sd.session_path)}
    sd.init(sim_bundle, "seed")
    after = {p: p.stat().st_mtime_ns for p in before}
    assert before == after
    assert sd.read_record().ver == 1


@pytest.mark.parametrize(
    "point",
    ["create:post-root", "create:post-dirs", "create:post-bundle", "create:post-session", "create:pre-marker"],
)
def test_init_crash_then_retry_rebuilds_identically(root, sim_bundle, point):
    sd = StateDir(root, "c1")
    with pytest.raises(InjectedCrash):
        with armed(point):
            sd.init(sim_bundle, "seed")
    assert sd.read_record() is None  # partial create reads as the initial state
    sd.init(sim_bundle, "seed")
    assert sd.read_record().state is L.PREPARED

    reference = StateDir(root, "c2")
    reference.init(sim_bundle, "seed")
    assert _tree_listing(sd.path) == _tree_listing(reference.path)


def test_read_record_absent_vs_corrupt(root, sim_bundle):
    assert StateDir(root, "nope").read_record() is None
    sd = _init(root, sim_bundle)
    sd.state_path.write_bytes(b"\x00junk{{{")
    with pytest.raises(CorruptStateError):
        sd.read_record()


def test_update_record_cas_and_transitions(root, sim_bundle):
    sd = _init(root, sim_bundle)
    rec = sd.update_record(lambda r: r.with_state(L.RUNNING), expected_ver=1)
    assert rec.ver == 2 and rec.state is L.RUNNING
    with pytest.raises(VersionConflict):
        sd.update_record(lambda r: r.with_state(L.STOPPED, exit_code=0), expected_ver=1)
    rec = sd.update_record(lambda r: r.with_state(L.STOPPED, exit_code=0), expected_ver=2)
    with pytest.raises(TransitionError):
        sd.update_record(lambda r: r.with_state(L.RUNNING, exit_code=None), expected_ver=rec.ver)


def test_concurrent_cas_exactly_one_winner(root, sim_bundle):
    sd = _init(root, sim_bundle)
    iterations = 1000
    for i in range(iterations):
        expected = sd.read_record().ver
        barrier = threading.Barrier(2)
        outcomes = []

        def contender():
            barrier.wait()
            try:
                StateDir(root, "c1").update_record(lambda r: r.with_state(r.state), expected)
                outcomes.append("ok")
            except VersionConflict:
                outcomes.append("conflict")

        threads = [threading.Thread(target=contender) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(outcomes) == ["conflict", "ok"], f"iteration {i}: {outcomes}"


def test_update_record_rmw_skips_refuses_and_reports_absent(root, sim_bundle):
    sd = _init(root, sim_bundle)
    assert sd.update_record_rmw(lambda r: r.with_state(L.STOPPED, exit_code=0)).ver == 2
    before = sd.state_path.read_bytes()
    assert sd.update_record_rmw(lambda r: r).ver == 2  # unchanged input: no write
    with pytest.raises(TransitionError):
        sd.update_record_rmw(lambda r: r.with_state(L.RUNNING, exit_code=None))
    assert sd.state_path.read_bytes() == before
    assert StateDir(root, "nope").update_record_rmw(lambda r: r.with_state(L.RUNNING)) is None


def test_version_monotone_under_concurrent_rmw(root, sim_bundle):
    sd = _init(root, sim_bundle)
    writers, per_writer = 8, 25

    def work():
        own = StateDir(root, "c1")
        for _ in range(per_writer):
            own.update_record_rmw(lambda r: r.with_state(r.state))

    threads = [threading.Thread(target=work) for _ in range(writers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sd.read_record().ver == 1 + writers * per_writer


def test_spool_response_write_once(root, sim_bundle):
    sd = _init(root, sim_bundle)
    sd.spool_response("r1", {"schema_version": 1, "request_id": "r1"})
    original = sd.response_path("r1").read_bytes()
    with pytest.raises(ExactlyOnceViolation):
        sd.spool_response("r1", {"schema_version": 1, "request_id": "r1", "other": True})
    assert sd.response_path("r1").read_bytes() == original


def _stage_record(eid, rid="1-0-aaaaaaaa", rc=0):
    return StageRecord(
        eid=eid,
        request_id=rid,
        stage="hello",
        tee_type="sim",
        rc=rc,
        evidence_type="sim-measurement",
        measurement_hash="ab" * 32,
        failure_reason=None,
        timings={"claimed_at": 1.0, "finished_at": 2.0},
        evidence_extra=None,
    )


def test_write_stage_record_once_and_reads_back(root, sim_bundle):
    sd = _init(root, sim_bundle)
    eid = sd.allocate_eid(1, 0)
    assert eid == "eid-1-0"
    sd.write_stage_record(_stage_record(eid), b"log bytes")
    assert sd.run_log_path(eid).read_bytes() == b"log bytes"
    assert sd.read_stage_record(eid) == _stage_record(eid)
    with pytest.raises(ExactlyOnceViolation):
        sd.write_stage_record(_stage_record(eid), b"again")
    with pytest.raises(ContractViolation):
        sd.write_stage_record(_stage_record("eid-9999"), b"")
    assert find_stage_record(sd, "1-0-aaaaaaaa").eid == eid
    assert find_stage_record(sd, "missing") is None


def test_started_markers_are_receipt_lines_counted_by_claim(root, sim_bundle):
    sd = _init(root, sim_bundle)
    ids = ("1-0-aaaaaaaa", "1-1-bbbbbbbb", "1-2-cccccccc", "not-an-id")
    for request_id in ids:
        sd.write_started_marker(request_id, "eid-x", "hello", "sim")
    receipts = load_receipts(sd.receipts_path)
    assert [r["request_id"] for r in receipts] == list(ids)
    assert set(receipts[0]) == {"request_id", "eid", "stage", "backend", "ts"}
    assert os.listdir(sd.claimed_dir) == []  # the receipt is the only record
    assert sd.in_flight_count() == 0  # a receipt without a claim is settled
    for request_id in ids[:2] + ids[3:]:
        sd.claimed_path(request_id).write_bytes(b"{}")
    eid = sd.allocate_eid(1, 0)
    sd.write_stage_record(_stage_record(eid), b"")
    # 1-0's stage is recorded, 1-2 has no claim and "not-an-id" names no
    # stage: 1-1's is in flight
    assert sd.in_flight_count() == 1


def test_a_missing_receipts_journal_is_corruption(root, sim_bundle):
    sd = _init(root, sim_bundle)
    sd.claimed_path("1-0-aaaaaaaa").write_bytes(b"{}")
    sd.receipts_path.unlink()
    for read in (sd.touched, sd.in_flight_count, lambda: load_receipts(sd.receipts_path),
                 lambda: sd.write_started_marker("1-0-aaaaaaaa", "eid-1-0", "hello", "sim")):
        with pytest.raises(CorruptStateError, match="exec.receipts is missing"):
            read()
    assert not sd.receipts_path.exists()  # the append made no new journal


# meta.json's keys: what no path, bundle field or other key already holds.
META_KEYS = {
    "request_id", "stage", "tee_type", "rc", "evidence_type", "measurement_hash",
    "failure_reason", "timings", "evidence_extra", "schema_version",
}


def test_stage_record_json_holds_only_the_kept_meta_keys(root, sim_bundle):
    sd = _init(root, sim_bundle)
    record = _stage_record("eid-1-0", rc=7)._replace(evidence_extra={"behavior": "fail"})
    obj = record.to_json()
    assert set(obj) == META_KEYS
    assert StageRecord.from_json("eid-1-0", obj) == record
    assert (record.status, _stage_record("eid-1-0").status) == ("failed", "completed")
    assert "__init__" not in vars(StageRecord) and issubclass(StageRecord, tuple)
    sd.allocate_eid(1, 0)
    broken = [{k: v for k, v in obj.items() if k != key} for key in META_KEYS - {"schema_version"}]
    broken += [{**obj, "timings": timings} for timings in ({}, {"finished_at": "2"}, None)]
    for meta in broken:  # state orders records by timings.finished_at
        sd.meta_path("eid-1-0").write_text(json.dumps(meta))
        with pytest.raises(CorruptStateError):
            sd.read_stage_record("eid-1-0")


def test_events_journal_appends_and_dedupes(root, sim_bundle):
    sd = _init(root, sim_bundle)
    event = TerminationEvent(
        src=EventSource.REE, code=0, reason=TerminationReason.KILLED, observed_at=1.0, origin="kill"
    )
    assert sd.append_event(event)
    assert not sd.append_event(event)  # same origin: recorded once
    other = TerminationEvent(
        src=EventSource.TEE, code=7, reason=TerminationReason.ERROR, observed_at=2.0, origin="stage:eid-0001"
    )
    assert sd.append_event(other)
    events = sd.load_events()
    assert [e.origin for e in events] == ["kill", "stage:eid-0001"]


def test_append_line_cuts_a_torn_tail_and_refuses_a_short_journal(tmp_path):
    path = tmp_path / "journal"
    with pytest.raises(FileNotFoundError):
        fsutil.append_line(path, b"a")  # journals are made by create, never by an append
    path.touch()
    assert fsutil.append_line(path, b"a") == 2
    with open(path, "ab") as f:
        f.write(b"x" * 5000)  # longer than one backward read
    assert fsutil.read_lines(path) == ([b"a"], 2)
    assert fsutil.append_line(path, b"b") == 4
    assert path.read_bytes() == b"a\nb\n"
    with pytest.raises(CorruptStateError):
        fsutil.append_line(path, b"c", 5)
    assert path.read_bytes() == b"a\nb\n"


def test_delete_idempotent_and_crash_safe(root, sim_bundle):
    sd = _init(root, sim_bundle)
    with pytest.raises(InjectedCrash):
        with armed("delete:post-marker"):
            sd.delete()
    assert sd.read_record() is None  # marker gone first: already absent
    sd.delete()
    assert not sd.path.exists()
    sd.delete()  # repeated delete stays a no-op
    sd.init(sim_bundle, "seed")
    assert sd.read_record().state is L.PREPARED


def test_partial_tree_discarded_on_recreate(root, sim_bundle):
    sd = StateDir(root, "c1")
    sd.path.mkdir(parents=True)
    (sd.path / "leftover").write_text("stale")
    sd.init(sim_bundle, "seed")
    assert not (sd.path / "leftover").exists()
    assert sd.read_record().state is L.PREPARED


def test_claim_is_atomic_single_winner(root, sim_bundle):
    sd = _init(root, sim_bundle)
    sd.spool_request({"schema_version": 1}, "1-0-aaaaaaaa")
    pending = sd.pending_requests()[0]
    wins = []
    barrier = threading.Barrier(4)

    def claimer():
        own = StateDir(root, "c1")
        barrier.wait()
        if own.claim_request(pending) is not None:
            wins.append(1)

    threads = [threading.Thread(target=claimer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(wins) == 1
    assert sd.pending_requests() == []


def test_pending_requests_sorted_by_epoch_seq(root, sim_bundle):
    sd = _init(root, sim_bundle)
    for rid in ("1-10-aa", "1-2-bb", "1-0-cc", "2-1-dd"):
        sd.spool_request({"schema_version": 1}, rid)
    names = [p.stem for p in sd.pending_requests()]
    assert names == ["1-0-cc", "1-2-bb", "1-10-aa", "2-1-dd"]


def _fifo_without_reader(sd):
    os.mkfifo(sd.wake_path)


def _full_fifo(sd):
    os.mkfifo(sd.wake_path)
    fd = os.open(sd.wake_path, os.O_RDWR | os.O_NONBLOCK)
    try:
        while True:
            os.write(fd, b"\0")
    except BlockingIOError:
        return fd


def _regular_file(sd):
    sd.wake_path.write_bytes(b"")


@pytest.mark.parametrize("setup", [None, _fifo_without_reader, _full_fifo, _regular_file])
def test_spool_request_returns_at_once_whatever_the_wake_is(root, sim_bundle, setup):
    sd = _init(root, sim_bundle)
    held = setup(sd) if setup else None
    try:
        t = threading.Thread(target=sd.spool_request, args=({"schema_version": 1}, "1-0-aa"), daemon=True)
        t.start()
        t.join(timeout=5)
        assert not t.is_alive()
        assert [p.stem for p in sd.pending_requests()] == ["1-0-aa"]
        if setup is _regular_file:
            assert sd.wake_path.stat().st_size == 0  # never written to
    finally:
        if held is not None:
            os.close(held)


def test_wake_that_is_not_a_fifo_warns_once_as_a_json_line(root, sim_bundle, capsys):
    sd = _init(root, sim_bundle)
    _regular_file(sd)
    capsys.readouterr()
    with sd.wake_fds() as fds:
        assert fds == []
    (line,) = capsys.readouterr().err.splitlines()
    warning = json.loads(line)
    assert set(warning) == {"cid", "msg"} and warning["cid"] == sd.cid
