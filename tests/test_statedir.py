import json
import os
import threading
import time

import pytest

from c4run.crashpoints import InjectedCrash, armed
from c4run.errors import (
    ContractViolation,
    CorruptStateError,
    ExactlyOnceViolation,
    TransitionError,
    VersionConflict,
)
from c4run.lifecycle import EventSource, LifecycleState as L, TerminationEvent, TerminationReason
from c4run.statedir import StageRecord, StateDir
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
    assert set(json.loads(sd.session_path.read_text())) == {"schema_version", "cid", "epoch", "sk_hex", "next_seq"}


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


def _stage_record(sd, eid, rid="r1", rc=0):
    return StageRecord(
        eid=eid,
        stage="hello",
        request_id=rid,
        backend="sim",
        tee_type="sim",
        rc=rc,
        status="completed" if rc == 0 else "failed",
        started_at=1.0,
        finished_at=2.0,
        evidence_type="sim-measurement",
        measurement_hash="ab" * 32,
        session_cid=sd.cid,
        session_epoch=1,
        session_seq=0,
    )


def test_write_stage_record_once_and_reads_back(root, sim_bundle):
    sd = _init(root, sim_bundle)
    eid = sd.allocate_eid(1, 0)
    assert eid == "eid-1-0"
    sd.write_stage_record(eid, _stage_record(sd, eid), b"log bytes")
    assert sd.run_log_path(eid).read_bytes() == b"log bytes"
    assert sd.read_stage_record(eid).request_id == "r1"
    with pytest.raises(ExactlyOnceViolation):
        sd.write_stage_record(eid, _stage_record(sd, eid), b"again")
    with pytest.raises(ContractViolation):
        sd.write_stage_record("eid-9999", _stage_record(sd, "eid-9999"), b"")
    assert find_stage_record(sd, "r1").eid == eid
    assert find_stage_record(sd, "missing") is None


def test_stage_record_requires_terminal_status(root, sim_bundle):
    with pytest.raises(ContractViolation):
        StageRecord(
            eid="eid-0001", stage="s", request_id="r", backend="sim", tee_type="sim",
            rc=0, status="executing", started_at=0, finished_at=0,
            evidence_type="none", measurement_hash="", session_cid="c", session_epoch=1, session_seq=0,
        )


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
