import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from c4run import runtime
from c4run.backends.base import TIMEOUT_RC
from c4run.bundle import write_sleep_anchor_bundle, write_test_bundle
from c4run.crashpoints import InjectedCrash, armed
from c4run.errors import (
    AbsentRecordError,
    IllegalStateError,
    InternalError,
    UsageError,
    WaitTimeout,
)
from c4run.lifecycle import LifecycleState as L
from c4run.serve import ServeLoop
from c4run.statedir import StageRecord, StateDir
from oracles import find_stage_record, oracle_reduce

SRC = Path(__file__).resolve().parent.parent / "src"


def _ppid(pid: int) -> int:
    return int(Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[1])


def test_full_cycle_with_reference_anchor(root, sim_bundle):
    cid = "cycle"
    out = runtime.cmd_create(root, cid, sim_bundle)
    assert out == {"cid": cid, "state": "prepared", "ver": 1}
    assert runtime.cmd_state(root, cid)["status"] == "created"

    started = runtime.cmd_start(root, cid)
    assert started["state"] == "running"
    envelope = runtime.cmd_state(root, cid)
    assert envelope["status"] == "running"
    assert envelope["pid"] == started["pid"]
    assert set(envelope["annotations"]) == {"trust_flag", "health_flag", "tee_phase", "ready"}

    sd = StateDir(root, cid)
    summary = ServeLoop(sd, workers=4).run(mode="until-done")
    assert summary.completed == 4

    waited = runtime.cmd_wait(root, cid, timeout=30)
    assert waited == {"cid": cid, "state": "stopped", "exit_code": 0}
    assert runtime.cmd_wait(root, cid, timeout=1) == waited  # repeated wait agrees

    final = runtime.cmd_state(root, cid)
    assert final["status"] == "stopped"
    assert final["annotations"]["trust_flag"] == "trusted"
    assert final["annotations"]["ready"] is False
    assert "pid" not in final

    assert runtime.cmd_kill(root, cid)["noop"] is True
    runtime.cmd_delete(root, cid)
    with pytest.raises(AbsentRecordError):
        runtime.cmd_state(root, cid)


def _record_stage(sd: StateDir, *, seq: int, rc: int, finished_at: float, executed: bool = True) -> str:
    """Write one stage record straight into the state dir, as serve would."""
    eid = sd.allocate_eid(1, seq)
    record = StageRecord(
        eid=eid,
        stage="hello",
        request_id=f"r-{eid}",
        backend="sim",
        tee_type="sim",
        rc=rc,
        status="completed" if rc == 0 else "failed",
        started_at=finished_at - 1.0,
        finished_at=finished_at,
        evidence_type="sim-measurement" if executed else "none",
        measurement_hash="ab" * 32 if executed else "",
        session_cid=sd.cid,
        session_epoch=1,
        session_seq=seq,
    )
    sd.write_stage_record(eid, record, b"")
    return eid


def _flags(root, cid) -> tuple:
    ann = runtime.cmd_state(root, cid)["annotations"]
    return ann["trust_flag"], ann["health_flag"], ann["tee_phase"]


def test_state_trust_and_health_unknown_before_an_executed_stage(root, sim_bundle):
    runtime.cmd_create(root, "f1", sim_bundle)
    sd = StateDir(root, "f1")
    assert _flags(root, "f1") == ("unknown", "unknown", "idle")
    _record_stage(sd, seq=0, rc=127, finished_at=100.0, executed=False)  # stage not found
    assert _flags(root, "f1") == ("unknown", "unknown", "error")
    _record_stage(sd, seq=1, rc=0, finished_at=200.0)
    assert _flags(root, "f1") == ("trusted", "healthy", "idle")


def test_state_flags_follow_the_later_finished_record(root, sim_bundle):
    runtime.cmd_create(root, "f2", sim_bundle)
    sd = StateDir(root, "f2")
    assert _record_stage(sd, seq=0, rc=TIMEOUT_RC, finished_at=200.0) == "eid-1-0"
    assert _record_stage(sd, seq=1, rc=0, finished_at=100.0) == "eid-1-1"
    # eid-1-0 finished later: it decides, although eid-1-1 sorts after it
    assert _flags(root, "f2") == ("trusted", "degraded", "error")


def test_state_phase_error_outranks_a_stage_in_flight(root, sim_bundle):
    runtime.cmd_create(root, "f3", sim_bundle)
    sd = StateDir(root, "f3")
    _record_stage(sd, seq=0, rc=7, finished_at=100.0)
    sd.write_started_marker("r-in-flight", sd.allocate_eid(1, 1), "sleep")
    assert sd.in_flight_count() == 1
    assert _flags(root, "f3")[2] == "error"


def test_create_idempotent_and_invalid_bundle(root, sim_bundle, tmp_path):
    runtime.cmd_create(root, "c1", sim_bundle)
    ver_before = StateDir(root, "c1").read_record().ver
    again = runtime.cmd_create(root, "c1", sim_bundle)
    assert again["ver"] == ver_before == 1

    bad = tmp_path / "bad-bundle"
    bundle = write_test_bundle(bad)
    cfg = json.loads((bad / "config.json").read_text())
    cfg["c4"].pop("stage_table")
    (bad / "config.json").write_text(json.dumps(cfg))
    with pytest.raises(UsageError):
        runtime.cmd_create(root, "c2", bad)
    assert StateDir(root, "c2").read_record() is None  # stays in the initial state
    runtime.cmd_kill(root, "c1")
    runtime.cmd_delete(root, "c1")


def test_start_idempotent_single_anchor(root, sleep_anchor_bundle):
    cid = "s1"
    runtime.cmd_create(root, cid, sleep_anchor_bundle)
    first = runtime.cmd_start(root, cid)
    second = runtime.cmd_start(root, cid)
    assert second["pid"] == first["pid"]
    assert second.get("reattached") is True
    session = StateDir(root, cid).load_session()
    assert session.epoch == 1  # one start, one epoch advance
    runtime.cmd_kill(root, cid, grace_s=3)
    with pytest.raises(IllegalStateError):
        runtime.cmd_start(root, cid)  # terminal states refuse start
    runtime.cmd_delete(root, cid)


def test_wait_timeout_leaves_state_unchanged(root, sleep_anchor_bundle):
    cid = "w1"
    runtime.cmd_create(root, cid, sleep_anchor_bundle)
    runtime.cmd_start(root, cid)
    before = StateDir(root, cid).read_record().ver
    with pytest.raises(WaitTimeout):
        runtime.cmd_wait(root, cid, timeout=0.2)
    rec = StateDir(root, cid).read_record()
    assert rec.state is L.RUNNING and rec.ver == before
    runtime.cmd_kill(root, cid, grace_s=3)
    runtime.cmd_delete(root, cid)


def test_kill_semantics(root, sleep_anchor_bundle):
    cid = "k1"
    with pytest.raises(AbsentRecordError):
        runtime.cmd_kill(root, cid)
    runtime.cmd_create(root, cid, sleep_anchor_bundle)
    runtime.cmd_start(root, cid)
    killed = runtime.cmd_kill(root, cid, grace_s=3)
    assert killed["state"] == "stopped" and killed["exit_code"] == 0
    waited = runtime.cmd_wait(root, cid, timeout=5)
    assert waited["state"] == "stopped" and waited["exit_code"] == 0
    assert runtime.cmd_kill(root, cid)["noop"] is True  # kill on terminal
    runtime.cmd_delete(root, cid)


def test_kill_on_prepared_stops_without_anchor(root, sim_bundle):
    cid = "k2"
    runtime.cmd_create(root, cid, sim_bundle)
    killed = runtime.cmd_kill(root, cid)
    assert killed["state"] == "stopped" and killed["exit_code"] == 0
    runtime.cmd_delete(root, cid)


def test_start_finishes_a_kill_that_died_before_its_record_update(root, sleep_anchor_bundle):
    cid = "k-crash"
    runtime.cmd_create(root, cid, sleep_anchor_bundle)
    sd = StateDir(root, cid)
    try:
        with pytest.raises(InjectedCrash), armed("update:pre-write"):
            runtime.cmd_kill(root, cid)
        assert sd.read_record().state is L.PREPARED and sd.kill_marker_path.exists()
        with pytest.raises(IllegalStateError) as refused:
            runtime.cmd_start(root, cid)
        assert refused.value.exit_code == 3  # kill-then-start, as EntrypointModel predicts
        rec = sd.read_record()
        assert (rec.state, rec.exit_code) == (L.STOPPED, 0)
        assert sd.read_anchor_pid() is None  # no anchor was launched
    finally:
        runtime.cmd_delete(root, cid, force=True)


def test_start_that_cannot_launch_the_anchor_leaves_the_instance_prepared(root, tmp_path):
    bundle = write_sleep_anchor_bundle(tmp_path / "b-noexec")
    (bundle / "rootfs" / "bin" / "sleep-anchor.sh").chmod(0o644)
    cid = "noexec"
    runtime.cmd_create(root, cid, bundle)
    with pytest.raises(InternalError, match="anchor failed to launch") as failed:
        runtime.cmd_start(root, cid)
    assert failed.value.exit_code == 5
    sd = StateDir(root, cid)
    assert sd.read_record().state is L.PREPARED
    assert not sd.anchor_pid_path.exists() and not sd.anchor_exit_path.exists()
    killed = runtime.cmd_kill(root, cid)
    assert (killed["state"], killed["exit_code"]) == ("stopped", 0)
    runtime.cmd_delete(root, cid)


def test_cli_start_returns_while_the_anchor_runs(root, sleep_anchor_bundle):
    cid = "detached"
    runtime.cmd_create(root, cid, sleep_anchor_bundle)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "c4run.cli", "--statedir-root", str(root), "start", cid],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        # The anchor sleeps for minutes: a supervisor holding start's stdout
        # or stderr would keep these pipes open until it exits.
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        started = json.loads(out)
        assert started["state"] == "running"
        os.kill(started["pid"], 0)
    finally:
        proc.kill()
        proc.wait()
        runtime.cmd_delete(root, cid, force=True)


def test_supervisor_is_detached_from_an_in_process_start(running_instance):
    supervisor = _ppid(running_instance.read_anchor_pid())
    assert supervisor != os.getpid()
    assert _ppid(supervisor) != os.getpid()  # not even a zombie-to-be of ours
    fds = Path(f"/proc/{supervisor}/fd")
    assert {n: os.readlink(fds / n) for n in os.listdir(fds)} == {n: os.devnull for n in ("0", "1", "2")}


def test_kill_with_stage_executing_cancels_cleanly(root, tmp_path):
    import threading

    bundle = write_sleep_anchor_bundle(tmp_path / "b-kill")
    cid = "k3"
    runtime.cmd_create(root, cid, bundle)
    runtime.cmd_start(root, cid)
    sd = StateDir(root, cid)
    loop = ServeLoop(sd, workers=1)
    loop.adapter.stage_table["sleep"]["ms"] = 5000
    from c4run.protocol import build_request, request_to_envelope

    session = sd.load_session()
    req = build_request(session, "sleep", b"p")
    sd.spool_request(request_to_envelope(req), req.request_id)
    t = threading.Thread(target=loop.process_next)
    t.start()
    deadline = time.monotonic() + 5
    while sd.in_flight_count() == 0 and time.monotonic() < deadline:
        time.sleep(0.02)

    killed = runtime.cmd_kill(root, cid, grace_s=5)
    t.join(timeout=10)
    assert killed["state"] == "stopped" and killed["exit_code"] == 0
    record = find_stage_record(sd, req.request_id)
    assert record.status == "failed" and record.failure_reason == "cancelled"
    assert sd.response_path(req.request_id).exists()
    runtime.cmd_delete(root, cid)


def test_delete_preconditions(root, sleep_anchor_bundle):
    cid = "d1"
    assert runtime.cmd_delete(root, cid)["deleted"] is True  # absent: no-op
    runtime.cmd_create(root, cid, sleep_anchor_bundle)
    with pytest.raises(IllegalStateError):
        runtime.cmd_delete(root, cid)  # Prepared is not terminal
    runtime.cmd_start(root, cid)
    with pytest.raises(IllegalStateError):
        runtime.cmd_delete(root, cid)
    runtime.cmd_delete(root, cid, force=True)  # kill-then-delete
    assert StateDir(root, cid).read_record() is None
    runtime.cmd_delete(root, cid)  # repeated delete succeeds


def test_delete_failed_instance_ends_its_anchor(root, running_instance):
    from c4run.protocol import build_request, request_to_envelope

    sd = running_instance
    req = build_request(sd.load_session(), "fail", b"p")
    sd.spool_request(request_to_envelope(req), req.request_id)
    ServeLoop(sd, workers=1, fail_fast=True).process_next()
    rec = sd.read_record()
    assert rec.state is L.FAILED  # fail-fast: terminal while the anchor lives
    os.kill(rec.anchor_pid, 0)
    assert runtime.cmd_kill(root, sd.cid)["noop"] is True
    runtime.cmd_delete(root, sd.cid)
    assert not sd.path.exists()
    with pytest.raises(ProcessLookupError):
        os.kill(rec.anchor_pid, 0)


def test_stale_running_state_detected(root, sleep_anchor_bundle):
    cid = "stale"
    runtime.cmd_create(root, cid, sleep_anchor_bundle)
    started = runtime.cmd_start(root, cid)
    os.kill(started["pid"], signal.SIGKILL)  # anchor dies behind our back
    sd = StateDir(root, cid)
    deadline = time.monotonic() + 10
    while sd.read_anchor_exit() is None and time.monotonic() < deadline:
        time.sleep(0.02)
    with pytest.raises(IllegalStateError, match="anchor is gone"):
        runtime.cmd_start(root, cid)
    waited = runtime.cmd_wait(root, cid, timeout=10)
    # externally killed without our kill marker: a host-side error exit
    assert waited["state"] == "failed" and waited["exit_code"] == 128 + signal.SIGKILL
    runtime.cmd_delete(root, cid)


def test_failed_stage_exit_composes_with_reduction_oracle(root, tmp_path):
    bundle = write_test_bundle(tmp_path / "b-fail", workload={"stages": ["hello", "fail"]})
    cid = "f1"
    runtime.cmd_create(root, cid, bundle)
    runtime.cmd_start(root, cid)
    sd = StateDir(root, cid)
    ServeLoop(sd, workers=2).run(mode="until-done")
    waited = runtime.cmd_wait(root, cid, timeout=30)

    events = [(e.src.value, e.code, e.reason.value, e.observed_at) for e in sd.load_events()]
    expected_code, _ = oracle_reduce(events)
    assert waited["exit_code"] == expected_code == 7
    assert waited["state"] == "failed"
    runtime.cmd_delete(root, cid)


def test_warm_create_shares_rootfs(root, sim_bundle):
    cid = "warm"
    runtime.cmd_create(root, cid, sim_bundle, reuse_bundle=True)
    sd = StateDir(root, cid)
    src = sim_bundle / "rootfs" / "bin" / "c4-anchor"
    dst = sd.rootfs_dir / "bin" / "c4-anchor"
    assert dst.exists()
    assert os.stat(src).st_ino == os.stat(dst).st_ino  # hardlinked, not copied
    runtime.cmd_start(root, cid)
    summary = ServeLoop(sd, workers=4).run(mode="until-done")
    assert summary.completed == 4
    assert runtime.cmd_wait(root, cid, timeout=30)["exit_code"] == 0
    runtime.cmd_delete(root, cid)


def test_cli_surface(root, sim_bundle, capsys):
    from c4run.cli import main

    base = ["--statedir-root", str(root)]
    assert main([*base, "create", "cli1", "--bundle", str(sim_bundle)]) == 0
    assert main([*base, "state", "cli1"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["status"] == "created"
    assert main([*base, "state", "ghost"]) == 2
    assert main([*base, "delete", "cli1"]) == 3  # not terminal yet
    assert main([*base, "kill", "cli1"]) == 0
    assert main([*base, "delete", "cli1"]) == 0
    assert main([*base, "wait", "cli1"]) == 2
    assert main(["bogus-command"]) == 1
    assert main([*base, "create", "cli2"]) == 1  # missing --bundle


def test_env_var_statedir_root(root, sim_bundle, capsys, monkeypatch):
    from c4run.cli import main

    monkeypatch.setenv("C4RUN_STATEDIR_ROOT", str(root))
    assert main(["create", "env1", "--bundle", str(sim_bundle)]) == 0
    assert StateDir(root, "env1").read_record() is not None
    assert main(["kill", "env1"]) == 0
    assert main(["delete", "env1"]) == 0
