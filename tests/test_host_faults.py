"""Host-planted faults in the state directory.

A present file that is not a regular file, or does not decode, is corrupt
state: CorruptStateError in-process, and from the CLI exit 5 with one
stderr line, never a blocked open or a traceback. Each verb runs as its own
process under a timeout, after which subprocess.run SIGKILLs it, so a verb
that blocks fails its test instead of hanging the suite; the in-process
check only runs once the verb has returned.
"""

import json
import os
import shutil
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from c4run import fsutil, runtime
from c4run.bench import audit_artifacts, audit_state_consistency
from c4run.errors import EXIT_INTERNAL, CorruptStateError
from c4run.lifecycle import LifecycleState as L
from c4run.protocol import RejectReason, ResponseStatus, response_from_envelope
from c4run.serve import ServeLoop
from c4run.statedir import StateDir
from conftest import spool

SRC = Path(__file__).resolve().parent.parent / "src"
VERB_TIMEOUT_S = 10
EID = "eid-0-0"


def _verb(root: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, "-m", "c4run.cli", "--statedir-root", str(root), *args],
        env=env, capture_output=True, text=True, timeout=VERB_TIMEOUT_S,
    )


@pytest.fixture
def sd(root, sim_bundle) -> StateDir:
    """A created instance; no anchor runs, whatever its record says."""
    runtime.cmd_create(root, "hf", sim_bundle)
    return StateDir(root, "hf")


def _running(sd: StateDir) -> None:
    sd.update_record_rmw(lambda rec: rec.with_state(L.RUNNING))


def _clear(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink(missing_ok=True)


def _fifo(path: Path) -> None:
    _clear(path)
    os.mkfifo(path)


def _directory(path: Path) -> None:
    _clear(path)
    path.mkdir()
    (path / "x").write_text("{}")  # not empty, so rmdir cannot take it


def _write(path: Path, obj) -> None:
    path.write_text(json.dumps(obj))


def _edit(path: Path, **changes) -> None:
    _write(path, {**json.loads(path.read_text()), **changes})


def _event(sd: StateDir, **changes) -> None:
    event = {"src": "R", "code": 0, "reason": "killed", "observed_at": 1.0, "origin": "x", **changes}
    with open(sd.events_path, "a") as f:
        f.write(json.dumps(event) + "\n")


def _meta(sd: StateDir) -> Path:
    sd.enclave_dir(EID).mkdir()
    return sd.meta_path(EID)


def _pending(sd: StateDir) -> None:
    _running(sd)
    spool(sd)


def _exited(sd: StateDir, obj) -> None:
    _running(sd)
    _write(sd.anchor_exit_path, obj)


_EXIT = {"pid": 1, "exit_code": 0, "term_signal": None, "finished_at": 1.0}
_META = {"request_id": "0-0-x", "stage": "hello", "tee_type": "sim", "rc": 0, "evidence_type": "sim",
         "measurement_hash": "", "failure_reason": None, "timings": {"finished_at": 1.0}, "evidence_extra": None}

# (artifact and fault, plant it, read it in-process, the verb that reads it)
CASES = [
    ("state.json-fifo", lambda sd: _fifo(sd.state_path), StateDir.read_record, ["state"]),
    ("state.json-directory", lambda sd: _directory(sd.state_path), StateDir.read_record, ["state"]),
    ("state.json-list", lambda sd: _write(sd.state_path, []), StateDir.read_record, ["state"]),
    ("state.json-stopped-without-exit-code", lambda sd: _edit(sd.state_path, state="stopped", exit_code=None),
     StateDir.read_record, ["state"]),
    ("session.json-fifo", lambda sd: _fifo(sd.session_path), StateDir.load_session_params, ["start"]),
    ("session.json-directory", lambda sd: _directory(sd.session_path), StateDir.load_session_params, ["start"]),
    ("session.json-list", lambda sd: _write(sd.session_path, []), StateDir.load_session_params, ["start"]),
    ("session.json-two-byte-key", lambda sd: _edit(sd.session_path, sk_hex="abcd"),
     StateDir.load_session_params, ["start"]),
    ("meta.json-fifo", lambda sd: _fifo(_meta(sd)), StateDir.stage_records, ["state"]),
    ("meta.json-directory", lambda sd: _directory(_meta(sd)), StateDir.stage_records, ["state"]),
    ("meta.json-list", lambda sd: _write(_meta(sd), []), StateDir.stage_records, ["state"]),
    ("meta.json-untimed", lambda sd: _write(_meta(sd), {**_META, "timings": {}}), StateDir.stage_records, ["state"]),
    ("accepts.log-fifo", lambda sd: (_pending(sd), _fifo(sd.accepts_path)), StateDir.load_session,
     ["serve", "--until-idle"]),
    ("accepts.log-directory", lambda sd: (_pending(sd), _directory(sd.accepts_path)), StateDir.load_session,
     ["serve", "--until-idle"]),
    ("anchor_exit.json-fifo", lambda sd: (_running(sd), _fifo(sd.anchor_exit_path)), StateDir.read_anchor_exit,
     ["wait"]),
    ("anchor_exit.json-directory", lambda sd: (_running(sd), _directory(sd.anchor_exit_path)),
     StateDir.read_anchor_exit, ["wait"]),
    ("anchor_exit.json-list", lambda sd: _exited(sd, []), StateDir.read_anchor_exit, ["wait"]),
    ("anchor_exit.json-negative-exit-code", lambda sd: _exited(sd, {**_EXIT, "exit_code": -1}),
     StateDir.read_anchor_exit, ["wait"]),
    ("anchor_exit.json-infinite-time", lambda sd: _exited(sd, {**_EXIT, "finished_at": float("inf")}),
     StateDir.read_anchor_exit, ["wait"]),
    ("events.json-fifo", lambda sd: _fifo(sd.events_path), StateDir.load_events, ["kill"]),
    ("events.json-directory", lambda sd: _directory(sd.events_path), StateDir.load_events, ["kill"]),
    ("events.json-list-line", lambda sd: sd.events_path.write_text("[]\n"), StateDir.load_events, ["kill"]),
    ("events.json-negative-code", lambda sd: _event(sd, code=-1), StateDir.load_events, ["kill"]),
    ("events.json-infinite-time", lambda sd: _event(sd, observed_at=float("inf")), StateDir.load_events, ["kill"]),
    ("anchor.out-fifo", lambda sd: _fifo(sd.anchor_out_path), lambda sd: fsutil.read_bytes(sd.anchor_out_path),
     ["start"]),
    ("anchor.out-directory", lambda sd: _directory(sd.anchor_out_path),
     lambda sd: fsutil.read_bytes(sd.anchor_out_path), ["start"]),
]


@pytest.mark.parametrize("plant, read, verb", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_a_planted_fault_is_corrupt_state(root, sd, plant, read, verb):
    plant(sd)
    proc = _verb(root, verb[0], sd.cid, *verb[1:])
    assert proc.returncode == EXIT_INTERNAL, proc.stderr
    assert "Traceback" not in proc.stderr and len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith(f"c4run {verb[0]}: ") and proc.stdout == ""
    with pytest.raises(CorruptStateError):
        read(sd)


def _supervisors(root: Path) -> list[int]:
    """Live processes whose argv names root: a supervisor runs start's argv."""
    pids = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                if str(root).encode() in f.read():
                    pids.append(int(entry))
        except (OSError, ValueError):
            pass
    return pids


@pytest.mark.parametrize("plant", [_fifo, _directory], ids=["fifo", "directory"])
def test_start_refuses_an_anchor_out_that_is_not_a_file_and_leaves_no_supervisor(root, sd, plant):
    plant(sd.anchor_out_path)
    proc = _verb(root, "start", sd.cid)
    assert proc.returncode == EXIT_INTERNAL and "not a regular file" in proc.stderr, proc.stderr
    assert sd.read_record().state is L.PREPARED and not sd.anchor_pid_path.exists()
    deadline = time.monotonic() + 5
    while _supervisors(root) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert _supervisors(root) == []


# (artifact and fault, plant it on a running instance)
FORCED_DELETE_CASES = [
    ("anchor_exit.json-fifo", lambda sd: _fifo(sd.anchor_exit_path)),
    ("anchor_exit.json-list", lambda sd: _write(sd.anchor_exit_path, [])),
    ("events.json-fifo", lambda sd: _fifo(sd.events_path)),
    ("events.json-list-line", lambda sd: sd.events_path.write_text("[]\n")),
]


@pytest.mark.parametrize("plant", [case[1] for case in FORCED_DELETE_CASES],
                         ids=[case[0] for case in FORCED_DELETE_CASES])
def test_a_forced_delete_removes_a_corrupt_instance_and_its_anchor(root, running_instance, plant):
    sd = running_instance
    pid = sd.read_anchor_pid()
    plant(sd)
    proc = _verb(root, "delete", sd.cid, "--force")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert not sd.path.exists()
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.02)
    else:
        pytest.fail(f"anchor {pid} outlived its forced delete")


@pytest.mark.parametrize("planted", [{"pid": None}, {"pid": 0}, []], ids=["null", "zero", "list"])
def test_an_unreadable_anchor_pid_reads_as_unknown(root, sd, planted):
    _write(sd.anchor_pid_path, planted)
    proc = _verb(root, "state", sd.cid)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "pid" not in json.loads(proc.stdout)
    assert sd.read_anchor_pid() is None


@pytest.mark.parametrize("plant", [_fifo, _directory], ids=["fifo", "directory"])
def test_serve_answers_a_request_that_is_not_a_file_and_carries_on(root, sd, plant):
    _running(sd)
    planted = "0-0-00000000"  # sorts before the honest request's id
    plant(sd.request_path(planted))
    (honest,) = spool(sd)
    proc = _verb(root, "serve", sd.cid, "--until-idle", "--workers", "1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["rejected"] == 1 and json.loads(proc.stdout)["completed"] == 1
    resp = fsutil.read_json(sd.response_path(planted), "response", response_from_envelope)
    assert (resp.status, resp.reject_reason) == (ResponseStatus.REJECTED, RejectReason.AUTH_MAC_INVALID)
    resp = fsutil.read_json(sd.response_path(honest.request_id), "response", response_from_envelope)
    assert resp.status is ResponseStatus.COMPLETED
    assert os.listdir(sd.claimed_dir) == []


def test_a_socket_where_a_file_should_be_is_corrupt(tmp_path):
    path = tmp_path / "s.json"
    with socket.socket(socket.AF_UNIX) as sock:
        sock.bind(str(path))
        for read in (fsutil.read_json, fsutil.read_bytes, fsutil.read_lines):
            with pytest.raises(CorruptStateError, match="not a regular file"):
                read(path)
        with pytest.raises(CorruptStateError, match="not a regular file"):
            fsutil.append_line(path, b"x")


def test_state_audit_flags_an_event_line_that_breaks_the_events_invariants(root, sd):
    runtime.cmd_kill(root, sd.cid)
    _event(sd, code=-1)
    (violation,) = audit_state_consistency(sd).violations
    assert violation.startswith("events.json unreadable: "), violation


def test_audit_flags_a_meta_json_or_run_log_that_is_a_directory(root, sd):
    _running(sd)
    spool(sd)
    result = ServeLoop(sd, workers=1).process_next()
    assert result.terminal is ResponseStatus.COMPLETED
    _directory(sd.run_log_path(result.eid))
    assert [v for v in audit_artifacts(sd).violations if "run.log unreadable" in v], audit_artifacts(sd).violations
    _directory(sd.meta_path(result.eid))
    assert any(v.startswith(f"{result.eid}: meta.json malformed: ") for v in audit_artifacts(sd).violations)
