import random
import threading
import time
from pathlib import Path

import pytest

from c4run.backends import create_adapter, load_receipts
from c4run.backends.base import CANCELLED_RC, TIMEOUT_RC
from c4run.backends.localexec import LocalExecAdapter
from c4run.backends.sim import (
    DEFAULT_AESGCM_KEY,
    DEFAULT_AESGCM_NONCE,
    FaultPolicy,
    SimulatorAdapter,
)
from c4run.errors import BackendHandleInvalid, PrepareFailed, StageNotFound, UsageError
from c4run.protocol import SessionState, build_request
from oracles import aes128_gcm_encrypt

TABLE = {
    "hello": {"behavior": "hello"},
    "aesgcm": {"behavior": "aesgcm", "size_bytes": 1024, "seed": 7},
    "fail": {"behavior": "fail", "rc": 7},
    "sleep": {"behavior": "sleep", "ms": 60},
    "slow": {"behavior": "sleep", "ms": 5000, "timeout_s": 0.1},
}

# Frozen from the independent AES-GCM oracle over the same derivation
# (seeded pseudorandom 1024-byte input, default key/nonce).
AESGCM_1K_SEED7_TAG_HEX = "b7c3ee4c5f08e27d242ad459c91f105e"


def _req(stage="hello"):
    session = SessionState(cid="c1", epoch=1, sk=bytes(32))
    return build_request(session, stage, b"payload")


@pytest.fixture
def sim():
    return SimulatorAdapter(TABLE)


def test_hello_stage(sim):
    handle = sim.prepare("c1", "eid-0001", "hello")
    outcome = sim.execute(handle, _req())
    assert outcome.rc == 0
    assert outcome.stdout == b"hello from eid-0001\n"
    assert outcome.evidence.tee_type == "sim"
    assert outcome.evidence.evidence_type == "sim-measurement"
    assert outcome.evidence.extra["cid"] == "c1"
    assert outcome.evidence.extra["eid"] == "eid-0001"
    sim.destroy(handle)


def test_aesgcm_stage_matches_independent_aead():
    adapter = SimulatorAdapter(TABLE)
    handle = adapter.prepare("c1", "eid-0001", "aesgcm")
    first = adapter.execute(handle, _req("aesgcm"))
    adapter.destroy(handle)
    handle = adapter.prepare("c1", "eid-0002", "aesgcm")
    second = adapter.execute(handle, _req("aesgcm"))
    adapter.destroy(handle)
    assert first.stdout == second.stdout  # deterministic under fixed config

    plaintext = random.Random(7).randbytes(1024)
    _, tag = aes128_gcm_encrypt(DEFAULT_AESGCM_KEY, DEFAULT_AESGCM_NONCE, plaintext)
    assert first.stdout == tag.hex().encode() + b"\n"
    assert first.stdout == AESGCM_1K_SEED7_TAG_HEX.encode() + b"\n"


def test_fail_stage_propagates_configured_rc(sim):
    handle = sim.prepare("c1", "eid-0001", "fail")
    outcome = sim.execute(handle, _req("fail"))
    assert outcome.rc == 7
    sim.destroy(handle)


def test_sleep_stage_timeout_and_cancel(sim):
    handle = sim.prepare("c1", "eid-0001", "slow")
    outcome = sim.execute(handle, _req("slow"))
    assert outcome.rc == TIMEOUT_RC
    sim.destroy(handle)

    handle = sim.prepare("c1", "eid-0002", "sleep")
    outcome = sim.execute(handle, _req("sleep"), cancel_check=lambda: True)
    assert outcome.rc == CANCELLED_RC
    sim.destroy(handle)


def test_unknown_stage_and_handle_lifecycle(sim):
    with pytest.raises(StageNotFound):
        sim.prepare("c1", "eid-0001", "nope")
    h1 = sim.prepare("c1", "eid-0001", "hello")
    h2 = sim.prepare("c1", "eid-0002", "hello")
    sim.destroy(h1)
    with pytest.raises(BackendHandleInvalid):
        sim.execute(h1, _req())
    assert sim.execute(h2, _req()).rc == 0  # destroying one leaves the other valid
    sim.destroy(h2)
    sim.destroy(h2)  # double destroy is a no-op
    h3 = sim.prepare("c1", "eid-0003", "hello")
    sim.destroy(h3)  # destroy without execute (cancelled stage)


def test_fault_injection_policy():
    adapter = SimulatorAdapter(TABLE)
    adapter.fault_policy = FaultPolicy(fail_prepare_after=1)
    adapter.prepare("c1", "eid-0001", "hello")
    with pytest.raises(PrepareFailed):
        adapter.prepare("c1", "eid-0002", "hello")

    adapter.fault_policy = FaultPolicy(rc_override=42)
    handle = adapter.prepare("c1", "eid-0003", "hello")
    assert adapter.execute(handle, _req()).rc == 42
    adapter.destroy(handle)

    adapter.fault_policy = FaultPolicy(execute_latency=(0.0, 0.0))
    handle = adapter.prepare("c1", "eid-0004", "hello")
    t0 = time.monotonic()
    adapter.execute(handle, _req())
    assert time.monotonic() - t0 < 0.5
    adapter.destroy(handle)


def test_latency_under_concurrency_all_complete():
    adapter = SimulatorAdapter(TABLE)
    adapter.fault_policy = FaultPolicy(execute_latency=(0.01, 0.05))
    results = []
    lock = threading.Lock()

    def work(i):
        handle = adapter.prepare("c1", f"eid-{i:04d}", "hello")
        outcome = adapter.execute(handle, _req())
        adapter.destroy(handle)
        with lock:
            results.append(outcome.rc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [0] * 8


def test_measurement_stability_and_sensitivity():
    adapter = SimulatorAdapter(TABLE)
    hashes = set()
    for i in range(100):
        handle = adapter.prepare("c1", f"eid-{i:04d}", "hello")
        hashes.add(adapter.execute(handle, _req()).evidence.measurement_hash)
        adapter.destroy(handle)
    assert len(hashes) == 1

    changed = SimulatorAdapter({**TABLE, "hello": {"behavior": "hello", "busy_ms": 1}})
    handle = changed.prepare("c1", "eid-0001", "hello")
    assert changed.execute(handle, _req()).evidence.measurement_hash not in hashes
    changed.destroy(handle)


def test_receipts_written_per_execution(tmp_path):
    receipts = tmp_path / "exec.receipts"
    adapter = SimulatorAdapter(TABLE, receipts_path=receipts)
    req = _req()
    handle = adapter.prepare("c1", "eid-0001", "hello")
    adapter.execute(handle, req)
    adapter.destroy(handle)
    entries = load_receipts(receipts)
    assert len(entries) == 1
    assert entries[0]["request_id"] == req.request_id
    assert entries[0]["eid"] == "eid-0001"


# ---------------------------------------------------------------------------
# Local-process executor
# ---------------------------------------------------------------------------


def _localexec(tmp_path: Path, table=None) -> LocalExecAdapter:
    rootfs = tmp_path / "rootfs"
    (rootfs / "bin").mkdir(parents=True, exist_ok=True)
    scripts = {
        "hello.sh": "#!/bin/sh\nread -r p || true\necho \"hello:$p\"\nexit 0\n",
        "fail.sh": "#!/bin/sh\nexit 7\n",
        "hang.sh": "#!/bin/sh\nsleep 30\n",
    }
    for name, text in scripts.items():
        p = rootfs / "bin" / name
        p.write_text(text)
        p.chmod(0o755)
    work = tmp_path / "work"
    work.mkdir(exist_ok=True)
    return LocalExecAdapter(
        table
        or {
            "hello": {"program": "bin/hello.sh"},
            "fail": {"program": "bin/fail.sh"},
            "hang": {"program": "bin/hang.sh", "timeout_s": 0.3},
            "escape": {"program": "../outside.sh"},
            "missing": {"program": "bin/nope.sh"},
        },
        rootfs=rootfs,
        work_root=work,
    )


def test_localexec_runs_program_with_payload(tmp_path):
    adapter = _localexec(tmp_path)
    handle = adapter.prepare("c1", "eid-0001", "hello")
    outcome = adapter.execute(handle, _req())
    assert outcome.rc == 0
    assert outcome.stdout == b"hello:payload\n"
    assert outcome.evidence.evidence_type == "localexec-digest"
    adapter.destroy(handle)


def test_localexec_rc_timeout_and_cancel(tmp_path):
    adapter = _localexec(tmp_path)
    handle = adapter.prepare("c1", "eid-0001", "fail")
    assert adapter.execute(handle, _req("fail")).rc == 7
    adapter.destroy(handle)

    handle = adapter.prepare("c1", "eid-0002", "hang")
    t0 = time.monotonic()
    outcome = adapter.execute(handle, _req("hang"))
    assert outcome.rc == TIMEOUT_RC
    assert time.monotonic() - t0 < 5
    adapter.destroy(handle)

    handle = adapter.prepare("c1", "eid-0003", "hang")
    outcome = adapter.execute(handle, _req("hang"), cancel_check=lambda: True)
    assert outcome.rc == CANCELLED_RC
    adapter.destroy(handle)


def test_localexec_measurement_is_program_digest(tmp_path):
    import hashlib

    adapter = _localexec(tmp_path)
    handle = adapter.prepare("c1", "eid-0001", "hello")
    outcome = adapter.execute(handle, _req())
    expected = hashlib.sha256((adapter.rootfs / "bin" / "hello.sh").read_bytes()).hexdigest()
    assert outcome.evidence.measurement_hash == expected
    adapter.destroy(handle)

    (adapter.rootfs / "bin" / "hello.sh").write_text("#!/bin/sh\necho changed\n")
    handle = adapter.prepare("c1", "eid-0002", "hello")
    assert adapter.execute(handle, _req()).evidence.measurement_hash != expected
    adapter.destroy(handle)


def test_localexec_rejects_escapes_and_missing_programs(tmp_path):
    adapter = _localexec(tmp_path)
    with pytest.raises(PrepareFailed):
        adapter.prepare("c1", "eid-0001", "escape")
    with pytest.raises(PrepareFailed):
        adapter.prepare("c1", "eid-0002", "missing")
    with pytest.raises(StageNotFound):
        adapter.prepare("c1", "eid-0003", "unregistered")


def test_registry_dispatch(tmp_path):
    assert isinstance(create_adapter("sim", TABLE), SimulatorAdapter)
    rootfs = tmp_path / "rootfs"
    rootfs.mkdir()
    adapter = create_adapter("localexec", {}, rootfs=rootfs, work_root=tmp_path)
    assert isinstance(adapter, LocalExecAdapter)
    with pytest.raises(UsageError):
        create_adapter("sgx", TABLE)
    with pytest.raises(UsageError):
        create_adapter("localexec", {})
