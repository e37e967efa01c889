import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from c4run.backends import create_adapter
from c4run.backends.base import StageEvidence
from c4run.backends.localexec import LocalExecAdapter
from c4run.backends.sim import (
    DEFAULT_AESGCM_KEY,
    DEFAULT_AESGCM_NONCE,
    SimulatorAdapter,
)
from c4run.errors import (
    CANCELLED_RC, TIMEOUT_RC, BackendHandleInvalid, CorruptStateError, PrepareFailed, StageNotFound, UsageError,
)
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


def _ignore(*receipt) -> None:
    pass


def _sim(tmp_path: Path, table=TABLE, started=_ignore) -> SimulatorAdapter:
    return SimulatorAdapter(table, started=started)


@pytest.fixture
def sim(tmp_path):
    return _sim(tmp_path)


def test_hello_stage(sim):
    handle = sim.prepare("c1", "eid-0001", "hello")
    outcome = sim.execute(handle, _req())
    assert outcome.rc == 0
    assert outcome.stdout == b"hello from eid-0001\n"
    assert outcome.evidence.tee_type == "sim"
    assert outcome.evidence.evidence_type == "sim-measurement"
    assert outcome.evidence.extra == {"behavior": "hello"}  # the record's path names cid and eid
    sim.destroy(handle)


def test_aesgcm_stage_matches_independent_aead(tmp_path):
    adapter = _sim(tmp_path)
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


def test_sim_loads_the_cipher_only_when_an_aesgcm_stage_runs(tmp_path):
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "from c4run.backends.sim import SimulatorAdapter\n"
        "from c4run.protocol import SessionState, build_request\n"
        f"adapter = SimulatorAdapter({TABLE!r}, started=lambda *receipt: None)\n"
        "req = build_request(SessionState(cid='c1', epoch=1, sk=bytes(32)), 'x', b'')\n"
        "for eid, stage in (('eid-1', 'hello'), ('eid-2', 'aesgcm')):\n"
        "    handle = adapter.prepare('c1', eid, stage)\n"
        "    tag = adapter.execute(handle, req).stdout.decode().strip()\n"
        "    print(stage, 'cryptography' in sys.modules, tag)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == [
        "hello False hello from eid-1",
        f"aesgcm True {AESGCM_1K_SEED7_TAG_HEX}",
    ]


def test_stage_evidence_never_shares_its_extra_dict(sim):
    assert "extra" not in StageEvidence._field_defaults  # a default would be one dict for all
    extras = []
    for eid in ("eid-0001", "eid-0002"):
        handle = sim.prepare("c1", eid, "hello")
        extras.append(sim.execute(handle, _req()).evidence.extra)
        sim.destroy(handle)
    assert extras[0] is not extras[1]
    assert extras[0] == extras[1] == {"behavior": "hello"}


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


def test_latency_under_concurrency_all_complete(tmp_path):
    adapter = _sim(tmp_path)
    results = []
    lock = threading.Lock()

    def work(i):
        handle = adapter.prepare("c1", f"eid-{i:04d}", "sleep")
        outcome = adapter.execute(handle, _req("sleep"))
        adapter.destroy(handle)
        with lock:
            results.append(outcome.rc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [0] * 8


def test_measurement_stability_and_sensitivity(tmp_path):
    adapter = _sim(tmp_path)
    hashes = set()
    for i in range(100):
        handle = adapter.prepare("c1", f"eid-{i:04d}", "hello")
        hashes.add(adapter.execute(handle, _req()).evidence.measurement_hash)
        adapter.destroy(handle)
    assert len(hashes) == 1

    changed = _sim(tmp_path, {**TABLE, "hello": {"behavior": "hello", "busy_ms": 1}})
    handle = changed.prepare("c1", "eid-0001", "hello")
    assert changed.execute(handle, _req()).evidence.measurement_hash not in hashes
    changed.destroy(handle)


def test_receipts_written_per_execution(tmp_path):
    # Each execute calls started once with the receipt's fields, before any
    # work: a started that raises leaves no outcome.
    receipts = []
    adapter = _sim(tmp_path, started=lambda *receipt: receipts.append(receipt))
    req = _req()
    handle = adapter.prepare("c1", "eid-0001", "hello")
    adapter.execute(handle, req)
    adapter.destroy(handle)
    assert receipts == [(req.request_id, "eid-0001", "hello", "sim")]

    def refuse(*receipt):
        raise CorruptStateError("exec.receipts is missing")

    adapter.started = refuse
    handle = adapter.prepare("c1", "eid-0002", "hello")
    with pytest.raises(CorruptStateError):
        adapter.execute(handle, req)
    adapter.destroy(handle)


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
        started=_ignore,
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
    rootfs = tmp_path / "rootfs"
    rootfs.mkdir()
    paths = {"rootfs": rootfs, "work_root": tmp_path, "started": _ignore}
    assert isinstance(create_adapter("sim", TABLE, **paths), SimulatorAdapter)
    assert isinstance(create_adapter("localexec", {}, **paths), LocalExecAdapter)
    with pytest.raises(UsageError):
        create_adapter("sgx", TABLE, **paths)
