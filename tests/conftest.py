from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from c4run import runtime
from c4run.bundle import write_sleep_anchor_bundle, write_test_bundle
from c4run.protocol import StageRequest, build_request, request_to_envelope
from c4run.statedir import StateDir


def spool(sd: StateDir, stage: str = "hello", payload: bytes = b"p", n: int = 1) -> list[StageRequest]:
    """Build and spool n requests the way the anchor would."""
    session = sd.load_session()
    reqs = []
    for _ in range(n):
        req = build_request(session, stage, payload)
        sd.spool_request(request_to_envelope(req), req.request_id)
        reqs.append(req)
    return reqs


@pytest.fixture
def root(tmp_path: Path) -> Path:
    r = tmp_path / "state"
    r.mkdir()
    return r


@pytest.fixture
def sim_bundle(tmp_path: Path) -> Path:
    return write_test_bundle(tmp_path / "bundle", workload={"stages": ["hello"] * 4})


@pytest.fixture
def sleep_anchor_bundle(tmp_path: Path) -> Path:
    return write_sleep_anchor_bundle(tmp_path / "bundle-sleep")


@pytest.fixture
def running_instance(root: Path, sleep_anchor_bundle: Path):
    """A created-and-started instance with an idle anchor; cleaned up after."""
    cid = "t-run"
    runtime.cmd_create(root, cid, sleep_anchor_bundle)
    runtime.cmd_start(root, cid)
    sd = StateDir(root, cid)
    yield sd
    try:
        runtime.cmd_kill(root, cid, grace_s=3)
        runtime.cmd_delete(root, cid)
    except Exception:
        shutil.rmtree(sd.path, ignore_errors=True)
