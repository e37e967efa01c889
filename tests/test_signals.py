"""Process-level signal behavior: serve loops and anchors under real kills."""

import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter

from c4run import runtime
from c4run.backends import load_receipts
from c4run.bundle import write_sleep_anchor_bundle
from c4run.serve import ServeLoop
from c4run.statedir import StateDir
from conftest import spool


def _spares(sd):
    return os.listdir(sd.spare_dir) if sd.spare_dir.exists() else []


def _serve_proc(root, cid, *extra):
    return subprocess.Popen(
        [sys.executable, "-m", "c4run.cli", "--statedir-root", str(root), "serve", cid, *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )


def test_forever_serve_exits_cleanly_on_sigterm(root, tmp_path):
    bundle = write_sleep_anchor_bundle(tmp_path / "b")
    cid = "sig1"
    runtime.cmd_create(root, cid, bundle)
    runtime.cmd_start(root, cid)
    sd = StateDir(root, cid)

    proc = _serve_proc(root, cid, "--forever", "--workers", "2")
    spool(sd, "hello", n=3)
    deadline = time.monotonic() + 15
    while time.monotonic() < deadline and len(list(sd.responses_dir.glob("*.resp"))) < 3:
        time.sleep(0.05)
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=15)
    assert proc.returncode == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["stop_reason"] == "signal"
    assert summary["completed"] == 3
    # nothing claimed is left unaccounted: recover finds a clean state
    assert ServeLoop(sd).recover() == []
    runtime.cmd_kill(root, cid, grace_s=3)
    runtime.cmd_delete(root, cid)


def test_sigkilled_serve_mid_stage_recovers_exactly_once(root, tmp_path):
    bundle = write_sleep_anchor_bundle(tmp_path / "b")
    cid = "sig2"
    runtime.cmd_create(root, cid, bundle)
    runtime.cmd_start(root, cid)
    sd = StateDir(root, cid)
    # lengthen the sleep stage on disk so the kill lands mid-execution
    cfg = json.loads(sd.bundle_config_path.read_text())
    cfg["c4"]["stage_table"]["sleep"]["ms"] = 5000
    sd.bundle_config_path.write_text(json.dumps(cfg))

    proc = _serve_proc(root, cid, "--forever", "--workers", "1")
    # Idle, the one loop stocks a request's worth: a directory and three files.
    deadline = time.monotonic() + 15
    while time.monotonic() < deadline and len(_spares(sd)) < 4:
        time.sleep(0.02)
    assert len(_spares(sd)) == 4
    (req,) = spool(sd, "sleep")
    while time.monotonic() < deadline and sd.in_flight_count() == 0:
        time.sleep(0.02)
    assert sd.in_flight_count() == 1
    proc.kill()  # SIGKILL: no cleanup, locks drop with the process
    proc.wait(timeout=10)
    assert len(_spares(sd)) == 3  # run.log's, meta.json's and the response's

    actions = ServeLoop(sd, fail_fast=False).recover()
    assert actions == [{"request_id": req.request_id, "action": "failed_ambiguous"}]
    assert _spares(sd) == []
    counts = Counter(r["request_id"] for r in load_receipts(sd.receipts_path))
    assert counts.get(req.request_id, 0) <= 1  # never a second execution
    assert sd.has_response(req.request_id)
    runtime.cmd_kill(root, cid, grace_s=3)
    runtime.cmd_delete(root, cid)


def test_kill_escalates_past_term_ignoring_anchor(root, tmp_path):
    bundle = write_sleep_anchor_bundle(tmp_path / "b")
    stubborn = bundle / "rootfs" / "bin" / "sleep-anchor.sh"
    stubborn.write_text("#!/bin/sh\ntrap '' TERM\nwhile :; do sleep 0.2; done\n")
    stubborn.chmod(0o755)
    cid = "sig3"
    runtime.cmd_create(root, cid, bundle)
    started = runtime.cmd_start(root, cid)
    t0 = time.monotonic()
    killed = runtime.cmd_kill(root, cid, grace_s=0.5)
    assert killed["state"] == "stopped" and killed["exit_code"] == 0
    assert time.monotonic() - t0 < 10
    # anchor process group is really gone
    time.sleep(0.1)
    try:
        os.kill(started["pid"], 0)
        alive = True
    except ProcessLookupError:
        alive = False
    assert not alive
    runtime.cmd_delete(root, cid)
