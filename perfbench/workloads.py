"""The three workloads, each a closed loop driven from this one process.

- lifecycle: one round at a time of c4run CLI subprocesses
  create -> start -> serve --until-done -> wait -> kill -> delete; the
  bundle's reference anchor emits 4 ``hello`` stages per round.
- rtt-serial: this process acts as the anchor of a running instance (whose
  own anchor only sleeps) and keeps exactly one request outstanding; one
  ``serve --forever`` process with one worker serves it.
- burst: this process spools batches of BATCH requests at once, a seeded
  tenth of them misrouted (built from a twin instance's session), and waits
  for every response before the next batch; BATCHES batches form one epoch
  on a fresh instance, served by two ``serve --forever`` processes with one
  worker each. Epochs repeat until the run's time is used.

Every response is verified, every honest request must leave exactly one
execution receipt and every misrouted one none, every lifecycle round must
end stopped with exit code 0, and every instance is audited before it is
deleted. Each miss is counted in the run's tally; nothing is retried.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from c4run import protocol, runtime
from c4run.backends import load_receipts
from c4run.bench.audit import audit_artifacts, audit_state_consistency
from c4run.bundle import write_test_bundle
from c4run.errors import C4Error
from c4run.fsutil import fsync_dir, read_json
from c4run.protocol import RejectReason, ResponseStatus, response_from_envelope
from c4run.statedir import StateDir

from harness import Cli, Tally, kill_group_and_wait, proc_wchar, tree_bytes

LIFECYCLE_STAGES = 4
LIFECYCLE_WORKERS = 2
BATCH = 1000
BATCHES = 3
MISROUTED_SHARE = 10  # one request in ten
STALL_S = 20.0  # no new response for this long: the program is stuck
# rtt-serial's anchor spends this long between a response and its next
# request, so serve has always gone back to its idle poll when the request
# lands instead of racing the anchor for it.
THINK_S = 0.02
SLEEP_ANCHOR = "#!/bin/sh\nexec sleep 300\n"


class Stalled(Exception):
    """Serve stopped answering; the run cannot go on."""


@dataclass
class Pass:
    """Everything one pass of a workload measured."""

    cli: Cli
    tally: Tally
    setup_s: list[float] = field(default_factory=list)
    bringup_s: list[float] = field(default_factory=list)
    latency_s: list[float] = field(default_factory=list)  # round wall or request round trip
    stages: int = 0  # honest stages completed in the timed sections
    elapsed_s: float = 0.0  # wall time of the timed sections
    requests: int = 0  # requests (honest + misrouted) spooled in the timed sections
    instances: int = 0  # lifecycle rounds or instances brought up, set-ups included
    maxrss_kb: list[int] = field(default_factory=list)
    bytes_per_req: list[float] = field(default_factory=list)
    wchar_per_req: list[float] = field(default_factory=list)
    anchor_spawn_s: list[float] = field(default_factory=list)
    anchor_run_s: list[float] = field(default_factory=list)
    pickup_s: list[float] = field(default_factory=list)
    exec_s: list[float] = field(default_factory=list)
    respond_s: list[float] = field(default_factory=list)
    epoch_rps: list[float] = field(default_factory=list)


def _payload(rng: random.Random) -> bytes:
    return rng.randbytes(12).hex().encode()


def _expected_output(eid: Optional[str]) -> bytes:
    return f"hello from {eid}\n".encode()


def _read_response(sd: StateDir, rid: str):
    try:
        return response_from_envelope(read_json(sd.response_path(rid), "response"))
    except (OSError, ValueError, C4Error):
        return None


def _honest_ok(resp, session, outstanding) -> bool:
    return (
        resp is not None
        and protocol.verify_response(resp, session, outstanding)
        and resp.status is ResponseStatus.COMPLETED
        and resp.rc == 0
        and resp.eid is not None
        and resp.output == _expected_output(resp.eid)
    )


def _misrouted_ok(resp, session, outstanding) -> bool:
    return (
        resp is not None
        and protocol.verify_response(resp, session, outstanding)
        and resp.status is ResponseStatus.REJECTED
        and resp.reject_reason is RejectReason.BIND_CID_MISMATCH
        and resp.eid is None
    )


def _audit(p: Pass, sd: StateDir) -> None:
    for audit in (audit_artifacts, audit_state_consistency):
        result = audit(sd)
        p.tally.check(result.passed, f"{sd.cid}: {audit.__name__}: {result.violations[:3]}")


def _anchor_times(sd: StateDir) -> tuple[Optional[float], Optional[float]]:
    try:
        started = float(read_json(sd.anchor_pid_path, "anchor.pid")["started_at"])
    except (OSError, ValueError, KeyError, C4Error):
        return None, None
    exit_obs = sd.read_anchor_exit()
    finished = float(exit_obs["finished_at"]) if exit_obs else None
    return started, finished


def _bring_up(p: Pass, cid: str, bundle: Path) -> tuple[StateDir, float]:
    """CLI create + start; returns the state dir and the bring-up wall time."""
    cli = p.cli
    created = cli.run("create", cid, "--bundle", str(bundle))
    p.tally.check(created.rc == 0 and (created.json() or {}).get("state") == "prepared",
                  f"{cid}: create rc={created.rc} {created.err[-200:]}")
    invoked = time.time()
    started = cli.run("start", cid)
    p.tally.check(started.rc == 0 and (started.json() or {}).get("state") == "running",
                  f"{cid}: start rc={started.rc} {started.err[-200:]}")
    sd = StateDir(cli.state_root, cid)
    anchor_started, _ = _anchor_times(sd)
    if anchor_started is not None:
        p.anchor_spawn_s.append(anchor_started - invoked)
    return sd, created.wall_s + started.wall_s


def _stop(p: Pass, cid: str) -> None:
    """CLI kill then wait; both must report the same stopped outcome."""
    killed = p.cli.run("kill", cid)
    kill_out = killed.json() or {}
    p.tally.check(killed.rc == 0 and kill_out.get("state") == "stopped",
                  f"{cid}: kill rc={killed.rc} {killed.out[-200:]} {killed.err[-200:]}")
    waited = p.cli.run("wait", cid, "--timeout", "30")
    wait_out = waited.json() or {}
    p.tally.check(waited.rc == 0 and wait_out.get("state") == "stopped"
                  and wait_out.get("exit_code") == kill_out.get("exit_code"),
                  f"{cid}: wait rc={waited.rc} {waited.out[-200:]}")


def _delete(p: Pass, cid: str) -> None:
    deleted = p.cli.run("delete", cid)
    p.tally.check(deleted.rc == 0 and (deleted.json() or {}).get("deleted") is True,
                  f"{cid}: delete rc={deleted.rc} {deleted.err[-200:]}")


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------


def _lifecycle_bundle(p: Pass, tag: str, seed: int, rng: random.Random) -> Path:
    workload = {"stages": ["hello"] * LIFECYCLE_STAGES, "payload": _payload(rng).decode()}
    return write_test_bundle(p.cli.workdir / f"bundle-{tag}", workload=workload, session_seed=f"perfbench-{seed}")


def _lifecycle_round(p: Pass, bundle: Path, cid: str) -> float:
    """One checked CLI round; returns its wall time without the checks."""
    cli, tally = p.cli, p.tally
    t0 = time.perf_counter()
    sd, bringup = _bring_up(p, cid, bundle)
    served = cli.run("serve", cid, "--until-done", "--workers", str(LIFECYCLE_WORKERS))
    summary = served.json() or {}
    tally.check(
        served.rc == 0 and summary.get("completed") == LIFECYCLE_STAGES and summary.get("failed") == 0
        and summary.get("rejected") == 0 and summary.get("stop_reason") == "done",
        f"{cid}: serve rc={served.rc} {summary.get('stop_reason')} {served.err[-200:]}",
    )
    waited = cli.run("wait", cid, "--timeout", "60")
    wait_out = waited.json() or {}
    tally.check(waited.rc == 0 and wait_out.get("state") == "stopped" and wait_out.get("exit_code") == 0,
                f"{cid}: wait rc={waited.rc} {waited.out[-200:]}")
    killed = cli.run("kill", cid)
    tally.check(killed.rc == 0 and (killed.json() or {}).get("state") == "stopped", f"{cid}: kill rc={killed.rc}")

    t_checks = time.perf_counter()
    ok = _lifecycle_requests_ok(p, sd)
    for i in range(LIFECYCLE_STAGES):
        tally.check(i < ok, f"{cid}: only {ok}/{LIFECYCLE_STAGES} stages verified")
    _audit(p, sd)
    p.bytes_per_req.append(tree_bytes(sd.path) / LIFECYCLE_STAGES)
    started, finished = _anchor_times(sd)
    if started is not None and finished is not None:
        p.anchor_run_s.append(finished - started)
    t_resume = time.perf_counter()

    _delete(p, cid)
    p.bringup_s.append(bringup)
    p.maxrss_kb.append(served.maxrss_kb)
    p.stages += ok
    return (time.perf_counter() - t0) - (t_resume - t_checks)


def _lifecycle_requests_ok(p: Pass, sd: StateDir) -> int:
    """Stages that completed with a verified response and exactly one receipt."""
    try:
        session = sd.load_session()
    except C4Error:
        return 0
    rids = {path.stem for path in sd.responses_dir.glob("*.resp")}
    receipts = Counter(r["request_id"] for r in load_receipts(sd.receipts_path))
    ok = 0
    for rid in rids:
        resp = _read_response(sd, rid)
        if _honest_ok(resp, session, rids) and receipts[rid] == 1:
            ok += 1
            meta = read_json(sd.meta_path(resp.eid), "meta.json")["timings"]
            p.exec_s.append(meta["finished_at"] - meta["claimed_at"])
    return ok


def lifecycle(p: Pass, seed: int, seconds: float, setups: int) -> None:
    """Set-up is a bundle build plus one checked warm-up round (it compiles
    and caches what every CLI process loads); its figures are not kept."""
    rng = random.Random(seed)
    for i in range(setups):
        t0 = time.perf_counter()
        bundle = _lifecycle_bundle(p, f"{i}", seed, rng)
        _lifecycle_round(Pass(p.cli, p.tally), bundle, f"lc-warm-{i}")
        p.setup_s.append(time.perf_counter() - t0)
        p.instances += 1
    deadline = time.perf_counter() + seconds
    while True:
        round_s = _lifecycle_round(p, bundle, f"lc-{p.instances}")
        p.instances += 1
        p.latency_s.append(round_s)
        p.elapsed_s += round_s
        if time.perf_counter() >= deadline:
            break


# ---------------------------------------------------------------------------
# rtt-serial and burst: this process is the anchor
# ---------------------------------------------------------------------------


@dataclass
class Target:
    sd: StateDir
    session: protocol.SessionState
    serves: list
    twin: Optional[StateDir] = None
    twin_session: Optional[protocol.SessionState] = None
    wchar0: int = 0  # serve processes' wchar once set-up is done


@dataclass
class Sent:
    misrouted: bool
    spooled: float  # perf_counter
    spooled_wall: float
    read_wall: float = 0.0  # when the verified response was read
    eid: Optional[str] = None


def _spool(sd: StateDir, session, payload: bytes) -> tuple[str, float, float]:
    req = protocol.build_request(session, "hello", payload)
    sd.spool_request(protocol.request_to_envelope(req), req.request_id)
    return req.request_id, time.perf_counter(), time.time()


def _sleep_bundle(p: Pass, tag: str, seed: int) -> Path:
    bundle = write_test_bundle(p.cli.workdir / f"bundle-{tag}", anchor_args=["bin/sleep-anchor.sh"],
                               session_seed=f"perfbench-{seed}")
    script = bundle / "rootfs" / "bin" / "sleep-anchor.sh"
    script.write_text(SLEEP_ANCHOR)
    script.chmod(0o755)
    return bundle


def _bring_up_target(p: Pass, tag: str, seed: int, rng: random.Random, *, serves: int, twin: bool) -> Target:
    """Set-up: bundle, instance (and twin) create + start, serve launch, and
    one checked warm-up round trip that proves serve is ready."""
    t0 = time.perf_counter()
    bundle = _sleep_bundle(p, tag, seed)
    sd, bringup = _bring_up(p, f"t-{tag}", bundle)
    p.bringup_s.append(bringup)
    p.instances += 1
    target = Target(sd=sd, session=sd.load_session(), serves=[])
    if twin:
        target.twin, _ = _bring_up(p, f"twin-{tag}", bundle)
        target.twin_session = target.twin.load_session()
    for _ in range(serves):
        target.serves.append(p.cli.spawn_serve(sd.cid, workers=1))
    rid, _, _ = _spool(sd, target.session, _payload(rng))
    _await_responses(p, target, {rid: Sent(False, 0.0, 0.0)}, record=False)
    target.wchar0 = sum(proc_wchar(s.pid) or 0 for s in target.serves)
    p.setup_s.append(time.perf_counter() - t0)
    return target


def _await_responses(p: Pass, target: Target, sent: dict[str, Sent], *, record: bool) -> None:
    """Read and verify a response for every sent request, lowest seq first.

    Responses are looked for in spool order, stopping a scan after a few
    misses, so each poll costs a handful of stats however many are pending.
    """
    sd, session = target.sd, target.session
    outstanding = set(sent)
    pending = list(sent)
    deadline = time.perf_counter() + STALL_S
    while pending:
        keep, misses = [], 0
        for i, rid in enumerate(pending):
            if misses >= 8:
                keep.extend(pending[i:])
                break
            if not os.path.exists(sd.response_path(rid)):
                misses += 1
                keep.append(rid)
                continue
            resp = _read_response(sd, rid)
            now, now_wall = time.perf_counter(), time.time()
            deadline = now + STALL_S
            info = sent[rid]
            if info.misrouted:
                p.tally.check(_misrouted_ok(resp, session, outstanding), f"{rid}: misrouted response wrong")
            elif p.tally.check(_honest_ok(resp, session, outstanding), f"{rid}: honest response wrong") and record:
                p.latency_s.append(now - info.spooled)
                p.stages += 1
                info.read_wall, info.eid = now_wall, resp.eid
        pending = keep
        if pending:
            if time.perf_counter() > deadline:
                for rid in pending:
                    p.tally.fail(f"{rid}: no response")
                raise Stalled(f"{sd.cid}: no response for {STALL_S:.0f} s, {len(pending)} pending")
            time.sleep(0.0005 if len(pending) == 1 else 0.002)


def _phases(p: Pass, sd: StateDir, sent: dict[str, Sent]) -> None:
    """Split each verified round trip at meta.json's claimed/finished times
    (read after the timed section, so it costs the measurement nothing)."""
    for info in sent.values():
        if info.eid is None:
            continue
        timings = read_json(sd.meta_path(info.eid), "meta.json")["timings"]
        p.pickup_s.append(timings["claimed_at"] - info.spooled_wall)
        p.exec_s.append(timings["finished_at"] - timings["claimed_at"])
        p.respond_s.append(info.read_wall - timings["finished_at"])


def _check_receipts(p: Pass, target: Target, sent: dict[str, Sent]) -> None:
    receipts = Counter(r["request_id"] for r in load_receipts(target.sd.receipts_path))
    for rid, info in sent.items():
        want = 0 if info.misrouted else 1
        p.tally.check(receipts[rid] == want, f"{rid}: {receipts[rid]} receipts, want {want}")


def _tear_down_target(p: Pass, target: Target, requests: int) -> None:
    """Record the end-of-run sizes, then kill, reap serve, wait, audit and
    delete the instance and its twin."""
    cid = target.sd.cid
    written = sum(proc_wchar(s.pid) or 0 for s in target.serves) - target.wchar0
    p.wchar_per_req.append(written / max(1, requests))
    p.bytes_per_req.append(tree_bytes(target.sd.path) / max(1, len(target.sd.load_session().seen_request_ids)))
    _stop(p, cid)
    for proc in target.serves:
        rc, maxrss = p.cli.reap_serve(proc)
        p.tally.check(rc == 0, f"{cid}: serve exited {rc}")
        p.maxrss_kb.append(maxrss)
    _audit(p, target.sd)
    if target.twin is not None:
        _stop(p, target.twin.cid)
        _audit(p, target.twin)
        _delete(p, target.twin.cid)
    _delete(p, cid)


def _set_up(p: Pass, tag: str, seed: int, rng: random.Random, setups: int, **kw) -> Target:
    """Set up `setups` times (for a median set-up time) and keep the last;
    the spares are torn down and checked, but their sizes are not recorded."""
    targets = [_bring_up_target(p, f"{tag}{i}", seed, rng, **kw) for i in range(setups)]
    for spare in targets[:-1]:
        _tear_down_target(Pass(p.cli, p.tally), spare, 0)
    return targets[-1]


def rtt_serial(p: Pass, seed: int, seconds: float, setups: int) -> None:
    rng = random.Random(seed)
    target = _set_up(p, "rs", seed, rng, setups, serves=1, twin=False)
    sent: dict[str, Sent] = {}
    t0 = time.perf_counter()
    deadline = t0 + seconds
    while time.perf_counter() < deadline:
        rid, spooled, spooled_wall = _spool(target.sd, target.session, _payload(rng))
        sent[rid] = Sent(False, spooled, spooled_wall)
        _await_responses(p, target, {rid: sent[rid]}, record=True)
        time.sleep(THINK_S)
    p.elapsed_s += time.perf_counter() - t0
    p.requests += len(sent)
    _phases(p, target.sd, sent)
    _check_receipts(p, target, sent)
    _tear_down_target(p, target, len(sent))


def _burst_epoch(p: Pass, target: Target, rng: random.Random) -> None:
    """BATCHES batches of BATCH requests in the instance's first epoch.

    Each batch is written with spool_request into a staging directory on
    the same file system and then renamed into the spool in one sweep, so
    the whole batch is queued at once and a drain is timed from its release,
    not from how fast this process can write and fsync 1000 files.
    """
    staging = StateDir(p.cli.workdir / "staging", target.sd.cid)
    staging.requests_dir.mkdir(parents=True, exist_ok=True)
    all_sent: dict[str, Sent] = {}
    seq = target.session.next_seq
    elapsed = 0.0
    for _ in range(BATCHES):
        misrouted = set(rng.sample(range(BATCH), BATCH // MISROUTED_SHARE))
        staged = []
        for i in range(BATCH):
            # A misrouted request is an honest request of the twin instance,
            # spooled here; both sessions share one sequence so it sits at
            # its seeded position in the spool order.
            session = target.twin_session if i in misrouted else target.session
            session.next_seq = seq
            seq += 1
            rid, _, _ = _spool(staging, session, _payload(rng))
            staged.append((rid, i in misrouted))
        t0 = time.perf_counter()
        batch: dict[str, Sent] = {}
        for rid, is_misrouted in staged:
            os.rename(staging.request_path(rid), target.sd.request_path(rid))
            batch[rid] = Sent(is_misrouted, time.perf_counter(), time.time())
        fsync_dir(target.sd.requests_dir)
        _await_responses(p, target, batch, record=True)
        elapsed += time.perf_counter() - t0
        all_sent.update(batch)
    p.elapsed_s += elapsed
    p.epoch_rps.append(sum(1 for s in all_sent.values() if s.eid) / elapsed)
    p.requests += len(all_sent)
    _phases(p, target.sd, all_sent)
    _check_receipts(p, target, all_sent)
    _tear_down_target(p, target, len(all_sent))


def burst(p: Pass, seed: int, seconds: float, setups: int) -> None:
    rng = random.Random(seed)
    target = _set_up(p, "b", seed, rng, setups, serves=2, twin=True)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        _burst_epoch(p, target, rng)
        # Another epoch (with its set-up) only if it should end in time.
        now = time.perf_counter()
        if now + (now - t0) > start + seconds:
            break
        target = _bring_up_target(p, f"b{p.instances}", seed, rng, serves=2, twin=True)


WORKLOADS = {"lifecycle": lifecycle, "rtt-serial": rtt_serial, "burst": burst}


def force_cleanup(cli: Cli) -> None:
    """Last-resort hygiene after a failed run: kill (anchors included) and
    delete every instance under the run's state root. Cli.close() then
    stops the serve processes and any other stray."""
    for path in sorted(cli.state_root.iterdir()) if cli.state_root.is_dir() else []:
        sd = StateDir(cli.state_root, path.name)
        pid = sd.read_anchor_pid()
        try:
            runtime.cmd_kill(cli.state_root, path.name, grace_s=2)
        except (C4Error, OSError):
            pass
        kill_group_and_wait(pid)
        try:
            runtime.cmd_delete(cli.state_root, path.name, force=True)
        except (C4Error, OSError):
            shutil.rmtree(path, ignore_errors=True)
