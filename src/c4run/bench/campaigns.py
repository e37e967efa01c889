"""Correctness, concurrency, adversary, and crash campaigns.

The campaigns reproduce the functional-correctness methodology at desk
scale: full lifecycle rounds scored as workflow-completion and
command-success rates, artifact and state audits per round, concurrency
rounds reporting elapsed time and effective stage throughput (k divided by
elapsed seconds), an adversarial transformation sweep that must produce
zero acceptances, and systematic crash-point injection followed by
recovery. Failures are data: campaigns always return a report; the caller
decides whether assertion-class checks gate the exit code.

Absolute latency distributions are reported for information only — they
measure this host, not any reference platform; the only timing-shaped
assertion is the arithmetic identity of the throughput column.
"""

from __future__ import annotations

import math
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from .. import runtime
from ..bundle import SIM_STAGE_TABLE, write_sleep_anchor_bundle, write_test_bundle
from ..backends import load_receipts
from ..crashpoints import CRASH_POINTS, InjectedCrash, armed
from ..errors import C4Error
from ..fsutil import read_json
from ..protocol import (
    RejectReason,
    SessionState,
    StageRequest,
    build_request,
    commit_acceptance,
    request_mac,
    request_to_envelope,
    response_from_envelope,
    response_relpath,
    validate_request,
)
from ..serve import ServeLoop
from ..statedir import StateDir
from .audit import audit_artifacts, audit_state_consistency

def _invoke(fn: Callable, *args, **kwargs) -> tuple[int, object]:
    try:
        return 0, fn(*args, **kwargs)
    except C4Error as exc:
        return exc.exit_code, str(exc)


def _stats(values: list[float]) -> dict:
    if not values:
        return {"median": None, "p95": None, "mean": None}
    ordered = sorted(values)
    rank = max(1, math.ceil(0.95 * len(ordered)))
    return {
        "median": statistics.median(ordered),
        "p95": ordered[rank - 1],
        "mean": statistics.fmean(ordered),
    }


# ---------------------------------------------------------------------------
# Lifecycle correctness campaign
# ---------------------------------------------------------------------------


@dataclass
class RoundReport:
    index: int
    cid: str
    commands: dict = field(default_factory=dict)
    ipr: Optional[dict] = None
    scr: Optional[dict] = None
    timings: dict = field(default_factory=dict)
    k: int = 0
    elapsed_s: float = 0.0
    throughput: float = 0.0
    exit_code: Optional[int] = None
    completed_stages: int = 0
    workflow_ok: bool = False
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "cid": self.cid,
            "commands": self.commands,
            "ipr": self.ipr,
            "scr": self.scr,
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
            "k": self.k,
            "elapsed_s": round(self.elapsed_s, 6),
            "throughput": self.throughput,
            "exit_code": self.exit_code,
            "completed_stages": self.completed_stages,
            "workflow_ok": self.workflow_ok,
            "notes": self.notes,
        }


def _serve_subprocess(root: Path, cid: str, *, instances: int, workers: int) -> list[int]:
    procs = [
        subprocess.Popen(
            [
                sys.executable,
                "-m",
                "c4run.cli",
                "--statedir-root",
                str(root),
                "serve",
                cid,
                "--until-done",
                "--workers",
                str(workers),
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for _ in range(instances)
    ]
    return [p.wait(timeout=120) for p in procs]


def run_lifecycle_round(
    root: Path,
    bundle_path: Path,
    cid: str,
    index: int,
    *,
    stages: list[str],
    serve_instances: int = 1,
    workers: int = 4,
    expected_exit: int = 0,
    keep: bool = False,
) -> RoundReport:
    """One full create -> start -> serve -> wait -> kill -> delete round."""
    report = RoundReport(index=index, cid=cid, k=len(stages))
    sd = StateDir(root, cid)
    t_round = time.monotonic()

    t0 = time.monotonic()
    code, _ = _invoke(runtime.cmd_create, root, cid, bundle_path)
    report.commands["create"] = code
    report.timings["create"] = time.monotonic() - t0

    t0 = time.monotonic()
    code, _ = _invoke(runtime.cmd_start, root, cid)
    report.commands["start"] = code
    report.timings["start"] = time.monotonic() - t0
    report.timings["bringup"] = report.timings["create"] + report.timings["start"]

    if serve_instances <= 1:
        code, _ = _invoke(lambda: ServeLoop(sd, workers=workers).run(mode="until-done"))
        report.commands["serve"] = code
    else:
        try:
            codes = _serve_subprocess(root, cid, instances=serve_instances, workers=workers)
            report.commands["serve"] = max(codes)
        except subprocess.TimeoutExpired:
            report.commands["serve"] = 5
            report.notes.append("serve instances timed out")

    code, payload = _invoke(runtime.cmd_wait, root, cid, timeout=60)
    report.commands["wait"] = code
    if code == 0:
        report.exit_code = payload["exit_code"]
    report.timings["end_to_end"] = time.monotonic() - t_round
    report.elapsed_s = report.timings["end_to_end"]
    report.throughput = report.k / report.elapsed_s if report.elapsed_s else 0.0

    code, _ = _invoke(runtime.cmd_kill, root, cid)
    report.commands["kill"] = code

    ipr = audit_artifacts(sd)
    scr = audit_state_consistency(sd)
    report.ipr = ipr.to_json()
    report.scr = scr.to_json()
    report.completed_stages = sum(1 for r in sd.stage_records() if r.status == "completed")

    report.workflow_ok = (
        all(rc == 0 for rc in report.commands.values())
        and ipr.passed
        and scr.passed
        and report.exit_code == expected_exit
    )
    if not report.workflow_ok:
        report.notes.extend(_collect_round_evidence(sd))

    if not keep:
        code, _ = _invoke(runtime.cmd_delete, root, cid)
        report.commands["delete"] = code
        report.workflow_ok = report.workflow_ok and code == 0
    return report


def _collect_round_evidence(sd: StateDir) -> list[str]:
    """Preserve enough context from a failing round to diagnose it later."""
    notes = []
    try:
        tail = sd.anchor_out_path.read_bytes()[-2000:]
        if tail:
            notes.append("anchor.out: " + tail.decode("utf-8", "replace"))
    except OSError:
        pass
    try:
        for resp_path in sorted(sd.responses_dir.glob("*.resp")):
            resp = read_json(resp_path, "response", response_from_envelope)
            notes.append(
                f"response {resp.request_id}: {resp.status.value} rc={resp.rc}"
                + (f" reject={resp.reject_reason.value}" if resp.reject_reason else "")
            )
        for rec in sd.stage_records():
            notes.append(
                f"record {rec.request_id}: eid={rec.eid} rc={rec.rc} status={rec.status}"
                + (f" reason={rec.failure_reason}" if rec.failure_reason else "")
            )
        notes.append("events: " + repr([(e.src.value, e.code, e.reason.value) for e in sd.load_events()]))
    except Exception as exc:  # evidence gathering must never mask the failure
        notes.append(f"evidence collection failed: {exc}")
    return notes


def run_lifecycle_campaign(
    workdir: Path,
    *,
    rounds: int = 100,
    stages_per_round: int = 4,
    stage: str = "hello",
    backend_id: str = "sim",
    serve_instances: int = 1,
    workers: int = 4,
    expected_exit: int = 0,
    stages: Optional[list[str]] = None,
) -> dict:
    """WCR/CSR over full lifecycle rounds, with per-round IPR/SCR audits."""
    workdir = Path(workdir)
    root = workdir / "state"
    root.mkdir(parents=True, exist_ok=True)
    stage_list = stages if stages is not None else [stage] * stages_per_round
    bundle = write_test_bundle(
        workdir / "bundle",
        backend_id=backend_id,
        workload={"stages": stage_list, "concurrency": max(len(stage_list), 1)},
    )

    reports = []
    for i in range(rounds):
        reports.append(
            run_lifecycle_round(
                root,
                bundle,
                f"c4r-{i:04d}",
                i,
                stages=stage_list,
                serve_instances=serve_instances,
                workers=workers,
                expected_exit=expected_exit,
            )
        )

    total_commands = sum(len(r.commands) for r in reports)
    ok_commands = sum(1 for r in reports for rc in r.commands.values() if rc == 0)
    report = {
        "rounds": rounds,
        "stages_per_round": len(stage_list),
        "backend_id": backend_id,
        "serve_instances": serve_instances,
        "wcr": sum(1 for r in reports if r.workflow_ok) / rounds if rounds else 1.0,
        "csr": ok_commands / total_commands if total_commands else 1.0,
        "ipr": sum(1 for r in reports if r.ipr["passed"]) / rounds if rounds else 1.0,
        "scr": sum(1 for r in reports if r.scr["passed"]) / rounds if rounds else 1.0,
        "timings": {
            name: _stats([r.timings[name] for r in reports if name in r.timings])
            for name in ("create", "start", "bringup", "end_to_end")
        },
        "round_reports": [r.to_json() for r in reports],
    }
    return report


# ---------------------------------------------------------------------------
# Concurrency campaign
# ---------------------------------------------------------------------------


def run_concurrency_campaign(
    workdir: Path,
    *,
    k_values: tuple[int, ...] = (2, 5, 8, 16, 32),
    rounds_per_k: int = 5,
    stage_latency_ms: float = 30.0,
) -> dict:
    """k concurrent sim sleep stages per round; reports elapsed and k/elapsed_s."""
    workdir = Path(workdir)
    root = workdir / "state"
    root.mkdir(parents=True, exist_ok=True)

    table = dict(SIM_STAGE_TABLE)
    table["sleep"] = {"behavior": "sleep", "ms": stage_latency_ms}

    rows = []
    for k in k_values:
        bundle = write_test_bundle(
            workdir / f"bundle-k{k}",
            stage_table=table,
            workload={"stages": ["sleep"] * k, "concurrency": k, "response_timeout_s": 120},
        )
        elapsed_values, throughput_values = [], []
        successes = 0
        per_round = []
        for i in range(rounds_per_k):
            cid = f"c4k{k}-{i:03d}"
            sd = StateDir(root, cid)
            runtime.cmd_create(root, cid, bundle)
            t0 = time.monotonic()
            runtime.cmd_start(root, cid)
            loop = ServeLoop(sd, workers=min(k, 32))
            summary = loop.run(mode="until-done")
            result = runtime.cmd_wait(root, cid, timeout=120)
            elapsed = time.monotonic() - t0
            receipts = load_receipts(sd.receipts_path)
            counts = Counter(r["request_id"] for r in receipts)
            exactly_once = all(n == 1 for n in counts.values()) and len(counts) == k
            success = (
                summary.completed == k
                and result["exit_code"] == 0
                and result["state"] == "stopped"
                and exactly_once
            )
            successes += success
            throughput = k / elapsed
            elapsed_values.append(elapsed)
            throughput_values.append(throughput)
            per_round.append(
                {
                    "k": k,
                    "round": i,
                    "elapsed_s": elapsed,
                    "throughput": throughput,
                    "completed": summary.completed,
                    "success": success,
                }
            )
            runtime.cmd_kill(root, cid)
            runtime.cmd_delete(root, cid)
        rows.append(
            {
                "k": k,
                "rounds": rounds_per_k,
                "success_rate": successes / rounds_per_k,
                "elapsed": _stats(elapsed_values),
                "throughput": _stats(throughput_values),
                "per_round": per_round,
            }
        )
    return {"k_values": list(k_values), "rows": rows}


# ---------------------------------------------------------------------------
# Adversary campaign
# ---------------------------------------------------------------------------

TRANSFORM_KINDS = (
    "replay",
    "misroute",
    "epoch_rollback",
    "seq_rollback",
    "nonce_replay",
    "bitflip",
    "path_escape",
)

_FLIP_FIELDS = ("stage", "cid", "epoch", "seq", "request_id", "nonce", "response_path", "payload", "mac")


def _flip_bit_in_field(req: StageRequest, fieldname: str, rng: random.Random) -> StageRequest:
    def flip_bytes(b: bytes) -> bytes:
        if not b:
            return b"\x01"
        i = rng.randrange(len(b))
        bit = 1 << rng.randrange(8)
        return b[:i] + bytes([b[i] ^ bit]) + b[i + 1 :]

    def flip_str(s: str) -> str:
        raw = bytearray(s.encode())
        if not raw:
            return "x"
        i = rng.randrange(len(raw))
        raw[i] ^= 1 << rng.randrange(7)  # stay in ASCII range
        out = bytes(raw).decode("utf-8", "replace")
        return out if out != s else s + "x"

    if fieldname in ("epoch", "seq"):
        value = getattr(req, fieldname) ^ (1 << rng.randrange(16))
        return req._replace(**{fieldname: value})
    value = getattr(req, fieldname)
    if isinstance(value, bytes):
        return req._replace(**{fieldname: flip_bytes(value)})
    return req._replace(**{fieldname: flip_str(value)})


def run_adversary_campaign(
    workdir: Path,
    *,
    cases: int = 10_000,
    honest_cases: int = 1_000,
    seed: int = 0,
    e2e_cases: int = 60,
) -> dict:
    """Transformed requests must never be accepted; honest ones never rejected.

    The bulk sweep exercises the Accept predicate directly; a smaller
    end-to-end slice drives transformed requests through live serve loops
    and checks the execution receipts.
    """
    workdir = Path(workdir)
    root = workdir / "state"
    root.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)

    bundle = write_test_bundle(workdir / "bundle", workload={"stages": []})
    runtime.cmd_create(root, "adv-a", bundle)
    runtime.cmd_create(root, "adv-b", bundle)
    sd_a = StateDir(root, "adv-a")
    sess_a = sd_a.load_session()
    sess_b = StateDir(root, "adv-b").load_session()

    transformed = 0
    accepted_transformed = 0
    reject_reasons: dict[str, int] = {}
    per_kind: dict[str, int] = {k: 0 for k in TRANSFORM_KINDS}

    def _count(reason: Optional[RejectReason]) -> None:
        nonlocal accepted_transformed
        if reason is None:
            accepted_transformed += 1
        else:
            reject_reasons[reason.value] = reject_reasons.get(reason.value, 0) + 1

    for _ in range(cases):
        kind = TRANSFORM_KINDS[rng.randrange(len(TRANSFORM_KINDS))]
        per_kind[kind] += 1
        transformed += 1
        if kind == "replay":
            req = build_request(sess_a, "hello", b"p")
            assert validate_request(req, sess_a, "adv-a") is None
            commit_acceptance(sess_a, req)
            _count(validate_request(req, sess_a, "adv-a"))
        elif kind == "misroute":
            req = build_request(sess_b, "hello", b"p")
            _count(validate_request(req, sess_a, "adv-a"))
        elif kind == "epoch_rollback":
            stale = SessionState(cid=sess_a.cid, epoch=sess_a.epoch, sk=sess_a.sk, next_seq=sess_a.next_seq)
            stale.epoch = max(sess_a.epoch - 1, 0) if sess_a.epoch else sess_a.epoch + 1
            req = build_request(stale, "hello", b"p")
            _count(validate_request(req, sess_a, "adv-a"))
        elif kind == "seq_rollback":
            early = build_request(sess_a, "hello", b"p")
            late = build_request(sess_a, "hello", b"p")
            assert validate_request(late, sess_a, "adv-a") is None
            commit_acceptance(sess_a, late)
            _count(validate_request(early, sess_a, "adv-a"))
        elif kind == "nonce_replay":
            req = build_request(sess_a, "hello", b"p")
            assert validate_request(req, sess_a, "adv-a") is None
            commit_acceptance(sess_a, req)
            forged = build_request(sess_a, "hello", b"p")._replace(nonce=req.nonce, mac=b"")
            forged = forged._replace(mac=request_mac(sess_a.sk, forged))
            _count(validate_request(forged, sess_a, "adv-a"))
        elif kind == "bitflip":
            # The id's random tail comes from rng, not os.urandom, so which
            # check a flipped bit trips is a function of the seed.
            req = build_request(sess_a, "hello", b"p")
            request_id = f"{req.epoch}-{req.seq}-{rng.randbytes(4).hex()}"
            req = req._replace(request_id=request_id, response_path=response_relpath(request_id), mac=b"")
            req = req._replace(mac=request_mac(sess_a.sk, req))
            fieldname = _FLIP_FIELDS[rng.randrange(len(_FLIP_FIELDS))]
            _count(validate_request(_flip_bit_in_field(req, fieldname, rng), sess_a, "adv-a"))
        elif kind == "path_escape":
            req = build_request(sess_a, "hello", b"p")._replace(response_path="../../etc/x")
            _count(validate_request(req, sess_a, "adv-a"))

    honest_rejects = 0
    honest_session = SessionState(cid="adv-h", epoch=1, sk=bytes(32))
    for _ in range(honest_cases):
        req = build_request(honest_session, "hello", b"p")
        reason = validate_request(req, honest_session, "adv-h")
        if reason is None:
            commit_acceptance(honest_session, req)
        else:
            honest_rejects += 1

    e2e = _adversary_e2e(workdir, root, rng, e2e_cases) if e2e_cases else None

    return {
        "cases": transformed,
        "per_kind": per_kind,
        "accepted_transformed": accepted_transformed,
        "reject_reasons": reject_reasons,
        "honest_cases": honest_cases,
        "honest_rejects": honest_rejects,
        "e2e": e2e,
    }


def _adversary_e2e(workdir: Path, root: Path, rng: random.Random, n: int) -> dict:
    """Spool transformed requests at live instances; count executions."""
    bundle = write_sleep_anchor_bundle(workdir / "bundle-e2e")
    for cid in ("e2e-a", "e2e-b"):
        runtime.cmd_create(root, cid, bundle)
        runtime.cmd_start(root, cid)
    sd_a, sd_b = StateDir(root, "e2e-a"), StateDir(root, "e2e-b")

    honest_ids = []
    envelopes = {}
    sess = sd_a.load_session()
    for _ in range(n):
        req = build_request(sess, "hello", b"p")
        envelope = request_to_envelope(req)
        envelopes[req.request_id] = envelope
        sd_a.spool_request(envelope, req.request_id)
        honest_ids.append(req.request_id)
    ServeLoop(sd_a, workers=4).run(mode="until-idle")

    # Phase 2: byte-identical replays of completed requests, plus misroutes
    # built against the twin instance's session.
    replayed = honest_ids[: n // 2]
    for rid in replayed:
        sd_a.spool_request(envelopes[rid], rid)
    sess_b = sd_b.load_session()
    misrouted = []
    for _ in range(n // 2):
        req = build_request(sess_b, "hello", b"p")
        sd_a.spool_request(request_to_envelope(req), req.request_id)
        misrouted.append(req.request_id)
    ServeLoop(sd_a, workers=4).run(mode="until-idle")

    counts = Counter(r["request_id"] for r in load_receipts(sd_a.receipts_path))
    executed_misrouted = sum(counts.get(rid, 0) for rid in misrouted)
    honest_executed = all(counts.get(rid, 0) == 1 for rid in honest_ids)
    rejected_ok = all(
        sd_a.has_response(rid)
        and read_json(sd_a.response_path(rid), "response", response_from_envelope).status.value == "rejected"
        for rid in misrouted
    )
    for cid in ("e2e-a", "e2e-b"):
        runtime.cmd_kill(root, cid)
        runtime.cmd_delete(root, cid)
    return {
        "honest": len(honest_ids),
        "honest_executed_once": honest_executed,
        "misrouted": len(misrouted),
        "misrouted_executions": executed_misrouted,
        "misrouted_rejected": rejected_ok,
    }


# ---------------------------------------------------------------------------
# Crash campaign
# ---------------------------------------------------------------------------

def _crashes(point: str, fn: Callable, *args) -> bool:
    try:
        with armed(point):
            fn(*args)
    except InjectedCrash:
        return True
    return False


def _crash_create(root: Path, cid: str, bundle: Path, point: str, expected: str) -> dict:
    sd = StateDir(root, cid)
    crashed = _crashes(point, runtime.cmd_create, root, cid, bundle)
    absent_after = sd.read_record() is None
    runtime.cmd_create(root, cid, bundle)
    rebuilt = sd.read_record() is not None and sd.is_created()
    runtime.cmd_kill(root, cid)
    runtime.cmd_delete(root, cid)
    return {"phase": "create", "ok": crashed and absent_after and rebuilt}


def _crash_delete(root: Path, cid: str, bundle: Path, point: str, expected: str) -> dict:
    sd = StateDir(root, cid)
    runtime.cmd_create(root, cid, bundle)
    runtime.cmd_kill(root, cid)
    crashed = _crashes(point, runtime.cmd_delete, root, cid)
    absent_after = sd.read_record() is None
    code, _ = _invoke(runtime.cmd_delete, root, cid)
    return {"phase": "delete", "ok": crashed and absent_after and code == 0 and not sd.path.exists()}


def _crash_update(root: Path, cid: str, bundle: Path, point: str, expected: str) -> dict:
    sd = StateDir(root, cid)
    runtime.cmd_create(root, cid, bundle)
    before = sd.read_record()
    crashed = _crashes(point, runtime.cmd_kill, root, cid)
    unchanged = sd.read_record() == before
    # start finishes the interrupted kill and refuses; a repeated kill is a no-op.
    start_code, _ = _invoke(runtime.cmd_start, root, cid)
    after_start = sd.read_record()
    refused = start_code == 3 and (after_start.state.value, after_start.exit_code) == ("stopped", 0)
    code, _ = _invoke(runtime.cmd_kill, root, cid)
    after = sd.read_record()
    settled = code == 0 and (after.state.value, after.exit_code) == ("stopped", 0)
    runtime.cmd_delete(root, cid, force=True)
    return {"phase": "update", "ok": crashed and unchanged and refused and settled}


def _crash_pipeline(root: Path, cid: str, bundle: Path, point: str, expected: str) -> dict:
    sd = StateDir(root, cid)
    runtime.cmd_create(root, cid, bundle)
    runtime.cmd_start(root, cid)
    req = build_request(sd.load_session(), "hello", b"p")
    sd.spool_request(request_to_envelope(req), req.request_id)

    crashed = _crashes(point, ServeLoop(sd, workers=1).process_next)
    actions = ServeLoop(sd, workers=1).recover()
    # A requeued request still needs processing; drain it.
    drain = ServeLoop(sd, workers=1)
    while drain.process_next() is not None:
        pass

    counts = Counter(r["request_id"] for r in load_receipts(sd.receipts_path))
    execs = counts.get(req.request_id, 0)
    resp = (
        read_json(sd.response_path(req.request_id), "response", response_from_envelope)
        if sd.has_response(req.request_id)
        else None
    )
    if expected == "completed":
        outcome_ok = resp is not None and resp.status.value == "completed" and execs == 1
    else:
        outcome_ok = (
            resp is not None
            and resp.status.value == "failed"
            and execs <= 1
            and {"request_id": req.request_id, "action": expected} in actions
        )
    ipr = audit_artifacts(sd)
    # An ambiguous failure legitimately fails the instance under
    # fail-fast; state audit must still be internally consistent.
    scr = audit_state_consistency(sd)
    runtime.cmd_kill(root, cid)
    runtime.cmd_delete(root, cid)
    return {
        "phase": "pipeline",
        "ok": crashed and outcome_ok and ipr.passed and scr.passed,
        "executions": execs,
        "recover_actions": actions,
        "ipr_violations": ipr.violations,
        "scr_violations": scr.violations,
    }


_CRASH_SCENARIOS = {"absent": _crash_create, "deleted": _crash_delete, "unchanged": _crash_update}


def run_crash_campaign(workdir: Path) -> dict:
    """Inject a crash at every registered point, recover, audit."""
    workdir = Path(workdir)
    root = workdir / "state"
    root.mkdir(parents=True, exist_ok=True)
    bundle = write_sleep_anchor_bundle(workdir / "bundle")
    results = []
    for point, expected in CRASH_POINTS.items():
        scenario = _CRASH_SCENARIOS.get(expected, _crash_pipeline)
        cid = f"crash-{point.replace(':', '-')}"
        results.append({"point": point, "expected": expected, **scenario(root, cid, bundle, point, expected)})
    return {
        "points": len(results),
        "all_ok": all(r["ok"] for r in results),
        "results": results,
    }
