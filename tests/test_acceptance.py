"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here: the correctness and exactly-once criteria
admit zero violations; the concurrency criterion asserts success rate and
the throughput arithmetic identity, while absolute elapsed/throughput
values are reported only (they measure this host). Run with `pytest
tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

from __future__ import annotations

import itertools
import random
import time

from c4run import runtime
from c4run.bench.campaigns import (
    run_adversary_campaign,
    run_concurrency_campaign,
    run_crash_campaign,
    run_lifecycle_campaign,
)
from c4run.bundle import write_sleep_anchor_bundle
from c4run.errors import C4Error
from c4run.lifecycle import (
    CompositeStateRecord,
    EventSource,
    LifecycleState as L,
    OciStatus,
    TerminationEvent,
    TerminationReason,
    TrustFlag,
    evaluate_readiness,
    project_oci,
    reduce_termination,
)
from c4run.protocol import SessionState, build_request, validate_request
from c4run.statedir import StateDir
from oracles import LEGAL_CLASSES, EntrypointModel, oracle_reduce


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. Functional-correctness reproduction: 100 full rounds, zero tolerance
# ---------------------------------------------------------------------------


def test_criterion_1_lifecycle_correctness(tmp_path):
    t0 = time.monotonic()
    report = run_lifecycle_campaign(
        tmp_path, rounds=100, stages_per_round=4, stage="hello", serve_instances=1
    )
    elapsed = time.monotonic() - t0
    ok = (
        report["wcr"] == 1.0
        and report["csr"] == 1.0
        and report["scr"] == 1.0
        and report["ipr"] == 1.0
        and elapsed < 120.0
    )
    _report(
        1,
        ok,
        "100 rounds x 4 stages: WCR=%.0f%% CSR=%.0f%% SCR=%.0f%% IPR=%.0f%% in %.1fs"
        % (report["wcr"] * 100, report["csr"] * 100, report["scr"] * 100, report["ipr"] * 100, elapsed),
    )


# ---------------------------------------------------------------------------
# 2. Exactly-once under concurrent serve instances, zero tolerance
# ---------------------------------------------------------------------------


def _assert_concurrent_serve_campaign(tmp_path, backend_id: str) -> dict:
    report = run_lifecycle_campaign(
        tmp_path,
        rounds=100,
        stages_per_round=4,
        stage="hello",
        backend_id=backend_id,
        serve_instances=4,
        workers=2,
    )
    # The per-round artifact audit enforces executions == 1 per accepted
    # request, exactly one response per request id, and summary consistency.
    return report


def test_criterion_2_exactly_once_concurrent_serve(tmp_path):
    report = _assert_concurrent_serve_campaign(tmp_path, "sim")
    ok = report["wcr"] == 1.0 and report["ipr"] == 1.0 and report["scr"] == 1.0 and report["csr"] == 1.0
    _report(
        2,
        ok,
        "100 rounds x 4 concurrent serve instances: WCR=%.0f%% IPR=%.0f%% (execution counter = 1 per accepted request)"
        % (report["wcr"] * 100, report["ipr"] * 100),
    )


# ---------------------------------------------------------------------------
# 3. Concurrency success rate and throughput identity
# ---------------------------------------------------------------------------


def test_criterion_3_concurrency_success(tmp_path):
    report = run_concurrency_campaign(
        tmp_path, k_values=(2, 5, 8, 16, 32), rounds_per_k=5, stage_latency_ms=30
    )
    identity_ok = True
    success_ok = True
    lines = []
    for row in report["rows"]:
        success_ok &= row["success_rate"] == 1.0
        for r in row["per_round"]:
            identity_ok &= r["throughput"] == r["k"] / r["elapsed_s"]
        lines.append(
            "k=%-3d success=%.0f%% elapsed_med=%.3fs throughput_med=%.2f st/s (reported, not asserted)"
            % (row["k"], row["success_rate"] * 100, row["elapsed"]["median"], row["throughput"]["median"])
        )
    for line in lines:
        print("   ", line)
    _report(3, success_ok and identity_ok, "k in {2,5,8,16,32} x5 rounds: 100%% success, throughput column = k/elapsed_s exactly")


# ---------------------------------------------------------------------------
# 4. Entrypoint idempotence and multi-call conformance vs reference model
# ---------------------------------------------------------------------------

_OPS = ["create", "start", "state", "wait0", "kill", "delete", "delete_force"]
_WEIGHTS = [20, 12, 18, 15, 15, 15, 5]


def _run_entrypoint(root, bundle, op: str, cid: str) -> int:
    try:
        if op == "create":
            runtime.cmd_create(root, cid, bundle)
        elif op == "start":
            runtime.cmd_start(root, cid)
        elif op == "state":
            runtime.cmd_state(root, cid)
        elif op == "wait0":
            runtime.cmd_wait(root, cid, timeout=0)
        elif op == "kill":
            runtime.cmd_kill(root, cid, grace_s=3)
        elif op == "delete":
            runtime.cmd_delete(root, cid)
        elif op == "delete_force":
            runtime.cmd_delete(root, cid, force=True)
        return 0
    except C4Error as exc:
        return exc.exit_code


def test_criterion_4_multicall_conformance(tmp_path):
    root = tmp_path / "state"
    root.mkdir()
    bundle = write_sleep_anchor_bundle(tmp_path / "bundle")
    rng = random.Random(20260810)
    sequences, ops_per_sequence = 400, 25
    total = 0
    divergences = []

    for s in range(sequences):
        cid = f"m{s:04d}"
        model = EntrypointModel()
        prev_ver = 0
        existed = False
        for i in range(ops_per_sequence):
            op = rng.choices(_OPS, weights=_WEIGHTS)[0]
            rc = _run_entrypoint(root, bundle, op, cid)
            expected_rc = model.apply(op)
            rec = StateDir(root, cid).read_record()
            actual_state = "init" if rec is None else rec.state.value
            if rc != expected_rc or actual_state != model.state:
                divergences.append((s, i, op, rc, expected_rc, actual_state, model.state))
            if rec is not None:
                if existed and rec.ver < prev_ver:
                    divergences.append((s, i, op, "ver-regressed", prev_ver, rec.ver))
                if existed and actual_state != "init" and rec.ver == prev_ver:
                    pass  # unchanged record is fine for idempotent no-ops
                prev_ver, existed = rec.ver, True
            else:
                prev_ver, existed = 0, False
            total += 1
        _run_entrypoint(root, bundle, "delete_force", cid)

    ok = total == 10_000 and not divergences
    _report(
        4,
        ok,
        f"{total} randomized entrypoint invocations vs reference model: {len(divergences)} divergences"
        + (f" (first: {divergences[0]})" if divergences else ""),
    )


# ---------------------------------------------------------------------------
# 5. Termination reduction equals brute-force oracle, exhaustively
# ---------------------------------------------------------------------------


def test_criterion_5_termination_oracle_equivalence():
    classes = [(EventSource(src), TerminationReason(reason)) for src, reason in LEGAL_CLASSES]
    cases = 0
    mismatches = 0
    for size in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(classes, size):
            for times in ([float(i) for i in range(size)], [0.0] * size):
                events = [
                    TerminationEvent(src=src, code=11, reason=reason, observed_at=t)
                    for (src, reason), t in zip(combo, times)
                ]
                tuples = [(e.src.value, e.code, e.reason.value, e.observed_at) for e in events]
                expected = oracle_reduce(tuples)
                for perm in itertools.permutations(events):
                    got_code, got = reduce_termination(list(perm))
                    cases += 1
                    if (got_code, (got.src.value, got.code, got.reason.value, got.observed_at)) != expected:
                        mismatches += 1
    _report(5, mismatches == 0, f"{cases} reductions over all legal class multisets (size <= 3): {mismatches} mismatches")


# ---------------------------------------------------------------------------
# 6. Binding-invariant fuzz: zero acceptances, zero false rejections
# ---------------------------------------------------------------------------


def test_criterion_6_binding_fuzz(tmp_path):
    report = run_adversary_campaign(
        tmp_path, cases=10_000, honest_cases=1_000, seed=20260810, e2e_cases=60
    )
    # Deterministic per-field corruption sweep on top of the random volume.
    field_rejects = 0
    field_cases = 0
    rng = random.Random(7)
    fields = ("stage", "cid", "epoch", "seq", "request_id", "nonce", "response_path", "payload", "mac")
    session = SessionState(cid="sweep", epoch=1, sk=bytes(range(32)))
    for fieldname in fields:
        for _ in range(50):
            req = build_request(session, "hello", b"sweep-payload")
            value = getattr(req, fieldname)
            if isinstance(value, int):
                mutated = req._replace(**{fieldname: value ^ (1 << rng.randrange(20))})
            elif isinstance(value, bytes):
                raw = bytearray(value or b"\x00")
                raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
                mutated = req._replace(**{fieldname: bytes(raw)})
            else:
                raw = bytearray(value.encode())
                raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(7)
                new = bytes(raw).decode("utf-8", "replace")
                mutated = req._replace(**{fieldname: new if new != value else value + "x"})
            field_cases += 1
            if validate_request(mutated, session, "sweep") is not None:
                field_rejects += 1

    e2e = report["e2e"]
    ok = (
        report["accepted_transformed"] == 0
        and report["honest_rejects"] == 0
        and field_rejects == field_cases
        and e2e["honest_executed_once"]
        and e2e["misrouted_executions"] == 0
        and e2e["misrouted_rejected"]
    )
    _report(
        6,
        ok,
        f"{report['cases']} transformed: {report['accepted_transformed']} accepted; "
        f"{report['honest_cases']} honest in-order: {report['honest_rejects']} rejected; "
        f"{field_cases} per-field corruptions: {field_cases - field_rejects} accepted; "
        f"e2e misrouted executions: {e2e['misrouted_executions']}",
    )


# ---------------------------------------------------------------------------
# 7. Crash safety at every enumerated point, zero tolerance
# ---------------------------------------------------------------------------


def test_criterion_7_crash_safety(tmp_path):
    report = run_crash_campaign(tmp_path)
    failing = [r["point"] for r in report["results"] if not r["ok"]]
    _report(
        7,
        report["all_ok"],
        f"{report['points']} crash points across create/delete/claim/accept/update/execute/finalize/response: "
        + ("all recovered with audits green" if report["all_ok"] else f"failures at {failing}"),
    )


# ---------------------------------------------------------------------------
# 8. Projection table and readiness implication, zero counterexamples
# ---------------------------------------------------------------------------


def test_criterion_8_projection_and_readiness():
    table = {
        L.INIT: OciStatus.CREATED,
        L.PREPARED: OciStatus.CREATED,
        L.RUNNING: OciStatus.RUNNING,
        L.STOPPED: OciStatus.STOPPED,
        L.FAILED: OciStatus.STOPPED,
    }
    projection_ok = all(project_oci(s) is table[s] for s in L) and len(list(L)) == 5

    rng = random.Random(8)
    counterexamples = 0
    trials = 10_000
    states = [L.PREPARED, L.RUNNING, L.STOPPED, L.FAILED]
    for _ in range(trials):
        state = states[rng.randrange(4)]
        rec = CompositeStateRecord(
            cid="r",
            state=state,
            ver=rng.randrange(1, 100),
            exit_code=rng.randrange(256) if state in (L.STOPPED, L.FAILED) else None,
        )
        trust = list(TrustFlag)[rng.randrange(3)]
        ready = evaluate_readiness(
            rec,
            prepared_r=bool(rng.getrandbits(1)),
            prepared_t=bool(rng.getrandbits(1)),
            require_conf=bool(rng.getrandbits(1)),
            trust=trust,
        )
        if ready and state is not L.RUNNING:
            counterexamples += 1
    _report(
        8,
        projection_ok and counterexamples == 0,
        f"projection table exhaustive over 5 states; Ready=>Running over {trials} randomized records: "
        f"{counterexamples} counterexamples",
    )


# ---------------------------------------------------------------------------
# 9. Adapter interchangeability: criteria 1-2 under the local executor
# ---------------------------------------------------------------------------


def test_criterion_9_adapter_interchangeability(tmp_path):
    t0 = time.monotonic()
    single = run_lifecycle_campaign(
        tmp_path / "single", rounds=100, stages_per_round=4, stage="hello",
        backend_id="localexec", serve_instances=1,
    )
    concurrent = _assert_concurrent_serve_campaign(tmp_path / "concurrent", "localexec")
    elapsed = time.monotonic() - t0
    ok = all(
        rep[m] == 1.0
        for rep in (single, concurrent)
        for m in ("wcr", "csr", "scr", "ipr")
    )
    _report(
        9,
        ok,
        "criteria 1-2 rerun on the local-process executor: "
        "single WCR=%.0f%% IPR=%.0f%%, concurrent WCR=%.0f%% IPR=%.0f%% (%.0fs, timing excluded)"
        % (single["wcr"] * 100, single["ipr"] * 100, concurrent["wcr"] * 100, concurrent["ipr"] * 100, elapsed),
    )
