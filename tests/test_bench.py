import importlib.util
import json
from pathlib import Path

from c4run import runtime
from c4run.bench import audit_artifacts, audit_state_consistency
from c4run.bench.campaigns import (
    run_adversary_campaign,
    run_concurrency_campaign,
    run_lifecycle_campaign,
    run_lifecycle_round,
)
from c4run.bundle import write_test_bundle
from c4run.lifecycle import EventSource, TerminationEvent, TerminationReason
from c4run.serve import ServeLoop
from c4run.statedir import Acceptance, StateDir


def _healthy_round(root, bundle, cid):
    """One round of the 4-stage sim bundle that must really do its work: a
    round with no requests would audit clean and prove nothing."""
    runtime.cmd_create(root, cid, bundle)
    runtime.cmd_start(root, cid)
    sd = StateDir(root, cid)
    summary = ServeLoop(sd, workers=4).run(mode="until-done")
    waited = runtime.cmd_wait(root, cid, timeout=30)
    runtime.cmd_kill(root, cid)
    assert (summary.completed, waited["exit_code"]) == (4, 0), sd.anchor_out_path.read_text(errors="replace")
    return sd


def test_audits_pass_on_healthy_round(root, sim_bundle):
    sd = _healthy_round(root, sim_bundle, "a1")
    assert audit_artifacts(sd).passed
    assert audit_state_consistency(sd).passed
    runtime.cmd_delete(root, "a1")


def test_audit_flags_corrupted_meta_only(root, sim_bundle):
    sd = _healthy_round(root, sim_bundle, "a2")
    sd.meta_path(sd.list_eids()[0]).write_bytes(b"not json")
    result = audit_artifacts(sd)
    assert not result.passed
    assert any("meta.json malformed" in v for v in result.violations)
    runtime.cmd_delete(root, "a2")


def test_audit_flags_deleted_response(root, sim_bundle):
    sd = _healthy_round(root, sim_bundle, "a3")
    victim = next(iter(sorted(sd.load_session().seen_request_ids)))
    sd.response_path(victim).unlink()
    result = audit_artifacts(sd)
    assert not result.passed
    assert f"{victim}: no response" in result.violations
    runtime.cmd_delete(root, "a3")


def test_audit_flags_record_whose_seq_does_not_name_it(root, sim_bundle):
    sd = _healthy_round(root, sim_bundle, "a6")
    eid = sd.list_eids()[0]
    raw = json.loads(sd.meta_path(eid).read_text())
    raw["session_seq"] += 1
    sd.meta_path(eid).write_text(json.dumps(raw))
    result = audit_artifacts(sd)
    assert not result.passed
    assert any(v.startswith(f"{eid}: recorded (epoch, seq)") for v in result.violations), result.violations
    runtime.cmd_delete(root, "a6")


def test_audit_flags_a_journal_line_written_twice(root, sim_bundle):
    # The seen sets cannot hold a duplicate; the journal can.
    sd = _healthy_round(root, sim_bundle, "a7")
    lines = sd.accepts_path.read_bytes().splitlines(keepends=True)
    assert len(lines) == 4 and audit_artifacts(sd).passed
    sd.accepts_path.write_bytes(b"".join(lines + lines[1:2]))
    dup = Acceptance.parse(lines[1].rstrip(b"\n"))
    result = audit_artifacts(sd)
    assert result.violations == [
        f"accepts.log line 5: {what} {key} journalled twice in epoch {dup.epoch}"
        for what, key in (("request id", dup.request_id), ("nonce", dup.nonce.hex()), ("seq", dup.seq))
    ]
    runtime.cmd_delete(root, "a7")


def test_audit_flags_a_journal_line_that_does_not_parse(root, sim_bundle):
    sd = _healthy_round(root, sim_bundle, "a8")
    lines = sd.accepts_path.read_bytes().splitlines(keepends=True)
    lines[1] = b"1-x-0 zz\n"
    sd.accepts_path.write_bytes(b"".join(lines))
    result = audit_artifacts(sd)
    assert "accepts.log line 2 does not parse: b'1-x-0 zz'" in result.violations, result.violations
    runtime.cmd_delete(root, "a8")


def test_audit_flags_tampered_exit_code(root, sim_bundle):
    sd = _healthy_round(root, sim_bundle, "a4")
    raw = json.loads(sd.state_path.read_text())
    assert (raw["state"], raw["exit_code"]) == ("stopped", 0)
    raw["exit_code"] = 9
    sd.state_path.write_text(json.dumps(raw))
    result = audit_state_consistency(sd)
    assert not result.passed
    assert any("matches no replayed prefix" in v for v in result.violations), result.violations
    runtime.cmd_delete(root, "a4")


def test_state_audit_replays_under_the_bundles_untrusted_code(root, tmp_path):
    bundle = write_test_bundle(tmp_path / "bundle-200", c_untrusted=200)
    runtime.cmd_create(root, "a5", bundle)
    sd = StateDir(root, "a5")
    sd.append_event(
        TerminationEvent(src=EventSource.POLICY, code=0, reason=TerminationReason.UNTRUSTED, origin="policy")
    )
    assert runtime.cmd_kill(root, "a5")["exit_code"] == 200
    result = audit_state_consistency(sd)
    assert result.passed, result.violations
    runtime.cmd_delete(root, "a5")


def test_benchmark_tracer_targets_resolve():
    """Every name the benchmark's tracer patches exists, so a rename cannot
    silently break a traced run."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.PROGRAM_TARGETS + tracer.LOCK_TARGETS + tracer.GENERATOR_TARGETS
    assert targets
    for module, attr_path, _name in targets:
        owner = importlib.import_module(module)
        for part in attr_path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr_path)


def test_lifecycle_campaign_small_all_green(tmp_path):
    report = run_lifecycle_campaign(tmp_path, rounds=3, stages_per_round=2)
    assert report["wcr"] == report["csr"] == report["ipr"] == report["scr"] == 1.0
    assert report["timings"]["create"]["median"] is not None


def test_lifecycle_round_zero_stages_trivially_complete(tmp_path):
    root = tmp_path / "state"
    root.mkdir()
    bundle = write_test_bundle(tmp_path / "bundle", workload={"stages": []})
    report = run_lifecycle_round(root, bundle, "z1", 0, stages=[])
    assert report.workflow_ok, report.to_json()
    assert report.exit_code == 0


def test_fail_stage_rounds_follow_intended_failure_path(tmp_path):
    report = run_lifecycle_campaign(
        tmp_path,
        rounds=10,
        stages=["hello", "fail"],
        expected_exit=7,
    )
    assert report["wcr"] == 1.0  # the intended failure path counts as complete
    assert report["csr"] == 1.0  # kill/delete and friends still succeed
    for rr in report["round_reports"]:
        assert rr["exit_code"] == 7


def test_concurrency_campaign_reports_identity(tmp_path):
    report = run_concurrency_campaign(
        tmp_path, k_values=(2, 4), rounds_per_k=2, stage_latency_ms=20
    )
    for row in report["rows"]:
        assert row["success_rate"] == 1.0
        for r in row["per_round"]:
            assert r["throughput"] == r["k"] / r["elapsed_s"]
            assert r["elapsed_s"] >= 0.02  # at least one stage latency


def test_adversary_campaign_small(tmp_path):
    report = run_adversary_campaign(tmp_path, cases=300, honest_cases=100, e2e_cases=10)
    assert report["accepted_transformed"] == 0
    assert report["honest_rejects"] == 0
    assert set(report["per_kind"]) == {
        "replay", "misroute", "epoch_rollback", "seq_rollback", "nonce_replay", "bitflip", "path_escape",
    }
    e2e = report["e2e"]
    assert e2e["honest_executed_once"] and e2e["misrouted_executions"] == 0 and e2e["misrouted_rejected"]


def test_adversary_report_deterministic_under_fixed_seed(tmp_path):
    a = run_adversary_campaign(tmp_path / "a", cases=200, honest_cases=50, seed=5, e2e_cases=0)
    b = run_adversary_campaign(tmp_path / "b", cases=200, honest_cases=50, seed=5, e2e_cases=0)
    assert a["per_kind"] == b["per_kind"]
    assert a["reject_reasons"] == b["reject_reasons"]
    assert a["accepted_transformed"] == b["accepted_transformed"] == 0


def test_bench_cli_correctness(tmp_path, capsys):
    from c4run.bench.cli import main

    out = tmp_path / "report.json"
    rc = main(["--workdir", str(tmp_path / "w"), "--out", str(out), "correctness", "--rounds", "2"])
    assert rc == 0
    assert "WCR" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["rounds"] == 2 and report["wcr"] == 1.0
