"""c4run benchmark: one command, three workloads, checked outputs.

Usage (from any directory):

    python3 perfbench/run.py --workload {lifecycle,rtt-serial,burst} \\
        --seed N --seconds S --trace {0,1}

--trace 0 measures the end-to-end metrics for S seconds. --trace 1 runs an
untraced pass and then a traced pass (S/2 seconds each) and reports the
per-layer metrics from the traced pass, plus the tracing overhead. Before
the result it prints one "report" line with the run's metadata, sample
counts, tails and the failure ratio; the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

It exits non-zero, printing no result, when the c4run sources are missing.
See NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from harness import SRC, WORK_ROOT, Cli, Tally, p50, percentile, program_present, run_metadata, tail

MB = 1024.0  # ru_maxrss is in KiB


def _pass(workloads, name: str, seed: int, seconds: float, setups: int, workdir: Path, traced: bool, tally: Tally):
    cli = Cli(workdir, traced=traced)
    p = workloads.Pass(cli, tally)
    try:
        workloads.WORKLOADS[name](p, seed, seconds, setups)
    except BaseException:  # also SystemExit from SIGTERM: clean up, then re-raise
        workloads.force_cleanup(cli)
        raise
    finally:
        cli.close()
    return p


def _rps(p) -> float:
    return p.stages / p.elapsed_s if p.elapsed_s else 0.0


def end_to_end(p) -> dict:
    return {
        "setup_s": (p50(p.setup_s), "s"),
        "latency_p50_ms": (1000.0 * p50(p.latency_s), "ms"),
        "stage_rps": (_rps(p), "1/s"),
        "serve_maxrss_mb": (p50(p.maxrss_kb) / MB, "MB"),
        "statedir_bytes_per_req": (p50(p.bytes_per_req), "B"),
    }


def named_figures(workload: str, p, tally: Tally) -> dict:
    """The end-to-end figures under their per-workload names (round_p50_s,
    rtt_p99_ms, ...), each with its sample count and the samples beyond it."""
    def pct(values, q, unit, scale):
        n = len(values)
        return {"value": scale * percentile(values, q) if values else None, "unit": unit, "n": n,
                "beyond": n - math.ceil(q / 100.0 * n)}

    if workload == "lifecycle":
        named = {"round_p50_s": pct(p.latency_s, 50, "s", 1.0), "round_p95_s": pct(p.latency_s, 95, "s", 1.0)}
    else:
        named = {"rtt_p50_ms": pct(p.latency_s, 50, "ms", 1000.0), "rtt_p99_ms": pct(p.latency_s, 99, "ms", 1000.0)}
    named["bringup_p50_s"] = pct(p.bringup_s, 50, "s", 1.0)
    named["ops_failed_ratio"] = {"value": tally.failed / max(1, tally.attempted), "unit": "ratio"}
    return named


def import_cost(env: dict, pairs: int = 5) -> float:
    """Median of (`import c4run.cli`) minus median of a bare interpreter."""
    times = {"pass": [], "import c4run.cli": []}
    for _ in range(pairs):
        for code in times:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            times[code].append(time.perf_counter() - t0)
    return p50(times["import c4run.cli"]) - p50(times["pass"])


def per_layer(traced, base, gen_table) -> dict:
    from tracer import load_traces

    serve = load_traces(traced.cli.trace_dir, serve=True)
    other = load_traces(traced.cli.trace_dir, serve=False)
    reqs = max(1, serve.counts["claim_won"])
    claims = serve.counts["claim_won"] + serve.counts["claim_lost"]
    walls = traced.cli.walls
    m = {f"runtime.{verb}_s": (p50(walls.get(verb, [])), "s")
         for verb in ("create", "start", "serve", "wait", "kill", "delete")}
    m["cli.import_s"] = (import_cost(traced.cli.env), "s")
    m["supervise.anchor_spawn_s"] = (p50(traced.anchor_spawn_s), "s")
    m["anchor.run_s"] = (p50(traced.anchor_run_s), "s")
    m["serve.pickup_ms"] = (1000.0 * p50(traced.pickup_s), "ms")
    m["serve.exec_ms"] = (1000.0 * p50(traced.exec_s), "ms")
    m["serve.respond_ms"] = (1000.0 * p50(traced.respond_s), "ms")
    m["serve.claim_lost_ratio"] = (serve.counts["claim_lost"] / claims if claims else 0.0, "ratio")
    m["statedir.pending_requests_ms"] = (serve.mean_ms("statedir.pending_requests"), "ms")
    for fn in ("load_session", "save_session", "update_record_rmw", "allocate_eid", "write_started_marker",
               "write_stage_record", "spool_response", "in_flight_count"):
        m[f"statedir.{fn}_ms"] = (serve.mean_ms(f"statedir.{fn}"), "ms")
        m[f"statedir.{fn}_calls_per_req"] = (serve.calls(f"statedir.{fn}") / reqs, "count")
    for lock in ("session", "state"):
        m[f"statedir.{lock}_lock_wait_ms"] = (serve.mean_ms(f"statedir.{lock}_lock_wait"), "ms")
    file_fs, dir_fs = "fsutil.fsync_file_call", "fsutil.fsync_dir_call"
    m["fsutil.fsyncs_per_req"] = ((serve.calls(file_fs) + serve.calls(dir_fs)) / reqs, "count")
    m["fsutil.dir_fsyncs_per_req"] = (serve.calls(dir_fs) / reqs, "count")
    m["fsutil.fsync_ms_per_req"] = (1000.0 * (serve.total_s(file_fs) + serve.total_s(dir_fs)) / reqs, "ms")
    m["fsutil.write_bytes_per_req"] = (p50(traced.wchar_per_req), "B")
    m["protocol.validate_request_ms"] = (serve.mean_ms("protocol.validate_request"), "ms")
    m["protocol.build_response_ms"] = (serve.mean_ms("protocol.build_response"), "ms")
    m["protocol.build_request_ms"] = (gen_table.mean_ms("protocol.build_request"), "ms")
    m["protocol.verify_response_ms"] = (gen_table.mean_ms("protocol.verify_response"), "ms")
    m["backends.prepare_ms"] = (serve.mean_ms("backends.prepare"), "ms")
    m["backends.execute_ms"] = (serve.mean_ms("backends.execute"), "ms")
    loads = serve.calls("bundle.load_bundle") + other.calls("bundle.load_bundle")
    load_s = serve.total_s("bundle.load_bundle") + other.total_s("bundle.load_bundle")
    m["bundle.load_bundle_calls_per_round"] = (loads / max(1, traced.instances), "count")
    m["bundle.load_bundle_ms"] = (1000.0 * load_s / loads if loads else 0.0, "ms")
    for layer in ("serve", "statedir", "fsutil", "protocol", "backends"):
        m[f"{layer}.self_ms_per_req"] = (1000.0 * serve.self_time[layer] / reqs, "ms")
    m["trace.latency_p50_overhead_ms"] = (1000.0 * (p50(traced.latency_s) - p50(base.latency_s)), "ms")
    m["trace.stage_rps_overhead"] = (_rps(traced) - _rps(base), "1/s")
    m["trace.requests_served"] = (serve.counts["claim_won"], "count")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("lifecycle", "rtt-serial", "burst"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not program_present():
        print(f"perfbench: c4run sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import SpanTable, Tracer

    workdir = WORK_ROOT / f"{os.getpid()}-{args.workload}"
    workdir.mkdir(parents=True)
    tally = Tally()
    try:
        if args.trace:
            half = args.seconds / 2.0
            base = _pass(workloads, args.workload, args.seed, half, 1, workdir / "untraced", False, tally)
            gen = Tracer()
            gen.install_generator()
            traced = _pass(workloads, args.workload, args.seed, half, 1, workdir / "traced", True, tally)
            gen_table = SpanTable()
            gen_table.add(gen.spans, gen.counts)
            metrics, measured = per_layer(traced, base, gen_table), traced
        else:
            measured = _pass(workloads, args.workload, args.seed, args.seconds, 3, workdir / "run", False, tally)
            metrics = end_to_end(measured)
        report = run_metadata(workdir, args.seed, args.workload)
        report.update({
            "ops_attempted": tally.attempted,
            "ops_failed": tally.failed,
            "failures": tally.reasons,
            "latency_tail": tail(measured.latency_s),
            "named": named_figures(args.workload, measured, tally),
            "epoch_rps": measured.epoch_rps,
            "serve_maxrss_kb": measured.maxrss_kb,
            "samples": {"latency": len(measured.latency_s), "setups": len(measured.setup_s),
                        "instances": measured.instances, "requests": measured.requests},
            "cli_wall_p50_s": {verb: p50(w) for verb, w in measured.cli.walls.items()},
        })
        print(json.dumps({"report": report}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    result = {
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
