"""Process plumbing shared by the workloads: child environment, CLI calls,
serve processes, cleanup, statistics and run metadata.

Every child runs on ``sys.executable`` with the checkout's ``src`` directory
as an absolute ``PYTHONPATH`` entry, so nothing depends on the caller's
working directory or on c4run being installed.
"""

from __future__ import annotations

import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC = REPO_ROOT / "src"
LAUNCHER = BENCH_DIR / "launch.py"
WORK_ROOT = REPO_ROOT / ".perfbench-work"

CLI_TIMEOUT_S = 90.0
SERVE_EXIT_TIMEOUT_S = 20.0


def program_present() -> bool:
    return (SRC / "c4run" / "cli.py").is_file()


def child_env(state_root: Path, trace_dir: Optional[Path]) -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    # The reference anchor is a "#!/usr/bin/env python3" script: put this
    # interpreter first so the anchor runs on the same Python as the rest.
    env["PATH"] = os.path.dirname(sys.executable) + os.pathsep + env.get("PATH", "")
    env["C4RUN_STATEDIR_ROOT"] = str(state_root)
    # Every c4run process loads cached bytecode, as an installed package
    # would, whatever the caller's setting; set-up fills the cache, which
    # stays inside the checkout (src/c4run/__pycache__).
    for var in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "C4_CRASH_POINT"):
        env.pop(var, None)
    if trace_dir is not None:
        env["C4BENCH_TRACE_DIR"] = str(trace_dir)
    else:
        env.pop("C4BENCH_TRACE_DIR", None)
    return env


@dataclass
class CliResult:
    rc: int
    out: str
    err: str
    wall_s: float
    maxrss_kb: int

    def json(self) -> Optional[dict]:
        """The last stdout line as JSON, or None when absent or malformed."""
        lines = self.out.strip().splitlines()
        if not lines:
            return None
        try:
            obj = json.loads(lines[-1])
        except ValueError:
            return None
        return obj if isinstance(obj, dict) else None


def _wait_rusage(proc: subprocess.Popen, timeout_s: float) -> tuple[int, int]:
    """Reap proc with wait4 (for its peak RSS); SIGKILL it after timeout_s."""
    timer = threading.Timer(timeout_s, _kill_quietly, args=(proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def _kill_quietly(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Cli:
    """Runs c4run verbs against one state root, traced or not."""

    def __init__(self, workdir: Path, *, traced: bool) -> None:
        self.workdir = workdir
        self.state_root = workdir / "state"
        self.state_root.mkdir(parents=True, exist_ok=True)
        self.trace_dir = workdir / "trace" if traced else None
        if self.trace_dir is not None:
            self.trace_dir.mkdir(exist_ok=True)
        self.env = child_env(self.state_root, self.trace_dir)
        self.walls: dict[str, list[float]] = {}
        self.serves: list[subprocess.Popen] = []

    def argv(self, *args: str) -> list[str]:
        entry = [str(LAUNCHER)] if self.trace_dir is not None else ["-m", "c4run.cli"]
        return [sys.executable, *entry, "--statedir-root", str(self.state_root), *args]

    def run(self, verb: str, *args: str) -> CliResult:
        with tempfile.TemporaryFile(dir=self.workdir) as out, tempfile.TemporaryFile(dir=self.workdir) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                self.argv(verb, *args), env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
            rc, maxrss = _wait_rusage(proc, CLI_TIMEOUT_S)
            wall = time.perf_counter() - t0
            out.seek(0)
            err.seek(0)
            res = CliResult(rc, out.read().decode(errors="replace"), err.read().decode(errors="replace"), wall, maxrss)
        self.walls.setdefault(verb, []).append(wall)
        return res

    def spawn_serve(self, cid: str, *, workers: int) -> subprocess.Popen:
        proc = subprocess.Popen(
            self.argv("serve", cid, "--forever", "--workers", str(workers)),
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        proc.started_at = time.perf_counter()  # type: ignore[attr-defined]
        self.serves.append(proc)
        return proc

    def reap_serve(self, proc: subprocess.Popen) -> tuple[int, int]:
        """Wait for a serve process that was told to stop; returns (rc, maxrss_kb)."""
        rc, maxrss = _wait_rusage(proc, SERVE_EXIT_TIMEOUT_S)
        self.walls.setdefault("serve", []).append(time.perf_counter() - proc.started_at)  # type: ignore[attr-defined]
        self.serves.remove(proc)
        return rc, maxrss

    def close(self) -> None:
        """Stop every serve process still running, then every stray process
        (supervisors, reference anchors) whose command line names this work
        dir. Sleeping anchors are killed through their instance's kill."""
        for proc in list(self.serves):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            self.serves.remove(proc)
        reap_strays(str(self.workdir))


def reap_strays(marker: str) -> None:
    """SIGKILL and await every other process whose argv mentions marker."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == me:
            continue
        try:
            cmdline = Path(f"/proc/{entry}/cmdline").read_bytes()
        except OSError:
            continue
        if marker.encode() in cmdline:
            pids.append(int(entry))
    for pid in pids:
        _kill_quietly(pid)
    deadline = time.monotonic() + 10
    while pids and time.monotonic() < deadline:
        pids = [p for p in pids if Path(f"/proc/{p}").exists() and not _is_zombie(p)]
        time.sleep(0.01)


def _is_zombie(pid: int) -> bool:
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"
    except (OSError, IndexError):
        return True


def kill_group_and_wait(pid: Optional[int], timeout_s: float = 5.0) -> None:
    """SIGKILL a process group (the anchors run in their own sessions)."""
    if pid is None:
        return
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline and Path(f"/proc/{pid}").exists() and not _is_zombie(pid):
        time.sleep(0.01)


def tree_bytes(path: Path) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.lstat(os.path.join(dirpath, name)).st_size
            except FileNotFoundError:
                pass
    return total


def proc_wchar(pid: int) -> Optional[int]:
    try:
        for line in Path(f"/proc/{pid}/io").read_text().splitlines():
            if line.startswith("wchar:"):
                return int(line.split()[1])
    except OSError:
        return None
    return None


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (p in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> dict:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        beyond = n - math.ceil(p / 100.0 * n)
        if beyond >= 10:
            return {"percentile": p, "value": percentile(values, p), "n": n, "beyond": beyond}
    return {"percentile": None, "value": None, "n": n, "beyond": 0}


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------


def fs_type(path: Path) -> str:
    """Filesystem type of the mount holding path, from /proc/mounts."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        lines = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    for line in lines:
        parts = line.split()
        if len(parts) < 3:
            continue
        mnt = parts[1]
        if (target == mnt or target.startswith(mnt.rstrip("/") + "/")) and len(mnt) > len(best):
            best, kind = mnt, parts[2]
    return kind


def run_metadata(state_root: Path, seed: int, workload: str) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "statedir_fs": fs_type(state_root),
        "flush_policy": "fsync on every step (program default, unchanged)",
    }


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(what)
