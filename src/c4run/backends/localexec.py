"""Local-process executor backend.

Runs each stage as a sandboxed-ish subprocess resolved from the bundle
rootfs: payload on stdin, stdout captured, killed on timeout or cancel.
The sandboxing (own working directory, own process group, core dumps off)
is best effort and explicitly NOT a security boundary — it stands in for a
protected execution context the way a real backend would.

Evidence is a digest of the program file bytes, so identical stage programs
measure identically across runs and any byte change shows up.
"""

from __future__ import annotations

import hashlib
import os
import resource
import signal
import subprocess
import time
from pathlib import Path
from typing import NamedTuple, Optional

from ..errors import CANCELLED_RC, TIMEOUT_RC, PrepareFailed, StageNotFound
from .base import AdapterBase, CancelCheck, StageEvidence, StageOutcome, Started

DEFAULT_TIMEOUT_S = 60.0
_POLL_S = 0.02


class _ExecContext(NamedTuple):
    program: Path
    args: list[str]
    timeout_s: float
    workdir: Path
    measurement: str


def _inside(root: Path, candidate: Path) -> bool:
    try:
        candidate.relative_to(root)
        return True
    except ValueError:
        return False


class LocalExecAdapter(AdapterBase):
    backend_id = "localexec"
    tee_type = "localexec"
    evidence_type = "localexec-digest"

    def __init__(self, stage_table, *, rootfs: Path, work_root: Path, started: Started) -> None:
        super().__init__(stage_table, started=started)
        self.rootfs = Path(rootfs).resolve()
        self.work_root = Path(work_root)

    def _prepare_context(self, cid: str, eid: str, stage: str) -> _ExecContext:
        spec = self.stage_table.get(stage)
        if spec is None:
            raise StageNotFound(f"stage {stage!r} is not registered")
        rel = spec.get("program")
        if not rel:
            raise StageNotFound(f"stage {stage!r} has no program")
        program = (self.rootfs / rel).resolve()
        if not _inside(self.rootfs, program):
            raise PrepareFailed(f"stage {stage!r} program escapes the rootfs")
        if not program.is_file():
            raise PrepareFailed(f"stage {stage!r} program {rel} not found in rootfs")
        workdir = self.work_root / eid / "work"
        try:
            workdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise PrepareFailed(f"cannot stage working directory: {exc}") from exc
        return _ExecContext(
            program=program,
            args=[str(a) for a in spec.get("args", [])],
            timeout_s=float(spec.get("timeout_s", DEFAULT_TIMEOUT_S)),
            workdir=workdir,
            measurement=hashlib.sha256(program.read_bytes()).hexdigest(),
        )

    def _execute(self, handle, context: _ExecContext, request, cancel_check: CancelCheck) -> StageOutcome:
        # No preexec_fn: serve workers spawn from threads, where a
        # between-fork-and-exec callback can deadlock the child. The core
        # limit is applied from the parent instead (best effort).
        proc = subprocess.Popen(
            [str(context.program), *context.args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            cwd=context.workdir,
            start_new_session=True,
            close_fds=True,
        )
        try:
            resource.prlimit(proc.pid, resource.RLIMIT_CORE, (0, 0))
        except (OSError, ProcessLookupError):
            pass
        deadline = time.monotonic() + context.timeout_s
        stdout = b""
        rc: Optional[int] = None
        try:
            # Feed and close stdin before polling: communicate() does not
            # resume a half-finished stdin write across timeout retries, and
            # a child waiting for EOF would hang until the stage timeout.
            self._feed_stdin(proc, request.payload)
            while True:
                try:
                    stdout, _ = proc.communicate(timeout=_POLL_S)
                    rc = proc.returncode
                    break
                except subprocess.TimeoutExpired:
                    if cancel_check():
                        self._kill(proc)
                        stdout, _ = proc.communicate()
                        rc = CANCELLED_RC
                        break
                    if time.monotonic() > deadline:
                        self._kill(proc)
                        stdout, _ = proc.communicate()
                        rc = TIMEOUT_RC
                        break
        finally:
            if proc.poll() is None:
                self._kill(proc)
        if rc is None or rc < 0:
            rc = 128 + abs(rc) if rc is not None else TIMEOUT_RC
        evidence = StageEvidence(
            tee_type=self.tee_type,
            evidence_type=self.evidence_type,
            measurement_hash=context.measurement,
            extra={"program": str(context.program.relative_to(self.rootfs))},
        )
        return StageOutcome(rc=rc, stdout=stdout or b"", evidence=evidence)

    # Payloads up to a pipe buffer are written inline; larger ones go
    # through a writer thread so a non-reading child cannot block us.
    _INLINE_STDIN_LIMIT = 32 * 1024

    @staticmethod
    def _feed_stdin(proc: subprocess.Popen, payload: bytes) -> None:
        stream, proc.stdin = proc.stdin, None  # keep communicate() off it

        def _write() -> None:
            try:
                if payload:
                    stream.write(payload)
                stream.close()
            except (BrokenPipeError, OSError):
                pass  # the child exited without reading; its rc speaks

        if len(payload) <= LocalExecAdapter._INLINE_STDIN_LIMIT:
            _write()
        else:
            import threading

            threading.Thread(target=_write, daemon=True).start()

    @staticmethod
    def _kill(proc: subprocess.Popen) -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    def _destroy_context(self, context: _ExecContext) -> None:
        # The working directory lives under the enclave tree and is part of
        # the per-stage artifacts; nothing to release here.
        pass
