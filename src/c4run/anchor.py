"""Reference anchor: the host-side resident process of a composite workload.

Reads a workload description, emits authenticated stage requests through
the file spool, and waits for verified responses. Exits 0 only when every
requested stage completed; a failed, rejected, unverifiable, or missing
response makes the whole run fail.

Workload file (JSON, resolved relative to the rootfs working directory):

    {
      "stages": ["hello", "hello", ...],    # one entry per stage request
      "concurrency": 4,                      # max outstanding, >= 1 (default: all)
      "inter_request_delay_ms": 0,
      "response_timeout_s": 60,
      "payload": "optional text sent to every stage"
    }

Configuration arrives via environment: C4_CID, C4_STATEDIR, and
C4_SESSION_PATH point at the instance this anchor belongs to. The session
file is read once at startup; the anchor never writes it.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from .errors import CorruptStateError, exit_process
from .fsutil import read_json
from .protocol import (
    ResponseStatus,
    SessionState,
    build_request,
    request_to_envelope,
    response_from_envelope,
    verify_response,
)
from .statedir import StateDir

DEFAULT_RESPONSE_TIMEOUT_S = 60.0


def run_workload(sd: StateDir, session: SessionState, workload: dict) -> int:
    stages = workload.get("stages", [])
    if not isinstance(stages, list) or not all(isinstance(s, str) for s in stages):
        print("anchor: invalid workload stages", file=sys.stderr)
        return 2
    concurrency = int(workload.get("concurrency", len(stages) or 1))
    if concurrency < 1:
        print("anchor: invalid workload concurrency", file=sys.stderr)
        return 2
    delay_s = float(workload.get("inter_request_delay_ms", 0)) / 1000.0
    timeout_s = float(workload.get("response_timeout_s", DEFAULT_RESPONSE_TIMEOUT_S))
    payload = workload.get("payload", "ping").encode()

    outstanding: set[str] = set()
    failures: list[str] = []
    completed = 0
    deadline = time.monotonic() + timeout_s
    queue = list(stages)

    def _collect(block: bool) -> None:
        nonlocal completed
        while outstanding:
            ready = [rid for rid in outstanding if sd.has_response(rid)]
            for rid in ready:
                try:
                    resp = read_json(sd.response_path(rid), "response", response_from_envelope)
                except CorruptStateError:
                    resp = None  # the host wrote something that is not a response
                if resp is None or not verify_response(resp, session, outstanding):
                    failures.append(f"{rid}: response failed verification")
                elif resp.status is ResponseStatus.COMPLETED:
                    completed += 1
                else:
                    failures.append(f"{rid}: {resp.status.value}"
                                    + (f" ({resp.reject_reason.value})" if resp.reject_reason else ""))
                outstanding.discard(rid)
            if not block or not outstanding:
                return
            if time.monotonic() > deadline:
                failures.extend(f"{rid}: no response before timeout" for rid in outstanding)
                outstanding.clear()
                return
            time.sleep(0.02)

    for stage in queue:
        while len(outstanding) >= concurrency:
            _collect(block=False)
            if time.monotonic() > deadline:
                break
            time.sleep(0.01)
        req = build_request(session, stage, payload)
        sd.spool_request(request_to_envelope(req), req.request_id)
        outstanding.add(req.request_id)
        if delay_s:
            time.sleep(delay_s)
    _collect(block=True)

    if failures:
        for line in failures:
            print(f"anchor: {line}", file=sys.stderr)
        return 1
    print(f"anchor: {completed}/{len(stages)} stages completed")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    workload_path = Path(argv[0]) if argv else Path("workload.json")

    cid = os.environ.get("C4_CID")
    statedir = os.environ.get("C4_STATEDIR")
    if not cid or not statedir:
        print("anchor: C4_CID and C4_STATEDIR must be set", file=sys.stderr)
        return 2
    sd = StateDir(Path(statedir).parent, cid)

    session_path = Path(os.environ.get("C4_SESSION_PATH", sd.session_path))
    session = read_json(session_path, "session.json", SessionState.from_json)
    workload = json.loads(workload_path.read_text())
    return run_workload(sd, session, workload)


if __name__ == "__main__":
    exit_process(main())
