"""Span tracer installed around c4run's layer boundaries from outside.

Nothing under ``src/`` is changed: each wrapper replaces a name where its
caller looks it up (``c4run.serve.validate_request``, not
``c4run.protocol.validate_request``), methods are wrapped on their class,
and ``os.fsync`` is wrapped process-wide so file, directory and receipt
fsyncs are all seen. Spans carry a name (``<layer>.<function>``), start,
end, parent and request id; they stay in memory and are written out when
the process exits.

This module imports no part of c4run at import time, so the launcher can
load it before the program.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import stat
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute path, span name). The attribute path is where the
# caller looks the name up; "Class.method" wraps the method on the class.
# Serve is wrapped at its two per-request entry points; every other entry
# is a call across a layer boundary.
PROGRAM_TARGETS = [
    ("c4run.serve", "ServeLoop._claim_and_accept_detail", "serve.claim_and_accept"),
    ("c4run.serve", "ServeLoop.execute_accepted", "serve.execute_accepted"),
    ("c4run.serve", "validate_request", "protocol.validate_request"),
    ("c4run.serve", "commit_acceptance", "protocol.commit_acceptance"),
    ("c4run.serve", "build_response", "protocol.build_response"),
    ("c4run.serve", "request_from_envelope", "protocol.request_from_envelope"),
    ("c4run.serve", "response_to_envelope", "protocol.response_to_envelope"),
    ("c4run.serve", "remove_if_exists", "fsutil.remove_if_exists"),
    ("c4run.serve", "load_bundle", "bundle.load_bundle"),
    ("c4run.runtime", "load_bundle", "bundle.load_bundle"),
    ("c4run.bundle", "load_bundle", "bundle.load_bundle"),
    ("c4run.runtime", "cmd_create", "runtime.cmd_create"),
    ("c4run.runtime", "cmd_start", "runtime.cmd_start"),
    ("c4run.runtime", "cmd_state", "runtime.cmd_state"),
    ("c4run.runtime", "cmd_wait", "runtime.cmd_wait"),
    ("c4run.runtime", "cmd_kill", "runtime.cmd_kill"),
    ("c4run.runtime", "cmd_delete", "runtime.cmd_delete"),
    ("c4run.statedir", "StateDir.pending_requests", "statedir.pending_requests"),
    ("c4run.statedir", "StateDir.claim_request", "statedir.claim_request"),
    ("c4run.statedir", "StateDir.load_session", "statedir.load_session"),
    ("c4run.statedir", "StateDir.save_session", "statedir.save_session"),
    ("c4run.statedir", "StateDir.read_record", "statedir.read_record"),
    ("c4run.statedir", "StateDir.update_record", "statedir.update_record"),
    ("c4run.statedir", "StateDir.update_record_rmw", "statedir.update_record_rmw"),
    ("c4run.statedir", "StateDir.allocate_eid", "statedir.allocate_eid"),
    ("c4run.statedir", "StateDir.write_started_marker", "statedir.write_started_marker"),
    ("c4run.statedir", "StateDir.write_stage_record", "statedir.write_stage_record"),
    ("c4run.statedir", "StateDir.read_stage_record", "statedir.read_stage_record"),
    ("c4run.statedir", "StateDir.spool_response", "statedir.spool_response"),
    ("c4run.statedir", "StateDir.has_response", "statedir.has_response"),
    ("c4run.statedir", "StateDir.in_flight_count", "statedir.in_flight_count"),
    ("c4run.statedir", "StateDir.append_event", "statedir.append_event"),
    ("c4run.statedir", "StateDir.load_events", "statedir.load_events"),
    ("c4run.statedir", "StateDir.init", "statedir.init"),
    ("c4run.statedir", "StateDir.delete", "statedir.delete"),
    ("c4run.fsutil", "atomic_write_bytes", "fsutil.atomic_write_bytes"),
    ("c4run.fsutil", "atomic_write_json", "fsutil.atomic_write_json"),
    ("c4run.fsutil", "write_once_bytes", "fsutil.write_once_bytes"),
    ("c4run.fsutil", "read_json", "fsutil.read_json"),
    ("c4run.fsutil", "append_line", "fsutil.append_line"),
    ("c4run.fsutil", "fsync_dir", "fsutil.fsync_dir"),
    ("c4run.fsutil", "remove_if_exists", "fsutil.remove_if_exists"),
    ("c4run.backends.base", "AdapterBase.prepare", "backends.prepare"),
    ("c4run.backends.base", "AdapterBase.execute", "backends.execute"),
    ("c4run.backends.base", "AdapterBase.destroy", "backends.destroy"),
]

# Lock context managers: the span covers acquisition only (the wait).
LOCK_TARGETS = [
    ("c4run.statedir", "StateDir.session_lock", "statedir.session_lock_wait"),
    ("c4run.statedir", "StateDir.state_lock", "statedir.state_lock_wait"),
]

# What the benchmark itself calls when it acts as the anchor.
GENERATOR_TARGETS = [
    ("c4run.protocol", "build_request", "protocol.build_request"),
    ("c4run.protocol", "verify_response", "protocol.verify_response"),
    ("c4run.statedir", "StateDir.spool_request", "statedir.spool_request"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, start, end, request_id)
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- per-thread context --------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request_id) -> None:
        self._local.rid = request_id

    # -- spans -----------------------------------------------------------------

    def wrap(self, name: str, fn, *, on_enter=None, on_exit=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if on_exit is not None:
                    on_exit(args, result)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1, getattr(tracer._local, "rid", None)))

        return wrapper

    def wrap_lock(self, name: str, factory):
        timed_enter = self.wrap(name, lambda enter: enter())

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return _TimedAcquire(factory(*args, **kwargs), timed_enter)

        return wrapper

    # -- installation ------------------------------------------------------------

    def patch(self, module: str, path: str, name: str) -> None:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **self._hooks(name)))

    def _hooks(self, name: str) -> dict:
        if name == "serve.claim_and_accept":
            return {"on_enter": lambda args: self.set_request(None)}
        if name == "serve.execute_accepted":
            return {"on_enter": lambda args: self.set_request(args[1].req.request_id)}
        if name == "statedir.claim_request":
            return {"on_exit": self._claimed}
        if name == "statedir.spool_request":
            return {"on_enter": lambda args: self.set_request(args[2])}
        return {}

    def _claimed(self, args, result) -> None:
        if result is None:
            self.counts["claim_lost"] += 1
        else:
            self.counts["claim_won"] += 1
            self.set_request(result.stem)

    def install_program(self) -> None:
        for module, path, name in PROGRAM_TARGETS:
            self.patch(module, path, name)
        for module, path, name in LOCK_TARGETS:
            owner = getattr(importlib.import_module(module), path.split(".")[0])
            attr = path.split(".")[1]
            setattr(owner, attr, self.wrap_lock(name, getattr(owner, attr)))
        self._install_fsync()

    def install_generator(self) -> None:
        for module, path, name in GENERATOR_TARGETS:
            self.patch(module, path, name)

    def _install_fsync(self) -> None:
        real = os.fsync
        timed = {
            True: self.wrap("fsutil.fsync_dir_call", real),
            False: self.wrap("fsutil.fsync_file_call", real),
        }

        def fsync(fd):
            num = fd if isinstance(fd, int) else fd.fileno()
            return timed[stat.S_ISDIR(os.fstat(num).st_mode)](fd)

        os.fsync = fsync

    # -- output ---------------------------------------------------------------------

    def dump(self, out_dir: Path, argv: list[str]) -> None:
        path = Path(out_dir) / f"trace-{os.getpid()}.json"
        with open(path, "w") as f:
            json.dump({"pid": os.getpid(), "argv": argv, "counts": self.counts, "spans": self.spans}, f)


class _TimedAcquire:
    """Context manager whose __enter__ (the lock wait) runs inside a span."""

    def __init__(self, inner, timed_enter) -> None:
        self._inner = inner
        self._timed_enter = timed_enter

    def __enter__(self):
        return self._timed_enter(self._inner.__enter__)

    def __exit__(self, *exc):
        return self._inner.__exit__(*exc)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


class SpanTable:
    """Spans of one or more processes, summarised by name and by layer."""

    def __init__(self) -> None:
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()

    def add(self, spans: list, counts: dict) -> None:
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, name, t0, t1, _rid in spans:
            if parent:
                child_time[parent] += t1 - t0
        for sid, _parent, name, t0, t1, _rid in spans:
            self.durations[name].append(t1 - t0)
            self.self_time[name.split(".", 1)[0]] += (t1 - t0) - child_time.get(sid, 0.0)
        self.counts.update(counts)

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def total_s(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def mean_ms(self, name: str) -> float:
        d = self.durations.get(name)
        return 1000.0 * sum(d) / len(d) if d else 0.0


def load_traces(trace_dir: Path, *, serve: bool) -> SpanTable:
    """Aggregate the trace files of serve processes (serve=True) or of all
    other CLI processes (serve=False)."""
    table = SpanTable()
    for path in sorted(Path(trace_dir).glob("trace-*.json")):
        obj = json.loads(path.read_text())
        if ("serve" in obj["argv"]) == serve:
            table.add(obj["spans"], obj["counts"])
    return table
