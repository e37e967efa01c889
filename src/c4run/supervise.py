"""Anchor supervisor: spawn, tee output, report readiness, reap, record the exit.

Lifecycle entrypoints are short-lived processes, so none of them can
waitpid the anchor. start() forks this supervisor, detached, from its own
already-imported interpreter instead (launch). The supervisor spawns the
anchor from the bundle config (in its own session/process group so kill can
signal the whole tree), redirects stdout+stderr to anchor.out, publishes
the pid in anchor.pid, reports READY (or the spawn error) on start's pipe,
waits, and durably records in anchor_exit.json the exit observation that
wait()/kill() later reduce into the composite outcome.
"""

from __future__ import annotations

import os
import subprocess
import time
from contextlib import suppress

from .bundle import load_bundle
from .fsutil import atomic_write_json
from .statedir import StateDir

READY = b"ready"  # on the readiness pipe once anchor.pid is durable


def launch(sd: StateDir) -> bytes:
    """Double-fork a detached supervisor and return what it wrote on the
    readiness pipe: READY once anchor.pid is durable, else the launch error.

    The intermediate child starts a new session and exits at once, so a
    long-lived caller keeps no zombie. The supervisor keeps /dev/null on
    fds 0-2 and no other inherited fd (none of the caller's pipes or
    locks), and leaves by os._exit, never through the caller's stack.
    """
    r, w = os.pipe()
    child = os.fork()
    if child == 0:
        try:
            os.setsid()
            if os.fork() == 0:
                null = os.open(os.devnull, os.O_RDWR)
                for fd in (0, 1, 2):
                    os.dup2(null, fd)
                os.closerange(3, w)
                os.closerange(w + 1, os.sysconf("SC_OPEN_MAX"))
                supervise(sd, w)
        finally:
            os._exit(0)  # nobody reads the status: the outcome is on the pipe and on disk
    os.close(w)
    os.waitpid(child, 0)
    with os.fdopen(r, "rb") as pipe:
        return pipe.read()


def supervise(sd: StateDir, ready_fd: int) -> None:
    bundle = load_bundle(sd.bundle_dir)
    rootfs = sd.rootfs_dir
    argv = [str(rootfs / os.path.normpath(bundle.process_args[0])), *bundle.process_args[1:]]

    env = dict(os.environ)
    env.update(bundle.process_env)
    env.update(
        {
            "C4_CID": sd.cid,
            "C4_STATEDIR": str(sd.path),
            "C4_SESSION_PATH": str(sd.session_path),
        }
    )

    with open(sd.anchor_out_path, "ab", buffering=0) as out:
        try:
            proc = subprocess.Popen(
                argv,
                cwd=rootfs,
                env=env,
                stdout=out,
                stderr=out,
                stdin=subprocess.DEVNULL,
                start_new_session=True,
            )
        except OSError as exc:
            os.write(ready_fd, str(exc).encode())
            return

    atomic_write_json(sd.anchor_pid_path, {"pid": proc.pid, "started_at": time.time()})
    with suppress(OSError):  # start may be gone already; the anchor still needs reaping
        os.write(ready_fd, READY)
    os.close(ready_fd)
    raw = proc.wait()
    atomic_write_json(
        sd.anchor_exit_path,
        {
            "pid": proc.pid,
            "exit_code": raw if raw >= 0 else 128 + abs(raw),
            "term_signal": abs(raw) if raw < 0 else None,
            "finished_at": time.time(),
        },
    )
