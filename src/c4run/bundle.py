"""Composite bundle ingestion.

A bundle directory holds ``config.json`` and ``rootfs/``. Besides the usual
process section (anchor argv + env), the config carries a ``c4`` section
describing the confidential side:

    {
      "process": {"args": ["bin/anchor", ...], "env": {"K": "V"}},
      "c4": {
        "backend_id": "sim" | "localexec",
        "stage_table": {"<stage>": {...}},       # per-backend entry schema
        "require_conf": false,                    # readiness needs trust
        "c_untrusted": 252,                       # trust-violation exit code
        "session_seed": "optional deterministic session-key seed"
      }
    }

Unknown ``c4`` keys are rejected so config typos fail at create instead of
silently changing behavior. The anchor command must resolve inside rootfs.
"""

from __future__ import annotations

import os
import shlex
import sys
from pathlib import Path
from typing import NamedTuple, Optional

from .errors import UsageError
from .fsutil import read_json
from .lifecycle import DEFAULT_UNTRUSTED_EXIT_CODE
from .record import Record

_C4_KEYS = {"backend_id", "stage_table", "require_conf", "c_untrusted", "session_seed"}


class C4Config(NamedTuple):
    backend_id: str
    stage_table: dict
    require_conf: bool = False
    c_untrusted: int = DEFAULT_UNTRUSTED_EXIT_CODE
    session_seed: Optional[str] = None


class CompositeBundle(Record):
    __slots__ = ("path", "process_args", "process_env", "c4")

    def __init__(
        self,
        path: Path,
        process_args: list[str],
        process_env: Optional[dict] = None,
        c4: C4Config = None,  # type: ignore[assignment]
    ) -> None:
        self.path = path
        self.process_args = process_args
        self.process_env = {} if process_env is None else process_env
        self.c4 = c4

    @property
    def rootfs(self) -> Path:
        return self.path / "rootfs"


def _anchor_resolves(rootfs: Path, arg0: str) -> bool:
    if os.path.isabs(arg0):
        return False
    norm = os.path.normpath(arg0)
    if norm.startswith(".."):
        return False
    return (rootfs / norm).is_file()


def load_bundle(bundle_path: Path) -> CompositeBundle:
    """Parse and validate a bundle; raises UsageError on any defect."""
    path = Path(bundle_path)
    config_path = path / "config.json"
    rootfs = path / "rootfs"
    if not config_path.is_file():
        raise UsageError(f"bundle {path} has no config.json")
    if not rootfs.is_dir():
        raise UsageError(f"bundle {path} has no rootfs/")
    try:
        cfg = read_json(config_path, "bundle config")
    except Exception as exc:
        raise UsageError(f"bundle config unreadable: {exc}") from exc

    process = cfg.get("process")
    if not isinstance(process, dict):
        raise UsageError("bundle config missing process section")
    args = process.get("args")
    if not isinstance(args, list) or not args or not all(isinstance(a, str) for a in args):
        raise UsageError("process.args must be a non-empty list of strings")
    if not _anchor_resolves(rootfs, args[0]):
        raise UsageError(f"anchor command {args[0]!r} does not resolve inside rootfs")
    env = process.get("env", {})
    if not isinstance(env, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in env.items()
    ):
        raise UsageError("process.env must map strings to strings")

    c4 = cfg.get("c4")
    if not isinstance(c4, dict):
        raise UsageError("bundle config missing c4 section")
    unknown = set(c4) - _C4_KEYS
    if unknown:
        raise UsageError(f"unknown c4 config keys: {sorted(unknown)}")
    backend_id = c4.get("backend_id")
    if not isinstance(backend_id, str) or not backend_id:
        raise UsageError("c4.backend_id must be a non-empty string")
    stage_table = c4.get("stage_table")
    if not isinstance(stage_table, dict) or not stage_table:
        raise UsageError("c4.stage_table must be a non-empty mapping")
    if not all(isinstance(v, dict) for v in stage_table.values()):
        raise UsageError("c4.stage_table entries must be mappings")
    require_conf = c4.get("require_conf", False)
    if not isinstance(require_conf, bool):
        raise UsageError("c4.require_conf must be a boolean")
    c_untrusted = c4.get("c_untrusted", DEFAULT_UNTRUSTED_EXIT_CODE)
    if not isinstance(c_untrusted, int) or not 0 <= c_untrusted <= 255:
        raise UsageError("c4.c_untrusted must be an integer in [0, 255]")
    session_seed = c4.get("session_seed")
    if session_seed is not None and not isinstance(session_seed, str):
        raise UsageError("c4.session_seed must be a string")

    return CompositeBundle(
        path=path,
        process_args=list(args),
        process_env=dict(env),
        c4=C4Config(
            backend_id=backend_id,
            stage_table=dict(stage_table),
            require_conf=require_conf,
            c_untrusted=c_untrusted,
            session_seed=session_seed,
        ),
    )


# ---------------------------------------------------------------------------
# Reference bundle construction (used by the harness and the test suite)
# ---------------------------------------------------------------------------

SIM_STAGE_TABLE = {
    "hello": {"behavior": "hello"},
    "aesgcm": {"behavior": "aesgcm", "size_bytes": 1024 * 1024, "seed": 7},
    "fail": {"behavior": "fail", "rc": 7},
    "sleep": {"behavior": "sleep", "ms": 50},
}

# Paths are fixed when the module is imported: the supervisor runs the
# launcher with cwd=rootfs, where a relative PYTHONPATH entry means nothing.
# exec keeps the pid the supervisor records the anchor's own.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent
_ANCHOR_LAUNCHER = f"""#!/bin/sh
PYTHONPATH={shlex.quote(str(_PACKAGE_ROOT))}${{PYTHONPATH:+:$PYTHONPATH}}
export PYTHONPATH
exec {shlex.quote(sys.executable)} -m c4run.anchor "$@"
"""

_HELLO_SH = """#!/bin/sh
read -r _payload || true
echo "hello from $PWD"
exit 0
"""

_FAIL_SH = """#!/bin/sh
exit 7
"""

_SLEEP_SH = """#!/bin/sh
sleep 0.05
exit 0
"""

_SLEEP_ANCHOR_SH = """#!/bin/sh
exec sleep 300
"""

_TAG_SH = """#!/bin/sh
# Reads the payload and emits a stable digest-like token.
read -r payload || true
echo "tag:$payload"
exit 0
"""

LOCALEXEC_STAGE_TABLE = {
    "hello": {"program": "bin/hello.sh"},
    "aesgcm": {"program": "bin/tag.sh"},
    "fail": {"program": "bin/fail.sh"},
    "sleep": {"program": "bin/sleep.sh", "timeout_s": 30},
}


def write_test_bundle(
    path: Path,
    *,
    backend_id: str = "sim",
    stage_table: Optional[dict] = None,
    workload: Optional[dict] = None,
    anchor_args: Optional[list[str]] = None,
    c_untrusted: int = DEFAULT_UNTRUSTED_EXIT_CODE,
    session_seed: Optional[str] = "test-seed",
) -> Path:
    """Materialize a minimal composite bundle for tests and campaigns.

    The default anchor is the reference anchor launcher reading
    ``workload.json`` from the rootfs; pass ``anchor_args`` to substitute a
    different command (e.g. a plain shell script). The launcher
    (``bin/c4-anchor``) is a ``/bin/sh`` script that execs
    ``python -m c4run.anchor`` on ``sys.executable`` of the process writing
    the bundle, with the absolute directory holding this ``c4run`` package
    put first on ``PYTHONPATH``; the anchor therefore starts whatever the
    caller's working directory, ``PYTHONPATH`` or ``PATH``, and whether or
    not c4run is installed.
    """
    import json

    path = Path(path)
    rootfs = path / "rootfs"
    (rootfs / "bin").mkdir(parents=True, exist_ok=True)

    scripts = {
        "bin/c4-anchor": _ANCHOR_LAUNCHER,
        "bin/hello.sh": _HELLO_SH,
        "bin/fail.sh": _FAIL_SH,
        "bin/sleep.sh": _SLEEP_SH,
        "bin/tag.sh": _TAG_SH,
    }
    for rel, text in scripts.items():
        p = rootfs / rel
        p.write_text(text)
        p.chmod(0o755)

    if workload is None:
        workload = {"stages": ["hello"] * 4}
    (rootfs / "workload.json").write_text(json.dumps(workload, indent=2))

    if stage_table is None:
        stage_table = SIM_STAGE_TABLE if backend_id == "sim" else LOCALEXEC_STAGE_TABLE

    config = {
        "process": {
            "args": anchor_args or ["bin/c4-anchor", "workload.json"],
            "env": {},
        },
        "c4": {
            "backend_id": backend_id,
            "stage_table": stage_table,
            "c_untrusted": c_untrusted,
            **({"session_seed": session_seed} if session_seed else {}),
        },
    }
    (path / "config.json").write_text(json.dumps(config, indent=2))
    return path


def write_sleep_anchor_bundle(path: Path) -> Path:
    """A test bundle whose anchor only sleeps; the caller spools requests
    and serves them itself."""
    bundle = write_test_bundle(path, anchor_args=["bin/sleep-anchor.sh"])
    script = bundle / "rootfs" / "bin" / "sleep-anchor.sh"
    script.write_text(_SLEEP_ANCHOR_SH)
    script.chmod(0o755)
    return bundle
