"""Backend adapter registry.

Adapters confine everything backend-specific behind prepare/execute/destroy.
Hardware TEE rows (SGX/TDX/OP-TEE/Keystone) are documentation targets only;
the shipped adapters are the deterministic simulator and a local-process
executor. create_adapter imports only the adapter it builds, so nothing
that merely names this package loads the simulator's cryptography.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import UsageError
from ..statedir import load_receipts  # the receipts' reader, for audits and the benchmark
from .base import AdapterBase, Started

BACKEND_IDS = ("sim", "localexec")


def create_adapter(
    backend_id: str,
    stage_table: dict,
    *,
    rootfs: Path,
    work_root: Path,
    started: Started,
) -> AdapterBase:
    if backend_id == "sim":
        from .sim import SimulatorAdapter

        return SimulatorAdapter(stage_table, started=started)
    if backend_id == "localexec":
        from .localexec import LocalExecAdapter

        return LocalExecAdapter(stage_table, rootfs=rootfs, work_root=work_root, started=started)
    raise UsageError(f"unknown backend {backend_id!r} (known: {', '.join(BACKEND_IDS)})")


__all__ = ["AdapterBase", "create_adapter", "load_receipts", "BACKEND_IDS"]
