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
from .base import AdapterBase, load_receipts

BACKEND_IDS = ("sim", "localexec")


def create_adapter(
    backend_id: str,
    stage_table: dict,
    *,
    rootfs: Path,
    work_root: Path,
    receipts_path: Path,
) -> AdapterBase:
    if backend_id == "sim":
        from .sim import SimulatorAdapter

        return SimulatorAdapter(stage_table, receipts_path=receipts_path)
    if backend_id == "localexec":
        from .localexec import LocalExecAdapter

        return LocalExecAdapter(
            stage_table, rootfs=rootfs, work_root=work_root, receipts_path=receipts_path
        )
    raise UsageError(f"unknown backend {backend_id!r} (known: {', '.join(BACKEND_IDS)})")


__all__ = ["AdapterBase", "create_adapter", "load_receipts", "BACKEND_IDS"]
