"""Backend adapter registry.

Adapters confine everything backend-specific behind prepare/execute/destroy.
Hardware TEE rows (SGX/TDX/OP-TEE/Keystone) are documentation targets only;
the shipped adapters are the deterministic simulator and a local-process
executor.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from ..errors import UsageError
from .base import AdapterBase, BackendHandle, StageEvidence, StageOutcome, load_receipts
from .localexec import LocalExecAdapter
from .sim import FaultPolicy, SimulatorAdapter

BACKEND_IDS = ("sim", "localexec")


def create_adapter(
    backend_id: str,
    stage_table: dict,
    *,
    rootfs: Optional[Path] = None,
    work_root: Optional[Path] = None,
    receipts_path: Optional[Path] = None,
) -> AdapterBase:
    if backend_id == "sim":
        return SimulatorAdapter(stage_table, receipts_path=receipts_path)
    if backend_id == "localexec":
        if rootfs is None or work_root is None:
            raise UsageError("localexec requires a rootfs and a work root")
        return LocalExecAdapter(
            stage_table, rootfs=rootfs, work_root=work_root, receipts_path=receipts_path
        )
    raise UsageError(f"unknown backend {backend_id!r} (known: {', '.join(BACKEND_IDS)})")


__all__ = [
    "AdapterBase",
    "BackendHandle",
    "StageEvidence",
    "StageOutcome",
    "FaultPolicy",
    "SimulatorAdapter",
    "LocalExecAdapter",
    "create_adapter",
    "load_receipts",
    "BACKEND_IDS",
]
