"""Deterministic in-process simulator backend.

Stands in for a hardware TEE: each registered stage is a small behavior
executed in-process, and the emitted evidence is synthetic (a digest of the
stage's registered identity, stable across runs). Supports fault injection
so the harness can script prepare failures, latency, and rc overrides.

Stage table entries ({"behavior": ..., params}):

    hello   -> rc 0, stdout "hello from <eid>"; optional busy_ms
    aesgcm  -> AES-128-GCM over size_bytes of seeded pseudorandom input
               (key_hex/nonce_hex/seed configurable); stdout is the
               16-byte tag in hex — deterministic for fixed parameters
    fail    -> configured nonzero rc
    sleep   -> sleeps ms, checking for cancellation between ticks
"""

from __future__ import annotations

import hashlib
import logging
import random
import time
from dataclasses import dataclass
from typing import Optional

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from ..errors import PrepareFailed, StageNotFound
from ..fsutil import json_canonical
from .base import CANCELLED_RC, TIMEOUT_RC, AdapterBase, CancelCheck, StageEvidence, StageOutcome

logger = logging.getLogger(__name__)

DEFAULT_AESGCM_SIZE = 16 * 1024 * 1024
DEFAULT_AESGCM_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
DEFAULT_AESGCM_NONCE = bytes.fromhex("000000000000000000000001")
DEFAULT_TIMEOUT_S = 60.0

_BEHAVIORS = ("hello", "aesgcm", "fail", "sleep")
_TICK_S = 0.01


@dataclass
class FaultPolicy:
    """Harness-facing knobs, set as ``SimulatorAdapter.fault_policy``; inert
    by default."""

    fail_prepare_after: Optional[int] = None  # prepares beyond this count fail
    execute_latency: Optional[tuple[float, float]] = None  # uniform seconds
    rc_override: Optional[int] = None


@dataclass
class _StageContext:
    cid: str
    eid: str
    stage: str
    spec: dict


class SimulatorAdapter(AdapterBase):
    backend_id = "sim"
    tee_type = "sim"
    evidence_type = "sim-measurement"

    def __init__(self, stage_table, *, receipts_path=None) -> None:
        super().__init__(stage_table, receipts_path=receipts_path)
        self.fault_policy = FaultPolicy()
        self._prepare_count = 0
        self._rng = random.Random()

    def _prepare_context(self, cid: str, eid: str, stage: str) -> _StageContext:
        spec = self.stage_table.get(stage)
        if spec is None:
            raise StageNotFound(f"stage {stage!r} is not registered")
        behavior = spec.get("behavior")
        if behavior not in _BEHAVIORS:
            raise StageNotFound(f"stage {stage!r} has unknown behavior {behavior!r}")
        self._prepare_count += 1
        limit = self.fault_policy.fail_prepare_after
        if limit is not None and self._prepare_count > limit:
            raise PrepareFailed(f"injected prepare failure (#{self._prepare_count})")
        return _StageContext(cid=cid, eid=eid, stage=stage, spec=spec)

    def _measurement(self, stage: str, spec: dict) -> str:
        identity = f"{self.backend_id}:{stage}:{json_canonical(spec)}"
        return hashlib.sha256(identity.encode()).hexdigest()

    def _execute(self, handle, context: _StageContext, request, cancel_check: CancelCheck) -> StageOutcome:
        spec = context.spec
        timeout_s = float(spec.get("timeout_s", DEFAULT_TIMEOUT_S))
        started = time.monotonic()

        latency = self.fault_policy.execute_latency
        if latency is not None:
            lo, hi = latency
            rc = self._interruptible_sleep(self._rng.uniform(lo, hi), timeout_s, started, cancel_check)
            if rc is not None:
                return self._outcome(context, rc, b"")

        behavior = spec["behavior"]
        if behavior == "hello":
            busy_ms = float(spec.get("busy_ms", 0))
            if busy_ms:
                rc = self._interruptible_sleep(busy_ms / 1000.0, timeout_s, started, cancel_check)
                if rc is not None:
                    return self._outcome(context, rc, b"")
            rc, stdout = 0, f"hello from {context.eid}\n".encode()
        elif behavior == "aesgcm":
            rc, stdout = 0, self._aesgcm_tag(spec)
        elif behavior == "fail":
            rc, stdout = int(spec.get("rc", 1)), b""
        elif behavior == "sleep":
            rc = self._interruptible_sleep(float(spec.get("ms", 100)) / 1000.0, timeout_s, started, cancel_check)
            rc, stdout = (0 if rc is None else rc), b""
        else:  # unreachable: prepare rejects unknown behaviors
            raise StageNotFound(behavior)

        if self.fault_policy.rc_override is not None:
            rc = self.fault_policy.rc_override
        return self._outcome(context, rc, stdout)

    def _outcome(self, context: _StageContext, rc: int, stdout: bytes) -> StageOutcome:
        evidence = StageEvidence(
            tee_type=self.tee_type,
            evidence_type=self.evidence_type,
            measurement_hash=self._measurement(context.stage, context.spec),
            extra={"behavior": context.spec["behavior"]},
        )
        return StageOutcome(rc=rc, stdout=stdout, evidence=evidence)

    @staticmethod
    def _aesgcm_tag(spec: dict) -> bytes:
        size = int(spec.get("size_bytes", DEFAULT_AESGCM_SIZE))
        key = bytes.fromhex(spec["key_hex"]) if "key_hex" in spec else DEFAULT_AESGCM_KEY
        nonce = bytes.fromhex(spec["nonce_hex"]) if "nonce_hex" in spec else DEFAULT_AESGCM_NONCE
        seed = int(spec.get("seed", 0))
        plaintext = random.Random(seed).randbytes(size)
        sealed = AESGCM(key).encrypt(nonce, plaintext, None)
        tag = sealed[-16:]
        return tag.hex().encode() + b"\n"

    def _interruptible_sleep(
        self, duration: float, timeout_s: float, started: float, cancel_check: CancelCheck
    ) -> Optional[int]:
        """Sleep in short ticks; returns a failure rc on timeout/cancel, else None."""
        deadline = started + min(duration, timeout_s)
        while time.monotonic() < deadline:
            if cancel_check():
                return CANCELLED_RC
            time.sleep(min(_TICK_S, max(deadline - time.monotonic(), 0)))
        if duration > timeout_s:
            return TIMEOUT_RC
        return None

    def _destroy_context(self, context: _StageContext) -> None:
        pass
