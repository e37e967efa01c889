"""Deterministic in-process simulator backend.

Stands in for a hardware TEE: each registered stage is a small behavior
executed in-process, and the emitted evidence is synthetic (a digest of the
stage's registered identity, stable across runs).

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
import random
import time
from typing import Optional

from ..errors import CANCELLED_RC, TIMEOUT_RC, StageNotFound
from ..fsutil import json_canonical
from .base import AdapterBase, BackendHandle, CancelCheck, StageEvidence, StageOutcome

DEFAULT_AESGCM_SIZE = 16 * 1024 * 1024
DEFAULT_AESGCM_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
DEFAULT_AESGCM_NONCE = bytes.fromhex("000000000000000000000001")
DEFAULT_TIMEOUT_S = 60.0

_BEHAVIORS = ("hello", "aesgcm", "fail", "sleep")
_TICK_S = 0.01


class SimulatorAdapter(AdapterBase):
    backend_id = "sim"
    tee_type = "sim"
    evidence_type = "sim-measurement"

    def _prepare_context(self, cid: str, eid: str, stage: str) -> dict:
        """The stage's table entry: all that executing it needs."""
        spec = self.stage_table.get(stage)
        if spec is None:
            raise StageNotFound(f"stage {stage!r} is not registered")
        behavior = spec.get("behavior")
        if behavior not in _BEHAVIORS:
            raise StageNotFound(f"stage {stage!r} has unknown behavior {behavior!r}")
        return spec

    def _measurement(self, stage: str, spec: dict) -> str:
        identity = f"{self.backend_id}:{stage}:{json_canonical(spec)}"
        return hashlib.sha256(identity.encode()).hexdigest()

    def _execute(self, handle: BackendHandle, spec: dict, request, cancel_check: CancelCheck) -> StageOutcome:
        timeout_s = float(spec.get("timeout_s", DEFAULT_TIMEOUT_S))
        started = time.monotonic()

        behavior = spec["behavior"]
        if behavior == "hello":
            busy_ms = float(spec.get("busy_ms", 0))
            if busy_ms:
                rc = self._interruptible_sleep(busy_ms / 1000.0, timeout_s, started, cancel_check)
                if rc is not None:
                    return self._outcome(handle, spec, rc, b"")
            rc, stdout = 0, f"hello from {handle.eid}\n".encode()
        elif behavior == "aesgcm":
            rc, stdout = 0, self._aesgcm_tag(spec)
        elif behavior == "fail":
            rc, stdout = int(spec.get("rc", 1)), b""
        elif behavior == "sleep":
            rc = self._interruptible_sleep(float(spec.get("ms", 100)) / 1000.0, timeout_s, started, cancel_check)
            rc, stdout = (0 if rc is None else rc), b""
        else:  # unreachable: prepare rejects unknown behaviors
            raise StageNotFound(behavior)
        return self._outcome(handle, spec, rc, stdout)

    def _outcome(self, handle: BackendHandle, spec: dict, rc: int, stdout: bytes) -> StageOutcome:
        evidence = StageEvidence(
            tee_type=self.tee_type,
            evidence_type=self.evidence_type,
            measurement_hash=self._measurement(handle.stage, spec),
            extra={"behavior": spec["behavior"]},
        )
        return StageOutcome(rc=rc, stdout=stdout, evidence=evidence)

    @staticmethod
    def _aesgcm_tag(spec: dict) -> bytes:
        # Imported here: only this behaviour needs the cipher, and every
        # sim serve would otherwise load it at start-up.
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM

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

    def _destroy_context(self, context: dict) -> None:
        pass
