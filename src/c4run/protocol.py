"""Authenticated stage request/response messages and the Accept predicate.

The host mediates every stage invocation, so a message is trusted only if
it is instance-bound, authenticated, fresh, and order-consistent. This
module owns message construction, the canonical byte encoding the MACs are
computed over, and validation; it does no I/O and holds no locks. Session
mutation (sequence advance, seen-set inserts) must be serialized externally
per instance — the serve engine holds the session lock around
validate-then-commit.

Canonical encoding: a 4-byte message tag, then each field in fixed order,
byte strings length-prefixed with a big-endian u32, integers fixed-width
big-endian. The encoding is injective, so two structurally different
messages never share MAC input. Request and response tags are computed
under distinct keys derived from the session secret with the labels
"c4req" / "c4resp", so a request tag can never verify as a response tag.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import os
import re
import secrets
import struct
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

from .errors import ContractViolation

SCHEMA_VERSION = 1

REQUEST_KEY_LABEL = b"c4req"
RESPONSE_KEY_LABEL = b"c4resp"
_REQ_TAG = b"REQ1"
_RESP_TAG = b"RSP1"

NONCE_LEN = 16
MAC_LEN = 32
SK_LEN = 32

RESPONSES_DIRNAME = "responses"


class ResponseStatus(str, Enum):
    COMPLETED = "completed"
    FAILED = "failed"
    REJECTED = "rejected"


class RejectReason(str, Enum):
    BIND_CID_MISMATCH = "bind_cid_mismatch"
    BIND_EPOCH_MISMATCH = "bind_epoch_mismatch"
    BIND_REQUEST_ID_MISMATCH = "bind_request_id_mismatch"
    BIND_BAD_RESPONSE_PATH = "bind_bad_response_path"
    AUTH_MAC_INVALID = "auth_mac_invalid"
    FRESH_REPLAYED_ID = "fresh_replayed_id"
    FRESH_REPLAYED_NONCE = "fresh_replayed_nonce"
    ORDER_STALE_SEQ = "order_stale_seq"


@dataclass
class SessionState:
    """Per-instance session parameters plus replay bookkeeping.

    ``next_seq`` is the builder's counter: the next sequence number the
    anchor will emit. The *acceptance watermark*, strictly greater than the
    last accepted sequence number, moves only when an acceptance is applied
    (:func:`commit_acceptance`), so building a request never affects what
    the validator will accept.

    The epoch advances by exactly one on each anchor (re)start; the seen
    sets, the builder counter, and the watermark all reset with it.

    On disk the parameters (cid, epoch, key, builder counter) are
    session.json and the seen sets are the epoch's lines of the acceptance
    journal, accepts.log; the state directory folds the two together. The
    seen sets are therefore never constructor arguments: they start empty
    with the watermark at 0.
    """

    cid: str
    epoch: int
    sk: bytes
    next_seq: int = 0
    seen_request_ids: set[str] = field(default_factory=set, init=False)
    seen_nonces: set[bytes] = field(default_factory=set, init=False)

    def __post_init__(self) -> None:
        if len(self.sk) != SK_LEN:
            raise ContractViolation(f"session key must be {SK_LEN} bytes")
        self._watermark = 0

    @property
    def next_expected_accept_seq(self) -> int:
        return self._watermark

    def note_accept(self, seq: int) -> None:
        self._watermark = max(self._watermark, seq + 1)

    def advance_epoch(self) -> None:
        self.epoch += 1
        self.next_seq = 0
        self.seen_request_ids.clear()
        self.seen_nonces.clear()
        self._watermark = 0

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "cid": self.cid,
            "epoch": self.epoch,
            "sk_hex": self.sk.hex(),
            "next_seq": self.next_seq,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SessionState":
        return cls(
            cid=obj["cid"],
            epoch=int(obj["epoch"]),
            sk=bytes.fromhex(obj["sk_hex"]),
            next_seq=int(obj["next_seq"]),
        )


@dataclass(frozen=True)
class StageRequest:
    stage: str
    cid: str
    epoch: int
    seq: int
    request_id: str
    nonce: bytes
    response_path: str
    payload: bytes
    mac: bytes


@dataclass(frozen=True)
class StageResponse:
    request_id: str
    eid: Optional[str]
    rc: int
    status: ResponseStatus
    output: bytes
    reject_reason: Optional[RejectReason]
    mac: bytes


# ---------------------------------------------------------------------------
# Canonical bytes and MACs
# ---------------------------------------------------------------------------


def _enc_bytes(b: bytes) -> bytes:
    return struct.pack(">I", len(b)) + b


def _enc_str(s: str) -> bytes:
    return _enc_bytes(s.encode("utf-8"))


def _enc_u64(n: int) -> bytes:
    return struct.pack(">Q", n)


def _enc_i64(n: int) -> bytes:
    return struct.pack(">q", n)


def _enc_opt_str(s: Optional[str]) -> bytes:
    if s is None:
        return b"\x00"
    return b"\x01" + _enc_str(s)


def request_canonical_bytes(req: StageRequest) -> bytes:
    """MAC input for a request: every field except the tag itself."""
    return b"".join(
        (
            _REQ_TAG,
            _enc_str(req.stage),
            _enc_str(req.cid),
            _enc_u64(req.epoch),
            _enc_u64(req.seq),
            _enc_str(req.request_id),
            _enc_bytes(req.nonce),
            _enc_str(req.response_path),
            _enc_bytes(req.payload),
        )
    )


def response_canonical_bytes(resp: StageResponse) -> bytes:
    """MAC input for a response: every field except the tag itself."""
    return b"".join(
        (
            _RESP_TAG,
            _enc_str(resp.request_id),
            _enc_opt_str(resp.eid),
            _enc_i64(resp.rc),
            _enc_str(resp.status.value),
            _enc_opt_str(resp.reject_reason.value if resp.reject_reason else None),
            _enc_bytes(resp.output),
        )
    )


def derive_mac_key(sk: bytes, label: bytes) -> bytes:
    return hmac.new(sk, label, hashlib.sha256).digest()


def request_mac(sk: bytes, req: StageRequest) -> bytes:
    key = derive_mac_key(sk, REQUEST_KEY_LABEL)
    return hmac.new(key, request_canonical_bytes(req), hashlib.sha256).digest()


def response_mac(sk: bytes, resp: StageResponse) -> bytes:
    key = derive_mac_key(sk, RESPONSE_KEY_LABEL)
    return hmac.new(key, response_canonical_bytes(resp), hashlib.sha256).digest()


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def make_request_id(epoch: int, seq: int) -> str:
    return f"{epoch}-{seq}-{secrets.token_hex(4)}"


def response_relpath(request_id: str) -> str:
    return f"{RESPONSES_DIRNAME}/{request_id}.resp"


def build_request(session: SessionState, stage: str, payload: bytes) -> StageRequest:
    """Build the next authenticated request and advance the session counter."""
    seq = session.next_seq
    request_id = make_request_id(session.epoch, seq)
    unsigned = StageRequest(
        stage=stage,
        cid=session.cid,
        epoch=session.epoch,
        seq=seq,
        request_id=request_id,
        nonce=secrets.token_bytes(NONCE_LEN),
        response_path=response_relpath(request_id),
        payload=payload,
        mac=b"",
    )
    req = replace(unsigned, mac=request_mac(session.sk, unsigned))
    session.next_seq = seq + 1
    return req


def build_response(
    session: SessionState,
    request_id: str,
    *,
    rc: int,
    status: ResponseStatus,
    eid: Optional[str] = None,
    output: bytes = b"",
    reject_reason: Optional[RejectReason] = None,
) -> StageResponse:
    if status is ResponseStatus.REJECTED and eid is not None:
        raise ContractViolation("a rejected request never reaches protected execution")
    unsigned = StageResponse(
        request_id=request_id,
        eid=eid,
        rc=rc,
        status=status,
        output=output,
        reject_reason=reject_reason,
        mac=b"",
    )
    return replace(unsigned, mac=response_mac(session.sk, unsigned))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _response_path_ok(response_path: str) -> bool:
    """The declared response location must normalize to a file directly
    inside the instance's responses directory; anything else is a path
    escape attempt."""
    if not response_path or "\x00" in response_path:
        return False
    if os.path.isabs(response_path):
        return False
    parts = os.path.normpath(response_path).split(os.sep)
    return len(parts) == 2 and parts[0] == RESPONSES_DIRNAME and parts[1] not in ("", ".", "..")


def validate_request(
    req: StageRequest,
    session: SessionState,
    expected_cid: str,
) -> Optional[RejectReason]:
    """The Accept predicate: bind, then auth, then fresh, then ordered.

    Returns None on acceptance, or the first failing check. Checks run in a
    fixed order so reject reasons are deterministic. Acceptance does NOT
    update the session. While holding the session lock, callers commit by
    appending the request's line to the acceptance journal and, once that
    is durable, apply it with :func:`commit_acceptance`.
    """
    if req.cid != expected_cid or req.cid != session.cid:
        return RejectReason.BIND_CID_MISMATCH
    if req.epoch != session.epoch:
        return RejectReason.BIND_EPOCH_MISMATCH
    # The id also names the request's files and its accepts.log line, and a
    # whitespace character in it would make that line unreadable.
    if not req.request_id.startswith(f"{req.epoch}-{req.seq}-") or any(c.isspace() for c in req.request_id):
        return RejectReason.BIND_REQUEST_ID_MISMATCH
    if not _response_path_ok(req.response_path):
        return RejectReason.BIND_BAD_RESPONSE_PATH
    if len(req.mac) != MAC_LEN or not hmac.compare_digest(req.mac, request_mac(session.sk, req)):
        return RejectReason.AUTH_MAC_INVALID
    if req.request_id in session.seen_request_ids:
        return RejectReason.FRESH_REPLAYED_ID
    if req.nonce in session.seen_nonces:
        return RejectReason.FRESH_REPLAYED_NONCE
    if req.seq < session.next_expected_accept_seq:
        return RejectReason.ORDER_STALE_SEQ
    return None


def commit_acceptance(session: SessionState, req: StageRequest) -> None:
    """Record an accepted request: grow the seen sets, advance the watermark.

    Only ``request_id``, ``nonce`` and ``seq`` are read, so a journal line
    (``statedir.Acceptance``) applies the same way. The builder counter
    advances too, so a builder loading the session mid-epoch continues
    above everything already accepted.
    """
    session.seen_request_ids.add(req.request_id)
    session.seen_nonces.add(req.nonce)
    session.note_accept(req.seq)
    session.next_seq = max(session.next_seq, req.seq + 1)


def verify_response(resp: StageResponse, session: SessionState, outstanding: set[str]) -> bool:
    """Anchor-side check: authenticated and answering a request we sent."""
    if resp.request_id not in outstanding:
        return False
    if len(resp.mac) != MAC_LEN:
        return False
    return hmac.compare_digest(resp.mac, response_mac(session.sk, resp))


# ---------------------------------------------------------------------------
# File envelopes (the on-disk spool format)
# ---------------------------------------------------------------------------

_REQ_KEYS = {
    "schema_version",
    "stage",
    "cid",
    "epoch",
    "seq",
    "request_id",
    "nonce_hex",
    "response_path",
    "payload_b64",
    "mac_hex",
}
_RESP_KEYS = {
    "schema_version",
    "request_id",
    "eid",
    "rc",
    "status",
    "output_b64",
    "reject_reason",
    "mac_hex",
}


_SURROGATE = re.compile("[\ud800-\udfff]")


def _is_utf8(value) -> bool:
    """A str the canonical encoding can carry: no lone surrogate."""
    return isinstance(value, str) and not _SURROGATE.search(value)


def _is_int_in(value, lo: int, hi: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and lo <= value <= hi


def request_to_envelope(req: StageRequest) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "stage": req.stage,
        "cid": req.cid,
        "epoch": req.epoch,
        "seq": req.seq,
        "request_id": req.request_id,
        "nonce_hex": req.nonce.hex(),
        "response_path": req.response_path,
        "payload_b64": base64.b64encode(req.payload).decode("ascii"),
        "mac_hex": req.mac.hex(),
    }


def request_from_envelope(obj: dict) -> StageRequest:
    if not isinstance(obj, dict) or set(obj) != _REQ_KEYS or obj["schema_version"] != SCHEMA_VERSION:
        raise ValueError("malformed request envelope")
    if not all(_is_utf8(obj[k]) for k in ("stage", "cid", "request_id", "nonce_hex", "response_path", "payload_b64", "mac_hex")):
        raise ValueError("malformed request envelope")
    if not all(_is_int_in(obj[k], 0, 2**64 - 1) for k in ("epoch", "seq")):
        raise ValueError("malformed request envelope")
    return StageRequest(
        stage=obj["stage"],
        cid=obj["cid"],
        epoch=obj["epoch"],
        seq=obj["seq"],
        request_id=obj["request_id"],
        nonce=bytes.fromhex(obj["nonce_hex"]),
        response_path=obj["response_path"],
        payload=base64.b64decode(obj["payload_b64"], validate=True),
        mac=bytes.fromhex(obj["mac_hex"]),
    )


def response_to_envelope(resp: StageResponse) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "request_id": resp.request_id,
        "eid": resp.eid,
        "rc": resp.rc,
        "status": resp.status.value,
        "output_b64": base64.b64encode(resp.output).decode("ascii"),
        "reject_reason": resp.reject_reason.value if resp.reject_reason else None,
        "mac_hex": resp.mac.hex(),
    }


def response_from_envelope(obj: dict) -> StageResponse:
    if not isinstance(obj, dict) or set(obj) != _RESP_KEYS or obj["schema_version"] != SCHEMA_VERSION:
        raise ValueError("malformed response envelope")
    if (
        not all(_is_utf8(obj[k]) for k in ("request_id", "status", "output_b64", "mac_hex"))
        or not all(obj[k] is None or _is_utf8(obj[k]) for k in ("eid", "reject_reason"))
        or not _is_int_in(obj["rc"], -(2**63), 2**63 - 1)
    ):
        raise ValueError("malformed response envelope")
    return StageResponse(
        request_id=obj["request_id"],
        eid=obj["eid"],
        rc=obj["rc"],
        status=ResponseStatus(obj["status"]),
        output=base64.b64decode(obj["output_b64"], validate=True),
        reject_reason=None if obj["reject_reason"] is None else RejectReason(obj["reject_reason"]),
        mac=bytes.fromhex(obj["mac_hex"]),
    )
