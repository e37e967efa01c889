"""Independent oracles used to compute expected values before asserting.

Everything here is deliberately written without importing the code paths it
checks: the dominance oracle enumerates the ordering table explicitly, the
message encoder is straight-line struct packing, the AES-GCM oracle is a
from-scratch implementation, and the entrypoint model is a tiny in-memory
state machine.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
import struct

# ---------------------------------------------------------------------------
# Termination dominance oracle (brute-force table enumeration)
# ---------------------------------------------------------------------------

_RANK_TABLE: dict[tuple[str, str], int] = {}
for _src in "RTP":
    _RANK_TABLE[(_src, "untrusted")] = 4
    _RANK_TABLE[(_src, "killed")] = 1
    _RANK_TABLE[(_src, "normal")] = 0
_RANK_TABLE[("P", "policy")] = 4
_RANK_TABLE[("T", "error")] = 3
_RANK_TABLE[("R", "error")] = 2
_RANK_TABLE[("P", "error")] = 2

_SRC_ORDER = {"P": 0, "T": 1, "R": 2}
_REASON_ORDER = {"untrusted": 0, "policy": 1, "error": 2, "killed": 3, "normal": 4}

LEGAL_CLASSES = sorted(_RANK_TABLE)


def oracle_dominates(a: tuple, b: tuple) -> bool:
    """True when event a (src, code, reason, observed_at) beats event b."""
    ra, rb = _RANK_TABLE[(a[0], a[2])], _RANK_TABLE[(b[0], b[2])]
    if ra != rb:
        return ra > rb
    if a[3] != b[3]:
        return a[3] < b[3]
    if a[0] != b[0]:
        return _SRC_ORDER[a[0]] < _SRC_ORDER[b[0]]
    if a[2] != b[2]:
        return _REASON_ORDER[a[2]] < _REASON_ORDER[b[2]]
    return a[1] < b[1]


def oracle_reduce(events: list[tuple], c_untrusted: int = 252) -> tuple[int, tuple]:
    """Pick the dominant event by exhaustive pairwise comparison."""
    assert events
    best = events[0]
    for candidate in events[1:]:
        if oracle_dominates(candidate, best):
            best = candidate
    src, code, reason, _ = best
    if reason == "untrusted" or (src == "P" and reason == "policy"):
        exit_code = c_untrusted
    elif reason == "error":
        exit_code = code
    else:
        exit_code = 0
    return exit_code, best


# ---------------------------------------------------------------------------
# Canonical message encoding + MAC oracle (straight-line reference)
# ---------------------------------------------------------------------------


def oracle_request_bytes(
    stage: str,
    cid: str,
    epoch: int,
    seq: int,
    request_id: str,
    nonce: bytes,
    response_path: str,
    payload: bytes,
) -> bytes:
    out = b"REQ1"
    for s in (stage, cid):
        b = s.encode()
        out += struct.pack(">I", len(b)) + b
    out += struct.pack(">Q", epoch)
    out += struct.pack(">Q", seq)
    rid = request_id.encode()
    out += struct.pack(">I", len(rid)) + rid
    out += struct.pack(">I", len(nonce)) + nonce
    rp = response_path.encode()
    out += struct.pack(">I", len(rp)) + rp
    out += struct.pack(">I", len(payload)) + payload
    return out


def oracle_response_bytes(
    request_id: str,
    eid,
    rc: int,
    status: str,
    reject_reason,
    output: bytes,
) -> bytes:
    out = b"RSP1"
    rid = request_id.encode()
    out += struct.pack(">I", len(rid)) + rid
    if eid is None:
        out += b"\x00"
    else:
        e = eid.encode()
        out += b"\x01" + struct.pack(">I", len(e)) + e
    out += struct.pack(">q", rc)
    s = status.encode()
    out += struct.pack(">I", len(s)) + s
    if reject_reason is None:
        out += b"\x00"
    else:
        r = reject_reason.encode()
        out += b"\x01" + struct.pack(">I", len(r)) + r
    out += struct.pack(">I", len(output)) + output
    return out


def oracle_mac(sk: bytes, label: bytes, message: bytes) -> bytes:
    key = hmac_mod.new(sk, label, hashlib.sha256).digest()
    return hmac_mod.new(key, message, hashlib.sha256).digest()


# ---------------------------------------------------------------------------
# AES-128-GCM oracle (from scratch; encrypt + tag only)
# ---------------------------------------------------------------------------

_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B, 0xFE, 0xD7, 0xAB, 0x76,
    0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0, 0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0,
    0xB7, 0xFD, 0x93, 0x26, 0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2, 0xEB, 0x27, 0xB2, 0x75,
    0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0, 0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84,
    0x53, 0xD1, 0x00, 0xED, 0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F, 0x50, 0x3C, 0x9F, 0xA8,
    0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5, 0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2,
    0xCD, 0x0C, 0x13, 0xEC, 0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14, 0xDE, 0x5E, 0x0B, 0xDB,
    0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C, 0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79,
    0xE7, 0xC8, 0x37, 0x6D, 0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F, 0x4B, 0xBD, 0x8B, 0x8A,
    0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E, 0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E,
    0xE1, 0xF8, 0x98, 0x11, 0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F, 0xB0, 0x54, 0xBB, 0x16,
]

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a = (a ^ 0x1B) & 0xFF
    return a


def _expand_key(key: bytes) -> list[list[int]]:
    words = [list(key[i : i + 4]) for i in range(0, 16, 4)]
    for i in range(4, 44):
        temp = list(words[i - 1])
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]
            temp = [_SBOX[b] for b in temp]
            temp[0] ^= _RCON[i // 4 - 1]
        words.append([words[i - 4][j] ^ temp[j] for j in range(4)])
    return [sum(words[r * 4 : r * 4 + 4], []) for r in range(11)]


def _aes128_encrypt_block(round_keys: list[list[int]], block: bytes) -> bytes:
    # Flat state with index r + 4c (input bytes fill columns first, as usual).
    state = list(block)

    def add_round_key(s, rk):
        return [s[i] ^ rk[i] for i in range(16)]

    def sub_bytes(s):
        return [_SBOX[b] for b in s]

    def shift_rows(s):
        out = list(s)
        for r in range(1, 4):
            row = [s[r + 4 * c] for c in range(4)]
            row = row[r:] + row[:r]
            for c in range(4):
                out[r + 4 * c] = row[c]
        return out

    def mix_columns(s):
        out = []
        for c in range(4):
            col = s[4 * c : 4 * c + 4]
            out.extend(
                [
                    _xtime(col[0]) ^ _xtime(col[1]) ^ col[1] ^ col[2] ^ col[3],
                    col[0] ^ _xtime(col[1]) ^ _xtime(col[2]) ^ col[2] ^ col[3],
                    col[0] ^ col[1] ^ _xtime(col[2]) ^ _xtime(col[3]) ^ col[3],
                    _xtime(col[0]) ^ col[0] ^ col[1] ^ col[2] ^ _xtime(col[3]),
                ]
            )
        return out

    state = add_round_key(state, round_keys[0])
    for rnd in range(1, 10):
        state = add_round_key(mix_columns(shift_rows(sub_bytes(state))), round_keys[rnd])
    state = add_round_key(shift_rows(sub_bytes(state)), round_keys[10])
    return bytes(state)


_R_POLY = 0xE1 << 120


def _gf_mult(x: int, y: int) -> int:
    z = 0
    v = x
    for i in range(128):
        if (y >> (127 - i)) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R_POLY
        else:
            v >>= 1
    return z


def _ghash(h: int, data: bytes) -> int:
    y = 0
    for i in range(0, len(data), 16):
        block = int.from_bytes(data[i : i + 16], "big")
        y = _gf_mult(y ^ block, h)
    return y


def _pad16(b: bytes) -> bytes:
    rem = len(b) % 16
    return b if rem == 0 else b + bytes(16 - rem)


def aes128_gcm_encrypt(key: bytes, iv: bytes, plaintext: bytes, aad: bytes = b"") -> tuple[bytes, bytes]:
    """Returns (ciphertext, 16-byte tag); iv must be 96 bits."""
    assert len(key) == 16 and len(iv) == 12
    rk = _expand_key(key)
    h = int.from_bytes(_aes128_encrypt_block(rk, bytes(16)), "big")
    j0 = iv + b"\x00\x00\x00\x01"

    ciphertext = bytearray()
    counter = int.from_bytes(j0[12:], "big")
    for i in range(0, len(plaintext), 16):
        counter = (counter + 1) & 0xFFFFFFFF
        keystream = _aes128_encrypt_block(rk, iv + counter.to_bytes(4, "big"))
        chunk = plaintext[i : i + 16]
        ciphertext.extend(x ^ y for x, y in zip(chunk, keystream))

    lengths = struct.pack(">QQ", len(aad) * 8, len(ciphertext) * 8)
    s = _ghash(h, _pad16(aad) + _pad16(bytes(ciphertext)) + lengths)
    tag = bytes(
        a ^ b for a, b in zip(_aes128_encrypt_block(rk, j0), s.to_bytes(16, "big"))
    )
    return bytes(ciphertext), tag


# ---------------------------------------------------------------------------
# Entrypoint rules reference model
# ---------------------------------------------------------------------------


class EntrypointModel:
    """In-memory model of the multi-call entrypoint rules.

    Tracks the lifecycle state, anchor liveness, and whether the record was
    replaced, and predicts the exit-code class for each entrypoint from its
    documented preconditions. The modeled anchor only dies when killed, so
    predictions are deterministic.
    """

    def __init__(self) -> None:
        self.state = "init"
        self.anchor_alive = False

    def predict(self, op: str) -> tuple[int, str]:
        """Returns (expected exit code, state after the call)."""
        s = self.state
        if op == "create":
            return 0, ("prepared" if s == "init" else s)
        if op == "start":
            if s == "init":
                return 2, s
            if s == "prepared":
                return 0, "running"
            if s == "running":
                return 0, s
            return 3, s
        if op == "state":
            return (2, s) if s == "init" else (0, s)
        if op == "wait0":  # wait with a zero timeout
            if s == "init":
                return 2, s
            if s in ("stopped", "failed"):
                return 0, s
            if s == "running" and not self.anchor_alive:
                return 0, "stopped"
            return 4, s
        if op == "kill":
            if s == "init":
                return 2, s
            if s in ("stopped", "failed"):
                return 0, s
            return 0, "stopped"
        if op == "delete":
            if s in ("init", "stopped", "failed"):
                return 0, "init"
            return 3, s
        if op == "delete_force":
            return 0, "init"
        raise ValueError(op)

    def apply(self, op: str) -> int:
        code, nxt = self.predict(op)
        if op == "start" and self.state == "prepared":
            self.anchor_alive = True
        if op == "kill" and self.state in ("prepared", "running"):
            self.anchor_alive = False
        if op == "delete_force":
            self.anchor_alive = False
        self.state = nxt
        return code


# ---------------------------------------------------------------------------
# Artifact lookups
# ---------------------------------------------------------------------------


def find_stage_record(sd, request_id: str):
    """The recorded stage (meta.json) that answers request_id, or None."""
    return next((rec for rec in sd.stage_records() if rec.request_id == request_id), None)
