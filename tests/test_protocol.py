import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from c4run.errors import ContractViolation
from c4run.protocol import (
    RejectReason,
    ResponseStatus,
    SessionState,
    StageRequest,
    StageResponse,
    build_request,
    build_response,
    commit_acceptance,
    derive_mac_key,
    request_canonical_bytes,
    request_from_envelope,
    request_mac,
    request_to_envelope,
    response_canonical_bytes,
    response_from_envelope,
    response_mac,
    response_to_envelope,
    validate_request,
    verify_response,
)
from c4run.statedir import StateDir
from oracles import oracle_mac, oracle_request_bytes, oracle_response_bytes

SK = bytes(range(32))

# Golden vectors: generated once by the independent reference encoder in
# oracles.py and frozen here.
REQ_CANONICAL_HEX = (
    "524551310000000568656c6c6f0000000963342d676f6c64656e00000000000000010000000000000000"
    "0000000c312d302d646561646265656600000010000102030405060708090a0b0c0d0e0f0000001b7265"
    "73706f6e7365732f312d302d64656164626565662e726573700000000470696e67"
)
REQ_MAC_HEX = "f1c06325dbc4b283831d44aa69b17d4746862fd56bcb833591ad983bbd46dd72"
RESP_CANONICAL_HEX = (
    "525350310000000c312d302d646561646265656601000000086569642d3030303100000000000000000"
    "0000009636f6d706c65746564000000001468656c6c6f2066726f6d206569642d303030310a"
)
RESP_MAC_HEX = "b198647ae3a53f187f09578467940b365bc5374211757f73062f6a2a03688772"
REJ_CANONICAL_HEX = (
    "525350310000000c312d302d64656164626565660000000000000000010000000872656a656374656401"
    "0000000f6f726465725f7374616c655f73657100000000"
)


def golden_request(mac: bytes = b"") -> StageRequest:
    return StageRequest(
        stage="hello",
        cid="c4-golden",
        epoch=1,
        seq=0,
        request_id="1-0-deadbeef",
        nonce=bytes(range(16)),
        response_path="responses/1-0-deadbeef.resp",
        payload=b"ping",
        mac=mac,
    )


def golden_response() -> StageResponse:
    return StageResponse(
        request_id="1-0-deadbeef",
        eid="eid-0001",
        rc=0,
        status=ResponseStatus.COMPLETED,
        output=b"hello from eid-0001\n",
        reject_reason=None,
        mac=b"",
    )


def fresh_session(cid="c4-golden", epoch=1) -> SessionState:
    return SessionState(cid=cid, epoch=epoch, sk=SK)


def test_request_golden_vector():
    req = golden_request()
    canonical = request_canonical_bytes(req)
    assert canonical == bytes.fromhex(REQ_CANONICAL_HEX)
    assert canonical == oracle_request_bytes(
        "hello", "c4-golden", 1, 0, "1-0-deadbeef", bytes(range(16)),
        "responses/1-0-deadbeef.resp", b"ping",
    )
    mac = request_mac(SK, req)
    assert mac == bytes.fromhex(REQ_MAC_HEX)
    assert mac == oracle_mac(SK, b"c4req", canonical)


def test_response_golden_vector():
    resp = golden_response()
    canonical = response_canonical_bytes(resp)
    assert canonical == bytes.fromhex(RESP_CANONICAL_HEX)
    assert response_mac(SK, resp) == bytes.fromhex(RESP_MAC_HEX)
    rejected = StageResponse(
        request_id="1-0-deadbeef",
        eid=None,
        rc=1,
        status=ResponseStatus.REJECTED,
        output=b"",
        reject_reason=RejectReason.ORDER_STALE_SEQ,
        mac=b"",
    )
    assert response_canonical_bytes(rejected) == bytes.fromhex(REJ_CANONICAL_HEX)
    assert response_canonical_bytes(rejected) == oracle_response_bytes(
        "1-0-deadbeef", None, 1, "rejected", "order_stale_seq", b""
    )


def test_canonical_bytes_deterministic_and_injective():
    req = golden_request()
    assert request_canonical_bytes(req) == request_canonical_bytes(req)
    swapped = dataclasses.replace(req, stage=req.request_id, request_id=req.stage)
    assert request_canonical_bytes(swapped) != request_canonical_bytes(req)
    # eid absent vs empty-string reject reason must stay distinguishable
    a = StageResponse("r", None, 0, ResponseStatus.FAILED, b"", None, b"")
    b = StageResponse("r", "", 0, ResponseStatus.FAILED, b"", None, b"")
    assert response_canonical_bytes(a) != response_canonical_bytes(b)


def test_mac_key_separation():
    assert derive_mac_key(SK, b"c4req") != derive_mac_key(SK, b"c4resp")
    req = golden_request()
    resp = StageResponse("1-0-deadbeef", None, 0, ResponseStatus.COMPLETED, b"", None, b"")
    assert request_mac(SK, req) != response_mac(SK, resp)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def test_build_request_counters_and_ids():
    session = fresh_session()
    first = build_request(session, "hello", b"a")
    second = build_request(session, "hello", b"b")
    assert first.seq == 0 and second.seq == 1
    assert first.request_id.startswith("1-0-")
    assert second.request_id.startswith("1-1-")
    assert first.nonce != second.nonce
    assert first.request_id != second.request_id
    assert session.next_seq == 2
    assert first.mac == oracle_mac(SK, b"c4req", request_canonical_bytes(first))


def test_build_rejected_response_forbids_eid():
    session = fresh_session()
    with pytest.raises(ContractViolation):
        build_response(
            session, "rid", rc=1, status=ResponseStatus.REJECTED, eid="eid-0001"
        )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_round_trip_accept_then_replay_rejected():
    session = fresh_session()
    req = build_request(session, "hello", b"p")
    assert validate_request(req, session, "c4-golden") is None
    commit_acceptance(session, req)
    assert validate_request(req, session, "c4-golden") is RejectReason.FRESH_REPLAYED_ID


def test_cross_instance_misroute_rejected():
    session_a = fresh_session(cid="c1")
    session_b = fresh_session(cid="c2")
    req = build_request(session_b, "hello", b"p")
    assert validate_request(req, session_a, "c1") is RejectReason.BIND_CID_MISMATCH


def test_epoch_isolation():
    session = fresh_session()
    req = build_request(session, "hello", b"p")
    session.advance_epoch()
    assert validate_request(req, session, "c4-golden") is RejectReason.BIND_EPOCH_MISMATCH


def _journalled_instance(root, bundle) -> StateDir:
    sd = StateDir(root, "c4-journal")
    sd.init(bundle, "seed")
    return sd


def _journal(sd: StateDir, req: StageRequest) -> None:
    sd.append_accept(sd.read_accepts()[1], req)


def test_request_id_is_bound_to_its_epoch_and_seq(root, sim_bundle):
    # The watermark is rebuilt from the journalled ids on every reload: a
    # seq-5 request accepted under id <epoch>-0-... would pull it back to 1
    # and let a second seq-5 request through, both naming one stage.
    sd = _journalled_instance(root, sim_bundle)
    session = sd.load_session()
    session.next_seq = 5
    honest = build_request(session, "hello", b"p")
    rid = f"{honest.epoch}-0-aaaa"
    forged = dataclasses.replace(honest, request_id=rid, response_path=f"responses/{rid}.resp", mac=b"")
    forged = dataclasses.replace(forged, mac=request_mac(session.sk, forged))
    assert validate_request(forged, session, sd.cid) is RejectReason.BIND_REQUEST_ID_MISMATCH
    reloaded = sd.load_session()
    assert validate_request(honest, reloaded, sd.cid) is None
    _journal(sd, honest)
    again = sd.load_session()
    assert again.next_expected_accept_seq == 6
    rid = f"{honest.epoch}-5-bbbb"
    second = dataclasses.replace(
        honest, request_id=rid, response_path=f"responses/{rid}.resp", nonce=bytes(16), mac=b""
    )
    second = dataclasses.replace(second, mac=request_mac(again.sk, second))
    assert validate_request(second, again, sd.cid) is RejectReason.ORDER_STALE_SEQ


@pytest.mark.parametrize("suffix", ["a b", "a\nb", "ab\t", "a\u2028b"])
def test_request_id_with_whitespace_is_rejected(suffix):
    # An accepted id becomes a line of accepts.log; whitespace would split it.
    session = fresh_session()
    honest = build_request(session, "hello", b"p")
    rid = f"{honest.epoch}-{honest.seq}-{suffix}"
    forged = dataclasses.replace(honest, request_id=rid, response_path=f"responses/{rid}.resp", mac=b"")
    forged = dataclasses.replace(forged, mac=request_mac(session.sk, forged))
    assert validate_request(forged, session, "c4-golden") is RejectReason.BIND_REQUEST_ID_MISMATCH


@pytest.mark.parametrize(
    "path",
    ["../../etc/x", "/etc/x", "responses/../session.json", "responses", "responses/a/b", "", "requests/x"],
)
def test_response_path_escapes_rejected(path):
    session = fresh_session()
    req = dataclasses.replace(build_request(session, "hello", b"p"), response_path=path)
    assert validate_request(req, session, "c4-golden") is RejectReason.BIND_BAD_RESPONSE_PATH


def test_nonce_replay_rejected_even_with_fresh_id():
    session = fresh_session()
    first = build_request(session, "hello", b"p")
    commit_acceptance(session, first)
    forged = dataclasses.replace(build_request(session, "hello", b"p"), nonce=first.nonce, mac=b"")
    forged = dataclasses.replace(forged, mac=request_mac(session.sk, forged))
    assert validate_request(forged, session, "c4-golden") is RejectReason.FRESH_REPLAYED_NONCE


def test_ordering_watermark_allows_gaps_rejects_stale():
    session = fresh_session()
    r0 = build_request(session, "hello", b"p")
    r1 = build_request(session, "hello", b"p")
    r2 = build_request(session, "hello", b"p")
    assert validate_request(r0, session, "c4-golden") is None
    commit_acceptance(session, r0)
    # gap: accept seq 2 before seq 1 ever shows up
    assert validate_request(r2, session, "c4-golden") is None
    commit_acceptance(session, r2)
    assert validate_request(r1, session, "c4-golden") is RejectReason.ORDER_STALE_SEQ


def test_watermark_recovers_from_persisted_ids(root, sim_bundle):
    sd = _journalled_instance(root, sim_bundle)
    session = sd.load_session()
    for _ in range(3):
        req = build_request(session, "hello", b"p")
        _journal(sd, req)
        commit_acceptance(session, req)
    reloaded = sd.load_session()
    assert reloaded.next_expected_accept_seq == 3
    session.advance_epoch()
    assert session.next_expected_accept_seq == 0
    assert not session.seen_request_ids and not session.seen_nonces


_FIELDS = st.sampled_from(
    ["stage", "cid", "epoch", "seq", "request_id", "nonce", "response_path", "payload", "mac"]
)


@settings(max_examples=300, deadline=None)
@given(fieldname=_FIELDS, data=st.data())
def test_any_single_field_corruption_is_rejected(fieldname, data):
    session = fresh_session()
    req = build_request(session, "hello", b"fuzz-payload")
    value = getattr(req, fieldname)
    if isinstance(value, int):
        bit = data.draw(st.integers(min_value=0, max_value=31))
        mutated = dataclasses.replace(req, **{fieldname: value ^ (1 << bit)})
    elif isinstance(value, bytes):
        raw = bytearray(value if value else b"\x00")
        i = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        raw[i] ^= 1 << data.draw(st.integers(min_value=0, max_value=7))
        mutated = dataclasses.replace(req, **{fieldname: bytes(raw)})
    else:
        raw = bytearray(value.encode())
        i = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        raw[i] ^= 1 << data.draw(st.integers(min_value=0, max_value=6))
        new = bytes(raw).decode("utf-8", "replace")
        if new == value:
            new = value + "x"
        mutated = dataclasses.replace(req, **{fieldname: new})
    assert validate_request(mutated, session, "c4-golden") is not None


def test_honest_in_order_stream_never_rejected():
    session = fresh_session()
    for _ in range(200):
        req = build_request(session, "hello", b"p")
        assert validate_request(req, session, "c4-golden") is None
        commit_acceptance(session, req)


# ---------------------------------------------------------------------------
# Responses and envelopes
# ---------------------------------------------------------------------------


def test_response_round_trip_verify():
    session = fresh_session()
    resp = build_response(session, "rid-1", rc=0, status=ResponseStatus.COMPLETED, eid="eid-0001", output=b"out")
    assert verify_response(resp, session, {"rid-1"})
    assert not verify_response(resp, session, {"other"})
    tampered = dataclasses.replace(resp, rc=1)
    assert not verify_response(tampered, session, {"rid-1"})


def test_rejected_response_verifies_and_reports_reason():
    session = fresh_session()
    resp = build_response(
        session, "rid-2", rc=1, status=ResponseStatus.REJECTED, reject_reason=RejectReason.ORDER_STALE_SEQ
    )
    assert verify_response(resp, session, {"rid-2"})
    assert resp.reject_reason is RejectReason.ORDER_STALE_SEQ
    assert resp.eid is None


def test_envelope_round_trips():
    session = fresh_session()
    req = build_request(session, "hello", b"payload \x00 bytes")
    assert request_from_envelope(request_to_envelope(req)) == req
    resp = build_response(session, req.request_id, rc=3, status=ResponseStatus.FAILED, eid="eid-0002", output=b"x")
    assert response_from_envelope(response_to_envelope(resp)) == resp


def test_envelope_strictness():
    session = fresh_session()
    env = request_to_envelope(build_request(session, "hello", b"p"))
    extra = dict(env, surprise=1)
    with pytest.raises(ValueError):
        request_from_envelope(extra)
    missing = dict(env)
    del missing["nonce_hex"]
    with pytest.raises(ValueError):
        request_from_envelope(missing)
    wrong_ver = dict(env, schema_version=99)
    with pytest.raises(ValueError):
        request_from_envelope(wrong_ver)
    bad_type = dict(env, seq="0")
    with pytest.raises(ValueError):
        request_from_envelope(bad_type)


# Any JSON value a host could put in one envelope field: wrong types, ints
# past u64/i64 or negative, text that is not hex or base64, lone surrogates.
# One flat choice, so that each kind is drawn about one time in ten.
_JSON_SCALARS = [
    st.none(),
    st.booleans(),
    st.floats(),
    st.integers(),
    st.sampled_from([-1, -(2**63) - 1, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**64 + 1, 2**70]),
    st.text(),
    st.text(alphabet="0123456789abcdefABCDEF=+/ g"),
    st.builds("{}\ud800{}".format, st.text(max_size=4), st.text(max_size=4)),
]
_JSON_VALUES = st.one_of(
    *_JSON_SCALARS,
    st.lists(st.one_of(_JSON_SCALARS), max_size=3),
    st.dictionaries(st.text(max_size=4), st.one_of(_JSON_SCALARS), max_size=3),
)


@pytest.mark.parametrize("key", sorted(request_to_envelope(golden_request())))
@settings(max_examples=100, deadline=None)
@given(value=_JSON_VALUES)
def test_any_request_envelope_field_value_yields_a_verdict_or_value_error(key, value):
    session = fresh_session()
    env = dict(request_to_envelope(build_request(session, "hello", b"p")), **{key: value})
    if key in ("epoch", "seq"):
        # Keep the id bound to the mutated (epoch, seq), so validation
        # reaches the MAC over them.
        rid = f"{env['epoch']}-{env['seq']}-zz"
        env.update(request_id=rid, response_path=f"responses/{rid}.resp")
    try:
        req = request_from_envelope(env)
    except ValueError:
        return
    verdict = validate_request(req, session, "c4-golden")
    assert verdict is None or isinstance(verdict, RejectReason)


@pytest.mark.parametrize("key", sorted(response_to_envelope(golden_response())))
@settings(max_examples=100, deadline=None)
@given(value=_JSON_VALUES)
def test_any_response_envelope_field_value_yields_a_bool_or_value_error(key, value):
    session = fresh_session()
    resp = build_response(session, "1-0-deadbeef", rc=0, status=ResponseStatus.COMPLETED, eid="eid-1-0", output=b"x")
    env = dict(response_to_envelope(resp), **{key: value})
    try:
        parsed = response_from_envelope(env)
    except ValueError:
        return
    # Outstanding under whatever id it names, so the check reaches the MAC.
    assert isinstance(verify_response(parsed, session, {parsed.request_id}), bool)


def test_session_requires_full_key():
    with pytest.raises(ContractViolation):
        SessionState(cid="c", epoch=1, sk=b"short")
