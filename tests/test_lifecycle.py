import itertools

import pytest
from hypothesis import given, strategies as st

from c4run.errors import ContractViolation
from c4run.lifecycle import (
    CompositeStateRecord,
    EventSource as S,
    HealthEvidence,
    HealthFlag,
    LifecycleState as L,
    ObservabilityEvidence,
    OciStatus,
    TeeEvidence,
    TeePhase,
    TerminationEvent,
    TerminationReason as R,
    TrustEvidence,
    TrustFlag,
    evaluate_observability,
    evaluate_readiness,
    exit_code_for,
    is_done,
    project_oci,
    reduce_termination,
    validate_transition,
)
from oracles import LEGAL_CLASSES, oracle_reduce


def ev(src, code, reason, at=0.0):
    return TerminationEvent(src=S(src), code=code, reason=R(reason), observed_at=at)


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


def test_projection_cases():
    assert project_oci(L.PREPARED) is OciStatus.CREATED
    assert project_oci(L.RUNNING) is OciStatus.RUNNING
    assert project_oci(L.FAILED) is OciStatus.STOPPED


def test_projection_total():
    table = {
        L.INIT: OciStatus.CREATED,
        L.PREPARED: OciStatus.CREATED,
        L.RUNNING: OciStatus.RUNNING,
        L.STOPPED: OciStatus.STOPPED,
        L.FAILED: OciStatus.STOPPED,
    }
    for state in L:
        assert project_oci(state) is table[state]


# ---------------------------------------------------------------------------
# Transitions
# ---------------------------------------------------------------------------


def test_transition_examples():
    assert validate_transition(L.PREPARED, L.RUNNING)
    assert not validate_transition(L.STOPPED, L.RUNNING)
    assert validate_transition(L.RUNNING, L.RUNNING)


def test_terminal_states_absorbing():
    for terminal in (L.STOPPED, L.FAILED):
        for dst in L:
            assert validate_transition(terminal, dst) == (terminal is dst)


def test_init_only_reaches_prepared():
    for dst in L:
        expected = dst in (L.INIT, L.PREPARED)
        assert validate_transition(L.INIT, dst) == expected


def test_oci_never_moves_backwards_along_legal_walks():
    order = {OciStatus.CREATED: 0, OciStatus.RUNNING: 1, OciStatus.STOPPED: 2}
    # Exhaustive: every legal edge is monotone in the projection.
    for src, dst in itertools.product(L, L):
        if validate_transition(src, dst) and src is not L.INIT:
            assert order[project_oci(dst)] >= order[project_oci(src)]
    # Except the one deliberate wrap: created -> stopped via kill-before-start
    # still moves forward (created < stopped), and delete is not a transition.


# ---------------------------------------------------------------------------
# Termination reduction
# ---------------------------------------------------------------------------


def test_reduce_single_normal_anchor_exit():
    event = ev("R", 0, "normal")
    assert reduce_termination([event]) == (0, event)


def test_reduce_stage_error_dominates_anchor_normal():
    events = [ev("R", 0, "normal", at=0.0), ev("T", 7, "error", at=1.0)]
    code, dominant = reduce_termination(events)
    assert code == 7
    assert dominant is events[1]


def test_reduce_empty_is_contract_violation():
    with pytest.raises(ContractViolation):
        reduce_termination([])


def test_reduce_untrusted_and_policy_exit_codes():
    assert reduce_termination([ev("T", 9, "untrusted")], 252)[0] == 252
    assert reduce_termination([ev("P", 3, "policy")], 252)[0] == 252
    assert reduce_termination([ev("P", 3, "policy")], 200)[0] == 200
    assert reduce_termination([ev("R", 0, "killed")])[0] == 0


def test_reduce_tiebreaks():
    a, b = ev("T", 1, "error", at=5.0), ev("T", 2, "error", at=1.0)
    assert reduce_termination([a, b])[1] is b  # earliest observation wins
    p, t, r = ev("P", 1, "untrusted", at=2.0), ev("T", 1, "untrusted", at=2.0), ev("R", 1, "untrusted", at=2.0)
    assert reduce_termination([r, t, p])[1] is p  # then P before T before R


def _all_event_lists(max_size):
    classes = [(S(src), R(reason)) for src, reason in LEGAL_CLASSES]
    for size in range(1, max_size + 1):
        for combo in itertools.combinations_with_replacement(classes, size):
            yield [
                TerminationEvent(src=src, code=5, reason=reason, observed_at=float(i))
                for i, (src, reason) in enumerate(combo)
            ]


def test_reduce_matches_oracle_exhaustively_up_to_pairs():
    # The oracle's classes are exactly the constructible (src, reason) pairs.
    for src, reason in itertools.product(S, R):
        if (src.value, reason.value) in LEGAL_CLASSES:
            TerminationEvent(src=src, code=5, reason=reason)
        else:
            with pytest.raises(ContractViolation):
                TerminationEvent(src=src, code=5, reason=reason)
    for events in _all_event_lists(2):
        tuples = [(e.src.value, e.code, e.reason.value, e.observed_at) for e in events]
        expected_code, expected_best = oracle_reduce(tuples)
        for perm in itertools.permutations(events):
            code, dominant = reduce_termination(list(perm))
            assert code == expected_code
            assert (dominant.src.value, dominant.code, dominant.reason.value, dominant.observed_at) == expected_best


@given(st.permutations(list(range(6))))
def test_reduce_is_order_invariant(order):
    base = [
        ev("R", 0, "normal", 0.0),
        ev("T", 7, "error", 1.0),
        ev("R", 3, "error", 2.0),
        ev("P", 0, "policy", 3.0),
        ev("R", 0, "killed", 4.0),
        ev("T", 0, "untrusted", 5.0),
    ]
    shuffled = [base[i] for i in order]
    assert reduce_termination(shuffled) == reduce_termination(base)


def test_event_construction_rules():
    with pytest.raises(ContractViolation):
        TerminationEvent(src=S.REE, code=0, reason=R.POLICY)
    with pytest.raises(ContractViolation):
        TerminationEvent(src=S.TEE, code=-1, reason=R.ERROR)
    with pytest.raises(ContractViolation):
        TerminationEvent(src=S.TEE, code=1, reason=R.ERROR, observed_at=float("nan"))
    assert exit_code_for(ev("T", 9, "error")) == 9


def test_is_done_examples():
    assert is_done(ev("R", 0, "normal"))
    assert not is_done(ev("R", 0, "killed"))
    assert not is_done(ev("T", 0, "normal"))


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


def test_observability_all_absent_is_unknown_idle():
    flags = evaluate_observability(ObservabilityEvidence())
    assert flags == (TrustFlag.UNKNOWN, HealthFlag.UNKNOWN, TeePhase.IDLE)


def test_observability_complete_accepted_evidence():
    evd = ObservabilityEvidence(
        trust=TrustEvidence(e_att=True, e_meas="ab" * 32, e_bind=True),
        health=HealthEvidence(e_dep=True, e_res=True, e_perf=True),
        tee=TeeEvidence(e_call=0, e_exit=0),
    )
    assert evaluate_observability(evd) == (TrustFlag.TRUSTED, HealthFlag.HEALTHY, TeePhase.IDLE)


def test_observability_exit_failure_forces_error_phase():
    evd = ObservabilityEvidence(
        trust=TrustEvidence(e_att=True, e_meas="x", e_bind=True),
        tee=TeeEvidence(e_call=3, e_exit=7),
    )
    assert evaluate_observability(evd)[2] is TeePhase.ERROR


def test_observability_rejecting_policy_needs_complete_evidence():
    complete = TrustEvidence(e_att=True, e_meas="x", e_bind=False)
    evd = ObservabilityEvidence(trust=complete)
    assert evaluate_observability(evd)[0] is TrustFlag.UNTRUSTED
    partial = ObservabilityEvidence(trust=TrustEvidence(e_att=True, e_bind=False))
    assert evaluate_observability(partial)[0] is TrustFlag.UNKNOWN


def test_observability_degraded_health_and_active_phase():
    evd = ObservabilityEvidence(
        health=HealthEvidence(e_dep=True, e_res=False, e_perf=True),
        tee=TeeEvidence(e_call=2, e_exit=0),
    )
    _, health, phase = evaluate_observability(evd)
    assert health is HealthFlag.DEGRADED
    assert phase is TeePhase.ACTIVE


# ---------------------------------------------------------------------------
# Record invariants and readiness
# ---------------------------------------------------------------------------


def _record(state, **kw):
    return CompositeStateRecord(cid="c", state=state, ver=1, **kw)


def test_record_invariants():
    with pytest.raises(ContractViolation):
        _record(L.INIT)
    with pytest.raises(ContractViolation):
        _record(L.STOPPED)  # terminal without exit code
    with pytest.raises(ContractViolation):
        _record(L.RUNNING, exit_code=0)
    with pytest.raises(ContractViolation):
        _record(L.FAILED, exit_code=300)
    with pytest.raises(ContractViolation):
        CompositeStateRecord(cid="", state=L.PREPARED, ver=1)
    rec = _record(L.STOPPED, exit_code=0)
    assert rec.oci_status is OciStatus.STOPPED


@pytest.mark.parametrize(
    "state, changes",
    [
        (L.INIT, {}),
        (L.STOPPED, {}),  # terminal without exit code
        (L.FAILED, {"exit_code": 256}),
        (L.RUNNING, {"exit_code": 0}),
        (L.RUNNING, {"ver": 0}),
        (L.RUNNING, {"cid": ""}),
    ],
)
def test_record_checks_hold_at_construction_and_through_with_state(state, changes):
    fields = {"cid": "c", "ver": 1, **changes}
    with pytest.raises(ContractViolation):
        CompositeStateRecord(state=state, **fields)
    running = _record(L.RUNNING, anchor_pid=7)
    with pytest.raises(ContractViolation):
        running.with_state(state, **changes)
    assert running == _record(L.RUNNING, anchor_pid=7)  # unchanged


def test_with_state_keeps_the_fields_it_does_not_change():
    stopped = _record(L.RUNNING, anchor_pid=7).with_state(L.STOPPED, exit_code=3)
    assert stopped == CompositeStateRecord(cid="c", state=L.STOPPED, ver=1, exit_code=3, anchor_pid=7)
    with pytest.raises(TypeError):
        stopped.with_state(L.STOPPED, no_such_field=1)


def test_records_compare_by_value():
    assert _record(L.RUNNING) == _record(L.RUNNING)
    assert _record(L.RUNNING) != _record(L.RUNNING, anchor_pid=1)
    assert _record(L.RUNNING) != ("c", L.RUNNING, 1, None, None)
    assert ev("T", 3, "error", 1.0) == ev("T", 3, "error", 1.0)
    assert ev("T", 3, "error", 1.0) != ev("T", 3, "error", 2.0)
    assert repr(_record(L.PREPARED)).startswith("CompositeStateRecord(cid='c', state=")


def test_readiness_examples():
    running = _record(L.RUNNING)
    unknown = TrustFlag.UNKNOWN
    assert evaluate_readiness(running, prepared_r=True, prepared_t=False, require_conf=False, trust=unknown)
    prepared = _record(L.PREPARED)
    assert not evaluate_readiness(prepared, prepared_r=True, prepared_t=True, require_conf=False, trust=unknown)
    assert not evaluate_readiness(running, prepared_r=True, prepared_t=False, require_conf=True, trust=unknown)


def test_readiness_requires_trust_when_confidential():
    running = _record(L.RUNNING)
    for trust in TrustFlag:
        ready = evaluate_readiness(running, prepared_r=True, prepared_t=True, require_conf=True, trust=trust)
        assert ready is (trust is TrustFlag.TRUSTED)


@given(
    state=st.sampled_from([L.PREPARED, L.RUNNING, L.STOPPED, L.FAILED]),
    prepared_r=st.booleans(),
    prepared_t=st.booleans(),
    require_conf=st.booleans(),
    trust=st.sampled_from(list(TrustFlag)),
)
def test_ready_implies_running(state, prepared_r, prepared_t, require_conf, trust):
    exit_code = 0 if state in (L.STOPPED, L.FAILED) else None
    rec = CompositeStateRecord(cid="c", state=state, ver=1, exit_code=exit_code)
    if evaluate_readiness(rec, prepared_r, prepared_t, require_conf, trust):
        assert state is L.RUNNING
        assert prepared_r
