"""Pure composite-lifecycle semantics: state machine, projection, termination.

Everything in this module is storage-free and side-effect-free. The durable
layer (`statedir`) and the pipeline engine (`serve`) call into these
functions; nothing here does I/O or mutates shared state, so every function
is safe under arbitrary concurrency.

State model
- Instance states: Init, Prepared, Running, Stopped, Failed. Init is never
  persisted; it is represented by the absence of a record.
- Legal transitions form a monotone DAG; terminal states are absorbing
  (only deletion, which removes the record entirely, leaves them).
- The externally visible status is a projection onto {created, running,
  stopped}; auxiliary trust/health/phase flags never feed back into it.

Termination model
- Every terminal observation is an event <src, code, reason>. When several
  events exist, a dominance ordering picks one winner, which alone decides
  the instance's exit code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional, Sequence

from .errors import ContractViolation

#: Exit code reported when termination is caused by a trust or policy
#: violation. 252 sits outside common shell conventions (126/127/128+sig)
#: and below the 255 ceiling; deployments may override it per bundle.
DEFAULT_UNTRUSTED_EXIT_CODE = 252


class LifecycleState(str, Enum):
    INIT = "init"
    PREPARED = "prepared"
    RUNNING = "running"
    STOPPED = "stopped"
    FAILED = "failed"


class OciStatus(str, Enum):
    CREATED = "created"
    RUNNING = "running"
    STOPPED = "stopped"


class TrustFlag(str, Enum):
    TRUSTED = "trusted"
    UNTRUSTED = "untrusted"
    UNKNOWN = "unknown"


class HealthFlag(str, Enum):
    HEALTHY = "healthy"
    DEGRADED = "degraded"
    UNKNOWN = "unknown"


class TeePhase(str, Enum):
    IDLE = "idle"
    ACTIVE = "active"
    ERROR = "error"


TERMINAL_STATES = frozenset({LifecycleState.STOPPED, LifecycleState.FAILED})

# Non-reflexive legal edges. Prepared can reach a terminal state directly
# (kill before start, or a failure during bring-up); terminal states have
# no outgoing edges.
_LEGAL_EDGES = frozenset(
    {
        (LifecycleState.INIT, LifecycleState.PREPARED),
        (LifecycleState.PREPARED, LifecycleState.RUNNING),
        (LifecycleState.PREPARED, LifecycleState.STOPPED),
        (LifecycleState.PREPARED, LifecycleState.FAILED),
        (LifecycleState.RUNNING, LifecycleState.STOPPED),
        (LifecycleState.RUNNING, LifecycleState.FAILED),
    }
)


def project_oci(state: LifecycleState) -> OciStatus:
    """Map an internal lifecycle state to its externally visible status.

    Total over the state space: Init/Prepared -> created, Running ->
    running, Stopped/Failed -> stopped.
    """
    if state in (LifecycleState.INIT, LifecycleState.PREPARED):
        return OciStatus.CREATED
    if state is LifecycleState.RUNNING:
        return OciStatus.RUNNING
    return OciStatus.STOPPED


def validate_transition(src: LifecycleState, dst: LifecycleState) -> bool:
    """True iff the edge src->dst is legal.

    Reflexive edges are legal (idempotent re-assertion of the current
    state); edges out of a terminal state are not.
    """
    if src is dst:
        return True
    return (src, dst) in _LEGAL_EDGES


# ---------------------------------------------------------------------------
# Termination events and their reduction to a single exit outcome
# ---------------------------------------------------------------------------


class EventSource(str, Enum):
    REE = "R"  # host-side anchor process
    TEE = "T"  # protected stage execution
    POLICY = "P"  # policy / runtime controller


class TerminationReason(str, Enum):
    NORMAL = "normal"
    ERROR = "error"
    UNTRUSTED = "untrusted"
    KILLED = "killed"
    POLICY = "policy"


@dataclass(frozen=True)
class TerminationEvent:
    """One terminal observation <src, code, reason> plus its wall-clock order."""

    src: EventSource
    code: int
    reason: TerminationReason
    observed_at: float = 0.0
    origin: str = ""  # free-form provenance tag, e.g. "anchor-exit" or "stage:eid-0001"

    def __post_init__(self) -> None:
        if self.code < 0:
            raise ContractViolation(f"termination code must be non-negative, got {self.code}")
        if self.reason is TerminationReason.POLICY and self.src is not EventSource.POLICY:
            # Reject rather than silently reclassify: a policy verdict from a
            # non-policy source is a malformed observation.
            raise ContractViolation("reason=policy requires src=P")
        if not math.isfinite(self.observed_at):
            raise ContractViolation("observed_at must be finite")


def dominance_rank(src: EventSource, reason: TerminationReason) -> int:
    """Severity class of a (src, reason) pair; higher ranks dominate.

    untrusted (and policy verdicts, which rank with it) > stage error >
    host-side error > killed > normal. Errors from the policy controller
    rank with host-side errors.
    """
    if reason in (TerminationReason.UNTRUSTED, TerminationReason.POLICY):
        return 4
    if reason is TerminationReason.ERROR:
        return 3 if src is EventSource.TEE else 2
    if reason is TerminationReason.KILLED:
        return 1
    return 0


_SRC_TIEBREAK = {EventSource.POLICY: 0, EventSource.TEE: 1, EventSource.REE: 2}
_REASON_TIEBREAK = {
    TerminationReason.UNTRUSTED: 0,
    TerminationReason.POLICY: 1,
    TerminationReason.ERROR: 2,
    TerminationReason.KILLED: 3,
    TerminationReason.NORMAL: 4,
}


def exit_code_for(dominant: TerminationEvent, c_untrusted: int = DEFAULT_UNTRUSTED_EXIT_CODE) -> int:
    """Exit code implied by the dominant event.

    Trust/policy violations map to the configured sentinel, errors propagate
    their internal code, and normal or requested termination maps to 0.
    """
    if dominant.reason is TerminationReason.UNTRUSTED:
        return c_untrusted
    if dominant.src is EventSource.POLICY and dominant.reason is TerminationReason.POLICY:
        return c_untrusted
    if dominant.reason is TerminationReason.ERROR:
        return dominant.code
    return 0


def reduce_termination(
    events: Sequence[TerminationEvent],
    c_untrusted: int = DEFAULT_UNTRUSTED_EXIT_CODE,
) -> tuple[int, TerminationEvent]:
    """Collapse observed termination events into (exit_code, dominant event).

    The dominant event is the maximum under the dominance ordering; ties are
    broken by earliest observed_at, then by source (P before T before R),
    then — so the result is a pure function of the event multiset even for
    same-source simultaneous observations — by reason, code, and origin.
    """
    if not events:
        raise ContractViolation("reduce_termination requires at least one event")
    dominant = min(
        events,
        key=lambda e: (
            -dominance_rank(e.src, e.reason),
            e.observed_at,
            _SRC_TIEBREAK[e.src],
            _REASON_TIEBREAK[e.reason],
            e.code,
            e.origin,
        ),
    )
    return exit_code_for(dominant, c_untrusted), dominant


def is_done(dominant: TerminationEvent) -> bool:
    """Whether the composite finished successfully.

    Completion is anchored at the host-side anchor: only a normal anchor
    exit counts; every other dominant event is a failure.
    """
    return dominant.src is EventSource.REE and dominant.reason is TerminationReason.NORMAL


# ---------------------------------------------------------------------------
# Observability flags and readiness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrustEvidence:
    """Attestation/measurement/binding observations; None means not observed."""

    e_att: Optional[bool] = None
    e_meas: Optional[str] = None  # measurement digest, when available
    e_bind: Optional[bool] = None

    @property
    def complete(self) -> bool:
        return self.e_att is not None and self.e_meas is not None and self.e_bind is not None


@dataclass(frozen=True)
class HealthEvidence:
    """Dependency/resource/performance observations; None means not observed."""

    e_dep: Optional[bool] = None
    e_res: Optional[bool] = None
    e_perf: Optional[bool] = None

    @property
    def complete(self) -> bool:
        return self.e_dep is not None and self.e_res is not None and self.e_perf is not None


@dataclass(frozen=True)
class TeeEvidence:
    """Stage activity observations: in-flight count and last exit rc."""

    e_call: int = 0
    e_exit: Optional[int] = None


@dataclass(frozen=True)
class ObservabilityEvidence:
    trust: TrustEvidence = field(default_factory=TrustEvidence)
    health: HealthEvidence = field(default_factory=HealthEvidence)
    tee: TeeEvidence = field(default_factory=TeeEvidence)


def evaluate_observability(evidence: ObservabilityEvidence) -> tuple[TrustFlag, HealthFlag, TeePhase]:
    """Derive the auxiliary flags from evidence without touching lifecycle state.

    Absent evidence always maps to unknown, never to a definite verdict; a
    rejection requires the full evidence tuple to be present, and trust
    requires its binding check to have passed.
    """
    if not evidence.trust.complete:
        trust = TrustFlag.UNKNOWN
    elif evidence.trust.e_bind is True:
        trust = TrustFlag.TRUSTED
    else:
        trust = TrustFlag.UNTRUSTED

    h = evidence.health
    if not h.complete:
        health = HealthFlag.UNKNOWN
    elif h.e_dep and h.e_res and h.e_perf:
        health = HealthFlag.HEALTHY
    else:
        health = HealthFlag.DEGRADED

    t = evidence.tee
    if t.e_exit is not None and t.e_exit != 0:
        phase = TeePhase.ERROR
    elif t.e_call > 0:
        phase = TeePhase.ACTIVE
    else:
        phase = TeePhase.IDLE
    return trust, health, phase


# ---------------------------------------------------------------------------
# Persistent record (value type; durability lives in statedir)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompositeStateRecord:
    """The per-instance lifecycle record persisted as state.json.

    It holds the lifecycle alone; the trust, health and phase flags are
    derived from the stage artifacts when they are read, never stored.
    Invariants enforced here: the record never stores Init (absence encodes
    it), exit_code is present exactly on terminal states and fits in a byte,
    and the projected status always matches the internal state.
    """

    cid: str
    state: LifecycleState
    ver: int
    exit_code: Optional[int] = None
    anchor_pid: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.cid:
            raise ContractViolation("cid must be a non-empty identifier")
        if self.state is LifecycleState.INIT:
            raise ContractViolation("Init is represented by record absence, never stored")
        if self.ver < 1:
            raise ContractViolation("ver starts at 1 and only increases")
        terminal = self.state in TERMINAL_STATES
        if terminal and self.exit_code is None:
            raise ContractViolation("terminal records must carry an exit code")
        if not terminal and self.exit_code is not None:
            raise ContractViolation("exit_code is only valid on terminal records")
        if self.exit_code is not None and not 0 <= self.exit_code <= 255:
            raise ContractViolation(f"exit_code out of range: {self.exit_code}")

    @property
    def oci_status(self) -> OciStatus:
        return project_oci(self.state)

    def with_state(self, state: LifecycleState, **changes) -> "CompositeStateRecord":
        return replace(self, state=state, **changes)


def evaluate_readiness(
    rec: CompositeStateRecord,
    prepared_r: bool,
    prepared_t: bool,
    require_conf: bool,
    trust: TrustFlag,
) -> bool:
    """Readiness as a derived predicate, never a lifecycle state.

    Ready implies the instance is running; host-side preparedness is always
    required, and when confidential execution is required the protected side
    must be prepared and the trust flag established.
    """
    if rec.state is not LifecycleState.RUNNING:
        return False
    if not prepared_r:
        return False
    if require_conf:
        return prepared_t and trust is TrustFlag.TRUSTED
    return True
