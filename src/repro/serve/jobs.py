"""Job model of the serving layer: requests, outcomes, typed rejections.

A *job* is one solve campaign over one instance.  Requests are fully
JSON-serializable — the journal stores them verbatim so a restarted
daemon can re-run any job that never reached a terminal state, and the
crash-recovery tests can rebuild the instance offline to re-verify every
served answer.

States follow the graceful-degradation contract (DESIGN.md §5h):

* ``SUCCEEDED`` — solved to proven optimality, certificate checked;
* ``DEGRADED`` — a limit (deadline / node budget) expired first, but the
  best incumbent *and* the dual bound are served with a
  certificate-checked gap — never a bare error;
* ``FAILED`` — nothing certifiable to serve (no incumbent at the limit,
  or the certificate check refused the answer);
* ``CANCELLED`` — the client withdrew the job before it finished.

Admission rejections are *typed* (the HTTP-429 analogue carries
``retry_after``) and deliberately are not job states: a rejected
submission was never accepted, so it never enters the journal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.utils.records import decode_float, encode_float

# -- states ---------------------------------------------------------------------


class JobState:
    """String constants for the job lifecycle (JSON-friendly)."""

    QUEUED = "queued"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    DEGRADED = "degraded"
    FAILED = "failed"
    CANCELLED = "cancelled"


TERMINAL_STATES = frozenset(
    {JobState.SUCCEEDED, JobState.DEGRADED, JobState.FAILED, JobState.CANCELLED}
)
#: terminal states whose answer is served to the client (and cacheable)
SERVED_STATES = frozenset({JobState.SUCCEEDED, JobState.DEGRADED})


# -- typed errors ---------------------------------------------------------------


class ServeError(Exception):
    """Base class for serving-layer errors; ``code`` travels on the wire."""

    code = "serve_error"


class InvalidJobError(ServeError):
    """The request cannot be turned into a solvable instance."""

    code = "invalid_job"


class UnknownJobError(ServeError):
    """No job with that id was ever accepted by this daemon."""

    code = "unknown_job"


class AdmissionError(ServeError):
    """A submission was rejected by admission control (the 429 analogue).

    ``retry_after`` is the daemon's estimate (seconds) of when capacity
    frees up; clients should back off at least that long.
    """

    code = "admission_rejected"

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class QueueFullError(AdmissionError):
    """The global pending queue is at its bound — load is being shed."""

    code = "queue_full"


class QuotaExceededError(AdmissionError):
    """The tenant hit its own quota (queued or active jobs)."""

    code = "quota_exceeded"


ERROR_CODES = {
    cls.code: cls
    for cls in (ServeError, InvalidJobError, UnknownJobError, AdmissionError,
                QueueFullError, QuotaExceededError)
}


def error_from_code(code: str, message: str, retry_after: float | None = None) -> ServeError:
    """Rebuild the typed exception a wire error response encodes."""
    cls = ERROR_CODES.get(code, ServeError)
    if issubclass(cls, AdmissionError):
        return cls(message, retry_after=1.0 if retry_after is None else retry_after)
    return cls(message)


# -- requests -------------------------------------------------------------------

KINDS = ("stp", "misdp")


@dataclass
class JobRequest:
    """One solve request, fully serializable.

    ``payload`` describes the instance: ``{"stp": "<STP file text>"}``
    for a literal Steiner instance, or ``{"generator": name, "params":
    {...}}`` dispatching into the seeded instance generators of
    ``repro.steiner.instances`` / ``repro.sdp.instances``.

    ``deadline`` is the wall-clock budget (seconds) granted to the solve
    — at expiry the daemon serves the incumbent + certified gap instead
    of failing.  ``node_limit`` / ``virtual_time_limit`` are the
    deterministic counterparts (engine node budget / virtual seconds)
    used when a reproducible degradation point matters more than wall
    time.
    """

    kind: str
    payload: dict[str, Any]
    tenant: str = "default"
    deadline: float | None = None
    n_solvers: int = 1
    seed: int = 0
    node_limit: int | None = None
    virtual_time_limit: float | None = None
    objective_epsilon: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InvalidJobError(f"unknown job kind {self.kind!r}; choose from {KINDS}")
        if not isinstance(self.payload, dict) or not self.payload:
            raise InvalidJobError("payload must be a non-empty object")
        if "stp" not in self.payload and "generator" not in self.payload:
            raise InvalidJobError("payload needs either 'stp' text or a 'generator' spec")
        if self.n_solvers < 1:
            raise InvalidJobError(f"n_solvers must be >= 1, got {self.n_solvers}")
        if self.deadline is not None and not self.deadline > 0:
            raise InvalidJobError(f"deadline must be positive, got {self.deadline}")
        if self.node_limit is not None and self.node_limit < 1:
            raise InvalidJobError(f"node_limit must be >= 1, got {self.node_limit}")
        if self.virtual_time_limit is not None and not self.virtual_time_limit > 0:
            raise InvalidJobError("virtual_time_limit must be positive")
        # json.loads accepts NaN/Infinity; a NaN epsilon silences every
        # solution report, so it must not reach the engine
        if self.objective_epsilon is not None and not 0 <= self.objective_epsilon < math.inf:
            raise InvalidJobError(
                f"objective_epsilon must be finite and non-negative, got {self.objective_epsilon}"
            )

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "payload": self.payload,
            "tenant": self.tenant,
            "deadline": self.deadline,
            "n_solvers": self.n_solvers,
            "seed": self.seed,
            "node_limit": self.node_limit,
            "virtual_time_limit": self.virtual_time_limit,
            "objective_epsilon": self.objective_epsilon,
        }

    @staticmethod
    def from_json(obj: dict[str, Any]) -> "JobRequest":
        if not isinstance(obj, dict):
            raise InvalidJobError(f"request must be an object, got {type(obj).__name__}")
        known = {
            "kind", "payload", "tenant", "deadline", "n_solvers", "seed",
            "node_limit", "virtual_time_limit", "objective_epsilon",
        }
        unknown = set(obj) - known
        if unknown:
            raise InvalidJobError(f"unknown request fields: {sorted(unknown)}")
        try:
            return JobRequest(
                kind=str(obj.get("kind", "")),
                payload=obj.get("payload") or {},
                tenant=str(obj.get("tenant", "default")),
                deadline=None if obj.get("deadline") is None else float(obj["deadline"]),
                n_solvers=int(obj.get("n_solvers", 1)),
                seed=int(obj.get("seed", 0)),
                node_limit=None if obj.get("node_limit") is None else int(obj["node_limit"]),
                virtual_time_limit=(
                    None if obj.get("virtual_time_limit") is None
                    else float(obj["virtual_time_limit"])
                ),
                objective_epsilon=(
                    None if obj.get("objective_epsilon") is None
                    else float(obj["objective_epsilon"])
                ),
            )
        except (TypeError, ValueError) as exc:
            raise InvalidJobError(f"malformed request: {exc}") from exc


# -- outcomes -------------------------------------------------------------------


@dataclass
class JobOutcome:
    """What a terminal job serves back (objective/bound in the problem's
    natural sense: minimized cost for STP, maximized ``b'y`` for MISDP)."""

    state: str
    objective: float = math.inf
    bound: float = math.inf
    gap: float = math.inf
    solved: bool = False
    certified: bool = False
    solution: Any = None
    detail: str = ""
    from_cache: bool = False
    attempts: int = 1
    checks: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "state": self.state,
            "objective": encode_float(self.objective),
            "bound": encode_float(self.bound),
            "gap": encode_float(self.gap),
            "solved": self.solved,
            "certified": self.certified,
            "solution": self.solution,
            "detail": self.detail,
            "from_cache": self.from_cache,
            "attempts": self.attempts,
            "checks": dict(self.checks),
        }

    @staticmethod
    def from_json(obj: dict[str, Any]) -> "JobOutcome":
        return JobOutcome(
            state=str(obj["state"]),
            objective=decode_float(obj.get("objective", "inf")),
            bound=decode_float(obj.get("bound", "inf")),
            gap=decode_float(obj.get("gap", "inf")),
            solved=bool(obj.get("solved", False)),
            certified=bool(obj.get("certified", False)),
            solution=obj.get("solution"),
            detail=str(obj.get("detail", "")),
            from_cache=bool(obj.get("from_cache", False)),
            attempts=int(obj.get("attempts", 1)),
            checks=dict(obj.get("checks", {})),
        )


@dataclass
class JobRecord:
    """Daemon-side bookkeeping for one accepted job."""

    job_id: str
    request: JobRequest
    state: str = JobState.QUEUED
    outcome: JobOutcome | None = None
    attempts: int = 0
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    cancel_requested: bool = False
    #: live event stream of the running solve (a repro.obs Tracer)
    tracer: Any = None
    #: (fingerprint, canonical labeling) of the instance, computed once
    #: per job by runner.instance_cache_key
    cache_key: tuple[str, list[int] | None] | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def cost(self) -> int:
        """Scheduling cost: the worker slots the job occupies."""
        return self.request.n_solvers

    def public_view(self) -> dict[str, Any]:
        """The status() wire shape."""
        out: dict[str, Any] = {
            "job_id": self.job_id,
            "state": self.state,
            "tenant": self.request.tenant,
            "kind": self.request.kind,
            "attempts": self.attempts,
        }
        if self.outcome is not None:
            view = self.outcome.to_json()
            # the solution payload can be big; status() reports its size only
            sol = view.pop("solution", None)
            view["solution_size"] = 0 if sol is None else len(sol)
            out["outcome"] = view
        return out
