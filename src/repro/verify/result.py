"""Check results — the common report type of every verification oracle.

A checker never raises on a *failed check* (that is the finding it
exists to report); it returns a :class:`CheckReport` whose entries say
exactly which invariant held or broke. Callers that want hard failure
semantics (benchmarks, CI gates) call :meth:`CheckReport.raise_if_failed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import VerificationError


@dataclass(frozen=True)
class CheckResult:
    """One verified (or violated) invariant."""

    name: str
    ok: bool
    detail: str = ""
    data: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        mark = "ok  " if self.ok else "FAIL"
        tail = f" — {self.detail}" if self.detail else ""
        return f"[{mark}] {self.name}{tail}"


@dataclass
class CheckReport:
    """An ordered collection of check results for one artifact.

    ``skipped`` marks reports the checker refused to evaluate (e.g. a
    tree audit over an incomplete ring-buffered trace): no claim is made
    either way, and ``ok`` stays True so skipped reports do not fail
    pipelines — the ``skipped`` flag itself is the signal.
    """

    subject: str = ""
    checks: list[CheckResult] = field(default_factory=list)
    skipped: bool = False
    skip_reason: str = ""

    def add(self, name: str, ok: bool, detail: str = "", **data: Any) -> CheckResult:
        res = CheckResult(name, bool(ok), detail, data)
        self.checks.append(res)
        return res

    def require(self, name: str, ok: bool, detail: str = "", **data: Any) -> bool:
        """Like :meth:`add` but returns the verdict for early-exit flows."""
        return self.add(name, ok, detail, **data).ok

    def merge(self, other: "CheckReport") -> "CheckReport":
        self.checks.extend(other.checks)
        if other.skipped and not self.checks:
            self.skipped = True
            self.skip_reason = self.skip_reason or other.skip_reason
        return self

    def mark_skipped(self, reason: str) -> "CheckReport":
        self.skipped = True
        self.skip_reason = reason
        return self

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.ok)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c.ok)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.ok]

    def raise_if_failed(self) -> "CheckReport":
        """Raise :class:`VerificationError` summarising every failure."""
        if not self.ok:
            lines = [str(c) for c in self.failures]
            subject = f"{self.subject}: " if self.subject else ""
            raise VerificationError(
                f"{subject}{self.failed}/{len(self.checks)} checks failed\n" + "\n".join(lines)
            )
        return self

    def summary(self) -> str:
        subject = self.subject or "report"
        if self.skipped and not self.checks:
            return f"{subject}: skipped ({self.skip_reason})"
        head = f"{subject}: {self.passed}/{len(self.checks)} checks passed"
        if self.failed:
            head += "\n" + "\n".join(str(c) for c in self.failures)
        return head

    def __str__(self) -> str:
        return self.summary()
