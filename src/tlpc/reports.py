"""Check reports shared by the signature validator and the static checkers."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Finding:
    """A single violation: which condition failed, evidence, and (when the
    finding is about one clause) the clause index."""
    condition: str
    witness: str
    clause: int | None = None


@dataclass(frozen=True)
class CheckReport:
    findings: tuple[Finding, ...] = ()
    depth_bound: int | None = None

    @property
    def verdict(self) -> str:
        return "pass" if not self.findings else "fail"

    @property
    def passed(self) -> bool:
        return not self.findings
