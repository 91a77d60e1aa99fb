"""Lightweight pass/fail records for identity and invariant checks."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one numerical identity check.

    residual is the maximum absolute defect observed; the check passes
    when residual <= tolerance.
    """

    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}  residual={self.residual:.3e}  tol={self.tolerance:.1e}"
