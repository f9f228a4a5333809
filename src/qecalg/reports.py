"""Pass/fail report returned by the verification operations."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a single verification check.

    `failures` holds whatever identifies the offending cases (indices,
    trial numbers, ...); empty when the check passed.
    """

    name: str
    passed: bool
    max_residual: float
    failures: tuple = field(default_factory=tuple)
    detail: str = ""

    @classmethod
    def from_residuals(cls, name: str, residuals: np.ndarray, tol: float, label=None,
                       detail: str = "") -> "CheckReport":
        """The report of a check by its one rule: a residual passes when it
        is <= tol, so a NaN fails; `failures` are the indices of the others,
        each mapped by `label` if given; `max_residual` is the largest
        residual, 0 for none and NaN if any is NaN."""
        bad = np.flatnonzero(~(residuals <= tol)).tolist()
        return cls(name=name, passed=not bad,
                   max_residual=float(np.max(residuals, initial=0.0)),
                   failures=tuple(bad if label is None else map(label, bad)), detail=detail)

    def __bool__(self) -> bool:
        return self.passed

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        line = f"{self.name}: {status} (max residual {self.max_residual:.3e})"
        if self.detail:
            line += f" — {self.detail}"
        return line
