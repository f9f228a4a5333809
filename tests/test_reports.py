"""A check's report is truthy exactly when the check passed."""

import numpy as np

from qecalg.reports import CheckReport


def test_a_report_is_truthy_exactly_when_it_passed():
    # a frozen dataclass without __bool__ is always truthy, so `if not
    # verify_...(...)` would let every failing check through
    passing = CheckReport.from_residuals("probe", np.array([0.0, 1e-12]), 1e-9)
    failing = CheckReport.from_residuals("probe", np.array([0.0, np.nan]), 1e-9)
    assert passing.passed and passing
    assert not failing.passed and not failing
    assert failing.failures == (1,)
