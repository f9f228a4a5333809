"""The table of tools/fault_probe.py stays applicable to the source it mutates.

A refactor that rewrites a line a probe row edits makes that row stale; this
test finds it without running the probe.  Paths are taken from this file, not
the working directory, so the test reads the checkout it belongs to wherever
pytest runs.  The probe runs its suite with this file ignored: in a mutated
copy the row's old text is gone by design.
"""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def _probe():
    spec = importlib.util.spec_from_file_location("fault_probe", _ROOT / "tools" / "fault_probe.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_row_applies_exactly_once():
    probe = _probe()
    stale = []
    for i, (name, old, _, expected, _) in enumerate(probe.MUTANTS, 1):
        assert expected in (probe.KILLED, probe.EQUIVALENT), (i, expected)
        found = (_ROOT / "src" / "qecalg" / name).read_text().count(old)
        if found != 1:
            stale.append((i, name, old, found))
    assert not stale, stale
