"""The table of tools/fault_probe.py stays applicable to the source it mutates.

A refactor that rewrites a line a probe row edits makes that row stale; this
test finds it without running the probe.  Paths are taken from this file, not
the working directory, so the test reads the checkout it belongs to wherever
pytest runs.  The probe runs its suite with this file ignored: in a mutated
copy the row's old text is gone by design.  The probe's own runs are
checked with its suite replaced, so no suite runs here.
"""

import importlib.util
import subprocess
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

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


def test_every_run_copies_the_tree_taken_at_start(tmp_path, monkeypatch):
    # once the base copy exists the checkout is gone (ROOT is an empty
    # directory), yet the unmutated run and the row still get the whole tree
    probe = _probe()
    row = len(probe.MUTANTS)
    name, _, new = probe.MUTANTS[row - 1][:3]
    empty = tmp_path / "empty"
    empty.mkdir()
    copy_tree, bases, runs = probe._copy_tree, [], []

    def copy_then_lose_the_checkout(dest):
        copy_tree(dest)
        bases.append(dest)
        monkeypatch.setattr(probe, "ROOT", empty)

    def suite(argv, cwd, **kwargs):
        tree = Path(cwd)
        assert {p.name for p in tree.iterdir()} == {"src", "tests", "pyproject.toml", "README.md"}
        assert (tree / "tests" / "test_fileio.py").is_file()
        mutated = new in (tree / "src" / "qecalg" / name).read_text()
        runs.append(mutated)
        return subprocess.CompletedProcess(argv, 1 if mutated else 0)

    monkeypatch.setattr(probe, "_copy_tree", copy_then_lose_the_checkout)
    monkeypatch.setattr(probe, "subprocess", SimpleNamespace(run=suite, DEVNULL=subprocess.DEVNULL))
    assert probe.main([str(row)]) == 0
    assert runs == [False, True]
    assert len(bases) == 1 and not bases[0].exists()


@pytest.mark.parametrize("arg", ["0", "past-the-last", "x"])
def test_a_bad_row_number_is_refused_before_any_run(monkeypatch, capsys, arg):
    probe = _probe()
    last = len(probe.MUTANTS)
    arg = str(last + 1) if arg == "past-the-last" else arg
    for name in ("_suite_passes", "_copy_tree"):
        monkeypatch.setattr(probe, name, mock.Mock(side_effect=AssertionError(f"{name} ran")))
    assert probe.main([arg]) == 2
    assert capsys.readouterr().err == f"not a row: {arg} (rows are 1..{last})\n"
