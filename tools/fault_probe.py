"""Fault probe: how many single-edit faults of src/qecalg the test suite catches.

    python tools/fault_probe.py            # the unmutated copy, then every row
    python tools/fault_probe.py --list     # print the table and run nothing
    python tools/fault_probe.py 3 7        # the unmutated copy, then rows 3 and 7

Each row of MUTANTS names a file under src/qecalg, a text that must occur in
it exactly once, the text that replaces it, and the outcome expected: the
suite kills the mutant, or the mutant is equivalent to the program, with the
reason.  At start the script copies src/, tests/, pyproject.toml and
README.md (which a test reads) of this checkout once into a base temporary
directory, so every run tests the tree the probe started on, whatever
happens to the checkout meanwhile.  For every run it copies that base into a
new temporary directory, applies the row's edit there and runs `python -m
pytest -x -q -p no:cacheprovider` in it; a failing run kills the mutant.
The unmutated copy runs first and must pass.  The suite runs without
tests/test_fault_probe.py, which checks this table against the unmutated
source and so would fail on every mutated copy.

One line per row is printed.  The exit code is 1 when a row's outcome is
not the one expected (a mutant expected to be killed survives, an
equivalent one is killed, or an edit no longer applies), 2 when a row
number is not one of the table's or the unmutated copy fails, and 0
otherwise.  Nothing outside the temporary directories is written.  The
probe is not part of the test suite: one row takes from a few seconds to a
whole run of the suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KILLED = "killed"
EQUIVALENT = "equivalent"

# (file under src/qecalg, old text, new text, expected outcome, what the edit breaks or why
# it changes nothing)
MUTANTS = [
    ("stabilizer.py", "        if g != 1:\n            mat.append",
     "        if False:\n            mat.append", KILLED,
     "the Howell form without its annihilator rows"),
    ("code_analysis.py", "for x in a[1:d])", "for x in a[1:d + 1])", KILLED,
     "purity judged over A_1..A_d, one weight too many"),
    ("enumerators.py", "np.minimum(j, -j", "np.maximum(j, -j", KILLED,
     "Lee classes by the larger index of g and -g"),
    ("group_algebra.py", "out[1:] += acc[:, 1:].sum(axis=1)", "out[1:] += acc[:, 2:].sum(axis=1)",
     KILLED, "weight_reduce dropping digit 1"),
    ("stabilizer.py", "m * np.eye", "(2 * m) * np.eye", KILLED,
     "the phase check on lambda^(2m) E^(2m) instead of lambda^m E^m"),
    ("enumerators.py", "keep = (re != 0) | (im != 0)", "keep = re != 0", KILLED,
     "compositions kept only where the real part of their sum is nonzero"),
    ("kernel.py", "np.ascontiguousarray(mat, dtype=np.complex128).T",
     "np.ascontiguousarray(mat, dtype=np.complex128)", KILLED,
     "the complex GEMM against the untransposed matrix"),
    ("error_basis.py", "kernel = self.omega * np.conj(self.omega.T)",
     "kernel = np.conj(self.omega) * self.omega.T", KILLED, "the conjugated kernel"),
    ("group_algebra.py", "out *= 1 / mass", "out *= 1 / mass.conjugate()", KILLED,
     "C' scaled by 1/conj(M)"),
    ("enumerators.py", "(comps[:, None] + unit)", "(comps[:, None] | unit)", KILLED,
     "compositions extended by a bitwise or, so no count grows past 1"),
    ("stabilizer.py", "for minus in high.T:",
     "for minus in ordering.position[-ordering.order[high, 0] % ordering.m,"
     " -ordering.order[high, 1] % ordering.m].T:", EQUIVALENT,
     "the weights of low - offset counted as those of low + offset: the low rows span a "
     "subgroup L of S and the offsets a transversal H of its cosets, -H is one too, so "
     "both run over S once"),
    ("reports.py", "~(residuals <= tol)", "residuals > tol", KILLED,
     "every check's verdict rule letting a NaN residual pass"),
    ("stabilizer.py", "high[:, None, :]).reshape(len(low), -1)",
     "high[:, None, :]).reshape(len(low), -1)[::-1]",
     KILLED, "the labels of S, and so a stabilizer code's C, with their coordinates reversed"),
    ("fileio.py", 'np.diff(np.sort(index, kind="stable"))', "np.diff(index)", KILLED,
     "the duplicate-index check of a written block comparing only neighbouring lines"),
    ("stabilizer.py", "if v % g]", "if False]", KILLED,
     "the Howell form without its composite-m fix-up, so a pivot may not generate its column"),
    ("group_algebra.py", "out *= 1 / a.size", "out *= 1 / a.m ** a.n", KILLED,
     "the group-algebra product scaled by 1/m^n instead of 1/m^(2n)"),
    ("code_analysis.py", 'if isinstance(subject, CodeSpec) and subject.kind == "stabilizer":',
     "if False:", KILLED, "hamming_pair sending stabilizer codes down the dense branch"),
    ("code_analysis.py", "AlgebraElement):\n        return code\n",
     "AlgebraElement):\n        return transform(sys, code)\n", KILLED,
     "associated_element taking an element's transform for the element"),
    ("error_basis.py", "        raise RowSumViolation(report.detail)\n", "        pass\n", KILLED,
     "validate_custom_basis accepting a basis whose kernel rows do not sum to zero"),
    ("code_analysis.py", "[x // size for x in", "[x // (m ** n // size) for x in", KILLED,
     "the exact t9 image divided by K = m^n/|S| instead of |S|"),
    ("reports.py", "    def __bool__(self) -> bool:\n        return self.passed\n", "", KILLED,
     "a CheckReport truthy whatever its verdict"),
    ("cli.py", "if resids else None", "if resids and None not in ints else None", KILLED,
     "the rounding note dropped when only one side of the pair was printed rounded"),
    ("error_basis.py", "for arr in (self.omega, kernel, self.matrices):",
     "for arr in (self.omega, self.matrices):", KILLED,
     "a system's computed kernel left writeable"),
    ("error_basis.py", "(self.order[i] + self.order[j]) % self.m",
     "(self.order[i] - self.order[j]) % self.m", KILLED,
     "the index of alpha_i + alpha_j taken as that of alpha_i - alpha_j"),
    ("stabilizer.py", "differs.sum(axis=0, dtype=weight)", "differs[1:].sum(axis=0, dtype=weight)",
     KILLED, "weight counts that ignore the first qudit"),
    ("stabilizer.py", "for x in (before, factors))", "for x in (before[:-1], factors[:-1]))",
     KILLED, "a word's scalar without the omega factor of its last step"),
    ("fileio.py", '_FLOAT_PAIR = b"%.17g,%.17g"', '_FLOAT_PAIR = b"%.16g,%.16g"', KILLED,
     "every written complex number spelled with 16 significant digits, which may not read "
     "back as the same doubles"),
]


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)


def _apply(dest: Path, row) -> bool:
    """Apply the row's edit in the copy; False unless its old text occurs exactly once."""
    name, old, new = row[:3]
    path = dest / "src" / "qecalg" / name
    text = path.read_text()
    if text.count(old) != 1:
        return False
    path.write_text(text.replace(old, new))
    return True


def _suite_passes(base: Path, row=None) -> tuple[bool | None, float]:
    """Run the suite on a fresh copy of `base`, mutated by `row` if given:
    (passed, seconds), passed None when the row's edit does not apply."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory(prefix="qecalg-fault-") as tmp:
        dest = Path(tmp) / "tree"
        shutil.copytree(base, dest)
        if row is not None and not _apply(dest, row):
            return None, 0.0
        start = time.perf_counter()
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                              "--ignore=tests/test_fault_probe.py"],
                             cwd=dest, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
        return run.returncode == 0, time.perf_counter() - start


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for i, (name, _, _, expected, why) in enumerate(MUTANTS, 1):
            print(f"{i:2d} {expected:10s} {name}: {why}")
        return 0
    valid = [str(i) for i in range(1, len(MUTANTS) + 1)]
    wrong = [a for a in argv if a not in valid]
    if wrong:
        print(f"not a row: {' '.join(wrong)} (rows are 1..{len(MUTANTS)})", file=sys.stderr)
        return 2
    rows = [int(a) for a in argv or valid]
    with tempfile.TemporaryDirectory(prefix="qecalg-fault-base-") as base:
        _copy_tree(Path(base))
        return _probe(Path(base), rows)


def _probe(base: Path, rows: list[int]) -> int:
    """The unmutated run, then each of `rows`, all on copies of `base`."""
    passed, seconds = _suite_passes(base)
    print(f" 0 unmutated  {'passed' if passed else 'FAILED'} in {seconds:.1f} s", flush=True)
    if not passed:
        return 2
    bad = 0
    for i in rows:
        row = MUTANTS[i - 1]
        name, _, _, expected, why = row
        passed, seconds = _suite_passes(base, row)
        # a stale row's edit no longer applies: the table is out of date
        outcome = "stale" if passed is None else "survived" if passed else "killed"
        wrong = outcome != ("killed" if expected == KILLED else "survived")
        print(f"{i:2d} {outcome:10s} in {seconds:5.1f} s  [{expected}] {name}: {why}"
              f"{'  UNEXPECTED' if wrong else ''}", flush=True)
        bad += wrong
    print(f"# {len(rows)} rows, {bad} unexpected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
