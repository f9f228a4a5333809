import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qecalg import (
    __version__,
    AlgebraElement,
    CodeSpec,
    associated_element,
    build_pauli_system,
    canonical_ordering,
    catalog,
    check_cs_ordering,
    double_transform_scaling_check,
    random_code,
    random_element,
    verify_complete_identity,
    verify_exact_identity,
    verify_hamming_identity,
    verify_kernel_row_sums,
    verify_basis_axioms,
    verify_lee_identity,
)
from qecalg.cli import main
from qecalg.enumerators import macwilliams_terms
from qecalg.fileio import (
    read_code,
    read_custom_basis,
    read_element,
    write_code,
    write_custom_basis,
    write_element,
)
from qecalg.reports import CheckReport

from conftest import explicit_operator


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_catalog_513(capsys):
    code, out, _ = run(capsys, "analyze", "513")
    assert code == 0
    assert "K=2 d=3 pure=yes" in out
    assert "A=(1,0,0,0,15,0)" in out
    assert "A'=(1,0,0,30,15,18)" in out


def test_analyze_full_space(capsys, tmp_path):
    full = CodeSpec.from_basis(2, 2, np.eye(4, dtype=complex))
    path = tmp_path / "full.code"
    write_code(path, full)
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "K=4 d=1" in out


def test_analyze_machine_format_stable(capsys):
    code, out1, _ = run(capsys, "analyze", "422", "--format", "machine")
    assert code == 0
    code, out2, _ = run(capsys, "analyze", "422", "--format", "machine")
    rep1, rep2 = json.loads(out1), json.loads(out2)
    rep1.pop("elapsed_s"), rep2.pop("elapsed_s")
    assert rep1 == rep2
    assert rep1["results"]["K"] == 4
    assert rep1["results"]["d"] == 2
    assert rep1["version"]
    assert rep1["inputs"]["sha256"]


def test_analyze_malformed_file(capsys, tmp_path):
    path = tmp_path / "broken.code"
    path.write_text("code v1\nm 2\nn 2\nkind stabilizer\n1,0 oops\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "line 5" in err


def test_enumerate_hamming(capsys):
    code, out, _ = run(capsys, "enumerate", "422", "--kind", "hamming")
    assert code == 0
    assert "A=(1,0,0,0,3)" in out
    assert "A=(1,0,18,24,21)" in out


def test_enumerate_lee_even_m_rejected(capsys):
    code, _, err = run(capsys, "enumerate", "513", "--kind", "lee")
    assert code == 2
    assert "odd m" in err


def test_enumerate_lee_qutrit_element(capsys, tmp_path):
    full_sum = AlgebraElement(3, 1, np.ones(9))
    path = tmp_path / "full.elem"
    write_element(path, full_sum)
    code, out, _ = run(capsys, "enumerate", str(path), "--kind", "lee")
    assert code == 0
    assert "(0, 1, 0, 0, 0) -> 2" in out  # merged +- pair


def test_verify_t9_and_lemma1(capsys):
    code, out, _ = run(capsys, "verify", "513", "--identity", "t9")
    assert code == 0 and "pass" in out
    code, out, _ = run(capsys, "verify", "--identity", "lemma1", "--m", "4")
    assert code == 0 and "pass" in out
    code, out, _ = run(capsys, "verify", "--identity", "axioms", "--m", "3")
    assert code == 0 and "pass" in out


def test_verify_cs_random_code(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "cs", "--random-code", "2,3,2", "--seed", "42"
    )
    assert code == 0
    assert "pass" in out


def test_verify_t8_qutrit(capsys):
    code, out, _ = run(
        capsys, "verify", "311qutrit", "--identity", "t8", "--trials", "10", "--seed", "5"
    )
    assert code == 0


def test_verify_missing_input(capsys):
    code, _, err = run(capsys, "verify", "--identity", "t9")
    assert code == 2
    assert "needs an input" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    import qecalg.cli as cli_mod
    monkeypatch.setattr(
        cli_mod, "verify_hamming_identity",
        lambda *a, **k: CheckReport(name="hamming-identity", passed=False, max_residual=1.0),
    )
    code, out, _ = run(capsys, "verify", "513", "--identity", "t9")
    assert code == 1
    assert "FAIL" in out


def test_transform_roundtrip(capsys, tmp_path):
    z0 = AlgebraElement.unit(2, 1)
    src = tmp_path / "z0.elem"
    write_element(src, z0)
    out_path = tmp_path / "z0.out"
    code, out, _ = run(capsys, "transform", str(src), "-o", str(out_path))
    assert code == 0
    assert "M=1" in out and "c'_0=1" in out
    ones = read_element(out_path)
    assert np.abs(ones.coeffs - 1.0).max() < 1e-12
    back_path = tmp_path / "z0.back"
    code, out, _ = run(capsys, "transform", str(out_path), "-o", str(back_path))
    assert code == 0
    assert np.abs(read_element(back_path).coeffs - z0.coeffs).max() < 1e-12


def test_transform_zero_mass(capsys, tmp_path):
    zero = AlgebraElement.zero(2, 1)
    src = tmp_path / "zero.elem"
    write_element(src, zero)
    code, _, err = run(capsys, "transform", str(src))
    assert code == 2
    assert "mass" in err.lower()
    # enumerate takes A' from t9, not from the transform, and says the same
    assert run(capsys, "enumerate", str(src), "--kind", "hamming") == (2, "", err)


@pytest.mark.parametrize("argv", [["transform", "ELEM", "-o", "OUT"],
                                  ["enumerate", "ELEM", "--kind", "hamming"],
                                  ["analyze", "CODE"],
                                  ["transform", "ELEM", "-o", "OUT", "--basis-file", "BASIS3"],
                                  ["enumerate", "ELEM", "--kind", "complete",
                                   "--basis-file", "BASIS3"],
                                  ["analyze", "CODE", "--basis-file", "BASIS2"],
                                  ["verify", "ELEM", "--identity", "t9", "--basis-file", "BASIS3"],
                                  ["verify", "--identity", "axioms", "--basis-file", "BASIS3"]])
def test_report_hashes_the_input_file_bytes(capsys, tmp_path, argv):
    # the digest of every file read is that of its bytes, a basis file's included
    paths = {"ELEM": tmp_path / "e.elem", "CODE": tmp_path / "c.code", "OUT": tmp_path / "e.out",
             "BASIS2": tmp_path / "b2.errorbasis", "BASIS3": tmp_path / "b3.errorbasis"}
    write_element(paths["ELEM"], random_element(3, 2, seed=4))
    write_code(paths["CODE"], catalog.load("513"))
    for m in (2, 3):
        write_custom_basis(paths[f"BASIS{m}"], m, build_pauli_system(m).matrices)
    argv = [str(paths.get(a, a)) for a in argv]
    code, out, _ = run(capsys, *argv, "--format", "machine")
    assert code == 0
    inputs = json.loads(out)["inputs"]

    def digest(path):
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    if not argv[1].startswith("--"):
        assert inputs["sha256"] == digest(argv[1])
    if "--basis-file" in argv:
        basis = argv[argv.index("--basis-file") + 1]
        assert (inputs["basis_file"], inputs["basis_sha256"]) == (basis, digest(basis))
    else:
        assert "basis_file" not in inputs and "basis_sha256" not in inputs


def test_transform_machine_roundtrip_identical_coeffs(capsys, tmp_path):
    e = AlgebraElement(2, 2, np.linspace(0.1, 1.6, 16) + 0.25j)
    src = tmp_path / "e.elem"
    write_element(src, e)
    out_path = tmp_path / "e.out"
    code, out, _ = run(capsys, "transform", str(src), "-o", str(out_path),
                       "--format", "machine")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["output"] == str(out_path)
    first = read_element(out_path).coeffs
    # re-emitting the ingested element must reproduce the file exactly
    write_element(tmp_path / "e2.elem", read_element(out_path))
    assert np.array_equal(read_element(tmp_path / "e2.elem").coeffs, first)


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/path.code")
    assert code == 2
    assert "error" in err


def test_custom_basis_file_flag(capsys, tmp_path):
    from qecalg import build_pauli_system
    from qecalg.fileio import write_custom_basis
    basis_path = tmp_path / "pauli2.errorbasis"
    write_custom_basis(basis_path, 2, np.asarray(build_pauli_system(2).matrices))
    code, out, _ = run(
        capsys, "verify", "--identity", "axioms", "--basis-file", str(basis_path)
    )
    assert code == 0 and "pass" in out
    code, out, _ = run(capsys, "analyze", "513", "--basis-file", str(basis_path))
    assert code == 0 and "K=2 d=3" in out
    # mismatched m between basis file and input is an input error
    code, _, err = run(capsys, "analyze", "311qutrit", "--basis-file", str(basis_path))
    assert code == 2 and "m=" in err


def test_verify_axioms_checks_a_basis_file_once(capsys, tmp_path, monkeypatch):
    # reading the file validates it, which runs the checker on the products
    # E_g E_h it formed; --identity axioms prints that report, so one real
    # run (one new report) forms the m^4 products once
    from qecalg import cli, error_basis
    real, reports = error_basis.verify_basis_axioms, []

    def spy(*args):
        reports.append(real(*args))
        return reports[-1]

    monkeypatch.setattr(error_basis, "verify_basis_axioms", spy)
    monkeypatch.setattr(cli, "verify_basis_axioms", spy)
    path = tmp_path / "pauli3.errorbasis"
    write_custom_basis(path, 3, np.asarray(build_pauli_system(3).matrices))
    code, out, _ = run(capsys, "verify", "--identity", "axioms", "--basis-file", str(path))
    assert code == 0 and f"max residual {reports[0].max_residual:.3e}" in out
    assert len(reports) == 2 and reports[1] is reports[0]
    # the built-in basis is checked when asked
    reports.clear()
    assert run(capsys, "verify", "--identity", "axioms", "--m", "3")[0] == 0
    assert len(reports) == 1


def test_version_line_in_text_reports(capsys):
    from qecalg import __version__
    code, out, _ = run(capsys, "analyze", "513")
    assert code == 0
    assert f"# qecalg {__version__}" in out


@pytest.mark.parametrize("header", ["m 2\nn -1", "m 2\nn 0", "m 1\nn 3", "m -2\nn 3"])
def test_element_header_out_of_range_is_input_error(capsys, tmp_path, header):
    path = tmp_path / "bad.elem"
    path.write_text(f"element v1\n{header}\n")
    code, _, err = run(capsys, "transform", str(path))
    assert code == 2
    assert "need m >= 2 and n >= 1" in err


def test_element_too_large_for_memory_is_input_error(capsys, tmp_path):
    # m=2, n=24: 4^24 complex coefficients, 4 PiB, more than any address space
    path = tmp_path / "huge.elem"
    path.write_text("element v1\nm 2\nn 24\n0 1,0\n")
    code, _, err = run(capsys, "transform", str(path))
    assert code == 2
    assert err.startswith("error: out of memory")
    assert "PiB" in err


_STABILIZER_N70 = "code v1\nm 2\nn 70\nkind stabilizer\n" + "0,1 " * 70 + "\n"


@pytest.mark.parametrize("argv, body, what", [
    (["enumerate", "FILE", "--kind", "hamming"], "element v1\nm 3\nn 100000000\n",
     "an element would need m^(2n)"),
    (["enumerate", "FILE", "--kind", "hamming"], "code v1\nm 3\nn 100000000\nkind basis\n",
     "a basis row would need m^n"),
    (["verify", "--random-code", "3,100000000,1", "--identity", "t9"], None,
     "a code vector would need m^n"),
    # one generator at n = 70: the exact route gives K = 2^69, but the dense
    # element C is refused before its subgroup is streamed
    (["enumerate", "FILE", "--kind", "complete"], _STABILIZER_N70, "an element would need m^(2n)"),
    (["verify", "FILE", "--identity", "t9"], _STABILIZER_N70, "an element would need m^(2n)"),
])
def test_a_size_no_array_can_index_exits_2_at_once(tmp_path, argv, body, what):
    # 3^(10^8) alone takes seconds to form as a Python integer: the size is
    # refused before any power of m is formed
    m, n = (re.search(r"m (\d+)\nn (\d+)", body).groups() if body
            else argv[argv.index("--random-code") + 1].split(",")[:2])
    import qecalg
    path = tmp_path / "huge"
    if body is not None:
        path.write_text(body)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qecalg.__file__)))
    done = subprocess.run([sys.executable, "-m", "qecalg.cli",
                           *(str(path) if a == "FILE" else a for a in argv)],
                          capture_output=True, text=True, env=env, timeout=5)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (f"error: m={m}, n={n} is too large: {what} entries, "
                           f"more than an array can index\n")


@pytest.mark.parametrize("argv", [["enumerate", "rm15", "--kind", "lee"],
                                  ["verify", "rm15", "--identity", "t8"]])
def test_lee_on_even_m_is_refused_before_c_is_built(capsys, monkeypatch, argv):
    from qecalg import cli

    def refuse(*args):
        raise AssertionError("C was built")

    monkeypatch.setattr(cli, "associated_element", refuse)
    assert run(capsys, *argv) == (2, "", "error: Lee machinery needs odd m, got m=2\n")


@pytest.mark.parametrize("value", ["nan,0", "0,inf", "-inf,0"])
def test_non_finite_element_is_input_error(capsys, tmp_path, value):
    path = tmp_path / "nan.elem"
    path.write_text(f"element v1\nm 2\nn 1\n0 1,0\n3 {value}\n")
    for argv in (["transform", str(path)], ["enumerate", str(path), "--kind", "hamming"],
                 ["verify", str(path), "--identity", "t9"]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "non-finite" in err and "line 5" in err


@pytest.mark.parametrize("argv", [
    ["transform", "ELEM"],
    ["enumerate", "ELEM", "--kind", "hamming"],
    ["enumerate", "ELEM", "--kind", "complete"],
    ["verify", "ELEM", "--identity", "t9"],
    ["verify", "ELEM", "--identity", "double"],
], ids=" ".join)
@pytest.mark.parametrize("body", ["0 1e308,0\n1 1e308,0\n",
                                  "0 1e308,0\n1 1e308,0\n2 1e308,0\n3 -1e308,0\n"],
                         ids=["mass", "weight-class"])
@pytest.mark.filterwarnings("error")  # numpy's overflow warnings are not printed either
def test_overflowing_mass_is_input_error(capsys, tmp_path, argv, body):
    # every coefficient is finite, their sum M is not; in the second body the
    # weight-1 sum A_1, which t9 turns into A', overflows too
    path = tmp_path / "big.elem"
    path.write_text("element v1\nm 2\nn 1\n" + body)
    code, out, err = run(capsys, *[str(path) if arg == "ELEM" else arg for arg in argv])
    assert (code, out) == (2, "")
    assert "error: mass (inf+0j) is not finite" in err
    assert [p.name for p in tmp_path.iterdir()] == ["big.elem"]


@pytest.mark.parametrize("argv", [
    ["transform", "ELEM"],
    ["enumerate", "ELEM", "--kind", "complete", "--format", "machine"],
    ["enumerate", "ELEM", "--kind", "hamming"],
    ["verify", "ELEM", "--identity", "double"],
    ["verify", "ELEM", "--identity", "t9"],
], ids=" ".join)
@pytest.mark.filterwarnings("error")  # numpy's overflow warnings are not printed either
def test_overflowing_transform_is_input_error(capsys, tmp_path, argv):
    # the mass M = 1 is finite, but C' and the t9 image of A overflow: no inf
    # or nan is written, printed or checked
    path = tmp_path / "big.elem"
    path.write_text("element v1\nm 2\nn 1\n0 1e308,0\n1 -1e308,0\n2 1,0\n")
    code, out, err = run(capsys, *[str(path) if arg == "ELEM" else arg for arg in argv])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "overflows" in err
    assert [p.name for p in tmp_path.iterdir()] == ["big.elem"]


@pytest.mark.parametrize(
    "suffix,body,fragment",
    [
        ("code", "code v1\nm 2\nn 0\nkind basis\n1,0\n", "need m >= 2 and n >= 1, got m=2, n=0"),
        ("code", "code v1\nm 1\nn 2\nkind stabilizer\n0,0 0,0\n", "got m=1, n=2"),
        ("code", "code v1\nm 2\nn 1\nkind basis\nnan,0 0,0\n", "non-finite"),
        ("code", "code v1\nm 2\nn 1\nkind stabilizer\n1,0\n0,1\n",
         "generators 0 and 1 do not commute"),
        ("errorbasis", "errorbasis v1\nm 1\nordering lee-paired\n1,0\n", "need m >= 2, got m=1"),
        ("code", "code v1\nm 2\nn 1\nkind stabilizer\n1,x\n", "line 5: bad integer in '1,x'"),
        ("code", "code v1\nm 99999999999999999999\nn 2\nkind stabilizer\n1,0 0,1\n",
         "m=99999999999999999999 is too large"),
    ],
    ids=["code-n0", "code-m1", "code-nan", "code-clash", "basis-m1", "code-bad-integer",
         "code-huge-m"],
)
def test_bad_code_or_basis_file_is_input_error(capsys, tmp_path, suffix, body, fragment):
    path = tmp_path / f"bad.{suffix}"
    path.write_text(body)
    argv = ["analyze", str(path)] if suffix == "code" else ["analyze", "513", "--basis-file", str(path)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert fragment in err


# --- verify: every input route, pinned against the library call ---

def _verify_inputs(tmp_path):
    """kind -> (argv naming the input, the element C the library checks)."""
    sys2 = build_pauli_system(2)
    code_path = tmp_path / "rand.code"
    write_code(code_path, random_code(2, 3, 2, 11))
    elem_path = tmp_path / "rand.elem"
    write_element(elem_path, random_element(2, 3, 5))
    return {
        "catalog": (["513"], associated_element(sys2, catalog.load("513"))),
        "code-file": ([str(code_path)], associated_element(sys2, read_code(code_path))),
        "element-file": ([str(elem_path)], read_element(elem_path)),
        "random-code": (["--random-code", "2,3,2"],
                        associated_element(sys2, random_code(2, 3, 2, 3))),
    }


def _library_check(identity, sys_, subject):
    """The library's report for `verify --identity ... --trials 4 --seed 3`."""
    return {
        "t4": lambda: verify_exact_identity(sys_, subject, 4, seed=3),
        "t6": lambda: verify_complete_identity(sys_, subject, 4, seed=3),
        "t8": lambda: verify_lee_identity(sys_, subject, 4, seed=3),
        "t9": lambda: verify_hamming_identity(sys_, subject),
        "double": lambda: double_transform_scaling_check(sys_, subject),
        "cs": lambda: check_cs_ordering(sys_, subject),
        "lemma1": lambda: verify_kernel_row_sums(sys_),
        "axioms": lambda: verify_basis_axioms(sys_),
    }[identity]()


def _assert_verify_matches(capsys, argv, identity, expected):
    code, out, err = run(capsys, "verify", *argv, "--identity", identity,
                         "--trials", "4", "--seed", "3", "--format", "machine")
    assert (code, err) == (0, "")
    assert expected.passed
    assert json.loads(out)["results"] == {
        "identity": identity, "passed": True, "max_residual": expected.max_residual,
        "failures": [str(f) for f in expected.failures], "seed": 3, "trials": 4,
    }


@pytest.mark.parametrize("kind", ["catalog", "code-file", "element-file", "random-code"])
@pytest.mark.parametrize("identity", ["t4", "t6", "t9", "double"])
def test_verify_matrix_element_identities(capsys, tmp_path, identity, kind):
    argv, subject = _verify_inputs(tmp_path)[kind]
    expected = _library_check(identity, build_pauli_system(2), subject)
    _assert_verify_matches(capsys, argv, identity, expected)


def test_verify_matrix_t8_and_cs(capsys):
    sys3 = build_pauli_system(3)
    subject = associated_element(sys3, catalog.load("311qutrit"))
    _assert_verify_matches(capsys, ["311qutrit"], "t8", _library_check("t8", sys3, subject))
    expected = _library_check("cs", build_pauli_system(2), catalog.load("422"))
    _assert_verify_matches(capsys, ["422"], "cs", expected)


@pytest.mark.parametrize("identity", ["lemma1", "axioms"])
@pytest.mark.parametrize("source", ["m", "basis-file"])
def test_verify_matrix_basis_checks(capsys, tmp_path, identity, source):
    if source == "m":
        argv, sys_ = ["--m", "3"], build_pauli_system(3)
    else:
        # a regauged qutrit basis: valid, but not the built-in one
        phases = np.exp(2j * np.pi * np.random.default_rng(2).random(9))
        phases[0] = 1.0
        mats = np.array([p * explicit_operator(3, a, b)
                         for p, (a, b) in zip(phases, canonical_ordering(3).order.tolist())])
        path = tmp_path / "regauged3.errorbasis"
        write_custom_basis(path, 3, mats)
        argv, sys_ = ["--basis-file", str(path)], read_custom_basis(path)
    _assert_verify_matches(capsys, argv, identity, _library_check(identity, sys_, None))


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--identity", "t4"], "this identity needs an input (file/catalog) or --random-code"),
        (["--identity", "cs"], "--identity cs needs a code or --random-code"),
        (["ELEMENT", "--identity", "cs"], "--identity cs needs a code, not an element"),
        (["513", "--identity", "lemma1"], "--identity lemma1 takes --m or --basis-file, not a code"),
        (["--identity", "lemma1"], "--identity lemma1 needs --m (or --basis-file)"),
        (["--identity", "axioms", "--random-code", "2,3,2"],
         "--identity axioms needs --m (or --basis-file)"),
        (["311qutrit", "--identity", "t6", "--basis-file", "BASIS2"],
         "basis file has m=2 but the input needs m=3"),
        (["--identity", "cs", "--random-code", "3,2,2", "--basis-file", "BASIS2"],
         "basis file has m=2 but the input needs m=3"),
    ],
    ids=["t4-no-input", "cs-no-input", "cs-element", "lemma1-code", "lemma1-no-m",
         "axioms-random-code", "t6-basis-m", "cs-basis-m"],
)
def test_verify_matrix_input_errors(capsys, tmp_path, argv, message):
    write_element(tmp_path / "e.elem", random_element(2, 2, 1))
    write_custom_basis(tmp_path / "p2.errorbasis", 2, np.asarray(build_pauli_system(2).matrices))
    paths = {"ELEMENT": str(tmp_path / "e.elem"), "BASIS2": str(tmp_path / "p2.errorbasis")}
    code, out, err = run(capsys, "verify", *[paths.get(a, a) for a in argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["513", "--random-code", "3,2,2", "--identity", "t9"],
         "give an input or --random-code, not both (got input '513' and --random-code 3,2,2)"),
        (["ELEMENT", "--random-code", "2,2,1", "--identity", "cs"],
         "give an input or --random-code, not both (got input 'ELEMENT' and --random-code 2,2,1)"),
        (["513", "--identity", "t9", "--m", "7"],
         "--m is only for --identity lemma1/axioms; --identity t9 takes m from its input, "
         "not from --m 7"),
        (["--random-code", "3,2,2", "--identity", "t4", "--m", "3"],
         "--m is only for --identity lemma1/axioms; --identity t4 takes m from its input, "
         "not from --m 3"),
        (["--identity", "lemma1", "--m", "2", "--basis-file", "BASIS2"],
         "give --m or --basis-file, not both (got --m 2 and --basis-file BASIS2)"),
        (["513", "--identity", "axioms", "--basis-file", "BASIS2"],
         "--identity axioms takes --m or --basis-file, not a code "
         "(got input '513' and --basis-file BASIS2)"),
        (["--identity", "lemma1", "--random-code", "2,3,2", "--m", "2"],
         "--identity lemma1 takes --m or --basis-file, not a code "
         "(got --random-code 2,3,2 and --m 2)"),
    ],
    ids=["input-random-code", "element-random-code", "t9-m", "t4-random-code-m",
         "lemma1-m-basis-file", "axioms-code-basis-file", "lemma1-random-code-m"],
)
def test_verify_refuses_two_sources(capsys, tmp_path, argv, message):
    # each source given is used or refused, naming both: none is dropped silently
    write_element(tmp_path / "e.elem", random_element(2, 2, 1))
    write_custom_basis(tmp_path / "p2.errorbasis", 2, np.asarray(build_pauli_system(2).matrices))
    paths = {"ELEMENT": str(tmp_path / "e.elem"), "BASIS2": str(tmp_path / "p2.errorbasis")}
    for name, path in paths.items():
        message = message.replace(name, path)
    code, out, err = run(capsys, "verify", *[paths.get(a, a) for a in argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("value", ["2,3", "2,x,2", "2,0,1"])
def test_verify_malformed_random_code(capsys, value):
    code, out, err = run(capsys, "verify", "--identity", "cs", "--random-code", value)
    assert (code, out) == (2, "")
    message = {"2,0,1": "need m >= 2 and n >= 1, got m=2, n=0"}.get(
        value, f"--random-code wants M,N,K (three integers), got '{value}'")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_without_trials_is_input_error(capsys, trials):
    code, out, err = run(capsys, "verify", "513", "--identity", "t4", "--trials", trials)
    assert (code, out, err) == (2, "", f"error: exact-identity needs trials >= 1, got {trials}\n")


# paths being watched -> the modes they were opened with; audit hooks cannot be
# removed, so one hook is installed once and does nothing while nothing is watched
_OPENS: dict = {}


def _record_open(event, args):
    if event == "open" and isinstance(args[0], (str, os.PathLike)):
        path = os.path.realpath(args[0])
        if path in _OPENS:
            _OPENS[path].append(args[1])


@pytest.fixture(scope="module")
def open_log():
    sys.addaudithook(_record_open)
    yield _OPENS
    _OPENS.clear()


@pytest.mark.parametrize("command", ["analyze", "enumerate", "verify", "transform"])
def test_each_input_is_read_once(capsys, tmp_path, open_log, command):
    code_path, elem_path, out_path = tmp_path / "c.code", tmp_path / "e.elem", tmp_path / "e.out"
    write_code(code_path, random_code(2, 2, 2, 1))
    write_element(elem_path, random_element(2, 2, 3))
    resource = resources.files("qecalg").joinpath("codes", catalog.CATALOG["513"])
    with resources.as_file(resource) as catalog_path:
        argv, source, written = {
            "analyze": (["analyze", str(code_path)], code_path, []),
            "enumerate": (["enumerate", str(elem_path), "--kind", "hamming"], elem_path, []),
            "verify": (["verify", "513", "--identity", "t9"], catalog_path, []),
            "transform": (["transform", str(elem_path), "-o", str(out_path)], elem_path, [out_path]),
        }[command]
        open_log.clear()
        open_log.update((os.path.realpath(p), []) for p in [source, *written])
        assert run(capsys, *argv)[0] == 0
    # one read of the input, one write of each output, and nothing else (the
    # audit event gives the raw mode, without "b")
    assert open_log == {os.path.realpath(source): ["r"],
                     **{os.path.realpath(p): ["w"] for p in written}}


def test_analyze_reports_its_path(capsys, tmp_path):
    # stabilizer input takes the exact route, basis input the dense one
    code, out, _ = run(capsys, "analyze", "311qutrit", "--format", "machine")
    results = json.loads(out)["results"]
    assert code == 0 and results["path"] == "exact"
    # exact integers: no round-off left in A' at m = 3
    assert results["A_dual"] == [[1.0, 0.0], [6.0, 0.0], [12.0, 0.0], [62.0, 0.0]]
    path = tmp_path / "full.code"
    write_code(path, CodeSpec.from_basis(2, 2, np.eye(4, dtype=complex)))
    code, out, _ = run(capsys, "analyze", str(path), "--format", "machine")
    assert code == 0 and json.loads(out)["results"]["path"] == "dense"


def test_rounding_note_only_on_the_dense_route(capsys, tmp_path):
    # exact-route coefficients are Python ints that nothing rounded; analyze
    # and enumerate --kind hamming print a Hamming pair by one helper
    note = "# coefficients integer-rounded, max residual"
    for call in (("analyze", "513"), ("enumerate", "513", "--kind", "hamming")):
        code, out, _ = run(capsys, *call)
        assert code == 0
        notes = [line for line in out.splitlines() if line.startswith("#")]
        assert notes == [f"# qecalg {__version__}"]
    path = tmp_path / "bell.code"
    path.write_text("code v1\nm 2\nn 2\nkind basis\n"
                    "0.70710678118654752,0 0,0 0,0 0.70710678118654752,0\n")
    elem = tmp_path / "bell.elem"
    write_element(elem, associated_element(build_pauli_system(2), read_code(path)))
    for call in (("analyze", str(path)), ("enumerate", str(path), "--kind", "hamming"),
                 ("enumerate", str(elem), "--kind", "hamming")):
        code, out, _ = run(capsys, *call)
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith(note)], call


def test_rounding_note_when_one_side_is_rounded(capsys, tmp_path):
    # A = (1, 2.000000001) is printed rounded and A' = (1, 0.33...) is not:
    # the rounded side's residual is still noted
    path = tmp_path / "one.elem"
    path.write_text("element v1\nm 2\nn 1\n0 1,0\n1 2.000000001,0\n")
    lines = ["hamming distribution", "C : A=(1,2)", "C': A=(1,0.333333332889)",
             "# coefficients integer-rounded, max residual 1.00e-09"]
    code, out, _ = run(capsys, "enumerate", str(path), "--kind", "hamming")
    assert code == 0 and out.splitlines() == [*lines, f"# qecalg {__version__}"]
    code, out, _ = run(capsys, "enumerate", str(path), "--kind", "hamming", "--format", "machine")
    assert code == 0 and json.loads(out)["text"] == lines


def test_analyze_inconsistent_phases_is_input_error(capsys, monkeypatch):
    # code files are phase-free, so a phased code reaches the CLI only
    # through the library; the exception is a QecalgError, exit 2
    empty = CodeSpec.from_stabilizers(2, 2, [[(0, 1), (0, 0)], [(0, 1), (0, 0)]], phases=[0, 2])
    monkeypatch.setattr("qecalg.cli.read_input", lambda path, data=None: empty)
    code, out, err = run(capsys, "analyze", "422")
    assert (code, out) == (2, "")
    assert "multiple of the identity" in err


def test_a_phased_code_is_checked_against_the_basis_file(capsys, monkeypatch, tmp_path):
    # <Z> at m = 3 is consistent in the Pauli basis, but with E_1 = Z regauged
    # by exp(2 pi i / 7) the generator cubed is no longer I: the phase check
    # reads the file's matrices, not the Pauli ones
    phased = CodeSpec.from_stabilizers(3, 1, [[(0, 1)]], phases=[0])
    monkeypatch.setattr("qecalg.cli.read_input", lambda path, data=None: phased)
    assert run(capsys, "analyze", "311qutrit")[0] == 0
    _regauged3(tmp_path / "regauged3.errorbasis")
    code, out, err = run(capsys, "analyze", "311qutrit",
                         "--basis-file", str(tmp_path / "regauged3.errorbasis"))
    assert (code, out) == (2, "")
    assert "generator 0 to the power 3 is exp(2*pi*i*0.428571) times the identity" in err


@pytest.mark.parametrize("m", [64, 251])
def test_exact_commands_at_large_m_build_no_pauli_system(capsys, monkeypatch, tmp_path, m):
    # without --basis-file, analyze and enumerate --kind hamming of a
    # stabilizer code read no error basis: the two-qudit code {X (x) X^-1,
    # Z (x) Z}, whose Pauli system would take m^4 entries per array
    def refuse(m):
        raise AssertionError("built the Pauli system")

    for module in ("cli", "code_analysis", "error_basis"):
        monkeypatch.setattr(f"qecalg.{module}.build_pauli_system", refuse)
    path = tmp_path / "two_qudit.code"
    path.write_text(f"code v1\nm {m}\nn 2\nkind stabilizer\n1,0 {m - 1},0\n0,1 0,1\n")
    pair = f"(1,0,{m * m - 1})"
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == f"K=1 d=2 pure=yes; A={pair}; A'={pair}"
    code, out, err = run(capsys, "enumerate", str(path), "--kind", "hamming")
    assert (code, err) == (0, "")
    assert out.splitlines()[:3] == ["hamming distribution", f"C : A={pair}", f"C': A={pair}"]


def test_cli_does_not_import_the_oracle():
    # nor does any other module of the package: the oracle only certifies
    import qecalg
    probe = ("import importlib, json, pkgutil, sys, qecalg\n"
             "names = [info.name for info in pkgutil.iter_modules(qecalg.__path__)\n"
             "         if info.name != 'oracle']\n"
             "for name in names:\n"
             "    importlib.import_module('qecalg.' + name)\n"
             "print(json.dumps([names, 'qecalg.oracle' in sys.modules]))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qecalg.__file__)))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env=env)
    names, imported = json.loads(done.stdout)
    assert {"cli", "code_analysis", "stabilizer", "fileio", "catalog"} <= set(names)
    assert imported is False


def test_a_reader_leaving_early_is_no_error(tmp_path):
    # as `qecalg enumerate ... | head -1`: the reader takes one line of a
    # report of about 650 KB, far past a pipe buffer, and closes the pipe
    import qecalg
    write_element(tmp_path / "big.elem", random_element(5, 3, seed=1))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qecalg.__file__)))
    argv = [sys.executable, "-m", "qecalg.cli", "enumerate", str(tmp_path / "big.elem"),
            "--kind", "complete"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"complete distribution\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (0, b"")


_ENUMERATE_513 = {
    "text": "hamming distribution\nC : A=(1,0,0,0,15,0)\nC': A=(1,0,0,30,15,18)\n",
    "C": [[[0], [1.0, 0.0]], [[1], [0.0, 0.0]], [[2], [0.0, 0.0]], [[3], [0.0, 0.0]],
          [[4], [15.0, 0.0]], [[5], [0.0, 0.0]]],
    "C_dual": [[[0], [1.0, 0.0]], [[1], [0.0, 0.0]], [[2], [0.0, 0.0]], [[3], [30.0, 0.0]],
               [[4], [15.0, 0.0]], [[5], [18.0, 0.0]]],
}


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_enumerate_hamming_computes_each_distribution_once(capsys, monkeypatch, tmp_path, fmt):
    # A' is t9 of A on every input: no route of enumerate --kind hamming
    # builds the transform C' or decides K, d and purity
    import qecalg.cli as cli
    import qecalg.code_analysis as code_analysis

    def refuse(*args):
        raise AssertionError("transform or analyze called")

    monkeypatch.setattr(cli, "transform", refuse)
    monkeypatch.setattr(code_analysis, "transform", refuse)
    monkeypatch.setattr(cli, "analyze", refuse)
    code_path, elem_path = tmp_path / "c.code", tmp_path / "e.elem"
    write_code(code_path, random_code(3, 2, 2, 4))
    write_element(elem_path, random_element(2, 2, 3))
    for source in (str(code_path), str(elem_path)):
        assert run(capsys, "enumerate", source, "--kind", "hamming", "--format", fmt)[0] == 0
    code, out, _ = run(capsys, "enumerate", "513", "--kind", "hamming", "--format", fmt)
    assert code == 0
    if fmt == "text":
        assert out == _ENUMERATE_513["text"] + "# qecalg 0.1.0\n"
    else:
        report = json.loads(out)
        assert report["results"] == {"kind": "hamming", "C": _ENUMERATE_513["C"],
                                     "C_dual": _ENUMERATE_513["C_dual"]}
        assert report["text"] == _ENUMERATE_513["text"].splitlines()


def _zz_chain(m, n):
    """Z_i Z_(i+1)^dagger on each neighbouring pair: a K = m code."""
    return CodeSpec.from_stabilizers(
        m, n, [[(0, 1) if j == i else (0, m - 1) if j == i + 1 else (0, 0) for j in range(n)]
               for i in range(n - 1)])


@pytest.mark.parametrize("source", [(3, 5), (3, 6), (5, 4), "rm15", "basis"], ids=str)
def test_enumerate_hamming_agrees_with_analyze(capsys, tmp_path, source):
    # one route to (A, A'): enumerate prints analyze's records bit for bit,
    # exact integers for stabilizer input and t9 of A for basis input
    target = str(tmp_path / "c.code")
    if source == "rm15":
        target = source
    elif source == "basis":
        write_code(target, random_code(3, 3, 2, seed=1))
    else:
        write_code(target, _zz_chain(*source))
    start = time.perf_counter()
    code, out, _ = run(capsys, "enumerate", target, "--kind", "hamming", "--format", "machine")
    elapsed = time.perf_counter() - start
    assert code == 0
    enumerated = json.loads(out)["results"]
    code, out, _ = run(capsys, "analyze", target, "--format", "machine")
    assert code == 0
    analyzed = json.loads(out)["results"]
    assert enumerated["C"] == [[[w], v] for w, v in enumerate(analyzed["A"])]
    assert enumerated["C_dual"] == [[[w], v] for w, v in enumerate(analyzed["A_dual"])]
    assert all(im == 0.0 for _, im in analyzed["A_dual"])
    if source == "rm15":  # the exact route: no element of 4^15 coefficients
        assert elapsed < 1.0


def test_exact_integers_above_2_to_the_53(capsys, tmp_path):
    # one generator ZZ...Z on 30 qubits: |S| = 2 and A' = t9(A) / 2, whose
    # middle terms are above 2^53, where complex128 no longer holds every integer
    path = tmp_path / "n30.code"
    path.write_text("code v1\nm 2\nn 30\nkind stabilizer\n" + " ".join(["0,1"] * 30) + "\n")
    want = [x // 2 for x in macwilliams_terms([1] + [0] * 29 + [1], 4, 30)]
    assert want[18] == 16754623805590125 and float(want[18]) != want[18]
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert f"A'=({','.join(map(str, want))})" in out
    code, out, _ = run(capsys, "enumerate", str(path), "--kind", "hamming")
    assert code == 0
    assert f"C': A=({','.join(map(str, want))})" in out
    # machine reports carry the same ints, not their nearest floats
    code, out, _ = run(capsys, "analyze", str(path), "--format", "machine")
    assert json.loads(out)["results"]["A_dual"] == [[x, 0.0] for x in want]
    code, out, _ = run(capsys, "enumerate", str(path), "--kind", "hamming", "--format", "machine")
    assert json.loads(out)["results"]["C_dual"] == [[[w], [x, 0.0]] for w, x in enumerate(want)]


def test_exact_integers_beyond_the_float_range(capsys, tmp_path):
    # Z on qudit 0 of 600 qubits: |S| = 2, and A' sums to 4^600 / 2, with terms
    # beyond 2^1024, which the float mirror of the exact ints holds as inf
    path = tmp_path / "n600.code"
    path.write_text("code v1\nm 2\nn 600\nkind stabilizer\n0,1 " + " ".join(["0,0"] * 599) + "\n")
    want = [x // 2 for x in macwilliams_terms([1, 1] + [0] * 599, 4, 600)]
    assert max(want) > 2 ** 1024
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert out.startswith(f"K={2 ** 599} d=1 pure=yes;")
    assert f"A'=({','.join(map(str, want))})" in out
    code, out, _ = run(capsys, "enumerate", str(path), "--kind", "hamming")
    assert code == 0
    assert f"C': A=({','.join(map(str, want))})" in out
    code, out, _ = run(capsys, "analyze", str(path), "--format", "machine")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["K"] == 2 ** 599 and results["A_dual"] == [[x, 0.0] for x in want]
    code, out, _ = run(capsys, "enumerate", str(path), "--kind", "hamming", "--format", "machine")
    assert code == 0
    assert json.loads(out)["results"]["C_dual"] == [[[w], [x, 0.0]] for w, x in enumerate(want)]


@pytest.mark.parametrize("argv", [
    ["analyze", "513"],
    ["enumerate", "422", "--kind", "hamming"],
    ["verify", "--identity", "axioms", "--m", "2"],
    ["transform", "ELEM", "-o", "OUT"],
], ids=lambda argv: argv[0])
def test_every_report_has_one_frame(capsys, tmp_path, argv):
    write_element(tmp_path / "e.elem", random_element(2, 1, 3))
    paths = {"ELEM": str(tmp_path / "e.elem"), "OUT": str(tmp_path / "e.out")}
    code, out, _ = run(capsys, *[paths.get(arg, arg) for arg in argv], "--format", "machine")
    assert code == 0
    report = json.loads(out)
    assert sorted(report) == ["command", "elapsed_s", "inputs", "results", "text", "tool",
                              "version"]
    assert report["command"] == argv[0]


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", " "])
def test_input_kind_sniff_splits_lines_like_splitlines(capsys, tmp_path, sep):
    # the kind is picked from the first significant line as the readers split
    # lines, at \n, \r\n and \r only, not at every str.splitlines boundary:
    # `sep` stays inside the comment, which swallows "element v1", so the file
    # is read as a code and its reader names the header it expected
    path = tmp_path / "sniff.txt"
    path.write_bytes(f"# note{sep}element v1\nm 2\nn 1\n0 1,0\n".encode())
    code, out, err = run(capsys, "enumerate", str(path), "--kind", "hamming")
    assert (code, out) == (2, "")
    assert "line 2: expected header 'code v1', got 'm 2'" in err


@pytest.mark.parametrize("comment", [4090, 4095, 20000])
def test_input_kind_sniff_reads_past_a_long_prefix(capsys, tmp_path, comment):
    # the first significant line does not end in the first decoded prefix: at
    # 4090 the prefix cuts "element v1" short, at 4095 it ends between the \r
    # and the \n of a line break, and 20000 needs two more prefixes
    path = tmp_path / "late.elem"
    write_element(path, random_element(2, 1, 2))
    path.write_bytes(b"#" * comment + b"\r\n" + path.read_bytes())
    code, out, _ = run(capsys, "enumerate", str(path), "--kind", "hamming")
    assert code == 0 and out.startswith("hamming distribution\n")


@pytest.mark.parametrize("command", ["analyze", "enumerate", "transform"])
def test_invalid_utf8_input_is_input_error_with_line(capsys, tmp_path, command):
    path = tmp_path / "bad.code"
    path.write_bytes(b"code v1\nm 2\nn 1\nkind stabilizer\n1,0 \xe9\n")
    argv = {"analyze": ["analyze", str(path)],
            "enumerate": ["enumerate", str(path), "--kind", "hamming"],
            "transform": ["transform", str(path)]}[command]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: line 5: not valid UTF-8 (invalid continuation byte)\n"


# --- the parser: a plain call is read from the argument table, anything else
# by argparse with only its own subcommand's parser ---

def _per_command_argvs():
    """For each command: help, a missing required argument, an unknown
    option, a bad choice, a non-integer --trials, the retired --threads and
    a dash-led value of an option that takes any string; and an extra
    positional and a repeated option."""
    return {
        "analyze": [[], ["513", "--bogus"], ["513", "--format", "json"],
                    ["513", "--trials", "x"], ["513", "--threads", "2"],
                    ["513", "--basis-file", "-x"], ["513", "422"],
                    ["513", "--format", "machine", "--format", "text"]],
        "enumerate": [["513"], ["513", "--kind", "hamming", "--bogus"],
                      ["513", "--kind", "weight"], ["513", "--kind", "lee", "--format", "json"],
                      ["513", "--kind", "lee", "--trials", "x"],
                      ["513", "--kind", "hamming", "--threads", "2"],
                      ["513", "--kind", "hamming", "--basis-file", "-x"]],
        "verify": [["513"], ["513", "--identity", "t4", "--bogus"],
                   ["513", "--identity", "t5"], ["513", "--identity", "t4", "--format", "json"],
                   ["513", "--identity", "t4", "--trials", "x"],
                   ["513", "--identity", "t9", "--threads", "2"],
                   ["--identity", "cs", "--random-code", "-x"]],
        "transform": [[], ["x.elem", "--bogus"], ["x.elem", "--format", "json"],
                      ["x.elem", "--trials", "x"], ["x.elem", "--threads", "2"],
                      ["x.elem", "-o", "-x"]],
    }


_PARSER_ARGVS = [[], ["-h"], ["--version"], ["bogus"], ["--", "analyze", "513"]] + [
    [command, *rest]
    for command, argvs in _per_command_argvs().items()
    for rest in [["-h"], *argvs]
]


def _outcome(call, argv):
    """(exit code, stdout, stderr) of `call(argv)`, elapsed_s taken out of a
    machine report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, re.sub(r'"elapsed_s": [^,}]+', '"elapsed_s": 0', out.getvalue()), err.getvalue()


def _full_tree(argv):
    from qecalg import cli
    return cli._dispatch(cli.build_parser().parse_args(argv))


def _assert_read_like_the_full_tree(argv):
    """_plain_args reads argv as the full tree does or turns it down, and main
    prints and exits as the full tree does, usage lines and help texts
    included."""
    from qecalg import cli
    plain = cli._plain_args(list(argv))
    if plain is not None:
        assert plain == vars(cli.build_parser().parse_args(list(argv)))
    assert _outcome(main, list(argv)) == _outcome(_full_tree, list(argv))


@pytest.mark.parametrize("argv", _PARSER_ARGVS, ids=" ".join)
def test_parser_matches_the_full_tree(argv):
    _assert_read_like_the_full_tree(argv)


@pytest.mark.parametrize("command", list(_per_command_argvs()))
def test_threads_is_a_usage_error(command):
    rest = next(a for a in _per_command_argvs()[command] if "--threads" in a)
    code, out, err = _outcome(main, [command, *rest])
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --threads 2\n")


def test_top_level_errors_name_the_command_argument():
    # argparse names the subcommand argument by its dest, "command"
    for argv, message in [([], "the following arguments are required: command"),
                          (["bogus"], "argument command: invalid choice: 'bogus'")]:
        code, out, err = _outcome(main, argv)
        assert (code, out) == (2, "") and message in err


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """An m=2 element file, an m=2 basis file and an output path."""
    root = tmp_path_factory.mktemp("cli")
    write_element(root / "e.elem", random_element(2, 2, 7))
    write_custom_basis(root / "p2.errorbasis", 2, np.asarray(build_pauli_system(2).matrices))
    return {"ELEM": str(root / "e.elem"), "BASIS": str(root / "p2.errorbasis"),
            "OUT": str(root / "e.out")}


# the values drawn for each positional and for each option without choices
# or an int type; "ELEM", "BASIS" and "OUT" name the files of `cli_files`
_DRAWN_VALUES = {
    "code": ["513", "422", "311qutrit", "missing.code"],
    "input": ["422", "311qutrit", "ELEM"],
    "element": ["ELEM", "missing.elem"],
    "--basis-file": ["BASIS", "missing.errorbasis"],
    "--random-code": ["2,2,1", "3,2,2", "2,3"],
    "-o": ["OUT"],
}
_DRAWN_INTS = ["1", "3", "0", " 2", "+2", "1_0"]
_BAD_VALUES = ["x", "", "-1", "-x", "json"]
_STRAYS = ["-h", "--version", "--", "--bogus"]


@st.composite
def _argvs(draw):
    """A well-formed argv for a command of the table, with up to three faults,
    its pieces shuffled.

    Well formed: each positional once and each option at most once (a
    required one always), spelled in full, with a good value.  A fault
    gives a piece a bad or dash-led value, abbreviates an option or writes
    it as --opt=value, repeats or drops a piece, or adds an extra positional
    or a stray -h, --version, -- or unknown option.
    """
    from qecalg import cli
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    pieces = []  # (the good values of the piece, its arguments)
    for flags, settings in cli._COMMANDS[command][2]:
        if "choices" in settings:
            values = settings["choices"]
        elif "type" in settings:
            values = _DRAWN_INTS
        else:
            values = _DRAWN_VALUES[flags[0]]
        if not flags[0].startswith("-"):
            if settings.get("nargs") != "?" or draw(st.booleans()):
                pieces.append((values, [draw(st.sampled_from(values))]))
        elif settings.get("required") or draw(st.booleans()):
            pieces.append((values, [draw(st.sampled_from(flags)), draw(st.sampled_from(values))]))
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["value", "abbreviate", "equals", "repeat", "drop",
                                      "extra", "stray"]))
        if fault == "extra":
            pieces.append(([], [draw(st.sampled_from(["513", "ELEM", "x"]))]))
        elif fault == "stray":
            pieces.append(([], [draw(st.sampled_from(_STRAYS))]))
        elif pieces:
            values, piece = pieces[draw(st.integers(0, len(pieces) - 1))]
            if fault == "value":
                piece[-1] = draw(st.sampled_from(_BAD_VALUES))
            elif fault == "drop":
                pieces.remove((values, piece))
            elif fault == "repeat":  # with a value of its own: argparse keeps the last
                pieces.append((values, [*piece[:-1], draw(st.sampled_from(values or piece))]))
            elif len(piece) == 2 and fault == "abbreviate":
                piece[0] = piece[0][:4]
            elif len(piece) == 2:
                piece[:] = [f"{piece[0]}={piece[1]}"]
    pieces = [piece for _, piece in pieces]
    return [command, *(arg for piece in draw(st.permutations(pieces)) for arg in piece)]


@settings(max_examples=300, deadline=None)
@given(argv=_argvs())
def test_plain_reader_matches_the_full_tree(cli_files, argv):
    # a drawn `-o x` or `--output=OUT` writes into the working directory, so
    # each call runs in a fresh one
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            _assert_read_like_the_full_tree([cli_files.get(arg, arg) for arg in argv])
        finally:
            os.chdir(cwd)


@pytest.mark.parametrize("argv", [
    ["analyze", "513", "--format", "machine"],
    ["enumerate", "ELEM", "--format", "machine", "--kind", "complete"],
    ["verify", "--identity", "cs", "--random-code", "2,2,1", "--seed", "4"],
    ["verify", "--m", "3", "--identity", "axioms"],
    ["transform", "-o", "OUT", "ELEM", "--basis-file", "BASIS"],
], ids=" ".join)
def test_plain_calls_are_read_from_the_table(cli_files, argv):
    argv = [cli_files.get(arg, arg) for arg in argv]
    from qecalg import cli
    assert cli._plain_args(argv) is not None
    _assert_read_like_the_full_tree(argv)


def test_parsers_built_by_a_plain_and_an_argparse_call(monkeypatch):
    import argparse
    from qecalg import cli
    parsers, subparsers = [], []
    init, add_parser = argparse.ArgumentParser.__init__, argparse._SubParsersAction.add_parser

    def spy_init(self, *args, **kwargs):
        parsers.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def spy_add_parser(self, name, **kwargs):
        subparsers.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy_init)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy_add_parser)
    # a plain call constructs no parser at all
    plain = _outcome(main, ["analyze", "513", "--format", "machine"])
    assert plain[0] == 0
    assert (parsers, subparsers) == ([], [])
    # an abbreviated option is left to argparse, which builds the full tree
    # and reads the same report
    assert _outcome(main, ["analyze", "513", "--form", "machine"]) == plain
    assert subparsers == list(cli._COMMANDS)
    assert parsers == ["qecalg"] + [f"qecalg {name}" for name in cli._COMMANDS]
    assert _outcome(main, ["analyze", "513", "--format=machine"]) == plain


def test_a_plain_call_imports_no_argparse():
    import qecalg
    probe = ("import sys, qecalg.cli; code = qecalg.cli.main(['analyze', '513']); "
             "print(code, 'argparse' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qecalg.__file__)))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env=env)
    assert done.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("argv", [
    ["--random-code", "2,2,1", "--identity", "t4"],
    ["ELEM3", "--identity", "t4"],
    ["ELEM3", "--identity", "t6"],
    ["ELEM3", "--identity", "t8"],
], ids=" ".join)
def test_negative_seed_is_a_usage_error(tmp_path, argv):
    # numpy refuses a negative seed; argparse turns it down first, naming --seed
    write_element(tmp_path / "e3.elem", random_element(3, 1, 2))
    argv = ["verify", *[str(tmp_path / "e3.elem") if a == "ELEM3" else a for a in argv],
            "--seed", "-1"]
    code, out, err = _outcome(main, argv)
    assert (code, out) == (2, "")
    assert err.endswith("qecalg verify: error: argument --seed: "
                        "invalid non-negative int value: '-1'\n")
    assert _outcome(main, [*argv[:-1], "0"])[0] == 0


# --- calls as a shell makes them: each row writes its files into an empty
# working directory, runs its commands through main, each of which must exit
# with the row's code, and finds the fragment in the last one's stdout, or
# in its stderr when the code is not 0 ---

def _regauged3(path, doubled=False):
    """The Pauli basis at m=3 regauged by exp(2 pi i k / 7), E_0 = I kept;
    `doubled` doubles matrix 4, which is then not unitary."""
    mats = np.exp(2j * np.pi * np.arange(9) / 7)[:, None, None] * build_pauli_system(3).matrices
    mats[4] *= 1 + doubled
    write_custom_basis(path, 3, mats)


_M17 = {"m17.code": "code v1\nm 17\nn 2\nkind stabilizer\n0,1 0,1\n1,0 16,0\n"}
_HUGE = {"huge.code": "code v1\nm 2\nn 2\nkind stabilizer\n99999999999999999999999,0 0,1\n"}
_DUPLICATE = "element v1\nm 2\nn 1\n0 1,0\n1 0.5,-0.25\n0 2,0\n"

_CALLS = [
    # A' of a 4^15-coefficient element, by the exact route and t9 alone
    ({}, ["enumerate rm15 --kind hamming"], 0,
     "C': A=(1,0,0,35,105,168,280,675,675,8680,5208,25305,8435,11760,1680,2529)"),
    # a Hamming pair that is not real: A = (1, i) and A' = (1, 1 - 2i)
    ({"imag.elem": "element v1\nm 2\nn 1\n0 1,0\n1 0,1\n"},
     ["enumerate imag.elem --kind hamming"], 0, "C : A=(1,0+1i)\nC': A=(1,1-2i)"),
    ({}, ["enumerate 422 --kind complete"], 0, "(0, 0, 2, 2) -> 6"),
    ({}, ["enumerate 311qutrit --kind lee"], 0, "(1, 2, 0, 0, 0) -> 6"),
    ({}, ["enumerate 311qutrit --kind lee --format machine"], 0, "(1, 2, 0, 0, 0) -> 6"),
    # m = 13, n = 1: complete compositions of 169 symbols, wider than one int64 key
    ({"m13.elem": "element v1\nm 13\nn 1\n0 1,0\n5 0.5,-0.25\n168 0.125,0\n"},
     ["enumerate m13.elem --kind complete --format machine"], 0, '"kind": "complete"'),
    # the dense route (A' from t9), on a basis file holding a Bell state
    ({"bell.code": "code v1\nm 2\nn 2\nkind basis\n"
                   "0.70710678118654752,0 0,0 0,0 0.70710678118654752,0\n"},
     ["analyze bell.code"], 0, "K=1 d=2 pure=yes; A=(1,0,3); A'=(1,0,3)"),
    # the Howell-form stream at m=4: a redundant generator and one of order 2
    ({"howell.code": "code v1\nm 4\nn 2\nkind stabilizer\n0,1 0,3\n0,2 0,2\n2,0 2,0\n"},
     ["analyze howell.code"], 0, "K=2 d=1 pure=yes; A=(1,0,7); A'=(1,2,29)"),
    # exponents beyond int64 read as their residues: the code is <X (x) Z>
    (_HUGE, ["analyze huge.code"], 0, "K=2 d=1 pure=yes; A=(1,0,1); A'=(1,2,5)"),
    (_HUGE, ["verify huge.code --identity t9"], 0, "hamming-identity: pass"),
    # m = 17, the first m whose ordering tables are uint16
    (_M17, ["analyze m17.code"], 0, "K=1 d=2 pure=yes; A=(1,0,288); A'=(1,0,288)"),
    (_M17, ["enumerate m17.code --kind lee --format machine"], 0, '"kind": "lee"'),
    # a regauged basis gives the Pauli basis's results; with matrix 4
    # doubled it is turned down by index
    ({"regauged3.errorbasis": _regauged3},
     ["analyze 311qutrit --basis-file regauged3.errorbasis"], 0,
     "K=3 d=1 pure=yes; A=(1,0,6,2); A'=(1,6,12,62)"),
    ({"regauged3.errorbasis": _regauged3},
     ["verify 311qutrit --identity t8 --basis-file regauged3.errorbasis"], 0,
     "lee-identity: pass"),
    ({"doubled3.errorbasis": lambda path: _regauged3(path, doubled=True)},
     ["analyze 311qutrit --basis-file doubled3.errorbasis"], 2,
     "matrix 4 (element (1, 2)) is not unitary"),
    # CRLF line ends and comments, at m=2 n=3: the real-route transform, a
    # transform of its output, and the double-transform identity
    ({"crlf.elem": "# an element with CRLF line ends\r\nelement v1\r\nm 2\r\nn 3\r\n"
                   "# coefficients\r\n0 1,0\r\n21 0.5,-0.25\r\n63 0.125,0\r\n"},
     ["transform crlf.elem -o crlf.out", "transform crlf.out -o crlf.twice",
      "verify crlf.elem --identity double"], 0, "double-transform: pass"),
    # a body spelled as write_element spells it, read in bulk with LF or CRLF
    # line ends: a duplicate index still exits 2 at its own line
    ({"dup.elem": _DUPLICATE}, ["transform dup.elem -o dup.out"], 2, "line 6"),
    ({"dupcrlf.elem": _DUPLICATE.replace("\n", "\r\n")}, ["transform dupcrlf.elem -o dup.out"],
     2, "line 6"),
    ({"e.elem": "element v1\nm 2\nn 1\n0 1,0\n"}, ["analyze e.elem"], 2,
     "analyze needs a code file, not an element file"),
    ({}, ["--help"], 0, "usage: qecalg"),
    ({}, ["analyze --help"], 0, "usage: qecalg analyze"),
    ({}, ["--version"], 0, f"qecalg {__version__}"),
    ({}, ["analyze 513 --bogus"], 2, "unrecognized arguments: --bogus"),
]


@pytest.mark.parametrize("files, commands, code, fragment", _CALLS,
                         ids=["; ".join(row[1]) for row in _CALLS])
def test_cli_calls(monkeypatch, tmp_path, files, commands, code, fragment):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        if callable(content):
            content(name)
        else:
            (tmp_path / name).write_bytes(content.encode())
    for command in commands:
        got, out, err = _outcome(main, command.split())
        assert got == code, (command, err)
    assert fragment in (out if code == 0 else err)
