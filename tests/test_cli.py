import json

import numpy as np
import pytest

from qecalg import AlgebraElement, CodeSpec
from qecalg.cli import main
from qecalg.fileio import read_element, write_code, write_element
from qecalg.reports import CheckReport


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


def test_threads_env_var(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("QECALG_THREADS", "3")
    from qecalg.cli import _default_threads
    assert _default_threads() == 3
    e = AlgebraElement(2, 3, np.linspace(0.0, 6.3, 64))
    src = tmp_path / "e.elem"
    write_element(src, e)
    code, out, _ = run(capsys, "transform", str(src), "--format", "machine")
    assert code == 0
    assert json.loads(out)["threads"] == 3


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
