"""Command-line front end.

Subcommands: analyze, enumerate, verify, transform.  Exit codes: 0 on
success / check passed, 1 when a verification check ran and failed, 2 on
input or usage errors.  `--format machine` emits one stable JSON object
(everything except elapsed_s is reproducible for fixed inputs and seeds).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__, catalog
from .code_analysis import CodeSpec, analyze, associated_element, check_cs_ordering, random_code
from .enumerators import (
    complete_distribution,
    hamming_distribution,
    lee_distribution,
    verify_exact_identity,
    verify_complete_identity,
    verify_lee_identity,
    verify_hamming_identity,
)
from .error_basis import build_pauli_system, verify_kernel_row_sums
from .errors import QecalgError
from .fileio import read_custom_basis, read_element, write_element
from .group_algebra import AlgebraElement, double_transform_scaling_check, transform
from .oracle import verify_basis_axioms

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _default_threads() -> int:
    raw = os.environ.get("QECALG_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _resolve_input(source: str):
    """A code (catalog name or code file) or an element file.

    Returns (display, kind, payload, digest) with kind in {code, element}.
    """
    if source in catalog.CATALOG:
        name, code, raw = catalog.resolve(source)
        return name, "code", code, _sha256(raw)
    with open(source, "rb") as fh:
        raw = fh.read()
    first = ""
    for line in raw.decode("utf-8", errors="replace").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            first = line
            break
    if first.startswith("element"):
        return source, "element", read_element(source), _sha256(raw)
    _, code, _ = catalog.resolve(source)
    return source, "code", code, _sha256(raw)


def _system_for(m: int, args):
    if getattr(args, "basis_file", None):
        sys_ = read_custom_basis(args.basis_file)
        if sys_.m != m:
            raise QecalgError(
                f"basis file has m={sys_.m} but the input needs m={m}"
            )
        return sys_
    return build_pauli_system(m)


def _element_pair(sys_, kind, payload, threads):
    """(C, C') for either input kind: C is built once, C' is its transform."""
    primary = associated_element(sys_, payload) if kind == "code" else payload
    return primary, transform(sys_, primary, threads=threads).element


def _fmt_complex(c: complex) -> list[float]:
    return [float(c.real), float(c.imag)]


def _distribution_text(dist_a: np.ndarray) -> str:
    rounded = np.round(dist_a.real)
    if np.abs(dist_a - rounded).max() <= 1e-6:
        return "(" + ",".join(str(int(v)) for v in rounded) + ")"
    return "(" + ",".join(f"{v.real:.6g}" for v in dist_a) + ")"


def _rounding_note(*dists: np.ndarray) -> str | None:
    resid = max(float(np.abs(d - np.round(d.real)).max()) for d in dists)
    if resid <= 1e-6:
        return f"# coefficients integer-rounded, max residual {resid:.2e}"
    return None


def _emit(report: dict, args) -> None:
    if args.format == "machine":
        print(json.dumps(report, sort_keys=True))
    else:
        for line in report["text"]:
            print(line)
        print(f"# qecalg {__version__}")


def _base_report(args, command: str, inputs: dict) -> dict:
    return {
        "tool": "qecalg",
        "version": __version__,
        "command": command,
        "inputs": inputs,
        "threads": args.threads,
        "text": [],
    }


# --- subcommands ---

def _cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    display, kind, payload, digest = _resolve_input(args.code)
    if kind != "code":
        raise QecalgError("analyze needs a code file, not an element file")
    sys_ = _system_for(payload.m, args)
    result = analyze(sys_, payload)
    a_txt = _distribution_text(result.primary_distribution.a)
    b_txt = _distribution_text(result.dual_distribution.a)
    report = _base_report(args, "analyze", {"code": display, "sha256": digest})
    report["results"] = {
        "m": payload.m,
        "n": payload.n,
        "K": result.K,
        "d": result.d,
        "pure": result.pure,
        "mass": result.mass,
        "A": [_fmt_complex(c) for c in result.primary_distribution.a],
        "A_dual": [_fmt_complex(c) for c in result.dual_distribution.a],
    }
    report["text"] = [
        f"K={result.K} d={result.d} pure={'yes' if result.pure else 'no'}; "
        f"A={a_txt}; A'={b_txt}"
    ]
    note = _rounding_note(result.primary_distribution.a, result.dual_distribution.a)
    if note:
        report["text"].append(note)
    report["elapsed_s"] = time.perf_counter() - t0
    _emit(report, args)
    return EXIT_OK


def _dist_records(kind: str, element: AlgebraElement):
    if kind == "hamming":
        dist = hamming_distribution(element)
        return [[[i], _fmt_complex(c)] for i, c in enumerate(dist.a)]
    if kind == "complete":
        terms = complete_distribution(element).terms
    else:
        terms = lee_distribution(element).terms
    return [[list(key), _fmt_complex(val)] for key, val in sorted(terms.items())]


def _cmd_enumerate(args) -> int:
    t0 = time.perf_counter()
    display, kind, payload, digest = _resolve_input(args.input)
    m = payload.m
    sys_ = _system_for(m, args)
    primary, dual = _element_pair(sys_, kind, payload, args.threads)
    rec_c = _dist_records(args.kind, primary)
    rec_d = _dist_records(args.kind, dual)
    report = _base_report(args, "enumerate", {"input": display, "sha256": digest})
    report["results"] = {"kind": args.kind, "C": rec_c, "C_dual": rec_d}
    lines = [f"{args.kind} distribution"]
    if args.kind == "hamming":
        lines.append(f"C : A={_distribution_text(hamming_distribution(primary).a)}")
        lines.append(f"C': A={_distribution_text(hamming_distribution(dual).a)}")
    else:
        for tag, recs in (("C ", rec_c), ("C'", rec_d)):
            lines.append(f"{tag}:")
            for key, (re, im) in recs:
                val = f"{re:.12g}" if abs(im) <= 1e-9 else f"{re:.12g}{im:+.12g}i"
                lines.append(f"  {tuple(key)} -> {val}")
    report["text"] = lines
    report["elapsed_s"] = time.perf_counter() - t0
    _emit(report, args)
    return EXIT_OK


def _verify_target_element(args, sys_holder: dict):
    """Element under test for t4/t6/t8/t9/double, plus input metadata."""
    if args.random_code:
        m, n, k = (int(x) for x in args.random_code.split(","))
        code = random_code(m, n, k, args.seed)
        sys_ = _system_for(m, args)
        sys_holder["sys"] = sys_
        return associated_element(sys_, code), {
            "random_code": args.random_code, "seed": args.seed,
        }
    if args.input is None:
        raise QecalgError("this identity needs an input (file/catalog) or --random-code")
    display, kind, payload, digest = _resolve_input(args.input)
    sys_ = _system_for(payload.m, args)
    sys_holder["sys"] = sys_
    element = associated_element(sys_, payload) if kind == "code" else payload
    return element, {"input": display, "sha256": digest}


def _cmd_verify(args) -> int:
    t0 = time.perf_counter()
    holder: dict = {}
    identity = args.identity

    if identity in ("lemma1", "axioms") and args.input is None and not args.basis_file:
        if args.m is None:
            raise QecalgError(f"--identity {identity} needs --m (or --basis-file)")
        sys_ = build_pauli_system(args.m)
        inputs = {"pauli_m": args.m}
    elif identity in ("lemma1", "axioms"):
        if args.basis_file:
            sys_ = read_custom_basis(args.basis_file)
            inputs = {"basis_file": args.basis_file}
        else:
            raise QecalgError(f"--identity {identity} takes --m or --basis-file, not a code")
    elif identity == "cs":
        if args.random_code:
            m, n, k = (int(x) for x in args.random_code.split(","))
            code = random_code(m, n, k, args.seed)
            inputs = {"random_code": args.random_code, "seed": args.seed}
        else:
            if args.input is None:
                raise QecalgError("--identity cs needs a code or --random-code")
            display, kind, code, digest = _resolve_input(args.input)
            if kind != "code":
                raise QecalgError("--identity cs needs a code, not an element")
            inputs = {"input": display, "sha256": digest}
        sys_ = _system_for(code.m, args)
    else:
        element, inputs = _verify_target_element(args, holder)
        sys_ = holder["sys"]

    if identity == "lemma1":
        check = verify_kernel_row_sums(sys_)
    elif identity == "axioms":
        check = verify_basis_axioms(sys_)
    elif identity == "cs":
        check = check_cs_ordering(sys_, code)
    elif identity == "double":
        check = double_transform_scaling_check(sys_, element)
    elif identity == "t4":
        check = verify_exact_identity(sys_, element, args.trials, seed=args.seed)
    elif identity == "t6":
        check = verify_complete_identity(sys_, element, args.trials, seed=args.seed)
    elif identity == "t8":
        check = verify_lee_identity(sys_, element, args.trials, seed=args.seed)
    else:
        check = verify_hamming_identity(sys_, element)

    report = _base_report(args, "verify", inputs)
    report["results"] = {
        "identity": identity,
        "passed": check.passed,
        "max_residual": check.max_residual,
        "failures": [str(f) for f in check.failures],
        "seed": args.seed,
        "trials": args.trials,
    }
    report["text"] = [check.summary()]
    report["elapsed_s"] = time.perf_counter() - t0
    _emit(report, args)
    return EXIT_OK if check.passed else EXIT_CHECK_FAILED


def _cmd_transform(args) -> int:
    t0 = time.perf_counter()
    element = read_element(args.element)
    with open(args.element, "rb") as fh:
        digest = _sha256(fh.read())
    sys_ = _system_for(element.m, args)
    result = transform(sys_, element, threads=args.threads)
    out_path = args.output or (args.element + ".transformed")
    write_element(out_path, result.element)
    c0 = result.element.coeffs[0]
    report = _base_report(args, "transform", {"element": args.element, "sha256": digest})
    report["results"] = {
        "mass": _fmt_complex(result.source_mass),
        "c0_dual": _fmt_complex(c0),
        "output": str(out_path),
    }
    report["text"] = [
        f"M={result.source_mass.real:.12g}"
        + (f"{result.source_mass.imag:+.12g}i" if abs(result.source_mass.imag) > 1e-9 else ""),
        f"c'_0={c0.real:.12g}",
        f"wrote {out_path}",
    ]
    report["elapsed_s"] = time.perf_counter() - t0
    _emit(report, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qecalg",
        description="Group-algebra weight enumerators and MacWilliams-type "
                    "identities for quantum error-correcting codes.",
        epilog=f"built-in catalog codes: {', '.join(catalog.names())}",
    )
    parser.add_argument("--version", action="version", version=f"qecalg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["text", "machine"], default="text")
        p.add_argument("--basis-file", help="custom error basis file (default: generalized Pauli)")
        p.add_argument("--threads", type=int, default=_default_threads(),
                       help="transform worker threads (env QECALG_THREADS)")

    p = sub.add_parser("analyze", help="K, d, purity, and Hamming distributions of a code")
    p.add_argument("code", help="catalog name or code file")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("enumerate", help="weight distribution of a code or element and its dual")
    p.add_argument("input", help="catalog name, code file, or element file")
    p.add_argument("--kind", choices=["complete", "lee", "hamming"], required=True)
    common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run one of the identity/axiom checks")
    p.add_argument("input", nargs="?", help="catalog name, code file, or element file")
    p.add_argument("--identity", required=True,
                   choices=["t4", "t6", "t8", "t9", "lemma1", "axioms", "cs", "double"],
                   help="t4/t6/t8/t9: exact/complete/Lee/Hamming enumerator transform "
                        "identities; lemma1: phase-kernel row sums; axioms: error-basis "
                        "axioms; cs: coefficient ordering c <= c'; double: double-"
                        "transform scaling")
    p.add_argument("--m", type=int, help="level count for lemma1/axioms on the Pauli system")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random-code", metavar="M,N,K",
                   help="verify against a seeded random code instead of a file")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("transform", help="transform an element file")
    p.add_argument("element", help="element file")
    p.add_argument("-o", "--output", help="output path (default: <input>.transformed)")
    common(p)
    p.set_defaults(func=_cmd_transform)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QecalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
