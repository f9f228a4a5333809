"""Command-line front end.

Subcommands: analyze, enumerate, verify, transform.  Exit codes: 0 on
success / check passed, 1 when a verification check ran and failed, 2 on
input or usage errors.  `--format machine` emits one stable JSON object
(everything except elapsed_s is reproducible for fixed inputs and seeds).

A file input is read by `fileio.read_input`, which tells a code from an
element by the first significant line, as the readers read it.  Each
subcommand returns its exit code, inputs, results and text lines, and
`_dispatch` frames them in the one report format.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from types import SimpleNamespace

import numpy as np

from . import __version__, catalog
from .code_analysis import analyze, associated_element, check_cs_ordering, random_code
from .enumerators import (
    HammingDistribution,
    complete_distribution,
    hamming_distribution,
    lee_distribution,
    macwilliams_hamming,
    verify_exact_identity,
    verify_complete_identity,
    verify_lee_identity,
    verify_hamming_identity,
)
from .error_basis import build_pauli_system, verify_basis_axioms, verify_kernel_row_sums
from .errors import QecalgError
from .fileio import read_bytes, read_custom_basis, read_element, read_input, write_element
from .group_algebra import AlgebraElement, double_transform_scaling_check, transform

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _resolve_input(source: str):
    """A code (catalog name or code file) or an element file.

    Returns (display, kind, payload, digest) with kind in {code, element}.
    """
    if source in catalog.CATALOG:
        name, code, raw = catalog.resolve(source)
        return name, "code", code, _sha256(raw)
    raw = read_bytes(source)
    payload = read_input(source, raw)
    kind = "element" if isinstance(payload, AlgebraElement) else "code"
    return source, kind, payload, _sha256(raw)


def _system_for(m: int, args):
    if args.basis_file:
        sys_ = read_custom_basis(args.basis_file)
        if sys_.m != m:
            raise QecalgError(
                f"basis file has m={sys_.m} but the input needs m={m}"
            )
        return sys_
    return build_pauli_system(m)


def _fmt_complex(c: complex) -> list[float]:
    return [float(c.real), float(c.imag)]


def _distribution_text(dist: HammingDistribution) -> str:
    ints = dist.rounded()
    if ints is not None:
        return "(" + ",".join(map(str, ints)) + ")"
    return "(" + ",".join(f"{v.real:.6g}" for v in dist.a) + ")"


def _rounding_note(*dists: HammingDistribution) -> str | None:
    if any(d.rounded() is None for d in dists):
        return None
    resid = max(float(np.abs(d.a - np.round(d.a.real)).max()) for d in dists)
    return f"# coefficients integer-rounded, max residual {resid:.2e}"


def _emit(report: dict, args) -> None:
    if args.format == "machine":
        print(json.dumps(report, sort_keys=True))
    else:
        for line in report["text"]:
            print(line)
        print(f"# qecalg {__version__}")


# --- subcommands: each returns (exit code, inputs, results, text lines) ---

def _cmd_analyze(args):
    display, kind, payload, digest = _resolve_input(args.code)
    if kind != "code":
        raise QecalgError("analyze needs a code file, not an element file")
    sys_ = _system_for(payload.m, args)
    result = analyze(sys_, payload)
    a_txt = _distribution_text(result.primary_distribution)
    b_txt = _distribution_text(result.dual_distribution)
    results = {
        "m": payload.m,
        "n": payload.n,
        "K": result.K,
        "d": result.d,
        "pure": result.pure,
        "mass": result.mass,
        "A": [_fmt_complex(c) for c in result.primary_distribution.a],
        "A_dual": [_fmt_complex(c) for c in result.dual_distribution.a],
        "path": result.path,
    }
    text = [f"K={result.K} d={result.d} pure={'yes' if result.pure else 'no'}; "
            f"A={a_txt}; A'={b_txt}"]
    note = _rounding_note(result.primary_distribution, result.dual_distribution)
    if note:
        text.append(note)
    return EXIT_OK, {"code": display, "sha256": digest}, results, text


def _dist_records(kind: str, element: AlgebraElement):
    """The machine records of the complete or Lee distribution of `element`
    and its text, one "key -> value" line per term."""
    terms = (complete_distribution if kind == "complete" else lee_distribution)(element).terms
    records = [[list(key), _fmt_complex(val)] for key, val in sorted(terms.items())]
    text = []
    for key, (re, im) in records:
        val = f"{re:.12g}" if abs(im) <= 1e-9 else f"{re:.12g}{im:+.12g}i"
        text.append(f"  {tuple(key)} -> {val}")
    return records, text


def _cmd_enumerate(args):
    display, kind, payload, digest = _resolve_input(args.input)
    sys_ = _system_for(payload.m, args)
    lines = [f"{args.kind} distribution"]
    if args.kind == "hamming":
        if kind == "code":  # analyze's pair, so the exact route for stabilizer input
            result = analyze(sys_, payload)
            dist, dual = result.primary_distribution, result.dual_distribution
        else:  # t9 of A: C' is never built
            dist = hamming_distribution(payload)
            dual = HammingDistribution(payload.m, payload.n, macwilliams_hamming(dist, payload.mass))
        rec_c, rec_d = ([[[i], _fmt_complex(c)] for i, c in enumerate(d.a)] for d in (dist, dual))
        lines += [f"C : A={_distribution_text(dist)}", f"C': A={_distribution_text(dual)}"]
    else:
        primary = associated_element(sys_, payload) if kind == "code" else payload
        dual = transform(sys_, primary)
        rec_c, text_c = _dist_records(args.kind, primary)
        rec_d, text_d = _dist_records(args.kind, dual)
        lines += ["C :", *text_c, "C':", *text_d]
    results = {"kind": args.kind, "C": rec_c, "C_dual": rec_d}
    return EXIT_OK, {"input": display, "sha256": digest}, results, lines


# identity -> check of (system, subject, args); each lambda looks its check up
# in the module globals at call time, so a patched global takes effect
_VERIFY_CHECKS = {
    "t4": lambda sys_, c, args: verify_exact_identity(sys_, c, args.trials, seed=args.seed),
    "t6": lambda sys_, c, args: verify_complete_identity(sys_, c, args.trials, seed=args.seed),
    "t8": lambda sys_, c, args: verify_lee_identity(sys_, c, args.trials, seed=args.seed),
    "t9": lambda sys_, c, args: verify_hamming_identity(sys_, c),
    "lemma1": lambda sys_, _, args: verify_kernel_row_sums(sys_),
    "axioms": lambda sys_, _, args: verify_basis_axioms(sys_),
    "cs": lambda sys_, code, args: check_cs_ordering(sys_, code),
    "double": lambda sys_, c, args: double_transform_scaling_check(sys_, c),
}


def _random_code_dims(value: str) -> tuple[int, int, int]:
    try:
        m, n, k = (int(x) for x in value.split(","))  # a wrong count is a ValueError too
    except ValueError:
        raise QecalgError(f"--random-code wants M,N,K (three integers), got {value!r}") from None
    return m, n, k


def _verify_subject(args):
    """(system, subject, inputs) for `verify`.

    The subject is None for lemma1/axioms, which check the basis alone, the
    code for cs, and the element C for the other identities.
    """
    identity = args.identity
    # every source given must be used: two for the same input are an error
    code = f"input {args.input!r}" if args.input is not None else None
    if code and args.random_code:
        raise QecalgError(f"give an input or --random-code, not both "
                          f"(got {code} and --random-code {args.random_code})")
    code = code or (args.random_code and f"--random-code {args.random_code}")
    if identity in ("lemma1", "axioms"):
        if args.m is not None and args.basis_file:
            raise QecalgError(f"give --m or --basis-file, not both "
                              f"(got --m {args.m} and --basis-file {args.basis_file})")
        basis = (f"--m {args.m}" if args.m is not None
                 else args.basis_file and f"--basis-file {args.basis_file}")
        if code and basis:
            raise QecalgError(f"--identity {identity} takes --m or --basis-file, not a code "
                              f"(got {code} and {basis})")
        if args.input is not None:
            raise QecalgError(f"--identity {identity} takes --m or --basis-file, not a code")
        if not basis:
            raise QecalgError(f"--identity {identity} needs --m (or --basis-file)")
        if args.basis_file:
            return read_custom_basis(args.basis_file), None, {"basis_file": args.basis_file}
        return build_pauli_system(args.m), None, {"pauli_m": args.m}
    if args.m is not None:
        raise QecalgError(f"--m is only for --identity lemma1/axioms; --identity {identity} "
                          f"takes m from its input, not from --m {args.m}")
    if args.random_code:
        m, n, k = _random_code_dims(args.random_code)
        kind, payload = "code", random_code(m, n, k, args.seed)
        inputs = {"random_code": args.random_code, "seed": args.seed}
    elif args.input is None:
        raise QecalgError("--identity cs needs a code or --random-code" if identity == "cs"
                          else "this identity needs an input (file/catalog) or --random-code")
    else:
        display, kind, payload, digest = _resolve_input(args.input)
        if identity == "cs" and kind != "code":
            raise QecalgError("--identity cs needs a code, not an element")
        inputs = {"input": display, "sha256": digest}
    sys_ = _system_for(payload.m, args)
    if identity == "cs" or kind == "element":
        return sys_, payload, inputs
    return sys_, associated_element(sys_, payload), inputs


def _cmd_verify(args):
    sys_, subject, inputs = _verify_subject(args)
    check = _VERIFY_CHECKS[args.identity](sys_, subject, args)
    results = {
        "identity": args.identity,
        "passed": check.passed,
        "max_residual": check.max_residual,
        "failures": [str(f) for f in check.failures],
        "seed": args.seed,
        "trials": args.trials,
    }
    return (EXIT_OK if check.passed else EXIT_CHECK_FAILED), inputs, results, [check.summary()]


def _cmd_transform(args):
    raw = read_bytes(args.element)
    element = read_element(args.element, raw)
    sys_ = _system_for(element.m, args)
    dual = transform(sys_, element)
    out_path = args.output or (args.element + ".transformed")
    write_element(out_path, dual)
    c0, mass = dual.coeffs[0], element.mass
    results = {"mass": _fmt_complex(mass), "c0_dual": _fmt_complex(c0), "output": str(out_path)}
    text = [
        f"M={mass.real:.12g}" + (f"{mass.imag:+.12g}i" if abs(mass.imag) > 1e-9 else ""),
        f"c'_0={c0.real:.12g}",
        f"wrote {out_path}",
    ]
    return EXIT_OK, {"element": args.element, "sha256": _sha256(raw)}, results, text


def _non_negative_int(value: str) -> int:
    """An integer >= 0: numpy refuses a negative seed with a message that
    names no option."""
    number = int(value)
    if number < 0:
        raise ValueError(value)
    return number


_non_negative_int.__name__ = "non-negative int"  # argparse names the type in its error

# the flags and settings (argparse's add_argument keywords) of the options
# every subcommand takes
_FORMAT = (("--format",), {"choices": ["text", "machine"], "default": "text"})
_BASIS_FILE = (("--basis-file",), {"help": "custom error basis file (default: generalized Pauli)"})

# subcommand -> (help, handler, arguments), in help order.  An argument is
# (flags, settings): a positional has one flag without dashes, and settings
# are add_argument keywords.  build_parser and _plain_args both read this.
_COMMANDS = {
    "analyze": ("K, d, purity, and Hamming distributions of a code", _cmd_analyze, [
        (("code",), {"help": "catalog name or code file"}),
        _FORMAT, _BASIS_FILE,
    ]),
    "enumerate": ("weight distribution of a code or element and its dual", _cmd_enumerate, [
        (("input",), {"help": "catalog name, code file, or element file"}),
        (("--kind",), {"choices": ["complete", "lee", "hamming"], "required": True}),
        _FORMAT, _BASIS_FILE,
    ]),
    "verify": ("run one of the identity/axiom checks", _cmd_verify, [
        (("input",), {"nargs": "?", "help": "catalog name, code file, or element file"}),
        (("--identity",), {
            "required": True, "choices": list(_VERIFY_CHECKS),
            "help": "t4/t6/t8/t9: exact/complete/Lee/Hamming enumerator transform "
                    "identities; lemma1: phase-kernel row sums; axioms: error-basis "
                    "axioms; cs: coefficient ordering c <= c'; double: double-"
                    "transform scaling"}),
        (("--m",), {"type": int, "help": "level count for lemma1/axioms on the Pauli system"}),
        (("--trials",), {"type": int, "default": 20}),
        (("--seed",), {"type": _non_negative_int, "default": 0}),
        (("--random-code",), {"metavar": "M,N,K",
                              "help": "verify against a seeded random code instead of a file"}),
        _FORMAT, _BASIS_FILE,
    ]),
    "transform": ("transform an element file", _cmd_transform, [
        (("element",), {"help": "element file"}),
        (("-o", "--output"), {"help": "output path (default: <input>.transformed)"}),
        _FORMAT, _BASIS_FILE,
    ]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser: by default the full tree, or, when `command` names
    a subcommand, the top level with only that subcommand's parser.

    The second form parses every argv that starts with `command` as the full
    tree does, errors included: its usage line still lists all commands.
    """
    import argparse  # here, not at the top: a plain call never needs it

    parser = argparse.ArgumentParser(
        prog="qecalg",
        description="Group-algebra weight enumerators and MacWilliams-type "
                    "identities for quantum error-correcting codes.",
        epilog=f"built-in catalog codes: {', '.join(catalog.names())}",
    )
    parser.add_argument("--version", action="version", version=f"qecalg {__version__}")
    # one subcommand's parser shows the metavar the full tree derives from its
    # choices; setting it on the full tree too would rename `command` in its
    # invalid-choice and required errors
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else [command]:
        help_, handler, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        for flags, settings in arguments:
            p.add_argument(*flags, **settings)
        p.set_defaults(func=handler)
    return parser


def _dest(flags: tuple[str, ...]) -> str:
    """The attribute argparse stores an argument under."""
    name = next((f for f in flags if f.startswith("--")), flags[0])
    return name.lstrip("-").replace("-", "_")


def _plain_args(argv: list[str]) -> dict | None:
    """The attributes `build_parser().parse_args(argv)` gives, read straight
    from `_COMMANDS`, or None unless argv is a plain call.

    A plain call is a command, then its positionals and options in any order,
    each option spelled as in the table and followed by a value of its own
    that does not start with '-'.  Help, --version, abbreviations,
    '--opt=value', '--', unknown or repeated options, a missing or extra
    positional and a bad value all give None, and argparse reads them.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, arguments = _COMMANDS[argv[0]]
    by_flag = {flag: flags for flags, _ in arguments if flags[0].startswith("-") for flag in flags}
    given, positionals = {}, []
    rest = iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            positionals.append(arg)
            continue
        value = next(rest, "-")  # a missing value is turned down like an option
        if arg not in by_flag or by_flag[arg] in given or value.startswith("-"):
            return None
        given[by_flag[arg]] = value
    args = {"command": argv[0], "func": handler}
    for flags, settings in arguments:
        positional = not flags[0].startswith("-")
        if positional and positionals:
            given[flags] = positionals.pop(0)
        if flags in given:
            try:
                value = settings.get("type", str)(given[flags])
            except ValueError:
                return None
            if "choices" in settings and value not in settings["choices"]:
                return None
        elif settings.get("required") or positional and settings.get("nargs") != "?":
            return None
        else:
            value = settings.get("default")
        args[_dest(flags)] = value
    return None if positionals else args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    plain = _plain_args(argv)
    if plain is not None:
        args = SimpleNamespace(**plain)
    else:
        # argparse, for help, --version, errors and every other spelling; a
        # call that names its command builds only that subcommand's parser
        args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    return _dispatch(args)


def _dispatch(args) -> int:
    """Run the parsed call and emit its report; an input error, printing the
    report included, prints one line and exits 2."""
    try:
        t0 = time.perf_counter()
        code, inputs, results, text = args.func(args)
        _emit({"tool": "qecalg", "version": __version__, "command": args.command,
               "inputs": inputs, "results": results, "text": text,
               "elapsed_s": time.perf_counter() - t0}, args)
        return code
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
