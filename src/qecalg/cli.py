"""Command-line front end.

Subcommands: analyze, enumerate, verify, transform.  Exit codes: 0 on
success / check passed, 1 when a verification check ran and failed, 2 on
input or usage errors.  `--format machine` emits one stable JSON object
(everything except elapsed_s is reproducible for fixed inputs and seeds).

Every file argument is read by `_read`: a catalog name, else a path, read
once, parsed by a `fileio` reader and hashed, so each report names every
file it read with its sha256.  `fileio.read_input` tells a code from an
element by the first significant line, as the readers read it, and
`code_analysis` picks the route for either.  Each subcommand returns its
exit code, inputs, results and text lines, and `_dispatch` frames them in
the one report format.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from types import SimpleNamespace

import numpy as np

from . import __version__, catalog
from .code_analysis import (
    CodeSpec, analyze, associated_element, check_cs_ordering, hamming_pair, random_code)
from .enumerators import (
    HammingDistribution,
    _lee_class,
    complete_distribution,
    lee_distribution,
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


def _read(source: str, reader):
    """(display, payload, sha256) of a file argument: a catalog name, else a
    path, read once, parsed from its bytes by the `fileio` `reader`, hashed."""
    if source in catalog.CATALOG:
        display, raw = f"catalog:{source}", catalog.read(source)
    else:
        display, raw = source, read_bytes(source)
    return display, reader(display, raw), hashlib.sha256(raw).hexdigest()


def _basis_file(args, inputs: dict):
    """The error basis of --basis-file; its name and digest go into `inputs`."""
    inputs["basis_file"], sys_, inputs["basis_sha256"] = _read(args.basis_file, read_custom_basis)
    return sys_


def _system_for(m: int, args, inputs: dict):
    if not args.basis_file:
        return None  # the generalized Pauli basis, built only where a route reads it
    sys_ = _basis_file(args, inputs)
    if sys_.m != m:
        raise QecalgError(f"basis file has m={sys_.m} but the input needs m={m}")
    return sys_


def _fmt_complex(c: complex) -> list[float]:
    return [float(c.real), float(c.imag)]


def _coeff_text(v: int | complex) -> str:
    """A coefficient as text: an int as is, otherwise 12 significant digits
    with `+...i` unless the imaginary part is at most 1e-9 in size."""
    if isinstance(v, int):
        return str(v)
    return f"{v.real:.12g}" + ("" if abs(v.imag) <= 1e-9 else f"{v.imag:+.12g}i")


def _machine_entries(dist: HammingDistribution) -> list[list]:
    """[re, im] per coefficient; exact ints stay ints, whatever their size."""
    if dist.exact is not None:
        return [[a, 0.0] for a in dist.exact]
    return [_fmt_complex(c) for c in dist.a]


def _hamming_text(dist: HammingDistribution,
                  dual: HammingDistribution) -> tuple[str, str, str | None]:
    """The text of a Hamming pair (A, A'): its two distributions and the note
    on integer-rounded floats, with the largest residual of the float sides
    printed rounded, None when nothing was rounded (exact ints never are)."""
    pair = (dist, dual)
    ints = [d.rounded() for d in pair]
    a_txt, b_txt = ("(" + ",".join(map(_coeff_text, d.a if i is None else i)) + ")"
                    for d, i in zip(pair, ints))
    resids = [d.residual() for d, i in zip(pair, ints) if d.exact is None and i is not None]
    note = f"# coefficients integer-rounded, max residual {max(resids):.2e}" if resids else None
    return a_txt, b_txt, note


def _emit(report: dict, args) -> None:
    if args.format == "machine":
        print(json.dumps(report, sort_keys=True))
    else:
        for line in report["text"]:
            print(line)
        print(f"# qecalg {__version__}")
    sys.stdout.flush()  # a reader who has left is met here, not at interpreter exit


# --- subcommands: each returns (exit code, inputs, results, text lines) ---

def _cmd_analyze(args):
    display, payload, digest = _read(args.code, read_input)
    if not isinstance(payload, CodeSpec):
        raise QecalgError("analyze needs a code file, not an element file")
    inputs = {"code": display, "sha256": digest}
    sys_ = _system_for(payload.m, args, inputs)
    result = analyze(sys_, payload)
    a_txt, b_txt, note = _hamming_text(result.primary_distribution, result.dual_distribution)
    results = {
        "m": payload.m,
        "n": payload.n,
        "K": result.K,
        "d": result.d,
        "pure": result.pure,
        "mass": result.mass,
        "A": _machine_entries(result.primary_distribution),
        "A_dual": _machine_entries(result.dual_distribution),
        "path": result.path,
    }
    text = [f"K={result.K} d={result.d} pure={'yes' if result.pure else 'no'}; "
            f"A={a_txt}; A'={b_txt}"]
    if note:
        text.append(note)
    return EXIT_OK, inputs, results, text


def _dist_records(kind: str, element: AlgebraElement):
    """The machine records of the complete or Lee distribution of `element`
    and its text, one "key -> value" line per term."""
    dist = (complete_distribution if kind == "complete" else lee_distribution)(element)
    records = [list(pair) for pair in zip(
        dist.counts.tolist(), dist.values.view(np.float64).reshape(-1, 2).tolist())]
    text = [f"  {tuple(key)} -> {_coeff_text(complex(re, im))}" for key, (re, im) in records]
    return records, text


def _cmd_enumerate(args):
    display, payload, digest = _read(args.input, read_input)
    inputs = {"input": display, "sha256": digest}
    sys_ = _system_for(payload.m, args, inputs)
    lines = [f"{args.kind} distribution"]
    if args.kind == "hamming":
        dist, dual, _ = hamming_pair(sys_, payload)
        rec_c, rec_d = ([[[i], v] for i, v in enumerate(_machine_entries(d))] for d in (dist, dual))
        a_txt, b_txt, note = _hamming_text(dist, dual)
        lines += [f"C : A={a_txt}", f"C': A={b_txt}", *([note] if note else [])]
    else:
        if args.kind == "lee":
            _lee_class(payload.m)  # even m is refused before C is built
        sys_ = sys_ or build_pauli_system(payload.m)
        primary = associated_element(sys_, payload)
        dual = transform(sys_, primary)
        rec_c, text_c = _dist_records(args.kind, primary)
        rec_d, text_d = _dist_records(args.kind, dual)
        lines += ["C :", *text_c, "C':", *text_d]
    results = {"kind": args.kind, "C": rec_c, "C_dual": rec_d}
    return EXIT_OK, inputs, results, lines


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
            inputs = {}
            return _basis_file(args, inputs), None, inputs
        return build_pauli_system(args.m), None, {"pauli_m": args.m}
    if args.m is not None:
        raise QecalgError(f"--m is only for --identity lemma1/axioms; --identity {identity} "
                          f"takes m from its input, not from --m {args.m}")
    if args.random_code:
        m, n, k = _random_code_dims(args.random_code)
        payload = random_code(m, n, k, args.seed)
        inputs = {"random_code": args.random_code, "seed": args.seed}
    elif args.input is None:
        raise QecalgError("--identity cs needs a code or --random-code" if identity == "cs"
                          else "this identity needs an input (file/catalog) or --random-code")
    else:
        display, payload, digest = _read(args.input, read_input)
        if identity == "cs" and not isinstance(payload, CodeSpec):
            raise QecalgError("--identity cs needs a code, not an element")
        inputs = {"input": display, "sha256": digest}
    sys_ = _system_for(payload.m, args, inputs) or build_pauli_system(payload.m)
    if identity == "t8":
        _lee_class(payload.m)  # even m is refused before C is built
    return sys_, payload if identity == "cs" else associated_element(sys_, payload), inputs


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
    display, element, digest = _read(args.element, read_element)
    inputs = {"element": display, "sha256": digest}
    sys_ = _system_for(element.m, args, inputs) or build_pauli_system(element.m)
    dual = transform(sys_, element)
    out_path = args.output or (args.element + ".transformed")
    write_element(out_path, dual)
    c0, mass = dual.coeffs[0], element.mass
    results = {"mass": _fmt_complex(mass), "c0_dual": _fmt_complex(c0), "output": str(out_path)}
    text = [
        f"M={_coeff_text(mass)}",
        f"c'_0={c0.real:.12g}",
        f"wrote {out_path}",
    ]
    return EXIT_OK, inputs, results, text


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


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, with one subparser per command of `_COMMANDS`."""
    import argparse  # here, not at the top: a plain call never needs it

    parser = argparse.ArgumentParser(
        prog="qecalg",
        description="Group-algebra weight enumerators and MacWilliams-type "
                    "identities for quantum error-correcting codes.",
        epilog=f"built-in catalog codes: {', '.join(catalog.names())}",
    )
    parser.add_argument("--version", action="version", version=f"qecalg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, handler, arguments) in _COMMANDS.items():
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
        # argparse, for help, --version, errors and every other spelling
        args = build_parser().parse_args(argv)
    return _dispatch(args)


def _dispatch(args) -> int:
    """Run the parsed call and emit its report; an input error, printing the
    report included, prints one line and exits 2.  A reader of stdout that
    leaves early is no error: the rest of the report goes to os.devnull and
    the command keeps its exit code."""
    try:
        t0 = time.perf_counter()
        code, inputs, results, text = args.func(args)
        try:
            _emit({"tool": "qecalg", "version": __version__, "command": args.command,
                   "inputs": inputs, "results": results, "text": text,
                   "elapsed_s": time.perf_counter() - t0}, args)
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return code
    except (QecalgError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
