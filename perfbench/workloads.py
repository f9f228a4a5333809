"""The three workloads: their jobs, seeded inputs and output checks.

A job's size is fixed by its slot; the seed picks only its contents.  Every
expected value comes from reference.py (or, for small basis codes, from
qecalg's dense-matrix oracle, which no job ever calls).  A check returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import reference as ref

# Numerical tolerance of a floating-point output against its reference,
# relative to the largest reference entry (at least 1).
REL_TOL = 1e-9
# The program's own decision tolerance for identity checks.
IDENTITY_TOL = 1e-9


@dataclass
class Job:
    name: str
    argv: list | None = None          # CLI job: qecalg.cli.main(argv)
    spec: dict | None = None          # library job, built by the worker
    check: Callable | None = None     # check(output) -> list of problems
    expect: Callable | None = None    # computes the reference lazily
    quick: bool = False               # part of the self-check subset
    expected: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    cold: bool                        # one fresh worker per job
    pauli: tuple = (2, 3, 4)          # basis systems built at worker start
    custom: dict = field(default_factory=dict)
    jobs: list = field(default_factory=list)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _close(got, want, what: str) -> list[str]:
    got = np.asarray(got, dtype=np.complex128)
    want = np.asarray(want, dtype=np.complex128)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape}, expected {want.shape}"]
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    err = float(np.abs(got - want).max(initial=0.0))
    return [] if err <= REL_TOL * scale else [f"{what}: max error {err:.3e} (scale {scale:.3g})"]


def _pairs(values) -> np.ndarray:
    """[[re, im], ...] as written by machine reports -> complex array."""
    arr = np.asarray(values, dtype=float).reshape(-1, 2)
    return arr[:, 0] + 1j * arr[:, 1]


def _same_terms(got: dict, want: dict, what: str) -> list[str]:
    keys = set(got) | set(want)
    g = [got.get(k, 0) for k in sorted(keys)]
    w = [want.get(k, 0) for k in sorted(keys)]
    return _close(g, w, what)


def _machine(output) -> tuple[dict | None, list[str]]:
    if output["rc"] != 0:
        return None, [f"exit {output['rc']}: {output['stderr'].strip()[-300:]}"]
    lines = output["stdout"].strip().splitlines()
    try:
        return json.loads(lines[-1]), []
    except (IndexError, json.JSONDecodeError):
        return None, ["no machine report on stdout"]


# --- analyze-stabilizer -----------------------------------------------------

# (m, n, generators): K = m^(n - r)
# Two mid-size slots, (2, 9, 5) and (3, 6, 3), sit beside the 70-95 ms jobs
# so that the median job falls in a cluster of similar jobs.
SEEDED_STABILIZER = [(2, 8, 6), (2, 9, 5), (2, 9, 7), (2, 10, 8), (2, 11, 9),
                     (3, 5, 3), (3, 6, 3), (3, 6, 4), (3, 7, 5), (4, 4, 2), (4, 5, 3)]
QUICK_STABILIZER = {(2, 8, 6), (3, 5, 3), (4, 4, 2)}


def _check_analyze(job: Job, output) -> list[str]:
    report, problems = _machine(output)
    if report is None:
        return problems
    res, exp = report["results"], job.expected
    for key in ("K", "d", "pure"):
        if res[key] != exp[key]:
            problems.append(f"{key}={res[key]}, expected {exp[key]}")
    if "literature" in exp and (res["K"], res["d"], res["pure"]) != exp["literature"]:
        problems.append(f"(K, d, pure) = {(res['K'], res['d'], res['pure'])}, "
                        f"literature {exp['literature']}")
    problems += _close(_pairs(res["A"]), exp["A"], "A")
    problems += _close(_pairs(res["A_dual"]), exp["A_dual"], "A'")
    return problems


def analyze_stabilizer(seed: int, workdir: Path) -> Workload:
    rng = _rng(seed, 1)
    wl = Workload("analyze-stabilizer", cold=True)

    def add(name, target, m, n, gens, literature=None, quick=False):
        def expect():
            out = ref.stabilizer_summary(m, n, gens)
            if literature is not None:
                out["literature"] = literature
            return out
        wl.jobs.append(Job(name, argv=["analyze", target, "--format", "machine"],
                           check=_check_analyze, expect=expect, quick=quick))

    for name in inputs.CATALOG_CODES:
        m, n, gens, lit = inputs.standard_generators(inputs.CATALOG_CODES, name)
        add(f"catalog:{name}", name, m, n, gens, lit, quick=name == "513")
    for name in inputs.STANDARD_CODES:
        m, n, gens, lit = inputs.standard_generators(inputs.STANDARD_CODES, name)
        path = workdir / f"{name}.code"
        ref.write_stabilizer_code(path, m, n, gens)
        add(name, str(path), m, n, gens, lit, quick=name == "steane713")
    for m, n, r in SEEDED_STABILIZER:
        gens = inputs.random_stabilizer(rng, m, n, r)
        path = workdir / f"stab_m{m}_n{n}_r{r}.code"
        ref.write_stabilizer_code(path, m, n, gens)
        add(f"stabilizer m={m} n={n} r={r}", str(path), m, n, gens,
            quick=(m, n, r) in QUICK_STABILIZER)
    return wl


# --- elements-cli -------------------------------------------------------------

DENSE_TRANSFORM = [(2, 5), (2, 6), (2, 7), (2, 8), (3, 3), (3, 4), (3, 5), (4, 3), (4, 4)]
QUICK_TRANSFORM = {(2, 5), (3, 3), (4, 3)}
# (command, option, m, n, generators of the code whose C is written out)
SPARSE_JOBS = [
    ("enumerate", "hamming", 2, 9, 5), ("enumerate", "hamming", 2, 10, 6),
    ("enumerate", "complete", 2, 7, 4), ("enumerate", "complete", 2, 8, 5),
    ("enumerate", "complete", 3, 4, 2), ("enumerate", "complete", 4, 3, 2),
    ("enumerate", "lee", 3, 4, 2), ("enumerate", "lee", 3, 5, 3),
    ("verify", "t9", 2, 9, 5), ("verify", "t9", 2, 10, 6), ("verify", "t9", 3, 6, 3),
    ("verify", "double", 2, 9, 5), ("verify", "double", 2, 10, 6), ("verify", "double", 3, 5, 3),
]
QUICK_SPARSE = {("enumerate", "complete", 3, 4, 2), ("enumerate", "lee", 3, 4, 2),
                ("enumerate", "hamming", 2, 9, 5), ("verify", "t9", 2, 9, 5),
                ("verify", "double", 2, 9, 5)}


def _check_transform(job: Job, output) -> list[str]:
    report, problems = _machine(output)
    if report is None:
        return problems
    exp = job.expected
    res = report["results"]
    problems += _close(_pairs(res["mass"]), [exp["mass"]], "mass")
    problems += _close(_pairs(res["c0_dual"]), [exp["dual"][0]], "c'_0")
    m, n, coeffs = ref.read_element(exp["output"])
    if (m, n) != exp["shape"]:
        return problems + [f"output file has m={m} n={n}"]
    return problems + _close(coeffs, exp["dual"], "transformed element")


def _check_enumerate(job: Job, output) -> list[str]:
    report, problems = _machine(output)
    if report is None:
        return problems
    exp = job.expected
    res = report["results"]
    for tag, want in (("C", exp["C"]), ("C_dual", exp["C_dual"])):
        got = {tuple(key): complex(*val) for key, val in res[tag]}
        if exp["kind"] == "hamming":
            want = {(w,): v for w, v in enumerate(want)}
        problems += _same_terms(got, want, f"{exp['kind']} {tag}")
    return problems


def _check_verify(job: Job, output) -> list[str]:
    report, problems = _machine(output)
    if report is None:
        return problems
    res = report["results"]
    if res["passed"] is not job.expected["verdict"]:
        problems.append(f"passed={res['passed']}, reference verdict {job.expected['verdict']}")
    if res["max_residual"] > IDENTITY_TOL:
        problems.append(f"max_residual {res['max_residual']:.3e}")
    return problems


def _sparse_expect(command, option, m, n, coeffs, gens):
    """Reference for a code-like element: exact Hamming data from the
    stabilizer group, compositions from an independent transform."""
    summary = ref.stabilizer_summary(m, n, gens)
    dual = ref.transform(m, n, coeffs)
    if command == "enumerate" and option == "hamming":
        return {"kind": option, "C": summary["A"], "C_dual": summary["A_dual"]}
    if command == "enumerate":
        lee = option == "lee"
        return {"kind": option, "C": ref.composition_binning(m, n, coeffs, lee),
                "C_dual": ref.composition_binning(m, n, dual, lee)}
    if option == "t9":
        verdict = not _close(ref.hamming_binning(m, n, dual), summary["A_dual"], "t9")
    else:
        twice = ref.transform(m, n, dual)
        factor = coeffs.size / (coeffs.sum() * dual.sum())
        verdict = not _close(twice, factor * coeffs, "double transform")
    return {"verdict": verdict}


def elements_cli(seed: int, workdir: Path) -> Workload:
    rng = _rng(seed, 2)
    wl = Workload("elements-cli", cold=True)
    for m, n in DENSE_TRANSFORM:
        coeffs = inputs.dense_coefficients(rng, m, n)
        src = workdir / f"dense_m{m}_n{n}.elem"
        dst = workdir / f"dense_m{m}_n{n}.out.elem"
        ref.write_element(src, m, n, enumerate(coeffs))

        def expect(m=m, n=n, coeffs=coeffs, dst=dst):
            return {"shape": (m, n), "mass": coeffs.sum(), "dual": ref.transform(m, n, coeffs),
                    "output": dst}
        wl.jobs.append(Job(f"transform m={m} n={n}",
                           argv=["transform", str(src), "-o", str(dst), "--format", "machine"],
                           check=_check_transform, expect=expect,
                           quick=(m, n) in QUICK_TRANSFORM))
    for slot in SPARSE_JOBS:
        command, option, m, n, r = slot
        gens = inputs.random_stabilizer(rng, m, n, r)
        support = sorted(ref.flat_index(m, g) for g in ref.stabilizer_group(m, gens))
        coeffs = np.zeros((m * m) ** n, dtype=np.complex128)
        coeffs[support] = 1.0
        src = workdir / f"{command}_{option}_m{m}_n{n}.elem"
        ref.write_element(src, m, n, ((i, 1 + 0j) for i in support))
        flag = "--kind" if command == "enumerate" else "--identity"
        wl.jobs.append(Job(f"{command} {option} m={m} n={n}",
                           argv=[command, str(src), flag, option, "--format", "machine"],
                           check=_check_enumerate if command == "enumerate" else _check_verify,
                           expect=lambda a=slot[:2], m=m, n=n, c=coeffs, g=gens:
                               _sparse_expect(*a, m, n, c, g),
                           quick=slot in QUICK_SPARSE))
    return wl


# --- library-scan -------------------------------------------------------------

# (basis, m, n, K, job kinds)
BASIS_CODES = [("pauli", 2, 5, 2, ("analyze", "cs")), ("pauli", 2, 5, 3, ("analyze", "cs")),
               ("pauli", 2, 6, 2, ("analyze", "cs")), ("pauli", 2, 6, 4, ("analyze", "cs")),
               ("pauli", 3, 4, 3, ("analyze", "cs")),
               ("custom", 2, 4, 2, ("analyze", "cs")), ("custom", 2, 5, 2, ("analyze",)),
               ("custom", 3, 3, 2, ("analyze",))]
QUICK_CODES = {("pauli", 2, 5, 2), ("custom", 2, 4, 2)}
IDENTITY_JOBS = [("t4", 2, 7), ("t6", 2, 7), ("t4", 3, 5), ("t6", 3, 5), ("t8", 3, 5),
                 ("t4", 4, 4), ("t6", 4, 4)]
QUICK_IDENTITY = {("t8", 3, 5)}
DISTRIBUTION_JOBS = [("complete", 2, 7), ("complete", 3, 4), ("complete", 4, 3), ("lee", 3, 4)]
QUICK_DISTRIBUTION = {("lee", 3, 4)}
MULTIPLY_JOBS = [(2, 5), (3, 3)]
QUICK_MULTIPLY = {(3, 3)}
TRIALS = 16
# The oracle builds every m^n x m^n operator; above this size it is not run.
ORACLE_MAX_DIM = 256


def _oracle_reference(system_key, custom, m, n, vectors):
    """Distributions, d and purity from qecalg's dense-matrix oracle."""
    import qecalg
    from qecalg import oracle
    if system_key[0] == "pauli":
        system = qecalg.build_pauli_system(m)
    else:
        system = qecalg.validate_custom_basis(custom[m])
    code = qecalg.CodeSpec.from_basis(m, n, vectors)
    c = oracle.oracle_associated_element(system, code).coeffs
    c_dual = oracle.oracle_dual_element(system, code).coeffs
    if np.any(c.real > c_dual.real + 1e-9):
        raise ArithmeticError("oracle pair violates c <= c'")
    return ref.hamming_binning(m, n, c), ref.hamming_binning(m, n, c_dual)


def _float_t9(a: np.ndarray, m: int, n: int) -> np.ndarray:
    return np.array(ref.krawtchouk(m, n), dtype=float) @ a / a.sum()


def _check_analysis(job: Job, output) -> list[str]:
    exp = job.expected
    m, n, k = exp["m"], exp["n"], exp["K"]
    a, a_dual = np.asarray(output["A"]), np.asarray(output["A_dual"])
    problems = []
    if output["K"] != k:
        problems.append(f"K={output['K']}, basis has {k} rows")
    problems += _close(a[:1], [1.0], "c_0")
    if np.any(a.real > a_dual.real + 1e-9):
        problems.append("A_w > A'_w for some w, so c <= c' fails")
    problems += _close(_float_t9(a, m, n), a_dual, "t9 of A")
    if "oracle" in exp:
        o_a, o_dual = exp["oracle"]
        problems += _close(a, o_a, "A against oracle")
        problems += _close(a_dual, o_dual, "A' against oracle")
        d = min(w for w in range(1, n + 1) if o_dual[w].real - o_a[w].real > 1e-6)
        pure = bool(np.all(np.abs(o_a[1:d]) <= 1e-9))
        if (output["d"], output["pure"]) != (d, pure):
            problems.append(f"(d, pure) = {(output['d'], output['pure'])}, oracle {(d, pure)}")
    return problems


def _check_passed(job: Job, output) -> list[str]:
    problems = []
    if output["passed"] is not True:
        problems.append(f"check failed: {output}")
    if output["max_residual"] > IDENTITY_TOL:
        problems.append(f"max_residual {output['max_residual']:.3e}")
    if "trials" in job.expected and str(job.expected["trials"]) not in output["detail"]:
        problems.append(f"detail {output['detail']!r} does not name {job.expected['trials']} points")
    return problems


def _check_terms(job: Job, output) -> list[str]:
    return _same_terms(output, job.expected["terms"], job.name)


def _check_product(job: Job, output) -> list[str]:
    return _close(output, job.expected["product"], "product")


def library_scan(seed: int, workdir: Path) -> Workload:
    rng = _rng(seed, 3)
    custom = {m: inputs.regauged_pauli_matrices(rng, m) for m in (2, 3)}
    wl = Workload("library-scan", cold=False, custom=custom)
    for basis, m, n, k, kinds in BASIS_CODES:
        vectors = inputs.orthonormal_rows(rng, m, n, k)
        key = (basis, m)

        def expect(key=key, m=m, n=n, k=k, vectors=vectors):
            out = {"m": m, "n": n, "K": k}
            if m ** n <= ORACLE_MAX_DIM:
                out["oracle"] = _oracle_reference(key, custom, m, n, vectors)
            return out
        for kind in kinds:
            spec = {"kind": kind, "basis": key, "m": m, "n": n, "vectors": vectors}
            wl.jobs.append(Job(f"{kind} {basis} m={m} n={n} K={k}", spec=spec,
                               check=_check_analysis if kind == "analyze" else _check_passed,
                               expect=expect if kind == "analyze" else dict,
                               quick=(basis, m, n, k) in QUICK_CODES))
    for kind, m, n in IDENTITY_JOBS:
        spec = {"kind": kind, "basis": ("pauli", m), "m": m, "n": n, "trials": TRIALS,
                "seed": seed, "coeffs": [inputs.dense_coefficients(rng, m, n)]}
        wl.jobs.append(Job(f"{kind} m={m} n={n}", spec=spec, check=_check_passed,
                           expect=lambda: {"trials": TRIALS},
                           quick=(kind, m, n) in QUICK_IDENTITY))
    for kind, m, n in DISTRIBUTION_JOBS:
        coeffs = inputs.dense_coefficients(rng, m, n)
        spec = {"kind": kind, "m": m, "n": n, "coeffs": [coeffs]}
        wl.jobs.append(Job(f"{kind} m={m} n={n}", spec=spec, check=_check_terms,
                           expect=lambda m=m, n=n, c=coeffs, lee=kind == "lee":
                               {"terms": ref.composition_binning(m, n, c, lee)},
                           quick=(kind, m, n) in QUICK_DISTRIBUTION))
    for m, n in MULTIPLY_JOBS:
        a, b = inputs.dense_coefficients(rng, m, n), inputs.dense_coefficients(rng, m, n)
        spec = {"kind": "multiply", "m": m, "n": n, "coeffs": [a, b]}
        wl.jobs.append(Job(f"multiply m={m} n={n}", spec=spec, check=_check_product,
                           expect=lambda m=m, n=n, a=a, b=b:
                               {"product": ref.convolution(m, n, a, b)},
                           quick=(m, n) in QUICK_MULTIPLY))
    return wl


WORKLOADS = {
    "analyze-stabilizer": analyze_stabilizer,
    "elements-cli": elements_cli,
    "library-scan": library_scan,
}


def build(name: str, seed: int, workdir: Path, quick: bool = False) -> Workload:
    """Generate a workload's inputs and compute the reference of each job."""
    wl = WORKLOADS[name](seed, workdir)
    if quick:
        wl.jobs = [job for job in wl.jobs if job.quick]
    for job in wl.jobs:
        job.expected = job.expect()
    return wl
