#!/usr/bin/env python3
"""End-to-end benchmark of qecalg: three workloads, every output checked.

    python3 perfbench/run.py --workload analyze-stabilizer --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --self-check

Run from the root of a source checkout; the program is imported from its
src/ directory.  Jobs run in worker processes (worker.py) with BLAS pinned
to one thread; each job is timed inside its worker from the call to the
return, so interpreter start-up is kept out of job times and reported once,
as setup_s.  A run repeats whole rounds of its workload's job list until
--seconds have passed, so every run has the same mix of jobs.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced run,
which alternates untraced and traced rounds to measure the tracing overhead.
See perfbench/README.md for the workloads and the meaning of each metric.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from worker import send  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"

END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s",
              "cpu_per_job_s": "s", "peak_rss_mb": "MB"}
MESSAGE_TIMEOUT_S = 120.0


class BenchError(Exception):
    """The benchmark could not run (as opposed to a job that failed)."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    env.pop("QECALG_THREADS", None)
    return env


def _read_exact(fd: int, size: int, deadline: float) -> bytes:
    chunks, remaining = [], size
    while remaining:
        wait = deadline - time.monotonic()
        if wait <= 0 or not select.select([fd], [], [], wait)[0]:
            raise BenchError("worker did not answer in time")
        chunk = os.read(fd, min(remaining, 1 << 20))
        if not chunk:
            raise BenchError("worker exited without answering")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class Worker:
    """One worker process; construction returns once the worker is ready."""

    def __init__(self, env: dict, init: dict, traced: bool):
        argv = [sys.executable, str(BENCH_DIR / "worker.py")] + (["--trace"] if traced else [])
        started = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, cwd=ROOT)
        try:
            self.ready = self.request(init)
        except BaseException:
            self.close()
            raise
        self.ready_s = time.perf_counter() - started
        package = Path(self.ready["package"]).resolve()
        if SRC.resolve() not in package.parents:
            self.close()
            raise BenchError(f"worker imported qecalg from {package}, not from {SRC}")

    def request(self, msg):
        send(self.proc.stdin, msg)
        deadline = time.monotonic() + MESSAGE_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        (size,) = struct.unpack("<Q", _read_exact(fd, 8, deadline))
        return pickle.loads(_read_exact(fd, size, deadline))

    def close(self):
        if self.proc.poll() is None:
            try:
                send(self.proc.stdin, ("exit",))
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()


class Run:
    """Everything one run measured, and the checks of its outputs."""

    def __init__(self, workload):
        self.wl = workload
        self.init = {"pauli": list(workload.pauli), "custom": workload.custom}
        self.starts = []          # (ready_s, import_s, basis_s) per worker start
        self.records = []         # (traced, record) per timed job
        self.rounds = defaultdict(int)
        self.problems = []

    def start(self, env, traced=False) -> Worker:
        w = Worker(env, self.init, traced)
        self.starts.append((w.ready_s, w.ready["import_s"], w.ready["basis_s"]))
        return w

    def take(self, job, record, traced, timed=True) -> None:
        failed = not record["ok"] or (job.argv is not None and record["output"]["rc"] != 0)
        record["failed"] = failed
        if timed:
            self.records.append((traced, record))
        if failed:
            detail = record["error"] or record["output"]["stderr"]
            print(f"[{self.wl.name}] job failed: {job.name}: {detail.strip()[-400:]}",
                  file=sys.stderr)
            return
        try:
            problems = job.check(job, record["output"])
        except Exception as exc:  # a check that cannot run is a wrong output
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        for p in problems:
            self.problems.append(f"{job.name}: {p}")
            print(f"[{self.wl.name}] wrong output: {job.name}: {p}", file=sys.stderr)

    def cold_round(self, env, traced: bool) -> None:
        for job in self.wl.jobs:
            w = self.start(env, traced)
            try:
                record = w.request(("cli", job.argv, traced))
            finally:
                w.close()
            self.take(job, record, traced)
        self.rounds[traced] += 1

    def warm_round(self, w: Worker, traced: bool, timed=True) -> None:
        for job, record in zip(self.wl.jobs, w.request(("round", traced))):
            self.take(job, record, traced, timed)
        if timed:
            self.rounds[traced] += 1


def measure(wl, seconds: float, trace: bool) -> Run:
    """Repeat whole rounds until `seconds` have passed (a traced run repeats
    an untraced round followed by a traced one)."""
    env = worker_env()
    run = Run(wl)
    modes = (False, True) if trace else (False,)
    if wl.cold:
        t0 = time.perf_counter()
        while True:
            for traced in modes:
                run.cold_round(env, traced)
            if time.perf_counter() - t0 >= seconds:
                return run
    w = run.start(env, traced=trace)
    try:
        specs = [job.spec for job in wl.jobs]
        if w.request(("load", specs)) != "loaded":
            raise BenchError("worker did not load the jobs")
        run.warm_round(w, False, timed=False)
        t0 = time.perf_counter()
        while True:
            for traced in modes:
                run.warm_round(w, traced)
            # a fresh start between rounds, only to measure set-up
            run.start(env).close()
            if time.perf_counter() - t0 >= seconds:
                return run
    finally:
        w.close()


def end_to_end(run: Run) -> dict:
    done = [r for traced, r in run.records if not traced and not r["failed"]]
    times = [r["seconds"] for r in done]
    return {
        "setup_s": statistics.median(s[0] for s in run.starts),
        "jobs_per_s": len(done) / sum(times),
        "job_p50_s": statistics.median(times),
        "cpu_per_job_s": sum(r["cpu"] for r in done) / len(done),
        "peak_rss_mb": max(r["rss_kb"] for _, r in run.records) / 1024.0,
    }


def per_layer(run: Run) -> dict:
    """Per-layer figures per traced round."""
    import tracing
    rounds = run.rounds[True]
    totals = dict.fromkeys(tracing.metric_names(), 0.0)
    for traced, r in run.records:
        if traced and r["layers"]:
            for key, val in r["layers"].items():
                totals[key] += val
    out = {k: v / rounds for k, v in totals.items()}
    out["kernel.gflop_per_s"] = (out["kernel.flop"] / out["kernel.self_s"] / 1e9
                                 if out["kernel.self_s"] > 0 else 0.0)
    moved = out["fileio.bytes_read"] + out["fileio.bytes_written"]
    out["fileio.mb_per_s"] = moved / 1e6 / out["fileio.self_s"] if out["fileio.self_s"] > 0 else 0.0
    out["setup.import_s"] = statistics.median(s[1] for s in run.starts)
    out["setup.basis_s"] = statistics.median(s[2] for s in run.starts)
    summed = {mode: sum(r["seconds"] for t, r in run.records if t == mode) for mode in (False, True)}
    out["trace.overhead_s"] = (summed[True] - summed[False]) / rounds
    return out


PER_LAYER_UNITS = {"self_s": "s", "calls": "count", "flop": "flop", "bytes_moved": "B",
                   "gflop_per_s": "GFLOP/s", "bytes_read": "B", "bytes_written": "B",
                   "mb_per_s": "MB/s"}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    suffix = name.split(".", 1)[1]
    return PER_LAYER_UNITS.get(suffix, "s")


def environment() -> str:
    """Kernel backend, BLAS and interpreter the workers see (same as here)."""
    import platform
    import numpy
    try:
        from qecalg.kernel import backend_name
        backend = backend_name()
    except ImportError:
        backend = "n/a"
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (f"kernel backend {backend}; BLAS {blas.get('name')} {blas.get('version')}, "
            f"{os.environ['OPENBLAS_NUM_THREADS']} thread; numpy {numpy.__version__}; "
            f"Python {platform.python_version()}; {os.cpu_count()} CPUs")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    workdir = WORK_DIR / f"{name}-s{seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.build(name, seed, workdir)
        run = measure(wl, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = per_layer(run) if trace else end_to_end(run)
    attempted = len(run.records)
    failed = sum(r["failed"] for _, r in run.records)
    rounds = run.rounds[False]
    print(f"# {name}: {environment()}")
    print(f"# {name}: seed {seed}, {len(wl.jobs)} jobs per round, {rounds} round(s)"
          + (f" untraced + {run.rounds[True]} traced" if trace else "")
          + f", {len(run.starts)} worker starts")
    print(f"# {name}: attempted {attempted}, failed {failed}, "
          f"wrong outputs {len(run.problems)}")
    for key, val in metrics.items():
        print(f"# {name}: {key} = {val:.6g} {unit_of(key)}")
    return {"correct": not run.problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}


# --- self-check ---------------------------------------------------------------

def _own_reference_checks() -> list[str]:
    """The benchmark's reference code against known values and brute force."""
    import numpy as np
    import inputs
    import reference as ref
    problems = []
    m, n, gens, _ = inputs.standard_generators(inputs.CATALOG_CODES, "513")
    s = ref.stabilizer_summary(m, n, gens)
    if (s["A"], s["A_dual"], s["K"], s["d"], s["pure"]) != (
            [1, 0, 0, 0, 15, 0], [1, 0, 0, 30, 15, 18], 2, 3, True):
        problems.append(f"[[5,1,3]] reference gives {s}")
    rng = np.random.default_rng(0)
    for m, n in ((2, 2), (3, 2), (4, 1)):
        q = m * m
        order = ref.canonical_order(m)
        labels = [tuple(order[(i // q ** (n - 1 - k)) % q] for k in range(n)) for i in range(q ** n)]
        a, b = rng.random(q ** n) + 0.5, rng.random(q ** n) + 0.5
        chi = np.array([[np.exp(2j * np.pi * sum(d * x - y * c for (c, d), (x, y) in zip(h, g)) / m)
                         for g in labels] for h in labels])
        if np.abs(chi @ a / a.sum() - ref.transform(m, n, a)).max() > 1e-12:
            problems.append(f"reference transform disagrees with brute force at m={m} n={n}")
        conv = np.zeros(q ** n, dtype=complex)
        for i, g in enumerate(labels):
            for j, h in enumerate(labels):
                conv[ref.flat_index(m, [(x + u, y + v) for (x, y), (u, v) in zip(g, h)])] += a[i] * b[j]
        if np.abs(conv - ref.convolution(m, n, a, b)).max() > 1e-9:
            problems.append(f"reference convolution disagrees with brute force at m={m} n={n}")
        if m % 2 and any(order[q - i] != ((-order[i][0]) % m, (-order[i][1]) % m) for i in range(1, q)):
            problems.append(f"canonical order is not Lee-paired at m={m}")
        comp = defaultdict(float)
        for i, g in enumerate(labels):
            comp[tuple(sum(1 for x in g if x == e) for e in order)] += a[i]
        got = ref.composition_binning(m, n, a)
        if any(abs(got.get(k, 0) - v) > 1e-12 for k, v in comp.items()) or len(got) != len(comp):
            problems.append(f"reference composition binning wrong at m={m} n={n}")
    return problems


def self_check(seeds: list[int]) -> int:
    import workloads
    failures = _own_reference_checks()
    print(f"SELF-CHECK reference code: {'PASS' if not failures else 'FAIL'}")
    produced = {}
    for seed in seeds:
        for name in workloads.WORKLOADS:
            workdir = WORK_DIR / f"selfcheck-{name}-s{seed}-p{os.getpid()}"
            workdir.mkdir(parents=True, exist_ok=True)
            traced = seed != seeds[0]
            t0 = time.perf_counter()
            try:
                wl = workloads.build(name, seed, workdir, quick=True)
                run = measure(wl, 0, traced)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            bad = run.problems + [f"job failed ({r['error'][-200:]})" for _, r in run.records if r["failed"]]
            if not bad:
                produced.update(per_layer(run) if traced else end_to_end(run))
            failures += bad
            print(f"SELF-CHECK {name} seed {seed}{' traced' if traced else ''}: "
                  f"{len(wl.jobs)} jobs, {'PASS' if not bad else 'FAIL'} "
                  f"({time.perf_counter() - t0:.1f}s)")
    spec_file = ROOT / "BENCHMARK.json"
    if spec_file.is_file():
        spec = json.loads(spec_file.read_text())
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        reported = {k: unit_of(k) for k in produced}
        ok = declared == reported
        print(f"SELF-CHECK metric names and units match BENCHMARK.json: {'PASS' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"differences: {sorted(set(declared.items()) ^ set(reported.items()))}")
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    print(f"SELF-CHECK {'PASS' if not failures else 'FAIL'}")
    return 0 if not failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload's checks on a few jobs, for two seeds")
    args = parser.parse_args(argv)

    if not (SRC / "qecalg" / "__init__.py").is_file():
        print(f"error: no qecalg sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.self_check:
        return self_check([args.seed, args.seed + 1])
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)} or all")
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
