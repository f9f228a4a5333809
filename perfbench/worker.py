"""Benchmark worker: one process that imports qecalg and runs jobs.

Started by run.py with src/ on PYTHONPATH and BLAS pinned to one thread.
Messages are length-prefixed pickles on stdin/stdout; the real stdout is
kept for them and fd 1 is pointed at stderr so that nothing else can write
into the channel.

    parent -> worker   init {"pauli": [m, ...], "custom": {m: matrices}}
    worker -> parent   ready {"import_s", "basis_s", "package"}
    parent -> worker   ("cli", argv, traced)      -> one job record
                       ("load", specs)            -> "loaded"
                       ("round", traced)          -> list of job records
                       ("exit",)

A job record holds the job's wall time and CPU time (measured inside this
process, from the call to its return), the worker's peak RSS right after
the call, the job's output as plain data, and per-layer figures when the
job was traced.
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
import resource
import struct
import sys
import time
import traceback


def send(stream, obj) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(struct.pack("<Q", len(data)) + data)
    stream.flush()


def recv(stream):
    header = stream.read(8)
    if len(header) < 8:
        return None
    (size,) = struct.unpack("<Q", header)
    return pickle.loads(stream.read(size))


def _cli_call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _library_job(qecalg, systems, spec):
    """(callable, converter to plain data) for one library job."""
    kind = spec["kind"]
    sys_ = systems.get(spec.get("basis"))
    if kind in ("analyze", "cs"):
        code = qecalg.CodeSpec.from_basis(spec["m"], spec["n"], spec["vectors"])
        if kind == "analyze":
            def plain(r):
                return {"K": r.K, "d": r.d, "pure": r.pure,
                        "A": r.primary_distribution.a, "A_dual": r.dual_distribution.a}
            return (lambda: qecalg.analyze(sys_, code)), plain
        return (lambda: qecalg.check_cs_ordering(sys_, code)), _check_plain
    elements = [qecalg.AlgebraElement(spec["m"], spec["n"], c) for c in spec["coeffs"]]
    if kind in ("t4", "t6", "t8"):
        verify = {"t4": qecalg.verify_exact_identity, "t6": qecalg.verify_complete_identity,
                  "t8": qecalg.verify_lee_identity}[kind]
        return (lambda: verify(sys_, elements[0], spec["trials"], seed=spec["seed"])), _check_plain
    if kind == "complete":
        return (lambda: qecalg.complete_distribution(elements[0])), lambda r: dict(r.terms)
    if kind == "lee":
        return (lambda: qecalg.lee_distribution(elements[0])), lambda r: dict(r.terms)
    if kind == "multiply":
        return (lambda: qecalg.multiply(elements[0], elements[1])), lambda r: r.coeffs
    raise ValueError(f"unknown job kind {kind!r}")


def _check_plain(report):
    return {"passed": bool(report.passed), "max_residual": float(report.max_residual),
            "detail": report.detail}


def _timed(fn, plain, tracer):
    """Run one job; time only the call itself."""
    record = {"ok": True, "error": "", "output": None, "layers": None}
    prof = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = fn()
        else:
            result, prof = tracer.run(fn)
    except Exception:  # a failing job is counted, not fatal to the worker
        result = None
        record["ok"] = False
        record["error"] = traceback.format_exc()
    t1 = time.perf_counter()
    cpu1 = time.process_time()
    record["seconds"] = t1 - t0
    record["cpu"] = cpu1 - cpu0
    record["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if record["ok"]:
        record["output"] = plain(result)
    if prof is not None:
        record["layers"] = tracer.collect(prof)
    return record


def main() -> int:
    channel_out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    channel_in = sys.stdin.buffer

    t0 = time.perf_counter()
    import qecalg
    import qecalg.cli
    import_s = time.perf_counter() - t0

    init = recv(channel_in)
    t1 = time.perf_counter()
    systems = {("pauli", m): qecalg.build_pauli_system(m) for m in init["pauli"]}
    for m, mats in init["custom"].items():
        systems[("custom", m)] = qecalg.validate_custom_basis(mats)
    basis_s = time.perf_counter() - t1
    send(channel_out, {"import_s": import_s, "basis_s": basis_s, "package": qecalg.__file__})

    tracer = None
    if "--trace" in sys.argv[1:]:
        from tracing import Tracer
        tracer = Tracer(os.path.dirname(qecalg.__file__))

    jobs = []
    while True:
        msg = recv(channel_in)
        if msg is None or msg[0] == "exit":
            return 0
        if msg[0] == "cli":
            _, argv, traced = msg
            send(channel_out, _timed(lambda: _cli_call(qecalg.cli, argv), lambda r: r,
                                     tracer if traced else None))
        elif msg[0] == "load":
            jobs = [_library_job(qecalg, systems, spec) for spec in msg[1]]
            send(channel_out, "loaded")
        elif msg[0] == "round":
            active = tracer if msg[1] else None
            send(channel_out, [_timed(fn, plain, active) for fn, plain in jobs])
        else:
            raise ValueError(f"unknown message {msg[0]!r}")


if __name__ == "__main__":
    sys.exit(main())
