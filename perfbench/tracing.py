"""Per-layer accounting of traced jobs, measured from outside the program.

A layer is a module of src/qecalg.  Each traced job runs under cProfile; a
layer's self time is the own time of its functions plus the own time of any
code outside the layers (numpy, the standard library, qecalg's reports and
errors modules) that the layer called, directly or through other such code.
External time reached from several layers is split in proportion to the
time each caller spent in it.

Stage times are the cumulative times of the public calls of each pipeline
stage, minus the time those calls spent directly in calls of another (or
the same) stage, so that nested stages are not counted twice.

Two counters are read at the layer boundaries: the sizes of the kernel's
apply_axiswise calls (computed flop and bytes) and the files the fileio
module opens (an audit hook attributes an open to fileio when a fileio frame
is on the stack).  Nothing here runs unless a job is traced.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
from collections import defaultdict

LAYERS = ("cli", "catalog", "fileio", "error_basis", "code_analysis",
          "group_algebra", "kernel", "enumerators")

# module stem -> layer; the kernel layer is the dispatcher plus whichever
# backend it selected.
_MODULE_LAYER = {name: name for name in LAYERS}
_MODULE_LAYER.update({"_kernel_py": "kernel", "_kernel_cy": "kernel"})

STAGES = {
    "parse": {("cli", "_resolve_input"), ("catalog", "resolve"), ("catalog", "load"),
              ("fileio", "read_element"), ("fileio", "read_code"),
              ("fileio", "read_custom_basis")},
    "basis": {("cli", "_system_for"), ("error_basis", "build_pauli_system"),
              ("error_basis", "validate_custom_basis")},
    "element": {("code_analysis", "associated_element")},
    "dual": {("code_analysis", "dual_element"), ("group_algebra", "transform")},
    "distributions": {("enumerators", "hamming_distribution"),
                      ("enumerators", "complete_distribution"),
                      ("enumerators", "lee_distribution")},
    "identity": {("enumerators", "verify_exact_identity"),
                 ("enumerators", "verify_complete_identity"),
                 ("enumerators", "verify_lee_identity"),
                 ("enumerators", "verify_hamming_identity"),
                 ("enumerators", "macwilliams_hamming"),
                 ("group_algebra", "double_transform_scaling_check"),
                 ("code_analysis", "check_cs_ordering")},
    "write": {("fileio", "write_element")},
    "report": {("cli", "_emit"), ("cli", "_base_report"), ("cli", "_dist_records"),
               ("cli", "_distribution_text"), ("cli", "_rounding_note")},
}
_STAGE_OF = {key: stage for stage, keys in STAGES.items() for key in keys}

_WRAPPER_NAME = "_counted_apply_axiswise"
_THIS_FILE = os.path.realpath(__file__)


def metric_names() -> list[str]:
    names = []
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.calls"]
    names += [f"stage.{s}_s" for s in STAGES]
    names += ["kernel.flop", "kernel.bytes_moved", "fileio.bytes_read", "fileio.bytes_written"]
    return names


class Tracer:
    """Profiles one job at a time; create it after qecalg is imported."""

    def __init__(self, package_dir: str):
        self._pkg = os.path.realpath(package_dir)
        self._module_of_file: dict[str, str | None] = {}
        fileio = sys.modules.get("qecalg.fileio")
        self._fileio_file = fileio.__file__ if fileio else None
        self._kernel = sys.modules.get("qecalg.kernel")
        self._active = False
        self._opens: list[tuple[str, bool]] = []
        self._flop = 0
        self._bytes = 0
        sys.addaudithook(self._audit)

    def _audit(self, event, args):
        if not self._active or event != "open" or self._fileio_file is None:
            return
        path, mode, flags = args
        if not isinstance(path, (str, bytes, os.PathLike)):
            return
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code.co_filename == self._fileio_file:
                if mode is None:
                    writing = bool(flags & (os.O_WRONLY | os.O_RDWR))
                else:
                    writing = any(ch in mode for ch in "wax+")
                self._opens.append((os.fsdecode(path), writing))
                return
            frame = frame.f_back

    def run(self, fn):
        """Call fn() under the profiler; returns (result, profile)."""
        original = getattr(self._kernel, "apply_axiswise", None)
        if original is not None:
            def _counted_apply_axiswise(mat, vec, n, *args, **kwargs):
                s = len(mat)
                self._flop += 8 * s * n * s ** n
                self._bytes += 32 * n * s ** n
                return original(mat, vec, n, *args, **kwargs)
            self._kernel.apply_axiswise = _counted_apply_axiswise
        prof = cProfile.Profile()
        self._active = True
        prof.enable()
        try:
            result = fn()
        finally:
            prof.disable()
            self._active = False
            if original is not None:
                self._kernel.apply_axiswise = original
        return result, prof

    def _module(self, filename: str):
        if filename not in self._module_of_file:
            path = os.path.realpath(filename) if filename[:1] not in ("~", "<") else ""
            stem = None
            if os.path.dirname(path) == self._pkg:
                stem = os.path.basename(path).split(".")[0]
            self._module_of_file[filename] = stem
        return self._module_of_file[filename]

    def _layer(self, func) -> str | None:
        filename, _, name = func
        if name == _WRAPPER_NAME and os.path.realpath(filename) == _THIS_FILE:
            return "kernel"
        return _MODULE_LAYER.get(self._module(filename))

    def collect(self, prof) -> dict:
        """Per-layer figures of the last run() call; resets the counters."""
        stats = pstats.Stats(prof).stats
        layer = {f: self._layer(f) for f in stats}
        memo: dict = {}

        def share(func, visiting):
            """Fractions of func's time owed to each layer above it."""
            if func in memo:
                return memo[func]
            visiting.add(func)
            acc: dict = defaultdict(float)
            total = 0.0
            callers = stats[func][4]
            use_time = any(edge[3] > 0 for edge in callers.values())
            for caller, edge in callers.items():
                if caller in visiting:
                    continue
                weight = edge[3] if use_time else edge[0]
                total += weight
                if layer.get(caller):
                    acc[layer[caller]] += weight
                elif caller in stats:
                    for name, frac in share(caller, visiting).items():
                        acc[name] += weight * frac
            visiting.discard(func)
            memo[func] = {k: v / total for k, v in acc.items()} if total > 0 else {}
            return memo[func]

        out: dict = defaultdict(float)
        for func, (_, nc, tt, _, _) in stats.items():
            if layer[func]:
                out[f"{layer[func]}.self_s"] += tt
                out[f"{layer[func]}.calls"] += nc
            elif tt > 0:
                for name, frac in share(func, set()).items():
                    out[f"{name}.self_s"] += tt * frac
        for func, (_, _, _, ct, callers) in stats.items():
            stage = _STAGE_OF.get((self._module(func[0]), func[2]))
            if stage is None:
                continue
            out[f"stage.{stage}_s"] += ct
            for caller, edge in callers.items():
                outer = _STAGE_OF.get((self._module(caller[0]), caller[2]))
                if outer is not None:
                    out[f"stage.{outer}_s"] -= edge[3]
        out["kernel.flop"] += self._flop
        out["kernel.bytes_moved"] += self._bytes
        for path, writing in self._opens:
            if os.path.exists(path):
                out["fileio.bytes_written" if writing else "fileio.bytes_read"] += os.path.getsize(path)
        self._flop = self._bytes = 0
        self._opens = []
        return dict(out)
