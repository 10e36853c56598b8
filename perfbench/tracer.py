"""Per-layer spans for qss, recorded from outside the package.

While a Tracer is active, every public function of each layer module (and
the methods `Circuit.validate` and `Counts.from_codes`) is replaced, at
every name it is bound to in the qss modules, by a wrapper that records a
span: name, start, end, parent span and op id, plus the work counts the
benchmark reports.  Spans stay in memory and are written as JSON lines when
the run ends; `summarize` turns spans into the per-layer metrics, so the
numbers can be re-derived from a trace file alone:

    python3 perfbench/tracer.py perfbench/out/trace-noisy-8k-seed1.jsonl
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# The modules under src/qss that count as layers.  `gates` and `datasets`
# only run during set-up and are not traced.
LAYERS = ("states", "simulate", "noise", "protocol", "circuit", "tomography", "stokes",
          "fidelity", "routing", "fileio", "cli")
METHODS = (("circuit", "Circuit", "validate"), ("circuit", "Counts", "from_codes"))


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def draw_columns(circuit, noise) -> int:
    """Uniform columns per shot, by the layout rule in qss.simulate: two per
    touched qubit of a gate or cond op whose depolarizing probability is
    nonzero, one per measurement plus one more when readout error is on.
    The draw array has at least one column."""
    p1, p2, p_read = (noise.p1, noise.p2, noise.p_read) if noise is not None else (0.0, 0.0, 0.0)
    cols = 0
    for op in circuit.ops:
        if op.kind == "measure":
            cols += 1 + (p_read > 0.0)
        elif (p1 if len(op.targets) == 1 else p2) > 0.0:
            cols += 2 * len(op.targets)
    return max(cols, 1)


def _apply_unitary_counts(args, kwargs, result) -> dict:
    amps = _arg(args, kwargs, 0, "amps")
    n = _arg(args, kwargs, 3, "num_qubits")
    rows = amps.size >> n
    # The kernel reads and writes each selected row once: 16-byte amplitudes.
    return {"rows": rows, "bytes": rows * (1 << n) * 16 * 2}


def _simulate_shots_counts(args, kwargs, result) -> dict:
    circuit = _arg(args, kwargs, 0, "circuit")
    shots = _arg(args, kwargs, 1, "cfg").shots
    noise = args[2] if len(args) > 2 else kwargs.get("noise")
    draws = shots * draw_columns(circuit, noise)
    return {"shots": shots, "draws": draws, "draw_bytes": 8 * draws}


COUNTERS = {
    "states.apply_unitary": _apply_unitary_counts,
    "simulate.simulate_shots": _simulate_shots_counts,
    "simulate.enumerate_branches": lambda a, k, r: {"branches": len(r)},
    "routing.route": lambda a, k, r: {"swaps": r.swaps, "reversals": r.reversals},
    "routing.check_routing": lambda a, k, r: {"ok": int(r.ok)},
    "noise.fit_depolarizing_detail": lambda a, k, r: {"evaluations": r.iterations + 1,
                                                      "converged": int(r.converged)},
}


class Tracer:
    """Records spans while active; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent, op, counts]
        self.op = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._t0 = time.perf_counter()

    def _open(self, name: str) -> list:
        stack = self._stack
        span = [len(self.spans), name, time.perf_counter(), None, stack[-1] if stack else None, self.op, None]
        self.spans.append(span)
        stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span[6] = counter(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark code, such as one whole op."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"qss.{layer}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        modules = [m for name, m in list(sys.modules.items()) if name == "qss" or name.startswith("qss.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for layer, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"qss.{layer}"), cls_name)
            raw = cls.__dict__[attr]
            name = f"{layer}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name))
            else:
                wrapped = self._wrap(raw, name)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def records(self) -> list[dict]:
        out = []
        for sid, name, start, end, parent, op, counts in self.spans:
            rec = {"id": sid, "name": name, "start": start - self._t0, "end": end - self._t0,
                   "parent": parent, "op": op}
            if counts:
                rec["counts"] = counts
            out.append(rec)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records():
                fh.write(json.dumps(rec) + "\n")


# --- per-layer metrics ----------------------------------------------------

# (metric, unit): calls, self time and summed counts of single functions.
FUNCTION_METRICS = {
    "states.apply_unitary": ("calls", "rows", "bytes", "self_s"),
    "simulate.simulate_shots": ("calls", "shots", "self_s"),
    "simulate.enumerate_branches": ("calls", "branches", "self_s"),
    "simulate.unitary_of": ("calls", "self_s"),
    "routing.route": ("calls", "swaps", "reversals", "self_s"),
    "routing.check_routing": ("calls", "ok_ratio", "self_s"),
    "protocol.run_protocol": ("self_s",),
    "protocol.assemble_circuit": ("self_s",),
    "circuit.Circuit.validate": ("calls", "self_s"),
    "circuit.Counts.from_codes": ("self_s",),
    "fidelity.fidelity": ("calls", "self_s"),
    "tomography.run_tomography": ("self_s",),
    "tomography.reconstruct": ("self_s",),
    "noise.fit_depolarizing_detail": ("calls", "evaluations", "converged_ratio", "self_s"),
    "fileio.read_json": ("self_s",),
    "fileio.dump_json": ("self_s",),
    "cli.main": ("self_s",),
    "cli.build_parser": ("self_s",),
}
# Metrics summed over a group of functions: (metric, span-name prefix).
GROUP_METRICS = (("fileio.parse.self_s", "fileio.parse_"), ("cli.commands.self_s", "cli.cmd_"))
UNITS = {"calls": "count", "rows": "count", "bytes": "B", "shots": "count", "branches": "count",
         "swaps": "count", "reversals": "count", "evaluations": "count", "ok_ratio": "ratio",
         "converged_ratio": "ratio", "self_s": "s"}
RATIOS = {"ok_ratio": "ok", "converged_ratio": "converged"}


def metric_units() -> dict[str, str]:
    """Every metric `summarize` reports, with its unit."""
    units = {f"{fn}.{m}": UNITS[m] for fn, ms in FUNCTION_METRICS.items() for m in ms}
    units.update({"simulate.draws": "count", "simulate.draw_bytes": "B"})
    units.update({name: "s" for name, _ in GROUP_METRICS})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units["trace.spans"] = "count"
    return units


def summarize(records: list[dict]) -> dict[str, float]:
    """Per-layer metrics from span records.  Self time is a span's duration
    minus the durations of its direct children; spans nest strictly, so the
    children never overlap."""
    child = defaultdict(float)
    for r in records:
        if r["parent"] is not None:
            child[r["parent"]] += r["end"] - r["start"]
    calls, self_s, counts = defaultdict(int), defaultdict(float), defaultdict(lambda: defaultdict(int))
    for r in records:
        name = r["name"]
        calls[name] += 1
        self_s[name] += r["end"] - r["start"] - child[r["id"]]
        for k, v in r.get("counts", {}).items():
            counts[name][k] += v
    out: dict[str, float] = {}
    for fn, ms in FUNCTION_METRICS.items():
        for m in ms:
            if m == "calls":
                out[f"{fn}.calls"] = calls[fn]
            elif m == "self_s":
                out[f"{fn}.self_s"] = self_s[fn]
            elif m in RATIOS:
                out[f"{fn}.{m}"] = counts[fn][RATIOS[m]] / calls[fn] if calls[fn] else 0.0
            else:
                out[f"{fn}.{m}"] = counts[fn][m]
    out["simulate.draws"] = counts["simulate.simulate_shots"]["draws"]
    out["simulate.draw_bytes"] = counts["simulate.simulate_shots"]["draw_bytes"]
    for metric, prefix in GROUP_METRICS:
        out[metric] = sum(v for k, v in self_s.items() if k.startswith(prefix))
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
    out["trace.spans"] = len(records)
    return out


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        recs = [json.loads(line) for line in fh]
    units = metric_units()
    for key, value in summarize(recs).items():
        print(f"{key:45s} {value:>18.10g} {units[key]}")
