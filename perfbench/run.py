#!/usr/bin/env python3
"""The qss benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload noisy-8k --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports qss from `src/`.
The load is a closed loop: one caller in this process, and for the `cli`
workload one `qss` subprocess at a time.  Every op is checked (see
workloads.py).  An untimed verification pass comes first and doubles as
warm-up: it reruns the first ops of the seed's stream and requires outputs
identical to the timed pass, reruns one sampled op with a small batch width
(`qss.simulate._CHUNK_AMPS`) and requires identical counts, and for `cli`
requires byte-identical stdout.

With --trace 0 the last line holds the end-to-end metrics, with --trace 1
the per-layer metrics of a traced replay of a fixed number of ops, so that
its counts repeat exactly for a seed.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread per process keeps the load within the machine's cores;
# children inherit it.  A coupling override from the environment would
# change what `qss transpile` routes onto.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QSS_DEFAULT_COUPLING", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import probes  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up as a user meets it: a fresh interpreter imports the package with
# its CLI and loads the bundled data.  The child reports the monotonic clock
# (system-wide on Linux) once done.
SETUP_PROBE = (
    "import qss.cli, qss.datasets as d; d.load_ibmqx4_coupling(); d.load_reference_runs(); "
    "d.shipped_noise_model(); import time; print(time.monotonic())"
)
SETUP_REPEATS = 7
# Ends the timed loop early if a run has gone on this long, so the process
# exits well within its time limit.
WALL_LIMIT_S = 140.0
SMOOTH = 4


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: int  # ops per stratified cycle; the timed loop stops on a cycle boundary
    verify_ops: int  # ops rerun by the determinism check
    trace_ops: int  # ops in the traced replay
    probe: str | None = None  # host-speed probe run after each timed op (probes.py)
    chunk_amps: int = 0  # batch width for the chunk-contract rerun (sampled workloads)


# Why each workload exists is in BENCHMARK.json and README.md.  Only the
# in-process, cache-resident workloads are probed: on the other two no probe
# tracked the drift, and rescaling made their spread wider (README.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("noisy-8k", cycle=4, verify_ops=4, trace_ops=32, probe="sampled", chunk_amps=2**9),
        Workload("bulk-524k", cycle=4, verify_ops=1, trace_ops=4, chunk_amps=2**20),
        Workload("toolchain", cycle=7, verify_ops=14, trace_ops=700, probe="toolchain"),
        Workload("cli", cycle=7, verify_ops=7, trace_ops=14),
    )
}


@dataclass
class Pass:
    """Timings, failures and output digests of one pass over ops."""

    latencies: list[float] = field(default_factory=list)
    slowness: list[float] = field(default_factory=list)  # probe time / nominal after each op, or 1
    digests: list[str] = field(default_factory=list)
    keep_digests: int | None = None  # digest only the first ops, to bound memory
    shots: int = 0
    failed: int = 0

    def add_digest(self, digest) -> None:
        if self.keep_digests is None or len(self.digests) < self.keep_digests:
            self.digests.append(digest())

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return self.ops / sum(self.latencies)

    @property
    def normalized(self) -> list[float]:
        """Op times at the probe's nominal host speed.  Each op is scaled by
        the median slowness of the probes within SMOOTH ops of it, which
        damps the probe's own jitter but follows drift of a second or more."""
        s = self.slowness
        return [t / statistics.median(s[max(0, i - SMOOTH):i + SMOOTH + 1])
                for i, t in enumerate(self.latencies)]


def log(msg: str) -> None:
    print(msg, flush=True)


def fail(msg: str) -> None:
    print(f"FAIL {msg}", file=sys.stderr, flush=True)


def measure_setup() -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], capture_output=True, env=env,
                              cwd=ROOT, timeout=60, check=True)
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def import_qss():
    sys.path.insert(0, str(SRC))
    import qss
    import qss.cli
    import qss.datasets

    if Path(qss.__file__).resolve().parent != SRC / "qss":
        raise ImportError(f"qss imported from {qss.__file__}, not from {SRC}")
    return qss


def run_ops(stream, count: int, runner=None) -> Pass:
    """Run `count` ops from `stream`, timing each call and checking it."""
    p = Pass()
    for _ in range(count):
        execute(p, next(stream), runner)
    return p


def execute(p: Pass, op, runner=None, check: bool = True):
    """Time one op (through `runner` when given) and record it in `p`.
    Returns the output, or None when the op raised."""
    call = op.run if runner is None else (lambda: runner(op.argv))
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception:
        p.latencies.append(time.perf_counter() - t0)
        p.failed += 1
        p.add_digest(lambda: "error")
        fail(f"{op.kind} raised:\n{traceback.format_exc()}")
        return None
    p.latencies.append(time.perf_counter() - t0)
    p.shots += op.shots
    p.add_digest(lambda: op.digest(out))
    if check:
        check_op(p, op, out)
    return out


def check_op(p: Pass, op, out) -> None:
    try:
        op.check(out)
    except Exception as exc:
        p.failed += 1
        fail(f"{op.kind}: {exc}")


def timed_loop(stream, wl: Workload, seconds: float, started: float) -> Pass:
    """Ops until `seconds` of timed calls, ending on a cycle boundary; the
    host-speed probe runs after each op."""
    p = Pass(keep_digests=wl.verify_ops)
    while sum(p.latencies) < seconds:
        for _ in range(wl.cycle):
            execute(p, next(stream))
            p.slowness.append(probes.slowness(wl.probe) if wl.probe else 1.0)
        if time.monotonic() - started > WALL_LIMIT_S:
            fail(f"wall-time limit reached after {p.ops} ops")
            break
    return p


def verify(qss, wl: Workload, make_stream, timed_digests: list[str], first: Pass) -> bool:
    """Determinism checks; `first` is the verification pass already run."""
    ok = first.failed == 0
    n = min(wl.verify_ops, len(timed_digests))
    if first.digests[:n] != timed_digests[:n]:
        ok = False
        fail(f"same seed, different outputs within the first {n} ops")
    else:
        what = "stdout bytes" if wl.name == "cli" else "output digests"
        log(f"verify: {n} ops rerun from the seed, identical {what}")
    if wl.chunk_amps:
        saved = qss.simulate._CHUNK_AMPS
        qss.simulate._CHUNK_AMPS = wl.chunk_amps
        try:
            rerun = run_ops(make_stream(), 1)
        finally:
            qss.simulate._CHUNK_AMPS = saved
        if rerun.failed or rerun.digests[0] != first.digests[0]:
            ok = False
            fail(f"counts change with _CHUNK_AMPS = {wl.chunk_amps}")
        else:
            log(f"verify: op 0 at _CHUNK_AMPS = {wl.chunk_amps} gives identical counts")
    return ok


def peak_rss_mb(wl: Workload) -> float:
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(qss, wl: Workload, make_stream, seconds: float, started: float) -> tuple[dict, int, int, bool]:
    setup = measure_setup()
    setup_s = statistics.median(setup)
    log(f"setup_s      {setup_s:.4f} s   (median of {len(setup)} start-ups, {min(setup):.4f} .. {max(setup):.4f})")
    first = run_ops(make_stream(), wl.verify_ops)
    gc.collect()
    timed = timed_loop(make_stream(), wl, seconds, started)
    ok = verify(qss, wl, make_stream, timed.digests, first)

    n = timed.ops
    norm = timed.normalized
    ops_per_s = n / sum(norm)
    p50_ms = statistics.median(norm) * 1e3
    rss = peak_rss_mb(wl)
    lat = timed.latencies

    def raw(value: float, fmt: str = ".4f") -> str:
        return f"; raw {value:{fmt}}" if wl.probe else ""

    if wl.probe:
        log(f"host slowness {statistics.median(timed.slowness):.3f} (probe time / nominal, median; "
            f"range {min(timed.slowness):.3f} .. {max(timed.slowness):.3f}): timings below are rescaled")
    log(f"ops_per_s    {ops_per_s:.4f} 1/s   ({n} ops in {sum(lat):.3f} s of timed calls{raw(n / sum(lat))})")
    if timed.shots:
        log(f"shots_per_s  {timed.shots / sum(norm):.1f} 1/s   ({timed.shots} shots"
            f"{raw(timed.shots / sum(lat), '.1f')})")
    log(f"op_p50_ms    {p50_ms:.4f} ms   (n = {n}{raw(statistics.median(lat) * 1e3)})")
    if n >= 100:
        log(f"op_p90_ms    {workloads.percentile(norm, 0.9) * 1e3:.4f} ms   "
            f"(n = {n}{raw(workloads.percentile(lat, 0.9) * 1e3)})")
    else:
        log(f"op_p90_ms    not reported: {n} ops, fewer than 100")
    log(f"peak_rss_mb  {rss:.2f} MB")
    log(f"error_rate   {timed.failed / n:.4f}   ({timed.failed} of {n} ops failed)")
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (p50_ms, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, n, timed.failed, ok


def per_layer(qss, wl: Workload, make_stream, cli, seed: int) -> tuple[dict, int, int, bool]:
    from tracer import Tracer, metric_units, summarize

    first = run_ops(make_stream(), wl.verify_ops)
    gc.collect()
    plain = run_ops(make_stream(), wl.trace_ops)
    ok = verify(qss, wl, make_stream, plain.digests, first)
    # Untraced reference for the overhead: the same ops, run as the traced
    # replay runs them (for cli, through qss.cli.main in this process).
    baseline = plain
    startup = 0.0  # only the cli workload starts qss processes
    if cli is not None:
        baseline = run_ops(make_stream(), wl.trace_ops, runner=cli.in_process)
        if baseline.digests != plain.digests:
            ok = False
            fail("qss.cli.main in-process output differs from the subprocess output")
        startup = (sum(plain.latencies) - sum(baseline.latencies)) / plain.ops
        log(f"cli.startup_s {startup:.4f} s per command (subprocess minus in-process main)")

    gc.collect()
    traced = Pass()
    stream = make_stream()
    outputs = []
    with Tracer() as tracer:
        for i in range(wl.trace_ops):
            op = next(stream)
            tracer.op = i
            with tracer.span(f"op.{op.kind}"):
                outputs.append((op, execute(traced, op, cli.in_process if cli else None, check=False)))
        tracer.op = None
    # Checks run after tracing ends, so no check adds spans.
    for op, out in outputs:
        if out is not None:
            check_op(traced, op, out)
    if traced.digests != baseline.digests:
        ok = False
        fail("tracing changed op outputs")

    overhead = traced.ops_per_s - baseline.ops_per_s
    log(f"trace overhead {overhead:.4f} ops/s ({baseline.ops_per_s:.4f} untraced, {traced.ops_per_s:.4f} traced)")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{wl.name}-seed{seed}.jsonl"
    tracer.write(str(path))
    log(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")

    units = metric_units()
    metrics = {k: (v, units[k]) for k, v in summarize(tracer.records()).items()}
    metrics["cli.startup_s"] = (startup, "s")
    metrics["trace.overhead_ops_per_s"] = (overhead, "1/s")
    passes = (plain, traced) if cli is None else (plain, baseline, traced)
    return metrics, sum(p.ops for p in passes), sum(p.failed for p in passes), ok


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "qss" / "__init__.py").is_file():
        print(f"error: no qss sources under {SRC}; run from a qss checkout", file=sys.stderr)
        return 2

    qss = import_qss()
    import numpy as np

    wl = WORKLOADS[args.workload]
    log(f"workload {wl.name}, seed {args.seed}")
    log(f"machine: {os.cpu_count()} cores ({len(os.sched_getaffinity(0))} usable), "
        f"Python {platform.python_version()}, numpy {np.__version__}")

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="cli-", dir=OUT) as workdir:
        cli = workloads.Cli(qss, str(SRC), workdir) if wl.name == "cli" else None
        streams = {
            "noisy-8k": lambda: workloads.sampled_stream(qss, args.seed, 8192),
            "bulk-524k": lambda: workloads.sampled_stream(qss, args.seed, 2**19),
            "toolchain": lambda: workloads.toolchain_stream(qss, args.seed),
            "cli": lambda: workloads.cli_stream(cli, args.seed),
        }
        if args.trace:
            metrics, attempted, failed, ok = per_layer(qss, wl, streams[wl.name], cli, args.seed)
        else:
            metrics, attempted, failed, ok = end_to_end(qss, wl, streams[wl.name], args.seconds, started)

    result = {
        "correct": bool(ok and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
