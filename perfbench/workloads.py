"""The benchmark's workloads: seeded op streams with a check for every op.

Each workload turns the workload seed into an endless stream of ops.  Op i
of a stream depends only on (seed, i), so a rerun from the same seed sees
the same inputs.  Mixed workloads draw their ops in cycles that hold each
op kind once, in a seeded order, so every run measures the same mix.

An op's `run` is the only timed part: one call into the qss public API, or
one `qss` subprocess.  Its `check` compares the output with the oracle in
`oracle.py` or with a closed form and raises CheckError on a mismatch.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

import oracle

ONE_QUBIT = ("H", "T", "S", "SDG", "X", "Y", "Z")
TWO_QUBIT = ("CNOT", "CZ", "SWAP")
RECEIVERS = ("charlie", "bob")
DEFAULT_SECRET = ("H", "T", "H")

EXACT_ATOL = 1e-9
# A pure argument loses about eight digits in the package's fidelity, which
# takes the square root of a round-off eigenvalue (1.6e-8 worst case over
# 3000 random pure states).  Fidelities that can involve a pure state, the
# projected tomography matrix, are checked to this looser tolerance.
PURE_FIDELITY_ATOL = 1e-7
Z_LIMIT = 5.0
CLI_TIMEOUT_S = 120


class CheckError(AssertionError):
    """An op's output disagrees with its reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass
class Op:
    """One unit of benchmark work and how to verify it."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    digest: Callable[[object], str]
    shots: int = 0
    argv: tuple[str, ...] | None = None


def op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def random_secret(rng: np.random.Generator, length: int | None = None) -> tuple[str, ...]:
    """1 to 4 seeded single-qubit gates; the length too is seeded unless given."""
    if length is None:
        length = int(rng.integers(1, 5))
    return tuple(ONE_QUBIT[int(i)] for i in rng.integers(0, len(ONE_QUBIT), length))


def random_density(rng: np.random.Generator) -> np.ndarray:
    """A Hilbert-Schmidt random qubit density matrix (full rank almost surely)."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    return (rho + rho.conj().T) / 2.0


def random_gate(rng: np.random.Generator, n: int, two_qubit_share: float = 0.35) -> tuple:
    if n >= 2 and rng.random() < two_qubit_share:
        a, b = (int(q) for q in rng.choice(n, 2, replace=False))
        return ("gate", TWO_QUBIT[int(rng.integers(len(TWO_QUBIT)))], (a, b))
    return ("gate", ONE_QUBIT[int(rng.integers(len(ONE_QUBIT)))], (int(rng.integers(n)),))


def random_gate_ops(rng: np.random.Generator, n: int, lo: int, hi: int) -> list[tuple]:
    return [random_gate(rng, n) for _ in range(int(rng.integers(lo, hi + 1)))]


def random_feedforward_ops(rng: np.random.Generator, n: int, m: int) -> list[tuple]:
    """Gates, measurements and cond ops; every clbit is measured once and
    only read after it is written."""
    unwritten = [int(c) for c in rng.permutation(m)]
    written: list[int] = []
    ops: list[tuple] = []
    for _ in range(int(rng.integers(6, 17))):
        r = rng.random()
        if r < 0.2 and unwritten:
            c = unwritten.pop()
            ops.append(("measure", int(rng.integers(n)), c))
            written.append(c)
        elif r < 0.4 and written:
            gate = random_gate(rng, n, two_qubit_share=0.25)
            ops.append(("cond", gate[1], gate[2], written[int(rng.integers(len(written)))]))
        else:
            ops.append(random_gate(rng, n))
    for c in unwritten:
        ops.append(("measure", int(rng.integers(n)), c))
    return ops


def random_coupling(rng: np.random.Generator, n: int = 5) -> list[tuple[int, int]]:
    """A connected directed graph: a random spanning tree plus extra links,
    each link one-way in a random direction or, sometimes, both ways."""
    order = [int(q) for q in rng.permutation(n)]
    links = {tuple(sorted((order[i], order[int(rng.integers(i))]))) for i in range(1, n)}
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < 0.25:
            links.add((a, b))
    edges = []
    for a, b in sorted(links):
        r = rng.random()
        if r < 0.15:
            edges += [(a, b), (b, a)]
        else:
            edges.append((a, b) if r < 0.575 else (b, a))
    return edges


def to_circuit(qss, ops: list[tuple], n: int, m: int = 0):
    c = qss.Circuit(n, m)
    for op in ops:
        if op[0] == "gate":
            c.gate(op[1], *op[2])
        elif op[0] == "measure":
            c.measure(op[1], op[2])
        else:
            c.cond(op[1], op[2], op[3])
    return c


def canonical(obj: object) -> str:
    return json.dumps(obj, sort_keys=True)


def density_json(rho: np.ndarray) -> dict:
    return {"dim": 2, "re": rho.real.tolist(), "im": rho.imag.tolist()}


def density_from_json(obj: dict) -> np.ndarray:
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


# --- shared checks --------------------------------------------------------


def check_register_counts(tally: np.ndarray, shots: int, expected: np.ndarray) -> None:
    """Sampled 4-bit protocol registers against the exact distribution:
    the receiver's P(0) and each announced (bell, x) triple within 5 sigma."""
    require(int(tally.sum()) == shots, f"counts total {int(tally.sum())} != {shots} shots")
    codes = np.arange(16)
    rx0 = (codes >> 3) & 1 == 0
    z = oracle.z_score(int(tally[rx0].sum()), shots, float(expected[rx0].sum()))
    require(abs(z) <= Z_LIMIT, f"receiver P(0) off by z = {z:.2f}")
    for announced in range(8):
        sel = (codes & 7) == announced
        z = oracle.z_score(int(tally[sel].sum()), shots, float(expected[sel].sum()))
        require(abs(z) <= Z_LIMIT, f"announced bits {announced:03b} off by z = {z:.2f}")


def transcripts_tally(transcripts_json: list[dict]) -> np.ndarray:
    tally = np.zeros(16, dtype=np.int64)
    for t in transcripts_json:
        m_s, m_g = t["bell"]
        m_x = t["x"]
        expected = (["X"] if m_g else []) + (["Z"] if m_s else []) + (["Z"] if m_x else [])
        require(list(t["corrections"]) == expected, f"corrections {t['corrections']} for {m_s}{m_g}{m_x}")
        for bit, n in t["receiver_counts"].items():
            tally[m_s | (m_g << 1) | (m_x << 2) | (int(bit) << 3)] += n
    return tally


def check_exact_transcripts(transcripts_json: list[dict], secret: tuple[str, ...]) -> None:
    """Exact mode: eight equiprobable branches, each leaving the receiver
    holding the secret up to a global phase."""
    psi = oracle.secret_state(secret)
    require(len(transcripts_json) == 8, f"{len(transcripts_json)} exact branches, expected 8")
    for t in transcripts_json:
        require(abs(t["probability"] - 0.125) <= EXACT_ATOL, f"branch probability {t['probability']}")
        st = t["receiver_state"]
        amps = np.asarray(st["re"]) + 1j * np.asarray(st["im"])
        require(oracle.equal_up_to_phase(amps, psi, EXACT_ATOL), "receiver state differs from the secret")


def check_routed(original: list[tuple], n: int, edges: set[tuple[int, int]], routed: list[tuple], n_phys: int,
                 initial: dict[int, int], final: dict[int, int]) -> None:
    """Every two-qubit op on a coupling edge, and the routed unitary equal
    to the original one between the initial and final placements."""
    links = edges | {(b, a) for a, b in edges}
    for i, op in enumerate(routed):
        require(op[0] == "gate", f"routed op {i} is {op[0]}")
        if len(op[2]) == 2:
            ok = op[2] in edges if op[1] == "CNOT" else op[2] in links
            require(ok, f"routed op {i} {op[1]}{op[2]} is not on a coupling edge")
    lhs = oracle.unitary(routed, n_phys) @ oracle.embedding(initial, n, n_phys)
    rhs = oracle.embedding(final, n, n_phys) @ oracle.unitary(original, n)
    require(oracle.equal_up_to_phase(lhs, rhs, EXACT_ATOL), "routed circuit is not equivalent")


# --- library ops ----------------------------------------------------------


def sampled_protocol_op(qss, secret, receiver, seed, shots, noise) -> Op:
    cfg = qss.ProtocolConfig(receiver=receiver, shots=shots, seed=seed, noise=noise)
    spec = qss.SecretSpec(secret)
    p = (noise.p1, noise.p2, noise.p_read)

    def check(out):
        tjson = [t.to_json() for t in out]
        check_register_counts(transcripts_tally(tjson), shots, oracle.protocol_distribution(secret, receiver, *p))

    return Op("protocol.sampled", lambda: qss.run_protocol(cfg, spec), check,
              lambda out: canonical([t.to_json() for t in out]), shots=shots)


def exact_protocol_op(qss, secret, receiver) -> Op:
    cfg = qss.ProtocolConfig(receiver=receiver, mode="exact")
    spec = qss.SecretSpec(secret)
    return Op("protocol.exact", lambda: qss.run_protocol(cfg, spec),
              lambda out: check_exact_transcripts([t.to_json() for t in out], secret),
              lambda out: canonical([t.to_json() for t in out]))


def coherent_protocol_op(qss, secret, receiver) -> Op:
    cfg = qss.ProtocolConfig(receiver=receiver, mode="coherent")
    spec = qss.SecretSpec(secret)
    psi = oracle.secret_state(secret)

    def check(out):
        require(len(out) == 1, "coherent mode returns one transcript")
        rho = out[0].receiver_reduced_dm.matrix
        require(np.max(np.abs(rho - np.outer(psi, psi.conj()))) <= EXACT_ATOL, "receiver state differs from the secret")

    return Op("protocol.coherent", lambda: qss.run_protocol(cfg, spec), check,
              lambda out: canonical([t.to_json() for t in out]))


def exact_distribution_op(qss, rng) -> Op:
    n = int(rng.integers(3, 6))
    m = int(rng.integers(1, n + 1))
    ops = random_feedforward_ops(rng, n, m)
    circuit = to_circuit(qss, ops, n, m)

    def check(out):
        want = oracle.exact_distribution(ops, n, m)
        for key in set(out) | set(want):
            got, ref = out.get(key, 0.0), want.get(key, 0.0)
            require(abs(got - ref) <= EXACT_ATOL, f"P({key}) = {got}, reference {ref}")

    return Op("exact_distribution", lambda: qss.exact_distribution(circuit), check, canonical)


def route_op(qss, rng, edges: list[tuple[int, int]], kind: str) -> Op:
    n = int(rng.integers(2, 6))
    ops = random_gate_ops(rng, n, 4, 20)
    circuit = to_circuit(qss, ops, n)
    graph = qss.CouplingGraph(5, tuple(edges))
    initial = None
    if rng.random() < 0.5:
        initial = qss.QubitMapping(dict(enumerate(int(p) for p in rng.permutation(5)[:n])), 5)

    def run():
        report = qss.route(circuit, graph, initial)
        return report, qss.check_routing(circuit, report, graph)

    def check(out):
        report, result = out
        require(result.ok, f"check_routing rejected the routing: {result.violations}")
        check_routed(ops, n, set(edges), oracle.circuit_ops(report.circuit), 5,
                     report.initial_layout, report.final_layout)

    def digest(out):
        report, result = out
        return canonical([report.to_json(), result.legal, result.equivalent, list(result.violations)])

    return Op(kind, run, check, digest)


def fidelity_op(qss, rng) -> Op:
    a, b = random_density(rng), random_density(rng)
    da, db = qss.DensityMatrix(a), qss.DensityMatrix(b)
    ref = oracle.fidelity_2x2(a, b)

    def check(out):
        require(abs(out - ref) <= EXACT_ATOL, f"fidelity {out}, closed form {ref}")

    return Op("fidelity", lambda: qss.fidelity(da, db), check, lambda out: float(out).hex())


def stokes_op(qss, rng) -> Op:
    n = int(rng.integers(2, 5))
    ops = random_gate_ops(rng, n, 3, 12)
    target = int(rng.integers(n))
    circuit = to_circuit(qss, ops, n)
    reference_m = random_density(rng)
    reference = qss.DensityMatrix(reference_m)
    rho_t = oracle.reduced_density(oracle.statevector(ops, n), target, n)
    want = oracle.stokes(rho_t)

    def run():
        stokes = qss.tomography.exact_stokes(circuit, target)
        return stokes, qss.tomography.reconstruct(stokes, reference)

    def check(out):
        stokes, result = out
        got = stokes.as_tuple()
        require(abs(got[0] - 1.0) <= EXACT_ATOL, f"s0 = {got[0]}")
        for g, w in zip(got[1:], want):
            require(abs(g - w) <= EXACT_ATOL, f"Stokes {got} vs closed form {want}")
        require(result.physical, "an exact Stokes vector must be physical")
        require(np.max(np.abs(result.rho_projected.matrix - rho_t)) <= EXACT_ATOL, "reconstructed matrix differs")
        ref = oracle.fidelity_2x2(rho_t, reference_m)
        require(abs(result.fidelity_vs_reference - ref) <= PURE_FIDELITY_ATOL,
                f"fidelity {result.fidelity_vs_reference}, closed form {ref}")

    def digest(out):
        stokes, result = out
        return canonical([stokes.as_tuple(), result.to_json(), result.fidelity_raw_vs_reference])

    return Op("stokes", run, check, digest)


def sampled_stream(qss, seed: int, shots: int) -> Iterator[Op]:
    """noisy-8k and bulk-524k: the sampled protocol under the shipped
    noise model, the receiver alternating between Charlie and Bob.  Secret
    lengths cycle 4, 3, 2, 1, so every run holds the same mix and op 0, which
    the verification pass also runs, has the widest draw array: a run's peak
    memory does not depend on the seed."""
    noise = qss.datasets.shipped_noise_model()
    for i in itertools.count():
        rng = op_rng(seed, i)
        secret = random_secret(rng, 4 - i % 4)
        yield sampled_protocol_op(qss, secret, RECEIVERS[i % 2], int(rng.integers(2**63)), shots, noise)


TOOLCHAIN_KINDS = ("protocol.exact", "protocol.coherent", "exact_distribution", "route.ibmqx4",
                   "route.random", "fidelity", "stokes")


def toolchain_stream(qss, seed: int) -> Iterator[Op]:
    ibmqx4 = list(qss.datasets.load_ibmqx4_coupling().edges)
    for cycle in itertools.count():
        rng = op_rng(seed, cycle)
        for k in rng.permutation(len(TOOLCHAIN_KINDS)):
            kind = TOOLCHAIN_KINDS[int(k)]
            if kind == "protocol.exact":
                yield exact_protocol_op(qss, random_secret(rng), RECEIVERS[int(rng.integers(2))])
            elif kind == "protocol.coherent":
                yield coherent_protocol_op(qss, random_secret(rng), RECEIVERS[int(rng.integers(2))])
            elif kind == "exact_distribution":
                yield exact_distribution_op(qss, rng)
            elif kind == "route.ibmqx4":
                yield route_op(qss, rng, ibmqx4, kind)
            elif kind == "route.random":
                yield route_op(qss, rng, random_coupling(rng), kind)
            elif kind == "fidelity":
                yield fidelity_op(qss, rng)
            else:
                yield stokes_op(qss, rng)


# --- CLI ops --------------------------------------------------------------


class Cli:
    """Runs `python -m qss.cli` one subprocess at a time, or `qss.cli.main`
    in this process for the traced replay."""

    def __init__(self, qss, src: str, workdir: str):
        self.qss = qss
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=src)

    def spawn(self, argv: tuple[str, ...]) -> tuple[int, bytes]:
        proc = subprocess.run([sys.executable, "-m", "qss.cli", *argv], capture_output=True,
                              env=self.env, cwd=self.workdir, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout

    def in_process(self, argv: tuple[str, ...]) -> tuple[int, bytes]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.qss.cli.main(list(argv))
        return code, out.getvalue().encode("utf-8")

    def write(self, name: str, obj: object) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path


CLI_KINDS = ("run.exact", "run.sampled", "run.noise", "tomo", "transpile", "fidelity", "calibrate")


def cli_op(cli: Cli, kind: str, rng: np.random.Generator, tag: str) -> Op:
    receiver = RECEIVERS[int(rng.integers(2))]
    seed = str(int(rng.integers(2**32)))

    if kind == "run.exact":
        argv = ("run", "--mode", "exact", "--receiver", receiver)

        def check(payload):
            psi = oracle.secret_state(DEFAULT_SECRET)
            require(abs(payload["p0"] - abs(psi[0]) ** 2) <= EXACT_ATOL, f"exact p0 {payload['p0']}")
            check_exact_transcripts(payload["transcripts"], DEFAULT_SECRET)

    elif kind in ("run.sampled", "run.noise"):
        argv = ("run", "--seed", seed, "--receiver", receiver)
        p = (0.0, 0.0, 0.0)
        if kind == "run.noise":
            p = (float(rng.uniform(0, 0.02)), float(rng.uniform(0, 0.04)), float(rng.uniform(0, 0.05)))
            argv += ("--noise", cli.write(f"noise-{tag}.json", dict(zip(("p1", "p2", "p_read"), p))))

        def check(payload):
            tally = transcripts_tally(payload["transcripts"])
            totals = (("0", int(tally[:8].sum())), ("1", int(tally[8:].sum())))
            require(payload["receiver_counts"] == {k: v for k, v in totals if v}, "receiver counts disagree")
            check_register_counts(tally, 8192, oracle.protocol_distribution(DEFAULT_SECRET, receiver, *p))

    elif kind == "tomo":
        reference = random_density(rng)
        argv = ("tomo", "--seed", seed, "--receiver", receiver,
                "--reference", cli.write(f"reference-{tag}.json", density_json(reference)))

        def check(payload):
            psi = oracle.secret_state(DEFAULT_SECRET)
            exact = oracle.stokes(np.outer(psi, psi.conj()))
            for got, want in zip(payload["stokes"][1:], exact):
                z = oracle.z_score(round((1 + got) * 8192 / 2), 8192, (1 + want) / 2)
                require(abs(z) <= Z_LIMIT, f"Stokes {payload['stokes']} vs {exact}: z = {z:.2f}")
            ref = oracle.fidelity_2x2(density_from_json(payload["rho_projected"]), reference)
            require(abs(payload["fidelity"] - ref) <= PURE_FIDELITY_ATOL, f"fidelity {payload['fidelity']} vs {ref}")

    elif kind == "transpile":
        n = int(rng.integers(2, 6))
        ops = random_gate_ops(rng, n, 4, 20)
        circuit = {"qubits": n, "clbits": 0, "ops": [{"kind": "gate", "name": o[1], "targets": list(o[2])} for o in ops]}
        argv = ("transpile", cli.write(f"circuit-{tag}.json", circuit), "--check")
        edges = {tuple(e) for e in cli.qss.datasets.load_ibmqx4_coupling().edges}

        def check(payload):
            require(payload["check"] == {"legal": True, "equivalent": True, "violations": []},
                    f"routing check failed: {payload['check']}")
            routed = [("gate", o["name"], tuple(o["targets"])) for o in payload["circuit"]["ops"]]
            layout = {k: {int(q): p for q, p in payload[k].items()} for k in ("initial_layout", "final_layout")}
            check_routed(ops, n, edges, routed, payload["circuit"]["qubits"],
                         layout["initial_layout"], layout["final_layout"])

    elif kind == "fidelity":
        a, b = random_density(rng), random_density(rng)
        argv = ("fidelity", cli.write(f"rho-a-{tag}.json", density_json(a)),
                cli.write(f"rho-b-{tag}.json", density_json(b)))
        ref = oracle.fidelity_2x2(a, b)

        def check(stdout: bytes):
            got = float(stdout.split()[0])
            require(abs(got - ref) <= EXACT_ATOL, f"fidelity {got}, closed form {ref}")

    else:
        argv = ("calibrate", "--seed", seed)

        def check(payload):
            target, achieved, p = payload["target"], payload["achieved"], payload["fitted_p"]
            require(abs(target - 0.8) <= 1e-12, f"default target read as {target}")
            require(abs(achieved - target) <= 0.005, f"achieved {achieved} misses target {target}")
            z = oracle.z_score(round(achieved * 20000), 20000, oracle.calibration_p0("charlie", p, payload["p_read"]))
            require(abs(z) <= Z_LIMIT, f"achieved P(0) at p = {p} off by z = {z:.2f}")

    def check_output(out):
        code, stdout = out
        require(code == 0, f"qss {' '.join(argv)} exited {code}")
        check(stdout if kind == "fidelity" else json.loads(stdout))

    return Op(f"cli.{kind}", lambda: cli.spawn(argv), check_output,
              lambda out: f"{out[0]}:{out[1].decode('utf-8')}", argv=argv)


def cli_stream(cli: Cli, seed: int) -> Iterator[Op]:
    for cycle in itertools.count():
        rng = op_rng(seed, cycle)
        for slot, k in enumerate(rng.permutation(len(CLI_KINDS))):
            yield cli_op(cli, CLI_KINDS[int(k)], rng, f"{cycle}-{slot}")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
