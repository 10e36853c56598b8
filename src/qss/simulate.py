"""Shot sampling, exact branch enumeration, and unitary extraction.

Sampled and exact runs share one engine that holds only the distinct states
of a run: a (G, 2**n) array of statevectors with a classical register per
group.  Gates act once per group; conditioned gates act on the groups whose
register bit reads 1.

Sampled runs map every shot to a group id.  Randomness comes from a
counter-based generator (Philox) keyed by the run seed, laid out as one row
of uniforms per shot with fixed columns per op (_op_draws), so results
are independent of batching and a zero-probability noise channel consumes no
draws at all: a run with NoiseModel(0, 0, 0) is bit-identical to a noiseless
run.  A Pauli hit moves only the shots it hits into new groups keyed by
(group, Pauli); a measurement regroups every shot by (group, true outcome,
recorded bit).  Both regroupings rank keys densely instead of sorting them,
and a Pauli hit is an index gather with a phase, not a dense kernel.

A batch holds only the rows it has created, with no buffer preallocated
per shot: a Pauli hit appends its new rows, and if rows then outnumber
shots, only the rows some shot holds are kept, in order.  So a batch holds
at most one row per shot between ops, and at most two during a hit.  A run
that fits one batch of at most _CHUNK_AMPS amplitudes at one row per shot
and _CHUNK_AMPS uniform draws is drawn and evolved in one go, which measured
faster than halving it to overlap the draws.  A longer run goes in batches
of half as many draws: one worker thread per run fills the next batch's rows
from the same generator into the other of two buffers while the current
batch evolves, so at most _CHUNK_AMPS draws are held at once (or two shots'
worth, if one shot exceeds that).  Each batch joins a tally of the register
values seen, so peak memory is O(_CHUNK_AMPS) plus that tally, whatever the
shot count.

Exact runs weight each group by its probability instead: a measurement
splits every group into its nonzero-probability outcomes, 0 before 1, so the
branches come out in depth-first order.

An exact noisy run (exact_distribution with a nonzero NoiseModel) is a
channel rather than a sum of trajectories: it holds one unnormalized
vec(rho) per reachable register value, on 2n wires, and applies each gate
with the same kernel, as U on the row wires and conj(U) on the column
wires.  Depolarizing noise and readout flips mix those vectors in closed
form, so the result is the trajectory model's exact register law, with no
draws.  The calibration fit reads its P(0) from this channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .circuit import Circuit, CircuitOp, Counts, RunConfig, _key_clbit, _register_codes, _tally, bitstring
from .gates import ATOL_EVOLUTION, PAULIS, _allclose, gate
from .states import DensityMatrix, _gather_tables, _kept_first, apply_unitary

if TYPE_CHECKING:
    from .noise import NoiseModel

MAX_BRANCHES = 2**16
_BRANCH_EPS = 1e-14
_CHUNK_AMPS = 2**19
_MIXED_AMPS = 2**24


class SimulationError(RuntimeError):
    """Raised when a circuit cannot be executed as requested."""


@dataclass(frozen=True)
class Branch:
    """One feedforward outcome: classical register, probability, final state."""

    clbits: tuple[int, ...]
    probability: float
    state: np.ndarray = field(repr=False)


def _op_draws(op: CircuitOp, noise: "NoiseModel | None") -> tuple[float, int]:
    """An op's error probability under `noise` and its uniform draws per shot:
    a collapse draw per measure, plus a readout draw if p_read > 0; a (trigger,
    choice) pair per target of a gate or cond with p > 0, fired or not."""
    if op.kind == "measure":
        p = 0.0 if noise is None else noise.p_read
        return p, 1 + (p > 0.0)
    p = 0.0 if noise is None else noise.p1 if len(op.targets) == 1 else noise.p2
    return p, 2 * len(op.targets) * (p > 0.0)


def _regroup(key: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(key, return_inverse=True) for keys in [0, size), by dense
    rank instead of a sort: the distinct keys ascending, and each key's index
    among them."""
    seen = np.zeros(size, dtype=bool)
    seen[key] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[key]


@lru_cache(maxsize=None)  # at most 36 (n, q) pairs, as n <= 8
def _pauli_tables(n: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The gate kernel's tables for X, Y, Z (rows 0-2) on qubit q of n
    qubits: (P psi)[i] = phase[k, i] * psi[perm[k, i]], each phase one of
    +-1, +-i."""
    tables = [_gather_tables(p.tobytes(), p.shape, (q,), n) for p in PAULIS[1:]]
    perm = np.concatenate([t[0] for t in tables])
    phase = np.concatenate([t[1] for t in tables])
    perm.setflags(write=False)
    phase.setflags(write=False)
    return perm, phase


def _evolve(
    circuit: Circuit, u: np.ndarray | None = None, noise: "NoiseModel | None" = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evolve the distinct states of one batch of shots, or every branch.

    Given draws u (one row per shot) this returns (states, creg, group),
    where group maps each shot to its row.  With u None the run is exact and
    returns (states, creg, prob), one row per branch in depth-first order.
    """
    n = circuit.num_qubits
    bits = (np.arange(2**n) >> np.arange(n)[:, None]) & 1
    states = np.zeros((1, 2**n), dtype=complex)
    states[0, 0] = 1.0
    creg = np.zeros((1, circuit.num_clbits), dtype=np.int64)
    group = None if u is None else np.zeros(len(u), dtype=np.int64)
    prob = np.ones(1)
    col = 0
    for op in circuit.ops:
        p_err, width = _op_draws(op, noise)
        cols, col = range(col, col + width), col + width
        if op.kind == "measure":
            bit = bits[op.qubit]
            p1 = (np.abs(states) ** 2)[:, bit == 1].sum(axis=1)
            p0 = 1.0 - p1
            if u is None:
                pairs = np.array((p0, p1)).ravel(order="F")
                keep = np.flatnonzero(pairs > _BRANCH_EPS)
                if keep.size > MAX_BRANCHES:
                    raise SimulationError(f"branch count exceeds {MAX_BRANCHES}")
                parent, outcome = np.divmod(keep, 2)
                recorded = outcome
                p = pairs[keep]
                prob = prob[parent] * p
            else:
                shot_outcome = (u[:, cols[0]] >= p0[group]).astype(np.int64)
                shot_record = shot_outcome
                if width == 2:
                    shot_record = shot_outcome ^ (u[:, cols[1]] < p_err)
                keys, group = _regroup(group * 4 + shot_outcome * 2 + shot_record, 4 * len(states))
                parent, outcome, recorded = keys >> 2, (keys >> 1) & 1, keys & 1
                p = np.where(outcome == 1, p1[parent], p0[parent])
            states = np.where(bit == outcome[:, None], states[parent], 0.0) / np.sqrt(p)[:, None]
            creg = creg[parent]
            creg[:, op.clbit] = recorded
            continue
        if op.kind == "gate":
            rows = slice(None)
        else:
            rows = np.flatnonzero(creg[:, op.clbit])
            if not rows.size:
                continue
        states[rows] = apply_unitary(states[rows], gate(op.name).matrix, op.targets, n)
        for q, trigger in zip(op.targets, cols[::2]):
            shots = np.flatnonzero(u[:, trigger] < p_err)
            if op.kind == "cond":
                shots = shots[creg[group[shots], op.clbit] == 1]
            if not shots.size:
                continue
            which = (u[shots, trigger + 1] * 3.0).astype(np.int64)
            keys, inv = _regroup(group[shots] * 3 + which, 3 * len(states))
            parent, pauli = np.divmod(keys, 3)
            perm, phase = _pauli_tables(n, q)
            group[shots] = len(states) + inv
            states = np.concatenate((states, phase[pauli] * states[parent[:, None], perm[pauli]]))
            creg = np.concatenate((creg, creg[parent]))
            if len(states) > len(group):
                # keep the rows some shot holds, in order, and renumber
                live, group = _regroup(group, len(states))
                states, creg = states[live], creg[live]
    return states, creg, prob if u is None else group


def _fill(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill `out` with the generator's next uniforms, row after row."""
    rng.random(out=out)


def simulate_shots(circuit: Circuit, cfg: RunConfig, noise: "NoiseModel | None" = None) -> Counts:
    """Sample a circuit's shots and tally classical register values.

    A run of at most _CHUNK_AMPS // max(2**n, draw columns) shots, or of one
    shot, is one batch.  A longer run goes in batches of _CHUNK_AMPS //
    max(2**n, 2 * draw columns) shots, at least one, and one worker thread
    per run draws each next batch while the one before evolves.  Each batch
    is tallied by distinct register value as it finishes; measurement
    collapse uses the true outcome while the recorded bit may be flipped by
    readout error.
    """
    ncols = max(1, sum(_op_draws(op, noise)[1] for op in circuit.ops))
    amps = 2**circuit.num_qubits
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    codes, tally = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)

    def add(u: np.ndarray) -> None:
        nonlocal codes, tally
        creg, group = _evolve(circuit, u, noise)[1:]
        held = np.bincount(group, minlength=len(creg))
        codes, tally = _tally(np.concatenate((codes, _register_codes(creg))), np.concatenate((tally, held)))

    rows = cfg.shots
    if rows > max(1, _CHUNK_AMPS // max(amps, ncols)):
        rows = max(1, _CHUNK_AMPS // max(amps, 2 * ncols))
    # Philox fills rows in order and one thread draws at a time, so every
    # shot gets the uniforms of one shots x columns draw.  In a longer run
    # the worker fills one buffer while the other is evolved.
    buffers = np.empty((1 + (rows < cfg.shots), rows, ncols))
    u = buffers[0]
    _fill(rng, u)
    if rows < cfg.shots:
        # imported here so that start-up and single-batch runs skip its ~3 ms
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(1) as worker:
            for start in range(rows, cfg.shots, rows):
                following = buffers[start // rows % 2, : cfg.shots - start]
                filled = worker.submit(_fill, rng, following)
                add(u)
                filled.result()
                u = following
    add(u)
    return Counts._from_tally(codes, tally, circuit.num_clbits)


def enumerate_branches(circuit: Circuit) -> list[Branch]:
    """Every nonzero-probability measurement outcome of a circuit.

    Returns one Branch per leaf, in depth-first order (outcome 0 before 1),
    with the classical register, the exact branch probability, and the
    final statevector.  Raises SimulationError if more than 2**16 branches
    would be produced.
    """
    states, creg, prob = _evolve(circuit)
    states.setflags(write=False)
    return [Branch(tuple(reg), p, state) for state, reg, p in zip(states, creg.tolist(), prob.tolist())]


@lru_cache(maxsize=None)  # at most 36 (n, q) pairs, as n <= 8
def _pair_tables(n: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The vec(rho) indices on 2n wires whose row and column bits of qubit
    q both read 0, and the same indices with both bits set to 1."""
    idx = np.arange(4**n)
    zero = idx[((idx >> q) | (idx >> (n + q))) & 1 == 0]
    one = zero | (1 << q) | (1 << (n + q))
    zero.setflags(write=False)
    one.setflags(write=False)
    return zero, one


def _depolarize(rho: np.ndarray, q: int, p: float, n: int) -> None:
    """(1 - p) rho + (p/3) (X rho X + Y rho Y + Z rho Z) on qubit q of each
    vec(rho) row, in place.  As the four Pauli conjugations add up to
    2 I (x) Tr_q rho, this is (1 - 4p/3) rho + (2p/3) I (x) Tr_q rho: the
    two diagonal blocks of q each gain 2p/3 of their sum."""
    zero, one = _pair_tables(n, q)
    mixed = rho[:, zero] + rho[:, one]
    mixed *= 2.0 * p / 3.0
    rho *= 1.0 - 4.0 * p / 3.0
    rho[:, zero] += mixed
    rho[:, one] += mixed


def _mixed(circuit: Circuit, noise: "NoiseModel") -> tuple[np.ndarray, np.ndarray]:
    """The exact noisy evolution: (rho, creg), one unnormalized vec(rho) row
    per reachable register value, whose trace is that value's probability.

    Row index bits are wires 0..n-1 and column index bits wires n..2n-1 of a
    2n-wire vector, so a gate U is U on its targets and conj(U) on theirs
    plus n.  After a gate, or a cond that fires, each target is depolarized
    with p1 (one-qubit ops) or p2 (two-qubit ops), as in the trajectory
    model.  A measurement keeps, per true outcome, the block whose row and
    column bit equal it, and records the bit flipped with probability
    p_read; a record whose weight is at most _BRANCH_EPS of its register's
    is dropped, as the pure engine drops a branch.

    Each clbit is written once, so at most 2**(measurements) register values
    are reachable; SimulationError is raised up front, before anything is
    evolved, when that many vec(rho) rows would exceed _MIXED_AMPS
    amplitudes.
    """
    n = circuit.num_qubits
    registers = 2 ** sum(op.kind == "measure" for op in circuit.ops)
    if registers * 4**n > _MIXED_AMPS:
        raise SimulationError(f"the noisy channel would hold up to {registers} x 4**{n} amplitudes, above 2**24")
    idx = np.arange(4**n)
    rho = np.zeros((1, 4**n), dtype=complex)
    rho[0, 0] = 1.0
    creg = np.zeros((1, circuit.num_clbits), dtype=np.int64)
    for op in circuit.ops:
        if op.kind == "measure":
            q, flip = op.qubit, noise.p_read
            # blocks[t] keeps the entries whose row and column bit q read t;
            # weight[r, t] is the chance that true outcome t is recorded as r
            both = ((idx >> q) & 1) + ((idx >> (n + q)) & 1)
            blocks = np.array((both == 0, both == 2), dtype=float)
            weight = np.array(((1.0 - flip, flip), (flip, 1.0 - flip)))
            trace = rho[:, :: 2**n + 1].real
            outcome = ((np.arange(2**n) >> q) & 1).astype(bool)
            p_true = np.array((trace[:, ~outcome].sum(axis=1), trace[:, outcome].sum(axis=1)))
            p_record = weight @ p_true
            parent, record = np.nonzero((p_record > _BRANCH_EPS * p_true.sum(axis=0)).T)
            rho = rho[parent] * (weight @ blocks)[record]
            creg = creg[parent]
            creg[:, op.clbit] = record
            continue
        if op.kind == "gate":
            rows = slice(None)
        else:
            rows = np.flatnonzero(creg[:, op.clbit])
            if not rows.size:
                continue
        u = gate(op.name).matrix
        block = apply_unitary(rho[rows], u, op.targets, 2 * n)
        block = apply_unitary(block, u.conj(), tuple(n + q for q in op.targets), 2 * n)
        p = noise.p1 if len(op.targets) == 1 else noise.p2
        if p > 0.0:
            for q in op.targets:
                _depolarize(block, q, p, n)
        rho[rows] = block
    return rho, creg


def exact_distribution(circuit: Circuit, noise: "NoiseModel | None" = None) -> dict[str, float]:
    """Exact classical-register distribution, keyed by bitstring.

    Without noise, or with a zero model, branches that end in the same
    register value add up in depth-first order.  Otherwise the noisy channel
    gives each reachable value's probability as its trace, with round-off
    negatives clipped to 0 and the whole renormalized to sum to 1.
    """
    if noise is None or noise.is_zero():
        _, creg, prob = _evolve(circuit)
    else:
        rho, creg = _mixed(circuit, noise)
        prob = np.clip(rho[:, :: 2**circuit.num_qubits + 1].real.sum(axis=1), 0.0, None)
        prob /= prob.sum()
    codes, dist = _tally(_register_codes(creg), prob)
    return {bitstring(code, circuit.num_clbits): p for code, p in zip(codes.tolist(), dist.tolist())}


def _exact_p0(circuit: Circuit, clbit: int, noise: "NoiseModel | None" = None) -> float:
    """Exact probability that one clbit of the register reads 0."""
    return sum(p for key, p in exact_distribution(circuit, noise).items() if _key_clbit(key, clbit) == "0")


def _qubit_state(circuit: Circuit, qubit: int) -> DensityMatrix:
    """One qubit's exact reduced state: each branch's one-qubit partial trace
    times its probability, summed in depth-first order from the first."""
    states, _, prob = _evolve(circuit)
    a = _kept_first(states, [qubit])
    terms = prob[:, None, None] * (a @ a.conj().swapaxes(1, 2))
    return DensityMatrix(sum(terms[1:], terms[0]))


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Dense unitary of a gate-only circuit."""
    for op in circuit.ops:
        if op.kind != "gate":
            raise SimulationError("unitary extraction requires a gate-only circuit")
    return _unitary(circuit.ops, circuit.num_qubits).copy()


def _unitary(ops: tuple[CircuitOp, ...] | list[CircuitOp], n: int, start: np.ndarray | None = None) -> np.ndarray:
    """The gate ops applied in order to each column of `start`, the identity
    on n qubits by default.  The columns go through apply_unitary as a batch
    of rows, and a transposed view of the result is returned."""
    rows = np.eye(2**n, dtype=complex) if start is None else start.T
    for op in ops:
        rows = apply_unitary(rows, gate(op.name).matrix, op.targets, n)
    return rows.T


def matrices_equal_up_to_phase(a: np.ndarray, b: np.ndarray) -> bool:
    """True when a = exp(i phi) * b for a single global phase, to ATOL_EVOLUTION.
    Entries near the float limit fail without a warning."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        overlap = np.vdot(b, a)
        if abs(overlap) < ATOL_EVOLUTION * np.vdot(b, b).real:
            return False
        return _allclose(a, overlap / abs(overlap) * b)
