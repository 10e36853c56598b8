"""Shot sampling, exact branch enumeration, and unitary extraction.

Sampled and exact runs share one engine that holds only the distinct states
of a run: a (G, 2**n) array of statevectors with a classical register per
group.  Gates act once per group; conditioned gates act on the groups whose
register bit reads 1.

Sampled runs map every shot to a group id.  Randomness comes from a
counter-based generator (Philox) keyed by the run seed, laid out as one row
of uniforms per shot with a fixed column per consumption site, so results
are independent of batching and a zero-probability noise channel consumes no
draws at all: a run with NoiseModel(0, 0, 0) is bit-identical to a noiseless
run.  A Pauli hit moves only the shots it hits into new groups keyed by
(group, Pauli); a measurement regroups every shot by (group, true outcome,
recorded bit).  Both regroupings rank keys densely instead of sorting them,
and a Pauli hit is an index gather with a phase, not a dense kernel.

A batch holds at most _CHUNK_AMPS amplitudes of state capacity (one row per
shot) and at most _CHUNK_AMPS uniform draws, or one shot if a single shot
exceeds either.  Each batch is tallied into a 2**m counter as it finishes,
so peak memory is O(_CHUNK_AMPS) whatever the shot count or circuit length.

Exact runs weight each group by its probability instead: a measurement
splits every group into its nonzero-probability outcomes, 0 before 1, so the
branches come out in depth-first order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .circuit import Circuit, Counts, RunConfig
from .gates import ATOL_EVOLUTION, PAULIS, gate
from .states import _gather_tables, apply_unitary

if TYPE_CHECKING:
    from .noise import NoiseModel

MAX_UNITARY_QUBITS = 5
MAX_BRANCHES = 2**16
_BRANCH_EPS = 1e-14
_CHUNK_AMPS = 2**19


class SimulationError(RuntimeError):
    """Raised when a circuit cannot be executed as requested."""


@dataclass(frozen=True)
class Branch:
    """One feedforward outcome: classical register, probability, final state."""

    clbits: tuple[int, ...]
    probability: float
    state: np.ndarray = field(repr=False)

    def register_code(self) -> int:
        return sum(b << i for i, b in enumerate(self.clbits))


def _draw_layout(circuit: Circuit, noise: "NoiseModel | None") -> tuple[list[dict], int]:
    """Assign uniform-draw columns to each op, in program order.

    Gates take (trigger, choice) per touched qubit when their depolarizing
    probability is nonzero; measurements take one collapse draw plus one
    readout draw when readout error is on.  Conditioned gates reserve their
    columns whether or not they fire, so the layout is shot-independent.
    Returns the layout and its column count.
    """
    p1, p2, p_read = (0.0, 0.0, 0.0) if noise is None else (noise.p1, noise.p2, noise.p_read)
    layout = []
    col = 0
    for op in circuit.ops:
        if op.kind == "measure":
            readout = col + 1 if p_read > 0.0 else None
            layout.append({"op": op, "collapse_col": col, "readout_col": readout, "p_read": p_read})
            col += 1 if readout is None else 2
        else:
            p = p1 if len(op.targets) == 1 else p2
            cols = [(col + 2 * i, col + 2 * i + 1) for i in range(len(op.targets))] if p > 0.0 else []
            layout.append({"op": op, "p": p, "noise_cols": cols})
            col += 2 * len(cols)
    return layout, col


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


def _compact(states: np.ndarray, creg: np.ndarray, group: np.ndarray, g: int, leaving: np.ndarray) -> int:
    """Pack the groups still held by shots outside `leaving` into the first
    rows, renumber those shots, and return the new group count."""
    stay = np.ones(group.size, dtype=bool)
    stay[leaving] = False
    live, group[stay] = _regroup(group[stay], g)
    states[: live.size] = states[live]
    creg[: live.size] = creg[live]
    return live.size


def _evolve(circuit: Circuit, layout: list[dict], u: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evolve the distinct states of one batch of shots, or every branch.

    Given draws u (one row per shot) this returns (states, creg, group),
    where group maps each shot to its row.  With u None the run is exact and
    returns (states, creg, prob), one row per branch in depth-first order.
    """
    n = circuit.num_qubits
    bits = (np.arange(2**n) >> np.arange(n)[:, None]) & 1
    cap = 1 if u is None else len(u)
    states = np.empty((cap, 2**n), dtype=complex)
    states[0] = 0.0
    states[0, 0] = 1.0
    creg = np.zeros((cap, circuit.num_clbits), dtype=np.int64)
    group = None if u is None else np.zeros(cap, dtype=np.int64)
    prob = np.ones(1)
    g = 1
    for entry in layout:
        op = entry["op"]
        if op.kind == "measure":
            bit = bits[op.qubit]
            p1 = (np.abs(states[:g]) ** 2)[:, bit == 1].sum(axis=1)
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
                shot_outcome = (u[:, entry["collapse_col"]] >= p0[group]).astype(np.int64)
                shot_record = shot_outcome
                if entry["readout_col"] is not None:
                    shot_record = shot_outcome ^ (u[:, entry["readout_col"]] < entry["p_read"])
                keys, group = _regroup(group * 4 + shot_outcome * 2 + shot_record, 4 * g)
                parent, outcome, recorded = keys >> 2, (keys >> 1) & 1, keys & 1
                p = np.where(outcome == 1, p1[parent], p0[parent])
            new = np.where(bit == outcome[:, None], states[parent], 0.0) / np.sqrt(p)[:, None]
            reg = creg[parent]
            reg[:, op.clbit] = recorded
            g = parent.size
            if u is None:
                states, creg = new, reg
            else:
                states[:g], creg[:g] = new, reg
            continue
        if op.kind == "gate":
            rows = slice(0, g)
        else:
            rows = np.flatnonzero(creg[:g, op.clbit])
            if not rows.size:
                continue
        states[rows] = apply_unitary(states[rows], gate(op.name).matrix, op.targets, n)
        for q, (trigger, choice) in zip(op.targets, entry["noise_cols"]):
            shots = np.flatnonzero(u[:, trigger] < entry["p"])
            if op.kind == "cond":
                shots = shots[creg[group[shots], op.clbit] == 1]
            if not shots.size:
                continue
            which = (u[shots, choice] * 3.0).astype(np.int64)
            keys, inv = _regroup(group[shots] * 3 + which, 3 * g)
            parent, pauli = np.divmod(keys, 3)
            perm, phase = _pauli_tables(n, q)
            new, reg = phase[pauli] * states[parent[:, None], perm[pauli]], creg[parent]
            if g + keys.size > cap:
                g = _compact(states, creg, group, g, shots)
            states[g : g + keys.size], creg[g : g + keys.size] = new, reg
            group[shots] = g + inv
            g += keys.size
    return states[:g], creg[:g], prob if u is None else group


def simulate_shots(circuit: Circuit, cfg: RunConfig, noise: "NoiseModel | None" = None) -> Counts:
    """Sample a circuit's shots and tally classical register values.

    Shots are processed in batches of _CHUNK_AMPS // max(2**n, draw
    columns) shots, at least one, and each batch is tallied as it finishes;
    measurement collapse uses the true outcome while the recorded bit may be
    flipped by readout error.
    """
    layout, ncols = _draw_layout(circuit, noise)
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))

    m = circuit.num_clbits
    weights = 1 << np.arange(m, dtype=np.int64)
    tally = np.zeros(2**m, dtype=np.int64)
    rows = max(1, _CHUNK_AMPS // max(2**circuit.num_qubits, ncols))
    for start in range(0, cfg.shots, rows):
        # Philox fills rows in order, so drawing per batch gives the same
        # numbers as one shots x columns draw.  Neither a batch's draws nor
        # its states buffer is held while the next batch runs.
        stop = min(start + rows, cfg.shots)
        creg, group = _evolve(circuit, layout, rng.random((stop - start, max(ncols, 1))))[1:]
        tally += np.bincount((creg @ weights)[group], minlength=2**m)
    return Counts._from_tally(tally, m)


def enumerate_branches(circuit: Circuit) -> list[Branch]:
    """Every nonzero-probability measurement outcome of a circuit.

    Returns one Branch per leaf, in depth-first order (outcome 0 before 1),
    with the classical register, the exact branch probability, and the
    final statevector.  Raises SimulationError if more than 2**16 branches
    would be produced.
    """
    states, creg, prob = _evolve(circuit, _draw_layout(circuit, None)[0], None)
    branches = []
    for state, reg, p in zip(states, creg.tolist(), prob.tolist()):
        final = state.copy()
        final.setflags(write=False)
        branches.append(Branch(clbits=tuple(reg), probability=p, state=final))
    return branches


def exact_distribution(circuit: Circuit) -> dict[str, float]:
    """Exact classical-register distribution, keyed by bitstring."""
    from .circuit import bitstring

    m = circuit.num_clbits
    dist: dict[int, float] = {}
    for br in enumerate_branches(circuit):
        code = br.register_code()
        dist[code] = dist.get(code, 0.0) + br.probability
    return {bitstring(code, m): p for code, p in sorted(dist.items())}


def _exact_p0(circuit: Circuit, clbit: int) -> float:
    """Exact probability that one clbit of the register reads 0."""
    pos = circuit.num_clbits - 1 - clbit
    return sum(p for key, p in exact_distribution(circuit).items() if key[pos] == "0")


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Dense unitary of a gate-only circuit on at most 5 qubits."""
    if circuit.num_qubits > MAX_UNITARY_QUBITS:
        raise SimulationError(f"unitary extraction is limited to {MAX_UNITARY_QUBITS} qubits")
    for op in circuit.ops:
        if op.kind != "gate":
            raise SimulationError("unitary extraction requires a gate-only circuit")
    n = circuit.num_qubits
    dim = 2**n
    basis = np.eye(dim, dtype=complex)
    for op in circuit.ops:
        basis = apply_unitary(basis, gate(op.name).matrix, op.targets, n)
    return basis.T.copy()


def matrices_equal_up_to_phase(a: np.ndarray, b: np.ndarray) -> bool:
    """True when a = exp(i phi) * b for a single global phase, to ATOL_EVOLUTION."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    overlap = np.vdot(b, a)
    scale = np.vdot(b, b).real
    if abs(overlap) < ATOL_EVOLUTION * scale:
        return False
    phase = overlap / abs(overlap)
    return bool(np.allclose(a, phase * b, atol=ATOL_EVOLUTION))


def equivalent_up_to_phase(a: Circuit, b: Circuit) -> bool:
    """Compare two gate-only circuits as unitaries modulo global phase."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("circuits act on different qubit counts")
    return matrices_equal_up_to_phase(unitary_of(a), unitary_of(b))
