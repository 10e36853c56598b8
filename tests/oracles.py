"""Independent reference computations for the test suite.

Everything here is dense matrices and explicit index arithmetic, with no
use of the package's state engine, so the two implementations can check
each other.  Conventions match the package: qubit 0 is the least
significant bit of the amplitude index, and a multi-qubit gate lists its
targets most significant first.  The one exception is walk_branches, a
frozen copy of the package's former recursive branch walk: it applies
gates with the package kernel on purpose, so the branches of the current
engine can be compared with it bit for bit.  circuit_error is a frozen copy
of the package's former whole-circuit check, which ran over a finished op
list; the package now checks each op as it is added.  shortest_paths is a
frozen copy of the package's former path search (breadth-first distances,
then a recursive walk along them), which the package replaced with a
layered search.  exact_stokes_by_variants is a frozen copy of the package's
former exact tomography, which ran one measured variant circuit per basis
through the exact engine; the package now reads the reduced state once.  assemble_by_fragments is a
frozen copy of the package's former protocol assembly, which rebuilt the
circuit from GHZ, Bell-measurement and X-measurement fragment builders on
every call and then deferred its measurements for the coherent form; the
package now builds the ops after the secret's preparation once.
unitary_by_rows is a frozen copy of the package's former unitary_of loop,
which evolved the identity's rows through the package kernel and then
transposed them; the package now runs that loop in a private helper that
routing shares.  dense_routing_check is a
frozen copy of the package's former check_routing, which compared two full
dense unitaries between embeddings built in a Python double loop, by
np.allclose (up_to_phase_by_allclose); the package now evolves only the
embedded logical basis.  noisy_distribution is the dense reference for the
package's noisy channel: full density matrices and Kraus sums, where the
package evolves vec(rho) through its gate kernel and depolarizes in closed
form.
"""

from __future__ import annotations

import numpy as np

_RT2 = 1.0 / np.sqrt(2.0)

GATE_MATRICES: dict[str, np.ndarray] = {
    "ID": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[_RT2, _RT2], [_RT2, -_RT2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}


def lift(u: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Expand a k-qubit matrix to the full n-qubit register.

    Built entry by entry from bit manipulation on basis indices, on
    purpose: no reshapes, no axis tricks.
    """
    k = len(targets)
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        sub_j = 0
        for t in targets:
            sub_j = (sub_j << 1) | ((j >> t) & 1)
        base = j
        for t in targets:
            base &= ~(1 << t)
        for sub_i in range(1 << k):
            i = base
            for pos, t in enumerate(targets):
                if (sub_i >> (k - 1 - pos)) & 1:
                    i |= 1 << t
            out[i, j] = u[sub_i, sub_j]
    return out


def unitary(ops: list[tuple[str, tuple[int, ...]]], n: int) -> np.ndarray:
    """Product of lifted gates, first op applied first."""
    u = np.eye(1 << n, dtype=complex)
    for name, targets in ops:
        u = lift(GATE_MATRICES[name], tuple(targets), n) @ u
    return u


def run_ops(ops: list[tuple[str, tuple[int, ...]]], n: int) -> np.ndarray:
    """Statevector after applying (name, targets) gates to |0...0>."""
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    for name, targets in ops:
        psi = lift(GATE_MATRICES[name], tuple(targets), n) @ psi
    return psi


def _compose(bits_keep: int, keep: list[int], bits_drop: int, drop: list[int]) -> int:
    i = 0
    for pos, q in enumerate(keep):
        if (bits_keep >> pos) & 1:
            i |= 1 << q
    for pos, q in enumerate(drop):
        if (bits_drop >> pos) & 1:
            i |= 1 << q
    return i


def reduced_density(psi: np.ndarray, keep: list[int], n: int) -> np.ndarray:
    """Partial trace of |psi><psi| onto the kept qubits.

    Kept qubits are re-indexed in increasing order, smallest kept qubit
    becoming qubit 0, matching the package convention.
    """
    keep = sorted(keep)
    drop = [q for q in range(n) if q not in keep]
    dk = 1 << len(keep)
    rho = np.zeros((dk, dk), dtype=complex)
    for ik in range(dk):
        for jk in range(dk):
            acc = 0.0 + 0.0j
            for e in range(1 << len(drop)):
                i = _compose(ik, keep, e, drop)
                j = _compose(jk, keep, e, drop)
                acc += psi[i] * np.conj(psi[j])
            rho[ik, jk] = acc
    return rho


def fidelity_eig(a: np.ndarray, b: np.ndarray) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(a) b sqrt(a)) via eigendecompositions."""
    wa, va = np.linalg.eigh(a)
    ra = (va * np.sqrt(np.clip(wa, 0.0, None))) @ va.conj().T
    w = np.linalg.eigvalsh(ra @ b @ ra)
    return float(np.sqrt(np.clip(w, 0.0, None)).sum())


def bloch(rho: np.ndarray) -> tuple[float, float, float, float]:
    """(Tr rho, Tr X rho, Tr Y rho, Tr Z rho) for a 2x2 matrix."""
    out = []
    for name in ("ID", "X", "Y", "Z"):
        out.append(float(np.trace(GATE_MATRICES[name] @ rho).real))
    return tuple(out)


def clamp_renormalize(rho: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues to zero and rescale the trace to one."""
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    w = w / w.sum()
    return (v * w) @ v.conj().T


def random_density(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Full-rank random density matrix from a Ginibre draw."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_pure(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def trajectory_counts(circuit, noise, shots: int, seed: int) -> dict[str, int]:
    """Sampled counts from a plain loop that carries one statevector per shot.

    The draws are the package's: one Philox row per shot, keyed by the seed,
    with columns taken in program order.  A gate or cond op with nonzero
    depolarizing probability takes (trigger, choice) per touched qubit,
    fired or not; a measurement takes a collapse column, plus a readout
    column when readout error is on.  A Pauli X, Y or Z, picked by
    int(3 * choice), follows a fired gate when trigger < p.  The outcome is 1
    when the collapse draw is >= P(0); the recorded bit is flipped when the
    readout draw is < p_read, and cond ops read the recorded bit.
    """
    p1, p2, p_read = (0.0, 0.0, 0.0) if noise is None else (noise.p1, noise.p2, noise.p_read)
    n, m = circuit.num_qubits, circuit.num_clbits
    ncols = 0
    for op in circuit.ops:
        if op.kind == "measure":
            ncols += 2 if p_read > 0.0 else 1
        elif (p1 if len(op.targets) == 1 else p2) > 0.0:
            ncols += 2 * len(op.targets)
    draws = np.random.Generator(np.random.Philox(key=seed)).random((shots, max(ncols, 1)))
    lifted: dict = {}

    def apply(name: str, targets: tuple[int, ...], psi: np.ndarray) -> np.ndarray:
        if (name, targets) not in lifted:
            lifted[name, targets] = lift(GATE_MATRICES[name], targets, n)
        return lifted[name, targets] @ psi

    index = np.arange(1 << n)
    counts: dict[str, int] = {}
    for row in draws:
        psi = np.zeros(1 << n, dtype=complex)
        psi[0] = 1.0
        creg = [0] * m
        col = 0
        for op in circuit.ops:
            if op.kind == "measure":
                one = ((index >> op.qubit) & 1) == 1
                p0 = 1.0 - float(np.sum(np.abs(psi[one]) ** 2))
                outcome = int(row[col] >= p0)
                col += 1
                psi = np.where(one == bool(outcome), psi, 0.0)
                psi = psi / np.linalg.norm(psi)
                if p_read > 0.0:
                    outcome ^= int(row[col] < p_read)
                    col += 1
                creg[op.clbit] = outcome
                continue
            fired = op.kind == "gate" or creg[op.clbit] == 1
            if fired:
                psi = apply(op.name, op.targets, psi)
            p = p1 if len(op.targets) == 1 else p2
            if p > 0.0:
                for q in op.targets:
                    if fired and row[col] < p:
                        psi = apply(("X", "Y", "Z")[int(row[col + 1] * 3.0)], (q,), psi)
                    col += 2
        key = "".join(str(b) for b in reversed(creg))
        counts[key] = counts.get(key, 0) + 1
    return counts


def noisy_distribution(circuit, noise) -> dict[str, float]:
    """Exact register distribution under the trajectory noise model, from
    Kraus sums on one full density matrix per register value.

    A gate, or a cond whose clbit reads 1, maps rho to U rho U^dagger with
    U lifted to the register, and then depolarizes each target with the
    Kraus operators sqrt(1 - p) I and sqrt(p/3) X, Y, Z: p1 after a
    one-qubit op, p2 after a two-qubit op.  A measurement applies the
    lifted projectors onto outcome 0 and 1 and records each outcome
    flipped with probability p_read.  Every register value reached is
    returned with its trace, keyed by bitstring with clbit 0 rightmost.
    """
    n, m = circuit.num_qubits, circuit.num_clbits
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[0, 0] = 1.0
    regs = {(0,) * m: rho}
    for op in circuit.ops:
        if op.kind == "measure":
            grown: dict = {}
            for reg, rho in regs.items():
                for outcome in (0, 1):
                    proj = lift(np.diag([1.0 - outcome, float(outcome)]).astype(complex), (op.qubit,), n)
                    part = proj @ rho @ proj
                    for recorded, w in ((outcome, 1.0 - noise.p_read), (1 - outcome, noise.p_read)):
                        key = reg[: op.clbit] + (recorded,) + reg[op.clbit + 1 :]
                        grown[key] = grown.get(key, 0.0) + w * part
            regs = grown
            continue
        p = noise.p1 if len(op.targets) == 1 else noise.p2
        kraus = [np.sqrt(1.0 - p) * np.eye(2)] + [np.sqrt(p / 3.0) * GATE_MATRICES[name] for name in ("X", "Y", "Z")]
        u = lift(GATE_MATRICES[op.name], op.targets, n)
        for reg, rho in regs.items():
            if op.kind == "cond" and reg[op.clbit] == 0:
                continue
            rho = u @ rho @ u.conj().T
            for q in op.targets:
                ks = [lift(k, (q,), n) for k in kraus]
                rho = sum(k @ rho @ k.conj().T for k in ks)
            regs[reg] = rho
    return {"".join(str(b) for b in reversed(reg)): float(np.trace(rho).real) for reg, rho in regs.items()}


def walk_branches(circuit) -> list[tuple[tuple[int, ...], float, np.ndarray]]:
    """(clbits, probability, state) per leaf from a depth-first recursive walk.

    Outcome 0 is walked before outcome 1 and outcomes of probability at most
    1e-14 are pruned.  Gates go through qss.states.apply_unitary, as in the
    package's former engine, so results are comparable bit for bit.
    """
    from qss.gates import gate
    from qss.states import apply_unitary

    n = circuit.num_qubits
    state0 = np.zeros(1 << n, dtype=complex)
    state0[0] = 1.0
    leaves = []

    def walk(state, prob, creg, pos):
        for i in range(pos, len(circuit.ops)):
            op = circuit.ops[i]
            if op.kind == "gate" or (op.kind == "cond" and creg[op.clbit] == 1):
                state = apply_unitary(state, gate(op.name).matrix, op.targets, n)
            elif op.kind == "measure":
                bit = (np.arange(1 << n) >> op.qubit) & 1
                p1 = float((np.abs(state) ** 2)[bit == 1].sum())
                for value, p in ((0, 1.0 - p1), (1, p1)):
                    if p <= 1e-14:
                        continue
                    reg = list(creg)
                    reg[op.clbit] = value
                    walk(np.where(bit == value, state, 0.0) / np.sqrt(p), prob * p, tuple(reg), i + 1)
                return
        leaves.append((creg, prob, state))

    walk(state0, 1.0, (0,) * circuit.num_clbits, 0)
    return leaves


def exact_stokes_by_variants(base, qubit: int) -> tuple[float, float, float, float]:
    """(1, s1, s2, s3) of a qubit, each s = 2 P(0) - 1 of the readout clbit
    of the base circuit's measured variant in that basis (X, Y, Z), with
    P(0) summed from the exact register distribution."""
    from qss.simulate import _exact_p0
    from qss.tomography import measurement_variant

    values = {}
    for basis in ("Z", "X", "Y"):
        circuit, clbit = measurement_variant(base, qubit, basis)
        values[basis] = 2.0 * _exact_p0(circuit, clbit) - 1.0
    return (1.0, values["X"], values["Y"], values["Z"])


def circuit_error(ops, num_qubits: int, num_clbits: int) -> str | None:
    """The first circuit-rule message for an op list, or None when it is valid.

    Wires must be in range, each clbit may be written by one measurement,
    and a cond may only read a clbit measured earlier in the list.
    """
    written: set[int] = set()
    for i, op in enumerate(ops):
        where = f"op {i} ({op.kind})"
        for q in op.targets:
            if not 0 <= q < num_qubits:
                return f"{where}: qubit {q} out of range"
        if op.kind == "measure":
            if not 0 <= op.qubit < num_qubits:
                return f"{where}: qubit {op.qubit} out of range"
            if not 0 <= op.clbit < num_clbits:
                return f"{where}: clbit {op.clbit} out of range"
            if op.clbit in written:
                return f"{where}: clbit {op.clbit} written twice"
            written.add(op.clbit)
        elif op.kind == "cond":
            if not 0 <= op.clbit < num_clbits:
                return f"{where}: clbit {op.clbit} out of range"
            if op.clbit not in written:
                return f"{where}: clbit {op.clbit} read before being measured"
    return None


def shortest_paths(edges, start: int, goal: int) -> list[list[int]]:
    """All shortest undirected paths between two nodes of a directed edge
    list, sorted lexicographically; ValueError when none exists."""

    def neighbors(q: int) -> list[int]:
        return sorted({t for c, t in edges if c == q} | {c for c, t in edges if t == q})

    if start == goal:
        return [[start]]
    dist = {start: 0}
    frontier = [start]
    while frontier and goal not in dist:
        nxt = []
        for u in frontier:
            for v in neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    if goal not in dist:
        raise ValueError(f"qubits {start} and {goal} are not connected")
    paths: list[list[int]] = []

    def grow(path: list[int]) -> None:
        u = path[-1]
        if u == goal:
            paths.append(list(path))
            return
        for v in neighbors(u):
            if dist.get(v) == dist[u] + 1:
                path.append(v)
                grow(path)
                path.pop()

    grow([start])
    return sorted(paths)


def assemble_by_fragments(cfg, secret):
    """The protocol circuit for a ProtocolConfig and SecretSpec, built as the
    package built it from its fragment builders: secret preparation on wire
    3, GHZ sharing from wire 2 onto 1 and 0, the Bell measurement of wires 3
    and 2 into clbits 0 and 1, the partner's X-basis measurement into clbit
    2, and the receiver's X, Z, Z corrections keyed by clbits 1, 0, 2.  The
    coherent form drops each measure and turns each cond into the
    controlled gate from the wire measured into its clbit."""
    from qss import Circuit, CircuitOp

    def gate(name, *targets):
        return CircuitOp(kind="gate", name=name, targets=targets)

    c = Circuit(4, 3)
    for name in secret.preparation:
        c.gate(name, 3)
    c.extend([gate("H", 2), gate("CNOT", 2, 1), gate("CNOT", 2, 0)])
    c.extend([
        gate("CNOT", 3, 2),
        gate("H", 3),
        CircuitOp(kind="measure", qubit=3, clbit=0),
        CircuitOp(kind="measure", qubit=2, clbit=1),
    ])
    c.extend([gate("H", cfg.partner_wire), CircuitOp(kind="measure", qubit=cfg.partner_wire, clbit=2)])
    for name, clbit in (("X", 1), ("Z", 0), ("Z", 2)):
        c.cond(name, cfg.receiver_wire, clbit)
    if cfg.mode != "coherent":
        return c

    measured_wire: dict[int, int] = {}
    ops = []
    for op in c.ops:
        if op.kind == "measure":
            measured_wire[op.clbit] = op.qubit
        elif op.kind == "cond":
            control = measured_wire[op.clbit]
            ops.append(gate({"X": "CNOT", "Z": "CZ"}[op.name], control, *op.targets))
        else:
            ops.append(op)
    return Circuit(c.num_qubits, 0, ops)


def unitary_by_rows(circuit) -> np.ndarray:
    """The dense unitary of a gate-only circuit as the package once built
    it: the identity's rows evolved as a batch of states through
    qss.states.apply_unitary, then transposed, so the results are comparable
    bit for bit."""
    from qss.gates import gate
    from qss.states import apply_unitary

    n = circuit.num_qubits
    basis = np.eye(1 << n, dtype=complex)
    for op in circuit.ops:
        basis = apply_unitary(basis, gate(op.name).matrix, op.targets, n)
    return basis.T.copy()


def up_to_phase_by_allclose(a: np.ndarray, b: np.ndarray, atol: float = 1e-10) -> bool:
    """True when a = exp(i phi) b for the phase of <b|a>, by np.allclose."""
    overlap = np.vdot(b, a)
    scale = np.vdot(b, b).real
    if abs(overlap) < atol * scale:
        return False
    phase = overlap / abs(overlap)
    return bool(np.allclose(a, phase * b, atol=atol))


def dense_routing_check(original, report, graph) -> tuple[bool, bool, tuple[str, ...]]:
    """(legal, equivalent, violations) of a routing as the package once
    checked it: every two-qubit op of the routed circuit against the graph,
    then the full routed unitary composed with the initial embedding against
    the final embedding composed with the original's unitary."""
    from qss import Circuit

    routed = report.circuit
    violations = []
    for i, op in enumerate(routed.ops):
        if len(op.targets) != 2:
            continue
        c, t = op.targets
        if op.name in ("CZ", "SWAP"):
            if not graph.has_link(c, t):
                violations.append(f"op {i}: {op.name} on non-adjacent ({c}, {t})")
        elif not graph.allows(c, t):
            violations.append(f"op {i}: CNOT against edge direction ({c}, {t})")

    def gates_only(circ):
        return Circuit(circ.num_qubits, 0, [op for op in circ.ops if op.kind == "gate"])

    def embedding(layout, num_logical, num_physical):
        e = np.zeros((2**num_physical, 2**num_logical), dtype=complex)
        for code in range(2**num_logical):
            p_code = 0
            for q in range(num_logical):
                if (code >> q) & 1:
                    p_code |= 1 << layout[q]
            e[p_code, code] = 1.0
        return e

    u_orig = unitary_by_rows(gates_only(original))
    u_routed = unitary_by_rows(gates_only(routed))
    e_init = embedding(report.initial_layout, original.num_qubits, routed.num_qubits)
    e_final = embedding(report.final_layout, original.num_qubits, routed.num_qubits)
    equivalent = up_to_phase_by_allclose(u_routed @ e_init, e_final @ u_orig)
    return not violations, equivalent, tuple(violations)
