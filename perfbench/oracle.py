"""Reference physics for the benchmark's correctness checks.

Nothing here calls the qss engine.  Gates are dense matrices lifted to the
full register by index arithmetic; noisy sampled runs are checked against a
density-matrix evolution that branches on the classical register.
Conventions match the package: qubit 0 is the least significant bit of an
amplitude index, a two-qubit gate lists its targets (control, target), and
bitstrings render clbit 0 rightmost.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_RT2 = 1.0 / math.sqrt(2.0)

GATES: dict[str, np.ndarray] = {
    "ID": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[_RT2, _RT2], [_RT2, -_RT2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
}
_PAULIS = ("X", "Y", "Z")

# Protocol wires, from the paper's circuit: 0 Charlie, 1 Bob,
# 2 the dealer's GHZ share, 3 the secret.
_CHARLIE, _BOB, _DEALER, _SECRET = 0, 1, 2, 3


@lru_cache(maxsize=None)
def lift(name: str, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Gate `name` on `targets` as a dense 2**n x 2**n matrix."""
    idx = np.arange(1 << n)
    sub = np.zeros_like(idx)
    mask = 0
    for t in targets:
        sub = (sub << 1) | ((idx >> t) & 1)
        mask |= 1 << t
    rest = idx & ~mask
    u = GATES[name][sub[:, None], sub[None, :]]
    return np.where(rest[:, None] == rest[None, :], u, 0.0)


def _bit_mask(q: int, n: int, value: int) -> np.ndarray:
    return ((np.arange(1 << n) >> q) & 1) == value


# --- circuits as plain tuples -------------------------------------------
# ("gate", name, targets) | ("measure", qubit, clbit) | ("cond", name, targets, clbit)


def _shared_prefix(secret: tuple[str, ...]) -> list[tuple]:
    """Secret preparation, the GHZ state, and the dealer's Bell rotation."""
    ops: list[tuple] = [("gate", g, (_SECRET,)) for g in secret]
    return ops + [
        ("gate", "H", (_DEALER,)),
        ("gate", "CNOT", (_DEALER, _BOB)),
        ("gate", "CNOT", (_DEALER, _CHARLIE)),
        ("gate", "CNOT", (_SECRET, _DEALER)),
        ("gate", "H", (_SECRET,)),
    ]


def _wires(receiver: str) -> tuple[int, int]:
    """(receiver, partner) wires."""
    return (_CHARLIE, _BOB) if receiver == "charlie" else (_BOB, _CHARLIE)


def protocol_ops(secret: tuple[str, ...], receiver: str) -> list[tuple]:
    """The feedforward secret-sharing circuit, built from the paper, with
    the receiver measured into clbit 3."""
    rx, partner = _wires(receiver)
    return _shared_prefix(secret) + [
        ("measure", _SECRET, 0),
        ("measure", _DEALER, 1),
        ("gate", "H", (partner,)),
        ("measure", partner, 2),
        ("cond", "X", (rx,), 1),
        ("cond", "Z", (rx,), 0),
        ("cond", "Z", (rx,), 2),
        ("measure", rx, 3),
    ]


def calibration_ops(receiver: str) -> list[tuple]:
    """The `calibrate` circuit: the coherent protocol (corrections as
    controlled gates) with the default secret, receiver measured into clbit 0."""
    rx, partner = _wires(receiver)
    return _shared_prefix(("H", "T", "H")) + [
        ("gate", "H", (partner,)),
        ("gate", "CNOT", (_DEALER, rx)),
        ("gate", "CZ", (_SECRET, rx)),
        ("gate", "CZ", (partner, rx)),
        ("measure", rx, 0),
    ]


def circuit_ops(circuit) -> list[tuple]:
    """Plain-tuple form of a qss Circuit (read through its public fields)."""
    out = []
    for op in circuit.ops:
        if op.kind == "gate":
            out.append(("gate", op.name, tuple(op.targets)))
        elif op.kind == "measure":
            out.append(("measure", op.qubit, op.clbit))
        else:
            out.append(("cond", op.name, tuple(op.targets), op.clbit))
    return out


# --- pure states ----------------------------------------------------------


def secret_state(secret: tuple[str, ...]) -> np.ndarray:
    psi = np.array([1.0, 0.0], dtype=complex)
    for g in secret:
        psi = GATES[g] @ psi
    return psi


def statevector(ops: list[tuple], n: int) -> np.ndarray:
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    for op in ops:
        psi = lift(op[1], op[2], n) @ psi
    return psi


def unitary(ops: list[tuple], n: int) -> np.ndarray:
    u = np.eye(1 << n, dtype=complex)
    for op in ops:
        u = lift(op[1], op[2], n) @ u
    return u


def exact_distribution(ops: list[tuple], n: int, m: int) -> dict[str, float]:
    """Noiseless register distribution by branching pure states."""
    branches = {0: np.eye(1 << n, dtype=complex)[0]}
    for op in ops:
        if op[0] == "measure":
            _, q, c = op
            nxt = {}
            for reg, psi in branches.items():
                for value in (0, 1):
                    sub = np.where(_bit_mask(q, n, value), psi, 0.0)
                    if np.vdot(sub, sub).real > 0.0:
                        nxt[reg | (value << c)] = sub
            branches = nxt
        else:
            u = lift(op[1], op[2], n)
            for reg, psi in branches.items():
                if op[0] == "gate" or (reg >> op[3]) & 1:
                    branches[reg] = u @ psi
    return {format(reg, f"0{m}b"): float(np.vdot(psi, psi).real) for reg, psi in sorted(branches.items())}


def reduced_density(psi: np.ndarray, target: int, n: int) -> np.ndarray:
    """Single-qubit reduced density matrix of a pure n-qubit state."""
    idx = np.arange(1 << n)
    rest = idx[((idx >> target) & 1) == 0]
    a0, a1 = psi[rest], psi[rest | (1 << target)]
    return np.array(
        [[np.vdot(a0, a0), np.vdot(a1, a0)], [np.vdot(a0, a1), np.vdot(a1, a1)]],
        dtype=complex,
    )


def stokes(rho: np.ndarray) -> tuple[float, float, float]:
    """(s1, s2, s3) = Tr(X rho), Tr(Y rho), Tr(Z rho)."""
    return tuple(float(np.trace(GATES[p] @ rho).real) for p in _PAULIS)


def fidelity_2x2(a: np.ndarray, b: np.ndarray) -> float:
    """Uhlmann fidelity (root convention) of two qubit density matrices:
    F^2 = Tr(a b) + 2 sqrt(det a det b)."""
    da = max(float(np.linalg.det(a).real), 0.0)
    db = max(float(np.linalg.det(b).real), 0.0)
    f2 = float(np.trace(a @ b).real) + 2.0 * math.sqrt(da * db)
    return min(math.sqrt(max(f2, 0.0)), 1.0)


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, atol: float) -> bool:
    overlap = np.vdot(b.reshape(-1), a.reshape(-1))
    if abs(overlap) == 0.0:
        return False
    return bool(np.max(np.abs(a - (overlap / abs(overlap)) * b)) <= atol)


def embedding(layout: dict[int, int], n_logical: int, n_physical: int) -> np.ndarray:
    """Isometry sending logical basis states to their physical wires."""
    e = np.zeros((1 << n_physical, 1 << n_logical), dtype=complex)
    for code in range(1 << n_logical):
        p_code = sum(1 << layout[q] for q in range(n_logical) if (code >> q) & 1)
        e[p_code, code] = 1.0
    return e


# --- noisy density-matrix evolution -------------------------------------


def _depolarize(rho: np.ndarray, q: int, p: float, n: int) -> np.ndarray:
    mix = sum(lift(name, (q,), n) @ rho @ lift(name, (q,), n) for name in _PAULIS)
    return (1.0 - p) * rho + (p / 3.0) * mix


def noisy_distribution(ops: list[tuple], n: int, m: int, p1: float, p2: float, p_read: float) -> np.ndarray:
    """Exact register distribution under the trajectory noise model.

    After every gate, and every cond that fires, each touched qubit is
    depolarized (a uniformly random X, Y or Z with probability p1 for
    one-qubit gates, p2 for two-qubit gates).  A measurement collapses on the
    true outcome and records it flipped with probability p_read; cond ops
    read the recorded bit.  Returns probabilities indexed by register code.
    """
    dim = 1 << n
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[0, 0] = 1.0
    regs = {0: rho0}
    for op in ops:
        if op[0] == "measure":
            _, q, c = op
            nxt: dict[int, np.ndarray] = {}
            for reg, rho in regs.items():
                for true in (0, 1):
                    keep = _bit_mask(q, n, true)
                    part = rho * keep[:, None] * keep[None, :]
                    for recorded, w in ((true, 1.0 - p_read), (1 - true, p_read)):
                        if w == 0.0:
                            continue
                        key = reg | (recorded << c)
                        nxt[key] = nxt.get(key, 0.0) + w * part
            regs = nxt
            continue
        kind, name, targets = op[0], op[1], op[2]
        u = lift(name, targets, n)
        p = p1 if len(targets) == 1 else p2
        for reg, rho in regs.items():
            if kind == "cond" and not (reg >> op[3]) & 1:
                continue
            rho = u @ rho @ u.conj().T
            if p > 0.0:
                for q in targets:
                    rho = _depolarize(rho, q, p, n)
            regs[reg] = rho
    probs = np.zeros(1 << m)
    for reg, rho in regs.items():
        probs[reg] = float(np.trace(rho).real)
    return probs


@lru_cache(maxsize=4096)
def protocol_distribution(secret: tuple[str, ...], receiver: str, p1: float, p2: float, p_read: float) -> np.ndarray:
    """Register distribution (4 clbits) of the sampled protocol run."""
    return noisy_distribution(protocol_ops(secret, receiver), 4, 4, p1, p2, p_read)


@lru_cache(maxsize=256)
def calibration_p0(receiver: str, p: float, p_read: float) -> float:
    """Receiver P(0) of the `calibrate` circuit at depolarizing strength p."""
    return float(noisy_distribution(calibration_ops(receiver), 4, 1, p, p, p_read)[0])


def z_score(count: int, total: int, p: float) -> float:
    """Binomial z-score of `count` successes in `total` trials at rate p.

    A rate of exactly 0 or 1 admits no deviation at all.
    """
    sigma = math.sqrt(total * p * (1.0 - p))
    dev = count - total * p
    if sigma == 0.0:
        return 0.0 if abs(dev) < 1e-9 else math.inf
    return dev / sigma
