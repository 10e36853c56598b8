"""Statevectors and density matrices on up to 8 qubits.

Qubit 0 is the least significant bit of the amplitude index, so |q1 q0> = |01>
means qubit 0 is excited and lives at index 1.  Bitstrings render qubit 0
rightmost throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .gates import ATOL_EVOLUTION, _allclose, gate

MAX_QUBITS = 8


def _width(n: int, name: str) -> int:
    """n, which must be a register width in [1, MAX_QUBITS]."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"{name} must be in [1, {MAX_QUBITS}]")
    return n


def _num_qubits_for(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    if n > MAX_QUBITS:
        raise ValueError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit limit")
    return n


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state; amplitudes are a read-only complex array."""

    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.amplitudes, dtype=complex).reshape(-1).copy()
        _num_qubits_for(a.size)
        if not np.all(np.isfinite(a.view(float))):
            raise ValueError("amplitudes must be finite")
        norm = float(np.linalg.norm(a))
        if abs(norm - 1.0) > ATOL_EVOLUTION:
            raise ValueError(f"state is not normalized: |psi| = {norm}")
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    @property
    def num_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    @classmethod
    def zero(cls, num_qubits: int) -> "StateVector":
        """|0...0> on num_qubits qubits."""
        a = np.zeros(2 ** _width(num_qubits, "num_qubits"), dtype=complex)
        a[0] = 1.0
        return cls(a)

    def inner(self, other: "StateVector") -> complex:
        """<self|other>."""
        if self.num_qubits != other.num_qubits:
            raise ValueError("qubit counts differ")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def density(self) -> "DensityMatrix":
        """|psi><psi| as a density matrix."""
        a = self.amplitudes
        return DensityMatrix(np.outer(a, a.conj()))


@lru_cache(maxsize=512)
def _gather_tables(
    matrix_bytes: bytes, shape: tuple[int, ...], targets: tuple[int, ...], num_qubits: int
) -> tuple[np.ndarray, np.ndarray, tuple[tuple[np.ndarray | None, np.ndarray | None], ...]]:
    """Cached (perm, coef, terms) tables of a complex matrix, given by its
    bytes and shape, on target qubits; conventions are those of apply_unitary.

    perm and coef have shape (terms, 2**num_qubits), and the matrix maps psi
    to sum_t coef[t] * psi[perm[t]].  Term t of output index i is the t-th
    nonzero entry, in column order, of the matrix row that i's target bits
    select, so the term count is the most nonzeros in any row: 1 for a
    monomial matrix (every Pauli and every registry gate but H), 2 for H.
    Rows with fewer nonzeros take zero coefficients.  terms pairs each perm
    row with its coef row, None for an identity gather or unit coefficients
    (a diagonal gate is one multiply, a permutation one exact gather).  The
    arrays are read-only, as the cache hands them to every caller.  A failed
    check raises, and so caches nothing.
    """
    k = len(targets)
    if shape != (2**k, 2**k):
        raise ValueError(f"matrix shape {shape} does not match {k} targets")
    if len(set(targets)) != k:
        raise ValueError(f"duplicate target qubits in {targets}")
    for q in targets:
        if not 0 <= q < num_qubits:
            raise ValueError(f"target qubit {q} out of range for {num_qubits} qubits")
    u = np.frombuffer(matrix_bytes, dtype=complex).reshape(shape)
    idx = np.arange(2**num_qubits)
    # Qubit targets[pos] carries the bit of weight 2**(k-1-pos) in the matrix index.
    weights = [(k - 1 - pos, q) for pos, q in enumerate(targets)]
    row = sum(((idx >> q) & 1) << w for w, q in weights)
    spread = sum(((np.arange(2**k) >> w) & 1) << q for w, q in weights)
    rest = idx & ~sum(1 << q for q in targets)
    nonzero = u != 0
    cols = np.argsort(~nonzero, axis=1, kind="stable")[:, : max(1, nonzero.sum(axis=1).max())]
    perm = (rest[:, None] | spread[cols[row]]).T.copy()
    coef = np.take_along_axis(u, cols, axis=1)[row].T.copy()
    perm.setflags(write=False)
    coef.setflags(write=False)
    terms = tuple((None if (p == idx).all() else p, None if (c == 1).all() else c) for p, c in zip(perm, coef))
    return perm, coef, terms


def apply_unitary(amps: np.ndarray, matrix: np.ndarray, targets: tuple[int, ...], num_qubits: int) -> np.ndarray:
    """Apply a k-qubit unitary to target qubits of a batch of statevectors.

    amps has shape (..., 2**num_qubits); a new array is returned.  targets
    lists the qubits the matrix acts on, most significant first, so for a
    two-qubit gate targets = (control, target).  The gate is a sum of
    gathers and multiplies from cached tables, elementwise on each row, so
    a row's result does not depend on the rows batched beside it.
    """
    m = np.asarray(matrix, dtype=complex)
    terms = _gather_tables(m.tobytes(), m.shape, tuple(targets), num_qubits)[2]
    amps = np.asarray(amps, dtype=complex)
    out = None
    for p, c in terms:
        # In place, as each fresh array of a large batch costs page faults.
        if p is not None:
            term = amps.take(p, axis=-1)
            if c is not None:
                term *= c
        else:
            term = amps.copy() if c is None else amps * c
        out = term if out is None else np.add(out, term, out=out)
    return out


def apply_gate(state: StateVector, name: str, targets: tuple[int, ...] | list[int]) -> StateVector:
    """Apply a registry gate, given by name, to a statevector and return the new state."""
    g = gate(name)
    targets = tuple(targets)
    if len(targets) != g.arity:
        raise ValueError(f"gate {g.name} expects {g.arity} targets, got {len(targets)}")
    return StateVector(apply_unitary(state.amplitudes, g.matrix, targets, state.num_qubits))


def _check_hermitian(m: np.ndarray, what: str) -> None:
    """Raise ValueError unless every entry of the square matrix m has a finite
    modulus and m equals its conjugate transpose to ATOL_EVOLUTION.  Overflow
    near the float limit fails a check, without numpy's overflow warning."""
    with np.errstate(over="ignore"):
        if not np.isfinite(abs(m)).all():
            raise ValueError(f"{what} must be finite")
    if not _allclose(m, m.conj().T):
        raise ValueError(f"{what} must be Hermitian")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace matrix; positivity is queried, not enforced.

    Tomography can produce slightly unphysical reconstructions, so negative
    eigenvalues are allowed at construction and reported via is_physical().
    """

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex).copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        _num_qubits_for(m.shape[0])
        _check_hermitian(m, "density matrix")
        with np.errstate(over="ignore"):  # an overflowed trace is inf, and fails below
            tr = complex(np.trace(m))
        if abs(tr - 1.0) > ATOL_EVOLUTION:
            raise ValueError(f"density matrix trace must be 1, got {tr}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_qubits(self) -> int:
        return self.dim.bit_length() - 1

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def is_physical(self, atol: float = 1e-9) -> bool:
        """True when all eigenvalues are >= -atol."""
        return bool(self.eigenvalues().min() >= -atol)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "re": self.matrix.real.tolist(),
            "im": self.matrix.imag.tolist(),
        }


def _kept_first(x: np.ndarray, keep: list[int]) -> np.ndarray:
    """Split the last axis, a basis index over n qubits, into two: the bits
    of the sorted kept qubits, most significant first, then the rest."""
    *lead, dim = x.shape
    n, k, b = dim.bit_length() - 1, len(keep), len(lead)
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"kept qubits {keep} out of range for {n} qubits")
    t = np.moveaxis(x.reshape((*lead,) + (2,) * n), [b + n - 1 - q for q in reversed(keep)], range(b, b + k))
    return t.reshape((*lead, 2**k, -1))
