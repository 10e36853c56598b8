"""Gate registry: fixed matrices for the small gate set used by the circuit layer.

All matrices are unitary to within ATOL_STRUCTURAL and are checked once at
import time.  Two-qubit matrices act on the basis ordered |control, target>
(index = 2*control_bit + target_bit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ATOL_STRUCTURAL = 1e-12
ATOL_EVOLUTION = 1e-10
# np.allclose's default relative tolerance, which _allclose keeps.
_RTOL_EVOLUTION = 1e-5

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _allclose(a: np.ndarray, b: np.ndarray) -> bool:
    """np.allclose(a, b, atol=ATOL_EVOLUTION) for finite b, without its
    per-call overhead: |a - b| <= atol + rtol |b| in every entry.  A
    difference that overflows to inf fails the test without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool((abs(a - b) <= ATOL_EVOLUTION + _RTOL_EVOLUTION * abs(b)).all())


@dataclass(frozen=True)
class GateMatrix:
    """A named unitary with its qubit count."""

    name: str
    arity: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        dim = 2**self.arity
        if m.shape != (dim, dim):
            raise ValueError(f"gate {self.name}: expected {dim}x{dim} matrix, got {m.shape}")
        if not np.allclose(m @ m.conj().T, np.eye(dim), atol=ATOL_STRUCTURAL):
            raise ValueError(f"gate {self.name}: matrix is not unitary")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _g(name: str, arity: int, rows: list[list[complex]]) -> GateMatrix:
    return GateMatrix(name, arity, np.array(rows, dtype=complex))


GATES: dict[str, GateMatrix] = {
    g.name: g
    for g in [
        _g("ID", 1, [[1, 0], [0, 1]]),
        _g("X", 1, [[0, 1], [1, 0]]),
        _g("Y", 1, [[0, -1j], [1j, 0]]),
        _g("Z", 1, [[1, 0], [0, -1]]),
        _g("H", 1, [[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]]),
        _g("S", 1, [[1, 0], [0, 1j]]),
        _g("SDG", 1, [[1, 0], [0, -1j]]),
        _g("T", 1, [[1, 0], [0, np.exp(1j * math.pi / 4)]]),
        _g("CNOT", 2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
        _g("CZ", 2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]),
        _g("SWAP", 2, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
    ]
}

# Pauli basis sigma_0..sigma_3, used by the Stokes <-> density map.
PAULIS: tuple[np.ndarray, ...] = (
    GATES["ID"].matrix,
    GATES["X"].matrix,
    GATES["Y"].matrix,
    GATES["Z"].matrix,
)


def gate(name: str) -> GateMatrix:
    """Look up a gate by name, raising ValueError for unknown names."""
    try:
        return GATES[name]
    except KeyError:
        raise ValueError(f"unknown gate {name!r}") from None
