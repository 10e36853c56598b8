"""Single-qubit Stokes parameters and the Pauli-basis density map.

A qubit state is summarized by S = (s0, s1, s2, s3) with s0 = 1 and
rho = (1/2) * sum_i s_i * sigma_i; only s1, s2 and s3 are stored.
Sampling noise can push the Bloch norm above 1; such vectors are carried
as-is and flagged, not rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .gates import PAULIS
from .states import DensityMatrix

_RANGE_ATOL = 1e-9


@dataclass(frozen=True)
class StokesVector:
    """(s1, s2, s3) of a qubit; s0 = Tr rho is the normalization 1, never measured."""

    s1: float
    s2: float
    s3: float
    s0: ClassVar[float] = 1.0

    def __post_init__(self) -> None:
        for name in ("s1", "s2", "s3"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not abs(v) <= 1.0 + _RANGE_ATOL:  # NaN fails too
                raise ValueError(f"{name} = {v} lies outside [-1, 1]")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.s0, self.s1, self.s2, self.s3)

    def bloch_norm(self) -> float:
        return _norm((self.s1, self.s2, self.s3))

    def is_physical(self) -> bool:
        """True when the Bloch vector fits inside the unit ball, allowing
        _RANGE_ATOL of rounding: the one rule for a physical vector."""
        return _inside_ball(self.bloch_norm())


def _norm(s: tuple[float, float, float]) -> float:
    return math.sqrt(s[0] ** 2 + s[1] ** 2 + s[2] ** 2)


def _inside_ball(norm: float) -> bool:
    """The rule of StokesVector.is_physical, on a Bloch norm."""
    return norm <= 1.0 + _RANGE_ATOL


def density_from_stokes(s: StokesVector) -> DensityMatrix:
    """rho = (1/2) sum_i s_i sigma_i; may be unphysical if |S| > 1."""
    m = np.zeros((2, 2), dtype=complex)
    for coeff, sigma in zip(s.as_tuple(), PAULIS):
        m += 0.5 * coeff * sigma
    return DensityMatrix(m)


def _bloch(rho: DensityMatrix) -> tuple[float, float, float]:
    """s_i = Tr(sigma_i rho), i = 1..3, of a single-qubit matrix, with no
    range check, so an unphysical matrix may give |s_i| > 1."""
    if rho.dim != 2:
        raise ValueError(f"expected a single-qubit matrix, got dim {rho.dim}")
    s1, s2, s3 = (float(np.trace(sigma @ rho.matrix).real) for sigma in PAULIS[1:])
    return s1, s2, s3


def stokes_from_density(rho: DensityMatrix) -> StokesVector:
    """Inverse map s_i = Tr(sigma_i rho) for a single-qubit matrix."""
    return StokesVector(*_bloch(rho))
