"""Uhlmann fidelity and matrix-root helpers for single-qubit states.

F(rho_t, rho_e) = Tr sqrt( sqrt(rho_t) rho_e sqrt(rho_t) ), computed through
Hermitian eigendecompositions.  Eigenvalues in [-EIG_FLOOR, 0) are treated as
numerical noise and clipped to 0; anything more negative is rejected so badly
unphysical input cannot silently launder through a square root.
"""

from __future__ import annotations

import numpy as np

from .states import DensityMatrix, StateVector, _check_hermitian

EIG_FLOOR = 1e-9


def _as_matrix(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    m = np.asarray(rho, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    _check_hermitian(m, "matrix")
    return m


def _clipped_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = np.linalg.eigh(m)
    if vals.min() < -EIG_FLOOR:
        raise ValueError(
            f"eigenvalue {vals.min():.3e} below -{EIG_FLOOR:.0e}; matrix is not positive semidefinite"
        )
    return np.clip(vals, 0.0, None), vecs


def _root(m: np.ndarray) -> np.ndarray:
    """psd_sqrt of a matrix that _as_matrix has already checked."""
    vals, vecs = _clipped_eigh(m)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def psd_sqrt(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in [-EIG_FLOOR, 0) are clipped to zero before the root;
    eigenvalues below -EIG_FLOOR raise ValueError.
    """
    return _root(_as_matrix(rho))


def fidelity(rho_t: DensityMatrix | np.ndarray, rho_e: DensityMatrix | np.ndarray) -> float:
    """Uhlmann fidelity between two density matrices, clipped into [0, 1]."""
    a = _as_matrix(rho_t)
    b = _as_matrix(rho_e)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    ra = _root(a)
    inner = ra @ b @ ra
    # inner is PSD up to roundoff; reuse the clipped root for its trace.
    vals, _ = _clipped_eigh((inner + inner.conj().T) / 2.0)
    f = float(np.sqrt(vals).sum())
    return float(np.clip(f, 0.0, 1.0))


def pure_state_fidelity(psi: StateVector | np.ndarray, rho: DensityMatrix | np.ndarray) -> float:
    """F = sqrt(<psi|rho|psi>) for a pure target.

    Defined for any Hermitian rho, including slightly unphysical tomography
    output; the quadratic form is clipped into [0, 1] before the root.  A
    raw vector is checked as a StateVector: finite, normalized, and of
    power-of-two length.
    """
    v = (psi if isinstance(psi, StateVector) else StateVector(psi)).amplitudes
    m = _as_matrix(rho)
    if m.shape[0] != v.size:
        raise ValueError(f"dimension mismatch: state {v.size}, matrix {m.shape[0]}")
    q = float(np.real(np.vdot(v, m @ v)))
    return float(np.sqrt(np.clip(q, 0.0, 1.0)))
