"""Stokes parameter maps and Uhlmann fidelity, including the frozen
reference comparison between the ideal secret and the hardware matrix."""

import numpy as np
import pytest

from qss import (
    DensityMatrix,
    StateVector,
    StokesVector,
    density_from_stokes,
    fidelity,
    psd_sqrt,
    pure_state_fidelity,
    stokes_from_density,
)

import oracles
from conftest import (
    FID_HW_REPORTED,
    FID_SECRET_CONJ_VS_HW,
    FID_SECRET_VS_HW,
    RHO_HW,
    RHO_SECRET,
    SQ2_HALF,
    STOKES_HW,
)


def test_stokes_validation():
    with pytest.raises(ValueError, match="s2"):
        StokesVector(0.0, 1.5, 0.0)
    s = StokesVector(0.6, 0.0, 0.8)
    assert s.bloch_norm() == pytest.approx(1.0)
    assert s.is_physical()
    # s0 is the normalization Tr rho = 1, never an argument
    assert s.as_tuple() == (1.0, 0.6, 0.0, 0.8)
    with pytest.raises(TypeError):
        StokesVector(1.0, 0.6, 0.0, 0.8)


def test_overlong_bloch_vector_is_carried_but_flagged():
    s = StokesVector(0.8, 0.0, 0.8)
    assert s.bloch_norm() > 1.0
    assert not s.is_physical()


def test_density_from_stokes_basics():
    np.testing.assert_allclose(
        density_from_stokes(StokesVector(0, 0, 0)).matrix, np.eye(2) / 2, atol=1e-15
    )
    np.testing.assert_allclose(
        density_from_stokes(StokesVector(0, 0, 1)).matrix,
        np.diag([1.0, 0.0]),
        atol=1e-15,
    )


def test_density_from_stokes_hardware_row_exact():
    rho = density_from_stokes(StokesVector(*STOKES_HW[1:]))
    np.testing.assert_allclose(rho.matrix, RHO_HW, atol=1e-15)


def test_stokes_of_secret_state():
    s = stokes_from_density(DensityMatrix(RHO_SECRET))
    assert s.s1 == pytest.approx(0.0, abs=1e-12)
    assert s.s2 == pytest.approx(-SQ2_HALF, abs=1e-12)
    assert s.s3 == pytest.approx(SQ2_HALF, abs=1e-12)


def test_stokes_round_trip_matches_oracle():
    rng = np.random.default_rng(31)
    for _ in range(30):
        rho = oracles.random_density(rng)
        s = stokes_from_density(DensityMatrix(rho))
        assert s.as_tuple() == pytest.approx(oracles.bloch(rho), abs=1e-12)
        back = density_from_stokes(s)
        np.testing.assert_allclose(back.matrix, rho, atol=1e-12)


def test_stokes_from_density_rejects_larger_systems():
    with pytest.raises(ValueError, match="single-qubit"):
        stokes_from_density(DensityMatrix(np.eye(4, dtype=complex) / 4))


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(7)
    for dim in (2, 4):
        rho = oracles.random_density(rng, dim)
        root = psd_sqrt(rho)
        np.testing.assert_allclose(root @ root, rho, atol=1e-10)


def test_fidelity_self_is_one():
    rng = np.random.default_rng(11)
    for _ in range(25):
        rho = oracles.random_density(rng)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-8)


def test_fidelity_is_symmetric_and_matches_oracle():
    rng = np.random.default_rng(13)
    for _ in range(25):
        a = oracles.random_density(rng)
        b = oracles.random_density(rng)
        f_ab = fidelity(a, b)
        f_ba = fidelity(b, a)
        assert f_ab == pytest.approx(f_ba, abs=1e-9)
        assert f_ab == pytest.approx(oracles.fidelity_eig(a, b), abs=1e-9)


def test_fidelity_pure_formula_agreement():
    rng = np.random.default_rng(19)
    for _ in range(20):
        psi = oracles.random_pure(rng)
        rho = oracles.random_density(rng)
        full = fidelity(np.outer(psi, psi.conj()), rho)
        quad = pure_state_fidelity(psi, rho)
        # the matrix-sqrt path carries a few 1e-9 of eigensolver roundoff
        assert full == pytest.approx(quad, abs=1e-7)


def test_fidelity_multiplicative_on_products():
    rng = np.random.default_rng(29)
    a1, a2 = oracles.random_density(rng), oracles.random_density(rng)
    b1, b2 = oracles.random_density(rng), oracles.random_density(rng)
    f_prod = fidelity(np.kron(a1, a2), np.kron(b1, b2))
    assert f_prod == pytest.approx(fidelity(a1, b1) * fidelity(a2, b2), abs=1e-9)


def test_fidelity_orthogonal_states_is_zero():
    assert fidelity(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)


def test_frozen_reference_fidelity():
    f = fidelity(RHO_SECRET, RHO_HW)
    assert f == pytest.approx(FID_SECRET_VS_HW, abs=1e-12)
    assert f == pytest.approx(oracles.fidelity_eig(RHO_SECRET, RHO_HW), abs=1e-10)
    f_conj = fidelity(RHO_SECRET.conj(), RHO_HW)
    assert f_conj == pytest.approx(FID_SECRET_CONJ_VS_HW, abs=1e-12)
    # both stay inside the 0.03 band around the published value
    assert abs(f - FID_HW_REPORTED) < 0.03
    assert abs(f_conj - FID_HW_REPORTED) < 0.03


def test_eig_floor_tolerates_roundoff_but_rejects_garbage():
    slight = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
    assert fidelity(slight, np.eye(2) / 2) <= 1.0
    bad = np.diag([1.0 + 5e-9, -5e-9]).astype(complex)
    with pytest.raises(ValueError, match="positive semidefinite"):
        fidelity(bad, np.eye(2) / 2)
    with pytest.raises(ValueError, match="positive semidefinite"):
        psd_sqrt(np.diag([1.5, -0.5]).astype(complex))


def test_fidelity_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="mismatch"):
        fidelity(np.eye(2) / 2, np.eye(4) / 4)
    with pytest.raises(ValueError, match="Hermitian"):
        fidelity(np.array([[0.5, 0.5], [0.0, 0.5]]), np.eye(2) / 2)
    with pytest.raises(ValueError, match="Hermitian"):
        fidelity(np.array([[0.5, 1e308], [-1e308, 0.5]]), np.eye(2) / 2)


def test_pure_state_fidelity_tolerates_unphysical_input():
    psi = np.array([1.0, 0.0], dtype=complex)
    rho = np.diag([1.04, -0.04]).astype(complex)
    # quadratic form exceeds 1, clipped back into range
    assert pure_state_fidelity(psi, rho) == 1.0
    flipped = np.array([0.0, 1.0], dtype=complex)
    assert pure_state_fidelity(flipped, rho) == 0.0


def test_pure_state_fidelity_checks_a_raw_vector_as_a_state():
    # Both returned a number before the check: nan, and 1.0 from a
    # quadratic form of 2 clipped to 1.
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        pure_state_fidelity(np.array([np.nan, 0]), np.eye(2) / 2)
    with pytest.raises(ValueError, match="not normalized"):
        pure_state_fidelity(np.array([2.0, 0]), np.eye(2) / 2)
    with pytest.raises(ValueError, match="power of two"):
        pure_state_fidelity(np.array([1.0, 0, 0]), np.eye(3) / 3)
    assert pure_state_fidelity(np.array([1.0, 0]), np.eye(2) / 2) == pure_state_fidelity(
        StateVector(np.array([1.0, 0])), np.eye(2) / 2
    )


RAW_MATRIX_READERS = {
    "fidelity": lambda m: fidelity(m, np.eye(2) / 2),
    "fidelity-second": lambda m: fidelity(np.eye(2) / 2, m),
    "psd_sqrt": psd_sqrt,
    "pure_state_fidelity": lambda m: pure_state_fidelity(np.array([1.0, 0.0]), m),
}


@pytest.mark.parametrize("reader", sorted(RAW_MATRIX_READERS))
@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_non_finite_raw_matrices_are_rejected(reader, bad):
    with pytest.raises(ValueError, match="matrix must be finite"):
        RAW_MATRIX_READERS[reader](np.array([[bad, 0], [0, 1]]))
