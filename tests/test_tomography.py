"""Z/X/Y tomography: variants, estimation, projection, convergence."""

import numpy as np
import pytest

from qss import (
    Circuit,
    Counts,
    DensityMatrix,
    ProtocolConfig,
    SecretSpec,
    StateVector,
    StokesVector,
    TomographyJob,
    assemble_circuit,
    basis_change_fragment,
    density_from_stokes,
    enumerate_branches,
    estimate_stokes,
    exact_stokes,
    fidelity,
    partial_trace,
    project_to_physical,
    pure_state_fidelity,
    run_tomography,
    stokes_from_density,
)
from qss.protocol import RECEIVERS
from qss.tomography import basis_seed, measurement_variant, reconstruct

import oracles
from conftest import RHO_HW, RHO_SECRET, SQ2_HALF, STOKES_HW


def test_basis_fragments():
    assert basis_change_fragment("Z") == []
    assert basis_change_fragment("X") == ["H"]
    assert basis_change_fragment("Y") == ["SDG", "H"]
    with pytest.raises(ValueError, match="basis"):
        basis_change_fragment("W")


def test_y_fragment_maps_plus_i_to_zero():
    plus_i = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2)
    psi = plus_i
    for name in basis_change_fragment("Y"):
        psi = oracles.GATE_MATRICES[name] @ psi
    assert abs(psi[0]) == pytest.approx(1.0, abs=1e-12)


def test_job_validation(coherent_circuit):
    with pytest.raises(ValueError, match="out of range"):
        TomographyJob(base_circuit=coherent_circuit, target_qubit=7)
    with pytest.raises(ValueError, match="shots_per_basis"):
        TomographyJob(base_circuit=coherent_circuit, target_qubit=0, shots_per_basis=0)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
            TomographyJob(base_circuit=coherent_circuit, target_qubit=0, seed=seed)
    assert TomographyJob(base_circuit=coherent_circuit, target_qubit=0, seed=2**64 - 1).seed == 2**64 - 1


def test_measurement_variant_rejects_a_measured_target():
    measured = Circuit(2, 1).gate("H", 0).measure(0, 0)
    for basis in ("Z", "X", "Y"):
        with pytest.raises(ValueError, match="already measured"):
            measurement_variant(measured, 0, basis)
    with pytest.raises(ValueError, match="already measured"):
        exact_stokes(measured, 0)
    assert measurement_variant(measured, 1, "Z")[1] == 1


def test_job_circuit_measured_after_the_job_is_made():
    # The job holds the circuit, and the builders append in place, so the
    # target can become measured after the job exists; the readout still
    # refuses it.
    base = Circuit(2, 1).gate("H", 0)
    job = TomographyJob(base_circuit=base, target_qubit=0, shots_per_basis=16)
    base.measure(0, 0)
    with pytest.raises(ValueError, match="already measured"):
        run_tomography(job)


def test_measurement_variants_extend_without_mutating(coherent_circuit):
    before = len(coherent_circuit.ops)
    for basis, extra in (("Z", 1), ("X", 2), ("Y", 3)):
        circuit, clbit = measurement_variant(coherent_circuit, 0, basis)
        assert clbit == coherent_circuit.num_clbits
        assert circuit.num_clbits == coherent_circuit.num_clbits + 1
        assert len(circuit.ops) == before + extra
        assert circuit.ops[-1].kind == "measure"
    assert len(coherent_circuit.ops) == before


def test_basis_seed_derivation():
    assert basis_seed(0, "X") == 88
    assert basis_seed(0, "Y") == 89
    assert basis_seed(0, "Z") == 90
    assert basis_seed(5, "Z") == 95
    seeds = {basis_seed(1234, b) for b in "ZXY"}
    assert len(seeds) == 3


def test_estimate_stokes_hand_counts():
    # 2000 shots per basis chosen so the target frequencies are exact
    s = estimate_stokes(
        Counts({"0": 1600, "1": 400}, 1),
        Counts({"0": 1102, "1": 898}, 1),
        Counts({"0": 1021, "1": 979}, 1),
    )
    assert s.as_tuple() == pytest.approx(STOKES_HW, abs=1e-15)
    rho = density_from_stokes(s)
    np.testing.assert_allclose(rho.matrix, RHO_HW, atol=1e-15)


def test_estimate_stokes_pure_cases():
    zero = Counts({"0": 100}, 1)
    even = Counts({"0": 50, "1": 50}, 1)
    s = estimate_stokes(zero, even, even)
    assert s.as_tuple() == pytest.approx((1.0, 0.0, 0.0, 1.0), abs=1e-15)


def test_estimate_stokes_validation():
    good = Counts({"0": 1}, 1)
    with pytest.raises(ValueError, match="single-bit"):
        estimate_stokes(Counts({"00": 1}, 2), good, good)
    with pytest.raises(ValueError, match="zero total"):
        estimate_stokes(Counts({}, 1), good, good)


def test_projection_leaves_physical_input_alone():
    rho = DensityMatrix(RHO_HW)
    assert project_to_physical(rho) is rho


def test_projection_rescales_onto_the_sphere():
    for stokes in ((1, 0.8, 0.0, 0.8), (1, 0.9, 0.4, 0.3), (1, -0.7, 0.5, 0.6)):
        raw = density_from_stokes(StokesVector(*stokes))
        projected = project_to_physical(raw)
        s = stokes_from_density(projected)
        assert s.bloch_norm() == pytest.approx(1.0, abs=1e-12)
        assert projected.is_physical(atol=1e-12)
        # direction is preserved
        raw_s = np.array(stokes[1:])
        proj_s = np.array(s.as_tuple()[1:])
        np.testing.assert_allclose(proj_s, raw_s / np.linalg.norm(raw_s), atol=1e-12)
        # idempotent
        again = project_to_physical(projected)
        np.testing.assert_allclose(again.matrix, projected.matrix, atol=1e-12)


def test_projection_equals_clamp_and_renormalize():
    # for 2x2 matrices the Bloch rescale is the same map as clipping the
    # negative eigenvalue and renormalizing the trace
    for stokes in ((1, 0.8, 0.0, 0.8), (1, 0.95, 0.4, 0.3), (1, -0.6, 0.7, 0.6)):
        raw = density_from_stokes(StokesVector(*stokes))
        projected = project_to_physical(raw)
        clamped = oracles.clamp_renormalize(raw.matrix)
        np.testing.assert_allclose(projected.matrix, clamped, atol=1e-10)
        # consequence: scoring the projection equals scoring the clamped
        # matrix, for any pure reference
        rng = np.random.default_rng(3)
        for _ in range(5):
            ref = oracles.random_pure(rng)
            f_proj = pure_state_fidelity(ref, projected)
            f_clamp = pure_state_fidelity(ref, clamped)
            assert f_proj == pytest.approx(f_clamp, abs=1e-10)


def test_reconstruct_reports_physicality_and_fidelity():
    result = reconstruct(StokesVector(*STOKES_HW), reference=DensityMatrix(RHO_SECRET))
    assert result.physical
    np.testing.assert_allclose(result.rho_raw.matrix, RHO_HW, atol=1e-15)
    np.testing.assert_allclose(result.rho_projected.matrix, RHO_HW, atol=1e-15)
    # argument order inside the scorer differs from the frozen computation,
    # which moves the eigensolver roundoff; agree to spectral accuracy
    assert result.fidelity_vs_reference == pytest.approx(0.8394685301746013, abs=1e-8)
    assert result.fidelity_raw_vs_reference == pytest.approx(result.fidelity_vs_reference, abs=1e-12)


def test_reconstruct_unphysical_raw_fidelity_against_pure_reference():
    result = reconstruct(StokesVector(1, 0.8, 0.0, 0.8), reference=DensityMatrix(RHO_SECRET))
    assert not result.physical
    assert result.fidelity_raw_vs_reference is not None
    assert result.fidelity_vs_reference is not None


def test_reconstruct_unphysical_raw_against_mixed_reference_is_none():
    mixed = DensityMatrix(np.diag([0.6, 0.4]).astype(complex))
    result = reconstruct(StokesVector(1, 0.8, 0.0, 0.8), reference=mixed)
    assert result.fidelity_raw_vs_reference is None
    assert result.fidelity_vs_reference is not None


def test_result_json_schema():
    result = reconstruct(StokesVector(*STOKES_HW))
    j = result.to_json()
    assert set(j) == {"stokes", "rho_raw", "rho_projected", "physical"}
    scored = reconstruct(StokesVector(*STOKES_HW), reference=DensityMatrix(RHO_SECRET))
    assert "fidelity" in scored.to_json()


def test_exact_stokes_of_the_protocol(coherent_circuit):
    s = exact_stokes(coherent_circuit, 0)
    assert s.s1 == pytest.approx(0.0, abs=1e-9)
    assert s.s2 == pytest.approx(-SQ2_HALF, abs=1e-9)
    assert s.s3 == pytest.approx(SQ2_HALF, abs=1e-9)


def test_exact_stokes_agrees_with_partial_trace(coherent_circuit):
    (branch,) = enumerate_branches(coherent_circuit)
    rho = partial_trace(StateVector(branch.state), (0,))
    s_direct = stokes_from_density(rho)
    s_tomo = exact_stokes(coherent_circuit, 0)
    assert s_tomo.as_tuple() == pytest.approx(s_direct.as_tuple(), abs=1e-10)


def test_exact_stokes_matches_the_per_basis_variants():
    # 1,000 random secrets, each read in one of the four (receiver, circuit
    # form) pairs in turn, against the former route of one measured variant
    # per basis.
    rng = np.random.default_rng(2018)
    forms = [ProtocolConfig(receiver=r, mode=m) for r in RECEIVERS for m in ("coherent", "sampled")]
    gates = ("X", "Y", "Z", "H", "S", "SDG", "T")
    for i in range(1000):
        preparation = tuple(str(g) for g in rng.choice(gates, size=int(rng.integers(1, 9))))
        cfg = forms[i % len(forms)]
        base = assemble_circuit(cfg, SecretSpec(preparation))
        got = exact_stokes(base, cfg.receiver_wire).as_tuple()
        assert got[0] == 1.0
        want = oracles.exact_stokes_by_variants(base, cfg.receiver_wire)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=f"{preparation} {cfg}")


def test_exact_stokes_rejects_a_qubit_outside_the_circuit(coherent_circuit):
    for qubit in (-1, coherent_circuit.num_qubits):
        with pytest.raises(ValueError, match=rf"kept qubits \[{qubit}\] out of range"):
            exact_stokes(coherent_circuit, qubit)


def test_run_tomography_is_reproducible(coherent_circuit):
    job = TomographyJob(base_circuit=coherent_circuit, target_qubit=0, shots_per_basis=2048, seed=7)
    a = run_tomography(job)
    b = run_tomography(job)
    assert a.stokes.as_tuple() == b.stokes.as_tuple()
    assert {k: v.counts for k, v in a.basis_counts.items()} == {
        k: v.counts for k, v in b.basis_counts.items()
    }


def test_run_tomography_reconstruction_quality(coherent_circuit):
    job = TomographyJob(base_circuit=coherent_circuit, target_qubit=0, shots_per_basis=8192, seed=11)
    result = run_tomography(job, reference=SecretSpec().density())
    assert set(result.basis_counts) == {"Z", "X", "Y"}
    for counts in result.basis_counts.values():
        assert counts.total == 8192
    # close to the exact parameters at this shot count
    assert result.stokes.s1 == pytest.approx(0.0, abs=0.05)
    assert result.stokes.s2 == pytest.approx(-SQ2_HALF, abs=0.05)
    assert result.stokes.s3 == pytest.approx(SQ2_HALF, abs=0.05)
    assert result.fidelity_vs_reference > 0.99


def test_sampling_error_shrinks_with_shots(coherent_circuit):
    """Quadrupling effort by a factor of 8 should cut the median raw-matrix
    error by roughly sqrt(8); the window [2, 4] is wide enough to be
    stable at 50 seed pairs."""
    errs = {1024: [], 8192: []}
    for shots in errs:
        for seed in range(100, 150):
            job = TomographyJob(
                base_circuit=coherent_circuit,
                target_qubit=0,
                shots_per_basis=shots,
                seed=seed,
            )
            result = run_tomography(job)
            errs[shots].append(np.abs(result.rho_raw.matrix - RHO_SECRET).max())
    ratio = np.median(errs[1024]) / np.median(errs[8192])
    assert 2.0 < ratio < 4.0, ratio
