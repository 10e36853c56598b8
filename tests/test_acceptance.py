"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
"ACCEPTANCE n (label): PASS/FAIL" line even under pytest's capture, so a
plain run shows the full scorecard at a glance.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from qss import (
    Circuit,
    DensityMatrix,
    NoiseModel,
    ProtocolConfig,
    RunConfig,
    SecretSpec,
    TomographyJob,
    aggregate_receiver_counts,
    check_routing,
    density_from_stokes,
    fidelity,
    fit_depolarizing_detail,
    pre_correction_reduced_dm,
    pure_state_fidelity,
    receiver_p0,
    route,
    run_protocol,
    run_tomography,
    simulate_shots,
)
from qss.tomography import estimate_stokes
from qss.circuit import Counts
from qss.stokes import StokesVector

import oracles
from conftest import (
    CAL_CONFIRM_P0,
    CAL_FITTED_P,
    CAL_ITERATIONS,
    FID_HW_REPORTED,
    FID_SECRET_VS_HW,
    P0_SECRET,
    RHO_HW,
    RHO_SECRET,
    SAMPLED_FROZEN,
    SQ2_HALF,
    STOKES_HW,
    calibration_circuit,
)
from test_states import random_op_sequence


@pytest.fixture
def report(capsys):
    """Print one scorecard line for a criterion, bypassing capture."""

    def _report(number, label, outcome, detail=""):
        line = f"ACCEPTANCE {number} ({label}): {outcome}"
        if detail:
            line += f" - {detail}"
        with capsys.disabled():
            print(line)

    return _report


def scored(number, label, report, body):
    """Run a criterion body, printing PASS or FAIL before any traceback."""
    try:
        detail = body()
    except Exception:
        report(number, label, "FAIL")
        raise
    report(number, label, "PASS", detail)


def test_criterion_1_coherent_exactness(report):
    def body():
        start = time.perf_counter()
        cfg = ProtocolConfig(mode="coherent")
        (transcript,) = run_protocol(cfg)
        rho = transcript.receiver_reduced_dm
        diag = np.real(np.diag(rho.matrix))
        # the analytic diagonal, and the same numbers at print precision
        assert abs(diag[0] - P0_SECRET) <= 1e-6
        assert abs(diag[1] - (1.0 - P0_SECRET)) <= 1e-6
        assert abs(diag[0] - 0.85355) <= 5e-6
        assert abs(diag[1] - 0.14645) <= 5e-6
        f = pure_state_fidelity(SecretSpec().state().amplitudes, rho)
        assert f >= 1.0 - 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        return f"diag = ({diag[0]:.6f}, {diag[1]:.6f}), fidelity = {f:.12f}, {elapsed:.2f}s"

    scored(1, "coherent exactness", report, body)


def test_criterion_2_sampled_statistics(report):
    def body():
        start = time.perf_counter()
        pieces = []
        for shots, seed, frozen in SAMPLED_FROZEN:
            cfg = ProtocolConfig(mode="sampled", shots=shots, seed=seed)
            transcripts = run_protocol(cfg)
            p0 = receiver_p0(transcripts)
            assert p0 == frozen  # dyadic rational, exact reproduction
            se = math.sqrt(P0_SECRET * (1.0 - P0_SECRET) / shots)
            assert abs(p0 - P0_SECRET) <= 3.0 * se
            pieces.append(f"P0({shots}) = {p0:.5f}")
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        return ", ".join(pieces) + f", all within 3 SE of {P0_SECRET:.4f}, {elapsed:.2f}s"

    scored(2, "sampled statistics", report, body)


def test_criterion_3_branch_oracle(report):
    def body():
        start = time.perf_counter()
        cfg = ProtocolConfig(mode="exact")
        transcripts = run_protocol(cfg)
        assert len(transcripts) == 8
        secret = SecretSpec().state().amplitudes
        worst_p = 0.0
        worst_f = 1.0
        for t in transcripts:
            worst_p = max(worst_p, abs(t.probability - 0.125))
            f = float(abs(np.vdot(secret, t.receiver_state.amplitudes)) ** 2)
            worst_f = min(worst_f, f)
        assert worst_p <= 1e-10
        assert worst_f >= 1.0 - 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        return f"8 branches, max |p - 1/8| = {worst_p:.1e}, min fidelity = {worst_f:.12f}"

    scored(3, "branch oracle", report, body)


def test_criterion_4_secrecy_invariant(report):
    def body():
        start = time.perf_counter()
        half = np.eye(2, dtype=complex) / 2.0
        worst = 0.0
        for receiver in ("charlie", "bob"):
            rho = pre_correction_reduced_dm(ProtocolConfig(receiver=receiver))
            worst = max(worst, float(np.abs(rho.matrix - half).max()))
        assert worst <= 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        return f"both receivers: max |rho - I/2| = {worst:.1e}"

    scored(4, "secrecy invariant", report, body)


def test_criterion_5_tomography_pipeline(report, coherent_circuit):
    def body():
        # reference Stokes row reconstructs its matrix elementwise
        rho = density_from_stokes(StokesVector(*STOKES_HW[1:]))
        assert float(np.abs(rho.matrix - RHO_HW).max()) <= 1e-12
        # the same row is reachable from integer counts
        est = estimate_stokes(
            Counts({"0": 1600, "1": 400}, 1),
            Counts({"0": 1102, "1": 898}, 1),
            Counts({"0": 1021, "1": 979}, 1),
        )
        assert est.as_tuple() == pytest.approx(STOKES_HW, abs=1e-15)
        # sampled tomography over 20 seeds
        s3s = []
        fids = []
        for seed in range(20):
            job = TomographyJob(
                base_circuit=coherent_circuit, target_qubit=0, shots_per_basis=8192, seed=seed
            )
            result = run_tomography(job, reference=DensityMatrix(RHO_SECRET))
            s3s.append(result.stokes.s3)
            fids.append(result.fidelity_vs_reference)
        med_s3 = float(np.median(s3s))
        med_fid = float(np.median(fids))
        assert abs(med_s3 - SQ2_HALF) <= 0.03
        assert med_fid >= 0.98
        return f"matrix elementwise <= 1e-12, median s3 = {med_s3:.4f}, median fidelity = {med_fid:.4f}"

    scored(5, "tomography pipeline", report, body)


def test_criterion_6_fidelity_function(report):
    def body():
        rng = np.random.default_rng(71)
        worst = 0.0
        for _ in range(100):
            dim = 2 if rng.random() < 0.7 else 4
            rho = oracles.random_density(rng, dim)
            worst = max(worst, abs(fidelity(rho, rho) - 1.0))
        assert worst <= 1e-8
        f = fidelity(DensityMatrix(RHO_SECRET), DensityMatrix(RHO_HW))
        assert f == pytest.approx(FID_SECRET_VS_HW, abs=1e-9)
        delta = f - FID_HW_REPORTED
        # a real, documented gap to the published value: inside the band,
        # but not zero
        assert abs(delta) <= 0.03
        assert abs(delta) > 1e-4
        return (
            f"self-fidelity worst dev {worst:.1e}; "
            f"F = {f:.6f} vs published {FID_HW_REPORTED} (delta {delta:+.4f})"
        )

    scored(6, "fidelity function", report, body)


def test_criterion_7_noise_calibration(report):
    def body():
        start = time.perf_counter()
        detail = fit_depolarizing_detail(0.800, calibration_circuit(), seed=0)
        assert detail.converged
        assert detail.fitted_p == pytest.approx(CAL_FITTED_P, abs=1e-12)
        assert detail.iterations == CAL_ITERATIONS
        confirm = simulate_shots(
            calibration_circuit(),
            RunConfig(shots=8192, seed=0),
            noise=NoiseModel.depolarizing(detail.fitted_p, detail.p_read),
        ).p0(0)
        assert confirm == CAL_CONFIRM_P0
        assert abs(confirm - 0.800) <= 0.01
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        return (
            f"fitted p = {detail.fitted_p:.6f} in {detail.iterations} iterations, "
            f"confirmation P(0) = {confirm:.5f} within 0.800 +/- 0.01, {elapsed:.1f}s"
        )

    scored(7, "noise calibration", report, body)


def test_criterion_8_transpiler_soundness(report, ibmqx4, coherent_circuit):
    def body():
        start = time.perf_counter()
        rep = route(coherent_circuit, ibmqx4)
        rc = check_routing(coherent_circuit, rep, ibmqx4)
        assert rc.legal and rc.equivalent, rc.violations
        assert rep.swaps == 1 and rep.reversals == 1
        assert rep.final_layout == {0: 0, 1: 1, 2: 3, 3: 2}
        rng = np.random.default_rng(53)
        for trial in range(200):
            ops = random_op_sequence(rng, 5, int(rng.integers(1, 13)))
            c = Circuit(5, 0)
            for name, targets in ops:
                c.gate(name, *targets)
            r = route(c, ibmqx4)
            result = check_routing(c, r, ibmqx4)
            assert result.ok, (trial, result.violations)
        elapsed = time.perf_counter() - start
        assert elapsed < 20.0
        return (
            f"protocol circuit: {len(rep.circuit.ops)} ops, {rep.swaps} swap, "
            f"{rep.reversals} reversal, legal and equivalent; 200 random circuits ok, {elapsed:.1f}s"
        )

    scored(8, "transpiler soundness", report, body)


def test_criterion_9_determinism(report, tmp_path, monkeypatch):
    def body():
        commands = {
            "run": ["run", "--mode", "sampled", "--seed", "7", "--shots", "8192"],
            "tomo": ["tomo", "--seed", "3", "--shots", "8192"],
            "calibrate": ["calibrate", "--seed", "0"],
        }
        for name, argv in commands.items():
            outputs = []
            for attempt in range(2):
                out = tmp_path / f"{name}-{attempt}.json"
                proc = subprocess.run(
                    [sys.executable, "-m", "qss.cli", *argv, "--out", str(out)],
                    capture_output=True,
                    timeout=300,
                )
                assert proc.returncode == 0, proc.stderr.decode()
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], name
        # sampling must not depend on the vectorization batch width
        import qss.simulate as sim

        cfg = ProtocolConfig(mode="sampled", shots=4096, seed=5)
        wide = run_protocol(cfg)
        monkeypatch.setattr(sim, "_CHUNK_AMPS", 2**5)
        narrow = run_protocol(cfg)
        wide_counts = aggregate_receiver_counts(wide).counts
        narrow_counts = aggregate_receiver_counts(narrow).counts
        assert wide_counts == narrow_counts
        return "run/tomo/calibrate byte-identical across reruns; counts invariant to batch width"

    scored(9, "determinism", report, body)
