"""Trajectory noise model and the depolarizing-strength calibration."""

import inspect

import pytest

import qss.noise
from qss import (
    Circuit,
    NoiseModel,
    RunConfig,
    TomographyJob,
    fit_depolarizing_detail,
    run_tomography,
    simulate_shots,
)
from qss.fileio import parse_noise
from qss.noise import _P_HI, _P_MIN, _TOL, CalibrationError, _estimator

from conftest import (
    CAL_ACHIEVED,
    CAL_FITTED_P,
    CAL_ITERATIONS,
    P0_SECRET,
    calibration_circuit,
)


def test_model_validation():
    with pytest.raises(ValueError, match="p1"):
        NoiseModel(-0.1, 0.0, 0.0)
    with pytest.raises(ValueError, match="p2"):
        NoiseModel(0.0, 1.5, 0.0)
    with pytest.raises(ValueError, match="p_read"):
        NoiseModel(0.0, 0.0, 2.0)


def test_model_constructors_and_json():
    assert NoiseModel.zero().is_zero()
    m = NoiseModel.depolarizing(0.03, p_read=0.01)
    assert (m.p1, m.p2, m.p_read) == (0.03, 0.03, 0.01)
    assert not m.is_zero()
    j = m.to_json()
    assert j == {"p1": 0.03, "p2": 0.03, "p_read": 0.01}
    assert parse_noise(j) == m


def test_zero_model_is_bit_exact_with_noiseless():
    c = Circuit(3, 3)
    c.gate("H", 0).gate("CNOT", 0, 1).gate("T", 2).gate("CNOT", 1, 2)
    for q in range(3):
        c.measure(q, q)
    cfg = RunConfig(shots=4096, seed=9)
    plain = simulate_shots(c, cfg)
    zeroed = simulate_shots(c, cfg, noise=NoiseModel.zero())
    assert plain.counts == zeroed.counts


def test_readout_flip_rate_matches_probability():
    # |0> measured with p_read = 0.05 should read 1 about 5% of the time
    c = Circuit(1, 1).measure(0, 0)
    counts = simulate_shots(c, RunConfig(shots=100_000, seed=2), noise=NoiseModel(0.0, 0.0, 0.05))
    p1 = counts.counts.get("1", 0) / counts.total
    assert p1 == pytest.approx(0.05, abs=0.003)


def test_single_qubit_depolarizing_rate():
    # X then measure: an inserted X or Y flips the outcome to 0, an
    # inserted Z leaves it at 1, so P(0) = (2/3) * p1
    c = Circuit(1, 1).gate("X", 0).measure(0, 0)
    counts = simulate_shots(c, RunConfig(shots=100_000, seed=2), noise=NoiseModel(0.2, 0.0, 0.0))
    assert counts.p0(0) == pytest.approx(2.0 / 15.0, abs=0.005)


def test_two_qubit_depolarizing_hits_both_wires():
    # CNOT on |00> is the identity; with p2 = 0.3 each wire is flipped by
    # an X or Y draw at rate (2/3) * 0.3 = 0.2
    c = Circuit(2, 2).gate("CNOT", 0, 1).measure(0, 0).measure(1, 1)
    counts = simulate_shots(c, RunConfig(shots=100_000, seed=2), noise=NoiseModel(0.0, 0.3, 0.0))
    for clbit in (0, 1):
        flips = 1.0 - counts.marginal(clbit).p0()
        assert flips == pytest.approx(0.2, abs=0.005)


def test_receiver_p0_decreases_with_noise_strength():
    c = calibration_circuit()
    cfg = RunConfig(shots=100_000, seed=5)
    values = []
    for p in (0.0, 0.01, 0.03, 0.07, 0.15):
        counts = simulate_shots(c, cfg, noise=NoiseModel.depolarizing(p, p_read=0.02))
        values.append(counts.p0(0))
    adjusted = P0_SECRET * 0.98 + (1.0 - P0_SECRET) * 0.02
    assert values[0] == pytest.approx(adjusted, abs=0.01)
    for weaker, stronger in zip(values, values[1:]):
        assert stronger < weaker - 0.01, values


def test_heavy_noise_scrambles_the_receiver(coherent_circuit):
    # p = 0.5 on every gate leaves the marginal close to fully mixed
    job = TomographyJob(base_circuit=coherent_circuit, target_qubit=0, shots_per_basis=30_000, seed=3)
    result = run_tomography(job, noise=NoiseModel.depolarizing(0.5))
    assert result.stokes.bloch_norm() < 0.1


def test_fit_reproduces_frozen_calibration():
    detail = fit_depolarizing_detail(0.800, calibration_circuit(), seed=0)
    assert detail.converged
    assert detail.fitted_p == pytest.approx(CAL_FITTED_P, abs=1e-12)
    assert detail.achieved == pytest.approx(CAL_ACHIEVED, abs=1e-12)
    assert detail.iterations == CAL_ITERATIONS
    assert detail.target == 0.800
    assert detail.p_read == 0.02


def test_fit_against_noiseless_target_drives_p_to_zero():
    # the bisection is not guaranteed to land inside the tolerance band
    # here (the sampled noiseless P(0) may sit just outside it), but the
    # fitted strength must collapse toward zero
    detail = fit_depolarizing_detail(P0_SECRET, calibration_circuit(), p_read=0.0, seed=0)
    assert detail.fitted_p < 0.005


def test_fit_rejects_unreachable_targets():
    with pytest.raises(ValueError, match="exceeds 0.8410, the value at p = 1.91e-07"):
        fit_depolarizing_detail(0.95, calibration_circuit(), seed=0)
    with pytest.raises(ValueError, match="is below"):
        fit_depolarizing_detail(0.30, calibration_circuit(), seed=0)


def test_unreachable_target_is_a_calibration_error():
    # a compute failure, told apart from bad arguments such as a NaN target
    with pytest.raises(CalibrationError, match="exceeds"):
        fit_depolarizing_detail(0.95, calibration_circuit(), seed=0)
    with pytest.raises(ValueError, match="target P\\(0\\) must be finite, got nan") as info:
        fit_depolarizing_detail(float("nan"), calibration_circuit(), seed=0)
    assert not isinstance(info.value, CalibrationError)


@pytest.mark.parametrize(
    "target, seed, message",
    [
        (float("inf"), 0, "target P\\(0\\) must be finite, got inf"),
        (0.8, -1, "seed must be a 64-bit unsigned integer"),
        (0.8, 2**64, "seed must be a 64-bit unsigned integer"),
    ],
)
def test_fit_checks_target_and_seed_before_evaluating(target, seed, message, monkeypatch):
    def no_evaluation(*args):
        raise AssertionError("evaluated before the inputs were checked")

    monkeypatch.setattr(qss.noise, "_estimator", no_evaluation)
    with pytest.raises(ValueError, match=message) as info:
        fit_depolarizing_detail(target, calibration_circuit(), seed=seed)
    assert not isinstance(info.value, CalibrationError)


def test_fit_takes_no_shot_count():
    assert "shots" not in inspect.signature(fit_depolarizing_detail).parameters


@pytest.mark.parametrize("seed", range(10))
def test_a_target_that_passes_the_bracket_converges(seed):
    # Both bounds are estimates at the ends of the bisection's reach.  The
    # ceiling is taken at _P_MIN, not at p = 0: at seed 9 the estimates
    # there are 0.84515 and 0.8452, and a target between them plus _TOL
    # passed a p = 0 check but could never converge.
    estimate = _estimator(calibration_circuit(), 0, 0.02, seed)
    edges = (estimate(_P_MIN), estimate(0.0), estimate(_P_HI))
    fitted = 0
    for target in sorted({e + d for e in edges for d in (-_TOL - 1e-9, -_TOL + 1e-9, _TOL - 1e-9, _TOL + 1e-9)}):
        try:
            detail = fit_depolarizing_detail(target, calibration_circuit(), seed=seed)
        except CalibrationError:
            continue
        assert detail.converged, target
        fitted += 1
    assert fitted >= 4


def test_fit_validates_bracket_and_clbit():
    # the receiver bit is the last measurement's clbit: here clbit 0, which
    # reads 0 only by a readout flip, not clbit 1, which always reads 0
    last_reads_one = Circuit(2, 2).measure(0, 1).gate("X", 1).measure(1, 0)
    with pytest.raises(CalibrationError, match="exceeds 0.0198, the value at p"):
        fit_depolarizing_detail(0.800, last_reads_one, seed=0)
    no_measure = Circuit(1, 1).gate("H", 0)
    with pytest.raises(ValueError, match="no measurement"):
        fit_depolarizing_detail(0.800, no_measure, seed=0)


def test_fit_result_model_and_json():
    detail = fit_depolarizing_detail(0.800, calibration_circuit(), seed=0)
    model = detail.model()
    assert model.p1 == model.p2 == detail.fitted_p
    assert model.p_read == 0.02
    j = detail.to_json()
    assert set(j) == {"p1", "p2", "p_read", "fitted_p", "target", "achieved"}
    assert j["fitted_p"] == detail.fitted_p


def test_fit_is_deterministic():
    a = fit_depolarizing_detail(0.800, calibration_circuit(), seed=0)
    b = fit_depolarizing_detail(0.800, calibration_circuit(), seed=0)
    assert a == b
    shifted = fit_depolarizing_detail(0.800, calibration_circuit(), seed=1)
    assert shifted.fitted_p == pytest.approx(CAL_FITTED_P, abs=0.02)
