"""The exact noisy channel, exact_distribution(circuit, noise=...): against
the dense Kraus-sum oracle, against the trajectory sampler by a chi-squared
test, and as the calibration fit uses it."""

import tracemalloc

import numpy as np
import pytest

from qss import (
    Circuit,
    NoiseModel,
    ProtocolConfig,
    RunConfig,
    SimulationError,
    assemble_circuit,
    exact_distribution,
    simulate_shots,
)
from qss.datasets import shipped_noise_model
from qss.noise import _SHOTS, _estimator
from qss.simulate import _exact_p0, _mixed
from qss.tomography import measurement_variant
import qss.simulate

import oracles
from conftest import CAL_FITTED_P, calibration_circuit
from test_states import GATE_POOL_1Q, GATE_POOL_2Q, random_op_sequence

CHANNEL_MODELS = {
    "zero": NoiseModel.zero(),
    "readout": NoiseModel(0.0, 0.0, 0.1),
    "two-qubit": NoiseModel(0.0, 0.2, 0.0),
    "one-qubit": NoiseModel(0.15, 0.0, 0.0),
    "shipped": shipped_noise_model(),
    "heavy": NoiseModel(0.5, 0.4, 0.3),
}
RECEIVERS = ("charlie", "bob")


def random_noisy_circuit(rng) -> Circuit:
    """A 2-5 qubit circuit of gates, measurements and one- or two-qubit
    cond ops that read clbits already measured."""
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, 4))
    c = Circuit(n, m)
    for clbit in range(m):
        for name, targets in random_op_sequence(rng, n, int(rng.integers(1, 4))):
            c.gate(name, *targets)
        if clbit and rng.random() < 0.8:
            read = int(rng.integers(clbit))
            if rng.random() < 0.5:
                c.cond(GATE_POOL_1Q[rng.integers(len(GATE_POOL_1Q))], int(rng.integers(n)), read)
            else:
                pair = tuple(int(q) for q in rng.choice(n, size=2, replace=False))
                c.cond(GATE_POOL_2Q[rng.integers(len(GATE_POOL_2Q))], pair, read)
        c.measure(int(rng.integers(n)), clbit)
    for name, targets in random_op_sequence(rng, n, 2):
        c.gate(name, *targets)
    return c


def protocol_circuit(receiver: str) -> tuple[Circuit, int]:
    """The sampled protocol circuit with the default secret, and the clbit
    that records the receiver."""
    cfg = ProtocolConfig(receiver=receiver)
    return measurement_variant(assemble_circuit(cfg), cfg.receiver_wire, "Z")


def assert_matches_oracle(circuit: Circuit, model: NoiseModel) -> None:
    got = exact_distribution(circuit, noise=model)
    want = oracles.noisy_distribution(circuit, model)
    assert set(got) <= set(want)
    for key, p in want.items():
        assert abs(got.get(key, 0.0) - p) <= 1e-12, key


@pytest.mark.parametrize("model", sorted(CHANNEL_MODELS))
@pytest.mark.parametrize("seed", range(8))
def test_channel_matches_dense_oracle_on_random_circuits(model, seed):
    assert_matches_oracle(random_noisy_circuit(np.random.default_rng(seed)), CHANNEL_MODELS[model])


@pytest.mark.parametrize("model", ["zero", "readout", "two-qubit", "shipped", "heavy"])
@pytest.mark.parametrize("receiver", RECEIVERS)
def test_channel_matches_dense_oracle_on_protocol_circuits(receiver, model):
    assert_matches_oracle(protocol_circuit(receiver)[0], CHANNEL_MODELS[model])
    assert_matches_oracle(calibration_circuit(receiver), CHANNEL_MODELS[model])


@pytest.mark.parametrize("seed", range(4))
def test_channel_at_zero_noise_matches_the_pure_path(seed):
    # exact_distribution takes the pure path at zero noise, so the channel's
    # own traces are compared here
    circuit = random_noisy_circuit(np.random.default_rng(seed))
    rho, creg = _mixed(circuit, NoiseModel.zero())
    trace = rho[:, :: 2**circuit.num_qubits + 1].real.sum(axis=1)
    pure = exact_distribution(circuit)
    got = {"".join(map(str, reversed(reg))): p for reg, p in zip(creg.tolist(), trace.tolist())}
    assert set(got) == set(pure)
    for key, p in pure.items():
        assert got[key] == pytest.approx(p, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_zero_model_takes_the_pure_path_exactly(seed):
    circuit = random_noisy_circuit(np.random.default_rng(seed))
    plain = exact_distribution(circuit)
    assert list(exact_distribution(circuit, noise=NoiseModel.zero()).items()) == list(plain.items())
    assert list(exact_distribution(circuit, noise=None).items()) == list(plain.items())


@pytest.mark.parametrize(("receiver", "p0"), [("charlie", 0.796518), ("bob", 0.792812)])
def test_receiver_p0_under_the_shipped_model(receiver, p0):
    circuit, clbit = protocol_circuit(receiver)
    model = shipped_noise_model()
    assert _exact_p0(circuit, clbit, model) == pytest.approx(p0, abs=5e-7)
    oracle_p0 = sum(p for key, p in oracles.noisy_distribution(circuit, model).items() if key[-1 - clbit] == "0")
    assert _exact_p0(circuit, clbit, model) == pytest.approx(oracle_p0, abs=1e-12)


def test_calibration_p0_at_the_fitted_strength():
    model = NoiseModel.depolarizing(CAL_FITTED_P, 0.02)
    assert _exact_p0(calibration_circuit(), 0, model) == pytest.approx(0.803082, abs=5e-7)


def test_noisy_distribution_on_a_register_wider_than_int64():
    c = Circuit(2, 70).gate("H", 0).measure(0, 69).measure(1, 3)
    dist = exact_distribution(c, noise=NoiseModel(0.0, 0.0, 0.25))
    zeros = "0" * 70
    keys = [zeros, zeros[:66] + "1" + zeros[:3], "1" + zeros[:69], "1" + zeros[:65] + "1" + zeros[:3]]
    assert list(dist) == sorted(keys, key=lambda k: int(k, 2))
    assert dist["1" + zeros[:69]] == pytest.approx(0.5 * 0.75, abs=1e-15)
    assert dist[zeros[:66] + "1" + zeros[:3]] == pytest.approx(0.5 * 0.25, abs=1e-15)


def test_zero_probability_records_are_pruned():
    # no readout error: the second measurement of a collapsed qubit has one
    # outcome, so only two register values are reachable
    c = Circuit(2, 2).gate("H", 0).gate("CNOT", 0, 1).measure(0, 0).measure(0, 1)
    dist = exact_distribution(c, noise=NoiseModel(0.0, 0.1, 0.0))
    assert set(dist) == {"00", "11"}


def test_channel_memory_cap_raises_before_allocating():
    # 9 measurements may reach 2**9 registers of 4**8 amplitudes each, 2**25
    # in all, so the channel refuses before it makes one 1 MB register
    c = Circuit(8, 9).gate("H", 0)
    for clbit in range(9):
        c.measure(0, clbit)
    tracemalloc.start()
    try:
        with pytest.raises(SimulationError, match="up to 512 x 4\\*\\*8 amplitudes, above 2\\*\\*24"):
            exact_distribution(c, noise=NoiseModel(0.0, 0.0, 0.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4**8 * 16


def test_channel_memory_cap_admits_the_bound(monkeypatch):
    monkeypatch.setattr(qss.simulate, "_MIXED_AMPS", 2 * 4**3)
    model = NoiseModel(0.0, 0.0, 0.1)
    assert len(exact_distribution(Circuit(3, 1).gate("H", 0).measure(0, 0), noise=model)) == 2
    with pytest.raises(SimulationError, match="up to 4 x 4\\*\\*3"):
        exact_distribution(Circuit(3, 2).gate("H", 0).measure(0, 0).measure(1, 1), noise=model)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_estimate_is_non_increasing_in_p(seed):
    estimate = _estimator(calibration_circuit(), 0, 0.02, seed)
    grid = np.linspace(0.0, 0.2, 41)
    exact_values = [_exact_p0(calibration_circuit(), 0, NoiseModel.depolarizing(p, 0.02)) for p in grid]
    estimates = [estimate(p) for p in grid]
    assert all(a > b for a, b in zip(exact_values, exact_values[1:]))
    assert all(a >= b for a, b in zip(estimates, estimates[1:]))
    # each estimate is a _SHOTS-shot binomial draw about the exact value
    for e, p0 in zip(estimates, exact_values):
        assert abs(e - p0) <= 5.0 * np.sqrt(p0 * (1.0 - p0) / _SHOTS)


# Upper 1e-5 point of the standard normal, for the chi-squared limit.
_Z_LIMIT = 4.2649


def chi_square(counts: dict[str, int], dist: dict[str, float], shots: int) -> tuple[float, int, float]:
    """(statistic, degrees of freedom, limit) of sampled counts against an
    exact distribution.  Cells are taken by expected count, smallest first,
    and pooled until each holds at least 5; the limit is the Wilson-Hilferty
    approximation of the chi-squared upper 1e-5 point."""
    keys = sorted(set(counts) | set(dist), key=lambda k: (dist.get(k, 0.0), k))
    cells, held_o, held_e = [], 0, 0.0
    for key in keys:
        held_o += counts.get(key, 0)
        held_e += shots * dist.get(key, 0.0)
        if held_e >= 5.0:
            cells.append((held_o, held_e))
            held_o, held_e = 0, 0.0
    if cells and (held_o or held_e):
        o, e = cells.pop()
        cells.append((o + held_o, e + held_e))
    stat = sum((o - e) ** 2 / e for o, e in cells)
    dof = len(cells) - 1
    h = 2.0 / (9.0 * max(dof, 1))
    return stat, dof, max(dof, 1) * (1.0 - h + _Z_LIMIT * np.sqrt(h)) ** 3


def assert_trajectories_follow_the_channel(circuit: Circuit, model: NoiseModel, seed: int) -> None:
    shots = 20000
    counts = simulate_shots(circuit, RunConfig(shots=shots, seed=seed), noise=model).counts
    stat, dof, limit = chi_square(counts, exact_distribution(circuit, noise=model), shots)
    assert dof >= 1
    assert stat <= limit, (stat, dof)


@pytest.mark.parametrize("model", ["readout", "two-qubit", "shipped", "heavy"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trajectory_counts_follow_the_channel_on_random_circuits(model, seed):
    # a circuit with one likely register value has nothing to test
    rng = np.random.default_rng(100 + seed)
    circuit = random_noisy_circuit(rng)
    while sum(p >= 0.01 for p in exact_distribution(circuit, noise=CHANNEL_MODELS[model]).values()) < 2:
        circuit = random_noisy_circuit(rng)
    assert_trajectories_follow_the_channel(circuit, CHANNEL_MODELS[model], seed)


@pytest.mark.parametrize("receiver", RECEIVERS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trajectory_counts_follow_the_channel_on_the_protocol(receiver, seed):
    assert_trajectories_follow_the_channel(protocol_circuit(receiver)[0], shipped_noise_model(), seed)


def test_chi_square_rejects_a_misread_noise_model():
    # the test has power: counts sampled at a slightly stronger p2 fail it
    circuit, _ = protocol_circuit("charlie")
    shots = 20000
    counts = simulate_shots(circuit, RunConfig(shots=shots, seed=0), noise=NoiseModel(0.0, 0.08, 0.0)).counts
    stat, dof, limit = chi_square(counts, exact_distribution(circuit, noise=NoiseModel(0.0, 0.05, 0.0)), shots)
    assert stat > limit, (stat, dof)
