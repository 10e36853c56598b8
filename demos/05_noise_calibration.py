"""
Matching noisy hardware with two knobs
======================================

A depolarizing strength per gate plus a readout flip probability is a
crude but workable error model.  Sweeping the strength shows the
receiver's P(0) sliding from the ideal value toward a coin flip; a
bisection fit then picks the strength that reproduces a measured
hardware value, the exact noisy channel gives the P(0) that the fit
estimated, and a confirmation run checks the match.
"""

from qss import (
    NoiseModel,
    ProtocolConfig,
    RunConfig,
    assemble_circuit,
    exact_distribution,
    fit_depolarizing_detail,
    simulate_shots,
)
from qss.tomography import measurement_variant

# Build the calibration target: the measurement-free protocol circuit
# with a single Z readout on the receiver.
cfg = ProtocolConfig(mode="coherent", receiver="charlie")
circuit, _ = measurement_variant(assemble_circuit(cfg), cfg.receiver_wire, "Z")

IDEAL = 0.8535533905932737

print("sweep of depolarizing strength (p_read fixed at 0.02):")
print("p        P(0) at 100k shots")
for p in (0.0, 0.005, 0.01, 0.02, 0.05, 0.10):
    model = NoiseModel.depolarizing(p, p_read=0.02)
    counts = simulate_shots(circuit, RunConfig(shots=100_000, seed=5), noise=model)
    print(f"{p:<8} {counts.p0(0):.5f}")
print(f"ideal noiseless value: {IDEAL:.5f}")
print()

# Fit to a hardware-like target.  Each evaluation reads the exact P(0) at
# one strength from the noisy channel and counts how many of 20000 uniforms,
# drawn once from the seed, fall below it: a 20000-shot estimate that never
# rises as the strength grows.  The same seed gives the same fit, bit for bit.
TARGET = 0.800
detail = fit_depolarizing_detail(TARGET, circuit, p_read=0.02, seed=0)
print(f"target receiver P(0):  {TARGET}")
print(f"fitted strength:       {detail.fitted_p:.6f}")
print(f"achieved in the fit:   {detail.achieved:.5f}")
print(f"exact P(0) at that p:  {exact_distribution(circuit, noise=detail.model())['0']:.5f}")
print(f"converged:             {detail.converged} after {detail.iterations} iterations")
print()

# Confirmation at a different shot count with the fitted model.
confirm = simulate_shots(
    circuit, RunConfig(shots=8192, seed=0), noise=detail.model()
).p0(0)
print(f"confirmation at 8192 shots: P(0) = {confirm:.5f}  (target {TARGET} +/- 0.01)")
