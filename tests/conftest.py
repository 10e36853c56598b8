"""Shared fixtures and frozen reference values for the test suite."""

from __future__ import annotations

import cmath
import math
import threading

import numpy as np
import pytest

from qss import Circuit, CouplingGraph, ProtocolConfig, assemble_circuit
from qss.datasets import load_ibmqx4_coupling

# Secret amplitudes: H, T, H applied to |0>, worked out symbolically.
ALPHA = (1 + cmath.exp(1j * cmath.pi / 4)) / 2
BETA = (1 - cmath.exp(1j * cmath.pi / 4)) / 2

P0_SECRET = abs(ALPHA) ** 2  # 0.8535533905932737
SQ2_HALF = math.sqrt(2.0) / 2.0

RHO_SECRET = np.array(
    [
        [abs(ALPHA) ** 2, ALPHA * BETA.conjugate()],
        [ALPHA.conjugate() * BETA, abs(BETA) ** 2],
    ],
    dtype=complex,
)

# Reference hardware Stokes row at 8192 shots and its density matrix.
STOKES_HW = (1.0, 0.102, 0.021, 0.600)
RHO_HW = np.array([[0.8, 0.051 - 0.0105j], [0.051 + 0.0105j, 0.2]], dtype=complex)

# Uhlmann fidelity between RHO_SECRET and RHO_HW, frozen from an
# independent eigendecomposition (oracles.fidelity_eig), and the value
# for the conjugated secret for comparison.  The published hardware
# number they bracket is 0.8284.
FID_SECRET_VS_HW = 0.8394685301746013
FID_SECRET_CONJ_VS_HW = 0.8482668539784064
FID_HW_REPORTED = 0.8284

# Frozen sampled-run outcomes (shots, seed, receiver P(0)); the values
# are exact dyadic rationals, so equality comparisons are safe.
SAMPLED_FROZEN = (
    (8192, 7, 0.85400390625),
    (4096, 11, 0.857177734375),
    (1024, 13, 0.83984375),
)

# Frozen calibration results at seed 0 against target P(0) = 0.800.
CAL_FITTED_P = 0.009375
CAL_ACHIEVED = 0.8044
CAL_ITERATIONS = 6
CAL_CONFIRM_P0 = 0.797119140625  # calibration circuit, 8192 shots, seed 0


def calibration_circuit(receiver: str = "charlie") -> Circuit:
    """Coherent-form protocol circuit with a single receiver measurement.

    This is the circuit the calibration fit runs on: one clbit, measured
    from the receiver wire, so P(0) can be compared against a target.
    """
    cfg = ProtocolConfig(receiver=receiver, mode="coherent")
    base = assemble_circuit(cfg)
    c = Circuit(base.num_qubits, 1, list(base.ops))
    c.measure(cfg.receiver_wire, 0)
    return c


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves more live threads than it started with, such
    as a sampled run's draw worker that was never joined."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    assert not leaked, f"threads left running: {leaked}"


@pytest.fixture(scope="session")
def ibmqx4() -> CouplingGraph:
    return load_ibmqx4_coupling()


@pytest.fixture(scope="session")
def coherent_circuit():
    return assemble_circuit(ProtocolConfig(mode="coherent"))
