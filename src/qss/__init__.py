"""Desk-scale simulator and toolkit for GHZ-based three-party quantum
secret sharing: statevector engine, feedforward and coherent protocol
modes, directed-coupling routing, single-qubit tomography, depolarizing
noise with calibration, and Uhlmann fidelity."""

from .circuit import Circuit, CircuitOp, Counts, RunConfig
from .fidelity import fidelity, psd_sqrt, pure_state_fidelity
from .gates import GATES, GateMatrix, gate
from .noise import NoiseModel, fit_depolarizing_detail
from .protocol import (
    ProtocolConfig,
    ProtocolTranscript,
    SecretSpec,
    aggregate_receiver_counts,
    assemble_circuit,
    correction_for,
    pre_correction_reduced_dm,
    receiver_p0,
    run_protocol,
)
from .routing import (
    CouplingGraph,
    QubitMapping,
    TranspileReport,
    check_routing,
    decompose_swap,
    route,
)
from .simulate import (
    Branch,
    SimulationError,
    enumerate_branches,
    exact_distribution,
    simulate_shots,
    unitary_of,
)
from .states import DensityMatrix, StateVector, apply_gate
from .stokes import StokesVector, density_from_stokes, stokes_from_density
from .tomography import (
    TomographyJob,
    TomographyResult,
    estimate_stokes,
    exact_stokes,
    project_to_physical,
    run_tomography,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "Circuit",
    "CircuitOp",
    "Counts",
    "CouplingGraph",
    "DensityMatrix",
    "GATES",
    "GateMatrix",
    "NoiseModel",
    "ProtocolConfig",
    "ProtocolTranscript",
    "QubitMapping",
    "RunConfig",
    "SecretSpec",
    "SimulationError",
    "StateVector",
    "StokesVector",
    "TomographyJob",
    "TomographyResult",
    "TranspileReport",
    "aggregate_receiver_counts",
    "apply_gate",
    "assemble_circuit",
    "check_routing",
    "correction_for",
    "decompose_swap",
    "density_from_stokes",
    "enumerate_branches",
    "estimate_stokes",
    "exact_distribution",
    "exact_stokes",
    "fidelity",
    "fit_depolarizing_detail",
    "gate",
    "pre_correction_reduced_dm",
    "project_to_physical",
    "psd_sqrt",
    "pure_state_fidelity",
    "receiver_p0",
    "route",
    "run_protocol",
    "run_tomography",
    "simulate_shots",
    "stokes_from_density",
    "unitary_of",
]
