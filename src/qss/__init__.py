"""Desk-scale simulator and toolkit for GHZ-based three-party quantum
secret sharing: statevector engine, feedforward and coherent protocol
modes, directed-coupling routing, single-qubit tomography, depolarizing
noise with calibration, and Uhlmann fidelity."""

from .circuit import Circuit, CircuitOp, Counts, RunConfig
from .fidelity import fidelity, psd_sqrt, pure_state_fidelity, purity
from .gates import GATES, GateMatrix, gate
from .noise import NoiseModel, fit_depolarizing_detail
from .protocol import (
    ProtocolConfig,
    ProtocolTranscript,
    SecretSpec,
    aggregate_receiver_counts,
    assemble_circuit,
    build_bell_measurement_fragment,
    build_ghz_fragment,
    correction_for,
    pre_correction_reduced_dm,
    receiver_p0,
    run_protocol,
    x_basis_measurement_fragment,
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
from .states import DensityMatrix, StateVector, apply_gate, partial_trace
from .stokes import StokesVector, density_from_stokes, stokes_from_density
from .tomography import (
    TomographyJob,
    TomographyResult,
    basis_change_fragment,
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
    "basis_change_fragment",
    "build_bell_measurement_fragment",
    "build_ghz_fragment",
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
    "partial_trace",
    "pre_correction_reduced_dm",
    "project_to_physical",
    "psd_sqrt",
    "pure_state_fidelity",
    "purity",
    "receiver_p0",
    "route",
    "run_protocol",
    "run_tomography",
    "simulate_shots",
    "stokes_from_density",
    "unitary_of",
    "x_basis_measurement_fragment",
]
