"""Single-qubit state tomography from Z/X/Y measurement statistics.

Each sampled basis gets its own circuit variant: the base circuit, the
basis rotation on the target qubit, and a terminal Z measurement into a
fresh clbit.  Frequencies become Stokes parameters, the Pauli expansion
gives the raw density matrix, and an over-long Bloch vector is rescaled onto
the unit sphere to restore positivity.  Exact tomography reads the target's
reduced state instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .circuit import Circuit, Counts, RunConfig, _check_seed, _integer
from .fidelity import fidelity, pure_state_fidelity
from .noise import NoiseModel
from .simulate import _qubit_state, simulate_shots
from .states import DensityMatrix
from .stokes import StokesVector, _bloch, _inside_ball, _norm, density_from_stokes, stokes_from_density

BASES = ("Z", "X", "Y")

# Gate names rotating each basis onto Z, applied in order.  The Y rotation
# is SDG then H, so the composite sends (|0>+i|1>)/sqrt(2) to |0>.
_ROTATIONS = {"Z": (), "X": ("H",), "Y": ("SDG", "H")}


@dataclass(frozen=True)
class TomographyJob:
    """A base circuit plus which qubit to reconstruct and how hard to sample."""

    base_circuit: Circuit
    target_qubit: int
    shots_per_basis: int = 8192
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.target_qubit < self.base_circuit.num_qubits:
            raise ValueError(f"target qubit {self.target_qubit} out of range")
        object.__setattr__(self, "shots_per_basis", _integer(self.shots_per_basis, "shots_per_basis"))
        if self.shots_per_basis < 1:
            raise ValueError("shots_per_basis must be >= 1")
        object.__setattr__(self, "seed", _check_seed(self.seed))


def _check_unmeasured(base: Circuit, qubit: int) -> None:
    """Refuse to read out a qubit that the base circuit already measures."""
    if any(op.kind == "measure" and op.qubit == qubit for op in base.ops):
        raise ValueError("target qubit is already measured in the base circuit")


def measurement_variant(base: Circuit, qubit: int, basis: str) -> tuple[Circuit, int]:
    """`base` plus a readout of `qubit` in `basis` into one more clbit;
    returns (circuit, clbit).  Every readout added to a built circuit comes
    from here, so the qubit is checked to be unmeasured at that moment."""
    _check_unmeasured(base, qubit)
    if basis not in BASES:
        raise ValueError(f"basis must be one of {BASES}")
    clbit = base.num_clbits
    out = Circuit(base.num_qubits, clbit + 1, base.ops)
    for name in _ROTATIONS[basis]:
        out.gate(name, qubit)
    return out.measure(qubit, clbit), clbit


def basis_seed(seed: int, basis: str) -> int:
    """Derived per-basis seed: the master seed XOR the basis letter's code."""
    return seed ^ ord(basis)


def estimate_stokes(counts_z: Counts, counts_x: Counts, counts_y: Counts) -> StokesVector:
    """Stokes parameters from single-bit counts in the three bases.

    s0 is 1 by construction; each of s1, s2, s3 is the signed frequency
    difference (n0 - n1) / N of its basis run.
    """

    def diff(counts: Counts) -> float:
        if counts.num_clbits != 1:
            raise ValueError("expected single-bit counts")
        total = counts.total
        if total == 0:
            raise ValueError("zero total shots")
        return (counts.counts.get("0", 0) - counts.counts.get("1", 0)) / total

    return StokesVector(diff(counts_x), diff(counts_y), diff(counts_z))


def project_to_physical(rho_raw: DensityMatrix) -> DensityMatrix:
    """Pull a too-long Bloch vector back onto the unit sphere.

    Input that StokesVector.is_physical accepts is returned unchanged.  For
    a 2x2 matrix the rescale is the same as clipping the negative
    eigenvalue to zero and renormalizing the trace.
    """
    s = _bloch(rho_raw)
    norm = _norm(s)
    if _inside_ball(norm):
        return rho_raw
    scale = 1.0 / norm
    return density_from_stokes(StokesVector(*(x * scale for x in s)))


@dataclass(frozen=True)
class TomographyResult:
    """Reconstruction output: Stokes vector, raw and projected matrices."""

    stokes: StokesVector
    rho_raw: DensityMatrix = field(repr=False)
    rho_projected: DensityMatrix = field(repr=False)
    physical: bool
    fidelity_vs_reference: float | None = None
    fidelity_raw_vs_reference: float | None = None
    basis_counts: dict[str, Counts] | None = field(default=None, repr=False)

    def to_json(self) -> dict:
        out = {
            "stokes": list(self.stokes.as_tuple()),
            "rho_raw": self.rho_raw.to_json(),
            "rho_projected": self.rho_projected.to_json(),
            "physical": self.physical,
        }
        if self.fidelity_vs_reference is not None:
            out["fidelity"] = self.fidelity_vs_reference
        return out


def _raw_fidelity(rho_raw: DensityMatrix, reference: DensityMatrix) -> float | None:
    """Fidelity against the unprojected matrix, when it is well-defined.

    A slightly negative raw matrix still works against a pure reference via
    the quadratic form; against a mixed reference there is no principled
    value, so None is returned.
    """
    try:
        return fidelity(rho_raw, reference)
    except ValueError:
        pass
    vals, vecs = np.linalg.eigh(reference.matrix)
    if vals[-1] >= 1.0 - 1e-9:
        return pure_state_fidelity(vecs[:, -1], rho_raw)
    return None


def reconstruct(stokes: StokesVector, reference: DensityMatrix | None = None) -> TomographyResult:
    """Build a TomographyResult from already-estimated Stokes parameters."""
    rho_raw = density_from_stokes(stokes)
    rho_projected = project_to_physical(rho_raw)
    physical = rho_projected is rho_raw  # the projection leaves exactly the physical input alone
    fid = fid_raw = None
    if reference is not None:
        fid = fidelity(rho_projected, reference)
        # a physical rho_raw is rho_projected, so its raw fidelity is fid
        fid_raw = fid if physical else _raw_fidelity(rho_raw, reference)
    return TomographyResult(
        stokes=stokes,
        rho_raw=rho_raw,
        rho_projected=rho_projected,
        physical=physical,
        fidelity_vs_reference=fid,
        fidelity_raw_vs_reference=fid_raw,
    )


def run_tomography(
    job: TomographyJob,
    reference: DensityMatrix | None = None,
    noise: NoiseModel | None = None,
) -> TomographyResult:
    """Sample the three basis variants and reconstruct the target qubit.

    Each basis runs with a seed derived from the job seed and the basis
    tag, so the three runs are reproducible independently of execution
    order.  Fidelity is scored on the projected matrix when a reference is
    given.
    """
    marginals: dict[str, Counts] = {}
    for basis in BASES:
        circuit, clbit = measurement_variant(job.base_circuit, job.target_qubit, basis)
        cfg = RunConfig(shots=job.shots_per_basis, seed=basis_seed(job.seed, basis))
        counts = simulate_shots(circuit, cfg, noise=noise)
        marginals[basis] = counts.marginal(clbit)
    stokes = estimate_stokes(marginals["Z"], marginals["X"], marginals["Y"])
    return replace(reconstruct(stokes, reference), basis_counts=marginals)


def exact_stokes(base_circuit: Circuit, target_qubit: int) -> StokesVector:
    """Stokes parameters of the target qubit's exact reduced state, no sampling."""
    _check_unmeasured(base_circuit, target_qubit)
    return stokes_from_density(_qubit_state(base_circuit, target_qubit))
