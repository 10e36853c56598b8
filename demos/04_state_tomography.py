"""
Reading out the receiver by tomography
======================================

Measuring one observable tells you one Bloch component.  Running the
protocol three times with Z, X, and Y readouts of the receiver gives
all four Stokes parameters, and from them the density matrix.  With
finite shots the raw estimate can poke outside the physical Bloch ball;
the projection step pulls it back before fidelity is scored.
"""

import numpy as np

from qss import (
    DensityMatrix,
    ProtocolConfig,
    SecretSpec,
    TomographyJob,
    assemble_circuit,
    density_from_stokes,
    exact_stokes,
    run_tomography,
)
from qss.stokes import StokesVector

base = assemble_circuit(ProtocolConfig(mode="coherent"))
ideal = SecretSpec().density()

# Infinite-shot limit first: probabilities straight from the state.
s_exact = exact_stokes(base, target_qubit=0)
print("exact Stokes parameters:", tuple(round(v, 6) for v in s_exact.as_tuple()))
print()

# Finite shots: three seeded runs, one per basis.
job = TomographyJob(base_circuit=base, target_qubit=0, shots_per_basis=8192, seed=4)
result = run_tomography(job, reference=ideal)

print("basis counts at 8192 shots per basis:")
for basis, counts in result.basis_counts.items():
    print(f"  {basis}: {dict(sorted(counts.counts.items()))}")
print()
print("estimated Stokes parameters:", tuple(round(v, 4) for v in result.stokes.as_tuple()))
print("reconstructed density matrix:")
print(np.round(result.rho_raw.matrix, 4))
print(f"physical as measured: {result.physical}")
print(f"fidelity vs ideal secret: {result.fidelity_vs_reference:.5f}")
print()

# Reference Stokes row from a four-parameter readout of real hardware
# statistics, and what the projection does to an unphysical vector.
hw = StokesVector(0.102, 0.021, 0.600)
print("hardware-style Stokes row reconstructs to:")
print(np.round(density_from_stokes(hw).matrix, 4))
print()

stretched = StokesVector(0.8, 0.0, 0.8)  # Bloch norm > 1, unphysical
raw = density_from_stokes(stretched)
print(f"stretched vector eigenvalues: {np.round(np.linalg.eigvalsh(raw.matrix), 4)}")
from qss import project_to_physical

fixed = project_to_physical(raw)
print(f"after projection:             {np.round(np.linalg.eigvalsh(fixed.matrix), 4)}")
print("projected matrix:")
print(np.round(fixed.matrix, 4))
