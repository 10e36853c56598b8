"""Host-speed probes: fixed reference work that never touches qss.

The host this benchmark was built on is shared, and its speed drifts by
tens of percent over seconds to minutes as other tenants load it: one
`noisy-8k` op took 48 ms to 85 ms within a minute, and a longer run does
not average that away.  For the in-process workloads `noisy-8k` and
`toolchain`, a probe resembling the workload's own work runs right after
every timed op, and op times are rescaled by nominal / measured probe time.
Timed values are then reported at the speed of a host on which the probe
takes its nominal time; the raw values are printed alongside.

The sampled probe runs the shot engine's numpy kernels on arrays of the
same shape; the toolchain probe does small dense-matrix work and many
Python calls.  The nominal times are typical medians on the reference host
(2-core Xeon VM at 2.1 GHz, Python 3.11.7, numpy 2.4.6).
"""

from __future__ import annotations

import time

import numpy as np

import oracle

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_U = np.random.default_rng(0).random((8192, 4))
_BIT = ((np.arange(16) >> 1) & 1).astype(float)
_FIXED_OPS = [
    ("gate", "H", (0,)), ("gate", "CNOT", (0, 2)), ("gate", "T", (2,)), ("measure", 2, 0),
    ("cond", "X", (1,), 0), ("gate", "H", (3,)), ("gate", "CZ", (3, 1)), ("measure", 1, 1),
    ("gate", "SWAP", (0, 3)), ("measure", 0, 2),
]
_RHO_A = np.array([[0.7, 0.1 - 0.2j], [0.1 + 0.2j, 0.3]], dtype=complex)
_RHO_B = np.array([[0.4, -0.1j], [0.1j, 0.6]], dtype=complex)


def sampled() -> None:
    """Batched two-level gates, masked row updates and a collapse reduction
    on 8192 four-qubit statevectors."""
    st = np.zeros((8192, 16), dtype=complex)
    st[:, 0] = 1.0
    for k in range(4):
        t = np.moveaxis(st.reshape(8192, 2, 2, 2, 2), 1 + k % 4, 1).reshape(8192, 2, 8)
        t = np.einsum("ij,bjk->bik", _H, t)
        st = np.moveaxis(t.reshape(8192, 2, 2, 2, 2), 1, 1 + k % 4).reshape(8192, 16)
        hit = _U[:, k] < 0.05
        st[hit] = np.einsum("ij,bjk->bik", _H, st[hit].reshape(-1, 2, 8)).reshape(-1, 16)
    np.einsum("ij,j->i", np.abs(st) ** 2, _BIT)


def toolchain() -> None:
    """Small dense-matrix work and many Python-level calls."""
    for _ in range(2):
        oracle.exact_distribution(_FIXED_OPS, 4, 3)
        oracle.fidelity_2x2(_RHO_A, _RHO_B)


# name -> (probe, nominal seconds per call)
PROBES = {
    "sampled": (sampled, 0.020),
    "toolchain": (toolchain, 0.00037),
}


def slowness(name: str) -> float:
    """One probe call's time over its nominal time: 1 on the reference host,
    2 on a host running at half its speed."""
    fn, nominal = PROBES[name]
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) / nominal
