"""Statevector evolution and density matrices, cross-checked against the
dense index-arithmetic oracle."""

import itertools

import numpy as np
import pytest

from qss import DensityMatrix, StateVector, apply_gate
from qss.fileio import SchemaError, parse_density_matrix
from qss.gates import ATOL_EVOLUTION, GATES, gate
from qss.states import _check_hermitian, _gather_tables, apply_unitary

import oracles

GATE_POOL_1Q = ("X", "Y", "Z", "H", "S", "SDG", "T")
GATE_POOL_2Q = ("CNOT", "CZ", "SWAP")


def random_op_sequence(rng, n, length):
    ops = []
    for _ in range(length):
        if n >= 2 and rng.random() < 0.4:
            name = GATE_POOL_2Q[rng.integers(len(GATE_POOL_2Q))]
            a, b = rng.choice(n, size=2, replace=False)
            ops.append((name, (int(a), int(b))))
        else:
            name = GATE_POOL_1Q[rng.integers(len(GATE_POOL_1Q))]
            ops.append((name, (int(rng.integers(n)),)))
    return ops


def test_zero_state():
    psi = StateVector.zero(3)
    assert psi.num_qubits == 3
    assert psi.amplitudes[0] == 1.0
    assert np.abs(psi.amplitudes[1:]).max() == 0.0


def test_validation_rejects_bad_states():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(ValueError, match="power of two"):
        StateVector(np.array([1.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(ValueError, match="finite"):
        StateVector(np.array([np.nan, 0.0], dtype=complex))
    with pytest.raises(ValueError, match="num_qubits must be in"):
        StateVector.zero(9)
    amps = np.zeros(2**9, dtype=complex)
    amps[0] = 1.0
    with pytest.raises(ValueError, match="exceeds the 8-qubit limit"):
        StateVector(amps)
    with pytest.raises(ValueError, match="^9 qubits exceeds the 8-qubit limit$"):
        DensityMatrix(np.eye(2**9, dtype=complex) / 2**9)


def test_amplitudes_are_read_only():
    psi = StateVector.zero(2)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


def test_apply_gate_matches_oracle_on_random_sequences():
    rng = np.random.default_rng(17)
    for trial in range(60):
        n = int(rng.integers(1, 6))
        ops = random_op_sequence(rng, n, int(rng.integers(1, 9)))
        psi = StateVector.zero(n)
        for name, targets in ops:
            psi = apply_gate(psi, name, targets)
        expected = oracles.run_ops(ops, n)
        np.testing.assert_allclose(psi.amplitudes, expected, atol=1e-12, err_msg=str(ops))


def test_apply_gate_target_convention():
    # CNOT targets are (control, target): |01> has qubit 0 set, so a CNOT
    # controlled on qubit 0 flips qubit 1
    psi = StateVector.zero(2)
    psi = apply_gate(psi, "X", (0,))
    psi = apply_gate(psi, "CNOT", (0, 1))
    assert abs(psi.amplitudes[0b11]) == pytest.approx(1.0)


def test_apply_unitary_validates():
    psi = StateVector.zero(2)
    with pytest.raises(ValueError, match="duplicate"):
        apply_unitary(psi.amplitudes, oracles.GATE_MATRICES["CNOT"], (0, 0), 2)
    with pytest.raises(ValueError, match="out of range"):
        apply_unitary(psi.amplitudes, oracles.GATE_MATRICES["X"], (2,), 2)
    with pytest.raises(ValueError, match="does not match"):
        apply_unitary(psi.amplitudes, oracles.GATE_MATRICES["X"], (0, 1), 2)
    with pytest.raises(ValueError, match="does not match"):
        apply_unitary(psi.amplitudes, np.eye(2).reshape(1, 4), (0,), 2)
    # a rejected call caches nothing, so it keeps failing
    with pytest.raises(ValueError, match="out of range"):
        apply_unitary(psi.amplitudes, oracles.GATE_MATRICES["X"], (2,), 2)


def random_unitary(rng, k):
    q, r = np.linalg.qr(rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def kernel_tables(matrix, targets, n):
    """The kernel's dense (perm, coef) tables."""
    m = np.asarray(matrix, dtype=complex)
    return _gather_tables(m.tobytes(), m.shape, targets, n)[:2]


def kernel_terms(matrix, targets, n):
    """The kernel's terms: (perm or None, coef or None) pairs."""
    m = np.asarray(matrix, dtype=complex)
    return _gather_tables(m.tobytes(), m.shape, targets, n)[2]


def assert_kernel_matches_lifting(matrix, targets, n, rng, reference=None, atol=1e-12):
    """apply_unitary against the oracle's lifting of reference (default: the
    matrix itself), on batch shapes (), (g,) and (a, b), to atol."""
    dense = oracles.lift(np.asarray(matrix if reference is None else reference, dtype=complex), targets, n)
    flat = rng.normal(size=(6, 2**n)) + 1j * rng.normal(size=(6, 2**n))
    for amps in (flat[0], flat, flat.reshape(2, 3, 2**n)):
        got = apply_unitary(amps, matrix, targets, n)
        assert got.shape == amps.shape
        np.testing.assert_allclose(got, amps @ dense.T, rtol=0, atol=atol, err_msg=f"{targets} on {n} qubits")


@pytest.mark.parametrize("n", range(1, 6))
def test_apply_unitary_matches_lifting_on_every_target_tuple(n):
    # Each registry gate, and its conjugate as the exact noisy channel
    # applies it to the column wires, to 1e-15.
    rng = np.random.default_rng(n)
    for name, g in sorted(GATES.items()):
        reference = oracles.GATE_MATRICES[name]
        for targets in itertools.permutations(range(n), g.arity):
            assert_kernel_matches_lifting(g.matrix, targets, n, rng, reference, atol=1e-15)
            assert_kernel_matches_lifting(g.matrix.conj(), targets, n, rng, reference.conj(), atol=1e-15)


def test_a_permutation_gate_is_an_exact_gather():
    # A unit-coefficient term skips the multiply, so each amplitude is
    # copied bit for bit: a -0.0 keeps its sign.
    rng = np.random.default_rng(31)
    n = 3
    amps = rng.normal(size=(4, 2**n)) + 1j * rng.normal(size=(4, 2**n))
    amps[0, :4] = complex(-0.0, -0.0)
    amps[1, 4:] = complex(0.0, -0.0)
    for name in ("ID", "X", "CNOT", "SWAP"):
        g = gate(name)
        for targets in itertools.permutations(range(n), g.arity):
            (perm,), _ = kernel_tables(g.matrix, targets, n)
            got = apply_unitary(amps, g.matrix, targets, n)
            assert got.tobytes() == amps[..., perm].tobytes(), (name, targets)
            assert not np.shares_memory(got, amps)


def test_apply_unitary_matches_lifting_on_wide_registers():
    rng = np.random.default_rng(68)
    for n in (6, 7, 8):
        for name, g in sorted(GATES.items()):
            tuples = list(itertools.permutations(range(n), g.arity))
            for i in rng.choice(len(tuples), size=3, replace=False):
                assert_kernel_matches_lifting(g.matrix, tuples[i], n, rng, oracles.GATE_MATRICES[name])


def test_apply_unitary_takes_any_matrix():
    rng = np.random.default_rng(29)
    assert_kernel_matches_lifting(random_unitary(rng, 1), (2,), 4, rng)
    assert_kernel_matches_lifting(random_unitary(rng, 2), (3, 0), 4, rng)
    assert_kernel_matches_lifting(random_unitary(rng, 3), (1, 4, 0), 5, rng)
    # a real rotation and a sparse, non-monomial controlled-H, as float64
    c, s = np.cos(0.3), np.sin(0.3)
    rotation = np.array([[c, -s], [s, c]])
    controlled_h = np.eye(4)
    controlled_h[2:, 2:] = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    assert_kernel_matches_lifting(rotation, (1,), 3, rng)
    assert_kernel_matches_lifting(controlled_h, (0, 2), 3, rng)
    assert len(kernel_tables(controlled_h, (0, 2), 3)[0]) == 2


# Which of its gather and multiply each registry gate's terms skip: a
# diagonal gate is one multiply, a permutation gate one gather, and H and Y
# keep both.
SKIPS = {
    "ID": (True, True),
    "X": (False, True), "CNOT": (False, True), "SWAP": (False, True),
    "Z": (True, False), "S": (True, False), "SDG": (True, False), "T": (True, False), "CZ": (True, False),
    "H": (False, False), "Y": (False, False),
}


def test_gather_tables_terms_and_read_only():
    # one (perm, phase) term for a monomial matrix, one per nonzero of the
    # fullest row otherwise; a term's perm is None when it is the identity,
    # and its coef when it is all ones
    assert sorted(SKIPS) == sorted(GATES)
    for name, g in GATES.items():
        for targets in itertools.permutations(range(3), g.arity):
            perm, coef = kernel_tables(g.matrix, targets, 3)
            assert perm.shape == coef.shape == ((2 if name == "H" else 1), 8)
            assert not perm.flags.writeable and not coef.flags.writeable
            terms = kernel_terms(g.matrix, targets, 3)
            assert len(terms) == len(perm)
            for (p, c), dense_p, dense_c in zip(terms, perm, coef):
                assert (p is None, c is None) == SKIPS[name], (name, targets)
                assert p is None or (np.array_equal(p, dense_p) and not p.flags.writeable)
                assert c is None or (np.array_equal(c, dense_c) and not c.flags.writeable)
    perm, _ = kernel_tables(random_unitary(np.random.default_rng(3), 2), (0, 1), 2)
    assert perm.shape == (4, 4)


@pytest.mark.parametrize("g", [1, 3, 64, 700])
def test_apply_unitary_rows_do_not_depend_on_the_batch(g):
    rng = np.random.default_rng(g)
    n = 4
    batch = rng.normal(size=(g, 2**n)) + 1j * rng.normal(size=(g, 2**n))
    cases = [(gate(name).matrix, targets) for name, targets in (("H", (2,)), ("T", (0,)), ("CNOT", (3, 1)))]
    cases += [(random_unitary(rng, 2), (1, 2)), (random_unitary(rng, 3), (0, 3, 2))]
    for matrix, targets in cases:
        together = apply_unitary(batch, matrix, targets, n)
        assert np.array_equal(together, np.array([apply_unitary(row, matrix, targets, n) for row in batch]))


def test_inner_product():
    a = StateVector.zero(1)
    b = apply_gate(a, "H", (0,))
    assert a.inner(b) == pytest.approx(1 / np.sqrt(2))
    assert b.inner(b) == pytest.approx(1.0)


def test_density_of_pure_state():
    psi = apply_gate(StateVector.zero(1), "H", (0,))
    rho = psi.density()
    np.testing.assert_allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-12)


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 1e308], [-1e308, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.diag([1e308, 1e308]).astype(complex))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="square"):
        DensityMatrix(np.zeros((2, 3), dtype=complex))


def test_check_hermitian_decides_as_allclose():
    rng = np.random.default_rng(2022)

    def passes(m):
        try:
            _check_hermitian(m, "m")
        except ValueError as exc:
            assert str(exc) == "m must be Hermitian"
            return False
        return True

    cases = []
    for _ in range(400):
        d = int(rng.choice([1, 2, 4, 8]))
        noise = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        # Differences from 1e-12 to 1e-3 straddle the bound of about 1e-5 |m|.
        cases.append(oracles.random_density(rng, d) + 10.0 ** rng.uniform(-12, -3) * noise)
    # An entry whose mirror is 0 has the bound atol itself.
    at_bound = np.array([[0.5, ATOL_EVOLUTION], [0.0, 0.5]], dtype=complex)
    past_bound = np.array([[0.5, np.nextafter(ATOL_EVOLUTION, 1.0)], [0.0, 0.5]], dtype=complex)
    signed_zeros = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)], [complex(-0.0, -0.0), 0.5]])
    big = np.finfo(float).max
    near_limit = [
        np.array([[0.5, big], [-big, 0.5]], dtype=complex),
        np.array([[0.5, 1j * big], [1j * big, 0.5]]),
        np.array([[big, 0.5 * big], [-0.5 * big, big]], dtype=complex),
    ]
    cases += [at_bound, past_bound, signed_zeros, -signed_zeros]
    decided = []
    for m in cases + near_limit:
        with np.errstate(all="ignore"):
            want = bool(np.allclose(m, m.conj().T, atol=ATOL_EVOLUTION))
        assert passes(m) is want
        decided.append(want)
    assert 100 <= sum(decided[:400]) <= 300
    assert passes(at_bound) and not passes(past_bound) and passes(signed_zeros)
    # Near the float limit each matrix is rejected, and no warning is raised
    # (the suite turns warnings into errors).
    assert not any(passes(m) for m in near_limit)


def test_check_hermitian_rejects_an_entry_whose_modulus_overflows():
    # Both parts of h are finite, but |h| overflows to inf, so np.allclose's
    # bound atol + rtol |h| is inf and passes this non-Hermitian matrix.
    h = complex(1.6e308, 1.6e308)
    m = np.array([[0.5, h], [h, 0.5]])
    with pytest.raises(ValueError, match="^m must be finite$"):
        _check_hermitian(m, "m")
    with pytest.raises(ValueError, match="must be finite"):
        DensityMatrix(m)


def test_density_matrix_allows_slightly_negative_eigenvalues():
    # tomography output can be unphysical; construction succeeds and the
    # flag reports it
    m = np.array([[1.05, 0.0], [0.0, -0.05]], dtype=complex)
    rho = DensityMatrix(m)
    assert not rho.is_physical()
    ok = DensityMatrix(np.eye(2, dtype=complex) / 2)
    assert ok.is_physical()


def test_density_matrix_json_round_trip():
    rng = np.random.default_rng(5)
    rho = DensityMatrix(oracles.random_density(rng, 4))
    back = parse_density_matrix(rho.to_json())
    np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-15)
    with pytest.raises(SchemaError, match="shape"):
        parse_density_matrix({"dim": 2, "re": [[1.0]], "im": [[0.0]]})
