"""Secret-sharing protocol: the circuit, corrections, and all three modes."""

import numpy as np
import pytest

from qss import (
    Circuit,
    CircuitOp,
    ProtocolConfig,
    SecretSpec,
    StateVector,
    aggregate_receiver_counts,
    assemble_circuit,
    correction_for,
    enumerate_branches,
    pre_correction_reduced_dm,
    receiver_p0,
    run_protocol,
)
from qss import protocol
from qss.protocol import MODES, RECEIVERS
from qss.simulate import _qubit_state
from qss.tomography import measurement_variant

import oracles
from conftest import ALPHA, BETA, P0_SECRET, RHO_SECRET, calibration_circuit

# Correction table, frozen from the teleportation algebra: the Bell bit
# of the dealer's GHZ share keys X, the secret's Bell bit and the
# partner's X-basis bit each key a Z.
CORRECTION_TABLE = {
    (0, 0, 0): [],
    (0, 0, 1): ["Z"],
    (0, 1, 0): ["X"],
    (0, 1, 1): ["X", "Z"],
    (1, 0, 0): ["Z"],
    (1, 0, 1): ["Z", "Z"],
    (1, 1, 0): ["X", "Z"],
    (1, 1, 1): ["X", "Z", "Z"],
}

# The coherent circuit after the secret preparation, written out: GHZ
# sharing, the dealer's Bell rotation, the partner's X-basis rotation, then
# the corrections X, Z, Z as CNOT and CZ from the wires measured into their
# clbits (dealer's GHZ share, secret, partner).
COHERENT_AFTER_PREP = {
    "charlie": [
        ("H", (2,)), ("CNOT", (2, 1)), ("CNOT", (2, 0)), ("CNOT", (3, 2)), ("H", (3,)),
        ("H", (1,)), ("CNOT", (2, 0)), ("CZ", (3, 0)), ("CZ", (1, 0)),
    ],
    "bob": [
        ("H", (2,)), ("CNOT", (2, 1)), ("CNOT", (2, 0)), ("CNOT", (3, 2)), ("H", (3,)),
        ("H", (0,)), ("CNOT", (2, 1)), ("CZ", (3, 1)), ("CZ", (0, 1)),
    ],
}

# The fragments of the sampled protocol circuit of a secret with no
# preparation, as slices of its op list: GHZ sharing, the dealer's Bell
# measurement and the partner's X-basis measurement.
GHZ_STEP, BELL_STEP, X_STEP = slice(0, 3), slice(3, 7), slice(7, 9)

ONE_QUBIT_GATES = ("ID", "X", "Y", "Z", "H", "S", "SDG", "T")


def sampled_ops(receiver: str) -> tuple[CircuitOp, ...]:
    return assemble_circuit(ProtocolConfig(receiver=receiver), SecretSpec(())).ops


def test_secret_spec_default_state():
    psi = SecretSpec().state()
    assert psi.amplitudes[0] == pytest.approx(ALPHA, abs=1e-12)
    assert psi.amplitudes[1] == pytest.approx(BETA, abs=1e-12)
    np.testing.assert_allclose(SecretSpec().density().matrix, RHO_SECRET, atol=1e-12)


def test_secret_spec_rejects_multi_qubit_gates():
    with pytest.raises(ValueError, match="single-qubit"):
        SecretSpec(("H", "CNOT"))


def test_config_validation():
    with pytest.raises(ValueError, match="receiver"):
        ProtocolConfig(receiver="dave")
    with pytest.raises(ValueError, match="mode"):
        ProtocolConfig(mode="fast")
    with pytest.raises(ValueError, match="shots"):
        ProtocolConfig(mode="sampled", shots=0)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
            ProtocolConfig(seed=seed)
    assert ProtocolConfig(seed=2**64 - 1).seed == 2**64 - 1
    with pytest.raises(ValueError, match="sampled"):
        from qss import NoiseModel

        ProtocolConfig(mode="coherent", noise=NoiseModel.zero())
    cfg = ProtocolConfig(receiver="bob")
    assert cfg.receiver_wire == 1 and cfg.partner_wire == 0
    cfg = ProtocolConfig(receiver="charlie")
    assert cfg.receiver_wire == 0 and cfg.partner_wire == 1


def test_ghz_fragment_ops_and_state():
    for receiver in RECEIVERS:
        ops = sampled_ops(receiver)[GHZ_STEP]
        assert [(op.name, op.targets) for op in ops] == [("H", (2,)), ("CNOT", (2, 1)), ("CNOT", (2, 0))]
        psi = oracles.run_ops([(op.name, op.targets) for op in ops], 4)
        assert psi[0b0000] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert psi[0b0111] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert np.abs(np.delete(psi, [0b0000, 0b0111])).max() == pytest.approx(0.0, abs=1e-15)


def test_bell_fragment_identifies_all_four_bell_states():
    # prepare each Bell state on qubits (3, 2), then run the protocol's
    # Bell measurement; the recorded pair (clbit 0, clbit 1) tags the state
    # uniquely
    preparations = {
        (): (0, 0),  # (|00> + |11>)/sqrt(2)
        ("Z",): (1, 0),  # (|00> - |11>)/sqrt(2)
        ("Xlow",): (0, 1),  # (|01> + |10>)/sqrt(2)
        ("Z", "Xlow"): (1, 1),  # (|01> - |10>)/sqrt(2)
    }
    for receiver in RECEIVERS:
        for extra, expected in preparations.items():
            c = Circuit(4, 2).gate("H", 3).gate("CNOT", 3, 2)
            for tag in extra:
                if tag == "Z":
                    c.gate("Z", 3)
                else:
                    c.gate("X", 2)
            c.extend(sampled_ops(receiver)[BELL_STEP])
            (branch,) = enumerate_branches(c)
            assert (branch.clbits[0], branch.clbits[1]) == expected, extra


def test_bell_fragment_op_shape():
    for receiver in RECEIVERS:
        ops = sampled_ops(receiver)[BELL_STEP]
        assert [(op.kind, op.name) for op in ops] == [
            ("gate", "CNOT"),
            ("gate", "H"),
            ("measure", None),
            ("measure", None),
        ]
        assert ops[0].targets == (3, 2) and ops[1].targets == (3,)
        assert ops[2].qubit == 3 and ops[2].clbit == 0
        assert ops[3].qubit == 2 and ops[3].clbit == 1


def test_x_fragment_distinguishes_plus_minus():
    for receiver in RECEIVERS:
        partner = ProtocolConfig(receiver=receiver).partner_wire
        plus = Circuit(2, 3).gate("H", partner).extend(sampled_ops(receiver)[X_STEP])
        (branch,) = enumerate_branches(plus)
        assert branch.clbits[2] == 0
        minus = Circuit(2, 3).gate("H", partner).gate("Z", partner).extend(sampled_ops(receiver)[X_STEP])
        (branch,) = enumerate_branches(minus)
        assert branch.clbits[2] == 1


def test_assembly_matches_the_fragment_oracle():
    rng = np.random.default_rng(1717)
    secrets = [SecretSpec(), SecretSpec(())]
    for _ in range(40):
        secrets.append(SecretSpec(tuple(str(g) for g in rng.choice(ONE_QUBIT_GATES, size=int(rng.integers(0, 7))))))
    for secret in secrets:
        for receiver in RECEIVERS:
            for mode in MODES:
                cfg = ProtocolConfig(receiver=receiver, mode=mode)
                want = oracles.assemble_by_fragments(cfg, secret)
                assert assemble_circuit(cfg, secret) == want, (secret, receiver, mode)


def test_extending_an_assembled_circuit_leaves_the_next_one_unchanged():
    for receiver in RECEIVERS:
        for mode in MODES:
            cfg = ProtocolConfig(receiver=receiver, mode=mode)
            first = assemble_circuit(cfg)
            first.gate("X", cfg.receiver_wire).gate("CZ", 0, 1)
            second = assemble_circuit(cfg)
            assert second == oracles.assemble_by_fragments(cfg, SecretSpec())
            assert first.ops[:-2] == second.ops


def test_correction_table():
    for bits, expected in CORRECTION_TABLE.items():
        assert correction_for(*bits) == expected, bits
    with pytest.raises(ValueError, match="0 or 1"):
        correction_for(2, 0, 0)


def test_corrections_repair_every_branch():
    """Independent check of the table: measure without feedforward, then
    apply the table's gates through the oracle and compare against the
    secret."""
    cfg = ProtocolConfig(mode="sampled")
    full = assemble_circuit(cfg)
    bare = Circuit(4, 3, [op for op in full.ops if op.kind != "cond"])
    secret = SecretSpec().state().amplitudes
    branches = enumerate_branches(bare)
    assert len(branches) == 8
    for branch in branches:
        m_s, m_g, m_x = branch.clbits
        state = branch.state.copy()
        for name in CORRECTION_TABLE[(m_s, m_g, m_x)]:
            state = oracles.lift(oracles.GATE_MATRICES[name], (0,), 4) @ state
        rho = oracles.reduced_density(state, [0], 4)
        overlap = float(np.real(np.conj(secret) @ rho @ secret))
        assert overlap == pytest.approx(1.0, abs=1e-10), branch.clbits


def test_coherent_circuit_shape():
    c = assemble_circuit(ProtocolConfig(mode="coherent"))
    assert c.num_qubits == 4 and c.num_clbits == 0
    assert len(c.ops) == 12
    assert [op.kind for op in c.ops] == ["gate"] * 12
    tail = [(op.name, op.targets) for op in c.ops[-3:]]
    assert tail == [("CNOT", (2, 0)), ("CZ", (3, 0)), ("CZ", (1, 0))]


def test_sampled_circuit_shape():
    c = assemble_circuit(ProtocolConfig(mode="sampled"))
    kinds = [op.kind for op in c.ops]
    assert kinds.count("measure") == 3
    assert kinds.count("cond") == 3
    # the receiver wire is never measured
    assert all(op.qubit != 0 for op in c.ops if op.kind == "measure")
    conds = [(op.name, op.targets, op.clbit) for op in c.ops if op.kind == "cond"]
    assert conds == [("X", (0,), 1), ("Z", (0,), 0), ("Z", (0,), 2)]


def test_coherent_mode_reduced_state():
    (t,) = run_protocol(ProtocolConfig(mode="coherent"))
    assert t.bell_outcome is None and t.x_outcome is None
    np.testing.assert_allclose(t.receiver_reduced_dm.matrix, RHO_SECRET, atol=1e-10)
    j = t.to_json()
    assert "reduced_dm" in j and j["bell"] is None


def test_exact_mode_branches():
    transcripts = run_protocol(ProtocolConfig(mode="exact"))
    assert len(transcripts) == 8
    secret = SecretSpec().state()
    seen = set()
    for t in transcripts:
        assert t.probability == pytest.approx(0.125, abs=1e-12)
        overlap = abs(t.receiver_state.inner(secret))
        assert overlap == pytest.approx(1.0, abs=1e-10)
        bits = (t.bell_outcome[0], t.bell_outcome[1], t.x_outcome)
        assert list(t.corrections_applied) == CORRECTION_TABLE[bits]
        seen.add(bits)
    assert len(seen) == 8
    j = transcripts[0].to_json()
    assert "probability" in j and "receiver_state" in j


def test_exact_mode_outcome_uniformity():
    transcripts = run_protocol(ProtocolConfig(mode="exact"))
    # every Bell pair shows up with probability 1/4, every triple 1/8
    pair_mass = {}
    for t in transcripts:
        pair_mass[t.bell_outcome] = pair_mass.get(t.bell_outcome, 0.0) + t.probability
    assert set(pair_mass) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    for mass in pair_mass.values():
        assert mass == pytest.approx(0.25, abs=1e-12)


def test_receiver_symmetry():
    for mode in ("coherent", "exact"):
        a = run_protocol(ProtocolConfig(mode=mode, receiver="charlie"))
        b = run_protocol(ProtocolConfig(mode=mode, receiver="bob"))
        assert receiver_p0(a) == pytest.approx(receiver_p0(b), abs=1e-12)
    dm_c = run_protocol(ProtocolConfig(mode="coherent", receiver="charlie"))[0].receiver_reduced_dm
    dm_b = run_protocol(ProtocolConfig(mode="coherent", receiver="bob"))[0].receiver_reduced_dm
    np.testing.assert_allclose(dm_c.matrix, dm_b.matrix, atol=1e-12)


def test_deferred_measurement_equivalence():
    """Averaging the exact branches reproduces the coherent reduced state."""
    transcripts = run_protocol(ProtocolConfig(mode="exact"))
    mixed = np.zeros((2, 2), dtype=complex)
    for t in transcripts:
        a = t.receiver_state.amplitudes
        mixed += t.probability * np.outer(a, a.conj())
    coherent = run_protocol(ProtocolConfig(mode="coherent"))[0].receiver_reduced_dm
    np.testing.assert_allclose(mixed, coherent.matrix, atol=1e-10)


def test_sampled_mode_transcripts():
    cfg = ProtocolConfig(mode="sampled", shots=8192, seed=0)
    transcripts = run_protocol(cfg)
    assert len(transcripts) == 8
    total = 0
    for t in transcripts:
        assert t.receiver_counts is not None
        bits = (t.bell_outcome[0], t.bell_outcome[1], t.x_outcome)
        assert list(t.corrections_applied) == CORRECTION_TABLE[bits]
        total += t.receiver_counts.total
    assert total == 8192
    merged = aggregate_receiver_counts(transcripts)
    assert merged.total == 8192
    # frozen for this seed; an exact dyadic rational
    assert receiver_p0(transcripts) == 0.8609619140625
    assert merged.p0() == 0.8609619140625


def test_sampled_p0_within_sampling_error():
    cfg = ProtocolConfig(mode="sampled", shots=8192, seed=1)
    p0 = receiver_p0(run_protocol(cfg))
    se = np.sqrt(P0_SECRET * (1 - P0_SECRET) / 8192)
    assert abs(p0 - P0_SECRET) < 3 * se


def test_aggregate_requires_sampled_transcripts():
    with pytest.raises(ValueError, match="sampled"):
        aggregate_receiver_counts(run_protocol(ProtocolConfig(mode="exact")))


def test_pre_correction_state_is_maximally_mixed():
    for receiver in ("charlie", "bob"):
        rho = pre_correction_reduced_dm(ProtocolConfig(receiver=receiver))
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)


def test_custom_secret_round_trips():
    secret = SecretSpec(("H",))
    transcripts = run_protocol(ProtocolConfig(mode="exact"), secret)
    target = StateVector(np.array([1, 1], dtype=complex) / np.sqrt(2))
    for t in transcripts:
        assert abs(t.receiver_state.inner(target)) == pytest.approx(1.0, abs=1e-10)
    (t,) = run_protocol(ProtocolConfig(mode="coherent"), secret)
    np.testing.assert_allclose(t.receiver_reduced_dm.matrix, np.full((2, 2), 0.5), atol=1e-10)


@pytest.mark.parametrize("receiver", RECEIVERS)
@pytest.mark.parametrize("preparation", [("H", "T", "H"), ("H",), (), ("X", "S", "H", "T")])
def test_coherent_op_list(receiver, preparation):
    c = assemble_circuit(ProtocolConfig(receiver=receiver, mode="coherent"), SecretSpec(preparation))
    assert (c.num_qubits, c.num_clbits) == (4, 0)
    assert all(op.kind == "gate" for op in c.ops)
    expected = [(name, (3,)) for name in preparation] + COHERENT_AFTER_PREP[receiver]
    assert [(op.name, op.targets) for op in c.ops] == expected


def test_coherent_state_matches_exact_branches_for_random_secrets():
    """Deferring the measurements keeps the receiver's state: for random
    secrets the coherent reduced state equals the probability-weighted
    exact branch states, and both equal the secret."""
    rng = np.random.default_rng(20181)
    for _ in range(24):
        preparation = tuple(str(g) for g in rng.choice(ONE_QUBIT_GATES, size=int(rng.integers(1, 7))))
        secret = SecretSpec(preparation)
        for receiver in RECEIVERS:
            (t,) = run_protocol(ProtocolConfig(receiver=receiver, mode="coherent"), secret)
            mixed = np.zeros((2, 2), dtype=complex)
            for b in run_protocol(ProtocolConfig(receiver=receiver, mode="exact"), secret):
                a = b.receiver_state.amplitudes
                mixed += b.probability * np.outer(a, a.conj())
            np.testing.assert_allclose(t.receiver_reduced_dm.matrix, mixed, atol=1e-12, err_msg=str(preparation))
            np.testing.assert_allclose(mixed, secret.density().matrix, atol=1e-12, err_msg=str(preparation))
            rho = pre_correction_reduced_dm(ProtocolConfig(receiver=receiver), secret)
            np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12, err_msg=str(preparation))


def test_pre_correction_evolves_the_sampled_ops_before_the_first_measurement(monkeypatch):
    evolved = []
    monkeypatch.setattr(protocol, "_qubit_state", lambda c, q: evolved.append(c) or _qubit_state(c, q))
    for receiver in RECEIVERS:
        pre_correction_reduced_dm(ProtocolConfig(receiver=receiver, mode="coherent"), SecretSpec(("X", "S")))
    prefix = [
        ("X", (3,)), ("S", (3,)),
        ("H", (2,)), ("CNOT", (2, 1)), ("CNOT", (2, 0)), ("CNOT", (3, 2)), ("H", (3,)),
    ]
    assert [[(op.name, op.targets) for op in c.ops] for c in evolved] == [prefix, prefix]
    assert all(op.kind == "gate" for c in evolved for op in c.ops)


def test_receiver_readout_goes_to_the_next_free_clbit():
    for receiver in RECEIVERS:
        coherent = ProtocolConfig(receiver=receiver, mode="coherent")
        assert measurement_variant(assemble_circuit(coherent), coherent.receiver_wire, "Z") == (
            calibration_circuit(receiver),
            0,
        )
        sampled = ProtocolConfig(receiver=receiver)
        c, clbit = measurement_variant(assemble_circuit(sampled), sampled.receiver_wire, "Z")
        assert clbit == 3
        assert c.num_clbits == 4
        assert c.ops[:-1] == assemble_circuit(sampled).ops
        assert c.ops[-1] == CircuitOp(kind="measure", qubit=sampled.receiver_wire, clbit=3)


@pytest.mark.parametrize("receiver", RECEIVERS)
@pytest.mark.parametrize("mode", MODES)
def test_outcomes_are_read_by_clbit_not_by_key_position(monkeypatch, receiver, mode):
    # One more, unused clbit moves the sampled receiver readout to clbit 4
    # of 5 and lengthens every register; each outcome must still be read
    # from the clbit the circuit wrote it to.
    cfg = ProtocolConfig(receiver=receiver, mode=mode, shots=4096, seed=11)
    want = [t.to_json() for t in run_protocol(cfg)]
    assemble = protocol.assemble_circuit

    def with_spare_clbit(cfg, secret=SecretSpec()):
        c = assemble(cfg, secret)
        return Circuit(c.num_qubits, c.num_clbits + 1, c.ops)

    monkeypatch.setattr(protocol, "assemble_circuit", with_spare_clbit)
    assert [t.to_json() for t in run_protocol(cfg)] == want
