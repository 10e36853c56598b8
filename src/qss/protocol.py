"""Three-party secret sharing over a GHZ channel, in three execution modes.

Wire layout (qubit 0 is the least significant bit): 0 holds Charlie's GHZ
share, 1 Bob's, 2 the dealer's GHZ qubit, 3 the secret qubit.  The dealer
Bell-rotates the secret against her GHZ share, one partner measures in the
X basis, and the receiver applies X/Z corrections keyed by the announced
bits.  Modes:

- sampled: measurements plus classically conditioned corrections, shot by shot.
- coherent: measurements deferred; corrections become quantum-controlled gates.
- exact: every measurement branch enumerated with its exact probability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .circuit import Circuit, CircuitOp, Counts, RunConfig, _check_seed, _key_clbit
from .gates import gate
from .noise import NoiseModel
from .simulate import Branch, _qubit_state, enumerate_branches, simulate_shots
from .states import DensityMatrix, StateVector, apply_gate
from .tomography import measurement_variant

WIRE_CHARLIE = 0
WIRE_BOB = 1
WIRE_DEALER_GHZ = 2
WIRE_SECRET = 3

CLBIT_BELL_SECRET = 0
CLBIT_BELL_GHZ = 1
CLBIT_X = 2

RECEIVERS = ("charlie", "bob")
MODES = ("sampled", "coherent", "exact")


@dataclass(frozen=True)
class SecretSpec:
    """The secret qubit as a gate recipe applied to |0>."""

    preparation: tuple[str, ...] = ("H", "T", "H")

    def __post_init__(self) -> None:
        object.__setattr__(self, "preparation", tuple(self.preparation))
        for name in self.preparation:
            if gate(name).arity != 1:
                raise ValueError(f"secret preparation must use single-qubit gates, got {name}")

    def state(self) -> StateVector:
        psi = StateVector.zero(1)
        for name in self.preparation:
            psi = apply_gate(psi, name, (0,))
        return psi

    def density(self) -> DensityMatrix:
        return self.state().density()


@dataclass(frozen=True)
class ProtocolConfig:
    receiver: str = "charlie"
    mode: str = "sampled"
    shots: int = 8192
    seed: int = 0
    noise: NoiseModel | None = None

    def __post_init__(self) -> None:
        if self.receiver not in RECEIVERS:
            raise ValueError(f"receiver must be one of {RECEIVERS}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.mode == "sampled" and self.shots < 1:
            raise ValueError("sampled mode needs shots >= 1")
        _check_seed(self.seed)
        if self.noise is not None and self.mode != "sampled":
            raise ValueError("trajectory noise requires sampled mode")

    @property
    def receiver_wire(self) -> int:
        return WIRE_CHARLIE if self.receiver == "charlie" else WIRE_BOB

    @property
    def partner_wire(self) -> int:
        """The non-receiving partner, who measures in the X basis."""
        return WIRE_BOB if self.receiver == "charlie" else WIRE_CHARLIE


@dataclass(frozen=True)
class ProtocolTranscript:
    """One protocol outcome record; fields are mode-dependent.

    Sampled runs carry per-branch receiver counts; exact runs carry the
    branch probability and receiver state; the coherent run carries the
    receiver's reduced density matrix.
    """

    bell_outcome: tuple[int, int] | None
    x_outcome: int | None
    corrections_applied: tuple[str, ...]
    probability: float | None = None
    receiver_state: StateVector | None = field(default=None, repr=False)
    receiver_counts: Counts | None = None
    receiver_reduced_dm: DensityMatrix | None = field(default=None, repr=False)

    def to_json(self) -> dict:
        out: dict = {
            "bell": list(self.bell_outcome) if self.bell_outcome is not None else None,
            "x": self.x_outcome,
            "corrections": list(self.corrections_applied),
        }
        if self.probability is not None:
            out["probability"] = self.probability
        if self.receiver_state is not None:
            a = self.receiver_state.amplitudes
            out["receiver_state"] = {"re": a.real.tolist(), "im": a.imag.tolist()}
        if self.receiver_counts is not None:
            out["receiver_counts"] = dict(sorted(self.receiver_counts.counts.items()))
        if self.receiver_reduced_dm is not None:
            out["reduced_dm"] = self.receiver_reduced_dm.to_json()
        return out


# The receiver's corrections in the order they apply: each Pauli fires when
# its clbit reads 1.  Deferred, it becomes the controlled form of the Pauli.
_CORRECTIONS = (("X", CLBIT_BELL_GHZ), ("Z", CLBIT_BELL_SECRET), ("Z", CLBIT_X))
_CONTROLLED = {"X": "CNOT", "Z": "CZ"}


def correction_for(m_bell_secret: int, m_bell_ghz: int, m_x: int) -> list[str]:
    """Receiver correction chain for one outcome triple: X, then Z, then Z."""
    bits = (m_bell_secret, m_bell_ghz, m_x)  # indexed by clbit
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError("outcome bits must be 0 or 1")
    return [name for name, clbit in _CORRECTIONS if bits[clbit]]


@lru_cache(maxsize=4)
def _protocol_ops(receiver_wire: int, partner_wire: int, coherent: bool) -> tuple[CircuitOp, ...]:
    """Every op after the secret's preparation, built once per receiver and form.

    Sampled form: GHZ sharing from the dealer's share, the dealer's Bell
    rotation of the secret against that share and the measurement of both
    (the all-zeros outcome flags (|00>+|11>)/sqrt(2)), the partner's X-basis
    measurement (0 exactly for |+>), then the receiver's corrections
    conditioned on the announced clbits; the receiver itself is left
    unmeasured.  Coherent form: the same ops with the measurements deferred.
    Every measure is dropped and every cond becomes the controlled gate
    (X -> CNOT, Z -> CZ) from the wire that was measured into its clbit.
    This is the deferred-measurement principle, and it holds here because no
    wire is used after its measurement: a control leaves its wire's Z-basis
    populations alone, so the receiver's reduced state is the same as if the
    wire had been measured.  The ops are frozen and the tuple is shared.
    """
    if not coherent:
        c = Circuit(4, 3)
        c.gate("H", WIRE_DEALER_GHZ).gate("CNOT", WIRE_DEALER_GHZ, WIRE_BOB).gate("CNOT", WIRE_DEALER_GHZ, WIRE_CHARLIE)
        c.gate("CNOT", WIRE_SECRET, WIRE_DEALER_GHZ).gate("H", WIRE_SECRET)
        c.measure(WIRE_SECRET, CLBIT_BELL_SECRET).measure(WIRE_DEALER_GHZ, CLBIT_BELL_GHZ)
        c.gate("H", partner_wire).measure(partner_wire, CLBIT_X)
        for name, clbit in _CORRECTIONS:
            c.cond(name, receiver_wire, clbit)
        return c.ops

    measured_wire: dict[int, int] = {}
    ops = []
    for op in _protocol_ops(receiver_wire, partner_wire, False):
        if op.kind == "measure":
            measured_wire[op.clbit] = op.qubit
        elif op.kind == "cond":
            control = measured_wire[op.clbit]
            ops.append(CircuitOp(kind="gate", name=_CONTROLLED[op.name], targets=(control, *op.targets)))
        else:
            ops.append(op)
    return tuple(ops)


def assemble_circuit(cfg: ProtocolConfig, secret: SecretSpec = SecretSpec()) -> Circuit:
    """Build the protocol circuit for the configured mode and receiver: the
    secret's preparation on its wire, then the shared ops of
    `_protocol_ops`, sampled (and exact) mode with 3 clbits, coherent mode
    with none.  Every call returns a new circuit."""
    coherent = cfg.mode == "coherent"
    prep = (CircuitOp(kind="gate", name=name, targets=(WIRE_SECRET,)) for name in secret.preparation)
    return Circuit(4, 0 if coherent else 3, (*prep, *_protocol_ops(cfg.receiver_wire, cfg.partner_wire, coherent)))


# The announced bits, in the order a transcript names them.
_ANNOUNCED = (CLBIT_BELL_SECRET, CLBIT_BELL_GHZ, CLBIT_X)


def _transcript(announced: tuple[int, int, int], **fields) -> ProtocolTranscript:
    """The transcript of one announced outcome (m_s, m_g, m_x), with the
    corrections it selects and the mode's own fields."""
    m_s, m_g, m_x = announced
    corrections = tuple(correction_for(m_s, m_g, m_x))
    return ProtocolTranscript(bell_outcome=(m_s, m_g), x_outcome=m_x, corrections_applied=corrections, **fields)


def _receiver_state(measured: list[tuple[int, int]], branch: Branch, receiver_wire: int) -> StateVector:
    """The receiver's state in one exact branch.  Every other wire was
    measured, so the branch state lives on the two basis states that agree
    with the branch's recorded bits on the circuit's measured (clbit, qubit)
    pairs."""
    base = 0
    for clbit, qubit in measured:
        base |= branch.clbits[clbit] << qubit
    return StateVector(np.array([branch.state[base], branch.state[base | (1 << receiver_wire)]], dtype=complex))


def run_protocol(cfg: ProtocolConfig, secret: SecretSpec = SecretSpec()) -> list[ProtocolTranscript]:
    """Execute the protocol and return one transcript per outcome.

    Sampled mode groups shots by the three announced bits and reports the
    receiver's Z counts for each group.  Exact mode enumerates all eight
    branches with exact probabilities and receiver states.  Coherent mode
    returns a single transcript holding the receiver's reduced density
    matrix.  Every outcome is read from the clbits of the circuit that ran.
    """
    if cfg.mode == "coherent":
        rho = _qubit_state(assemble_circuit(cfg, secret), cfg.receiver_wire)
        return [ProtocolTranscript(bell_outcome=None, x_outcome=None, corrections_applied=(), receiver_reduced_dm=rho)]

    if cfg.mode == "exact":
        circuit = assemble_circuit(cfg, secret)
        measured = [(op.clbit, op.qubit) for op in circuit.ops if op.kind == "measure"]

        def announced(b: Branch) -> tuple[int, ...]:
            return tuple(b.clbits[c] for c in _ANNOUNCED)

        return [
            _transcript(
                announced(b), probability=b.probability, receiver_state=_receiver_state(measured, b, cfg.receiver_wire)
            )
            for b in sorted(enumerate_branches(circuit), key=announced)
        ]

    circuit, receiver_clbit = measurement_variant(assemble_circuit(cfg, secret), cfg.receiver_wire, "Z")
    counts = simulate_shots(circuit, RunConfig(shots=cfg.shots, seed=cfg.seed), noise=cfg.noise)
    grouped: dict[tuple[int, int, int], dict[str, int]] = {}
    for key, n in counts.counts.items():
        tally = grouped.setdefault(tuple(int(_key_clbit(key, c)) for c in _ANNOUNCED), {})
        rec = _key_clbit(key, receiver_clbit)
        tally[rec] = tally.get(rec, 0) + n
    return [_transcript(announced, receiver_counts=Counts(tally, 1)) for announced, tally in sorted(grouped.items())]


def aggregate_receiver_counts(transcripts: list[ProtocolTranscript]) -> Counts:
    """Merge per-branch receiver counts from a sampled run."""
    total = {"0": 0, "1": 0}
    seen = False
    for t in transcripts:
        if t.receiver_counts is None:
            continue
        seen = True
        for key, n in t.receiver_counts.counts.items():
            total[key] += n
    if not seen:
        raise ValueError("no sampled receiver counts in these transcripts")
    return Counts({k: v for k, v in total.items() if v}, 1)


def receiver_p0(transcripts: list[ProtocolTranscript]) -> float:
    """Receiver P(0) from a run, whichever mode produced it."""
    one = transcripts[0]
    if one.receiver_reduced_dm is not None:
        return float(one.receiver_reduced_dm.matrix[0, 0].real)
    if one.probability is not None:
        total = 0.0
        for t in transcripts:
            p0 = float(np.abs(t.receiver_state.amplitudes[0]) ** 2)
            total += t.probability * p0
        return total
    return aggregate_receiver_counts(transcripts).p0()


def pre_correction_reduced_dm(cfg: ProtocolConfig, secret: SecretSpec = SecretSpec()) -> DensityMatrix:
    """Receiver's reduced state after sharing and Bell rotation, before any
    correction; I/2 here is what keeps either partner alone in the dark.

    Evolves the ops of the sampled circuit that come before its first
    measurement."""
    ops = assemble_circuit(ProtocolConfig(receiver=cfg.receiver), secret).ops
    first = next(i for i, op in enumerate(ops) if op.kind == "measure")
    return _qubit_state(Circuit(4, 0, ops[:first]), cfg.receiver_wire)
