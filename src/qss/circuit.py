"""Circuit intermediate representation: gates, measurements, classically
conditioned gates, plus shot-count containers and run configuration.

Ops are kept in program order.  A conditioned gate fires when its classical
bit reads 1, which is how measurement feedforward is expressed.  This module
alone knows how clbits sit in a register: clbit i is bit i of a register
value (_register_codes), and bitstring keys render clbit 0 rightmost
(bitstring, _key_clbit).
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .gates import gate
from .states import MAX_QUBITS

# The fields each op kind carries, in JSON order; every other field of a
# CircuitOp stays unset.
_OP_FIELDS = {"gate": ("name", "targets"), "measure": ("qubit", "clbit"), "cond": ("name", "targets", "clbit")}
VALID_KINDS = tuple(_OP_FIELDS)


def _wire(v: object) -> int:
    """A qubit or clbit index as a plain int.  Python and numpy integers
    pass; bools, floats and strings raise TypeError."""
    try:
        if not isinstance(v, bool):
            return operator.index(v)
    except TypeError:
        pass
    raise TypeError(f"expected an integer wire, got {v!r}")


@dataclass(frozen=True)
class CircuitOp:
    """One instruction: kind is gate, measure or cond, with the fields _OP_FIELDS gives it."""

    kind: str
    name: str | None = None
    targets: tuple[int, ...] = ()
    qubit: int | None = None
    clbit: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown op kind {self.kind!r}")
        object.__setattr__(self, "targets", tuple(_wire(t) for t in self.targets))
        for name in ("qubit", "clbit"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _wire(getattr(self, name)))
        for name in ("name", "targets", "qubit", "clbit"):
            if name not in _OP_FIELDS[self.kind] and getattr(self, name) not in (None, ()):
                raise ValueError(f"{self.kind} op takes no {name}")
        if self.kind in ("gate", "cond"):
            if self.name is None:
                raise ValueError(f"{self.kind} op needs a gate name")
            g = gate(self.name)
            if len(self.targets) != g.arity:
                raise ValueError(f"gate {self.name} expects {g.arity} targets, got {len(self.targets)}")
            if len(set(self.targets)) != len(self.targets):
                raise ValueError(f"duplicate targets in {self.targets}")
            if self.kind == "cond" and self.clbit is None:
                raise ValueError("cond op needs a clbit")
        if self.kind == "measure" and (self.qubit is None or self.clbit is None):
            raise ValueError("measure op needs qubit and clbit")

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        for name in _OP_FIELDS[self.kind]:
            value = getattr(self, name)
            out[name] = list(value) if name == "targets" else value
        return out


class Circuit:
    """Ordered op list over a fixed qubit and clbit register.

    Each op is checked as it is added (wire ranges, one measurement per
    clbit, a measurement before any cond that reads it), so a Circuit is
    valid for its whole life.  `ops` is a read-only tuple; the builders
    append in place and return the circuit.
    """

    def __init__(self, num_qubits: int, num_clbits: int = 0, ops: Iterable[CircuitOp] | None = None):
        num_qubits, num_clbits = _wire(num_qubits), _wire(num_clbits)
        if not 1 <= num_qubits <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}]")
        if num_clbits < 0:
            raise ValueError("num_clbits must be >= 0")
        self.num_qubits = num_qubits
        self.num_clbits = num_clbits
        self._ops: tuple[CircuitOp, ...] = ()
        self._written: frozenset[int] = frozenset()
        self.extend(ops or ())

    @property
    def ops(self) -> tuple[CircuitOp, ...]:
        return self._ops

    def gate(self, name: str, *targets: int) -> "Circuit":
        return self.extend((CircuitOp(kind="gate", name=name, targets=tuple(targets)),))

    def measure(self, qubit: int, clbit: int) -> "Circuit":
        return self.extend((CircuitOp(kind="measure", qubit=qubit, clbit=clbit),))

    def cond(self, name: str, targets: int | tuple[int, ...], clbit: int) -> "Circuit":
        if not isinstance(targets, (tuple, list)):
            targets = (targets,)
        return self.extend((CircuitOp(kind="cond", name=name, targets=tuple(targets), clbit=clbit),))

    def extend(self, ops: Iterable[CircuitOp]) -> "Circuit":
        """Append ops in order; when one breaks a rule, none is added."""
        ops = tuple(ops)
        written = self._written
        for i, op in enumerate(ops, len(self._ops)):
            error = self._broken_rule(op, written)
            if error:
                raise ValueError(f"op {i} ({op.kind}): {error}")
            if op.kind == "measure":
                written |= {op.clbit}
        self._ops += ops
        self._written = written
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and self.num_clbits == other.num_clbits
            and self.ops == other.ops
        )

    def __repr__(self) -> str:
        return f"Circuit(qubits={self.num_qubits}, clbits={self.num_clbits}, ops={len(self.ops)})"

    def validate(self) -> None:
        """Re-run the checks that every op passed when it was added."""
        Circuit(self.num_qubits, self.num_clbits, self._ops)

    def _broken_rule(self, op: CircuitOp, written: frozenset[int]) -> str | None:
        """Why op cannot follow measurements into the clbits `written`, or
        None when it can."""
        for q in op.targets:
            if not 0 <= q < self.num_qubits:
                return f"qubit {q} out of range"
        if op.kind == "measure":
            if not 0 <= op.qubit < self.num_qubits:
                return f"qubit {op.qubit} out of range"
            if not 0 <= op.clbit < self.num_clbits:
                return f"clbit {op.clbit} out of range"
            if op.clbit in written:
                return f"clbit {op.clbit} written twice"
        elif op.kind == "cond":
            if not 0 <= op.clbit < self.num_clbits:
                return f"clbit {op.clbit} out of range"
            if op.clbit not in written:
                return f"clbit {op.clbit} read before being measured"
        return None

    def to_json(self) -> dict:
        return {
            "qubits": self.num_qubits,
            "clbits": self.num_clbits,
            "ops": [op.to_json() for op in self.ops],
        }


def _register_codes(creg: np.ndarray) -> np.ndarray:
    """Register values of clbit rows, shape (..., m) -> (...): clbit i is bit
    i.  Registers too wide for int64 get Python-int values."""
    m = creg.shape[-1]
    return creg @ (1 << np.arange(m, dtype=np.int64 if m < 63 else object))


def _tally(codes: np.ndarray, weights: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values among `codes`, ascending, and the sum of the
    weights of each, added in order; no array spans every register value."""
    distinct, where = np.unique(codes, return_inverse=True)
    tally = np.zeros(distinct.size, dtype=np.result_type(weights))
    np.add.at(tally, where, weights)
    return distinct, tally


def bitstring(code: int, num_clbits: int) -> str:
    """Render a classical register value with clbit 0 rightmost."""
    if num_clbits == 0:
        return ""
    return format(code, f"0{num_clbits}b")


def _key_clbit(key: str, clbit: int) -> str:
    """Clbit `clbit`'s character, "0" or "1", of a bitstring key."""
    return key[len(key) - 1 - clbit]


@dataclass(frozen=True)
class Counts:
    """Shot tally keyed by classical bitstring."""

    counts: dict[str, int]
    num_clbits: int

    def __post_init__(self) -> None:
        for key, n in self.counts.items():
            if len(key) != self.num_clbits or key.strip("01"):
                raise ValueError(f"key {key!r} does not match {self.num_clbits} clbits")
            if n < 0:
                raise ValueError(f"negative count for {key!r}")

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def marginal(self, clbit: int) -> "Counts":
        """Counts for a single clbit, keys '0' and '1'."""
        if not 0 <= clbit < self.num_clbits:
            raise ValueError(f"clbit {clbit} out of range")
        out = {"0": 0, "1": 0}
        for key, n in self.counts.items():
            out[_key_clbit(key, clbit)] += n
        return Counts({k: v for k, v in out.items() if v}, 1)

    def p0(self, clbit: int | None = None) -> float:
        """Empirical P(bit = 0); for single-bit counts clbit may be omitted."""
        c = self if clbit is None else self.marginal(clbit)
        if c.num_clbits != 1:
            raise ValueError("p0 without clbit needs single-bit counts")
        total = c.total
        if total == 0:
            raise ValueError("no shots recorded")
        return c.counts.get("0", 0) / total

    def to_json(self) -> dict:
        return {"clbits": self.num_clbits, "counts": {k: self.counts[k] for k in sorted(self.counts)}}

    @classmethod
    def from_codes(cls, codes: np.ndarray, num_clbits: int) -> "Counts":
        """Tally integer register values into bitstring counts."""
        return cls._from_tally(*_tally(np.asarray(codes), 1), num_clbits)

    @classmethod
    def _from_tally(cls, codes: np.ndarray, tally: np.ndarray, num_clbits: int) -> "Counts":
        """Bitstring counts of distinct ascending register values; zeros are left out."""
        return cls({bitstring(c, num_clbits): n for c, n in zip(codes.tolist(), tally.tolist()) if n}, num_clbits)


def _check_seed(seed: int) -> None:
    """Reject a seed outside the range of a Philox key."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class RunConfig:
    """Shot-execution settings shared by the simulator entry points."""

    shots: int = 8192
    seed: int = 0

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        _check_seed(self.seed)
