"""Circuit IR: op validation, JSON schema, counts containers."""

import dataclasses
import json
import re

import numpy as np
import pytest

from qss import Circuit, CircuitOp, Counts, RunConfig
from qss.circuit import _OP_FIELDS, VALID_KINDS, _key_clbit, _register_codes, bitstring
from qss.fileio import SchemaError, _parse_op, dump_json, parse_circuit
from qss.gates import GATES

import oracles


def test_op_kinds_and_validation():
    CircuitOp(kind="gate", name="H", targets=(0,))
    CircuitOp(kind="measure", qubit=1, clbit=0)
    CircuitOp(kind="cond", name="X", targets=(2,), clbit=1)
    with pytest.raises(ValueError, match="kind"):
        CircuitOp(kind="reset")
    with pytest.raises(ValueError, match="gate name"):
        CircuitOp(kind="gate")
    with pytest.raises(ValueError, match="expects 2 targets"):
        CircuitOp(kind="gate", name="CNOT", targets=(0,))
    with pytest.raises(ValueError, match="duplicate"):
        CircuitOp(kind="gate", name="CNOT", targets=(1, 1))
    with pytest.raises(ValueError, match="clbit"):
        CircuitOp(kind="cond", name="X", targets=(0,))
    with pytest.raises(ValueError, match="qubit and clbit"):
        CircuitOp(kind="measure", qubit=0)
    with pytest.raises(ValueError, match="unknown gate"):
        CircuitOp(kind="gate", name="NOPE", targets=(0,))


@pytest.mark.parametrize(
    "fields",
    [
        {"kind": "gate", "name": "X", "targets": (0.9,)},
        {"kind": "gate", "name": "X", "targets": (True,)},
        {"kind": "gate", "name": "CNOT", "targets": "01"},
        {"kind": "cond", "name": "X", "targets": (np.bool_(False),), "clbit": 0},
        {"kind": "cond", "name": "X", "targets": (0,), "clbit": 1.0},
        {"kind": "measure", "qubit": 0.5, "clbit": 0},
        {"kind": "measure", "qubit": "1", "clbit": 0},
        {"kind": "measure", "qubit": 1, "clbit": True},
        {"num_qubits": 2.7, "num_clbits": 1},
        {"num_qubits": 2, "num_clbits": 1.2},
        {"num_qubits": True, "num_clbits": 0},
    ],
)
def test_op_rejects_non_integer_wires(fields):
    make = CircuitOp if "kind" in fields else Circuit
    with pytest.raises(TypeError, match="wire must be an integer"):
        make(**fields)


def test_op_stores_numpy_wires_as_plain_ints():
    g = CircuitOp(kind="gate", name="CNOT", targets=(np.int64(1), np.int32(0)))
    m = CircuitOp(kind="measure", qubit=np.uint8(2), clbit=np.int64(1))
    assert g == CircuitOp(kind="gate", name="CNOT", targets=(1, 0))
    assert [type(w) for w in (*g.targets, m.qubit, m.clbit)] == [int] * 4
    with pytest.raises(TypeError, match="wire must be an integer"):
        Circuit(2, 1).measure(0.5, 0)
    c = Circuit(np.int64(2), np.int64(1)).measure(0, 0).cond("X", np.int64(1), 0)
    assert c == Circuit(2, 1).measure(0, 0).cond("X", 1, 0)
    assert [type(v) for v in (c.num_qubits, c.num_clbits, *c.ops[-1].targets)] == [int] * 3


def test_op_json_schema_and_round_trip():
    g = CircuitOp(kind="gate", name="CNOT", targets=(1, 0))
    assert g.to_json() == {"kind": "gate", "name": "CNOT", "targets": [1, 0]}
    m = CircuitOp(kind="measure", qubit=2, clbit=1)
    assert m.to_json() == {"kind": "measure", "qubit": 2, "clbit": 1}
    c = CircuitOp(kind="cond", name="Z", targets=(0,), clbit=2)
    assert c.to_json() == {"kind": "cond", "name": "Z", "targets": [0], "clbit": 2}
    for op in (g, m, c):
        assert _parse_op(op.to_json(), "$") == op
    with pytest.raises(SchemaError, match="kind"):
        _parse_op({"kind": "barrier"}, "$")


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"kind": "gate", "targets": (0,)}, "gate op needs a gate name"),
        ({"kind": "cond", "targets": (0,), "clbit": 0}, "cond op needs a gate name"),
        ({"kind": "cond", "name": "X", "targets": (0,)}, "cond op needs a clbit"),
        ({"kind": "measure", "qubit": 0}, "measure op needs qubit and clbit"),
        ({"kind": "measure", "clbit": 0}, "measure op needs qubit and clbit"),
        ({"kind": "measure"}, "measure op needs qubit and clbit"),
        # The gate's own checks come before a missing clbit.
        ({"kind": "cond", "name": "NOPE", "targets": (0,)}, "unknown gate 'NOPE'"),
        ({"kind": "cond", "name": "CNOT", "targets": (0,)}, "gate CNOT expects 2 targets, got 1"),
    ],
)
def test_op_missing_field_messages(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CircuitOp(**fields)


@pytest.mark.parametrize(
    "fields, own",
    [
        ({"kind": "measure", "qubit": 0, "clbit": 0, "name": "H", "targets": (1,)}, "measure op takes no name"),
        ({"kind": "measure", "qubit": 0, "clbit": 0, "targets": (1,)}, "measure op takes no targets"),
        ({"kind": "gate", "name": "H", "targets": (0,), "qubit": 3}, "gate op takes no qubit"),
        ({"kind": "gate", "name": "H", "targets": (0,), "clbit": 7}, "gate op takes no clbit"),
        ({"kind": "cond", "name": "X", "targets": (0,), "clbit": 0, "qubit": 1}, "cond op takes no qubit"),
    ],
)
def test_op_rejects_fields_of_another_kind(fields, own):
    with pytest.raises(ValueError, match=f"^{own}$"):
        CircuitOp(**fields)
    # The JSON reader reads only the keys of the op's kind, so the same
    # fields in a file give an op without the stray ones, which round-trips.
    read = _parse_op({k: list(v) if k == "targets" else v for k, v in fields.items()}, "$")
    kept = {k: v for k, v in fields.items() if k == "kind" or k in _OP_FIELDS[fields["kind"]]}
    assert read == CircuitOp(**kept)
    assert _parse_op(read.to_json(), "$") == read


def _random_valid_circuit(rng: np.random.Generator) -> Circuit:
    """Gates of every arity, each clbit measured at most once, and conds
    that read only clbits already measured, on 1-6 qubits."""
    n, m = int(rng.integers(1, 7)), int(rng.integers(0, 5))
    pool = [g for g in GATES.values() if g.arity <= n]
    unwritten, written = [int(b) for b in rng.permutation(m)], []
    c = Circuit(n, m)
    for _ in range(int(rng.integers(0, 13))):
        r = rng.random()
        if r < 0.3 and unwritten:
            written.append(unwritten.pop())
            c.measure(int(rng.integers(n)), written[-1])
            continue
        g = pool[int(rng.integers(len(pool)))]
        targets = tuple(int(q) for q in rng.choice(n, g.arity, replace=False))
        if r < 0.6 and written:
            c.cond(g.name, targets, written[int(rng.integers(len(written)))])
        else:
            c.gate(g.name, *targets)
    return c


def test_json_round_trip_of_random_circuits():
    rng = np.random.default_rng(2018)
    kinds = dict.fromkeys(VALID_KINDS, 0)
    for _ in range(300):
        c = _random_valid_circuit(rng)
        for op in c.ops:
            kinds[op.kind] += 1
        back = parse_circuit(json.loads(dump_json(c.to_json())))
        assert back == c
        assert back.to_json() == c.to_json()
    assert min(kinds.values()) >= 200, kinds


def test_circuit_builder_is_chainable():
    c = Circuit(2, 1).gate("H", 0).gate("CNOT", 0, 1).measure(1, 0).cond("X", 0, 0)
    assert [op.kind for op in c.ops] == ["gate", "gate", "measure", "cond"]
    c.validate()


def test_circuit_register_limits():
    with pytest.raises(ValueError, match="num_qubits"):
        Circuit(0)
    with pytest.raises(ValueError, match="num_qubits"):
        Circuit(9)
    with pytest.raises(ValueError, match="num_clbits"):
        Circuit(1, -1)


def test_validate_catches_range_errors():
    with pytest.raises(ValueError, match="qubit 2 out of range"):
        Circuit(2, 1).gate("X", 2)
    with pytest.raises(ValueError, match="clbit 1 out of range"):
        Circuit(2, 1).measure(0, 1)


def test_validate_enforces_single_write_per_clbit():
    with pytest.raises(ValueError, match="written twice"):
        Circuit(2, 1).measure(0, 0).measure(1, 0)


def test_validate_requires_measure_before_cond():
    with pytest.raises(ValueError, match="read before"):
        Circuit(2, 1).cond("X", 0, 0)
    ok = Circuit(2, 1).measure(1, 0).cond("X", 0, 0)
    ok.validate()


def _random_op(rng: np.random.Generator, n: int, m: int) -> CircuitOp:
    """A well-formed op; one wire in ten lies just outside its register."""

    def wire(size: int) -> int:
        return int(rng.integers(size)) if size and rng.random() < 0.9 else (-1, size)[rng.integers(2)]

    kind = str(rng.choice(["gate", "measure", "cond"], p=[0.3, 0.4, 0.3]))
    if kind == "measure":
        return CircuitOp(kind="measure", qubit=wire(n), clbit=wire(m))
    targets = [wire(n)]
    if rng.random() < 0.5:
        name = ("X", "H")[rng.integers(2)]
    else:
        name = ("CNOT", "CZ")[rng.integers(2)]
        while len(targets) < 2:
            targets = list(dict.fromkeys([*targets, wire(n)]))
    targets = tuple(targets)
    if kind == "gate":
        return CircuitOp(kind="gate", name=name, targets=targets)
    return CircuitOp(kind="cond", name=name, targets=targets, clbit=wire(m))


def _add(c: Circuit, op: CircuitOp) -> None:
    """Append one op through the builder method for its kind."""
    if op.kind == "gate":
        c.gate(op.name, *op.targets)
    elif op.kind == "measure":
        c.measure(op.qubit, op.clbit)
    else:
        c.cond(op.name, op.targets, op.clbit)


def test_checked_adds_match_the_whole_circuit_oracle():
    rng = np.random.default_rng(20180612)
    seen = dict.fromkeys(["written twice", "read before", "qubit", "clbit", "valid"], 0)
    for _ in range(500):
        n, m = int(rng.integers(1, 4)), int(rng.integers(0, 3))
        ops = [_random_op(rng, n, m) for _ in range(rng.integers(0, 9))]
        expected = oracles.circuit_error(ops, n, m)
        seen[next((k for k in seen if expected and k in expected), "valid")] += 1

        # All at once, through the constructor.
        if expected is None:
            assert Circuit(n, m, ops).ops == tuple(ops)
        else:
            with pytest.raises(ValueError) as info:
                Circuit(n, m, ops)
            assert str(info.value) == expected

        # One op at a time, through the builders: the first bad op raises
        # and leaves everything before it in place.
        c = Circuit(n, m)
        for i, op in enumerate(ops):
            if expected is not None and expected.startswith(f"op {i} "):
                with pytest.raises(ValueError) as info:
                    _add(c, op)
                assert str(info.value) == expected
                assert c.ops == tuple(ops[:i])
                break
            _add(c, op)
        else:
            assert expected is None and c.ops == tuple(ops)
            c.validate()
    assert min(seen.values()) >= 30, seen


def test_failed_extend_leaves_the_circuit_unchanged():
    c = Circuit(2, 2).measure(0, 0)
    before = c.ops
    bad = [CircuitOp(kind="measure", qubit=1, clbit=1), CircuitOp(kind="cond", name="X", targets=(1,), clbit=0),
           CircuitOp(kind="measure", qubit=0, clbit=1)]
    with pytest.raises(ValueError, match="op 3 \\(measure\\): clbit 1 written twice"):
        c.extend(bad)
    assert c.ops == before
    # The clbit written inside the failed extend is still free.
    assert c.measure(1, 1).ops == (*before, CircuitOp(kind="measure", qubit=1, clbit=1))


def test_ops_are_read_only():
    c = Circuit(1, 0).gate("X", 0)
    assert isinstance(c.ops, tuple)
    with pytest.raises(AttributeError):
        c.ops.append(CircuitOp(kind="gate", name="X", targets=(3,)))
    with pytest.raises(AttributeError):
        c.ops = [CircuitOp(kind="gate", name="X", targets=(3,))]
    copy = Circuit(c.num_qubits, c.num_clbits, c.ops).gate("H", 0)
    assert len(c.ops) == 1 and len(copy.ops) == 2


def test_circuit_json_round_trip():
    c = Circuit(3, 2).gate("H", 2).gate("CNOT", 2, 0).measure(2, 0).cond("Z", 0, 0).measure(0, 1)
    back = parse_circuit(c.to_json())
    assert back == c
    assert back.to_json() == c.to_json()


def test_bitstring_renders_clbit_zero_rightmost():
    assert bitstring(6, 4) == "0110"
    assert bitstring(1, 3) == "001"
    assert bitstring(0, 0) == ""


def test_register_encoding_round_trips_through_keys():
    # Clbit i is bit i of a register value, and _key_clbit reads it back
    # from the key that bitstring renders.
    creg = np.array([[1, 0, 0], [0, 1, 1], [0, 0, 0], [1, 1, 1]], dtype=np.int64)
    codes = _register_codes(creg).tolist()
    assert codes == [1, 6, 0, 7]
    for row, code in zip(creg.tolist(), codes):
        key = bitstring(code, 3)
        assert [int(_key_clbit(key, i)) for i in range(3)] == row
    assert _register_codes(np.zeros((2, 0), dtype=np.int64)).tolist() == [0, 0]
    # A register wider than int64 keeps exact values.
    wide = np.zeros((1, 70), dtype=np.int64)
    wide[0, [0, 69]] = 1
    (code,) = _register_codes(wide).tolist()
    assert code == 2**69 + 1
    key = bitstring(code, 70)
    assert _key_clbit(key, 69) == _key_clbit(key, 0) == "1"
    assert key.count("1") == 2


def test_counts_from_codes_and_total():
    counts = Counts.from_codes(np.array([0, 3, 3, 1]), 2)
    assert counts.counts == {"00": 1, "01": 1, "11": 2}
    assert counts.total == 4


def test_counts_marginal_orientation():
    counts = Counts({"01": 3, "10": 5}, 2)
    m0 = counts.marginal(0)
    assert m0.counts == {"0": 5, "1": 3}
    m1 = counts.marginal(1)
    assert m1.counts == {"0": 3, "1": 5}


def test_counts_p0():
    counts = Counts({"0": 6, "1": 2}, 1)
    assert counts.p0() == pytest.approx(0.75)
    wide = Counts({"00": 1, "01": 3}, 2)
    assert wide.p0(1) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="single-bit"):
        wide.p0()


def test_counts_validation_and_json():
    with pytest.raises(ValueError, match="does not match"):
        Counts({"00": 1}, 1)
    with pytest.raises(ValueError, match="negative"):
        Counts({"0": -1}, 1)
    c = Counts({"10": 2, "01": 1}, 2)
    j = c.to_json()
    assert list(j["counts"]) == ["01", "10"]
    assert j == {"clbits": 2, "counts": {"01": 1, "10": 2}}


def test_run_config_validation():
    cfg = RunConfig()
    assert cfg.shots == 8192 and cfg.seed == 0
    assert [f.name for f in dataclasses.fields(RunConfig)] == ["shots", "seed"]
    with pytest.raises(ValueError, match="shots"):
        RunConfig(shots=0)
    with pytest.raises(ValueError, match="seed"):
        RunConfig(seed=-1)
    with pytest.raises(ValueError, match="seed"):
        RunConfig(seed=2**64)


@pytest.mark.parametrize("value", [1.5, 2.0, True, "3", None])
@pytest.mark.parametrize("name", ["shots", "seed"])
def test_run_config_refuses_non_integer_fields(name, value):
    # a float seed used to run as its floor, and a float or bool shot count
    # to fail deep inside the sampler
    with pytest.raises(TypeError, match=f"{name} must be an integer, got {value!r}"):
        RunConfig(**{name: value})


def test_run_config_stores_numpy_integers_as_plain_ints():
    cfg = RunConfig(shots=np.int32(7), seed=np.uint64(2**64 - 1))
    assert cfg == RunConfig(shots=7, seed=2**64 - 1)
    assert [type(v) for v in (cfg.shots, cfg.seed)] == [int, int]
