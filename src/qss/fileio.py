"""JSON and CSV file handling for the command-line tools.

Readers validate shape before construction and report failures with the
path of the offending JSON node.  Writers go through a temporary file and
an atomic rename, and serialize with sorted keys so identical inputs give
byte-identical files.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager

import numpy as np

from .circuit import _OP_FIELDS, VALID_KINDS, Circuit, CircuitOp
from .routing import CouplingGraph
from .noise import NoiseModel
from .states import DensityMatrix


class SchemaError(ValueError):
    """A file does not match its schema; path points at the bad node."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def read_json(filename: str) -> object:
    """The parsed file; whatever makes it unreadable as JSON is a SchemaError
    at $, worded the same under every Python version."""
    try:
        with open(filename, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IOError(f"cannot read {filename}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError("$", f"invalid JSON in {filename}: not UTF-8 at byte {exc.start}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        fault = str(exc)
    except RecursionError:
        fault = "nested too deeply"
    except ValueError:  # json reads integers with int(), which caps their digits
        fault = "an integer has too many digits"
    raise SchemaError("$", f"invalid JSON in {filename}: {fault}")


def atomic_write_text(filename: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    half-written file."""
    directory = os.path.dirname(os.path.abspath(filename))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qss-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, filename)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(obj: object) -> str:
    """Canonical RFC 8259 JSON; a NaN or infinity raises ValueError."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(filename: str, obj: object) -> None:
    atomic_write_text(filename, dump_json(obj))


def dump_csv(rows: list[tuple], header: tuple[str, ...]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


@contextmanager
def _reported_at(path: str):
    """Report a constructor's ValueError as a SchemaError at path."""
    try:
        yield
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# Each JSON field type _require checks: its test and how an error names it.
_TYPES = {
    "int": (_is_int, "an integer"),
    "number": (_is_number, "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "wires": (lambda v: isinstance(v, list) and all(_is_int(t) for t in v), "a list of integers"),
}
_OP_FIELD_TYPES = {"name": "str", "targets": "wires", "qubit": "int", "clbit": "int"}


def _require(obj: dict, key: str, path: str, kind: str | None = None) -> object:
    """obj[key], which must exist and, given a kind of _TYPES, have that type."""
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing required key")
    v = obj[key]
    if kind is not None:
        test, wording = _TYPES[kind]
        if not test(v):
            raise SchemaError(f"{path}.{key}", f"expected {wording}, got {v!r}")
    return v


def _parse_op(obj: object, path: str) -> CircuitOp:
    """One op object; a wrong type or a missing key is reported at the
    field's path, a bad value (kind, gate name, arity) at the op's.  Keys
    its kind does not use are ignored."""
    kind = _require(obj, "kind", path)
    if kind not in VALID_KINDS:
        raise SchemaError(path, f"unknown op kind {kind!r}")
    fields = {name: _require(obj, name, path, _OP_FIELD_TYPES[name]) for name in _OP_FIELDS[kind]}
    with _reported_at(path):
        return CircuitOp(kind=kind, **fields)


def parse_circuit(obj: object, path: str = "$") -> Circuit:
    qubits = _require(obj, "qubits", path, "int")
    clbits = _require(obj, "clbits", path, "int")
    ops = _require(obj, "ops", path, "list")
    with _reported_at(path):
        circuit = Circuit(qubits, clbits)
    parsed = [_parse_op(op, f"{path}.ops[{i}]") for i, op in enumerate(ops)]
    with _reported_at(f"{path}.ops"):
        return circuit.extend(parsed)


def parse_coupling(obj: object, path: str = "$") -> CouplingGraph:
    qubits = _require(obj, "qubits", path, "int")
    edges = _require(obj, "edges", path, "list")
    with _reported_at(path):  # the graph's own width rule, at the root as for a circuit
        CouplingGraph(qubits, ())
    pairs = []
    for i, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 2 and all(_is_int(x) for x in e)):
            raise SchemaError(f"{path}.edges[{i}]", f"expected a [control, target] pair, got {e!r}")
        pairs.append((e[0], e[1]))
    with _reported_at(f"{path}.edges"):
        return CouplingGraph(qubits, tuple(pairs))


def parse_density_matrix(obj: object, path: str = "$") -> DensityMatrix:
    dim = _require(obj, "dim", path, "int")
    parts = []
    for key in ("re", "im"):
        rows = _require(obj, key, path, "list")
        if not all(isinstance(row, list) and all(_is_number(x) for x in row) for row in rows):
            raise SchemaError(f"{path}.{key}", "expected a list of rows of numbers")
        parts.append(rows)
    if any(len(rows) != dim or any(len(row) != dim for row in rows) for rows in parts):
        raise SchemaError(path, f"re/im shape does not match dim {dim}")
    re, im = (np.array(rows, dtype=float) for rows in parts)
    with _reported_at(path):
        return DensityMatrix(re + 1j * im)


def parse_noise(obj: object, path: str = "$") -> NoiseModel:
    p1, p2, p_read = (_require(obj, key, path, "number") for key in ("p1", "p2", "p_read"))
    with _reported_at(path):
        return NoiseModel(p1, p2, p_read)
