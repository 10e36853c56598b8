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
    try:
        with open(filename, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IOError(f"cannot read {filename}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON in {filename}: {exc}") from exc


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
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(filename: str, obj: object) -> None:
    atomic_write_text(filename, dump_json(obj))


def dump_csv(rows: list[tuple], header: tuple[str, ...]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def _require(obj: dict, key: str, path: str) -> object:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing required key")
    return obj[key]


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _require_int(obj: dict, key: str, path: str) -> int:
    v = _require(obj, key, path)
    if not _is_int(v):
        raise SchemaError(f"{path}.{key}", f"expected an integer, got {v!r}")
    return v


def _require_number(obj: dict, key: str, path: str) -> float:
    v = _require(obj, key, path)
    if not _is_number(v):
        raise SchemaError(f"{path}.{key}", f"expected a number, got {v!r}")
    return float(v)


def _require_str(obj: dict, key: str, path: str) -> str:
    v = _require(obj, key, path)
    if not isinstance(v, str):
        raise SchemaError(f"{path}.{key}", f"expected a string, got {v!r}")
    return v


def _require_list(obj: dict, key: str, path: str) -> list:
    v = _require(obj, key, path)
    if not isinstance(v, list):
        raise SchemaError(f"{path}.{key}", f"expected a list, got {type(v).__name__}")
    return v


def _require_wires(obj: dict, key: str, path: str) -> tuple[int, ...]:
    v = _require_list(obj, key, path)
    if not all(_is_int(t) for t in v):
        raise SchemaError(f"{path}.{key}", f"expected a list of integers, got {v!r}")
    return tuple(v)


_OP_FIELD_READERS = {"name": _require_str, "targets": _require_wires, "qubit": _require_int, "clbit": _require_int}


def _parse_op(obj: object, path: str) -> CircuitOp:
    """One op object; a wrong type or a missing key is reported at the
    field's path, a bad value (kind, gate name, arity) at the op's.  Keys
    its kind does not use are ignored."""
    kind = _require(obj, "kind", path)
    if kind not in VALID_KINDS:
        raise SchemaError(path, f"unknown op kind {kind!r}")
    fields = {name: _OP_FIELD_READERS[name](obj, name, path) for name in _OP_FIELDS[kind]}
    try:
        return CircuitOp(kind=kind, **fields)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def parse_circuit(obj: object, path: str = "$") -> Circuit:
    qubits = _require_int(obj, "qubits", path)
    clbits = _require_int(obj, "clbits", path)
    ops = _require_list(obj, "ops", path)
    try:
        circuit = Circuit(qubits, clbits)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc
    parsed = [_parse_op(op, f"{path}.ops[{i}]") for i, op in enumerate(ops)]
    try:
        return circuit.extend(parsed)
    except ValueError as exc:
        raise SchemaError(f"{path}.ops", str(exc)) from exc


def parse_coupling(obj: object, path: str = "$") -> CouplingGraph:
    qubits = _require_int(obj, "qubits", path)
    edges = _require_list(obj, "edges", path)
    pairs = []
    for i, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 2 and all(_is_int(x) for x in e)):
            raise SchemaError(f"{path}.edges[{i}]", f"expected a [control, target] pair, got {e!r}")
        pairs.append((e[0], e[1]))
    try:
        return CouplingGraph(qubits, tuple(pairs))
    except ValueError as exc:
        raise SchemaError(f"{path}.edges", str(exc)) from exc


def parse_density_matrix(obj: object, path: str = "$") -> DensityMatrix:
    dim = _require_int(obj, "dim", path)
    parts = []
    for key in ("re", "im"):
        rows = _require_list(obj, key, path)
        if not all(isinstance(row, list) and all(_is_number(x) for x in row) for row in rows):
            raise SchemaError(f"{path}.{key}", "expected a list of rows of numbers")
        parts.append(rows)
    if any(len(rows) != dim or any(len(row) != dim for row in rows) for rows in parts):
        raise SchemaError(path, f"re/im shape does not match dim {dim}")
    re, im = (np.array(rows, dtype=float) for rows in parts)
    try:
        return DensityMatrix(re + 1j * im)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def parse_noise(obj: object, path: str = "$") -> NoiseModel:
    p1 = _require_number(obj, "p1", path)
    p2 = _require_number(obj, "p2", path)
    p_read = _require_number(obj, "p_read", path)
    try:
        return NoiseModel(p1, p2, p_read)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc
