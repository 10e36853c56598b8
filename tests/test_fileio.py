"""JSON/CSV input parsing, schema errors, atomic writes."""

import json
import os
import warnings

import numpy as np
import pytest

from qss import (
    Circuit,
    CouplingGraph,
    DensityMatrix,
    NoiseModel,
    ProtocolConfig,
    SecretSpec,
    TomographyJob,
    assemble_circuit,
    datasets,
    route,
    run_protocol,
    run_tomography,
)
from qss.fileio import (
    SchemaError,
    atomic_write_text,
    dump_csv,
    dump_json,
    parse_circuit,
    parse_coupling,
    parse_density_matrix,
    parse_noise,
    read_json,
    write_json,
)
from qss.cli import main
from qss.noise import FitResult


def test_schema_error_carries_path():
    err = SchemaError("$.ops[3]", "bad gate")
    assert err.path == "$.ops[3]"
    assert str(err) == "$.ops[3]: bad gate"
    assert isinstance(err, ValueError)


def test_read_json_missing_file_raises_ioerror(tmp_path):
    with pytest.raises(IOError, match="cannot read"):
        read_json(str(tmp_path / "nope.json"))


def test_read_json_malformed_raises_schema_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError, match="invalid JSON") as info:
        read_json(str(bad))
    assert info.value.path == "$"


def test_atomic_write_creates_overwrites_and_leaves_no_residue(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(str(target), "first\n")
    assert target.read_text(encoding="utf-8") == "first\n"
    atomic_write_text(str(target), "second\n")
    assert target.read_text(encoding="utf-8") == "second\n"
    leftovers = [name for name in os.listdir(tmp_path) if name != "out.txt"]
    assert leftovers == []


def test_json_round_trip_via_files(tmp_path):
    target = tmp_path / "payload.json"
    payload = {"b": [1, 2], "a": {"x": 0.5}}
    write_json(str(target), payload)
    assert read_json(str(target)) == payload


def test_dump_json_is_canonical():
    text = dump_json({"b": 1, "a": 2})
    assert text == '{\n  "a": 2,\n  "b": 1\n}\n'


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "minus-inf"])
def test_json_writers_refuse_non_finite_numbers(bad, tmp_path):
    # NaN and Infinity are not RFC 8259 JSON, so no writer emits them
    with pytest.raises(ValueError, match="not JSON compliant"):
        dump_json({"x": [bad]})
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(str(tmp_path / "out.json"), {"x": bad})
    assert list(tmp_path.iterdir()) == []


def test_dump_csv_shape():
    text = dump_csv([("x", 0.5, 1), ("y", 0.25, 2)], header=("label", "p", "n"))
    assert text == "label,p,n\nx,0.5,1\ny,0.25,2\n"


def test_parse_circuit_round_trip():
    c = Circuit(2, 2)
    c.gate("H", 0).gate("CNOT", 0, 1).measure(0, 0).cond("X", 1, 0).measure(1, 1)
    parsed = parse_circuit(c.to_json())
    assert parsed.to_json() == c.to_json()


def test_parse_circuit_error_paths():
    with pytest.raises(SchemaError) as info:
        parse_circuit({"clbits": 1, "ops": []})
    assert info.value.path == "$.qubits"
    with pytest.raises(SchemaError) as info:
        parse_circuit({"qubits": 1, "clbits": 1, "ops": {}})
    assert info.value.path == "$.ops"
    with pytest.raises(SchemaError) as info:
        parse_circuit({"qubits": 1, "clbits": 1, "ops": ["X"]})
    assert info.value.path == "$.ops[0]"
    with pytest.raises(SchemaError) as info:
        parse_circuit(
            {
                "qubits": 1,
                "clbits": 1,
                "ops": [{"kind": "gate", "name": "WALSH", "targets": [0]}],
            }
        )
    assert info.value.path == "$.ops[0]"
    for op in ({"kind": "barrier"}, {"kind": "gate", "name": "CNOT", "targets": [0]}):
        with pytest.raises(SchemaError) as info:
            parse_circuit({"qubits": 2, "clbits": 0, "ops": [op]})
        assert info.value.path == "$.ops[0]"
    # structurally valid ops that fail whole-circuit validation
    with pytest.raises(SchemaError) as info:
        parse_circuit(
            {
                "qubits": 1,
                "clbits": 1,
                "ops": [{"kind": "gate", "name": "X", "targets": [3]}],
            }
        )
    assert info.value.path == "$.ops"
    with pytest.raises(SchemaError) as info:
        parse_circuit({"qubits": "two", "clbits": 1, "ops": []})
    assert info.value.path == "$.qubits"


def _one_op(op: dict) -> dict:
    return {"qubits": 3, "clbits": 2, "ops": [{"kind": "measure", "qubit": 2, "clbit": 1}, op]}


@pytest.mark.parametrize(
    "op, path",
    [
        ({"kind": "measure", "qubit": 1.7, "clbit": 0}, "$.ops[1].qubit"),
        ({"kind": "measure", "qubit": "1", "clbit": 0}, "$.ops[1].qubit"),
        ({"kind": "measure", "qubit": 1, "clbit": True}, "$.ops[1].clbit"),
        ({"kind": "measure", "qubit": True, "clbit": 0}, "$.ops[1].qubit"),
        ({"kind": "gate", "name": "X", "targets": [0.9]}, "$.ops[1].targets"),
        ({"kind": "gate", "name": "X", "targets": [True]}, "$.ops[1].targets"),
        ({"kind": "gate", "name": "CNOT", "targets": "01"}, "$.ops[1].targets"),
        ({"kind": "gate", "name": 5, "targets": [0]}, "$.ops[1].name"),
        ({"kind": "gate", "name": ["X"], "targets": [0]}, "$.ops[1].name"),
        ({"kind": "cond", "name": "X", "targets": [0], "clbit": 1.0}, "$.ops[1].clbit"),
        ({"kind": "cond", "name": "X", "targets": [False], "clbit": 1}, "$.ops[1].targets"),
    ],
)
def test_parse_circuit_rejects_non_integer_wires(op, path):
    with pytest.raises(SchemaError, match="expected") as info:
        parse_circuit(_one_op(op))
    assert info.value.path == path


@pytest.mark.parametrize(
    "parse, obj, path, message",
    [
        (parse_circuit, {"qubits": 2.0, "clbits": 0, "ops": []}, "$.qubits", "expected an integer, got 2.0"),
        (parse_noise, {"p1": "0.1", "p2": 0, "p_read": 0}, "$.p1", "expected a number, got '0.1'"),
        (parse_circuit, _one_op({"kind": "gate", "name": None, "targets": [0]}), "$.ops[1].name",
         "expected a string, got None"),
        (parse_coupling, {"qubits": 2, "edges": {}}, "$.edges", "expected a list, got {}"),
        (parse_circuit, _one_op({"kind": "gate", "name": "X", "targets": "0"}), "$.ops[1].targets",
         "expected a list of integers, got '0'"),
    ],
    ids=["integer", "number", "string", "list", "list of integers"],
)
def test_each_field_type_names_its_path_and_expected_type(parse, obj, path, message):
    with pytest.raises(SchemaError) as info:
        parse(obj)
    assert (info.value.path, str(info.value)) == (path, f"{path}: {message}")


@pytest.mark.parametrize(
    "op, path",
    [
        ({"name": "X", "targets": [0]}, "$.ops[1].kind"),
        ({"kind": "gate", "name": "X"}, "$.ops[1].targets"),
        ({"kind": "gate", "targets": [0]}, "$.ops[1].name"),
        ({"kind": "measure", "clbit": 0}, "$.ops[1].qubit"),
        ({"kind": "measure", "qubit": 0}, "$.ops[1].clbit"),
        ({"kind": "cond", "name": "X", "targets": [0]}, "$.ops[1].clbit"),
    ],
)
def test_parse_circuit_missing_op_key(op, path):
    with pytest.raises(SchemaError, match="missing required key") as info:
        parse_circuit(_one_op(op))
    assert info.value.path == path


def test_parse_coupling_round_trip_and_errors(ibmqx4):
    parsed = parse_coupling(ibmqx4.to_json())
    assert parsed.to_json() == ibmqx4.to_json()
    with pytest.raises(SchemaError) as info:
        parse_coupling({"qubits": 2, "edges": [[0, 1], [1]]})
    assert info.value.path == "$.edges[1]"
    with pytest.raises(SchemaError) as info:
        parse_coupling({"qubits": 2, "edges": [[0, 5]]})
    assert info.value.path == "$.edges"
    with pytest.raises(SchemaError) as info:
        parse_coupling({"edges": []})
    assert info.value.path == "$.qubits"
    # a width outside [1, 8] is reported at the root, as a circuit's is
    for qubits in (0, 9):
        with pytest.raises(SchemaError, match=r"^\$: num_physical must be in \[1, 8\]$") as info:
            parse_coupling({"qubits": qubits, "edges": []})
        assert info.value.path == "$"
    for edge in ([True, False], [0, 1.0], ["0", 1]):
        with pytest.raises(SchemaError) as info:
            parse_coupling({"qubits": 2, "edges": [[1, 0], edge]})
        assert info.value.path == "$.edges[1]"


def test_parse_density_matrix(tmp_path):
    rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
    parsed = parse_density_matrix(rho.to_json())
    np.testing.assert_allclose(parsed.matrix, rho.matrix, atol=1e-15)
    with pytest.raises(SchemaError) as info:
        parse_density_matrix({"dim": 2, "re": [[1, 0], [0, 0]]})
    assert info.value.path == "$.im"
    with pytest.raises(SchemaError) as info:
        parse_density_matrix({"dim": 2, "re": [[1, 0]], "im": [[0, 0]]})
    assert info.value.path == "$"


@pytest.mark.parametrize(
    "re, im, path",
    [
        ([["1", 0], [0, 0]], [[0, 0], [0, 0]], "$.re"),
        ([[True, 0], [0, False]], [[0, 0], [0, 0]], "$.re"),
        ([[1, 0], [0, 0]], [[0, "0"], [0, 0]], "$.im"),
        ([[1, 0], [0, 0]], [[0, 0], [False, 0]], "$.im"),
        ([[1, 0], 0], [[0, 0], [0, 0]], "$.re"),
        ([[1, 0], [0, 0]], [[0, 0], [0]], "$"),
    ],
)
def test_parse_density_matrix_rejects_non_numbers(re, im, path):
    with pytest.raises(SchemaError) as info:
        parse_density_matrix({"dim": 2, "re": re, "im": im})
    assert info.value.path == path


def test_parse_reads_every_to_json_writer(ibmqx4):
    """Each JSON writer's output reads back through the matching parser."""
    coherent = assemble_circuit(ProtocolConfig(mode="coherent"))
    for circuit in (coherent, assemble_circuit(ProtocolConfig(mode="sampled", receiver="bob"))):
        assert parse_circuit(circuit.to_json()) == circuit
    report = route(coherent, ibmqx4)
    assert parse_circuit(report.to_json()["circuit"]) == report.circuit
    assert parse_coupling(ibmqx4.to_json()) == ibmqx4
    assert parse_coupling(CouplingGraph(1, ()).to_json()) == CouplingGraph(1, ())
    for model in (NoiseModel.zero(), NoiseModel(0.01, 0.03, 0.02), NoiseModel.depolarizing(1.0, 1.0)):
        assert parse_noise(model.to_json()) == model
    (transcript,) = run_protocol(ProtocolConfig(mode="coherent"))
    tomo = run_tomography(TomographyJob(base_circuit=coherent, target_qubit=0, shots_per_basis=256, seed=4))
    written = [(transcript.to_json()["reduced_dm"], transcript.receiver_reduced_dm)]
    written += [(tomo.to_json()[key], getattr(tomo, key)) for key in ("rho_raw", "rho_projected")]
    for payload, rho in written:
        assert np.array_equal(parse_density_matrix(payload).matrix, rho.matrix)
    fit = FitResult(fitted_p=0.0125, target=0.8, achieved=0.801, p_read=0.02, iterations=3, converged=True)
    assert parse_noise(fit.to_json()) == fit.model()


def test_bundled_data_goes_through_the_schema_checks(monkeypatch):
    monkeypatch.setattr(datasets, "_load", lambda name: {"qubits": 5, "edges": [[True, False]]})
    with pytest.raises(SchemaError) as info:
        datasets.load_ibmqx4_coupling()
    assert info.value.path == "$.edges[0]"
    monkeypatch.setattr(datasets, "_load", lambda name: {"p1": "0.01", "p2": 0.01, "p_read": 0.02})
    with pytest.raises(SchemaError) as info:
        datasets.shipped_noise_model()
    assert info.value.path == "$.p1"


def test_parse_noise():
    model = parse_noise({"p1": 0.01, "p2": 0.02, "p_read": 0.0})
    assert model == NoiseModel(0.01, 0.02, 0.0)
    with pytest.raises(SchemaError) as info:
        parse_noise({"p1": 0.01, "p_read": 0.0})
    assert info.value.path == "$.p2"
    with pytest.raises(SchemaError) as info:
        parse_noise({"p1": 0.01, "p2": "lots", "p_read": 0.0})
    assert info.value.path == "$.p2"
    with pytest.raises(SchemaError) as info:
        parse_noise({"p1": 0.01, "p2": 3.0, "p_read": 0.0})
    assert info.value.path == "$"


def test_parse_functions_accept_nested_paths():
    with pytest.raises(SchemaError) as info:
        parse_noise({"p1": 0.01}, path="$.noise")
    assert info.value.path == "$.noise.p2"


# Seeded mutations of valid documents: one node below the root is swapped
# for a value of the wrong type or out of range for every field of these
# schemas, or one object key is deleted (every key here is required).
_SWAPS = (1e308, float("nan"), True, False, [None], {})
_VALID_DOCS = {
    "circuit": (parse_circuit, assemble_circuit(ProtocolConfig(), SecretSpec(("H", "S"))).to_json()),
    "coupling": (parse_coupling, datasets.load_ibmqx4_coupling().to_json()),
    "noise": (parse_noise, NoiseModel(0.01, 0.03, 0.02).to_json()),
    "density": (parse_density_matrix, DensityMatrix(np.array([[0.7, 0.1 - 0.2j], [0.1 + 0.2j, 0.3]])).to_json()),
}
# A CLI command line that reads the mutated file at {}.
_CLI_READERS = {
    "circuit": ("transpile", "{}"),
    "coupling": ("transpile", "valid-circuit.json", "--coupling", "{}"),
    "noise": ("run", "--noise", "{}"),
    "density": ("fidelity", "{}", "valid-density.json"),
}


def _mutate(doc: object, rng: np.random.Generator) -> object:
    doc = json.loads(json.dumps(doc))
    slots, stack = [], [doc]
    while stack:
        node = stack.pop()
        children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, child in children:
            slots.append((node, key))
            stack.append(child)
    node, key = slots[rng.integers(len(slots))]
    if isinstance(node, dict) and rng.random() < 0.25:
        del node[key]
    else:
        node[key] = _SWAPS[rng.integers(len(_SWAPS))]
    return doc


@pytest.mark.parametrize("schema", sorted(_VALID_DOCS))
def test_mutated_documents_raise_schema_error(schema, tmp_path, monkeypatch, capsys):
    parse, doc = _VALID_DOCS[schema]
    parse(doc)
    rng = np.random.default_rng(sorted(_VALID_DOCS).index(schema))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(500):
            with pytest.raises(SchemaError):
                parse(_mutate(doc, rng))
        monkeypatch.chdir(tmp_path)
        for name in ("circuit", "density"):
            write_json(f"valid-{name}.json", _VALID_DOCS[name][1])
        for i in range(5):
            with open(f"mutated-{i}.json", "w", encoding="utf-8") as fh:
                json.dump(_mutate(doc, rng), fh)
            argv = [arg.format(f"mutated-{i}.json") for arg in _CLI_READERS[schema]]
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
