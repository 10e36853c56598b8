"""Directed-coupling routing: graph queries, rewrites, and the checker."""

import numpy as np
import pytest

from qss import (
    Circuit,
    CouplingGraph,
    QubitMapping,
    check_routing,
    decompose_swap,
    route,
)
from qss.fileio import parse_circuit, parse_coupling
from qss.routing import _reversed_cnot

import oracles
from test_states import random_op_sequence


def line_graph():
    # 0 -> 1 -> 2, forward edges only
    return CouplingGraph(3, ((0, 1), (1, 2)))


def test_graph_validation():
    with pytest.raises(ValueError, match="bad edge"):
        CouplingGraph(2, ((0, 2),))
    with pytest.raises(ValueError, match="bad edge"):
        CouplingGraph(2, ((1, 1),))
    with pytest.raises(ValueError, match="duplicate"):
        CouplingGraph(2, ((0, 1), (0, 1)))


def test_graph_queries(ibmqx4):
    assert ibmqx4.num_physical == 5
    assert ibmqx4.allows(1, 0)
    assert not ibmqx4.allows(0, 1)
    assert ibmqx4.has_link(0, 1) and ibmqx4.has_link(1, 0)
    assert not ibmqx4.has_link(0, 3)
    assert ibmqx4.neighbors(2) == [0, 1, 3, 4]


def test_shortest_paths_sorted_and_complete():
    square = CouplingGraph(4, ((0, 1), (0, 2), (1, 3), (2, 3)))
    assert square.shortest_paths(0, 3) == [[0, 1, 3], [0, 2, 3]]
    assert square.shortest_paths(1, 1) == [[1]]
    split = CouplingGraph(4, ((0, 1), (2, 3)))
    with pytest.raises(ValueError, match="not connected"):
        split.shortest_paths(0, 3)


def test_graph_json_round_trip(ibmqx4):
    back = parse_coupling(ibmqx4.to_json())
    assert back.edges == ibmqx4.edges
    assert back.num_physical == ibmqx4.num_physical


def test_mapping_validation_and_swap():
    with pytest.raises(ValueError, match="injective"):
        QubitMapping({0: 1, 1: 1}, 3)
    with pytest.raises(ValueError, match="out of range"):
        QubitMapping({0: 5}, 3)
    m = QubitMapping.identity(2, 4)
    m.swap_physical(0, 3)
    assert m.physical(0) == 3 and m.physical(1) == 1
    assert m.to_json() == {"0": 3, "1": 1}


@pytest.mark.parametrize(
    "cls, args",
    [
        (CouplingGraph, (3, ((0.9, 1.7), (True, 2)))),
        (CouplingGraph, (3, ((0, 1), (1, 2.0)))),
        (CouplingGraph, (2.5, ((0, 1),))),
        (CouplingGraph, (True, ())),
        (QubitMapping, ({True: 2, 1: 0}, 3)),
        (QubitMapping, ({0: 1.0}, 3)),
        (QubitMapping, ({0.0: 1}, 3)),
        (QubitMapping, ({0: 1}, 3.5)),
    ],
    ids=["float-edges", "float-target", "float-size", "bool-size",
         "bool-logical", "float-physical", "float-logical", "float-register"],
)
def test_routing_types_reject_non_integer_wires(cls, args):
    with pytest.raises(TypeError, match="expected an integer wire"):
        cls(*args)


def test_routing_types_store_numpy_wires_as_plain_ints():
    g = CouplingGraph(np.int64(3), ((np.int32(0), np.uint8(1)), (np.int64(1), 2)))
    assert g == CouplingGraph(3, ((0, 1), (1, 2)))
    assert [type(w) for w in (g.num_physical, *g.edges[0], *g.edges[1])] == [int] * 5
    assert g.allows(0, 1) and g.allows(1, 2)
    m = QubitMapping({np.int64(0): np.int32(2), 1: np.uint8(0)}, np.int64(3))
    assert m == QubitMapping({0: 2, 1: 0}, 3)
    assert [type(w) for w in (m.num_physical, *m.l2p, *m.l2p.values(), *m.p2l)] == [int] * 7


def test_reverse_control_sequence_and_unitary():
    ops = _reversed_cnot(0, 1)
    assert [(op.name, op.targets) for op in ops] == [
        ("H", (0,)),
        ("H", (1,)),
        ("CNOT", (1, 0)),
        ("H", (0,)),
        ("H", (1,)),
    ]
    got = oracles.unitary([(op.name, op.targets) for op in ops], 2)
    want = oracles.lift(oracles.GATE_MATRICES["CNOT"], (0, 1), 2)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_decompose_swap_with_both_directions():
    both = CouplingGraph(2, ((0, 1), (1, 0)))
    ops = decompose_swap(0, 1, both)
    assert [(op.name, op.targets) for op in ops] == [
        ("CNOT", (0, 1)),
        ("CNOT", (1, 0)),
        ("CNOT", (0, 1)),
    ]


def test_decompose_swap_single_direction_shapes():
    # only 1 -> 0 exists; called as (1, 0) the outer CNOTs are native and
    # the middle one is flipped by Hadamard sandwiches
    g = CouplingGraph(2, ((1, 0),))
    names = [op.name for op in decompose_swap(1, 0, g)]
    assert names == ["CNOT", "H", "H", "CNOT", "H", "H", "CNOT"]
    # called the other way around, the outer two get flipped instead
    names = [op.name for op in decompose_swap(0, 1, g)]
    assert names == ["H", "H", "CNOT", "H", "H", "CNOT", "H", "H", "CNOT", "H", "H"]


def test_decompose_swap_is_a_swap():
    for edges in (((0, 1), (1, 0)), ((1, 0),), ((0, 1),)):
        g = CouplingGraph(2, edges)
        for args in ((0, 1), (1, 0)):
            ops = decompose_swap(*args, g)
            got = oracles.unitary([(op.name, op.targets) for op in ops], 2)
            np.testing.assert_allclose(
                got, oracles.GATE_MATRICES["SWAP"], atol=1e-12, err_msg=str((edges, args))
            )


def test_decompose_swap_needs_adjacency(ibmqx4):
    with pytest.raises(ValueError, match="not adjacent"):
        decompose_swap(0, 3, ibmqx4)


def test_route_leaves_legal_circuits_unchanged(ibmqx4):
    c = Circuit(5, 0).gate("H", 0).gate("CNOT", 1, 0).gate("CNOT", 3, 2).gate("T", 4)
    c.gate("SWAP", 2, 1).gate("CZ", 2, 0)
    report = route(c, ibmqx4)
    assert report.circuit.ops == c.ops
    assert report.swaps == 0 and report.reversals == 0
    assert report.initial_layout == report.final_layout


def test_route_flips_a_wrong_way_cnot(ibmqx4):
    c = Circuit(2, 0).gate("CNOT", 0, 1)
    report = route(c, ibmqx4)
    assert report.reversals == 1 and report.swaps == 0
    assert report.h_pairs == 2
    assert [op.name for op in report.circuit.ops] == ["H", "H", "CNOT", "H", "H"]
    assert check_routing(c, report, ibmqx4).ok


def test_route_cz_only_needs_adjacency(ibmqx4):
    c = Circuit(2, 0).gate("CZ", 0, 1)
    report = route(c, ibmqx4)
    assert [op.name for op in report.circuit.ops] == ["CZ"]
    assert report.reversals == 0
    assert check_routing(c, report, ibmqx4).ok


def test_route_walks_distant_pairs(ibmqx4):
    c = Circuit(4, 0).gate("CNOT", 0, 3)
    report = route(c, ibmqx4)
    assert report.swaps >= 1
    result = check_routing(c, report, ibmqx4)
    assert result.legal and result.equivalent
    # the moved wire shows up in the final layout
    assert report.final_layout != report.initial_layout


def test_route_user_swap_is_a_logical_gate(ibmqx4):
    c = Circuit(4, 0).gate("SWAP", 0, 3)
    report = route(c, ibmqx4)
    assert check_routing(c, report, ibmqx4).ok
    # the explicit SWAP does not move the layout; only routing swaps do
    c2 = Circuit(2, 0).gate("SWAP", 0, 1)
    report2 = route(c2, ibmqx4)
    assert report2.circuit.ops == c2.ops
    assert report2.final_layout == report2.initial_layout


def test_route_honors_initial_layout(ibmqx4):
    c = Circuit(2, 0).gate("CNOT", 0, 1)
    placed = QubitMapping({0: 3, 1: 4}, 5)
    report = route(c, ibmqx4, initial=placed)
    assert report.initial_layout == {0: 3, 1: 4}
    assert check_routing(c, report, ibmqx4).ok
    with pytest.raises(ValueError, match="does not place"):
        route(c, ibmqx4, initial=QubitMapping({0: 0}, 5))


def test_route_keeps_terminal_measures(ibmqx4):
    c = Circuit(2, 2).gate("CNOT", 0, 1).measure(0, 0).measure(1, 1)
    report = route(c, ibmqx4)
    measured = [op for op in report.circuit.ops if op.kind == "measure"]
    assert len(measured) == 2
    assert report.circuit.num_clbits == 2


def test_route_rejects_mid_circuit_measurement(ibmqx4):
    c = Circuit(2, 1).measure(0, 0).gate("H", 1)
    with pytest.raises(ValueError, match="terminal"):
        route(c, ibmqx4)


def test_route_rejects_distant_conditioned_pairs(ibmqx4):
    c = Circuit(4, 1).measure(1, 0).cond("CNOT", (0, 3), 0)
    with pytest.raises(ValueError, match="conditioned two-qubit"):
        route(c, ibmqx4)


def test_route_rejects_oversized_circuits():
    g = CouplingGraph(2, ((0, 1),))
    with pytest.raises(ValueError, match="device has"):
        route(Circuit(3, 0), g)


def test_route_deterministic(ibmqx4):
    c = Circuit(5, 0).gate("CNOT", 0, 4).gate("CZ", 1, 3).gate("CNOT", 2, 0)
    a = route(c, ibmqx4)
    b = route(c, ibmqx4)
    assert a.circuit.ops == b.circuit.ops
    assert a.final_layout == b.final_layout


def test_check_routing_flags_illegal_ops(ibmqx4):
    from qss import TranspileReport

    c = Circuit(2, 0).gate("CNOT", 0, 1)
    bad = Circuit(5, 0).gate("CNOT", 0, 1)
    report = TranspileReport(
        circuit=bad,
        initial_layout={0: 0, 1: 1},
        final_layout={0: 0, 1: 1},
    )
    result = check_routing(c, report, ibmqx4)
    assert not result.legal
    assert any("against edge direction" in v for v in result.violations)
    assert not result.ok


def test_check_routing_flags_wrong_unitary(ibmqx4):
    from qss import TranspileReport

    c = Circuit(2, 0).gate("CNOT", 1, 0)
    wrong = Circuit(5, 0).gate("CNOT", 1, 0).gate("X", 4)
    report = TranspileReport(
        circuit=wrong,
        initial_layout={0: 0, 1: 1},
        final_layout={0: 0, 1: 1},
    )
    result = check_routing(c, report, ibmqx4)
    assert result.legal and not result.equivalent


def test_random_circuits_route_correctly(ibmqx4):
    rng = np.random.default_rng(53)
    for trial in range(50):
        n = int(rng.integers(2, 6))
        ops = random_op_sequence(rng, n, int(rng.integers(1, 13)))
        c = Circuit(n, 0)
        for name, targets in ops:
            c.gate(name, *targets)
        report = route(c, ibmqx4)
        result = check_routing(c, report, ibmqx4)
        assert result.ok, f"trial {trial}: {result.violations} ops={ops}"


def test_routing_against_pure_line_graph():
    g = line_graph()
    c = Circuit(3, 0).gate("CNOT", 2, 0)
    report = route(c, g)
    result = check_routing(c, report, g)
    assert result.ok
    assert report.swaps == 1


def test_transpile_report_json(ibmqx4):
    c = Circuit(2, 0).gate("CNOT", 0, 1)
    report = route(c, ibmqx4)
    j = report.to_json()
    assert set(j) == {"circuit", "initial_layout", "final_layout", "swaps", "reversals", "h_pairs"}
    assert j["h_pairs"] == 2 * j["reversals"]
    rebuilt = parse_circuit(j["circuit"])
    assert rebuilt == report.circuit
