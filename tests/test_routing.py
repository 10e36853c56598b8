"""Directed-coupling routing: graph queries, rewrites, and the checker."""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from qss import (
    Circuit,
    CircuitOp,
    CouplingGraph,
    ProtocolConfig,
    QubitMapping,
    assemble_circuit,
    check_routing,
    decompose_swap,
    exact_distribution,
    route,
)
from qss.fileio import parse_circuit, parse_coupling
from qss.routing import _cnot

import oracles
from test_states import GATE_POOL_1Q, random_op_sequence


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
    # a device holds 1 to 8 wires, as a Circuit does
    for graph in ((0, ()), (9, tuple((q, q + 1) for q in range(8)))):
        with pytest.raises(ValueError, match=r"^num_physical must be in \[1, 8\]$"):
            CouplingGraph(*graph)


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


def random_coupling(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """A connected directed graph on n nodes: a random spanning tree plus
    extra links, each link one-way in a random direction or, sometimes,
    both ways."""
    order = [int(q) for q in rng.permutation(n)]
    links = {tuple(sorted((order[i], order[int(rng.integers(i))]))) for i in range(1, n)}
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < 0.25:
            links.add((a, b))
    edges = []
    for a, b in sorted(links):
        r = rng.random()
        if r < 0.15:
            edges += [(a, b), (b, a)]
        else:
            edges.append((a, b) if r < 0.575 else (b, a))
    return edges


def test_shortest_paths_match_the_frozen_search_on_random_graphs():
    rng = np.random.default_rng(1807)
    tied = unconnected = 0
    for _ in range(300):
        n = int(rng.integers(2, 6))
        edges = random_coupling(rng, n)
        # One graph in three has an extra node with no links.
        g = CouplingGraph(n + int(rng.random() < 1 / 3), tuple(edges))
        for a, b in itertools.product(range(g.num_physical), repeat=2):
            try:
                want = oracles.shortest_paths(edges, a, b)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{exc}$"):
                    g.shortest_paths(a, b)
                unconnected += 1
                continue
            assert g.shortest_paths(a, b) == want, (edges, a, b)
            tied += len(want) > 1
    assert tied >= 100 and unconnected >= 100, (tied, unconnected)


def test_random_circuits_route_correctly_on_random_graphs():
    rng = np.random.default_rng(3219)
    placed = 0
    for trial in range(200):
        p = int(rng.integers(2, 6))
        g = CouplingGraph(p, tuple(random_coupling(rng, p)))
        n = int(rng.integers(2, p + 1))
        ops = random_op_sequence(rng, n, int(rng.integers(1, 13)))
        c = Circuit(n, 0)
        for name, targets in ops:
            c.gate(name, *targets)
        initial = None
        if rng.random() < 0.5:
            initial = QubitMapping(dict(enumerate(int(q) for q in rng.permutation(p)[:n])), p)
            placed += 1
        report = route(c, g, initial)
        result = check_routing(c, report, g)
        assert result.ok, f"trial {trial}: {result.violations} ops={ops} edges={g.edges}"
    assert 60 <= placed <= 140


def test_conditioned_cnot_routes_like_its_gate():
    # A cond CNOT on an adjacent pair becomes the same ops as the plain
    # CNOT, each still conditioned on the cond's clbit.
    rng = np.random.default_rng(18)
    for _ in range(40):
        p = int(rng.integers(2, 6))
        g = CouplingGraph(p, tuple(random_coupling(rng, p)))
        for c, t in itertools.permutations(range(p), 2):
            if not g.has_link(c, t):
                continue
            plain = route(Circuit(p, 0).gate("CNOT", c, t), g)
            measured = int(rng.integers(p))
            conditioned = route(Circuit(p, 1).measure(measured, 0).cond("CNOT", (c, t), 0), g)
            assert conditioned.circuit.ops[0] == CircuitOp(kind="measure", qubit=measured, clbit=0)
            assert conditioned.circuit.ops[1:] == tuple(
                dataclasses.replace(op, kind="cond", clbit=0) for op in plain.circuit.ops
            )
            assert conditioned.reversals == plain.reversals == int(not g.allows(c, t))


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
    assert m.to_json() == {"0": 0, "1": 1}


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
    assert [type(w) for w in (m.num_physical, *m.l2p, *m.l2p.values())] == [int] * 5


def test_reverse_control_sequence_and_unitary():
    # Only the reverse edge 1 -> 0 exists, so CNOT(0 -> 1) is flipped.
    ops = _cnot(CouplingGraph(2, ((1, 0),)), 0, 1)
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


def test_route_rejects_a_mapping_sized_for_another_device(ibmqx4):
    c = Circuit(2, 0).gate("CNOT", 0, 1)
    for mapping in (QubitMapping({0: 7, 1: 1}, 10), QubitMapping({0: 2, 1: 1}, 3)):
        size = mapping.num_physical
        with pytest.raises(ValueError, match=f"^initial mapping covers {size} physical qubits, device has 5$"):
            route(c, ibmqx4, mapping)


def test_route_keeps_terminal_measures(ibmqx4):
    c = Circuit(2, 2).gate("CNOT", 0, 1).measure(0, 0).measure(1, 1)
    report = route(c, ibmqx4)
    measured = [op for op in report.circuit.ops if op.kind == "measure"]
    assert len(measured) == 2
    assert report.circuit.num_clbits == 2


def test_route_rejects_mid_circuit_measurement(ibmqx4):
    # A plain gate on a wire that an earlier measurement or cond touched is
    # refused.
    for c in (
        Circuit(2, 1).measure(0, 0).gate("H", 0),
        Circuit(2, 1).measure(0, 0).cond("X", 1, 0).gate("H", 1),
        Circuit(3, 1).measure(0, 0).gate("CNOT", 2, 0),
    ):
        with pytest.raises(ValueError, match="^measurements must be terminal for routing$"):
            route(c, ibmqx4)


def test_route_moves_a_gate_past_measurements_on_other_wires(ibmqx4):
    # A gate on a wire no measurement or cond has touched commutes with
    # them, so the routed circuit runs it first.
    c = Circuit(2, 1).measure(0, 0).gate("H", 1)
    report = route(c, ibmqx4)
    assert report.circuit.ops == (CircuitOp("gate", "H", (1,)), CircuitOp("measure", qubit=0, clbit=0))
    assert check_routing(c, report, ibmqx4).ok


@pytest.mark.parametrize("receiver", ["charlie", "bob"])
def test_feedforward_protocol_routes_onto_ibmqx4(ibmqx4, receiver):
    # The sampled protocol circuit measures two wires before the partner's
    # H on a third; it routes with no SWAP and no reversal.
    c = assemble_circuit(ProtocolConfig(receiver=receiver))
    report = route(c, ibmqx4)
    assert (len(report.circuit.ops), report.swaps, report.reversals) == (15, 0, 0)
    assert check_routing(c, report, ibmqx4).ok
    ops = report.circuit.ops
    cond = next(i for i, op in enumerate(ops) if op.kind == "cond")
    pauli = dataclasses.replace(ops[cond], name={"X": "Z", "Z": "X"}[ops[cond].name])
    measure = next(i for i, op in enumerate(ops) if op.kind == "measure")
    moved = dataclasses.replace(ops[measure], qubit=report.final_layout[ProtocolConfig(receiver=receiver).receiver_wire])
    after = CircuitOp("gate", "H", (ops[measure].qubit,))
    for bad in (
        ops[:cond] + (pauli,) + ops[cond + 1 :],
        ops[:measure] + (moved,) + ops[measure + 1 :],
        ops + (after,),
    ):
        result = check_routing(c, dataclasses.replace(report, circuit=Circuit(5, 3, bad)), ibmqx4)
        assert result.legal and not result.equivalent, bad


def test_routing_keeps_the_register_law_of_measure_cond_circuits(ibmqx4):
    # Seeded circuits that interleave gates with measurements and conds,
    # each gate on wires no earlier measurement or cond touched.  The routed
    # circuit runs every gate first, yet its exact register distribution is
    # the original's.
    rng = np.random.default_rng(2025)
    moved = 0
    for trial in range(60):
        g = ibmqx4 if trial % 2 else CouplingGraph(5, tuple(random_coupling(rng, 5)))
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n + 1))
        c, free = Circuit(n, m), list(range(n))
        for clbit in range(m + 1):
            if free:
                for name, targets in random_op_sequence(rng, len(free), int(rng.integers(0, 5))):
                    c.gate(name, *(free[t] for t in targets))
                    moved += clbit > 0
            if clbit == m:
                break
            q, t = (int(w) for w in rng.integers(n, size=2))
            c.measure(q, clbit)
            if rng.random() < 0.6:
                c.cond(GATE_POOL_1Q[int(rng.integers(len(GATE_POOL_1Q)))], (t,), int(rng.integers(clbit + 1)))
                free = [w for w in free if w != t]
            free = [w for w in free if w != q]
        report = route(c, g)
        assert check_routing(c, report, g).ok, trial
        want, got = exact_distribution(c), exact_distribution(report.circuit)
        for key in want.keys() | got.keys():
            assert abs(want.get(key, 0.0) - got.get(key, 0.0)) <= 1e-12, (trial, key)
    assert moved >= 60, moved


def test_route_default_layout_is_the_identity_mapping(ibmqx4):
    rng = np.random.default_rng(77)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        c = Circuit(n, 1)
        for name, targets in random_op_sequence(rng, n, int(rng.integers(0, 10))):
            c.gate(name, *targets)
        c.measure(int(rng.integers(n)), 0).cond("X", int(rng.integers(n)), 0)
        assert route(c, ibmqx4) == route(c, ibmqx4, QubitMapping.identity(n, ibmqx4.num_physical))


def test_a_layout_places_exactly_the_circuits_qubits(ibmqx4):
    # A logical qubit the circuit does not have is refused by route, and a
    # hand-built report that places one is not equivalent.
    c = Circuit(2, 0).gate("CNOT", 0, 1)
    with pytest.raises(ValueError, match="^initial mapping places logical qubit 7, but the circuit has 2 qubits$"):
        route(c, ibmqx4, QubitMapping({0: 1, 1: 2, 7: 3}, 5))
    report = route(c, ibmqx4, QubitMapping({0: 1, 1: 2}, 5))
    assert check_routing(c, report, ibmqx4).ok
    for which in ("initial_layout", "final_layout"):
        result = check_routing(c, dataclasses.replace(report, **{which: {**getattr(report, which), 2: 4}}), ibmqx4)
        assert (result.legal, result.equivalent) == (True, False)


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


def test_route_shares_its_gate_ops(ibmqx4):
    # Gate ops come from one cache, so two routings hold the same objects;
    # measure and cond ops carry clbits and are built for each routing.
    c = Circuit(5, 2).gate("H", 0).gate("CNOT", 0, 4).gate("CZ", 1, 3).gate("CNOT", 0, 1).gate("SWAP", 2, 3)
    c.measure(0, 0).measure(1, 1).cond("X", 2, 0).cond("CNOT", (0, 1), 1)
    a, b = route(c, ibmqx4).circuit.ops, route(c, ibmqx4).circuit.ops
    assert a == b
    assert {op.kind for op in a} == {"gate", "measure", "cond"}
    for x, y in zip(a, b):
        assert (x is y) == (x.kind == "gate"), x


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
    # ibmqx4 has no link between 0 and 3 either way.  The routed CZ or SWAP
    # is the original's on its placed wires, so only legality fails.
    for name in ("CZ", "SWAP"):
        c = Circuit(2, 0).gate(name, 0, 1)
        report = TranspileReport(Circuit(5, 0).gate(name, 0, 3), {0: 0, 1: 3}, {0: 0, 1: 3})
        result = check_routing(c, report, ibmqx4)
        assert (result.legal, result.equivalent) == (False, True)
        assert result.violations == (f"op 0: {name} on non-adjacent (0, 3)",)


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


def test_check_routing_flags_a_routed_circuit_wider_than_the_device():
    from qss import TranspileReport

    c = Circuit(1, 1).gate("H", 0).measure(0, 0)
    report = TranspileReport(Circuit(3, 1).gate("H", 2).measure(2, 0), {0: 2}, {0: 2})
    result = check_routing(c, report, CouplingGraph(2, ((0, 1),)))
    assert (result.legal, result.violations) == (False, ("routed circuit has 3 qubits, device has 2",))


def test_check_routing_compares_register_widths(ibmqx4):
    # The same gates and measurements into a wider register give count
    # keys of another width.
    c = Circuit(1, 1).gate("H", 0).measure(0, 0)
    report = route(c, ibmqx4)
    assert check_routing(c, report, ibmqx4).ok
    wide = dataclasses.replace(report, circuit=Circuit(5, 2, report.circuit.ops))
    result = check_routing(c, wide, ibmqx4)
    assert result.legal and not result.equivalent


def _mutations(report, rng):
    """Four broken copies of a routing whose logical circuit ends in CNOT then
    a non-identity one-qubit gate: the last op dropped, the last CNOT's
    wires swapped, two logical qubits' final wires swapped, and an extra T on
    a final wire.  Each changes the map on the embedded logical basis."""
    ops = report.circuit.ops
    last_cnot = max(i for i, op in enumerate(ops) if op.name == "CNOT")
    flipped = dataclasses.replace(ops[last_cnot], targets=ops[last_cnot].targets[::-1])
    a, b = (int(q) for q in rng.choice(len(report.final_layout), 2, replace=False))
    swapped = dict(report.final_layout)
    swapped[a], swapped[b] = swapped[b], swapped[a]
    t_wire = report.final_layout[int(rng.integers(len(report.final_layout)))]
    n, m = report.circuit.num_qubits, report.circuit.num_clbits
    return {
        "dropped op": dataclasses.replace(report, circuit=Circuit(n, m, ops[:-1])),
        "flipped CNOT": dataclasses.replace(
            report, circuit=Circuit(n, m, ops[:last_cnot] + (flipped,) + ops[last_cnot + 1 :])
        ),
        "swapped final layout": dataclasses.replace(report, final_layout=swapped),
        "extra T": dataclasses.replace(report, circuit=Circuit(n, m, ops).gate("T", t_wire)),
    }


def test_check_routing_matches_the_frozen_dense_check(ibmqx4):
    # Seeded routings on ibmqx4 and on random couplings, with and without an
    # initial layout; then four mutations of each, which must all fail.
    rng = np.random.default_rng(2023)
    placed = 0
    for trial in range(120):
        g = ibmqx4 if trial % 2 else CouplingGraph(5, tuple(random_coupling(rng, 5)))
        p = g.num_physical
        n = int(rng.integers(2, p + 1))
        ops = random_op_sequence(rng, n, int(rng.integers(0, 12)))
        a, b = (int(q) for q in rng.choice(n, 2, replace=False))
        ops += [("CNOT", (a, b)), (GATE_POOL_1Q[int(rng.integers(len(GATE_POOL_1Q)))], (int(rng.integers(n)),))]
        c = Circuit(n, 0)
        for name, targets in ops:
            c.gate(name, *targets)
        initial = None
        if rng.random() < 0.5:
            initial = QubitMapping(dict(enumerate(int(q) for q in rng.permutation(p)[:n])), p)
            placed += 1
        report = route(c, g, initial)
        result = check_routing(c, report, g)
        assert result.ok and (result.legal, result.equivalent, result.violations) == oracles.dense_routing_check(
            c, report, g
        ), (trial, ops)
        for what, bad in _mutations(report, rng).items():
            result = check_routing(c, bad, g)
            assert not result.ok, (trial, what, ops)
            assert (result.legal, result.equivalent, result.violations) == oracles.dense_routing_check(
                c, bad, g
            ), (trial, what, ops)
    assert 30 <= placed <= 90


@pytest.mark.parametrize("which", ["initial_layout", "final_layout"])
def test_check_routing_rejects_a_layout_with_a_duplicate_wire(ibmqx4, which):
    # A hand-built report can send two logical qubits to one wire, send one
    # past the device, or leave one out.  Each layout must pass the rule
    # route applies to an initial mapping, so each is rejected instead of
    # indexing past the device or raising KeyError.  The frozen check ORs a
    # repeated wire's bits and also rejects it; it indexes past the device
    # on the other two, so those are compared with the correct routing only.
    c = Circuit(2, 0).gate("H", 0).gate("CNOT", 0, 1)
    report = route(c, ibmqx4)
    for layout in ({0: 3, 1: 3}, {0: 4, 1: 4}):
        bad = dataclasses.replace(report, **{which: layout})
        result = check_routing(c, bad, ibmqx4)
        assert not result.equivalent
        assert (result.legal, result.equivalent, result.violations) == oracles.dense_routing_check(c, bad, ibmqx4)
    for layout in ({0: 7, 1: 1}, {0: 0}):
        result = check_routing(c, dataclasses.replace(report, **{which: layout}), ibmqx4)
        assert (result.legal, result.equivalent, result.violations) == (True, False, ())
    assert check_routing(c, report, ibmqx4).ok


def test_check_routing_checks_measurements_and_conds(ibmqx4):
    # Seeded routings of circuits that end in measurements and conditioned
    # gates.  Moving one routed measurement, or one routed one-qubit cond to
    # another wire that holds a logical qubit, changes the outcome, so each
    # mutation is rejected; the correct routing passes.
    rng = np.random.default_rng(2024)
    moved_conds = 0
    for trial in range(60):
        g = ibmqx4 if trial % 2 else CouplingGraph(5, tuple(random_coupling(rng, 5)))
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n + 1))
        c = Circuit(n, m)
        for name, targets in random_op_sequence(rng, n, int(rng.integers(0, 10))):
            c.gate(name, *targets)
        layout = route(c, g).final_layout
        for clbit in range(m):
            c.measure(int(rng.integers(n)), clbit)
            a, b = (int(q) for q in rng.choice(n, 2, replace=False))
            if rng.random() < 0.5:
                c.cond(GATE_POOL_1Q[int(rng.integers(len(GATE_POOL_1Q)))], (a,), clbit)
            elif g.has_link(layout[a], layout[b]):
                c.cond(("CNOT", "CZ")[int(rng.integers(2))], (a, b), clbit)
        report = route(c, g)
        assert check_routing(c, report, g).ok, trial
        ops, used = report.circuit.ops, sorted(report.final_layout.values())
        i = int(rng.choice([i for i, op in enumerate(ops) if op.kind == "measure"]))
        wire = int(rng.choice([q for q in range(g.num_physical) if q != ops[i].qubit]))
        mutants = [ops[:i] + (dataclasses.replace(ops[i], qubit=wire),) + ops[i + 1 :]]
        conds = [i for i, op in enumerate(ops) if op.kind == "cond" and len(op.targets) == 1]
        if conds:
            i = int(rng.choice(conds))
            wire = int(rng.choice([q for q in used if q != ops[i].targets[0]]))
            mutants.append(ops[:i] + (dataclasses.replace(ops[i], targets=(wire,)),) + ops[i + 1 :])
            moved_conds += 1
        for bad in mutants:
            result = check_routing(c, dataclasses.replace(report, circuit=Circuit(g.num_physical, m, bad)), g)
            assert result.legal and not result.equivalent, (trial, bad)
    assert moved_conds >= 20

    # Tampered tails that keep the routed measurements in order and every
    # cond's action as if fired, but not the circuit's outcome.
    def last_reads_c1(ops):
        return ops[:-1] + (dataclasses.replace(ops[-1], clbit=1),)

    for c, tamper in [
        # the cond X(1) reads c1 instead of c0
        (Circuit(2, 2).gate("H", 0).measure(0, 0).measure(1, 1).cond("X", 1, 0), last_reads_c1),
        # the cond X(1) moves after the measurement of wire 1, so the counts
        # {00, 11} become {00, 01}
        (Circuit(2, 2).gate("H", 0).measure(0, 0).cond("X", 1, 0).measure(1, 1), lambda ops: ops[:-2] + (ops[-1], ops[-2])),
        # the fifth op of a reversed cond CNOT(0, 1) reads c1
        (Circuit(2, 2).gate("H", 0).measure(0, 0).measure(1, 1).cond("CNOT", (0, 1), 0), last_reads_c1),
        # a gate on an idle wire after the tail is an op left over
        (Circuit(2, 2).gate("H", 0).measure(0, 0).measure(1, 1), lambda ops: ops + (CircuitOp("gate", "H", (4,)),)),
        # so are an extra measurement and an extra cond, which _split keeps
        # in the tail
        (Circuit(2, 2).gate("H", 0).measure(0, 0), lambda ops: ops + (CircuitOp("measure", qubit=1, clbit=1),)),
        (Circuit(2, 2).gate("H", 0).measure(0, 0), lambda ops: ops + (CircuitOp("cond", "X", (1,), clbit=0),)),
    ]:
        report = route(c, ibmqx4)
        assert check_routing(c, report, ibmqx4).ok
        bad = Circuit(ibmqx4.num_physical, 2, tamper(report.circuit.ops))
        result = check_routing(c, dataclasses.replace(report, circuit=bad), ibmqx4)
        assert result.legal and not result.equivalent, bad.ops


@pytest.mark.parametrize("p", [6, 7, 8])
def test_check_routing_on_devices_past_five_qubits(p, tmp_path, capsys):
    # A one-way line of p qubits: the embedded basis check runs for every
    # device that route accepts, and so does transpile --check.
    from qss.cli import main
    from qss.fileio import write_json

    line = CouplingGraph(p, tuple((q, q + 1) for q in range(p - 1)))
    rng = np.random.default_rng(p)
    for _ in range(4):
        n = int(rng.integers(2, p + 1))
        ops = random_op_sequence(rng, n, 6) + [("CNOT", (n - 1, 0)), ("H", (0,))]
        c = Circuit(n, 0)
        for name, targets in ops:
            c.gate(name, *targets)
        report = route(c, line)
        result = check_routing(c, report, line)
        assert result.ok and oracles.dense_routing_check(c, report, line) == (True, True, ())
        for what, bad in _mutations(report, rng).items():
            assert not check_routing(c, bad, line).ok, what
    write_json(str(tmp_path / "c2.json"), Circuit(2, 0).gate("CNOT", 0, 1).to_json())
    write_json(str(tmp_path / "line.json"), line.to_json())
    capsys.readouterr()
    assert main(["transpile", str(tmp_path / "c2.json"), "--coupling", str(tmp_path / "line.json"), "--check"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["check"] == {"legal": True, "equivalent": True, "violations": []}


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


def test_swap_and_reversal_counts_match_the_ops_route_adds(ibmqx4):
    # Counted from the routed circuit, not from route: each reversal wraps
    # one CNOT in four H, each swap adds three CNOTs, and nothing else adds
    # an H or a CNOT.  Seeded circuits, some with a measured tail of conds,
    # on ibmqx4, on random 5-qubit couplings and on one-way lines.
    def count(circuit, name):
        return sum(op.name == name for op in circuit.ops)

    rng = np.random.default_rng(4100)
    totals = dict(swaps=0, reversals=0, conds=0, cond_pairs=0)
    for trial in range(400):
        if trial % 3 == 0:
            g = ibmqx4
        elif trial % 3 == 1:
            g = CouplingGraph(5, tuple(random_coupling(rng, 5)))
        else:
            g = line_graph() if trial % 2 else CouplingGraph(6, tuple((q, q + 1) for q in range(5)))
        n = int(rng.integers(2, g.num_physical + 1))
        m = int(rng.integers(0, n + 1))
        c = Circuit(n, m)
        for name, targets in random_op_sequence(rng, n, int(rng.integers(1, 13))):
            c.gate(name, *targets)
        # A measured tail: a cond two-qubit gate routes only on wires the
        # gates leave adjacent, and no op after the gates moves a wire.
        final = route(c, g).final_layout
        for clbit, q in enumerate(rng.permutation(n)[:m]):
            c.measure(int(q), clbit)
        adjacent = [pair for pair in itertools.permutations(range(n), 2) if g.has_link(*(final[q] for q in pair))]
        for _ in range(int(rng.integers(0, 3)) if m else 0):
            clbit = int(rng.integers(m))
            if adjacent and rng.random() < 0.5:
                c.cond("CNOT", adjacent[int(rng.integers(len(adjacent)))], clbit)
                totals["cond_pairs"] += 1
            else:
                c.cond(GATE_POOL_1Q[int(rng.integers(len(GATE_POOL_1Q)))], (int(rng.integers(n)),), clbit)
            totals["conds"] += 1
        report = route(c, g)
        assert count(report.circuit, "H") == count(c, "H") + 4 * report.reversals, trial
        assert count(report.circuit, "CNOT") == count(c, "CNOT") + 3 * report.swaps, trial
        assert check_routing(c, report, g).ok, trial
        totals["swaps"] += report.swaps
        totals["reversals"] += report.reversals
    assert min(totals.values()) >= 50, totals


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
