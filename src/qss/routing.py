"""Routing onto a directed coupling graph.

Devices in this family run a CNOT only along a directed edge, so circuits
are rewritten in three moves: flip a CNOT by Hadamard conjugation when only
the opposite direction exists, decompose a SWAP into three alternating CNOTs
with flips where needed, and walk distant operand pairs together along a
shortest undirected path.  Path ties prefer fewer direction flips, then the
lexicographically smallest path, so routing is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .circuit import Circuit, CircuitOp, _wire
from .simulate import _unitary, matrices_equal_up_to_phase
from .states import _width


@dataclass(frozen=True)
class CouplingGraph:
    """Directed edges (control, target) over 1 to MAX_QUBITS physical wires, as a Circuit."""

    num_physical: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_physical", _width(_wire(self.num_physical), "num_physical"))
        seen: dict[tuple[int, int], None] = {}  # in input order
        for c, t in self.edges:
            c, t = _wire(c), _wire(t)
            if not (0 <= c < self.num_physical and 0 <= t < self.num_physical) or c == t:
                raise ValueError(f"bad edge ({c}, {t})")
            if (c, t) in seen:
                raise ValueError(f"duplicate edge ({c}, {t})")
            seen[c, t] = None
        object.__setattr__(self, "edges", tuple(seen))
        object.__setattr__(self, "_edge_set", frozenset(seen))

    def allows(self, control: int, target: int) -> bool:
        """True when a CNOT with this orientation is native."""
        return (control, target) in self._edge_set

    def has_link(self, a: int, b: int) -> bool:
        """True when the two qubits are adjacent in either direction."""
        return self.allows(a, b) or self.allows(b, a)

    def neighbors(self, q: int) -> list[int]:
        out = {t for c, t in self.edges if c == q} | {c for c, t in self.edges if t == q}
        return sorted(out)

    def shortest_paths(self, start: int, goal: int) -> list[list[int]]:
        """All shortest undirected paths, sorted lexicographically.

        Every path is extended by one step per layer, and the nodes a layer
        reaches are marked only once the whole layer is built, so paths
        that tie on length all survive."""
        paths, seen = [[start]], {start}
        while not any(path[-1] == goal for path in paths):
            paths = [path + [v] for path in paths for v in self.neighbors(path[-1]) if v not in seen]
            if not paths:
                raise ValueError(f"qubits {start} and {goal} are not connected")
            seen.update(path[-1] for path in paths)
        return sorted(path for path in paths if path[-1] == goal)

    def to_json(self) -> dict:
        return {"qubits": self.num_physical, "edges": [list(e) for e in self.edges]}


class QubitMapping:
    """Injective placement of logical wires onto physical wires."""

    def __init__(self, l2p: dict[int, int], num_physical: int):
        num_physical = _wire(num_physical)
        l2p = {_wire(q): _wire(p) for q, p in l2p.items()}
        if len(set(l2p.values())) != len(l2p):
            raise ValueError("mapping is not injective")
        for q, p in l2p.items():
            if not 0 <= p < num_physical:
                raise ValueError(f"physical qubit {p} out of range")
            if q < 0:
                raise ValueError(f"bad logical qubit {q}")
        self.num_physical = num_physical
        self.l2p = l2p

    @classmethod
    def identity(cls, num_logical: int, num_physical: int) -> "QubitMapping":
        return cls({q: q for q in range(num_logical)}, num_physical)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QubitMapping):
            return NotImplemented
        return self.l2p == other.l2p and self.num_physical == other.num_physical

    def to_json(self) -> dict:
        return {str(q): p for q, p in sorted(self.l2p.items())}


@dataclass
class TranspileReport:
    """Routing result: the rewritten circuit, layouts, and rewrite tallies."""

    circuit: Circuit
    initial_layout: dict[int, int]
    final_layout: dict[int, int]
    swaps: int = 0
    reversals: int = 0

    @property
    def h_pairs(self) -> int:
        """Hadamard pairs added by control flips (two pairs per flip)."""
        return 2 * self.reversals

    def to_json(self) -> dict:
        return {
            "circuit": self.circuit.to_json(),
            "initial_layout": {str(q): p for q, p in sorted(self.initial_layout.items())},
            "final_layout": {str(q): p for q, p in sorted(self.final_layout.items())},
            "swaps": self.swaps,
            "reversals": self.reversals,
            "h_pairs": self.h_pairs,
        }


@lru_cache(maxsize=None)  # bounded: 11 names x 64 target tuples, as a device has at most 8 wires
def _gate_op(name: str, targets: tuple[int, ...]) -> CircuitOp:
    """The gate op of name on targets, checked once and then shared, as it is frozen."""
    return CircuitOp(kind="gate", name=name, targets=targets)


def _routed_op(name: str, targets: tuple[int, ...], clbit: int | None) -> CircuitOp:
    """A shared gate op, or a new cond on clbit, as clbits are unbounded."""
    return _gate_op(name, targets) if clbit is None else CircuitOp("cond", name, targets, clbit=clbit)


def _cnot(graph: CouplingGraph, control: int, target: int, clbit: int | None = None) -> list[CircuitOp]:
    """CNOT(control -> target) in ops the graph runs: the native CNOT, else
    H(control), H(target), CNOT(target -> control), H(control), H(target).
    Each op is a cond on clbit, or a plain gate when clbit is None."""
    if graph.allows(control, target):
        steps = (("CNOT", (control, target)),)
    else:
        steps = (("H", (control,)), ("H", (target,)), ("CNOT", (target, control)), ("H", (control,)), ("H", (target,)))
    return [_routed_op(name, targets, clbit) for name, targets in steps]


def decompose_swap(a: int, b: int, graph: CouplingGraph) -> list[CircuitOp]:
    """SWAP(a, b) as three alternating CNOTs legal on a directed edge.

    The shape is CNOT(a->b), CNOT(b->a), CNOT(a->b), each through _cnot.
    """
    if not graph.has_link(a, b):
        raise ValueError(f"qubits {a} and {b} are not adjacent")
    return _cnot(graph, a, b) + _cnot(graph, b, a) + _cnot(graph, a, b)


def _oriented(graph: CouplingGraph, a: int, b: int) -> tuple[int, int]:
    """Argument order that leaves only the middle CNOT flipped, if any."""
    return (a, b) if graph.allows(a, b) else (b, a)


def _path_cost(graph: CouplingGraph, path: list[int], name: str) -> int:
    """Flips to route name along path: one per SWAP hop on a one-way edge, and one for a CNOT against the last."""
    cost = name == "CNOT" and not graph.allows(path[-2], path[-1])
    if len(path) > 2:  # most pairs are adjacent, and cost one lookup
        cost += sum(not (graph.allows(u, v) and graph.allows(v, u)) for u, v in zip(path, path[1:-1]))
    return cost


def _placed(l2p: dict[int, int], num_logical: int, num_physical: int) -> dict[int, int]:
    """The checked l2p of a QubitMapping that places exactly the logical qubits below num_logical."""
    l2p = QubitMapping(l2p, num_physical).l2p
    for q in range(num_logical):
        if q not in l2p:
            raise ValueError(f"initial mapping does not place logical qubit {q}")
    if len(l2p) > num_logical:
        raise ValueError(f"initial mapping places logical qubit {max(l2p)}, but the circuit has {num_logical} qubits")
    return l2p


def _split(ops: tuple[CircuitOp, ...]) -> tuple[list[CircuitOp], list[CircuitOp]]:
    """The gates, then the measurements and conds, each in program order.

    A gate after a measurement or cond moves ahead of it when it acts on
    none of the wires the tail has touched so far, since it commutes with
    them; a gate on such a wire raises."""
    gates, tail, touched = [], [], set()
    for op in ops:
        if op.kind != "gate":
            tail.append(op)
            touched.update((op.qubit,) if op.kind == "measure" else op.targets)
        elif touched.isdisjoint(op.targets):
            gates.append(op)
        else:
            raise ValueError("measurements must be terminal for routing")
    return gates, tail


def route(circuit: Circuit, graph: CouplingGraph, initial: QubitMapping | None = None) -> TranspileReport:
    """Rewrite a circuit so every two-qubit op sits on a native directed edge.

    The gates go first, then the measurements and conds (see _split).
    Distant operand pairs are joined by swapping the first operand along a
    shortest undirected path; the report's final layout says where each
    logical wire ended up.
    """
    gates, tail = _split(circuit.ops)
    if circuit.num_qubits > graph.num_physical:
        raise ValueError(f"circuit needs {circuit.num_qubits} qubits, device has {graph.num_physical}")
    if initial is None:
        initial = QubitMapping.identity(circuit.num_qubits, graph.num_physical)
    if initial.num_physical != graph.num_physical:
        raise ValueError(f"initial mapping covers {initial.num_physical} physical qubits, device has {graph.num_physical}")
    l2p = initial_layout = _placed(initial.l2p, circuit.num_qubits, graph.num_physical)

    emitted: list[CircuitOp] = []
    swaps = reversals = 0
    for op in gates + tail:
        if op.kind == "measure":
            emitted.append(CircuitOp(kind="measure", qubit=l2p[op.qubit], clbit=op.clbit))
            continue
        if len(op.targets) == 1:
            emitted.append(_routed_op(op.name, (l2p[op.targets[0]],), op.clbit))
            continue

        pc, pt = (l2p[q] for q in op.targets)
        if graph.has_link(pc, pt):
            flips = _path_cost(graph, [pc, pt], op.name)
        elif op.kind == "cond":
            raise ValueError("cannot route a conditioned two-qubit gate over non-adjacent wires")
        else:
            flips, path = min((_path_cost(graph, p, op.name), p) for p in graph.shortest_paths(pc, pt))
            for u, v in zip(path, path[1:-1]):
                u, v = _oriented(graph, u, v)
                emitted += decompose_swap(u, v, graph)
                l2p = {q: {u: v, v: u}.get(p, p) for q, p in l2p.items()}
            swaps += len(path) - 2
            pc, pt = path[-2:]
        reversals += flips

        if op.name == "CNOT":
            emitted += _cnot(graph, pc, pt, op.clbit)
        elif op.name == "CZ":
            emitted.append(_routed_op(op.name, _oriented(graph, pc, pt), op.clbit))
        elif op.name == "SWAP":
            # A SWAP from the source circuit is a logical gate, not a
            # mapping move: emit it on the (now adjacent) pair and leave
            # the layout alone.
            emitted.append(_routed_op(op.name, (pc, pt), op.clbit))
        else:
            raise ValueError(f"unsupported two-qubit gate {op.name}")

    return TranspileReport(
        circuit=Circuit(graph.num_physical, circuit.num_clbits, emitted),
        initial_layout=initial_layout,
        final_layout=dict(l2p),
        swaps=swaps,
        reversals=reversals,
    )


@dataclass(frozen=True)
class RoutingCheck:
    legal: bool
    equivalent: bool
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.legal and self.equivalent


def _equivalent(original: Circuit, report: TranspileReport) -> bool:
    n, p = original.num_qubits, report.circuit.num_qubits
    if report.circuit.num_clbits != original.num_clbits:
        return False
    try:
        initial, final = (_placed(layout, n, p) for layout in (report.initial_layout, report.final_layout))
        (gates, ops), (routed_gates, routed_ops) = _split(original.ops), _split(report.circuit.ops)
    except ValueError:
        return False
    basis = np.arange(2**n)
    bits = (basis[:, None] >> np.arange(n)) & 1
    placed, moved = (bits @ (1 << np.array([[initial[q], final[q]] for q in range(n)]))).T
    start = np.zeros((2**n, 2**p), dtype=complex)
    start[basis, placed] = 1.0
    expected = np.zeros((2**p, 2**n), dtype=complex)
    expected[moved] = _unitary(gates, n)
    if not matrices_equal_up_to_phase(_unitary(routed_gates, p, start.T), expected):
        return False
    tail = iter(routed_ops)
    for op in ops:
        if op.kind == "measure":
            if next(tail, None) != replace(op, qubit=final[op.qubit]):
                return False
            continue
        # the shortest run of routed conds on op's clbit that fires op
        want = _unitary([replace(op, targets=tuple(final[q] for q in op.targets))], p)
        got = _unitary([], p)
        for r in tail:
            if r.kind != "cond" or r.clbit != op.clbit:
                return False
            got = _unitary([r], p, got)
            if matrices_equal_up_to_phase(got, want):
                break
        else:
            return False
    return next(tail, None) is None


def check_routing(original: Circuit, report: TranspileReport, graph: CouplingGraph) -> RoutingCheck:
    """Confirm edge legality and equivalence of a routing result.

    Legality needs the routed circuit to fit the device and inspects every
    two-qubit op in it.  Equivalence needs equal register widths and both
    layouts to pass route's rule for an initial mapping.  Each circuit
    splits per wire into its gates, then its measurements and conds, as
    route splits it (_split).  The routed gates must take each logical basis
    state, placed by index on its initial layout's physical code, to the
    original gates' image of it placed on the final layout's codes, up to
    one global phase and within ATOL_EVOLUTION; only those 2**n columns are
    evolved, so any device route accepts works.  The tails are then walked
    op by op: each routed measurement must be the original's with its qubit
    moved by the final layout, and each original cond must match the
    shortest run of routed conds on its clbit whose product, as if fired, is
    the cond on its moved wires up to phase (so a reversed cond CNOT matches
    its five ops).  A gate on a wire that the tail touched before it, or a
    routed op left over, is not equivalent.
    """
    violations = []
    if report.circuit.num_qubits > graph.num_physical:
        violations.append(f"routed circuit has {report.circuit.num_qubits} qubits, device has {graph.num_physical}")
    for i, op in enumerate(report.circuit.ops):
        if len(op.targets) != 2:
            continue
        c, t = op.targets
        if op.name in ("CZ", "SWAP"):
            if not graph.has_link(c, t):
                violations.append(f"op {i}: {op.name} on non-adjacent ({c}, {t})")
        elif not graph.allows(c, t):
            violations.append(f"op {i}: CNOT against edge direction ({c}, {t})")
    return RoutingCheck(legal=not violations, equivalent=_equivalent(original, report), violations=tuple(violations))
