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

import numpy as np

from .circuit import Circuit, CircuitOp, _wire
from .simulate import _unitary, matrices_equal_up_to_phase


@dataclass(frozen=True)
class CouplingGraph:
    """Directed edges (control, target) over a fixed physical register."""

    num_physical: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_physical", _wire(self.num_physical))
        if self.num_physical < 1:
            raise ValueError("num_physical must be >= 1")
        seen: set[tuple[int, int]] = set()
        norm = []
        for c, t in self.edges:
            c, t = _wire(c), _wire(t)
            if not (0 <= c < self.num_physical and 0 <= t < self.num_physical) or c == t:
                raise ValueError(f"bad edge ({c}, {t})")
            if (c, t) in seen:
                raise ValueError(f"duplicate edge ({c}, {t})")
            seen.add((c, t))
            norm.append((c, t))
        object.__setattr__(self, "edges", tuple(norm))
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

    def physical(self, logical: int) -> int:
        return self.l2p[logical]

    def swap_physical(self, pa: int, pb: int) -> None:
        """Record that a SWAP exchanged two physical wires."""
        swapped = {pa: pb, pb: pa}
        self.l2p = {q: swapped.get(p, p) for q, p in self.l2p.items()}

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


def _reversed_cnot(control: int, target: int, like: CircuitOp | None = None) -> list[CircuitOp]:
    """CNOT(control -> target) through the opposite orientation: H(control),
    H(target), CNOT(target -> control), H(control), H(target); unitary-equal
    to the requested CNOT.  Each op takes its kind and clbit from `like`,
    and is a plain gate when `like` is omitted."""
    kind, clbit = (like.kind, like.clbit) if like else ("gate", None)
    steps = (("H", (control,)), ("H", (target,)), ("CNOT", (target, control)), ("H", (control,)), ("H", (target,)))
    return [CircuitOp(kind=kind, name=name, targets=targets, clbit=clbit) for name, targets in steps]


def _cnot(graph: CouplingGraph, control: int, target: int, like: CircuitOp | None = None) -> list[CircuitOp]:
    """CNOT(control -> target) in ops the graph runs: the native CNOT, else
    _reversed_cnot.  Each op takes its kind and clbit from `like`."""
    if not graph.allows(control, target):
        return _reversed_cnot(control, target, like)
    if like is None:
        return [CircuitOp(kind="gate", name="CNOT", targets=(control, target))]
    return [replace(like, name="CNOT", targets=(control, target))]


def decompose_swap(a: int, b: int, graph: CouplingGraph) -> list[CircuitOp]:
    """SWAP(a, b) as three alternating CNOTs legal on a directed edge.

    The shape is CNOT(a->b), CNOT(b->a), CNOT(a->b), each through _cnot.
    """
    if not graph.has_link(a, b):
        raise ValueError(f"qubits {a} and {b} are not adjacent")
    return _cnot(graph, a, b) + _cnot(graph, b, a) + _cnot(graph, a, b)


def _swap_flip_count(graph: CouplingGraph, a: int, b: int) -> int:
    """Direction flips a SWAP needs on this edge, given a good orientation."""
    return 0 if (graph.allows(a, b) and graph.allows(b, a)) else 1


def _oriented(graph: CouplingGraph, a: int, b: int) -> tuple[int, int]:
    """Argument order that leaves only the middle CNOT flipped, if any."""
    return (a, b) if graph.allows(a, b) else (b, a)


def _path_cost(graph: CouplingGraph, path: list[int], name: str) -> int:
    cost = sum(_swap_flip_count(graph, path[i], path[i + 1]) for i in range(len(path) - 2))
    if name == "CNOT" and not graph.allows(path[-2], path[-1]):
        cost += 1
    return cost


def _placed(l2p: dict[int, int], num_logical: int, num_physical: int) -> QubitMapping:
    """A new QubitMapping of l2p that places every logical qubit below num_logical."""
    mapping = QubitMapping(l2p, num_physical)
    for q in range(num_logical):
        if q not in mapping.l2p:
            raise ValueError(f"initial mapping does not place logical qubit {q}")
    return mapping


def _require_terminal_measures(circuit: Circuit) -> None:
    tail = False
    for op in circuit.ops:
        if op.kind in ("measure", "cond"):
            tail = True
        elif tail:
            raise ValueError("measurements must be terminal for routing")


def route(circuit: Circuit, graph: CouplingGraph, initial: QubitMapping | None = None) -> TranspileReport:
    """Rewrite a circuit so every two-qubit op sits on a native directed edge.

    Distant operand pairs are joined by swapping the first operand along a
    shortest undirected path; the report's final layout says where each
    logical wire ended up.
    """
    _require_terminal_measures(circuit)
    if circuit.num_qubits > graph.num_physical:
        raise ValueError(f"circuit needs {circuit.num_qubits} qubits, device has {graph.num_physical}")
    if initial is None:
        mapping = QubitMapping.identity(circuit.num_qubits, graph.num_physical)
    elif initial.num_physical != graph.num_physical:
        raise ValueError(f"initial mapping covers {initial.num_physical} physical qubits, device has {graph.num_physical}")
    else:
        mapping = _placed(initial.l2p, circuit.num_qubits, graph.num_physical)

    initial_layout = dict(mapping.l2p)
    emitted: list[CircuitOp] = []
    swaps = reversals = 0
    for op in circuit.ops:
        if op.kind == "measure":
            emitted.append(replace(op, qubit=mapping.physical(op.qubit)))
            continue
        if len(op.targets) == 1:
            emitted.append(replace(op, targets=(mapping.physical(op.targets[0]),)))
            continue

        pc, pt = (mapping.physical(q) for q in op.targets)
        if not graph.has_link(pc, pt):
            if op.kind == "cond":
                raise ValueError("cannot route a conditioned two-qubit gate over non-adjacent wires")
            paths = graph.shortest_paths(pc, pt)
            path = min(paths, key=lambda p: (_path_cost(graph, p, op.name), p))
            for i in range(len(path) - 2):
                u, v = _oriented(graph, path[i], path[i + 1])
                emitted += decompose_swap(u, v, graph)
                mapping.swap_physical(u, v)
                swaps += 1
                reversals += _swap_flip_count(graph, u, v)
            pc, pt = (mapping.physical(q) for q in op.targets)

        if op.name == "CNOT":
            emitted += _cnot(graph, pc, pt, op)
            reversals += not graph.allows(pc, pt)
        elif op.name == "CZ":
            emitted.append(replace(op, targets=_oriented(graph, pc, pt)))
        elif op.name == "SWAP":
            # A SWAP from the source circuit is a logical gate, not a
            # mapping move: emit it on the (now adjacent) pair and leave
            # the layout alone.
            emitted.append(replace(op, targets=(pc, pt)))
        else:
            raise ValueError(f"unsupported two-qubit gate {op.name}")

    return TranspileReport(
        circuit=Circuit(graph.num_physical, circuit.num_clbits, emitted),
        initial_layout=initial_layout,
        final_layout=dict(mapping.l2p),
        swaps=swaps,
        reversals=reversals,
    )


def _embedding(layout: dict[int, int], num_logical: int, num_physical: int) -> np.ndarray:
    """Isometry placing logical basis states on their physical wires."""
    codes = np.arange(2**num_logical)
    p_codes = np.zeros_like(codes)
    for q in range(num_logical):
        p_codes |= ((codes >> q) & 1) << layout[q]
    e = np.zeros((2**num_physical, 2**num_logical), dtype=complex)
    e[p_codes, codes] = 1.0
    return e


@dataclass(frozen=True)
class RoutingCheck:
    legal: bool
    equivalent: bool
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.legal and self.equivalent


def _head(ops: tuple[CircuitOp, ...]) -> int:
    """Where the classical tail starts: the index of the first non-gate op."""
    return next((i for i, op in enumerate(ops) if op.kind != "gate"), len(ops))


def _equivalent(original: Circuit, report: TranspileReport) -> bool:
    n, p, routed = original.num_qubits, report.circuit.num_qubits, report.circuit.ops
    if report.circuit.num_clbits != original.num_clbits:
        return False
    try:
        initial, final = (_placed(layout, n, p).l2p for layout in (report.initial_layout, report.final_layout))
    except ValueError:
        return False
    i, j = _head(original.ops), _head(routed)
    u_orig = _unitary(original.ops[:i], n)
    evolved = _unitary(routed[:j], p, _embedding(initial, n, p))
    if not matrices_equal_up_to_phase(evolved, _embedding(final, n, p) @ u_orig):
        return False
    tail = iter(routed[j:])
    for op in original.ops[i:]:
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
    splits at its first measurement or cond.  The routed gates before it
    must take each column of the initial embedding to the final embedding
    composed with the original's gates, up to one global phase and within
    ATOL_EVOLUTION; only those 2**n columns are evolved, so any device route
    accepts works.  The tails are then walked op by op: each routed
    measurement must be the original's with its qubit moved by the final
    layout, and each original cond must match the shortest run of routed
    conds on its clbit whose product, as if fired, is the cond on its moved
    wires up to phase (so a reversed cond CNOT matches its five ops).  A
    routed gate in the tail, or a routed op left over, is not equivalent.
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
