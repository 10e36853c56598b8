"""Shot sampler, exact branch enumeration, and unitary extraction."""

import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qss import (
    Circuit,
    Counts,
    NoiseModel,
    ProtocolConfig,
    RunConfig,
    SimulationError,
    assemble_circuit,
    enumerate_branches,
    exact_distribution,
    simulate_shots,
    unitary_of,
)
from qss.datasets import shipped_noise_model
from qss.gates import ATOL_EVOLUTION
from qss.simulate import _evolve, _op_draws, _pauli_tables, _qubit_state, _regroup, matrices_equal_up_to_phase
import qss.simulate

import oracles
from test_states import GATE_POOL_1Q, random_op_sequence

NOISE_MODELS = {
    "none": None,
    "zero": NoiseModel.zero(),
    "shipped": shipped_noise_model(),
    "heavy": NoiseModel(0.5, 0.5, 0.5),
}


def bell_circuit():
    return Circuit(2, 2).gate("H", 0).gate("CNOT", 0, 1).measure(0, 0).measure(1, 1)


def test_same_seed_reproduces_exactly():
    c = bell_circuit()
    a = simulate_shots(c, RunConfig(shots=2048, seed=9))
    b = simulate_shots(c, RunConfig(shots=2048, seed=9))
    assert a.counts == b.counts


def test_different_seeds_differ():
    c = bell_circuit()
    a = simulate_shots(c, RunConfig(shots=2048, seed=1))
    b = simulate_shots(c, RunConfig(shots=2048, seed=2))
    assert a.counts != b.counts


def test_chunk_size_does_not_change_results(monkeypatch):
    c = Circuit(3, 3).gate("H", 0).gate("CNOT", 0, 1).gate("T", 2).gate("H", 2)
    c.measure(0, 0).measure(1, 1).measure(2, 2)
    baseline = simulate_shots(c, RunConfig(shots=1500, seed=4))
    monkeypatch.setattr(qss.simulate, "_CHUNK_AMPS", 2**5)
    chunked = simulate_shots(c, RunConfig(shots=1500, seed=4))
    assert baseline.counts == chunked.counts


def random_feedforward_circuit(rng) -> Circuit:
    """A 3-5 qubit circuit of gates, measurements and cond ops that read
    already measured clbits."""
    n = int(rng.integers(3, 6))
    c = Circuit(n, 4)
    measured: list[int] = []
    for _ in range(4):
        for name, targets in random_op_sequence(rng, n, int(rng.integers(1, 4))):
            c.gate(name, *targets)
        if measured and rng.random() < 0.7:
            c.cond(GATE_POOL_1Q[rng.integers(len(GATE_POOL_1Q))], int(rng.integers(n)), int(rng.choice(measured)))
        c.measure(int(rng.integers(n)), len(measured))
        measured.append(len(measured))
    return c


@pytest.mark.parametrize("noise", sorted(NOISE_MODELS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_counts_match_trajectory_oracle(noise, seed, monkeypatch):
    circuit = random_feedforward_circuit(np.random.default_rng(seed))
    model = NOISE_MODELS[noise]
    expected = oracles.trajectory_counts(circuit, model, shots=300, seed=seed)
    cfg = RunConfig(shots=300, seed=seed)
    assert simulate_shots(circuit, cfg, noise=model).counts == expected
    # a few shots per batch, so a heavy-noise batch's rows outnumber its
    # shots and are re-packed
    monkeypatch.setattr(qss.simulate, "_CHUNK_AMPS", 2**7)
    assert simulate_shots(circuit, cfg, noise=model).counts == expected


def record_batches(monkeypatch) -> list[int]:
    """Patch _evolve to record the shot count of every sampled batch."""
    sizes: list[int] = []
    evolve = qss.simulate._evolve

    def spy(circuit, u=None, noise=None):
        sizes.append(len(u))
        return evolve(circuit, u, noise)

    monkeypatch.setattr(qss.simulate, "_evolve", spy)
    return sizes


def noisy_chain(num_qubits: int, length: int) -> Circuit:
    """H on every qubit, `length` times over, then every qubit measured."""
    c = Circuit(num_qubits, num_qubits)
    for _ in range(length):
        for q in range(num_qubits):
            c.gate("H", q)
    for q in range(num_qubits):
        c.measure(q, q)
    return c


DRAW_BOUND = noisy_chain(2, 3), NoiseModel(0.2, 0.2, 0.1)


@pytest.mark.parametrize(
    "circuit, noise, chunk, sizes",
    [
        # 2 qubits, 3 noisy gates per qubit and 2 readout measurements:
        # 16 draw columns against 4 amplitudes, so the draws set the batch.
        # One batch would take 2**7 // 16 = 8 shots, fewer than 45, so the
        # run goes in batches of 2**7 // (2 * 16) = 4.
        (*DRAW_BOUND, 2**7, [4] * 11 + [1]),
        # 45 shots x 16 columns fit one batch exactly
        (*DRAW_BOUND, 45 * 16, [45]),
        # one draw short of that: batches of (45 * 16 - 1) // 32 = 22
        (*DRAW_BOUND, 45 * 16 - 1, [22, 22, 1]),
        # no measurement and no noise: one draw column, amplitudes only
        (Circuit(3, 2).gate("H", 0).gate("CNOT", 0, 2), None, 2**6, [8] * 5 + [5]),
        # fewer amplitudes per batch than one shot's 16: one shot per batch
        (noisy_chain(4, 1), shipped_noise_model(), 2**3, [1] * 45),
    ],
    ids=["draw-bound", "fits-one-batch", "one-draw-short", "no-draws", "one-row"],
)
def test_batch_rule_keeps_counts(circuit, noise, chunk, sizes, monkeypatch):
    cfg = RunConfig(shots=45, seed=12)
    expected = oracles.trajectory_counts(circuit, noise, shots=cfg.shots, seed=cfg.seed)
    assert simulate_shots(circuit, cfg, noise=noise).counts == expected
    recorded = record_batches(monkeypatch)
    monkeypatch.setattr(qss.simulate, "_CHUNK_AMPS", chunk)
    assert simulate_shots(circuit, cfg, noise=noise).counts == expected
    assert recorded == sizes


class Boom(RuntimeError):
    pass


def fail_on_call(monkeypatch, name: str, call: int) -> None:
    """Patch qss.simulate.<name> to raise Boom on its call-th call, from 0."""
    real, calls = getattr(qss.simulate, name), []

    def patched(*args, **kwargs):
        calls.append(None)
        if len(calls) - 1 == call:
            raise Boom(f"{name} call {call}")
        return real(*args, **kwargs)

    monkeypatch.setattr(qss.simulate, name, patched)


def fail_on_start(monkeypatch, start: int) -> None:
    """Patch qss.simulate._fill to raise Boom when it is asked to fill from
    uniform `start`, whichever thread asks; the calls of two threads come
    in no fixed order."""
    real = qss.simulate._fill

    def patched(seed, first, out):
        if first == start:
            raise Boom(f"_fill at {start}")
        real(seed, first, out)

    monkeypatch.setattr(qss.simulate, "_fill", patched)


# DRAW_BOUND has 16 draw columns.  At _CHUNK_AMPS = 2**7, 12 shots go in
# three batches of 4: batch 0 is filled in two halves at once, rows 0-1 from
# uniform 0 on the caller and rows 2-3 from uniform 32 on a helper thread;
# the worker fills batch 1 from uniform 64 and batch 2 from 128, each while
# the batch before evolves.
@pytest.mark.parametrize("name, call", [("_fill", 0), ("_fill", 32), ("_fill", 64), ("_fill", 128),
                                        ("_evolve", 0), ("_evolve", 1), ("_evolve", 2)])
def test_a_failing_batch_raises_and_leaves_no_thread(name, call, monkeypatch):
    circuit, noise = DRAW_BOUND
    monkeypatch.setattr(qss.simulate, "_CHUNK_AMPS", 2**7)
    before = threading.active_count()
    if name == "_fill":
        fail_on_start(monkeypatch, call)
        match = f"_fill at {call}"
    else:
        fail_on_call(monkeypatch, name, call)
        match = f"{name} call {call}"
    with pytest.raises(Boom, match=match):
        simulate_shots(circuit, RunConfig(shots=12, seed=3), noise=noise)
    assert threading.active_count() == before


@pytest.mark.parametrize("start", [0, 48])
def test_a_failing_one_batch_fill_raises_and_leaves_no_thread(start, monkeypatch):
    # 6 shots x 16 columns are one batch: rows 0-2 from uniform 0 on the
    # caller, rows 3-5 from uniform 48 on the helper.  Either failure is
    # raised on the caller, after the helper has been joined.
    circuit, noise = DRAW_BOUND
    before = threading.active_count()
    fail_on_start(monkeypatch, start)
    with pytest.raises(Boom, match=f"_fill at {start}"):
        simulate_shots(circuit, RunConfig(shots=6, seed=3), noise=noise)
    assert threading.active_count() == before


def record_fills(monkeypatch) -> dict[int, tuple[threading.Thread, int]]:
    """Patch _fill to record, by first uniform, the thread and row count of
    every fill."""
    fill, fills = qss.simulate._fill, {}

    def recording_fill(seed, start, out):
        fills[start] = threading.current_thread(), len(out)
        fill(seed, start, out)

    monkeypatch.setattr(qss.simulate, "_fill", recording_fill)
    return fills


def test_a_multi_batch_run_draws_on_one_worker(monkeypatch):
    # three batches of 4 shots: batch 0 is filled in halves on the caller and
    # a helper, batches 1 and 2 on one worker thread that serves the whole run
    circuit, noise = DRAW_BOUND
    monkeypatch.setattr(qss.simulate, "_CHUNK_AMPS", 2**7)
    fills = record_fills(monkeypatch)
    simulate_shots(circuit, RunConfig(shots=12, seed=3), noise=noise)
    caller = threading.current_thread()
    assert sorted(fills) == [0, 32, 64, 128]
    assert [rows for _, rows in map(fills.get, sorted(fills))] == [2, 2, 4, 4]
    helper, worker = fills[32][0], fills[64][0]
    assert fills[0][0] is caller and caller is not helper and caller is not worker
    assert fills[128][0] is worker and worker is not helper


@pytest.mark.parametrize("shots, halves", [(1, {0: 1}), (2, {0: 1, 16: 1}), (7, {0: 3, 48: 4})])
def test_a_one_batch_run_draws_in_two_halves_at_once(shots, halves, monkeypatch):
    # the caller fills the first half and one helper thread the rest; a
    # one-row batch is filled on the caller alone
    circuit, noise = DRAW_BOUND
    fills = record_fills(monkeypatch)
    simulate_shots(circuit, RunConfig(shots=shots, seed=3), noise=noise)
    assert {start: rows for start, (_, rows) in fills.items()} == halves
    caller = threading.current_thread()
    assert [fills[start][0] is caller for start in sorted(fills)] == [True] + [False] * (len(fills) - 1)


@pytest.mark.parametrize("start", range(9))
@pytest.mark.parametrize("shape", [(1,), (3,), (2, 5), (4, 3)])
def test_fill_matches_one_serial_draw(start, shape):
    # every start % 4, in and past the first counter step, into rows of
    # widths that do not divide it
    stream = np.random.Generator(np.random.Philox(key=2**64 - 5)).random(64)
    out = np.full(shape, np.nan)
    qss.simulate._fill(2**64 - 5, start, out)
    assert out.tobytes() == stream[start : start + out.size].reshape(shape).tobytes()


@pytest.mark.parametrize(
    "shots, chunk",
    [
        (1, 2**19),  # one row, on the caller alone
        (7, 2**19),  # one batch: halves of 3 and 4 rows
        (12, 2**7),  # batches of 4, halves of 2
        (13, 2**7),  # a last batch of 1
        (45, 45 * 16 - 1),  # batches of 22, halves of 11
    ],
)
def test_every_batch_evolves_its_rows_of_one_serial_draw(shots, chunk, monkeypatch):
    # across the split point and the batch boundaries, the rows evolved are
    # one shots x columns draw from the seed's stream, in shot order
    circuit, noise = DRAW_BOUND
    monkeypatch.setattr(qss.simulate, "_CHUNK_AMPS", chunk)
    seen = []
    evolve = qss.simulate._evolve

    def spy(circuit, u=None, noise=None):
        seen.append(u.copy())
        return evolve(circuit, u, noise)

    monkeypatch.setattr(qss.simulate, "_evolve", spy)
    simulate_shots(circuit, RunConfig(shots=shots, seed=8), noise=noise)
    serial = np.random.Generator(np.random.Philox(key=8)).random((shots, draw_columns(circuit, noise)))
    assert np.concatenate(seen).tobytes() == serial.tobytes()


def test_single_batch_runs_do_not_import_concurrent_futures():
    # Importing concurrent.futures costs a process about 3 ms, so only a
    # multi-batch run imports it.  An 8192-shot noisy protocol run is one
    # batch; the 20,000-shot run after it shows the probe sees the import.
    probe = (
        "import sys, qss.cli\n"
        "from qss import ProtocolConfig, run_protocol\n"
        "from qss.datasets import shipped_noise_model\n"
        "for shots in (8192, 20000):\n"
        "    run_protocol(ProtocolConfig(shots=shots, noise=shipped_noise_model()))\n"
        "    print('concurrent.futures' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(qss.simulate.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, encoding="utf-8", env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_concurrent_pipelined_runs_keep_their_counts(monkeypatch):
    # eight callers on a 2**-20 s switch interval: four multi-batch runs,
    # each with its own draw worker, and four one-batch runs.  Every fill but
    # a caller's own first half sleeps first, so a batch evolved before its
    # helper or worker finished, a draw from the wrong place in the stream or
    # one into the wrong buffer changes a run's counts.
    circuit, noise = DRAW_BOUND
    monkeypatch.setattr(qss.simulate, "_CHUNK_AMPS", 2**7)
    fill = qss.simulate._fill

    def slow_fill(seed, start, out):
        if start:
            time.sleep(0.001)
        fill(seed, start, out)

    monkeypatch.setattr(qss.simulate, "_fill", slow_fill)
    cfgs = [RunConfig(shots=200, seed=seed) for seed in range(4)]
    cfgs += [RunConfig(shots=8, seed=seed) for seed in range(4, 8)]
    expected = [oracles.trajectory_counts(circuit, noise, shots=c.shots, seed=c.seed) for c in cfgs]
    results = [None] * len(cfgs)

    def run(i):
        results[i] = simulate_shots(circuit, cfgs[i], noise=noise).counts

    callers = [threading.Thread(target=run, args=(i,)) for i in range(len(cfgs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(2**-20)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert results == expected


def test_from_codes_matches_the_batch_tally(monkeypatch):
    # the per-batch tally gives the same Counts as tallying every shot's code
    circuit = random_feedforward_circuit(np.random.default_rng(5))
    model = shipped_noise_model()
    monkeypatch.setattr(qss.simulate, "_CHUNK_AMPS", 2**7)
    cfg = RunConfig(shots=500, seed=5)
    expected = oracles.trajectory_counts(circuit, model, shots=cfg.shots, seed=cfg.seed)
    codes = np.repeat([int(key, 2) for key in expected], list(expected.values()))
    np.random.default_rng(0).shuffle(codes)
    assert Counts.from_codes(codes, circuit.num_clbits) == simulate_shots(circuit, cfg, noise=model)


def draw_columns(circuit, noise) -> int:
    """Uniform draws per shot: the column rule summed over the ops."""
    return sum(_op_draws(op, noise)[1] for op in circuit.ops)


def peak_traced_bytes(circuit, shots, noise) -> int:
    """Peak bytes traced by tracemalloc while sampling, numpy buffers
    included; gate tables are cached by a warm-up run first.  A multi-batch
    run imports concurrent.futures on first use (about 100 kB), so it is
    imported first here; else a test run alone would trace that import."""
    import concurrent.futures  # noqa: F401

    simulate_shots(circuit, RunConfig(shots=4, seed=3), noise=noise)
    tracemalloc.start()
    try:
        simulate_shots(circuit, RunConfig(shots=shots, seed=3), noise=noise)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampled_memory_does_not_grow_with_shots(monkeypatch):
    monkeypatch.setattr(qss.simulate, "_CHUNK_AMPS", 2**12)
    c, noise = bell_circuit(), shipped_noise_model()
    small = peak_traced_bytes(c, 2**13, noise)
    assert peak_traced_bytes(c, 2**16, noise) <= 1.2 * small


def test_long_noisy_circuit_memory_is_bounded_by_the_batch(monkeypatch):
    # 102 draw columns per shot on one qubit: a batch sized by amplitudes
    # alone would hold all 1024 shots' draws, 835 kB, at once.
    monkeypatch.setattr(qss.simulate, "_CHUNK_AMPS", 2**12)
    c = noisy_chain(1, 50)
    assert draw_columns(c, shipped_noise_model()) == 102
    assert peak_traced_bytes(c, 1024, shipped_noise_model()) < 4 * 2**12 * 16


def test_a_batch_holds_at_most_one_row_per_shot(monkeypatch):
    # Half the shots take a Pauli at each of the 60 gates, so rows soon
    # outnumber the 36 shots and are re-packed.  A re-pack is a _regroup over
    # every shot; before the three final measurements no other call is.
    c, noise, shots = noisy_chain(3, 20), NoiseModel(0.5, 0.5, 0.1), 36
    calls = []
    regroup = qss.simulate._regroup

    def spy(key, size):
        calls.append(len(key))
        return regroup(key, size)

    monkeypatch.setattr(qss.simulate, "_regroup", spy)
    u = np.random.default_rng(5).random((shots, draw_columns(c, noise)))
    states, creg, group = _evolve(c, u, noise)
    assert calls[:-3].count(shots) > 0
    assert len(states) == len(creg) <= shots and group.shape == (shots,)
    assert 0 <= group.min() and group.max() < len(states)


@pytest.mark.parametrize("size, count", [(1, 1), (1, 50), (2, 1), (7, 3), (40, 1000), (4096, 300)])
def test_regroup_matches_np_unique(size, count):
    rng = np.random.default_rng(size * 1000 + count)
    for key in (rng.integers(size, size=count), np.full(count, size - 1), np.full(count, 0)):
        keys, inverse = _regroup(key, size)
        expected_keys, expected_inverse = np.unique(key, return_inverse=True)
        assert np.array_equal(keys, expected_keys)
        assert np.array_equal(inverse, expected_inverse)
        assert keys.dtype == expected_keys.dtype and inverse.dtype == expected_inverse.dtype


@pytest.mark.parametrize("n", range(1, 6))
def test_pauli_gather_matches_dense_kernel(n):
    # Each row of the oracle's lifted Pauli holds one nonzero entry, so the
    # reference is that entry times one amplitude, with no rounding.
    rng = np.random.default_rng(n)
    states = rng.normal(size=(6, 2**n)) + 1j * rng.normal(size=(6, 2**n))
    rows = np.arange(2**n)
    for q in range(n):
        perm, phase = _pauli_tables(n, q)
        for k, name in enumerate(("X", "Y", "Z")):
            dense = oracles.lift(oracles.GATE_MATRICES[name], (q,), n)
            col = np.abs(dense).argmax(axis=1)
            assert np.count_nonzero(dense) == 2**n
            assert np.array_equal(phase[k] * states[:, perm[k]], dense[rows, col] * states[:, col])


def assert_branches_match_walk(circuit):
    """Same leaves as the recursive walk, bit for bit and in the same order."""
    got = [(b.clbits, b.probability, b.state.tobytes()) for b in enumerate_branches(circuit)]
    assert got == [(clbits, p, state.tobytes()) for clbits, p, state in oracles.walk_branches(circuit)]


@pytest.mark.parametrize("seed", range(12))
def test_branches_match_recursive_walk(seed):
    assert_branches_match_walk(random_feedforward_circuit(np.random.default_rng(100 + seed)))


@pytest.mark.parametrize("mode", ["exact", "coherent"])
@pytest.mark.parametrize("receiver", ["charlie", "bob"])
def test_protocol_branches_match_recursive_walk(mode, receiver):
    assert_branches_match_walk(assemble_circuit(ProtocolConfig(receiver=receiver, mode=mode)))


@pytest.mark.parametrize("seed", range(12))
def test_qubit_state_matches_the_dense_branch_sum(seed):
    # Five measurements of superposed qubits, with cond ops between them,
    # give 16-32 branches, where the coherent protocol circuit has one.
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(3, 6))
    circuit = Circuit(n, 5)
    for clbit in range(5):
        for name, targets in random_op_sequence(rng, n, int(rng.integers(1, 4))):
            circuit.gate(name, *targets)
        if clbit and rng.random() < 0.7:
            circuit.cond(GATE_POOL_1Q[rng.integers(len(GATE_POOL_1Q))], int(rng.integers(n)), int(rng.integers(clbit)))
        q = int(rng.integers(n))
        circuit.gate("H", q).measure(q, clbit)
    leaves = oracles.walk_branches(circuit)
    assert len(leaves) >= 4
    for q in range(n):
        dense = sum(p * oracles.reduced_density(state, [q], n) for _, p, state in leaves)
        np.testing.assert_allclose(_qubit_state(circuit, q).matrix, dense, rtol=0, atol=1e-12)


def test_qubit_state_of_one_branch_is_its_partial_trace():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        c = Circuit(n, 0)
        for name, targets in random_op_sequence(rng, n, int(rng.integers(1, 10))):
            c.gate(name, *targets)
        (branch,) = enumerate_branches(c)
        for q in range(n):
            want = oracles.reduced_density(branch.state, [q], n)
            np.testing.assert_allclose(_qubit_state(c, q).matrix, want, rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match=r"kept qubits \[5\] out of range for 5 qubits"):
        _qubit_state(Circuit(5, 0), 5)


def test_each_share_of_a_ghz_state_is_maximally_mixed():
    # No one party's qubit carries any information on its own.
    ghz = Circuit(3, 0).gate("H", 2).gate("CNOT", 2, 1).gate("CNOT", 2, 0)
    for q in range(3):
        np.testing.assert_allclose(_qubit_state(ghz, q).matrix, np.eye(2) / 2, atol=1e-12)


@pytest.mark.parametrize(
    "prep, draws, outcomes",
    [
        ("H", [0.0, 0.3, 0.4999, 0.5001, 0.7, 0.999], [0, 0, 0, 1, 1, 1]),
        ("X", [0.0, 0.5, 0.999], [1, 1, 1]),
        ("Z", [0.0, 0.5, 0.999], [0, 0, 0]),
    ],
    ids=["plus", "one", "zero"],
)
def test_sampled_collapse_follows_the_draw(prep, draws, outcomes):
    # A shot reads 0 exactly when its collapse draw lies below p0, and its
    # state collapses onto the outcome's normalized basis state.
    c = Circuit(1, 1).gate(prep, 0).measure(0, 0)
    assert draw_columns(c, None) == 1
    states, creg, group = _evolve(c, np.array(draws)[:, None])
    assert creg[group, 0].tolist() == outcomes
    np.testing.assert_allclose(np.abs(states[group]), np.eye(2)[outcomes], atol=1e-12)


def test_sampled_collapse_renormalizes():
    # Measuring one qubit of an entangled state with p0 = cos^2(pi/8) leaves
    # the projection onto the outcome, divided by sqrt(p), on the other qubit.
    ops = [("H", (0,)), ("T", (0,)), ("H", (0,)), ("H", (1,)), ("CNOT", (0, 1))]
    c = Circuit(2, 1)
    for name, targets in ops:
        c.gate(name, *targets)
    c.measure(0, 0)
    psi = oracles.run_ops(ops, 2)
    bit = np.arange(4) & 1
    states, creg, group = _evolve(c, np.array([[0.1], [0.9]]))
    assert creg[group, 0].tolist() == [0, 1]
    for value, row in zip((0, 1), states[group]):
        p = float((np.abs(psi[bit == value]) ** 2).sum())
        assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(row, np.where(bit == value, psi, 0.0) / np.sqrt(p), atol=1e-12)


def test_exact_distribution_single_hadamard():
    c = Circuit(1, 1).gate("H", 0).measure(0, 0)
    dist = exact_distribution(c)
    assert dist["0"] == pytest.approx(0.5, abs=1e-12)
    assert dist["1"] == pytest.approx(0.5, abs=1e-12)


def test_exact_distribution_bell_and_ghz():
    dist = exact_distribution(bell_circuit())
    assert set(dist) == {"00", "11"}
    assert dist["00"] == pytest.approx(0.5, abs=1e-12)
    g = Circuit(3, 3).gate("H", 2).gate("CNOT", 2, 1).gate("CNOT", 2, 0)
    for q in range(3):
        g.measure(q, q)
    dist = exact_distribution(g)
    assert set(dist) == {"000", "111"}
    assert dist["111"] == pytest.approx(0.5, abs=1e-12)


def test_exact_distribution_on_a_register_wider_than_int64():
    c = Circuit(2, 70).gate("H", 0).measure(0, 69).measure(1, 3)
    dist = exact_distribution(c)
    assert list(dist) == ["0" * 70, "1" + "0" * 69]
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "circuit",
    [Circuit(1, 40).gate("H", 0).measure(0, 39), Circuit(2, 70).gate("H", 0).measure(0, 69).measure(1, 3)],
    ids=["40-clbit", "70-clbit"],
)
def test_wide_register_sampling_tallies_only_the_values_seen(circuit):
    # A tally over every register value would take 2**40 or 2**70 entries.
    counts = simulate_shots(circuit, RunConfig(shots=8, seed=1))
    assert list(counts.counts) == list(exact_distribution(circuit))
    assert counts.total == 8


def test_from_codes_takes_wide_register_values():
    codes = np.array([2**69, 0, 2**69, 2**40], dtype=object)
    counts = Counts.from_codes(codes, 70)
    assert list(counts.counts) == ["0" * 70, "0" * 29 + "1" + "0" * 40, "1" + "0" * 69]
    assert list(counts.counts.values()) == [1, 1, 2]
    assert Counts.from_codes(np.array([2**39, 5, 2**39]), 40).counts == {bin(5)[2:].zfill(40): 1, "1" + "0" * 39: 2}
    for bad in ([-1, 0], [4, 0]):
        with pytest.raises(ValueError, match="does not match"):
            Counts.from_codes(np.array(bad), 2)


def test_sampled_agrees_with_exact_distribution():
    c = Circuit(2, 2).gate("H", 0).gate("T", 0).gate("H", 0).gate("H", 1)
    c.measure(0, 0).measure(1, 1)
    dist = exact_distribution(c)
    shots = 20000
    counts = simulate_shots(c, RunConfig(shots=shots, seed=3))
    for key, p in dist.items():
        n = counts.counts.get(key, 0)
        se = np.sqrt(p * (1 - p) / shots)
        assert abs(n / shots - p) < 4 * se + 1e-9, key


def test_branches_cover_the_distribution():
    c = bell_circuit()
    branches = enumerate_branches(c)
    assert len(branches) == 2
    assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-12)
    for b in branches:
        assert np.linalg.norm(b.state) == pytest.approx(1.0, abs=1e-12)
        assert b.clbits[0] == b.clbits[1]


def test_conditional_fires_only_on_one():
    # measure a plus state, then push qubit 1 to match the outcome
    c = Circuit(2, 1).gate("H", 0).measure(0, 0).cond("X", 1, 0)
    branches = sorted(enumerate_branches(c), key=lambda b: b.clbits)
    assert len(branches) == 2
    state0 = branches[0].state
    state1 = branches[1].state
    assert abs(state0[0b00]) == pytest.approx(1.0, abs=1e-12)
    assert abs(state1[0b11]) == pytest.approx(1.0, abs=1e-12)


def test_zero_probability_branches_are_pruned():
    c = Circuit(1, 2).measure(0, 0).gate("H", 0).measure(0, 1)
    branches = enumerate_branches(c)
    # first measurement is deterministic, second is 50/50
    assert sorted(b.clbits for b in branches) == [(0, 0), (0, 1)]


def test_branch_limit_is_enforced(monkeypatch):
    monkeypatch.setattr(qss.simulate, "MAX_BRANCHES", 8)
    c = Circuit(1, 4)
    for i in range(4):
        c.gate("H", 0).measure(0, i)
    with pytest.raises(SimulationError, match="branch count"):
        enumerate_branches(c)
    monkeypatch.setattr(qss.simulate, "MAX_BRANCHES", 16)
    assert len(enumerate_branches(c)) == 16


def test_repeated_measurement_is_consistent():
    # measuring, copying through a CNOT, and measuring again must agree
    c = Circuit(2, 2).gate("H", 0).measure(0, 0).gate("CNOT", 0, 1).measure(1, 1)
    counts = simulate_shots(c, RunConfig(shots=4096, seed=8))
    for key in counts.counts:
        assert key[0] == key[1]


def test_unitary_of_matches_oracle():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        ops = random_op_sequence(rng, n, int(rng.integers(1, 10)))
        c = Circuit(n, 0)
        for name, targets in ops:
            c.gate(name, *targets)
        np.testing.assert_allclose(unitary_of(c), oracles.unitary(ops, n), atol=1e-12)


def test_unitary_of_guards():
    # Circuit's own qubit limit is the only one: 6 to 8 qubits have a
    # unitary too.
    rng = np.random.default_rng(42)
    for n in (6, 7, 8):
        ops = random_op_sequence(rng, n, 20)
        c = Circuit(n, 0)
        for name, targets in ops:
            c.gate(name, *targets)
        np.testing.assert_allclose(unitary_of(c), oracles.unitary(ops, n), atol=1e-12)
    with pytest.raises(SimulationError, match="gate-only"):
        unitary_of(Circuit(1, 1).measure(0, 0))


def test_unitary_of_bytes_match_the_frozen_row_loop():
    # unitary_of now goes through the helper that the routing check shares;
    # it must still return a C-ordered copy with the former loop's bytes.
    rng = np.random.default_rng(2020)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        ops = random_op_sequence(rng, n, int(rng.integers(0, 31)))
        c = Circuit(n, 0)
        for name, targets in ops:
            c.gate(name, *targets)
        u, want = unitary_of(c), oracles.unitary_by_rows(c)
        assert u.flags.c_contiguous and u.shape == want.shape and u.tobytes() == want.tobytes(), ops


def test_matrices_equal_up_to_phase_decides_as_allclose():
    rng = np.random.default_rng(2021)
    cases = []
    for _ in range(400):
        shape = tuple(int(d) for d in rng.integers(1, 9, size=2))
        b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        noise = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        # Differences from 1e-12 to 1e-3 straddle the bound of about 1e-5.
        cases.append((np.exp(2j * np.pi * rng.random()) * b + 10.0 ** rng.uniform(-12, -3) * noise, b))
    # With phase 1 and an entry of b at 0, that entry's bound is atol itself.
    base = np.array([[1.0, 0.0]], dtype=complex)
    at_bound = np.array([[1.0, ATOL_EVOLUTION]], dtype=complex)
    past_bound = np.array([[1.0, np.nextafter(ATOL_EVOLUTION, 1.0)]], dtype=complex)
    signed_zeros = np.array([[1.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]])
    big = np.finfo(float).max
    near_limit = [
        (np.array([big * (0.9 + 0.9j)]), np.array([-1.0 + 0j])),
        (np.array([big, 1.0 + 0j]), np.array([1.0 + 0j, 1.0])),
        (np.array([1.0 + 0j, 1.0]), np.array([big + 0j, 1.0])),
        (np.array([big + 0j, big]), np.array([-big + 0j, big])),
    ]
    cases += [(at_bound, base), (past_bound, base), (signed_zeros, signed_zeros.real), (-signed_zeros, signed_zeros)]
    decided = []
    for a, b in cases + near_limit:
        with np.errstate(all="ignore"):
            want = oracles.up_to_phase_by_allclose(a, b)
        assert matrices_equal_up_to_phase(a, b) is want
        decided.append(want)
    assert 100 <= sum(decided[:400]) <= 300
    assert matrices_equal_up_to_phase(at_bound, base) and not matrices_equal_up_to_phase(past_bound, base)
    # Near the float limit each pair is rejected, and no warning is raised
    # (the suite turns warnings into errors).
    assert not any(matrices_equal_up_to_phase(a, b) for a, b in near_limit)


def test_matrices_equal_up_to_phase():
    u = oracles.GATE_MATRICES["H"]
    assert matrices_equal_up_to_phase(u, np.exp(0.7j) * u)
    assert not matrices_equal_up_to_phase(u, oracles.GATE_MATRICES["X"])
    # rectangular isometries are supported
    iso = np.zeros((4, 2), dtype=complex)
    iso[0, 0] = iso[3, 1] = 1.0
    assert matrices_equal_up_to_phase(1j * iso, iso)


def test_equivalent_up_to_phase_on_circuits():
    # ZX and XZ differ by a global minus sign
    a = Circuit(1, 0).gate("Z", 0).gate("X", 0)
    b = Circuit(1, 0).gate("X", 0).gate("Z", 0)
    assert matrices_equal_up_to_phase(unitary_of(a), unitary_of(b))
    c = Circuit(1, 0).gate("X", 0)
    assert not matrices_equal_up_to_phase(unitary_of(a), unitary_of(c))
    with pytest.raises(ValueError, match="shape mismatch"):
        matrices_equal_up_to_phase(unitary_of(a), unitary_of(Circuit(2, 0)))


def test_wide_register_sampling():
    # 8 qubits is the ceiling and must still sample fine
    c = Circuit(8, 1).gate("H", 7).measure(7, 0)
    counts = simulate_shots(c, RunConfig(shots=512, seed=0))
    assert counts.total == 512
    assert set(counts.counts) <= {"0", "1"}
