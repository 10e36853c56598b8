"""Golden output manifest: the recorded bytes of the qss command line and demos.

Each entry is one `qss.cli.main` argument list.  Its exit code, stdout,
stderr and, when it passes `--out`, the file it wrote are recorded under
`tests/golden/`, together with the stdout of every demo.  File arguments
live in a temporary directory written by `write_inputs`; its path is
recorded as the placeholder `{tmp}`.  `test_golden.py` replays every entry
in-process and compares.

When the numpy version matches the recorded one, the bytes must match.
Otherwise numpy's generators or LAPACK may move a float, so outputs are
compared parsed: text and integers (counts, exit codes) exactly, floats to
1e-12.  Help and usage text comes from argparse; under another Python
version only its exit code is compared.

Regenerate the recorded outputs from the current tree with

    PYTHONPATH=src python tests/golden.py

and declare in CHANGES.md that, and why, a change regenerated them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import runpy
import shutil
import sys
import tempfile
from pathlib import Path
from unittest.mock import patch

import numpy as np

from qss import Circuit, DensityMatrix, ProtocolConfig, assemble_circuit, datasets
from qss.cli import main
from qss.fileio import write_json

from conftest import RHO_HW, RHO_SECRET

GOLDEN = Path(__file__).with_name("golden")
DEMOS = Path(__file__).resolve().parent.parent / "demos"
PLACEHOLDER = "{tmp}"
FLOAT_TOL = 1e-12
NUMPY, PYTHON = np.__version__, "{}.{}".format(*sys.version_info[:2])

# ValueErrors that a valid command line with schema-valid files can reach.
# Each names an input the user can fix, so each is a usage error: exit 2,
# nothing on stdout, one error line on stderr.
INPUT_ERRORS = {
    "transpile-disconnected-coupling": (
        ["transpile", "{tmp}/far.json", "--coupling", "{tmp}/disconnected.json"],
        "qubits 0 and 2 are not connected",
    ),
    "transpile-too-many-qubits": (["transpile", "{tmp}/six.json"], "circuit needs 6 qubits, device has 5"),
    "transpile-gate-after-measure": (["transpile", "{tmp}/mid.json"], "measurements must be terminal for routing"),
    "transpile-layout-past-device": (
        ["transpile", "{tmp}/pair.json", "--layout", "0:9"],
        "--layout: physical qubit 9 out of range",
    ),
    "fidelity-negative-eigenvalue": (
        ["fidelity", "{tmp}/negative.json", "{tmp}/half.json"],
        "eigenvalue -5.000e-01 below -1e-09; matrix is not positive semidefinite",
    ),
    "fidelity-dimension-mismatch": (
        ["fidelity", "{tmp}/four.json", "{tmp}/half.json"],
        "dimension mismatch: (4, 4) vs (2, 2)",
    ),
    "tomo-reference-dimension": (["tomo", "--reference", "{tmp}/four.json"], "dimension mismatch: (2, 2) vs (4, 4)"),
    "run-negative-shots": (["run", "--shots", "-1"], "sampled mode needs shots >= 1"),
    "calibrate-p-read-past-one": (["calibrate", "--p-read", "1.5"], "p_read = 1.5 lies outside [0, 1]"),
    "calibrate-seed-past-64-bits": (
        ["calibrate", "--seed", "18446744073709551616"],
        "--seed: seed must be a 64-bit unsigned integer",
    ),
    "calibrate-nan-target": (
        ["calibrate", "--target", "nan", "--out", "{tmp}/out.json"],
        "target P(0) must be finite, got nan",
    ),
    "fidelity-nan-compare": (
        ["fidelity", "{tmp}/half.json", "{tmp}/half.json", "--compare", "nan", "--out", "{tmp}/out.json"],
        "--compare: must be finite, got nan",
    ),
    "fidelity-modulus-overflow": (
        ["fidelity", "{tmp}/overflow.json", "{tmp}/half.json"],
        "$: density matrix must be finite",
    ),
    "transpile-layout-repeated-logical": (
        ["transpile", "{tmp}/pair.json", "--layout", "0:1,1:2,0:3"],
        "--layout: logical qubit 0 is placed twice",
    ),
    "transpile-layout-unknown-logical": (
        ["transpile", "{tmp}/pair.json", "--layout", "0:1,1:2,7:3"],
        "initial mapping places logical qubit 7, but the circuit has 2 qubits",
    ),
    "transpile-wide-coupling": (
        ["transpile", "{tmp}/pair.json", "--coupling", "{tmp}/wide.json"],
        "$: num_physical must be in [1, 8]",
    ),
}

# Files that no JSON reader accepts, each for a reason of its own.
MALFORMED = {
    "trailing": b'{"qubits": 2} {}',
    "latin1": '{"p1": 0.001, "note": "caf\u00e9"}'.encode("latin-1"),
    "deep": b"[" * 100_000 + b"]" * 100_000,
    "long": b'{"qubits": ' + b"9" * 5000 + b"}",
}

# Runs that must succeed, then runtime failures (exit 1), then argparse's
# own help and usage output (names start with "usage-").
ENTRIES = {
    "run-default": ["run"],
    "run-sampled": ["run", "--mode", "sampled", "--seed", "7", "--shots", "8192"],
    "run-sampled-csv": ["run", "--seed", "11", "--shots", "4096", "--format", "csv"],
    "run-sampled-bob-out": ["run", "--receiver", "bob", "--seed", "3", "--shots", "1024", "--out", "{tmp}/run.json"],
    "run-sampled-noise": ["run", "--noise", "{tmp}/noise.json", "--seed", "9", "--shots", "100000"],
    "run-sampled-noise-bob-csv": [
        "run", "--noise", "{tmp}/noise.json", "--receiver", "bob", "--seed", "2", "--shots", "8192", "--format", "csv",
    ],
    "run-exact": ["run", "--mode", "exact"],
    "run-exact-csv": ["run", "--mode", "exact", "--format", "csv"],
    "run-coherent-bob": ["run", "--mode", "coherent", "--receiver", "bob"],
    "run-coherent-csv-out": ["run", "--mode", "coherent", "--format", "csv", "--out", "{tmp}/run.csv"],
    "tomo-default": ["tomo", "--seed", "3"],
    "tomo-csv": ["tomo", "--seed", "3", "--shots", "1024", "--format", "csv"],
    "tomo-sampled-noise": ["tomo", "--mode", "sampled", "--noise", "{tmp}/noise.json", "--seed", "4"],
    "tomo-reference-bob-out": [
        "tomo", "--receiver", "bob", "--seed", "5", "--shots", "2048",
        "--reference", "{tmp}/secret.json", "--out", "{tmp}/tomo.json",
    ],
    "transpile-coherent": ["transpile", "{tmp}/coherent.json"],
    "transpile-coherent-check": ["transpile", "{tmp}/coherent.json", "--check"],
    "transpile-feedforward-check-out": ["transpile", "{tmp}/feedforward.json", "--check", "--out", "{tmp}/route.json"],
    "transpile-sampled-check": ["transpile", "{tmp}/sampled.json", "--check"],
    "transpile-layout": ["transpile", "{tmp}/coherent.json", "--layout", "0:4,1:3,2:2,3:1", "--check"],
    "transpile-line-coupling": ["transpile", "{tmp}/far.json", "--coupling", "{tmp}/line.json", "--check"],
    "fidelity": ["fidelity", "{tmp}/secret.json", "{tmp}/hw.json"],
    "fidelity-compare-out": [
        "fidelity", "{tmp}/secret.json", "{tmp}/hw.json", "--compare", "0.8284", "--out", "{tmp}/fid.json",
    ],
    "calibrate-default": ["calibrate"],
    "calibrate-seed-1-bob": ["calibrate", "--seed", "1", "--receiver", "bob"],
    "calibrate-target-out": ["calibrate", "--target", "0.82", "--seed", "0", "--out", "{tmp}/cal.json"],
    "calibrate-p-read-0": ["calibrate", "--p-read", "0", "--seed", "2"],
    "run-strict": ["run", "--strict"],
    "calibrate-strict": ["calibrate", "--strict", "--target", "0.8"],
    **{name: argv for name, (argv, _) in INPUT_ERRORS.items()},
    "transpile-nested-too-deep": ["transpile", "{tmp}/deep.json"],
    "run-noise-not-utf8": ["run", "--noise", "{tmp}/latin1.json"],
    "fidelity-long-integer": ["fidelity", "{tmp}/long.json", "{tmp}/half.json"],
    "transpile-absent-circuit": ["transpile", "{tmp}/absent.json"],
    "transpile-absent-coupling": ["transpile", "{tmp}/coherent.json", "--coupling", "{tmp}/absent.json"],
    "calibrate-target-above-ceiling": ["calibrate", "--target", "0.95", "--seed", "0"],
    "calibrate-target-near-ceiling": ["calibrate", "--target", "0.842", "--seed", "1"],
    "calibrate-target-below-floor": ["calibrate", "--target", "0.2", "--seed", "0"],
    "usage-run-help": ["run", "--help"],
    "usage-tomo-help": ["tomo", "--help"],
    "usage-calibrate-help": ["calibrate", "--help"],
    "usage-calibrate-shots": ["calibrate", "--shots", "100"],
}


def write_inputs(tmp: Path) -> None:
    """Write every file an entry, INPUT_ERRORS or MALFORMED names into tmp."""
    big = 1.6e308
    files = {
        "disconnected": {"qubits": 4, "edges": [[0, 1], [2, 3]]},
        "line": {"qubits": 4, "edges": [[0, 1], [2, 1], [2, 3]]},
        # one wire past the widest device a circuit fits
        "wide": {"qubits": 9, "edges": [[q, q + 1] for q in range(8)]},
        "far": Circuit(4, 0).gate("CNOT", 0, 2).to_json(),
        "six": Circuit(6, 0).gate("H", 0).to_json(),
        "mid": Circuit(2, 1).measure(0, 0).gate("H", 0).to_json(),
        "pair": Circuit(2, 0).gate("CNOT", 0, 1).to_json(),
        "coherent": assemble_circuit(ProtocolConfig(mode="coherent")).to_json(),
        # Charlie's feedforward circuit, whose partner H follows two measurements
        "sampled": assemble_circuit(ProtocolConfig()).to_json(),
        # a measured tail with conds, one of them a CNOT that routing reverses
        "feedforward": Circuit(4, 2).gate("H", 0).gate("CNOT", 0, 3).measure(0, 0).measure(3, 1)
        .cond("X", 2, 0).cond("CNOT", (1, 2), 1).to_json(),
        # Each part is finite, but |h| overflows to inf.
        "overflow": {"dim": 2, "re": [[0.5, big], [big, 0.5]], "im": [[0, big], [big, 0]]},
    }
    for name, obj in files.items():
        write_json(str(tmp / f"{name}.json"), obj)
    matrices = {
        "negative": np.diag([1.5, -0.5]),
        "half": np.eye(2) / 2,
        "four": np.eye(4) / 4,
        "secret": RHO_SECRET,
        "hw": RHO_HW,
    }
    for name, matrix in matrices.items():
        write_json(str(tmp / f"{name}.json"), DensityMatrix(np.asarray(matrix, dtype=complex)).to_json())
    for name, data in MALFORMED.items():
        (tmp / f"{name}.json").write_bytes(data)
    shutil.copyfile(datasets.data_file_path("ibmqx4_calibration.json"), tmp / "noise.json")


def run_entry(argv: list[str], tmp: Path) -> dict:
    """Run one argument list in-process: its exit code and its outputs, with
    the temporary directory replaced by the placeholder."""
    out, err = io.StringIO(), io.StringIO()
    args = [a.replace(PLACEHOLDER, str(tmp)) for a in argv]
    # argparse wraps help text to $COLUMNS
    with patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    streams = {"stdout": out.getvalue(), "stderr": err.getvalue(), "out": ""}
    if "--out" in argv:
        written = Path(args[argv.index("--out") + 1])
        if written.exists():
            streams["out"] = written.read_text(encoding="utf-8")
            written.unlink()
    return {"exit": code, **{k: v.replace(str(tmp), PLACEHOLDER) for k, v in streams.items()}}


def run_demo(path: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def demo_paths() -> list[Path]:
    return sorted(DEMOS.glob("*.py"))


def load_manifest() -> dict:
    return json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


def recorded(name: str, stream: str) -> str:
    """A recorded stream; a stream that was empty has no file."""
    path = GOLDEN / f"{name}.{stream}"
    return path.read_text(encoding="utf-8") if path.exists() else ""


_NUMBER = re.compile(r"-?\d+(\.\d+)?([eE][-+]?\d+)?|-?\.\d+([eE][-+]?\d+)?")


def _tokens(text: str) -> list[tuple[str, object]]:
    """Text split into literal runs and numbers: ints as int, others as float."""
    out, pos = [], 0
    for m in _NUMBER.finditer(text):
        out.append(("text", text[pos : m.start()]))
        s = m.group()
        out.append(("int", int(s)) if re.fullmatch(r"-?\d+", s) else ("float", float(s)))
        pos = m.end()
    out.append(("text", text[pos:]))
    return out


def same_parsed(expected: str, actual: str) -> bool:
    """Equal text and integers, and floats equal to FLOAT_TOL."""
    a, b = _tokens(expected), _tokens(actual)
    if len(a) != len(b):
        return False
    for (ka, va), (kb, vb) in zip(a, b):
        if ka != kb:
            return False
        if ka == "float":
            if not math.isclose(va, vb, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL):
                return False
        elif va != vb:
            return False
    return True


def _write(name: str, stream: str, text: str) -> None:
    if text:
        (GOLDEN / f"{name}.{stream}").write_text(text, encoding="utf-8")


def regenerate() -> None:
    """Rewrite tests/golden/ from the current tree."""
    if GOLDEN.exists():
        shutil.rmtree(GOLDEN)
    GOLDEN.mkdir()
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        for name, argv in ENTRIES.items():
            result = run_entry(argv, Path(tmp))
            entries[name] = {"argv": argv, "exit": result["exit"]}
            for stream in ("stdout", "stderr", "out"):
                _write(name, stream, result[stream])
    for path in demo_paths():
        _write(f"demo-{path.stem}", "stdout", run_demo(path))
    head = {
        "numpy": NUMPY,
        "python": PYTHON,
        "demos": [path.name for path in demo_paths()],
    }
    # one line per entry, so a changed exit code is a one-line diff
    lines = [f"  {json.dumps(key)}: {json.dumps(value)}," for key, value in head.items()]
    lines += ['  "entries": {'] + [f"    {json.dumps(name)}: {json.dumps(e)}," for name, e in entries.items()]
    lines[-1] = lines[-1].rstrip(",")
    text = "{\n" + "\n".join(lines) + "\n  }\n}\n"
    (GOLDEN / "manifest.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    regenerate()
    print(f"wrote {GOLDEN}")
