"""Command-line interface: payloads, exit codes, determinism."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from qss import DensityMatrix, ProtocolConfig, assemble_circuit, datasets
from qss.cli import main
from qss.fileio import write_json

from conftest import FID_HW_REPORTED, P0_SECRET, RHO_HW, RHO_SECRET, SAMPLED_FROZEN
from golden import INPUT_ERRORS, MALFORMED, write_inputs

FROZEN_SHOTS, FROZEN_SEED, FROZEN_P0 = SAMPLED_FROZEN[0]


def run_cli(*argv):
    return main(list(argv))


def rho_file(tmp_path, name, matrix):
    path = tmp_path / name
    write_json(str(path), DensityMatrix(np.asarray(matrix, dtype=complex)).to_json())
    return str(path)


def circuit_file(tmp_path, name="circuit.json", mode="coherent"):
    path = tmp_path / name
    write_json(str(path), assemble_circuit(ProtocolConfig(mode=mode)).to_json())
    return str(path)


def test_run_sampled_stdout_payload(capsys):
    assert run_cli("run", "--mode", "sampled", "--seed", str(FROZEN_SEED), "--shots", str(FROZEN_SHOTS)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "sampled"
    assert payload["receiver"] == "charlie"
    assert payload["shots"] == FROZEN_SHOTS
    assert payload["seed"] == FROZEN_SEED
    assert payload["p0"] == FROZEN_P0
    assert payload["p1"] == 1.0 - FROZEN_P0
    assert sum(payload["receiver_counts"].values()) == FROZEN_SHOTS
    assert len(payload["transcripts"]) <= 8


def test_run_exact_mode(capsys):
    assert run_cli("run", "--mode", "exact") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["shots"] is None
    assert payload["p0"] == pytest.approx(P0_SECRET, abs=1e-9)
    assert len(payload["transcripts"]) == 8
    assert "receiver_counts" not in payload


def test_run_coherent_mode(capsys):
    assert run_cli("run", "--mode", "coherent", "--receiver", "bob") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["receiver"] == "bob"
    assert payload["p0"] == pytest.approx(P0_SECRET, abs=1e-9)
    assert len(payload["transcripts"]) == 1


def test_run_out_file_prints_summary(tmp_path, capsys):
    out = tmp_path / "run.json"
    assert run_cli(
        "run", "--mode", "sampled", "--seed", str(FROZEN_SEED),
        "--shots", str(FROZEN_SHOTS), "--out", str(out),
    ) == 0
    stdout = capsys.readouterr().out
    assert "receiver P(0) = 0.854004" in stdout
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["p0"] == FROZEN_P0


def test_run_csv_format(capsys):
    assert run_cli(
        "run", "--mode", "sampled", "--seed", str(FROZEN_SEED),
        "--shots", str(FROZEN_SHOTS), "--format", "csv",
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "label,p0,p1"
    label, p0, p1 = lines[1].split(",")
    assert label == str(FROZEN_SHOTS)
    assert float(p0) == FROZEN_P0
    assert float(p1) == 1.0 - FROZEN_P0


def test_run_rejects_bad_usage(capsys):
    assert run_cli("run", "--mode", "sampled", "--shots", "0") == 2
    assert "error" in capsys.readouterr().err
    assert run_cli("run", "--seed", "-3") == 2
    assert "--seed" in capsys.readouterr().err


def test_strict_mode_requires_seed(capsys):
    assert run_cli("run", "--strict") == 2
    assert "--seed" in capsys.readouterr().err
    assert run_cli("run", "--strict", "--seed", "3", "--shots", "256") == 0


def test_run_noise_file_lowers_p0(tmp_path, capsys):
    noise = tmp_path / "noise.json"
    write_json(str(noise), {"p1": 0.05, "p2": 0.05, "p_read": 0.02})
    assert run_cli("run", "--mode", "sampled", "--seed", "1", "--noise", str(noise)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p0"] < 0.82


def test_run_noise_file_schema_error(tmp_path, capsys):
    noise = tmp_path / "noise.json"
    write_json(str(noise), {"p1": 0.05, "p_read": 0.02})
    assert run_cli("run", "--noise", str(noise)) == 2
    assert "$.p2" in capsys.readouterr().err


def test_run_noise_requires_sampled_mode(tmp_path, capsys):
    noise = tmp_path / "noise.json"
    write_json(str(noise), {"p1": 0.05, "p2": 0.05, "p_read": 0.0})
    assert run_cli("run", "--mode", "coherent", "--noise", str(noise)) == 2
    assert "sampled" in capsys.readouterr().err


def test_tomo_stdout_payload(capsys):
    assert run_cli("tomo", "--seed", "3", "--shots", "1024") == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"stokes", "rho_raw", "rho_projected", "physical"}
    assert payload["stokes"][0] == 1.0


def test_tomo_reference_scores_fidelity(tmp_path, capsys):
    ref = rho_file(tmp_path, "secret.json", RHO_SECRET)
    out = tmp_path / "tomo.json"
    assert run_cli(
        "tomo", "--seed", "3", "--shots", "4096",
        "--reference", ref, "--out", str(out),
    ) == 0
    stdout = capsys.readouterr().out
    assert "stokes = (" in stdout
    assert "fidelity (projected) = " in stdout
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["fidelity"] > 0.9


def test_tomo_sampled_base(capsys):
    assert run_cli("tomo", "--mode", "sampled", "--seed", "5", "--shots", "2048") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["physical"] in (True, False)


def test_tomo_csv_rows(capsys):
    assert run_cli("tomo", "--seed", "3", "--shots", "1024", "--format", "csv") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "label,p0,p1"
    assert [line.split(",")[0] for line in lines[1:]] == ["Z", "X", "Y"]
    for line in lines[1:]:
        _, p0, p1 = line.split(",")
        assert float(p0) + float(p1) == pytest.approx(1.0, abs=1e-12)


def test_transpile_bundled_default(tmp_path, capsys):
    src = circuit_file(tmp_path)
    assert run_cli("transpile", src) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["swaps"] == 1
    assert payload["reversals"] == 1
    assert payload["h_pairs"] == 2
    assert payload["final_layout"] == {"0": 0, "1": 1, "2": 3, "3": 2}
    assert len(payload["circuit"]["ops"]) == 19


def test_transpile_check_endorses_the_result(tmp_path, capsys):
    src = circuit_file(tmp_path)
    assert run_cli("transpile", src, "--check") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["check"] == {"legal": True, "equivalent": True, "violations": []}


def test_transpile_layout_flag(tmp_path, capsys):
    src = circuit_file(tmp_path)
    assert run_cli("transpile", src, "--layout", "0:0,1:1,2:2,3:3") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["initial_layout"] == {"0": 0, "1": 1, "2": 2, "3": 3}
    assert run_cli("transpile", src, "--layout", "0:zero") == 2
    assert "--layout" in capsys.readouterr().err


def test_transpile_rejects_csv(tmp_path, capsys):
    src = circuit_file(tmp_path)
    assert run_cli("transpile", src, "--format", "csv") == 2
    assert "--format" in capsys.readouterr().err


def test_fidelity_near_the_float_limit_is_a_schema_error(tmp_path, capsys):
    # Hermitian-checking these entries overflows; that is a failed check,
    # not a warning on stderr.
    big = tmp_path / "big.json"
    write_json(str(big), {"dim": 2, "re": [[0.5, 1e308], [-1e308, 0.5]], "im": [[0, 0], [0, 0]]})
    ok = rho_file(tmp_path, "ok.json", RHO_SECRET)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("fidelity", str(big), ok) == 2
    assert capsys.readouterr() == ("", "error: $: density matrix must be Hermitian\n")


def test_transpile_missing_and_malformed_inputs(tmp_path, capsys):
    assert run_cli("transpile", str(tmp_path / "absent.json")) == 1
    assert "cannot read" in capsys.readouterr().err
    mangled = tmp_path / "mangled.json"
    mangled.write_text("{oops", encoding="utf-8")
    assert run_cli("transpile", str(mangled)) == 2
    assert "$" in capsys.readouterr().err
    # a coupling file that is not there is an I/O failure
    assert run_cli("transpile", circuit_file(tmp_path), "--coupling", str(tmp_path / "missing.json")) == 1
    assert "cannot read" in capsys.readouterr().err


def test_transpile_rejects_non_integer_wires(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    write_json(str(bad), {"qubits": 2, "clbits": 0, "ops": [{"kind": "gate", "name": "CNOT", "targets": [0, 1.7]}]})
    assert run_cli("transpile", str(bad)) == 2
    assert "$.ops[0].targets" in capsys.readouterr().err


def test_fidelity_frozen_output(tmp_path, capsys):
    a = rho_file(tmp_path, "a.json", RHO_SECRET)
    b = rho_file(tmp_path, "b.json", RHO_HW)
    assert run_cli("fidelity", a, b) == 0
    assert capsys.readouterr().out == "0.8394685302\n"
    out = tmp_path / "fid.json"
    assert run_cli("fidelity", a, b, "--compare", str(FID_HW_REPORTED), "--out", str(out)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "0.8394685302"
    assert lines[1] == "delta vs 0.8284: +0.0110685302"
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert set(payload) == {"fidelity", "compare", "delta"}
    assert payload["compare"] == FID_HW_REPORTED


@pytest.mark.parametrize("out", ["absent/fid.json", "taken"])
def test_fidelity_out_failure_prints_nothing(out, tmp_path, capsys):
    # --out names a missing directory, or an existing one that the written
    # temporary file cannot replace; either way nothing is left behind.
    a = rho_file(tmp_path, "a.json", RHO_SECRET)
    (tmp_path / "taken").mkdir()
    assert run_cli("fidelity", a, a, "--out", str(tmp_path / out)) == 1
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a.json", "taken"]


def test_fidelity_requires_square_inputs(tmp_path, capsys):
    a = rho_file(tmp_path, "a.json", RHO_SECRET)
    bad = tmp_path / "bad.json"
    write_json(str(bad), {"dim": 2, "re": [[1, 0]], "im": [[0, 0]]})
    assert run_cli("fidelity", a, str(bad)) == 2
    assert "error" in capsys.readouterr().err


def test_calibrate_matches_shipped_dataset(tmp_path, capsys):
    out = tmp_path / "cal.json"
    assert run_cli("calibrate", "--seed", "0", "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "fitted p = 0.009375" in stdout
    assert "converged = True" in stdout
    shipped = Path(datasets.data_file_path("ibmqx4_calibration.json")).read_text(encoding="utf-8")
    assert out.read_text(encoding="utf-8") == shipped


def test_calibrate_explicit_target(capsys):
    assert run_cli("calibrate", "--target", "0.82", "--seed", "0") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["target"] == 0.82
    assert abs(payload["achieved"] - 0.82) <= 0.005


# 0.85 is below the noiseless 0.853553 but above 0.841, the most that the
# seed-0 estimate of P(0) reaches at the default p_read = 0.02
@pytest.mark.parametrize("target", ["0.95", "0.85", "0.2"])
def test_calibrate_unreachable_target_is_a_runtime_failure(target, capsys):
    assert run_cli("calibrate", "--target", target, "--seed", "0") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: target" in captured.err


# Near the ceiling the estimated P(0) at the smallest strength varies with
# the seed (0.8361 at seed 1, 0.84345 at seed 2), so some of these fits
# converge and some are refused; a refused one prints nothing on stdout.
@pytest.mark.parametrize("seed", ["0", "1", "2", "3"])
@pytest.mark.parametrize("target", ["0.842", "0.843", "0.844"])
def test_calibrate_near_the_ceiling_converges_or_prints_nothing(target, seed, capsys):
    code = run_cli("calibrate", "--target", target, "--seed", seed)
    captured = capsys.readouterr()
    if code == 0:
        assert abs(json.loads(captured.out)["achieved"] - float(target)) <= 0.005
    else:
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: target {target} exceeds ")


def test_calibrate_takes_no_shot_count(capsys):
    assert run_cli("calibrate", "--shots", "100") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --shots 100" in captured.err


def _strict_json(text):
    """Parse RFC 8259 JSON: NaN and Infinity are errors, not numbers."""

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def test_out_files_are_standard_json(tmp_path, capsys):
    a = rho_file(tmp_path, "a.json", RHO_SECRET)
    b = rho_file(tmp_path, "b.json", RHO_HW)
    runs = {
        "fid.json": ["fidelity", a, b, "--compare", str(FID_HW_REPORTED)],
        "cal.json": ["calibrate", "--seed", "0"],
        "run.json": ["run", "--seed", "1", "--shots", "256"],
        "tomo.json": ["tomo", "--seed", "3", "--shots", "256", "--reference", a],
        "route.json": ["transpile", circuit_file(tmp_path), "--check"],
    }
    for name, argv in runs.items():
        assert run_cli(*argv, "--out", str(tmp_path / name)) == 0, argv
        assert isinstance(_strict_json((tmp_path / name).read_text(encoding="utf-8")), dict)
    capsys.readouterr()


def test_usage_errors(capsys):
    assert run_cli() == 2
    capsys.readouterr()
    assert run_cli("frobnicate") == 2
    capsys.readouterr()
    assert run_cli("run", "--mode", "sideways") == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", INPUT_ERRORS.values(), ids=INPUT_ERRORS.keys())
def test_input_errors_exit_2(argv, message, tmp_path, capsys):
    write_inputs(tmp_path)
    assert run_cli(*(arg.format(tmp=tmp_path) for arg in argv)) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "out.json").exists()


FILE_ARGUMENTS = {
    "transpile-CIRCUIT": ["transpile", "{bad}"],
    "transpile-coupling": ["transpile", "{tmp}/pair.json", "--coupling", "{bad}"],
    "run-noise": ["run", "--noise", "{bad}"],
    "tomo-reference": ["tomo", "--reference", "{bad}"],
    "fidelity-A": ["fidelity", "{bad}", "{tmp}/half.json"],
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("inputs")
    write_inputs(tmp)
    return tmp


@pytest.mark.parametrize("malformed", MALFORMED)
@pytest.mark.parametrize("argv", FILE_ARGUMENTS.values(), ids=FILE_ARGUMENTS.keys())
def test_malformed_json_at_every_file_argument(argv, malformed, inputs, capsys):
    bad = inputs / f"{malformed}.json"
    assert run_cli(*(arg.format(tmp=inputs, bad=bad) for arg in argv)) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith(f"error: $: invalid JSON in {bad}: ") and stderr.count("\n") == 1, stderr
