"""The package's public surface: what `qss.__all__` promises resolves, the
traced modules' public functions are the pinned ones, and the README's
Python examples run and print what they say."""

import contextlib
import importlib
import importlib.util
import inspect
import io
import pathlib
import re

import qss

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# The benchmark's tracer wraps every public module-level function of these
# modules, so each one adds a span per call.  A helper in a hot path is
# private; a new public function here is a declared change to this table.
TRACED_PUBLIC = {
    "states": ("apply_gate", "apply_unitary"),
    "simulate": ("enumerate_branches", "exact_distribution", "matrices_equal_up_to_phase", "simulate_shots",
                 "unitary_of"),
    "noise": ("fit_depolarizing_detail",),
    "protocol": ("aggregate_receiver_counts", "assemble_circuit", "correction_for", "pre_correction_reduced_dm",
                 "receiver_p0", "run_protocol"),
    "circuit": ("bitstring",),
    "tomography": ("basis_seed", "estimate_stokes", "exact_stokes", "measurement_variant", "project_to_physical",
                   "reconstruct", "run_tomography"),
    "stokes": ("density_from_stokes", "stokes_from_density"),
    "fidelity": ("fidelity", "psd_sqrt", "pure_state_fidelity"),
    "routing": ("check_routing", "decompose_swap", "route"),
    "fileio": ("atomic_write_text", "dump_csv", "dump_json", "parse_circuit", "parse_coupling",
               "parse_density_matrix", "parse_noise", "read_json", "write_json"),
    "cli": ("build_parser", "cmd_calibrate", "cmd_fidelity", "cmd_run", "cmd_tomo", "cmd_transpile", "main"),
}


def test_every_export_resolves_once():
    assert len(qss.__all__) == len(set(qss.__all__))
    missing = [name for name in qss.__all__ if not hasattr(qss, name)]
    assert missing == []


def test_traced_modules_expose_only_the_pinned_public_functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tuple(TRACED_PUBLIC) == tracer.LAYERS
    for layer, pinned in TRACED_PUBLIC.items():
        mod = importlib.import_module(f"qss.{layer}")
        public = tuple(
            sorted(
                attr
                for attr, obj in vars(mod).items()
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_")
            )
        )
        assert public == pinned, layer


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    # the two values the quick start prints in its comments
    assert lines[:2] == ["0.853553390593273", "0.85400390625"]
    # the routing example's check_routing(...).ok
    assert lines[-1] == "True"
