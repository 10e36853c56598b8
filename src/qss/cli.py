"""Command-line driver: run, tomo, transpile, fidelity, calibrate.

Exit codes: 0 success, 1 runtime or compute failure, 2 usage or schema
violation.  Primary output goes to --out when given (written atomically),
otherwise to stdout; identical command lines with identical seeds produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import datasets
from .circuit import _check_seed
from .fidelity import fidelity
from .fileio import (
    SchemaError,
    _reported_at,
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
from .noise import CalibrationError, fit_depolarizing_detail
from .protocol import (
    MODES,
    RECEIVERS,
    ProtocolConfig,
    aggregate_receiver_counts,
    assemble_circuit,
    receiver_p0,
    run_protocol,
)
from .routing import QubitMapping, check_routing, route
from .simulate import SimulationError
from .tomography import BASES, TomographyJob, measurement_variant, run_tomography


def _add_seeded(p: argparse.ArgumentParser) -> None:
    """The flags of every seeded subcommand: run, tomo and calibrate."""
    p.add_argument("--seed", type=int, default=None, help="run seed (defaults to 0)")
    p.add_argument("--receiver", choices=RECEIVERS, default="charlie")
    p.add_argument("--out", metavar="PATH", help="write primary output here")
    p.add_argument("--strict", action="store_true", help="error if --seed is omitted")


def _add_common(p: argparse.ArgumentParser) -> None:
    _add_seeded(p)
    p.add_argument("--shots", type=int, default=8192)
    p.add_argument("--noise", metavar="FILE", help="noise model JSON")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qss", description="GHZ secret-sharing simulator toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the protocol and report receiver statistics")
    _add_common(p)
    p.add_argument("--mode", choices=MODES, default="sampled")
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("tomo", help="tomograph the receiver qubit")
    _add_common(p)
    p.add_argument("--mode", choices=("coherent", "sampled"), default="coherent", help="base circuit form")
    p.add_argument("--reference", metavar="FILE", help="density matrix JSON to score fidelity against")
    p.set_defaults(handler=cmd_tomo)

    p = sub.add_parser("transpile", help="route a circuit file onto a coupling map")
    p.add_argument("circuit", metavar="CIRCUIT")
    p.add_argument("--coupling", metavar="FILE", help="coupling JSON (default: bundled ibmqx4)")
    p.add_argument("--layout", metavar="L:P,...", help="initial logical:physical placement")
    p.add_argument("--check", action="store_true", help="verify legality and equivalence")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(handler=cmd_transpile)

    p = sub.add_parser("fidelity", help="Uhlmann fidelity between two density-matrix files")
    p.add_argument("rho_t", metavar="A")
    p.add_argument("rho_e", metavar="B")
    p.add_argument("--compare", type=float, metavar="F", help="also print the delta to this value")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(handler=cmd_fidelity)

    p = sub.add_parser("calibrate", help="fit depolarizing strength to a target receiver P(0)")
    p.add_argument("--target", type=float, default=None, help="target P(0) (default: bundled hardware value)")
    p.add_argument("--p-read", type=float, default=0.02, dest="p_read")
    _add_seeded(p)
    p.set_defaults(handler=cmd_calibrate)

    return parser


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is None:
        if args.strict:
            raise SchemaError("--seed", "required in strict mode")
        return 0
    with _reported_at("--seed"):
        _check_seed(args.seed)
    return args.seed


def _load_noise(args: argparse.Namespace):
    if args.noise is None:
        return None
    return parse_noise(read_json(args.noise))


def _emit(args: argparse.Namespace, text: str, summary: list[str]) -> None:
    if args.out:
        atomic_write_text(args.out, text)
        for line in summary:
            print(line)
    else:
        sys.stdout.write(text)


def cmd_run(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    noise = _load_noise(args)
    cfg = ProtocolConfig(receiver=args.receiver, mode=args.mode, shots=args.shots, seed=seed, noise=noise)
    transcripts = run_protocol(cfg)
    p0 = receiver_p0(transcripts)
    payload = {
        "mode": cfg.mode,
        "receiver": cfg.receiver,
        "shots": cfg.shots if cfg.mode == "sampled" else None,
        "seed": seed,
        "p0": p0,
        "p1": 1.0 - p0,
        "transcripts": [t.to_json() for t in transcripts],
    }
    if cfg.mode == "sampled":
        payload["receiver_counts"] = dict(sorted(aggregate_receiver_counts(transcripts).counts.items()))
    if args.format == "csv":
        label = str(cfg.shots) if cfg.mode == "sampled" else cfg.mode
        text = dump_csv([(label, repr(p0), repr(1.0 - p0))], ("label", "p0", "p1"))
    else:
        text = dump_json(payload)
    _emit(args, text, [f"receiver P(0) = {p0:.6f}  P(1) = {1.0 - p0:.6f}"])
    return 0


def cmd_tomo(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    noise = _load_noise(args)
    reference = None
    if args.reference:
        reference = parse_density_matrix(read_json(args.reference))
    cfg = ProtocolConfig(receiver=args.receiver, mode=args.mode)
    job = TomographyJob(
        base_circuit=assemble_circuit(cfg),
        target_qubit=cfg.receiver_wire,
        shots_per_basis=args.shots,
        seed=seed,
    )
    result = run_tomography(job, reference=reference, noise=noise)
    if args.format == "csv":
        rows = []
        for basis in BASES:
            counts = result.basis_counts[basis]
            rows.append((basis, repr(counts.p0()), repr(1.0 - counts.p0())))
        text = dump_csv(rows, ("label", "p0", "p1"))
    else:
        text = dump_json(result.to_json())
    summary = [
        "stokes = ({:.4f}, {:.4f}, {:.4f}, {:.4f})".format(*result.stokes.as_tuple()),
        f"physical = {result.physical}",
    ]
    if result.fidelity_vs_reference is not None:
        summary.append(f"fidelity (projected) = {result.fidelity_vs_reference:.6f}")
    if result.fidelity_raw_vs_reference is not None:
        summary.append(f"fidelity (raw) = {result.fidelity_raw_vs_reference:.6f}")
    _emit(args, text, summary)
    return 0


def _parse_layout(spec: str, num_physical: int) -> QubitMapping:
    l2p = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            logical, physical = (int(v) for v in item.split(":"))
        except ValueError as exc:
            raise SchemaError("--layout", f"bad entry {item!r}, expected L:P") from exc
        if logical in l2p:
            raise SchemaError("--layout", f"logical qubit {logical} is placed twice")
        l2p[logical] = physical
    with _reported_at("--layout"):
        return QubitMapping(l2p, num_physical)


def cmd_transpile(args: argparse.Namespace) -> int:
    circuit = parse_circuit(read_json(args.circuit))
    coupling_file = args.coupling or datasets.data_file_path("ibmqx4.json")
    graph = parse_coupling(read_json(coupling_file))
    initial = _parse_layout(args.layout, graph.num_physical) if args.layout else None
    report = route(circuit, graph, initial)
    payload = report.to_json()
    summary = [f"swaps = {report.swaps}  reversals = {report.reversals}  ops = {len(report.circuit.ops)}"]
    code = 0
    if args.check:
        result = check_routing(circuit, report, graph)
        payload["check"] = {
            "legal": result.legal,
            "equivalent": result.equivalent,
            "violations": list(result.violations),
        }
        summary.append(f"check: legal = {result.legal}  equivalent = {result.equivalent}")
        if not result.ok:
            code = 1
    text = dump_json(payload)
    _emit(args, text, summary)
    return code


def cmd_fidelity(args: argparse.Namespace) -> int:
    if args.compare is not None and not math.isfinite(args.compare):
        raise SchemaError("--compare", f"must be finite, got {args.compare}")
    rho_t = parse_density_matrix(read_json(args.rho_t))
    rho_e = parse_density_matrix(read_json(args.rho_e))
    f = fidelity(rho_t, rho_e)
    lines = [f"{f:.10f}"]
    payload = {"fidelity": f}
    if args.compare is not None:
        delta = f - args.compare
        lines.append(f"delta vs {args.compare:.4f}: {delta:+.10f}")
        payload["compare"] = args.compare
        payload["delta"] = delta
    if args.out:  # written first, as _emit does, so a failed write prints nothing
        write_json(args.out, payload)
    print("\n".join(lines))
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    target = args.target
    if target is None:
        target = float(datasets.load_reference_runs()["receiver_p0_hardware"]["8192"])
    cfg = ProtocolConfig(receiver=args.receiver, mode="coherent")
    circuit, _ = measurement_variant(assemble_circuit(cfg), cfg.receiver_wire, "Z")
    detail = fit_depolarizing_detail(target, circuit, p_read=args.p_read, seed=seed)
    payload = detail.to_json()
    text = dump_json(payload)
    summary = [
        f"fitted p = {detail.fitted_p:.6f}  achieved P(0) = {detail.achieved:.4f}  target = {detail.target:.4f}",
        f"converged = {detail.converged} after {detail.iterations} iterations",
    ]
    _emit(args, text, summary)
    if not detail.converged:
        print("calibration did not converge", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except (SimulationError, OSError, CalibrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
