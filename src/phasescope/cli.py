"""Command-line interface: trace analysis, method comparison, synthesis.

Exit codes: 0 success, 1 internal analysis failure, 2 usage/input errors
(bad files, malformed traces or scenarios, any OSError on an input or
output path).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

from . import baseline, phases, spectral, synth
from .attribution import attribute_block_cpi, build_waveform, golden_waveform, waveform_csv
from .phases import CONFIG_TYPES, AnalysisConfig, check_config_value
from .trace import TraceFormatError, float_reprs, load_trace, save_trace


class InputError(ValueError):
    """Input violates a command's contract (maps to exit code 2)."""


def _check_config_value(name: str, value, source: str) -> None:
    """check_config_value, with the file or flag that gave the value named."""
    try:
        check_config_value(name, value)
    except ValueError as exc:
        raise InputError(f"{source}: {exc}") from None


def _config_from_args(args) -> AnalysisConfig:
    values: dict = {}
    if getattr(args, "config", None):
        try:
            values = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            # ValueError: not UTF-8 or not JSON (json.JSONDecodeError);
            # RecursionError: JSON nested past the interpreter's recursion limit
            raise InputError(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(values, dict):
            raise InputError(f"config {args.config} must hold a JSON object of config fields")
        unknown = values.keys() - CONFIG_TYPES.keys()
        if unknown:
            raise InputError(f"unknown config fields: {sorted(unknown)}")
        for name, value in values.items():
            _check_config_value(name, value, f"config {args.config}")
    for name in CONFIG_TYPES:
        override = getattr(args, name, None)
        if override is not None:
            _check_config_value(name, override, "--" + name.replace("_", "-"))
            values[name] = override
    try:
        return AnalysisConfig(**values)
    except ValueError as exc:
        raise InputError(f"bad analysis config: {exc}") from None


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with analysis config fields")
    for name, kind in CONFIG_TYPES.items():
        parser.add_argument("--" + name.replace("_", "-"), dest=name, type=kind)


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def cmd_analyze(args) -> None:
    config = _config_from_args(args)
    trace = load_trace(args.trace)

    spectra: list[tuple[int, int, int, spectral.Spectrum]] = []
    sink = (lambda d, a, b, s: spectra.append((d, a, b, s))) if args.spectrum_dir else None
    # the waveform CSV needs the block profiles the analysis attributes
    profiles = attribute_block_cpi(trace) if args.waveform_csv else None
    tree = phases.analyze(trace, config, spectrum_sink=sink, profiles=profiles)

    tree_text = phases.tree_json(tree, trace.blocks)
    if args.tree:
        _write(args.tree, tree_text)
    else:
        sys.stdout.write(tree_text)

    if args.waveform_csv:
        wave = build_waveform(trace, profiles, config.resolution)
        _write(args.waveform_csv, waveform_csv(trace, wave))
    if args.spectrum_dir:
        directory = Path(args.spectrum_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for depth, start, stop, spec in spectra:
            path = directory / f"spectrum_d{depth}_i{start}_{stop}.csv"
            _write(str(path), spectral.spectrum_csv(spec))
    if args.markers:
        _write(args.markers, phases.markers_json(phases.export_markers(tree, trace.blocks)))


def cmd_compare(args) -> None:
    config = _config_from_args(args)
    if any(length < 1 for length in args.tq or []):
        raise InputError("--tq must be positive")
    if not args.merge_delta > 0:
        raise InputError("--merge-delta must be positive")
    trace = load_trace(args.trace)
    if not trace.is_golden:
        raise InputError("golden cycles required for comparison")
    total = trace.total_instructions

    golden = golden_waveform(trace, config.resolution)
    zero = golden.samples == 0
    if zero.any():
        offset = int(golden.sample_offsets[zero.argmax()])
        raise InputError(f"golden CPI is 0 at instruction offset {offset}, where MAPE is undefined")
    tree = phases.analyze(trace, config)
    predicted = baseline.predict_waveform(tree, total, config.resolution)
    reports: list[tuple[baseline.ErrorReport, int]] = [
        (baseline.error_rate(predicted, golden, "bbfda"), sum(1 for _ in tree.walk()))
    ]
    columns = [("bbfda", predicted)]

    quantum_lengths = args.tq or [max(1, total // 64), max(1, total // 8)]
    for length in quantum_lengths:
        tq = baseline.tq_phases(trace, length, args.merge_delta)
        pred = baseline.predict_waveform(tq, total, config.resolution)
        label = f"tq-{length}"
        reports.append((baseline.error_rate(pred, golden, label), len(tq.phases)))
        columns.append((label, pred))

    _write(args.out, baseline.comparison_json(args.trace, reports))
    if args.samples_csv:
        header = "instruction_offset,golden_cpi," + ",".join(label for label, _ in columns)
        cells = [map(str, golden.sample_offsets.tolist()), float_reprs(golden.samples)]
        cells += [float_reprs(wave.samples) for _, wave in columns]
        rows = [header, *map(",".join, zip(*cells))]
        _write(args.samples_csv, "\n".join(rows) + "\n")


def cmd_synth(args) -> None:
    try:
        scenario = synth.scenario_from_json(Path(args.scenario).read_text(encoding="utf-8"))
        trace, annotation = synth.generate(scenario)
        annotation_text = phases.tree_json(annotation.true_phases, trace.blocks)
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read scenario {args.scenario}: {exc}") from None
    except (RecursionError, synth.ScenarioError) as exc:
        # JSON or segments nested past the interpreter's recursion limit: the
        # reader raises RecursionError, generate a ScenarioError raised from one
        cause = exc if isinstance(exc, RecursionError) else exc.__cause__
        if not isinstance(cause, RecursionError):
            raise
        raise InputError(f"scenario {args.scenario} is nested too deeply: {cause}") from None
    save_trace(trace, f"{args.out_prefix}.trace")
    _write(f"{args.out_prefix}.annotation.json", annotation_text)


def cmd_spectrum(args) -> None:
    config = _config_from_args(args)
    trace = load_trace(args.trace)
    profiles = attribute_block_cpi(trace)
    wave = build_waveform(trace, profiles, config.resolution)
    spectrum = spectral.dft_magnitude(wave)
    _write(args.out, spectral.spectrum_csv(spectrum))


def cmd_markers(args) -> None:
    try:
        root, addresses = phases.tree_from_dict(json.loads(Path(args.tree).read_text(encoding="utf-8")))
    except (OSError, ValueError, RecursionError) as exc:
        # json.JSONDecodeError is a ValueError; RecursionError comes from JSON
        # nested past the interpreter's recursion limit
        raise InputError(f"cannot read tree {args.tree}: {exc}") from None
    _write(args.out, phases.markers_json(phases.export_markers(root, addresses)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasescope",
        description="Hierarchical program phase detection from basic-block CPI traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="build the phase tree for a trace")
    p.add_argument("trace")
    p.add_argument("--tree", help="phase tree JSON output (default: stdout)")
    p.add_argument("--waveform-csv", help="also write the CPI waveform CSV")
    p.add_argument("--spectrum-dir", help="write one spectrum CSV per analyzed segment")
    p.add_argument("--markers", help="also write the marker-table JSON")
    _add_config_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="score phase-tree vs time-quantum CPI prediction")
    p.add_argument("trace")
    p.add_argument("--out", required=True, help="comparison report JSON")
    p.add_argument("--tq", type=int, action="append",
                   help="time-quantum length in instructions (repeatable; default D/64 and D/8)")
    p.add_argument("--merge-delta", dest="merge_delta", type=float, default=0.1,
                   help="CPI tolerance for merging quanta into a phase (default 0.1)")
    p.add_argument("--samples-csv", help="also write per-sample predictions")
    _add_config_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("synth", help="generate a synthetic trace from a scenario JSON")
    p.add_argument("scenario")
    p.add_argument("--out-prefix", required=True,
                   help="writes <prefix>.trace and <prefix>.annotation.json")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("spectrum", help="emit the full-trace spectrum CSV")
    p.add_argument("trace")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("markers", help="emit a marker table from a saved phase tree")
    p.add_argument("tree")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_markers)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (TraceFormatError, synth.ScenarioError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    """Program entry point (the ``phasescope`` script and ``python -m
    phasescope.cli``): run main() and exit with its code.

    Before exiting, gc.freeze() moves every live object to the permanent
    generation, so interpreter teardown skips a full collection over them
    (numpy's modules included). Only a process about to exit may do that;
    main() itself never freezes, so calling it in-process is unaffected.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
