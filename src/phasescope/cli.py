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
from dataclasses import replace
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from . import baseline, phases, spectral, synth
from .attribution import attribute_block_cpi, build_waveform, golden_waveform, waveform_csv
from .phases import CONFIG_TYPES, AnalysisConfig
from .trace import TraceFormatError, check_number, float_reprs, load_trace, save_trace


class InputError(ValueError):
    """Input violates a command's contract (maps to exit code 2)."""


def _config_from_args(args) -> AnalysisConfig:
    """AnalysisConfig() updated by dataclasses.replace with each config flag
    given; a value it rejects is an InputError naming the flag."""
    config = AnalysisConfig()
    for name in CONFIG_TYPES:
        value = getattr(args, name, None)
        if value is not None:
            try:
                config = replace(config, **{name: value})
            except ValueError as exc:
                raise InputError(f"--{name.replace('_', '-')}: {exc}") from None
    return config


def _add_config_flags(parser: argparse.ArgumentParser, names=tuple(CONFIG_TYPES)) -> None:
    """A flag for each config field named, its default the field's."""
    for name in names:
        parser.add_argument("--" + name.replace("_", "-"), dest=name, type=CONFIG_TYPES[name],
                            help=f"default {getattr(AnalysisConfig, name)}")


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def cmd_analyze(args) -> None:
    config = _config_from_args(args)
    trace = load_trace(args.trace)

    spectra: list[tuple[int, int, int, np.ndarray]] = []
    sink = (lambda d, a, b, s: spectra.append((d, a, b, s))) if args.spectrum_dir else None
    # the waveform CSV needs the block profiles the analysis attributes
    profiles = attribute_block_cpi(trace) if args.waveform_csv else None
    tree = phases.analyze(trace, config, spectrum_sink=sink, profiles=profiles)

    # the tree goes last: an unusable side output path leaves no tree behind
    if args.waveform_csv:
        wave = build_waveform(trace, profiles, config.resolution)
        _write(args.waveform_csv, waveform_csv(trace, wave))
    if args.spectrum_dir:
        directory = Path(args.spectrum_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for depth, start, stop, magnitudes in spectra:
            path = directory / f"spectrum_d{depth}_i{start}_{stop}.csv"
            _write(str(path), spectral.spectrum_csv(magnitudes))
    if args.markers:
        _write(args.markers, phases.markers_json(phases.export_markers(tree, trace.blocks)))
    tree_text = phases.tree_json(tree, trace.blocks)
    if args.tree:
        _write(args.tree, tree_text)
    else:
        sys.stdout.write(tree_text)


def cmd_compare(args) -> None:
    config = _config_from_args(args)
    for length in args.tq or []:
        check_number("--tq", length, Integral, InputError, "positive")
    check_number("--merge-delta", args.merge_delta, Real, InputError, "positive")
    trace = load_trace(args.trace)
    if not trace.is_golden:
        raise InputError("golden cycles required for comparison")
    total = trace.total_instructions

    golden = golden_waveform(trace, config.resolution)
    tree = phases.analyze(trace, config)
    # one (label, predicted waveform, phase count) row per method
    methods = [("bbfda", baseline.predict_waveform(tree, total, config.resolution),
                sum(1 for _ in tree.walk()))]
    for length in args.tq or [max(1, total // 64), max(1, total // 8)]:
        tq = baseline.tq_phases(trace, length, args.merge_delta)
        methods.append((f"tq-{length}", baseline.predict_waveform(tq, total, config.resolution),
                        len(tq.phases)))

    try:  # the waveforms share one grid, so a ValueError is a MAPE the golden CPIs leave undefined
        scores = [(label, baseline.error_rate(wave, golden).mean_absolute_percentage_error, count)
                  for label, wave, count in methods]
    except ValueError as exc:
        raise InputError(str(exc)) from None
    # the report goes last: an unusable samples path leaves no report behind
    if args.samples_csv:
        header = "instruction_offset,golden_cpi," + ",".join(label for label, _, _ in methods)
        cells = [map(str, golden.sample_offsets.tolist()), float_reprs(golden.samples)]
        cells += [float_reprs(wave.samples) for _, wave, _ in methods]
        rows = [header, *map(",".join, zip(*cells))]
        _write(args.samples_csv, "\n".join(rows) + "\n")
    _write(args.out, baseline.comparison_json(args.trace, scores))


def cmd_synth(args) -> None:
    try:
        scenario = synth.scenario_from_json(Path(args.scenario).read_text(encoding="utf-8"))
        trace, annotation = synth.generate(scenario)
        annotation_text = phases.tree_json(annotation.true_phases, trace.blocks)
    except (UnicodeDecodeError, TraceFormatError, synth.ScenarioError) as exc:
        raise InputError(f"scenario {args.scenario}: {exc}") from None
    # the trace goes last: an unusable annotation path leaves no trace behind
    _write(f"{args.out_prefix}.annotation.json", annotation_text)
    save_trace(trace, f"{args.out_prefix}.trace")


def cmd_spectrum(args) -> None:
    config = _config_from_args(args)
    trace = load_trace(args.trace)
    if trace.total_instructions < 2:
        raise InputError("trace has one instruction: a spectrum needs at least 2 samples")
    profiles = attribute_block_cpi(trace)
    wave = build_waveform(trace, profiles, config.resolution)
    _write(args.out, spectral.spectrum_csv(spectral.dft_magnitude(wave)))


def cmd_markers(args) -> None:
    # unreadable, not UTF-8, not JSON or not a tree (ValueError), or nested near the recursion limit
    try:
        root, addresses = phases.tree_from_dict(json.loads(Path(args.tree).read_text(encoding="utf-8")))
    except (OSError, ValueError, RecursionError) as exc:
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
    _add_config_flags(p, ["resolution"])  # the only field the spectrum reads
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
    except (TraceFormatError, InputError, OSError) as exc:
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
