"""CLI contract: exit codes, emitted files, determinism, round trips."""

import gc
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import phasescope
from phasescope import (
    AnalysisConfig,
    ScenarioSpec,
    SegmentSpec,
    analyze,
    generate,
    golden_waveform,
    load_trace,
    predict_waveform,
    tq_phases,
)
from phasescope import synth
from phasescope.cli import build_parser, main
from phasescope.phases import tree_from_dict
from phasescope.synth import scenario_json


SCENARIO = ScenarioSpec(
    segments=[
        SegmentSpec("lo", block_cpi=1.0, block_instruction_count=50, event_count=4),
        SegmentSpec("hi", block_cpi=2.0, block_instruction_count=50, event_count=4),
    ],
    repetitions=4,
    seed=3,
)


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(scenario_json(SCENARIO))
    assert main(["synth", str(path), "--out-prefix", str(tmp_path / "t")]) == 0
    return tmp_path / "t.trace"


def test_analyze_writes_requested_outputs(tmp_path, trace_file):
    tree = tmp_path / "tree.json"
    wave = tmp_path / "wave.csv"
    markers = tmp_path / "markers.json"
    spectra = tmp_path / "spectra"
    code = main([
        "analyze", str(trace_file),
        "--tree", str(tree),
        "--waveform-csv", str(wave),
        "--markers", str(markers),
        "--spectrum-dir", str(spectra),
    ])
    assert code == 0
    obj = json.loads(tree.read_text())
    assert obj["length"] == 1600  # 2 segments x 200 instructions x 4 repetitions
    assert wave.read_text().startswith("instruction_offset,cpi,block_id")
    assert json.loads(markers.read_text())
    assert list(spectra.glob("spectrum_d0_*.csv"))


def test_analyze_missing_file_exits_2(tmp_path):
    assert main(["analyze", str(tmp_path / "nope.trace"), "--tree", str(tmp_path / "x")]) == 2


def test_analyze_malformed_trace_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_text("V 1\nB 0 1000 5 F\nE zzz\n")
    assert main(["analyze", str(bad), "--tree", str(tmp_path / "x")]) == 2
    assert "line 3" in capsys.readouterr().err


def test_analyze_without_tree_writes_the_tree_to_stdout(tmp_path, capsys, trace_file):
    tree = tmp_path / "tree.json"
    assert main(["analyze", str(trace_file), "--tree", str(tree)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(trace_file)]) == 0
    assert capsys.readouterr().out.encode("utf-8") == tree.read_bytes()


def test_analyze_with_an_unusable_config_exits_2(tmp_path, capsys, trace_file):
    tree = tmp_path / "tree.json"
    assert main(["analyze", str(trace_file), "--tree", str(tree), "--resolution", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: --resolution: resolution must be >= 2")
    assert not tree.exists()


@pytest.mark.parametrize("command", ["analyze", "compare", "spectrum"])
def test_a_config_file_is_no_argument(tmp_path, capsys, trace_file, command):
    # every setting is its own flag; a --config file is no input of any command
    config, out = tmp_path / "x.json", tmp_path / "out"
    config.write_text(json.dumps({"resolution": 64}))
    with pytest.raises(SystemExit) as exc:
        main([*writing_to(command, trace_file, out), "--config", str(config)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --config {config}" in capsys.readouterr().err
    assert list(tmp_path.glob("out*")) == []


def test_synth_on_a_missing_scenario_file_exits_2(tmp_path, capsys):
    assert main(["synth", str(tmp_path / "nope.json"), "--out-prefix", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 2]")
    assert list(tmp_path.iterdir()) == []


def test_tree_json_rerender_is_bit_identical(tmp_path, trace_file):
    from phasescope import analyze

    trace = load_trace(trace_file)
    tree_path = tmp_path / "tree.json"
    assert main(["analyze", str(trace_file), "--tree", str(tree_path)]) == 0

    direct = predict_waveform(analyze(trace), trace.total_instructions, 4096)
    reloaded, _ = tree_from_dict(json.loads(tree_path.read_text()))
    rendered = predict_waveform(reloaded, trace.total_instructions, 4096)
    assert np.array_equal(direct.samples, rendered.samples)


def test_compare_reports_all_methods(tmp_path, trace_file):
    out = tmp_path / "cmp.json"
    samples = tmp_path / "samples.csv"
    code = main([
        "compare", str(trace_file), "--out", str(out),
        "--tq", "37", "--tq", "100",
        "--samples-csv", str(samples),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    labels = [m["label"] for m in report["methods"]]
    assert labels == ["bbfda", "tq-37", "tq-100"]
    assert report["methods"][0]["mape_percent"] == pytest.approx(0.0, abs=1e-9)
    header = samples.read_text().splitlines()[0]
    assert header == "instruction_offset,golden_cpi,bbfda,tq-37,tq-100"


def test_samples_csv_matches_the_per_row_writer(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(scenario_json(ScenarioSpec(segments=SCENARIO.segments, repetitions=4,
                                                   noise_stddev=0.3, seed=5)))
    assert main(["synth", str(scenario), "--out-prefix", str(tmp_path / "t")]) == 0
    samples = tmp_path / "samples.csv"
    assert main(["compare", str(tmp_path / "t.trace"), "--out", str(tmp_path / "cmp.json"),
                 "--tq", "37", "--samples-csv", str(samples)]) == 0

    trace = load_trace(tmp_path / "t.trace")
    config, total = AnalysisConfig(), trace.total_instructions
    golden = golden_waveform(trace, config.resolution)
    waves = [predict_waveform(source, total, config.resolution)
             for source in (analyze(trace, config), tq_phases(trace, 37, 0.1))]
    rows = ["instruction_offset,golden_cpi,bbfda,tq-37"]
    for i in range(golden.samples.size):
        cells = [str(golden.sample_offsets[i]), repr(float(golden.samples[i]))]
        cells += [repr(float(wave.samples[i])) for wave in waves]
        rows.append(",".join(cells))
    assert samples.read_text() == "\n".join(rows) + "\n"


def test_compare_requires_golden_cycles(tmp_path, capsys):
    quantum_only = tmp_path / "q.trace"
    quantum_only.write_text(
        "V 1\nB 0 1000 10 F\nE 0\nE 0\nE 0\nE 0\nL 20\nQ 0 1.5\nQ 1 1.5\n"
    )
    assert main(["compare", str(quantum_only), "--out", str(tmp_path / "x.json")]) == 2
    assert "golden cycles required" in capsys.readouterr().err


def test_synth_invalid_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"segments": [{"label": "a"}]}))
    assert main(["synth", str(bad), "--out-prefix", str(tmp_path / "x")]) == 2
    assert "needs block_cpi" in capsys.readouterr().err


def test_spectrum_command(tmp_path, trace_file):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", str(trace_file), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "occurrence,magnitude"
    mags = [float(l.split(",")[1]) for l in lines[1:]]
    assert int(np.argmax(mags[1:])) + 1 == 4  # 4 repetitions


@pytest.mark.parametrize("flag, value", [
    ("--flat-cpi-range", "0.3"), ("--max-depth", "3"), ("--min-segment-instructions", "64"),
])
def test_spectrum_takes_no_flag_of_a_config_field_it_does_not_read(tmp_path, capsys, trace_file,
                                                                   flag, value):
    out = tmp_path / "spec.csv"
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", str(trace_file), "--out", str(out), flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


def test_markers_command_from_saved_tree(tmp_path, trace_file):
    tree = tmp_path / "tree.json"
    direct = tmp_path / "m1.json"
    assert main(["analyze", str(trace_file), "--tree", str(tree), "--markers", str(direct)]) == 0
    rebuilt = tmp_path / "m2.json"
    assert main(["markers", str(tree), "--out", str(rebuilt)]) == 0
    assert direct.read_text() == rebuilt.read_text()


def test_outputs_are_deterministic(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(scenario_json(ScenarioSpec(
        segments=[
            SegmentSpec("a", block_cpi=1.0, block_instruction_count=10, event_count=6),
            SegmentSpec("b", block_cpi=2.5, block_instruction_count=10, event_count=6),
        ],
        repetitions=3,
        noise_stddev=0.1,
        seed=77,
    )))
    outputs = []
    for run in ("one", "two"):
        prefix = tmp_path / run
        assert main(["synth", str(scenario), "--out-prefix", str(prefix)]) == 0
        tree = tmp_path / f"{run}.tree.json"
        assert main(["analyze", f"{prefix}.trace", "--tree", str(tree)]) == 0
        outputs.append((
            (tmp_path / f"{run}.trace").read_bytes(),
            (tmp_path / f"{run}.annotation.json").read_bytes(),
            tree.read_bytes(),
        ))
    assert outputs[0] == outputs[1]


def test_config_flags_set_the_analysis(tmp_path, trace_file):
    tree = tmp_path / "tree.json"
    assert main(["analyze", str(trace_file), "--tree", str(tree), "--resolution", "512", "--max-depth", "3"]) == 0
    obj = json.loads(tree.read_text())
    # depth 3 allows the template and its split children to appear
    assert obj["children"] and obj["children"][0]["children"]


@pytest.mark.parametrize("text, line", [
    ("V 1\nB 0 1000 5 F\nE 0 nan\n", 3),
    ("V 1\nB 0 1000 5 F\nE 0 5.0\nE 0 inf\n", 4),
    ("V 1\nB 0 1000 10 F\nE 0\nE 0\nL 10\nQ 0 nan\nQ 1 1.5\n", 6),
    ("V 1\nB 9223372036854775808 1000 5 F\nE 0 5.0\n", 2),
    ("V 1\nB 0 1000 5 F\nE 99999999999999999999 5.0\n", 3),
    ("V 1\nB 0 1000 5 F\nE 0 5.0\nE 0 -5.0\n", 4),
    ("V 1\nB 0 1000 10 F\nE 0\nE 0\nL 10\nQ 0 1.5\nQ 1 -2.0\n", 7),
    ("V 1\nB 0 1000 5 F\nB 1 1000 5 F\nE 0 5.0\n", 3),
    ("V 1\nB 0 1000 10 F\nE 0\nE 0\nL 0\nQ 0 1.2\nQ 1 1.4\n", 5),
    ("V 1\nB 0 1000 10 F\nE 0\nE 0\nL -5\nQ 0 1.2\nQ 1 1.4\n", 5),
    ("V 1\nB 0 1000 10 F\nE 0\nE 0\nL 10\nQ 0 1.2\nQ 1 1.4\nL 11\n", 8),
    ("V 1\nB 1 1000 5 F\nB 10 2000 5 F\nE 1 5.0\nE 1_0 5.0\n", 5),
])
def test_non_finite_and_out_of_range_input_exits_2(tmp_path, capsys, text, line):
    bad = tmp_path / "bad.trace"
    bad.write_text(text)
    tree = tmp_path / "tree.json"
    assert main(["analyze", str(bad), "--tree", str(tree)]) == 2
    assert f"line {line}:" in capsys.readouterr().err
    assert not tree.exists()


@pytest.mark.parametrize("flags", [["--tq", "0"], ["--tq", "-5"], ["--tq", "37", "--tq", "0"],
                                   ["--merge-delta", "0"], ["--merge-delta", "-0.1"]])
def test_compare_rejects_non_positive_settings_with_exit_2(tmp_path, capsys, trace_file, flags):
    out = tmp_path / "cmp.json"
    assert main(["compare", str(trace_file), "--out", str(out), *flags]) == 2
    assert "must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_compare_rejects_a_non_finite_merge_delta_with_exit_2(tmp_path, capsys, trace_file, value):
    out = tmp_path / "cmp.json"
    assert main(["compare", str(trace_file), "--out", str(out), "--merge-delta", value]) == 2
    assert capsys.readouterr().err == f"error: --merge-delta must be a finite real number, got {value}\n"
    assert not out.exists()


def test_json_writers_refuse_non_finite_numbers():
    from phasescope import PhaseNode
    from phasescope.baseline import comparison_json
    from phasescope.phases import export_markers, markers_json, tree_json

    node = PhaseNode(0, 0, 10, float("nan"))
    with pytest.raises(ValueError):
        tree_json(node, {0: 0x1000})
    with pytest.raises(ValueError):
        markers_json(export_markers(node, {0: 0x1000}))
    with pytest.raises(ValueError):
        comparison_json("t", [("bbfda", float("inf"), 1)])


def test_block_whose_events_all_carry_zero_cycles_exits_2(tmp_path, capsys):
    bad = tmp_path / "zero.trace"
    bad.write_text("V 1\nB 0 1000 5 F\nB 1 2000 5 F\nE 0 0.0\nE 1 5.0\nE 0 0.0\n")
    tree = tmp_path / "tree.json"
    assert main(["analyze", str(bad), "--tree", str(tree)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "block 0" in err
    assert not tree.exists()


def test_compare_with_a_zero_golden_cpi_exits_2_naming_the_offset(tmp_path, capsys):
    trace = tmp_path / "zero.trace"
    trace.write_text("V 1\nB 0 1000 5 F\nB 1 2000 5 F\nE 0 0.0\nE 0 5.0\nE 1 5.0\nE 0 4.0\n")
    out = tmp_path / "cmp.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # MAPE over a zero CPI warns before it fails
        assert main(["compare", str(trace), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "instruction offset 0" in err
    assert not out.exists()


def test_compare_with_a_subnormal_golden_cpi_exits_2_naming_the_offset(tmp_path, capsys):
    # the tree predicts 0.5, and |0.5 - 1e-320| / 1e-320 overflows float64
    trace = tmp_path / "subnormal.trace"
    trace.write_text("V 1\nB 0 1000 1 F\nE 0 1e-320\nE 0 1.0\n")
    out = tmp_path / "cmp.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compare", str(trace), "--out", str(out)]) == 2
    message = "golden CPI is 1e-320 at instruction offset 0, where MAPE is undefined"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "compare", "spectrum"])
@pytest.mark.parametrize("text, message", [
    ("V 1\nB 0 0 1 F\nB 1 10 1 F\nE 0 1e308\nE 0 1e308\nE 1 1.0\n",
     "cycle counts too large: their sum overflows float64"),
    ("V 1\nB 0 0 1 F\nB 1 10 1 F\nE 0 1e308\nE 1 1e308\nE 1 1.0\n",
     "cycle counts too large: their sum overflows float64"),
    ("V 1\nB 0 0 8 F\nB 1 10 8 F\nE 0\nE 1\nL 10\nQ 0 1e308\nQ 1 1e308\n",
     "quantum cpis too large: the largest times the trace's instruction count overflows float64"),
], ids=["one-block", "two-blocks", "quanta"])
def test_cycle_sums_beyond_float64_exit_2(tmp_path, capsys, command, text, message):
    trace = tmp_path / "huge.trace"
    trace.write_text(text)
    out = tmp_path / "out"
    assert main(writing_to(command, trace, out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_spectrum_of_a_one_instruction_trace_exits_2(tmp_path, capsys):
    trace = tmp_path / "one.trace"
    trace.write_text("V 1\nB 0 0 1 F\nE 0 2.0\n")
    out = tmp_path / "spec.csv"
    assert main(["spectrum", str(trace), "--out", str(out)]) == 2
    assert "trace has one instruction" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_spectrum_of_the_whole_trace_is_the_spectrum_command(tmp_path, trace_file):
    spectra = tmp_path / "spectra"
    assert main(["analyze", str(trace_file), "--tree", str(tmp_path / "tree.json"),
                 "--spectrum-dir", str(spectra)]) == 0
    (root,) = spectra.glob("spectrum_d0_*.csv")
    out = tmp_path / "spec.csv"
    assert main(["spectrum", str(trace_file), "--out", str(out)]) == 0
    assert root.read_bytes() == out.read_bytes()


def test_analyze_waveform_csv_attributes_once(tmp_path, trace_file, monkeypatch):
    from phasescope import attribution

    trace = load_trace(trace_file)
    profiles = attribution.attribute_block_cpi(trace)
    expected = attribution.waveform_csv(trace, attribution.build_waveform(trace, profiles, 4096))

    calls = []
    attribute = attribution._attribute

    def counting(*args, **kwargs):
        calls.append(args)
        return attribute(*args, **kwargs)

    # attribute_block_cpi and attribute_event_cpi both sort and sum here
    monkeypatch.setattr(attribution, "_attribute", counting)
    wave = tmp_path / "wave.csv"
    tree = tmp_path / "tree.json"
    assert main(["analyze", str(trace_file), "--tree", str(tree), "--waveform-csv", str(wave)]) == 0
    assert len(calls) == 1
    assert wave.read_text(encoding="utf-8") == expected

    plain = tmp_path / "plain.json"
    assert main(["analyze", str(trace_file), "--tree", str(plain)]) == 0
    assert plain.read_bytes() == tree.read_bytes()


def run_python(*argv):
    """`python ARGV` in a child process importing this checkout's package."""
    src = str(Path(phasescope.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)


def run_module(*args, python_flags=()):
    """`python [FLAGS] -m phasescope.cli ARGS` in a child process."""
    return run_python(*python_flags, "-m", "phasescope.cli", *args)


def test_module_entry_point_matches_in_process_main(tmp_path, trace_file):
    outputs = {}
    for how in ("child", "in_process"):
        args = ["analyze", str(trace_file), "--tree", str(tmp_path / f"{how}.tree.json"),
                "--markers", str(tmp_path / f"{how}.markers.json")]
        if how == "child":
            proc = run_module(*args)
            assert (proc.returncode, proc.stderr) == (0, "")
        else:
            frozen = gc.get_freeze_count()
            assert main(args) == 0
            assert gc.get_freeze_count() == frozen  # only the program entry freezes
        outputs[how] = [(tmp_path / f"{how}.{kind}.json").read_bytes() for kind in ("tree", "markers")]
    assert outputs["child"] == outputs["in_process"]


def test_commands_that_read_a_trace_or_write_floats_import_orjson(tmp_path, trace_file):
    """The parser converts runs of event lines with orjson, and synth writes
    its trace's floats with it: every command that reads or writes a trace
    imports it."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(scenario_json(SCENARIO))
    commands = {
        "analyze": ["analyze", str(trace_file), "--tree", str(tmp_path / "tree.json")],
        "compare": ["compare", str(trace_file), "--out", str(tmp_path / "cmp.json")],
        "spectrum": ["spectrum", str(trace_file), "--out", str(tmp_path / "spectrum.csv")],
        "synth": ["synth", str(scenario), "--out-prefix", str(tmp_path / "s")],
    }
    imported = {}
    for name, args in commands.items():
        proc = run_module(*args, python_flags=["-X", "importtime"])
        assert proc.returncode == 0, proc.stderr
        # -X importtime writes "import time: self | cumulative | module" per import
        modules = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
        imported[name] = "orjson" in modules
    assert imported == dict.fromkeys(commands, True)


def test_importing_the_package_leaves_orjson_unloaded_until_a_trace_is_read(tmp_path, trace_file):
    # orjson's import costs a CLI process about 6 ms, where it saves a
    # 131k-event trace's parse about 12 ms
    code = ("import sys, phasescope\n"
            "print('orjson' in sys.modules)\n"
            "phasescope.load_trace(sys.argv[1])\n"
            "print('orjson' in sys.modules)\n")
    proc = run_python("-c", code, str(trace_file))
    assert (proc.stdout, proc.stderr) == ("False\nTrue\n", "")


def test_module_entry_point_reports_a_malformed_trace_with_exit_2(tmp_path):
    bad = tmp_path / "bad.trace"
    bad.write_text("V 1\nB 0 1000 5 F\nE 0 5.0\nE zzz 5.0\n")
    proc = run_module("analyze", str(bad), "--tree", str(tmp_path / "tree.json"))
    assert proc.returncode == 2
    assert "line 4" in proc.stderr and "malformed block id" in proc.stderr
    assert not (tmp_path / "tree.json").exists()


def test_program_entry_freezes_after_main_and_exits_with_its_code(monkeypatch):
    from phasescope import cli

    steps = []
    monkeypatch.setattr(cli, "main", lambda: steps.append("main") or 2)
    monkeypatch.setattr(gc, "freeze", lambda: steps.append("freeze"))
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 2
    assert steps == ["main", "freeze"]


# --- malformed tree and scenario files ----------------------------------------

MALFORMED_TREES = {
    "empty object": lambda tree: {},
    "array": lambda tree: [],
    "bad head address": lambda tree: {**tree, "head_address": "zz"},
    "bad structure": lambda tree: {**tree, "structure": "bogus"},
    "child not an object": lambda tree: {**tree, "children": [1]},
    "NaN mean CPI": lambda tree: {**tree, "mean_cpi": float("nan")},
    "fractional occurrence": lambda tree: {**tree, "occurrence": 2.7},
    "bool mean CPI": lambda tree: {**tree, "mean_cpi": True},
    "string start": lambda tree: {**tree, "start": "12"},
    "negative length": lambda tree: {**tree, "length": -5},
    "zero occurrence": lambda tree: {**tree, "occurrence": 0},
    "head block beyond int64": lambda tree: {**tree, "head_block": 2**70},
    "mean CPI beyond float64": lambda tree: {**tree, "mean_cpi": 10**400},
    "child past its parent": lambda tree: {
        **tree, "children": [{**tree, "children": [], "length": tree["length"] + 1}]},
    "head block at two addresses": lambda tree: {
        **tree, "children": [{**tree, "children": [], "head_address": "0x1"}]},
    "two head blocks at one address": lambda tree: {
        **tree, "children": [{**tree, "children": [], "head_block": tree["head_block"] + 1}]},
    "unknown key": lambda tree: {**tree, "children": [], "phase_path": []},
    "no children key": lambda tree: {key: value for key, value in tree.items() if key != "children"},
    # a leaf, so no other node's address or interval can refuse it instead
    "signed, spaced and underscored head address": lambda tree: {
        **tree, "children": [], "head_address": " -0x1_0 "},
    "head address without 0x": lambda tree: {**tree, "children": [], "head_address": "1000"},
    "uppercase head address": lambda tree: {**tree, "children": [], "head_address": "0X1000"},
    "head address with a leading zero": lambda tree: {
        **tree, "children": [], "head_address": "0x01000"},
    "negative start": lambda tree: {**tree, "children": [], "start": -5},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TREES))
def test_markers_on_a_malformed_tree_exits_2_naming_the_file(tmp_path, capsys, trace_file, case):
    tree = tmp_path / "tree.json"
    assert main(["analyze", str(trace_file), "--tree", str(tree)]) == 0
    bad = tmp_path / "bad_tree.json"
    bad.write_text(json.dumps(MALFORMED_TREES[case](json.loads(tree.read_text()))))
    out = tmp_path / "markers.json"
    capsys.readouterr()
    assert main(["markers", str(bad), "--out", str(out)]) == 2
    assert f"cannot read tree {bad}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content, message", [
    (None, "[Errno 2] No such file or directory"),
    ("", "[Errno 21] Is a directory"),
    (b'{"start": 0}\xff', "'utf-8' codec can't decode byte 0xff"),
    (b"{not json", "Expecting property name enclosed in double quotes"),
    (b"null", "malformed phase tree: TypeError"),
    (b"3", "malformed phase tree: TypeError"),
    (b'"tree"', "malformed phase tree: TypeError"),
], ids=["missing", "directory", "not-utf8", "not-json", "null", "number", "string"])
def test_markers_on_an_unreadable_tree_exits_2_naming_the_file(tmp_path, capsys, content, message):
    # the one read of the tree turns each way it fails into the same error
    path, out = tmp_path / "tree.json", tmp_path / "markers.json"
    if content == "":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    assert main(["markers", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read tree {path}: {message}")
    assert not out.exists()


# --- JSON nested past the interpreter's recursion limit -----------------------

DEEP_JSON = '{"children": [' * 3000


def deep_tree_json(levels):
    """A well-formed phase tree, a chain of `levels` nodes, written without
    recursing."""
    node = ('{"head_block": 0, "head_address": "0x1000", "start": 0, "length": 1, '
            '"mean_cpi": 1.0, "occurrence": 1, "structure": "none", "children": [')
    return node * levels + "]}" * levels


@pytest.mark.parametrize("text", [DEEP_JSON, deep_tree_json(700)], ids=["unclosed", "well-formed"])
def test_markers_on_a_tree_nested_too_deeply_exits_2_naming_the_file(tmp_path, capsys, text):
    path = tmp_path / "tree.json"
    path.write_text(text)
    out = tmp_path / "markers.json"
    assert main(["markers", str(path), "--out", str(out)]) == 2
    assert f"cannot read tree {path}: maximum recursion depth exceeded" in capsys.readouterr().err
    assert not out.exists()


def deep_scenario(levels):
    segment = SegmentSpec("a", block_cpi=1.0, block_instruction_count=2, event_count=3)
    for depth in range(levels):
        segment = SegmentSpec(f"g{depth}", nested=[segment])
    return ScenarioSpec(segments=[segment])


@pytest.mark.parametrize("read", ["from JSON", "by generate"])
def test_synth_on_a_scenario_nested_too_deeply_exits_2_naming_the_file(
        tmp_path, capsys, monkeypatch, read):
    # the JSON reader refuses DEEP_JSON; 2000 levels handed over past the
    # reader make generate recurse past the limit
    path = tmp_path / "scenario.json"
    path.write_text(DEEP_JSON)
    if read == "by generate":
        monkeypatch.setattr(synth, "scenario_from_json", lambda text: deep_scenario(2000))
    assert main(["synth", str(path), "--out-prefix", str(tmp_path / "x")]) == 2
    assert f"scenario {path}: scenario is nested too deeply: maximum recursion depth exceeded" in \
        capsys.readouterr().err
    assert not (tmp_path / "x.trace").exists()


def test_non_finite_config_flag_exits_2_naming_the_flag(tmp_path, capsys, trace_file):
    tree = tmp_path / "tree.json"
    assert main(["analyze", str(trace_file), "--tree", str(tree), "--flat-cpi-range", "nan"]) == 2
    assert "--flat-cpi-range: config field flat_cpi_range must be a finite real number" in \
        capsys.readouterr().err
    assert not tree.exists()


@pytest.mark.parametrize("command", ["analyze", "compare", "spectrum"])
def test_a_resolution_beyond_int64_exits_2_naming_the_flag(tmp_path, capsys, trace_file, command):
    out = tmp_path / "out"
    assert main([*writing_to(command, trace_file, out), "--resolution", "1" + "0" * 400]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "error: --resolution: config field resolution must be an integer within int64, got 1000")
    assert not out.exists()


def test_a_tq_length_beyond_int64_exits_2_naming_the_flag(tmp_path, capsys, trace_file):
    out = tmp_path / "cmp.json"
    assert main(["compare", str(trace_file), "--out", str(out), "--tq", str(2**63)]) == 2
    assert capsys.readouterr().err == f"error: --tq must be an integer within int64, got {2**63}\n"
    assert not out.exists()


def test_a_step_between_huge_and_small_cpis_splits_without_a_warning(tmp_path, capsys):
    # the block CPIs differ by 1e308; their squared deviations overflow float64
    trace = tmp_path / "step.trace"
    trace.write_text("V 1\nB 0 0 64 F\nB 1 1000 64 F\nE 0 1e308\nE 1 1.0\n")
    tree = tmp_path / "tree.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", str(trace), "--tree", str(tree)]) == 0
    root = json.loads(tree.read_text())
    assert [(child["start"], child["length"]) for child in root["children"]] == [(0, 64), (64, 64)]
    assert capsys.readouterr().err == ""


def test_config_flags_follow_the_config_fields():
    args = build_parser().parse_args([
        "analyze", "t.trace", "--resolution", "8", "--flat-cpi-range", "0.5", "--max-depth", "3",
        "--min-segment-instructions", "16",
    ])
    values = {f.name: getattr(args, f.name) for f in fields(AnalysisConfig)}
    assert values == {"resolution": 8, "flat_cpi_range": 0.5, "max_depth": 3, "min_segment_instructions": 16}
    assert [type(v) for v in values.values()] == [int, float, int, int]


@pytest.mark.parametrize("field, value", [("flat_spectrum_ratio", 0.02), ("boundary_threshold_fraction", 0.5)])
def test_the_fixed_fractions_take_no_flag(tmp_path, capsys, trace_file, field, value):
    # both are module constants (spectral.FLAT_SPECTRUM_RATIO, phases.BOUNDARY_THRESHOLD_FRACTION)
    tree = tmp_path / "tree.json"
    flag = "--" + field.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(trace_file), "--tree", str(tree), flag, str(value)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not tree.exists()


NESTED_SCENARIO = json.loads(scenario_json(ScenarioSpec(
    segments=[
        SegmentSpec("a", block_cpi=1.0, block_instruction_count=5, event_count=3),
        SegmentSpec("g", nested=[SegmentSpec("b", block_cpi=2.0, block_instruction_count=4,
                                             event_count=2)], nested_repetitions=2),
    ],
    repetitions=2,
    quantum_length=7,
)))


@pytest.mark.parametrize("field, value", [
    ("block_cpi", "1.0"), ("block_cpi", True), ("block_cpi", None),
    ("block_instruction_count", 1.5), ("block_instruction_count", "5"), ("event_count", 2.5),
    ("nested_repetitions", 2.5), ("nested_repetitions", True),
    ("repetitions", 2.5), ("repetitions", "2"), ("quantum_length", "5"), ("quantum_length", 2.5),
    ("noise_stddev", "0.1"), ("noise_stddev", False), ("seed", 1.5), ("seed", "3"), ("seed", -1),
    # past float64 or int64: refused at the field, not by a conversion that raises
    ("block_cpi", 10**400), ("quantum_length", 10**20), ("seed", 2**64),
])
def test_synth_rejects_a_wrongly_typed_number_naming_the_field(tmp_path, capsys, field, value):
    scenario = json.loads(json.dumps(NESTED_SCENARIO))
    if field == "nested_repetitions":
        scenario["segments"][1][field] = value
    elif field in ("block_cpi", "block_instruction_count", "event_count"):
        scenario["segments"][0][field] = value
    else:
        scenario[field] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main(["synth", str(path), "--out-prefix", str(tmp_path / "x")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "x.trace").exists()


# NESTED_SCENARIO, twice: "a" (3 events of 5 instructions), then "b" (2 events of 4) twice
@pytest.mark.parametrize("change, message", [
    (lambda s: s.update(repetitions=2**62),
     f"total events must be an integer within int64, got {(3 + 2 * 2) * 2**62}"),
    (lambda s: s["segments"][1].update(nested_repetitions=2**62),
     f"total events must be an integer within int64, got {(3 + 2 * 2**62) * 2}"),
    (lambda s: s["segments"][0].update(block_instruction_count=2**62),
     f"total instructions must be an integer within int64, got {(3 * 2**62 + 4 * 2 * 2) * 2}"),
])
def test_synth_refuses_a_scenario_beyond_int64_before_allocating(tmp_path, capsys, change, message):
    scenario = json.loads(json.dumps(NESTED_SCENARIO))
    change(scenario)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main(["synth", str(path), "--out-prefix", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: scenario {path}: {message}\n"
    assert not (tmp_path / "x.trace").exists()


# a single count past int64 is refused at the count, before the totals
@pytest.mark.parametrize("change, message", [
    (lambda s: s["segments"][0].update(event_count=10**30),
     f"segment 'a': event_count must be an integer within int64, got {10**30}"),
    # past a float's range too: the count must not reach a conversion to float
    (lambda s: s["segments"][0].update(event_count=10**400),
     f"segment 'a': event_count must be an integer within int64, got {10**400}"),
    (lambda s: s["segments"][1].update(nested_repetitions=10**400),
     f"segment 'g': nested_repetitions must be an integer within int64, got {10**400}"),
])
def test_synth_refuses_a_count_beyond_int64_before_allocating(tmp_path, capsys, change, message):
    scenario = json.loads(json.dumps(NESTED_SCENARIO))
    change(scenario)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main(["synth", str(path), "--out-prefix", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: scenario {path}: {message}\n"
    assert not (tmp_path / "x.trace").exists()


@pytest.mark.parametrize("scenario, message", [
    ({"segments": [{"label": "a", "block_cpi": 1e308, "block_instruction_count": 2, "event_count": 3}]},
     "segment 'a': its scripted cycles, block_cpi times its 6 instructions, overflow float64"),
    # each segment's cycles are finite, their repetitions are not
    ({"segments": [{"label": "a", "block_cpi": 1e307, "block_instruction_count": 2, "event_count": 3}],
      "repetitions": 10},
     "the scripted cycles of the whole scenario overflow float64"),
], ids=["segment", "total"])
def test_synth_refuses_scripted_cycles_beyond_float64_without_a_warning(tmp_path, capsys, scenario, message):
    # tier-1 turns warnings into errors, which main reports as exit 1
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main(["synth", str(path), "--out-prefix", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: scenario {path}: {message}\n"
    assert not (tmp_path / "x.trace").exists()


@pytest.mark.parametrize("segment, noise, seed, where", [
    # seed 1's noise on event 0 overflows its CPI, then only its cycles;
    # seed 6 leaves both events' cycles finite but not their sum
    ((1.5e308, 1, 1), 1e308, 1, "the CPI of event 0"),
    ((5e307, 3, 1), 4e307, 1, "the cycle count of event 0"),
    ((6e307, 1, 2), 5e307, 6, "the trace's cycle sum"),
], ids=["cpi", "cycles", "sum"])
def test_synth_refuses_noise_beyond_float64_without_a_warning(tmp_path, segment, noise, seed, where):
    cpi, instructions, events = segment
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"segments": [{"label": "a", "block_cpi": cpi,
                                              "block_instruction_count": instructions,
                                              "event_count": events}],
                                "noise_stddev": noise, "seed": seed}))
    proc = run_module("synth", str(path), "--out-prefix", str(tmp_path / "x"), python_flags=("-W", "error"))
    message = f"error: scenario {path}: noise_stddev {noise!r} overflows float64 in {where}\n"
    assert (proc.returncode, proc.stderr) == (2, message)
    assert not (tmp_path / "x.trace").exists()


@pytest.mark.parametrize("segments", [[1], {"a": 1}, [{"label": "g", "nested": {"b": 1}}]])
def test_synth_rejects_segments_that_are_not_objects(tmp_path, capsys, segments):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"segments": segments}))
    assert main(["synth", str(path), "--out-prefix", str(tmp_path / "x")]) == 2
    assert "invalid scenario JSON" in capsys.readouterr().err


def test_out_of_order_quantum_index_exits_2_naming_the_line(tmp_path, capsys):
    bad = tmp_path / "q.trace"
    bad.write_text("V 1\nB 0 1000 10 F\nE 0\nE 0\nL 10\nQ 1 1.5\nQ 0 2.5\n")
    tree = tmp_path / "tree.json"
    assert main(["analyze", str(bad), "--tree", str(tree)]) == 2
    assert "line 6: quantum indices must be contiguous from 0 (got 1 at 0)" in capsys.readouterr().err
    assert not tree.exists()


# --- unusable paths: exit 2 naming the path --------------------------------------

def writing_to(command, trace, out):
    """argv that runs command on trace and writes its main output to out."""
    return [command, str(trace), "--tree" if command == "analyze" else "--out", str(out)]


@pytest.mark.parametrize("command", ["analyze", "compare", "spectrum"])
def test_a_directory_as_the_trace_exits_2_naming_it(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main(writing_to(command, tmp_path, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 21]") and str(tmp_path) in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "compare", "spectrum"])
def test_a_trace_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys, command):
    bad = tmp_path / "bad.trace"
    bad.write_bytes(b"V 1\nB 0 1000 5 F\nE 0 5.0\n\xff\n")
    out = tmp_path / "out"
    assert main(writing_to(command, bad, out)) == 2
    assert f"error: cannot read trace {bad}: 'utf-8' codec can't decode" in capsys.readouterr().err
    assert not out.exists()


def test_a_scenario_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_bytes(scenario_json(SCENARIO).encode() + b"\xff")
    assert main(["synth", str(path), "--out-prefix", str(tmp_path / "x")]) == 2
    assert f"error: scenario {path}: 'utf-8' codec" in capsys.readouterr().err
    assert not (tmp_path / "x.trace").exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "{trace}", "--tree", "{taken}"],
    ["analyze", "{trace}", "--tree", "{tree}", "--markers", "{taken}"],
    ["compare", "{trace}", "--out", "{taken}"],
    ["spectrum", "{trace}", "--out", "{taken}"],
    ["markers", "{tree}", "--out", "{taken}"],
    ["synth", "{scenario}", "--out-prefix", "{taken_prefix}"],
])
def test_a_directory_as_the_output_exits_2_naming_it(tmp_path, capsys, trace_file, argv):
    paths = {"trace": trace_file, "tree": tmp_path / "tree.json", "scenario": tmp_path / "scenario.json",
             "taken": tmp_path / "taken.trace", "taken_prefix": tmp_path / "taken"}
    assert main(["analyze", str(trace_file), "--tree", str(paths["tree"])]) == 0
    paths["taken"].mkdir()
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 21]") and str(paths["taken"]) in err


@pytest.mark.parametrize("side", [
    ["--waveform-csv", "{taken}"],
    ["--spectrum-dir", "{trace}"],
    ["--markers", "{taken}"],
], ids=["waveform-csv", "spectrum-dir", "markers"])
@pytest.mark.parametrize("to_file", [True, False], ids=["tree-file", "stdout"])
def test_an_unusable_side_output_leaves_no_tree(tmp_path, capsys, trace_file, side, to_file):
    taken, tree = tmp_path / "taken", tmp_path / "tree.json"
    taken.mkdir()
    argv = ["analyze", str(trace_file), *[arg.format(taken=taken, trace=trace_file) for arg in side]]
    assert main(argv + (["--tree", str(tree)] if to_file else [])) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: [Errno")
    assert out == "" and not tree.exists()


def test_an_unusable_samples_csv_leaves_no_report(tmp_path, capsys, trace_file):
    report = tmp_path / "cmp.json"
    argv = ["compare", str(trace_file), "--out", str(report),
            "--samples-csv", str(tmp_path / "missing" / "samples.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 2]")
    assert not report.exists()


def test_an_unusable_annotation_path_leaves_no_trace(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(scenario_json(SCENARIO))
    (tmp_path / "x.annotation.json").mkdir()
    assert main(["synth", str(scenario), "--out-prefix", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 21]")
    assert not (tmp_path / "x.trace").exists()


# --- config flags: each error names the flag that gave the value --------------

@pytest.mark.parametrize("field, value, message", [
    ("resolution", 1, "resolution must be >= 2"),
    ("resolution", 0, "resolution must be >= 2"),
    ("flat_cpi_range", -0.5, "flat_cpi_range must be non-negative"),
    ("flat_cpi_range", -0.001, "flat_cpi_range must be non-negative"),
    ("max_depth", 0, "max_depth must be in [1, 256]"),
    ("max_depth", 257, "max_depth must be in [1, 256]"),
    ("min_segment_instructions", 1, "min_segment_instructions must be >= 2"),
    ("min_segment_instructions", 0, "min_segment_instructions must be >= 2"),
])
def test_an_out_of_range_config_value_exits_2_naming_its_flag(
        tmp_path, capsys, trace_file, field, value, message):
    tree = tmp_path / "tree.json"
    flag = "--" + field.replace("_", "-")
    assert main(["analyze", str(trace_file), "--tree", str(tree), flag, str(value)]) == 2
    assert capsys.readouterr().err == f"error: {flag}: {message}\n"
    assert not tree.exists()


@pytest.mark.parametrize("field, value, kind", [
    ("resolution", "nan", "int"),
    ("resolution", "100.5", "int"),
    ("resolution", "512.0", "int"),
    ("resolution", "true", "int"),
    ("max_depth", "2.5", "int"),
    ("max_depth", "true", "int"),
    ("min_segment_instructions", "64.0", "int"),
    ("flat_cpi_range", "true", "float"),
])
def test_a_config_flag_value_not_of_its_type_exits_2_naming_the_flag(
        tmp_path, capsys, trace_file, field, value, kind):
    tree = tmp_path / "tree.json"
    flag = "--" + field.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(trace_file), "--tree", str(tree), flag, value])
    assert exc.value.code == 2
    assert f"error: argument {flag}: invalid {kind} value: {value!r}" in capsys.readouterr().err
    assert not tree.exists()


@pytest.mark.parametrize("field, value, got", [
    ("flat_cpi_range", "inf", "a finite real number, got inf"),
    ("flat_cpi_range", "-inf", "a finite real number, got -inf"),
    # a float literal or an integer past float64 reads as inf
    ("flat_cpi_range", "1e400", "a finite real number, got inf"),
    ("flat_cpi_range", "1" + "0" * 400, "a finite real number, got inf"),
    ("max_depth", str(2**63), f"an integer within int64, got {2**63}"),
    ("min_segment_instructions", str(2**63), f"an integer within int64, got {2**63}"),
], ids=["inf", "-inf", "1e400", "10**400", "max_depth-2**63", "min_segment_instructions-2**63"])
def test_a_config_flag_value_its_field_refuses_exits_2_naming_the_flag(
        tmp_path, capsys, trace_file, field, value, got):
    tree = tmp_path / "tree.json"
    flag = "--" + field.replace("_", "-")
    assert main(["analyze", str(trace_file), "--tree", str(tree), f"{flag}={value}"]) == 2
    assert capsys.readouterr().err == f"error: {flag}: config field {field} must be {got}\n"
    assert not tree.exists()


def test_integer_config_value_for_a_float_field_is_accepted(tmp_path, trace_file):
    by_int, by_float = tmp_path / "by_int.json", tmp_path / "by_float.json"
    assert main(["analyze", str(trace_file), "--tree", str(by_int), "--flat-cpi-range", "0"]) == 0
    assert main(["analyze", str(trace_file), "--tree", str(by_float), "--flat-cpi-range", "0.0"]) == 0
    assert by_int.read_bytes() == by_float.read_bytes()


def ramp_trace(path):
    """4096 blocks, each executed once for 50 instructions at CPI 1, 2, ...,
    4096: every segment splits at a step, so the splits go as deep as
    max_depth allows."""
    lines = ["V 1", *(f"B {i} {0x1000 + 64 * i:x} 50 F" for i in range(4096))]
    lines += [f"E {i} {50.0 * (i + 1)!r}" for i in range(4096)]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_max_depth_at_the_ceiling_runs_every_command_on_a_ramp(tmp_path):
    trace = ramp_trace(tmp_path / "ramp.trace")
    tree, markers, report = tmp_path / "tree.json", tmp_path / "markers.json", tmp_path / "cmp.json"
    assert main(["analyze", str(trace), "--tree", str(tree), "--max-depth", "256"]) == 0
    depth, level = 0, [json.loads(tree.read_text())]
    while level := [child for node in level for child in node["children"]]:
        depth += 1
    assert depth == 256
    assert main(["markers", str(tree), "--out", str(markers)]) == 0
    assert main(["compare", str(trace), "--out", str(report), "--max-depth", "256"]) == 0


@pytest.mark.parametrize("command", ["analyze", "compare"])
def test_max_depth_above_the_ceiling_exits_2_naming_the_flag(tmp_path, capsys, command):
    trace, out = ramp_trace(tmp_path / "ramp.trace"), tmp_path / "out"
    assert main([*writing_to(command, trace, out), "--max-depth", "257"]) == 2
    assert capsys.readouterr().err == "error: --max-depth: max_depth must be in [1, 256]\n"
    assert not out.exists()


def test_an_internal_failure_exits_1(tmp_path, capsys, trace_file, monkeypatch):
    from phasescope import phases

    def broken(*args, **kwargs):
        raise RuntimeError("invariant broken")

    monkeypatch.setattr(phases, "analyze", broken)
    tree = tmp_path / "tree.json"
    assert main(["analyze", str(trace_file), "--tree", str(tree)]) == 1
    assert capsys.readouterr().err == "internal error: invariant broken\n"
    assert not tree.exists()
