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


@pytest.mark.parametrize("config_text, flag, message", [
    (None, "--config", "cannot read config {config}: [Errno 2]"),
    ("{not json", "--config", "cannot read config {config}: Expecting property name"),
    (None, "--resolution", "bad analysis config: resolution must be >= 2"),
], ids=["missing-config", "malformed-config", "resolution-1"])
def test_analyze_with_an_unusable_config_exits_2(tmp_path, capsys, trace_file, config_text, flag, message):
    config = tmp_path / "config.json"
    if config_text is not None:
        config.write_text(config_text)
    tree = tmp_path / "tree.json"
    value = str(config) if flag == "--config" else "1"
    assert main(["analyze", str(trace_file), "--tree", str(tree), flag, value]) == 2
    assert capsys.readouterr().err.startswith("error: " + message.format(config=config))
    assert not tree.exists()


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


def test_config_file_and_flag_overrides(tmp_path, trace_file):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"resolution": 512, "max_depth": 1}))
    tree = tmp_path / "tree.json"
    assert main([
        "analyze", str(trace_file), "--tree", str(tree),
        "--config", str(config), "--max-depth", "3",
    ]) == 0
    obj = json.loads(tree.read_text())
    # depth 3 allows the template and its split children to appear
    assert obj["children"] and obj["children"][0]["children"]

    bad = tmp_path / "bad_config.json"
    bad.write_text(json.dumps({"no_such_field": 1}))
    assert main(["analyze", str(trace_file), "--tree", str(tree), "--config", str(bad)]) == 2


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


def test_json_writers_refuse_non_finite_numbers():
    from phasescope import ErrorReport, PhaseNode
    from phasescope.baseline import comparison_json
    from phasescope.phases import export_markers, markers_json, tree_json

    node = PhaseNode(0, 0, 10, float("nan"))
    with pytest.raises(ValueError):
        tree_json(node, {0: 0x1000})
    with pytest.raises(ValueError):
        markers_json(export_markers(node, {0: 0x1000}))
    with pytest.raises(ValueError):
        comparison_json("t", [(ErrorReport(float("inf"), "bbfda"), 1)])


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


def test_analyze_waveform_csv_attributes_once(tmp_path, trace_file, monkeypatch):
    from phasescope import attribution, cli, phases

    trace = load_trace(trace_file)
    profiles = attribution.attribute_block_cpi(trace)
    expected = attribution.waveform_csv(trace, attribution.build_waveform(trace, profiles, 4096))

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return attribution.attribute_block_cpi(*args, **kwargs)

    monkeypatch.setattr(phases, "attribute_block_cpi", counting)
    monkeypatch.setattr(cli, "attribute_block_cpi", counting)
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


def test_only_commands_that_write_floats_import_orjson(tmp_path, trace_file):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(scenario_json(SCENARIO))
    commands = {
        "analyze": ["analyze", str(trace_file), "--tree", str(tmp_path / "tree.json")],
        "compare": ["compare", str(trace_file), "--out", str(tmp_path / "cmp.json")],
        "synth": ["synth", str(scenario), "--out-prefix", str(tmp_path / "s")],
    }
    imported = {}
    for name, args in commands.items():
        proc = run_module(*args, python_flags=["-X", "importtime"])
        assert proc.returncode == 0, proc.stderr
        # -X importtime writes "import time: self | cumulative | module" per import
        modules = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
        imported[name] = "orjson" in modules
    assert imported == {"analyze": True, "compare": False, "synth": True}


def test_import_and_compare_leave_orjson_unloaded(tmp_path, trace_file):
    # orjson's import costs every process that loads it about 5 ms
    code = ("import sys, phasescope\n"
            "print('orjson' in sys.modules)\n"
            "from phasescope.cli import main\n"
            "print(main(sys.argv[1:]), 'orjson' in sys.modules)\n")
    proc = run_python("-c", code, "compare", str(trace_file), "--out", str(tmp_path / "cmp.json"))
    assert (proc.stdout, proc.stderr) == ("False\n0 False\n", "")


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


# --- malformed tree, config and scenario files --------------------------------

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
    "child past its parent": lambda tree: {
        **tree, "children": [{**tree, "children": [], "length": tree["length"] + 1}]},
    "head block at two addresses": lambda tree: {
        **tree, "children": [{**tree, "children": [], "head_address": "0x1"}]},
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


def test_config_nested_too_deeply_exits_2_naming_the_file(tmp_path, capsys, trace_file):
    config = tmp_path / "config.json"
    config.write_text(DEEP_JSON)
    tree = tmp_path / "tree.json"
    assert main(["analyze", str(trace_file), "--tree", str(tree), "--config", str(config)]) == 2
    assert f"cannot read config {config}: maximum recursion depth exceeded" in capsys.readouterr().err
    assert not tree.exists()


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
    assert f"scenario {path} is nested too deeply: maximum recursion depth exceeded" in \
        capsys.readouterr().err
    assert not (tmp_path / "x.trace").exists()


@pytest.mark.parametrize("text", ["[1]", "null", "3", '"resolution"'])
def test_config_file_not_holding_an_object_exits_2_naming_the_file(tmp_path, capsys, trace_file, text):
    config = tmp_path / "config.json"
    config.write_text(text)
    tree = tmp_path / "tree.json"
    assert main(["analyze", str(trace_file), "--tree", str(tree), "--config", str(config)]) == 2
    assert str(config) in capsys.readouterr().err
    assert not tree.exists()


@pytest.mark.parametrize("text, field, got", [
    ('{"resolution": NaN}', "resolution", "nan"),
    ('{"resolution": 100.5}', "resolution", "100.5"),
    ('{"resolution": 512.0}', "resolution", "512.0"),
    ('{"resolution": true}', "resolution", "True"),
    ('{"max_depth": 2.5}', "max_depth", "2.5"),
    ('{"max_depth": true}', "max_depth", "True"),
    ('{"min_segment_instructions": "64"}', "min_segment_instructions", "'64'"),
    ('{"flat_cpi_range": NaN}', "flat_cpi_range", "nan"),
    ('{"flat_cpi_range": Infinity}', "flat_cpi_range", "inf"),
    ('{"flat_spectrum_ratio": false}', "flat_spectrum_ratio", "False"),
    ('{"boundary_threshold_fraction": null}', "boundary_threshold_fraction", "None"),
])
def test_wrongly_typed_config_value_exits_2_naming_field_and_file(
        tmp_path, capsys, trace_file, text, field, got):
    config = tmp_path / "config.json"
    config.write_text(text)
    tree = tmp_path / "tree.json"
    assert main(["analyze", str(trace_file), "--tree", str(tree), "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"config {config}: config field {field} must be" in err and f"got {got}" in err
    assert not tree.exists()


def test_non_finite_config_flag_exits_2_naming_the_flag(tmp_path, capsys, trace_file):
    tree = tmp_path / "tree.json"
    assert main(["analyze", str(trace_file), "--tree", str(tree), "--flat-cpi-range", "nan"]) == 2
    assert "--flat-cpi-range: config field flat_cpi_range must be a finite real number" in \
        capsys.readouterr().err
    assert not tree.exists()


def test_integer_config_value_for_a_float_field_is_accepted(tmp_path, trace_file):
    config = tmp_path / "config.json"
    config.write_text('{"flat_cpi_range": 0, "boundary_threshold_fraction": 1}')
    by_file, by_floats = tmp_path / "by_file.json", tmp_path / "by_floats.json"
    assert main(["analyze", str(trace_file), "--tree", str(by_file), "--config", str(config)]) == 0
    assert main(["analyze", str(trace_file), "--tree", str(by_floats), "--flat-cpi-range", "0.0",
                 "--boundary-threshold-fraction", "1.0"]) == 0
    assert by_file.read_bytes() == by_floats.read_bytes()


def test_config_flags_follow_the_config_fields():
    args = build_parser().parse_args([
        "analyze", "t.trace", "--resolution", "8", "--boundary-threshold-fraction", "0.25",
        "--flat-cpi-range", "0.5", "--flat-spectrum-ratio", "0.125", "--max-depth", "3",
        "--min-segment-instructions", "16",
    ])
    values = {f.name: getattr(args, f.name) for f in fields(AnalysisConfig)}
    assert values == {"resolution": 8, "boundary_threshold_fraction": 0.25, "flat_cpi_range": 0.5,
                      "flat_spectrum_ratio": 0.125, "max_depth": 3, "min_segment_instructions": 16}
    assert [type(v) for v in values.values()] == [int, float, float, float, int, int]


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
    (lambda s: s["segments"][0].update(event_count=10**30), f"{(10**30 + 2 * 2) * 2} events"),
    (lambda s: s.update(repetitions=2**62), f"{(3 + 2 * 2) * 2**62} events"),
    (lambda s: s["segments"][1].update(nested_repetitions=2**62), f"{(3 + 2 * 2**62) * 2} events"),
    (lambda s: s["segments"][0].update(block_instruction_count=2**62),
     f"{(3 * 2**62 + 4 * 2 * 2) * 2} instructions"),
    # past a float's range too: the scripted cycle sums must not raise first
    (lambda s: s["segments"][0].update(event_count=10**400), f"{(10**400 + 2 * 2) * 2} events"),
    (lambda s: s["segments"][1].update(nested_repetitions=10**400), f"{(3 + 2 * 10**400) * 2} events"),
])
def test_synth_refuses_a_scenario_beyond_int64_before_allocating(tmp_path, capsys, change, message):
    scenario = json.loads(json.dumps(NESTED_SCENARIO))
    change(scenario)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main(["synth", str(path), "--out-prefix", str(tmp_path / "x")]) == 2
    assert f"error: scenario has {message} in total, more than int64 holds" in capsys.readouterr().err
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


def test_a_config_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys, trace_file):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"resolution": 64}\xff')
    tree = tmp_path / "tree.json"
    assert main(["analyze", str(trace_file), "--tree", str(tree), "--config", str(config)]) == 2
    assert f"error: cannot read config {config}: 'utf-8' codec" in capsys.readouterr().err
    assert not tree.exists()


def test_a_scenario_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_bytes(scenario_json(SCENARIO).encode() + b"\xff")
    assert main(["synth", str(path), "--out-prefix", str(tmp_path / "x")]) == 2
    assert f"error: cannot read scenario {path}: 'utf-8' codec" in capsys.readouterr().err
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
