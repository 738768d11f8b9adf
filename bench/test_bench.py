"""Tests of the benchmark's own code: truth scoring, output checks, spans
that survive deleted functions, and deterministic workloads."""

import json
import sys
import types

import pytest

import corpus
import spans
import truth
import workloads


def node(start, length, occurrence=1, children=()):
    return {"start": start, "length": length, "occurrence": occurrence, "children": list(children)}


# one truth phase repeating 8 times, 1200 instructions each, inside 9600
TRUTH = node(0, 9600, 1, [node(0, 1200, 8, [node(0, 400), node(400, 800)])])


def test_recall_exact_match():
    tree = node(0, 9600, 1, [node(0, 1200, 8)])
    assert truth.truth_recall(tree, TRUTH) == (2, 2)


def test_recall_allows_one_stride_and_no_more():
    step = truth.stride(9600)  # stride of the root segment the phase is found in
    assert step == 3
    within = node(0, 9600, 1, [node(5, 1200 + step, 8)])
    beyond = node(0, 9600, 1, [node(5, 1200 + step + 1, 8)])
    assert truth.truth_recall(within, TRUTH) == (2, 2)
    assert truth.truth_recall(beyond, TRUTH) == (1, 2)


def test_recall_rejects_a_harmonic():
    harmonic = node(0, 9600, 1, [node(0, 300, 32)])  # 4x occurrence, 1/4 length
    assert truth.truth_recall(harmonic, TRUTH) == (1, 2)


def test_recall_of_a_single_leaf_counts_only_the_root():
    assert truth.truth_recall(node(0, 9600), TRUTH) == (1, 2)


def test_load_strict_rejects_non_finite_numbers():
    assert truth.load_strict('{"mean_cpi": 1.5}') == {"mean_cpi": 1.5}
    for literal in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ValueError):
            truth.load_strict(f'{{"mean_cpi": {literal}}}')


@pytest.mark.parametrize("children", [
    [node(100, 50), node(120, 50)],   # overlap
    [node(200, 50), node(100, 50)],   # out of order
    [node(950, 100)],                 # past the parent
    [node(10, 0)],                    # empty
])
def test_check_tree_rejects_malformed_children(children):
    truth.check_tree(node(0, 1000, 1, [node(0, 100)]))
    with pytest.raises(ValueError):
        truth.check_tree(node(0, 1000, 1, children))


def test_spans_report_deleted_functions_as_absent(monkeypatch):
    fake = types.ModuleType("fake_layer")
    fake.kept = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "fake_layer", fake)
    tracer = spans.Tracer()
    sites = [("fake_layer:kept", "fake.kept", None),
             ("fake_layer:gone", "fake.gone", None),
             ("no_such_module:f", "fake.missing", None)]
    absent, uninstall = spans.install(tracer, sites)
    try:
        assert absent == ["fake_layer:gone", "no_such_module:f"]
        assert fake.kept(1) == 2
    finally:
        uninstall()
    assert fake.kept(1) == 2
    summary = tracer.summarize()
    assert summary["counts"] == {"fake.kept.calls": 1}
    assert "fake.gone" not in summary["total_s"]


def test_traced_cli_runs_with_a_wrapped_name_deleted(tmp_path, monkeypatch):
    from phasescope import cli
    from phasescope.synth import scenario_json, scenario_from_json

    scenario = tmp_path / "scenario.json"
    scenario.write_text(scenario_json(scenario_from_json(json.dumps(workloads.hier_corpus(0, 1)[0]))))
    assert cli.main(["synth", str(scenario), "--out-prefix", str(tmp_path / "in")]) == 0

    monkeypatch.delattr(cli, "golden_waveform")  # wrapped for compare; analyze never calls it
    tracer = spans.Tracer()
    absent, uninstall = spans.install(tracer)
    try:
        code = cli.main(["analyze", str(tmp_path / "in.trace"), "--tree", str(tmp_path / "tree.json")])
    finally:
        uninstall()
    assert code == 0
    assert absent == ["phasescope.cli:golden_waveform"]
    metrics = spans.layer_metrics(spans.merge([tracer.summarize()]))
    assert metrics["attribution.index_builds"] == 2
    assert metrics["spectral.segments"] >= 1
    assert metrics["phases.nodes"] >= 1
    assert metrics["attribution.waveform_s"] == 0.0
    layers = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers == pytest.approx(tracer.summarize()["wall_s"])


def test_corpus_pass_records_a_failure_instead_of_raising(monkeypatch):
    from phasescope import phases

    good = corpus.run_pass(seed=0, size=3)
    assert good["failed"] == []
    assert 0 < good["truth_recall"] <= 1 and good["tree_mape_pct"] > 0

    def broken(*args, **kwargs):
        raise RuntimeError("analysis failed")

    monkeypatch.setattr(phases, "analyze", broken)
    bad = corpus.run_pass(seed=0, size=3)
    assert bad["failed"] == ["analyze", "compare"]
    assert "analysis failed" in bad["errors"][0]


def test_workloads_are_deterministic_and_sized_by_seed():
    assert workloads.hier_corpus(7, 6) == workloads.hier_corpus(7, 6)
    assert workloads.hier_corpus(7, 6) != workloads.hier_corpus(8, 6)
    for build, blocks in ((workloads.golden_512blk, 512), (workloads.quanta_8blk, 8)):
        for seed in (1, 2):
            sizes = workloads.input_sizes(build(seed))
            assert sizes["distinct_blocks"] == blocks
            assert abs(sizes["events"] - workloads.FILE_EVENTS) < 0.01 * workloads.FILE_EVENTS
