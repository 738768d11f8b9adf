"""Acceptance gate: one test per criterion, each printing a PASS line.

 1. 4-period square over 4500 instructions -> occurrence 4, length 1125,
    exactly. Runtime < 1 s.
 2. Period-10 pattern over 400 instructions -> occurrence 40, length 10.
    Runtime < 1 s.
 3. Fast transform matches the naive O(N^2) DFT within 1e-9 per bin over
    100 random waveforms, N in 16..1024. Runtime < 30 s.
 4. Quantum-weighted block CPI equals golden CPI within 1e-9 when quanta
    are pure, and equals the hand-evaluated weighted average when quanta
    are mixed. Runtime < 5 s.
 5. Two-level scenario (outer 600, inner 100, zero noise) -> depth >= 2,
    lengths within one sample stride, CPIs within 1e-9. Runtime < 5 s.
 6. Backward-branch-entered phase head tagged loop, call-entered head
    tagged function. Runtime < 1 s.
 7. Constant trace -> single leaf; CPI range 0.25 under the default 0.3
    flatness band -> leaf. Runtime < 1 s.
 8. Ideal step -> two phases split at the step within one sample stride.
    Runtime < 1 s.
 9. Over 20 scenarios with quantum-misaligned boundaries and mild noise,
    the tree prediction beats both TQ configurations in >= 18 cases and
    strictly on mean MAPE. Runtime < 60 s.
10. synth and analyze are byte-identical across repeated runs.
    Runtime < 5 s.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import json
import time

import numpy as np
import pytest

from phasescope import (
    AnalysisConfig,
    ScenarioSpec,
    SegmentSpec,
    EntryKind,
    Structure,
    analyze,
    attribute_block_cpi,
    build_waveform,
    dft_magnitude,
    generate,
    golden_waveform,
    main_spectrum,
    predict_waveform,
    tq_phases,
)
from phasescope.attribution import Waveform
from phasescope.baseline import error_rate
from phasescope.cli import main as cli_main
from phasescope.phases import tree_json
from phasescope.synth import scenario_json


def _report(criterion, elapsed, limit, detail):
    assert elapsed < limit, f"criterion {criterion} exceeded {limit}s ({elapsed:.2f}s)"
    print(f"[acceptance] criterion {criterion:2d} PASS ({elapsed:6.3f}s) {detail}")


def flat(label, cpi, instrs, events, entry=EntryKind.FALLTHROUGH):
    return SegmentSpec(label, block_cpi=cpi, block_instruction_count=instrs,
                       event_count=events, entry_kind=entry)


def test_criterion_1_phase_length_formula_4500():
    t0 = time.perf_counter()
    spec = ScenarioSpec(
        segments=[flat("lo", 1.0, 560, 1), flat("hi", 2.0, 565, 1)],
        repetitions=4,
    )
    trace, _ = generate(spec)
    assert trace.total_instructions == 4500
    wave = build_waveform(trace, attribute_block_cpi(trace), 4096)
    assert main_spectrum(dft_magnitude(wave)) == 4
    tree = analyze(trace)
    template = tree.children[0]
    assert template.occurrence == 4
    assert template.length_instructions == 1125
    _report(1, time.perf_counter() - t0, 1.0, "D=4500 -> X=4, L=1125")


def test_criterion_2_fine_pattern_400():
    t0 = time.perf_counter()
    spec = ScenarioSpec(
        segments=[flat("lo", 1.0, 5, 1), flat("hi", 2.0, 5, 1)],
        repetitions=40,
    )
    trace, _ = generate(spec)
    assert trace.total_instructions == 400
    wave = build_waveform(trace, attribute_block_cpi(trace), 4096)
    assert main_spectrum(dft_magnitude(wave)) == 40
    tree = analyze(trace)
    assert [(c.start_instruction, c.length_instructions, c.occurrence) for c in tree.children] == [(5, 10, 40)]
    _report(2, time.perf_counter() - t0, 1.0, "D=400 -> X=40, L=10")


def test_criterion_3_dft_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(16, 1025))
        samples = rng.uniform(0.2, 4.0, size=n)
        wave = Waveform(
            samples=samples,
            sample_stride=1,
            origin_instruction=0,
        )
        fast = dft_magnitude(wave)
        ks = np.arange(n // 2 + 1)
        grid = np.exp(-2.0j * np.pi * np.outer(ks, np.arange(n)) / n)
        naive = np.abs(grid @ samples) / n
        worst = max(worst, float(np.max(np.abs(fast - naive))))
        assert np.all(np.abs(fast - naive) < 1e-9)
    _report(3, time.perf_counter() - t0, 30.0, f"100 waveforms, worst gap {worst:.2e}")


def test_criterion_4_attribution_fidelity():
    t0 = time.perf_counter()
    # pure quanta: each quantum holds exactly one block's events
    pure = ScenarioSpec(
        segments=[flat("a", 1.25, 5, 8), flat("b", 2.75, 5, 8)],
        repetitions=5,
        quantum_length=40,
    )
    trace, _ = generate(pure)
    quantum = attribute_block_cpi(trace, mode="quantum")
    golden = attribute_block_cpi(trace, mode="golden")
    for bid in golden:
        assert quantum[bid] == pytest.approx(golden[bid], abs=1e-9)

    # mixed quanta: boundary at 37 cuts across both blocks; the expected
    # value is the hand-evaluated weighted average of quantum CPIs over the
    # quanta where each block's events start
    mixed = ScenarioSpec(
        segments=[flat("a", 1.0, 5, 8), flat("b", 3.0, 5, 8)],
        repetitions=5,
        quantum_length=37,
    )
    trace, _ = generate(mixed)
    v = trace.quanta.tolist()
    offsets = {}
    cursor = 0
    expect = {}
    for bid in trace.event_blocks.tolist():
        blk = trace.blocks[bid]
        num, den = expect.get(bid, (0.0, 0))
        expect[bid] = (num + v[cursor // 37], den + 1)
        cursor += blk.instruction_count
    profiles = attribute_block_cpi(trace, mode="quantum")
    for bid, (num, den) in expect.items():
        assert profiles[bid] == pytest.approx(num / den, abs=1e-9)
    _report(4, time.perf_counter() - t0, 5.0, "pure and mixed quanta match oracles")


def test_criterion_5_two_level_hierarchy_recovery():
    t0 = time.perf_counter()
    spec = ScenarioSpec(
        segments=[
            SegmentSpec("bc", nested=[flat("b", 1.2, 50, 1), flat("c", 0.8, 50, 1)],
                        nested_repetitions=3),
            SegmentSpec("ef", nested=[flat("e", 4.2, 50, 1), flat("f", 3.8, 50, 1)],
                        nested_repetitions=3),
        ],
        repetitions=4,
    )
    trace, annotation = generate(spec)
    tree = analyze(trace)
    stride = 1  # D = 2400 < default resolution

    depth = 0
    stack = [(tree, 0)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        stack.extend((c, d + 1) for c in node.children)
    assert depth >= 2

    recovered = [n.length_instructions for n in tree.walk()]
    truth = {n.length_instructions for n in annotation.true_phases.walk()}
    assert {600, 100} <= truth
    assert any(abs(l - 600) <= stride for l in recovered)
    assert any(abs(l - 100) <= stride for l in recovered)
    outer = next(n for n in tree.walk() if abs(n.length_instructions - 600) <= stride)
    assert outer.occurrence == 4
    inner = [n for n in tree.walk() if abs(n.length_instructions - 100) <= stride]
    assert any(n.occurrence == 3 for n in inner)

    script = np.array(
        (([1.2] * 50 + [0.8] * 50) * 3 + ([4.2] * 50 + [3.8] * 50) * 3) * 4
    )
    for node in tree.walk():
        expected = float(script[node.start_instruction:node.end_instruction].mean())
        assert node.mean_cpi == pytest.approx(expected, abs=1e-9)
    _report(5, time.perf_counter() - t0, 5.0, "lengths 600/100 and exact CPIs recovered")


def test_criterion_6_structure_tags():
    t0 = time.perf_counter()
    spec = ScenarioSpec(
        segments=[
            flat("loop_head", 2.5, 25, 10, entry=EntryKind.BACKWARD_BRANCH),
            flat("callee", 1.5, 20, 10, entry=EntryKind.CALL),
            flat("plain", 1.0, 15, 10),
        ],
        repetitions=8,
    )
    trace, _ = generate(spec)
    tree = analyze(trace)
    tags = {}
    for node in tree.walk():
        tags.setdefault(node.head_block, set()).add(node.structure)
    assert Structure.LOOP in tags[0], "backward-branch-entered head must tag loop"
    assert Structure.FUNCTION in tags[1], "call-entered head must tag function"
    _report(6, time.perf_counter() - t0, 1.0, "loop and function heads tagged exactly")


def test_criterion_7_flat_termination():
    t0 = time.perf_counter()
    constant = ScenarioSpec(segments=[flat("a", 1.5, 5, 200)], repetitions=2)
    trace, _ = generate(constant)
    tree = analyze(trace)
    assert tree.children == []

    narrow = ScenarioSpec(
        segments=[flat("a", 1.0, 25, 8), flat("b", 1.25, 25, 8)],
        repetitions=6,
    )
    trace, _ = generate(narrow)
    config = AnalysisConfig()
    assert config.flat_cpi_range == 0.3
    tree = analyze(trace, config)
    assert tree.children == []  # range 0.25 sits inside the flatness band
    _report(7, time.perf_counter() - t0, 1.0, "constant and 0.25-range traces stay leaves")


def test_criterion_8_occurrence_one_split():
    t0 = time.perf_counter()
    spec = ScenarioSpec(
        segments=[flat("lo", 1.0, 25, 24), flat("hi", 2.0, 25, 24)],
        repetitions=1,
    )
    trace, _ = generate(spec)
    assert trace.total_instructions == 1200
    tree = analyze(trace)
    assert len(tree.children) == 2
    first, second = tree.children
    stride = 1
    assert abs(first.end_instruction - 600) <= stride
    assert second.start_instruction == first.end_instruction
    assert first.mean_cpi == pytest.approx(1.0, abs=1e-9)
    assert second.mean_cpi == pytest.approx(2.0, abs=1e-9)
    _report(8, time.perf_counter() - t0, 1.0, "step split within one stride of 600")


def _misaligned_scenario(i):
    rng = np.random.default_rng(1000 + i)
    lo = float(rng.uniform(0.6, 1.2))
    hi = lo + float(rng.uniform(1.0, 2.0))
    odd_lo = int(rng.integers(13, 40)) * 2 + 1  # odd event counts keep the
    odd_hi = int(rng.integers(13, 40)) * 2 + 1  # boundaries off quantum grids
    instr = int(rng.integers(3, 8))
    return ScenarioSpec(
        segments=[
            flat("lo", lo, instr, odd_lo),
            flat("hi", hi, instr, odd_hi),
        ],
        repetitions=int(rng.integers(5, 9)),
        noise_stddev=float(rng.uniform(0.05, 0.1)),
        seed=i,
    )


def test_criterion_9_tree_beats_time_quanta():
    t0 = time.perf_counter()
    resolution = 4096
    wins = 0
    tree_mapes, tq_fine_mapes, tq_coarse_mapes = [], [], []
    for i in range(20):
        trace, _ = generate(_misaligned_scenario(i))
        total = trace.total_instructions
        golden = golden_waveform(trace, resolution)
        tree = analyze(trace)
        tree_mape = error_rate(
            predict_waveform(tree, total, resolution), golden
        ).mean_absolute_percentage_error

        tq_mapes = []
        for quantum in (max(1, total // 64), max(1, total // 8)):
            tq = tq_phases(trace, quantum, 0.1)
            tq_mapes.append(error_rate(
                predict_waveform(tq, total, resolution), golden
            ).mean_absolute_percentage_error)

        tree_mapes.append(tree_mape)
        tq_fine_mapes.append(tq_mapes[0])
        tq_coarse_mapes.append(tq_mapes[1])
        if tree_mape <= tq_mapes[0] and tree_mape <= tq_mapes[1]:
            wins += 1

    assert wins >= 18, f"tree prediction won only {wins}/20 scenarios"
    assert np.mean(tree_mapes) < np.mean(tq_fine_mapes)
    assert np.mean(tree_mapes) < np.mean(tq_coarse_mapes)
    _report(
        9, time.perf_counter() - t0, 60.0,
        f"wins {wins}/20; means {np.mean(tree_mapes):.2f}% vs "
        f"{np.mean(tq_fine_mapes):.2f}% / {np.mean(tq_coarse_mapes):.2f}%",
    )


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    scenario = tmp_path / "scenario.json"
    scenario.write_text(scenario_json(ScenarioSpec(
        segments=[flat("a", 1.0, 10, 7), flat("b", 2.2, 10, 9)],
        repetitions=5,
        noise_stddev=0.08,
        seed=41,
    )))
    payloads = []
    for run in ("r1", "r2"):
        prefix = tmp_path / run
        assert cli_main(["synth", str(scenario), "--out-prefix", str(prefix)]) == 0
        tree_path = tmp_path / f"{run}.tree.json"
        assert cli_main(["analyze", f"{prefix}.trace", "--tree", str(tree_path)]) == 0
        payloads.append((
            (tmp_path / f"{run}.trace").read_bytes(),
            (tmp_path / f"{run}.annotation.json").read_bytes(),
            tree_path.read_bytes(),
        ))
    assert payloads[0] == payloads[1]

    # in-process analyze is a pure function of the trace bytes too
    trace, _ = generate(ScenarioSpec(
        segments=[flat("a", 1.0, 10, 7), flat("b", 2.2, 10, 9)],
        repetitions=5, noise_stddev=0.08, seed=41,
    ))
    assert tree_json(analyze(trace), trace.blocks) == tree_json(analyze(trace), trace.blocks)
    _report(10, time.perf_counter() - t0, 5.0, "synth and analyze byte-identical")
