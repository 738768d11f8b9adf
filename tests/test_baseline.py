"""Time-quantum baseline phases, waveform prediction, and MAPE scoring."""

import re

import numpy as np
import pytest

from phasescope import (
    BlockDescriptor,
    EntryKind,
    ExecutionTrace,
    PhaseNode,
    ScenarioSpec,
    SegmentSpec,
    Terminator,
    Waveform,
    error_rate,
    generate,
    golden_waveform,
    predict_waveform,
    tq_phases,
)
from phasescope.baseline import TqPhase, TqPhaseList


def block(bid, instrs=10):
    return BlockDescriptor(bid, 0x1000 + bid * 0x100, instrs, Terminator.FALLTHROUGH)


def golden_trace_from_quanta(cpis, quantum=10):
    """One block per quantum so per-quantum CPI equals the scripted list."""
    blocks = {0: block(0, quantum)}
    cycles = [cpi * quantum for cpi in cpis]
    return ExecutionTrace(blocks=blocks, event_blocks=[0] * len(cpis), event_cycles=cycles)


def greedy_oracle(cpis, delta):
    """Hand simulation of the merge rule for the oracle side."""
    phases = []
    start, acc, count = 0, cpis[0], 1
    for i in range(1, len(cpis)):
        if abs(cpis[i] - acc / count) <= delta:
            acc += cpis[i]
            count += 1
        else:
            phases.append((start, count, acc / count))
            start, acc, count = i, cpis[i], 1
    phases.append((start, count, acc / count))
    return phases


def test_constant_trace_is_one_phase():
    trace = golden_trace_from_quanta([1.5] * 8)
    result = tq_phases(trace, 10, 0.1)
    assert len(result.phases) == 1
    assert result.phases[0] == TqPhase(0, 8, 1.5)


def test_alternating_quanta_never_merge():
    trace = golden_trace_from_quanta([1.0, 2.0] * 4)
    result = tq_phases(trace, 10, 0.1)
    assert len(result.phases) == 8
    assert all(p.quantum_count == 1 for p in result.phases)


def test_step_trace_two_phases():
    trace = golden_trace_from_quanta([1.0] * 4 + [2.0] * 4)
    result = tq_phases(trace, 10, 0.1)
    assert [(p.start_quantum, p.quantum_count, p.mean_cpi) for p in result.phases] == [
        (0, 4, 1.0),
        (4, 4, 2.0),
    ]


def test_greedy_merge_matches_hand_oracle():
    rng = np.random.default_rng(13)
    for _ in range(10):
        cpis = list(rng.uniform(0.5, 3.0, size=int(rng.integers(3, 40))))
        delta = float(rng.uniform(0.05, 1.0))
        trace = golden_trace_from_quanta(cpis)
        result = tq_phases(trace, 10, delta)
        got = [(p.start_quantum, p.quantum_count, p.mean_cpi) for p in result.phases]
        expected = greedy_oracle(np.array(cpis), delta)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g[0] == e[0] and g[1] == e[1]
            assert g[2] == pytest.approx(e[2], abs=1e-12)


def test_phases_tile_quanta_exactly():
    rng = np.random.default_rng(29)
    for _ in range(10):
        cpis = list(rng.uniform(0.5, 3.0, size=int(rng.integers(2, 30))))
        trace = golden_trace_from_quanta(cpis)
        result = tq_phases(trace, 10, float(rng.uniform(0.01, 2.0)))
        cursor = 0
        for phase in result.phases:
            assert phase.start_quantum == cursor
            cursor += phase.quantum_count
        assert cursor == len(cpis)


def test_oversized_quantum_becomes_single_phase():
    trace = golden_trace_from_quanta([1.0, 2.0, 3.0])
    result = tq_phases(trace, 1000, 0.1)
    assert len(result.phases) == 1
    assert result.phases[0].quantum_count == 1
    assert result.phases[0].mean_cpi == pytest.approx(2.0)


def test_tq_from_matching_quantum_records():
    spec = ScenarioSpec(
        segments=[
            SegmentSpec("a", block_cpi=1.0, block_instruction_count=10, event_count=4),
            SegmentSpec("b", block_cpi=2.0, block_instruction_count=10, event_count=4),
        ],
        repetitions=2,
        quantum_length=40,
    )
    from phasescope import generate

    trace, _ = generate(spec)
    result = tq_phases(trace, 40, 0.1)
    assert [p.mean_cpi for p in result.phases] == pytest.approx([1.0, 2.0, 1.0, 2.0])


def test_quantum_only_trace_with_mismatched_length_rejected():
    trace = ExecutionTrace(
        blocks={0: block(0, 10)},
        event_blocks=[0] * 4,
        event_cycles=[np.nan] * 4,
        quanta=[1.5] * 4,
        quantum_length=10,
    )
    with pytest.raises(ValueError, match="matching quantum_length"):
        tq_phases(trace, 20, 0.1)


# --- prediction rendering ------------------------------------------------------

def test_single_leaf_tree_renders_constant():
    tree = PhaseNode(0, 0, 100, 1.5)
    wave = predict_waveform(tree, 100, 10)
    np.testing.assert_allclose(wave.samples, 1.5)
    assert wave.sample_stride == 10


def test_template_tiling_renders_square_wave():
    # D = 80: occurrence-4 template of length 20 holding a low/high split
    template = PhaseNode(0, 0, 20, 1.5, occurrence=4, children=[
        PhaseNode(0, 0, 10, 1.0),
        PhaseNode(1, 10, 10, 2.0),
    ])
    tree = PhaseNode(0, 0, 80, 1.5, children=[template])
    wave = predict_waveform(tree, 80, 80)
    expected = np.array(([1.0] * 10 + [2.0] * 10) * 4)
    np.testing.assert_allclose(wave.samples, expected)


def test_template_anchored_late_wraps_backwards():
    # template aligned at 10 with period 20: offsets before the anchor fold
    # into the wrapped instance
    template = PhaseNode(1, 10, 20, 1.5, occurrence=4, children=[
        PhaseNode(1, 10, 10, 2.0),
        PhaseNode(0, 20, 10, 1.0),
    ])
    tree = PhaseNode(0, 0, 80, 1.5, children=[template])
    wave = predict_waveform(tree, 80, 80)
    expected = np.array(([1.0] * 10 + [2.0] * 10) * 4)
    np.testing.assert_allclose(wave.samples, expected)


def test_sibling_loops_each_tile_only_their_own_stretch():
    # a x3 then b x2 in one parent: each loop tiles from the previous
    # sibling's extent to the next sibling's start, not the whole parent
    loop_a = PhaseNode(0, 0, 10, 1.5, occurrence=3, children=[
        PhaseNode(0, 0, 5, 1.0),
        PhaseNode(1, 5, 5, 2.0),
    ])
    loop_b = PhaseNode(2, 30, 10, 3.5, occurrence=2, children=[
        PhaseNode(2, 30, 5, 3.0),
        PhaseNode(3, 35, 5, 4.0),
    ])
    tree = PhaseNode(0, 0, 50, 2.3, children=[loop_a, loop_b])
    wave = predict_waveform(tree, 50, 50)
    expected = np.array(([1.0] * 5 + [2.0] * 5) * 3 + ([3.0] * 5 + [4.0] * 5) * 2)
    np.testing.assert_allclose(wave.samples, expected)


def test_unequal_truth_tree_renders_near_the_golden_waveform():
    # the scripted truth of two sibling loops, a x3 then b x2, repeated
    def flat(label, cpi, instrs, events):
        return SegmentSpec(label, block_cpi=cpi, block_instruction_count=instrs, event_count=events)

    a = SegmentSpec("a", nested=[flat("a0", 0.8, 4, 9), flat("a1", 2.6, 6, 7)],
                    nested_repetitions=3, entry_kind=EntryKind.BACKWARD_BRANCH)
    b = SegmentSpec("b", nested=[flat("b0", 1.9, 5, 11), flat("b1", 0.6, 3, 13),
                                 flat("b2", 2.9, 7, 5)], nested_repetitions=2)
    trace, annotation = generate(ScenarioSpec([a, b], repetitions=10, noise_stddev=0.05, seed=7))
    period = annotation.true_phases.children[0]
    assert [c.occurrence for c in period.children] == [3, 2]
    total = trace.total_instructions
    predicted = predict_waveform(annotation.true_phases, total, 4096)
    mape = error_rate(predicted, golden_waveform(trace, 4096)).mean_absolute_percentage_error
    assert mape < 5.0


def test_tq_phase_list_renders_step():
    source = TqPhaseList(10, [TqPhase(0, 2, 1.0), TqPhase(2, 2, 2.0)])
    wave = predict_waveform(source, 40, 40)
    np.testing.assert_allclose(wave.samples, [1.0] * 20 + [2.0] * 20)


@pytest.mark.parametrize("phases", [
    pytest.param([TqPhase(0, 1, 1.5)], id="gap-at-end"),
    pytest.param([TqPhase(0, 1, 1.0), TqPhase(2, 2, 2.0)], id="gap-inside"),
    pytest.param([TqPhase(0, 3, 1.0), TqPhase(2, 2, 2.0)], id="overlap"),
    pytest.param([TqPhase(0, 2, 1.0), TqPhase(2, 3, 2.0)], id="overrun"),
    pytest.param([TqPhase(0, 0, 1.0), TqPhase(0, 4, 2.0)], id="empty-phase"),
    pytest.param([], id="no-phases"),
])
def test_tq_phase_list_must_tile_the_quanta(phases):
    with pytest.raises(ValueError, match="TQ phases must tile the run's 4 quanta"):
        predict_waveform(TqPhaseList(10, phases), 40, 40)


@pytest.mark.parametrize("length", [0, -5, 2.5, True, "10"])
def test_tq_phase_list_quantum_length_must_be_a_positive_integer(length):
    message = f"quantum_length must be a positive integer, got {length!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        predict_waveform(TqPhaseList(length, [TqPhase(0, 4, 1.0)]), 40, 40)


def test_tq_phase_list_takes_a_numpy_integer_quantum_length():
    wave = predict_waveform(TqPhaseList(np.int64(10), [TqPhase(0, 4, 1.5)]), 40, 40)
    np.testing.assert_array_equal(wave.samples, [1.5] * 40)


def test_prediction_grid_matches_golden_grid():
    spec = ScenarioSpec(
        segments=[
            SegmentSpec("a", block_cpi=1.0, block_instruction_count=7, event_count=9),
            SegmentSpec("b", block_cpi=2.0, block_instruction_count=5, event_count=6),
        ],
        repetitions=3,
    )
    from phasescope import analyze, generate

    trace, _ = generate(spec)
    golden = golden_waveform(trace, 256)
    predicted = predict_waveform(analyze(trace), trace.total_instructions, 256)
    assert predicted.samples.size == golden.samples.size
    assert predicted.sample_stride == golden.sample_stride


# --- error metric ---------------------------------------------------------------

def constant_wave(value, n=32):
    return Waveform(
        samples=np.full(n, float(value)),
        sample_stride=1,
        origin_instruction=0,
    )


def test_identical_waveforms_score_zero():
    report = error_rate(constant_wave(1.5), constant_wave(1.5), "x")
    assert report.mean_absolute_percentage_error == 0.0
    assert report.method_label == "x"


def test_ten_percent_offset():
    report = error_rate(constant_wave(1.1), constant_wave(1.0))
    assert report.mean_absolute_percentage_error == pytest.approx(10.0, abs=1e-9)


def test_square_vs_its_mean_closed_form():
    golden = Waveform(
        samples=np.array([1.0, 2.0] * 16),
        sample_stride=1,
        origin_instruction=0,
    )
    report = error_rate(constant_wave(1.5), golden)
    # mean(|1.5-s|/s) over the two levels: (0.5/1.0 + 0.5/2.0)/2 = 0.375
    assert report.mean_absolute_percentage_error == pytest.approx(37.5, abs=1e-9)


def test_mismatched_grids_rejected():
    with pytest.raises(ValueError, match="share grid"):
        error_rate(constant_wave(1.0, 16), constant_wave(1.0, 32))


def test_merge_is_bit_identical_to_the_numpy_scalar_merge():
    rng = np.random.default_rng(41)
    for _ in range(20):
        cpis = rng.uniform(0.5, 3.0, size=int(rng.integers(2, 60)))
        delta = float(rng.uniform(0.05, 1.0))
        trace = ExecutionTrace(blocks={0: block(0, 10)}, event_blocks=[0] * cpis.size,
                               event_cycles=cpis * 10, quanta=cpis, quantum_length=10)
        result = tq_phases(trace, 10, delta)
        # the oracle merges numpy float64 scalars read from the quantum column
        expected = greedy_oracle(trace.quanta, delta)
        assert [(p.start_quantum, p.quantum_count, p.mean_cpi) for p in result.phases] == expected
