"""Time-quantum baseline phases, waveform prediction, and MAPE scoring."""

import math
import re
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasescope import (
    BlockDescriptor,
    EntryKind,
    ExecutionTrace,
    PhaseNode,
    ScenarioSpec,
    SegmentSpec,
    Terminator,
    Waveform,
    attribute_block_cpi,
    build_waveform,
    error_rate,
    generate,
    golden_waveform,
    parse_trace,
    predict_waveform,
    tq_phases,
)
from phasescope.attribution import sample_grid
from phasescope.baseline import TqPhaseList


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


def with_starts(phases):
    """(start, count, mean) per phase, the start summed from the counts
    before it, for comparison with greedy_oracle."""
    starts = accumulate((count for count, _ in phases[:-1]), initial=0)
    return [(start, count, mean) for start, (count, mean) in zip(starts, phases)]


def test_constant_trace_is_one_phase():
    trace = golden_trace_from_quanta([1.5] * 8)
    result = tq_phases(trace, 10, 0.1)
    assert len(result.phases) == 1
    assert result.phases[0] == (8, 1.5)


def test_alternating_quanta_never_merge():
    trace = golden_trace_from_quanta([1.0, 2.0] * 4)
    result = tq_phases(trace, 10, 0.1)
    assert len(result.phases) == 8
    assert all(count == 1 for count, _ in result.phases)


def test_step_trace_two_phases():
    trace = golden_trace_from_quanta([1.0] * 4 + [2.0] * 4)
    result = tq_phases(trace, 10, 0.1)
    assert result.phases == [(4, 1.0), (4, 2.0)]


def test_greedy_merge_matches_hand_oracle():
    rng = np.random.default_rng(13)
    for _ in range(10):
        cpis = list(rng.uniform(0.5, 3.0, size=int(rng.integers(3, 40))))
        delta = float(rng.uniform(0.05, 1.0))
        trace = golden_trace_from_quanta(cpis)
        result = tq_phases(trace, 10, delta)
        got = with_starts(result.phases)
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
        counts = [count for count, _ in result.phases]
        assert min(counts) >= 1
        assert sum(counts) == len(cpis)


def test_oversized_quantum_becomes_single_phase():
    trace = golden_trace_from_quanta([1.0, 2.0, 3.0])
    result = tq_phases(trace, 1000, 0.1)
    assert len(result.phases) == 1
    [(count, mean)] = result.phases
    assert count == 1
    assert mean == pytest.approx(2.0)


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
    assert [mean for _, mean in result.phases] == pytest.approx([1.0, 2.0, 1.0, 2.0])


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


# 20 instructions: two events at CPI 0.5 and 2.5 (golden CPI 1.5), and one
# quantum record of CPI 7.0 for the whole run
def run_of_one_quantum(length, cycles=(" 5.0", " 25.0")):
    return parse_trace(f"V 1\nB 0 1000 10 F\nE 0{cycles[0]}\nE 0{cycles[1]}\nL {length}\nQ 0 7.0\n")


@pytest.mark.parametrize("length", [20, 100])
@pytest.mark.parametrize("requested", [20, 100, 2**62])
def test_tq_scores_the_trace_quanta_when_the_requested_length_cuts_the_run_alike(length, requested):
    # every length at or past the run's end cuts it into the one quantum
    result = tq_phases(run_of_one_quantum(length), requested, 0.1)
    assert (result.quantum_length, result.phases) == (requested, [(1, 7.0)])


def test_tq_scores_golden_quanta_when_the_requested_length_cuts_the_run_otherwise():
    result = tq_phases(run_of_one_quantum(100), 10, 0.1)
    assert (result.quantum_length, result.phases) == (10, [(1, 0.5), (1, 2.5)])


def test_quantum_only_trace_scores_its_quanta_past_the_run_end():
    trace = run_of_one_quantum(100, cycles=("", ""))
    assert not trace.is_golden
    assert tq_phases(trace, 100, 0.1).phases == [(1, 7.0)]


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
    source = TqPhaseList(10, [(2, 1.0), (2, 2.0)])
    wave = predict_waveform(source, 40, 40)
    np.testing.assert_allclose(wave.samples, [1.0] * 20 + [2.0] * 20)


@pytest.mark.parametrize("phases", [
    pytest.param([(1, 1.5)], id="gap-at-end"),
    pytest.param([(1, 1.0), (2, 2.0)], id="gap-inside"),
    pytest.param([(3, 1.0), (2, 2.0)], id="overlap"),
    pytest.param([(2, 1.0), (3, 2.0)], id="overrun"),
    pytest.param([(0, 1.0), (4, 2.0)], id="empty-phase"),
    pytest.param([], id="no-phases"),
])
def test_tq_phase_list_must_tile_the_quanta(phases):
    with pytest.raises(ValueError, match="TQ phases must tile the run's 4 quanta"):
        predict_waveform(TqPhaseList(10, phases), 40, 40)


@pytest.mark.parametrize("phases, message", [
    # counts of 1.5 and 2.5 quanta would put a boundary inside quantum 1
    ([(1.5, 1.0), (2.5, 2.0)], "TQ phase 0: quantum count must be an integer, got 1.5"),
    ([(True, 1.0), (3, 2.0)], "TQ phase 0: quantum count must be an integer, got True"),
    ([(2, 1.0), (np.uint64(2**63), 2.0)],
     f"TQ phase 1: quantum count must be an integer within int64, got {np.uint64(2**63)!r}"),
    ([(2, "1.5"), (2, 2.0)], "TQ phase 0: mean CPI must be a finite real number, got '1.5'"),
    ([(2, 1.0), (2, True)], "TQ phase 1: mean CPI must be a finite real number, got True"),
    ([(2, float("nan")), (2, 2.0)], "TQ phase 0: mean CPI must be a finite real number, got nan"),
    ([(2, 1.0), (2, float("inf"))], "TQ phase 1: mean CPI must be a finite real number, got inf"),
], ids=["count-fractional", "count-bool", "count-beyond-int64", "mean-str", "mean-bool", "mean-nan",
        "mean-inf"])
def test_tq_phase_counts_and_means_must_be_numbers(phases, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        predict_waveform(TqPhaseList(10, phases), 40, 40)


def test_tq_phases_take_numpy_counts_and_means():
    phases = [(np.int64(2), np.float32(1.5)), (2, np.float64(2.0))]
    wave = predict_waveform(TqPhaseList(10, phases), 40, 40)
    np.testing.assert_array_equal(wave.samples, [1.5] * 20 + [2.0] * 20)


@pytest.mark.parametrize("length", [0, -5, 2.5, True, "10"])
def test_tq_phase_list_quantum_length_must_be_a_positive_integer(length):
    message = ("quantum_length must be positive" if type(length) is int
               else f"quantum_length must be an integer, got {length!r}")
    with pytest.raises(ValueError, match=re.escape(message)):
        predict_waveform(TqPhaseList(length, [(4, 1.0)]), 40, 40)


def test_tq_phase_list_takes_a_numpy_integer_quantum_length():
    wave = predict_waveform(TqPhaseList(np.int64(10), [(4, 1.5)]), 40, 40)
    np.testing.assert_array_equal(wave.samples, [1.5] * 40)


# 160 quanta of 10 instructions: 1600 instructions, CPI 1, 2, 1, 2, ...
ALTERNATING = golden_trace_from_quanta([1.0, 2.0] * 80)


@pytest.mark.parametrize("length, delta, message", [
    (2.5, 0.1, "quantum_length must be an integer, got 2.5"),
    (True, 0.1, "quantum_length must be an integer, got True"),
    (0, 0.1, "quantum_length must be positive"),
    (-8, 0.1, "quantum_length must be positive"),
    (8, float("nan"), "merge_delta must be a finite real number, got nan"),
    (8, 0.0, "merge_delta must be positive"),
    (8, -0.1, "merge_delta must be positive"),
    (8, True, "merge_delta must be a finite real number, got True"),
    (8, "0.1", "merge_delta must be a finite real number, got '0.1'"),
    (8, float("inf"), "merge_delta must be a finite real number, got inf"),
    (8, 10**400, f"merge_delta must be a finite real number, got {10**400!r}"),
], ids=["length-2.5", "length-True", "length-0", "length-negative", "delta-nan", "delta-0",
        "delta-negative", "delta-True", "delta-str", "delta-inf", "delta-huge-int"])
def test_tq_phases_rejects_a_length_or_delta_the_prediction_cannot_use(length, delta, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tq_phases(ALTERNATING, length, delta)


@pytest.mark.parametrize("source", [
    PhaseNode(0, 0, 16, 1.0), TqPhaseList(8, [(2, 1.0)]),
], ids=["tree", "tq"])
@pytest.mark.parametrize("total", [0, -8])
def test_prediction_over_an_empty_run_is_rejected(source, total):
    with pytest.raises(ValueError, match="^empty sample range$"):
        predict_waveform(source, total, 16)


def test_prediction_rejects_a_coarse_resolution_and_an_unknown_source():
    with pytest.raises(ValueError, match="^resolution must be >= 2$"):
        predict_waveform(PhaseNode(0, 0, 16, 1.0), 16, 1)
    with pytest.raises(TypeError, match="^cannot render list$"):
        predict_waveform([(2, 1.0)], 16, 16)


@pytest.mark.parametrize("resolution", [8.5, np.float64(16.0), True], ids=["8.5", "float64-16", "True"])
@pytest.mark.parametrize("render", [
    lambda trace, r: golden_waveform(trace, r),
    lambda trace, r: build_waveform(trace, attribute_block_cpi(trace), r),
    lambda trace, r: predict_waveform(PhaseNode(0, 0, 30, 2.0), 30, r),
    lambda trace, r: predict_waveform(TqPhaseList(10, [(3, 2.0)]), 30, r),
], ids=["golden", "profiles", "tree", "tq"])
def test_a_resolution_must_be_an_integer(render, resolution):
    trace = golden_trace_from_quanta([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=f"^resolution must be an integer, got {re.escape(repr(resolution))}$"):
        render(trace, resolution)


@pytest.mark.parametrize("child, message", [
    (PhaseNode(0, 0, 0, 2.0, occurrence=2), "empty child interval"),
    (PhaseNode(0, 8, 16, 2.0), "child extends past its parent"),
    (PhaseNode(0, 0, 8, 2.0, occurrence=0), "child occurs less than once"),
], ids=["zero-length-repeating", "past-parent", "occurrence-0"])
def test_prediction_refuses_a_tree_validate_tree_refuses(child, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        predict_waveform(PhaseNode(0, 0, 16, 1.0, children=[child]), 16, 16)


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
    report = error_rate(constant_wave(1.5), constant_wave(1.5))
    assert report.mean_absolute_percentage_error == 0.0


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


@pytest.mark.parametrize("predicted, golden, message", [
    (1.0, [2.0, 0.0], "golden CPI is 0.0 at instruction offset 1, where MAPE is undefined"),
    (0.5, [1e-320, 1.0], "golden CPI is 1e-320 at instruction offset 0, where MAPE is undefined"),
    # each term is 1e308, their sum is not finite
    (1e306, [1.0, 1.0], "MAPE overflows float64"),
], ids=["zero", "subnormal", "sum"])
def test_error_rate_refuses_a_mape_that_is_not_finite(predicted, golden, message):
    golden = Waveform(samples=np.array(golden), sample_stride=1, origin_instruction=0)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        error_rate(constant_wave(predicted, 2), golden)


@pytest.mark.parametrize("cpi", [float("inf"), float("nan"), 1e308])
def test_error_rate_names_a_predicted_cpi_that_leaves_mape_undefined(cpi):
    trace = golden_trace_from_quanta([2.0, 2.0], quantum=4)
    message = f"predicted CPI is {cpi!r} at instruction offset 0, where MAPE is undefined"
    if not math.isfinite(cpi):  # refused before it is scored
        message = f"TQ phase 0: mean CPI must be a finite real number, got {cpi!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        predicted = predict_waveform(TqPhaseList(4, [(2, cpi)]), 8, 2)
        error_rate(predicted, golden_waveform(trace, 2))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5000), st.integers(0, 2**32 - 1))
def test_error_rate_is_bit_identical_to_the_mean_of_the_terms(size, seed):
    # CPIs spread over four orders of magnitude, at every summation block size
    predicted, golden = np.exp(np.random.default_rng(seed).uniform(-4.6, 4.6, size=(2, size)))
    expected = float((np.abs(predicted - golden) / golden * 100.0).mean())
    wave = lambda samples: Waveform(samples=samples, sample_stride=1, origin_instruction=0)
    mape = error_rate(wave(predicted), wave(golden)).mean_absolute_percentage_error
    assert mape.hex() == expected.hex()


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
        assert with_starts(result.phases) == expected


@pytest.mark.parametrize("source", [
    PhaseNode(0, 0, 64, 1.5), TqPhaseList(8, [(8, 1.5)]),
], ids=["tree", "tq"])
def test_prediction_at_a_resolution_beyond_float64_samples_every_instruction(source):
    wave = predict_waveform(source, 64, 10**400)
    assert (wave.sample_stride, wave.samples.tolist()) == (1, [1.5] * 64)


# --- new sample paths against the ones they replaced ----------------------------

_INT64_MAX = 2**63 - 1


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_tq_samples_match_the_per_quantum_lookup(data):
    """Each sample takes the mean of the phase holding its quantum, as the
    per-quantum array indexed by offset // quantum_length gives it."""
    length = data.draw(st.one_of(st.integers(1, 40), st.integers(1, 10**6),
                                 st.integers(2**62 - 2**10, 2**62 + 2**10)), label="length")
    quanta = data.draw(st.integers(1, min(300, -(-_INT64_MAX // length))), label="quanta")
    low = (quanta - 1) * length + 1
    total = data.draw(st.integers(low, min(quanta * length, _INT64_MAX)), label="total")
    counts = []
    while sum(counts) < quanta:
        counts.append(data.draw(st.integers(1, quanta - sum(counts))))
    means = data.draw(st.lists(st.floats(0.05, 50.0), min_size=len(counts), max_size=len(counts)))
    resolution = data.draw(st.integers(2, 5000), label="resolution")

    wave = predict_waveform(TqPhaseList(length, list(zip(counts, means))), total, resolution)
    offsets, stride = sample_grid(0, total, resolution)
    per_quantum = np.repeat(np.array(means, dtype=float), counts)
    assert wave.sample_stride == stride
    assert np.array_equal(wave.samples, per_quantum[offsets // length])


def _render_tree_by_masks(node, offsets, mask, values):
    """Reference tree render: full-length spans built by `&` and every
    repeating child's offsets folded with np.remainder, spans empty or not."""
    values[mask] = node.mean_cpi
    children = node.children
    lo = node.start_instruction
    for i, child in enumerate(children):
        length = child.length_instructions
        if child.occurrence >= 2:
            hi = children[i + 1].start_instruction if i + 1 < len(children) else node.end_instruction
            span = mask & (offsets >= lo) & (offsets < hi)
            folded = child.start_instruction + (offsets - child.start_instruction) % length
        else:
            span = mask & (offsets >= child.start_instruction) & (
                offsets < child.end_instruction
            )
            folded = offsets
        lo = child.start_instruction + child.occurrence * length
        if not span.any():
            continue
        _render_tree_by_masks(child, folded, span, values)


@st.composite
def phase_trees(draw, start, length, depth=0):
    """A node over [start, start + length) whose children follow one another
    with gaps, each single or repeating, anchored anywhere in its stretch."""
    node = PhaseNode(0, start, length, draw(st.floats(0.05, 50.0)),
                     occurrence=draw(st.sampled_from([1, 1, 2, 3, 5])))
    cursor, end = start, start + length
    while depth < 3 and cursor < end and draw(st.booleans()):
        child_start = draw(st.integers(cursor, end - 1))
        child_length = draw(st.integers(1, end - child_start))
        child = draw(phase_trees(child_start, child_length, depth + 1))
        node.children.append(child)
        cursor = child_start + child.occurrence * child_length
    return node


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 5000).flatmap(lambda total: st.tuples(
    st.just(total), phase_trees(0, total), st.integers(2, 6000))))
def test_tree_samples_match_the_mask_render(case):
    total, tree, resolution = case
    offsets, _ = sample_grid(0, total, resolution)
    expected = np.empty(offsets.size, dtype=float)
    _render_tree_by_masks(tree, offsets, np.ones(offsets.size, dtype=bool), expected)
    assert np.array_equal(predict_waveform(tree, total, resolution).samples, expected)
