"""Phase identification: head candidates, alignment, step splitting,
structure classification, the tree-building driver, and marker export."""

import dataclasses
import gc
import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasescope import (
    AnalysisConfig,
    BlockDescriptor,
    EntryKind,
    ExecutionTrace,
    PhaseNode,
    ScenarioSpec,
    SegmentSpec,
    Structure,
    Terminator,
    Waveform,
    align_phase,
    analyze,
    attribute_block_cpi,
    classify_structure,
    dft_magnitude,
    export_markers,
    generate,
    main_spectrum,
    parse_trace,
    split_step,
)
from phasescope import phases
from phasescope.attribution import EventIndex, profile_rates, sample_grid, sample_range
from phasescope.phases import (
    _candidates_in_range,
    _population_std,
    markers_json,
    tree_from_dict,
    tree_json,
    tree_to_dict,
    validate_tree,
)

import json


def block(bid, instrs=10):
    return BlockDescriptor(bid, 0x1000 + bid * 0x100, instrs, Terminator.FALLTHROUGH)


def wave(samples, stride=1, origin=0):
    samples = np.asarray(samples, dtype=float)
    return Waveform(
        samples=samples,
        sample_stride=stride,
        origin_instruction=origin,
    )


# --- config -------------------------------------------------------------------

@pytest.mark.parametrize("field, value, noun", [
    ("resolution", float("nan"), "an integer"),
    ("max_depth", 2.5, "an integer"),
    ("resolution", True, "an integer"),
    ("min_segment_instructions", "64", "an integer"),
    ("flat_cpi_range", float("nan"), "a finite real number"),
    ("flat_spectrum_ratio", True, "a finite real number"),
    ("boundary_threshold_fraction", "0.5", "a finite real number"),
    ("flat_cpi_range", 10**400, "a finite real number"),
    ("resolution", 2**63, "an integer within int64"),
])
def test_config_rejects_a_wrongly_typed_field(field, value, noun):
    message = f"config field {field} must be {noun}, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        AnalysisConfig(**{field: value})


def test_config_takes_integers_for_float_fields_and_numpy_numbers():
    config = AnalysisConfig(resolution=np.int64(512), flat_cpi_range=0, flat_spectrum_ratio=np.float64(0.5))
    assert (config.resolution, config.flat_cpi_range, config.flat_spectrum_ratio) == (512, 0, 0.5)


def test_config_replace_checks_the_values_it_applies():
    with pytest.raises(ValueError, match="^resolution must be >= 2$"):
        dataclasses.replace(AnalysisConfig(), resolution=1)
    with pytest.raises(ValueError, match="^config field max_depth must be an integer, got 2.5$"):
        dataclasses.replace(AnalysisConfig(), max_depth=2.5)
    assert dataclasses.replace(AnalysisConfig(), max_depth=256).max_depth == 256


# --- candidate heads ---------------------------------------------------------

def golden_trace(blocks, ids_and_cpis):
    ids = [i for i, _ in ids_and_cpis]
    cycles = [cpi * blocks[i].instruction_count for i, cpi in ids_and_cpis]
    return ExecutionTrace(blocks=blocks, event_blocks=ids, event_cycles=cycles)


def candidates(trace, threshold):
    """(offsets, block ids) of the candidate heads over the whole trace."""
    index = EventIndex.from_trace(trace)
    rates = profile_rates(index, attribute_block_cpi(trace))
    offsets, heads = _candidates_in_range(index, rates, threshold, 0, trace.total_instructions)
    return offsets.tolist(), heads.tolist()


def test_constant_cpi_yields_no_candidates():
    blocks = {0: block(0)}
    trace = golden_trace(blocks, [(0, 1.5)] * 6)
    assert candidates(trace, 0.01) == ([], [])


def test_candidates_mark_second_block_of_jumping_pairs():
    # A A B B A with cpis 1,1,2,2,1 and threshold 0.5: events 2 and 4
    blocks = {0: block(0), 1: block(1)}
    trace = golden_trace(blocks, [(0, 1.0), (0, 1.0), (1, 2.0), (1, 2.0), (0, 1.0)])
    assert candidates(trace, 0.5) == ([20, 40], [1, 0])


def test_threshold_above_range_yields_nothing():
    blocks = {0: block(0), 1: block(1)}
    trace = golden_trace(blocks, [(0, 1.0), (1, 2.0), (0, 1.0)])
    assert candidates(trace, 1.5) == ([], [])


# --- alignment ---------------------------------------------------------------

def test_align_perfectly_periodic_candidate():
    start, head = align_phase([0, 25, 50, 75], [5] * 4, 25)
    assert (start, head) == (0, 5)


def test_align_prefers_gap_matching_length():
    offsets = [0, 5, 30, 35, 60, 95]
    blocks = [1, 2, 1, 2, 1, 2]
    # block 1 recurs every 30 = L; block 2 gaps are 30 and 60 (median 45)
    start, head = align_phase(offsets, blocks, 30)
    assert (start, head) == (0, 1)


def test_align_single_occurrence_fallback_is_earliest():
    start, head = align_phase([40, 10, 80], [7, 9, 8], 25)
    assert (start, head) == (10, 9)


def test_align_empty_candidates_raises():
    with pytest.raises(ValueError, match="no candidate heads"):
        align_phase([], [], 5)


@pytest.mark.parametrize("length", [0, -5])
def test_align_rejects_a_non_positive_length(length):
    with pytest.raises(ValueError, match="^length must be positive$"):
        align_phase([10, 20], [3, 3], length)


def test_align_uses_every_candidate_given():
    # the caller limits candidates to its segment; align_phase drops none
    start, head = align_phase([5, 104], [1, 2], 4)
    assert (start, head) == (5, 1)


def align_phase_loop(offsets, block_ids, length):
    """The per-block loop align_phase replaced, kept as its oracle: group
    the candidates by block (a stable sort keeps each block's order), score
    each block seen twice or more by |np.median of its gaps - length|, and
    keep the least (score, first offset, block id)."""
    offsets = np.asarray(offsets, dtype=np.int64)
    block_ids = np.asarray(block_ids, dtype=np.int64)
    order = np.argsort(block_ids, kind="stable")
    cuts = np.flatnonzero(np.diff(block_ids[order])) + 1
    best = None
    for ids, offs in zip(np.split(block_ids[order], cuts), np.split(offsets[order], cuts)):
        if offs.size < 2:
            continue
        key = (abs(float(np.median(np.diff(offs))) - length), int(offs[0]), int(ids[0]))
        if best is None or key < best:
            best = key
    if best is not None:
        return best[1], best[2]
    first = int(np.argmin(offsets))
    return int(offsets[first]), int(block_ids[first])


#: negative, zero and sparse block ids
ALIGN_BLOCK_IDS = [-(2**62), -5, -1, 0, 3, 4, 10**9, 2**62]


@st.composite
def align_inputs(draw):
    """Candidates in no particular order: per block 1, 2 (an even gap count
    of one), 3 or more offsets, from a small range (equal gaps and equal
    scores) or a wide one (gaps that float64 rounds)."""
    high = draw(st.sampled_from([60, 2**61]))
    candidates = []
    for bid in draw(st.lists(st.sampled_from(ALIGN_BLOCK_IDS), min_size=1, max_size=5, unique=True)):
        count = draw(st.sampled_from([1, 2, 3, 4, 5, 8]))
        candidates += [(draw(st.integers(0, high)), bid) for _ in range(count)]
    candidates = draw(st.permutations(candidates))
    length = draw(st.one_of(st.integers(1, 40), st.integers(1, 2**61)))
    return [o for o, _ in candidates], [b for _, b in candidates], length


@settings(max_examples=400, deadline=None)
@given(inputs=align_inputs())
def test_align_matches_the_per_block_loop(inputs):
    assert align_phase(*inputs) == align_phase_loop(*inputs)


@pytest.mark.parametrize("offsets, block_ids, length, expected", [
    # both blocks recur every 10: the earlier first offset wins
    ([30, 5, 40, 15], [7, -3, 7, -3], 10, (5, -3)),
    # same score and first offset: the smaller block id wins
    ([0, 0, 10, 10], [4, -5, 4, -5], 10, (0, -5)),
    # a block's first offset is its first given, not its smallest
    ([50, 20, 80], [1, 1, 1], 30, (50, 1)),
    # block 2's gaps 10, 10, 40, 40 (an even count) have median 25, as has
    # block 9's one gap; block 2 comes first
    ([0, 10, 20, 60, 100, 3, 28], [2, 2, 2, 2, 2, 9, 9], 25, (0, 2)),
    # block 1's gaps 10, 15 have median 12.5, not 12: block 2's gap 12 wins
    ([0, 10, 25, 5, 17], [1, 1, 1, 2, 2], 12, (5, 2)),
])
def test_align_tie_breaks_and_medians(offsets, block_ids, length, expected):
    assert align_phase(offsets, block_ids, length) == expected == align_phase_loop(offsets, block_ids, length)


# --- occurrence-one splitting -------------------------------------------------

def means_around(w, boundary):
    """The means of w's samples before and after the boundary instruction."""
    k = (boundary - w.origin_instruction) // w.sample_stride
    return float(w.samples[:k].mean()), float(w.samples[k:].mean())


def test_split_ideal_step():
    n = 64
    w = wave([1.0] * (n // 2) + [2.0] * (n // 2))
    boundary = split_step(w)
    assert boundary == n // 2
    before, after = means_around(w, boundary)
    assert before == pytest.approx(1.0)
    assert after == pytest.approx(2.0)


def test_split_constant_returns_none():
    assert split_step(wave([1.5] * 32)) is None


def test_split_of_one_sample_returns_none():
    assert split_step(wave([1.5])) is None


def test_split_a_step_whose_squared_deviations_overflow():
    # the deviations, about 1e306, overflow float64 when std() squares them
    w = wave([1.5625e306] * 32 + [0.015625] * 32)
    boundary = split_step(w)
    assert boundary == 32 and means_around(w, boundary)[0] == pytest.approx(1.5625e306)


@pytest.mark.xfail(strict=True, reason="node means are differences of float64 prefix sums: "
                   "the 1e308 cycles before the second block leave none of its own")
def test_a_mean_after_a_much_larger_cycle_sum_keeps_its_cycles():
    trace = parse_trace("V 1\nB 0 0 64 F\nB 1 1000 64 F\nE 0 1e308\nE 1 1.0\n")
    tree = analyze(trace)
    leaves = [(node.head_block, node.mean_cpi) for node in tree.walk() if not node.children]
    assert attribute_block_cpi(trace)[1] == 0.015625
    assert leaves == [(0, 1.5625e306), (1, 0.015625)]


def numpy_std_with_fallback(samples):
    """The reference for split_step's spread: samples.std(), and where that
    overflows, the std() of the samples over their largest magnitude, times
    it."""
    with np.errstate(over="ignore"):
        spread = float(samples.std())
    if not math.isfinite(spread):
        scale = float(np.abs(samples).max())
        spread = float((samples / scale).std()) * scale
    return spread


# CPIs are positive; their scale reaches past 1e154, where std() overflows
cpi_samples = st.one_of(
    st.lists(st.floats(1.0, 2.0), min_size=1, max_size=300).flatmap(
        lambda unit: st.floats(1e-300, 8e307).map(lambda scale: np.array(unit) * scale)),
    st.lists(st.floats(1e-300, 1.7e308), min_size=1, max_size=300).map(np.array),
)


@settings(max_examples=400, deadline=None)
@given(samples=cpi_samples)
@example(samples=np.array([1.5625e306] * 32 + [0.015625] * 32))
@example(samples=np.array([1e300, 1e200, 1.0]))
def test_split_spread_is_numpys_std_bit_for_bit(samples):
    assert _population_std(samples) == numpy_std_with_fallback(samples)


def test_split_linear_ramp():
    # For an exact ramp the before/after mean gap is the same at every
    # boundary: closed form n/(2*(n-1)), about 0.5. That beats the
    # population std (~0.289), so a split is returned; its position is
    # degenerate (all boundaries tie), so only the gap and the decision
    # are asserted here.
    n = 100
    samples = np.linspace(1.0, 2.0, n)
    w = wave(samples)
    boundary = split_step(w)
    assert boundary is not None
    assert 1 <= boundary <= n - 1
    before, after = means_around(w, boundary)
    assert after - before == pytest.approx(n / (2 * (n - 1)), abs=1e-9)
    assert float(samples.std()) == pytest.approx(0.29, abs=0.01)
    assert after - before > float(samples.std())


def test_split_rounded_step_lands_mid_ramp():
    # a step smeared over a short ramp: the argmax boundary sits inside
    # the transition region
    low, high, ramp = 40, 40, 21
    samples = np.concatenate([
        np.full(low, 1.0), np.linspace(1.0, 2.0, ramp), np.full(high, 2.0)
    ])
    w = wave(samples)
    boundary = split_step(w)
    assert low <= boundary <= low + ramp
    before, after = means_around(w, boundary)
    assert before < 1.3 and after > 1.7


def test_split_respects_stride_and_origin():
    w = wave([1.0, 1.0, 3.0, 3.0], stride=10, origin=200)
    assert split_step(w) == 220


def test_segment_without_a_split_is_a_leaf(monkeypatch):
    # a short high stretch between two long low ones: the spectrum's main
    # bin is occurrence one, and no boundary's mean jump beats the spread
    from phasescope import phases

    splits = []

    def recorded(w):
        splits.append(split_step(w))
        return splits[-1]

    monkeypatch.setattr(phases, "split_step", recorded)
    trace, _ = generate(ScenarioSpec([
        SegmentSpec("lo", block_cpi=1.0, block_instruction_count=1, event_count=1900),
        SegmentSpec("hi", block_cpi=3.0, block_instruction_count=1, event_count=200),
        SegmentSpec("lo2", block_cpi=1.0, block_instruction_count=1, event_count=1900),
    ]))
    root = analyze(trace)
    assert splits == [None]
    assert root.children == []
    assert (root.start_instruction, root.length_instructions) == (0, 4000)
    assert root.mean_cpi == pytest.approx(1.1)


# --- structure classification -------------------------------------------------

def test_classify_call_context_is_function():
    head = block(1)
    ctx = BlockDescriptor(0, 0x1000, 4, Terminator.CALL, target_address=head.start_address)
    assert classify_structure(head, ctx) is Structure.FUNCTION


def test_classify_backward_branch_is_loop():
    head = block(1)
    ctx = BlockDescriptor(0, 0x1040, 4, Terminator.BRANCH, target_address=0x1000)
    assert classify_structure(head, ctx) is Structure.LOOP


def test_classify_forward_branch_is_none():
    head = block(1)
    ctx = BlockDescriptor(0, 0x1000, 4, Terminator.BRANCH, target_address=0x1040)
    assert classify_structure(head, ctx) is Structure.NONE


def test_classify_no_context_is_none():
    assert classify_structure(block(0), None) is Structure.NONE
    ret = BlockDescriptor(0, 0x1000, 4, Terminator.RETURN)
    assert classify_structure(block(1), ret) is Structure.NONE


def test_set_heads_judges_each_node_by_the_event_before_the_one_holding_its_entry():
    # block 0 calls block 1, block 1 branches back to block 0; four instructions each
    blocks = {
        0: BlockDescriptor(0, 0x1000, 4, Terminator.CALL, target_address=0x1100),
        1: BlockDescriptor(1, 0x1100, 4, Terminator.BRANCH, target_address=0x1000),
        2: BlockDescriptor(2, 0x1200, 4, Terminator.FALLTHROUGH),
    }
    trace = ExecutionTrace(blocks=blocks, event_blocks=np.array([0, 1, 2]),
                           event_cycles=np.array([4.0, 8.0, 4.0]))
    # (start, entry) -> (head block, structure)
    cases = {
        (0, 0): (0, Structure.NONE),  # entered at instruction 0: no context
        (2, 3): (0, Structure.NONE),  # inside the first event: no context either
        (4, 4): (1, Structure.FUNCTION),  # entered from block 0's call
        (8, 8): (2, Structure.LOOP),  # entered from block 1's backward branch
        (8, 6): (2, Structure.FUNCTION),  # inside block 1's event: judged by block 0's
        (9, 12): (2, Structure.NONE),  # the trace's end: judged by its last event
    }
    nodes = [PhaseNode(-1, start, 1, 1.0) for start, _ in cases]
    phases.set_heads(trace, nodes, [entry for _, entry in cases])
    assert [(node.head_block, node.structure) for node in nodes] == list(cases.values())


# --- the tree-building driver --------------------------------------------------

SQUARE = ScenarioSpec(
    segments=[
        SegmentSpec("lo", block_cpi=1.0, block_instruction_count=560, event_count=1),
        SegmentSpec("hi", block_cpi=2.0, block_instruction_count=565, event_count=1),
    ],
    repetitions=4,
)

TWO_LEVEL = ScenarioSpec(
    segments=[
        SegmentSpec("bc", nested=[
            SegmentSpec("b", block_cpi=1.2, block_instruction_count=50, event_count=1),
            SegmentSpec("c", block_cpi=0.8, block_instruction_count=50, event_count=1),
        ], nested_repetitions=3),
        SegmentSpec("ef", nested=[
            SegmentSpec("e", block_cpi=4.2, block_instruction_count=50, event_count=1),
            SegmentSpec("f", block_cpi=3.8, block_instruction_count=50, event_count=1),
        ], nested_repetitions=3),
    ],
    repetitions=4,
)


def test_constant_trace_is_single_leaf():
    spec = ScenarioSpec(
        segments=[SegmentSpec("a", block_cpi=1.5, block_instruction_count=5, event_count=100)],
        repetitions=2,
    )
    trace, _ = generate(spec)
    tree = analyze(trace)
    assert tree.children == []
    assert tree.mean_cpi == pytest.approx(1.5, abs=1e-12)


def test_square_wave_recovers_occurrence_and_split():
    trace, _ = generate(SQUARE)
    tree = analyze(trace)
    assert len(tree.children) == 1
    template = tree.children[0]
    assert template.occurrence == 4
    assert template.length_instructions == 1125
    cpis = sorted(child.mean_cpi for child in template.children)
    assert cpis == pytest.approx([1.0, 2.0], abs=1e-9)


def test_an_off_grid_instance_keeps_its_true_length():
    # 7 x 101 = 707 instructions sampled every 8: the grid covers 712, yet
    # the instance is D / X = 101 (712 / 7 would round to 102)
    spec = ScenarioSpec(
        segments=[
            SegmentSpec("lo", block_cpi=1.0, block_instruction_count=50, event_count=1),
            SegmentSpec("hi", block_cpi=2.0, block_instruction_count=51, event_count=1),
        ],
        repetitions=7,
    )
    trace, _ = generate(spec)
    cfg = AnalysisConfig(resolution=100)
    offsets, stride = sample_grid(0, trace.total_instructions, cfg.resolution)
    assert (trace.total_instructions, stride, offsets.size * stride) == (707, 8, 712)
    tree = analyze(trace, cfg)
    assert [(c.start_instruction, c.length_instructions, c.occurrence) for c in tree.children] == [(50, 101, 7)]


def test_two_level_recovery():
    trace, annotation = generate(TWO_LEVEL)
    tree = analyze(trace)
    lengths = {}
    for node in tree.walk():
        lengths.setdefault(node.length_instructions, []).append(node)
    assert 600 in lengths and lengths[600][0].occurrence == 4
    assert 100 in lengths
    assert any(n.occurrence == 3 for n in lengths[100])

    # every node's mean must match the scripted per-instruction CPI exactly
    script = np.concatenate([
        np.repeat([1.2, 0.8], 50).tolist() * 3 + np.repeat([4.2, 3.8], 50).tolist() * 3
    ] * 4).astype(float)
    for node in tree.walk():
        expected = float(script[node.start_instruction:node.end_instruction].mean())
        assert node.mean_cpi == pytest.approx(expected, abs=1e-9)


def preorder(node, depth=0):
    """(node, depth) for node and every node below it, in pre-order: the
    order analyze creates the nodes and samples the segments in."""
    yield node, depth
    for child in node.children:
        yield from preorder(child, depth + 1)


@pytest.mark.parametrize("cfg", [AnalysisConfig(), AnalysisConfig(max_depth=2)],
                         ids=["too-short-leaves", "max-depth"])
def test_spectrum_sink_gets_each_sampled_segment_in_node_order(cfg):
    trace, _ = generate(TWO_LEVEL)
    calls = []
    root = analyze(trace, cfg, spectrum_sink=lambda *call: calls.append(call))
    sampled = [(depth, node.start_instruction, node.end_instruction)
               for node, depth in preorder(root)
               if depth < cfg.max_depth and node.length_instructions >= cfg.min_segment_instructions]
    assert len(sampled) < sum(1 for _ in root.walk())
    assert [call[:3] for call in calls] == sampled
    index = EventIndex.from_trace(trace)
    rates = profile_rates(index, attribute_block_cpi(trace))
    for _, start, stop, magnitudes in calls:
        expected = dft_magnitude(sample_range(index.starts, rates, start, stop, cfg.resolution))
        assert magnitudes.tobytes() == expected.tobytes()


@st.composite
def rate_scenarios(draw):
    """Small repeated scenarios, golden-only or with quanta."""
    segments = [
        SegmentSpec(f"s{i}", block_cpi=draw(st.floats(0.5, 4.0)),
                    block_instruction_count=draw(st.integers(1, 40)),
                    event_count=draw(st.integers(1, 12)),
                    entry_kind=EntryKind.BACKWARD_BRANCH if i == 0 else EntryKind.FALLTHROUGH)
        for i in range(draw(st.integers(1, 4)))
    ]
    return ScenarioSpec(segments=segments, repetitions=draw(st.integers(2, 12)),
                        noise_stddev=draw(st.sampled_from([0.0, 0.05])), seed=draw(st.integers(0, 99)),
                        quantum_length=draw(st.one_of(st.none(), st.integers(7, 300))))


@settings(max_examples=60, deadline=None)
@given(spec=rate_scenarios())
def test_analyze_samples_the_profile_rates_of_its_block_cpis(spec):
    # the default path and the one a caller takes with its own block CPIs
    # (the CLI's --waveform-csv) sample the same per-event rates
    trace, _ = generate(spec)
    cfg = AnalysisConfig(min_segment_instructions=2)
    index = EventIndex.from_trace(trace)
    sampled = []

    def recording(starts, rates, *args):
        sampled.append(rates.tobytes())
        return sample_range(starts, rates, *args)

    def rates_of(profiles):
        sampled.clear()
        with mock.patch.object(phases, "sample_range", recording):
            tree = tree_json(analyze(trace, cfg, profiles=profiles), trace.blocks)
        assert sampled and len(set(sampled)) == 1
        return sampled[0], tree

    default = rates_of(None)
    for mode in ("auto", "golden", "quantum") if trace.quanta is not None else ("auto", "golden"):
        profiles = attribute_block_cpi(trace, mode)
        rates, tree = rates_of(profiles)
        assert rates == profile_rates(index, profiles).tobytes()
        if mode == "auto":
            assert (rates, tree) == default


def test_analyze_leaves_no_reference_cycles():
    # a nested function of analyze that referred to itself would keep its
    # closure (the per-event rates among it) alive past the return
    trace, _ = generate(TWO_LEVEL)
    gc.collect()
    gc.disable()
    try:
        analyze(trace)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_analyze_output_is_deterministic():
    trace, _ = generate(TWO_LEVEL)
    a = tree_json(analyze(trace), trace.blocks)
    b = tree_json(analyze(trace), trace.blocks)
    assert a == b


def test_tree_json_round_trip():
    trace, _ = generate(SQUARE)
    tree = analyze(trace)
    text = tree_json(tree, trace.blocks)
    rebuilt, addresses = tree_from_dict(json.loads(text))
    assert tree_json(rebuilt, addresses) == text


# --- JSON writers against the standard library's bytes -------------------------

EDGE_FLOATS = [5e-324, 2.2250738585072014e-308, 1e-05, 9.999999999999999e-05, 1e-4, 0.1,
               9999999999999998.0, 1e16, 1.2345678901234568e17, 1.7976931348623157e308,
               0.0, -0.0, -1e-05, -1e16, math.nan, math.inf, -math.inf]
EDGE_INTS = [0, -1, 2**63 - 1, -(2**63), 2**63, 2**64 - 1, 2**64, -(2**63) - 1, 2**70]


def mostly(common, *rare):
    """Each draw takes common 20 times as often as each rare strategy, so
    that many payloads hold no rare value at all and take orjson's path."""
    return st.sampled_from([common] * 20 + list(rare)).flatmap(lambda strategy: strategy)


# orjson and json spell these alike: floats in repr()'s positional range, ints in [-2**63, 2**64)
positional = st.floats(1e-4, 1e16, exclude_max=True) | st.floats(-1e16, -1e-4, exclude_min=True)
json_floats = mostly(positional | st.sampled_from([0.0, -0.0]), st.floats(),
                     st.sampled_from(EDGE_FLOATS), st.floats().map(np.float64))
json_ints = mostly(st.integers(-(2**63), 2**64 - 1), st.sampled_from(EDGE_INTS),
                   st.integers(-(2**63), 2**63 - 1).map(np.int64))


def with_children(node, children):
    node.children = children
    return node


def nested(tree, depth):
    for _ in range(depth):
        tree = PhaseNode(0, 0, 1, 1.0, children=[tree])
    return tree


phase_nodes = st.builds(PhaseNode, head_block=json_ints, start_instruction=json_ints,
                        length_instructions=json_ints, mean_cpi=json_floats,
                        occurrence=json_ints, structure=st.sampled_from(Structure))
phase_trees = st.builds(
    nested,
    st.recursive(phase_nodes, lambda kids: st.builds(with_children, phase_nodes,
                                                     st.lists(kids, max_size=4)), max_leaves=16),
    st.sampled_from([0, 0, 0, 1, 7, 40, 150]),  # 150 levels pass orjson's nesting limit
)
marker_paths = st.lists(json_ints, max_size=5)
marker_tables = st.dictionaries(
    st.integers(0, 2**70),
    st.fixed_dictionaries({"phase_path": marker_paths, "mean_cpi": json_floats,
                           "structure": st.sampled_from([s.value for s in Structure]),
                           "additional_paths": st.lists(marker_paths, max_size=4)}),
    max_size=8,
)


def stdlib_json(payload):
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def outcome(write, *args):
    """The text written, or the type of the exception raised."""
    try:
        return write(*args)
    except (TypeError, ValueError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(tree=phase_trees)
def test_tree_json_writes_the_standard_librarys_bytes(tree):
    blocks = {node.head_block: 0x1000 + 0x40 * abs(int(node.head_block)) for node in tree.walk()}
    expected = outcome(lambda: stdlib_json(tree_to_dict(tree, blocks)))
    assert outcome(tree_json, tree, blocks) == expected


@settings(max_examples=300, deadline=None)
@given(markers=marker_tables)
def test_markers_json_writes_the_standard_librarys_bytes(markers):
    payload = {f"{addr:#x}": marker for addr, marker in markers.items()}
    assert outcome(markers_json, markers) == outcome(stdlib_json, payload)


def test_plain_trees_and_markers_skip_the_standard_library_encoder(monkeypatch):
    trace, _ = generate(TWO_LEVEL)
    tree = analyze(trace)
    expected = stdlib_json(tree_to_dict(tree, trace.blocks))
    monkeypatch.setattr(json, "dumps", None)  # calling it would raise TypeError
    assert tree_json(tree, trace.blocks) == expected
    markers_json(export_markers(tree, trace.blocks))


def test_tree_structural_invariants_on_random_scenarios():
    rng = np.random.default_rng(31)
    for case in range(8):
        n_segs = int(rng.integers(2, 5))
        segs = [
            SegmentSpec(
                f"s{i}",
                block_cpi=float(rng.uniform(0.5, 4.0)),
                block_instruction_count=int(rng.integers(3, 40)),
                event_count=int(rng.integers(1, 12)),
            )
            for i in range(n_segs)
        ]
        spec = ScenarioSpec(segments=segs, repetitions=int(rng.integers(1, 7)),
                            noise_stddev=0.05, seed=case)
        trace, _ = generate(spec)
        tree = analyze(trace)
        validate_tree(tree)
        for node in tree.walk():
            for child in node.children:
                if child.occurrence >= 2:
                    stride = max(1, -(-node.length_instructions // 4096))
                    assert child.occurrence * child.length_instructions <= (
                        node.length_instructions + stride
                    )


def test_scaling_quantum_cpis_scales_means_only():
    spec = ScenarioSpec(
        segments=[
            SegmentSpec("lo", block_cpi=1.0, block_instruction_count=20, event_count=10),
            SegmentSpec("hi", block_cpi=2.0, block_instruction_count=20, event_count=10),
        ],
        repetitions=4,
        quantum_length=100,
    )
    trace, _ = generate(spec)
    scale = 2.5
    scaled = ExecutionTrace(
        blocks=dict(trace.blocks),
        event_blocks=trace.event_blocks,
        event_cycles=np.full(trace.event_blocks.size, np.nan),
        quanta=trace.quanta * scale,
        quantum_length=trace.quantum_length,
    )
    base_trace = ExecutionTrace(
        blocks=dict(trace.blocks),
        event_blocks=trace.event_blocks,
        event_cycles=np.full(trace.event_blocks.size, np.nan),
        quanta=trace.quanta,
        quantum_length=trace.quantum_length,
    )
    base = analyze(base_trace)
    big = analyze(scaled)
    base_nodes = list(base.walk())
    big_nodes = list(big.walk())
    assert len(base_nodes) == len(big_nodes)
    for a, b in zip(base_nodes, big_nodes):
        assert (a.head_block, a.start_instruction, a.length_instructions, a.occurrence) == (
            b.head_block, b.start_instruction, b.length_instructions, b.occurrence
        )
        assert b.mean_cpi == pytest.approx(a.mean_cpi * scale, rel=1e-12)


def test_structure_tags_from_generated_entry_kinds():
    spec = ScenarioSpec(
        segments=[
            SegmentSpec("head", block_cpi=2.5, block_instruction_count=20, event_count=10,
                        entry_kind=EntryKind.BACKWARD_BRANCH),
            SegmentSpec("callee", block_cpi=1.5, block_instruction_count=20, event_count=10,
                        entry_kind=EntryKind.CALL),
            SegmentSpec("rest", block_cpi=1.0, block_instruction_count=20, event_count=10),
        ],
        repetitions=8,
    )
    trace, annotation = generate(spec)
    # generated terminators: rest branches back to head, head calls callee
    assert trace.blocks[2].terminator is Terminator.BRANCH
    assert trace.blocks[2].target_address == trace.blocks[0].start_address
    assert trace.blocks[0].terminator is Terminator.CALL

    tree = analyze(trace)
    tags = {}
    for node in tree.walk():
        tags.setdefault(node.head_block, set()).add(node.structure)
    assert Structure.LOOP in tags[0]
    assert Structure.FUNCTION in tags[1]

    truth = {n.head_block: n.structure for n in annotation.true_phases.walk()
             if n.start_instruction > 0 or n.length_instructions < trace.total_instructions}
    assert truth[0] is Structure.LOOP
    assert truth[1] is Structure.FUNCTION


def test_segment_without_candidate_heads_anchors_its_instance_at_its_start():
    # a CPI ramp 1.0 -> 2.0 -> 1.05 in steps of 0.05: the spectrum finds the
    # 6 repetitions, but no event steps by theta, so no head is a candidate
    ramp = [1.0 + 0.05 * i for i in range(21)] + [2.0 - 0.05 * i for i in range(1, 20)]
    body = [SegmentSpec(f"r{i}", block_cpi=cpi, block_instruction_count=10, event_count=5)
            for i, cpi in enumerate(ramp)]
    trace, _ = generate(ScenarioSpec(segments=[SegmentSpec("ramp", nested=body, nested_repetitions=6)]))
    cfg = AnalysisConfig()
    index = EventIndex.from_trace(trace)
    rates = profile_rates(index, attribute_block_cpi(trace))
    total = trace.total_instructions
    magnitudes = dft_magnitude(sample_range(index.starts, rates, 0, total, cfg.resolution))
    k = main_spectrum(magnitudes)
    theta = cfg.boundary_threshold_fraction * magnitudes[k]
    assert k == 6 and np.abs(np.diff(rates)).max() < 0.051 < 0.1 < theta
    offsets, heads = _candidates_in_range(index, rates, theta, 0, total)
    assert offsets.size == heads.size == 0

    child = analyze(trace, cfg).children[0]
    assert (child.start_instruction, child.length_instructions, child.occurrence) == (0, 2000, 6)


# --- markers -------------------------------------------------------------------

def test_markers_leaf_only_tree():
    trace, _ = generate(ScenarioSpec(
        segments=[SegmentSpec("a", block_cpi=1.5, block_instruction_count=5, event_count=40)],
        repetitions=1,
    ))
    tree = analyze(trace)
    markers = export_markers(tree, trace.blocks)
    assert set(markers) == {trace.blocks[0].start_address}
    entry = markers[trace.blocks[0].start_address]
    assert entry["phase_path"] == []
    assert entry["additional_paths"] == []


def test_markers_two_distinct_heads():
    root = PhaseNode(0, 0, 200, 1.5, children=[
        PhaseNode(1, 0, 100, 1.0),
    ])
    markers = export_markers(root, {0: 0x1000, 1: 0x2000})
    assert set(markers) == {0x1000, 0x2000}
    assert markers[0x2000]["phase_path"] == [0]


def test_markers_shared_head_keeps_shallowest():
    inner = PhaseNode(0, 0, 50, 1.0)
    root = PhaseNode(0, 0, 200, 1.5, children=[
        PhaseNode(0, 0, 100, 1.2, children=[inner]),
        PhaseNode(1, 100, 100, 2.0),
    ])
    entry = export_markers(root, {0: 0x1000, 1: 0x2000})[0x1000]
    assert entry["phase_path"] == []
    assert entry["mean_cpi"] == 1.5
    assert entry["additional_paths"] == [[0], [0, 0]]


# --- random nested scenarios: tree shape and exact node means --------------------

@st.composite
def nested_scenarios(draw):
    """Up to three levels: flat segments and groups repeated 1-4 times."""
    labels = itertools.count()
    entries = st.sampled_from([EntryKind.FALLTHROUGH, EntryKind.CALL])

    def segments(depth):
        out = []
        for _ in range(draw(st.integers(1, 3))):
            if depth < 2 and draw(st.booleans()):
                out.append(SegmentSpec(f"g{next(labels)}", nested=segments(depth + 1),
                                       nested_repetitions=draw(st.integers(1, 4)),
                                       entry_kind=draw(entries)))
            else:
                out.append(SegmentSpec(f"s{next(labels)}", block_cpi=draw(st.floats(0.5, 4.0)),
                                       block_instruction_count=draw(st.integers(1, 30)),
                                       event_count=draw(st.integers(1, 6)),
                                       entry_kind=draw(entries)))
        return out

    return ScenarioSpec(
        segments=segments(0),
        repetitions=draw(st.integers(1, 6)),
        noise_stddev=draw(st.sampled_from([0.0, 0.05, 0.2])),
        seed=draw(st.integers(0, 2**32 - 1)),
        quantum_length=draw(st.one_of(st.none(), st.integers(1, 300))),
    )


@settings(max_examples=60, deadline=None)
@given(spec=nested_scenarios())
def test_tree_is_well_formed_and_node_means_are_exact(spec):
    trace, _ = generate(spec)
    tree = analyze(trace)
    validate_tree(tree)
    # every instruction of event e costs its block's attributed CPI
    profiles = attribute_block_cpi(trace)
    rates = np.array([profiles[b] for b in trace.event_blocks.tolist()])
    starts, ends = trace.event_starts[:-1], trace.event_starts[1:]
    for node in tree.walk():
        lo, hi = node.start_instruction, node.end_instruction
        overlap = np.clip(np.minimum(ends, hi) - np.maximum(starts, lo), 0, None)
        exact = math.fsum((overlap * rates).tolist()) / node.length_instructions
        assert node.mean_cpi == pytest.approx(exact, rel=1e-12, abs=0)


@settings(max_examples=60, deadline=None)
@given(spec=nested_scenarios(), max_depth=st.integers(1, 8), min_segment=st.sampled_from([2, 64]))
@example(spec=TWO_LEVEL, max_depth=8, min_segment=2)
@example(spec=dataclasses.replace(TWO_LEVEL, quantum_length=60), max_depth=8, min_segment=2)
def test_spectrum_sink_sees_each_sampled_node_once_in_preorder(spec, max_depth, min_segment):
    # library callers see this order: a node's segment, then its children's
    trace, _ = generate(spec)
    cfg = AnalysisConfig(max_depth=max_depth, min_segment_instructions=min_segment)
    calls = []
    root = analyze(trace, cfg, spectrum_sink=lambda depth, start, stop, _: calls.append((depth, start, stop)))
    assert calls == [(depth, node.start_instruction, node.end_instruction)
                     for node, depth in preorder(root)
                     if depth < max_depth and node.length_instructions >= min_segment]


@pytest.mark.parametrize("children, message", [
    ([PhaseNode(0, 0, 40, 1.0), PhaseNode(0, 30, 40, 1.0)], "children overlap or are out of order"),
    ([PhaseNode(0, 50, 10, 1.0), PhaseNode(0, 0, 10, 1.0)], "children overlap or are out of order"),
    ([PhaseNode(0, 90, 20, 1.0)], "child extends past its parent"),
    ([PhaseNode(0, 10, 0, 1.0)], "empty child interval"),
    ([PhaseNode(0, 10, 10, 1.0, occurrence=0)], "child occurs less than once"),
], ids=["overlap", "out-of-order", "past-parent", "empty", "zero-occurrence"])
def test_validate_tree_names_the_first_violation(children, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        validate_tree(PhaseNode(0, 0, 100, 1.0, children=children))
