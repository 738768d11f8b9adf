"""Scenario generator: determinism, block table realization, quantum
records, annotation shape, and scenario JSON handling."""

import dataclasses
import itertools
import math
import time
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasescope import (
    BlockDescriptor,
    EntryKind,
    ExecutionTrace,
    GoldenAnnotation,
    PhaseNode,
    ScenarioSpec,
    SegmentSpec,
    Structure,
    Terminator,
    classify_structure,
    generate,
    serialize_trace,
)
from phasescope.attribution import quantum_cpis
from phasescope.phases import tree_json
from phasescope.synth import (
    _ADDRESS_PITCH,
    _BASE_ADDRESS,
    _MIN_CPI,
    ScenarioError,
    _plan,
    scenario_from_json,
    scenario_json,
)


def flat(label, cpi, instrs, events, entry=EntryKind.FALLTHROUGH):
    return SegmentSpec(label, block_cpi=cpi, block_instruction_count=instrs,
                       event_count=events, entry_kind=entry)


def test_single_segment_zero_noise_is_constant():
    trace, annotation = generate(ScenarioSpec(
        segments=[flat("a", 1.5, 5, 10)], repetitions=3,
    ))
    cpis = set((trace.event_cycles / np.diff(trace.event_starts)).tolist())
    assert cpis == {1.5}
    assert annotation.true_phases.children == []
    assert annotation.true_phases.mean_cpi == pytest.approx(1.5)


def test_two_segment_square_annotation_shape():
    trace, annotation = generate(ScenarioSpec(
        segments=[flat("lo", 1.0, 10, 4), flat("hi", 2.0, 10, 4)],
        repetitions=4,
    ))
    root = annotation.true_phases
    assert root.length_instructions == 320
    assert len(root.children) == 1
    template = root.children[0]
    assert template.occurrence == 4
    assert template.length_instructions == 80
    assert [c.mean_cpi for c in template.children] == [1.0, 2.0]
    assert [c.start_instruction for c in template.children] == [0, 40]


def test_determinism_same_seed_same_bytes():
    spec_text = scenario_json(ScenarioSpec(
        segments=[flat("a", 1.0, 5, 7), flat("b", 2.0, 3, 9)],
        repetitions=5,
        noise_stddev=0.2,
        seed=123,
        quantum_length=25,
    ))
    first, _ = generate(scenario_from_json(spec_text))
    second, _ = generate(scenario_from_json(spec_text))
    assert serialize_trace(first) == serialize_trace(second)


def test_different_seeds_differ_under_noise():
    base = dict(segments=[flat("a", 1.0, 5, 20)], repetitions=2, noise_stddev=0.2)
    a, _ = generate(ScenarioSpec(seed=1, **base))
    b, _ = generate(ScenarioSpec(seed=2, **base))
    assert serialize_trace(a) != serialize_trace(b)


def test_noise_is_clamped_positive():
    trace, _ = generate(ScenarioSpec(
        segments=[flat("a", 0.2, 4, 500)], repetitions=1, noise_stddev=0.19, seed=7,
    ))
    assert (trace.event_cycles >= 4 * 0.05 - 1e-12).all()


def test_quantum_records_satisfy_count_invariant():
    spec = ScenarioSpec(
        segments=[flat("a", 1.0, 7, 5), flat("b", 2.0, 3, 4)],
        repetitions=3,
        quantum_length=20,
        noise_stddev=0.1,
        seed=5,
    )
    trace, _ = generate(spec)
    assert len(trace.quanta) == math.ceil(trace.total_instructions / 20)
    # quantum CPIs recompute exactly from the noisy golden events
    np.testing.assert_allclose(
        trace.quanta, quantum_cpis(trace.event_starts, trace.event_cycles, 20), atol=1e-12
    )


def test_entry_kinds_realize_terminators():
    trace, _ = generate(ScenarioSpec(
        segments=[
            flat("head", 2.0, 10, 5, entry=EntryKind.BACKWARD_BRANCH),
            flat("callee", 1.0, 10, 5, entry=EntryKind.CALL),
            flat("tail", 1.5, 10, 5),
        ],
        repetitions=3,
    ))
    head, callee, tail = trace.blocks[0], trace.blocks[1], trace.blocks[2]
    assert head.terminator is Terminator.CALL and head.target_address == callee.start_address
    assert callee.terminator is Terminator.FALLTHROUGH
    assert tail.terminator is Terminator.BRANCH and tail.target_address == head.start_address
    assert tail.target_address <= tail.start_address


def test_a_call_edge_after_a_backward_branch_still_makes_a_call():
    # "loop" branches back to itself (edge 0) before it calls "callee" (edge 1)
    trace, _ = generate(ScenarioSpec(segments=[
        SegmentSpec("g", nested=[flat("loop", 2.0, 10, 5, entry=EntryKind.BACKWARD_BRANCH)],
                    nested_repetitions=2),
        flat("callee", 1.0, 10, 5, entry=EntryKind.CALL),
        flat("exit", 1.5, 10, 5, entry=EntryKind.CALL),
    ]))
    loop, callee, exit_ = trace.blocks[0], trace.blocks[1], trace.blocks[2]
    assert trace.event_blocks[::5].tolist() == [0, 0, 1, 2]
    assert loop.terminator is Terminator.CALL and loop.target_address == callee.start_address
    # the first call edge from "callee" is its only edge
    assert callee.terminator is Terminator.CALL and callee.target_address == exit_.start_address
    assert exit_.terminator is Terminator.FALLTHROUGH and exit_.target_address is None


def test_unrealizable_backward_branch_rejected():
    with pytest.raises(ScenarioError, match="backward-branch"):
        generate(ScenarioSpec(
            segments=[
                flat("first", 1.0, 10, 5),
                flat("second", 2.0, 10, 5, entry=EntryKind.BACKWARD_BRANCH),
            ],
            repetitions=2,
        ))


def test_nested_group_annotation():
    spec = ScenarioSpec(
        segments=[
            flat("intro", 1.0, 10, 3),
            SegmentSpec("loop", nested=[
                flat("x", 2.0, 5, 2),
                flat("y", 3.0, 5, 2),
            ], nested_repetitions=4),
        ],
        repetitions=2,
    )
    trace, annotation = generate(spec)
    template = annotation.true_phases.children[0]
    assert template.occurrence == 2
    intro, group = template.children
    assert intro.length_instructions == 30
    assert group.start_instruction == 30
    assert group.occurrence == 4
    assert group.length_instructions == 20  # one inner iteration
    assert [c.mean_cpi for c in group.children] == [2.0, 3.0]
    # period length: 30 + 4*20 = 110
    assert trace.total_instructions == 2 * 110


def test_group_wrap_edge_is_backward():
    spec = ScenarioSpec(
        segments=[
            SegmentSpec("loop", nested=[
                flat("x", 2.0, 5, 2, entry=EntryKind.BACKWARD_BRANCH),
                flat("y", 3.0, 5, 2),
            ], nested_repetitions=4),
            flat("tail", 1.0, 10, 3),
        ],
        repetitions=1,
    )
    trace, annotation = generate(spec)
    x, y = trace.blocks[0], trace.blocks[1]
    assert y.terminator is Terminator.BRANCH
    assert y.target_address == x.start_address <= y.start_address
    group = annotation.true_phases.children[0]
    assert group.structure is Structure.NONE  # entered by fallthrough from outside
    # x's recurring entry is y's backward branch
    assert group.children[0].structure is Structure.LOOP


def test_validation_errors():
    with pytest.raises(ScenarioError, match="at least one segment"):
        generate(ScenarioSpec(segments=[]))
    with pytest.raises(ScenarioError, match="needs block_cpi"):
        generate(ScenarioSpec(segments=[SegmentSpec("bad")]))
    with pytest.raises(ScenarioError, match="below the smallest"):
        generate(ScenarioSpec(segments=[flat("a", 0.5, 5, 5)], noise_stddev=0.5))
    with pytest.raises(ScenarioError, match="block_cpi must be positive"):
        generate(ScenarioSpec(segments=[flat("a", -1.0, 5, 5)]))


def test_scenario_nested_past_the_recursion_limit_raises_scenario_error():
    segment = flat("a", 1.0, 2, 3)
    for depth in range(2000):
        segment = SegmentSpec(f"g{depth}", nested=[segment])
    with pytest.raises(ScenarioError, match="scenario is nested too deeply") as exc:
        generate(ScenarioSpec(segments=[segment]))
    assert isinstance(exc.value.__cause__, RecursionError)


def test_scenario_json_nested_past_the_recursion_limit_raises_scenario_error():
    with pytest.raises(ScenarioError, match="scenario is nested too deeply") as exc:
        scenario_from_json('{"segments": [' * 3000)
    assert isinstance(exc.value.__cause__, RecursionError)


def test_scenario_json_round_trip():
    spec = ScenarioSpec(
        segments=[
            flat("a", 1.0, 5, 7, entry=EntryKind.BACKWARD_BRANCH),
            SegmentSpec("g", nested=[flat("b", 2.0, 3, 2)], nested_repetitions=3),
        ],
        repetitions=4,
        noise_stddev=0.1,
        seed=9,
        quantum_length=15,
    )
    back = scenario_from_json(scenario_json(spec))
    assert scenario_json(back) == scenario_json(spec)


@pytest.mark.parametrize("spec", [
    ScenarioSpec(segments=[flat("a", float("nan"), 5, 5)]),
    ScenarioSpec(segments=[flat("a", 1.0, 5, 5)], noise_stddev=float("inf")),
], ids=["nan-block-cpi", "infinite-noise"])
def test_scenario_json_refuses_numbers_json_cannot_spell(spec):
    with pytest.raises(ValueError, match="not JSON compliant"):
        scenario_json(spec)


def test_scenario_json_errors():
    with pytest.raises(ScenarioError, match="invalid scenario JSON"):
        scenario_from_json("{not json")
    with pytest.raises(ScenarioError, match="invalid scenario JSON"):
        scenario_from_json("{}")


@pytest.mark.parametrize("spec, message", [
    (ScenarioSpec(segments=[flat("a", 1.0, 5, 5)], repetitions=2.0), "repetitions must be an integer"),
    (ScenarioSpec(segments=[flat("a", True, 5, 5)]), "'a': block_cpi must be a finite real number"),
    (ScenarioSpec(segments=[flat("a", float("nan"), 5, 5)]), "block_cpi must be a finite real number"),
    (ScenarioSpec(segments=[flat("a", 1.0, 5, 2.5)]), "'a': event_count must be an integer"),
    (ScenarioSpec(segments=[flat("a", 1.0, 5, 5)], seed=-1), "seed must be non-negative"),
    (ScenarioSpec(segments=[SegmentSpec("g", nested=[flat("a", 1.0, 5, 5)], nested_repetitions=1.5)]),
     "'g': nested_repetitions must be an integer"),
])
def test_validation_requires_integer_counts_and_real_cpis(spec, message):
    with pytest.raises(ScenarioError, match=message):
        generate(spec)


def test_numpy_numbers_are_valid_scenario_numbers():
    spec = ScenarioSpec(segments=[flat("a", np.float64(1.5), np.int64(5), np.int64(3))],
                        repetitions=np.int64(2), seed=np.int64(4), quantum_length=np.int64(7))
    plain = ScenarioSpec(segments=[flat("a", 1.5, 5, 3)], repetitions=2, seed=4, quantum_length=7)
    assert serialize_trace(generate(spec)[0]) == serialize_trace(generate(plain)[0])


def test_numpy_counts_are_measured_without_int64_wraparound():
    # 4 * 2**62 wraps to 0 in int64 and would pass the total check
    spec = ScenarioSpec(segments=[flat("a", 1.0, np.int64(2**62), np.int64(4))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflowing numpy product only warns
        with pytest.raises(ScenarioError, match=f"scenario has {2**64} instructions in total"):
            generate(spec)


@pytest.mark.parametrize("cpi, count, reps", [
    (np.float32(1.1), 5, 3),
    (1.25, np.int64(5), 3),
    (1.25, 5, np.int64(3)),
], ids=["float32-cpi", "int64-count", "int64-repetitions"])
def test_numpy_numbers_give_the_trace_and_annotation_of_their_python_values(cpi, count, reps):
    def outputs(cpi, count, reps):
        group = SegmentSpec("g", nested=[flat("a", cpi, count, 3), flat("b", 2.0, 5, count)],
                            nested_repetitions=reps)
        trace, annotation = generate(ScenarioSpec(segments=[group, flat("c", 3.0, 4, 2)], repetitions=reps))
        return serialize_trace(trace), tree_json(annotation.true_phases, trace.blocks)

    assert outputs(cpi, count, reps) == outputs(float(cpi), int(count), int(reps))


def test_scenario_json_keeps_numbers_as_written():
    spec = scenario_from_json('{"segments": [{"label": "g", "nested_repetitions": 2.5, "nested": '
                              '[{"label": "a", "block_cpi": 1, "block_instruction_count": 5, '
                              '"event_count": 3}]}], "repetitions": 3.0, "seed": "7"}')
    assert (spec.repetitions, spec.seed, spec.segments[0].nested_repetitions) == (3.0, "7", 2.5)
    with pytest.raises(ScenarioError, match="repetitions must be an integer"):
        generate(spec)


# --- run layout against the run-by-run expansion --------------------------------

@dataclass
class _Run:
    segment: SegmentSpec
    entry: EntryKind


def _flatten(segments: list[SegmentSpec]) -> list[_Run]:
    runs: list[_Run] = []
    for seg in segments:
        if seg.nested:
            for rep in range(seg.nested_repetitions):
                sub = _flatten(seg.nested)
                if rep == 0:
                    # the group is entered from outside on its first iteration
                    sub[0] = _Run(sub[0].segment, seg.entry_kind)
                runs.extend(sub)
        else:
            runs.append(_Run(seg, seg.entry_kind))
    return runs


def _assign_blocks(
    runs: list[_Run], repetitions: int
) -> tuple[dict[int, BlockDescriptor], list[int]]:
    """(block table, block id of each run): one block per flat segment,
    numbered and addressed in first-appearance order, with terminators
    encoding how each block's successor is entered."""
    block_of: dict[int, int] = {}  # id(SegmentSpec) -> block_id
    run_blocks = [block_of.setdefault(id(run.segment), len(block_of)) for run in runs]

    def address(block_id: int) -> int:
        return _BASE_ADDRESS + block_id * _ADDRESS_PITCH

    desired: dict[int, list[tuple[EntryKind, int]]] = {b: [] for b in block_of.values()}
    for j, src in enumerate(run_blocks):
        if j == len(runs) - 1 and repetitions < 2:
            break  # the wrap edge never executes
        nxt = (j + 1) % len(runs)
        edge = (runs[nxt].entry, run_blocks[nxt])
        if edge not in desired[src]:
            desired[src].append(edge)

    blocks: dict[int, BlockDescriptor] = {}
    for run, bid in zip(runs, run_blocks):
        if bid in blocks:
            continue
        seg = run.segment
        calls = [t for k, t in desired[bid] if k is EntryKind.CALL]
        backs = [t for k, t in desired[bid] if k is EntryKind.BACKWARD_BRANCH]
        if calls:
            terminator, target = Terminator.CALL, address(calls[0])
        elif backs:
            target = address(backs[0])
            if target > address(bid):
                raise ScenarioError(
                    f"segment {seg.label!r}: backward-branch entry is not "
                    f"realizable (target lies after the branching block); "
                    f"reorder segments so the loop head comes first"
                )
            terminator = Terminator.BRANCH
        else:
            terminator, target = Terminator.FALLTHROUGH, None
        blocks[bid] = BlockDescriptor(
            block_id=bid,
            start_address=address(bid),
            instruction_count=seg.block_instruction_count,
            terminator=terminator,
            target_address=target,
        )
    return blocks, run_blocks


def _segment_extent(seg: SegmentSpec) -> tuple[int, float]:
    """(instruction length, scripted cycle total) of one segment body."""
    if seg.is_flat:
        instrs = seg.block_instruction_count * seg.event_count
        return instrs, instrs * seg.block_cpi
    length = 0
    cycles = 0.0
    for inner in seg.nested:
        n, c = _segment_extent(inner)
        length += n
        cycles += c
    return length * seg.nested_repetitions, cycles * seg.nested_repetitions


def _annotation_nodes(
    segments: list[SegmentSpec],
    start: int,
    wrap_block: Optional[int],
    head_at,
    classify_at,
) -> list[PhaseNode]:
    """Nodes for a segment list whose repeating context re-enters its first
    segment from wrap_block (None when nothing recurs into it)."""
    nodes: list[PhaseNode] = []
    cursor = start
    for seg in segments:
        length, cycles = _segment_extent(seg)
        context = wrap_block if cursor == start else head_at(cursor - 1)
        if seg.is_flat or seg.nested_repetitions >= 2:
            node = PhaseNode(
                head_block=head_at(cursor),
                start_instruction=cursor,
                length_instructions=length if seg.is_flat
                else length // seg.nested_repetitions,
                mean_cpi=cycles / length,
                occurrence=1 if seg.is_flat else seg.nested_repetitions,
                structure=classify_at(cursor, context),
            )
            if not seg.is_flat and (len(seg.nested) > 1 or seg.nested[0].nested):
                iteration = length // seg.nested_repetitions
                inner_wrap = head_at(cursor + iteration - 1)
                node.children = _annotation_nodes(
                    seg.nested, cursor, inner_wrap, head_at, classify_at
                )
            nodes.append(node)
        else:
            # a single pass through the group adds no level of its own
            nodes.extend(
                _annotation_nodes(seg.nested, cursor, context, head_at, classify_at)
            )
        cursor += length
    return nodes


def _build_annotation(
    spec: ScenarioSpec, trace: ExecutionTrace, run_blocks: np.ndarray, run_starts: np.ndarray
) -> PhaseNode:
    """Scripted phase tree; run_blocks and run_starts give the block id and
    first instruction of each run of one period."""
    total = trace.total_instructions
    period = total // spec.repetitions
    total_cycles = sum(_segment_extent(s)[1] for s in spec.segments) * spec.repetitions

    def head_at(offset: int) -> int:
        j = int(run_starts.searchsorted(offset, side="right")) - 1
        return int(run_blocks[j])

    def classify_at(offset: int, context_block: Optional[int]) -> Structure:
        context = trace.blocks[context_block] if context_block is not None else None
        return classify_structure(trace.blocks[head_at(offset)], context)

    period_wrap = int(run_blocks[-1]) if spec.repetitions >= 2 else None

    root = PhaseNode(
        head_block=int(run_blocks[0]),
        start_instruction=0,
        length_instructions=total,
        mean_cpi=total_cycles / total,
        occurrence=1,
        structure=Structure.NONE,
    )
    single_flat = len(spec.segments) == 1 and spec.segments[0].is_flat
    if single_flat:
        return root  # a repeated constant run is one phase

    if spec.repetitions >= 2:
        template = PhaseNode(
            head_block=root.head_block,
            start_instruction=0,
            length_instructions=period,
            mean_cpi=root.mean_cpi,
            occurrence=spec.repetitions,
            structure=classify_at(0, period_wrap),
        )
        template.children = _annotation_nodes(
            spec.segments, 0, period_wrap, head_at, classify_at
        )
        root.children = [template]
    else:
        root.children = _annotation_nodes(
            spec.segments, 0, None, head_at, classify_at
        )
    return root


def run_by_run_generate(spec: ScenarioSpec) -> tuple[ExecutionTrace, GoldenAnnotation]:
    """Reference generate: the scenario expanded into one Python object per
    run, and the annotation measured node by node from the run starts."""
    _plan(spec)
    runs = _flatten(spec.segments)
    blocks, run_blocks = _assign_blocks(runs, spec.repetitions)

    run_events = [run.segment.event_count for run in runs]
    run_instr = [run.segment.block_instruction_count for run in runs]
    run_cpi = [run.segment.block_cpi for run in runs]
    run_starts = np.zeros(len(runs), dtype=np.int64)
    np.cumsum(np.multiply(run_events, run_instr)[:-1], out=run_starts[1:])

    event_block = np.tile(np.repeat(run_blocks, run_events), spec.repetitions)
    event_instr = np.tile(np.repeat(run_instr, run_events), spec.repetitions)
    event_cpi = np.tile(np.repeat(run_cpi, run_events), spec.repetitions).astype(float)
    if spec.noise_stddev > 0:
        rng = np.random.Generator(np.random.PCG64(spec.seed))
        noise = rng.normal(0.0, spec.noise_stddev, size=event_cpi.size)
        event_cpi = np.maximum(_MIN_CPI, event_cpi + noise)
    cycles = event_cpi * event_instr

    quanta = None
    if spec.quantum_length is not None:
        starts = np.zeros(event_instr.size + 1, dtype=np.int64)
        np.cumsum(event_instr, out=starts[1:])
        quanta = quantum_cpis(starts, cycles, spec.quantum_length)
    trace = ExecutionTrace(blocks=blocks, event_blocks=event_block, event_cycles=cycles,
                           quanta=quanta, quantum_length=spec.quantum_length)
    return trace, GoldenAnnotation(_build_annotation(spec, trace, run_blocks, run_starts))


@st.composite
def layered_scenarios(draw):
    """Up to three levels of groups, every entry kind, group and scenario
    repetitions of 1 and more, and one flat segment object used twice."""
    labels = itertools.count()
    kinds = st.sampled_from(list(EntryKind))
    made: list[SegmentSpec] = []

    def segments(depth):
        out = []
        for _ in range(draw(st.integers(1, 3))):
            if depth < 2 and draw(st.booleans()):
                out.append(SegmentSpec(f"g{next(labels)}", nested=segments(depth + 1),
                                       nested_repetitions=draw(st.sampled_from([1, 2, 3, 5])),
                                       entry_kind=draw(kinds)))
            else:
                made.append(SegmentSpec(f"s{next(labels)}", block_cpi=draw(st.floats(0.5, 4.0)),
                                        block_instruction_count=draw(st.integers(1, 20)),
                                        event_count=draw(st.integers(1, 4)),
                                        entry_kind=draw(kinds)))
                out.append(made[-1])
        return out

    top = segments(0)
    reused = made[draw(st.integers(0, len(made) - 1))]
    top.insert(draw(st.integers(0, len(top))), reused)
    return ScenarioSpec(
        segments=top,
        repetitions=draw(st.sampled_from([1, 2, 3])),
        noise_stddev=draw(st.sampled_from([0.0, 0.1])),
        seed=draw(st.integers(0, 2**32 - 1)),
        quantum_length=draw(st.one_of(st.none(), st.integers(1, 200))),
    )


def _outcome(make, spec):
    try:
        trace, annotation = make(spec)
    except ScenarioError as exc:
        return str(exc)
    return trace, tree_json(annotation.true_phases, trace.blocks)


@settings(max_examples=150, deadline=None)
@given(spec=layered_scenarios())
def test_layout_matches_the_run_by_run_expansion(spec):
    expected, got = _outcome(run_by_run_generate, spec), _outcome(generate, spec)
    if isinstance(expected, str):
        assert got == expected
        return
    (want, want_json), (trace, annotation_json) = expected, got
    assert trace.blocks == want.blocks
    assert trace.event_blocks.tolist() == want.event_blocks.tolist()
    assert trace.event_cycles.tolist() == want.event_cycles.tolist()
    assert (trace.quanta is None and want.quanta is None) or \
        trace.quanta.tolist() == want.quanta.tolist()
    assert annotation_json == want_json


@settings(max_examples=40, deadline=None)
@given(spec=layered_scenarios())
def test_scenario_repetitions_script_what_an_outermost_group_does(spec):
    """Segments repeated r times by the scenario give the trace, and the
    annotation node for node, of the same segments nested r times in a
    scenario run once. Only the period node's structure differs: the
    repeated scenario re-enters its first segment from the block that ends
    the trace, while a group entered at event 0 has no entering block."""
    group = SegmentSpec("all", nested=spec.segments, nested_repetitions=spec.repetitions)
    nested = dataclasses.replace(spec, segments=[group], repetitions=1)
    try:
        trace, annotation = generate(spec)
    except ScenarioError as exc:
        assert _outcome(generate, nested) == str(exc)
        return
    nested_trace, nested_annotation = generate(nested)
    assert serialize_trace(nested_trace) == serialize_trace(trace)
    root, nested_root = annotation.true_phases, nested_annotation.true_phases
    if spec.repetitions >= 2:
        (period,), (nested_period,) = root.children, nested_root.children
        last = trace.blocks[int(trace.event_blocks[-1])]
        assert period.structure is classify_structure(trace.blocks[period.head_block], last)
        assert nested_period.structure is Structure.NONE
        nested_period.structure = period.structure
    assert tree_json(nested_root, trace.blocks) == tree_json(root, trace.blocks)


def test_unrealizable_backward_branch_inside_a_group_names_the_segment():
    spec = ScenarioSpec(segments=[
        flat("head", 1.0, 4, 2),
        SegmentSpec("g", nested=[flat("x", 2.0, 4, 2), flat("y", 1.5, 4, 1)], nested_repetitions=3),
        flat("later", 2.5, 4, 2, entry=EntryKind.BACKWARD_BRANCH),
    ], repetitions=2)
    message = _outcome(run_by_run_generate, spec)
    assert message.startswith("segment 'y': backward-branch entry is not realizable")
    assert _outcome(generate, spec) == message


def test_nested_repetitions_cost_per_segment_not_per_run():
    runs = 200_000
    nested = ScenarioSpec(segments=[
        SegmentSpec("g", nested=[flat("a", 1.5, 3, 1)], nested_repetitions=runs)])
    one_run = ScenarioSpec(segments=[flat("a", 1.5, 3, runs)])

    def best_of(spec):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            generate(spec)
            times.append(time.perf_counter() - start)
        return min(times)

    assert serialize_trace(generate(nested)[0]) == serialize_trace(generate(one_run)[0])
    assert best_of(nested) < 8 * best_of(one_run)
