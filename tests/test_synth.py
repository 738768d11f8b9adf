"""Scenario generator: determinism, block table realization, quantum
records, annotation shape, and scenario JSON handling."""

import math

import numpy as np
import pytest

from phasescope import (
    EntryKind,
    ScenarioSpec,
    SegmentSpec,
    Structure,
    Terminator,
    generate,
    serialize_trace,
)
from phasescope.synth import ScenarioError, scenario_from_json, scenario_json


def flat(label, cpi, instrs, events, entry=EntryKind.FALLTHROUGH):
    return SegmentSpec(label, block_cpi=cpi, block_instruction_count=instrs,
                       event_count=events, entry_kind=entry)


def test_single_segment_zero_noise_is_constant():
    trace, annotation = generate(ScenarioSpec(
        segments=[flat("a", 1.5, 5, 10)], repetitions=3,
    ))
    cpis = set((trace.event_cycles / trace.event_instructions).tolist())
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
    from phasescope import EventIndex, quantum_cpis

    np.testing.assert_allclose(
        trace.quanta, quantum_cpis(EventIndex.from_trace(trace), 20), atol=1e-12
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


def test_scenario_json_keeps_numbers_as_written():
    spec = scenario_from_json('{"segments": [{"label": "g", "nested_repetitions": 2.5, "nested": '
                              '[{"label": "a", "block_cpi": 1, "block_instruction_count": 5, '
                              '"event_count": 3}]}], "repetitions": 3.0, "seed": "7"}')
    assert (spec.repetitions, spec.seed, spec.segments[0].nested_repetitions) == (3.0, "7", 2.5)
    with pytest.raises(ScenarioError, match="repetitions must be an integer"):
        generate(spec)
