"""Trace format parsing, validation and round-trip behavior."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasescope import (
    BlockDescriptor,
    EntryKind,
    ExecutionTrace,
    QuantumRecord,
    ScenarioSpec,
    SegmentSpec,
    Terminator,
    TraceFormatError,
    generate,
    parse_trace,
    serialize_trace,
)
from phasescope.trace import _CHUNK_LINES

GOLDEN_SIMPLE = """\
V 1
# one block, three executions
B 0 1000 5 F
E 0 5.0
E 0 5.0
E 0 5.0
"""


def test_parse_simple_golden_trace():
    trace = parse_trace(GOLDEN_SIMPLE)
    assert list(trace.blocks) == [0]
    assert trace.blocks[0].start_address == 0x1000
    assert trace.event_blocks.tolist() == [0, 0, 0]
    assert trace.event_cycles.tolist() == [5.0, 5.0, 5.0]
    assert trace.is_golden
    assert not trace.has_quanta
    assert trace.total_instructions == 15


def test_unknown_block_reported_with_number():
    bad = "V 1\nB 0 1000 5 F\nE 7\n"
    with pytest.raises(TraceFormatError, match="unknown block 7"):
        parse_trace(bad)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(TraceFormatError, match="line 3"):
        parse_trace("V 1\nB 0 1000 5 F\nE zzz\n")


def test_version_header_required_first():
    with pytest.raises(TraceFormatError, match="version header"):
        parse_trace("B 0 1000 5 F\nE 0 5.0\n")


def test_duplicate_block_declaration_rejected():
    bad = "V 1\nB 0 1000 5 F\nB 0 2000 5 F\nE 0\n"
    with pytest.raises(TraceFormatError, match="duplicate block declaration 0"):
        parse_trace(bad)


def test_duplicate_start_address_rejected():
    with pytest.raises(TraceFormatError, match="duplicate start_address"):
        ExecutionTrace(
            blocks={
                0: BlockDescriptor(0, 0x1000, 5, Terminator.FALLTHROUGH),
                1: BlockDescriptor(1, 0x1000, 5, Terminator.FALLTHROUGH),
            },
            event_blocks=[0],
            event_cycles=[5.0],
        )


def test_mixed_mode_violation():
    # neither all-cycles nor quantum samples
    bad = "V 1\nB 0 1000 5 F\nE 0 5.0\nE 0\n"
    with pytest.raises(TraceFormatError, match="mixed-mode"):
        parse_trace(bad)


def test_quantum_count_mismatch():
    bad = "V 1\nB 0 1000 10 F\nE 0\nE 0\nL 10\nQ 0 1.5\n"
    # D = 20, quantum_length 10 -> expect 2 quanta
    with pytest.raises(TraceFormatError, match="quantum count mismatch"):
        parse_trace(bad)


def test_quantum_records_need_length_record():
    with pytest.raises(TraceFormatError, match="no L quantum-length"):
        parse_trace("V 1\nB 0 1000 5 F\nE 0\nQ 0 1.5\n")
    with pytest.raises(TraceFormatError, match="no Q records"):
        parse_trace("V 1\nB 0 1000 5 F\nE 0 5.0\nL 10\n")


def test_target_address_iff_branch_or_call():
    with pytest.raises(TraceFormatError, match="target_address"):
        BlockDescriptor(0, 0x1000, 5, Terminator.BRANCH)
    with pytest.raises(TraceFormatError, match="target_address"):
        BlockDescriptor(0, 0x1000, 5, Terminator.FALLTHROUGH, target_address=0x2000)
    ok = BlockDescriptor(0, 0x1000, 5, Terminator.CALL, target_address=0x2000)
    assert ok.target_address == 0x2000


def test_quantum_mode_trace_parses():
    text = "V 1\nB 0 1000 10 F\nE 0\nE 0\nL 10\nQ 0 1.5\nQ 1 2.5\n"
    trace = parse_trace(text)
    assert trace.has_quanta
    assert not trace.is_golden
    assert [q.cpi for q in trace.quanta] == [1.5, 2.5]


def test_total_instructions_independent_of_quanta():
    golden = parse_trace(GOLDEN_SIMPLE)
    with_quanta = ExecutionTrace(
        blocks=dict(golden.blocks),
        event_blocks=golden.event_blocks,
        event_cycles=golden.event_cycles,
        quanta=None,
        quantum_length=None,
    )
    assert golden.total_instructions == with_quanta.total_instructions == 15


SCENARIOS = [
    ScenarioSpec(
        segments=[SegmentSpec("a", block_cpi=1.25, block_instruction_count=3, event_count=7)],
        repetitions=2,
        seed=1,
    ),
    ScenarioSpec(
        segments=[
            SegmentSpec("a", block_cpi=1.0, block_instruction_count=4, event_count=5),
            SegmentSpec("b", block_cpi=2.5, block_instruction_count=6, event_count=3),
        ],
        repetitions=3,
        noise_stddev=0.2,
        seed=99,
        quantum_length=17,
    ),
    ScenarioSpec(
        segments=[
            SegmentSpec("loop", block_cpi=0.8, block_instruction_count=2, event_count=11,
                        entry_kind=EntryKind.BACKWARD_BRANCH),
            SegmentSpec("tail", block_cpi=1.9, block_instruction_count=5, event_count=4),
        ],
        repetitions=4,
        noise_stddev=0.1,
        seed=3,
    ),
]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_round_trip_over_generated_traces(scenario):
    trace, _ = generate(scenario)
    text = serialize_trace(trace)
    back = parse_trace(text)
    assert back.blocks == trace.blocks
    assert_same_columns(back, trace)
    assert back.quanta == trace.quanta
    assert back.quantum_length == trace.quantum_length
    assert serialize_trace(back) == text


def test_generator_total_matches_bookkeeping():
    scenario = SCENARIOS[1]
    trace, _ = generate(scenario)
    expected = 3 * (4 * 5 + 6 * 3)  # reps * (per-period instructions)
    assert trace.total_instructions == expected


def assert_same_columns(a, b):
    assert a.event_blocks.dtype == b.event_blocks.dtype == np.int64
    assert a.event_cycles.dtype == b.event_cycles.dtype == np.float64
    np.testing.assert_array_equal(a.event_blocks, b.event_blocks)
    np.testing.assert_array_equal(a.event_cycles, b.event_cycles)  # NaN == NaN here


def test_columns_are_read_only_copies():
    blocks = {0: BlockDescriptor(0, 0x1000, 10, Terminator.FALLTHROUGH)}
    ids = np.array([0, 0])
    trace = ExecutionTrace(blocks=blocks, event_blocks=ids, event_cycles=[1.0, 2.0])
    ids[0] = 7  # the caller's array stays writable and is not the trace's
    assert trace.event_blocks.tolist() == [0, 0]
    for column in (trace.event_blocks, trace.event_cycles, trace.event_instructions,
                   trace.event_starts):
        with pytest.raises(ValueError):
            column[0] = 1


@pytest.mark.parametrize("text, line", [
    ("V 1\nB 0 1000 5 F\nE 0 nan\n", 3),
    ("V 1\nB 0 1000 5 F\nE 0 5.0\nE 0 inf\n", 4),
    ("V 1\nB 0 1000 10 F\nE 0\nE 0\nL 10\nQ 0 nan\nQ 1 1.5\n", 6),
])
def test_non_finite_values_rejected_with_line(text, line):
    with pytest.raises(TraceFormatError, match="non-finite") as exc:
        parse_trace(text)
    assert exc.value.line == line


def test_constructor_rejects_non_finite_values():
    blocks = {0: BlockDescriptor(0, 0x1000, 10, Terminator.FALLTHROUGH)}
    with pytest.raises(TraceFormatError, match="event 1: non-finite cycle count"):
        ExecutionTrace(blocks=blocks, event_blocks=[0, 0], event_cycles=[1.0, np.inf])
    with pytest.raises(TraceFormatError, match="quantum 0: non-finite cpi"):
        ExecutionTrace(blocks=blocks, event_blocks=[0], event_cycles=[np.nan],
                       quanta=[QuantumRecord(0, np.nan)], quantum_length=10)


@pytest.mark.parametrize("text, line", [
    ("V 1\nB 9223372036854775808 1000 5 F\nE 0 5.0\n", 2),
    ("V 1\nB 0 1000 5 F\nE -9223372036854775809 5.0\n", 3),
    ("V 1\nB 0 1000 99999999999999999999 F\nE 0 5.0\n", 2),
])
def test_decimal_fields_outside_int64_rejected_with_line(text, line):
    with pytest.raises(TraceFormatError, match="outside int64") as exc:
        parse_trace(text)
    assert exc.value.line == line


def test_instruction_total_beyond_int64_rejected():
    with pytest.raises(TraceFormatError, match="could overflow int64"):
        parse_trace("V 1\nB 0 1000 9223372036854775807 F\nE 0 1.0\nE 0 1.0\n")


def test_extreme_int64_block_ids_round_trip():
    text = "V 1\nB -9223372036854775808 1000 5 F\nB 9223372036854775807 2000 5 F\n" + \
        "E 9223372036854775807 5.0\nE -9223372036854775808 2.5\n"
    trace = parse_trace(text)
    assert trace.event_blocks.tolist() == [2**63 - 1, -(2**63)]
    assert serialize_trace(trace) == text


# --- chunked parsing ----------------------------------------------------------

SPARSE_IDS = [-(2**63), -7, -1, 0, 1, 2, 3, 5, 8, 13, 1000, 10**12, 2**63 - 1]
ODD_LINES = ["# comment", "", "   \t", "#", "  # indented comment"]


def random_trace(rng, n_events, golden=True, quanta=False):
    """Valid trace with sparse block ids; quanta computed from random CPIs."""
    n_blocks = int(rng.integers(1, 9))
    ids = rng.choice(np.array(SPARSE_IDS, dtype=np.int64), n_blocks, replace=False)
    blocks = {}
    for i, bid in enumerate(ids.tolist()):
        term = list(Terminator)[int(rng.integers(0, 4))]
        target = 0x800 if term in (Terminator.BRANCH, Terminator.CALL) else None
        blocks[bid] = BlockDescriptor(bid, 0x1000 + 0x40 * i, int(rng.integers(1, 20)), term, target)
    events = rng.choice(ids, n_events)
    cycles = np.full(n_events, np.nan)
    if golden:
        # spread over many magnitudes so the text needs full repr precision
        cycles = rng.uniform(0.0, 50.0, n_events) * 10.0 ** rng.integers(-3, 4, n_events)
    records, length = None, None
    if quanta:
        length = int(rng.integers(1, 500))
        total = sum(blocks[b].instruction_count for b in events.tolist())
        count = -(-total // length)
        records = [QuantumRecord(i, c) for i, c in enumerate(rng.uniform(0.1, 5.0, count).tolist())]
    return ExecutionTrace(blocks=blocks, event_blocks=events, event_cycles=cycles,
                          quanta=records, quantum_length=length)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_events=st.integers(1, 3 * _CHUNK_LINES),
    mode=st.sampled_from(["golden", "quantum", "both"]),
    odd_lines=st.integers(0, 12),
    as_file=st.booleans(),
)
def test_round_trip_reproduces_columns_exactly(seed, n_events, mode, odd_lines, as_file):
    rng = np.random.default_rng(seed)
    trace = random_trace(rng, n_events, golden=mode != "quantum", quanta=mode != "golden")
    text = serialize_trace(trace)
    lines = text.splitlines()
    for _ in range(odd_lines):
        at = int(rng.integers(0, len(lines) + 1))
        if at < len(lines) and rng.integers(0, 2):
            lines[at] += "  # trailing comment"
        else:
            lines.insert(at, ODD_LINES[int(rng.integers(0, len(ODD_LINES)))])
    noisy = "\n".join(lines) + "\n"
    back = parse_trace(io.StringIO(noisy) if as_file else noisy)

    assert back.blocks == trace.blocks
    assert_same_columns(back, trace)
    assert back.quanta == trace.quanta
    assert back.quantum_length == trace.quantum_length
    assert back.is_golden == trace.is_golden
    assert back.total_instructions == trace.total_instructions
    assert serialize_trace(back) == text


BAD_EVENT_LINES = [
    ("E 0 nan", "non-finite cycle count"),
    ("E 0 -inf", "non-finite cycle count"),
    ("E x 1.0", "malformed block id"),
    ("E 0 1.0e", "malformed cycle count"),
    ("E 0 1.0 2", "malformed event record"),
    ("E", "malformed event record"),
    ("E 99 1.0", "unknown block 99"),
    ("E 9223372036854775808 1.0", "outside int64"),
    ("Z 0 1.0", "unknown record"),
]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bad=st.sampled_from(BAD_EVENT_LINES))
def test_malformed_event_deep_in_a_chunk_names_its_line(seed, bad):
    rng = np.random.default_rng(seed)
    blocks = {b: BlockDescriptor(b, 0x1000 + 0x100 * b, 4, Terminator.FALLTHROUGH) for b in range(4)}
    n = int(rng.integers(2 * _CHUNK_LINES, 3 * _CHUNK_LINES))
    trace = ExecutionTrace(blocks=blocks, event_blocks=rng.integers(0, 4, n),
                           event_cycles=rng.uniform(1.0, 9.0, n))
    lines = serialize_trace(trace).splitlines()
    at = int(rng.integers(len(blocks) + 1, len(lines)))  # an event line, 0-based
    lines[at] = bad[0]
    with pytest.raises(TraceFormatError, match=bad[1]) as exc:
        parse_trace("\n".join(lines) + "\n")
    assert exc.value.line == at + 1
