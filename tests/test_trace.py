"""Trace format parsing, validation and round-trip behavior."""

import io
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasescope import (
    BlockDescriptor,
    EntryKind,
    ExecutionTrace,
    ScenarioSpec,
    SegmentSpec,
    Terminator,
    TraceFormatError,
    generate,
    parse_trace,
    serialize_trace,
)
from phasescope import trace as trace_module
from phasescope.trace import _CHUNK_LINES, float_reprs

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
    assert trace.quanta.tolist() == [1.5, 2.5]


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
    np.testing.assert_array_equal(back.quanta, trace.quanta)
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
    for column in (trace.event_blocks, trace.event_cycles, trace.event_starts):
        with pytest.raises(ValueError):
            column[0] = 1


def test_trace_retains_three_event_columns():
    # block ids, cycles and instruction prefix sums, 8 bytes each per event;
    # an event's instruction count is derived, not stored
    rng = np.random.default_rng(5)
    blocks = {b: BlockDescriptor(b, 0x1000 + 0x40 * b, b + 1, Terminator.FALLTHROUGH)
              for b in range(16)}
    ids = rng.integers(0, 16, 100_000)
    cycles = rng.uniform(1.0, 50.0, ids.size)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = ExecutionTrace(blocks=blocks, event_blocks=ids, event_cycles=cycles)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 3 * 8 * ids.size + 64 * 1024
    np.testing.assert_array_equal(np.diff(trace.event_starts), ids + 1)


def test_quanta_are_a_read_only_float64_copy():
    blocks = {0: BlockDescriptor(0, 0x1000, 10, Terminator.FALLTHROUGH)}
    cpis = [1.5, 2]
    trace = ExecutionTrace(blocks=blocks, event_blocks=[0, 0], event_cycles=[np.nan] * 2,
                           quanta=cpis, quantum_length=10)
    cpis[0] = 9.0
    assert trace.quanta.dtype == np.float64
    assert trace.quanta.tolist() == [1.5, 2.0]
    with pytest.raises(ValueError):
        trace.quanta[0] = 1.0
    assert parse_trace("V 1\nB 0 1000 10 F\nE 0\nL 10\nQ 0 1.5\n").quanta.flags.writeable is False


@pytest.mark.parametrize("quanta, message", [
    ([1.0, 0.0, np.nan], "quantum 1: cpi must be positive"),
    ([1.0, np.inf, -1.0], "quantum 1: non-finite cpi"),
    ([-2.0, 1.0, 1.0], "quantum 0: cpi must be positive"),
    ([1.0, 1.0], "quantum count mismatch: 2 records, expected ceil(30/10) = 3"),
    ([[1.0, 1.0, 1.0]], "quantum count mismatch: 3 records"),
])
def test_constructor_reports_the_first_bad_quantum(quanta, message):
    blocks = {0: BlockDescriptor(0, 0x1000, 10, Terminator.FALLTHROUGH)}
    with pytest.raises(TraceFormatError, match=message.replace("(", r"\(").replace(")", r"\)")):
        ExecutionTrace(blocks=blocks, event_blocks=[0] * 3, event_cycles=[np.nan] * 3,
                       quanta=quanta, quantum_length=10)


@pytest.mark.parametrize("quanta, line, got, at", [
    ("Q 1 1.5\nQ 0 2.5\n", 6, 1, 0),
    ("Q 0 1.5\nQ 2 2.5\n", 7, 2, 1),
    ("Q 0 1.5\nQ 0 2.5\n", 7, 0, 1),
    ("Q 0 1.5\n# note\nQ 1 2.5\nQ -1 2.5\n", 9, -1, 2),
])
def test_out_of_order_quantum_index_names_its_line(quanta, line, got, at):
    text = "V 1\nB 0 1000 10 F\nE 0\nE 0\nL 10\n" + quanta
    with pytest.raises(TraceFormatError, match=rf"contiguous from 0 \(got {got} at {at}\)") as exc:
        parse_trace(text)
    assert exc.value.line == line


def test_out_of_order_quantum_index_names_its_line_in_a_later_chunk():
    events = _CHUNK_LINES + 5
    text = "V 1\nB 0 1000 1 F\n" + "E 0\n" * events + "L 100000\nQ 0 1.5\nQ 2 1.5\n"
    with pytest.raises(TraceFormatError, match=r"got 2 at 1") as exc:
        parse_trace(text)
    assert exc.value.line == events + 5


@pytest.mark.parametrize("text, line", [
    ("V 1\nB 0 1000 5 F\nE 0 nan\n", 3),
    ("V 1\nB 0 1000 5 F\nE 0 5.0\nE 0 inf\n", 4),
    ("V 1\nB 0 1000 10 F\nE 0\nE 0\nL 10\nQ 0 nan\nQ 1 1.5\n", 6),
])
def test_non_finite_values_rejected_with_line(text, line):
    with pytest.raises(TraceFormatError, match="non-finite") as exc:
        parse_trace(text)
    assert exc.value.line == line


@pytest.mark.parametrize("text, line, message", [
    pytest.param("V 1\nB 0 1000 5\nE 0 5.0\n", 2, "malformed block record", id="block-4-fields"),
    pytest.param("V 1\nB 0 1000 5 X\nE 0 5.0\n", 2, "malformed terminator 'X'", id="terminator"),
    pytest.param("V 1\nB 0 zz 5 F\nE 0 5.0\n", 2, "malformed address 'zz'", id="address"),
    # addresses are read only in the bare lowercase hex save_trace writes
    pytest.param("V 1\nB 0 0x1_0 5 F\nE 0 5.0\n", 2, "malformed address '0x1_0'", id="address-0x"),
    pytest.param("V 1\nB 0 1_0 5 F\nE 0 5.0\n", 2, "malformed address '1_0'",
                 id="address-underscore"),
    pytest.param("V 1\nB 0 +20 5 F\nE 0 5.0\n", 2, "malformed address '+20'", id="address-plus"),
    pytest.param("V 1\nB 0 0010 5 F\nE 0 5.0\n", 2, "malformed address '0010'",
                 id="address-leading-zero"),
    pytest.param("V 1\nB 0 A0 5 F\nE 0 5.0\n", 2, "malformed address 'A0'", id="address-upper"),
    pytest.param("V 1\nB 0 -0 5 F\nE 0 5.0\n", 2, "malformed address '-0'", id="address-minus-0"),
    pytest.param("V 1\nB 0 1000 5 B 0X3_0\nE 0 5.0\n", 2, "malformed target address '0X3_0'",
                 id="target-0X"),
    pytest.param("V 1\nB 0 -10 5 F\nE 0 5.0\n", 2, "block 0: addresses must be non-negative",
                 id="negative-address"),
    pytest.param("V 1\nB 0 1000 5 B -10\nE 0 5.0\n", 2, "block 0: addresses must be non-negative",
                 id="negative-target"),
    pytest.param("V 1\nB 0 1000 0 F\nE 0 5.0\n", 2, "block 0: instruction_count must be >= 1",
                 id="zero-instructions"),
    pytest.param("V 1\nB 0 1000 5 F 2000\nE 0 5.0\n", 2,
                 "block 0: target_address present iff terminator is branch or call", id="target"),
    pytest.param("V 1\nB 0 1000 10 F\nE 0\nL 10\nQ 0\n", 5, "malformed quantum record",
                 id="quantum-2-fields"),
    pytest.param("V 1\nB 0 1000 10 F\nE 0\nL\nQ 0 1.5\n", 4, "malformed quantum length record",
                 id="bare-L"),
    # the first chunk holds only the header; the second, all E lines, meets
    # an empty block table
    pytest.param("V 1\n" + "\n" * (_CHUNK_LINES - 1) + "E 0 5.0\n" * 10, _CHUNK_LINES + 1,
                 "unknown block 0", id="events-before-blocks"),
])
def test_rejected_record_names_its_line(text, line, message):
    with pytest.raises(TraceFormatError, match=re.escape(f"line {line}: {message}")) as exc:
        parse_trace(text)
    assert exc.value.line == line


@pytest.mark.parametrize("text, message", [
    ("", "empty stream: missing version header"),
    ("V 1\nB 0 1000 5 F\n", "trace has no events"),
])
def test_stream_without_events_is_rejected(text, message):
    with pytest.raises(TraceFormatError, match=re.escape(message)) as exc:
        parse_trace(text)
    assert exc.value.line is None


@pytest.mark.parametrize("length", [2.5, 10.0, True, "10"])
def test_constructor_rejects_a_quantum_length_that_is_not_an_integer(length):
    blocks = {0: BlockDescriptor(0, 0x1000, 10, Terminator.FALLTHROUGH)}
    message = f"quantum_length must be an integer, got {length!r}"
    with pytest.raises(TraceFormatError, match=re.escape(message)):
        ExecutionTrace(blocks=blocks, event_blocks=[0], event_cycles=[15.0],
                       quanta=[1.5], quantum_length=length)


def test_constructor_takes_a_numpy_integer_quantum_length():
    blocks = {0: BlockDescriptor(0, 0x1000, 10, Terminator.FALLTHROUGH)}
    trace = ExecutionTrace(blocks=blocks, event_blocks=[0, 0], event_cycles=[15.0, 15.0],
                           quanta=[1.5, 1.5], quantum_length=np.int64(10))
    assert trace.quantum_length == 10


ONE_BLOCK = {0: BlockDescriptor(0, 0x1000, 10, Terminator.FALLTHROUGH)}


@pytest.mark.parametrize("columns, message", [
    (dict(blocks={}, event_blocks=[0], event_cycles=[1.0]), "trace declares no blocks"),
    (dict(blocks={1: ONE_BLOCK[0]}, event_blocks=[0], event_cycles=[1.0]),
     "block table key 1 != id 0"),
    (dict(blocks={2**63: BlockDescriptor(2**63, 0x1000, 10, Terminator.FALLTHROUGH)},
          event_blocks=[0], event_cycles=[1.0]),
     "block ids and instruction counts must fit in int64"),
    (dict(blocks=ONE_BLOCK, event_blocks=[0, 0], event_cycles=[1.0]),
     "event columns must be 1-D and of equal length"),
    (dict(blocks=ONE_BLOCK, event_blocks=[[0]], event_cycles=[[1.0]]),
     "event columns must be 1-D and of equal length"),
    (dict(blocks=ONE_BLOCK, event_blocks=[0, 7], event_cycles=[1.0, 1.0]), "unknown block 7 (event 1)"),
    (dict(blocks=ONE_BLOCK, event_blocks=[0, 0], event_cycles=[1.0, -1.0]),
     "event 1: negative cycle count"),
    (dict(blocks=ONE_BLOCK, event_blocks=[0], event_cycles=[1.0], quanta=[1.5]),
     "quantum records and quantum length must coexist"),
    (dict(blocks=ONE_BLOCK, event_blocks=[0], event_cycles=[1.0], quantum_length=10),
     "quantum records and quantum length must coexist"),
    (dict(blocks=ONE_BLOCK, event_blocks=[0], event_cycles=[1.0], quanta=[1.5], quantum_length=0),
     "quantum_length must be positive"),
])
def test_constructor_rejects_columns_the_parser_never_builds(columns, message):
    with pytest.raises(TraceFormatError, match=re.escape(message)) as exc:
        ExecutionTrace(**columns)
    assert exc.value.line is None


def test_constructor_rejects_non_finite_values():
    blocks = {0: BlockDescriptor(0, 0x1000, 10, Terminator.FALLTHROUGH)}
    with pytest.raises(TraceFormatError, match="event 1: non-finite cycle count"):
        ExecutionTrace(blocks=blocks, event_blocks=[0, 0], event_cycles=[1.0, np.inf])
    with pytest.raises(TraceFormatError, match="quantum 0: non-finite cpi"):
        ExecutionTrace(blocks=blocks, event_blocks=[0], event_cycles=[np.nan],
                       quanta=[np.nan], quantum_length=10)


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
        records = rng.uniform(0.1, 5.0, count)
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
    np.testing.assert_array_equal(back.quanta, trace.quanta)
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


def mixed_chunks_text(n_events):
    """Block table, events and quantum records, so that the first chunk
    holds the table and events and the last chunk events and the L/Q
    records: (lines, index of the first event line)."""
    header = ["V 1"] + [f"B {b} {0x1000 + 0x40 * b:x} 4 F" for b in range(4)]
    events = [f"E {i % 4} {1.0 + i % 7 / 8!r}" for i in range(n_events)]
    return header + events + [f"L {4 * n_events}", "Q 0 1.5"], len(header)


def test_event_lines_of_mixed_chunks_convert_at_once(monkeypatch):
    n_events = 2 * _CHUNK_LINES
    lines, _ = mixed_chunks_text(n_events)
    converted = []
    event_columns = trace_module._event_columns

    def spy(run, known):
        columns = event_columns(run, known)
        converted.append(None if columns is None else len(run))
        return columns

    monkeypatch.setattr(trace_module, "_event_columns", spy)
    trace = parse_trace("\n".join(lines) + "\n")
    assert trace.event_blocks.size == n_events
    # the first chunk's events, the full middle chunk, the last chunk's events
    assert converted == [_CHUNK_LINES - 5, _CHUNK_LINES, 5]


@pytest.mark.parametrize("odd", ["E \U000d6a92 5.0", "E 1\U000d6a92 5.0", "E\xa01 5.0",
                                 "E 1\u30005.0", "E \u0663 5.0"])
def test_event_runs_holding_non_ascii_text_skip_numpys_reader(monkeypatch, odd):
    """numpy's reader can crash the process on a non-ASCII field it cannot
    convert (a segmentation fault in about one run in three for the first
    line), so such a run is parsed by the line loop alone."""
    runs = []

    def reader(run, **kwargs):  # records the run instead of risking the crash
        runs.append(run)
        raise ValueError

    monkeypatch.setattr(np, "loadtxt", reader)
    text = "V 1\nB 1 1000 4 F\n" + "E 1 5.0\n" * 3 + odd + "\n" + "E 1 5.0\n" * 3
    assert_parses_as_the_line_loop(text)
    assert runs == []


@pytest.mark.parametrize("chunk", ["first", "last"])
@pytest.mark.parametrize("bad", BAD_EVENT_LINES)
def test_malformed_event_in_a_mixed_chunk_names_its_line(chunk, bad):
    lines, first_event = mixed_chunks_text(_CHUNK_LINES + 200)
    at = first_event + 100 if chunk == "first" else len(lines) - 5  # 0-based
    assert lines[at].startswith("E ")
    lines[at] = bad[0]
    text = "\n".join(lines) + "\n"
    with pytest.raises(TraceFormatError, match=bad[1]) as exc:
        parse_trace(text)
    assert exc.value.line == at + 1
    assert_parses_as_the_line_loop(text)


# --- event chunks in odd spellings ----------------------------------------------

#: spellings that numpy's reader accepts as well as int()/float()
GOOD_SEPARATORS = [" ", " ", "\t", "\xa0", "  ", "\u3000", " \x0b", "\x1c"]
GOOD_IDS = ["1", "+1", "003", "-0", "3"]
GOOD_CYCLES = ["5.0", "+5", "007", ".5", "5.", "1E3", "-0.0", "0", "2.5e-3"]
#: tokens that one or both reject, or that change the line's meaning
BAD_TOKENS = ["EX", "E\x00", "e", "1_0", "\u0663", "5.0", "0x10", "9", "99999999999999999999",
              "1#", "nan", "inf", "1e400", "-1", "2.5#c", "#", ""]
SHORT_CHUNK = 64


@st.composite
def odd_event_lines(draw, with_cycles):
    """1-12 E lines in good spellings, then up to 3 tokens replaced or
    appended by a bad token or arbitrary text."""
    lines = []
    for _ in range(draw(st.integers(1, 12))):
        fields = ["E", draw(st.sampled_from(GOOD_IDS))]
        if with_cycles:
            fields.append(draw(st.sampled_from(GOOD_CYCLES)))
        lines.append(fields)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        fields = lines[draw(st.integers(0, len(lines) - 1))]
        at = draw(st.integers(0, len(fields)))  # len(fields): an extra field
        token = draw(st.one_of(st.sampled_from(BAD_TOKENS), st.text(max_size=3)))
        fields[at:at + 1] = [token]
    return [fields[0] + "".join(draw(st.sampled_from(GOOD_SEPARATORS)) + f for f in fields[1:])
            for fields in lines]


def parse_outcome(text, as_file):
    """The parsed trace, or (message, line) of the TraceFormatError; any
    other exception escapes and fails the test."""
    try:
        return parse_trace(io.StringIO(text) if as_file else text)
    except TraceFormatError as exc:
        return str(exc), exc.line


def assert_parses_as_the_line_loop(text, as_file=False):
    """Same columns bit for bit, or the same error, with event chunks
    converted at once and with every line parsed one by one."""
    got = parse_outcome(text, as_file)
    with mock.patch.object(trace_module, "_event_columns", lambda chunk, known: None):
        want = parse_outcome(text, as_file)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert got.event_blocks.tobytes() == want.event_blocks.tobytes()
        assert got.event_cycles.tobytes() == want.event_cycles.tobytes()


@pytest.mark.parametrize("line", [
    "E\x00 1 5.0", "EX 1 5.0", "EXY 1 5.0", "e 1 5.0", "", "  \t",
    "E 1 nan", "E 1 -inf", "E 1 1e400", "E 9 5.0", "E 1 5.0 7", "E 1 5.0 # note",
    "E 1_0 5.0", "E \u0663 5.0", "E 1 \u0663", "E 5.0 5.0", "E 1 0x10", "E 1",
    "E\t1\t5.0", "E\xa01 +5", "E 003 .5", "E -0 -0.0", "E 1 -5.0",
])
def test_each_fast_path_guard_falls_back_to_the_line_loop(line):
    """One odd line deep in a full chunk of E lines parses, or fails, as in
    the line loop."""
    events = [f"E {i % 4} {1.0 + i % 7 / 8!r}" for i in range(2 * _CHUNK_LINES)]
    events[_CHUNK_LINES + 100] = line
    text = "V 1\n" + "".join(f"B {b} {0x1000 + 0x40 * b:x} 4 F\n" for b in range(4))
    text += "\n".join(events) + "\n"
    assert_parses_as_the_line_loop(text)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), with_cycles=st.booleans(), fill=st.booleans(),
       seed=st.integers(0, 2**32 - 1), as_file=st.booleans())
def test_odd_event_chunks_parse_as_the_line_loop_does(data, with_cycles, fill, seed, as_file):
    """A chunk of E lines deep in the trace converts, or fails, exactly as
    the line-by-line parser would. Chunks are shortened to keep the examples
    fast; the conversion does not depend on their length."""
    odd_lines = data.draw(odd_event_lines(with_cycles))
    rng = np.random.default_rng(seed)

    def event(i):
        cycles = f" {float(rng.uniform(0.5, 9.0))!r}" if with_cycles else ""
        return f"E {i % 4}{cycles}"

    header = ["V 1"] + [f"B {b} {0x1000 + 0x40 * b:x} 4 F" for b in range(4)]
    lines = header + [event(i) for i in range(SHORT_CHUNK - len(header))]
    if fill:  # the second chunk is odd lines only
        chunk = [odd_lines[i % len(odd_lines)] for i in range(SHORT_CHUNK)]
    else:
        chunk = [event(i) for i in range(SHORT_CHUNK)]
        for line, at in zip(odd_lines, rng.choice(SHORT_CHUNK, len(odd_lines), replace=False)):
            chunk[at] = line
    lines += chunk + [event(i) for i in range(SHORT_CHUNK + 5)]
    lines += ["L 1000000000000", "Q 0 1.5"]  # valid with or without cycles
    text = "\n".join(lines) + "\n"

    with mock.patch.object(trace_module, "_CHUNK_LINES", SHORT_CHUNK):
        assert_parses_as_the_line_loop(text, as_file)


# --- float text and the trace writer ------------------------------------------

#: float64 neighbours of the edges of repr()'s positional range
RANGE_EDGES = [float(np.nextafter(edge, toward)) for edge in (1e-4, 1e16)
               for toward in (0.0, edge, math.inf)]


def expected_reprs(column):
    return ["null" if math.isnan(x) else repr(x) for x in column.tolist()]


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(), max_size=40))
@example(values=[1e16])  # 1e+16
@example(values=[1.5e-05])  # 1.5e-05
@example(values=[-2.5e-300])  # -2.5e-300
@example(values=[1.7976931348623157e308])  # 1.7976931348623157e+308
@example(values=[5e-324, -2.2250738585072014e-308])  # subnormal, smallest normal
@example(values=[0.0, -0.0, math.nan, math.inf, -math.inf])
@example(values=RANGE_EDGES + [-x for x in RANGE_EDGES])
def test_float_reprs_equals_repr_with_null_for_nan(values):
    column = np.array(values, dtype=np.float64)
    assert float_reprs(column) == expected_reprs(column)


def test_float_reprs_on_random_bit_patterns():
    # every exponent, sign and mantissa pattern, subnormals, NaNs and infinities among them
    bits = np.random.default_rng(5).integers(0, 2**64, size=50_000, dtype=np.uint64)
    column = bits.view(np.float64)
    assert float_reprs(column) == expected_reprs(column)


def test_float_reprs_takes_strided_and_empty_columns():
    column = np.array([0.5, 1e-9, 2.5, 1e20, 3.5])
    assert float_reprs(column[::2]) == ["0.5", "2.5", "3.5"]
    assert float_reprs(column[::-2]) == ["3.5", "2.5", "0.5"]
    assert float_reprs(np.empty(0)) == []


def reference_serialize(trace):
    """The per-event writer that serialize_trace replaced: the oracle."""
    out = ["V 1"]
    for block in trace.blocks.values():
        rec = (
            f"B {block.block_id} {block.start_address:x} "
            f"{block.instruction_count} {block.terminator.value}"
        )
        if block.target_address is not None:
            rec += f" {block.target_address:x}"
        out.append(rec)
    for bid, cycles in zip(trace.event_blocks.tolist(), trace.event_cycles.tolist()):
        out.append(f"E {bid}" if math.isnan(cycles) else f"E {bid} {cycles!r}")
    if trace.quanta is not None:
        out.append(f"L {trace.quantum_length}")
        out.extend(f"Q {i} {cpi!r}" for i, cpi in enumerate(trace.quanta.tolist()))
    return "\n".join(out) + "\n"


def with_missing_cycles(trace, missing):
    cycles = trace.event_cycles.copy()
    cycles[missing] = np.nan
    return ExecutionTrace(blocks=trace.blocks, event_blocks=trace.event_blocks,
                          event_cycles=cycles, quanta=trace.quanta,
                          quantum_length=trace.quantum_length)


def extreme_cycles(trace):
    """Cycle counts spread over every exponent spelling, zero and subnormals."""
    rng = np.random.default_rng(11)
    cycles = 10.0 ** rng.uniform(-320, 300, trace.event_cycles.size)
    cycles[::7] = 0.0
    cycles[1 : 1 + len(RANGE_EDGES)] = RANGE_EDGES
    return ExecutionTrace(blocks=trace.blocks, event_blocks=trace.event_blocks, event_cycles=cycles)


WRITER_CASES = {
    "golden": lambda rng: generate(SCENARIOS[2])[0],
    "golden and quanta": lambda rng: generate(SCENARIOS[1])[0],
    "quantum only": lambda rng: random_trace(rng, 3000, golden=False, quanta=True),
    "30% missing cycles": lambda rng: with_missing_cycles(
        random_trace(rng, 3000, quanta=True), rng.random(3000) < 0.3),
    "last cycles missing": lambda rng: with_missing_cycles(
        random_trace(rng, 3000, quanta=True), [-1]),
    "sparse ids": lambda rng: random_trace(rng, 3000),
    "every exponent": lambda rng: extreme_cycles(random_trace(rng, 3000)),
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_serialize_matches_the_per_event_writer(case):
    trace = WRITER_CASES[case](np.random.default_rng(23))
    text = serialize_trace(trace)
    assert text == reference_serialize(trace)
    assert_same_columns(parse_trace(text), trace)
