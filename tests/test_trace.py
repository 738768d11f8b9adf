"""Trace format parsing, validation and round-trip behavior."""

import io
import math
import re
import tracemalloc
from fractions import Fraction
from functools import partial
from numbers import Integral, Real
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
    analyze,
    generate,
    golden_waveform,
    load_trace,
    parse_trace,
    save_trace,
    serialize_trace,
    tq_phases,
)
from phasescope import trace as trace_module
from phasescope.synth import ScenarioError
from phasescope.trace import _CHUNK_LINES, check_number, float_reprs

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
    assert trace.quanta is None
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
    with pytest.raises(TraceFormatError, match="must coexist"):
        parse_trace("V 1\nB 0 1000 5 F\nE 0\nQ 0 1.5\n")
    with pytest.raises(TraceFormatError, match="must coexist"):
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
    assert trace.quanta is not None
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


def _traced_peak(call):
    """(call(), the largest traced memory above the start while it ran)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def test_each_stage_peaks_within_its_bytes_per_event(tmp_path):
    # a trace keeps 24 bytes per event; each stage adopts the columns it
    # builds and frees or reuses its temporaries as large as the trace
    spec = ScenarioSpec(
        [SegmentSpec(f"b{i}", 1.0 + i / 8, 3 + i % 5, 2 + i % 3) for i in range(64)],
        repetitions=524, noise_stddev=0.05, seed=3,
    )
    peaks = {}
    (trace, _), peaks["generate"] = _traced_peak(lambda: generate(spec))
    n = trace.event_blocks.size
    assert 100_000 <= n <= 101_000
    path = tmp_path / "stages.trace"
    save_trace(trace, path)
    _, peaks["load_trace"] = _traced_peak(lambda: load_trace(path))
    _, peaks["analyze"] = _traced_peak(lambda: analyze(trace))
    total = trace.total_instructions

    def scoring():
        golden_waveform(trace)
        for length in (total // 64, total // 8):
            tq_phases(trace, length, 0.1)

    _, peaks["golden_waveform + tq_phases"] = _traced_peak(scoring)
    limits = {"generate": 52, "load_trace": 44, "analyze": 26, "golden_waveform + tq_phases": 26}
    over = {stage: round(peaks[stage] / n, 1) for stage, limit in limits.items()
            if peaks[stage] > limit * n + 64 * 1024}
    assert not over, f"bytes per event over the limits {limits}: {over}"


def _locked(values, dtype):
    column = np.array(values, dtype=dtype)
    column.flags.writeable = False
    return column


def test_a_read_only_owning_column_is_adopted():
    blocks = {0: BlockDescriptor(0, 0x1000, 10, Terminator.FALLTHROUGH)}
    ids, cycles = _locked([0, 0, 0], np.int64), _locked([1.0, 2.0, 3.0], np.float64)
    quanta = _locked([0.1, 0.2, 0.3], np.float64)
    trace = ExecutionTrace(blocks=blocks, event_blocks=ids, event_cycles=cycles, quanta=quanta,
                           quantum_length=10)
    for given, kept in ((ids, trace.event_blocks), (cycles, trace.event_cycles), (quanta, trace.quanta)):
        assert np.shares_memory(given, kept)
        assert kept.flags.writeable is False


@pytest.mark.parametrize("make", [
    pytest.param(np.array, id="writable"),
    pytest.param(lambda values, dtype: _locked([*values, 0], dtype)[:-1], id="read-only-view"),
    pytest.param(lambda values, dtype: _locked([*values, *values], dtype)[::2], id="strided-view"),
    pytest.param(lambda values, dtype: list(values), id="list"),
    pytest.param(lambda values, dtype: _locked(values, {np.int64: np.int32, np.float64: np.float32}[dtype]),
                 id="other-dtype"),
    pytest.param(lambda values, dtype: _locked(values, np.dtype(dtype).newbyteorder()), id="byte-swapped"),
])
def test_any_other_column_is_copied(make):
    blocks = {0: BlockDescriptor(0, 0x1000, 10, Terminator.FALLTHROUGH)}
    ids, cycles = make([0, 0, 0], np.int64), make([1.0, 2.0, 3.0], np.float64)
    trace = ExecutionTrace(blocks=blocks, event_blocks=ids, event_cycles=cycles)
    for given, kept, dtype in ((ids, trace.event_blocks, np.int64), (cycles, trace.event_cycles, np.float64)):
        assert not np.shares_memory(given, kept)
        assert kept.dtype == dtype and kept.flags.owndata and kept.flags.writeable is False
        assert kept.tolist() == np.asarray(given).tolist()


def test_parser_and_generator_hand_their_columns_over(monkeypatch):
    given = []
    validate = ExecutionTrace._validate

    def recording(self):
        given.append((self.event_blocks, self.event_cycles, self.quanta))
        validate(self)

    monkeypatch.setattr(ExecutionTrace, "_validate", recording)
    spec = ScenarioSpec([SegmentSpec("a", 1.5, 4, 3), SegmentSpec("b", 2.5, 6, 2)], repetitions=3,
                        quantum_length=7)
    traces = [parse_trace(GOLDEN_SIMPLE), generate(spec)[0]]
    for trace, handed in zip(traces, given, strict=True):
        for column, original in zip((trace.event_blocks, trace.event_cycles, trace.quanta), handed):
            assert column is original  # the parser's quanta, a list it lets the trace copy, are None here
            assert column is None or column.flags.owndata and column.flags.writeable is False
    assert traces[0].quanta is None and traces[1].quanta is not None


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
    with pytest.raises(TraceFormatError, match="must be a finite real number") as exc:
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
    pytest.param("V 1\nB 0 1000 0 F\nE 0 5.0\n", 2, "block 0: instruction_count must be positive",
                 id="zero-instructions"),
    pytest.param("V 1\nB 0 1000 5 F 2000\nE 0 5.0\n", 2,
                 "block 0: target_address present iff terminator is branch or call", id="target"),
    pytest.param("V 1\nB 0 1000 10 F\nE 0\nL 10\nQ 0\n", 5, "malformed quantum record",
                 id="quantum-2-fields"),
    pytest.param("V 1\nB 0 1000 10 F\nE 0\nL\nQ 0 1.5\n", 4, "malformed quantum length record",
                 id="bare-L"),
    # int() and float() take "_" and non-ASCII digits, the format does not
    pytest.param("V 1\nB 1 1000 5 F\nB 10 2000 5 F\nE 1_0 5.0\n", 4, "malformed block id '1_0'",
                 id="block-id-underscore"),
    pytest.param("V 1\nB 1 1000 5 F\nE 1 5_0\n", 3, "malformed cycle count '5_0'",
                 id="cycles-underscore"),
    pytest.param("V 1\nB 1 1000 5 F\nE \uff11 5\n", 3, "malformed block id '\uff11'",
                 id="block-id-fullwidth"),
    pytest.param("V 1\nB 1 1000 5 F\nE \u0661 5\n", 3, "malformed block id '\u0661'",
                 id="block-id-arabic-indic"),
    pytest.param("V 1\nB 0 0 1_0 F\nE 0 5.0\n", 2, "malformed instruction count '1_0'",
                 id="instructions-underscore"),
    pytest.param("V 1\nB 0 1000 10 F\nE 0\nL 10\nQ 0 1_0\n", 5, "malformed quantum cpi '1_0'",
                 id="quantum-cpi-underscore"),
    # the first chunk holds only the header; the second, all E lines, meets
    # an empty block table
    pytest.param("V 1\n" + "\n" * (_CHUNK_LINES - 1) + "E 0 5.0\n" * 10, _CHUNK_LINES + 1,
                 "unknown block 0", id="events-before-blocks"),
    pytest.param("V 1\nB 0 1000 5 F\nE 0 -1.0\n", 3, "cycle count must be non-negative",
                 id="negative-cycles"),
    pytest.param("V 1\nB 0 1000 10 F\nE 0\nL 10\nQ 0 0\n", 5, "quantum cpi must be positive",
                 id="zero-quantum-cpi"),
    pytest.param("V 1\nB 0 1000 10 F\nE 0\nL 10\nQ 0 -1.5\n", 5, "quantum cpi must be positive",
                 id="negative-quantum-cpi"),
    pytest.param("V 1\nB 0 1000 10 F\nE 0\nL 99999999999999999999\nQ 0 1.5\n", 4,
                 "quantum length must be an integer within int64, got 99999999999999999999",
                 id="quantum-length-beyond-int64"),
    # an index beyond int64 is never the next one
    pytest.param("V 1\nB 0 1000 10 F\nE 0\nL 10\nQ 9223372036854775808 1.5\n", 5,
                 "quantum indices must be contiguous from 0 (got 9223372036854775808 at 0)",
                 id="quantum-index-beyond-int64"),
])
def test_rejected_record_names_its_line(text, line, message):
    with pytest.raises(TraceFormatError, match=re.escape(f"line {line}: {message}")) as exc:
        parse_trace(text)
    assert exc.value.line == line


#: tokens put in place of one numeric field of a valid trace
BAD_NUMBERS = ["nan", "inf", "-1", "0", "1_0", "x", "9223372036854775808"]
#: the errors about the trace as a whole, which name no line
WHOLE_TRACE_ERRORS = ("quantum count mismatch", "instruction counts too large",
                      "cycle counts too large", "quantum cpis too large", "mixed-mode violation")


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bad=st.sampled_from(BAD_NUMBERS), pick=st.integers(0, 2**16))
def test_a_bad_number_fails_on_its_own_line_or_on_the_whole_trace(seed, bad, pick):
    rng = np.random.default_rng(seed)
    ids = list(range(1, int(rng.integers(2, 5))))  # never 0 or -1, which a bad token can declare
    blocks = {b: BlockDescriptor(b, 0x100 * b, int(rng.integers(1, 6)),
                                 Terminator.CALL if b % 2 else Terminator.FALLTHROUGH,
                                 0x40 if b % 2 else None) for b in ids}
    events = rng.choice(ids, int(rng.integers(1, 8)))
    cycles = rng.uniform(0.5, 9.0, events.size)
    cycles[rng.random(events.size) < 0.5] = np.nan  # E lines with and without a cycle count
    length = int(rng.integers(1, 10))
    total = sum(blocks[b].instruction_count for b in events.tolist())
    trace = ExecutionTrace(blocks=blocks, event_blocks=events, event_cycles=cycles,
                           quanta=rng.uniform(0.5, 3.0, -(-total // length)), quantum_length=length)
    lines = serialize_trace(trace).splitlines()
    # every field of a B, E, L or Q line but its kind and a block's terminator
    numeric = [(at, f) for at, text in enumerate(lines) if text[0] != "V"
               for f in range(1, len(text.split())) if (text[0], f) != ("B", 4)]
    at, f = numeric[pick % len(numeric)]
    fields = lines[at].split()
    old, fields[f] = fields[f], bad
    lines[at] = " ".join(fields)
    line = at + 1
    if fields[0] == "B" and f == 1 and bad in ("0", "-1"):
        # the block is declared under a new id: its first event names an unknown block
        line = next((i + 1 for i, text in enumerate(lines) if text.split()[:2] == ["E", old]), None)
    try:
        parse_trace("\n".join(lines) + "\n")
    except TraceFormatError as exc:
        if exc.line is None:
            assert str(exc).startswith(WHOLE_TRACE_ERRORS), str(exc)
        else:
            assert exc.line == line, str(exc)


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


def _block_columns(*fields):
    return dict(blocks={0: BlockDescriptor(*fields)}, event_blocks=[0], event_cycles=[1.0])


def one_block(*fields):
    """Columns of one event of a block made of fields, built when called."""
    return partial(_block_columns, *fields)


def with_columns(**columns):
    """Columns of one event of ONE_BLOCK, updated with those given."""
    return partial(dict, dict(blocks=ONE_BLOCK, event_blocks=[0], event_cycles=[1.0]), **columns)


@pytest.mark.parametrize("columns, message", [
    (with_columns(blocks={}), "trace declares no blocks"),
    (with_columns(blocks={1: ONE_BLOCK[0]}), "block table key 1 != id 0"),
    (one_block(2**63, 0x1000, 10, Terminator.FALLTHROUGH),
     "block 9223372036854775808: block_id must be an integer within int64, got 9223372036854775808"),
    (with_columns(event_blocks=[0, 0]), "event columns must be 1-D and of equal length"),
    (with_columns(event_blocks=[[0]], event_cycles=[[1.0]]),
     "event columns must be 1-D and of equal length"),
    (with_columns(event_blocks=[0, 7], event_cycles=[1.0, 1.0]), "unknown block 7 (event 1)"),
    (with_columns(event_blocks=[0, 0], event_cycles=[1.0, -1.0]), "event 1: negative cycle count"),
    (with_columns(quanta=[1.5]), "quantum records and quantum length must coexist"),
    (with_columns(quantum_length=10), "quantum records and quantum length must coexist"),
    (with_columns(quanta=[1.5], quantum_length=0), "quantum_length must be positive"),
    # a column is refused, not converted, when numpy would change what it holds
    (with_columns(event_blocks=[0.7, 1.2], event_cycles=[1.0, 1.0]),
     "event_blocks must hold integers, got float"),
    (with_columns(event_blocks=["1", "0"], event_cycles=[1.0, 1.0]),
     "event_blocks must hold integers, got str"),
    (with_columns(event_blocks=[True, 0], event_cycles=[1.0, 1.0]),
     "event_blocks must hold integers, got bool"),
    (with_columns(event_blocks=np.array([2**64 - 1], dtype=np.uint64)),
     "event_blocks must hold integers within int64"),
    (with_columns(event_blocks=[2**63]), "event_blocks must hold integers within int64"),
    (with_columns(event_blocks=[0, 0], event_cycles=["1.0", "2"]),
     "event_cycles must hold real numbers, got str"),
    (with_columns(event_blocks=[0, 0], event_cycles=np.array([True, False])),
     "event_cycles must hold real numbers, got bool"),
    (with_columns(quanta=["1.5", True], quantum_length=5),
     "quanta must hold real numbers, got bool, str"),
    (with_columns(event_cycles=[10**400]), "event_cycles must hold real numbers within float64"),
    (with_columns(quanta=[1.5], quantum_length=2**63),
     "quantum_length must be an integer within int64, got 9223372036854775808"),
    # a block the writer could not print, or its parser read back
    (one_block(0, 0x1000, 2.5, Terminator.FALLTHROUGH),
     "block 0: instruction_count must be an integer, got 2.5"),
    (one_block(0, 0x1000, True, Terminator.FALLTHROUGH),
     "block 0: instruction_count must be an integer, got True"),
    (one_block(0, 16.0, 10, Terminator.FALLTHROUGH), "block 0: addresses must be non-negative integers"),
    (one_block(0, 0x1000, 10, Terminator.BRANCH, True),
     "block 0: addresses must be non-negative integers"),
    (one_block(0.0, 0x1000, 10, Terminator.FALLTHROUGH),
     "block 0.0: block_id must be an integer, got 0.0"),
    (one_block(0, 0x1000, 10, "F"), "block 0: terminator must be a Terminator, got 'F'"),
    # the first negative count is named, even after an infinite one
    (with_columns(event_blocks=[0, 0, 0], event_cycles=[np.inf, 2.0, -1.0]),
     "event 2: negative cycle count"),
    (with_columns(event_blocks=[0, 0, 0], event_cycles=[np.nan, np.inf, -np.inf],
                  quanta=[1.5, 1.5, 1.5], quantum_length=10), "event 2: negative cycle count"),
])
def test_constructor_rejects_columns_the_parser_never_builds(columns, message):
    with pytest.raises(TraceFormatError, match=re.escape(message)) as exc:
        ExecutionTrace(**columns())
    assert exc.value.line is None


INTEGER_TYPES = [int, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
NUMBER_TYPES = INTEGER_TYPES + [float, np.float16, np.float32, np.float64]


def holds(kind, value):
    """Whether kind holds value: an integer type only an integer within its range."""
    if issubclass(kind, np.integer):
        info = np.iinfo(kind)
        return isinstance(value, int) and info.min <= value <= info.max
    return kind is not int or isinstance(value, int)


def typed(data, value, types=NUMBER_TYPES):
    """value as a Python or numpy number of a type drawn from those that hold it."""
    return data.draw(st.sampled_from([kind for kind in types if holds(kind, value)]))(value)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n_blocks=st.integers(1, 4), n_events=st.integers(1, 12),
       golden=st.booleans(), with_quanta=st.booleans(), as_array=st.booleans())
def test_a_trace_the_constructor_accepts_survives_the_text_format(
        data, n_blocks, n_events, golden, with_quanta, as_array):
    ids = data.draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n_blocks, max_size=n_blocks,
                             unique=True))
    if data.draw(st.integers(0, 4)) == 0:
        # an id past int64, as a uint64 or a Python int, must be refused, not wrapped
        ids[0] = data.draw(st.integers(2**63, 2**64 - 1).filter(lambda b: b not in ids))
    counts = [data.draw(st.integers(1, 200)) for _ in ids]
    events = data.draw(st.lists(st.sampled_from(ids), min_size=n_events, max_size=n_events))
    with_quanta = with_quanta or not golden
    # cycles within float16's range; NaN where quanta stand in for them
    cycles = [typed(data, data.draw(st.one_of(st.integers(0, 60000), st.floats(0, 60000))))
              if golden or data.draw(st.booleans()) else math.nan for _ in events]
    if not golden and not any(math.isnan(c) for c in cycles):
        cycles[0] = math.nan
    length = quanta = None
    if with_quanta:
        length = data.draw(st.integers(1, 300))
        total = sum(counts[ids.index(b)] for b in events)
        quanta = [typed(data, data.draw(st.floats(0.01, 100))) for _ in range(-(-total // length))]
        length = typed(data, length, INTEGER_TYPES)

    def build():
        typed_ids = [typed(data, b, INTEGER_TYPES) if -(2**63) <= b < 2**63 else b for b in ids]
        blocks = {bid: BlockDescriptor(bid, 0x1000 + 0x40 * i, typed(data, count, INTEGER_TYPES),
                                       Terminator.FALLTHROUGH)
                  for i, (bid, count) in enumerate(zip(typed_ids, counts))}
        dtypes = [kind for kind in INTEGER_TYPES[1:] if holds(kind, min(events)) and holds(kind, max(events))]
        if as_array and dtypes:
            column = np.array(events, dtype=data.draw(st.sampled_from(dtypes)))
        else:
            column = [typed(data, b, INTEGER_TYPES) for b in events]
        return ExecutionTrace(blocks=blocks, event_blocks=column,
                              event_cycles=cycles, quanta=quanta, quantum_length=length)

    if not all(-(2**63) <= b < 2**63 for b in ids):
        with pytest.raises(TraceFormatError, match="within int64"):
            build()
        return
    trace = build()
    back = parse_trace(serialize_trace(trace))
    assert back.blocks == trace.blocks
    assert_same_columns(back, trace)
    assert back.event_blocks.tolist() == events
    np.testing.assert_array_equal(back.quanta, trace.quanta)
    assert back.quantum_length == trace.quantum_length


def test_constructor_counts_quanta_with_the_exact_ceiling():
    # (2**60 + 1) / 2**59 rounds to 2.0 in float64; the ceiling is 3
    blocks = {0: BlockDescriptor(0, 0x1000, 2**60, Terminator.FALLTHROUGH),
              1: BlockDescriptor(1, 0x2000, 1, Terminator.FALLTHROUGH)}
    columns = dict(blocks=blocks, event_blocks=[0, 1], event_cycles=[math.nan] * 2, quantum_length=2**59)
    assert ExecutionTrace(**columns, quanta=[1.5] * 3).quanta.size == 3
    with pytest.raises(TraceFormatError, match=re.escape(f"expected ceil({2**60 + 1}/{2**59}) = 3")):
        ExecutionTrace(**columns, quanta=[1.5] * 2)


@pytest.mark.parametrize("value, kind", [
    (np.float32(3.4e38), Real), (np.float16(1.5), Real), (Fraction(1, 3), Real), (2**1023, Real),
    (np.int8(-3), Integral), (np.uint64(2**63 - 1), Integral), (2**63 - 1, Integral), (-(2**63), Integral),
])
def test_check_number_takes_numbers_of_any_type_without_a_warning(value, kind):
    check_number("x", value, kind)  # a numpy warning fails the test


@pytest.mark.parametrize("value, kind, sign, message", [
    (True, Integral, "", "x must be an integer, got True"),
    (2.0, Integral, "", "x must be an integer, got 2.0"),
    (np.uint64(2**64 - 1), Integral, "", "x must be an integer within int64, got "),
    (-(2**63) - 1, Integral, "", f"x must be an integer within int64, got {-(2**63) - 1}"),
    (10**400, Real, "", "x must be a finite real number, got 1000"),
    (Fraction(10**400, 3), Real, "", "x must be a finite real number, got Fraction("),
    (np.float32("inf"), Real, "", "x must be a finite real number, got "),
    (False, Real, "", "x must be a finite real number, got False"),
    ("1", Real, "", "x must be a finite real number, got '1'"),
    (0, Integral, "positive", "x must be positive"),
    (-0.5, Real, "non-negative", "x must be non-negative"),
])
def test_check_number_names_what_it_refuses(value, kind, sign, message):
    with pytest.raises(ScenarioError) as exc:
        check_number("x", value, kind, ScenarioError, sign)
    assert str(exc.value).startswith(message)


def test_constructor_rejects_non_finite_values():
    blocks = {0: BlockDescriptor(0, 0x1000, 10, Terminator.FALLTHROUGH)}
    with pytest.raises(TraceFormatError, match="event 1: non-finite cycle count"):
        ExecutionTrace(blocks=blocks, event_blocks=[0, 0], event_cycles=[1.0, np.inf])
    with pytest.raises(TraceFormatError, match="quantum 0: non-finite cpi"):
        ExecutionTrace(blocks=blocks, event_blocks=[0], event_cycles=[np.nan],
                       quanta=[np.nan], quantum_length=10)


TWO_BLOCKS = {b: BlockDescriptor(b, 0x10 * b, 1, Terminator.FALLTHROUGH) for b in (0, 1)}
SUM_TOO_LARGE = "cycle counts too large: their sum overflows float64"


@pytest.mark.parametrize("columns, message", [
    pytest.param(dict(event_blocks=[0, 0, 1], event_cycles=[1e308, 1e308, 1.0]), SUM_TOO_LARGE,
                 id="one-block"),
    # each block's CPI is finite; the prefix sums behind node means are not
    pytest.param(dict(event_blocks=[0, 1, 1], event_cycles=[1e308, 1e308, 1.0]), SUM_TOO_LARGE,
                 id="two-blocks"),
    pytest.param(dict(event_blocks=[0, 1] * 6, event_cycles=[math.nan] * 12,
                      quanta=[1e308, 1e308], quantum_length=10),
                 "quantum cpis too large: the largest times the trace's instruction count "
                 "overflows float64", id="quanta"),
])
def test_cycle_sums_beyond_float64_are_rejected(columns, message):
    with pytest.raises(TraceFormatError, match=re.escape(message)) as exc:
        ExecutionTrace(blocks=TWO_BLOCKS, **columns)
    assert exc.value.line is None


def test_cycle_sums_at_the_float64_limit_are_accepted():
    trace = parse_trace("V 1\nB 0 0 1 F\nE 0 1e308\nE 0 7e307\nL 2\nQ 0 8e307\n")
    assert trace.total_instructions == 2


@pytest.mark.parametrize("text, line, message", [
    ("V 1\nB 9223372036854775808 1000 5 F\nE 0 5.0\n", 2,
     "block 9223372036854775808: block_id must be an integer within int64"),
    ("V 1\nB 0 1000 5 F\nE -9223372036854775809 5.0\n", 3, "unknown block -9223372036854775809"),
    ("V 1\nB 0 1000 99999999999999999999 F\nE 0 5.0\n", 2,
     "block 0: instruction_count must be an integer within int64"),
])
def test_decimal_fields_outside_int64_rejected_with_line(text, line, message):
    with pytest.raises(TraceFormatError, match=message) as exc:
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
    ("E 0 nan", "cycle count must be a finite real number, got nan"),
    ("E 0 -inf", "cycle count must be a finite real number, got -inf"),
    ("E x 1.0", "malformed block id"),
    ("E 0 1.0e", "malformed cycle count"),
    ("E 0 1.0 2", "malformed event record"),
    ("E", "malformed event record"),
    ("E 99 1.0", "unknown block 99"),
    ("E 9223372036854775808 1.0", "unknown block 9223372036854775808"),
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
                                 "E 1\u30005.0", "E \u0663 5.0", "E\t1 5.0", "E 1 -5.0", "E -0 5.0",
                                 "E 1 5e-5-", "E 1 5,0", 'E "1" 5.0', "E [1] 5.0", "E 1 null",
                                 "E 1 5.0 # c", "E 1 0x10", "E 1 5.0\x00"])
@pytest.mark.parametrize("as_file", [False, True])
def test_event_runs_holding_off_list_characters_never_reach_orjson(monkeypatch, odd, as_file):
    """A run holding a non-ASCII character, an ASCII one that is no part
    of a JSON number, a space or a newline, or a sign but an exponent's,
    goes to the line loop before orjson reads any of it."""
    import orjson

    payloads = []
    loads = orjson.loads
    monkeypatch.setattr(orjson, "loads", lambda data: payloads.append(data) or loads(data))
    text = "V 1\nB 1 1000 4 F\n" + "E 1 5.0\n" * 3 + odd + "\n" + "E 1 5.0\n" * 3
    assert_parses_as_the_line_loop(text, as_file)
    assert payloads == []


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

#: spellings that int() and float() accept; some of them JSON reads too
GOOD_SEPARATORS = [" ", " ", "\t", "\xa0", "  ", "\u3000", " \x0b", "\x1c"]
GOOD_IDS = ["1", "+1", "003", "-0", "3"]
#: among them a 55-digit halfway case (rounds to even, 0.5), the edges of
#: the subnormals and of float64, and ints past 2**53 and uint64
GOOD_CYCLES = ["5.0", "+5", "007", ".5", "5.", "1E3", "-0.0", "0", "2.5e-3", "5e0", "1e+05",
               "1E+3", "1e-320", "2.4703282292062328e-324", "2.4703282292062327e-324",
               "1.7976931348623157e308", "9007199254740993", "18446744073709551616",
               "0.500000000000000055511151231257827021181583404541015625"]
#: tokens that one or both reject, or that change the line's meaning; among
#: them spellings JSON reads otherwise than int() and float() (or at all)
BAD_TOKENS = ["EX", "E\x00", "e", "1_0", "\u0663", "5.0", "0x10", "9", "99999999999999999999",
              "1#", "nan", "inf", "1e400", "-1", "2.5#c", "#", "",
              "-0", "5,0", '"5"', "null", "[1]", "5e0", "9223372036854775808", "18446744073709551615",
              "1.7976931348623159e308", "xxx", "E"]
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


def test_an_inf_from_the_json_reader_falls_back_to_the_line_loop(monkeypatch):
    """orjson refuses 1e400, while the standard library's reader gives inf:
    read with it, the run is left to the line loop, which names the line."""
    import json

    import orjson

    monkeypatch.setattr(orjson, "loads", json.loads)
    events = [f"E {i % 4} {1.0 + i % 7 / 8!r}" for i in range(2 * _CHUNK_LINES)]
    events[_CHUNK_LINES + 100] = "E 1 1e400"
    text = "V 1\n" + "".join(f"B {b} {0x1000 + 0x40 * b:x} 4 F\n" for b in range(4))
    line = 6 + _CHUNK_LINES + 100  # after the version line and 4 blocks
    message = "cycle count must be a finite real number, got inf"
    with pytest.raises(TraceFormatError, match=f"^line {line}: {message}$"):
        parse_trace(text + "\n".join(events) + "\n")


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


@pytest.mark.parametrize("pair", [
    ("E 1 5.0 7", "E 2"), ("E 2", "E 1 5.0 7"), ("E 1 5.0 E", "2 5.0"), ("E 1 5.0 ", "2 5.0"),
    ("E 1 5.0", "xxxE 2 5.0"), ("E 1 5.0 5.0 5.0", "E"), ("E 1", "E 2 5.0"),
])
@pytest.mark.parametrize("as_file", [False, True])
def test_lines_of_other_lengths_side_by_side_parse_as_the_line_loop(pair, as_file):
    """Two lines deep in a full chunk whose fields add up to two lines of
    the chunk's width (a 3-field line next to a 1-field line) parse, or
    fail, as in the line loop."""
    events = [f"E {i % 4} {1.0 + i % 7 / 8!r}" for i in range(2 * _CHUNK_LINES)]
    events[_CHUNK_LINES + 100:_CHUNK_LINES + 102] = pair
    text = "V 1\n" + "".join(f"B {b} {0x1000 + 0x40 * b:x} 4 F\n" for b in range(4))
    assert_parses_as_the_line_loop(text + "\n".join(events) + "\n", as_file)


@pytest.mark.parametrize("odd", [["E 1 5.0\nE 2 5.0\n", "E 3 ", "5.0\n"], ["E 1 \n5.0\n"], ["E 1 5.0"],
                                 ["E 1 5.0\n\n", "", "E 2 5.0\n"], ["E 1 5.0\nxxxE 2 5.0\n", ""]])
def test_iterables_of_lines_holding_newlines_parse_as_the_line_loop(odd):
    """An iterable may hand over lines holding no newline or several, in a
    full chunk of lines that end with one: they parse, or fail, as in the
    line loop."""
    lines = ["V 1\n"] + [f"B {b} {0x1000 + 0x40 * b:x} 4 F\n" for b in range(4)]
    events = [f"E {i % 4} 5.0\n" for i in range(2 * _CHUNK_LINES)]
    events[_CHUNK_LINES + 100:_CHUNK_LINES + 100 + len(odd)] = odd
    assert_parses_as_the_line_loop(lines + events)


def halfway_text(x):
    """The exact decimal halfway between float64 x and the next one up,
    in positional notation."""
    mid = (Fraction(x) + Fraction(float(np.nextafter(x, math.inf)))) / 2
    digits = mid.denominator.bit_length() - 1  # 2**-d has d decimals
    text = str(mid.numerator * 5**digits).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}" if digits else text


@st.composite
def cycle_texts(draw):
    """A non-negative cycle count as the writer (repr), %.17g, %.25f, the
    halfway decimal between two floats or an integer spells it."""
    spelling = draw(st.sampled_from(["repr", "17g", "25f", "halfway", "int"]))
    if spelling == "int":
        return str(draw(st.integers(0, 10**30)))
    x = abs(draw(st.floats(0.0, float(np.nextafter(np.finfo(float).max, 0)))))
    spell = {"repr": repr, "17g": "%.17g".__mod__, "25f": "%.25f".__mod__, "halfway": halfway_text}
    return spell[spelling](x)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(st.one_of(st.integers(0, 2**63 - 1), st.integers(2**63 - 2, 2**64 + 2)),
                               cycle_texts()), min_size=1, max_size=30),
       with_cycles=st.booleans(), split=st.booleans())
def test_converted_columns_are_int_and_float_of_each_field(rows, with_cycles, split):
    """The fast path's columns equal int() and float() of each field byte
    for byte, for ids inside int64 and cycle counts in every spelling
    above; an id past int64 sends the run to the line loop. pyproject.toml
    asks only for orjson>=3.8: this pins the reader of the orjson
    installed."""
    lines = [f"E {bid} {cycles}" if with_cycles else f"E {bid}" for bid, cycles in rows]
    ids = [bid for bid, _ in rows]
    known = np.array(sorted({bid for bid in ids if bid < 2**63}), dtype=np.int64)
    columns = trace_module._event_columns(lines if split else [line + "\n" for line in lines], known)
    if max(ids) >= 2**63:
        assert columns is None  # the line loop reads it, and names the unknown block
        return
    want_cycles = [float(cycles) for _, cycles in rows] if with_cycles else [math.nan] * len(rows)
    assert columns[0].tobytes() == np.array(ids, dtype=np.int64).tobytes()
    assert columns[1].tobytes() == np.array(want_cycles).tobytes()


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


def fixed_trace(ids, events, cycles):
    """Trace of blocks ids (10 instructions each) executing events with cycles."""
    blocks = {b: BlockDescriptor(b, 0x40 * i, 10, Terminator.FALLTHROUGH) for i, b in enumerate(ids)}
    return ExecutionTrace(blocks=blocks, event_blocks=events, event_cycles=cycles)


def tiny_cycles(rng):
    """Signed zeros, subnormals and the smallest normals among ordinary counts."""
    cycles = rng.uniform(0.5, 9.0, 600)
    cycles[::5] = [-0.0, 0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308] * 24
    return fixed_trace([0, 1], rng.integers(0, 2, 600), cycles)


EXTREME_IDS = [-(2**63), -(2**63) + 1, -5, -1, 2**63 - 2, 2**63 - 1]


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
    "negative and int64-extreme ids": lambda rng: fixed_trace(
        EXTREME_IDS, rng.choice(EXTREME_IDS, 600), rng.uniform(0.5, 9.0, 600)),
    "signed zeros and subnormals": tiny_cycles,
    "a block that never runs": lambda rng: fixed_trace(
        [0, 1, 2], rng.choice([0, 2], 600), rng.uniform(0.5, 9.0, 600)),
    "one event": lambda rng: fixed_trace([3], [3], [2.5]),
    "only the first cycles missing": lambda rng: with_missing_cycles(
        random_trace(rng, 3000, quanta=True), [0]),
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_serialize_matches_the_per_event_writer(case):
    trace = WRITER_CASES[case](np.random.default_rng(23))
    text = serialize_trace(trace)
    assert text == reference_serialize(trace)
    assert_same_columns(parse_trace(text), trace)


def with_quanta(trace, length):
    """trace with quantum records of length instructions each."""
    count = -(-trace.total_instructions // length)
    cpis = np.random.default_rng(length).uniform(0.1, 5.0, count)
    return ExecutionTrace(blocks=trace.blocks, event_blocks=trace.event_blocks,
                          event_cycles=trace.event_cycles, quanta=cpis, quantum_length=length)


#: traces whose events and quanta span several writer chunks of SHORT_CHUNK lines
CHUNKED_CASES = {
    "several chunks": lambda rng: random_trace(rng, 5 * SHORT_CHUNK + 3),
    "missing cycles at a chunk edge": lambda rng: with_missing_cycles(
        random_trace(rng, 3 * SHORT_CHUNK, quanta=True), [SHORT_CHUNK - 1, SHORT_CHUNK]),
    "quanta": lambda rng: with_quanta(random_trace(rng, 3 * SHORT_CHUNK, golden=False, quanta=True), 7),
}


@pytest.mark.parametrize("case", sorted(CHUNKED_CASES))
def test_save_trace_writes_the_serialized_text_in_chunks(case, tmp_path):
    trace = CHUNKED_CASES[case](np.random.default_rng(29))
    path = tmp_path / "chunked.trace"
    with mock.patch.object(trace_module, "_CHUNK_EVENTS", SHORT_CHUNK):
        pieces = list(trace_module._trace_chunks(trace))
        save_trace(trace, path)
        text = serialize_trace(trace)
    assert path.read_bytes() == text.encode() == reference_serialize(trace).encode()
    assert max(piece.count("\n") for piece in pieces[1:]) <= SHORT_CHUNK
    assert len(pieces) >= 4


def test_save_trace_never_holds_the_whole_text(tmp_path):
    trace = random_trace(np.random.default_rng(31), 100_000)
    size = len(serialize_trace(trace))
    tracemalloc.start()
    try:
        with mock.patch.object(trace_module, "_CHUNK_EVENTS", 4096):
            save_trace(trace, tmp_path / "large.trace")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "large.trace").stat().st_size == size
    assert peak < size / 4
