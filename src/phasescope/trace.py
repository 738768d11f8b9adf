"""Basic-block trace data model and the line-based text format.

A trace file lists the static block table followed by the dynamic event
stream, one record per line:

    V 1                                   version header, required first
    B <id> <addr_hex> <instrs> <F|B|C|R> [<target_hex>]
    E <block_id> [<cycles>]               dynamic event, execution order
    Q <quantum_index> <cpi>               quantum CPI sample
    L <quantum_length>                    instructions per quantum, positive;
                                          at most one L record

``#`` starts a comment. A trace is "golden" when every event carries a
cycle count, and "quantum" when Q/L records are present; at least one of
the two must hold (both is fine for validation traces). Decimal fields
are ASCII, without ``_``, and must fit in a signed 64-bit integer; cycle
counts must be finite and non-negative, with a finite float64 sum, quantum
CPIs finite and positive, the largest times the instruction count finite,
block addresses non-negative and block start addresses distinct. Addresses
are bare lowercase hex without leading zeros (``0``, ``1a0``), as the
writer prints them. The parser checks the decimal fields with
``check_number``, the one rule for numbers from outside (a block's fields
in ``BlockDescriptor``; an event's block id and a quantum index need only
match a declared block or the next index), and names the failing line in
one place: every check in its line loop raises without a line, and the
loop's one handler adds it.

In memory the event stream is two numpy columns, block ids and cycle
counts, built and validated once; validation adds a third, the prefix sums
of the events' instruction counts, which every later stage reads. An
event's own count is the difference of two consecutive prefix sums.
Every column of a trace is read-only. The trace adopts a column that
already is a 1-D, C-contiguous, read-only int64 or float64 array owning
its memory, as the parser and the synthesizer hand theirs over, and copies
any other; whoever hands a column over keeps no writable view of it and
never makes it writable again.
The quantum CPIs are one more column, indexed by quantum number; the
parser checks that ``Q`` records come in index order 0, 1, 2, ... and names
the line of the first one that does not.

The parser reads lines in fixed-size chunks and cuts a chunk that holds
other records (the block table, the ``Q`` and ``L`` records) into runs of
lines that start with ``E`` and runs of other lines. A run of ``E`` lines is
rewritten as one flat JSON array, a null where each line starts and then
its fields, and converted by one ``orjson.loads`` call (see
_event_columns). Any other run goes through the line-by-line loop, and so
does a run that is not ASCII, holds a byte other than those of JSON
numbers, single spaces and newlines (a tab, a comment), a sign other than
an exponent's (``-0``) or whose values fail a check (a line of another width, an id that is not an
int within int64, an unknown block): the loop gives the same columns and
names the offending line.

The writer prints every float as repr() does (the shortest digits that
read back to the same float64), and formats a whole column at once:
``float_reprs`` has orjson write the column's shortest digits in native
code, then gives repr()'s own text to the few values outside repr()'s
positional range (nonzero ``|x| < 1e-4``, ``|x| >= 1e16``), where the two
spell the exponent differently. An event line is then the text
``"E <id> "``, built once per declared block, the value's text and a
newline, and the lines of a chunk are joined in one step, so every byte
equals what per-event repr() gives. The writer works through the events in
chunks of a fixed size: ``save_trace`` writes each chunk's text as it is
built, and ``serialize_trace`` joins the same chunks.
The CSV writers use ``float_reprs`` too; the phase tree and marker JSON
writers apply the same range rule to whole payloads
(``phases._indented_json``).
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field
from itertools import groupby, islice
from numbers import Integral, Real
from typing import Iterable, Iterator, Optional, Union

import numpy as np


class TraceFormatError(ValueError):
    """A trace stream violates the text format or a model invariant."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Terminator(enum.Enum):
    FALLTHROUGH = "F"
    BRANCH = "B"
    CALL = "C"
    RETURN = "R"


#: terminator kinds that must carry a target address
_TARGETED = (Terminator.BRANCH, Terminator.CALL)


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def check_number(what: str, value, kind: type, error: type = ValueError, sign: str = "") -> Real:
    """The one check on a number from outside the program: with kind
    Integral, an integer that fits in int64 (the range of every integer
    column and decimal field of the text format); with kind Real, a real
    number finite as a float64; a bool is neither. sign "positive" or
    "non-negative" asks for that sign too. Raises error naming what, else
    returns the value, an integer as a Python int (no product of it wraps)."""
    try:
        # builtin types first: an ABC's isinstance costs some 20 times more
        ok = isinstance(value, (int, float, kind) if kind is Real else (int, kind)) and (
            not isinstance(value, bool) and (kind is Integral or math.isfinite(value)))
    except OverflowError:  # math.isfinite on an int or a Fraction beyond float64
        ok = False
    if not ok:
        raise error(f"{what} must be {'an integer' if kind is Integral else 'a finite real number'}, "
                    f"got {value!r}")
    if kind is Integral and not _INT64_MIN <= int(value) <= _INT64_MAX:
        raise error(f"{what} must be an integer within int64, got {value!r}")
    if sign and not (value > 0 if sign == "positive" else value >= 0):
        raise error(f"{what} must be {sign}")
    return int(value) if kind is Integral else value


@dataclass(frozen=True)
class BlockDescriptor:
    """Static description of one basic block, identified by its first
    instruction address (block_id is a compact alias for that address)."""

    block_id: int
    start_address: int
    instruction_count: int
    terminator: Terminator
    target_address: Optional[int] = None

    def __post_init__(self):
        block = f"block {self.block_id}"
        check_number(f"{block}: block_id", self.block_id, Integral, TraceFormatError)
        check_number(f"{block}: instruction_count", self.instruction_count, Integral, TraceFormatError,
                     "positive")
        # of any size: the parser reads hex addresses of any length
        for address in (self.start_address, 0 if self.target_address is None else self.target_address):
            if not isinstance(address, (int, Integral)) or isinstance(address, bool) or address < 0:
                raise TraceFormatError(f"{block}: addresses must be non-negative integers")
        if not isinstance(self.terminator, Terminator):
            raise TraceFormatError(f"{block}: terminator must be a Terminator, got {self.terminator!r}")
        has_target = self.target_address is not None
        if has_target != (self.terminator in _TARGETED):
            raise TraceFormatError(
                f"{block}: target_address present iff "
                f"terminator is branch or call"
            )


def _column(name: str, values, kind: type) -> np.ndarray:
    """A read-only int64 (kind Integral) or float64 (kind Real) array of
    values. An ndarray that already is one, 1-D, C-contiguous and owning
    its memory, is adopted as it is; anything else is copied, after the checks
    numpy's conversion would skip: TraceFormatError naming the column when
    an element is not of kind (a bool or a string never is), an integer
    does not fit in int64 or a number overflows float64. NaN is a real
    number; the caller checks the shape."""
    dtype = np.int64 if kind is Integral else np.float64
    if (type(values) is np.ndarray and values.dtype == dtype and values.ndim == 1
            and values.flags.c_contiguous and values.flags.owndata and not values.flags.writeable):
        return values  # no one can write to it any more: no copy is needed
    column = np.asarray(values)
    # a list's dtype hides what it held: [True, 0] and [1, 0] convert alike
    listed = column.ndim == 1 and not isinstance(values, np.ndarray)
    types = set(map(type, values)) if listed else {column.dtype.type}
    wrong = sorted(t.__name__ for t in types if issubclass(t, bool) or not issubclass(t, kind))
    if wrong:
        noun = "integers" if kind is Integral else "real numbers"
        raise TraceFormatError(f"{name} must hold {noun}, got {', '.join(wrong)}")
    if kind is Integral:
        if listed:  # numpy makes a float64 array of mixed widths ([uint64, int8])
            column = np.asarray(list(map(int, values)))
        # ints past int64 make a uint64, float64 or object array
        if column.size and (column.dtype.kind not in "iu" or column.dtype.kind == "u"
                            and column.max() > _INT64_MAX):
            raise TraceFormatError(f"{name} must hold integers within int64")
    try:
        column = np.array(column, dtype=dtype)
    except OverflowError:  # an int or a Fraction beyond float64
        raise TraceFormatError(f"{name} must hold real numbers within float64") from None
    column.flags.writeable = False
    return column


def positions_in(sorted_ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index of each value in the ascending id array; -1 where it is absent.

    Block ids come from the input and may be negative or huge, so they are
    looked up by binary search, never used as table indices.
    """
    if sorted_ids.size == 0:
        return np.full(values.shape, -1, dtype=np.intp)
    slot = np.searchsorted(sorted_ids, values)
    # misses are marked in place, so no third array of the values' size is made
    np.putmask(slot, np.take(sorted_ids, slot, mode="clip") != values, -1)
    return slot


@dataclass(eq=False)
class ExecutionTrace:
    """Validated trace: block table, event columns, optional quantum column.

    Three event columns are stored. event_blocks[e] (int64) is the block
    event e executed and event_cycles[e] (float64) its cycle count, NaN when
    the event carries none. Validation adds event_starts (int64, length
    E+1), the prefix sums of the executed blocks' instruction counts: event
    e covers instructions [event_starts[e], event_starts[e+1]), so
    np.diff(event_starts) gives each event's count. quanta[q] (float64),
    when present, is the measured CPI of instructions
    [q * quantum_length, (q + 1) * quantum_length).

    Every column is read-only. A column given as a 1-D, C-contiguous,
    read-only int64 or float64 array that owns its memory (what parse_trace
    and generate hand over) is adopted without a copy: the caller keeps no
    writable view of it and must not make it writable again. Any other
    column is copied, refusing one whose conversion would change what it
    holds (see _column); do not change the block table after construction
    either. Safe to share across readers.
    """

    blocks: dict[int, BlockDescriptor]
    event_blocks: np.ndarray
    event_cycles: np.ndarray
    quanta: Optional[np.ndarray] = None
    quantum_length: Optional[int] = None
    event_starts: np.ndarray = field(init=False, repr=False)
    is_golden: bool = field(init=False)
    total_instructions: int = field(init=False)

    def __post_init__(self):
        self._validate()

    def _validate(self):
        if not self.blocks:
            raise TraceFormatError("trace declares no blocks")
        addresses = set()
        for bid, block in self.blocks.items():
            if bid != block.block_id:
                raise TraceFormatError(f"block table key {bid} != id {block.block_id}")
            if block.start_address in addresses:
                raise TraceFormatError(
                    f"duplicate start_address {block.start_address:#x}"
                )
            addresses.add(block.start_address)
        # each block checked its id and instruction count against int64
        ids = np.array(sorted(self.blocks), dtype=np.int64)
        counts = np.array(
            [self.blocks[b].instruction_count for b in ids.tolist()], dtype=np.int64
        )
        events = self.event_blocks = _column("event_blocks", self.event_blocks, Integral)
        cycles = self.event_cycles = _column("event_cycles", self.event_cycles, Real)
        if events.ndim != 1 or cycles.shape != events.shape:
            raise TraceFormatError("event columns must be 1-D and of equal length")

        slot = positions_in(ids, events)
        unknown = np.flatnonzero(slot < 0)
        if unknown.size:
            i = int(unknown[0])
            raise TraceFormatError(f"unknown block {int(events[i])} (event {i})")
        missing = np.isnan(cycles)
        golden = self.is_golden = not missing.any()
        with np.errstate(over="ignore", invalid="ignore"):
            # np.nansum's sum, NaN read as 0; an infinite count makes it non-finite
            cycle_sum = np.add.reduce(cycles if golden else np.where(missing, 0.0, cycles))
        if not math.isfinite(cycle_sum) or (cycles < 0).any():
            negative = np.flatnonzero(cycles < 0)
            if negative.size:
                raise TraceFormatError(f"event {int(negative[0])}: negative cycle count")
            infinite = np.flatnonzero(np.isinf(cycles))
            if infinite.size:
                raise TraceFormatError(f"event {int(infinite[0])}: non-finite cycle count")
            # node means and quantum CPIs divide prefix sums bounded by this sum
            raise TraceFormatError("cycle counts too large: their sum overflows float64")
        if int(counts.max()) * events.size > _INT64_MAX:
            raise TraceFormatError("instruction counts too large: the total could overflow int64")
        # the events' counts gathered into place and summed there; every
        # slot is valid, and take's default mode would buffer a copy
        starts = self.event_starts = np.empty(events.size + 1, dtype=np.int64)
        starts[0] = 0
        np.take(counts, slot, out=starts[1:], mode="clip")
        del slot
        np.cumsum(starts[1:], out=starts[1:])
        starts.flags.writeable = False  # every EventIndex shares it, as the other columns
        total = self.total_instructions = int(starts[-1])
        if total <= 0:
            raise TraceFormatError("trace has no events")

        if (self.quanta is None) != (self.quantum_length is None):
            raise TraceFormatError("quantum records and quantum length must coexist")
        if self.quanta is not None:
            length = self.quantum_length = check_number("quantum_length", self.quantum_length, Integral,
                                                        TraceFormatError, "positive")
            quanta = self.quanta = _column("quanta", self.quanta, Real)
            expected = -(-total // length)
            if quanta.shape != (expected,):
                raise TraceFormatError(
                    f"quantum count mismatch: {quanta.size} records, "
                    f"expected ceil({total}/{length}) = {expected}"
                )
            finite = np.isfinite(quanta)
            bad = np.flatnonzero(~(finite & (quanta > 0)))
            if bad.size:
                i = int(bad[0])
                raise TraceFormatError(
                    f"quantum {i}: " + ("cpi must be positive" if finite[i] else "non-finite cpi")
                )
            if not math.isfinite(float(quanta.max()) * total):
                # no block CPI exceeds the largest quantum CPI, so no cycle
                # sum over the trace's instructions exceeds this product
                raise TraceFormatError(
                    "quantum cpis too large: the largest times the trace's "
                    "instruction count overflows float64"
                )
        if not golden and self.quanta is None:
            raise TraceFormatError(
                "mixed-mode violation: need per-event cycles on every event "
                "or quantum records"
            )


#: lines parsed per step; bounds the parser's working memory
_CHUNK_LINES = 4096


def _decimal(convert, token: str, what: str):
    """convert(token) for int or float, refusing what the format refuses
    though int() and float() take it: "_" and non-ASCII digits (as JSON,
    which _event_columns reads, does)."""
    if token.isascii() and "_" not in token:
        try:
            return convert(token)
        except ValueError:
            pass
    raise TraceFormatError(f"malformed {what} {token!r}")


#: addresses as save_trace writes them, bare lowercase hex; a sign is let
#: through so that a negative address meets the block's own check
_HEX_ADDRESS = re.compile(r"0|-?[1-9a-f][0-9a-f]*")


def _parse_address(token: str, what: str) -> int:
    if not _HEX_ADDRESS.fullmatch(token):
        raise TraceFormatError(f"malformed {what} {token!r}")
    return int(token, 16)


#: byte map of a run of ``E`` lines: the bytes of a JSON number map to
#: themselves, a space to a comma and any other byte to ``x``
_EVENT_BYTES = bytes(c if c in b"0123456789.eE+-\n" else ord("," if c == ord(" ") else "x")
                     for c in range(256))


def _event_columns(
    run: list[str], known: np.ndarray
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(block ids, cycles) of a run made only of ``E`` lines, converted by
    one ``orjson.loads`` call; None when any line needs the line-by-line
    parser (another record, a comment, a blank line, a bad field, an unknown
    block), which then reports the error with its line number.

    The lines are joined with ``xxx`` (``\\nxxx`` for lines without their
    newline, as ``str.splitlines`` gives them) and mapped by _EVENT_BYTES,
    and each ``\\nxxxE,`` becomes ``,null,`` (of the same length, which
    bytes.replace does fastest): one flat JSON array with a null where each
    line starts. The run is read only when it is ASCII, starts with ``E ``,
    keeps no ``x`` (a byte of another record, a tab, a line not joined at a
    newline) and no ``-`` but an exponent's, and the array holds a null at
    every width-th item (width 2 or 3) and, between them, ints within int64
    for the ids and numbers for the cycles: each line then is ``E`` and
    width - 1 numbers, each after one space. JSON's number syntax is a
    subset of what int() and float() take (no ``_``, ``+5``, ``.5``,
    ``007``), and orjson reads a number as float() does and an int past
    uint64 as a float (the tests pin both), so a run read here gives the
    columns the line loop gives.
    """
    import orjson  # here, as in float_reprs: importing the package skips it

    n = len(run)
    # the columns first, before the run's temporaries: run after run they
    # then pack together in the heap, where columns made after the
    # temporaries pin the holes those leave (CLI analyze of 10^7 events
    # peaked at 659 MB RSS that way, at 530 MB this way)
    ids, cycles = np.empty(n, dtype=np.int64), np.full(n, math.nan)
    text = "xxx".join(run) if run[0][-1:] == "\n" else "\nxxx".join(run)
    if not (text.isascii() and text.startswith("E ")):
        return None
    body = text.encode().translate(_EVENT_BYTES).replace(b"\nxxxE,", b",null,")
    del text  # a temporary freed early is fewer pages to fault in afresh
    if b"x" in body:
        return None
    if b"-" in body and body.count(b"-") != body.count(b"e-") + body.count(b"E-"):
        return None  # a sign but an exponent's: JSON reads -0 as the int 0, float() as -0.0
    try:
        values = orjson.loads(b"".join((b"[null,", memoryview(body)[2:], b"]")))
    except orjson.JSONDecodeError:
        return None
    width = len(values) // n
    if width not in (2, 3) or len(values) != width * n or values[::width].count(None) != n:
        return None
    read = np.array(values[1::width])
    if read.dtype != np.int64:
        return None  # a float, an int past int64 (uint64, object) or a null
    ids[:] = read
    if width == 3:
        cycles[:] = values[2::width]
        if not np.isfinite(cycles).all():
            return None  # a reader that returns inf for an overflowing number
    if (positions_in(known, ids) < 0).any():
        return None
    return ids, cycles


def _line_runs(lines: Iterator[str]) -> Iterator[tuple[int, list[str]]]:
    """(number of its first line, lines) of each run the parser converts in
    one step: the input read in chunks of _CHUNK_LINES lines, each chunk cut
    into maximal runs of lines that start with ``E`` and runs of other
    lines. A chunk that starts and ends with an ``E`` line is one run, with
    no look at the lines between."""
    first = 1
    while chunk := list(islice(lines, _CHUNK_LINES)):
        if chunk[0][:1] == "E" == chunk[-1][:1]:
            runs = [chunk]
        else:
            runs = [list(run) for _, run in groupby(chunk, key=lambda raw: raw[:1] == "E")]
        for run in runs:
            yield first, run
            first += len(run)


def parse_trace(stream: Union[str, Iterable[str]]) -> ExecutionTrace:
    """Parse the text format into a validated ExecutionTrace.

    Accepts a string or any iterable of lines (e.g. an open file), read in
    chunks of lines. Raises TraceFormatError with the offending line number
    on bad input.
    """
    lines = iter(stream.splitlines() if isinstance(stream, str) else stream)

    blocks: dict[int, BlockDescriptor] = {}
    known = np.empty(0, dtype=np.int64)  # ascending ids of the blocks declared so far
    block_parts: list[np.ndarray] = []
    cycle_parts: list[np.ndarray] = []
    quanta: list[float] = []
    addresses: set[int] = set()
    quantum_length: Optional[int] = None
    saw_version = False

    for first, run in _line_runs(lines):
        columns = _event_columns(run, known) if saw_version and run[0][:1] == "E" else None
        if columns is None:
            ids: list[int] = []
            cycles: list[float] = []
            try:
                for lineno, raw in enumerate(run, start=first):
                    text = raw.split("#", 1)[0].strip()
                    if not text:
                        continue
                    fields = text.split()
                    kind = fields[0]

                    if not saw_version:
                        if kind != "V" or len(fields) != 2 or fields[1] != "1":
                            raise TraceFormatError("expected version header 'V 1'")
                        saw_version = True
                        continue

                    if kind == "B":
                        if len(fields) not in (5, 6):
                            raise TraceFormatError("malformed block record")
                        bid = _decimal(int, fields[1], "block id")
                        addr = _parse_address(fields[2], "address")
                        count = _decimal(int, fields[3], "instruction count")
                        try:
                            term = Terminator(fields[4])
                        except ValueError:
                            raise TraceFormatError(f"malformed terminator {fields[4]!r}") from None
                        target = _parse_address(fields[5], "target address") if len(fields) == 6 else None
                        if bid in blocks:
                            raise TraceFormatError(f"duplicate block declaration {bid}")
                        blocks[bid] = BlockDescriptor(bid, addr, count, term, target)
                        if addr in addresses:
                            raise TraceFormatError(f"duplicate start_address {addr:#x}")
                        addresses.add(addr)
                    elif kind == "E":
                        if len(fields) not in (2, 3):
                            raise TraceFormatError("malformed event record")
                        # an id outside int64 is never a declared block's
                        bid = _decimal(int, fields[1], "block id")
                        if bid not in blocks:
                            raise TraceFormatError(f"unknown block {bid}")
                        ids.append(bid)
                        cycles.append(math.nan if len(fields) == 2 else check_number(
                            "cycle count", _decimal(float, fields[2], "cycle count"), Real,
                            TraceFormatError, "non-negative"))
                    elif kind == "Q":
                        if len(fields) != 3:
                            raise TraceFormatError("malformed quantum record")
                        qidx = _decimal(int, fields[1], "quantum index")
                        if qidx != len(quanta):
                            raise TraceFormatError(
                                f"quantum indices must be contiguous from 0 (got {qidx} at {len(quanta)})"
                            )
                        cpi = _decimal(float, fields[2], "quantum cpi")
                        quanta.append(check_number("quantum cpi", cpi, Real, TraceFormatError, "positive"))
                    elif kind == "L":
                        if len(fields) != 2:
                            raise TraceFormatError("malformed quantum length record")
                        if quantum_length is not None:
                            raise TraceFormatError("repeated quantum length record")
                        length = _decimal(int, fields[1], "quantum length")
                        quantum_length = check_number("quantum length", length, Integral,
                                                      TraceFormatError, "positive")
                    else:
                        raise TraceFormatError(f"malformed line: unknown record {kind!r}")
            except TraceFormatError as exc:
                # the one place that names the line: every check above raises without it
                raise TraceFormatError(str(exc), lineno) from None
            columns = np.array(ids, dtype=np.int64), np.array(cycles, dtype=float)
            if len(blocks) != known.size:
                known = np.array(sorted(blocks), dtype=np.int64)
        block_parts.append(columns[0])
        cycle_parts.append(columns[1])

    if not saw_version:
        raise TraceFormatError("empty stream: missing version header")

    # each column's parts are freed before the next column is joined
    event_blocks = np.concatenate(block_parts)
    del block_parts
    event_cycles = np.concatenate(cycle_parts)
    del cycle_parts
    # read-only, the trace adopts them without a copy
    event_blocks.flags.writeable = event_cycles.flags.writeable = False
    return ExecutionTrace(
        blocks=blocks,
        event_blocks=event_blocks,
        event_cycles=event_cycles,
        quanta=quanta or None,
        quantum_length=quantum_length,
    )


def float_reprs(values: np.ndarray) -> list[str]:
    """repr() of each element of a 1-D float64 column, "null" for NaN.

    The trace writer and the waveform, spectrum and sample CSV writers
    format their float columns here. orjson writes the same shortest round-trip digits as
    repr() in native code, and spells them the same way in repr()'s
    positional range, 1e-4 <= |x| < 1e16 (and 0). Outside it the exponent
    spellings differ (1e16 against 1e+16, 0.00001 against 1e-05), so those
    rare values, and the infinities, take repr(). The JSON writers do not
    come here: phases._indented_json applies the same rule to a payload and
    gives json.dumps the payloads that break it.
    """
    import orjson  # here, so that a run writing no trace, CSV or tree skips its import

    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.size == 0:
        return []  # "".split(",") is [""]
    texts = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    magnitude = np.abs(values)
    for i in np.flatnonzero((magnitude >= 1e16) | ((magnitude < 1e-4) & (magnitude > 0))).tolist():
        texts[i] = repr(float(values[i]))
    return texts


#: events (or quanta) written per step; bounds the writer's working memory
_CHUNK_EVENTS = 1 << 14


def _numbered_lines(prefixes: list[str], values: np.ndarray) -> str:
    """One "<prefix><value>\\n" line per pair, the value as float_reprs
    writes it ("null" for NaN), joined in one step."""
    fields = ["\n"] * (3 * len(prefixes))
    fields[::3] = prefixes
    fields[1::3] = float_reprs(values)
    return "".join(fields)


def _trace_chunks(trace: ExecutionTrace) -> Iterator[str]:
    """The text format of trace in pieces: the header and block table, then
    the event lines and the quantum records, _CHUNK_EVENTS lines a piece."""
    out = ["V 1\n"]
    for block in trace.blocks.values():
        rec = (
            f"B {block.block_id} {block.start_address:x} "
            f"{block.instruction_count} {block.terminator.value}"
        )
        if block.target_address is not None:
            rec += f" {block.target_address:x}"
        out.append(rec + "\n")
    yield "".join(out)
    prefix = {bid: f"E {bid} " for bid in trace.blocks}
    for start in range(0, trace.event_blocks.size, _CHUNK_EVENTS):
        part = slice(start, start + _CHUNK_EVENTS)
        ids = trace.event_blocks[part].tolist()
        events = _numbered_lines(list(map(prefix.__getitem__, ids)), trace.event_cycles[part])
        # an event without a cycle count is written "E <id> null", then loses
        # the token; no other field of an E line can hold " null"
        yield events if trace.is_golden else events.replace(" null", "")
    if trace.quanta is not None:
        yield f"L {trace.quantum_length}\n"
        for start in range(0, trace.quanta.size, _CHUNK_EVENTS):
            stop = min(start + _CHUNK_EVENTS, trace.quanta.size)
            yield _numbered_lines([f"Q {i} " for i in range(start, stop)], trace.quanta[start:stop])


def serialize_trace(trace: ExecutionTrace) -> str:
    """Render a trace in the text format; parse(serialize(t)) == t."""
    return "".join(_trace_chunks(trace))


def load_trace(path) -> ExecutionTrace:
    """parse_trace on the file at path, read as UTF-8; TraceFormatError
    naming the file when it is not UTF-8 text."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_trace(fh)
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"cannot read trace {path}: {exc}") from None


def save_trace(trace: ExecutionTrace, path) -> None:
    """Write serialize_trace(trace) to the file at path, one chunk of lines
    at a time, so the whole text is never held at once."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_trace_chunks(trace))
