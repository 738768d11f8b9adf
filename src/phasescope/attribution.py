"""Per-block CPI attribution and instruction-indexed CPI waveforms.

Quantum-mode attribution spreads each quantum's measured CPI back onto the
blocks that executed in it (weighted by how often each block started there);
golden-mode attribution averages exact per-event cycle counts. CPI over the
instruction axis is a step function (bounds, values), step e holding values[e]
over [bounds[e], bounds[e + 1]): per-event, quantum and TQ phase CPIs alike.
sample_range resamples one by zero-order hold for a DFT; cycles_below sums it.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from itertools import pairwise
from numbers import Integral, Real

import numpy as np

from .trace import ExecutionTrace, TraceFormatError, check_number, float_reprs, positions_in


@dataclass
class Waveform:
    """Uniformly resampled CPI signal.

    samples[k], a finite real number, is the CPI at instruction
    origin_instruction + k * sample_stride.
    """

    samples: np.ndarray
    sample_stride: int
    origin_instruction: int

    def __post_init__(self):
        given = self.samples
        samples = np.asarray(given)
        if samples.ndim != 1:
            raise ValueError(f"waveform samples must be 1-D, got shape {samples.shape}")
        if samples.size < 1:
            raise ValueError("waveform needs at least one sample")
        # numpy reads True and "1.5" as floats, and a list's dtype hides what it
        # held ([True, 2] makes an int array): only finite plain numbers go unread
        if not (samples.dtype.kind in "fiu" and (given is samples or set(map(type, given)) <= {float, int})
                and np.count_nonzero(np.isfinite(samples)) == samples.size):
            for k, value in enumerate(samples.tolist() if given is samples else given):
                check_number(f"waveform sample {k}", value, Real)
        self.samples = samples.astype(float, copy=False)
        check_number("sample_stride", self.sample_stride, Integral, ValueError, "positive")
        # any sign: sample_range also samples step functions over negative offsets
        check_number("origin_instruction", self.origin_instruction, Integral)

    @property
    def sample_offsets(self) -> np.ndarray:
        """Absolute instruction offset of each sample."""
        return self.origin_instruction + self.sample_stride * np.arange(
            self.samples.size, dtype=np.int64
        )


@dataclass(frozen=True)
class EventIndex:
    """Views of two trace columns: event e runs block block_ids[e] over
    instructions [starts[e], starts[e+1]), so starts (length E+1) bounds
    every per-event step function."""

    block_ids: np.ndarray
    starts: np.ndarray

    @classmethod
    def from_trace(cls, trace: ExecutionTrace) -> "EventIndex":
        """View of the columns the trace built at validation; copies nothing."""
        return cls(block_ids=trace.event_blocks, starts=trace.event_starts)


def _step_widths(starts: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each step's instruction count, np.diff(starts) taken in int64 and
    written as float64 into out, where the caller goes on in place: no
    spare column of the trace's size is made."""
    return np.subtract(starts[1:], starts[:-1], out=out)


def _golden_cpis(starts: np.ndarray, cycles: np.ndarray) -> np.ndarray:
    """Each golden event's exact CPI: its cycles over its instructions."""
    cpis = _step_widths(starts, np.empty(cycles.size))
    return np.divide(cycles, cpis, out=cpis)


def group_bounds(sorted_ids: np.ndarray) -> np.ndarray:
    """Bounds of the runs of equal ids in a sorted, non-empty array: run k
    is sorted_ids[bounds[k]:bounds[k + 1]]."""
    n = sorted_ids.size
    edges = np.empty(n + 1, dtype=bool)
    edges[0] = edges[n] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=edges[1:n])
    return edges.nonzero()[0]


def attribute_block_cpi(
    trace: ExecutionTrace, mode: str = "auto"
) -> dict[int, float]:
    """Map each executed block's id to its CPI, in ascending id order.

    mode "quantum": cpi(b) is the weighted average of quantum CPIs over the
    quanta in which b's events start. mode "golden": cpi(b) is total event
    cycles over total instructions executed by b. mode "auto" picks quantum
    when quantum samples are present (the measurement path), golden otherwise.
    Blocks with no dynamic occurrence are omitted. A block whose golden
    cycles sum to 0 raises TraceFormatError.
    """
    if mode == "auto":
        mode = "quantum" if trace.quanta is not None else "golden"
    if mode not in ("quantum", "golden"):
        raise ValueError(f"unknown attribution mode {mode!r}")

    if mode == "quantum" and trace.quanta is None:
        raise ValueError("quantum attribution requires quantum records")
    if mode == "golden" and not trace.is_golden:
        raise ValueError("golden attribution requires cycles on every event")

    # a stable sort keeps each block's events in trace order; each
    # temporary as large as the trace is freed once read
    index = EventIndex.from_trace(trace)
    order = np.argsort(index.block_ids, kind="stable")
    ids = index.block_ids[order]
    bounds = group_bounds(ids)
    firsts = bounds[:-1]
    block_ids = ids[firsts]
    del ids
    values = (index.starts if mode == "quantum" else trace.event_cycles)[order]
    del order
    if mode == "quantum":
        # an event belongs to the quantum holding its first instruction
        values //= trace.quantum_length
        values = trace.quanta[values]
    # One pairwise np.add.reduce (what .sum() runs) per block slice adds
    # exactly the values, in exactly the order, that a per-block boolean mask
    # would select. np.add.reduceat and np.bincount add in sequence, which
    # changes last digits of the block CPIs.
    sums = np.array([np.add.reduce(values[a:b]) for a, b in pairwise(bounds.tolist())])
    weights = bounds[1:] - firsts
    if mode == "golden":
        # every event of a block runs its instruction count, so the block's
        # instructions are an exact integer product (validation keeps the
        # trace total, and so each product, within int64)
        weights *= [trace.blocks[b].instruction_count for b in block_ids.tolist()]
    cpis = sums / weights
    bad = (cpis <= 0).nonzero()[0]
    if bad.size:
        # validation keeps cycles >= 0 and quantum CPIs > 0: the input
        # gave every event of this block 0 cycles
        bid = int(block_ids[bad[0]])
        raise TraceFormatError(f"block {bid}: its events carry 0 cycles in all; a block CPI must be positive")
    return dict(zip(block_ids.tolist(), cpis.tolist()))


def profile_rates(index: EventIndex, profiles: dict[int, float]) -> np.ndarray:
    """Per-event CPI taken from the block CPIs, aligned with the index.
    ValueError naming the first block id that is not an integer within
    int64, or the first block whose CPI is not a finite positive real
    number (a bool or a str is neither)."""
    ids = rates = None
    # numpy would read 0.0 as block 0 and "2" as 2.0, so the types go first
    if all(t is int or issubclass(t, Integral) and not issubclass(t, bool) for t in set(map(type, profiles))):
        with suppress(OverflowError):  # an int beyond int64
            ids = np.array(sorted(profiles), dtype=np.int64)
    if ids is None:
        for bid in profiles:  # check_number raises on the first bad id
            check_number("profile block id", bid, Integral)
    cpis = [profiles[b] for b in ids.tolist()]
    if all(t is float or issubclass(t, Real) and not issubclass(t, bool) for t in set(map(type, cpis))):
        with suppress(OverflowError):  # an int or a Fraction beyond float64
            rates = np.array(cpis, dtype=float)
    if rates is None or not ((rates > 0) & (rates < np.inf)).all():  # NaN fails both
        for bid, cpi in zip(ids.tolist(), cpis):  # as a float64 too: a tiny Fraction rounds to 0
            check_number(f"block {bid}: CPI", cpi, Real, ValueError, "positive")
            check_number(f"block {bid}: CPI", float(cpi), Real, ValueError, "positive")
    slot = positions_in(ids, index.block_ids)
    missing = np.flatnonzero(slot < 0)
    if missing.size:
        raise ValueError(
            f"missing profile for executed block {int(index.block_ids[missing[0]])}"
        )
    return rates[slot]


def sample_grid(start: int, stop: int, resolution: int) -> tuple[np.ndarray, int]:
    """The sampling grid of [start, stop) at a resolution: (offsets, stride)
    with stride = ceil((stop - start) / resolution) and the offsets at
    start + k*stride, so refining the resolution never changes shared
    offsets. ValueError on a resolution that is not an integer of at
    least 2, or on an empty range."""
    stride = _grid_stride(start, stop, resolution)
    return np.arange(start, stop, stride, dtype=np.int64), stride


def _grid_stride(start: int, stop: int, resolution: int) -> int:
    """sample_grid's stride, with its checks."""
    # any integer, not check_number's: one past int64 samples every instruction
    if isinstance(resolution, bool) or not isinstance(resolution, (int, Integral)):
        raise ValueError(f"resolution must be an integer, got {resolution!r}")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    length = stop - start
    if length < 1:
        raise ValueError("empty sample range")
    # the ceiling in integers: a float quotient rounds past 2**53 or overflows
    return -(-length // resolution)


def sample_range(
    starts: np.ndarray,
    values: np.ndarray,
    start: int,
    stop: int,
    resolution: int,
) -> Waveform:
    """Zero-order-hold resampling of the step function (starts, values)
    over [start, stop) on sample_grid(start, stop, resolution): each sample
    is the value of the step holding its offset. ValueError unless [start,
    stop) lies within [starts[0], starts[-1]]."""
    stride = _grid_stride(start, stop, resolution)
    if start < starts[0] or stop > starts[-1]:
        raise ValueError("sample range outside the trace")
    # steps first..last-1 overlap [start, stop); rather than search every
    # offset, count the grid offsets each step holds: step e holds from
    # the first offset at or after its start, k = ceil((starts[e] - start) / stride)
    first = int(starts.searchsorted(start, side="right")) - 1
    last = int(starts.searchsorted(stop))
    edges = np.empty(last - first + 1, dtype=np.int64)
    edges[0], edges[-1] = 0, -(-(stop - start) // stride)
    inner = edges[1:-1]
    np.subtract(starts[first + 1 : last], start + 1, out=inner)
    inner //= stride
    inner += 1
    return Waveform(
        samples=values[first:last].repeat(edges[1:] - edges[:-1]),
        sample_stride=stride,
        origin_instruction=start,
    )


def build_waveform(
    trace: ExecutionTrace, profiles: dict[int, float], resolution: int = 4096
) -> Waveform:
    """Full-trace CPI waveform using the block CPIs (see attribute_block_cpi)."""
    index = EventIndex.from_trace(trace)
    return sample_range(index.starts, profile_rates(index, profiles), 0, trace.total_instructions, resolution)


def golden_waveform(trace: ExecutionTrace, resolution: int = 4096) -> Waveform:
    """Exact per-instruction CPI waveform from per-event cycle counts."""
    if not trace.is_golden:
        raise ValueError("golden cycles required")
    cpis = _golden_cpis(trace.event_starts, trace.event_cycles)
    return sample_range(trace.event_starts, cpis, 0, trace.total_instructions, resolution)


def cycles_below(starts: np.ndarray, values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Cycles of the instructions before each offset in [starts[0],
    starts[-1]], where every instruction of step e costs values[e].

    One np.cumsum of instr_count*value per call gives the cycles before each
    step; an offset inside step e adds its share of e to those. Only step
    starts are searched, so the offset starts[-1] falls in the last step, as
    its end; that gives the whole sum bit for bit, since np.cumsum adds in
    sequence.
    """
    prefix = np.empty(len(values) + 1)
    prefix[0] = 0.0
    steps = _step_widths(starts, prefix[1:])
    steps *= values
    np.cumsum(steps, out=steps)
    step = starts[:-1].searchsorted(offsets, side="right") - 1
    return prefix[step] + (offsets - starts[step]) * values[step]


def quantum_cpis(starts: np.ndarray, cycles: np.ndarray, quantum_length: int) -> np.ndarray:
    """Exact CPI of each quantum of a golden event stream, event e costing
    cycles[e] over [starts[e], starts[e+1]): the cycles_below difference
    across the quantum at the per-event CPIs, over its instruction count.

    Every instruction of an event costs cycles/instr_count, so a quantum's
    CPI is well defined even when events straddle its boundaries.
    """
    quantum_length = check_number("quantum_length", quantum_length, Integral, ValueError, "positive")
    total = int(starts[-1])
    n_quanta = -(-total // quantum_length)
    # quantum k starts at k * quantum_length < total: no bound overflows int64
    bounds = np.arange(n_quanta + 1, dtype=np.int64)
    bounds[:-1] *= quantum_length
    bounds[-1] = total
    below = cycles_below(starts, _golden_cpis(starts, cycles), bounds)
    return (below[1:] - below[:-1]) / (bounds[1:] - bounds[:-1])


def waveform_csv(trace: ExecutionTrace, waveform: Waveform) -> str:
    """Plot-ready CSV: instruction_offset,cpi,block_id, where block_id is
    the trace's block executing at that offset."""
    offsets = waveform.sample_offsets
    heads = trace.event_blocks[trace.event_starts.searchsorted(offsets, side="right") - 1]
    rows = zip(offsets.tolist(), float_reprs(waveform.samples), heads.tolist())
    return "instruction_offset,cpi,block_id\n" + "".join("%d,%s,%d\n" % row for row in rows)
