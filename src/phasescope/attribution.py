"""Per-block CPI attribution and instruction-indexed CPI waveforms.

Quantum-mode attribution spreads each quantum's measured CPI back onto the
blocks that executed in it (weighted by how often each block started there);
golden-mode attribution averages exact per-event cycle counts. Waveforms are
piecewise-constant CPI over the instruction axis, resampled onto a uniform
grid by zero-order hold so a DFT can be applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise
from typing import Optional

import numpy as np

from .trace import ExecutionTrace, TraceFormatError, float_reprs, positions_in


@dataclass
class Waveform:
    """Uniformly resampled CPI signal.

    samples[k] is the CPI at instruction origin_instruction + k * sample_stride.
    """

    samples: np.ndarray
    sample_stride: int
    origin_instruction: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.size < 1:
            raise ValueError("waveform needs at least one sample")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be positive")

    @property
    def sample_offsets(self) -> np.ndarray:
        """Absolute instruction offset of each sample."""
        return self.origin_instruction + self.sample_stride * np.arange(
            self.samples.size, dtype=np.int64
        )


@dataclass(frozen=True)
class EventIndex:
    """Prefix-sum view of the event stream for O(log E) offset lookups.

    Three columns: block_ids and event_cycles (None unless golden) have
    length E, starts has length E+1; event e covers instructions
    [starts[e], starts[e+1]), so np.diff(starts) gives every event's
    instruction count.
    """

    block_ids: np.ndarray
    starts: np.ndarray
    event_cycles: Optional[np.ndarray]

    @classmethod
    def from_trace(cls, trace: ExecutionTrace) -> "EventIndex":
        """View of the columns the trace built at validation; copies nothing."""
        return cls(
            block_ids=trace.event_blocks,
            starts=trace.event_starts,
            event_cycles=trace.event_cycles if trace.is_golden else None,
        )

    @property
    def total_instructions(self) -> int:
        return int(self.starts[-1])

    def events_at(self, offsets: np.ndarray) -> np.ndarray:
        """Index of the event executing at each instruction offset."""
        return np.searchsorted(self.starts, offsets, side="right") - 1

    def golden_event_cpi(self) -> np.ndarray:
        if self.event_cycles is None:
            raise ValueError("golden cycles required")
        return self.event_cycles / _event_instructions(self.starts)


def _event_instructions(starts: np.ndarray) -> np.ndarray:
    """Each event's instruction count, from the prefix sums: np.diff(starts),
    less np.diff's per-call cost, which shows on many small traces."""
    return starts[1:] - starts[:-1]


def group_bounds(sorted_ids: np.ndarray) -> np.ndarray:
    """Bounds of the runs of equal ids in a sorted, non-empty array: run k
    is sorted_ids[bounds[k]:bounds[k + 1]]."""
    cuts = np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1
    return np.concatenate(([0], cuts, [sorted_ids.size]))


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
        mode = "quantum" if trace.has_quanta else "golden"
    if mode not in ("quantum", "golden"):
        raise ValueError(f"unknown attribution mode {mode!r}")

    index = EventIndex.from_trace(trace)
    if mode == "quantum":
        if not trace.has_quanta:
            raise ValueError("quantum attribution requires quantum records")
        # an event belongs to the quantum holding its first instruction
        values = trace.quanta[index.starts[:-1] // trace.quantum_length]
    else:
        if index.event_cycles is None:
            raise ValueError("golden attribution requires cycles on every event")
        values = index.event_cycles

    # a stable sort keeps each block's events in trace order
    order = np.argsort(index.block_ids, kind="stable")
    ids = index.block_ids[order]
    bounds = group_bounds(ids)
    firsts = bounds[:-1]
    values = values[order]
    # One pairwise .sum() per block slice adds exactly the values, in exactly
    # the order, that a per-block boolean mask would select. np.add.reduceat
    # and np.bincount add in sequence, which changes last digits of the block
    # CPIs.
    sums = np.array([values[a:b].sum() for a, b in pairwise(bounds.tolist())])
    weights = np.diff(bounds)
    if mode == "golden":
        # every event of a block runs its instruction count, so the block's
        # instructions are an exact integer product (validation keeps the
        # trace total, and so each product, within int64)
        weights *= [trace.blocks[b].instruction_count for b in ids[firsts].tolist()]
    cpis = sums / weights
    bad = np.flatnonzero(cpis <= 0)
    if bad.size:
        # validation keeps cycles >= 0 and quantum CPIs > 0: the input
        # gave every event of this block 0 cycles
        bid = int(ids[firsts[bad[0]]])
        raise TraceFormatError(f"block {bid}: its events carry 0 cycles in all; a block CPI must be positive")
    return dict(zip(ids[firsts].tolist(), cpis.tolist()))


def profile_rates(index: EventIndex, profiles: dict[int, float]) -> np.ndarray:
    """Per-event CPI taken from the block CPIs, aligned with the index."""
    ids = np.array(sorted(profiles), dtype=np.int64)
    rates = np.array([profiles[b] for b in ids.tolist()], dtype=float)
    slot = positions_in(ids, index.block_ids)
    missing = np.flatnonzero(slot < 0)
    if missing.size:
        raise ValueError(
            f"missing profile for executed block {int(index.block_ids[missing[0]])}"
        )
    return rates[slot]


def sample_range(
    index: EventIndex,
    rates: np.ndarray,
    start: int,
    stop: int,
    resolution: int,
) -> Waveform:
    """Zero-order-hold resampling of the CPI function over [start, stop).

    rates holds the per-event CPI to sample (block profile rate or exact
    per-event rate). sample_stride = ceil(len / resolution); samples land on
    start + k*stride, so refining the resolution never changes shared offsets.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    length = stop - start
    if length < 1:
        raise ValueError("empty sample range")
    stride = math.ceil(length / resolution)
    offsets = np.arange(start, stop, stride, dtype=np.int64)
    return Waveform(
        samples=rates[index.events_at(offsets)],
        sample_stride=stride,
        origin_instruction=start,
    )


def build_waveform(
    trace: ExecutionTrace, profiles: dict[int, float], resolution: int = 4096
) -> Waveform:
    """Full-trace CPI waveform using the block CPIs (see attribute_block_cpi)."""
    index = EventIndex.from_trace(trace)
    return sample_range(index, profile_rates(index, profiles), 0, index.total_instructions, resolution)


def golden_waveform(trace: ExecutionTrace, resolution: int = 4096) -> Waveform:
    """Exact per-instruction CPI waveform from per-event cycle counts."""
    index = EventIndex.from_trace(trace)
    return sample_range(index, index.golden_event_cpi(), 0, index.total_instructions, resolution)


def cycles_below(index: EventIndex, rates: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Cycles of the instructions before each offset in [0, total], where
    every instruction of event e costs rates[e].

    One np.cumsum of instr_count*rate per call gives the cycles before each
    event; an offset inside event e adds its share of e to those. Only event
    starts are searched, so the offset total falls in the last event, as its
    end; that gives the whole sum bit for bit, since np.cumsum adds in
    sequence.
    """
    prefix = np.zeros(len(rates) + 1, dtype=float)
    np.cumsum(_event_instructions(index.starts) * rates, out=prefix[1:])
    ev = np.searchsorted(index.starts[:-1], offsets, side="right") - 1
    return prefix[ev] + (offsets - index.starts[ev]) * rates[ev]


def quantum_cpis(index: EventIndex, quantum_length: int) -> np.ndarray:
    """Exact CPI of each quantum of a golden event stream: the cycles_below
    difference across the quantum at the per-event rates of
    golden_event_cpi, over its instruction count.

    Every instruction of an event costs cycles/instr_count, so a quantum's
    CPI is well defined even when events straddle its boundaries.
    """
    if quantum_length < 1:
        raise ValueError("quantum_length must be positive")
    total = index.total_instructions
    n_quanta = math.ceil(total / quantum_length)
    bounds = np.minimum(np.arange(n_quanta + 1, dtype=np.int64) * quantum_length, total)
    return np.diff(cycles_below(index, index.golden_event_cpi(), bounds)) / np.diff(bounds)


def waveform_csv(trace: ExecutionTrace, waveform: Waveform) -> str:
    """Plot-ready CSV: instruction_offset,cpi,block_id, where block_id is
    the trace's block executing at that offset."""
    offsets = waveform.sample_offsets
    index = EventIndex.from_trace(trace)
    heads = index.block_ids[index.events_at(offsets)]
    rows = zip(offsets.tolist(), float_reprs(waveform.samples), heads.tolist())
    return "instruction_offset,cpi,block_id\n" + "".join("%d,%s,%d\n" % row for row in rows)
