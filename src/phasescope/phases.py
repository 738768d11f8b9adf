"""Hierarchical phase identification.

One function decides each segment's children: it samples the segment's CPI
waveform, finds the dominant occurrence count in its spectrum, derives the
pattern length, locates the head basic block by aligning candidate heads
(big CPI jumps between consecutive events) against that length, and gives
the first pattern instance as the one child. Occurrence-one segments are
split at the strongest mean step instead; flat segments are leaves.
analyze builds the tree from a work stack of those children, in pre-order.
"""

from __future__ import annotations

import enum
import json
import math
import re
from collections import deque
from dataclasses import dataclass, field, fields
from numbers import Integral, Real
from typing import Callable, Optional

import numpy as np

from .attribution import (
    EventIndex,
    Waveform,
    attribute_block_cpi,
    cycles_below,
    group_bounds,
    profile_rates,
    sample_range,
)
from .spectral import dft_magnitude, is_flat, main_spectrum
from .trace import BlockDescriptor, ExecutionTrace, Terminator, check_number


class Structure(enum.Enum):
    LOOP = "loop"
    FUNCTION = "function"
    NONE = "none"


@dataclass(frozen=True)
class AnalysisConfig:
    """Analysis parameters, checked on construction and dataclasses.replace:
    an int field takes an integer, a float field a finite real number, as
    trace.check_number defines them, each within its range; ValueError
    names the field."""

    resolution: int = 4096
    boundary_threshold_fraction: float = 0.5
    flat_cpi_range: float = 0.3
    flat_spectrum_ratio: float = 0.02
    max_depth: int = 8
    min_segment_instructions: int = 64

    def __post_init__(self):
        for name, kind in CONFIG_TYPES.items():
            check_number(f"config field {name}", getattr(self, name), Integral if kind is int else Real)
        if self.resolution < 2:
            raise ValueError("resolution must be >= 2")
        if not 0.0 < self.boundary_threshold_fraction <= 1.0:
            raise ValueError("boundary_threshold_fraction must be in (0, 1]")
        if self.flat_cpi_range < 0.0:
            raise ValueError("flat_cpi_range must be non-negative")
        if not 0.0 < self.flat_spectrum_ratio < 1.0:
            raise ValueError("flat_spectrum_ratio must be in (0, 1)")
        # tree_to_dict takes two frames per level (its list comprehension
        # too): 500 levels overflow the default recursion limit of 1000
        if not 1 <= self.max_depth <= 256:
            raise ValueError("max_depth must be in [1, 256]")
        if self.min_segment_instructions < 2:
            raise ValueError("min_segment_instructions must be >= 2")


#: each config field's type is that of its default (int or float)
CONFIG_TYPES = {f.name: type(f.default) for f in fields(AnalysisConfig)}
#: the config analyze runs without one; frozen, so one instance serves all
_DEFAULT_CONFIG = AnalysisConfig()


@dataclass
class PhaseNode:
    """One phase: where it starts, how long one instance is, how often it
    repeats at this level, and the mean CPI over its interval."""

    head_block: int
    start_instruction: int
    length_instructions: int
    mean_cpi: float
    occurrence: int = 1
    structure: Structure = Structure.NONE
    children: list["PhaseNode"] = field(default_factory=list)

    @property
    def end_instruction(self) -> int:
        return self.start_instruction + self.length_instructions

    def walk(self):
        """This node and every node below it, in pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


def _candidates_in_range(
    index: EventIndex, rates: np.ndarray, threshold: float, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Potential phase heads in [start, stop): (instruction offsets, block
    ids) of every event whose CPI differs from its predecessor's by more
    than the threshold, in execution order (duplicates preserved)."""
    lo = max(1, int(index.starts.searchsorted(start)))
    hi = min(len(rates), int(index.starts.searchsorted(stop)))
    steps = rates[lo:hi] - rates[lo - 1 : hi - 1]
    jumps = lo + (np.abs(steps, out=steps) > threshold).nonzero()[0]
    return index.starts[jumps], index.block_ids[jumps]


def align_phase(offsets: np.ndarray, block_ids: np.ndarray, length: int) -> tuple[int, int]:
    """Pick the candidate block whose recurrence rhythm best matches the
    phase length; return (start_instruction, block_id) of its first
    occurrence.

    Candidate i is block block_ids[i] at instruction offsets[i]; every
    candidate given is used. The score of a block is |median inter-arrival
    gap - length| over its candidate offsets; ties break toward the earliest
    offset. Blocks seen only once are a fallback when nothing recurs. No
    candidate at all raises ValueError.
    """
    if length < 1:
        raise ValueError("length must be positive")
    offsets = np.asarray(offsets, dtype=np.int64)
    block_ids = np.asarray(block_ids, dtype=np.int64)
    if not offsets.size:
        raise ValueError("no candidate heads")

    # group the candidates by block, each block's in the order given
    order = block_ids.argsort(kind="stable")
    ids, offs = block_ids[order], offsets[order]
    bounds = group_bounds(ids)
    # block k has bounds[k + 1] - bounds[k] candidates, one gap fewer
    gap_count = bounds[1:] - bounds[:-1] - 1
    recurring = gap_count.nonzero()[0]
    if recurring.size:
        # gaps between consecutive candidates of one block, sorted per block:
        # block k's are gaps[bounds[k] - k:bounds[k + 1] - k - 1]
        same = ids[1:] == ids[:-1]
        gap_ids, gaps = ids[1:][same], (offs[1:] - offs[:-1])[same]
        gaps = gaps[np.lexsort((gaps, gap_ids))]
        firsts = bounds[recurring]
        lo, count = firsts - recurring, gap_count[recurring]
        # the median of each block's gaps, as np.median gives it: the mean
        # of the two middle gaps in float64 (the middle gap twice when odd)
        median = (gaps[lo + (count - 1) // 2].astype(float) + gaps[lo + count // 2]) / 2
        score = np.abs(median - length)
        first_ids, first_offs = ids[firsts], offs[firsts]
        best = np.lexsort((first_ids, first_offs, score))[0]
        return int(first_offs[best]), int(first_ids[best])

    first = int(np.argmin(offsets))
    return int(offsets[first]), int(block_ids[first])


def split_step(waveform: Waveform) -> Optional[int]:
    """Best two-way split of a non-repeating segment.

    Scans every sample boundary and returns the boundary instruction of the
    largest jump between the means before and after it, provided the jump
    exceeds the population standard deviation of the whole waveform
    (strict); otherwise None and the segment is one phase.
    """
    samples = waveform.samples
    n = samples.size
    if n < 2:
        return None
    prefix = samples.cumsum()
    head, t = prefix[:-1], np.arange(1, n)
    before = head / t
    after = prefix[-1] - head
    after /= t[::-1]  # n - t
    diff = np.abs(after - before)
    best = int(diff.argmax())
    if not diff[best] > _population_std(samples):
        return None
    return waveform.origin_instruction + (best + 1) * waveform.sample_stride


def _population_std(samples: np.ndarray) -> float:
    """samples.std() bit for bit, from the ufunc reductions std() runs, less
    its per-call cost. Where std() overflows (it squares the deviations, so
    past about 1e154), it is the std() of the samples scaled by their
    largest magnitude, times that magnitude."""
    n = samples.size
    with np.errstate(over="ignore"):
        deviations = samples - np.add.reduce(samples) / n
        deviations *= deviations
        spread = math.sqrt(np.add.reduce(deviations) / n)
    if not math.isfinite(spread):
        scale = float(np.abs(samples).max())
        spread = float((samples / scale).std()) * scale
    return spread


def classify_structure(
    block: BlockDescriptor, context: Optional[BlockDescriptor]
) -> Structure:
    """Code structure entered at a phase head, judged by the block that
    transferred control to it: a call makes it a function entry, a
    backward branch (target at or before the branching block) a loop head."""
    if context is None:
        return Structure.NONE
    if context.terminator is Terminator.CALL:
        return Structure.FUNCTION
    if (
        context.terminator is Terminator.BRANCH
        and context.target_address is not None
        and context.target_address <= context.start_address
    ):
        return Structure.LOOP
    return Structure.NONE


def set_heads(trace: ExecutionTrace, nodes, entries) -> None:
    """Set each node's head_block, the block of the event holding its start,
    and structure, classify_structure of that block entered from the event
    before the one holding instruction entries[i] (none before event 0)."""
    n = len(nodes)
    offsets = np.concatenate(([node.start_instruction for node in nodes], entries))
    events = trace.event_starts.searchsorted(offsets, side="right") - 1
    events[n:] -= 1  # the event each node is entered from, or -1
    ids = trace.event_blocks[np.maximum(events, 0)].tolist()
    blocks = trace.blocks
    for node, head, event, context in zip(nodes, ids, events[n:].tolist(), ids[n:]):
        node.head_block = head
        node.structure = classify_structure(blocks[head], blocks[context] if event >= 0 else None)


def analyze(
    trace: ExecutionTrace,
    config: Optional[AnalysisConfig] = None,
    *,
    spectrum_sink: Optional[Callable[[int, int, int, np.ndarray], None]] = None,
    profiles: Optional[dict[int, float]] = None,
) -> PhaseNode:
    """Build the hierarchical phase tree for a trace.

    The root covers the whole execution. Each segment's children are read
    from two plain values: main_spectrum's bin k, the occurrence whose
    magnitude magnitudes[k] sets the head-candidate threshold, and, where k
    is 1, split_step's boundary instruction; set_heads reads each node's head
    block and structure, entered at its start. profiles maps block id to CPI
    and defaults to attribute_block_cpi(trace); a caller that wants a
    specific attribution mode, or needs the block CPIs too, passes
    attribute_block_cpi(trace, mode) and the trace is attributed once.
    spectrum_sink, when given, receives (depth, start, stop, magnitudes) for
    every analyzed segment, magnitudes being the segment's dft_magnitude
    array.
    """
    cfg = config or _DEFAULT_CONFIG
    if profiles is None:
        profiles = attribute_block_cpi(trace)
    index = EventIndex.from_trace(trace)
    rates = profile_rates(index, profiles)

    def children(start: int, stop: int, depth: int) -> list[tuple[int, int, int]]:
        """The (start, stop, occurrence) of each child of the segment
        [start, stop) at depth: none for a leaf, two for a split, one
        instance for a repeat."""
        length = stop - start
        if depth >= cfg.max_depth or length < cfg.min_segment_instructions:
            return []
        wave = sample_range(index.starts, rates, start, stop, cfg.resolution)
        magnitudes = dft_magnitude(wave)
        if spectrum_sink is not None:
            spectrum_sink(depth, start, stop, magnitudes)
        if is_flat(wave, magnitudes, cfg):
            return []  # else some non-DC bin is nonzero, as main_spectrum needs
        reps = main_spectrum(magnitudes)
        if reps == 1:
            boundary = split_step(wave)
            return [] if boundary is None else [(start, boundary, 1), (boundary, stop, 1)]
        # node lengths stay within occurrence*length <= segment + one stride
        instance = min(max(1, round(length / reps)), (length + wave.sample_stride) // reps)
        theta = cfg.boundary_threshold_fraction * magnitudes[reps]
        offsets, heads = _candidates_in_range(index, rates, theta, start, stop)
        anchor = align_phase(offsets, heads, instance)[0] if offsets.size else start
        # fold back to the earliest congruent instance (candidates are >= start)
        anchor = start + (anchor - start) % instance
        return [(anchor, anchor + min(instance, stop - anchor), reps)]

    # every node in pre-order; the work stack sets interval and occurrence,
    # then one batch pass sets mean CPI, and set_heads head block and structure
    root = PhaseNode(-1, 0, trace.total_instructions, math.nan)
    nodes: list[PhaseNode] = []
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        nodes.append(node)
        spans = children(node.start_instruction, node.end_instruction, depth)
        if spans:  # most nodes are leaves, whose children stay the empty default
            node.children = [PhaseNode(-1, a, b - a, math.nan, reps) for a, b, reps in spans]
            stack.extend((child, depth + 1) for child in reversed(node.children))

    starts = np.array([node.start_instruction for node in nodes], dtype=np.int64)
    lengths = np.array([node.length_instructions for node in nodes], dtype=np.int64)
    below = cycles_below(index.starts, rates, np.concatenate((starts, starts + lengths)))
    means = (below[starts.size :] - below[: starts.size]) / lengths
    for node, mean in zip(nodes, means.tolist()):
        node.mean_cpi = mean
    set_heads(trace, nodes, starts)  # each node is entered at its start
    validate_tree(root)
    return root


def validate_tree(root: PhaseNode) -> None:
    """Structural well-formedness: children ordered, disjoint, not empty,
    inside the parent interval and occurring at least once; ValueError
    naming the first violation."""
    for node in root.walk():
        cursor = node.start_instruction
        for child in node.children:
            if child.start_instruction < cursor:
                raise ValueError("children overlap or are out of order")
            if child.end_instruction > node.end_instruction:
                raise ValueError("child extends past its parent")
            if child.length_instructions < 1:
                raise ValueError("empty child interval")
            if child.occurrence < 1:
                raise ValueError("child occurs less than once")
            cursor = child.end_instruction


def _head_address(blocks, block_id: int) -> int:
    """blocks maps block_id to a BlockDescriptor or directly to an address."""
    entry = blocks[block_id]
    return entry.start_address if isinstance(entry, BlockDescriptor) else int(entry)


def export_markers(root: PhaseNode, blocks) -> dict[int, dict]:
    """Flatten a phase tree into what a binary patcher would consume: one
    marker per phase head address, keyed by that address, each the JSON
    object markers_json writes for it: phase_path (child indices from the
    root, a list), mean_cpi, structure (its value) and additional_paths.

    blocks maps block_id to a BlockDescriptor or directly to an address.
    Nodes are visited breadth first. When nested phases share a head block,
    the shallowest node keeps the marker and deeper paths are appended to
    its additional_paths.
    """
    markers: dict[int, dict] = {}
    queue: deque[tuple[PhaseNode, list[int]]] = deque([(root, [])])
    while queue:
        node, path = queue.popleft()
        addr = _head_address(blocks, node.head_block)
        if addr in markers:
            markers[addr]["additional_paths"].append(path)
        else:
            markers[addr] = {
                "phase_path": path,
                "mean_cpi": node.mean_cpi,
                "structure": node.structure.value,
                "additional_paths": [],
            }
        for i, child in enumerate(node.children):
            queue.append((child, path + [i]))
    return markers


# --- JSON interchange -------------------------------------------------------

def tree_to_dict(node: PhaseNode, blocks) -> dict:
    return {
        "head_block": node.head_block,
        "head_address": f"{_head_address(blocks, node.head_block):#x}",
        "start": node.start_instruction,
        "length": node.length_instructions,
        "occurrence": node.occurrence,
        "mean_cpi": node.mean_cpi,
        "structure": node.structure.value,
        "children": [tree_to_dict(c, blocks) for c in node.children],
    }


def _positional(value) -> bool:
    """value is no float, or 0, or 1e-4 <= |value| < 1e16: repr()'s
    positional range, the rule trace.float_reprs applies (NaN and inf are
    outside)."""
    return not isinstance(value, float) or value == 0 or 1e-4 <= abs(value) < 1e16


def _indented_json(payload, floats) -> str:
    """json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) plus a
    newline, byte for byte, from orjson's native encoder where it writes the
    same bytes (with indent, json runs its pure-Python encoder). floats
    yields every float the payload holds: the trees and marker tables
    written here hold floats only as mean_cpi.

    orjson differs on floats outside _positional's range (1e16 for 1e+16,
    null for NaN) and refuses ints beyond 64 bits and numpy scalars with
    TypeError: those payloads take json.dumps, which still raises ValueError
    on NaN and inf. orjson writes non-ASCII text as UTF-8 where json escapes
    it, so only ASCII payloads (hex addresses, fixed keys, enum values) come
    here; baseline.comparison_json (the trace path) and synth.scenario_json
    (segment labels) stay on json.dumps.
    """
    import orjson  # here, as in trace.float_reprs: importing the package skips it

    try:
        text = orjson.dumps(payload, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS)
    except TypeError:  # orjson.JSONEncodeError is a TypeError
        text = None
    if text is None or not all(map(_positional, floats)):
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    return text.decode() + "\n"


def tree_json(root: PhaseNode, blocks) -> str:
    """tree_to_dict(root, blocks) as indented JSON with sorted keys and a
    final newline, the bytes json.dumps writes (see _indented_json);
    ValueError on a NaN or infinite mean_cpi."""
    return _indented_json(tree_to_dict(root, blocks), (node.mean_cpi for node in root.walk()))


#: the f"{address:#x}" spelling of a non-negative address
_HEX_ADDRESS = re.compile(r"0x(0|[1-9a-f][0-9a-f]*)")


def tree_from_dict(obj: dict) -> tuple[PhaseNode, dict[int, int]]:
    """Rebuild a PhaseNode tree (plus a block_id -> address map) from the
    JSON object shape produced by tree_to_dict; ValueError on any other
    shape. head_block, start, length and occurrence must be integers within
    int64 (a bool, float or str is not), start at least 0, length and
    occurrence at least 1, mean_cpi a finite real number other than a bool,
    every child ordered inside its parent (validate_tree), and a head_block
    at one address, spelled as tree_to_dict writes it: 0x and lowercase hex
    digits without leading zeros."""
    addresses: dict[int, int] = {}

    def integer(entry: dict, key: str, sign: str = "") -> int:
        return check_number(key, entry[key], Integral, ValueError, sign)

    def build(entry: dict) -> PhaseNode:
        head = integer(entry, "head_block")
        text = entry["head_address"]
        if not _HEX_ADDRESS.fullmatch(text):
            raise ValueError(f"head_address must be written 0x<lowercase hex>, got {text!r}")
        address = int(text, 16)
        if addresses.setdefault(head, address) != address:
            raise ValueError(f"head_block {head} is given at two addresses")
        cpi = entry["mean_cpi"]
        check_number("mean_cpi", cpi, Real)
        return PhaseNode(
            head_block=head,
            start_instruction=integer(entry, "start", "non-negative"),
            length_instructions=integer(entry, "length", "positive"),
            mean_cpi=float(cpi),
            occurrence=integer(entry, "occurrence", "positive"),
            structure=Structure(entry["structure"]),
            children=[build(c) for c in entry.get("children", [])],
        )

    try:
        root = build(obj)
        validate_tree(root)
    except ValueError as exc:
        raise ValueError(f"malformed phase tree: {exc}") from None
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed phase tree: {type(exc).__name__}: {exc}") from None
    return root, addresses


def markers_json(markers: dict[int, dict]) -> str:
    """The export_markers table keyed by hex head address, as indented JSON
    with sorted keys and a final newline, the bytes json.dumps writes (see
    _indented_json); ValueError on a NaN or infinite mean_cpi."""
    payload = {f"{addr:#x}": marker for addr, marker in markers.items()}
    return _indented_json(payload, (marker["mean_cpi"] for marker in markers.values()))
