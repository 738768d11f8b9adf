"""Deterministic synthetic traces with scripted ground truth.

A scenario is the outermost segment group: an ordered list of segments
repeated a number of times. Each flat segment is one basic block executed
event_count times at a scripted CPI; any other segment nests an inner group.
The generator emits a golden-mode trace (optionally with quantum samples)
plus an annotation tree describing the phases it scripted, so analysis
results can be checked against known truth. phases.set_heads reads its head
blocks and structures off the trace, as it does an analyzed tree's.

Randomness (per-event CPI noise) comes from numpy's PCG64 generator seeded
from the scenario seed, so identical scenarios produce byte-identical
traces anywhere.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Optional

import numpy as np

from .attribution import quantum_cpis
from .phases import PhaseNode, set_heads
from .trace import _INT64_MAX, BlockDescriptor, ExecutionTrace, Terminator, check_number

_BASE_ADDRESS = 0x1000
_ADDRESS_PITCH = 0x100
_MIN_CPI = 0.05


class ScenarioError(ValueError):
    """A scenario spec violates its invariants or is not realizable."""


class EntryKind(enum.Enum):
    FALLTHROUGH = "fallthrough"
    BACKWARD_BRANCH = "backward_branch"
    CALL = "call"


@dataclass
class SegmentSpec:
    """One scripted segment: a flat block run, or a nested repeated group.

    Flat segments need block_cpi / block_instruction_count / event_count;
    nested segments ignore those and derive their body from the inner list
    repeated nested_repetitions times. entry_kind states how control reaches
    this segment and drives the generated predecessor terminators.
    """

    label: str
    block_cpi: Optional[float] = None
    block_instruction_count: Optional[int] = None
    event_count: Optional[int] = None
    entry_kind: EntryKind = EntryKind.FALLTHROUGH
    nested: Optional[list["SegmentSpec"]] = None
    nested_repetitions: int = 1

    @property
    def is_flat(self) -> bool:
        return not self.nested


@dataclass
class ScenarioSpec:
    segments: list[SegmentSpec]
    repetitions: int = 1
    noise_stddev: float = 0.0
    seed: int = 0
    quantum_length: Optional[int] = None


@dataclass
class GoldenAnnotation:
    true_phases: PhaseNode


#: entry kinds as the integer codes of a run layout
_KIND_CODE = {kind: code for code, kind in enumerate(EntryKind)}


def _plan(spec: ScenarioSpec) -> tuple[SegmentSpec, PhaseNode, list[list]]:
    """Check and measure the scenario in one walk that also builds its truth
    tree. Returns the scenario as its outermost group (spec.segments nested
    spec.repetitions times), its truth tree's root, and a [node, instruction
    it is entered at] row per node made: its start, or the start of the second
    pass for a repeated body's first node. phases.set_heads reads them."""
    if not spec.segments:
        raise ScenarioError("scenario needs at least one segment")
    check_number("repetitions", spec.repetitions, Integral, ScenarioError, "positive")
    check_number("noise_stddev", spec.noise_stddev, Real, ScenarioError, "non-negative")
    check_number("seed", spec.seed, Integral, ScenarioError, "non-negative")
    if spec.quantum_length is not None:
        check_number("quantum_length", spec.quantum_length, Integral, ScenarioError, "positive")

    rows: list[list] = []  # in preorder
    min_cpi = float("inf")

    def visit(seg: SegmentSpec, cursor: int, out: list[PhaseNode]) -> tuple[int, int, float]:
        """Check and measure one pass through seg, which starts at instruction
        cursor, and add its truth nodes to out; returns (events, instructions, cycles)."""
        nonlocal min_cpi
        if not seg.nested:
            if seg.block_cpi is None or seg.block_instruction_count is None or seg.event_count is None:
                raise ScenarioError(
                    f"segment {seg.label!r}: flat segment needs block_cpi, "
                    f"block_instruction_count and event_count"
                )
            for name, kind in (("block_cpi", Real), ("block_instruction_count", Integral),
                               ("event_count", Integral)):
                check_number(f"segment {seg.label!r}: {name}", getattr(seg, name), kind, ScenarioError,
                             "positive")
            # numpy numbers measure like Python ones: no int64 wrap, no float32
            events, cpi = int(seg.event_count), float(seg.block_cpi)
            min_cpi = min(min_cpi, cpi)
            instructions = events * int(seg.block_instruction_count)
            cycles = instructions * cpi
            if not math.isfinite(cycles):
                raise ScenarioError(
                    f"segment {seg.label!r}: its scripted cycles, block_cpi times its "
                    f"{instructions} instructions, overflow float64"
                )
            node = PhaseNode(-1, cursor, instructions, cycles / instructions)
            out.append(node)
            rows.append([node, cursor])
            return events, instructions, cycles

        reps = check_number(f"segment {seg.label!r}: nested_repetitions", seg.nested_repetitions,
                            Integral, ScenarioError, "positive")
        if reps >= 2:
            node = PhaseNode(-1, cursor, 0, math.nan, reps)
            out.append(node)
            rows.append([node, cursor])
            out = node.children
        # else a single pass through the group adds no level of its own
        body = len(rows)
        events = instructions = 0
        cycles = 0.0
        for inner in seg.nested:
            n_events, n_instructions, n_cycles = visit(inner, cursor + instructions, out)
            events += n_events
            instructions += n_instructions
            cycles += n_cycles
        if reps >= 2:
            node.length_instructions = instructions
            node.mean_cpi = cycles * reps / (instructions * reps)  # one pass's may round apart
            # the body's first node heads an iteration, re-entered where the second pass starts
            rows[body][1] = cursor + instructions
            if len(seg.nested) == 1 and seg.nested[0].is_flat:
                node.children = []  # its one flat segment is the node itself
        return events * reps, instructions * reps, cycles * reps

    top = SegmentSpec("", nested=spec.segments, nested_repetitions=spec.repetitions)
    children: list[PhaseNode] = []
    events, instructions, cycles = visit(top, 0, children)
    # checked before anything is allocated: the event columns are int64
    for what, total in (("events", events), ("instructions", instructions)):
        if total > _INT64_MAX:
            raise ScenarioError(f"scenario has {total} {what} in total, more than int64 holds")
    # the trace refuses a cycle sum beyond float64, and numpy only warns
    # where an event's cycles overflow: a flat segment's cycles are checked
    # in visit, which names it, and a group's add up into this total
    if not math.isfinite(cycles):
        raise ScenarioError("the scripted cycles of the whole scenario overflow float64")
    if spec.noise_stddev >= min_cpi:
        raise ScenarioError("noise_stddev must stay below the smallest segment CPI")
    if spec.repetitions >= 2:
        rows[0][1] = rows[0][0].end_instruction  # each repetition re-enters the scenario where one ends
    if len(spec.segments) == 1 and spec.segments[0].is_flat:
        children = []  # a repeated constant run is one phase
    root = PhaseNode(-1, 0, instructions, cycles / instructions, children=children)
    rows.append([root, 0])
    return top, root, rows


def _layout(segments: list[SegmentSpec], flat: dict[int, tuple[int, SegmentSpec]]) -> np.ndarray:
    """One pass through segments as int64 rows (flat-segment number, entry-kind
    code), one per run. flat maps a flat segment's id() to (its number, the
    segment), numbered on first appearance. A nested group tiles its inner
    rows, so no Python or numpy call is made per run."""
    pieces: list = [[]]  # row lists of consecutive flat segments, group arrays
    for seg in segments:
        if seg.nested:
            group = np.tile(_layout(seg.nested, flat), (seg.nested_repetitions, 1))
            # the group is entered from outside on its first iteration
            group[0, 1] = _KIND_CODE[seg.entry_kind]
            pieces += [group, []]
        else:
            number, _ = flat.setdefault(id(seg), (len(flat), seg))
            pieces[-1].append((number, _KIND_CODE[seg.entry_kind]))
    return np.concatenate([np.asarray(piece, dtype=np.int64).reshape(-1, 2) for piece in pieces])


def _assign_blocks(
    flat: list[SegmentSpec], runs: np.ndarray, kinds: np.ndarray
) -> dict[int, BlockDescriptor]:
    """Block table: block b is flat segment b, addressed in that order, with a
    terminator for how its successor is entered: its first call edge, else its
    first backward-branch edge, where edge j leaves run j for run j + 1."""

    def address(block_id: int) -> int:
        return _BASE_ADDRESS + block_id * _ADDRESS_PITCH

    # first[b, k]: the first edge from block b into a run entered by kind k,
    # or n_edges where there is none
    n_edges = len(runs) - 1
    first = np.full((len(flat), len(EntryKind)), n_edges, dtype=np.int64)
    np.minimum.at(first, (runs[:-1], kinds[1:]), np.arange(n_edges))
    call_edges = first[:, _KIND_CODE[EntryKind.CALL]].tolist()
    back_edges = first[:, _KIND_CODE[EntryKind.BACKWARD_BRANCH]].tolist()

    blocks: dict[int, BlockDescriptor] = {}
    for bid, seg in enumerate(flat):
        call, back = call_edges[bid], back_edges[bid]
        if call < n_edges:
            terminator, target = Terminator.CALL, address(int(runs[call + 1]))
        elif back < n_edges:
            target = address(int(runs[back + 1]))
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
    return blocks


def generate(spec: ScenarioSpec) -> tuple[ExecutionTrace, GoldenAnnotation]:
    """Emit (golden trace, scripted annotation) for a scenario.

    The layout holds every run of the trace, the scenario's repetitions
    included, as its outermost group. Event cycles are block_cpi *
    instruction_count with optional Gaussian CPI noise (clamped so CPI
    never drops below 0.05); quantum records, when requested, are computed
    exactly from the noisy events. phases.set_heads then reads the annotation's
    head blocks and structures off the validated trace. A scenario nested past
    the interpreter's recursion limit raises ScenarioError, raised from the
    RecursionError.
    """
    try:
        # _plan and _layout recurse once per level
        top, root, rows = _plan(spec)
        numbered: dict[int, tuple[int, SegmentSpec]] = {}
        runs, kinds = _layout([top], numbered).T
        flat = [seg for _, seg in numbered.values()]
        blocks = _assign_blocks(flat, runs, kinds)
    except RecursionError as exc:
        raise ScenarioError(f"scenario is nested too deeply: {exc}") from exc

    # runs expand into events, which read their block's scripted numbers
    block_events = np.array([seg.event_count for seg in flat], dtype=np.int64)
    event_block = np.repeat(runs, block_events[runs])
    del runs, kinds  # the layout, a row per run, goes once expanded
    event_instr = np.array([seg.block_instruction_count for seg in flat], dtype=np.int64)[event_block]
    if spec.quantum_length is not None:
        # the quanta read the instruction prefix sums, taken before event_instr goes
        starts = np.zeros(event_instr.size + 1, dtype=np.int64)
        np.cumsum(event_instr, out=starts[1:])
    # each event's CPI, made its cycle count in place: no spare column is left for the trace
    cpis = np.array([seg.block_cpi for seg in flat], dtype=float)
    cycles = cpis[event_block]
    if spec.noise_stddev > 0:
        rng = np.random.Generator(np.random.PCG64(spec.seed))
        noise = rng.normal(0.0, spec.noise_stddev, size=cycles.size)
        # noise near float64's range overflows a CPI, a cycle count or their
        # sum, which _plan bounded only for the scripted CPIs
        with np.errstate(over="ignore"):
            cycles += noise
            np.maximum(cycles, _MIN_CPI, out=cycles)
            cycles *= event_instr
            cycle_sum = cycles.sum()
        if not math.isfinite(cycle_sum):
            bad = np.flatnonzero(~np.isfinite(cycles))
            where = "the trace's cycle sum"
            if bad.size:
                k = int(bad[0])
                cpi = float(cpis[event_block[k]]) + float(noise[k])  # as the in-place sum made it
                where = f"the {'cycle count' if math.isfinite(cpi) else 'CPI'} of event {k}"
            raise ScenarioError(f"noise_stddev {spec.noise_stddev!r} overflows float64 in {where}")
        del noise
    else:
        cycles *= event_instr
    del event_instr

    quanta = None
    if spec.quantum_length is not None:
        # quanta come from the event columns directly, so the trace is built
        # and validated once, with them
        quanta = quantum_cpis(starts, cycles, spec.quantum_length)
        del starts
        quanta.flags.writeable = False
    # read-only, the trace adopts the columns without a copy
    event_block.flags.writeable = cycles.flags.writeable = False
    trace = ExecutionTrace(
        blocks=blocks,
        event_blocks=event_block,
        event_cycles=cycles,
        quanta=quanta,
        quantum_length=spec.quantum_length,
    )
    set_heads(trace, *zip(*rows))  # the nodes, and the instruction each is entered at
    return trace, GoldenAnnotation(root)


# --- scenario JSON ----------------------------------------------------------

def _segment_from_dict(obj: dict) -> SegmentSpec:
    nested = obj.get("nested")
    return SegmentSpec(
        label=str(obj.get("label", "")),
        block_cpi=obj.get("block_cpi"),
        block_instruction_count=obj.get("block_instruction_count"),
        event_count=obj.get("event_count"),
        entry_kind=EntryKind(obj.get("entry_kind", "fallthrough")),
        nested=[_segment_from_dict(s) for s in nested] if nested else None,
        nested_repetitions=obj.get("nested_repetitions", 1),
    )


def scenario_from_json(text: str) -> ScenarioSpec:
    try:
        obj = json.loads(text)
        return ScenarioSpec(
            segments=[_segment_from_dict(s) for s in obj["segments"]],
            repetitions=obj.get("repetitions", 1),
            noise_stddev=obj.get("noise_stddev", 0.0),
            seed=obj.get("seed", 0),
            quantum_length=obj.get("quantum_length"),
        )
    except RecursionError as exc:  # JSON nested past the interpreter's recursion limit
        raise ScenarioError(f"scenario is nested too deeply: {exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # json.JSONDecodeError too
        raise ScenarioError(f"invalid scenario JSON: {exc}") from None


def _segment_to_dict(seg: SegmentSpec) -> dict:
    out: dict = {"label": seg.label, "entry_kind": seg.entry_kind.value}
    if seg.nested:
        out["nested"] = [_segment_to_dict(s) for s in seg.nested]
        out["nested_repetitions"] = seg.nested_repetitions
    else:
        out["block_cpi"] = seg.block_cpi
        out["block_instruction_count"] = seg.block_instruction_count
        out["event_count"] = seg.event_count
    return out


def scenario_json(spec: ScenarioSpec) -> str:
    """The spec as indented JSON with sorted keys and a final newline;
    ValueError on a NaN or infinite number, which JSON cannot spell."""
    payload = {
        "segments": [_segment_to_dict(s) for s in spec.segments],
        "repetitions": spec.repetitions,
        "noise_stddev": spec.noise_stddev,
        "seed": spec.seed,
    }
    if spec.quantum_length is not None:
        payload["quantum_length"] = spec.quantum_length
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
