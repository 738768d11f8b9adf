"""Fixed time-quantum phase analysis and prediction-error metrics.

The TQ baseline chops the execution into fixed-length instruction quanta,
measures each quantum's CPI, and greedily merges consecutive quanta whose
CPI stays within merge_delta of the running phase mean, run-length coding
the quanta. The TQ phase list and a phase tree both render back into a
predicted CPI waveform, scored against the golden waveform with MAPE.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import accumulate
from numbers import Integral, Real
from typing import Union

import numpy as np

from .attribution import Waveform, _grid_stride, quantum_cpis, sample_grid, sample_range
from .phases import PhaseNode, validate_tree
from .trace import ExecutionTrace, check_number


@dataclass
class TqPhaseList:
    """phases[p] = (quantum count, mean CPI): phase p starts where p - 1 ends."""

    quantum_length: int
    phases: list[tuple[int, float]]


@dataclass
class ErrorReport:
    mean_absolute_percentage_error: float


def tq_phases(
    trace: ExecutionTrace, quantum_length: int, merge_delta: float
) -> TqPhaseList:
    """Greedy merge of fixed-length quanta into phases of similar CPI.

    A quantum joins the current phase while its CPI is within merge_delta of
    the phase's running mean. Per-quantum CPI comes from the trace's quantum
    records when they give the same quanta, else exactly from golden cycles.
    """
    quantum_length = check_number("quantum_length", quantum_length, Integral, ValueError, "positive")
    check_number("merge_delta", merge_delta, Real, ValueError, "positive")
    total = trace.total_instructions

    # every length at or past the run's end cuts it into one quantum
    if trace.quanta is not None and min(trace.quantum_length, total) == min(quantum_length, total):
        cpis = trace.quanta
    elif trace.is_golden:
        cpis = quantum_cpis(trace.event_starts, trace.event_cycles, quantum_length)
    else:
        raise ValueError(
            "need golden cycles or quantum records matching quantum_length"
        )

    # Python floats: the same IEEE arithmetic as numpy scalars, unboxed
    values = cpis.tolist()
    phases = []
    acc, count = values[0], 1
    for cpi in values[1:]:
        if abs(cpi - acc / count) <= merge_delta:
            acc += cpi
            count += 1
        else:
            phases.append((count, acc / count))
            acc, count = cpi, 1
    phases.append((count, acc / count))
    return TqPhaseList(quantum_length, phases)


def _render_tree(
    node: PhaseNode, offsets: np.ndarray, mask: np.ndarray, values: np.ndarray
) -> None:
    """Fill values[mask] with the deepest phase mean covering each offset.

    A repeating child (occurrence >= 2) tiles periodically, anchored at its
    start, across the stretch of its parent between the previous sibling's
    extent and the next sibling's start; offsets before the anchor fold into
    the wrapped pattern instance. A sibling's extent ends occurrence x length
    after its start, so an only child tiles its whole parent.
    """
    values[mask] = node.mean_cpi
    children = node.children
    lo = node.start_instruction
    for i, child in enumerate(children):
        start, length, occurrence = child.start_instruction, child.length_instructions, child.occurrence
        if occurrence >= 2:
            hi = children[i + 1].start_instruction if i + 1 < len(children) else node.end_instruction
        else:
            lo, hi = start, start + length
        span = offsets >= lo
        span &= offsets < hi
        span &= mask
        lo = start + occurrence * length
        if not span.any():
            continue
        folded = offsets
        if occurrence >= 2:
            # start + (offsets - start) mod length, as offsets less whole
            # periods: numpy's integer floor division outruns its remainder
            folded = offsets - start
            folded //= length
            folded *= length
            np.subtract(offsets, folded, out=folded)
        _render_tree(child, folded, span, values)


def predict_waveform(
    source: Union[PhaseNode, TqPhaseList], total_instructions: int, resolution: int
) -> Waveform:
    """Render a method's piecewise-constant CPI prediction over the run,
    sampled on the same grid build_waveform uses.

    A TQ phase list predicts the sample at offset x by the phase holding
    quantum x // quantum_length. Its counts, positive integers within int64,
    must sum to the run's quanta and its means be finite reals (ValueError
    naming the phase); phase p, ending at quantum e_p (the counts up to p
    summed), then is the step up to instruction min(e_p x quantum_length,
    total_instructions). A phase tree predicts each sample by the deepest
    node covering it (see _render_tree), once validate_tree accepts it and
    its root is [0, total_instructions) (ValueError otherwise)."""
    _grid_stride(0, total_instructions, resolution)  # the grid's checks first, on both branches

    if isinstance(source, TqPhaseList):
        length = check_number("quantum_length", source.quantum_length, Integral, ValueError, "positive")
        quanta = -(-total_instructions // length)
        untiled = f"TQ phases must tile the run's {quanta} quanta"
        if not source.phases:
            raise ValueError(untiled)
        counts, means = zip(*source.phases, strict=True)
        # a bool is an int and numpy reads "1.5" as 1.5: only tq_phases' plain pairs
        # skip check_number (a float sum is finite only when every term is)
        if not (set(map(type, counts)) == {int} and set(map(type, means)) == {float}
                and math.isfinite(sum(means))):
            for p, (count, mean) in enumerate(zip(counts, means)):
                check_number(f"TQ phase {p}: quantum count", count, Integral, ValueError, "positive")
                check_number(f"TQ phase {p}: mean CPI", mean, Real)
            counts = list(map(int, counts))  # exact sums: numpy integers would wrap
        ends = list(accumulate(counts))
        if min(counts) < 1 or ends[-1] != quanta:
            raise ValueError(untiled)
        # only the last phase ends at or past the run's end
        bounds = np.array([0, *[end * length for end in ends[:-1]], total_instructions], dtype=np.int64)
        return sample_range(bounds, np.array(means, dtype=float), 0, total_instructions, resolution)
    if not isinstance(source, PhaseNode):
        raise TypeError(f"cannot render {type(source).__name__}")
    validate_tree(source)
    if (source.start_instruction, source.end_instruction) != (0, total_instructions):
        raise ValueError(f"phase tree root [{source.start_instruction}, {source.end_instruction}) "
                         f"must cover the run [0, {total_instructions})")

    offsets, stride = sample_grid(0, total_instructions, resolution)
    values = np.empty(offsets.size, dtype=float)
    _render_tree(source, offsets, np.ones(offsets.size, dtype=bool), values)
    return Waveform(
        samples=values,
        sample_stride=stride,
        origin_instruction=0,
    )


def error_rate(predicted: Waveform, golden: Waveform) -> ErrorReport:
    """Mean absolute percentage error of a prediction against the golden
    waveform, per sample on the shared instruction grid. The caller keeps
    which method made the prediction (comparison_json takes it per row).

    ValueError when the MAPE is not finite. Samples are finite (Waveform),
    so a term is not finite only when the golden CPI g is 0 or the term
    overflows: the error names the offset of the first such sample and the
    predicted CPI p when it lies further from 1 by ratio than g does
    (|p| x g > 1), else g (0, or so small that the term overflows). When
    every term is finite it says the mean overflows."""
    if (
        predicted.samples.size != golden.samples.size
        or predicted.sample_stride != golden.sample_stride
        or predicted.origin_instruction != golden.origin_instruction
    ):
        raise ValueError("waveforms must share grid (resolution and extent)")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        errors = predicted.samples - golden.samples
        np.abs(errors, out=errors)
        errors /= golden.samples
        errors *= 100.0
        # the sum and division errors.mean() runs, bit for bit
        mape = float(np.add.reduce(errors) / errors.size)
    if not math.isfinite(mape):
        undefined = np.flatnonzero(~np.isfinite(errors))
        if undefined.size:
            k = int(undefined[0])
            p, g = float(predicted.samples[k]), float(golden.samples[k])
            side, cpi = ("predicted", p) if abs(p) * g > 1 else ("golden", g)
            raise ValueError(
                f"{side} CPI is {cpi!r} at instruction offset "
                f"{int(golden.sample_offsets[k])}, where MAPE is undefined"
            )
        raise ValueError("MAPE overflows float64")
    return ErrorReport(mape)


def comparison_json(trace_name: str, methods: list[tuple[str, float, int]]) -> str:
    """Comparison report: one (label, MAPE in percent, phase count) row per
    method, in the order given."""
    payload = {
        "trace": trace_name,
        "methods": [
            {"label": label, "mape_percent": mape, "phase_count": phase_count}
            for label, mape, phase_count in methods
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
