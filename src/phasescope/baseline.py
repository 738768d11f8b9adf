"""Fixed time-quantum phase analysis and prediction-error metrics.

The TQ baseline chops the execution into fixed-length instruction quanta,
measures each quantum's CPI, and greedily merges consecutive quanta whose
CPI stays within merge_delta of the running phase mean. Both the TQ phase
list and a phase tree can be rendered back into a predicted CPI waveform
and scored against the golden waveform with MAPE.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Integral
from typing import Union

import numpy as np

from .attribution import EventIndex, Waveform, quantum_cpis
from .phases import PhaseNode
from .trace import ExecutionTrace


@dataclass(frozen=True)
class TqPhase:
    start_quantum: int
    quantum_count: int
    mean_cpi: float


@dataclass
class TqPhaseList:
    quantum_length: int
    phases: list[TqPhase]


@dataclass
class ErrorReport:
    mean_absolute_percentage_error: float
    method_label: str


def tq_phases(
    trace: ExecutionTrace, quantum_length: int, merge_delta: float
) -> TqPhaseList:
    """Greedy merge of fixed-length quanta into phases of similar CPI.

    A quantum joins the current phase while its CPI is within merge_delta of
    the phase's running mean. Per-quantum CPI comes from the trace's quantum
    records when they match quantum_length, else exactly from golden cycles.
    """
    if merge_delta <= 0:
        raise ValueError("merge_delta must be positive")
    if quantum_length < 1:
        raise ValueError("quantum_length must be positive")
    total = trace.total_instructions
    if quantum_length > total:
        quantum_length = total  # degenerate request: one quantum spans the run

    if trace.has_quanta and trace.quantum_length == quantum_length:
        cpis = trace.quanta
    elif trace.is_golden:
        cpis = quantum_cpis(EventIndex.from_trace(trace), quantum_length)
    else:
        raise ValueError(
            "need golden cycles or quantum records matching quantum_length"
        )

    # Python floats: the same IEEE arithmetic as numpy scalars, unboxed
    values = cpis.tolist()
    phases: list[TqPhase] = []
    start, acc, count = 0, values[0], 1
    for q, cpi in enumerate(values[1:], start=1):
        if abs(cpi - acc / count) <= merge_delta:
            acc += cpi
            count += 1
        else:
            phases.append(TqPhase(start, count, acc / count))
            start, acc, count = q, cpi, 1
    phases.append(TqPhase(start, count, acc / count))
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
        length = child.length_instructions
        if child.occurrence >= 2:
            hi = children[i + 1].start_instruction if i + 1 < len(children) else node.end_instruction
            span = mask & (offsets >= lo) & (offsets < hi)
            folded = child.start_instruction + (offsets - child.start_instruction) % length
        else:
            span = mask & (offsets >= child.start_instruction) & (
                offsets < child.end_instruction
            )
            folded = offsets
        lo = child.start_instruction + child.occurrence * length
        if not span.any():
            continue
        _render_tree(child, folded, span, values)


def predict_waveform(
    source: Union[PhaseNode, TqPhaseList], total_instructions: int, resolution: int
) -> Waveform:
    """Render a method's piecewise-constant CPI prediction over the run,
    sampled on the same grid build_waveform uses."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    stride = math.ceil(total_instructions / resolution)
    offsets = np.arange(0, total_instructions, stride, dtype=np.int64)

    if isinstance(source, TqPhaseList):
        length = source.quantum_length
        if isinstance(length, bool) or not isinstance(length, Integral) or length < 1:
            raise ValueError(f"quantum_length must be a positive integer, got {length!r}")
        # each quantum is predicted by exactly one phase: the phases follow
        # one another from quantum 0 and end at the run's last quantum
        quanta = math.ceil(total_instructions / source.quantum_length)
        untiled = f"TQ phases must tile the run's {quanta} quanta in order"
        end = 0
        for phase in source.phases:
            if phase.start_quantum != end or phase.quantum_count < 1:
                raise ValueError(untiled)
            end += phase.quantum_count
        if end != quanta:
            raise ValueError(untiled)
        per_quantum = np.repeat(
            np.array([phase.mean_cpi for phase in source.phases], dtype=float),
            [phase.quantum_count for phase in source.phases],
        )
        values = per_quantum[offsets // source.quantum_length]
    elif isinstance(source, PhaseNode):
        values = np.empty(offsets.size, dtype=float)
        _render_tree(source, offsets, np.ones(offsets.size, dtype=bool), values)
    else:
        raise TypeError(f"cannot render {type(source).__name__}")

    return Waveform(
        samples=values,
        sample_stride=stride,
        origin_instruction=0,
    )


def error_rate(predicted: Waveform, golden: Waveform, label: str = "") -> ErrorReport:
    """Mean absolute percentage error of a prediction against the golden
    waveform, per sample on the shared instruction grid."""
    if (
        predicted.samples.size != golden.samples.size
        or predicted.sample_stride != golden.sample_stride
        or predicted.origin_instruction != golden.origin_instruction
    ):
        raise ValueError("waveforms must share grid (resolution and extent)")
    errors = np.abs(predicted.samples - golden.samples) / golden.samples * 100.0
    return ErrorReport(float(errors.mean()), label)


def comparison_json(trace_name: str, reports: list[tuple[ErrorReport, int]]) -> str:
    """Comparison report: one (MAPE, phase count) record per method."""
    payload = {
        "trace": trace_name,
        "methods": [
            {
                "label": report.method_label,
                "mape_percent": report.mean_absolute_percentage_error,
                "phase_count": phase_count,
            }
            for report, phase_count in reports
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
