"""phasescope: hierarchical program phase detection from basic-block
CPI traces via frequency-domain analysis, with a time-quantum baseline."""

from .attribution import (
    EventIndex,
    Waveform,
    attribute_block_cpi,
    build_waveform,
    golden_waveform,
    quantum_cpis,
)
from .baseline import ErrorReport, TqPhaseList, error_rate, predict_waveform, tq_phases
from .phases import (
    AnalysisConfig,
    PhaseNode,
    Structure,
    align_phase,
    analyze,
    classify_structure,
    export_markers,
    split_step,
)
from .spectral import dft_magnitude, is_flat, main_spectrum
from .synth import EntryKind, GoldenAnnotation, ScenarioSpec, SegmentSpec, generate
from .trace import (
    BlockDescriptor,
    ExecutionTrace,
    Terminator,
    TraceFormatError,
    load_trace,
    parse_trace,
    save_trace,
    serialize_trace,
)

__all__ = [
    "AnalysisConfig",
    "BlockDescriptor",
    "EntryKind",
    "ErrorReport",
    "EventIndex",
    "ExecutionTrace",
    "GoldenAnnotation",
    "PhaseNode",
    "ScenarioSpec",
    "SegmentSpec",
    "Structure",
    "Terminator",
    "TqPhaseList",
    "TraceFormatError",
    "Waveform",
    "align_phase",
    "analyze",
    "attribute_block_cpi",
    "build_waveform",
    "classify_structure",
    "dft_magnitude",
    "error_rate",
    "export_markers",
    "generate",
    "golden_waveform",
    "is_flat",
    "load_trace",
    "main_spectrum",
    "parse_trace",
    "predict_waveform",
    "quantum_cpis",
    "save_trace",
    "serialize_trace",
    "split_step",
    "tq_phases",
]

__version__ = "0.1.0"
