"""Per-layer spans, recorded by wrapping phasescope's public functions.

Each site names a function at the place its caller looks it up, e.g.
``phasescope.cli:golden_waveform`` is the name `phasescope compare`
resolves, while ``phasescope.attribution:golden_waveform`` is the one a
library caller resolves. Only ``phasescope.phases:sample_range`` is wrapped,
so `attribution.sample` holds the per-segment sampling of `phases.analyze`
alone; whole-trace sampling stays inside the `attribution.waveform` span.
Installing replaces the name there with a wrapper that records a
span (name, start, end, parent) and optional counts. A site whose module or
name no longer exists is reported as absent and its spans read as zero, so
the benchmark keeps running after the program drops a function.

The layer of a span is the part of its name before the first dot; the
layers are phasescope's modules.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

LAYERS = ("trace", "synth", "attribution", "spectral", "phases", "baseline", "cli")


#: (site, span name, counter) where counter maps (args, result) to
#: {count name: amount}; every span also counts its calls
SITES: list[tuple[str, str, Optional[Callable]]] = [
    ("phasescope.cli:main", "cli.main", None),
    ("phasescope.cli:load_trace", "trace.parse",
     lambda args, result: {"events": len(result.events), "bytes": os.path.getsize(args[0])}),
    ("phasescope.trace:serialize_trace", "trace.serialize", None),
    ("phasescope.synth:generate", "synth.generate", None),
    ("phasescope.synth:quantum_cpis", "attribution.quantum_cpis", None),
    ("phasescope.baseline:quantum_cpis", "attribution.quantum_cpis", None),
    ("phasescope.phases:attribute_block_cpi", "attribution.attribute", None),
    ("phasescope.attribution:EventIndex.from_trace", "attribution.index", None),
    ("phasescope.phases:sample_range", "attribution.sample", None),
    ("phasescope.cli:golden_waveform", "attribution.waveform", None),
    ("phasescope.attribution:golden_waveform", "attribution.waveform", None),
    ("phasescope.phases:dft_magnitude", "spectral.dft", None),
    ("phasescope.phases:is_flat", "spectral.flat", lambda args, result: {"flat": int(bool(result))}),
    ("phasescope.phases:main_spectrum", "spectral.main_bin", None),
    ("phasescope.phases:analyze", "phases.analyze", lambda args, result: {"nodes": sum(1 for _ in result.walk())}),
    ("phasescope.phases:align_phase", "phases.align", lambda args, result: {"candidates": len(args[1])}),
    ("phasescope.phases:split_step", "phases.split", None),
    ("phasescope.phases:tree_json", "phases.json", None),
    ("phasescope.phases:export_markers", "phases.json", None),
    ("phasescope.phases:markers_json", "phases.json", None),
    ("phasescope.baseline:tq_phases", "baseline.tq", lambda args, result: {"phases": len(result.phases)}),
    ("phasescope.baseline:predict_waveform", "baseline.predict", None),
    ("phasescope.baseline:error_rate", "baseline.error", None),
]


class Tracer:
    """Spans kept in memory for one process; summarize() folds them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.broken_counters: set[str] = set()
        self._stack: list[int] = []

    def wrap(self, fn: Callable, name: str, counter: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            self.counts[f"{name}.calls"] += 1
            if counter is not None:
                try:
                    for key, amount in counter(args, result).items():
                        self.counts[f"{name}.{key}"] += amount
                except (AttributeError, TypeError, IndexError, OSError):
                    # the program changed what this count reads
                    self.broken_counters.add(name)
            return result

        return traced

    def summarize(self) -> dict:
        """Totals per span name, self time per layer, counts.

        A span's self time is its duration minus its direct children's;
        a layer's self time sums that over the layer's spans, so the
        layers' self times add up to the traced wall time.
        """
        total: defaultdict = defaultdict(float)
        self_time: defaultdict = defaultdict(float)
        for name, start, end, parent in self.spans:
            duration = end - start
            total[name] += duration
            self_time[name.split(".", 1)[0]] += duration
            if parent >= 0:
                self_time[self.spans[parent][0].split(".", 1)[0]] -= duration
        return {
            "total_s": dict(total),
            "self_s": dict(self_time),
            "counts": dict(self.counts),
            "wall_s": sum(end - start for _, start, end, parent in self.spans if parent < 0),
            "broken_counters": sorted(self.broken_counters),
        }


def install(tracer: Tracer, sites=SITES) -> tuple[list[str], Callable[[], None]]:
    """Wrap every site that exists; return (absent sites, uninstall)."""
    absent: list[str] = []
    undo: list[tuple[object, str, object]] = []
    for site, name, counter in sites:
        module_name, _, path = site.partition(":")
        *owners, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owners:
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            absent.append(site)
            continue
        # read the raw attribute so classmethods and staticmethods keep their kind
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            absent.append(site)
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(tracer.wrap(raw.__func__, name, counter))
        else:
            replacement = tracer.wrap(raw, name, counter)
        undo.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def uninstall() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return absent, uninstall


def merge(summaries: list[dict]) -> dict:
    """Sum the summaries of the processes that made up one pass."""
    out = {"total_s": Counter(), "self_s": Counter(), "counts": Counter(), "wall_s": 0.0,
           "broken_counters": set()}
    for summary in summaries:
        for key in ("total_s", "self_s", "counts"):
            out[key].update(summary[key])
        out["wall_s"] += summary["wall_s"]
        out["broken_counters"].update(summary["broken_counters"])
    out["broken_counters"] = sorted(out["broken_counters"])
    return out


def layer_metrics(summary: dict) -> dict[str, float]:
    """The benchmark's per-layer metrics from one pass's merged summary;
    spans that never ran read as zero."""
    total = summary["total_s"]
    counts = summary["counts"]

    def t(name: str) -> float:
        return float(total.get(name, 0.0))

    def c(name: str) -> int:
        return int(counts.get(name, 0))

    flat_calls = c("spectral.flat.calls")
    metrics = {
        "trace.parse_s": t("trace.parse"),
        "trace.events": c("trace.parse.events"),
        "trace.bytes": c("trace.parse.bytes"),
        "trace.serialize_s": t("trace.serialize"),
        "synth.generate_s": t("synth.generate"),
        "attribution.attribute_s": t("attribution.attribute"),
        "attribution.index_builds": c("attribution.index.calls"),
        "attribution.index_s": t("attribution.index"),
        "attribution.sample_s": t("attribution.sample"),
        "attribution.waveform_s": t("attribution.waveform"),
        "attribution.quantum_cpis_s": t("attribution.quantum_cpis"),
        "spectral.dft_s": t("spectral.dft"),
        "spectral.segments": c("spectral.dft.calls"),
        "spectral.flat_frac": c("spectral.flat.flat") / flat_calls if flat_calls else 0.0,
        "phases.analyze_s": t("phases.analyze"),
        "phases.nodes": c("phases.analyze.nodes"),
        "phases.align_s": t("phases.align"),
        "phases.align_calls": c("phases.align.calls"),
        "phases.candidates": c("phases.align.candidates"),
        "phases.split_s": t("phases.split"),
        "phases.json_s": t("phases.json"),
        "baseline.tq_s": t("baseline.tq"),
        "baseline.tq_phases": c("baseline.tq.phases"),
        "baseline.predict_s": t("baseline.predict"),
        "baseline.error_s": t("baseline.error"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = float(summary["self_s"].get(layer, 0.0))
    return metrics


#: spans whose work is done once per analyzed segment
SEGMENT_SPANS = ("attribution.sample", "spectral.dft", "spectral.flat", "spectral.main_bin",
                 "phases.align", "phases.split")


def shares(summary: dict) -> dict[str, float]:
    """Shares of the traced wall time held by the trace and attribution
    layers (self time) and by the per-segment spans, and the per-segment
    spans' share of phases.analyze."""
    wall = summary["wall_s"]
    layer_self = summary["self_s"]
    total = summary["total_s"]
    per_segment = sum(total.get(name, 0.0) for name in SEGMENT_SPANS)
    analyze = total.get("phases.analyze", 0.0)
    return {
        "trace_attribution": (layer_self.get("trace", 0.0) + layer_self.get("attribution", 0.0)) / wall
        if wall > 0 else 0.0,
        "per_segment": per_segment / wall if wall > 0 else 0.0,
        "per_segment_of_analyze": per_segment / analyze if analyze > 0 else 0.0,
    }
