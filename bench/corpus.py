"""One pass of the hier-corpus workload, run in its own process.

    python3 bench/corpus.py --seed N [--trace]

Generates the corpus (set-up: generate plus serialize_trace), analyzes
every scenario and serializes its tree and markers (analyze), then scores
each tree and the two default time-quantum configurations against the
golden waveform (compare); analyze and compare run CORPUS_REPEATS times
over the one set-up, as a caller analyzing many small traces in one process
would.
Prints one JSON object with the timings, output hashes, accuracy, input
sizes, failures and, with --trace, the per-layer span summary. The peak
memory of the pass is read by the parent from this process's rusage.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import sys
import time
import traceback

import reference
import spans
import truth
import workloads

MERGE_DELTA = 0.1  # the CLI's default --merge-delta


def analyze_corpus(generated: list) -> tuple[float, list]:
    """Analyze every trace and serialize its tree and markers:
    (seconds, [(tree, tree JSON, markers JSON)])."""
    from phasescope import phases

    start = time.perf_counter()
    analyzed = []
    for trace, _ in generated:
        tree = phases.analyze(trace)
        tree_text = phases.tree_json(tree, trace.blocks)
        markers_text = phases.markers_json(phases.export_markers(tree, trace.blocks))
        analyzed.append((tree, tree_text, markers_text))
    return time.perf_counter() - start, analyzed


def compare_corpus(generated: list, analyzed: list) -> tuple[float, list, tuple]:
    """Score each tree and the two default TQ configurations against the
    golden waveform: (seconds, tree MAPEs, (TQ D/64 MAPEs, TQ D/8 MAPEs))."""
    from phasescope import attribution, baseline

    start = time.perf_counter()
    tree_mapes, tq_mapes = [], ([], [])
    for (trace, _), (tree, _, _) in zip(generated, analyzed):
        total = trace.total_instructions
        golden = attribution.golden_waveform(trace, truth.RESOLUTION)
        predicted = baseline.predict_waveform(tree, total, truth.RESOLUTION)
        tree_mapes.append(baseline.error_rate(predicted, golden).mean_absolute_percentage_error)
        for mapes, quantum in zip(tq_mapes, (max(1, total // 64), max(1, total // 8))):
            tq = baseline.tq_phases(trace, quantum, MERGE_DELTA)
            predicted = baseline.predict_waveform(tq, total, truth.RESOLUTION)
            mapes.append(baseline.error_rate(predicted, golden).mean_absolute_percentage_error)
    return time.perf_counter() - start, tree_mapes, tq_mapes


def run_pass(seed: int, size: int, repeats: int = 1) -> dict:
    """Set up once, then analyze and compare the corpus `repeats` times;
    every repetition must give the first one's outputs."""
    from phasescope import phases, synth
    from phasescope import trace as trace_module

    corpus = workloads.hier_corpus(seed, size)
    out: dict = {"failed": [], "errors": []}
    for op in ("setup", "analyze", "compare"):
        out[f"{op}_s"], out[f"{op}_ref"] = [], []

    before = reference.time_in_process()

    def timed(op: str, job):
        """Run job between two runs of the reference job; keep its time and
        the mean of theirs. In-process operations are short enough that the
        host's speed can change within one, so one run before is not enough."""
        nonlocal before
        elapsed, *result = job()
        after = reference.time_in_process()
        out[f"{op}_s"].append(elapsed)
        out[f"{op}_ref"].append((before + after) / 2)
        before = after
        return result

    def fail(op: str) -> None:
        out["failed"].append(op)
        out["errors"].append(f"{op}: {traceback.format_exc(limit=3)}")

    def set_up():
        start = time.perf_counter()
        inputs_hash = hashlib.sha256()
        trace_bytes = 0
        generated = []
        for scenario in corpus:
            trace, annotation = synth.generate(synth.scenario_from_json(json.dumps(scenario)))
            text = trace_module.serialize_trace(trace).encode()
            inputs_hash.update(text)
            trace_bytes += len(text)
            generated.append((trace, annotation))
        return time.perf_counter() - start, generated, inputs_hash, trace_bytes

    try:
        generated, inputs_hash, trace_bytes = timed("setup", set_up)
    except Exception:
        fail("setup")
        out["failed"] += ["analyze", "compare"]
        return out

    sizes = [workloads.input_sizes(s) for s in corpus]
    out["inputs"] = {
        "corpus_size": size,
        "events": sum(s["events"] for s in sizes),
        "instructions": sum(s["instructions"] for s in sizes),
        "distinct_blocks": sum(s["distinct_blocks"] for s in sizes),
        "trace_bytes": trace_bytes,
    }
    out["sha256"] = {"inputs": inputs_hash.hexdigest()}

    try:
        first = None
        for _ in range(repeats):
            analyzed, = timed("analyze", lambda: analyze_corpus(generated))
            if first is None:
                first = analyzed
            elif [a[1:] for a in analyzed] != [f[1:] for f in first]:
                raise ValueError("a repeated analysis gave different output")

        tree_hash, markers_hash = hashlib.sha256(), hashlib.sha256()
        recovered = scripted = 0
        for (trace, annotation), (_, tree_text, markers_text) in zip(generated, first):
            tree_hash.update(tree_text.encode())
            markers_hash.update(markers_text.encode())
            tree_obj = truth.load_strict(tree_text)
            truth.load_strict(markers_text)
            truth.check_tree(tree_obj)
            hit, n = truth.truth_recall(
                tree_obj, phases.tree_to_dict(annotation.true_phases, trace.blocks))
            recovered += hit
            scripted += n
        out["sha256"].update(tree=tree_hash.hexdigest(), markers=markers_hash.hexdigest())
        out["truth_recall"] = recovered / scripted
    except Exception:
        fail("analyze")
        out["failed"].append("compare")
        return out

    try:
        scores = None
        for _ in range(repeats):
            repeat_scores = timed("compare", lambda: compare_corpus(generated, first))
            if scores is not None and repeat_scores != scores:
                raise ValueError("a repeated comparison gave different MAPEs")
            scores = repeat_scores
        tree_mapes, tq_mapes = scores
        out["sha256"]["scores"] = hashlib.sha256(json.dumps(scores).encode()).hexdigest()
        if not all(math.isfinite(m) and m > 0 for m in tree_mapes + tq_mapes[0] + tq_mapes[1]):
            raise ValueError("a MAPE is not a positive finite number")
        out["tree_mape_pct"] = statistics.fmean(tree_mapes)
        out["tq_mape_pct"] = min(statistics.fmean(m) for m in tq_mapes)
    except Exception:
        fail("compare")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true", help="record per-layer spans")
    args = parser.parse_args(argv)

    tracer = absent = None
    if args.trace:
        tracer = spans.Tracer()
        absent, _ = spans.install(tracer)
    out = run_pass(args.seed, workloads.CORPUS_SIZE, workloads.CORPUS_REPEATS)
    if tracer is not None:
        out["spans"] = tracer.summarize()
        out["absent"] = absent
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
