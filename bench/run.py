"""The phasescope benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload golden-512blk --seed 1 --seconds 30 --trace 0

Run from anywhere; it uses the checkout that holds this file and runs
phasescope from its src/ directory. Workloads:

  golden-512blk  one golden-only trace file, 512 distinct blocks; each pass
                 runs `phasescope synth`, `analyze` and `compare` as
                 subprocesses, one at a time
  quanta-8blk    one trace file with 8 distinct blocks and quantum records;
                 `compare` also scores the trace's own quanta (--tq 5000)
  hier-corpus    a corpus of small hierarchical scenarios analyzed in one
                 process through the library (bench/corpus.py); each pass,
                 traced or not, sets up once and analyzes and compares
                 workloads.CORPUS_REPEATS times

Passes repeat until --seconds have gone by (at least 3), and each timing is
the median of its samples. Every operation's output is checked: exit code,
strict JSON, a well-formed tree, and bytes identical to the first pass. With
--trace 0 the result holds the end-to-end metrics; with --trace 1 every
other pass records per-layer spans (bench/spans.py) and the result holds
the per-layer metrics. Human-readable lines and one `record` line (seed,
input sizes, SHA-256 of inputs, tree and markers, all samples) come first;
the last line of standard output is the result JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference
import spans
import truth
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150
IMPORT_SAMPLES = 5
#: the timings are in reference seconds (bench/reference.py); set-up time
#: keeps the unit "s" that the benchmark's format fixes for it
END_TO_END_UNITS = {
    "setup_s": "s",
    "analyze_s": "ref_s",
    "compare_s": "ref_s",
    "peak_rss_mb": "MB",
    "tree_mape_pct": "%",
    "tq_mape_pct": "%",
    "truth_recall": "frac",
}


class Run:
    """One benchmark run: the child environment, samples and check results."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.samples: dict[str, list[float]] = {}
        self.layer_samples: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first: dict[str, str] = {}  # output name -> SHA-256 of the first pass
        self.absent: set[str] = set()
        self.broken_counters: set[str] = set()
        self.shares: list[dict] = []
        self.record: dict = {"workload": workload, "seed": seed}
        self.accuracy: dict[str, float] = {}
        self.annotation: dict | None = None

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def op(self, name: str, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{name}: {why}"[:2000])

    def same_as_first(self, output: str, digest: str) -> bool:
        return self.first.setdefault(output, digest) == digest

    def child(self, argv: list[str], stdout: Path | None = None) -> tuple[float, int, float, str]:
        """Run a child to completion: (wall s, exit code, peak RSS MB, stderr)."""
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err, open(stdout or os.devnull, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB on Linux
        return wall, proc.returncode, usage.ru_maxrss / 1024, err_path.read_text(errors="replace")


    def time_reference(self) -> float:
        """Time the reference job once in a fresh interpreter."""
        wall = self.child([sys.executable, "-c", reference.JOB])[0]
        self.add("reference_s", wall)
        return wall

    def add_timing(self, name: str, wall: float, scaled: float) -> None:
        """Keep an operation's measured time and its time in reference units."""
        self.add(name, wall)
        self.add(f"{name}_ref", scaled)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_phasescope(run: Run) -> None:
    """Exit unless the children import the checkout's own phasescope."""
    probe = run.work / "probe.txt"
    _, code, _, err = run.child(
        [sys.executable, "-c", "import phasescope; print(phasescope.__file__)"], stdout=probe)
    found = probe.read_text().strip()
    expected = ROOT / "src" / "phasescope"
    if code != 0 or Path(found).resolve().parent != expected.resolve():
        raise SystemExit(f"error: cannot import phasescope from {expected}: {err.strip() or found}")


def import_time(run: Run) -> float:
    walls = [run.child([sys.executable, "-c", "import phasescope"])[0] for _ in range(IMPORT_SAMPLES)]
    return statistics.median(walls)


# --- file workloads ----------------------------------------------------------

def file_pass(run: Run, scenario_path: Path, total_instructions: int, traced: bool) -> dict | None:
    """synth, analyze and compare once; returns the pass's merged span summary
    when traced."""
    prefix = run.work / "input"
    paths = {
        "trace": prefix.with_suffix(".trace"),
        "annotation": prefix.with_suffix(".annotation.json"),
        "tree": run.work / "tree.json",
        "markers": run.work / "markers.json",
        "report": run.work / "compare.json",
    }
    tq_flags = []
    if run.workload == "quanta-8blk":
        defaults = (max(1, total_instructions // 64), max(1, total_instructions // 8))
        for quantum in defaults + (workloads.QUANTUM_LENGTH,):
            tq_flags += ["--tq", str(quantum)]
    commands = {
        "synth": ["synth", str(scenario_path), "--out-prefix", str(prefix)],
        "analyze": ["analyze", str(paths["trace"]), "--tree", str(paths["tree"]),
                    "--markers", str(paths["markers"])],
        "compare": ["compare", str(paths["trace"]), "--out", str(paths["report"])] + tq_flags,
    }
    summaries = []
    for op, args in commands.items():
        spans_path = run.work / f"spans-{op}.json"
        if traced:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path)] + args
        else:
            argv = [sys.executable, "-m", "phasescope.cli"] + args
        ref = run.time_reference()
        wall, code, rss, err = run.child(argv)
        run.add_timing(f"{op}_s_traced" if traced else f"{op}_s", wall,
                       wall / ref * reference.SUBPROCESS_S)
        if op == "analyze" and not traced:
            run.add("peak_rss_mb", rss)
        if code != 0:
            run.op(op, False, f"exit {code}: {err.strip()}")
            continue
        try:
            check_file_output(run, op, paths, total_instructions)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            run.op(op, False, f"{type(exc).__name__}: {exc}")
            continue
        run.op(op, True)
        if traced:
            try:
                traced_out = json.loads(spans_path.read_text())
            except (OSError, ValueError) as exc:
                run.errors.append(f"{op}: no span summary: {exc}")
                continue
            summaries.append(traced_out["spans"])
            run.absent.update(traced_out["absent"])
    return spans.merge(summaries) if traced else None


def check_file_output(run: Run, op: str, paths: dict[str, Path], total_instructions: int) -> None:
    """Raise unless op's outputs are strict JSON, well formed and identical to
    the first pass's."""
    digests = {name: sha256_file(paths[name]) for name in
               {"synth": ("trace", "annotation"), "analyze": ("tree", "markers"),
                "compare": ("report",)}[op]}
    if op == "synth":
        annotation = truth.load_strict(paths["annotation"].read_text())
        truth.check_tree(annotation)
        run.annotation = annotation
        run.record["inputs"]["trace_bytes"] = paths["trace"].stat().st_size
        run.record.setdefault("sha256", {})["inputs"] = digests["trace"]
    elif op == "analyze":
        tree = truth.load_strict(paths["tree"].read_text())
        truth.load_strict(paths["markers"].read_text())
        truth.check_tree(tree)
        if run.annotation is None:
            raise ValueError("no truth annotation from set-up")
        recovered, scripted = truth.truth_recall(tree, run.annotation)
        run.accuracy["truth_recall"] = recovered / scripted
        run.record.setdefault("sha256", {}).update(digests)
    else:
        report = truth.load_strict(paths["report"].read_text())
        mapes = {m["label"]: m["mape_percent"] for m in report["methods"]}
        if not all(isinstance(v, (int, float)) and math.isfinite(v) and v > 0 for v in mapes.values()):
            raise ValueError(f"bad MAPE in report: {mapes}")
        defaults = [f"tq-{max(1, total_instructions // d)}" for d in (64, 8)]
        run.accuracy["tree_mape_pct"] = mapes["bbfda"]
        run.accuracy["tq_mape_pct"] = min(mapes[label] for label in defaults)
        if run.workload == "quanta-8blk":
            run.record["tq_own_quanta_mape_pct"] = mapes[f"tq-{workloads.QUANTUM_LENGTH}"]
    if not all(run.same_as_first(name, digest) for name, digest in digests.items()):
        raise ValueError(f"{op} output differs from the first pass")


def file_workload(run: Run) -> None:
    scenario = (workloads.golden_512blk if run.workload == "golden-512blk"
                else workloads.quanta_8blk)(run.seed)
    sizes = workloads.input_sizes(scenario)
    run.record["inputs"] = dict(sizes)
    scenario_path = run.work / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    repeat(run, lambda traced: file_pass(run, scenario_path, sizes["instructions"], traced))


# --- hier-corpus ---------------------------------------------------------------

def corpus_pass(run: Run, traced: bool) -> dict | None:
    out_path = run.work / "corpus.json"
    argv = [sys.executable, str(BENCH / "corpus.py"), "--seed", str(run.seed)]
    argv += ["--trace"] if traced else []
    wall, code, rss, err = run.child(argv, stdout=out_path)
    try:
        if code != 0:
            raise ValueError(f"exit {code}: {err.strip()}")
        out = json.loads(out_path.read_text().strip().splitlines()[-1])
    except (OSError, ValueError, IndexError) as exc:
        for op in ("setup", "analyze", "compare"):
            run.op(op, False, str(exc))
        return None
    for op in ("setup", "analyze", "compare"):
        if op in out["failed"]:
            run.op(op, False, "; ".join(out["errors"]))
            continue
        names = {"setup": ("inputs",), "analyze": ("tree", "markers"), "compare": ("scores",)}[op]
        digests = {name: out["sha256"][name] for name in names}
        if not all(run.same_as_first(k, v) for k, v in digests.items()):
            run.op(op, False, "output differs from the first pass")
        else:
            run.op(op, True)
        for sample, ref in zip(out[f"{op}_s"], out[f"{op}_ref"]):
            run.add_timing(f"{op}_s_traced" if traced else f"{op}_s", sample,
                           sample / ref * reference.IN_PROCESS_S)
        run.samples.setdefault("reference_in_process_s", []).extend(out[f"{op}_ref"])
    if not traced:
        run.add("peak_rss_mb", rss)
    run.record["inputs"] = out.get("inputs")
    run.record["sha256"] = out.get("sha256")
    for key in ("tree_mape_pct", "tq_mape_pct", "truth_recall"):
        if key in out:
            run.accuracy[key] = out[key]
    if traced:
        run.absent.update(out.get("absent", []))
        return out.get("spans")
    return None


# --- passes and results ------------------------------------------------------

def repeat(run: Run, one_pass) -> None:
    """Run passes until run.seconds have gone by and at least MIN_PASSES
    passes ran; traced runs alternate plain and traced passes and run at
    least two of each."""
    start = time.perf_counter()
    done = 0
    need = 4 if run.traced else MIN_PASSES
    while done < need or time.perf_counter() - start < run.seconds:
        traced = run.traced and done % 2 == 1
        summary = one_pass(traced)
        if summary is not None:
            run.layer_samples.append(spans.layer_metrics(summary))
            run.broken_counters.update(summary["broken_counters"])
            run.shares.append(spans.shares(summary))
        done += 1
    run.record["passes"] = done


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run) -> dict[str, float]:
    s = run.samples
    setup = "synth_s" if "synth_s" in s else "setup_s"
    values = {
        "setup_s": median(s.get(f"{setup}_ref", [])),
        "analyze_s": median(s.get("analyze_s_ref", [])),
        "compare_s": median(s.get("compare_s_ref", [])),
        "peak_rss_mb": median(s.get("peak_rss_mb", [])),
    }
    for key in ("tree_mape_pct", "tq_mape_pct", "truth_recall"):
        values[key] = float(run.accuracy.get(key, 0.0))
    return values


def per_layer(run: Run) -> dict[str, float]:
    names = spans.layer_metrics(spans.merge([]))
    values = {name: median([sample[name] for sample in run.layer_samples]) for name in names}
    values["cli.import_s"] = import_time(run)
    values["bench.trace_overhead_s"] = (median(run.samples.get("analyze_s_traced_ref", []))
                                        - median(run.samples.get("analyze_s_ref", [])))
    return values


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name == "bench.trace_overhead_s":
        return "ref_s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    return "bytes" if name == "trace.bytes" else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="phasescope benchmark (one run)")
    parser.add_argument("--workload", required=True, choices=("golden-512blk", "quanta-8blk", "hier-corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "phasescope" / "__init__.py").is_file():
        print(f"error: no phasescope sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        check_phasescope(run)
        if args.workload == "hier-corpus":
            run.record["inputs"] = {"corpus_size": workloads.CORPUS_SIZE}
            repeat(run, lambda traced: corpus_pass(run, traced))
        else:
            file_workload(run)
        metrics = per_layer(run) if run.traced else end_to_end(run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: {run.record['passes']} passes, "
          f"{run.attempted} operations, {run.failed} failed")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit_of(name)}")
    print(f"  {'failed_frac':28s} {run.failed / max(1, run.attempted):14.6g} frac")
    measured = ", ".join(f"{name} {median(values):.4g}" for name, values in run.samples.items()
                         if name.endswith("_s"))
    print(f"  measured medians, s: {measured}")
    if run.traced:
        for key in ("trace_attribution", "per_segment", "per_segment_of_analyze"):
            print(f"  share {key:32s} {median([s[key] for s in run.shares]):8.3f}")
        if run.absent:
            print(f"  absent spans: {', '.join(sorted(run.absent))}")
        if run.broken_counters:
            print(f"  counts no longer readable: {', '.join(sorted(run.broken_counters))}")
    for error in run.errors:
        print(f"  error: {error}")
    run.record.update(samples=run.samples, absent=sorted(run.absent), errors=run.errors,
                      accuracy=run.accuracy)
    print("record " + json.dumps(run.record, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
