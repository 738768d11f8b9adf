"""Byte identity of every emitted text against recorded SHA-256 digests.

Trace text, trees, marker tables, comparison reports, the per-sample
predictions of `compare --samples-csv`, the CSVs of `analyze
--waveform-csv` and `analyze --spectrum-dir` and the output of
`phasescope spectrum` must not change when the implementation underneath
them does; a digest changes only with an intended change of output. The
generator's scripted annotation tree is covered too. Covered: the
criterion-5 two-level scenario, the 20-scenario criterion-9 corpus, a
quantum-mode scenario whose attribution uses Q/L records, the same
scenario compared at TQ lengths at the edges, and a corpus of noisy nested
shapes (a body with a tail, three levels, unequal repetitions) whose
analysis splits steps and aligns recurring candidate heads.
"""

import hashlib

import numpy as np
import pytest

from phasescope import EntryKind, ScenarioSpec, SegmentSpec, analyze, generate, serialize_trace
from phasescope.cli import main
from phasescope.phases import export_markers, markers_json, tree_json
from test_acceptance import _misaligned_scenario


def flat(label, cpi, instrs, events, entry=EntryKind.FALLTHROUGH):
    return SegmentSpec(label, block_cpi=cpi, block_instruction_count=instrs,
                       event_count=events, entry_kind=entry)


CRITERION_5 = ScenarioSpec(
    segments=[
        SegmentSpec("bc", nested=[flat("b", 1.2, 50, 1), flat("c", 0.8, 50, 1)],
                    nested_repetitions=3),
        SegmentSpec("ef", nested=[flat("e", 4.2, 50, 1), flat("f", 3.8, 50, 1)],
                    nested_repetitions=3),
    ],
    repetitions=4,
)

QUANTA = ScenarioSpec(
    segments=[flat(f"b{i}", 0.8 + 0.3 * i, 3 + i, 5 + 2 * i,
                   EntryKind.BACKWARD_BRANCH if i == 0 else EntryKind.FALLTHROUGH)
              for i in range(8)],
    repetitions=30,
    noise_stddev=0.05,
    seed=8,
    quantum_length=500,
)


def nest(label, body, reps, entry=EntryKind.FALLTHROUGH):
    return SegmentSpec(label, nested=body, nested_repetitions=reps, entry_kind=entry)


def _random_flats(rng, prefix, count):
    return [flat(f"{prefix}{i}", round(float(rng.uniform(0.5, 3.0)), 4), int(rng.integers(3, 9)),
                 2 * int(rng.integers(2, 8)) + 1) for i in range(count)]


def _tail(rng):
    body = nest("body", _random_flats(rng, "n", 8), 3, EntryKind.BACKWARD_BRANCH)
    return [body, flat("tail", round(float(rng.uniform(0.5, 3.0)), 4), int(rng.integers(3, 9)),
                       2 * int(rng.integers(7, 23)) + 1)]


def _three_level(rng):
    inner = nest("inner", _random_flats(rng, "i", int(rng.integers(2, 4))), int(rng.integers(2, 5)),
                 EntryKind.BACKWARD_BRANCH)
    middle = nest("middle", [inner, *_random_flats(rng, "m", 1)], int(rng.integers(2, 4)),
                  EntryKind.BACKWARD_BRANCH)
    return [middle, *_random_flats(rng, "o", 1)]


def _unequal(rng):
    return [nest("a", _random_flats(rng, "a", 2), 3, EntryKind.BACKWARD_BRANCH),
            nest("b", _random_flats(rng, "b", 3), 2, EntryKind.CALL)]


def _corpus_shape(i):
    rng = np.random.default_rng(2000 + i)
    segments = (_tail, _three_level, _unequal)[i % 3](rng)
    return ScenarioSpec(segments=segments, repetitions=int(rng.integers(4, 12)),
                        noise_stddev=round(float(rng.uniform(0.03, 0.08)), 4), seed=i)


CASES = {
    "criterion-5": ([CRITERION_5], []),
    "corpus-shapes": ([_corpus_shape(i) for i in range(12)], []),
    "criterion-9": ([_misaligned_scenario(i) for i in range(20)], []),
    "quanta": ([QUANTA], ["--tq", "500"]),
    # TQ lengths at the edges: one instruction, a length that does not
    # divide the run, one longer than the run, and the trace's own quanta
    "tq-edges": ([QUANTA], ["--tq", "1", "--tq", "7", "--tq", "1000000", "--tq", "500"]),
}

DIGESTS = {
    "corpus-shapes": {
        "trace": "90edf9060c503207c16a40ac544866460367288712090578f6e3f39aea3767b7",
        "tree": "c3d5f857e9f417c6a17511a913636f7aa89961912ab4f2120a0619f4113b9557",
        "markers": "007360326315bd882ee0468a97cef32cd117dc28c53f101d3dbe3f98de499767",
        "compare": "a608465e8736beacd4b3698a963790115a71a44718e76e7d58129f2605d7800c",
        "samples": "75dbbacd252d87a00f31abf30d2efb7a995f78668c958c5892174e246a4fce0b",
        "annotation": "5f88c754cc954f815d29724f3a7a23bfb3eb2bb451797c64f7db97d4d64003b0",
        "waveform": "2d1942da26172dc99d7e0f9a9c1cf4eb41b0af51a360d6d7533e8ad7c50e5af9",
        "spectra": "ff059eab44fd73a220d88fec9f5ad1168a42c17970a1eaf11b0f84632c45a041",
        "spectrum": "5126ddca5adc79849d369feaab23a78071567b10131e9be24ab4bc87d4790807",
    },
    "criterion-5": {
        "trace": "c310cafa86b920f8440667d5120e80dc2da1606ba79395247fd04110f609fcf8",
        "tree": "e03f3820efd2328e22cbc6cf360b184f03d54a8c481aab65ab3373b91ef57045",
        "markers": "2c4607d65f8bb42b2104a97840e371ecbd17ecf591bfcf1ce3e5113e3afeccc2",
        "compare": "daeece94df3c503528e1dcc634400909ed1adac61343eaf21a3e04f9a3015829",
        "samples": "bf3212faffd655d33cc1382f670ef993843c2e50e58b40e863e2568370e5767d",
        "annotation": "d7aacfbb7c637d7cf333313ca12b18be716e27c7755572ae0b8cca2b2a2b67f1",
        "waveform": "b1cfaeda11a707b31fc2ce1ba7fb1e46b283da9f624b564c3895657c32c87a17",
        "spectra": "0d8bf91a7e974a56c8c723677cb411d112b4baaa17d87b6e6855c8f540cbc099",
        "spectrum": "616e6b9efb8ef476f6ee18d6216fb203f5ea62b0b55d7a6cec2d4648e43a6599",
    },
    "criterion-9": {
        "trace": "7845ad6aa907d41bee99f53d6fe227fb704c3cc7a4b3c0f1606428df70333f18",
        "tree": "36cda62e5ab93a2a7e2fef6c4faf3bad2d26ff691360c17e66b52d2e0dcf48ed",
        "markers": "5addee7bf1e88497d172a4aeb78bd36583c3ceec480f63a30bf7aa1b32e29976",
        "compare": "cbadbb5ba31f4e687619cfbece00ff4286dbf55c837d465de24a82e18b6c0735",
        "samples": "38129cb16cd63f44bf324e2203c13cf5d1179f714f7a523a315f0fc94a0f54f1",
        "annotation": "4051cd326e48f983e10e10ccd105c088f33b1388a008ffda3baf8daf917ad83a",
        "waveform": "838cb492d3697f9ecdd71ac6441d3eb2da39227f8b5bc2970b3e75b4e2cb5bdb",
        "spectra": "881f0958647c8b8787d3cfc8c24e140b7a3971bdf98e8f1443da24d41548cf17",
        "spectrum": "fa3d8f7e7e63faf4145abd650f4abe54856fcffc72a5867f7c4218cd1669f3c2",
    },
    "quanta": {
        "trace": "b76abe169191bf18fe36479189d67ac7e50323064c6975f41ebfb634312d80c1",
        "tree": "0d30634cd64df597b0c4e9ece380a428ca79bed0cda448d474f18fdf6c528d3a",
        "markers": "a6c6500bef9edf48c7a9df969f6c198889f932e97e9f9146c6deaa225902e588",
        "compare": "d3a45c27e88bb77495b0fa3240da5ad70e2a1dee72a9df99653e9be8f0625d62",
        "samples": "7f0d81127b749e06050a76ce1ed2158eff38116d7cc81703de05352a00919c8f",
        "annotation": "fdd6ccae63e4bcdaafa06fbfb5811dd21ac643f9e52a56901771c62a0952dd31",
        "waveform": "7edd1074fdc31cbdbc8957efd89f104354e32a3a76a2adfb803f7e1d0937e23a",
        "spectra": "5f16f1c98f1c8b295192260a15b3d116bac960a60f84dececd83e5b182ca8a9e",
        "spectrum": "76674ee29380766f5714e646d8dec238a0754a875e25f7d419c35df373f3aed7",
    },
    "tq-edges": {
        "trace": "b76abe169191bf18fe36479189d67ac7e50323064c6975f41ebfb634312d80c1",
        "tree": "0d30634cd64df597b0c4e9ece380a428ca79bed0cda448d474f18fdf6c528d3a",
        "markers": "a6c6500bef9edf48c7a9df969f6c198889f932e97e9f9146c6deaa225902e588",
        "compare": "0e1f6b3c05c9393be736cfcd7baf32ad39c1a4c029ba4bbad737b997349acd72",
        "samples": "360186ae20b2965681c3144671d51d49fd9f74b0cdf8947745cb21fb98df1358",
        "annotation": "fdd6ccae63e4bcdaafa06fbfb5811dd21ac643f9e52a56901771c62a0952dd31",
        "waveform": "7edd1074fdc31cbdbc8957efd89f104354e32a3a76a2adfb803f7e1d0937e23a",
        "spectra": "5f16f1c98f1c8b295192260a15b3d116bac960a60f84dececd83e5b182ca8a9e",
        "spectrum": "76674ee29380766f5714e646d8dec238a0754a875e25f7d419c35df373f3aed7",
    },
}


def digests(specs, compare_args, workdir):
    kinds = ("trace", "tree", "markers", "compare", "samples", "annotation", "waveform", "spectra",
             "spectrum")
    hashes = {kind: hashlib.sha256() for kind in kinds}
    for i, spec in enumerate(specs):
        trace, annotation = generate(spec)
        text = serialize_trace(trace)
        tree = analyze(trace)
        hashes["trace"].update(text.encode())
        hashes["tree"].update(tree_json(tree, trace.blocks).encode())
        hashes["markers"].update(markers_json(export_markers(tree, trace.blocks)).encode())
        (workdir / "t.trace").write_text(text)
        assert main(["compare", "t.trace", "--out", "cmp.json", "--samples-csv", "s.csv",
                     *compare_args]) == 0
        hashes["compare"].update((workdir / "cmp.json").read_bytes())
        hashes["samples"].update((workdir / "s.csv").read_bytes())
        hashes["annotation"].update(tree_json(annotation.true_phases, trace.blocks).encode())
        assert main(["analyze", "t.trace", "--tree", "a.json", "--waveform-csv", "w.csv",
                     "--spectrum-dir", f"spectra{i}"]) == 0
        hashes["waveform"].update((workdir / "w.csv").read_bytes())
        for path in sorted((workdir / f"spectra{i}").iterdir()):
            hashes["spectra"].update(path.name.encode() + b"\n" + path.read_bytes())
        assert main(["spectrum", "t.trace", "--out", "sp.csv"]) == 0
        hashes["spectrum"].update((workdir / "sp.csv").read_bytes())
    return {kind: h.hexdigest() for kind, h in hashes.items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_recorded_digests(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the report names the trace by the path given
    specs, compare_args = CASES[case]
    assert digests(specs, compare_args, tmp_path) == DIGESTS[case]
