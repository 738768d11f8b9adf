"""Accuracy floor: on the noisy nested shapes of the golden-bytes corpus,
the phase tree recovers at least as many scripted phases, and predicts the
golden waveform no worse, than the values recorded here.

Recall follows the benchmark's truth rule (bench/truth.py), restated on
PhaseNode: the scripted phases are the truth root and every truth node that
repeats; one is recovered when some tree node has its occurrence and a
length within one sample stride of the segment that node was found in.
Each MAPE is against the golden waveform at the CLI's resolution; the
time-quantum one is each scenario's better of D/64 and D/8 at merge delta
0.1, the CLI's default.
"""

import statistics

import pytest

from phasescope import analyze, error_rate, generate, golden_waveform, predict_waveform, tq_phases
from test_golden_bytes import _corpus_shape

RESOLUTION = 4096
MERGE_DELTA = 0.1

#: shape: (recovered, scripted, mean tree MAPE, mean best-TQ MAPE)
FLOOR = {
    "tail": (22, 60, 47.0167628680919, 38.634920207938904),
    "three-level": (20, 80, 35.99361547755642, 35.22393937869795),
    "unequal": (33, 80, 21.28752929283979, 26.076246546428813),
}


def stride(length):
    """The sample stride analyze uses on a segment of this length."""
    return max(1, -(-length // RESOLUTION))


def recall(tree, truth):
    """(recovered, scripted) counts of truth phases the tree recovers."""
    found = [(tree.occurrence, tree.length_instructions, stride(tree.length_instructions))]
    found += [(child.occurrence, child.length_instructions, stride(node.length_instructions))
              for node in tree.walk() for child in node.children]
    scripted = [node for node in truth.walk() if node is truth or node.occurrence >= 2]
    recovered = sum(
        any(occurrence == node.occurrence and abs(length - node.length_instructions) <= tolerance
            for occurrence, length, tolerance in found)
        for node in scripted
    )
    return recovered, len(scripted)


def shape_scores(shape):
    """FLOOR's entry for one shape, measured over its 20 corpus scenarios."""
    recovered = scripted = 0
    tree_mapes, tq_mapes = [], []
    for i in range(list(FLOOR).index(shape), 60, 3):
        trace, annotation = generate(_corpus_shape(i))
        total = trace.total_instructions
        golden = golden_waveform(trace, RESOLUTION)

        def mape(phases):
            predicted = predict_waveform(phases, total, RESOLUTION)
            return error_rate(predicted, golden).mean_absolute_percentage_error

        tree = analyze(trace)
        hit, n = recall(tree, annotation.true_phases)
        recovered += hit
        scripted += n
        tree_mapes.append(mape(tree))
        tq_mapes.append(min(mape(tq_phases(trace, max(1, total // parts), MERGE_DELTA))
                            for parts in (64, 8)))
    return recovered, scripted, statistics.fmean(tree_mapes), statistics.fmean(tq_mapes)


@pytest.mark.parametrize("shape", list(FLOOR))
def test_accuracy_is_no_worse_than_recorded(shape):
    recovered, scripted, tree_mape, tq_mape = shape_scores(shape)
    floor_recovered, floor_scripted, floor_tree, floor_tq = FLOOR[shape]
    assert scripted == floor_scripted
    assert recovered >= floor_recovered
    assert tree_mape <= floor_tree
    assert tq_mape <= floor_tq
