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

The rungs score analyze's two steps apart: analyze runs with a truth oracle
(truth_shape) in place of its shape step, and with the rule's anchor step or
one that puts every instance at its segment's start. Each rung records what
the rule's steps would reach if the ones replaced were right.

`PYTHONPATH=src python tests/test_accuracy.py` prints FLOOR and RUNGS as
measured now, as source to record.
"""

import functools
import statistics
from unittest import mock

import numpy as np
import pytest

from phasescope import (
    AnalysisConfig,
    analyze,
    error_rate,
    generate,
    golden_waveform,
    predict_waveform,
    tq_phases,
)
from phasescope import phases
from test_golden_bytes import _corpus_shape

RESOLUTION = 4096
MERGE_DELTA = 0.1

#: shape: (recovered, scripted, mean tree MAPE, mean best-TQ MAPE)
FLOOR = {
    "tail": (22, 60, 47.0167628680919, 38.634920207938904),
    "three-level": (20, 80, 35.99361547755642, 35.22393937869795),
    "unequal": (33, 80, 21.28752929283979, 26.076246546428813),
}

#: rung: shape: (recovered, scripted, mean tree MAPE), analyze run with
#: truth_shape and STEPS[rung]; the "truth tree" rung scores the truth itself
RUNGS = {
    "truth shape, rule anchor": {
        "tail": (42, 60, 41.97394356785735),
        "three-level": (40, 80, 30.123262497825692),
        "unequal": (52, 80, 20.04843412317851),
    },
    "truth shape, start anchor": {
        "tail": (60, 60, 17.152097274857958),
        "three-level": (80, 80, 3.62250602786864),
        "unequal": (80, 80, 4.0952052869490085),
    },
    "truth shape, start anchor, max_depth 16": {
        "tail": (60, 60, 4.364165934751681),
        "three-level": (80, 80, 3.62250602786864),
        "unequal": (80, 80, 4.0952052869490085),
    },
    "truth tree": {
        "tail": (60, 60, 3.3735932625497123),
        "three-level": (80, 80, 3.3290035651806265),
        "unequal": (80, 80, 3.2304547806082575),
    },
}

#: the rule's shape step, which truth_shape defers to off the truth
rule_shape = phases.shape


def start_anchor(index, rates, threshold, start, stop, length):
    """An anchor step that puts every instance at its segment's start."""
    return start


#: rung: (anchor step, max_depth) of analyze with truth_shape
STEPS = {
    "truth shape, rule anchor": (phases.anchor, 8),
    "truth shape, start anchor": (start_anchor, 8),
    "truth shape, start anchor, max_depth 16": (start_anchor, 16),
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


def truth_shape(truth):
    """A shape step that answers every segment on the truth tree, and defers
    to rule_shape elsewhere. A segment is on the truth when its start and
    stop are each within one sample stride of, first to last:
    - a run of k >= 2 instances of a truth node: (k, None);
    - one instance of a node: its row of children decides;
    - the rest of an instance's row, from its second child on: that decides.
    A row of more than one span (a child's instances) splits at the end of
    its first span; a row of one span is that child's repeat, or a leaf.
    A truth node's children sit in its first instance; every other instance
    holds them shifted by its own offset."""
    runs, instances, rests = [], [], []

    def row(spans):
        if len(spans) > 1:
            return 1, spans[0][1]
        return (spans[0][2], None) if spans and spans[0][2] >= 2 else (1, None)

    def visit(node, shift):
        length, reps = node.length_instructions, node.occurrence
        first = node.start_instruction + shift
        if reps >= 2:
            runs.append((first, first + reps * length, (reps, None)))
        for start in range(first, first + reps * length, length):
            offset = start - node.start_instruction
            spans = [(child.start_instruction + offset,
                      child.start_instruction + offset + child.occurrence * child.length_instructions,
                      child.occurrence) for child in node.children]
            instances.append((start, start + length, row(spans)))
            rests.extend((spans[i][0], start + length, row(spans[i:])) for i in range(1, len(spans)))
            for child in node.children:
                visit(child, offset)

    visit(truth, 0)
    table = runs + instances + rests
    starts = np.array([entry[0] for entry in table], dtype=np.int64)
    stops = np.array([entry[1] for entry in table], dtype=np.int64)

    def shape(wave, stop, magnitudes, cfg):
        start, tolerance = wave.origin_instruction, wave.sample_stride
        hits = ((np.abs(starts - start) <= tolerance) & (np.abs(stops - stop) <= tolerance)).nonzero()[0]
        if hits.size:
            reps, boundary = table[hits[0]][2]
            if boundary is None or start < boundary < stop:
                return reps, boundary
        return rule_shape(wave, stop, magnitudes, cfg)

    return shape


@functools.cache
def scenario(i):
    """Corpus scenario i's trace, truth tree and golden waveform."""
    trace, annotation = generate(_corpus_shape(i))
    return trace, annotation.true_phases, golden_waveform(trace, RESOLUTION)


def mape(tree, trace, golden):
    predicted = predict_waveform(tree, trace.total_instructions, RESOLUTION)
    return error_rate(predicted, golden).mean_absolute_percentage_error


def tree_scores(shape, tree_of):
    """(recovered, scripted, mean tree MAPE) of tree_of(trace, truth tree)
    over one shape's 20 corpus scenarios."""
    recovered = scripted = 0
    tree_mapes = []
    for i in range(list(FLOOR).index(shape), 60, 3):
        trace, truth, golden = scenario(i)
        tree = tree_of(trace, truth)
        hit, n = recall(tree, truth)
        recovered += hit
        scripted += n
        tree_mapes.append(mape(tree, trace, golden))
    return recovered, scripted, statistics.fmean(tree_mapes)


def shape_scores(shape):
    """FLOOR's entry for one shape."""
    tq_mapes = []
    for i in range(list(FLOOR).index(shape), 60, 3):
        trace, _, golden = scenario(i)
        total = trace.total_instructions
        tq_mapes.append(min(mape(tq_phases(trace, max(1, total // parts), MERGE_DELTA), trace, golden)
                            for parts in (64, 8)))
    return *tree_scores(shape, lambda trace, truth: analyze(trace)), statistics.fmean(tq_mapes)


def rung_tree(rung, trace, truth):
    """The tree one rung scores on a trace with this truth tree."""
    if rung == "truth tree":
        return truth
    anchor, max_depth = STEPS[rung]
    with mock.patch.object(phases, "shape", truth_shape(truth)), mock.patch.object(phases, "anchor", anchor):
        return analyze(trace, AnalysisConfig(max_depth=max_depth))


def rung_scores(rung, shape):
    """RUNGS's entry for one rung and shape."""
    return tree_scores(shape, functools.partial(rung_tree, rung))


@pytest.mark.parametrize("shape", list(FLOOR))
def test_accuracy_is_no_worse_than_recorded(shape):
    recovered, scripted, tree_mape, tq_mape = shape_scores(shape)
    floor_recovered, floor_scripted, floor_tree, floor_tq = FLOOR[shape]
    assert scripted == floor_scripted
    assert recovered >= floor_recovered
    assert tree_mape <= floor_tree
    assert tq_mape <= floor_tq


@pytest.mark.parametrize("rung, shape", [(rung, shape) for rung in RUNGS for shape in FLOOR])
def test_each_rung_is_no_worse_than_recorded(rung, shape):
    recovered, scripted, tree_mape = rung_scores(rung, shape)
    floor_recovered, floor_scripted, floor_tree = RUNGS[rung][shape]
    assert scripted == floor_scripted
    assert recovered >= floor_recovered
    assert tree_mape <= floor_tree


@pytest.mark.parametrize("shape", list(FLOOR))
def test_the_truth_shape_with_a_start_anchor_reaches_the_truth_tree(shape):
    # every scripted phase, and on three-level and unequal (tail runs out of
    # depth) a tree MAPE within one point of the truth tree's own
    recovered, scripted, tree_mape = rung_scores("truth shape, start anchor", shape)
    assert recovered == scripted
    if shape != "tail":
        assert tree_mape <= rung_scores("truth tree", shape)[2] + 1.0


if __name__ == "__main__":
    print("FLOOR = {")
    for shape in FLOOR:
        print(f'    "{shape}": {shape_scores(shape)!r},')
    print("}")
    print()
    print("RUNGS = {")
    for rung in [*STEPS, "truth tree"]:
        print(f'    "{rung}": {{')
        for shape in FLOOR:
            print(f'        "{shape}": {rung_scores(rung, shape)!r},')
        print("    },")
    print("}")
