"""Output checks and truth scoring on phase trees in their JSON form.

Trees here are the dicts `phasescope analyze --tree` writes (keys start,
length, occurrence, children, ...), so that run.py can check them without
importing phasescope.
"""

from __future__ import annotations

import json

#: the CLI's default analysis resolution (samples per analyzed segment)
RESOLUTION = 4096


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON number {name}")


def load_strict(text: str):
    """Parse JSON, rejecting the NaN and Infinity literals Python accepts."""
    return json.loads(text, parse_constant=_reject_constant)


def walk(node: dict, parent: dict | None = None):
    """Yield (node, parent) pairs, depth first."""
    yield node, parent
    for child in node["children"]:
        yield from walk(child, node)


def check_tree(root: dict) -> None:
    """Raise ValueError unless every node has a positive length and its
    children are ordered, disjoint and inside it."""
    for node, _ in walk(root):
        if node["length"] < 1 or node["occurrence"] < 1:
            raise ValueError(f"empty or non-repeating node at {node['start']}")
        cursor = node["start"]
        end = node["start"] + node["length"]
        for child in node["children"]:
            if child["start"] < cursor:
                raise ValueError(f"child at {child['start']} overlaps or is out of order")
            if child["start"] + child["length"] > end:
                raise ValueError(f"child at {child['start']} extends past its parent")
            cursor = child["start"] + child["length"]


def stride(segment_length: int) -> int:
    """Sample stride the analysis uses on a segment of this length."""
    return max(1, -(-segment_length // RESOLUTION))


def truth_recall(tree: dict, truth: dict) -> tuple[int, int]:
    """(recovered, scripted) counts of truth phases the tree recovers.

    The scripted phases are the truth root plus every truth node that
    repeats (occurrence >= 2). A phase is recovered when some tree node has
    the same occurrence and a length within one sample stride of the
    segment that node was found in. The root always matches, so a tree that
    is one leaf still scores 1 of n + 1.
    """
    found = [
        (node["occurrence"], node["length"], stride((parent or node)["length"]))
        for node, parent in walk(tree)
    ]
    scripted = [node for node, parent in walk(truth) if parent is None or node["occurrence"] >= 2]
    recovered = sum(
        any(occ == node["occurrence"] and abs(length - node["length"]) <= tol
            for occ, length, tol in found)
        for node in scripted
    )
    return recovered, len(scripted)
