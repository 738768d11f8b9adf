"""Fixed-seed scenarios for the benchmark workloads.

Every function here returns scenario dicts in the shape `phasescope synth`
reads (see `phasescope.synth.scenario_from_json`), drawn from
`random.Random` so that run.py needs neither numpy nor phasescope. The same
seed always gives the same scenarios.
"""

from __future__ import annotations

import random

#: instruction length of the quanta the quanta-8blk trace carries
QUANTUM_LENGTH = 5000
#: events in each file workload's trace, whatever the seed, so that timings
#: compare across seeds
FILE_EVENTS = 131_072
#: scenarios in the hier-corpus workload
CORPUS_SIZE = 180
#: analyze and compare passes per hier-corpus set-up, traced or not
CORPUS_REPEATS = 3


def _flat(label: str, cpi: float, instrs: int, events: int, entry: str = "fallthrough") -> dict:
    return {
        "label": label,
        "block_cpi": cpi,
        "block_instruction_count": instrs,
        "event_count": events,
        "entry_kind": entry,
    }


def _nest(label: str, body: list[dict], reps: int, entry: str = "fallthrough") -> dict:
    return {"label": label, "nested": body, "nested_repetitions": reps, "entry_kind": entry}


def _odd(rng: random.Random, lo: int, hi: int) -> int:
    """Odd number in [lo, hi]; odd counts keep phase edges off round grids."""
    return 2 * rng.randint((lo + 1) // 2, (hi - 1) // 2) + 1


def _banded_blocks(rng: random.Random, count: int, events: tuple[int, int], odd: bool) -> list[dict]:
    """count blocks: the first half draws its CPI from a low band, the second
    half from a high band. Each band is narrower than the analysis' default
    flat_cpi_range (0.3), so one period is two flat halves and the tree's
    shape does not depend on the seed; only the exact CPIs, counts and
    noise do."""
    blocks = []
    for i in range(count):
        base = 0.9 if i < count // 2 else 2.4
        n = _odd(rng, *events) if odd else rng.randint(*events)
        blocks.append(_flat(
            f"b{i}",
            round(base + rng.uniform(0.0, 0.25), 4),
            rng.randint(3, 10),
            n,
            "backward_branch" if i == 0 else "fallthrough",
        ))
    return blocks


def golden_512blk(seed: int) -> dict:
    """512 distinct blocks of 1-3 events each, repeated about 128 times:
    FILE_EVENTS events and about 0.85M instructions, golden cycles only."""
    rng = random.Random(f"golden-512blk/{seed}")
    segments = _banded_blocks(rng, 512, (1, 3), odd=False)
    return {
        "segments": segments,
        "repetitions": round(FILE_EVENTS / _period_events(segments)),
        "noise_stddev": 0.05,
        "seed": seed,
    }


def quanta_8blk(seed: int) -> dict:
    """8 distinct blocks of 11-27 events each, repeated about 860 times:
    FILE_EVENTS events with golden cycles plus quanta of QUANTUM_LENGTH
    instructions. One period is far shorter than one quantum, so
    quantum-weighted attribution smears the blocks' CPIs together."""
    rng = random.Random(f"quanta-8blk/{seed}")
    segments = _banded_blocks(rng, 8, (11, 27), odd=True)
    return {
        "segments": segments,
        "repetitions": round(FILE_EVENTS / _period_events(segments)),
        "noise_stddev": 0.05,
        "seed": seed,
        "quantum_length": QUANTUM_LENGTH,
    }


def _random_blocks(rng: random.Random, prefix: str, count: int) -> list[dict]:
    return [
        _flat(f"{prefix}{i}", round(rng.uniform(0.5, 3.0), 4), rng.randint(3, 8), _odd(rng, 5, 15))
        for i in range(count)
    ]


def _tail_nest(rng: random.Random) -> list[dict]:
    """8 blocks nested x3 plus a tail block: the shape whose 4th harmonic
    the seed analysis picks over the fundamental."""
    body = _random_blocks(rng, "n", 8)
    tail = _flat("tail", round(rng.uniform(0.5, 3.0), 4), rng.randint(3, 8), _odd(rng, 15, 45))
    return [_nest("body", body, 3, "backward_branch"), tail]


def _three_level(rng: random.Random) -> list[dict]:
    inner = _nest("inner", _random_blocks(rng, "i", rng.randint(2, 3)), rng.randint(2, 4),
                  "backward_branch")
    middle = _nest("middle", [inner] + _random_blocks(rng, "m", 1), rng.randint(2, 3),
                   "backward_branch")
    return [middle] + _random_blocks(rng, "o", 1)


def _unequal(rng: random.Random) -> list[dict]:
    first = _nest("a", _random_blocks(rng, "a", 2), 3, "backward_branch")
    second = _nest("b", _random_blocks(rng, "b", 3), 2)
    return [first, second]


CORPUS_KINDS = {"tail": _tail_nest, "nest3": _three_level, "unequal": _unequal}


def hier_corpus(seed: int, size: int = CORPUS_SIZE) -> list[dict]:
    """size small hierarchical scenarios, cycling through CORPUS_KINDS, each
    repeated until it holds 1000-3000 events."""
    rng = random.Random(f"hier-corpus/{seed}")
    kinds = list(CORPUS_KINDS.values())
    corpus = []
    for i in range(size):
        segments = kinds[i % len(kinds)](rng)
        target = rng.randint(1000, 3000)
        corpus.append({
            "segments": segments,
            "repetitions": max(2, round(target / _period_events(segments))),
            "noise_stddev": round(rng.uniform(0.03, 0.08), 4),
            "seed": rng.randrange(2**31),
        })
    return corpus


def _period_events(segments: list[dict]) -> int:
    return input_sizes({"segments": segments, "repetitions": 1})["events"]


def input_sizes(scenario: dict) -> dict:
    """Events, instructions and distinct blocks of a scenario, from its spec."""

    def walk(segments):
        events = instrs = 0
        blocks = 0
        for seg in segments:
            if "nested" in seg:
                e, n, b = walk(seg["nested"])
                events += e * seg["nested_repetitions"]
                instrs += n * seg["nested_repetitions"]
                blocks += b
            else:
                events += seg["event_count"]
                instrs += seg["event_count"] * seg["block_instruction_count"]
                blocks += 1
        return events, instrs, blocks

    events, instrs, blocks = walk(scenario["segments"])
    reps = scenario["repetitions"]
    return {"events": events * reps, "instructions": instrs * reps, "distinct_blocks": blocks}
