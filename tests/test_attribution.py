"""Block CPI attribution and waveform resampling, checked against
brute-force oracles (instruction-by-instruction walks, hand-evaluated
weighted averages)."""

import math
import re
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasescope import (
    BlockDescriptor,
    EntryKind,
    ExecutionTrace,
    ScenarioSpec,
    SegmentSpec,
    Structure,
    Terminator,
    analyze,
    attribute_block_cpi,
    build_waveform,
    classify_structure,
    generate,
    golden_waveform,
    quantum_cpis,
)
from phasescope.attribution import (
    EventIndex,
    Waveform,
    cycles_below,
    profile_rates,
    sample_grid,
    sample_range,
    waveform_csv,
)


def block(bid, instrs, addr=None):
    return BlockDescriptor(bid, addr if addr is not None else 0x1000 + bid * 0x100,
                           instrs, Terminator.FALLTHROUGH)


def golden_trace(blocks, ids, cycles):
    return ExecutionTrace(blocks=blocks, event_blocks=ids, event_cycles=cycles)


def quantum_trace(blocks, event_ids, quantum_cpis_list, quantum_length):
    return ExecutionTrace(
        blocks={b.block_id: b for b in blocks},
        event_blocks=event_ids,
        event_cycles=np.full(len(event_ids), np.nan),
        quanta=quantum_cpis_list,
        quantum_length=quantum_length,
    )


def walk_instructions(trace, rates_by_block):
    """Oracle: per-instruction CPI array built event by event."""
    out = []
    for bid in trace.event_blocks.tolist():
        out.extend([rates_by_block[bid]] * trace.blocks[bid].instruction_count)
    return np.array(out)


def test_single_quantum_block_gets_that_quantum_cpi():
    # block occurs only in quantum 3 with v3 = 2.0
    blocks = [block(0, 10), block(1, 10)]
    events = [0, 0, 0, 1]  # block 1's first instruction is at offset 30 -> quantum 3
    trace = quantum_trace(blocks, events, [1.0, 1.0, 1.0, 2.0], 10)
    profiles = attribute_block_cpi(trace, mode="quantum")
    assert profiles[1] == 2.0


def test_weighted_average_hand_oracle():
    # n = (3 in q0, 1 in q1), v = (1.0, 2.0) -> p = (3*1.0 + 1*2.0)/4 = 1.25
    blocks = [block(0, 3), block(1, 5)]
    events = [0, 0, 0, 1, 0]  # block 0 starts at offsets 0,3,6 (q0) and 14 (q1)
    trace = quantum_trace(blocks, events, [1.0, 2.0], 10)
    profiles = attribute_block_cpi(trace, mode="quantum")
    assert profiles[0] == pytest.approx((3 * 1.0 + 1 * 2.0) / 4, abs=1e-12)


def test_golden_mode_is_cycles_over_instructions():
    trace = golden_trace({0: block(0, 4)}, [0, 0], [6.0, 10.0])
    profiles = attribute_block_cpi(trace, mode="golden")
    assert profiles[0] == pytest.approx(16.0 / 8.0)


def test_quantum_matches_golden_when_quanta_are_pure():
    # each quantum holds events of exactly one block
    spec = ScenarioSpec(
        segments=[
            SegmentSpec("a", block_cpi=1.25, block_instruction_count=5, event_count=4),
            SegmentSpec("b", block_cpi=2.5, block_instruction_count=5, event_count=4),
        ],
        repetitions=3,
        quantum_length=20,  # = one segment exactly
    )
    trace, _ = generate(spec)
    quantum = attribute_block_cpi(trace, mode="quantum")
    golden = attribute_block_cpi(trace, mode="golden")
    for bid in golden:
        assert quantum[bid] == pytest.approx(golden[bid], abs=1e-9)


def test_weighted_average_identity_constant_quanta():
    # every quantum containing the block reports the same cpi -> p_b is it
    blocks = [block(0, 4), block(1, 6)]
    events = [0, 1, 0, 1, 0, 1, 0]
    trace = quantum_trace(blocks, events, [1.7, 1.7, 1.7, 1.7], 10)
    profiles = attribute_block_cpi(trace, mode="quantum")
    assert profiles[0] == 1.7
    assert profiles[1] == 1.7


def test_auto_mode_prefers_quantum_samples():
    # quanta straddle the two blocks, so quantum weighting smears their CPIs
    spec = ScenarioSpec(
        segments=[
            SegmentSpec("a", block_cpi=1.0, block_instruction_count=3, event_count=7),
            SegmentSpec("b", block_cpi=2.0, block_instruction_count=4, event_count=5),
        ],
        repetitions=3,
        quantum_length=10,
    )
    trace, _ = generate(spec)
    auto = attribute_block_cpi(trace)
    assert auto == attribute_block_cpi(trace, mode="quantum") != attribute_block_cpi(trace, mode="golden")


def test_mass_conservation():
    spec = ScenarioSpec(
        segments=[
            SegmentSpec("a", block_cpi=1.0, block_instruction_count=3, event_count=7),
            SegmentSpec("b", block_cpi=2.0, block_instruction_count=4, event_count=5),
        ],
        repetitions=4,
        noise_stddev=0.1,
        seed=11,
    )
    trace, _ = generate(spec)
    profiles = attribute_block_cpi(trace, mode="golden")
    assert list(profiles) == np.unique(trace.event_blocks).tolist()
    cycles = sum(profiles[b] * np.diff(trace.event_starts)[trace.event_blocks == b].sum() for b in profiles)
    assert cycles == pytest.approx(trace.event_cycles.sum(), rel=1e-12)


def test_constant_block_waveform():
    trace = golden_trace({0: block(0, 25)}, [0] * 4, [37.5] * 4)  # cpi 1.5, D = 100
    wave = build_waveform(trace, attribute_block_cpi(trace), resolution=4)
    assert wave.sample_stride == 25
    np.testing.assert_allclose(wave.samples, [1.5, 1.5, 1.5, 1.5])
    block_ids = [row.split(",")[2] for row in waveform_csv(trace, wave).splitlines()[1:]]
    assert block_ids == ["0", "0", "0", "0"]


def test_alternating_blocks_waveform():
    blocks = {0: block(0, 10), 1: block(1, 10)}
    # block 0 at cpi 1.0, block 1 at cpi 2.0, alternating
    trace = golden_trace(blocks, [0, 1] * 8, [10.0, 20.0] * 8)
    wave = build_waveform(trace, attribute_block_cpi(trace), resolution=16)
    np.testing.assert_allclose(wave.samples, [1.0, 2.0] * 8)


def test_waveform_matches_instruction_walk_oracle():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n_blocks = int(rng.integers(2, 6))
        blocks = {i: block(i, int(rng.integers(1, 9))) for i in range(n_blocks)}
        ids = [int(rng.integers(0, n_blocks)) for _ in range(int(rng.integers(5, 40)))]
        cpis = {i: float(rng.uniform(0.5, 4.0)) for i in range(n_blocks)}
        trace = golden_trace(blocks, ids, [cpis[i] * blocks[i].instruction_count for i in ids])
        profiles = attribute_block_cpi(trace)
        resolution = int(rng.integers(2, 50))
        wave = build_waveform(trace, profiles, resolution)

        per_instr = walk_instructions(trace, profiles)
        expected = per_instr[np.asarray(wave.sample_offsets)]
        np.testing.assert_allclose(wave.samples, expected, atol=1e-12)


def test_zero_order_hold_refinement_consistency():
    spec = ScenarioSpec(
        segments=[
            SegmentSpec("a", block_cpi=1.0, block_instruction_count=7, event_count=13),
            SegmentSpec("b", block_cpi=3.0, block_instruction_count=11, event_count=5),
        ],
        repetitions=5,
        seed=5,
    )
    trace, _ = generate(spec)
    profiles = attribute_block_cpi(trace)
    coarse = build_waveform(trace, profiles, resolution=64)
    fine = build_waveform(trace, profiles, resolution=128)
    coarse_offsets = list(coarse.sample_offsets)
    fine_by_offset = dict(zip(fine.sample_offsets, fine.samples))
    shared = [o for o in coarse_offsets if o in fine_by_offset]
    assert shared, "refinement must share sample offsets"
    for o, v in zip(coarse_offsets, coarse.samples):
        if o in fine_by_offset:
            assert v == fine_by_offset[o]


def test_waveform_mean_close_to_trace_mean():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n_blocks = int(rng.integers(2, 5))
        blocks = {i: block(i, int(rng.integers(2, 12))) for i in range(n_blocks)}
        cpis = {i: float(rng.uniform(0.5, 3.0)) for i in range(n_blocks)}
        ids = [int(rng.integers(0, n_blocks)) for _ in range(60)]
        trace = golden_trace(blocks, ids, [cpis[i] * blocks[i].instruction_count for i in ids])
        profiles = attribute_block_cpi(trace)
        wave = build_waveform(trace, profiles, resolution=256)

        total = trace.total_instructions
        exact_mean = sum(
            profiles[b] * trace.blocks[b].instruction_count for b in ids
        ) / total
        rates = [profiles[b] for b in ids]
        transitions = sum(1 for a, b in zip(rates, rates[1:]) if a != b)
        bound = (max(cpis.values()) - min(cpis.values())) * transitions * wave.sample_stride / total
        assert abs(float(wave.samples.mean()) - exact_mean) <= bound + 1e-12


def test_missing_profile_rejected():
    trace = golden_trace({0: block(0, 5), 1: block(1, 5)}, [0, 1], [5.0, 10.0])
    profiles = attribute_block_cpi(trace)
    del profiles[1]
    with pytest.raises(ValueError, match="missing profile for executed block 1"):
        build_waveform(trace, profiles, 8)


@pytest.mark.parametrize("cpi, message", [
    ("2", "must be a finite real number, got '2'"),
    (True, "must be a finite real number, got True"),
    (None, "must be a finite real number, got None"),
    (math.nan, "must be a finite real number, got nan"),
    (math.inf, "must be a finite real number, got inf"),
    (10**400, "must be a finite real number, got 1000"),
    (-1.0, "must be positive"),
    (0, "must be positive"),
    (Fraction(1, 10**400), "must be positive"),
], ids=["str", "bool", "none", "nan", "inf", "int-beyond-float64", "negative", "zero",
        "fraction-below-float64"])
@pytest.mark.parametrize("entry", ["analyze", "build_waveform"])
def test_a_block_cpi_from_outside_must_be_a_finite_positive_real(entry, cpi, message):
    trace = golden_trace({0: block(0, 5), 1: block(1, 5)}, [0, 1, 0], [5.0, 10.0, 5.0])
    profiles = {0: 1.0, 1: cpi}
    with pytest.raises(ValueError, match=f"^block 1: CPI {message}"):
        if entry == "analyze":
            analyze(trace, profiles=profiles)
        else:
            build_waveform(trace, profiles, 8)


@pytest.mark.parametrize("key, message", [
    ("x", "must be an integer, got 'x'"),
    (0.0, "must be an integer, got 0.0"),
    (True, "must be an integer, got True"),
    (2**70, "must be an integer within int64, got 1180591620717411303424"),
], ids=["str", "float", "bool", "int-beyond-int64"])
@pytest.mark.parametrize("entry", ["analyze", "build_waveform"])
def test_a_block_id_keying_block_cpis_must_be_an_integer_within_int64(entry, key, message):
    trace = golden_trace({0: block(0, 5), 1: block(1, 5)}, [0, 1, 0], [5.0, 10.0, 5.0])
    profiles = {0: 1.0, 1: 2.0}
    profiles.pop(key, None)  # 0.0 and True would stand in for blocks 0 and 1
    profiles[key] = 1.0
    with pytest.raises(ValueError, match=f"^profile block id {message}$"):
        if entry == "analyze":
            analyze(trace, profiles=profiles)
        else:
            build_waveform(trace, profiles, 8)


def test_block_cpis_of_any_real_type_sample_as_their_floats():
    trace = golden_trace({0: block(0, 5), 1: block(1, 5), 2: block(2, 5)}, [0, 1, 2], [5.0, 10.0, 5.0])
    wave = build_waveform(trace, {0: 2, 1: Fraction(3, 2), 2: np.float32(0.5)}, 8)
    assert wave.samples.tolist() == build_waveform(trace, {0: 2.0, 1: 1.5, 2: 0.5}, 8).samples.tolist()


def test_unexecuted_block_omitted_from_profiles():
    trace = golden_trace({0: block(0, 5), 9: block(9, 5)}, [0], [5.0])
    profiles = attribute_block_cpi(trace)
    assert 9 not in profiles


def test_golden_waveform_uses_exact_event_cpi():
    # same block, different cycles per event: profile averages, golden does not
    trace = golden_trace({0: block(0, 10)}, [0, 0], [10.0, 30.0])
    wave = golden_waveform(trace, resolution=2)
    np.testing.assert_allclose(wave.samples, [1.0, 3.0])


def test_quantum_cpis_split_straddling_events():
    # event of 10 instructions at cpi 2.0 followed by 10 at 1.0; quanta of 5
    trace = golden_trace({0: block(0, 10), 1: block(1, 10)}, [0, 1], [20.0, 10.0])
    v = quantum_cpis(trace.event_starts, trace.event_cycles, 5)
    np.testing.assert_allclose(v, [2.0, 2.0, 1.0, 1.0])
    # straddle: quanta of 8 -> [2.0*8/8, (2*2 + 1*6)/8, (1*6 + pad)/4]
    v = quantum_cpis(trace.event_starts, trace.event_cycles, 8)
    np.testing.assert_allclose(v, [2.0, (2.0 * 2 + 1.0 * 6) / 8, 1.0])


def test_node_fields_match_per_node_lookups():
    # analyze fills every node's fields in one batch after building the tree;
    # each must equal what a lookup for that node alone gives
    nodes_seen, structures = 0, set()
    for seed in range(6):
        rng = np.random.default_rng(seed)

        def flat(label, entry=EntryKind.FALLTHROUGH):
            return SegmentSpec(label, block_cpi=float(rng.uniform(0.5, 3.0)),
                               block_instruction_count=int(rng.integers(1, 7)),
                               event_count=int(rng.integers(2, 6)), entry_kind=entry)

        # h calls the inner loop, so the root's head block ends in a call
        inner = SegmentSpec("inner", nested=[flat("x"), flat("y", EntryKind.CALL)],
                            nested_repetitions=3, entry_kind=EntryKind.CALL)
        segments = [flat("h", EntryKind.BACKWARD_BRANCH), inner, flat("a"), flat("b", EntryKind.CALL)]
        trace, _ = generate(ScenarioSpec(segments, repetitions=12, noise_stddev=0.05, seed=seed))
        profiles = attribute_block_cpi(trace)
        index = EventIndex.from_trace(trace)
        rates = profile_rates(index, profiles)
        per_instr = walk_instructions(trace, profiles)
        for node in analyze(trace, profiles=profiles).walk():
            a, b = node.start_instruction, node.end_instruction
            below = cycles_below(index.starts, rates, np.array((a, b)))
            assert node.mean_cpi == float((below[1] - below[0]) / (b - a))
            assert node.mean_cpi == pytest.approx(float(per_instr[a:b].mean()), abs=1e-9)
            event = int(trace.event_starts.searchsorted(a, side="right")) - 1
            assert node.head_block == int(index.block_ids[event])
            context = trace.blocks[int(index.block_ids[event - 1])] if event > 0 else None
            assert node.structure is classify_structure(trace.blocks[node.head_block], context)
            nodes_seen += 1
            structures.add(node.structure)
    assert nodes_seen >= 20 and structures == set(Structure)


# --- exact equality with the per-block mask loop ---------------------------------

def mask_loop_profiles(trace, mode):
    """Reference attribution: one boolean mask per block over all events,
    the way profiles were computed before the sort-based grouping."""
    index = EventIndex.from_trace(trace)
    instr_counts = np.diff(index.starts)
    if mode == "quantum":
        per_event_v = trace.quanta[index.starts[:-1] // trace.quantum_length]
    out = {}
    for bid in np.unique(index.block_ids):
        mask = index.block_ids == bid
        if mode == "quantum":
            out[int(bid)] = float(per_event_v[mask].sum() / int(mask.sum()))
        else:
            out[int(bid)] = float(trace.event_cycles[mask].sum() / int(instr_counts[mask].sum()))
    return out


def random_quantum_trace(rng, block_ids, n_events):
    """Golden trace with noisy cycles over the given ids, plus quanta."""
    blocks = {b: block(b, int(rng.integers(1, 12)), addr=0x1000 + 0x40 * i)
              for i, b in enumerate(block_ids)}
    ids = rng.choice(np.array(block_ids, dtype=np.int64), n_events)
    counts = np.array([blocks[b].instruction_count for b in ids.tolist()])
    cycles = counts * rng.uniform(0.3, 4.0, n_events)
    golden = golden_trace(blocks, ids, cycles)
    length = int(rng.integers(20, 400))
    quanta = quantum_cpis(golden.event_starts, golden.event_cycles, length)
    return ExecutionTrace(blocks=blocks, event_blocks=ids, event_cycles=cycles,
                          quanta=quanta, quantum_length=length)


@pytest.mark.parametrize("n_blocks, sparse", [(8, False), (512, False), (8, True), (512, True)])
def test_attribution_equals_mask_loop_exactly(n_blocks, sparse):
    rng = np.random.default_rng(n_blocks + sparse)
    block_ids = list(range(n_blocks))
    if sparse:  # -7, 10**12 and even ids in [-10**9, 10**9)
        others = 2 * rng.choice(10**9, n_blocks - 2, replace=False) - 10**9
        block_ids = [-7, 10**12, *others.tolist()]
    trace = random_quantum_trace(rng, block_ids, 40 * n_blocks)
    for mode in ("golden", "quantum"):
        expected = mask_loop_profiles(trace, mode)
        profiles = attribute_block_cpi(trace, mode=mode)
        assert list(profiles) == list(expected)  # ascending block id
        for bid, cpi in expected.items():
            assert profiles[bid] == cpi  # exact: same additions, same order


@pytest.mark.parametrize("mode", ["golden", "quantum"])
def test_block_sums_keep_the_pairwise_order_of_one_sum_per_block(mode):
    # numpy's .sum() adds 8 or more values pairwise, in another order than a
    # running sum (np.add.reduceat, np.bincount); on these blocks of 9 and
    # 131 events the two orders give different last digits in both modes
    rng = np.random.default_rng(25)
    sizes = {3: 9, -1: 131, 40: 2}
    blocks = {b: block(b, int(rng.integers(1, 12)), addr=0x1000 + 0x40 * i)
              for i, b in enumerate(sizes)}
    ids = rng.permutation(np.repeat(list(sizes), list(sizes.values())))
    counts = np.array([blocks[b].instruction_count for b in ids.tolist()])
    cycles = counts * rng.uniform(0.3, 4.0, ids.size)
    # one quantum per instruction, each with its own random CPI
    trace = ExecutionTrace(blocks=blocks, event_blocks=ids, event_cycles=cycles,
                           quanta=rng.uniform(0.3, 4.0, counts.sum()), quantum_length=1)
    values = cycles if mode == "golden" else trace.quanta[trace.event_starts[:-1]]
    profiles = attribute_block_cpi(trace, mode=mode)
    for bid, size in sizes.items():
        mask = ids == bid
        weight = int(counts[mask].sum()) if mode == "golden" else size
        assert profiles[bid] == float(values[mask].sum() / weight)
        if size >= 9:
            assert values[mask].sum() != np.cumsum(values[mask])[-1]


def test_sparse_ids_analyze_and_serialize_like_renumbered_ids():
    from phasescope import analyze, serialize_trace

    spec = ScenarioSpec(
        segments=[SegmentSpec(f"s{i}", block_cpi=0.8 + 0.4 * i, block_instruction_count=3 + i,
                              event_count=5 + i) for i in range(8)],
        repetitions=12,
        noise_stddev=0.05,
        seed=4,
        quantum_length=97,
    )
    dense, _ = generate(spec)
    # an order-preserving renumbering, so ties broken by block id break alike
    sparse_of = dict(zip(range(8), [-7, -3, 0, 5, 2**40, 10**12, 10**15, 2**63 - 1]))
    sparse = ExecutionTrace(
        blocks={sparse_of[b]: BlockDescriptor(sparse_of[b], d.start_address, d.instruction_count,
                                              d.terminator, d.target_address)
                for b, d in dense.blocks.items()},
        event_blocks=[sparse_of[b] for b in dense.event_blocks.tolist()],
        event_cycles=dense.event_cycles,
        quanta=dense.quanta,
        quantum_length=dense.quantum_length,
    )

    renumbered = []
    for line in serialize_trace(dense).splitlines():
        fields = line.split()
        if fields[0] in ("B", "E"):
            fields[1] = str(sparse_of[int(fields[1])])
        renumbered.append(" ".join(fields))
    assert serialize_trace(sparse) == "\n".join(renumbered) + "\n"

    for mode in ("golden", "quantum"):
        a = list(analyze(dense, profiles=attribute_block_cpi(dense, mode)).walk())
        b = list(analyze(sparse, profiles=attribute_block_cpi(sparse, mode)).walk())
        assert len(a) == len(b) and len(a) > 1
        for x, y in zip(a, b):
            assert sparse_of[x.head_block] == y.head_block
            assert (x.start_instruction, x.length_instructions, x.occurrence, x.mean_cpi,
                    x.structure) == (y.start_instruction, y.length_instructions,
                                     y.occurrence, y.mean_cpi, y.structure)


def test_waveform_csv_matches_the_per_row_writer():
    rng = np.random.default_rng(3)
    ids = [-7, 0, 2**40, 2**63 - 1]
    blocks = {b: block(b, int(rng.integers(4, 9)), addr=0x1000 + 0x100 * i) for i, b in enumerate(ids)}
    events = rng.choice(ids, 1000).tolist()  # at least 4000 instructions
    trace = golden_trace(blocks, events, [1.5 * blocks[b].instruction_count for b in events])
    samples = 10.0 ** rng.uniform(-8, 20, 500)  # both exponent spellings and positional
    samples[::4] = rng.uniform(0.5, 3.0, 125)
    wave = Waveform(samples=samples, sample_stride=7, origin_instruction=11)
    # oracle: the block executing each instruction, walked event by event
    walked = [b for b in events for _ in range(blocks[b].instruction_count)]
    rows = ["instruction_offset,cpi,block_id"]
    for off, cpi in zip(wave.sample_offsets.tolist(), wave.samples):
        rows.append(f"{off},{float(cpi)!r},{walked[off]}")
    assert waveform_csv(trace, wave) == "\n".join(rows) + "\n"


# --- input checks ---------------------------------------------------------------

def _golden():
    return golden_trace({0: block(0, 10)}, [0, 0, 0], [10.0, 20.0, 30.0])


def _quantum():
    return quantum_trace([block(0, 10)], [0, 0, 0], [1.0, 2.0, 3.0], 10)


@pytest.mark.parametrize("call, message", [
    (lambda: Waveform(samples=[], sample_stride=1, origin_instruction=0),
     "waveform needs at least one sample"),
    (lambda: Waveform(samples=[1.0], sample_stride=0, origin_instruction=0),
     "sample_stride must be positive"),
    (lambda: golden_waveform(_quantum()), "golden cycles required"),
    (lambda: attribute_block_cpi(_golden(), "mean"), "unknown attribution mode 'mean'"),
    (lambda: attribute_block_cpi(_golden(), "quantum"),
     "quantum attribution requires quantum records"),
    (lambda: attribute_block_cpi(_quantum(), "golden"),
     "golden attribution requires cycles on every event"),
    (lambda: sample_range(_golden().event_starts, np.ones(3), 0, 30, 1),
     "resolution must be >= 2"),
    (lambda: sample_range(_golden().event_starts, np.ones(3), 10, 10, 4),
     "empty sample range"),
    (lambda: sample_grid(5, 0, 4), "empty sample range"),
    (lambda: quantum_cpis(_golden().event_starts, _golden().event_cycles, 0),
     "quantum_length must be positive"),
    (lambda: quantum_cpis(_golden().event_starts, _golden().event_cycles, 2.5),
     "quantum_length must be an integer, got 2.5"),
    (lambda: quantum_cpis(_golden().event_starts, _golden().event_cycles, True),
     "quantum_length must be an integer, got True"),
], ids=["empty-waveform", "zero-stride", "no-golden-cycles", "unknown-mode", "quantum-without-quanta",
        "golden-without-cycles", "resolution-1", "empty-range", "reversed-range",
        "quantum-length-0", "quantum-length-2.5", "quantum-length-True"])
def test_attribution_rejects_unusable_input(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("samples", [3.0, np.ones((2, 3))], ids=["shape-()", "shape-(2,3)"])
def test_waveform_takes_only_1d_samples(samples):
    """A scalar or a 2-D array has no sample order to resample or split."""
    shape = np.shape(samples)
    with pytest.raises(ValueError, match=f"^{re.escape(f'waveform samples must be 1-D, got shape {shape}')}$"):
        Waveform(samples=samples, sample_stride=1, origin_instruction=0)


@pytest.mark.parametrize("samples, message", [
    ([1.0, np.nan, 5, 5], "waveform sample 1 must be a finite real number, got nan"),
    ([1.0, np.inf, 5, 5], "waveform sample 1 must be a finite real number, got inf"),
    (np.array([2.0, 1.0, -np.inf]), "waveform sample 2 must be a finite real number, got -inf"),
    (["1.5", "2", "1", "3"], "waveform sample 0 must be a finite real number, got '1.5'"),
    ([True, False, True, False], "waveform sample 0 must be a finite real number, got True"),
    ([2, True], "waveform sample 1 must be a finite real number, got True"),
    ([1.0, 10**400], f"waveform sample 1 must be a finite real number, got {10**400!r}"),
], ids=["nan", "inf", "array-minus-inf", "str", "bool", "int-then-bool", "beyond-float64"])
def test_waveform_takes_only_finite_real_samples(samples, message):
    """numpy would read a str or a bool as a float, and a spectrum of a
    non-finite sample is NaN throughout."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Waveform(samples=samples, sample_stride=1, origin_instruction=0)


@pytest.mark.parametrize("stride, origin, field", [
    (2.5, 0, "sample_stride"),
    (True, 0, "sample_stride"),
    (np.float64(2.0), 0, "sample_stride"),
    (2, 0.5, "origin_instruction"),
    (2, "3", "origin_instruction"),
])
def test_waveform_takes_only_integer_strides_and_origins(stride, origin, field):
    """A fractional stride or origin would put samples between instructions."""
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        Waveform(samples=[1.0, 1.0, 5.0, 5.0], sample_stride=stride, origin_instruction=origin)


@st.composite
def sampled_ranges(draw):
    """A step function, a range in it and a resolution. Its bounds strictly
    increase from anywhere in int64, by steps of a few or of many
    instructions, and each step has its own value; the resolution is
    coarse (strides of many instructions) or, on a short range, past its
    length (a stride of one)."""
    widths = draw(st.lists(st.one_of(st.integers(1, 20), st.integers(1, 2**40)), min_size=1, max_size=80))
    first = draw(st.integers(-(2**62), 2**62 - sum(widths)))
    starts = np.array([first, *widths], dtype=np.int64).cumsum()
    values = np.arange(1.0, len(widths) + 1.0)
    start = draw(st.integers(int(starts[0]), int(starts[-1]) - 1))
    stop = draw(st.integers(start + 1, int(starts[-1])))
    return starts, values, start, stop, draw(st.integers(2, min(3 * (stop - start) + 2, 5000)))


@settings(max_examples=300, deadline=None)
@given(case=sampled_ranges())
def test_sample_range_holds_the_rate_of_the_event_at_every_offset(case):
    starts, values, start, stop, resolution = case
    offsets, stride = sample_grid(start, stop, resolution)
    wave = sample_range(starts, values, start, stop, resolution)
    assert (wave.sample_stride, wave.origin_instruction) == (stride, start)
    # the step holding an offset is the last one starting at or before it
    bounds = starts.tolist()
    expected = [values[bisect_right(bounds, x) - 1] for x in offsets.tolist()]
    assert wave.samples.tolist() == expected


def test_sample_range_refuses_a_range_outside_the_trace():
    starts = _golden().event_starts  # 30 instructions
    for start, stop in ((-1, 10), (0, 31)):
        with pytest.raises(ValueError, match="sample range outside the trace"):
            sample_range(starts, np.ones(3), start, stop, 4)
    # a step function need not start at instruction 0
    with pytest.raises(ValueError, match="sample range outside the trace"):
        sample_range(np.array([5, 10]), np.ones(1), 4, 10, 4)
    assert sample_range(np.array([5, 10]), np.ones(1), 5, 10, 4).samples.tolist() == [1.0] * 3


def test_sample_grid_is_the_grid_sample_range_samples_on():
    offsets, stride = sample_grid(7, 30, 4)
    assert stride == 6 and offsets.tolist() == [7, 13, 19, 25]
    wave = sample_range(_golden().event_starts, np.array([1.0, 2.0, 3.0]), 7, 30, 4)
    assert (wave.sample_stride, wave.origin_instruction) == (6, 7)
    assert wave.sample_offsets.tolist() == offsets.tolist()
    assert wave.samples.tolist() == [1.0, 2.0, 2.0, 3.0]


def test_a_resolution_beyond_float64_samples_every_instruction():
    # a float quotient 64 / 10**400 raised ZeroDivisionError or OverflowError
    offsets, stride = sample_grid(0, 64, 10**400)
    assert stride == 1 and offsets.tolist() == list(range(64))
    wave = golden_waveform(_golden(), 10**400)
    assert wave.sample_stride == 1 and wave.samples.tolist() == [1.0] * 10 + [2.0] * 10 + [3.0] * 10


def test_quantum_count_is_the_exact_ceiling():
    # (2**60 + 1) / 2**59 rounds to 2.0 in float64; the ceiling is 3
    trace = golden_trace({0: block(0, 2**60), 1: block(1, 1)}, [0, 1], [2.0**60, 2.0**60])
    cpis = quantum_cpis(trace.event_starts, trace.event_cycles, 2**59)
    assert cpis.tolist() == [1.0, 1.0, 2.0**60]
