"""Exhaustive swap search: oracle match, enumeration, determinism."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from keyswap.corpus import KeySequence, ingest_tweets, read_tweet_file
from keyswap.effort import EffortModel, delta_cost, stats_cost
from keyswap.geometry import LETTERS, GeometrySpec, SwapSet, apply_swaps, build_geometry, qwerty_layout
from keyswap.optimizer import (
    MODES,
    OptimizationResult,
    SearchConfig,
    _best,
    _SIZE2,
    _Size3Kernel,
    _best_size3,
    _build_c2,
    _build_d1,
    _candidate_blocks,
    _size3_plan,
    _triplet_pairings,
    enumerate_swapsets,
    optimize,
    swap_count,
    verify_result,
)
from keyswap.stats import BigramStats, count_bigrams

from conftest import brute_force, canonical_pair_tuples, random_corpus_text, reference_c2, tie_heavy_text

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("n", [1, 2])
def test_optimize_matches_brute_force(geometry, n):
    rng = random.Random(4242 + n)
    for _ in range(4):
        stats = count_bigrams(KeySequence(random_corpus_text(rng, 60, 400)))
        got = optimize(geometry, stats, SearchConfig(n_swap_pairs=n))
        want_pairs, want_cost = brute_force(geometry, stats, n)
        assert got.swaps.pairs == want_pairs
        assert got.best_cost_mm == want_cost
        assert got.candidates == swap_count(n)


def test_enumeration_counts():
    assert swap_count(1) == 325
    assert swap_count(2) == 44_850
    assert swap_count(3) == 3_453_450
    assert swap_count(3, "paper") == 2_302_300
    assert sum(1 for _ in enumerate_swapsets(1)) == 325
    assert sum(1 for _ in enumerate_swapsets(2)) == 44_850


def test_enumeration_is_canonical_and_ordered():
    # Both prefixes cross first-pair boundaries: 276 two-pair sets and
    # 31,878 three-pair sets start with ab.
    cases = (
        (2, 2000, (("a", "b"), ("c", "d")), (("a", "b"), ("c", "e"))),
        (3, 40_000, (("a", "b"), ("c", "d"), ("e", "f")), (("a", "b"), ("c", "d"), ("e", "g"))),
    )
    for n, prefix, first, second in cases:
        seen = list(itertools.islice(enumerate_swapsets(n), prefix))
        assert all(s.is_canonical() for s in seen)
        encodings = [s.pairs for s in seen]
        assert encodings == sorted(encodings)
        assert encodings[-1][0] != encodings[0][0]
        # The stream begins at the smallest n disjoint pairs.
        assert encodings[:2] == [first, second]


def test_size3_winner_beats_sampled_rescored_candidates(geometry):
    # Half the sample is uniform; the other half combines the 30 best
    # single swaps, where a wrong winner most likely has a cheaper rival.
    rng = random.Random(3333)
    base = qwerty_layout()
    for text in ("the quick brown fox jumps over the lazy dog", random_corpus_text(rng, 300, 600)):
        stats = count_bigrams(KeySequence(text))
        best = optimize(geometry, stats, SearchConfig(n_swap_pairs=3)).best_cost_mm
        singles = sorted(
            itertools.combinations(LETTERS, 2),
            key=lambda p: stats_cost(geometry, apply_swaps(base, SwapSet((p,))), stats),
        )[:30]
        sample = []
        while len(sample) < 10_000:
            chosen = rng.sample(LETTERS, 6)
            pairs = [chosen[0:2], chosen[2:4], chosen[4:6]] if len(sample) % 2 else rng.sample(singles, 3)
            if len(set().union(*pairs)) == 6:
                sample.append(SwapSet.from_pairs(pairs))
        for swaps in sample:
            cost = stats_cost(geometry, apply_swaps(base, swaps), stats)
            assert cost >= best or math.isclose(cost, best, rel_tol=1e-9), swaps


def bundled_texts() -> list[str]:
    return [ingest_tweets(read_tweet_file(str(p))).text for p in sorted(DATA.glob("*.jsonl"))]


def test_delta_tables_are_bit_identical_to_their_references(geometry):
    texts = bundled_texts()
    texts += [random_corpus_text(random.Random(1000 + s), 200, 1500) for s in range(5)]
    texts += [tie_heavy_text(random.Random(2000 + s)) for s in range(3)]
    base = qwerty_layout()
    pairs = list(itertools.combinations(LETTERS, 2))
    for text in texts:
        stats = count_bigrams(KeySequence(text))
        # alpha=-2.5 makes table entries negative; bytes tell -0.0 from +0.0
        models = (EffortModel(), EffortModel(kind="fitts", alpha=0.2), EffortModel(kind="fitts", alpha=-2.5, beta=3.0))
        for model in models:
            base_cost = stats_cost(geometry, base, stats, model)
            d1 = _build_d1(geometry, stats, base, base_cost, model)
            c2, c2_rows = _build_c2(geometry, stats, base, model)
            want = [delta_cost(geometry, base, base_cost, stats, SwapSet((p,)), model) - base_cost for p in pairs]
            assert d1.tobytes() == np.array(want).tobytes(), (text[:20], model)
            assert c2.tobytes() == reference_c2(geometry, stats, base, model).tobytes(), (text[:20], model)
            assert c2_rows.tobytes() == c2[_SIZE2].tobytes(), (text[:20], model)


def test_delta_table_build_peak_memory(geometry):
    # The c2 build holds c2, its 44,850 values and about 1 MB of chunk
    # buffers allocated once; perfbench's peak_rss_mb follows this transient.
    stats = count_bigrams(KeySequence(ingest_tweets(read_tweet_file(str(DATA / "river.jsonl"))).text))
    base, model = qwerty_layout(), EffortModel()
    base_cost = stats_cost(geometry, base, stats, model)
    _build_d1(geometry, stats, base, base_cost, model)  # fill effort_tables' cache
    tracemalloc.start()
    try:
        _build_d1(geometry, stats, base, base_cost, model), _build_c2(geometry, stats, base, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, peak


# SHA-256 of the size-3 candidate columns, stacked as int64
STREAM_SHA256 = {
    "canonical": "b20d6498d1598c5cf276ed0f197fcc4782e50105573663d8ac49a7d9502423af",
    "paper": "445ecc4a9fdfc2a3ca441d7142c3ea1d436fee7c4748f07015776c0f16e8aa81",
}


@pytest.mark.parametrize("mode", sorted(STREAM_SHA256))
def test_size3_candidate_streams_are_pinned(mode):
    # The block boundaries may move; the concatenated rows, their order
    # and their count may not.
    blocks = list(_candidate_blocks(3) if mode == "canonical" else _triplet_pairings())
    cols = np.stack([np.concatenate([b[c] for b in blocks]) for c in range(3)]).astype(np.int64)
    assert hashlib.sha256(cols.tobytes()).hexdigest() == STREAM_SHA256[mode]


def test_enumeration_matches_independent_generator():
    got = [s.pairs for s in enumerate_swapsets(2)]
    want = sorted(canonical_pair_tuples(2))
    assert got == want


def test_enumeration_rejects_bad_arguments():
    with pytest.raises(ValueError):
        list(enumerate_swapsets(4))
    with pytest.raises(ValueError):
        list(enumerate_swapsets(2, "paper"))
    with pytest.raises(ValueError):
        list(enumerate_swapsets(1, "random"))
    # swap_count shares enumerate_swapsets' argument check
    for n, mode in ((4, "canonical"), (2, "paper"), (3, "random"), (3.0, "canonical"), (True, "canonical")):
        with pytest.raises(ValueError):
            swap_count(n, mode)


def test_paper_mode_enumeration_prefix():
    stream = enumerate_swapsets(3, "paper")
    first = next(stream)
    # Triplet (a,b,c) paired with (d,e,f) position-wise.
    assert first.pairs == (("a", "d"), ("b", "e"), ("c", "f"))
    assert first.is_canonical()


def _encodings(blocks) -> np.ndarray:
    # base-325 keys order like canonical encodings
    i, j, k = (np.concatenate(col) for col in zip(*blocks))
    return (i * 325 + j) * 325 + k


@pytest.mark.parametrize("n, mode", [(1, "canonical"), (2, "canonical"), (3, "canonical"), (3, "paper")])
def test_candidate_streams_ascend_so_argmin_breaks_ties(n, mode):
    # _best's plain argmin keeps the first minimum; that is the smallest
    # tied encoding only because the rows ascend in encoding.
    blocks = list(_candidate_blocks(n, mode))
    keys = np.zeros(sum(len(b[0]) for b in blocks), dtype=np.int64)
    for c in range(n):
        keys = keys * 325 + np.concatenate([b[c] for b in blocks])
    assert np.all(np.diff(keys) > 0)
    # With every delta zero, all rows tie and the first row must win.
    d1, c2 = np.zeros(325), np.zeros((325, 325))
    first = tuple(int(col[0]) for col in blocks[0])
    assert min(_best(d1, c2, block) for block in blocks) == (0.0, first)
    if n == 3:
        # tau is 0, so nothing is pruned: every block is scored once, and
        # the first pairs that take no row are dropped, not returned as +inf
        found = _best_size3(d1, c2, c2[_SIZE2], _size3_plan(mode))
        assert sorted(i for _, (i, _, _) in found) == [int(b[0][0]) for b in blocks]
        assert all(math.isfinite(delta) for delta, _ in found)
        assert min(found) == (0.0, first)


@pytest.mark.parametrize("mode", MODES)
def test_size3_plan_suffixes_are_runs_of_first_pairs(mode):
    # _best_size3 repeats each first-pair term runs[j] times in place of
    # gathering it, so each suffix must hold every later j, in order.
    plan = _size3_plan(mode)
    for i in [int(b[0][0]) for b in _candidate_blocks(3, mode)]:
        runs = np.repeat(np.arange(325)[i + 1 :], plan.runs[i + 1 :])
        assert np.array_equal(runs, plan.first[plan.lo[i] :]), i


def _bits(found) -> list[tuple[bytes, tuple[int, ...]]]:
    # compare deltas as bytes: == would let -0.0 stand for 0.0
    return [(np.float64(delta).tobytes(), idx) for delta, idx in found]


def test_size3_kernel_matches_best_on_every_block(geometry):
    # The kernel's per-block scorer equals _best on every block. The scan
    # finds the same least (delta, encoding), and every block it skips
    # costs strictly more than that.
    texts = bundled_texts() + [tie_heavy_text(random.Random(2000 + s)) for s in range(3)]
    blocks = {mode: list(_candidate_blocks(3, mode)) for mode in MODES}
    assert all(len(b[0]) for mode in MODES for b in blocks[mode])
    base = qwerty_layout()
    for text in texts:
        stats = count_bigrams(KeySequence(text))
        for model in (EffortModel(), EffortModel(kind="fitts", alpha=0.2)):
            base_cost = stats_cost(geometry, base, stats, model)
            d1 = _build_d1(geometry, stats, base, base_cost, model)
            c2, c2_rows = _build_c2(geometry, stats, base, model)
            for mode in MODES:
                case = (text[:20], model.kind, mode)
                plan = _size3_plan(mode)
                kernel = _Size3Kernel(d1, c2, c2_rows, plan)
                # the kernel takes c2 at its rows from the table build, not by a gather
                assert kernel.c2jk.tobytes() == c2[plan.first, plan.second].tobytes(), case
                firsts = [int(b[0][0]) for b in blocks[mode]]
                want = [_best(d1, c2, block) for block in blocks[mode]]
                assert _bits([kernel.block(i) for i in firsts]) == _bits(want), case
                found = _best_size3(d1, c2, c2_rows, plan)
                assert all(math.isfinite(delta) for delta, _ in found)
                assert set(_bits(found)) <= set(_bits(want)), case
                assert _bits([min(found)]) == _bits([min(want)]), case
                scanned = {idx[0] for _, idx in found}
                skipped = [delta for i, (delta, _) in zip(firsts, want) if i not in scanned]
                assert all(delta > min(want)[0] for delta in skipped), case


@pytest.mark.parametrize("mode", MODES)
def test_size3_scan_scores_both_blocks_of_a_planted_tie(mode):
    # Small integers add exactly, so rows (ad, be, cf) and (gm, hn, io)
    # both cost -3 and every other row costs more. c2[gm, jz] = -10 gives
    # the later block the lower bound, so it is scanned first; the earlier
    # block must still be scanned, and its smaller encoding must win.
    idx = {"".join(p): n for n, p in enumerate(itertools.combinations(LETTERS, 2))}
    rows = [tuple(idx[p] for p in row) for row in (("ad", "be", "cf"), ("gm", "hn", "io"))]
    d1, c2 = np.full(325, 2.0), np.full((325, 325), 5.0)
    for row in rows:
        for p, q in itertools.combinations(row, 2):
            c2[p, q] = c2[q, p] = -3.0
    c2[idx["gm"], idx["jz"]] = c2[idx["jz"], idx["gm"]] = -10.0
    blocks = list(_candidate_blocks(3, mode))
    found = _best_size3(d1, c2, c2[_SIZE2], _size3_plan(mode))
    assert found[0][1][0] == rows[1][0]
    assert {rows[0][0], rows[1][0]} <= {i for _, (i, _, _) in found}
    assert len(found) < len(blocks)
    assert min(found) == (-3.0, rows[0])
    assert min(found) == min(_best(d1, c2, block) for block in blocks)


def test_size3_search_peak_memory(geometry):
    # The search's own arrays stay inside the table build's allowance.
    stats = count_bigrams(KeySequence(ingest_tweets(read_tweet_file(str(DATA / "river.jsonl"))).text))
    searches = (SearchConfig(cumulative=True), SearchConfig(mode="paper"))
    for cfg in searches:
        optimize(geometry, stats, cfg)  # fill the effort table and plan caches
    for cfg in searches:
        tracemalloc.start()
        try:
            optimize(geometry, stats, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, (cfg.mode, peak)


# Key sizes and gaps (all four set to x) whose costs overflow on river,
# with the part of the message that names the check that fires first.
NON_FINITE_GEOMETRIES = [
    pytest.param(1e304, "overflow in the best layout cost or the improvement rate", id="per-overflows"),
    pytest.param(3e304, "overflow in the base layout cost", id="base-cost-sum-overflows"),
    pytest.param(1e306, "overflow encountered in", id="numpy-sum-overflows"),
    pytest.param(1e307, "encountered in", id="distances-overflow"),
]
SEARCHES = {
    "size1": SearchConfig(n_swap_pairs=1),
    "size2": SearchConfig(n_swap_pairs=2),
    "size3": SearchConfig(),
    "size3-cumulative": SearchConfig(cumulative=True),
    "paper": SearchConfig(mode="paper"),
}


@pytest.mark.parametrize("x, check", NON_FINITE_GEOMETRIES)
def test_optimize_rejects_costs_that_are_not_finite(x, check):
    # Any RuntimeWarning fails the suite, so this also shows that no
    # overflow is left to warn: optimize raises on the first one.
    g = build_geometry(GeometrySpec(key_width=x, key_height=x, h_gap=x, v_gap=x))
    stats = count_bigrams(KeySequence(ingest_tweets(read_tweet_file(str(DATA / "river.jsonl"))).text))
    for name, cfg in SEARCHES.items():
        with pytest.raises(ValueError, match="not finite on this corpus and geometry") as info:
            optimize(g, stats, cfg)
        assert check in str(info.value), name


def test_each_triplet_pairing_block_ascends():
    # The paper reference test takes min over _best of these blocks, so
    # each block, though not the whole stream, must ascend.
    for block in _triplet_pairings():
        keys = (block[0].astype(np.int64) * 325 + block[1]) * 325 + block[2]
        assert np.all(np.diff(keys) > 0)


def test_paper_set_blocks_are_the_triplet_streams_distinct_sets():
    distinct = _encodings(_candidate_blocks(3, "paper"))
    assert np.all(np.diff(distinct) > 0)
    sets, counts = np.unique(_encodings(_triplet_pairings()), return_counts=True)
    assert np.array_equal(distinct, sets)
    # Not every set is reached twice; only the total is 2 * 1,151,150.
    multiplicity = dict(zip(*(x.tolist() for x in np.unique(counts, return_counts=True))))
    assert multiplicity == {1: 460_460, 2: 460_460, 4: 230_230}


def test_paper_search_matches_the_triplet_stream_reference(geometry):
    texts = bundled_texts() + [tie_heavy_text(random.Random(2000 + s)) for s in range(3)]
    base = qwerty_layout()
    pairs = list(itertools.combinations(LETTERS, 2))
    for text in texts:
        stats = count_bigrams(KeySequence(text))
        for model in (EffortModel(), EffortModel(kind="fitts", alpha=0.2)):
            got = optimize(geometry, stats, SearchConfig(mode="paper", model=model))
            base_cost = stats_cost(geometry, base, stats, model)
            d1, (c2, _) = _build_d1(geometry, stats, base, base_cost, model), _build_c2(geometry, stats, base, model)
            _, idx = min(_best(d1, c2, block) for block in _triplet_pairings())
            want = SwapSet(tuple(pairs[p] for p in idx))
            assert got.swaps == want, (text[:20], model.kind)
            assert got.best_cost_mm == stats_cost(geometry, apply_swaps(base, want), stats, model)
            assert got.candidates == swap_count(3, "paper")


def test_paper_mode_telemetry_and_dominance(geometry):
    rng = random.Random(11)
    stats = count_bigrams(KeySequence(random_corpus_text(rng, 200, 400)))
    paper = optimize(geometry, stats, SearchConfig(mode="paper"))
    assert paper.raw_ordered_pairs == 6_757_400
    assert paper.candidates == 2_302_300
    assert verify_result(geometry, stats, paper)
    canonical = optimize(geometry, stats, SearchConfig(n_swap_pairs=3))
    assert canonical.candidates == 3_453_450
    assert canonical.raw_ordered_pairs is None
    # Triplet pairings are a strict subset of all 3-pair swap sets.
    assert canonical.best_cost_mm <= paper.best_cost_mm


def test_cumulative_candidate_count(geometry):
    stats = count_bigrams(KeySequence("the quick brown fox jumps over the lazy dog"))
    res = optimize(geometry, stats, SearchConfig(cumulative=True))
    assert res.candidates == 1 + 325 + 44_850 + 3_453_450
    assert res.cumulative
    # A bigger pool can only help.
    plain = optimize(geometry, stats, SearchConfig(n_swap_pairs=3))
    assert res.best_cost_mm <= plain.best_cost_mm


def test_cumulative_small_sizes(geometry):
    rng = random.Random(8)
    stats = count_bigrams(KeySequence(random_corpus_text(rng, 80, 200)))
    res = optimize(geometry, stats, SearchConfig(n_swap_pairs=2, cumulative=True))
    assert res.candidates == 1 + 325 + 44_850
    want_pairs, want_cost = brute_force(geometry, stats, 2)
    one_pairs, one_cost = brute_force(geometry, stats, 1)
    base = stats_cost(geometry, qwerty_layout(), stats)
    options = [(want_cost, want_pairs), (one_cost, one_pairs), (base, ())]
    best_cost, best_pairs = min(options)
    assert res.swaps.pairs == best_pairs
    assert res.best_cost_mm == best_cost


def test_worker_count_does_not_change_output(geometry):
    rng = random.Random(5150)
    stats = count_bigrams(KeySequence(random_corpus_text(rng, 300, 600)))
    solo = optimize(geometry, stats, SearchConfig(n_swap_pairs=2, workers=1))
    multi = optimize(geometry, stats, SearchConfig(n_swap_pairs=2, workers=3))
    assert solo.to_json_dict() == multi.to_json_dict()
    assert json.dumps(solo.to_json_dict()) == json.dumps(multi.to_json_dict())


def test_optimize_rejects_degenerate_inputs(geometry):
    with pytest.raises(ValueError):
        optimize(geometry, BigramStats())
    # A corpus of one doubled letter has positive presses but zero cost.
    with pytest.raises(ValueError):
        optimize(geometry, count_bigrams(KeySequence("aa")))


# (n, mode, whether a search of that size and mode exists)
SIZE_MODE_CASES = [
    (1, "canonical", True),
    (2, "canonical", True),
    (3, "canonical", True),
    (3, "paper", True),
    (0, "canonical", False),
    (4, "canonical", False),
    (2, "paper", False),
    (4, "paper", False),
    (3, "random", False),
    (3, None, False),
    (3.0, "canonical", False),
    (3.0, "paper", False),
    (True, "canonical", False),
    ("3", "canonical", False),
    (None, "paper", False),
]


@pytest.mark.parametrize("n, mode, ok", SIZE_MODE_CASES)
def test_search_config_and_swap_count_share_the_size_rule(n, mode, ok):
    def accepts(make) -> bool:
        try:
            make()
        except ValueError:
            return False
        return True

    assert accepts(lambda: SearchConfig(n_swap_pairs=n, mode=mode)) is ok
    assert accepts(lambda: swap_count(n, mode)) is ok


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(n_swap_pairs=4)
    with pytest.raises(ValueError):
        SearchConfig(mode="simulated")
    with pytest.raises(ValueError):
        SearchConfig(mode="paper", n_swap_pairs=2)
    with pytest.raises(ValueError):
        SearchConfig(mode="paper", cumulative=True)
    with pytest.raises(ValueError):
        SearchConfig(workers=0)


def test_search_config_json_round_trip():
    cfg = SearchConfig(n_swap_pairs=2, cumulative=True, workers=4)
    assert SearchConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict()))) == cfg


def test_result_json_round_trip_and_wall_time(geometry):
    stats = count_bigrams(KeySequence("round trip me please"))
    res = optimize(geometry, stats, SearchConfig(n_swap_pairs=1))
    assert res.wall_time_s is not None and res.wall_time_s > 0.0
    d = res.to_json_dict()
    # Serialized wall time is null so reruns emit identical bytes.
    assert d["wall_time_s"] is None
    assert "cumulative" not in d
    timed = res.to_json_dict(include_wall_time=True)
    assert timed["wall_time_s"] == res.wall_time_s
    again = OptimizationResult.from_json_dict(d)
    assert again.swaps == res.swaps
    assert again.best_cost_mm == res.best_cost_mm
    assert verify_result(geometry, stats, again)


def test_verify_result_catches_tampering(geometry):
    stats = count_bigrams(KeySequence("tamper detection works"))
    res = optimize(geometry, stats, SearchConfig(n_swap_pairs=1))
    assert verify_result(geometry, stats, res)
    d = res.to_json_dict()
    d["best_cost_mm"] *= 1.001
    assert not verify_result(geometry, stats, OptimizationResult.from_json_dict(d))
    d = res.to_json_dict()
    d["swaps"] = [list(reversed(d["swaps"][0]))]
    assert not verify_result(geometry, stats, OptimizationResult.from_json_dict(d))


def test_verify_result_defaults_to_the_result_model(geometry):
    stats = count_bigrams(KeySequence("tamper detection works"))
    fitts = EffortModel(kind="fitts", alpha=0.2)
    res = optimize(geometry, stats, SearchConfig(n_swap_pairs=1, model=fitts))
    assert verify_result(geometry, stats, res)
    assert verify_result(geometry, stats, res, fitts)
    assert not verify_result(geometry, stats, res, EffortModel())
