"""Exhaustive swap search: oracle match, enumeration, determinism."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from keyswap.corpus import KeySequence, ingest_tweets, read_tweet_file
from keyswap.effort import EffortModel, _cost_inputs, _layout_cost, delta_cost, stats_cost
from keyswap.geometry import DEFAULT_SPEC, LETTERS, GeometrySpec, SwapSet, apply_swaps, build_geometry, qwerty_layout
from keyswap.optimizer import (
    MODES,
    OptimizationResult,
    SearchConfig,
    _band_width,
    _bands,
    _best,
    _SIZE2,
    _Size3Kernel,
    _best_size3,
    _candidate_blocks,
    _rescore,
    _row_deltas,
    _size3_plan,
    _triplet_pairings,
    enumerate_swapsets,
    optimize,
    swap_count,
    verify_result,
)
from keyswap import optimizer
from keyswap.stats import BigramStats, count_bigrams

from conftest import (
    TIE_RECIPE_WORDS,
    TWO_LETTER_TEXT,
    UNIFORM_TEXT,
    brute_force,
    c2_table,
    canonical_pair_tuples,
    canonical_rows,
    canonical_triples,
    layout_costs,
    live_pair_classes,
    live_pair_keys,
    oracle_best,
    random_corpus_text,
    reference_c2,
    tie_heavy_text,
)

DATA = Path(__file__).parent / "data"
LETTER_PAIRS = list(itertools.combinations(LETTERS, 2))


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


def _build_d1(g, stats, base, base_cost, model):
    """The search's d1 for one corpus, built from scratch; it reads no
    base_cost."""
    return optimizer._build_d1(_cost_inputs(g, stats, base, model))


def _build_c2(g, stats, base, model):
    """The search's c2 for one corpus, one entry per size-2 row."""
    return optimizer._build_c2(_cost_inputs(g, stats, base, model))


# alpha=-2.5 makes table entries negative; bytes tell -0.0 from +0.0
MODELS = (EffortModel(), EffortModel(kind="fitts", alpha=0.2), EffortModel(kind="fitts", alpha=-2.5, beta=3.0))


def table_texts() -> list[str]:
    texts = bundled_texts()
    texts += [random_corpus_text(random.Random(1000 + s), 200, 1500) for s in range(5)]
    return texts + [tie_heavy_text(random.Random(2000 + s)) for s in range(3)]


# SHA-256 of the float64 bytes of every delta_cost, stats_cost and
# _band_width value of test_public_costs_are_pinned, in its order
COST_SHA256 = {
    "delta_cost": "d75276ccff5242d053515e21a67dba350cd7c7dad4772ad197098027d02539ed",
    "stats_cost": "9f67f0c69b68c85a01267f3ec937e5c0bc2fead9aa88f4452cd220a19885a2aa",
    "band_width": "2666bcd64980b8eae8ac509bebec6754e32c515ea815858625e66ad8a5c40d4d",
}


def _random_swaps(rng: random.Random, n: int) -> SwapSet:
    letters = rng.sample(LETTERS, 2 * n)
    return SwapSet.from_pairs(zip(letters[::2], letters[1::2]))


def test_public_costs_are_pinned(geometry):
    # Swap sets of 1, 2 and 3 pairs from qwerty and from a layout that a
    # 3-pair set has moved, under each model; test_delta_cost_matches_full_recompute
    # compares with a tolerance, these digests compare bits. The band
    # width of each base decides which rows the re-score sees.
    rng = random.Random(1717)
    values = {name: [] for name in COST_SHA256}
    for text in table_texts() + [TWO_LETTER_TEXT]:
        stats = count_bigrams(KeySequence(text))
        for model in MODELS:
            moved = _random_swaps(rng, 3)
            for base in (qwerty_layout(), apply_swaps(qwerty_layout(), moved)):
                base_cost = stats_cost(geometry, base, stats, model)
                values["stats_cost"].append(base_cost)
                values["band_width"].append(_band_width(_cost_inputs(geometry, stats, base, model), base_cost))
                for n in (1, 2, 3, 1, 2, 3):
                    swaps = _random_swaps(rng, n)
                    values["delta_cost"].append(delta_cost(geometry, base, base_cost, stats, swaps, model))
                    values["stats_cost"].append(stats_cost(geometry, apply_swaps(base, swaps), stats, model))
    got = {name: hashlib.sha256(np.array(v).tobytes()).hexdigest() for name, v in values.items()}
    assert got == COST_SHA256


@pytest.mark.parametrize("spec", [DEFAULT_SPEC, DEFAULT_SPEC.scaled(2.0)], ids=["default", "scaled"])
def test_delta_cost_adds_the_change_in_layout_cost(spec):
    # delta_cost(c) is c + (stats_cost(swapped) - stats_cost(base)) bit
    # for bit, whatever c is. With c = stats_cost(base) it is
    # stats_cost(swapped) itself wherever the two costs are within a
    # factor of 2, as Sterbenz's lemma makes their difference exact.
    g = build_geometry(spec)
    rng = random.Random(2323)
    exact = cases = 0
    for text in table_texts() + [TWO_LETTER_TEXT]:
        stats = count_bigrams(KeySequence(text))
        for model in MODELS:
            for base in (qwerty_layout(), apply_swaps(qwerty_layout(), _random_swaps(rng, 3))):
                base_cost = stats_cost(g, base, stats, model)
                for n in (1, 2, 3):
                    swaps = _random_swaps(rng, n)
                    swapped = stats_cost(g, apply_swaps(base, swaps), stats, model)
                    for c in (base_cost, 0.0, -base_cost, rng.uniform(-1e4, 1e4)):
                        got = delta_cost(g, base, c, stats, swaps, model)
                        assert got.hex() == (c + (swapped - base_cost)).hex(), (text[:20], model, swaps, c)
                    cases += 1
                    if base_cost * swapped > 0 and abs(swapped) / 2 <= abs(base_cost) <= 2 * abs(swapped):
                        got = delta_cost(g, base, base_cost, stats, swaps, model)
                        assert got.hex() == swapped.hex(), (text[:20], model, swaps)
                        exact += 1
    # the factor-2 claim is not vacuous: it covers most cases
    assert exact > 0.9 * cases, (exact, cases)


# SHA-256 of the float64 bytes of every d1, and of every c2 at the size-2
# rows, of test_fast_tables_are_pinned, in its order
TABLE_SHA256 = {
    "d1": "28b1ffba42d06bb2748ab4264aecf86ae0a4466cdcba57a429943cdf917c5412",
    "c2": "30c9c83bbb439d347c7258608767cbc5fd3fdeb09f5355600a42be14e350c652",
}


def test_fast_tables_are_pinned():
    # The winner is chosen within a band of these tables, so their bits
    # are pinned; c2 is pinned at the 44,850 size-2 rows, the entries the
    # search reads.
    values = {name: [] for name in TABLE_SHA256}
    for spec in (DEFAULT_SPEC, DEFAULT_SPEC.scaled(2.0)):
        g = build_geometry(spec)
        for text in table_texts() + [TWO_LETTER_TEXT]:
            stats = count_bigrams(KeySequence(text))
            for model in MODELS:
                x = _cost_inputs(g, stats, qwerty_layout(), model)
                values["d1"].append(optimizer._build_d1(x))
                values["c2"].append(optimizer._build_c2(x))
    got = {name: hashlib.sha256(np.concatenate(v).tobytes()).hexdigest() for name, v in values.items()}
    assert got == TABLE_SHA256


def _margin(d1, c2, d1x, c2x, eps) -> float:
    """eps over the largest |fast row - reference row| at sizes 1 and 2,
    and over a bound on it at size 3: three d1 and three c2 differences
    plus the rounding of two five-addition sums."""
    i, j = _SIZE2
    size1 = np.abs(d1 - d1x).max()
    size2 = np.abs(_row_deltas(d1, c2, _SIZE2) - _row_deltas(d1x, c2x, _SIZE2)).max()
    s = 3 * (np.abs(d1x).max() + np.abs(c2x).max())
    size3 = 3 * size1 + 3 * np.abs(c2[i, j] - c2x[i, j]).max() + 2 * 5 * 2.0**-53 * 1.01 * s
    return eps / max(size1, size2, size3)


def test_fast_tables_stay_within_eps_of_the_exact_ones(geometry):
    # eps must exceed |fast row - (layout cost(row) - base_cost)|, the
    # layout cost being the oracle's, at every size-1 row and at every
    # size-2 row of the corpora of at most 5,000 live-pair classes; the
    # others use every 16th size-2 row, as their 44,850 layouts take about
    # 0.5 s a model. The fast tables are also held to delta_cost - base_cost,
    # the change in layout cost up to the rounding of one addition, and to
    # reference_c2. UNIFORM_TEXT makes the 16 products of c2[ab, cd]
    # cancel: the reference entry is a rounding residue and the fast one
    # 0.0, so eps must come from the magnitudes of the terms, not from c2.
    # The smallest margin over these cases is about 62 against the tables,
    # under Fitts alpha -2.5, and about 1,500 against the layout costs.
    base = qwerty_layout()
    margins = []
    for text in table_texts() + [UNIFORM_TEXT]:
        stats = count_bigrams(KeySequence(text))
        checked = []
        for n in (1, 2):
            rows = canonical_rows(n)
            keys = live_pair_keys(stats, rows)
            if np.unique(keys).size > 5000:
                rows, keys = tuple(col[::16] for col in rows), keys[::16]
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            checked.append((rows, tuple(col[first] for col in rows), inverse))
        for model in MODELS:
            base_cost = stats_cost(geometry, base, stats, model)
            x = _cost_inputs(geometry, stats, base, model)
            eps = _band_width(x, base_cost) / 2
            d1, c2 = optimizer._build_d1(x), c2_table(optimizer._build_c2(x))
            d1x = np.array([delta_cost(geometry, base, base_cost, stats, SwapSet((p,)), model) for p in LETTER_PAIRS])
            c2x = reference_c2(geometry, stats, base, model)
            margins.append(_margin(d1, c2, d1x - base_cost, c2x, eps))
            for rows, firsts, inverse in checked:
                layout = layout_costs(geometry, stats, firsts, model)[inverse]
                margins.append(eps / np.abs(_row_deltas(d1, c2, rows) - (layout - base_cost)).max())
            if text == UNIFORM_TEXT and model == MODELS[0]:
                ab, cd = (LETTER_PAIRS.index(p) for p in (("a", "b"), ("c", "d")))
                assert c2[ab, cd] == 0.0 != c2x[ab, cd], model
    assert min(margins) > 1, min(margins)


def test_delta_table_build_peak_memory(geometry):
    # The build holds d1, c2's 44,850 rows (0.34 MiB) and one pass of
    # _build_c2's gathers (a few (4,000, 2, 2) float64 arrays, 125 KiB
    # each); the geometry half of c2 is kept per process, like
    # effort_tables, and is filled before the count starts. perfbench's
    # peak_rss_mb follows this transient.
    stats = count_bigrams(KeySequence(ingest_tweets(read_tweet_file(str(DATA / "river.jsonl"))).text))
    base, model = qwerty_layout(), EffortModel()
    base_cost = stats_cost(geometry, base, stats, model)
    # fill the caches of effort_tables and of c2's geometry half
    _build_d1(geometry, stats, base, base_cost, model), _build_c2(geometry, stats, base, model)
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
    d1, c2 = np.zeros(325), np.zeros(len(_SIZE2[0]))
    table = c2_table(c2)
    first = tuple(int(col[0]) for col in blocks[0])
    assert min(_best(d1, table, block) for block in blocks) == (0.0, first)
    if n == 3:
        # the band is 0 and the tables are exact, so nothing is pruned:
        # every block is scored and every row ties, so the band is the
        # whole stream, in its order; the first pairs that take no row add
        # no row
        rows = _best_size3(_Size3Kernel(d1, c2, _size3_plan(mode)), 0.0)
        assert np.array_equal(_encodings([rows]), _encodings(blocks))


@pytest.mark.parametrize("mode", MODES)
def test_size3_plan_suffixes_are_runs_of_first_pairs(mode):
    # _best_size3 repeats each first-pair term runs[j] times in place of
    # gathering it, so each suffix must hold every later j, in order.
    plan = _size3_plan(mode)
    for i in [int(b[0][0]) for b in _candidate_blocks(3, mode)]:
        runs = np.repeat(np.arange(325)[i + 1 :], plan.runs[i + 1 :])
        assert np.array_equal(runs, plan.first[plan.lo[i] :]), i


@pytest.mark.parametrize("mode", MODES)
def test_size3_plan_is_built_once_per_mode_and_read_only(geometry, mode):
    # Every size-3 search of a mode shares one plan, so none may write to
    # it, and a search on the kept plan gives the bytes of one that built it.
    stats = count_bigrams(KeySequence(ingest_tweets(read_tweet_file(str(DATA / "river.jsonl"))).text))

    def result_bytes() -> str:
        return json.dumps(optimize(geometry, stats, SearchConfig(mode=mode)).to_json_dict())

    _size3_plan.cache_clear()
    built = result_bytes()
    plan = _size3_plan(mode)
    assert _size3_plan(mode) is plan
    for a in plan:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = a.flat[0]
    assert result_bytes() == built
    assert _size3_plan(mode) is plan


def test_c2_geometry_half_is_cached_per_table_and_read_only(monkeypatch):
    # Searches over three geometries and the three models, and the first
    # again, share the cached geometry tables, c2's half and d1's parts,
    # only where their effort tables are the same: each search's d1 and c2
    # have the bits of a build from an empty cache, every cached array is
    # read-only, and the cache keeps at most its bound of entries. Other
    # space sub-key columns change h but not e. Fitts alpha -2.5 makes the
    # base cost negative on the scaled geometry, so that model is searched
    # on the default one only.
    stats = count_bigrams(KeySequence(tie_heavy_text(random.Random(2002))))
    builds = {name: getattr(optimizer, name) for name in ("_build_d1", "_build_c2")}
    built = {name: [] for name in builds}
    for name, build in builds.items():
        monkeypatch.setattr(optimizer, name, lambda x, n=name, b=build: built[n].append(b(x)) or built[n][-1])
    cache = optimizer._geometry_tables
    bound = cache.cache_info().maxsize
    steps = [(spec, model) for model in MODELS[:2] for spec in (DEFAULT_SPEC, DEFAULT_SPEC.scaled(2.0))]
    steps += [(DEFAULT_SPEC, MODELS[2]), (GeometrySpec(space_subkey_columns=(4, 10, 11, 12)), MODELS[0])]
    steps.append((DEFAULT_SPEC, MODELS[0]))
    assert len({(spec, model) for spec, model in steps}) > bound
    cache.cache_clear()
    for spec, model in steps:
        g = build_geometry(spec)
        optimize(g, stats, SearchConfig(n_swap_pairs=2, model=model))
        assert cache.cache_info().currsize <= bound, (spec, model)
        x = _cost_inputs(g, stats, qwerty_layout(), model)
        tables = cache(x.e.tobytes() + x.h.tobytes() + x.sp.tobytes())
        for a in (tables.sp, *tables.e, *tables.h, tables.c2):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.flat[0] = a.flat[0]
    # each search reads the cache for d1 and for c2, and the loop once more
    assert cache.cache_info().hits >= 2 * len(steps)
    for (spec, model), d1, c2 in zip(steps, built["_build_d1"], built["_build_c2"], strict=True):
        x = _cost_inputs(build_geometry(spec), stats, qwerty_layout(), model)
        for build, table in ((builds["_build_d1"], d1), (builds["_build_c2"], c2)):
            cache.cache_clear()
            assert build(x).tobytes() == table.tobytes(), (spec, model)
    # A search whose costs overflow still fails as it did, and adds no
    # entry; nor does a fill whose own differences overflow, in c2's half
    # (e) or only in d1's parts (sp).
    g = build_geometry(GeometrySpec(key_width=1e306, key_height=1e306, h_gap=1e306, v_gap=1e306))
    river = count_bigrams(KeySequence(ingest_tweets(read_tweet_file(str(DATA / "river.jsonl"))).text))
    before = cache.cache_info().currsize
    with pytest.raises(ValueError, match="not finite on this corpus and geometry") as info:
        optimize(g, river, SearchConfig())
    assert "overflow encountered in" in str(info.value)
    e, sp = np.zeros((26, 26)), np.zeros(26)
    e[0], e[1] = 1e308, -1e308
    sp[0], sp[1] = 1e308, -1e308
    h = np.zeros((26, 26))
    for key in (e.tobytes() + h.tobytes() + np.zeros(26).tobytes(), h.tobytes() + h.tobytes() + sp.tobytes()):
        with pytest.raises(FloatingPointError), optimizer._raising():
            cache(key)
        assert cache.cache_info().currsize == before
    # Here only c2's second differences overflow: the entry holds d1's
    # parts, and its c2 fill raises on every read, keeping no c2.
    e = np.zeros((26, 26))
    e[0, 2] = e[1, 3] = 1e308
    with optimizer._raising():
        tables = cache(e.tobytes() + h.tobytes() + np.zeros(26).tobytes())
        for _ in range(2):
            with pytest.raises(FloatingPointError):
                tables.c2


def test_size3_kernel_matches_best_on_every_block(geometry):
    # The kernel's gather, in one call over every third run of every block,
    # gives each row that its first pair takes the bits of _row_deltas, and
    # +inf to every other row of the runs; the rows it takes are the
    # stream's rows of those runs, in the stream's order. The scan returns
    # exactly the stream's rows within the band of its least delta, though
    # it skips blocks and runs.
    texts = bundled_texts() + [tie_heavy_text(random.Random(2000 + s)) for s in range(3)]
    blocks = {mode: list(_candidate_blocks(3, mode)) for mode in MODES}
    assert all(len(b[0]) for mode in MODES for b in blocks[mode])
    base = qwerty_layout()
    for text in texts:
        stats = count_bigrams(KeySequence(text))
        for model in (EffortModel(), EffortModel(kind="fitts", alpha=0.2)):
            base_cost = stats_cost(geometry, base, stats, model)
            d1 = _build_d1(geometry, stats, base, base_cost, model)
            c2 = _build_c2(geometry, stats, base, model)
            table = c2_table(c2)
            band = _band_width(_cost_inputs(geometry, stats, base, model), base_cost)
            for mode in MODES:
                case = (text[:20], model.kind, mode)
                plan = _size3_plan(mode)
                kernel = _Size3Kernel(d1, c2, plan)
                # a paper plan gathers c2 only at the rows it keeps; one +inf follows them
                assert kernel.c2jk.tobytes() == np.append(table[plan.first, plan.second], np.inf).tobytes(), case
                deltas = np.concatenate([_row_deltas(d1, table, block) for block in blocks[mode]])
                firsts = np.array([int(block[0][0]) for block in blocks[mode]])
                at = kernel.lb(firsts)[0][::3]
                i, rows, part = kernel.gather(at)
                # runs[j] rows of each run (i, j), in the order of at
                n = plan.runs[plan.second[at]]
                assert np.array_equal(i, np.repeat(plan.first[at], n)), case
                assert np.array_equal(plan.first[rows], np.repeat(plan.second[at], n)), case
                taken = plan.takes[i, plan.second[rows]] < plan.first.shape[0]
                assert np.all(part[~taken] == np.inf), case
                # the stream's rows (i, j, k) whose run (i, j) is gathered
                encodings = _encodings(blocks[mode])
                gathered = np.isin(encodings // 325, plan.first[at] * 325 + plan.second[at])
                got = (i[taken] * 325 + plan.first[rows[taken]]) * 325 + plan.second[rows[taken]]
                assert np.array_equal(encodings[gathered], got), case
                assert part[taken].tobytes() == deltas[gathered].tobytes(), case
                in_band = np.flatnonzero(deltas <= deltas.min() + band)
                rows = _best_size3(_Size3Kernel(d1, c2, plan), band)
                assert np.array_equal(_encodings([rows]), encodings[in_band]), case


def test_the_size2_band_is_the_size3_kernels_a(geometry):
    # A cumulative search cuts its size-2 band from the size-3 kernel's a,
    # and a size-2 search sums a itself: both give the same rows, and a
    # has the bits of _row_deltas at every size-2 row.
    texts = bundled_texts() + [tie_heavy_text(random.Random(s)) for s in (2003, 2038)] + [TWO_LETTER_TEXT]
    for text in texts:
        stats = count_bigrams(KeySequence(text))
        for model in (EffortModel(), EffortModel(kind="fitts", alpha=0.2)):
            case = (text[:20], model.kind)
            x = _cost_inputs(geometry, stats, qwerty_layout(), model)
            base_cost = _layout_cost(x)
            cumulative = _bands(x, base_cost, (1, 2, 3), "canonical")[1]
            [alone] = _bands(x, base_cost, (2,), "canonical")
            assert len(cumulative) == len(alone) == 2, case
            for got, want in zip(cumulative, alone):
                assert np.array_equal(got, want), case
            d1, c2 = optimizer._build_d1(x), optimizer._build_c2(x)
            kernel = _Size3Kernel(d1, c2, _size3_plan("canonical"))
            assert kernel.a.tobytes() == _row_deltas(d1, c2_table(c2), _SIZE2).tobytes(), case


def _watch_scan(monkeypatch) -> list[np.ndarray]:
    """Record each gather of the size-3 scan as the first pair of each of
    its runs, in its order."""
    scored = []
    gather = _Size3Kernel.gather

    def watched_gather(kernel, at):
        scored.append(kernel.plan.first[at])
        return gather(kernel, at)

    monkeypatch.setattr(_Size3Kernel, "gather", watched_gather)
    return scored


def _scan_tau(d1, c2, band) -> float:
    """An allowance for the rounding of the bounds, for tables with no
    band: 2**-40 * (3 * (max|d1| + max|c2|) + band)."""
    return 2.0**-40 * (3 * (np.abs(d1).max() + np.abs(c2).max()) + band)


def _size3_table_cases(geometry):
    """(name, d1, c2, band) over the bundled corpora and tie_heavy_text
    seeds under two models, and random tables with a zero band; c2 holds
    the size-2 rows."""
    base = qwerty_layout()
    texts = [(p.stem, t) for p, t in zip(sorted(DATA.glob("*.jsonl")), bundled_texts())]
    texts += [(f"tie-{s}", tie_heavy_text(random.Random(s))) for s in (2003, 2038)]
    for name, text in texts:
        stats = count_bigrams(KeySequence(text))
        for model in (EffortModel(), EffortModel(kind="fitts", alpha=0.2)):
            x = _cost_inputs(geometry, stats, base, model)
            yield (name, model.kind), optimizer._build_d1(x), optimizer._build_c2(x), _band_width(x, _layout_cost(x))
    rng = np.random.default_rng(2222)
    for s in range(3):
        yield ("random", s), rng.normal(size=325), rng.normal(size=len(_SIZE2[0])), 0.0


def test_size3_bounds_hold_for_every_block_and_run(geometry, monkeypatch):
    # Each first pair's block bound is at most its block's least delta, and
    # each lb(i, j) at most the least delta of run j of block i, up to the
    # band, the only slack of _best_size3's cut, the deltas being
    # _row_deltas'. Random tables have no band, and are held to _scan_tau's
    # rounding allowance. The runs of i are the pairs that i takes, in
    # order. The scan's first gather is one run of the block of least bound.
    scored = _watch_scan(monkeypatch)
    for name, d1, c2, band in _size3_table_cases(geometry):
        slack = band or _scan_tau(d1, c2, band)
        table = c2_table(c2)
        for mode in MODES:
            case = (name, mode)
            plan = _size3_plan(mode)
            kernel = _Size3Kernel(d1, c2, plan)
            bound = kernel.block_bounds()
            blocks = list(_candidate_blocks(3, mode))
            firsts = np.array([int(b[0][0]) for b in blocks])
            assert np.all(np.isfinite(bound[firsts])), case
            at, lb = kernel.lb(firsts)
            assert np.array_equal(plan.first[at], np.repeat(firsts, plan.runs[firsts])), case
            assert np.all(plan.takes[plan.first[at], plan.second[at]] == at), case
            ends = np.cumsum(plan.runs[firsts])
            for i, hi, block in zip(firsts.tolist(), ends.tolist(), blocks):
                deltas = _row_deltas(d1, table, block)
                assert bound[i] <= deltas.min() + slack, (case, i)
                # the least delta of each run of i, +inf where the block has no row (i, j, .)
                j = plan.second[at[hi - plan.runs[i] : hi]]
                least = np.full(j.shape, np.inf)
                seconds, starts = np.unique(block[1], return_index=True)
                least[np.searchsorted(j, seconds)] = np.minimum.reduceat(deltas, starts)
                assert np.all(lb[hi - plan.runs[i] : hi] <= least + slack), (case, i)
            del scored[:]
            _best_size3(_Size3Kernel(d1, c2, plan), band)
            assert scored[0].tolist() == [np.argmin(bound)], case


@pytest.mark.parametrize("mode", MODES)
def test_size3_scan_scores_both_blocks_of_a_planted_tie(mode, monkeypatch):
    # Small integers add exactly, so rows (ad, be, cf) and (gm, hn, io)
    # both cost -3 and every other row costs more. c2[gm, jz] = -10 gives
    # the later block the lower bound, so one run of it seeds the scan; the
    # earlier block must still be scored, so that a band of width 0 holds
    # both rows, and the smaller encoding must win. Its bound on run be,
    # -3, is the only one within the cut, so a later gather scores it.
    idx = {"".join(p): n for n, p in enumerate(itertools.combinations(LETTERS, 2))}
    rows = [tuple(idx[p] for p in row) for row in (("ad", "be", "cf"), ("gm", "hn", "io"))]
    # c2's entry of each size-2 row (p, q), p < q
    at = {pq: r for r, pq in enumerate(zip(*(col.tolist() for col in _SIZE2)))}
    d1, c2 = np.full(325, 2.0), np.full(len(_SIZE2[0]), 5.0)
    for row in rows:
        for p, q in itertools.combinations(row, 2):
            c2[at[p, q]] = -3.0
    c2[at[idx["gm"], idx["jz"]]] = -10.0
    table = c2_table(c2)
    scored = _watch_scan(monkeypatch)
    got = _best_size3(_Size3Kernel(d1, c2, _size3_plan(mode)), 0.0)
    assert scored[0].tolist() == [rows[1][0]]
    assert rows[0][0] in np.concatenate(scored[1:])
    assert len(np.unique(np.concatenate(scored))) < len(list(_candidate_blocks(3, mode)))
    assert [tuple(int(c[r]) for c in got) for r in range(len(got[0]))] == rows
    assert _best(d1, table, got) == (-3.0, rows[0]) == min(_best(d1, table, block) for block in _candidate_blocks(3, mode))


@pytest.mark.parametrize("mode", MODES)
def test_size3_scan_seeded_by_a_run_with_no_row(mode, monkeypatch):
    # First pair 315 has a finite bound and takes no row, and in its every
    # run j's own run is empty. With zero tables but c2[315, q] = -8 for
    # every size-2 row (315, q), its block has the least bound, so one of
    # its runs, with no row, seeds the scan. best must then stay +inf, so
    # that every run is gathered, and the band is that of the stream: the
    # rows (i, 315, q), each costing -8.
    d1, c2 = np.zeros(325), np.zeros(len(_SIZE2[0]))
    c2[_SIZE2[0] == 315] = -8.0
    plan = _size3_plan(mode)
    kernel = _Size3Kernel(d1, c2, plan)
    assert np.argmin(kernel.block_bounds()) == 315
    assert np.all(kernel.lb(np.array([315]))[1] == np.inf)
    scored = _watch_scan(monkeypatch)
    got = _best_size3(_Size3Kernel(d1, c2, plan), 0.0)
    assert scored[0].tolist() == [315]
    blocks = list(_candidate_blocks(3, mode))
    deltas = np.concatenate([_row_deltas(d1, c2_table(c2), block) for block in blocks])
    in_band = np.flatnonzero(deltas <= deltas.min())
    assert deltas.min() == -8.0 and len(in_band) == {"canonical": 693, "paper": 630}[mode]
    assert np.array_equal(_encodings([got]), _encodings(blocks)[in_band])


@pytest.mark.parametrize("mode", MODES)
def test_size3_scan_keeps_its_band_with_one_run_a_chunk(geometry, mode, monkeypatch):
    # With one run a chunk, the scan applies its falling cut again before
    # every run, the seed run's second scoring included; its band
    # must still be every row of the stream within band of the least delta,
    # in the stream's order.
    monkeypatch.setattr(optimizer, "_RUNS", 1)
    blocks = list(_candidate_blocks(3, mode))
    river = ingest_tweets(read_tweet_file(str(DATA / "river.jsonl"))).text
    texts = [river, TWO_LETTER_TEXT, tie_heavy_text(random.Random(2038))]
    for text in texts:
        x = _cost_inputs(geometry, count_bigrams(KeySequence(text)), qwerty_layout(), EffortModel())
        d1, c2, band = optimizer._build_d1(x), optimizer._build_c2(x), _band_width(x, _layout_cost(x))
        table = c2_table(c2)
        deltas = np.concatenate([_row_deltas(d1, table, block) for block in blocks])
        in_band = np.flatnonzero(deltas <= deltas.min() + band)
        rows = _best_size3(_Size3Kernel(d1, c2, _size3_plan(mode)), band)
        assert np.array_equal(_encodings([rows]), _encodings(blocks)[in_band]), text[:20]


def test_size3_scan_counts_on_the_bundled_users(geometry, monkeypatch):
    # The rows that each gather of a size-3 search returns, seed run first,
    # on each bundled user: the README quotes their ranges, 190 to 253 seed
    # rows and 2,088 to 13,531 in all, and in paper mode 70 to 133 seed rows
    # and 133 to 6,403 more.
    counts = {
        "allotment": {"canonical": [190, 8746], "paper": [70, 3930]},
        "kitchen": {"canonical": [253, 1835], "paper": [133, 133]},
        "river": {"canonical": [190, 12554, 707], "paper": [70, 6403]},
        "stargazer": {"canonical": [190, 7533], "paper": [70, 1150]},
        "workshop": {"canonical": [190, 13080, 261], "paper": [70, 4986]},
    }
    gathered = []
    gather = _Size3Kernel.gather
    monkeypatch.setattr(_Size3Kernel, "gather", lambda kernel, at: gathered.append(gather(kernel, at)) or gathered[-1])
    for path, text in zip(sorted(DATA.glob("*.jsonl")), bundled_texts(), strict=True):
        stats = count_bigrams(KeySequence(text))
        for mode in MODES:
            del gathered[:]
            optimize(geometry, stats, SearchConfig(mode=mode))
            assert [len(deltas) for _, _, deltas in gathered] == counts[path.stem][mode], (path.stem, mode)


def test_size3_search_peak_memory(geometry):
    # The search's own arrays stay inside the table build's allowance.
    stats = count_bigrams(KeySequence(ingest_tweets(read_tweet_file(str(DATA / "river.jsonl"))).text))
    searches = (SearchConfig(cumulative=True), SearchConfig(mode="paper"))
    for cfg in searches:
        optimize(geometry, stats, cfg)  # fill the caches of effort tables, plans and c2's geometry half
    for cfg in searches:
        tracemalloc.start()
        try:
            optimize(geometry, stats, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, (cfg.mode, peak)


def test_size3_search_peak_memory_with_a_wide_band(geometry):
    # Two used letters put tens of thousands of rows in the size-3 band;
    # scoring them again stays inside the same allowance, in both modes.
    stats = count_bigrams(KeySequence(TWO_LETTER_TEXT))
    for cfg in (SearchConfig(cumulative=True), SearchConfig(mode="paper")):
        optimize(geometry, stats, cfg)
        tracemalloc.start()
        try:
            optimize(geometry, stats, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, (cfg.mode, peak)


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc", reason="relies on glibc malloc's mmap threshold"
)
def test_later_searches_take_next_to_no_page_faults():
    # The first search fills c2's geometry half in one unchunked gather and
    # frees its 1.4 MB temporaries, so glibc raises its mmap threshold and
    # later searches reuse heap memory instead of faulting in fresh pages.
    # A chunked fill leaves it low: each later size-3 search then faulted
    # 400-700 times. A fresh process sees the fill as a CLI run does.
    script = textwrap.dedent(
        """
        import resource, sys
        from keyswap import KeySequence, build_geometry
        from keyswap.corpus import ingest_tweets, read_tweet_file
        from keyswap.optimizer import SearchConfig, optimize
        from keyswap.stats import count_bigrams

        g, cfg = build_geometry(), SearchConfig(cumulative=True)
        stats = count_bigrams(KeySequence(ingest_tweets(read_tweet_file(sys.argv[1])).text))
        optimize(g, stats, cfg)
        for _ in range(10):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            optimize(g, stats, cfg)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-c", script, str(DATA / "river.jsonl")], env=env, capture_output=True, text=True, check=True
    ).stdout
    faults = [int(line) for line in out.split()]
    assert len(faults) == 10 and statistics.median(faults) <= 100, faults


def _bits(found: tuple[float, tuple]) -> tuple[bytes, tuple]:
    """A (cost, encoding) pair with the cost's float64 bytes, so that -0.0,
    +0.0 and 1-ulp differences count."""
    return np.float64(found[0]).tobytes(), found[1]


def _letter_pairs(idx: tuple[int, ...]) -> tuple[tuple[str, str], ...]:
    return tuple(LETTER_PAIRS[p] for p in idx)


def test_optimize_picks_the_exact_winner_of_every_row(geometry):
    # The oracle takes the least (stats_cost, encoding) over every row of
    # each size, scoring one row per live-pair class; the size-3 and paper
    # classes are keyed once per corpus. optimize scores only the band of
    # the fast tables, which must hold that winner, and its re-score must
    # give each band the oracle's least row with its bits, which optimize
    # reports. These corpora tie heavily; under Fitts alpha 0.2 the fast
    # tables alone move the size-3 winner of tie_heavy_text(random.Random(2004)).
    base = qwerty_layout()
    texts = [tie_heavy_text(random.Random(s), *TIE_RECIPE_WORDS) for s in (2009, 2032, 2038)]
    # one-letter words: every count is across a space
    texts += [tie_heavy_text(random.Random(2004)), TWO_LETTER_TEXT, "a b c a b"]
    # the live letters sort last, so band rows hold dead pairs before and after a live one
    texts += ["yz zy yzyz z y zy"]
    searches = ((1, "canonical"), (2, "canonical"), (3, "canonical"), (3, "paper"))
    for text in texts:
        stats = count_bigrams(KeySequence(text))
        classes = {
            (size, mode): live_pair_classes(stats, _candidate_blocks(3, mode) if size == 3 else [canonical_rows(size)])
            for size, mode in searches
        }
        for model in (EffortModel(), EffortModel(kind="fitts", alpha=0.2)):
            base_cost = stats_cost(geometry, base, stats, model)
            x = _cost_inputs(geometry, stats, base, model)
            winners = {}
            for size, mode in searches:
                case = (text[:20], model.kind, size, mode)
                winners[size, mode] = want = oracle_best(geometry, stats, classes[size, mode], model)
                [rows] = _bands(x, base_cost, (size,), mode)
                assert want[1] in set(zip(*(col.tolist() for col in rows))), case
                assert _bits(_rescore(x, [rows])[0]) == _bits(oracle_best(geometry, stats, rows, model)), case
                got = optimize(geometry, stats, SearchConfig(n_swap_pairs=size, mode=mode, model=model))
                assert _bits((got.best_cost_mm, got.swaps.pairs)) == _bits((want[0], _letter_pairs(want[1]))), case
            want = min([(base_cost, ())] + [winners[size, "canonical"] for size in (1, 2, 3)])
            got = optimize(geometry, stats, SearchConfig(cumulative=True, model=model))
            assert _bits((got.best_cost_mm, got.swaps.pairs)) == _bits((want[0], _letter_pairs(want[1]))), text[:20]


def test_size3_search_matches_an_exhaustive_oracle(geometry):
    # The oracle enumerates every disjoint triple of pairs itself, keeps
    # the paper-mode ones for a paper search, and scores one row per
    # live-pair class with the layout cost; optimize must return its least
    # (cost, encoding), with its bits. A small alphabet keeps the classes
    # few; the tie-heavy corpus makes most rows tie.
    rng = random.Random(4040)
    texts = [" ".join("".join(rng.choice("stuv") for _ in range(rng.randint(1, 5))) for _ in range(60))]
    texts += [tie_heavy_text(random.Random(2038))]
    for text in texts:
        stats = count_bigrams(KeySequence(text))
        for mode in MODES:
            triples = list(canonical_triples(paper=mode == "paper"))
            assert sum(len(block[0]) for block in triples) == {"canonical": 3_453_450, "paper": 1_151_150}[mode]
            classes = live_pair_classes(stats, triples)
            del triples
            for model in (EffortModel(), EffortModel(kind="fitts", alpha=0.2)):
                cost, idx = oracle_best(geometry, stats, classes, model)
                got = optimize(geometry, stats, SearchConfig(mode=mode, model=model))
                assert _bits((got.best_cost_mm, got.swaps.pairs)) == _bits((cost, _letter_pairs(idx))), (text[:20], mode, model.kind)


# Tie corpora on which the winner once came from a sum of each row's terms
# in another order than stats_cost's: a larger encoding won at equal cost
# (recipe-2032, recipe-2038, two-letters) or at a cost 1 or 2 ulp higher.
TIE_REGRESSIONS = {
    "recipe-2032": (tie_heavy_text(random.Random(2032), *TIE_RECIPE_WORDS), 1),
    "recipe-5016": (tie_heavy_text(random.Random(5016), *TIE_RECIPE_WORDS), 1),
    "recipe-2038": (tie_heavy_text(random.Random(2038), *TIE_RECIPE_WORDS), 2),
    "recipe-2009": (tie_heavy_text(random.Random(2009), *TIE_RECIPE_WORDS), 2),
    "tie-2009": (tie_heavy_text(random.Random(2009)), 2),
    "two-letters": (TWO_LETTER_TEXT, 2),
}


@pytest.mark.parametrize("name", ["recipe-2032", "recipe-2038"])
def test_tie_regressions_match_brute_force(geometry, name):
    text, n = TIE_REGRESSIONS[name]
    stats = count_bigrams(KeySequence(text))
    got = optimize(geometry, stats, SearchConfig(n_swap_pairs=n))
    want_pairs, want_cost = brute_force(geometry, stats, n)
    assert _bits((got.best_cost_mm, got.swaps.pairs)) == _bits((want_cost, want_pairs))


@pytest.mark.parametrize("name", ["recipe-5016", "recipe-2009", "tie-2009", "two-letters"])
def test_tie_regressions_match_the_layout_cost_oracle(geometry, name):
    text, n = TIE_REGRESSIONS[name]
    stats = count_bigrams(KeySequence(text))
    got = optimize(geometry, stats, SearchConfig(n_swap_pairs=n))
    cost, idx = oracle_best(geometry, stats, canonical_rows(n))
    assert _bits((got.best_cost_mm, got.swaps.pairs)) == _bits((cost, _letter_pairs(idx)))


@st.composite
def recipe_corpora(draw) -> str:
    """tie_heavy_text's recipe at TIE_RECIPE_WORDS: 20-120 words drawn from
    2-6 words of 1-4 letters over 2-5 letters."""
    letters = draw(st.lists(st.sampled_from(LETTERS), min_size=2, max_size=5, unique=True))
    words = draw(st.lists(st.lists(st.sampled_from(letters), min_size=1, max_size=4).map("".join), min_size=2, max_size=6))
    return " ".join(draw(st.lists(st.sampled_from(words), min_size=20, max_size=120)))


GEOMETRY_ST = st.one_of(
    st.just(DEFAULT_SPEC),
    st.sampled_from((0.5, 0.8, 1.25, 2.0)).map(DEFAULT_SPEC.scaled),
    st.lists(st.integers(0, 9), min_size=4, max_size=4, unique=True).map(
        lambda cols: GeometrySpec(space_subkey_columns=tuple(sorted(cols)))
    ),
)


@settings(max_examples=40, deadline=None)
@given(recipe_corpora(), st.sampled_from(MODELS), GEOMETRY_ST)
def test_optimize_matches_the_layout_cost_oracle_on_tie_corpora(text, model, spec):
    # The tie contract on fuzzed tie corpora: optimize returns the least
    # (stats_cost, encoding) over every row, with its bits.
    g = build_geometry(spec)
    stats = count_bigrams(KeySequence(text))
    assume(stats_cost(g, qwerty_layout(), stats, model) > 0.0)
    for n in (1, 2):
        got = optimize(g, stats, SearchConfig(n_swap_pairs=n, model=model))
        cost, idx = oracle_best(g, stats, canonical_rows(n), model)
        assert _bits((got.best_cost_mm, got.swaps.pairs)) == _bits((cost, _letter_pairs(idx))), n


def test_bands_of_unused_letters_only_keep_the_first_rows():
    # With one sub-key, under b, "b b b" costs least with b where it is:
    # every swap that moves b costs more, and every other costs exactly 0.
    # So each band holds only pairs of letters the corpus does not use,
    # which the re-score keys as one class, and the first rows win.
    g = build_geometry(GeometrySpec(space_subkey_columns=(4, 10, 11, 12)))
    stats = count_bigrams(KeySequence("b b b"))
    want = {
        SearchConfig(n_swap_pairs=1): (("a", "c"),),
        SearchConfig(n_swap_pairs=2): (("a", "c"), ("d", "e")),
        SearchConfig(): (("a", "c"), ("d", "e"), ("f", "g")),
        SearchConfig(mode="paper"): (("a", "c"), ("d", "e"), ("f", "g")),
        SearchConfig(cumulative=True): (),
    }
    for cfg, pairs in want.items():
        assert optimize(g, stats, cfg).swaps.pairs == pairs, cfg


# Key sizes and gaps (all four set to x) whose costs overflow on river,
# with the part of the message that names the check that fires first.
NON_FINITE_GEOMETRIES = [
    pytest.param(1e304, "overflow in the best layout cost or the improvement rate", id="per-overflows"),
    pytest.param(3e304, "overflow encountered in add", id="base-cost-sum-overflows"),
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
    # Each row is a canonical encoding and the rows of each block, though
    # not of the whole stream, ascend, as _triplet_pairings documents.
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
    # The reference takes the rows of _triplet_pairings() whose fast delta
    # is within _band_width of the least one, and ranks them by the oracle;
    # a set can appear up to four times, so they are made distinct first.
    texts = bundled_texts() + [tie_heavy_text(random.Random(2000 + s)) for s in range(3)]
    base = qwerty_layout()
    blocks = list(_triplet_pairings())
    encodings = _encodings(blocks)
    for text in texts:
        stats = count_bigrams(KeySequence(text))
        for model in (EffortModel(), EffortModel(kind="fitts", alpha=0.2)):
            got = optimize(geometry, stats, SearchConfig(mode="paper", model=model))
            base_cost = stats_cost(geometry, base, stats, model)
            x = _cost_inputs(geometry, stats, base, model)
            d1, c2 = optimizer._build_d1(x), c2_table(optimizer._build_c2(x))
            deltas = np.concatenate([_row_deltas(d1, c2, block) for block in blocks])
            band = np.unique(encodings[deltas <= deltas.min() + _band_width(x, base_cost)])
            rows = (band // 325**2, band // 325 % 325, band % 325)
            cost, idx = oracle_best(geometry, stats, rows, model)
            assert _bits((got.best_cost_mm, got.swaps.pairs)) == _bits((cost, _letter_pairs(idx))), (text[:20], model.kind)
            assert got.best_cost_mm == stats_cost(geometry, apply_swaps(base, got.swaps), stats, model)
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
    with pytest.raises(ValueError, match=r"base layout cost is 0\.0, not positive"):
        optimize(geometry, count_bigrams(KeySequence("aa")))


@pytest.mark.parametrize("spec, cost", [(DEFAULT_SPEC, "-2.41"), (DEFAULT_SPEC.scaled(2.0), "-11.97")])
def test_optimize_names_a_negative_base_cost(spec, cost):
    # Fitts alpha < 0 can make the whole base cost negative; the message
    # gives its value instead of calling it zero.
    model = EffortModel(kind="fitts", alpha=-2.5, beta=3.0)
    stats = count_bigrams(KeySequence("ab ab ab ba"))
    with pytest.raises(ValueError, match=rf"base layout cost is {cost}\d*, not positive"):
        optimize(build_geometry(spec), stats, SearchConfig(n_swap_pairs=1, model=model))


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
