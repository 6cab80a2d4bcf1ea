"""Bigram tables: counting, totals, pair usage shares."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from keyswap.corpus import KeySequence
from keyswap.geometry import LETTER_INDEX
from keyswap.stats import END, BigramStats, Move, count_bigrams, pair_usage, traversals

from conftest import random_corpus_text


def idx(ch: str) -> int:
    return LETTER_INDEX[ch]


def test_hand_counted_within_word():
    stats = count_bigrams(KeySequence("aba"))
    assert stats.within_word[idx("a")][idx("b")] == 1
    assert stats.within_word[idx("b")][idx("a")] == 1
    assert stats.within_word.sum() == 2
    assert stats.across_space.sum() == 0
    assert stats.total_transitions == 2


def test_hand_counted_doubled_letter():
    stats = count_bigrams(KeySequence("aa"))
    assert stats.within_word[idx("a")][idx("a")] == 1
    assert stats.total_transitions == 1


def test_hand_counted_across_space():
    # "ab ba": one interior space, crossed from b back into b.
    stats = count_bigrams(KeySequence("ab ba"))
    assert stats.within_word[idx("a")][idx("b")] == 1
    assert stats.within_word[idx("b")][idx("a")] == 1
    assert stats.across_space[idx("b")][idx("b")] == 1
    assert stats.across_space[:, END].sum() == 0
    # 2 within + 2 per interior space = 4 segments for 5 presses.
    assert stats.total_transitions == 4


def test_hand_counted_trailing_space():
    stats = count_bigrams(KeySequence("ab "))
    assert stats.within_word[idx("a")][idx("b")] == 1
    assert stats.across_space[idx("b")][END] == 1
    assert stats.total_transitions == 2


def test_empty_and_single_press():
    assert count_bigrams(KeySequence("")).is_empty
    assert count_bigrams(KeySequence("q")).is_empty


@given(st.integers(min_value=0, max_value=10_000))
def test_total_transitions_equals_presses_minus_one(seed):
    # Every adjacent press pair is exactly one traversed segment, however
    # the counts are split across the two tables.
    rng = random.Random(seed)
    text = random_corpus_text(rng, 2, 400)
    stats = count_bigrams(KeySequence(text))
    assert stats.total_transitions == len(text) - 1


def test_stats_equality_and_json_round_trip():
    a = count_bigrams(KeySequence("the quick brown fox"))
    b = count_bigrams(KeySequence("the quick brown fox"))
    assert a == b
    again = BigramStats.from_json_dict(json.loads(json.dumps(a.to_json_dict())))
    assert again == a
    assert a != count_bigrams(KeySequence("the quick brown dog"))


def test_stats_validation():
    with pytest.raises(ValueError):
        BigramStats(within_word=np.zeros((25, 26), dtype=np.int64))
    with pytest.raises(ValueError):
        BigramStats(across_space=np.zeros((26, 26), dtype=np.int64))
    neg = np.zeros((26, 26), dtype=np.int64)
    neg[0][0] = -1
    with pytest.raises(ValueError):
        BigramStats(within_word=neg)
    with pytest.raises(ValueError):
        BigramStats.from_json_dict({"letters": "abc", "end_index": END})


def test_pair_usage_on_e_space_corpus(geometry, qwerty):
    # "e e e": 4 segments, half of them e->space at 25.4 mm on stock keys.
    rows = pair_usage(count_bigrams(KeySequence("e e e")), geometry, qwerty)
    by_label = {r.label: r for r in rows}
    assert by_label["e-sp"].count == 2
    assert by_label["e-sp"].usage_pct == pytest.approx(50.0)
    assert by_label["e-sp"].distance_mm == pytest.approx(25.4, abs=0.05)
    assert by_label["sp-e"].count == 2
    assert by_label["sp-e"].usage_pct == pytest.approx(50.0)


def test_pair_usage_trailing_space_shifts_shares(geometry, qwerty):
    # With a trailing space the stream has 5 segments, 3 into a space.
    rows = pair_usage(count_bigrams(KeySequence("e e e ")), geometry, qwerty)
    by_label = {r.label: r for r in rows}
    assert by_label["e-sp"].count == 3
    assert by_label["e-sp"].usage_pct == pytest.approx(60.0)
    assert by_label["sp-e"].usage_pct == pytest.approx(40.0)


def test_pair_usage_sorting_and_direction(geometry, qwerty):
    rows = pair_usage(count_bigrams(KeySequence("ab ab ba")), geometry, qwerty)
    counts = [r.count for r in rows]
    assert counts == sorted(counts, reverse=True)
    labels = [r.label for r in rows]
    # Ties break alphabetically.
    tied = [l for l, c in zip(labels, counts) if c == counts[-1]]
    assert tied == sorted(tied)
    assert "a-b" in labels and "b-a" in labels


def test_pair_usage_space_distance_is_usage_weighted_mean(geometry, qwerty):
    # sp-a is entered once from b's sub-key and once from q's; the row
    # distance must be the mean of those two segment lengths.
    from keyswap.geometry import distance, nearest_space_slot

    rows = pair_usage(count_bigrams(KeySequence("b a q a")), geometry, qwerty)
    by_label = {r.label: r for r in rows}
    d_b = distance(geometry, nearest_space_slot(geometry, qwerty.slot_of("b")), qwerty.slot_of("a"))
    d_q = distance(geometry, nearest_space_slot(geometry, qwerty.slot_of("q")), qwerty.slot_of("a"))
    assert by_label["sp-a"].count == 2
    assert by_label["sp-a"].distance_mm == pytest.approx((d_b + d_q) / 2.0, rel=1e-12)


def test_traversals_tally_each_kind_of_move_in_order(geometry, qwerty):
    from keyswap.geometry import nearest_space_slot

    slot = qwerty.slot_of
    sub = lambda ch: nearest_space_slot(geometry, slot(ch))  # noqa: E731
    # "ab ba ": a->b and b->a within words, b's space then b, a final space after a
    assert traversals(count_bigrams(KeySequence("ab ba ")), geometry, qwerty) == [
        Move("a", "b", slot("a"), slot("b"), 1),
        Move("b", "a", slot("b"), slot("a"), 1),
        Move("a", "sp", slot("a"), sub("a"), 1),
        Move("b", "sp", slot("b"), sub("b"), 1),
        Move("sp", "b", sub("b"), slot("b"), 1),
    ]


def test_pair_usage_rejects_empty(geometry, qwerty):
    with pytest.raises(ValueError):
        pair_usage(BigramStats(), geometry, qwerty)


def test_usage_percentages_sum_to_hundred(geometry, qwerty):
    rng = random.Random(7)
    rows = pair_usage(count_bigrams(KeySequence(random_corpus_text(rng, 50, 500))), geometry, qwerty)
    # Interior spaces are counted once per direction, so the shares of
    # all rows cover every traversed segment exactly once.
    assert sum(r.usage_pct for r in rows) == pytest.approx(100.0, abs=1e-9)
