"""Effort models: sequence walk, table factorization, incremental deltas."""

from __future__ import annotations

import math
import random

import pytest

from keyswap.corpus import KeySequence, normalize
from keyswap.effort import (
    DISTANCE_MODEL,
    CostBreakdown,
    EffortModel,
    delta_cost,
    effort_tables,
    fitts_effort,
    sequence_cost,
    stats_cost,
)
from keyswap.geometry import (
    SwapSet,
    apply_swaps,
    build_geometry,
    distance,
    nearest_space_slot,
    qwerty_layout,
)
from keyswap.stats import count_bigrams

from conftest import random_corpus_text

FITTS = EffortModel(kind="fitts", alpha=50.0, beta=150.0)


def test_worked_sentence_total(geometry, qwerty):
    seq = normalize("Hello.  How are you?")
    assert seq.text == "hello how are you"
    cost = sequence_cost(geometry, qwerty, seq, keep_segments=True)
    assert cost.total == pytest.approx(321.0, abs=0.5)
    assert len(cost.segments) == 16
    # Doubled l contributes a zero-length segment.
    ll = cost.segments[2]
    assert ll[0] == ll[1] and ll[2] == 0.0
    # Space sub-keys in press order: after o, after w, after e.
    spaces = [s for s in cost.segments if s[1].startswith("sp")]
    assert [s[1] for s in spaces] == ["sp4", "sp1", "sp1"]


def test_worked_sentence_press_path(geometry, qwerty):
    seq = normalize("Hello.  How are you?")
    segs = sequence_cost(geometry, qwerty, seq, keep_segments=True).segments
    presses = "h e l l o SP h o w SP a r e SP y o u".split()
    want = []
    prev_letter = None
    for tok in presses:
        if tok == "SP":
            want.append(nearest_space_slot(geometry, qwerty.slot_of(prev_letter)))
        else:
            want.append(qwerty.slot_of(tok))
            prev_letter = tok
    assert [s[0] for s in segs] == want[:-1]
    assert [s[1] for s in segs] == want[1:]


def test_empty_and_single_press_cost(geometry, qwerty):
    assert sequence_cost(geometry, qwerty, KeySequence("")).total == 0.0
    one = sequence_cost(geometry, qwerty, KeySequence("k"))
    assert one.total == 0.0 and one.avg_per_transition == 0.0


def test_segments_off_by_default(geometry, qwerty):
    cost = sequence_cost(geometry, qwerty, KeySequence("ab"))
    assert isinstance(cost, CostBreakdown)
    assert cost.segments is None


def test_doubled_letters_are_free_under_every_model(geometry, qwerty):
    for model in (DISTANCE_MODEL, FITTS):
        assert sequence_cost(geometry, qwerty, KeySequence("aa"), model).total == 0.0


def test_fitts_effort_formula():
    model = FITTS
    # At zero distance the logarithm vanishes and alpha remains.
    assert fitts_effort(0.0, model, 29.7976) == model.alpha
    d = 10.0
    want = model.alpha + model.beta * math.log2(d / 29.7976 + 1.0)
    assert fitts_effort(d, model, 29.7976) == pytest.approx(want, rel=1e-12)
    assert fitts_effort(5.0, model, 29.7976) < fitts_effort(15.0, model, 29.7976)


def test_effort_model_validation():
    with pytest.raises(ValueError):
        EffortModel(kind="quadratic")
    with pytest.raises(ValueError):
        EffortModel(kind="fitts", key_area_mm2=0.0)
    for bad in (math.nan, math.inf, -math.inf, True):
        with pytest.raises(ValueError):
            EffortModel(kind="fitts", alpha=bad)
        with pytest.raises(ValueError):
            EffortModel(kind="fitts", beta=bad)
        with pytest.raises(ValueError):
            EffortModel(kind="fitts", key_area_mm2=bad)


def test_distance_table_shapes_and_symmetry(geometry):
    t = effort_tables(geometry, DISTANCE_MODEL)
    ss = t.slot_to_slot
    assert ss.shape == (26, 26)
    assert (ss == ss.T).all()
    assert (ss.diagonal() == 0.0).all()
    assert t.slot_to_space.shape == (26,)
    assert t.space_to_slot.shape == (26, 26)


def test_slot_to_space_uses_nearest_subkey(geometry):
    from keyswap.geometry import LETTER_SLOT_IDS

    t = effort_tables(geometry, DISTANCE_MODEL)
    for si, sid in enumerate(LETTER_SLOT_IDS):
        sub = nearest_space_slot(geometry, sid)
        assert t.slot_to_space[si] == pytest.approx(distance(geometry, sid, sub), rel=1e-15)


def test_stats_cost_equals_sequence_cost(geometry, qwerty):
    rng = random.Random(2024)
    for _ in range(30):
        seq = KeySequence(random_corpus_text(rng, 10, 800))
        stats = count_bigrams(seq)
        walked = sequence_cost(geometry, qwerty, seq).total
        factored = stats_cost(geometry, qwerty, stats)
        assert factored == pytest.approx(walked, rel=1e-9)


def test_stats_cost_under_fitts_model(geometry, qwerty):
    rng = random.Random(99)
    for _ in range(10):
        seq = KeySequence(random_corpus_text(rng, 10, 400))
        walked = sequence_cost(geometry, qwerty, seq, FITTS).total
        factored = stats_cost(geometry, qwerty, count_bigrams(seq), FITTS)
        assert factored == pytest.approx(walked, rel=1e-9)


def random_swapset(rng: random.Random, n_pairs: int) -> SwapSet:
    letters = rng.sample("abcdefghijklmnopqrstuvwxyz", 2 * n_pairs)
    return SwapSet.from_pairs(
        [(letters[2 * i], letters[2 * i + 1]) for i in range(n_pairs)]
    )


@pytest.mark.parametrize("model", [DISTANCE_MODEL, FITTS], ids=["distance", "fitts"])
def test_delta_cost_matches_full_recompute(geometry, qwerty, model):
    rng = random.Random(31337)
    for _ in range(60):
        seq = KeySequence(random_corpus_text(rng, 20, 600))
        stats = count_bigrams(seq)
        base = stats_cost(geometry, qwerty, stats, model)
        swaps = random_swapset(rng, rng.randint(1, 3))
        incremental = delta_cost(geometry, qwerty, base, stats, swaps, model)
        full = stats_cost(geometry, apply_swaps(qwerty, swaps), stats, model)
        assert incremental == pytest.approx(full, rel=1e-9)


def test_delta_cost_empty_swapset_is_identity(geometry, qwerty):
    stats = count_bigrams(KeySequence("some words here"))
    base = stats_cost(geometry, qwerty, stats)
    assert delta_cost(geometry, qwerty, base, stats, SwapSet.empty()) == base


def test_swap_changes_subkey_decision(geometry, qwerty):
    # Moving a letter across the board must re-decide its space sub-key;
    # a stale sub-key would show up as a delta mismatch.
    seq = KeySequence("pop pop pop")
    stats = count_bigrams(seq)
    base = stats_cost(geometry, qwerty, stats)
    swaps = SwapSet.from_pairs([("p", "z")])
    incremental = delta_cost(geometry, qwerty, base, stats, swaps)
    swapped = apply_swaps(qwerty, swaps)
    assert nearest_space_slot(geometry, swapped.slot_of("p")) != nearest_space_slot(
        geometry, qwerty.slot_of("p")
    )
    assert incremental == pytest.approx(stats_cost(geometry, swapped, stats), rel=1e-12)


def test_costs_scale_linearly_with_geometry(qwerty):
    from keyswap.geometry import DEFAULT_SPEC

    g1 = build_geometry()
    g2 = build_geometry(DEFAULT_SPEC.scaled(2.0))
    seq = normalize("scaling should be exactly linear for plain distance")
    c1 = sequence_cost(g1, qwerty, seq).total
    c2 = sequence_cost(g2, qwerty, seq).total
    assert c2 == pytest.approx(2.0 * c1, rel=1e-15)
