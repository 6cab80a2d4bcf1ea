"""The sub-key traversal tallies against the per-move loops they replaced.

Each reference here is written the old way: a per-character count for
the bigram tables, and Python loops over moves, nearest_space_slot() and
distance() for the traversals, the pair usage rows, the pair tables, the
heat map and the keys drawn under it. The package builds the tallies from
one move table and the SVG from cached element starts; they must agree
with the references as repr or bytes, not approximately.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from keyswap.corpus import SPACE, KeySequence
from keyswap.geometry import (
    DEFAULT_SPEC,
    LETTER_INDEX,
    LETTERS,
    SwapSet,
    apply_swaps,
    build_geometry,
    distance,
    nearest_space_slot,
    qwerty_layout,
)
from keyswap.report import (
    HIGHLIGHT_COLORS,
    PairRow,
    _svg_document,
    heatmap_svg,
    layout_svg,
    pairs_table,
    top_pairs_table,
)
from keyswap.stats import END, SP, BigramStats, Move, PairUsage, count_bigrams, pair_usage, traversals

from conftest import random_corpus_text, tie_heavy_text


def ref_count_bigrams(seq: KeySequence) -> BigramStats:
    stats = BigramStats()
    f, s, text = stats.within_word, stats.across_space, seq.text
    n = len(text)
    for i in range(n - 1):
        a = text[i]
        if a == SPACE:
            continue
        b = text[i + 1]
        ia = LETTER_INDEX[a]
        if b != SPACE:
            f[ia][LETTER_INDEX[b]] += 1
        elif i + 2 < n:
            s[ia][LETTER_INDEX[text[i + 2]]] += 1
        else:
            s[ia][END] += 1
    return stats


def _cells(table):
    rows, cols = np.nonzero(table)
    return zip(rows.tolist(), cols.tolist(), table[rows, cols].tolist())


def ref_traversals(stats, g, layout) -> list[Move]:
    slot = [layout.slot_of(ch) for ch in LETTERS]
    sub = [nearest_space_slot(g, sid) for sid in slot]
    s = stats.across_space
    moves = [Move(LETTERS[a], LETTERS[b], slot[a], slot[b], n) for a, b, n in _cells(stats.within_word)]
    moves += [Move(LETTERS[a], SP, slot[a], sub[a], n) for a, n in enumerate(s.sum(axis=1).tolist()) if n]
    moves += [Move(SP, LETTERS[b], sub[a], slot[b], n) for a, b, n in _cells(s[:, :END])]
    return moves


def ref_pair_usage(stats, g, layout) -> list[PairUsage]:
    if stats.is_empty:
        raise ValueError("pair usage undefined for empty stats")
    total = stats.total_transitions
    rows = []
    out_of_space = {}  # letter -> [count, count-weighted distance]
    for m in ref_traversals(stats, g, layout):
        d = distance(g, m.src_slot, m.dst_slot)
        if m.src == SP:
            acc = out_of_space.setdefault(m.dst, [0, 0.0])
            acc[0] += m.count
            acc[1] += m.count * d
        else:
            rows.append(PairUsage(f"{m.src}-{m.dst}", m.count, 100.0 * m.count / total, d))
    for b, (c, travel) in out_of_space.items():
        rows.append(PairUsage(f"{SP}-{b}", c, 100.0 * c / total, travel / c))
    rows.sort(key=lambda r: (-r.count, r.label))
    return rows


def ref_pairs_table(stats, g, base, optimized) -> list[PairRow]:
    rows = zip(ref_pair_usage(stats, g, base), ref_pair_usage(stats, g, optimized))
    return [PairRow(rb.label, rb.count, rb.usage_pct, rb.distance_mm / 10.0, ro.distance_mm / 10.0) for rb, ro in rows]


def ref_keyboard_body(g, layout, highlight) -> list[str]:
    color_of = {}
    for idx, (a, b) in enumerate(highlight.pairs):
        color_of[a] = color_of[b] = HIGHLIGHT_COLORS[idx % len(HIGHLIGHT_COLORS)]
    letter_at = {layout.slot_of(ch): ch for ch in LETTERS}
    kw, kh = g.spec.key_width, g.spec.key_height
    parts = []
    for slot in g.slots:
        ch = letter_at.get(slot.id, "")
        fill = color_of.get(ch, "#e9e9e9")
        label_fill = "#ffffff" if ch in color_of else "#666666"
        parts.append(
            f'<rect x="{slot.x - kw / 2:.3f}" y="{slot.y - kh / 2:.3f}" '
            f'width="{kw:.3f}" height="{kh:.3f}" rx="0.6" fill="{fill}" '
            f'stroke="#b5b5b5" stroke-width="0.15"/>'
        )
        label = ch if ch else slot.id
        size = kh * 0.55 if ch else kh * 0.3
        parts.append(
            f'<text x="{slot.x:.3f}" y="{slot.y:.3f}" font-size="{size:.2f}" '
            f'fill="{label_fill}" text-anchor="middle" dominant-baseline="central" '
            f'font-family="sans-serif">{label}</text>'
        )
    return parts


def ref_heatmap_svg(g, layout, stats, highlight=SwapSet()) -> str:
    if stats.is_empty:
        raise ValueError("heat map needs a non-empty corpus")
    segs = {}
    for m in ref_traversals(stats, g, layout):
        if m.src_slot != m.dst_slot:
            key = tuple(sorted((m.src_slot, m.dst_slot)))
            segs[key] = segs.get(key, 0) + m.count
    f_max = max(segs.values()) if segs else 1
    body = ref_keyboard_body(g, layout, highlight)
    denom = math.log1p(f_max)
    for (a, b), n in sorted(segs.items()):
        xa, ya = g.center(a)
        xb, yb = g.center(b)
        op = math.log1p(n) / denom if denom > 0 else 1.0
        body.append(
            f'<line x1="{xa:.3f}" y1="{ya:.3f}" x2="{xb:.3f}" y2="{yb:.3f}" '
            f'stroke="#a40000" stroke-width="0.45" stroke-opacity="{op:.4f}" '
            f'stroke-linecap="round"/>'
        )
    return _svg_document(g, body)


TEXTS = (
    [random_corpus_text(random.Random(3000 + s), 5, 900) for s in range(8)]
    + [tie_heavy_text(random.Random(2000 + s)) for s in range(6)]
    + ["", "a", "a ", "e e e "]
)
GEOMETRIES = {"default": DEFAULT_SPEC, "x0.37": DEFAULT_SPEC.scaled(0.37), "x2": DEFAULT_SPEC.scaled(2.0)}
ONE_SWAP = SwapSet.from_pairs([("e", "j")])
THREE_SWAPS = SwapSet.from_pairs([("a", "z"), ("b", "t"), ("q", "p")])
LAYOUTS = (qwerty_layout(), apply_swaps(qwerty_layout(), ONE_SWAP), apply_swaps(qwerty_layout(), THREE_SWAPS))


def outcome(fn, *args):
    """repr of the value, or the ValueError raised, so that both sides must agree on rejections too."""
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_count_bigrams_matches_the_per_character_loop():
    for text in TEXTS + ["aa", "ab ba ", "q"]:
        got, want = count_bigrams(KeySequence(text)), ref_count_bigrams(KeySequence(text))
        assert got.within_word.dtype == got.across_space.dtype == np.int64
        assert got.within_word.tobytes() == want.within_word.tobytes(), text[:20]
        assert got.across_space.tobytes() == want.across_space.tobytes(), text[:20]


words = st.text(alphabet=LETTERS, min_size=1, max_size=6)


@given(st.lists(words, max_size=40), st.booleans())
def test_count_bigrams_matches_the_loop_on_any_word_stream(ws, trailing):
    text = " ".join(ws) + (" " if trailing and ws else "")
    got, want = count_bigrams(KeySequence(text)), ref_count_bigrams(KeySequence(text))
    assert got == want


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_traversals_and_pair_usage_match_the_move_loops(name):
    g = build_geometry(GEOMETRIES[name])
    for text in TEXTS:
        stats = count_bigrams(KeySequence(text))
        for layout in LAYOUTS:
            case = (name, text[:20], layout)
            assert repr(traversals(stats, g, layout)) == repr(ref_traversals(stats, g, layout)), case
            assert outcome(pair_usage, stats, g, layout) == outcome(ref_pair_usage, stats, g, layout), case


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_pair_tables_match_the_move_loops(name):
    g = build_geometry(GEOMETRIES[name])
    base = LAYOUTS[0]
    for text in TEXTS:
        stats = count_bigrams(KeySequence(text))
        for optimized in LAYOUTS:
            case = (name, text[:20], optimized)
            want = outcome(ref_pairs_table, stats, g, base, optimized)
            assert outcome(pairs_table, stats, g, base, optimized) == want, case
            full = ref_pairs_table(stats, g, base, optimized) if not stats.is_empty else None
            for k in (1, 15, 999):
                want_k = want if full is None else repr(full[:k])
                assert outcome(top_pairs_table, stats, g, base, optimized, k) == want_k, (case, k)


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_heatmaps_match_the_move_loops(name):
    g = build_geometry(GEOMETRIES[name])
    for text in TEXTS:
        stats = count_bigrams(KeySequence(text))
        for layout, highlight in zip(LAYOUTS, (SwapSet(), ONE_SWAP, THREE_SWAPS)):
            case = (name, text[:20], layout)
            got = outcome(heatmap_svg, g, layout, stats, highlight)
            assert got == outcome(ref_heatmap_svg, g, layout, stats, highlight), case
        for layout, highlight in zip(LAYOUTS, (SwapSet(), ONE_SWAP, THREE_SWAPS)):
            want = _svg_document(g, ref_keyboard_body(g, layout, highlight))
            assert layout_svg(g, layout, highlight) == want, (name, layout)
