"""Reporting: PER, pair tables, SVGs, cross-user aggregates."""

from __future__ import annotations

import hashlib
import json
import random
import xml.etree.ElementTree as ET

import pytest

from keyswap.corpus import KeySequence
from keyswap.geometry import SwapSet, apply_swaps, qwerty_layout
from keyswap.optimizer import SearchConfig, optimize
from keyswap.report import (
    AggregateStats,
    PairRow,
    UserReport,
    aggregate,
    aggregate_panels_svg,
    build_user_report,
    fit_line,
    heatmap_svg,
    layout_svg,
    letters_in_pairs,
    pair_scatter_svg,
    pairs_csv,
    pairs_table,
    per,
    quartiles,
    top_pairs_table,
)
from keyswap.stats import BigramStats, count_bigrams

from conftest import random_corpus_text

# SHA-256 of the figures of test_degenerate_figures_are_pinned
DEGENERATE_SHA256 = {
    "scatter": "22424cd109435b1afe1524521f3ebe3b41a084ebd67385288774a456afa686d4",
    "aggregate": "843d875c6d082cb1208956d8bda8da3bfb51b7d200e5172fce7eb1fdccc1647b",
}


def test_per_known_values():
    # Average 2.06 cm down to 1.73 cm is a 16.02% saving; 2.54 down to
    # 1.59 is 37.4%.
    assert per(2.06, 1.73) == pytest.approx(16.02, abs=0.005)
    assert per(2.54, 1.59) == pytest.approx(37.4, abs=0.05)
    assert per(10.0, 10.0) == 0.0
    assert per(10.0, 11.0) == pytest.approx(-10.0)
    with pytest.raises(ValueError):
        per(0.0, 1.0)


def test_pair_row_ratio():
    assert PairRow("a-b", 1, 1.0, 2.0, 1.0).ratio == 2.0
    assert PairRow("l-l", 1, 1.0, 0.0, 0.0).ratio == 1.0


def _fixture_tables(geometry):
    stats = count_bigrams(KeySequence("he he he th th"))
    swaps = SwapSet.from_pairs([("e", "j")])
    base = qwerty_layout()
    return stats, base, apply_swaps(base, swaps)


def test_pairs_table_rows(geometry):
    stats, base, optimized = _fixture_tables(geometry)
    rows = pairs_table(stats, geometry, base, optimized)
    by_pair = {r.pair: r for r in rows}
    he = by_pair["h-e"]
    # After swapping e into the j slot the pair h-e sits one column
    # pitch apart on the home row.
    assert he.d_qwerty_cm == pytest.approx(2.17, abs=0.01)
    assert he.d_opt_cm == pytest.approx(0.577, abs=0.001)
    assert he.ratio > 1.0
    counts = [r.count for r in rows]
    assert counts == sorted(counts, reverse=True)


def test_top_pairs_table_truncates(geometry):
    stats, base, optimized = _fixture_tables(geometry)
    full = pairs_table(stats, geometry, base, optimized)
    top2 = top_pairs_table(stats, geometry, base, optimized, k=2)
    assert top2 == full[:2]
    assert top_pairs_table(stats, geometry, base, optimized, k=99) == full


def test_letters_in_pairs_excludes_space():
    rows = [
        PairRow("e-sp", 3, 30.0, 2.5, 1.0),
        PairRow("h-e", 2, 20.0, 2.2, 1.0),
        PairRow("sp-t", 1, 10.0, 2.5, 1.1),
    ]
    assert letters_in_pairs(rows) == 3


def test_pairs_csv_format():
    rows = [PairRow("e-sp", 3, 33.333, 2.539, 0.796)]
    csv = pairs_csv(rows)
    lines = csv.splitlines()
    assert lines[0] == "pair,usage_pct,d_qwerty_cm,d_opt_cm,ratio"
    assert lines[1] == "e-sp,33.33,2.54,0.80,3.19"
    assert csv.endswith("\n")


def _sample_report(geometry, seed=1, user_id="u"):
    rng = random.Random(seed)
    seq = KeySequence(random_corpus_text(rng, 150, 350))
    stats = count_bigrams(seq)
    result = optimize(geometry, stats, SearchConfig(n_swap_pairs=1))
    return build_user_report(user_id, geometry, stats, seq.letter_count, result), stats, result


def test_build_user_report_consistency(geometry):
    report, stats, result = _sample_report(geometry)
    assert report.total_qwerty_cm == pytest.approx(result.qwerty_cost_mm / 10.0)
    assert report.avg_qwerty_cm == pytest.approx(
        result.qwerty_cost_mm / stats.total_transitions / 10.0
    )
    assert report.per_pct == result.per_pct
    assert report.swaps == result.swaps.pairs
    assert 0 < report.top_usage_pct <= 100.0 + 1e-9
    assert report.top_letters == letters_in_pairs(list(report.top_pairs))


def test_user_report_json_round_trip(geometry):
    report, _, _ = _sample_report(geometry)
    again = UserReport.from_json_dict(json.loads(json.dumps(report.to_json_dict())))
    assert again == report


def _assert_valid_svg(text: str) -> ET.Element:
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    return root


def test_heatmap_svg_well_formed_and_deterministic(geometry, qwerty):
    stats = count_bigrams(KeySequence("the quick brown fox jumps over the lazy dog"))
    one = heatmap_svg(geometry, qwerty, stats)
    two = heatmap_svg(geometry, qwerty, stats)
    assert one == two
    _assert_valid_svg(one)
    # 30 key rectangles plus at least one traversal line.
    assert one.count("<rect") >= 30
    assert one.count("<line") >= 10


def test_heatmap_svg_rejects_empty(geometry, qwerty):
    with pytest.raises(ValueError):
        heatmap_svg(geometry, qwerty, BigramStats())


def test_layout_svg_highlights_swapped_keys(geometry, qwerty):
    swaps = SwapSet.from_pairs([("a", "j"), ("b", "t")])
    svg = layout_svg(geometry, apply_swaps(qwerty, swaps), highlight=swaps)
    _assert_valid_svg(svg)
    # One color per swapped pair, in declaration order.
    assert svg.count("#d62728") == 2
    assert svg.count("#2ca02c") == 2
    assert "#1f77b4" not in svg
    plain = layout_svg(geometry, qwerty)
    assert "#d62728" not in plain


def test_pair_scatter_svg(geometry):
    # a tab and DEL are XML characters; batch rejects the ids that are not
    for user_id in ("u", "R&D <team>", "a\tb", "a\x7fb"):
        report, _, _ = _sample_report(geometry, user_id=user_id)
        svg = pair_scatter_svg(list(report.top_pairs), report.user_id)
        root = _assert_valid_svg(svg)
        assert svg == pair_scatter_svg(list(report.top_pairs), report.user_id)
        assert f"stock layout ({user_id})" in [t.text for t in root.iter() if t.tag.endswith("text")]


def test_quartiles_convention():
    assert quartiles([1.0, 2.0, 3.0, 4.0]) == pytest.approx((1.75, 2.5, 3.25))
    assert quartiles([5.0]) == pytest.approx((5.0, 5.0, 5.0))
    with pytest.raises(ValueError):
        quartiles([])


def test_fit_line_recovers_constructed_coefficients():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0]
    ys = [2.0 * x + 1.0 for x in xs]
    m, c = fit_line(xs, ys)
    assert m == pytest.approx(2.0, abs=1e-12)
    assert c == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_line([1.0], [2.0])
    with pytest.raises(ValueError):
        fit_line([3.0, 3.0], [1.0, 2.0])


def test_aggregate_statistics(geometry):
    reports = [_sample_report(geometry, seed=s, user_id=f"u{s}")[0] for s in range(4)]
    agg = aggregate(reports)
    pers = sorted(r.per_pct for r in reports)
    assert agg.n_users == 4
    assert agg.per_min_pct == pers[0]
    assert agg.per_max_pct == pers[-1]
    assert agg.per_median_pct == pytest.approx((pers[1] + pers[2]) / 2.0)
    q1, _, q3 = quartiles([r.avg_qwerty_cm for r in reports])
    assert agg.avg_qwerty_iqr_cm == pytest.approx(q3 - q1)
    with pytest.raises(ValueError):
        aggregate(reports[:1])


def test_aggregate_json_shape(geometry):
    reports = [_sample_report(geometry, seed=s, user_id=f"u{s}")[0] for s in range(3)]
    d = aggregate(reports).to_json_dict()
    assert set(d) == {
        "n_users",
        "qwerty_fit",
        "optimized_fit",
        "avg_qwerty_cm",
        "avg_optimized_cm",
        "per_pct",
    }
    assert set(d["per_pct"]) == {"min", "median", "max", "iqr"}


def test_aggregate_panels_svg(geometry):
    reports = [_sample_report(geometry, seed=s, user_id=f"u{s}")[0] for s in range(3)]
    agg = aggregate(reports)
    svg = aggregate_panels_svg(agg, reports)
    _assert_valid_svg(svg)
    assert svg == aggregate_panels_svg(agg, reports)


def test_degenerate_figures_are_pinned():
    # the pair rows tie on both axes, and the reports on every average and
    # on PER, so each of those spans falls back to 1.0, which no figure of
    # the result digests does
    rows = [PairRow(label, 4, 12.5, 2.0, 1.5) for label in ("e-sp", "h-e", "sp-t")]
    reports = [
        UserReport(f"u{n}", n, 2.5 * n, 2.0 * n, 2.5, 2.0, 20.0, (("e", "j"),), tuple(rows), 4, 37.5)
        for n in (100, 200, 300)
    ]
    agg = AggregateStats(3, 2.5, 0.0, 2.0, 0.0, 2.5, 0.0, 2.0, 0.0, 20.0, 20.0, 20.0, 0.0)
    figures = {"scatter": pair_scatter_svg(rows, "tie"), "aggregate": aggregate_panels_svg(agg, reports)}
    for svg in figures.values():
        _assert_valid_svg(svg)
    got = {name: hashlib.sha256(svg.encode("utf-8")).hexdigest() for name, svg in figures.items()}
    assert got == DEGENERATE_SHA256
