"""Reporting: improvement rate, pair tables, SVG figures, aggregates.

Distances here are displayed in cm (internals stay in mm); percentages
and ratios carry two decimals in rendered tables. All SVG output is
hand-assembled with fixed number formatting so identical inputs give
identical bytes. One writer, _svg, wraps every figure's body in its
<svg> document, and one frame, _frame, draws the title, x axis and
x-range labels of every cross-user panel, scatter or histogram.

The pair tables and heat maps count moves from the move table of stats,
the one that traversals() and pair_usage() read too. The parts of SVG
elements that depend only on the geometry are formatted once per
geometry and cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .effort import per  # noqa: F401 - keyswap.report.per stays importable
from .geometry import (
    LETTERS,
    SLOT_IDS,
    KeyboardGeometry,
    Layout,
    SwapSet,
    apply_swaps,
    qwerty_layout,
)
from .optimizer import OptimizationResult
from .stats import BigramStats, _move_table, _pair_columns

HIGHLIGHT_COLORS = ("#d62728", "#2ca02c", "#1f77b4")


@dataclass(frozen=True)
class PairRow:
    """One key pair compared across the stock and optimized layouts."""

    pair: str
    count: int
    usage_pct: float
    d_qwerty_cm: float
    d_opt_cm: float

    @property
    def ratio(self) -> float:
        if self.d_opt_cm == 0.0 and self.d_qwerty_cm == 0.0:
            return 1.0  # same-slot pair under both layouts
        return self.d_qwerty_cm / self.d_opt_cm


def _pair_rows(
    stats: BigramStats,
    g: KeyboardGeometry,
    base: Layout,
    optimized: Layout,
    k: int | None = None,
) -> list[PairRow]:
    labels, counts, usage_pct, (d_base, d_opt) = _pair_columns(stats, g, (base, optimized), k)
    return [
        PairRow(label, count, pct, db / 10.0, do / 10.0)
        for label, count, pct, db, do in zip(labels, counts, usage_pct, d_base, d_opt)
    ]


def pairs_table(
    stats: BigramStats,
    g: KeyboardGeometry,
    base: Layout,
    optimized: Layout,
) -> list[PairRow]:
    """Every used pair with distances under both layouts, usage order.

    Usage counts depend only on the corpus, so both layouts rank pairs
    identically; rows come out sorted by usage descending, label ties
    alphabetical. The rows are pair_usage's under each layout.
    """
    return _pair_rows(stats, g, base, optimized)


def top_pairs_table(
    stats: BigramStats,
    g: KeyboardGeometry,
    base: Layout,
    optimized: Layout,
    k: int = 15,
) -> list[PairRow]:
    """The k most used pairs (all of them when fewer exist)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return _pair_rows(stats, g, base, optimized, k)


def letters_in_pairs(rows: list[PairRow]) -> int:
    """Distinct letters appearing in the given pair labels (sp excluded)."""
    seen: set[str] = set()
    for row in rows:
        for part in row.pair.split("-"):
            if part != "sp":
                seen.add(part)
    return len(seen)


def pairs_csv(rows: list[PairRow]) -> str:
    lines = ["pair,usage_pct,d_qwerty_cm,d_opt_cm,ratio"]
    for r in rows:
        lines.append(
            f"{r.pair},{r.usage_pct:.2f},{r.d_qwerty_cm:.2f},{r.d_opt_cm:.2f},{r.ratio:.2f}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# user-level report


@dataclass(frozen=True)
class UserReport:
    """Everything reported for one corpus/user."""

    user_id: str
    usable_letters: int
    total_qwerty_cm: float
    total_optimized_cm: float
    avg_qwerty_cm: float
    avg_optimized_cm: float
    per_pct: float
    swaps: tuple[tuple[str, str], ...]
    top_pairs: tuple[PairRow, ...]
    top_letters: int
    top_usage_pct: float

    def to_json_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["swaps"] = [[a, b] for a, b in self.swaps]
        row_fields = fields(PairRow)
        d["top_pairs"] = [{**{f.name: getattr(r, f.name) for f in row_fields}, "ratio": r.ratio} for r in self.top_pairs]
        return d

    @classmethod
    def from_json_dict(cls, data: dict) -> UserReport:
        """The inverse of to_json_dict; each pair's ratio is derived, so it is not read."""
        d = {f.name: data[f.name] for f in fields(cls)}
        d["swaps"] = tuple((a, b) for a, b in d["swaps"])
        row_fields = fields(PairRow)
        d["top_pairs"] = tuple(PairRow(**{f.name: r[f.name] for f in row_fields}) for r in d["top_pairs"])
        return cls(**d)


def build_user_report(
    user_id: str,
    g: KeyboardGeometry,
    stats: BigramStats,
    usable_letters: int,
    result: OptimizationResult,
    k: int = 15,
) -> UserReport:
    base = qwerty_layout()
    optimized = apply_swaps(base, result.swaps)
    top = top_pairs_table(stats, g, base, optimized, k)
    n = stats.total_transitions
    return UserReport(
        user_id=user_id,
        usable_letters=usable_letters,
        total_qwerty_cm=result.qwerty_cost_mm / 10.0,
        total_optimized_cm=result.best_cost_mm / 10.0,
        avg_qwerty_cm=result.qwerty_cost_mm / n / 10.0,
        avg_optimized_cm=result.best_cost_mm / n / 10.0,
        per_pct=result.per_pct,
        swaps=result.swaps.pairs,
        top_pairs=tuple(top),
        top_letters=letters_in_pairs(top),
        top_usage_pct=sum(r.usage_pct for r in top),
    )


# ---------------------------------------------------------------------------
# SVG rendering


class _SvgHeads(NamedTuple):
    """The starts of a geometry's SVG elements, each up to its first
    varying attribute: per slot, its key <rect> up to the fill, and its
    <text> up to the fill for a letter label and for a slot id label; per
    slot pair (a, b), a before b in slot order, which is id order, its
    <line> up to the stroke, at index a * 30 + b."""

    rects: list[str]
    letter_texts: list[str]
    id_texts: list[str]
    lines: list[str]


@lru_cache(maxsize=16)
def _svg_heads(g: KeyboardGeometry) -> _SvgHeads:
    """The _SvgHeads of a geometry, built on first use and cached."""
    kw, kh = g.spec.key_width, g.spec.key_height
    return _SvgHeads(
        rects=[
            f'<rect x="{s.x - kw / 2:.3f}" y="{s.y - kh / 2:.3f}" width="{kw:.3f}" height="{kh:.3f}" rx="0.6" fill="'
            for s in g.slots
        ],
        letter_texts=[f'<text x="{s.x:.3f}" y="{s.y:.3f}" font-size="{kh * 0.55:.2f}" fill="' for s in g.slots],
        id_texts=[f'<text x="{s.x:.3f}" y="{s.y:.3f}" font-size="{kh * 0.3:.2f}" fill="' for s in g.slots],
        lines=[
            f'<line x1="{a.x:.3f}" y1="{a.y:.3f}" x2="{b.x:.3f}" y2="{b.y:.3f}" ' if a.id < b.id else ""
            for a in g.slots
            for b in g.slots
        ],
    )


def _keyboard_body(g: KeyboardGeometry, layout: Layout, highlight: SwapSet) -> list[str]:
    color_of: dict[str, str] = {}
    for idx, (a, b) in enumerate(highlight.pairs):
        color_of[a] = color_of[b] = HIGHLIGHT_COLORS[idx % len(HIGHLIGHT_COLORS)]
    letter_at = {layout.slot_of(ch): ch for ch in LETTERS}
    heads = _svg_heads(g)
    parts = []
    for slot, rect, letter_text, id_text in zip(g.slots, heads.rects, heads.letter_texts, heads.id_texts):
        ch = letter_at.get(slot.id, "")
        fill = color_of.get(ch, "#e9e9e9")
        label_fill = "#ffffff" if ch in color_of else "#666666"
        parts.append(f'{rect}{fill}" stroke="#b5b5b5" stroke-width="0.15"/>')
        parts.append(
            f'{letter_text if ch else id_text}{label_fill}" text-anchor="middle" dominant-baseline="central" '
            f'font-family="sans-serif">{ch or slot.id}</text>'
        )
    return parts


def _svg_document(g: KeyboardGeometry, body: list[str]) -> str:
    kw, kh = g.spec.key_width, g.spec.key_height
    xs = [s.x for s in g.slots]
    ys = [s.y for s in g.slots]
    pad = 1.5
    x0 = min(xs) - kw / 2 - pad
    y0 = min(ys) - kh / 2 - pad
    w = max(xs) - min(xs) + kw + 2 * pad
    h = max(ys) - min(ys) + kh + 2 * pad
    return _svg(f"{x0:.3f} {y0:.3f} {w:.3f} {h:.3f}", f"{w * 9:.0f}", f"{h * 9:.0f}", body)


def _svg(view_box: str, width: str, height: str, body: list[str]) -> str:
    """The <svg> document of every figure, around its body elements."""
    head = f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view_box}" width="{width}" height="{height}">'
    return "\n".join([head, *body, "</svg>"]) + "\n"


def heatmap_svg(
    g: KeyboardGeometry,
    layout: Layout,
    stats: BigramStats,
    highlight: SwapSet = SwapSet(),
) -> str:
    """Keyboard with every traversed slot pair drawn as a line.

    Line opacity grows with log(1 + frequency), normalized to the most
    frequent pair. Swapped letter pairs are tinted red/green/blue. The
    frequencies are the counts of traversals() summed per undirected pair
    of distinct slots; lines come in slot order, which is id order.
    """
    if stats.is_empty:
        raise ValueError("heat map needs a non-empty corpus")
    m = _move_table(stats, g, layout)
    moved = m.src != m.dst
    a, b, n_slots = m.src[moved], m.dst[moved], len(SLOT_IDS)
    segs = np.bincount(np.minimum(a, b) * n_slots + np.maximum(a, b), m.count[moved], n_slots * n_slots)
    keys = np.flatnonzero(segs)
    # bincount sums in float64; int counts key the tails below faster
    counts = segs[keys].astype(np.int64).tolist()
    f_max = max(counts) if counts else 1
    body = _keyboard_body(g, layout, highlight)
    denom = math.log1p(f_max)
    # the rest of a line depends only on its count, and counts repeat
    tails = {}
    for n in set(counts):
        op = math.log1p(n) / denom if denom > 0 else 1.0
        tails[n] = f'stroke="#a40000" stroke-width="0.45" stroke-opacity="{op:.4f}" stroke-linecap="round"/>'
    lines = _svg_heads(g).lines
    body += [lines[key] + tails[n] for key, n in zip(keys.tolist(), counts)]
    return _svg_document(g, body)


def layout_svg(g: KeyboardGeometry, layout: Layout, highlight: SwapSet = SwapSet()) -> str:
    """Plain keyboard diagram, optionally with swapped keys tinted."""
    return _svg_document(g, _keyboard_body(g, layout, highlight))


def _frame(
    x: float, y: float, w: float, h: float, title: str, lo: float, hi: float
) -> tuple[float, float, float, float, list[str]]:
    """A panel's plot area (left, bottom, width, height), and its title,
    x axis and labels of the x range lo to hi."""
    inset_l, inset_b, inset_t = 34.0, 22.0, 14.0
    px0, py0 = x + inset_l, y + h - inset_b
    pw, ph = w - inset_l - 8.0, h - inset_b - inset_t
    return px0, py0, pw, ph, [
        f'<text x="{x + w / 2:.1f}" y="{y + 10:.1f}" font-size="8" text-anchor="middle" '
        f'font-family="sans-serif" fill="#333">{title}</text>',
        f'<line x1="{px0:.1f}" y1="{py0:.1f}" x2="{px0 + pw:.1f}" y2="{py0:.1f}" stroke="#888" stroke-width="0.6"/>',
        f'<text x="{px0:.1f}" y="{py0 + 9:.1f}" font-size="6" text-anchor="middle" font-family="sans-serif" fill="#666">{lo:.2f}</text>',
        f'<text x="{px0 + pw:.1f}" y="{py0 + 9:.1f}" font-size="6" text-anchor="middle" font-family="sans-serif" fill="#666">{hi:.2f}</text>',
    ]


def _panel(
    x: float,
    y: float,
    w: float,
    h: float,
    title: str,
    xs: list[float],
    ys: list[float],
    line: tuple[float, float] | None = None,
    point_color: str = "#1f77b4",
) -> list[str]:
    """Scatter panel with min/max axis labels and an optional fit line."""
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if line is not None:
        m, c = line
        y_lo = min(y_lo, m * x_lo + c, m * x_hi + c)
        y_hi = max(y_hi, m * x_lo + c, m * x_hi + c)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    px0, py0, pw, ph, parts = _frame(x, y, w, h, title, x_lo, x_hi)

    def sx(v: float) -> float:
        return px0 + (v - x_lo) / x_span * pw

    def sy(v: float) -> float:
        return py0 - (v - y_lo) / y_span * ph

    # the y axis goes between the x axis and its labels
    parts.insert(2, f'<line x1="{px0:.1f}" y1="{py0:.1f}" x2="{px0:.1f}" y2="{py0 - ph:.1f}" stroke="#888" stroke-width="0.6"/>')
    parts += [
        f'<text x="{px0 - 3:.1f}" y="{py0:.1f}" font-size="6" text-anchor="end" dominant-baseline="central" font-family="sans-serif" fill="#666">{y_lo:.2f}</text>',
        f'<text x="{px0 - 3:.1f}" y="{py0 - ph:.1f}" font-size="6" text-anchor="end" dominant-baseline="central" font-family="sans-serif" fill="#666">{y_hi:.2f}</text>',
    ]
    if line is not None:
        m, c = line
        parts.append(
            f'<line x1="{sx(x_lo):.2f}" y1="{sy(m * x_lo + c):.2f}" '
            f'x2="{sx(x_hi):.2f}" y2="{sy(m * x_hi + c):.2f}" stroke="#d62728" stroke-width="0.8"/>'
        )
    for xv, yv in zip(xs, ys):
        parts.append(f'<circle cx="{sx(xv):.2f}" cy="{sy(yv):.2f}" r="1.6" fill="{point_color}" fill-opacity="0.75"/>')
    return parts


def _hist_panel(x: float, y: float, w: float, h: float, title: str, vals: list[float]) -> list[str]:
    lo, hi = min(vals), max(vals)
    span = (hi - lo) or 1.0
    n_bins = 6
    counts = [0] * n_bins
    for v in vals:
        b = min(int((v - lo) / span * n_bins), n_bins - 1)
        counts[b] += 1
    px0, py0, pw, ph, parts = _frame(x, y, w, h, title, lo, hi)
    c_max = max(counts) or 1
    bw = pw / n_bins
    for i, c in enumerate(counts):
        bh = ph * c / c_max
        parts.append(
            f'<rect x="{px0 + i * bw + 0.5:.2f}" y="{py0 - bh:.2f}" width="{bw - 1.0:.2f}" '
            f'height="{bh:.2f}" fill="#7f7f7f" fill-opacity="0.8"/>'
        )
    return parts


def pair_scatter_svg(rows: list[PairRow], user_id: str = "") -> str:
    """Pair distance versus usage, stock layout on top, optimized below."""
    if not rows:
        raise ValueError("no pair rows to plot")
    xs = [r.usage_pct for r in rows]
    w, h = 240.0, 170.0
    body: list[str] = []
    # the id is XML text; html.escape would import html.entities for this one line
    suffix = f" ({user_id.replace('&', '&amp;').replace('<', '&lt;').replace('>', '&gt;')})" if user_id else ""
    body += _panel(0, 0, w, h, f"stock layout{suffix}", xs, [r.d_qwerty_cm for r in rows])
    body += _panel(0, h, w, h, f"optimized layout{suffix}", xs, [r.d_opt_cm for r in rows], point_color="#2ca02c")
    return _svg(f"0 0 {w:.0f} {h * 2:.0f}", f"{w * 3:.0f}", f"{h * 6:.0f}", body)


# ---------------------------------------------------------------------------
# cross-user aggregation


@dataclass(frozen=True)
class AggregateStats:
    """Cross-user summary: linear fits, medians, spreads."""

    n_users: int
    qwerty_fit_slope_cm: float
    qwerty_fit_intercept_cm: float
    optimized_fit_slope_cm: float
    optimized_fit_intercept_cm: float
    avg_qwerty_median_cm: float
    avg_qwerty_iqr_cm: float
    avg_optimized_median_cm: float
    avg_optimized_iqr_cm: float
    per_min_pct: float
    per_median_pct: float
    per_max_pct: float
    per_iqr_pct: float

    def to_json_dict(self) -> dict:
        return {
            "n_users": self.n_users,
            "qwerty_fit": {"slope_cm_per_letter": self.qwerty_fit_slope_cm, "intercept_cm": self.qwerty_fit_intercept_cm},
            "optimized_fit": {"slope_cm_per_letter": self.optimized_fit_slope_cm, "intercept_cm": self.optimized_fit_intercept_cm},
            "avg_qwerty_cm": {"median": self.avg_qwerty_median_cm, "iqr": self.avg_qwerty_iqr_cm},
            "avg_optimized_cm": {"median": self.avg_optimized_median_cm, "iqr": self.avg_optimized_iqr_cm},
            "per_pct": {
                "min": self.per_min_pct,
                "median": self.per_median_pct,
                "max": self.per_max_pct,
                "iqr": self.per_iqr_pct,
            },
        }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Q1, median, Q3 with linear interpolation between order statistics."""
    if not values:
        raise ValueError("quartiles of an empty set are undefined")
    q1, q2, q3 = np.percentile(np.asarray(values, dtype=np.float64), [25.0, 50.0, 75.0])
    return float(q1), float(q2), float(q3)


def fit_line(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Least-squares slope and intercept of y = m x + c."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two points to fit a line")
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if np.ptp(x) == 0.0:
        raise ValueError("cannot fit a line: no variance in x")
    m, c = np.polyfit(x, y, 1)
    return float(m), float(c)


def aggregate(reports: list[UserReport]) -> AggregateStats:
    """Fits and distribution summaries over at least two user reports."""
    if len(reports) < 2:
        raise ValueError("aggregate needs at least two user reports")
    letters = [float(r.usable_letters) for r in reports]
    mq, cq = fit_line(letters, [r.total_qwerty_cm for r in reports])
    mo, co = fit_line(letters, [r.total_optimized_cm for r in reports])
    aq1, aq2, aq3 = quartiles([r.avg_qwerty_cm for r in reports])
    ao1, ao2, ao3 = quartiles([r.avg_optimized_cm for r in reports])
    pers = [r.per_pct for r in reports]
    p1, p2, p3 = quartiles(pers)
    return AggregateStats(
        n_users=len(reports),
        qwerty_fit_slope_cm=mq,
        qwerty_fit_intercept_cm=cq,
        optimized_fit_slope_cm=mo,
        optimized_fit_intercept_cm=co,
        avg_qwerty_median_cm=aq2,
        avg_qwerty_iqr_cm=aq3 - aq1,
        avg_optimized_median_cm=ao2,
        avg_optimized_iqr_cm=ao3 - ao1,
        per_min_pct=min(pers),
        per_median_pct=p2,
        per_max_pct=max(pers),
        per_iqr_pct=p3 - p1,
    )


def aggregate_panels_svg(agg: AggregateStats, reports: list[UserReport]) -> str:
    """Grid of cross-user panels: totals with fits, spreads, improvement."""
    letters = [float(r.usable_letters) for r in reports]
    pers = [r.per_pct for r in reports]
    w, h = 240.0, 170.0
    body: list[str] = []
    body += _panel(
        0, 0, w, h, "stock total cm vs letters", letters,
        [r.total_qwerty_cm for r in reports],
        line=(agg.qwerty_fit_slope_cm, agg.qwerty_fit_intercept_cm),
    )
    body += _panel(
        w, 0, w, h, "optimized total cm vs letters", letters,
        [r.total_optimized_cm for r in reports],
        line=(agg.optimized_fit_slope_cm, agg.optimized_fit_intercept_cm),
        point_color="#2ca02c",
    )
    body += _hist_panel(0, h, w, h, "stock avg cm per tap", [r.avg_qwerty_cm for r in reports])
    body += _hist_panel(w, h, w, h, "optimized avg cm per tap", [r.avg_optimized_cm for r in reports])
    body += _hist_panel(0, 2 * h, w, h, "improvement pct", pers)
    body += _panel(w, 2 * h, w, h, "improvement pct vs stock avg cm", [r.avg_qwerty_cm for r in reports], pers, point_color="#9467bd")
    body += _panel(0, 3 * h, w, h, "improvement pct vs letters", letters, pers, point_color="#9467bd")
    return _svg(f"0 0 {2 * w:.0f} {4 * h:.0f}", f"{2 * w * 2:.0f}", f"{4 * h * 2:.0f}", body)
