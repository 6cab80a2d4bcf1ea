"""Typing effort models and the cost evaluators.

Cost is additive over traversed segments. The default model charges the
straight-line distance in mm; the optional Fitts variant charges
alpha + beta * log2(d / A + 1) with A the key area. A zero-length
segment (a doubled letter) costs nothing under either model: the finger
never moves.

``sequence_cost`` walks tokens one by one and is the ground truth. The
others read one set of inputs, _cost_inputs, and _layout_costs alone
multiplies them and sums them: each cost is one of its rows, a layout
that swaps some letter pairs of the inputs' layout, nearest space
sub-keys re-decided. ``stats_cost`` is the row that swaps nothing, the
search scores its best candidates as rows, and ``delta_cost`` adds the
change in stats_cost to a known cost. Every product and sum of a layout
cost is numpy's, so under np.errstate(over="raise") any layout cost
that overflows raises; delta_cost's own subtraction and addition are
in Python floats, which overflow to inf without raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .corpus import SPACE, KeySequence
from .geometry import (
    LETTER_SLOT_IDS,
    DEFAULT_SPEC,
    KeyboardGeometry,
    Layout,
    SwapSet,
    apply_swaps,
    distance,
    is_finite_number,
    letter_slot_vector,
    nearest_space_slot,
)
from .stats import END, BigramStats

MODEL_KINDS = ("distance", "fitts")


@dataclass(frozen=True)
class EffortModel:
    """Per-segment effort function.

    key_area_mm2 of None means "use key_width * key_height of the
    geometry in play"; it only matters to the fitts kind.
    """

    kind: str = "distance"
    alpha: float = 0.0
    beta: float = 1.0
    key_area_mm2: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown effort model kind: {self.kind!r}")
        if not all(is_finite_number(v) for v in (self.alpha, self.beta)):
            raise ValueError(f"EffortModel.alpha and beta must be finite numbers, got {self.alpha!r}, {self.beta!r}")
        if self.beta < 0:
            raise ValueError("EffortModel.beta must be non-negative")
        area = self.key_area_mm2
        if area is not None and not (is_finite_number(area) and area > 0):
            raise ValueError(f"EffortModel.key_area_mm2 must be a positive finite number, got {area!r}")


DISTANCE_MODEL = EffortModel()


def fitts_effort(d_mm: float, model: EffortModel, key_area_mm2: float | None = None) -> float:
    """Raw Fitts-law effort for one traversal of length d_mm (>= 0).

    Without key_area_mm2 or model.key_area_mm2 it falls back to DEFAULT_SPEC's
    key area; every cost passes its geometry's area instead (_resolved_area).
    """
    if d_mm < 0:
        raise ValueError("distance must be non-negative")
    area = key_area_mm2 if key_area_mm2 is not None else model.key_area_mm2
    if area is None:
        area = DEFAULT_SPEC.key_width * DEFAULT_SPEC.key_height
    return model.alpha + model.beta * math.log2(d_mm / area + 1.0)


def _segment_effort(d_mm: float, model: EffortModel, area: float) -> float:
    if d_mm == 0.0:
        return 0.0
    if model.kind == "distance":
        return d_mm
    return fitts_effort(d_mm, model, area)


def _resolved_area(g: KeyboardGeometry, model: EffortModel) -> float:
    if model.key_area_mm2 is not None:
        return model.key_area_mm2
    return g.spec.key_width * g.spec.key_height


@dataclass(frozen=True)
class EffortTables:
    """Per-slot effort lookups that _cost_inputs reads for every cost.

    Indexing is by letter-slot position (the order of LETTER_SLOT_IDS),
    not by letter, so one set of tables serves every layout.
    """

    slot_to_slot: np.ndarray   # (26, 26) effort between letter slots
    slot_to_space: np.ndarray  # (26,) slot -> its nearest sub-key
    space_to_slot: np.ndarray  # (26, 26) [s, t]: sub-key of s -> slot t


@lru_cache(maxsize=16)
def effort_tables(g: KeyboardGeometry, model: EffortModel) -> EffortTables:
    """The tables, indexed from the geometry's dist and sub.

    Every entry is _segment_effort of a g.dist entry, which has
    distance()'s bits; the Fitts model's log2 stays math.log2 per entry.
    """
    area = _resolved_area(g, model)
    n = len(LETTER_SLOT_IDS)

    def efforts(d: np.ndarray) -> np.ndarray:
        return np.array([_segment_effort(x, model, area) for x in d.ravel().tolist()]).reshape(d.shape)

    return EffortTables(
        efforts(g.dist[:n, :n]), efforts(g.dist[np.arange(n), g.sub]), efforts(g.dist[g.sub, :n])
    )


@dataclass(frozen=True)
class CostBreakdown:
    """Total effort with an optional per-segment trace."""

    total: float
    avg_per_transition: float
    segments: tuple[tuple[str, str, float], ...] | None = None


def sequence_cost(
    g: KeyboardGeometry,
    layout: Layout,
    seq: KeySequence,
    model: EffortModel = DISTANCE_MODEL,
    keep_segments: bool = False,
) -> CostBreakdown:
    """Walk the key stream token by token and sum per-segment efforts.

    A space is typed on the sub-key nearest the key of the letter just
    before it, so the walk is deterministic given layout and geometry.
    """
    area = _resolved_area(g, model)
    total = 0.0
    segments: list[tuple[str, str, float]] = []
    prev_slot: str | None = None
    prev_letter_slot: str | None = None
    for ch in seq.text:
        if ch == SPACE:
            slot = nearest_space_slot(g, prev_letter_slot)
        else:
            slot = layout.slot_of(ch)
            prev_letter_slot = slot
        if prev_slot is not None:
            eff = _segment_effort(distance(g, prev_slot, slot), model, area)
            total += eff
            if keep_segments:
                segments.append((prev_slot, slot, eff))
        prev_slot = slot
    n_seg = max(len(seq.text) - 1, 0)
    avg = total / n_seg if n_seg else 0.0
    return CostBreakdown(total, avg, tuple(segments) if keep_segments else None)


class _CostInputs(NamedTuple):
    """What every cost of one stats and layout reads, built once, all
    indexed by letter only.

    f and s_in are the bigram counts as floats, row_s each letter's
    across-space count, and e, h and sp the effort tables at the letters'
    slots o: e[a, b] = slot_to_slot[o[a], o[b]], h[a, b] =
    space_to_slot[o[a], o[b]] and sp[a] = slot_to_space[o[a]].
    """

    f: np.ndarray
    s_in: np.ndarray
    row_s: np.ndarray
    e: np.ndarray
    h: np.ndarray
    sp: np.ndarray


def _cost_inputs(g: KeyboardGeometry, stats: BigramStats, layout: Layout, model: EffortModel) -> _CostInputs:
    t, o = effort_tables(g, model), letter_slot_vector(g, layout)
    return _CostInputs(
        stats.within_word.astype(np.float64),
        stats.across_space[:, :END].astype(np.float64),
        stats.across_space.sum(axis=1),
        t.slot_to_slot.take(o, 0).take(o, 1),
        t.space_to_slot.take(o, 0).take(o, 1),
        t.slot_to_space.take(o),
    )


def _layout_costs(x: _CostInputs, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The cost of each row's layout: row r swaps the slots of letters
    u[r, c] and v[r, c] of x's layout, for each column c.

    Letter a of row r then holds the slot of took[r, a] in x's layout, so
    its e, h and sp are e[took, took], h[took, took] and sp[took], the
    tables of _cost_inputs at its layout. Their products with f, s_in and
    row_s are summed per row over 676, 676 and 26 contiguous entries, and
    numpy's sum of a row does not depend on the other rows, so each row
    has the bits of its layout's own inputs; the three sums are added as
    (a + b) + c. Every operation is numpy's, so under
    np.errstate(over="raise") a row whose cost overflows raises, the last
    addition included.
    """
    n, n_letters = u.shape[0], x.sp.shape[0]
    took = np.tile(np.arange(n_letters), (n, 1))
    rows = np.arange(n)[:, None]
    took[rows, u], took[rows, v] = v, u
    flat = (took * n_letters)[:, :, None] + took[:, None, :]
    a = (x.f * x.e.take(flat)).reshape(n, -1).sum(axis=1)
    b = (x.s_in * x.h.take(flat)).reshape(n, -1).sum(axis=1)
    return (a + b) + (x.row_s * x.sp.take(took)).sum(axis=1)


_NO_SWAPS = np.empty((1, 0), dtype=np.intp)


def _layout_cost(x: _CostInputs) -> float:
    """The cost of x's layout itself, the row of _layout_costs that swaps
    nothing."""
    return float(_layout_costs(x, _NO_SWAPS, _NO_SWAPS)[0])


def stats_cost(
    g: KeyboardGeometry,
    layout: Layout,
    stats: BigramStats,
    model: EffortModel = DISTANCE_MODEL,
) -> float:
    """Total effort recomputed from bigram tables; equals sequence_cost."""
    return _layout_cost(_cost_inputs(g, stats, layout, model))


def per(d_qwerty: float, d_optimized: float) -> float:
    """Percent effort reduction relative to the stock layout."""
    if not d_qwerty > 0:
        raise ValueError("baseline distance must be strictly positive")
    return 100.0 * (d_qwerty - d_optimized) / d_qwerty


def delta_cost(
    g: KeyboardGeometry,
    base: Layout,
    base_cost: float,
    stats: BigramStats,
    swaps: SwapSet,
    model: EffortModel = DISTANCE_MODEL,
) -> float:
    """base_cost + (stats_cost(swapped) - stats_cost(base)), the cost of the
    swapped layout as base_cost plus the change in layout cost.

    With base_cost = stats_cost(base) it is stats_cost(swapped) itself
    whenever the two costs are within a factor of 2 of each other: their
    difference is then exact (Sterbenz), and so is the sum. The empty
    SwapSet returns base_cost unchanged.
    """
    if not swaps.pairs:
        return base_cost
    return base_cost + (stats_cost(g, apply_swaps(base, swaps), stats, model) - stats_cost(g, base, stats, model))
