"""Typing effort models and the three cost evaluators.

Cost is additive over traversed segments. The default model charges the
straight-line distance in mm; the optional Fitts variant charges
alpha + beta * log2(d / A + 1) with A the key area. A zero-length
segment (a doubled letter) costs nothing under either model: the finger
never moves.

``sequence_cost`` walks tokens one by one and is the ground truth.
``stats_cost`` reproduces it from bigram tables in vectorized form, and
``delta_cost`` updates a known cost after a letter swap by touching only
the affected rows, including re-deciding nearest space sub-keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .corpus import SPACE, KeySequence
from .geometry import (
    LETTER_INDEX,
    LETTER_SLOT_IDS,
    LETTERS,
    DEFAULT_SPEC,
    KeyboardGeometry,
    Layout,
    SwapSet,
    distance,
    is_finite_number,
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
    """Raw Fitts-law effort for one traversal of length d_mm (>= 0)."""
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
    """Per-slot effort lookups shared by stats_cost and delta_cost.

    Indexing is by letter-slot position (the order of LETTER_SLOT_IDS),
    not by letter, so one set of tables serves every layout.
    """

    slot_to_slot: np.ndarray   # (26, 26) effort between letter slots
    slot_to_space: np.ndarray  # (26,) slot -> its nearest sub-key
    space_to_slot: np.ndarray  # (26, 26) [s, t]: sub-key of s -> slot t


@lru_cache(maxsize=16)
def effort_tables(g: KeyboardGeometry, model: EffortModel) -> EffortTables:
    area = _resolved_area(g, model)
    ids = LETTER_SLOT_IDS
    n = len(ids)
    subs = tuple(nearest_space_slot(g, sid) for sid in ids)
    d_ss = np.zeros((n, n))
    d_sp = np.zeros(n)
    d_ps = np.zeros((n, n))
    for i, a in enumerate(ids):
        d_sp[i] = _segment_effort(distance(g, a, subs[i]), model, area)
        for j, b in enumerate(ids):
            d_ss[i, j] = _segment_effort(distance(g, a, b), model, area)
            d_ps[i, j] = _segment_effort(distance(g, subs[i], b), model, area)
    return EffortTables(d_ss, d_sp, d_ps)


def letter_slot_vector(layout: Layout) -> np.ndarray:
    """Letter index -> letter-slot position index, as an int array."""
    pos = {sid: i for i, sid in enumerate(LETTER_SLOT_IDS)}
    return np.array([pos[layout.slot_of(ch)] for ch in LETTERS], dtype=np.intp)


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


def stats_cost(
    g: KeyboardGeometry,
    layout: Layout,
    stats: BigramStats,
    model: EffortModel = DISTANCE_MODEL,
) -> float:
    """Total effort recomputed from bigram tables; equals sequence_cost."""
    t = effort_tables(g, model)
    slots = letter_slot_vector(layout)
    f = stats.within_word
    s_in = stats.across_space[:, :END]
    row_s = stats.across_space.sum(axis=1)
    ix = np.ix_(slots, slots)
    total = float((f * t.slot_to_slot[ix]).sum())
    total += float((s_in * t.space_to_slot[ix]).sum())
    total += float((row_s * t.slot_to_space[slots]).sum())
    return total


def per(d_qwerty: float, d_optimized: float) -> float:
    """Percent effort reduction relative to the stock layout."""
    if not d_qwerty > 0:
        raise ValueError("baseline distance must be strictly positive")
    return 100.0 * (d_qwerty - d_optimized) / d_qwerty


def _affected_terms(
    t: EffortTables,
    stats: BigramStats,
    slots: np.ndarray,
    moved: np.ndarray,
) -> float:
    """Cost mass of every term whose row or column letter is in ``moved``."""
    sm = slots[moved]
    f = stats.within_word
    s_in = stats.across_space[:, :END]
    row_s = stats.across_space.sum(axis=1)
    rows = np.ix_(sm, slots)
    cols = np.ix_(slots, sm)
    both = np.ix_(sm, sm)
    total = float((f[moved, :] * t.slot_to_slot[rows]).sum())
    total += float((f[:, moved] * t.slot_to_slot[cols]).sum())
    total -= float((f[np.ix_(moved, moved)] * t.slot_to_slot[both]).sum())
    total += float((s_in[moved, :] * t.space_to_slot[rows]).sum())
    total += float((s_in[:, moved] * t.space_to_slot[cols]).sum())
    total -= float((s_in[np.ix_(moved, moved)] * t.space_to_slot[both]).sum())
    total += float((row_s[moved] * t.slot_to_space[sm]).sum())
    return total


def delta_cost(
    g: KeyboardGeometry,
    base: Layout,
    base_cost: float,
    stats: BigramStats,
    swaps: SwapSet,
    model: EffortModel = DISTANCE_MODEL,
) -> float:
    """Cost of the swapped layout, updated incrementally from base_cost.

    Only terms touching the at most six moved letters are recomputed,
    nearest-sub-key decisions included. The empty SwapSet returns
    base_cost unchanged.
    """
    if not swaps.pairs:
        return base_cost
    t = effort_tables(g, model)
    old_slots = letter_slot_vector(base)
    new_slots = old_slots.copy()
    for a, b in swaps.pairs:
        ia, ib = LETTER_INDEX[a], LETTER_INDEX[b]
        new_slots[ia], new_slots[ib] = new_slots[ib], new_slots[ia]
    moved = np.array(sorted(LETTER_INDEX[ch] for ch in swaps.letters()), dtype=np.intp)
    old_part = _affected_terms(t, stats, old_slots, moved)
    new_part = _affected_terms(t, stats, new_slots, moved)
    return base_cost + (new_part - old_part)
