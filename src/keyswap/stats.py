"""Bigram statistics that make corpus cost a pure table computation.

Two integer tables capture everything the distance model needs:

* ``within_word[a][b]``: letter a followed directly by letter b. The
  diagonal holds doubled letters, whose traversal is zero length.
* ``across_space[a][b]``: word-final a followed, across one space, by
  word-initial b. Column END (index 26) counts a space that ends the
  stream, which is typed but leads nowhere.

An interior space is two traversed segments (into and out of the space
sub-key nearest the preceding letter), a trailing space just one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .corpus import SPACE, KeySequence
from .geometry import (
    LETTER_INDEX,
    LETTERS,
    KeyboardGeometry,
    Layout,
    distance,
    nearest_space_slot,
)

END = 26  # column index for a stream-final space


@dataclass(eq=False)
class BigramStats:
    """Within-word and across-space transition counts for one corpus."""

    within_word: np.ndarray = field(default_factory=lambda: np.zeros((26, 26), dtype=np.int64))
    across_space: np.ndarray = field(default_factory=lambda: np.zeros((26, 27), dtype=np.int64))

    def __post_init__(self) -> None:
        self.within_word = np.asarray(self.within_word, dtype=np.int64)
        self.across_space = np.asarray(self.across_space, dtype=np.int64)
        if self.within_word.shape != (26, 26):
            raise ValueError("within_word must be 26x26")
        if self.across_space.shape != (26, 27):
            raise ValueError("across_space must be 26x27")
        if (self.within_word < 0).any() or (self.across_space < 0).any():
            raise ValueError("bigram counts must be non-negative")

    @property
    def total_transitions(self) -> int:
        interior = int(self.across_space[:, :END].sum())
        final = int(self.across_space[:, END].sum())
        return int(self.within_word.sum()) + 2 * interior + final

    @property
    def is_empty(self) -> bool:
        return self.total_transitions == 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BigramStats)
            and np.array_equal(other.within_word, self.within_word)
            and np.array_equal(other.across_space, self.across_space)
        )

    def to_json_dict(self) -> dict:
        return {
            "letters": LETTERS,
            "end_index": END,
            "within_word": self.within_word.tolist(),
            "across_space": self.across_space.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> BigramStats:
        if data.get("letters") != LETTERS or data.get("end_index") != END:
            raise ValueError("unrecognized bigram table legend")
        return cls(
            within_word=np.array(data["within_word"], dtype=np.int64),
            across_space=np.array(data["across_space"], dtype=np.int64),
        )


def count_bigrams(seq: KeySequence) -> BigramStats:
    """Tally a key sequence into the two transition tables."""
    stats = BigramStats()
    f = stats.within_word
    s = stats.across_space
    text = seq.text
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


SP = "sp"  # a space sub-key in pair labels


class Move(NamedTuple):
    """One directed move between two slots and how often the corpus makes it."""

    src: str  # the letter typed first, or SP for a space sub-key
    dst: str  # the letter typed next, or SP
    src_slot: str
    dst_slot: str
    count: int


def _cells(table: np.ndarray):
    rows, cols = np.nonzero(table)
    return zip(rows.tolist(), cols.tolist(), table[rows, cols].tolist())


def traversals(stats: BigramStats, g: KeyboardGeometry, layout: Layout) -> list[Move]:
    """Every directed move the stats imply under one layout, with its count.

    Three kinds, in this order: letter slot -> letter slot within a word
    (a doubled letter moves onto its own slot); letter slot -> the space
    sub-key nearest it, counting stream-final spaces; that sub-key -> the
    first letter of the next word. Within a kind, moves ascend by the
    letter typed first, then by the letter typed next.
    """
    slot = [layout.slot_of(ch) for ch in LETTERS]
    sub = [nearest_space_slot(g, sid) for sid in slot]
    s = stats.across_space
    moves = [Move(LETTERS[a], LETTERS[b], slot[a], slot[b], n) for a, b, n in _cells(stats.within_word)]
    moves += [Move(LETTERS[a], SP, slot[a], sub[a], n) for a, n in enumerate(s.sum(axis=1).tolist()) if n]
    moves += [Move(SP, LETTERS[b], sub[a], slot[b], n) for a, b, n in _cells(s[:, :END])]
    return moves


@dataclass(frozen=True)
class PairUsage:
    """One direction-sensitive key pair with its share of all segments."""

    label: str
    count: int
    usage_pct: float
    distance_mm: float


def pair_usage(stats: BigramStats, g: KeyboardGeometry, layout: Layout) -> list[PairUsage]:
    """Per-pair traversal share and mean distance under one layout.

    Labels are direction sensitive ("e-sp" is the move into a space after
    e, "sp-e" the move out of a space into e). The distance of "sp-b" is
    the usage-weighted mean over the word-final letters that precede the
    space, because the sub-key in use depends on that letter; its
    numerator sums in ascending order of those letters. Rows are sorted by
    usage descending, ties alphabetically by label.
    """
    if stats.is_empty:
        raise ValueError("pair usage undefined for empty stats")
    total = stats.total_transitions
    rows: list[PairUsage] = []
    out_of_space: dict[str, list] = {}  # letter -> [count, count-weighted distance]
    for m in traversals(stats, g, layout):
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
