"""Bigram statistics that make corpus cost a pure table computation.

Two integer tables capture everything the distance model needs:

* ``within_word[a][b]``: letter a followed directly by letter b. The
  diagonal holds doubled letters, whose traversal is zero length.
* ``across_space[a][b]``: word-final a followed, across one space, by
  word-initial b. Column END (index 26) counts a space that ends the
  stream, which is typed but leads nowhere.

An interior space is two traversed segments (into and out of the space
sub-key nearest the preceding letter), a trailing space just one.

Every tally of the moves a layout implies comes from one move table per
stats and layout, _move_table, whose slots and distances are looked up
in the geometry's own tables (ids, sub, dist): traversals() and
pair_usage() here, and the pair tables and heat maps of report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .corpus import SPACE, KeySequence
from .geometry import LETTERS, SLOT_IDS, KeyboardGeometry, Layout, letter_slot_vector

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


# byte -> key code: a letter to 0..25, the space to 26, which is also END
_KEY_CODES = bytes.maketrans(LETTERS.encode("ascii") + SPACE.encode("ascii"), bytes(range(27)))


def count_bigrams(seq: KeySequence) -> BigramStats:
    """Tally a key sequence into the two transition tables.

    A KeySequence holds only a-z and single spaces, never leading, so
    every press is one byte, and a space code appended past the last
    press stands for END. A letter a followed by b, then c, counts at
    within_word[a, b] when b is a letter, else at across_space[a, c];
    one bincount over both tables' cells, exact in integers, tallies
    them all.
    """
    k = np.frombuffer((seq.text + SPACE).encode("ascii").translate(_KEY_CODES), dtype=np.uint8).astype(np.intp)
    a, b, c = k[:-2], k[1:-1], k[2:]
    cells = np.where(b < END, a * 26 + b, 26 * 26 + a * 27 + c)[a < END]
    counts = np.bincount(cells, minlength=26 * 26 + 26 * 27)
    return BigramStats(counts[: 26 * 26].reshape(26, 26), counts[26 * 26 :].reshape(26, 27))


SP = "sp"  # a space sub-key in pair labels


class Move(NamedTuple):
    """One directed move between two slots and how often the corpus makes it."""

    src: str  # the letter typed first, or SP for a space sub-key
    dst: str  # the letter typed next, or SP
    src_slot: str
    dst_slot: str
    count: int


class _MoveTable(NamedTuple):
    """The moves of traversals() as columns, in its order.

    a and b are letter indices: b is END for a move into a space, and a
    move out of a space keeps in a the word-final letter before it, which
    chose its sub-key. src and dst are slot indices, positions in g.slots.
    within and into count the moves of the first two kinds.
    """

    a: np.ndarray
    b: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    count: np.ndarray
    within: int
    into: int


def _move_table(stats: BigramStats, g: KeyboardGeometry, layout: Layout) -> _MoveTable:
    slot = letter_slot_vector(g, layout)
    sub = g.sub.take(slot)
    f, s = stats.within_word, stats.across_space
    wa, wb = np.nonzero(f)
    into_count = s.sum(axis=1)
    ia = np.flatnonzero(into_count)
    oa, ob = np.nonzero(s[:, :END])
    return _MoveTable(
        a=np.concatenate((wa, ia, oa)),
        b=np.concatenate((wb, np.full(ia.size, END), ob)),
        src=np.concatenate((slot[wa], slot[ia], sub[oa])),
        dst=np.concatenate((slot[wb], sub[ia], slot[ob])),
        count=np.concatenate((f[wa, wb], into_count[ia], s[oa, ob])),
        within=wa.size,
        into=ia.size,
    )


def traversals(stats: BigramStats, g: KeyboardGeometry, layout: Layout) -> list[Move]:
    """Every directed move the stats imply under one layout, with its count.

    Three kinds, in this order: letter slot -> letter slot within a word
    (a doubled letter moves onto its own slot); letter slot -> the space
    sub-key nearest it, counting stream-final spaces; that sub-key -> the
    first letter of the next word. Within a kind, moves ascend by the
    letter typed first, then by the letter typed next.
    """
    m = _move_table(stats, g, layout)
    src = [LETTERS[a] for a in m.a[: m.within + m.into].tolist()] + [SP] * (m.a.size - m.within - m.into)
    dst = [LETTERS[b] if b < END else SP for b in m.b.tolist()]
    return [
        Move(x, y, SLOT_IDS[p], SLOT_IDS[q], n)
        for x, y, p, q, n in zip(src, dst, m.src.tolist(), m.dst.tolist(), m.count.tolist())
    ]


@dataclass(frozen=True)
class PairUsage:
    """One direction-sensitive key pair with its share of all segments."""

    label: str
    count: int
    usage_pct: float
    distance_mm: float


# Pair labels by id: "a-b" is a * 26 + b, "a-sp" is 676 + a, "sp-b" is 702 + b.
_LABELS = (
    [f"{x}-{y}" for x in LETTERS for y in LETTERS] + [f"{x}-{SP}" for x in LETTERS] + [f"{SP}-{y}" for y in LETTERS]
)
_LABEL_RANK = np.argsort(np.argsort(_LABELS))


def _usage_rows(m: _MoveTable, g: KeyboardGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The label id, count and distance in mm of each pair row.

    A move into or within a word is one row. The moves out of a space
    into letter b are one "sp-b" row, whose distance is the usage-weighted
    mean over the word-final letters a before the space; its numerator
    adds count * distance in ascending order of a, left to right, as
    bincount sums its weights in input order (not the pairwise np.sum).
    """
    k = m.within + m.into
    d = g.dist[m.src, m.dst]
    travel = np.bincount(m.b[k:], m.count[k:] * d[k:], 26)
    entered_count = np.bincount(m.b[k:], m.count[k:], 26).astype(np.int64)
    entered = np.flatnonzero(entered_count)
    ids = np.concatenate((m.a[: m.within] * 26 + m.b[: m.within], 676 + m.a[m.within : k], 702 + entered))
    counts = np.concatenate((m.count[:k], entered_count[entered]))
    return ids, counts, np.concatenate((d[:k], travel[entered] / counts[k:]))


def _pair_columns(
    stats: BigramStats, g: KeyboardGeometry, layouts: tuple[Layout, ...], k: int | None = None
) -> tuple[list[str], list[int], list[float], list[list[float]]]:
    """The first k pair rows in usage order, as columns: labels, counts,
    usage shares, and the distances under each layout.

    Counts and labels depend only on the corpus, so one sort by usage
    descending, ties alphabetically by label, orders every layout's rows.
    """
    if stats.is_empty:
        raise ValueError("pair usage undefined for empty stats")
    rows = [_usage_rows(_move_table(stats, g, layout), g) for layout in layouts]
    ids, counts, _ = rows[0]
    order = np.lexsort((_LABEL_RANK[ids], -counts))[:k]
    counts = counts[order]
    usage_pct = 100.0 * counts / stats.total_transitions
    dists = [d[order].tolist() for _, _, d in rows]
    return [_LABELS[i] for i in ids[order].tolist()], counts.tolist(), usage_pct.tolist(), dists


def pair_usage(stats: BigramStats, g: KeyboardGeometry, layout: Layout) -> list[PairUsage]:
    """Per-pair traversal share and mean distance under one layout.

    Labels are direction sensitive ("e-sp" is the move into a space after
    e, "sp-e" the move out of a space into e). The distance of "sp-b" is
    the usage-weighted mean over the word-final letters that precede the
    space, because the sub-key in use depends on that letter; its
    numerator sums in ascending order of those letters. Rows are sorted by
    usage descending, ties alphabetically by label.
    """
    labels, counts, usage_pct, (dists,) = _pair_columns(stats, g, (layout,))
    return [PairUsage(*row) for row in zip(labels, counts, usage_pct, dists)]
