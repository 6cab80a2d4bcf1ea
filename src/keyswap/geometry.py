"""Keyboard geometry: key centers, distances, layouts, and letter swaps.

The model keyboard has three staggered letter rows (10/9/7 keys) and a
spacebar split into four tap targets, one column pitch apart, sitting one
row pitch below the bottom letter row. All coordinates are millimetres in
a plane with the origin at the top-left key center, x growing rightward
and y growing downward. Distances are straight lines between key centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

LETTERS = "abcdefghijklmnopqrstuvwxyz"
LETTER_INDEX = {ch: i for i, ch in enumerate(LETTERS)}

ROW_LETTERS = ("qwertyuiop", "asdfghjkl", "zxcvbnm")
SPACE_SLOT_IDS = ("sp1", "sp2", "sp3", "sp4")

# Two sub-key distances are considered tied when they agree to this relative
# tolerance; ties resolve to the lowest-numbered sub-key.
SUBKEY_TIE_REL = 1e-9


def is_finite_number(value) -> bool:
    """True for an int or float with a finite float value; bools, NaN, infinities
    and ints beyond the float range are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class GeometrySpec:
    """Physical dimensions of the keyboard, all lengths in millimetres.

    row_x_offsets holds the x of the leftmost key center per row (top,
    home, bottom, space). Space sub-keys are anchored to the bottom-row
    offset, so the fourth entry is carried only for completeness.
    space_subkey_columns are positions in bottom-row column-pitch units.
    """

    key_width: float = 4.76
    key_height: float = 6.26
    h_gap: float = 1.01
    v_gap: float = 1.70
    row_x_offsets: tuple[float, float, float, float] = (0.0, 2.885, 8.655, 8.655)
    space_subkey_columns: tuple[float, float, float, float] = (2, 3, 4, 5)

    def __post_init__(self) -> None:
        for name in ("key_width", "key_height", "h_gap", "v_gap"):
            value = getattr(self, name)
            if not (is_finite_number(value) and value > 0):
                raise ValueError(f"GeometrySpec.{name} must be a strictly positive finite number, got {value!r}")
        for name in ("row_x_offsets", "space_subkey_columns"):
            values = tuple(getattr(self, name))
            if not all(is_finite_number(v) for v in values):
                raise ValueError(f"GeometrySpec.{name} must hold finite numbers, got {values!r}")
            object.__setattr__(self, name, tuple(float(v) for v in values))
        if len(self.row_x_offsets) != 4:
            raise ValueError("GeometrySpec.row_x_offsets must have exactly 4 entries")
        if len(self.space_subkey_columns) != 4:
            raise ValueError("GeometrySpec.space_subkey_columns must have exactly 4 entries")
        if not all(a < b for a, b in zip(self.space_subkey_columns, self.space_subkey_columns[1:])):
            raise ValueError("GeometrySpec.space_subkey_columns must be strictly increasing")

    @property
    def col_pitch(self) -> float:
        return self.key_width + self.h_gap

    @property
    def row_pitch(self) -> float:
        return self.key_height + self.v_gap

    def scaled(self, factor: float) -> GeometrySpec:
        """Uniformly scale every length by ``factor`` (> 0)."""
        if not factor > 0:
            raise ValueError("scale factor must be strictly positive")
        return GeometrySpec(
            key_width=self.key_width * factor,
            key_height=self.key_height * factor,
            h_gap=self.h_gap * factor,
            v_gap=self.v_gap * factor,
            row_x_offsets=tuple(v * factor for v in self.row_x_offsets),
            space_subkey_columns=self.space_subkey_columns,
        )

    def to_json_dict(self) -> dict:
        return {
            "key_width_mm": self.key_width,
            "key_height_mm": self.key_height,
            "h_gap_mm": self.h_gap,
            "v_gap_mm": self.v_gap,
            "row_x_offsets_mm": list(self.row_x_offsets),
            "space_subkey_columns": list(self.space_subkey_columns),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> GeometrySpec:
        return cls(
            key_width=data["key_width_mm"],
            key_height=data["key_height_mm"],
            h_gap=data["h_gap_mm"],
            v_gap=data["v_gap_mm"],
            row_x_offsets=tuple(data["row_x_offsets_mm"]),
            space_subkey_columns=tuple(data["space_subkey_columns"]),
        )


DEFAULT_SPEC = GeometrySpec()


@dataclass(frozen=True)
class Slot:
    """One tap target: a letter key or a spacebar sub-key."""

    id: str
    x: float
    y: float


def _letter_slot_ids() -> tuple[str, ...]:
    ids = []
    for r, row in enumerate(ROW_LETTERS):
        ids.extend(f"r{r}c{c}" for c in range(len(row)))
    return tuple(ids)


LETTER_SLOT_IDS = _letter_slot_ids()


class KeyboardGeometry:
    """Concrete slot positions derived from a GeometrySpec.

    Letter slots are identified as ``r<row>c<col>`` and the four space
    sub-keys as ``sp1``..``sp4``. Identity, equality and hashing follow
    the spec the geometry was built from.
    """

    __slots__ = ("spec", "slots", "_index", "_centers", "_space_centers")

    def __init__(self, spec: GeometrySpec):
        px = spec.col_pitch
        py = spec.row_pitch
        slots: list[Slot] = []
        for r, row in enumerate(ROW_LETTERS):
            for c in range(len(row)):
                slots.append(Slot(f"r{r}c{c}", spec.row_x_offsets[r] + c * px, r * py))
        for i, col in enumerate(spec.space_subkey_columns):
            slots.append(Slot(SPACE_SLOT_IDS[i], spec.row_x_offsets[2] + col * px, 3 * py))
        centers = {(s.x, s.y) for s in slots}
        if len(centers) != len(slots):
            raise ValueError("geometry produces overlapping slot centers")
        self.spec = spec
        self.slots = tuple(slots)
        self._index = {s.id: s for s in slots}
        self._centers = {s.id: (s.x, s.y) for s in slots}
        self._space_centers = tuple((s.x, s.y) for s in slots if s.id in SPACE_SLOT_IDS)

    def slot(self, slot_id: str) -> Slot:
        try:
            return self._index[slot_id]
        except KeyError:
            raise ValueError(f"unknown slot id: {slot_id!r}") from None

    def center(self, slot_id: str) -> tuple[float, float]:
        return self._centers[self.slot(slot_id).id]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KeyboardGeometry) and other.spec == self.spec

    def __hash__(self) -> int:
        return hash(self.spec)

    def __repr__(self) -> str:
        return f"KeyboardGeometry({self.spec!r})"


def build_geometry(spec: GeometrySpec = DEFAULT_SPEC) -> KeyboardGeometry:
    """Validate the spec and lay out all 30 slots."""
    return KeyboardGeometry(spec)


def distance(g: KeyboardGeometry, a: str, b: str) -> float:
    """Euclidean center-to-center distance in mm between two slot ids."""
    xa, ya = g.center(a)
    xb, yb = g.center(b)
    return math.hypot(xa - xb, ya - yb)


def nearest_space_slot(g: KeyboardGeometry, from_slot: str) -> str:
    """Space sub-key nearest to ``from_slot``, lowest index on ties."""
    xa, ya = g.center(from_slot)
    best = 0
    best_d = math.inf
    for i, (xs, ys) in enumerate(g._space_centers):
        d = math.hypot(xa - xs, ya - ys)
        if d < best_d * (1.0 - SUBKEY_TIE_REL):
            best, best_d = i, d
    return SPACE_SLOT_IDS[best]


@dataclass(frozen=True)
class SwapSet:
    """Up to three disjoint unordered letter pairs, in canonical form.

    Canonical form sorts each pair internally and orders the pairs by
    first letter. Construct through ``from_pairs`` unless the input is
    already canonical.
    """

    pairs: tuple[tuple[str, str], ...] = ()

    @classmethod
    def from_pairs(cls, pairs) -> SwapSet:
        canon = tuple(sorted(tuple(sorted(p)) for p in pairs))
        _validate_pairs(canon)
        return cls(canon)

    @classmethod
    def empty(cls) -> SwapSet:
        return cls(())

    def letters(self) -> tuple[str, ...]:
        return tuple(ch for pair in self.pairs for ch in pair)

    def is_canonical(self) -> bool:
        try:
            _validate_pairs(self.pairs)
        except ValueError:
            return False
        return self.pairs == tuple(sorted(tuple(sorted(p)) for p in self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def __repr__(self) -> str:
        inner = ", ".join(a + b for a, b in self.pairs)
        return f"SwapSet({inner})"


def _validate_pairs(pairs: tuple[tuple[str, str], ...]) -> None:
    if len(pairs) > 3:
        raise ValueError("a SwapSet holds at most 3 pairs")
    seen: set[str] = set()
    for pair in pairs:
        if len(pair) != 2:
            raise ValueError(f"swap pair must have exactly 2 letters: {pair!r}")
        a, b = pair
        for ch in (a, b):
            if ch not in LETTER_INDEX:
                raise ValueError(f"swap pair letter out of range: {ch!r}")
            if ch in seen:
                raise ValueError(f"swap pairs must be disjoint; {ch!r} repeats")
            seen.add(ch)
        if a == b:
            raise ValueError(f"swap pair letters must differ: {pair!r}")


class Layout:
    """Bijective assignment of the 26 letters to the 26 letter slots."""

    __slots__ = ("_slots",)

    def __init__(self, slots_by_letter: tuple[str, ...]):
        if len(slots_by_letter) != 26 or len(set(slots_by_letter)) != 26:
            raise ValueError("layout must assign all 26 letters to distinct slots")
        for sid in slots_by_letter:
            if sid not in LETTER_SLOT_IDS:
                raise ValueError(f"not a letter slot id: {sid!r}")
        self._slots = slots_by_letter

    def slot_of(self, letter: str) -> str:
        return self._slots[LETTER_INDEX[letter]]

    @property
    def slots_by_letter(self) -> tuple[str, ...]:
        return self._slots

    def to_json_dict(self) -> dict[str, str]:
        return {ch: self._slots[i] for i, ch in enumerate(LETTERS)}

    @classmethod
    def from_json_dict(cls, data: dict[str, str]) -> Layout:
        if sorted(data) != sorted(LETTERS):
            raise ValueError("layout JSON must map exactly the 26 letters")
        return cls(tuple(data[ch] for ch in LETTERS))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Layout) and other._slots == self._slots

    def __hash__(self) -> int:
        return hash(self._slots)

    def __repr__(self) -> str:
        return f"Layout({self._slots!r})"


def qwerty_layout() -> Layout:
    """The stock layout: letters in their usual QWERTY slots."""
    slots = [""] * 26
    for r, row in enumerate(ROW_LETTERS):
        for c, ch in enumerate(row):
            slots[LETTER_INDEX[ch]] = f"r{r}c{c}"
    return Layout(tuple(slots))


def apply_swaps(layout: Layout, swaps: SwapSet) -> Layout:
    """Exchange the slots of each swapped pair; other letters stay put."""
    _validate_pairs(swaps.pairs)
    slots = list(layout.slots_by_letter)
    for a, b in swaps.pairs:
        ia, ib = LETTER_INDEX[a], LETTER_INDEX[b]
        slots[ia], slots[ib] = slots[ib], slots[ia]
    return Layout(tuple(slots))
