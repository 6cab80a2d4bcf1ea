"""Keyboard geometry: slot centers, distances, sub-key choice, swaps."""

from __future__ import annotations

import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from keyswap.geometry import (
    DEFAULT_SPEC,
    LETTER_SLOT_IDS,
    LETTERS,
    ROW_LETTERS,
    SLOT_IDS,
    SLOT_INDEX,
    GeometrySpec,
    Layout,
    SwapSet,
    apply_swaps,
    build_geometry,
    distance,
    nearest_space_slot,
    qwerty_layout,
)

# Column/row pitch from the default measurements: 4.76+1.01 and 6.26+1.70.
PX = 5.77
PY = 7.96


def test_top_row_centers(geometry):
    # q sits at the origin; the row marches right one pitch per key.
    assert geometry.center("r0c0") == pytest.approx((0.0, 0.0), abs=1e-12)
    assert geometry.center("r0c1") == pytest.approx((PX, 0.0), abs=1e-12)
    assert geometry.center("r0c9") == pytest.approx((9 * PX, 0.0), abs=1e-12)


def test_home_and_bottom_row_offsets(geometry):
    # a: half-pitch indent; z: 1.5-pitch indent; one and two rows down.
    assert geometry.center("r1c0") == pytest.approx((2.885, PY), abs=1e-12)
    assert geometry.center("r2c0") == pytest.approx((8.655, 2 * PY), abs=1e-12)


def test_spacebar_subkeys_sit_under_bottom_row(geometry):
    # Sub-keys line up under c, v, b, n one row pitch below the bottom row.
    for i, col in enumerate((2, 3, 4, 5), start=1):
        x, y = geometry.center(f"sp{i}")
        assert x == pytest.approx(8.655 + col * PX, abs=1e-12)
        assert y == pytest.approx(3 * PY, abs=1e-12)


def test_slot_count_and_ids(geometry):
    ids = {s.id for s in geometry.slots}
    assert len(geometry.slots) == 30
    assert set(LETTER_SLOT_IDS) <= ids
    assert {"sp1", "sp2", "sp3", "sp4"} <= ids


def test_slot_order_is_id_order():
    # the heat map draws its lines in slot order and calls that id order
    assert list(SLOT_IDS) == sorted(SLOT_IDS)


def test_unknown_slot_id_rejected(geometry):
    with pytest.raises(ValueError):
        geometry.slot("r9c9")


def test_distance_basics(geometry):
    assert distance(geometry, "r0c0", "r0c0") == 0.0
    assert distance(geometry, "r0c0", "r0c1") == pytest.approx(PX, abs=1e-12)
    assert distance(geometry, "r0c0", "r1c0") == pytest.approx(math.hypot(2.885, PY), abs=1e-12)
    assert distance(geometry, "r0c3", "r2c6") == distance(geometry, "r2c6", "r0c3")


GOLDEN_PAIR_CM = {
    ("e", " "): 2.54,
    ("o", " "): 2.54,
    ("n", " "): 0.80,
    ("s", " "): 1.97,
    ("y", " "): 2.41,
    ("e", "r"): 0.58,
    ("t", "h"): 1.18,
    ("i", "n"): 1.62,
    ("t", "o"): 2.31,
    ("o", "u"): 1.16,
    ("a", "n"): 3.56,
    ("h", "a"): 2.89,
}


def test_golden_pair_distances(geometry, qwerty):
    for (a, b), want_cm in GOLDEN_PAIR_CM.items():
        sa = qwerty.slot_of(a)
        sb = nearest_space_slot(geometry, sa) if b == " " else qwerty.slot_of(b)
        assert distance(geometry, sa, sb) / 10.0 == pytest.approx(want_cm, abs=0.01), (a, b)


def test_nearest_space_slot_matches_brute_force(geometry):
    subs = ("sp1", "sp2", "sp3", "sp4")
    for slot_id in LETTER_SLOT_IDS:
        x, y = geometry.center(slot_id)
        dists = []
        for s in subs:
            xs, ys = geometry.center(s)
            dists.append(math.hypot(x - xs, y - ys))
        best = min(range(4), key=lambda i: (dists[i], i))
        assert nearest_space_slot(geometry, slot_id) == subs[best], slot_id


@pytest.mark.parametrize("factor", [1.0, 2.0, 0.37, 3.3])
def test_slot_table_is_distance_and_nearest_space_slot_bit_for_bit(factor):
    # np.hypot rounds differently from math.hypot on a few slot pairs of
    # these geometries, so the table must be built with distance()'s expression.
    g = build_geometry(DEFAULT_SPEC.scaled(factor))
    # every geometry shares one slot numbering: the letter rows, then the sub-keys
    want_ids = tuple(f"r{r}c{c}" for r, row in enumerate(ROW_LETTERS) for c in range(len(row)))
    assert SLOT_IDS == want_ids + ("sp1", "sp2", "sp3", "sp4")
    assert tuple(s.id for s in g.slots) == g.ids == SLOT_IDS
    assert g.index == SLOT_INDEX and all(g.index[sid] == i for i, sid in enumerate(g.ids))
    want = np.array([[distance(g, a, b) for b in g.ids] for a in g.ids])
    assert g.dist.tobytes() == want.tobytes()
    assert [g.ids[i] for i in g.sub] == [nearest_space_slot(g, sid) for sid in LETTER_SLOT_IDS]
    # a batch child started by spawn unpickles Settings, and the tables travel inside the geometry
    h = pickle.loads(pickle.dumps(g))
    assert h == g and h.index == SLOT_INDEX and tuple(s.id for s in h.slots) == SLOT_IDS
    assert h.dist.tobytes() == g.dist.tobytes() and h.sub.tobytes() == g.sub.tobytes()


def test_nearest_space_slot_known_columns(geometry):
    # b sits exactly above sp3. t is equidistant from sp1 and sp2, and y
    # from sp2 and sp3, so the lowest-index tie rule decides both.
    assert nearest_space_slot(geometry, "r2c4") == "sp3"
    assert nearest_space_slot(geometry, "r0c4") == "sp1"
    assert nearest_space_slot(geometry, "r0c5") == "sp2"


def test_worked_sentence_subkeys(geometry, qwerty):
    # o ends "hello", w ends "how", e ends "are".
    assert nearest_space_slot(geometry, qwerty.slot_of("o")) == "sp4"
    assert nearest_space_slot(geometry, qwerty.slot_of("w")) == "sp1"
    assert nearest_space_slot(geometry, qwerty.slot_of("e")) == "sp1"


def test_spec_validation_rejects_bad_measurements():
    with pytest.raises(ValueError):
        GeometrySpec(key_width=0.0)
    with pytest.raises(ValueError):
        GeometrySpec(row_x_offsets=(0.0, 2.885))
    with pytest.raises(ValueError):
        GeometrySpec(space_subkey_columns=(2, 2, 4, 5))
    for name in ("key_width", "key_height", "h_gap", "v_gap"):
        for bad in (math.inf, math.nan, True, "5"):
            with pytest.raises(ValueError):
                GeometrySpec(**{name: bad})
    for bad in (math.inf, math.nan, True, "1.5"):
        with pytest.raises(ValueError):
            GeometrySpec(row_x_offsets=(0.0, 2.885, bad, 8.655))
        with pytest.raises(ValueError):
            GeometrySpec(space_subkey_columns=(2, 3, 4, bad))


def test_spec_json_round_trip():
    spec = DEFAULT_SPEC
    again = GeometrySpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
    assert again == spec


@given(st.integers(min_value=-3, max_value=6))
def test_scaling_by_powers_of_two_is_exact(k):
    # Powers of two keep float multiplication exact, so distances must
    # scale with no tolerance at all.
    factor = 2.0**k
    g1 = build_geometry()
    g2 = build_geometry(DEFAULT_SPEC.scaled(factor))
    for a in ("r0c0", "r1c4", "sp2"):
        for b in ("r2c6", "sp4", "r0c9"):
            assert distance(g2, a, b) == factor * distance(g1, a, b)


def test_scaling_preserves_subkey_choice(geometry):
    g2 = build_geometry(DEFAULT_SPEC.scaled(2.5))
    for slot_id in LETTER_SLOT_IDS:
        assert nearest_space_slot(g2, slot_id) == nearest_space_slot(geometry, slot_id)


def test_swapset_canonicalizes_pair_and_set_order():
    s = SwapSet.from_pairs([("t", "b"), ("a", "j")])
    assert s.pairs == (("a", "j"), ("b", "t"))
    assert s.is_canonical()
    assert s.letters() == ("a", "j", "b", "t")


def test_swapset_rejects_bad_pairs():
    with pytest.raises(ValueError):
        SwapSet.from_pairs([("a", "a")])
    with pytest.raises(ValueError):
        SwapSet.from_pairs([("a", "b"), ("b", "c")])
    with pytest.raises(ValueError):
        SwapSet.from_pairs([("a", "b"), ("c", "d"), ("e", "f"), ("g", "h")])
    with pytest.raises(ValueError):
        SwapSet.from_pairs([("a", "1")])


def test_empty_swapset():
    assert SwapSet.empty().pairs == ()
    assert SwapSet.empty().letters() == ()
    assert len(SwapSet.empty()) == 0


def test_noncanonical_swapset_detected():
    assert not SwapSet((("b", "a"),)).is_canonical()
    assert not SwapSet((("c", "d"), ("a", "b"))).is_canonical()


def test_swapset_of_unsortable_pairs_is_not_canonical():
    assert not SwapSet(((1, "a"),)).is_canonical()
    assert not SwapSet((("a", "b", "c"),)).is_canonical()


@pytest.mark.parametrize("value", ["x", None, [], 7])
def test_spec_that_is_not_an_object_is_rejected_by_name(value):
    with pytest.raises(TypeError) as info:
        GeometrySpec.from_json_dict(value)
    assert str(info.value) == f"a geometry spec must be a JSON object, got {value!r}"


def test_qwerty_layout_slots(qwerty):
    assert qwerty.slot_of("q") == "r0c0"
    assert qwerty.slot_of("p") == "r0c9"
    assert qwerty.slot_of("a") == "r1c0"
    assert qwerty.slot_of("m") == "r2c6"
    want = {ch: f"r{r}c{c}" for r, row in enumerate(ROW_LETTERS) for c, ch in enumerate(row)}
    assert qwerty.to_json_dict() == want


def test_layout_requires_bijection(qwerty):
    slots = list(qwerty.slots_by_letter)
    slots[0] = slots[1]
    with pytest.raises(ValueError):
        Layout(tuple(slots))


def test_apply_swaps_exchanges_slots(qwerty):
    swapped = apply_swaps(qwerty, SwapSet.from_pairs([("q", "m")]))
    assert swapped.slot_of("q") == "r2c6"
    assert swapped.slot_of("m") == "r0c0"
    assert swapped.slot_of("a") == "r1c0"


PAIR_ST = st.lists(st.sampled_from(LETTERS), min_size=2, max_size=6, unique=True).map(
    lambda ls: [tuple(sorted(ls[i : i + 2])) for i in range(0, len(ls) - len(ls) % 2, 2)]
)


@given(PAIR_ST)
def test_apply_swaps_is_an_involution(pairs):
    base = qwerty_layout()
    s = SwapSet.from_pairs(pairs)
    assert apply_swaps(apply_swaps(base, s), s) == base


def test_layout_json_round_trip(qwerty):
    again = Layout.from_json_dict(json.loads(json.dumps(qwerty.to_json_dict())))
    assert again == qwerty


def test_geometry_equality_follows_spec():
    assert build_geometry() == build_geometry()
    assert build_geometry() != build_geometry(DEFAULT_SPEC.scaled(2.0))
