"""Shared fixtures, random-corpus helpers, and the naive search oracles."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from keyswap import KeySequence, build_geometry, qwerty_layout
from keyswap.effort import DISTANCE_MODEL, effort_tables, letter_slot_vector, stats_cost
from keyswap.geometry import LETTERS, SwapSet, apply_swaps
from keyswap.stats import END


@pytest.fixture(scope="session")
def geometry():
    return build_geometry()


@pytest.fixture(scope="session")
def qwerty():
    return qwerty_layout()


def random_corpus_text(rng: random.Random, lo: int = 10, hi: int = 2000) -> str:
    """Valid random key stream: starts with a letter, no double spaces."""
    n = rng.randint(lo, hi)
    out = [chr(rng.randrange(97, 123))]
    while len(out) < n:
        if out[-1] != " " and rng.random() < 0.18:
            out.append(" ")
        else:
            out.append(chr(rng.randrange(97, 123)))
    return "".join(out)


def tie_heavy_text(rng: random.Random, lo: int = 10, hi: int = 80) -> str:
    """Repeated words over 2-5 letters, so many swap sets cost the same;
    lo to hi words, which TIE_RECIPE_WORDS widens."""
    letters = rng.sample(LETTERS, rng.randint(2, 5))
    words = ["".join(rng.choice(letters) for _ in range(rng.randint(1, 4))) for _ in range(rng.randint(2, 6))]
    return " ".join(rng.choice(words) for _ in range(rng.randint(lo, hi)))


# the word counts of the tie corpora that the search's oracles and the
# result digests share, beside tie_heavy_text's default
TIE_RECIPE_WORDS = (20, 120)
# two used letters: most rows of a size-3 search tie with a shorter one
TWO_LETTER_TEXT = "ab ba abab b a ba"
# every ordered within-word bigram of a-d once, so for pairs drawn from
# a-d the cross term's 16 products cancel to nothing
UNIFORM_TEXT = " ".join(a + b for a, b in itertools.permutations("abcd", 2))


def random_sequence(rng: random.Random, lo: int = 10, hi: int = 2000) -> KeySequence:
    return KeySequence(random_corpus_text(rng, lo, hi))


def canonical_pair_tuples(n: int):
    """All canonical n-pair swap tuples, built independently of the
    package's own enumeration."""
    all_pairs = list(itertools.combinations(LETTERS, 2))
    for combo in itertools.combinations(all_pairs, n):
        letters = [ch for p in combo for ch in p]
        if len(set(letters)) == 2 * n:
            yield combo


def brute_force(g, stats, n):
    """Naive reference search: full recompute per candidate, ties to the
    lexicographically smallest canonical pair tuple."""
    base = qwerty_layout()
    best = None
    for pairs in canonical_pair_tuples(n):
        swaps = SwapSet(pairs)
        cost = stats_cost(g, apply_swaps(base, swaps), stats)
        key = (cost, pairs)
        if best is None or key < best:
            best = key
    return best[1], best[0]


# pair index -> its two letter indices, in canonical pair order
PAIR_LETTERS = np.array(list(itertools.combinations(range(26), 2)))


def canonical_rows(n: int) -> tuple[np.ndarray, ...]:
    """Every canonical 1- or 2-pair swap set as pair-index columns, ascending."""
    if n == 1:
        return (np.arange(len(PAIR_LETTERS)),)
    disjoint = ~(PAIR_LETTERS[:, None, :, None] == PAIR_LETTERS[None, :, None, :]).any(axis=(2, 3))
    return np.nonzero(np.triu(disjoint, 1))


def canonical_triples(paper: bool = False):
    """Every canonical 3-pair swap set as pair-index columns (i, j, k),
    i < j < k and no letter shared, one block per first pair i, ascending
    in encoding; paper mode keeps the sets whose pairs' larger letters
    ascend too. Built from canonical_rows(2), independently of the
    package's candidate streams."""
    j, k = canonical_rows(2)
    letters = (1 << PAIR_LETTERS).sum(axis=1)
    jk, larger = letters[j] | letters[k], PAIR_LETTERS[:, 1]
    if paper:
        keep = larger[j] < larger[k]
        j, k, jk = j[keep], k[keep], jk[keep]
    for i in range(len(PAIR_LETTERS)):
        at = np.searchsorted(j, i + 1)
        rows = at + np.flatnonzero((jk[at:] & letters[i]) == 0)
        if paper:
            rows = rows[larger[i] < larger[j[rows]]]
        if rows.size:
            yield np.full(rows.size, i), j[rows], k[rows]


def c2_table(c2) -> np.ndarray:
    """The symmetric 325 x 325 table of the cross terms whose size-2 rows,
    in canonical order, c2 holds, +0.0 where two pairs share a letter."""
    i, j = canonical_rows(2)
    table = np.zeros((len(PAIR_LETTERS), len(PAIR_LETTERS)))
    table[i, j] = table[j, i] = c2
    return table


def live_pair_keys(stats, rows) -> np.ndarray:
    """One key per row of pair-index columns, equal for rows that swap the
    same live pairs, pairs that move a letter the corpus counts: such rows
    move the counted letters alike, so their layouts cost the same."""
    counts = stats.within_word + stats.within_word.T
    used = (counts.sum(axis=1) + stats.across_space.sum(axis=1) + stats.across_space[:, :END].sum(axis=0)) > 0
    live = used[PAIR_LETTERS].any(axis=1)
    pairs = np.stack(rows, axis=1)
    digits = np.sort(np.where(live[pairs], pairs, len(PAIR_LETTERS)), axis=1)
    return digits @ (len(PAIR_LETTERS) + 1) ** np.arange(pairs.shape[1])[::-1]


def live_pair_classes(stats, blocks) -> tuple[np.ndarray, ...]:
    """The first row of each live_pair_keys class of the blocks' rows. The
    rows must ascend in encoding, across blocks too, and so do the rows
    returned, the smallest encoding of each class."""
    keys, firsts = [], []
    for block in blocks:
        key = live_pair_keys(stats, block)
        at = np.sort(np.unique(key, return_index=True)[1])
        keys.append(key[at])
        firsts.append(np.stack(block, axis=1)[at])
    at = np.sort(np.unique(np.concatenate(keys), return_index=True)[1])
    return tuple(np.concatenate(firsts)[at].T)


def layout_costs(g, stats, rows, model=DISTANCE_MODEL) -> np.ndarray:
    """stats_cost of the qwerty layout swapped by each row, many rows at a
    time, with stats_cost's bits: each row's 676, 676 and 26 products are
    summed as one contiguous row and the three sums added in order."""
    t = effort_tables(g, model)
    o = letter_slot_vector(g, qwerty_layout())
    f = stats.within_word.astype(np.float64).ravel()
    s_in = stats.across_space[:, :END].astype(np.float64).ravel()
    row_s = stats.across_space.sum(axis=1)
    out = []
    for lo in range(0, len(rows[0]), 256):
        pairs = np.stack([col[lo : lo + 256] for col in rows], axis=1)
        slots = np.tile(o, (pairs.shape[0], 1))
        at = np.arange(pairs.shape[0])[:, None]
        u, v = PAIR_LETTERS[pairs, 0], PAIR_LETTERS[pairs, 1]
        slots[at, u], slots[at, v] = o[v], o[u]
        flat = (slots[:, :, None] * 26 + slots[:, None, :]).reshape(len(slots), -1)
        a = (f * t.slot_to_slot.ravel()[flat]).sum(axis=1)
        b = (s_in * t.space_to_slot.ravel()[flat]).sum(axis=1)
        out.append((a + b) + (row_s * t.slot_to_space[slots]).sum(axis=1))
    return np.concatenate(out)


def oracle_best(g, stats, rows, model=DISTANCE_MODEL) -> tuple[float, tuple[int, ...]]:
    """Least (stats_cost, pair indices) over rows that ascend in encoding:
    the first least cost over the first row of each live-pair class."""
    rows = live_pair_classes(stats, [rows])
    costs = layout_costs(g, stats, rows, model)
    r = int(np.argmin(costs))
    return float(costs[r]), tuple(int(col[r]) for col in rows)


def reference_c2(g, stats, base, model):
    """Cross-term table c2 built by the all-combinations formula, one
    (letter of p, letter of q) combination after another over the size-2
    pair list, as the search's table build sums them."""
    pairs = list(itertools.combinations(range(26), 2))
    u = np.array([p[0] for p in pairs])
    v = np.array([p[1] for p in pairs])
    idx_i, idx_j = np.nonzero(np.triu(~(
        (u[:, None] == u) | (u[:, None] == v) | (v[:, None] == u) | (v[:, None] == v)
    ), 1))
    t = effort_tables(g, model)
    o = letter_slot_vector(g, base)
    f = stats.within_word.astype(np.float64)
    s_in = stats.across_space[:, :END].astype(np.float64)
    au, av, bu, bv = u[idx_i], v[idx_i], u[idx_j], v[idx_j]
    combos = (
        # (a, old slot of a, new slot of a, b, old slot of b, new slot of b)
        (au, o[au], o[av], bu, o[bu], o[bv]),
        (au, o[au], o[av], bv, o[bv], o[bu]),
        (av, o[av], o[au], bu, o[bu], o[bv]),
        (av, o[av], o[au], bv, o[bv], o[bu]),
        (bu, o[bu], o[bv], au, o[au], o[av]),
        (bu, o[bu], o[bv], av, o[av], o[au]),
        (bv, o[bv], o[bu], au, o[au], o[av]),
        (bv, o[bv], o[bu], av, o[av], o[au]),
    )
    vals = np.zeros(idx_i.shape[0])
    for a, oa, na, b, ob, nb in combos:
        dd = t.slot_to_slot
        gg = t.space_to_slot
        vals += f[a, b] * (dd[na, nb] - dd[na, ob] - dd[oa, nb] + dd[oa, ob])
        vals += s_in[a, b] * (gg[na, nb] - gg[na, ob] - gg[oa, nb] + gg[oa, ob])
    c2 = np.zeros((len(pairs), len(pairs)))
    c2[idx_i, idx_j] = vals
    c2[idx_j, idx_i] = vals
    return c2
