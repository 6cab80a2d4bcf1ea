"""Exact search over letter-swap sets.

Two candidate generators are supported. Canonical mode enumerates every
set of n disjoint unordered letter pairs (325 / 44,850 / 3,453,450 for
n = 1 / 2 / 3). Triplet mode pairs two disjoint sorted 3-letter groups
position by position; it counts 2,302,300 candidate evaluations out of
6,757,400 raw ordered group pairs and reaches a strict subset of the
canonical n=3 layouts, so its optimum can never beat the canonical one.

Those 2,302,300 pairings cover only 1,151,150 distinct swap sets, and the
search scores each of them once: they are the canonical size-3 rows
(i, j, k), i < j < k, with v[i] < v[j] < v[k], where v is a pair's larger
letter. Proof: pairing two ascending triplets position by position gives
pairs whose smaller letters ascend and whose larger letters ascend, and
any three disjoint pairs with both ascending are the pairing of the
triplet of their smaller letters with the triplet of their larger ones.
Canonical rows already have ascending smaller letters. The result keeps
candidates = 2,302,300, the count of triplet pairings.

The search never recomputes full layout costs. Cost is a sum over letter
pairs, so the change from applying disjoint transpositions p1..pn is
exactly the per-transposition deltas d1[p] plus the pairwise cross terms
c2[p, q], built once per search by _build_d1 and, for sizes above 1,
_build_c2, which shares its gathers per leading pair and walks the rows
in cache-sized chunks, each in its old order of operations. Each size
has one candidate stream, _candidate_blocks(n, mode), scored by _best
(sizes 1 and 2) or by _best_size3 over the rows of _size3_plan(mode)
(size 3); ties go to the smallest canonical encoding.
_triplet_pairings is kept only as the reference stream of
enumerate_swapsets(3, "paper") and of the tests.

The size-3 search is exact but does not score every block. Each first
pair i gets a lower bound on its block, bound[i] = min_j (a[i, j] + r[j])
+ min_k c2[i, k], with a[i, j] = (d1[i] + d1[j]) + c2[i, j] and r[j] the
least d1[k] + c2[j, k] over j's size-2 rows (a Gilmore-Lawler bound for
this restricted quadratic assignment problem). Some first pairs take no
row; the bound of most of them is +inf. First pairs of finite bound are
scored in ascending bound order, one that takes no row scores +inf and
is dropped, and the scan stops at the first block whose bound exceeds
the best delta so far by more than tau = 2**-40 * 3 * (max|d1| +
max|c2|), far more than the rounding of any row or bound; _best_size3
holds the proof. So every candidate is either scored or shown to cost
strictly more than the winner, and the winner and its tie-break are
those of scoring every row.

Every kernel requires finite tables: optimize does all of its cost
arithmetic with numpy overflow and invalid values raising, so costs that
overflow on a corpus are a ValueError, never a non-finite winner; a
result whose recomputed costs are not finite does not verify.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .effort import DISTANCE_MODEL, EffortModel, effort_tables, letter_slot_vector, per, stats_cost
from .geometry import (
    DEFAULT_SPEC,
    LETTERS,
    GeometrySpec,
    KeyboardGeometry,
    Layout,
    SwapSet,
    apply_swaps,
    is_finite_number,
    qwerty_layout,
)
from .stats import END, BigramStats

MODES = ("canonical", "paper")

_N_LETTERS = 26
_N_PAIRS = 325  # C(26, 2)
_N_TRIPLETS = 2600  # C(26, 3)
_C2_CHUNK = 8192  # rows per pass of _build_c2, so that its buffers stay in L2

# verify_result's relative tolerance between stored and recomputed costs
VERIFY_REL_TOL = 1e-9


def _put_model(d: dict, model: EffortModel) -> None:
    """Add a non-default cost model to d; default-model files keep their bytes."""
    if model != DISTANCE_MODEL:
        d["model"] = {f.name: getattr(model, f.name) for f in fields(model)}


def _get_model(data: dict) -> EffortModel:
    return EffortModel(**data["model"]) if "model" in data else DISTANCE_MODEL


@dataclass(frozen=True)
class SearchConfig:
    """Search space and cost model for optimize().

    ``workers`` is still accepted and validated, but has no effect on one
    search: optimize() always runs in one process.
    """

    n_swap_pairs: int = 3
    mode: str = "canonical"
    cumulative: bool = False
    workers: int = 1
    model: EffortModel = DISTANCE_MODEL

    def __post_init__(self) -> None:
        _check_size(self.n_swap_pairs, self.mode, "n_swap_pairs")
        if not isinstance(self.cumulative, bool):
            raise ValueError("cumulative must be true or false")
        if self.mode == "paper" and self.cumulative:
            raise ValueError("triplet mode does not support cumulative search")
        if type(self.workers) is not int or self.workers < 1:
            raise ValueError("workers must be an integer of at least 1")

    def to_json_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "model"}
        _put_model(d, self.model)
        return d

    @classmethod
    def from_json_dict(cls, data: dict) -> SearchConfig:
        """A missing key takes its default; an unknown key is ignored."""
        known = {f.name: data[f.name] for f in fields(cls) if f.name in data and f.name != "model"}
        return cls(model=_get_model(data), **known)


@dataclass(frozen=True)
class OptimizationResult:
    """Winner of a search plus enough telemetry to audit it.

    ``candidates`` counts the search space (the swap sets, or in paper
    mode the triplet pairings, that the search covers), not the rows it
    scored: the size-3 search skips blocks its bound proves too costly.
    """

    swaps: SwapSet
    qwerty_cost_mm: float
    best_cost_mm: float
    per_pct: float
    candidates: int
    mode: str
    cumulative: bool = False
    wall_time_s: float | None = None
    raw_ordered_pairs: int | None = None
    model: EffortModel = DISTANCE_MODEL
    geometry: GeometrySpec = DEFAULT_SPEC

    def to_json_dict(self, include_wall_time: bool = False) -> dict:
        # wall time is dropped from canonical output so identical inputs
        # serialize to identical bytes
        d = {
            "swaps": [[a, b] for a, b in self.swaps.pairs],
            "qwerty_cost_mm": self.qwerty_cost_mm,
            "best_cost_mm": self.best_cost_mm,
            "per_pct": self.per_pct,
            "candidates": self.candidates,
            "mode": self.mode,
            "wall_time_s": self.wall_time_s if include_wall_time else None,
        }
        if self.cumulative:
            d["cumulative"] = True
        if self.raw_ordered_pairs is not None:
            d["raw_ordered_pairs"] = self.raw_ordered_pairs
        _put_model(d, self.model)
        # as with the model, a default geometry is left out so bytes stay
        if self.geometry != DEFAULT_SPEC:
            d["geometry"] = self.geometry.to_json_dict()
        return d

    @classmethod
    def from_json_dict(cls, data: dict) -> OptimizationResult:
        """Raises ValueError for swap letters that are not strings and costs
        that are not finite numbers, so that no check trips over their type."""
        swaps = tuple((a, b) for a, b in data["swaps"])
        if not all(isinstance(ch, str) for pair in swaps for ch in pair):
            raise ValueError(f"swap letters must be strings, got {data['swaps']!r}")
        for key in ("qwerty_cost_mm", "best_cost_mm", "per_pct"):
            if not is_finite_number(data[key]):
                raise ValueError(f"{key} must be a finite number, got {data[key]!r}")
        return cls(
            swaps=SwapSet(swaps),
            qwerty_cost_mm=data["qwerty_cost_mm"],
            best_cost_mm=data["best_cost_mm"],
            per_pct=data["per_pct"],
            candidates=data["candidates"],
            mode=data["mode"],
            cumulative=data.get("cumulative", False),
            wall_time_s=data.get("wall_time_s"),
            raw_ordered_pairs=data.get("raw_ordered_pairs"),
            model=_get_model(data),
            geometry=GeometrySpec.from_json_dict(data["geometry"]) if "geometry" in data else DEFAULT_SPEC,
        )


# ---------------------------------------------------------------------------
# candidate streams (depend only on the 26-letter alphabet)

# pair p is the unordered letter pair (_U[p], _V[p]), _U[p] < _V[p], in
# lexicographic order; _PAIR_IDX[a, b] == _PAIR_IDX[b, a] is its index
_LETTER_PAIRS = tuple(itertools.combinations(LETTERS, 2))
_U, _V = np.triu_indices(_N_LETTERS, 1)
_PAIR_IDX = np.full((_N_LETTERS, _N_LETTERS), -1, dtype=np.intp)
_PAIR_IDX[_U, _V] = _PAIR_IDX[_V, _U] = np.arange(_N_PAIRS)
# _COMPAT[p, q]: pairs p and q share no letter (so p != q)
_COMPAT = (_U[:, None] != _U) & (_U[:, None] != _V) & (_V[:, None] != _U) & (_V[:, None] != _V)
# every disjoint (i, j) with i < j, in canonical order; divmod of the flat
# indices gives contiguous columns, where nonzero gives strided views
_SIZE2 = np.divmod(np.flatnonzero(np.triu(_COMPAT, 1)), _N_PAIRS)


class _Size3Plan(NamedTuple):
    """The rows of a size-3 search, as suffixes of the size-2 rows.

    Row (i, j, k) of the size-3 stream is first pair i followed by size-2
    row (j, k) = (first[r], second[r]) with r >= lo[i], so that j > i.
    first ascends and j has runs[j] rows, so lo[i] = runs[0] + ... +
    runs[i] and that suffix is runs[j] rows of each j > i in turn.
    Of the suffix, i takes the rows with takes[i, j] and takes[i, k]:
    pairs that share no letter with i and, in paper mode, whose larger
    letter is above v[i]. Some first pairs take no row: the last ones,
    whose suffix is empty, and a few whose later pairs all hold a letter
    of i, such as canonical 316-318 and paper 316. The plan depends only
    on the alphabet and the mode.
    """

    first: np.ndarray
    second: np.ndarray
    lo: np.ndarray
    runs: np.ndarray
    takes: np.ndarray
    keep: slice | np.ndarray  # the _SIZE2 rows the plan keeps: first = _SIZE2[0][keep]


def _size3_plan(mode: str) -> _Size3Plan:
    """Rebuilt on each call, in well under a millisecond, so that no copy
    of its arrays outlives a search."""
    first, second = _SIZE2
    takes, keep = _COMPAT, slice(None)
    if mode == "paper":
        keep = _V.take(first) < _V.take(second)
        first, second = first[keep], second[keep]
        takes = takes & (_V[:, None] < _V)
    runs = np.bincount(first, minlength=_N_PAIRS)
    return _Size3Plan(first, second, np.cumsum(runs), runs, takes, keep)


def _candidate_blocks(n: int, mode: str = "canonical"):
    """Yield the rows that one search size scores, as non-empty blocks.

    A block is a tuple of n pair-index arrays; row r is the candidate
    (block[0][r], ..., block[n-1][r]), sorted ascending, which is its
    canonical encoding. The rows of the whole stream ascend in encoding,
    the precondition of _best. Size 3 is one block per first pair i that
    takes a row: the rows of _size3_plan(mode) that i takes, the rows that
    _Size3Kernel.block leaves finite when the tables are finite. Paper
    mode is the size-3 stream filtered to v[i] < v[j] < v[k]: the plan's
    size-2 rows keep v[j] < v[k], and first pair i keeps the rows with
    v[i] < v[j].
    """
    if n == 1:
        yield (np.arange(_N_PAIRS),)
    elif n == 2:
        yield _SIZE2
    else:
        plan = _size3_plan(mode)
        for i in range(_N_PAIRS):
            lo, t = int(plan.lo[i]), plan.takes[i]
            rows = lo + np.flatnonzero(t.take(plan.first[lo:]) & t.take(plan.second[lo:]))
            if rows.size:
                yield np.full(rows.size, i), plan.first.take(rows), plan.second.take(rows)


def _triplet_pairings():
    """Yield the paper's 2,302,300 triplet pairings, one block per first triplet.

    Sorted letter triplet a is paired position by position with every
    later triplet that shares no letter with it, in triplet order. Both
    triplets are sorted, so the pairs' smaller letters, and with them the
    pair indices, ascend: each row is a canonical encoding, and the rows
    of a block ascend. The stream reaches each set of
    _candidate_blocks(3, "paper") once, twice or four times.
    """
    triplets = np.array(list(itertools.combinations(range(_N_LETTERS), 3)))
    masks = np.bitwise_or.reduce(1 << triplets, axis=1)
    for a in range(_N_TRIPLETS):
        later = a + 1 + np.flatnonzero((masks[a + 1 :] & masks[a]) == 0)
        if later.size:
            yield tuple(_PAIR_IDX[triplets[a, c], triplets[later, c]] for c in range(3))


# ---------------------------------------------------------------------------
# delta tables


def _table_inputs(g: KeyboardGeometry, stats: BigramStats, base: Layout, model: EffortModel):
    """The effort tables, the base letter slots, and f and s_in as floats."""
    f = stats.within_word.astype(np.float64)
    s_in = stats.across_space[:, :END].astype(np.float64)
    return effort_tables(g, model), letter_slot_vector(base), f, s_in


def _build_d1(
    g: KeyboardGeometry, stats: BigramStats, base: Layout, base_cost: float, model: EffortModel
) -> np.ndarray:
    """d1[p]: cost change of single swap p.

    d1 repeats delta_cost's floating-point operations for all 325 pairs in
    one batched pass: the seven terms of _affected_terms, each reduced per
    pair in the same order, combined with the same + and -, and finished
    as (base_cost + (new - old)) - base_cost. Every entry is therefore the
    same bits as delta_cost(..., SwapSet((pair,)), ...) - base_cost.
    """
    t, o, f, s_in = _table_inputs(g, stats, base, model)
    row_s = stats.across_space.sum(axis=1)
    dd, gg, sp = t.slot_to_slot, t.space_to_slot, t.slot_to_space

    letters = np.arange(_N_LETTERS)
    moved = np.stack((_U, _V), axis=1)
    mr, mc = moved[:, :, None], moved[:, None, :]
    swapped = o[moved[:, ::-1]]
    new_slots = np.tile(o, (_N_PAIRS, 1))
    new_slots[np.arange(_N_PAIRS)[:, None], moved] = swapped
    # each term's letter block per pair: (moved, any), (any, moved), (moved, moved)
    blocks = ((mr, letters), (letters[:, None], mc), (mr, mc))
    m_at = [m.take(a * _N_LETTERS + b) for m in (f, s_in) for a, b in blocks]

    def affected(slots: np.ndarray, sm: np.ndarray) -> np.ndarray:
        # _affected_terms per pair, for the base slots or one row per pair; each
        # block sums as one C-contiguous row, in the scalar .sum()'s order
        sr, sc = sm[:, :, None], sm[:, None, :]
        slot_blocks = ((sr, slots[..., None, :]), (slots[..., :, None], sc), (sr, sc))
        f_rows, f_cols, f_both, s_rows, s_cols, s_both = (
            (ma * tab.take(sa * _N_LETTERS + sb)).reshape(_N_PAIRS, -1).sum(axis=1)
            for ma, (tab, (sa, sb)) in zip(m_at, itertools.product((dd, gg), slot_blocks))
        )
        space = (row_s[moved] * sp[sm]).sum(axis=1)
        return (((((f_rows + f_cols) - f_both) + s_rows) + s_cols) - s_both) + space

    new = affected(new_slots, swapped)
    return (base_cost + (new - affected(o, o[moved]))) - base_cost


def _build_c2(
    g: KeyboardGeometry, stats: BigramStats, base: Layout, model: EffortModel
) -> tuple[np.ndarray, np.ndarray]:
    """c2[p, q]: cross term of disjoint pairs p and q (0 for the others),
    and c2_rows[r] = c2[p, q] at the size-2 rows (p, q) of _SIZE2.

    c2 sums the eight (letter of p, letter of q) combinations in a fixed
    order, each as f[a, b] * (((e[a', b'] - e[a', b]) - e[a, b']) + e[a, b])
    plus the same with s_in and h, where x' is the partner of x in its
    pair and e, h are dd, gg indexed by the letters' old slots. For p < q,
    key c = 2x + y flattens (letter x of p, letter y of q); combination c
    reads oo, no, on, nn at keys c, c ^ 2, c ^ 1, 3 - c, so the four led by
    p share one gather of e and of h per key, and those led by q read the
    transposed tables at key 2y + x. Rows go in chunks through buffers
    allocated once, gathered into (take with mode="clip" writes straight
    into out; every key is in range) and updated in place. Each row still
    adds the f term, then the s_in term, of each combination, p-led first,
    with the same operations, so c2 keeps its bits.
    """
    t, o, f, s_in = _table_inputs(g, stats, base, model)
    tabs = (f, s_in, t.slot_to_slot.take(o, 0).take(o, 1), t.space_to_slot.take(o, 0).take(o, 1))
    # the tables and the order of the four keys, p-led then q-led
    directions = ((tabs, (0, 1, 2, 3)), (tuple(m.T.copy() for m in tabs), (0, 2, 1, 3)))
    idx_i, idx_j = _SIZE2
    vals = np.zeros(idx_i.shape[0])
    # rows: the four keys and 26 * a leading letter; e and h at each key, a term, m
    ibuf, fbuf = np.empty((5, _C2_CHUNK), dtype=np.intp), np.empty((10, _C2_CHUNK))
    for lo in range(0, idx_i.shape[0], _C2_CHUNK):
        ii, jj, out = idx_i[lo : lo + _C2_CHUNK], idx_j[lo : lo + _C2_CHUNK], vals[lo : lo + _C2_CHUNK]
        k, fb = ibuf[:, : out.shape[0]], fbuf[:, : out.shape[0]]
        term, m_at = fb[8], fb[9]
        for x, lead in enumerate((_U, _V)):
            lead.take(ii, out=k[4], mode="clip")
            k[4] *= _N_LETTERS
            for y, other in enumerate((_U, _V)):
                other.take(jj, out=k[2 * x + y], mode="clip")
                k[2 * x + y] += k[4]
        for (fw, sw, ee, hh), order in directions:
            kk = [k[c] for c in order]
            for c in range(4):
                ee.take(kk[c], out=fb[c], mode="clip")
                hh.take(kk[c], out=fb[4 + c], mode="clip")
            for c in range(4):
                for m, at in ((fw, fb[:4]), (sw, fb[4:8])):
                    np.subtract(at[3 - c], at[c ^ 2], out=term)
                    term -= at[c ^ 1]
                    term += at[c]
                    m.take(kk[c], out=m_at, mode="clip")
                    term *= m_at
                    out += term
    c2 = np.zeros((_N_PAIRS, _N_PAIRS))
    c2[idx_i, idx_j] = c2[idx_j, idx_i] = vals
    return c2, vals


def _best(d1: np.ndarray, c2: np.ndarray | None, block) -> tuple[float, tuple[int, ...]]:
    """Cheapest candidate of one block as (cost delta, encoding).

    Precondition: the block's rows ascend in encoding. argmin returns the
    first minimum, so ties go to the smallest encoding, and comparing the
    returned tuples across blocks and sizes reproduces canonical SwapSet
    order (shorter encodings win on a shared prefix). The sum is always
    associated as ((d1[i] + d1[j]) + c2[i, j]), then + d1[k], + c2[i, k],
    + c2[j, k]; a size-1 block reads no c2, which may then be None. The
    search scores size 3 with _best_size3; this is the reference it is
    tested against.
    """
    i = block[0]
    deltas = d1.take(i)
    if len(block) > 1:
        c2 = c2.ravel()
        j = block[1]
        deltas = (deltas + d1.take(j)) + c2.take(i * _N_PAIRS + j)
    if len(block) > 2:
        k = block[2]
        deltas = ((deltas + d1.take(k)) + c2.take(i * _N_PAIRS + k)) + c2.take(j * _N_PAIRS + k)
    r = int(np.argmin(deltas))
    return float(deltas[r]), tuple(int(col[r]) for col in block)


class _Size3Kernel:
    """Scores the blocks of the size-3 stream from the plan, and bounds them.

    Precondition: d1 and c2 are finite and no row's sum overflows, as
    optimize ensures, and c2_rows is _build_c2's, so that c2jk, its
    values at the plan's rows, is c2[plan.first, plan.second] with no
    2-D gather.
    """

    def __init__(self, d1: np.ndarray, c2: np.ndarray, c2_rows: np.ndarray, plan: _Size3Plan):
        self.d1, self.c2, self.plan = d1, c2, plan
        self.d1k = d1.take(plan.second)
        self.c2jk = c2_rows[plan.keep]

    def block(self, i: int) -> tuple[float, tuple[int, int, int]]:
        """_best of first pair i's block.

        a[j] = (d1[i] + d1[j]) + c2[i, j] holds the first two sums of every
        row (i, j, .), j > i. The suffix lo[i]: is runs[j] rows of each j in
        turn, so repeating a by runs lays a[j] under each of j's rows with
        no gather. Each row then adds d1[k], c2[i, k] and c2[j, k] in that
        order, so a row that i takes gets the same bits as in _best. The
        pairs that i does not take are +inf in a and in the c2[i, k]
        vector, so every row that i takes is finite and every other row is
        exactly +inf. If i takes a row, argmin's first minimum over the
        suffix, which ascends in encoding, is the block's smallest tied
        encoding; if i takes none, the returned delta is exactly +inf. The
        suffix must not be empty.
        """
        d1, c2i, plan = self.d1, self.c2[i], self.plan
        lo, takes = int(plan.lo[i]), plan.takes[i]
        j = slice(i + 1, None)
        deltas = np.repeat(np.where(takes[j], (d1[i] + d1[j]) + c2i[j], np.inf), plan.runs[j])
        deltas += self.d1k[lo:]
        deltas += np.where(takes, c2i, np.inf)[plan.second[lo:]]
        deltas += self.c2jk[lo:]
        r = int(np.argmin(deltas))
        return float(deltas[r]), (i, int(plan.first[lo + r]), int(plan.second[lo + r]))

    def bounds(self) -> np.ndarray:
        """bound[i] = min_j (a[i, j] + r[j]) + min_k c2[i, k], over the
        pairs j and k above i that i takes; +inf where i takes none.

        r[j] is the least d1[k] + c2[j, k] over j's run of plan rows, and
        a[i, j] is block()'s a[j]. All 325 x 325 values of a + r are built
        in place in one array, so the bound adds one such array to the
        search's memory.
        """
        plan = self.plan
        has = plan.runs > 0
        r = np.full(_N_PAIRS, np.inf)
        r[has] = np.minimum.reduceat(self.d1k + self.c2jk, (plan.lo - plan.runs)[has])
        later = np.triu(plan.takes, 1)
        s = np.add.outer(self.d1, self.d1)
        s += self.c2
        s += r
        least_c2ik = np.min(self.c2, axis=1, where=later, initial=np.inf)
        return np.min(s, axis=1, where=later, initial=np.inf) + least_c2ik


def _best_size3(
    d1: np.ndarray, c2: np.ndarray, c2_rows: np.ndarray, plan: _Size3Plan
) -> list[tuple[float, tuple[int, int, int]]]:
    """_best of every block of the size-3 stream that can hold the winner.

    The first pairs with a finite bound are scored in ascending order of
    their bound (ties by first pair), keeping best, the least delta scored
    so far, and the scan stops at the first block whose bound exceeds
    best + tau, with tau = 2**-40 * S and S = 3 * (max|d1| + max|c2|). A
    block whose delta is +inf is dropped.

    Which first pairs are visited. A first pair that takes a row has a
    finite bound, since that row's own terms bound each min; so one whose
    bound is +inf takes no row and has no block. That includes every
    first pair whose suffix is empty: each of its later pairs j has no
    row, so r[j] is +inf. So block() never sees an empty suffix, even
    when tau is inf. A visited pair that takes no row (canonical 316-318,
    paper 316) scores exactly +inf and is dropped, and a pair that takes
    a row scores a finite delta, so the kept blocks are those of
    _candidate_blocks(3, mode) that were scanned.

    Proof that no skipped row computes at or below best. Take any row
    (i, j, k) and its exact sum X of six terms, with |terms| summing to at
    most S. The row's j and k are pairs above i that i takes, and (j, k)
    is a row of j's run, so each min in bound[i] is at most that row's
    term, and rounding is monotone: the computed bound[i] is at most the
    computed ((a[i, j] + (d1[k] + c2[j, k])) + c2[i, k]), a five-addition
    sum of the row's own terms. That sum and the kernel's row are each
    within gamma_5 * S of X (Higham, Accuracy and Stability of Numerical
    Algorithms, section 4.2), so the computed row is at least bound[i] -
    2 * gamma_5 * S, about bound[i] - 10u * S. tau is 8192u * S, far
    above that plus the rounding of best + tau (|best| is about S at
    most), so the block that stops the scan, and every later block,
    whose bound is no smaller, holds only rows that compute strictly
    above best; an equal-cost twin of the winner is always scored.
    optimize takes min over (delta, encoding), so the visiting order
    does not change the winner or its tie-break. All-zero tables give
    tau = 0 and skip nothing. A max that overflows gives tau = inf,
    which skips nothing either.
    """
    kernel = _Size3Kernel(d1, c2, c2_rows, plan)
    bound = kernel.bounds()
    tau = 2.0**-40 * 3 * (max(float(d1.max()), -float(d1.min())) + max(float(c2.max()), -float(c2.min())))
    live = np.flatnonzero(bound < math.inf)
    best, out = math.inf, []
    for i in live[np.argsort(bound[live], kind="stable")].tolist():
        if bound[i] > best + tau:
            break
        delta, idx = kernel.block(i)
        if delta < math.inf:
            out.append((delta, idx))
            best = min(best, delta)
    return out


# ---------------------------------------------------------------------------
# public API


def _check_size(n: int, mode: str, name: str = "n") -> None:
    """Reject a size and mode that no search defines; messages call the size name."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode == "paper" and n != 3:
        raise ValueError(f"triplet mode is defined only for {name}=3")
    if type(n) is not int or n not in (1, 2, 3):
        raise ValueError(f"{name} must be 1, 2 or 3")


def enumerate_swapsets(n: int, mode: str = "canonical"):
    """Yield every candidate SwapSet in deterministic search order.

    Canonical order is lexicographic over canonical encodings within one
    size. Triplet mode yields one (already canonicalized) SwapSet per
    unordered pair of disjoint letter triplets.
    """
    _check_size(n, mode)
    for block in _triplet_pairings() if mode == "paper" else _candidate_blocks(n):
        for row in zip(*([_LETTER_PAIRS[p] for p in col.tolist()] for col in block)):
            yield SwapSet(row)


def swap_count(n: int, mode: str = "canonical") -> int:
    """Closed-form candidate count for one search size."""
    _check_size(n, mode)
    if mode == "paper":
        return _N_TRIPLETS * math.comb(23, 3) // 2
    total = 1
    for k in range(n):
        total *= math.comb(26 - 2 * k, 2)
    return total // math.factorial(n)


def _raising():
    """The non-finite cost policy: numpy overflow and invalid values raise."""
    return np.errstate(over="raise", invalid="raise")


def optimize(g: KeyboardGeometry, stats: BigramStats, cfg: SearchConfig = SearchConfig()) -> OptimizationResult:
    """Search swap sets exactly and return the cheapest layout.

    Ties are broken toward the lexicographically smallest canonical
    encoding. The winning cost is recomputed from scratch before being
    reported. Costs that are not finite on this corpus and geometry
    raise ValueError.
    """
    if stats.is_empty:
        raise ValueError("cannot optimize over empty bigram stats")
    t0 = time.perf_counter()
    base = qwerty_layout()
    try:
        with _raising():
            base_cost = stats_cost(g, base, stats, cfg.model)
            if not base_cost > 0.0:
                raise ValueError("base layout cost is zero; improvement rate is undefined")
            # stats_cost and per add in Python floats, which overflow without raising
            if not math.isfinite(base_cost):
                raise FloatingPointError("overflow in the base layout cost")

            if cfg.mode == "paper":
                sizes, raw_pairs = (3,), _N_TRIPLETS * (_N_TRIPLETS - 1)
            else:
                n = cfg.n_swap_pairs
                sizes, raw_pairs = (range(1, n + 1) if cfg.cumulative else (n,)), None
            d1 = _build_d1(g, stats, base, base_cost, cfg.model)
            c2, c2_rows = _build_c2(g, stats, base, cfg.model) if max(sizes) > 1 else (None, None)
            # a cumulative search also considers size 0, the stock layout
            found = [(0.0, ())] if cfg.cumulative else []
            candidates = len(found) + sum(swap_count(size, cfg.mode) for size in sizes)
            for size in sizes:
                if size == 3:
                    found.extend(_best_size3(d1, c2, c2_rows, _size3_plan(cfg.mode)))
                else:
                    found.extend(_best(d1, c2, block) for block in _candidate_blocks(size, cfg.mode))

            _, idx = min(found)
            swaps = SwapSet(tuple(_LETTER_PAIRS[p] for p in idx))
            best_cost = stats_cost(g, apply_swaps(base, swaps), stats, cfg.model)
            per_pct = per(base_cost, best_cost)
            if not (math.isfinite(best_cost) and math.isfinite(per_pct)):
                raise FloatingPointError("overflow in the best layout cost or the improvement rate")
    except FloatingPointError as exc:
        raise ValueError(f"layout costs are not finite on this corpus and geometry ({exc})") from None
    return OptimizationResult(
        swaps=swaps,
        qwerty_cost_mm=base_cost,
        best_cost_mm=best_cost,
        per_pct=per_pct,
        candidates=candidates,
        mode=cfg.mode,
        cumulative=cfg.cumulative,
        wall_time_s=time.perf_counter() - t0,
        raw_ordered_pairs=raw_pairs,
        model=cfg.model,
        geometry=g.spec,
    )


def verify_result(
    g: KeyboardGeometry,
    stats: BigramStats,
    result: OptimizationResult,
    model: EffortModel | None = None,
) -> bool:
    """Recompute both costs from scratch and audit the stored result.

    The costs are recomputed under ``model``, by default the model the
    result records, and under optimize's rule for non-finite costs: a
    cost or improvement rate that is not finite does not verify.
    """
    if not result.swaps.is_canonical():
        return False
    model = result.model if model is None else model
    base = qwerty_layout()
    try:
        with _raising():
            q = stats_cost(g, base, stats, model)
            b = stats_cost(g, apply_swaps(base, result.swaps), stats, model)
    except FloatingPointError:
        return False
    if not (q > 0.0 and math.isfinite(q) and math.isfinite(b)):
        return False
    p = per(q, b)
    return (
        math.isfinite(p)
        and math.isclose(q, result.qwerty_cost_mm, rel_tol=VERIFY_REL_TOL, abs_tol=0.0)
        and math.isclose(b, result.best_cost_mm, rel_tol=VERIFY_REL_TOL, abs_tol=0.0)
        and math.isclose(p, result.per_pct, rel_tol=VERIFY_REL_TOL, abs_tol=1e-12)
    )
