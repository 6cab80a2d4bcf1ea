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

Cost is a sum over letter pairs, so the change from applying disjoint
transpositions p1..pn is exactly the per-transposition deltas d1[p] plus
the pairwise cross terms c2[p, q]. The search builds them once per
search, from effort's _cost_inputs, which also give its base cost:
_build_d1 from first differences of the bigram and effort tables, a
vector of 325, and, for sizes above 1, _build_c2 from second
differences, a vector of one c2[p, q] per size-2 row (p, q), p < q, the
only entries the search reads. One gather, _second_differences, gives
every second difference of both halves of c2, at (p, q) and (q, p). The
half that depends only on the geometry, the model and the base layout is
built once per process, in one unchunked pass, and cached
(_c2_geometry). Each size has one candidate stream,
_candidate_blocks(n, mode). Sizes 1 and 2 keep their band with
_band_rows, and size 3 with _best_size3 over the rows of
_size3_plan(mode): every row whose table delta is within band of the
least, where band = 2 * eps and eps bounds |table row - (layout
cost(row) - base cost)| for every row (_band_width holds the proof).
_rescore then scores each band with the layout cost itself, in
stats_cost's arithmetic, once per class of rows that move the corpus's
letters alike, and takes the least (cost, encoding). The winner, its
tie-break toward the smallest canonical encoding and the reported best
cost are therefore those of scoring every row with stats_cost, bit for
bit. _triplet_pairings is kept only as the reference stream of
enumerate_swapsets(3, "paper") and of the tests.

The size-3 search does not score every row. A minimum over each run of
plan rows gives two vectors per pair p: r[p], the least d1[k] + c2[p,
k], and m[p], the least c2[p, k], over p's run of size-2 rows (p, k).
First pair i takes k exactly when (i, k) is a plan row, so the same two
vectors bound i's own c2[i, .] terms. A row (i, j, k) is then at least
a[i, j] + max(r[j] + m[i], r[i] + m[j]) =: lb(i, j), with a[i, j] =
(d1[i] + d1[j]) + c2[i, j], the bound of run j of block i, and every row
of block i is at least d1[i] + max((r[i] + m[i]) + min_{j>i} r[j], (r[i]
+ r[i]) + min_{j>i} m[j]), the bound of the block (bounds of the
Gilmore-Lawler kind for this restricted quadratic assignment problem).
The run of least lb in the block of least bound is scored first; it
gives best, the least delta so far, and the cut (best + band) + tau,
with tau = 2**-40 * (3 * (max|d1| + max|c2|) + band) far more than the
rounding of any row, bound or cut. Of the blocks whose bound is within
the cut, every run with lb(i, j) within it is then scored by one gather,
the only scorer of the scan, in plan order and in chunks, each chunk's
runs cut again by the cut of the moment, which falls as best does.
_best_size3 holds the proof. So every row of the band is either scored
or shown to cost strictly more than best + band.

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
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .effort import (
    DISTANCE_MODEL, EffortModel, _CostInputs, _cost_inputs, _layout_cost, _layout_costs, per, stats_cost
)
from .geometry import (
    DEFAULT_SPEC,
    LETTERS,
    GeometrySpec,
    KeyboardGeometry,
    SwapSet,
    apply_swaps,
    is_finite_number,
    qwerty_layout,
)
from .stats import BigramStats

MODES = ("canonical", "paper")

_N_LETTERS = 26
_N_PAIRS = 325  # C(26, 2)
_N_TRIPLETS = 2600  # C(26, 3)

# layouts per pass of _rescore, so that a wide band's temporaries stay small
_LAYOUTS = 64
# runs per pass of _best_size3's gather, for the same reason: a run holds
# at most 276 rows
_RUNS = 64
# size-2 rows per pass of _build_c2, so that each pass's four columns
# of 8-byte values stay under 128 KiB, glibc's default mmap threshold
_ROWS = 4000

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
    scored: the size-3 search scores only the runs of rows that its
    bounds do not prove too costly.
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
# flat indices of (p, u_p) and (p, v_p) in a (325, 26) array of pair rows
_OWN_U, _OWN_V = (np.arange(_N_PAIRS) * _N_LETTERS + w for w in (_U, _V))
# _LATER[p, q]: q > p and shares no letter with p
_LATER = np.triu(_COMPAT, 1)
# every disjoint (i, j) with i < j, in canonical order; divmod of the flat
# indices gives contiguous columns, where nonzero gives strided views
_SIZE2 = np.divmod(np.flatnonzero(_LATER), _N_PAIRS)
# flat indices of (i, w_j) and (j, w_i) in a (325, 26) array of pair rows,
# for every size-2 row (i, j), at w = u and w = v; filled a column at a
# time, as whole-array temporaries would stay on the heap after import
_AT_U, _AT_V = (np.empty((_SIZE2[0].size, 2), dtype=np.intp) for _ in range(2))
for _at, _w in ((_AT_U, _U), (_AT_V, _V)):
    for _c, (_p, _q) in enumerate((_SIZE2, _SIZE2[::-1])):
        np.add(_p * _N_LETTERS, _w.take(_q), out=_at[:, _c])
del _at, _w, _c, _p, _q


class _Size3Plan(NamedTuple):
    """The rows of a size-3 search, as suffixes of the size-2 rows.

    Row (i, j, k) of the size-3 stream is first pair i followed by size-2
    row (j, k) = (first[r], second[r]) with r >= lo[i], so that j > i.
    first ascends and j has runs[j] rows, so lo[i] = runs[0] + ... +
    runs[i], j's run is rows lo[j] - runs[j] to lo[j], and the suffix
    lo[i]: is the run of each j > i in turn. i takes pair q when (i, q)
    is a plan row: q is above i, shares no letter with i and, in paper
    mode, has its larger letter above v[i]. takes[i, q] is then that
    plan row, and elsewhere it is the count of plan rows, one past the
    last. Of its suffix, i takes the rows (j, k) where it takes j and k,
    since both are above i. Some first pairs take no row: the last ones,
    whose suffix is empty, and a few whose later pairs all hold a letter
    of i, such as canonical 316-318 and paper 316. size2[r] marks the
    size-2 rows r of _SIZE2 that are plan rows, so c2 at the plan's rows
    is c2[size2]. The plan depends only on the alphabet and the mode.
    """

    first: np.ndarray
    second: np.ndarray
    lo: np.ndarray
    runs: np.ndarray
    takes: np.ndarray
    size2: np.ndarray


@lru_cache(maxsize=len(MODES))
def _size3_plan(mode: str) -> _Size3Plan:
    """Built on the first call for each mode and kept for the process, so
    importing the package builds none; its arrays are read-only, as every
    search shares them. A mask of the pairs (i, q) that i takes has the
    plan rows as its flat indices and runs as its row counts; a
    canonical plan's mask is _LATER itself, whose flat indices are
    _SIZE2. The mask lies within _LATER, so its entries at _LATER's
    marks, in flat order, are size2."""
    mask = _LATER & (_V[:, None] < _V) if mode == "paper" else _LATER
    rows = np.flatnonzero(mask)
    first, second = np.divmod(rows, _N_PAIRS) if mode == "paper" else _SIZE2
    runs = np.count_nonzero(mask, axis=1)
    takes = np.full(_N_PAIRS * _N_PAIRS, rows.shape[0], dtype=np.int32)
    takes[rows] = np.arange(rows.shape[0])
    plan = _Size3Plan(first, second, np.cumsum(runs), runs, takes.reshape(_N_PAIRS, _N_PAIRS), mask[_LATER])
    for a in plan:
        a.flags.writeable = False
    return plan


def _candidate_blocks(n: int, mode: str = "canonical"):
    """Yield the rows that one search size scores, as non-empty blocks.

    A block is a tuple of n pair-index arrays; row r is the candidate
    (block[0][r], ..., block[n-1][r]), sorted ascending, which is its
    canonical encoding. The rows of the whole stream ascend in encoding,
    and so do the rows of each band, the precondition of _rescore. Size 3
    is one block per first pair i that takes a row: the rows of
    _size3_plan(mode) that i takes, which _Size3Kernel scores by runs,
    with finite deltas when the tables are finite; it gives the other rows
    of a run +inf. Paper mode is the size-3
    stream filtered to v[i] < v[j] < v[k]: the plan's size-2 rows keep
    v[j] < v[k], and first pair i keeps the rows with v[i] < v[j].
    """
    if n == 1:
        yield (np.arange(_N_PAIRS),)
    elif n == 2:
        yield _SIZE2
    else:
        plan = _size3_plan(mode)
        for i in range(_N_PAIRS):
            lo, t = int(plan.lo[i]), plan.takes[i] < plan.first.shape[0]
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


def _first_difference(m: np.ndarray) -> np.ndarray:
    """(P m)[p] = m[u_p] - m[v_p], for a letter vector or the rows of a letter
    table; P is the 325 x 26 matrix whose row p is e_u - e_v."""
    return m.take(_U, 0) - m.take(_V, 0)


def _build_d1(x: _CostInputs) -> np.ndarray:
    """d1[p]: cost change of single swap p = (u, v), from first differences.

    Swapping u and v changes a cost entry m[a, b] * e[a, b] only if a or
    b is u or v. Had only rows u and v moved, their entries would change
    by -sum_k (P m)[p, k] * (P e)[p, k], and had only columns u and v
    moved, by the same with m^T and e^T; the 2 x 2 block where both moved
    is then off by (P m P^T)[p, p] * (P e P^T)[p, p]. So d1 is, over (m,
    e) = (f, e) and (s_in, h), the sum of those three parts, minus (P
    row_s)[p] * (P sp)[p] for the space after each letter. Its bits are
    not those of the change in layout cost, which delta_cost adds:
    _band_width bounds how far a row of the tables is from that change.
    """
    d1 = -(_first_difference(x.row_s) * _first_difference(x.sp))
    for m, e in ((x.f, x.e), (x.s_in, x.h)):
        pm, pe = _first_difference(m), _first_difference(e)
        d1 -= np.einsum("pk,pk->p", pm, pe)
        d1 -= np.einsum("pk,pk->p", _first_difference(m.T), _first_difference(e.T))
        # (P m P^T)[p, p] = (P m)[p, u_p] - (P m)[p, v_p]
        d1 += (pm.take(_OWN_U) - pm.take(_OWN_V)) * (pe.take(_OWN_U) - pe.take(_OWN_V))
    return d1


def _second_differences(pm: np.ndarray, rows) -> np.ndarray:
    """X2(i, j) of each table, then X2(j, i) of each table, at the size-2
    rows (i, j) of _SIZE2[rows], where X2(p, q) = (P x)[p, u_q] - (P x)[p,
    v_q] is the second difference (P x P^T)[p, q] of table x.

    pm holds (P x) of each table side by side, one row per (pair, letter)
    in the flat order of a (325, 26) array of pair rows. One gather at
    _AT_U and one at _AT_V give every such difference of every table.
    """
    d = pm.take(_AT_U[rows], 0)
    d -= pm.take(_AT_V[rows], 0)
    return d.reshape(-1, 2 * pm.shape[1])


@lru_cache(maxsize=4)
def _c2_geometry(eh: bytes) -> np.ndarray:
    """The half of c2 that a corpus does not change, for the effort tables
    e and h whose float64 bytes eh holds, one after the other.

    Row r, for size-2 row (i, j) of _SIZE2, is E2(i, j), H2(i, j), E2(j,
    i) and H2(j, i), from one _second_differences over every row: each
    entry is the same two subtractions of the same operands as in the full
    table (P e P^T, P h P^T), so it has that table's bits. 44,850 x 4
    values, 1.4 MB, read-only. The cache is keyed by the bytes of e and h,
    the only inputs of these values, so an entry can never serve another
    geometry, model or base layout; a search computes it under optimize's
    raising errstate, and one that raises leaves no entry.

    The fill is one unchunked gather on purpose: it frees one 1.4 MB
    temporary, glibc's malloc then raises its mmap threshold to its
    size, and the smaller arrays of later searches are served from its
    heap and reused, not mapped afresh and faulted in page by page. With
    a chunked fill, every later size-3 search faulted 400-700 times;
    test_later_searches_take_next_to_no_page_faults pins this.
    """
    tables = np.frombuffer(eh).reshape(2, _N_LETTERS, _N_LETTERS)
    half = _second_differences(_first_difference(np.stack(tables, axis=-1)).reshape(-1, 2), slice(None))
    half.flags.writeable = False
    return half


def _build_c2(x: _CostInputs) -> np.ndarray:
    """c2[r]: cross term of size-2 row r = (i, j) of _SIZE2, from second differences.

    Swapping disjoint pairs i and j together changes the cost by d1[i] +
    d1[j] + c2[r]. The entries m[a, b] with a in i and b in j contribute,
    in exact arithmetic, sum over those four (a, b) of m[a, b] * (((e[a',
    b'] - e[a', b]) - e[a, b']) + e[a, b]), x' being the partner of x in
    its pair, which factors into (P m P^T)[i, j] * (P e P^T)[i, j]. With
    G = (P e P^T) o (P f P^T) + (P h P^T) o (P s_in P^T), the cross term
    is G[i, j] + G[j, i], the entries with b in i and a in j giving G[j,
    i]. Only these 44,850 rows are built: the search reads no other pairs.

    The second differences of e and h depend only on the geometry, the
    model and the base layout, and come from the cache _c2_geometry.
    Those of f and s_in come from the same _second_differences, a few
    thousand rows at a time, in the same column order: F2(i, j), S2(i, j),
    F2(j, i), S2(j, i). Counts are integers far below 2**51, so every such
    difference is exact, and its bits do not depend on how it is
    associated. Each product, sum and G[i, j] + G[j, i] is one operation
    on the same operands as in the full table G^T + G, so c2 has that
    table's bits at every size-2 row. They are not those of summing the
    eight (letter of i, letter of j) combinations in turn: _band_width
    bounds how far a row of the tables is from the change in layout cost.
    """
    geometry = _c2_geometry(x.e.tobytes() + x.h.tobytes())
    counts = _first_difference(np.stack((x.f, x.s_in), axis=-1)).reshape(-1, 2)
    c2 = np.empty(geometry.shape[0])
    for lo in range(0, c2.shape[0], _ROWS):
        rows = slice(lo, lo + _ROWS)
        d = _second_differences(counts, rows)
        d *= geometry[rows]
        # G[i, j] + G[j, i]
        np.add(d[:, 0] + d[:, 1], d[:, 2] + d[:, 3], out=c2[rows])
    return c2


def _band_width(x: _CostInputs, base_cost: float) -> float:
    """band = 2 * eps, with eps a bound on |fast row - (layout cost(row) -
    base_cost)| for every row.

    A row's fast delta sums at most three d1 and three c2 entries of the
    fast tables (_build_d1, _build_c2) in five additions. Its layout cost
    is _layout_cost of its layout, as _rescore computes it, and base_cost
    is _layout_cost of x's. Let u = 2**-53 and gamma_n = n * u / (1 - n *
    u); any order of summing n terms errs by at most gamma_{n-1} times the
    sum of their magnitudes (Higham, Accuracy and Stability of Numerical
    Algorithms, sections 3.1 and 4.2; no underflow). Let M_e, M_h and M_sp
    be the largest magnitudes of e, h and sp, every count being >= 0, and
    Phi = M_e * sum(f) + M_h * sum(s_in) + M_sp * sum(row_s); as a layout
    is a bijection onto the letter slots, e, h and sp permute
    slot_to_slot, space_to_slot and slot_to_space, and have their maxima,
    in every layout. The bound is built from these magnitudes, not from
    c2: c2 entries can cancel to a rounding residue of much larger terms.

    True terms. A count f[a, b] enters the d1 of the pairs holding a or
    b, at most two pairs of a row, each time times a difference of two e
    entries, and row_s[a] enters one; so a row's true d1 sum to at most
    4 Phi in magnitude. f[a, b] enters at most one of the row's c2, that
    of a's pair and b's pair, times four e entries: the true c2 sum to at
    most 4 Phi. Their exact sum D is the exact cost of the row's layout
    minus the exact cost of x's.

    Layout costs. _layout_cost rounds each of 676 products of f and e,
    676 of s_in and h and 26 of row_s and sp once, sums each set, and adds
    the three sums in two additions: it errs by at most about gamma_676
    Phi + 2u Phi = 678u Phi, for x's layout and the row's alike. So the
    layout cost(row) - base_cost, taken exactly, is within about 1356u Phi
    of D.

    Fast tables. A _build_d1 entry adds the space product, four row sums
    of 26 products of one-subtraction differences and two corner
    products, in six additions: gamma_34 * 8 Phi_p, Phi_p the part of Phi
    that pair p touches, so 16 gamma_34 Phi over a row, as the Phi_p of a
    row's pairs sum to at most 2 Phi. A _build_c2 entry, G[i, j] + G[j,
    i], adds two sums of two products of two-subtraction differences, of
    which those of the counts are exact: 4 gamma_7 Phi over a row.
    Summing the row, five additions of terms of at most about 8 Phi err
    by about 40u Phi. So the fast row is within
    about 612u Phi of D.

    So |fast row - (layout cost(row) - base_cost)| is below about 1968u
    Phi, and eps = 2**-41 * (Phi + |base_cost|) = 4096u * (Phi +
    |base_cost|) exceeds that, with the second-order terms and the
    rounding of best + band (about u * (8 Phi + band)), by more than
    twice. Let best be the least fast delta and W the row of least layout
    cost: for every row R, taking the differences exactly, fast(W) <=
    (cost(W) - base_cost) + eps <= (cost(R) - base_cost) + eps <= fast(R)
    + 2 eps, so fast(W) <= best + band, and the same holds for every row
    whose cost ties W's. The rows whose fast delta is at most best + band
    therefore hold the least layout cost and its tie-break. The
    magnitudes are scaled by 2**-41 before they are multiplied and
    summed, so the width is finite wherever the costs are.
    """
    scale = 2.0**-41
    m_e, m_h, m_sp = (scale * float(np.abs(t).max()) for t in (x.e, x.h, x.sp))
    phi = m_e * float(x.f.sum()) + m_h * float(x.s_in.sum()) + m_sp * float(x.row_s.sum())
    return 2.0 * (phi + scale * abs(base_cost))


def _rescore(x: _CostInputs, bands: list[tuple[np.ndarray, ...]]) -> list[tuple[float, tuple]]:
    """The least (cost, encoding) of each band, whose rows ascend in
    encoding, with cost the cost of the row's layout itself, with
    stats_cost's bits (effort._layout_costs).

    Rows with the same live pairs, the pairs that move a letter with a
    nonzero count, are scored once. A letter of any other pair has only
    zero counts, so each of its products is a zero count times a finite
    table entry (the base cost has already raised on any other), +0.0 or
    -0.0, and adding a signed zero changes no sum that holds a nonzero
    term: every partial sum, and so the cost, has the same value on all
    rows with the same live pairs. A letter is used where its row or
    column of f, its column of s_in or its row_s is nonzero; row_s sums
    the letter's whole across-space row, so it covers the rows of s_in.
    Each row is keyed in one pass over its columns, as base-326 digits:
    the pair itself where it is live, _N_PAIRS where it is dead. Rows with
    one key hold the same live pairs in the same columns, so their costs
    have the same bits. A key never joins rows whose live pairs differ; it
    splits rows with the same live pairs only where those sit in different
    columns, and each part is then scored once. The first row of each key
    has the smallest encoding of the key, so the first least cost among
    the kept rows, which ascend, is the least (cost, encoding) of the
    band, with that row's own bits. A 1-row band is scored as it is.
    """
    used = x.f.any(0) | x.f.any(1) | x.s_in.any(0) | (x.row_s > 0)
    live = used.take(_U) | used.take(_V)
    found = []
    for rows in bands:
        if rows[0].shape[0] > 1:
            key = 0
            for col in rows:
                key = key * (_N_PAIRS + 1) + np.where(live.take(col), col, _N_PAIRS)
            first = np.sort(np.unique(key, return_index=True)[1])
            rows = tuple(col.take(first) for col in rows)
        costs = []
        for lo in range(0, rows[0].shape[0], _LAYOUTS):
            pairs = np.stack([col[lo : lo + _LAYOUTS] for col in rows], axis=1)
            costs.append(_layout_costs(x, _U.take(pairs), _V.take(pairs)))
        costs = np.concatenate(costs)
        r = int(np.argmin(costs))
        found.append((float(costs[r]), tuple(int(col[r]) for col in rows)))
    return found


def _row_deltas(d1: np.ndarray, c2: np.ndarray | None, block) -> np.ndarray:
    """The cost delta of each row of a block, the reference that the
    search's sums are tested against.

    c2 is the symmetric 325 x 325 table of cross terms, +0.0 where two
    pairs share a letter: _build_c2's rows, each at [i, j] and [j, i].
    The sum is always associated as ((d1[i] + d1[j]) + c2[i, j]), then
    + d1[k], + c2[i, k], + c2[j, k]; a size-1 block reads no c2, which may
    then be None.
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
    return deltas


def _best(d1: np.ndarray, c2: np.ndarray | None, block) -> tuple[float, tuple[int, ...]]:
    """Cheapest candidate of one block as (cost delta, encoding).

    Precondition: the block's rows ascend in encoding. argmin returns the
    first minimum, so ties go to the smallest encoding, and comparing the
    returned tuples across blocks and sizes reproduces canonical SwapSet
    order (shorter encodings win on a shared prefix). The search does not
    call it: it is the reference, over _row_deltas' table, that the
    size-3 scan is tested against.
    """
    deltas = _row_deltas(d1, c2, block)
    r = int(np.argmin(deltas))
    return float(deltas[r]), tuple(int(col[r]) for col in block)


def _band_rows(deltas: np.ndarray, block, band: float) -> tuple[np.ndarray, ...]:
    """The rows of a block whose delta is at most the least one + band, in block order."""
    keep = np.flatnonzero(deltas <= deltas.min() + band)
    return tuple(col.take(keep) for col in block)


def _run_rows(plan: _Size3Plan, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row count of each pair's run, and the plan rows of the runs, in
    the order of pairs."""
    n = plan.runs.take(pairs)
    # run j is rows lo[j] - n to lo[j], after the n of the runs before it
    return n, np.repeat(plan.lo.take(pairs) - np.cumsum(n), n) + np.arange(n.sum())


class _Size3Kernel:
    """Scores the rows of the size-3 stream from the plan, and bounds them.

    It reads the fast tables of _build_d1 and _build_c2: _best_size3 keeps
    from the rows it scores those within the band, which _rescore scores
    again with the layout cost itself, and skips the blocks and runs whose
    bound proves every row above the band. Precondition: d1 and c2 are
    finite and no row's sum overflows, as optimize ensures. d1k and c2jk,
    the values of d1[k] and c2[j, k] at the plan's rows (j, k), are taken
    once here, only for a size-3 search: a canonical plan's rows are the
    size-2 rows, so c2jk holds c2, and a paper plan's hold c2 at its
    size2 rows. One +inf follows them, one past the last plan row, where
    takes points for the pairs that a first pair does not take. So
    c2jk[takes[i, q]] is c2[i, q] where i takes q, as (i, q) is then a
    plan row, and +inf elsewhere. a holds a[i, j] = (d1[i] + d1[j]) +
    c2[i, j] at each plan row (i, j), which lb and gather both read. A
    minimum.reduceat over each of d1k + c2jk and c2jk gives r[p] and
    m[p], the least d1[k] + c2[p, k] and the least c2[p, k] over pair p's
    run, +inf where the run is empty.
    """

    def __init__(self, d1: np.ndarray, c2: np.ndarray, plan: _Size3Plan):
        self.d1, self.plan = d1, plan
        self.d1k = d1.take(plan.second)
        self.c2jk = np.append(c2 if plan.first.shape[0] == c2.shape[0] else c2[plan.size2], math.inf)
        # first ascends in runs, so d1 repeated runs times is d1 at first
        self.a = (np.repeat(d1, plan.runs) + self.d1k) + self.c2jk[:-1]
        has = plan.runs > 0
        starts = (plan.lo - plan.runs)[has]
        self.r, self.m = np.full((2, _N_PAIRS), np.inf)
        self.r[has] = np.minimum.reduceat(self.d1k + self.c2jk[:-1], starts)
        self.m[has] = np.minimum.reduceat(self.c2jk[:-1], starts)

    def block_bounds(self) -> np.ndarray:
        """bound[i] = d1[i] + max((r[i] + m[i]) + min_{j>i} r[j], (r[i] +
        r[i]) + min_{j>i} m[j]), +inf only where i takes no row;
        _best_size3 proves it bounds block i."""
        r, m = self.r, self.m
        later = np.full((2, _N_PAIRS), np.inf)
        later[:, :-1] = np.minimum.accumulate(np.stack((r, m))[:, :0:-1], axis=1)[:, ::-1]
        return self.d1 + np.maximum((r + m) + later[0], (r + r) + later[1])

    def lb(self, firsts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The runs of first pairs firsts, as their plan rows at = (i, j)
        in the order of firsts, and lb(i, j) = a[i, j] + max(m[i] + r[j],
        r[i] + m[j]) of each. i's runs j are the pairs that i takes, its
        own run of plan rows."""
        plan, r, m = self.plan, self.r, self.m
        at = _run_rows(plan, firsts)[1]
        i, j = plan.first.take(at), plan.second.take(at)
        return at, self.a.take(at) + np.maximum(m.take(i) + r.take(j), r.take(i) + m.take(j))

    def gather(self, at: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows (i, j, k) of the runs at = (i, j), plan rows, as first
        pair i and plan row (j, k) of each, and their deltas.

        Run (i, j) is i followed by j's run of plan rows, in the order of
        at. Each row adds to a[i, j], finite as i takes j, the terms d1[k],
        c2[i, k] and c2[j, k] in that order, so a row that i takes gets the
        bits of _row_deltas. c2[i, k] is read at takes[i, k], which is +inf
        where i does not take k, so every other row is exactly +inf. A run
        whose j's run is empty adds no row.
        """
        plan, c2jk = self.plan, self.c2jk
        n, rows = _run_rows(plan, plan.second.take(at))
        i = np.repeat(plan.first.take(at), n)
        deltas = np.repeat(self.a.take(at), n)
        deltas += self.d1k.take(rows)
        deltas += c2jk.take(plan.takes.ravel().take(i * _N_PAIRS + plan.second.take(rows)))
        deltas += c2jk.take(rows)
        return i, rows, deltas


def _bands(x: _CostInputs, base_cost: float, sizes, mode: str) -> list[tuple[np.ndarray, ...]]:
    """The band of each search size under the fast tables, which are
    dropped on return; a size-1 search builds no c2. Each size-2 row's
    delta is (d1[i] + d1[j]) + c2[r], with c2 read as it is built."""
    band = _band_width(x, base_cost)
    d1 = _build_d1(x)
    c2 = _build_c2(x) if max(sizes) > 1 else None
    bands = []
    for size in sizes:
        if size == 1:
            bands.append(_band_rows(d1, (np.arange(_N_PAIRS),), band))
        elif size == 2:
            i, j = _SIZE2
            bands.append(_band_rows((d1.take(i) + d1.take(j)) + c2, _SIZE2, band))
        else:
            bands.append(_best_size3(d1, c2, _size3_plan(mode), band))
    return bands


def _best_size3(d1: np.ndarray, c2: np.ndarray, plan: _Size3Plan, band: float) -> tuple[np.ndarray, ...]:
    """The band of the size-3 stream: every row whose delta is at most
    best + band, best the least delta of the stream, ascending in encoding.

    The scan. Block i is first pair i's rows, bound[i] its block bound
    (block_bounds) and lb(i, j) the bound of its run j (lb). gather() is
    the only scorer. It first scores the seed run, the run of least lb in
    the block of least finite bound (the first on ties of each). That
    sets best, the least delta scored so far, and the cut (best + band) +
    tau, with tau = 2**-40 * (S + band) and S = 3 * (max|d1| + max|c2|),
    the max over c2's size-2 rows, which hold every cross term of every
    row. The runs of every first pair whose bound is within that cut, the
    seed's included, are bounded as one flat vector, and those whose lb is
    within it are scored by gather(), in plan order, in chunks of _RUNS
    runs; before each chunk the cut of the moment, which falls as best
    does, is applied again. The seed run is scored again at its place, so
    the kept rows ascend with no sort. Rows kept before best fell are cut
    to the final best + band at the end, by _band_rows: the row that set
    best is kept in its chunk, so the least kept delta is the final best.

    Why the bounds hold, in exact arithmetic. Take a row (i, j, k). Its
    size-2 parts (i, j) and (i, k) are rows of i's run, as i takes j and
    k exactly when those are plan rows: so the minima of i's run, which
    bound i's d1[k] + c2[i, k] and c2[i, k] where i is a second pair,
    bound the same terms where i is first, and one pair of vectors r, m
    serves both places. With (j, k) a row of j's run, d1[j] + c2[i, j],
    d1[k] + c2[i, k] >= r[i], c2[i, k] >= m[i], d1[k] + c2[j, k] >= r[j]
    and c2[j, k] >= m[j]. Grouping the six terms as a[i, j] + (d1[k] +
    c2[j, k]) + c2[i, k] or as a[i, j] + (d1[k] + c2[i, k]) + c2[j, k]
    gives lb's two options, and as d1[i] + (d1[j] + c2[i, j]) + (d1[k] +
    c2[j, k]) + c2[i, k] or d1[i] + (d1[j] + c2[i, j]) + (d1[k] + c2[i,
    k]) + c2[j, k] the block bound's two, as min_{j>i} r[j] <= r[j] and
    min_{j>i} m[j] <= m[j]. Each bound is the max of two such sums, so
    the row is at least either.

    Which first pairs are scored. A first pair that takes a row (i, j,
    k) has finite r[i], m[i], r[j] and m[j], so a finite bound; one whose
    bound is +inf takes no row and has no block. That includes every
    first pair whose suffix is empty, since each later pair has an empty
    run. So the seed block has at least one run, even when tau is inf.
    Which bounds are finite depends only on the plan: the first pairs of
    finite bound that take no row are canonical 315-320 and 25 paper
    ones, and one of them can seed the scan. Its runs then hold only
    rows of +inf, or no row where j's run is empty, which makes lb +inf.
    The seed run's least delta is taken from +inf, so best stays +inf,
    the cut is +inf, and every run of every block of finite bound is
    gathered until a finite delta sets best. Rows kept while best is +inf
    are +inf, and the final cut drops them, as the stream holds a finite
    row.

    Proof that no skipped row computes at or below best + band. Let X be
    a row's exact sum of six terms, with |terms| summing to at most S.
    Each bound of the row is computed in five additions, and a max, from
    six operands, each at most the computed term or two-term sum of the
    row that it bounds; rounding is monotone, so the computed bound is at
    most the same five additions over the row's own terms, such as
    ((d1[i] + d1[j]) + c2[i, j]) + ((d1[k] + c2[j, k]) + c2[i, k]). That
    sum and the kernel's row are each within gamma_5 * S of X (Higham,
    Accuracy and Stability of Numerical Algorithms, section 4.2), so the
    computed row is at least the computed bound - 2 * gamma_5 * S, about
    bound - 10u * S. The two roundings of (best + band) + tau are at most
    u * (|best| + band + tau) each, with |best| about S at most, and tau
    is 8192u * (S + band), far above their sum plus 10u * S. So a block
    whose bound exceeds the first cut, and a run whose lb exceeds the cut
    applied before its chunk, hold only rows that compute strictly above
    best + band at that moment; best only falls, so each cut is at least
    the final one, and they compute above the final best + band. The
    band is then complete, and with _band_width's eps the row of least
    layout cost and its tie-break are among its rows. All-zero tables
    with a zero band give tau = 0 and skip nothing; a max that overflows
    gives tau = inf, which skips nothing either.
    """
    kernel = _Size3Kernel(d1, c2, plan)
    s = 3 * (max(float(d1.max()), -float(d1.min())) + max(float(c2.max()), -float(c2.min())))
    tau = 2.0**-40 * (s + band)
    bound = kernel.block_bounds()
    live = np.flatnonzero(bound < math.inf)
    # the seed block's runs, and of them the seed run, whose least delta is
    # +inf if it holds no row that its first pair takes, or no row at all
    at, lb = kernel.lb(live[[np.argmin(bound.take(live))]])
    best = float(kernel.gather(at[[np.argmin(lb)]])[2].min(initial=math.inf))
    at, lb = kernel.lb(live[bound.take(live) <= (best + band) + tau])
    admitted = np.flatnonzero(lb <= (best + band) + tau)
    at, lb = at.take(admitted), lb.take(admitted)
    # (first pair, plan row (j, k), delta) of the rows within the band of the moment, in plan order
    kept = []
    for lo in range(0, at.shape[0], _RUNS):
        chunk = lo + np.flatnonzero(lb[lo : lo + _RUNS] <= (best + band) + tau)
        if chunk.size:
            i, rows, deltas = kernel.gather(at.take(chunk))
            best = float(deltas.min(initial=best))
            r = np.flatnonzero(deltas <= best + band)
            kept.append((i.take(r), rows.take(r), deltas.take(r)))
    del kernel, at, lb
    i, rows, deltas = (np.concatenate(col) for col in zip(*kept))
    del kept
    i, rows = _band_rows(deltas, (i, rows), band)
    return i, plan.first.take(rows), plan.second.take(rows)


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
    encoding. Every candidate's cost, the reported one included, is its
    layout's stats_cost, bit for bit. Costs that are not finite on this
    corpus and geometry raise ValueError.
    """
    if stats.is_empty:
        raise ValueError("cannot optimize over empty bigram stats")
    t0 = time.perf_counter()
    base = qwerty_layout()
    try:
        with _raising():
            x = _cost_inputs(g, stats, base, cfg.model)
            base_cost = _layout_cost(x)
            if not base_cost > 0.0:
                raise ValueError(f"base layout cost is {base_cost!r}, not positive; improvement rate is undefined")

            if cfg.mode == "paper":
                sizes, raw_pairs = (3,), _N_TRIPLETS * (_N_TRIPLETS - 1)
            else:
                n = cfg.n_swap_pairs
                sizes, raw_pairs = (range(1, n + 1) if cfg.cumulative else (n,)), None
            bands = _bands(x, base_cost, sizes, cfg.mode)
            # a cumulative search also considers size 0, the stock layout,
            # whose cost has the arithmetic of every other
            found = [(base_cost, ())] if cfg.cumulative else []
            candidates = len(found) + sum(swap_count(size, cfg.mode) for size in sizes)
            found.extend(_rescore(x, bands))
            best_cost, idx = min(found)
            swaps = SwapSet(tuple(_LETTER_PAIRS[p] for p in idx))
            per_pct = per(base_cost, best_cost)
            # per adds in Python floats, which overflow without raising
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
