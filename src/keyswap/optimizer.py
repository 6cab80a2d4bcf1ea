"""Exhaustive search over letter-swap sets.

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

The search kernel never recomputes full layout costs. Because cost is a
sum over letter pairs, the change from applying disjoint transpositions
p1..pn decomposes exactly into per-transposition deltas d1[p] plus
pairwise cross terms c2[p, q]; both tables are precomputed once per
(geometry, stats, model). d1 comes from one batched pass that repeats
delta_cost's floating-point operations for all 325 pairs, so it equals
delta_cost bit for bit; c2 is gathered from flat tables one letter
combination at a time.

Each search size has one stream, _candidate_blocks(n, mode), whose rows
ascend in canonical encoding; paper mode is the size-3 stream filtered as
above. Sizes 1 and 2 are scored by _best, which gathers a block's terms
and takes a plain argmin, whose first minimum is then the smallest tied
encoding. Size 3 is scored from a plan that depends only on the mode,
_size3_plan: the size-2 rows (j, k), where the rows with j > i start for
each first pair i, and which pairs i takes. Per first pair, the kernel
_best_size3 sums (d1[i] + d1[j]) + c2[i, j] once per j, then adds the
per-row columns d1[k] and c2[j, k], built once per search, and c2[i, k]
along that suffix of rows, with the pairs i does not take set to +inf.
Each row it takes gets the bits _best would give it, and
_candidate_blocks(3, mode) yields the rows of the same plan. Every
kernel requires finite tables: optimize does all of its cost arithmetic
with numpy overflow and invalid values raising, so costs that overflow on
a corpus are a ValueError, never a non-finite winner. The triplet
pairings themselves, _triplet_pairings, are kept only as the reference
stream of enumerate_swapsets(3, "paper") and of the tests.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .effort import (
    DISTANCE_MODEL,
    EffortModel,
    effort_tables,
    letter_slot_vector,
    per,
    stats_cost,
)
from .geometry import (
    DEFAULT_SPEC,
    LETTERS,
    GeometrySpec,
    KeyboardGeometry,
    Layout,
    SwapSet,
    apply_swaps,
    qwerty_layout,
)
from .stats import END, BigramStats

MODES = ("canonical", "paper")

_N_LETTERS = 26
_N_PAIRS = 325  # C(26, 2)
_N_TRIPLETS = 2600  # C(26, 3)


def _put_model(d: dict, model: EffortModel) -> None:
    """Add a non-default cost model to d; default-model files keep their bytes."""
    if model != DISTANCE_MODEL:
        d["model"] = {
            "kind": model.kind,
            "alpha": model.alpha,
            "beta": model.beta,
            "key_area_mm2": model.key_area_mm2,
        }


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
        d = {
            "n_swap_pairs": self.n_swap_pairs,
            "mode": self.mode,
            "cumulative": self.cumulative,
            "workers": self.workers,
        }
        _put_model(d, self.model)
        return d

    @classmethod
    def from_json_dict(cls, data: dict) -> SearchConfig:
        return cls(
            n_swap_pairs=data.get("n_swap_pairs", 3),
            mode=data.get("mode", "canonical"),
            cumulative=data.get("cumulative", False),
            workers=data.get("workers", 1),
            model=_get_model(data),
        )


@dataclass(frozen=True)
class OptimizationResult:
    """Winner of a search plus enough telemetry to audit it."""

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
        return cls(
            swaps=SwapSet(tuple((a, b) for a, b in data["swaps"])),
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
# every disjoint (i, j) with i < j, in canonical order
_SIZE2 = np.nonzero(np.triu(_COMPAT, 1))


class _Size3Plan(NamedTuple):
    """The rows of a size-3 search, as suffixes of the size-2 rows.

    Row (i, j, k) of the size-3 stream is first pair i followed by size-2
    row (j, k) = (first[r], second[r]) with r >= lo[i], so that j > i.
    Of that suffix, i takes the rows with takes[i, j] and takes[i, k]:
    pairs that share no letter with i and, in paper mode, whose larger
    letter is above v[i]. firsts lists the first pairs that take at least
    one row. The plan depends only on the alphabet and the mode.
    """

    first: np.ndarray
    second: np.ndarray
    lo: np.ndarray
    takes: np.ndarray
    firsts: tuple[int, ...]


def _size3_rows(mode: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The plan's size-2 columns first and second, and takes."""
    first, second = _SIZE2
    takes = _COMPAT
    if mode == "paper":
        keep = _V.take(first) < _V.take(second)
        first, second = first[keep], second[keep]
        takes = takes & (_V[:, None] < _V)
    return first, second, takes


def _size3_plan(mode: str) -> _Size3Plan:
    """Rebuilt on each call, in well under a millisecond, so that no copy
    of its arrays outlives a search; only firsts is kept."""
    first, second, takes = _size3_rows(mode)
    lo = np.searchsorted(first, np.arange(_N_PAIRS), side="right")
    return _Size3Plan(first, second, lo, takes, _size3_firsts(mode))


@functools.cache
def _size3_firsts(mode: str) -> tuple[int, ...]:
    """The first pairs that take a row, counted without a pass over each suffix.

    Once i takes j, i takes row (j, k) unless k holds a letter of i (in
    paper mode v[k] > v[j] > v[i] holds already), and k > j > i, so k
    never holds both. hits[j, x] counts the rows (j, k) with letter x in
    k, so free[j, i] is the number of rows (j, .) that i takes once it
    takes j.
    """
    first, second, takes = _size3_rows(mode)
    pos = first * _N_LETTERS
    hits = np.bincount(pos + _U.take(second), minlength=_N_PAIRS * _N_LETTERS)
    hits += np.bincount(pos + _V.take(second), minlength=_N_PAIRS * _N_LETTERS)
    hits = hits.reshape(_N_PAIRS, _N_LETTERS)
    free = np.bincount(first, minlength=_N_PAIRS)[:, None] - hits[:, _U] - hits[:, _V]
    sizes = (np.triu(takes, 1) * free.T).sum(axis=1)
    return tuple(np.flatnonzero(sizes).tolist())


def _candidate_blocks(n: int, mode: str = "canonical"):
    """Yield the rows that one search size scores, as non-empty blocks.

    A block is a tuple of n pair-index arrays; row r is the candidate
    (block[0][r], ..., block[n-1][r]), sorted ascending, which is its
    canonical encoding. The rows of the whole stream ascend in encoding,
    the precondition of _best. Size 3 is one block per first pair i: the
    rows of _size3_plan(mode) that i takes, the rows that _best_size3
    leaves finite when the tables are finite. Paper mode is the size-3
    stream filtered to v[i] < v[j] < v[k]: the plan's size-2 rows keep
    v[j] < v[k], and first pair i keeps the rows with v[i] < v[j].
    """
    if n == 1:
        yield (np.arange(_N_PAIRS),)
    elif n == 2:
        yield _SIZE2
    else:
        plan = _size3_plan(mode)
        for i in plan.firsts:
            lo, t = int(plan.lo[i]), plan.takes[i]
            rows = lo + np.flatnonzero(t.take(plan.first[lo:]) & t.take(plan.second[lo:]))
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


def _term_sums(m: np.ndarray, tab: np.ndarray, a, b, sa, sb) -> np.ndarray:
    """Per pair, the sum of m[a, b] * tab[sa, sb] over that pair's block.

    The index arrays broadcast to (325, r, c). Each product block is
    reduced as one C-contiguous row, so it sums in the same pairwise
    order as the scalar ``.sum()`` of _affected_terms.
    """
    prod = m.take(a * _N_LETTERS + b) * tab.take(sa * _N_LETTERS + sb)
    return prod.reshape(_N_PAIRS, -1).sum(axis=1)


def _build_delta_tables(
    g: KeyboardGeometry,
    stats: BigramStats,
    base: Layout,
    base_cost: float,
    model: EffortModel,
) -> tuple[np.ndarray, np.ndarray]:
    """d1[p]: cost change of single swap p; c2[p, q]: cross term of p and q.

    d1 repeats delta_cost's floating-point operations for all 325 pairs in
    one batched pass: the seven terms of _affected_terms, each reduced per
    pair in the same order, combined with the same + and -, and finished
    as (base_cost + (new - old)) - base_cost. Every entry is therefore the
    same bits as delta_cost(..., SwapSet((pair,)), ...) - base_cost.
    c2 sums the eight (letter of p, letter of q) combinations in a fixed
    order; each combination gathers its index arrays from 325-long
    per-pair sides, so only one combination's temporaries exist at a time.
    """
    u, v = _U, _V
    t = effort_tables(g, model)
    o = letter_slot_vector(base)
    f = stats.within_word.astype(np.float64)
    s_in = stats.across_space[:, :END].astype(np.float64)
    row_s = stats.across_space.sum(axis=1)
    dd, gg, sp = t.slot_to_slot, t.space_to_slot, t.slot_to_space

    letters = np.arange(_N_LETTERS)
    moved = np.stack((u, v), axis=1)
    mr, mc = moved[:, :, None], moved[:, None, :]
    new_slots = np.tile(o, (_N_PAIRS, 1))
    new_slots[np.arange(_N_PAIRS), u] = o[v]
    new_slots[np.arange(_N_PAIRS), v] = o[u]

    def affected(slots: np.ndarray, sm: np.ndarray) -> np.ndarray:
        # _affected_terms per pair; slots is the base vector or one row per pair
        sr, sc = sm[:, :, None], sm[:, None, :]
        terms = []
        for m, tab in ((f, dd), (s_in, gg)):
            terms.append(_term_sums(m, tab, mr, letters, sr, slots[..., None, :]))
            terms.append(_term_sums(m, tab, letters[:, None], mc, slots[..., :, None], sc))
            terms.append(_term_sums(m, tab, mr, mc, sr, sc))
        f_rows, f_cols, f_both, s_rows, s_cols, s_both = terms
        space = (row_s[moved] * sp[sm]).sum(axis=1)
        return (((((f_rows + f_cols) - f_both) + s_rows) + s_cols) - s_both) + space

    new = affected(new_slots, np.stack((o[v], o[u]), axis=1))
    d1 = (base_cost + (new - affected(o, o[moved]))) - base_cost

    idx_i, idx_j = _SIZE2
    # side s of a pair: (letter, its old slot, its new slot); as the first
    # letter of a combination its indices are pre-scaled to table rows
    sides = ((u, o[u], o[v]), (v, o[v], o[u]))
    firsts = tuple(tuple(x * _N_LETTERS for x in side) for side in sides)
    vals = np.zeros(idx_i.shape[0])
    for p, q in ((idx_i, idx_j), (idx_j, idx_i)):
        for first in firsts:
            a, oa, na = (x.take(p) for x in first)
            for second in sides:
                b, ob, nb = (x.take(q) for x in second)
                ab, nn, no, on, oo = a + b, na + nb, na + ob, oa + nb, oa + ob
                vals += f.take(ab) * (dd.take(nn) - dd.take(no) - dd.take(on) + dd.take(oo))
                vals += s_in.take(ab) * (gg.take(nn) - gg.take(no) - gg.take(on) + gg.take(oo))

    c2 = np.zeros((_N_PAIRS, _N_PAIRS))
    c2[idx_i, idx_j] = vals
    c2[idx_j, idx_i] = vals
    return d1, c2


def _best(d1: np.ndarray, c2: np.ndarray, block) -> tuple[float, tuple[int, ...]]:
    """Cheapest candidate of one block as (cost delta, encoding).

    Precondition: the block's rows ascend in encoding. argmin returns the
    first minimum, so ties go to the smallest encoding, and comparing the
    returned tuples across blocks and sizes reproduces canonical SwapSet
    order (shorter encodings win on a shared prefix). The sum is always
    associated as ((d1[i] + d1[j]) + c2[i, j]), then + d1[k], + c2[i, k],
    + c2[j, k]. The search scores size 3 with _best_size3; this is the
    reference it is tested against.
    """
    c2 = c2.ravel()
    i = block[0]
    deltas = d1.take(i)
    if len(block) > 1:
        j = block[1]
        deltas = (deltas + d1.take(j)) + c2.take(i * _N_PAIRS + j)
    if len(block) > 2:
        k = block[2]
        deltas = ((deltas + d1.take(k)) + c2.take(i * _N_PAIRS + k)) + c2.take(j * _N_PAIRS + k)
    r = int(np.argmin(deltas))
    return float(deltas[r]), tuple(int(col[r]) for col in block)


def _best_size3(d1: np.ndarray, c2: np.ndarray, plan: _Size3Plan) -> list[tuple[float, tuple[int, int, int]]]:
    """_best of each block of the size-3 stream, scored from the plan.

    For first pair i, a = (d1[i] + d1) + c2[i] holds the first two sums
    of every row (i, j, .). Each row of the suffix lo[i]: adds d1[k],
    c2[i, k] and c2[j, k] to a[j] in that order, so a row that i takes
    gets the same bits as in _best. The pairs that i does not take are
    +inf in a and in the c2[i, k] vector. Precondition: d1 and c2 are
    finite and no row's sum overflows, as optimize ensures. Then every
    row that i takes is finite and every other row is exactly +inf, and
    i takes at least one row, so argmin's first minimum over the suffix,
    which ascends in encoding, is the block's smallest tied encoding.
    """
    first, second = plan.first, plan.second
    d1k = d1.take(second)
    c2jk = c2[first, second]
    out = []
    for i in plan.firsts:
        lo, takes, c2i = int(plan.lo[i]), plan.takes[i], c2[i]
        deltas = np.where(takes, (d1[i] + d1) + c2i, np.inf).take(first[lo:])
        deltas += d1k[lo:]
        deltas += np.where(takes, c2i, np.inf).take(second[lo:])
        deltas += c2jk[lo:]
        r = int(np.argmin(deltas))
        out.append((float(deltas[r]), (i, int(first[lo + r]), int(second[lo + r]))))
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


def optimize(g: KeyboardGeometry, stats: BigramStats, cfg: SearchConfig = SearchConfig()) -> OptimizationResult:
    """Exhaustively search swap sets and return the cheapest layout found.

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
        with np.errstate(over="raise", invalid="raise"):
            base_cost = stats_cost(g, base, stats, cfg.model)
            if not base_cost > 0.0:
                raise ValueError("base layout cost is zero; improvement rate is undefined")
            # stats_cost and per add in Python floats, which overflow without raising
            if not math.isfinite(base_cost):
                raise FloatingPointError("overflow in the base layout cost")
            d1, c2 = _build_delta_tables(g, stats, base, base_cost, cfg.model)

            if cfg.mode == "paper":
                sizes, raw_pairs = (3,), _N_TRIPLETS * (_N_TRIPLETS - 1)
            else:
                n = cfg.n_swap_pairs
                sizes, raw_pairs = (range(1, n + 1) if cfg.cumulative else (n,)), None
            # a cumulative search also considers size 0, the stock layout
            found = [(0.0, ())] if cfg.cumulative else []
            candidates = len(found) + sum(swap_count(size, cfg.mode) for size in sizes)
            for size in sizes:
                if size == 3:
                    found.extend(_best_size3(d1, c2, _size3_plan(cfg.mode)))
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
    rel_tol: float = 1e-9,
) -> bool:
    """Recompute both costs from scratch and audit the stored result.

    The costs are recomputed under ``model``, by default the model the
    result records.
    """
    if not result.swaps.is_canonical():
        return False
    model = result.model if model is None else model
    base = qwerty_layout()
    q = stats_cost(g, base, stats, model)
    b = stats_cost(g, apply_swaps(base, result.swaps), stats, model)
    if not q > 0.0:
        return False
    return (
        math.isclose(q, result.qwerty_cost_mm, rel_tol=rel_tol, abs_tol=0.0)
        and math.isclose(b, result.best_cost_mm, rel_tol=rel_tol, abs_tol=0.0)
        and math.isclose(per(q, b), result.per_pct, rel_tol=rel_tol, abs_tol=1e-12)
    )
