"""Output checks the benchmark runs outside every timed span.

Import after ``checkout.use_checkout_source()``.
"""

from __future__ import annotations

import hashlib
import math
import os
import random

from keyswap import SwapSet, apply_swaps, qwerty_layout, stats_cost
from keyswap.geometry import LETTERS

# Improvement and swaps of the five bundled corpora under a size-3
# cumulative canonical search, as pinned by the acceptance suite.
PINNED = {
    "river": (16.612045864967097, (("a", "j"), ("b", "t"), ("e", "v"))),
    "workshop": (15.171024703848326, (("a", "j"), ("e", "v"), ("g", "o"))),
    "stargazer": (14.57533266132092, (("a", "j"), ("b", "t"), ("e", "v"))),
    "kitchen": (17.48513898450873, (("a", "j"), ("b", "s"), ("e", "v"))),
    "allotment": (15.786678321779934, (("a", "j"), ("b", "t"), ("e", "v"))),
}
PINNED_KIND = "size3_cum"

# Candidate counts per swap-set size in canonical mode.
_SIZE_COUNTS = (1, 325, 44_850, 3_453_450)
_SIZES_OF_KIND = {"size1": (1,), "size2": (2,), "size2_cum": (0, 1, 2), "size3_cum": (0, 1, 2, 3)}


def pin_failures(user_id: str, kind: str, swaps, per_pct: float) -> list[str]:
    """A bundled user's result under the pinned search must match its pin."""
    if kind != PINNED_KIND or user_id not in PINNED:
        return []
    want_per, want_swaps = PINNED[user_id]
    fails = []
    if tuple(tuple(p) for p in swaps) != want_swaps:
        fails.append(f"{user_id}: swaps {swaps} differ from pinned {want_swaps}")
    if not math.isclose(per_pct, want_per, rel_tol=1e-12, abs_tol=0.0):
        fails.append(f"{user_id}: per_pct {per_pct!r} differs from pinned {want_per!r}")
    return fails


def outcome_failures(outcome) -> list[str]:
    """Checks every chain result gets: verification, canonical swaps, pins."""
    fails = []
    if not outcome.verified:
        fails.append(f"{outcome.user_id}: verify_result rejected the result")
    if not outcome.result.swaps.is_canonical():
        fails.append(f"{outcome.user_id}: swap set {outcome.result.swaps} is not canonical")
    fails += pin_failures(
        outcome.user_id, outcome.kind, outcome.result.swaps.pairs, outcome.result.per_pct
    )
    return fails


def _sample_swapsets(kind: str, rng: random.Random, n: int):
    if kind == "size1":
        for i, a in enumerate(LETTERS):
            for b in LETTERS[i + 1 :]:
                yield SwapSet(((a, b),))
        return
    if kind == "paper":
        for _ in range(n):
            six = rng.sample(range(26), 6)
            t1, t2 = sorted(six[:3]), sorted(six[3:])
            yield SwapSet.from_pairs((LETTERS[x], LETTERS[y]) for x, y in zip(t1, t2))
        return
    sizes = _SIZES_OF_KIND[kind]
    weights = [_SIZE_COUNTS[s] for s in sizes]
    for size in rng.choices(sizes, weights=weights, k=n):
        letters = rng.sample(LETTERS, 2 * size)
        yield SwapSet.from_pairs(zip(letters[::2], letters[1::2]))


def sampled_failures(g, outcome, rng: random.Random, n: int = 10_000) -> list[str]:
    """Re-score a seeded sample of the searched candidates with stats_cost;
    none may beat the reported winner."""
    base = qwerty_layout()
    best = outcome.result.best_cost_mm
    limit = best - 1e-9 * abs(best)
    for swaps in _sample_swapsets(outcome.kind, rng, n):
        cost = stats_cost(g, apply_swaps(base, swaps), outcome.stats)
        if cost < limit:
            return [f"{outcome.user_id}: sampled {swaps} costs {cost!r}, below winner {best!r}"]
    return []


def tree_digest(root: str) -> dict[str, str]:
    """SHA-256 of every file under root, keyed by relative path."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out
