"""Corpus-driven keyboard letter-swap optimizer for one-finger typing.

The pipeline: clean a user's tweets into a 27-symbol key stream, tally
bigram statistics, exactly search up to three disjoint letter swaps
for the layout that minimizes total finger travel, then render tables
and figures comparing the stock and optimized keyboards.
"""

from .corpus import (
    EmptyCorpusError,
    IngestPolicy,
    KeySequence,
    ingest_tweets,
    normalize,
    usable_letter_count,
)
from .effort import (
    DISTANCE_MODEL,
    CostBreakdown,
    EffortModel,
    delta_cost,
    fitts_effort,
    per,
    sequence_cost,
    stats_cost,
)
from .geometry import (
    DEFAULT_SPEC,
    GeometrySpec,
    KeyboardGeometry,
    Layout,
    Slot,
    SwapSet,
    apply_swaps,
    build_geometry,
    distance,
    nearest_space_slot,
    qwerty_layout,
)
from .optimizer import (
    OptimizationResult,
    SearchConfig,
    enumerate_swapsets,
    optimize,
    swap_count,
    verify_result,
)
from .report import (
    AggregateStats,
    PairRow,
    UserReport,
    aggregate,
    build_user_report,
    heatmap_svg,
    layout_svg,
    pair_scatter_svg,
    pairs_table,
    top_pairs_table,
)
from .stats import BigramStats, PairUsage, count_bigrams, pair_usage

__version__ = "0.1.0"

__all__ = [
    "AggregateStats",
    "BigramStats",
    "CostBreakdown",
    "DEFAULT_SPEC",
    "DISTANCE_MODEL",
    "EffortModel",
    "EmptyCorpusError",
    "GeometrySpec",
    "IngestPolicy",
    "KeySequence",
    "KeyboardGeometry",
    "Layout",
    "OptimizationResult",
    "PairRow",
    "PairUsage",
    "SearchConfig",
    "Slot",
    "SwapSet",
    "UserReport",
    "aggregate",
    "apply_swaps",
    "build_geometry",
    "build_user_report",
    "count_bigrams",
    "delta_cost",
    "distance",
    "enumerate_swapsets",
    "fitts_effort",
    "heatmap_svg",
    "ingest_tweets",
    "layout_svg",
    "nearest_space_slot",
    "normalize",
    "optimize",
    "pair_scatter_svg",
    "pair_usage",
    "pairs_table",
    "per",
    "qwerty_layout",
    "sequence_cost",
    "stats_cost",
    "swap_count",
    "top_pairs_table",
    "usable_letter_count",
    "verify_result",
]
