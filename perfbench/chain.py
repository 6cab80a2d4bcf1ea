"""One user's chain of public keyswap calls, as ``ingest -> optimize -> report`` runs it.

Import after ``checkout.use_checkout_source()``. Each call into a layer
sits in a span named ``<module>.<step>``; with a ``NullRecorder`` the
spans cost one no-op context manager each.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from keyswap import (
    BigramStats,
    OptimizationResult,
    SearchConfig,
    UserReport,
    apply_swaps,
    build_user_report,
    count_bigrams,
    heatmap_svg,
    ingest_tweets,
    optimize,
    pair_scatter_svg,
    qwerty_layout,
    usable_letter_count,
    verify_result,
)
from keyswap.corpus import read_key_sequence, read_tweet_file, write_key_sequence
from keyswap.report import pairs_csv

# The searches a chain can run, by name. The name is also the span name
# suffix, so ``optimizer.size3_cum`` times a size-3 cumulative search.
KINDS = {
    "size1": SearchConfig(n_swap_pairs=1),
    "size2": SearchConfig(n_swap_pairs=2),
    "size2_cum": SearchConfig(n_swap_pairs=2, cumulative=True),
    "size3_cum": SearchConfig(n_swap_pairs=3, cumulative=True),
    "paper": SearchConfig(mode="paper", workers=2),
}


def kind_of(search: dict) -> str:
    """The KINDS name of a manifest ``search`` section (workers aside)."""
    want = SearchConfig(**{k: v for k, v in search.items() if k != "workers"})
    for name, cfg in KINDS.items():
        if (cfg.n_swap_pairs, cfg.mode, cfg.cumulative) == (want.n_swap_pairs, want.mode, want.cumulative):
            return name
    raise ValueError(f"no search kind matches {search!r}")


@dataclass
class Outcome:
    user_id: str
    kind: str
    stats: BigramStats
    result: OptimizationResult
    verified: bool
    report: UserReport


def search(g, stats, kind, rec, user_id) -> tuple[OptimizationResult, bool]:
    """Chain step 4: ``optimize``, then ``verify_result``."""
    cfg = KINDS[kind]
    with rec.span(f"optimizer.{kind}", user_id) as sp:
        result = optimize(g, stats, cfg)
    sp.note(candidates=result.candidates)
    with rec.span("optimizer.verify", user_id):
        verified = verify_result(g, stats, result, cfg.model)
    return result, verified


def run_user(g, user_id, corpus_path, kind, out_dir, rec) -> Outcome:
    """Run one user's chain; rendered files land in out_dir."""
    with rec.span("user", user_id):
        with rec.span("corpus.read", user_id) as sp:
            records = read_tweet_file(corpus_path)
        if rec.enabled:
            sp.note(raw_chars=sum(len(r["text"]) for r in records))
        with rec.span("corpus.ingest", user_id):
            seq = ingest_tweets(records)
        corpus_file = os.path.join(out_dir, "corpus.txt")
        with rec.span("corpus.roundtrip", user_id):
            write_key_sequence(seq, corpus_file)
            seq = read_key_sequence(corpus_file)
        with rec.span("stats.count_bigrams", user_id) as sp:
            stats = count_bigrams(seq)
        sp.note(key_presses=len(seq), transitions=stats.total_transitions)
        result, verified = search(g, stats, kind, rec, user_id)
        with rec.span("report.build", user_id):
            report = build_user_report(user_id, g, stats, usable_letter_count(seq), result)
        with rec.span("report.svg", user_id):
            base = qwerty_layout()
            rendered = {
                "qwerty.svg": heatmap_svg(g, base, stats),
                "optimized.svg": heatmap_svg(
                    g, apply_swaps(base, result.swaps), stats, highlight=result.swaps
                ),
                "scatter.svg": pair_scatter_svg(list(report.top_pairs), user_id),
            }
        with rec.span("report.write", user_id) as sp:
            rendered["report.json"] = json.dumps(report.to_json_dict(), indent=2) + "\n"
            rendered["pairs.csv"] = pairs_csv(list(report.top_pairs))
            n_bytes = 0
            for name, text in rendered.items():
                data = text.encode("utf-8")
                with open(os.path.join(out_dir, name), "wb") as fh:
                    fh.write(data)
                n_bytes += len(data)
        sp.note(bytes=n_bytes, files=len(rendered))
    return Outcome(user_id, kind, stats, result, verified, report)
