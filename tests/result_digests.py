"""SHA-256 digests of the result files of 154 reference searches and of
the batch tree, the byte check of every change to the search.

test_result_digests compares them with tests/data/result_digests.json. A
change that moves result bytes on purpose regenerates that table with

    PYTHONPATH=src python tests/result_digests.py

and names each moved entry and why it moved.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

from keyswap import build_geometry
from keyswap.cli import _write_json, main
from keyswap.corpus import KeySequence, ingest_tweets, read_tweet_file
from keyswap.effort import EffortModel
from keyswap.optimizer import SearchConfig, optimize
from keyswap.stats import count_bigrams

sys.path.insert(0, str(Path(__file__).parent))
from conftest import (  # noqa: E402
    TIE_RECIPE_WORDS,
    TWO_LETTER_TEXT,
    UNIFORM_TEXT,
    random_corpus_text,
    tie_heavy_text,
)

DATA = Path(__file__).parent / "data"
TABLE = DATA / "result_digests.json"
FITTS = EffortModel(kind="fitts", alpha=0.2)
SEARCHES = {
    "size1": SearchConfig(n_swap_pairs=1),
    "size2": SearchConfig(n_swap_pairs=2),
    "size3": SearchConfig(),
    "size3-cumulative": SearchConfig(cumulative=True),
    "paper": SearchConfig(mode="paper"),
    "fitts-size3": SearchConfig(model=FITTS),
    "fitts-paper": SearchConfig(mode="paper", model=FITTS),
}


def reference_corpora() -> dict[str, str]:
    """The 22 corpora of the result digests: the bundled users, random
    streams, tie-heavy streams and two constructed tie corpora."""
    texts = {p.stem: ingest_tweets(read_tweet_file(str(p))).text for p in sorted(DATA.glob("*.jsonl"))}
    texts.update((f"random-{s}", random_corpus_text(random.Random(s), 200, 1500)) for s in range(1000, 1005))
    texts.update((f"tie-{s}", tie_heavy_text(random.Random(s))) for s in (2000, 2001, 2002, 2003, 2004, 2009, 2038))
    texts.update((f"recipe-{s}", tie_heavy_text(random.Random(s), *TIE_RECIPE_WORDS)) for s in (2009, 2032, 2038))
    texts.update({"two-letters": TWO_LETTER_TEXT, "uniform-abcd": UNIFORM_TEXT})
    return texts


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def result_digests(work: Path) -> dict:
    """The digest of each reference result file, as the CLI writes it, and of
    each file of `batch tests/data/manifest.json` at 1 and 2 threads."""
    g = build_geometry()
    results = {}
    for name, text in reference_corpora().items():
        stats = count_bigrams(KeySequence(text))
        for search, cfg in SEARCHES.items():
            path = work / f"{name}.{search}.json"
            _write_json(str(path), optimize(g, stats, cfg).to_json_dict())
            results[f"{name} {search}"] = _sha256(path)
    batch = {}
    for threads in ("1", "2"):
        out = work / f"batch-{threads}"
        if main(["batch", str(DATA / "manifest.json"), "--out-dir", str(out), "--threads", threads]) != 0:
            raise RuntimeError(f"batch at --threads {threads} failed")
        files = sorted(p for p in out.rglob("*") if p.is_file())
        batch[f"threads {threads}"] = {p.relative_to(out).as_posix(): _sha256(p) for p in files}
    return {"results": results, "batch": batch}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = result_digests(Path(tmp))
    TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"{TABLE}: {len(table['results'])} results, {sum(map(len, table['batch'].values()))} batch files")
