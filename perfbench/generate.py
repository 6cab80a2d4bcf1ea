"""Seeded workload generator for the keyswap benchmark.

Writes one workload's inputs into a directory: tweet corpora, a batch
manifest and ``plan.json``, which tells the benchmark which search each
user's chain runs. The same workload and seed give the same bytes.

    python3 perfbench/generate.py --workload cohort --seed 1 --out DIR

Words are drawn, by frequency, from the vocabulary of the five sample
corpora bundled with the tests. Tweets get retweets, URLs, diacritics,
digits and punctuation at per-workload rates, so ingest has real
cleaning work to do.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
from dataclasses import dataclass

from checkout import ROOT

BUNDLED_DIR = os.path.join(ROOT, "tests", "data")
BUNDLED_USERS = ("river", "workshop", "stargazer", "kitchen", "allotment")
WARM_RAW_CHARS = 1200  # the paper's per-user truncation

LETTERS = "abcdefghijklmnopqrstuvwxyz"
_ACCENTED = {"a": "áàâäå", "e": "éèêë", "i": "íïî", "o": "óöôø", "u": "úüû", "n": "ñ", "c": "ç"}
_PUNCT = (".", ",", "!", "?", "…", " —", ":", ";")
_EXTRAS = ("3pm", "2x", "#tbt", "@friend", "🙂", "100%", "(ok)", "&")
_HANDLES = ("newsdesk", "riverbot", "market_board", "weatherwatch", "cityhall")


@dataclass(frozen=True)
class Workload:
    """What one workload generates and how the benchmark drives it.

    ``kinds`` is the search each user's chain runs, cycled by user
    position. A run is a number of rounds, each one pass over the users
    followed by runs of ``keyswap batch``.
    """

    generated_users: int
    raw_chars: tuple[int, int]  # raw characters per generated user, low and high
    retweet_rate: float
    url_rate: float
    diacritic_rate: float
    tie_users: int  # tiny repetitive users at the end of the list
    include_bundled: bool
    kinds: tuple[str, ...]
    batch_search: dict


WORKLOADS = {
    "cohort": Workload(
        # one generated user beside the five bundled ones keeps a round short,
        # so a run holds five or more batch runs, whose median gives users_per_s
        generated_users=1,
        raw_chars=(1300, 1800),
        retweet_rate=0.12,
        url_rate=0.2,
        diacritic_rate=0.03,
        tie_users=0,
        include_bundled=True,
        kinds=("size3_cum",),
        batch_search={"n_swap_pairs": 3, "mode": "canonical", "cumulative": True},
    ),
    "sweep": Workload(
        generated_users=9,
        raw_chars=(1300, 1800),
        retweet_rate=0.05,
        url_rate=0.35,
        diacritic_rate=0.08,
        tie_users=3,
        include_bundled=False,
        # Paper mode on 7 of the 12 users puts user_s_p50, the median over
        # users of each user's median chain, on the fastest paper users. It runs on generated
        # users only: on a tie-heavy user it takes 0.4 to 1.5 s depending
        # on the seed's letters. The size-1 and size-2 users are the rest;
        # the batch runs size 2 cumulative.
        kinds=(
            "paper", "paper", "size1", "paper", "paper", "size2", "paper", "paper", "paper",
            "size2", "size1", "size2",
        ),
        batch_search={"n_swap_pairs": 2, "cumulative": True},
    ),
}


def bundled_path(user_id: str) -> str:
    return os.path.join(BUNDLED_DIR, f"{user_id}.jsonl")


def _vocabulary() -> tuple[list[str], list[int]]:
    counts: dict[str, int] = {}
    for uid in BUNDLED_USERS:
        with open(bundled_path(uid), encoding="utf-8") as fh:
            for line in fh:
                text = json.loads(line)["text"]
                for word in re.findall(r"[A-Za-z]+", text):
                    counts[word.lower()] = counts.get(word.lower(), 0) + 1
    words = sorted(counts)
    cum, total = [], 0
    for w in words:
        total += counts[w]
        cum.append(total)
    return words, cum


def _decorate(word: str, rng: random.Random, wl: Workload) -> str:
    if rng.random() < wl.diacritic_rate:
        spots = [i for i, ch in enumerate(word) if ch in _ACCENTED]
        if spots:
            i = rng.choice(spots)
            word = word[:i] + rng.choice(_ACCENTED[word[i]]) + word[i + 1 :]
    r = rng.random()
    if r < 0.04:
        word = word.capitalize()
    elif r < 0.05:
        word = word.upper()
    if rng.random() < 0.08:
        word += rng.choice(_PUNCT)
    return word


def _tweet(words: list[str], rng: random.Random, wl: Workload) -> dict:
    text = " ".join(_decorate(w, rng, wl) for w in words)
    text = text[:1].upper() + text[1:]
    if rng.random() < 0.1:
        text += " " + rng.choice(_EXTRAS)
    if rng.random() < wl.url_rate:
        slug = "".join(rng.choice(LETTERS + "0123456789") for _ in range(10))
        url = rng.choice((f"https://t.co/{slug}", f"http://example.org/{slug}", f"t.co/{slug}"))
        cut = rng.randrange(len(text) + 1)
        text = text[:cut] + f" {url} " + text[cut:]
    record = {"text": text}
    if rng.random() < wl.retweet_rate:
        if rng.random() < 0.5:
            record["text"] = f"RT @{rng.choice(_HANDLES)}: {text}"
        else:
            record["retweeted"] = True
    return record


def _tweets(rng: random.Random, wl: Workload, vocab, target_chars: int) -> list[dict]:
    """Tweets until the kept (non-retweet) text reaches target_chars."""
    words, cum = vocab
    records, kept = [], 0
    while kept < target_chars:
        batch = rng.choices(words, cum_weights=cum, k=4096)
        pos = 0
        while pos < len(batch) and kept < target_chars:
            n = rng.randint(6, 28)
            rec = _tweet(batch[pos : pos + n], rng, wl)
            pos += n
            records.append(rec)
            if not (rec.get("retweeted") or rec["text"].startswith("RT @")):
                kept += len(rec["text"]) + 1
    return records


def _write_jsonl(path: str, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def _tie_text(rng: random.Random) -> str:
    """A tiny repetitive corpus such as "ab ab ab", one tweet per line."""
    lines = []
    for _ in range(rng.randint(1, 3)):
        word = "".join(rng.sample(LETTERS, rng.choice((2, 3))))
        lines.append(" ".join([word] * rng.randint(3, 12)))
    return "\n".join(lines) + "\n"


def _warm_users(out_dir: str, users: list[dict]) -> list[dict]:
    """The first user of each search kind, cut to its first tweets up to
    WARM_RAW_CHARS, so the warm-up stays short."""
    warm = {}
    for user in users:
        if user["kind"] in warm:
            continue
        kept, n = [], 0
        with open(os.path.join(out_dir, user["corpus"]), encoding="utf-8") as fh:
            for line in fh:
                kept.append(line)
                n += len(json.loads(line)["text"])
                if n >= WARM_RAW_CHARS:
                    break
        name = f"warm-{user['kind']}"
        with open(os.path.join(out_dir, f"{name}.jsonl"), "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(kept)
        warm[user["kind"]] = {"id": name, "corpus": f"{name}.jsonl", "kind": user["kind"]}
    return list(warm.values())


def generate(workload: str, seed: int, out_dir: str) -> dict:
    """Write the workload's inputs under out_dir and return its plan."""
    wl = WORKLOADS[workload]
    os.makedirs(out_dir, exist_ok=True)
    vocab = _vocabulary()
    users = []
    if wl.include_bundled:
        for uid in BUNDLED_USERS:
            dest = os.path.join(out_dir, f"{uid}.jsonl")
            shutil.copyfile(bundled_path(uid), dest)
            users.append({"id": uid, "corpus": f"{uid}.jsonl"})
    lo, hi = wl.raw_chars
    for k in range(wl.generated_users):
        rng = random.Random(f"{workload}:{seed}:user:{k}")
        if wl.generated_users > 1:
            # evenly spaced sizes, largest first; the seed moves content, not size
            target = hi - (hi - lo) * k // (wl.generated_users - 1)
        else:
            target = hi
        uid = f"{workload[0]}{k:02d}"
        _write_jsonl(os.path.join(out_dir, f"{uid}.jsonl"), _tweets(rng, wl, vocab, target))
        users.append({"id": uid, "corpus": f"{uid}.jsonl"})
    for k in range(wl.tie_users):
        rng = random.Random(f"{workload}:{seed}:tie:{k}")
        uid = f"tie{k:02d}"
        with open(os.path.join(out_dir, f"{uid}.txt"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_tie_text(rng))
        users.append({"id": uid, "corpus": f"{uid}.txt"})

    manifest = {"users": users, "search": wl.batch_search, "top_pairs": 15}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")

    users = [{**u, "kind": wl.kinds[i % len(wl.kinds)]} for i, u in enumerate(users)]
    plan = {
        "workload": workload,
        "seed": seed,
        "users": users,
        "warm_users": _warm_users(out_dir, users),
        "largest_user": max(users, key=lambda u: os.path.getsize(os.path.join(out_dir, u["corpus"])))["id"],
        "batch_search": wl.batch_search,
        "batch_threads": 2,
    }
    with open(os.path.join(out_dir, "plan.json"), "w", encoding="utf-8") as fh:
        json.dump(plan, fh, indent=2)
        fh.write("\n")
    return plan


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    plan = generate(args.workload, args.seed, args.out)
    print(f"{args.workload}: {len(plan['users'])} users written to {args.out}")


if __name__ == "__main__":
    main()
