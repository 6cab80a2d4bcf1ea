"""Corpus ingestion: tweet cleaning and reduction to a 27-symbol key stream.

A corpus ends up as a KeySequence: lowercase letters a-z plus the space,
which stands for one press of the spacebar between words. Everything a
thumb never types on the letter board (digits, punctuation, emoji) is
dropped before any distance accounting happens.
"""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import dataclass, fields

SPACE = " "
_ALPHABET = set("abcdefghijklmnopqrstuvwxyz" + SPACE)

_URL_RE = re.compile(r"(?:https?://\S+|\bt\.co/\S+)", re.IGNORECASE)
_RT_RE = re.compile(r"^\s*RT @")
# \s and str.split() agree with str.isspace() on what whitespace is
_UNTYPED_RE = re.compile(r"[^a-z\s]+")


class EmptyCorpusError(ValueError):
    """Raised when filtering leaves nothing to type."""


@dataclass(frozen=True)
class IngestPolicy:
    """Cleaning knobs applied before normalization.

    max_raw_chars bounds the joined raw text, counted after retweet and
    URL removal but before normalization. fold_diacritics maps accented
    letters to their base ASCII letter instead of dropping them.
    """

    max_raw_chars: int = 1200
    drop_retweets: bool = True
    strip_urls: bool = True
    fold_diacritics: bool = True

    def __post_init__(self) -> None:
        if type(self.max_raw_chars) is not int or self.max_raw_chars <= 0:
            raise ValueError("IngestPolicy.max_raw_chars must be a positive integer")
        for name in ("drop_retweets", "strip_urls", "fold_diacritics"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"IngestPolicy.{name} must be true or false")

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json_dict(cls, data: dict) -> IngestPolicy:
        return cls(**data)


class KeySequence:
    """Validated stream of key presses over the 27-symbol alphabet.

    Invariants: no leading space, no two adjacent spaces. A single
    trailing space is legal and stands for a typed space after the last
    word.
    """

    __slots__ = ("text",)

    def __init__(self, text: str):
        bad = set(text) - _ALPHABET
        if bad:
            raise ValueError(f"key sequence contains non-alphabet symbols: {sorted(bad)!r}")
        if text.startswith(SPACE):
            raise ValueError("key sequence must not begin with a space")
        if SPACE + SPACE in text:
            raise ValueError("key sequence must not contain adjacent spaces")
        self.text = text

    def __len__(self) -> int:
        return len(self.text)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KeySequence) and other.text == self.text

    def __hash__(self) -> int:
        return hash(self.text)

    def __repr__(self) -> str:
        preview = self.text if len(self.text) <= 40 else self.text[:37] + "..."
        return f"KeySequence({preview!r})"

    @property
    def letter_count(self) -> int:
        return len(self.text) - self.text.count(SPACE)


def usable_letter_count(seq: KeySequence) -> int:
    """Number of letter presses in the sequence (spaces excluded)."""
    return seq.letter_count


def normalize(raw: str, policy: IngestPolicy = IngestPolicy()) -> KeySequence:
    """Reduce raw text to the key stream a single finger would type.

    Lowercases, optionally folds diacritics to base letters, keeps a-z,
    turns any whitespace run into one space, and discards everything
    else. Leading spaces are stripped; a trailing space survives when
    the raw text ends in whitespace. Idempotent on its own output.
    """
    text = raw.lower()
    if policy.fold_diacritics:
        # NFKD splits accented letters into base letter + combining marks;
        # the marks are then discarded by the a-z filter below.
        text = unicodedata.normalize("NFKD", text)
    # what is neither a-z nor whitespace is unreachable by thumb: drop it, leaving no word boundary
    text = _UNTYPED_RE.sub("", text)
    words = text.split()
    trailing = SPACE if words and text[-1].isspace() else ""
    return KeySequence(SPACE.join(words) + trailing)


def clean_tweet_text(text: str, policy: IngestPolicy) -> str:
    """Excise URL substrings; surrounding whitespace is left in place."""
    if policy.strip_urls:
        text = _URL_RE.sub("", text)
    return text


def is_retweet(record: dict) -> bool:
    if record.get("retweeted"):
        return True
    text = record.get("text", "")
    return bool(_RT_RE.match(text))


def ingest_tweets(records: list[dict], policy: IngestPolicy = IngestPolicy()) -> KeySequence:
    """Filter, join, truncate and normalize a user's tweet records.

    Records are dicts with a ``text`` field and an optional ``retweeted``
    flag. Retweets (flagged, or starting with "RT @") are dropped whole;
    URLs are excised from survivors. Survivors are joined with single
    spaces, the joined string is cut to max_raw_chars, and the result is
    normalized. Raises EmptyCorpusError when nothing survives.
    """
    kept = [rec.get("text", "") for rec in records if not (policy.drop_retweets and is_retweet(rec))]
    # neither URL pattern matches whitespace, so no URL spans a joining space
    joined = clean_tweet_text(SPACE.join(kept), policy)
    if not joined:
        raise EmptyCorpusError("empty corpus: no usable tweet text after filtering")
    truncated = joined[: policy.max_raw_chars]
    return normalize(truncated, policy)


def read_tweet_file(path: str) -> list[dict]:
    """Load tweet records from .jsonl, in any case ({"text": ...}), or else text (one per line)."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    records: list[dict] = []
    if path.lower().endswith(".jsonl"):
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as exc:  # also too deep or too many digits
                raise ValueError(f"{path}:{lineno}: invalid JSON line: {exc}") from None
            if not isinstance(rec, dict) or "text" not in rec:
                raise ValueError(f'{path}:{lineno}: expected an object with a "text" field')
            if not isinstance(rec["text"], str):
                raise ValueError(f'{path}:{lineno}: "text" must be a string')
            if not isinstance(rec.get("retweeted", False), (bool, type(None))):
                raise ValueError(f'{path}:{lineno}: "retweeted" must be true, false or null')
            records.append(rec)
    else:
        for line in lines:
            line = line.rstrip("\n")
            if line:
                records.append({"text": line})
    return records


def write_key_sequence(seq: KeySequence, path: str) -> None:
    """Persist the sequence verbatim; no trailing newline is added."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(seq.text)


def read_key_sequence(path: str) -> KeySequence:
    with open(path, encoding="utf-8", newline="") as fh:
        return KeySequence(fh.read())
