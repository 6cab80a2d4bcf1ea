"""Tweet cleaning and normalization down to the 27-symbol key stream."""

from __future__ import annotations

import json
import unicodedata

import pytest
from hypothesis import given, strategies as st

from keyswap.corpus import (
    EmptyCorpusError,
    IngestPolicy,
    KeySequence,
    clean_tweet_text,
    ingest_tweets,
    is_retweet,
    normalize,
    read_key_sequence,
    read_tweet_file,
    usable_letter_count,
    write_key_sequence,
)


@pytest.mark.parametrize(
    "raw,want",
    [
        ("Hello.  How are you?", "hello how are you"),
        ("MiXeD CaSe", "mixed case"),
        (" leading space", "leading space"),
        ("a  \t\n b", "a b"),
        ("123 #@!%", ""),
        ("don't stop", "dont stop"),
        # Dropped punctuation leaves no word boundary behind, only
        # whitespace does: the em-dash fuses its neighbours.
        ("Café—déjà vu!", "cafedeja vu"),
        ("naïve São Tomé", "naive sao tome"),
        ("Ångström", "angstrom"),
        # NFKD has no decomposition for the sharp s, so it drops.
        ("ß sharp", "sharp"),
        # Trailing whitespace means a typed space after the last word.
        ("e e e ", "e e e "),
        ("ab! ", "ab "),
        ("ab !", "ab "),
        # every character str.isspace() takes is a word boundary
        ("no\xa0break", "no break"),
        ("line\u2028sep", "line sep"),
        ("unit\x1fsep", "unit sep"),
        # NFKD splits the ligature into its two letters
        ("\ufb01ne", "fine"),
        # two combining marks on one letter both drop
        ("a\u0323\u0302x", "ax"),
        ("", ""),
    ],
)
def test_normalize_cases(raw, want):
    assert normalize(raw).text == want


def test_normalize_without_diacritic_folding():
    policy = IngestPolicy(fold_diacritics=False)
    assert normalize("café", policy).text == "caf"


# any code point, lone surrogates included, with the characters that
# decide words mixed in often enough to meet
TEXT_ST = st.text(
    alphabet=st.characters(exclude_categories=[])
    | st.characters(categories=["Cs"])
    | st.sampled_from("aZ \t\n\xa0\u2028\x1f\u0301\ufb01\xe9!"),
    max_size=300,
)


def ref_normalize(raw: str, policy: IngestPolicy) -> str:
    """normalize as a per-character state machine: the reference for the whole-string passes."""
    out: list[str] = []
    pending_space = False
    for ch in raw.lower():
        folded = unicodedata.normalize("NFKD", ch) if policy.fold_diacritics else ch
        for sub in folded:
            if "a" <= sub <= "z":
                if pending_space and out:
                    out.append(" ")
                pending_space = False
                out.append(sub)
            elif sub.isspace():
                pending_space = True
    if pending_space and out:
        out.append(" ")
    return "".join(out)


@given(TEXT_ST, st.booleans())
def test_normalize_matches_the_per_character_reference(raw, fold):
    policy = IngestPolicy(fold_diacritics=fold)
    assert normalize(raw, policy).text == ref_normalize(raw, policy)


@given(TEXT_ST)
def test_normalize_is_idempotent(raw):
    once = normalize(raw).text
    assert normalize(once).text == once


@given(TEXT_ST)
def test_normalize_output_shape(raw):
    out = normalize(raw).text
    assert set(out) <= set("abcdefghijklmnopqrstuvwxyz ")
    assert not out.startswith(" ")
    assert "  " not in out


def test_key_sequence_validation():
    KeySequence("ab c ")
    with pytest.raises(ValueError):
        KeySequence(" ab")
    with pytest.raises(ValueError):
        KeySequence("a  b")
    with pytest.raises(ValueError):
        KeySequence("ab1")
    with pytest.raises(ValueError):
        KeySequence("AB")


def test_letter_count():
    seq = KeySequence("ab c ")
    assert seq.letter_count == 3
    assert usable_letter_count(seq) == 3
    assert len(seq) == 5


def test_clean_tweet_text_excises_urls():
    p = IngestPolicy()
    assert clean_tweet_text("check https://x.co/a now", p) == "check  now"
    assert clean_tweet_text("see t.co/abc123 ok", p) == "see  ok"
    assert clean_tweet_text("tail http://b.c", p) == "tail "
    assert clean_tweet_text("no urls here", p) == "no urls here"
    kept = IngestPolicy(strip_urls=False)
    assert clean_tweet_text("see t.co/abc123 ok", kept) == "see t.co/abc123 ok"


def test_is_retweet():
    assert is_retweet({"text": "RT @user: hi"})
    assert is_retweet({"text": "  RT @x y"})
    assert is_retweet({"text": "anything", "retweeted": True})
    assert not is_retweet({"text": "r t @ nope"})
    assert not is_retweet({"text": "shaRT @"})


def test_ingest_filters_joins_and_normalizes():
    records = [
        {"text": "First tweet!"},
        {"text": "RT @someone: drop me"},
        {"text": "Link https://t.co/xyz here"},
        {"text": "reposted", "retweeted": True},
        {"text": "Last one."},
    ]
    seq = ingest_tweets(records)
    assert seq.text == "first tweet link here last one"


def test_ingest_excises_urls_at_record_boundaries():
    # URLs are cut from the joined text: one ends a record, the next
    # record opens with another, and neither takes the joining space.
    records = [{"text": "see https://a.b/c"}, {"text": "t.co/xyz then"}, {"text": "http://q"}, {"text": "at.co/k"}]
    assert ingest_tweets(records).text == "see then atcok"


def test_ingest_truncates_raw_before_normalizing():
    # 30 raw chars cut the joined text mid-word; the tail never reaches
    # the normalizer.
    records = [{"text": "abcde fghij"}, {"text": "klmno pqrst"}]
    policy = IngestPolicy(max_raw_chars=30)
    assert ingest_tweets(records, policy).text == "abcde fghij klmno pqrst"[:30].rstrip()
    policy = IngestPolicy(max_raw_chars=14)
    assert ingest_tweets(records, policy).text == "abcde fghij kl"


def test_ingest_empty_after_filtering_raises():
    with pytest.raises(EmptyCorpusError):
        ingest_tweets([{"text": "RT @a: gone"}])
    with pytest.raises(EmptyCorpusError):
        ingest_tweets([])


def test_ingest_keeps_retweets_when_asked():
    policy = IngestPolicy(drop_retweets=False)
    assert ingest_tweets([{"text": "RT @a: kept"}], policy).text == "rt a kept"


def test_policy_validation_and_round_trip():
    with pytest.raises(ValueError):
        IngestPolicy(max_raw_chars=0)
    p = IngestPolicy(max_raw_chars=500, strip_urls=False)
    assert IngestPolicy.from_json_dict(json.loads(json.dumps(p.to_json_dict()))) == p


def test_read_tweet_file_jsonl(tmp_path):
    path = tmp_path / "u.jsonl"
    path.write_text('{"text": "one"}\n\n{"text": "two", "retweeted": false}\n', encoding="utf-8")
    assert read_tweet_file(str(path)) == [{"text": "one"}, {"text": "two", "retweeted": False}]


def test_read_tweet_file_jsonl_errors(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"text": "ok"}\nnot json\n', encoding="utf-8")
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        read_tweet_file(str(bad))
    nofield = tmp_path / "nofield.jsonl"
    nofield.write_text('{"body": "ok"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match='"text"'):
        read_tweet_file(str(nofield))


def test_read_tweet_file_txt(tmp_path):
    path = tmp_path / "u.txt"
    path.write_text("line one\n\nline two\n", encoding="utf-8")
    assert read_tweet_file(str(path)) == [{"text": "line one"}, {"text": "line two"}]


def test_key_sequence_file_round_trip(tmp_path):
    seq = KeySequence("hello how are you ")
    path = tmp_path / "corpus.txt"
    write_key_sequence(seq, str(path))
    # Byte-exact persistence, trailing space included, no added newline.
    assert path.read_bytes() == b"hello how are you "
    assert read_key_sequence(str(path)) == seq
