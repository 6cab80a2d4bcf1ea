"""The result bytes of the reference searches and of the batch tree are pinned."""

from __future__ import annotations

import json

from result_digests import TABLE, result_digests


def test_result_files_and_batch_tree_match_their_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("KEYSWAP_OUT_DIR", raising=False)
    monkeypatch.delenv("KEYSWAP_THREADS", raising=False)
    want = json.loads(TABLE.read_text(encoding="utf-8"))
    got = result_digests(tmp_path)
    assert len(got["results"]) == 154
    keys = want["results"].keys() | got["results"].keys()
    moved = sorted(k for k in keys if want["results"].get(k) != got["results"].get(k))
    assert not moved, moved
    assert got["batch"] == want["batch"]
