"""End-to-end command line behavior, run in-process through main()."""

from __future__ import annotations

import dataclasses
import json
import math
import multiprocessing
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import keyswap.cli
from keyswap.cli import DataError, UsageError, build_parser, main, resolve_settings
from keyswap.corpus import IngestPolicy
from keyswap.effort import EffortModel
from keyswap.geometry import DEFAULT_SPEC
from keyswap.optimizer import SearchConfig

TWEETS = [
    {"text": "Morning walk along the river, the light was unreal today."},
    {"text": "RT @bot: this retweet must never reach the corpus"},
    {"text": "Reading on the balcony https://t.co/abc123 until the rain started."},
    {"text": "Small goals for the week: water the plants, answer letters."},
    {"text": "The cat has decided the keyboard is a bed."},
]


def write_jsonl(path: Path, records) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("KEYSWAP_OUT_DIR", raising=False)
    monkeypatch.delenv("KEYSWAP_THREADS", raising=False)
    return tmp_path


def ingest(workdir) -> Path:
    write_jsonl(workdir / "u.jsonl", TWEETS)
    assert main(["ingest", "u.jsonl", "-o", "u.txt"]) == 0
    return workdir / "u.txt"


def test_ingest_writes_corpus_and_meta(workdir, capsys):
    corpus = ingest(workdir)
    text = corpus.read_text(encoding="utf-8")
    assert "retweet" not in text
    assert "t co" not in text and "https" not in text
    assert text.startswith("morning walk along the river")
    meta = json.loads((workdir / "u.meta.json").read_text(encoding="utf-8"))
    assert meta["records"] == 5
    assert meta["usable_letters"] == len(text.replace(" ", ""))
    assert meta["policy"]["max_raw_chars"] == 1200
    assert "usable letters" in capsys.readouterr().out


def test_ingest_txt_input(workdir):
    (workdir / "u.txt.in").write_text("plain line one\nplain line two\n", encoding="utf-8")
    assert main(["ingest", "u.txt.in", "-o", "u.txt"]) == 0
    assert (workdir / "u.txt").read_text() == "plain line one plain line two"


def test_ingest_reads_an_upper_case_jsonl_extension_as_json(workdir):
    river = (Path(__file__).parent / "data" / "river.jsonl").read_bytes()
    for name in ("river.jsonl", "RIVER.JSONL"):
        (workdir / name).write_bytes(river)
        assert main(["ingest", name, "-o", f"{name}.txt"]) == 0
    lower, upper = ((workdir / f"{name}.txt").read_bytes() for name in ("river.jsonl", "RIVER.JSONL"))
    assert upper == lower and not lower.startswith(b"text")


def test_ingest_policy_flags(workdir):
    write_jsonl(workdir / "u.jsonl", TWEETS)
    assert main(["ingest", "u.jsonl", "-o", "kept.txt", "--keep-retweets", "--max-raw-chars", "60"]) == 0
    kept = (workdir / "kept.txt").read_text()
    assert kept.startswith("morning walk")
    assert len(kept) <= 60


def test_ingest_data_errors(workdir, capsys):
    assert main(["ingest", "missing.jsonl", "-o", "x.txt"]) == 2
    write_jsonl(workdir / "rt.jsonl", [{"text": "RT @a: gone"}])
    assert main(["ingest", "rt.jsonl", "-o", "x.txt"]) == 2
    (workdir / "bad.jsonl").write_text("not json\n", encoding="utf-8")
    assert main(["ingest", "bad.jsonl", "-o", "x.txt"]) == 2
    err = capsys.readouterr().err
    assert "bad.jsonl:1" in err
    for record in ({"text": 12345}, {"text": None}, {"text": "hello", "retweeted": "no"}):
        write_jsonl(workdir / "typed.jsonl", [{"text": "fine"}, record])
        assert main(["ingest", "typed.jsonl", "-o", "x.txt"]) == 2
        assert "typed.jsonl:2" in capsys.readouterr().err
    # nested past the parser's recursion limit, and past Python's int-digit limit
    for line in ("[" * 5000, '{"text": ' + "1" * 5000 + "}"):
        (workdir / "odd.jsonl").write_text('{"text": "fine"}\n' + line + "\n", encoding="utf-8")
        assert main(["ingest", "odd.jsonl", "-o", "x.txt"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("keyswap: error: odd.jsonl:2: ") and len(err.splitlines()) == 1, err
    for name in ("latin.jsonl", "latin.txt"):
        (workdir / name).write_bytes(b"\xff\xfehello\n")
        assert main(["ingest", name, "-o", "x.txt"]) == 2
        assert capsys.readouterr().err.startswith(f"keyswap: error: {name}: ")


def test_ingest_rejects_symbol_only_corpus(workdir):
    write_jsonl(workdir / "sym.jsonl", [{"text": "12345 !!! ???"}])
    assert main(["ingest", "sym.jsonl", "-o", "x.txt"]) == 2


def optimize(workdir, *extra) -> Path:
    ingest(workdir)
    assert main(["optimize", "u.txt", "-o", "r.json", "--swaps", "1", *extra]) == 0
    return workdir / "r.json"


def test_optimize_writes_deterministic_result(workdir):
    result_path = optimize(workdir)
    first = result_path.read_bytes()
    data = json.loads(first)
    assert data["wall_time_s"] is None
    assert data["mode"] == "canonical"
    assert data["candidates"] == 325
    assert data["per_pct"] > 0
    assert main(["optimize", "u.txt", "-o", "r.json", "--swaps", "1"]) == 0
    assert result_path.read_bytes() == first


def test_optimize_cumulative_flag(workdir):
    ingest(workdir)
    assert main(["optimize", "u.txt", "-o", "c.json", "--swaps", "2", "--cumulative"]) == 0
    data = json.loads((workdir / "c.json").read_text())
    assert data["cumulative"] is True
    assert data["candidates"] == 1 + 325 + 44_850


def test_optimize_thread_flag_is_output_invariant(workdir):
    optimize(workdir)
    assert main(["optimize", "u.txt", "-o", "r3.json", "--swaps", "1", "--threads", "3"]) == 0
    assert (workdir / "r.json").read_bytes() == (workdir / "r3.json").read_bytes()


def test_optimize_usage_errors(workdir):
    ingest(workdir)
    # Triplet pairing is only defined for three swap pairs.
    assert main(["optimize", "u.txt", "-o", "x.json", "--swaps", "2", "--mode", "paper"]) == 1
    assert main(["optimize", "u.txt", "-o", "x.json", "--mode", "paper", "--cumulative"]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "u.txt", "-o", "x.json", "--swaps", "7"])
    assert exc.value.code == 1


def test_optimize_data_errors(workdir, capsys):
    assert main(["optimize", "nope.txt", "-o", "x.json"]) == 2
    (workdir / "raw.txt").write_text("Not Normalized!", encoding="utf-8")
    assert main(["optimize", "raw.txt", "-o", "x.json"]) == 2
    assert "not a normalized corpus" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_optimize_names_a_negative_base_cost(workdir, capsys, scale):
    # Fitts alpha < 0 makes this corpus's base cost negative on both geometries.
    (workdir / "u.txt").write_text("ab ab ab ba", encoding="utf-8")
    (workdir / "geo.json").write_text(json.dumps(DEFAULT_SPEC.scaled(scale).to_json_dict()), encoding="utf-8")
    argv = ["optimize", "u.txt", "-o", "r.json", "--swaps", "1", "--geometry", "geo.json"]
    assert main(argv + ["--model", "fitts", "--alpha", "-2.5", "--beta", "3.0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("keyswap: error: base layout cost is -") and err.count("\n") == 1, err
    assert "not positive" in err and not (workdir / "r.json").exists()


def test_report_outputs(workdir, capsys):
    optimize(workdir)
    assert main(["report", "--result", "r.json", "--corpus", "u.txt", "--out-dir", "rep"]) == 0
    rep = workdir / "rep"
    # user id defaults to the corpus stem
    assert sorted(p.name for p in rep.iterdir()) == [
        "u.optimized.svg",
        "u.pairs.csv",
        "u.qwerty.svg",
        "u.report.json",
    ]
    report = json.loads((rep / "u.report.json").read_text())
    assert report["user_id"] == "u"
    assert report["per_pct"] > 0
    csv = (rep / "u.pairs.csv").read_text().splitlines()
    assert csv[0] == "pair,usage_pct,d_qwerty_cm,d_opt_cm,ratio"
    assert len(csv) <= 16
    out = capsys.readouterr().out
    assert "improvement" in out


def test_report_verifies_with_the_result_model(workdir):
    optimize(workdir, "--model", "fitts", "--alpha", "0.2")
    assert json.loads((workdir / "r.json").read_text())["model"]["kind"] == "fitts"
    assert main(["report", "--result", "r.json", "--corpus", "u.txt", "--out-dir", "rep"]) == 0


def test_report_verifies_with_the_result_geometry(workdir):
    (workdir / "big.json").write_text(json.dumps(DEFAULT_SPEC.scaled(2.0).to_json_dict()), encoding="utf-8")
    optimize(workdir, "--geometry", "big.json")
    assert json.loads((workdir / "r.json").read_text())["geometry"]["key_width_mm"] == 9.52
    assert main(["report", "--result", "r.json", "--corpus", "u.txt", "--out-dir", "rep"]) == 0


def test_json_key_order_is_pinned(workdir):
    # key order is part of each file's bytes; a reordered key must fail here
    ingest(workdir)
    (workdir / "big.json").write_text(json.dumps(DEFAULT_SPEC.scaled(2.0).to_json_dict()), encoding="utf-8")
    assert main([
        "optimize", "u.txt", "-o", "r.json", "--model", "fitts", "--alpha", "0.2",
        "--geometry", "big.json", "--swaps", "1",
    ]) == 0
    assert main(["report", "--result", "r.json", "--corpus", "u.txt", "--out-dir", "rep"]) == 0

    def load(name):
        return json.loads((workdir / name).read_text(encoding="utf-8"))

    meta = load("u.meta.json")
    assert list(meta) == ["source", "records", "usable_letters", "key_presses", "policy"]
    policy_keys = ["max_raw_chars", "drop_retweets", "strip_urls", "fold_diacritics"]
    assert list(meta["policy"]) == policy_keys
    result = load("r.json")
    assert list(result) == [
        "swaps", "qwerty_cost_mm", "best_cost_mm", "per_pct", "candidates", "mode", "wall_time_s",
        "model", "geometry",
    ]
    model_keys = ["kind", "alpha", "beta", "key_area_mm2"]
    assert list(result["model"]) == model_keys
    assert list(result["geometry"]) == [
        "key_width_mm", "key_height_mm", "h_gap_mm", "v_gap_mm", "row_x_offsets_mm", "space_subkey_columns",
    ]
    report = load("rep/u.report.json")
    assert list(report) == [
        "user_id", "usable_letters", "total_qwerty_cm", "total_optimized_cm", "avg_qwerty_cm",
        "avg_optimized_cm", "per_pct", "swaps", "top_pairs", "top_letters", "top_usage_pct",
    ]
    assert list(report["top_pairs"][0]) == ["pair", "count", "usage_pct", "d_qwerty_cm", "d_opt_cm", "ratio"]
    search_keys = ["n_swap_pairs", "mode", "cumulative", "workers"]
    assert list(SearchConfig(n_swap_pairs=2).to_json_dict()) == search_keys
    fitts = SearchConfig(n_swap_pairs=2, model=EffortModel(kind="fitts", alpha=0.2))
    assert list(fitts.to_json_dict()) == search_keys + ["model"]
    assert list(fitts.to_json_dict()["model"]) == model_keys


def test_report_svg_dir_split(workdir):
    optimize(workdir)
    assert main([
        "report", "--result", "r.json", "--corpus", "u.txt",
        "--out-dir", "tables", "--svg-dir", "figures", "--user-id", "me",
    ]) == 0
    assert (workdir / "tables" / "me.report.json").exists()
    assert (workdir / "figures" / "me.qwerty.svg").exists()
    assert not (workdir / "tables" / "me.qwerty.svg").exists()


def test_report_rejects_tampered_result(workdir, capsys):
    result_path = optimize(workdir)
    data = json.loads(result_path.read_text())
    data["best_cost_mm"] *= 0.5
    result_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["report", "--result", "r.json", "--corpus", "u.txt", "--out-dir", "rep"]) == 2
    assert "does not verify" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, names",
    [
        ("swaps", [[["a"], "b"]], None),
        ("qwerty_cost_mm", "x", None),
        ("geometry", {"key_width_mm": "a"}, "geometry spec lacks the field 'key_height_mm'"),
    ],
    ids=["swap-letter-list", "cost-string", "geometry-lacks-field"],
)
def test_report_rejects_result_fields_of_the_wrong_type(workdir, capsys, key, value, names):
    result_path = optimize(workdir)
    data = json.loads(result_path.read_text())
    data[key] = value
    result_path.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--result", "r.json", "--corpus", "u.txt", "--out-dir", "rep"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("keyswap: error: malformed result file r.json: ") and len(err.splitlines()) == 1, err
    # the same words as a geometry file or config section that lacks the field
    assert names is None or err.endswith(f": {names}\n"), err


def test_report_rejects_wrong_corpus(workdir):
    optimize(workdir)
    (workdir / "other.txt").write_text("a completely different corpus", encoding="utf-8")
    assert main(["report", "--result", "r.json", "--corpus", "other.txt", "--out-dir", "rep"]) == 2


BATCH_TWEETS = {
    "alice": [
        {"text": "tea first then the long climb up the hill to the observatory"},
        {"text": "the market had one warm loaf left so the day counts as a win"},
    ],
    "bob": [
        {"text": "evening run along the canal, flat water, orange october sky"},
        {"text": "sorting old photographs from the trip made me want to go back"},
    ],
}


def write_batch_inputs(workdir, manifest_extra=None):
    users = []
    for uid, tweets in BATCH_TWEETS.items():
        write_jsonl(workdir / f"{uid}.jsonl", tweets)
        users.append({"id": uid, "corpus": f"{uid}.jsonl"})
    manifest = {"users": users, "search": {"n_swap_pairs": 1}}
    manifest.update(manifest_extra or {})
    (workdir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return workdir / "manifest.json"


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_batch_full_tree(workdir):
    write_batch_inputs(workdir, {"out_dir": "batch_out"})
    assert main(["batch", "manifest.json"]) == 0
    out = workdir / "batch_out"
    for uid in BATCH_TWEETS:
        for name in (
            "corpus.txt",
            "corpus.meta.json",
            "result.json",
            "scatter.svg",
            f"{uid}.report.json",
            f"{uid}.pairs.csv",
            f"{uid}.qwerty.svg",
            f"{uid}.optimized.svg",
        ):
            assert (out / uid / name).is_file(), (uid, name)
    batch = json.loads((out / "batch.json").read_text())
    assert [u["user_id"] for u in batch["users"]] == list(BATCH_TWEETS)
    assert all(u["status"] == "ok" for u in batch["users"])
    assert batch["aggregate"]["n_users"] == 2
    assert (out / "aggregate.json").is_file()
    assert (out / "aggregate_panels.svg").is_file()


def write_five_users(workdir) -> list[str]:
    """A manifest of five users, user k holding the first k + 1 of nine tweets; returns their ids."""
    tweets = [t for user in BATCH_TWEETS.values() for t in user] + TWEETS
    ids = [f"u{k}" for k in range(5)]
    for k, uid in enumerate(ids):
        write_jsonl(workdir / f"{uid}.jsonl", tweets[: k + 1])
    manifest = {"users": [{"id": uid, "corpus": f"{uid}.jsonl"} for uid in ids], "search": {"n_swap_pairs": 1}}
    (workdir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return ids


# 2 and 3 threads give uneven shares of the five users; 7 is capped at one share a user
@pytest.mark.parametrize("threads", [2, 3, 7])
def test_batch_is_byte_identical_across_runs_and_threads(workdir, capsys, threads):
    write_five_users(workdir)
    assert main(["batch", "manifest.json", "--out-dir", "a"]) == 0
    serial = capsys.readouterr()
    assert main(["batch", "manifest.json", "--out-dir", "b", "--threads", str(threads)]) == 0
    assert capsys.readouterr() == serial
    assert multiprocessing.active_children() == []
    assert tree_bytes(workdir / "a") == tree_bytes(workdir / "b")


def test_batch_worker_that_dies_fails_its_users_only(workdir, capsys, monkeypatch):
    ids = write_five_users(workdir)
    run_user, parent = keyswap.cli._batch_user, os.getpid()

    def dies_in_a_child(settings, user_id, tweet_path):
        if user_id == "u3" and os.getpid() != parent:
            os._exit(9)
        return run_user(settings, user_id, tweet_path)

    monkeypatch.setattr(keyswap.cli, "_batch_user", dies_in_a_child)
    # shares of 2 threads: u0, u2, u4 in this process; u1 and u3 in the child
    assert main(["batch", "manifest.json", "--out-dir", "d", "--threads", "2"]) == 3
    assert multiprocessing.active_children() == []
    rows = json.loads((workdir / "d" / "batch.json").read_text())["users"]
    assert [row["user_id"] for row in rows] == ids
    for row in rows[1::2]:
        assert row == {"user_id": row["user_id"], "status": "error", "message": "batch worker exited with code 9"}
    assert [row["status"] for row in rows[::2]] == ["ok"] * 3
    err = capsys.readouterr().err
    assert "u1: FAILED (batch worker exited with code 9)" in err and "u3: FAILED" in err
    assert "Traceback" not in err


def test_batch_interrupted_in_this_process_leaves_no_child_running(workdir, monkeypatch):
    write_five_users(workdir)
    run_user, parent = keyswap.cli._batch_user, os.getpid()

    def interrupted_here(settings, user_id, tweet_path):
        if user_id == "u2" and os.getpid() == parent:
            raise KeyboardInterrupt
        return run_user(settings, user_id, tweet_path)

    monkeypatch.setattr(keyswap.cli, "_batch_user", interrupted_here)
    with pytest.raises(KeyboardInterrupt):
        main(["batch", "manifest.json", "--out-dir", "k", "--threads", "2"])
    assert multiprocessing.active_children() == []


def test_batch_out_dir_precedence(workdir, monkeypatch):
    write_batch_inputs(workdir, {"out_dir": "from_manifest"})
    monkeypatch.setenv("KEYSWAP_OUT_DIR", "from_env")
    assert main(["batch", "manifest.json"]) == 0
    assert (workdir / "from_env" / "batch.json").exists()
    assert not (workdir / "from_manifest").exists()
    assert main(["batch", "manifest.json", "--out-dir", "from_flag"]) == 0
    assert (workdir / "from_flag" / "batch.json").exists()
    # an empty variable is unset, as an empty KEYSWAP_THREADS is
    monkeypatch.setenv("KEYSWAP_OUT_DIR", "")
    assert main(["batch", "manifest.json"]) == 0
    assert (workdir / "from_manifest" / "batch.json").exists()


def test_batch_out_dir_keeps_undecodable_bytes(workdir, monkeypatch):
    # a byte that is not UTF-8 comes out of the environment as U+DC80-U+DCFF, and goes back to the file system whole
    write_batch_inputs(workdir)
    monkeypatch.setenv("KEYSWAP_OUT_DIR", os.fsdecode(b"out\xff"))
    assert main(["batch", "manifest.json"]) == 0
    assert os.path.isfile(os.path.join(os.fsencode(workdir), b"out\xff", b"batch.json"))


def test_batch_partial_failure(workdir, capsys):
    manifest_path = write_batch_inputs(workdir)
    manifest = json.loads(manifest_path.read_text())
    manifest["users"].append({"id": "ghost", "corpus": "missing.jsonl"})
    manifest["users"].append({"id": "mute", "corpus": "mute.jsonl"})
    write_jsonl(workdir / "mute.jsonl", [{"text": "12345 !!! ???"}])
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["batch", "manifest.json", "--out-dir", "pb"]) == 3
    batch = json.loads((workdir / "pb" / "batch.json").read_text())
    statuses = {u["user_id"]: u["status"] for u in batch["users"]}
    assert statuses == {"alice": "ok", "bob": "ok", "ghost": "error", "mute": "error"}
    messages = {u["user_id"]: u.get("message") for u in batch["users"]}
    assert "missing.jsonl" in messages["ghost"]
    assert messages["mute"] == "empty corpus: no usable letters after normalization"
    err = capsys.readouterr().err
    assert "ghost: FAILED" in err and "mute: FAILED" in err


def test_batch_every_user_failing(workdir):
    (workdir / "manifest.json").write_text(
        json.dumps({"users": [{"id": "ghost", "corpus": "missing.jsonl"}]}),
        encoding="utf-8",
    )
    assert main(["batch", "manifest.json", "--out-dir", "x"]) == 2


def test_batch_manifest_validation(workdir):
    (workdir / "manifest.json").write_text(json.dumps({"users": []}), encoding="utf-8")
    assert main(["batch", "manifest.json"]) == 2
    (workdir / "manifest.json").write_text(
        json.dumps({"users": [{"id": "a", "corpus": "x"}, {"id": "a", "corpus": "y"}]}),
        encoding="utf-8",
    )
    assert main(["batch", "manifest.json"]) == 2
    (workdir / "manifest.json").write_text(
        json.dumps({"users": [{"id": "../up", "corpus": "x"}]}), encoding="utf-8"
    )
    assert main(["batch", "manifest.json"]) == 2
    assert main(["batch", "nothere.json"]) == 2


@pytest.mark.parametrize(
    "uid, message",
    [
        ("a\0b", "unusable as a directory name: 'a\\x00b'"),
        # the id names files whose text is UTF-8, which no lone surrogate encodes to
        ("a\udcff", "unusable as a directory name: 'a\\udcff'"),
        # the id is written into scatter.svg, and XML 1.0 holds no C0 control but
        # tab, LF and CR, and neither U+FFFE nor U+FFFF
        ("a\u0001b", "holds a character that XML cannot hold: 'a\\x01b'"),
        ("a\u001fb", "holds a character that XML cannot hold: 'a\\x1fb'"),
        ("a\ufffeb", "holds a character that XML cannot hold: 'a\\ufffeb'"),
        ("a\uffffb", "holds a character that XML cannot hold: 'a\\uffffb'"),
        (None, "must be a string, got null"),
        (True, "must be a string, got true"),
        (7, "must be a string, got 7"),
        ([], "must be a string, got []"),
    ],
)
def test_batch_rejects_an_unusable_user_id_before_any_output(workdir, capsys, uid, message):
    manifest_path = write_batch_inputs(workdir)
    manifest = json.loads(manifest_path.read_text())
    manifest["users"].append({"id": uid, "corpus": "alice.jsonl"})
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    before = all_paths(workdir)
    capsys.readouterr()
    assert main(["batch", "manifest.json"]) == 2
    err = capsys.readouterr().err
    assert err == f"keyswap: error: manifest user id {message}\n", err
    assert all_paths(workdir) == before


def test_batch_rejects_a_nul_corpus_path_before_any_output(workdir, capsys):
    manifest_path = write_batch_inputs(workdir)
    manifest = json.loads(manifest_path.read_text())
    manifest["users"].append({"id": "b", "corpus": "ali\0ce.jsonl"})
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    before = all_paths(workdir)
    capsys.readouterr()
    assert main(["batch", "manifest.json"]) == 2
    err = capsys.readouterr().err
    assert err == "keyswap: error: manifest corpus path of user 'b' holds a NUL character: 'ali\\x00ce.jsonl'\n", err
    assert all_paths(workdir) == before


def test_config_file_defaults(workdir):
    ingest(workdir)
    (workdir / "cfg.json").write_text(
        json.dumps({"search": {"n_swap_pairs": 1}, "top_pairs": 3}), encoding="utf-8"
    )
    assert main(["--config", "cfg.json", "optimize", "u.txt", "-o", "r.json"]) == 0
    assert json.loads((workdir / "r.json").read_text())["candidates"] == 325
    assert main(["--config", "cfg.json", "report", "--result", "r.json", "--corpus", "u.txt", "--out-dir", "rep"]) == 0
    csv = (workdir / "rep" / "u.pairs.csv").read_text().splitlines()
    assert len(csv) == 4  # header + top 3


def test_flag_overrides_config(workdir):
    ingest(workdir)
    (workdir / "cfg.json").write_text(json.dumps({"search": {"n_swap_pairs": 2}}), encoding="utf-8")
    assert main(["--config", "cfg.json", "optimize", "u.txt", "-o", "r.json", "--swaps", "1"]) == 0
    assert json.loads((workdir / "r.json").read_text())["candidates"] == 325


def test_threads_env_is_usage_checked(workdir, monkeypatch):
    ingest(workdir)
    monkeypatch.setenv("KEYSWAP_THREADS", "lots")
    assert main(["optimize", "u.txt", "-o", "x.json", "--swaps", "1"]) == 1


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_required_flag_is_usage_error(workdir):
    with pytest.raises(SystemExit) as exc:
        main(["ingest", "u.jsonl"])
    assert exc.value.code == 1


def test_geometry_flag(workdir):
    from keyswap.geometry import DEFAULT_SPEC

    ingest(workdir)
    spec = DEFAULT_SPEC.scaled(2.0).to_json_dict()
    (workdir / "geo.json").write_text(json.dumps(spec), encoding="utf-8")
    assert main(["optimize", "u.txt", "-o", "big.json", "--swaps", "1", "--geometry", "geo.json"]) == 0
    assert main(["optimize", "u.txt", "-o", "std.json", "--swaps", "1"]) == 0
    big = json.loads((workdir / "big.json").read_text())
    std = json.loads((workdir / "std.json").read_text())
    # Uniform scaling doubles every distance but moves no decisions.
    assert big["swaps"] == std["swaps"]
    assert big["qwerty_cost_mm"] == pytest.approx(2.0 * std["qwerty_cost_mm"], rel=1e-12)
    assert big["per_pct"] == pytest.approx(std["per_pct"], rel=1e-9)


SETTINGS_CONFIG = {
    "policy": {"max_raw_chars": 150, "drop_retweets": False},
    "search": {"n_swap_pairs": 2, "cumulative": True},
    "model": {"kind": "fitts", "alpha": 0.2},
}


def test_batch_matches_ingest_and_optimize_under_one_config(workdir):
    write_jsonl(workdir / "u.jsonl", TWEETS)
    (workdir / "cfg.json").write_text(json.dumps(SETTINGS_CONFIG), encoding="utf-8")
    (workdir / "m.json").write_text(json.dumps({"users": [{"id": "u", "corpus": "u.jsonl"}]}), encoding="utf-8")
    assert main(["--config", "cfg.json", "ingest", "u.jsonl", "-o", "u.txt"]) == 0
    assert main(["--config", "cfg.json", "optimize", "u.txt", "-o", "r.json"]) == 0
    assert main(["--config", "cfg.json", "batch", "m.json", "--out-dir", "bo"]) == 0
    assert (workdir / "bo" / "u" / "corpus.txt").read_bytes() == (workdir / "u.txt").read_bytes()
    assert (workdir / "bo" / "u" / "result.json").read_bytes() == (workdir / "r.json").read_bytes()
    result = json.loads((workdir / "r.json").read_text())
    assert result["model"]["kind"] == "fitts" and result["cumulative"] is True
    assert "retweet" in (workdir / "u.txt").read_text()  # the policy keeps retweets


def test_manifest_sections_merge_over_config_key_by_key(workdir):
    write_batch_inputs(workdir, {
        "search": {"n_swap_pairs": 1},
        "model": {"alpha": 0.3},
        "policy": {"drop_retweets": False},
    })
    (workdir / "cfg.json").write_text(json.dumps(SETTINGS_CONFIG), encoding="utf-8")
    assert main(["--config", "cfg.json", "batch", "manifest.json", "--out-dir", "bo"]) == 0
    result = json.loads((workdir / "bo" / "alice" / "result.json").read_text())
    # one swap pair from the manifest, cumulative from the config
    assert result["cumulative"] is True
    assert result["candidates"] == 1 + 325
    assert (result["model"]["kind"], result["model"]["alpha"]) == ("fitts", 0.3)
    meta = json.loads((workdir / "bo" / "alice" / "corpus.meta.json").read_text())
    assert (meta["policy"]["max_raw_chars"], meta["policy"]["drop_retweets"]) == (150, False)


def test_threads_resolve_flag_over_env_over_manifest_over_config(monkeypatch):
    from keyswap.cli import build_parser, resolve_settings

    monkeypatch.delenv("KEYSWAP_THREADS", raising=False)
    config = {"search": {"workers": 2}}
    manifest = {"search": {"workers": 3}}
    args = build_parser().parse_args(["batch", "m.json"])
    assert resolve_settings(args, config).search.workers == 2
    assert resolve_settings(args, config, manifest).search.workers == 3
    monkeypatch.setenv("KEYSWAP_THREADS", "4")
    assert resolve_settings(args, config, manifest).search.workers == 4
    args = build_parser().parse_args(["batch", "m.json", "--threads", "5"])
    assert resolve_settings(args, config, manifest).search.workers == 5


# JSON integers are unbounded; some lie beyond the float range
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**1024, max_value=2**1030)
    | st.floats(allow_nan=False)
    | st.text(max_size=6)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
SECTION_KEYS = {
    "policy": [f.name for f in dataclasses.fields(IngestPolicy)],
    "search": [f.name for f in dataclasses.fields(SearchConfig)],
    "model": [f.name for f in dataclasses.fields(EffortModel)],
    "geometry": sorted(DEFAULT_SPEC.to_json_dict()),
}


def section_values(name: str):
    """Any JSON value; or an object over the section's own keys; or a valid geometry with fields replaced."""
    fields = st.dictionaries(st.sampled_from(SECTION_KEYS[name]), JSON_SCALARS | JSON_VALUES, max_size=4)
    fields |= st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=2)
    if name == "geometry":
        fields = fields.map(lambda d: {**DEFAULT_SPEC.to_json_dict(), **d})
    return JSON_VALUES | fields


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(SECTION_KEYS)).flatmap(lambda name: section_values(name).map(lambda v: {name: v})))
def test_any_json_settings_raise_only_usage_or_data_errors(config):
    # one section at a time, so that an earlier bad section does not hide it
    args = build_parser().parse_args(["batch", "m.json"])
    try:
        resolve_settings(args, config)
    except (UsageError, DataError):
        pass


# any code point, lone surrogates included, with words, URLs and retweet marks mixed in
ANY_UNICODE = st.lists(
    st.text(st.characters(exclude_categories=[]) | st.characters(categories=["Cs"]), max_size=4)
    | st.sampled_from(["word", " ", "\n", "RT @u ", "https://x.y/z ", "t.co/k"]),
    max_size=8,
).map("".join)
TWEET_RECORDS = st.fixed_dictionaries({"text": ANY_UNICODE}, optional={"retweeted": st.none() | st.booleans()})
ANY_RECORDS = st.fixed_dictionaries(
    {"text": JSON_VALUES | ANY_UNICODE}, optional={"retweeted": JSON_VALUES | ANY_UNICODE}
)
ANY_LINES = st.one_of(
    JSON_VALUES.map(lambda v: json.dumps(v).encode()),
    # a lone surrogate is escaped in the first form and raw, so not UTF-8, in the second
    ANY_RECORDS.map(lambda r: json.dumps(r).encode()),
    ANY_RECORDS.map(lambda r: json.dumps(r, ensure_ascii=False).encode("utf-8", "surrogatepass")),
    st.binary(max_size=30),
)
TWEET_LINES = TWEET_RECORDS.map(lambda r: json.dumps(r).encode())
# half the files hold only well-formed records, so that many get through to a search
TWEET_FILES = (st.lists(TWEET_LINES, max_size=5) | st.lists(TWEET_LINES | ANY_LINES, max_size=5)).map(b"\n".join)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(TWEET_FILES)
def test_any_tweet_file_ingests_or_fails_with_one_line(workdir, capsys, data):
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        tweets = os.path.join(tmp, "u.jsonl")
        Path(tweets).write_bytes(data)
        manifest = os.path.join(tmp, "m.json")
        Path(manifest).write_text(json.dumps({"users": [{"id": "u", "corpus": "u.jsonl"}], "search": {"n_swap_pairs": 1}}))
        capsys.readouterr()
        code = main(["ingest", tweets, "-o", os.path.join(tmp, "u.txt")])
        err = capsys.readouterr().err
        assert code in (0, 2) and len(err.splitlines()) == code // 2, err
        assert err.startswith("keyswap: error:") if code else not err, err
        batch_code = main(["batch", manifest, "--out-dir", os.path.join(tmp, "out"), "--threads", "1"])
        batch_err = capsys.readouterr().err
        assert batch_code in (0, 2), batch_err
        if code == 2:
            # the user's one line says what ingest said; then the batch fails with one more
            reason = err.removeprefix("keyswap: error: ").rstrip("\n")
            assert batch_err == f"u: FAILED ({reason})\nkeyswap: error: every user in the batch failed\n"
        elif batch_code == 2:
            assert batch_err.startswith("u: FAILED (") and len(batch_err.splitlines()) == 2, batch_err


BAD_WIDTH_SPEC = {**DEFAULT_SPEC.to_json_dict(), "key_width_mm": 0}
INFINITE_WIDTH_SPEC = {**DEFAULT_SPEC.to_json_dict(), "key_width_mm": math.inf}
BOOL_GAP_SPEC = {**DEFAULT_SPEC.to_json_dict(), "h_gap_mm": True}
HUGE_WIDTH_SPEC = {**DEFAULT_SPEC.to_json_dict(), "key_width_mm": 2**1024}
# a valid spec whose top-row keys all land on x = 1e300
OVERLAP_SPEC = {**DEFAULT_SPEC.to_json_dict(), "row_x_offsets_mm": [1e300, 2.885, 8.655, 8.655]}
DOUBLE_SPEC = DEFAULT_SPEC.scaled(2.0).to_json_dict()
ALL_COMMANDS = ("ingest", "optimize", "report", "batch")

# name, --config contents, manifest contents (a dict updates the default
# manifest, anything else replaces it), extra flags, exit code, commands
BAD_SETTINGS = [
    ("geometry-file-missing", None, None, ["--geometry", "nope.json"], 2, ("optimize", "report", "batch")),
    ("geometry-file-lacks-field", None, None, ["--geometry", "short.json"], 2, ("optimize", "report", "batch")),
    ("geometry-file-bad-width", None, None, ["--geometry", "flat.json"], 2, ("optimize", "report", "batch")),
    ("config-geometry-lacks-field", {"geometry": {"key_width_mm": 5}}, None, [], 2, ALL_COMMANDS),
    ("manifest-geometry-bad-width", None, {"geometry": BAD_WIDTH_SPEC}, [], 2, ("batch",)),
    ("config-not-an-object", [1, 2], None, [], 2, ALL_COMMANDS),
    ("config-section-not-an-object", {"search": 3}, None, [], 2, ALL_COMMANDS),
    ("manifest-not-an-object", None, [1, 2], [], 2, ("batch",)),
    ("top-pairs-flag-zero", None, None, ["--top-pairs", "0"], 1, ("report", "batch")),
    ("config-top-pairs-string", {"top_pairs": "x"}, None, [], 1, ("report", "batch")),
    ("manifest-top-pairs-zero", None, {"top_pairs": 0}, [], 1, ("batch",)),
    ("config-policy-invalid", {"policy": {"max_raw_chars": 0}}, None, [], 1, ("ingest", "batch")),
    ("manifest-policy-unknown-key", None, {"policy": {"max_chars": 10}}, [], 1, ("batch",)),
    ("config-policy-not-a-bool", {"policy": {"drop_retweets": "no"}}, None, [], 1, ("ingest", "batch")),
    ("config-policy-not-an-int", {"policy": {"max_raw_chars": 1.5}}, None, [], 1, ("ingest",)),
    ("config-search-invalid", {"search": {"n_swap_pairs": 2, "mode": "paper"}}, None, [], 1, ("optimize", "batch")),
    ("config-search-not-a-bool", {"search": {"n_swap_pairs": 1, "cumulative": "no"}}, None, [], 1, ("optimize", "batch")),
    ("manifest-search-invalid", None, {"search": {"n_swap_pairs": 4}}, [], 1, ("batch",)),
    ("model-inside-search", {"search": {"model": {"kind": "fitts"}}}, None, [], 1, ALL_COMMANDS),
    ("manifest-model-inside-search", None, {"search": {"model": {"kind": "fitts"}}}, [], 1, ("batch",)),
    ("config-model-invalid", {"model": {"kind": "nope"}}, None, [], 1, ("optimize", "batch")),
    ("config-model-alpha-string", {"model": {"kind": "fitts", "alpha": "x"}}, None, [], 1, ("optimize", "batch")),
    ("config-model-beta-nan", {"model": {"kind": "fitts", "beta": math.nan}}, None, [], 1, ("optimize", "batch")),
    ("config-model-alpha-infinite", {"model": {"kind": "fitts", "alpha": math.inf}}, None, [], 1, ("optimize", "batch")),
    ("config-model-key-area-bool", {"model": {"kind": "fitts", "key_area_mm2": True}}, None, [], 1, ("optimize", "batch")),
    ("config-model-alpha-beyond-float", {"model": {"kind": "fitts", "alpha": 2**1024}}, None, [], 1, ("optimize", "batch")),
    ("beta-flag-nan", None, None, ["--model", "fitts", "--beta", "nan"], 1, ("optimize",)),
    ("config-geometry-infinite-width", {"geometry": INFINITE_WIDTH_SPEC}, None, [], 2, ALL_COMMANDS),
    ("config-geometry-bool-gap", {"geometry": BOOL_GAP_SPEC}, None, [], 2, ALL_COMMANDS),
    ("config-geometry-width-beyond-float", {"geometry": HUGE_WIDTH_SPEC}, None, [], 2, ALL_COMMANDS),
    ("manifest-geometry-infinite-width", None, {"geometry": INFINITE_WIDTH_SPEC}, [], 2, ("batch",)),
    ("geometry-file-overlapping-slots", None, None, ["--geometry", "overlap.json"], 2, ("optimize", "report", "batch")),
    ("config-geometry-overlapping-slots", {"geometry": OVERLAP_SPEC}, None, [], 2, ALL_COMMANDS),
    ("manifest-geometry-overlapping-slots", None, {"geometry": OVERLAP_SPEC}, [], 2, ("batch",)),
    ("threads-flag-zero", None, None, ["--threads", "0"], 1, ("optimize", "batch")),
    ("config-out-dir-false", {"out_dir": False}, None, [], 1, ("ingest", "optimize", "batch")),
    ("config-out-dir-empty", {"out_dir": ""}, None, [], 1, ("ingest", "optimize", "batch")),
    ("config-out-dir-nul", {"out_dir": "a\0b"}, None, [], 1, ("ingest", "optimize", "batch")),
    ("manifest-out-dir-zero", None, {"out_dir": 0}, [], 1, ("batch",)),
    ("manifest-out-dir-list", None, {"out_dir": []}, [], 1, ("batch",)),
    ("manifest-out-dir-null", None, {"out_dir": None}, [], 1, ("batch",)),
    ("manifest-out-dir-nul", None, {"out_dir": "a\0b"}, [], 1, ("batch",)),
    # valid JSON, but no file name can hold a lone surrogate outside U+DC80-U+DCFF
    ("config-out-dir-lone-surrogate", {"out_dir": "\ud800x"}, None, [], 1, ("ingest", "optimize", "batch")),
    ("manifest-out-dir-lone-surrogate", None, {"out_dir": "\ud800x"}, [], 1, ("batch",)),
    # null is not the default spec, and a manifest's null does not discard the config's spec
    ("config-geometry-null", {"geometry": None}, None, [], 2, ALL_COMMANDS),
    ("manifest-geometry-null", {"geometry": DOUBLE_SPEC}, {"geometry": None}, [], 2, ("batch",)),
]

COMMAND_ARGV = {
    "ingest": ["ingest", "u.jsonl", "-o", "x.txt"],
    "optimize": ["optimize", "u.txt", "-o", "x.json", "--swaps", "1"],
    "report": ["report", "--result", "r.json", "--corpus", "u.txt", "--out-dir", "rep"],
    "batch": ["batch", "m.json"],
}


def all_paths(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*")}


@pytest.mark.parametrize(
    "command, config, manifest, flags, code",
    [
        pytest.param(command, config, manifest, flags, code, id=f"{name}-{command}")
        for name, config, manifest, flags, code, commands in BAD_SETTINGS
        for command in commands
    ],
)
def test_bad_settings_fail_with_one_line_before_any_output(workdir, capsys, command, config, manifest, flags, code):
    optimize(workdir)
    (workdir / "short.json").write_text(json.dumps({"key_width_mm": 5}), encoding="utf-8")
    (workdir / "flat.json").write_text(json.dumps(BAD_WIDTH_SPEC), encoding="utf-8")
    (workdir / "overlap.json").write_text(json.dumps(OVERLAP_SPEC), encoding="utf-8")
    default_manifest = {"users": [{"id": "u", "corpus": "u.jsonl"}], "search": {"n_swap_pairs": 1}}
    if isinstance(manifest, dict):
        manifest = {**default_manifest, **manifest}
    (workdir / "m.json").write_text(json.dumps(manifest or default_manifest), encoding="utf-8")
    argv = COMMAND_ARGV[command] + flags
    if config is not None:
        (workdir / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
        argv = ["--config", "cfg.json", *argv]
    before = all_paths(workdir)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("keyswap: error:"), err
    assert "Traceback" not in err
    assert all_paths(workdir) == before


def test_report_rejects_a_recorded_geometry_it_cannot_build(workdir, capsys):
    result = optimize(workdir)
    data = json.loads(result.read_text())
    (workdir / "overlap.json").write_text(json.dumps(OVERLAP_SPEC), encoding="utf-8")
    # the line names the result file only when its recorded spec is the one that fails
    for recorded, flags, prefix in [
        (OVERLAP_SPEC, [], "keyswap: error: malformed result file r.json: invalid geometry spec: "),
        (DOUBLE_SPEC, ["--geometry", "overlap.json"], "keyswap: error: invalid geometry spec: "),
    ]:
        result.write_text(json.dumps({**data, "geometry": recorded}), encoding="utf-8")
        before = all_paths(workdir)
        capsys.readouterr()
        assert main(["report", "--result", "r.json", "--corpus", "u.txt", "--out-dir", "rep", *flags]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(prefix), err
        assert "overlapping slot centers" in err
        assert all_paths(workdir) == before


@pytest.mark.parametrize("value", ["x", None, [], 7])
def test_a_spec_that_is_not_an_object_is_named_in_config_manifest_and_result(workdir, capsys, value):
    result = optimize(workdir)
    data = json.loads(result.read_text())
    (workdir / "cfg.json").write_text(json.dumps({"geometry": value}), encoding="utf-8")
    manifest = {"users": [{"id": "u", "corpus": "u.jsonl"}], "geometry": value}
    (workdir / "m.json").write_text(json.dumps(manifest), encoding="utf-8")
    (workdir / "bad.json").write_text(json.dumps({**data, "geometry": value}), encoding="utf-8")
    want = f"a geometry spec must be a JSON object, got {value!r}\n"
    for argv, prefix in [
        (["--config", "cfg.json", *COMMAND_ARGV["optimize"]], "invalid geometry spec: "),
        (["batch", "m.json"], "invalid geometry spec: "),
        (["report", "--result", "bad.json", "--corpus", "u.txt", "--out-dir", "rep"], "malformed result file bad.json: "),
    ]:
        before = all_paths(workdir)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"keyswap: error: {prefix}{want}", err
        assert all_paths(workdir) == before


# the geometry the result was searched under, the spec written into it
# (None: none), the config's spec and --geometry's; the winner must be the
# first, or the result would not verify
@pytest.mark.parametrize(
    "searched, recorded, config, flag",
    [
        ("half", "triple", "double", "half"),
        ("double", "double", "triple", None),
        ("triple", None, "triple", None),
        ("default", None, None, None),
        # a config spec that loses is not read, so a bad one does not fail the report
        ("double", "double", "overlap", None),
    ],
    ids=["flag", "recorded-over-config", "config-over-default", "default", "recorded-over-bad-config"],
)
def test_report_geometry_precedence(workdir, searched, recorded, config, flag):
    scales = {"default": 1.0, "half": 0.5, "double": 2.0, "triple": 3.0}
    specs = {name: DEFAULT_SPEC.scaled(scale).to_json_dict() for name, scale in scales.items()}
    specs["overlap"] = OVERLAP_SPEC
    for name, spec in specs.items():
        (workdir / f"{name}.json").write_text(json.dumps(spec), encoding="utf-8")
    result = optimize(workdir, "--geometry", f"{searched}.json")
    report = ["report", "--result", "r.json", "--corpus", "u.txt", "--user-id", "u"]
    assert main([*report, "--geometry", f"{searched}.json", "--out-dir", "want"]) == 0
    data = json.loads(result.read_text())
    data.pop("geometry", None)
    if recorded is not None:
        data["geometry"] = specs[recorded]
    result.write_text(json.dumps(data), encoding="utf-8")
    if config is not None:
        (workdir / "cfg.json").write_text(json.dumps({"geometry": specs[config]}), encoding="utf-8")
        report = ["--config", "cfg.json", *report]
    assert main([*report, *(["--geometry", f"{flag}.json"] if flag else []), "--out-dir", "got"]) == 0
    want = tree_bytes(workdir / "want")
    assert sorted(want) == ["u.optimized.svg", "u.pairs.csv", "u.qwerty.svg", "u.report.json"]
    assert tree_bytes(workdir / "got") == want


@pytest.mark.parametrize("out", ["nodir/r.json", "plain/r.json"])
def test_optimize_checks_its_output_directory_before_it_searches(workdir, capsys, monkeypatch, out):
    ingest(workdir)
    (workdir / "plain").write_text("not a directory", encoding="utf-8")

    def search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr("keyswap.cli.optimize", search)
    before = all_paths(workdir)
    capsys.readouterr()
    assert main(["optimize", "u.txt", "-o", out, "--mode", "paper"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("keyswap: error:"), err
    assert out in err
    assert all_paths(workdir) == before


HUGE_SPEC = {**DEFAULT_SPEC.to_json_dict(), **dict.fromkeys(("key_width_mm", "key_height_mm", "h_gap_mm", "v_gap_mm"), 1e306)}
NOT_FINITE = "layout costs are not finite on this corpus and geometry"


@pytest.mark.parametrize("flags", [["--swaps", "1"], [], ["--mode", "paper"]], ids=["size1", "default", "paper"])
def test_optimize_exits_2_with_one_line_when_costs_overflow(workdir, capsys, flags):
    ingest(workdir)
    (workdir / "huge.json").write_text(json.dumps(HUGE_SPEC), encoding="utf-8")
    before = all_paths(workdir)
    capsys.readouterr()
    assert main(["optimize", "u.txt", "-o", "r.json", "--geometry", "huge.json", *flags]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"keyswap: error: {NOT_FINITE}"), err
    assert all_paths(workdir) == before


def test_report_exits_2_with_one_line_when_costs_overflow(workdir, capsys):
    # a good result whose costs overflow under the geometry given to report
    optimize(workdir)
    (workdir / "huge.json").write_text(json.dumps(HUGE_SPEC), encoding="utf-8")
    before = all_paths(workdir)
    capsys.readouterr()
    assert main(["report", "--result", "r.json", "--corpus", "u.txt", "--geometry", "huge.json"]) == 2
    err = capsys.readouterr().err
    assert err == "keyswap: error: result does not verify against this corpus and geometry\n", err
    assert all_paths(workdir) == before


def test_batch_users_whose_result_does_not_verify_fail_with_the_report_line(workdir, capsys, monkeypatch):
    # one thread: every user runs in this process, where the audit is patched
    monkeypatch.setattr("keyswap.cli.verify_result", lambda *args: False)
    write_batch_inputs(workdir)
    capsys.readouterr()
    assert main(["batch", "manifest.json", "--threads", "1", "--out-dir", "vb"]) == 2
    line = "result does not verify against this corpus and geometry"
    batch = json.loads((workdir / "vb" / "batch.json").read_text())
    assert batch["users"] == [{"user_id": uid, "status": "error", "message": line} for uid in BATCH_TWEETS]
    assert batch["aggregate"] is None
    failed = "".join(f"{uid}: FAILED ({line})\n" for uid in BATCH_TWEETS)
    assert capsys.readouterr().err == failed + "keyswap: error: every user in the batch failed\n"
    # the audit comes before any report file
    for uid in BATCH_TWEETS:
        assert sorted(tree_bytes(workdir / "vb" / uid)) == ["corpus.meta.json", "corpus.txt", "result.json"]


def test_batch_users_whose_costs_overflow_fail_with_that_message(workdir, capsys):
    write_batch_inputs(workdir, {"geometry": HUGE_SPEC})
    assert main(["batch", "manifest.json", "--out-dir", "hb"]) == 2
    batch = json.loads((workdir / "hb" / "batch.json").read_text())
    assert [u["user_id"] for u in batch["users"]] == list(BATCH_TWEETS)
    for row in batch["users"]:
        assert row["status"] == "error" and row["message"].startswith(NOT_FINITE), row
    assert batch["aggregate"] is None
    assert "Warning" not in capsys.readouterr().err


# name, argv, the path the error line must name; "tweets_dir" and
# "corpus_dir" are directories, "plain" is a plain file, "deep.json" holds
# JSON nested past the parser's recursion limit
FILE_ERRORS = [
    ("ingest-input-is-a-directory", ["ingest", "tweets_dir", "-o", "x.txt"], "tweets_dir"),
    ("optimize-input-is-a-directory", ["optimize", "corpus_dir", "-o", "x.json", "--swaps", "1"], "corpus_dir"),
    ("report-corpus-is-a-directory", ["report", "--result", "r.json", "--corpus", "corpus_dir"], "corpus_dir"),
    ("ingest-output-parent-missing", ["ingest", "u.jsonl", "-o", "nodir/x.txt"], "nodir/x.txt"),
    ("optimize-output-parent-missing", ["optimize", "u.txt", "-o", "nodir/x.json", "--swaps", "1"], "nodir/x.json"),
    ("report-out-dir-is-a-file", ["report", "--result", "r.json", "--corpus", "u.txt", "--out-dir", "plain"], "plain"),
    ("report-svg-dir-is-a-file", ["report", "--result", "r.json", "--corpus", "u.txt", "--svg-dir", "plain"], "plain"),
    ("batch-out-dir-is-a-file", ["batch", "m.json", "--out-dir", "plain"], "plain"),
    ("config-nested-too-deep", ["--config", "deep.json", "ingest", "u.jsonl", "-o", "x.txt"], "deep.json"),
    ("batch-manifest-nested-too-deep", ["batch", "deep.json"], "deep.json"),
    ("geometry-nested-too-deep", ["optimize", "u.txt", "-o", "x.json", "--geometry", "deep.json"], "deep.json"),
    ("result-nested-too-deep", ["report", "--result", "deep.json", "--corpus", "u.txt"], "deep.json"),
]


@pytest.mark.parametrize(
    "argv, path", [pytest.param(argv, path, id=name) for name, argv, path in FILE_ERRORS]
)
def test_file_errors_exit_2_with_one_line_naming_the_path(workdir, capsys, argv, path):
    optimize(workdir)
    (workdir / "tweets_dir").mkdir()
    (workdir / "corpus_dir").mkdir()
    (workdir / "plain").write_text("not a directory", encoding="utf-8")
    (workdir / "deep.json").write_text("[" * 5000, encoding="utf-8")
    manifest = {"users": [{"id": "u", "corpus": "u.jsonl"}], "search": {"n_swap_pairs": 1}}
    (workdir / "m.json").write_text(json.dumps(manifest), encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("keyswap: error:"), err
    assert "Traceback" not in err
    assert path in err
