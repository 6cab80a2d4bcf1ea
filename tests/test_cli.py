"""End-to-end command line behavior, run in-process through main()."""

from __future__ import annotations

import dataclasses
import json
import math
import os
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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


def test_batch_is_byte_identical_across_runs_and_threads(workdir):
    write_batch_inputs(workdir)
    assert main(["batch", "manifest.json", "--out-dir", "a"]) == 0
    assert main(["batch", "manifest.json", "--out-dir", "b", "--threads", "2"]) == 0
    assert tree_bytes(workdir / "a") == tree_bytes(workdir / "b")


def test_batch_out_dir_precedence(workdir, monkeypatch):
    write_batch_inputs(workdir, {"out_dir": "from_manifest"})
    monkeypatch.setenv("KEYSWAP_OUT_DIR", "from_env")
    assert main(["batch", "manifest.json"]) == 0
    assert (workdir / "from_env" / "batch.json").exists()
    assert not (workdir / "from_manifest").exists()
    assert main(["batch", "manifest.json", "--out-dir", "from_flag"]) == 0
    assert (workdir / "from_flag" / "batch.json").exists()


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


BAD_WIDTH_SPEC = {**DEFAULT_SPEC.to_json_dict(), "key_width_mm": 0}
INFINITE_WIDTH_SPEC = {**DEFAULT_SPEC.to_json_dict(), "key_width_mm": math.inf}
BOOL_GAP_SPEC = {**DEFAULT_SPEC.to_json_dict(), "h_gap_mm": True}
HUGE_WIDTH_SPEC = {**DEFAULT_SPEC.to_json_dict(), "key_width_mm": 2**1024}
# a valid spec whose top-row keys all land on x = 1e300
OVERLAP_SPEC = {**DEFAULT_SPEC.to_json_dict(), "row_x_offsets_mm": [1e300, 2.885, 8.655, 8.655]}
ALL_COMMANDS = ("ingest", "optimize", "report", "batch")

# name, --config contents, manifest contents (a dict updates the default
# manifest, anything else replaces it), extra flags, exit code, commands
BAD_SETTINGS = [
    ("geometry-file-missing", None, None, ["--geometry", "nope.json"], 2, ("optimize", "report", "batch")),
    ("geometry-file-lacks-field", None, None, ["--geometry", "short.json"], 2, ("optimize", "report", "batch")),
    ("geometry-file-bad-width", None, None, ["--geometry", "flat.json"], 2, ("optimize", "report", "batch")),
    ("config-geometry-lacks-field", {"geometry": {"key_width_mm": 5}}, None, [], 2, ("optimize", "report", "batch")),
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
    ("config-geometry-infinite-width", {"geometry": INFINITE_WIDTH_SPEC}, None, [], 2, ("optimize", "report", "batch")),
    ("config-geometry-bool-gap", {"geometry": BOOL_GAP_SPEC}, None, [], 2, ("optimize", "report", "batch")),
    ("config-geometry-width-beyond-float", {"geometry": HUGE_WIDTH_SPEC}, None, [], 2, ("optimize", "report", "batch")),
    ("manifest-geometry-infinite-width", None, {"geometry": INFINITE_WIDTH_SPEC}, [], 2, ("batch",)),
    ("geometry-file-overlapping-slots", None, None, ["--geometry", "overlap.json"], 2, ("optimize", "report", "batch")),
    ("config-geometry-overlapping-slots", {"geometry": OVERLAP_SPEC}, None, [], 2, ("optimize", "report", "batch")),
    ("manifest-geometry-overlapping-slots", None, {"geometry": OVERLAP_SPEC}, [], 2, ("batch",)),
    ("threads-flag-zero", None, None, ["--threads", "0"], 1, ("optimize", "batch")),
]

COMMAND_ARGV = {
    "ingest": ["ingest", "u.jsonl", "-o", "x.txt"],
    "optimize": ["optimize", "u.txt", "-o", "x.json", "--swaps", "1"],
    "report": ["report", "--result", "r.json", "--corpus", "u.txt", "--out-dir", "rep"],
    "batch": ["batch", "m.json", "--out-dir", "bo"],
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
    result.write_text(json.dumps({**json.loads(result.read_text()), "geometry": OVERLAP_SPEC}), encoding="utf-8")
    before = all_paths(workdir)
    capsys.readouterr()
    assert main(["report", "--result", "r.json", "--corpus", "u.txt", "--out-dir", "rep"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("keyswap: error:"), err
    assert "overlapping slot centers" in err
    assert all_paths(workdir) == before


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
# "corpus_dir" are directories, "plain" is a plain file
FILE_ERRORS = [
    ("ingest-input-is-a-directory", ["ingest", "tweets_dir", "-o", "x.txt"], "tweets_dir"),
    ("optimize-input-is-a-directory", ["optimize", "corpus_dir", "-o", "x.json", "--swaps", "1"], "corpus_dir"),
    ("report-corpus-is-a-directory", ["report", "--result", "r.json", "--corpus", "corpus_dir"], "corpus_dir"),
    ("ingest-output-parent-missing", ["ingest", "u.jsonl", "-o", "nodir/x.txt"], "nodir/x.txt"),
    ("optimize-output-parent-missing", ["optimize", "u.txt", "-o", "nodir/x.json", "--swaps", "1"], "nodir/x.json"),
    ("report-out-dir-is-a-file", ["report", "--result", "r.json", "--corpus", "u.txt", "--out-dir", "plain"], "plain"),
    ("report-svg-dir-is-a-file", ["report", "--result", "r.json", "--corpus", "u.txt", "--svg-dir", "plain"], "plain"),
    ("batch-out-dir-is-a-file", ["batch", "m.json", "--out-dir", "plain"], "plain"),
]


@pytest.mark.parametrize(
    "argv, path", [pytest.param(argv, path, id=name) for name, argv, path in FILE_ERRORS]
)
def test_file_errors_exit_2_with_one_line_naming_the_path(workdir, capsys, argv, path):
    optimize(workdir)
    (workdir / "tweets_dir").mkdir()
    (workdir / "corpus_dir").mkdir()
    (workdir / "plain").write_text("not a directory", encoding="utf-8")
    manifest = {"users": [{"id": "u", "corpus": "u.jsonl"}], "search": {"n_swap_pairs": 1}}
    (workdir / "m.json").write_text(json.dumps(manifest), encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("keyswap: error:"), err
    assert "Traceback" not in err
    assert path in err
