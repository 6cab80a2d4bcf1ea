"""Command line interface: ingest, optimize, report, batch.

Exit codes: 0 success, 1 usage error, 2 data error, 3 batch finished
with some users failing. Settings resolve as flags over environment
(KEYSWAP_OUT_DIR, KEYSWAP_THREADS) over config/manifest values over
built-in defaults (1200 raw chars, 3 swaps, canonical mode, distance
model).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .corpus import (
    EmptyCorpusError,
    IngestPolicy,
    KeySequence,
    ingest_tweets,
    read_key_sequence,
    read_tweet_file,
    usable_letter_count,
    write_key_sequence,
)
from .effort import EffortModel
from .geometry import (
    DEFAULT_SPEC,
    GeometrySpec,
    apply_swaps,
    build_geometry,
    qwerty_layout,
)
from .optimizer import OptimizationResult, SearchConfig, optimize, verify_result
from .report import (
    UserReport,
    aggregate,
    aggregate_panels_svg,
    build_user_report,
    heatmap_svg,
    pair_scatter_svg,
    pairs_csv,
)
from .stats import count_bigrams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PARTIAL = 3

ENV_OUT_DIR = "KEYSWAP_OUT_DIR"
ENV_THREADS = "KEYSWAP_THREADS"


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we reserve that
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_json(path: str, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2) + "\n")


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DataError(f"{what} not found: {path}")
    except json.JSONDecodeError as exc:
        raise DataError(f"cannot parse {what} {path}: {exc}")


def _load_config(path: str | None) -> dict:
    return _load_json(path, "config file") if path else {}


def _geometry_from(args, config: dict):
    if getattr(args, "geometry", None):
        spec = GeometrySpec.from_json_file(args.geometry)
    elif "geometry" in config:
        spec = GeometrySpec.from_json_dict(config["geometry"])
    else:
        spec = DEFAULT_SPEC
    return build_geometry(spec)


def _policy_from(args, config: dict) -> IngestPolicy:
    base = dict(IngestPolicy().to_json_dict())
    base.update(config.get("policy", {}))
    if getattr(args, "max_raw_chars", None) is not None:
        base["max_raw_chars"] = args.max_raw_chars
    if getattr(args, "keep_retweets", False):
        base["drop_retweets"] = False
    if getattr(args, "keep_urls", False):
        base["strip_urls"] = False
    if getattr(args, "no_fold_diacritics", False):
        base["fold_diacritics"] = False
    try:
        return IngestPolicy.from_json_dict(base)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid ingest policy: {exc}")


def _threads_from(args, config: dict) -> int:
    if getattr(args, "threads", None) is not None:
        return args.threads
    env = os.environ.get(ENV_THREADS)
    if env:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"{ENV_THREADS} must be an integer, got {env!r}")
    return int(config.get("search", {}).get("workers", 1))


def _model_from(args, config: dict) -> EffortModel:
    cfg = dict(config.get("model", {}))
    if getattr(args, "model", None) is not None:
        cfg["kind"] = args.model
    if getattr(args, "alpha", None) is not None:
        cfg["alpha"] = args.alpha
    if getattr(args, "beta", None) is not None:
        cfg["beta"] = args.beta
    if getattr(args, "key_area", None) is not None:
        cfg["key_area_mm2"] = args.key_area
    try:
        return EffortModel(**cfg) if cfg else EffortModel()
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid effort model: {exc}")


def _search_config_from(args, config: dict, threads: int) -> SearchConfig:
    base = dict(config.get("search", {}))
    if getattr(args, "swaps", None) is not None:
        base["n_swap_pairs"] = args.swaps
    if getattr(args, "mode", None) is not None:
        base["mode"] = args.mode
    if getattr(args, "cumulative", False):
        base["cumulative"] = True
    base["workers"] = threads
    base.pop("model", None)
    try:
        return SearchConfig(model=_model_from(args, config), **base)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc))


def _read_corpus(path: str) -> KeySequence:
    try:
        return read_key_sequence(path)
    except FileNotFoundError:
        raise DataError(f"corpus file not found: {path}")
    except ValueError as exc:
        raise DataError(f"{path} is not a normalized corpus: {exc}")


# ---------------------------------------------------------------------------
# commands


def _meta_path(out_path: str) -> str:
    root, ext = os.path.splitext(out_path)
    return (root if ext else out_path) + ".meta.json"


def cmd_ingest(args, config: dict) -> int:
    policy = _policy_from(args, config)
    try:
        records = read_tweet_file(args.input)
    except FileNotFoundError:
        raise DataError(f"input file not found: {args.input}")
    except ValueError as exc:
        raise DataError(str(exc))
    try:
        seq = ingest_tweets(records, policy)
    except EmptyCorpusError as exc:
        raise DataError(str(exc))
    letters = usable_letter_count(seq)
    if letters == 0:
        raise DataError("empty corpus: no usable letters after normalization")
    write_key_sequence(seq, args.out)
    meta = {
        "source": args.input,
        "records": len(records),
        "usable_letters": letters,
        "key_presses": len(seq),
        "policy": policy.to_json_dict(),
    }
    _write_json(_meta_path(args.out), meta)
    print(f"{args.out}: {letters} usable letters, {len(seq)} key presses")
    return EXIT_OK


def cmd_optimize(args, config: dict) -> int:
    threads = _threads_from(args, config)
    cfg = _search_config_from(args, config, threads)
    g = _geometry_from(args, config)
    seq = _read_corpus(args.corpus)
    stats = count_bigrams(seq)
    if stats.is_empty:
        raise DataError("empty corpus: nothing to optimize")
    try:
        result = optimize(g, stats, cfg)
    except ValueError as exc:
        raise DataError(str(exc))
    _write_json(args.out, result.to_json_dict())
    swaps = " ".join(a + b for a, b in result.swaps.pairs) or "(none)"
    print(
        f"best swaps {swaps}  improvement {result.per_pct:.2f}%  "
        f"candidates {result.candidates}  wall {result.wall_time_s:.2f}s"
    )
    return EXIT_OK


def _report_outputs(user_id, g, seq, stats, result, out_dir, svg_dir, k):
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(svg_dir, exist_ok=True)
    base = qwerty_layout()
    optimized = apply_swaps(base, result.swaps)
    report = build_user_report(user_id, g, stats, usable_letter_count(seq), result, k)
    _write_json(os.path.join(out_dir, f"{user_id}.report.json"), report.to_json_dict())
    _write_text(os.path.join(out_dir, f"{user_id}.pairs.csv"), pairs_csv(list(report.top_pairs)))
    _write_text(
        os.path.join(svg_dir, f"{user_id}.qwerty.svg"), heatmap_svg(g, base, stats)
    )
    _write_text(
        os.path.join(svg_dir, f"{user_id}.optimized.svg"),
        heatmap_svg(g, optimized, stats, highlight=result.swaps),
    )
    return report


def cmd_report(args, config: dict) -> int:
    data = _load_json(args.result, "result file")
    try:
        result = OptimizationResult.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed result file {args.result}: {exc}")
    # the geometry the result records wins over config and defaults
    if "geometry" in data and not args.geometry:
        g = build_geometry(result.geometry)
    else:
        g = _geometry_from(args, config)
    seq = _read_corpus(args.corpus)
    stats = count_bigrams(seq)
    if stats.is_empty:
        raise DataError("empty corpus: nothing to report")
    if not verify_result(g, stats, result, result.model):
        raise DataError("result does not verify against this corpus and geometry")
    k = args.top_pairs if args.top_pairs is not None else int(config.get("top_pairs", 15))
    user_id = args.user_id or os.path.splitext(os.path.basename(args.corpus))[0]
    out_dir = args.out_dir or "."
    svg_dir = args.svg_dir or out_dir
    report = _report_outputs(user_id, g, seq, stats, result, out_dir, svg_dir, k)
    print(
        f"{user_id}: improvement {report.per_pct:.2f}%  "
        f"avg {report.avg_qwerty_cm:.2f} -> {report.avg_optimized_cm:.2f} cm per tap"
    )
    return EXIT_OK


# one user of a batch; must stay a top-level function so pools can pickle it
def _batch_user(task) -> tuple[str, bool, str, dict | None]:
    (user_id, corpus_path, out_dir, policy_dict, search_dict, model_dict, spec_dict, k) = task
    try:
        policy = IngestPolicy.from_json_dict(policy_dict)
        model = EffortModel(**model_dict) if model_dict else EffortModel()
        cfg = SearchConfig(model=model, **search_dict)
        spec = GeometrySpec.from_json_dict(spec_dict) if spec_dict else DEFAULT_SPEC
        g = build_geometry(spec)
        user_dir = os.path.join(out_dir, user_id)
        os.makedirs(user_dir, exist_ok=True)
        records = read_tweet_file(corpus_path)
        seq = ingest_tweets(records, policy)
        if usable_letter_count(seq) == 0:
            raise EmptyCorpusError("empty corpus: no usable letters after normalization")
        write_key_sequence(seq, os.path.join(user_dir, "corpus.txt"))
        _write_json(
            os.path.join(user_dir, "corpus.meta.json"),
            {
                "records": len(records),
                "usable_letters": usable_letter_count(seq),
                "key_presses": len(seq),
                "policy": policy.to_json_dict(),
            },
        )
        stats = count_bigrams(seq)
        result = optimize(g, stats, cfg)
        if not verify_result(g, stats, result, model):
            raise RuntimeError("internal consistency check failed for optimization result")
        _write_json(os.path.join(user_dir, "result.json"), result.to_json_dict())
        report = _report_outputs(user_id, g, seq, stats, result, user_dir, user_dir, k)
        _write_text(
            os.path.join(user_dir, "scatter.svg"),
            pair_scatter_svg(list(report.top_pairs), user_id),
        )
        return user_id, True, "", report.to_json_dict()
    except Exception as exc:  # noqa: BLE001 - a user failure must not kill the batch
        return user_id, False, f"{type(exc).__name__}: {exc}", None


def cmd_batch(args, config: dict) -> int:
    manifest = _load_json(args.manifest, "manifest")
    users = manifest.get("users")
    if not isinstance(users, list) or not users:
        raise DataError(f"manifest {args.manifest} has no users")
    seen_ids = set()
    for row in users:
        if not isinstance(row, dict) or "id" not in row or "corpus" not in row:
            raise DataError('each manifest user needs "id" and "corpus" fields')
        uid = str(row["id"])
        if not uid or any(c in uid for c in "/\\") or uid in (".", ".."):
            raise DataError(f"manifest user id unusable as a directory name: {uid!r}")
        if uid in seen_ids:
            raise DataError(f"duplicate user id in manifest: {uid!r}")
        seen_ids.add(uid)

    out_dir = (
        args.out_dir
        or os.environ.get(ENV_OUT_DIR)
        or manifest.get("out_dir")
        or config.get("out_dir")
        or "out"
    )
    threads = _threads_from(args, {**config, **manifest})
    if threads < 1:
        raise UsageError("threads must be at least 1")

    search = dict(manifest.get("search", config.get("search", {})))
    model_dict = search.pop("model", config.get("model", {}))
    search.pop("workers", None)
    policy = dict(IngestPolicy().to_json_dict())
    policy.update(config.get("policy", {}))
    policy.update(manifest.get("policy", {}))
    spec_dict = manifest.get("geometry", config.get("geometry"))
    if getattr(args, "geometry", None):
        spec_dict = GeometrySpec.from_json_file(args.geometry).to_json_dict()
    k = args.top_pairs if args.top_pairs is not None else int(manifest.get("top_pairs", config.get("top_pairs", 15)))

    user_workers = max(1, min(threads, len(users)))
    try:
        base_search = SearchConfig(model=EffortModel(**model_dict) if model_dict else EffortModel(), **search)
    except (TypeError, ValueError) as exc:
        raise DataError(f"manifest search config invalid: {exc}")

    manifest_dir = os.path.dirname(os.path.abspath(args.manifest))
    os.makedirs(out_dir, exist_ok=True)
    tasks = []
    for row in users:
        corpus_path = row["corpus"]
        if not os.path.isabs(corpus_path):
            corpus_path = os.path.join(manifest_dir, corpus_path)
        tasks.append(
            (
                str(row["id"]),
                corpus_path,
                out_dir,
                policy,
                {
                    "n_swap_pairs": base_search.n_swap_pairs,
                    "mode": base_search.mode,
                    "cumulative": base_search.cumulative,
                },
                model_dict,
                spec_dict,
                k,
            )
        )

    if user_workers > 1:
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )
        with ProcessPoolExecutor(max_workers=user_workers, mp_context=ctx) as pool:
            outcomes = list(pool.map(_batch_user, tasks))
    else:
        outcomes = [_batch_user(t) for t in tasks]

    statuses = []
    reports = []
    for user_id, ok, message, report_dict in outcomes:
        if ok:
            report = UserReport.from_json_dict(report_dict)
            reports.append(report)
            statuses.append({"user_id": user_id, "status": "ok", "per_pct": report.per_pct})
            print(f"{user_id}: ok, improvement {report.per_pct:.2f}%")
        else:
            statuses.append({"user_id": user_id, "status": "error", "message": message})
            print(f"{user_id}: FAILED ({message})", file=sys.stderr)

    agg_dict = None
    if len(reports) >= 2:
        try:
            agg = aggregate(reports)
        except ValueError as exc:
            print(f"aggregate skipped: {exc}", file=sys.stderr)
        else:
            agg_dict = agg.to_json_dict()
            _write_json(os.path.join(out_dir, "aggregate.json"), agg_dict)
            _write_text(
                os.path.join(out_dir, "aggregate_panels.svg"),
                aggregate_panels_svg(agg, reports),
            )
    _write_json(os.path.join(out_dir, "batch.json"), {"users": statuses, "aggregate": agg_dict})

    failures = sum(1 for s in statuses if s["status"] == "error")
    if failures == len(statuses):
        raise DataError("every user in the batch failed")
    return EXIT_PARTIAL if failures else EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="keyswap", description="Optimize keyboard letter swaps for one-finger typing.")
    parser.add_argument("--config", help="JSON file with default policy/search settings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="clean tweets into a normalized key stream")
    p.add_argument("input", help="tweet file (.jsonl with text fields, or .txt one per line)")
    p.add_argument("-o", "--out", required=True, help="normalized corpus output path")
    p.add_argument("--max-raw-chars", type=int)
    p.add_argument("--keep-retweets", action="store_true")
    p.add_argument("--keep-urls", action="store_true")
    p.add_argument("--no-fold-diacritics", action="store_true")

    p = sub.add_parser("optimize", help="search letter swaps for a normalized corpus")
    p.add_argument("corpus", help="normalized corpus file from ingest")
    p.add_argument("-o", "--out", required=True, help="result JSON output path")
    p.add_argument("--swaps", type=int, choices=(1, 2, 3))
    p.add_argument("--mode", choices=("canonical", "paper"))
    p.add_argument("--cumulative", action="store_true")
    p.add_argument("--threads", type=int)
    p.add_argument("--model", choices=("distance", "fitts"))
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--key-area", type=float)
    p.add_argument("--geometry", help="GeometrySpec JSON file")

    p = sub.add_parser("report", help="render tables and figures for a result")
    p.add_argument("--result", required=True, help="result JSON from optimize")
    p.add_argument("--corpus", required=True, help="the corpus the result was computed from")
    p.add_argument("--out-dir")
    p.add_argument("--svg-dir")
    p.add_argument("--top-pairs", type=int)
    p.add_argument("--user-id")
    p.add_argument("--geometry", help="GeometrySpec JSON file")

    p = sub.add_parser("batch", help="run the full pipeline for every user in a manifest")
    p.add_argument("manifest", help="batch manifest JSON")
    p.add_argument("--out-dir")
    p.add_argument("--threads", type=int)
    p.add_argument("--top-pairs", type=int)
    p.add_argument("--geometry", help="GeometrySpec JSON file")

    return parser


COMMANDS = {
    "ingest": cmd_ingest,
    "optimize": cmd_optimize,
    "report": cmd_report,
    "batch": cmd_batch,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return COMMANDS[args.command](args, config)
    except UsageError as exc:
        print(f"keyswap: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"keyswap: error: {exc}", file=sys.stderr)
        return EXIT_DATA


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
