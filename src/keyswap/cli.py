"""Command line interface: ingest, optimize, report, batch.

Exit codes: 0 success, 1 usage error, 2 data error, 3 batch finished
with some users failing.

Each stage of the pipeline has one function, which the single command and
batch both call: _ingest_stage reads and cleans a tweet file and writes the
corpus and its meta file, _search_stage searches a corpus and writes the
result, and _report_stage audits a result and writes its tables and
figures. The audit, verify_result against the corpus and geometry, comes
first: a result that fails it is a data error, and nothing is written.
batch runs the three for each user in _batch_user. With more than one
thread, _run_users gives user i to share i mod threads: the calling
process runs share 0, and one forked child runs each other share and
sends its outcomes back once, at the end. A child that dies fails its
users.

Every command resolves its settings once, through resolve_settings, before
it writes anything. The policy, search and model sections merge key by
key: flags over environment (KEYSWAP_THREADS for search.workers,
KEYSWAP_OUT_DIR for batch's out_dir) over the batch manifest over the
--config file over built-in defaults (1200 raw chars, 3 swaps, canonical
mode, distance model, 15 top pairs, out_dir "out"). A geometry spec is
taken whole: --geometry, else the manifest's, else the config's, and
only the one that wins is read; a null spec is a data error. report puts
the geometry its result records in the manifest's place. The model lives
only in the top-level "model" section; a "model" key inside "search" is
a usage error.

A setting value that fails validation exits 1, whichever layer it came
from. A config, manifest, geometry spec or result file that cannot be
parsed, or has the wrong shape, exits 2; so does a geometry spec with a
bad value or one that puts two keys on the same center. Any file a
command cannot read or write, whether input, output or output directory,
exits 2 too: main turns the OSError into one line that names the path.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import multiprocessing
import os
import sys
from dataclasses import dataclass, fields

from .corpus import (
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
    KeyboardGeometry,
    MissingSpecField,
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
from .stats import BigramStats, count_bigrams

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


class _SpecError(DataError):
    """A geometry spec that cannot be parsed or built."""


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


# what XML 1.0, so a user id's scatter.svg, cannot hold besides NUL and lone surrogates
_NOT_IN_XML = frozenset(map(chr, [*range(1, 9), 11, 12, *range(14, 32), 0xFFFE, 0xFFFF]))


def _encodes(text: str, encode=str.encode) -> bool:
    """Whether encode takes text: a lone surrogate fails in a file name or in UTF-8."""
    try:
        encode(text)
    except UnicodeEncodeError:
        return False
    return True


def _load_json(path: str, what: str) -> dict:
    """The JSON object in a file; anything else is a data error."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise DataError(f"cannot parse {what} {path}: {exc}")
    if not isinstance(data, dict):
        raise DataError(f"{what} {path} must hold a JSON object")
    return data


@dataclass(frozen=True)
class Settings:
    """Every setting of a command, resolved and validated once.

    search.workers holds the thread count: how many users batch runs at once.
    """

    policy: IngestPolicy
    search: SearchConfig
    geometry: KeyboardGeometry
    top_pairs: int
    out_dir: str


def resolve_settings(args, config: dict, manifest: dict | None = None) -> Settings:
    """Resolve flags > env > manifest > config > defaults for any command.

    The policy, search and model sections merge key by key; flag dests are
    named after the dataclass fields they set. A geometry spec is taken
    whole and built here, once. Bad values raise UsageError; a section
    that is not an object raises DataError, and a geometry spec that is
    bad or cannot be built, _SpecError.
    """
    layers = ((args.config, config), (getattr(args, "manifest", None), manifest or {}))

    def section(name: str, cls) -> dict:
        merged = {}
        for path, layer in layers:
            values = layer.get(name, {})
            if not isinstance(values, dict):
                raise DataError(f'{path}: "{name}" must be a JSON object')
            merged.update(values)
        for f in fields(cls):
            if getattr(args, f.name, None) is not None:
                merged[f.name] = getattr(args, f.name)
        return merged

    def top(key: str, default=None):
        for _, layer in layers:
            default = layer.get(key, default)
        return default

    # positional-only, so that a section key named like a parameter reaches make
    def build(what: str, make, /, *values, **named):
        try:
            return make(*values, **named)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"invalid {what}: {exc}")

    policy = build("ingest policy", IngestPolicy.from_json_dict, section("policy", IngestPolicy))
    model = build("effort model", EffortModel, **section("model", EffortModel))

    search = section("search", SearchConfig)
    if "model" in search:
        raise UsageError('the model goes in the top-level "model" section, not in "search"')
    env = os.environ.get(ENV_THREADS)
    if getattr(args, "workers", None) is None and env:
        try:
            search["workers"] = int(env)
        except ValueError:
            raise UsageError(f"{ENV_THREADS} must be an integer, got {env!r}")
    search = build("search settings", SearchConfig, model=model, **search)

    spec_path = getattr(args, "geometry", None)
    spec = _load_json(spec_path, "geometry spec") if spec_path else top("geometry", DEFAULT_SPEC.to_json_dict())
    try:
        geometry = build_geometry(GeometrySpec.from_json_dict(spec))
    except MissingSpecField as exc:
        raise _SpecError(str(exc))
    except (TypeError, ValueError) as exc:
        raise _SpecError(f"invalid geometry spec: {exc}")

    top_pairs = getattr(args, "top_pairs", None)
    if top_pairs is None:
        top_pairs = top("top_pairs", 15)
    if type(top_pairs) is not int or top_pairs < 1:
        raise UsageError(f"top_pairs must be an integer of at least 1, got {top_pairs!r}")
    out_dir = getattr(args, "out_dir", None) or os.environ.get(ENV_OUT_DIR) or top("out_dir", "out")
    if not isinstance(out_dir, str) or not out_dir or "\0" in out_dir or not _encodes(out_dir, os.fsencode):
        raise UsageError(f"out_dir must be a non-empty string without NUL that file names can hold, got {out_dir!r}")
    return Settings(
        policy=policy,
        search=search,
        geometry=geometry,
        top_pairs=top_pairs,
        out_dir=out_dir,
    )


def _read_corpus(path: str) -> KeySequence:
    try:
        return read_key_sequence(path)
    except ValueError as exc:
        raise DataError(f"{path} is not a normalized corpus: {exc}")


# ---------------------------------------------------------------------------
# commands


def _meta_path(out_path: str) -> str:
    root, ext = os.path.splitext(out_path)
    return (root if ext else out_path) + ".meta.json"


def _ingest_stage(tweet_path: str, policy: IngestPolicy, out_path: str, source: str | None = None) -> KeySequence:
    """Clean a tweet file into a corpus; write it and its meta file beside it.

    The meta file names its source when given one.
    """
    try:
        records = read_tweet_file(tweet_path)
        seq = ingest_tweets(records, policy)
    except ValueError as exc:
        raise DataError(str(exc))
    letters = usable_letter_count(seq)
    if letters == 0:
        raise DataError("empty corpus: no usable letters after normalization")
    write_key_sequence(seq, out_path)
    meta = {} if source is None else {"source": source}
    meta.update(records=len(records), usable_letters=letters, key_presses=len(seq), policy=policy.to_json_dict())
    _write_json(_meta_path(out_path), meta)
    return seq


def _search_stage(g, seq: KeySequence, search: SearchConfig, out_path: str) -> tuple[BigramStats, OptimizationResult]:
    """Search a corpus and write the result JSON."""
    stats = count_bigrams(seq)
    if stats.is_empty:
        raise DataError("empty corpus: nothing to optimize")
    try:
        result = optimize(g, stats, search)
    except ValueError as exc:
        raise DataError(str(exc))
    _write_json(out_path, result.to_json_dict())
    return stats, result


def cmd_ingest(args, config: dict) -> int:
    policy = resolve_settings(args, config).policy
    seq = _ingest_stage(args.input, policy, args.out, source=args.input)
    print(f"{args.out}: {usable_letter_count(seq)} usable letters, {len(seq)} key presses")
    return EXIT_OK


def _check_out_dir(path: str) -> None:
    """Raise the OSError that writing path would, if its directory is missing or not one."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        raise OSError(code, os.strerror(code), path)


def cmd_optimize(args, config: dict) -> int:
    # fail before the search, not after it, when -o cannot be written
    _check_out_dir(args.out)
    settings = resolve_settings(args, config)
    _, result = _search_stage(settings.geometry, _read_corpus(args.corpus), settings.search, args.out)
    swaps = " ".join(a + b for a, b in result.swaps.pairs) or "(none)"
    print(
        f"best swaps {swaps}  improvement {result.per_pct:.2f}%  "
        f"candidates {result.candidates}  wall {result.wall_time_s:.2f}s"
    )
    return EXIT_OK


def _report_stage(user_id, g, seq, stats, result, out_dir, svg_dir, k) -> UserReport:
    """Audit a result against its corpus and geometry, then write its tables and figures."""
    if not verify_result(g, stats, result):
        raise DataError("result does not verify against this corpus and geometry")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(svg_dir, exist_ok=True)
    base = qwerty_layout()
    report = build_user_report(user_id, g, stats, usable_letter_count(seq), result, k)
    _write_json(os.path.join(out_dir, f"{user_id}.report.json"), report.to_json_dict())
    _write_text(os.path.join(out_dir, f"{user_id}.pairs.csv"), pairs_csv(list(report.top_pairs)))
    _write_text(os.path.join(svg_dir, f"{user_id}.qwerty.svg"), heatmap_svg(g, base, stats))
    _write_text(
        os.path.join(svg_dir, f"{user_id}.optimized.svg"),
        heatmap_svg(g, apply_swaps(base, result.swaps), stats, highlight=result.swaps),
    )
    return report


def cmd_report(args, config: dict) -> int:
    data = _load_json(args.result, "result file")
    try:
        result = OptimizationResult.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed result file {args.result}: {exc}")
    # the geometry the result records takes the manifest's place
    recorded = {"geometry": data["geometry"]} if "geometry" in data else None
    try:
        settings = resolve_settings(args, config, recorded)
    except _SpecError as exc:
        if recorded is None or args.geometry:  # the spec that failed is not the result's
            raise
        raise DataError(f"malformed result file {args.result}: {exc}")
    seq = _read_corpus(args.corpus)
    stats = count_bigrams(seq)
    if stats.is_empty:
        raise DataError("empty corpus: nothing to report")
    user_id = args.user_id or os.path.splitext(os.path.basename(args.corpus))[0]
    out_dir = args.out_dir or "."
    svg_dir = args.svg_dir or out_dir
    report = _report_stage(user_id, settings.geometry, seq, stats, result, out_dir, svg_dir, settings.top_pairs)
    print(
        f"{user_id}: improvement {report.per_pct:.2f}%  "
        f"avg {report.avg_qwerty_cm:.2f} -> {report.avg_optimized_cm:.2f} cm per tap"
    )
    return EXIT_OK


def _error_text(exc: Exception) -> str:
    """The one line that says why a command or a batch user failed."""
    if isinstance(exc, OSError) and exc.filename is not None:
        return f"{exc.filename}: {exc.strerror}"
    return str(exc) if isinstance(exc, DataError) else f"{type(exc).__name__}: {exc}"


# one user of a batch; a top-level function, so that a spawned child can unpickle it
def _batch_user(settings: Settings, user_id: str, tweet_path: str) -> tuple[dict, UserReport | None]:
    """Run one user's pipeline; return its batch.json status row and its report."""
    try:
        user_dir = os.path.join(settings.out_dir, user_id)
        os.makedirs(user_dir, exist_ok=True)
        seq = _ingest_stage(tweet_path, settings.policy, os.path.join(user_dir, "corpus.txt"))
        stats, result = _search_stage(settings.geometry, seq, settings.search, os.path.join(user_dir, "result.json"))
        report = _report_stage(user_id, settings.geometry, seq, stats, result, user_dir, user_dir, settings.top_pairs)
        _write_text(
            os.path.join(user_dir, "scatter.svg"),
            pair_scatter_svg(list(report.top_pairs), user_id),
        )
    except Exception as exc:  # noqa: BLE001 - a user failure must not kill the batch
        return {"user_id": user_id, "status": "error", "message": _error_text(exc)}, None
    return {"user_id": user_id, "status": "ok", "per_pct": report.per_pct}, report


# a top-level function, so that a spawned child can unpickle it
def _run_share(run_user, ids: list[str], paths: list[str], conn) -> None:
    """Run one share of a batch in a child; send every outcome at once, at the end."""
    conn.send(list(map(run_user, ids, paths)))
    conn.close()


def _receive(conn):
    """What a child sent, or None if its pipe closed first."""
    with conn:
        try:
            return conn.recv()
        except EOFError:
            return None


def _run_users(run_user, ids: list[str], paths: list[str], workers: int) -> list[tuple[dict, UserReport | None]]:
    """Each user's (row, report), in manifest order.

    User i runs in share i % workers. The calling process runs share 0
    and then reads the children's pipes; workers == 1 forks nothing. A
    child whose pipe closes before it sends, or that exits nonzero, fails
    each user of its share. If the calling process raises, every child is
    killed before it is joined: a join alone could wait on a child that
    is blocked sending.
    """
    ctx = multiprocessing.get_context("fork" if "fork" in multiprocessing.get_all_start_methods() else None)
    children, readers = [], []
    try:
        for s in range(1, workers):
            reader, writer = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_run_share, args=(run_user, ids[s::workers], paths[s::workers], writer))
            child.start()
            children.append(child)
            readers.append(reader)
            # so that the pipe closes when the child ends, and no later child holds it open
            writer.close()
        own = list(map(run_user, ids[::workers], paths[::workers]))
        received = list(map(_receive, readers))
        for child in children:
            child.join()
    except BaseException:
        for child in children:
            child.kill()
            child.join()
        raise
    outcomes = [None] * len(ids)
    outcomes[::workers] = own
    for s, (child, share) in enumerate(zip(children, received), start=1):
        if share is None or child.exitcode:
            message = f"batch worker exited with code {child.exitcode}"
            share = [({"user_id": uid, "status": "error", "message": message}, None) for uid in ids[s::workers]]
        outcomes[s::workers] = share
    return outcomes


def cmd_batch(args, config: dict) -> int:
    manifest = _load_json(args.manifest, "manifest")
    users = manifest.get("users")
    if not isinstance(users, list) or not users:
        raise DataError(f"manifest {args.manifest} has no users")
    manifest_dir = os.path.dirname(os.path.abspath(args.manifest))
    ids, paths = [], []
    for row in users:
        if not isinstance(row, dict) or "id" not in row or not isinstance(row.get("corpus"), str):
            raise DataError('each manifest user needs an "id" and a "corpus" path')
        uid = row["id"]
        if not isinstance(uid, str):
            raise DataError(f"manifest user id must be a string, got {json.dumps(uid)}")
        if not uid or any(c in uid for c in "/\\\0") or uid in (".", "..", "batch.json", "aggregate.json", "aggregate_panels.svg") or not _encodes(uid):
            raise DataError(f"manifest user id unusable as a directory name: {uid!r}")
        if not _NOT_IN_XML.isdisjoint(uid):
            raise DataError(f"manifest user id holds a character that XML cannot hold: {uid!r}")
        if uid in ids:
            raise DataError(f"duplicate user id in manifest: {uid!r}")
        if "\0" in row["corpus"]:
            raise DataError(f"manifest corpus path of user {uid!r} holds a NUL character: {row['corpus']!r}")
        ids.append(uid)
        paths.append(os.path.join(manifest_dir, row["corpus"]))
    settings = resolve_settings(args, config, manifest)
    os.makedirs(settings.out_dir, exist_ok=True)
    run_user = functools.partial(_batch_user, settings)
    outcomes = _run_users(run_user, ids, paths, min(settings.search.workers, len(users)))

    statuses = [row for row, _ in outcomes]
    reports = [report for _, report in outcomes if report is not None]
    for row, report in outcomes:
        if report is None:
            print(f"{row['user_id']}: FAILED ({row['message']})", file=sys.stderr)
        else:
            print(f"{row['user_id']}: ok, improvement {report.per_pct:.2f}%")

    agg_dict = None
    if len(reports) >= 2:
        try:
            agg = aggregate(reports)
        except ValueError as exc:
            print(f"aggregate skipped: {exc}", file=sys.stderr)
        else:
            agg_dict = agg.to_json_dict()
            _write_json(os.path.join(settings.out_dir, "aggregate.json"), agg_dict)
            _write_text(
                os.path.join(settings.out_dir, "aggregate_panels.svg"),
                aggregate_panels_svg(agg, reports),
            )
    _write_json(os.path.join(settings.out_dir, "batch.json"), {"users": statuses, "aggregate": agg_dict})

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
    p.add_argument("--keep-retweets", dest="drop_retweets", action="store_false", default=None)
    p.add_argument("--keep-urls", dest="strip_urls", action="store_false", default=None)
    p.add_argument("--no-fold-diacritics", dest="fold_diacritics", action="store_false", default=None)

    p = sub.add_parser("optimize", help="search letter swaps for a normalized corpus")
    p.add_argument("corpus", help="normalized corpus file from ingest")
    p.add_argument("-o", "--out", required=True, help="result JSON output path")
    p.add_argument("--swaps", dest="n_swap_pairs", type=int, choices=(1, 2, 3))
    p.add_argument("--mode", choices=("canonical", "paper"))
    p.add_argument("--cumulative", action="store_true", default=None)
    p.add_argument("--threads", dest="workers", metavar="THREADS", type=int)
    p.add_argument("--model", dest="kind", choices=("distance", "fitts"))
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--key-area", dest="key_area_mm2", metavar="KEY_AREA", type=float)
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
    p.add_argument("--threads", dest="workers", metavar="THREADS", type=int)
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
        config = _load_json(args.config, "config file") if args.config else {}
        return COMMANDS[args.command](args, config)
    except UsageError as exc:
        print(f"keyswap: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"keyswap: error: {_error_text(exc)}", file=sys.stderr)
        return EXIT_DATA
