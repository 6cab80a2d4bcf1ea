"""One benchmark run: rounds of user chains and batch runs, checks, metrics.

Import after ``checkout.use_checkout_source()``; ``run.py`` is the entry point.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

import generate
from calib import Calibrator
from checkout import ROOT
from chain import kind_of, run_user, search
from checks import (
    PINNED,
    PINNED_KIND,
    outcome_failures,
    pin_failures,
    sampled_failures,
    tree_digest,
)
from keyswap import OptimizationResult, aggregate, build_geometry, verify_result
from keyswap.cli import main as keyswap_main
from keyswap.report import aggregate_panels_svg
from spans import NullRecorder, Recorder

PROBE_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")
SAMPLED_USERS = 2  # users per run whose search is re-scored on a candidate sample
PROBES = 5  # fresh-process set-up probes per untraced run
MIN_ROUNDS = 2
# batch runs per round: users_per_s is their median, and a batch runs on
# both cores, so its time varies more from run to run than a chain's
BATCHES_PER_ROUND = 2
LAYER_KINDS = ("size1", "size2", "size3_cum", "paper")


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """The highest quantile up to 0.9 with at least ten samples beyond it."""
    return max(0.5, min(0.9, 1.0 - 10.0 / n))


class Bench:
    """One run: the closed-loop chain passes, the batch runs, the checks."""

    def __init__(self, args, plan, work):
        self.args = args
        self.plan = plan
        self.work = work
        self.g = build_geometry()
        self.users = plan["users"]
        self.kinds = {u["kind"] for u in self.users}
        self.batch_kind = kind_of(plan["batch_search"])
        self.null = NullRecorder()
        self.rec = Recorder() if args.trace else self.null
        # traced chains under the batch's search, for users whose own chain
        # searches differently; kept apart so they do not enter the layer medians
        self.side = Recorder()
        self.cal = Calibrator()
        self.rounds = 0
        self.runs: list[tuple[str, object]] = []  # (user id, Outcome or error text) of every chain
        self.first_pass: dict[str, object] = {}  # user id -> Outcome of the first pass
        self.latencies: dict[str, list[float]] = {u["id"]: [] for u in self.users}  # untraced seconds
        # index of the calibration sample taken right before each timed item
        self.latency_cal: dict[str, list[int]] = {u["id"]: [] for u in self.users}
        self.batch_cal: list[int] = []
        self.probe_cal: list[int] = []
        self.overheads: list[float] = []  # traced minus untraced, per user
        # traced library seconds under the batch's search, per round and user
        self.library_s: list[dict[str, float]] = []
        self.batch_walls: list[float] = []
        self.batch_codes: list[int] = []
        self.batch_digests: list[dict[str, str]] = []
        self.batch_status: list[dict[str, dict]] = []
        self.probes: list[dict] = []
        self.attempted = 0  # checked items: chains, batch rows, probes
        self.failed = 0
        self.failures: list[str] = []
        self.user_failed: dict[str, bool] = {}  # every user checked -> whether any of its items failed

    # -- chain ---------------------------------------------------------

    def _chain(self, user, kind, rec):
        user_dir = os.path.join(self.work, "chain", user["id"])
        os.makedirs(user_dir, exist_ok=True)
        corpus = os.path.join(self.work, user["corpus"])
        first_span = len(rec.spans) if rec.enabled else 0
        t = time.perf_counter()
        try:
            outcome = run_user(self.g, user["id"], corpus, kind, user_dir, rec)
        except Exception as exc:  # noqa: BLE001 - a failing user is counted, not fatal
            outcome = f"{user['id']}: {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        self.runs.append((user["id"], outcome))
        if rec.enabled and kind == self.batch_kind and not isinstance(outcome, str):
            spans = rec.spans[first_span:]
            writes = sum(s.duration for s in spans if s.name == "report.write")
            self.library_s[-1][user["id"]] = spans[0].duration - writes
        return dt, outcome

    def warm_up(self) -> None:
        """One untraced chain per warm-up user (one per search kind) fills the lazy tables."""
        for user in self.plan["warm_users"]:
            self._chain(user, user["kind"], self.null)

    def measure(self) -> None:
        """Rounds for --seconds, at least MIN_ROUNDS of them: a pass over
        the users, then BATCHES_PER_ROUND batch runs.

        Untraced runs start PROBES set-up probes, spread over the run; the
        time they take does not count towards --seconds."""
        seconds = self.args.seconds
        probes = 0 if self.rec.enabled else PROBES
        t0 = time.perf_counter()
        while self.rounds < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
            while len(self.probes) < probes and time.perf_counter() - t0 >= len(self.probes) * seconds / probes:
                t = time.perf_counter()
                self._probe()
                t0 += time.perf_counter() - t
            self._chain_pass(self.rounds)
            for _ in range(BATCHES_PER_ROUND):
                self._batch()
            self.rounds += 1
        while len(self.probes) < probes:
            self._probe()

    def _probe(self) -> None:
        argv = [sys.executable, PROBE_SCRIPT, self.work]
        self.probe_cal.append(self.cal.sample())
        # a process group of its own, so that on any way out the probe and
        # the pool workers its chain forks are killed together
        proc = subprocess.Popen(
            argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
        )
        try:
            out, err = proc.communicate(timeout=150)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        self.cal.sample()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
        self.probes.append(json.loads(out.strip().splitlines()[-1]))

    def _chain_pass(self, r: int) -> None:
        self.library_s.append({})
        for i, user in enumerate(self.users):
            uid = user["id"]
            self.latency_cal[uid].append(self.cal.sample())
            if not self.rec.enabled:
                dt, outcome = self._chain(user, user["kind"], self.null)
                self.latencies[uid].append(dt)
            else:
                # untraced and traced back to back, alternating which goes first
                order = (self.null, self.rec) if (r + i) % 2 == 0 else (self.rec, self.null)
                times = {}
                for rec in order:
                    times[rec.enabled], out = self._chain(user, user["kind"], rec)
                    if rec.enabled:
                        outcome = out
                self.latencies[uid].append(times[False])
                self.overheads.append(times[True] - times[False])
            if r == 0:
                self.first_pass[uid] = outcome
        if self.rec.enabled:
            # users whose chain searches differently run the batch's search
            # here, together, just before the batch, so that both sides of
            # cli.batch_overhead_s are timed at the same machine speed
            for user in self.users:
                if user["kind"] != self.batch_kind:
                    self._chain(user, self.batch_kind, self.side)

    def traced_extras(self) -> None:
        """Traced runs only: the aggregate and the searches the chain does not use."""
        outcomes = [o for o in self.first_pass.values() if not isinstance(o, str)]
        reports = [o.report for o in outcomes]
        for _ in range(self.rounds):
            with self.rec.span("report.aggregate"):
                aggregate_panels_svg(aggregate(reports), reports)

        # every optimizer span is measured on every workload: kinds the
        # chain does not use are timed once on the first user's statistics
        for kind in LAYER_KINDS:
            if kind in self.kinds:
                continue
            try:
                result, verified = search(self.g, outcomes[0].stats, kind, self.rec, "layer-probe")
                fails = [] if verified else [f"layer-probe {kind}: verify_result rejected the result"]
            except Exception as exc:  # noqa: BLE001
                fails = [f"layer-probe {kind}: {type(exc).__name__}: {exc}"]
            self._count(outcomes[0].user_id, fails)

    # -- batch ---------------------------------------------------------

    def _batch(self) -> None:
        r = len(self.batch_walls)
        out = os.path.join(self.work, f"batch-{r}")
        manifest = os.path.join(self.work, "manifest.json")
        argv = ["batch", manifest, "--out-dir", out, "--threads", str(self.plan["batch_threads"])]
        self.batch_cal.append(self.cal.sample())
        with contextlib.redirect_stdout(io.StringIO()), self.rec.span("cli.batch"):
            t = time.perf_counter()
            code = keyswap_main(argv)
            self.batch_walls.append(time.perf_counter() - t)
        self.batch_codes.append(code)
        self.batch_digests.append(tree_digest(out))
        with open(os.path.join(out, "batch.json"), encoding="utf-8") as fh:
            self.batch_status.append({row["user_id"]: row for row in json.load(fh)["users"]})
        if r > 0:
            shutil.rmtree(out)

    # -- checks --------------------------------------------------------

    def _count(self, uid: str, fails: list[str]) -> None:
        """One checked item of user uid."""
        self.attempted += 1
        self.user_failed[uid] = self.user_failed.get(uid, False) or bool(fails)
        if fails:
            self.failed += 1
            self.failures.extend(fails)

    def check(self) -> None:
        rng = random.Random(f"check:{self.plan['workload']}:{self.args.seed}")
        firsts = [o for o in self.first_pass.values() if not isinstance(o, str)]
        sampled = {id(o) for o in rng.sample(firsts, min(SAMPLED_USERS, len(firsts)))}
        for uid, outcome in self.runs:
            if isinstance(outcome, str):
                self._count(uid, [outcome])
                continue
            fails = outcome_failures(outcome)
            if id(outcome) in sampled:
                fails += sampled_failures(self.g, outcome, rng)
            self._count(uid, fails)
        for r in range(len(self.batch_walls)):
            for user in self.users:
                self._count(user["id"], self._batch_user_failures(r, user["id"]))
        if not any(u["kind"] == PINNED_KIND and u["id"] in PINNED for u in self.users):
            self._check_pins()

    def _shared_files(self, r: int) -> dict[str, str]:
        return {k: v for k, v in self.batch_digests[r].items() if os.sep not in k}

    def _user_files(self, r: int, uid: str) -> dict[str, str]:
        prefix = uid + os.sep
        return {k: v for k, v in self.batch_digests[r].items() if k.startswith(prefix)}

    def _batch_user_failures(self, r: int, uid: str) -> list[str]:
        code = self.batch_codes[r]
        row = self.batch_status[r].get(uid)
        if code != 0 or row is None or row["status"] != "ok":
            return [f"batch {r}: exit code {code}, {uid}: {row}"]
        if r > 0:
            if self._user_files(r, uid) != self._user_files(0, uid):
                return [f"batch {r}: {uid} output bytes differ from the first batch"]
            if self._shared_files(r) != self._shared_files(0):
                return [f"batch {r}: aggregate output bytes differ from the first batch"]
            return []
        with open(os.path.join(self.work, "batch-0", uid, "result.json"), encoding="utf-8") as fh:
            data = json.load(fh)
        result = OptimizationResult.from_json_dict(data)
        fails = pin_failures(uid, self.batch_kind, result.swaps.pairs, result.per_pct)
        if not result.swaps.is_canonical():
            fails.append(f"batch: {uid} swap set {result.swaps} is not canonical")
        chained = self.first_pass.get(uid)
        if not isinstance(chained, str):
            if not verify_result(self.g, chained.stats, result):
                fails.append(f"batch: {uid} result does not verify")
            if chained.kind == self.batch_kind and data != chained.result.to_json_dict():
                fails.append(f"batch: {uid} result differs from the library chain's")
        return fails

    def _check_pins(self) -> None:
        """Workloads without the bundled users still check the pins, once a run."""
        pin_dir = os.path.join(self.work, "pins")
        os.makedirs(pin_dir, exist_ok=True)
        for uid in PINNED:
            try:
                outcome = run_user(self.g, uid, generate.bundled_path(uid), PINNED_KIND, pin_dir, self.null)
                fails = outcome_failures(outcome)
            except Exception as exc:  # noqa: BLE001
                fails = [f"pins {uid}: {type(exc).__name__}: {exc}"]
            self._count(uid, fails)

    # -- metrics -------------------------------------------------------

    def batch_bytes(self) -> int:
        out = os.path.join(self.work, "batch-0")
        return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(out) for f in files)

    def chain_seconds(self) -> list[float]:
        """Every untraced chain of the run, one sample per user and round."""
        return [x for v in self.latencies.values() for x in v]

    def scaled_chains(self) -> dict[str, list[float]]:
        """Each user's untraced chains in reference seconds (calib.py)."""
        return {
            uid: [dt * self.cal.scale(k) for dt, k in zip(v, self.latency_cal[uid])]
            for uid, v in self.latencies.items()
        }

    def user_s_p90(self) -> float:
        """The highest percentile up to p90 over every untraced chain, in reference seconds."""
        chains = [x for v in self.scaled_chains().values() for x in v]
        return quantile(chains, tail_quantile(len(chains)))

    def _batch_rates(self) -> list[float]:
        """Users completed per wall second, one per batch run."""
        return [
            sum(1 for row in status.values() if row["status"] == "ok") / wall
            for wall, status in zip(self.batch_walls, self.batch_status)
        ]

    def raw_end_to_end(self) -> dict[str, float]:
        """The end-to-end timings in wall seconds, as this run's machine speed gave them."""
        user_medians = [statistics.median(v) for v in self.latencies.values() if v]
        raw = {"user_s_p50": quantile(user_medians, 0.5), "users_per_s": statistics.median(self._batch_rates())}
        if self.probes:  # untraced runs only
            raw["setup_s"] = statistics.median(p["import_s"] for p in self.probes)
        return raw

    def end_to_end(self) -> dict:
        """Medians over the run of timings in reference seconds (calib.py).

        user_s_p50 is the median over users of each user's median chain."""
        user_medians = [statistics.median(v) for v in self.scaled_chains().values() if v]
        rates = [x / self.cal.scale(k) for x, k in zip(self._batch_rates(), self.batch_cal)]
        setups = [p["import_s"] * self.cal.scale(k) for p, k in zip(self.probes, self.probe_cal)]
        return {
            "user_s_p50": (quantile(user_medians, 0.5), "s"),
            "users_per_s": (statistics.median(rates), "users/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(p["maxrss_kb"] for p in self.probes) / 1024.0, "MB"),
        }

    def per_layer(self, cpu_util: float, batch_bytes: int) -> dict:
        """Median self time per span name; counts per user over the first pass."""
        user_ids = {u["id"] for u in self.users}
        self_s: dict[str, list[float]] = {}
        total_s: dict[str, float] = {}
        total_n: dict[str, float] = {}
        first: dict[str, dict[str, float]] = {}
        seen = set()
        for s, st in zip(self.rec.spans, self.rec.self_times()):
            self_s.setdefault(s.name, []).append(st)
            if s.user not in user_ids:
                continue
            total_s[s.name] = total_s.get(s.name, 0.0) + s.duration
            for key, v in s.counts.items():
                total_n[key] = total_n.get(key, 0.0) + v
                if (s.name, s.user) not in seen:
                    first.setdefault(key, {})[s.user] = v
            seen.add((s.name, s.user))

        def med(name: str) -> float:
            return statistics.median(self_s[name])

        def per_user(key: str) -> float:
            return sum(first[key].values()) / len(self.users)

        searched = sum(total_s[f"optimizer.{k}"] for k in self.kinds)
        # batch wall time not spent in the library calls its users make,
        # which run `parallel` at a time: settings, pool fork, file writes.
        # Each batch is set against the library passes of its own round,
        # timed just before it; the median over batches is reported, in wall
        # seconds. It is the difference of two times taken seconds apart, so
        # in a spell of swinging machine speed it can come out below 0.
        parallel = max(1, min(self.plan["batch_threads"], len(self.users)))
        aggregate_s = med("report.aggregate")
        batch_overhead = statistics.median(
            wall - sum(self.library_s[i // BATCHES_PER_ROUND].values()) / parallel - aggregate_s
            for i, wall in enumerate(self.batch_walls)
        )
        return {
            "user_s_p90": (self.user_s_p90(), "s"),
            "corpus.read_s": (med("corpus.read"), "s"),
            "corpus.ingest_s": (med("corpus.ingest"), "s"),
            "corpus.roundtrip_s": (med("corpus.roundtrip"), "s"),
            "corpus.ingest_mchars_per_s": (total_n["raw_chars"] / total_s["corpus.ingest"] / 1e6, "Mchars/s"),
            "corpus.raw_chars": (per_user("raw_chars"), "count"),
            "corpus.key_presses": (per_user("key_presses"), "count"),
            "stats.count_bigrams_s": (med("stats.count_bigrams"), "s"),
            "stats.keys_per_s": (total_n["key_presses"] / total_s["stats.count_bigrams"], "keys/s"),
            "stats.transitions": (per_user("transitions"), "count"),
            "optimizer.size3_cum_s": (med("optimizer.size3_cum"), "s"),
            "optimizer.size1_s": (med("optimizer.size1"), "s"),
            "optimizer.size2_s": (med("optimizer.size2"), "s"),
            "optimizer.paper_s": (med("optimizer.paper"), "s"),
            "optimizer.candidates": (per_user("candidates"), "count"),
            "optimizer.candidates_per_s": (total_n["candidates"] / searched, "1/s"),
            "optimizer.verify_s": (med("optimizer.verify"), "s"),
            "report.build_s": (med("report.build"), "s"),
            "report.svg_s": (med("report.svg"), "s"),
            "report.aggregate_s": (med("report.aggregate"), "s"),
            "report.bytes": (per_user("bytes"), "bytes"),
            "cli.batch_overhead_s": (batch_overhead, "s"),
            "cli.files_written": (len(self.batch_digests[0]), "count"),
            "cli.bytes_written": (batch_bytes, "bytes"),
            "proc.cpu_util": (cpu_util, "cpu/wall"),
            "trace.overhead_s": (statistics.median(self.overheads), "s"),
            "failed_frac": (sum(self.user_failed.values()) / len(self.user_failed), "ratio"),
        }
