"""keyswap benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cohort --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; keyswap is imported from its ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A fuller record (latencies, probes, machine facts, failures) goes to
``.perfbench_out/``, and the spans of a traced run next to it.

The load is a closed loop with one client: each user's chain starts
when the previous one ends. A run first generates its workload from the
seed (``generate.py``), then

1. warms the lazy tables with one short chain per search kind;
2. runs rounds. A round is one pass over the users, each user's chain
   being the public calls ``ingest -> optimize -> report`` makes
   (``chain.py``), then two runs of ``keyswap batch --threads 2`` over
   the manifest. A traced run runs every chain twice, untraced and
   traced, in alternating order, and, at the end of the pass, each user
   whose chain searches differently from the batch once more under the
   batch's search; it also times the aggregate and, once on the first
   user, each search its chain does not use. An untraced run starts ``probe.py`` in a fresh process five
   times, spread over the run, for set-up time and peak RSS;
3. checks every output, outside all timed spans (``checks.py``).

Rounds repeat until ``--seconds`` have passed (at least two), so a run
takes about that long plus set-up and checks; a slower program gets
fewer rounds, and every metric is per user, per batch or per call.

Timings are read against a machine whose speed moves: on a shared
2-vCPU virtual machine, one size-3 search took 0.49 to 1.03 s
within four minutes, with no steal time, changing every few seconds.
So every end-to-end figure is a median over the run: ``user_s_p50``
over users of each user's median untraced chain, ``users_per_s`` over
the batch runs, ``setup_s`` and ``peak_rss_mb`` over the probes. Each timing
among them is first scaled to a reference machine speed, measured by a
fixed kernel timed just before and just after it (``calib.py``); the
record keeps the raw wall-clock figures beside them. ``user_s_p90``,
taken over every untraced chain, is printed by the traced run, beside
the per-layer metrics, and carries no bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import sys
import time

import generate
from checkout import ROOT, check_imported_from_checkout, use_checkout_source

WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have ended."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def machine_facts(numpy) -> dict:
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg_start": loadavg(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(generate.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM unwinds like an exception, so the process pools keyswap opens
    # in `with` blocks and the work directory are shut down and removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    use_checkout_source()
    if not os.path.isdir(generate.BUNDLED_DIR):
        raise SystemExit(f"perfbench: bundled corpora missing under {generate.BUNDLED_DIR}")
    import numpy

    import keyswap

    check_imported_from_checkout(keyswap)
    from bench import BATCHES_PER_ROUND, Bench, tail_quantile
    from calib import REF_S

    facts = machine_facts(numpy)

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = os.path.join(WORK_ROOT, f"{tag}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    phases = {}
    clock = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        phases[name] = now - clock
        clock = now

    try:
        plan = generate.generate(args.workload, args.seed, work)
        phase("generate_s")
        bench = Bench(args, plan, work)
        bench.warm_up()
        phase("warm_up_s")
        cpu0 = cpu_seconds()
        bench.measure()
        if args.trace:
            bench.traced_extras()
        cpu_util = (cpu_seconds() - cpu0) / (time.perf_counter() - clock)
        phase("measure_s")
        bench.check()
        batch_bytes = bench.batch_bytes()
        phase("check_s")
        if args.trace:
            metrics = bench.per_layer(cpu_util, batch_bytes)
        else:
            metrics = bench.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    facts["loadavg_end"] = loadavg()

    n = len(bench.chain_seconds())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "users": len(plan["users"]),
        "rounds": bench.rounds,
        "phases_s": phases,
        "batch_runs": len(bench.batch_walls),
        "chain_samples": n,
        "chain_tail_quantile": tail_quantile(n),
        "latencies_s": bench.latencies,
        "batch_walls_s": bench.batch_walls,
        "batch_bytes": batch_bytes,
        "probes": bench.probes,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failures": bench.failures,
        "users_failed": sorted(uid for uid, bad in bench.user_failed.items() if bad),
        "calibration": {"ref_s": REF_S, "median_s": bench.cal.median_s(), "samples_s": bench.cal.samples},
        "raw_end_to_end": bench.raw_end_to_end(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT_ROOT, exist_ok=True)
    with open(os.path.join(OUT_ROOT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    if args.trace:
        bench.rec.write_jsonl(os.path.join(OUT_ROOT, f"{tag}.spans.jsonl"))

    print(f"# machine {json.dumps(facts)}")
    users = len(plan["users"])
    print(
        f"# {args.workload} seed {args.seed}: {bench.rounds} rounds of {users} user chains and "
        f"{BATCHES_PER_ROUND} batch runs; user_s_p50 over {users} users, each its median chain; "
        f"user_s_p90 (traced runs) over n={n} chains, taken at p{100 * tail_quantile(n):.0f}, the "
        f"highest with at least 10 chains beyond it; each timing scaled to the reference speed by "
        f"the kernel samples around it (median {bench.cal.median_s():.5f} s over "
        f"{len(bench.cal.samples)} samples, reference {REF_S} s)"
    )
    print(f"# raw wall-clock figures {json.dumps(record['raw_end_to_end'])}")
    for msg in bench.failures[:20]:
        print(f"# FAILED {msg}")
    print(f"# record {os.path.relpath(os.path.join(OUT_ROOT, tag + '.json'), ROOT)}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
