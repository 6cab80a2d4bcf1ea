"""Summarize benchmark records: median, quartiles and spread per metric.

    python3 perfbench/summarize.py .perfbench_out/*.json [-o perfbench/baseline.json]

Each record is one run's JSON file from ``run.py``. Records are grouped
by workload and by trace mode; for every metric the summary gives the
run count, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, the distance
between the quartiles as a share of the median; the same goes for the
raw wall-clock end-to-end figures and the reference kernel's median.
Machine facts come from the records, with the lowest and highest load
average seen.
"""

from __future__ import annotations

import argparse
import json
import statistics


RAW_UNITS = {"user_s_p50": "s", "users_per_s": "users/s", "setup_s": "s"}


def _row(values: list[float], unit: str) -> dict:
    row = {"unit": unit, "runs": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
        row.update(q1=q1, q3=q3, spread=(q3 - q1) / q2 if q2 else None)
    return row


def summarize(paths: list[str]) -> dict:
    groups: dict[tuple[str, int], list[dict]] = {}
    machine = None
    loads: list[float] = []
    for path in sorted(paths):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
        m = rec["machine"]
        machine = machine or {k: m[k] for k in ("nproc", "cpus_usable", "python", "numpy", "platform")}
        loads += [v[0] for v in (m.get("loadavg_start"), m.get("loadavg_end")) if v]
    out: dict = {"machine": {**(machine or {}), "loadavg_1min_range": [min(loads), max(loads)] if loads else None}}
    workloads: dict = {}
    for (workload, trace), recs in sorted(groups.items()):
        workloads.setdefault(workload, {})["trace" if trace else "untraced"] = {
            "seeds": [r["seed"] for r in recs],
            "seconds": recs[0]["seconds"],
            "failed": sum(r["failed"] for r in recs),
            "attempted": sum(r["attempted"] for r in recs),
            "metrics": {
                name: _row([r["metrics"][name]["value"] for r in recs], recs[0]["metrics"][name]["unit"])
                for name in recs[0]["metrics"]
            },
            # wall-clock figures before scaling, and the reference kernel's median
            "raw": {name: _row([r["raw_end_to_end"][name] for r in recs], RAW_UNITS[name])
                    for name in recs[0]["raw_end_to_end"]},
            "calibration_median_s": _row([r["calibration"]["median_s"] for r in recs], "s"),
        }
    out["workloads"] = workloads
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("records", nargs="+")
    ap.add_argument("-o", "--out")
    args = ap.parse_args()
    text = json.dumps(summarize(args.records), indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")


if __name__ == "__main__":
    main()
