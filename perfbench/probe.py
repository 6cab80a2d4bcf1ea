"""Fresh-process probe for set-up time and peak memory.

    python3 perfbench/probe.py WORKDIR

WORKDIR holds a generated workload (``plan.json`` and its corpora).
The probe times ``import keyswap``, then runs the chain of the
workload's largest user, so that ``ru_maxrss`` reflects the biggest
input. It prints one JSON line with the import time and ``ru_maxrss``
of this process in KiB.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from checkout import check_imported_from_checkout, use_checkout_source


def main() -> None:
    work = sys.argv[1]
    use_checkout_source()
    t0 = time.perf_counter()
    import keyswap

    import_s = time.perf_counter() - t0
    check_imported_from_checkout(keyswap)

    from chain import run_user
    from spans import NullRecorder

    with open(os.path.join(work, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    user = next(u for u in plan["users"] if u["id"] == plan["largest_user"])
    out_dir = os.path.join(work, f"probe-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    corpus = os.path.join(work, user["corpus"])
    run_user(keyswap.build_geometry(), user["id"], corpus, user["kind"], out_dir, NullRecorder())
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"import_s": import_s, "maxrss_kb": maxrss_kb}))


if __name__ == "__main__":
    main()
