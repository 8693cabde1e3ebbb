"""Compare result files that perfbench/run.py writes to perfbench/out/.

    python3 perfbench/compare.py A-trace1.json B-trace1.json [C-trace0.json]

Checks that two traced runs of one workload report the same counters (every
per-layer metric with unit ``count``) and the same attempted and failed
operations; exits 1 if they do not.  Given an untraced run of the same
workload as well, it prints the tracing overhead: the traced pass from
parse to decision against the untraced one.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    a, b, *untraced = (json.loads(Path(path).read_text()) for path in argv)
    same = True
    for key in ("workload", "attempted", "failed"):
        if a[key] != b[key]:
            print(f"{key}: {a[key]} vs {b[key]}")
            same = False
    counters = sorted(k for k, m in a["metrics"].items() if m["unit"] == "count")
    for key in counters:
        va, vb = a["metrics"][key]["value"], b["metrics"].get(key, {}).get("value")
        if va != vb:
            print(f"{key}: {va} vs {vb}")
            same = False
    print(f"{len(counters)} counters {'identical' if same else 'DIFFER'}")
    for plain in untraced:
        traced_s = (a["metrics"]["trace.verdict_s"]["value"] + b["metrics"]["trace.verdict_s"]["value"]) / 2
        base_s = plain["metrics"]["verdict_s"]["value"]
        print(
            f"tracing overhead: verdict pass {traced_s:.3f} s traced,"
            f" {base_s:.3f} s untraced ({100 * (traced_s / base_s - 1):+.1f}%)"
        )
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
