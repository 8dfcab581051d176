"""Median, quartiles and spread of each metric over the runs in a results directory.

    python3 perfbench/summarize.py [.perfbench/results]

Groups the results files by workload and trace setting. The spread is
(Q3 - Q1) / median, with quartiles as ``statistics.quantiles(n=4)`` gives
them: the figure BENCHMARK.json's bounds are set against.
"""

from __future__ import annotations

import collections
import json
import statistics
import sys
from pathlib import Path

import stats


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / ".perfbench" / "results"
    groups = collections.defaultdict(list)
    for path in sorted(root.glob("*.json")):
        run = json.loads(path.read_text(encoding="utf-8"))
        groups[(run["workload"], run["trace"])].append(run)
    for (workload, trace), runs in sorted(groups.items()):
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{workload} trace={trace}: {len(runs)} runs, seeds {[r['seed'] for r in runs]}, "
              f"failed {failed} of {attempted}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            if len(values) < 2:
                print(f"  {name:34s} {med:12.5g} {unit}")
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:34s} median {med:12.5g} {unit:10s} Q1 {q1:12.5g} Q3 {q3:12.5g} "
                  f"spread {stats.quartile_spread(values):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
