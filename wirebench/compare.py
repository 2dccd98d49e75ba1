"""Compare two sets of wirebench run records, metric by metric.

    python3 wirebench/compare.py BASE_DIR CAND_DIR

Each directory holds the ``<workload>-seed<n>-trace<t>.json`` records that
``run.py --out DIR`` writes.  For every workload and end-to-end metric the
tool prints both medians, the change as a share of the base median, the
bound from ``BENCHMARK.json`` and each side's quartile spread.  Label
digests of records with the same workload and seed must match.

Timings are only compared between records made with the same BLAS/LAPACK
build, BLAS thread count and core count: when those differ the tool
refuses (exit 2).  Exit 1 means a metric got worse by more than its bound
or a label digest changed; 0 means neither.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List

from envinfo import blas_key

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> List[Dict[str, Any]]:
    paths = sorted(Path(directory).glob("*-trace0.json"))
    if not paths:
        raise SystemExit(f"no trace-0 run records in {directory}")
    return [json.loads(path.read_text()) for path in paths]


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, cand = load(argv[0]), load(argv[1])
    keys = {json.dumps(blas_key(r["environment"]), sort_keys=True)
            for r in base + cand}
    if len(keys) > 1:
        print("refusing to compare timings across BLAS configurations:")
        for key in sorted(keys):
            print(f"  {key}")
        return 2
    spec = json.loads(BENCHMARK.read_text())["end_to_end"]

    def by_metric(records):
        table: Dict[str, Dict[str, List[float]]] = defaultdict(
            lambda: defaultdict(list))
        for record in records:
            for name, entry in record["result"]["metrics"].items():
                table[record["workload"]][name].append(entry["value"])
        return table

    status = 0
    old, new = by_metric(base), by_metric(cand)
    for workload in sorted(set(old) & set(new)):
        print(f"{workload}:")
        for metric in spec:
            name = metric["name"]
            a, b = old[workload][name], new[workload][name]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma
            worse = -change if metric["better"] == "higher" else change
            verdict = "ok"
            if worse > metric["bound"]:
                verdict, status = "WORSE", 1
            elif max(spread(a), spread(b)) > metric["bound"]:
                verdict = "unresolved"
            print(f"  {name:22s} {ma:12.5g} -> {mb:12.5g} {metric['unit']:6s}"
                  f" {change:+8.2%} (bound {metric['bound']:.0%}, spread "
                  f"{spread(a):.1%}/{spread(b):.1%}) {verdict}")
    digests = {(r["workload"], r["seed"]): r["label_digests"][:1]
               for r in base}
    for record in cand:
        before = digests.get((record["workload"], record["seed"]))
        if before and record["label_digests"][:1] != before:
            print(f"label digest changed: {record['workload']} seed "
                  f"{record['seed']}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
