#!/usr/bin/env python3
"""Paired verdicts between two record sets of bench/e2e/run.py.

    python3 bench/e2e/compare.py PARENT.jsonl CHANGE.jsonl [--min-pairs=10]
    python3 bench/e2e/compare.py --baseline RECORDS.jsonl

A record set is the JSON lines that `run.py --trace=0 --record=FILE`
appends, one per untraced run. Record both commits with the same seeds,
alternating which commit runs first for each seed; runs pair up by
(workload, seed).

For every (end-to-end metric, workload) the verdict is, with the bound
taken from BENCHMARK.json:
  improved    the change wins at least 90 % of the pairs (ties count for
              neither side) and the medians differ by more than the
              parent's interquartile range;
  worse       the change's median is worse than the parent's by more
              than the bound;
  unresolved  either side's interquartile range, as a share of its
              median, exceeds the bound, and not every run of the
              change beats every run of the parent;
  no change   otherwise.
failed_frac (failed / attempted ops) gets its own row: any rise is
"worse". Records whose host blocks differ (cores, SIMD level, compiler,
build type, cleared environment) are refused. Exit status: 0, 1 when
any verdict is "worse", 2 when the records cannot be compared.

--baseline prints the median, quartiles and spread of every metric of
one record set (the content of baseline.json).
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
# Host fields that legitimately differ between the two sides.
SOURCE_KEYS = ("git_sha", "git_dirty")


class CompareError(Exception):
    """The record sets cannot be compared."""


def load_records(paths):
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            records += [json.loads(line) for line in f if line.strip()]
    return [r for r in records if r.get("trace", 0) == 0]


def host_of(record):
    return {k: v for k, v in record["host"].items() if k not in SOURCE_KEYS}


def check_hosts(*record_sets):
    hosts = {json.dumps(host_of(r), sort_keys=True) for rs in record_sets for r in rs}
    if len(hosts) > 1:
        raise CompareError("host blocks differ:\n  " + "\n  ".join(sorted(hosts)))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative(x, base):
    if base == 0:
        return 0.0 if x == 0 else float("inf")
    return x / abs(base)


def verdict(parent, change, bound, better):
    """Verdict for paired runs (parent[i] and change[i] share a seed)."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (c - p) > 0: the change is worse
    pq, cq = quartiles(parent), quartiles(change)
    spread = max(relative(pq[2] - pq[0], pq[1]), relative(cq[2] - cq[0], cq[1]))
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0) / len(parent)
    if better == "lower":
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    worse_by = relative(sign * (cq[1] - pq[1]), pq[1])
    if spread > bound:
        result = "improved" if all_better else "unresolved"
    elif wins >= 0.9 and abs(cq[1] - pq[1]) > pq[2] - pq[0]:
        result = "improved"
    elif worse_by > bound:
        result = "worse"
    else:
        result = "no change"
    return {"parent": pq, "change": cq, "wins": wins, "spread": spread, "verdict": result}


def failed_frac(records):
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 0.0


def pair_up(parent, change, min_pairs):
    """{workload: [(parent_record, change_record), ...]} paired by seed."""
    by_key = {(r["workload"], r["seed"]): r for r in change}
    pairs = defaultdict(list)
    for r in parent:
        other = by_key.get((r["workload"], r["seed"]))
        if other is not None:
            pairs[r["workload"]].append((r, other))
    if not pairs:
        raise CompareError("no (workload, seed) appears in both record sets")
    for workload, ps in pairs.items():
        if len(ps) < min_pairs:
            raise CompareError(f"{workload}: {len(ps)} pairs, need at least {min_pairs}")
    return pairs


def compare(parent, change, spec, min_pairs=10):
    """Rows of (workload, metric, bound, verdict dict)."""
    check_hosts(parent, change)
    rows = []
    for workload, ps in sorted(pair_up(parent, change, min_pairs).items()):
        for m in spec["end_to_end"]:
            a = [p["metrics"][m["name"]] for p, _ in ps]
            b = [c["metrics"][m["name"]] for _, c in ps]
            rows.append((workload, m["name"], m["bound"], verdict(a, b, m["bound"], m["better"])))
        fa = failed_frac([p for p, _ in ps])
        fb = failed_frac([c for _, c in ps])
        flag = "worse" if fb > fa else ("improved" if fb < fa else "no change")
        rows.append((workload, "failed_frac", 0.0,
                     {"parent": (fa, fa, fa), "change": (fb, fb, fb), "wins": 0.0,
                      "spread": 0.0, "verdict": flag}))
    return rows


def baseline(records, spec):
    """Median, quartiles and spread per (workload, end-to-end metric)."""
    check_hosts(records)
    out = {"host": host_of(records[0]) if records else {}, "workloads": {}}
    by_workload = defaultdict(list)
    for r in records:
        by_workload[r["workload"]].append(r)
    for workload, rs in sorted(by_workload.items()):
        metrics = {}
        for m in spec["end_to_end"]:
            q1, med, q3 = quartiles([r["metrics"][m["name"]] for r in rs])
            metrics[m["name"]] = {"median": med, "q1": q1, "q3": q3, "unit": m["unit"],
                                  "spread": relative(q3 - q1, med), "bound": m["bound"]}
        out["workloads"][workload] = {
            "runs": len(rs), "seeds": sorted(r["seed"] for r in rs),
            "git_sha": sorted({r["host"].get("git_sha", "unknown") for r in rs}),
            "metrics": metrics,
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("records", nargs="+", help="PARENT.jsonl CHANGE.jsonl, or with "
                        "--baseline one or more record files")
    parser.add_argument("--baseline", action="store_true")
    parser.add_argument("--min-pairs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        if args.baseline:
            print(json.dumps(baseline(load_records(args.records), spec), indent=1))
            return 0
        if len(args.records) != 2:
            raise CompareError("need exactly two record files: PARENT CHANGE")
        rows = compare(load_records(args.records[:1]), load_records(args.records[1:]),
                       spec, args.min_pairs)
    except CompareError as e:
        print(f"compare.py: refused: {e}", file=sys.stderr)
        return 2
    print(f"{'workload':16s} {'metric':18s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'won':>5s} {'bound':>6s}  verdict")
    for workload, name, bound, v in rows:
        def fmt(q):
            return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
        print(f"{workload:16s} {name:18s} {fmt(v['parent']):>34s} {fmt(v['change']):>34s} "
              f"{v['wins']:5.0%} {bound:6.0%}  {v['verdict']}")
    return 1 if any(v["verdict"] == "worse" for _, _, _, v in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
