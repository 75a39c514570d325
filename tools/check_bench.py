#!/usr/bin/env python3
"""Validates the telemetry JSON records and gates bench records against a baseline.

    tools/check_bench.py FILE...
    tools/check_bench.py --baseline perf/BENCH_seed.json FRESH.json...

Each FILE holds one JSON document or a list of them. Every document is
checked against its v1 schema:

  wck-run-report     -- one run of the pipeline (wckpt --telemetry, RunReport)
  wck-bench-record   -- a bench record wrapping a run report
                        (bench/* --bench-json, perf/BENCH_*.json)
  wck-quality-report -- per-band compression quality (wckpt analyze
                        --json, or a run report's optional `quality`)

Metric names are dotted lowercase, histogram quantiles are numbers with
len(buckets) == len(bounds) + 1, and an infinite PSNR is written as null.

With --baseline every document must be a wck-bench-record, and each one
is gated:
  * a record whose bench is in the baseline needs the same params and
    bytes.original, bytes.compressed, bytes.payload,
    compression_rate_percent and error.{mean_rel,max_rel,rmse} within
    +/-5 %, and every baseline stage in its stages_seconds. Stage times
    are not compared: across hosts only a 10x blowup could be told from
    noise, so timing is gated by paired runs on one runner instead
    (the e2e-paired CI job).
  * a record without one gates itself when its params carry
      serial_bytes and sharded_bytes (bench/micro_deflate): the WCKP
        container is at most 2 % larger than one zlib stream;
      simd_best_level (bench/micro_kernels): on a vector host at least
        2 speedup_<kernel> params reach 1.5x over scalar.
    Any other record without a baseline fails.

Exit 0 when every file passes; 1 on any problem, one line each on
stderr; 2 when the arguments or the baseline cannot be used.
"""

import argparse
import json
import re
import sys

RUN_REPORT = "wck-run-report"
BENCH_RECORD = "wck-bench-record"
QUALITY_REPORT = "wck-quality-report"
SCHEMA_VERSION = 1

SIZE_TOL = 0.05
SHARDED_TOL = 0.02
SIMD_SPEEDUP = 1.5
SIMD_MIN_KERNELS = 2

# Registry naming convention: dotted lowercase families, at least two
# segments ("server.rpc.put.seconds"). Later segments may carry digits
# and dashes because per-tenant metrics embed the tenant name
# ("server.tenant.rank-07.puts").
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_-]+)+$")


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_count(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


# (predicate, what the message says the value must be)
NUM = (is_num, "a number")
COUNT = (is_count, "a non-negative integer")
NONNEG = (lambda v: is_num(v) and v >= 0, "a non-negative number")
TEXT = (lambda v: isinstance(v, str) and v != "", "a non-empty string")
PSNR = (lambda v: v is None or is_num(v), "a number or null")  # +inf is written as null
FRACTION = (lambda v: is_num(v) and 0 <= v <= 1, "in [0, 1]")


class Checker:
    """Collects the problems of one document as "<where> must ..." lines."""

    def __init__(self):
        self.problems = []

    def expect(self, cond, msg):
        if not cond:
            self.problems.append(msg)
        return cond

    def is_object(self, obj, where):
        return self.expect(isinstance(obj, dict), f"{where} must be an object")

    def fields(self, obj, where, spec, optional=()):
        for key, (pred, desc) in spec.items():
            if key not in optional or key in obj:
                self.expect(pred(obj.get(key)), f"{where}.{key} must be {desc}")

    def header(self, doc, where, schema):
        self.expect(doc.get("schema") == schema,
                    f"{where}.schema must be {schema!r} (got {doc.get('schema')!r})")
        self.expect(doc.get("schema_version") == SCHEMA_VERSION,
                    f"{where}.schema_version must be {SCHEMA_VERSION}")

    def str_map(self, obj, where, spec, names=False):
        if not self.is_object(obj, where):
            return
        pred, desc = spec
        for k, v in obj.items():
            self.expect(k != "", f"{where} key {k!r} must be a non-empty string")
            self.expect(pred(v), f"{where}[{k!r}] must be {desc} (got {v!r})")
            if names:
                self.metric_name(k, where)

    def metric_name(self, name, where):
        self.expect(METRIC_NAME_RE.fullmatch(name) is not None,
                    f"{where} key {name!r} must be a dotted lowercase metric name "
                    "(e.g. 'server.rpc.put.seconds')")


ERROR_STATS = {"mean_rel": NUM, "max_rel": NUM, "max_abs": NUM, "rmse": NUM, "psnr": PSNR}
QUALITY_STATS = {"value_range": NUM, "count": NONNEG}


def check_error_stats(c, e, where, extra):
    if c.is_object(e, where):
        c.fields(e, where, dict(ERROR_STATS, **extra), optional=("psnr",))


def check_quality_report(c, doc, where):
    c.header(doc, where, QUALITY_REPORT)
    variables = doc.get("variables")
    if not c.expect(isinstance(variables, list), f"{where}.variables must be an array"):
        variables = []
    for i, v in enumerate(variables):
        vw = f"{where}.variables[{i}]"
        if not c.is_object(v, vw):
            continue
        c.fields(v, vw, {"name": TEXT, "shape": TEXT, "original_bytes": NONNEG,
                         "compressed_bytes": NONNEG, "bits_per_value": NONNEG})
        check_error_stats(c, v.get("coefficient_error"), f"{vw}.coefficient_error",
                          QUALITY_STATS)
        if "value_error" in v:
            check_error_stats(c, v["value_error"], f"{vw}.value_error", QUALITY_STATS)
        bands = v.get("bands")
        if c.expect(isinstance(bands, list) and bands, f"{vw}.bands must be a non-empty array"):
            for j, b in enumerate(bands):
                check_band(c, b, f"{vw}.bands[{j}]")
        spike = v.get("spike")
        if spike is not None and c.is_object(spike, f"{vw}.spike"):
            sw = f"{vw}.spike"
            parts = spike.get("partitions")
            c.fields(spike, sw, {"partitions": NONNEG, "occupancy": FRACTION, "quant_min": NUM,
                                 "quant_max": NUM, "domain_min": NUM, "domain_max": NUM})
            occupied = spike.get("occupied")
            c.expect(is_num(occupied) and 0 <= occupied <= (parts if is_num(parts) else 0),
                     f"{sw}.occupied must be in [0, partitions]")
    drift = doc.get("drift")
    if drift is not None and c.is_object(drift, f"{where}.drift"):
        dw = f"{where}.drift"
        c.expect(is_num(drift.get("cycles")) and drift["cycles"] > 0,
                 f"{dw}.cycles must be a positive number")
        for key in ("first", "last", "worst"):
            if c.is_object(drift.get(key), f"{dw}.{key}"):
                c.fields(drift[key], f"{dw}.{key}",
                         {"cycle": NUM, "mean_rel": NUM, "rmse": NUM, "psnr": PSNR})
        c.expect(isinstance(drift.get("points"), list), f"{dw}.points must be an array")


def check_band(c, b, bw):
    if not c.is_object(b, bw):
        return
    c.fields(b, bw, {"name": TEXT, "quantized_fraction": FRACTION, "psnr": PSNR})
    for key in ("level", "axis_mask"):
        c.expect(is_num(b.get(key)) and b[key] >= 1, f"{bw}.{key} must be >= 1")
    count, quantized = b.get("count"), b.get("quantized")
    c.expect(is_num(count) and count > 0, f"{bw}.count must be a positive number")
    c.expect(is_num(quantized) and 0 <= quantized <= (count if is_num(count) else 0),
             f"{bw}.quantized must be in [0, count]")
    check_error_stats(c, b.get("error"), f"{bw}.error", QUALITY_STATS)


def check_run_report(c, doc, where):
    if not c.is_object(doc, where):
        return
    c.header(doc, where, RUN_REPORT)
    c.fields(doc, where, {"tool": TEXT, "span_count": COUNT,
                          "compression_rate_percent": NUM},
             optional=("compression_rate_percent",))
    c.str_map(doc.get("params", {}), f"{where}.params",
              (lambda v: isinstance(v, str), "a string"))
    c.str_map(doc.get("stages_seconds", {}), f"{where}.stages_seconds", NONNEG)
    if c.is_object(doc.get("bytes"), f"{where}.bytes"):
        c.fields(doc["bytes"], f"{where}.bytes",
                 {"original": COUNT, "compressed": COUNT, "payload": COUNT})
    if doc.get("error") is not None:
        check_error_stats(c, doc["error"], f"{where}.error", {"count": COUNT})
    metrics = doc.get("metrics")
    if c.is_object(metrics, f"{where}.metrics"):
        mw = f"{where}.metrics"
        c.str_map(metrics.get("counters", {}), f"{mw}.counters", COUNT, names=True)
        c.str_map(metrics.get("gauges", {}), f"{mw}.gauges", NUM, names=True)
        hists = metrics.get("histograms", {})
        if c.is_object(hists, f"{mw}.histograms"):
            for name, h in hists.items():
                c.metric_name(name, f"{mw}.histograms")
                check_histogram(c, h, f"{mw}.histograms[{name!r}]")
    if doc.get("quality") is not None:
        if c.is_object(doc["quality"], f"{where}.quality"):
            check_quality_report(c, doc["quality"], f"{where}.quality")


def check_histogram(c, h, hw):
    if not c.is_object(h, hw):
        return
    # Quantiles and the bucket layout are optional (added in v1 without a
    # version bump: consumers ignore unknown keys).
    c.fields(h, hw, {k: NUM for k in ("count", "sum", "min", "max", "mean", "p50", "p95",
                                      "p99")}, optional=("p50", "p95", "p99"))
    if "bounds" in h or "buckets" in h:
        bounds, buckets = h.get("bounds"), h.get("buckets")
        c.expect(isinstance(bounds, list) and isinstance(buckets, list)
                 and len(buckets) == len(bounds) + 1 and all(is_num(x) for x in bounds)
                 and all(is_count(x) for x in buckets),
                 f"{hw} bounds/buckets must be arrays with len(buckets) == len(bounds) + 1")


def check_bench_record(c, doc, where):
    c.header(doc, where, BENCH_RECORD)
    c.fields(doc, where, {"bench": TEXT})
    check_run_report(c, doc.get("report"), f"{where}.report")


SCHEMAS = {BENCH_RECORD: check_bench_record, RUN_REPORT: check_run_report,
           QUALITY_REPORT: check_quality_report}


def load(path):
    """(valid documents, problems) of one file: one JSON document or a list."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return [], [f"{path}: unreadable or invalid JSON: {e}"]
    docs = [("$", doc)] if not isinstance(doc, list) else \
        [(f"$[{i}]", d) for i, d in enumerate(doc)]
    if not docs:
        return [], [f"{path}: holds an empty list"]
    valid, problems = [], []
    for where, d in docs:
        c = Checker()
        if c.is_object(d, where):
            check = SCHEMAS.get(d.get("schema"))
            if c.expect(check is not None, f"{where}.schema {d.get('schema')!r} is unknown "
                        f"(expected one of {', '.join(SCHEMAS)})"):
                check(c, d, where)
        problems += [f"{path}: {p}" for p in c.problems]
        if not c.problems:
            valid.append(d)
    return valid, problems


def rel_delta(fresh, base):
    if base == 0:
        return 0.0 if fresh == 0 else float("inf")
    return (fresh - base) / base


def gate_against(fresh, base):
    """Violations of a fresh run report against the baseline's."""
    if fresh.get("params", {}) != base.get("params", {}):
        return [f"params differ from baseline ({fresh.get('params', {})} vs "
                f"{base.get('params', {})}); rerun at baseline params"]
    out = []
    fb, bb = fresh["bytes"], base["bytes"]
    if fb["original"] != bb["original"]:
        out.append(f"bytes.original changed ({bb['original']} -> {fb['original']}) "
                   "with identical params")
    strict = [(f"bytes.{k}", fb[k], bb[k]) for k in ("compressed", "payload")]
    if "compression_rate_percent" in base:
        strict.append(("compression_rate_percent", fresh.get("compression_rate_percent", 0.0),
                       base["compression_rate_percent"]))
    if base.get("error") and fresh.get("error"):
        strict += [(f"error.{k}", fresh["error"][k], base["error"][k])
                   for k in ("mean_rel", "max_rel", "rmse")]
    for what, f, b in strict:
        delta = rel_delta(f, b)
        if abs(delta) > SIZE_TOL:
            out.append(f"{what} regressed {delta:+.1%} ({b} -> {f}, "
                       f"tolerance +/-{SIZE_TOL:.0%})")
    fresh_stages = fresh.get("stages_seconds", {})
    out += [f"stage '{s}' is in the baseline but missing from the fresh record"
            for s in base.get("stages_seconds", {}) if s not in fresh_stages]
    return out


def gate_itself(params):
    """Violations of a self-baselining record; None when it is not one."""
    if "serial_bytes" in params and "sharded_bytes" in params:
        try:
            serial, sharded = int(params["serial_bytes"]), int(params["sharded_bytes"])
        except ValueError:
            return [f"serial_bytes/sharded_bytes are not integers "
                    f"({params['serial_bytes']!r}, {params['sharded_bytes']!r})"]
        if serial <= 0:
            return [f"serial_bytes must be positive, got {serial}"]
        drift = sharded / serial - 1.0
        if drift > SHARDED_TOL:
            return [f"sharded_bytes {sharded} is {drift:+.2%} over serial_bytes {serial} "
                    f"(tolerance +{SHARDED_TOL:.0%})"]
        return []
    best = params.get("simd_best_level")
    if best is None:
        return None
    if best == "scalar":
        return []  # no vector level on this host; nothing to gate
    speedups = {}
    for key, value in params.items():
        if key.startswith("speedup_"):
            try:
                speedups[key[len("speedup_"):]] = float(value)
            except ValueError:
                return [f"{key} is not a number ({value!r})"]
    if not speedups:
        return [f"simd_best_level={best} but no speedup_<kernel> params"]
    fast = sorted(k for k, v in speedups.items() if v >= SIMD_SPEEDUP)
    if len(fast) < SIMD_MIN_KERNELS:
        return [f"only {len(fast)} speedup_<kernel> param(s) at >= {SIMD_SPEEDUP:g}x over "
                f"scalar ({', '.join(fast) or 'none'}); need {SIMD_MIN_KERNELS} with best "
                f"level {best}"]
    return []


def gate(path, doc, baseline):
    if doc.get("schema") != BENCH_RECORD:
        return [f"{path}: --baseline gates wck-bench-record documents only, "
                f"not {doc.get('schema')!r}"]
    name = f"{path}[{doc['bench']}]"
    if doc["bench"] in baseline:
        problems = gate_against(doc["report"], baseline[doc["bench"]]["report"])
    else:
        problems = gate_itself(doc["report"].get("params", {}))
        if problems is None:
            problems = [f"bench {doc['bench']!r} has no baseline record"]
    return [f"{name}: {p}" for p in problems]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", help="committed baseline records (perf/BENCH_seed.json)")
    parser.add_argument("files", nargs="+", help="JSON files to check")
    args = parser.parse_args(argv)

    baseline = {}
    if args.baseline is not None:
        docs, problems = load(args.baseline)
        if not problems and not all(d.get("schema") == BENCH_RECORD for d in docs):
            problems = [f"{args.baseline}: holds a document that is not a {BENCH_RECORD}"]
        if problems:
            print("\n".join(problems), file=sys.stderr)
            print(f"check_bench.py: baseline {args.baseline} cannot be used", file=sys.stderr)
            return 2
        baseline = {d["bench"]: d for d in docs}

    problems = []
    for path in args.files:
        docs, file_problems = load(path)
        problems += file_problems
        if args.baseline is not None:
            for doc in docs:
                problems += gate(path, doc, baseline)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(f"check_bench.py: {len(args.files)} file(s) OK"
          + (f", gated against {args.baseline}" if args.baseline else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
