#!/usr/bin/env python3
"""Benchmark regression gate: fresh BENCH_*.json vs a committed baseline.

Compares a freshly produced wck-bench-record against the committed
baseline (perf/BENCH_seed.json) for the same bench name and the same
parameters:

  deterministic outputs (strict, default +/-5%):
      bytes.compressed, bytes.payload, compression_rate_percent,
      error.mean_rel / error.max_rel / error.rmse (when present)
  bytes.original: must match exactly (same params => same input size)
  stage times (loose, default 10x): each stages_seconds entry must not
      exceed baseline * multiplier. CI machines vary wildly, so this only
      catches order-of-magnitude blowups (an accidentally quadratic
      stage), not honest noise. A baseline stage missing from the fresh
      record is a violation: a renamed or dropped stage must come with a
      refreshed baseline, never slip out of the gate.

Records match by their "bench" field; a fresh record whose bench name is
missing from the baseline set is an error (the gate must never silently
compare nothing), as is a params mismatch (different shape => different
numbers, not a regression signal).

Exceptions — baseline-less records that are self-baselining:
  * a record carrying serial_bytes and sharded_bytes in its params
    (bench/micro_deflate): the gate checks that the segmented WCKP
    container is no more than --sharded-tol (default 2%) larger than one
    zlib stream compressed from the same payload.
  * a record carrying simd_best_level in its params
    (bench/micro_kernels): on vector-capable hardware (best level is
    not "scalar") at least --simd-min-kernels of the speedup_<kernel>
    params must reach --simd-speedup (default: 2 kernels at >= 1.5x
    over the scalar reference). Each speedup is the dispatched level's
    (detected_best) over scalar, so it reads below 1.0x when the vector
    variant loses. On scalar-only hardware the record
    passes vacuously — there is no vector level to gate.

Usage:
  tools/check_bench_regress.py --baseline perf/BENCH_seed.json FRESH.json...
  options: --size-tol=0.05  --time-mult=10.0  --sharded-tol=0.02
           --simd-speedup=1.5  --simd-min-kernels=2

Exits 0 when every fresh record passes; prints one line per violation
otherwise. Used by the `bench-smoke` CI job; no third-party dependencies.
"""

import argparse
import json
import sys

STRICT_KEYS = ("compressed", "payload")
STRICT_ERROR_KEYS = ("mean_rel", "max_rel", "rmse")


def load_records(path):
    """Returns {bench_name: record} for one file (a single record or a list)."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    docs = doc if isinstance(doc, list) else [doc]
    out = {}
    for record in docs:
        if record.get("schema") != "wck-bench-record":
            raise ValueError(f"{path}: not a wck-bench-record")
        out[record["bench"]] = record
    return out


def rel_delta(fresh, base):
    if base == 0:
        return 0.0 if fresh == 0 else float("inf")
    return (fresh - base) / base


class Gate:
    def __init__(self, size_tol, time_mult, sharded_tol,
                 simd_speedup=1.5, simd_min_kernels=2):
        self.size_tol = size_tol
        self.time_mult = time_mult
        self.sharded_tol = sharded_tol
        self.simd_speedup = simd_speedup
        self.simd_min_kernels = simd_min_kernels
        self.violations = []
        self.checks = 0

    def fail(self, msg):
        self.violations.append(msg)

    def check_strict(self, name, what, fresh, base):
        self.checks += 1
        delta = rel_delta(fresh, base)
        if abs(delta) > self.size_tol:
            self.fail(f"{name}: {what} regressed {delta:+.1%} "
                      f"({base} -> {fresh}, tolerance +/-{self.size_tol:.0%})")

    def check_time(self, name, stage, fresh, base):
        self.checks += 1
        # Only blowups gate; being faster is never a regression.
        if base > 0 and fresh > base * self.time_mult:
            self.fail(f"{name}: stage '{stage}' took {fresh:.4f}s vs baseline "
                      f"{base:.4f}s (> {self.time_mult:g}x)")

    def compare(self, name, fresh, base):
        fresh_report = fresh.get("report", {})
        base_report = base.get("report", {})

        fresh_params = fresh_report.get("params", {})
        base_params = base_report.get("params", {})
        if fresh_params != base_params:
            self.fail(f"{name}: params differ from baseline "
                      f"({fresh_params} vs {base_params}); rerun at baseline params")
            return

        fresh_bytes = fresh_report.get("bytes", {})
        base_bytes = base_report.get("bytes", {})
        self.checks += 1
        if fresh_bytes.get("original") != base_bytes.get("original"):
            self.fail(f"{name}: bytes.original changed "
                      f"({base_bytes.get('original')} -> {fresh_bytes.get('original')}) "
                      "with identical params")
        for key in STRICT_KEYS:
            if key in base_bytes and key in fresh_bytes:
                self.check_strict(name, f"bytes.{key}", fresh_bytes[key], base_bytes[key])

        if "compression_rate_percent" in base_report:
            self.check_strict(name, "compression_rate_percent",
                              fresh_report.get("compression_rate_percent", 0.0),
                              base_report["compression_rate_percent"])

        base_error = base_report.get("error")
        fresh_error = fresh_report.get("error")
        if base_error and fresh_error:
            for key in STRICT_ERROR_KEYS:
                if key in base_error:
                    self.check_strict(name, f"error.{key}",
                                      fresh_error.get(key, 0.0), base_error[key])

        base_stages = base_report.get("stages_seconds", {})
        fresh_stages = fresh_report.get("stages_seconds", {})
        for stage, base_time in base_stages.items():
            if stage in fresh_stages:
                self.check_time(name, stage, fresh_stages[stage], base_time)
            else:
                self.checks += 1
                self.fail(f"{name}: stage '{stage}' is in the baseline but missing "
                          "from the fresh record")

    def check_sharded_drift(self, name, record):
        """Self-baselining check for records carrying serial/sharded sizes.

        Returns True when the record was handled (both params present),
        so the caller skips the missing-baseline error.
        """
        params = record.get("report", {}).get("params", {})
        if "serial_bytes" not in params or "sharded_bytes" not in params:
            return False
        self.checks += 1
        try:
            serial = int(params["serial_bytes"])
            sharded = int(params["sharded_bytes"])
        except (TypeError, ValueError):
            self.fail(f"{name}: serial_bytes/sharded_bytes are not integers "
                      f"({params.get('serial_bytes')!r}, {params.get('sharded_bytes')!r})")
            return True
        if serial <= 0:
            self.fail(f"{name}: serial_bytes must be positive, got {serial}")
            return True
        drift = sharded / serial - 1.0
        if drift > self.sharded_tol:
            self.fail(f"{name}: sharded container {drift:+.2%} larger than serial "
                      f"({serial} -> {sharded}, tolerance +{self.sharded_tol:.0%})")
        return True

    def check_simd_speedup(self, name, record):
        """Self-baselining check for SIMD kernel throughput records.

        Returns True when the record was handled (simd_best_level
        present), so the caller skips the missing-baseline error.
        """
        params = record.get("report", {}).get("params", {})
        best = params.get("simd_best_level")
        if best is None:
            return False
        self.checks += 1
        if best == "scalar":
            return True  # no vector level on this machine; nothing to gate
        speedups = {}
        for key, value in params.items():
            if not key.startswith("speedup_"):
                continue
            try:
                speedups[key[len("speedup_"):]] = float(value)
            except (TypeError, ValueError):
                self.fail(f"{name}: {key} is not a number ({value!r})")
                return True
        if not speedups:
            self.fail(f"{name}: simd_best_level={best} but no speedup_<kernel> params")
            return True
        fast = sorted(k for k, v in speedups.items() if v >= self.simd_speedup)
        if len(fast) < self.simd_min_kernels:
            self.fail(f"{name}: only {len(fast)} kernel(s) at >= {self.simd_speedup:g}x "
                      f"over scalar ({', '.join(fast) or 'none'}); "
                      f"need {self.simd_min_kernels} with best level {best}")
        return True


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", required=True,
                        help="committed baseline record (perf/BENCH_seed.json)")
    parser.add_argument("--size-tol", type=float, default=0.05,
                        help="relative tolerance for deterministic outputs (default 0.05)")
    parser.add_argument("--time-mult", type=float, default=10.0,
                        help="stage-time blowup multiplier (default 10)")
    parser.add_argument("--sharded-tol", type=float, default=0.02,
                        help="max sharded-vs-serial compressed-size drift (default 0.02)")
    parser.add_argument("--simd-speedup", type=float, default=1.5,
                        help="required dispatched-level speedup over scalar (default 1.5)")
    parser.add_argument("--simd-min-kernels", type=int, default=2,
                        help="kernels that must reach --simd-speedup (default 2)")
    parser.add_argument("fresh", nargs="+", help="freshly produced BENCH_*.json files")
    args = parser.parse_args(argv[1:])

    try:
        baseline = load_records(args.baseline)
    except (OSError, ValueError, json.JSONDecodeError, KeyError) as e:
        print(f"baseline unreadable: {e}", file=sys.stderr)
        return 2

    gate = Gate(args.size_tol, args.time_mult, args.sharded_tol,
                args.simd_speedup, args.simd_min_kernels)
    compared = 0
    for path in args.fresh:
        try:
            fresh = load_records(path)
        except (OSError, ValueError, json.JSONDecodeError, KeyError) as e:
            gate.fail(f"{path}: unreadable ({e})")
            continue
        for bench, record in fresh.items():
            if bench not in baseline:
                if (gate.check_sharded_drift(f"{path}[{bench}]", record)
                        or gate.check_simd_speedup(f"{path}[{bench}]", record)):
                    compared += 1
                else:
                    gate.fail(f"{path}: bench {bench!r} has no baseline record")
                continue
            gate.compare(f"{path}[{bench}]", record, baseline[bench])
            compared += 1

    if compared == 0 and not gate.violations:
        print("no records compared", file=sys.stderr)
        return 2
    for violation in gate.violations:
        print(violation, file=sys.stderr)
    if not gate.violations:
        print(f"regression gate OK: {compared} record(s), {gate.checks} checks "
              f"(size tol +/-{gate.size_tol:.0%}, time mult {gate.time_mult:g}x)")
    return 1 if gate.violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
