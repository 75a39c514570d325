#!/usr/bin/env python3
"""End-to-end checkpoint benchmark: build the harness, run workloads, print metrics.

    python3 bench/e2e/run.py [--seed=N] [--out=DIR]     # every workload, untraced + traced
    python3 bench/e2e/run.py --smoke                    # every workload, ~1/50 of the ops
    python3 bench/e2e/run.py --workload=commit_fig9 --seed=7 --seconds=20 --trace=0

The harness (e2e_checkpoint.cpp) is built from this checkout's sources
into .bench_build/e2e through the e2e.cmake project-include hook. Each
workload runs in its own process, in a fresh scratch directory under
.bench_build/tmp that is removed afterwards.

With --trace=0 a run measures the untraced phase for --seconds and
reports the end-to-end metrics of BENCHMARK.json; with --trace=1 it
splits --seconds into an untraced and a traced half and reports the
per-layer metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The exit code is 0 only when every operation succeeded and every
restored field matched its reference bit for bit.

--record=FILE appends each run as one JSON line (with the host block)
for compare.py; --out=DIR does the same into DIR/records.jsonl and also
writes each traced run's chrome trace to DIR/<workload>.trace.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
SCRATCH = ROOT / ".bench_build" / "tmp"

# Set-ups per untraced run; setup_s is their median.
SETUPS = 3
HARNESS_TIMEOUT_S = 170
SMOKE_SECONDS = 0.4


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    return json.loads(path.read_text())


def scratch_env():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(SCRATCH))


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no source tree under {ROOT}: the harness builds from the repository's src/")
    env = scratch_env()
    log_path = ROOT / ".bench_build" / "e2e-build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append([
            "cmake", "-S", str(ROOT), "-B", str(BUILD),
            f"-DCMAKE_PROJECT_INCLUDE={HERE / 'e2e.cmake'}",
            "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
            "-DWCK_BUILD_TESTS=OFF", "-DWCK_BUILD_BENCH=OFF", "-DWCK_BUILD_EXAMPLES=OFF",
        ])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2e_checkpoint", "-j", jobs])
    with open(log_path, "w", encoding="utf-8") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (full log: {log_path})", 3)
    return BUILD / "e2e_checkpoint"


def git_state():
    """(sha, dirty) of the checkout, or ("unknown", False) outside git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        if top.returncode or Path(top.stdout.strip()).resolve() != ROOT:
            return "unknown", False
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=30).stdout
        return sha, bool(status.strip())
    except (OSError, subprocess.SubprocessError):
        return "unknown", False


def run_harness(binary, workload, seed, seconds, trace, setups, trace_out=None):
    """Runs one workload in its own process; returns the harness record."""
    args = [str(binary), f"--workload={workload}", f"--seed={seed}"]
    if trace:
        args += [f"--seconds={seconds / 2}", f"--traced-seconds={seconds / 2}", "--setups=1"]
        if trace_out:
            args.append(f"--trace-out={Path(trace_out).resolve()}")
    else:
        args += [f"--seconds={seconds}", f"--setups={setups}"]
    env = scratch_env()
    scratch = tempfile.mkdtemp(prefix="run-", dir=env["TMPDIR"])
    try:
        proc = subprocess.run(args, cwd=scratch, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: harness exceeded {HARNESS_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{workload}: harness exited {proc.returncode} without a record", 1)
    return json.loads(lines[-1])


def result_of(spec, rec, trace):
    """The result printed as the last line: the metric set of this trace mode."""
    specs = spec["per_layer"] if trace else spec["end_to_end"]
    values = rec.get("layers" if trace else "e2e") or {}
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing and rec["correct"]:
        fail(f"{rec['workload']}: harness did not report {', '.join(missing)}", 1)
    return {
        "correct": bool(rec["correct"]) and not missing,
        "attempted": int(rec["attempted"]),
        "failed": int(rec["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in specs if m["name"] in values},
    }


def print_table(workload, trace, result):
    mode = "traced" if trace else "untraced"
    print(f"== {workload} ({mode}): {result['attempted']} ops, {result['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:16.6f} {m['unit']}")


def append_record(path, rec, result, seconds, trace, git):
    record = {
        "workload": rec["workload"], "seed": rec["seed"], "seconds": seconds, "trace": trace,
        "calibration_ms": rec["calibration_ms"],
        "host": dict(rec["host"], git_sha=git[0], git_dirty=git[1]),
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run only this workload (default: all)")
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, help="timed seconds per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="with --workload: 0 untraced (end-to-end metrics), "
                        "1 traced (per-layer metrics); default both")
    parser.add_argument("--smoke", action="store_true",
                        help=f"every workload for {SMOKE_SECONDS} s, one set-up")
    parser.add_argument("--record", help="append each run to this JSON-lines file")
    parser.add_argument("--out", help="write records.jsonl and chrome traces here")
    args = parser.parse_args(argv)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        fail(f"unknown workload {args.workload!r} (have: {', '.join(names)})")
    binary = build()
    git = git_state()

    seconds = SMOKE_SECONDS if args.smoke else (args.seconds or spec["run_seconds"])
    setups = 1 if args.smoke else SETUPS
    workloads = [args.workload] if args.workload else names
    if args.smoke:
        # A traced run also reports the end-to-end metrics of its
        # untraced half, so one process checks both metric sets.
        traces = [1]
    elif args.trace is not None:
        traces = [args.trace]
    else:
        traces = [0, 1]
    records = [args.record] if args.record else []
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        records.append(str(Path(args.out) / "records.jsonl"))

    results = []
    for workload in workloads:
        for trace in traces:
            trace_out = str(Path(args.out) / f"{workload}.trace.json") if args.out else None
            rec = run_harness(binary, workload, args.seed, seconds, trace, setups, trace_out)
            result = result_of(spec, rec, trace)
            if args.smoke:
                e2e = result_of(spec, rec, 0)
                result["correct"] = result["correct"] and e2e["correct"]
                result["metrics"] = {**e2e["metrics"], **result["metrics"]}
            print_table(workload, trace, result)
            for path in records:
                append_record(path, rec, result, seconds, trace, git)
            results.append((workload, trace, result))

    if len(results) == 1:
        final = results[0][2]
    else:
        final = {
            "correct": all(r["correct"] for _, _, r in results),
            "attempted": sum(r["attempted"] for _, _, r in results),
            "failed": sum(r["failed"] for _, _, r in results),
            "metrics": {f"{w}/{name}": m for w, _, r in results for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
