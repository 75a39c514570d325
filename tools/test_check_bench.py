#!/usr/bin/env python3
"""Checks tools/check_bench.py on the committed records and on crafted failing ones.

    python3 tools/test_check_bench.py
"""

import contextlib
import copy
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import check_bench  # noqa: E402

SEED = HERE.parent / "perf" / "BENCH_seed.json"
KERNELS = HERE.parent / "perf" / "BENCH_micro_kernels.json"
STATS = {"mean_rel": 0.01, "max_rel": 0.05, "max_abs": 0.2, "rmse": 0.02, "psnr": None,
         "value_range": 9.7, "count": 12}
QUALITY = {"schema": "wck-quality-report", "schema_version": 1, "variables": [{
    "name": "t", "shape": "4x3", "original_bytes": 96, "compressed_bytes": 40,
    "bits_per_value": 26.7, "coefficient_error": STATS,
    "bands": [{"name": "l1.HL", "level": 1, "axis_mask": 1, "count": 12, "quantized": 10,
               "quantized_fraction": 0.83, "error": dict(STATS), "psnr": None}]}]}


def edit(doc, path, value):
    """A copy of doc with the value at path (a list of keys) replaced; None deletes it."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is None:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def seed(path=(), value=None):
    doc = json.loads(SEED.read_text())
    return edit(doc, ["report", *path], value) if path else doc


def with_error(scale=1.0):
    error = {"mean_rel": 0.01 * scale, "max_rel": 0.05, "max_abs": 0.2, "rmse": 0.02, "count": 9}
    return seed(["error"], error)


def self_gated(bench, params):
    return edit(seed(["params"], params), ["bench"], bench)


def scaled(field, factor):
    doc = seed()
    return seed(["bytes", field], round(doc["report"]["bytes"][field] * factor))


HIST = ["metrics", "histograms", "stage.deflate.seconds"]
# (case, document, baseline or None, text the failure must contain)
CASES = [
    ("run report bytes", seed(["bytes", "compressed"], -1), None, "bytes.compressed"),
    ("bench record name", edit(seed(), ["bench"], ""), None, "$.bench"),
    ("unknown schema", edit(seed(), ["schema"], "wck-other"), None, "wck-other"),
    ("quality fraction", edit(QUALITY, ["variables", 0, "bands", 0, "quantized_fraction"], 1.5),
     None, "quantized_fraction"),
    ("quality bands", edit(QUALITY, ["variables", 0, "bands"], []), None, "bands"),
    ("metric name", seed(["metrics", "counters", "Compress-Calls"], 1), None, "Compress-Calls"),
    ("histogram quantile", seed([*HIST, "p95"], "slow"), None, "p95"),
    ("histogram buckets", edit(seed([*HIST, "bounds"], [0.1, 1.0]), ["report", *HIST, "buckets"],
                               [1, 2]), None, "bounds/buckets"),
    ("psnr as text", edit(QUALITY, ["variables", 0, "coefficient_error", "psnr"], "inf"), None,
     "coefficient_error.psnr"),
    ("no baseline", edit(seed(), ["bench"], "fig9_other"), SEED, "fig9_other"),
    ("params", seed(["params", "nx"], "512"), SEED, "params"),
    ("bytes.original", seed(["bytes", "original"], 1516680), SEED, "bytes.original"),
    ("bytes.compressed", scaled("compressed", 1.06), SEED, "bytes.compressed"),
    ("bytes.payload", scaled("payload", 0.94), SEED, "bytes.payload"),
    ("rate", seed(["compression_rate_percent"], 24.0), SEED, "compression_rate_percent"),
    ("error", with_error(1.06), with_error(), "error.mean_rel"),
    ("missing stage", seed(["stages_seconds", "encode"]), SEED, "'encode'"),
    ("sharded", self_gated("micro_deflate", {"serial_bytes": "1000", "sharded_bytes": "1030"}),
     SEED, "sharded_bytes"),
    ("simd", self_gated("micro_kernels", {"simd_best_level": "avx2", "speedup_adler32": "5.3",
                                          "speedup_grid_index": "1.2"}), SEED, "speedup_"),
]


def check(docs, baseline=None):
    """(exit code, stderr) of check_bench.py over one file per document."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate(docs):
            paths.append(str(Path(tmp) / f"doc{i}.json"))
            Path(paths[-1]).write_text(doc if isinstance(doc, str) else json.dumps(doc))
        if isinstance(baseline, dict):
            Path(tmp, "base.json").write_text(json.dumps(baseline))
            baseline = Path(tmp, "base.json")
        args = ["--baseline", str(baseline)] if baseline is not None else []
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = check_bench.main(args + paths)
        return code, err.getvalue()


class CheckBenchTest(unittest.TestCase):
    def test_committed_records_pass(self):
        docs = [seed(), json.loads(KERNELS.read_text())]
        self.assertEqual(check(docs), (0, ""))
        self.assertEqual(check(docs, SEED), (0, ""))
        self.assertEqual(check([docs], SEED), (0, ""))  # one file holding a list
        self.assertEqual(check([QUALITY]), (0, ""))  # null PSNRs included

    def test_crafted_records_fail_naming_the_field(self):
        for case, doc, baseline, field in CASES:
            with self.subTest(case):
                code, err = check([doc], baseline)
                self.assertEqual(code, 1, err)
                self.assertIn(field, err)

    def test_within_tolerance_and_stage_times_pass(self):
        slow = seed(["stages_seconds", "deflate"], 100.0)
        self.assertEqual(check([scaled("compressed", 1.04), slow], SEED), (0, ""))

    def test_unreadable_json_is_a_problem(self):
        code, err = check(["{"])
        self.assertEqual(code, 1)
        self.assertIn("invalid JSON", err)

    def test_only_bench_records_are_gated(self):
        self.assertEqual(check([QUALITY], SEED)[0], 1)

    def test_unusable_baseline_exits_two(self):
        self.assertEqual(check([seed()], QUALITY)[0], 2)
        self.assertEqual(check([seed()], seed(["bytes"], None))[0], 2)
        self.assertEqual(check([seed()], HERE / "no_such_baseline.json")[0], 2)


if __name__ == "__main__":
    unittest.main()
