#!/usr/bin/env python3
"""Checks compare.py's verdicts on synthetic record sets.

    python3 bench/e2e/test_compare.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402

SPEC = {"end_to_end": [{"name": "put_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1}]}
HOST = {"nproc": 4, "simd_level": "avx2", "compiler": "gcc 12.2.0",
        "build_type": "RelWithDebInfo", "cleared_env": []}
# A steady spread of about 2 % around 1.0.
JITTER = [1.000, 0.985, 1.012, 0.995, 1.020, 0.990, 1.005, 0.980, 1.015, 1.008]


def records(values, sha, failed=0):
    return [{"workload": "w", "seed": seed, "trace": 0, "attempted": 100, "failed": failed,
             "host": dict(HOST, git_sha=sha, git_dirty=False), "metrics": {"put_ms_p50": v}}
            for seed, v in enumerate(values)]


def verdicts(parent, change):
    return {name: v["verdict"]
            for _, name, _, v in compare.compare(parent, change, SPEC, min_pairs=10)}


class VerdictTest(unittest.TestCase):
    def test_clear_win(self):
        parent = records([50 * j for j in JITTER], "a")
        change = records([40 * j for j in reversed(JITTER)], "b")
        self.assertEqual(verdicts(parent, change)["put_ms_p50"], "improved")

    def test_noise_is_no_change(self):
        parent = records([50 * j for j in JITTER], "a")
        change = records([50 * j for j in reversed(JITTER)], "b")
        self.assertEqual(verdicts(parent, change)["put_ms_p50"], "no change")

    def test_regression_beyond_bound(self):
        parent = records([50 * j for j in JITTER], "a")
        change = records([56 * j for j in JITTER], "b")
        self.assertEqual(verdicts(parent, change)["put_ms_p50"], "worse")

    def test_spread_wider_than_bound_is_unresolved(self):
        wide = [1.0, 0.7, 1.3, 0.8, 1.2, 0.75, 1.25, 0.9, 1.1, 1.0]
        parent = records([50 * j for j in wide], "a")
        change = records([52 * j for j in reversed(wide)], "b")
        self.assertEqual(verdicts(parent, change)["put_ms_p50"], "unresolved")

    def test_failed_frac_rise_is_flagged(self):
        parent = records([50 * j for j in JITTER], "a")
        change = records([50 * j for j in JITTER], "b", failed=1)
        result = verdicts(parent, change)
        self.assertEqual(result["failed_frac"], "worse")
        self.assertEqual(result["put_ms_p50"], "no change")

    def test_differing_hosts_are_refused(self):
        parent = records([50 * j for j in JITTER], "a")
        change = records([50 * j for j in JITTER], "b")
        for r in change:
            r["host"]["nproc"] = 8
        with self.assertRaises(compare.CompareError):
            compare.compare(parent, change, SPEC)


if __name__ == "__main__":
    unittest.main()
