// Tests for the project-invariant linter (tools/wck_lint_core): each
// rule is exercised against a violating and a clean fixture under
// tests/lint_fixtures/, scope exemptions are checked by re-scanning the
// same text under an exempt path, and the live source tree must be
// clean modulo the committed baseline (tools/wck_lint_baseline.txt).
#include "wck_lint_core.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace wck::lint {
namespace {

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(WCK_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<Finding> of_rule(const std::vector<Finding>& findings,
                             const std::string& rule) {
  std::vector<Finding> out;
  std::copy_if(findings.begin(), findings.end(), std::back_inserter(out),
               [&](const Finding& f) { return f.rule == rule; });
  return out;
}

TEST(WckLintFormat, MatchesBaselineShape) {
  const Finding f{"src/a.cpp", 12, "something happened", "raw-file-io"};
  EXPECT_EQ(format(f), "src/a.cpp:12: something happened [raw-file-io]");
}

TEST(WckLintIgnoredResult, FlagsStatementPositionDiscards) {
  const auto findings =
      scan_file("src/ckpt/fx.cpp", read_fixture("r1_ignored_result_violation.cpp"));
  const auto r1 = of_rule(findings, "ignored-result");
  ASSERT_EQ(r1.size(), 5u);
  std::vector<int> lines;
  for (const Finding& f : r1) lines.push_back(f.line);
  EXPECT_EQ(lines, (std::vector<int>{4, 5, 6, 7, 8}));
  EXPECT_EQ(findings.size(), r1.size()) << "fixture tripped an unrelated rule";
}

TEST(WckLintIgnoredResult, AcceptsConsumedAndVoidCastResults) {
  const auto findings =
      scan_file("src/ckpt/fx.cpp", read_fixture("r1_ignored_result_clean.cpp"));
  EXPECT_TRUE(findings.empty()) << format(findings.front());
}

TEST(WckLintRawFileIo, FlagsRawPrimitivesOutsideIoLayer) {
  const std::string text = read_fixture("r2_raw_file_io_violation.cpp");
  const auto findings = scan_file("src/telemetry/fx.cpp", text);
  EXPECT_EQ(of_rule(findings, "raw-file-io").size(), 4u);
  // The same text inside src/io/ is the sanctioned home...
  EXPECT_TRUE(of_rule(scan_file("src/io/fx.cpp", text), "raw-file-io").empty());
  // ...and tools are whitelisted entirely.
  EXPECT_TRUE(of_rule(scan_file("tools/fx.cpp", text), "raw-file-io").empty());
}

TEST(WckLintRawFileIo, IgnoresCommentsStringsAndSubtokens) {
  const auto findings =
      scan_file("src/telemetry/fx.cpp", read_fixture("r2_raw_file_io_clean.cpp"));
  EXPECT_TRUE(findings.empty()) << format(findings.front());
}

TEST(WckLintNakedMutex, FlagsStdPrimitivesInSrc) {
  const std::string text = read_fixture("r3_naked_mutex_violation.cpp");
  const auto findings = scan_file("src/parallel/fx.cpp", text);
  EXPECT_EQ(of_rule(findings, "naked-mutex").size(), 6u);
  // The wrapper header itself is the one sanctioned user.
  EXPECT_TRUE(
      of_rule(scan_file("src/util/thread_annotations.hpp", text), "naked-mutex")
          .empty());
}

TEST(WckLintNakedMutex, AcceptsAnnotatedWrappers) {
  const auto findings =
      scan_file("src/parallel/fx.cpp", read_fixture("r3_naked_mutex_clean.cpp"));
  EXPECT_TRUE(findings.empty()) << format(findings.front());
}

TEST(WckLintMetricName, FlagsNonDottedLowercaseLiterals) {
  const auto findings =
      scan_file("src/telemetry/fx.cpp", read_fixture("r4_metric_name_violation.cpp"));
  EXPECT_EQ(of_rule(findings, "metric-name").size(), 5u);
}

TEST(WckLintMetricName, AcceptsConformingAndDynamicNames) {
  const auto findings =
      scan_file("src/telemetry/fx.cpp", read_fixture("r4_metric_name_clean.cpp"));
  EXPECT_TRUE(findings.empty()) << format(findings.front());
}

TEST(WckLintMetricName, MatcherEdgeCases) {
  // The grammar is ^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$.
  for (const char* good : {"a.b", "a_1.b2", "x.y.z", "io.fsync_dir.seconds", "a.0"}) {
    const std::string text = std::string("WCK_COUNTER_ADD(\"") + good + "\", 1);\n";
    EXPECT_TRUE(scan_file("src/x.cpp", text).empty()) << good;
  }
  for (const char* bad : {"a", "a.", ".a", "a..b", "1a.b", "_a.b", "A.b", "a.B", "a.b-c", "a b.c",
                          ""}) {
    const std::string text = std::string("WCK_COUNTER_ADD(\"") + bad + "\", 1);\n";
    EXPECT_EQ(of_rule(scan_file("src/x.cpp", text), "metric-name").size(), 1u) << bad;
  }
}

TEST(WckLintGetenv, FlagsDirectReadsOutsideEnvCache) {
  const std::string text = read_fixture("r5_getenv_violation.cpp");
  const auto findings = scan_file("tools/fx.cpp", text);
  EXPECT_EQ(of_rule(findings, "getenv").size(), 2u);
  // src/util/env.hpp holds the one sanctioned call.
  EXPECT_TRUE(of_rule(scan_file("src/util/env.hpp", text), "getenv").empty());
}

TEST(WckLintGetenv, AcceptsEnvCacheReads) {
  const auto findings =
      scan_file("tools/fx.cpp", read_fixture("r5_getenv_clean.cpp"));
  EXPECT_TRUE(findings.empty()) << format(findings.front());
}

TEST(WckLintRawSocket, FlagsSyscallsOutsideNetLayer) {
  const std::string text = read_fixture("r6_raw_socket_violation.cpp");
  const auto findings = scan_file("src/server/fx.cpp", text);
  EXPECT_EQ(of_rule(findings, "raw-socket").size(), 8u);
  // The rule also guards tools/ and bench/ (unlike R2): a CLI opening a
  // socket behind the net layer's back is the same bypass.
  EXPECT_EQ(of_rule(scan_file("tools/fx.cpp", text), "raw-socket").size(), 8u);
  // src/net/ is the sanctioned home.
  EXPECT_TRUE(of_rule(scan_file("src/net/socket.cpp", text), "raw-socket").empty());
}

TEST(WckLintRawSocket, AcceptsNetLayerApiAndLookalikes) {
  const auto findings =
      scan_file("src/server/fx.cpp", read_fixture("r6_raw_socket_clean.cpp"));
  EXPECT_TRUE(findings.empty()) << format(findings.front());
}

TEST(WckLintRawSimd, FlagsIntrinsicsHeadersOutsideSimdLayer) {
  const std::string text = read_fixture("r7_raw_simd_violation.cpp");
  const auto findings = scan_file("src/wavelet/fx.cpp", text);
  EXPECT_EQ(of_rule(findings, "raw-simd").size(), 4u);
  // The rule also guards tools/ and bench/: a CLI or bench reaching for
  // intrinsics directly bypasses dispatch and bit-identity coverage.
  EXPECT_EQ(of_rule(scan_file("tools/fx.cpp", text), "raw-simd").size(), 4u);
  EXPECT_EQ(of_rule(scan_file("bench/fx.cpp", text), "raw-simd").size(), 4u);
  // src/simd/ is the sanctioned home.
  EXPECT_TRUE(
      of_rule(scan_file("src/simd/kernels_avx2.cpp", text), "raw-simd").empty());
}

TEST(WckLintRawSimd, AcceptsDispatchTableAndLookalikes) {
  const auto findings =
      scan_file("src/wavelet/fx.cpp", read_fixture("r7_raw_simd_clean.cpp"));
  EXPECT_TRUE(findings.empty()) << format(findings.front());
}

// The gate the `lint` target and CI enforce, as a unit test: the live
// tree must produce no finding that is not in the committed baseline.
TEST(WckLintTree, LiveTreeIsBaselineClean) {
  const std::filesystem::path root = WCK_LINT_SOURCE_ROOT;
  ASSERT_TRUE(std::filesystem::is_directory(root / "src"));
  const std::set<std::string> baseline =
      load_baseline(root / "tools" / "wck_lint_baseline.txt");
  std::vector<std::string> fresh;
  for (const Finding& f : scan_tree(root)) {
    const std::string line = format(f);
    if (baseline.count(line) == 0) fresh.push_back(line);
  }
  EXPECT_TRUE(fresh.empty()) << "new wck_lint findings:\n  " +
                                    [&] {
                                      std::string joined;
                                      for (const auto& l : fresh) joined += l + "\n  ";
                                      return joined;
                                    }();
}

}  // namespace
}  // namespace wck::lint
