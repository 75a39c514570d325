// Tests for the storage and checkpoint cost models behind Fig. 9.
#include <gtest/gtest.h>

#include <cmath>

#include "iomodel/cost_model.hpp"
#include "util/error.hpp"

namespace wck {
namespace {

/// The paper's Fig. 9 setting: 1.5 MB per process, cr = 19 %, 20 GB/s.
CheckpointCostModel paper_model(double compression_seconds) {
  return CheckpointCostModel(1.5e6, 0.19, compression_seconds, StorageModel{20e9, 0.0});
}

TEST(StorageModel, WriteTimeLinearInBytes) {
  const StorageModel s{10e9, 0.001};
  EXPECT_DOUBLE_EQ(s.write_time(0.0), 0.001);
  EXPECT_DOUBLE_EQ(s.write_time(10e9), 1.001);
  EXPECT_DOUBLE_EQ(s.write_time(20e9), 2.001);
}

TEST(CostModel, WithoutCompressionScalesLinearly) {
  const auto m = paper_model(0.02);
  const double t1 = m.time_without_compression(256);
  const double t2 = m.time_without_compression(512);
  EXPECT_NEAR(t2, 2.0 * t1, 1e-12);
}

TEST(CostModel, CompressionTimeIndependentOfParallelism) {
  // The paper: per-process compression is embarrassingly parallel, so
  // the compression component is constant; only I/O grows.
  const auto m = paper_model(0.02);
  const double io256 = m.time_with_compression(256) - m.compression_time();
  const double io512 = m.time_with_compression(512) - m.compression_time();
  EXPECT_NEAR(io512, 2.0 * io256, 1e-12);
}

TEST(CostModel, CrosspointMatchesAnalyticSolution) {
  const auto m = paper_model(0.02);
  const auto cp = m.crosspoint();
  ASSERT_TRUE(cp.has_value());
  // At the crosspoint both strategies cost the same.
  const double p = *cp;
  const double with = m.compression_time() + 1.5e6 * 0.19 * p / 20e9;
  const double without = 1.5e6 * p / 20e9;
  EXPECT_NEAR(with, without, 1e-9);
  // Below: compression not viable; above: viable (Fig. 9 shape).
  const auto below = static_cast<std::size_t>(p * 0.5);
  const auto above = static_cast<std::size_t>(p * 2.0);
  EXPECT_FALSE(m.compression_viable(below));
  EXPECT_TRUE(m.compression_viable(above));
}

TEST(CostModel, PaperScaleCrosspointNearHundredsOfProcesses) {
  // With stage times in the paper's regime (tens of ms), the crosspoint
  // lands in the hundreds of processes, as in Fig. 9 (~768).
  const auto m = paper_model(0.047);
  const auto cp = m.crosspoint();
  ASSERT_TRUE(cp.has_value());
  EXPECT_GT(*cp, 100.0);
  EXPECT_LT(*cp, 2000.0);
}

TEST(CostModel, AsymptoticReductionIsOneMinusCr) {
  const auto m = paper_model(0.02);
  EXPECT_DOUBLE_EQ(m.asymptotic_reduction(), 0.81);  // the paper's 81 %
  // reduction_at approaches the asymptote from below as P grows.
  const double r2048 = m.reduction_at(2048);
  const double r1e6 = m.reduction_at(1000000);
  EXPECT_LT(r2048, 0.81);
  EXPECT_LT(r1e6, 0.81);
  EXPECT_GT(r1e6, r2048);
  EXPECT_NEAR(r1e6, 0.81, 0.01);
}

TEST(CostModel, ReductionAt2048MatchesPaperBallpark) {
  // The paper reports ~55 % reduction at P = 2048 with their measured
  // compression time; verify the model reproduces that with a
  // compression time in their regime.
  const auto m = paper_model(0.040);
  const double r = m.reduction_at(2048);
  EXPECT_GT(r, 0.3);
  EXPECT_LT(r, 0.81);
}

TEST(CostModel, SweepRowsConsistent) {
  const auto m = paper_model(0.02);
  const auto rows = m.sweep({256, 512, 1024, 2048});
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& row : rows) {
    EXPECT_NEAR(row.with_compression_s, m.time_with_compression(row.parallelism), 1e-12);
    EXPECT_NEAR(row.without_compression_s, m.time_without_compression(row.parallelism), 1e-12);
    EXPECT_NEAR(m.compression_time() + row.io_s, row.with_compression_s, 1e-12);
  }
  // Monotone in P.
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GT(rows[i].with_compression_s, rows[i - 1].with_compression_s);
    EXPECT_GT(rows[i].without_compression_s, rows[i - 1].without_compression_s);
  }
}

TEST(CostModel, NoCrosspointWhenCompressionDoesNotShrink) {
  const CheckpointCostModel m(1.5e6, 1.0, 0.01, StorageModel{20e9, 0.0});
  EXPECT_FALSE(m.crosspoint().has_value());
  EXPECT_FALSE(m.compression_viable(1 << 20));
}

TEST(CostModel, InvalidArgumentsRejected) {
  EXPECT_THROW(CheckpointCostModel(0.0, 0.2, 0.0, StorageModel{}), InvalidArgumentError);
  EXPECT_THROW(CheckpointCostModel(1e6, -0.1, 0.0, StorageModel{}), InvalidArgumentError);
  EXPECT_THROW(CheckpointCostModel(1e6, 0.2, 0.0, StorageModel{0.0, 0.0}),
               InvalidArgumentError);
}

TEST(CostModel, LatencyShiftsBothCurves) {
  const CheckpointCostModel no_lat(1.5e6, 0.2, 0.01, StorageModel{20e9, 0.0});
  const CheckpointCostModel lat(1.5e6, 0.2, 0.01, StorageModel{20e9, 0.5});
  EXPECT_NEAR(lat.time_without_compression(100) - no_lat.time_without_compression(100), 0.5,
              1e-12);
  EXPECT_NEAR(lat.time_with_compression(100) - no_lat.time_with_compression(100), 0.5, 1e-12);
}

}  // namespace
}  // namespace wck
