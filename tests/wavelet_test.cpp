// Unit and property tests for the Haar wavelet transformation
// (paper Sec. III-A, Eq. 2-3, Fig. 2-3).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

#include "ndarray/ndarray.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "wavelet/haar.hpp"

namespace wck {
namespace {

NdArray<double> random_array(const Shape& shape, std::uint64_t seed) {
  NdArray<double> a(shape);
  Xoshiro256 rng(seed);
  for (auto& v : a.values()) v = rng.uniform(-100.0, 100.0);
  return a;
}

/// Dyadic values (small integers / 2^k) make the Haar averages exactly
/// representable, so forward+inverse is bit-exact.
NdArray<double> dyadic_array(const Shape& shape, std::uint64_t seed) {
  NdArray<double> a(shape);
  Xoshiro256 rng(seed);
  for (auto& v : a.values()) v = static_cast<double>(rng.bounded(4096)) / 16.0;
  return a;
}

TEST(Haar1D, PaperEquations) {
  // Eq. 2 / Eq. 3 on a concrete pair sequence.
  NdArray<double> a(Shape{6}, std::vector<double>{2.0, 4.0, 10.0, 6.0, 1.0, 3.0});
  haar_forward(a.view(), 1);
  // L = [(2+4)/2, (10+6)/2, (1+3)/2], H = [(2-4)/2, (10-6)/2, (1-3)/2]
  EXPECT_DOUBLE_EQ(a(0), 3.0);
  EXPECT_DOUBLE_EQ(a(1), 8.0);
  EXPECT_DOUBLE_EQ(a(2), 2.0);
  EXPECT_DOUBLE_EQ(a(3), -1.0);
  EXPECT_DOUBLE_EQ(a(4), 2.0);
  EXPECT_DOUBLE_EQ(a(5), -1.0);
}

TEST(Haar1D, InverseRecoversExactlyOnDyadicData) {
  const NdArray<double> orig = dyadic_array(Shape{1024}, 1);
  NdArray<double> a = orig;
  haar_forward(a.view(), 1);
  haar_inverse(a.view(), 1);
  EXPECT_EQ(a, orig);
}

TEST(Haar1D, OddLengthKeepsUnpairedElement) {
  NdArray<double> a(Shape{5}, std::vector<double>{1.0, 3.0, 5.0, 7.0, 9.0});
  haar_forward(a.view(), 1);
  // L = [2, 6, 9] (last element unpaired), H = [-1, -1]
  EXPECT_DOUBLE_EQ(a(0), 2.0);
  EXPECT_DOUBLE_EQ(a(1), 6.0);
  EXPECT_DOUBLE_EQ(a(2), 9.0);
  EXPECT_DOUBLE_EQ(a(3), -1.0);
  EXPECT_DOUBLE_EQ(a(4), -1.0);
  haar_inverse(a.view(), 1);
  EXPECT_DOUBLE_EQ(a(0), 1.0);
  EXPECT_DOUBLE_EQ(a(4), 9.0);
}

TEST(Haar1D, Length1IsIdentity) {
  NdArray<double> a(Shape{1}, std::vector<double>{42.0});
  haar_forward(a.view(), 1);
  EXPECT_DOUBLE_EQ(a(0), 42.0);
  haar_inverse(a.view(), 1);
  EXPECT_DOUBLE_EQ(a(0), 42.0);
}

TEST(Haar2D, QuadrantStructure) {
  // A constant array transforms to: LL = constant, all high bands = 0.
  NdArray<double> a(Shape{4, 4}, 5.0);
  haar_forward(a.view(), 1);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      if (i < 2 && j < 2) {
        EXPECT_DOUBLE_EQ(a(i, j), 5.0);
      } else {
        EXPECT_DOUBLE_EQ(a(i, j), 0.0);
      }
    }
  }
}

TEST(Haar2D, SmoothDataConcentratesEnergyInLowBand) {
  // The property the paper's compression relies on: for smooth data the
  // high bands are near zero.
  NdArray<double> a(Shape{64, 64});
  for (std::size_t i = 0; i < 64; ++i) {
    for (std::size_t j = 0; j < 64; ++j) {
      a(i, j) = std::sin(0.05 * static_cast<double>(i)) +
                std::cos(0.04 * static_cast<double>(j));
    }
  }
  haar_forward(a.view(), 1);
  const WaveletPlan plan = WaveletPlan::create(a.shape(), 1);
  double low_energy = 0.0;
  double high_energy = 0.0;
  for_each_low_band(a.view(), plan.final_low_extents(),
                    [&](double& v) { low_energy += v * v; });
  for_each_high_band(a.view(), plan.final_low_extents(),
                     [&](double& v) { high_energy += v * v; });
  EXPECT_GT(low_energy, 1000.0 * high_energy);
}

class HaarRoundTrip
    : public ::testing::TestWithParam<std::tuple<Shape, int>> {};

TEST_P(HaarRoundTrip, ForwardInverseIsNearIdentity) {
  const auto& [shape, levels] = GetParam();
  const NdArray<double> orig = random_array(shape, 7 + shape.size());
  NdArray<double> a = orig;
  haar_forward(a.view(), levels);
  haar_inverse(a.view(), levels);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], orig[i], 1e-9 * std::abs(orig[i]) + 1e-12) << "i=" << i;
  }
}

TEST_P(HaarRoundTrip, ExactOnDyadicData) {
  const auto& [shape, levels] = GetParam();
  const NdArray<double> orig = dyadic_array(shape, 11 + shape.size());
  NdArray<double> a = orig;
  haar_forward(a.view(), levels);
  haar_inverse(a.view(), levels);
  EXPECT_EQ(a, orig);
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndLevels, HaarRoundTrip,
    ::testing::Values(
        std::make_tuple(Shape{64}, 1), std::make_tuple(Shape{64}, 3),
        std::make_tuple(Shape{63}, 1), std::make_tuple(Shape{63}, 2),
        std::make_tuple(Shape{1}, 1), std::make_tuple(Shape{2}, 4),
        std::make_tuple(Shape{16, 16}, 1), std::make_tuple(Shape{16, 16}, 2),
        std::make_tuple(Shape{15, 17}, 2), std::make_tuple(Shape{1, 9}, 1),
        std::make_tuple(Shape{8, 8, 8}, 1), std::make_tuple(Shape{8, 8, 8}, 2),
        std::make_tuple(Shape{7, 9, 5}, 3),
        // The paper's NICAM array shape.
        std::make_tuple(Shape{1156, 82, 2}, 1),
        std::make_tuple(Shape{3, 4, 5, 6}, 2)));

TEST(WaveletPlan, LowExtentsHalveCeiling) {
  const WaveletPlan p = WaveletPlan::create(Shape{9, 8}, 2);
  EXPECT_EQ(p.low_extents(0), Shape({5, 4}));
  EXPECT_EQ(p.low_extents(1), Shape({3, 2}));
  EXPECT_EQ(p.low_count(), 6u);
  EXPECT_EQ(p.high_count(), 72u - 6u);
}

TEST(WaveletPlan, SaturatesAtExtentOne) {
  const WaveletPlan p = WaveletPlan::create(Shape{2, 3}, 5);
  EXPECT_EQ(p.final_low_extents(), Shape({1, 1}));
}

TEST(WaveletPlan, InvalidLevelsRejected) {
  EXPECT_THROW((void)WaveletPlan::create(Shape{4}, 0), InvalidArgumentError);
  NdArray<double> a(Shape{4});
  EXPECT_THROW(haar_forward(a.view(), 0), InvalidArgumentError);
  EXPECT_THROW(haar_inverse(a.view(), -1), InvalidArgumentError);
}

TEST(BandIteration, HighPlusLowCoversArrayOnce) {
  for (const Shape& shape : {Shape{10}, Shape{5, 6}, Shape{4, 5, 6}}) {
    for (int levels = 1; levels <= 2; ++levels) {
      const WaveletPlan plan = WaveletPlan::create(shape, levels);
      NdArray<int> marks(shape, 0);
      // Mark low and high elements through int views.
      NdSpan<int> v = marks.view();
      std::size_t low_seen = 0;
      std::size_t high_seen = 0;
      for_each_low_band(v, plan.final_low_extents(), [&](int& m) {
        ++m;
        ++low_seen;
      });
      for_each_high_band(v, plan.final_low_extents(), [&](int& m) {
        ++m;
        ++high_seen;
      });
      EXPECT_EQ(low_seen, plan.low_count());
      EXPECT_EQ(high_seen, plan.high_count());
      for (const int m : marks.values()) EXPECT_EQ(m, 1);
    }
  }
}

TEST(BandIteration, HighBandOrderIsRowMajor) {
  // 1D, n=4, low corner = 2: high elements are positions 2, 3.
  NdArray<double> a(Shape{4}, std::vector<double>{0.0, 1.0, 2.0, 3.0});
  const WaveletPlan plan = WaveletPlan::create(a.shape(), 1);
  std::vector<double> seen;
  for_each_high_band(a.view(), plan.final_low_extents(),
                     [&](double& v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<double>{2.0, 3.0}));
}

TEST(Haar, EnergyPreservationOfAveragesAndDifferences) {
  // Parseval-like invariant of the paper's (unnormalized) Haar variant:
  // for each pair, a^2 + b^2 = 2 * (L^2 + H^2).
  const NdArray<double> orig = random_array(Shape{512}, 23);
  NdArray<double> a = orig;
  haar_forward(a.view(), 1);
  for (std::size_t i = 0; i < 256; ++i) {
    const double lhs = orig[2 * i] * orig[2 * i] + orig[2 * i + 1] * orig[2 * i + 1];
    const double rhs = 2.0 * (a[i] * a[i] + a[256 + i] * a[256 + i]);
    EXPECT_NEAR(lhs, rhs, 1e-9 * std::abs(lhs));
  }
}

TEST(Haar, MultiLevelMatchesRepeatedSingleLevel) {
  const NdArray<double> orig = random_array(Shape{16, 16}, 31);
  NdArray<double> multi = orig;
  haar_forward(multi.view(), 2);

  NdArray<double> twice = orig;
  haar_forward(twice.view(), 1);
  const std::size_t offs[] = {0, 0};
  const std::size_t exts[] = {8, 8};
  haar_forward(twice.view().subblock(offs, exts), 1);

  for (std::size_t i = 0; i < multi.size(); ++i) {
    EXPECT_DOUBLE_EQ(multi[i], twice[i]);
  }
}

// ---------------------------------------------------------------------
// References: the per-line transform (one call per 1D line through
// NdSpan::for_each_line) and the per-element odometer walks that the
// row-pair passes and the run walks replaced. The production code must
// match them bit for bit.
// ---------------------------------------------------------------------

void ref_line_forward(const Line<double>& ln, std::vector<double>& scratch) {
  const std::size_t n = ln.count;
  if (n < 2) return;
  const std::size_t pairs = n / 2;
  const std::size_t nl = n - pairs;
  scratch.resize(n);
  for (std::size_t i = 0; i < pairs; ++i) {
    const double a = ln[2 * i];
    const double b = ln[2 * i + 1];
    scratch[i] = (a + b) / 2.0;
    scratch[nl + i] = (a - b) / 2.0;
  }
  if (n % 2 != 0) scratch[pairs] = ln[n - 1];
  for (std::size_t i = 0; i < n; ++i) ln[i] = scratch[i];
}

void ref_line_inverse(const Line<double>& ln, std::vector<double>& scratch) {
  const std::size_t n = ln.count;
  if (n < 2) return;
  const std::size_t pairs = n / 2;
  const std::size_t nl = n - pairs;
  scratch.resize(n);
  for (std::size_t i = 0; i < pairs; ++i) {
    const double lo = ln[i];
    const double hi = ln[nl + i];
    scratch[2 * i] = lo + hi;
    scratch[2 * i + 1] = lo - hi;
  }
  if (n % 2 != 0) scratch[n - 1] = ln[pairs];
  for (std::size_t i = 0; i < n; ++i) ln[i] = scratch[i];
}

/// The nested low blocks of a `levels`-deep transform of `a`, outermost first.
std::vector<NdSpan<double>> ref_blocks(NdSpan<double> a, int levels) {
  std::vector<NdSpan<double>> blocks;
  NdSpan<double> block = a;
  for (int l = 0; l < levels; ++l) {
    blocks.push_back(block);
    std::array<std::size_t, kMaxRank> offs{};
    std::array<std::size_t, kMaxRank> exts{};
    for (std::size_t ax = 0; ax < block.rank(); ++ax) exts[ax] = (block.extent(ax) + 1) / 2;
    block = block.subblock(std::span(offs.data(), block.rank()),
                           std::span(exts.data(), block.rank()));
  }
  return blocks;
}

void ref_haar_forward(NdSpan<double> a, int levels) {
  std::vector<double> scratch;
  for (const NdSpan<double>& b : ref_blocks(a, levels)) {
    for (std::size_t ax = 0; ax < b.rank(); ++ax) {
      b.for_each_line(ax, [&](const Line<double>& ln) { ref_line_forward(ln, scratch); });
    }
  }
}

void ref_haar_inverse(NdSpan<double> a, int levels) {
  std::vector<double> scratch;
  const auto blocks = ref_blocks(a, levels);
  for (auto b = blocks.rbegin(); b != blocks.rend(); ++b) {
    for (std::size_t ax = b->rank(); ax-- > 0;) {
      b->for_each_line(ax, [&](const Line<double>& ln) { ref_line_inverse(ln, scratch); });
    }
  }
}

/// Row-major flat offsets of the high (`want_high`) or low elements of
/// `shape` against the low corner `low`, by a per-element odometer.
std::vector<std::size_t> ref_band_offsets(const Shape& shape, const Shape& low, bool want_high) {
  std::vector<std::size_t> out;
  std::array<std::size_t, kMaxRank> idx{};
  for (std::size_t flat = 0; flat < shape.size(); ++flat) {
    bool in_low = true;
    for (std::size_t ax = 0; ax < shape.rank(); ++ax) in_low = in_low && idx[ax] < low[ax];
    if (in_low != want_high) out.push_back(flat);
    for (std::size_t ax = shape.rank(); ax-- > 0;) {
      if (++idx[ax] < shape[ax]) break;
      idx[ax] = 0;
    }
  }
  return out;
}

bool same_bits(const NdArray<double>& a, const NdArray<double>& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Ranks 1-4, odd extents, extent-1 and extent-2 axes, and shapes whose
/// passes outgrow the scratch budget (column chunks, single columns).
std::vector<Shape> reference_shapes() {
  return {Shape{1},       Shape{2},         Shape{7},          Shape{64},
          Shape{1001},    Shape{70001},     Shape{33, 17},     Shape{1, 9},
          Shape{600, 120}, Shape{66001, 2}, Shape{1, 7, 1},    Shape{7, 5, 3},
          Shape{8, 8, 8}, Shape{2, 3, 2},   Shape{96, 82, 2},  Shape{5, 4, 3, 6},
          Shape{3, 1, 4, 2}, Shape{2, 2, 2, 2}};
}

TEST(HaarReference, ForwardAndInverseMatchPerLineBitForBit) {
  for (const Shape& shape : reference_shapes()) {
    for (int levels = 1; levels <= 3; ++levels) {
      SCOPED_TRACE(shape.to_string() + " levels=" + std::to_string(levels));
      const NdArray<double> orig = random_array(shape, 97 + shape.size());
      NdArray<double> fwd = orig;
      NdArray<double> ref = orig;
      haar_forward(fwd.view(), levels);
      ref_haar_forward(ref.view(), levels);
      ASSERT_TRUE(same_bits(fwd, ref));

      // Random coefficients, so the inverse rounds as it would in use.
      NdArray<double> inv = orig;
      NdArray<double> ref_inv = orig;
      haar_inverse(inv.view(), levels);
      ref_haar_inverse(ref_inv.view(), levels);
      ASSERT_TRUE(same_bits(inv, ref_inv));
    }
  }
}

TEST(HaarReference, StridedSubblockMatchesPerLineBitForBit) {
  const NdArray<double> orig = random_array(Shape{12, 10, 6}, 5);
  const std::size_t offs[] = {1, 2, 1};
  const std::size_t exts[] = {9, 7, 4};
  for (int levels = 1; levels <= 3; ++levels) {
    SCOPED_TRACE(levels);
    NdArray<double> a = orig;
    NdArray<double> ref = orig;
    haar_forward(a.view().subblock(offs, exts), levels);
    ref_haar_forward(ref.view().subblock(offs, exts), levels);
    ASSERT_TRUE(same_bits(a, ref));
    haar_inverse(a.view().subblock(offs, exts), levels);
    ref_haar_inverse(ref.view().subblock(offs, exts), levels);
    ASSERT_TRUE(same_bits(a, ref));
  }
}

/// Expands the runs `walk` yields into offsets, checking that each run
/// is non-empty and maximal (never adjacent to the one before it).
template <typename Walk>
std::vector<std::size_t> expand_runs(Walk&& walk) {
  std::vector<std::size_t> out;
  walk([&out](std::size_t off, std::size_t count) {
    EXPECT_GT(count, 0u);
    if (!out.empty()) {
      EXPECT_LT(out.back() + 1, off) << "runs not maximal";
    }
    for (std::size_t i = 0; i < count; ++i) out.push_back(off + i);
  });
  return out;
}

TEST(BandRuns, HighAndLowRunsMatchOdometer) {
  for (const Shape& shape : reference_shapes()) {
    for (int levels = 1; levels <= 3; ++levels) {
      SCOPED_TRACE(shape.to_string() + " levels=" + std::to_string(levels));
      const Shape low = WaveletPlan::create(shape, levels).final_low_extents();
      EXPECT_EQ(expand_runs([&](auto fn) { for_each_high_run(shape, low, fn); }),
                ref_band_offsets(shape, low, true));
      EXPECT_EQ(expand_runs([&](auto fn) { for_each_low_run(shape, low, fn); }),
                ref_band_offsets(shape, low, false));
    }
  }
}

TEST(BandRuns, BandVisitorsMatchOdometerOnContiguousAndStridedViews) {
  NdArray<double> base(Shape{11, 9, 6});
  const std::size_t offs[] = {2, 1, 1};
  const std::size_t exts[] = {7, 8, 5};
  for (const NdSpan<double>& view : {base.view(), base.view().subblock(offs, exts)}) {
    for (int levels = 1; levels <= 3; ++levels) {
      const Shape low = WaveletPlan::create(view.shape(), levels).final_low_extents();
      for (const bool high : {true, false}) {
        std::vector<const double*> want;
        for (const std::size_t flat : ref_band_offsets(view.shape(), low, high)) {
          std::array<std::size_t, kMaxRank> idx{};
          std::size_t rest = flat;
          for (std::size_t ax = view.rank(); ax-- > 0;) {
            idx[ax] = rest % view.extent(ax);
            rest /= view.extent(ax);
          }
          want.push_back(&view.at(std::span(idx.data(), view.rank())));
        }
        std::vector<const double*> seen;
        const auto visit = [&seen](double& v) { seen.push_back(&v); };
        if (high) {
          for_each_high_band(view, low, visit);
        } else {
          for_each_low_band(view, low, visit);
        }
        EXPECT_EQ(seen, want) << "levels=" << levels << " high=" << high;
      }
    }
  }
}

TEST(BandRuns, Fig9ShapeHighBandsAreFewRuns) {
  // One level over 1156x82x2. Each of the 578 rows of axis 0's low half
  // holds 40 one-element runs (the H half of the extent-2 axis) and one
  // 83-element run: the 41st H element joins the row's 82-element high
  // half of axis 1. The last row's run also takes in the whole high half
  // of axis 0.
  const Shape shape{1156, 82, 2};
  const WaveletPlan plan = WaveletPlan::create(shape, 1);
  std::size_t runs = 0;
  std::size_t elements = 0;
  for_each_high_run(shape, plan.final_low_extents(), [&](std::size_t, std::size_t count) {
    ++runs;
    elements += count;
  });
  EXPECT_EQ(runs, 578u * 41u);
  EXPECT_EQ(elements, plan.high_count());
  EXPECT_EQ(elements, 165886u);
}

}  // namespace
}  // namespace wck
