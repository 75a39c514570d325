#include "quantize/quantizer.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "simd/dispatch.hpp"
#include "util/error.hpp"

namespace wck {
namespace {

void check_divisions(int n) {
  if (n < 1 || n > 256) {
    throw InvalidArgumentError("division number n must be in 1..256 (1-byte indexes), got " +
                               std::to_string(n));
  }
}

struct MinMax {
  double min;
  double max;
};

MinMax min_max(std::span<const double> values) {
  MinMax r{0.0, 0.0};
  simd::kernels().range_min_max(values.data(), values.size(), &r.min, &r.max);
  return r;
}

/// Partition index of v in an equal-width grid of `n` cells over
/// [lo, hi], clamped to [0, n-1]. Shared with the batch kernels.
int grid_index(double v, double lo, double inv_width, int n) noexcept {
  return simd::grid_index_one(v, lo, inv_width, n);
}

/// Batch size for grid_index_batch accumulation passes: the index
/// buffer stays L1-resident while the vector kernel amortizes.
constexpr std::size_t kBatch = 4096;

/// Applies `fold(index, value)` to every value's grid index, computing
/// indexes a batch at a time through the dispatched kernel. A non-empty
/// `out` (one slot per value) keeps the indexes.
template <typename Fold>
void for_each_grid_index(std::span<const double> values, double lo, double inv_width, int n,
                         Fold&& fold, std::span<std::int32_t> out = {}) {
  const simd::KernelTable& k = simd::kernels();
  std::array<std::int32_t, kBatch> buf;
  for (std::size_t off = 0; off < values.size(); off += kBatch) {
    const std::size_t m = std::min(kBatch, values.size() - off);
    std::int32_t* idx = out.empty() ? buf.data() : out.data() + off;
    k.grid_index_batch(values.data() + off, m, lo, inv_width, n, idx);
    for (std::size_t i = 0; i < m; ++i) {
      fold(static_cast<std::size_t>(idx[i]), values[off + i]);
    }
  }
}

void check_classes(std::span<const double> values, std::span<const std::int32_t> classes) {
  if (!classes.empty() && classes.size() != values.size()) {
    throw InvalidArgumentError("analyze: classes size " + std::to_string(classes.size()) +
                               " does not match " + std::to_string(values.size()) + " values");
  }
}

}  // namespace

Histogram Histogram::build(std::span<const double> values, int bins) {
  if (bins < 1) throw InvalidArgumentError("histogram needs >= 1 bin");
  Histogram h;
  h.counts.assign(static_cast<std::size_t>(bins), 0);
  if (values.empty()) return h;
  const auto [lo, hi] = min_max(values);
  h.min = lo;
  h.max = hi;
  const double inv = hi > lo ? bins / (hi - lo) : 0.0;
  for_each_grid_index(values, lo, inv, bins, [&h](std::size_t p, double) { ++h.counts[p]; });
  return h;
}

int Histogram::bin_of(double v) const noexcept {
  const int bins = static_cast<int>(counts.size());
  const double inv = max > min ? bins / (max - min) : 0.0;
  return grid_index(v, min, inv, bins);
}

int QuantizationScheme::classify(double v) const noexcept {
  if (averages_.empty()) return kUnquantized;
  if (kind_ == QuantizerKind::kSpike) {
    const int dp = grid_index(v, domain_min_, inv_domain_width_,
                              static_cast<int>(spike_mask_.size()));
    if (!spike_mask_[static_cast<std::size_t>(dp)]) return kUnquantized;
    // A value in a spike partition always lies inside the quantization
    // span (the span covers all spike partitions); clamping guards FP
    // boundary cases only.
  }
  return grid_index(v, quant_min_, inv_width_, divisions_);
}

QuantizationScheme QuantizationScheme::analyze_simple(std::span<const double> values, int n,
                                                      const ValueRange* range,
                                                      std::span<std::int32_t> classes) {
  check_divisions(n);
  check_classes(values, classes);
  QuantizationScheme s;
  s.kind_ = QuantizerKind::kSimple;
  s.divisions_ = n;
  if (values.empty()) return s;

  const auto [lo, hi] = range != nullptr ? MinMax{range->min, range->max} : min_max(values);
  s.quant_min_ = lo;
  s.quant_max_ = hi;
  s.inv_width_ = hi > lo ? n / (hi - lo) : 0.0;

  // Mean of the values inside each partition (Fig. 4 step 2). Empty
  // partitions get their midpoint — such entries are never referenced
  // but keep the table dense and deterministic.
  std::vector<double> sums(static_cast<std::size_t>(n), 0.0);
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(n), 0);
  // Every value is quantized, so its partition is its class.
  for_each_grid_index(
      values, lo, s.inv_width_, n,
      [&sums, &counts](std::size_t p, double v) {
        sums[p] += v;
        ++counts[p];
      },
      classes);
  s.averages_.resize(static_cast<std::size_t>(n));
  const double width = hi > lo ? (hi - lo) / n : 0.0;
  for (std::size_t p = 0; p < s.averages_.size(); ++p) {
    s.averages_[p] =
        counts[p] > 0 ? sums[p] / static_cast<double>(counts[p]) : lo + width * (p + 0.5);
  }
  return s;
}

QuantizationScheme QuantizationScheme::analyze_spike(std::span<const double> values, int n,
                                                     int d, const ValueRange* range,
                                                     std::span<std::int32_t> classes) {
  check_divisions(n);
  if (d < 1) throw InvalidArgumentError("spike partition count d must be >= 1");
  check_classes(values, classes);
  QuantizationScheme s;
  s.kind_ = QuantizerKind::kSpike;
  s.divisions_ = n;
  if (values.empty()) return s;

  const auto [lo, hi] = range != nullptr ? MinMax{range->min, range->max} : min_max(values);
  s.domain_min_ = lo;
  s.domain_max_ = hi;
  s.inv_domain_width_ = hi > lo ? d / (hi - lo) : 0.0;

  // Spike detection (Eq. 4): partitions holding at least the average
  // number of values per partition.
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(d), 0);
  for_each_grid_index(values, lo, s.inv_domain_width_, d,
                      [&counts](std::size_t p, double) { ++counts[p]; });
  const double threshold = static_cast<double>(values.size()) / d;
  s.spike_mask_.assign(static_cast<std::size_t>(d), false);
  int first_spike = -1;
  int last_spike = -1;
  for (int p = 0; p < d; ++p) {
    if (static_cast<double>(counts[static_cast<std::size_t>(p)]) >= threshold) {
      s.spike_mask_[static_cast<std::size_t>(p)] = true;
      if (first_spike < 0) first_spike = p;
      last_spike = p;
    }
  }
  if (first_spike < 0) {
    // No partition reaches the average => degenerate (cannot happen for
    // d >= 1 with nonempty input: some partition always holds >= mean).
    first_spike = 0;
    last_spike = d - 1;
    std::fill(s.spike_mask_.begin(), s.spike_mask_.end(), true);
  }

  // Simple quantization with n partitions across the span of detected
  // partitions (Fig. 4 step 5). Values in non-spike partitions within
  // the span remain exact; classify() filters them by spike_mask_.
  const double dwidth = hi > lo ? (hi - lo) / d : 0.0;
  s.quant_min_ = lo + dwidth * first_spike;
  s.quant_max_ = lo + dwidth * (last_spike + 1);
  if (last_spike == d - 1) s.quant_max_ = hi;  // avoid FP drift past the top
  s.inv_width_ = s.quant_max_ > s.quant_min_ ? n / (s.quant_max_ - s.quant_min_) : 0.0;

  // Both grid indexes of every value, dp on the d-grid and qp on the
  // n-grid, are exactly what classify() computes: a value outside the
  // spike partitions is kUnquantized, any other one is class qp.
  std::vector<double> sums(static_cast<std::size_t>(n), 0.0);
  std::vector<std::uint64_t> qcounts(static_cast<std::size_t>(n), 0);
  {
    const simd::KernelTable& k = simd::kernels();
    std::array<std::int32_t, kBatch> dp;
    std::array<std::int32_t, kBatch> qbuf;
    for (std::size_t off = 0; off < values.size(); off += kBatch) {
      const std::size_t m = std::min(kBatch, values.size() - off);
      std::int32_t* qp = classes.empty() ? qbuf.data() : classes.data() + off;
      k.grid_index_batch(values.data() + off, m, lo, s.inv_domain_width_, d, dp.data());
      k.grid_index_batch(values.data() + off, m, s.quant_min_, s.inv_width_, n, qp);
      for (std::size_t i = 0; i < m; ++i) {
        if (!s.spike_mask_[static_cast<std::size_t>(dp[i])]) {
          qp[i] = kUnquantized;
          continue;
        }
        sums[static_cast<std::size_t>(qp[i])] += values[off + i];
        ++qcounts[static_cast<std::size_t>(qp[i])];
      }
    }
  }
  s.averages_.resize(static_cast<std::size_t>(n));
  const double qwidth = s.quant_max_ > s.quant_min_ ? (s.quant_max_ - s.quant_min_) / n : 0.0;
  for (std::size_t p = 0; p < s.averages_.size(); ++p) {
    s.averages_[p] = qcounts[p] > 0 ? sums[p] / static_cast<double>(qcounts[p])
                                    : s.quant_min_ + qwidth * (p + 0.5);
  }
  return s;
}

QuantizationScheme QuantizationScheme::analyze(std::span<const double> values,
                                               const QuantizerConfig& cfg,
                                               const ValueRange* range,
                                               std::span<std::int32_t> classes) {
  switch (cfg.kind) {
    case QuantizerKind::kSimple:
      return analyze_simple(values, cfg.divisions, range, classes);
    case QuantizerKind::kSpike:
      return analyze_spike(values, cfg.divisions, cfg.spike_partitions, range, classes);
  }
  throw InvalidArgumentError("unknown quantizer kind");
}

}  // namespace wck
