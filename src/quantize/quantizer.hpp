// Quantization of high-frequency wavelet bands (paper Sec. III-B).
//
// Two methods:
//  * Simple quantization: the value range is split into `n` equal
//    partitions; every value is replaced by the mean of its partition
//    (Fig. 4 steps 1-2). All values are quantized.
//  * Proposed (spike) quantization: the range is first split into `d`
//    partitions; partitions holding at least Ntotal/d values form the
//    "spike" (Eq. 4, Fig. 4 steps 3-4). Simple quantization with `n`
//    partitions is applied only across the span of the spike partitions;
//    values outside spike partitions stay exact (Fig. 4 step 5). This
//    keeps rare large-magnitude coefficients unquantized, cutting the
//    worst-case error by orders of magnitude at a small size cost.
//
// After quantization at most `n` distinct representative values (the
// `averages` table) appear among quantized positions, so each quantized
// value is encodable as a 1-byte table index (Sec. III-C requires
// n <= 256).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace wck {

enum class QuantizerKind : std::uint8_t {
  kSimple = 0,
  kSpike = 1,  ///< the paper's "proposed quantization"
};

struct QuantizerConfig {
  QuantizerKind kind = QuantizerKind::kSpike;
  /// Division number `n` (paper sweeps 1..128). Must be 1..256.
  int divisions = 128;
  /// Spike-detection partition count `d` (paper fixes 64). Spike only.
  int spike_partitions = 64;
};

/// Precomputed exact extrema of a value set. Callers that already walk
/// the data (the compressor collects high-band coefficients in a pass of
/// its own) can fold min/max during that walk and hand the result to
/// analyze(), which then skips its leading range scan — the bands are
/// otherwise scanned twice. The values must be the true extrema of the
/// span passed to analyze(); results are bit-identical either way.
struct ValueRange {
  double min = 0.0;
  double max = 0.0;
};

/// The data-dependent outcome of analyzing one value set: the averages
/// table plus everything classify() needs. Serialized with the payload
/// so decompression can rebuild values from indexes.
class QuantizationScheme {
 public:
  /// Index meaning "this value is not quantized".
  static constexpr int kUnquantized = -1;

  /// Representative values; quantized positions store an index into this.
  [[nodiscard]] const std::vector<double>& averages() const noexcept { return averages_; }

  /// Returns the averages-table index for `v`, or kUnquantized if `v`
  /// must be stored exactly (outside the spike).
  [[nodiscard]] int classify(double v) const noexcept;

  /// True if the scheme quantizes nothing (degenerate empty input).
  [[nodiscard]] bool empty() const noexcept { return averages_.empty(); }

  [[nodiscard]] QuantizerKind kind() const noexcept { return kind_; }

  // --- construction ---
  //
  // `range`, when non-null, supplies the precomputed extrema of `values`
  // and elides the internal min/max pass. `classes`, when non-empty,
  // receives classify(values[i]) for every i from the pass that builds
  // the averages table (bit-identical at every dispatch level); its size
  // must equal values.size(), else InvalidArgumentError.

  /// Analyzes `values` with simple quantization into `n` partitions.
  static QuantizationScheme analyze_simple(std::span<const double> values, int n,
                                           const ValueRange* range = nullptr,
                                           std::span<std::int32_t> classes = {});

  /// Analyzes `values` with the proposed spike quantization (Eq. 4).
  static QuantizationScheme analyze_spike(std::span<const double> values, int n, int d,
                                          const ValueRange* range = nullptr,
                                          std::span<std::int32_t> classes = {});

  /// Dispatches on config.kind.
  static QuantizationScheme analyze(std::span<const double> values, const QuantizerConfig& cfg,
                                    const ValueRange* range = nullptr,
                                    std::span<std::int32_t> classes = {});

  // --- serialization (used by the encode subsystem) ---

  /// Fields needed to reconstruct classify() on the decompress side are
  /// NOT serialized: decompression only needs averages(). These
  /// accessors exist for tests and diagnostics.
  [[nodiscard]] double quant_min() const noexcept { return quant_min_; }
  [[nodiscard]] double quant_max() const noexcept { return quant_max_; }
  [[nodiscard]] double domain_min() const noexcept { return domain_min_; }
  [[nodiscard]] double domain_max() const noexcept { return domain_max_; }
  [[nodiscard]] const std::vector<bool>& spike_mask() const noexcept { return spike_mask_; }

 private:
  QuantizerKind kind_ = QuantizerKind::kSimple;
  std::vector<double> averages_;
  // Quantization span (simple: whole domain; spike: span of detected
  // partitions).
  double quant_min_ = 0.0;
  double quant_max_ = 0.0;
  double inv_width_ = 0.0;  ///< divisions / (quant_max - quant_min), 0 if degenerate
  int divisions_ = 0;
  // Spike-only: the d-grid over the full domain and its detected mask.
  double domain_min_ = 0.0;
  double domain_max_ = 0.0;
  double inv_domain_width_ = 0.0;
  std::vector<bool> spike_mask_;
};

/// Equal-width histogram helper (used by spike detection and benches).
struct Histogram {
  double min = 0.0;
  double max = 0.0;
  std::vector<std::uint64_t> counts;

  /// Builds a `bins`-bin histogram over [min(values), max(values)].
  static Histogram build(std::span<const double> values, int bins);

  /// Bin index of `v` (clamped to the edge bins).
  [[nodiscard]] int bin_of(double v) const noexcept;
};

}  // namespace wck
