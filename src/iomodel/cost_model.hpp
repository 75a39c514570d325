// Checkpoint cost modeling (paper Sec. II-A Eq. 1 and Sec. IV-D Fig. 9).
//
// The paper estimates checkpoint time at scale by combining measured
// per-process compression time with a modeled parallel-filesystem
// write:   t_io(P) = latency + per_process_bytes * cr * P / bandwidth.
// Compression runs embarrassingly parallel per process, so its time is
// independent of P; I/O is shared, so its time grows linearly in P. The
// with-compression curve is therefore flatter, crossing the
// no-compression curve at a moderate P and approaching a (1 - cr)
// asymptotic reduction.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace wck {

/// A shared storage system, e.g. the paper's 20 GB/s parallel FS.
struct StorageModel {
  double bandwidth_bytes_per_s = 20e9;
  double latency_s = 0.0;

  /// Time to write `total_bytes` through the shared system.
  [[nodiscard]] double write_time(double total_bytes) const noexcept {
    return latency_s + total_bytes / bandwidth_bytes_per_s;
  }
};

/// Weak-scaling checkpoint cost model.
class CheckpointCostModel {
 public:
  /// `bytes_per_process`: checkpoint size per process (paper: 1.5 MB).
  /// `compression_rate`: compressed/original as a fraction (paper: 0.19).
  /// `compression_seconds`: measured compression time of one process.
  CheckpointCostModel(double bytes_per_process, double compression_rate,
                      double compression_seconds, StorageModel storage);

  /// Total checkpoint time with compression at parallelism P (Fig. 9's
  /// "Checkpoint time (w/ compression)" line).
  [[nodiscard]] double time_with_compression(std::size_t parallelism) const noexcept;

  /// Total checkpoint time without compression at parallelism P.
  [[nodiscard]] double time_without_compression(std::size_t parallelism) const noexcept;

  /// The continuous parallelism at which both strategies cost the same
  /// (the Fig. 9 crosspoint, ~768 in the paper); nullopt if compression
  /// never pays off (compression_rate >= 1).
  [[nodiscard]] std::optional<double> crosspoint() const noexcept;

  /// Eq. 1 viability at a given P: compression helps iff
  /// time_with < time_without.
  [[nodiscard]] bool compression_viable(std::size_t parallelism) const noexcept;

  /// The P -> infinity cost reduction, 1 - cr (the paper's "about 81%").
  [[nodiscard]] double asymptotic_reduction() const noexcept { return 1.0 - compression_rate_; }

  /// Reduction at a finite P: 1 - with/without.
  [[nodiscard]] double reduction_at(std::size_t parallelism) const noexcept;

  [[nodiscard]] double compression_time() const noexcept { return compression_time_; }
  [[nodiscard]] double compression_rate() const noexcept { return compression_rate_; }
  [[nodiscard]] double bytes_per_process() const noexcept { return bytes_per_process_; }
  [[nodiscard]] const StorageModel& storage() const noexcept { return storage_; }

  /// One Fig. 9 table row.
  struct Row {
    std::size_t parallelism;
    double with_compression_s;
    double without_compression_s;
    double io_s;  ///< modeled I/O share of with-compression
  };
  /// Sweeps parallelism values and returns the Fig. 9 series.
  [[nodiscard]] std::vector<Row> sweep(const std::vector<std::size_t>& parallelisms) const;

 private:
  double bytes_per_process_;
  double compression_rate_;
  double compression_time_;
  StorageModel storage_;
};

}  // namespace wck
