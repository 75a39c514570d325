#include "iomodel/cost_model.hpp"

#include "util/error.hpp"

namespace wck {

CheckpointCostModel::CheckpointCostModel(double bytes_per_process, double compression_rate,
                                         double compression_seconds, StorageModel storage)
    : bytes_per_process_(bytes_per_process),
      compression_rate_(compression_rate),
      compression_time_(compression_seconds),
      storage_(storage) {
  if (bytes_per_process <= 0.0) {
    throw InvalidArgumentError("cost model: bytes_per_process must be positive");
  }
  if (compression_rate < 0.0) {
    throw InvalidArgumentError("cost model: compression rate must be >= 0");
  }
  if (storage.bandwidth_bytes_per_s <= 0.0) {
    throw InvalidArgumentError("cost model: bandwidth must be positive");
  }
}

double CheckpointCostModel::time_with_compression(std::size_t parallelism) const noexcept {
  const double total = bytes_per_process_ * compression_rate_ *
                       static_cast<double>(parallelism);
  return compression_time_ + storage_.write_time(total);
}

double CheckpointCostModel::time_without_compression(std::size_t parallelism) const noexcept {
  return storage_.write_time(bytes_per_process_ * static_cast<double>(parallelism));
}

std::optional<double> CheckpointCostModel::crosspoint() const noexcept {
  // compression_time + cr*S*P/BW = S*P/BW  =>  P = C*BW / (S*(1-cr)).
  if (compression_rate_ >= 1.0) return std::nullopt;
  return compression_time_ * storage_.bandwidth_bytes_per_s /
         (bytes_per_process_ * (1.0 - compression_rate_));
}

bool CheckpointCostModel::compression_viable(std::size_t parallelism) const noexcept {
  return time_with_compression(parallelism) < time_without_compression(parallelism);
}

double CheckpointCostModel::reduction_at(std::size_t parallelism) const noexcept {
  const double without = time_without_compression(parallelism);
  if (without <= 0.0) return 0.0;
  return 1.0 - time_with_compression(parallelism) / without;
}

std::vector<CheckpointCostModel::Row> CheckpointCostModel::sweep(
    const std::vector<std::size_t>& parallelisms) const {
  std::vector<Row> rows;
  rows.reserve(parallelisms.size());
  for (const std::size_t p : parallelisms) {
    Row row;
    row.parallelism = p;
    row.with_compression_s = time_with_compression(p);
    row.without_compression_s = time_without_compression(p);
    row.io_s = row.with_compression_s - compression_time_;
    rows.push_back(row);
  }
  return rows;
}

}  // namespace wck
