// Application-level checkpoint/restart.
//
// Applications register their state arrays by name in a
// CheckpointRegistry; write_checkpoint() serializes every registered
// array through a chosen codec into a single self-describing,
// CRC-protected file (or byte buffer); read_checkpoint() restores the
// arrays in place. This is the application-facing layer the paper's
// "application-level checkpoint/restart" refers to.
//
// Layout, version 2 (all integers little-endian, counts as varints):
//   u32 magic "WCKP", u8 version 2, step, field count,
//   per field: name, codec id, payload size, payload bytes,
//   u32 CRC-32 of every byte before it.
// Version 1 (decode-only) has no trailer; each payload is instead
// followed by its own CRC-32, and nothing covers the header, the names
// or the codec ids.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/codec.hpp"
#include "ndarray/ndarray.hpp"
#include "util/bytes.hpp"

namespace wck {

/// Named mutable bindings to an application's state arrays.
class CheckpointRegistry {
 public:
  /// Binds `array` (owned by the application, must outlive the registry)
  /// under `name`. Duplicate names are rejected.
  void add(const std::string& name, NdArray<double>* array);

  struct Entry {
    std::string name;
    NdArray<double>* array;
  };
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept { return entries_; }

  /// Pointer to the array bound to `name`, or nullptr.
  [[nodiscard]] NdArray<double>* find(const std::string& name) const noexcept;

  /// Total bytes of all registered arrays (uncompressed).
  [[nodiscard]] std::size_t total_bytes() const noexcept;

 private:
  std::vector<Entry> entries_;
};

/// Summary of a written or restored checkpoint.
struct CheckpointInfo {
  std::uint64_t step = 0;
  std::size_t field_count = 0;
  std::size_t original_bytes = 0;   ///< sum of raw array sizes
  std::size_t stored_bytes = 0;     ///< sum of encoded payload sizes

  /// Eq. 5 over the whole checkpoint.
  [[nodiscard]] double compression_rate_percent() const noexcept {
    return original_bytes == 0 ? 0.0
                               : 100.0 * static_cast<double>(stored_bytes) /
                                     static_cast<double>(original_bytes);
  }
};

/// Serializes all registered arrays with `codec` into a byte buffer.
[[nodiscard]] Bytes serialize_checkpoint(const CheckpointRegistry& registry, const Codec& codec,
                                         std::uint64_t step, CheckpointInfo* info = nullptr);

/// Restores registered arrays from a serialized checkpoint. Every field
/// in the buffer must be registered (unknown fields throw FormatError);
/// registered fields missing from the buffer are left untouched. With
/// `expected_step`, a checkpoint whose header records another step is a
/// CorruptDataError. Every check runs before any array is modified.
[[nodiscard]] CheckpointInfo restore_checkpoint(
    std::span<const std::byte> data, const CheckpointRegistry& registry,
    std::optional<std::uint64_t> expected_step = std::nullopt);

/// Checks a serialized checkpoint without decoding any field: magic,
/// version, the checksums (the v2 trailer, or every v1 field CRC) and
/// the header step against `step`. Throws FormatError or
/// CorruptDataError on the first failure.
void verify_checkpoint(std::span<const std::byte> data, std::uint64_t step);

class IoBackend;

/// File variants of the above, routed through an IoBackend (explicit, or
/// the process default — see src/io/io_backend.hpp). write_checkpoint
/// commits durably and atomically: a process-unique `<path>.tmp.*` file
/// is written, fsynced, renamed over `path`, and the parent directory is
/// fsynced; concurrent writers to the same target cannot collide, and a
/// crash leaves `path` either absent, the old contents, or fully the new
/// contents.
[[nodiscard]] CheckpointInfo write_checkpoint(const std::filesystem::path& path,
                                              const CheckpointRegistry& registry,
                                              const Codec& codec, std::uint64_t step,
                                              IoBackend& io);
[[nodiscard]] CheckpointInfo write_checkpoint(const std::filesystem::path& path,
                                              const CheckpointRegistry& registry,
                                              const Codec& codec, std::uint64_t step);
[[nodiscard]] CheckpointInfo read_checkpoint(const std::filesystem::path& path,
                                             const CheckpointRegistry& registry,
                                             IoBackend& io);
[[nodiscard]] CheckpointInfo read_checkpoint(const std::filesystem::path& path,
                                             const CheckpointRegistry& registry);

}  // namespace wck
