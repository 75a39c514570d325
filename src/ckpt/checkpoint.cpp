#include "ckpt/checkpoint.hpp"

#include "io/io_backend.hpp"
#include "telemetry/telemetry.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace wck {
namespace {

constexpr std::uint32_t kMagic = 0x504B4357;  // "WCKP" little-endian
constexpr std::uint8_t kVersion = 2;          // whole-file CRC-32 trailer
constexpr std::uint8_t kVersionFieldCrcs = 1;  // decode-only: one CRC-32 per payload

/// One field as stored; its payload is not decoded yet.
struct StoredField {
  std::string name;
  std::string codec;
  std::span<const std::byte> payload;
};

struct StoredCheckpoint {
  std::uint64_t step = 0;
  std::vector<StoredField> fields;
};

[[noreturn]] void throw_crc_mismatch(const std::string& where) {
  WCK_COUNTER_ADD("ckpt.crc_failures", 1);
  throw CorruptDataError("checkpoint: CRC mismatch in " + where);
}

/// Parses the framing of a serialized checkpoint and checks all that
/// needs no codec: magic, version, checksums and, when given, the step.
StoredCheckpoint read_stored(std::span<const std::byte> data,
                             std::optional<std::uint64_t> expected_step) {
  ByteReader r(data);
  if (r.u32() != kMagic) throw FormatError("checkpoint: bad magic");
  const std::uint8_t version = r.u8();
  if (version == kVersion) {
    // The trailer covers every byte before it, so nothing else is
    // trusted until it matches.
    if (r.remaining() < 4) throw FormatError("checkpoint: truncated before the CRC trailer");
    const auto covered = data.first(data.size() - 4);
    if (crc32(covered) != ByteReader(data.last(4)).u32()) throw_crc_mismatch("trailer");
    r = ByteReader(covered.subspan(r.position()));
  } else if (version != kVersionFieldCrcs) {
    throw FormatError("checkpoint: unsupported version " + std::to_string(version));
  }

  StoredCheckpoint stored;
  stored.step = r.varint();
  if (expected_step.has_value() && stored.step != *expected_step) {
    throw CorruptDataError("checkpoint: header records step " + std::to_string(stored.step) +
                           ", expected " + std::to_string(*expected_step));
  }
  const std::uint64_t count = r.varint();
  stored.fields.reserve(count <= 1024 ? count : 0);
  for (std::uint64_t f = 0; f < count; ++f) {
    StoredField field;
    field.name = r.str();
    field.codec = r.str();
    field.payload = r.raw(r.varint());
    if (version == kVersionFieldCrcs && crc32(field.payload) != r.u32()) {
      throw_crc_mismatch("field " + field.name);
    }
    stored.fields.push_back(std::move(field));
  }
  if (!r.exhausted()) throw FormatError("checkpoint: trailing bytes");
  return stored;
}

}  // namespace

void CheckpointRegistry::add(const std::string& name, NdArray<double>* array) {
  if (array == nullptr) throw InvalidArgumentError("registry: null array for " + name);
  if (name.empty()) throw InvalidArgumentError("registry: empty field name");
  if (find(name) != nullptr) {
    throw InvalidArgumentError("registry: duplicate field name " + name);
  }
  entries_.push_back(Entry{name, array});
}

NdArray<double>* CheckpointRegistry::find(const std::string& name) const noexcept {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.array;
  }
  return nullptr;
}

std::size_t CheckpointRegistry::total_bytes() const noexcept {
  std::size_t n = 0;
  for (const Entry& e : entries_) n += e.array->size_bytes();
  return n;
}

Bytes serialize_checkpoint(const CheckpointRegistry& registry, const Codec& codec,
                           std::uint64_t step, CheckpointInfo* info) {
  WCK_TRACE_SPAN("ckpt.serialize");
  CheckpointInfo local;
  local.step = step;
  local.field_count = registry.entries().size();

  ByteWriter w;
  w.u32(kMagic);
  w.u8(kVersion);
  w.varint(step);
  w.varint(registry.entries().size());
  for (const auto& e : registry.entries()) {
    const Bytes payload = codec.encode(*e.array);
    w.str(e.name);
    w.str(codec.name());
    w.varint(payload.size());
    w.raw(payload.data(), payload.size());
    local.original_bytes += e.array->size_bytes();
    local.stored_bytes += payload.size();
  }
  w.u32(crc32(std::span<const std::byte>(w.buffer())));
  if (info != nullptr) *info = local;
  WCK_COUNTER_ADD("ckpt.serialize.fields", local.field_count);
  WCK_COUNTER_ADD("ckpt.serialize.bytes_in", local.original_bytes);
  WCK_COUNTER_ADD("ckpt.serialize.bytes_out", local.stored_bytes);
  return w.take();
}

namespace {

/// Decodes and stages every field; throws (without touching the
/// registry arrays) on any corruption. Split out so restore_checkpoint
/// can count staged-commit aborts on the telemetry side.
CheckpointInfo restore_checkpoint_impl(std::span<const std::byte> data,
                                       const CheckpointRegistry& registry,
                                       std::optional<std::uint64_t> expected_step) {
  const StoredCheckpoint stored = read_stored(data, expected_step);
  CheckpointInfo info;
  info.step = stored.step;
  info.field_count = stored.fields.size();

  // Decode every field before touching the registry: a restore must be
  // transactional, so a corrupt later field cannot leave the application
  // with some arrays restored and others still holding live state.
  std::vector<std::pair<NdArray<double>*, NdArray<double>>> staged;
  staged.reserve(stored.fields.size());
  for (const StoredField& field : stored.fields) {
    NdArray<double>* target = registry.find(field.name);
    if (target == nullptr) {
      throw FormatError("checkpoint: field " + field.name + " is not registered");
    }
    const Codec& codec = codec_for_decoding(field.codec);
    NdArray<double> decoded = codec.decode(field.payload);
    if (target->size() != 0 && decoded.shape() != target->shape()) {
      throw FormatError("checkpoint: field " + field.name + " shape " +
                        decoded.shape().to_string() + " does not match registered array " +
                        target->shape().to_string());
    }
    info.original_bytes += decoded.size_bytes();
    info.stored_bytes += field.payload.size();
    staged.emplace_back(target, std::move(decoded));
  }
  for (auto& [target, decoded] : staged) *target = std::move(decoded);
  return info;
}

}  // namespace

CheckpointInfo restore_checkpoint(std::span<const std::byte> data,
                                  const CheckpointRegistry& registry,
                                  std::optional<std::uint64_t> expected_step) {
  WCK_TRACE_SPAN("ckpt.restore");
  try {
    const CheckpointInfo info = restore_checkpoint_impl(data, registry, expected_step);
    WCK_COUNTER_ADD("ckpt.restore.fields", info.field_count);
    WCK_COUNTER_ADD("ckpt.restore.bytes_in", info.stored_bytes);
    WCK_COUNTER_ADD("ckpt.restore.bytes_out", info.original_bytes);
    return info;
  } catch (...) {
    // The staged-then-commit restore rolled back: no registry array was
    // modified. Count the abort so operators can see corrupt streams.
    WCK_COUNTER_ADD("ckpt.restore.aborts", 1);
    throw;
  }
}

void verify_checkpoint(std::span<const std::byte> data, std::uint64_t step) {
  (void)read_stored(data, step);
}

CheckpointInfo write_checkpoint(const std::filesystem::path& path,
                                const CheckpointRegistry& registry, const Codec& codec,
                                std::uint64_t step, IoBackend& io) {
  WCK_TRACE_SPAN("ckpt.write");
  const WallTimer write_timer;
  CheckpointInfo info;
  const Bytes data = serialize_checkpoint(registry, codec, step, &info);

  // Durable commit: unique temp + fsync(file) + rename + fsync(dir).
  // Without the fsyncs a crash shortly after the rename can still
  // surface an empty or torn file under the committed name.
  atomic_write_durable(io, path, data);
  WCK_COUNTER_ADD("ckpt.write.files", 1);
  WCK_HISTOGRAM_RECORD("ckpt.write.seconds", write_timer.seconds());
  return info;
}

CheckpointInfo write_checkpoint(const std::filesystem::path& path,
                                const CheckpointRegistry& registry, const Codec& codec,
                                std::uint64_t step) {
  return write_checkpoint(path, registry, codec, step, default_io_backend());
}

CheckpointInfo read_checkpoint(const std::filesystem::path& path,
                               const CheckpointRegistry& registry, IoBackend& io) {
  WCK_TRACE_SPAN("ckpt.read");
  const Bytes data = io.read_file(path);
  return restore_checkpoint(data, registry);
}

CheckpointInfo read_checkpoint(const std::filesystem::path& path,
                               const CheckpointRegistry& registry) {
  return read_checkpoint(path, registry, default_io_backend());
}

}  // namespace wck
