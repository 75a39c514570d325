#include "ckpt/incremental.hpp"

#include <cstring>

#include "util/checksum.hpp"
#include "util/error.hpp"

namespace wck {
namespace {

constexpr std::uint32_t kMagic = 0x494B4357;  // "WCKI" little-endian
constexpr std::uint8_t kKindFull = 0;
constexpr std::uint8_t kKindDelta = 1;

}  // namespace

Bytes gather_image(const CheckpointRegistry& registry) {
  ByteWriter w;
  w.varint(registry.entries().size());
  for (const auto& e : registry.entries()) {
    w.str(e.name);
    w.u8(static_cast<std::uint8_t>(e.array->rank()));
    for (std::size_t a = 0; a < e.array->rank(); ++a) w.varint(e.array->extent(a));
    w.f64_array(e.array->values());
  }
  return w.take();
}

void scatter_image(std::span<const std::byte> image, const CheckpointRegistry& registry) {
  ByteReader r(image);
  const std::uint64_t fields = r.varint();
  for (std::uint64_t f = 0; f < fields; ++f) {
    const std::string name = r.str();
    const Shape shape = read_shape(r, "image");

    NdArray<double>* target = registry.find(name);
    if (target == nullptr) throw FormatError("image: field " + name + " is not registered");
    if (target->size() != 0 && target->shape() != shape) {
      throw FormatError("image: field " + name + " shape mismatch");
    }
    *target = NdArray<double>(shape, r.f64_vector(shape.size()));
  }
  if (!r.exhausted()) throw FormatError("image: trailing bytes");
}

IncrementalCheckpointer::IncrementalCheckpointer(std::size_t block_bytes,
                                                 std::size_t full_every)
    : block_bytes_(block_bytes), full_every_(full_every) {
  if (block_bytes == 0) throw InvalidArgumentError("incremental: block size must be positive");
  if (full_every == 0) throw InvalidArgumentError("incremental: full_every must be >= 1");
}

IncrementalCheckpoint IncrementalCheckpointer::checkpoint(const CheckpointRegistry& registry,
                                                          std::uint64_t step) {
  Bytes image = gather_image(registry);
  const std::size_t blocks = (image.size() + block_bytes_ - 1) / block_bytes_;

  IncrementalCheckpoint out;
  out.step = step;
  out.image_bytes = image.size();
  out.total_blocks = blocks;

  const bool emit_full = previous_image_.empty() || since_full_ + 1 >= full_every_ ||
                         previous_image_.size() != image.size();

  ByteWriter w;
  w.u32(kMagic);
  w.u8(emit_full ? kKindFull : kKindDelta);
  w.varint(step);
  w.varint(image.size());
  w.varint(block_bytes_);

  if (emit_full) {
    out.is_full = true;
    out.dirty_blocks = blocks;
    w.raw(image.data(), image.size());
    since_full_ = 0;
  } else {
    // Collect dirty blocks vs the previous image.
    std::vector<std::uint64_t> dirty;
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t off = b * block_bytes_;
      const std::size_t len = std::min(block_bytes_, image.size() - off);
      if (std::memcmp(image.data() + off, previous_image_.data() + off, len) != 0) {
        dirty.push_back(b);
      }
    }
    out.dirty_blocks = dirty.size();
    w.varint(dirty.size());
    for (const std::uint64_t b : dirty) {
      const std::size_t off = static_cast<std::size_t>(b) * block_bytes_;
      const std::size_t len = std::min(block_bytes_, image.size() - off);
      w.varint(b);
      w.raw(image.data() + off, len);
    }
    ++since_full_;
  }
  w.u32(crc32(std::span<const std::byte>(image)));

  previous_image_ = std::move(image);
  out.data = w.take();
  return out;
}

CheckpointInfo IncrementalCheckpointer::restore_chain(
    std::span<const IncrementalCheckpoint> chain, const CheckpointRegistry& registry) {
  if (chain.empty()) throw InvalidArgumentError("incremental: empty restore chain");

  Bytes image;
  std::uint64_t step = 0;
  std::size_t stored = 0;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    ByteReader r(chain[i].data);
    if (r.u32() != kMagic) throw FormatError("incremental: bad magic");
    const std::uint8_t kind = r.u8();
    step = r.varint();
    const std::uint64_t image_size = r.varint();
    const std::uint64_t block_bytes = r.varint();
    if (block_bytes == 0) throw FormatError("incremental: zero block size");
    stored += chain[i].data.size();

    if (kind == kKindFull) {
      if (i != 0) throw FormatError("incremental: full image after start of chain");
      const auto full = r.raw(image_size);
      image.assign(full.begin(), full.end());
    } else if (kind == kKindDelta) {
      if (i == 0) throw FormatError("incremental: chain must start with a full image");
      if (image.size() != image_size) {
        throw FormatError("incremental: delta image size mismatch");
      }
      const std::uint64_t dirty = r.varint();
      for (std::uint64_t dblk = 0; dblk < dirty; ++dblk) {
        const std::uint64_t b = r.varint();
        const std::size_t off = static_cast<std::size_t>(b) * block_bytes;
        if (off >= image.size()) throw FormatError("incremental: block beyond image");
        const std::size_t len = std::min<std::size_t>(block_bytes, image.size() - off);
        const auto bytes = r.raw(len);
        std::memcpy(image.data() + off, bytes.data(), len);
      }
    } else {
      throw FormatError("incremental: unknown record kind");
    }

    const std::uint32_t want = r.u32();
    if (!r.exhausted()) throw FormatError("incremental: trailing bytes");
    if (crc32(std::span<const std::byte>(image)) != want) {
      throw CorruptDataError("incremental: image CRC mismatch after applying record " +
                             std::to_string(i));
    }
  }

  scatter_image(image, registry);
  CheckpointInfo info;
  info.step = step;
  info.field_count = registry.entries().size();
  info.original_bytes = registry.total_bytes();
  info.stored_bytes = stored;
  return info;
}

}  // namespace wck
