// Test-only writers for stored layouts the library reads but no longer
// writes: payload v2, the WCKP v1 container and checkpoint v1. Each is
// the old library writer's body, kept as the reference that pins old
// streams. The decoders must accept their output, the golden digests of
// the v2 Fig. 9 / noise payloads are computed from them, and tests check
// them against fixtures written by the old library.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "deflate/deflate.hpp"
#include "encode/payload.hpp"
#include "util/bytes.hpp"
#include "util/checksum.hpp"

namespace wck {

/// Serializes `p` in the v2 layout: every double as 8 interleaved
/// little-endian bytes, then the trailing CRC-32.
inline Bytes encode_payload_v2(const LossyPayload& p) {
  ByteWriter w;
  w.u32(0x4C4B4357);  // "WCKL"
  w.u8(2);
  w.u8(static_cast<std::uint8_t>(p.quantizer));
  w.u8(static_cast<std::uint8_t>(p.wavelet));
  w.u8(static_cast<std::uint8_t>(p.shape.rank()));
  w.u8(static_cast<std::uint8_t>(p.levels));
  for (std::size_t a = 0; a < p.shape.rank(); ++a) w.varint(p.shape[a]);
  w.varint(p.averages.size());
  w.varint(p.low_band.size());
  w.varint(p.quantized.size());
  w.varint(p.indices.size());
  w.f64_array(p.averages);
  w.f64_array(p.low_band);
  p.quantized.serialize_to(w.buffer());
  w.raw(p.indices.data(), p.indices.size());
  w.f64_array(p.exact_values);
  const std::uint32_t crc = crc32(std::span<const std::byte>(w.buffer()));
  w.u32(crc);
  return w.take();
}

/// Writes a WCKP v1 container: fixed `block_size` blocks, each deflated
/// at level 6, behind a {compressed, uncompressed, crc32} table.
inline Bytes wckp_v1_container(std::span<const std::byte> input, std::size_t block_size) {
  const std::size_t blocks = (input.size() + block_size - 1) / block_size;
  std::vector<Bytes> bodies;
  ByteWriter w;
  w.u32(0x504B4357);  // "WCKP"
  w.u8(1);
  w.u8(0);
  w.varint(block_size);
  w.varint(input.size());
  w.varint(blocks);
  for (std::size_t i = 0; i < blocks; ++i) {
    const auto block =
        input.subspan(i * block_size, std::min(block_size, input.size() - i * block_size));
    bodies.push_back(deflate_compress(block));
    w.varint(bodies.back().size());
    w.varint(block.size());
    w.u32(crc32(block));
  }
  for (const Bytes& body : bodies) w.raw(body);
  return w.take();
}

/// One field of a version 1 checkpoint: name, codec id and the codec's
/// payload.
struct CheckpointV1Field {
  std::string name;
  std::string codec;
  Bytes payload;
};

/// Writes a version 1 checkpoint: the header, then each field with the
/// CRC-32 of its payload after it. Nothing covers the header, the names
/// or the codec ids.
inline Bytes checkpoint_v1(std::uint64_t step, const std::vector<CheckpointV1Field>& fields) {
  ByteWriter w;
  w.u32(0x504B4357);  // "WCKP"
  w.u8(1);
  w.varint(step);
  w.varint(fields.size());
  for (const CheckpointV1Field& f : fields) {
    w.str(f.name);
    w.str(f.codec);
    w.varint(f.payload.size());
    w.raw(f.payload.data(), f.payload.size());
    w.u32(crc32(std::span<const std::byte>(f.payload)));
  }
  return w.take();
}

}  // namespace wck
