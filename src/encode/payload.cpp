#include "encode/payload.hpp"

#include <bit>
#include <string>

#include "util/checksum.hpp"
#include "util/error.hpp"

namespace wck {
namespace {

constexpr std::uint32_t kMagic = 0x4C4B4357;  // "WCKL" little-endian
constexpr std::uint8_t kVersionInterleaved = 2;  // v2 added the wavelet-kind field
constexpr std::uint8_t kVersionPlanes = 3;       // v3 stores doubles as byte planes

/// Appends `values` as 8 byte planes (plane k holds byte k, little-endian,
/// of every value) and records where each plane ends.
void write_planes(Bytes& out, std::span<const double> values, std::vector<std::size_t>* ends) {
  const std::size_t n = values.size();
  const std::size_t base = out.size();
  out.resize(base + 8 * n);
  std::byte* planes = out.data() + base;
  for (std::size_t i = 0; i < n; ++i) {
    const auto bits = std::bit_cast<std::uint64_t>(values[i]);
    for (std::size_t k = 0; k < 8; ++k) {
      planes[k * n + i] = static_cast<std::byte>(bits >> (8 * k));
    }
  }
  if (ends != nullptr) {
    for (std::size_t k = 1; k <= 8; ++k) ends->push_back(base + k * n);
  }
}

/// Reads `out.size()` doubles in the layout `version` uses for them.
void read_doubles(ByteReader& r, std::span<double> out, std::uint8_t version) {
  if (version == kVersionInterleaved) {
    r.f64_array(out);
    return;
  }
  const std::size_t n = out.size();
  const auto planes = r.raw(8 * n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bits = 0;
    for (std::size_t k = 0; k < 8; ++k) {
      bits |= static_cast<std::uint64_t>(planes[k * n + i]) << (8 * k);
    }
    out[i] = std::bit_cast<double>(bits);
  }
}

}  // namespace

Bytes encode_payload(const LossyPayload& p, std::vector<std::size_t>* stream_ends) {
  if (p.indices.size() != p.quantized.count()) {
    throw InvalidArgumentError("payload: index count does not match bitmap population");
  }
  if (p.exact_values.size() != p.quantized.size() - p.quantized.count()) {
    throw InvalidArgumentError("payload: exact-value count does not match bitmap");
  }
  if (p.averages.size() > 256) {
    throw InvalidArgumentError("payload: averages table exceeds 256 entries");
  }
  if (stream_ends != nullptr) stream_ends->clear();

  ByteWriter w;
  w.u32(kMagic);
  w.u8(kVersionPlanes);
  w.u8(static_cast<std::uint8_t>(p.quantizer));
  w.u8(static_cast<std::uint8_t>(p.wavelet));
  w.u8(static_cast<std::uint8_t>(p.shape.rank()));
  w.u8(static_cast<std::uint8_t>(p.levels));
  for (std::size_t a = 0; a < p.shape.rank(); ++a) w.varint(p.shape[a]);
  w.varint(p.averages.size());
  w.varint(p.low_band.size());
  w.varint(p.quantized.size());
  w.varint(p.indices.size());

  // The averages table is at most 2 KiB: it stays in the header's stream.
  Bytes& out = w.buffer();
  write_planes(out, p.averages, nullptr);
  if (stream_ends != nullptr) stream_ends->push_back(out.size());
  write_planes(out, p.low_band, stream_ends);
  p.quantized.serialize_to(out);
  if (stream_ends != nullptr) stream_ends->push_back(out.size());
  w.raw(p.indices.data(), p.indices.size());
  if (stream_ends != nullptr) stream_ends->push_back(out.size());
  write_planes(out, p.exact_values, stream_ends);

  // Trailing CRC over everything before it.
  const std::uint32_t crc = crc32(std::span<const std::byte>(out));
  w.u32(crc);
  if (stream_ends != nullptr) stream_ends->push_back(out.size());
  return w.take();
}

LossyPayload decode_payload(std::span<const std::byte> data) {
  if (data.size() < 4) throw FormatError("payload truncated before CRC");
  {
    ByteReader tail(data.subspan(data.size() - 4));
    const std::uint32_t want = tail.u32();
    const std::uint32_t got = crc32(data.subspan(0, data.size() - 4));
    if (want != got) throw CorruptDataError("payload CRC-32 mismatch");
  }

  ByteReader r(data.subspan(0, data.size() - 4));
  if (r.u32() != kMagic) throw FormatError("payload: bad magic");
  const std::uint8_t version = r.u8();
  if (version != kVersionInterleaved && version != kVersionPlanes) {
    throw FormatError("payload: unsupported version " + std::to_string(version));
  }

  LossyPayload p;
  const std::uint8_t kind = r.u8();
  if (kind > 1) throw FormatError("payload: unknown quantizer kind");
  p.quantizer = static_cast<QuantizerKind>(kind);
  const std::uint8_t wkind = r.u8();
  if (wkind > 2) throw FormatError("payload: unknown wavelet kind");
  p.wavelet = static_cast<WaveletKind>(wkind);
  const std::uint8_t rank = r.u8();
  p.levels = r.u8();
  if (p.levels < 1) throw FormatError("payload: invalid transform depth");
  p.shape = read_extents(r, rank, "payload");

  const std::uint64_t n_avg = r.varint();
  const std::uint64_t n_low = r.varint();
  const std::uint64_t n_high = r.varint();
  const std::uint64_t n_idx = r.varint();
  if (n_avg > 256) throw FormatError("payload: averages table exceeds 256 entries");
  if (n_low + n_high != p.shape.size()) {
    throw FormatError("payload: band sizes do not sum to array size");
  }
  if (n_idx > n_high) throw FormatError("payload: more indexes than high-band elements");
  // Both layouts hold the same section sizes. Check them against the
  // stream before anything is allocated from a count.
  const std::uint64_t left = r.remaining();
  if (n_low > left / 8 || n_high - n_idx > left / 8 || n_idx > left ||
      8 * (n_avg + n_low + n_high - n_idx) + (n_high + 7) / 8 + n_idx != left) {
    throw FormatError("payload: section sizes do not match the stream length");
  }

  p.averages.resize(n_avg);
  read_doubles(r, p.averages, version);
  p.low_band.resize(n_low);
  read_doubles(r, p.low_band, version);
  p.quantized = Bitmap::deserialize(r.raw((n_high + 7) / 8), n_high);
  if (p.quantized.count() != n_idx) {
    throw FormatError("payload: bitmap population does not match index count");
  }
  {
    const auto idx_bytes = r.raw(n_idx);
    p.indices.resize(n_idx);
    for (std::size_t i = 0; i < n_idx; ++i) {
      p.indices[i] = static_cast<std::uint8_t>(idx_bytes[i]);
      if (p.indices[i] >= n_avg) throw FormatError("payload: index beyond averages table");
    }
  }
  p.exact_values.resize(n_high - n_idx);
  read_doubles(r, p.exact_values, version);
  return p;
}

}  // namespace wck
