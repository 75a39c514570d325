#include "deflate/huffman_only.hpp"

#include <array>

#include "deflate/huffman.hpp"
#include "util/bitio.hpp"
#include "util/error.hpp"

namespace wck {
namespace {

constexpr std::uint32_t kMagic = 0x30464857;  // "WHF0" little-endian
constexpr std::uint8_t kModeStored = 0;
constexpr std::uint8_t kModeHuffman = 1;

}  // namespace

Bytes huffman_only_compress(std::span<const std::byte> input) {
  std::array<std::uint64_t, 256> freq{};
  for (const std::byte b : input) ++freq[static_cast<std::uint8_t>(b)];

  const auto lengths = build_code_lengths(freq, 15);
  std::uint64_t coded_bits = 0;
  for (int v = 0; v < 256; ++v) {
    coded_bits += freq[static_cast<std::size_t>(v)] * lengths[static_cast<std::size_t>(v)];
  }
  const std::uint64_t coded_bytes = (coded_bits + 7) / 8 + 128;  // + code table

  ByteWriter w;
  w.u32(kMagic);
  w.varint(input.size());
  if (input.empty() || coded_bytes >= input.size()) {
    w.u8(kModeStored);
    w.raw(input.data(), input.size());
    return w.take();
  }

  w.u8(kModeHuffman);
  // Code lengths packed two per byte (each fits 4 bits? no — up to 15,
  // exactly 4 bits).
  for (int v = 0; v < 256; v += 2) {
    const auto lo = lengths[static_cast<std::size_t>(v)];
    const auto hi = lengths[static_cast<std::size_t>(v + 1)];
    w.u8(static_cast<std::uint8_t>(lo | (hi << 4)));
  }
  const auto code = CanonicalCode::from_lengths(lengths);
  BitWriter bw(w.buffer());
  for (const std::byte b : input) {
    code.emit(bw, static_cast<std::uint8_t>(b));
  }
  bw.align_to_byte();
  return w.take();
}

Bytes huffman_only_decompress(std::span<const std::byte> input) {
  ByteReader r(input);
  if (r.u32() != kMagic) throw FormatError("huffman-only: bad magic");
  const std::uint64_t size = r.varint();
  const std::uint8_t mode = r.u8();

  if (mode == kModeStored) {
    const auto body = r.raw(size);
    if (!r.exhausted()) throw FormatError("huffman-only: trailing bytes");
    return Bytes(body.begin(), body.end());
  }
  if (mode != kModeHuffman) throw FormatError("huffman-only: unknown mode");

  std::array<std::uint8_t, 256> lengths{};
  const auto table = r.raw(128);
  for (int v = 0; v < 256; v += 2) {
    const auto packed = static_cast<std::uint8_t>(table[static_cast<std::size_t>(v / 2)]);
    lengths[static_cast<std::size_t>(v)] = packed & 0x0F;
    lengths[static_cast<std::size_t>(v + 1)] = packed >> 4;
  }
  // allow_incomplete: a single-symbol input yields a one-code tree.
  const HuffmanDecoder decoder{std::span<const std::uint8_t>(lengths), /*allow_incomplete=*/true};

  // Every code is at least 1 bit long, which bounds the size a stream of
  // this length can claim before the output buffer is allocated.
  const auto body = input.subspan(r.position());
  if (size > 8 * static_cast<std::uint64_t>(body.size())) {
    throw FormatError("huffman-only: size exceeds what the stream can code");
  }
  Bytes out(static_cast<std::size_t>(size));
  BitReader br(body);
  for (std::byte& b : out) b = static_cast<std::byte>(decoder.decode(br));
  return out;
}

}  // namespace wck
