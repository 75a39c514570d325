#include "core/chunked.hpp"

#include <cstring>

#include "util/error.hpp"

namespace wck {
namespace {

constexpr std::uint32_t kMagic = 0x484B4357;  // "WCKH" little-endian
constexpr std::uint8_t kVersion = 1;

}  // namespace

CompressedArray chunked_compress(const NdArray<double>& input, const ChunkedParams& params,
                                 ThreadPool* pool) {
  if (input.size() == 0) throw InvalidArgumentError("cannot compress an empty array");

  std::size_t chunks = params.chunks;
  if (chunks == 0) chunks = pool != nullptr ? pool->thread_count() : 1;
  chunks = std::max<std::size_t>(1, std::min(chunks, input.extent(0)));

  // Axis-0 slab boundaries (row-major => each slab is contiguous).
  const std::size_t rows = input.extent(0);
  std::vector<std::size_t> begin_row(chunks + 1, 0);
  for (std::size_t c = 0; c <= chunks; ++c) {
    begin_row[c] = rows * c / chunks;
  }
  const std::size_t row_elems = input.size() / rows;

  const WaveletCompressor compressor(params.base);
  std::vector<CompressedArray> parts(chunks);
  auto compress_chunk = [&](std::size_t c) {
    const std::size_t r0 = begin_row[c];
    const std::size_t r1 = begin_row[c + 1];
    Shape slab_shape = input.shape();
    slab_shape[0] = r1 - r0;
    std::vector<double> slab((r1 - r0) * row_elems);
    std::memcpy(slab.data(), input.data() + r0 * row_elems, slab.size() * sizeof(double));
    parts[c] = compressor.compress(NdArray<double>(slab_shape, std::move(slab)));
  };
  if (pool != nullptr) {
    pool->parallel_for(0, chunks, compress_chunk);
  } else {
    for (std::size_t c = 0; c < chunks; ++c) compress_chunk(c);
  }

  CompressedArray out;
  out.original_bytes = input.size_bytes();
  ByteWriter w;
  w.u32(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(input.rank()));
  for (std::size_t a = 0; a < input.rank(); ++a) w.varint(input.extent(a));
  w.varint(chunks);
  for (const auto& part : parts) w.varint(part.data.size());
  for (auto& part : parts) {
    w.raw(part.data.data(), part.data.size());
    out.payload_bytes += part.payload_bytes;
    out.high_count += part.high_count;
    out.quantized_count += part.quantized_count;
    out.times.merge(part.times);  // summed CPU time across chunks
  }
  out.data = w.take();
  return out;
}

NdArray<double> chunked_decompress(std::span<const std::byte> data, ThreadPool* pool) {
  ByteReader r(data);
  if (r.u32() != kMagic) throw FormatError("chunked stream: bad magic");
  if (r.u8() != kVersion) throw FormatError("chunked stream: unsupported version");
  const std::uint8_t rank = r.u8();
  if (rank < 1 || rank > kMaxRank) throw FormatError("chunked stream: invalid rank");
  Shape shape = Shape::of_rank(rank);
  for (std::size_t a = 0; a < rank; ++a) {
    shape[a] = r.varint();
    if (shape[a] == 0) throw FormatError("chunked stream: zero extent");
  }
  const std::uint64_t chunks = r.varint();
  if (chunks == 0 || chunks > shape[0]) throw FormatError("chunked stream: bad chunk count");
  std::vector<std::uint64_t> sizes(chunks);
  for (auto& s : sizes) s = r.varint();
  std::vector<std::span<const std::byte>> bodies(chunks);
  for (std::size_t c = 0; c < chunks; ++c) bodies[c] = r.raw(sizes[c]);
  if (!r.exhausted()) throw FormatError("chunked stream: trailing bytes");

  NdArray<double> out(shape);
  const std::size_t row_elems = out.size() / shape[0];
  std::vector<std::size_t> begin_row(chunks + 1, 0);
  for (std::size_t c = 0; c <= chunks; ++c) begin_row[c] = shape[0] * c / chunks;

  auto decode_chunk = [&](std::size_t c) {
    const NdArray<double> slab = WaveletCompressor::decompress(bodies[c]);
    Shape expect = shape;
    expect[0] = begin_row[c + 1] - begin_row[c];
    if (slab.shape() != expect) {
      throw FormatError("chunked stream: slab shape mismatch in chunk " + std::to_string(c));
    }
    std::memcpy(out.data() + begin_row[c] * row_elems, slab.data(), slab.size_bytes());
  };
  if (pool != nullptr) {
    pool->parallel_for(0, chunks, decode_chunk);
  } else {
    for (std::size_t c = 0; c < chunks; ++c) decode_chunk(c);
  }
  return out;
}

}  // namespace wck
