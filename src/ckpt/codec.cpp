#include "ckpt/codec.hpp"

#include <string>

#include "core/truncation.hpp"
#include "deflate/deflate.hpp"
#include "fpc/fpc.hpp"
#include "szlike/lorenzo.hpp"
#include "util/error.hpp"
#include "zfplike/block_codec.hpp"

namespace wck {
namespace {

/// Shared raw representation: rank, extents, then little-endian doubles.
Bytes serialize_raw(const NdArray<double>& array) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(array.rank()));
  for (std::size_t a = 0; a < array.rank(); ++a) w.varint(array.extent(a));
  w.f64_array(array.values());
  return w.take();
}

NdArray<double> parse_raw(std::span<const std::byte> data) {
  ByteReader r(data);
  const Shape shape = read_shape(r, "raw array");
  NdArray<double> out(shape, r.f64_vector(shape.size()));
  if (!r.exhausted()) throw FormatError("raw array: trailing bytes");
  return out;
}

}  // namespace

Bytes NullCodec::do_encode(const NdArray<double>& array, StageTimes* times) const {
  StageTimes local;
  Bytes out;
  {
    ScopedStage stage(local, "other");
    out = serialize_raw(array);
  }
  if (times != nullptr) times->merge(local);
  return out;
}

NdArray<double> NullCodec::do_decode(std::span<const std::byte> data) const {
  return parse_raw(data);
}

Bytes GzipCodec::do_encode(const NdArray<double>& array, StageTimes* times) const {
  StageTimes local;
  Bytes raw;
  {
    ScopedStage stage(local, "other");
    raw = serialize_raw(array);
  }
  Bytes out;
  {
    ScopedStage stage(local, "gzip");
    out = gzip_compress(raw, DeflateOptions{level_});
  }
  if (times != nullptr) times->merge(local);
  return out;
}

NdArray<double> GzipCodec::do_decode(std::span<const std::byte> data) const {
  return parse_raw(gzip_decompress(data));
}

Bytes WaveletLossyCodec::do_encode(const NdArray<double>& array, StageTimes* times) const {
  CompressedArray comp = compressor_.compress(array);
  if (times != nullptr) times->merge(comp.times);
  return std::move(comp.data);
}

NdArray<double> WaveletLossyCodec::do_decode(std::span<const std::byte> data) const {
  return WaveletCompressor::decompress(data);
}

Bytes FpcCodec::do_encode(const NdArray<double>& array, StageTimes* times) const {
  StageTimes local;
  ByteWriter w;
  {
    ScopedStage stage(local, "fpc");
    w.u8(static_cast<std::uint8_t>(array.rank()));
    for (std::size_t a = 0; a < array.rank(); ++a) w.varint(array.extent(a));
    const Bytes body = fpc_compress(array.values(), FpcOptions{table_log2_});
    w.raw(body.data(), body.size());
  }
  if (times != nullptr) times->merge(local);
  return w.take();
}

NdArray<double> FpcCodec::do_decode(std::span<const std::byte> data) const {
  ByteReader r(data);
  const Shape shape = read_shape(r, "fpc codec");
  std::vector<double> values = fpc_decompress(data.subspan(r.position()));
  if (values.size() != shape.size()) {
    throw FormatError("fpc codec: " + std::to_string(values.size()) +
                      " values for shape " + shape.to_string());
  }
  return NdArray<double>(shape, std::move(values));
}

Bytes SzLikeCodec::do_encode(const NdArray<double>& array, StageTimes* times) const {
  StageTimes local;
  Bytes out;
  {
    ScopedStage stage(local, "szlike");
    out = szlike_compress(array, SzLikeOptions{error_bound_, 6});
  }
  if (times != nullptr) times->merge(local);
  return out;
}

NdArray<double> SzLikeCodec::do_decode(std::span<const std::byte> data) const {
  return szlike_decompress(data);
}

Bytes ZfpLikeCodec::do_encode(const NdArray<double>& array, StageTimes* times) const {
  StageTimes local;
  Bytes out;
  {
    ScopedStage stage(local, "zfplike");
    out = zfplike_compress(array, ZfpLikeOptions{precision_, 6});
  }
  if (times != nullptr) times->merge(local);
  return out;
}

NdArray<double> ZfpLikeCodec::do_decode(std::span<const std::byte> data) const {
  return zfplike_decompress(data);
}

Bytes TruncationCodec::do_encode(const NdArray<double>& array, StageTimes* times) const {
  StageTimes local;
  Bytes out;
  {
    ScopedStage stage(local, "truncation");
    out = truncation_compress(array, keep_, level_);
  }
  if (times != nullptr) times->merge(local);
  return out;
}

NdArray<double> TruncationCodec::do_decode(std::span<const std::byte> data) const {
  return truncation_decompress(data);
}

const Codec& codec_for_decoding(std::string_view name) {
  static const NullCodec kNull;
  static const GzipCodec kGzip;
  static const WaveletLossyCodec kLossy;
  static const FpcCodec kFpc;
  static const TruncationCodec kTruncation;
  static const SzLikeCodec kSzLike;
  static const ZfpLikeCodec kZfpLike;
  if (name == "null") return kNull;
  if (name == "gzip") return kGzip;
  if (name == "wavelet-lossy") return kLossy;
  if (name == "fpc") return kFpc;
  if (name == "truncation") return kTruncation;
  if (name == "szlike") return kSzLike;
  if (name == "zfplike") return kZfpLike;
  throw FormatError("unknown checkpoint codec: " + std::string(name));
}

}  // namespace wck
