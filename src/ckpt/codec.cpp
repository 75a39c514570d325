#include "ckpt/codec.hpp"

#include <string>

#include "core/truncation.hpp"
#include "deflate/deflate.hpp"
#include "fpc/fpc.hpp"
#include "szlike/lorenzo.hpp"
#include "telemetry/metrics.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"
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

Bytes NullCodec::do_encode(const NdArray<double>& array, StageTimes*) const {
  const WallTimer timer;
  Bytes out = serialize_raw(array);
  WCK_HISTOGRAM_RECORD("stage.other.seconds", timer.seconds());
  return out;
}

NdArray<double> NullCodec::do_decode(std::span<const std::byte> data) const {
  return parse_raw(data);
}

Bytes GzipCodec::do_encode(const NdArray<double>& array, StageTimes*) const {
  WallTimer timer;
  const Bytes raw = serialize_raw(array);
  WCK_HISTOGRAM_RECORD("stage.other.seconds", timer.seconds());
  timer.restart();
  Bytes out = gzip_compress(raw, DeflateOptions{level_});
  WCK_HISTOGRAM_RECORD("stage.gzip.seconds", timer.seconds());
  return out;
}

NdArray<double> GzipCodec::do_decode(std::span<const std::byte> data) const {
  return parse_raw(gzip_decompress(data));
}

Bytes WaveletLossyCodec::do_encode(const NdArray<double>& array, StageTimes*) const {
  return compressor_.compress(array).data;
}

NdArray<double> WaveletLossyCodec::do_decode(std::span<const std::byte> data) const {
  return WaveletCompressor::decompress(data);
}

Bytes FpcCodec::do_encode(const NdArray<double>& array, StageTimes*) const {
  const WallTimer timer;
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(array.rank()));
  for (std::size_t a = 0; a < array.rank(); ++a) w.varint(array.extent(a));
  const Bytes body = fpc_compress(array.values(), FpcOptions{table_log2_});
  w.raw(body.data(), body.size());
  WCK_HISTOGRAM_RECORD("stage.fpc.seconds", timer.seconds());
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

Bytes SzLikeCodec::do_encode(const NdArray<double>& array, StageTimes*) const {
  const WallTimer timer;
  Bytes out = szlike_compress(array, SzLikeOptions{error_bound_, 6});
  WCK_HISTOGRAM_RECORD("stage.szlike.seconds", timer.seconds());
  return out;
}

NdArray<double> SzLikeCodec::do_decode(std::span<const std::byte> data) const {
  return szlike_decompress(data);
}

Bytes ZfpLikeCodec::do_encode(const NdArray<double>& array, StageTimes*) const {
  const WallTimer timer;
  Bytes out = zfplike_compress(array, ZfpLikeOptions{precision_, 6});
  WCK_HISTOGRAM_RECORD("stage.zfplike.seconds", timer.seconds());
  return out;
}

NdArray<double> ZfpLikeCodec::do_decode(std::span<const std::byte> data) const {
  return zfplike_decompress(data);
}

Bytes TruncationCodec::do_encode(const NdArray<double>& array, StageTimes*) const {
  const WallTimer timer;
  Bytes out = truncation_compress(array, keep_, level_);
  WCK_HISTOGRAM_RECORD("stage.truncation.seconds", timer.seconds());
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
