// Serialization of the lossy-compressed array payload (paper Fig. 5).
//
// The formatted stream holds, in order: a header (shape, transform
// depth, quantizer metadata), the averages table, the raw low-frequency
// band, the quantization bitmap, the 1-byte indexes of quantized
// high-band values, and the exact doubles of unquantized high-band
// values. The stream is subsequently compressed with gzip/deflate by the
// core pipeline ("Finally, we apply gzip to the formatted output").
//
// Version 3 (written) stores each double section as 8 byte planes:
// plane k holds byte k (little-endian) of every value, so sign/exponent
// bytes sit together and the near-random low mantissa bytes sit
// together. The entropy stage codes each such homogeneous stream on its
// own (src/deflate/parallel.hpp). Version 2 (read only) interleaved the
// 8 bytes of every double.
#pragma once

#include <cstdint>
#include <vector>

#include "encode/bitmap.hpp"
#include "ndarray/shape.hpp"
#include "quantize/quantizer.hpp"
#include "util/bytes.hpp"
#include "wavelet/transform.hpp"

namespace wck {

/// The fully quantized + encoded representation of one array, prior to
/// the final entropy (gzip) stage.
struct LossyPayload {
  Shape shape;                     ///< original array extents
  int levels = 1;                  ///< wavelet transform depth
  WaveletKind wavelet = WaveletKind::kHaar;
  QuantizerKind quantizer = QuantizerKind::kSpike;
  std::vector<double> averages;    ///< representative values (size <= 256)
  std::vector<double> low_band;    ///< final low corner, row-major
  Bitmap quantized;                ///< per high-band element, canonical order
  std::vector<std::uint8_t> indices;  ///< one per set bitmap bit
  std::vector<double> exact_values;   ///< one per clear bitmap bit

  /// Total element count of the original array.
  [[nodiscard]] std::size_t element_count() const noexcept { return shape.size(); }
};

/// Serializes the payload (v3 layout; little-endian; CRC-protected).
/// When `stream_ends` is non-null it receives the offset where each
/// homogeneous stream ends, in order: header + averages, the 8 low-band
/// planes, the bitmap, the indexes, the 8 exact-value planes, and the
/// CRC trailer. That is 20 non-decreasing offsets (empty streams repeat
/// an offset); the last one is the payload size.
[[nodiscard]] Bytes encode_payload(const LossyPayload& payload,
                                   std::vector<std::size_t>* stream_ends = nullptr);

/// Parses and validates a v2 or v3 payload. Throws FormatError /
/// CorruptDataError.
[[nodiscard]] LossyPayload decode_payload(std::span<const std::byte> data);

}  // namespace wck
