// From-scratch DEFLATE (RFC 1951) with gzip (RFC 1952) and zlib
// (RFC 1950) containers.
//
// This is the lossless back end of the checkpoint compression pipeline:
// the paper applies gzip to the formatted wavelet/quantization output
// (Sec. III-D) and uses plain gzip as the lossless baseline (Fig. 6).
//
// The compressor chooses per block among stored / fixed-Huffman /
// dynamic-Huffman encodings, whichever is smallest, and the decompressor
// handles all three. Bitstreams interoperate with zlib/gzip (verified in
// tests against the system zlib).
#pragma once

#include <cstddef>
#include <span>

#include "util/bytes.hpp"

namespace wck {

struct DeflateOptions {
  /// zlib-style effort level 1 (fastest) .. 9 (best). Default 6.
  int level = 6;
};

/// Compresses to a raw DEFLATE stream (no container).
[[nodiscard]] Bytes deflate_compress(std::span<const std::byte> input,
                                     const DeflateOptions& options = {});

/// Decompresses a raw DEFLATE stream. Throws FormatError on malformed
/// input. `size_hint`, the decoded size when the caller knows it,
/// presizes the output buffer.
[[nodiscard]] Bytes deflate_decompress(std::span<const std::byte> input,
                                       std::size_t size_hint = 0);

/// Compresses to a gzip member (magic, deflate body, CRC-32, ISIZE).
[[nodiscard]] Bytes gzip_compress(std::span<const std::byte> input,
                                  const DeflateOptions& options = {});

/// Decompresses a single gzip member; verifies CRC-32 and ISIZE
/// (CorruptDataError on mismatch).
[[nodiscard]] Bytes gzip_decompress(std::span<const std::byte> input);

/// Compresses to a zlib stream (CMF/FLG header, deflate body, Adler-32).
[[nodiscard]] Bytes zlib_compress(std::span<const std::byte> input,
                                  const DeflateOptions& options = {});

/// Decompresses a zlib stream; verifies Adler-32.
[[nodiscard]] Bytes zlib_decompress(std::span<const std::byte> input);

}  // namespace wck
