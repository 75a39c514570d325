// Segmented parallel DEFLATE: the entropy stage of the checkpoint hot
// path.
//
// The deflate/gzip stage dominates per-checkpoint compression time (the
// Fig. 9 breakdown, see perf/BENCH_seed.json), and one RFC 1951 stream
// is inherently serial. The input is therefore cut into independent
// segments, and each is coded on its own, concurrently on a shared
// thread pool, into the "WCKP" container below. Decompression is
// symmetric: segments are decoded concurrently, CRC-verified, and
// spliced back in order.
//
// Segment rule. The caller may name the offsets where homogeneous
// streams of its input end (the Fig. 5 payload reports them: header,
// byte planes, bitmap, indexes; see src/encode/payload.hpp). A segment
// starts at each stream end, except that adjacent streams merge until a
// segment holds at least kMinSegmentSize bytes (a short last segment
// joins the one before it), and a segment longer than block_size is
// split. Each segment is stored raw when order-0 Huffman coding of its
// bytes would save less than 1 % (the near-random mantissa planes), and
// is otherwise deflated at the requested level.
//
// Determinism guarantee: the container bytes depend only on (input,
// stream ends, level, block_size), never on the worker count. The
// stored/deflate choice uses integer arithmetic only, so it is the same
// on every platform.
//
// Container layout, version 2 (all integers little-endian, varint =
// LEB128):
//
//   u32    magic "WCKP" (0x504B4357)
//   u8     version (2)
//   u8     flags (0, reserved)
//   varint total_size          uncompressed size
//   varint segment_count
//   segment_count x {          per-segment table
//     u8     mode              0 stored, 1 raw DEFLATE
//     varint raw_size          uncompressed bytes
//     varint coded_size        body bytes (== raw_size when stored)
//     u32    crc32             of the uncompressed segment
//   }
//   segment_count x bodies, concatenated in segment order
//
// Version 1 (decode only) split the input into fixed block_size blocks,
// all deflated: a header of {block_size, total_size, block_count}
// varints after the flags, then a {compressed_size, uncompressed_size,
// crc32} table entry per block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/bytes.hpp"

namespace wck {

/// Default longest segment. Small enough that a 1.5 MB per-process
/// array (the paper's Fig. 9 size) still splits into several
/// concurrent segments.
inline constexpr std::size_t kDefaultDeflateBlockSize = 256 * 1024;

/// Adjacent streams merge until a segment holds at least this many
/// bytes: below it, the per-segment Huffman tables and window restarts
/// cost more time than the homogeneous streams save.
inline constexpr std::size_t kMinSegmentSize = 16 * 1024;

struct ShardedDeflateOptions {
  /// zlib-style effort level 1..9 (as DeflateOptions).
  int level = 6;
  /// Longest segment in bytes; must be >= 1. Changing it changes the
  /// output bytes.
  std::size_t block_size = kDefaultDeflateBlockSize;
  /// Worker count for this call: 1 codes inline on the caller's thread;
  /// N > 1 fans segments out over the process-shared pool (effective
  /// concurrency additionally bounded by the pool width, i.e. the
  /// machine's core count). Never alters the output bytes.
  std::size_t threads = 1;
};

/// Segment end offsets for an input of `size` bytes whose homogeneous
/// streams end at `stream_ends` (non-decreasing, each <= size), by the
/// segment rule above. Throws InvalidArgumentError on bad arguments.
[[nodiscard]] std::vector<std::size_t> segment_ends(std::size_t size,
                                                    std::span<const std::size_t> stream_ends,
                                                    std::size_t block_size);

/// Compresses `input` into a WCKP version 2 container. With no
/// `stream_ends` the input is one stream. Empty input yields a valid
/// zero-segment container. Throws InvalidArgumentError for a level
/// outside 1..9 before coding anything, even when every segment would
/// be stored.
[[nodiscard]] Bytes sharded_deflate_compress(std::span<const std::byte> input,
                                             const ShardedDeflateOptions& options = {},
                                             std::span<const std::size_t> stream_ends = {});

/// Decompresses a WCKP container of either version, decoding segments
/// concurrently when `threads` > 1 (0 = resolve_deflate_sharding(0)).
/// Throws FormatError on malformed framing and CorruptDataError when a
/// segment fails its CRC-32 or size check.
[[nodiscard]] Bytes sharded_deflate_decompress(std::span<const std::byte> input,
                                               std::size_t threads = 0);

/// True when `data` starts with the WCKP magic (cheap container sniff).
[[nodiscard]] bool is_sharded_deflate(std::span<const std::byte> data) noexcept;

/// Resolves a CompressionParams/CLI-style thread request to a worker
/// count:
///   requested >= 1  -> that many workers
///   requested == 0  -> WCK_THREADS: a positive integer is taken as-is,
///                      "0" or "max" means hardware concurrency, and
///                      unset/empty/unparsable means 1
///   requested < 0   -> 1
[[nodiscard]] std::size_t resolve_deflate_sharding(int requested);

}  // namespace wck
