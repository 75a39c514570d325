// Chunked (parallel) compression of one large array.
//
// The paper requires compression time to be "not only fast but also
// scalable to checkpoint size" (Sec. II-A). Chunking splits the array
// along axis 0 into contiguous slabs compressed independently — on a
// thread pool this parallelizes the pipeline inside a single process
// (complementing the across-process parallelism of Sec. IV-D), bounds
// working memory, and keeps streams seekable per chunk.
//
// Trade-off: each slab carries its own quantization tables and loses
// cross-slab wavelet correlation, so the rate is slightly worse than
// whole-array compression (measured by bench/ablation_chunks).
#pragma once

#include <cstdint>

#include "core/compressor.hpp"
#include "parallel/thread_pool.hpp"

namespace wck {

struct ChunkedParams {
  /// Per-slab parameters. Slab pipelines run on `pool` while each slab's
  /// entropy segments fan out over the deflate engine's own shared pool
  /// (base.threads workers), so the two levels compose without deadlock.
  CompressionParams base{};
  /// Number of axis-0 slabs; 0 = one per pool thread (min 1).
  std::size_t chunks = 0;
};

/// Compresses `input` as independent slabs, in parallel on `pool` (pass
/// nullptr for sequential). Output is self-describing and deterministic
/// regardless of thread count.
[[nodiscard]] CompressedArray chunked_compress(const NdArray<double>& input,
                                               const ChunkedParams& params,
                                               ThreadPool* pool = nullptr);

/// Decompresses a chunked stream (also accepts pool for parallel decode).
[[nodiscard]] NdArray<double> chunked_decompress(std::span<const std::byte> data,
                                                 ThreadPool* pool = nullptr);

}  // namespace wck
