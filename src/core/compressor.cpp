#include "core/compressor.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <string>

#include "deflate/deflate.hpp"
#include "deflate/huffman_only.hpp"
#include "deflate/parallel.hpp"
#include "io/io_backend.hpp"
#include "simd/dispatch.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"
#include "wavelet/haar.hpp"

namespace wck {
namespace {

constexpr std::uint8_t kTagNone = 0;
constexpr std::uint8_t kTagZlib = 1;  ///< decode only
constexpr std::uint8_t kTagGzip = 2;  ///< decode only
constexpr std::uint8_t kTagHuffman = 3;
constexpr std::uint8_t kTagSharded = 4;  ///< WCKP segmented deflate container

std::filesystem::path unique_temp_path(const std::filesystem::path& dir,
                                       const std::string& suffix) {
  static std::atomic<std::uint64_t> counter{0};
  const auto base = dir.empty() ? std::filesystem::temp_directory_path() : dir;
  return base / ("wck_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter.fetch_add(1)) + suffix);
}

/// Undoes the entropy stage named by the stream's tag byte and returns
/// the formatted payload: a view into `data` for tag 0, else into
/// `storage`, which receives the decoded bytes.
std::span<const std::byte> entropy_decode(std::span<const std::byte> data, Bytes& storage) {
  if (data.empty()) throw FormatError("empty compressed stream");
  const auto tag = static_cast<std::uint8_t>(data[0]);
  const auto body = data.subspan(1);
  switch (tag) {
    case kTagNone:
      return body;
    case kTagZlib:
      storage = zlib_decompress(body);
      break;
    case kTagGzip:
      storage = gzip_decompress(body);
      break;
    case kTagHuffman:
      storage = huffman_only_decompress(body);
      break;
    case kTagSharded:
      storage = sharded_deflate_decompress(body);
      break;
    default:
      throw FormatError("unknown entropy tag " + std::to_string(tag));
  }
  return storage;
}

}  // namespace

WaveletCompressor::WaveletCompressor(CompressionParams params) : params_(std::move(params)) {
  if (params_.wavelet_levels < 1) {
    throw InvalidArgumentError("wavelet_levels must be >= 1");
  }
  if (params_.quantizer.divisions < 1 || params_.quantizer.divisions > 256) {
    throw InvalidArgumentError("quantizer divisions must be 1..256");
  }
  if (params_.deflate_level < 1 || params_.deflate_level > 9) {
    throw InvalidArgumentError("deflate_level must be 1..9");
  }
}

CompressedArray WaveletCompressor::compress(const NdArray<double>& input) const {
  if (input.size() == 0) throw InvalidArgumentError("cannot compress an empty array");
  WCK_TRACE_SPAN("compress");
  WCK_COUNTER_ADD("compress.calls", 1);
  WCK_COUNTER_ADD("compress.bytes_in", input.size_bytes());

  CompressedArray out;
  out.original_bytes = input.size_bytes();

  // --- "other": working copy of the input (the transform is in-place).
  NdArray<double> work;
  {
    const WallTimer copy_timer;
    work = input;
    WCK_HISTOGRAM_RECORD("stage.other.seconds", copy_timer.seconds());
  }

  // --- Stage 1: wavelet transformation.
  const WaveletPlan plan = WaveletPlan::create(input.shape(), params_.wavelet_levels);
  {
    WCK_TRACE_SPAN("wavelet");
    const WallTimer wavelet_timer;
    wavelet_forward(work.view(), params_.wavelet, params_.wavelet_levels);
    WCK_HISTOGRAM_RECORD("stage.wavelet.seconds", wavelet_timer.seconds());
  }

  // --- Stages 2-4: quantization, then encoding and formatting.
  Bytes payload_bytes;
  std::vector<std::size_t> stream_ends;
  // Hoisted past the stage scope so an attached observer can inspect
  // them without perturbing the timed stages.
  std::vector<double> high;
  QuantizationScheme scheme;
  {
    LossyPayload p;
    {
      WCK_TRACE_SPAN("quantize");
      const WallTimer quantize_timer;
      // Gather the high bands along the serialization walk, one copy per
      // run of consecutive coefficients.
      const double* coeffs = work.data();
      high.reserve(plan.high_count());
      for_each_high_run(work.shape(), plan.final_low_extents(),
                        [&high, coeffs](std::size_t off, std::size_t count) {
                          high.insert(high.end(), coeffs + off, coeffs + off + count);
                        });
      // Range-scan the contiguous copy with the vector kernel so
      // analyze() skips its own min/max pass; the kernel replicates the
      // analyzer's sequential fold, so the scheme is bit-identical.
      ValueRange range;
      if (!high.empty()) {
        simd::kernels().range_min_max(high.data(), high.size(), &range.min, &range.max);
      }

      // The analysis classifies every coefficient in the pass that
      // builds the averages table.
      std::vector<std::int32_t> cls(high.size());
      scheme = QuantizationScheme::analyze(high, params_.quantizer,
                                           high.empty() ? nullptr : &range, cls);

      p.shape = input.shape();
      p.levels = params_.wavelet_levels;
      p.wavelet = params_.wavelet;
      p.quantizer = params_.quantizer.kind;
      p.averages = scheme.averages();
      p.low_band.reserve(plan.low_count());
      for_each_low_run(work.shape(), plan.final_low_extents(),
                       [&p, coeffs](std::size_t off, std::size_t count) {
                         p.low_band.insert(p.low_band.end(), coeffs + off, coeffs + off + count);
                       });
      p.quantized = Bitmap::from_classification(cls);
      p.indices.reserve(p.quantized.count());
      for (std::size_t i = 0; i < high.size(); ++i) {
        if (cls[i] >= 0) {
          p.indices.push_back(static_cast<std::uint8_t>(cls[i]));
        } else {
          p.exact_values.push_back(high[i]);
        }
      }
      WCK_HISTOGRAM_RECORD("stage.quantize.seconds", quantize_timer.seconds());
    }
    out.high_count = high.size();
    out.quantized_count = p.indices.size();

    {
      WCK_TRACE_SPAN("encode");
      const WallTimer encode_timer;
      payload_bytes = encode_payload(p, &stream_ends);
      WCK_HISTOGRAM_RECORD("stage.encode.seconds", encode_timer.seconds());
    }
  }
  out.payload_bytes = payload_bytes.size();

  // Observer sees the coefficients exactly as the payload encodes them,
  // outside every timed stage.
  if (observer_ != nullptr) observer_->on_compress(input, plan, high, scheme);

  // --- Stage 5: entropy coding of the formatted stream (the paper's
  // gzip stage). Both deflate modes write the segmented WCKP container,
  // cut at the payload's streams.
  const ShardedDeflateOptions container{params_.deflate_level, params_.deflate_block_size,
                                        resolve_deflate_sharding(params_.threads)};
  switch (params_.entropy) {
    case EntropyMode::kNone: {
      out.data.push_back(static_cast<std::byte>(kTagNone));
      out.data.insert(out.data.end(), payload_bytes.begin(), payload_bytes.end());
      break;
    }
    case EntropyMode::kDeflate: {
      Bytes body;
      {
        WCK_TRACE_SPAN("deflate");
        const WallTimer deflate_timer;
        body = sharded_deflate_compress(payload_bytes, container, stream_ends);
        WCK_HISTOGRAM_RECORD("stage.deflate.seconds", deflate_timer.seconds());
      }
      out.data.push_back(static_cast<std::byte>(kTagSharded));
      out.data.insert(out.data.end(), body.begin(), body.end());
      break;
    }
    case EntropyMode::kHuffmanOnly: {
      Bytes body;
      {
        WCK_TRACE_SPAN("deflate");
        const WallTimer deflate_timer;
        body = huffman_only_compress(payload_bytes);
        WCK_HISTOGRAM_RECORD("stage.deflate.seconds", deflate_timer.seconds());
      }
      out.data.push_back(static_cast<std::byte>(kTagHuffman));
      out.data.insert(out.data.end(), body.begin(), body.end());
      break;
    }
    case EntropyMode::kTempFileGzip: {
      // Reproduces the paper's implementation: the formatted checkpoint
      // is written to a temporary file, then gzip is applied through the
      // file system (Sec. IV-D notes this dominates compression time).
      // Scratch files go straight to POSIX: a WCK_FAULT_PLAN aimed at
      // checkpoint I/O never reaches them.
      PosixBackend& io = posix_backend();
      const auto tmp = unique_temp_path(params_.temp_dir, ".wck");
      const auto tmp_gz = unique_temp_path(params_.temp_dir, ".wck.gz");
      {
        WCK_TRACE_SPAN("temp_file_write");
        const WallTimer write_timer;
        io.write_file(tmp, payload_bytes);
        WCK_HISTOGRAM_RECORD("stage.temp_file_write.seconds", write_timer.seconds());
      }
      // The write / read-back overhead is the point of this mode; the
      // compressed body is the same WCKP container kDeflate writes.
      Bytes body;
      {
        WCK_TRACE_SPAN("deflate");
        const WallTimer deflate_timer;
        const Bytes on_disk = io.read_file(tmp);
        if (on_disk.size() != payload_bytes.size()) {
          throw IoError("read back a different size from " + tmp.string());
        }
        body = sharded_deflate_compress(on_disk, container, stream_ends);
        io.write_file(tmp_gz, body);
        body = io.read_file(tmp_gz);
        WCK_HISTOGRAM_RECORD("stage.deflate.seconds", deflate_timer.seconds());
      }
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      std::filesystem::remove(tmp_gz, ec);
      out.data.push_back(static_cast<std::byte>(kTagSharded));
      out.data.insert(out.data.end(), body.begin(), body.end());
      break;
    }
  }
  WCK_COUNTER_ADD("compress.bytes_out", out.data.size());
  WCK_COUNTER_ADD("compress.payload_bytes", out.payload_bytes);
  return out;
}

NdArray<double> WaveletCompressor::decompress(std::span<const std::byte> data) {
  WCK_TRACE_SPAN("decompress");
  WCK_COUNTER_ADD("decompress.calls", 1);
  WCK_COUNTER_ADD("decompress.bytes_in", data.size());
  Bytes storage;
  const LossyPayload p = decode_payload(entropy_decode(data, storage));
  const WaveletPlan plan = WaveletPlan::create(p.shape, p.levels);
  if (p.low_band.size() != plan.low_count()) {
    throw FormatError("payload low band size does not match transform plan");
  }
  if (p.quantized.size() != plan.high_count()) {
    throw FormatError("payload bitmap size does not match transform plan");
  }

  NdArray<double> work(p.shape);
  double* coeffs = work.data();
  {
    const double* src = p.low_band.data();
    for_each_low_run(p.shape, plan.final_low_extents(),
                     [&src, coeffs](std::size_t off, std::size_t count) {
                       std::copy_n(src, count, coeffs + off);
                       src += count;
                     });
  }
  {
    // Materialize the high bands contiguously through the select kernel
    // (decode_payload validated popcount == #indices, every index <
    // #averages, and #exact == size - popcount), then scatter them along
    // the serialization walk, one copy per run.
    const std::size_t n = p.quantized.size();
    std::vector<double> high(n);
    if (n > 0) {
      simd::kernels().bitmap_select(p.quantized.words().data(), n, p.averages.data(),
                                    p.indices.data(), p.exact_values.data(), high.data());
    }
    const double* src = high.data();
    for_each_high_run(p.shape, plan.final_low_extents(),
                      [&src, coeffs](std::size_t off, std::size_t count) {
                        std::copy_n(src, count, coeffs + off);
                        src += count;
                      });
  }
  wavelet_inverse(work.view(), p.wavelet, p.levels);
  return work;
}

StreamInfo WaveletCompressor::inspect(std::span<const std::byte> data) {
  Bytes storage;
  const std::span<const std::byte> payload = entropy_decode(data, storage);
  const LossyPayload p = decode_payload(payload);
  StreamInfo info;
  info.shape = p.shape;
  info.levels = p.levels;
  info.wavelet = p.wavelet;
  info.quantizer = p.quantizer;
  info.entropy_tag = static_cast<std::uint8_t>(data[0]);
  info.averages_count = p.averages.size();
  info.high_count = p.quantized.size();
  info.quantized_count = p.indices.size();
  info.exact_count = p.exact_values.size();
  info.payload_bytes = payload.size();
  return info;
}

WaveletCompressor::RoundTrip WaveletCompressor::round_trip(const NdArray<double>& input) const {
  RoundTrip rt{compress(input), NdArray<double>{}, ErrorStats{}};
  rt.reconstructed = decompress(rt.compressed.data);
  rt.error = relative_error(input.values(), rt.reconstructed.values());
  return rt;
}

ErrorBoundResult compress_with_error_bound(const NdArray<double>& input,
                                           double max_mean_rel_error,
                                           CompressionParams base) {
  if (max_mean_rel_error <= 0.0) {
    throw InvalidArgumentError("error bound must be positive");
  }
  ErrorBoundResult best;
  bool have_best = false;
  for (int n = 1; n <= 256; n *= 2) {
    CompressionParams p = base;
    p.quantizer.divisions = n;
    const WaveletCompressor compressor(p);
    auto rt = compressor.round_trip(input);
    if (rt.error.mean_rel <= max_mean_rel_error) {
      best.compressed = std::move(rt.compressed);
      best.error = rt.error;
      best.chosen_divisions = n;
      best.met_bound = true;
      return best;
    }
    // Keep the lowest-error attempt as the best-effort fallback (the
    // error is not strictly monotone in n on all data).
    if (!have_best || rt.error.mean_rel < best.error.mean_rel) {
      best.compressed = std::move(rt.compressed);
      best.error = rt.error;
      best.chosen_divisions = n;
      have_best = true;
    }
  }
  best.met_bound = false;
  return best;
}

}  // namespace wck
