// Checkpoint codecs: pluggable per-array (de)serialization strategies.
//
//  * NullCodec        — raw doubles (the paper's "without compression").
//  * GzipCodec        — gzip over the raw doubles (Fig. 6's lossless
//                       baseline, cr ~ 87 % on FP mesh data).
//  * WaveletLossyCodec— the paper's proposed pipeline (src/core).
//
// Every codec's output is self-describing (shape embedded), so decoding
// needs only the codec name, which the checkpoint file records.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "core/compressor.hpp"
#include "ndarray/ndarray.hpp"
#include "util/bytes.hpp"

namespace wck {

// Never defined; the parameter leaves with bench/e2e's TimedCodec (ROADMAP item 1).
class StageTimes;

class Codec {
 public:
  virtual ~Codec() = default;

  /// Stable identifier recorded in checkpoint files.
  [[nodiscard]] virtual std::string name() const = 0;

  /// True if decode(encode(x)) may differ from x.
  [[nodiscard]] virtual bool lossy() const = 0;

  /// Serializes one array. Stage times go to the "stage.<name>.seconds"
  /// telemetry histograms.
  [[nodiscard]] Bytes encode(const NdArray<double>& array, StageTimes* times = nullptr) const {
    return do_encode(array, times);
  }

  /// Reconstructs an array from encode() output.
  [[nodiscard]] NdArray<double> decode(std::span<const std::byte> data) const {
    return do_decode(data);
  }

 private:
  [[nodiscard]] virtual Bytes do_encode(const NdArray<double>& array,
                                        StageTimes* times) const = 0;
  [[nodiscard]] virtual NdArray<double> do_decode(std::span<const std::byte> data) const = 0;
};

/// Raw little-endian doubles with a shape header; no compression.
class NullCodec final : public Codec {
 public:
  [[nodiscard]] std::string name() const override { return "null"; }
  [[nodiscard]] bool lossy() const override { return false; }

 private:
  [[nodiscard]] Bytes do_encode(const NdArray<double>& array, StageTimes* times) const override;
  [[nodiscard]] NdArray<double> do_decode(std::span<const std::byte> data) const override;
};

/// gzip (our from-scratch DEFLATE) over the raw representation: the
/// lossless baseline the paper compares against in Fig. 6.
class GzipCodec final : public Codec {
 public:
  explicit GzipCodec(int level = 6) : level_(level) {}
  [[nodiscard]] std::string name() const override { return "gzip"; }
  [[nodiscard]] bool lossy() const override { return false; }

 private:
  [[nodiscard]] Bytes do_encode(const NdArray<double>& array, StageTimes* times) const override;
  [[nodiscard]] NdArray<double> do_decode(std::span<const std::byte> data) const override;

  int level_;
};

/// The paper's wavelet + quantization + encoding + gzip pipeline.
/// CompressionParams::threads (or WCK_THREADS) sets how many workers
/// code the entropy stage's segments, so CheckpointManager and
/// DistributedClimate checkpoints scale with cores through this codec
/// without further plumbing.
class WaveletLossyCodec final : public Codec {
 public:
  explicit WaveletLossyCodec(CompressionParams params = {})
      : compressor_(std::move(params)) {}
  [[nodiscard]] std::string name() const override { return "wavelet-lossy"; }
  [[nodiscard]] bool lossy() const override { return true; }

  [[nodiscard]] const CompressionParams& params() const noexcept {
    return compressor_.params();
  }

 private:
  [[nodiscard]] Bytes do_encode(const NdArray<double>& array, StageTimes* times) const override;
  [[nodiscard]] NdArray<double> do_decode(std::span<const std::byte> data) const override;

  WaveletCompressor compressor_;
};

/// FPC-style predictive lossless compression (src/fpc) — the paper's
/// related-work comparator [17] for FP checkpoint data.
class FpcCodec final : public Codec {
 public:
  explicit FpcCodec(int table_log2 = 16) : table_log2_(table_log2) {}
  [[nodiscard]] std::string name() const override { return "fpc"; }
  [[nodiscard]] bool lossy() const override { return false; }

 private:
  [[nodiscard]] Bytes do_encode(const NdArray<double>& array, StageTimes* times) const override;
  [[nodiscard]] NdArray<double> do_decode(std::span<const std::byte> data) const override;

  int table_log2_;
};

/// SZ-style error-bounded lossy compression (src/szlike): Lorenzo
/// prediction + residual quantization, guaranteeing a pointwise
/// absolute error bound — the related-work family ([31][32]) the SZ
/// line later standardized.
class SzLikeCodec final : public Codec {
 public:
  explicit SzLikeCodec(double error_bound = 1e-3) : error_bound_(error_bound) {}
  [[nodiscard]] std::string name() const override { return "szlike"; }
  [[nodiscard]] bool lossy() const override { return true; }

  [[nodiscard]] double error_bound() const noexcept { return error_bound_; }

 private:
  [[nodiscard]] Bytes do_encode(const NdArray<double>& array, StageTimes* times) const override;
  [[nodiscard]] NdArray<double> do_decode(std::span<const std::byte> data) const override;

  double error_bound_;
};

/// ZFP-inspired block-transform lossy compression (src/zfplike): block
/// floating point + integer lifting, fixed block-relative precision.
class ZfpLikeCodec final : public Codec {
 public:
  explicit ZfpLikeCodec(int precision = 20) : precision_(precision) {}
  [[nodiscard]] std::string name() const override { return "zfplike"; }
  [[nodiscard]] bool lossy() const override { return true; }

 private:
  [[nodiscard]] Bytes do_encode(const NdArray<double>& array, StageTimes* times) const override;
  [[nodiscard]] NdArray<double> do_decode(std::span<const std::byte> data) const override;

  int precision_;
};

/// Mantissa-truncation lossy baseline (src/core/truncation): bounds the
/// pointwise relative error at 2^-kept but ignores spatial structure.
class TruncationCodec final : public Codec {
 public:
  explicit TruncationCodec(int keep_mantissa_bits = 20, int deflate_level = 6)
      : keep_(keep_mantissa_bits), level_(deflate_level) {}
  [[nodiscard]] std::string name() const override { return "truncation"; }
  [[nodiscard]] bool lossy() const override { return true; }

 private:
  [[nodiscard]] Bytes do_encode(const NdArray<double>& array, StageTimes* times) const override;
  [[nodiscard]] NdArray<double> do_decode(std::span<const std::byte> data) const override;

  int keep_;
  int level_;
};

/// Returns a decoder instance for a codec name recorded in a checkpoint
/// file (decoding never needs encode-side parameters). Throws
/// FormatError for unknown names.
[[nodiscard]] const Codec& codec_for_decoding(std::string_view name);

}  // namespace wck
