// Robustness fuzzing: every decoder in the stack must reject arbitrary
// byte blobs with a typed Error — never crash, hang, or silently accept
// garbage — and must survive random mutations of valid streams.
#include <gtest/gtest.h>

#include "ckpt/checkpoint.hpp"
#include "ckpt/codec.hpp"
#include "core/compressor.hpp"
#include "core/synthetic.hpp"
#include "core/truncation.hpp"
#include "deflate/deflate.hpp"
#include "deflate/huffman_only.hpp"
#include "encode/payload.hpp"
#include "fpc/fpc.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wck {
namespace {

Bytes random_blob(std::size_t n, Xoshiro256& rng) {
  Bytes b(n);
  for (auto& v : b) v = static_cast<std::byte>(rng.bounded(256));
  return b;
}

/// Runs `decode` over many random blobs; any outcome except a crash is
/// acceptable (typed Error expected, silent success tolerated only for
/// formats where random bytes can be valid, e.g. raw deflate).
template <typename Fn>
void fuzz_decoder(const char* name, Fn&& decode, std::uint64_t seed, int trials = 200) {
  Xoshiro256 rng(seed);
  for (int t = 0; t < trials; ++t) {
    const auto size = static_cast<std::size_t>(rng.bounded(300));
    const Bytes blob = random_blob(size, rng);
    try {
      decode(blob);
    } catch (const Error&) {
      // expected
    } catch (const std::exception& e) {
      FAIL() << name << ": non-library exception on trial " << t << ": " << e.what();
    }
  }
}

TEST(Fuzz, DeflateDecodersRejectGarbage) {
  fuzz_decoder("deflate", [](const Bytes& b) { (void)deflate_decompress(b); }, 1);
  fuzz_decoder("gzip", [](const Bytes& b) { (void)gzip_decompress(b); }, 2);
  fuzz_decoder("zlib", [](const Bytes& b) { (void)zlib_decompress(b); }, 3);
  fuzz_decoder("huffman-only", [](const Bytes& b) { (void)huffman_only_decompress(b); }, 4);
}

TEST(Fuzz, PayloadAndStreamDecodersRejectGarbage) {
  fuzz_decoder("payload", [](const Bytes& b) { (void)decode_payload(b); }, 5);
  fuzz_decoder("compressor", [](const Bytes& b) { (void)WaveletCompressor::decompress(b); }, 6);
  fuzz_decoder("fpc", [](const Bytes& b) { (void)fpc_decompress(b); }, 8);
  fuzz_decoder("truncation", [](const Bytes& b) { (void)truncation_decompress(b); }, 9);
}

TEST(Fuzz, CheckpointRestoreRejectsGarbage) {
  NdArray<double> state(Shape{4, 4});
  CheckpointRegistry reg;
  reg.add("state", &state);
  fuzz_decoder("checkpoint", [&](const Bytes& b) { (void)restore_checkpoint(b, reg); }, 10);
}

/// Mutation fuzzing: flip bytes of *valid* streams at random positions;
/// decoders must throw or produce a (possibly different) valid result —
/// never crash. Integrity-protected layers must detect every mutation.
TEST(Fuzz, MutatedCompressorStreamsNeverCrash) {
  const auto field = make_smooth_field(Shape{24, 16}, 20);
  CompressionParams p;
  p.quantizer.divisions = 32;
  const auto comp = WaveletCompressor(p).compress(field);
  Xoshiro256 rng(21);
  int detected = 0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    Bytes bad = comp.data;
    const int flips = 1 + static_cast<int>(rng.bounded(3));
    for (int f = 0; f < flips; ++f) {
      bad[rng.bounded(bad.size())] ^= static_cast<std::byte>(1 + rng.bounded(255));
    }
    try {
      (void)WaveletCompressor::decompress(bad);
    } catch (const Error&) {
      ++detected;
    }
  }
  // The zlib container (Adler-32) + payload CRC catch essentially all
  // mutations; allow a tiny residue for flips in genuinely ignored bits.
  EXPECT_GT(detected, trials * 95 / 100);
}

TEST(Fuzz, MutatedCheckpointsAlwaysDetected) {
  NdArray<double> state = make_smooth_field(Shape{16, 16}, 22);
  CheckpointRegistry reg;
  reg.add("state", &state);
  const Bytes data = serialize_checkpoint(reg, GzipCodec{}, 3);
  Xoshiro256 rng(23);
  for (int t = 0; t < 200; ++t) {
    Bytes bad = data;
    bad[rng.bounded(bad.size())] ^= static_cast<std::byte>(1 + rng.bounded(255));
    NdArray<double> target(state.shape());
    CheckpointRegistry rreg;
    rreg.add("state", &target);
    EXPECT_THROW((void)restore_checkpoint(bad, rreg), Error) << "trial " << t;
  }
}

}  // namespace
}  // namespace wck
