#include "deflate/parallel.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <optional>
#include <string>
#include <thread>

#include "deflate/deflate.hpp"
#include "deflate/huffman.hpp"
#include "deflate/lz77.hpp"
#include "parallel/thread_pool.hpp"
#include "telemetry/telemetry.hpp"
#include "util/checksum.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace wck {
namespace {

constexpr std::uint32_t kMagic = 0x504B4357;  // "WCKP" little-endian
constexpr std::uint8_t kVersionBlocks = 1;    ///< fixed-size deflate blocks, decode only
constexpr std::uint8_t kVersionSegments = 2;

constexpr std::uint8_t kModeStored = 0;
constexpr std::uint8_t kModeDeflate = 1;

/// DEFLATE cannot expand beyond ~1032:1 (stored-block overhead bounds the
/// other direction; 1032:1 is the canonical zlib maximum-compression
/// figure). A frame claiming more is malformed, and rejecting it before
/// allocation keeps fuzzed inputs from turning into allocation bombs.
constexpr std::uint64_t kMaxExpansionRatio = 1032;

/// Smallest possible table entry: a v1 entry is a 1-byte comp varint, a
/// 1-byte uncomp varint and a 4-byte CRC; a v2 entry adds the mode byte.
/// Bounds the entry count before the table vector is reserved.
constexpr std::uint64_t kMinV1EntryBytes = 6;
constexpr std::uint64_t kMinV2EntryBytes = 7;

struct Segment {
  std::uint8_t mode = kModeDeflate;
  std::size_t raw_size = 0;
  std::size_t coded_size = 0;
  std::uint32_t crc = 0;
};

/// The fan-out runs on a process-shared pool sized to the machine, not
/// a pool-per-call: checkpoint codecs may compress from several threads
/// at once (simulated ranks, async writers) and the segments of all
/// of them should multiplex over one set of workers. Deliberately
/// leaked — workers may touch telemetry singletons, so the pool must
/// never be destroyed during static teardown. Still reachable through
/// the static pointer, so LeakSanitizer stays quiet.
ThreadPool& shared_pool() {
  static ThreadPool* pool = new ThreadPool(0);
  return *pool;
}

/// Runs fn(i) for i in [0, n) using at most `threads` concurrent strips
/// (strip w owns every i with i % strips == w). Unlike
/// ThreadPool::parallel_for this honors a caller-requested width below
/// the pool size, which is what makes WCK_THREADS=1 vs =8 a pure
/// wall-clock knob. Strip tasks never submit further pool work, so a
/// caller already running on some *other* pool cannot deadlock here.
template <typename Fn>
void for_each_segment(std::size_t n, std::size_t threads, const Fn& fn) {
  // One worker, or one segment, runs inline and never starts the pool.
  const std::size_t strips =
      std::min(threads, n) <= 1 ? 1 : std::min({threads, n, shared_pool().thread_count()});
  if (strips <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::future<void>> futs;
  futs.reserve(strips);
  try {
    for (std::size_t w = 0; w < strips; ++w) {
      futs.push_back(shared_pool().submit([w, strips, n, &fn] {
        for (std::size_t i = w; i < n; i += strips) fn(i);
      }));
    }
  } catch (...) {
    for (auto& f : futs) {
      try {
        f.get();
      } catch (...) {  // NOLINT(bugprone-empty-catch)
      }
    }
    throw;
  }
  std::exception_ptr first_error;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// True when order-0 Huffman coding of `segment`, with the code
/// build_code_lengths gives its byte histogram, saves at least 1 %.
/// Integer arithmetic only, so every platform decides alike.
bool worth_deflating(std::span<const std::byte> segment) {
  std::array<std::uint64_t, 256> freq{};
  for (const std::byte b : segment) ++freq[static_cast<std::uint8_t>(b)];
  const std::vector<std::uint8_t> lengths = build_code_lengths(freq, 15);
  std::uint64_t coded_bits = 0;
  for (std::size_t v = 0; v < 256; ++v) coded_bits += freq[v] * lengths[v];
  const std::uint64_t raw_bits = 8 * static_cast<std::uint64_t>(segment.size());
  return coded_bits < raw_bits && (raw_bits - coded_bits) * 100 >= raw_bits;
}

/// Parses a version 1 table (fixed-size blocks, all deflated).
std::vector<Segment> read_block_table(ByteReader& reader, std::size_t input_size,
                                      std::uint64_t& total) {
  const std::uint64_t block_size = reader.varint();
  total = reader.varint();
  const std::uint64_t count = reader.varint();
  if (block_size == 0) {
    throw FormatError("WCKP v1: zero block size");
  }
  const std::uint64_t derived = (total + block_size - 1) / block_size;
  if (count != derived) {
    throw FormatError("WCKP v1: block count " + std::to_string(count) +
                      " does not match payload (" + std::to_string(derived) + " expected)");
  }
  // A frame cannot legitimately claim more output than the whole input
  // could expand to, and its table cannot be larger than what remains.
  if (total > input_size * kMaxExpansionRatio + 1024) {
    throw FormatError("WCKP v1: implausible total size " + std::to_string(total));
  }
  if (count > reader.remaining() / kMinV1EntryBytes) {
    throw FormatError("WCKP v1: block count " + std::to_string(count) +
                      " exceeds container capacity");
  }
  std::vector<Segment> table(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    Segment& s = table[static_cast<std::size_t>(i)];
    const std::uint64_t comp = reader.varint();
    const std::uint64_t uncomp = reader.varint();
    s.crc = reader.u32();
    if (comp > input_size) {  // also keeps comp * kMaxExpansionRatio from overflowing
      throw FormatError("WCKP v1: block " + std::to_string(i) +
                        " compressed size exceeds container");
    }
    const std::uint64_t expected = std::min<std::uint64_t>(block_size, total - i * block_size);
    if (uncomp != expected) {
      throw FormatError("WCKP v1: block " + std::to_string(i) + " claims " +
                        std::to_string(uncomp) + " uncompressed bytes, expected " +
                        std::to_string(expected));
    }
    if (uncomp > comp * kMaxExpansionRatio + 1024) {
      throw FormatError("WCKP v1: block " + std::to_string(i) + " claims implausible expansion");
    }
    s.coded_size = static_cast<std::size_t>(comp);
    s.raw_size = static_cast<std::size_t>(uncomp);
  }
  return table;
}

/// Parses a version 2 table (variable segments, stored or deflated).
std::vector<Segment> read_segment_table(ByteReader& reader, std::size_t input_size,
                                        std::uint64_t& total) {
  total = reader.varint();
  const std::uint64_t count = reader.varint();
  if (total > input_size * kMaxExpansionRatio + 1024) {
    throw FormatError("WCKP: implausible total size " + std::to_string(total));
  }
  if (count > reader.remaining() / kMinV2EntryBytes) {
    throw FormatError("WCKP: segment count " + std::to_string(count) +
                      " exceeds container capacity");
  }
  std::vector<Segment> table(static_cast<std::size_t>(count));
  std::uint64_t raw_sum = 0;
  std::uint64_t coded_sum = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    Segment& s = table[static_cast<std::size_t>(i)];
    const auto reject = [i](const char* why) {
      throw FormatError("WCKP: segment " + std::to_string(i) + " " + why);
    };
    s.mode = reader.u8();
    const std::uint64_t raw = reader.varint();
    const std::uint64_t coded = reader.varint();
    s.crc = reader.u32();
    if (s.mode != kModeStored && s.mode != kModeDeflate) reject("has an unknown mode");
    // Running sums stay bounded by the checked total and the input size,
    // so neither can overflow.
    if (coded > input_size - coded_sum) reject("coded size exceeds the container");
    if (raw > total - raw_sum) reject("raw size exceeds the total");
    if (s.mode == kModeStored && raw != coded) reject("is stored with differing sizes");
    if (raw > coded * kMaxExpansionRatio + 1024) reject("claims implausible expansion");
    s.raw_size = static_cast<std::size_t>(raw);
    s.coded_size = static_cast<std::size_t>(coded);
    raw_sum += raw;
    coded_sum += coded;
  }
  if (raw_sum != total) {
    throw FormatError("WCKP: segments hold " + std::to_string(raw_sum) + " bytes, header claims " +
                      std::to_string(total));
  }
  return table;
}

}  // namespace

std::vector<std::size_t> segment_ends(std::size_t size, std::span<const std::size_t> stream_ends,
                                      std::size_t block_size) {
  if (block_size == 0) {
    throw InvalidArgumentError("WCKP: block_size must be >= 1");
  }
  std::vector<std::size_t> merged;
  std::size_t start = 0;
  for (const std::size_t end : stream_ends) {
    if (end < start || end > size) {
      throw InvalidArgumentError("WCKP: stream ends must be non-decreasing and within the input");
    }
    if (end - start >= kMinSegmentSize) {
      merged.push_back(end);
      start = end;
    }
  }
  if (start < size) {
    if (size - start < kMinSegmentSize && !merged.empty()) {
      merged.back() = size;
    } else {
      merged.push_back(size);
    }
  }
  std::vector<std::size_t> ends;
  std::size_t begin = 0;
  for (const std::size_t end : merged) {
    while (end - begin > block_size) {
      begin += block_size;
      ends.push_back(begin);
    }
    ends.push_back(end);
    begin = end;
  }
  return ends;
}

Bytes sharded_deflate_compress(std::span<const std::byte> input,
                               const ShardedDeflateOptions& options,
                               std::span<const std::size_t> stream_ends) {
  WCK_TRACE_SPAN("deflate.sharded.compress");
  // Checked up front: a payload whose segments are all stored never
  // reaches the deflate engine's own check.
  (void)lz77_params_for_level(options.level);
  const std::vector<std::size_t> ends = segment_ends(input.size(), stream_ends, options.block_size);
  const std::size_t n = ends.size();
  const std::size_t threads = std::max<std::size_t>(options.threads, 1);

  WCK_COUNTER_ADD("deflate.blocks", n);
  WCK_GAUGE_SET("deflate.threads", static_cast<double>(threads));

  // Each segment codes independently into its own slot; assembly below
  // concatenates in order, so the output bytes never depend on how
  // segments were scheduled.
  std::vector<Segment> table(n);
  std::vector<Bytes> bodies(n);
  const DeflateOptions deflate_options{options.level};
  for_each_segment(n, threads, [&](std::size_t i) {
    const std::size_t begin = i == 0 ? 0 : ends[i - 1];
    const auto segment = input.subspan(begin, ends[i] - begin);
    const bool timed = telemetry::enabled();
    const auto start =
        timed ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{};
    Segment& s = table[i];
    s.raw_size = segment.size();
    s.crc = crc32(segment);
    if (worth_deflating(segment)) {
      s.mode = kModeDeflate;
      bodies[i] = deflate_compress(segment, deflate_options);
      s.coded_size = bodies[i].size();
    } else {
      s.mode = kModeStored;
      s.coded_size = segment.size();
    }
    if (timed) WCK_HISTOGRAM_RECORD("deflate.segment.seconds", seconds_since(start));
  });

  ByteWriter writer;
  writer.u32(kMagic);
  writer.u8(kVersionSegments);
  writer.u8(0);  // flags
  writer.varint(input.size());
  writer.varint(n);
  std::size_t stored = 0;
  for (const Segment& s : table) {
    writer.u8(s.mode);
    writer.varint(s.raw_size);
    writer.varint(s.coded_size);
    writer.u32(s.crc);
    stored += s.mode == kModeStored ? 1 : 0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (table[i].mode == kModeDeflate) {
      writer.raw(bodies[i]);
    } else {
      writer.raw(input.subspan(i == 0 ? 0 : ends[i - 1], table[i].raw_size));
    }
  }
  WCK_COUNTER_ADD("deflate.blocks.stored", stored);
  return writer.take();
}

Bytes sharded_deflate_decompress(std::span<const std::byte> input, std::size_t threads) {
  WCK_TRACE_SPAN("deflate.sharded.decompress");
  ByteReader reader(input);
  if (reader.u32() != kMagic) {
    throw FormatError("WCKP: bad magic");
  }
  const std::uint8_t version = reader.u8();
  if (version != kVersionBlocks && version != kVersionSegments) {
    throw FormatError("WCKP: unsupported version " + std::to_string(version));
  }
  (void)reader.u8();  // flags, reserved
  std::uint64_t total = 0;
  const std::vector<Segment> table = version == kVersionBlocks
                                         ? read_block_table(reader, input.size(), total)
                                         : read_segment_table(reader, input.size(), total);

  // Body and output offsets are prefix sums of the table; every
  // segment's source span and destination region are known up front, so
  // segments decode fully independently into disjoint slices of the
  // preallocated output.
  std::vector<std::size_t> body_offsets(table.size());
  std::vector<std::size_t> out_offsets(table.size());
  std::uint64_t coded_total = 0;
  std::size_t raw_running = 0;
  for (std::size_t i = 0; i < table.size(); ++i) {
    body_offsets[i] = static_cast<std::size_t>(coded_total);
    out_offsets[i] = raw_running;
    coded_total += table[i].coded_size;
    raw_running += table[i].raw_size;
  }
  if (coded_total != reader.remaining()) {
    throw FormatError("WCKP: body size " + std::to_string(reader.remaining()) +
                      " does not match table total " + std::to_string(coded_total));
  }
  const auto bodies = reader.raw(static_cast<std::size_t>(coded_total));

  if (threads == 0) threads = resolve_deflate_sharding(0);
  WCK_COUNTER_ADD("deflate.blocks", table.size());
  WCK_GAUGE_SET("deflate.threads", static_cast<double>(threads));

  Bytes out(static_cast<std::size_t>(total));
  for_each_segment(table.size(), threads, [&](std::size_t i) {
    const Segment& s = table[i];
    const auto body = bodies.subspan(body_offsets[i], s.coded_size);
    std::byte* dst = out.data() + out_offsets[i];
    const bool timed = telemetry::enabled();
    const auto start =
        timed ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{};
    if (s.mode == kModeDeflate) {
      const Bytes segment = deflate_decompress(body, s.raw_size);
      if (segment.size() != s.raw_size) {
        throw CorruptDataError("WCKP: segment " + std::to_string(i) + " decoded to " +
                               std::to_string(segment.size()) + " bytes, expected " +
                               std::to_string(s.raw_size));
      }
      if (!segment.empty()) std::memcpy(dst, segment.data(), segment.size());
    } else if (s.raw_size > 0) {
      std::memcpy(dst, body.data(), s.raw_size);
    }
    if (crc32(std::span<const std::byte>(dst, s.raw_size)) != s.crc) {
      throw CorruptDataError("WCKP: CRC-32 mismatch in segment " + std::to_string(i));
    }
    if (timed) WCK_HISTOGRAM_RECORD("deflate.segment.seconds", seconds_since(start));
  });
  return out;
}

bool is_sharded_deflate(std::span<const std::byte> data) noexcept {
  if (data.size() < 4) return false;
  std::uint32_t magic = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    magic |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data[i])) << (8 * i);
  }
  return magic == kMagic;
}

std::size_t resolve_deflate_sharding(int requested) {
  if (requested > 0) return static_cast<std::size_t>(requested);
  if (requested < 0) return 1;
  const std::optional<std::string> env = env::get("WCK_THREADS");
  if (!env.has_value()) return 1;
  const std::string& value = *env;
  auto hardware = [] {
    const unsigned n = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(n == 0 ? 1 : n);
  };
  if (value == "max") return hardware();
  char* end = nullptr;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || parsed < 0) return 1;  // unparsable or empty
  if (parsed == 0) return hardware();
  return static_cast<std::size_t>(parsed);
}

}  // namespace wck
