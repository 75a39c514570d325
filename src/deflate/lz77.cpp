#include "deflate/lz77.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "deflate/deflate_tables.hpp"
#include "util/error.hpp"

namespace wck {
namespace {

namespace dt = deflate_tables;

constexpr int kHashBits = 15;
constexpr std::uint32_t kHashSize = 1u << kHashBits;

/// Chain links live in a ring indexed by position. A walk never reaches
/// more than one window back, so a slot is never read after the position
/// one ring length later has overwritten it.
constexpr std::uint32_t kRingSize = 2 * dt::kWindowSize;
constexpr std::uint32_t kRingMask = kRingSize - 1;

/// Empty hash head: more than a window behind every position below
/// 4 GiB - 32 KiB. Positions are stored mod 2^32; past that size a stale
/// entry can alias into the window, which only ever proposes a candidate
/// that the byte comparison then verifies.
constexpr std::uint32_t kNoPos = 0u - static_cast<std::uint32_t>(dt::kWindowSize + 1);

/// Hashes the 3 bytes starting at p.
inline std::uint32_t hash3(const std::uint8_t* p) noexcept {
  // Multiplicative hash of the 3-byte group.
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

inline std::uint64_t load64le(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

inline std::uint16_t load16(const std::uint8_t* p) noexcept {
  std::uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Length of the common prefix of a and b, up to `limit`: 8 bytes per
/// step, the first differing byte located by counting trailing zeros of
/// the XOR, then a byte tail below 8.
inline int match_length(const std::uint8_t* a, const std::uint8_t* b, int limit) noexcept {
  int n = 0;
  for (; n + 8 <= limit; n += 8) {
    const std::uint64_t diff = load64le(a + n) ^ load64le(b + n);
    if (diff != 0) return n + (std::countr_zero(diff) >> 3);
  }
  while (n < limit && a[n] == b[n]) ++n;
  return n;
}

class Matcher {
 public:
  Matcher(const std::uint8_t* data, std::size_t size, const Lz77Params& params)
      : data_(data), size_(size), params_(params), head_(kHashSize, kNoPos), prev_(kRingSize) {}

  /// Inserts position `pos` into the hash chains.
  void insert(std::size_t pos) noexcept {
    if (pos + dt::kMinMatch > size_) return;
    const std::uint32_t h = hash3(data_ + pos);
    prev_[pos & kRingMask] = head_[h];
    head_[h] = static_cast<std::uint32_t>(pos);
  }

  /// Finds the longest match at `pos`, at least kMinMatch long; returns
  /// length 0 if none. `best_dist` receives the distance. Among equally
  /// long matches the first one found on the chain (the nearest) wins.
  int find(std::size_t pos, int* best_dist) const noexcept {
    *best_dist = 0;
    if (pos + dt::kMinMatch > size_) return 0;
    const int limit = static_cast<int>(std::min<std::size_t>(dt::kMaxMatch, size_ - pos));
    const std::uint8_t* cur = data_ + pos;
    const auto pos32 = static_cast<std::uint32_t>(pos);

    int best_len = 0;
    std::uint32_t cand = head_[hash3(cur)];
    int chain = params_.max_chain;
    for (;;) {
      const std::uint32_t dist = pos32 - cand;
      // Stop at an empty slot, outside the window, or out of effort.
      if (dist - 1 >= static_cast<std::uint32_t>(dt::kWindowSize) || chain-- <= 0) break;
      const std::uint8_t* m = cur - dist;
      // Quick reject on bytes any accepted match must share: the first 3
      // (the minimum match), else the two ending at best_len (a match is
      // only taken if it is strictly longer than the best so far).
      const bool plausible = best_len == 0
                                 ? load16(m) == load16(cur) && m[2] == cur[2]
                                 : load16(m + best_len - 1) == load16(cur + best_len - 1);
      if (plausible) {
        const int len = match_length(m, cur, limit);
        if (len > best_len) {
          best_len = len;
          *best_dist = static_cast<int>(dist);
          if (best_len >= params_.nice_length || best_len == limit) break;
        }
      }
      cand = prev_[cand & kRingMask];
    }
    return best_len;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  Lz77Params params_;
  std::vector<std::uint32_t> head_;  ///< newest position per hash, mod 2^32
  std::vector<std::uint32_t> prev_;  ///< ring: previous position on the chain
};

}  // namespace

Lz77Params lz77_params_for_level(int level) {
  if (level < 1 || level > 9) {
    throw InvalidArgumentError("compression level must be 1..9");
  }
  // Roughly zlib's configuration_table.
  static constexpr Lz77Params kTable[9] = {
      {4, 8, 0},       // 1
      {8, 16, 4},      // 2
      {32, 32, 6},     // 3
      {16, 16, 8},     // 4
      {32, 32, 16},    // 5
      {128, 128, 16},  // 6
      {256, 128, 32},  // 7
      {1024, 258, 128},  // 8
      {4096, 258, 258},  // 9
  };
  return kTable[level - 1];
}

std::vector<Lz77Token> lz77_parse(std::span<const std::byte> input, const Lz77Params& params) {
  std::vector<Lz77Token> tokens;
  if (input.empty()) return tokens;
  tokens.reserve(input.size() / 3 + 16);

  const auto* data = reinterpret_cast<const std::uint8_t*>(input.data());
  const std::size_t size = input.size();
  Matcher matcher(data, size, params);

  std::size_t pos = 0;
  // One-step lazy matching: when the match at pos+1 is longer, pos is
  // emitted as a literal and that match, found on the very state the next
  // iteration would search again, is carried over instead.
  int len = 0;
  int dist = 0;
  bool carried = false;
  while (pos < size) {
    if (!carried) len = matcher.find(pos, &dist);
    carried = false;
    if (len >= dt::kMinMatch) {
      std::size_t insert_from = pos;
      if (len < params.lazy_threshold && pos + 1 < size) {
        matcher.insert(pos);
        int next_dist = 0;
        const int next_len = matcher.find(pos + 1, &next_dist);
        if (next_len > len) {
          tokens.push_back(Lz77Token::literal(data[pos]));
          ++pos;
          len = next_len;
          dist = next_dist;
          carried = true;
          continue;
        }
        insert_from = pos + 1;  // pos itself is already inserted
      }
      tokens.push_back(Lz77Token::match(len, dist));
      const std::size_t end = pos + static_cast<std::size_t>(len);
      for (std::size_t i = insert_from; i < end; ++i) matcher.insert(i);
      pos = end;
    } else {
      tokens.push_back(Lz77Token::literal(data[pos]));
      matcher.insert(pos);
      ++pos;
    }
  }
  return tokens;
}

}  // namespace wck
