#include "deflate/huffman.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory_resource>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace wck {

std::vector<std::uint8_t> build_code_lengths(std::span<const std::uint64_t> freqs,
                                             int max_length) {
  const std::size_t n = freqs.size();
  std::vector<std::uint8_t> lengths(n, 0);

  // The working lists live in a stack buffer sized for DEFLATE's largest
  // alphabet (286 symbols); larger alphabets spill to the heap. This runs
  // once per deflate block and once per WCKP segment, and its ~30 heap
  // allocations per call measurably raised peak RSS (EXPERIMENTS.md,
  // "Split-stream entropy stage").
  std::array<std::byte, 32 * 1024> scratch;
  std::pmr::monotonic_buffer_resource arena(scratch.data(), scratch.size());
  std::pmr::vector<std::uint16_t> used(&arena);
  used.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (freqs[i] > 0) used.push_back(static_cast<std::uint16_t>(i));
  }
  if (used.empty()) return lengths;
  if (used.size() == 1) {
    lengths[used[0]] = 1;
    return lengths;
  }
  if (static_cast<std::size_t>(1) << max_length < used.size()) {
    throw InvalidArgumentError("alphabet of " + std::to_string(used.size()) +
                               " symbols cannot fit in " + std::to_string(max_length) + " bits");
  }

  // Package-merge (coin collector): leaves sorted by weight form the
  // denomination list at every level; each level pairs adjacent nodes of
  // the previous level into packages and merges them with the leaves
  // (a leaf goes first on equal weight).
  struct Leaf {
    std::uint64_t weight;
    std::uint16_t symbol;
  };
  std::pmr::vector<Leaf> leaves(&arena);
  leaves.reserve(used.size());
  for (const std::uint16_t s : used) leaves.push_back(Leaf{freqs[s], s});
  std::sort(leaves.begin(), leaves.end(),
            [](const Leaf& a, const Leaf& b) { return a.weight < b.weight; });

  // Each level's list is kept as weights plus a package flag per node.
  // Packages are cut from the previous list in order and merged in order,
  // so the first p packages of a list are built from exactly the first 2p
  // nodes of the list below; which symbols a node holds never needs to be
  // stored.
  const auto levels = static_cast<std::size_t>(max_length);
  std::pmr::vector<std::pmr::vector<std::uint8_t>> is_package(levels, &arena);
  std::pmr::vector<std::uint64_t> prev(&arena);
  prev.reserve(2 * leaves.size());
  for (const Leaf& leaf : leaves) prev.push_back(leaf.weight);
  is_package[0].assign(prev.size(), 0);
  std::pmr::vector<std::uint64_t> cur(&arena);
  cur.reserve(2 * leaves.size());
  for (std::size_t level = 1; level < levels; ++level) {
    cur.clear();
    std::pmr::vector<std::uint8_t>& flags = is_package[level];
    flags.reserve(leaves.size() + prev.size() / 2);
    const std::size_t packages = prev.size() / 2;
    std::size_t li = 0;
    std::size_t pi = 0;
    while (li < leaves.size() || pi < packages) {
      const std::uint64_t package = pi < packages ? prev[2 * pi] + prev[2 * pi + 1] : 0;
      const bool take_leaf = pi >= packages || (li < leaves.size() && leaves[li].weight <= package);
      cur.push_back(take_leaf ? leaves[li++].weight : package);
      flags.push_back(take_leaf ? 0 : 1);
      if (!take_leaf) ++pi;
    }
    std::swap(prev, cur);
  }

  // The first 2*(n_used - 1) nodes of the final list are the solution;
  // each symbol's code length equals the number of chosen nodes holding
  // it. Walk down: the leaves among a level's chosen prefix are the
  // lightest leaves, and its packages choose the prefix one level below.
  std::size_t take = 2 * (used.size() - 1);
  for (std::size_t level = levels; level-- > 0;) {
    const std::pmr::vector<std::uint8_t>& flags = is_package[level];
    std::size_t packages = 0;
    for (std::size_t i = 0; i < take; ++i) packages += flags[i];
    for (std::size_t j = 0; j < take - packages; ++j) ++lengths[leaves[j].symbol];
    take = 2 * packages;
  }
  return lengths;
}

CanonicalCode CanonicalCode::from_lengths(std::span<const std::uint8_t> lengths) {
  CanonicalCode cc;
  cc.lengths.assign(lengths.begin(), lengths.end());
  cc.codes.assign(lengths.size(), 0);
  cc.reversed.assign(lengths.size(), 0);

  std::uint32_t bl_count[16] = {};
  int max_len = 0;
  for (const std::uint8_t l : lengths) {
    if (l > 15) throw InvalidArgumentError("code length exceeds 15 bits");
    ++bl_count[l];
    max_len = std::max<int>(max_len, l);
  }
  bl_count[0] = 0;

  std::uint32_t next_code[16] = {};
  std::uint32_t code = 0;
  for (int bits = 1; bits <= max_len; ++bits) {
    code = (code + bl_count[bits - 1]) << 1;
    next_code[bits] = code;
  }
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    const std::uint8_t l = lengths[s];
    if (l != 0) {
      cc.codes[s] = static_cast<std::uint16_t>(next_code[l]++);
      if (cc.codes[s] >= (1u << l)) {
        throw InvalidArgumentError("over-subscribed Huffman code lengths");
      }
      cc.reversed[s] = static_cast<std::uint16_t>(BitWriter::reverse(cc.codes[s], l));
    }
  }
  return cc;
}

HuffmanDecoder::HuffmanDecoder(std::span<const std::uint8_t> lengths, bool allow_incomplete)
    : fast_(std::size_t{1} << kFastBits) {
  std::size_t n_used = 0;
  for (const std::uint8_t l : lengths) {
    if (l > 15) throw FormatError("Huffman code length exceeds 15 bits");
    if (l > 0) {
      ++count_[l];
      max_len_ = std::max<int>(max_len_, l);
      ++n_used;
    }
  }
  if (n_used == 0) {
    // Degenerate empty code: decode() always fails. DEFLATE tolerates
    // this for distance codes in blocks that emit no matches.
    return;
  }

  // Kraft sum check.
  std::uint32_t kraft = 0;  // in units of 2^-15
  for (int l = 1; l <= 15; ++l) kraft += count_[l] << (15 - l);
  if (kraft > (1u << 15)) throw FormatError("over-subscribed Huffman code");
  if (kraft < (1u << 15) && !(allow_incomplete && n_used == 1)) {
    throw FormatError("incomplete Huffman code");
  }

  // Canonical first_code / first_index per length (RFC 1951 recurrence);
  // codes of length l span [first_code_[l], first_code_[l] + count_[l]).
  std::uint32_t code = 0;
  std::uint32_t index = 0;
  for (int l = 1; l <= max_len_; ++l) {
    code = (code + count_[l - 1]) << 1;
    first_code_[l] = code;
    first_index_[l] = index;
    index += count_[l];
  }

  sym_by_code_.resize(n_used);
  {
    std::uint32_t next_index[16];
    std::copy(std::begin(first_index_), std::end(first_index_), std::begin(next_index));
    for (std::size_t s = 0; s < lengths.size(); ++s) {
      const std::uint8_t l = lengths[s];
      if (l > 0) sym_by_code_[next_index[l]++] = static_cast<std::uint16_t>(s);
    }
  }

  // Fast table: index = next kFastBits of the stream (LSB-first). Codes
  // are MSB-first, so a code c of length l maps to all indices whose low
  // l bits equal reverse(c, l).
  for (int l = 1; l <= std::min(max_len_, kFastBits); ++l) {
    for (std::uint32_t k = 0; k < count_[l]; ++k) {
      const std::uint32_t c = first_code_[l] + k;
      const std::uint16_t sym = sym_by_code_[first_index_[l] + k];
      const std::uint32_t rev = BitWriter::reverse(c, l);
      const std::uint32_t step = 1u << l;
      for (std::uint32_t idx = rev; idx < fast_.size(); idx += step) {
        fast_[idx] = FastEntry{static_cast<std::int16_t>(sym), static_cast<std::uint8_t>(l)};
      }
    }
  }
}

int HuffmanDecoder::decode_slow(BitReader& br) const {
  if (max_len_ == 0) throw FormatError("decode with empty Huffman code");
  // Canonical walk over the peeked bits, one MSB-first code bit at a
  // time; bits past the end of the stream read as zero, and consuming
  // them throws.
  const std::uint32_t window = br.peek_bits(max_len_);
  std::uint32_t code = 0;
  for (int l = 1; l <= max_len_; ++l) {
    code = (code << 1) | ((window >> (l - 1)) & 1u);
    if (count_[l] != 0 && code >= first_code_[l] && code < first_code_[l] + count_[l]) {
      br.drop_bits(l);
      return sym_by_code_[first_index_[l] + (code - first_code_[l])];
    }
  }
  throw FormatError("invalid Huffman code in stream");
}

}  // namespace wck
