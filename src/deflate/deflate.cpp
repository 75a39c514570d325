#include "deflate/deflate.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>

#include "deflate/deflate_tables.hpp"
#include "deflate/huffman.hpp"
#include "deflate/lz77.hpp"
#include "util/bitio.hpp"
#include "util/error.hpp"

namespace wck {
namespace {

namespace dt = deflate_tables;

/// RLE instruction for the code-length code (RFC 1951 3.2.7).
struct ClcSymbol {
  std::uint8_t symbol;  ///< 0..18
  std::uint8_t extra_value;
  std::uint8_t extra_bits;
};

/// Encodes a concatenated (litlen ++ dist) code-length array into
/// code-length-code symbols with 16/17/18 run compression.
std::vector<ClcSymbol> rle_encode_lengths(std::span<const std::uint8_t> lengths) {
  std::vector<ClcSymbol> out;
  const std::size_t n = lengths.size();
  std::size_t i = 0;
  int prev = -1;
  while (i < n) {
    const std::uint8_t v = lengths[i];
    std::size_t run = 1;
    while (i + run < n && lengths[i + run] == v) ++run;

    if (v == 0) {
      std::size_t left = run;
      while (left >= 11) {
        const std::size_t take = std::min<std::size_t>(left, 138);
        out.push_back({18, static_cast<std::uint8_t>(take - 11), 7});
        left -= take;
      }
      if (left >= 3) {
        out.push_back({17, static_cast<std::uint8_t>(left - 3), 3});
        left = 0;
      }
      while (left-- > 0) out.push_back({0, 0, 0});
      prev = 0;
    } else {
      std::size_t left = run;
      if (prev != v) {
        out.push_back({v, 0, 0});
        --left;
        prev = v;
      }
      while (left >= 3) {
        const std::size_t take = std::min<std::size_t>(left, 6);
        out.push_back({16, static_cast<std::uint8_t>(take - 3), 2});
        left -= take;
      }
      while (left-- > 0) out.push_back({static_cast<std::uint8_t>(v), 0, 0});
    }
    i += run;
  }
  return out;
}

/// Everything needed to emit one block with a given pair of codes.
struct BlockCodes {
  CanonicalCode litlen;
  CanonicalCode dist;
};

/// Frequencies of litlen/dist symbols in a token range (EOB included).
struct BlockFreqs {
  std::array<std::uint64_t, dt::kNumLitLen> litlen{};
  std::array<std::uint64_t, dt::kNumDist> dist{};
};

BlockFreqs count_frequencies(std::span<const Lz77Token> tokens) {
  BlockFreqs f;
  for (const Lz77Token& t : tokens) {
    if (t.is_match()) {
      ++f.litlen[static_cast<std::size_t>(257 + dt::length_to_code(t.length()))];
      ++f.dist[static_cast<std::size_t>(dt::dist_to_code(t.distance()))];
    } else {
      ++f.litlen[t.literal_byte()];
    }
  }
  ++f.litlen[dt::kEndOfBlock];
  return f;
}

/// Bit cost of the token data (symbols + extra bits) under given lengths.
std::uint64_t data_cost_bits(const BlockFreqs& f, std::span<const std::uint8_t> litlen_lengths,
                             std::span<const std::uint8_t> dist_lengths) {
  std::uint64_t bits = 0;
  for (std::size_t s = 0; s < f.litlen.size(); ++s) {
    if (f.litlen[s] == 0) continue;
    bits += f.litlen[s] * litlen_lengths[s];
    if (s > 256) bits += f.litlen[s] * dt::kLengthCodes[s - 257].extra;
  }
  for (std::size_t s = 0; s < f.dist.size(); ++s) {
    if (f.dist[s] == 0) continue;
    bits += f.dist[s] * (s < dist_lengths.size() ? dist_lengths[s] : 0);
    bits += f.dist[s] * dt::kDistCodes[s].extra;
  }
  return bits;
}

/// Emits the token data with the given codes, ending with EOB. A match
/// goes out as two writes: length code plus its extra bits (<= 20 bits),
/// then distance code plus its extra bits (<= 28 bits).
void emit_tokens(BitWriter& bw, std::span<const Lz77Token> tokens, const BlockCodes& codes) {
  const std::uint16_t* lit_code = codes.litlen.reversed.data();
  const std::uint8_t* lit_len = codes.litlen.lengths.data();
  const std::uint16_t* dist_code = codes.dist.reversed.data();
  const std::uint8_t* dist_len = codes.dist.lengths.data();
  for (const Lz77Token& t : tokens) {
    if (t.is_match()) {
      const int length = t.length();
      const int lc = dt::length_to_code(length);
      const auto& le = dt::kLengthCodes[static_cast<std::size_t>(lc)];
      const auto sym = static_cast<std::size_t>(257 + lc);
      bw.put_bits(lit_code[sym] | (static_cast<std::uint32_t>(length - le.base) << lit_len[sym]),
                  lit_len[sym] + le.extra);
      const int distance = t.distance();
      const auto dc = static_cast<std::size_t>(dt::dist_to_code(distance));
      const auto& de = dt::kDistCodes[dc];
      bw.put_bits(dist_code[dc] | (static_cast<std::uint32_t>(distance - de.base) << dist_len[dc]),
                  dist_len[dc] + de.extra);
    } else {
      const std::uint8_t b = t.literal_byte();
      bw.put_bits(lit_code[b], lit_len[b]);
    }
  }
  codes.litlen.emit(bw, dt::kEndOfBlock);
}

/// Dynamic-block header plan: trimmed alphabets + RLE-coded lengths.
struct DynamicPlan {
  std::vector<std::uint8_t> litlen_lengths;  // size >= 257
  std::vector<std::uint8_t> dist_lengths;    // size >= 1
  std::vector<ClcSymbol> rle;
  std::array<std::uint8_t, dt::kNumClc> clc_lengths{};
  int hclen = 4;  // number of CLC lengths transmitted, 4..19
  std::uint64_t header_bits = 0;
};

DynamicPlan plan_dynamic(const BlockFreqs& f) {
  DynamicPlan p;

  auto litlen_full = build_code_lengths(std::span(f.litlen), dt::kMaxCodeLen);
  auto dist_freq = f.dist;
  bool any_dist = false;
  for (const auto v : dist_freq) any_dist = any_dist || v > 0;
  if (!any_dist) dist_freq[0] = 1;  // RFC requires at least one distance code
  auto dist_full = build_code_lengths(std::span(dist_freq), dt::kMaxCodeLen);

  // Trim trailing absent symbols (HLIT >= 257, HDIST >= 1).
  std::size_t nlit = dt::kNumLitLen;
  while (nlit > 257 && litlen_full[nlit - 1] == 0) --nlit;
  std::size_t ndist = dt::kNumDist;
  while (ndist > 1 && dist_full[ndist - 1] == 0) --ndist;

  p.litlen_lengths.assign(litlen_full.begin(), litlen_full.begin() + nlit);
  p.dist_lengths.assign(dist_full.begin(), dist_full.begin() + ndist);

  // RLE over the concatenated arrays.
  std::vector<std::uint8_t> combined = p.litlen_lengths;
  combined.insert(combined.end(), p.dist_lengths.begin(), p.dist_lengths.end());
  p.rle = rle_encode_lengths(combined);

  // Huffman code over the CLC symbols.
  std::array<std::uint64_t, dt::kNumClc> clc_freq{};
  for (const ClcSymbol& s : p.rle) ++clc_freq[s.symbol];
  const auto clc_lengths = build_code_lengths(std::span(clc_freq), dt::kMaxClcLen);
  std::copy(clc_lengths.begin(), clc_lengths.end(), p.clc_lengths.begin());

  int hclen = dt::kNumClc;
  while (hclen > 4 && p.clc_lengths[dt::kClcOrder[static_cast<std::size_t>(hclen - 1)]] == 0) {
    --hclen;
  }
  p.hclen = hclen;

  p.header_bits = 5 + 5 + 4 + static_cast<std::uint64_t>(hclen) * 3;
  for (const ClcSymbol& s : p.rle) {
    p.header_bits += p.clc_lengths[s.symbol] + s.extra_bits;
  }
  return p;
}

void emit_dynamic_block(BitWriter& bw, std::span<const Lz77Token> tokens, const DynamicPlan& p,
                        bool final_block) {
  bw.put(final_block ? 1u : 0u, 1);
  bw.put(0b10, 2);  // BTYPE = dynamic
  bw.put(static_cast<std::uint32_t>(p.litlen_lengths.size() - 257), 5);
  bw.put(static_cast<std::uint32_t>(p.dist_lengths.size() - 1), 5);
  bw.put(static_cast<std::uint32_t>(p.hclen - 4), 4);
  for (int i = 0; i < p.hclen; ++i) {
    bw.put(p.clc_lengths[dt::kClcOrder[static_cast<std::size_t>(i)]], 3);
  }
  const auto clc = CanonicalCode::from_lengths(std::span(p.clc_lengths));
  for (const ClcSymbol& s : p.rle) {
    clc.emit(bw, s.symbol);
    if (s.extra_bits > 0) bw.put(s.extra_value, s.extra_bits);
  }
  BlockCodes codes{CanonicalCode::from_lengths(std::span(p.litlen_lengths)),
                   CanonicalCode::from_lengths(std::span(p.dist_lengths))};
  emit_tokens(bw, tokens, codes);
}

void emit_fixed_block(BitWriter& bw, std::span<const Lz77Token> tokens, bool final_block) {
  bw.put(final_block ? 1u : 0u, 1);
  bw.put(0b01, 2);  // BTYPE = fixed
  static const auto kLit = dt::fixed_litlen_lengths();
  static const auto kDist = dt::fixed_dist_lengths();
  static const BlockCodes kCodes{CanonicalCode::from_lengths(std::span(kLit)),
                                 CanonicalCode::from_lengths(std::span(kDist))};
  emit_tokens(bw, tokens, kCodes);
}

void emit_stored_blocks(BitWriter& bw, std::span<const std::byte> raw, bool final_block) {
  // A stored block holds at most 65535 bytes; split as needed. An empty
  // input still needs one (empty) stored block if it must carry BFINAL.
  std::size_t off = 0;
  do {
    const std::size_t take = std::min<std::size_t>(raw.size() - off, 65535);
    const bool last_piece = off + take == raw.size();
    bw.put((final_block && last_piece) ? 1u : 0u, 1);
    bw.put(0b00, 2);  // BTYPE = stored
    bw.align_to_byte();
    const auto len = static_cast<std::uint16_t>(take);
    bw.put(len, 16);
    bw.put(static_cast<std::uint16_t>(~len), 16);
    bw.write_aligned(raw.subspan(off, take));
    off += take;
  } while (off < raw.size());
}

}  // namespace

Bytes deflate_compress(std::span<const std::byte> input, const DeflateOptions& options) {
  const Lz77Params params = lz77_params_for_level(options.level);
  Bytes out;
  BitWriter bw(out);

  if (input.empty()) {
    emit_stored_blocks(bw, input, /*final_block=*/true);
    bw.align_to_byte();
    return out;
  }

  const std::vector<Lz77Token> tokens = lz77_parse(input, params);

  // Split the token stream into blocks so each gets its own adapted
  // Huffman code. 16 Ki tokens is zlib's block length at its default
  // memLevel: short enough that each code follows the local statistics
  // of a stream, which wins back the bytes a lower level's shorter chain
  // walk gives up. Block boundaries also track the raw-byte range so the
  // stored fallback can be costed exactly.
  constexpr std::size_t kTokensPerBlock = 1 << 14;
  std::size_t tok_begin = 0;
  std::size_t raw_begin = 0;
  while (tok_begin < tokens.size() || tok_begin == 0) {
    const std::size_t tok_end = std::min(tokens.size(), tok_begin + kTokensPerBlock);
    const auto block = std::span(tokens).subspan(tok_begin, tok_end - tok_begin);
    std::size_t raw_len = 0;
    for (const Lz77Token& t : block) {
      raw_len += t.is_match() ? static_cast<std::size_t>(t.length()) : 1;
    }
    const auto raw = input.subspan(raw_begin, raw_len);
    const bool final_block = tok_end == tokens.size();

    const BlockFreqs freqs = count_frequencies(block);
    const DynamicPlan plan = plan_dynamic(freqs);
    const std::uint64_t dyn_bits =
        3 + plan.header_bits +
        data_cost_bits(freqs, std::span(plan.litlen_lengths), std::span(plan.dist_lengths));
    static const auto kFixedLit = dt::fixed_litlen_lengths();
    static const auto kFixedDist = dt::fixed_dist_lengths();
    const std::uint64_t fixed_bits =
        3 + data_cost_bits(freqs, std::span(kFixedLit), std::span(kFixedDist));
    // Stored needs byte alignment (up to 7 pad bits) + 4 bytes of
    // LEN/NLEN per 65535-byte piece.
    const std::uint64_t stored_bits =
        3 + 7 + (raw_len / 65535 + 1) * 32 + static_cast<std::uint64_t>(raw_len) * 8;

    if (stored_bits < dyn_bits && stored_bits < fixed_bits) {
      emit_stored_blocks(bw, raw, final_block);
    } else if (fixed_bits <= dyn_bits) {
      emit_fixed_block(bw, block, final_block);
    } else {
      emit_dynamic_block(bw, block, plan, final_block);
    }

    raw_begin += raw_len;
    tok_begin = tok_end;
    if (final_block) break;
  }

  bw.align_to_byte();
  return out;
}

namespace {

/// Reads the dynamic-block code-length tables (RFC 1951 3.2.7).
void read_dynamic_tables(BitReader& br, std::vector<std::uint8_t>& litlen_lengths,
                         std::vector<std::uint8_t>& dist_lengths) {
  const std::uint32_t hlit = br.get(5) + 257;
  const std::uint32_t hdist = br.get(5) + 1;
  const std::uint32_t hclen = br.get(4) + 4;
  if (hlit > 286 || hdist > 30) throw FormatError("dynamic block: alphabet too large");

  std::array<std::uint8_t, dt::kNumClc> clc_lengths{};
  for (std::uint32_t i = 0; i < hclen; ++i) {
    clc_lengths[dt::kClcOrder[i]] = static_cast<std::uint8_t>(br.get(3));
  }
  const HuffmanDecoder clc{std::span(clc_lengths)};

  std::vector<std::uint8_t> combined;
  combined.reserve(hlit + hdist);
  while (combined.size() < hlit + hdist) {
    const int sym = clc.decode(br);
    if (sym < 16) {
      combined.push_back(static_cast<std::uint8_t>(sym));
    } else if (sym == 16) {
      if (combined.empty()) throw FormatError("repeat code with no previous length");
      const std::uint32_t rep = 3 + br.get(2);
      combined.insert(combined.end(), rep, combined.back());
    } else if (sym == 17) {
      const std::uint32_t rep = 3 + br.get(3);
      combined.insert(combined.end(), rep, 0);
    } else {  // 18
      const std::uint32_t rep = 11 + br.get(7);
      combined.insert(combined.end(), rep, 0);
    }
  }
  if (combined.size() != hlit + hdist) {
    throw FormatError("code length repeat overflows alphabet");
  }
  litlen_lengths.assign(combined.begin(), combined.begin() + hlit);
  dist_lengths.assign(combined.begin() + hlit, combined.end());
}

}  // namespace

Bytes deflate_decompress(std::span<const std::byte> input, std::size_t size_hint) {
  // The output is written through an index into a buffer presized to the
  // hint (else to a guess) that grows geometrically and is trimmed to the
  // decoded size at the end.
  Bytes out(size_hint > 0 ? size_hint : 2 * input.size() + 64);
  std::size_t n = 0;
  const auto make_room = [&out, &n](std::size_t extra) {
    if (out.size() - n < extra) out.resize(std::max(2 * out.size(), n + extra));
  };
  BitReader br(input);

  static const auto kFixedLit = dt::fixed_litlen_lengths();
  static const auto kFixedDist = dt::fixed_dist_lengths();
  static const HuffmanDecoder kFixedLitDec{std::span(kFixedLit)};
  static const HuffmanDecoder kFixedDistDec{std::span(kFixedDist)};

  bool final_block = false;
  while (!final_block) {
    final_block = br.get_bits(1) != 0;
    const std::uint32_t btype = br.get_bits(2);

    if (btype == 0b00) {  // stored
      br.align_to_byte();
      const std::uint32_t len = br.get_bits(16);
      const std::uint32_t nlen = br.get_bits(16);
      if ((len ^ nlen) != 0xFFFFu) throw FormatError("stored block LEN/NLEN mismatch");
      make_room(len);
      br.read_aligned(out.data() + n, len);
      n += len;
      continue;
    }
    if (btype == 0b11) throw FormatError("reserved block type 11");

    const HuffmanDecoder* lit_dec = &kFixedLitDec;
    const HuffmanDecoder* dist_dec = &kFixedDistDec;
    std::optional<HuffmanDecoder> dyn_lit;
    std::optional<HuffmanDecoder> dyn_dist;
    if (btype == 0b10) {  // dynamic
      std::vector<std::uint8_t> litlen_lengths;
      std::vector<std::uint8_t> dist_lengths;
      read_dynamic_tables(br, litlen_lengths, dist_lengths);
      dyn_lit.emplace(std::span(litlen_lengths));
      dyn_dist.emplace(std::span(dist_lengths), /*allow_incomplete=*/true);
      lit_dec = &*dyn_lit;
      dist_dec = &*dyn_dist;
    }

    for (;;) {
      const int sym = lit_dec->decode(br);
      if (sym < 256) {
        make_room(1);
        out[n++] = static_cast<std::byte>(sym);
        continue;
      }
      if (sym == dt::kEndOfBlock) break;
      if (sym > 285) throw FormatError("invalid length symbol");
      const auto& le = dt::kLengthCodes[static_cast<std::size_t>(sym - 257)];
      const std::size_t len = le.base + br.get_bits(le.extra);
      const int dsym = dist_dec->decode(br);
      if (dsym > 29) throw FormatError("invalid distance symbol");
      const auto& de = dt::kDistCodes[static_cast<std::size_t>(dsym)];
      const std::size_t dist = de.base + br.get_bits(de.extra);
      if (dist > n) throw FormatError("distance reaches before start of output");
      make_room(len);
      std::byte* dst = out.data() + n;
      const std::byte* src = dst - dist;
      if (dist >= len) {
        std::memcpy(dst, src, len);
      } else {
        // Overlapped copy semantics: byte by byte from `dist` back.
        for (std::size_t i = 0; i < len; ++i) dst[i] = src[i];
      }
      n += len;
    }
  }
  out.resize(n);
  return out;
}

}  // namespace wck
