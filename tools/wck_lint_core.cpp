#include "wck_lint_core.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <tuple>

namespace wck::lint {
namespace {

[[nodiscard]] bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// A string literal found during blanking: `pos` is the offset of the
/// opening quote in the blanked text (same offsets as the original).
struct Literal {
  std::size_t pos = 0;
  std::string content;
};

/// Comment- and literal-blanked view of one file. Offsets and line
/// structure are identical to the input: comments become spaces
/// (newlines kept), string/char literal *contents* become spaces while
/// the quotes stay, so token searches cannot match inside either.
struct Scanned {
  std::string blank;
  std::vector<Literal> literals;
  std::vector<std::size_t> line_starts;  ///< offset of each line's first char
};

[[nodiscard]] int line_of(const Scanned& s, std::size_t pos) {
  const auto it = std::upper_bound(s.line_starts.begin(), s.line_starts.end(), pos);
  return static_cast<int>(it - s.line_starts.begin());
}

[[nodiscard]] Scanned preprocess(std::string_view text) {
  Scanned out;
  out.blank.assign(text.begin(), text.end());
  out.line_starts.push_back(0);
  const std::size_t n = text.size();
  auto blank_at = [&](std::size_t i) {
    if (out.blank[i] != '\n') out.blank[i] = ' ';
  };
  std::size_t i = 0;
  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      out.line_starts.push_back(i + 1);
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      while (i < n && text[i] != '\n') blank_at(i++);
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      blank_at(i++);
      blank_at(i++);
      while (i < n && !(text[i] == '*' && i + 1 < n && text[i + 1] == '/')) {
        if (text[i] == '\n') out.line_starts.push_back(i + 1);
        blank_at(i++);
      }
      if (i < n) {
        blank_at(i++);
        blank_at(i++);
      }
      continue;
    }
    if (c == 'R' && i + 1 < n && text[i + 1] == '"' &&
        (i == 0 || !is_ident(text[i - 1]))) {
      // Raw string literal: R"delim( ... )delim"
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && text[j] != '(') delim += text[j++];
      if (j >= n) break;  // malformed; stop scanning
      const std::string closer = ")" + delim + "\"";
      const std::size_t body = j + 1;
      const std::size_t end = text.find(closer, body);
      const std::size_t stop = end == std::string_view::npos ? n : end;
      out.literals.push_back({i + 1, std::string(text.substr(body, stop - body))});
      for (std::size_t k = body; k < stop; ++k) {
        if (text[k] == '\n') out.line_starts.push_back(k + 1);
        blank_at(k);
      }
      i = end == std::string_view::npos ? n : end + closer.size();
      continue;
    }
    if (c == '"') {
      const std::size_t open = i++;
      std::string content;
      while (i < n && text[i] != '"' && text[i] != '\n') {
        if (text[i] == '\\' && i + 1 < n) {
          content += text[i];
          blank_at(i++);
        }
        content += text[i];
        blank_at(i++);
      }
      out.literals.push_back({open, std::move(content)});
      if (i < n && text[i] == '"') ++i;
      continue;
    }
    if (c == '\'') {
      // Digit separator (1'000'000) is not a literal.
      if (i > 0 && i + 1 < n && is_ident(text[i - 1]) && is_ident(text[i + 1])) {
        ++i;
        continue;
      }
      ++i;
      while (i < n && text[i] != '\'' && text[i] != '\n') {
        if (text[i] == '\\' && i + 1 < n) blank_at(i++);
        blank_at(i++);
      }
      if (i < n && text[i] == '\'') ++i;
      continue;
    }
    ++i;
  }
  return out;
}

[[nodiscard]] std::size_t skip_spaces(const std::string& s, std::size_t i) {
  while (i < s.size() &&
         std::isspace(static_cast<unsigned char>(s[i])) != 0)
    ++i;
  return i;
}

/// Last non-whitespace offset strictly before `i`, or npos.
[[nodiscard]] std::size_t prev_sig(const std::string& s, std::size_t i) {
  while (i > 0) {
    --i;
    if (std::isspace(static_cast<unsigned char>(s[i])) == 0) return i;
  }
  return std::string::npos;
}

/// Offset just past the `)` matching the `(` at `open`, or npos.
[[nodiscard]] std::size_t match_forward(const std::string& s, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < s.size(); ++i) {
    if (s[i] == '(') ++depth;
    if (s[i] == ')' && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

/// Offset of the `(`/`[` matching the closer at `close`, or npos.
[[nodiscard]] std::size_t match_backward(const std::string& s, std::size_t close,
                                         char open_c, char close_c) {
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (s[i] == close_c) ++depth;
    if (s[i] == open_c && --depth == 0) return i;
  }
  return std::string::npos;
}

/// Walks a call chain backwards from the first char of the called name
/// (`io().submit` → start of `io`) and reports the significant char
/// before the whole chain ('\0' for start-of-file, '?' for anything the
/// scanner cannot decode — callers must then skip the site).
[[nodiscard]] char char_before_chain(const std::string& s, std::size_t name_start) {
  std::size_t pos = name_start;
  for (;;) {
    const std::size_t q = prev_sig(s, pos);
    if (q == std::string::npos) return '\0';
    std::size_t primary_end;  // last char of the receiver primary
    if (s[q] == '.' && (q == 0 || s[q - 1] != '.')) {
      primary_end = prev_sig(s, q);
    } else if (s[q] == '>' && q > 0 && s[q - 1] == '-') {
      primary_end = prev_sig(s, q - 1);
    } else if (s[q] == ':' && q > 0 && s[q - 1] == ':') {
      primary_end = prev_sig(s, q - 1);
    } else {
      return s[q];
    }
    if (primary_end == std::string::npos) return '?';
    // Step back over the receiver: ident, call (), or index [].
    std::size_t r = primary_end;
    if (s[r] == ')' || s[r] == ']') {
      const std::size_t open =
          match_backward(s, r, s[r] == ')' ? '(' : '[', s[r]);
      if (open == std::string::npos) return '?';
      const std::size_t before = prev_sig(s, open);
      if (before == std::string::npos) return '\0';
      r = before;
      if (!is_ident(s[r])) return s[r];  // e.g. `(a + b).submit(...)`
    }
    if (!is_ident(s[r])) return '?';
    while (r > 0 && is_ident(s[r - 1])) --r;
    pos = r;
  }
}

/// Word-bounded occurrences of `token` in `s`. Tokens may contain
/// punctuation ("std::mutex", ".counter"); the boundary check applies to
/// whichever end is an identifier char.
void for_each_token(const std::string& s, std::string_view token,
                    const std::function<void(std::size_t)>& fn) {
  std::size_t i = 0;
  while ((i = s.find(token, i)) != std::string::npos) {
    const bool left_ok =
        !is_ident(token.front()) || i == 0 || !is_ident(s[i - 1]);
    const std::size_t end = i + token.size();
    const bool right_ok =
        !is_ident(token.back()) || end >= s.size() || !is_ident(s[end]);
    if (left_ok && right_ok) fn(i);
    i += token.size();
  }
}

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

// ---------------------------------------------------------------- rules

/// R1 ignored-result: a call to one of these names in statement position
/// whose result falls on the floor. `(void)` casts and any expression
/// context (assignment, return, condition, argument) are consumed.
constexpr std::array<std::string_view, 9> kMustConsume = {
    "read_file", "remove_file", "exists",      "retrieve", "rank_alive",
    "xor_recover", "write_async", "submit",    "scrub"};

void rule_ignored_result(const std::string& rel, const Scanned& sc,
                         std::vector<Finding>& out) {
  for (const std::string_view name : kMustConsume) {
    for_each_token(sc.blank, name, [&](std::size_t pos) {
      const std::size_t open = skip_spaces(sc.blank, pos + name.size());
      if (open >= sc.blank.size() || sc.blank[open] != '(') return;
      const std::size_t after = match_forward(sc.blank, open);
      if (after == std::string::npos) return;
      const std::size_t next = skip_spaces(sc.blank, after);
      if (next >= sc.blank.size() || sc.blank[next] != ';') return;
      const char before = char_before_chain(sc.blank, pos);
      if (before != ';' && before != '{' && before != '}' && before != '\0') return;
      out.push_back({rel, line_of(sc, pos),
                     "result of " + std::string(name) +
                         "() is discarded; consume it or cast to (void)",
                     "ignored-result"});
    });
  }
}

/// R2 raw-file-io: file I/O primitives outside src/io/.
void rule_raw_file_io(const std::string& rel, const Scanned& sc,
                      std::vector<Finding>& out) {
  if (!starts_with(rel, "src/") || starts_with(rel, "src/io/")) return;
  constexpr std::array<std::string_view, 5> kTokens = {
      "std::ofstream", "std::ifstream", "std::fstream", "fopen", "::open"};
  for (const std::string_view token : kTokens) {
    for_each_token(sc.blank, token, [&](std::size_t pos) {
      if (token == "fopen" || token == "::open") {
        const std::size_t next = skip_spaces(sc.blank, pos + token.size());
        if (next >= sc.blank.size() || sc.blank[next] != '(') return;
      }
      out.push_back({rel, line_of(sc, pos),
                     "raw file I/O (" + std::string(token) +
                         ") outside src/io/; route through an IoBackend",
                     "raw-file-io"});
    });
  }
}

/// R3 naked-mutex: std synchronization primitives in src/ outside the
/// annotated wrappers.
void rule_naked_mutex(const std::string& rel, const Scanned& sc,
                      std::vector<Finding>& out) {
  if (!starts_with(rel, "src/") || rel == "src/util/thread_annotations.hpp") return;
  constexpr std::array<std::string_view, 9> kTokens = {
      "std::mutex",          "std::recursive_mutex",
      "std::shared_mutex",   "std::timed_mutex",
      "std::condition_variable", "std::condition_variable_any",
      "std::lock_guard",     "std::unique_lock",
      "std::scoped_lock"};
  for (const std::string_view token : kTokens) {
    for_each_token(sc.blank, token, [&](std::size_t pos) {
      out.push_back({rel, line_of(sc, pos),
                     "naked " + std::string(token) +
                         "; use the annotated wrappers in "
                         "src/util/thread_annotations.hpp",
                     "naked-mutex"});
    });
  }
}

/// True for a dotted.lowercase name, ^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$:
/// two or more non-empty '.'-separated segments of [a-z0-9_], the first
/// starting with a letter.
bool is_dotted_lowercase(std::string_view s) {
  if (s.empty() || s.front() < 'a' || s.front() > 'z') return false;
  std::size_t dots = 0;
  char prev = s.front();
  for (const char c : s.substr(1)) {
    if (c == '.') {
      if (prev == '.') return false;
      ++dots;
    } else if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) {
      return false;
    }
    prev = c;
  }
  return dots > 0 && prev != '.';
}

/// R4 metric-name: string-literal metric names must be dotted.lowercase.
void rule_metric_name(const std::string& rel, const Scanned& sc,
                      std::vector<Finding>& out) {
  constexpr std::array<std::string_view, 6> kSinks = {
      "WCK_COUNTER_ADD", "WCK_GAUGE_SET", "WCK_HISTOGRAM_RECORD",
      ".counter",        ".gauge",        ".histogram"};
  for (const std::string_view sink : kSinks) {
    for_each_token(sc.blank, sink, [&](std::size_t pos) {
      const std::size_t open = skip_spaces(sc.blank, pos + sink.size());
      if (open >= sc.blank.size() || sc.blank[open] != '(') return;
      const std::size_t arg = skip_spaces(sc.blank, open + 1);
      if (arg >= sc.blank.size() || sc.blank[arg] != '"') return;  // dynamic name
      // Only judge a literal that is the ENTIRE argument — a literal
      // prefix of a concatenation ("stage." + name) is a dynamic name.
      const std::size_t close = sc.blank.find('"', arg + 1);
      if (close == std::string::npos) return;
      const std::size_t after_lit = skip_spaces(sc.blank, close + 1);
      if (after_lit >= sc.blank.size() ||
          (sc.blank[after_lit] != ',' && sc.blank[after_lit] != ')'))
        return;
      const auto lit = std::find_if(sc.literals.begin(), sc.literals.end(),
                                    [&](const Literal& l) { return l.pos == arg; });
      if (lit == sc.literals.end()) return;
      if (is_dotted_lowercase(lit->content)) return;
      out.push_back({rel, line_of(sc, pos),
                     "metric name \"" + lit->content +
                         "\" is not dotted.lowercase",
                     "metric-name"});
    });
  }
}

/// R5 getenv: only src/util/env.hpp may call it.
void rule_getenv(const std::string& rel, const Scanned& sc,
                 std::vector<Finding>& out) {
  if (rel == "src/util/env.hpp") return;
  for_each_token(sc.blank, "getenv", [&](std::size_t pos) {
    const std::size_t next = skip_spaces(sc.blank, pos + 6);
    if (next >= sc.blank.size() || sc.blank[next] != '(') return;
    out.push_back({rel, line_of(sc, pos),
                   "getenv outside the env cache; use wck::env::get "
                   "(src/util/env.hpp)",
                   "getenv"});
  });
}

/// R6 raw-socket: socket syscalls outside src/net/. Everything above the
/// net layer talks frames/messages through UnixStream/UnixListener, so
/// connection teardown, EINTR handling, and lint-visible I/O confinement
/// all live in one place (mirroring R2's src/io/ contract).
void rule_raw_socket(const std::string& rel, const Scanned& sc,
                     std::vector<Finding>& out) {
  if (starts_with(rel, "src/net/")) return;
  constexpr std::array<std::string_view, 6> kCalls = {"socket", "bind",    "connect",
                                                      "accept", "accept4", "listen"};
  for (const std::string_view name : kCalls) {
    for_each_token(sc.blank, name, [&](std::size_t pos) {
      const std::size_t open = skip_spaces(sc.blank, pos + name.size());
      if (open >= sc.blank.size() || sc.blank[open] != '(') return;
      // The syscall is a free function: bare `connect(...)` or the
      // global-scope `::connect(...)`. Member calls (sig.connect(...))
      // and class-qualified names (std::bind, UnixStream::connect_to)
      // are someone else's connect.
      if (pos >= 2 && sc.blank[pos - 1] == ':' && sc.blank[pos - 2] == ':') {
        if (pos >= 3 && is_ident(sc.blank[pos - 3])) return;  // A::name(...)
      } else {
        const std::size_t before = prev_sig(sc.blank, pos);
        // Member calls (x.connect), other qualifications, and
        // declarations (`StoreClient connect(...)` — preceded by an
        // identifier) are not the syscall. Favors false negatives
        // (`return connect(...)`) over flagging every method named like
        // one, per the scanner's philosophy.
        if (before != std::string::npos &&
            (sc.blank[before] == '.' || sc.blank[before] == '>' ||
             sc.blank[before] == ':' || is_ident(sc.blank[before]))) {
          return;
        }
      }
      out.push_back({rel, line_of(sc, pos),
                     "raw socket call " + std::string(name) +
                         "() outside src/net/; use UnixStream/UnixListener "
                         "(src/net/socket.hpp)",
                     "raw-socket"});
    });
  }
}

/// R7 raw-simd: intrinsics headers outside src/simd/. Vector code lives
/// behind the runtime-dispatched kernel table so every kernel is
/// bit-identity-tested against the scalar reference and forcible to
/// scalar via WCK_SIMD; a stray `#include <immintrin.h>` elsewhere
/// escapes both. Catches the angle form in the blanked text and the
/// (unconventional) quoted form via the recorded literal contents.
void rule_raw_simd(const std::string& rel, const Scanned& sc,
                   std::vector<Finding>& out) {
  // src/simd/ is the sanctioned home; this file holds the header-name
  // table itself (string literals that would self-flag, like R5's
  // sanctioned-caller exemption for env.hpp).
  if (starts_with(rel, "src/simd/") || rel == "tools/wck_lint_core.cpp") return;
  constexpr std::array<std::string_view, 14> kHeaders = {
      "immintrin.h", "emmintrin.h", "xmmintrin.h", "pmmintrin.h",
      "tmmintrin.h", "smmintrin.h", "nmmintrin.h", "ammintrin.h",
      "wmmintrin.h", "avxintrin.h", "avx2intrin.h", "x86intrin.h",
      "arm_neon.h",  "arm_sve.h"};
  auto flag = [&](std::string_view header, std::size_t pos) {
    out.push_back({rel, line_of(sc, pos),
                   "raw SIMD intrinsics header " + std::string(header) +
                       " outside src/simd/; call through the dispatch "
                       "table (src/simd/dispatch.hpp)",
                   "raw-simd"});
  };
  for (const std::string_view header : kHeaders) {
    for_each_token(sc.blank, header, [&](std::size_t pos) { flag(header, pos); });
    for (const Literal& lit : sc.literals) {
      if (lit.content == header) flag(header, lit.pos);
    }
  }
}

}  // namespace

std::string format(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": " + f.message + " [" +
         f.rule + "]";
}

std::vector<Finding> scan_file(const std::string& rel_path, std::string_view text) {
  const Scanned sc = preprocess(text);
  std::vector<Finding> out;
  rule_ignored_result(rel_path, sc, out);
  rule_raw_file_io(rel_path, sc, out);
  rule_naked_mutex(rel_path, sc, out);
  rule_metric_name(rel_path, sc, out);
  rule_getenv(rel_path, sc, out);
  rule_raw_socket(rel_path, sc, out);
  rule_raw_simd(rel_path, sc, out);
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.line, a.rule, a.message) < std::tie(b.line, b.rule, b.message);
  });
  return out;
}

std::vector<Finding> scan_tree(const std::filesystem::path& root) {
  std::vector<Finding> out;
  for (const char* top : {"src", "tools", "bench"}) {
    const std::filesystem::path dir = root / top;
    if (!std::filesystem::is_directory(dir)) continue;
    for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp" && ext != ".h") continue;
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      const std::string rel =
          std::filesystem::relative(entry.path(), root).generic_string();
      std::vector<Finding> file_findings = scan_file(rel, buf.str());
      out.insert(out.end(), std::make_move_iterator(file_findings.begin()),
                 std::make_move_iterator(file_findings.end()));
    }
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  });
  return out;
}

std::set<std::string> load_baseline(const std::filesystem::path& path) {
  std::set<std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    const std::size_t last = line.find_last_not_of(" \t\r");
    out.insert(line.substr(first, last - first + 1));
  }
  return out;
}

}  // namespace wck::lint
