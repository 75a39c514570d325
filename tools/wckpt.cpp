// wckpt — command-line front end for the lossy checkpoint compressor.
//
// Subcommands:
//   gen        --shape=AxBxC --out=FILE [--seed=N] [--kind=temperature|smooth|random]
//              Writes a deterministic synthetic field as raw little-endian doubles.
//   compress   --in=FILE --shape=AxBxC --out=FILE [--quantizer=spike|simple]
//              [--n=128] [--d=64] [--levels=1] [--entropy=deflate|gzip-file|none]
//              [--threads=N] [--block-size=BYTES]
//              Compresses a raw double file with the paper's pipeline.
//              --threads=N (or WCK_THREADS) sets the entropy-stage
//              worker count; see src/deflate/parallel.hpp.
//   decompress --in=FILE --out=FILE
//              Restores raw doubles from a compressed stream.
//   info       --in=FILE
//              Prints shape/parameters/sizes of a compressed stream.
//   verify     --in=FILE --original=FILE [--max-mean-rel=PCT]
//              Decompresses and reports Eq. 5/6 metrics vs the original.
//              Exits 1 when --max-mean-rel is given and exceeded.
//   roundtrip  --in=FILE --shape=AxBxC [compress flags] [--out=FILE]
//              Compress + restore + error metrics in one process — the
//              full paper pipeline in a single telemetry report.
//   analyze    --in=COMPRESSED --original=FILE [--d=64] [--name=VAR] [--out=FILE]
//              Per-band quality analysis of a compressed stream against
//              its original: both are wavelet-transformed with the
//              stream's own parameters, every high-frequency band gets
//              error stats + PSNR + quantized fraction, and the spike
//              partition occupancy is re-derived. --json emits the
//              standalone "wck-quality-report" document.
//   soak       --dir=DIR [--cycles=1000] [--shape=32x32] [--keep=3]
//              [--codec=null|gzip|wavelet|fpc] [--fault-plan=SPEC]
//              [--seed=N] [--verify-every=1] [--scrub-every=0]
//              Runs N checkpoint/restart cycles through the resilient
//              CheckpointManager under a fault plan (--fault-plan or
//              WCK_FAULT_PLAN), verifying every restore bit-identical
//              against the committed state for the generation that
//              actually restored. Exits 1 on any silent wrong restore.
//
// Telemetry flags (every subcommand):
//   --json             emit the RunReport as JSON on stdout instead of text
//                      (for analyze: the quality report document)
//   --telemetry=FILE   also write the RunReport JSON to FILE
//   --trace=FILE       write a chrome://tracing span dump to FILE
//   --events=FILE      dump the flight-recorder event log as JSONL to FILE
//   --expose=DIR[,MS]  periodically write metrics.prom + events.jsonl to
//                      DIR every MS milliseconds (default 1000) while
//                      the command runs
//
// Both the text and --json paths render the same RunReport aggregate,
// so they can never disagree about the numbers.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/manager.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "core/compressor.hpp"
#include "core/synthetic.hpp"
#include "io/fault_injection.hpp"
#include "quality/quality.hpp"
#include "simd/dispatch.hpp"
#include "stats/error_metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wck::tool {
namespace {

constexpr const char kUsageText[] =
    "usage: wckpt <command> [--key=value ...]\n"
    "  gen        --shape=AxBxC --out=FILE [--seed=N] [--kind=temperature]\n"
    "  compress   --in=FILE --shape=AxBxC --out=FILE [--quantizer=spike|simple]\n"
    "             [--n=128] [--d=64] [--levels=1] [--entropy=deflate|gzip-file|none]\n"
    "             [--threads=N] [--block-size=BYTES]\n"
    "  decompress --in=FILE --out=FILE\n"
    "  info       --in=FILE\n"
    "  verify     --in=FILE --original=FILE [--max-mean-rel=PCT]\n"
    "  roundtrip  --in=FILE --shape=AxBxC [compress flags] [--out=FILE]\n"
    "  analyze    --in=COMPRESSED --original=FILE [--d=64] [--name=VAR] [--out=FILE]\n"
    "  soak       --dir=DIR [--cycles=1000] [--shape=32x32] [--keep=3]\n"
    "             [--codec=null|gzip|wavelet|fpc] [--fault-plan=SPEC]\n"
    "             [--seed=N] [--verify-every=1] [--scrub-every=0] [--threads=N]\n"
    "             [--server --clients=N --tenants=N --quota=BYTES\n"
    "              --max-inflight=N --admission=block|reject --slow-ms=MS\n"
    "              --kill-every=CYCLES --client-retries=N --client-timeout-ms=MS]\n"
    "             --kill-every > 0 runs the server as a child process and\n"
    "             SIGKILLs + restarts it every CYCLES completed client\n"
    "             cycles, checking startup recovery and the quota ledger\n"
    "             (stat vs a local directory scan) after each restart.\n"
    "  serve      --socket=PATH --root=DIR [--keep=3] [--quota=BYTES]\n"
    "             [--max-inflight=8] [--admission=block|reject]\n"
    "             [--codec=null|gzip|wavelet|fpc] [--fault-plan=SPEC]\n"
    "             [--read-timeout-ms=30000] [--idle-timeout-ms=120000]\n"
    "             [--write-timeout-ms=30000] [--drain-timeout-ms=5000]\n"
    "             [--slow-ms=1000]\n"
    "             SIGTERM/SIGINT drain gracefully: in-flight requests\n"
    "             finish, telemetry flushes, then the process exits 0.\n"
    "             With --expose=DIR the drain writes a final metrics +\n"
    "             slow-request snapshot into DIR before exiting.\n"
    "  put        --socket=PATH --tenant=NAME --step=N\n"
    "             (--in=FILE --shape=AxBxC | --shape=AxBxC [--seed=N])\n"
    "  get        --socket=PATH --tenant=NAME [--out=FILE]\n"
    "  stat       --socket=PATH [--tenant=NAME]\n"
    "             Reports per-tenant health: quarantined generations,\n"
    "             scrub age, last error kind, quota utilization.\n"
    "  top        --socket=PATH [--interval-ms=1000] [--iterations=0]\n"
    "             [--expose-dir=DIR] [--plain]\n"
    "             Refreshing per-tenant table: generations, quota use,\n"
    "             health, and — with --expose-dir pointed at the\n"
    "             server's --expose directory — puts/s and p95 put\n"
    "             latency from the metrics snapshot. --iterations=0\n"
    "             polls until SIGINT/SIGTERM.\n"
    "  shutdown   --socket=PATH\n"
    "common:      [--json] [--telemetry=FILE] [--trace=FILE] [--events=FILE]\n"
    "             [--expose=DIR[,MS]] [--slow-ms=1000]\n"
    "             [--client-retries=N] [--client-timeout-ms=MS]\n";

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fputs(kUsageText, stderr);
  std::exit(2);
}

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) usage(("unexpected argument: " + arg).c_str());
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      flags[arg] = "1";  // bare boolean flag, e.g. --json
    } else {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  return flags;
}

std::string require(const std::map<std::string, std::string>& flags, const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) usage(("missing required flag --" + key).c_str());
  return it->second;
}

std::string get_or(const std::map<std::string, std::string>& flags, const std::string& key,
                   const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

Shape parse_shape(const std::string& text) {
  std::vector<std::size_t> extents;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const auto x = text.find('x', pos);
    const std::string part = text.substr(pos, x == std::string::npos ? x : x - pos);
    const long v = std::strtol(part.c_str(), nullptr, 10);
    if (v <= 0) usage(("bad shape component: " + part).c_str());
    extents.push_back(static_cast<std::size_t>(v));
    if (x == std::string::npos) break;
    pos = x + 1;
  }
  if (extents.empty() || extents.size() > kMaxRank) usage("shape must have rank 1..4");
  Shape s = Shape::of_rank(extents.size());
  for (std::size_t a = 0; a < extents.size(); ++a) s[a] = extents[a];
  return s;
}

Bytes read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) throw IoError("cannot open " + path);
  const std::streamsize size = f.tellg();
  f.seekg(0);
  Bytes data(static_cast<std::size_t>(size));
  f.read(reinterpret_cast<char*>(data.data()), size);
  if (!f) throw IoError("read failed: " + path);
  return data;
}

void write_file(const std::string& path, std::span<const std::byte> data) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw IoError("cannot open " + path + " for writing");
  f.write(reinterpret_cast<const char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  if (!f) throw IoError("write failed: " + path);
}

NdArray<double> read_raw_array(const std::string& path, const Shape& shape) {
  const Bytes data = read_file(path);
  if (data.size() != shape.size() * sizeof(double)) {
    throw InvalidArgumentError(path + " holds " + std::to_string(data.size()) +
                               " bytes but shape " + shape.to_string() + " needs " +
                               std::to_string(shape.size() * sizeof(double)));
  }
  std::vector<double> values(shape.size());
  std::memcpy(values.data(), data.data(), data.size());
  return NdArray<double>(shape, std::move(values));
}

CompressionParams params_from_flags(const std::map<std::string, std::string>& flags) {
  CompressionParams p;
  const std::string q = get_or(flags, "quantizer", "spike");
  if (q == "spike" || q == "proposed") {
    p.quantizer.kind = QuantizerKind::kSpike;
  } else if (q == "simple") {
    p.quantizer.kind = QuantizerKind::kSimple;
  } else {
    usage(("unknown quantizer: " + q).c_str());
  }
  p.quantizer.divisions = static_cast<int>(std::strtol(get_or(flags, "n", "128").c_str(), nullptr, 10));
  p.quantizer.spike_partitions =
      static_cast<int>(std::strtol(get_or(flags, "d", "64").c_str(), nullptr, 10));
  p.wavelet_levels =
      static_cast<int>(std::strtol(get_or(flags, "levels", "1").c_str(), nullptr, 10));
  const std::string e = get_or(flags, "entropy", "deflate");
  if (e == "deflate") {
    p.entropy = EntropyMode::kDeflate;
  } else if (e == "gzip-file") {
    p.entropy = EntropyMode::kTempFileGzip;
  } else if (e == "none") {
    p.entropy = EntropyMode::kNone;
  } else {
    usage(("unknown entropy mode: " + e).c_str());
  }
  // --threads=N sets the entropy-stage worker count (the default 0
  // defers to WCK_THREADS; the output bytes never depend on it).
  // --block-size caps the WCKP segment length in payload bytes.
  p.threads = static_cast<int>(std::strtol(get_or(flags, "threads", "0").c_str(), nullptr, 10));
  const long block_size = std::strtol(get_or(flags, "block-size", "0").c_str(), nullptr, 10);
  if (block_size < 0) usage("--block-size must be >= 1");
  if (block_size > 0) p.deflate_block_size = static_cast<std::size_t>(block_size);
  return p;
}

void report_params_from_flags(const std::map<std::string, std::string>& flags,
                              telemetry::RunReport& report) {
  for (const char* key : {"shape", "quantizer", "n", "d", "levels", "entropy", "threads",
                          "block-size", "in", "out", "original", "kind", "seed", "dir", "keep",
                          "verify-every", "scrub-every", "socket", "root", "tenant", "step",
                          "quota", "max-inflight", "admission", "clients", "tenants", "cycles"}) {
    const auto it = flags.find(key);
    if (it != flags.end()) report.params[key] = it->second;
  }
  // Every report records which kernel dispatch level processed the data
  // (bit-identical across levels, but essential context for timing).
  report.params["simd_level"] = simd::to_string(simd::active_level());
}

/// The checkpoint-codec chooser shared by soak and serve: any registry
/// codec works behind the manager, the store service, and the soak
/// verifier, because all three only see encode()/decode().
std::unique_ptr<Codec> make_codec(const std::string& name,
                                  const std::map<std::string, std::string>& flags) {
  if (name == "null") return std::make_unique<NullCodec>();
  if (name == "gzip") return std::make_unique<GzipCodec>();
  if (name == "wavelet") {
    CompressionParams p;
    p.quantizer.divisions = 128;
    p.threads =
        static_cast<int>(std::strtol(get_or(flags, "threads", "0").c_str(), nullptr, 10));
    return std::make_unique<WaveletLossyCodec>(p);
  }
  if (name == "fpc") return std::make_unique<FpcCodec>();
  usage(("unknown codec: " + name).c_str());
}

void fill_error_summary(const ErrorStats& err, telemetry::RunReport& report) {
  report.has_error_metrics = true;
  report.error.mean_rel = err.mean_rel;
  report.error.max_rel = err.max_rel;
  report.error.max_abs = err.max_abs;
  report.error.rmse = err.rmse;
  report.error.psnr = err.psnr;
  report.error.count = err.count;
}

/// Single exit path for every subcommand: snapshots global telemetry
/// into the report, renders it (text or --json), and writes the
/// optional --telemetry / --trace files.
void finish_run(const std::map<std::string, std::string>& flags, telemetry::RunReport& report) {
  report.capture_global();
  if (flags.count("json") != 0) {
    std::printf("%s\n", report.to_json_text().c_str());
  } else {
    std::fputs(report.to_text().c_str(), stdout);
  }
  const auto telemetry_path = flags.find("telemetry");
  if (telemetry_path != flags.end()) {
    telemetry::write_text_file(telemetry_path->second, report.to_json_text() + "\n");
  }
  const auto trace_path = flags.find("trace");
  if (trace_path != flags.end()) {
    telemetry::write_text_file(trace_path->second,
                               telemetry::Tracer::global().chrome_trace_json() + "\n");
  }
  const auto events_path = flags.find("events");
  if (events_path != flags.end()) {
    telemetry::EventLog::global().dump_to_file(events_path->second);
  }
}

/// The store subcommands (put/get/stat/shutdown) print their own
/// one-line result instead of a RunReport, but still honor the
/// file-writing observability flags — --trace in particular, so a
/// single `wckpt put --trace=F` leaves a client span that
/// tools/merge_traces.py can correlate with the server's stream.
void write_observability_files(const std::map<std::string, std::string>& flags) {
  const auto trace_path = flags.find("trace");
  if (trace_path != flags.end()) {
    telemetry::write_text_file(trace_path->second,
                               telemetry::Tracer::global().chrome_trace_json() + "\n");
  }
  const auto events_path = flags.find("events");
  if (events_path != flags.end()) {
    telemetry::EventLog::global().dump_to_file(events_path->second);
  }
}

int cmd_gen(const std::map<std::string, std::string>& flags) {
  const Shape shape = parse_shape(require(flags, "shape"));
  const auto seed =
      static_cast<std::uint64_t>(std::strtoll(get_or(flags, "seed", "2015").c_str(), nullptr, 10));
  const std::string kind = get_or(flags, "kind", "temperature");
  NdArray<double> field;
  if (kind == "temperature") {
    field = make_temperature_field(shape, seed);
  } else if (kind == "smooth") {
    field = make_smooth_field(shape, seed);
  } else if (kind == "random") {
    field = make_random_field(shape, seed);
  } else {
    usage(("unknown field kind: " + kind).c_str());
  }
  write_file(require(flags, "out"), std::as_bytes(field.values()));

  telemetry::RunReport report;
  report.tool = "wckpt gen";
  report_params_from_flags(flags, report);
  report.original_bytes = field.size_bytes();
  report.compressed_bytes = field.size_bytes();
  finish_run(flags, report);
  return 0;
}

int cmd_compress(const std::map<std::string, std::string>& flags) {
  const Shape shape = parse_shape(require(flags, "shape"));
  const NdArray<double> field = read_raw_array(require(flags, "in"), shape);
  const WaveletCompressor compressor(params_from_flags(flags));
  const CompressedArray comp = compressor.compress(field);
  write_file(require(flags, "out"), comp.data);

  telemetry::RunReport report;
  report.tool = "wckpt compress";
  report_params_from_flags(flags, report);
  report.original_bytes = comp.original_bytes;
  report.compressed_bytes = comp.data.size();
  report.payload_bytes = comp.payload_bytes;
  finish_run(flags, report);
  return 0;
}

int cmd_decompress(const std::map<std::string, std::string>& flags) {
  const Bytes data = read_file(require(flags, "in"));
  const NdArray<double> field = WaveletCompressor::decompress(data);
  write_file(require(flags, "out"), std::as_bytes(field.values()));

  telemetry::RunReport report;
  report.tool = "wckpt decompress";
  report_params_from_flags(flags, report);
  report.params["shape"] = field.shape().to_string();
  report.original_bytes = field.size_bytes();
  report.compressed_bytes = data.size();
  finish_run(flags, report);
  return 0;
}

int cmd_info(const std::map<std::string, std::string>& flags) {
  const std::string path = require(flags, "in");
  const Bytes data = read_file(path);
  const NdArray<double> field = WaveletCompressor::decompress(data);

  telemetry::RunReport report;
  report.tool = "wckpt info";
  report_params_from_flags(flags, report);
  report.params["shape"] = field.shape().to_string();
  report.original_bytes = field.size_bytes();
  report.compressed_bytes = data.size();
  finish_run(flags, report);
  return 0;
}

int cmd_verify(const std::map<std::string, std::string>& flags) {
  const Bytes data = read_file(require(flags, "in"));
  const NdArray<double> restored = WaveletCompressor::decompress(data);
  const NdArray<double> original =
      read_raw_array(require(flags, "original"), restored.shape());
  const ErrorStats err = relative_error(original.values(), restored.values());

  telemetry::RunReport report;
  report.tool = "wckpt verify";
  report_params_from_flags(flags, report);
  report.params["shape"] = restored.shape().to_string();
  report.original_bytes = original.size_bytes();
  report.compressed_bytes = data.size();
  fill_error_summary(err, report);
  finish_run(flags, report);

  // Exit code matches the report: with a bound given, exceeding it is a
  // failure (previously the text always reported success via exit 0).
  const auto bound = flags.find("max-mean-rel");
  if (bound != flags.end()) {
    const double limit_pct = std::strtod(bound->second.c_str(), nullptr);
    if (err.mean_rel_percent() > limit_pct) {
      std::fprintf(stderr, "wckpt: mean relative error %.6f %% exceeds bound %.6f %%\n",
                   err.mean_rel_percent(), limit_pct);
      return 1;
    }
  }
  return 0;
}

int cmd_roundtrip(const std::map<std::string, std::string>& flags) {
  const Shape shape = parse_shape(require(flags, "shape"));
  const NdArray<double> field = read_raw_array(require(flags, "in"), shape);
  WaveletCompressor compressor(params_from_flags(flags));

  // Per-band quality capture rides along on the compress pass.
  quality::QualityProbe probe("array");
  if (telemetry::enabled()) compressor.attach_observer(&probe);

  const CompressedArray comp = compressor.compress(field);
  const NdArray<double> restored = WaveletCompressor::decompress(comp.data);
  const ErrorStats err = relative_error(field.values(), restored.values());

  const auto out = flags.find("out");
  if (out != flags.end()) write_file(out->second, comp.data);

  telemetry::RunReport report;
  report.tool = "wckpt roundtrip";
  report_params_from_flags(flags, report);
  report.original_bytes = comp.original_bytes;
  report.compressed_bytes = comp.data.size();
  report.payload_bytes = comp.payload_bytes;
  fill_error_summary(err, report);
  if (!probe.variables().empty()) {
    quality::QualityReport qr = probe.take_report();
    qr.variables[0].compressed_bytes = comp.data.size();
    qr.variables[0].bits_per_value =
        8.0 * static_cast<double>(comp.data.size()) / static_cast<double>(field.size());
    qr.variables[0].has_value_error = true;
    qr.variables[0].value_error = err;
    report.quality = qr.to_json();
  }
  finish_run(flags, report);
  return 0;
}

/// Standalone quality analysis: the compressed stream is self-
/// describing, so the transform/quantizer parameters come from the
/// stream itself; only the spike-partition count `d` (not serialized —
/// decompression never needs it) falls back to the --d flag.
int cmd_analyze(const std::map<std::string, std::string>& flags) {
  const Bytes data = read_file(require(flags, "in"));
  const StreamInfo info = WaveletCompressor::inspect(data);
  const NdArray<double> restored = WaveletCompressor::decompress(data);
  const NdArray<double> original =
      read_raw_array(require(flags, "original"), info.shape);

  CompressionParams p;
  p.wavelet_levels = info.levels;
  p.wavelet = info.wavelet;
  p.quantizer.kind = info.quantizer;
  // Effective n is the serialized averages-table size; classification
  // (quantized vs exact) depends only on the spike detection, so a
  // degenerate table does not skew the quantized fractions.
  p.quantizer.divisions =
      static_cast<int>(std::min<std::size_t>(std::max<std::size_t>(info.averages_count, 1), 256));
  p.quantizer.spike_partitions =
      static_cast<int>(std::strtol(get_or(flags, "d", "64").c_str(), nullptr, 10));

  quality::QualityReport qr;
  qr.variables.push_back(quality::analyze_pair(original, restored, p,
                                               get_or(flags, "name", "array"), data.size()));

  telemetry::RunReport report;
  report.tool = "wckpt analyze";
  report_params_from_flags(flags, report);
  report.params["shape"] = info.shape.to_string();
  report.original_bytes = original.size_bytes();
  report.compressed_bytes = data.size();
  report.payload_bytes = info.payload_bytes;
  fill_error_summary(qr.variables[0].value_error, report);
  report.quality = qr.to_json();
  report.capture_global();

  // The primary artifact is the quality document itself; the RunReport
  // (with the same document embedded) still goes to --telemetry.
  if (flags.count("json") != 0) {
    std::printf("%s\n", qr.to_json_text().c_str());
  } else {
    std::fputs(qr.to_text().c_str(), stdout);
  }
  const auto out = flags.find("out");
  if (out != flags.end()) {
    telemetry::write_text_file(out->second, qr.to_json_text() + "\n");
  }
  const auto telemetry_path = flags.find("telemetry");
  if (telemetry_path != flags.end()) {
    telemetry::write_text_file(telemetry_path->second, report.to_json_text() + "\n");
  }
  const auto trace_path = flags.find("trace");
  if (trace_path != flags.end()) {
    telemetry::write_text_file(trace_path->second,
                               telemetry::Tracer::global().chrome_trace_json() + "\n");
  }
  const auto events_path = flags.find("events");
  if (events_path != flags.end()) {
    telemetry::EventLog::global().dump_to_file(events_path->second);
  }
  return 0;
}

/// The soak harness: N deterministic checkpoint/restart cycles through
/// the resilient CheckpointManager under an injected fault plan. The
/// invariant it enforces is the resilience contract itself — a restore
/// either reproduces, bit for bit, the committed state of the
/// generation it reports restoring (possibly an older generation or the
/// parity tier: documented degradation), or it fails loudly. A restore
/// that "succeeds" with different bytes is silent data loss and fails
/// the run.
int cmd_soak_server(const std::map<std::string, std::string>& flags);

int cmd_soak(const std::map<std::string, std::string>& flags) {
  if (flags.count("server") != 0) return cmd_soak_server(flags);
  const std::filesystem::path dir = require(flags, "dir");
  const auto cycles =
      static_cast<std::uint64_t>(std::strtoll(get_or(flags, "cycles", "1000").c_str(), nullptr, 10));
  const Shape shape = parse_shape(get_or(flags, "shape", "32x32"));
  const auto keep = static_cast<std::size_t>(
      std::strtoll(get_or(flags, "keep", "3").c_str(), nullptr, 10));
  const auto seed =
      static_cast<std::uint64_t>(std::strtoll(get_or(flags, "seed", "2015").c_str(), nullptr, 10));
  const auto verify_every = static_cast<std::uint64_t>(
      std::strtoll(get_or(flags, "verify-every", "1").c_str(), nullptr, 10));
  const auto scrub_every = static_cast<std::uint64_t>(
      std::strtoll(get_or(flags, "scrub-every", "0").c_str(), nullptr, 10));

  const std::string codec_name = get_or(flags, "codec", "null");
  const std::unique_ptr<Codec> codec = make_codec(codec_name, flags);

  const std::string plan_spec = get_or(flags, "fault-plan", "");
  const FaultPlan plan =
      plan_spec.empty() ? FaultPlan::from_env() : FaultPlan::parse(plan_spec);
  FaultInjectingBackend fault_io(plan, posix_backend());
  IoBackend& io = plan.empty() ? static_cast<IoBackend&>(posix_backend()) : fault_io;

  std::filesystem::create_directories(dir);

  CheckpointManager::Options options;
  options.keep_generations = keep;
  options.retry.sleep_between_attempts = false;  // keep 1000-cycle soaks fast
  CheckpointManager manager(dir, *codec, options, &io);

  // Peer-memory parity tier: the manager mirrors every committed payload
  // into rank 0 of a two-rank group, so when every on-disk generation is
  // corrupted the restore chain ends at the in-memory copy instead of
  // data loss.
  InMemoryCheckpointStore parity_store(2, 2);
  manager.attach_parity_store(&parity_store, 0);

  NdArray<double> state = make_smooth_field(shape, seed);
  CheckpointRegistry registry;
  registry.add("state", &state);

  // Bit-exact committed images, keyed by step, for every generation the
  // restore chain could legitimately land on.
  std::map<std::uint64_t, std::vector<double>> committed;

  std::uint64_t commits = 0;
  std::uint64_t write_failures = 0;
  std::uint64_t restores = 0;
  std::uint64_t fallback_restores = 0;
  std::uint64_t parity_restores = 0;
  std::uint64_t restore_failures = 0;
  std::uint64_t silent_mismatches = 0;
  std::uint64_t unverifiable = 0;
  quality::DriftTracker drift;

  for (std::uint64_t cycle = 1; cycle <= cycles; ++cycle) {
    // Deterministic state evolution: the soak is replayable from seed.
    Xoshiro256 evolve(seed ^ (cycle * 0x9E3779B97F4A7C15ull));
    for (double& v : state.values()) v += evolve.uniform(-0.01, 0.01);

    try {
      (void)manager.write(registry, cycle);
      ++commits;
      // What a restore of this generation must reproduce: the codec's
      // round-trip of the state (identity for lossless codecs).
      NdArray<double> expected = codec->decode(codec->encode(state));
      // Cross-cycle drift of the codec's own error (zero for lossless
      // codecs): does repeated evolution push the data somewhere the
      // lossy pipeline handles worse?
      if (telemetry::enabled()) {
        drift.record(cycle, relative_error(state.values(), expected.values()));
      }
      WCK_EVENT(kSoakCycle, cycle, "committed");
      committed[cycle] = std::vector<double>(expected.values().begin(),
                                             expected.values().end());
      // Keep images for every generation still on disk (plus slack for
      // quarantined-then-refilled windows).
      while (committed.size() > keep + 2) committed.erase(committed.begin());
    } catch (const IoError&) {
      ++write_failures;  // loud: retries exhausted, counted as a giveup
    }

    if (verify_every > 0 && cycle % verify_every == 0 && commits > 0) {
      NdArray<double> scratch;
      CheckpointRegistry verify_reg;
      verify_reg.add("state", &scratch);
      try {
        const RestoreOutcome outcome = manager.restore(verify_reg);
        ++restores;
        if (outcome.source == RestoreSource::kOlderGeneration) ++fallback_restores;
        if (outcome.source == RestoreSource::kParity) ++parity_restores;
        const auto it = committed.find(outcome.step);
        if (it == committed.end()) {
          ++unverifiable;  // restored a generation older than our window
        } else if (scratch.size() != it->second.size() ||
                   std::memcmp(scratch.values().data(), it->second.data(),
                               it->second.size() * sizeof(double)) != 0) {
          ++silent_mismatches;
          WCK_EVENT(kSoakVerifyFailed, cycle,
                    "restore reported step " + std::to_string(outcome.step) + " (" +
                        restore_source_name(outcome.source) + ") with wrong bytes");
          std::fprintf(stderr,
                       "soak: cycle %llu SILENT MISMATCH — restore reported step %llu "
                       "(%s) but bytes differ from committed state\n",
                       static_cast<unsigned long long>(cycle),
                       static_cast<unsigned long long>(outcome.step),
                       restore_source_name(outcome.source));
        }
      } catch (const Error&) {
        ++restore_failures;  // loud: the chain reported unrestorable
      }
    }

    if (scrub_every > 0 && cycle % scrub_every == 0) {
      try {
        (void)manager.scrub();
      } catch (const Error&) {
        // Scrub I/O trouble is non-fatal; the next restore still guards.
      }
    }
  }

  WCK_COUNTER_ADD("soak.cycles", cycles);
  WCK_COUNTER_ADD("soak.commits", commits);
  WCK_COUNTER_ADD("soak.write_failures", write_failures);
  WCK_COUNTER_ADD("soak.restores", restores);
  WCK_COUNTER_ADD("soak.fallback_restores", fallback_restores);
  WCK_COUNTER_ADD("soak.parity_restores", parity_restores);
  WCK_COUNTER_ADD("soak.restore_failures", restore_failures);
  WCK_COUNTER_ADD("soak.unverifiable_restores", unverifiable);
  WCK_COUNTER_ADD("soak.silent_mismatches", silent_mismatches);
  WCK_COUNTER_ADD("soak.faults_injected", fault_io.fault_count());

  telemetry::RunReport report;
  report.tool = "wckpt soak";
  report_params_from_flags(flags, report);
  report.params["codec"] = codec_name;
  report.params["fault_plan"] =
      plan_spec.empty() ? env::get("WCK_FAULT_PLAN").value_or("") : plan_spec;
  report.params["cycles"] = std::to_string(cycles);
  if (drift.cycles() > 0) {
    quality::QualityReport qr;
    qr.drift = drift.to_json();
    report.quality = qr.to_json();
  }
  finish_run(flags, report);

  // A failed soak dumps its flight recorder next to the checkpoint
  // directory: the post-mortem needs the event sequence (faults, retries,
  // fallbacks) leading up to the failure, not just the aggregates.
  const bool failed = silent_mismatches > 0 || commits == 0;
  if (failed && telemetry::enabled()) {
    const std::filesystem::path recorder = dir / "flight-recorder.jsonl";
    try {
      telemetry::EventLog::global().dump_to_file(recorder.string());
      std::fprintf(stderr, "soak: flight recorder dumped to %s\n",
                   recorder.string().c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "soak: flight recorder dump failed: %s\n", e.what());
    }
  }

  std::fprintf(stderr,
               "soak: %llu cycles, %llu commits (%llu write giveups), %llu restores "
               "(%llu fallback, %llu parity, %llu failed, %llu unverifiable), "
               "%llu faults injected, %llu silent mismatches\n",
               static_cast<unsigned long long>(cycles),
               static_cast<unsigned long long>(commits),
               static_cast<unsigned long long>(write_failures),
               static_cast<unsigned long long>(restores),
               static_cast<unsigned long long>(fallback_restores),
               static_cast<unsigned long long>(parity_restores),
               static_cast<unsigned long long>(restore_failures),
               static_cast<unsigned long long>(unverifiable),
               static_cast<unsigned long long>(fault_io.fault_count()),
               static_cast<unsigned long long>(silent_mismatches));

  if (silent_mismatches > 0) return 1;
  if (commits == 0) {
    std::fprintf(stderr, "soak: no cycle ever committed — nothing was demonstrated\n");
    return 1;
  }
  return 0;
}

/// Shared by `serve` and `soak --server`: store-service knobs from flags.
server::CheckpointService::Options service_options_from_flags(
    const std::map<std::string, std::string>& flags, const std::filesystem::path& root) {
  server::CheckpointService::Options opts;
  opts.root = root;
  opts.keep_generations = static_cast<std::size_t>(
      std::strtoll(get_or(flags, "keep", "3").c_str(), nullptr, 10));
  opts.tenant_quota_bytes = static_cast<std::uint64_t>(
      std::strtoll(get_or(flags, "quota", "0").c_str(), nullptr, 10));
  opts.max_inflight = static_cast<std::size_t>(
      std::strtoll(get_or(flags, "max-inflight", "8").c_str(), nullptr, 10));
  const std::string admission = get_or(flags, "admission", "block");
  if (admission == "block") {
    opts.admission = server::AdmissionPolicy::kBlock;
  } else if (admission == "reject") {
    opts.admission = server::AdmissionPolicy::kRejectNewest;
  } else {
    usage(("unknown admission policy: " + admission).c_str());
  }
  opts.retry.sleep_between_attempts = false;  // local store: retry immediately
  return opts;
}

/// Shared by `serve` and `soak --server`: connection deadlines.
server::StoreServer::Options server_options_from_flags(
    const std::map<std::string, std::string>& flags) {
  server::StoreServer::Options opts;
  opts.read_timeout_ms = static_cast<int>(
      std::strtol(get_or(flags, "read-timeout-ms", "30000").c_str(), nullptr, 10));
  opts.idle_timeout_ms = static_cast<int>(
      std::strtol(get_or(flags, "idle-timeout-ms", "120000").c_str(), nullptr, 10));
  opts.write_timeout_ms = static_cast<int>(
      std::strtol(get_or(flags, "write-timeout-ms", "30000").c_str(), nullptr, 10));
  opts.drain_timeout_ms = static_cast<int>(
      std::strtol(get_or(flags, "drain-timeout-ms", "5000").c_str(), nullptr, 10));
  opts.slow_request_ms = static_cast<int>(
      std::strtol(get_or(flags, "slow-ms", "1000").c_str(), nullptr, 10));
  return opts;
}

/// Client deadlines + retry for the soak's workers and the store
/// subcommands. Retry is opt-in (--client-retries > 0 extra attempts).
StoreClientOptions client_options_from_flags(const std::map<std::string, std::string>& flags,
                                             std::uint64_t seed) {
  StoreClientOptions opts;
  opts.timeout_ms = static_cast<int>(
      std::strtol(get_or(flags, "client-timeout-ms", "30000").c_str(), nullptr, 10));
  const int retries = static_cast<int>(
      std::strtol(get_or(flags, "client-retries", "0").c_str(), nullptr, 10));
  opts.retry.max_attempts = 1 + std::max(retries, 0);
  opts.retry.initial_backoff_seconds = 0.01;
  opts.retry.max_backoff_seconds = 0.5;
  opts.retry.jitter_fraction = 0.2;  // decorrelate clients that lost the same server
  opts.seed = seed;
  opts.slow_request_ms = static_cast<int>(
      std::strtol(get_or(flags, "slow-ms", "1000").c_str(), nullptr, 10));
  return opts;
}

/// Set by the SIGTERM/SIGINT handler; the serve loop polls it. A
/// volatile sig_atomic_t store is all a signal handler may safely do.
volatile std::sig_atomic_t g_stop_signal = 0;

extern "C" void handle_stop_signal(int sig) { g_stop_signal = sig; }

/// `wckpt serve` — run the multi-tenant checkpoint store on a Unix
/// socket until a client sends Shutdown (wckpt's other store
/// subcommands, or any StoreClient, can do so).
int cmd_serve(const std::map<std::string, std::string>& flags) {
  const std::string socket_path = require(flags, "socket");
  const std::filesystem::path root = require(flags, "root");
  const std::string codec_name = get_or(flags, "codec", "null");
  const std::unique_ptr<Codec> codec = make_codec(codec_name, flags);

  const std::string plan_spec = get_or(flags, "fault-plan", "");
  const FaultPlan plan =
      plan_spec.empty() ? FaultPlan::from_env() : FaultPlan::parse(plan_spec);
  FaultInjectingBackend fault_io(plan, posix_backend());
  IoBackend* io = plan.empty() ? nullptr : &fault_io;

  server::CheckpointService service(*codec, service_options_from_flags(flags, root), io);
  const server::RecoveryReport& rec = service.recovery();
  if (rec.tenants > 0) {
    std::fprintf(stderr,
                 "wckpt serve: recovered %zu tenants (%zu generations, %zu tmp files "
                 "swept, %zu quarantined)\n",
                 rec.tenants, rec.generations, rec.tmp_swept, rec.quarantined);
  }
  server::StoreServer::Options server_opts = server_options_from_flags(flags);
  // When the operator exposes live snapshots (--expose=DIR[,MS]), the
  // graceful drain writes one final snapshot into the same directory so
  // the last word on disk describes the shut-down state, not the state
  // one interval ago.
  const auto expose_flag = flags.find("expose");
  if (expose_flag != flags.end()) {
    std::string dir = expose_flag->second;
    const auto comma = dir.find(',');
    if (comma != std::string::npos) dir.resize(comma);
    if (!dir.empty()) server_opts.drain_snapshot_dir = dir;
  }
  server::StoreServer server(service, socket_path, server_opts);
  std::fprintf(stderr,
               "wckpt serve: listening on %s (root %s, codec %s, keep %zu, quota %llu)\n",
               socket_path.c_str(), root.string().c_str(), codec_name.c_str(),
               service.options().keep_generations,
               static_cast<unsigned long long>(service.options().tenant_quota_bytes));

  // Park until a client asks for shutdown or the operator signals.
  // Either way the exit path is the same graceful drain: stop() lets
  // in-flight requests finish before forcing anything, and telemetry
  // flushes below before the process exits.
  g_stop_signal = 0;
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);
  while (!server.wait_for_shutdown_for(100)) {
    if (g_stop_signal != 0) {
      std::fprintf(stderr, "wckpt serve: signal %d — draining\n",
                   static_cast<int>(g_stop_signal));
      break;
    }
  }
  server.stop();
  std::fprintf(stderr, "wckpt serve: shut down after %llu connections\n",
               static_cast<unsigned long long>(server.connections_accepted()));

  telemetry::RunReport report;
  report.tool = "wckpt serve";
  report_params_from_flags(flags, report);
  finish_run(flags, report);
  return 0;
}

int cmd_put(const std::map<std::string, std::string>& flags) {
  const Shape shape = parse_shape(require(flags, "shape"));
  const auto step = static_cast<std::uint64_t>(
      std::strtoll(get_or(flags, "step", "1").c_str(), nullptr, 10));
  const auto seed =
      static_cast<std::uint64_t>(std::strtoll(get_or(flags, "seed", "2015").c_str(), nullptr, 10));
  const NdArray<double> array = flags.count("in") != 0
                                    ? read_raw_array(require(flags, "in"), shape)
                                    : make_smooth_field(shape, seed);

  StoreClient client =
      StoreClient::connect(require(flags, "socket"), client_options_from_flags(flags, 0));
  const net::PutOkResponse resp = client.put(require(flags, "tenant"), step, array);
  std::printf("put: step=%llu stored_bytes=%llu tenant_bytes=%llu generations=%u\n",
              static_cast<unsigned long long>(resp.step),
              static_cast<unsigned long long>(resp.stored_bytes),
              static_cast<unsigned long long>(resp.total_bytes), resp.generations);
  write_observability_files(flags);
  return 0;
}

int cmd_get(const std::map<std::string, std::string>& flags) {
  StoreClient client =
      StoreClient::connect(require(flags, "socket"), client_options_from_flags(flags, 0));
  const StoreClient::GetResult got = client.get(require(flags, "tenant"));
  std::printf("get: step=%llu source=%s shape=%s\n",
              static_cast<unsigned long long>(got.step), restore_source_name(got.source),
              got.array.shape().to_string().c_str());
  const auto out = flags.find("out");
  if (out != flags.end()) write_file(out->second, std::as_bytes(got.array.values()));
  write_observability_files(flags);
  return 0;
}

int cmd_shutdown(const std::map<std::string, std::string>& flags) {
  StoreClient client =
      StoreClient::connect(require(flags, "socket"), client_options_from_flags(flags, 0));
  client.shutdown_server();
  std::printf("shutdown: acknowledged\n");
  write_observability_files(flags);
  return 0;
}

/// Renders one TenantStat's health suffix: quarantined generations,
/// scrub age ("never" until a scrub has run), last error kind ("-" when
/// the tenant has never failed), quota utilization ("-" when unlimited).
std::string render_tenant_health(const net::TenantStat& s) {
  std::string out = " quarantined=" + std::to_string(s.quarantined);
  out += " scrub_age=";
  if (s.scrub_age_ms == net::TenantStat::kNeverScrubbed) {
    out += "never";
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1fs", static_cast<double>(s.scrub_age_ms) / 1e3);
    out += buf;
  }
  out += " last_error=";
  out += s.last_error.empty() ? "-" : s.last_error.c_str();
  out += " quota_used=";
  if (s.quota_bytes == 0) {
    out += "-";
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f%%",
                  100.0 * static_cast<double>(s.stored_bytes) /
                      static_cast<double>(s.quota_bytes));
    out += buf;
  }
  return out;
}

int cmd_stat(const std::map<std::string, std::string>& flags) {
  StoreClient client =
      StoreClient::connect(require(flags, "socket"), client_options_from_flags(flags, 0));
  const net::StatOkResponse resp = client.stat(get_or(flags, "tenant", ""));
  std::printf("stat: %llu tenants\n", static_cast<unsigned long long>(resp.tenants));
  for (const net::TenantStat& s : resp.stats) {
    std::printf("  %-20s generations=%llu bytes=%llu quota=%llu newest_step=%llu%s\n",
                s.name.c_str(), static_cast<unsigned long long>(s.generations),
                static_cast<unsigned long long>(s.stored_bytes),
                static_cast<unsigned long long>(s.quota_bytes),
                static_cast<unsigned long long>(s.newest_step),
                render_tenant_health(s).c_str());
  }
  write_observability_files(flags);
  return 0;
}

/// Reads a Prometheus-style exposition file into name → value. Only
/// the plain "name value" lines matter; comments and HELP/TYPE lines
/// are skipped. Missing/unreadable file → empty map (the server may
/// not have written its first snapshot yet).
std::map<std::string, double> read_prom_metrics(const std::filesystem::path& file) {
  std::map<std::string, double> out;
  std::ifstream f(file);
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto sp = line.rfind(' ');
    if (sp == std::string::npos || sp + 1 >= line.size()) continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

/// Mirrors telemetry::prometheus_name so `top` can look up the
/// server's per-tenant counters: "wck_" prefix, every byte outside
/// [a-zA-Z0-9_] becomes '_'.
std::string prometheus_metric_name(std::string name) {
  for (char& c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    if (!ok) c = '_';
  }
  return "wck_" + name;
}

/// `wckpt top` — live per-tenant view of a running store. Each poll
/// asks the server for stat() (generations, bytes, health) and, with
/// --expose-dir pointed at the server's --expose directory, reads the
/// metrics.prom snapshot to derive rates (puts/s from counter deltas
/// between polls) and the server-side p95 put latency.
int cmd_top(const std::map<std::string, std::string>& flags) {
  const std::string socket_path = require(flags, "socket");
  const long interval_ms =
      std::strtol(get_or(flags, "interval-ms", "1000").c_str(), nullptr, 10);
  if (interval_ms <= 0) usage("--interval-ms must be >= 1");
  const long iterations = std::strtol(get_or(flags, "iterations", "0").c_str(), nullptr, 10);
  const bool plain = flags.count("plain") != 0;
  const std::string expose_dir = get_or(flags, "expose-dir", "");

  g_stop_signal = 0;
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);

  std::map<std::string, double> prev_puts;  ///< tenant → puts counter at the last poll
  auto prev_time = std::chrono::steady_clock::now();
  for (long iter = 0; iterations == 0 || iter < iterations; ++iter) {
    if (iter > 0) {
      // Sleep in small slices so a signal interrupts the wait, not
      // just the next poll.
      for (long slept = 0; slept < interval_ms && g_stop_signal == 0; slept += 50) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(std::min<long>(50, interval_ms - slept)));
      }
    }
    if (g_stop_signal != 0) break;

    net::StatOkResponse stat;
    try {
      StoreClient client =
          StoreClient::connect(socket_path, client_options_from_flags(flags, 0));
      stat = client.stat();
    } catch (const Error& e) {
      std::fprintf(stderr, "wckpt top: stat failed: %s\n", e.what());
      return 1;
    }
    std::map<std::string, double> prom;
    if (!expose_dir.empty()) {
      prom = read_prom_metrics(std::filesystem::path(expose_dir) / "metrics.prom");
    }
    const auto now = std::chrono::steady_clock::now();
    const double dt = std::chrono::duration<double>(now - prev_time).count();

    if (!plain) std::fputs("\x1b[H\x1b[2J", stdout);  // cursor home + clear
    std::printf("wckpt top — %s  tenants=%llu", socket_path.c_str(),
                static_cast<unsigned long long>(stat.tenants));
    const auto p95 = prom.find("wck_server_rpc_put_seconds_p95");
    if (p95 != prom.end()) std::printf("  p95_put=%.2fms", p95->second * 1e3);
    std::printf("\n%-20s %6s %12s %8s %8s %6s %10s %s\n", "TENANT", "GENS", "BYTES",
                "QUOTA%", "PUTS/S", "QUAR", "SCRUB_AGE", "LAST_ERR");
    for (const net::TenantStat& s : stat.stats) {
      char quota_buf[16];
      if (s.quota_bytes == 0) {
        std::snprintf(quota_buf, sizeof quota_buf, "-");
      } else {
        std::snprintf(quota_buf, sizeof quota_buf, "%.1f",
                      100.0 * static_cast<double>(s.stored_bytes) /
                          static_cast<double>(s.quota_bytes));
      }
      char rate_buf[16];
      std::snprintf(rate_buf, sizeof rate_buf, "-");
      const auto puts_it =
          prom.find(prometheus_metric_name("server.tenant." + s.name + ".puts"));
      if (puts_it != prom.end()) {
        const auto prev = prev_puts.find(s.name);
        if (prev != prev_puts.end() && dt > 0) {
          std::snprintf(rate_buf, sizeof rate_buf, "%.1f",
                        std::max(0.0, puts_it->second - prev->second) / dt);
        }
        prev_puts[s.name] = puts_it->second;
      }
      char scrub_buf[16];
      if (s.scrub_age_ms == net::TenantStat::kNeverScrubbed) {
        std::snprintf(scrub_buf, sizeof scrub_buf, "never");
      } else {
        std::snprintf(scrub_buf, sizeof scrub_buf, "%.1fs",
                      static_cast<double>(s.scrub_age_ms) / 1e3);
      }
      std::printf("%-20s %6llu %12llu %8s %8s %6llu %10s %s\n", s.name.c_str(),
                  static_cast<unsigned long long>(s.generations),
                  static_cast<unsigned long long>(s.stored_bytes), quota_buf, rate_buf,
                  static_cast<unsigned long long>(s.quarantined), scrub_buf,
                  s.last_error.empty() ? "-" : s.last_error.c_str());
    }
    std::fflush(stdout);
    prev_time = now;
  }
  return 0;
}

/// One tenant's quota ledger recomputed straight from the generation
/// files in its directory — the ground truth a crash-restarted server
/// must agree with. A tenant directory without one counts as empty (a
/// first write that never committed).
struct TenantLedger {
  std::uint64_t generations = 0;
  std::uint64_t bytes = 0;
  std::uint64_t newest_step = 0;
};

std::map<std::string, TenantLedger> scan_ledgers(const std::filesystem::path& root) {
  std::map<std::string, TenantLedger> out;
  std::error_code ec;
  for (const auto& tenant : std::filesystem::directory_iterator(root, ec)) {
    if (!tenant.is_directory()) continue;
    TenantLedger ledger;
    for (const auto& entry : std::filesystem::directory_iterator(tenant.path(), ec)) {
      const auto step = step_from_file_name(entry.path().filename().string());
      if (!step.has_value()) continue;
      ++ledger.generations;
      ledger.bytes += entry.file_size();
      ledger.newest_step = std::max(ledger.newest_step, *step);
    }
    out[tenant.path().filename().string()] = ledger;
  }
  return out;
}

/// Forks + execs this binary as `wckpt serve` on the given socket/root
/// (the process the reaper SIGKILLs). Throws IoError when fork fails.
pid_t spawn_server_process(const std::map<std::string, std::string>& flags,
                           const std::string& socket_path, const std::filesystem::path& root,
                           const std::filesystem::path& dir, std::uint64_t generation) {
  std::vector<std::string> args = {
      "wckpt",
      "serve",
      "--socket=" + socket_path,
      "--root=" + root.string(),
      "--codec=" + get_or(flags, "codec", "null"),
      "--keep=" + get_or(flags, "keep", "3"),
      "--quota=" + get_or(flags, "quota", "0"),
      "--max-inflight=" + get_or(flags, "max-inflight", "8"),
      "--admission=" + get_or(flags, "admission", "block"),
      "--events=" + (dir / ("server-events." + std::to_string(generation) + ".jsonl")).string(),
  };
  const std::string plan = get_or(flags, "fault-plan", "");
  if (!plan.empty()) args.push_back("--fault-plan=" + plan);
  const auto slow_ms = flags.find("slow-ms");
  if (slow_ms != flags.end()) args.push_back("--slow-ms=" + slow_ms->second);
  const pid_t pid = ::fork();
  if (pid < 0) throw IoError(std::string("fork: ") + std::strerror(errno));
  if (pid == 0) {
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv("/proc/self/exe", argv.data());
    std::perror("wckpt soak --server: execv /proc/self/exe");
    ::_exit(127);
  }
  return pid;
}

/// Blocks until the spawned server answers a ping (its recovery scan
/// runs before the socket binds, so a pong implies recovery finished).
void wait_for_server_ready(const std::string& socket_path) {
  StoreClientOptions opts;
  opts.timeout_ms = 2000;
  opts.retry.max_attempts = 200;  // ~10 s at the 50 ms cap below
  opts.retry.initial_backoff_seconds = 0.01;
  opts.retry.max_backoff_seconds = 0.05;
  opts.seed = 1;  // determinism over decorrelation: one waiter, no thundering herd
  StoreClient client = StoreClient::connect(socket_path, opts);
  client.ping();
}

/// Pauses the soak's worker threads at cycle boundaries while the
/// reaper kills/restarts the server, so the post-restart ledger check
/// compares a quiescent store. Plain std primitives: tools are outside
/// the src/ lock-annotation regime.
struct KillGate {
  std::mutex mu;
  std::condition_variable cv;
  bool paused = false;
  std::size_t parked = 0;
  std::size_t active = 0;  ///< workers still running (not yet finished)
};

/// `wckpt soak --server` — the store service's proving ground: an
/// in-process StoreServer plus N client threads hammering put/get over
/// real sockets (optionally under a fault plan and a tight quota).
/// With --kill-every=C the server instead runs as a child process that
/// the soak SIGKILLs and restarts every C completed client cycles,
/// proving startup recovery: after each restart the quota ledger the
/// server reports (stat) must equal one recomputed from the generation
/// files on disk, and every restore must still verify bit-for-bit.
///
/// The oracle is regeneration, not history: tenant t's state at step s
/// is a pure function of (seed, t, s), so any client can verify any
/// restored generation bit-for-bit against the codec's deterministic
/// round-trip of that state — including generations written by *other*
/// clients of a shared tenant. Typed QuotaExceeded/Busy/Io rejections
/// are counted (they are the contract under pressure); a restore that
/// reports success with wrong bytes is a silent mismatch and fails the
/// run.
int cmd_soak_server(const std::map<std::string, std::string>& flags) {
  const std::filesystem::path dir = require(flags, "dir");
  const auto cycles = static_cast<std::uint64_t>(
      std::strtoll(get_or(flags, "cycles", "50").c_str(), nullptr, 10));
  const auto clients = static_cast<std::size_t>(
      std::strtoll(get_or(flags, "clients", "8").c_str(), nullptr, 10));
  const auto tenants = static_cast<std::size_t>(std::strtoll(
      get_or(flags, "tenants", std::to_string(clients)).c_str(), nullptr, 10));
  const Shape shape = parse_shape(get_or(flags, "shape", "16x16"));
  const auto seed =
      static_cast<std::uint64_t>(std::strtoll(get_or(flags, "seed", "2015").c_str(), nullptr, 10));
  if (cycles == 0 || clients == 0 || tenants == 0) {
    usage("soak --server needs --cycles, --clients, --tenants all >= 1");
  }
  const auto kill_every = static_cast<std::uint64_t>(
      std::strtoll(get_or(flags, "kill-every", "0").c_str(), nullptr, 10));
  const bool reaper = kill_every > 0;

  const std::string codec_name = get_or(flags, "codec", "null");
  const std::unique_ptr<Codec> codec = make_codec(codec_name, flags);

  const std::string plan_spec = get_or(flags, "fault-plan", "");
  const FaultPlan plan =
      plan_spec.empty() ? FaultPlan::from_env() : FaultPlan::parse(plan_spec);
  FaultInjectingBackend fault_io(plan, posix_backend());
  IoBackend* io = plan.empty() ? nullptr : &fault_io;

  std::filesystem::create_directories(dir);
  const std::filesystem::path tenants_root = dir / "tenants";
  const std::string socket_path = get_or(flags, "socket", (dir / "wckpt.sock").string());

  // In-process server (default), or a child `wckpt serve` the reaper
  // can SIGKILL (--kill-every). The child inherits the fault plan via
  // its own --fault-plan flag; the in-parent fault_io stays idle then.
  std::unique_ptr<server::CheckpointService> service;
  std::unique_ptr<server::StoreServer> server;
  pid_t child = -1;
  std::uint64_t server_generation = 0;
  if (reaper) {
    child = spawn_server_process(flags, socket_path, tenants_root, dir, server_generation++);
    wait_for_server_ready(socket_path);
  } else {
    service = std::make_unique<server::CheckpointService>(
        *codec, service_options_from_flags(flags, tenants_root), io);
    server = std::make_unique<server::StoreServer>(*service, socket_path,
                                                   server_options_from_flags(flags));
  }

  /// Deterministic per-(tenant, step) state: the verification oracle.
  const auto tenant_state = [&](std::size_t tenant_idx, std::uint64_t step) {
    const std::uint64_t mix = seed ^ ((tenant_idx + 1) * 0xA24BAED4963EE407ull) ^
                              (step * 0x9E3779B97F4A7C15ull);
    return make_smooth_field(shape, mix);
  };

  struct ClientStats {
    std::uint64_t puts_ok = 0;
    std::uint64_t quota_rejected = 0;
    std::uint64_t busy_rejected = 0;
    std::uint64_t io_failures = 0;
    std::uint64_t gets_ok = 0;
    std::uint64_t not_found = 0;
    std::uint64_t fallback_restores = 0;
    std::uint64_t parity_restores = 0;
    std::uint64_t restore_failures = 0;
    std::uint64_t silent_mismatches = 0;
    std::uint64_t aborts = 0;  ///< client thread died (connect/protocol)
  };
  std::vector<ClientStats> stats(clients);

  // Reaper-mode workers retry by default: transport failures during a
  // kill window are the exercise, not a test failure.
  std::map<std::string, std::string> client_flags = flags;
  if (reaper && client_flags.count("client-retries") == 0) {
    client_flags["client-retries"] = "8";
  }

  KillGate gate;
  gate.active = clients;
  std::atomic<std::uint64_t> progress{0};  ///< completed cycles, all workers

  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (std::size_t i = 0; i < clients; ++i) {
    workers.emplace_back([&, i] {
      ClientStats& st = stats[i];
      const std::size_t tenant_idx = i % tenants;
      const std::string tenant = "t" + std::to_string(tenant_idx);
      try {
        StoreClient client = StoreClient::connect(
            socket_path,
            client_options_from_flags(client_flags,
                                      seed ^ ((i + 1) * 0x9E3779B97F4A7C15ull)));
        for (std::uint64_t cycle = 1; cycle <= cycles; ++cycle) {
          {
            // Cycle boundary: park while the reaper swaps the server.
            std::unique_lock<std::mutex> lk(gate.mu);
            if (gate.paused) {
              ++gate.parked;
              gate.cv.notify_all();
              gate.cv.wait(lk, [&gate] { return !gate.paused; });
              --gate.parked;
            }
          }
          try {
            (void)client.put(tenant, cycle, tenant_state(tenant_idx, cycle));
            ++st.puts_ok;
          } catch (const QuotaExceededError&) {
            ++st.quota_rejected;
          } catch (const BusyError&) {
            ++st.busy_rejected;
          } catch (const IoError&) {
            ++st.io_failures;
          }
          try {
            const StoreClient::GetResult got = client.get(tenant);
            ++st.gets_ok;
            if (got.source == RestoreSource::kOlderGeneration) ++st.fallback_restores;
            if (got.source == RestoreSource::kParity) ++st.parity_restores;
            const NdArray<double> expected =
                codec->decode(codec->encode(tenant_state(tenant_idx, got.step)));
            if (expected.size() != got.array.size() ||
                std::memcmp(expected.values().data(), got.array.values().data(),
                            expected.size() * sizeof(double)) != 0) {
              ++st.silent_mismatches;
              WCK_EVENT(kSoakVerifyFailed, got.step,
                        tenant + " restored with wrong bytes (" +
                            restore_source_name(got.source) + ")");
              std::fprintf(stderr,
                           "soak --server: SILENT MISMATCH — tenant %s step %llu (%s) "
                           "restored with wrong bytes\n",
                           tenant.c_str(), static_cast<unsigned long long>(got.step),
                           restore_source_name(got.source));
            }
          } catch (const NotFoundError&) {
            ++st.not_found;  // legal: e.g. every put so far quota-rejected
          } catch (const BusyError&) {
            ++st.busy_rejected;
          } catch (const Error&) {
            ++st.restore_failures;  // loud failure, never silent corruption
          }
          progress.fetch_add(1, std::memory_order_relaxed);
        }
        client.close();
      } catch (const std::exception& e) {
        ++st.aborts;
        std::fprintf(stderr, "soak --server: client %zu aborted: %s\n", i, e.what());
      }
      std::lock_guard<std::mutex> lk(gate.mu);
      --gate.active;
      gate.cv.notify_all();
    });
  }

  // The reaper: every kill_every completed cycles, park all workers at
  // their cycle boundary, SIGKILL the server, restart it, and check
  // that the recovered quota ledger (stat) equals one recomputed from
  // the generation files on disk — byte for byte, step for step.
  std::uint64_t kills = 0;
  std::uint64_t ledger_mismatches = 0;
  if (reaper) {
    std::uint64_t next_kill = kill_every;
    for (;;) {
      {
        std::lock_guard<std::mutex> lk(gate.mu);
        if (gate.active == 0) break;
      }
      if (progress.load(std::memory_order_relaxed) < next_kill) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }
      {
        std::unique_lock<std::mutex> lk(gate.mu);
        gate.paused = true;
        gate.cv.wait(lk, [&gate] { return gate.parked == gate.active; });
        if (gate.active == 0) {
          gate.paused = false;
          gate.cv.notify_all();
          break;
        }
      }

      ::kill(child, SIGKILL);
      int status = 0;
      ::waitpid(child, &status, 0);
      ++kills;
      WCK_COUNTER_ADD("soak.server.kills", 1);

      child = spawn_server_process(flags, socket_path, tenants_root, dir, server_generation++);
      try {
        wait_for_server_ready(socket_path);
        // The store is quiescent (workers parked, server idle), so the
        // disk scan and the server's stat describe the same instant.
        const std::map<std::string, TenantLedger> disk = scan_ledgers(tenants_root);
        StoreClient verifier = StoreClient::connect(socket_path);
        const net::StatOkResponse stat = verifier.stat();
        std::map<std::string, net::TenantStat> reported;
        for (const net::TenantStat& s : stat.stats) reported[s.name] = s;
        for (const auto& [name, ledger] : disk) {
          const auto it = reported.find(name);
          const bool missing = it == reported.end();
          if (missing || it->second.generations != ledger.generations ||
              it->second.stored_bytes != ledger.bytes ||
              it->second.newest_step != ledger.newest_step) {
            ++ledger_mismatches;
            std::fprintf(
                stderr,
                "soak --server: LEDGER MISMATCH after restart %llu — tenant %s disk "
                "(%llu gens, %llu bytes, step %llu) vs reported (%llu gens, %llu bytes, "
                "step %llu)\n",
                static_cast<unsigned long long>(kills), name.c_str(),
                static_cast<unsigned long long>(ledger.generations),
                static_cast<unsigned long long>(ledger.bytes),
                static_cast<unsigned long long>(ledger.newest_step),
                static_cast<unsigned long long>(missing ? 0 : it->second.generations),
                static_cast<unsigned long long>(missing ? 0 : it->second.stored_bytes),
                static_cast<unsigned long long>(missing ? 0 : it->second.newest_step));
          }
        }
        if (stat.tenants < disk.size()) {
          ++ledger_mismatches;
          std::fprintf(stderr,
                       "soak --server: LEDGER MISMATCH after restart %llu — server knows "
                       "%llu tenants, disk holds %zu\n",
                       static_cast<unsigned long long>(kills),
                       static_cast<unsigned long long>(stat.tenants), disk.size());
        }
      } catch (const std::exception& e) {
        ++ledger_mismatches;
        std::fprintf(stderr, "soak --server: post-restart check failed: %s\n", e.what());
      }

      {
        std::lock_guard<std::mutex> lk(gate.mu);
        gate.paused = false;
        gate.cv.notify_all();
      }
      next_kill = progress.load(std::memory_order_relaxed) + kill_every;
    }
  }
  for (std::thread& t : workers) t.join();

  ClientStats total;
  for (const ClientStats& st : stats) {
    total.puts_ok += st.puts_ok;
    total.quota_rejected += st.quota_rejected;
    total.busy_rejected += st.busy_rejected;
    total.io_failures += st.io_failures;
    total.gets_ok += st.gets_ok;
    total.not_found += st.not_found;
    total.fallback_restores += st.fallback_restores;
    total.parity_restores += st.parity_restores;
    total.restore_failures += st.restore_failures;
    total.silent_mismatches += st.silent_mismatches;
    total.aborts += st.aborts;
  }

  // Final accounting pass over a fresh connection, then shut the server
  // down through the protocol (the ShutdownOk handshake is part of what
  // the soak proves).
  std::uint64_t reported_tenants = 0;
  try {
    StoreClient client = StoreClient::connect(socket_path);
    const net::StatOkResponse stat = client.stat();
    reported_tenants = stat.tenants;
    client.shutdown_server();
  } catch (const Error& e) {
    std::fprintf(stderr, "soak --server: final stat/shutdown failed: %s\n", e.what());
  }
  if (reaper) {
    // The protocol shutdown above makes the child's serve loop drain
    // and exit; give it a few seconds, then force the issue.
    int status = 0;
    bool reaped = false;
    for (int i = 0; i < 500; ++i) {
      const pid_t got = ::waitpid(child, &status, WNOHANG);
      if (got == child || got < 0) {
        reaped = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!reaped) {
      ::kill(child, SIGKILL);
      ::waitpid(child, &status, 0);
    }
  } else {
    server->wait_for_shutdown();
    server->stop();
  }

  WCK_COUNTER_ADD("soak.server.puts", total.puts_ok);
  WCK_COUNTER_ADD("soak.server.quota_rejections", total.quota_rejected);
  WCK_COUNTER_ADD("soak.server.busy_rejections", total.busy_rejected);
  WCK_COUNTER_ADD("soak.server.io_failures", total.io_failures);
  WCK_COUNTER_ADD("soak.server.gets", total.gets_ok);
  WCK_COUNTER_ADD("soak.server.not_found", total.not_found);
  WCK_COUNTER_ADD("soak.server.fallback_restores", total.fallback_restores);
  WCK_COUNTER_ADD("soak.server.parity_restores", total.parity_restores);
  WCK_COUNTER_ADD("soak.server.restore_failures", total.restore_failures);
  WCK_COUNTER_ADD("soak.server.silent_mismatches", total.silent_mismatches);
  WCK_COUNTER_ADD("soak.server.client_aborts", total.aborts);
  WCK_COUNTER_ADD("soak.server.faults_injected", fault_io.fault_count());
  WCK_COUNTER_ADD("soak.server.ledger_mismatches", ledger_mismatches);

  telemetry::RunReport report;
  report.tool = "wckpt soak --server";
  report_params_from_flags(flags, report);
  report.params["codec"] = codec_name;
  report.params["fault_plan"] =
      plan_spec.empty() ? env::get("WCK_FAULT_PLAN").value_or("") : plan_spec;
  report.params["kill_every"] = std::to_string(kill_every);
  finish_run(flags, report);

  const bool failed = total.silent_mismatches > 0 || total.puts_ok == 0 ||
                      total.aborts > 0 || ledger_mismatches > 0;
  if (failed && telemetry::enabled()) {
    const std::filesystem::path recorder = dir / "flight-recorder.jsonl";
    try {
      telemetry::EventLog::global().dump_to_file(recorder.string());
      std::fprintf(stderr, "soak --server: flight recorder dumped to %s\n",
                   recorder.string().c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "soak --server: flight recorder dump failed: %s\n", e.what());
    }
  }

  std::fprintf(stderr,
               "soak --server: %zu clients x %llu cycles over %zu tenants (%llu known to "
               "server): %llu puts (%llu quota-rejected, %llu busy, %llu io), %llu gets "
               "(%llu not-found, %llu fallback, %llu parity, %llu failed), %llu faults, "
               "%llu client aborts, %llu silent mismatches, %llu kills, %llu ledger "
               "mismatches\n",
               clients, static_cast<unsigned long long>(cycles), tenants,
               static_cast<unsigned long long>(reported_tenants),
               static_cast<unsigned long long>(total.puts_ok),
               static_cast<unsigned long long>(total.quota_rejected),
               static_cast<unsigned long long>(total.busy_rejected),
               static_cast<unsigned long long>(total.io_failures),
               static_cast<unsigned long long>(total.gets_ok),
               static_cast<unsigned long long>(total.not_found),
               static_cast<unsigned long long>(total.fallback_restores),
               static_cast<unsigned long long>(total.parity_restores),
               static_cast<unsigned long long>(total.restore_failures),
               static_cast<unsigned long long>(fault_io.fault_count()),
               static_cast<unsigned long long>(total.aborts),
               static_cast<unsigned long long>(total.silent_mismatches),
               static_cast<unsigned long long>(kills),
               static_cast<unsigned long long>(ledger_mismatches));

  if (total.silent_mismatches > 0) return 1;
  if (ledger_mismatches > 0) return 1;
  if (reaper && kills == 0) {
    std::fprintf(stderr, "soak --server: --kill-every set but no kill ever fired\n");
    return 1;
  }
  if (total.aborts > 0) return 1;
  if (total.puts_ok == 0) {
    std::fprintf(stderr, "soak --server: no put ever committed — nothing was demonstrated\n");
    return 1;
  }
  return 0;
}

int dispatch(const std::string& cmd, const std::map<std::string, std::string>& flags) {
  if (cmd == "gen") return cmd_gen(flags);
  if (cmd == "compress") return cmd_compress(flags);
  if (cmd == "decompress") return cmd_decompress(flags);
  if (cmd == "info") return cmd_info(flags);
  if (cmd == "verify") return cmd_verify(flags);
  if (cmd == "roundtrip") return cmd_roundtrip(flags);
  if (cmd == "analyze") return cmd_analyze(flags);
  if (cmd == "soak") return cmd_soak(flags);
  if (cmd == "serve") return cmd_serve(flags);
  if (cmd == "put") return cmd_put(flags);
  if (cmd == "get") return cmd_get(flags);
  if (cmd == "stat") return cmd_stat(flags);
  if (cmd == "top") return cmd_top(flags);
  if (cmd == "shutdown") return cmd_shutdown(flags);
  usage(("unknown command: " + cmd).c_str());
}

int run(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    std::fputs(kUsageText, stdout);  // asked-for help is success, not an error
    return 0;
  }
  const auto flags = parse_flags(argc, argv);

  // --expose=DIR[,MS]: background metrics/event exposition for the
  // lifetime of the command (the destructor performs a final dump even
  // when the command throws).
  std::unique_ptr<telemetry::PeriodicSnapshotWriter> expose;
  const auto expose_flag = flags.find("expose");
  if (expose_flag != flags.end()) {
    std::string dir = expose_flag->second;
    telemetry::PeriodicSnapshotWriter::Options opt;
    const auto comma = dir.find(',');
    if (comma != std::string::npos) {
      const long ms = std::strtol(dir.c_str() + comma + 1, nullptr, 10);
      if (ms <= 0) usage("bad --expose interval (want DIR[,MS] with MS >= 1)");
      opt.interval = std::chrono::milliseconds(ms);
      dir.resize(comma);
    }
    if (dir.empty()) usage("bad --expose directory");
    expose = std::make_unique<telemetry::PeriodicSnapshotWriter>(dir, opt);
    expose->start();
  }

  const int rc = dispatch(cmd, flags);
  if (expose != nullptr) expose->stop();
  return rc;
}

}  // namespace
}  // namespace wck::tool

int main(int argc, char** argv) {
  try {
    return wck::tool::run(argc, argv);
  } catch (const wck::Error& e) {
    std::fprintf(stderr, "wckpt: %s\n", e.what());
    return 1;
  }
}
