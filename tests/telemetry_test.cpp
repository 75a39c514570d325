// Tests for src/telemetry: metric semantics, concurrent recording
// through the ThreadPool (exercised under the tsan preset via the
// `sanitize` label), span nesting/ordering, RunReport JSON round-trip,
// and the zero-allocation guarantee of disabled instrumentation macros.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.hpp"
#include "parallel/thread_pool.hpp"
#include "server/observe.hpp"
#include "telemetry/telemetry.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter for the zero-allocation guard test. Counting
// is relaxed-atomic so the override stays safe in multithreaded tests.
namespace {
std::atomic<std::uint64_t> g_new_calls{0};
}  // namespace

// GCC flags free() inside a replaced operator delete as a mismatched
// pair even though malloc/free are consistently used here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow variants must be replaced too: libstdc++'s temporary
// buffers (std::stable_sort) allocate through nothrow new but release
// through plain operator delete — leaving these to the runtime would
// mix allocators (and trip ASan's alloc-dealloc-mismatch check).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace wck::telemetry {
namespace {

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    MetricsRegistry::global().reset();
    Tracer::global().clear();
  }
};

TEST_F(TelemetryTest, CounterSemantics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(TelemetryTest, GaugeSemantics) {
  Gauge g;
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST_F(TelemetryTest, HistogramBucketsAndStats) {
  const std::array<double, 3> bounds{1.0, 10.0, 100.0};
  Histogram h{std::span<const double>(bounds)};
  EXPECT_EQ(h.count(), 0u);
  // Empty histogram: all derived stats are zero, not NaN/inf.
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);

  for (double x : {0.5, 1.0, 5.0, 50.0, 1000.0}) h.record(x);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 1056.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_DOUBLE_EQ(h.mean(), 1056.5 / 5.0);

  // Bounds are upper edges (inclusive); final bucket is overflow.
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), bounds.size() + 1);
  EXPECT_EQ(buckets[0], 2u);  // 0.5, 1.0
  EXPECT_EQ(buckets[1], 1u);  // 5.0
  EXPECT_EQ(buckets[2], 1u);  // 50.0
  EXPECT_EQ(buckets[3], 1u);  // 1000.0 overflows
}

TEST_F(TelemetryTest, RegistryReturnsStableReferences) {
  auto& reg = MetricsRegistry::global();
  Counter& a = reg.counter("test.counter");
  Counter& b = reg.counter("test.counter");
  EXPECT_EQ(&a, &b);
  a.add(7);

  reg.gauge("test.gauge").set(2.25);
  reg.histogram("test.hist").record(0.5);

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("test.counter"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("test.gauge"), 2.25);
  EXPECT_EQ(snap.histograms.at("test.hist").count, 1u);
  EXPECT_DOUBLE_EQ(snap.histograms.at("test.hist").sum, 0.5);
}

TEST_F(TelemetryTest, ConcurrentIncrementsThroughThreadPool) {
  auto& reg = MetricsRegistry::global();
  Counter& counter = reg.counter("test.concurrent");
  Histogram& hist = reg.histogram("test.concurrent.hist");

  constexpr std::size_t kItems = 20000;
  ThreadPool pool(4);
  pool.parallel_for(0, kItems, [&](std::size_t i) {
    counter.add(1);
    hist.record(static_cast<double>(i % 7) * 1e-6);
    // Also drive the macro path (enabled; registration raced on first use).
    WCK_COUNTER_ADD("test.concurrent.macro", 1);
  });

  EXPECT_EQ(counter.value(), kItems);
  EXPECT_EQ(hist.count(), kItems);
  EXPECT_EQ(reg.counter("test.concurrent.macro").value(), kItems);
  // ThreadPool's own instrumentation saw the submitted chunks.
  EXPECT_GT(reg.counter("pool.tasks_executed").value(), 0u);
}

TEST_F(TelemetryTest, SpanNestingAndOrdering) {
  {
    WCK_TRACE_SPAN("outer");
    {
      WCK_TRACE_SPAN("inner");
    }
    {
      WCK_TRACE_SPAN("inner2");
    }
  }
  const auto spans = Tracer::global().snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Snapshot is ordered by (tid, start): outer started first.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[2].name, "inner2");
  EXPECT_EQ(spans[2].depth, 1u);
  // Children are contained in the parent interval.
  EXPECT_GE(spans[1].start_us, spans[0].start_us);
  EXPECT_LE(spans[1].start_us + spans[1].dur_us,
            spans[0].start_us + spans[0].dur_us + 1.0);
  // Chrome export is syntactically sane and mentions every span.
  const std::string chrome = Tracer::global().chrome_trace_json();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"outer\""), std::string::npos);
  EXPECT_NE(chrome.find("\"inner2\""), std::string::npos);
  const Json parsed = Json::parse(chrome);  // must not throw
  EXPECT_EQ(parsed.at("traceEvents").as_array().size(), 3u);
}

TEST_F(TelemetryTest, SpansFromMultipleThreadsKeepDistinctTids) {
  ThreadPool pool(3);
  pool.parallel_for(0, 64, [&](std::size_t) { WCK_TRACE_SPAN("worker"); });
  const auto spans = Tracer::global().snapshot();
  ASSERT_GE(spans.size(), 64u);  // pool instrumentation may add more
  for (std::size_t i = 1; i < spans.size(); ++i) {
    // (tid, start) ordering holds across stream boundaries.
    if (spans[i - 1].tid == spans[i].tid) {
      EXPECT_LE(spans[i - 1].start_us, spans[i].start_us);
    } else {
      EXPECT_LT(spans[i - 1].tid, spans[i].tid);
    }
  }
}

TEST_F(TelemetryTest, RunReportJsonRoundTrip) {
  RunReport report;
  report.tool = "telemetry_test";
  report.params["shape"] = "64x32x8";
  report.params["quantizer"] = "spike";
  report.stages_seconds["wavelet"] = 1.5e-3;
  report.stages_seconds["deflate"] = 4.25e-3;
  report.original_bytes = 131072;
  report.compressed_bytes = 44629;
  report.payload_bytes = 49730;
  report.has_error_metrics = true;
  report.error.mean_rel = 1e-4;
  report.error.max_rel = 5e-4;
  report.error.max_abs = 0.03;
  report.error.rmse = 0.0088;
  report.error.count = 16384;
  report.span_count = 6;

  const std::string text = report.to_json_text();
  const RunReport back = RunReport::from_json(Json::parse(text));
  EXPECT_EQ(back.tool, report.tool);
  EXPECT_EQ(back.params, report.params);
  EXPECT_EQ(back.stages_seconds, report.stages_seconds);
  EXPECT_EQ(back.original_bytes, report.original_bytes);
  EXPECT_EQ(back.compressed_bytes, report.compressed_bytes);
  EXPECT_EQ(back.payload_bytes, report.payload_bytes);
  EXPECT_TRUE(back.has_error_metrics);
  EXPECT_DOUBLE_EQ(back.error.mean_rel, report.error.mean_rel);
  EXPECT_DOUBLE_EQ(back.error.max_rel, report.error.max_rel);
  EXPECT_DOUBLE_EQ(back.error.max_abs, report.error.max_abs);
  EXPECT_DOUBLE_EQ(back.error.rmse, report.error.rmse);
  EXPECT_EQ(back.error.count, report.error.count);
  EXPECT_EQ(back.span_count, report.span_count);
  EXPECT_DOUBLE_EQ(back.compression_rate_percent(),
                   report.compression_rate_percent());
}

TEST_F(TelemetryTest, RunReportRejectsWrongSchema) {
  RunReport report;
  Json doc = Json::parse(report.to_json_text());
  doc.as_object()["schema"] = Json("not-a-run-report");
  EXPECT_THROW(RunReport::from_json(doc), std::runtime_error);
  Json doc2 = Json::parse(report.to_json_text());
  doc2.as_object()["schema_version"] = Json(99.0);
  EXPECT_THROW(RunReport::from_json(doc2), std::runtime_error);
}

TEST_F(TelemetryTest, CaptureGlobalExtractsStageHistograms) {
  auto& reg = MetricsRegistry::global();
  reg.histogram("stage.wavelet.seconds").record(2e-3);
  reg.histogram("stage.wavelet.seconds").record(4e-3);
  reg.histogram("stage.idle.seconds");  // registered, never recorded
  reg.counter("compress.calls").add(2);
  {
    WCK_TRACE_SPAN("compress");
  }
  RunReport report;
  report.capture_global();
  EXPECT_DOUBLE_EQ(report.stages_seconds.at("wavelet"), 6e-3);
  EXPECT_EQ(report.stages_seconds.count("idle"), 0u);
  EXPECT_EQ(report.metrics.counters.at("compress.calls"), 2u);
  EXPECT_GE(report.span_count, 1u);
}

TEST_F(TelemetryTest, JsonParserHandlesEscapesAndNesting) {
  const Json v = Json::parse(
      R"({"s":"a\"b\\c\ndA","arr":[1,2.5,-3e2,true,false,null],"o":{"k":{}}})");
  EXPECT_EQ(v.at("s").as_string(), "a\"b\\c\ndA");
  const auto& arr = v.at("arr").as_array();
  ASSERT_EQ(arr.size(), 6u);
  EXPECT_DOUBLE_EQ(arr[1].as_number(), 2.5);
  EXPECT_DOUBLE_EQ(arr[2].as_number(), -300.0);
  EXPECT_TRUE(arr[3].as_bool());
  EXPECT_TRUE(arr[5].is_null());
  // dump -> parse round-trips.
  const Json again = Json::parse(v.dump());
  EXPECT_EQ(again.at("s").as_string(), "a\"b\\c\ndA");
  EXPECT_THROW(Json::parse("{broken"), std::runtime_error);
}

TEST_F(TelemetryTest, HistogramQuantilesInterpolateWithinBuckets) {
  const std::array<double, 3> bounds{10.0, 20.0, 30.0};
  Histogram h{std::span<const double>(bounds)};
  // 100 samples spread evenly into the first three buckets.
  for (int i = 0; i < 50; ++i) h.record(5.0);    // <= 10
  for (int i = 0; i < 40; ++i) h.record(15.0);   // <= 20
  for (int i = 0; i < 10; ++i) h.record(25.0);   // <= 30
  // p50 lands exactly on the edge of the first bucket.
  EXPECT_NEAR(h.quantile(0.5), 10.0, 1e-9);
  // p90 consumes all of bucket 2: its upper edge.
  EXPECT_NEAR(h.quantile(0.9), 20.0, 1e-9);
  // p75 is halfway through bucket 2 (rank 75 of 50+40): 10 + 25/40 * 10.
  EXPECT_NEAR(h.quantile(0.75), 16.25, 1e-9);
  // Quantiles are clamped to the observed range, not bucket edges.
  EXPECT_GE(h.quantile(0.0), 5.0);
  EXPECT_LE(h.quantile(1.0), 25.0);

  // The same interpolation is reachable from snapshot data alone.
  auto& reg = MetricsRegistry::global();
  Histogram& rh = reg.histogram("test.quant", std::span<const double>(bounds));
  for (int i = 0; i < 50; ++i) rh.record(5.0);
  for (int i = 0; i < 50; ++i) rh.record(15.0);
  const auto snap = reg.snapshot();
  const auto& stats = snap.histograms.at("test.quant");
  ASSERT_EQ(stats.buckets.size(), stats.bounds.size() + 1);
  EXPECT_DOUBLE_EQ(stats.p50, histogram_quantile(stats.bounds, stats.buckets, stats.min,
                                                 stats.max, 0.5));
  EXPECT_GT(stats.p95, stats.p50);
  EXPECT_GE(stats.p99, stats.p95);
  EXPECT_LE(stats.p99, stats.max);
}

TEST_F(TelemetryTest, QuantileOfEmptyHistogramIsZero) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
}

// ------------------------------------------------------- flight recorder

TEST_F(TelemetryTest, EventLogRecordsInOrderWithMonotonicSeq) {
  EventLog log(8);
  log.record(EventKind::kCkptBegin, 1);
  log.record(EventKind::kCkptCommit, 1, "gen file");
  log.record(EventKind::kRestoreDone, 1, "primary");
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[2].seq, 2u);
  EXPECT_EQ(events[0].kind, EventKind::kCkptBegin);
  EXPECT_EQ(events[1].detail, "gen file");
  EXPECT_LE(events[0].t_us, events[1].t_us);
  EXPECT_EQ(log.total(), 3u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST_F(TelemetryTest, EventLogRingOverwritesOldestAndCountsDropped) {
  EventLog log(4);
  for (std::uint64_t i = 0; i < 10; ++i) log.record(EventKind::kSoakCycle, i);
  EXPECT_EQ(log.total(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Newest 4 survive, oldest first.
  EXPECT_EQ(events[0].step, 6u);
  EXPECT_EQ(events[3].step, 9u);
  EXPECT_EQ(events[0].seq, 6u);

  log.clear();
  EXPECT_TRUE(log.snapshot().empty());
  // Sequence numbering continues after clear.
  log.record(EventKind::kSoakCycle, 11);
  EXPECT_EQ(log.snapshot()[0].seq, 10u);
}

TEST_F(TelemetryTest, EventLogJsonlIsParseablePerLine) {
  EventLog log(8);
  log.record(EventKind::kCkptRetry, 7, "attempt 2/5 \"quoted\"");
  log.record(EventKind::kFaultInjected, 0, "write:fail rule#0");
  const std::string jsonl = log.to_jsonl();
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    const std::size_t end = jsonl.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "every event line is newline-terminated";
    const Json v = Json::parse(jsonl.substr(start, end - start));
    EXPECT_TRUE(v.find("seq") && v.find("t_us") && v.find("kind") && v.find("step") &&
                v.find("detail"));
    start = end + 1;
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
  // Kind names are the stable dotted spellings.
  EXPECT_NE(jsonl.find("\"ckpt.retry\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"fault.injected\""), std::string::npos);
  // max_events keeps only the newest tail.
  const std::string tail = log.to_jsonl(1);
  EXPECT_EQ(tail.find("ckpt.retry"), std::string::npos);
  EXPECT_NE(tail.find("fault.injected"), std::string::npos);
}

TEST_F(TelemetryTest, EventKindNamesAreStable) {
  // Part of the JSONL schema: spot-check both ends of the enum.
  EXPECT_STREQ(event_kind_name(EventKind::kCkptBegin), "ckpt.begin");
  EXPECT_STREQ(event_kind_name(EventKind::kRestoreParity), "restore.parity");
  EXPECT_STREQ(event_kind_name(EventKind::kQueueDropOldest), "queue.drop_oldest");
  EXPECT_STREQ(event_kind_name(EventKind::kSoakVerifyFailed), "soak.verify_failed");
}

TEST_F(TelemetryTest, DisabledEventMacroRecordsNothing) {
  set_enabled(false);
  const std::uint64_t before = EventLog::global().total();
  WCK_EVENT(kCkptBegin, 1, "suppressed");
  EXPECT_EQ(EventLog::global().total(), before);
  set_enabled(true);
  WCK_EVENT(kCkptBegin, 1, "recorded");
  EXPECT_EQ(EventLog::global().total(), before + 1);
}

// ------------------------------------------------------------ exposition

TEST_F(TelemetryTest, PrometheusNameSanitization) {
  EXPECT_EQ(prometheus_name("ckpt.write.retries"), "wck_ckpt_write_retries");
  EXPECT_EQ(prometheus_name("stage.gzip.seconds"), "wck_stage_gzip_seconds");
  EXPECT_EQ(prometheus_name("weird-name with spaces"), "wck_weird_name_with_spaces");
}

TEST_F(TelemetryTest, PrometheusTextRendersAllMetricKinds) {
  auto& reg = MetricsRegistry::global();
  reg.counter("test.prom.counter").add(42);
  reg.gauge("test.prom.gauge").set(2.5);
  const std::array<double, 2> bounds{1.0, 10.0};
  Histogram& h = reg.histogram("test.prom.hist", std::span<const double>(bounds));
  h.record(0.5);
  h.record(5.0);
  h.record(100.0);  // overflow bucket

  const std::string text = prometheus_text(reg.snapshot());
  EXPECT_NE(text.find("# TYPE wck_test_prom_counter counter"), std::string::npos);
  EXPECT_NE(text.find("wck_test_prom_counter 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE wck_test_prom_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("wck_test_prom_gauge 2.5"), std::string::npos);
  // Histogram buckets are cumulative and end with +Inf == count.
  EXPECT_NE(text.find("# TYPE wck_test_prom_hist histogram"), std::string::npos);
  EXPECT_NE(text.find("wck_test_prom_hist_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("wck_test_prom_hist_bucket{le=\"10\"} 2"), std::string::npos);
  EXPECT_NE(text.find("wck_test_prom_hist_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("wck_test_prom_hist_count 3"), std::string::npos);
  EXPECT_NE(text.find("wck_test_prom_hist_sum"), std::string::npos);
  // Quantiles ride along as separate gauges.
  EXPECT_NE(text.find("wck_test_prom_hist_p50"), std::string::npos);
  EXPECT_NE(text.find("wck_test_prom_hist_p99"), std::string::npos);
  // Every line is either a comment or "name[{labels}] value".
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    if (!line.empty() && line[0] != '#') {
      EXPECT_NE(line.find(' '), std::string::npos) << line;
    }
    start = end + 1;
  }
}

TEST_F(TelemetryTest, PeriodicSnapshotWriterWritesBothFiles) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("wck_expo_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  MetricsRegistry::global().counter("test.expo.counter").add(5);
  EventLog::global().record(EventKind::kSoakCycle, 3, "for exposition");

  PeriodicSnapshotWriter::Options options;
  options.interval = std::chrono::milliseconds(3600 * 1000);  // never fires
  PeriodicSnapshotWriter writer(dir, options);
  EXPECT_TRUE(writer.write_once());
  EXPECT_GE(writer.writes(), 1u);
  EXPECT_TRUE(fs::exists(dir / "metrics.prom"));
  EXPECT_TRUE(fs::exists(dir / "events.jsonl"));

  std::ifstream prom(dir / "metrics.prom");
  const std::string text((std::istreambuf_iterator<char>(prom)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("wck_test_expo_counter 5"), std::string::npos);

  // start/stop is clean and performs a final write.
  const std::uint64_t before = writer.writes();
  writer.start();
  writer.stop();
  EXPECT_GT(writer.writes(), before);
  fs::remove_all(dir);
}

// Regression test for a double-join defect the thread-safety annotation
// pass surfaced: stop() used to join thread_ without claiming it under
// the lock, so two concurrent stop() calls could both reach join() on
// the same std::thread (std::terminate). Now exactly one caller moves
// the handle out under the mutex and joins its local copy.
TEST_F(TelemetryTest, StopIsConcurrencySafe) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("wck_expo_stop_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  PeriodicSnapshotWriter::Options options;
  options.interval = std::chrono::milliseconds(1);
  PeriodicSnapshotWriter writer(dir, options);

  for (int round = 0; round < 3; ++round) {
    writer.start();
    std::vector<std::thread> stoppers;
    stoppers.reserve(4);
    for (int i = 0; i < 4; ++i) {
      stoppers.emplace_back([&writer] { writer.stop(); });
    }
    for (auto& t : stoppers) t.join();
  }
  // Each round's winning stop() performed the final dump.
  EXPECT_GE(writer.writes(), 3u);
  EXPECT_TRUE(fs::exists(dir / "metrics.prom"));
  fs::remove_all(dir);
}

// -------------------------------------------------------- json edge cases

TEST_F(TelemetryTest, JsonDepthLimitRejectsPathologicalNesting) {
  // 200 nested arrays: beyond kMaxParseDepth, must throw (not overflow).
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_THROW((void)Json::parse(deep), std::runtime_error);
  // Moderate nesting stays fine.
  std::string ok(32, '[');
  ok += std::string(32, ']');
  EXPECT_NO_THROW((void)Json::parse(ok));
}

TEST_F(TelemetryTest, JsonTruncatedInputsThrow) {
  for (const char* text : {"{\"a\":", "[1,2", "\"unterminated", "{\"a\":1,", "tru", "-",
                           "1e", "{\"a\" 1}", ""}) {
    EXPECT_THROW((void)Json::parse(text), std::runtime_error) << text;
  }
  // Trailing garbage after a valid document is rejected too.
  EXPECT_THROW((void)Json::parse("{} {}"), std::runtime_error);
}

TEST_F(TelemetryTest, JsonDuplicateKeysLastWins) {
  const Json v = Json::parse(R"({"k":1,"k":2,"k":3})");
  EXPECT_DOUBLE_EQ(v.at("k").as_number(), 3.0);
  EXPECT_EQ(v.as_object().size(), 1u);
}

TEST_F(TelemetryTest, JsonNonFiniteNumbersSerializeAsNull) {
  Json::Object o;
  o["inf"] = std::numeric_limits<double>::infinity();
  o["nan"] = std::numeric_limits<double>::quiet_NaN();
  o["fin"] = 1.5;
  const std::string text = Json(std::move(o)).dump();
  const Json back = Json::parse(text);
  EXPECT_TRUE(back.at("inf").is_null());
  EXPECT_TRUE(back.at("nan").is_null());
  EXPECT_DOUBLE_EQ(back.at("fin").as_number(), 1.5);
}

TEST_F(TelemetryTest, RunReportPsnrRoundTripsIncludingInfinity) {
  RunReport report;
  report.has_error_metrics = true;
  report.error.rmse = 0.01;
  report.error.psnr = 62.5;
  RunReport back = RunReport::from_json(Json::parse(report.to_json_text()));
  EXPECT_DOUBLE_EQ(back.error.psnr, 62.5);

  // Exact reconstruction: psnr +inf -> JSON null -> +inf again.
  report.error.psnr = std::numeric_limits<double>::infinity();
  const std::string text = report.to_json_text();
  EXPECT_EQ(text.find("inf"), std::string::npos) << "must not emit bare inf tokens";
  back = RunReport::from_json(Json::parse(text));
  EXPECT_TRUE(std::isinf(back.error.psnr));
}

TEST_F(TelemetryTest, RunReportCarriesQualitySectionOpaquely) {
  RunReport report;
  report.tool = "roundtrip";
  Json::Object q;
  q["schema"] = std::string("wck-quality-report");
  q["schema_version"] = 1.0;
  report.quality = Json(std::move(q));
  const RunReport back = RunReport::from_json(Json::parse(report.to_json_text()));
  ASSERT_FALSE(back.quality.is_null());
  EXPECT_EQ(back.quality.at("schema").as_string(), "wck-quality-report");
  // Absent quality stays null (older reports parse unchanged).
  RunReport bare;
  EXPECT_TRUE(RunReport::from_json(Json::parse(bare.to_json_text())).quality.is_null());
}

TEST_F(TelemetryTest, DisabledMacrosAllocateNothing) {
  set_enabled(false);
  // Warm nothing: the whole point is that the disabled path never reaches
  // registration. Measure a tight loop over all three macro kinds plus
  // the RAII span.
  const std::uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    WCK_COUNTER_ADD("test.disabled.counter", 1);
    WCK_GAUGE_SET("test.disabled.gauge", 1.0);
    WCK_HISTOGRAM_RECORD("test.disabled.hist", 1.0);
    WCK_TRACE_SPAN("test.disabled.span");
  }
  const std::uint64_t after = g_new_calls.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
  set_enabled(true);
  // And nothing was registered.
  const auto snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counters.count("test.disabled.counter"), 0u);
  EXPECT_EQ(snap.histograms.count("test.disabled.hist"), 0u);
}

TEST_F(TelemetryTest, DisabledServerRpcPathAllocatesNothing) {
  // The full server-side observability path — boundary scope, metric
  // recording, per-tenant counters/gauges — must cost zero allocations
  // with telemetry off: the wire still round-trips trace contexts, but
  // a WCK_TELEMETRY=off server spends nothing observing them.
  net::AnyMessage request = net::GetRequest{"zero-alloc-tenant", {}};
  set_enabled(false);
  const std::uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    server::ServerRpcScope rpc(request, 64, /*slow_request_ms=*/0);
    rpc.finish(128, false);
    server::add_tenant_counter("zero-alloc-tenant", "puts");
    server::set_tenant_gauge("zero-alloc-tenant", "quota_utilization", 0.5);
  }
  const std::uint64_t after = g_new_calls.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
  set_enabled(true);
  const auto snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counters.count("server.tenant.zero-alloc-tenant.puts"), 0u);
  EXPECT_EQ(snap.histograms.count("server.rpc.get.seconds"), 0u);
}

}  // namespace
}  // namespace wck::telemetry
