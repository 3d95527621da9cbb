#include "common/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "common/parallel.h"
#include "common/trace.h"

namespace topkdup {
namespace {

using metrics::Counter;
using metrics::Gauge;
using metrics::Histogram;
using metrics::MetricsSnapshot;
using metrics::Registry;
using metrics::ScopedTimer;

TEST(CounterTest, AddAndValue) {
  Counter* c = Registry::Global().GetCounter("test.counter.basic");
  const uint64_t base = c->Value();
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->Value(), base + 42);
}

TEST(CounterTest, SameNameSameHandle) {
  Counter* a = Registry::Global().GetCounter("test.counter.handle");
  Counter* b = Registry::Global().GetCounter("test.counter.handle");
  EXPECT_EQ(a, b);
}

TEST(CounterTest, ConcurrentIncrementsFromParallelFor) {
  // The ParallelFor workers are exactly the threads the striped fast path
  // must absorb without losing increments.
  ScopedParallelism parallelism(8);
  Counter* c = Registry::Global().GetCounter("test.counter.concurrent");
  const uint64_t base = c->Value();
  constexpr size_t kItems = 100000;
  ParallelFor(0, kItems, 128, [&](size_t) { c->Increment(); });
  EXPECT_EQ(c->Value(), base + kItems);
}

TEST(CounterTest, ConcurrentBatchedAddsFromThreads) {
  Counter* c = Registry::Global().GetCounter("test.counter.threads");
  const uint64_t base = c->Value();
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < 1000; ++i) c->Add(3);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->Value(), base + 8u * 1000u * 3u);
}

TEST(CounterBlockTest, TalliesItsScopeAndFoldsIntoTheRegistryOnClose) {
  Counter* c = Registry::Global().GetCounter("test.block.fold");
  const uint64_t base = c->Value();
  {
    const metrics::CounterBlock block;
    c->Add(5);
    c->Increment();
    EXPECT_EQ(block.Value("test.block.fold"), 6u);
    EXPECT_EQ(block.Value("test.block.never_registered"), 0u);
    // Held in the block until it closes.
    EXPECT_EQ(c->Value(), base);
  }
  EXPECT_EQ(c->Value(), base + 6);
}

TEST(CounterBlockTest, NestedBlocksFoldIntoTheirParent) {
  Counter* c = Registry::Global().GetCounter("test.block.nested");
  Counter* d = Registry::Global().GetCounter("test.block.nested_other");
  const uint64_t base = c->Value();
  {
    const metrics::CounterBlock outer;
    c->Add(1);
    {
      const metrics::CounterBlock inner;
      c->Add(10);
      d->Add(7);
      EXPECT_EQ(inner.Value("test.block.nested"), 10u);
      EXPECT_EQ(outer.Value("test.block.nested"), 1u);
    }
    EXPECT_EQ(outer.Value("test.block.nested"), 11u);
    const std::vector<metrics::CounterSample> samples = outer.Samples();
    ASSERT_EQ(samples.size(), 2u);  // Sorted by name, nonzero only.
    EXPECT_EQ(samples[0], (metrics::CounterSample{"test.block.nested", 11}));
    EXPECT_EQ(samples[1],
              (metrics::CounterSample{"test.block.nested_other", 7}));
    EXPECT_EQ(c->Value(), base);
  }
  EXPECT_EQ(c->Value(), base + 11);
}

TEST(CounterBlockTest, RegionWorkersAddIntoTheLaunchingThreadsBlock) {
  ScopedParallelism parallelism(8);
  Counter* c = Registry::Global().GetCounter("test.block.region");
  const uint64_t base = c->Value();
  constexpr size_t kItems = 100000;
  {
    const metrics::CounterBlock block;
    ParallelFor(0, kItems, 128, [&](size_t) { c->Increment(); });
    EXPECT_EQ(block.Value("test.block.region"), kItems);
    EXPECT_EQ(c->Value(), base);
  }
  EXPECT_EQ(c->Value(), base + kItems);
}

TEST(CounterBlockTest, ConcurrentScopesOnOtherThreadsDoNotBleed) {
  // Four threads each open a block and add a distinct amount, partly
  // through parallel regions: every block sees exactly its own adds.
  ScopedParallelism parallelism(4);
  Counter* c = Registry::Global().GetCounter("test.block.isolated");
  const uint64_t base = c->Value();
  std::vector<uint64_t> seen(4, 0);
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const metrics::CounterBlock block;
      for (int round = 0; round < 50; ++round) {
        c->Add(t + 1);
        ParallelFor(0, 64, 4, [&](size_t) { c->Add(t + 1); });
      }
      seen[t] = block.Value("test.block.isolated");
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (uint64_t t = 0; t < 4; ++t) {
    EXPECT_EQ(seen[t], 50 * 65 * (t + 1)) << "thread " << t;
  }
  EXPECT_EQ(c->Value(), base + 50 * 65 * (1 + 2 + 3 + 4));
}

TEST(GaugeTest, SetIsLastWriteWins) {
  Gauge* g = Registry::Global().GetGauge("test.gauge.basic");
  g->Set(2.5);
  EXPECT_DOUBLE_EQ(g->Value(), 2.5);
  g->Set(-7.0);
  EXPECT_DOUBLE_EQ(g->Value(), -7.0);
  g->Add(3.0);
  EXPECT_DOUBLE_EQ(g->Value(), -4.0);
}

TEST(HistogramTest, BucketAndSumSemantics) {
  Histogram* h =
      Registry::Global().GetHistogram("test.histogram.buckets", {1.0, 10.0});
  h->Observe(0.5);   // <= 1.0
  h->Observe(1.0);   // <= 1.0 (inclusive upper bound)
  h->Observe(5.0);   // <= 10.0
  h->Observe(100.0); // overflow
  EXPECT_EQ(h->TotalCount(), 4u);
  EXPECT_DOUBLE_EQ(h->Sum(), 106.5);
  const std::vector<uint64_t> counts = h->BucketCounts();
  ASSERT_EQ(counts.size(), 3u);  // Two bounds + overflow.
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
}

TEST(HistogramTest, ConcurrentObservationsSumExactly) {
  ScopedParallelism parallelism(8);
  Histogram* h =
      Registry::Global().GetHistogram("test.histogram.concurrent", {0.5});
  constexpr size_t kItems = 20000;
  ParallelFor(0, kItems, 64, [&](size_t) { h->Observe(1.0); });
  EXPECT_EQ(h->TotalCount(), kItems);
  EXPECT_DOUBLE_EQ(h->Sum(), static_cast<double>(kItems));
  EXPECT_EQ(h->BucketCounts().back(), kItems);  // All overflow 0.5.
}

TEST(ScopedTimerTest, ObservesOnceIntoHistogram) {
  Histogram* h = Registry::Global().GetHistogram(
      "test.timer.histogram", metrics::LatencySecondsBounds());
  const uint64_t base = h->TotalCount();
  {
    ScopedTimer timer(h);
    const double seconds = timer.Stop();
    EXPECT_GE(seconds, 0.0);
  }  // Destructor must not double-record after Stop().
  EXPECT_EQ(h->TotalCount(), base + 1);
  ScopedTimer null_timer(nullptr);  // No-op; must not crash.
}

TEST(SnapshotTest, DeltaSubtractsCountersAndKeepsAfterGauges) {
  Counter* c = Registry::Global().GetCounter("test.snapshot.delta");
  Gauge* g = Registry::Global().GetGauge("test.snapshot.gauge");
  c->Add(5);
  g->Set(1.0);
  const MetricsSnapshot before = Registry::Global().Snapshot();
  c->Add(7);
  g->Set(9.0);
  const MetricsSnapshot after = Registry::Global().Snapshot();
  const MetricsSnapshot delta = MetricsSnapshot::Delta(before, after);
  EXPECT_EQ(delta.CounterValue("test.snapshot.delta"), 7u);
  EXPECT_DOUBLE_EQ(delta.GaugeValue("test.snapshot.gauge"), 9.0);
  EXPECT_EQ(delta.CounterValue("test.snapshot.absent"), 0u);
}

TEST(SnapshotTest, DeterministicSortedMerge) {
  Registry::Global().GetCounter("test.sorted.b")->Add(1);
  Registry::Global().GetCounter("test.sorted.a")->Add(1);
  Registry::Global().GetCounter("test.sorted.c")->Add(1);
  const MetricsSnapshot s1 = Registry::Global().Snapshot();
  const MetricsSnapshot s2 = Registry::Global().Snapshot();
  ASSERT_EQ(s1.counters.size(), s2.counters.size());
  for (size_t i = 0; i < s1.counters.size(); ++i) {
    EXPECT_EQ(s1.counters[i].name, s2.counters[i].name);
    EXPECT_EQ(s1.counters[i].value, s2.counters[i].value);
    if (i > 0) {
      EXPECT_LT(s1.counters[i - 1].name, s1.counters[i].name);
    }
  }
}

TEST(SnapshotTest, ToJsonContainsRegisteredMetrics) {
  Registry::Global().GetCounter("test.json.counter")->Add(12);
  Registry::Global().GetGauge("test.json.gauge")->Set(3.5);
  Registry::Global()
      .GetHistogram("test.json.histogram", {1.0})
      ->Observe(0.25);
  const std::string json = Registry::Global().Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.gauge\":3.5"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"bounds\""), std::string::npos);
}

TEST(RegistryTest, ResetZeroesButKeepsHandles) {
  Counter* c = Registry::Global().GetCounter("test.reset.counter");
  c->Add(9);
  Registry::Global().Reset();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(c, Registry::Global().GetCounter("test.reset.counter"));
  c->Increment();
  EXPECT_EQ(c->Value(), 1u);
}

TEST(TraceTest, CapturesNestedSpansWithArgs) {
  trace::StartRecording();
  {
    trace::Span outer("test.outer");
    outer.AddArg("k", 7);
    { TOPKDUP_TRACE_SPAN("test.inner"); }
  }
  trace::StopRecording();
  EXPECT_EQ(trace::EventCount(), 2u);
  const std::string path = ::testing::TempDir() + "/trace.json";
  ASSERT_TRUE(trace::WriteChromeTrace(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content(1 << 12, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("\"test.outer\""), std::string::npos);
  EXPECT_NE(content.find("\"test.inner\""), std::string::npos);
  EXPECT_NE(content.find("\"k\":7"), std::string::npos);
  trace::Clear();
}

TEST(TraceTest, DisabledRecordingCapturesNothing) {
  trace::Clear();
  ASSERT_FALSE(trace::IsRecording());
  { trace::Span span("test.disabled"); }
  EXPECT_EQ(trace::EventCount(), 0u);
}

TEST(TraceTest, StartRecordingClearsPriorEvents) {
  trace::StartRecording();
  { trace::Span span("test.first"); }
  trace::StopRecording();
  EXPECT_EQ(trace::EventCount(), 1u);
  trace::StartRecording();
  EXPECT_EQ(trace::EventCount(), 0u);
  trace::StopRecording();
  trace::Clear();
}

TEST(LogTest, SinkReceivesMessageWithLocation) {
  std::vector<std::string> messages;
  LogSeverity seen = LogSeverity::kDebug;
  SetLogSink([&](LogSeverity severity, const char* file, int line,
                 std::string_view message) {
    seen = severity;
    messages.emplace_back(message);
    EXPECT_NE(std::string_view(file).find("metrics_test.cc"),
              std::string_view::npos);
    EXPECT_GT(line, 0);
  });
  TOPKDUP_LOG(Warning) << "answer=" << 42;
  SetLogSink(nullptr);
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_EQ(messages[0], "answer=42");
  EXPECT_EQ(seen, LogSeverity::kWarning);
}

TEST(LogTest, SeverityFilterDiscardsBelowMinimum) {
  std::vector<std::string> messages;
  SetLogSink([&](LogSeverity, const char*, int, std::string_view message) {
    messages.emplace_back(message);
  });
  const LogSeverity saved = MinLogSeverity();
  SetMinLogSeverity(LogSeverity::kError);
  TOPKDUP_LOG(Debug) << "dropped";
  TOPKDUP_LOG(Info) << "dropped";
  TOPKDUP_LOG(Warning) << "dropped";
  TOPKDUP_LOG(Error) << "kept";
  SetMinLogSeverity(saved);
  SetLogSink(nullptr);
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_EQ(messages[0], "kept");
}

/// Splits a Prometheus exposition into sample lines, dropping `# TYPE`
/// comments, and returns (series-with-labels, value-string) pairs in
/// document order.
std::vector<std::pair<std::string, std::string>> ParsePromSamples(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> samples;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << line;
    samples.emplace_back(line.substr(0, space), line.substr(space + 1));
  }
  return samples;
}

TEST(PrometheusTextTest, RoundTripsSnapshotExactly) {
  // Hand-built snapshot with every metric kind, a dotted name needing
  // sanitization, and values that only survive full-precision printing.
  MetricsSnapshot snapshot;
  snapshot.counters.push_back({"dedup.prune.pair_evals", 1234567890123ull});
  snapshot.counters.push_back({"pool.tasks", 0});
  snapshot.gauges.push_back({"dedup.lower_bound.M", 37.25});
  snapshot.gauges.push_back({"embed.alpha", 0.1});  // Not binary-exact.
  metrics::HistogramSample h;
  h.name = "pool.task_seconds";
  h.bounds = {0.001, 0.01, 0.1};
  h.counts = {3, 0, 7, 2};  // Per-bucket, last = overflow past 0.1.
  h.count = 12;
  h.sum = 1.2345678901234567;
  snapshot.histograms.push_back(h);

  const std::string text = metrics::PrometheusText(snapshot);
  EXPECT_NE(text.find("# TYPE topkdup_dedup_prune_pair_evals_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE topkdup_dedup_lower_bound_M gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE topkdup_pool_task_seconds histogram"),
            std::string::npos);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');

  std::map<std::string, std::string> by_series;
  std::vector<uint64_t> cumulative_buckets;
  for (const auto& [series, value] : ParsePromSamples(text)) {
    by_series[series] = value;
    if (series.rfind("topkdup_pool_task_seconds_bucket{", 0) == 0) {
      cumulative_buckets.push_back(
          std::strtoull(value.c_str(), nullptr, 10));
    }
  }

  // Counters: sanitized name + _total, exact integer values.
  EXPECT_EQ(by_series.at("topkdup_dedup_prune_pair_evals_total"),
            "1234567890123");
  EXPECT_EQ(by_series.at("topkdup_pool_tasks_total"), "0");

  // Gauges round-trip through strtod to the exact original doubles.
  EXPECT_EQ(std::strtod(by_series.at("topkdup_dedup_lower_bound_M").c_str(),
                        nullptr),
            37.25);
  EXPECT_EQ(std::strtod(by_series.at("topkdup_embed_alpha").c_str(), nullptr),
            0.1);

  // Histogram buckets are cumulative in `le` order plus +Inf; de-cumulating
  // recovers the snapshot's per-bucket counts.
  ASSERT_EQ(cumulative_buckets.size(), h.bounds.size() + 1);  // + "+Inf".
  EXPECT_NE(text.find("topkdup_pool_task_seconds_bucket{le=\"+Inf\"} 12"),
            std::string::npos);
  std::vector<uint64_t> recovered;
  uint64_t previous = 0;
  for (uint64_t c : cumulative_buckets) {
    ASSERT_GE(c, previous);  // Cumulative series never decreases.
    recovered.push_back(c - previous);
    previous = c;
  }
  EXPECT_EQ(recovered, h.counts);
  EXPECT_EQ(by_series.at("topkdup_pool_task_seconds_count"), "12");
  EXPECT_EQ(std::strtod(by_series.at("topkdup_pool_task_seconds_sum").c_str(),
                        nullptr),
            h.sum);
}

TEST(PrometheusTextTest, WriteMatchesInMemoryRendering) {
  MetricsSnapshot snapshot;
  snapshot.counters.push_back({"test.prom.write", 7});
  const std::string path =
      ::testing::TempDir() + "/topkdup_prom_roundtrip.prom";
  ASSERT_TRUE(metrics::WritePrometheusText(snapshot, path));
  std::FILE* in = std::fopen(path.c_str(), "rb");
  ASSERT_NE(in, nullptr);
  std::string contents;
  char buffer[4096];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), in)) > 0) {
    contents.append(buffer, got);
  }
  std::fclose(in);
  std::remove(path.c_str());
  EXPECT_EQ(contents, metrics::PrometheusText(snapshot));
}

TEST(PrometheusTextTest, LabeledFamiliesNeverMergeDistinctDatasets) {
  // Before label rules, name sanitization folded '.', '-', and anything
  // non-alphanumeric to '_': serve.breaker_state.team-a and
  // serve.breaker_state.team.a and serve.breaker_state.team_a all rendered
  // as ONE series, silently summing unrelated datasets. The label rules
  // route the suffix into a label value, where it survives verbatim.
  MetricsSnapshot snapshot;
  snapshot.gauges.push_back({"serve.breaker_state.team-a", 1.0});
  snapshot.gauges.push_back({"serve.breaker_state.team.a", 2.0});
  snapshot.gauges.push_back({"serve.breaker_state.team_a", 0.0});
  snapshot.gauges.push_back({"serve.breaker_state.caf\xc3\xa9", 1.0});
  snapshot.counters.push_back({"serve.shed.queue_full", 3});
  snapshot.counters.push_back({"serve.shed.queue-full", 4});

  const std::string text = metrics::PrometheusText(snapshot);
  std::map<std::string, std::string> by_series;
  for (const auto& [series, value] : ParsePromSamples(text)) {
    by_series[series] = value;
  }

  // All four breaker gauges survive as distinct labeled series.
  EXPECT_EQ(by_series.at("topkdup_serve_breaker_state{dataset=\"team-a\"}"),
            "1");
  EXPECT_EQ(by_series.at("topkdup_serve_breaker_state{dataset=\"team.a\"}"),
            "2");
  EXPECT_EQ(by_series.at("topkdup_serve_breaker_state{dataset=\"team_a\"}"),
            "0");
  EXPECT_EQ(
      by_series.at("topkdup_serve_breaker_state{dataset=\"caf\xc3\xa9\"}"),
      "1");
  // Counters keep the _total convention on the family, label intact.
  EXPECT_EQ(by_series.at("topkdup_serve_shed_total{reason=\"queue_full\"}"),
            "3");
  EXPECT_EQ(by_series.at("topkdup_serve_shed_total{reason=\"queue-full\"}"),
            "4");
  // Exactly one TYPE line per family, not one per series.
  const std::string breaker_type =
      "# TYPE topkdup_serve_breaker_state gauge";
  EXPECT_EQ(text.find(breaker_type), text.rfind(breaker_type));
  const std::string shed_type = "# TYPE topkdup_serve_shed_total counter";
  EXPECT_EQ(text.find(shed_type), text.rfind(shed_type));
}

TEST(PrometheusTextTest, LabelValuesEscapeQuotesAndBackslashes) {
  MetricsSnapshot snapshot;
  snapshot.counters.push_back({"serve.shed.why\"not\\this", 1});
  const std::string text = metrics::PrometheusText(snapshot);
  EXPECT_NE(
      text.find("topkdup_serve_shed_total{reason=\"why\\\"not\\\\this\"} 1"),
      std::string::npos);
}

TEST(TraceRingTest, AlwaysOnRingCapturesWithoutRecording) {
  ASSERT_FALSE(trace::IsRecording());
  trace::SetRingCapacity(8);
  const uint64_t total_before = trace::RingTotal();
  for (int i = 0; i < 12; ++i) {
    trace::Span span("test.ring.span");
    span.AddArg("i", i);
  }
  EXPECT_EQ(trace::RingTotal() - total_before, 12u);
  const std::vector<trace::TraceEvent> events = trace::RingSnapshot();
  // Bounded: the 12 pushes wrapped an 8-slot ring.
  ASSERT_EQ(events.size(), 8u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_us, events[i].ts_us);  // Sorted snapshot.
  }
  // The survivors are the NEWEST 8 (i = 4..11), not the first 8.
  EXPECT_EQ(events.front().args[0].second, 4);
  EXPECT_EQ(events.back().args[0].second, 11);
  // Ring capture never leaks into the recording buffers.
  EXPECT_EQ(trace::EventCount(), 0u);
  // The shared renderer produces loadable Chrome-trace JSON.
  const std::string json = trace::ChromeTraceJson(events);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.ring.span\""), std::string::npos);
  EXPECT_NE(json.find("\"i\":11"), std::string::npos);
  trace::SetRingCapacity(4096);
}

TEST(TraceRingTest, ZeroCapacityDisablesRingEntirely) {
  ASSERT_FALSE(trace::IsRecording());
  trace::SetRingCapacity(0);
  const uint64_t total_before = trace::RingTotal();
  { trace::Span span("test.ring.disabled"); }
  EXPECT_EQ(trace::RingTotal(), total_before);
  EXPECT_TRUE(trace::RingSnapshot().empty());
  trace::SetRingCapacity(4096);
}

TEST(TraceTest, ParallelForWorkerSpansReachRecordingBuffers) {
  // Regression: pool workers used to emit no spans at all — a traced
  // ParallelFor showed one opaque caller-side block. Every executed shard
  // must now appear as a parallel.shard span, recorded from whichever
  // thread (worker or caller) ran it, and the export must drain parked
  // worker buffers without the workers exiting first.
  ScopedParallelism parallelism(8);
  trace::StartRecording();
  std::atomic<int> sink{0};
  // Each shard sleeps long enough that the calling thread cannot race
  // through all 64 before a single pool worker wakes — otherwise the
  // multi-lane assertion below is flaky-by-speed.
  ParallelFor(0, 64, 1, [&](size_t i) {
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    sink.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
  });
  trace::StopRecording();
  const std::string path = ::testing::TempDir() + "/trace_parallel.json";
  ASSERT_TRUE(trace::WriteChromeTrace(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content(1 << 20, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(content.find("\"parallel.region\""), std::string::npos);
  size_t shard_spans = 0;
  std::set<std::string> tids;
  size_t pos = 0;
  while ((pos = content.find("\"parallel.shard\"", pos)) !=
         std::string::npos) {
    ++shard_spans;
    // Each event line carries "tid":N; collect the executing threads.
    const size_t line_start = content.rfind('\n', pos) + 1;
    const size_t tid_pos = content.find("\"tid\":", line_start);
    ASSERT_NE(tid_pos, std::string::npos);
    const size_t tid_end = content.find(',', tid_pos);
    tids.insert(content.substr(tid_pos + 6, tid_end - tid_pos - 6));
    ++pos;
  }
  // 64 items at grain 1 = 64 shards, each exactly one span.
  EXPECT_EQ(shard_spans, 64u);
  // With 8 threads and 64 shards, more than one lane must have executed
  // work — proof the flush reached parked worker buffers, not just the
  // calling thread's.
  EXPECT_GT(tids.size(), 1u);
  trace::Clear();
}

TEST(PrometheusTextTest, LiveRegistryMetricsAppearInExposition) {
  Counter* c = Registry::Global().GetCounter("test.prom.live_counter");
  c->Add(3);
  Histogram* hist = Registry::Global().GetHistogram(
      "test.prom.live_seconds", metrics::LatencySecondsBounds());
  hist->Observe(0.002);
  const std::string text =
      metrics::PrometheusText(Registry::Global().Snapshot());
  EXPECT_NE(text.find("topkdup_test_prom_live_counter_total"),
            std::string::npos);
  EXPECT_NE(text.find("topkdup_test_prom_live_seconds_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("topkdup_test_prom_live_seconds_count"),
            std::string::npos);
}

}  // namespace
}  // namespace topkdup
