#include "serve/service.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "common/check.h"
#include "common/faultpoint.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "datagen/citation_gen.h"
#include "predicates/citation.h"
#include "predicates/corpus.h"
#include "predicates/generic.h"
#include "sim/similarity.h"
#include "text/tokenize.h"
#include "topk/online.h"

namespace topkdup::serve {
namespace {

/// Kills the process if the test binary wedges: the acceptance contract is
/// "zero aborts, zero hangs" — a deadlocked service must fail the test
/// run, not stall CI until its global timeout.
class Watchdog {
 public:
  explicit Watchdog(int seconds) {
    thread_ = std::thread([this, seconds] {
      std::unique_lock<std::mutex> lock(mu_);
      if (!cv_.wait_for(lock, std::chrono::seconds(seconds),
                        [this] { return done_; })) {
        std::fprintf(stderr, "serve_test watchdog fired after %d s\n",
                     seconds);
        std::abort();
      }
    });
  }
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

/// Disarms every site on scope exit so one test's faults never leak into
/// the next.
struct ScopedDisarm {
  ~ScopedDisarm() { fault::DisarmAllForTest(); }
};

/// Builds a self-owned bundle over a fresh copy of the certified citation
/// data: each registration gets its own Dataset/Corpus/predicates so the
/// service's ownership contract is exercised for real.
DatasetBundle MakeCitationBundle(const record::Dataset& source) {
  DatasetBundle bundle;
  bundle.data = std::make_unique<record::Dataset>(source);
  auto corpus_or = predicates::Corpus::Build(bundle.data.get(), {});
  TOPKDUP_CHECK(corpus_or.ok());
  bundle.corpus =
      std::make_unique<predicates::Corpus>(std::move(corpus_or).value());
  auto s1 = std::make_unique<predicates::CitationS1>(
      bundle.corpus.get(), predicates::CitationFields{},
      0.75 * bundle.corpus->MaxIdf(0));
  auto n1 = std::make_unique<predicates::QGramOverlapPredicate>(
      bundle.corpus.get(), 0, 0.6);
  bundle.levels = {{s1.get(), n1.get()}};
  bundle.predicates.push_back(std::move(s1));
  bundle.predicates.push_back(std::move(n1));
  const record::Dataset* data = bundle.data.get();
  bundle.scorer = [data](size_t a, size_t b) {
    return (sim::JaroWinkler(text::NormalizeText((*data)[a].field(0)),
                             text::NormalizeText((*data)[b].field(0))) -
            0.85) *
           10.0;
  };
  return bundle;
}

/// Exact-key online stream: mentions collapse iff field 0 matches exactly
/// and never merge further (scorer is always negative), so every group's
/// true count is its key's ingest multiplicity — exact ground truth for
/// concurrency tests.
std::unique_ptr<topk::OnlineTopK> MakeExactKeyStream() {
  topk::OnlineTopK::Config config;
  config.sufficient_signature = [](const record::Record& r) {
    return std::vector<std::string>{r.field(0)};
  };
  config.sufficient_match = [](const record::Record& a,
                               const record::Record& b) {
    return a.field(0) == b.field(0);
  };
  config.necessary_factory = [](const predicates::Corpus& corpus) {
    return std::make_unique<predicates::CommonWordsPredicate>(
        &corpus, std::vector<int>{0}, 1);
  };
  config.scorer_factory = [](const record::Dataset&) {
    return [](size_t, size_t) { return -1.0; };
  };
  return std::make_unique<topk::OnlineTopK>(record::Schema({"name"}),
                                            std::move(config));
}

record::Record KeyMention(const std::string& key) {
  record::Record r;
  r.fields = {key};
  return r;
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::DisarmAllForTest();
    datagen::CitationGenOptions gen;
    gen.num_records = 800;
    gen.num_authors = 200;
    gen.seed = 20090324;
    auto data_or = datagen::GenerateCitations(gen);
    ASSERT_TRUE(data_or.ok());
    data_ = std::move(data_or).value();
  }

  void TearDown() override { fault::DisarmAllForTest(); }

  /// Test-friendly defaults: a breaker that will not trip unless a test
  /// configures it to, and generous budgets. The answer cache is
  /// *populated* but not served from (cache.enabled=false), so tests that
  /// rely on repeated identical queries actually executing — breaker
  /// trips, latency shaping — keep their semantics; cache-path tests opt
  /// back in explicitly.
  ServiceOptions QuietOptions() {
    ServiceOptions options;
    options.workers = 2;
    options.default_deadline_ms = 3000;
    options.max_deadline_ms = 10000;
    options.breaker.window = 64;
    options.breaker.min_samples = 10000;  // Effectively never trips.
    options.cache.enabled = false;
    return options;
  }

  QueryRequest CountRequest(const std::string& dataset, int k = 5) {
    QueryRequest request;
    request.dataset = dataset;
    request.kind = QueryKind::kTopKCount;
    request.k = k;
    return request;
  }

  record::Dataset data_;
};

TEST_F(ServeTest, ServedOutcomeNamesAreDistinct) {
  EXPECT_STREQ(ServedOutcomeName(ServedOutcome::kExact), "exact");
  EXPECT_STREQ(ServedOutcomeName(ServedOutcome::kDegraded), "degraded");
  EXPECT_STREQ(ServedOutcomeName(ServedOutcome::kBreakerDegraded),
               "breaker_degraded");
  EXPECT_STREQ(ServedOutcomeName(ServedOutcome::kShed), "shed");
  EXPECT_STREQ(ServedOutcomeName(ServedOutcome::kError), "error");
}

TEST_F(ServeTest, RegisterExactQueryAndHealth) {
  Watchdog watchdog(120);
  QueryService service(QuietOptions());
  ASSERT_TRUE(
      service.RegisterDataset("cites", MakeCitationBundle(data_)).ok());
  // Calibration seeded the cost estimate.
  const HealthSnapshot registered = service.Health();
  ASSERT_EQ(registered.datasets.size(), 1u);
  EXPECT_EQ(registered.datasets[0].cost_samples, 1u);
  EXPECT_GT(registered.datasets[0].predicted_wall_seconds, 0.0);

  QueryResponse response = service.Execute(CountRequest("cites"));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.outcome, ServedOutcome::kExact);
  EXPECT_EQ(response.attempts, 1);
  ASSERT_FALSE(response.result.answers.empty());
  ASSERT_FALSE(response.result.answers[0].groups.empty());
  for (const auto& group : response.result.answers[0].groups) {
    // Exact answers carry tight intervals.
    EXPECT_DOUBLE_EQ(group.count_lower, group.weight);
    EXPECT_DOUBLE_EQ(group.count_upper, group.weight);
  }
  EXPECT_GE(response.latency_seconds, 0.0);

  HealthSnapshot health = service.Health();
  EXPECT_TRUE(health.ready);
  EXPECT_EQ(health.workers, 2);
  ASSERT_EQ(health.datasets.size(), 1u);
  EXPECT_EQ(health.datasets[0].name, "cites");
  EXPECT_FALSE(health.datasets[0].online);
  EXPECT_EQ(health.datasets[0].breaker, BreakerState::kClosed);
  EXPECT_GE(health.datasets[0].served, 1u);
}

TEST_F(ServeTest, RegistrationBuildsNoIndexBeforeCalibration) {
  Watchdog watchdog(120);
  auto& registry = metrics::Registry::Global();
  metrics::Counter* hits = registry.GetCounter("predicates.index_cache.hits");
  metrics::Counter* misses =
      registry.GetCounter("predicates.index_cache.misses");
  ServiceOptions options = QuietOptions();
  options.calibrate_on_register = false;
  QueryService service(options);

  const uint64_t hits_before = hits->Value();
  const uint64_t misses_before = misses->Value();
  ASSERT_TRUE(
      service.RegisterDataset("cites", MakeCitationBundle(data_)).ok());
  // Without the calibration query nothing looks an index up yet.
  EXPECT_EQ(hits->Value(), hits_before);
  EXPECT_EQ(misses->Value(), misses_before);
  HealthSnapshot health = service.Health();
  ASSERT_EQ(health.datasets.size(), 1u);
  EXPECT_EQ(health.datasets[0].index_bytes, 0u);

  // The first query builds and caches the indexes it looks up.
  QueryResponse response = service.Execute(CountRequest("cites"));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.outcome, ServedOutcome::kExact);
  EXPECT_GT(misses->Value(), misses_before);
  health = service.Health();
  ASSERT_EQ(health.datasets.size(), 1u);
  EXPECT_GT(health.datasets[0].index_bytes, 0u);
}

TEST_F(ServeTest, ValidationAndTypedErrors) {
  Watchdog watchdog(120);
  QueryService service(QuietOptions());
  ASSERT_TRUE(
      service.RegisterDataset("cites", MakeCitationBundle(data_)).ok());
  ASSERT_TRUE(service.RegisterOnline("stream", MakeExactKeyStream()).ok());

  // Unknown dataset.
  QueryResponse missing = service.Execute(CountRequest("nope"));
  EXPECT_EQ(missing.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(missing.outcome, ServedOutcome::kError);

  // Bad k / r.
  QueryRequest bad_k = CountRequest("cites");
  bad_k.k = 0;
  EXPECT_EQ(service.Execute(bad_k).status.code(),
            StatusCode::kInvalidArgument);
  QueryRequest bad_r = CountRequest("cites");
  bad_r.r = 0;
  EXPECT_EQ(service.Execute(bad_r).status.code(),
            StatusCode::kInvalidArgument);

  // Rank queries require a static dataset.
  QueryRequest rank_online = CountRequest("stream");
  rank_online.kind = QueryKind::kTopKRank;
  EXPECT_EQ(service.Execute(rank_online).status.code(),
            StatusCode::kInvalidArgument);

  // Duplicate registration is rejected without clobbering the original.
  EXPECT_EQ(service.RegisterDataset("cites", MakeCitationBundle(data_))
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.RegisterOnline("stream", MakeExactKeyStream()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(service.Execute(CountRequest("cites")).status.ok());

  // Ingest into a static dataset is a typed error too.
  EXPECT_EQ(service.Ingest("cites", KeyMention("x")).code(),
            StatusCode::kFailedPrecondition);

  // Rank queries on the static dataset do work.
  QueryRequest rank = CountRequest("cites");
  rank.kind = QueryKind::kTopKRank;
  QueryResponse ranked = service.Execute(rank);
  ASSERT_TRUE(ranked.status.ok()) << ranked.status.ToString();
  ASSERT_TRUE(ranked.rank.has_value());
  EXPECT_FALSE(ranked.rank->ranked.empty());
}

TEST_F(ServeTest, WorkBudgetYieldsSoundDegradedAnswer) {
  Watchdog watchdog(120);
  QueryService service(QuietOptions());
  ASSERT_TRUE(
      service.RegisterDataset("cites", MakeCitationBundle(data_)).ok());

  QueryRequest starved = CountRequest("cites");
  starved.work_budget = 1;  // Deterministically expires immediately.
  QueryResponse response = service.Execute(starved);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.outcome, ServedOutcome::kDegraded);
  EXPECT_NE(response.result.quality, topk::AnswerQuality::kExact);
  EXPECT_TRUE(response.result.degradation.degraded);
  ASSERT_FALSE(response.result.answers.empty());
  for (const auto& group : response.result.answers[0].groups) {
    // Degraded intervals stay ordered and bracket the observed weight.
    EXPECT_LE(group.count_lower, group.weight + 1e-9);
    EXPECT_GE(group.count_upper, group.weight - 1e-9);
  }
}

TEST_F(ServeTest, BreakerTripsServesCachedBoundsAndRecovers) {
  ScopedDisarm disarm;
  Watchdog watchdog(120);
  const std::string dir = ::testing::TempDir() + "/serve_breaker_" +
                          std::to_string(::getpid());
  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  auto clock_ms = std::make_shared<std::atomic<int64_t>>(0);
  ServiceOptions options = QuietOptions();
  options.wal_dir = dir;
  options.breaker.window = 8;
  options.breaker.min_samples = 4;
  options.breaker.trip_ratio = 0.5;
  options.breaker.cooldown_ms = 1000;
  options.breaker.probe_quota = 1;
  options.breaker.now_ms = [clock_ms] { return clock_ms->load(); };
  QueryService service(options);
  ASSERT_TRUE(service.RegisterOnline("stream", MakeExactKeyStream()).ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        service.Ingest("stream", KeyMention("k" + std::to_string(i % 2)))
            .ok());
  }
  // The exact answer seeds the bounds cache the open breaker will serve
  // from.
  QueryResponse baseline = service.Execute(CountRequest("stream", 2));
  ASSERT_TRUE(baseline.status.ok()) << baseline.status.ToString();
  const double exact_top = baseline.result.answers[0].groups[0].weight;

  // Trip the breaker with failed durable ingests, each the typed WAL
  // error. The baseline success already sits in the window, so the
  // breaker opens on the third failure.
  fault::ArmForTest("wal.append", 1.0, 21);
  int failures_seen = 0;
  for (int i = 0; i < 16; ++i) {
    Status failed = service.Ingest("stream", KeyMention("k0"));
    EXPECT_EQ(failed.code(), StatusCode::kInternal) << failed.ToString();
    ++failures_seen;
    if (service.Health().datasets[0].breaker == BreakerState::kOpen) break;
  }
  fault::DisarmAllForTest();
  HealthSnapshot tripped = service.Health();
  ASSERT_EQ(tripped.datasets.size(), 1u);
  EXPECT_EQ(tripped.datasets[0].breaker, BreakerState::kOpen);
  EXPECT_EQ(failures_seen, 3);
  EXPECT_EQ(metrics::Registry::Global()
                .GetGauge("serve.breaker_state.stream")
                ->Value(),
            static_cast<double>(BreakerState::kOpen));

  // Open breaker: bounds-only cached answer, no execution. The failed
  // ingests were rolled back, so nothing was published since the cached
  // epoch and the interval is not widened.
  const uint64_t served_while_open = tripped.datasets[0].served;
  QueryResponse degraded = service.Execute(CountRequest("stream", 2));
  ASSERT_TRUE(degraded.status.ok()) << degraded.status.ToString();
  EXPECT_EQ(degraded.outcome, ServedOutcome::kBreakerDegraded);
  EXPECT_EQ(degraded.result.quality, topk::AnswerQuality::kBoundsOnly);
  EXPECT_EQ(degraded.attempts, 0);
  EXPECT_DOUBLE_EQ(degraded.staleness_weight, 0.0);
  ASSERT_FALSE(degraded.result.answers.empty());
  ASSERT_FALSE(degraded.result.answers[0].groups.empty());
  const auto& top = degraded.result.answers[0].groups[0];
  // The cached interval still brackets the true top count.
  EXPECT_LE(top.count_lower, exact_top + 1e-9);
  EXPECT_GE(top.count_upper, exact_top - 1e-9);
  EXPECT_EQ(service.Health().datasets[0].served, served_while_open);

  // Callers that refuse degraded answers get the typed rejection.
  QueryRequest strict = CountRequest("stream", 2);
  strict.allow_degraded = false;
  EXPECT_EQ(service.Execute(strict).status.code(),
            StatusCode::kFailedPrecondition);

  // Cooldown elapses on the injected clock; the clean probe closes it.
  clock_ms->store(options.breaker.cooldown_ms + 1);
  QueryResponse probe = service.Execute(CountRequest("stream", 2));
  ASSERT_TRUE(probe.status.ok()) << probe.status.ToString();
  EXPECT_EQ(probe.outcome, ServedOutcome::kExact);
  HealthSnapshot recovered = service.Health();
  EXPECT_EQ(recovered.datasets[0].breaker, BreakerState::kClosed);
  EXPECT_TRUE(recovered.ready);
  EXPECT_EQ(metrics::Registry::Global()
                .GetGauge("serve.breaker_state.stream")
                ->Value(),
            static_cast<double>(BreakerState::kClosed));
}

/// A count request with r above topk::kMaxAnswers is the caller's error:
/// it is rejected at Submit, before it takes a queue slot or a worker, and
/// never counts against the dataset's breaker.
TEST_F(ServeTest, CountRequestAboveMaxAnswersIsRejectedAtSubmit) {
  Watchdog watchdog(120);
  ServiceOptions options = QuietOptions();
  options.breaker = BreakerOptions{};
  QueryService service(options);
  ASSERT_TRUE(
      service.RegisterDataset("cites", MakeCitationBundle(data_)).ok());

  QueryRequest too_many = CountRequest("cites");
  too_many.r = 100;
  for (int i = 0; i < 16; ++i) {
    QueryResponse rejected = service.Execute(too_many);
    EXPECT_EQ(rejected.status.code(), StatusCode::kInvalidArgument)
        << rejected.status.ToString();
    EXPECT_EQ(rejected.outcome, ServedOutcome::kError);
    EXPECT_EQ(rejected.attempts, 0);
  }
  EXPECT_EQ(service.Health().datasets[0].breaker, BreakerState::kClosed);

  QueryResponse valid = service.Execute(CountRequest("cites"));
  ASSERT_TRUE(valid.status.ok()) << valid.status.ToString();
  EXPECT_EQ(valid.outcome, ServedOutcome::kExact);

  // Rank queries ignore r.
  QueryRequest rank = CountRequest("cites");
  rank.kind = QueryKind::kTopKRank;
  rank.r = 100;
  EXPECT_TRUE(service.Execute(rank).status.ok());
}

TEST_F(ServeTest, QueueOverflowShedsTypedAndEveryFutureResolves) {
  Watchdog watchdog(120);
  ServiceOptions options = QuietOptions();
  options.workers = 1;
  options.queue_capacity = 2;
  QueryService service(options);
  ASSERT_TRUE(
      service.RegisterDataset("cites", MakeCitationBundle(data_)).ok());

  const uint64_t shed_before =
      metrics::Registry::Global().GetCounter("serve.shed.queue_full")->Value();
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 24; ++i) {
    futures.push_back(service.Submit(CountRequest("cites")));
  }
  int ok_count = 0;
  int shed_count = 0;
  for (auto& future : futures) {
    QueryResponse response = future.get();
    if (response.status.ok()) {
      ++ok_count;
      // A slow run (e.g. under TSan) may exhaust the wall slice
      // mid-query and answer degraded — still an answer.
      EXPECT_TRUE(response.outcome == ServedOutcome::kExact ||
                  response.outcome == ServedOutcome::kDegraded)
          << ServedOutcomeName(response.outcome);
    } else {
      ASSERT_EQ(response.status.code(), StatusCode::kResourceExhausted)
          << response.status.ToString();
      EXPECT_EQ(response.outcome, ServedOutcome::kShed);
      ++shed_count;
    }
  }
  // 24 arrivals against capacity 2 and one worker: some are served, the
  // overflow is shed — and nothing is silently dropped.
  EXPECT_GE(ok_count, 1);
  EXPECT_GE(shed_count, 1);
  EXPECT_EQ(ok_count + shed_count, 24);
  EXPECT_GT(
      metrics::Registry::Global().GetCounter("serve.shed.queue_full")->Value(),
      shed_before);
  HealthSnapshot health = service.Health();
  EXPECT_GE(health.shed, static_cast<uint64_t>(shed_count));
  service.Drain();
  EXPECT_EQ(service.Health().queue_depth, 0u);
}

/// Acceptance scenario: concurrent mixed queries (static count, starved
/// count, rank, online count) racing durable online ingestion whose WAL
/// appends fail with probability 0.3. Every request must come back as an
/// exact answer, a sound degraded answer, or a typed rejection — no
/// aborts, no hangs (watchdog), nothing silently lost.
TEST_F(ServeTest, AcceptanceConcurrentQueriesUnderFaults) {
  ScopedDisarm disarm;
  Watchdog watchdog(120);
  const std::string dir = ::testing::TempDir() + "/serve_accept_" +
                          std::to_string(::getpid());
  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  ServiceOptions options = QuietOptions();
  options.wal_dir = dir;
  options.wal.fsync = WalFsyncPolicy::kNever;
  options.workers = 4;
  options.queue_capacity = 64;
  options.default_deadline_ms = 5000;
  options.breaker.window = 16;
  options.breaker.min_samples = 8;
  options.breaker.trip_ratio = 0.6;
  options.breaker.cooldown_ms = 50;
  options.breaker.probe_quota = 2;
  QueryService service(options);
  ASSERT_TRUE(
      service.RegisterDataset("cites", MakeCitationBundle(data_)).ok());
  ASSERT_TRUE(service.RegisterOnline("stream", MakeExactKeyStream()).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        service.Ingest("stream", KeyMention("seed" + std::to_string(i % 4)))
            .ok());
  }

  fault::ArmForTest("wal.append", 0.3, 99);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 6;
  std::mutex results_mu;
  std::vector<QueryResponse> results;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        QueryRequest request;
        switch ((t + i) % 4) {
          case 0:
            request = CountRequest("cites");
            break;
          case 1:
            request = CountRequest("cites", 3);
            request.work_budget = 500;  // Often degrades, always sound.
            break;
          case 2:
            request = CountRequest("cites", 3);
            request.kind = QueryKind::kTopKRank;
            break;
          default:
            request = CountRequest("stream", 2);
            break;
        }
        QueryResponse response = service.Execute(request);
        // Keep the ingest side racing the queries; a failed ingest is
        // rolled back and leaves the stream as it was.
        (void)service.Ingest("stream",
                             KeyMention("t" + std::to_string(t)));
        std::lock_guard<std::mutex> lock(results_mu);
        results.push_back(std::move(response));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  service.Drain();
  // Read before disarming — DisarmAllForTest resets the counter.
  const uint64_t fires = fault::FireCount("wal.append");
  fault::DisarmAllForTest();

  ASSERT_EQ(results.size(),
            static_cast<size_t>(kThreads * kPerThread));
  for (const QueryResponse& response : results) {
    if (response.status.ok()) {
      EXPECT_TRUE(response.outcome == ServedOutcome::kExact ||
                  response.outcome == ServedOutcome::kDegraded ||
                  response.outcome == ServedOutcome::kBreakerDegraded)
          << ServedOutcomeName(response.outcome);
      if (response.outcome == ServedOutcome::kBreakerDegraded) {
        EXPECT_EQ(response.result.quality,
                  topk::AnswerQuality::kBoundsOnly);
      }
    } else {
      // Typed rejections only: load shed, or breaker-open with no
      // degradable answer.
      const StatusCode code = response.status.code();
      EXPECT_TRUE(code == StatusCode::kResourceExhausted ||
                  code == StatusCode::kFailedPrecondition)
          << response.status.ToString();
    }
  }
  // The fault mix actually failed some ingests.
  EXPECT_GE(fires, 1u);
  EXPECT_GE(service.Health().admitted, 1u);
}

TEST_F(ServeTest, OnlineIngestRacesQueriesAndEndsConsistent) {
  Watchdog watchdog(120);
  QueryService service(QuietOptions());
  ASSERT_TRUE(service.RegisterOnline("stream", MakeExactKeyStream()).ok());
  ASSERT_TRUE(service.Ingest("stream", KeyMention("hot")).ok());

  const std::vector<std::string> keys = {"a", "b", "c", "d", "e"};
  constexpr int kIngestThreads = 2;
  constexpr int kPerIngestThread = 150;
  std::atomic<int> query_failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kIngestThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerIngestThread; ++i) {
        Status status =
            service.Ingest("stream", KeyMention(keys[i % keys.size()]));
        if (!status.ok()) query_failures.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10; ++i) {
        QueryResponse response = service.Execute(CountRequest("stream", 3));
        // Every racing query sees a consistent snapshot: an answer, never
        // a crash or torn state.
        if (!response.status.ok() ||
            response.result.answers.empty()) {
          query_failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  service.Drain();
  EXPECT_EQ(query_failures.load(), 0);

  // Final state is exact: each key was ingested 2 * 150 / 5 = 60 times.
  // Ask for k = all six groups — with k below the group count the
  // segmentation DP may merge zero-score non-candidate groups, which is
  // query semantics, not an ingest consistency question.
  EXPECT_EQ(service.Health().datasets[0].records, 301u);
  QueryResponse final_response = service.Execute(CountRequest("stream", 6));
  ASSERT_TRUE(final_response.status.ok());
  EXPECT_EQ(final_response.outcome, ServedOutcome::kExact);
  ASSERT_FALSE(final_response.result.answers.empty());
  ASSERT_EQ(final_response.result.answers[0].groups.size(), 6u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(final_response.result.answers[0].groups[i].weight, 60.0);
  }
  EXPECT_DOUBLE_EQ(final_response.result.answers[0].groups[5].weight, 1.0);
}

/// Destruction ordering: ~QueryService must Drain() and sync the WAL
/// *before* stopping the workers — a restart over the same wal_dir then
/// rebuilds bit-identical state. The WAL holding every acknowledged mention
/// as a frame is the observable proof.
TEST_F(ServeTest, DestructorFlushesDurableStateBeforeStoppingWorkers) {
  Watchdog watchdog(120);
  const std::string dir = ::testing::TempDir() + "/serve_dtor_" +
                          std::to_string(::getpid());
  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  ServiceOptions options = QuietOptions();
  options.calibrate_on_register = false;
  options.wal_dir = dir;

  std::vector<double> want_weights;
  {
    QueryService service(options);
    ASSERT_TRUE(service.RegisterOnline("stream", MakeExactKeyStream()).ok());
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(
          service.Ingest("stream", KeyMention("key" + std::to_string(i % 4)))
              .ok());
    }
    QueryResponse response = service.Execute(CountRequest("stream", 4));
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    for (const auto& group : response.result.answers[0].groups) {
      want_weights.push_back(group.weight);
    }
    // Destructor runs here: Drain → WAL sync → stop.
  }
  // The log holds every acknowledged mention, one frame each, seq 0..39;
  // a crash after this point loses nothing.
  {
    WalReplay replay;
    auto wal = WriteAheadLog::Open(dir + "/stream.wal", WalOptions{},
                                   &replay);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_EQ(replay.records.size(), 40u);
    for (uint64_t i = 0; i < 40; ++i) {
      EXPECT_EQ(replay.records[i].first, i);
    }
  }

  QueryService service(options);
  ASSERT_TRUE(service.RegisterOnline("stream", MakeExactKeyStream()).ok());
  EXPECT_EQ(service.Health().datasets[0].records, 40u);
  QueryResponse response = service.Execute(CountRequest("stream", 4));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_EQ(response.result.answers[0].groups.size(), want_weights.size());
  for (size_t g = 0; g < want_weights.size(); ++g) {
    EXPECT_DOUBLE_EQ(response.result.answers[0].groups[g].weight,
                     want_weights[g]);
  }
}

TEST_F(ServeTest, SaturatingLoadAnsweredWithinBudgetShedAbsorbsRest) {
  Watchdog watchdog(120);
  ServiceOptions options = QuietOptions();
  options.workers = 2;
  options.queue_capacity = 8;
  options.default_deadline_ms = 1500;
  QueryService service(options);
  ASSERT_TRUE(
      service.RegisterDataset("cites", MakeCitationBundle(data_)).ok());

  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 40; ++i) {
    futures.push_back(service.Submit(CountRequest("cites")));
  }
  int answered = 0;
  int shed = 0;
  double worst_answered_latency = 0.0;
  for (auto& future : futures) {
    QueryResponse response = future.get();
    if (response.status.ok()) {
      ++answered;
      worst_answered_latency =
          std::max(worst_answered_latency, response.latency_seconds);
    } else {
      EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
      ++shed;
    }
  }
  EXPECT_EQ(answered + shed, 40);
  EXPECT_GE(answered, 1);
  // LIFO service + eviction + expired-in-queue shedding keep answered
  // requests inside their wall budget (slack covers one execution already
  // in flight when the deadline lands).
  EXPECT_LE(worst_answered_latency,
            options.default_deadline_ms / 1000.0 + 1.0);
  service.Drain();
}

TEST_F(ServeTest, RequestLogEmitsExactlyOneLinePerUnusualQuery) {
  Watchdog watchdog(120);
  ServiceOptions options = QuietOptions();
  options.request_log.ok_sample_every = 0;  // Suppress all healthy lines.
  QueryService service(options);
  ASSERT_TRUE(
      service.RegisterDataset("cites", MakeCitationBundle(data_)).ok());

  // Healthy exact answer: sampled out, no line.
  QueryResponse healthy = service.Execute(CountRequest("cites"));
  ASSERT_TRUE(healthy.status.ok());
  ASSERT_EQ(healthy.outcome, ServedOutcome::kExact);
  EXPECT_TRUE(service.request_log().RecentLines().empty());

  // Degraded answer: always exactly one line, carrying the degradation
  // stage and the response's query id.
  QueryRequest starved = CountRequest("cites");
  starved.work_budget = 1;
  QueryResponse degraded = service.Execute(starved);
  ASSERT_TRUE(degraded.status.ok());
  ASSERT_EQ(degraded.outcome, ServedOutcome::kDegraded);
  std::vector<std::string> lines = service.request_log().RecentLines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"query_id\":" +
                          std::to_string(degraded.query_id)),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"outcome\":\"degraded\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(lines[0].find("\"degradation_stage\""), std::string::npos);

  // Errored query (r above the limit, rejected at Submit): one line,
  // non-ok status, no attempt.
  QueryRequest too_many = CountRequest("cites");
  too_many.r = 100;
  QueryResponse errored = service.Execute(too_many);
  ASSERT_EQ(errored.status.code(), StatusCode::kInvalidArgument);
  lines = service.request_log().RecentLines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("\"query_id\":" +
                          std::to_string(errored.query_id)),
            std::string::npos);
  EXPECT_NE(lines[1].find("\"outcome\":\"error\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"attempts\":0"), std::string::npos);

  // Rejected-at-submit (unknown dataset): still exactly one line.
  QueryResponse rejected = service.Execute(CountRequest("nope"));
  ASSERT_EQ(rejected.status.code(), StatusCode::kNotFound);
  lines = service.request_log().RecentLines();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[2].find("\"query_id\":" +
                          std::to_string(rejected.query_id)),
            std::string::npos);

  // Every emitted line is one valid single-line JSON object.
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_EQ(line.find('\n'), std::string::npos);
  }
  EXPECT_EQ(service.request_log().emitted() >= 3, true);
}

TEST_F(ServeTest, RequestLogHeadSamplingIsDeterministic) {
  // The 1-in-N verdict is a pure hash of the query id: the same id always
  // gets the same verdict, the emission rate is roughly 1/N, and
  // every-query / no-query modes behave as documented.
  RequestLogOptions options;
  options.ok_sample_every = 16;
  RequestLog log(options);
  int admitted = 0;
  for (uint64_t id = 1; id <= 1600; ++id) {
    const bool verdict = log.AdmitOk(id);
    EXPECT_EQ(verdict, log.AdmitOk(id));  // Stable per id.
    if (verdict) ++admitted;
  }
  EXPECT_GT(admitted, 50);   // ~100 expected at 1/16.
  EXPECT_LT(admitted, 200);
  RequestLogOptions all;
  all.ok_sample_every = 1;
  RequestLog log_all(all);
  EXPECT_TRUE(log_all.AdmitOk(123));
  RequestLogOptions none;
  none.ok_sample_every = 0;
  RequestLog log_none(none);
  EXPECT_FALSE(log_none.AdmitOk(123));
}

TEST_F(ServeTest, QueryIdJoinsSpansRequestLogAndExplainCapture) {
  Watchdog watchdog(120);
  ServiceOptions options = QuietOptions();
  options.request_log.ok_sample_every = 1;
  options.request_log.slow_ms = 1;  // Every real query counts as slow.
  options.request_log.slow_explain_sample_rate = 1.0;
  QueryService service(options);
  ASSERT_TRUE(
      service.RegisterDataset("cites", MakeCitationBundle(data_)).ok());

  QueryResponse response = service.Execute(CountRequest("cites"));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_NE(response.query_id, 0u);
  const std::string id_key =
      "\"query_id\":" + std::to_string(response.query_id);

  // The always-on trace ring holds a serve.query span whose query_id arg
  // is the response's id — the span side of the join.
  bool span_found = false;
  for (const trace::TraceEvent& event : trace::RingSnapshot()) {
    if (std::string_view(event.name) != "serve.query") continue;
    for (int a = 0; a < event.nargs; ++a) {
      if (std::string_view(event.args[a].first) == "query_id" &&
          event.args[a].second ==
              static_cast<int64_t>(response.query_id)) {
        span_found = true;
      }
    }
  }
  EXPECT_TRUE(span_found);

  // The request-log side: one line with the same id, marked slow.
  bool line_found = false;
  for (const std::string& line : service.request_log().RecentLines()) {
    if (line.find(id_key) != std::string::npos) {
      line_found = true;
      EXPECT_NE(line.find("\"slow\":true"), std::string::npos);
    }
  }
  EXPECT_TRUE(line_found);

  // The slow capture pairs that line with the armed explain report, and
  // the report itself carries the id (obs::ExplainReport::query_id).
  const std::string debug = service.request_log().DebugQueriesJson();
  EXPECT_NE(debug.find("\"slow\":["), std::string::npos);
  EXPECT_NE(debug.find(id_key), std::string::npos);
  EXPECT_NE(debug.find("\"explain\":{"), std::string::npos);
  const size_t explain_pos = debug.find("\"explain\":{");
  EXPECT_NE(debug.find(id_key, explain_pos), std::string::npos);
  // The captured report is annotated with the query's measured CPU and
  // per-stage breakdown (ExplainReport::resources).
  EXPECT_NE(debug.find("\"resources\":{\"cpu_ms\":", explain_pos),
            std::string::npos);
  EXPECT_NE(debug.find("\"stages_ms\":{", explain_pos), std::string::npos);
}

/// Pulls "key":<number> out of a JSON line (flat keys only — good enough
/// for the request log's own output).
double JsonNumber(const std::string& line, const std::string& key) {
  const size_t at = line.find("\"" + key + "\":");
  if (at == std::string::npos) return -1.0;
  return std::atof(line.c_str() + at + key.size() + 3);
}

TEST_F(ServeTest, CpuAttributionFlowsToResponseAndRequestLog) {
  Watchdog watchdog(120);
  ServiceOptions options = QuietOptions();
  options.request_log.ok_sample_every = 1;  // Emit the healthy line too.
  QueryService service(options);
  ASSERT_TRUE(
      service.RegisterDataset("cites", MakeCitationBundle(data_)).ok());

  QueryResponse response = service.Execute(CountRequest("cites"));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_EQ(response.outcome, ServedOutcome::kExact);

  // The response carries measured CPU and a per-stage breakdown whose sum
  // IS the total (exclusive-interval charging; DESIGN.md §6i).
  EXPECT_GT(response.cpu_seconds, 0.0);
  ASSERT_FALSE(response.stage_cpu_seconds.empty());
  double stage_sum = 0.0;
  for (const auto& [stage, seconds] : response.stage_cpu_seconds) {
    EXPECT_FALSE(stage.empty());
    EXPECT_GE(seconds, 0.0);
    stage_sum += seconds;
  }
  EXPECT_NEAR(stage_sum, response.cpu_seconds,
              1e-9 * std::max(1.0, response.cpu_seconds));

  // The request-log line reconciles too, within print rounding: every
  // value renders at 1e-4 ms, so sum-vs-total divergence is bounded by
  // (stages + 1) * 5e-5 ms — 0.01 ms is generous.
  std::vector<std::string> lines = service.request_log().RecentLines();
  ASSERT_FALSE(lines.empty());
  std::string line;
  for (const std::string& candidate : lines) {
    if (candidate.find("\"query_id\":" +
                       std::to_string(response.query_id)) !=
        std::string::npos) {
      line = candidate;
    }
  }
  ASSERT_FALSE(line.empty());
  const double cpu_ms = JsonNumber(line, "cpu_ms");
  EXPECT_GT(cpu_ms, 0.0);
  const size_t stages_at = line.find("\"cpu_stages\":{");
  ASSERT_NE(stages_at, std::string::npos);
  const size_t stages_end = line.find('}', stages_at);
  double logged_sum = 0.0;
  size_t colon = line.find("\":", stages_at + 14);
  while (colon != std::string::npos && colon < stages_end) {
    logged_sum += std::atof(line.c_str() + colon + 2);
    colon = line.find("\":", colon + 2);
  }
  EXPECT_NEAR(logged_sum, cpu_ms, 0.01);

  // The sliding-window top-consumer tables saw the query.
  const auto by_dataset = service.TopCpuByDataset(5);
  ASSERT_FALSE(by_dataset.empty());
  EXPECT_EQ(by_dataset[0].first, "cites");
  EXPECT_GT(by_dataset[0].second, 0.0);
  EXPECT_FALSE(service.TopCpuByStage(5).empty());
  EXPECT_GT(service.cpu_window_seconds(), 0.0);
}

/// The integral LevelStats fields and M: everything but the timings.
auto LevelWork(const dedup::LevelStats& s) {
  return std::make_tuple(s.n_after_collapse, s.m, s.M, s.n_after_prune,
                         s.records_collapsed, s.groups_pruned,
                         s.cpn_growth_iterations, s.cpn_edges_examined,
                         s.blocking_probes, s.predicate_evals,
                         s.postings_scanned, s.postings_decoded,
                         s.blocks_decoded, s.blocks_skipped);
}

TEST_F(ServeTest, PerQueryCountersAreExactAtOneAndFourWorkers) {
  Watchdog watchdog(240);
  // Identical count requests: every response reports the same counters and
  // level stats, whether the queries ran one at a time or overlapped on
  // four workers.
  std::vector<QueryResponse> responses;
  for (int workers : {1, 4}) {
    ServiceOptions options = QuietOptions();
    options.workers = workers;
    options.default_deadline_ms = 60000;
    options.max_deadline_ms = 60000;
    QueryService service(options);
    ASSERT_TRUE(
        service.RegisterDataset("cites", MakeCitationBundle(data_)).ok());
    // The warm-up fills the candidate memo of every cached index the
    // requests touch; from then on each request replays the same lists.
    ASSERT_TRUE(service.Execute(CountRequest("cites")).status.ok());
    std::vector<std::future<QueryResponse>> futures;
    for (int i = 0; i < 16; ++i) {
      futures.push_back(service.Submit(CountRequest("cites")));
    }
    for (std::future<QueryResponse>& future : futures) {
      QueryResponse response = future.get();
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      ASSERT_EQ(response.outcome, ServedOutcome::kExact);
      responses.push_back(std::move(response));
    }
  }
  const topk::TopKCountResult& reference = responses.front().result;
  ASSERT_GT(metrics::CounterValue(reference.counters,
                                  "predicates.blocked_index.candidates"),
            0u);
  for (const QueryResponse& response : responses) {
    EXPECT_EQ(response.result.counters, reference.counters)
        << "query " << response.query_id;
    ASSERT_EQ(response.result.pruning.levels.size(),
              reference.pruning.levels.size());
    for (size_t l = 0; l < reference.pruning.levels.size(); ++l) {
      EXPECT_EQ(LevelWork(response.result.pruning.levels[l]),
                LevelWork(reference.pruning.levels[l]))
          << "query " << response.query_id << " level " << l;
    }
  }
}

TEST_F(ServeTest, RankQueryLogsTheWholeQuerysWork) {
  Watchdog watchdog(120);
  ServiceOptions options = QuietOptions();
  options.request_log.ok_sample_every = 1;
  QueryService service(options);
  ASSERT_TRUE(
      service.RegisterDataset("cites", MakeCitationBundle(data_)).ok());
  QueryRequest request;
  request.dataset = "cites";
  request.kind = QueryKind::kTopKRank;
  request.k = 5;
  const metrics::MetricsSnapshot before =
      metrics::Registry::Global().Snapshot();
  const QueryResponse response = service.Execute(request);
  const metrics::MetricsSnapshot ran = metrics::MetricsSnapshot::Delta(
      before, metrics::Registry::Global().Snapshot());
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_EQ(response.outcome, ServedOutcome::kExact);
  // Run alone, the query is the only source of candidates in the delta —
  // including those its §7.1 neighbour lists enumerate after pruning.
  const uint64_t candidates =
      ran.CounterValue("predicates.blocked_index.candidates");
  ASSERT_GT(candidates, 0u);
  std::string line;
  for (const std::string& candidate : service.request_log().RecentLines()) {
    if (candidate.find("\"query_id\":" +
                       std::to_string(response.query_id)) !=
        std::string::npos) {
      line = candidate;
    }
  }
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(JsonNumber(line, "predicates.blocked_index.candidates"),
            static_cast<double>(candidates));
}

TEST_F(ServeTest, PredictedMissShedCitesThePrediction) {
  Watchdog watchdog(120);
  ServiceOptions options = QuietOptions();
  options.request_log.ok_sample_every = 0;  // Sheds always emit anyway.
  QueryService service(options);
  // Registration calibrates, seeding the dataset's cost estimate.
  ASSERT_TRUE(
      service.RegisterDataset("cites", MakeCitationBundle(data_)).ok());
  HealthSnapshot health = service.Health();
  ASSERT_EQ(health.datasets.size(), 1u);
  EXPECT_GE(health.datasets[0].cost_samples, 1u);

  // A 1 ms budget is far below the measured cost of an exact query over
  // 800 records: the shedder must refuse up front, citing the prediction.
  QueryRequest starved = CountRequest("cites");
  starved.deadline_ms = 1;
  QueryResponse shed = service.Execute(starved);
  ASSERT_EQ(shed.outcome, ServedOutcome::kShed);
  EXPECT_EQ(shed.shed_reason, "predicted_miss");
  EXPECT_NE(shed.status.message().find("exceeds budget 1ms"),
            std::string::npos)
      << shed.status.ToString();
  EXPECT_DOUBLE_EQ(shed.cpu_seconds, 0.0);  // Never executed.

  std::vector<std::string> lines = service.request_log().RecentLines();
  ASSERT_FALSE(lines.empty());
  const std::string& line = lines.back();
  EXPECT_NE(line.find("\"shed_reason\":\"predicted_miss\""),
            std::string::npos);
  // The refusal is auditable: the line records the predicted wall cost.
  EXPECT_GT(JsonNumber(line, "shed_predicted_ms"), 1.0);
}

/// Only executed queries feed the cost estimate: a cache hit and a
/// predicted-miss shed run nothing, so they leave it as it was.
TEST_F(ServeTest, CostEstimateFollowsExecutedQueriesOnly) {
  Watchdog watchdog(120);
  ServiceOptions options = QuietOptions();
  options.cache.enabled = true;
  QueryService service(options);
  ASSERT_TRUE(
      service.RegisterDataset("cites", MakeCitationBundle(data_)).ok());
  const auto estimate = [&service] {
    const HealthSnapshot health = service.Health();
    TOPKDUP_CHECK(health.datasets.size() == 1);
    return health.datasets[0];
  };
  DatasetHealth ds = estimate();
  EXPECT_EQ(ds.cost_samples, 1u);  // The calibration query.
  EXPECT_GT(ds.predicted_wall_seconds, 0.0);

  // k = 4 is a shape the calibration query (k = 5) did not cache, so the
  // request executes and folds in.
  const QueryResponse executed = service.Execute(CountRequest("cites", 4));
  ASSERT_TRUE(executed.status.ok()) << executed.status.ToString();
  EXPECT_EQ(executed.cache, "miss");
  EXPECT_EQ(executed.attempts, 1);
  ds = estimate();
  EXPECT_EQ(ds.cost_samples, 2u);
  EXPECT_GT(ds.predicted_wall_seconds, 0.0);

  // The same shape again is answered from the cache.
  const QueryResponse hit = service.Execute(CountRequest("cites", 4));
  ASSERT_TRUE(hit.status.ok()) << hit.status.ToString();
  EXPECT_EQ(hit.cache, "hit");
  EXPECT_EQ(hit.attempts, 0);
  ds = estimate();
  EXPECT_EQ(ds.cost_samples, 2u);
  EXPECT_GT(ds.predicted_wall_seconds, 0.0);

  // A 1 ms budget on another uncached shape (k = 3) passes the cache and
  // is shed before it runs.
  QueryRequest starved = CountRequest("cites", 3);
  starved.deadline_ms = 1;
  const QueryResponse shed = service.Execute(starved);
  ASSERT_EQ(shed.outcome, ServedOutcome::kShed);
  EXPECT_EQ(shed.shed_reason, "predicted_miss");
  EXPECT_EQ(shed.attempts, 0);
  ds = estimate();
  EXPECT_EQ(ds.cost_samples, 2u);
  EXPECT_GT(ds.predicted_wall_seconds, 0.0);
}

TEST_F(ServeTest, RequestLogRotatesAtMaxBytes) {
  const std::string path = ::testing::TempDir() + "/reqlog_rot_" +
                           std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  metrics::Counter* rotations =
      metrics::Registry::Global().GetCounter("serve.requestlog.rotations");
  const uint64_t rotations_before = rotations->Value();

  RequestLogOptions options;
  options.path = path;
  options.ok_sample_every = 1;
  options.max_bytes = 512;
  {
    RequestLog log(options);
    RequestLogEvent event;
    event.dataset = "cites";
    event.kind = "topk_count";
    event.status = "Internal";  // Unusual: always emitted.
    event.outcome = "error";
    for (int i = 0; i < 32; ++i) {
      event.query_id = static_cast<uint64_t>(i + 1);
      EXPECT_TRUE(log.Record(event));
    }
  }
  EXPECT_GT(rotations->Value(), rotations_before);
  // Rotation leaves the previous generation at "<path>.1" and keeps the
  // live file under the threshold (each line is ~300 bytes < max_bytes).
  struct ::stat rotated_stat;
  ASSERT_EQ(::stat((path + ".1").c_str(), &rotated_stat), 0);
  EXPECT_GT(rotated_stat.st_size, 0);
  struct ::stat live_stat;
  ASSERT_EQ(::stat(path.c_str(), &live_stat), 0);
  EXPECT_LE(live_stat.st_size, 512 + 400);
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

record::Record WeightedMention(const std::string& key, double weight) {
  record::Record r;
  r.fields = {key};
  r.weight = weight;
  return r;
}

TEST_F(ServeTest, AnswerCacheLruEvictionAndMostRecent) {
  AnswerCache cache(2);
  AnswerCache::Entry entry;
  entry.epoch = 1;
  cache.Insert(5, 1, entry);
  entry.epoch = 2;
  cache.Insert(3, 1, entry);
  EXPECT_EQ(cache.size(), 2u);
  // Touch (5,1) so (3,1) becomes the LRU victim.
  ASSERT_TRUE(cache.Lookup(5, 1).has_value());
  entry.epoch = 3;
  cache.Insert(7, 2, entry);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.Lookup(3, 1).has_value());  // Evicted.
  ASSERT_TRUE(cache.Lookup(5, 1).has_value());
  EXPECT_EQ(cache.Lookup(5, 1)->epoch, 1u);
  // MostRecent is insertion recency, not lookup recency.
  ASSERT_TRUE(cache.MostRecent().has_value());
  EXPECT_EQ(cache.MostRecent()->epoch, 3u);
  // Same-shape insert replaces in place.
  entry.epoch = 9;
  cache.Insert(5, 1, entry);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup(5, 1)->epoch, 9u);
}

TEST_F(ServeTest, CacheHitIsBitIdenticalAndEpochInvalidated) {
  Watchdog watchdog(120);
  ServiceOptions options = QuietOptions();
  options.cache.enabled = true;
  options.request_log.ok_sample_every = 1;
  QueryService service(options);
  ASSERT_TRUE(service.RegisterOnline("stream", MakeExactKeyStream()).ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        service.Ingest("stream", KeyMention("k" + std::to_string(i % 3)))
            .ok());
  }

  QueryResponse miss = service.Execute(CountRequest("stream", 3));
  ASSERT_TRUE(miss.status.ok()) << miss.status.ToString();
  EXPECT_EQ(miss.outcome, ServedOutcome::kExact);
  EXPECT_EQ(miss.cache, "miss");
  EXPECT_GT(miss.epoch, 0u);
  EXPECT_EQ(miss.epoch_mentions, 12u);

  // Same shape at the same epoch: a hit, bit-identical to executing.
  QueryResponse hit = service.Execute(CountRequest("stream", 3));
  ASSERT_TRUE(hit.status.ok());
  EXPECT_EQ(hit.cache, "hit");
  EXPECT_EQ(hit.outcome, ServedOutcome::kExact);
  EXPECT_EQ(hit.epoch, miss.epoch);
  ASSERT_EQ(hit.result.answers.size(), miss.result.answers.size());
  const auto& got = hit.result.answers[0].groups;
  const auto& want = miss.result.answers[0].groups;
  ASSERT_EQ(got.size(), want.size());
  for (size_t g = 0; g < got.size(); ++g) {
    EXPECT_EQ(got[g].representative, want[g].representative);
    EXPECT_EQ(got[g].weight, want[g].weight);  // Bit-identical, not NEAR.
    EXPECT_EQ(got[g].count_lower, want[g].count_lower);
    EXPECT_EQ(got[g].count_upper, want[g].count_upper);
  }

  // Publication invalidates: the next query misses and re-caches.
  ASSERT_TRUE(service.Ingest("stream", KeyMention("k0")).ok());
  QueryResponse fresh = service.Execute(CountRequest("stream", 3));
  ASSERT_TRUE(fresh.status.ok());
  EXPECT_EQ(fresh.cache, "miss");
  EXPECT_GT(fresh.epoch, miss.epoch);
  EXPECT_EQ(fresh.epoch_mentions, 13u);

  // A stale entry is served only to callers that opted in, as a widened
  // degraded answer that still brackets the truth.
  ASSERT_TRUE(service.Ingest("stream", KeyMention("k1")).ok());
  QueryRequest stale_req = CountRequest("stream", 3);
  stale_req.allow_stale = true;
  QueryResponse stale = service.Execute(stale_req);
  ASSERT_TRUE(stale.status.ok());
  EXPECT_EQ(stale.cache, "stale_hit");
  EXPECT_EQ(stale.outcome, ServedOutcome::kDegraded);
  EXPECT_EQ(stale.result.quality, topk::AnswerQuality::kBoundsOnly);
  EXPECT_EQ(stale.result.degradation.stage, "serve_cache_stale");
  EXPECT_EQ(stale.epoch, fresh.epoch);  // The epoch it was computed at.
  EXPECT_DOUBLE_EQ(stale.staleness_weight, 1.0);  // One mention since.
  // k0 truly has 6 now; the stale interval [5, 5+1] contains it.
  const auto& top = stale.result.answers[0].groups[0];
  EXPECT_LE(top.count_lower, 6.0);
  EXPECT_GE(top.count_upper, 6.0);

  // Satellite: the request-log lines join the pinned epoch and the cache
  // disposition to the query id.
  bool hit_line = false;
  bool stale_line = false;
  for (const std::string& line : service.request_log().RecentLines()) {
    if (line.find("\"query_id\":" + std::to_string(hit.query_id)) !=
        std::string::npos) {
      hit_line = true;
      EXPECT_NE(line.find("\"cache\":\"hit\""), std::string::npos);
      EXPECT_NE(line.find("\"epoch\":" + std::to_string(hit.epoch)),
                std::string::npos);
    }
    if (line.find("\"query_id\":" + std::to_string(stale.query_id)) !=
        std::string::npos) {
      stale_line = true;
      EXPECT_NE(line.find("\"cache\":\"stale_hit\""), std::string::npos);
      EXPECT_NE(line.find("\"staleness_weight\":"), std::string::npos);
    }
  }
  EXPECT_TRUE(hit_line);
  EXPECT_TRUE(stale_line);
}

/// The work object of a request-log line: the text between "work":{ and
/// its closing brace (empty when the line logs no work).
std::string LoggedWork(const std::string& line) {
  const size_t at = line.find("\"work\":{");
  if (at == std::string::npos) return "<missing>";
  const size_t begin = at + 8;
  return line.substr(begin, line.find('}', begin) - begin);
}

/// A response that ran nothing logs no work: the counters inside a cached
/// result belong to the query that computed it, not to the hit.
TEST_F(ServeTest, CacheServedResponsesLogNoWork) {
  Watchdog watchdog(120);
  ServiceOptions options = QuietOptions();
  options.cache.enabled = true;
  options.request_log.ok_sample_every = 1;
  QueryService service(options);
  ASSERT_TRUE(
      service.RegisterDataset("cites", MakeCitationBundle(data_)).ok());
  ASSERT_TRUE(service.RegisterOnline("stream", MakeExactKeyStream()).ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        service.Ingest("stream", KeyMention("k" + std::to_string(i % 3)))
            .ok());
  }

  // Static dataset: k = 3 differs from the calibration query's shape, so
  // the first request executes and the second is a hit.
  QueryResponse executed = service.Execute(CountRequest("cites", 3));
  ASSERT_TRUE(executed.status.ok()) << executed.status.ToString();
  EXPECT_EQ(executed.cache, "miss");
  QueryResponse hit = service.Execute(CountRequest("cites", 3));
  ASSERT_TRUE(hit.status.ok()) << hit.status.ToString();
  EXPECT_EQ(hit.cache, "hit");

  // Online stream: a query, one more published mention, then a stale hit.
  QueryResponse computed = service.Execute(CountRequest("stream", 3));
  ASSERT_TRUE(computed.status.ok()) << computed.status.ToString();
  ASSERT_TRUE(service.Ingest("stream", KeyMention("k0")).ok());
  QueryRequest stale_req = CountRequest("stream", 3);
  stale_req.allow_stale = true;
  QueryResponse stale = service.Execute(stale_req);
  ASSERT_TRUE(stale.status.ok()) << stale.status.ToString();
  EXPECT_EQ(stale.cache, "stale_hit");

  const QueryResponse* responses[] = {&executed, &hit, &computed, &stale};
  std::map<uint64_t, std::string> lines;
  for (const std::string& line : service.request_log().RecentLines()) {
    for (const QueryResponse* response : responses) {
      if (line.find("\"query_id\":" + std::to_string(response->query_id) +
                    ",") != std::string::npos) {
        lines[response->query_id] = line;
      }
    }
  }
  ASSERT_EQ(lines.size(), 4u);
  for (const QueryResponse* response : {&executed, &computed}) {
    const std::string& line = lines[response->query_id];
    EXPECT_NE(line.find("\"attempts\":1"), std::string::npos) << line;
    EXPECT_NE(LoggedWork(line), "") << line;
  }
  for (const QueryResponse* response : {&hit, &stale}) {
    const std::string& line = lines[response->query_id];
    EXPECT_NE(line.find("\"attempts\":0"), std::string::npos) << line;
    EXPECT_EQ(LoggedWork(line), "") << line;
  }
}

/// A mention of the wrong arity is the caller's error: Ingest rejects it
/// before the WAL, it never counts against the dataset's breaker, and a
/// run of them (enough to open a breaker under the default options) leaves
/// count queries exact.
TEST_F(ServeTest, WrongArityIngestsSkipTheWalAndTheBreaker) {
  Watchdog watchdog(120);
  const std::string dir = ::testing::TempDir() + "/serve_arity_" +
                          std::to_string(::getpid());
  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  ServiceOptions options;  // Default BreakerOptions.
  options.wal_dir = dir;
  options.wal.fsync = WalFsyncPolicy::kNever;
  QueryService service(options);
  ASSERT_TRUE(service.RegisterOnline("stream", MakeExactKeyStream()).ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        service.Ingest("stream", KeyMention("k" + std::to_string(i % 2)))
            .ok());
  }
  const std::string wal_path = dir + "/stream.wal";
  struct stat before;
  ASSERT_EQ(::stat(wal_path.c_str(), &before), 0);
  metrics::Counter* appends =
      metrics::Registry::Global().GetCounter("serve.wal.appends");
  const uint64_t appends_before = appends->Value();

  for (int i = 0; i < 8; ++i) {
    record::Record wrong_arity;
    wrong_arity.fields = {"k0", "extra"};
    const Status status = service.Ingest("stream", wrong_arity);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  }

  struct stat after;
  ASSERT_EQ(::stat(wal_path.c_str(), &after), 0);
  EXPECT_EQ(after.st_size, before.st_size);
  EXPECT_EQ(appends->Value(), appends_before);
  const HealthSnapshot health = service.Health();
  ASSERT_EQ(health.datasets.size(), 1u);
  EXPECT_EQ(health.datasets[0].breaker, BreakerState::kClosed);
  EXPECT_EQ(health.datasets[0].records, 6u);
  QueryResponse response = service.Execute(CountRequest("stream", 2));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.outcome, ServedOutcome::kExact);
}

/// Satellite regression: the widened upper bound is derived from weight
/// *published since the cached epoch* — never from wall time or live
/// unpublished state — and stays correct across a service restart over
/// the same WAL (recovery re-establishes the epoch counter).
TEST_F(ServeTest, StaleWideningIsEpochBasedAndSurvivesRestart) {
  ScopedDisarm disarm;
  Watchdog watchdog(120);
  const std::string dir = ::testing::TempDir() + "/serve_epoch_widen_" +
                          std::to_string(::getpid());
  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  ServiceOptions options = QuietOptions();
  options.cache.enabled = true;
  options.calibrate_on_register = false;
  options.wal_dir = dir;
  options.epoch_batch_ms = 3600 * 1000;  // Publication only via Drain.
  options.breaker.window = 8;
  options.breaker.min_samples = 2;
  options.breaker.trip_ratio = 0.5;
  options.breaker.cooldown_ms = 3600 * 1000;  // Stays open once tripped.

  double first_epoch_staleness = -1.0;
  {
    QueryService service(options);
    ASSERT_TRUE(service.RegisterOnline("stream", MakeExactKeyStream()).ok());
    // m1 publishes (first ingest always does); m2+m3 stay pending.
    ASSERT_TRUE(service.Ingest("stream", WeightedMention("a", 1.0)).ok());
    QueryResponse cached = service.Execute(CountRequest("stream", 2));
    ASSERT_TRUE(cached.status.ok()) << cached.status.ToString();
    EXPECT_EQ(cached.cache, "miss");
    ASSERT_TRUE(service.Ingest("stream", WeightedMention("a", 2.0)).ok());
    ASSERT_TRUE(service.Ingest("stream", WeightedMention("b", 4.0)).ok());
    service.Drain();  // Publishes the batch: published delta is now 6.0.
    // m4 is ingested but NOT published: it must not widen anything.
    ASSERT_TRUE(service.Ingest("stream", WeightedMention("b", 8.0)).ok());

    // Trip the breaker with failed durable ingests. Each one is rolled
    // back, so it neither publishes nor widens anything.
    fault::ArmForTest("wal.append", 1.0, 5);
    for (int i = 0; i < 6; ++i) {
      EXPECT_FALSE(service.Ingest("stream", WeightedMention("c", 64.0)).ok());
      if (service.Health().datasets[0].breaker == BreakerState::kOpen) break;
    }
    ASSERT_EQ(service.Health().datasets[0].breaker, BreakerState::kOpen);
    fault::DisarmAllForTest();

    QueryResponse degraded = service.Execute(CountRequest("stream", 2));
    ASSERT_TRUE(degraded.status.ok()) << degraded.status.ToString();
    EXPECT_EQ(degraded.outcome, ServedOutcome::kBreakerDegraded);
    // Widened by the *published* delta (2.0 + 4.0), not the live total
    // (which would add the unpublished 8.0) and not anything wall-time.
    EXPECT_DOUBLE_EQ(degraded.staleness_weight, 6.0);
    first_epoch_staleness = degraded.staleness_weight;
    // Destructor drains: the pending publish and the WAL sync land here.
  }

  // Restart over the same WAL: recovery replays 4 mentions and restores
  // the epoch counter; the same protocol must hold on the recovered state.
  QueryService service(options);
  ASSERT_TRUE(service.RegisterOnline("stream", MakeExactKeyStream()).ok());
  EXPECT_EQ(service.Health().datasets[0].records, 4u);
  EXPECT_GT(service.Health().datasets[0].epoch, 0u);
  QueryResponse cached = service.Execute(CountRequest("stream", 2));
  ASSERT_TRUE(cached.status.ok()) << cached.status.ToString();
  EXPECT_EQ(cached.cache, "miss");
  ASSERT_TRUE(service.Ingest("stream", WeightedMention("a", 16.0)).ok());
  service.Drain();
  ASSERT_TRUE(service.Ingest("stream", WeightedMention("b", 32.0)).ok());

  fault::ArmForTest("wal.append", 1.0, 6);
  for (int i = 0; i < 6; ++i) {
    EXPECT_FALSE(service.Ingest("stream", WeightedMention("c", 64.0)).ok());
    if (service.Health().datasets[0].breaker == BreakerState::kOpen) break;
  }
  ASSERT_EQ(service.Health().datasets[0].breaker, BreakerState::kOpen);
  fault::DisarmAllForTest();
  QueryResponse degraded = service.Execute(CountRequest("stream", 2));
  ASSERT_TRUE(degraded.status.ok()) << degraded.status.ToString();
  EXPECT_EQ(degraded.outcome, ServedOutcome::kBreakerDegraded);
  EXPECT_DOUBLE_EQ(degraded.staleness_weight, 16.0);
  EXPECT_EQ(first_epoch_staleness, 6.0);
}

/// Tentpole acceptance: readers pin epochs and never wait on the writer
/// lock while ingest publishes continuously; every answer is bit-identical
/// to a post-hoc serial replay of the canonical prefix it self-describes.
TEST_F(ServeTest, EpochPinningNeverBlocksReadersAndRepliesReplayExactly) {
  Watchdog watchdog(300);
  ServiceOptions options = QuietOptions();
  options.workers = 4;
  options.queue_capacity = 256;
  options.cache.enabled = false;  // Every query must pin + execute.
  QueryService service(options);
  ASSERT_TRUE(service.RegisterOnline("stream", MakeExactKeyStream()).ok());
  ASSERT_TRUE(service.Ingest("stream", KeyMention("k0")).ok());

  metrics::Counter* blocked =
      metrics::Registry::Global().GetCounter("online.reader_blocked");
  const uint64_t blocked_before = blocked->Value();

  constexpr int kReaders = 8;
  constexpr int kQueriesPerReader = 10;
  constexpr int kIngest = 400;
  struct Observed {
    uint64_t mentions;
    std::vector<std::tuple<size_t, double, double, double>> groups;
  };
  std::vector<std::vector<Observed>> per_reader(kReaders);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&service, &per_reader, t] {
      for (int i = 0; i < kQueriesPerReader; ++i) {
        QueryRequest request;
        request.dataset = "stream";
        request.kind = QueryKind::kTopKCount;
        request.k = 5;
        QueryResponse response = service.Execute(request);
        // Only exact answers replay bit-identically; a (rare, slow-run)
        // deadline degradation is sound but not byte-comparable.
        if (!response.status.ok() ||
            response.outcome != ServedOutcome::kExact) {
          continue;
        }
        Observed seen;
        seen.mentions = response.epoch_mentions;
        for (const auto& group : response.result.answers[0].groups) {
          seen.groups.emplace_back(group.representative, group.weight,
                                   group.count_lower, group.count_upper);
        }
        per_reader[t].push_back(std::move(seen));
      }
    });
  }
  for (int i = 1; i <= kIngest; ++i) {
    ASSERT_TRUE(
        service.Ingest("stream", KeyMention("k" + std::to_string(i % 5)))
            .ok());
  }
  for (auto& thread : readers) thread.join();
  service.Drain();

  // Readers never fell back to the writer lock.
  EXPECT_EQ(blocked->Value() - blocked_before, 0u);

  // Post-hoc serial replay: answers at prefix N must equal a fresh stream
  // fed the same first N mentions — bit-identical, not approximately.
  std::vector<Observed> all;
  size_t answered = 0;
  for (const auto& observed : per_reader) {
    for (const Observed& seen : observed) {
      all.push_back(seen);
      ++answered;
    }
  }
  ASSERT_GE(answered, 1u);
  std::vector<std::string> replay_keys = {"k0"};
  for (int i = 1; i <= kIngest; ++i) {
    replay_keys.push_back("k" + std::to_string(i % 5));
  }
  for (const Observed& seen : all) {
    ASSERT_GE(seen.mentions, 1u);
    ASSERT_LE(seen.mentions, replay_keys.size());
    auto reference = MakeExactKeyStream();
    for (uint64_t m = 0; m < seen.mentions; ++m) {
      ASSERT_TRUE(reference->AddMention(KeyMention(replay_keys[m])).ok());
    }
    topk::TopKCountOptions qopts;
    // Same clamp the service applies: k never exceeds the snapshot's
    // group count (early prefixes have fewer than 5 distinct keys).
    qopts.k = static_cast<int>(
        std::min<size_t>(5, reference->group_count()));
    qopts.r = 1;
    auto want_or = reference->Query(qopts);
    ASSERT_TRUE(want_or.ok())
        << "prefix " << seen.mentions << ": " << want_or.status().message();
    const auto& want = want_or.value().answers[0].groups;
    ASSERT_EQ(seen.groups.size(), want.size())
        << "prefix " << seen.mentions;
    for (size_t g = 0; g < want.size(); ++g) {
      EXPECT_EQ(std::get<0>(seen.groups[g]), want[g].representative);
      EXPECT_EQ(std::get<1>(seen.groups[g]), want[g].weight);
      EXPECT_EQ(std::get<2>(seen.groups[g]), want[g].count_lower);
      EXPECT_EQ(std::get<3>(seen.groups[g]), want[g].count_upper);
    }
  }
}

}  // namespace
}  // namespace topkdup::serve
