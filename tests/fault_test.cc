#include "common/faultpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "predicates/corpus.h"
#include "predicates/generic.h"
#include "serve/service.h"
#include "serve/wal.h"
#include "topk/online.h"

namespace topkdup {
namespace {

/// Kills the process if the test binary wedges: the acceptance contract is
/// "zero aborts, zero hangs" — a deadlocked pipeline must fail the test
/// run, not stall CI until its global timeout.
class Watchdog {
 public:
  explicit Watchdog(int seconds) {
    thread_ = std::thread([this, seconds] {
      std::unique_lock<std::mutex> lock(mu_);
      if (!cv_.wait_for(lock, std::chrono::seconds(seconds),
                        [this] { return done_; })) {
        std::fprintf(stderr, "fault_test watchdog fired after %d s\n",
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

TEST(FaultPointTest, DisabledByDefault) {
  ScopedDisarm disarm;
  fault::DisarmAllForTest();
  EXPECT_FALSE(fault::Enabled());
  EXPECT_FALSE(fault::Fires("some.site"));
  EXPECT_TRUE(fault::ArmedSites().empty());
}

TEST(FaultPointTest, DrawsAreDeterministicPerSeed) {
  ScopedDisarm disarm;
  const auto draw_sequence = [] {
    fault::ArmForTest("draw.site", 0.5, 42);
    std::vector<bool> fires;
    for (int i = 0; i < 200; ++i) {
      fires.push_back(fault::Fires("draw.site"));
    }
    return fires;
  };
  const std::vector<bool> first = draw_sequence();
  const std::vector<bool> second = draw_sequence();
  EXPECT_EQ(first, second);
  // A fair-ish coin at p=0.5: both outcomes must appear.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 200);

  fault::ArmForTest("draw.site", 0.5, 43);
  std::vector<bool> reseeded;
  for (int i = 0; i < 200; ++i) {
    reseeded.push_back(fault::Fires("draw.site"));
  }
  EXPECT_NE(first, reseeded);  // A different seed draws differently.
}

TEST(FaultPointTest, ProbabilityOneAlwaysFiresAndCounts) {
  ScopedDisarm disarm;
  fault::ArmForTest("always.site", 1.0, 7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(fault::Fires("always.site"));
  }
  EXPECT_EQ(fault::FireCount("always.site"), 10u);
  EXPECT_EQ(fault::ArmedSites(), std::vector<std::string>{"always.site"});
}

TEST(FaultPointTest, ReturnMacroConvertsFireToStatus) {
  ScopedDisarm disarm;
  fault::ArmForTest("macro.site", 1.0, 1);
  const auto poisoned = []() -> Status {
    TOPKDUP_FAULT_RETURN_IF("macro.site");
    return Status::OK();
  };
  const Status status = poisoned();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("macro.site"), std::string::npos);

  fault::DisarmAllForTest();
  EXPECT_TRUE(poisoned().ok());
}

TEST(OnlineFaultTest, WrongArityMentionYieldsStatusNotAbort) {
  Watchdog watchdog(60);
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
    return [](size_t, size_t) { return 1.0; };
  };
  topk::OnlineTopK stream(record::Schema({"name"}), std::move(config));
  record::Record first;
  first.fields = {"alpha beta"};
  ASSERT_TRUE(stream.AddMention(first).ok());

  record::Record wrong_arity;
  wrong_arity.fields = {"gamma delta", "extra"};
  Status status = stream.AddMention(wrong_arity);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
      << status.ToString();
  // The failed ingest must leave no partial state behind.
  EXPECT_EQ(stream.mention_count(), 1u);

  record::Record second;
  second.fields = {"gamma delta"};
  EXPECT_TRUE(stream.AddMention(second).ok());
  EXPECT_EQ(stream.mention_count(), 2u);
}

TEST(WalFaultTest, AppendSiteYieldsStatusAndCleanRerunSucceeds) {
  ScopedDisarm disarm;
  Watchdog watchdog(60);
  const std::string dir = ::testing::TempDir() + "/fault_wal_append_" +
                          std::to_string(::getpid());
  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
  ASSERT_TRUE(serve::EnsureDirectory(dir).ok());

  auto wal_or =
      serve::WriteAheadLog::Open(dir + "/log.wal", serve::WalOptions{},
                                 nullptr);
  ASSERT_TRUE(wal_or.ok());
  serve::WriteAheadLog* wal = wal_or.value().get();
  const uint64_t pre = wal->end_offset();

  fault::ArmForTest("wal.append", 1.0, 21);
  Status status = wal->Append(0, {"payload"});
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("wal.append"), std::string::npos);
  // The failed append left nothing behind: same offset, and the clean
  // rerun lands the frame.
  EXPECT_EQ(wal->end_offset(), pre);
  fault::DisarmAllForTest();
  EXPECT_TRUE(wal->Append(0, {"payload"}).ok());
}

TEST(WalFaultTest, FsyncSiteWithdrawsTheFrameUnderAlwaysPolicy) {
  ScopedDisarm disarm;
  Watchdog watchdog(60);
  const std::string dir = ::testing::TempDir() + "/fault_wal_fsync_" +
                          std::to_string(::getpid());
  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
  ASSERT_TRUE(serve::EnsureDirectory(dir).ok());

  serve::WalOptions options;
  options.fsync = serve::WalFsyncPolicy::kAlways;
  auto wal_or =
      serve::WriteAheadLog::Open(dir + "/log.wal", options, nullptr);
  ASSERT_TRUE(wal_or.ok());
  serve::WriteAheadLog* wal = wal_or.value().get();
  const uint64_t pre = wal->end_offset();

  fault::ArmForTest("wal.fsync", 1.0, 22);
  Status status = wal->Append(0, {"payload"});
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("wal.fsync"), std::string::npos);
  // An append whose durability barrier failed must not survive: the frame
  // was written but withdrawn, so nothing unacknowledged is left durable.
  EXPECT_EQ(wal->end_offset(), pre);
  fault::DisarmAllForTest();
  EXPECT_TRUE(wal->Append(0, {"payload"}).ok());
}

TEST(WalFaultTest, IngestFaultsFeedAndTripTheBreaker) {
  ScopedDisarm disarm;
  Watchdog watchdog(120);
  const std::string dir = ::testing::TempDir() + "/fault_wal_breaker_" +
                          std::to_string(::getpid());
  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
  ASSERT_TRUE(serve::EnsureDirectory(dir).ok());

  serve::ServiceOptions options;
  options.workers = 1;
  options.calibrate_on_register = false;
  options.wal_dir = dir;
  options.breaker.window = 8;
  options.breaker.min_samples = 4;
  options.breaker.trip_ratio = 0.5;
  options.breaker.cooldown_ms = 60000;  // Stays open for the assertion.
  serve::QueryService service(options);

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
  ASSERT_TRUE(service
                  .RegisterOnline("stream",
                                  std::make_unique<topk::OnlineTopK>(
                                      record::Schema({"name"}),
                                      std::move(config)))
                  .ok());
  record::Record mention;
  mention.fields = {"alpha"};
  ASSERT_TRUE(service.Ingest("stream", mention).ok());
  EXPECT_EQ(service.Health().datasets[0].breaker,
            serve::BreakerState::kClosed);

  // A burst of durable-ingest failures is a real dataset pathology; it
  // must count toward the breaker exactly like sheds do.
  fault::ArmForTest("wal.append", 1.0, 23);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(service.Ingest("stream", mention).code(),
              StatusCode::kInternal);
  }
  EXPECT_EQ(service.Health().datasets[0].breaker, serve::BreakerState::kOpen);
  fault::DisarmAllForTest();

  // Ingest itself is not gated by the breaker (the caller decides how to
  // back off); once the faults clear the stream keeps accepting.
  EXPECT_TRUE(service.Ingest("stream", mention).ok());
  EXPECT_EQ(service.Health().datasets[0].records, 2u);
}

}  // namespace
}  // namespace topkdup
