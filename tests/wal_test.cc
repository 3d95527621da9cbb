#include "serve/wal.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/faultpoint.h"
#include "common/file.h"
#include "common/metrics.h"
#include "common/status.h"
#include "predicates/generic.h"
#include "record/record.h"
#include "serve/service.h"
#include "topk/online.h"

namespace topkdup::serve {
namespace {

/// Disarms every fault site on scope exit so one test's faults never leak
/// into the next.
struct ScopedDisarm {
  ~ScopedDisarm() { fault::DisarmAllForTest(); }
};

std::string TestDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/wal_" + name + "_" +
                          std::to_string(::getpid());
  // Tests re-run in the same process would collide; wipe and recreate.
  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
  TOPKDUP_CHECK(EnsureDirectory(dir).ok());
  return dir;
}

std::string Slurp(const std::string& path) {
  auto data = ReadFileToString(path);
  TOPKDUP_CHECK(data.ok());
  return std::move(data).value();
}

void Spit(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  TOPKDUP_CHECK(out.good());
}

uint64_t FileSize(const std::string& path) {
  struct ::stat st {};
  TOPKDUP_CHECK(::stat(path.c_str(), &st) == 0);
  return static_cast<uint64_t>(st.st_size);
}

/// Exact-key online stream matching the serve_test / load_serve shape:
/// mentions collapse iff field 0 matches exactly, never merge further.
std::unique_ptr<topk::OnlineTopK> MakeKeyStream() {
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
  return std::make_unique<topk::OnlineTopK>(
      record::Schema({"key", "note"}), std::move(config));
}

record::Record Mention(const std::string& key, const std::string& note,
                       double weight = 1.0, int64_t entity = -1) {
  record::Record r;
  r.fields = {key, note};
  r.weight = weight;
  r.entity_id = entity;
  return r;
}

// ---------------------------------------------------------------------------
// Fsync policy parsing.

TEST(WalPolicyTest, ParseAndName) {
  EXPECT_EQ(ParseWalFsyncPolicy("never").value(), WalFsyncPolicy::kNever);
  EXPECT_EQ(ParseWalFsyncPolicy("interval").value(),
            WalFsyncPolicy::kIntervalMs);
  EXPECT_EQ(ParseWalFsyncPolicy("every_n").value(), WalFsyncPolicy::kEveryN);
  EXPECT_EQ(ParseWalFsyncPolicy("always").value(), WalFsyncPolicy::kAlways);
  EXPECT_EQ(ParseWalFsyncPolicy("sometimes").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_STREQ(WalFsyncPolicyName(WalFsyncPolicy::kNever), "never");
  EXPECT_STREQ(WalFsyncPolicyName(WalFsyncPolicy::kAlways), "always");
}

// ---------------------------------------------------------------------------
// Log file lifecycle.

TEST(WalTest, OpenCreatesHeaderOnlyFileAndReopensEmpty) {
  const std::string dir = TestDir("create");
  const std::string path = dir + "/log.wal";
  {
    WalReplay replay;
    auto wal = WriteAheadLog::Open(path, WalOptions{}, &replay);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    EXPECT_TRUE(replay.records.empty());
    EXPECT_EQ(replay.truncated_tail_bytes, 0u);
    EXPECT_EQ(wal.value()->appended_bytes(), 0u);
  }
  EXPECT_EQ(FileSize(path), 16u);  // File header only.
  WalReplay replay;
  auto wal = WriteAheadLog::Open(path, WalOptions{}, &replay);
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE(replay.records.empty());
}

TEST(WalTest, AppendReplayRoundtrip) {
  const std::string dir = TestDir("roundtrip");
  const std::string path = dir + "/log.wal";
  std::vector<std::string> payloads = {"", "a", "hello world",
                                       std::string(1000, 'x')};
  {
    auto wal = WriteAheadLog::Open(path, WalOptions{}, nullptr);
    ASSERT_TRUE(wal.ok());
    for (size_t i = 0; i < payloads.size(); ++i) {
      ASSERT_TRUE(wal.value()->Append(i, payloads[i]).ok());
    }
    uint64_t expected = 0;
    for (const auto& p : payloads) {
      expected += WriteAheadLog::kFrameHeaderBytes + p.size();
    }
    EXPECT_EQ(wal.value()->appended_bytes(), expected);
    EXPECT_EQ(wal.value()->end_offset(), 16u + expected);
  }
  WalReplay replay;
  auto wal = WriteAheadLog::Open(path, WalOptions{}, &replay);
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ(replay.records.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(replay.records[i].first, i);
    EXPECT_EQ(replay.records[i].second, payloads[i]);
  }
  EXPECT_EQ(replay.truncated_tail_bytes, 0u);
}

TEST(WalTest, EpochStampsRoundTripAndMaxEpochSurfaces) {
  const std::string dir = TestDir("epoch");
  const std::string path = dir + "/log.wal";
  {
    auto wal = WriteAheadLog::Open(path, WalOptions{}, nullptr);
    ASSERT_TRUE(wal.ok());
    // Mixed epochs, deliberately non-monotone (batched publication can
    // stamp several frames with the same upcoming epoch id); the default
    // epoch argument is 0.
    ASSERT_TRUE(wal.value()->Append(0, "a", 3).ok());
    ASSERT_TRUE(wal.value()->Append(1, "b", 7).ok());
    ASSERT_TRUE(wal.value()->Append(2, "c", 7).ok());
    ASSERT_TRUE(wal.value()->Append(3, "d").ok());
  }
  WalReplay replay;
  auto wal = WriteAheadLog::Open(path, WalOptions{}, &replay);
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ(replay.records.size(), 4u);
  EXPECT_EQ(replay.records[3].second, "d");
  // Recovery only needs the high-water mark to re-establish the counter.
  EXPECT_EQ(replay.max_epoch, 7u);
}

TEST(WalTest, TornTailTruncatedAtEveryByteBoundary) {
  const std::string dir = TestDir("torn");
  const std::string path = dir + "/log.wal";
  std::vector<std::string> payloads = {"alpha", "bravo-bravo", "c"};
  {
    auto wal = WriteAheadLog::Open(path, WalOptions{}, nullptr);
    ASSERT_TRUE(wal.ok());
    for (size_t i = 0; i < payloads.size(); ++i) {
      ASSERT_TRUE(wal.value()->Append(i, payloads[i]).ok());
    }
  }
  const std::string image = Slurp(path);
  // Frame boundaries (absolute offsets) for computing the expected intact
  // prefix at each cut.
  std::vector<uint64_t> boundaries = {16};
  for (const auto& p : payloads) {
    boundaries.push_back(boundaries.back() +
                         WriteAheadLog::kFrameHeaderBytes + p.size());
  }
  for (size_t cut = 0; cut < image.size(); ++cut) {
    const std::string sub = dir + "/cut.wal";
    Spit(sub, std::string_view(image).substr(0, cut));
    WalReplay replay;
    auto wal = WriteAheadLog::Open(sub, WalOptions{}, &replay);
    ASSERT_TRUE(wal.ok()) << "cut at " << cut << ": "
                          << wal.status().ToString();
    // Which frames survive: those wholly before the cut.
    size_t intact = 0;
    while (intact < payloads.size() && boundaries[intact + 1] <= cut) {
      ++intact;
    }
    ASSERT_EQ(replay.records.size(), intact) << "cut at " << cut;
    for (size_t i = 0; i < intact; ++i) {
      EXPECT_EQ(replay.records[i].second, payloads[i]);
    }
    if (cut < 16) {
      // Shorter than the file header: the whole file is a torn header and
      // is rewritten fresh.
      EXPECT_EQ(replay.truncated_tail_bytes, cut) << "cut at " << cut;
      EXPECT_EQ(FileSize(sub), 16u);
    } else {
      EXPECT_EQ(replay.truncated_tail_bytes, cut - boundaries[intact])
          << "cut at " << cut;
      // The file was physically truncated back to the last intact frame.
      EXPECT_EQ(FileSize(sub), boundaries[intact]);
    }
  }
}

TEST(WalTest, CrcDamagedFinalFrameIsATornTail) {
  const std::string dir = TestDir("crcend");
  const std::string path = dir + "/log.wal";
  {
    auto wal = WriteAheadLog::Open(path, WalOptions{}, nullptr);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(0, "first-frame").ok());
    ASSERT_TRUE(wal.value()->Append(1, "second-frame").ok());
  }
  std::string image = Slurp(path);
  image.back() ^= 0xFF;  // Corrupt the last payload byte.
  Spit(path, image);
  WalReplay replay;
  auto wal = WriteAheadLog::Open(path, WalOptions{}, &replay);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].second, "first-frame");
  EXPECT_EQ(replay.truncated_tail_bytes,
            WriteAheadLog::kFrameHeaderBytes + std::string("second-frame").size());
}

TEST(WalTest, MidFileCorruptionIsInvalidArgumentNotRecovery) {
  const std::string dir = TestDir("midcorrupt");
  const std::string path = dir + "/log.wal";
  {
    auto wal = WriteAheadLog::Open(path, WalOptions{}, nullptr);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(0, "first-frame").ok());
    ASSERT_TRUE(wal.value()->Append(1, "second-frame").ok());
  }
  std::string image = Slurp(path);
  image[16 + WriteAheadLog::kFrameHeaderBytes] ^= 0xFF;  // First payload byte.
  Spit(path, image);
  auto wal = WriteAheadLog::Open(path, WalOptions{}, nullptr);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kInvalidArgument);
}

TEST(WalTest, BadMagicOrVersionRejected) {
  const std::string dir = TestDir("magic");
  const std::string path = dir + "/log.wal";
  {
    auto wal = WriteAheadLog::Open(path, WalOptions{}, nullptr);
    ASSERT_TRUE(wal.ok());
  }
  std::string image = Slurp(path);
  image[0] ^= 0xFF;
  Spit(path, image);
  auto wal = WriteAheadLog::Open(path, WalOptions{}, nullptr);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kInvalidArgument);
}

TEST(WalTest, TruncateToWithdrawsTheLastFrame) {
  const std::string dir = TestDir("truncto");
  const std::string path = dir + "/log.wal";
  {
    auto wal_or = WriteAheadLog::Open(path, WalOptions{}, nullptr);
    ASSERT_TRUE(wal_or.ok());
    WriteAheadLog* wal = wal_or.value().get();
    ASSERT_TRUE(wal->Append(0, "keep-me").ok());
    const uint64_t pre = wal->end_offset();
    const uint64_t pre_bytes = wal->appended_bytes();
    ASSERT_TRUE(wal->Append(1, "withdraw-me").ok());
    ASSERT_TRUE(wal->TruncateTo(pre).ok());
    EXPECT_EQ(wal->end_offset(), pre);
    EXPECT_EQ(wal->appended_bytes(), pre_bytes);
    // Past-the-end offsets are a caller bug, reported as such.
    EXPECT_EQ(wal->TruncateTo(pre + 1000).code(),
              StatusCode::kInvalidArgument);
  }
  WalReplay replay;
  auto wal = WriteAheadLog::Open(path, WalOptions{}, &replay);
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].second, "keep-me");
}

TEST(WalTest, ResetTrimsBackToHeaderOnly) {
  const std::string dir = TestDir("reset");
  const std::string path = dir + "/log.wal";
  auto wal = WriteAheadLog::Open(path, WalOptions{}, nullptr);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value()->Append(0, "doomed").ok());
  ASSERT_TRUE(wal.value()->Reset().ok());
  EXPECT_EQ(wal.value()->appended_bytes(), 0u);
  EXPECT_EQ(FileSize(path), 16u);
  // The log keeps working after a trim.
  ASSERT_TRUE(wal.value()->Append(7, "fresh").ok());
}

TEST(WalTest, FsyncPolicyCountersAndEveryN) {
  const std::string dir = TestDir("fsyncs");
  auto& registry = metrics::Registry::Global();
  metrics::Counter* fsyncs = registry.GetCounter("serve.wal.fsyncs");
  metrics::Counter* appends = registry.GetCounter("serve.wal.appends");

  WalOptions never;
  never.fsync = WalFsyncPolicy::kNever;
  auto wal_never = WriteAheadLog::Open(dir + "/never.wal", never, nullptr);
  ASSERT_TRUE(wal_never.ok());
  const uint64_t fsyncs_before = fsyncs->Value();
  const uint64_t appends_before = appends->Value();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(wal_never.value()->Append(i, "x").ok());
  }
  EXPECT_EQ(appends->Value() - appends_before, 10u);
  EXPECT_EQ(fsyncs->Value(), fsyncs_before);  // Policy never syncs.
  // Explicit Sync still works and counts once.
  ASSERT_TRUE(wal_never.value()->Sync().ok());
  EXPECT_EQ(fsyncs->Value() - fsyncs_before, 1u);
  // Sync with nothing new appended is a free no-op.
  ASSERT_TRUE(wal_never.value()->Sync().ok());
  EXPECT_EQ(fsyncs->Value() - fsyncs_before, 1u);

  WalOptions every4;
  every4.fsync = WalFsyncPolicy::kEveryN;
  every4.every_n = 4;
  auto wal_n = WriteAheadLog::Open(dir + "/every.wal", every4, nullptr);
  ASSERT_TRUE(wal_n.ok());
  const uint64_t n_before = fsyncs->Value();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(wal_n.value()->Append(i, "y").ok());
  }
  EXPECT_EQ(fsyncs->Value() - n_before, 2u);  // Once per 4 appends.
}

TEST(WalTest, FaultSitesSurfaceAsTypedStatusAndRollBack) {
  ScopedDisarm disarm;
  const std::string dir = TestDir("fault");
  const std::string path = dir + "/log.wal";
  {
    auto wal_or = WriteAheadLog::Open(path, WalOptions{}, nullptr);
    ASSERT_TRUE(wal_or.ok());
    WriteAheadLog* wal = wal_or.value().get();
    ASSERT_TRUE(wal->Append(0, "pre-fault").ok());
    const uint64_t pre = wal->end_offset();

    // wal.append fires before any bytes are written.
    fault::ArmForTest("wal.append", 1.0, 42);
    Status append_fault = wal->Append(1, "never-lands");
    EXPECT_EQ(append_fault.code(), StatusCode::kInternal);
    EXPECT_NE(append_fault.message().find("wal.append"), std::string::npos);
    EXPECT_EQ(wal->end_offset(), pre);
    fault::DisarmAllForTest();

    // wal.fsync fires after the write under policy kAlways: the frame must
    // be withdrawn so an unacknowledged record is never left durable.
    fault::ArmForTest("wal.fsync", 1.0, 43);
    Status sync_fault = wal->Append(1, "never-synced");
    EXPECT_EQ(sync_fault.code(), StatusCode::kInternal);
    EXPECT_NE(sync_fault.message().find("wal.fsync"), std::string::npos);
    EXPECT_EQ(wal->end_offset(), pre);
    fault::DisarmAllForTest();

    // Clean-state rerun: the same append succeeds once the faults clear.
    ASSERT_TRUE(wal->Append(1, "lands-now").ok());
  }
  WalReplay replay;
  auto reopened = WriteAheadLog::Open(path, WalOptions{}, &replay);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[1].second, "lands-now");
}

// ---------------------------------------------------------------------------
// Atomic file + checkpoint listing helpers.

TEST(WalHelpersTest, AtomicWriteAndReadRoundtrip) {
  const std::string dir = TestDir("atomic");
  const std::string path = dir + "/blob";
  EXPECT_EQ(ReadFileToString(path).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(AtomicWriteFile(path, "payload-v1").ok());
  EXPECT_EQ(Slurp(path), "payload-v1");
  ASSERT_TRUE(AtomicWriteFile(path, "payload-v2").ok());
  EXPECT_EQ(Slurp(path), "payload-v2");
}

TEST(WalHelpersTest, ListCheckpointsNewestFirstPrunesTmpStrays) {
  const std::string dir = TestDir("list");
  ASSERT_TRUE(AtomicWriteFile(CheckpointPath(dir, "ds", 1), "one").ok());
  ASSERT_TRUE(AtomicWriteFile(CheckpointPath(dir, "ds", 3), "three").ok());
  ASSERT_TRUE(AtomicWriteFile(CheckpointPath(dir, "ds", 2), "two").ok());
  ASSERT_TRUE(AtomicWriteFile(CheckpointPath(dir, "other", 9), "x").ok());
  const std::string stray = CheckpointPath(dir, "ds", 4) + ".tmp";
  Spit(stray, "half-written");

  std::vector<CheckpointRef> list = ListCheckpoints(dir, "ds");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].seq_no, 3u);
  EXPECT_EQ(list[1].seq_no, 2u);
  EXPECT_EQ(list[2].seq_no, 1u);
  EXPECT_NE(::access(stray.c_str(), F_OK), 0);  // Stray deleted.

  DeleteCheckpointsBefore(dir, "ds", 2);
  list = ListCheckpoints(dir, "ds");
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].seq_no, 3u);
  EXPECT_EQ(list[1].seq_no, 2u);
  // The other dataset's checkpoint is untouched.
  EXPECT_EQ(ListCheckpoints(dir, "other").size(), 1u);
}

// ---------------------------------------------------------------------------
// Mention wire format + checkpoint image.

TEST(MentionCodecTest, EncodeDecodeRoundtrip) {
  record::Record r = Mention("key-1", "note with spaces", 2.5, 77);
  auto decoded = topk::DecodeMention(topk::EncodeMention(r));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().fields, r.fields);
  EXPECT_DOUBLE_EQ(decoded.value().weight, r.weight);
  EXPECT_EQ(decoded.value().entity_id, r.entity_id);

  // Zero-field and empty-field records survive too.
  record::Record empty;
  empty.weight = 0.0;
  auto decoded_empty = topk::DecodeMention(topk::EncodeMention(empty));
  ASSERT_TRUE(decoded_empty.ok());
  EXPECT_TRUE(decoded_empty.value().fields.empty());
}

TEST(MentionCodecTest, TruncatedOrTrailingPayloadRejected) {
  const std::string wire = topk::EncodeMention(Mention("k", "n"));
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    auto decoded = topk::DecodeMention(std::string_view(wire).substr(0, cut));
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << "cut at " << cut;
  }
  auto trailing = topk::DecodeMention(wire + "!");
  EXPECT_EQ(trailing.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, SerializeRestoreRebuildsIdenticalState) {
  auto source = MakeKeyStream();
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        source
            ->AddMention(Mention("key-" + std::to_string(i % 5),
                                 "note-" + std::to_string(i),
                                 1.0 + (i % 3) * 0.25, i % 5))
            .ok());
  }
  const std::string image = source->SerializeCheckpoint();

  auto restored = MakeKeyStream();
  ASSERT_TRUE(restored->RestoreFromCheckpoint(image).ok());
  ASSERT_EQ(restored->mention_count(), source->mention_count());
  EXPECT_DOUBLE_EQ(restored->total_weight(), source->total_weight());
  EXPECT_EQ(restored->group_count(), source->group_count());

  topk::TopKCountOptions qopts;
  qopts.k = 5;
  qopts.r = 1;
  auto want = source->Query(qopts);
  auto got = restored->Query(qopts);
  ASSERT_TRUE(want.ok() && got.ok());
  ASSERT_EQ(got.value().answers.size(), want.value().answers.size());
  for (size_t a = 0; a < want.value().answers.size(); ++a) {
    ASSERT_EQ(got.value().answers[a].groups.size(), want.value().answers[a].groups.size());
    for (size_t g = 0; g < want.value().answers[a].groups.size(); ++g) {
      EXPECT_EQ(got.value().answers[a].groups[g].weight,
                want.value().answers[a].groups[g].weight);
      EXPECT_EQ(got.value().answers[a].groups[g].count_upper,
                want.value().answers[a].groups[g].count_upper);
    }
  }
}

TEST(CheckpointTest, RestoreDemandsEmptyStreamAndValidImage) {
  auto source = MakeKeyStream();
  ASSERT_TRUE(source->AddMention(Mention("a", "b")).ok());
  const std::string image = source->SerializeCheckpoint();

  // Non-empty target: a checkpoint is a starting point, not a merge.
  EXPECT_EQ(source->RestoreFromCheckpoint(image).code(),
            StatusCode::kFailedPrecondition);

  // Header bit flip: rejected, stream untouched.
  auto target = MakeKeyStream();
  std::string bad = image;
  bad[1] ^= 0x01;
  EXPECT_EQ(target->RestoreFromCheckpoint(bad).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(target->mention_count(), 0u);

  // Body bit flip: body CRC catches it.
  bad = image;
  bad.back() ^= 0x01;
  EXPECT_EQ(target->RestoreFromCheckpoint(bad).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(target->mention_count(), 0u);

  // Truncation anywhere: rejected.
  EXPECT_EQ(target
                ->RestoreFromCheckpoint(
                    std::string_view(image).substr(0, image.size() - 3))
                .code(),
            StatusCode::kInvalidArgument);

  // Schema arity mismatch: a one-field stream cannot restore a two-field
  // image.
  topk::OnlineTopK::Config narrow_config;
  narrow_config.sufficient_signature = [](const record::Record& r) {
    return std::vector<std::string>{r.field(0)};
  };
  narrow_config.sufficient_match = [](const record::Record& a,
                                      const record::Record& b) {
    return a.field(0) == b.field(0);
  };
  narrow_config.necessary_factory = [](const predicates::Corpus& corpus) {
    return std::make_unique<predicates::CommonWordsPredicate>(
        &corpus, std::vector<int>{0}, 1);
  };
  narrow_config.scorer_factory = [](const record::Dataset&) {
    return [](size_t, size_t) { return -1.0; };
  };
  topk::OnlineTopK narrow(record::Schema({"only"}),
                          std::move(narrow_config));
  EXPECT_EQ(narrow.RestoreFromCheckpoint(image).code(),
            StatusCode::kInvalidArgument);

  // The pristine image still restores after all those rejections.
  EXPECT_TRUE(target->RestoreFromCheckpoint(image).ok());
  EXPECT_EQ(target->mention_count(), 1u);
}

// ---------------------------------------------------------------------------
// Service-level recovery.

ServiceOptions DurableOptions(const std::string& wal_dir) {
  ServiceOptions options;
  options.workers = 1;
  options.breaker.window = 64;
  options.breaker.min_samples = 10000;
  options.calibrate_on_register = false;
  options.wal_dir = wal_dir;
  return options;
}

QueryRequest StreamCountRequest() {
  QueryRequest request;
  request.dataset = "stream";
  request.kind = QueryKind::kTopKCount;
  request.k = 4;
  return request;
}

TEST(WalServiceTest, CleanShutdownTrimsWalAndRestartRecovers) {
  const std::string dir = TestDir("svc_clean");
  std::vector<std::pair<std::string, double>> want_groups;
  {
    QueryService service(DurableOptions(dir));
    ASSERT_TRUE(service.RegisterOnline("stream", MakeKeyStream()).ok());
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(
          service
              .Ingest("stream", Mention("key-" + std::to_string(i % 3),
                                        "note-" + std::to_string(i)))
              .ok());
    }
    QueryResponse response = service.Execute(StreamCountRequest());
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    for (const auto& group : response.result.answers[0].groups) {
      want_groups.emplace_back("", group.weight);
    }
    // Destructor: Drain → WAL sync → final checkpoint → stop workers.
  }
  // The clean shutdown checkpointed everything and trimmed the log.
  EXPECT_EQ(FileSize(dir + "/stream.wal"), 16u);
  ASSERT_FALSE(ListCheckpoints(dir, "stream").empty());

  QueryService service(DurableOptions(dir));
  ASSERT_TRUE(service.RegisterOnline("stream", MakeKeyStream()).ok());
  QueryResponse response = service.Execute(StreamCountRequest());
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_EQ(response.result.answers[0].groups.size(), want_groups.size());
  for (size_t g = 0; g < want_groups.size(); ++g) {
    EXPECT_EQ(response.result.answers[0].groups[g].weight,
              want_groups[g].second);
  }
  HealthSnapshot health = service.Health();
  ASSERT_EQ(health.datasets.size(), 1u);
  EXPECT_EQ(health.datasets[0].records, 30u);
}

TEST(WalServiceTest, RecoversFromCheckpointPlusWalTail) {
  const std::string dir = TestDir("svc_tail");
  // Small threshold: checkpoints happen mid-run, so recovery must combine
  // the newest checkpoint with the WAL frames appended after it.
  ServiceOptions options = DurableOptions(dir);
  options.checkpoint_bytes = 256;
  {
    QueryService service(options);
    ASSERT_TRUE(service.RegisterOnline("stream", MakeKeyStream()).ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(service
                      .Ingest("stream",
                              Mention("key-" + std::to_string(i % 4),
                                      "note-" + std::to_string(i)))
                      .ok());
    }
  }
  ASSERT_GE(ListCheckpoints(dir, "stream").size(), 1u);

  // A crash between checkpoint-rename and WAL-trim leaves frames whose
  // seq precedes the checkpoint; replay must skip those (idempotence) and
  // apply only the genuinely newer tail. Simulate it by appending frames
  // 48,49 (already inside the checkpoint) and 50,51 (new) to the trimmed
  // log.
  {
    WalReplay replay;
    auto wal = WriteAheadLog::Open(dir + "/stream.wal", WalOptions{},
                                   &replay);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(replay.records.empty());  // Clean shutdown trimmed it.
    for (uint64_t seq = 48; seq < 52; ++seq) {
      ASSERT_TRUE(
          wal.value()
              ->Append(seq, topk::EncodeMention(Mention(
                                "key-" + std::to_string(seq % 4),
                                "note-" + std::to_string(seq))))
              .ok());
    }
  }

  QueryService service(options);
  ASSERT_TRUE(service.RegisterOnline("stream", MakeKeyStream()).ok());
  EXPECT_EQ(service.Health().datasets[0].records, 52u);
}

TEST(WalServiceTest, SequenceGapInWalIsRejected) {
  const std::string dir = TestDir("svc_gap");
  {
    auto wal = WriteAheadLog::Open(dir + "/stream.wal", WalOptions{},
                                   nullptr);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(
        wal.value()->Append(0, topk::EncodeMention(Mention("a", "0"))).ok());
    // Seq 1 is missing: replay would silently skip a mention.
    ASSERT_TRUE(
        wal.value()->Append(2, topk::EncodeMention(Mention("c", "2"))).ok());
  }
  QueryService service(DurableOptions(dir));
  Status status = service.RegisterOnline("stream", MakeKeyStream());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // The failed registration must not leave a half-visible dataset.
  EXPECT_TRUE(service.Health().datasets.empty());
}

TEST(WalServiceTest, PreexistingMentionsCannotMergeWithPersistedState) {
  const std::string dir = TestDir("svc_merge");
  {
    QueryService service(DurableOptions(dir));
    ASSERT_TRUE(service.RegisterOnline("stream", MakeKeyStream()).ok());
    ASSERT_TRUE(service.Ingest("stream", Mention("a", "0")).ok());
  }
  // A stream that already holds mentions cannot adopt the persisted
  // history — the two cannot be merged.
  auto preloaded = MakeKeyStream();
  ASSERT_TRUE(preloaded->AddMention(Mention("z", "z")).ok());
  QueryService service(DurableOptions(dir));
  EXPECT_EQ(service.RegisterOnline("stream", std::move(preloaded)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(WalServiceTest, IngestFaultRollsBackLogAndFeedsBreaker) {
  ScopedDisarm disarm;
  const std::string dir = TestDir("svc_fault");
  QueryService service(DurableOptions(dir));
  ASSERT_TRUE(service.RegisterOnline("stream", MakeKeyStream()).ok());
  ASSERT_TRUE(service.Ingest("stream", Mention("a", "0")).ok());

  fault::ArmForTest("wal.append", 1.0, 7);
  Status status = service.Ingest("stream", Mention("b", "1"));
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("wal.append"), std::string::npos);
  fault::DisarmAllForTest();

  // The failed ingest left no trace: the retry lands as mention #1 and the
  // stream holds exactly the acknowledged mentions.
  ASSERT_TRUE(service.Ingest("stream", Mention("b", "1")).ok());
  EXPECT_EQ(service.Health().datasets[0].records, 2u);

  fault::ArmForTest("wal.fsync", 1.0, 8);
  status = service.Ingest("stream", Mention("c", "2"));
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  fault::DisarmAllForTest();
  ASSERT_TRUE(service.Ingest("stream", Mention("c", "2")).ok());
  EXPECT_EQ(service.Health().datasets[0].records, 3u);
}

TEST(WalServiceTest, MemoryOnlyModeStillWorksWithoutWalDir) {
  ServiceOptions options = DurableOptions("");
  options.wal_dir.clear();
  QueryService service(options);
  ASSERT_TRUE(service.RegisterOnline("stream", MakeKeyStream()).ok());
  ASSERT_TRUE(service.Ingest("stream", Mention("a", "0")).ok());
  EXPECT_EQ(service.Health().datasets[0].records, 1u);
}

}  // namespace
}  // namespace topkdup::serve
