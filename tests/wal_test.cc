#include "serve/wal.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/crc32.h"
#include "common/faultpoint.h"
#include "common/file.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/strings.h"
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
    EXPECT_EQ(wal.value()->end_offset(), 16u);
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
      ASSERT_TRUE(wal.value()->Append(i, {payloads[i]}).ok());
    }
    uint64_t expected = 0;
    for (const auto& p : payloads) {
      expected += WriteAheadLog::kFrameHeaderBytes + p.size();
    }
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
    // stamp several frames with the same upcoming epoch id, and a run of
    // frames shares one stamp); the default epoch argument is 0.
    ASSERT_TRUE(wal.value()->Append(0, {"a"}, 3).ok());
    ASSERT_TRUE(wal.value()->Append(1, {"b", "c"}, 7).ok());
    ASSERT_TRUE(wal.value()->Append(3, {"d"}).ok());
  }
  WalReplay replay;
  auto wal = WriteAheadLog::Open(path, WalOptions{}, &replay);
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ(replay.records.size(), 4u);
  // The run's frames carry consecutive seqs from its first one.
  for (uint64_t i = 0; i < 4; ++i) EXPECT_EQ(replay.records[i].first, i);
  EXPECT_EQ(replay.records[2].second, "c");
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
      ASSERT_TRUE(wal.value()->Append(i, {payloads[i]}).ok());
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
    ASSERT_TRUE(wal.value()->Append(0, {"first-frame"}).ok());
    ASSERT_TRUE(wal.value()->Append(1, {"second-frame"}).ok());
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
    ASSERT_TRUE(wal.value()->Append(0, {"first-frame"}).ok());
    ASSERT_TRUE(wal.value()->Append(1, {"second-frame"}).ok());
  }
  const std::string pristine = Slurp(path);
  std::string image = pristine;
  image[16 + WriteAheadLog::kFrameHeaderBytes] ^= 0xFF;  // First payload byte.
  Spit(path, image);
  auto wal = WriteAheadLog::Open(path, WalOptions{}, nullptr);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kInvalidArgument);

  // A damaged length that sends the first frame past EOF looks like a torn
  // write, but an intact frame follows it: corruption, and the file is
  // left as it was rather than truncated back to its header.
  image = pristine;
  image[16 + 3] ^= 0x01;  // High byte of the first frame's payload length.
  Spit(path, image);
  wal = WriteAheadLog::Open(path, WalOptions{}, nullptr);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(FileSize(path), pristine.size());
}

TEST(WalTest, BadMagicOrVersionRejected) {
  const std::string dir = TestDir("magic");
  const std::string path = dir + "/log.wal";
  {
    auto wal = WriteAheadLog::Open(path, WalOptions{}, nullptr);
    ASSERT_TRUE(wal.ok());
  }
  const std::string pristine = Slurp(path);
  std::string image = pristine;
  image[0] ^= 0xFF;
  Spit(path, image);
  auto wal = WriteAheadLog::Open(path, WalOptions{}, nullptr);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kInvalidArgument);

  // A well-formed version 2 header (CRC valid) is still refused: a v2 log
  // may be the tail a checkpoint trim left, not a whole history.
  std::string v2 = pristine.substr(0, 8);
  PutU32(&v2, 2);
  PutU32(&v2, Crc32(reinterpret_cast<const uint8_t*>(v2.data()), 12));
  v2.append(pristine.substr(16));
  Spit(path, v2);
  wal = WriteAheadLog::Open(path, WalOptions{}, nullptr);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wal.status().message().find("unsupported version 2"),
            std::string::npos)
      << wal.status().ToString();
}

TEST(WalTest, TruncateToWithdrawsTheLastFrame) {
  const std::string dir = TestDir("truncto");
  const std::string path = dir + "/log.wal";
  {
    auto wal_or = WriteAheadLog::Open(path, WalOptions{}, nullptr);
    ASSERT_TRUE(wal_or.ok());
    WriteAheadLog* wal = wal_or.value().get();
    ASSERT_TRUE(wal->Append(0, {"keep-me"}).ok());
    const uint64_t pre = wal->end_offset();
    ASSERT_TRUE(wal->Append(1, {"withdraw-me"}).ok());
    ASSERT_TRUE(wal->TruncateTo(pre).ok());
    EXPECT_EQ(wal->end_offset(), pre);
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
    ASSERT_TRUE(wal_never.value()->Append(i, {"x"}).ok());
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
    ASSERT_TRUE(wal_n.value()->Append(i, {"y"}).ok());
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
    ASSERT_TRUE(wal->Append(0, {"pre-fault"}).ok());
    const uint64_t pre = wal->end_offset();

    // wal.append fires before any bytes are written.
    fault::ArmForTest("wal.append", 1.0, 42);
    Status append_fault = wal->Append(1, {"never-lands"});
    EXPECT_EQ(append_fault.code(), StatusCode::kInternal);
    EXPECT_NE(append_fault.message().find("wal.append"), std::string::npos);
    EXPECT_EQ(wal->end_offset(), pre);
    fault::DisarmAllForTest();

    // wal.fsync fires after the write under policy kAlways: the whole run
    // must be withdrawn so an unacknowledged record is never left durable.
    fault::ArmForTest("wal.fsync", 1.0, 43);
    Status sync_fault = wal->Append(1, {"never-synced", "nor-this-one"});
    EXPECT_EQ(sync_fault.code(), StatusCode::kInternal);
    EXPECT_NE(sync_fault.message().find("wal.fsync"), std::string::npos);
    EXPECT_EQ(wal->end_offset(), pre);
    fault::DisarmAllForTest();

    // Clean-state rerun: the same append succeeds once the faults clear.
    ASSERT_TRUE(wal->Append(1, {"lands-now"}).ok());
  }
  WalReplay replay;
  auto reopened = WriteAheadLog::Open(path, WalOptions{}, &replay);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[1].second, "lands-now");
}

// ---------------------------------------------------------------------------
// Mention wire format.

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

/// Group weights of the k = 4 count answer over "stream".
std::vector<double> StreamAnswerWeights(QueryService& service) {
  QueryResponse response = service.Execute(StreamCountRequest());
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  std::vector<double> weights;
  if (response.status.ok() && !response.result.answers.empty()) {
    for (const auto& group : response.result.answers[0].groups) {
      weights.push_back(group.weight);
    }
  }
  return weights;
}

/// Every file name in `dir`, sorted.
std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST(WalServiceTest, CleanShutdownKeepsHistoryInWalAndRestartRecovers) {
  const std::string dir = TestDir("svc_clean");
  std::vector<double> want_weights;
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
    want_weights = StreamAnswerWeights(service);
    ASSERT_FALSE(want_weights.empty());
    // Destructor: Drain → WAL sync → stop workers.
  }
  // The WAL is the stream's only durable record: no other file, and one
  // frame per acknowledged mention, seq 0..29.
  EXPECT_EQ(ListDir(dir), std::vector<std::string>{"stream.wal"});
  {
    WalReplay replay;
    auto wal = WriteAheadLog::Open(dir + "/stream.wal", WalOptions{},
                                   &replay);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_EQ(replay.records.size(), 30u);
    for (uint64_t i = 0; i < 30; ++i) {
      EXPECT_EQ(replay.records[i].first, i);
    }
  }

  QueryService service(DurableOptions(dir));
  ASSERT_TRUE(service.RegisterOnline("stream", MakeKeyStream()).ok());
  EXPECT_EQ(StreamAnswerWeights(service), want_weights);
  HealthSnapshot health = service.Health();
  ASSERT_EQ(health.datasets.size(), 1u);
  EXPECT_EQ(health.datasets[0].records, 30u);
}

TEST(WalServiceTest, CorruptHistoryAfterCleanShutdownIsRefused) {
  const std::string dir = TestDir("svc_corrupt");
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
  }
  // Flip one byte inside frame 10's payload. Not the last frame: a damaged
  // final frame is, by design, a torn tail.
  const std::string path = dir + "/stream.wal";
  std::string image = Slurp(path);
  size_t pos = 16;
  for (int frame = 0; frame < 10; ++frame) {
    ASSERT_LT(pos + WriteAheadLog::kFrameHeaderBytes, image.size())
        << "the log holds fewer than 11 frames";
    pos += WriteAheadLog::kFrameHeaderBytes +
           GetU32(reinterpret_cast<const uint8_t*>(image.data()) + pos);
  }
  ASSERT_LT(pos + WriteAheadLog::kFrameHeaderBytes + 2, image.size());
  image[pos + WriteAheadLog::kFrameHeaderBytes + 2] ^= 0x5A;
  Spit(path, image);

  // Recovery refuses the damaged history; it never registers the 10
  // mentions before the damage as if they were the whole stream.
  QueryService service(DurableOptions(dir));
  Status status = service.RegisterOnline("stream", MakeKeyStream());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_TRUE(service.Health().datasets.empty());
}

TEST(WalServiceTest, SequenceGapInWalIsRejected) {
  const std::string dir = TestDir("svc_gap");
  {
    auto wal = WriteAheadLog::Open(dir + "/stream.wal", WalOptions{},
                                   nullptr);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(
        wal.value()->Append(0, {topk::EncodeMention(Mention("a", "0"))}).ok());
    // Seq 1 is missing: replay would silently skip a mention.
    ASSERT_TRUE(
        wal.value()->Append(2, {topk::EncodeMention(Mention("c", "2"))}).ok());
  }
  QueryService service(DurableOptions(dir));
  Status status = service.RegisterOnline("stream", MakeKeyStream());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // The failed registration must not leave a half-visible dataset.
  EXPECT_TRUE(service.Health().datasets.empty());
}

TEST(WalServiceTest, RepeatedFrameInWalIsRejected) {
  const std::string dir = TestDir("svc_repeat");
  {
    auto wal = WriteAheadLog::Open(dir + "/stream.wal", WalOptions{},
                                   nullptr);
    ASSERT_TRUE(wal.ok());
    // Seq 1 appears twice: replaying both would count one mention twice.
    for (uint64_t seq : {0, 1, 1, 2}) {
      ASSERT_TRUE(wal.value()
                      ->Append(seq, {topk::EncodeMention(Mention(
                                        "k" + std::to_string(seq), "n"))})
                      .ok());
    }
  }
  QueryService service(DurableOptions(dir));
  Status status = service.RegisterOnline("stream", MakeKeyStream());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_TRUE(service.Health().datasets.empty());
}

TEST(WalServiceTest, PreloadedStreamIsWrittenToTheWalInOneSync) {
  const std::string dir = TestDir("svc_preload");
  const ServiceOptions options = DurableOptions(dir);
  ASSERT_EQ(options.wal.fsync, WalFsyncPolicy::kAlways);
  auto preloaded = MakeKeyStream();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(preloaded
                    ->AddMention(Mention("key-" + std::to_string(i % 7),
                                         "note-" + std::to_string(i),
                                         1.0 + (i % 3) * 0.5))
                    .ok());
  }
  std::vector<double> want_weights;
  {
    QueryService service(options);
    const metrics::MetricsSnapshot before =
        metrics::Registry::Global().Snapshot();
    ASSERT_TRUE(service.RegisterOnline("stream", std::move(preloaded)).ok());
    const metrics::MetricsSnapshot delta = metrics::MetricsSnapshot::Delta(
        before, metrics::Registry::Global().Snapshot());
    // One frame per mention, and one fsync for the whole run — not one per
    // frame, which is what kAlways would cost mention by mention.
    EXPECT_EQ(delta.CounterValue("serve.wal.appends"), 200u);
    EXPECT_EQ(delta.CounterValue("serve.wal.fsyncs"), 1u);
    want_weights = StreamAnswerWeights(service);
    ASSERT_FALSE(want_weights.empty());
  }

  QueryService service(options);
  ASSERT_TRUE(service.RegisterOnline("stream", MakeKeyStream()).ok());
  EXPECT_EQ(service.Health().datasets[0].records, 200u);
  EXPECT_EQ(StreamAnswerWeights(service), want_weights);
}

TEST(WalServiceTest, FailedPreloadSyncLeavesNoHistory) {
  ScopedDisarm disarm;
  const std::string dir = TestDir("svc_preload_fault");
  ServiceOptions options = DurableOptions(dir);
  // Under kNever the append issues no sync, so registration's own Sync()
  // is the one that fails.
  options.wal.fsync = WalFsyncPolicy::kNever;
  auto preloaded = [] {
    auto stream = MakeKeyStream();
    for (int i = 0; i < 5; ++i) {
      TOPKDUP_CHECK(stream->AddMention(Mention("k", std::to_string(i))).ok());
    }
    return stream;
  };
  {
    QueryService service(options);
    fault::ArmForTest("wal.fsync", 1.0, 9);
    EXPECT_EQ(service.RegisterOnline("stream", preloaded()).code(),
              StatusCode::kInternal);
    fault::DisarmAllForTest();
    EXPECT_TRUE(service.Health().datasets.empty());
  }
  EXPECT_EQ(FileSize(dir + "/stream.wal"), 16u);
  // The retry registers the same preloaded stream.
  QueryService service(options);
  ASSERT_TRUE(service.RegisterOnline("stream", preloaded()).ok());
  EXPECT_EQ(service.Health().datasets[0].records, 5u);
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
