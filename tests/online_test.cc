#include <gtest/gtest.h>

#include <map>

#include "dedup/streaming_collapse.h"
#include "predicates/generic.h"
#include "sim/similarity.h"
#include "text/tokenize.h"
#include "topk/online.h"

namespace topkdup {
namespace {

TEST(StreamingCollapseTest, MergesMatchingSignatures) {
  std::vector<std::string> names = {"acme", "zenith", "acme",
                                    "acme",  "zenith"};
  dedup::StreamingCollapse collapse(
      [&](size_t a, size_t b) { return names[a] == names[b]; });
  for (const auto& name : names) {
    collapse.Insert({name}, 1.0);
  }
  EXPECT_EQ(collapse.record_count(), 5u);
  auto groups = collapse.Groups();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_DOUBLE_EQ(groups[0].weight, 3.0);  // acme x3.
  EXPECT_DOUBLE_EQ(groups[1].weight, 2.0);
  EXPECT_DOUBLE_EQ(collapse.GroupWeight(0), 3.0);
  EXPECT_DOUBLE_EQ(collapse.GroupWeight(1), 2.0);
}

TEST(StreamingCollapseTest, BlockingFiltersNonCandidates) {
  int evaluations = 0;
  std::vector<std::string> names = {"aa bb", "cc dd", "aa xx"};
  dedup::StreamingCollapse collapse([&](size_t a, size_t b) {
    ++evaluations;
    return names[a] == names[b];
  });
  collapse.Insert({"aa", "bb"}, 1.0);
  collapse.Insert({"cc", "dd"}, 1.0);  // No shared token: no evaluation.
  collapse.Insert({"aa", "xx"}, 1.0);  // Shares "aa" with record 0.
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(collapse.group_count(), 3u);  // All distinct entities.
}

TEST(StreamingCollapseTest, SurvivesCapacityDoublingWithWeights) {
  // Force multiple rebuilds and verify group weights stay correct.
  std::vector<int> keys;
  dedup::StreamingCollapse collapse(
      [&](size_t a, size_t b) { return keys[a] == keys[b]; });
  std::map<int, double> expected;
  for (int i = 0; i < 200; ++i) {
    const int key = i % 7;
    keys.push_back(key);
    collapse.Insert({"k" + std::to_string(key)}, 1.0 + key);
    expected[key] += 1.0 + key;
  }
  for (int i = 0; i < 200; ++i) {
    EXPECT_DOUBLE_EQ(collapse.GroupWeight(i), expected[keys[i]]) << i;
  }
  auto groups = collapse.Groups();
  ASSERT_EQ(groups.size(), 7u);
  size_t total_members = 0;
  for (const auto& g : groups) total_members += g.members.size();
  EXPECT_EQ(total_members, 200u);
}

class OnlineTopKTest : public ::testing::Test {
 protected:
  topk::OnlineTopK MakeStream() {
    topk::OnlineTopK::Config config;
    config.sufficient_signature = [](const record::Record& r) {
      return std::vector<std::string>{text::NormalizeText(r.field(0))};
    };
    config.sufficient_match = [](const record::Record& a,
                                 const record::Record& b) {
      return text::NormalizeText(a.field(0)) ==
             text::NormalizeText(b.field(0));
    };
    config.necessary_factory = [](const predicates::Corpus& corpus) {
      return std::make_unique<predicates::QGramOverlapPredicate>(
          &corpus, 0, 0.6);
    };
    config.scorer_factory = [](const record::Dataset& reps) {
      return [&reps](size_t a, size_t b) {
        const double jw =
            sim::JaroWinkler(text::NormalizeText(reps[a].field(0)),
                             text::NormalizeText(reps[b].field(0)));
        return (jw - 0.85) * 10.0;
      };
    };
    return topk::OnlineTopK(record::Schema({"name"}), std::move(config));
  }

  static record::Record Mention(const char* name) {
    record::Record r;
    r.fields = {name};
    return r;
  }
};

TEST_F(OnlineTopKTest, QueryTracksTheStream) {
  topk::OnlineTopK stream = MakeStream();
  for (const char* name :
       {"maria gonzalez", "maria gonzalez", "wei zhang", "otto becker"}) {
    stream.AddMention(Mention(name));
  }
  EXPECT_EQ(stream.mention_count(), 4u);

  topk::TopKCountOptions options;
  options.k = 1;
  auto result = stream.Query(options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().answers.empty());
  const auto& top = result.value().answers[0].groups[0];
  EXPECT_DOUBLE_EQ(top.weight, 2.0);  // maria x2.

  // More mentions shift the leader.
  for (int i = 0; i < 3; ++i) {
    stream.AddMention(Mention("wei zhang"));
  }
  stream.AddMention(Mention("wei zhangg"));  // Noisy variant.
  auto result2 = stream.Query(options);
  ASSERT_TRUE(result2.ok());
  const auto& top2 = result2.value().answers[0].groups[0];
  EXPECT_GE(top2.weight, 4.0);  // wei zhang (+variant if merged).
  // Members refer to mention ids in ingestion order; the query object
  // itself exposes no record access, so just bound-check them.
  for (size_t m : top2.members) {
    EXPECT_LT(m, stream.mention_count());
  }
}

TEST_F(OnlineTopKTest, EpochPublishPinAndRestore) {
  topk::OnlineTopK stream = MakeStream();
  EXPECT_EQ(stream.current_epoch(), 0u);
  EXPECT_EQ(stream.PinEpoch(), nullptr);  // Nothing published yet.

  for (const char* name :
       {"maria gonzalez", "maria gonzalez", "wei zhang", "otto becker"}) {
    stream.AddMention(Mention(name));
  }
  EXPECT_EQ(stream.PublishEpoch(), 1u);
  auto pinned = stream.PinEpoch();
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->epoch, 1u);
  EXPECT_EQ(pinned->snapshot.mention_weights.size(), 4u);

  // A pinned epoch is immutable: later ingest + publication do not touch
  // it, and queries against it replay the state it froze.
  for (int i = 0; i < 3; ++i) stream.AddMention(Mention("wei zhang"));
  EXPECT_EQ(stream.PublishEpoch(), 2u);
  EXPECT_EQ(pinned->snapshot.mention_weights.size(), 4u);
  topk::TopKCountOptions options;
  options.k = 1;
  auto old_result = stream.QuerySnapshot(pinned->snapshot, options);
  ASSERT_TRUE(old_result.ok());
  EXPECT_DOUBLE_EQ(old_result.value().answers[0].groups[0].weight, 2.0);
  auto new_pin = stream.PinEpoch();
  ASSERT_NE(new_pin, nullptr);
  EXPECT_EQ(new_pin->epoch, 2u);
  auto new_result = stream.QuerySnapshot(new_pin->snapshot, options);
  ASSERT_TRUE(new_result.ok());
  EXPECT_DOUBLE_EQ(new_result.value().answers[0].groups[0].weight, 4.0);

  // RestoreEpochCounter is max-only: recovery can never move time
  // backwards under a published epoch.
  stream.RestoreEpochCounter(1);
  EXPECT_EQ(stream.current_epoch(), 2u);
  stream.RestoreEpochCounter(9);
  EXPECT_EQ(stream.current_epoch(), 9u);
  EXPECT_EQ(stream.PublishEpoch(), 10u);
}

TEST_F(OnlineTopKTest, GroupCountStaysBelowMentions) {
  topk::OnlineTopK stream = MakeStream();
  for (int i = 0; i < 60; ++i) {
    stream.AddMention(Mention(i % 2 == 0 ? "acme systems" : "zenith labs"));
  }
  EXPECT_EQ(stream.mention_count(), 60u);
  // All mentions collapse into two groups incrementally.
  auto groups_weighted = stream.Query([] {
    topk::TopKCountOptions o;
    o.k = 2;
    return o;
  }());
  ASSERT_TRUE(groups_weighted.ok());
  const auto& answer = groups_weighted.value().answers[0];
  ASSERT_EQ(answer.groups.size(), 2u);
  EXPECT_DOUBLE_EQ(answer.groups[0].weight, 30.0);
  EXPECT_DOUBLE_EQ(answer.groups[1].weight, 30.0);
}

}  // namespace
}  // namespace topkdup
