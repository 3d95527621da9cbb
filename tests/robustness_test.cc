#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "cluster/pair_scores.h"
#include "common/log.h"
#include "common/parallel.h"
#include "common/status.h"
#include "dedup/pruned_dedup.h"
#include "predicates/corpus.h"
#include "predicates/generic.h"
#include "segment/segment_scorer.h"
#include "segment/topk_dp.h"
#include "sim/similarity.h"
#include "text/tokenize.h"
#include "topk/topk_query.h"

namespace topkdup::topk {
namespace {

/// User-reachable bad inputs must come back as InvalidArgument Status from
/// the API boundary — never a TOPKDUP_CHECK abort. Each test drives one
/// converted path.
record::Dataset SmallData() {
  record::Dataset data{record::Schema({"name"})};
  auto add = [&](const char* name, int64_t entity, int times) {
    for (int i = 0; i < times; ++i) {
      record::Record r;
      r.fields = {name};
      r.entity_id = entity;
      data.Add(r);
    }
  };
  add("maria gonzalez", 0, 3);
  add("wei zhang", 1, 2);
  add("otto becker", 2, 1);
  return data;
}

class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = SmallData();
    auto corpus_or = predicates::Corpus::Build(&data_, {});
    ASSERT_TRUE(corpus_or.ok());
    corpus_.emplace(std::move(corpus_or).value());
    sufficient_.emplace(&*corpus_, std::vector<int>{0});
    necessary_.emplace(&*corpus_, 0, 0.6);
  }

  PairScoreFn Scorer() {
    return [this](size_t a, size_t b) {
      const double jw =
          sim::JaroWinkler(text::NormalizeText(data_[a].field(0)),
                           text::NormalizeText(data_[b].field(0)));
      return (jw - 0.85) * 10.0;
    };
  }

  std::vector<dedup::PredicateLevel> Levels() {
    return {{&*sufficient_, &*necessary_}};
  }

  /// Runs the query with one options tweak and returns the Status.
  template <typename Fn>
  Status QueryStatus(Fn&& tweak) {
    TopKCountOptions options;
    options.k = 2;
    tweak(options);
    auto result_or = TopKCountQuery(data_, Levels(), Scorer(), options);
    return result_or.ok() ? Status::OK() : result_or.status();
  }

  void ExpectInvalid(const Status& status, const char* needle) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.message();
    EXPECT_NE(status.message().find(needle), std::string::npos)
        << status.message();
  }

  record::Dataset data_;
  std::optional<predicates::Corpus> corpus_;
  std::optional<predicates::ExactFieldsPredicate> sufficient_;
  std::optional<predicates::QGramOverlapPredicate> necessary_;
};

TEST_F(RobustnessTest, KBelowOneIsInvalidArgument) {
  ExpectInvalid(QueryStatus([](TopKCountOptions& o) { o.k = 0; }),
                "k must be >= 1");
  ExpectInvalid(QueryStatus([](TopKCountOptions& o) { o.k = -3; }),
                "k must be >= 1");
}

TEST_F(RobustnessTest, RBelowOneIsInvalidArgument) {
  ExpectInvalid(QueryStatus([](TopKCountOptions& o) { o.r = 0; }),
                "r must be >= 1");
}

TEST_F(RobustnessTest, KLargerThanDatasetIsInvalidArgument) {
  ExpectInvalid(QueryStatus([](TopKCountOptions& o) { o.k = 1000; }),
                "exceeds");
}

TEST_F(RobustnessTest, EmptyDatasetIsInvalidArgument) {
  record::Dataset empty{record::Schema({"name"})};
  TopKCountOptions options;
  auto result_or = TopKCountQuery(empty, Levels(), Scorer(), options);
  ASSERT_FALSE(result_or.ok());
  ExpectInvalid(result_or.status(), "dataset is empty");
}

TEST_F(RobustnessTest, NanWeightIsInvalidArgument) {
  (*data_.mutable_records())[1].weight = std::nan("");
  ExpectInvalid(QueryStatus([](TopKCountOptions&) {}), "invalid weight");
}

TEST_F(RobustnessTest, NegativeWeightIsInvalidArgument) {
  (*data_.mutable_records())[2].weight = -1.0;
  const Status status = QueryStatus([](TopKCountOptions&) {});
  ExpectInvalid(status, "invalid weight");
  // The message names the offending record.
  EXPECT_NE(status.message().find("record 2"), std::string::npos);
}

TEST_F(RobustnessTest, BadEmbeddingAlphaIsInvalidArgument) {
  ExpectInvalid(
      QueryStatus([](TopKCountOptions& o) { o.embedding_alpha = 0.0; }),
      "embedding_alpha");
  ExpectInvalid(
      QueryStatus([](TopKCountOptions& o) { o.embedding_alpha = 1.5; }),
      "embedding_alpha");
  ExpectInvalid(QueryStatus([](TopKCountOptions& o) {
                  o.embedding_alpha = std::nan("");
                }),
                "embedding_alpha");
}

TEST_F(RobustnessTest, BadPosteriorTemperatureIsInvalidArgument) {
  ExpectInvalid(QueryStatus([](TopKCountOptions& o) {
                  o.compute_posteriors = true;
                  o.posterior_temperature = 0.0;
                }),
                "posterior_temperature");
  // Without posteriors the temperature is unused and not validated.
  EXPECT_TRUE(QueryStatus([](TopKCountOptions& o) {
                o.posterior_temperature = 0.0;
              }).ok());
}

TEST_F(RobustnessTest, PositiveDefaultScoreIsInvalidArgument) {
  ExpectInvalid(QueryStatus([](TopKCountOptions& o) {
                  o.scoring.default_score = 0.5;
                }),
                "default_score");
}

TEST_F(RobustnessTest, NullScorerIsInvalidArgument) {
  TopKCountOptions options;
  options.k = 2;
  auto result_or = TopKCountQuery(data_, Levels(), PairScoreFn{}, options);
  ASSERT_FALSE(result_or.ok());
  ExpectInvalid(result_or.status(), "scorer");
}

TEST_F(RobustnessTest, MissingNecessaryPredicateIsInvalidArgument) {
  TopKCountOptions options;
  options.k = 2;
  std::vector<dedup::PredicateLevel> no_necessary = {{&*sufficient_, nullptr}};
  auto result_or = TopKCountQuery(data_, no_necessary, Scorer(), options);
  ASSERT_FALSE(result_or.ok());
  ExpectInvalid(result_or.status(), "necessary");

  auto empty_or = TopKCountQuery(data_, {}, Scorer(), options);
  ASSERT_FALSE(empty_or.ok());
  EXPECT_EQ(empty_or.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RobustnessTest, PrunedDedupValidatesItsOptions) {
  dedup::PrunedDedupOptions options;
  options.k = 0;
  auto k_or = dedup::PrunedDedup(data_, Levels(), options);
  ASSERT_FALSE(k_or.ok());
  EXPECT_EQ(k_or.status().code(), StatusCode::kInvalidArgument);

  options.k = 2;
  options.prune_passes = 0;
  auto passes_or = dedup::PrunedDedup(data_, Levels(), options);
  ASSERT_FALSE(passes_or.ok());
  EXPECT_NE(passes_or.status().message().find("prune_passes"),
            std::string::npos);

  options.prune_passes = 2;
  auto levels_or = dedup::PrunedDedup(data_, {}, options);
  ASSERT_FALSE(levels_or.ok());
  EXPECT_EQ(levels_or.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RobustnessTest, TopKSegmentationValidatesKAndR) {
  const std::vector<size_t> order = {0, 1, 2};
  const std::vector<double> weights = {1.0, 1.0, 1.0};
  const cluster::PairScores scores(3, 0.0, {{0, 1, 1.0}, {1, 2, 1.0}});
  segment::SegmentScorer scorer(scores, order, /*band=*/8);

  segment::TopKDpOptions bad_k;
  bad_k.k = 0;
  auto k_or = segment::TopKSegmentation(scorer, order, weights, bad_k);
  ASSERT_FALSE(k_or.ok());
  EXPECT_EQ(k_or.status().code(), StatusCode::kInvalidArgument);

  // An entry names its predecessor's rank in one byte, so r is capped at
  // 255 in both DPs.
  for (int r : {0, 256, 1000}) {
    segment::TopKDpOptions bad_r;
    bad_r.r = r;
    auto r_or = segment::TopKSegmentation(scorer, order, weights, bad_r);
    ASSERT_FALSE(r_or.ok()) << "r=" << r;
    EXPECT_EQ(r_or.status().code(), StatusCode::kInvalidArgument);
    auto best_or = segment::BestSegmentations(scorer, r);
    ASSERT_FALSE(best_or.ok()) << "r=" << r;
    EXPECT_EQ(best_or.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(RobustnessTest, RAboveDpRankLimitIsInvalidArgument) {
  // The query asks the DP for 3·r segmentations, so r > 85 would exceed
  // its 255 ranks; a huge r would also overflow 3·r.
  ExpectInvalid(QueryStatus([](TopKCountOptions& o) { o.r = 86; }),
                "r must be <= 85");
  ExpectInvalid(QueryStatus([](TopKCountOptions& o) { o.r = 1 << 30; }),
                "r must be <= 85");
  EXPECT_TRUE(QueryStatus([](TopKCountOptions& o) { o.r = 85; }).ok());
}

TEST_F(RobustnessTest, ValidQueryStillSucceedsAfterConversions) {
  // Guard against over-eager validation: the happy path must be intact.
  TopKCountOptions options;
  options.k = 2;
  options.r = 1;
  auto result_or = TopKCountQuery(data_, Levels(), Scorer(), options);
  ASSERT_TRUE(result_or.ok());
  EXPECT_EQ(result_or.value().quality, AnswerQuality::kExact);
  ASSERT_FALSE(result_or.value().answers.empty());
}

/// Saves/restores an environment variable around a test body.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* name) : name_(name) {
    if (const char* value = std::getenv(name)) {
      saved_ = value;
    }
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  void Set(const char* value) { ::setenv(name_, value, 1); }
  void Unset() { ::unsetenv(name_); }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

TEST(EnvKnobRobustnessTest, GarbageThreadsEnvWarnsAndKeepsHardwareDefault) {
  ScopedEnv env("TOPKDUP_THREADS");
  SetParallelism(0);  // Clear any programmatic override.
  env.Unset();
  const int hardware_default = ParallelismLevel();
  ASSERT_GE(hardware_default, 1);

  std::vector<std::string> warnings;
  SetLogSink([&](LogSeverity severity, const char*, int,
                 std::string_view message) {
    if (severity == LogSeverity::kWarning) warnings.emplace_back(message);
  });
  env.Set("not-a-number");
  // Garbage must not abort, and must not silently run single-threaded: the
  // hardware default stays in force.
  EXPECT_EQ(ParallelismLevel(), hardware_default);
  SetLogSink({});
  bool mentioned = false;
  for (const std::string& w : warnings) {
    if (w.find("TOPKDUP_THREADS") != std::string::npos) mentioned = true;
  }
  // The warning is emitted once per process; an earlier test may have
  // consumed it, so only require it when this was the first offender.
  if (!warnings.empty()) {
    EXPECT_TRUE(mentioned);
  }

  env.Set("3");
  EXPECT_EQ(ParallelismLevel(), 3);  // Valid values still apply.
}

TEST(EnvKnobRobustnessTest, LogLevelKnobParsesStrictly) {
  // The latched min-severity static makes re-running the env read
  // unobservable here; the strict parser it uses is the contract.
  LogSeverity severity = LogSeverity::kInfo;
  EXPECT_FALSE(ParseLogSeverity("chatty", &severity));
  EXPECT_FALSE(ParseLogSeverity("00", &severity));
  EXPECT_EQ(severity, LogSeverity::kInfo);
  EXPECT_TRUE(ParseLogSeverity("error", &severity));
  EXPECT_EQ(severity, LogSeverity::kError);
  // SetMinLogSeverity still governs the runtime filter.
  const LogSeverity before = MinLogSeverity();
  SetMinLogSeverity(LogSeverity::kError);
  EXPECT_EQ(MinLogSeverity(), LogSeverity::kError);
  SetMinLogSeverity(before);
}

}  // namespace
}  // namespace topkdup::topk
