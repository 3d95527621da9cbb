#include "common/deadline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <thread>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "datagen/citation_gen.h"
#include "dedup/pruned_dedup.h"
#include "obs/explain.h"
#include "predicates/citation.h"
#include "predicates/corpus.h"
#include "predicates/generic.h"
#include "sim/similarity.h"
#include "text/tokenize.h"
#include "topk/online.h"
#include "topk/rank_query.h"
#include "topk/topk_query.h"

namespace topkdup {
namespace {

TEST(DeadlineTest, UnlimitedNeverExpires) {
  Deadline d;
  EXPECT_FALSE(d.Expired());
  EXPECT_FALSE(d.ExpiredUrgent());
  d.ChargeWork(1'000'000'000ull);
  EXPECT_FALSE(d.Expired());
  EXPECT_EQ(d.reason(), DeadlineReason::kNone);
}

TEST(DeadlineTest, WorkBudgetExpiresOnlyOnFullCheck) {
  Deadline d = Deadline::WithWorkBudget(100);
  d.ChargeWork(99);
  EXPECT_FALSE(d.Expired());
  d.ChargeWork(1);
  // Urgent checks never consult the work budget (that is what keeps a
  // work-limited run deterministic at any thread count).
  EXPECT_FALSE(d.ExpiredUrgent());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(d.Expired());
  EXPECT_EQ(d.reason(), DeadlineReason::kWorkBudget);
  // Latched: every subsequent check, urgent included, now agrees.
  EXPECT_TRUE(d.ExpiredUrgent());
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.work_charged(), 100u);
}

TEST(DeadlineTest, WallClockExpires) {
  Deadline d = Deadline::AfterMillis(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(d.ExpiredUrgent());
  EXPECT_EQ(d.reason(), DeadlineReason::kWallClock);
}

TEST(DeadlineTest, ReasonNames) {
  EXPECT_STREQ(DeadlineReasonName(DeadlineReason::kNone), "none");
  EXPECT_STREQ(DeadlineReasonName(DeadlineReason::kWallClock), "wall_clock");
  EXPECT_STREQ(DeadlineReasonName(DeadlineReason::kWorkBudget),
               "work_budget");
}

/// Shared pipeline fixture over certified citation data: the generator
/// guarantees S1/S2 never merge across entities and N1/N2 hold on every
/// duplicate pair, so ground-truth entity counts are recoverable.
class DeadlinePipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::CitationGenOptions gen;
    gen.num_records = 3000;
    gen.num_authors = 600;
    gen.seed = 20090324;
    auto data_or = datagen::GenerateCitations(gen);
    ASSERT_TRUE(data_or.ok());
    data_ = std::move(data_or).value();
    auto corpus_or = predicates::Corpus::Build(&data_, {});
    ASSERT_TRUE(corpus_or.ok());
    corpus_.emplace(std::move(corpus_or).value());
    s1_.emplace(&*corpus_, predicates::CitationFields{},
                0.75 * corpus_->MaxIdf(0));
    s2_.emplace(&*corpus_, predicates::CitationFields{});
    n1_.emplace(&*corpus_, 0, 0.6);
    n2_.emplace(&*corpus_, 0, 0.6, true);
  }

  std::vector<dedup::PredicateLevel> Levels() {
    return {{&*s1_, &*n1_}, {&*s2_, &*n2_}};
  }

  topk::PairScoreFn Scorer() {
    return [this](size_t a, size_t b) {
      const double jw =
          sim::JaroWinkler(text::NormalizeText(data_[a].field(0)),
                           text::NormalizeText(data_[b].field(0)));
      return (jw - 0.85) * 10.0;
    };
  }

  /// Total work a full (never-expiring) run charges, measured once.
  uint64_t MeasureFullRunWork() {
    Deadline probe = Deadline::WithWorkBudget(
        std::numeric_limits<uint64_t>::max());
    dedup::PrunedDedupOptions options;
    options.k = 10;
    auto result_or = dedup::PrunedDedup(data_, Levels(), options,
                                        {.deadline = &probe});
    EXPECT_TRUE(result_or.ok());
    EXPECT_FALSE(result_or.value().degradation.degraded);
    return probe.work_charged();
  }

  record::Dataset data_;
  std::optional<predicates::Corpus> corpus_;
  std::optional<predicates::CitationS1> s1_;
  std::optional<predicates::CitationS2> s2_;
  std::optional<predicates::QGramOverlapPredicate> n1_;
  std::optional<predicates::QGramOverlapPredicate> n2_;
};

TEST_F(DeadlinePipelineTest, WorkBudgetDegradesButReturnsConsistentState) {
  const uint64_t full_work = MeasureFullRunWork();
  ASSERT_GT(full_work, 0u);

  Deadline deadline = Deadline::WithWorkBudget(full_work / 2);
  dedup::PrunedDedupOptions options;
  options.k = 10;
  auto result_or = dedup::PrunedDedup(data_, Levels(), options,
                                      {.deadline = &deadline});
  ASSERT_TRUE(result_or.ok());
  const dedup::PrunedDedupResult& result = result_or.value();
  EXPECT_TRUE(result.degradation.degraded);
  EXPECT_EQ(result.degradation.reason, DeadlineReason::kWorkBudget);
  EXPECT_FALSE(result.degradation.stage.empty());
  EXPECT_EQ(result.degradation.work_budget, full_work / 2);
  EXPECT_FALSE(result.groups.empty());
  // Bounds either align with the groups or were invalidated — never stale.
  EXPECT_TRUE(result.upper_bounds.empty() ||
              result.upper_bounds.size() == result.groups.size());
}

/// The headline determinism contract: a query stopped by a fixed work
/// budget returns byte-identical groups, bounds, stats, and explain output
/// at 1, 2, and 8 threads.
TEST_F(DeadlinePipelineTest, WorkBudgetStopIsIdenticalAcrossThreadCounts) {
  const uint64_t full_work = MeasureFullRunWork();
  const uint64_t budget = full_work / 2;

  std::vector<dedup::PrunedDedupResult> results;
  std::vector<std::string> explain_json;
  for (int threads : {1, 2, 8}) {
    ScopedParallelism parallelism(threads);
    Deadline deadline = Deadline::WithWorkBudget(budget);
    obs::ExplainRecorder recorder;
    dedup::PrunedDedupOptions options;
    options.k = 10;
    auto result_or = dedup::PrunedDedup(
        data_, Levels(), options,
        {.deadline = &deadline, .recorder = &recorder});
    ASSERT_TRUE(result_or.ok()) << "threads=" << threads;
    explain_json.push_back(recorder.Finish().ToJson());
    results.push_back(std::move(result_or).value());
  }

  const dedup::PrunedDedupResult& base = results[0];
  EXPECT_TRUE(base.degradation.degraded);
  for (size_t r = 1; r < results.size(); ++r) {
    const dedup::PrunedDedupResult& other = results[r];
    EXPECT_EQ(base.degradation.stage, other.degradation.stage);
    EXPECT_EQ(base.degradation.level, other.degradation.level);
    EXPECT_EQ(base.degradation.reason, other.degradation.reason);
    EXPECT_EQ(base.degradation.partial_stage, other.degradation.partial_stage);
    ASSERT_EQ(base.levels.size(), other.levels.size());
    for (size_t l = 0; l < base.levels.size(); ++l) {
      EXPECT_EQ(base.levels[l].n_after_collapse,
                other.levels[l].n_after_collapse);
      EXPECT_EQ(base.levels[l].m, other.levels[l].m);
      EXPECT_EQ(base.levels[l].M, other.levels[l].M);
      EXPECT_EQ(base.levels[l].n_after_prune, other.levels[l].n_after_prune);
    }
    ASSERT_EQ(base.groups.size(), other.groups.size());
    for (size_t g = 0; g < base.groups.size(); ++g) {
      EXPECT_EQ(base.groups[g].rep, other.groups[g].rep);
      EXPECT_EQ(base.groups[g].weight, other.groups[g].weight);
      EXPECT_EQ(base.groups[g].members, other.groups[g].members);
    }
    EXPECT_EQ(base.upper_bounds, other.upper_bounds);
    EXPECT_EQ(explain_json[0], explain_json[r]);  // Byte-identical.
  }
}

/// The same contract for a stop inside the segmentation DP, whose
/// thresholds fan out over the pool: the budget decides how many whole
/// thresholds run before the fan-out, so answers, degradation and explain
/// output are byte-identical at 1, 2 and 8 threads.
TEST_F(DeadlinePipelineTest, SegmentDpBudgetStopIsIdenticalAcrossThreadCounts) {
  topk::TopKCountOptions options;
  options.k = 10;
  options.r = 3;
  Deadline probe =
      Deadline::WithWorkBudget(std::numeric_limits<uint64_t>::max());
  auto full_or = topk::TopKCountQuery(data_, Levels(), Scorer(), options,
                                      {.deadline = &probe});
  ASSERT_TRUE(full_or.ok());
  ASSERT_EQ(full_or.value().quality, topk::AnswerQuality::kExact);
  // One unit short of the full run: the last DP threshold cannot run.
  const uint64_t budget = probe.work_charged() - 1;

  std::vector<topk::TopKCountResult> results;
  std::vector<std::string> explain_json;
  for (int threads : {1, 2, 8}) {
    Deadline deadline = Deadline::WithWorkBudget(budget);
    obs::ExplainRecorder recorder;
    options.threads = threads;
    auto result_or = topk::TopKCountQuery(
        data_, Levels(), Scorer(), options,
        {.deadline = &deadline, .recorder = &recorder});
    ASSERT_TRUE(result_or.ok()) << "threads=" << threads;
    explain_json.push_back(recorder.Finish().ToJson());
    results.push_back(std::move(result_or).value());
  }

  const topk::TopKCountResult& base = results[0];
  ASSERT_TRUE(base.degradation.degraded);
  EXPECT_EQ(base.degradation.stage, "segment_dp");
  EXPECT_EQ(base.degradation.reason, DeadlineReason::kWorkBudget);
  EXPECT_EQ(base.degradation.work_done, budget);
  EXPECT_EQ(base.quality, topk::AnswerQuality::kTruncatedLevel);
  ASSERT_FALSE(base.answers.empty());
  for (size_t r = 1; r < results.size(); ++r) {
    const topk::TopKCountResult& other = results[r];
    EXPECT_EQ(base.quality, other.quality);
    EXPECT_EQ(base.degradation.stage, other.degradation.stage);
    EXPECT_EQ(base.degradation.reason, other.degradation.reason);
    EXPECT_EQ(base.degradation.work_done, other.degradation.work_done);
    EXPECT_EQ(base.degradation.partial_stage, other.degradation.partial_stage);
    ASSERT_EQ(base.answers.size(), other.answers.size());
    for (size_t a = 0; a < base.answers.size(); ++a) {
      EXPECT_EQ(base.answers[a].score, other.answers[a].score);
      ASSERT_EQ(base.answers[a].groups.size(), other.answers[a].groups.size());
      for (size_t g = 0; g < base.answers[a].groups.size(); ++g) {
        const topk::AnswerGroup& x = base.answers[a].groups[g];
        const topk::AnswerGroup& y = other.answers[a].groups[g];
        EXPECT_EQ(x.weight, y.weight);
        EXPECT_EQ(x.representative, y.representative);
        EXPECT_EQ(x.members, y.members);
        EXPECT_EQ(x.count_lower, y.count_lower);
        EXPECT_EQ(x.count_upper, y.count_upper);
      }
    }
    EXPECT_EQ(explain_json[0], explain_json[r]);  // Byte-identical.
  }
}

TEST_F(DeadlinePipelineTest, PruneStageStopIsCleanAndBoundsStayConditional) {
  // Scan budgets downward for one that stops the pipeline inside the
  // prune stage. Work-budget expiry is only decided between prune passes,
  // so such a stop must report a clean stage boundary (partial_stage ==
  // false), and the early-exit-truncated bounds it kept must not be
  // advertised as unconditional count caps. Every such stop must also
  // leave `dedup.prune.passes` counting the passes that ran, which the
  // recorder's prune decisions show (it samples every group at its
  // default rate); the scan goes on until one stop ran fewer passes than
  // it asked for.
  const uint64_t full_work = MeasureFullRunWork();
  bool found = false;
  bool found_short = false;
  for (uint64_t budget = full_work - 1; budget > 0 && !found_short;
       budget = budget * 3 / 4) {
    Deadline deadline = Deadline::WithWorkBudget(budget);
    dedup::PrunedDedupOptions options;
    options.k = 10;
    const metrics::CounterBlock counters;
    obs::ExplainRecorder recorder;
    auto result_or = dedup::PrunedDedup(
        data_, Levels(), options,
        {.deadline = &deadline, .recorder = &recorder});
    ASSERT_TRUE(result_or.ok());
    const dedup::PrunedDedupResult& result = result_or.value();
    if (!result.degradation.degraded) continue;
    if (result.degradation.stage == "prune" &&
        result.degradation.reason == DeadlineReason::kWorkBudget) {
      EXPECT_FALSE(result.degradation.partial_stage);
      EXPECT_FALSE(result.upper_bounds_unconditional);
      const obs::ExplainReport report = recorder.Finish();
      uint64_t passes_run = 0;
      for (const obs::LevelExplain& level : report.levels) {
        int last_pass = 0;
        for (const obs::PruneDecisionExplain& decision :
             level.prune.sampled_decisions) {
          last_pass = std::max(last_pass, decision.pass);
        }
        passes_run += static_cast<uint64_t>(last_pass);
      }
      EXPECT_EQ(counters.Value("dedup.prune.passes"), passes_run)
          << "budget " << budget;
      found = true;
      found_short = passes_run < report.levels.size() *
                                     static_cast<size_t>(options.prune_passes);
      continue;
    }
    // Below a mid-collapse stop of level 1 no smaller budget can reach a
    // later stage; stop scanning.
    if (result.degradation.level == 1 &&
        result.degradation.stage == "collapse") {
      break;
    }
  }
  EXPECT_TRUE(found) << "no budget stopped the pipeline in the prune stage";
  EXPECT_TRUE(found_short) << "no budget stopped a prune between its passes";
}

TEST_F(DeadlinePipelineTest, QueryIntervalsContainGroundTruthCounts) {
  // Ground truth: total mention weight per entity.
  std::map<int64_t, double> entity_weight;
  for (size_t i = 0; i < data_.size(); ++i) {
    entity_weight[data_[i].entity_id] += data_[i].weight;
  }

  const uint64_t full_work = MeasureFullRunWork();
  // Squeeze the budget until the query degrades; start where collapse has
  // run but the lower-bound search cannot finish.
  topk::TopKCountResult result;
  std::optional<obs::ExplainReport> report;
  bool degraded = false;
  for (uint64_t budget = full_work / 2; budget > 0; budget /= 2) {
    Deadline deadline = Deadline::WithWorkBudget(budget);
    obs::ExplainRecorder recorder;
    topk::TopKCountOptions options;
    options.k = 10;
    auto result_or = topk::TopKCountQuery(
        data_, Levels(), Scorer(), options,
        {.deadline = &deadline, .recorder = &recorder});
    ASSERT_TRUE(result_or.ok());
    if (result_or.value().quality != topk::AnswerQuality::kExact) {
      result = std::move(result_or).value();
      report = recorder.Finish();
      degraded = true;
      break;
    }
  }
  ASSERT_TRUE(degraded);
  ASSERT_FALSE(result.answers.empty());
  EXPECT_TRUE(result.degradation.degraded);
  EXPECT_FALSE(result.degradation.stage.empty());

  // Every returned group unifies mentions of one entity (the generator
  // certifies the sufficient predicates); its interval must contain that
  // entity's true total count.
  const topk::TopKAnswerSet& answer = result.answers[0];
  ASSERT_FALSE(answer.groups.empty());
  for (const topk::AnswerGroup& g : answer.groups) {
    ASSERT_FALSE(g.members.empty());
    const int64_t entity = data_[g.members.front()].entity_id;
    for (size_t m : g.members) {
      ASSERT_EQ(data_[m].entity_id, entity);
    }
    const double truth = entity_weight.at(entity);
    EXPECT_LE(g.count_lower, truth + 1e-9);
    EXPECT_GE(g.count_upper, truth - 1e-9);
    EXPECT_LE(g.count_lower, g.count_upper);
    // Work-budget expiry is latched, but the K-group bound recomputation
    // runs unmetered: the intervals must be informative, not all +inf.
    EXPECT_TRUE(std::isfinite(g.count_upper));
  }

  // The explain report names the degraded stage.
  EXPECT_TRUE(report->has_degradation);
  EXPECT_EQ(report->degradation.stage, result.degradation.stage);
  EXPECT_NE(report->ToJson().find("\"degradation\""), std::string::npos);
}

TEST_F(DeadlinePipelineTest, NoDeadlineExplainHasNoDegradationSection) {
  topk::TopKCountOptions options;
  options.k = 10;
  obs::ExplainRecorder recorder;
  auto result_or = topk::TopKCountQuery(data_, Levels(), Scorer(), options,
                                        {.recorder = &recorder});
  ASSERT_TRUE(result_or.ok());
  const topk::TopKCountResult& result = result_or.value();
  EXPECT_EQ(result.quality, topk::AnswerQuality::kExact);
  EXPECT_FALSE(result.degradation.degraded);
  const obs::ExplainReport report = recorder.Finish();
  EXPECT_FALSE(report.has_degradation);
  EXPECT_EQ(report.ToJson().find("\"degradation\""), std::string::npos);
  for (const topk::TopKAnswerSet& answer : result.answers) {
    for (const topk::AnswerGroup& g : answer.groups) {
      EXPECT_EQ(g.count_lower, g.weight);
      EXPECT_EQ(g.count_upper, g.weight);
    }
  }
}

TEST_F(DeadlinePipelineTest, ExpiredBeforeStartReturnsPartialAnswer) {
  // Expired before the query even starts.
  const Deadline deadline = Deadline::AfterMillis(0);
  topk::TopKCountOptions options;
  options.k = 10;
  auto result_or = topk::TopKCountQuery(data_, Levels(), Scorer(), options,
                                        {.deadline = &deadline});
  ASSERT_TRUE(result_or.ok());
  const topk::TopKCountResult& result = result_or.value();
  EXPECT_NE(result.quality, topk::AnswerQuality::kExact);
  EXPECT_TRUE(result.degradation.degraded);
  EXPECT_EQ(result.degradation.reason, DeadlineReason::kWallClock);
}

TEST_F(DeadlinePipelineTest, WallClockDeadlineReturnsPromptly) {
  constexpr int kDeadlineMillis = 100;
  Deadline deadline = Deadline::AfterMillis(kDeadlineMillis);
  topk::TopKCountOptions options;
  options.k = 10;
  Timer timer;
  auto result_or = topk::TopKCountQuery(data_, Levels(), Scorer(), options,
                                        {.deadline = &deadline});
  const double elapsed = timer.ElapsedSeconds();
  ASSERT_TRUE(result_or.ok());
  // Generous CI margin; the cooperative checks land far more often than
  // this. A hang or an abort, not slow degradation, is the failure mode
  // guarded here.
  EXPECT_LT(elapsed, 10.0);
  const topk::TopKCountResult& result = result_or.value();
  if (result.quality != topk::AnswerQuality::kExact) {
    EXPECT_TRUE(result.degradation.degraded);
    EXPECT_FALSE(result.answers.empty());
  }
}

TEST_F(DeadlinePipelineTest, RankQueryDegradesSoundlyUnderWorkBudget) {
  std::map<int64_t, double> entity_weight;
  for (size_t i = 0; i < data_.size(); ++i) {
    entity_weight[data_[i].entity_id] += data_[i].weight;
  }

  // Unlimited run as the reference: full pipeline, no degradation.
  topk::TopKRankOptions full_options;
  full_options.k = 10;
  auto full_or = topk::TopKRankQuery(data_, Levels(), full_options);
  ASSERT_TRUE(full_or.ok());
  EXPECT_FALSE(full_or.value().degradation.degraded);

  const uint64_t full_work = MeasureFullRunWork();
  ASSERT_GT(full_work, 0u);
  for (const uint64_t budget : {full_work / 10, full_work / 2}) {
    Deadline deadline = Deadline::WithWorkBudget(budget);
    topk::TopKRankOptions options;
    options.k = 10;
    auto result_or = topk::TopKRankQuery(data_, Levels(), options,
                                         {.deadline = &deadline});
    ASSERT_TRUE(result_or.ok()) << "budget " << budget;
    const topk::TopKRankResult& result = result_or.value();
    if (!result.degradation.degraded) continue;
    EXPECT_EQ(result.degradation.reason, DeadlineReason::kWorkBudget);
    // The resolved-group rule must be skipped on a degraded run: it
    // compares bounds a partial prune cannot certify.
    EXPECT_EQ(result.resolved_pruned, 0u);
    EXPECT_FALSE(result.ranked.empty());
    const double M = result.pruning.levels.empty()
                         ? 0.0
                         : result.pruning.levels.back().M;
    for (const topk::RankedGroup& rg : result.ranked) {
      // Certified data: every group's members share one entity, so the
      // true maximal duplicate group containing it is that entity's total
      // weight. A degraded (c_i, u_i) must still bracket it. Entities
      // entirely below the prune threshold M may have had siblings soundly
      // pruned (they provably cannot rank), so the upper-bound guarantee
      // applies to the candidates that can still win: truth >= M.
      const double truth =
          entity_weight.at(data_[rg.group.rep].entity_id);
      EXPECT_LE(rg.group.weight, truth + 1e-9);
      if (truth >= M) {
        EXPECT_GE(rg.upper_bound, truth - 1e-9)
            << "unsound upper bound under budget " << budget;
      }
    }
  }
}

TEST_F(DeadlinePipelineTest, OnlineQueryDegradesSoundlyUnderWorkBudget) {
  // A stream with known ground truth: key i is ingested i+1 times, so the
  // true counts are 1..30 and exact-equality collapse recovers them.
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
  topk::OnlineTopK stream(record::Schema({"key"}), std::move(config));
  constexpr int kKeys = 30;
  std::map<std::string, double> truth;
  for (int round = 0; round < kKeys; ++round) {
    // Interleave keys so ingestion order does not mirror the counts.
    for (int key = round; key < kKeys; ++key) {
      record::Record r;
      r.fields = {"key" + std::to_string(key)};
      ASSERT_TRUE(stream.AddMention(std::move(r)).ok());
      truth["key" + std::to_string(key)] += 1.0;
    }
  }

  const std::vector<uint64_t> budgets = {
      1, 50, 5000, std::numeric_limits<uint64_t>::max()};
  for (const uint64_t budget : budgets) {
    Deadline deadline = Deadline::WithWorkBudget(budget);
    topk::TopKCountOptions options;
    options.k = 5;
    options.r = 1;
    auto result_or = stream.Query(options, {.deadline = &deadline});
    ASSERT_TRUE(result_or.ok()) << "budget " << budget;
    const topk::TopKCountResult& result = result_or.value();
    if (budget == std::numeric_limits<uint64_t>::max()) {
      EXPECT_EQ(result.quality, topk::AnswerQuality::kExact);
    }
    ASSERT_FALSE(result.answers.empty()) << "budget " << budget;
    for (const topk::AnswerGroup& group : result.answers[0].groups) {
      const double t = truth.at(stream.mention(group.representative).field(0));
      // The count interval must bracket the true stream count at every
      // budget; on the exact run it must pin it.
      EXPECT_LE(group.count_lower, t + 1e-9) << "budget " << budget;
      EXPECT_GE(group.count_upper, t - 1e-9) << "budget " << budget;
      if (result.quality == topk::AnswerQuality::kExact) {
        EXPECT_NEAR(group.weight, t, 1e-9);
      }
    }
  }
}

TEST_F(DeadlinePipelineTest, AnswerQualityNames) {
  EXPECT_STREQ(topk::AnswerQualityName(topk::AnswerQuality::kExact),
               "exact");
  EXPECT_STREQ(topk::AnswerQualityName(topk::AnswerQuality::kBoundsOnly),
               "bounds_only");
  EXPECT_STREQ(
      topk::AnswerQualityName(topk::AnswerQuality::kTruncatedLevel),
      "truncated_level");
}

}  // namespace
}  // namespace topkdup
