#include "obs/explain.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "datagen/citation_gen.h"
#include "dedup/pruned_dedup.h"
#include "predicates/citation.h"
#include "predicates/corpus.h"
#include "predicates/generic.h"
#include "sim/similarity.h"
#include "text/tokenize.h"
#include "topk/topk_query.h"

namespace topkdup {
namespace {

using obs::ExplainRecorder;
using obs::ExplainReport;
using obs::PruneVerdict;

TEST(ExplainRecorderTest, SampleKeyIsDeterministicAndRateBounded) {
  ExplainRecorder always(1.0);
  ExplainRecorder never(0.0);
  ExplainRecorder half(0.5);
  size_t admitted = 0;
  for (uint64_t key = 0; key < 2000; ++key) {
    EXPECT_TRUE(always.SampleKey(key));
    EXPECT_FALSE(never.SampleKey(key));
    // Same key, same decision — the thread-count-independence contract.
    EXPECT_EQ(half.SampleKey(key), half.SampleKey(key));
    if (half.SampleKey(key)) ++admitted;
  }
  // The splitmix64 hash is uniform; 0.5 over 2000 keys stays well inside
  // these loose bounds.
  EXPECT_GT(admitted, 800u);
  EXPECT_LT(admitted, 1200u);
}

TEST(ExplainRecorderTest, FinishSortsDecisionsByPassThenGroup) {
  ExplainRecorder recorder(1.0);
  recorder.BeginLevel("S", "N", true);
  obs::PruneDecisionExplain d;
  d.pass = 2;
  d.group = 1;
  recorder.RecordPruneDecision(d);
  d.pass = 1;
  d.group = 5;
  recorder.RecordPruneDecision(d);
  d.pass = 1;
  d.group = 2;
  recorder.RecordPruneDecision(d);
  const ExplainReport report = recorder.Finish();
  ASSERT_EQ(report.levels.size(), 1u);
  const auto& decisions = report.levels[0].prune.sampled_decisions;
  ASSERT_EQ(decisions.size(), 3u);
  EXPECT_EQ(decisions[0].pass, 1);
  EXPECT_EQ(decisions[0].group, 2u);
  EXPECT_EQ(decisions[1].pass, 1);
  EXPECT_EQ(decisions[1].group, 5u);
  EXPECT_EQ(decisions[2].pass, 2);
  EXPECT_EQ(decisions[2].group, 1u);
}

/// Shared fig2-style fixture: a small synthetic citation corpus with the
/// same predicate levels as the Figure-2 harness.
class ExplainPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::CitationGenOptions gen;
    gen.num_records = 3000;
    gen.num_authors = 600;
    gen.seed = 20090324;
    auto data_or = datagen::GenerateCitations(gen);
    ASSERT_TRUE(data_or.ok());
    data_.emplace(std::move(data_or).value());
    auto corpus_or = predicates::Corpus::Build(&*data_, {});
    ASSERT_TRUE(corpus_or.ok());
    corpus_.emplace(std::move(corpus_or).value());
    s1_.emplace(&*corpus_, fields_, 0.75 * corpus_->MaxIdf(0));
    s2_.emplace(&*corpus_, fields_);
    n1_.emplace(&*corpus_, 0, 0.6);
    n2_.emplace(&*corpus_, 0, 0.6, true);
  }

  std::vector<dedup::PredicateLevel> Levels() {
    return {{&*s1_, &*n1_}, {&*s2_, &*n2_}};
  }

  dedup::PrunedDedupResult Run(const dedup::PrunedDedupOptions& options,
                               ExplainRecorder* recorder = nullptr) {
    auto result_or = dedup::PrunedDedup(*data_, Levels(), options,
                                        {.recorder = recorder});
    EXPECT_TRUE(result_or.ok());
    return std::move(result_or).value();
  }

  std::optional<record::Dataset> data_;
  std::optional<predicates::Corpus> corpus_;
  predicates::CitationFields fields_;
  std::optional<predicates::CitationS1> s1_;
  std::optional<predicates::CitationS2> s2_;
  std::optional<predicates::QGramOverlapPredicate> n1_;
  std::optional<predicates::QGramOverlapPredicate> n2_;
};

TEST_F(ExplainPipelineTest, ReportPopulatedAndReconcilesWithLevelStats) {
  dedup::PrunedDedupOptions options;
  options.k = 10;
  ExplainRecorder recorder;
  const dedup::PrunedDedupResult result = Run(options, &recorder);

  const ExplainReport report = recorder.Finish();
  EXPECT_EQ(report.sample_rate, 1.0);
  EXPECT_EQ(report.events_dropped, 0u);
  ASSERT_EQ(report.levels.size(), result.levels.size());

  for (size_t l = 0; l < report.levels.size(); ++l) {
    const obs::LevelExplain& lv = report.levels[l];
    const dedup::LevelStats& stats = result.levels[l];
    EXPECT_EQ(lv.level, static_cast<int>(l));
    EXPECT_FALSE(lv.sufficient_predicate.empty());
    EXPECT_FALSE(lv.necessary_predicate.empty());

    // Summaries must reconcile exactly with the LevelStats columns.
    EXPECT_EQ(lv.collapse.groups_out, stats.n_after_collapse);
    EXPECT_EQ(lv.collapse.groups_in - lv.collapse.groups_out,
              stats.records_collapsed);
    ASSERT_TRUE(lv.has_lower_bound);
    EXPECT_EQ(lv.lower_bound.m, stats.m);
    EXPECT_EQ(lv.lower_bound.M, stats.M);
    EXPECT_EQ(lv.lower_bound.cpn_evaluations, stats.cpn_growth_iterations);
    EXPECT_EQ(lv.lower_bound.probes.size(), stats.cpn_growth_iterations);
    EXPECT_EQ(lv.prune.groups_pruned, stats.groups_pruned);
    EXPECT_EQ(lv.prune.groups_in, stats.n_after_collapse);
    EXPECT_EQ(lv.prune.groups_out, stats.n_after_prune);
    EXPECT_EQ(lv.prune.M, stats.M);

    // At sample_rate 1.0 every decision is present: the per-group verdict
    // trail must account for exactly groups_pruned casualties (a group's
    // last recorded pass decides its fate).
    std::map<size_t, bool> last_survived;
    for (const obs::PruneDecisionExplain& d : lv.prune.sampled_decisions) {
      EXPECT_EQ(d.M, stats.M);
      EXPECT_EQ(d.survived, d.verdict != PruneVerdict::kPrunedBoundBelowM);
      last_survived[d.group] = d.survived;
    }
    size_t pruned = 0;
    for (const auto& [group, survived] : last_survived) {
      if (!survived) ++pruned;
    }
    EXPECT_EQ(pruned, stats.groups_pruned);
  }
}

TEST_F(ExplainPipelineTest, RecorderChangesNothing) {
  dedup::PrunedDedupOptions options;
  options.k = 10;
  const dedup::PrunedDedupResult off_result = Run(options);

  ExplainRecorder recorder;
  const dedup::PrunedDedupResult on_result = Run(options, &recorder);

  // Observation must not perturb the pipeline: identical stats and groups.
  ASSERT_EQ(off_result.levels.size(), on_result.levels.size());
  for (size_t l = 0; l < off_result.levels.size(); ++l) {
    EXPECT_EQ(off_result.levels[l].n_after_collapse,
              on_result.levels[l].n_after_collapse);
    EXPECT_EQ(off_result.levels[l].m, on_result.levels[l].m);
    EXPECT_EQ(off_result.levels[l].M, on_result.levels[l].M);
    EXPECT_EQ(off_result.levels[l].n_after_prune,
              on_result.levels[l].n_after_prune);
  }
  ASSERT_EQ(off_result.groups.size(), on_result.groups.size());
  for (size_t g = 0; g < off_result.groups.size(); ++g) {
    EXPECT_EQ(off_result.groups[g].rep, on_result.groups[g].rep);
    EXPECT_EQ(off_result.groups[g].weight, on_result.groups[g].weight);
  }
  ASSERT_EQ(off_result.upper_bounds.size(), on_result.upper_bounds.size());
  for (size_t g = 0; g < off_result.upper_bounds.size(); ++g) {
    EXPECT_EQ(off_result.upper_bounds[g], on_result.upper_bounds[g]);
  }
}

TEST_F(ExplainPipelineTest, SampleRateZeroKeepsSummariesExact) {
  dedup::PrunedDedupOptions options;
  options.k = 10;
  ExplainRecorder recorder(0.0);
  const dedup::PrunedDedupResult result = Run(options, &recorder);
  const ExplainReport report = recorder.Finish();
  ASSERT_EQ(report.levels.size(), result.levels.size());
  for (size_t l = 0; l < result.levels.size(); ++l) {
    const obs::LevelExplain& lv = report.levels[l];
    EXPECT_TRUE(lv.prune.sampled_decisions.empty());
    EXPECT_TRUE(lv.collapse.sampled_merges.empty());
    // Summaries and probes are never sampled away.
    EXPECT_EQ(lv.prune.groups_pruned, result.levels[l].groups_pruned);
    EXPECT_EQ(lv.lower_bound.m, result.levels[l].m);
    EXPECT_FALSE(lv.lower_bound.probes.empty());
  }
}

/// The same determinism contract parallel_test.cc enforces for outputs,
/// extended to explain provenance: the full report (collapse merges, CPN
/// probes, prune decisions, bound values) must be byte-identical at 1, 2,
/// and 8 threads.
TEST_F(ExplainPipelineTest, ReportBitIdenticalAcrossThreadCounts) {
  std::vector<std::string> jsons;
  for (int threads : {1, 2, 8}) {
    ScopedParallelism parallelism(threads);
    dedup::PrunedDedupOptions options;
    options.k = 10;
    ExplainRecorder recorder(0.25);  // Sampling must not break it.
    Run(options, &recorder);
    jsons.push_back(recorder.Finish().ToJson());
  }
  EXPECT_EQ(jsons[0], jsons[1]);
  EXPECT_EQ(jsons[0], jsons[2]);
}

TEST_F(ExplainPipelineTest, JsonSchemaSmoke) {
  dedup::PrunedDedupOptions options;
  options.k = 10;
  ExplainRecorder recorder;
  Run(options, &recorder);
  const ExplainReport report = recorder.Finish();
  const std::string json = report.ToJson();
  EXPECT_EQ(json.find("{\"schema_version\":1,"), 0u);
  EXPECT_NE(json.find("\"levels\":["), std::string::npos);
  EXPECT_NE(json.find("\"sufficient_predicate\":"), std::string::npos);
  EXPECT_NE(json.find("\"lower_bound\":{"), std::string::npos);
  EXPECT_NE(json.find("\"sampled_decisions\":["), std::string::npos);
  EXPECT_NE(json.find("\"verdict\":\""), std::string::npos);
  EXPECT_NE(json.find("\"events_dropped\":"), std::string::npos);
  EXPECT_EQ(json.back(), '}');

  const std::string text = report.ToText();
  EXPECT_NE(text.find("explain report (schema v1"), std::string::npos);
  EXPECT_NE(text.find("lower bound ["), std::string::npos);
}

/// Whole-query explain through TopKCountQuery: dedup levels plus the
/// embedding, segmentation-DP, and answer sections.
TEST(TopKExplainTest, QueryReportCoversAllSections) {
  record::Dataset data{record::Schema({"name"})};
  auto add = [&](const char* name, int64_t entity, int times) {
    for (int i = 0; i < times; ++i) {
      record::Record r;
      r.fields = {name};
      r.entity_id = entity;
      data.Add(r);
    }
  };
  add("maria gonzalez", 0, 4);
  add("maria gonzales", 0, 2);
  add("wei zhang", 1, 3);
  add("wei zhangg", 1, 1);
  add("otto becker", 2, 2);
  add("ivan petrov", 3, 1);

  auto corpus_or = predicates::Corpus::Build(&data, {});
  ASSERT_TRUE(corpus_or.ok());
  const predicates::Corpus& corpus = corpus_or.value();
  predicates::ExactFieldsPredicate sufficient(&corpus, std::vector<int>{0});
  predicates::QGramOverlapPredicate necessary(&corpus, 0, 0.6);

  topk::TopKCountOptions options;
  options.k = 2;
  options.r = 2;
  auto scorer = [&](size_t a, size_t b) {
    const double jw =
        sim::JaroWinkler(text::NormalizeText(data[a].field(0)),
                         text::NormalizeText(data[b].field(0)));
    return (jw - 0.85) * 10.0;
  };
  ExplainRecorder recorder;
  auto result_or = topk::TopKCountQuery(data, {{&sufficient, &necessary}},
                                        scorer, options,
                                        {.recorder = &recorder});
  ASSERT_TRUE(result_or.ok());
  const topk::TopKCountResult& result = result_or.value();

  // The dedup events land in the whole-query report.
  const ExplainReport report = recorder.Finish();
  ASSERT_FALSE(report.levels.empty());
  ASSERT_FALSE(result.answers.empty());
  ASSERT_EQ(report.answers.size(), result.answers.size());
  for (size_t a = 0; a < report.answers.size(); ++a) {
    EXPECT_EQ(report.answers[a].rank, static_cast<int>(a) + 1);
    EXPECT_EQ(report.answers[a].score, result.answers[a].score);
    ASSERT_EQ(report.answers[a].groups.size(),
              result.answers[a].groups.size());
    for (size_t g = 0; g < report.answers[a].groups.size(); ++g) {
      EXPECT_EQ(report.answers[a].groups[g].weight,
                result.answers[a].groups[g].weight);
      EXPECT_EQ(report.answers[a].groups[g].member_count,
                result.answers[a].groups[g].members.size());
    }
  }
  if (!result.exact_from_pruning) {
    EXPECT_TRUE(report.has_embedding);
    EXPECT_TRUE(report.has_segment_dp);
    EXPECT_GT(report.embedding.items, 0u);
    EXPECT_GT(report.segment_dp.cells_filled, 0u);
    EXPECT_FALSE(report.segment_dp.best_boundaries.empty());
    // A full segmentation's last boundary is the last embedding position.
    EXPECT_EQ(report.segment_dp.best_boundaries.back(),
              report.segment_dp.rows - 1);
  }
}

}  // namespace
}  // namespace topkdup
