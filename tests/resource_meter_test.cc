#include "common/resource_meter.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/trace.h"

namespace topkdup {
namespace {

using resource::CpuWindow;
using resource::ResourceMeter;
using resource::ScopedMeterAttach;
using resource::StageForSpan;

/// Burns thread CPU until the thread's CPU clock has advanced by
/// `seconds` — guarantees a measurable charge regardless of scheduler
/// generosity.
void BurnCpu(double seconds) {
  const double start = resource::ThreadCpuSeconds();
  volatile uint64_t sink = 0;
  while (resource::ThreadCpuSeconds() - start < seconds) {
    for (int i = 0; i < 1000; ++i) {
      sink = sink + static_cast<uint64_t>(i) * 2654435761u;
    }
  }
}

double StageValue(const ResourceMeter& meter, const std::string& stage) {
  for (const auto& [name, value] : meter.StageBreakdown()) {
    if (name == stage) return value;
  }
  return 0.0;
}

TEST(ResourceMeterTest, ChargeAccumulatesAndClampsNegatives) {
  ResourceMeter meter;
  meter.Charge("collapse", 0.25);
  meter.Charge("collapse", 0.25);
  meter.Charge("prune", 0.5);
  meter.Charge("prune", -1.0);  // Clamped: clock stepped backwards.
  meter.Charge("prune", 0.0);   // No-op, must not create noise.
  EXPECT_DOUBLE_EQ(meter.CpuSeconds(), 1.0);
  const auto stages = meter.StageBreakdown();
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0].first, "collapse");  // Sorted by stage name.
  EXPECT_DOUBLE_EQ(stages[0].second, 0.5);
  EXPECT_EQ(stages[1].first, "prune");
  EXPECT_DOUBLE_EQ(stages[1].second, 0.5);
  meter.Reset();
  EXPECT_DOUBLE_EQ(meter.CpuSeconds(), 0.0);
  EXPECT_TRUE(meter.StageBreakdown().empty());
}

TEST(ResourceMeterTest, StageForSpanIsAFixedAllowlist) {
  EXPECT_STREQ(StageForSpan("online.corpus"), "corpus");
  EXPECT_STREQ(StageForSpan("dedup.collapse"), "collapse");
  EXPECT_STREQ(StageForSpan("dedup.necessary_index"), "lower_bound");
  EXPECT_STREQ(StageForSpan("dedup.lower_bound"), "lower_bound");
  EXPECT_STREQ(StageForSpan("dedup.prune"), "prune");
  EXPECT_STREQ(StageForSpan("topk.pair_scores"), "pair_scoring");
  EXPECT_STREQ(StageForSpan("segment.topk_dp"), "segment_dp");
  EXPECT_STREQ(StageForSpan("segment.scorer.fill"), "segment_dp");
  EXPECT_STREQ(StageForSpan("embed.greedy"), "embedding");
  // Orchestration spans must NOT switch attribution.
  EXPECT_EQ(StageForSpan("serve.query"), nullptr);
  EXPECT_EQ(StageForSpan("parallel.region"), nullptr);
  EXPECT_EQ(StageForSpan("parallel.shard"), nullptr);
  EXPECT_EQ(StageForSpan("dedup.level"), nullptr);
  EXPECT_EQ(StageForSpan("no.such.span"), nullptr);
}

TEST(ResourceMeterTest, AttachedThreadChargesCpuToOther) {
  ResourceMeter meter;
  {
    ScopedMeterAttach attach(&meter);
    BurnCpu(0.02);
  }
  EXPECT_GT(meter.CpuSeconds(), 0.01);
  // No mapped span was open, so everything lands in "other".
  EXPECT_GT(StageValue(meter, resource::kOtherStage), 0.01);
}

TEST(ResourceMeterTest, MappedSpanSwitchesAttribution) {
  ResourceMeter meter;
  {
    ScopedMeterAttach attach(&meter);
    {
      trace::Span span("dedup.collapse");
      BurnCpu(0.02);
    }
    {
      trace::Span span("topk.pair_scores");
      BurnCpu(0.02);
    }
  }
  EXPECT_GT(StageValue(meter, "collapse"), 0.01);
  EXPECT_GT(StageValue(meter, "pair_scoring"), 0.01);
}

TEST(ResourceMeterTest, UnmappedSpanDoesNotStealAttribution) {
  ResourceMeter meter;
  {
    ScopedMeterAttach attach(&meter);
    trace::Span stage("dedup.prune");
    {
      // Orchestration span nested inside a stage: its CPU still belongs
      // to the enclosing stage.
      trace::Span orchestration("parallel.region");
      BurnCpu(0.02);
    }
  }
  EXPECT_GT(StageValue(meter, "prune"), 0.01);
}

TEST(ResourceMeterTest, StageSumReconcilesWithTotalExactly) {
  ResourceMeter meter;
  {
    ScopedMeterAttach attach(&meter);
    {
      trace::Span span("dedup.collapse");
      BurnCpu(0.01);
    }
    BurnCpu(0.005);
    {
      trace::Span span("segment.topk_dp");
      BurnCpu(0.01);
    }
  }
  double sum = 0.0;
  for (const auto& [name, value] : meter.StageBreakdown()) sum += value;
  // CpuSeconds() is defined as the sum of the stage map, so the identity
  // is exact — not merely within a tolerance.
  EXPECT_DOUBLE_EQ(meter.CpuSeconds(), sum);
  EXPECT_GT(meter.CpuSeconds(), 0.02);
}

TEST(ResourceMeterTest, ParallelRegionDelegatesAttribution) {
  ResourceMeter meter;
  {
    ScopedParallelism scoped(4);
    ScopedMeterAttach attach(&meter);
    trace::Span span("topk.pair_scores");
    ParallelFor(0, 8, 1, [&](size_t) { BurnCpu(0.01); });
  }
  // 8 shards x 10ms each: the pool workers' CPU must flow back to the
  // launching query's meter under the launching stage.
  EXPECT_GT(StageValue(meter, "pair_scoring"), 0.05);
}

TEST(ResourceMeterTest, NestedAttachSuspendsOuterMeter) {
  ResourceMeter outer;
  ResourceMeter inner;
  {
    ScopedMeterAttach attach_outer(&outer);
    {
      ScopedMeterAttach attach_inner(&inner);
      BurnCpu(0.02);
    }
  }
  EXPECT_GT(inner.CpuSeconds(), 0.01);
  // The outer meter only sees the (tiny) CPU outside the inner scope.
  EXPECT_LT(outer.CpuSeconds(), inner.CpuSeconds());
}

TEST(ResourceMeterTest, DetachedSpansAreFree) {
  // No meter attached: stage spans must not crash or charge anything.
  trace::Span span("dedup.collapse");
  BurnCpu(0.001);
}

TEST(CpuWindowTest, TopAggregatesAndSortsDeterministically) {
  CpuWindow window(60.0, 12);
  window.AddAt(100.0, "alpha", 1.0);
  window.AddAt(101.0, "beta", 2.0);
  window.AddAt(102.0, "alpha", 0.5);
  window.AddAt(103.0, "gamma", 1.5);
  window.AddAt(104.0, "delta", 1.5);  // Ties with gamma: name order wins.
  const auto top = window.TopAt(105.0, 10);
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(top[0].first, "beta");
  EXPECT_DOUBLE_EQ(top[0].second, 2.0);
  EXPECT_EQ(top[1].first, "alpha");
  EXPECT_DOUBLE_EQ(top[1].second, 1.5);
  EXPECT_EQ(top[2].first, "delta");
  EXPECT_EQ(top[3].first, "gamma");
  // n truncates.
  EXPECT_EQ(window.TopAt(105.0, 1).size(), 1u);
}

TEST(CpuWindowTest, OldBucketsExpireOutOfTheWindow) {
  CpuWindow window(60.0, 12);  // 5-second buckets.
  window.AddAt(100.0, "old", 5.0);
  window.AddAt(130.0, "new", 1.0);
  ASSERT_EQ(window.TopAt(130.0, 10).size(), 2u);  // Both still inside.
  // 100s bucket has fallen out of [t-60, t] by t=161.
  const auto top = window.TopAt(161.0, 10);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].first, "new");
}

TEST(CpuWindowTest, WindowSecondsReflectsConfiguration) {
  EXPECT_DOUBLE_EQ(CpuWindow(60.0, 12).window_seconds(), 60.0);
  EXPECT_DOUBLE_EQ(CpuWindow(30.0, 10).window_seconds(), 30.0);
}

}  // namespace
}  // namespace topkdup
