#include <gtest/gtest.h>

#include "cluster/correlation.h"
#include "cluster/exact_partition.h"
#include "cluster/lp_cluster.h"
#include "common/rng.h"
#include "lp/simplex.h"

namespace topkdup {
namespace {

using lp::Constraint;
using lp::SolveLp;

TEST(SimplexTest, SimpleTwoVariableLp) {
  // max 3x + 2y s.t. x + y <= 4, x <= 2, y <= 3.
  std::vector<Constraint> cons;
  cons.push_back({{{0, 1.0}, {1, 1.0}}, 4.0});
  cons.push_back({{{0, 1.0}}, 2.0});
  cons.push_back({{{1, 1.0}}, 3.0});
  auto result = SolveLp(2, {3.0, 2.0}, cons);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().objective, 10.0, 1e-9);  // x=2, y=2.
  EXPECT_NEAR(result.value().x[0], 2.0, 1e-9);
  EXPECT_NEAR(result.value().x[1], 2.0, 1e-9);
}

TEST(SimplexTest, BindingBoxConstraints) {
  // max x + y with x <= 1, y <= 1.
  std::vector<Constraint> cons;
  cons.push_back({{{0, 1.0}}, 1.0});
  cons.push_back({{{1, 1.0}}, 1.0});
  auto result = SolveLp(2, {1.0, 1.0}, cons);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().objective, 2.0, 1e-9);
}

TEST(SimplexTest, NegativeObjectiveStaysAtZero) {
  std::vector<Constraint> cons;
  cons.push_back({{{0, 1.0}}, 5.0});
  auto result = SolveLp(1, {-1.0}, cons);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().objective, 0.0, 1e-9);
  EXPECT_NEAR(result.value().x[0], 0.0, 1e-9);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Multiple redundant constraints through the same vertex.
  std::vector<Constraint> cons;
  cons.push_back({{{0, 1.0}, {1, 1.0}}, 1.0});
  cons.push_back({{{0, 1.0}, {1, 1.0}}, 1.0});
  cons.push_back({{{0, 2.0}, {1, 2.0}}, 2.0});
  cons.push_back({{{0, 1.0}}, 1.0});
  cons.push_back({{{1, 1.0}}, 1.0});
  auto result = SolveLp(2, {1.0, 1.0}, cons);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().objective, 1.0, 1e-9);
}

TEST(SimplexTest, RejectsBadInput) {
  EXPECT_FALSE(SolveLp(0, {}, {}).ok());
  EXPECT_FALSE(SolveLp(1, {1.0, 2.0}, {}).ok());
  std::vector<Constraint> bad_rhs;
  bad_rhs.push_back({{{0, 1.0}}, -1.0});
  EXPECT_FALSE(SolveLp(1, {1.0}, bad_rhs).ok());
  std::vector<Constraint> bad_var;
  bad_var.push_back({{{3, 1.0}}, 1.0});
  EXPECT_FALSE(SolveLp(1, {1.0}, bad_var).ok());
}

TEST(SimplexTest, UnboundedReportsError) {
  // max x with no constraints on x at all.
  auto result = SolveLp(1, {1.0}, {});
  EXPECT_FALSE(result.ok());
}

TEST(LpClusterTest, ObviousStructureSolvesIntegrally) {
  const cluster::PairScores s(
      5, 0.0,
      {{0, 1, 4.0}, {1, 2, 4.0}, {0, 2, 4.0}, {3, 4, 2.0}, {2, 3, -3.0}});
  auto result = cluster::LpCluster(s);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().integral);
  const cluster::Labels& labels = result.value().labels;
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
}

TEST(LpClusterTest, TriangleConstraintEnforced) {
  // 0~1 and 1~2 strongly positive, 0-2 strongly negative: without the
  // triangle inequality the LP would pick x01=x12=1, x02=0.
  const cluster::PairScores s(3, 0.0,
                              {{0, 1, 5.0}, {1, 2, 5.0}, {0, 2, -12.0}});
  auto result = cluster::LpCluster(s);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().constraints_added, 0u);
  // Exact optimum: split {0,1} or {1,2} from the rest (score 5 + 24) vs
  // all together (10 - 0 ... keeping 0,2 together loses 12 twice). Either
  // way 0 and 2 must be separated.
  EXPECT_NE(result.value().labels[0], result.value().labels[2]);
}

TEST(LpClusterTest, MatchesExactPartitionWhenIntegral) {
  Rng rng(314);
  int integral_checked = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const size_t n = 4 + rng.Uniform(5);
    std::vector<cluster::ScoredPair> pairs;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        if (rng.Bernoulli(0.6)) {
          pairs.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(j),
                           (rng.NextDouble() - 0.5) * 6.0});
        }
      }
    }
    const cluster::PairScores s(n, 0.0, pairs);
    auto lp_result = cluster::LpCluster(s);
    ASSERT_TRUE(lp_result.ok());
    if (!lp_result.value().integral) continue;
    ++integral_checked;
    auto exact = cluster::ExactPartition(s);
    ASSERT_TRUE(exact.ok());
    const double lp_score =
        cluster::CorrelationScore(lp_result.value().labels, s);
    EXPECT_NEAR(lp_score, exact.value().score, 1e-6)
        << "trial " << trial << " n=" << n;
  }
  // Random +/- instances solve integrally most of the time.
  EXPECT_GT(integral_checked, 3);
}

TEST(LpClusterTest, RejectsOversizedInput) {
  cluster::PairScores s(200);
  EXPECT_FALSE(cluster::LpCluster(s).ok());
}

TEST(LpClusterTest, TinyInputs) {
  cluster::PairScores s0(0);
  auto r0 = cluster::LpCluster(s0);
  ASSERT_TRUE(r0.ok());
  EXPECT_TRUE(r0.value().integral);
  cluster::PairScores s1(1);
  auto r1 = cluster::LpCluster(s1);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.value().labels, (cluster::Labels{0}));
}

}  // namespace
}  // namespace topkdup
