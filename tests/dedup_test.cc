#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "datagen/address_gen.h"
#include "datagen/citation_gen.h"
#include "datagen/lexicon.h"
#include "datagen/student_gen.h"
#include "dedup/collapse.h"
#include "dedup/lower_bound.h"
#include "dedup/prune.h"
#include "dedup/pruned_dedup.h"
#include "dedup/union_find.h"
#include "graph/clique_partition.h"
#include "graph/graph.h"
#include "predicates/address.h"
#include "predicates/citation.h"
#include "predicates/corpus.h"
#include "predicates/generic.h"
#include "predicates/student.h"

namespace topkdup::dedup {
namespace {

TEST(UnionFindTest, BasicUnions) {
  UnionFind uf(5);
  EXPECT_EQ(uf.set_count(), 5u);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_FALSE(uf.Union(1, 0));
  EXPECT_TRUE(uf.Union(2, 3));
  EXPECT_TRUE(uf.Union(0, 3));
  EXPECT_EQ(uf.set_count(), 2u);
  EXPECT_EQ(uf.Find(2), uf.Find(1));
  EXPECT_NE(uf.Find(4), uf.Find(0));
  EXPECT_EQ(uf.SetSize(3), 4u);
  EXPECT_EQ(uf.SetSize(4), 1u);
}

TEST(UnionFindTest, GroupsPartitionElements) {
  UnionFind uf(6);
  uf.Union(0, 2);
  uf.Union(4, 5);
  auto groups = uf.Groups();
  ASSERT_EQ(groups.size(), 4u);
  size_t total = 0;
  for (const auto& g : groups) total += g.size();
  EXPECT_EQ(total, 6u);
}

record::Dataset WeightedNames(
    const std::vector<std::pair<const char*, double>>& rows) {
  record::Dataset data{record::Schema({"name"})};
  for (const auto& [name, weight] : rows) {
    record::Record r;
    r.fields = {name};
    r.weight = weight;
    data.Add(r);
  }
  return data;
}

TEST(GroupTest, SingletonsSortedByWeight) {
  record::Dataset data =
      WeightedNames({{"a", 1.0}, {"b", 5.0}, {"c", 3.0}});
  auto groups = MakeSingletonGroups(data);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].rep, 1u);
  EXPECT_EQ(groups[1].rep, 2u);
  EXPECT_EQ(groups[2].rep, 0u);
  EXPECT_DOUBLE_EQ(groups[0].weight, 5.0);
}

TEST(CollapseTest, TransitiveClosureOfExactMatches) {
  record::Dataset data = WeightedNames({{"x", 1.0},
                                        {"y", 2.0},
                                        {"x", 3.0},
                                        {"z", 1.0},
                                        {"y", 1.0}});
  auto corpus_or = predicates::Corpus::Build(&data, {});
  ASSERT_TRUE(corpus_or.ok());
  predicates::ExactFieldsPredicate exact(&corpus_or.value(), {0});
  auto groups = Collapse(MakeSingletonGroups(data), exact);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_DOUBLE_EQ(groups[0].weight, 4.0);  // The two "x" records.
  EXPECT_DOUBLE_EQ(groups[1].weight, 3.0);  // The two "y" records.
  EXPECT_DOUBLE_EQ(groups[2].weight, 1.0);  // "z".
  // Representative of the x-group is the heavier member (record 2).
  EXPECT_EQ(groups[0].rep, 2u);
  // Members cover all records exactly once.
  std::set<size_t> seen;
  for (const auto& g : groups) {
    for (size_t m : g.members) EXPECT_TRUE(seen.insert(m).second);
  }
  EXPECT_EQ(seen.size(), data.size());
}

// Fixture building a small hand-understood scenario:
// Entities by name; necessary predicate = share a word.
class LowerBoundTest : public ::testing::Test {
 protected:
  void Init(const std::vector<std::pair<const char*, double>>& rows) {
    data_ = WeightedNames(rows);
    auto corpus_or = predicates::Corpus::Build(&data_, {});
    ASSERT_TRUE(corpus_or.ok());
    corpus_.emplace(std::move(corpus_or).value());
    necessary_.emplace(&*corpus_, std::vector<int>{0}, 1);
  }

  // The §4.2 and §4.3 stages over an index built for the call.
  LowerBoundResult LowerBound(const std::vector<Group>& groups, int k) const {
    return EstimateLowerBound(groups, *necessary_,
                              *RepresentativeIndex(groups, *necessary_), k);
  }
  PruneResult Prune(const std::vector<Group>& groups, double M,
                    const PruneOptions& options = {},
                    bool exact_bounds = false) const {
    return PruneGroups(groups, *necessary_,
                       *RepresentativeIndex(groups, *necessary_), M, options,
                       exact_bounds);
  }

  record::Dataset data_;
  std::optional<predicates::Corpus> corpus_;
  std::optional<predicates::CommonWordsPredicate> necessary_;
};

TEST_F(LowerBoundTest, DisconnectedGroupsCertifyQuickly) {
  // Three mutually unconnectable names: CPN of any prefix of size k is k.
  Init({{"alpha", 10.0}, {"beta", 7.0}, {"gamma", 4.0}, {"alpha x", 2.0}});
  auto groups = MakeSingletonGroups(data_);
  const LowerBoundResult lb = LowerBound(groups, 2);
  EXPECT_TRUE(lb.certified);
  EXPECT_EQ(lb.m, 2u);
  EXPECT_DOUBLE_EQ(lb.M, 7.0);
}

TEST_F(LowerBoundTest, ConnectedPrefixPushesMOut) {
  // The two heaviest share a word (could be duplicates), so K=2 distinct
  // entities are only certified at the third group.
  Init({{"alpha one", 10.0}, {"alpha two", 7.0}, {"beta", 4.0}});
  auto groups = MakeSingletonGroups(data_);
  const LowerBoundResult lb = LowerBound(groups, 2);
  EXPECT_TRUE(lb.certified);
  EXPECT_EQ(lb.m, 3u);
  EXPECT_DOUBLE_EQ(lb.M, 4.0);
}

TEST_F(LowerBoundTest, UncertifiableWhenAllConnect) {
  Init({{"alpha one", 10.0}, {"alpha two", 7.0}, {"alpha three", 4.0}});
  auto groups = MakeSingletonGroups(data_);
  const LowerBoundResult lb = LowerBound(groups, 2);
  EXPECT_FALSE(lb.certified);
  EXPECT_EQ(lb.m, 3u);
  EXPECT_DOUBLE_EQ(lb.M, 4.0);
}

/// Brute-force oracle for the §4.2 search: the first prefix length, in a
/// linear scan from k, whose necessary-predicate graph (every pair
/// evaluated) has a CPN bound >= k under the bounds EstimateLowerBound
/// uses; 0 when no prefix certifies k.
size_t LinearScanPrefix(const std::vector<Group>& groups,
                        const predicates::PairPredicate& necessary, int k) {
  for (size_t m = static_cast<size_t>(k); m <= groups.size(); ++m) {
    graph::Graph g(m);
    for (size_t b = 0; b < m; ++b) {
      for (size_t a = 0; a < b; ++a) {
        if (necessary.Evaluate(groups[a].rep, groups[b].rep)) g.AddEdge(a, b);
      }
    }
    const int bound = std::max(graph::GreedyIndependentSetBound(g, k),
                               graph::CliquePartitionLowerBound(g, k));
    if (bound >= k) return m;
  }
  return 0;
}

TEST_F(LowerBoundTest, GallopingMatchesLinearScan) {
  Init({{"a b", 9.0},
        {"b c", 8.0},
        {"c d", 7.0},
        {"x", 6.0},
        {"y", 5.0},
        {"d e", 4.0},
        {"z", 3.0}});
  auto groups = MakeSingletonGroups(data_);
  for (int k = 1; k <= 4; ++k) {
    const LowerBoundResult a = LowerBound(groups, k);
    const size_t linear_m = LinearScanPrefix(groups, *necessary_, k);
    const bool linear_certified = linear_m != 0;
    const double linear_M = linear_certified ? groups[linear_m - 1].weight
                                             : groups.back().weight;
    EXPECT_EQ(a.certified, linear_certified) << "k=" << k;
    // Both must certify at a valid prefix; the galloping search may in
    // rare non-monotone cases land one step later but never earlier than
    // the linear scan's minimum.
    EXPECT_GE(a.m, linear_certified ? linear_m : groups.size()) << "k=" << k;
    EXPECT_LE(a.M, linear_M + 1e-12) << "k=" << k;
  }
}

TEST_F(LowerBoundTest, BothGraphBoundsCertifyTheChainPrefix) {
  Init({{"a b", 9.0},
        {"b c", 8.0},
        {"c d", 7.0},
        {"x", 6.0},
        {"y", 5.0}});
  auto groups = MakeSingletonGroups(data_);
  const LowerBoundResult lb = LowerBound(groups, 2);
  EXPECT_TRUE(lb.certified);
  // "a b"/"b c" chain; "x" is certainly distinct from the chain, so two
  // entities are certified within the first four groups at the latest.
  EXPECT_LE(lb.m, 4u);
  EXPECT_GE(lb.M, 6.0);
  EXPECT_EQ(LinearScanPrefix(groups, *necessary_, 2), lb.m);
  // Each of the two graph bounds alone certifies two entities among the
  // first four groups.
  graph::Graph g(4);
  g.AddEdge(0, 1);  // "a b" ~ "b c".
  g.AddEdge(1, 2);  // "b c" ~ "c d".
  EXPECT_GE(graph::GreedyIndependentSetBound(g, 2), 2);
  EXPECT_GE(graph::CliquePartitionLowerBound(g, 2), 2);
}

TEST_F(LowerBoundTest, FewerGroupsThanK) {
  Init({{"alpha", 3.0}, {"beta", 2.0}});
  auto groups = MakeSingletonGroups(data_);
  const LowerBoundResult lb = LowerBound(groups, 5);
  EXPECT_FALSE(lb.certified);
  EXPECT_EQ(lb.m, 2u);
  EXPECT_DOUBLE_EQ(lb.M, 2.0);
}

TEST_F(LowerBoundTest, PruneDropsProvablySmallGroups) {
  // "solo" groups can never join anything; with M=5 they must go.
  Init({{"alpha one", 10.0},
        {"solo", 2.0},
        {"alpha two", 4.0},
        {"lone", 1.0}});
  auto groups = MakeSingletonGroups(data_);
  PruneResult pruned = Prune(groups, /*M=*/5.0);
  ASSERT_EQ(pruned.groups.size(), 2u);
  EXPECT_DOUBLE_EQ(pruned.groups[0].weight, 10.0);
  EXPECT_DOUBLE_EQ(pruned.groups[1].weight, 4.0);  // 4+10 > 5 via alpha.
}

TEST_F(LowerBoundTest, SecondPassPrunesMore) {
  // Chain: a(2) - b(2) - c(2) with M=5. Pass 1: ub(a)=ub(c)=4 <= 5 -> both
  // pruned; ub(b)=6 survives pass 1 but in pass 2 its alive neighbors are
  // gone, so ub(b)=2 and it is pruned too.
  Init({{"a x", 2.0}, {"x b y", 2.0}, {"y c", 2.0}});
  auto groups = MakeSingletonGroups(data_);
  PruneOptions one_pass;
  one_pass.passes = 1;
  PruneResult p1 = Prune(groups, 5.0, one_pass);
  EXPECT_EQ(p1.groups.size(), 1u);
  PruneOptions two_pass;
  two_pass.passes = 2;
  PruneResult p2 = Prune(groups, 5.0, two_pass);
  EXPECT_EQ(p2.groups.size(), 0u);
}

TEST_F(LowerBoundTest, ExactBoundsMatchNeighborSums) {
  Init({{"a x", 3.0}, {"x b", 2.0}, {"q", 7.0}});
  auto groups = MakeSingletonGroups(data_);
  PruneResult pruned =
      Prune(groups, /*M=*/1.0, PruneOptions{}, /*exact_bounds=*/true);
  ASSERT_EQ(pruned.groups.size(), 3u);
  // Sorted desc: q(7), a x(3), x b(2).
  EXPECT_DOUBLE_EQ(pruned.upper_bounds[0], 7.0);
  EXPECT_DOUBLE_EQ(pruned.upper_bounds[1], 5.0);
  EXPECT_DOUBLE_EQ(pruned.upper_bounds[2], 5.0);
}

// ---- End-to-end safety properties on generated citation data ----------

class PrunedDedupPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PrunedDedupPropertyTest, SafetyOnGeneratedData) {
  datagen::CitationGenOptions gen;
  gen.num_records = 3000;
  gen.num_authors = 700;
  gen.seed = 9000 + GetParam();
  auto data_or = datagen::GenerateCitations(gen);
  ASSERT_TRUE(data_or.ok());
  const record::Dataset& data = data_or.value();

  auto corpus_or = predicates::Corpus::Build(&data, {});
  ASSERT_TRUE(corpus_or.ok());
  const predicates::Corpus& corpus = corpus_or.value();
  predicates::CitationFields fields;
  const double idf_threshold = 0.75 * corpus.MaxIdf(0);
  predicates::CitationS1 s1(&corpus, fields, idf_threshold);
  predicates::CitationS2 s2(&corpus, fields);
  predicates::QGramOverlapPredicate n1(&corpus, 0, 0.6);
  predicates::QGramOverlapPredicate n2(&corpus, 0, 0.6, true);

  const int k = 5;
  PrunedDedupOptions options;
  options.k = k;
  auto result_or =
      PrunedDedup(data, {{&s1, &n1}, {&s2, &n2}}, options);
  ASSERT_TRUE(result_or.ok());
  const PrunedDedupResult& result = result_or.value();

  // True entity weights.
  std::map<int64_t, double> entity_weight;
  for (size_t r = 0; r < data.size(); ++r) {
    entity_weight[data[r].entity_id] += data[r].weight;
  }
  std::vector<double> weights_desc;
  for (const auto& [id, w] : entity_weight) weights_desc.push_back(w);
  std::sort(weights_desc.rbegin(), weights_desc.rend());
  const double true_kth = weights_desc[k - 1];

  // (1) The lower bound M never exceeds the true K-th entity weight.
  for (const LevelStats& level : result.levels) {
    EXPECT_LE(level.M, true_kth + 1e-9);
  }

  // (2) Collapsing never merged two different entities (S sufficiency).
  for (const Group& g : result.groups) {
    const int64_t entity = data[g.members.front()].entity_id;
    for (size_t m : g.members) {
      EXPECT_EQ(data[m].entity_id, entity) << "S-collapse crossed entities";
    }
  }

  // (3) Every record of an entity strictly heavier than the final M
  // survives pruning (no TopK group loses members).
  const double final_m = result.levels.back().M;
  std::set<size_t> survivors;
  for (const Group& g : result.groups) {
    for (size_t m : g.members) survivors.insert(m);
  }
  for (size_t r = 0; r < data.size(); ++r) {
    if (entity_weight[data[r].entity_id] > final_m + 1e-9) {
      EXPECT_TRUE(survivors.count(r))
          << "record " << r << " of heavy entity "
          << data[r].entity_id << " was pruned";
    }
  }

  // (4) Statistics are internally consistent.
  for (const LevelStats& level : result.levels) {
    EXPECT_LE(level.n_after_prune, level.n_after_collapse);
    EXPECT_GE(level.m, static_cast<size_t>(k));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrunedDedupPropertyTest,
                         ::testing::Range(0, 3));

// The same safety properties on the other two dataset families.
TEST(PrunedDedupPropertyTest, SafetyOnStudentData) {
  datagen::StudentGenOptions gen;
  gen.num_records = 4000;
  gen.num_students = 1000;
  auto data_or = datagen::GenerateStudents(gen);
  ASSERT_TRUE(data_or.ok());
  const record::Dataset& data = data_or.value();
  auto corpus_or = predicates::Corpus::Build(&data, {});
  ASSERT_TRUE(corpus_or.ok());
  const predicates::Corpus& corpus = corpus_or.value();
  predicates::StudentFields fields;
  predicates::StudentS1 s1(&corpus, fields);
  predicates::StudentS2 s2(&corpus, fields);
  predicates::StudentN1 n1(&corpus, fields);
  predicates::StudentN2 n2(&corpus, fields);

  const int k = 5;
  PrunedDedupOptions options;
  options.k = k;
  auto result_or = PrunedDedup(data, {{&s1, &n1}, {&s2, &n2}}, options);
  ASSERT_TRUE(result_or.ok());
  const PrunedDedupResult& result = result_or.value();

  std::map<int64_t, double> entity_weight;
  for (size_t r = 0; r < data.size(); ++r) {
    entity_weight[data[r].entity_id] += data[r].weight;
  }
  std::vector<double> weights_desc;
  for (const auto& [id, w] : entity_weight) weights_desc.push_back(w);
  std::sort(weights_desc.rbegin(), weights_desc.rend());
  for (const LevelStats& level : result.levels) {
    EXPECT_LE(level.M, weights_desc[k - 1] + 1e-9);
  }
  const double final_m = result.levels.back().M;
  std::set<size_t> survivors;
  for (const Group& g : result.groups) {
    const int64_t entity = data[g.members.front()].entity_id;
    for (size_t m : g.members) {
      EXPECT_EQ(data[m].entity_id, entity);
      survivors.insert(m);
    }
  }
  for (size_t r = 0; r < data.size(); ++r) {
    if (entity_weight[data[r].entity_id] > final_m + 1e-9) {
      EXPECT_TRUE(survivors.count(r)) << r;
    }
  }
}

TEST(PrunedDedupPropertyTest, SafetyOnAddressData) {
  datagen::AddressGenOptions gen;
  gen.num_records = 4000;
  gen.num_entities = 1000;
  auto data_or = datagen::GenerateAddresses(gen);
  ASSERT_TRUE(data_or.ok());
  const record::Dataset& data = data_or.value();
  predicates::Corpus::Options corpus_options;
  corpus_options.stop_words = datagen::AddressStopWords();
  auto corpus_or = predicates::Corpus::Build(&data, corpus_options);
  ASSERT_TRUE(corpus_or.ok());
  const predicates::Corpus& corpus = corpus_or.value();
  predicates::AddressFields fields;
  predicates::AddressS1 s1(&corpus, fields);
  predicates::AddressN1 n1(&corpus, fields);

  const int k = 5;
  PrunedDedupOptions options;
  options.k = k;
  auto result_or = PrunedDedup(data, {{&s1, &n1}}, options);
  ASSERT_TRUE(result_or.ok());
  const PrunedDedupResult& result = result_or.value();

  std::map<int64_t, double> entity_weight;
  for (size_t r = 0; r < data.size(); ++r) {
    entity_weight[data[r].entity_id] += data[r].weight;
  }
  std::vector<double> weights_desc;
  for (const auto& [id, w] : entity_weight) weights_desc.push_back(w);
  std::sort(weights_desc.rbegin(), weights_desc.rend());
  EXPECT_LE(result.levels.back().M, weights_desc[k - 1] + 1e-9);
  const double final_m = result.levels.back().M;
  std::set<size_t> survivors;
  for (const Group& g : result.groups) {
    const int64_t entity = data[g.members.front()].entity_id;
    for (size_t m : g.members) {
      EXPECT_EQ(data[m].entity_id, entity);
      survivors.insert(m);
    }
  }
  for (size_t r = 0; r < data.size(); ++r) {
    if (entity_weight[data[r].entity_id] > final_m + 1e-9) {
      EXPECT_TRUE(survivors.count(r)) << r;
    }
  }
}

TEST(PrunedDedupTest, InvalidArguments) {
  record::Dataset data = WeightedNames({{"a", 1.0}});
  auto corpus_or = predicates::Corpus::Build(&data, {});
  ASSERT_TRUE(corpus_or.ok());
  predicates::CommonWordsPredicate n(&corpus_or.value(), {0}, 1);
  PrunedDedupOptions bad_k;
  bad_k.k = 0;
  EXPECT_FALSE(PrunedDedup(data, {{nullptr, &n}}, bad_k).ok());
  PrunedDedupOptions ok_k;
  EXPECT_FALSE(PrunedDedup(data, {}, ok_k).ok());
}

}  // namespace
}  // namespace topkdup::dedup
