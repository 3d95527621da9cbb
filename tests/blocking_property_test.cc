// Property sweep: on every generated dataset family, the blocking of every
// predicate used by the pipelines must be conservative — every pair the
// predicate accepts is surfaced by its own signature index. This is the
// correctness contract of predicates/blocked_index.h, exercised on
// realistic corpora rather than hand-picked rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/pair_scores.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "datagen/address_gen.h"
#include "datagen/citation_gen.h"
#include "datagen/lexicon.h"
#include "datagen/student_gen.h"
#include "dedup/collapse.h"
#include "dedup/group.h"
#include "dedup/prune.h"
#include "predicates/address.h"
#include "predicates/blocked_index.h"
#include "predicates/citation.h"
#include "predicates/corpus.h"
#include "predicates/generic.h"
#include "predicates/index_cache.h"
#include "predicates/student.h"
#include "predicates/tfidf_canopy.h"
#include "topk/pair_scoring.h"

namespace topkdup::predicates {
namespace {

/// Checks conservativeness by exhaustive comparison on a small dataset.
void ExpectConservative(const record::Dataset& data,
                        const PairPredicate& pred) {
  std::vector<size_t> items(data.size());
  for (size_t i = 0; i < items.size(); ++i) items[i] = i;
  BlockedIndex index(pred, items);
  std::set<std::pair<size_t, size_t>> blocked;
  index.ForEachCandidatePair(
      [&](size_t p, size_t q) { blocked.insert({p, q}); });
  size_t accepted = 0;
  for (size_t a = 0; a < data.size(); ++a) {
    for (size_t b = a + 1; b < data.size(); ++b) {
      if (pred.Evaluate(a, b)) {
        ++accepted;
        ASSERT_TRUE(blocked.count({a, b}))
            << pred.name() << " accepted (" << a << "," << b
            << ") but its blocking missed the pair";
      }
    }
  }
  // The datasets below all contain at least some matching pairs, so the
  // property is not vacuous for the predicates meant to fire.
  (void)accepted;
}

class CitationBlockingSweep : public ::testing::TestWithParam<int> {};

TEST_P(CitationBlockingSweep, AllPredicatesConservative) {
  datagen::CitationGenOptions gen;
  gen.num_records = 300;
  gen.num_authors = 60;
  gen.seed = 7000 + GetParam();
  auto data_or = datagen::GenerateCitations(gen);
  ASSERT_TRUE(data_or.ok());
  const record::Dataset& data = data_or.value();
  auto corpus_or = Corpus::Build(&data, {});
  ASSERT_TRUE(corpus_or.ok());
  const Corpus& corpus = corpus_or.value();

  CitationFields fields;
  ExpectConservative(data, CitationS1(&corpus, fields, 0.0));
  ExpectConservative(data, CitationS2(&corpus, fields));
  ExpectConservative(data, QGramOverlapPredicate(&corpus, 0, 0.6));
  ExpectConservative(data, QGramOverlapPredicate(&corpus, 0, 0.6, true));
  ExpectConservative(data, TfIdfCanopyPredicate(&corpus, 0, 0.3));
  ExpectConservative(data,
                     CommonWordsPredicate(&corpus, std::vector<int>{0}, 1));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CitationBlockingSweep,
                         ::testing::Range(0, 4));

class StudentBlockingSweep : public ::testing::TestWithParam<int> {};

TEST_P(StudentBlockingSweep, AllPredicatesConservative) {
  datagen::StudentGenOptions gen;
  gen.num_records = 300;
  gen.num_students = 80;
  gen.seed = 8000 + GetParam();
  auto data_or = datagen::GenerateStudents(gen);
  ASSERT_TRUE(data_or.ok());
  const record::Dataset& data = data_or.value();
  auto corpus_or = Corpus::Build(&data, {});
  ASSERT_TRUE(corpus_or.ok());
  const Corpus& corpus = corpus_or.value();

  StudentFields fields;
  ExpectConservative(data, StudentS1(&corpus, fields));
  ExpectConservative(data, StudentS2(&corpus, fields));
  ExpectConservative(data, StudentN1(&corpus, fields));
  ExpectConservative(data, StudentN2(&corpus, fields));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StudentBlockingSweep,
                         ::testing::Range(0, 4));

class AddressBlockingSweep : public ::testing::TestWithParam<int> {};

TEST_P(AddressBlockingSweep, AllPredicatesConservative) {
  datagen::AddressGenOptions gen;
  gen.num_records = 300;
  gen.num_entities = 80;
  gen.seed = 9000 + GetParam();
  auto data_or = datagen::GenerateAddresses(gen);
  ASSERT_TRUE(data_or.ok());
  const record::Dataset& data = data_or.value();
  Corpus::Options corpus_options;
  corpus_options.stop_words = datagen::AddressStopWords();
  auto corpus_or = Corpus::Build(&data, corpus_options);
  ASSERT_TRUE(corpus_or.ok());
  const Corpus& corpus = corpus_or.value();

  AddressFields fields;
  ExpectConservative(data, AddressS1(&corpus, fields));
  ExpectConservative(data, AddressN1(&corpus, fields));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AddressBlockingSweep,
                         ::testing::Range(0, 4));

/// Reference implementation of the candidate contract: an uncompressed
/// scan over the raw signatures. For item p it returns every other item
/// sharing at least MinCommon(|sig_p|, |sig_q|) tokens, as a sorted set.
std::vector<size_t> ReferenceCandidates(const PairPredicate& pred,
                                        size_t p, size_t n) {
  const std::vector<text::TokenId>& sp = pred.Signature(p);
  std::vector<size_t> out;
  for (size_t q = 0; q < n; ++q) {
    if (q == p) continue;
    const std::vector<text::TokenId>& sq = pred.Signature(q);
    size_t common = 0, i = 0, j = 0;
    while (i < sp.size() && j < sq.size()) {
      if (sp[i] == sq[j]) {
        ++common, ++i, ++j;
      } else if (sp[i] < sq[j]) {
        ++i;
      } else {
        ++j;
      }
    }
    if (!sp.empty() && !sq.empty() &&
        common >= static_cast<size_t>(pred.MinCommon(sp.size(), sq.size()))) {
      out.push_back(q);
    }
  }
  return out;
}

std::vector<size_t> IndexCandidates(const BlockedIndex& index,
                                    BlockedIndex::QueryScratch* scratch,
                                    size_t p) {
  std::vector<size_t> out;
  index.ForEachCandidate(p, scratch, [&](size_t q) {
    out.push_back(q);
    return true;
  });
  std::sort(out.begin(), out.end());
  return out;
}

/// Every other item the predicate accepts with item p, as a sorted set.
std::vector<size_t> AcceptedPartners(const PairPredicate& pred, size_t p,
                                     size_t n) {
  std::vector<size_t> out;
  for (size_t q = 0; q < n; ++q) {
    if (q != p && pred.Evaluate(p, q)) out.push_back(q);
  }
  return out;
}

/// Checks the index `pred` builds over items 0..n-1 against the reference
/// scan for every item. When the predicate claims exact blocking, the
/// candidates must also be exactly the accepted partners. `rejected`, when
/// given, receives the number of (item, candidate) pairs the predicate
/// rejects.
void ExpectIndexMatchesReference(const PairPredicate& pred, size_t n,
                                 size_t* rejected = nullptr) {
  std::vector<size_t> items(n);
  for (size_t i = 0; i < n; ++i) items[i] = i;
  const BlockedIndex index(pred, items);
  BlockedIndex::QueryScratch scratch;
  if (rejected != nullptr) *rejected = 0;
  for (size_t p = 0; p < n; ++p) {
    const std::vector<size_t> candidates =
        IndexCandidates(index, &scratch, p);
    EXPECT_EQ(candidates, ReferenceCandidates(pred, p, n))
        << pred.name() << " item " << p;
    if (pred.BlockingIsExact()) {
      EXPECT_EQ(candidates, AcceptedPartners(pred, p, n))
          << pred.name() << " item " << p
          << ": exact blocking, yet candidates != accepted pairs";
    }
    if (rejected != nullptr) {
      for (const size_t q : candidates) {
        if (!pred.Evaluate(p, q)) ++*rejected;
      }
    }
  }
}

/// The compressed, skip-capable index must enumerate, for every item,
/// exactly the candidate *set* the uncompressed reference scan produces —
/// at every MinCommon regime the pipelines use.
class IndexEquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(IndexEquivalenceSweep, MatchesUncompressedScan) {
  const int seed = std::get<0>(GetParam());
  const int min_common = std::get<1>(GetParam());
  datagen::CitationGenOptions gen;
  gen.num_records = 250;
  gen.num_authors = 50;
  gen.seed = 11000 + seed;
  auto data_or = datagen::GenerateCitations(gen);
  ASSERT_TRUE(data_or.ok());
  const record::Dataset& data = data_or.value();
  auto corpus_or = Corpus::Build(&data, {});
  ASSERT_TRUE(corpus_or.ok());
  const Corpus& corpus = corpus_or.value();
  // min_common == 1 exercises the fractional-overlap thresholds (the
  // serve predicate) and the single-token key; 2 and 3 pin the
  // fixed-count regime. Each of these predicates claims exact blocking.
  std::vector<std::unique_ptr<PairPredicate>> preds;
  if (min_common == 1) {
    preds.push_back(std::make_unique<QGramOverlapPredicate>(&corpus, 0, 0.6));
    preds.push_back(std::make_unique<ExactFieldsPredicate>(
        &corpus, std::vector<int>{0}));
  } else {
    preds.push_back(std::make_unique<CommonWordsPredicate>(
        &corpus, std::vector<int>{0}, min_common));
  }
  for (const auto& pred : preds) {
    EXPECT_TRUE(pred->BlockingIsExact()) << pred->name();
    ExpectIndexMatchesReference(*pred, data.size());
  }
  if (min_common == 1) {
    // The initial rule is invisible to the signatures, so the flag is off,
    // and the sweep sees candidates the predicate rejects: the exactness
    // check above is one the data can fail.
    const QGramOverlapPredicate with_initial(&corpus, 0, 0.1,
                                             /*require_common_initial=*/true);
    EXPECT_FALSE(with_initial.BlockingIsExact());
    size_t rejected = 0;
    ExpectIndexMatchesReference(with_initial, data.size(), &rejected);
    EXPECT_GT(rejected, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByMinCommon, IndexEquivalenceSweep,
    ::testing::Combine(::testing::Range(0, 3), ::testing::Values(1, 2, 3)));

/// The address regime: short name signatures under AddressS1's fractional
/// threshold, where nearly every generated candidate is verified by the
/// signature merge, and AddressN1's fixed count over name + address words.
class AddressIndexEquivalenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(AddressIndexEquivalenceSweep, MatchesUncompressedScan) {
  datagen::AddressGenOptions gen;
  gen.num_records = 300;
  gen.num_entities = 60;
  gen.seed = 13000 + GetParam();
  auto data_or = datagen::GenerateAddresses(gen);
  ASSERT_TRUE(data_or.ok());
  const record::Dataset& data = data_or.value();
  Corpus::Options corpus_options;
  corpus_options.stop_words = datagen::AddressStopWords();
  auto corpus_or = Corpus::Build(&data, corpus_options);
  ASSERT_TRUE(corpus_or.ok());
  const Corpus& corpus = corpus_or.value();
  AddressFields fields;
  const AddressS1 s1(&corpus, fields);
  const AddressN1 n1(&corpus, fields);
  EXPECT_FALSE(s1.BlockingIsExact());
  EXPECT_TRUE(n1.BlockingIsExact());
  ExpectIndexMatchesReference(s1, data.size());
  ExpectIndexMatchesReference(n1, data.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AddressIndexEquivalenceSweep,
                         ::testing::Range(0, 3));

/// With the candidate memo enabled, the second enumeration of an item
/// must replay the first one identically (order included) — including
/// when the first enumeration was cut short by an early-exiting consumer.
TEST(IndexMemoTest, ReplayIsIdenticalAndEarlyExitSafe) {
  datagen::CitationGenOptions gen;
  gen.num_records = 200;
  gen.num_authors = 40;
  gen.seed = 12002;
  auto data_or = datagen::GenerateCitations(gen);
  ASSERT_TRUE(data_or.ok());
  const record::Dataset& data = data_or.value();
  auto corpus_or = Corpus::Build(&data, {});
  ASSERT_TRUE(corpus_or.ok());
  const Corpus& corpus = corpus_or.value();
  QGramOverlapPredicate pred(&corpus, 0, 0.6);
  std::vector<size_t> items(data.size());
  for (size_t i = 0; i < items.size(); ++i) items[i] = i;
  BlockedIndex plain(pred, items);
  BlockedIndex memoized(pred, items);
  memoized.EnableCandidateMemo();
  ASSERT_TRUE(memoized.candidate_memo_enabled());

  BlockedIndex::QueryScratch s1, s2;
  for (size_t p = 0; p < data.size(); ++p) {
    std::vector<size_t> reference, first, replay;
    plain.ForEachCandidate(p, &s1, [&](size_t q) {
      reference.push_back(q);
      return true;
    });
    // First touch fills the memo; on even items stop after one candidate
    // to prove a truncated consumer still records the full list.
    const bool truncate = (p % 2 == 0) && !reference.empty();
    memoized.ForEachCandidate(p, &s2, [&](size_t q) {
      first.push_back(q);
      return !truncate;
    });
    if (truncate) {
      ASSERT_EQ(first.size(), 1u);
      EXPECT_EQ(first[0], reference[0]);
    } else {
      EXPECT_EQ(first, reference);
    }
    memoized.ForEachCandidate(p, &s2, [&](size_t q) {
      replay.push_back(q);
      return true;
    });
    EXPECT_EQ(replay, reference) << "item " << p;
  }
}

using Pairs = std::vector<std::pair<size_t, size_t>>;

/// Pairs of ForEachCandidatePairInRange over [begin, end), with the
/// `candidates` counter's growth during the call.
Pairs PairsInRange(const BlockedIndex& index, size_t begin, size_t end,
                   uint64_t* counted) {
  metrics::Counter* candidates = metrics::Registry::Global().GetCounter(
      "predicates.blocked_index.candidates");
  const uint64_t before = candidates->Value();
  BlockedIndex::QueryScratch scratch;
  Pairs out;
  index.ForEachCandidatePairInRange(
      begin, end, &scratch, [&](size_t p, size_t q) { out.push_back({p, q}); });
  *counted = candidates->Value() - before;
  return out;
}

/// Pair enumeration must emit, for every p, exactly the q > p
/// subsequence of ForEachCandidate(p) in the same order; split ranges
/// must concatenate to the full-range sequence; and the `candidates`
/// counter must grow by the number of pairs emitted (each unordered pair
/// is verified and counted once). Checked on a plain index, on memo-
/// enabled indexes filled by either enumeration (one first fill cut short
/// by the consumer), and on a loaded index.
void ExpectPairContract(const PairPredicate& pred, size_t n) {
  std::vector<size_t> items(n);
  for (size_t i = 0; i < n; ++i) items[i] = i;
  const BlockedIndex plain(pred, items);
  BlockedIndex::QueryScratch scratch;
  std::vector<std::vector<size_t>> lists(n);
  Pairs expected;
  for (size_t p = 0; p < n; ++p) {
    plain.ForEachCandidate(p, &scratch, [&](size_t q) {
      lists[p].push_back(q);
      if (q > p) expected.push_back({p, q});
      return true;
    });
  }
  ASSERT_FALSE(expected.empty()) << pred.name() << ": vacuous dataset";

  uint64_t counted = 0;
  EXPECT_EQ(PairsInRange(plain, 0, n, &counted), expected) << pred.name();
  EXPECT_EQ(counted, expected.size()) << pred.name();
  for (const size_t split : {size_t{1}, n / 3, n / 2, n - 1}) {
    uint64_t counted_lo = 0;
    uint64_t counted_hi = 0;
    Pairs joined = PairsInRange(plain, 0, split, &counted_lo);
    const Pairs hi = PairsInRange(plain, split, n, &counted_hi);
    joined.insert(joined.end(), hi.begin(), hi.end());
    EXPECT_EQ(joined, expected) << pred.name() << " split at " << split;
    EXPECT_EQ(counted_lo + counted_hi, expected.size()) << pred.name();
  }

  // Memo filled by pair enumeration: the pairs are unchanged, and the
  // memo still records each item's full list (earlier items included).
  BlockedIndex pairs_first(pred, items);
  pairs_first.EnableCandidateMemo();
  EXPECT_EQ(PairsInRange(pairs_first, 0, n, &counted), expected)
      << pred.name();
  EXPECT_EQ(counted, expected.size()) << pred.name();
  for (size_t p = 0; p < n; ++p) {
    std::vector<size_t> replay;
    pairs_first.ForEachCandidate(p, &scratch, [&](size_t q) {
      replay.push_back(q);
      return true;
    });
    ASSERT_EQ(replay, lists[p]) << pred.name() << " item " << p;
  }

  // Memo filled by a consumer that stops after one candidate, then
  // replayed by pair enumeration (twice: the replay is stable).
  BlockedIndex cut_first(pred, items);
  cut_first.EnableCandidateMemo();
  for (size_t p = 0; p < n; ++p) {
    cut_first.ForEachCandidate(p, &scratch, [](size_t) { return false; });
  }
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(PairsInRange(cut_first, 0, n, &counted), expected)
        << pred.name() << " replay " << round;
    EXPECT_EQ(counted, expected.size()) << pred.name();
  }
}

TEST(PairEnumerationTest, LaterCandidatesOncePerPairInItemOrder) {
  datagen::CitationGenOptions citation_gen;
  citation_gen.num_records = 220;
  citation_gen.num_authors = 44;
  citation_gen.seed = 12003;
  auto citations_or = datagen::GenerateCitations(citation_gen);
  ASSERT_TRUE(citations_or.ok());
  const record::Dataset& citations = citations_or.value();
  auto citation_corpus_or = Corpus::Build(&citations, {});
  ASSERT_TRUE(citation_corpus_or.ok());
  ExpectPairContract(
      QGramOverlapPredicate(&citation_corpus_or.value(), 0, 0.6),
      citations.size());

  datagen::AddressGenOptions address_gen;
  address_gen.num_records = 300;
  address_gen.num_entities = 60;
  address_gen.seed = 12004;
  auto addresses_or = datagen::GenerateAddresses(address_gen);
  ASSERT_TRUE(addresses_or.ok());
  const record::Dataset& addresses = addresses_or.value();
  Corpus::Options corpus_options;
  corpus_options.stop_words = datagen::AddressStopWords();
  auto address_corpus_or = Corpus::Build(&addresses, corpus_options);
  ASSERT_TRUE(address_corpus_or.ok());
  ExpectPairContract(AddressS1(&address_corpus_or.value(), AddressFields{}),
                     addresses.size());
}

/// Forwards everything to `inner` but keeps the default BlockingIsExact()
/// of false, so the pipelines evaluate every candidate.
class EvaluatingWrapper : public PairPredicate {
 public:
  explicit EvaluatingWrapper(const PairPredicate& inner) : inner_(inner) {}
  std::string_view name() const override { return inner_.name(); }
  bool Evaluate(size_t a, size_t b) const override {
    return inner_.Evaluate(a, b);
  }
  const std::vector<text::TokenId>& Signature(size_t rec) const override {
    return inner_.Signature(rec);
  }
  int MinCommon(size_t size_a, size_t size_b) const override {
    return inner_.MinCommon(size_a, size_b);
  }

 private:
  const PairPredicate& inner_;
};

uint64_t CounterValue(const char* name) {
  return metrics::Registry::Global().GetCounter(name)->Value();
}

/// Skipping Evaluate on an exact predicate's candidates changes nothing a
/// caller sees: prune's survivors and bounds are bit-identical, and so are
/// the pair-score rows. Only the evaluation counters differ.
TEST(ExactBlockingTest, SkippingEvaluateKeepsPruneAndPairScores) {
  datagen::CitationGenOptions gen;
  gen.num_records = 1500;
  gen.num_authors = 300;
  gen.seed = 12005;
  auto data_or = datagen::GenerateCitations(gen);
  ASSERT_TRUE(data_or.ok());
  const record::Dataset& data = data_or.value();
  auto corpus_or = Corpus::Build(&data, {});
  ASSERT_TRUE(corpus_or.ok());
  const Corpus& corpus = corpus_or.value();
  const QGramOverlapPredicate exact(&corpus, 0, 0.6);
  ASSERT_TRUE(exact.BlockingIsExact());
  const EvaluatingWrapper evaluating(exact);
  // Groups of varied weight: records with the same normalized name merge.
  const ExactFieldsPredicate same_name(&corpus, std::vector<int>{0});
  const std::vector<dedup::Group> groups =
      dedup::Collapse(dedup::MakeSingletonGroups(data), same_name);
  ASSERT_GT(groups.size(), 20u);
  const double M = groups[10].weight;
  const topk::PairScoreFn scorer = [](size_t a, size_t b) {
    return static_cast<double>((a * 31 + b * 17) % 9) - 4.5;
  };
  const IndexHandle exact_index = dedup::RepresentativeIndex(groups, exact);
  const IndexHandle evaluating_index =
      dedup::RepresentativeIndex(groups, evaluating);

  for (const int threads : {1, 4}) {
    ScopedParallelism scoped(threads);
    for (const bool exact_bounds : {false, true}) {
      const uint64_t evals = CounterValue("dedup.prune.pair_evals");
      const dedup::PruneResult flagged = dedup::PruneGroups(
          groups, exact, *exact_index, M, {}, exact_bounds);
      EXPECT_EQ(CounterValue("dedup.prune.pair_evals"), evals);
      const dedup::PruneResult evaluated = dedup::PruneGroups(
          groups, evaluating, *evaluating_index, M, {}, exact_bounds);
      EXPECT_GT(CounterValue("dedup.prune.pair_evals"), evals);

      ASSERT_GT(flagged.groups.size(), 0u);
      ASSERT_LT(flagged.groups.size(), groups.size());
      ASSERT_EQ(flagged.groups.size(), evaluated.groups.size());
      for (size_t i = 0; i < flagged.groups.size(); ++i) {
        EXPECT_EQ(flagged.groups[i].rep, evaluated.groups[i].rep);
        EXPECT_TRUE(std::memcmp(&flagged.upper_bounds[i],
                                &evaluated.upper_bounds[i],
                                sizeof(double)) == 0)
            << "threads=" << threads << " exact_bounds=" << exact_bounds
            << " survivor " << i;
      }
    }

    const uint64_t evals = CounterValue("topk.pair_scores.pair_evals");
    const uint64_t enumerated =
        CounterValue("topk.pair_scores.pairs_enumerated");
    const cluster::PairScores flagged =
        topk::BuildGroupPairScores(groups, exact, scorer, {});
    EXPECT_EQ(CounterValue("topk.pair_scores.pair_evals"), evals);
    const uint64_t flagged_pairs =
        CounterValue("topk.pair_scores.pairs_enumerated") - enumerated;
    const cluster::PairScores evaluated =
        topk::BuildGroupPairScores(groups, evaluating, scorer, {});
    EXPECT_EQ(CounterValue("topk.pair_scores.pair_evals") - evals,
              flagged_pairs);

    ASSERT_GT(flagged.stored_pair_count(), 0u);
    ASSERT_EQ(flagged.stored_pair_count(), evaluated.stored_pair_count());
    for (size_t i = 0; i < groups.size(); ++i) {
      const auto a = flagged.Neighbors(i);
      const auto b = evaluated.Neighbors(i);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "threads=" << threads << " row " << i;
    }
  }
}

/// What a full sweep of probes over an index produced: a digest of every
/// item's candidate sequence, in enumeration order, and the blocked index's
/// work counters over the sweep.
struct ProbeDigest {
  uint64_t sequences = 0;
  uint64_t postings_decoded = 0;
  uint64_t blocks_decoded = 0;
  uint64_t blocks_skipped = 0;
  uint64_t candidates = 0;
};

ProbeDigest DigestOf(const metrics::CounterBlock& block,
                     const std::string& text) {
  return {Fnv1a64(text),
          block.Value("predicates.blocked_index.postings_decoded"),
          block.Value("predicates.blocked_index.blocks_decoded"),
          block.Value("predicates.blocked_index.blocks_skipped"),
          block.Value("predicates.blocked_index.candidates")};
}

/// Digests of three sweeps over items 0..n-1 of `pred`'s index: every
/// item's full ForEachCandidate sequence; every item's sequence cut after
/// its third candidate, as prune's early exit cuts it; and the pairs of
/// ForEachCandidatePairInRange over the whole range.
std::vector<ProbeDigest> DigestProbes(const PairPredicate& pred, size_t n) {
  std::vector<size_t> items(n);
  for (size_t i = 0; i < n; ++i) items[i] = i;
  const BlockedIndex index(pred, items);
  BlockedIndex::QueryScratch scratch;
  std::vector<ProbeDigest> digests;
  for (const size_t cut : {std::numeric_limits<size_t>::max(), size_t{3}}) {
    const metrics::CounterBlock block;
    std::string text;
    for (size_t p = 0; p < n; ++p) {
      size_t seen = 0;
      index.ForEachCandidate(p, &scratch, [&](size_t q) {
        text += std::to_string(q) + ',';
        return ++seen < cut;
      });
      text += ';';
    }
    digests.push_back(DigestOf(block, text));
  }
  const metrics::CounterBlock block;
  std::string text;
  index.ForEachCandidatePairInRange(0, n, &scratch, [&](size_t p, size_t q) {
    text += std::to_string(p) + ',' + std::to_string(q) + ';';
  });
  digests.push_back(DigestOf(block, text));
  return digests;
}

void ExpectDigests(const PairPredicate& pred, size_t n,
                   const std::vector<ProbeDigest>& pinned) {
  const std::vector<ProbeDigest> got = DigestProbes(pred, n);
  ASSERT_EQ(got.size(), pinned.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(std::string(pred.name()) + " sweep " + std::to_string(i));
    EXPECT_EQ(got[i].sequences, pinned[i].sequences)
        << StrFormat("0x%016llx",
                     static_cast<unsigned long long>(got[i].sequences));
    EXPECT_EQ(got[i].postings_decoded, pinned[i].postings_decoded);
    EXPECT_EQ(got[i].blocks_decoded, pinned[i].blocks_decoded);
    EXPECT_EQ(got[i].blocks_skipped, pinned[i].blocks_skipped);
    EXPECT_EQ(got[i].candidates, pinned[i].candidates);
  }
}

/// Enumeration order and probe work are pinned on two fixtures: citations
/// under QGramOverlapPredicate(0, 0.6), whose author q-gram signatures
/// span many size classes, and addresses under AddressS1 and AddressN1,
/// whose common words make multi-block class segments. The candidate
/// sets are checked against a reference scan above; these constants also
/// hold the order the pipelines' float sums and early exits depend on, and
/// the decode and skip work a probe pays. A change to the enumeration that
/// moves any of them on purpose must say why and re-record them.
TEST(ProbePinTest, EnumerationOrderAndWorkArePinned) {
  datagen::CitationGenOptions citation_gen;
  citation_gen.num_records = 3000;
  citation_gen.num_authors = 600;
  citation_gen.seed = 12006;
  auto citations_or = datagen::GenerateCitations(citation_gen);
  ASSERT_TRUE(citations_or.ok());
  const record::Dataset& citations = citations_or.value();
  auto citation_corpus_or = Corpus::Build(&citations, {});
  ASSERT_TRUE(citation_corpus_or.ok());
  ExpectDigests(QGramOverlapPredicate(&citation_corpus_or.value(), 0, 0.6),
                citations.size(),
                {{0xa92feb6b9c75a5fbull, 3402206, 90034, 438469, 397866},
                 {0x6a81188601fd9b68ull, 2467409, 66871, 461632, 8137},
                 {0x3157e6824b1461dcull, 3402206, 90034, 438469, 198933}});

  datagen::AddressGenOptions address_gen;
  address_gen.num_records = 3000;
  address_gen.num_entities = 600;
  address_gen.seed = 12007;
  auto addresses_or = datagen::GenerateAddresses(address_gen);
  ASSERT_TRUE(addresses_or.ok());
  const record::Dataset& addresses = addresses_or.value();
  Corpus::Options corpus_options;
  corpus_options.stop_words = datagen::AddressStopWords();
  auto address_corpus_or = Corpus::Build(&addresses, corpus_options);
  ASSERT_TRUE(address_corpus_or.ok());
  const Corpus& address_corpus = address_corpus_or.value();
  ExpectDigests(AddressS1(&address_corpus, AddressFields{}), addresses.size(),
                {{0xe3a3897bf06c109aull, 387314, 5397, 5601, 361540},
                 {0x379d435c53293122ull, 387314, 5397, 5601, 7639},
                 {0xd5bb4a54f2d0577aull, 387314, 5397, 5601, 180770}});
  ExpectDigests(AddressN1(&address_corpus, AddressFields{}), addresses.size(),
                {{0x4807d7ddc66aa917ull, 1219678, 20112, 32985, 406846},
                 {0xa92974d83dfd6d9bull, 1013761, 16431, 36666, 7955},
                 {0x78b4b27c1e0b3306ull, 1219678, 20112, 32985, 203423}});
}

}  // namespace
}  // namespace topkdup::predicates
