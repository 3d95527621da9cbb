#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "predicates/address.h"
#include "predicates/blocked_index.h"
#include "predicates/citation.h"
#include "predicates/corpus.h"
#include "predicates/generic.h"
#include "predicates/student.h"
#include "predicates/tfidf_canopy.h"

namespace topkdup::predicates {
namespace {

record::Dataset CitationData() {
  record::Dataset data{record::Schema({"author", "coauthors", "title"})};
  auto add = [&](const char* author, const char* coauthors) {
    record::Record r;
    r.fields = {author, coauthors, "some title words"};
    data.Add(r);
  };
  add("sunita sarawagi", "vinay deshpande sourabh kasliwal");   // 0
  add("s sarawagi", "vinay deshpande sourabh kasliwal");        // 1
  add("sunita sarawagi", "alon halevy");                        // 2
  add("anil kumar", "raj verma");                               // 3
  add("anil kumar", "raj verma");                               // 4
  add("kunita sarawagi", "vinay deshpande sourabh kasliwal");   // 5
  return data;
}

class CitationPredTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = CitationData();
    auto corpus = Corpus::Build(&data_, Corpus::Options{});
    ASSERT_TRUE(corpus.ok());
    corpus_.emplace(std::move(corpus).value());
  }
  record::Dataset data_;
  std::optional<Corpus> corpus_;
};

TEST_F(CitationPredTest, CorpusCaches) {
  EXPECT_EQ(corpus_->InitialsOf(0, 0), "ss");
  EXPECT_EQ(corpus_->InitialsOf(1, 0), "ss");
  EXPECT_EQ(corpus_->WordSet(0, 0).size(), 2u);
  EXPECT_FALSE(corpus_->QGramSet(0, 0).empty());
  EXPECT_GT(corpus_->MaxIdf(0), 0.0);
}

TEST_F(CitationPredTest, S1RequiresRareEqualNames) {
  // "sarawagi" appears in records 0,1,2,5 (rare-ish); "kumar" in 3,4.
  // With a low threshold, identical rare full names match.
  CitationS1 s1_low(&*corpus_, CitationFields{}, /*min_idf_threshold=*/0.0);
  EXPECT_TRUE(s1_low.Evaluate(0, 2));   // Identical author strings.
  EXPECT_TRUE(s1_low.Evaluate(3, 4));   // Identical author strings.
  EXPECT_FALSE(s1_low.Evaluate(0, 1));  // Word sets differ (initial form).
  EXPECT_FALSE(s1_low.Evaluate(0, 5));  // sunita != kunita.
  // With an unreachable threshold nothing is sufficient.
  CitationS1 s1_high(&*corpus_, CitationFields{}, 1e9);
  EXPECT_FALSE(s1_high.Evaluate(0, 2));
}

TEST_F(CitationPredTest, S2NeedsInitialsLastNameAndCoauthors) {
  CitationS2 s2(&*corpus_, CitationFields{});
  EXPECT_TRUE(s2.Evaluate(0, 1));   // Same initials+last, 3 coauthor words.
  EXPECT_FALSE(s2.Evaluate(0, 2));  // Only 2 common coauthor words.
  EXPECT_FALSE(s2.Evaluate(0, 5));  // Same last name but initials differ.
}

TEST_F(CitationPredTest, N1QGramOverlap) {
  QGramOverlapPredicate n1(&*corpus_, /*field=*/0, 0.6);
  EXPECT_TRUE(n1.Evaluate(0, 1));   // "s sarawagi" vs full form.
  EXPECT_TRUE(n1.Evaluate(0, 5));   // sunita vs kunita sarawagi.
  EXPECT_FALSE(n1.Evaluate(0, 3));  // Unrelated names.
}

TEST_F(CitationPredTest, N2AddsInitialCheck) {
  QGramOverlapPredicate n2(&*corpus_, 0, 0.6, /*require_common_initial=*/true);
  EXPECT_TRUE(n2.Evaluate(0, 1));
  EXPECT_FALSE(n2.Evaluate(0, 3));
}

TEST_F(CitationPredTest, BlockingIsConservative) {
  // Property: every pair the predicate accepts must be surfaced by its own
  // blocking (signature intersection >= MinCommon).
  std::vector<std::unique_ptr<PairPredicate>> preds;
  preds.push_back(std::make_unique<CitationS1>(&*corpus_, CitationFields{},
                                               0.0));
  preds.push_back(std::make_unique<CitationS2>(&*corpus_, CitationFields{}));
  preds.push_back(
      std::make_unique<QGramOverlapPredicate>(&*corpus_, 0, 0.6, true));
  for (const auto& pred : preds) {
    std::vector<size_t> items(data_.size());
    for (size_t i = 0; i < items.size(); ++i) items[i] = i;
    BlockedIndex index(*pred, items);
    std::set<std::pair<size_t, size_t>> blocked;
    index.ForEachCandidatePair(
        [&](size_t p, size_t q) { blocked.insert({p, q}); });
    for (size_t a = 0; a < data_.size(); ++a) {
      for (size_t b = a + 1; b < data_.size(); ++b) {
        if (pred->Evaluate(a, b)) {
          EXPECT_TRUE(blocked.count({a, b}))
              << pred->name() << " accepted (" << a << "," << b
              << ") but blocking missed it";
        }
      }
    }
  }
}

TEST(StudentPredTest, AllFour) {
  record::Dataset data{
      record::Schema({"name", "birth_date", "class", "school", "paper"})};
  auto add = [&](const char* name, const char* birth, const char* cls,
                 const char* school) {
    record::Record r;
    r.fields = {name, birth, cls, school, "P01"};
    data.Add(r);
  };
  add("anil kumar", "01-02-1999", "C3", "S017");   // 0
  add("anil kumar", "01-02-1999", "C3", "S017");   // 1: exact dup
  add("anilkumar", "15-06-2008", "C3", "S017");    // 2: dropped space
  add("anil kumar", "01-02-1999", "C4", "S017");   // 3: other class
  add("beena shah", "03-04-1998", "C3", "S017");   // 4: other student
  auto corpus_or = Corpus::Build(&data, Corpus::Options{});
  ASSERT_TRUE(corpus_or.ok());
  const Corpus& corpus = corpus_or.value();

  StudentFields fields;
  StudentS1 s1(&corpus, fields);
  EXPECT_TRUE(s1.Evaluate(0, 1));
  EXPECT_FALSE(s1.Evaluate(0, 2));  // Name and birth differ.
  EXPECT_FALSE(s1.Evaluate(0, 3));  // Class differs.

  StudentS2 s2(&corpus, fields);
  EXPECT_TRUE(s2.Evaluate(0, 1));
  EXPECT_FALSE(s2.Evaluate(0, 2));  // Birth differs blocks S2 too.

  StudentN1 n1(&corpus, fields);
  EXPECT_TRUE(n1.Evaluate(0, 1));
  EXPECT_TRUE(n1.Evaluate(0, 2));   // Common initial 'a', same class+school.
  EXPECT_FALSE(n1.Evaluate(0, 3));  // Class differs.
  EXPECT_FALSE(n1.Evaluate(0, 4));  // No common initial.

  StudentN2 n2(&corpus, fields);
  EXPECT_TRUE(n2.Evaluate(0, 1));
  EXPECT_TRUE(n2.Evaluate(0, 2));   // Dropped space keeps most 3-grams.
  EXPECT_FALSE(n2.Evaluate(0, 4));
}

TEST(AddressPredTest, S1AndN1) {
  record::Dataset data{record::Schema({"name", "address", "pin"})};
  auto add = [&](const char* name, const char* addr) {
    record::Record r;
    r.fields = {name, addr, "411004"};
    data.Add(r);
  };
  add("raj sharma", "12a shivaji park road kothrud pune");   // 0
  add("r sharma", "12a shivaji park kothrud");               // 1
  add("raj sharma", "47b fergusson college road deccan");    // 2
  add("meena patel", "12a shivaji park road kothrud pune");  // 3
  Corpus::Options options;
  options.stop_words = {"road", "street", "pune", "near"};
  auto corpus_or = Corpus::Build(&data, options);
  ASSERT_TRUE(corpus_or.ok());
  const Corpus& corpus = corpus_or.value();

  AddressFields fields;
  AddressS1 s1(&corpus, fields);
  // Name overlap {sharma}/min(2,2) = 0.5 is not > 0.7, despite equal
  // initials, so S1 stays conservative here.
  EXPECT_FALSE(s1.Evaluate(0, 1));
  AddressN1 n1(&corpus, fields);
  EXPECT_TRUE(n1.Evaluate(0, 1));   // sharma, 12a, shivaji, park, kothrud.
  EXPECT_FALSE(n1.Evaluate(1, 2));  // Only sharma + r common.
  EXPECT_TRUE(n1.Evaluate(0, 3));   // Same address: 4+ common words.
}

TEST(AddressPredTest, S1Semantics) {
  record::Dataset data{record::Schema({"name", "address", "pin"})};
  auto add = [&](const char* name, const char* addr) {
    record::Record r;
    r.fields = {name, addr, "411004"};
    data.Add(r);
  };
  add("raj sharma", "12a shivaji park road kothrud");  // 0
  add("raj sharma", "12a shivaji park kothrud");       // 1: same person
  add("ravi sharma", "12a shivaji park kothrud");      // 2: same initials!
  add("meena patel", "12a shivaji park kothrud");      // 3: diff initials
  Corpus::Options options;
  options.stop_words = {"road"};
  auto corpus_or = Corpus::Build(&data, options);
  ASSERT_TRUE(corpus_or.ok());
  const Corpus& corpus = corpus_or.value();
  AddressS1 s1(&corpus, AddressFields{});
  EXPECT_TRUE(s1.Evaluate(0, 1));   // Identical name, address overlap 1.0.
  EXPECT_FALSE(s1.Evaluate(0, 2));  // raj vs ravi: name overlap 0.5 <= 0.7.
  EXPECT_FALSE(s1.Evaluate(0, 3));  // Initials differ.
}

/// The smallest common-token count a fractional-overlap predicate accepts
/// (common / smaller >= f, in double arithmetic), found by counting up.
int SmallestAcceptedCommon(double f, size_t smaller) {
  int c = 1;
  while (static_cast<double>(c) / static_cast<double>(smaller) < f) ++c;
  return c;
}

/// QGramOverlapPredicate and StudentN2 accept when common / smaller >= f,
/// so their blocking threshold must be exactly the smallest such count: a
/// larger one drops accepted pairs from the blocked index. ceil(f * smaller)
/// is not always it: ceil(0.28 * 25) is 8 in doubles, yet 7 / 25 passes.
TEST(MinCommonTest, FractionThresholdIsSmallestAcceptedCount) {
  record::Dataset data{
      record::Schema({"name", "birth_date", "class", "school", "paper"})};
  record::Record r;
  r.fields = {"anil kumar", "01-02-1999", "C3", "S017", "P01"};
  data.Add(r);
  auto corpus_or = Corpus::Build(&data, Corpus::Options{});
  ASSERT_TRUE(corpus_or.ok());
  const Corpus& corpus = corpus_or.value();
  for (int step = 1; step <= 100; ++step) {
    const double f = step / 100.0;
    const QGramOverlapPredicate qgram(&corpus, 0, f);
    const StudentN2 n2(&corpus, StudentFields{}, f);
    for (size_t smaller = 1; smaller <= 300; ++smaller) {
      const int want = SmallestAcceptedCommon(f, smaller);
      ASSERT_EQ(qgram.MinCommon(smaller, smaller + 7), want)
          << "f=" << f << " smaller=" << smaller;
      ASSERT_EQ(n2.MinCommon(smaller + 3, smaller), want)
          << "f=" << f << " smaller=" << smaller;
    }
  }
  // The fractions the pipelines use keep their ceil(f * smaller)
  // thresholds, so no blocking they do changes.
  const QGramOverlapPredicate qgram(&corpus, 0, 0.6);
  const StudentN2 n2(&corpus, StudentFields{});  // Fraction 0.5.
  for (size_t smaller = 1; smaller <= 5000; ++smaller) {
    const double s = static_cast<double>(smaller);
    ASSERT_EQ(qgram.MinCommon(smaller, smaller),
              static_cast<int>(std::ceil(0.6 * s)))
        << smaller;
    ASSERT_EQ(n2.MinCommon(smaller, smaller),
              static_cast<int>(std::ceil(0.5 * s)))
        << smaller;
  }
}

TEST(GenericPredTest, ExactFieldsAndCommonWords) {
  record::Dataset data{record::Schema({"a", "b"})};
  auto add = [&](const char* a, const char* b) {
    record::Record r;
    r.fields = {a, b};
    data.Add(r);
  };
  add("Foo  Bar", "x y z");
  add("foo bar", "x y q");
  add("foo baz", "p q r");
  auto corpus_or = Corpus::Build(&data, Corpus::Options{});
  ASSERT_TRUE(corpus_or.ok());
  const Corpus& corpus = corpus_or.value();

  ExactFieldsPredicate exact(&corpus, {0});
  EXPECT_TRUE(exact.Evaluate(0, 1));  // Case/space-insensitive.
  EXPECT_FALSE(exact.Evaluate(0, 2));

  CommonWordsPredicate common(&corpus, {0, 1}, 2);
  EXPECT_TRUE(common.Evaluate(0, 1));   // foo, bar, x, y common.
  EXPECT_FALSE(common.Evaluate(0, 2));  // Only "foo".
  EXPECT_TRUE(common.Evaluate(1, 2));   // foo + q.
}

TEST(TfIdfCanopyTest, ThresholdAndBlocking) {
  record::Dataset data{record::Schema({"name"})};
  auto add = [&](const char* name) {
    record::Record r;
    r.fields = {name};
    data.Add(r);
  };
  add("sunita sarawagi");      // 0
  add("sunita sarawagi");      // 1: identical -> cosine 1
  add("s sarawagi iitb");      // 2: shares the rare word
  add("anil kumar");           // 3: disjoint
  for (int i = 0; i < 20; ++i) add("the kumar kumar");  // Common words.
  auto corpus_or = Corpus::Build(&data, {});
  ASSERT_TRUE(corpus_or.ok());
  const Corpus& corpus = corpus_or.value();
  TfIdfCanopyPredicate canopy(&corpus, 0, 0.3);
  EXPECT_TRUE(canopy.Evaluate(0, 1));
  EXPECT_TRUE(canopy.Evaluate(0, 2));   // Rare shared word dominates.
  EXPECT_FALSE(canopy.Evaluate(0, 3));  // No common word at all.
  // Sharing only a very common word scores below the threshold.
  EXPECT_FALSE(canopy.Evaluate(3, 4));

  // Blocking conservativeness.
  std::vector<size_t> items(data.size());
  for (size_t i = 0; i < items.size(); ++i) items[i] = i;
  BlockedIndex index(canopy, items);
  std::set<std::pair<size_t, size_t>> blocked;
  index.ForEachCandidatePair(
      [&](size_t p, size_t q) { blocked.insert({p, q}); });
  for (size_t a = 0; a < data.size(); ++a) {
    for (size_t b = a + 1; b < data.size(); ++b) {
      if (canopy.Evaluate(a, b)) {
        EXPECT_TRUE(blocked.count({a, b}));
      }
    }
  }
}

TEST(BlockedIndexTest, EarlyExitStopsScan) {
  record::Dataset data{record::Schema({"a"})};
  for (int i = 0; i < 5; ++i) {
    record::Record r;
    r.fields = {"same words here"};
    data.Add(r);
  }
  auto corpus_or = Corpus::Build(&data, Corpus::Options{});
  ASSERT_TRUE(corpus_or.ok());
  CommonWordsPredicate pred(&corpus_or.value(), {0}, 1);
  BlockedIndex index(pred, {0, 1, 2, 3, 4});
  int seen = 0;
  index.ForEachCandidate(0, [&](size_t) {
    ++seen;
    return false;  // Stop immediately.
  });
  EXPECT_EQ(seen, 1);
  // And a full scan sees all 4 others.
  seen = 0;
  index.ForEachCandidate(0, [&](size_t) {
    ++seen;
    return true;
  });
  EXPECT_EQ(seen, 4);
}

}  // namespace
}  // namespace topkdup::predicates
