#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "sim/name_similarity.h"
#include "sim/similarity.h"
#include "text/tokenize.h"
#include "text/vocab.h"

namespace topkdup::sim {
namespace {

using text::TokenId;
using text::Vocabulary;

TEST(JaccardTest, BasicCases) {
  Vocabulary v;
  auto a = v.InternSet({"x", "y", "z"});
  auto b = v.InternSet({"y", "z", "w"});
  EXPECT_DOUBLE_EQ(Jaccard(a, b), 0.5);  // 2 common / 4 union.
  EXPECT_DOUBLE_EQ(Jaccard(a, a), 1.0);
  EXPECT_DOUBLE_EQ(Jaccard({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(Jaccard(a, {}), 0.0);
}

TEST(OverlapTest, RelativeToSmaller) {
  Vocabulary v;
  auto small = v.InternSet({"a", "b"});
  auto big = v.InternSet({"a", "b", "c", "d"});
  EXPECT_DOUBLE_EQ(OverlapFraction(small, big), 1.0);
  auto other = v.InternSet({"a", "x", "y", "z"});
  EXPECT_DOUBLE_EQ(OverlapFraction(small, other), 0.5);
}

TEST(CosineTest, IdenticalSetsScoreOne) {
  Vocabulary v;
  text::IdfTable idf;
  auto a = v.InternSet({"rare", "words"});
  idf.AddDocument(a);
  for (int i = 0; i < 20; ++i) idf.AddDocument(v.InternSet({"common"}));
  EXPECT_NEAR(CosineTfIdf(a, a, idf), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(CosineTfIdf(a, {}, idf), 0.0);
}

TEST(CosineTest, RareOverlapBeatsCommonOverlap) {
  Vocabulary v;
  text::IdfTable idf;
  TokenId rare = v.GetOrAdd("sarawagi");
  TokenId common = v.GetOrAdd("kumar");
  TokenId x1 = v.GetOrAdd("x1");
  TokenId x2 = v.GetOrAdd("x2");
  for (int i = 0; i < 50; ++i) idf.AddDocument({common});
  idf.AddDocument({rare});
  // Pair sharing the rare word vs pair sharing the common word.
  const double rare_sim = CosineTfIdf({rare, x1}, {rare, x2}, idf);
  const double common_sim = CosineTfIdf({common, x1}, {common, x2}, idf);
  EXPECT_GT(rare_sim, common_sim);
}

TEST(JaroTest, KnownValues) {
  EXPECT_DOUBLE_EQ(Jaro("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(Jaro("", ""), 1.0);
  EXPECT_DOUBLE_EQ(Jaro("abc", ""), 0.0);
  EXPECT_DOUBLE_EQ(Jaro("abc", "xyz"), 0.0);
  // Classic example: MARTHA vs MARHTA = 0.944...
  EXPECT_NEAR(Jaro("martha", "marhta"), 0.9444444, 1e-6);
}

TEST(JaroWinklerTest, PrefixBoost) {
  const double jaro = Jaro("dixon", "dicksonx");
  const double jw = JaroWinkler("dixon", "dicksonx");
  EXPECT_GT(jw, jaro);
  EXPECT_NEAR(JaroWinkler("martha", "marhta"), 0.9611111, 1e-6);
  EXPECT_DOUBLE_EQ(JaroWinkler("same", "same"), 1.0);
}

TEST(JaroWinklerTest, SymmetricAndBounded) {
  Rng rng(5);
  const char* words[] = {"sarawagi", "sarwagi",  "deshpande", "deshpnde",
                         "kasliwal", "kasliwaal", "a",        ""};
  for (const char* a : words) {
    for (const char* b : words) {
      const double ab = JaroWinkler(a, b);
      const double ba = JaroWinkler(b, a);
      EXPECT_DOUBLE_EQ(ab, ba);
      EXPECT_GE(ab, 0.0);
      EXPECT_LE(ab, 1.0);
    }
  }
}

/// The original scalar Jaro with std::vector<bool> flags: the oracle that
/// both of Jaro's length paths must reproduce bit for bit.
double ReferenceJaro(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const int la = static_cast<int>(a.size());
  const int lb = static_cast<int>(b.size());
  const int match_window = std::max(0, std::max(la, lb) / 2 - 1);
  std::vector<bool> a_matched(a.size(), false);
  std::vector<bool> b_matched(b.size(), false);
  int matches = 0;
  for (int i = 0; i < la; ++i) {
    const int lo = std::max(0, i - match_window);
    const int hi = std::min(lb - 1, i + match_window);
    for (int j = lo; j <= hi; ++j) {
      if (!b_matched[j] && a[i] == b[j]) {
        a_matched[i] = true;
        b_matched[j] = true;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;
  int transpositions = 0;
  int j = 0;
  for (int i = 0; i < la; ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  const double m = matches;
  return (m / la + m / lb + (m - transpositions / 2.0) / m) / 3.0;
}

double ReferenceJaroWinkler(std::string_view a, std::string_view b) {
  const double jaro = ReferenceJaro(a, b);
  int prefix = 0;
  const size_t limit = std::min({a.size(), b.size(), size_t{4}});
  while (static_cast<size_t>(prefix) < limit && a[prefix] == b[prefix]) {
    ++prefix;
  }
  return jaro + prefix * 0.1 * (1.0 - jaro);
}

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

/// `length` bytes over the first `alphabet` lowercase letters, or over all
/// 256 byte values when `alphabet` is 0.
std::string RandomBytes(Rng* rng, size_t length, int alphabet) {
  std::string s(length, '\0');
  for (char& c : s) {
    c = alphabet == 0 ? static_cast<char>(rng->Uniform(256))
                      : static_cast<char>('a' + rng->Uniform(alphabet));
  }
  return s;
}

/// Copies `s` with a few random substitutions, deletions, insertions and
/// adjacent swaps, so pairs also land near the match-window edges.
std::string Mutate(Rng* rng, std::string s, int alphabet) {
  const int edits = static_cast<int>(rng->Uniform(4));
  for (int e = 0; e < edits && !s.empty(); ++e) {
    const size_t at = rng->Uniform(s.size());
    const char c = RandomBytes(rng, 1, alphabet)[0];
    switch (rng->Uniform(4)) {
      case 0: s[at] = c; break;
      case 1: s.erase(at, 1); break;
      case 2: s.insert(s.begin() + static_cast<std::ptrdiff_t>(at), c); break;
      default:
        if (at + 1 < s.size()) std::swap(s[at], s[at + 1]);
        break;
    }
  }
  return s;
}

TEST(JaroOracleTest, MatchesScalarReferenceBitForBit) {
  Rng rng(2009);
  const size_t edges[] = {0, 1, 2, 31, 32, 33, 62, 63, 64, 65, 66, 127, 130};
  const int alphabets[] = {1, 2, 3, 4, 5, 6, 0};
  size_t short_pairs = 0;
  size_t long_pairs = 0;
  auto check = [&](const std::string& a, const std::string& b) {
    const double jaro = Jaro(a, b);
    const double jw = JaroWinkler(a, b);
    ASSERT_TRUE(SameBits(jaro, ReferenceJaro(a, b)))
        << "Jaro |a|=" << a.size() << " |b|=" << b.size() << ": " << jaro
        << " vs " << ReferenceJaro(a, b);
    ASSERT_TRUE(SameBits(jw, ReferenceJaroWinkler(a, b)))
        << "JaroWinkler |a|=" << a.size() << " |b|=" << b.size();
    ++(a.size() <= 64 && b.size() <= 64 ? short_pairs : long_pairs);
  };
  // Every pair of boundary lengths, on every alphabet.
  for (const int alphabet : alphabets) {
    for (const size_t la : edges) {
      for (const size_t lb : edges) {
        for (int rep = 0; rep < 8; ++rep) {
          check(RandomBytes(&rng, la, alphabet),
                RandomBytes(&rng, lb, alphabet));
        }
      }
    }
  }
  // Random lengths 0..130, independent and near-duplicate pairs.
  for (int iter = 0; iter < 60000; ++iter) {
    const int alphabet = alphabets[rng.Uniform(std::size(alphabets))];
    const std::string a = RandomBytes(&rng, rng.Uniform(131), alphabet);
    const std::string b = rng.Bernoulli(0.5)
                              ? Mutate(&rng, a, alphabet)
                              : RandomBytes(&rng, rng.Uniform(131), alphabet);
    check(a, b);
  }
  // Both paths are exercised, including pairs with one long side.
  EXPECT_GT(short_pairs, 10000u);
  EXPECT_GT(long_pairs, 10000u);
}

TEST(LevenshteinTest, KnownValues) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  // kitten -> sitting: distance 3, max length 7.
  EXPECT_NEAR(LevenshteinSimilarity("kitten", "sitting"), 1.0 - 3.0 / 7.0,
              1e-12);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", ""), 0.0);
}

TEST(IsFullNameTest, DetectsInitials) {
  EXPECT_TRUE(IsFullName("Sunita Sarawagi"));
  EXPECT_FALSE(IsFullName("S Sarawagi"));
  EXPECT_FALSE(IsFullName("S. Sarawagi"));
  EXPECT_FALSE(IsFullName(""));
}

class NameSimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Corpus: "sarawagi" rare, "kumar" common.
    docs_ = {
        {"sunita", "sarawagi"}, {"anil", "kumar"},  {"raj", "kumar"},
        {"vijay", "kumar"},     {"deepa", "kumar"}, {"s", "kumar"},
    };
    for (const auto& doc : docs_) {
      std::vector<std::string> words(doc.begin(), doc.end());
      idf_.AddDocument(vocab_.InternSet(words));
    }
    max_idf_ = idf_.Idf(text::kInvalidToken);
  }

  std::vector<std::vector<std::string>> docs_;
  Vocabulary vocab_;
  text::IdfTable idf_;
  double max_idf_ = 0.0;
};

TEST_F(NameSimTest, ExactFullNameMatchScoresOne) {
  EXPECT_DOUBLE_EQ(CustomAuthorSimilarity("Sunita Sarawagi",
                                          "sunita sarawagi", vocab_, idf_,
                                          max_idf_),
                   1.0);
}

TEST_F(NameSimTest, NoCommonWordScoresZero) {
  EXPECT_DOUBLE_EQ(
      CustomAuthorSimilarity("anil kumar", "sunita sarawagi", vocab_, idf_,
                             max_idf_),
      0.0);
}

TEST_F(NameSimTest, RareSharedWordScoresHigherThanCommon) {
  const double rare = CustomAuthorSimilarity("s sarawagi", "sunita sarawagi",
                                             vocab_, idf_, max_idf_);
  const double common =
      CustomAuthorSimilarity("s kumar", "anil kumar", vocab_, idf_, max_idf_);
  EXPECT_GT(rare, common);
  EXPECT_GT(rare, 0.0);
  EXPECT_LE(rare, 1.0);
}

TEST_F(NameSimTest, CoauthorExtremesFollowAuthorSim) {
  // Exact full-name match -> 1, no overlap -> 0.
  EXPECT_DOUBLE_EQ(CustomCoauthorSimilarity("anil kumar", "anil kumar",
                                            vocab_, idf_, max_idf_),
                   1.0);
  EXPECT_DOUBLE_EQ(CustomCoauthorSimilarity("anil kumar", "sunita sarawagi",
                                            vocab_, idf_, max_idf_),
                   0.0);
}

TEST_F(NameSimTest, CoauthorMiddleUsesWordFraction) {
  // Shares "kumar" (1 of min set size 2) -> 0.5 word fraction.
  const double s = CustomCoauthorSimilarity("raj kumar", "vijay kumar",
                                            vocab_, idf_, max_idf_);
  EXPECT_DOUBLE_EQ(s, 0.5);
}

TEST(StopWordTest, RemoveAndOverlap) {
  Vocabulary v;
  auto stops = v.InternSet({"road", "near"});
  auto a = v.InternSet({"shivaji", "road", "kothrud", "near"});
  auto b = v.InternSet({"shivaji", "road", "baner"});
  auto cleaned = RemoveStopWords(a, stops);
  EXPECT_EQ(cleaned.size(), 2u);  // shivaji, kothrud.
  // Overlap: common non-stop = {shivaji}; min size = 2.
  EXPECT_DOUBLE_EQ(NonStopWordOverlap(a, b, stops), 0.5);
}

TEST(MinWordIdfTest, UnseenWordsGetMaxIdf) {
  Vocabulary v;
  text::IdfTable idf;
  for (int i = 0; i < 10; ++i) idf.AddDocument(v.InternSet({"kumar"}));
  const double rare_min = MinWordIdf("zyxwv", v, idf);
  const double common_min = MinWordIdf("kumar zyxwv", v, idf);
  EXPECT_GT(rare_min, common_min);
}

}  // namespace
}  // namespace topkdup::sim
