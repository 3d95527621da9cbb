#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"

#include "text/inverted_index.h"
#include "text/tokenize.h"
#include "text/vocab.h"

namespace topkdup::text {
namespace {

TEST(TokenizeTest, WordTokensLowercaseAndSplit) {
  auto words = WordTokens("M. Stonebraker-Jr  III");
  ASSERT_EQ(words.size(), 4u);
  EXPECT_EQ(words[0], "m");
  EXPECT_EQ(words[1], "stonebraker");
  EXPECT_EQ(words[2], "jr");
  EXPECT_EQ(words[3], "iii");
}

TEST(TokenizeTest, WordTokensEmpty) {
  EXPECT_TRUE(WordTokens("").empty());
  EXPECT_TRUE(WordTokens(" .,;- ").empty());
}

TEST(TokenizeTest, QGramsPadded) {
  auto grams = QGrams("ab", 3);
  // padded: "##ab##" -> ##a, #ab, ab#, b##
  ASSERT_EQ(grams.size(), 4u);
  EXPECT_EQ(grams[0], "##a");
  EXPECT_EQ(grams[1], "#ab");
  EXPECT_EQ(grams[2], "ab#");
  EXPECT_EQ(grams[3], "b##");
}

TEST(TokenizeTest, QGramsEmptyInput) {
  EXPECT_TRUE(QGrams("", 3).empty());
  EXPECT_TRUE(QGrams("   ", 3).empty());
}

TEST(TokenizeTest, QGramsNormalizesCaseAndSpace) {
  EXPECT_EQ(QGrams("A  B", 2), QGrams("a b", 2));
}

TEST(TokenizeTest, UnigramsAreCharacters) {
  auto grams = QGrams("abc", 1);
  ASSERT_EQ(grams.size(), 3u);
  EXPECT_EQ(grams[0], "a");
}

TEST(TokenizeTest, Initials) {
  EXPECT_EQ(Initials("Sunita  Sarawagi"), "ss");
  EXPECT_EQ(Initials("Vinay S Deshpande"), "vsd");
  EXPECT_EQ(Initials(""), "");
}

TEST(TokenizeTest, SortedInitials) {
  EXPECT_EQ(SortedInitials("Vinay S Deshpande"), "dsv");
}

TEST(TokenizeTest, NormalizeText) {
  EXPECT_EQ(NormalizeText("  A  b\tC "), "a b c");
  EXPECT_EQ(NormalizeText(""), "");
}

/// The <cctype> versions the locale-free kernels replace; the test binary
/// never calls setlocale, so these use the C locale's classes.
std::string ReferenceNormalizeText(std::string_view s) {
  std::string out;
  bool pending_space = false;
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!out.empty()) pending_space = true;
    } else {
      if (pending_space) {
        out.push_back(' ');
        pending_space = false;
      }
      out.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
  }
  return out;
}

std::vector<std::string> ReferenceWordTokens(std::string_view s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      cur.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!cur.empty()) {
      out.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

TEST(TokenizeOracleTest, EveryByteMatchesCctype) {
  for (int v = 0; v < 256; ++v) {
    const char c = static_cast<char>(v);
    // Alone, and between word characters and spaces.
    for (const std::string& s :
         {std::string(1, c), "Ab" + std::string(1, c) + "cD",
          " x" + std::string(1, c) + std::string(1, c) + "Y "}) {
      EXPECT_EQ(NormalizeText(s), ReferenceNormalizeText(s)) << "byte " << v;
      EXPECT_EQ(WordTokens(s), ReferenceWordTokens(s)) << "byte " << v;
    }
  }
}

TEST(TokenizeOracleTest, RandomMixedWhitespaceMatchesCctype) {
  // Mostly whitespace runs, case, digits and punctuation, plus any byte.
  const std::string pool = " \t\n\v\f\r  AbZz09-.'";
  Rng rng(77);
  for (int iter = 0; iter < 20000; ++iter) {
    std::string s(rng.Uniform(40), '\0');
    for (char& c : s) {
      c = rng.Bernoulli(0.9) ? pool[rng.Uniform(pool.size())]
                             : static_cast<char>(rng.Uniform(256));
    }
    ASSERT_EQ(NormalizeText(s), ReferenceNormalizeText(s));
    ASSERT_EQ(WordTokens(s), ReferenceWordTokens(s));
  }
}

TEST(VocabTest, InternAssignsStableIds) {
  Vocabulary v;
  TokenId a = v.GetOrAdd("alpha");
  TokenId b = v.GetOrAdd("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(v.GetOrAdd("alpha"), a);
  EXPECT_EQ(v.Find("beta"), b);
  EXPECT_EQ(v.Find("gamma"), kInvalidToken);
  EXPECT_EQ(v.TokenString(a), "alpha");
  EXPECT_EQ(v.size(), 2u);
}

TEST(VocabTest, InternSetSortsAndDedupes) {
  Vocabulary v;
  auto ids = v.InternSet({"b", "a", "b", "c", "a"});
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
}

TEST(IdfTest, RareTokensWeighMore) {
  Vocabulary v;
  IdfTable idf;
  TokenId common = v.GetOrAdd("the");
  TokenId rare = v.GetOrAdd("sarawagi");
  for (int i = 0; i < 99; ++i) idf.AddDocument({common});
  idf.AddDocument({common, rare});
  EXPECT_EQ(idf.document_count(), 100);
  EXPECT_EQ(idf.DocumentFrequency(common), 100);
  EXPECT_EQ(idf.DocumentFrequency(rare), 1);
  EXPECT_GT(idf.Idf(rare), idf.Idf(common));
  // Unseen tokens get the maximal weight.
  EXPECT_GE(idf.Idf(kInvalidToken), idf.Idf(rare));
}

TEST(IntersectionTest, SortedIntersectionSize) {
  EXPECT_EQ(SortedIntersectionSize({1, 3, 5, 7}, {2, 3, 4, 5}), 2);
  EXPECT_EQ(SortedIntersectionSize({}, {1}), 0);
  EXPECT_EQ(SortedIntersectionSize({1, 2}, {1, 2}), 2);
}

TEST(InvertedIndexTest, FindsCandidatesWithCommonCounts) {
  Vocabulary v;
  InvertedIndex index;
  auto s0 = v.InternSet({"a", "b", "c"});
  auto s1 = v.InternSet({"b", "c", "d"});
  auto s2 = v.InternSet({"x", "y"});
  index.Add(0, s0);
  index.Add(1, s1);
  index.Add(2, s2);

  std::set<std::pair<int64_t, int>> found;
  index.ForEachCandidate(0, s0, 1, [&](int64_t other, int common) {
    found.insert({other, common});
  });
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(found.count({1, 2}) == 1);

  found.clear();
  index.ForEachCandidate(2, s2, 1, [&](int64_t other, int common) {
    found.insert({other, common});
  });
  EXPECT_TRUE(found.empty());
}

TEST(InvertedIndexTest, MinCommonFilters) {
  Vocabulary v;
  InvertedIndex index;
  auto s0 = v.InternSet({"a", "b", "c"});
  auto s1 = v.InternSet({"a", "z"});
  index.Add(0, s0);
  index.Add(1, s1);
  int calls = 0;
  index.ForEachCandidate(0, s0, 2,
                         [&](int64_t, int) { ++calls; });
  EXPECT_EQ(calls, 0);
  index.ForEachCandidate(0, s0, 1,
                         [&](int64_t, int) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(InvertedIndexTest, PostingSize) {
  Vocabulary v;
  InvertedIndex index;
  auto s0 = v.InternSet({"a"});
  auto s1 = v.InternSet({"a", "b"});
  index.Add(0, s0);
  index.Add(1, s1);
  EXPECT_EQ(index.PostingSize(v.Find("a")), 2u);
  EXPECT_EQ(index.PostingSize(v.Find("b")), 1u);
  EXPECT_EQ(index.PostingSize(kInvalidToken), 0u);
  EXPECT_EQ(index.item_count(), 2u);
}

}  // namespace
}  // namespace topkdup::text
