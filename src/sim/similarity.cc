#include "sim/similarity.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace topkdup::sim {

double Jaccard(const std::vector<text::TokenId>& a,
               const std::vector<text::TokenId>& b) {
  if (a.empty() && b.empty()) return 1.0;
  const int common = text::SortedIntersectionSize(a, b);
  const double uni = static_cast<double>(a.size() + b.size() - common);
  return uni == 0.0 ? 1.0 : static_cast<double>(common) / uni;
}

double OverlapFraction(const std::vector<text::TokenId>& a,
                       const std::vector<text::TokenId>& b) {
  if (a.empty() || b.empty()) return 1.0;
  const int common = text::SortedIntersectionSize(a, b);
  return static_cast<double>(common) /
         static_cast<double>(std::min(a.size(), b.size()));
}

double CosineTfIdf(const std::vector<text::TokenId>& a,
                   const std::vector<text::TokenId>& b,
                   const text::IdfTable& idf) {
  if (a.empty() || b.empty()) return 0.0;
  double dot = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      const double w = idf.Idf(a[i]);
      dot += w * w;
      ++i;
      ++j;
    }
  }
  double norm_a = 0.0;
  for (text::TokenId t : a) {
    const double w = idf.Idf(t);
    norm_a += w * w;
  }
  double norm_b = 0.0;
  for (text::TokenId t : b) {
    const double w = idf.Idf(t);
    norm_b += w * w;
  }
  const double denom = std::sqrt(norm_a) * std::sqrt(norm_b);
  return denom == 0.0 ? 0.0 : dot / denom;
}

namespace {

/// Jaro's formula from the match and transposition counts.
double JaroScore(int matches, int transpositions, int la, int lb) {
  const double m = matches;
  return (m / la + m / lb + (m - transpositions / 2.0) / m) / 3.0;
}

/// Bit-parallel Jaro for |a|, |b| <= 64. pm[c] holds the positions of byte
/// c in b; for a[i] the candidates are pm[a[i]] within the match window and
/// not yet matched, and the lowest of them is the scalar loop's choice (the
/// first unmatched equal j in the window). Matches, transpositions and the
/// formula are therefore the scalar ones, and so is every result bit.
double JaroShort(std::string_view a, std::string_view b, int window) {
  const int la = static_cast<int>(a.size());
  const int lb = static_cast<int>(b.size());
  // Only the entries of bytes in a or b are read, so only those are
  // cleared: a full 2 KB clear per pair is a visible share of a query that
  // scores millions of pairs.
  uint64_t pm[256];
  for (const char c : a) pm[static_cast<unsigned char>(c)] = 0;
  for (const char c : b) pm[static_cast<unsigned char>(c)] = 0;
  for (int j = 0; j < lb; ++j) {
    pm[static_cast<unsigned char>(b[j])] |= uint64_t{1} << j;
  }
  uint64_t a_matched = 0;
  uint64_t b_matched = 0;
  for (int i = 0; i < la; ++i) {
    const int lo = std::max(0, i - window);
    const int hi = std::min(lb - 1, i + window);
    if (lo > hi) break;  // Windows only move right; b is exhausted.
    const int width = hi - lo + 1;
    const uint64_t in_window =
        (width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1) << lo;
    const uint64_t cand =
        pm[static_cast<unsigned char>(a[i])] & in_window & ~b_matched;
    if (cand == 0) continue;
    b_matched |= cand & (~cand + 1);  // Lowest set bit.
    a_matched |= uint64_t{1} << i;
  }
  const int matches = std::popcount(a_matched);
  if (matches == 0) return 0.0;

  // The k-th matched character of a pairs with the k-th matched one of b.
  int transpositions = 0;
  for (uint64_t am = a_matched, bm = b_matched; am != 0;
       am &= am - 1, bm &= bm - 1) {
    if (a[std::countr_zero(am)] != b[std::countr_zero(bm)]) ++transpositions;
  }
  return JaroScore(matches, transpositions, la, lb);
}

/// The scalar Jaro loop, the only path for strings longer than 64 bytes.
double JaroLong(std::string_view a, std::string_view b, int window) {
  const int la = static_cast<int>(a.size());
  const int lb = static_cast<int>(b.size());
  std::vector<uint8_t> a_matched(a.size(), 0);
  std::vector<uint8_t> b_matched(b.size(), 0);
  int matches = 0;
  for (int i = 0; i < la; ++i) {
    const int lo = std::max(0, i - window);
    const int hi = std::min(lb - 1, i + window);
    for (int j = lo; j <= hi; ++j) {
      if (!b_matched[j] && a[i] == b[j]) {
        a_matched[i] = 1;
        b_matched[j] = 1;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;

  // Count transpositions among the matched characters in order.
  int transpositions = 0;
  int j = 0;
  for (int i = 0; i < la; ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  return JaroScore(matches, transpositions, la, lb);
}

}  // namespace

double Jaro(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const int la = static_cast<int>(a.size());
  const int lb = static_cast<int>(b.size());
  const int window = std::max(0, std::max(la, lb) / 2 - 1);
  return la <= 64 && lb <= 64 ? JaroShort(a, b, window)
                              : JaroLong(a, b, window);
}

double JaroWinkler(std::string_view a, std::string_view b) {
  const double jaro = Jaro(a, b);
  int prefix = 0;
  const size_t limit = std::min({a.size(), b.size(), size_t{4}});
  while (static_cast<size_t>(prefix) < limit &&
         a[prefix] == b[prefix]) {
    ++prefix;
  }
  return jaro + prefix * 0.1 * (1.0 - jaro);
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.size() < b.size()) std::swap(a, b);
  // b is now the shorter string; roll a single row.
  std::vector<int> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = static_cast<int>(j);
  for (size_t i = 1; i <= a.size(); ++i) {
    int diag = row[0];
    row[0] = static_cast<int>(i);
    for (size_t j = 1; j <= b.size(); ++j) {
      const int sub = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, sub});
    }
  }
  const double dist = row[b.size()];
  return 1.0 - dist / static_cast<double>(a.size());
}

}  // namespace topkdup::sim
