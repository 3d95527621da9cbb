#ifndef TOPKDUP_SIM_SIMILARITY_H_
#define TOPKDUP_SIM_SIMILARITY_H_

#include <string_view>
#include <vector>

#include "text/vocab.h"

namespace topkdup::sim {

/// Jaccard similarity |a ∩ b| / |a ∪ b| of two sorted token-id sets.
/// Returns 1.0 when both sets are empty.
double Jaccard(const std::vector<text::TokenId>& a,
               const std::vector<text::TokenId>& b);

/// Overlap fraction |a ∩ b| / min(|a|, |b|). Returns 1.0 when either set is
/// empty ("no evidence against a match"), matching the convention of
/// canopy-style overlap predicates.
double OverlapFraction(const std::vector<text::TokenId>& a,
                       const std::vector<text::TokenId>& b);

/// Cosine similarity under TF-IDF weights with binary term frequency:
/// sum of idf(t)^2 over common tokens, normalized by the vector norms.
double CosineTfIdf(const std::vector<text::TokenId>& a,
                   const std::vector<text::TokenId>& b,
                   const text::IdfTable& idf);

/// Classic Jaro similarity in [0, 1], over bytes. Strings of at most 64
/// bytes each take a bit-parallel kernel, longer ones the scalar loop; both
/// pick the same matches, so the result does not depend on the path.
double Jaro(std::string_view a, std::string_view b);

/// Jaro-Winkler similarity with the standard prefix scale 0.1 and prefix
/// length capped at 4 — "an efficient approximation of edit distance
/// specifically tailored for names" (paper §6.1.1).
double JaroWinkler(std::string_view a, std::string_view b);

/// Normalized Levenshtein similarity 1 - dist / max(|a|, |b|); 1.0 for two
/// empty strings. O(|a| * |b|) with O(min) memory.
double LevenshteinSimilarity(std::string_view a, std::string_view b);

}  // namespace topkdup::sim

#endif  // TOPKDUP_SIM_SIMILARITY_H_
