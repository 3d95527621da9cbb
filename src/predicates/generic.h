#ifndef TOPKDUP_PREDICATES_GENERIC_H_
#define TOPKDUP_PREDICATES_GENERIC_H_

#include <string>
#include <vector>

#include "predicates/corpus.h"
#include "predicates/pair_predicate.h"

namespace topkdup::predicates {

/// Sufficient-style predicate: true iff all the given fields match exactly
/// after whitespace/case normalization. Blocks on one composite key token.
class ExactFieldsPredicate : public PairPredicate {
 public:
  /// `fields` are schema field indices; must be non-empty.
  ExactFieldsPredicate(const Corpus* corpus, std::vector<int> fields);

  std::string_view name() const override { return name_; }
  bool Evaluate(size_t a, size_t b) const override;
  const std::vector<text::TokenId>& Signature(size_t rec) const override {
    return signatures_[rec];
  }
  /// The one signature token is the whole key: equal tokens, equal keys.
  bool BlockingIsExact() const override { return true; }

 private:
  const Corpus* corpus_;
  std::vector<int> fields_;
  std::string name_;
  text::Vocabulary key_vocab_;
  std::vector<std::vector<text::TokenId>> signatures_;
};

/// Necessary-style predicate: true iff the q-gram overlap fraction of one
/// field (relative to the smaller q-gram set) is at least `min_fraction`.
/// Optionally additionally requires at least one shared initial character.
class QGramOverlapPredicate : public PairPredicate {
 public:
  QGramOverlapPredicate(const Corpus* corpus, int field, double min_fraction,
                        bool require_common_initial = false);

  std::string_view name() const override { return name_; }
  bool Evaluate(size_t a, size_t b) const override;
  const std::vector<text::TokenId>& Signature(size_t rec) const override;
  int MinCommon(size_t size_a, size_t size_b) const override;
  /// The overlap test is exactly "at least MinCommon shared q-grams"; the
  /// initial rule is a second test the signatures do not see.
  bool BlockingIsExact() const override { return !require_common_initial_; }

 private:
  const Corpus* corpus_;
  int field_;
  double min_fraction_;
  bool require_common_initial_;
  std::string name_;
};

/// Necessary-style predicate: true iff two records share at least
/// `min_common` word tokens across the union of the given fields
/// (stop words removed).
class CommonWordsPredicate : public PairPredicate {
 public:
  CommonWordsPredicate(const Corpus* corpus, std::vector<int> fields,
                       int min_common);

  std::string_view name() const override { return name_; }
  bool Evaluate(size_t a, size_t b) const override;
  const std::vector<text::TokenId>& Signature(size_t rec) const override {
    return signatures_[rec];
  }
  int MinCommon(size_t size_a, size_t size_b) const override {
    return min_common_;
  }
  bool BlockingIsExact() const override { return true; }

 private:
  const Corpus* corpus_;
  std::vector<int> fields_;
  int min_common_;
  std::string name_;
  std::vector<std::vector<text::TokenId>> signatures_;
};

/// True iff two initials strings share at least one character.
bool HasCommonInitial(const std::string& a, const std::string& b);

}  // namespace topkdup::predicates

#endif  // TOPKDUP_PREDICATES_GENERIC_H_
