#include "predicates/generic.h"

#include <algorithm>

#include "common/check.h"
#include "common/strings.h"
#include "text/tokenize.h"

namespace topkdup::predicates {

bool HasCommonInitial(const std::string& a, const std::string& b) {
  for (char ca : a) {
    if (b.find(ca) != std::string::npos) return true;
  }
  return false;
}

ExactFieldsPredicate::ExactFieldsPredicate(const Corpus* corpus,
                                           std::vector<int> fields)
    : corpus_(corpus), fields_(std::move(fields)) {
  TOPKDUP_CHECK(!fields_.empty());
  name_ = "ExactFields";
  signatures_.resize(corpus_->size());
  for (size_t r = 0; r < corpus_->size(); ++r) {
    std::string key;
    for (int f : fields_) {
      key.append(text::NormalizeText(corpus_->data()[r].field(f)));
      key.push_back('\x1f');
    }
    signatures_[r].push_back(key_vocab_.GetOrAdd(key));
  }
}

bool ExactFieldsPredicate::Evaluate(size_t a, size_t b) const {
  // The signature token *is* the full normalized key, so equality of the
  // single-token signatures decides the predicate.
  return signatures_[a][0] == signatures_[b][0];
}

QGramOverlapPredicate::QGramOverlapPredicate(const Corpus* corpus, int field,
                                             double min_fraction,
                                             bool require_common_initial)
    : corpus_(corpus),
      field_(field),
      min_fraction_(min_fraction),
      require_common_initial_(require_common_initial) {
  TOPKDUP_CHECK(min_fraction_ > 0.0 && min_fraction_ <= 1.0);
  name_ = StrFormat("QGramOverlap(f=%d,frac=%.2f%s)", field, min_fraction,
                    require_common_initial ? ",initial" : "");
}

const std::vector<text::TokenId>& QGramOverlapPredicate::Signature(
    size_t rec) const {
  return corpus_->QGramSet(rec, field_);
}

int QGramOverlapPredicate::MinCommon(size_t size_a, size_t size_b) const {
  return MinCommonForFraction(min_fraction_, std::min(size_a, size_b));
}

bool QGramOverlapPredicate::Evaluate(size_t a, size_t b) const {
  const auto& ga = corpus_->QGramSet(a, field_);
  const auto& gb = corpus_->QGramSet(b, field_);
  if (ga.empty() || gb.empty()) return false;
  const int common = text::SortedIntersectionSize(ga, gb);
  const double frac = static_cast<double>(common) /
                      static_cast<double>(std::min(ga.size(), gb.size()));
  if (frac < min_fraction_) return false;
  if (require_common_initial_ &&
      !HasCommonInitial(corpus_->InitialsOf(a, field_),
                        corpus_->InitialsOf(b, field_))) {
    return false;
  }
  return true;
}

CommonWordsPredicate::CommonWordsPredicate(const Corpus* corpus,
                                           std::vector<int> fields,
                                           int min_common)
    : corpus_(corpus), fields_(std::move(fields)), min_common_(min_common) {
  TOPKDUP_CHECK(!fields_.empty());
  TOPKDUP_CHECK(min_common_ >= 1);
  name_ = StrFormat("CommonWords(min=%d)", min_common);
  signatures_.resize(corpus_->size());
  for (size_t r = 0; r < corpus_->size(); ++r) {
    std::vector<text::TokenId> all;
    for (int f : fields_) {
      const auto& ws = corpus_->NonStopWordSet(r, f);
      all.insert(all.end(), ws.begin(), ws.end());
    }
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    signatures_[r] = std::move(all);
  }
}

bool CommonWordsPredicate::Evaluate(size_t a, size_t b) const {
  return text::SortedIntersectionSize(signatures_[a], signatures_[b]) >=
         min_common_;
}

}  // namespace topkdup::predicates
