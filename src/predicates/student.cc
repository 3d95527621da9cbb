#include "predicates/student.h"

#include <algorithm>

#include "text/tokenize.h"

namespace topkdup::predicates {

namespace {

std::string JoinFields(const record::Record& rec,
                       std::initializer_list<int> fields) {
  std::string key;
  for (int f : fields) {
    key.append(text::NormalizeText(rec.field(f)));
    key.push_back('\x1f');
  }
  return key;
}

}  // namespace

StudentS1::StudentS1(const Corpus* corpus, StudentFields fields) {
  signatures_.resize(corpus->size());
  for (size_t r = 0; r < corpus->size(); ++r) {
    const std::string key =
        JoinFields(corpus->data()[r], {fields.name, fields.class_code,
                                       fields.school_code, fields.birth_date});
    signatures_[r].push_back(key_vocab_.GetOrAdd(key));
  }
}

bool StudentS1::Evaluate(size_t a, size_t b) const {
  return signatures_[a][0] == signatures_[b][0];
}

StudentS2::StudentS2(const Corpus* corpus, StudentFields fields,
                     double min_name_gram_overlap)
    : corpus_(corpus),
      fields_(fields),
      min_name_gram_overlap_(min_name_gram_overlap) {
  signatures_.resize(corpus->size());
  for (size_t r = 0; r < corpus->size(); ++r) {
    const std::string key =
        JoinFields(corpus->data()[r], {fields.class_code, fields.school_code,
                                       fields.birth_date});
    signatures_[r].push_back(key_vocab_.GetOrAdd(key));
  }
}

bool StudentS2::Evaluate(size_t a, size_t b) const {
  if (signatures_[a][0] != signatures_[b][0]) return false;
  const auto& ga = corpus_->QGramSet(a, fields_.name);
  const auto& gb = corpus_->QGramSet(b, fields_.name);
  if (ga.empty() || gb.empty()) return false;
  const int common = text::SortedIntersectionSize(ga, gb);
  const double frac = static_cast<double>(common) /
                      static_cast<double>(std::min(ga.size(), gb.size()));
  return frac >= min_name_gram_overlap_;
}

StudentN1::StudentN1(const Corpus* corpus, StudentFields fields)
    : corpus_(corpus), fields_(fields) {
  signatures_.resize(corpus->size());
  for (size_t r = 0; r < corpus->size(); ++r) {
    const std::string base =
        JoinFields(corpus->data()[r], {fields.class_code, fields.school_code});
    std::string initials = corpus->InitialsOf(r, fields.name);
    std::sort(initials.begin(), initials.end());
    initials.erase(std::unique(initials.begin(), initials.end()),
                   initials.end());
    for (char c : initials) {
      signatures_[r].push_back(key_vocab_.GetOrAdd(base + c));
    }
    std::sort(signatures_[r].begin(), signatures_[r].end());
  }
}

bool StudentN1::Evaluate(size_t a, size_t b) const {
  // Sharing any composite token means class and school match and there is
  // a common initial, which is exactly the predicate.
  return text::SortedIntersectionSize(signatures_[a], signatures_[b]) >= 1;
}

StudentN2::StudentN2(const Corpus* corpus, StudentFields fields,
                     double min_gram_fraction)
    : corpus_(corpus),
      fields_(fields),
      min_gram_fraction_(min_gram_fraction) {
  signatures_.resize(corpus->size());
  for (size_t r = 0; r < corpus->size(); ++r) {
    const std::string base =
        JoinFields(corpus->data()[r], {fields.class_code, fields.school_code});
    for (text::TokenId g : corpus->QGramSet(r, fields.name)) {
      signatures_[r].push_back(
          key_vocab_.GetOrAdd(base + std::to_string(g)));
    }
    std::sort(signatures_[r].begin(), signatures_[r].end());
    signatures_[r].erase(
        std::unique(signatures_[r].begin(), signatures_[r].end()),
        signatures_[r].end());
  }
}

int StudentN2::MinCommon(size_t size_a, size_t size_b) const {
  return MinCommonForFraction(min_gram_fraction_, std::min(size_a, size_b));
}

bool StudentN2::Evaluate(size_t a, size_t b) const {
  if (signatures_[a].empty() || signatures_[b].empty()) return false;
  const int common =
      text::SortedIntersectionSize(signatures_[a], signatures_[b]);
  const double frac =
      static_cast<double>(common) /
      static_cast<double>(std::min(signatures_[a].size(),
                                   signatures_[b].size()));
  return frac >= min_gram_fraction_;
}

}  // namespace topkdup::predicates
