#ifndef TOPKDUP_PREDICATES_ADDRESS_H_
#define TOPKDUP_PREDICATES_ADDRESS_H_

#include <string>
#include <vector>

#include "predicates/corpus.h"
#include "predicates/pair_predicate.h"

namespace topkdup::predicates {

/// Field layout of the address dataset (paper §6.1.3).
struct AddressFields {
  int name = 0;
  int address = 1;
  int pin = 2;
};

/// Sufficient predicate S1 (§6.1.3): name initials match exactly, the
/// fraction of common non-stop name words is > 0.7, and the fraction of
/// matching non-stop address words is >= 0.6 (fractions relative to the
/// smaller set). Blocks on non-stop name words.
class AddressS1 : public PairPredicate {
 public:
  AddressS1(const Corpus* corpus, AddressFields fields,
            double min_name_overlap = 0.7, double min_address_overlap = 0.6);

  std::string_view name() const override { return "Address-S1"; }
  bool Evaluate(size_t a, size_t b) const override;
  const std::vector<text::TokenId>& Signature(size_t rec) const override;
  int MinCommon(size_t size_a, size_t size_b) const override;

 private:
  const Corpus* corpus_;
  AddressFields fields_;
  double min_name_overlap_;
  double min_address_overlap_;
};

/// Necessary predicate N1 (§6.1.3): at least `min_common` (default 4)
/// common non-stop words in the concatenation of name and address.
/// This is CommonWordsPredicate specialized to the paper's field pair; the
/// alias keeps bench/test code close to the paper's terminology.
class AddressN1 : public PairPredicate {
 public:
  AddressN1(const Corpus* corpus, AddressFields fields, int min_common = 4);

  std::string_view name() const override { return "Address-N1"; }
  bool Evaluate(size_t a, size_t b) const override;
  const std::vector<text::TokenId>& Signature(size_t rec) const override {
    return signatures_[rec];
  }
  int MinCommon(size_t size_a, size_t size_b) const override {
    return min_common_;
  }
  bool BlockingIsExact() const override { return true; }

 private:
  int min_common_;
  std::vector<std::vector<text::TokenId>> signatures_;
};

}  // namespace topkdup::predicates

#endif  // TOPKDUP_PREDICATES_ADDRESS_H_
