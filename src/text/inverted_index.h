#ifndef TOPKDUP_TEXT_INVERTED_INDEX_H_
#define TOPKDUP_TEXT_INVERTED_INDEX_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "text/vocab.h"

namespace topkdup::text {

/// Inverted index from token id to the (sorted) list of item ids whose
/// signature set contains the token. An appendable index for the streaming
/// sufficient-predicate collapse (dedup/streaming_collapse.h), whose items
/// arrive one at a time. Blocked predicate evaluation over a fixed item
/// set goes through predicates::BlockedIndex instead; neither ever
/// enumerates a Cartesian product.
class InvertedIndex {
 public:
  InvertedIndex() = default;

  /// Inserts an item with the given sorted signature set. Item ids must be
  /// inserted in increasing order (posting lists then stay sorted for free).
  void Add(int64_t item_id, const std::vector<TokenId>& signature);

  /// Invokes `fn(other_id, common)` for every previously *or* subsequently
  /// added item (other than `item_id` itself) sharing at least `min_common`
  /// signature tokens with `signature`; `common` is the exact number of
  /// shared tokens. Each qualifying item is reported exactly once.
  void ForEachCandidate(
      int64_t item_id, const std::vector<TokenId>& signature, int min_common,
      const std::function<void(int64_t other_id, int common)>& fn) const;

  /// Number of postings of a token (0 when unseen).
  size_t PostingSize(TokenId id) const;

  size_t item_count() const { return item_count_; }

 private:
  std::vector<std::vector<int64_t>> postings_;
  size_t item_count_ = 0;
};

}  // namespace topkdup::text

#endif  // TOPKDUP_TEXT_INVERTED_INDEX_H_
