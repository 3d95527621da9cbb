#ifndef TOPKDUP_PREDICATES_BLOCKED_INDEX_H_
#define TOPKDUP_PREDICATES_BLOCKED_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/function_ref.h"
#include "predicates/pair_predicate.h"

namespace topkdup::predicates {

/// Immutable, compressed, skip-capable inverted index over the blocking
/// signatures of a set of items (record ids), used to enumerate candidate
/// pairs for one predicate without a Cartesian product.
///
/// Items are addressed by *position* 0..items.size()-1; the caller maps
/// positions back to record ids. Internally the index reorders items by
/// signature locality (items with equal or similar signatures become
/// adjacent), which keeps the delta-encoded posting lists small and the
/// per-block signature-size ranges tight; every position a query sees or
/// emits is still the caller's original position.
///
/// Each posting list is stored as varint-encoded (token rank, position)
/// pairs in blocks of at most kBlockSize postings, with per-block metadata
/// (min/max member signature size, min member token rank, byte extent).
/// Because
/// items are ordered by signature size, each size class z is one
/// contiguous position range, and enumeration runs per admissible class
/// with that class's uniform threshold thr(z) = MinCommon(|query sig|, z),
/// skipping whole blocks that cannot contain a qualifying candidate:
///
///   * Blocks never span two classes, and a list's blocks are ordered by
///     class, so each list is a run of class segments. A probe walks each
///     query list once, galloping a cursor from one admissible class's
///     segment to the next. A cursor waits in a bucket queue indexed by
///     the class of its next segment, so each class, taken in ascending
///     order, visits exactly the lists with a segment in it. A probe's
///     fixed cost therefore grows with the admissible classes plus the
///     (list, class) segments that exist, not with admissible classes
///     times query lists, and blocks outside class z are never decoded
///     while class z is enumerated.
///   * If fewer than thr(z) lists have a class-z segment, the class is
///     skipped without reading more metadata; otherwise a metadata pass
///     sizes each segment.
///   * Candidates are generated either from the L_z - thr(z) + 1 lists
///     with the SMALLEST class segments (a qualifying candidate appears
///     in at least one of them) or, when the metadata predicts it is
///     cheaper, from the positional prefix: the query's first
///     |query sig| - thr(z) + 1 tokens, decoding only the segment blocks
///     whose min_rank (found by binary search) is at most z - thr(z).
///   * Classes whose threshold exceeds min(|query sig|, z) or the number
///     of non-empty query lists are skipped outright (the paper's size
///     filters, e.g. CitationS1's equal-set blocking, make this decisive).
///
/// Only candidates the generating lists counted fewer than thr(z) times
/// are verified, by a direct merge of the two sorted signatures with early
/// accept/reject. Both signatures come from the index's own contiguous
/// copy of every item's signature, stored in internal order; verification
/// never calls back into the predicate and never decodes a posting.
///
/// The candidate *set* enumerated at every MinCommon threshold is exactly
/// the set an uncompressed full scan produces; only the enumeration order
/// (deterministic, but unspecified) and the decoded-posting work differ.
///
/// The index is immutable after construction; queries write only into a
/// caller-supplied QueryScratch, so concurrent queries with distinct
/// scratches are safe (the parallel collapse/prune paths rely on this).
/// It lives only in memory, over the item set of the query that built it.
class BlockedIndex {
 public:
  static constexpr size_t kBlockSize = 128;
  /// "None" in QueryScratch: no size class in next_admissible, no cursor
  /// in class_bucket and ListCursor::next.
  static constexpr uint32_t kNoClass = UINT32_MAX;

  /// Per-caller query workspace. Reuse across queries to avoid
  /// reallocation; one scratch must not be shared between threads.
  struct QueryScratch {
    std::vector<int> counts;        // Zero outside a query.
    std::vector<uint32_t> touched;  // Internal positions dirtied.
    // Tables for the cached query signature size, indexed by size z up to
    // the index's largest: thr[z] is MinCommon(sig, z) for admissible
    // sizes z, kInadmissible otherwise; next_admissible[z] is the smallest
    // admissible size >= z, or kNoClass (one entry past the largest size,
    // so next_admissible[z + 1] is always defined).
    std::vector<int> thresholds;
    std::vector<uint32_t> next_admissible;
    size_t cached_sig_size = static_cast<size_t>(-1);
    const void* cached_pred = nullptr;
    // Decode workspace for the counting pass's current block.
    std::vector<uint32_t> decode_buf;
    // A query list's cursor over its class segments: the list's token, the
    // token's index within the query signature (it drives the query-side
    // prefix filter), the list's block count, the block range of the
    // segment the cursor stands on, relative to the list's first block,
    // and the next cursor waiting in the same class bucket.
    struct ListCursor {
      uint32_t token;
      uint32_t sig_idx;
      uint32_t block_count;
      uint32_t seg_begin;
      uint32_t seg_end;
      uint32_t next;
    };
    std::vector<ListCursor> cursors;
    // Bucket queue by class: class_bucket[z] is the first cursor standing
    // on a class-z segment, or kNoClass. Empty outside a probe.
    std::vector<uint32_t> class_bucket;
    // Per-class view of a query list: the block range holding the class's
    // segment, its posting count, and the rank-filtered prefix of it
    // (metadata only; nothing is decoded to build these).
    struct ClassListRef {
      uint32_t token;
      uint32_t sig_idx;       // Token's index in the query signature.
      uint32_t seg_count;     // Postings in the class segment.
      uint32_t pref_count;    // Postings in blocks with min_rank <= z-thr.
      uint32_t block_begin;   // Relative to the list's first block.
      uint32_t block_end;
      uint32_t pref_end;      // End of the rank-filtered block prefix.
    };
    std::vector<ClassListRef> class_lists;
  };

  /// Indexes the signatures of `items` under `pred`. `pred` and the corpus
  /// behind it must outlive the index.
  BlockedIndex(const PairPredicate& pred, std::vector<size_t> items);

  BlockedIndex(const BlockedIndex&) = delete;
  BlockedIndex& operator=(const BlockedIndex&) = delete;
  // Out of line: MemoState is incomplete here.
  BlockedIndex(BlockedIndex&&) noexcept;
  BlockedIndex& operator=(BlockedIndex&&) noexcept;
  ~BlockedIndex();

  /// Calls `fn(position)` for every other item position whose signature
  /// shares at least MinCommon tokens with item `pos`'s signature. Does NOT
  /// evaluate the predicate. Enumeration order is deterministic but
  /// unspecified. If `fn` returns false the scan stops early.
  template <typename Fn>
  void ForEachCandidate(size_t pos, QueryScratch* scratch, Fn&& fn) const {
    ForEachCandidateImpl(pos, /*later_only=*/false, scratch,
                         FunctionRef<bool(size_t)>(fn));
  }

  /// Convenience overload with a transient scratch; fine for one-off
  /// queries, use the explicit-scratch form in loops.
  template <typename Fn>
  void ForEachCandidate(size_t pos, Fn&& fn) const {
    QueryScratch scratch;
    ForEachCandidateImpl(pos, /*later_only=*/false, &scratch,
                         FunctionRef<bool(size_t)>(fn));
  }

  /// Calls `fn(p, q)` (p < q) for every unordered candidate pair, i.e.
  /// every pair passing the blocking filter, restricted to first elements
  /// p in [begin, end). Predicate evaluation is left to the caller. The
  /// parallel pipelines call this per shard with per-shard scratches.
  /// For each p the pairs come in ForEachCandidate(p)'s order, and each
  /// unordered pair is verified and counted once: candidates q <= p are
  /// dropped before verification, so the `candidates` counter grows by
  /// the number of pairs emitted.
  template <typename Fn>
  void ForEachCandidatePairInRange(size_t begin, size_t end,
                                   QueryScratch* scratch, Fn&& fn) const {
    ForEachCandidatePairInRangeImpl(begin, end, scratch,
                                    FunctionRef<void(size_t, size_t)>(fn));
  }

  /// Serial scan of all candidate pairs (transient scratch).
  template <typename Fn>
  void ForEachCandidatePair(Fn&& fn) const {
    QueryScratch scratch;
    ForEachCandidatePairInRangeImpl(0, item_count(), &scratch,
                                    FunctionRef<void(size_t, size_t)>(fn));
  }

  /// Opt-in per-item candidate memoization for resident indexes that are
  /// queried repeatedly (the serve path caches an index per dataset and
  /// reuses it across requests). The first enumeration of an item decodes
  /// postings as usual and records the emitted candidate list; any
  /// repeat enumeration of the same item replays that list in identical
  /// order without touching a block. Memory is bounded by the total
  /// candidate count, which is why one-shot pipeline builds leave this off.
  /// Thread-safe: slots are published with a release CAS and the loser of a
  /// racing fill discards its (identical) copy. Call once, after
  /// construction and before the first query.
  void EnableCandidateMemo();
  bool candidate_memo_enabled() const { return memo_ != nullptr; }

  size_t item_count() const { return n_; }
  size_t record_id(size_t pos) const { return items_[pos]; }
  /// The record ids the index was built over, by position.
  const std::vector<size_t>& items() const { return items_; }

  /// Total postings stored and the bytes of their compressed encoding
  /// (block metadata excluded) — the bench's bytes/posting numerator.
  uint64_t posting_count() const { return posting_count_; }
  size_t compressed_bytes() const { return blob_.size(); }
  size_t block_count() const { return blocks_.size(); }
  /// Bytes allocated by the index's arrays, the signature copy included
  /// and the candidate memo's lists excluded.
  size_t memory_bytes() const;

 private:
  struct ListMeta {
    uint64_t blob_begin = 0;   // Absolute offset of the list in the blob.
    uint32_t first_block = 0;  // Index of the list's first BlockMeta.
    uint32_t count = 0;        // Postings in the list.
  };
  struct BlockMeta {
    uint32_t blob_end_rel = 0;  // End of block bytes, relative to the list.
    uint32_t min_sig = 0;       // Smallest member signature size.
    uint32_t max_sig = 0;       // Largest member signature size.
    uint32_t count = 0;         // Postings in the block (<= kBlockSize).
    uint32_t min_rank = 0;      // Smallest member token rank (prefix filter).
  };

  /// Enumerates item `pos`'s candidates; with `later_only`, only those at
  /// external positions > pos are verified and emitted (a memo fill still
  /// verifies and records the full list).
  void ForEachCandidateImpl(size_t pos, bool later_only,
                            QueryScratch* scratch,
                            FunctionRef<bool(size_t)> fn) const;
  void ForEachCandidatePairInRangeImpl(
      size_t begin, size_t end, QueryScratch* scratch,
      FunctionRef<void(size_t, size_t)> fn) const;

  /// Rebuilds the scratch threshold table for query signature size `s`.
  void EnsureThresholds(size_t s, QueryScratch* scratch) const;
  /// Number of blocks of the list for token `t`, derived from the next
  /// list's first block (blocks are laid out contiguously, list by list).
  uint32_t ListBlockCount(size_t t) const {
    const uint32_t next = t + 1 < lists_.size()
                              ? lists_[t + 1].first_block
                              : static_cast<uint32_t>(blocks_.size());
    return next - lists_[t].first_block;
  }
  /// Decodes block `block_id` of the list at `list` into `out` (capacity
  /// >= kBlockSize), stopping at the first posting whose token rank
  /// exceeds `rank_limit` (pass UINT32_MAX for a full decode; pairs are
  /// stored in ascending rank order). Returns the number of decoded
  /// postings; defensive against malformed bytes (never reads outside the
  /// block's extent, never returns positions >= item_count()).
  size_t DecodeBlock(const ListMeta& list, uint32_t block_id,
                     uint32_t rank_limit, uint32_t* out) const;

  /// Moves `cursor` to its list's first segment of an admissible class
  /// starting at or after block `from`, and returns that class, or
  /// kNoClass when the list has none left. Gallops over the list's
  /// class-ordered blocks, so passing a run of blocks costs a logarithmic
  /// number of block reads.
  uint32_t NextSegment(const QueryScratch& scratch, uint32_t from,
                       QueryScratch::ListCursor* cursor) const;

  const PairPredicate* pred_ = nullptr;

  /// Lazily filled candidate lists, present only after EnableCandidateMemo.
  struct MemoState;
  std::unique_ptr<MemoState> memo_;

  std::vector<size_t> items_;             // [n] external pos -> record id.
  std::vector<uint32_t> rank_;            // [n] external -> internal.
  std::vector<uint32_t> order_;           // [n] internal -> external.
  // [max_sig_size_ + 2] Size class z holds internal positions
  // [class_begin_[z], class_begin_[z + 1]).
  std::vector<uint32_t> class_begin_;
  std::vector<ListMeta> lists_;           // [token_count].
  std::vector<BlockMeta> blocks_;
  std::vector<uint8_t> blob_;

  // Signature copy in internal order: item ip's sorted tokens, exactly as
  // pred_->Signature returns them (invalid tokens included), are
  // sig_tokens_[sig_offsets_[ip] .. sig_offsets_[ip + 1]). 64-bit offsets:
  // the token total can exceed 2^32.
  std::vector<uint64_t> sig_offsets_;   // [n + 1]
  std::vector<text::TokenId> sig_tokens_;

  size_t n_ = 0;
  uint64_t posting_count_ = 0;
  uint32_t max_sig_size_ = 0;
};

}  // namespace topkdup::predicates

#endif  // TOPKDUP_PREDICATES_BLOCKED_INDEX_H_
