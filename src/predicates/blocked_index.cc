#include "predicates/blocked_index.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <utility>

#include "common/metrics.h"

namespace topkdup::predicates {

namespace {

/// Blocking-probe instrumentation (paper Figures 2-4 are all about how few
/// candidates survive blocking). `postings_scanned` keeps its historical
/// meaning — the summed length of the query's posting lists, i.e. the work
/// an uncompressed scan would do — while `postings_decoded` /
/// `blocks_decoded` / `blocks_skipped` measure what the block-skip
/// enumeration actually paid. Counts are accumulated in query-local
/// variables and flushed once per query, so the postings loops stay tight.
struct ProbeCounters {
  metrics::Counter* queries;
  metrics::Counter* postings_scanned;
  metrics::Counter* candidates;
  metrics::Counter* blocks_skipped;
  metrics::Counter* blocks_decoded;
  metrics::Counter* postings_decoded;

  static const ProbeCounters& Get() {
    static const ProbeCounters counters = {
        metrics::Registry::Global().GetCounter(
            "predicates.blocked_index.queries"),
        metrics::Registry::Global().GetCounter(
            "predicates.blocked_index.postings_scanned"),
        metrics::Registry::Global().GetCounter(
            "predicates.blocked_index.candidates"),
        metrics::Registry::Global().GetCounter(
            "predicates.blocked_index.blocks_skipped"),
        metrics::Registry::Global().GetCounter(
            "predicates.blocked_index.blocks_decoded"),
        metrics::Registry::Global().GetCounter(
            "predicates.blocked_index.postings_decoded"),
    };
    return counters;
  }
};

constexpr int kInadmissible = std::numeric_limits<int>::max();

void AppendVarint(std::vector<uint8_t>* out, uint32_t v) {
  while (v >= 0x80u) {
    out->push_back(static_cast<uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

/// Whether sorted signatures `a` and `b` share at least `thr` valid tokens
/// (invalid tokens never count as shared). Merges with early accept, and
/// early reject once even a full match of the shorter remainder falls
/// short. Each merge step advances past the smaller token, or past both on
/// a tie, without a data-dependent branch: the order of two tokens is a
/// coin flip the branch predictor would lose.
bool SharesAtLeast(const text::TokenId* a, size_t an, const text::TokenId* b,
                   size_t bn, int thr) {
  int common = 0;
  size_t i = 0;
  size_t j = 0;
  while (common < thr) {
    if (common + static_cast<int>(std::min(an - i, bn - j)) < thr) {
      return false;
    }
    const text::TokenId ta = a[i];
    const text::TokenId tb = b[j];
    common += (ta == tb) & (ta >= 0);
    i += ta <= tb;
    j += tb <= ta;
  }
  return true;
}

}  // namespace

/// Per-item memoized candidate lists (EnableCandidateMemo). Each slot is
/// published at most once with the item's full candidate list in
/// enumeration order; because enumeration is deterministic, racing fills
/// produce identical lists and the CAS loser simply discards its copy.
struct BlockedIndex::MemoState {
  std::vector<std::atomic<const std::vector<uint32_t>*>> slots;
  explicit MemoState(size_t n) : slots(n) {
    for (auto& slot : slots) slot.store(nullptr, std::memory_order_relaxed);
  }
  ~MemoState() {
    for (auto& slot : slots) delete slot.load(std::memory_order_relaxed);
  }
};

BlockedIndex::BlockedIndex(BlockedIndex&&) noexcept = default;
BlockedIndex& BlockedIndex::operator=(BlockedIndex&&) noexcept = default;
BlockedIndex::~BlockedIndex() = default;

void BlockedIndex::EnableCandidateMemo() {
  if (memo_ == nullptr) memo_ = std::make_unique<MemoState>(n_);
}

BlockedIndex::BlockedIndex(const PairPredicate& pred,
                           std::vector<size_t> items)
    : pred_(&pred), items_(std::move(items)) {
  const size_t n = items_.size();
  n_ = n;

  std::vector<const std::vector<text::TokenId>*> sigs(n);
  for (size_t i = 0; i < n; ++i) sigs[i] = &pred.Signature(items_[i]);

  // Document reordering. Primary key: signature SIZE, so every size class
  // is a contiguous internal position range and one contiguous segment of
  // every posting list, which the per-class enumeration walks list by
  // list. Secondary key: the signature itself, which clusters similar
  // items inside a class and keeps posting-list deltas small. The tie on
  // the original position keeps the permutation deterministic.
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const std::vector<text::TokenId>& sa = *sigs[a];
    const std::vector<text::TokenId>& sb = *sigs[b];
    if (sa.size() != sb.size()) return sa.size() < sb.size();
    if (sa < sb) return true;
    if (sb < sa) return false;
    return a < b;
  });
  std::vector<uint32_t> rank(n);
  for (size_t ip = 0; ip < n; ++ip) rank[order[ip]] = static_cast<uint32_t>(ip);

  std::vector<uint32_t> sig_size(n);
  max_sig_size_ = 0;
  size_t token_count = 0;
  size_t sig_total = 0;
  for (size_t ip = 0; ip < n; ++ip) {
    const std::vector<text::TokenId>& sig = *sigs[order[ip]];
    sig_size[ip] = static_cast<uint32_t>(sig.size());
    sig_total += sig.size();
    max_sig_size_ = std::max(max_sig_size_, sig_size[ip]);
    for (text::TokenId t : sig) {
      if (t >= 0 && static_cast<size_t>(t) + 1 > token_count) {
        token_count = static_cast<size_t>(t) + 1;
      }
    }
  }

  // sig_size is nondecreasing: items are ordered by size first.
  class_begin_.resize(static_cast<size_t>(max_sig_size_) + 2);
  for (size_t z = 0; z < class_begin_.size(); ++z) {
    class_begin_[z] = static_cast<uint32_t>(
        std::lower_bound(sig_size.begin(), sig_size.end(), z) -
        sig_size.begin());
  }

  // Postings carry the token's rank — its index within the owning item's
  // signature. The positional prefix filter keys off it: a class-z
  // candidate matched with threshold thr through its FIRST common token
  // holds that token at rank <= z - thr (see the enumeration below).
  std::vector<std::vector<uint32_t>> postings(token_count);
  std::vector<std::vector<uint32_t>> post_ranks(token_count);
  posting_count_ = 0;
  for (size_t ip = 0; ip < n; ++ip) {
    const std::vector<text::TokenId>& sig = *sigs[order[ip]];
    text::TokenId prev_t = text::kInvalidToken;
    for (size_t idx = 0; idx < sig.size(); ++idx) {
      const text::TokenId t = sig[idx];
      if (t < 0 || t == prev_t) continue;  // Contract: sorted unique.
      prev_t = t;
      postings[t].push_back(static_cast<uint32_t>(ip));
      post_ranks[t].push_back(static_cast<uint32_t>(idx));
      ++posting_count_;
    }
  }

  std::vector<ListMeta> lists(token_count);
  std::vector<BlockMeta> blocks;
  std::vector<uint8_t> blob;
  std::vector<uint32_t> group;  // Posting indices of one class segment.
  for (size_t t = 0; t < token_count; ++t) {
    const std::vector<uint32_t>& plist = postings[t];
    const std::vector<uint32_t>& ranks = post_ranks[t];
    ListMeta& lm = lists[t];
    lm.blob_begin = blob.size();
    lm.first_block = static_cast<uint32_t>(blocks.size());
    lm.count = static_cast<uint32_t>(plist.size());
    // Blocks never span a signature-size class boundary (positions arrive
    // class-grouped because items are ordered by size), so the per-class
    // enumeration decodes exactly the class's segment of each list. Within
    // a class segment the postings are stratified by token rank — sorted
    // by (rank, position) and carved into blocks in that order — and each
    // posting is stored as a (rank delta, position) varint pair: a rank
    // step > 0 carries the position verbatim, a step of 0 carries the
    // delta to the previous position (ascending within a rank run). The
    // decoder can therefore stop mid-block the moment the running rank
    // passes the prefix-filter bound z - thr, and whole blocks whose
    // min_rank already exceeds it are never touched.
    size_t seg_begin = 0;
    while (seg_begin < plist.size()) {
      const uint32_t block_sig = sig_size[plist[seg_begin]];
      size_t seg_end = seg_begin;
      while (seg_end < plist.size() &&
             sig_size[plist[seg_end]] == block_sig) {
        ++seg_end;
      }
      group.clear();
      for (size_t i = seg_begin; i < seg_end; ++i) {
        group.push_back(static_cast<uint32_t>(i));
      }
      std::sort(group.begin(), group.end(), [&](uint32_t a, uint32_t b) {
        if (ranks[a] != ranks[b]) return ranks[a] < ranks[b];
        return plist[a] < plist[b];
      });
      size_t begin = 0;
      while (begin < group.size()) {
        const size_t end = std::min(begin + kBlockSize, group.size());
        BlockMeta bm;
        bm.count = static_cast<uint32_t>(end - begin);
        bm.min_sig = block_sig;
        bm.max_sig = block_sig;
        bm.min_rank = ranks[group[begin]];  // Rank-ascending carve order.
        uint32_t prev_rank = bm.min_rank;
        uint32_t prev_pos = 0;
        for (size_t i = begin; i < end; ++i) {
          const uint32_t v = plist[group[i]];
          const uint32_t r = ranks[group[i]];
          AppendVarint(&blob, r - prev_rank);
          AppendVarint(&blob, r == prev_rank ? v - prev_pos : v);
          prev_rank = r;
          prev_pos = v;
        }
        bm.blob_end_rel = static_cast<uint32_t>(blob.size() - lm.blob_begin);
        blocks.push_back(bm);
        begin = end;
      }
      seg_begin = seg_end;
    }
  }
  rank_ = std::move(rank);
  order_ = std::move(order);
  lists_ = std::move(lists);
  blocks_ = std::move(blocks);
  blob_ = std::move(blob);

  // Signature copy, in internal order.
  sig_offsets_.reserve(n + 1);
  sig_tokens_.reserve(sig_total);
  sig_offsets_.push_back(0);
  for (size_t ip = 0; ip < n; ++ip) {
    const std::vector<text::TokenId>& sig = *sigs[order_[ip]];
    sig_tokens_.insert(sig_tokens_.end(), sig.begin(), sig.end());
    sig_offsets_.push_back(sig_tokens_.size());
  }
}

size_t BlockedIndex::memory_bytes() const {
  const auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(v[0]);
  };
  return bytes(items_) + bytes(rank_) + bytes(order_) + bytes(class_begin_) +
         bytes(lists_) + bytes(blocks_) + bytes(blob_) + bytes(sig_offsets_) +
         bytes(sig_tokens_);
}

// ---------------------------------------------------------------------------
// Enumeration.

void BlockedIndex::EnsureThresholds(size_t s, QueryScratch* scratch) const {
  // The size check keeps a scratch that outlived its index in bounds when
  // a new index takes the old one's address.
  if (scratch->cached_pred == this && scratch->cached_sig_size == s &&
      scratch->next_admissible.size() == max_sig_size_ + 2) {
    return;
  }
  scratch->cached_pred = this;
  scratch->cached_sig_size = s;
  scratch->thresholds.assign(max_sig_size_ + 1, kInadmissible);
  scratch->next_admissible.assign(max_sig_size_ + 2, kNoClass);
  // Buckets are empty between probes, so resizing keeps them empty.
  scratch->class_bucket.resize(max_sig_size_ + 1, kNoClass);
  uint32_t next = kNoClass;
  // Size 0 stays inadmissible: empty signatures never share a token.
  for (uint32_t z = max_sig_size_; z >= 1; --z) {
    if (class_begin_[z] < class_begin_[z + 1]) {
      int thr = pred_->MinCommon(s, z);
      if (thr < 1) thr = 1;
      // A size-z candidate shares at most min(s, z) tokens with the query;
      // sizes whose threshold exceeds that can never qualify.
      if (static_cast<uint64_t>(thr) <= std::min<uint64_t>(s, z)) {
        scratch->thresholds[z] = thr;
        next = z;
      }
    }
    scratch->next_admissible[z] = next;
  }
  scratch->next_admissible[0] = next;
}

uint32_t BlockedIndex::NextSegment(const QueryScratch& scratch, uint32_t from,
                                   QueryScratch::ListCursor* cursor) const {
  const BlockMeta* const blocks =
      blocks_.data() + lists_[cursor->token].first_block;
  const uint32_t nb = cursor->block_count;
  // First block at or after `lo` whose min_sig exceeds `z`: gallop, then
  // binary search the last stride (min_sig is nondecreasing along a list).
  const auto first_past = [&](uint32_t lo, uint32_t z) {
    uint32_t hi = lo;
    for (uint32_t step = 1; hi < nb && blocks[hi].min_sig <= z; step *= 2) {
      lo = hi + 1;
      hi = std::min(nb, lo + step);
    }
    while (lo < hi) {
      const uint32_t mid = lo + (hi - lo) / 2;
      if (blocks[mid].min_sig <= z) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  uint32_t b = from;
  while (b < nb) {
    const uint32_t m = blocks[b].min_sig;
    const uint32_t z = scratch.next_admissible[m];
    if (z == kNoClass) break;
    if (z != m) {  // Class m is inadmissible: skip to class z's blocks.
      b = first_past(b, z - 1);
      continue;
    }
    cursor->seg_begin = b;
    cursor->seg_end = first_past(b + 1, z);
    return z;
  }
  return kNoClass;
}

size_t BlockedIndex::DecodeBlock(const ListMeta& list, uint32_t block_id,
                                 uint32_t rank_limit, uint32_t* out) const {
  const BlockMeta& bm = blocks_[list.first_block + block_id];
  const size_t begin =
      list.blob_begin +
      (block_id == 0 ? 0 : blocks_[list.first_block + block_id - 1].blob_end_rel);
  const size_t end = std::min<size_t>(list.blob_begin + bm.blob_end_rel,
                                      blob_.size());
  const uint8_t* p = blob_.data() + std::min(begin, end);
  const uint8_t* e = blob_.data() + end;
  const auto read_varint = [&]() -> uint32_t {
    uint32_t d = 0;
    int shift = 0;
    while (p < e) {
      const uint8_t byte = *p++;
      d |= static_cast<uint32_t>(byte & 0x7Fu) << shift;
      if ((byte & 0x80u) == 0) break;
      shift += 7;
      if (shift > 28) break;  // Malformed: varint too long; d is bounded.
    }
    return d;
  };
  // Postings are (rank delta, position) pairs in ascending-rank order
  // delta-based from a zero base (blocks inside a class segment are
  // rank-ordered, not position-ordered, so no neighbor offers one). The
  // scan stops — and stops paying — the moment the running rank passes
  // `rank_limit`.
  uint32_t rank = bm.min_rank;
  uint32_t prev_pos = 0;
  const size_t want = std::min<size_t>(bm.count, kBlockSize);
  size_t cnt = 0;
  while (cnt < want && p < e) {
    const uint32_t dr = read_varint();
    const uint64_t r = static_cast<uint64_t>(rank) + dr;
    if (r > rank_limit) break;  // Prefix filter: later pairs rank higher.
    const uint32_t dp = read_varint();
    const uint64_t v = dr == 0 ? static_cast<uint64_t>(prev_pos) + dp : dp;
    if (v >= n_) break;  // Malformed: clamp, never emit out of range.
    rank = static_cast<uint32_t>(r);
    prev_pos = static_cast<uint32_t>(v);
    out[cnt++] = prev_pos;
  }
  return cnt;
}

void BlockedIndex::ForEachCandidateImpl(size_t pos, bool later_only,
                                        QueryScratch* scratch,
                                        FunctionRef<bool(size_t)> fn) const {
  uint64_t postings_scanned = 0;
  uint64_t postings_decoded = 0;
  uint64_t blocks_decoded = 0;
  uint64_t blocks_skipped = 0;
  uint64_t candidates = 0;
  const auto flush = [&] {
    const ProbeCounters& counters = ProbeCounters::Get();
    counters.queries->Increment();
    counters.postings_scanned->Add(postings_scanned);
    counters.candidates->Add(candidates);
    counters.blocks_skipped->Add(blocks_skipped);
    counters.blocks_decoded->Add(blocks_decoded);
    counters.postings_decoded->Add(postings_decoded);
  };

  if (scratch->counts.size() < n_) scratch->counts.assign(n_, 0);
  scratch->touched.clear();
  const uint32_t self_ip = rank_[pos];
  const text::TokenId* const sig_tokens = sig_tokens_.data();
  const uint64_t* const sig_offsets = sig_offsets_.data();
  const text::TokenId* const sig = sig_tokens + sig_offsets[self_ip];
  const size_t s = sig_offsets[self_ip + 1] - sig_offsets[self_ip];
  EnsureThresholds(s, scratch);

  // One cursor per query token with postings.
  std::vector<QueryScratch::ListCursor>& cursors = scratch->cursors;
  cursors.clear();
  uint64_t total_blocks = 0;
  text::TokenId prev_t = text::kInvalidToken;
  for (size_t idx = 0; idx < s; ++idx) {
    const text::TokenId t = sig[idx];
    if (t < 0 || static_cast<size_t>(t) >= lists_.size()) continue;
    if (t == prev_t) continue;  // Contract: sorted unique.
    prev_t = t;
    const ListMeta& lm = lists_[t];
    postings_scanned += lm.count;
    if (lm.count > 0) {
      const uint32_t nb = ListBlockCount(t);
      total_blocks += nb;
      cursors.push_back({static_cast<uint32_t>(t), static_cast<uint32_t>(idx),
                         nb, 0, 0, kNoClass});
    }
  }

  // Memoized replay: a resident index that has already enumerated this item
  // replays the recorded candidate list in identical order — zero blocks
  // touched, so the whole query-list footprint counts as skipped.
  if (memo_ != nullptr) {
    const std::vector<uint32_t>* hit =
        memo_->slots[pos].load(std::memory_order_acquire);
    if (hit != nullptr) {
      blocks_skipped += total_blocks;
      for (const uint32_t ext : *hit) {
        if (later_only && ext <= pos) continue;
        ++candidates;
        if (!fn(ext)) break;
      }
      flush();
      return;
    }
  }

  if (scratch->next_admissible[0] == kNoClass || cursors.empty()) {
    flush();
    return;
  }
  // While filling a memo slot, enumeration runs to completion even after
  // the consumer stops (fn is no longer called) so the recorded list is
  // the item's full candidate set.
  const bool memo_fill = memo_ != nullptr;
  std::vector<uint32_t> memo_vec;

  // Enumerate per signature-size class. Items are ordered by size, so class
  // z occupies one contiguous internal position range and one contiguous
  // block segment of every posting list; all of a class's candidates share
  // the same threshold thr(z). Each query list's cursor walks its segments
  // of admissible classes in ascending class order, waiting in the bucket
  // of its next segment's class, so each class visits exactly the lists
  // that have a segment in it. A metadata-only pre-pass sizes those
  // segments and their rank-filtered prefixes, then one of two sound
  // generation schemes is chosen by its metadata-predicted decode cost:
  //
  //   * SUFFIX-DROP: a qualifying candidate shares a token with the query
  //     outside any fixed thr(z)-1 of the L_z lists with a non-empty class
  //     segment, so decoding the L_z-thr(z)+1 SMALLEST segments generates
  //     every candidate (and if L_z < thr(z) the class has no candidates
  //     at all).
  //   * POSITIONAL PREFIX (ppjoin-style): order token lists by token id —
  //     the order signatures are stored in. The first common token of a
  //     qualifying pair lies at index <= |sig|-thr(z) in the query
  //     signature and at rank <= z-thr(z) in the candidate signature, so
  //     it suffices to decode, for the query's first |sig|-thr(z)+1
  //     tokens, the segment blocks whose min_rank can still reach that
  //     bound (blocks are carved in ascending-rank order).
  //
  //   Candidates the counting pass leaves short of thr(z) are verified by
  //   a direct signature merge, never by decoding more postings.
  std::vector<uint32_t>& bucket = scratch->class_bucket;
  const auto wait_for_next_segment = [&](uint32_t li, uint32_t from) {
    QueryScratch::ListCursor& cursor = cursors[li];
    const uint32_t next_class = NextSegment(*scratch, from, &cursor);
    if (next_class == kNoClass) return;
    cursor.next = bucket[next_class];
    bucket[next_class] = li;
  };
  for (uint32_t li = 0; li < cursors.size(); ++li) {
    wait_for_next_segment(li, 0);
  }
  bool keep_going = true;
  uint32_t z = scratch->next_admissible[0];
  for (; z != kNoClass && (keep_going || memo_fill);
       z = scratch->next_admissible[z + 1]) {
    // Take the lists with a class-z segment out of the bucket, and move
    // each one's cursor on to its next segment. Lists without a class-z
    // segment cannot contribute a token to any class-z candidate and are
    // never visited.
    scratch->class_lists.clear();
    for (uint32_t li = std::exchange(bucket[z], kNoClass); li != kNoClass;) {
      const QueryScratch::ListCursor& cursor = cursors[li];
      const uint32_t next_li = cursor.next;
      scratch->class_lists.push_back({cursor.token, cursor.sig_idx, 0, 0,
                                      cursor.seg_begin, cursor.seg_end, 0});
      wait_for_next_segment(li, cursor.seg_end);
      li = next_li;
    }
    const int thr = scratch->thresholds[z];
    if (scratch->class_lists.size() < static_cast<size_t>(thr)) continue;
    const uint32_t z_begin = class_begin_[z];
    const uint32_t z_end = class_begin_[z + 1];

    // Metadata pre-pass: size each class-z segment and the prefix of it
    // reachable under the candidate-side rank bound z - thr.
    const uint32_t rank_limit = static_cast<uint32_t>(z - thr);
    const uint32_t pref_idx_limit = static_cast<uint32_t>(s - thr);
    uint64_t cost_prefix = 0;
    for (QueryScratch::ClassListRef& ref : scratch->class_lists) {
      const BlockMeta* const blocks =
          blocks_.data() + lists_[ref.token].first_block;
      uint32_t lo = ref.block_begin;
      uint32_t hi = ref.block_end;
      while (lo < hi) {  // First segment block past the rank bound.
        const uint32_t mid = lo + (hi - lo) / 2;
        if (blocks[mid].min_rank <= rank_limit) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      ref.pref_end = lo;
      for (uint32_t b = ref.block_begin; b < ref.block_end; ++b) {
        const uint32_t c = blocks[b].count;
        ref.seg_count += c;
        if (b < ref.pref_end) ref.pref_count += c;
      }
      if (ref.sig_idx <= pref_idx_limit && ref.pref_count > 0) {
        // The decoder stops mid-block once ranks pass the bound, so the
        // expected cost under a uniform rank model is the rank fraction of
        // the segment, floored at one pair per non-empty prefix.
        cost_prefix += std::max<uint64_t>(
            1, std::min<uint64_t>(
                   ref.pref_count,
                   (static_cast<uint64_t>(ref.seg_count) * (rank_limit + 1) +
                    z - 1) /
                       z));
      }
    }
    bool prefix_reachable = false;
    for (const QueryScratch::ClassListRef& ref : scratch->class_lists) {
      if (ref.sig_idx <= pref_idx_limit && ref.pref_count > 0) {
        prefix_reachable = true;
        break;
      }
    }
    if (!prefix_reachable) continue;  // No reachable first common token.

    // Suffix-drop cost: the L_z - thr + 1 smallest segments.
    std::sort(scratch->class_lists.begin(), scratch->class_lists.end(),
              [](const QueryScratch::ClassListRef& a,
                 const QueryScratch::ClassListRef& b) {
                if (a.seg_count != b.seg_count) {
                  return a.seg_count < b.seg_count;
                }
                return a.token < b.token;
              });
    const size_t scan_n = scratch->class_lists.size() -
                          (static_cast<size_t>(thr) - 1);  // >= 1.
    uint64_t cost_suffix = 0;
    for (size_t li = 0; li < scan_n; ++li) {
      cost_suffix += scratch->class_lists[li].seg_count;
    }
    const bool use_prefix = cost_prefix < cost_suffix;

    scratch->decode_buf.resize(kBlockSize);
    scratch->touched.clear();

    // Counting pass over the chosen scheme's block ranges.
    uint32_t* scan_buf = scratch->decode_buf.data();
    const size_t gen_n = use_prefix ? scratch->class_lists.size() : scan_n;
    const uint32_t decode_limit =
        use_prefix ? rank_limit : std::numeric_limits<uint32_t>::max();
    for (size_t li = 0; li < gen_n; ++li) {
      const QueryScratch::ClassListRef& ref = scratch->class_lists[li];
      if (use_prefix && ref.sig_idx > pref_idx_limit) continue;
      const ListMeta& lm = lists_[ref.token];
      const uint32_t gen_end = use_prefix ? ref.pref_end : ref.block_end;
      for (uint32_t b = ref.block_begin; b < gen_end; ++b) {
        const BlockMeta& bm = blocks_[lm.first_block + b];
        if (bm.max_sig < z || bm.min_sig > z) continue;  // Foreign block.
        const size_t cnt = DecodeBlock(lm, b, decode_limit, scan_buf);
        ++blocks_decoded;
        postings_decoded += cnt;
        for (size_t i = 0; i < cnt; ++i) {
          const uint32_t v = scan_buf[i];
          if (v >= z_begin && v < z_end && v != self_ip) {
            if (scratch->counts[v] == 0) scratch->touched.push_back(v);
            ++scratch->counts[v];
          }
        }
      }
    }

    // Qualify pass: a candidate the generation lists counted thr times is
    // in; the rest are verified by a direct merge of the two sorted
    // signatures from the index's own copy (class z's copies are one
    // contiguous run) with early accept/reject — no posting list is ever
    // decoded for verification. Under `later_only` a candidate at an
    // external position <= pos is dropped before the merge: the pair was
    // (or will be) verified from its other end. Scratch counts are always
    // reset, even after the consumer stops.
    for (const uint32_t ip : scratch->touched) {
      const int count = scratch->counts[ip];
      scratch->counts[ip] = 0;
      const uint32_t ext = order_[ip];
      const bool emit = keep_going && (!later_only || ext > pos);
      if (!emit && !memo_fill) continue;
      if (count < thr &&
          !SharesAtLeast(sig, s, sig_tokens + sig_offsets[ip], z, thr)) {
        continue;
      }
      if (memo_fill) memo_vec.push_back(ext);
      if (emit) {
        ++candidates;
        keep_going = fn(ext);
      }
    }
  }
  // A consumer that stopped early leaves cursors waiting in later buckets.
  for (; z != kNoClass; z = scratch->next_admissible[z + 1]) {
    bucket[z] = kNoClass;
  }
  if (memo_fill) {
    auto* filled = new std::vector<uint32_t>(std::move(memo_vec));
    filled->shrink_to_fit();
    const std::vector<uint32_t>* expected = nullptr;
    if (!memo_->slots[pos].compare_exchange_strong(
            expected, filled, std::memory_order_release,
            std::memory_order_acquire)) {
      delete filled;  // Raced fill: the published list is identical.
    }
  }
  // Net block-skip accounting: how many of the query lists' blocks were
  // never decoded (boundary blocks decoded once per adjacent class can
  // make the decode count exceed the walk of a plain scan; clamp at zero).
  blocks_skipped += total_blocks > blocks_decoded
                        ? total_blocks - blocks_decoded
                        : 0;
  flush();
}

void BlockedIndex::ForEachCandidatePairInRangeImpl(
    size_t begin, size_t end, QueryScratch* scratch,
    FunctionRef<void(size_t, size_t)> fn) const {
  const size_t last = std::min(end, n_);
  for (size_t p = begin; p < last; ++p) {
    ForEachCandidateImpl(p, /*later_only=*/true, scratch,
                         FunctionRef<bool(size_t)>([&](size_t q) {
                           fn(p, q);
                           return true;
                         }));
  }
}

}  // namespace topkdup::predicates
