#include "predicates/blocked_index.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

#include "common/check.h"
#include "common/crc32.h"
#include "common/metrics.h"
#include "common/strings.h"

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

constexpr uint64_t kMagic = 0x3158444950444b54ull;  // "TKDPIDX1"
constexpr uint32_t kFormatVersion = 1;
constexpr size_t kHeaderSize = 96;

/// On-disk header (host little-endian). The trailing CRC covers the first
/// 92 bytes; body_crc32 covers the body that follows the header.
struct IndexHeader {
  uint64_t magic;
  uint32_t version;
  uint32_t header_size;
  uint64_t n;
  uint64_t token_count;
  uint64_t distinct_size_count;
  uint64_t block_count;
  uint64_t blob_bytes;
  uint64_t posting_count;
  uint32_t max_sig_size;
  uint32_t flags;
  uint64_t body_size;
  uint64_t pred_name_hash;
  uint32_t body_crc32;
  uint32_t header_crc32;
};
static_assert(sizeof(IndexHeader) == kHeaderSize, "serialized layout");

size_t Align8(size_t offset) { return (offset + 7) & ~size_t{7}; }

/// Byte offsets of each body section; total is the body size. All sections
/// are 8-aligned so the views can be typed directly over the buffer.
struct Layout {
  size_t items;
  size_t rank;
  size_t order;
  size_t sig_size;
  size_t distinct;
  size_t lists;
  size_t blocks;
  size_t blob;
  size_t total;
};

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
/// short.
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
    if (ta < tb) {
      ++i;
    } else if (tb < ta) {
      ++j;
    } else {
      if (ta >= 0) ++common;
      ++i;
      ++j;
    }
  }
  return true;
}

}  // namespace

namespace {

Layout ComputeLayout(uint64_t n, uint64_t token_count, uint64_t distinct,
                     uint64_t block_count, uint64_t blob_bytes) {
  Layout lay{};
  size_t off = 0;
  lay.items = off;
  off = Align8(off + n * sizeof(uint64_t));
  lay.rank = off;
  off = Align8(off + n * sizeof(uint32_t));
  lay.order = off;
  off = Align8(off + n * sizeof(uint32_t));
  lay.sig_size = off;
  off = Align8(off + n * sizeof(uint32_t));
  lay.distinct = off;
  off = Align8(off + distinct * sizeof(uint32_t));
  lay.lists = off;
  off = Align8(off + token_count * 16);  // sizeof(ListMeta)
  lay.blocks = off;
  off = Align8(off + block_count * 24);  // sizeof(BlockMeta)
  lay.blob = off;
  off = Align8(off + blob_bytes);
  lay.total = off;
  return lay;
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

BlockedIndex::BlockedIndex(const PairPredicate& pred,
                           std::vector<size_t> items) {
  BuildFrom(pred, std::move(items));
}

BlockedIndex::BlockedIndex(BlockedIndex&&) noexcept = default;
BlockedIndex& BlockedIndex::operator=(BlockedIndex&&) noexcept = default;
BlockedIndex::~BlockedIndex() = default;

void BlockedIndex::EnableCandidateMemo() {
  if (memo_ == nullptr) memo_ = std::make_unique<MemoState>(n_);
}

void BlockedIndex::BuildFrom(const PairPredicate& pred,
                             std::vector<size_t> items) {
  pred_ = &pred;
  const size_t n = items.size();
  n_ = n;

  std::vector<const std::vector<text::TokenId>*> sigs(n);
  for (size_t i = 0; i < n; ++i) sigs[i] = &pred.Signature(items[i]);

  // Document reordering. Primary key: signature SIZE, so every size class
  // is a contiguous internal position range and the per-class enumeration
  // can restrict a posting list to its class segment by block binary
  // search. Secondary key: the signature itself, which clusters similar
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
  for (size_t ip = 0; ip < n; ++ip) {
    const std::vector<text::TokenId>& sig = *sigs[order[ip]];
    sig_size[ip] = static_cast<uint32_t>(sig.size());
    max_sig_size_ = std::max(max_sig_size_, sig_size[ip]);
    for (text::TokenId t : sig) {
      if (t >= 0 && static_cast<size_t>(t) + 1 > token_count) {
        token_count = static_cast<size_t>(t) + 1;
      }
    }
  }
  token_count_ = token_count;

  std::vector<uint32_t> distinct(sig_size);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  distinct_size_count_ = distinct.size();

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
        uint32_t max_pos = 0;
        for (size_t i = begin; i < end; ++i) {
          const uint32_t v = plist[group[i]];
          const uint32_t r = ranks[group[i]];
          AppendVarint(&blob, r - prev_rank);
          AppendVarint(&blob, r == prev_rank ? v - prev_pos : v);
          prev_rank = r;
          prev_pos = v;
          max_pos = std::max(max_pos, v);
        }
        bm.last_pos = max_pos;
        bm.blob_end_rel = static_cast<uint32_t>(blob.size() - lm.blob_begin);
        blocks.push_back(bm);
        begin = end;
      }
      seg_begin = seg_end;
    }
  }
  block_count_ = blocks.size();
  blob_size_ = blob.size();

  const Layout lay = ComputeLayout(n, token_count, distinct.size(),
                                   blocks.size(), blob.size());
  owned_.assign(lay.total, 0);
  uint8_t* body = owned_.data();
  uint64_t* items64 = reinterpret_cast<uint64_t*>(body + lay.items);
  for (size_t i = 0; i < n; ++i) items64[i] = items[i];
  if (n > 0) {
    std::memcpy(body + lay.rank, rank.data(), n * sizeof(uint32_t));
    std::memcpy(body + lay.order, order.data(), n * sizeof(uint32_t));
    std::memcpy(body + lay.sig_size, sig_size.data(), n * sizeof(uint32_t));
  }
  if (!distinct.empty()) {
    std::memcpy(body + lay.distinct, distinct.data(),
                distinct.size() * sizeof(uint32_t));
  }
  if (!lists.empty()) {
    std::memcpy(body + lay.lists, lists.data(),
                lists.size() * sizeof(ListMeta));
  }
  if (!blocks.empty()) {
    std::memcpy(body + lay.blocks, blocks.data(),
                blocks.size() * sizeof(BlockMeta));
  }
  if (!blob.empty()) {
    std::memcpy(body + lay.blob, blob.data(), blob.size());
  }
  BindViews(body, lay.total);
  TOPKDUP_CHECK(CopySignatures().ok());
}

Status BlockedIndex::CopySignatures() {
  // Sizes are checked against the predicate before anything is reserved,
  // so a corrupt image cannot request an oversized copy.
  uint64_t total = 0;
  for (size_t ip = 0; ip < n_; ++ip) {
    if (pred_->Signature(items_[order_[ip]]).size() != sig_size_[ip]) {
      return Status::InvalidArgument(
          "stored signature size disagrees with the predicate");
    }
    total += sig_size_[ip];
  }
  sig_offsets_.clear();
  sig_offsets_.reserve(n_ + 1);
  sig_tokens_.clear();
  sig_tokens_.reserve(total);
  sig_offsets_.push_back(0);
  for (size_t ip = 0; ip < n_; ++ip) {
    const std::vector<text::TokenId>& sig =
        pred_->Signature(items_[order_[ip]]);
    sig_tokens_.insert(sig_tokens_.end(), sig.begin(), sig.end());
    sig_offsets_.push_back(sig_tokens_.size());
  }
  return Status::OK();
}

void BlockedIndex::BindViews(const uint8_t* body, size_t body_size) {
  const Layout lay = ComputeLayout(n_, token_count_, distinct_size_count_,
                                   block_count_, blob_size_);
  (void)body_size;
  items_ = reinterpret_cast<const uint64_t*>(body + lay.items);
  rank_ = reinterpret_cast<const uint32_t*>(body + lay.rank);
  order_ = reinterpret_cast<const uint32_t*>(body + lay.order);
  sig_size_ = reinterpret_cast<const uint32_t*>(body + lay.sig_size);
  distinct_sizes_ = reinterpret_cast<const uint32_t*>(body + lay.distinct);
  lists_ = reinterpret_cast<const ListMeta*>(body + lay.lists);
  blocks_ = reinterpret_cast<const BlockMeta*>(body + lay.blocks);
  blob_ = body + lay.blob;
}

// ---------------------------------------------------------------------------
// Enumeration.

void BlockedIndex::EnsureThresholds(size_t s, QueryScratch* scratch) const {
  if (scratch->cached_pred == this && scratch->cached_sig_size == s) return;
  scratch->cached_pred = this;
  scratch->cached_sig_size = s;
  scratch->thresholds.assign(max_sig_size_ + 1, kInadmissible);
  scratch->admissible_sizes.clear();
  int tmin = kInadmissible;
  for (size_t i = 0; i < distinct_size_count_; ++i) {
    const uint32_t z = distinct_sizes_[i];
    if (z == 0) continue;  // Empty signatures never share a token.
    int thr = pred_->MinCommon(s, z);
    if (thr < 1) thr = 1;
    // A size-z candidate shares at most min(s, z) tokens with the query;
    // sizes whose threshold exceeds that can never qualify.
    if (static_cast<uint64_t>(thr) >
        std::min<uint64_t>(s, z)) {
      continue;
    }
    scratch->thresholds[z] = thr;
    scratch->admissible_sizes.push_back(z);
    tmin = std::min(tmin, thr);
  }
  scratch->min_threshold = tmin;
}

size_t BlockedIndex::DecodeBlock(const ListMeta& list, uint32_t block_id,
                                 uint32_t rank_limit, uint32_t* out) const {
  const BlockMeta& bm = blocks_[list.first_block + block_id];
  const size_t begin =
      list.blob_begin +
      (block_id == 0 ? 0 : blocks_[list.first_block + block_id - 1].blob_end_rel);
  const size_t end = std::min<size_t>(list.blob_begin + bm.blob_end_rel,
                                      blob_size_);
  const uint8_t* p = blob_ + std::min(begin, end);
  const uint8_t* e = blob_ + end;
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

  scratch->scan_lists.clear();
  text::TokenId prev_t = text::kInvalidToken;
  for (size_t idx = 0; idx < s; ++idx) {
    const text::TokenId t = sig[idx];
    if (t < 0 || static_cast<size_t>(t) >= token_count_) continue;
    if (t == prev_t) continue;  // Contract: sorted unique.
    prev_t = t;
    const ListMeta& lm = lists_[t];
    postings_scanned += lm.count;
    if (lm.count > 0) {
      scratch->scan_lists.emplace_back(static_cast<uint32_t>(t),
                                       static_cast<uint32_t>(idx));
    }
  }

  const size_t num_lists = scratch->scan_lists.size();
  uint64_t total_blocks = 0;
  for (const auto& [t, idx] : scratch->scan_lists) {
    total_blocks += ListBlockCount(t);
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

  if (scratch->admissible_sizes.empty() || num_lists == 0) {
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
  // the same threshold thr(z). A metadata-only pre-pass locates each query
  // list's class segment and the rank-filtered prefix of it, then one of
  // two sound generation schemes is chosen by its metadata-predicted
  // decode cost:
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
  bool keep_going = true;
  for (size_t ci = 0;
       ci < scratch->admissible_sizes.size() && (keep_going || memo_fill);
       ++ci) {
    const uint32_t z = scratch->admissible_sizes[ci];
    const int thr = scratch->thresholds[z];
    if (static_cast<size_t>(thr) > num_lists) continue;  // Class unreachable.
    const uint32_t* size_begin = sig_size_;
    const uint32_t* size_end = sig_size_ + n_;
    const uint32_t z_begin = static_cast<uint32_t>(
        std::lower_bound(size_begin, size_end, z) - size_begin);
    const uint32_t z_end = static_cast<uint32_t>(
        std::upper_bound(size_begin + z_begin, size_end, z) - size_begin);
    if (z_begin == z_end) continue;

    // Metadata pre-pass: locate each query list's class-z block segment
    // (blocks are class-pure with nondecreasing min_sig) and the prefix of
    // it reachable under the candidate-side rank bound z - thr. Lists with
    // an empty segment cannot contribute a token to any class-z candidate
    // and drop out entirely.
    const uint32_t rank_limit = static_cast<uint32_t>(z - thr);
    const uint32_t pref_idx_limit = static_cast<uint32_t>(s - thr);
    scratch->class_lists.clear();
    uint64_t cost_prefix = 0;
    for (const auto& [t, idx] : scratch->scan_lists) {
      const ListMeta& lm = lists_[t];
      const uint32_t nb = ListBlockCount(t);
      uint32_t lo = 0;
      uint32_t hi = nb;
      while (lo < hi) {  // First block of class z.
        const uint32_t mid = lo + (hi - lo) / 2;
        if (blocks_[lm.first_block + mid].min_sig < z) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      const uint32_t seg_begin = lo;
      hi = nb;
      while (lo < hi) {  // First block past class z.
        const uint32_t mid = lo + (hi - lo) / 2;
        if (blocks_[lm.first_block + mid].min_sig <= z) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      const uint32_t seg_end = lo;
      if (seg_begin == seg_end) continue;
      lo = seg_begin;
      hi = seg_end;
      while (lo < hi) {  // First segment block past the rank bound.
        const uint32_t mid = lo + (hi - lo) / 2;
        if (blocks_[lm.first_block + mid].min_rank <= rank_limit) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      const uint32_t pref_end = lo;
      uint32_t seg_count = 0;
      uint32_t pref_count = 0;
      for (uint32_t b = seg_begin; b < seg_end; ++b) {
        const uint32_t c = blocks_[lm.first_block + b].count;
        seg_count += c;
        if (b < pref_end) pref_count += c;
      }
      if (seg_count == 0) continue;
      scratch->class_lists.push_back(
          {t, idx, seg_count, pref_count, seg_begin, seg_end, pref_end});
      if (idx <= pref_idx_limit && pref_count > 0) {
        // The decoder stops mid-block once ranks pass the bound, so the
        // expected cost under a uniform rank model is the rank fraction of
        // the segment, floored at one pair per non-empty prefix.
        cost_prefix += std::max<uint64_t>(
            1, std::min<uint64_t>(
                   pref_count,
                   (static_cast<uint64_t>(seg_count) * (rank_limit + 1) +
                    z - 1) /
                       z));
      }
    }
    if (scratch->class_lists.size() < static_cast<size_t>(thr)) continue;
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

// ---------------------------------------------------------------------------
// Serialization.

size_t BlockedIndex::serialized_bytes() const {
  return kHeaderSize + ComputeLayout(n_, token_count_, distinct_size_count_,
                                     block_count_, blob_size_)
                           .total;
}

std::string BlockedIndex::Serialize() const {
  const Layout lay = ComputeLayout(n_, token_count_, distinct_size_count_,
                                   block_count_, blob_size_);
  const uint8_t* body = reinterpret_cast<const uint8_t*>(items_);
  IndexHeader header{};
  header.magic = kMagic;
  header.version = kFormatVersion;
  header.header_size = static_cast<uint32_t>(kHeaderSize);
  header.n = n_;
  header.token_count = token_count_;
  header.distinct_size_count = distinct_size_count_;
  header.block_count = block_count_;
  header.blob_bytes = blob_size_;
  header.posting_count = posting_count_;
  header.max_sig_size = max_sig_size_;
  header.flags = 0;
  header.body_size = lay.total;
  header.pred_name_hash = Fnv1a64(pred_->name(), kIndexFnvBasis);
  header.body_crc32 = lay.total > 0 ? Crc32(body, lay.total) : 0;
  std::string out(kHeaderSize + lay.total, '\0');
  std::memcpy(out.data(), &header, kHeaderSize);
  header.header_crc32 =
      Crc32(reinterpret_cast<const uint8_t*>(out.data()), kHeaderSize - 4);
  std::memcpy(out.data(), &header, kHeaderSize);
  if (lay.total > 0) std::memcpy(out.data() + kHeaderSize, body, lay.total);
  return out;
}

Status BlockedIndex::SerializeToFile(const std::string& path) const {
  const std::string image = Serialize();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  const size_t written = image.empty()
                             ? 0
                             : std::fwrite(image.data(), 1, image.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != image.size() || !closed) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

Status BlockedIndex::Validate(size_t record_count) const {
  for (size_t i = 0; i < n_; ++i) {
    if (items_[i] >= record_count) {
      return Status::InvalidArgument("index item out of corpus range");
    }
    if (rank_[i] >= n_ || order_[i] >= n_) {
      return Status::InvalidArgument("index permutation out of range");
    }
  }
  for (size_t i = 0; i < n_; ++i) {
    if (order_[rank_[i]] != i) {
      return Status::InvalidArgument("index permutation is not a bijection");
    }
  }
  uint32_t max_seen = 0;
  for (size_t ip = 0; ip < n_; ++ip) {
    const uint32_t z = sig_size_[ip];
    if (z > max_sig_size_) {
      return Status::InvalidArgument("signature size above declared maximum");
    }
    if (ip > 0 && z < sig_size_[ip - 1]) {
      // The per-class enumeration binary-searches this array; items must be
      // ordered by signature size.
      return Status::InvalidArgument("items are not ordered by size class");
    }
    max_seen = std::max(max_seen, z);
    if (!std::binary_search(distinct_sizes_,
                            distinct_sizes_ + distinct_size_count_, z)) {
      return Status::InvalidArgument(
          "signature size missing from distinct-size table");
    }
  }
  if (n_ > 0 && max_seen != max_sig_size_) {
    return Status::InvalidArgument("declared max signature size is inflated");
  }
  for (size_t i = 0; i + 1 < distinct_size_count_; ++i) {
    if (distinct_sizes_[i] >= distinct_sizes_[i + 1]) {
      return Status::InvalidArgument("distinct-size table is not sorted");
    }
  }
  if (distinct_size_count_ > 0 &&
      distinct_sizes_[distinct_size_count_ - 1] > max_sig_size_) {
    return Status::InvalidArgument("distinct-size table above maximum");
  }

  uint64_t postings = 0;
  uint64_t next_block = 0;
  uint64_t next_blob = 0;
  for (size_t t = 0; t < token_count_; ++t) {
    const ListMeta& lm = lists_[t];
    if (lm.count > n_) {
      return Status::InvalidArgument("posting list longer than the corpus");
    }
    if (lm.first_block != next_block || lm.blob_begin != next_blob) {
      return Status::InvalidArgument("posting-list table is not contiguous");
    }
    // Blocks are variable-length (capped at kBlockSize, never spanning a
    // size-class boundary), so the list's block span is derived from the
    // next list's first block; walk it and cross-check the posting count.
    const uint32_t nb = ListBlockCount(t);
    if (lm.first_block + static_cast<uint64_t>(nb) > block_count_ ||
        nb > lm.count) {
      return Status::InvalidArgument("block table overflow");
    }
    next_block += nb;
    postings += lm.count;
    uint32_t prev_end = 0;
    uint32_t prev_sig = 0;
    uint32_t prev_rank = 0;
    uint64_t in_blocks = 0;
    for (uint32_t b = 0; b < nb; ++b) {
      const BlockMeta& bm = blocks_[lm.first_block + b];
      if (bm.count == 0 || bm.count > kBlockSize) {
        return Status::InvalidArgument("block count out of range");
      }
      in_blocks += bm.count;
      if (bm.blob_end_rel < prev_end) {
        return Status::InvalidArgument("block byte extents are not monotone");
      }
      if (bm.last_pos >= n_) {
        return Status::InvalidArgument("block position out of range");
      }
      if (bm.min_sig > bm.max_sig || bm.max_sig > max_sig_size_) {
        return Status::InvalidArgument("block signature range is malformed");
      }
      // The class-segment binary search needs min_sig nondecreasing along
      // the list; the rank-prefix binary search needs min_rank
      // nondecreasing within each class segment.
      if (b > 0 && bm.min_sig < prev_sig) {
        return Status::InvalidArgument("block classes are not ordered");
      }
      if (b > 0 && bm.min_sig == prev_sig && bm.min_rank < prev_rank) {
        return Status::InvalidArgument("block ranks are not ordered");
      }
      if (bm.min_rank >= std::max<uint32_t>(bm.max_sig, 1)) {
        return Status::InvalidArgument("block rank exceeds signature size");
      }
      prev_end = bm.blob_end_rel;
      prev_sig = bm.min_sig;
      prev_rank = bm.min_rank;
    }
    if (in_blocks != lm.count) {
      return Status::InvalidArgument("block counts disagree with their list");
    }
    if (lm.blob_begin + prev_end > blob_size_) {
      return Status::InvalidArgument("posting blob extent out of range");
    }
    next_blob = lm.blob_begin + prev_end;
  }
  if (next_block != block_count_) {
    return Status::InvalidArgument("dangling blocks after the last list");
  }
  if (next_blob != blob_size_) {
    return Status::InvalidArgument("dangling bytes after the last list");
  }
  if (postings != posting_count_) {
    return Status::InvalidArgument("posting count disagrees with the lists");
  }
  return Status::OK();
}

namespace {

Status CheckHeader(const IndexHeader& header, const uint8_t* data,
                   size_t size, const PairPredicate& pred) {
  if (header.magic != kMagic) {
    return Status::InvalidArgument("not a serialized blocked index");
  }
  if (header.version != kFormatVersion) {
    return Status::InvalidArgument("unsupported blocked-index version");
  }
  if (header.header_size != kHeaderSize) {
    return Status::InvalidArgument("unexpected header size");
  }
  if (Crc32(data, kHeaderSize - 4) != header.header_crc32) {
    return Status::InvalidArgument("header checksum mismatch");
  }
  // Cap every count so the layout arithmetic below cannot overflow.
  constexpr uint64_t kCap = uint64_t{1} << 40;
  if (header.n > kCap || header.token_count > kCap ||
      header.distinct_size_count > kCap || header.block_count > kCap ||
      header.blob_bytes > kCap || header.posting_count > kCap ||
      header.body_size > kCap) {
    return Status::InvalidArgument("header counts out of range");
  }
  if (header.n > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("too many items for the position width");
  }
  const Layout lay =
      ComputeLayout(header.n, header.token_count, header.distinct_size_count,
                    header.block_count, header.blob_bytes);
  if (header.body_size != lay.total ||
      size != kHeaderSize + header.body_size) {
    return Status::InvalidArgument("image size disagrees with the header");
  }
  if (header.body_size > 0 &&
      Crc32(data + kHeaderSize, header.body_size) != header.body_crc32) {
    return Status::InvalidArgument("body checksum mismatch");
  }
  if (header.pred_name_hash != Fnv1a64(pred.name(), kIndexFnvBasis)) {
    return Status::InvalidArgument(
        "index was built under a different predicate");
  }
  return Status::OK();
}

}  // namespace

StatusOr<BlockedIndex> BlockedIndex::Deserialize(const PairPredicate& pred,
                                                 size_t record_count,
                                                 std::string bytes) {
  if (bytes.size() < kHeaderSize) {
    return Status::InvalidArgument("truncated blocked-index image");
  }
  auto image = std::make_unique<const std::string>(std::move(bytes));
  const uint8_t* data = reinterpret_cast<const uint8_t*>(image->data());
  IndexHeader header;
  std::memcpy(&header, data, kHeaderSize);
  TOPKDUP_RETURN_IF_ERROR(CheckHeader(header, data, image->size(), pred));
  BlockedIndex index;
  index.pred_ = &pred;
  index.image_ = std::move(image);
  index.n_ = header.n;
  index.token_count_ = header.token_count;
  index.distinct_size_count_ = header.distinct_size_count;
  index.block_count_ = header.block_count;
  index.blob_size_ = header.blob_bytes;
  index.posting_count_ = header.posting_count;
  index.max_sig_size_ = header.max_sig_size;
  index.BindViews(data + kHeaderSize, header.body_size);
  TOPKDUP_RETURN_IF_ERROR(index.Validate(record_count));
  TOPKDUP_RETURN_IF_ERROR(index.CopySignatures());
  return index;
}

StatusOr<BlockedIndex> BlockedIndex::LoadFromFile(const PairPredicate& pred,
                                                  size_t record_count,
                                                  const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) {
    return Status::IOError("cannot open " + path);
  }
  const std::streamoff size = in.tellg();
  if (size < 0) {
    return Status::IOError("cannot size " + path);
  }
  std::string bytes(static_cast<size_t>(size), '\0');
  in.seekg(0);
  if (!in.read(bytes.data(), size)) {
    return Status::IOError("cannot read " + path);
  }
  return Deserialize(pred, record_count, std::move(bytes));
}

}  // namespace topkdup::predicates
