#ifndef TOPKDUP_TOPK_ONLINE_H_
#define TOPKDUP_TOPK_ONLINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "dedup/streaming_collapse.h"
#include "predicates/corpus.h"
#include "record/record.h"
#include "topk/topk_query.h"

namespace topkdup::topk {

/// TopK count queries over an append-only mention stream — the paper's
/// "constantly evolving sources" setting. Mentions are ingested one at a
/// time; the sufficient-predicate collapse is maintained incrementally, so
/// a query only ever pays for pruning + clustering over the *collapsed
/// groups* (one representative record each), never a pass over all
/// mentions.
///
/// The caller configures the stream analog of a predicate level:
///  - a blocking signature + equality test for the sufficient predicate
///    (evaluated incrementally on raw records), and
///  - factories that bind a necessary predicate and a pairwise scorer to
///    the small representative corpus rebuilt per query.
///
/// Concurrency discipline (what the resident QueryService relies on):
/// AddMention and TakeSnapshot mutate the stream and must be serialized by
/// the caller (a writer lock); QuerySnapshot is const, touches only the
/// snapshot and the Config factories, and may run concurrently with
/// ingestion and with other QuerySnapshot calls. The factories must
/// therefore be safe to invoke concurrently (stateless closures are).
class OnlineTopK {
 public:
  struct Config {
    /// Blocking-signature tokens of a record under the sufficient
    /// predicate (e.g. the normalized join key).
    std::function<std::vector<std::string>(const record::Record&)>
        sufficient_signature;
    /// Exact sufficient decision for two records.
    std::function<bool(const record::Record&, const record::Record&)>
        sufficient_match;
    /// Builds the necessary predicate over the representatives corpus.
    std::function<std::unique_ptr<predicates::PairPredicate>(
        const predicates::Corpus&)>
        necessary_factory;
    /// Builds the final scorer P over the representatives dataset.
    std::function<PairScoreFn(const record::Dataset&)> scorer_factory;
  };

  OnlineTopK(record::Schema schema, Config config);

  /// Ingests one mention. O(signature-postings) amortized. Fails only on
  /// a mention whose field count differs from the stream schema
  /// (InvalidArgument), leaving the stream unchanged. Callers that persist
  /// the stream (serve::QueryService with a WAL) check the field count
  /// before they log the mention.
  Status AddMention(record::Record mention);

  size_t mention_count() const {
    return mention_count_.load(std::memory_order_acquire);
  }
  const record::Schema& schema() const { return schema_; }
  size_t group_count() const { return collapse_->group_count(); }
  /// Total weight ingested so far.
  double total_weight() const { return total_weight_; }

  /// The i-th ingested mention (answer member ids index into this).
  const record::Record& mention(size_t i) const { return mentions_[i]; }

  /// Frozen view of the collapsed stream: everything QuerySnapshot needs,
  /// detached from the live ingest state.
  struct Snapshot {
    /// One representative record per collapsed group, weight = the
    /// group's total weight.
    record::Dataset reps;
    /// Mention ids per representative (parallel to `reps`).
    std::vector<std::vector<size_t>> group_members;
    /// Per-mention weights at capture (for answer id translation).
    std::vector<double> mention_weights;
    size_t mention_count = 0;
    double total_weight = 0.0;
  };

  /// Materializes the current groups. Mutates internal union-find state
  /// (path compression): serialize with AddMention under the same writer
  /// lock. Cost is O(mentions), far below a query over the groups.
  Snapshot TakeSnapshot();

  /// An immutable published epoch: a frozen Snapshot stamped with the
  /// monotonically increasing epoch id it was published under. Shared
  /// read-only between all pinned readers; never mutated after publish.
  struct EpochSnapshot {
    uint64_t epoch = 0;
    Snapshot snapshot;
  };

  /// Builds a fresh snapshot of the current stream state and publishes it
  /// as epoch `current_epoch() + 1` via a pointer swap. Must be serialized
  /// with AddMention/TakeSnapshot under the caller's writer lock (it calls
  /// TakeSnapshot). The swap itself holds only the tiny publish mutex —
  /// readers pinning concurrently see either the old or the new epoch,
  /// never partial state. Returns the published epoch id.
  uint64_t PublishEpoch();

  /// Pins the most recently published epoch: a shared_ptr copy under the
  /// publish mutex (nanoseconds — never held across snapshot builds or
  /// IO), so readers never contend with the writer lock. The refcount is
  /// the retire protocol: the epoch's memory lives until the last pinned
  /// reader drops its reference. Returns nullptr if nothing has been
  /// published yet.
  std::shared_ptr<const EpochSnapshot> PinEpoch() const;

  /// The most recently published epoch id (0 before the first publish).
  uint64_t current_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Fast-forwards the epoch counter to max(current, epoch) without
  /// publishing. Recovery uses this to re-establish the counter from the
  /// WAL frames' epoch stamps so post-restart epochs stay monotone.
  void RestoreEpochCounter(uint64_t epoch);

  /// Answers the TopK count query over a snapshot. Member ids in the
  /// result refer to ingestion order at capture. Const and safe to run
  /// concurrently with ingestion — cost is a function of the snapshot's
  /// *group* count, not mentions.
  StatusOr<TopKCountResult> QuerySnapshot(
      const Snapshot& snapshot, const TopKCountOptions& options,
      const QueryContext& context = {}) const;

  /// TakeSnapshot + QuerySnapshot in one call (single-threaded use).
  StatusOr<TopKCountResult> Query(const TopKCountOptions& options,
                                  const QueryContext& context = {});

 private:
  record::Schema schema_;
  Config config_;
  record::Dataset mentions_;
  double total_weight_ = 0.0;
  std::unique_ptr<dedup::StreamingCollapse> collapse_;

  /// Lock-free mirror of mentions_.size() so health probes and readers
  /// never need the writer lock just to ask "is there anything here".
  std::atomic<size_t> mention_count_{0};

  /// Epoch publication state. publish_mu_ guards only the published_
  /// pointer swap/copy; epoch_ is the acquire-visible id of published_.
  std::atomic<uint64_t> epoch_{0};
  mutable std::mutex publish_mu_;
  std::shared_ptr<const EpochSnapshot> published_;
};

/// Wire encoding of one mention, the payload of a WAL frame:
/// [f64 weight][i64 entity_id][u32 nfields][(u32 len, bytes)...], all
/// little-endian.
std::string EncodeMention(const record::Record& mention);

/// Inverse of EncodeMention. Truncated or internally inconsistent payloads
/// (lengths running past the end, trailing bytes) are InvalidArgument.
StatusOr<record::Record> DecodeMention(std::string_view payload);

}  // namespace topkdup::topk

#endif  // TOPKDUP_TOPK_ONLINE_H_
