#ifndef TOPKDUP_COMMON_QUERY_CONTEXT_H_
#define TOPKDUP_COMMON_QUERY_CONTEXT_H_

#include <cstdint>

namespace topkdup {

class Deadline;
namespace obs {
class ExplainRecorder;
}  // namespace obs
namespace predicates {
class IndexCache;
}  // namespace predicates

/// The cross-cutting state of one query. An entry point (PrunedDedup,
/// TopKCountQuery, TopKRankQuery, ThresholdedRankQuery,
/// OnlineTopK::QuerySnapshot) takes it once and hands it to each stage
/// that uses two or more of its values; a leaf stage that uses one takes
/// only that value. Every field is optional: the default context runs a
/// one-shot query. The thread budget (ScopedParallelism, or
/// TopKCountOptions::threads), the CPU meter and the counter block are not
/// here: they are thread-local attachments that common/parallel hands to
/// pool workers once per region.
struct QueryContext {
  /// Query budget, polled cooperatively (not owned; null = unlimited). On
  /// expiry stages stop with a consistent partial state; see
  /// common/deadline.h.
  const Deadline* deadline = nullptr;
  /// Receives the query's explain events (not owned; null = none): the
  /// only way to get an explain report. The caller builds the
  /// obs::ExplainRecorder (its sample rate, and the query id to stamp),
  /// passes it here and calls Finish() after the query returns.
  obs::ExplainRecorder* recorder = nullptr;
  /// Shares every stage's blocking index across queries (not owned; null
  /// builds a query-local index per stage). See predicates/index_cache.h.
  predicates::IndexCache* index_cache = nullptr;
  /// Owning service query id, stamped on the query's trace spans and
  /// explain report so they join its request-log line. 0 adds nothing.
  uint64_t query_id = 0;
};

}  // namespace topkdup

#endif  // TOPKDUP_COMMON_QUERY_CONTEXT_H_
