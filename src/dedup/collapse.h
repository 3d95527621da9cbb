#ifndef TOPKDUP_DEDUP_COLLAPSE_H_
#define TOPKDUP_DEDUP_COLLAPSE_H_

#include <vector>

#include "common/query_context.h"
#include "dedup/group.h"
#include "predicates/pair_predicate.h"

namespace topkdup::dedup {

/// Collapses `groups` by the transitive closure of the sufficient predicate
/// evaluated on group representatives (paper §4.1). Candidate pairs come
/// from the predicate's blocking signatures, never a Cartesian product.
///
/// The merged group's representative is the representative of its heaviest
/// constituent; weights and member lists are unioned. The result is sorted
/// by decreasing weight.
///
/// The context's recorder, when set, receives the collapse summary plus
/// sampled merge events. Merges are reported from the final set partition
/// (not edge discovery order), so the recorded events are identical
/// whether the closure was computed serially or in parallel.
///
/// The context's deadline, when set, is polled at shard boundaries; on
/// expiry the remaining shards contribute no edges and the function
/// returns the partial closure. An under-collapsed partition is still a
/// valid partition (entities are merely split, never wrongly merged), so
/// every downstream bound stays sound. Predicate evaluations are charged to
/// the deadline as work units; with a deadline present the closure always
/// runs the shard-local edge-collection path (even single-threaded) so the
/// charged work is identical at any thread count.
std::vector<Group> Collapse(const std::vector<Group>& groups,
                            const predicates::PairPredicate& sufficient,
                            const QueryContext& context = {});

}  // namespace topkdup::dedup

#endif  // TOPKDUP_DEDUP_COLLAPSE_H_
