// Datasets, predicate levels and scorers of the benchmark workloads, and
// the canonical answer digest the correctness checks compare.
#ifndef TOPKDUP_QUERYBENCH_FIXTURES_H_
#define TOPKDUP_QUERYBENCH_FIXTURES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "record/record.h"
#include "serve/service.h"
#include "topk/online.h"
#include "topk/topk_query.h"

namespace topkdup::querybench {

/// Signed scorer over field `field` of `data`: 10 * (JaroWinkler of the
/// normalized values - 0.85). `data` must outlive the scorer.
topk::PairScoreFn NameScorer(const record::Dataset* data, int field);

/// The generators run at their default seeds, so every order seed sees the
/// same records and does the same work: a generator seed moves the pruned
/// group count n' by up to 50% (5.9k to 8.9k on 20k citations), which
/// would swamp any regression bound. `order_seed` shuffles the record
/// order, which changes record ids, tie-breaks and memory layout.

/// `records` GenerateCitations records with records/4 authors, one level
/// (CitationS1 at 0.75 * MaxIdf, QGramOverlapPredicate(0, 0.6)) and the
/// Jaro-Winkler author scorer.
StatusOr<serve::DatasetBundle> MakeCitationBundle(size_t records,
                                                  uint64_t order_seed);

/// `records` GenerateAddresses records with records/4 entities, the
/// address stop words in the corpus, one level (AddressS1, AddressN1) and
/// the Jaro-Winkler name scorer.
StatusOr<serve::DatasetBundle> MakeAddressBundle(size_t records,
                                                 uint64_t order_seed);

/// Online citation-mention stream: sufficient predicate = equal normalized
/// author, necessary predicate = QGramOverlapPredicate(0, 0.6) over the
/// representatives, Jaro-Winkler author scorer.
std::unique_ptr<topk::OnlineTopK> MakeCitationStream(
    const record::Schema& schema);

/// Checks what every correct count answer satisfies: 1 to r answers in
/// non-increasing score order, each of k groups in non-increasing weight
/// order, whose members are distinct valid record ids and whose weight is
/// their weights' sum and lies in its count interval. Returns "" when all
/// hold, else the first violation.
std::string CheckAnswers(const std::vector<topk::TopKAnswerSet>& answers,
                         const std::vector<double>& record_weights, int k,
                         int r);

/// FNV-1a digest of the answers' canonical text: score, then each group's
/// weight, count interval and sorted members, groups ordered by weight and
/// then members (so ties in the library's sort cannot change the digest).
uint64_t AnswerDigest(const std::vector<topk::TopKAnswerSet>& answers);

}  // namespace topkdup::querybench

#endif  // TOPKDUP_QUERYBENCH_FIXTURES_H_
