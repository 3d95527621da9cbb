#ifndef TOPKDUP_CLUSTER_PAIR_SCORES_H_
#define TOPKDUP_CLUSTER_PAIR_SCORES_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace topkdup::cluster {

/// One stored score P(i, j) of an unordered item pair, i != j.
struct ScoredPair {
  uint32_t i = 0;
  uint32_t j = 0;
  double score = 0.0;
};

/// Sparse symmetric matrix of signed pairwise duplicate scores P(i, j) over
/// items 0..n-1 (paper §5.1): positive means "likely duplicates", negative
/// "likely distinct", magnitude is confidence. Immutable once built.
///
/// Pairs that were never stored (typically: pairs failing the necessary
/// predicate) take `default_score()`, which must be <= 0 — an unstored pair
/// can never be evidence *for* merging.
///
/// Stored as CSR: one flat array of (other, score) entries, two per pair,
/// grouped by row. Row i lists the pairs touching i in input order — list
/// by list, and within a list in list order. Rows are deliberately not
/// sorted by column: the greedy embedding and the segment scorer sum a
/// row's scores in row order, so the input order fixes their
/// floating-point results.
class PairScores {
 public:
  /// One stored entry of a row: the other item and the pair's score. A
  /// trivial type, so the entry array can be allocated without a fill and
  /// first touched by the parallel scatter.
  struct Neighbor {
    uint32_t first;
    double second;
    friend bool operator==(const Neighbor&, const Neighbor&) = default;
  };

  /// Builds the matrix from pair lists (typically one per parallel scoring
  /// shard; they are counted and scattered into rows in parallel). Each
  /// unordered pair appears at most once overall, with i != j and both
  /// below n.
  PairScores(size_t n, double default_score,
             std::span<const std::vector<ScoredPair>> pair_lists);

  /// Builds the matrix from one pair list.
  explicit PairScores(size_t n, double default_score = 0.0,
                      const std::vector<ScoredPair>& pairs = {});

  size_t item_count() const { return n_; }

  /// Stored score, or default_score() when the pair was never stored; 0
  /// when i == j. Scans the shorter of the two rows.
  double Get(size_t i, size_t j) const;

  bool Has(size_t i, size_t j) const;

  double default_score() const { return default_score_; }

  /// Stored neighbors of item i as (other, score) pairs, in row order
  /// (see the class comment).
  std::span<const Neighbor> Neighbors(size_t i) const {
    return {entries_.get() + row_start_[i], entries_.get() + row_start_[i + 1]};
  }

  /// Number of stored (unordered) pairs.
  size_t stored_pair_count() const { return pair_count_; }

  /// Sum over stored pairs (t, j) with negative score of that score
  /// (a non-positive number), accumulated in row order. Used by group
  /// scoring.
  double StoredNegativeIncident(size_t i) const { return neg_incident_[i]; }

 private:
  /// j's entry in row i, or nullptr when the pair is not stored.
  const Neighbor* Find(size_t i, size_t j) const;

  size_t n_;
  double default_score_;
  size_t pair_count_ = 0;
  std::vector<size_t> row_start_;  // n + 1 offsets into entries_.
  std::unique_ptr<Neighbor[]> entries_;  // row_start_[n] entries.
  std::vector<double> neg_incident_;
};

/// A partition of items: labels[i] is the cluster id of item i; ids are
/// dense 0..num_clusters-1 after Canonicalize.
using Labels = std::vector<int>;

/// Renumbers labels to dense ids in first-appearance order.
Labels Canonicalize(const Labels& labels);

/// Converts labels into member lists (cluster id -> items, ascending).
std::vector<std::vector<size_t>> LabelsToGroups(const Labels& labels);

/// Converts member lists into labels. Members must cover 0..n-1 disjointly.
Labels GroupsToLabels(const std::vector<std::vector<size_t>>& groups,
                      size_t n);

}  // namespace topkdup::cluster

#endif  // TOPKDUP_CLUSTER_PAIR_SCORES_H_
