#include "segment/topk_dp.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <span>
#include <string>
#include <unordered_set>

#include "common/check.h"
#include "common/parallel.h"
#include "common/strings.h"

namespace topkdup::segment {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Largest r either DP accepts: an entry names its predecessor's rank in
/// one byte.
constexpr int kMaxR = 255;

/// Candidate pushes a shard of the TopK DP's threshold fan-out makes at
/// least: a shard fills that many pushes' worth of threshold tables back
/// to back, so a DP whose whole threshold set stays below it runs as one
/// inline shard.
constexpr uint64_t kMinShardPushes = uint64_t{1} << 23;

/// One ranked entry of a DP cell.
struct Entry {
  double score = kNegInf;
  uint32_t prev_i = 0;    // Cell position the last segment started from.
  uint8_t prev_rank = 0;  // Entry rank within the predecessor cell.
  bool answer = false;    // Last segment designated an answer segment.
};

/// The top-r entries of every cell of a DP table, highest score first, in
/// one flat cells × r array that is reused across tables.
class TopRCells {
 public:
  TopRCells(size_t cells, int r)
      : r_(static_cast<size_t>(r)), entries_(cells * r_), counts_(cells, 0) {}

  /// Empties every cell.
  void Clear() { std::fill(counts_.begin(), counts_.end(), 0); }

  std::span<const Entry> Cell(size_t cell) const {
    return {entries_.data() + cell * r_, counts_[cell]};
  }

  /// Inserts `e` after every entry scoring >= e.score, so among equal
  /// scores the earlier push ranks first, and keeps the top r.
  void Push(size_t cell, const Entry& e) {
    if (e.score == kNegInf) return;
    Entry* top = entries_.data() + cell * r_;
    size_t& count = counts_[cell];
    Entry* at = std::upper_bound(
        top, top + count, e,
        [](const Entry& a, const Entry& b) { return a.score > b.score; });
    if (at == top + r_) return;
    std::move_backward(at, top + std::min(count, r_ - 1),
                       top + std::min(count + 1, r_));
    *at = e;
    count = std::min(count + 1, r_);
  }

 private:
  size_t r_;
  std::vector<Entry> entries_;
  std::vector<size_t> counts_;
};

std::vector<double> CollectThresholds(const std::vector<double>& prefix,
                                      size_t n, size_t band,
                                      size_t max_thresholds) {
  std::vector<double> values;
  values.push_back(0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < std::min(n, i + band); ++j) {
      values.push_back(prefix[j + 1] - prefix[i]);
    }
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  if (max_thresholds == 0 || values.size() <= max_thresholds) return values;

  // Subsample: keep quantiles plus the heaviest values (answer segments
  // are heavy, so the critical threshold is usually near the top).
  std::vector<double> kept;
  const size_t head = max_thresholds / 4;
  const size_t quantiles = max_thresholds - head;
  for (size_t q = 0; q < quantiles; ++q) {
    kept.push_back(values[q * (values.size() - 1) / (quantiles - 1)]);
  }
  for (size_t h = 0; h < head; ++h) {
    kept.push_back(values[values.size() - 1 - h]);
  }
  std::sort(kept.begin(), kept.end());
  kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
  return kept;
}

/// Appends "begin-end{A|s}|" for one backtracked span.
void AppendSignature(uint32_t begin, size_t end, bool answer,
                     std::string* signature) {
  char buf[48];
  char* p = std::to_chars(buf, buf + 20, begin).ptr;
  *p++ = '-';
  p = std::to_chars(p, p + 20, end).ptr;
  *p++ = answer ? 'A' : 's';
  *p++ = '|';
  signature->append(buf, p);
}

/// One threshold's final answers, each with its dedupe signature (spans
/// plus answer designations).
struct ThresholdAnswers {
  bool complete = false;
  std::vector<std::pair<std::string, TopKAnswer>> answers;
};

}  // namespace

cluster::Labels SpansToLabels(const std::vector<Span>& spans,
                              const std::vector<size_t>& order) {
  cluster::Labels labels(order.size(), -1);
  for (size_t s = 0; s < spans.size(); ++s) {
    for (size_t p = spans[s].begin; p <= spans[s].end; ++p) {
      labels[order[p]] = static_cast<int>(s);
    }
  }
  for (int l : labels) TOPKDUP_CHECK(l >= 0);
  return labels;
}

StatusOr<std::vector<Segmentation>> BestSegmentations(
    const SegmentScorer& scorer, int r) {
  if (r < 1) {
    return Status::InvalidArgument("BestSegmentations: r must be >= 1");
  }
  if (r > kMaxR) {
    return Status::InvalidArgument("BestSegmentations: r > 255 unsupported");
  }
  const size_t n = scorer.size();
  const size_t band = scorer.band();
  std::vector<Segmentation> out;
  if (n == 0) {
    out.push_back({0.0, {}});
    return out;
  }

  // Cell i: top-r scores of segmenting the first i positions.
  TopRCells cells(n + 1, r);
  cells.Push(0, Entry{0.0, 0, 0, false});
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= std::min(band, i); ++j) {
      const double seg = scorer.Score(i - j, i - 1);
      const std::span<const Entry> prev = cells.Cell(i - j);
      for (size_t rank = 0; rank < prev.size(); ++rank) {
        cells.Push(i, Entry{prev[rank].score + seg,
                            static_cast<uint32_t>(i - j),
                            static_cast<uint8_t>(rank), false});
      }
    }
  }

  const std::span<const Entry> final_cell = cells.Cell(n);
  for (size_t rank = 0; rank < final_cell.size(); ++rank) {
    Segmentation seg;
    seg.score = final_cell[rank].score;
    size_t i = n;
    size_t rk = rank;
    while (i > 0) {
      const Entry& e = cells.Cell(i)[rk];
      seg.spans.push_back(Span{e.prev_i, i - 1});
      rk = e.prev_rank;
      i = e.prev_i;
    }
    std::reverse(seg.spans.begin(), seg.spans.end());
    out.push_back(std::move(seg));
  }
  return out;
}

StatusOr<std::vector<TopKAnswer>> TopKSegmentation(
    const SegmentScorer& scorer, const std::vector<size_t>& order,
    const std::vector<double>& weights, const TopKDpOptions& options) {
  const size_t n = scorer.size();
  const size_t band = scorer.band();
  const int k = options.k;
  const int r = options.r;
  if (k < 1) return Status::InvalidArgument("TopKSegmentation: k must be >= 1");
  if (r < 1) return Status::InvalidArgument("TopKSegmentation: r must be >= 1");
  if (r > kMaxR) {
    return Status::InvalidArgument("TopKSegmentation: r > 255 unsupported");
  }
  if (order.size() != n || weights.size() < n) {
    return Status::InvalidArgument(
        "TopKSegmentation: order/weights sizes do not match the scorer");
  }
  if (n < static_cast<size_t>(k)) {
    return Status::FailedPrecondition(StrFormat(
        "TopKSegmentation: %zu positions cannot form %d answer groups", n,
        k));
  }

  // Prefix weights over positions.
  std::vector<double> prefix(n + 1, 0.0);
  for (size_t p = 0; p < n; ++p) {
    prefix[p + 1] = prefix[p] + weights[order[p]];
  }
  auto span_weight = [&](size_t begin, size_t end) {
    return prefix[end + 1] - prefix[begin];
  };

  const std::vector<double> thresholds =
      CollectThresholds(prefix, n, band, options.max_thresholds);

  // Work units of one threshold's table: one per (row, segment length).
  uint64_t table_work = 0;
  for (size_t i = 1; i <= n; ++i) table_work += std::min(band, i);

  // How many leading thresholds run is decided here, serially, so a
  // work-budget stop is the same at any thread count: the budget must
  // cover a threshold's whole table.
  const Deadline* deadline = options.deadline;
  size_t runnable = thresholds.size();
  uint64_t budget_left = 0;
  bool budget_cut = false;
  if (deadline != nullptr) {
    if (deadline->Expired()) {
      runnable = 0;
    } else if (deadline->has_work_budget()) {
      budget_left = deadline->work_budget() - deadline->work_charged();
      if (budget_left / table_work < runnable) {
        runnable = static_cast<size_t>(budget_left / table_work);
        budget_cut = true;
      }
    }
  }

  // Cell (kk, i), at index i * (k + 1) + kk: top-r over segmentations of
  // the first i positions with exactly kk answer segments, all non-answer
  // segments weighing <= threshold and all answer segments > threshold.
  const size_t layers = static_cast<size_t>(k) + 1;
  auto cell = [&](size_t kk, size_t i) { return i * layers + kk; };
  // Fills the table for `threshold`; false when a wall-clock expiry
  // interrupted it (an interrupted table is discarded whole — a
  // partially filled final cell could surface a worse-than-reported
  // answer).
  auto fill = [&](double threshold, TopRCells* cells) {
    cells->Clear();
    cells->Push(cell(0, 0), Entry{0.0, 0, 0, false});
    for (size_t i = 1; i <= n; ++i) {
      if ((i & 0x3f) == 0 && deadline != nullptr &&
          deadline->ExpiredUrgent()) {
        return false;
      }
      for (size_t j = 1; j <= std::min(band, i); ++j) {
        const double seg_score = scorer.Score(i - j, i - 1);
        const bool is_answer = span_weight(i - j, i - 1) > threshold;
        for (size_t kk = is_answer ? 1 : 0; kk < layers; ++kk) {
          const size_t from_k = is_answer ? kk - 1 : kk;
          const std::span<const Entry> prev =
              cells->Cell(cell(from_k, i - j));
          for (size_t rank = 0; rank < prev.size(); ++rank) {
            cells->Push(cell(kk, i),
                        Entry{prev[rank].score + seg_score,
                              static_cast<uint32_t>(i - j),
                              static_cast<uint8_t>(rank), is_answer});
          }
        }
      }
    }
    return true;
  };
  // Backtracks each final entry of a filled table.
  auto backtrack = [&](double threshold, const TopRCells& cells) {
    ThresholdAnswers out;
    const std::span<const Entry> final_cell =
        cells.Cell(cell(static_cast<size_t>(k), n));
    for (size_t rank = 0; rank < final_cell.size(); ++rank) {
      TopKAnswer ans;
      ans.score = final_cell[rank].score;
      ans.threshold = threshold;
      size_t i = n;
      size_t rk = rank;
      size_t kk = static_cast<size_t>(k);
      std::string signature;
      while (i > 0) {
        const Entry& e = cells.Cell(cell(kk, i))[rk];
        const Span span{e.prev_i, i - 1};
        ans.segmentation.push_back(span);
        if (e.answer) {
          ans.answer.push_back(span);
          --kk;
        }
        AppendSignature(e.prev_i, i - 1, e.answer, &signature);
        rk = e.prev_rank;
        i = e.prev_i;
      }
      std::reverse(ans.segmentation.begin(), ans.segmentation.end());
      std::sort(ans.answer.begin(), ans.answer.end(),
                [&](const Span& a, const Span& b) {
                  return span_weight(a.begin, a.end) >
                         span_weight(b.begin, b.end);
                });
      out.answers.emplace_back(std::move(signature), std::move(ans));
    }
    out.complete = true;
    return out;
  };

  // Thresholds are independent tables, filled in parallel. A shard's
  // thresholds share one table allocation; the grain follows the table
  // size, so small DPs run as one inline shard.
  const uint64_t pushes_per_table =
      table_work * layers * static_cast<uint64_t>(r);
  const size_t grain =
      static_cast<size_t>(std::max<uint64_t>(1, kMinShardPushes /
                                                    pushes_per_table));
  std::vector<ThresholdAnswers> per_threshold(runnable);
  ParallelForShards(0, runnable, grain, [&](size_t b, size_t e, size_t) {
    TopRCells cells(layers * (n + 1), r);
    for (size_t t = b; t < e; ++t) {
      if (deadline != nullptr && deadline->ExpiredUrgent()) return;
      if (!fill(thresholds[t], &cells)) return;
      per_threshold[t] = backtrack(thresholds[t], cells);
    }
  });

  // Merge in threshold order, deduping identical (segmentation,
  // answer-designation) pairs that several thresholds produce. Only the
  // thresholds completed before the first interrupted one count, so the
  // result is the prefix a serial run would have reached.
  std::vector<TopKAnswer> results;
  std::unordered_set<std::string> seen;
  size_t completed = 0;
  for (ThresholdAnswers& threshold : per_threshold) {
    if (!threshold.complete) break;
    ++completed;
    for (auto& [signature, answer] : threshold.answers) {
      if (seen.insert(std::move(signature)).second) {
        results.push_back(std::move(answer));
      }
    }
  }
  if (deadline != nullptr) {
    deadline->ChargeWork(completed * table_work);
    if (budget_cut && completed == runnable) {
      // The budget cannot cover the next table: spend what is left so the
      // stop latches as a work-budget expiry.
      deadline->ChargeWork(budget_left - completed * table_work);
      deadline->Expired();
    }
  }

  std::sort(results.begin(), results.end(),
            [](const TopKAnswer& a, const TopKAnswer& b) {
              return a.score > b.score;
            });
  if (results.size() > static_cast<size_t>(r)) {
    results.resize(static_cast<size_t>(r));
  }
  return results;
}

}  // namespace topkdup::segment
