// Reproduces Figure 6 of the paper: running time of the TopK count
// pipeline for increasing K under four levels of optimization on a subset
// of the citation records:
//   None                   - Cartesian product of records, final predicate
//                            on every pair, transitive closure.
//   Canopy                 - necessary predicate N1 as a canopy (blocked
//                            candidate pairs), final predicate on those.
//   Canopy+Collapse        - additionally collapse sure duplicates with
//                            S1/S2 first.
//   Canopy+Collapse+Prune  - full PrunedDedup (this paper) before the
//                            final predicate.
// Times include the final pairwise scoring + transitive clustering, as in
// the paper. Flags: --records --authors --seed --ks --none_cap --skip_none
// --threads --json=BENCH_fig6.json --metrics-json=PATH --trace-json=PATH
#include <cstdio>
#include <optional>
#include <string>

#include "bench_common.h"
#include "common/timer.h"
#include "datagen/citation_gen.h"
#include "dedup/collapse.h"
#include "dedup/pruned_dedup.h"
#include "dedup/union_find.h"
#include "predicates/blocked_index.h"
#include "predicates/citation.h"
#include "predicates/corpus.h"
#include "predicates/generic.h"
#include "learn/features.h"
#include "sim/similarity.h"
#include "text/tokenize.h"

namespace topkdup {
namespace {

/// The "expensive" final predicate P: a weighted combination of the full
/// similarity feature stack (word/q-gram Jaccard, TF-IDF cosine,
/// Jaro-Winkler, custom author and co-author similarities), mirroring the
/// learned classifier of §6.1.1. Its per-pair cost is what the pruning
/// pipeline amortizes.
class FinalPredicate {
 public:
  explicit FinalPredicate(const predicates::Corpus* corpus)
      : corpus_(corpus) {
    features_ = learn::StandardFieldFeatures(0, "author");
    auto coauthor = learn::StandardFieldFeatures(1, "coauthors");
    features_.insert(features_.end(), coauthor.begin(), coauthor.end());
    auto custom = learn::CitationCustomFeatures(0, 1);
    features_.insert(features_.end(), custom.begin(), custom.end());
    // Quadratic edit distance on both text fields — the kind of heavy
    // matcher the paper's learned P bundles (§6.1.1 uses JaroWinkler as a
    // cheap *approximation* of edit distance; the real thing is pricier).
    features_.push_back(
        {"author_lev", [](const predicates::Corpus& c, size_t a, size_t b) {
           return sim::LevenshteinSimilarity(
               text::NormalizeText(c.data()[a].field(0)),
               text::NormalizeText(c.data()[b].field(0)));
         }});
    features_.push_back(
        {"coauthor_lev", [](const predicates::Corpus& c, size_t a, size_t b) {
           return sim::LevenshteinSimilarity(
               text::NormalizeText(c.data()[a].field(1)),
               text::NormalizeText(c.data()[b].field(1)));
         }});
    // Fixed weights centered so that near-identical names score positive;
    // only the evaluation cost matters for this timing figure.
    weights_.assign(features_.size(), 1.0);
  }

  double Score(size_t a, size_t b) const {
    const std::vector<double> f =
        learn::Featurize(features_, *corpus_, a, b);
    double s = -4.0;
    for (size_t i = 0; i < f.size(); ++i) s += weights_[i] * f[i];
    return s;
  }

 private:
  const predicates::Corpus* corpus_;
  std::vector<learn::PairFeature> features_;
  std::vector<double> weights_;
};

/// Counts positive pairs + transitive closure over `items` (record ids),
/// evaluating P on every enumerated pair. Returns the wall time.
double CartesianDedup(const std::vector<size_t>& items,
                      const FinalPredicate& pred) {
  Timer timer;
  dedup::UnionFind uf(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    for (size_t j = i + 1; j < items.size(); ++j) {
      // Every pair is scored: downstream clustering (correlation, LP,
      // segmentation) consumes all scores, not just a spanning set.
      if (pred.Score(items[i], items[j]) > 0.0) uf.Union(i, j);
    }
  }
  return timer.ElapsedSeconds();
}

/// Canopy dedup: P on blocked candidate pairs that pass N, transitive
/// closure of positives.
double CanopyDedup(const std::vector<dedup::Group>& groups,
                   const predicates::PairPredicate& necessary,
                   const FinalPredicate& pred) {
  Timer timer;
  std::vector<size_t> reps(groups.size());
  for (size_t i = 0; i < groups.size(); ++i) reps[i] = groups[i].rep;
  predicates::BlockedIndex index(necessary, reps);
  dedup::UnionFind uf(groups.size());
  index.ForEachCandidatePair([&](size_t p, size_t q) {
    if (!necessary.Evaluate(reps[p], reps[q])) return;
    if (pred.Score(reps[p], reps[q]) > 0.0) uf.Union(p, q);
  });
  return timer.ElapsedSeconds();
}

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  datagen::CitationGenOptions gen;
  gen.num_records = static_cast<size_t>(flags.GetInt("records", 12000));
  gen.num_authors = static_cast<size_t>(
      flags.GetInt("authors", static_cast<int64_t>(gen.num_records / 5)));
  gen.seed = static_cast<uint64_t>(flags.GetInt("seed", 45000));
  // Mostly common-pool names: real citation data has dense name-collision
  // blocks, and it is exactly those blocks that make the un-pruned final
  // join expensive.
  gen.rare_name_fraction = flags.GetDouble("rare", 0.15);
  // Thin per-paper citation counts plus strong mention-popularity skew:
  // group weight then concentrates in the head entities, so tail blocks
  // (which drive the join cost) fall below M and actually prune.
  gen.count_pareto_alpha = flags.GetDouble("count_alpha", 2.5);
  gen.max_count = 50.0;
  gen.zipf_s = flags.GetDouble("zipf", 1.25);
  // Spread mentions across many variant renderings: when most mentions are
  // one canonical string, exact-match collapse alone solves the problem
  // and there is nothing left for pruning to save. Real extraction noise
  // is messier, which is precisely the regime the paper targets.
  gen.canonical_mention_prob = flags.GetDouble("canonical", 0.25);
  gen.max_variants = static_cast<int>(flags.GetInt("variants", 8));
  const std::vector<int> ks = flags.GetIntList("ks", {1, 10, 100, 1000});
  const size_t none_cap =
      static_cast<size_t>(flags.GetInt("none_cap", 1500));
  const bool skip_none = flags.GetBool("skip_none", false);
  const int threads = bench::ApplyThreadsFlag(flags);
  const std::string json_path = flags.GetString("json", "BENCH_fig6.json");
  const bench::Observability obs = bench::ApplyObservabilityFlags(flags);
  const bench::DeadlineFlags budget = bench::ApplyDeadlineFlags(flags);

  std::printf(
      "Figure 6: timing vs K on citation subset (records=%zu threads=%d)\n",
      gen.num_records, threads);
  auto data_or = datagen::GenerateCitations(gen);
  if (!data_or.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 data_or.status().ToString().c_str());
    return 1;
  }
  const record::Dataset& data = data_or.value();
  auto corpus_or = predicates::Corpus::Build(&data, {});
  if (!corpus_or.ok()) return 1;
  const predicates::Corpus& corpus = corpus_or.value();
  predicates::CitationFields fields;
  predicates::CitationS1 s1(&corpus, fields, 0.5 * corpus.MaxIdf(0));
  predicates::CitationS2 s2(&corpus, fields);
  predicates::QGramOverlapPredicate n1(&corpus, 0, 0.6);
  predicates::QGramOverlapPredicate n2(&corpus, 0, 0.6, true);
  FinalPredicate pred(&corpus);

  // K-independent methods, measured once.
  double time_none = -1.0;
  if (!skip_none) {
    std::vector<size_t> subset;
    for (size_t r = 0; r < std::min(none_cap, data.size()); ++r) {
      subset.push_back(r);
    }
    const double subset_time = CartesianDedup(subset, pred);
    // Quadratic extrapolation to the full record count, as running the
    // full Cartesian product is the very cost the paper's figure shows
    // dominating everything else.
    const double scale = static_cast<double>(data.size()) /
                         static_cast<double>(subset.size());
    time_none = subset_time * scale * scale;
    std::printf("None: %.2fs on %zu records -> %.1fs extrapolated to %zu\n",
                subset_time, subset.size(), time_none, data.size());
  }

  const std::vector<dedup::Group> singletons =
      dedup::MakeSingletonGroups(data);
  const double time_canopy = CanopyDedup(singletons, n1, pred);

  Timer collapse_timer;
  std::vector<dedup::Group> collapsed = dedup::Collapse(singletons, s1);
  collapsed = dedup::Collapse(collapsed, s2);
  const double collapse_seconds = collapse_timer.ElapsedSeconds();
  const double time_canopy_collapse =
      collapse_seconds + CanopyDedup(collapsed, n2, pred);

  bench::TablePrinter table(
      {"K", "None", "Canopy", "Canopy+Collapse", "Canopy+Collapse+Prune"},
      {5, 10, 10, 16, 22});
  std::printf("\nseconds per method\n");
  table.PrintHeader();
  std::vector<bench::BenchRun> runs;
  for (int k : ks) {
    Timer timer;
    dedup::PrunedDedupOptions options;
    options.k = k;
    std::optional<Deadline> run_deadline;
    QueryContext context;
    if (budget.active()) {
      run_deadline.emplace(budget.Make());
      context.deadline = &*run_deadline;
    }
    auto pruned_or =
        dedup::PrunedDedup(data, {{&s1, &n1}, {&s2, &n2}}, options, context);
    double time_pruned = -1.0;
    if (pruned_or.ok()) {
      bench::PrintDegradation(k, pruned_or.value().degradation);
      // Final predicate on the pruned groups, as Algorithm 2 step 9.
      CanopyDedup(pruned_or.value().groups, n2, pred);
      time_pruned = timer.ElapsedSeconds();
      runs.push_back({k, time_pruned, pruned_or.value().levels});
    }
    table.PrintRow({std::to_string(k),
                    time_none < 0 ? "skipped" : bench::Num(time_none, 1),
                    bench::Num(time_canopy, 2),
                    bench::Num(time_canopy_collapse, 2),
                    bench::Num(time_pruned, 2)});
  }
  table.PrintRule();

  bench::PrintLevelCounters(runs);
  std::printf("\n");
  bench::ExportBenchArtifacts(
      json_path, obs, "fig6_timing",
      {{"records", static_cast<double>(gen.num_records)},
       {"authors", static_cast<double>(gen.num_authors)},
       {"seed", static_cast<double>(gen.seed)},
       {"threads", static_cast<double>(threads)}},
      {{"none_seconds", time_none},
       {"canopy_seconds", time_canopy},
       {"canopy_collapse_seconds", time_canopy_collapse},
       {"collapse_seconds", collapse_seconds}},
      runs);
  return 0;
}

}  // namespace
}  // namespace topkdup

int main(int argc, char** argv) { return topkdup::Run(argc, argv); }
