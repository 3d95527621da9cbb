// Micro benchmark: collapse and prune throughput of the parallel
// execution layer at 1/2/4/8 threads on a fig6-style citation workload.
// The prune reads an N1 index built once, as in the pipeline, where the
// lower bound builds it and the prune reuses it.
//
// The dataset size defaults to the fig6 45k-record corpus; override with
// TOPKDUP_BENCH_RECORDS to iterate faster on small machines, e.g.
//   TOPKDUP_BENCH_RECORDS=8000 ./micro_parallel
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <limits>
#include <memory>

#include "common/check.h"
#include "common/deadline.h"
#include "common/parallel.h"
#include "datagen/citation_gen.h"
#include "dedup/collapse.h"
#include "dedup/group.h"
#include "dedup/lower_bound.h"
#include "dedup/prune.h"
#include "predicates/citation.h"
#include "predicates/corpus.h"
#include "predicates/generic.h"
#include "predicates/index_cache.h"

namespace topkdup {
namespace {

size_t BenchRecords() {
  if (const char* env = std::getenv("TOPKDUP_BENCH_RECORDS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 45000;
}

/// Lazily built shared workload (generation + corpus build are expensive;
/// google-benchmark re-enters each benchmark many times).
struct Workload {
  record::Dataset data;
  std::unique_ptr<predicates::Corpus> corpus;
  std::unique_ptr<predicates::CitationS1> s1;
  std::unique_ptr<predicates::QGramOverlapPredicate> n1;
  std::vector<dedup::Group> singletons;
  std::vector<dedup::Group> collapsed;  // After S1, the prune input.
  std::unique_ptr<predicates::IndexHandle> n1_index;  // Over `collapsed`.
  double M = 0.0;                       // Lower bound for K=100.

  static const Workload& Get() {
    static const Workload* w = [] {
      auto* out = new Workload;
      datagen::CitationGenOptions gen;
      gen.num_records = BenchRecords();
      gen.num_authors = gen.num_records / 5;
      gen.seed = 45000;
      gen.rare_name_fraction = 0.15;
      gen.count_pareto_alpha = 2.5;
      gen.max_count = 50.0;
      gen.zipf_s = 1.25;
      gen.canonical_mention_prob = 0.25;
      gen.max_variants = 8;
      auto data_or = datagen::GenerateCitations(gen);
      TOPKDUP_CHECK(data_or.ok());
      out->data = std::move(data_or).value();
      auto corpus_or = predicates::Corpus::Build(&out->data, {});
      TOPKDUP_CHECK(corpus_or.ok());
      out->corpus = std::make_unique<predicates::Corpus>(
          std::move(corpus_or).value());
      predicates::CitationFields fields;
      out->s1 = std::make_unique<predicates::CitationS1>(
          out->corpus.get(), fields, 0.5 * out->corpus->MaxIdf(0));
      out->n1 = std::make_unique<predicates::QGramOverlapPredicate>(
          out->corpus.get(), 0, 0.6);
      out->singletons = dedup::MakeSingletonGroups(out->data);
      {
        ScopedParallelism serial(1);
        out->collapsed = dedup::Collapse(out->singletons, *out->s1);
        out->n1_index = std::make_unique<predicates::IndexHandle>(
            dedup::RepresentativeIndex(out->collapsed, *out->n1));
        const dedup::LowerBoundResult lb = dedup::EstimateLowerBound(
            out->collapsed, *out->n1, **out->n1_index, /*k=*/100);
        out->M = lb.M;
      }
      return out;
    }();
    return *w;
  }
};

void BM_CollapseThreads(benchmark::State& state) {
  const Workload& w = Workload::Get();
  ScopedParallelism threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::vector<dedup::Group> out = dedup::Collapse(w.singletons, *w.s1);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.singletons.size()));
}
BENCHMARK(BM_CollapseThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_PruneThreads(benchmark::State& state) {
  const Workload& w = Workload::Get();
  ScopedParallelism threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    dedup::PruneResult out =
        dedup::PruneGroups(w.collapsed, *w.n1, **w.n1_index, w.M, {});
    benchmark::DoNotOptimize(out.groups.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.collapsed.size()));
}
BENCHMARK(BM_PruneThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Deadline polling overhead: the same collapse/prune work with a
// never-expiring work budget attached. The delta against the *Threads
// baselines above is the cost of the cooperative checks and work
// charging; the perf gate keeps it inside the regression band. Note the
// deadline-on collapse always takes the shard-local edge path (the serial
// fast path is reserved for deadline-free runs), so the threads=1 delta
// includes that structural difference, not just polling.
void BM_CollapseDeadline(benchmark::State& state) {
  const Workload& w = Workload::Get();
  ScopedParallelism threads(static_cast<int>(state.range(0)));
  const Deadline deadline =
      Deadline::WithWorkBudget(std::numeric_limits<uint64_t>::max());
  for (auto _ : state) {
    std::vector<dedup::Group> out =
        dedup::Collapse(w.singletons, *w.s1, {.deadline = &deadline});
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.singletons.size()));
}
BENCHMARK(BM_CollapseDeadline)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_PruneDeadline(benchmark::State& state) {
  const Workload& w = Workload::Get();
  ScopedParallelism threads(static_cast<int>(state.range(0)));
  const Deadline deadline =
      Deadline::WithWorkBudget(std::numeric_limits<uint64_t>::max());
  for (auto _ : state) {
    dedup::PruneResult out =
        dedup::PruneGroups(w.collapsed, *w.n1, **w.n1_index, w.M, {},
                           /*exact_bounds=*/false, {.deadline = &deadline});
    benchmark::DoNotOptimize(out.groups.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.collapsed.size()));
}
BENCHMARK(BM_PruneDeadline)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace topkdup

BENCHMARK_MAIN();
