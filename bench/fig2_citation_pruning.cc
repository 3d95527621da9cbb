// Reproduces Figure 2 of the paper: pruning performance of PrunedDedup on
// the Citation dataset for K in {1,5,10,50,100,500,1000}, reporting per
// predicate level (iteration) the paper's four statistics:
//   n  - records remaining after collapsing, as % of input records
//   m  - rank at which K distinct groups are guaranteed
//   M  - minimum weight a group needs to avoid pruning (absolute)
//   n' - records retained after pruning, as % of input records
//
// The dataset is a synthetic reproduction of the paper's Citeseer-derived
// author-mention corpus (see DESIGN.md); sizes are configurable:
//   --records=N --authors=N --seed=S --ks=1,5,10 --passes=2 --ablation
//   --threads=N --json=BENCH_fig2.json ("" disables the JSON dump)
//   --deadline-ms=N --work-budget=N (per-K query budget; degraded runs
//     are reported inline and still produce bound-consistent stats)
//   --metrics-json=PATH (uniform schema + registry snapshot)
//   --metrics-prom=PATH (Prometheus text exposition of the registry)
//   --trace-json=PATH (Chrome trace_event JSON, loadable in Perfetto)
//   --explain-json=PATH --explain-text=PATH --explain-sample-rate=R
//     (per-query explain reports: collapse merges, CPN probes, prune
//      decisions with bound-vs-M provenance; see src/obs/explain.h)
#include <cstdio>
#include <optional>
#include <string>

#include "bench_common.h"
#include "common/timer.h"
#include "datagen/citation_gen.h"
#include "dedup/pruned_dedup.h"
#include "predicates/citation.h"
#include "predicates/corpus.h"
#include "predicates/generic.h"

namespace topkdup {
namespace {

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  datagen::CitationGenOptions gen;
  gen.num_records =
      static_cast<size_t>(flags.GetInt("records", 30000));
  gen.num_authors = static_cast<size_t>(
      flags.GetInt("authors", static_cast<int64_t>(gen.num_records / 5)));
  gen.seed = static_cast<uint64_t>(flags.GetInt("seed", 20090324));
  const std::vector<int> ks =
      flags.GetIntList("ks", {1, 5, 10, 50, 100, 500, 1000});
  const int passes = static_cast<int>(flags.GetInt("passes", 2));
  const int threads = bench::ApplyThreadsFlag(flags);
  const std::string json_path =
      flags.GetString("json", "BENCH_fig2.json");
  const bench::Observability obs = bench::ApplyObservabilityFlags(flags);
  const bench::DeadlineFlags budget = bench::ApplyDeadlineFlags(flags);

  std::printf("Figure 2: Citation dataset pruning (records=%zu authors=%zu "
              "seed=%llu passes=%d threads=%d)\n",
              gen.num_records, gen.num_authors,
              static_cast<unsigned long long>(gen.seed), passes, threads);

  Timer timer;
  auto data_or = datagen::GenerateCitations(gen);
  if (!data_or.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 data_or.status().ToString().c_str());
    return 1;
  }
  const record::Dataset& data = data_or.value();
  std::printf("generated %zu records in %.1fs\n", data.size(),
              timer.ElapsedSeconds());

  timer.Reset();
  auto corpus_or = predicates::Corpus::Build(&data, {});
  if (!corpus_or.ok()) {
    std::fprintf(stderr, "corpus: %s\n",
                 corpus_or.status().ToString().c_str());
    return 1;
  }
  const predicates::Corpus& corpus = corpus_or.value();
  std::printf("built corpus in %.1fs\n\n", timer.ElapsedSeconds());

  predicates::CitationFields fields;
  predicates::CitationS1 s1(&corpus, fields, 0.75 * corpus.MaxIdf(0));
  predicates::CitationS2 s2(&corpus, fields);
  predicates::QGramOverlapPredicate n1(&corpus, 0, 0.6);
  predicates::QGramOverlapPredicate n2(&corpus, 0, 0.6, true);

  bench::TablePrinter table(
      {"K", "n%", "m", "M", "n'%", "n%", "m", "M", "n'%", "sec"},
      {5, 7, 7, 9, 7, 7, 7, 9, 7, 7});
  std::printf("%42s  |  %22s\n", "Iteration-1 (S1,N1)", "Iteration-2 (S2,N2)");
  table.PrintHeader();

  std::vector<bench::BenchRun> runs;
  std::vector<bench::ExplainRun> explain_runs;

  const double d = static_cast<double>(data.size());
  for (int k : ks) {
    dedup::PrunedDedupOptions options;
    options.k = k;
    options.prune_passes = passes;
    std::optional<Deadline> run_deadline;
    QueryContext context;
    if (budget.active()) {
      run_deadline.emplace(budget.Make());
      context.deadline = &*run_deadline;
    }
    std::optional<obs::ExplainRecorder> recorder;
    if (obs.explain_enabled()) {
      recorder.emplace(obs.explain_sample_rate);
      context.recorder = &*recorder;
    }
    Timer run_timer;
    auto result_or =
        dedup::PrunedDedup(data, {{&s1, &n1}, {&s2, &n2}}, options, context);
    if (!result_or.ok()) {
      std::fprintf(stderr, "K=%d: %s\n", k,
                   result_or.status().ToString().c_str());
      continue;
    }
    bench::PrintDegradation(k, result_or.value().degradation);
    const auto& levels = result_or.value().levels;
    runs.push_back({k, run_timer.ElapsedSeconds(), levels});
    if (recorder.has_value()) {
      explain_runs.push_back(
          {k, std::make_shared<const obs::ExplainReport>(recorder->Finish())});
    }
    std::vector<std::string> row = {std::to_string(k)};
    for (size_t l = 0; l < 2; ++l) {
      if (l < levels.size()) {
        row.push_back(bench::Pct(levels[l].n_after_collapse, d));
        row.push_back(std::to_string(levels[l].m));
        row.push_back(bench::Num(levels[l].M, 0));
        row.push_back(bench::Pct(levels[l].n_after_prune, d));
      } else {
        row.insert(row.end(), {"-", "-", "-", "-"});
      }
    }
    row.push_back(bench::Num(runs.back().seconds, 2));
    table.PrintRow(row);
  }
  table.PrintRule();

  bench::PrintLevelCounters(runs);
  std::printf("\n");
  bench::ExportBenchArtifacts(
      json_path, obs, "fig2_citation_pruning",
      {{"records", static_cast<double>(gen.num_records)},
       {"authors", static_cast<double>(gen.num_authors)},
       {"seed", static_cast<double>(gen.seed)},
       {"passes", static_cast<double>(passes)},
       {"threads", static_cast<double>(threads)}},
      {}, runs);
  bench::WriteExplainJson(obs.explain_json_path, "fig2_citation_pruning",
                          explain_runs);
  bench::WriteExplainText(obs.explain_text_path, "fig2_citation_pruning",
                          explain_runs);

  if (flags.GetBool("ablation", true)) {
    std::printf("\nAblation (S6.2): one vs two upper-bound passes, final "
                "n'%% of records\n");
    bench::TablePrinter ab({"K", "n'% (1 pass)", "n'% (2 passes)"},
                           {5, 13, 14});
    ab.PrintHeader();
    for (int k : ks) {
      std::vector<std::string> row = {std::to_string(k)};
      for (int p : {1, 2}) {
        dedup::PrunedDedupOptions options;
        options.k = k;
        options.prune_passes = p;
        auto result_or =
            dedup::PrunedDedup(data, {{&s1, &n1}, {&s2, &n2}}, options);
        if (result_or.ok()) {
          // Same metric as the main table: surviving collapsed records.
          row.push_back(
              bench::Pct(static_cast<double>(result_or.value().groups.size()),
                         d));
        } else {
          row.push_back("err");
        }
      }
      ab.PrintRow(row);
    }
    ab.PrintRule();
  }
  return 0;
}

}  // namespace
}  // namespace topkdup

int main(int argc, char** argv) { return topkdup::Run(argc, argv); }
