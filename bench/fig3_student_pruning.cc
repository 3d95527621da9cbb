// Reproduces Figure 3 of the paper: pruning performance on the Students
// dataset (two predicate levels), reporting n, m, M, n' per level for
// K in {1,5,10,50,100,500,1000}. See fig2_citation_pruning.cc for the
// column semantics. Flags: --records --students --seed --ks --passes
// --json=BENCH_fig3.json --metrics-json=PATH --metrics-prom=PATH
// --trace-json=PATH --explain-json=PATH --explain-text=PATH
// --explain-sample-rate=R
#include <cstdio>
#include <optional>
#include <string>

#include "bench_common.h"
#include "common/timer.h"
#include "datagen/student_gen.h"
#include "dedup/pruned_dedup.h"
#include "predicates/corpus.h"
#include "predicates/student.h"

namespace topkdup {
namespace {

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  datagen::StudentGenOptions gen;
  gen.num_records = static_cast<size_t>(flags.GetInt("records", 50000));
  gen.num_students = static_cast<size_t>(
      flags.GetInt("students", static_cast<int64_t>(gen.num_records / 4)));
  gen.seed = static_cast<uint64_t>(flags.GetInt("seed", 169221));
  const std::vector<int> ks =
      flags.GetIntList("ks", {1, 5, 10, 50, 100, 500, 1000});
  const int passes = static_cast<int>(flags.GetInt("passes", 2));
  const int threads = bench::ApplyThreadsFlag(flags);
  const std::string json_path = flags.GetString("json", "BENCH_fig3.json");
  const bench::Observability obs = bench::ApplyObservabilityFlags(flags);
  const bench::DeadlineFlags budget = bench::ApplyDeadlineFlags(flags);

  std::printf("Figure 3: Student dataset pruning (records=%zu students=%zu "
              "seed=%llu passes=%d threads=%d)\n",
              gen.num_records, gen.num_students,
              static_cast<unsigned long long>(gen.seed), passes, threads);

  Timer timer;
  auto data_or = datagen::GenerateStudents(gen);
  if (!data_or.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 data_or.status().ToString().c_str());
    return 1;
  }
  const record::Dataset& data = data_or.value();
  auto corpus_or = predicates::Corpus::Build(&data, {});
  if (!corpus_or.ok()) {
    std::fprintf(stderr, "corpus: %s\n",
                 corpus_or.status().ToString().c_str());
    return 1;
  }
  const predicates::Corpus& corpus = corpus_or.value();
  std::printf("generated %zu records + corpus in %.1fs\n\n", data.size(),
              timer.ElapsedSeconds());

  predicates::StudentFields fields;
  predicates::StudentS1 s1(&corpus, fields);
  predicates::StudentS2 s2(&corpus, fields);
  predicates::StudentN1 n1(&corpus, fields);
  predicates::StudentN2 n2(&corpus, fields);

  bench::TablePrinter table(
      {"K", "n%", "m", "M", "n'%", "n%", "m", "M", "n'%", "sec"},
      {5, 7, 7, 10, 7, 7, 7, 10, 7, 7});
  std::printf("%43s  |  %24s\n", "Iteration-1 (S1,N1)",
              "Iteration-2 (S2,N2)");
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
      json_path, obs, "fig3_student_pruning",
      {{"records", static_cast<double>(gen.num_records)},
       {"students", static_cast<double>(gen.num_students)},
       {"seed", static_cast<double>(gen.seed)},
       {"passes", static_cast<double>(passes)},
       {"threads", static_cast<double>(threads)}},
      {}, runs);
  bench::WriteExplainJson(obs.explain_json_path, "fig3_student_pruning",
                          explain_runs);
  bench::WriteExplainText(obs.explain_text_path, "fig3_student_pruning",
                          explain_runs);
  return 0;
}

}  // namespace
}  // namespace topkdup

int main(int argc, char** argv) { return topkdup::Run(argc, argv); }
