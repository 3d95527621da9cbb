// Reproduces Figure 4 of the paper: pruning performance on the Address
// dataset (a single predicate level S1/N1), reporting n, m, M, n' for
// K in {1,5,10,50,100,500,1000}.
// Flags: --records --entities --seed --ks --passes
// --json=BENCH_fig4.json --metrics-json=PATH --metrics-prom=PATH
// --trace-json=PATH --explain-json=PATH --explain-text=PATH
// --explain-sample-rate=R
#include <cstdio>
#include <optional>
#include <string>

#include "bench_common.h"
#include "common/timer.h"
#include "datagen/address_gen.h"
#include "datagen/lexicon.h"
#include "dedup/pruned_dedup.h"
#include "predicates/address.h"
#include "predicates/corpus.h"

namespace topkdup {
namespace {

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  datagen::AddressGenOptions gen;
  gen.num_records = static_cast<size_t>(flags.GetInt("records", 50000));
  gen.num_entities = static_cast<size_t>(
      flags.GetInt("entities", static_cast<int64_t>(gen.num_records / 4)));
  gen.seed = static_cast<uint64_t>(flags.GetInt("seed", 245260));
  const std::vector<int> ks =
      flags.GetIntList("ks", {1, 5, 10, 50, 100, 500, 1000});
  const int passes = static_cast<int>(flags.GetInt("passes", 2));
  const int threads = bench::ApplyThreadsFlag(flags);
  const std::string json_path = flags.GetString("json", "BENCH_fig4.json");
  const bench::Observability obs = bench::ApplyObservabilityFlags(flags);
  const bench::DeadlineFlags budget = bench::ApplyDeadlineFlags(flags);

  std::printf("Figure 4: Address dataset pruning (records=%zu entities=%zu "
              "seed=%llu passes=%d threads=%d)\n",
              gen.num_records, gen.num_entities,
              static_cast<unsigned long long>(gen.seed), passes, threads);

  Timer timer;
  auto data_or = datagen::GenerateAddresses(gen);
  if (!data_or.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 data_or.status().ToString().c_str());
    return 1;
  }
  const record::Dataset& data = data_or.value();
  predicates::Corpus::Options corpus_options;
  corpus_options.stop_words = datagen::AddressStopWords();
  auto corpus_or = predicates::Corpus::Build(&data, corpus_options);
  if (!corpus_or.ok()) {
    std::fprintf(stderr, "corpus: %s\n",
                 corpus_or.status().ToString().c_str());
    return 1;
  }
  const predicates::Corpus& corpus = corpus_or.value();
  std::printf("generated %zu records + corpus in %.1fs\n\n", data.size(),
              timer.ElapsedSeconds());

  predicates::AddressFields fields;
  predicates::AddressS1 s1(&corpus, fields);
  predicates::AddressN1 n1(&corpus, fields);

  bench::TablePrinter table({"K", "n%", "m", "M", "n'%", "sec"},
                            {5, 7, 7, 12, 7, 7});
  std::printf("%31s\n", "Iteration-1 (S1,N1)");
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
    auto result_or = dedup::PrunedDedup(data, {{&s1, &n1}}, options, context);
    if (!result_or.ok()) {
      std::fprintf(stderr, "K=%d: %s\n", k,
                   result_or.status().ToString().c_str());
      continue;
    }
    bench::PrintDegradation(k, result_or.value().degradation);
    runs.push_back(
        {k, run_timer.ElapsedSeconds(), result_or.value().levels});
    if (recorder.has_value()) {
      explain_runs.push_back(
          {k, std::make_shared<const obs::ExplainReport>(recorder->Finish())});
    }
    const auto& level = result_or.value().levels[0];
    table.PrintRow({std::to_string(k),
                    bench::Pct(level.n_after_collapse, d),
                    std::to_string(level.m), bench::Num(level.M, 0),
                    bench::Pct(level.n_after_prune, d),
                    bench::Num(runs.back().seconds, 2)});
  }
  table.PrintRule();

  bench::PrintLevelCounters(runs);
  std::printf("\n");
  bench::ExportBenchArtifacts(
      json_path, obs, "fig4_address_pruning",
      {{"records", static_cast<double>(gen.num_records)},
       {"entities", static_cast<double>(gen.num_entities)},
       {"seed", static_cast<double>(gen.seed)},
       {"passes", static_cast<double>(passes)},
       {"threads", static_cast<double>(threads)}},
      {}, runs);
  bench::WriteExplainJson(obs.explain_json_path, "fig4_address_pruning",
                          explain_runs);
  bench::WriteExplainText(obs.explain_text_path, "fig4_address_pruning",
                          explain_runs);
  return 0;
}

}  // namespace
}  // namespace topkdup

int main(int argc, char** argv) { return topkdup::Run(argc, argv); }
