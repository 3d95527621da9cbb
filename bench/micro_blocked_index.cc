// Micro benchmark: the compressed blocked index — the machinery every
// predicate evaluation in the pipeline flows through. For several block
// density regimes (controlled by how many distinct surnames the records
// draw on) it measures build time, compression (bytes per stored
// posting), decode work and skip ratio during a full candidate-pair
// enumeration, enumeration throughput, and the candidate-memo replay
// (repeat enumerations must decode nothing). Throughput is reported twice:
// Mpost/s (decoded postings per second) hides a probe's fixed cost, which
// us/probe (wall time per item enumerated) shows.
//
// Everything except wall time is deterministic for fixed seeds, so the
// JSON dump doubles as a CI regression gate: see
// tools/baselines/BENCH_blocked_index_ci.json and ci.yml.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/timer.h"
#include "datagen/lexicon.h"
#include "predicates/blocked_index.h"
#include "predicates/corpus.h"
#include "predicates/generic.h"
#include "record/record.h"

namespace topkdup {
namespace {

record::Dataset NameData(size_t records, size_t distinct_surnames,
                         uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> surnames;
  for (size_t i = 0; i < distinct_surnames; ++i) {
    surnames.push_back(datagen::SyntheticSurname(&rng));
  }
  record::Dataset data{record::Schema({"name"})};
  for (size_t r = 0; r < records; ++r) {
    record::Record rec;
    rec.fields = {
        datagen::FirstNames()[rng.Uniform(datagen::FirstNames().size())] +
        " " + surnames[rng.Uniform(surnames.size())]};
    data.Add(std::move(rec));
  }
  return data;
}

struct Config {
  size_t records;
  size_t surnames;
  const char* label;
};

struct IndexCounters {
  metrics::Counter* scanned;
  metrics::Counter* decoded;
  metrics::Counter* blocks_decoded;
  metrics::Counter* blocks_skipped;

  static IndexCounters Get() {
    auto& registry = metrics::Registry::Global();
    return {
        registry.GetCounter("predicates.blocked_index.postings_scanned"),
        registry.GetCounter("predicates.blocked_index.postings_decoded"),
        registry.GetCounter("predicates.blocked_index.blocks_decoded"),
        registry.GetCounter("predicates.blocked_index.blocks_skipped"),
    };
  }
};

int Main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const std::string json_path =
      flags.GetString("json", "BENCH_blocked_index.json");
  const int enum_reps = static_cast<int>(flags.GetInt("enum-reps", 3));

  const std::vector<Config> configs = {
      {2048, 2048 / 4, "sparse-2k"},
      {2048, 64, "dense-2k"},
      {8192, 8192 / 4, "sparse-8k"},
      {8192, 128, "dense-8k"},
  };
  const IndexCounters counters = IndexCounters::Get();

  bench::TablePrinter table(
      {"config", "records", "build_ms", "B/posting", "pairs", "scanned",
       "decoded", "skip%", "Mpost/s", "us/probe"},
      {9, 8, 9, 9, 10, 11, 10, 6, 8, 9});
  table.PrintHeader();

  std::vector<std::pair<std::string, double>> scalars;
  std::vector<bench::BenchRun> runs;
  for (size_t ci = 0; ci < configs.size(); ++ci) {
    const Config& config = configs[ci];
    record::Dataset data = NameData(config.records, config.surnames, 5);
    auto corpus = predicates::Corpus::Build(&data, {}).value();
    predicates::QGramOverlapPredicate pred(&corpus, 0, 0.6);
    std::vector<size_t> items(config.records);
    for (size_t i = 0; i < items.size(); ++i) items[i] = i;

    Timer build_timer;
    predicates::BlockedIndex index(pred, items);
    const double build_seconds = build_timer.ElapsedSeconds();

    const uint64_t scanned0 = counters.scanned->Value();
    const uint64_t decoded0 = counters.decoded->Value();
    const uint64_t dblocks0 = counters.blocks_decoded->Value();
    const uint64_t sblocks0 = counters.blocks_skipped->Value();
    uint64_t pairs = 0;
    Timer enum_timer;
    for (int rep = 0; rep < enum_reps; ++rep) {
      pairs = 0;
      index.ForEachCandidatePair([&](size_t, size_t) { ++pairs; });
    }
    const double enum_seconds = enum_timer.ElapsedSeconds() / enum_reps;
    const uint64_t scanned =
        (counters.scanned->Value() - scanned0) / enum_reps;
    const uint64_t decoded =
        (counters.decoded->Value() - decoded0) / enum_reps;
    const uint64_t blocks_decoded =
        (counters.blocks_decoded->Value() - dblocks0) / enum_reps;
    const uint64_t blocks_skipped =
        (counters.blocks_skipped->Value() - sblocks0) / enum_reps;

    // Memo replay: after a first full pass fills the per-item lists, a
    // second pass must decode zero postings.
    index.EnableCandidateMemo();
    predicates::BlockedIndex::QueryScratch scratch;
    for (size_t p = 0; p < config.records; ++p) {
      index.ForEachCandidate(p, &scratch, [](size_t) { return true; });
    }
    const uint64_t decoded_before_replay = counters.decoded->Value();
    for (size_t p = 0; p < config.records; ++p) {
      index.ForEachCandidate(p, &scratch, [](size_t) { return true; });
    }
    const uint64_t replay_decoded =
        counters.decoded->Value() - decoded_before_replay;

    const double bytes_per_posting =
        index.posting_count() == 0
            ? 0.0
            : static_cast<double>(index.compressed_bytes()) /
                  static_cast<double>(index.posting_count());
    const double skip_fraction =
        blocks_decoded + blocks_skipped == 0
            ? 0.0
            : static_cast<double>(blocks_skipped) /
                  static_cast<double>(blocks_decoded + blocks_skipped);
    const double postings_per_second =
        enum_seconds > 0.0 ? static_cast<double>(decoded) / enum_seconds
                           : 0.0;
    // One probe per item and pass.
    const double us_per_probe =
        enum_seconds * 1e6 / static_cast<double>(config.records);

    table.PrintRow({config.label, std::to_string(config.records),
                    bench::Num(build_seconds * 1000.0, 2),
                    bench::Num(bytes_per_posting, 3),
                    std::to_string(pairs), std::to_string(scanned),
                    std::to_string(decoded),
                    bench::Num(skip_fraction * 100.0, 1),
                    bench::Num(postings_per_second / 1e6, 2),
                    bench::Num(us_per_probe, 2)});

    const std::string prefix = StrFormat("cfg%zu.", ci);
    scalars.emplace_back(prefix + "pairs", static_cast<double>(pairs));
    scalars.emplace_back(prefix + "posting_count",
                         static_cast<double>(index.posting_count()));
    scalars.emplace_back(prefix + "compressed_bytes",
                         static_cast<double>(index.compressed_bytes()));
    scalars.emplace_back(prefix + "postings_scanned",
                         static_cast<double>(scanned));
    scalars.emplace_back(prefix + "postings_decoded",
                         static_cast<double>(decoded));
    scalars.emplace_back(prefix + "blocks_decoded",
                         static_cast<double>(blocks_decoded));
    scalars.emplace_back(prefix + "blocks_skipped",
                         static_cast<double>(blocks_skipped));
    scalars.emplace_back(prefix + "replay_decoded",
                         static_cast<double>(replay_decoded));

    bench::BenchRun run;
    run.k = static_cast<int>(ci);
    run.seconds = build_seconds + enum_seconds * enum_reps;
    runs.push_back(run);
  }
  table.PrintRule();

  if (!json_path.empty()) {
    bench::WriteBenchJson(json_path, "micro_blocked_index",
                          {{"configs", static_cast<double>(configs.size())},
                           {"enum_reps", static_cast<double>(enum_reps)}},
                          scalars, runs);
  }
  return 0;
}

}  // namespace
}  // namespace topkdup

int main(int argc, char** argv) { return topkdup::Main(argc, argv); }
