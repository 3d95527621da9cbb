// querybench: the repository's end-to-end and per-layer benchmark.
//
//   querybench --workload citation_count|address_count|serve_online
//              --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// Workloads (README.md says why each exists):
//   citation_count  closed loop, one caller, TopKCountQuery at 4 threads
//                   over 20k citations, k=5 r=1.
//   address_count   the same loop over 100k addresses, k=10 r=10.
//   serve_online    open loop through serve::QueryService: count queries
//                   at 8/s (every other one allow_stale) beside a writer
//                   ingesting 100 mentions/s into a 10k-mention stream.
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (TopKCountQuery recomposed from each layer's public entry point, and the
// service's own per-response accounting). Human-readable lines come first;
// the last line is one JSON object:
//   {"correct": B, "attempted": N, "failed": N,
//    "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}
// Exit code 0 when every correctness check passed, 1 when one failed, 2 on
// a usage or set-up error (then no JSON line is printed).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "datagen/citation_gen.h"
#include "predicates/corpus.h"
#include "predicates/generic.h"
#include "serve/service.h"
#include "topk/online.h"
#include "topk/topk_query.h"

#include "fixtures.h"
#include "layers.h"
#include "stats.h"

namespace topkdup::querybench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kThreads = 4;
constexpr int kSetupRepeats = 3;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Clock::time_point At(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/querybench/work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

/// The result line: correctness verdict, operation counts, and metrics in
/// print order.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
  }
  /// Counts a wrong answer: the run fails its correctness check.
  void Mismatch(const char* what) {
    std::printf("CHECK FAILED: %s\n", what);
    correct = false;
    ++failed;
  }
};

void PrintOutcome(const Outcome& outcome) {
  for (const auto& [name, metric] : outcome.metrics) {
    std::printf("%-36s %.6g %s\n", name.c_str(), metric.first,
                metric.second.c_str());
  }
  std::printf("attempted=%llu failed=%llu correct=%s\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              outcome.correct ? "true" : "false");
  std::string json = "{\"correct\": ";
  json += outcome.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const auto& [name, metric] = outcome.metrics[i];
    std::snprintf(buf, sizeof(buf), "%.17g", metric.first);
    json += (i == 0 ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metric.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void AddSetupAndMemory(Outcome& outcome, const std::vector<double>& setup_s) {
  outcome.Add("setup_s", Median(setup_s), "s");
  outcome.Add("peak_rss_mb", PeakRssMb(), "MB");
}

void AddLatency(Outcome& outcome, const std::vector<double>& latency_ms) {
  const Tail tail = TailPercentile(latency_ms);
  if (latency_ms.size() <= 20) {
    std::printf("query latencies (ms):");
    for (double ms : latency_ms) std::printf(" %.1f", ms);
    std::printf("\n");
  }
  outcome.Add("query_p50_ms", Median(latency_ms), "ms");
  outcome.Add("query_tail_ms", tail.value, "ms");
  std::printf("query_tail_ms is p%.1f of %zu samples\n", tail.percentile,
              tail.samples);
}

// ---------------------------------------------------------------------------
// Per-layer metrics.

/// Every per-layer metric, in BENCHMARK.json order. A metric whose layer the
/// workload does not reach reads 0: the library layers are measured on every
/// workload (on serve_online over the preloaded stream's snapshot), the
/// serve and online layers only on serve_online.
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const auto* units =
      new std::vector<std::pair<std::string, std::string>>{
          {"dedup.wall_ms", "ms"},
          {"dedup.cpu_ms", "ms"},
          {"dedup.collapse_ms", "ms"},
          {"dedup.lower_bound_ms", "ms"},
          {"dedup.prune_ms", "ms"},
          {"dedup.unattributed_ms", "ms"},
          {"dedup.records_collapsed", "count"},
          {"dedup.groups_pruned", "count"},
          {"dedup.n_prime", "count"},
          {"graph.cpn_iterations", "count"},
          {"graph.cpn_edges", "count"},
          {"predicates.blocking_probes", "count"},
          {"predicates.predicate_evals", "count"},
          {"predicates.postings_decoded", "count"},
          {"predicates.block_skip_ratio", "ratio"},
          {"topk.pair_scoring_ms", "ms"},
          {"topk.pair_scoring_cpu_ms", "ms"},
          {"topk.pair_scoring_par_eff", "ratio"},
          {"sim.scorer_calls", "count"},
          {"sim.positive_ratio", "ratio"},
          {"cluster.pairs_stored", "count"},
          {"cluster.pair_scores_free_ms", "ms"},
          {"embed.greedy_ms", "ms"},
          {"embed.items", "count"},
          {"segment.fill_ms", "ms"},
          {"segment.fill_cpu_ms", "ms"},
          {"segment.cells_filled", "count"},
          {"segment.dp_ms", "ms"},
          {"segment.dp_answers", "count"},
          {"topk.answers_distinct_ratio", "ratio"},
          {"topk.other_ms", "ms"},
          {"parallel.regions", "count"},
          {"parallel.shards", "count"},
          {"trace.overhead_pct", "%"},
          {"serve.queue_wait_ms.p50", "ms"},
          {"serve.queue_wait_ms.p99", "ms"},
          {"serve.exec_ms.p50", "ms"},
          {"serve.exec_ms.p99", "ms"},
          {"serve.exec_cpu_ms.p50", "ms"},
          {"serve.exec_par_eff", "ratio"},
          {"serve.stage_cpu_share.pair_scoring", "ratio"},
          {"serve.stage_cpu_share.segment_dp", "ratio"},
          {"serve.stage_cpu_share.embedding", "ratio"},
          {"serve.stage_cpu_share.collapse", "ratio"},
          {"serve.stage_cpu_share.lower_bound", "ratio"},
          {"serve.stage_cpu_share.prune", "ratio"},
          {"serve.stage_cpu_share.other", "ratio"},
          {"serve.cache.hit_ratio", "ratio"},
          {"serve.cache.stale_ratio", "ratio"},
          {"serve.cache.miss_ratio", "ratio"},
          {"serve.shed.queue_full", "count"},
          {"serve.shed.predicted_miss", "count"},
          {"serve.shed.expired_in_queue", "count"},
          {"serve.shed.shutdown", "count"},
          {"serve.degraded", "count"},
          {"serve.queue_depth.max", "count"},
          {"serve.ingest_ms.p50", "ms"},
          {"serve.ingest_ms.tail", "ms"},
          {"serve.wal.bytes_per_mention", "bytes"},
          {"serve.wal.fsyncs_per_mention", "ratio"},
          {"serve.wal.checkpoints", "count"},
          {"online.epochs_published_per_s", "1/s"},
          {"online.reader_blocked", "count"},
          {"online.groups_end", "count"},
          {"bench.generator_lag_ms.p99", "ms"},
          {"bench.failed_ratio", "ratio"},
      };
  return *units;
}

/// Emits every per-layer metric from `values` (0 for absent ones).
void AddLayerMetrics(Outcome& outcome,
                     const std::map<std::string, double>& values) {
  for (const auto& [name, unit] : LayerMetricUnits()) {
    const auto it = values.find(name);
    outcome.Add(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

/// Untraced TopKCountQuery latencies beside recomposed traced runs of the
/// same query, and the per-layer medians derived from them.
struct LayerTrace {
  std::map<std::string, double> metrics;
  uint64_t attempted = 0;
  uint64_t mismatches = 0;
};

/// Alternates one untraced TopKCountQuery with one RunLayeredQuery until
/// `budget_s` has passed (at least `min_rounds` rounds), checking every
/// answer against `reference`.
StatusOr<LayerTrace> TraceLayers(
    const record::Dataset& data,
    const std::vector<dedup::PredicateLevel>& levels,
    const topk::PairScoreFn& scorer, const topk::TopKCountOptions& options,
    uint64_t reference, double budget_s, int min_rounds) {
  LayerTrace trace;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::map<std::string, std::vector<double>> samples;
  const Clock::time_point start = Clock::now();
  for (int round = 0; round < min_rounds || SecondsSince(start) < budget_s;
       ++round) {
    const Clock::time_point query_start = Clock::now();
    auto result_or = topk::TopKCountQuery(data, levels, scorer, options);
    untraced_ms.push_back(1e3 * SecondsSince(query_start));
    TOPKDUP_ASSIGN_OR_RETURN(LayeredQuery layered,
                             RunLayeredQuery(data, levels, scorer, options));
    trace.attempted += 2;
    if (!result_or.ok() ||
        AnswerDigest(result_or.value().answers) != reference) {
      ++trace.mismatches;
    }
    if (AnswerDigest(layered.answers) != reference) ++trace.mismatches;
    traced_ms.push_back(layered.wall_ms);
    for (const auto& [name, value] : layered.metrics) {
      samples[name].push_back(value);
    }
  }
  for (const auto& [name, values] : samples) {
    trace.metrics[name] = Median(values);
  }
  std::map<std::string, double>& m = trace.metrics;
  const double untraced = Median(untraced_ms);
  const double post_prune = m["topk.pair_scoring_ms"] +
                            m["cluster.pair_scores_free_ms"] +
                            m["embed.greedy_ms"] + m["segment.fill_ms"] +
                            m["segment.dp_ms"];
  m["topk.other_ms"] = untraced - m["dedup.wall_ms"] - post_prune;
  m["trace.overhead_pct"] = 100.0 * (Median(traced_ms) - untraced) / untraced;
  std::printf(
      "untraced query p50 %.1f ms over %zu rounds: dedup %.1f%%, post-prune "
      "layers %.1f%%\n",
      untraced, untraced_ms.size(), 100.0 * m["dedup.wall_ms"] / untraced,
      100.0 * post_prune / untraced);
  return trace;
}

// ---------------------------------------------------------------------------
// citation_count and address_count: closed loop over TopKCountQuery.

struct QueryWorkload {
  size_t records;
  int k;
  int r;
  StatusOr<serve::DatasetBundle> (*make)(size_t, uint64_t);
};

int RunQueryWorkload(const QueryWorkload& workload, const Args& args) {
  serve::DatasetBundle bundle;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    bundle = {};
    const Clock::time_point start = Clock::now();
    auto bundle_or = workload.make(workload.records, args.seed);
    if (!bundle_or.ok()) {
      std::fprintf(stderr, "set-up: %s\n",
                   bundle_or.status().ToString().c_str());
      return 2;
    }
    bundle = std::move(bundle_or).value();
    setup_s.push_back(SecondsSince(start));
  }
  const record::Dataset& data = *bundle.data;
  topk::TopKCountOptions options;
  options.k = workload.k;
  options.r = workload.r;
  options.threads = kThreads;

  // Warm-up: its answer is the one every later answer must equal.
  auto first_or = topk::TopKCountQuery(data, bundle.levels, bundle.scorer,
                                       options);
  if (!first_or.ok()) {
    std::fprintf(stderr, "first query: %s\n",
                 first_or.status().ToString().c_str());
    return 2;
  }
  const topk::TopKCountResult& first = first_or.value();
  const uint64_t reference = AnswerDigest(first.answers);
  std::printf("records=%zu k=%d r=%d n'=%zu answers=%zu digest=%016llx\n",
              data.size(), options.k, options.r, first.pruning.groups.size(),
              first.answers.size(), static_cast<unsigned long long>(reference));
  Outcome outcome;
  outcome.attempted = 1;
  std::vector<double> weights;
  for (const record::Record& record : data.records()) {
    weights.push_back(record.weight);
  }
  const std::string violation =
      CheckAnswers(first.answers, weights, options.k, options.r);
  if (!violation.empty()) outcome.Mismatch(violation.c_str());

  if (args.trace) {
    auto trace_or = TraceLayers(data, bundle.levels, bundle.scorer, options,
                                reference, args.seconds, 1);
    if (!trace_or.ok()) {
      std::fprintf(stderr, "traced query: %s\n",
                   trace_or.status().ToString().c_str());
      return 2;
    }
    LayerTrace& trace = trace_or.value();
    outcome.attempted += trace.attempted;
    for (uint64_t i = 0; i < trace.mismatches; ++i) {
      outcome.Mismatch("answer differs from the first TopKCountQuery answer");
    }
    trace.metrics["bench.failed_ratio"] =
        static_cast<double>(outcome.failed) /
        static_cast<double>(outcome.attempted);
    AddLayerMetrics(outcome, trace.metrics);
    PrintOutcome(outcome);
    return outcome.correct ? 0 : 1;
  }

  std::vector<double> latency_ms;
  uint64_t exact = 0;
  const Clock::time_point start = Clock::now();
  const double cpu_start = ProcessCpuSeconds();
  while (latency_ms.empty() || SecondsSince(start) < args.seconds) {
    const Clock::time_point query_start = Clock::now();
    auto result_or = topk::TopKCountQuery(data, bundle.levels, bundle.scorer,
                                          options);
    latency_ms.push_back(1e3 * SecondsSince(query_start));
    ++outcome.attempted;
    if (!result_or.ok() ||
        AnswerDigest(result_or.value().answers) != reference) {
      outcome.Mismatch("answer differs from the first TopKCountQuery answer");
    } else if (result_or.value().quality == topk::AnswerQuality::kExact) {
      ++exact;
    }
  }
  const double elapsed_s = SecondsSince(start);
  const double cpu_s = ProcessCpuSeconds() - cpu_start;
  AddSetupAndMemory(outcome, setup_s);
  AddLatency(outcome, latency_ms);
  outcome.Add("cpu_per_query_ms",
              1e3 * cpu_s / static_cast<double>(latency_ms.size()), "ms");
  outcome.Add("goodput_qps", static_cast<double>(exact) / elapsed_s, "1/s");
  PrintOutcome(outcome);
  return outcome.correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// serve_online: open loop through serve::QueryService.

constexpr size_t kPreload = 10000;
constexpr size_t kWriterPool = 6000;
constexpr double kQueryRate = 8.0;
constexpr double kIngestRate = 100.0;
constexpr int64_t kDeadlineMs = 500;
constexpr char kStream[] = "stream";

struct ServeFixture {
  /// Mentions: the first kPreload are preloaded, the writer cycles through
  /// the rest.
  std::unique_ptr<record::Dataset> pool;
  std::unique_ptr<serve::QueryService> service;
  topk::OnlineTopK* stream = nullptr;  // Owned by `service`.
};

serve::ServiceOptions ServeOptions(const std::string& wal_dir) {
  serve::ServiceOptions options;
  options.workers = 2;
  options.default_deadline_ms = kDeadlineMs;
  options.cache.enabled = true;
  options.epoch_batch_ms = 100;
  options.wal_dir = wal_dir;
  options.wal.fsync = serve::WalFsyncPolicy::kIntervalMs;
  options.wal.interval_ms = 50;
  return options;
}

StatusOr<ServeFixture> MakeServeFixture(uint64_t seed,
                                        const std::string& wal_dir) {
  datagen::CitationGenOptions gen;
  gen.num_records = kPreload + kWriterPool;
  gen.num_authors = kPreload / 4;
  ServeFixture fixture;
  TOPKDUP_ASSIGN_OR_RETURN(record::Dataset pool,
                           datagen::GenerateCitations(gen));
  // As for the static fixtures: fixed records in a seed-shuffled order. The
  // preload and the writer's share are shuffled apart, so every seed
  // preloads the same mentions into the same groups.
  std::vector<record::Record>& records = *pool.mutable_records();
  Rng rng(seed);
  for (const auto& [begin, end] : {std::pair<size_t, size_t>{0, kPreload},
                                   {kPreload, records.size()}}) {
    for (size_t i = end; i > begin + 1; --i) {
      std::swap(records[i - 1], records[begin + rng.Uniform(i - begin)]);
    }
  }
  fixture.pool = std::make_unique<record::Dataset>(std::move(pool));
  std::unique_ptr<topk::OnlineTopK> stream =
      MakeCitationStream(fixture.pool->schema());
  for (size_t i = 0; i < kPreload; ++i) {
    TOPKDUP_RETURN_IF_ERROR(stream->AddMention((*fixture.pool)[i]));
  }
  fixture.stream = stream.get();
  fixture.service =
      std::make_unique<serve::QueryService>(ServeOptions(wal_dir));
  TOPKDUP_RETURN_IF_ERROR(
      fixture.service->RegisterOnline(kStream, std::move(stream)));
  return fixture;
}

serve::QueryRequest CountRequest(bool allow_stale, int64_t deadline_ms) {
  serve::QueryRequest request;
  request.dataset = kStream;
  request.kind = serve::QueryKind::kTopKCount;
  request.k = 5;
  request.r = 1;
  request.deadline_ms = deadline_ms;
  request.allow_stale = allow_stale;
  return request;
}

struct SentQuery {
  bool allow_stale = false;
  double lag_s = 0.0;  // Send time minus scheduled time.
  serve::QueryResponse response;
  /// Scheduled send time to response: lag plus the service's latency.
  double latency_s() const { return lag_s + response.latency_seconds; }
};

/// The timed phase's record.
struct ServePhase {
  std::vector<SentQuery> queries;
  std::vector<double> ingest_ms;  // Scheduled time to acknowledgement.
  std::vector<size_t> acked;      // Pool indices, in acknowledgement order.
  uint64_t ingest_failed = 0;
  size_t max_queue_depth = 0;
  double elapsed_s = 0.0;
  double cpu_s = 0.0;
  metrics::MetricsSnapshot registry_delta;
};

ServePhase RunServePhase(ServeFixture& fixture, double seconds) {
  serve::QueryService& service = *fixture.service;
  const record::Dataset& pool = *fixture.pool;
  ServePhase phase;
  const size_t queries =
      std::max<size_t>(1, static_cast<size_t>(seconds * kQueryRate));
  const size_t ingests = static_cast<size_t>(seconds * kIngestRate);
  const metrics::MetricsSnapshot before =
      metrics::Registry::Global().Snapshot();
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();

  std::thread writer([&] {
    for (size_t j = 0; j < ingests; ++j) {
      const Clock::time_point due = At(start, j / kIngestRate);
      std::this_thread::sleep_until(due);
      const size_t index = kPreload + j % kWriterPool;
      const Status status = service.Ingest(kStream, pool[index]);
      phase.ingest_ms.push_back(1e3 * SecondsSince(due));
      if (status.ok()) {
        phase.acked.push_back(index);
      } else {
        ++phase.ingest_failed;
      }
    }
  });
  std::vector<std::future<serve::QueryResponse>> futures;
  for (size_t i = 0; i < queries; ++i) {
    const Clock::time_point due = At(start, i / kQueryRate);
    std::this_thread::sleep_until(due);
    SentQuery sent;
    sent.allow_stale = i % 2 == 1;
    sent.lag_s = SecondsSince(due);
    futures.push_back(service.Submit(CountRequest(sent.allow_stale,
                                                  kDeadlineMs)));
    phase.queries.push_back(std::move(sent));
    phase.max_queue_depth =
        std::max(phase.max_queue_depth, service.Health().queue_depth);
  }
  writer.join();
  for (size_t i = 0; i < futures.size(); ++i) {
    phase.queries[i].response = futures[i].get();
  }
  phase.elapsed_s = SecondsSince(start);
  service.Drain();
  phase.cpu_s = ProcessCpuSeconds() - cpu_start;
  phase.registry_delta = metrics::MetricsSnapshot::Delta(
      before, metrics::Registry::Global().Snapshot());
  return phase;
}

/// Checks every served answer, and the post-Drain answer against a
/// reference stream rebuilt from the acknowledged mentions.
void CheckServeAnswers(ServeFixture& fixture, const ServePhase& phase,
                       Outcome& outcome) {
  outcome.attempted += phase.queries.size() + phase.ingest_ms.size() + 1;
  outcome.failed += phase.ingest_failed;
  std::map<uint64_t, uint64_t> digest_at_epoch;
  for (const SentQuery& sent : phase.queries) {
    const serve::QueryResponse& response = sent.response;
    if (!response.status.ok()) {
      ++outcome.failed;  // Shed or error.
      continue;
    }
    if (response.outcome != serve::ServedOutcome::kExact) continue;
    const uint64_t digest = AnswerDigest(response.result.answers);
    const auto [it, inserted] =
        digest_at_epoch.emplace(response.epoch, digest);
    if (!inserted && it->second != digest) {
      outcome.Mismatch("two exact answers at one epoch differ");
    }
  }

  serve::QueryResponse final_response =
      fixture.service->Execute(CountRequest(false, 10000));
  std::unique_ptr<topk::OnlineTopK> reference =
      MakeCitationStream(fixture.pool->schema());
  for (size_t i = 0; i < kPreload; ++i) {
    if (!reference->AddMention((*fixture.pool)[i]).ok()) {
      outcome.Mismatch("reference stream rejected a preload mention");
      return;
    }
  }
  for (size_t index : phase.acked) {
    if (!reference->AddMention((*fixture.pool)[index]).ok()) {
      outcome.Mismatch("reference stream rejected an acknowledged mention");
      return;
    }
  }
  topk::TopKCountOptions options;
  options.k = 5;
  options.r = 1;
  auto want_or = reference->Query(options);
  std::vector<double> weights;
  for (size_t i = 0; i < reference->mention_count(); ++i) {
    weights.push_back(reference->mention(i).weight);
  }
  const std::string violation = CheckAnswers(
      final_response.result.answers, weights, options.k, options.r);
  if (!violation.empty()) outcome.Mismatch(violation.c_str());
  if (!final_response.status.ok() ||
      final_response.outcome != serve::ServedOutcome::kExact ||
      !want_or.ok() ||
      AnswerDigest(final_response.result.answers) !=
          AnswerDigest(want_or.value().answers)) {
    outcome.Mismatch(
        "post-Drain answer differs from the reference OnlineTopK");
  }
  std::printf("final: epoch=%llu mentions=%llu groups=%zu\n",
              static_cast<unsigned long long>(final_response.epoch),
              static_cast<unsigned long long>(final_response.epoch_mentions),
              reference->group_count());
}

/// Library-layer metrics over the stream's published snapshot: the same
/// pruning-and-clustering query QuerySnapshot runs (a necessary-only
/// level over the group representatives), recomposed layer by layer.
StatusOr<LayerTrace> TraceSnapshotLayers(const ServeFixture& fixture) {
  std::shared_ptr<const topk::OnlineTopK::EpochSnapshot> pinned =
      fixture.stream->PinEpoch();
  if (pinned == nullptr) {
    return Status::FailedPrecondition("stream has no published epoch");
  }
  const record::Dataset& reps = pinned->snapshot.reps;
  TOPKDUP_ASSIGN_OR_RETURN(predicates::Corpus corpus,
                           predicates::Corpus::Build(&reps, {}));
  const predicates::QGramOverlapPredicate necessary(&corpus, 0, 0.6);
  const std::vector<dedup::PredicateLevel> levels = {{nullptr, &necessary}};
  const topk::PairScoreFn scorer = NameScorer(&reps, 0);
  topk::TopKCountOptions options;
  options.k = 5;
  options.r = 1;
  options.threads = kThreads;
  TOPKDUP_ASSIGN_OR_RETURN(
      topk::TopKCountResult first,
      topk::TopKCountQuery(reps, levels, scorer, options));
  std::printf("snapshot: reps=%zu n'=%zu\n", reps.size(),
              first.pruning.groups.size());
  return TraceLayers(reps, levels, scorer, options,
                     AnswerDigest(first.answers), 1.0, 5);
}

/// Per-layer serve metrics read from the responses, the registry delta and
/// the stream.
void AddServeLayerMetrics(const ServeFixture& fixture, const ServePhase& phase,
                          std::map<std::string, double>& m) {
  std::vector<double> queue_ms;
  std::vector<double> exec_ms;
  std::vector<double> exec_cpu_ms;
  double cpu_total = 0.0;
  double exec_total = 0.0;
  std::map<std::string, double> stage_cpu;
  double hits = 0.0;
  double stale = 0.0;
  double misses = 0.0;
  double degraded = 0.0;
  std::vector<double> lag_ms;
  for (const SentQuery& sent : phase.queries) {
    const serve::QueryResponse& response = sent.response;
    lag_ms.push_back(1e3 * sent.lag_s);
    if (response.cache == "hit") hits += 1.0;
    if (response.cache == "stale_hit") stale += 1.0;
    if (response.cache == "miss") misses += 1.0;
    if (!response.shed_reason.empty()) {
      m["serve.shed." + response.shed_reason] += 1.0;
    }
    if (response.outcome == serve::ServedOutcome::kBreakerDegraded ||
        (response.outcome == serve::ServedOutcome::kDegraded &&
         response.cache != "stale_hit")) {
      degraded += 1.0;
    }
    if (!response.status.ok() || response.attempts == 0) continue;
    const double exec_s = response.latency_seconds - response.queue_seconds;
    queue_ms.push_back(1e3 * response.queue_seconds);
    exec_ms.push_back(1e3 * exec_s);
    exec_cpu_ms.push_back(1e3 * response.cpu_seconds);
    cpu_total += response.cpu_seconds;
    exec_total += exec_s;
    for (const auto& [stage, seconds] : response.stage_cpu_seconds) {
      stage_cpu[stage] += seconds;
    }
  }
  const double sent = static_cast<double>(phase.queries.size());
  m["serve.queue_wait_ms.p50"] = Median(queue_ms);
  m["serve.queue_wait_ms.p99"] = NearestRank(queue_ms, 0.99);
  m["serve.exec_ms.p50"] = Median(exec_ms);
  m["serve.exec_ms.p99"] = NearestRank(exec_ms, 0.99);
  m["serve.exec_cpu_ms.p50"] = Median(exec_cpu_ms);
  m["serve.exec_par_eff"] =
      exec_total > 0.0 ? cpu_total / (exec_total * kThreads) : 0.0;
  for (const char* stage : {"pair_scoring", "segment_dp", "embedding",
                            "collapse", "lower_bound", "prune", "other"}) {
    m[std::string("serve.stage_cpu_share.") + stage] =
        cpu_total > 0.0 ? stage_cpu[stage] / cpu_total : 0.0;
  }
  m["serve.cache.hit_ratio"] = hits / sent;
  m["serve.cache.stale_ratio"] = stale / sent;
  m["serve.cache.miss_ratio"] = misses / sent;
  m["serve.degraded"] = degraded;
  m["serve.queue_depth.max"] = static_cast<double>(phase.max_queue_depth);
  m["serve.ingest_ms.p50"] = Median(phase.ingest_ms);
  m["serve.ingest_ms.tail"] = TailPercentile(phase.ingest_ms).value;
  const metrics::MetricsSnapshot& delta = phase.registry_delta;
  const double acked = std::max<double>(1.0, phase.acked.size());
  m["serve.wal.bytes_per_mention"] =
      static_cast<double>(delta.CounterValue("serve.wal.bytes")) / acked;
  m["serve.wal.fsyncs_per_mention"] =
      static_cast<double>(delta.CounterValue("serve.wal.fsyncs")) / acked;
  m["serve.wal.checkpoints"] =
      static_cast<double>(delta.CounterValue("serve.wal.checkpoints"));
  m["online.epochs_published_per_s"] =
      static_cast<double>(delta.CounterValue("online.epochs_published")) /
      phase.elapsed_s;
  m["online.reader_blocked"] =
      static_cast<double>(delta.CounterValue("online.reader_blocked"));
  m["online.groups_end"] = static_cast<double>(fixture.stream->group_count());
  m["bench.generator_lag_ms.p99"] = NearestRank(lag_ms, 0.99);
}

int RunServeWorkload(const Args& args) {
  namespace fs = std::filesystem;
  const std::string wal_dir = args.work_dir + "/wal";
  ServeFixture fixture;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    fixture = {};  // Destroys the previous service before its WAL goes.
    std::error_code ignored;
    fs::remove_all(wal_dir, ignored);
    const Clock::time_point start = Clock::now();
    auto fixture_or = MakeServeFixture(args.seed, wal_dir);
    if (!fixture_or.ok()) {
      std::fprintf(stderr, "set-up: %s\n",
                   fixture_or.status().ToString().c_str());
      return 2;
    }
    fixture = std::move(fixture_or).value();
    setup_s.push_back(SecondsSince(start));
  }
  std::printf("preloaded %zu mentions into %zu groups\n", kPreload,
              fixture.stream->group_count());

  LayerTrace snapshot_trace;
  if (args.trace) {
    auto trace_or = TraceSnapshotLayers(fixture);
    if (!trace_or.ok()) {
      std::fprintf(stderr, "traced snapshot query: %s\n",
                   trace_or.status().ToString().c_str());
      return 2;
    }
    snapshot_trace = std::move(trace_or).value();
  }

  const ServePhase phase = RunServePhase(fixture, args.seconds);
  Outcome outcome;
  outcome.attempted = snapshot_trace.attempted;
  for (uint64_t i = 0; i < snapshot_trace.mismatches; ++i) {
    outcome.Mismatch("snapshot answer differs from TopKCountQuery's");
  }
  CheckServeAnswers(fixture, phase, outcome);
  if (args.trace) {
    std::map<std::string, double>& layer_metrics = snapshot_trace.metrics;
    AddServeLayerMetrics(fixture, phase, layer_metrics);
    layer_metrics["bench.failed_ratio"] =
        static_cast<double>(outcome.failed) /
        static_cast<double>(outcome.attempted);
    AddLayerMetrics(outcome, layer_metrics);
  } else {
    std::vector<double> fresh_ms;
    double good = 0.0;
    double executed = 0.0;
    for (const SentQuery& sent : phase.queries) {
      const serve::QueryResponse& response = sent.response;
      if (!response.status.ok()) continue;
      if (!sent.allow_stale) fresh_ms.push_back(1e3 * sent.latency_s());
      if (response.outcome == serve::ServedOutcome::kExact &&
          sent.latency_s() <= kDeadlineMs / 1e3) {
        good += 1.0;
      }
      if (response.cache == "miss") executed += 1.0;
    }
    AddSetupAndMemory(outcome, setup_s);
    AddLatency(outcome, fresh_ms);
    outcome.Add("cpu_per_query_ms",
                1e3 * phase.cpu_s / std::max(1.0, executed), "ms");
    outcome.Add("goodput_qps", good / phase.elapsed_s, "1/s");
  }
  fixture = {};
  std::error_code ignored;
  fs::remove_all(wal_dir, ignored);
  PrintOutcome(outcome);
  return outcome.correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: querybench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  if (args.workload == "citation_count") {
    return RunQueryWorkload({20000, 5, 1, MakeCitationBundle}, args);
  }
  if (args.workload == "address_count") {
    return RunQueryWorkload({100000, 10, 10, MakeAddressBundle}, args);
  }
  if (args.workload == "serve_online") return RunServeWorkload(args);
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}

}  // namespace
}  // namespace topkdup::querybench

int main(int argc, char** argv) {
  return topkdup::querybench::Main(argc, argv);
}
