// Load generator for the resident QueryService (src/serve/): drives
// concurrent TopK count queries at configurable arrival rates and reports
// goodput, shed rate, degraded fraction, and p50/p95/p99 latency per
// phase.
//
// Phases:
//   closed   `--clients` threads issue `--requests` queries back-to-back.
//            With --clients=1 the answered / error / shed counts are
//            exact replays — the deterministic keys the CI perf gate pins.
//   rate<R>  One open-loop phase per `--rates=R1,R2,...` entry: requests
//            are submitted at R per second regardless of completion, so
//            rates above saturation exercise queue eviction and
//            predicted-miss shedding. Latencies and shed counts here are
//            machine-dependent and stay in the gate's loose band.
//
// Every response must be an answer (exact or degraded) or a typed
// rejection (ResourceExhausted / FailedPrecondition); anything else exits
// nonzero, so a smoke run proves the service degrades instead of
// crashing. --wal-fault-prob arms the durability fault sites (seeded by
// --fault-seed) so ingest rounds exercise the WAL rollback path.
//
//   load_serve --records=600 --requests=100 --rates=50,400
//       --json=BENCH_serve.json

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "common/faultpoint.h"
#include "common/metrics.h"
#include "common/status.h"
#include "datagen/citation_gen.h"
#include "obs/admin_server.h"
#include "predicates/citation.h"
#include "predicates/corpus.h"
#include "predicates/generic.h"
#include "serve/admin_endpoints.h"
#include "serve/service.h"
#include "sim/similarity.h"
#include "text/tokenize.h"
#include "topk/online.h"

namespace topkdup {
namespace {

using Clock = std::chrono::steady_clock;

/// Set by SIGTERM/SIGINT: the loops stop, the service shuts down cleanly
/// (batched epoch published, WAL synced, request log flushed), and the run
/// prints `clean_shutdown=1` — the marker the chaos harness uses to tell a
/// clean exit from a kill -9.
std::atomic<bool> g_stop{false};

void HandleStopSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

void InstallStopHandlers() {
  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGINT, HandleStopSignal);
}

serve::DatasetBundle MakeCitationBundle(int records, uint64_t seed) {
  datagen::CitationGenOptions gen;
  gen.num_records = records;
  gen.num_authors = std::max(1, records / 4);
  gen.seed = seed;
  auto data_or = datagen::GenerateCitations(gen);
  TOPKDUP_CHECK(data_or.ok());

  serve::DatasetBundle bundle;
  bundle.data =
      std::make_unique<record::Dataset>(std::move(data_or).value());
  auto corpus_or = predicates::Corpus::Build(bundle.data.get(), {});
  TOPKDUP_CHECK(corpus_or.ok());
  bundle.corpus =
      std::make_unique<predicates::Corpus>(std::move(corpus_or).value());
  auto s1 = std::make_unique<predicates::CitationS1>(
      bundle.corpus.get(), predicates::CitationFields{},
      0.75 * bundle.corpus->MaxIdf(0));
  auto n1 = std::make_unique<predicates::QGramOverlapPredicate>(
      bundle.corpus.get(), 0, 0.6);
  bundle.levels = {{s1.get(), n1.get()}};
  bundle.predicates.push_back(std::move(s1));
  bundle.predicates.push_back(std::move(n1));
  const record::Dataset* data = bundle.data.get();
  bundle.scorer = [data](size_t a, size_t b) {
    return (sim::JaroWinkler(text::NormalizeText((*data)[a].field(0)),
                             text::NormalizeText((*data)[b].field(0))) -
            0.85) *
           10.0;
  };
  return bundle;
}

/// Exact-key online stream for the durable-ingest workload (same shape as
/// the serve_test stream: collapse on field 0 equality, trivial scorer).
std::unique_ptr<topk::OnlineTopK> MakeKeyStream() {
  topk::OnlineTopK::Config config;
  config.sufficient_signature = [](const record::Record& r) {
    return std::vector<std::string>{r.field(0)};
  };
  config.sufficient_match = [](const record::Record& a,
                               const record::Record& b) {
    return a.field(0) == b.field(0);
  };
  config.necessary_factory = [](const predicates::Corpus& corpus) {
    return std::make_unique<predicates::CommonWordsPredicate>(
        &corpus, std::vector<int>{0}, 1);
  };
  config.scorer_factory = [](const record::Dataset&) {
    return [](size_t, size_t) { return -1.0; };
  };
  return std::make_unique<topk::OnlineTopK>(record::Schema({"key", "note"}),
                                            std::move(config));
}

/// The i-th mention of the canonical ingest sequence — a pure function of
/// i, so after a crash the harness can verify that the recovered stream is
/// exactly the prefix [0, acked).
record::Record CanonicalMention(int64_t i, int64_t keys) {
  record::Record r;
  r.fields = {"key-" + std::to_string(i % keys),
              "note-" + std::to_string(i)};
  r.weight = 1.0 + static_cast<double>(i % 7) * 0.5;
  r.entity_id = i % keys;
  return r;
}

/// Canonical dump of a count-query answer for bit-identical comparison
/// between a recovered stream and an uncrashed in-memory reference.
std::string DumpResult(const topk::TopKCountResult& result) {
  std::string out;
  char buf[160];
  for (const topk::TopKAnswerSet& answer : result.answers) {
    std::snprintf(buf, sizeof(buf), "answer score=%.17g\n", answer.score);
    out += buf;
    for (const topk::AnswerGroup& group : answer.groups) {
      std::snprintf(buf, sizeof(buf), " group w=%.17g lo=%.17g hi=%.17g m=",
                    group.weight, group.count_lower, group.count_upper);
      out += buf;
      std::vector<size_t> members = group.members;
      std::sort(members.begin(), members.end());
      for (size_t m : members) {
        out += std::to_string(m);
        out += ",";
      }
      out += "\n";
    }
  }
  return out;
}

struct PhaseStats {
  std::string label;
  int requests = 0;
  double wall_seconds = 0.0;
  int exact = 0;
  int degraded = 0;          // Deadline-degraded answers.
  int breaker_degraded = 0;  // Bounds-only cached answers.
  int shed = 0;
  int errors = 0;  // Typed errors (breaker strict).
  int invalid = 0;  // Untyped / unexpected — fails the run.
  std::vector<double> latencies;  // Answered requests only.

  int answered() const { return exact + degraded + breaker_degraded; }
  double goodput_qps() const {
    return wall_seconds > 0.0 ? answered() / wall_seconds : 0.0;
  }
};

void Absorb(PhaseStats& stats, const serve::QueryResponse& response) {
  if (response.status.ok()) {
    switch (response.outcome) {
      case serve::ServedOutcome::kExact:
        ++stats.exact;
        break;
      case serve::ServedOutcome::kDegraded:
        ++stats.degraded;
        break;
      case serve::ServedOutcome::kBreakerDegraded:
        ++stats.breaker_degraded;
        break;
      default:
        ++stats.invalid;
        return;
    }
    stats.latencies.push_back(response.latency_seconds);
    return;
  }
  switch (response.status.code()) {
    case StatusCode::kResourceExhausted:
      ++stats.shed;
      break;
    case StatusCode::kFailedPrecondition:
      ++stats.errors;
      break;
    default:
      ++stats.invalid;
      std::fprintf(stderr, "unexpected response: %s\n",
                   response.status.ToString().c_str());
      break;
  }
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t index = std::min(
      values.size() - 1,
      static_cast<size_t>(q * static_cast<double>(values.size())));
  return values[index];
}

serve::QueryRequest MakeRequest(const bench::Flags& flags) {
  serve::QueryRequest request;
  request.dataset = "cites";
  request.kind = serve::QueryKind::kTopKCount;
  request.k = static_cast<int>(flags.GetInt("k", 5));
  request.deadline_ms = flags.GetInt("deadline-ms", 1000);
  return request;
}

serve::QueryRequest MakeStreamRequest(const bench::Flags& flags,
                                      bool allow_stale) {
  serve::QueryRequest request;
  request.dataset = "stream";
  request.kind = serve::QueryKind::kTopKCount;
  request.k = static_cast<int>(flags.GetInt("k", 5));
  request.deadline_ms = flags.GetInt("deadline-ms", 1000);
  request.allow_stale = allow_stale;
  return request;
}

/// One schedule query as parseable marker lines: the pinned epoch, the
/// stream prefix the answer self-describes (mentions=N), the cache
/// disposition, and every answer group — everything the epoch harness's
/// serial oracle needs to recompute the truth at prefix N.
void PrintScheduleQuery(const serve::QueryResponse& response) {
  std::string out;
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "schedule.q epoch=%llu mentions=%llu cache=%s "
                "staleness=%.17g outcome=%s\n",
                static_cast<unsigned long long>(response.epoch),
                static_cast<unsigned long long>(response.epoch_mentions),
                response.cache.empty() ? "none" : response.cache.c_str(),
                response.staleness_weight,
                serve::ServedOutcomeName(response.outcome));
  out += buf;
  if (!response.result.answers.empty()) {
    const topk::TopKAnswerSet& answer = response.result.answers.front();
    for (const topk::AnswerGroup& group : answer.groups) {
      std::snprintf(buf, sizeof(buf),
                    "schedule.group rep=%zu w=%.17g lo=%.17g hi=%.17g n=%zu\n",
                    group.representative, group.weight, group.count_lower,
                    group.count_upper, group.members.size());
      out += buf;
    }
  }
  // One fputs so concurrent marker lines never interleave mid-line.
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

/// Deterministic ingest/query interleaving driver for the epoch harness.
/// Comma-separated tokens:
///   iN      ingest N canonical mentions (continuing the sequence)
///   q       one count query (allow_stale=false), printed as schedule.q
///   s       one count query with allow_stale=true
///   xA:B:C  race B reader threads x C queries each against the main
///           thread ingesting A mentions (responses printed after join)
///   d       Drain() — forces pending batched epochs + durability
///   halt    simulated crash: _Exit(7), no destructors, no Drain
int RunEpochSchedule(serve::QueryService& service, topk::OnlineTopK& stream,
                     const bench::Flags& flags, const std::string& schedule,
                     int64_t keys) {
  int64_t next = static_cast<int64_t>(stream.mention_count());
  size_t pos = 0;
  while (pos <= schedule.size()) {
    const size_t comma = schedule.find(',', pos);
    const std::string tok =
        schedule.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
    pos = comma == std::string::npos ? schedule.size() + 1 : comma + 1;
    if (tok.empty()) continue;
    if (tok == "halt") {
      std::fflush(stdout);
      std::_Exit(7);
    } else if (tok == "d") {
      service.Drain();
      std::printf("schedule.drained=1\n");
      std::fflush(stdout);
    } else if (tok == "q" || tok == "s") {
      serve::QueryResponse response =
          service.Execute(MakeStreamRequest(flags, tok == "s"));
      if (!response.status.ok()) {
        std::fprintf(stderr, "FAIL: schedule query: %s\n",
                     response.status.ToString().c_str());
        return 4;
      }
      PrintScheduleQuery(response);
    } else if (tok[0] == 'i') {
      const int64_t n = std::atoll(tok.c_str() + 1);
      for (int64_t j = 0; j < n; ++j) {
        Status s = service.Ingest("stream", CanonicalMention(next, keys));
        if (!s.ok()) {
          std::fprintf(stderr, "FAIL: schedule ingest %lld: %s\n",
                       static_cast<long long>(next), s.ToString().c_str());
          return 4;
        }
        ++next;
      }
      std::printf("schedule.ingested=%lld\n", static_cast<long long>(next));
      std::fflush(stdout);
    } else if (tok[0] == 'x') {
      long long ingest_n = 0, readers_n = 0, queries_n = 0;
      if (std::sscanf(tok.c_str() + 1, "%lld:%lld:%lld", &ingest_n,
                      &readers_n, &queries_n) != 3 ||
          readers_n < 1 || queries_n < 1 || ingest_n < 0) {
        std::fprintf(stderr, "FAIL: bad schedule token '%s'\n", tok.c_str());
        return 4;
      }
      std::vector<std::vector<serve::QueryResponse>> per(
          static_cast<size_t>(readers_n));
      std::vector<std::thread> readers;
      for (long long t = 0; t < readers_n; ++t) {
        readers.emplace_back([&service, &flags, &per, t, queries_n] {
          for (long long i = 0; i < queries_n; ++i) {
            per[static_cast<size_t>(t)].push_back(
                service.Execute(MakeStreamRequest(flags, false)));
          }
        });
      }
      for (long long j = 0; j < ingest_n; ++j) {
        Status s = service.Ingest("stream", CanonicalMention(next, keys));
        if (!s.ok()) {
          std::fprintf(stderr, "FAIL: schedule race ingest %lld: %s\n",
                       static_cast<long long>(next), s.ToString().c_str());
          for (auto& thread : readers) thread.join();
          return 4;
        }
        ++next;
      }
      for (auto& thread : readers) thread.join();
      for (const auto& responses : per) {
        for (const serve::QueryResponse& response : responses) {
          if (!response.status.ok()) {
            std::fprintf(stderr, "FAIL: schedule race query: %s\n",
                         response.status.ToString().c_str());
            return 4;
          }
          PrintScheduleQuery(response);
        }
      }
      std::printf("schedule.ingested=%lld\n", static_cast<long long>(next));
      std::fflush(stdout);
    } else {
      std::fprintf(stderr, "FAIL: unknown schedule token '%s'\n",
                   tok.c_str());
      return 4;
    }
  }
  return 0;
}

/// Closed loop: each client issues its share back-to-back.
PhaseStats RunClosedLoop(serve::QueryService& service,
                         const bench::Flags& flags, int requests,
                         int clients) {
  PhaseStats stats;
  stats.label = "closed";
  stats.requests = requests;
  std::vector<std::vector<serve::QueryResponse>> per_client(clients);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    const int share = requests / clients + (c < requests % clients ? 1 : 0);
    threads.emplace_back([&service, &flags, &per_client, c, share] {
      for (int i = 0; i < share; ++i) {
        if (g_stop.load(std::memory_order_relaxed)) break;
        per_client[c].push_back(service.Execute(MakeRequest(flags)));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  stats.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (const auto& responses : per_client) {
    for (const auto& response : responses) Absorb(stats, response);
  }
  return stats;
}

/// Open loop: submissions are paced at `rate` per second no matter how
/// the service keeps up — the overload probe.
PhaseStats RunOpenLoop(serve::QueryService& service,
                       const bench::Flags& flags, int requests, int rate) {
  PhaseStats stats;
  stats.label = "rate" + std::to_string(rate);
  stats.requests = requests;
  std::vector<std::future<serve::QueryResponse>> futures;
  futures.reserve(requests);
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < requests; ++i) {
    if (g_stop.load(std::memory_order_relaxed)) break;
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        static_cast<double>(i) / rate)));
    futures.push_back(service.Submit(MakeRequest(flags)));
  }
  for (auto& future : futures) Absorb(stats, future.get());
  stats.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return stats;
}

int Main(int argc, char** argv) {
  InstallStopHandlers();
  bench::Flags flags(argc, argv);
  const int records = static_cast<int>(flags.GetInt("records", 600));
  const int requests = static_cast<int>(flags.GetInt("requests", 100));
  const int clients = static_cast<int>(flags.GetInt("clients", 1));
  const int64_t fault_seed = flags.GetInt("fault-seed", 20090324);
  std::vector<int> rates = {50, 400};
  rates = flags.GetIntList("rates", rates);
  // Durable-ingest knobs (all default-off; the pinned query workload is
  // byte-identical without them). --wal-dir turns on the durability layer
  // for the online "stream" dataset; --ingest drives the canonical
  // mention sequence into it; --ack-log appends one line per acknowledged
  // mention (the chaos harness's loss oracle); --verify recovers, checks
  // the stream against the canonical prefix, and compares query answers
  // bit-identically to an uncrashed in-memory reference.
  const std::string wal_dir = flags.GetString("wal-dir", "");
  const std::string wal_fsync = flags.GetString("wal-fsync", "always");
  const int64_t ingest_n = flags.GetInt("ingest", 0);
  const int64_t ingest_keys = std::max<int64_t>(1, flags.GetInt("ingest-keys", 50));
  const int64_t ingest_sleep_us = flags.GetInt("ingest-sleep-us", 0);
  const std::string ack_log = flags.GetString("ack-log", "");
  const bool verify = flags.GetInt("verify", 0) != 0;
  // Snapshot-isolation knobs. --cache=off disables serving from the
  // answer cache (it is still populated, so the breaker fallback works);
  // --epoch-batch-ms>0 batches epoch publication; --cache-phase runs a
  // deterministic repeated-query mix whose hit/stale/miss counts the CI
  // gate pins; --epoch-schedule hands control to the interleaving driver
  // used by tools/epoch_harness.py.
  const std::string cache_flag = flags.GetString("cache", "on");
  const int64_t epoch_batch_ms = flags.GetInt("epoch-batch-ms", 0);
  const int64_t cache_phase = flags.GetInt("cache-phase", 0);
  const std::string epoch_schedule = flags.GetString("epoch-schedule", "");
  const bool want_stream = !wal_dir.empty() || ingest_n > 0 || verify ||
                           cache_phase > 0 || !epoch_schedule.empty();
  bench::Observability obs = bench::ApplyObservabilityFlags(flags);

  serve::ServiceOptions options;
  options.workers = static_cast<int>(flags.GetInt("workers", 2));
  options.queue_capacity =
      static_cast<size_t>(flags.GetInt("queue-capacity", 16));
  options.default_deadline_ms = flags.GetInt("deadline-ms", 1000);
  options.cache.enabled = cache_flag != "off";
  options.epoch_batch_ms = epoch_batch_ms;
  // Introspection-plane knobs. None of these enter the exported params:
  // they must not invalidate pinned baselines, and with the defaults
  // (admin off, memory-only log, slow detection off) the workload and its
  // deterministic counters are byte-identical to a build without them.
  options.request_log.path = flags.GetString("request-log", "");
  options.request_log.ok_sample_every =
      static_cast<uint64_t>(flags.GetInt("log-sample", 16));
  options.request_log.slow_ms = flags.GetInt("slow-ms", 0);
  options.request_log.max_bytes = static_cast<uint64_t>(
      flags.GetInt("request-log-max-bytes", 0));
  options.wal_dir = wal_dir;
  {
    auto policy_or = serve::ParseWalFsyncPolicy(wal_fsync);
    if (!policy_or.ok()) {
      std::fprintf(stderr, "--wal-fsync: %s\n",
                   policy_or.status().ToString().c_str());
      return 1;
    }
    options.wal.fsync = policy_or.value();
  }
  options.wal.every_n =
      static_cast<uint64_t>(flags.GetInt("wal-every-n", 32));
  options.wal.interval_ms = flags.GetInt("wal-interval-ms", 50);
  // Heap-owned so the run can destroy the service — the clean-shutdown
  // path (Drain, WAL sync, worker join) — *before* printing the
  // clean_shutdown marker the chaos harness trusts.
  auto service = std::make_unique<serve::QueryService>(options);
  // Register (and calibrate) before arming programmatic faults so the
  // cost estimate and the breaker's degraded-answer cache start clean.
  // With --requests=0 (the crash-harness ingest rounds) the query dataset
  // is skipped entirely — registration and calibration cost would only
  // slow the crash loop down.
  if (requests > 0) {
    Status registered =
        service->RegisterDataset("cites", MakeCitationBundle(records, 7));
    if (!registered.ok()) {
      std::fprintf(stderr, "RegisterDataset: %s\n",
                   registered.ToString().c_str());
      return 1;
    }
  }

  // The durable online stream. Registration runs crash recovery when
  // persisted state exists; a typed recovery failure (mid-file WAL
  // corruption) exits 2 with the status on stderr so the harness can
  // assert the error class.
  topk::OnlineTopK* stream_raw = nullptr;
  if (want_stream) {
    auto stream = MakeKeyStream();
    stream_raw = stream.get();
    Status registered = service->RegisterOnline("stream", std::move(stream));
    if (!registered.ok()) {
      std::fprintf(stderr, "RegisterOnline: %s\n",
                   registered.ToString().c_str());
      return 2;
    }
  }
  // --admin-port=-1 (default) keeps the admin plane entirely off;
  // --admin-port=0 binds an ephemeral port and prints it, which is how
  // the CI endpoint smoke attaches without port collisions.
  const int admin_port = static_cast<int>(flags.GetInt("admin-port", -1));
  obs::AdminServer admin({admin_port < 0 ? 0 : admin_port});
  if (admin_port >= 0) {
    serve::RegisterAdminEndpoints(admin, *service);
    Status started = admin.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "admin server: %s\n", started.ToString().c_str());
      return 1;
    }
    std::printf("admin.port=%d\n", admin.port());
    std::fflush(stdout);
  }

  // Recovery verification: the recovered stream must be exactly the
  // canonical prefix, and its query answers bit-identical to a reference
  // stream rebuilt in memory from that prefix.
  if (verify && stream_raw != nullptr) {
    const size_t recovered = stream_raw->mention_count();
    for (size_t i = 0; i < recovered; ++i) {
      const record::Record& got = stream_raw->mention(i);
      const record::Record want =
          CanonicalMention(static_cast<int64_t>(i), ingest_keys);
      if (got.fields != want.fields || got.weight != want.weight ||
          got.entity_id != want.entity_id) {
        std::fprintf(stderr,
                     "FAIL: recovered mention %zu diverges from the "
                     "canonical sequence\n",
                     i);
        return 3;
      }
    }
    auto reference = MakeKeyStream();
    for (size_t i = 0; i < recovered; ++i) {
      Status added = reference->AddMention(
          CanonicalMention(static_cast<int64_t>(i), ingest_keys));
      TOPKDUP_CHECK(added.ok());
    }
    topk::TopKCountOptions qopts;
    qopts.k = static_cast<int>(flags.GetInt("k", 5));
    qopts.r = 1;
    std::string got_dump;
    std::string want_dump;
    if (recovered > 0) {
      auto got_or = stream_raw->Query(qopts);
      auto want_or = reference->Query(qopts);
      if (!got_or.ok() || !want_or.ok()) {
        std::fprintf(stderr, "FAIL: verify query failed: %s / %s\n",
                     got_or.status().ToString().c_str(),
                     want_or.status().ToString().c_str());
        return 3;
      }
      got_dump = DumpResult(got_or.value());
      want_dump = DumpResult(want_or.value());
    }
    if (got_dump != want_dump) {
      std::fprintf(stderr,
                   "FAIL: recovered query answer differs from the "
                   "in-memory reference\n got:\n%s want:\n%s",
                   got_dump.c_str(), want_dump.c_str());
      return 3;
    }
    std::printf("verify.recovered=%zu verify.match=1\n", recovered);
    std::fflush(stdout);
  }

  // The chaos harness arms the durability sites so crash rounds exercise
  // the WAL rollback + ingest retry path; the query workload has no fault
  // sites, so the pinned query counters are unaffected.
  const double wal_fault_prob = flags.GetDouble("wal-fault-prob", 0.0);
  if (wal_fault_prob > 0.0) {
    fault::ArmForTest("wal.append", wal_fault_prob,
                      static_cast<uint64_t>(fault_seed) + 1);
    fault::ArmForTest("wal.fsync", wal_fault_prob,
                      static_cast<uint64_t>(fault_seed) + 2);
  }

  // Ingest phase: drive the canonical mention sequence, one writer,
  // unbounded retry on transient failures — an index is acknowledged (and
  // appended to --ack-log) only after Ingest returned OK, so the ack log
  // is always a sound lower bound on what must survive a crash.
  int64_t acked = 0;
  if (ingest_n > 0 && stream_raw != nullptr) {
    std::FILE* ack_file =
        ack_log.empty() ? nullptr : std::fopen(ack_log.c_str(), "a");
    if (!ack_log.empty() && ack_file == nullptr) {
      std::fprintf(stderr, "cannot open --ack-log=%s\n", ack_log.c_str());
      return 1;
    }
    const int64_t base = static_cast<int64_t>(stream_raw->mention_count());
    const Clock::time_point ingest_start = Clock::now();
    for (int64_t i = base; i < base + ingest_n; ++i) {
      if (g_stop.load(std::memory_order_relaxed)) break;
      bool fatal = false;
      for (;;) {
        Status s = service->Ingest("stream",
                                   CanonicalMention(i, ingest_keys));
        if (s.ok()) break;
        if (s.code() != StatusCode::kInternal &&
            s.code() != StatusCode::kIOError) {
          std::fprintf(stderr, "FAIL: ingest %lld: %s\n",
                       static_cast<long long>(i), s.ToString().c_str());
          fatal = true;
          break;
        }
        if (g_stop.load(std::memory_order_relaxed)) break;
      }
      if (fatal) return 1;
      if (g_stop.load(std::memory_order_relaxed) &&
          static_cast<int64_t>(stream_raw->mention_count()) == i) {
        break;  // Stopped before this mention was acknowledged.
      }
      ++acked;
      if (ack_file != nullptr) {
        std::fprintf(ack_file, "%lld\n", static_cast<long long>(i + 1));
        std::fflush(ack_file);
      }
      if (ingest_sleep_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(ingest_sleep_us));
      }
    }
    if (ack_file != nullptr) std::fclose(ack_file);
    const double ingest_seconds =
        std::chrono::duration<double>(Clock::now() - ingest_start).count();
    std::printf("ingest.acked=%lld ingest.seconds=%.3f\n",
                static_cast<long long>(acked), ingest_seconds);
    std::fflush(stdout);
  }

  // Deterministic ingest/query interleaving driver (tools/epoch_harness.py).
  // Falls through to the normal tail — with --requests=0 the phases below
  // are empty, but the stream markers and the clean-shutdown protocol
  // (or the in-schedule `halt` crash) still apply.
  if (!epoch_schedule.empty() && stream_raw != nullptr) {
    const int rc = RunEpochSchedule(*service, *stream_raw, flags,
                                    epoch_schedule, ingest_keys);
    if (rc != 0) return rc;
  }

  std::vector<PhaseStats> phases;
  const uint64_t log_emitted_before = service->request_log().emitted();
  phases.push_back(RunClosedLoop(*service, flags, requests, clients));
  const uint64_t closed_log_emitted =
      service->request_log().emitted() - log_emitted_before;
  for (int rate : rates) {
    phases.push_back(RunOpenLoop(*service, flags, requests, rate));
  }
  service->Drain();
  fault::DisarmAllForTest();
  // Repeated-query mix against the online stream: a deterministic serial
  // schedule whose steady state is 1 miss / 2 hits / 2 stale hits per 5
  // queries (ingest at i%5==3 invalidates the entry; the two queries that
  // follow it allow stale service), so the cache-path scalars the CI gate
  // pins are exact. Runs after Drain + fault disarm so WAL faults never
  // fail its ingests.
  int64_t cache_phase_hits = 0;
  int64_t cache_phase_stale = 0;
  int64_t cache_phase_miss = 0;
  if (cache_phase > 0 && stream_raw != nullptr) {
    int64_t next = static_cast<int64_t>(stream_raw->mention_count());
    if (next == 0) {
      Status seeded =
          service->Ingest("stream", CanonicalMention(next, ingest_keys));
      if (!seeded.ok()) {
        std::fprintf(stderr, "FAIL: cache-phase seed ingest: %s\n",
                     seeded.ToString().c_str());
        return 1;
      }
      ++next;
    }
    for (int64_t i = 0; i < cache_phase; ++i) {
      if (i % 5 == 3) {
        Status s =
            service->Ingest("stream", CanonicalMention(next, ingest_keys));
        if (!s.ok()) {
          std::fprintf(stderr, "FAIL: cache-phase ingest: %s\n",
                       s.ToString().c_str());
          return 1;
        }
        ++next;
      }
      serve::QueryResponse response = service->Execute(
          MakeStreamRequest(flags, i % 5 == 3 || i % 5 == 4));
      if (!response.status.ok()) {
        std::fprintf(stderr, "FAIL: cache-phase query %lld: %s\n",
                     static_cast<long long>(i),
                     response.status.ToString().c_str());
        return 1;
      }
      if (response.cache == "hit") {
        ++cache_phase_hits;
      } else if (response.cache == "stale_hit") {
        ++cache_phase_stale;
      } else {
        ++cache_phase_miss;
      }
    }
    std::printf(
        "cache_phase.requests=%lld cache_phase.hits=%lld "
        "cache_phase.stale_hits=%lld cache_phase.misses=%lld\n",
        static_cast<long long>(cache_phase),
        static_cast<long long>(cache_phase_hits),
        static_cast<long long>(cache_phase_stale),
        static_cast<long long>(cache_phase_miss));
    std::fflush(stdout);
  }
  // Keep the admin endpoints answering after the workload drains so an
  // external prober (the CI smoke) can finish scraping a quiesced,
  // self-consistent state.
  const int64_t linger_ms = flags.GetInt("linger-ms", 0);
  if (admin_port >= 0 && linger_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
  }

  bench::TablePrinter table(
      {"phase", "reqs", "goodput", "shed%", "degr%", "err", "p50ms",
       "p95ms", "p99ms"},
      {9, 6, 9, 7, 7, 5, 8, 8, 8});
  table.PrintHeader();
  for (const PhaseStats& p : phases) {
    table.PrintRow({p.label, std::to_string(p.requests),
                    bench::Num(p.goodput_qps(), 1),
                    bench::Pct(p.shed, p.requests),
                    bench::Pct(p.degraded + p.breaker_degraded, p.requests),
                    std::to_string(p.errors),
                    bench::Num(1e3 * Percentile(p.latencies, 0.50), 1),
                    bench::Num(1e3 * Percentile(p.latencies, 0.95), 1),
                    bench::Num(1e3 * Percentile(p.latencies, 0.99), 1)});
  }

  const serve::HealthSnapshot health = service->Health();
  std::printf("serve.admitted=%llu serve.shed=%llu\n",
              static_cast<unsigned long long>(health.admitted),
              static_cast<unsigned long long>(health.shed));
  if (want_stream) {
    const metrics::MetricsSnapshot ms = metrics::Registry::Global().Snapshot();
    std::printf(
        "wal.appends=%llu wal.fsyncs=%llu wal.bytes=%llu "
        "wal.recovered_mentions=%llu wal.truncated_tail_bytes=%llu\n",
        static_cast<unsigned long long>(ms.CounterValue("serve.wal.appends")),
        static_cast<unsigned long long>(ms.CounterValue("serve.wal.fsyncs")),
        static_cast<unsigned long long>(ms.CounterValue("serve.wal.bytes")),
        static_cast<unsigned long long>(
            ms.CounterValue("serve.wal.recovered_mentions")),
        static_cast<unsigned long long>(
            ms.CounterValue("serve.wal.truncated_tail_bytes")));
    std::printf(
        "online.epochs_published=%llu online.reader_blocked=%llu "
        "online.epoch=%llu\n",
        static_cast<unsigned long long>(
            ms.CounterValue("online.epochs_published")),
        static_cast<unsigned long long>(
            ms.CounterValue("online.reader_blocked")),
        static_cast<unsigned long long>(stream_raw->current_epoch()));
    std::fflush(stdout);
  }

  std::vector<std::pair<std::string, double>> params = {
      {"records", static_cast<double>(records)},
      {"requests", static_cast<double>(requests)},
      {"clients", static_cast<double>(clients)},
      {"workers", static_cast<double>(options.workers)},
      {"queue_capacity", static_cast<double>(options.queue_capacity)},
      {"deadline_ms", static_cast<double>(options.default_deadline_ms)},
      {"k", static_cast<double>(flags.GetInt("k", 5))},
      {"fault_seed", static_cast<double>(fault_seed)},
  };
  for (size_t i = 0; i < rates.size(); ++i) {
    params.emplace_back("rate." + std::to_string(i),
                        static_cast<double>(rates[i]));
  }
  // One run entry per phase: k = arrival rate (0 for the closed loop),
  // seconds = phase wall time — the gate's loose latency band. The
  // closed-loop counters are exact-replay deterministic and are pinned by
  // the gate's --exact-scalars list.
  std::vector<bench::BenchRun> runs;
  std::vector<std::pair<std::string, double>> scalars;
  int invalid = 0;
  for (const PhaseStats& p : phases) {
    bench::BenchRun run;
    run.k = p.label == "closed" ? 0 : std::stoi(p.label.substr(4));
    run.seconds = p.wall_seconds;
    runs.push_back(std::move(run));
    scalars.emplace_back(p.label + ".requests", p.requests);
    scalars.emplace_back(p.label + ".answered", p.answered());
    scalars.emplace_back(p.label + ".degraded",
                         p.degraded + p.breaker_degraded);
    scalars.emplace_back(p.label + ".shed", p.shed);
    scalars.emplace_back(p.label + ".errors", p.errors);
    scalars.emplace_back(p.label + ".goodput_qps", p.goodput_qps());
    scalars.emplace_back(p.label + ".p50_seconds",
                         Percentile(p.latencies, 0.50));
    scalars.emplace_back(p.label + ".p95_seconds",
                         Percentile(p.latencies, 0.95));
    scalars.emplace_back(p.label + ".p99_seconds",
                         Percentile(p.latencies, 0.99));
    invalid += p.invalid;
  }
  // Deterministic introspection counters the CI gate pins exactly: the
  // closed loop's request-log emission set replays with the workload (ids
  // are sequential, sampling is a pure hash), and admin.requests is 0
  // whenever no external prober was pointed at the admin port.
  scalars.emplace_back("closed.requestlog_emitted",
                       static_cast<double>(closed_log_emitted));
  scalars.emplace_back(
      "admin.requests",
      static_cast<double>(metrics::Registry::Global().Snapshot().CounterValue(
          "obs.admin.requests")));
  // Answer-cache and epoch-publication counters: with --cache-phase the
  // serial mix makes these exact; with --cache=off the hits stay 0. Both
  // configurations are pinned by the gate's --exact-scalars list.
  {
    const metrics::MetricsSnapshot ms = metrics::Registry::Global().Snapshot();
    scalars.emplace_back(
        "serve.cache.hits",
        static_cast<double>(ms.CounterValue("serve.cache.hits")));
    scalars.emplace_back(
        "serve.cache.stale_hits",
        static_cast<double>(ms.CounterValue("serve.cache.stale_hits")));
    scalars.emplace_back(
        "serve.cache.misses",
        static_cast<double>(ms.CounterValue("serve.cache.misses")));
    scalars.emplace_back(
        "online.epochs_published",
        static_cast<double>(ms.CounterValue("online.epochs_published")));
  }
  bench::ExportBenchArtifacts(flags.GetString("json", ""), obs,
                              "serve_load", params, scalars, runs);

  if (invalid > 0) {
    std::fprintf(stderr,
                 "FAIL: %d response(s) were neither an answer nor a typed "
                 "rejection\n",
                 invalid);
    return 1;
  }
  std::printf("OK: every response was an answer or a typed rejection\n");
  // Destroy the service before claiming a clean shutdown: the destructor
  // drains and syncs every WAL — only once it has returned is everything
  // acknowledged actually durable.
  service.reset();
  std::printf("clean_shutdown=1\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace topkdup

int main(int argc, char** argv) { return topkdup::Main(argc, argv); }
