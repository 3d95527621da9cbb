#ifndef TOPKDUP_SERVE_SERVICE_H_
#define TOPKDUP_SERVE_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/metrics.h"
#include "common/resource_meter.h"
#include "common/status.h"
#include "dedup/pruned_dedup.h"
#include "predicates/corpus.h"
#include "predicates/pair_predicate.h"
#include "record/record.h"
#include "serve/answer_cache.h"
#include "serve/breaker.h"
#include "serve/request_log.h"
#include "serve/wal.h"
#include "topk/online.h"
#include "topk/rank_query.h"
#include "topk/topk_query.h"

namespace topkdup::serve {

/// What kind of query a request asks for.
enum class QueryKind : int {
  kTopKCount = 0,  // Algorithm 2 + §5 (TopKCountQuery / OnlineTopK).
  kTopKRank = 1,   // §7.1 (TopKRankQuery; static datasets only).
};

/// One query against a registered dataset.
struct QueryRequest {
  std::string dataset;
  QueryKind kind = QueryKind::kTopKCount;
  int k = 10;
  /// Plausible answers (the paper's R; count queries only).
  int r = 1;
  /// Caller's wall-clock budget. 0 uses the service default; any value is
  /// clamped to ServiceOptions::max_deadline_ms. The budget covers queue
  /// wait and execution: the one execution attempt runs under whatever
  /// the queue wait left of it.
  int64_t deadline_ms = 0;
  /// When nonzero, execution runs under this deterministic work-unit
  /// budget instead of the remaining wall-clock budget (tests and
  /// reproducible benches; the wall budget still governs queueing).
  uint64_t work_budget = 0;
  /// Accept a bounds-only cached answer when the dataset's breaker is
  /// open. When false an open breaker yields FailedPrecondition instead.
  bool allow_degraded = true;
  /// Accept a cached answer computed at an *older* epoch, served as a
  /// degraded bounds-only result with count_upper widened by the weight
  /// published since that epoch (always sound — see AnswerCache). When
  /// false only a current-epoch cache hit short-circuits execution.
  bool allow_stale = false;
};

/// How the service disposed of a request.
enum class ServedOutcome : int {
  kExact = 0,            // Full-quality answer.
  kDegraded = 1,         // Deadline-degraded answer with sound intervals.
  kBreakerDegraded = 2,  // Bounds-only cached answer; breaker open.
  kShed = 3,             // Load-shed before execution (ResourceExhausted).
  kError = 4,            // Typed error (validation, breaker strict, or a
                         // request the pipeline rejected).
};

const char* ServedOutcomeName(ServedOutcome outcome);

struct QueryResponse {
  /// OK for kExact / kDegraded / kBreakerDegraded; the typed rejection
  /// otherwise (ResourceExhausted = shed, FailedPrecondition = breaker open
  /// with no cached answer or a dataset the query cannot run on yet,
  /// InvalidArgument / NotFound = a request that failed validation).
  Status status;
  /// Count-query answer (kind == kTopKCount and status.ok()).
  topk::TopKCountResult result;
  /// Rank-query answer (kind == kTopKRank and status.ok()).
  std::optional<topk::TopKRankResult> rank;
  ServedOutcome outcome = ServedOutcome::kError;
  /// Service-assigned id, unique per Submit for the process lifetime. The
  /// same id is stamped on the query's trace spans, request-log line, and
  /// explain report, so a response in hand joins directly against the
  /// introspection plane.
  uint64_t query_id = 0;
  /// Shed reason ("queue_full", "predicted_miss", "expired_in_queue",
  /// "shutdown") when outcome == kShed; empty otherwise.
  std::string shed_reason;
  /// Execution attempts made: 1 when the query ran, 0 when it was answered
  /// or rejected before execution.
  int attempts = 0;
  /// Seconds spent queued before execution began.
  double queue_seconds = 0.0;
  /// Admission-to-response wall seconds (queue + execution).
  double latency_seconds = 0.0;
  /// CPU seconds the query's execution attempt charged to its
  /// ResourceMeter, across every pool worker the work fanned out to (0
  /// for requests that never executed). Identically the sum of
  /// stage_cpu_seconds.
  double cpu_seconds = 0.0;
  /// Per-stage CPU breakdown, sorted by stage name ("collapse",
  /// "lower_bound", "prune", "pair_scoring", "segment_dp", "embedding",
  /// "other").
  std::vector<std::pair<std::string, double>> stage_cpu_seconds;
  /// Epoch the answer was computed at (online datasets; 0 for static
  /// datasets and unanswered requests). An exact answer's epoch is the
  /// epoch its snapshot was pinned at; a cached answer's is the epoch the
  /// cache entry was computed at.
  uint64_t epoch = 0;
  /// Mention count of the pinned epoch's snapshot (self-describes the
  /// stream prefix the answer covers; online datasets only).
  uint64_t epoch_mentions = 0;
  /// Answer-cache disposition: "hit" (current-epoch, bit-identical to
  /// recomputing), "stale_hit" (older epoch, bounds widened), "miss"
  /// (executed), or empty when the cache was not consulted (static
  /// datasets, rank queries, cache disabled).
  std::string cache;
  /// Published weight ingested since the cached epoch — the amount
  /// count_upper was widened by (nonzero only for stale serves).
  double staleness_weight = 0.0;
};

/// Everything the service must own for a resident static dataset. The
/// predicates reference `corpus`, which references `data`; all three are
/// heap-allocated so the bundle can move without invalidating them.
struct DatasetBundle {
  std::unique_ptr<record::Dataset> data;
  std::unique_ptr<predicates::Corpus> corpus;
  /// Owning storage for the level predicates (any order).
  std::vector<std::unique_ptr<predicates::PairPredicate>> predicates;
  /// Levels for PrunedDedup, pointing into `predicates`. The last level
  /// must carry a necessary predicate.
  std::vector<dedup::PredicateLevel> levels;
  /// Pair scorer bound to `data`.
  topk::PairScoreFn scorer;
};

struct ServiceOptions {
  /// Query worker threads — the concurrency limiter. Each worker runs one
  /// query at a time; queries fan out internally on the shared pool
  /// (common/parallel.h), where regions from different workers run side
  /// by side. <= 0 sizes against the pool: max(1, ParallelismLevel() / 2).
  int workers = 2;
  /// Bounded admission queue. Arrivals beyond capacity evict the oldest
  /// waiting request (LIFO service order — see Submit).
  size_t queue_capacity = 64;
  /// Per-request wall budget when the caller does not set one.
  int64_t default_deadline_ms = 1000;
  /// Upper clamp on any caller-requested budget.
  int64_t max_deadline_ms = 10000;
  /// Per-dataset circuit breaker configuration.
  BreakerOptions breaker;
  /// Run one calibration query at registration to seed the dataset's cost
  /// estimate and the bounds cache the breaker serves while open. The
  /// query also builds the blocking indexes that later queries of its
  /// shape reuse; without it the first request builds them.
  bool calibrate_on_register = true;
  /// Wide-event request logging (serve/request_log.h): one JSON line per
  /// query disposition, head-sampled for healthy answers, always emitted
  /// for degraded/shed/error/slow outcomes.
  RequestLogOptions request_log;
  /// Directory for online-dataset durability state. When set, every online
  /// dataset gets a write-ahead log (`<wal_dir>/<dataset>.wal`) that holds
  /// its whole history, one frame per mention: RegisterOnline replays it
  /// from seq 0 and only then publishes the dataset (so /readyz never
  /// flips before recovery completes); Ingest appends to the WAL before
  /// applying to memory. Empty keeps online streams purely in-memory (a
  /// crash loses them — the pre-durability behavior).
  std::string wal_dir;
  /// Fsync policy for the per-dataset WALs (see WalFsyncPolicy: acked
  /// ingests always survive process death; the policy bounds loss under
  /// machine failure).
  WalOptions wal;
  /// Answer-cache behavior (serve/answer_cache.h: 32 query shapes per
  /// dataset, LRU beyond). The cache is always *populated* by exact count
  /// answers (it is also the breaker's bounds-only fallback); `enabled`
  /// gates only whether the normal serving path consults it before
  /// executing.
  struct CacheOptions {
    bool enabled = true;
  };
  CacheOptions cache;
  /// Epoch publication batching for ingests into online datasets. 0
  /// publishes a fresh epoch after every successful ingest (every acked
  /// mention is immediately visible to queries). > 0 publishes at most
  /// once per interval — amortizes the O(mentions) snapshot build under
  /// ingest bursts; queries meanwhile keep reading the previous epoch, and
  /// Drain()/shutdown force-publish anything pending. The *first* ingest
  /// always publishes so an empty pin means an empty stream.
  int64_t epoch_batch_ms = 0;
};

/// Health snapshot suitable for a readiness probe.
struct DatasetHealth {
  std::string name;
  bool online = false;
  size_t records = 0;  // Records (static) or mentions (online).
  BreakerState breaker = BreakerState::kClosed;
  /// Executions folded into the dataset's cost estimate (the calibration
  /// query and every executed request), and the estimate itself: the
  /// EWMA of their wall seconds (0 until the first sample).
  uint64_t cost_samples = 0;
  double predicted_wall_seconds = 0.0;
  uint64_t served = 0;
  uint64_t errors = 0;
  uint64_t shed = 0;
  /// Bytes held by the dataset's cached blocking indexes
  /// (BlockedIndex::memory_bytes; 0 for online streams, which build per
  /// snapshot, and before the first query).
  uint64_t index_bytes = 0;
  /// Current published epoch (online datasets; 0 before the first
  /// publish and for static datasets).
  uint64_t epoch = 0;
};

struct HealthSnapshot {
  /// Accepting work: running, and at least one dataset has a closed or
  /// half-open breaker.
  bool ready = false;
  size_t queue_depth = 0;
  size_t inflight = 0;
  int workers = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t completed = 0;
  std::vector<DatasetHealth> datasets;
};

/// A thread-safe resident query service over registered datasets.
///
/// Admission path for Submit():
///   1. Validation (dataset exists, k >= 1, 1 <= r <= topk::kMaxAnswers
///      for count queries) — immediate typed error.
///   2. Budget derivation: caller deadline_ms or the service default,
///      clamped to max_deadline_ms. The budget covers everything.
///   3. Circuit breaker: an open breaker short-circuits to a bounds-only
///      cached answer (kBreakerDegraded) or FailedPrecondition — the
///      request never occupies a queue slot.
///   4. Predicted-miss shed: budget < the dataset's predicted execution
///      cost (the EWMA of executed wall time, seeded by the calibration
///      query; no prediction before the first sample) → ResourceExhausted
///      up front rather than queued to die. The refusal message cites the
///      prediction, the budget and the sample count. Work-budget requests
///      are never shed.
///   5. Bounded queue: when full, the *oldest* waiting request is evicted
///      (ResourceExhausted) in favor of the arrival — combined with
///      workers popping newest-first (LIFO), fresh requests with live
///      budgets are served and stale ones absorb the shedding.
///
/// Execution (worker threads): re-shed if the budget expired in queue,
/// then run the query once under a Deadline of whatever budget remains.
/// The pipeline is a deterministic function of (snapshot, request), so a
/// query error is the request's own and is returned as is; degraded-but-OK
/// answers are answers. Every decision lands in the metrics registry
/// (serve.admitted, serve.shed.<reason>, serve.breaker_state.<dataset>,
/// serve.queue_depth, per-outcome latency histograms).
///
/// Ingestion: online datasets take a writer lock per mention; after a
/// successful apply the ingest publishes (or batches, see epoch_batch_ms)
/// an immutable epoch snapshot. Queries never take the writer lock: they
/// pin the published epoch (a shared_ptr copy) and execute lock-free on
/// it (topk::OnlineTopK::QuerySnapshot), so reader tail latency is
/// independent of ingest latency — even with fsync=always WAL appends.
class QueryService {
 public:
  explicit QueryService(ServiceOptions options = {});
  /// Clean shutdown in a fixed, durability-preserving order: Drain() —
  /// which finishes every in-flight and queued query, then syncs each
  /// online dataset's WAL — runs *before* workers stop, so an acknowledged ingest can never be lost by
  /// destruction. Requests racing in during shutdown are shed (reason
  /// "shutdown") and the workers joined last.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Registers a resident static dataset. Validates the bundle (data,
  /// corpus, last-level necessary predicate, scorer) and optionally runs
  /// the calibration query.
  Status RegisterDataset(std::string name, DatasetBundle bundle);

  /// Registers an online (streaming) dataset. `stream` may already hold
  /// mentions (only when the name's WAL holds no frame —
  /// FailedPrecondition otherwise, the two histories cannot be merged).
  /// With ServiceOptions::wal_dir set this performs crash recovery before
  /// the dataset becomes visible: every WAL frame is replayed from seq 0
  /// (torn tail truncated; mid-file corruption, a seq gap or a repeated
  /// seq surfaces as InvalidArgument and the dataset is not registered),
  /// and a stream that already holds mentions is written to the empty WAL
  /// as frames 0..n-1 in one write and one sync.
  Status RegisterOnline(std::string name,
                        std::unique_ptr<topk::OnlineTopK> stream);

  /// Ingests one mention into an online dataset (writer-locked). With a
  /// WAL the mention is appended and (per the fsync policy) synced
  /// *before* it is applied in memory; OK therefore means the mention
  /// survives kill -9. Failures are real and typed — IOError/Internal
  /// from the WAL layer (the caller may retry; they feed the dataset's
  /// circuit breaker), InvalidArgument for a mention whose field count
  /// differs from the stream schema (rejected before the WAL is touched;
  /// the caller's error, so the breaker never sees it) — and always leave
  /// the log and the in-memory stream consistent with each other: a failed
  /// ingest is rolled back from the WAL, never half applied. Callers must
  /// check the Status, not TOPKDUP_CHECK it.
  Status Ingest(std::string_view dataset, record::Record mention);

  /// Admits a query; the future resolves when it is served, shed, or
  /// fails. Never blocks on query execution (immediate rejections resolve
  /// the future before returning).
  std::future<QueryResponse> Submit(QueryRequest request);

  /// Submit + wait.
  QueryResponse Execute(QueryRequest request);

  /// Blocks until the queue is empty and no query is in flight, then
  /// publishes any batched epoch and syncs every online dataset's WAL —
  /// after Drain() returns, all acknowledged state is visible and durable.
  void Drain();

  HealthSnapshot Health() const;

  const ServiceOptions& options() const { return options_; }

  /// The service's request log — never null; disabled logs answer with
  /// empty snapshots. The admin server reads /debug/queries through this.
  const RequestLog& request_log() const { return *request_log_; }

  /// Top CPU consumers over the sliding attribution window (the /statusz
  /// top-consumers table): by dataset and by pipeline stage.
  std::vector<std::pair<std::string, double>> TopCpuByDataset(
      size_t n) const {
    return cpu_by_dataset_.Top(n);
  }
  std::vector<std::pair<std::string, double>> TopCpuByStage(size_t n) const {
    return cpu_by_stage_.Top(n);
  }
  double cpu_window_seconds() const {
    return cpu_by_dataset_.window_seconds();
  }

 private:
  struct DatasetState;
  struct Pending;

  void WorkerLoop();
  void Process(Pending& pending);
  /// Runs one admitted request once under its remaining budget; fills
  /// the response and settles the request's breaker decision.
  void RunAttempts(DatasetState& ds, Pending& pending,
                   CircuitBreaker::Decision decision,
                   QueryResponse* response);
  /// One execution attempt under `deadline`. `query_id` is stamped on the
  /// attempt's spans; 0 for calibration runs. When `explain` is non-null
  /// and slow capture is on, a count query records a sampled explain
  /// report stamped with `query_id` and hands it back there, beside the
  /// response and never inside the cached result.
  StatusOr<QueryResponse> RunOnce(
      DatasetState& ds, const QueryRequest& request, const Deadline& deadline,
      uint64_t query_id, std::optional<obs::ExplainReport>* explain);
  /// Bounds-only answer from the dataset's cache (breaker open).
  QueryResponse DegradedFromCache(DatasetState& ds,
                                  const QueryRequest& request);
  QueryResponse ShedResponse(DatasetState* ds, const std::string& reason,
                             std::string message);
  void FinishResponse(Pending& pending, QueryResponse response);
  DatasetState* FindDataset(std::string_view name);
  void Calibrate(DatasetState& ds);
  void UpdateBreakerGauge(DatasetState& ds);
  /// Crash recovery for one online dataset (wal_dir set): open the WAL,
  /// replay every frame into an empty stream or write a preloaded stream
  /// to an empty WAL, and keep the WAL open for ingest. Runs before the
  /// dataset is published; returns the typed error that blocked recovery
  /// otherwise.
  Status RecoverOnline(DatasetState& ds);
  /// Force-publishes any pending batched epoch and syncs every online
  /// dataset's WAL (Drain, destructor).
  void FlushDurableState();
  /// Publishes a fresh epoch for the dataset, or defers it under the
  /// epoch_batch_ms policy. Caller holds the dataset's stream writer lock.
  void MaybePublishEpoch(DatasetState& ds);
  /// Shared widening: turns a cache entry into a degraded bounds-only
  /// response at the dataset's current published epoch (groups truncated
  /// to k, count_upper widened by the published weight delta). Used by
  /// both the stale-serve path and the breaker-open fallback.
  QueryResponse BoundsOnlyFromEntry(DatasetState& ds,
                                    const QueryRequest& request,
                                    const AnswerCache::Entry& entry);

  ServiceOptions options_;
  std::unique_ptr<RequestLog> request_log_;

  mutable std::shared_mutex datasets_mu_;
  std::map<std::string, std::unique_ptr<DatasetState>, std::less<>>
      datasets_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::condition_variable drain_cv_;
  std::deque<std::unique_ptr<Pending>> queue_;
  size_t inflight_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;

  /// Sliding-window CPU attribution feeding the /statusz top-consumers
  /// table; charged once per finished query from its meter.
  resource::CpuWindow cpu_by_dataset_;
  resource::CpuWindow cpu_by_stage_;

  std::atomic<uint64_t> next_request_id_{0};
  std::atomic<uint64_t> admitted_total_{0};
  std::atomic<uint64_t> shed_total_{0};
  std::atomic<uint64_t> completed_total_{0};

  // Registry handles resolved once.
  metrics::Counter* admitted_counter_;
  metrics::Counter* completed_counter_;
  metrics::Counter* errors_counter_;
  metrics::Counter* breaker_degraded_counter_;
  metrics::Counter* cache_hits_counter_;
  metrics::Counter* cache_stale_hits_counter_;
  metrics::Counter* cache_misses_counter_;
  metrics::Counter* reader_blocked_counter_;
  metrics::Gauge* queue_depth_gauge_;
  metrics::Gauge* inflight_gauge_;
  metrics::Histogram* queue_seconds_;
};

}  // namespace topkdup::serve

#endif  // TOPKDUP_SERVE_SERVICE_H_
