#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/log.h"
#include "common/parallel.h"
#include "common/resource_meter.h"
#include "common/strings.h"
#include "common/trace.h"
#include "predicates/index_cache.h"

namespace topkdup::serve {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int64_t MillisUntil(Clock::time_point when) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(when -
                                                               Clock::now())
      .count();
}

bool ValidDatasetName(std::string_view name) {
  if (name.empty() || name.size() > 128) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

metrics::Counter* RecoveredMentionsCounter() {
  return metrics::Registry::Global().GetCounter(
      "serve.wal.recovered_mentions");
}

/// The counter totals a response's result carries: the query's own block
/// (topk::TopKCountResult::counters, topk::TopKRankResult::counters).
const std::vector<metrics::CounterSample>& QueryCounters(
    const QueryResponse& response) {
  return response.rank.has_value() ? response.rank->counters
                                   : response.result.counters;
}

/// Weight of the newest execution in a dataset's wall-time EWMA.
constexpr double kCostEwmaAlpha = 0.2;

}  // namespace

const char* ServedOutcomeName(ServedOutcome outcome) {
  switch (outcome) {
    case ServedOutcome::kExact:
      return "exact";
    case ServedOutcome::kDegraded:
      return "degraded";
    case ServedOutcome::kBreakerDegraded:
      return "breaker_degraded";
    case ServedOutcome::kShed:
      return "shed";
    case ServedOutcome::kError:
      return "error";
  }
  return "unknown";
}

/// Everything the service tracks per registered dataset. Heap-allocated
/// and never removed, so raw pointers into the map stay valid for the
/// service lifetime.
struct QueryService::DatasetState {
  DatasetState(std::string name_in, const BreakerOptions& breaker_options)
      : name(std::move(name_in)), breaker(breaker_options) {}

  std::string name;
  bool online = false;
  DatasetBundle bundle;                      // Static datasets.
  std::unique_ptr<topk::OnlineTopK> stream;  // Online datasets.
  /// Writer side: AddMention / TakeSnapshot (both mutate the stream).
  /// Reader side: total_weight() peeks. Queries hold it only for the
  /// snapshot, never for execution.
  mutable std::shared_mutex stream_mu;

  /// The stream's durable history (online datasets with
  /// ServiceOptions::wal_dir). Guarded by the stream writer lock, like the
  /// stream itself — WAL append and in-memory apply are one critical
  /// section.
  std::unique_ptr<WriteAheadLog> wal;

  /// Per-dataset blocking-index cache: every stage of every query on this
  /// dataset resolves its index here, so each (predicate, item-set) pair
  /// is built once — by the first query that looks it up, usually the
  /// calibration query — and reused, memoized, across requests.
  predicates::IndexCache index_cache;

  CircuitBreaker breaker;
  metrics::Gauge* breaker_gauge = nullptr;

  /// The predicted-miss shed's cost estimate: how many executions it has
  /// seen (the calibration query, then every executed request) and the
  /// EWMA of their wall seconds. Guarded by cost_mu.
  struct CostEstimate {
    uint64_t samples = 0;
    double wall_seconds = 0.0;
  };
  mutable std::mutex cost_mu;
  CostEstimate cost;

  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> shed{0};

  /// Exact answers cached by query shape and stamped with their epoch.
  /// Serves current-epoch hits verbatim, stale hits as widened bounds,
  /// and (via MostRecent) the breaker's bounds-only fallback — the
  /// widening basis is the *published* weight delta since the entry's
  /// epoch, which survives recovery because epochs ride the WAL.
  AnswerCache answer_cache;

  /// Epoch publication batching state (epoch_batch_ms > 0). Guarded by
  /// the stream writer lock like the stream itself.
  Clock::time_point last_publish{};
  bool ever_published = false;
  bool pending_publish = false;

  /// Folds one execution's wall time into the estimate: the first sample
  /// seeds it, later ones move it by kCostEwmaAlpha.
  void ObserveExecution(double wall_seconds) {
    const double wall = std::max(wall_seconds, 0.0);
    std::lock_guard<std::mutex> lock(cost_mu);
    if (cost.samples == 0) {
      cost.wall_seconds = wall;
    } else {
      cost.wall_seconds += kCostEwmaAlpha * (wall - cost.wall_seconds);
    }
    ++cost.samples;
  }

  CostEstimate Cost() const {
    std::lock_guard<std::mutex> lock(cost_mu);
    return cost;
  }
};

struct QueryService::Pending {
  QueryRequest request;
  uint64_t id = 0;
  DatasetState* ds = nullptr;
  int64_t budget_ms = 0;
  CircuitBreaker::Decision decision = CircuitBreaker::Decision::kProceed;
  Clock::time_point admitted_at{};
  double queue_seconds = 0.0;
  /// Wall seconds of the execution attempt (empty when the request never
  /// executed); feeds the wide-event request-log line.
  std::vector<double> attempt_seconds;
  /// Per-query resource attribution: attached to the executing thread
  /// for the attempt, delegated into pool workers by parallel-region
  /// launch, read out once in FinishResponse.
  resource::ResourceMeter meter;
  /// For predicted-miss sheds: the predicted wall cost, surfaced on the
  /// request-log line.
  double shed_predicted_ms = 0.0;
  /// Answer-cache disposition decided at admission ("miss" when the
  /// request proceeds to execution); stamped onto the response.
  std::string cache_disposition;
  /// The executed count query's explain report, recorded only while slow
  /// capture is on; captured for /debug/queries when the query is slow.
  std::optional<obs::ExplainReport> explain;
  std::promise<QueryResponse> promise;
};

QueryService::QueryService(ServiceOptions options)
    : options_(std::move(options)) {
  auto& registry = metrics::Registry::Global();
  admitted_counter_ = registry.GetCounter("serve.admitted");
  completed_counter_ = registry.GetCounter("serve.completed");
  errors_counter_ = registry.GetCounter("serve.errors");
  breaker_degraded_counter_ = registry.GetCounter("serve.breaker_degraded");
  cache_hits_counter_ = registry.GetCounter("serve.cache.hits");
  cache_stale_hits_counter_ = registry.GetCounter("serve.cache.stale_hits");
  cache_misses_counter_ = registry.GetCounter("serve.cache.misses");
  reader_blocked_counter_ = registry.GetCounter("online.reader_blocked");
  queue_depth_gauge_ = registry.GetGauge("serve.queue_depth");
  inflight_gauge_ = registry.GetGauge("serve.inflight");
  queue_seconds_ = registry.GetHistogram("serve.queue_seconds",
                                         metrics::LatencySecondsBounds());
  // Resolve the durability counters eagerly so /statusz and the
  // Prometheus exposition carry the whole serve.wal.* family (at zero)
  // from boot, before any WAL traffic.
  registry.GetCounter("serve.wal.appends");
  registry.GetCounter("serve.wal.fsyncs");
  registry.GetCounter("serve.wal.bytes");
  registry.GetCounter("serve.wal.recovered_mentions");
  registry.GetCounter("serve.wal.truncated_tail_bytes");
  registry.GetCounter("online.epochs_published");
  request_log_ = std::make_unique<RequestLog>(options_.request_log);

  if (options_.workers <= 0) {
    options_.workers = std::max(1, ParallelismLevel() / 2);
  }
  options_.queue_capacity = std::max<size_t>(options_.queue_capacity, 1);
  options_.default_deadline_ms =
      std::max<int64_t>(options_.default_deadline_ms, 1);
  options_.max_deadline_ms =
      std::max(options_.max_deadline_ms, options_.default_deadline_ms);
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() {
  // Durability-preserving order: finish admitted work and persist every
  // online stream (Drain syncs every WAL) before any worker stops. Only
  // requests racing in *during* this drain are shed below.
  Drain();
  std::vector<std::unique_ptr<Pending>> orphans;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_ = true;
    while (!queue_.empty()) {
      orphans.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    queue_depth_gauge_->Set(0.0);
  }
  queue_cv_.notify_all();
  for (std::unique_ptr<Pending>& pending : orphans) {
    if (pending->ds != nullptr) {
      pending->ds->breaker.OnAbandon(pending->decision);
    }
    FinishResponse(*pending, ShedResponse(pending->ds, "shutdown",
                                          "service shutting down"));
  }
  for (std::thread& worker : workers_) worker.join();
}

Status QueryService::RegisterDataset(std::string name, DatasetBundle bundle) {
  if (!ValidDatasetName(name)) {
    return Status::InvalidArgument(
        "RegisterDataset: name must be 1-128 chars of [A-Za-z0-9_-]");
  }
  if (bundle.data == nullptr || bundle.corpus == nullptr) {
    return Status::InvalidArgument(
        "RegisterDataset: bundle needs data and corpus");
  }
  if (bundle.data->size() == 0) {
    return Status::InvalidArgument("RegisterDataset: dataset is empty");
  }
  if (bundle.levels.empty() || bundle.levels.back().necessary == nullptr) {
    return Status::InvalidArgument(
        "RegisterDataset: the last level must carry a necessary predicate");
  }
  if (!bundle.scorer) {
    return Status::InvalidArgument("RegisterDataset: scorer must be set");
  }
  auto state = std::make_unique<DatasetState>(name, options_.breaker);
  state->bundle = std::move(bundle);
  state->breaker_gauge = metrics::Registry::Global().GetGauge(
      "serve.breaker_state." + name);
  DatasetState* raw = state.get();
  {
    std::unique_lock<std::shared_mutex> lock(datasets_mu_);
    if (datasets_.find(name) != datasets_.end()) {
      return Status::FailedPrecondition(
          "RegisterDataset: name already registered");
    }
    datasets_.emplace(std::move(name), std::move(state));
  }
  UpdateBreakerGauge(*raw);
  if (options_.calibrate_on_register) Calibrate(*raw);
  return Status::OK();
}

Status QueryService::RegisterOnline(std::string name,
                                    std::unique_ptr<topk::OnlineTopK> stream) {
  if (!ValidDatasetName(name)) {
    return Status::InvalidArgument(
        "RegisterOnline: name must be 1-128 chars of [A-Za-z0-9_-]");
  }
  if (stream == nullptr) {
    return Status::InvalidArgument("RegisterOnline: stream must be set");
  }
  auto state = std::make_unique<DatasetState>(name, options_.breaker);
  state->online = true;
  state->stream = std::move(stream);
  state->breaker_gauge = metrics::Registry::Global().GetGauge(
      "serve.breaker_state." + name);
  if (!options_.wal_dir.empty()) {
    // Recover before publishing: the dataset (and through it /readyz)
    // must not become visible until every acknowledged mention from the
    // previous life is back. A failed recovery aborts registration.
    Status recovered = RecoverOnline(*state);
    if (!recovered.ok()) return recovered;
  }
  if (state->stream->mention_count() > 0) {
    // Publish the initial epoch (recovered or preexisting in-memory
    // state) before the dataset is visible, so the very first query can
    // pin it without ever touching the writer lock. The id advances past
    // whatever the WAL's epoch stamps restored, keeping epochs monotone
    // across restarts.
    std::unique_lock<std::shared_mutex> lock(state->stream_mu);
    state->stream->PublishEpoch();
    state->last_publish = Clock::now();
    state->ever_published = true;
  }
  DatasetState* raw = state.get();
  {
    std::unique_lock<std::shared_mutex> lock(datasets_mu_);
    if (datasets_.find(name) != datasets_.end()) {
      return Status::FailedPrecondition(
          "RegisterOnline: name already registered");
    }
    datasets_.emplace(std::move(name), std::move(state));
  }
  UpdateBreakerGauge(*raw);
  bool calibrate = options_.calibrate_on_register;
  {
    std::shared_lock<std::shared_mutex> lock(raw->stream_mu);
    calibrate = calibrate && raw->stream->group_count() > 0;
  }
  if (calibrate) Calibrate(*raw);
  return Status::OK();
}

Status QueryService::RecoverOnline(DatasetState& ds) {
  TOPKDUP_RETURN_IF_ERROR(EnsureDirectory(options_.wal_dir));
  const size_t preexisting = ds.stream->mention_count();

  WalReplay replay;
  auto wal_or = WriteAheadLog::Open(options_.wal_dir + "/" + ds.name + ".wal",
                                    options_.wal, &replay);
  TOPKDUP_RETURN_IF_ERROR(wal_or.status());
  ds.wal = std::move(wal_or).value();

  if (preexisting > 0) {
    if (!replay.records.empty()) {
      return Status::FailedPrecondition(
          "RegisterOnline: stream '" + ds.name + "' already holds " +
          std::to_string(preexisting) +
          " mentions but its WAL holds a history — the two histories "
          "cannot be merged; register with an empty stream or a fresh "
          "wal_dir");
    }
    // The preloaded mentions become the log's frames 0..n-1, in one write
    // and one sync, stamped with the epoch the registration publish is
    // about to take.
    std::vector<std::string> payloads;
    payloads.reserve(preexisting);
    for (size_t i = 0; i < preexisting; ++i) {
      payloads.push_back(topk::EncodeMention(ds.stream->mention(i)));
    }
    const uint64_t pre = ds.wal->end_offset();
    TOPKDUP_RETURN_IF_ERROR(
        ds.wal->Append(0, payloads, ds.stream->current_epoch() + 1));
    Status synced = ds.wal->Sync();
    if (!synced.ok()) {
      // Registration fails, so it must leave no history behind either.
      Status rollback = ds.wal->TruncateTo(pre);
      if (!rollback.ok()) synced = rollback;
    }
    return synced;
  }

  // The log is the stream's whole history: frame i must carry seq i. A
  // gap means missing history and a repeat a duplicated mention; either
  // would register a stream that differs from what was acknowledged.
  for (const auto& [seq, payload] : replay.records) {
    const uint64_t count = ds.stream->mention_count();
    if (seq != count) {
      return Status::InvalidArgument(
          "wal replay for '" + ds.name + "': frame seq " +
          std::to_string(seq) + " where seq " + std::to_string(count) +
          " was expected (" +
          (seq > count ? "a gap: missing history" : "a repeated frame") +
          ")");
    }
    auto mention_or = topk::DecodeMention(payload);
    TOPKDUP_RETURN_IF_ERROR(mention_or.status());
    TOPKDUP_RETURN_IF_ERROR(
        ds.stream->AddMention(std::move(mention_or).value()));
  }
  // Every frame is stamped with the epoch its mention published under, so
  // the largest stamp is where publication left off.
  ds.stream->RestoreEpochCounter(replay.max_epoch);
  if (!replay.records.empty()) {
    RecoveredMentionsCounter()->Add(replay.records.size());
    TOPKDUP_LOG(Info) << "dataset '" << ds.name << "': replayed "
                      << replay.records.size() << " mentions ("
                      << replay.truncated_tail_bytes
                      << " torn tail bytes truncated)";
  }
  return Status::OK();
}

Status QueryService::Ingest(std::string_view dataset, record::Record mention) {
  DatasetState* ds = FindDataset(dataset);
  if (ds == nullptr) {
    return Status::NotFound("Ingest: unknown dataset '" +
                            std::string(dataset) + "'");
  }
  if (!ds->online) {
    return Status::FailedPrecondition("Ingest: dataset '" + ds->name +
                                      "' is not an online stream");
  }
  // A mention of the wrong arity is the caller's error: reject it before
  // it reaches the WAL or the dataset's breaker.
  const size_t fields = ds->stream->schema().field_count();
  if (mention.fields.size() != fields) {
    return Status::InvalidArgument(
        "Ingest: mention has " + std::to_string(mention.fields.size()) +
        " fields, stream '" + ds->name + "' has " + std::to_string(fields));
  }
  std::unique_lock<std::shared_mutex> lock(ds->stream_mu);
  if (ds->wal == nullptr) {
    // Memory-only mode (no wal_dir): the pre-durability behavior, plus
    // the epoch publish that makes the mention visible to readers.
    Status status = ds->stream->AddMention(std::move(mention));
    if (status.ok()) MaybePublishEpoch(*ds);
    return status;
  }

  // WAL-first: the frame must be on the log (and per policy on disk)
  // before the in-memory apply, so an OK return is an honest durability
  // acknowledgement. Any failure rolls the log back to `pre` — the log
  // and the stream always agree, and a caller retry appends a fresh
  // frame at the same seq instead of a duplicate.
  const uint64_t seq = ds->stream->mention_count();
  const uint64_t pre = ds->wal->end_offset();
  const std::string payload = topk::EncodeMention(mention);
  // Stamp the frame with the epoch this mention will publish under, so
  // recovery replay restores the counter to where publication left off.
  Status status =
      ds->wal->Append(seq, {payload}, ds->stream->current_epoch() + 1);
  if (status.ok()) {
    status = ds->stream->AddMention(std::move(mention));
    if (!status.ok()) {
      Status rollback = ds->wal->TruncateTo(pre);
      if (!rollback.ok()) status = rollback;
    }
  }
  if (!status.ok()) {
    // Feed the dataset's breaker: sustained WAL failures (disk full,
    // injected faults) trip it just like sheds do, shifting reads to
    // degraded answers while writes are broken. With the arity checked
    // above, only the WAL can fail here.
    ds->breaker.OnFailure();
    UpdateBreakerGauge(*ds);
    return status;
  }
  // The mention is acknowledged (on the WAL) and applied; publish the
  // epoch that makes it visible to readers. A failed/rolled-back ingest
  // never reaches this point, so it can never leak into a published
  // epoch.
  MaybePublishEpoch(*ds);
  return Status::OK();
}

std::future<QueryResponse> QueryService::Submit(QueryRequest request) {
  auto pending = std::make_unique<Pending>();
  pending->request = std::move(request);
  pending->id = next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  pending->admitted_at = Clock::now();
  std::future<QueryResponse> future = pending->promise.get_future();
  const QueryRequest& req = pending->request;

  if (req.k < 1 || req.r < 1) {
    QueryResponse response;
    response.status =
        Status::InvalidArgument("Submit: k and r must be >= 1");
    FinishResponse(*pending, std::move(response));
    return future;
  }
  // TopKCountQuery would reject a larger r only after the request took a
  // queue slot and a worker; rank queries ignore r.
  if (req.kind == QueryKind::kTopKCount && req.r > topk::kMaxAnswers) {
    QueryResponse response;
    response.status = Status::InvalidArgument(
        StrFormat("Submit: r must be <= %d", topk::kMaxAnswers));
    FinishResponse(*pending, std::move(response));
    return future;
  }
  DatasetState* ds = FindDataset(req.dataset);
  if (ds == nullptr) {
    QueryResponse response;
    response.status =
        Status::NotFound("Submit: unknown dataset '" + req.dataset + "'");
    FinishResponse(*pending, std::move(response));
    return future;
  }
  if (req.kind == QueryKind::kTopKRank && ds->online) {
    QueryResponse response;
    response.status = Status::InvalidArgument(
        "Submit: rank queries require a static dataset");
    FinishResponse(*pending, std::move(response));
    return future;
  }
  pending->ds = ds;
  const int64_t requested =
      req.deadline_ms > 0 ? req.deadline_ms : options_.default_deadline_ms;
  pending->budget_ms =
      std::max<int64_t>(1, std::min(requested, options_.max_deadline_ms));

  // Breaker first: an open breaker answers from the cache at ~zero cost,
  // so it must pre-empt the predicted-miss shed.
  pending->decision = ds->breaker.Admit();
  UpdateBreakerGauge(*ds);
  if (pending->decision == CircuitBreaker::Decision::kReject) {
    FinishResponse(*pending, DegradedFromCache(*ds, req));
    return future;
  }

  // Answer cache: a hit at the current epoch is bit-identical to
  // executing (published epochs are immutable), so serve it synchronously
  // — zero queue time, zero execution cost. A stale entry is served only
  // when the caller opted in (allow_stale), as a widened bounds-only
  // answer. Probes skip the cache: their purpose is to test the dataset.
  if (options_.cache.enabled && req.kind == QueryKind::kTopKCount &&
      pending->decision == CircuitBreaker::Decision::kProceed) {
    std::optional<AnswerCache::Entry> entry =
        ds->answer_cache.Lookup(req.k, req.r);
    if (entry.has_value()) {
      const uint64_t now_epoch =
          ds->online ? ds->stream->current_epoch() : 0;
      if (entry->epoch == now_epoch) {
        ds->breaker.OnAbandon(pending->decision);  // No-op for kProceed.
        cache_hits_counter_->Increment();
        // A hit is a served request: it enters the admitted/completed
        // ledger even though it never touches the queue.
        admitted_counter_->Increment();
        admitted_total_.fetch_add(1, std::memory_order_relaxed);
        completed_counter_->Increment();
        completed_total_.fetch_add(1, std::memory_order_relaxed);
        ds->served.fetch_add(1, std::memory_order_relaxed);
        pending->cache_disposition = "hit";
        QueryResponse response;
        response.status = Status::OK();
        response.outcome = ServedOutcome::kExact;
        response.result = entry->result;
        response.epoch = entry->epoch;
        response.epoch_mentions = entry->epoch_mentions;
        FinishResponse(*pending, std::move(response));
        return future;
      }
      if (req.allow_stale) {
        ds->breaker.OnAbandon(pending->decision);
        cache_stale_hits_counter_->Increment();
        admitted_counter_->Increment();
        admitted_total_.fetch_add(1, std::memory_order_relaxed);
        completed_counter_->Increment();
        completed_total_.fetch_add(1, std::memory_order_relaxed);
        ds->served.fetch_add(1, std::memory_order_relaxed);
        pending->cache_disposition = "stale_hit";
        QueryResponse response = BoundsOnlyFromEntry(*ds, req, *entry);
        response.result.degradation.stage = "serve_cache_stale";
        response.outcome = ServedOutcome::kDegraded;
        FinishResponse(*pending, std::move(response));
        return future;
      }
    }
    cache_misses_counter_->Increment();
    pending->cache_disposition = "miss";
  }

  if (req.work_budget == 0) {
    // The dataset's cost estimate; no prediction until its first sample.
    const DatasetState::CostEstimate cost = ds->Cost();
    const double predicted_ms = cost.wall_seconds * 1000.0;
    if (cost.samples > 0 &&
        predicted_ms > static_cast<double>(pending->budget_ms)) {
      ds->breaker.OnAbandon(pending->decision);
      pending->shed_predicted_ms = predicted_ms;
      std::string message = StrFormat(
          "Submit: predicted cost %.1fms exceeds budget %lldms (wall-time "
          "EWMA over %llu executions)",
          predicted_ms, static_cast<long long>(pending->budget_ms),
          static_cast<unsigned long long>(cost.samples));
      TOPKDUP_LOG(Debug) << "predicted-miss shed for dataset '" << ds->name
                         << "': " << message;
      FinishResponse(*pending, ShedResponse(ds, "predicted_miss",
                                            std::move(message)));
      return future;
    }
  }

  std::unique_ptr<Pending> evicted;
  bool rejected_for_shutdown = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stop_) {
      rejected_for_shutdown = true;
    } else {
      if (queue_.size() >= options_.queue_capacity) {
        // Evict the *oldest* waiting request: workers serve newest-first,
        // so the stalest budget is the least likely to finish anyway.
        evicted = std::move(queue_.front());
        queue_.pop_front();
      }
      queue_.push_back(std::move(pending));
      queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
    }
  }
  if (rejected_for_shutdown) {
    ds->breaker.OnAbandon(pending->decision);
    FinishResponse(*pending,
                   ShedResponse(ds, "shutdown", "service shutting down"));
    return future;
  }
  admitted_counter_->Increment();
  admitted_total_.fetch_add(1, std::memory_order_relaxed);
  queue_cv_.notify_one();
  if (evicted != nullptr) {
    if (evicted->ds != nullptr) {
      evicted->ds->breaker.OnAbandon(evicted->decision);
    }
    FinishResponse(*evicted, ShedResponse(evicted->ds, "queue_full",
                                          "Submit: admission queue full"));
  }
  return future;
}

QueryResponse QueryService::Execute(QueryRequest request) {
  return Submit(std::move(request)).get();
}

void QueryService::Drain() {
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    drain_cv_.wait(lock, [&] { return queue_.empty() && inflight_ == 0; });
  }
  FlushDurableState();
}

void QueryService::FlushDurableState() {
  std::vector<DatasetState*> online;
  {
    std::shared_lock<std::shared_mutex> lock(datasets_mu_);
    for (auto& [name, state] : datasets_) {
      if (state->online) online.push_back(state.get());
    }
  }
  for (DatasetState* ds : online) {
    std::unique_lock<std::shared_mutex> lock(ds->stream_mu);
    // Force any batched epoch out: after a Drain, everything acked must
    // be visible to readers, not just durable.
    if (ds->pending_publish) {
      ds->stream->PublishEpoch();
      ds->last_publish = Clock::now();
      ds->pending_publish = false;
    }
    if (ds->wal == nullptr) continue;
    Status s = ds->wal->Sync();
    if (!s.ok()) {
      TOPKDUP_LOG(Warning) << "wal sync for dataset '" << ds->name
                           << "' failed: " << s.ToString();
    }
  }
}

void QueryService::MaybePublishEpoch(DatasetState& ds) {
  if (options_.epoch_batch_ms > 0 && ds.ever_published) {
    const Clock::time_point now = Clock::now();
    if (now - ds.last_publish <
        std::chrono::milliseconds(options_.epoch_batch_ms)) {
      // Batched: readers keep the previous epoch until the window
      // elapses, Drain() forces it, or shutdown flushes it.
      ds.pending_publish = true;
      return;
    }
  }
  ds.stream->PublishEpoch();
  ds.last_publish = Clock::now();
  ds.ever_published = true;
  ds.pending_publish = false;
}

void QueryService::WorkerLoop() {
  for (;;) {
    std::unique_ptr<Pending> pending;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      pending = std::move(queue_.back());  // LIFO: newest budget first.
      queue_.pop_back();
      queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
      ++inflight_;
      inflight_gauge_->Set(static_cast<double>(inflight_));
    }
    Process(*pending);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --inflight_;
      inflight_gauge_->Set(static_cast<double>(inflight_));
    }
    drain_cv_.notify_all();
  }
}

void QueryService::Process(Pending& pending) {
  pending.queue_seconds = SecondsSince(pending.admitted_at);
  queue_seconds_->Observe(pending.queue_seconds);
  DatasetState& ds = *pending.ds;

  const int64_t remaining_ms =
      pending.budget_ms -
      static_cast<int64_t>(pending.queue_seconds * 1000.0);
  if (remaining_ms <= 0) {
    ds.breaker.OnAbandon(pending.decision);
    FinishResponse(pending,
                   ShedResponse(&ds, "expired_in_queue",
                                "budget expired while queued"));
    return;
  }

  // The breaker may have tripped while this request waited; serve the
  // cheap degraded answer instead of burning a worker. Probes always
  // execute — testing the dataset is their purpose.
  if (pending.decision == CircuitBreaker::Decision::kProceed &&
      pending.request.kind == QueryKind::kTopKCount &&
      ds.breaker.state() == BreakerState::kOpen) {
    FinishResponse(pending, DegradedFromCache(ds, pending.request));
    return;
  }

  QueryResponse response;
  RunAttempts(ds, pending, pending.decision, &response);
  FinishResponse(pending, std::move(response));
}

void QueryService::RunAttempts(DatasetState& ds, Pending& pending,
                               CircuitBreaker::Decision decision,
                               QueryResponse* response) {
  // One attempt under whatever budget the queue wait left: the pipeline
  // is deterministic in (snapshot, request), so a failed attempt would
  // fail again.
  const Clock::time_point deadline_at =
      pending.admitted_at + std::chrono::milliseconds(pending.budget_ms);
  const Deadline deadline =
      pending.request.work_budget > 0
          ? Deadline::WithWorkBudget(pending.request.work_budget)
          : Deadline::AfterMillis(
                std::max<int64_t>(1, MillisUntil(deadline_at)));
  const Clock::time_point start = Clock::now();
  StatusOr<QueryResponse> attempt_or = Status::Internal("attempt not run");
  {
    // Attribute the attempt's CPU — on this worker and on every pool
    // worker its regions fan out to — to the request's meter.
    resource::ScopedMeterAttach meter_attach(&pending.meter);
    attempt_or = RunOnce(ds, pending.request, deadline, pending.id,
                         &pending.explain);
  }
  const double exec_seconds = SecondsSince(start);
  pending.attempt_seconds.push_back(exec_seconds);
  if (!attempt_or.ok()) {
    response->status = attempt_or.status();
    response->outcome = ServedOutcome::kError;
    response->attempts = 1;
    ds.errors.fetch_add(1, std::memory_order_relaxed);
    errors_counter_->Increment();
    // Every error RunOnce can return is deterministic in the request and
    // the snapshot (an empty stream, fewer candidate groups than k), so it
    // says nothing about the dataset's health: release the decision.
    ds.breaker.OnAbandon(decision);
    return;
  }
  *response = std::move(attempt_or).value();
  response->attempts = 1;
  ds.ObserveExecution(exec_seconds);
  ds.served.fetch_add(1, std::memory_order_relaxed);
  ds.breaker.OnSuccess(decision);
  UpdateBreakerGauge(ds);
  completed_counter_->Increment();
  completed_total_.fetch_add(1, std::memory_order_relaxed);
}

StatusOr<QueryResponse> QueryService::RunOnce(
    DatasetState& ds, const QueryRequest& request, const Deadline& deadline,
    uint64_t query_id, std::optional<obs::ExplainReport>* explain) {
  // The query_id arg on this span is the join key back to the request-log
  // line and any captured explain report for this query.
  trace::Span span("serve.query");
  if (query_id != 0) {
    span.AddArg("query_id", static_cast<int64_t>(query_id));
  }
  QueryResponse response;
  response.status = Status::OK();
  // Static datasets resolve every stage's blocking index through the
  // dataset cache warmed at registration; online snapshots change their
  // item sets per snapshot and keep the per-query build.
  QueryContext context{
      .deadline = &deadline,
      .index_cache = ds.online ? nullptr : &ds.index_cache,
      .query_id = query_id};
  if (request.kind == QueryKind::kTopKRank) {
    topk::TopKRankOptions rank_options;
    rank_options.k = request.k;
    TOPKDUP_ASSIGN_OR_RETURN(
        topk::TopKRankResult rank,
        topk::TopKRankQuery(*ds.bundle.data, ds.bundle.levels, rank_options,
                            context));
    response.outcome = rank.degradation.degraded
                           ? ServedOutcome::kDegraded
                           : ServedOutcome::kExact;
    response.rank = std::move(rank);
    return response;
  }

  topk::TopKCountOptions query_options;
  query_options.r = request.r;
  // Slow-query capture needs an explain report to snapshot, so record one
  // (sampled) whenever slow detection is on.
  std::optional<obs::ExplainRecorder> recorder;
  if (explain != nullptr && request_log_->slow_enabled()) {
    recorder.emplace(options_.request_log.slow_explain_sample_rate);
    recorder->set_query_id(query_id);
    context.recorder = &*recorder;
  }
  double snapshot_weight = 0.0;
  uint64_t snapshot_epoch = 0;
  uint64_t snapshot_mentions = 0;
  if (ds.online) {
    // Read-never-blocks: pin the published epoch (a shared_ptr copy under
    // a pointer-swap mutex) instead of taking the stream writer lock, so
    // reader latency is independent of ingest — even a WAL fsync in
    // flight cannot stall this query.
    std::shared_ptr<const topk::OnlineTopK::EpochSnapshot> pinned =
        ds.stream->PinEpoch();
    const topk::OnlineTopK::Snapshot* snapshot = nullptr;
    topk::OnlineTopK::Snapshot fallback;
    if (pinned != nullptr) {
      snapshot = &pinned->snapshot;
      snapshot_epoch = pinned->epoch;
    } else if (ds.stream->mention_count() > 0) {
      // Defensive only: the publish discipline (first ingest publishes,
      // RegisterOnline publishes recovered state) means a non-empty
      // stream always has a published epoch. Counted so the TSan stress
      // test can pin online.reader_blocked at zero.
      reader_blocked_counter_->Increment();
      std::unique_lock<std::shared_mutex> lock(ds.stream_mu);
      fallback = ds.stream->TakeSnapshot();
      snapshot = &fallback;
      snapshot_epoch = ds.stream->current_epoch();
    } else {
      return Status::FailedPrecondition("RunOnce: stream '" + ds.name +
                                        "' has no mentions yet");
    }
    snapshot_weight = snapshot->total_weight;
    snapshot_mentions = snapshot->mention_count;
    if (snapshot->reps.size() == 0) {
      return Status::FailedPrecondition("RunOnce: stream '" + ds.name +
                                        "' has no mentions yet");
    }
    response.epoch = snapshot_epoch;
    response.epoch_mentions = snapshot_mentions;
    query_options.k = static_cast<int>(std::min<size_t>(
        static_cast<size_t>(request.k), snapshot->reps.size()));
    TOPKDUP_ASSIGN_OR_RETURN(
        response.result,
        ds.stream->QuerySnapshot(*snapshot, query_options, context));
  } else {
    query_options.k = static_cast<int>(std::min<size_t>(
        static_cast<size_t>(request.k), ds.bundle.data->size()));
    TOPKDUP_ASSIGN_OR_RETURN(
        response.result,
        topk::TopKCountQuery(*ds.bundle.data, ds.bundle.levels,
                             ds.bundle.scorer, query_options, context));
  }
  if (recorder.has_value()) *explain = recorder->Finish();
  response.outcome = response.result.quality == topk::AnswerQuality::kExact
                         ? ServedOutcome::kExact
                         : ServedOutcome::kDegraded;
  if (response.result.quality == topk::AnswerQuality::kExact) {
    // Always populate (even with serving disabled): the cache is also the
    // breaker's bounds-only fallback. The entry's epoch weight — the
    // *published* weight of its snapshot, not the live stream weight — is
    // the sound widening basis for every later stale serve.
    AnswerCache::Entry entry;
    entry.result = response.result;
    entry.epoch = snapshot_epoch;
    entry.epoch_total_weight = snapshot_weight;
    entry.epoch_mentions = snapshot_mentions;
    ds.answer_cache.Insert(request.k, request.r, std::move(entry));
  }
  return response;
}

QueryResponse QueryService::BoundsOnlyFromEntry(
    DatasetState& ds, const QueryRequest& request,
    const AnswerCache::Entry& entry) {
  QueryResponse response;
  topk::TopKCountResult cached = entry.result;
  double widen = 0.0;
  uint64_t now_epoch = entry.epoch;
  if (ds.online) {
    // Epoch-based widening: the delta between the current *published*
    // weight and the entry's epoch weight. Both sides come from published
    // (immutable) epochs — never the live stream under the writer lock —
    // so the figure is stable, and because epochs ride WAL frames it
    // survives recovery replay and restarts, unlike the old capture-time
    // wall snapshot.
    std::shared_ptr<const topk::OnlineTopK::EpochSnapshot> pinned =
        ds.stream->PinEpoch();
    if (pinned != nullptr) {
      now_epoch = pinned->epoch;
      widen =
          std::max(0.0, pinned->snapshot.total_weight -
                            entry.epoch_total_weight);
    }
  }
  // The stream is append-only with non-negative weights, so a captured
  // group can only have grown, and by at most the weight published since
  // its epoch: [captured, captured + widen] contains the true count.
  for (topk::TopKAnswerSet& answer : cached.answers) {
    if (answer.groups.size() > static_cast<size_t>(request.k)) {
      answer.groups.resize(static_cast<size_t>(request.k));
    }
    for (topk::AnswerGroup& group : answer.groups) {
      group.count_upper += widen;
    }
  }
  cached.quality = topk::AnswerQuality::kBoundsOnly;
  cached.exact_from_pruning = false;
  cached.degradation.degraded = true;
  cached.degradation.partial_stage = false;
  response.result = std::move(cached);
  response.status = Status::OK();
  response.epoch = entry.epoch;
  response.epoch_mentions = entry.epoch_mentions;
  response.staleness_weight = widen;
  response.cache = entry.epoch == now_epoch ? "hit" : "stale_hit";
  return response;
}

QueryResponse QueryService::DegradedFromCache(DatasetState& ds,
                                              const QueryRequest& request) {
  QueryResponse response;
  if (request.kind != QueryKind::kTopKCount || !request.allow_degraded) {
    response.status = Status::FailedPrecondition(
        "circuit breaker open for dataset '" + ds.name + "'");
    return response;
  }
  // Shape match first, freshest entry of any shape as the fallback — a
  // degraded answer for a nearby shape beats no answer.
  std::optional<AnswerCache::Entry> entry =
      ds.answer_cache.Lookup(request.k, request.r);
  if (!entry.has_value()) entry = ds.answer_cache.MostRecent();
  if (!entry.has_value()) {
    response.status = Status::FailedPrecondition(
        "circuit breaker open for dataset '" + ds.name +
        "' and no cached answer is available");
    return response;
  }
  response = BoundsOnlyFromEntry(ds, request, *entry);
  response.result.degradation.stage = "serve_breaker";
  response.outcome = ServedOutcome::kBreakerDegraded;
  if (response.cache == "hit") {
    cache_hits_counter_->Increment();
  } else {
    cache_stale_hits_counter_->Increment();
  }
  breaker_degraded_counter_->Increment();
  return response;
}

QueryResponse QueryService::ShedResponse(DatasetState* ds,
                                         const std::string& reason,
                                         std::string message) {
  QueryResponse response;
  response.status = Status::ResourceExhausted(std::move(message));
  response.outcome = ServedOutcome::kShed;
  response.shed_reason = reason;
  metrics::Registry::Global().GetCounter("serve.shed." + reason)->Increment();
  shed_total_.fetch_add(1, std::memory_order_relaxed);
  if (ds != nullptr) {
    ds->shed.fetch_add(1, std::memory_order_relaxed);
    if (reason != "shutdown") {
      // Overload counts toward tripping just like errors: a dataset
      // drowning in traffic should brown out to cached answers.
      ds->breaker.OnShed();
      UpdateBreakerGauge(*ds);
    }
  }
  return response;
}

void QueryService::FinishResponse(Pending& pending, QueryResponse response) {
  response.query_id = pending.id;
  if (response.cache.empty()) response.cache = pending.cache_disposition;
  response.queue_seconds = pending.queue_seconds;
  response.latency_seconds = SecondsSince(pending.admitted_at);
  response.cpu_seconds = pending.meter.CpuSeconds();
  response.stage_cpu_seconds = pending.meter.StageBreakdown();
  if (response.cpu_seconds > 0.0) {
    cpu_by_dataset_.Add(pending.request.dataset, response.cpu_seconds);
    for (const auto& [stage, cpu] : response.stage_cpu_seconds) {
      cpu_by_stage_.Add(stage, cpu);
    }
  }
  metrics::Registry::Global()
      .GetHistogram(std::string("serve.latency_seconds.") +
                        ServedOutcomeName(response.outcome),
                    metrics::LatencySecondsBounds())
      ->Observe(response.latency_seconds);
  if (request_log_->enabled()) {
    RequestLogEvent event;
    event.query_id = pending.id;
    event.dataset = pending.request.dataset;
    event.kind = pending.request.kind == QueryKind::kTopKRank ? "topk_rank"
                                                              : "topk_count";
    event.k = pending.request.k;
    event.r = pending.request.r;
    event.status = response.status.ok() ? "ok"
                                        : StatusCodeName(response.status.code());
    event.outcome = ServedOutcomeName(response.outcome);
    if (pending.request.kind == QueryKind::kTopKRank) {
      if (response.rank.has_value()) {
        event.degraded = response.rank->degradation.degraded;
        event.quality = event.degraded ? "bounds_only" : "exact";
        if (event.degraded) {
          event.degradation_stage = response.rank->degradation.stage;
          event.degradation_reason =
              DeadlineReasonName(response.rank->degradation.reason);
        }
      }
    } else if (response.status.ok()) {
      event.quality = topk::AnswerQualityName(response.result.quality);
      event.degraded = response.result.degradation.degraded;
      if (event.degraded) {
        event.degradation_stage = response.result.degradation.stage;
        event.degradation_reason =
            DeadlineReasonName(response.result.degradation.reason);
      }
    }
    // The executed query's own counter totals travel inside its result.
    // A response that ran nothing (a cache hit, a breaker-degraded answer)
    // carries the counters of the query that computed the cached result,
    // so it logs no work.
    if (response.attempts > 0) {
      const std::vector<metrics::CounterSample>& work =
          QueryCounters(response);
      for (const char* name :
           {"dedup.collapse.pair_evals", "dedup.prune.pair_evals",
            "dedup.lower_bound.cpn_evals",
            "predicates.blocked_index.postings_decoded",
            "predicates.blocked_index.candidates",
            "segment.scorer.cells_filled"}) {
        const uint64_t value = metrics::CounterValue(work, name);
        if (value != 0) event.work.emplace_back(name, value);
      }
    }
    event.epoch = response.epoch;
    event.cache = response.cache;
    event.staleness_weight = response.staleness_weight;
    event.shed_reason = response.shed_reason;
    event.attempts = response.attempts;
    event.queue_seconds = response.queue_seconds;
    event.latency_seconds = response.latency_seconds;
    event.attempt_seconds = pending.attempt_seconds;
    event.cpu_ms = response.cpu_seconds * 1000.0;
    event.cpu_stages_ms.reserve(response.stage_cpu_seconds.size());
    for (const auto& [stage, cpu] : response.stage_cpu_seconds) {
      event.cpu_stages_ms.emplace_back(stage, cpu * 1000.0);
    }
    event.shed_predicted_ms = pending.shed_predicted_ms;
    event.slow = request_log_->slow_ms() > 0 &&
                 response.latency_seconds * 1000.0 >=
                     static_cast<double>(request_log_->slow_ms());
    request_log_->Record(event);
    if (event.slow && pending.explain.has_value()) {
      // Stamp the query's measured resources onto its report.
      obs::ExplainReport& report = *pending.explain;
      report.epoch = response.epoch;
      report.has_resources = true;
      report.resources.cpu_ms = event.cpu_ms;
      report.resources.stages_ms = event.cpu_stages_ms;
      request_log_->CaptureSlow(
          event, std::make_shared<const obs::ExplainReport>(std::move(report)));
    }
  }
  pending.promise.set_value(std::move(response));
}

QueryService::DatasetState* QueryService::FindDataset(std::string_view name) {
  std::shared_lock<std::shared_mutex> lock(datasets_mu_);
  auto it = datasets_.find(name);
  return it == datasets_.end() ? nullptr : it->second.get();
}

void QueryService::Calibrate(DatasetState& ds) {
  // One bounded query seeds the cost estimate and the degraded-answer
  // cache so the breaker has something to serve from its first trip. It
  // also builds and caches every blocking index a query of its shape
  // looks up.
  QueryRequest request;
  request.dataset = ds.name;
  request.kind = QueryKind::kTopKCount;
  request.k = 5;
  request.r = 1;
  const Deadline deadline =
      Deadline::AfterMillis(options_.default_deadline_ms);
  const Clock::time_point start = Clock::now();
  const StatusOr<QueryResponse> response =
      RunOnce(ds, request, deadline, /*query_id=*/0, /*explain=*/nullptr);
  if (response.ok()) {
    ds.ObserveExecution(SecondsSince(start));
  } else {
    TOPKDUP_LOG(Warning) << "calibration query for dataset '" << ds.name
                         << "' failed: "
                         << response.status().ToString();
  }
}

void QueryService::UpdateBreakerGauge(DatasetState& ds) {
  ds.breaker_gauge->Set(
      static_cast<double>(static_cast<int>(ds.breaker.state())));
}

HealthSnapshot QueryService::Health() const {
  HealthSnapshot health;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    health.queue_depth = queue_.size();
    health.inflight = inflight_;
  }
  health.workers = options_.workers;
  health.admitted = admitted_total_.load(std::memory_order_relaxed);
  health.shed = shed_total_.load(std::memory_order_relaxed);
  health.completed = completed_total_.load(std::memory_order_relaxed);
  bool any_serving = false;
  {
    std::shared_lock<std::shared_mutex> lock(datasets_mu_);
    health.datasets.reserve(datasets_.size());
    for (const auto& [name, state] : datasets_) {
      DatasetHealth ds;
      ds.name = name;
      ds.online = state->online;
      if (state->online) {
        // Lock-free: mention_count() reads an atomic and the epoch is an
        // atomic load, so a health probe never queues behind an ingest's
        // fsync.
        ds.records = state->stream->mention_count();
        ds.epoch = state->stream->current_epoch();
      } else {
        ds.records = state->bundle.data->size();
      }
      ds.index_bytes = state->index_cache.TotalBytes();
      ds.breaker = state->breaker.state();
      const DatasetState::CostEstimate cost = state->Cost();
      ds.cost_samples = cost.samples;
      ds.predicted_wall_seconds = cost.wall_seconds;
      ds.served = state->served.load(std::memory_order_relaxed);
      ds.errors = state->errors.load(std::memory_order_relaxed);
      ds.shed = state->shed.load(std::memory_order_relaxed);
      if (ds.breaker != BreakerState::kOpen) any_serving = true;
      health.datasets.push_back(std::move(ds));
    }
  }
  health.ready = any_serving && !workers_.empty();
  return health;
}

}  // namespace topkdup::serve
