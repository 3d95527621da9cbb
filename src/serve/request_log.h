#ifndef TOPKDUP_SERVE_REQUEST_LOG_H_
#define TOPKDUP_SERVE_REQUEST_LOG_H_

#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "obs/explain.h"

namespace topkdup::serve {

/// Wide-event request logging for the resident service: one structured
/// JSON line per terminal query disposition, carrying everything an
/// operator needs to answer "what happened to query N" without
/// correlating five systems — id, dataset, shape (k/r), outcome, answer
/// quality, degradation stage/reason, shed reason, attempts, queue wait,
/// execution latency, and the per-stage work counters the query charged.
///
/// Emission policy (the wide-event discipline): anything unusual — a
/// degraded, shed, errored, or slow query — is ALWAYS emitted; healthy
/// exact answers are head-sampled 1-in-`ok_sample_every` by a
/// deterministic hash of the query id, so steady-state volume is bounded
/// while every emitted line is a complete, self-contained event. The
/// sampling hash has no RNG: replaying a workload replays its exact
/// emission set, which is what lets CI pin `serve.requestlog.emitted`.
struct RequestLogOptions {
  /// Master switch. Off, the service skips event assembly entirely.
  bool enabled = true;
  /// JSONL sink path; empty keeps events in memory only (the ring below).
  /// Opened in append mode, so a restart investigates with the previous
  /// process's wide-event history still in place.
  std::string path;
  /// Healthy exact answers emit when SplitMix64(query_id) %
  /// ok_sample_every == 0 (common/rng.h). 1 emits every query; 0
  /// suppresses all healthy-query lines.
  uint64_t ok_sample_every = 16;
  /// Latency threshold marking a query "slow" (always emitted, and its
  /// explain report — when one was armed — is captured for
  /// /debug/queries). 0 disables slow detection AND explain arming, the
  /// default: slow verdicts depend on wall time, so deterministic-replay
  /// configurations (the CI serve gate) must keep this off.
  int64_t slow_ms = 0;
  /// Detail sample rate for explain reports armed on count queries while
  /// slow capture is enabled (ExplainReport section summaries stay exact
  /// at any rate).
  double slow_explain_sample_rate = 0.1;
  /// Rotation threshold for the JSONL sink: once the current file
  /// exceeds this many bytes after a write, it is renamed to
  /// "<path>.1" (replacing any previous rotation) and a fresh file is
  /// opened, so the sink holds at most ~2x max_bytes on disk. 0 (the
  /// default) never rotates. Counter: serve.requestlog.rotations.
  uint64_t max_bytes = 0;
};

/// One terminal query event. The service fills this in FinishResponse —
/// the single point every Submit() passes through exactly once — so line
/// count identities against serve.admitted/serve.shed.* hold by
/// construction.
struct RequestLogEvent {
  uint64_t query_id = 0;
  std::string dataset;
  std::string kind;     // "topk_count" | "topk_rank".
  int k = 0;
  int r = 0;
  /// "ok" for success; otherwise the CamelCase StatusCodeName exactly as
  /// Status::ToString prints it ("Internal", "ResourceExhausted"), so one
  /// grep token matches both the request log and the text logs.
  std::string status;
  std::string outcome;  // ServedOutcomeName.
  std::string quality;  // "exact" | "bounds_only" | "truncated_level".
  bool degraded = false;
  std::string degradation_stage;
  std::string degradation_reason;
  std::string shed_reason;  // Non-empty only for shed outcomes.
  /// Execution attempts: 1 when the query ran, 0 otherwise.
  int attempts = 0;
  double queue_seconds = 0.0;
  double latency_seconds = 0.0;
  /// Wall seconds of the execution attempt (empty when it never ran).
  std::vector<double> attempt_seconds;
  /// Total CPU milliseconds the query's attempt charged to its
  /// ResourceMeter (0 for queries that never executed: sheds,
  /// validation rejections).
  double cpu_ms = 0.0;
  /// Per-stage CPU milliseconds, sorted by stage name. The stage sum
  /// reconciles with cpu_ms within print rounding (each value is
  /// rendered at 1e-4 ms; see DESIGN.md §6i for the bound).
  std::vector<std::pair<std::string, double>> cpu_stages_ms;
  /// For predicted-miss sheds: the wall cost the dataset's estimate
  /// predicted, so the refusal is auditable against the budget.
  double shed_predicted_ms = 0.0;
  /// Per-stage work counters charged by this query: its counter block's
  /// totals, exact under concurrency (metrics::CounterBlock).
  std::vector<std::pair<const char*, uint64_t>> work;
  /// Epoch the answer was computed at (0 = static dataset / unanswered);
  /// the same id appears on the response and any captured explain report,
  /// so one query id joins its pinned epoch across all three planes.
  uint64_t epoch = 0;
  /// Answer-cache disposition: "hit", "stale_hit", "miss", or empty when
  /// the cache was not consulted.
  std::string cache;
  /// Published weight the stale serve widened count_upper by (0 for
  /// fresh answers).
  double staleness_weight = 0.0;
  bool slow = false;

  /// The event as one JSON object (no trailing newline).
  std::string ToJsonLine() const;
};

class RequestLog {
 public:
  explicit RequestLog(RequestLogOptions options);
  ~RequestLog();

  RequestLog(const RequestLog&) = delete;
  RequestLog& operator=(const RequestLog&) = delete;

  const RequestLogOptions& options() const { return options_; }
  bool enabled() const { return options_.enabled; }
  /// True when slow detection (and therefore explain arming) is on.
  bool slow_enabled() const {
    return options_.enabled && options_.slow_ms > 0;
  }
  int64_t slow_ms() const { return options_.slow_ms; }

  /// Deterministic head-sampling verdict for a healthy exact answer.
  bool AdmitOk(uint64_t query_id) const;

  /// Applies the emission policy to one terminal event: emits the JSON
  /// line (counter serve.requestlog.emitted, the recent ring, and the
  /// JSONL file when configured) unless the event is a healthy exact
  /// answer sampled out (serve.requestlog.sampled_out). Returns whether a
  /// line was emitted. Thread-safe.
  bool Record(const RequestLogEvent& event);

  /// Stores a slow query's event + explain report for /debug/queries (the
  /// newest 32; oldest evicted). Thread-safe.
  void CaptureSlow(const RequestLogEvent& event,
                   std::shared_ptr<const obs::ExplainReport> report);

  /// The newest 256 emitted lines, oldest first.
  std::vector<std::string> RecentLines() const;

  /// {"schema_version":1,"slow":[{...,"explain":{...}}],"recent":[...]}
  /// — the /debug/queries payload.
  std::string DebugQueriesJson() const;

  uint64_t emitted() const { return emitted_->Value(); }

 private:
  /// Renames the current file to "<path>.1" and reopens a fresh one.
  /// mu_ must be held.
  void RotateLocked();

  RequestLogOptions options_;
  metrics::Counter* emitted_;
  metrics::Counter* sampled_out_;
  metrics::Counter* slow_captured_;
  metrics::Counter* rotations_;

  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;
  uint64_t file_bytes_ = 0;
  std::deque<std::string> recent_;
  struct SlowCapture {
    std::string event_json;
    std::shared_ptr<const obs::ExplainReport> report;
  };
  std::deque<SlowCapture> slow_;
};

}  // namespace topkdup::serve

#endif  // TOPKDUP_SERVE_REQUEST_LOG_H_
