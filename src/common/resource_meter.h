#ifndef TOPKDUP_COMMON_RESOURCE_METER_H_
#define TOPKDUP_COMMON_RESOURCE_METER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/metrics.h"

namespace topkdup::resource {

/// Per-query resource attribution: how much CPU time a query consumed,
/// broken down by pipeline stage (corpus, collapse, lower_bound, prune,
/// pair_scoring, segment_dp, embedding), no matter which pool workers the
/// work landed on.
///
/// Mechanics — three hooks, no per-instruction cost:
///
///  1. A query attempt attaches a ResourceMeter to its executing thread
///     with ScopedMeterAttach. From that point the thread's CPU clock
///     (CLOCK_THREAD_CPUTIME_ID) is charged to the meter in *exclusive*
///     intervals: time between stage boundaries goes to the stage that was
///     current when the interval started.
///  2. trace::Span construction/destruction are the stage boundaries. A
///     span whose name maps to a pipeline stage (StageForSpan) flushes the
///     elapsed CPU to the outgoing stage and switches attribution; spans
///     with unmapped names (serve.query, parallel.shard, ...) are
///     invisible to the meter, so orchestration spans never steal
///     attribution from the stage they run under.
///  3. common/parallel's region launch captures the launching thread's
///     attachment (meter + current stage + counter block) once and
///     installs it on each worker for the duration of a shard, so CPU
///     burned on pool workers is charged to the stage whose region fanned
///     out, and counts land in the query's metrics::CounterBlock.
///
/// Because every charged interval is exclusive (a thread is in exactly one
/// stage at a time, and each thread's clock is read once per boundary),
/// the sum of the per-stage totals equals CpuSeconds() by construction —
/// the only divergence is floating-point rounding when the values are
/// printed. Time outside any mapped stage is charged to "other".
///
/// What is NOT attributable (see DESIGN.md §6i): CPU a pool worker burns
/// outside a region (park/unpark, queue pickup), allocator time (the
/// library must not replace global operator new — test harnesses own that
/// hook), and kernel time not billed to the thread by the scheduler.
class ResourceMeter {
 public:
  ResourceMeter() = default;
  ResourceMeter(const ResourceMeter&) = delete;
  ResourceMeter& operator=(const ResourceMeter&) = delete;

  /// Adds `cpu_seconds` of CPU time to `stage`. Negative charges are
  /// clamped to zero (a thread CPU clock can appear to step backwards
  /// across CPU migrations on some kernels). Thread-safe.
  void Charge(std::string_view stage, double cpu_seconds);

  /// Total CPU seconds charged — identically the sum of StageBreakdown()
  /// values. Thread-safe.
  double CpuSeconds() const;

  /// Per-stage CPU seconds, sorted by stage name (deterministic render
  /// order). Thread-safe.
  std::vector<std::pair<std::string, double>> StageBreakdown() const;

  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, double, std::less<>> stage_cpu_;
};

/// The catch-all stage charged for attributed CPU spent outside any
/// mapped pipeline-stage span.
inline constexpr const char* kOtherStage = "other";

/// Maps a trace span name to the pipeline stage it delimits, or nullptr
/// for spans that are not stage boundaries. The mapping is a fixed
/// allowlist: only spans that mark real pipeline phases switch
/// attribution.
const char* StageForSpan(const char* span_name);

/// The calling thread's current CPU clock (CLOCK_THREAD_CPUTIME_ID), in
/// seconds. Only deltas within one thread are meaningful.
double ThreadCpuSeconds();

/// RAII attachment of a meter to the calling thread. While attached, the
/// thread's CPU is charged to `meter` (per the stage rules above);
/// detaching flushes the final interval. Attachments nest: the previous
/// attachment is suspended (its clock stops) and restored on destruction,
/// so a worker serving a delegated region never double-charges its own
/// query's meter. `stage` seeds the current stage (nullptr = "other") —
/// region delegation passes the launching thread's stage so shard CPU
/// lands where the fan-out happened. `meter == nullptr` suspends
/// attribution for the scope.
class ScopedMeterAttach {
 public:
  explicit ScopedMeterAttach(ResourceMeter* meter,
                             const char* stage = nullptr);
  ~ScopedMeterAttach();
  ScopedMeterAttach(const ScopedMeterAttach&) = delete;
  ScopedMeterAttach& operator=(const ScopedMeterAttach&) = delete;

 private:
  ResourceMeter* saved_meter_;
  const char* saved_stage_;
  double saved_mark_;
};

/// Sliding-window CPU tally keyed by name — the /statusz "top consumers"
/// table (top datasets / top stages by CPU over the last window). Fixed
/// ring of time buckets; stale buckets are recycled lazily on writes, so
/// the structure is O(buckets) memory regardless of uptime. Thread-safe.
class CpuWindow {
 public:
  explicit CpuWindow(double window_seconds = 60.0, int buckets = 12);

  /// Adds `cpu_seconds` under `key` at the current time.
  void Add(std::string_view key, double cpu_seconds);

  /// Top `n` keys by summed CPU over the window, descending (ties broken
  /// by key name, so renders are deterministic).
  std::vector<std::pair<std::string, double>> Top(size_t n) const;

  double window_seconds() const { return bucket_seconds_ * buckets_.size(); }

  /// Test seams: explicit-clock variants of Add/Top.
  void AddAt(double now_seconds, std::string_view key, double cpu_seconds);
  std::vector<std::pair<std::string, double>> TopAt(double now_seconds,
                                                    size_t n) const;

 private:
  struct Bucket {
    int64_t epoch = -1;  // Absolute bucket index; -1 = never written.
    std::map<std::string, double, std::less<>> cpu;
  };

  double bucket_seconds_;
  mutable std::mutex mu_;
  mutable std::vector<Bucket> buckets_;
};

namespace internal {

/// The calling thread's live attachment, for delegation into pool
/// workers: parallel region launch captures this once, and each shard
/// installs it via ScopedMeterAttach and CounterBlock::Delegate.
struct Attribution {
  ResourceMeter* meter = nullptr;
  const char* stage = nullptr;
  metrics::CounterBlock* counters = nullptr;
};
Attribution CurrentAttribution();

/// Stage-boundary hooks called by trace::Span. OnSpanBegin is one
/// thread-local load and a null check when no meter is attached.
struct SpanToken {
  const char* prev_stage = nullptr;
  bool switched = false;
};
SpanToken OnSpanBegin(const char* span_name);
void OnSpanEnd(const SpanToken& token);

}  // namespace internal

}  // namespace topkdup::resource

#endif  // TOPKDUP_COMMON_RESOURCE_METER_H_
