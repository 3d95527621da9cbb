#ifndef TOPKDUP_COMMON_METRICS_H_
#define TOPKDUP_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace topkdup::metrics {

/// Number of independent per-thread shards a hot-path metric is striped
/// across. Threads hash onto shards, so concurrent increments from the
/// parallel pipelines (common/parallel.h) almost never contend; a snapshot
/// merges the shards. Power of two.
inline constexpr size_t kStripes = 16;

/// Shard index of the calling thread (stable per thread).
size_t StripeIndex();

/// Counter slots of a CounterBlock: the first kBlockSlots counters the
/// process registers (the library registers about 80). A later one still
/// counts in the registry, but its per-query totals read 0.
inline constexpr size_t kBlockSlots = 256;

class CounterBlock;

namespace internal {

/// The calling thread's innermost open (or delegated) CounterBlock.
extern constinit thread_local CounterBlock* t_counter_block;

/// Relaxed-CAS add on a double stored as its bit pattern (portable
/// atomic<double>::fetch_add).
void AtomicAddDouble(std::atomic<uint64_t>* bits, double delta);
double LoadDouble(const std::atomic<uint64_t>& bits);

struct alignas(64) CounterCell {
  std::atomic<uint64_t> value{0};
};

}  // namespace internal

/// Monotonically increasing counter. Add() is a relaxed atomic add on the
/// calling thread's stripe (lock-free, no false sharing) of its innermost
/// CounterBlock, or of the counter when there is none; Value() sums the
/// counter's stripes, so it excludes open blocks. Handles returned by the
/// Registry are valid for the process lifetime — cache them outside hot
/// loops and batch increments where a loop-local accumulator is available.
class Counter {
 public:
  inline void Add(uint64_t delta);
  void Increment() { Add(1); }
  uint64_t Value() const;
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  friend class CounterBlock;
  Counter(std::string name, size_t id) : name_(std::move(name)), id_(id) {}
  void Reset();

  std::string name_;
  size_t id_;  // Registration order: the counter's CounterBlock slot.
  std::array<internal::CounterCell, kStripes> cells_;
};

struct CounterSample;

/// The counter increments of one scope (a query, or one predicate level
/// inside it), exact whatever runs concurrently. Constructing a block makes
/// it the calling thread's innermost: every Counter::Add on this thread
/// lands in it, and so does every Add on a pool worker running a shard of a
/// region this thread launches (common/parallel delegates the block once
/// per region). Destroying it restores the previous innermost block and
/// folds this block's totals into it, or into the registry when there is
/// none. A block opens and closes on one thread, nested like any scope.
class CounterBlock {
 public:
  CounterBlock();
  ~CounterBlock();
  CounterBlock(const CounterBlock&) = delete;
  CounterBlock& operator=(const CounterBlock&) = delete;

  /// This block's total for the counter named `name` (0 when absent).
  uint64_t Value(std::string_view name) const;
  /// Every nonzero total, sorted by name.
  std::vector<CounterSample> Samples() const;

  /// Makes `block` the calling thread's innermost for the scope without
  /// opening or folding it: how a pool worker runs a shard.
  class Delegate {
   public:
    explicit Delegate(CounterBlock* block)
        : saved_(internal::t_counter_block) {
      internal::t_counter_block = block;
    }
    ~Delegate() { internal::t_counter_block = saved_; }
    Delegate(const Delegate&) = delete;
    Delegate& operator=(const Delegate&) = delete;

   private:
    CounterBlock* saved_;
  };

 private:
  friend class Counter;

  struct alignas(64) Stripe {
    std::array<std::atomic<uint64_t>, kBlockSlots> cells;
  };

  /// fn(counter, total) for every nonzero slot, under the registry lock.
  template <typename Fn>
  void ForEachTotal(Fn fn) const;
  uint64_t SlotTotal(size_t id) const;

  std::unique_ptr<Stripe[]> stripes_;
  CounterBlock* parent_;
};

inline void Counter::Add(uint64_t delta) {
  CounterBlock* block = internal::t_counter_block;
  if (block != nullptr && id_ < kBlockSlots) {
    block->stripes_[StripeIndex()].cells[id_].fetch_add(
        delta, std::memory_order_relaxed);
  } else {
    cells_[StripeIndex()].value.fetch_add(delta, std::memory_order_relaxed);
  }
}

/// Last-write-wins instantaneous value (double-valued so it can carry
/// bound qualities like M as well as integral depths).
class Gauge {
 public:
  void Set(double value);
  void Add(double delta) { internal::AtomicAddDouble(&bits_, delta); }
  double Value() const { return internal::LoadDouble(bits_); }
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  void Reset();

  std::string name_;
  std::atomic<uint64_t> bits_{0};
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i], plus
/// one implicit overflow bucket. Observation counts and the running sum are
/// striped like Counter.
class Histogram {
 public:
  void Observe(double value);
  uint64_t TotalCount() const;
  double Sum() const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts, size bounds().size() + 1 (last = overflow).
  std::vector<uint64_t> BucketCounts() const;
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  Histogram(std::string name, std::vector<double> bounds);
  void Reset();

  struct alignas(64) Stripe {
    std::vector<std::atomic<uint64_t>> counts;
    std::atomic<uint64_t> total{0};
    std::atomic<uint64_t> sum_bits{0};
  };

  std::string name_;
  std::vector<double> bounds_;
  std::array<Stripe, kStripes> stripes_;
};

/// Exponential bounds suited to wall-time observations in seconds
/// (1us .. ~100s, 4 buckets per decade).
const std::vector<double>& LatencySecondsBounds();

/// RAII wall-clock timer observing its lifetime (seconds) into a
/// histogram. A null histogram makes it a no-op.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram)
      : histogram_(histogram), start_(Clock::now()) {}
  ~ScopedTimer() { Stop(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Records now instead of at destruction; returns the elapsed seconds.
  double Stop();

 private:
  using Clock = std::chrono::steady_clock;
  Histogram* histogram_;
  Clock::time_point start_;
};

struct CounterSample {
  std::string name;
  uint64_t value = 0;

  bool operator==(const CounterSample&) const = default;
};

/// The value of the counter named `name` in `samples`; 0 when absent.
uint64_t CounterValue(const std::vector<CounterSample>& samples,
                      std::string_view name);

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::vector<double> bounds;
  std::vector<uint64_t> counts;  // bounds.size() + 1 entries.
  uint64_t count = 0;
  double sum = 0.0;
};

/// Point-in-time copy of every registered metric, sorted by name (so two
/// snapshots of the same registry state compare equal field-for-field).
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Value of a counter in this snapshot; 0 when absent.
  uint64_t CounterValue(std::string_view name) const;
  /// Value of a gauge in this snapshot; 0 when absent.
  double GaugeValue(std::string_view name) const;

  /// Work done between two snapshots of the same registry: counters and
  /// histogram counts/sums subtract (clamped at zero), gauges keep the
  /// `after` value. Metrics registered only in `after` pass through.
  static MetricsSnapshot Delta(const MetricsSnapshot& before,
                               const MetricsSnapshot& after);

  /// Compact single-line JSON object:
  /// {"counters":{...},"gauges":{...},"histograms":{...}} — embeddable in
  /// larger documents (the bench exporter) or written standalone.
  std::string ToJson() const;
};

/// Process-wide registry. Metric handles are created once under a mutex
/// and never invalidated; the increment fast paths never take the lock.
class Registry {
 public:
  static Registry& Global();

  /// Returns the counter/gauge registered under `name`, creating it on
  /// first use. Same name always returns the same handle.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  /// `bounds` must be strictly increasing; ignored when the histogram
  /// already exists.
  Histogram* GetHistogram(std::string_view name, std::vector<double> bounds);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every metric's value (handles stay valid). Tests and
  /// repeated-run benches use this to scope measurements.
  void Reset();

 private:
  friend class CounterBlock;
  Registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::vector<Counter*> counters_by_id_;  // Counter::id_ indexes this.
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// A dynamic metric family whose registry names embed an open-ended value
/// as their trailing segment — "serve.shed.<reason>",
/// "serve.breaker_state.<dataset>". Flattening such names through the
/// name sanitizer is lossy: "a-b", "a.b", and "a_b" all sanitize to
/// "a_b", silently merging distinct datasets into one series. A rule
/// instead folds every metric under `prefix + "."` into ONE exposition
/// family named after `prefix`, carrying the remainder verbatim as the
/// value of a `label`-named label (label values admit any UTF-8, so
/// distinct raw names can never collide).
struct PromLabelRule {
  std::string prefix;  // Registry-name prefix, without the trailing dot.
  std::string label;   // Label name carrying the trailing segment.
};

/// The rules PrometheusText applies by default: the serve layer's
/// per-dataset breaker gauges, per-reason shed counters, per-outcome
/// latency histograms, and the admin server's per-endpoint counters.
const std::vector<PromLabelRule>& DefaultPromLabelRules();

/// Prometheus text exposition (v0.0.4, scrape-compatible with OpenMetrics
/// consumers) of a snapshot. Metric names are sanitized (characters
/// outside [a-zA-Z0-9_:] become '_') and prefixed `topkdup_`; counters get
/// the conventional `_total` suffix; histograms emit *cumulative*
/// `_bucket{le="..."}` series (the registry's buckets are already
/// inclusive upper bounds) plus the `le="+Inf"` bucket, `_sum`, and
/// `_count`. Values print with enough digits to round-trip doubles.
/// Metrics matching a PromLabelRule render as labeled series of one
/// family (with label values escaped per the exposition format); the
/// one-argument overload applies DefaultPromLabelRules().
std::string PrometheusText(const MetricsSnapshot& snapshot);
std::string PrometheusText(const MetricsSnapshot& snapshot,
                           const std::vector<PromLabelRule>& rules);

/// Writes `PrometheusText(snapshot)` to `path` (e.g. for a node-exporter
/// textfile collector); returns false and logs when the write fails.
bool WritePrometheusText(const MetricsSnapshot& snapshot,
                         const std::string& path);

}  // namespace topkdup::metrics

#endif  // TOPKDUP_COMMON_METRICS_H_
