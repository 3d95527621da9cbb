#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <thread>

#include <cerrno>
#include <limits>

#include "common/log.h"
#include "common/metrics.h"
#include "common/resource_meter.h"
#include "common/timer.h"
#include "common/trace.h"

namespace topkdup {

namespace internal {

bool ParseThreadsEnvValue(const char* value, int* threads) {
  if (value == nullptr || *value == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (errno == ERANGE || end == value || *end != '\0') return false;
  if (parsed < 1 || parsed > std::numeric_limits<int>::max()) return false;
  *threads = static_cast<int>(parsed);
  return true;
}

}  // namespace internal

namespace {

// Hard ceiling on worker threads; oversubscription beyond this serves no
// purpose even for determinism tests.
constexpr int kMaxThreads = 256;

int HardwareDefault() {
  if (const char* env = std::getenv("TOPKDUP_THREADS")) {
    int v = 0;
    if (internal::ParseThreadsEnvValue(env, &v)) {
      return std::min(v, kMaxThreads);
    }
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      TOPKDUP_LOG(Warning)
          << "ignoring unparseable TOPKDUP_THREADS value \"" << env
          << "\"; using the hardware default";
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : std::min<int>(static_cast<int>(hw), kMaxThreads);
}

std::atomic<int> g_override{0};  // <= 0: use HardwareDefault().

// The innermost ScopedParallelism on this thread (0: none). Thread-local,
// so one query's `threads` option never reaches a concurrent query's
// regions; only the launching thread reads the level (nested regions run
// inline), so a scope covers all of its own thread's regions.
thread_local int t_scoped_override = 0;

// True while this thread executes inside a parallel region; nested
// regions then run serially inline (also keeps the pool's region mutex
// from self-deadlocking).
thread_local bool t_in_parallel_region = false;

/// Lazily grown shared worker pool. One parallel region runs at a time
/// (region_mutex_); workers park on a condition variable between regions
/// and claim shards from an atomic counter within one.
class Pool {
 public:
  static Pool& Instance() {
    // Leaked on purpose: worker threads must not be joined during static
    // destruction (they may hold the mutex).
    static Pool* pool = new Pool;
    return *pool;
  }

  void Run(size_t num_shards, int threads,
           const std::function<void(size_t)>& fn) {
    std::unique_lock<std::mutex> region(region_mutex_);
    const int helpers =
        std::min(threads - 1, static_cast<int>(num_shards) - 1);
    EnsureWorkers(helpers);

    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &fn;
      num_shards_ = num_shards;
      next_shard_.store(0, std::memory_order_relaxed);
      helper_cap_.store(helpers, std::memory_order_relaxed);
      finished_ = 0;
      expected_finishers_ = static_cast<int>(workers_.size());
      ++epoch_;
    }
    work_cv_.notify_all();

    // The caller is always a participant.
    t_in_parallel_region = true;
    for (size_t s = next_shard_.fetch_add(1, std::memory_order_relaxed);
         s < num_shards;
         s = next_shard_.fetch_add(1, std::memory_order_relaxed)) {
      fn(s);
    }
    t_in_parallel_region = false;

    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return finished_ == expected_finishers_; });
    job_ = nullptr;
  }

 private:
  Pool() = default;

  void EnsureWorkers(int count) {
    // Only called with region_mutex_ held and no region in flight. The
    // baseline epoch is captured *here*, not inside the worker: the new
    // thread may not get scheduled until after the caller publishes the
    // next job, and reading epoch_ then would make it skip that job —
    // and Run would wait forever for its check-in.
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t baseline = epoch_;
    while (static_cast<int>(workers_.size()) < count) {
      workers_.emplace_back([this, baseline] { WorkerLoop(baseline); });
    }
  }

  void WorkerLoop(uint64_t seen_epoch) {
    for (;;) {
      const std::function<void(size_t)>* job;
      size_t num_shards;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] { return epoch_ != seen_epoch; });
        seen_epoch = epoch_;
        job = job_;
        num_shards = num_shards_;
      }
      // Respect the region's thread budget: only the first `helper_cap_`
      // workers to arrive join in; the rest just check out.
      if (helper_cap_.fetch_sub(1, std::memory_order_acq_rel) > 0) {
        t_in_parallel_region = true;
        for (size_t s = next_shard_.fetch_add(1, std::memory_order_relaxed);
             s < num_shards;
             s = next_shard_.fetch_add(1, std::memory_order_relaxed)) {
          (*job)(s);
        }
        t_in_parallel_region = false;
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++finished_;
      }
      done_cv_.notify_one();
    }
  }

  std::mutex region_mutex_;  // Serializes whole parallel regions.

  std::mutex mu_;  // Guards the per-region job state below.
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t epoch_ = 0;
  const std::function<void(size_t)>* job_ = nullptr;
  size_t num_shards_ = 0;
  int finished_ = 0;
  int expected_finishers_ = 0;
  std::atomic<size_t> next_shard_{0};
  std::atomic<int> helper_cap_{0};
  std::vector<std::thread> workers_;
};

}  // namespace

int ParallelismLevel() {
  if (t_scoped_override > 0) return t_scoped_override;
  const int v = g_override.load(std::memory_order_relaxed);
  if (v > 0) return std::min(v, kMaxThreads);
  return HardwareDefault();
}

void SetParallelism(int threads) {
  g_override.store(threads > 0 ? std::min(threads, kMaxThreads) : 0,
                   std::memory_order_relaxed);
}

ScopedParallelism::ScopedParallelism(int threads)
    : previous_(t_scoped_override), active_(threads > 0) {
  if (active_) t_scoped_override = std::min(threads, kMaxThreads);
}

ScopedParallelism::~ScopedParallelism() {
  if (active_) t_scoped_override = previous_;
}

ShardLayout MakeShards(size_t begin, size_t end, size_t grain) {
  ShardLayout layout;
  layout.begin = begin;
  layout.end = std::max(begin, end);
  layout.shard_size = std::max<size_t>(grain, 1);
  return layout;
}

size_t DefaultGrain(size_t n) {
  return std::max<size_t>(1, (n + 63) / 64);
}

namespace internal {

void RunShards(size_t num_shards, const std::function<void(size_t)>& fn) {
  if (num_shards == 0) return;
  const int threads = ParallelismLevel();
  if (threads <= 1 || num_shards == 1 || t_in_parallel_region) {
    for (size_t s = 0; s < num_shards; ++s) fn(s);
    return;
  }

  // Pool utilization metrics: per-region latency, per-shard task latency,
  // and a queue-depth gauge tracking shards not yet claimed. Handles are
  // resolved once; the per-shard cost is one clock read plus striped
  // relaxed adds.
  static metrics::Counter* regions =
      metrics::Registry::Global().GetCounter("parallel.regions");
  static metrics::Counter* shards =
      metrics::Registry::Global().GetCounter("parallel.shards");
  static metrics::Gauge* threads_gauge =
      metrics::Registry::Global().GetGauge("parallel.threads");
  static metrics::Gauge* queue_depth =
      metrics::Registry::Global().GetGauge("parallel.queue_depth");
  static metrics::Histogram* region_seconds =
      metrics::Registry::Global().GetHistogram(
          "parallel.region_seconds", metrics::LatencySecondsBounds());
  static metrics::Histogram* shard_seconds =
      metrics::Registry::Global().GetHistogram(
          "parallel.shard_seconds", metrics::LatencySecondsBounds());
  regions->Increment();
  shards->Add(num_shards);
  threads_gauge->Set(threads);

  trace::Span span("parallel.region");
  span.AddArg("shards", static_cast<int64_t>(num_shards));
  span.AddArg("threads", threads);

  // Shard CPU is charged to the launching thread's meter under the stage
  // that was current at region launch, and shard counter increments land
  // in its innermost counter block, so fan-out loses no per-query
  // accounting: a pool worker's own thread-local attachment belongs to
  // whatever query last ran on it.
  const resource::internal::Attribution sink =
      resource::internal::CurrentAttribution();
  const auto instrumented = [&](size_t s) {
    resource::ScopedMeterAttach meter_attach(sink.meter, sink.stage);
    metrics::CounterBlock::Delegate counter_block(sink.counters);
    // `s` is claimed in increasing order, so num_shards - s approximates
    // the shards still queued when this task starts.
    queue_depth->Set(static_cast<double>(num_shards - 1 - s));
    // Per-shard span on the *executing* thread — the caller-side
    // "parallel.region" span above cannot show which worker lane ran
    // which shard, so without this the pool's threads have no spans at
    // all and a trace shows fan-out as a single opaque block.
    trace::Span shard_span("parallel.shard");
    shard_span.AddArg("shard", static_cast<int64_t>(s));
    Timer timer;
    fn(s);
    shard_seconds->Observe(timer.ElapsedSeconds());
  };
  metrics::ScopedTimer region_timer(region_seconds);
  Pool::Instance().Run(num_shards, threads, instrumented);
  region_timer.Stop();
  queue_depth->Set(0.0);
}

}  // namespace internal

}  // namespace topkdup
