#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>

#include <cerrno>
#include <limits>

#include "common/log.h"
#include "common/metrics.h"
#include "common/resource_meter.h"
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
// regions then run serially inline, because the enclosing region already
// spends the thread budget.
thread_local bool t_in_parallel_region = false;

/// Lazily grown shared worker pool. A parallel region lives on the stack of
/// the thread that launches it, so regions launched from different threads
/// run side by side: each queues itself for helpers, claims shards from its
/// own atomic cursor, then withdraws and waits only for the helpers that
/// joined it. Idle workers park on a condition variable.
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
    const int helpers =
        std::min(threads - 1, static_cast<int>(num_shards) - 1);
    Region region(fn, num_shards, helpers);
    {
      std::lock_guard<std::mutex> lock(mu_);
      while (static_cast<int>(workers_.size()) < helpers) {
        workers_.emplace_back([this] { WorkerLoop(); });
      }
      queue_.push_back(&region);
    }
    for (int i = 0; i < helpers; ++i) work_cv_.notify_one();

    // The launching thread is always a participant.
    region.ClaimShards();

    // Once withdrawn, no helper can join, so the region outlives every
    // helper that holds it.
    std::unique_lock<std::mutex> lock(mu_);
    if (region.wanted > 0) {
      queue_.erase(std::find(queue_.begin(), queue_.end(), &region));
    }
    region.done_cv.wait(lock, [&] { return region.inside == 0; });
  }

 private:
  struct Region {
    Region(const std::function<void(size_t)>& f, size_t n, int helpers)
        : fn(f), num_shards(n), wanted(helpers) {}

    void ClaimShards() {
      t_in_parallel_region = true;
      for (size_t s = next_shard.fetch_add(1, std::memory_order_relaxed);
           s < num_shards;
           s = next_shard.fetch_add(1, std::memory_order_relaxed)) {
        fn(s);
      }
      t_in_parallel_region = false;
    }

    const std::function<void(size_t)>& fn;
    const size_t num_shards;
    int wanted;      // Helpers still wanted; guarded by Pool::mu_.
    int inside = 0;  // Helpers that joined and have not left; ditto.
    std::atomic<size_t> next_shard{0};
    std::condition_variable done_cv;  // Signalled when `inside` hits 0.
  };

  Pool() = default;

  void WorkerLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [&] { return !queue_.empty(); });
      Region* region = queue_.front();
      if (--region->wanted == 0) queue_.pop_front();
      ++region->inside;
      lock.unlock();
      region->ClaimShards();
      lock.lock();
      // Notified under the lock: the launching thread frees the region as
      // soon as it can reacquire mu_.
      if (--region->inside == 0) region->done_cv.notify_one();
    }
  }

  std::mutex mu_;  // Guards queue_, workers_ and each region's counts.
  std::condition_variable work_cv_;
  std::deque<Region*> queue_;  // Regions still wanting helpers, oldest first.
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

  static metrics::Counter* regions =
      metrics::Registry::Global().GetCounter("parallel.regions");
  static metrics::Counter* shards =
      metrics::Registry::Global().GetCounter("parallel.shards");
  regions->Increment();
  shards->Add(num_shards);

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
  Pool::Instance().Run(num_shards, threads, [&](size_t s) {
    resource::ScopedMeterAttach meter_attach(sink.meter, sink.stage);
    metrics::CounterBlock::Delegate counter_block(sink.counters);
    // Per-shard span on the *executing* thread — the caller-side
    // "parallel.region" span above cannot show which worker lane ran
    // which shard, so without this the pool's threads have no spans at
    // all and a trace shows fan-out as a single opaque block.
    trace::Span shard_span("parallel.shard");
    shard_span.AddArg("shard", static_cast<int64_t>(s));
    fn(s);
  });
}

}  // namespace internal

}  // namespace topkdup
