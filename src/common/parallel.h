#ifndef TOPKDUP_COMMON_PARALLEL_H_
#define TOPKDUP_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace topkdup {

/// Number of threads the calling thread's parallel regions use right now:
/// the innermost ScopedParallelism on this thread, else the last
/// SetParallelism value, else the TOPKDUP_THREADS environment variable,
/// else std::thread::hardware_concurrency(). Always >= 1.
int ParallelismLevel();

/// Overrides the thread count for subsequent parallel regions. Values
/// above the hardware concurrency are honored (useful for determinism
/// tests); `threads <= 0` restores the environment/hardware default.
/// Affects the whole process; benches and query drivers call this once
/// up front, not concurrently with running queries.
void SetParallelism(int threads);

/// RAII parallelism override for the calling thread only: sets `threads`
/// (0 = leave unchanged) and restores the thread's previous level on
/// destruction. Used by the query drivers to honor a per-call `threads`
/// option; concurrent queries on other threads keep their own levels.
class ScopedParallelism {
 public:
  explicit ScopedParallelism(int threads);
  ~ScopedParallelism();
  ScopedParallelism(const ScopedParallelism&) = delete;
  ScopedParallelism& operator=(const ScopedParallelism&) = delete;

 private:
  int previous_;
  bool active_;
};

/// Partition of [begin, end) into contiguous shards of at most
/// `shard_size` elements. The layout depends only on the range and the
/// grain — never on the thread count — so per-shard results merged in
/// shard order are bit-identical at any parallelism level.
struct ShardLayout {
  size_t begin = 0;
  size_t end = 0;
  size_t shard_size = 1;

  size_t shard_count() const {
    const size_t n = end - begin;
    return n == 0 ? 0 : (n + shard_size - 1) / shard_size;
  }

  /// Half-open element range of shard `s`.
  std::pair<size_t, size_t> Shard(size_t s) const {
    const size_t b = begin + s * shard_size;
    return {b, std::min(end, b + shard_size)};
  }
};

/// Lays out [begin, end) in shards of `grain` elements (grain < 1 is
/// clamped to 1). Pick the grain so a shard amortizes scheduling cost —
/// DefaultGrain below is the usual choice.
ShardLayout MakeShards(size_t begin, size_t end, size_t grain);

/// A grain giving at most ~64 shards over `n` elements: enough slack for
/// dynamic load balancing at any sane thread count while keeping
/// per-shard overhead negligible. Thread-count independent by design.
size_t DefaultGrain(size_t n);

namespace internal {

/// Strict parse of a TOPKDUP_THREADS value: base-10 integer, whole string,
/// >= 1 (values above the worker ceiling are accepted and clamped by the
/// caller). Returns false on garbage, emptiness, zero/negatives, or
/// overflow — the caller then warns once and keeps the hardware default
/// rather than silently running single-threaded on a typo.
bool ParseThreadsEnvValue(const char* value, int* threads);

/// Runs fn(shard) for every shard in [0, num_shards) on the shared pool,
/// blocking until all complete. The calling thread participates. Shards
/// are claimed from an atomic counter (self-scheduling, no stealing);
/// which thread runs which shard is unspecified, so `fn` must only touch
/// shard-owned state. Nested calls from inside a parallel region run
/// serially inline. Thread-safe: regions launched from different threads
/// run at the same time on the shared workers.
void RunShards(size_t num_shards, const std::function<void(size_t)>& fn);

}  // namespace internal

/// Calls fn(shard_begin, shard_end, shard_index) for every shard of
/// [begin, end) under `grain`. Shards run concurrently; the layout is
/// thread-count independent (see ShardLayout).
inline void ParallelForShards(
    size_t begin, size_t end, size_t grain,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  const ShardLayout layout = MakeShards(begin, end, grain);
  internal::RunShards(layout.shard_count(), [&](size_t s) {
    const auto [b, e] = layout.Shard(s);
    fn(b, e, s);
  });
}

/// Calls fn(i) for every i in [begin, end), sharded by `grain`. Each
/// index is visited exactly once; iterations must be independent (write
/// only to slot i).
inline void ParallelFor(size_t begin, size_t end, size_t grain,
                        const std::function<void(size_t)>& fn) {
  ParallelForShards(begin, end, grain,
                    [&](size_t b, size_t e, size_t /*shard*/) {
                      for (size_t i = b; i < e; ++i) fn(i);
                    });
}

/// Deterministic map-reduce over [begin, end): `map(b, e, &buffer)` fills
/// one default-constructed Buffer per shard, then `merge(&total, buffer)`
/// folds the buffers into a default-constructed total *in shard order*.
/// Because the shard layout ignores the thread count, the merged result
/// is bit-identical at any parallelism level.
template <typename Buffer, typename MapFn, typename MergeFn>
Buffer ParallelReduce(size_t begin, size_t end, size_t grain, MapFn map,
                      MergeFn merge) {
  const ShardLayout layout = MakeShards(begin, end, grain);
  std::vector<Buffer> buffers(layout.shard_count());
  internal::RunShards(layout.shard_count(), [&](size_t s) {
    const auto [b, e] = layout.Shard(s);
    map(b, e, &buffers[s]);
  });
  Buffer total{};
  for (Buffer& buffer : buffers) merge(&total, std::move(buffer));
  return total;
}

}  // namespace topkdup

#endif  // TOPKDUP_COMMON_PARALLEL_H_
