#include "common/resource_meter.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

namespace topkdup::resource {

namespace {

/// Per-thread attribution state. `cpu_mark` is the thread CPU clock at
/// the last boundary (attach, stage switch); every boundary charges
/// [cpu_mark, now) to the stage that was current across the interval, so
/// intervals are exclusive and stage sums reconcile with the total.
struct ThreadAttribution {
  ResourceMeter* meter = nullptr;
  const char* stage = nullptr;
  double cpu_mark = 0.0;
};

thread_local ThreadAttribution t_attr;

void FlushToCurrentStage(double now) {
  ThreadAttribution& attr = t_attr;
  if (attr.meter == nullptr) return;
  attr.meter->Charge(attr.stage != nullptr ? attr.stage : kOtherStage,
                     now - attr.cpu_mark);
  attr.cpu_mark = now;
}

double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

}  // namespace

void ResourceMeter::Charge(std::string_view stage, double cpu_seconds) {
  if (!(cpu_seconds > 0.0)) return;  // Clamp negatives and NaNs.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stage_cpu_.find(stage);
  if (it == stage_cpu_.end()) {
    stage_cpu_.emplace(std::string(stage), cpu_seconds);
  } else {
    it->second += cpu_seconds;
  }
}

double ResourceMeter::CpuSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const auto& [stage, cpu] : stage_cpu_) total += cpu;
  return total;
}

std::vector<std::pair<std::string, double>> ResourceMeter::StageBreakdown()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return {stage_cpu_.begin(), stage_cpu_.end()};
}

void ResourceMeter::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  stage_cpu_.clear();
}

const char* StageForSpan(const char* span_name) {
  struct Mapping {
    const char* span;
    const char* stage;
  };
  // Allowlist of stage-delimiting spans. Orchestration spans
  // (serve.query, parallel.region, parallel.shard, dedup.level, ...)
  // are deliberately absent: they wrap stages and must not capture the
  // attribution themselves. segment.scorer.fill nests inside
  // segment.topk_dp and maps to the same stage, so the switch is a
  // no-op rather than a theft. dedup.necessary_index, the build of the
  // index a level's lower bound and prune share, is charged to the lower
  // bound, which reads it first. online.corpus is an online query's
  // corpus and predicate construction over the snapshot.
  static constexpr Mapping kStages[] = {
      {"online.corpus", "corpus"},
      {"dedup.collapse", "collapse"},
      {"dedup.necessary_index", "lower_bound"},
      {"dedup.lower_bound", "lower_bound"},
      {"dedup.prune", "prune"},
      {"topk.pair_scores", "pair_scoring"},
      {"segment.topk_dp", "segment_dp"},
      {"segment.scorer.fill", "segment_dp"},
      {"embed.greedy", "embedding"},
  };
  if (span_name == nullptr) return nullptr;
  for (const Mapping& m : kStages) {
    if (std::strcmp(span_name, m.span) == 0) return m.stage;
  }
  return nullptr;
}

double ThreadCpuSeconds() {
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

ScopedMeterAttach::ScopedMeterAttach(ResourceMeter* meter, const char* stage)
    : saved_meter_(t_attr.meter),
      saved_stage_(t_attr.stage),
      saved_mark_(t_attr.cpu_mark) {
  const double now = ThreadCpuSeconds();
  // Suspend any outer attachment: flush its open interval so the inner
  // scope's CPU is never double-charged to it.
  FlushToCurrentStage(now);
  t_attr.meter = meter;
  t_attr.stage = stage;
  t_attr.cpu_mark = now;
}

ScopedMeterAttach::~ScopedMeterAttach() {
  const double now = ThreadCpuSeconds();
  FlushToCurrentStage(now);
  t_attr.meter = saved_meter_;
  t_attr.stage = saved_stage_;
  // Resume the outer attachment's clock at `now`: the inner scope's CPU
  // belongs to the inner meter alone.
  t_attr.cpu_mark = saved_meter_ != nullptr ? now : saved_mark_;
}

CpuWindow::CpuWindow(double window_seconds, int buckets) {
  if (buckets < 1) buckets = 1;
  if (!(window_seconds > 0.0)) window_seconds = 60.0;
  bucket_seconds_ = window_seconds / buckets;
  buckets_.resize(static_cast<size_t>(buckets));
}

void CpuWindow::Add(std::string_view key, double cpu_seconds) {
  AddAt(NowSeconds(), key, cpu_seconds);
}

void CpuWindow::AddAt(double now_seconds, std::string_view key,
                      double cpu_seconds) {
  if (!(cpu_seconds > 0.0)) return;
  const int64_t epoch =
      static_cast<int64_t>(std::floor(now_seconds / bucket_seconds_));
  std::lock_guard<std::mutex> lock(mu_);
  Bucket& bucket = buckets_[static_cast<size_t>(epoch) % buckets_.size()];
  if (bucket.epoch != epoch) {
    bucket.epoch = epoch;
    bucket.cpu.clear();
  }
  auto it = bucket.cpu.find(key);
  if (it == bucket.cpu.end()) {
    bucket.cpu.emplace(std::string(key), cpu_seconds);
  } else {
    it->second += cpu_seconds;
  }
}

std::vector<std::pair<std::string, double>> CpuWindow::Top(size_t n) const {
  return TopAt(NowSeconds(), n);
}

std::vector<std::pair<std::string, double>> CpuWindow::TopAt(
    double now_seconds, size_t n) const {
  const int64_t epoch =
      static_cast<int64_t>(std::floor(now_seconds / bucket_seconds_));
  const int64_t oldest = epoch - static_cast<int64_t>(buckets_.size()) + 1;
  std::map<std::string, double> merged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Bucket& bucket : buckets_) {
      if (bucket.epoch < oldest || bucket.epoch > epoch) continue;
      for (const auto& [key, cpu] : bucket.cpu) merged[key] += cpu;
    }
  }
  std::vector<std::pair<std::string, double>> top(merged.begin(),
                                                  merged.end());
  std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (top.size() > n) top.resize(n);
  return top;
}

namespace internal {

Attribution CurrentAttribution() {
  return {t_attr.meter, t_attr.stage, metrics::internal::t_counter_block};
}

SpanToken OnSpanBegin(const char* span_name) {
  SpanToken token;
  if (t_attr.meter == nullptr) return token;
  const char* stage = StageForSpan(span_name);
  if (stage == nullptr) return token;
  const double now = ThreadCpuSeconds();
  FlushToCurrentStage(now);
  token.prev_stage = t_attr.stage;
  token.switched = true;
  t_attr.stage = stage;
  return token;
}

void OnSpanEnd(const SpanToken& token) {
  if (!token.switched) return;
  if (t_attr.meter == nullptr) return;
  const double now = ThreadCpuSeconds();
  FlushToCurrentStage(now);
  t_attr.stage = token.prev_stage;
}

}  // namespace internal

}  // namespace topkdup::resource
