#include "common/deadline.h"

#include "common/log.h"
#include "common/metrics.h"

namespace topkdup {

const char* DeadlineReasonName(DeadlineReason reason) {
  switch (reason) {
    case DeadlineReason::kNone:
      return "none";
    case DeadlineReason::kWallClock:
      return "wall_clock";
    case DeadlineReason::kWorkBudget:
      return "work_budget";
  }
  return "unknown";
}

Deadline Deadline::AfterMillis(int64_t millis) {
  Deadline d;
  d.has_wall_ = true;
  d.wall_deadline_ = Clock::now() + std::chrono::milliseconds(millis);
  return d;
}

Deadline Deadline::WithWorkBudget(uint64_t units) {
  Deadline d;
  d.has_budget_ = true;
  d.work_budget_ = units;
  return d;
}

bool Deadline::CheckSlow(bool include_work_budget) const {
  if (include_work_budget && has_budget_ &&
      work_charged_.load(std::memory_order_relaxed) >= work_budget_) {
    Latch(DeadlineReason::kWorkBudget);
    return true;
  }
  if (has_wall_ && Clock::now() >= wall_deadline_) {
    Latch(DeadlineReason::kWallClock);
    return true;
  }
  return false;
}

void Deadline::Latch(DeadlineReason reason) const {
  int expected = static_cast<int>(DeadlineReason::kNone);
  latched_.compare_exchange_strong(expected, static_cast<int>(reason),
                                   std::memory_order_relaxed,
                                   std::memory_order_relaxed);
}

void MarkDegraded(const Deadline& deadline, const char* stage, int level,
                  bool partial_stage, DegradationInfo* info) {
  if (info->degraded) return;
  info->degraded = true;
  info->stage = stage;
  info->level = level;
  info->reason = deadline.reason();
  info->work_done = deadline.work_charged();
  info->work_budget = deadline.work_budget();
  info->partial_stage = partial_stage;
  auto& registry = metrics::Registry::Global();
  registry.GetCounter("deadline.degraded_queries")->Increment();
  registry.GetCounter(std::string("deadline.stage_stopped.") + stage)
      ->Increment();
  TOPKDUP_LOG(Info) << "deadline expired (" << DeadlineReasonName(info->reason)
                    << ") in stage " << stage
                    << (level > 0 ? " at level " + std::to_string(level) : "")
                    << (partial_stage ? " (mid-stage)" : " (stage boundary)");
}

}  // namespace topkdup
