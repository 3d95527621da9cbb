#include "serve/request_log.h"

#include <utility>

#include "common/log.h"
#include "common/rng.h"
#include "common/strings.h"

namespace topkdup::serve {

namespace {

/// Emitted lines and captured slow reports kept for /debug/queries.
constexpr size_t kRecentCapacity = 256;
constexpr size_t kSlowCapacity = 32;

}  // namespace

std::string RequestLogEvent::ToJsonLine() const {
  std::string out;
  out.reserve(384);
  out += StrFormat("{\"event\":\"query\",\"query_id\":%llu,\"dataset\":",
                   static_cast<unsigned long long>(query_id));
  AppendJsonString(&out, dataset);
  out += ",\"kind\":";
  AppendJsonString(&out, kind);
  out += StrFormat(",\"k\":%d,\"r\":%d,\"status\":", k, r);
  AppendJsonString(&out, status);
  out += ",\"outcome\":";
  AppendJsonString(&out, outcome);
  out += ",\"quality\":";
  AppendJsonString(&out, quality);
  out += StrFormat(",\"degraded\":%s", degraded ? "true" : "false");
  if (!degradation_stage.empty()) {
    out += ",\"degradation_stage\":";
    AppendJsonString(&out, degradation_stage);
  }
  if (!degradation_reason.empty()) {
    out += ",\"degradation_reason\":";
    AppendJsonString(&out, degradation_reason);
  }
  if (!shed_reason.empty()) {
    out += ",\"shed_reason\":";
    AppendJsonString(&out, shed_reason);
  }
  out += StrFormat(",\"attempts\":%d", attempts);
  out += StrFormat(",\"queue_seconds\":%.6f,\"latency_seconds\":%.6f",
                   queue_seconds, latency_seconds);
  out += ",\"attempt_seconds\":[";
  for (size_t i = 0; i < attempt_seconds.size(); ++i) {
    if (i > 0) out += ",";
    out += StrFormat("%.6f", attempt_seconds[i]);
  }
  out += "],\"work\":{";
  for (size_t i = 0; i < work.size(); ++i) {
    if (i > 0) out += ",";
    out += StrFormat("\"%s\":%llu", work[i].first,
                     static_cast<unsigned long long>(work[i].second));
  }
  out += StrFormat("},\"cpu_ms\":%.4f,\"cpu_stages\":{", cpu_ms);
  for (size_t i = 0; i < cpu_stages_ms.size(); ++i) {
    if (i > 0) out += ",";
    AppendJsonString(&out, cpu_stages_ms[i].first);
    out += StrFormat(":%.4f", cpu_stages_ms[i].second);
  }
  out += "}";
  if (epoch != 0) {
    out += StrFormat(",\"epoch\":%llu",
                     static_cast<unsigned long long>(epoch));
  }
  if (!cache.empty()) {
    out += ",\"cache\":";
    AppendJsonString(&out, cache);
    if (staleness_weight > 0.0) {
      out += StrFormat(",\"staleness_weight\":%.6f", staleness_weight);
    }
  }
  if (shed_predicted_ms > 0.0) {
    out += StrFormat(",\"shed_predicted_ms\":%.3f", shed_predicted_ms);
  }
  out += StrFormat(",\"slow\":%s}", slow ? "true" : "false");
  return out;
}

RequestLog::RequestLog(RequestLogOptions options)
    : options_(std::move(options)) {
  auto& registry = metrics::Registry::Global();
  emitted_ = registry.GetCounter("serve.requestlog.emitted");
  sampled_out_ = registry.GetCounter("serve.requestlog.sampled_out");
  slow_captured_ = registry.GetCounter("serve.requestlog.slow_captured");
  rotations_ = registry.GetCounter("serve.requestlog.rotations");
  if (options_.enabled && !options_.path.empty()) {
    file_ = std::fopen(options_.path.c_str(), "a");
    if (file_ == nullptr) {
      TOPKDUP_LOG(Error) << "request log: cannot open " << options_.path;
    } else {
      // Appending to a pre-existing file: rotation thresholds count the
      // bytes already there, not just this process's writes.
      std::fseek(file_, 0, SEEK_END);
      const long size = std::ftell(file_);
      file_bytes_ = size > 0 ? static_cast<uint64_t>(size) : 0;
    }
  }
}

RequestLog::~RequestLog() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
}

bool RequestLog::AdmitOk(uint64_t query_id) const {
  if (options_.ok_sample_every == 0) return false;
  if (options_.ok_sample_every == 1) return true;
  return SplitMix64(query_id) % options_.ok_sample_every == 0;
}

bool RequestLog::Record(const RequestLogEvent& event) {
  if (!options_.enabled) return false;
  const bool healthy = event.status == "ok" && !event.degraded &&
                       !event.slow && event.outcome == "exact";
  if (healthy && !AdmitOk(event.query_id)) {
    sampled_out_->Increment();
    return false;
  }
  std::string line = event.ToJsonLine();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (file_ != nullptr) {
      std::fputs(line.c_str(), file_);
      std::fputc('\n', file_);
      std::fflush(file_);
      file_bytes_ += line.size() + 1;
      if (options_.max_bytes > 0 && file_bytes_ > options_.max_bytes) {
        RotateLocked();
      }
    }
    recent_.push_back(std::move(line));
    while (recent_.size() > kRecentCapacity) recent_.pop_front();
  }
  emitted_->Increment();
  return true;
}

void RequestLog::RotateLocked() {
  std::fclose(file_);
  file_ = nullptr;
  const std::string rotated = options_.path + ".1";
  if (std::rename(options_.path.c_str(), rotated.c_str()) != 0) {
    TOPKDUP_LOG(Error) << "request log: cannot rotate " << options_.path
                       << " to " << rotated;
  }
  // Reopen regardless: losing rotation is survivable, losing the sink
  // is not.
  file_ = std::fopen(options_.path.c_str(), "a");
  if (file_ == nullptr) {
    TOPKDUP_LOG(Error) << "request log: cannot reopen " << options_.path;
  }
  file_bytes_ = 0;
  rotations_->Increment();
}

void RequestLog::CaptureSlow(const RequestLogEvent& event,
                             std::shared_ptr<const obs::ExplainReport> report) {
  if (!options_.enabled) return;
  SlowCapture capture;
  capture.event_json = event.ToJsonLine();
  capture.report = std::move(report);
  {
    std::lock_guard<std::mutex> lock(mu_);
    slow_.push_back(std::move(capture));
    while (slow_.size() > kSlowCapacity) slow_.pop_front();
  }
  slow_captured_->Increment();
}

std::vector<std::string> RequestLog::RecentLines() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<std::string>(recent_.begin(), recent_.end());
}

std::string RequestLog::DebugQueriesJson() const {
  std::string out = "{\"schema_version\":1,\"slow\":[";
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < slow_.size(); ++i) {
      if (i > 0) out += ",";
      out += "{\"query\":";
      out += slow_[i].event_json;
      out += ",\"explain\":";
      out += slow_[i].report != nullptr ? slow_[i].report->ToJson() : "null";
      out += "}";
    }
    out += "],\"recent\":[";
    for (size_t i = 0; i < recent_.size(); ++i) {
      if (i > 0) out += ",";
      out += recent_[i];
    }
  }
  out += "]}";
  return out;
}

}  // namespace topkdup::serve
